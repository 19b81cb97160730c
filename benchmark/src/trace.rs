//! In-memory spans recorded around calls into the program's public API,
//! written out when the run ends.

use std::time::Instant;

use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::Session;

/// What a span belongs to: spans of one session step, one wave or one
/// served job share an id; `Poll` numbers the all-jobs `status` reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpanId {
    Wave(usize),
    Step { session: usize, step: usize },
    Job(usize),
    Poll(usize),
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Seconds since the tracer's origin.
    pub start: f64,
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    pub id: SpanId,
    /// Work units the span covered (inference rows; 1 otherwise).
    pub rows: usize,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::with_capacity(1 << 16),
        }
    }

    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span starting now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: SpanId) -> usize {
        let start = self.now();
        self.record(name, parent, id, start, f64::NAN)
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.now();
    }

    /// Records a span the caller timed itself.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: SpanId,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            id,
            rows: 1,
        });
        self.spans.len() - 1
    }

    pub fn set_rows(&mut self, span: usize, rows: usize) {
        self.spans[span].rows = rows;
    }

    /// Appends another tracer's spans, re-basing their times onto this
    /// tracer's origin and their parents onto its span list.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = if other.origin >= self.origin {
            (other.origin - self.origin).as_secs_f64()
        } else {
            -(self.origin - other.origin).as_secs_f64()
        };
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.start += offset;
            s.end += offset;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// `(span count, total seconds, total rows)` of the spans called `name`.
    pub fn totals(&self, name: &str) -> (usize, f64, usize) {
        self.named(name).fold((0, 0.0, 0), |(n, t, r), s| {
            (n + 1, t + s.secs(), r + s.rows)
        })
    }

    /// Share of the `name` spans' total time that no child span covers.
    pub fn unaccounted_share(&self, name: &str) -> f64 {
        let mut covered = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.secs();
            }
        }
        let (mut total, mut own) = (0.0, 0.0);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                total += s.secs();
                own += s.secs() - covered[i];
            }
        }
        own / total
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let id = match s.id {
                    SpanId::Wave(w) => obj(vec![("wave", Json::Num(w as f64))]),
                    SpanId::Step { session, step } => obj(vec![
                        ("session", Json::Num(session as f64)),
                        ("step", Json::Num(step as f64)),
                    ]),
                    SpanId::Job(j) => obj(vec![("job", Json::Num(j as f64))]),
                    SpanId::Poll(k) => obj(vec![("poll", Json::Num(k as f64))]),
                };
                obj(vec![
                    ("name", Json::Str(s.name.into())),
                    ("start_s", Json::Num(s.start)),
                    ("end_s", Json::Num(s.end)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("id", id),
                    ("rows", Json::Num(s.rows as f64)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

/// Drives `sessions` to their end on the calling thread, wave by wave, as
/// `Ensemble::run_to_end(1)` does, with a span around every call into
/// the session layer: DL sessions through `step_prepare`, one leader
/// `infer_batch` for the whole cohort and `step_apply`; the rest through
/// `step`. `base` offsets the session index in span ids.
pub fn traced_waves(sessions: &mut [Session], base: usize, tracer: &mut Tracer) {
    let mut input: Vec<f32> = Vec::new();
    let mut output: Vec<f32> = Vec::new();
    let mut cohort: Vec<usize> = Vec::new();
    let mut solo: Vec<usize> = Vec::new();
    let mut wave = 0usize;
    loop {
        cohort.clear();
        solo.clear();
        let mut shape = None;
        for (i, s) in sessions.iter_mut().enumerate() {
            if s.is_complete() || !s.is_healthy() {
                continue;
            }
            match s.batched_infer_shape() {
                Some(sh) => {
                    assert!(shape.is_none_or(|x| x == sh), "one cohort per fleet");
                    shape = Some(sh);
                    cohort.push(i);
                }
                None => solo.push(i),
            }
        }
        if cohort.is_empty() && solo.is_empty() {
            return;
        }
        let w = tracer.open("engine.wave", None, SpanId::Wave(wave));
        if let Some((in_w, out_w)) = shape {
            let m = cohort.len();
            input.resize(m * in_w, 0.0);
            output.resize(m * out_w, 0.0);
            for (r, &i) in cohort.iter().enumerate() {
                let id = SpanId::Step {
                    session: base + i,
                    step: sessions[i].steps_done(),
                };
                let sp = tracer.open("engine.prepare", Some(w), id);
                sessions[i].step_prepare(&mut input[r * in_w..(r + 1) * in_w]);
                tracer.close(sp);
            }
            let sp = tracer.open("nn.infer", Some(w), SpanId::Wave(wave));
            sessions[cohort[0]].infer_batch(&input, m, &mut output);
            tracer.close(sp);
            tracer.set_rows(sp, m);
            for (r, &i) in cohort.iter().enumerate() {
                let id = SpanId::Step {
                    session: base + i,
                    step: sessions[i].steps_done(),
                };
                let sp = tracer.open("engine.apply", Some(w), id);
                sessions[i].step_apply(&output[r * out_w..(r + 1) * out_w]);
                tracer.close(sp);
                sessions[i].check_health();
            }
        }
        for &i in &solo {
            let id = SpanId::Step {
                session: base + i,
                step: sessions[i].steps_done(),
            };
            let sp = tracer.open("engine.step", Some(w), id);
            sessions[i].step();
            tracer.close(sp);
            sessions[i].check_health();
        }
        tracer.close(w);
        wave += 1;
    }
}
