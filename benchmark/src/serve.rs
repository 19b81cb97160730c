//! The `serve_open` workload: an open-loop tenant mix against an
//! in-process `dlpic-serve` daemon on loopback TCP.
//!
//! One process, two threads, two persistent library `Client`s: the
//! submitter sends each job when it is due, whatever the daemon is doing;
//! the poller reads one all-jobs `status` at a time and fetches `result`
//! for every job whose runs are all final. A job's latency runs from its
//! due time to the moment its result arrived.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{Backend, EnergyHistory, Engine, SweepSpec};
use dlpic_serve::client::{Client, RunResult};
use dlpic_serve::job::JobRequest;
use dlpic_serve::server::{ServeConfig, Server};

use crate::fleet::{self, two_stream};
use crate::model;
use crate::report::Outcome;
use crate::schedule::{arrivals, Arrival, JobKind, Traffic, BURST_TENANT};
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Steady arrivals per second across both steady tenants.
const STEADY_RATE: f64 = 4.4;
/// Seconds of traffic the fleet workloads' traced runs send to read the
/// serving layers.
const PROBE_SECONDS: f64 = 8.0;
/// Delay from the schedule's origin to its time zero.
const LEAD_S: f64 = 0.05;
/// How long after the last due time the poller waits for results.
const DRAIN_LIMIT_S: f64 = 60.0;
/// `health` requests timed on the idle daemon.
const IDLE_PINGS: usize = 10;
/// Steps of each served run: half the fleets' run lengths, so that a
/// 20 s run sends 100 jobs while the daemon stays about half busy.
pub const DL_STEPS: usize = 20;
pub const TRAD_STEPS: usize = 50;

fn traffic(seconds: f64) -> Traffic {
    Traffic {
        seconds,
        steady_rate: STEADY_RATE,
        trad_share: 0.25,
        burst_period_s: 12.5,
        burst_size: 6,
    }
}

/// What one arrival submits.
fn job_request(a: &Arrival) -> JobRequest {
    match a.kind {
        JobKind::DlSweep => JobRequest::sweep(
            SweepSpec::grid("two_stream", Scale::Paper)
                .axis("ppc", [50.0])
                .seeds(a.seeds.iter().copied()),
            Backend::Dl1D,
        )
        .with_steps(DL_STEPS),
        JobKind::Trad => JobRequest::scenario(
            two_stream(1000, TRAD_STEPS, a.seeds[0]),
            Backend::Traditional1D,
        ),
    }
}

fn session_steps(kind: JobKind) -> usize {
    match kind {
        JobKind::DlSweep => crate::schedule::DL_SWEEP_SEEDS * DL_STEPS,
        JobKind::Trad => TRAD_STEPS,
    }
}

fn serve_err(what: &str) -> impl Fn(dlpic_serve::ServeError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn history_of(result: &RunResult) -> Result<EnergyHistory, String> {
    let doc = result.summary.field("history").map_err(|e| e.to_string())?;
    EnergyHistory::from_json_value(doc).map_err(|e| e.to_string())
}

/// Checks one job's results: every run `done`, DL runs in the energy band.
fn job_ok(kind: JobKind, runs: usize, results: &[RunResult]) -> Result<(), String> {
    if results.len() != runs {
        return Err(format!("{} of {runs} results", results.len()));
    }
    for r in results {
        if r.state != "done" {
            return Err(format!("run {} ended {}", r.run, r.state));
        }
        if kind == JobKind::DlSweep && !model::energy_in_band(&history_of(r)?) {
            return Err(format!("run {} left the 0.3-4x energy band", r.run));
        }
    }
    Ok(())
}

/// Starts a daemon on the trained model and runs one warm-up job through
/// it; returns the server and the seconds that took.
fn start_daemon(out: &mut Outcome, bundle: &ModelBundle) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let engine = Engine::new().with_model_1d(bundle.clone());
    let config = ServeConfig::default()
        .listen("127.0.0.1:0")
        .max_sessions(16);
    let server = Server::start_with_engine(config, engine).map_err(serve_err("daemon start"))?;
    let mut client = Client::connect(server.addr()).map_err(serve_err("connect"))?;
    let warmup = Arrival {
        at_s: 0.0,
        tenant: "warmup",
        kind: JobKind::DlSweep,
        seeds: vec![1, 2, 3, 4],
    };
    let (id, runs) = client
        .submit(&job_request(&warmup), warmup.tenant)
        .map_err(serve_err("warm-up submit"))?;
    let results = client
        .wait_for(&id, Duration::from_millis(2))
        .map_err(serve_err("warm-up wait"))?;
    let secs = t0.elapsed().as_secs_f64();
    crate::progress("daemon up, warm-up job done");
    let verdict = job_ok(JobKind::DlSweep, runs, &results);
    out.check(verdict.is_ok(), || {
        format!("warm-up job: {}", verdict.unwrap_err())
    });
    Ok((server, secs))
}

fn stop_daemon(server: Server) -> Result<(), String> {
    Client::connect(server.addr())
        .and_then(|mut c| c.drain())
        .map_err(serve_err("drain"))?;
    server.wait();
    Ok(())
}

/// Job ids in a `status` document whose runs are all final.
fn final_jobs(doc: &Json) -> Result<Vec<String>, String> {
    let jobs = doc
        .field("jobs")
        .and_then(Json::as_arr)
        .map_err(|e| e.to_string())?;
    let mut done = Vec::new();
    for job in jobs {
        let runs = job
            .field("runs")
            .and_then(Json::as_arr)
            .map_err(|e| e.to_string())?;
        let all_final = runs.iter().all(|r| {
            matches!(
                r.field("state").and_then(Json::as_str),
                Ok("done" | "stopped" | "cancelled" | "failed")
            )
        });
        if all_final {
            let id = job
                .field("job")
                .and_then(Json::as_str)
                .map_err(|e| e.to_string())?;
            done.push(id.to_string());
        }
    }
    Ok(done)
}

/// What the open loop saw, indexed like the schedule.
struct Loop {
    sent: Vec<Option<f64>>,
    jobs: Vec<Result<(String, usize), String>>,
    recv: Vec<Option<f64>>,
    results: Vec<Vec<RunResult>>,
    tracer: Tracer,
}

/// Sends `schedule` open-loop and collects every result.
fn open_loop(addr: &str, schedule: &[Arrival], seconds: f64) -> Result<Loop, String> {
    let origin = Instant::now();
    let n = schedule.len();
    let (tx, rx) = mpsc::channel::<(usize, String)>();
    std::thread::scope(|scope| {
        let submitter = scope.spawn(move || -> Result<_, String> {
            let mut client = Client::connect(addr).map_err(serve_err("connect"))?;
            let mut tracer = Tracer::new(origin);
            let mut sent = vec![None; n];
            let mut jobs = vec![Err("not sent".to_string()); n];
            for (i, a) in schedule.iter().enumerate() {
                let wait = LEAD_S + a.at_s - tracer.now();
                if wait > 0.0 {
                    std::thread::sleep(Duration::from_secs_f64(wait));
                }
                let start = tracer.now();
                let reply = client.submit(&job_request(a), a.tenant);
                let end = tracer.now();
                tracer.record("serve.submit", None, SpanId::Job(i), start, end);
                sent[i] = Some(start);
                jobs[i] = match reply {
                    Ok((id, runs)) => {
                        // The poller outlives the submitter; a send only
                        // fails if it already gave up.
                        let _ = tx.send((i, id.clone()));
                        Ok((id, runs))
                    }
                    Err(e) => Err(e.to_string()),
                };
            }
            Ok((tracer, sent, jobs))
        });
        let poller = scope.spawn(move || -> Result<_, String> {
            let mut client = Client::connect(addr).map_err(serve_err("connect"))?;
            let mut tracer = Tracer::new(origin);
            let mut recv = vec![None; n];
            let mut results: Vec<Vec<RunResult>> = vec![Vec::new(); n];
            let mut pending: Vec<(usize, String)> = Vec::new();
            let deadline = LEAD_S + seconds + DRAIN_LIMIT_S;
            let mut open = true;
            let mut polls = 0;
            loop {
                loop {
                    match rx.try_recv() {
                        Ok(job) => pending.push(job),
                        Err(mpsc::TryRecvError::Empty) => break,
                        Err(mpsc::TryRecvError::Disconnected) => {
                            open = false;
                            break;
                        }
                    }
                }
                if pending.is_empty() {
                    if !open {
                        break;
                    }
                    match rx.recv_timeout(Duration::from_millis(20)) {
                        Ok(job) => pending.push(job),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => open = false,
                    }
                    continue;
                }
                if tracer.now() > deadline {
                    break;
                }
                let start = tracer.now();
                let doc = client.status(None).map_err(serve_err("status"))?;
                let end = tracer.now();
                tracer.record("serve.status", None, SpanId::Poll(polls), start, end);
                polls += 1;
                let finals = final_jobs(&doc)?;
                let mut fetched = 0;
                let mut k = 0;
                while k < pending.len() {
                    let (i, id) = &pending[k];
                    if !finals.contains(id) {
                        k += 1;
                        continue;
                    }
                    let start = tracer.now();
                    let r = client.results(id, None).map_err(serve_err("result"))?;
                    let end = tracer.now();
                    tracer.record("serve.result", None, SpanId::Job(*i), start, end);
                    recv[*i] = Some(end);
                    results[*i] = r;
                    pending.swap_remove(k);
                    fetched += 1;
                }
                if fetched == 0 {
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            Ok((tracer, recv, results))
        });
        let (mut tracer, sent, jobs) = submitter.join().expect("submitter thread panicked")?;
        let (polled, recv, results) = poller.join().expect("poller thread panicked")?;
        tracer.absorb(polled);
        Ok(Loop {
            sent,
            jobs,
            recv,
            results,
            tracer,
        })
    })
}

/// Latency and throughput figures of one served run.
struct Served {
    latency_ms: Vec<f64>,
    window_s: f64,
    completed: usize,
    steps_done: usize,
    tracer: Tracer,
}

/// Idle round trips, then the open loop against `server`, its checks and
/// the serving-layer metrics.
fn serve_layers(
    out: &mut Outcome,
    server: &Server,
    bundle: &ModelBundle,
    seed: u64,
    seconds: f64,
) -> Result<Served, String> {
    let mut client = Client::connect(server.addr()).map_err(serve_err("connect"))?;
    let mut idle = Vec::new();
    for _ in 0..IDLE_PINGS {
        let t = Instant::now();
        client.health().map_err(serve_err("health"))?;
        idle.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let stepping = |doc: &Json| doc.field("stepping_seconds").and_then(Json::as_f64);
    let before = client.status(None).map_err(serve_err("status"))?;
    let schedule = arrivals(seed, &traffic(seconds));
    crate::progress("idle round trips done");
    let run = open_loop(server.addr(), &schedule, seconds)?;
    crate::progress("open loop done");
    let after = client.status(None).map_err(serve_err("status"))?;

    let gave_up = run
        .recv
        .iter()
        .flatten()
        .fold(LEAD_S + seconds, |a: f64, &b| a.max(b));
    let mut latency = Vec::with_capacity(schedule.len());
    let (mut steady, mut burst) = (Vec::new(), Vec::new());
    let (mut completed, mut steps_done) = (0, 0);
    for (i, a) in schedule.iter().enumerate() {
        let due = LEAD_S + a.at_s;
        let verdict = match (&run.jobs[i], run.recv[i]) {
            (Err(e), _) => Err(format!("refused: {e}")),
            (Ok(_), None) => Err("no result before the drain limit".into()),
            (Ok((_, runs)), Some(_)) => job_ok(a.kind, *runs, &run.results[i]),
        };
        let ms = (run.recv[i].unwrap_or(gave_up) - due) * 1e3;
        if verdict.is_ok() {
            completed += 1;
            steps_done += session_steps(a.kind);
        }
        out.check(verdict.is_ok(), || {
            format!(
                "{} job {i} ({}): {}",
                a.tenant,
                a.kind.name(),
                verdict.as_ref().unwrap_err()
            )
        });
        latency.push(ms);
        if a.tenant == BURST_TENANT {
            burst.push(ms);
        } else {
            steady.push(ms);
        }
    }
    check_solo(out, bundle, &schedule, &run)?;

    let window_s = gave_up - LEAD_S;
    let rtt = |name: &str| {
        let v: Vec<f64> = run.tracer.named(name).map(|s| s.secs() * 1e3).collect();
        if v.is_empty() {
            f64::NAN
        } else {
            median(&v)
        }
    };
    let late: Vec<f64> = schedule
        .iter()
        .zip(&run.sent)
        .filter_map(|(a, s)| s.map(|s| (s - LEAD_S - a.at_s) * 1e3))
        .collect();
    let wave = after.field("wave_latency").map_err(|e| e.to_string())?;
    let wave_ms = |q: &str| {
        wave.field(q)
            .and_then(Json::as_f64)
            .map_err(|e| e.to_string())
    };
    let busy = stepping(&after).map_err(|e| e.to_string())?
        - stepping(&before).map_err(|e| e.to_string())?;
    out.metric("serve.idle_rtt_ms", median(&idle));
    out.metric("serve.submit_rtt_ms_p50", rtt("serve.submit"));
    out.metric("serve.status_rtt_ms_p50", rtt("serve.status"));
    out.metric("serve.result_rtt_ms_p50", rtt("serve.result"));
    out.metric("serve.stepping_share", busy / window_s);
    out.metric("serve.wave_p50_ms", wave_ms("p50_ms")?);
    out.metric("serve.wave_p99_ms", wave_ms("p99_ms")?);
    out.metric("serve.steady_latency_p50_ms", median(&steady));
    out.metric("serve.burst_latency_p50_ms", median(&burst));
    out.metric(
        "serve.generator_late_ms_max",
        late.iter().copied().fold(0.0, f64::max),
    );

    let sent: Vec<Json> = schedule
        .iter()
        .enumerate()
        .map(|(i, a)| {
            obj(vec![
                ("due_s", Json::Num(LEAD_S + a.at_s)),
                ("sent_s", run.sent[i].map_or(Json::Null, Json::Num)),
                ("tenant", Json::Str(a.tenant.into())),
                ("kind", Json::Str(a.kind.name().into())),
                (
                    "seeds",
                    Json::Arr(a.seeds.iter().map(|&s| Json::Num(s as f64)).collect()),
                ),
                ("latency_ms", Json::Num(latency[i])),
            ])
        })
        .collect();
    out.fact("schedule", Json::Arr(sent));
    out.fact("idle_rtt_ms_all", Json::num_arr(&idle));
    out.fact("stepping_share", Json::Num(busy / window_s));
    out.fact(
        "tail_percentile",
        tail_percentile(latency.len()).map_or(Json::Null, |p| Json::Num(p as f64)),
    );
    Ok(Served {
        latency_ms: latency,
        window_s,
        completed,
        steps_done,
        tracer: run.tracer,
    })
}

/// The first served DL sweep and the first traditional run must be
/// bit-identical to solo `Engine::run`s of the same specs.
fn check_solo(
    out: &mut Outcome,
    bundle: &ModelBundle,
    schedule: &[Arrival],
    run: &Loop,
) -> Result<(), String> {
    let mut engine = Engine::new().with_model_1d(bundle.clone());
    for kind in [JobKind::DlSweep, JobKind::Trad] {
        let Some(i) = schedule
            .iter()
            .enumerate()
            .position(|(i, a)| a.kind == kind && run.recv[i].is_some())
        else {
            continue;
        };
        let request = job_request(&schedule[i]);
        let specs = request.expand().map_err(|e| e.to_string())?;
        for (k, spec) in specs.iter().enumerate() {
            let solo = engine
                .run(spec, request.backend)
                .map_err(|e| format!("solo run: {e}"))?;
            let served = run.results[i].iter().find(|r| r.run == k);
            let same = match served {
                Some(r) => history_of(r)? == solo.history,
                None => false,
            };
            out.check(same, || {
                format!("served job {i} run {k} differs from its solo Engine::run")
            });
        }
    }
    Ok(())
}

/// The serving-layer metrics for the fleet workloads' traced runs: a
/// daemon on the same model and a short open loop of the same traffic.
pub fn layer_probe(out: &mut Outcome, bundle: &ModelBundle, seed: u64) -> Result<Tracer, String> {
    let (server, _) = start_daemon(out, bundle)?;
    let served = serve_layers(out, &server, bundle, seed, PROBE_SECONDS);
    stop_daemon(server)?;
    Ok(served?.tracer)
}

/// The `serve_open` workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let trained = model::train_paper_mlp();
    out.metric("dataset.generate_s", trained.generate_s);
    out.metric("nn.train_s", trained.train_s);
    let bundle = trained.bundle;

    let mut setups = Vec::new();
    let mut server = None;
    for k in 0..fleet::SETUP_REPEATS {
        let (s, secs) = start_daemon(&mut out, &bundle)?;
        setups.push(secs);
        if k + 1 < fleet::SETUP_REPEATS {
            stop_daemon(s)?;
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up");
    out.metric("setup_s", median(&setups));
    crate::reset_peak_rss(&mut out);

    let served = serve_layers(&mut out, &server, &bundle, args.seed, args.seconds);
    stop_daemon(server)?;
    let served = served?;
    out.metric("peak_rss_mb", crate::peak_rss_mb());
    out.metric("job_latency_p50_ms", percentile(&served.latency_ms, 50));
    out.metric("job_latency_p90_ms", percentile(&served.latency_ms, 90));
    out.metric("jobs_per_s", served.completed as f64 / served.window_s);
    out.metric(
        "session_steps_per_s",
        served.steps_done as f64 / served.window_s,
    );
    out.fact("jobs_sent", Json::Num(served.latency_ms.len() as f64));
    out.fact("window_s", Json::Num(served.window_s));

    if args.trace {
        let threads = dlpic_repro::core::pool::available_threads();
        let engine = Engine::new().with_model_1d(bundle.clone());
        let mut tracer = served.tracer;
        let plans = fleet::plans(&args.workload, args.seed, 0);
        let t = Instant::now();
        let built: usize = plans
            .iter()
            .map(|p| engine.start_ensemble(&p.specs, p.backend).map(|e| e.len()))
            .sum::<Result<usize, _>>()
            .map_err(|e| format!("building the session mix: {e}"))?;
        out.metric(
            "engine.build_ms_per_session",
            t.elapsed().as_secs_f64() * 1e3 / built as f64,
        );
        let ledger = fleet::ledger(
            &mut out,
            &engine,
            &bundle,
            &args.workload,
            args.seed,
            threads,
        )?;
        tracer.absorb(ledger);
        crate::write_trace(args, &tracer);
    }
    Ok(out)
}
