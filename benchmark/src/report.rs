//! Metric names, units and the result line.

use dlpic_repro::engine::json::{obj, Json};

/// Every end-to-end metric: `(name, unit)`. Printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("session_steps_per_s", "steps/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p90_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric: `(name, unit)`. Printed by every traced run.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nn.infer_ms_per_wave", "ms"),
    ("nn.rows_per_infer", "rows"),
    ("nn.infer_gflops", "GFLOP/s"),
    ("core.bin_ms_per_row", "ms"),
    ("pic.push_ms_per_row", "ms"),
    ("pic.trad_step_ms", "ms"),
    ("engine.prepare_ms_per_row", "ms"),
    ("engine.apply_ms_per_row", "ms"),
    ("engine.wave_ms", "ms"),
    ("engine.session_steps_per_s_1t", "steps/s"),
    ("pool.parallel_efficiency", "ratio"),
    ("dataset.generate_s", "s"),
    ("nn.train_s", "s"),
    ("engine.build_ms_per_session", "ms"),
    ("serve.idle_rtt_ms", "ms"),
    ("serve.submit_rtt_ms_p50", "ms"),
    ("serve.status_rtt_ms_p50", "ms"),
    ("serve.result_rtt_ms_p50", "ms"),
    ("serve.stepping_share", "ratio"),
    ("serve.wave_p50_ms", "ms"),
    ("serve.wave_p99_ms", "ms"),
    ("serve.steady_latency_p50_ms", "ms"),
    ("serve.burst_latency_p50_ms", "ms"),
    ("serve.generator_late_ms_max", "ms"),
    ("engine.unaccounted_share", "ratio"),
    ("engine.trace_overhead", "ratio"),
    ("failed_share", "ratio"),
];

/// What one benchmark run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: fleet runs, solo check runs, served jobs.
    pub attempted: u64,
    /// Attempted operations that faulted, were refused, or failed a check.
    pub failed: u64,
    /// Named measurements (end-to-end or per-layer, by mode).
    pub metrics: Vec<(&'static str, f64)>,
    /// Machine and run facts printed ahead of the result line.
    pub facts: Vec<(&'static str, Json)>,
    /// One line per failed check, for the log.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    pub fn fact(&mut self, name: &'static str, value: Json) {
        self.facts.push((name, value));
    }

    /// Counts one attempted operation, failed when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let line = what();
            eprintln!("CHECK FAILED: {line}");
            self.failures.push(line);
        }
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, with every metric of `names` present once.
    ///
    /// # Panics
    /// Panics when a metric of `names` was not measured or is not finite
    /// — a bug in this benchmark, not in the program measured.
    pub fn result_line(&self, names: &[(&str, &str)]) -> String {
        let metrics = names
            .iter()
            .map(|&(name, unit)| {
                let value = self
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {name} was not measured"));
                assert!(value.is_finite(), "metric {name} = {value}");
                (
                    name,
                    obj(vec![
                        ("value", Json::Num(value)),
                        ("unit", Json::Str(unit.into())),
                    ]),
                )
            })
            .collect();
        obj(vec![
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", obj(metrics)),
        ])
        .to_compact()
    }

    /// The facts line (one JSON object) printed before the result line.
    pub fn facts_line(&self) -> String {
        let mut fields = self.facts.clone();
        fields.push((
            "failures",
            Json::Arr(self.failures.iter().cloned().map(Json::Str).collect()),
        ));
        obj(vec![("facts", obj(fields))]).to_compact()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit, better)` of one BENCHMARK.json metric list.
    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.field(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = m.field("name").and_then(Json::as_str).expect("name");
                let unit = m.field("unit").and_then(Json::as_str).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    fn owned(names: &[(&str, &str)]) -> Vec<(String, String)> {
        names
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn printed_metric_names_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
        let workloads: Vec<&str> = doc
            .field("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.field("name").and_then(Json::as_str).expect("name"))
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut out = Outcome::default();
        for &(name, _) in END_TO_END {
            out.metric(name, 1.25);
        }
        out.check(true, String::new);
        let doc = Json::parse(&out.result_line(END_TO_END)).expect("result parses");
        let Json::Obj(fields) = &doc else {
            panic!("result is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let m = doc
            .field("metrics")
            .and_then(|m| m.field("setup_s"))
            .expect("setup_s");
        assert_eq!(m.field("value").and_then(Json::as_f64), Ok(1.25));
        assert_eq!(m.field("unit").and_then(Json::as_str), Ok("s"));
    }
}
