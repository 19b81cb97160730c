//! Serving-tier throughput: session·steps/sec of the paper-scale 16-run
//! DL fleet driven through a live `dlpic-serve` daemon, against the same
//! fleet driven directly through `Ensemble::run_to_end(1)`.
//!
//! The serving tier re-batches co-resident DL sessions into the same
//! lockstep waves as the ensemble layer, so its wave loop should be the
//! ensemble's wave loop plus control-plane overhead (one mutex hop per
//! wave, progress accounting, subscriber fan-out with no subscribers).
//! The contract: **served ≥ 0.9× direct** — multiplexing through the
//! daemon costs at most 10% of fleet throughput.
//!
//! The served number uses the daemon's own `stepping_seconds` meter:
//! cumulative wall time of the scheduler's wave + publish work,
//! excluding session construction (both sides exclude it) and idle
//! waits. That makes the comparison windows equivalent: total fleet
//! session·steps over seconds spent actually advancing the fleet.
//!
//! Before timing, the binary verifies on a mini-fleet that histories
//! served through the daemon are bit-identical to solo runs.
//!
//! CLI and gates: see `dlpic_bench::gate` (`gate::SERVE`). `--check`
//! gates the live served/direct ratio (≥ 0.9×), the anchor-rescaled
//! absolute throughputs at a 35% backstop, and the daemon's per-wave
//! latency p99 at 3× the committed `served_wave_p99_ms` after the same
//! rescaling.

use std::time::{Duration, Instant};

use dlpic_bench::gate::{self, calibration_gflops, median};
use dlpic_nn::linalg::simd_level;
use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{self, Backend, EnergyHistory, Engine, SweepSpec};
use dlpic_serve::client::Client;
use dlpic_serve::job::JobRequest;
use dlpic_serve::server::{ServeConfig, Server};

/// Same fleet geometry as `ensemble_throughput`: 16 paper-scale DL runs
/// (two full 8-row zmm tiles per batched wave), light particle load.
const RUNS: usize = 16;
const PPC: usize = 50;

fn fleet_sweep() -> SweepSpec {
    SweepSpec::grid("two_stream", Scale::Paper)
        .axis("ppc", [PPC as f64])
        .seeds(100..100 + RUNS as u64)
}

fn fleet_specs(steps: usize) -> Vec<engine::ScenarioSpec> {
    let mut specs = fleet_sweep().specs().expect("fleet expands");
    for spec in &mut specs {
        spec.n_steps = steps;
    }
    specs
}

/// Times `Ensemble::run_to_end(1)` over the fleet (construction
/// excluded — the daemon's meter excludes it too).
fn bench_direct(specs: &[engine::ScenarioSpec], reps: usize) -> Json {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut ensemble = engine
                .start_ensemble(specs, Backend::Dl1D)
                .expect("start ensemble");
            let t0 = Instant::now();
            ensemble.run_to_end(1);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(ensemble.is_complete());
            dt
        })
        .collect();
    gate::fleet_json(total_steps, times)
}

/// Submits the fleet as one sweep job to a fresh in-process daemon and
/// reads its `stepping_seconds` meter (and the wave-latency histogram's
/// p99) once every run is done.
fn bench_served(steps: usize, reps: usize) -> (Json, f64) {
    let total_steps = RUNS * steps;
    let samples: Vec<(f64, f64)> = (0..reps)
        .map(|_| {
            let server =
                Server::start(ServeConfig::default().max_sessions(RUNS)).expect("start server");
            let mut client = Client::connect(server.addr()).expect("connect");
            let job = JobRequest::sweep(fleet_sweep(), Backend::Dl1D).with_steps(steps);
            let (id, runs) = client.submit(&job, "bench").expect("submit");
            assert_eq!(runs, RUNS);
            // Poll status (not results: no need to ship histories) until
            // every run is final, then read the meter. Poll gently: on a
            // single-core box an eager poller preempts the scheduler
            // mid-wave and its runtime would be billed to the meter.
            let sample = loop {
                let doc = client.status(Some(&id)).expect("status");
                let runs = doc.field("jobs").and_then(Json::as_arr).expect("jobs")[0]
                    .field("runs")
                    .and_then(Json::as_arr)
                    .expect("runs")
                    .to_vec();
                let all_done = runs
                    .iter()
                    .all(|r| r.field("state").and_then(Json::as_str).expect("state") == "done");
                if all_done {
                    let stepping = doc
                        .field("stepping_seconds")
                        .and_then(Json::as_f64)
                        .expect("stepping_seconds");
                    let p99 = doc
                        .field("wave_latency")
                        .and_then(|w| w.field("p99_ms"))
                        .and_then(Json::as_f64)
                        .expect("wave_latency p99");
                    break (stepping, p99);
                }
                std::thread::sleep(Duration::from_millis(100));
            };
            client.drain().expect("drain");
            server.wait();
            sample
        })
        .collect();
    let p99 = median(samples.iter().map(|s| s.1).collect());
    (
        gate::fleet_json(total_steps, samples.iter().map(|s| s.0).collect()),
        p99,
    )
}

/// Asserts (on a mini-fleet) that histories served through the daemon
/// reproduce solo runs bit-for-bit before any number is reported.
fn verify_bit_identity() {
    let steps = 4;
    let specs: Vec<engine::ScenarioSpec> = fleet_specs(steps).into_iter().take(4).collect();
    let server = Server::start(ServeConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    let sweep = SweepSpec::grid("two_stream", Scale::Paper)
        .axis("ppc", [PPC as f64])
        .seeds(100..104);
    let job = JobRequest::sweep(sweep, Backend::Dl1D).with_steps(steps);
    let (id, _) = client.submit(&job, "verify").expect("submit");
    let results = client
        .wait_for(&id, Duration::from_millis(10))
        .expect("wait");
    for (i, (result, spec)) in results.iter().zip(&specs).enumerate() {
        let served =
            EnergyHistory::from_json_value(result.summary.field("history").expect("history"))
                .expect("history parses");
        let solo = Engine::new().run(spec, Backend::Dl1D).expect("solo run");
        assert!(
            served == solo.history,
            "run {i}: served history differs from solo — the daemon is not exact"
        );
    }
    client.drain().expect("drain");
    server.wait();
    eprintln!("bit-identity: served histories == solo histories (4-run fleet)");
}

fn measure(quick: bool) -> Json {
    let (steps, reps) = if quick { (30, 3) } else { (60, 5) };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    verify_bit_identity();
    let specs = fleet_specs(steps);
    eprintln!("measuring direct ensemble ({RUNS} runs x {steps} steps x {reps} reps)...");
    let direct = bench_direct(&specs, reps);
    eprintln!("measuring served fleet through the daemon...");
    let (served, wave_p99_ms) = bench_served(steps, reps);
    let rate = |fleet: &Json| {
        fleet
            .field("session_steps_per_sec")
            .and_then(Json::as_f64)
            .expect("fleet rate")
    };
    let served_vs_direct = rate(&served) / rate(&direct);
    obj(vec![
        ("calibration_gflops", Json::Num(calibration)),
        ("simd", Json::Str(simd_level().into())),
        ("runs", Json::Num(RUNS as f64)),
        ("steps", Json::Num(steps as f64)),
        ("ppc", Json::Num(PPC as f64)),
        ("direct", direct),
        ("served", served),
        ("served_vs_direct", Json::Num(served_vs_direct)),
        // p99 of the daemon's per-wave latency histogram (median over reps).
        ("served_wave_p99_ms", Json::Num(wave_p99_ms)),
    ])
}

fn main() {
    gate::main(&gate::SERVE, measure)
}
