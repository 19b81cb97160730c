//! Measures the engine facade's overhead against driving the solver
//! crates directly.
//!
//! Two facade layers are measured, in 1-D and 2-D, at physics-relevant
//! particle counts:
//!
//! * `engine::run` — the one-shot convenience (build + run + summary);
//! * the incremental `Session` — per-step virtual dispatch through
//!   `BackendSession::step`, one `Sample` allocation, history push and
//!   observer fan-out per step, driven from the caller's loop.
//!
//! Both must be noise against the direct `Simulation::step` loop. CLI
//! and gate: see `dlpic_bench::gate` (`gate::ENGINE`). `--check` gates
//! the worse session dispatch overhead at 2% (`DLPIC_ENGINE_MAX_OVERHEAD`,
//! in percent); `--write-bench` records `BENCH_engine.json`. The
//! workloads are already CI-sized, so `--quick` changes nothing.
//!
//! Run: `cargo run -p dlpic-bench --release --bin engine_overhead -- --check`

use dlpic_bench::gate;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;
use dlpic_pic::{Grid1D, Shape};
use dlpic_pic2d::init2d::TwoStream2DInit;
use dlpic_pic2d::simulation2d::Pic2DConfig;
use dlpic_pic2d::{Grid2D, Simulation2D, TraditionalSolver2D};
use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{self, Backend, LoadingSpec};
use std::time::Instant;

const REPS: usize = 7;
const STEPS_1D: usize = 100;
const PPC_1D: usize = 300;
const STEPS_2D: usize = 40;
const PPC_2D: usize = 64;

/// Median seconds of `REPS` timed calls.
fn median_secs(mut run: impl FnMut()) -> f64 {
    // One warm-up.
    run();
    gate::median(
        (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                run();
                t0.elapsed().as_secs_f64()
            })
            .collect(),
    )
}

/// Overhead of `facade` over `direct` in percent, from the median of
/// per-rep time ratios measured in *interleaved pairs*. Independent
/// medians taken seconds apart see ±5% machine drift on this container —
/// far above a 2% gate — while the ratio within one back-to-back pair
/// cancels the drift.
fn paired_overhead_pct(mut direct: impl FnMut(), mut facade: impl FnMut()) -> f64 {
    // More reps than the timing medians: the gate sits at 2% and the
    // per-pair ratio still carries ~±0.7% noise.
    const PAIR_REPS: usize = 11;
    direct();
    facade(); // warm-up
    let ratios: Vec<f64> = (0..PAIR_REPS)
        .map(|_| {
            let t0 = Instant::now();
            direct();
            let d = t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            facade();
            let f = t1.elapsed().as_secs_f64();
            f / d
        })
        .collect();
    (gate::median(ratios) - 1.0) * 100.0
}

fn spec_1d() -> engine::ScenarioSpec {
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.ppc = PPC_1D;
    spec.n_steps = STEPS_1D;
    spec.seed = 9;
    spec
}

fn spec_2d() -> engine::ScenarioSpec {
    let mut spec = engine::scenario("two_stream_2d", Scale::Smoke).expect("registry");
    spec.ppc = PPC_2D;
    spec.n_steps = STEPS_2D;
    spec.loading = LoadingSpec::Quiet {
        mode: 1,
        amplitude: 1e-3,
    };
    spec.seed = 9;
    spec
}

/// One dimension's timings: the three medians (ms) and the paired
/// overheads (%) of the run facade and the session loop.
fn timings_json(particles: usize, steps: usize, ms: [f64; 3], overhead: [f64; 2]) -> Json {
    obj(vec![
        ("particles", Json::Num(particles as f64)),
        ("steps", Json::Num(steps as f64)),
        ("direct_ms", Json::Num(ms[0])),
        ("engine_ms", Json::Num(ms[1])),
        ("overhead_pct", Json::Num(overhead[0])),
        ("session_ms", Json::Num(ms[2])),
        ("session_overhead_pct", Json::Num(overhead[1])),
    ])
}

fn measure(_quick: bool) -> Json {
    // --- 1-D: engine vs pic::Simulation with the identical setup. ------
    let mut run_direct_1d = || {
        let cfg = PicConfig {
            grid: Grid1D::paper(),
            init: Some(TwoStreamInit::random(0.2, 0.025, 64 * PPC_1D, 9)),
            dt: 0.2,
            n_steps: STEPS_1D,
            gather_shape: Shape::Cic,
            tracked_modes: vec![1, 2, 3],
        };
        let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
        sim.run();
        std::hint::black_box(sim.history().len());
    };
    let spec = spec_1d();
    let mut run_engine_1d = || {
        let summary = engine::run(&spec, Backend::Traditional1D).expect("run");
        std::hint::black_box(summary.history.len());
    };
    // The incremental primitive: per-step virtual dispatch + Sample
    // emission, driven from the caller's own loop.
    let mut run_session_1d = || {
        let mut session = engine::start(&spec, Backend::Traditional1D).expect("start");
        while !session.is_complete() {
            std::hint::black_box(session.step().step);
        }
        let summary = session.finish();
        std::hint::black_box(summary.history.len());
    };
    let direct_1d = median_secs(&mut run_direct_1d);
    let engine_1d = median_secs(&mut run_engine_1d);
    let session_1d = median_secs(&mut run_session_1d);
    let oh_1d = paired_overhead_pct(&mut run_direct_1d, &mut run_engine_1d);
    let oh_session_1d = paired_overhead_pct(&mut run_direct_1d, &mut run_session_1d);

    // --- 2-D: engine vs pic2d::Simulation2D. ---------------------------
    let mut run_direct_2d = || {
        let grid = Grid2D::default_square();
        let n = grid.nx() * grid.ny() * PPC_2D;
        let cfg = Pic2DConfig {
            grid,
            init: TwoStream2DInit::quiet(0.2, 0.0, n, 1e-3, 9),
            dt: 0.2,
            n_steps: STEPS_2D,
            gather_shape: Shape::Cic,
            tracked_modes: vec![(1, 0), (2, 0)],
        };
        let mut sim = Simulation2D::new(cfg, Box::new(TraditionalSolver2D::default_config()));
        sim.run();
        std::hint::black_box(sim.history().len());
    };
    let spec2 = spec_2d();
    let mut run_engine_2d = || {
        let summary = engine::run(&spec2, Backend::Traditional2D).expect("run");
        std::hint::black_box(summary.history.len());
    };
    let mut run_session_2d = || {
        let mut session = engine::start(&spec2, Backend::Traditional2D).expect("start");
        while !session.is_complete() {
            std::hint::black_box(session.step().step);
        }
        let summary = session.finish();
        std::hint::black_box(summary.history.len());
    };
    let direct_2d = median_secs(&mut run_direct_2d);
    let engine_2d = median_secs(&mut run_engine_2d);
    let session_2d = median_secs(&mut run_session_2d);
    let oh_2d = paired_overhead_pct(&mut run_direct_2d, &mut run_engine_2d);
    let oh_session_2d = paired_overhead_pct(&mut run_direct_2d, &mut run_session_2d);

    let ms = |secs: f64| secs * 1e3;
    obj(vec![
        ("reps", Json::Num(REPS as f64)),
        (
            "oned",
            timings_json(
                64 * PPC_1D,
                STEPS_1D,
                [ms(direct_1d), ms(engine_1d), ms(session_1d)],
                [oh_1d, oh_session_1d],
            ),
        ),
        (
            "twod",
            timings_json(
                32 * 32 * PPC_2D,
                STEPS_2D,
                [ms(direct_2d), ms(engine_2d), ms(session_2d)],
                [oh_2d, oh_session_2d],
            ),
        ),
        // The gated number: the engine::run path is the session path,
        // so gating the session covers both.
        (
            "worst_session_overhead_pct",
            Json::Num(oh_session_1d.max(oh_session_2d)),
        ),
    ])
}

fn main() {
    gate::main(&gate::ENGINE, measure)
}
