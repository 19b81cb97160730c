//! Ensemble throughput: session·steps/sec of a fleet of 1-D DL runs,
//! solo-loop vs batched single-thread vs batched multi-thread.
//!
//! The workload is the amortization case the paper argues for: many
//! simulations sharing one trained field solver. `solo` drives each
//! session to completion one after another (the hand-rolled loop over
//! `Engine::start` the ensemble API replaces) — every field solve is a
//! batch-1 inference. `batched_1t` drives the same fleet through
//! `Ensemble::run_to_end(1)`: per lockstep wave, all sessions' inference
//! inputs are gathered into one `[m, in]` GEMM that hits the 8-row zmm
//! micro-kernels. `batched_mt` adds `core::pool` worker threads
//! (contiguous session chunks, each batching its own cohort).
//!
//! Before timing, the binary verifies on a mini-fleet that ensemble
//! histories are bit-identical to solo runs — the numbers only count if
//! the batching is exact. Since every fleet member reads the same
//! `Arc<FrozenModel>`, that check also pins the shared-weight inference
//! path to the owned-network semantics.
//!
//! Beyond throughput, the bench accounts the fleet's *weight memory*
//! (one shared allocation vs 16 private copies — the `weights` section
//! and the ≤ 1.1× single-copy gate) and measures the bf16 storage path:
//! solo-shape inference GFLOP/s-equivalent vs f32 (the memory-bound
//! m = 1 GEMV where halved weight traffic pays) and the two-stream
//! growth rate of a bf16 fleet against its f32 twin (the physics
//! tolerance that gates bf16 adoption — see the README's precision
//! contract).
//!
//! CLI and gates: see `dlpic_bench::gate` (`gate::ENSEMBLE`). `--check`
//! gates the live batched-vs-solo speedup (≥ 1.5×), the fleet's weight
//! sharing (≤ 1.1× one copy), bf16's solo-inference speedup (≥ 1.3×) and
//! growth-rate deviation (≤ 5%), and the anchor-rescaled absolute
//! throughputs at a 35% backstop. `--write-bench` needs no separate
//! baseline: the solo loop *is* the baseline (exactly the hand-rolled
//! `Engine::start` loop that predates the ensemble API), so one
//! measurement carries both sides of the comparison.

use dlpic_bench::gate::{self, calibration_gflops, median};
use dlpic_nn::linalg::simd_level;
use dlpic_nn::{FrozenModel, Precision, PredictWorkspace, Tensor};
use dlpic_repro::core::pool;
use dlpic_repro::core::Scale;
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{self, dl, Backend, EnergyHistory, Engine};
use std::time::Instant;

/// Fleet geometry: 16 concurrent runs (two full 8-row zmm tiles per
/// wave), light particle load so the DL inference dominates — the
/// regime the batching targets.
const RUNS: usize = 16;
const PPC: usize = 50;

/// The fleet's specs: a seed fan over two-stream at the *paper* DL
/// scale (4096-bin phase input, 3×1024 hidden — §IV.A): ~25 MB of MLP
/// weights per solve, the memory-bound m = 1 GEMM shape PR 3's notes
/// flagged. Solo runs re-stream the weights every step; a batched wave
/// streams them once for the whole fleet.
fn fleet_specs(steps: usize) -> Vec<engine::ScenarioSpec> {
    (0..RUNS as u64)
        .map(|seed| {
            let mut spec = engine::scenario("two_stream", Scale::Paper).expect("registry");
            spec.ppc = PPC;
            spec.n_steps = steps;
            spec.seed = 100 + seed;
            spec.name = format!("two_stream[seed={}]", spec.seed);
            spec
        })
        .collect()
}

/// Times the hand-rolled loop: one session after another, each stepped
/// to completion (construction excluded — both modes pay it equally).
fn bench_solo(specs: &[engine::ScenarioSpec], reps: usize) -> Json {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut sessions: Vec<_> = specs
                .iter()
                .map(|s| engine.start(s, Backend::Dl1D).expect("start"))
                .collect();
            let t0 = Instant::now();
            for session in &mut sessions {
                session.run_to_end();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sessions.last().map(|s| s.steps_done()));
            dt
        })
        .collect();
    gate::fleet_json(total_steps, times)
}

/// Times `Ensemble::run_to_end(threads)` over the same fleet.
fn bench_batched(specs: &[engine::ScenarioSpec], threads: usize, reps: usize) -> Json {
    let engine = Engine::new();
    let total_steps: usize = specs.iter().map(|s| s.n_steps).sum();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let mut ensemble = engine
                .start_ensemble(specs, Backend::Dl1D)
                .expect("start ensemble");
            let t0 = Instant::now();
            ensemble.run_to_end(threads);
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(ensemble.is_complete());
            dt
        })
        .collect();
    gate::fleet_json(total_steps, times)
}

/// Asserts (on a mini-fleet) that batched histories reproduce solo runs
/// bit-for-bit before any number is reported.
fn verify_bit_identity() {
    let specs: Vec<engine::ScenarioSpec> = fleet_specs(4).into_iter().take(9).collect();
    let engine = Engine::new();
    let solo: Vec<EnergyHistory> = specs
        .iter()
        .map(|s| {
            Engine::new()
                .run(s, Backend::Dl1D)
                .expect("solo run")
                .history
        })
        .collect();
    let mut ensemble = engine.start_ensemble(&specs, Backend::Dl1D).expect("start");
    ensemble.run_to_end(1);
    for (i, (summary, want)) in ensemble.finish().iter().zip(&solo).enumerate() {
        assert!(
            summary.history == *want,
            "run {i}: batched history differs from solo — batching is not exact"
        );
    }
    eprintln!("bit-identity: batched histories == solo histories (9-run fleet)");
}

/// Builds the real 16-run fleet and reads its deduplicated weight bytes
/// (by `Session::weight_storage` allocation identity): one shared
/// allocation against the 16 private copies of the pre-sharing world.
fn measure_weights() -> Json {
    let specs = fleet_specs(1);
    let engine = Engine::new();
    let ensemble = engine
        .start_ensemble(&specs, Backend::Dl1D)
        .expect("start ensemble");
    let (distinct_models, fleet_shared_bytes) = ensemble.weight_footprint();
    let net = Scale::Paper.mlp_arch().build(0xD15E);
    let single = net.freeze(Precision::F32).weight_bytes();
    let bf16 = net.freeze(Precision::Bf16).weight_bytes();
    obj(vec![
        ("single_copy_bytes", Json::Num(single as f64)),
        ("fleet_per_copy_bytes", Json::Num((RUNS * single) as f64)),
        ("fleet_shared_bytes", Json::Num(fleet_shared_bytes as f64)),
        ("distinct_models", Json::Num(distinct_models as f64)),
        (
            "fleet_vs_single_copy",
            Json::Num(fleet_shared_bytes as f64 / single as f64),
        ),
        ("bf16_single_copy_bytes", Json::Num(bf16 as f64)),
    ])
}

/// bf16 vs f32 inference on the solo shape (m = 1): GFLOP/s-equivalent
/// (nominal 2·params FLOPs per solve over wall time — bf16 does the same
/// arithmetic in f32 after decode, so the figure is comparable).
fn bench_bf16_kernels(reps: usize) -> (f64, f64) {
    let arch = Scale::Paper.mlp_arch();
    let net = arch.build(0xD15E);
    let f32_model = net.freeze(Precision::F32);
    let bf16_model = net.freeze(Precision::Bf16);
    let input = arch.input_len();
    let x = Tensor::new(
        (0..input).map(|i| (i as f32 * 0.013).sin()).collect(),
        &[1, input],
    );
    let flops = 2.0 * arch.param_count() as f64;
    let iters = 20usize;
    let run = |model: &FrozenModel| {
        let mut ws = PredictWorkspace::new();
        std::hint::black_box(model.predict_into(&x, &mut ws));
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    std::hint::black_box(model.predict_into(&x, &mut ws));
                }
                t0.elapsed().as_secs_f64()
            })
            .collect();
        flops * iters as f64 / median(times) / 1e9
    };
    (run(&f32_model), run(&bf16_model))
}

/// Runs two-stream at `Scale::Smoke` with one quick-trained bundle in
/// both precisions and returns the fitted growth rates. Both runs go
/// through the full engine path (frozen shared weights), so the numbers
/// gate exactly what a bf16 fleet would produce.
fn bf16_physics() -> (f64, f64) {
    let bundle = dl::quick_train_1d(Scale::Smoke, 42);
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    // The smoke preset is a 30-step plumbing check; a growth *fit* needs
    // the instability to actually develop (same geometry the end-to-end
    // DL test validates growth with).
    spec.ppc = 200;
    spec.n_steps = 150;
    let gamma = |bundle: dlpic_repro::core::ModelBundle| {
        use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
        let summary = Engine::new()
            .with_model_1d(bundle)
            .run(&spec, Backend::Dl1D)
            .expect("two-stream smoke run");
        let s = summary.history.mode_series(1).expect("mode 1 tracked");
        // A smoke-quality model's field noise keeps the amplitude within
        // one decade, so the default noise-floor→saturation window never
        // materializes; fit the full rise up to the peak instead — the
        // same series, the same slope, for both precisions.
        let opts = GrowthFitOptions {
            lo_frac: 0.0,
            hi_frac: 1.0,
            min_points: 5,
        };
        fit_growth_rate(&s.times, &s.values, opts)
            .expect("mode-1 growth fit on two-stream")
            .gamma
    };
    let g_f32 = gamma(bundle.clone());
    let g_bf16 = gamma(bundle.with_precision(Precision::Bf16));
    (g_f32, g_bf16)
}

fn measure(quick: bool) -> Json {
    let (steps, reps) = if quick { (30, 3) } else { (60, 5) };
    let threads = pool::available_threads();
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    verify_bit_identity();
    eprintln!("accounting fleet weight memory...");
    let weights = measure_weights();
    eprintln!("measuring bf16 vs f32 solo inference...");
    let (f32_gflops, bf16_gflops) = bench_bf16_kernels(reps);
    eprintln!("checking bf16 physics tolerance (quick-train + 2 smoke runs)...");
    let (growth_f32, growth_bf16) = bf16_physics();
    let specs = fleet_specs(steps);
    eprintln!("measuring solo loop ({RUNS} runs x {steps} steps x {reps} reps)...");
    let solo = bench_solo(&specs, reps);
    eprintln!("measuring batched ensemble, 1 thread...");
    let batched_1t = bench_batched(&specs, 1, reps);
    let batched_mt = if threads > 1 {
        eprintln!("measuring batched ensemble, {threads} threads...");
        bench_batched(&specs, threads, reps)
    } else {
        // One exposed core: a second 1-thread run would only record
        // machine noise as "thread scaling", so reuse the 1-thread
        // numbers (speedup_threads = 1.0 by construction).
        eprintln!("1 core exposed: batched_mt = batched_1t");
        batched_1t.clone()
    };
    let rate = |fleet: &Json| {
        fleet
            .field("session_steps_per_sec")
            .and_then(Json::as_f64)
            .expect("fleet rate")
    };
    let speedup_batched = rate(&batched_1t) / rate(&solo);
    let speedup_threads = rate(&batched_mt) / rate(&batched_1t);
    obj(vec![
        ("calibration_gflops", Json::Num(calibration)),
        ("simd", Json::Str(simd_level().into())),
        ("runs", Json::Num(RUNS as f64)),
        ("steps", Json::Num(steps as f64)),
        ("ppc", Json::Num(PPC as f64)),
        ("threads", Json::Num(threads as f64)),
        ("solo", solo),
        ("batched_1t", batched_1t),
        ("batched_mt", batched_mt),
        ("weights", weights),
        (
            "bf16",
            obj(vec![
                ("f32_gflops", Json::Num(f32_gflops)),
                ("bf16_gflops", Json::Num(bf16_gflops)),
                ("speedup_bf16", Json::Num(bf16_gflops / f32_gflops)),
                ("growth_rate_f32", Json::Num(growth_f32)),
                ("growth_rate_bf16", Json::Num(growth_bf16)),
                (
                    "growth_rel_err",
                    Json::Num((growth_bf16 - growth_f32).abs() / growth_f32.abs()),
                ),
            ]),
        ),
        ("speedup_batched", Json::Num(speedup_batched)),
        ("speedup_threads", Json::Num(speedup_threads)),
    ])
}

fn main() {
    gate::main(&gate::ENSEMBLE, measure)
}
