//! Single-core step-throughput gate: particles·steps/sec for the
//! fig4-scale 1-D and fig6/ext2d-scale 2-D PIC cycles, plus `nn::linalg`
//! matmul GFLOP/s on DL-solver training/inference shapes.
//!
//! The workloads go through `Simulation::step` / `Simulation2D::step` —
//! the exact per-step path the figure binaries and the engine facade
//! drive — so the recorded numbers track the real hot loop, diagnostics
//! included.
//!
//! CLI and gates: see `dlpic_bench::gate` (`gate::STEP`). `--check`
//! compares against the committed `BENCH_step.json`, rescaled by the
//! `matmul_naive` calibration anchor, at a 25% tolerance
//! (`DLPIC_PERF_MAX_REGRESSION`).

use dlpic_bench::gate::{self, calibration_gflops, fill, median};
use dlpic_nn::linalg::{matmul_nn, matmul_nt, matmul_tn};
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::simulation::{PicConfig, Simulation};
use dlpic_pic::solver::TraditionalSolver;
use dlpic_pic::{Grid1D, Shape};
use dlpic_pic2d::init2d::TwoStream2DInit;
use dlpic_pic2d::simulation2d::Pic2DConfig;
use dlpic_pic2d::{Grid2D, Simulation2D, TraditionalSolver2D};
use dlpic_repro::engine::json::{obj, Json};
use std::time::Instant;

/// One timed stepping workload as recorded in `BENCH_step.json`.
fn step_json(particles: usize, steps: usize, times: Vec<f64>) -> Json {
    let seconds = median(times);
    obj(vec![
        ("particles", Json::Num(particles as f64)),
        ("steps", Json::Num(steps as f64)),
        ("seconds", Json::Num(seconds)),
        (
            "particle_steps_per_sec",
            Json::Num(particles as f64 * steps as f64 / seconds),
        ),
    ])
}

/// Times `steps` calls of `Simulation::step` on the paper's fig4-scale
/// two-stream workload (64 cells × 1000 ppc, CIC, FD Poisson, three
/// tracked modes). Construction and the final snapshot are excluded.
fn bench_1d(steps: usize, reps: usize) -> Json {
    let particles = 64_000;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = PicConfig {
                grid: Grid1D::paper(),
                init: Some(TwoStreamInit::random(0.2, 0.025, particles, 9)),
                dt: 0.2,
                n_steps: steps,
                gather_shape: Shape::Cic,
                tracked_modes: vec![1, 2, 3],
            };
            let mut sim = Simulation::new(cfg, Box::new(TraditionalSolver::paper_default()));
            let t0 = Instant::now();
            for _ in 0..steps {
                sim.step();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sim.history().len());
            dt
        })
        .collect();
    step_json(particles, steps, times)
}

/// Times `steps` calls of `Simulation2D::step` on the ext2d/fig6-scale
/// 2-D workload: 64×64 grid, 16 ppc (65 536 particles), CIC, spectral
/// Poisson, two tracked modes.
fn bench_2d(steps: usize, reps: usize) -> Json {
    let grid_n = 64;
    let particles = grid_n * grid_n * 16;
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let cfg = Pic2DConfig {
                grid: Grid2D::new(grid_n, grid_n, 2.0532, 2.0532),
                init: TwoStream2DInit::quiet(0.2, 0.0, particles, 1e-3, 9),
                dt: 0.2,
                n_steps: steps,
                gather_shape: Shape::Cic,
                tracked_modes: vec![(1, 0), (0, 1)],
            };
            let mut sim = Simulation2D::new(cfg, Box::new(TraditionalSolver2D::default_config()));
            let t0 = Instant::now();
            for _ in 0..steps {
                sim.step();
            }
            let dt = t0.elapsed().as_secs_f64();
            std::hint::black_box(sim.history().len());
            dt
        })
        .collect();
    step_json(particles, steps, times)
}

/// GFLOP/s of one kernel at shape `(m, k, n)`, median of `reps` timed
/// batches of `iters` calls.
fn bench_kernel(
    kernel: impl Fn(&[f32], &[f32], &mut [f32]),
    a_len: usize,
    b_len: usize,
    c_len: usize,
    flops: f64,
    iters: usize,
    reps: usize,
) -> f64 {
    let mut a = vec![0.0f32; a_len];
    let mut b = vec![0.0f32; b_len];
    let mut c = vec![0.0f32; c_len];
    fill(&mut a, 7);
    fill(&mut b, 13);
    kernel(&a, &b, &mut c); // warm-up
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                kernel(&a, &b, &mut c);
                std::hint::black_box(&c[0]);
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();
    flops * iters as f64 / median(times) / 1e9
}

/// The four DL-solver shapes: quick-train forward (`nn`), weight gradient
/// (`tn`), input gradient (`nt`) at batch 64 with 512-wide hiddens, and a
/// batch-1 inference layer at the paper's 4096-cell phase-space input.
fn bench_matmul(quick: bool, reps: usize) -> Json {
    let scale = if quick { 4 } else { 1 };
    let (m, k, n) = (64, 512, 512);
    let flops = 2.0 * (m * k * n) as f64;
    let nn_train = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, m, k, n),
        m * k,
        k * n,
        m * n,
        flops,
        48 / scale,
        reps,
    );
    // dW = Xᵀ·dY: A is k×m (batch-major), output m×n.
    let (tm, tk, tn) = (512, 64, 512);
    let tflops = 2.0 * (tm * tk * tn) as f64;
    let tn_grad = bench_kernel(
        |a, b, c| matmul_tn(a, b, c, tm, tk, tn),
        tk * tm,
        tk * tn,
        tm * tn,
        tflops,
        48 / scale,
        reps,
    );
    // dX = dY·Wᵀ: B is n×k.
    let nt_grad = bench_kernel(
        |a, b, c| matmul_nt(a, b, c, m, k, n),
        m * k,
        n * k,
        m * n,
        flops,
        48 / scale,
        reps,
    );
    let (im, ik, inn) = (1, 4096, 512);
    let iflops = 2.0 * (im * ik * inn) as f64;
    let nn_infer = bench_kernel(
        |a, b, c| matmul_nn(a, b, c, im, ik, inn),
        im * ik,
        ik * inn,
        im * inn,
        iflops,
        256 / scale,
        reps,
    );
    // Aggregate: total flops over total time (harmonic weighting).
    let total = 4.0 / (1.0 / nn_train + 1.0 / tn_grad + 1.0 / nt_grad + 1.0 / nn_infer);
    obj(vec![
        ("nn_train_gflops", Json::Num(nn_train)),
        ("tn_grad_gflops", Json::Num(tn_grad)),
        ("nt_grad_gflops", Json::Num(nt_grad)),
        ("nn_infer_gflops", Json::Num(nn_infer)),
        ("gflops_total", Json::Num(total)),
    ])
}

fn measure(quick: bool) -> Json {
    let (steps_1d, steps_2d, reps) = if quick { (40, 12, 3) } else { (200, 60, 5) };
    eprintln!("measuring calibration anchor...");
    let calibration = calibration_gflops(reps);
    eprintln!("measuring 1-D step throughput ({steps_1d} steps x {reps} reps)...");
    let step_1d = bench_1d(steps_1d, reps);
    eprintln!("measuring 2-D step throughput ({steps_2d} steps x {reps} reps)...");
    let step_2d = bench_2d(steps_2d, reps);
    eprintln!("measuring matmul GFLOP/s...");
    obj(vec![
        ("calibration_gflops", Json::Num(calibration)),
        ("step_1d", step_1d),
        ("step_2d", step_2d),
        ("matmul", bench_matmul(quick, reps)),
    ])
}

fn main() {
    gate::main(&gate::STEP, measure)
}
