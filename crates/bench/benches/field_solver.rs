//! Criterion benches of the field-solve stage — the quantitative version
//! of the paper's §VII performance discussion (Poisson linear solve vs
//! network inference).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use dlpic_core::field_solver::DlFieldSolver;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::BinningShape;
use dlpic_core::presets::Scale;
use dlpic_nn::Precision;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
use dlpic_pic::solver::{FieldSolver, PoissonKind, TraditionalSolver};
use std::sync::Arc;
use std::time::Duration;

fn bench_poisson(c: &mut Criterion) {
    let grid = Grid1D::paper();
    let rho: Vec<f64> = (0..64).map(|j| (j as f64 * 0.3).sin()).collect();
    let mut group = c.benchmark_group("field_solver");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("poisson_fd_thomas_64", |b| {
        let mut solver = FdPoisson::new();
        let mut phi = grid.zeros();
        b.iter(|| solver.solve(&grid, &rho, &mut phi));
    });
    group.bench_function("poisson_spectral_64", |b| {
        let mut solver = SpectralPoisson::new();
        let mut phi = grid.zeros();
        b.iter(|| solver.solve(&grid, &rho, &mut phi));
    });
    group.finish();
}

fn dl_solver(scale: Scale) -> DlFieldSolver {
    let arch = scale.mlp_arch();
    DlFieldSolver::new(
        Arc::new(arch.build(1).freeze(Precision::F32)),
        scale.phase_spec(),
        BinningShape::Ngp,
        NormStats {
            min: 0.0,
            max: 300.0,
        },
        arch.input_kind(),
        "dl-mlp",
    )
}

fn bench_inference(c: &mut Criterion) {
    let mut group = c.benchmark_group("inference");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    // MLP inference at the reduced and paper widths (the paper's argument:
    // "a series of matrix-vector multiplications").
    for scale in [Scale::Scaled, Scale::Paper] {
        let mut solver = dl_solver(scale);
        let hist = vec![0.1f32; scale.phase_spec().cells()];
        group.bench_function(format!("mlp_{}", scale.name()), |b| {
            b.iter(|| solver.predict_from_histogram(&hist));
        });
    }
    // CNN inference at scaled size.
    let arch = Scale::Scaled.cnn_arch();
    let spec = Scale::Scaled.phase_spec();
    let mut cnn = DlFieldSolver::new(
        Arc::new(arch.build(2).freeze(Precision::F32)),
        spec,
        BinningShape::Ngp,
        NormStats {
            min: 0.0,
            max: 300.0,
        },
        arch.input_kind(),
        "dl-cnn",
    );
    let hist = vec![0.1f32; spec.cells()];
    group.bench_function("cnn_scaled", |b| {
        b.iter(|| cnn.predict_from_histogram(&hist));
    });
    group.finish();
}

fn bench_full_solve(c: &mut Criterion) {
    let grid = Grid1D::paper();
    let particles = TwoStreamInit::random(0.2, 0.025, 64_000, 5).build(&grid);
    let mut group = c.benchmark_group("full_solve_64k");
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    group.bench_function("traditional", |b| {
        let mut solver = TraditionalSolver::new(
            dlpic_pic::shape::Shape::Cic,
            PoissonKind::FiniteDifference,
            1.0,
        );
        let mut e = grid.zeros();
        b.iter(|| solver.solve(&particles, &grid, &mut e));
    });
    group.bench_function("dl_scaled", |b| {
        b.iter_batched(
            || dl_solver(Scale::Scaled),
            |mut solver| {
                let mut e = grid.zeros();
                solver.solve(&particles, &grid, &mut e);
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

criterion_group!(benches, bench_poisson, bench_inference, bench_full_solve);
criterion_main!(benches);
