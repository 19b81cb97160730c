//! Criterion benches of the extension subsystems: the 2-D PIC cycle
//! stages, the two 2-D Poisson backends, and one distributed step under
//! each field-solve strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use dlpic_core::builder::ArchSpec;
use dlpic_core::field_solver::DlFieldSolver;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{BinningShape, PhaseGridSpec};
use dlpic_core::twod::{arch_2d, bin_density, DensityBinning, Dl2DFieldSolver};
use dlpic_ddecomp::sim::{DistConfig, DistSimulation};
use dlpic_ddecomp::strategy::{DistFieldStrategy, GatherScatter, ReplicatedDl};
use dlpic_nn::Precision;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::shape::Shape;
use dlpic_pic2d::deposit2d::deposit_charge;
use dlpic_pic2d::grid2d::Grid2D;
use dlpic_pic2d::init2d::TwoStream2DInit;
use dlpic_pic2d::poisson2d::{Poisson2DSolver, SorPoisson2D, SpectralPoisson2D};
use dlpic_pic2d::simulation2d::{Pic2DConfig, Simulation2D};
use dlpic_pic2d::solver2d::TraditionalSolver2D;
use std::sync::Arc;
use std::time::Duration;

fn tune(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    group
        .sample_size(15)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
}

fn bench_deposit_2d(c: &mut Criterion) {
    let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
    let particles = TwoStream2DInit::random(0.2, 0.01, 131_072, 3).build(&grid);
    let mut group = c.benchmark_group("pic2d_deposit_128k");
    tune(&mut group);
    for shape in [Shape::Ngp, Shape::Cic, Shape::Tsc] {
        group.bench_function(format!("{shape:?}"), |b| {
            let mut rho = grid.zeros();
            b.iter(|| {
                rho.iter_mut().for_each(|r| *r = 0.0);
                deposit_charge(&particles, &grid, shape, &mut rho);
            });
        });
    }
    group.finish();
}

fn bench_poisson_2d(c: &mut Criterion) {
    let grid = Grid2D::new(64, 64, 2.0532, 2.0532);
    let kx = grid.mode_wavenumber_x(1);
    let ky = grid.mode_wavenumber_y(1);
    let mut rho = grid.zeros();
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            let (x, y) = (ix as f64 * grid.dx(), iy as f64 * grid.dy());
            rho[grid.index(ix, iy)] = (kx * kx + ky * ky) * (kx * x).cos() * (ky * y).cos();
        }
    }
    let mut group = c.benchmark_group("pic2d_poisson_64x64");
    tune(&mut group);
    group.bench_function("spectral", |b| {
        let mut solver = SpectralPoisson2D::new();
        let mut phi = grid.zeros();
        b.iter(|| solver.solve(&grid, &rho, &mut phi));
    });
    group.bench_function("sor", |b| {
        let mut solver = SorPoisson2D {
            tolerance: 1e-8,
            ..Default::default()
        };
        let mut phi = grid.zeros();
        b.iter(|| solver.solve(&grid, &rho, &mut phi));
    });
    group.finish();
}

fn bench_field_solve_2d(c: &mut Criterion) {
    // Traditional (deposit + Poisson + gradient) vs DL (bin + inference):
    // the §VII performance comparison, 2-D edition.
    let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
    let particles = TwoStream2DInit::random(0.2, 0.01, 131_072, 5).build(&grid);
    let mut group = c.benchmark_group("pic2d_field_solve_128k");
    tune(&mut group);
    group.bench_function("traditional", |b| {
        use dlpic_pic2d::solver2d::FieldSolver2D;
        let mut solver = TraditionalSolver2D::default_config();
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        b.iter(|| solver.solve(&particles, &grid, &mut ex, &mut ey));
    });
    group.bench_function("dl_mlp_256", |b| {
        use dlpic_pic2d::solver2d::FieldSolver2D;
        let arch = arch_2d(&grid, vec![256]);
        let mut solver = Dl2DFieldSolver::new(
            Arc::new(arch.build(0).freeze(Precision::F32)),
            DensityBinning::Cic,
            NormStats::identity(),
            "dl-2d",
        );
        let mut ex = grid.zeros();
        let mut ey = grid.zeros();
        b.iter(|| solver.solve(&particles, &grid, &mut ex, &mut ey));
    });
    group.bench_function("bin_density_only", |b| {
        let mut hist = vec![0.0f32; grid.nodes()];
        b.iter(|| bin_density(&particles, &grid, DensityBinning::Cic, &mut hist));
    });
    group.finish();
}

fn bench_simulation_step_2d(c: &mut Criterion) {
    let cfg = Pic2DConfig {
        grid: Grid2D::new(32, 32, 2.0532, 2.0532),
        init: TwoStream2DInit::quiet(0.2, 0.01, 131_072, 1e-3, 7),
        dt: 0.2,
        n_steps: 0,
        gather_shape: Shape::Cic,
        tracked_modes: vec![(1, 0)],
    };
    let mut sim = Simulation2D::new(cfg, Box::new(TraditionalSolver2D::default_config()));
    let mut group = c.benchmark_group("pic2d_full_step_128k");
    tune(&mut group);
    group.bench_function("traditional", |b| b.iter(|| sim.step()));
    group.finish();
}

fn bench_distributed_step(c: &mut Criterion) {
    let config = |n_ranks: usize| DistConfig {
        grid: Grid1D::paper(),
        init: TwoStreamInit::quiet(0.2, 0.025, 64_000, 1e-3, 11),
        dt: 0.2,
        n_steps: 0,
        gather_shape: Shape::Cic,
        n_ranks,
        tracked_modes: vec![],
    };
    let dl_solver = || {
        let spec = PhaseGridSpec::scaled();
        let arch = ArchSpec::Mlp {
            input: spec.cells(),
            hidden: vec![64],
            output: 64,
        };
        DlFieldSolver::new(
            Arc::new(arch.build(0).freeze(Precision::F32)),
            spec,
            BinningShape::Ngp,
            NormStats::identity(),
            arch.input_kind(),
            "dl-mlp",
        )
    };
    let mut group = c.benchmark_group("dist_step_64k_4ranks");
    tune(&mut group);
    group.bench_function("gather_scatter", |b| {
        let mut sim = DistSimulation::new(config(4), Box::new(GatherScatter::new(Shape::Cic, 1.0)));
        b.iter(|| sim.step());
    });
    group.bench_function("replicated_dl", |b| {
        let strat: Box<dyn DistFieldStrategy> = Box::new(ReplicatedDl::new(dl_solver()));
        let mut sim = DistSimulation::new(config(4), strat);
        b.iter(|| sim.step());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_deposit_2d,
    bench_poisson_2d,
    bench_field_solve_2d,
    bench_simulation_step_2d,
    bench_distributed_step
);
criterion_main!(benches);
