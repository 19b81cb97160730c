//! **§VII performance discussion** — wall-clock comparison of the
//! field-solve stage.
//!
//! The paper argues (without measuring) that "the DL electric field solver
//! is a simple prediction/inference step involving a series of
//! matrix-vector multiplications … traditional PIC methods require a
//! linear system that involves more operations than the
//! prediction/inference step". This binary measures both stages — plus the
//! stages they share — so the claim can be evaluated quantitatively on
//! this hardware: the 1-D pipeline stage by stage with the trained MLP,
//! then the 2-D extension (SOR vs spectral Poisson on 64×64, density
//! binning and the traditional vs DL-MLP field solve over 128k particles
//! on 32×32). It is a report, not a gate; the perf gates are the
//! `*_throughput` and `engine_overhead` binaries (`dlpic_bench::gate`).
//!
//! Run: `cargo run -p dlpic-bench --release --bin perf [--scale ...]`

use dlpic_analytics::series::Table;
use dlpic_bench::{get_or_train_mlp, out_dir, Cli};
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::{bin_phase_space, BinningShape};
use dlpic_core::twod::{arch_2d, bin_density, DensityBinning, Dl2DFieldSolver};
use dlpic_nn::Precision;
use dlpic_pic::deposit::{add_uniform_background, deposit_charge};
use dlpic_pic::efield::efield_from_phi;
use dlpic_pic::gather::gather_field;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
use dlpic_pic::shape::Shape;
use dlpic_pic::solver::FieldSolver as _;
use dlpic_pic2d::grid2d::Grid2D;
use dlpic_pic2d::init2d::TwoStream2DInit;
use dlpic_pic2d::poisson2d::{Poisson2DSolver, SorPoisson2D, SpectralPoisson2D};
use dlpic_pic2d::solver2d::{FieldSolver2D, TraditionalSolver2D};
use std::sync::Arc;
use std::time::Instant;

/// Times `f` over enough repetitions for a stable estimate; returns
/// microseconds per call.
fn time_us(mut f: impl FnMut(), reps: usize) -> f64 {
    // Warm-up.
    for _ in 0..reps.div_ceil(10).max(1) {
        f();
    }
    let t0 = Instant::now();
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() * 1e6 / reps as f64
}

fn main() {
    let cli = Cli::parse();
    println!(
        "== §VII: field-solver stage timing [{} scale] ==\n",
        cli.scale.name()
    );

    let grid = Grid1D::paper();
    let particles = TwoStreamInit::random(0.2, 0.025, 64_000, 7).build(&grid);
    let mut rho = grid.zeros();
    let mut phi = grid.zeros();
    let mut e = grid.zeros();
    let mut e_part = vec![0.0; particles.len()];

    // Traditional pipeline, stage by stage.
    let t_deposit = time_us(
        || {
            rho.iter_mut().for_each(|r| *r = 0.0);
            deposit_charge(&particles, &grid, Shape::Cic, &mut rho);
            add_uniform_background(&mut rho, 1.0);
        },
        50,
    );
    let mut fd = FdPoisson::new();
    let t_poisson_fd = time_us(|| fd.solve(&grid, &rho, &mut phi), 2_000);
    let mut sp = SpectralPoisson::new();
    let t_poisson_sp = time_us(|| sp.solve(&grid, &rho, &mut phi), 2_000);
    let t_gradient = time_us(|| efield_from_phi(&grid, &phi, &mut e), 10_000);

    // Shared stages.
    let t_gather = time_us(
        || gather_field(&particles, &grid, Shape::Cic, &e, &mut e_part),
        50,
    );

    // DL pipeline: binning + normalization + inference.
    let bundle = get_or_train_mlp(cli.scale, cli.retrain, true);
    let spec = bundle.spec;
    let norm = bundle.norm;
    let mut solver = bundle.freeze().expect("bundle -> solver").solver();
    let mut hist = vec![0.0f32; spec.cells()];
    let t_binning = time_us(
        || bin_phase_space(&particles, &grid, &spec, BinningShape::Ngp, &mut hist),
        50,
    );
    let t_normalize = time_us(|| norm.apply(&mut hist), 10_000);
    let t_inference = time_us(
        || {
            let _ = solver.predict_from_histogram(&hist);
        },
        200,
    );
    let t_dl_total = time_us(|| solver.solve(&particles, &grid, &mut e), 50);

    let trad_solve = t_deposit + t_poisson_fd + t_gradient;
    let mut table = Table::new(&["Stage", "Method", "µs/call"]);
    let f = |v: f64| format!("{v:.1}");
    table.row(&[
        "charge deposit (64k, CIC)".into(),
        "traditional".into(),
        f(t_deposit),
    ]);
    table.row(&[
        "Poisson solve (FD/Thomas)".into(),
        "traditional".into(),
        f(t_poisson_fd),
    ]);
    table.row(&[
        "Poisson solve (spectral)".into(),
        "traditional".into(),
        f(t_poisson_sp),
    ]);
    table.row(&["E = -grad(phi)".into(), "traditional".into(), f(t_gradient)]);
    table.row(&[
        "TOTAL field solve".into(),
        "traditional".into(),
        f(trad_solve),
    ]);
    table.row(&[
        "phase-space binning (64k)".into(),
        "dl-based".into(),
        f(t_binning),
    ]);
    table.row(&["normalization".into(), "dl-based".into(), f(t_normalize)]);
    table.row(&[
        "network inference (MLP)".into(),
        "dl-based".into(),
        f(t_inference),
    ]);
    table.row(&["TOTAL field solve".into(), "dl-based".into(), f(t_dl_total)]);
    table.row(&["field gather (shared)".into(), "both".into(), f(t_gather)]);

    // 2-D extension: the two Poisson backends on a 64×64 mode-(1,1)
    // source, then both field solves over 128k particles on 32×32.
    let grid = Grid2D::new(64, 64, 2.0532, 2.0532);
    let (kx, ky) = (grid.mode_wavenumber_x(1), grid.mode_wavenumber_y(1));
    let mut rho = grid.zeros();
    for iy in 0..grid.ny() {
        for ix in 0..grid.nx() {
            let (x, y) = (ix as f64 * grid.dx(), iy as f64 * grid.dy());
            rho[grid.index(ix, iy)] = (kx * kx + ky * ky) * (kx * x).cos() * (ky * y).cos();
        }
    }
    let mut phi = grid.zeros();
    let mut sor = SorPoisson2D {
        tolerance: 1e-8,
        ..Default::default()
    };
    let t_sor = time_us(|| sor.solve(&grid, &rho, &mut phi), 20);
    let mut spectral = SpectralPoisson2D::new();
    let t_spectral = time_us(|| spectral.solve(&grid, &rho, &mut phi), 200);
    let grid = Grid2D::new(32, 32, 2.0532, 2.0532);
    let particles = TwoStream2DInit::random(0.2, 0.01, 131_072, 5).build(&grid);
    let (mut ex, mut ey) = (grid.zeros(), grid.zeros());
    let mut traditional = TraditionalSolver2D::default_config();
    let t_trad_2d = time_us(
        || traditional.solve(&particles, &grid, &mut ex, &mut ey),
        20,
    );
    let mut density = vec![0.0f32; grid.nodes()];
    let t_bin_2d = time_us(
        || bin_density(&particles, &grid, DensityBinning::Cic, &mut density),
        20,
    );
    let mut dl = Dl2DFieldSolver::new(
        Arc::new(arch_2d(&grid, vec![256]).build(0).freeze(Precision::F32)),
        DensityBinning::Cic,
        NormStats::identity(),
        "dl-2d",
    );
    let t_dl_2d = time_us(|| dl.solve(&particles, &grid, &mut ex, &mut ey), 20);
    for (stage, method, us) in [
        ("2-D Poisson solve (SOR, 64x64)", "traditional", t_sor),
        (
            "2-D Poisson solve (spectral, 64x64)",
            "traditional",
            t_spectral,
        ),
        (
            "2-D TOTAL field solve (128k, 32x32)",
            "traditional",
            t_trad_2d,
        ),
        ("2-D density binning (128k, CIC)", "dl-based", t_bin_2d),
        ("2-D TOTAL field solve (MLP 256)", "dl-based", t_dl_2d),
    ] {
        table.row(&[stage.into(), method.into(), f(us)]);
    }
    println!("{}", table.render());

    println!(
        "ratio DL/traditional field solve: {:.2}x (1-D), {:.2}x (2-D)",
        t_dl_total / trad_solve,
        t_dl_2d / t_trad_2d
    );
    println!();
    println!("notes: the paper's argument concerns the *linear solve* vs *inference*");
    println!("       comparison: FD Poisson {t_poisson_fd:.1} µs vs MLP inference {t_inference:.1} µs here;");
    println!("       at 64 cells the 1-D linear system is tiny, so on this problem the");
    println!("       deposit/binning over 64k particles dominates either pipeline —");
    println!("       measured numbers quantify what §VII left qualitative.");

    let csv = out_dir().join(format!("perf-{}.csv", cli.scale.name()));
    std::fs::write(&csv, table.to_csv()).expect("write CSV");
    println!("\nwrote {}", csv.display());
}
