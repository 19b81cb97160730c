//! **§VII performance discussion** — wall-clock comparison of the
//! field-solve stage.
//!
//! The paper argues (without measuring) that "the DL electric field solver
//! is a simple prediction/inference step involving a series of
//! matrix-vector multiplications … traditional PIC methods require a
//! linear system that involves more operations than the
//! prediction/inference step". This binary measures both stages — plus the
//! stages they share — so the claim can be evaluated quantitatively on
//! this hardware. Criterion microbenches of the same kernels live in
//! `benches/`.
//!
//! Run: `cargo run -p dlpic-bench --release --bin perf [--scale ...]`

use dlpic_analytics::series::Table;
use dlpic_bench::{get_or_train_mlp, out_dir, Cli};
use dlpic_core::phase_space::{bin_phase_space, BinningShape};
use dlpic_pic::deposit::{add_uniform_background, deposit_charge};
use dlpic_pic::efield::efield_from_phi;
use dlpic_pic::gather::gather_field;
use dlpic_pic::grid::Grid1D;
use dlpic_pic::init::TwoStreamInit;
use dlpic_pic::poisson::{FdPoisson, PoissonSolver, SpectralPoisson};
use dlpic_pic::shape::Shape;
use dlpic_pic::solver::FieldSolver as _;
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
    println!("{}", table.render());

    println!(
        "ratio DL/traditional field solve: {:.2}x",
        t_dl_total / trad_solve
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
