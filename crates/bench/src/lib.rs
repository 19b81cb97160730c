//! # dlpic-bench
//!
//! The experiment harness: one binary per table/figure of the paper, plus
//! the perf-gate binaries that keep the committed `BENCH_*.json` numbers
//! honest (`src/bin/`).
//!
//! This library holds the shared plumbing: dataset preparation, model
//! training/caching, CLI parsing, output-file management and the one
//! perf-gate harness ([`gate`]). Binaries:
//!
//! | binary            | reproduces                                        |
//! |-------------------|---------------------------------------------------|
//! | `table1`          | Table I (MLP/CNN MAE + max error, test sets I/II)  |
//! | `fig4`            | Fig. 4 (phase space + E1 growth vs linear theory)  |
//! | `fig5`            | Fig. 5 (energy/momentum, v0 = 0.2, vth = 0.025)    |
//! | `fig6`            | Fig. 6 (cold beams v0 = 0.4: numerical stability)  |
//! | `perf`            | §VII performance discussion (1-D + 2-D solve-stage timing) |
//! | `ablations`       | binning / physics-loss / architecture / grid-size / data source / temporal |
//! | `spectral_error`  | §VII "spectral analysis of errors" follow-up       |
//! | `ext2d`           | §VII extension: 2-D DL-PIC vs traditional 2-D      |
//! | `perf_dist`       | §VII extension: distributed communication volume   |
//! | `serve_soak`      | overload-governance chaos soak of `dlpic-serve`    |
//!
//! The binaries above except `serve_soak` (which takes `--quick`) accept
//! `--scale smoke|scaled|paper` (default: scaled, or the `DLPIC_SCALE`
//! environment variable) and `--retrain` to ignore model caches. Outputs
//! (CSVs, model bundles) land in `./out/`.
//!
//! The perf-gate binaries share one CLI (`--quick`, `--check`,
//! `--out FILE`, `--write-bench [BASELINE]`; see [`gate`]):
//!
//! | gate binary           | committed file        | gates                                   |
//! |-----------------------|-----------------------|-----------------------------------------|
//! | `step_throughput`     | `BENCH_step.json`     | 1-D/2-D step, matmul vs committed       |
//! | `train_throughput`    | `BENCH_train.json`    | conv2d, MLP/CNN epoch, Vlasov vs committed |
//! | `ensemble_throughput` | `BENCH_ensemble.json` | batched/solo, weight sharing, bf16, absolutes |
//! | `serve_throughput`    | `BENCH_serve.json`    | served/direct, absolutes, wave p99      |
//! | `engine_overhead`     | `BENCH_engine.json`   | session dispatch overhead               |

#![warn(missing_docs)]

use dlpic_core::builder::ArchSpec;
use dlpic_core::bundle::ModelBundle;
use dlpic_core::normalize::NormStats;
use dlpic_core::phase_space::BinningShape;
use dlpic_core::presets::Scale;
use dlpic_dataset::generator::{generate, GeneratorConfig};
use dlpic_dataset::sample::PhaseDataset;
use dlpic_dataset::spec::SweepSpec;
use dlpic_dataset::split::{shuffle_split, SplitSizes};
use dlpic_nn::loss::Loss;
use dlpic_nn::metrics::evaluate;
use dlpic_nn::optimizer::Adam;
use dlpic_nn::trainer::{train, TrainConfig, TrainHistory};
use std::path::PathBuf;

/// Parsed command-line options shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Cli {
    /// Experiment scale.
    pub scale: Scale,
    /// Ignore cached model bundles.
    pub retrain: bool,
}

impl Cli {
    /// Parses `std::env::args`, honouring `DLPIC_SCALE` as the default.
    pub fn parse() -> Self {
        let mut scale = Scale::from_env();
        let mut retrain = false;
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            match args[i].as_str() {
                "--scale" => {
                    i += 1;
                    let value = args.get(i).map(String::as_str).unwrap_or("");
                    match Scale::parse(value) {
                        Some(s) => scale = s,
                        None => {
                            eprintln!("unknown scale `{value}`; use smoke|scaled|paper");
                            std::process::exit(2);
                        }
                    }
                }
                "--retrain" => retrain = true,
                "--help" | "-h" => {
                    eprintln!("options: --scale smoke|scaled|paper   --retrain");
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option `{other}`");
                    std::process::exit(2);
                }
            }
            i += 1;
        }
        Self { scale, retrain }
    }
}

/// The engine scenario a figure binary runs: the named registry entry at
/// full paper physics (1000 electrons/cell, 200 steps) regardless of
/// `scale` — the scale shrinks only the *learning* problem, exactly as the
/// original figure binaries did with `paper_config`. Seeds match the
/// historical figure runs.
pub fn paper_figure_spec(name: &str, scale: Scale) -> dlpic_repro::engine::ScenarioSpec {
    let mut spec = dlpic_repro::engine::scenario(name, scale).expect("registry entry");
    spec.ppc = dlpic_pic::constants::PAPER_PARTICLES_PER_CELL;
    spec.n_steps = dlpic_pic::constants::PAPER_NSTEPS;
    spec.seed = match name {
        "cold_beam" => 20210706,
        _ => 20210705,
    };
    spec
}

/// Output directory (`./out`), created on demand.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from("out");
    std::fs::create_dir_all(&dir).expect("create out/");
    dir
}

/// Model-cache directory (`./out/models`), created on demand.
pub fn models_dir() -> PathBuf {
    let dir = out_dir().join("models");
    std::fs::create_dir_all(&dir).expect("create out/models/");
    dir
}

/// The generated-and-split data of one scale.
pub struct DataBundle {
    /// Training portion (paper: 38,000 of 40,000).
    pub train: PhaseDataset,
    /// Validation portion.
    pub val: PhaseDataset,
    /// Test Set I — same parameters as training.
    pub test1: PhaseDataset,
    /// Test Set II — parameters never seen in training.
    pub test2: PhaseDataset,
    /// Input normalization statistics computed on the training portion.
    pub norm: NormStats,
}

/// Generates the training sweep and Test Set II for a scale, with the
/// paper's shuffle/split procedure.
pub fn prepare_data(scale: Scale, binning: BinningShape, verbose: bool) -> DataBundle {
    let phase = scale.phase_spec();
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), phase);
    cfg.binning = binning;
    cfg.ppc = scale.dataset_ppc();
    cfg.verbose = verbose;
    let full = generate(&cfg);
    let sizes = SplitSizes::paper_proportions(full.len());
    let (train, val, test1) = shuffle_split(&full, sizes, 0xA11CE);

    let mut cfg2 = GeneratorConfig::new(SweepSpec::test_set_ii_for(scale), phase);
    cfg2.binning = binning;
    cfg2.ppc = scale.dataset_ppc();
    cfg2.verbose = verbose;
    let test2 = generate(&cfg2);

    let norm = train.input_norm_stats();
    DataBundle {
        train,
        val,
        test1,
        test2,
        norm,
    }
}

/// A trained model plus its Table-I row numbers.
pub struct TrainedModel {
    /// Persistable model.
    pub bundle: ModelBundle,
    /// Training curve.
    pub history: TrainHistory,
    /// MAE on Test Set I.
    pub mae1: f32,
    /// Max error on Test Set I.
    pub max1: f32,
    /// MAE on Test Set II.
    pub mae2: f32,
    /// Max error on Test Set II.
    pub max2: f32,
}

/// Trains an architecture on prepared data with the paper's optimizer
/// (Adam, batch 64; lr 1e-4 at paper scale, see `Scale::learning_rate`)
/// and evaluates it on both test sets.
pub fn train_arch(
    arch: &ArchSpec,
    data: &DataBundle,
    loss: &dyn Loss,
    epochs: usize,
    lr: f32,
    seed: u64,
    log_every: usize,
) -> TrainedModel {
    let kind = arch.input_kind();
    let train_set = data.train.to_nn_dataset(&data.norm, kind);
    let val_set = data.val.to_nn_dataset(&data.norm, kind);
    let test1_set = data.test1.to_nn_dataset(&data.norm, kind);
    let test2_set = data.test2.to_nn_dataset(&data.norm, kind);

    let mut net = arch.build(seed);
    let mut opt = Adam::new(lr);
    let cfg = TrainConfig {
        epochs,
        batch_size: 64,
        shuffle_seed: seed,
        log_every,
    };
    let history = train(&mut net, loss, &mut opt, &train_set, Some(&val_set), &cfg);

    let (mae1, max1) = evaluate(&mut net, &test1_set, 64);
    let (mae2, max2) = evaluate(&mut net, &test2_set, 64);
    // A histogram's total mass equals the harvest particle count; record
    // it so the solver can rescale out-of-distribution particle counts.
    let reference_mass: f32 = data.train.input_row(0).iter().sum();
    let bundle = ModelBundle::from_network(
        &mut net,
        arch.clone(),
        data.train.spec,
        data.train.binning,
        data.norm,
    )
    .with_reference_mass(reference_mass);
    TrainedModel {
        bundle,
        history,
        mae1,
        max1,
        mae2,
        max2,
    }
}

/// Loads a cached MLP bundle for the scale, or trains (and caches) one.
/// This is the model the figure binaries (fig4/5/6) run DL-PIC with.
pub fn get_or_train_mlp(scale: Scale, retrain: bool, verbose: bool) -> ModelBundle {
    let path = models_dir().join(format!("mlp-{}.dlpb", scale.name()));
    if !retrain {
        if let Ok(bundle) = ModelBundle::load(&path) {
            if bundle.arch == scale.mlp_arch() {
                if verbose {
                    eprintln!("loaded cached MLP from {}", path.display());
                }
                return bundle;
            }
        }
    }
    if verbose {
        eprintln!(
            "training MLP at {} scale (cache: {})",
            scale.name(),
            path.display()
        );
    }
    let data = prepare_data(scale, BinningShape::Ngp, verbose);
    let arch = scale.mlp_arch();
    let model = train_arch(
        &arch,
        &data,
        &dlpic_nn::loss::Mse,
        scale.mlp_epochs(),
        scale.learning_rate(),
        0xD1,
        if verbose { 5 } else { 0 },
    );
    if verbose {
        eprintln!(
            "trained: test-I MAE {:.5}, test-II MAE {:.5} ({:.1}s)",
            model.mae1, model.mae2, model.history.seconds
        );
    }
    model.bundle.save(&path).expect("save model cache");
    model.bundle
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlpic_nn::loss::Mse;

    #[test]
    fn smoke_scale_end_to_end_training() {
        // The full pipeline at smoke scale: generate → split → train →
        // evaluate. Asserts the learned model beats the trivial
        // zero-predictor on Test Set I.
        let data = prepare_data(Scale::Smoke, BinningShape::Ngp, false);
        assert!(data.train.len() > data.val.len());
        assert!(!data.test2.is_empty());

        let arch = Scale::Smoke.mlp_arch();
        let model = train_arch(&arch, &data, &Mse, 20, 3e-3, 1, 0);
        // Zero predictor MAE = mean |E|.
        let zero_mae = data
            .test1
            .targets()
            .iter()
            .map(|v| v.abs() as f64)
            .sum::<f64>()
            / data.test1.targets().len() as f64;
        assert!(
            (model.mae1 as f64) < zero_mae,
            "model MAE {} not better than zero-predictor {zero_mae}",
            model.mae1
        );
        assert!(model.max1 >= model.mae1);
    }
}

pub mod gate {
    //! The one harness behind the five perf-gate binaries (`step_throughput`,
    //! `train_throughput`, `ensemble_throughput`, `serve_throughput`,
    //! `engine_overhead`). Each binary only measures: its `measure(quick)`
    //! returns the measurement as a [`Json`] document and [`main`] does the
    //! rest — one CLI, one reader of the committed `BENCH_*.json`, one
    //! calibration rescale and SIMD derate, one verdict printer and one
    //! writer. The gates each binary is judged by are declared here
    //! ([`STEP`], [`TRAIN`], [`ENSEMBLE`], [`SERVE`], [`ENGINE`]) so the
    //! committed files can be checked against them in unit tests.
    //!
    //! CLI of every gate binary:
    //!
    //! * `--quick` — CI-sized workloads (per-unit metrics stay comparable);
    //! * `--check` — judge the measurement by the declared gates and exit 0
    //!   (pass), 1 (a gate failed) or 2 (committed file or path unreadable);
    //! * `--out FILE` — also write the raw measurement to `FILE` (a future
    //!   `BASELINE`);
    //! * `--write-bench [BASELINE]` — write the bench's `BENCH_*.json`:
    //!   `baseline` (the measurement read from `BASELINE`, if given),
    //!   `current` and the declared `speedup` ratios. Nothing else writes
    //!   committed files.

    use dlpic_nn::linalg::matmul_naive;
    use dlpic_repro::engine::json::{obj, Json};
    use std::time::Instant;

    /// Median of the samples (ties to the upper middle).
    ///
    /// # Panics
    /// Panics on an empty input.
    pub fn median(mut xs: Vec<f64>) -> f64 {
        xs.sort_by(|a, b| a.total_cmp(b));
        xs[xs.len() / 2]
    }

    /// Deterministic pseudo-random fill in [-1, 1).
    pub fn fill(buf: &mut [f32], mut seed: u64) {
        for v in buf.iter_mut() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((seed >> 40) as f32 / (1u64 << 24) as f32) * 2.0 - 1.0;
        }
    }

    /// Machine-speed anchor: GFLOP/s of the fixed-shape f64
    /// `matmul_naive` oracle. The oracle is the property-test reference
    /// and never part of the optimized kernels, so its throughput tracks
    /// only the machine (CPU + codegen flags), not the repo's
    /// performance work. All gates use this one implementation so their
    /// committed numbers rescale consistently.
    pub fn calibration_gflops(reps: usize) -> f64 {
        let n = 192;
        let mut a = vec![0.0f32; n * n];
        let mut b = vec![0.0f32; n * n];
        fill(&mut a, 3);
        fill(&mut b, 5);
        std::hint::black_box(matmul_naive(&a, &b, n, n, n));
        let flops = 2.0 * (n * n * n) as f64;
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let t0 = Instant::now();
                std::hint::black_box(matmul_naive(&a, &b, n, n, n));
                t0.elapsed().as_secs_f64()
            })
            .collect();
        flops / median(times) / 1e9
    }

    /// A timed fleet as the ensemble and serve gates record it: median
    /// seconds and session·steps/sec.
    pub fn fleet_json(total_steps: usize, times: Vec<f64>) -> Json {
        let seconds = median(times);
        obj(vec![
            ("seconds", Json::Num(seconds)),
            (
                "session_steps_per_sec",
                Json::Num(total_steps as f64 / seconds),
            ),
        ])
    }

    /// Direction in which a committed metric improves.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Better {
        /// Throughputs: the knob is the fractional regression tolerance.
        Higher,
        /// Latencies: the knob is the factor the live value may exceed
        /// the rescaled committed one by.
        Lower,
    }

    /// How a gate judges its live value.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Rule {
        /// Machine-relative: the live value must be at least the knob.
        AtLeast,
        /// Machine-relative: the live value must be at most the knob.
        AtMost,
        /// Against the committed `current.<path>`, rescaled to this
        /// machine by the calibration anchor — inversely for
        /// lower-is-better metrics. A `kernel`-bound metric is also
        /// derated 3× when the committed `simd` is `avx512f` and this
        /// machine's is `portable`: the f64 anchor cannot see that
        /// ≈2.5× f32 kernel-path gap, and the opposite mismatch can only
        /// beat the expectation.
        Committed {
            /// Which way the metric improves.
            better: Better,
            /// Whether the metric runs on the f32 SIMD kernels.
            kernel: bool,
        },
    }

    /// One declared gate.
    #[derive(Debug, Clone, Copy)]
    pub struct Gate {
        /// Name printed in the verdict line.
        pub name: &'static str,
        /// Dotted path of the live value in the measurement (and, for
        /// committed gates, under `current` in the committed file).
        pub path: &'static str,
        /// How the value is judged.
        pub rule: Rule,
        /// Environment variable overriding the knob, if any.
        pub env: Option<&'static str>,
        /// The knob: bound, tolerance or factor (see [`Rule`]).
        pub default: f64,
    }

    impl Gate {
        const fn new(
            name: &'static str,
            path: &'static str,
            rule: Rule,
            env: Option<&'static str>,
            default: f64,
        ) -> Self {
            Self {
                name,
                path,
                rule,
                env,
                default,
            }
        }
    }

    /// A gate binary's declaration.
    #[derive(Debug, Clone, Copy)]
    pub struct Bench {
        /// Binary name, recorded as the committed file's `bench`.
        pub name: &'static str,
        /// The committed file (relative to the repo root).
        pub file: &'static str,
        /// The committed file's `note`.
        pub note: &'static str,
        /// Gates judged by `--check`, in print order.
        pub gates: &'static [Gate],
        /// `speedup` entries `--write-bench` records: key, numerator
        /// path, denominator path, both in the written document.
        pub speedups: &'static [(&'static str, &'static str, &'static str)],
    }

    const MAX_REGRESSION: Option<&str> = Some("DLPIC_PERF_MAX_REGRESSION");
    const THROUGHPUT: Rule = Rule::Committed {
        better: Better::Higher,
        kernel: false,
    };
    const KERNEL_THROUGHPUT: Rule = Rule::Committed {
        better: Better::Higher,
        kernel: true,
    };

    /// `step_throughput`: the simulate half (1-D/2-D PIC steps, matmul).
    pub const STEP: Bench = Bench {
        name: "step_throughput",
        file: "BENCH_step.json",
        note: "single-core; compare the speedup ratios, not cross-machine absolutes",
        gates: &[
            Gate::new(
                "step_1d",
                "step_1d.particle_steps_per_sec",
                THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
            Gate::new(
                "step_2d",
                "step_2d.particle_steps_per_sec",
                THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
            Gate::new(
                "matmul",
                "matmul.gflops_total",
                THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
        ],
        speedups: &[
            (
                "step_1d",
                "current.step_1d.particle_steps_per_sec",
                "baseline.step_1d.particle_steps_per_sec",
            ),
            (
                "step_2d",
                "current.step_2d.particle_steps_per_sec",
                "baseline.step_2d.particle_steps_per_sec",
            ),
            (
                "matmul_total",
                "current.matmul.gflops_total",
                "baseline.matmul.gflops_total",
            ),
        ],
    };

    /// `train_throughput`: the train half (conv2d, epochs, Vlasov data).
    pub const TRAIN: Bench = Bench {
        name: "train_throughput",
        file: "BENCH_train.json",
        note: "single-core; compare the speedup ratios, not cross-machine absolutes",
        gates: &[
            Gate::new(
                "conv2d",
                "conv2d.fwd_bwd_samples_per_sec",
                KERNEL_THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
            Gate::new(
                "mlp_epoch",
                "mlp_epoch.samples_per_sec",
                KERNEL_THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
            Gate::new(
                "cnn_epoch",
                "cnn_epoch.samples_per_sec",
                KERNEL_THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
            // f64 solver code on every kernel path: never derated.
            Gate::new(
                "vlasov",
                "vlasov.steps_per_sec",
                THROUGHPUT,
                MAX_REGRESSION,
                0.25,
            ),
        ],
        speedups: &[
            (
                "conv2d_fwd_bwd",
                "current.conv2d.fwd_bwd_samples_per_sec",
                "baseline.conv2d.fwd_bwd_samples_per_sec",
            ),
            (
                "mlp_epoch",
                "current.mlp_epoch.samples_per_sec",
                "baseline.mlp_epoch.samples_per_sec",
            ),
            (
                "cnn_epoch",
                "current.cnn_epoch.samples_per_sec",
                "baseline.cnn_epoch.samples_per_sec",
            ),
            (
                "vlasov_step",
                "current.vlasov.steps_per_sec",
                "baseline.vlasov.steps_per_sec",
            ),
        ],
    };

    /// `ensemble_throughput`: batched DL fleets, shared weights and bf16.
    /// The absolute backstop is wider (35%) than the step/train gates:
    /// the machine-relative ratios are the primary contract and the
    /// anchor drifts about ±15% run to run.
    pub const ENSEMBLE: Bench = Bench {
        name: "ensemble_throughput",
        file: "BENCH_ensemble.json",
        note: "single-machine; compare the speedup ratios, not cross-machine absolutes. solo = the hand-rolled Engine::start loop the ensemble API replaces (the pre-ensemble baseline)",
        gates: &[
            Gate::new(
                "batched/solo speedup",
                "speedup_batched",
                Rule::AtLeast,
                Some("DLPIC_ENSEMBLE_MIN_SPEEDUP"),
                1.5,
            ),
            // A private weight copy per session would read about 16x.
            Gate::new(
                "fleet/single-copy weight bytes",
                "weights.fleet_vs_single_copy",
                Rule::AtMost,
                None,
                1.10,
            ),
            Gate::new(
                "bf16/f32 solo inference",
                "bf16.speedup_bf16",
                Rule::AtLeast,
                Some("DLPIC_BF16_MIN_SPEEDUP"),
                1.3,
            ),
            Gate::new(
                "bf16 growth-rate deviation",
                "bf16.growth_rel_err",
                Rule::AtMost,
                Some("DLPIC_BF16_GROWTH_TOL"),
                0.05,
            ),
            Gate::new("solo", "solo.session_steps_per_sec", KERNEL_THROUGHPUT, MAX_REGRESSION, 0.35),
            Gate::new(
                "batched_1t",
                "batched_1t.session_steps_per_sec",
                KERNEL_THROUGHPUT,
                MAX_REGRESSION,
                0.35,
            ),
        ],
        speedups: &[
            (
                "batched_1t_vs_solo",
                "current.batched_1t.session_steps_per_sec",
                "current.solo.session_steps_per_sec",
            ),
            (
                "batched_mt_vs_1t",
                "current.batched_mt.session_steps_per_sec",
                "current.batched_1t.session_steps_per_sec",
            ),
        ],
    };

    /// `serve_throughput`: the daemon against direct ensemble execution.
    pub const SERVE: Bench = Bench {
        name: "serve_throughput",
        file: "BENCH_serve.json",
        note: "single-machine; compare served_vs_direct, not cross-machine absolutes. direct = Ensemble::run_to_end(1) over the same 16-run paper-scale DL fleet; served = the daemon's stepping_seconds meter over one submitted sweep job",
        gates: &[
            Gate::new(
                "served/direct ratio",
                "served_vs_direct",
                Rule::AtLeast,
                Some("DLPIC_SERVE_MIN_RATIO"),
                0.9,
            ),
            Gate::new("direct", "direct.session_steps_per_sec", KERNEL_THROUGHPUT, MAX_REGRESSION, 0.35),
            Gate::new("served", "served.session_steps_per_sec", KERNEL_THROUGHPUT, MAX_REGRESSION, 0.35),
            // A log-bucketed p99 over few quick-mode waves: the factor
            // catches an O(n) scan in the wave loop, not jitter.
            Gate::new(
                "wave p99 ms",
                "served_wave_p99_ms",
                Rule::Committed {
                    better: Better::Lower,
                    kernel: true,
                },
                Some("DLPIC_SERVE_MAX_P99_FACTOR"),
                3.0,
            ),
        ],
        speedups: &[],
    };

    /// `engine_overhead`: the session facade against the direct solver
    /// loops (engine `run` is the session path, so one gate covers both).
    pub const ENGINE: Bench = Bench {
        name: "engine_overhead",
        file: "BENCH_engine.json",
        note: "single-machine; overheads are medians of interleaved direct/facade timing-pair ratios, in percent",
        gates: &[Gate::new(
            "session dispatch overhead %",
            "worst_session_overhead_pct",
            Rule::AtMost,
            Some("DLPIC_ENGINE_MAX_OVERHEAD"),
            2.0,
        )],
        speedups: &[],
    };

    /// Every gate binary's declaration.
    #[cfg(test)]
    const ALL: [&Bench; 5] = [&STEP, &TRAIN, &ENSEMBLE, &SERVE, &ENGINE];

    /// The node at a dotted `path` (`"current.solo.seconds"`).
    fn lookup<'a>(doc: &'a Json, path: &str) -> Option<&'a Json> {
        path.split('.').try_fold(doc, |node, key| node.get(key))
    }

    fn num(doc: &Json, path: &str) -> Option<f64> {
        lookup(doc, path)?.as_f64().ok()
    }

    /// Reads and parses a JSON file.
    fn read_json(path: &str) -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("cannot parse {path}: {e}"))
    }

    /// Rounds every non-integer number to four significant digits so
    /// written files stay legible. Gates judge the unrounded measurement.
    fn tidy(doc: &Json) -> Json {
        match doc {
            Json::Num(x) if x.is_finite() && x.fract() != 0.0 => {
                // Scale by an exact power of ten either way, so the
                // rounded value prints as its short decimal.
                let e = 3 - x.abs().log10().floor() as i32;
                let rounded = if e >= 0 {
                    (x * 10f64.powi(e)).round() / 10f64.powi(e)
                } else {
                    (x / 10f64.powi(-e)).round() * 10f64.powi(-e)
                };
                Json::Num(rounded)
            }
            Json::Arr(items) => Json::Arr(items.iter().map(tidy).collect()),
            Json::Obj(fields) => {
                Json::Obj(fields.iter().map(|(k, v)| (k.clone(), tidy(v))).collect())
            }
            other => other.clone(),
        }
    }

    /// The calibration rescale and kernel derate from this machine's
    /// measurement to the committed one, reported into `lines`.
    fn rescale(m: &Json, committed: &Json, lines: &mut Vec<String>) -> (f64, f64) {
        let scale = match (
            num(m, "calibration_gflops"),
            num(committed, "current.calibration_gflops"),
        ) {
            (Some(here), Some(there)) if there > 0.0 => {
                let s = here / there;
                lines.push(format!(
                    "calibration: committed {there:.2} GFLOP/s, this machine {here:.2} (scale {s:.2}x)"
                ));
                s
            }
            // Older files without an anchor compare unscaled.
            _ => 1.0,
        };
        let simd_is = |doc: &Json, path: &str, want: &str| {
            lookup(doc, path).and_then(|j| j.as_str().ok()) == Some(want)
        };
        let derate =
            if simd_is(committed, "current.simd", "avx512f") && simd_is(m, "simd", "portable") {
                lines.push(
                    "kernel path mismatch: committed \"avx512f\", this machine \"portable\" — \
                 derating kernel-bound expectations 3x"
                        .into(),
                );
                1.0 / 3.0
            } else {
                1.0
            };
        (scale, derate)
    }

    /// Judges the measurement `m` by `gates`, in order. Returns the
    /// verdict lines and the exit code: 0 when every gate holds, 1 when
    /// one fails, 2 when a committed gate cannot read its committed
    /// number (`committed` is the parsed committed file, or why not).
    /// `env` resolves knob overrides.
    fn evaluate(
        gates: &[Gate],
        m: &Json,
        committed: &Result<Json, String>,
        env: &dyn Fn(&str) -> Option<String>,
    ) -> (Vec<String>, i32) {
        let mut lines = Vec::new();
        let mut failed = 0;
        let mut rescaled = None;
        for gate in gates {
            let live = num(m, gate.path)
                .unwrap_or_else(|| panic!("measurement lacks the gated `{}`", gate.path));
            let knob = gate
                .env
                .and_then(env)
                .and_then(|v| v.parse().ok())
                .unwrap_or(gate.default);
            let (ok, line) = match gate.rule {
                Rule::AtLeast => (live >= knob, format!("{live:.3} (gate: >= {knob:.2})")),
                Rule::AtMost => (live <= knob, format!("{live:.3} (gate: <= {knob:.2})")),
                Rule::Committed { better, kernel } => {
                    let doc = match committed {
                        Ok(doc) => doc,
                        Err(e) => {
                            lines.push(e.clone());
                            return (lines, 2);
                        }
                    };
                    let path = format!("current.{}", gate.path);
                    let Some(base) = num(doc, &path).filter(|b| *b > 0.0) else {
                        lines.push(format!("committed file has no positive `{path}`"));
                        return (lines, 2);
                    };
                    let (scale, derate) =
                        *rescaled.get_or_insert_with(|| rescale(m, doc, &mut lines));
                    let speed = if kernel { scale * derate } else { scale };
                    match better {
                        Better::Higher => {
                            let expected = base * speed;
                            let delta = live / expected - 1.0;
                            (
                                delta >= -knob,
                                format!(
                                    "expected {expected:.3e}, measured {live:.3e} ({:+.1}%, gate: -{:.0}%)",
                                    delta * 100.0,
                                    knob * 100.0
                                ),
                            )
                        }
                        Better::Lower => {
                            let bound = base / speed * knob;
                            (
                                live <= bound,
                                format!(
                                    "committed {base:.3}, bound {bound:.3} ({knob:.1}x), measured {live:.3}"
                                ),
                            )
                        }
                    }
                }
            };
            if !ok {
                failed += 1;
            }
            let verdict = if ok { "ok" } else { "FAIL" };
            lines.push(format!("{}: {line} {verdict}", gate.name));
        }
        if failed == 0 {
            lines.push(format!("PASS: {0} of {0} gates hold", gates.len()));
            (lines, 0)
        } else {
            lines.push(format!("FAIL: {failed} of {} gates failed", gates.len()));
            (lines, 1)
        }
    }

    /// Parsed gate-binary options (see the module docs).
    #[derive(Debug, Default, PartialEq)]
    struct Options {
        quick: bool,
        check: bool,
        out: Option<String>,
        write_bench: Option<Option<String>>,
    }

    fn parse_options(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => opts.quick = true,
                "--check" => opts.check = true,
                "--out" => opts.out = Some(args.next().ok_or("--out needs a FILE")?),
                "--write-bench" => {
                    opts.write_bench = Some(args.next_if(|a| !a.starts_with("--")));
                }
                other => return Err(format!("unknown option `{other}`")),
            }
        }
        Ok(opts)
    }

    /// The committed-file document `--write-bench` writes.
    fn bench_document(bench: &Bench, m: &Json, baseline: Option<Json>) -> Result<Json, String> {
        let mut fields = vec![
            ("bench", Json::Str(bench.name.into())),
            ("note", Json::Str(bench.note.into())),
        ];
        fields.extend(baseline.map(|b| ("baseline", b)));
        fields.push(("current", m.clone()));
        let mut doc = obj(fields);
        if !bench.speedups.is_empty() {
            let speedup = bench
                .speedups
                .iter()
                .map(
                    |&(key, over, under)| match (num(&doc, over), num(&doc, under)) {
                        (Some(a), Some(b)) => Ok((key, Json::Num(a / b))),
                        _ => Err(format!(
                        "speedup `{key}` needs `{over}` and `{under}` (a BASELINE measurement?)"
                    )),
                    },
                )
                .collect::<Result<Vec<_>, _>>()?;
            if let Json::Obj(fields) = &mut doc {
                fields.push(("speedup".into(), obj(speedup)));
            }
        }
        Ok(tidy(&doc))
    }

    fn write(path: &str, doc: &Json) -> Result<(), String> {
        std::fs::write(path, doc.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
        Ok(())
    }

    /// Runs a gate binary: parses the CLI, measures, prints the
    /// measurement, writes what was asked for and, under `--check`,
    /// exits with the verdict of the bench's gates.
    pub fn main(bench: &Bench, measure: fn(bool) -> Json) -> ! {
        let opts = parse_options(std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!(
                "{}: {e}\noptions: --quick  --check  --out FILE  --write-bench [BASELINE]",
                bench.name
            );
            std::process::exit(2)
        });
        let m = measure(opts.quick);
        println!("{}", tidy(&m).to_pretty());
        let written = opts
            .out
            .iter()
            .try_for_each(|path| write(path, &tidy(&m)))
            .and_then(|()| match &opts.write_bench {
                Some(baseline) => {
                    let baseline = baseline.as_deref().map(read_json).transpose()?;
                    write(bench.file, &bench_document(bench, &m, baseline)?)
                }
                None => Ok(()),
            });
        if let Err(e) = written {
            eprintln!("{}: {e}", bench.name);
            std::process::exit(2);
        }
        if !opts.check {
            std::process::exit(0);
        }
        let committed = read_json(bench.file);
        let (lines, code) = evaluate(bench.gates, &m, &committed, &|key| std::env::var(key).ok());
        for line in lines {
            println!("{line}");
        }
        std::process::exit(code)
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn doc(text: &str) -> Json {
            Json::parse(text).expect("test document")
        }

        fn no_env(_: &str) -> Option<String> {
            None
        }

        /// Exit code of `gates` judging `live` against `committed`.
        fn code(gates: &[Gate], live: &str, committed: &str) -> i32 {
            evaluate(gates, &doc(live), &Ok(doc(committed)), &no_env).1
        }

        const KERNEL: Gate = Gate::new("k", "rate", KERNEL_THROUGHPUT, MAX_REGRESSION, 0.25);
        const PLAIN: Gate = Gate::new("vlasov", "rate", THROUGHPUT, MAX_REGRESSION, 0.25);

        #[test]
        fn committed_files_hold_every_gated_path() {
            for bench in ALL {
                let path = format!("{}/../../{}", env!("CARGO_MANIFEST_DIR"), bench.file);
                let committed = read_json(&path).unwrap_or_else(|e| panic!("{e}"));
                assert_eq!(
                    lookup(&committed, "bench"),
                    Some(&Json::Str(bench.name.into()))
                );
                for gate in bench.gates {
                    if let Rule::Committed { .. } = gate.rule {
                        let at = format!("current.{}", gate.path);
                        assert!(
                            num(&committed, &at).is_some_and(|v| v > 0.0),
                            "{} lacks a positive `{at}`",
                            bench.file
                        );
                    }
                }
            }
        }

        #[test]
        fn machine_relative_bounds_are_inclusive() {
            let at_least = [Gate::new("r", "x", Rule::AtLeast, None, 1.5)];
            let at_most = [Gate::new("r", "x", Rule::AtMost, None, 1.1)];
            assert_eq!(code(&at_least, r#"{"x": 1.5}"#, "{}"), 0);
            assert_eq!(code(&at_least, r#"{"x": 1.499}"#, "{}"), 1);
            assert_eq!(code(&at_most, r#"{"x": 1.1}"#, "{}"), 0);
            assert_eq!(code(&at_most, r#"{"x": 1.101}"#, "{}"), 1);
            // Only committed gates need the committed file.
            let missing = Err("cannot read BENCH_x.json".to_string());
            assert_eq!(
                evaluate(&at_least, &doc(r#"{"x": 2}"#), &missing, &no_env).1,
                0
            );
        }

        #[test]
        fn tolerance_boundary_and_its_env_override() {
            let committed = r#"{"current": {"rate": 100}}"#;
            assert_eq!(code(&[PLAIN], r#"{"rate": 75}"#, committed), 0);
            assert_eq!(code(&[PLAIN], r#"{"rate": 74.9}"#, committed), 1);
            let wider = |key: &str| (key == "DLPIC_PERF_MAX_REGRESSION").then(|| "0.3".to_string());
            let (_, code) = evaluate(
                &[PLAIN],
                &doc(r#"{"rate": 72}"#),
                &Ok(doc(committed)),
                &wider,
            );
            assert_eq!(code, 0);
        }

        #[test]
        fn committed_numbers_rescale_by_the_calibration_anchor() {
            let committed = r#"{"current": {"calibration_gflops": 2, "rate": 100, "p99": 10}}"#;
            // Half as fast a machine: expect 50, allow 37.5.
            let slow = r#"{"calibration_gflops": 1, "rate": 37.5, "p99": 60}"#;
            assert_eq!(code(&[PLAIN], slow, committed), 0);
            let slower = r#"{"calibration_gflops": 1, "rate": 37, "p99": 60}"#;
            assert_eq!(code(&[PLAIN], slower, committed), 1);
            // Lower-is-better scales inversely: 10 ms → 20 ms, 3x → 60 ms.
            let p99 = Gate::new(
                "p99",
                "p99",
                Rule::Committed {
                    better: Better::Lower,
                    kernel: false,
                },
                None,
                3.0,
            );
            assert_eq!(code(&[p99], slow, committed), 0);
            let late = r#"{"calibration_gflops": 1, "rate": 50, "p99": 60.1}"#;
            assert_eq!(code(&[p99], late, committed), 1);
        }

        #[test]
        fn derate_applies_only_to_kernel_metrics_from_avx512_to_portable() {
            let avx = r#"{"current": {"simd": "avx512f", "rate": 300}}"#;
            let portable = r#"{"simd": "portable", "rate": 75}"#;
            // 300 / 3 = 100 expected; 75 sits on the 25% boundary.
            assert_eq!(code(&[KERNEL], portable, avx), 0);
            // Non-kernel metrics (Vlasov) are compared at full strength.
            assert_eq!(code(&[PLAIN], portable, avx), 1);
            // Same path, or the faster path measuring: no derate.
            assert_eq!(
                code(&[KERNEL], r#"{"simd": "avx512f", "rate": 75}"#, avx),
                1
            );
            let committed_portable = r#"{"current": {"simd": "portable", "rate": 300}}"#;
            let avx_live = r#"{"simd": "avx512f", "rate": 75}"#;
            assert_eq!(code(&[KERNEL], avx_live, committed_portable), 1);
            // The derate widens a lower-is-better bound the same 3x.
            let p99 = Gate::new(
                "p99",
                "rate",
                Rule::Committed {
                    better: Better::Lower,
                    kernel: true,
                },
                None,
                1.0,
            );
            assert_eq!(code(&[p99], r#"{"simd": "portable", "rate": 900}"#, avx), 0);
            assert_eq!(code(&[p99], r#"{"simd": "portable", "rate": 901}"#, avx), 1);
        }

        #[test]
        fn missing_committed_file_or_path_exits_2() {
            let live = doc(r#"{"rate": 100}"#);
            let unreadable = read_json("no/such/BENCH_file.json");
            assert!(unreadable.is_err());
            assert_eq!(evaluate(&[PLAIN], &live, &unreadable, &no_env).1, 2);
            let garbled = Err("cannot parse BENCH_x.json".to_string());
            assert_eq!(evaluate(&[PLAIN], &live, &garbled, &no_env).1, 2);
            assert_eq!(code(&[PLAIN], r#"{"rate": 100}"#, r#"{"current": {}}"#), 2);
            assert_eq!(
                code(&[PLAIN], r#"{"rate": 100}"#, r#"{"current": {"rate": 0}}"#),
                2
            );
        }

        #[test]
        fn cli_parses_the_four_flags() {
            let parse = |args: &[&str]| parse_options(args.iter().map(|a| a.to_string()));
            let opts = parse(&["--quick", "--check", "--out", "m.json", "--write-bench"]).unwrap();
            assert!(opts.quick && opts.check);
            assert_eq!(opts.out.as_deref(), Some("m.json"));
            assert_eq!(opts.write_bench, Some(None));
            let opts = parse(&["--write-bench", "base.json", "--quick"]).unwrap();
            assert_eq!(opts.write_bench, Some(Some("base.json".into())));
            assert!(opts.quick);
            assert!(parse(&["--out"]).is_err());
            assert!(parse(&["--chek"]).is_err());
        }

        #[test]
        fn written_documents_are_tidy_and_carry_speedups() {
            assert_eq!(tidy(&Json::Num(135_812_345.6)), Json::Num(135_800_000.0));
            assert_eq!(tidy(&Json::Num(0.094_312)), Json::Num(0.094_31));
            assert_eq!(tidy(&Json::Num(25_440_512.0)), Json::Num(25_440_512.0));
            let m = doc(
                r#"{"step_1d": {"particle_steps_per_sec": 2}, "step_2d": {"particle_steps_per_sec": 3}, "matmul": {"gflops_total": 4}}"#,
            );
            assert!(
                bench_document(&STEP, &m, None).is_err(),
                "step speedups need a baseline"
            );
            let base = doc(
                r#"{"step_1d": {"particle_steps_per_sec": 1}, "step_2d": {"particle_steps_per_sec": 1}, "matmul": {"gflops_total": 3}}"#,
            );
            let written = bench_document(&STEP, &m, Some(base)).unwrap();
            assert_eq!(num(&written, "speedup.step_2d"), Some(3.0));
            assert_eq!(num(&written, "speedup.matmul_total"), Some(1.333));
            assert_eq!(lookup(&written, "current"), Some(&m));
        }
    }
}
