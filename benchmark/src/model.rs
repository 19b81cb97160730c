//! The trained model every DL workload runs, and the physics checks on
//! its runs.
//!
//! The engine's default untrained network only exercises plumbing: its
//! fields are orders of magnitude too large, the particles run away, and
//! a benchmark on it would reward optimising a non-physical program. So
//! set-up trains the paper MLP (4096→3×1024→64) on the smoke training
//! sweep at the paper's 64×64 phase grid, from a fixed seed.

use std::time::Instant;

use dlpic_repro::core::{ModelBundle, PhaseGridSpec, Scale};
use dlpic_repro::dataset::generator::{generate, GeneratorConfig};
use dlpic_repro::dataset::spec::SweepSpec;
use dlpic_repro::engine::EnergyHistory;
use dlpic_repro::nn::{train, Adam, Mse, TrainConfig};

/// Seed of the network initialisation and the minibatch shuffle.
pub const TRAIN_SEED: u64 = 42;

/// A trained bundle and what producing it cost.
pub struct Trained {
    pub bundle: ModelBundle,
    pub generate_s: f64,
    pub train_s: f64,
}

/// Harvests the smoke training sweep on the paper phase grid and fits the
/// paper MLP: seeded, so every call returns the same parameters.
pub fn train_paper_mlp() -> Trained {
    let scale = Scale::Smoke;
    let t0 = Instant::now();
    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), PhaseGridSpec::paper());
    cfg.ppc = scale.dataset_ppc();
    let data = generate(&cfg);
    let generate_s = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let norm = data.input_norm_stats();
    let arch = Scale::Paper.mlp_arch();
    let kind = arch.input_kind();
    let mut net = arch.build(TRAIN_SEED);
    let mut opt = Adam::new(scale.learning_rate());
    let tc = TrainConfig {
        epochs: scale.mlp_epochs(),
        batch_size: 64,
        shuffle_seed: TRAIN_SEED,
        log_every: 0,
    };
    train(
        &mut net,
        &Mse,
        &mut opt,
        &data.to_nn_dataset(&norm, kind),
        None,
        &tc,
    );
    let reference_mass: f32 = data.input_row(0).iter().sum();
    let bundle = ModelBundle::from_network(&mut net, arch, data.spec, data.binning, norm)
        .with_reference_mass(reference_mass);
    Trained {
        bundle,
        generate_s,
        train_s: t1.elapsed().as_secs_f64(),
    }
}

/// `mlp 4096-1024-1024-1024-64`: the trained architecture, for the facts.
pub fn arch_name() -> String {
    let arch = Scale::Paper.mlp_arch();
    match &arch {
        dlpic_repro::core::ArchSpec::Mlp {
            input,
            hidden,
            output,
        } => {
            let widths: Vec<String> = std::iter::once(input)
                .chain(hidden)
                .chain(std::iter::once(output))
                .map(usize::to_string)
                .collect();
            format!("mlp {}", widths.join("-"))
        }
        other => format!("{other:?}"),
    }
}

/// Multiply-adds of one inference row, counted as 2 flops each.
pub fn flops_per_row() -> f64 {
    2.0 * Scale::Paper.mlp_arch().param_count() as f64
}

/// The band the repository's DL end-to-end test holds a run's total
/// energy to: every sample within 0.3–4× the initial total.
pub fn energy_in_band(history: &EnergyHistory) -> bool {
    let Some(&e0) = history.total.first() else {
        return false;
    };
    e0 > 0.0 && history.total.iter().all(|&e| e > 0.3 * e0 && e < 4.0 * e0)
}

/// Largest relative departure of total energy from its initial value.
pub fn energy_variation(history: &EnergyHistory) -> f64 {
    let e0 = history.total.first().copied().unwrap_or(f64::NAN);
    history
        .total
        .iter()
        .map(|&e| ((e - e0) / e0).abs())
        .fold(0.0, f64::max)
}

/// RMS of the grid field at the last sample, from its field energy
/// `W = ½·Σ E²·dx` on a box of `length`: `E_rms = √(2W / L)`.
pub fn final_e_rms(history: &EnergyHistory, length: f64) -> f64 {
    history
        .field
        .last()
        .map_or(f64::NAN, |&w| (2.0 * w / length).sqrt())
}
