//! DL model plumbing for the engine's `Dl1D`/`Dl2D` backends.
//!
//! Three ways to get a model into an [`Engine`](super::Engine):
//!
//! 1. **Bring a trained 1-D bundle** — `engine.with_model_1d(bundle)` with
//!    a [`ModelBundle`] from `dlpic-bench` or [`quick_train_1d`].
//! 2. **Quick-train through a registry** — `engine.with_registry(..)`
//!    attaches a [`ModelRegistry`] that runs [`quick_train_1d`] /
//!    [`quick_train_2d`] once per (scenario, scale, seed) at the spec's
//!    scale (seconds at `Scale::Smoke`) and shares the result.
//! 3. **Untrained fallback** — with neither, the engine builds the
//!    [`default_arch`] network at a fixed seed. The produced fields are
//!    physically meaningless (finite, near-zero) but every plumbing path
//!    is exercised; runs report the solver name `dl-*-untrained` so nobody
//!    mistakes them for physics.
//!
//! Whichever way a model arrives, it is held as one frozen snapshot — a
//! [`FrozenBundle`] (1-D) or a [`Frozen2DModel`] (2-D) — and every session
//! mints its solver from it with `.solver()`, so sessions share one
//! `Arc`-held weight allocation per distinct model. [`default_arch`] is
//! the one place that decides which network a session runs when no
//! trained model is configured; the quick-trainers fit that network, and
//! the weight and memory accounting sizes it.

use super::backend::Backend;
use super::error::EngineError;
use super::spec::ScenarioSpec;
use crate::core::builder::ArchSpec;
use crate::core::phase_space::BinningShape;
use crate::core::presets::Scale;
use crate::core::twod::{arch_2d, harvest_2d, train_2d_model, Frozen2DModel, Train2DConfig};
use crate::core::{FrozenBundle, ModelBundle};
use crate::pic2d::Pic2DConfig;
use std::any::Any;
use std::sync::{Arc, Mutex};

/// Hidden widths of the default 2-D architecture at each scale.
fn hidden_2d(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![32, 32],
        Scale::Scaled => vec![256, 256],
        Scale::Paper => vec![512, 512],
    }
}

/// The network a DL session runs when no trained model is configured:
/// what the quick-trainers fit and the untrained fallback builds, and
/// what the memory estimate and the weight profile size. 1-D: the
/// scale's MLP from the phase-space histogram to the paper's 64 cells.
/// 2-D: an MLP from the `nodes` density bins to `[Ex | Ey]`. `None` for
/// backends without a network.
pub fn default_arch(spec: &ScenarioSpec, backend: Backend) -> Option<ArchSpec> {
    match backend {
        Backend::Dl1D => Some(spec.scale.mlp_arch()),
        Backend::Dl2D => Some(arch_2d(spec.domain.cells(), hidden_2d(spec.scale))),
        _ => None,
    }
}

/// Trains a 1-D MLP field solver from scratch at the given scale — the
/// full paper pipeline (traditional-PIC harvest → shuffle/split →
/// Adam/MSE training) with the scale's sweep and the [`default_arch`]
/// 1-D network. Seconds at `Scale::Smoke`; see `dlpic-bench` for cached,
/// full-size training.
pub fn quick_train_1d(scale: Scale, seed: u64) -> ModelBundle {
    use crate::dataset::generator::{generate, GeneratorConfig};
    use crate::dataset::spec::SweepSpec;
    use crate::nn::optimizer::Adam;
    use crate::nn::trainer::{train, TrainConfig};

    let mut cfg = GeneratorConfig::new(SweepSpec::training_for(scale), scale.phase_spec());
    cfg.ppc = scale.dataset_ppc();
    let data = generate(&cfg);
    let norm = data.input_norm_stats();
    let arch = scale.mlp_arch();
    let kind = arch.input_kind();
    let mut net = arch.build(seed);
    let mut opt = Adam::new(scale.learning_rate());
    let tc = TrainConfig {
        epochs: scale.mlp_epochs(),
        batch_size: 64,
        shuffle_seed: seed,
        log_every: 0,
    };
    train(
        &mut net,
        &crate::nn::Mse,
        &mut opt,
        &data.to_nn_dataset(&norm, kind),
        None,
        &tc,
    );
    let reference_mass: f32 = data.input_row(0).iter().sum();
    ModelBundle::from_network(&mut net, arch, data.spec, data.binning, norm)
        .with_reference_mass(reference_mass)
}

/// Trains a 2-D DL field solver by harvesting a traditional 2-D run of the
/// given scenario, then fitting the scale's MLP, and freezes it.
pub fn quick_train_2d(spec: &ScenarioSpec, seed: u64) -> Result<Frozen2DModel, EngineError> {
    let grid = match spec.dim() {
        super::spec::Dim::TwoD => spec.grid_2d(),
        super::spec::Dim::OneD => {
            return Err(EngineError::InvalidSpec {
                scenario: spec.name.clone(),
                what: "quick_train_2d needs a 2-D scenario".into(),
            })
        }
    };
    let init = spec.init_2d().ok_or_else(|| EngineError::InvalidSpec {
        scenario: spec.name.clone(),
        what: "2-D training harvest needs a symmetric two-beam species".into(),
    })?;
    let cfg = Pic2DConfig {
        grid: grid.clone(),
        init,
        dt: spec.dt,
        n_steps: spec.n_steps,
        gather_shape: crate::pic::Shape::Cic,
        tracked_modes: vec![],
    };
    let binning = BinningShape::Ngp;
    let samples = harvest_2d(cfg, binning, 1);
    let tc = Train2DConfig {
        hidden: hidden_2d(spec.scale),
        learning_rate: spec.scale.learning_rate().max(1e-3),
        epochs: match spec.scale {
            Scale::Smoke => 10,
            Scale::Scaled => 40,
            Scale::Paper => 80,
        },
        batch_size: 32,
        seed,
    };
    Ok(train_2d_model(&grid, &samples, binning, &tc).0)
}

/// Observable counters of a [`ModelRegistry`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RegistryStats {
    /// Lookups served from a cached model.
    pub hits: u64,
    /// Lookups that trained a fresh model.
    pub misses: u64,
    /// Entries dropped by LRU pressure or [`ModelRegistry::prune`].
    pub evictions: u64,
    /// Models currently resident.
    pub entries: usize,
    /// Weight bytes currently resident (one frozen copy per entry).
    pub bytes: usize,
    /// The configured byte capacity.
    pub capacity_bytes: usize,
}

/// What one registry lookup is keyed by: train once per (scenario, scale,
/// seed) per dimension, share everywhere. The dimension is the type of
/// the cached model.
#[derive(Debug, Clone, PartialEq, Eq)]
struct RegistryKey {
    scenario: String,
    scale: Scale,
    seed: u64,
}

struct RegistryEntry {
    key: RegistryKey,
    /// A [`FrozenBundle`] or a [`Frozen2DModel`]; cloning one is an
    /// `Arc` bump, not a weight copy.
    frozen: Box<dyn Any + Send>,
    /// Field cells the cached network serves.
    cells: usize,
    /// Bytes of its one weight allocation.
    bytes: usize,
    last_used: u64,
}

/// A get-or-train cache of frozen DL models keyed by
/// `(scenario, scale, seed)`: the first lookup runs the quick-train
/// pipeline, every later lookup for the same key returns the **same**
/// `Arc`-shared frozen model, so fleets and serve runs share one weight
/// allocation per distinct model instead of retraining per session.
///
/// The cache is LRU-bounded by weight bytes ([`ResourceEstimate`]
/// currency): inserting past `capacity_bytes` evicts the
/// least-recently-used entries, never the one just inserted. A cache hit
/// whose trained architecture cannot serve the requesting spec — the
/// domain was resized after the model was trained — is rejected with
/// [`EngineError::Incompatible`] naming both shapes rather than silently
/// returning a mis-sized network.
///
/// [`ResourceEstimate`]: super::resources::ResourceEstimate
pub struct ModelRegistry {
    capacity_bytes: usize,
    clock: u64,
    entries: Vec<RegistryEntry>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A registry shared across engine handles (and serve schedulers):
/// lookups lock, training happens under the lock so concurrent requests
/// for the same key train once.
pub type SharedModelRegistry = Arc<Mutex<ModelRegistry>>;

/// A fresh [`SharedModelRegistry`] with the given byte capacity.
pub fn shared_registry(capacity_bytes: usize) -> SharedModelRegistry {
    Arc::new(Mutex::new(ModelRegistry::new(capacity_bytes)))
}

impl ModelRegistry {
    /// An empty registry holding at most `capacity_bytes` of cached
    /// models (f32 weight storage).
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            capacity_bytes,
            clock: 0,
            entries: Vec::new(),
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Gets (or trains) the frozen 1-D model every session for this spec
    /// mints its solver from.
    pub fn model_1d(&mut self, spec: &ScenarioSpec) -> Result<FrozenBundle, EngineError> {
        self.get_or_train(spec, Backend::Dl1D, FrozenBundle::weight_bytes, || {
            let frozen = quick_train_1d(spec.scale, spec.seed).freeze()?;
            Ok((frozen.output_len(), frozen))
        })
    }

    /// Gets (or trains) the frozen 2-D model for this spec.
    pub fn model_2d(&mut self, spec: &ScenarioSpec) -> Result<Frozen2DModel, EngineError> {
        self.get_or_train(spec, Backend::Dl2D, Frozen2DModel::weight_bytes, || {
            Ok((spec.domain.cells(), quick_train_2d(spec, spec.seed)?))
        })
    }

    /// Drops every cached entry, returning how many were released.
    /// Sessions already minted keep their `Arc`s alive; the registry just
    /// stops pinning the allocations.
    pub fn prune(&mut self) -> usize {
        let n = self.entries.len();
        self.evictions += n as u64;
        self.entries.clear();
        n
    }

    /// Current counters.
    pub fn stats(&self) -> RegistryStats {
        RegistryStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.entries.len(),
            bytes: self.resident_bytes(),
            capacity_bytes: self.capacity_bytes,
        }
    }

    /// The one lookup body: a hit on this key and model type returns the
    /// cached model if it serves the spec's field cells; a miss runs
    /// `train` (which returns the cells the new model serves), caches the
    /// result at its `weight_bytes` and evicts over capacity.
    fn get_or_train<T: Clone + Send + 'static>(
        &mut self,
        spec: &ScenarioSpec,
        backend: Backend,
        weight_bytes: fn(&T) -> usize,
        train: impl FnOnce() -> Result<(usize, T), EngineError>,
    ) -> Result<T, EngineError> {
        let key = RegistryKey {
            scenario: spec.name.clone(),
            scale: spec.scale,
            seed: spec.seed,
        };
        self.clock += 1;
        let hit = self.entries.iter_mut().find_map(|e| {
            let frozen = e.frozen.downcast_ref::<T>().filter(|_| e.key == key)?;
            Some((frozen.clone(), e))
        });
        if let Some((frozen, entry)) = hit {
            let want = spec.domain.cells();
            if entry.cells != want {
                return Err(arch_mismatch(spec, backend, entry.cells, want));
            }
            self.hits += 1;
            entry.last_used = self.clock;
            return Ok(frozen);
        }
        self.misses += 1;
        let (cells, frozen) = train()?;
        self.entries.push(RegistryEntry {
            key,
            frozen: Box::new(frozen.clone()),
            cells,
            bytes: weight_bytes(&frozen),
            last_used: self.clock,
        });
        self.evict_over_capacity();
        Ok(frozen)
    }

    fn resident_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.bytes).sum()
    }

    fn evict_over_capacity(&mut self) {
        // Never evict the freshest entry (the one the caller is about to
        // use); a single over-budget model stays resident rather than
        // thrashing the trainer.
        while self.entries.len() > 1 && self.resident_bytes() > self.capacity_bytes {
            let oldest = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(i, _)| i)
                .expect("entries is non-empty");
            self.entries.remove(oldest);
            self.evictions += 1;
        }
    }
}

fn arch_mismatch(spec: &ScenarioSpec, backend: Backend, cached: usize, want: usize) -> EngineError {
    EngineError::Incompatible {
        scenario: spec.name.clone(),
        backend: backend.name(),
        why: format!(
            "registry entry for this (scenario, scale, seed) was trained for {cached} \
             field cells but the requesting domain has {want}; prune the registry or \
             match the training grid"
        ),
    }
}
