//! The [`Engine`]: validates a scenario×backend pairing, builds the
//! matching solver stack and hands it out as an incremental
//! [`Session`] — or drives one to completion via the [`Engine::run`]
//! convenience.
//!
//! Every backend follows the same protocol: build → step `n_steps` times →
//! final snapshot, emitting one [`Sample`](super::Sample) per recorded
//! diagnostics row (so a full run yields `n_steps + 1` samples, matching
//! the solver crates' long-standing convention). The per-backend stepping
//! logic lives in [`super::session`]; this module owns configuration
//! (models, numerics, observers) and solver construction.

use super::backend::Backend;
use super::dl::{self, SharedModelRegistry};
use super::ensemble::{Ensemble, SweepSpec};
use super::error::EngineError;
use super::fault::FaultPlan;
use super::observer::{Observer, RunSummary};
use super::session::{
    BackendSession, Checkpoint, DdecompSession, Pic1DSession, Pic2DSession, Session, VlasovSession,
};
use super::spec::ScenarioSpec;
use crate::core::presets::Scale;
use crate::core::twod::Frozen2DModel;
use crate::core::{BinningShape, FrozenBundle, ModelBundle, NormStats};
use crate::nn::frozen::Precision;
use crate::pic::solver::{PoissonKind, TraditionalSolver};
use crate::pic::Shape;
use crate::pic2d::TraditionalSolver2D;
use std::sync::Mutex;

/// Numerical options of the 1-D particle backends that the paper's figure
/// experiments vary; the scenario spec stays purely physical. Defaults
/// match `TraditionalSolver::paper_default()`: CIC deposit and gather,
/// finite-difference Poisson.
#[derive(Debug, Clone, Copy)]
pub struct Numerics1D {
    /// Shape used to gather E to the particles (shared by all backends).
    pub gather_shape: Shape,
    /// Deposition shape of the traditional solver (keep equal to
    /// `gather_shape` for momentum conservation).
    pub deposit_shape: Shape,
    /// Poisson backend of the traditional solver.
    pub poisson: PoissonKind,
}

impl Default for Numerics1D {
    fn default() -> Self {
        Self {
            gather_shape: Shape::Cic,
            deposit_shape: Shape::Cic,
            poisson: PoissonKind::FiniteDifference,
        }
    }
}

impl Numerics1D {
    /// The paper §II "basic NGP scheme" — the traditional baseline of the
    /// figure experiments, which exhibits the cold-beam instability most
    /// clearly.
    pub fn basic_ngp() -> Self {
        Self {
            gather_shape: Shape::Ngp,
            deposit_shape: Shape::Ngp,
            poisson: PoissonKind::FiniteDifference,
        }
    }
}

/// The facade entry point: holds an optional 1-D model and observers,
/// builds [`Session`]s for any compatible scenario×backend pairing, and
/// runs them to completion on request.
///
/// DL sessions built by one engine share weights: a configured model
/// (MLP or CNN) is frozen once into an `Arc`-shared allocation and every
/// session minted from it reads the same memory. The untrained fallback
/// shares per (scale, grid) the same way, and a
/// [`ModelRegistry`](super::ModelRegistry) attached via
/// [`Self::with_registry`] extends sharing to quick-trained models keyed
/// by (scenario, scale, seed).
#[derive(Default)]
pub struct Engine {
    /// The configured 1-D model, frozen once at configuration. `Err`
    /// keeps a bundle whose parameters do not decode, so every session
    /// build re-raises the decode error as [`EngineError::Bundle`].
    model_1d: Option<Result<FrozenBundle, ModelBundle>>,
    /// Shared untrained 1-D fallback models, keyed by scale.
    untrained_1d: Mutex<Vec<(Scale, FrozenBundle)>>,
    /// Shared untrained 2-D fallback models, keyed by (scale, nodes).
    untrained_2d: Mutex<Vec<((Scale, usize), Frozen2DModel)>>,
    registry: Option<SharedModelRegistry>,
    numerics_1d: Numerics1D,
    observers: Vec<Box<dyn Observer>>,
    faults: FaultPlan,
}

/// Seeds the untrained fallback's weights, so every engine builds the
/// same network.
const UNTRAINED_SEED: u64 = 0xD15E;

/// Locks tolerating poisoning: a panicked holder leaves a cache of
/// immutable `Arc`s, which is still safe to read.
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// The cached value under `key`, made by `make` on first use.
fn cached<K: PartialEq, V: Clone>(
    cache: &Mutex<Vec<(K, V)>>,
    key: K,
    make: impl FnOnce() -> V,
) -> V {
    let mut cache = lock(cache);
    if let Some((_, v)) = cache.iter().find(|(k, _)| *k == key) {
        return v.clone();
    }
    let v = make();
    cache.push((key, v.clone()));
    v
}

impl Engine {
    /// An engine with no models and no observers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Uses this trained 1-D bundle for `Backend::Dl1D` runs. The bundle
    /// is frozen here, once — every session shares the allocation.
    pub fn with_model_1d(mut self, bundle: ModelBundle) -> Self {
        self.model_1d = Some(bundle.freeze().map_err(|_| bundle));
        self
    }

    /// Attaches a model registry: `Dl1D`/`Dl2D` runs without an explicit
    /// model get-or-train through it instead of falling back to untrained
    /// networks, and sessions with equal (scenario, scale, seed) share
    /// one weight allocation.
    pub fn with_registry(mut self, registry: SharedModelRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// The attached model registry, if any (serve's `prune` hook).
    pub fn registry(&self) -> Option<&SharedModelRegistry> {
        self.registry.as_ref()
    }

    /// Overrides the 1-D numerical options (gather/deposit shapes, Poisson
    /// backend).
    pub fn with_numerics_1d(mut self, numerics: Numerics1D) -> Self {
        self.numerics_1d = numerics;
        self
    }

    /// Registers a run monitor. Engine-held observers follow every
    /// [`Self::run`]/[`Self::run_named`] call; sessions started with
    /// [`Self::start`] attach their own via
    /// [`Session::attach_observer`].
    pub fn with_observer(mut self, observer: Box<dyn Observer>) -> Self {
        self.observers.push(observer);
        self
    }

    /// True when a trained 1-D model is configured.
    pub fn has_model_1d(&self) -> bool {
        self.model_1d.is_some()
    }

    /// Injects deterministic faults into matching sessions (supervision
    /// tests and `dlpic-serve --inject`).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Builds the solver stack for `spec` on `backend` and returns it as
    /// a steppable [`Session`] positioned before the first step — the
    /// incremental primitive behind [`Self::run`].
    pub fn start(&self, spec: &ScenarioSpec, backend: Backend) -> Result<Session, EngineError> {
        spec.validate()?;
        backend.supports(spec)?;
        // Clock from before the build: wall_seconds includes solver-stack
        // construction, matching the pre-session Engine::run.
        // analyze:allow(no-wallclock-in-engine): feeds only the wall_seconds diagnostic in RunSummary, never simulation state — checkpoints exclude it
        let started = std::time::Instant::now();
        let n = &self.numerics_1d;
        let inner: Box<dyn BackendSession> = match backend {
            Backend::Traditional1D => Box::new(Pic1DSession::new(
                spec,
                Box::new(TraditionalSolver::new(n.deposit_shape, n.poisson, 1.0)),
                n.gather_shape,
            )),
            Backend::Dl1D => Box::new(Pic1DSession::new(
                spec,
                Box::new(self.model_1d(spec)?.solver()),
                n.gather_shape,
            )),
            Backend::Traditional2D => Box::new(Pic2DSession::new(
                spec,
                Box::new(TraditionalSolver2D::default_config()),
            )),
            Backend::Dl2D => Box::new(Pic2DSession::new(
                spec,
                Box::new(self.model_2d(spec)?.solver()),
            )),
            Backend::Vlasov => Box::new(VlasovSession::new(spec)),
            Backend::Ddecomp { n_ranks } => {
                Box::new(DdecompSession::new(spec, n_ranks, self.numerics_1d)?)
            }
        };
        let inner = self.faults.wrap(&spec.name, inner);
        Ok(Session::new(spec.clone(), backend, inner, started))
    }

    /// Rebuilds a session from a [`Checkpoint`] (the solver stack is
    /// reconstructed from the embedded spec, then the mutable state and
    /// recorded history are restored) and returns it ready to continue.
    /// For deterministic solvers the resumed trajectory is bit-identical
    /// to the uninterrupted run.
    pub fn resume(&self, checkpoint: &Checkpoint) -> Result<Session, EngineError> {
        let mut session = self.start(&checkpoint.spec, checkpoint.backend)?;
        session.restore(checkpoint)?;
        Ok(session)
    }

    /// Starts one session per spec and returns them as an [`Ensemble`] —
    /// the fleet primitive: lockstep waves, batched DL inference within
    /// each wave, multi-core [`Ensemble::run_to_end`]. All sessions are
    /// built by this engine, so every DL session of a dimension shares
    /// the engine's (single) model — the invariant cohort batching needs.
    pub fn start_ensemble(
        &self,
        specs: &[ScenarioSpec],
        backend: Backend,
    ) -> Result<Ensemble, EngineError> {
        let sessions = specs
            .iter()
            .map(|spec| self.start(spec, backend))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ensemble::new(sessions))
    }

    /// Expands a [`SweepSpec`] (parameter grid × seed fan) and starts the
    /// resulting fleet — `start_ensemble` over [`SweepSpec::specs`].
    pub fn start_sweep(
        &self,
        sweep: &SweepSpec,
        backend: Backend,
    ) -> Result<Ensemble, EngineError> {
        self.start_ensemble(&sweep.specs()?, backend)
    }

    /// Rebuilds a fleet from per-session checkpoints (the inverse of
    /// [`Ensemble::checkpoints`]); each run resumes bit-identically, and
    /// mixed backends are fine.
    pub fn resume_ensemble(&self, checkpoints: &[Checkpoint]) -> Result<Ensemble, EngineError> {
        let sessions = checkpoints
            .iter()
            .map(|c| self.resume(c))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Ensemble::new(sessions))
    }

    /// Runs a registry scenario by name.
    pub fn run_named(
        &mut self,
        name: &str,
        scale: Scale,
        backend: Backend,
    ) -> Result<RunSummary, EngineError> {
        let spec = super::registry::scenario(name, scale)?;
        self.run(&spec, backend)
    }

    /// Runs a scenario on a backend to completion: a thin wrapper that
    /// starts a [`Session`], lends it the engine's observers, steps it to
    /// `n_steps` and finishes it.
    pub fn run(
        &mut self,
        spec: &ScenarioSpec,
        backend: Backend,
    ) -> Result<RunSummary, EngineError> {
        let mut session = self.start(spec, backend)?;
        session.attach_observers(std::mem::take(&mut self.observers));
        session.run_to_end();
        let (summary, observers) = session.finish_detach();
        self.observers = observers;
        Ok(summary)
    }

    /// How a DL session for this spec × backend stores its weights under
    /// the current configuration: `Some((fingerprint, bytes))` means
    /// sessions with equal fingerprints read **one** `bytes`-sized shared
    /// allocation (charge it once per distinct fingerprint); `None` means
    /// the backend carries no model. This is the accounting contract the
    /// serve tier's budget admission keys on.
    pub fn weight_profile(&self, spec: &ScenarioSpec, backend: Backend) -> Option<(String, usize)> {
        self.weight_profiler().profile(spec, backend)
    }

    /// A `Send + Sync` snapshot of the engine's weight-sharing
    /// configuration, answering [`Self::weight_profile`] without the
    /// engine — the serve tier's request handlers hold one while the
    /// scheduler thread owns the engine itself. The snapshot is taken at
    /// configuration time and stays valid because models and registry
    /// attachment are builder-time decisions.
    pub fn weight_profiler(&self) -> WeightProfiler {
        WeightProfiler {
            model_1d_bytes: self.model_1d.as_ref().map(|m| match m {
                Ok(frozen) => frozen.weight_bytes(),
                // Undecodable: sessions fail to build; charge the nominal size.
                Err(bundle) => bundle.arch.param_count() * 4,
            }),
            has_registry: self.registry.is_some(),
        }
    }

    /// The frozen model a `Dl1D` session runs: the configured bundle,
    /// else the registry's, else the shared untrained fallback.
    fn model_1d(&self, spec: &ScenarioSpec) -> Result<FrozenBundle, EngineError> {
        let arch = dl::default_arch(spec, Backend::Dl1D).expect("Dl1D has a default network");
        let ncells = spec.domain.cells();
        let output = match &self.model_1d {
            Some(Ok(frozen)) => frozen.output_len(),
            Some(Err(bundle)) => bundle.arch.output_len(),
            None => arch.output_len(),
        };
        if output != ncells {
            return Err(EngineError::Incompatible {
                scenario: spec.name.clone(),
                backend: Backend::Dl1D.name(),
                why: format!("DL solver predicts {output} cells but the domain has {ncells}"),
            });
        }
        match &self.model_1d {
            Some(Ok(frozen)) => Ok(frozen.clone()),
            // Undecodable parameters: freezing again re-raises the decode
            // error.
            Some(Err(bundle)) => Ok(bundle.freeze()?),
            None => match &self.registry {
                Some(registry) => lock(registry).model_1d(spec),
                None => Ok(cached(&self.untrained_1d, spec.scale, || {
                    FrozenBundle::from_network(
                        &arch.build(UNTRAINED_SEED),
                        &arch,
                        spec.scale.phase_spec(),
                        BinningShape::Ngp,
                        NormStats::identity(),
                        "dl-mlp-untrained",
                        Precision::F32,
                    )
                })),
            },
        }
    }

    /// The frozen model a `Dl2D` session runs: the registry's, else the
    /// shared untrained fallback for this grid.
    fn model_2d(&self, spec: &ScenarioSpec) -> Result<Frozen2DModel, EngineError> {
        if let Some(registry) = &self.registry {
            return lock(registry).model_2d(spec);
        }
        let key = (spec.scale, spec.domain.cells());
        Ok(cached(&self.untrained_2d, key, || {
            let arch = dl::default_arch(spec, Backend::Dl2D).expect("Dl2D has a default network");
            Frozen2DModel::from_network(
                &arch.build(UNTRAINED_SEED),
                BinningShape::Ngp,
                NormStats::identity(),
                0.0,
                "dl-2d-mlp-untrained",
                Precision::F32,
            )
        }))
    }
}

/// A detached snapshot of an engine's weight-sharing configuration (see
/// [`Engine::weight_profiler`]): answers "which sessions share one weight
/// allocation, and how big is it" for any spec × backend, without holding
/// the engine.
#[derive(Debug, Clone)]
pub struct WeightProfiler {
    model_1d_bytes: Option<usize>,
    has_registry: bool,
}

impl WeightProfiler {
    /// See [`Engine::weight_profile`] for the `Some((fingerprint,
    /// bytes))` contract.
    pub fn profile(&self, spec: &ScenarioSpec, backend: Backend) -> Option<(String, usize)> {
        let bytes = dl::default_arch(spec, backend)?.param_count() * 4;
        let key = match backend {
            Backend::Dl1D => {
                if let Some(bytes) = self.model_1d_bytes {
                    return Some(("dl1d|model".to_string(), bytes));
                }
                if self.has_registry {
                    format!("dl1d|reg|{}|{:?}|{}", spec.name, spec.scale, spec.seed)
                } else {
                    format!("dl1d|untrained|{:?}", spec.scale)
                }
            }
            // `Dl2D`, the only other backend with a network.
            _ => {
                let nodes = spec.domain.cells();
                if self.has_registry {
                    format!(
                        "dl2d|reg|{}|{:?}|{}|{}",
                        spec.name, spec.scale, spec.seed, nodes
                    )
                } else {
                    format!("dl2d|untrained|{:?}|{}", spec.scale, nodes)
                }
            }
        };
        Some((key, bytes))
    }
}

/// One-shot convenience: runs `spec` on `backend` with no observers and no
/// trained models (DL backends fall back to untrained networks).
pub fn run(spec: &ScenarioSpec, backend: Backend) -> Result<RunSummary, EngineError> {
    Engine::new().run(spec, backend)
}

/// One-shot convenience: runs a registry scenario by name.
pub fn run_scenario(name: &str, scale: Scale, backend: Backend) -> Result<RunSummary, EngineError> {
    Engine::new().run_named(name, scale, backend)
}

/// One-shot convenience: starts a session with no observers and no
/// trained models (the free-function form of [`Engine::start`]).
pub fn start(spec: &ScenarioSpec, backend: Backend) -> Result<Session, EngineError> {
    Engine::new().start(spec, backend)
}
