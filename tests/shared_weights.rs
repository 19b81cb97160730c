//! Shared-weight fleet contracts (the Arc-frozen-model perf story):
//!
//! * every DL session in a fleet reports the **same** weight-storage id —
//!   one allocation serves N sessions, and `Ensemble::weight_footprint`
//!   charges it once;
//! * a fleet running a quick-trained bundle is bit-identical to solo runs
//!   at 1 and 3 worker threads, and survives checkpoint/resume — and so is
//!   a CNN fleet, which shares one weight allocation like the MLP;
//! * checkpoints serialize solver *state*, never weights — resuming a
//!   16-run fleet must not inflate into 16 private weight copies on disk;
//! * the model registry trains once per (scenario, scale, seed), shares
//!   one `Arc` across engines, rejects arch-mismatched hits with a
//!   structured error naming both shapes, LRU-evicts by bytes and
//!   releases everything on `prune` — for 2-D models too, where the
//!   mismatch error names both node counts;
//! * bf16 weight storage is an accuracy contract, not a bit-identity one:
//!   the two-stream growth rate stays within tolerance of f32 and the
//!   bf16 run itself is bit-exactly deterministic across repeats.

use std::sync::{Arc, OnceLock};

use dlpic_repro::analytics::fit::{fit_growth_rate, GrowthFitOptions};
use dlpic_repro::core::{BinningShape, ModelBundle, NormStats, Scale};
use dlpic_repro::engine::{
    self, dl, Backend, DomainSpec, EnergyHistory, Engine, EngineError, ModelRegistry,
};
use dlpic_repro::nn::Precision;

/// One quick-trained smoke bundle shared by every test in this file:
/// training dominates debug-mode runtime, so pay for it once.
fn trained_smoke_bundle() -> &'static ModelBundle {
    static BUNDLE: OnceLock<ModelBundle> = OnceLock::new();
    // Seed 42 matches the ensemble bench's bf16 physics check — a smoke
    // model known to resolve the two-stream growth phase.
    BUNDLE.get_or_init(|| dl::quick_train_1d(Scale::Smoke, 42))
}

/// A smoke two-stream fan with per-run seeds and a short step budget.
fn fan(scenario: &str, n_steps: usize, seeds: &[u64]) -> Vec<engine::ScenarioSpec> {
    seeds
        .iter()
        .map(|&seed| {
            let mut spec = engine::scenario(scenario, Scale::Smoke).expect("registry");
            spec.n_steps = n_steps;
            spec.seed = seed;
            spec.name = format!("{scenario}[seed={seed}]");
            spec
        })
        .collect()
}

/// Mode-1 growth rate of a smoke two-stream run under `bundle`. The
/// smoke model's field-noise floor keeps the amplitude within one
/// decade, so fit the full rise up to the peak instead of the default
/// 2%..50% window (identically for both precisions).
fn two_stream_growth(bundle: ModelBundle) -> f64 {
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.ppc = 200;
    spec.n_steps = 150;
    let summary = Engine::new()
        .with_model_1d(bundle)
        .run(&spec, Backend::Dl1D)
        .expect("two-stream smoke run");
    let s = summary.history.mode_series(1).expect("mode 1 tracked");
    let opts = GrowthFitOptions {
        lo_frac: 0.0,
        hi_frac: 1.0,
        min_points: 5,
    };
    fit_growth_rate(&s.times, &s.values, opts)
        .expect("mode-1 growth fit")
        .gamma
}

#[test]
fn fleet_sessions_share_one_weight_allocation() {
    // Untrained shared path, both DL dimensions: every session in the
    // fleet must point at the same frozen allocation (equal storage ids),
    // and the ensemble's deduped footprint must equal one copy.
    for (scenario, backend) in [
        ("two_stream", Backend::Dl1D),
        ("two_stream_2d", Backend::Dl2D),
    ] {
        let specs = fan(scenario, 4, &[1, 2, 3, 4]);
        let engine = Engine::new();
        let ensemble = engine
            .start_ensemble(&specs, backend)
            .expect("start ensemble");

        let storages: Vec<(usize, usize)> = ensemble
            .sessions()
            .iter()
            .map(|s| s.weight_storage().expect("DL session reports weights"))
            .collect();
        let (id0, bytes0) = storages[0];
        assert!(bytes0 > 0, "{scenario}: weight bytes");
        for (i, &(id, bytes)) in storages.iter().enumerate() {
            assert_eq!(
                id, id0,
                "{scenario}: session {i} owns a private weight copy"
            );
            assert_eq!(bytes, bytes0, "{scenario}: session {i} weight bytes differ");
        }

        let (distinct, deduped) = ensemble.weight_footprint();
        assert_eq!(distinct, 1, "{scenario}: fleet should hold one model");
        assert_eq!(
            deduped, bytes0,
            "{scenario}: deduped footprint must be exactly one copy"
        );
    }
}

#[test]
fn trained_fleet_is_bit_identical_to_solo_and_shares_weights() {
    let bundle = trained_smoke_bundle();
    let specs = fan("two_stream", 12, &[11, 12, 13]);

    let solo: Vec<EnergyHistory> = specs
        .iter()
        .map(|spec| {
            Engine::new()
                .with_model_1d(bundle.clone())
                .run(spec, Backend::Dl1D)
                .expect("solo run")
                .history
        })
        .collect();

    for threads in [1usize, 3] {
        let engine = Engine::new().with_model_1d(bundle.clone());
        let mut ensemble = engine
            .start_ensemble(&specs, Backend::Dl1D)
            .expect("start ensemble");

        // Sharing first: one allocation across the trained fleet too.
        let (distinct, deduped) = ensemble.weight_footprint();
        assert_eq!(distinct, 1, "trained fleet should hold one model");
        let frozen = bundle.freeze().expect("freeze");
        assert_eq!(deduped, frozen.weight_bytes());

        ensemble.run_to_end(threads);
        assert!(ensemble.is_complete());
        let histories: Vec<EnergyHistory> =
            ensemble.finish().into_iter().map(|s| s.history).collect();
        assert_eq!(histories.len(), solo.len());
        for (i, (got, want)) in histories.iter().zip(&solo).enumerate() {
            // EnergyHistory PartialEq compares every f64 series exactly.
            assert_eq!(got, want, "threads={threads}: run {i} differs from solo");
        }
    }
}

#[test]
fn cnn_fleet_shares_one_allocation_and_is_bit_identical_to_solo() {
    // The CNN freezes like the MLP: an explicit CNN bundle gives every
    // fleet session the same weight storage, and the cohort-batched
    // conv inference reproduces solo runs bit for bit.
    let scale = Scale::Smoke;
    let arch = scale.cnn_arch();
    let mut net = arch.build(5);
    let weight_bytes = net.param_count() * 4;
    let norm = NormStats {
        min: 0.0,
        max: 300.0,
    };
    let bundle =
        ModelBundle::from_network(&mut net, arch, scale.phase_spec(), BinningShape::Ngp, norm);
    let specs = fan("two_stream", 12, &[21, 22, 23]);

    let solo: Vec<EnergyHistory> = specs
        .iter()
        .map(|spec| {
            Engine::new()
                .with_model_1d(bundle.clone())
                .run(spec, Backend::Dl1D)
                .expect("solo run")
                .history
        })
        .collect();

    for threads in [1usize, 3] {
        let engine = Engine::new().with_model_1d(bundle.clone());
        let mut ensemble = engine
            .start_ensemble(&specs, Backend::Dl1D)
            .expect("start ensemble");
        let ids: Vec<usize> = ensemble
            .sessions()
            .iter()
            .map(|s| s.weight_storage().expect("DL session reports weights").0)
            .collect();
        assert!(
            ids.iter().all(|&id| id == ids[0]),
            "CNN sessions hold private weight copies: {ids:?}"
        );
        assert_eq!(ensemble.weight_footprint(), (1, weight_bytes));

        ensemble.run_to_end(threads);
        let histories: Vec<EnergyHistory> =
            ensemble.finish().into_iter().map(|s| s.history).collect();
        assert_eq!(histories.len(), solo.len());
        for (i, (got, want)) in histories.iter().zip(&solo).enumerate() {
            assert_eq!(
                got, want,
                "threads={threads}: CNN run {i} differs from solo"
            );
        }
    }
}

#[test]
fn checkpoints_carry_no_weights_and_resume_bit_identical() {
    let bundle = trained_smoke_bundle();
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.ppc = 8; // small particle state so JSON size reflects state, not weights
    spec.n_steps = 10;

    let engine = Engine::new().with_model_1d(bundle.clone());
    let mut full = engine.start(&spec, Backend::Dl1D).expect("start");
    full.run_to_end();
    let want = full.history().clone();

    let mut half = engine.start(&spec, Backend::Dl1D).expect("start");
    for _ in 0..5 {
        half.step();
    }
    let ckpt = half.checkpoint();
    let json = ckpt.to_json();

    // The weight contract: a checkpoint rebuilds the solver stack from
    // (spec, backend) and restores mutable state — the network itself is
    // never serialized. N fleet checkpoints must not become N weight
    // copies on disk.
    assert!(!json.contains("\"params\""), "checkpoint serializes params");
    assert!(
        !json.contains("\"weights\""),
        "checkpoint serializes weights"
    );
    let frozen = bundle.freeze().expect("freeze");
    assert!(
        json.len() < frozen.weight_bytes(),
        "checkpoint JSON ({} bytes) is as large as the weights ({} bytes)",
        json.len(),
        frozen.weight_bytes()
    );

    let restored = engine::Checkpoint::from_json(&json).expect("parse checkpoint");
    let mut resumed = engine.resume(&restored).expect("resume");
    resumed.run_to_end();
    assert_eq!(
        resumed.history(),
        &want,
        "resumed run differs from uninterrupted run"
    );
}

#[test]
fn registry_trains_once_and_shares_one_arc_across_engines() {
    let reg = engine::shared_registry(1 << 30);
    let spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");

    let e1 = Engine::new().with_registry(Arc::clone(&reg));
    let s1 = e1.start(&spec, Backend::Dl1D).expect("first session");
    let s2 = e1.start(&spec, Backend::Dl1D).expect("second session");
    let e2 = Engine::new().with_registry(Arc::clone(&reg));
    let s3 = e2
        .start(&spec, Backend::Dl1D)
        .expect("session on second engine");

    let stats = reg.lock().unwrap().stats();
    assert_eq!(stats.misses, 1, "same key must train exactly once");
    assert_eq!(stats.hits, 2, "later sessions must be cache hits");
    assert_eq!(stats.entries, 1);
    assert!(stats.bytes > 0);

    let (id1, bytes1) = s1.weight_storage().expect("weights");
    for (name, s) in [("same-engine", &s2), ("cross-engine", &s3)] {
        let (id, bytes) = s.weight_storage().expect("weights");
        assert_eq!(id, id1, "{name} session owns a private weight copy");
        assert_eq!(bytes, bytes1);
    }

    // Arch-mismatch rejection through the engine path: same registry key,
    // resized domain. The cached model serves 64 field cells; asking for
    // 32 must fail with a structured error naming both shapes.
    let mut resized = spec.clone();
    let DomainSpec::OneD { ncells, length } = resized.domain else {
        panic!("two_stream is 1-D");
    };
    resized.domain = DomainSpec::OneD {
        ncells: ncells / 2,
        length,
    };
    let err = match e1.start(&resized, Backend::Dl1D) {
        Ok(_) => panic!("mismatched domain must be rejected"),
        Err(e) => e,
    };
    let EngineError::Incompatible { why, .. } = &err else {
        panic!("expected Incompatible, got: {err}");
    };
    assert!(
        why.contains(&ncells.to_string()) && why.contains(&(ncells / 2).to_string()),
        "error must name both shapes: {why}"
    );
}

#[test]
fn registry_trains_2d_once_and_rejects_a_resized_grid() {
    let reg = engine::shared_registry(1 << 30);
    let spec = engine::scenario("two_stream_2d", Scale::Smoke).expect("registry");

    let e1 = Engine::new().with_registry(Arc::clone(&reg));
    let e2 = Engine::new().with_registry(Arc::clone(&reg));
    let sessions = [
        e1.start(&spec, Backend::Dl2D).expect("first session"),
        e1.start(&spec, Backend::Dl2D).expect("second session"),
        e2.start(&spec, Backend::Dl2D)
            .expect("session on second engine"),
    ];

    let stats = reg.lock().unwrap().stats();
    assert_eq!(stats.misses, 1, "same key must train exactly once");
    assert_eq!(stats.hits, 2, "later sessions must be cache hits");
    assert_eq!(stats.entries, 1);

    let (id, bytes) = sessions[0].weight_storage().expect("weights");
    assert!(bytes > 0);
    for s in &sessions[1..] {
        assert_eq!(
            s.weight_storage(),
            Some((id, bytes)),
            "a 2-D session owns a private weight copy"
        );
    }

    // A registry hit for a resized grid must fail with a structured error
    // naming both node counts, not hand out a mis-sized network.
    let mut resized = spec.clone();
    let DomainSpec::TwoD { nx, ny, lx, ly } = resized.domain else {
        panic!("two_stream_2d is 2-D");
    };
    resized.domain = DomainSpec::TwoD {
        nx: nx / 2,
        ny,
        lx,
        ly,
    };
    let err = match e2.start(&resized, Backend::Dl2D) {
        Ok(_) => panic!("resized grid must be rejected"),
        Err(e) => e,
    };
    let EngineError::Incompatible { why, .. } = &err else {
        panic!("expected Incompatible, got: {err}");
    };
    assert!(
        why.contains(&(nx * ny).to_string()) && why.contains(&(nx / 2 * ny).to_string()),
        "error must name both node counts: {why}"
    );
}

#[test]
fn registry_lru_evicts_by_bytes_and_prune_releases_everything() {
    // Capacity of one byte: any entry is over budget, but the freshest is
    // never evicted — inserting a second key must drop the first.
    let mut reg = ModelRegistry::new(1);
    let mut spec_a = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec_a.seed = 1;
    let mut spec_b = spec_a.clone();
    spec_b.seed = 2;

    let (bundle_a, frozen_a) = reg.model_1d(&spec_a).expect("train a");
    assert!(
        frozen_a.weight_bytes() > 0,
        "the registry freezes what it trains"
    );
    let stats = reg.stats();
    assert_eq!((stats.misses, stats.entries, stats.evictions), (1, 1, 0));
    assert!(
        stats.bytes > stats.capacity_bytes,
        "a lone over-budget entry stays resident rather than thrashing"
    );

    // Same key again: a hit, same Arc, no retraining.
    let (bundle_a2, _) = reg.model_1d(&spec_a).expect("hit a");
    assert!(Arc::ptr_eq(&bundle_a, &bundle_a2));
    assert_eq!(reg.stats().hits, 1);

    // New key: trains, then LRU pressure evicts the older entry.
    let (bundle_b, _) = reg.model_1d(&spec_b).expect("train b");
    assert!(!Arc::ptr_eq(&bundle_a, &bundle_b));
    let stats = reg.stats();
    assert_eq!((stats.misses, stats.entries, stats.evictions), (2, 1, 1));

    // Eviction released the registry's pin, not the caller's handle.
    assert!(Arc::strong_count(&bundle_a) >= 1);

    let released = reg.prune();
    assert_eq!(released, 1);
    let stats = reg.stats();
    assert_eq!((stats.entries, stats.bytes), (0, 0));
    assert_eq!(stats.evictions, 2);
}

#[test]
fn bf16_growth_rate_within_tolerance_and_deterministic() {
    let bundle = trained_smoke_bundle();

    // Physics tolerance: bf16 weight storage may perturb bits, not the
    // instability. Same contract (and tolerance) as the bench gate.
    let g_f32 = two_stream_growth(bundle.clone());
    let g_bf16 = two_stream_growth(bundle.clone().with_precision(Precision::Bf16));
    assert!(g_f32 > 0.0, "f32 run must show growth (gamma = {g_f32})");
    let rel = ((g_bf16 - g_f32) / g_f32).abs();
    assert!(
        rel < 0.05,
        "bf16 growth rate deviates {:.2}% from f32 ({g_bf16} vs {g_f32})",
        rel * 100.0
    );

    // Reduced precision is still deterministic: repeat runs bit-identical.
    let mut spec = engine::scenario("two_stream", Scale::Smoke).expect("registry");
    spec.n_steps = 40;
    let run = || {
        Engine::new()
            .with_model_1d(bundle.clone().with_precision(Precision::Bf16))
            .run(&spec, Backend::Dl1D)
            .expect("bf16 run")
            .history
    };
    assert_eq!(run(), run(), "bf16 inference must be run-to-run bit-exact");
}
