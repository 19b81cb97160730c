//! The fleet workloads (`gemm_fleet`, `paper_fleet`) and the fleet
//! ledger every traced run reports.
//!
//! A fleet "job" is one repetition of the workload's fleets: build the
//! ensembles, `Ensemble::run_to_end(nproc)` each, finish them. Its
//! latency is what a caller of the ensemble API waits for.

use std::time::{Duration, Instant};

use dlpic_repro::core::{ModelBundle, Scale};
use dlpic_repro::engine::json::{obj, Json};
use dlpic_repro::engine::{
    self, Backend, DomainSpec, EnergyHistory, Engine, Ensemble, LoadingSpec, Numerics1D,
    RunSummary, ScenarioSpec, Session,
};
use dlpic_repro::pic::grid::Grid1D;
use dlpic_repro::pic::init::TwoStreamInit;
use dlpic_repro::pic::simulation::{PicConfig, Simulation};

use crate::model;
use crate::report::Outcome;
use crate::schedule::derive;
use crate::stats::{median, quantile};
use crate::trace::{traced_waves, Tracer};
use crate::Args;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
/// Timed repetitions per run at the least, however short `--seconds`.
const MIN_REPS: usize = 3;
/// Untraced/traced pass pairs in the ledger; its figures are medians or
/// totals over them.
const LEDGER_REPS: usize = 3;

/// One fleet of a workload: a backend and its runs.
pub struct Plan {
    pub backend: Backend,
    pub specs: Vec<ScenarioSpec>,
}

fn session_steps(plans: &[Plan]) -> usize {
    plans.iter().flat_map(|p| &p.specs).map(|s| s.n_steps).sum()
}

fn run_count(plans: &[Plan]) -> usize {
    plans.iter().map(|p| p.specs.len()).sum()
}

/// The paper's validation two-stream case (v₀ = ±0.2, v_th = 0.025) at
/// paper scale, with the given particles per cell, steps and seed.
pub fn two_stream(ppc: usize, steps: usize, seed: u64) -> ScenarioSpec {
    let mut spec = engine::scenario("two_stream", Scale::Paper).expect("two_stream is registered");
    spec.ppc = ppc;
    spec.n_steps = steps;
    spec.seed = seed;
    spec.name = format!("two_stream[ppc={ppc},seed={seed}]");
    spec
}

/// The fleets of `workload` at repetition `rep`, seeded from the
/// workload seed. For `serve_open` these are the daemon's session mix
/// (its DL sweeps and traditional runs), which its traced run puts
/// through the ledger.
pub fn plans(workload: &str, seed: u64, rep: u64) -> Vec<Plan> {
    let fan = |fleet: u64, n: u64, ppc: usize, steps: usize| -> Vec<ScenarioSpec> {
        (0..n)
            .map(|i| {
                two_stream(
                    ppc,
                    steps,
                    derive(seed, (rep << 16) | (fleet << 8) | i) >> 12,
                )
            })
            .collect()
    };
    let plan = |backend, specs| Plan { backend, specs };
    match workload {
        "gemm_fleet" => vec![plan(Backend::Dl1D, fan(0, 16, 50, 200))],
        "paper_fleet" => vec![
            plan(Backend::Dl1D, fan(0, 8, 1000, 200)),
            plan(Backend::Traditional1D, fan(1, 8, 1000, 200)),
        ],
        "serve_open" => vec![
            plan(Backend::Dl1D, fan(0, 16, 50, crate::serve::DL_STEPS)),
            plan(
                Backend::Traditional1D,
                fan(1, 4, 1000, crate::serve::TRAD_STEPS),
            ),
        ],
        other => panic!("no fleet plan for workload {other}"),
    }
}

fn build(engine: &Engine, plans: &[Plan]) -> Result<Vec<Ensemble>, String> {
    plans
        .iter()
        .map(|p| {
            engine
                .start_ensemble(&p.specs, p.backend)
                .map_err(|e| format!("building a {} fleet: {e}", p.backend))
        })
        .collect()
}

/// A finished fleet: its summaries and the runs that faulted.
struct Finished {
    backend: Backend,
    summaries: Vec<RunSummary>,
    faults: Vec<(usize, String)>,
}

fn finish(backend: Backend, ens: Ensemble) -> Finished {
    let faults = ens
        .faults()
        .iter()
        .map(|(i, f)| (*i, f.to_string()))
        .collect();
    Finished {
        backend,
        summaries: ens.finish(),
        faults,
    }
}

/// One check per run: it did not fault, and a DL run kept its total
/// energy in the 0.3–4× band.
fn check_runs(out: &mut Outcome, done: &Finished) {
    for (i, s) in done.summaries.iter().enumerate() {
        let fault = done.faults.iter().find(|(j, _)| *j == i);
        let in_band = done.backend != Backend::Dl1D || model::energy_in_band(&s.history);
        out.check(fault.is_none() && in_band, || match fault {
            Some((_, f)) => format!("{} {} faulted: {f}", done.backend, s.scenario),
            None => format!(
                "{} {} left the 0.3-4x energy band (variation {:.3})",
                done.backend,
                s.scenario,
                model::energy_variation(&s.history)
            ),
        });
    }
}

fn domain_length(spec: &ScenarioSpec) -> f64 {
    match spec.domain {
        DomainSpec::OneD { length, .. } => length,
        DomainSpec::TwoD { .. } => f64::NAN,
    }
}

/// Trains `SETUP_REPEATS` times (it is seeded, so every set-up must yield
/// the same parameters), builds the first fleets after each, and keeps
/// the last engine and fleets.
fn setup(
    out: &mut Outcome,
    plans0: &[Plan],
) -> Result<(ModelBundle, Engine, Vec<Ensemble>), String> {
    let sessions = run_count(plans0) as f64;
    let (mut total, mut gen, mut trn, mut builds) = (vec![], vec![], vec![], vec![]);
    let mut first: Option<Vec<u8>> = None;
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let t0 = Instant::now();
        let trained = model::train_paper_mlp();
        let engine = Engine::new().with_model_1d(trained.bundle.clone());
        let tb = Instant::now();
        let fleets = build(&engine, plans0)?;
        builds.push(tb.elapsed().as_secs_f64() * 1e3 / sessions);
        total.push(t0.elapsed().as_secs_f64());
        gen.push(trained.generate_s);
        trn.push(trained.train_s);
        let params = trained.bundle.encode();
        match &first {
            None => first = Some(params),
            Some(p) => out.check(*p == params, || "two seeded trainings differ".into()),
        }
        kept = Some((trained.bundle, engine, fleets));
        crate::progress("set-up done");
    }
    out.metric("setup_s", median(&total));
    out.metric("dataset.generate_s", median(&gen));
    out.metric("nn.train_s", median(&trn));
    out.metric("engine.build_ms_per_session", median(&builds));
    Ok(kept.expect("at least one set-up"))
}

/// Runs the set-up fleets untimed and checks them: every run faultless
/// and in band, and a sample of runs bit-identical to solo `Engine::run`.
fn verify(
    out: &mut Outcome,
    engine: &mut Engine,
    plans: &[Plan],
    fleets: Vec<Ensemble>,
    threads: usize,
) -> Result<(), String> {
    for (plan, mut ens) in plans.iter().zip(fleets) {
        ens.run_to_end(threads);
        let done = finish(plan.backend, ens);
        check_runs(out, &done);
        let n = done.summaries.len();
        let mut sample = vec![0, n / 2, n - 1];
        sample.dedup();
        for i in sample {
            let solo = engine
                .run(&plan.specs[i], plan.backend)
                .map_err(|e| format!("solo run: {e}"))?;
            out.check(solo.history == done.summaries[i].history, || {
                format!(
                    "{} {} differs from its solo Engine::run",
                    plan.backend, plan.specs[i].name
                )
            });
        }
        if plan.backend == Backend::Dl1D {
            let length = domain_length(&plan.specs[0]);
            let variation = done
                .summaries
                .iter()
                .map(|s| model::energy_variation(&s.history))
                .fold(0.0, f64::max);
            let e_rms: Vec<f64> = done
                .summaries
                .iter()
                .map(|s| model::final_e_rms(&s.history, length))
                .collect();
            out.fact("dl_energy_variation_max", Json::Num(variation));
            out.fact("dl_final_e_rms_median", Json::Num(median(&e_rms)));
            out.fact("dl_model_trained", Json::Bool(engine.has_model_1d()));
        }
    }
    Ok(())
}

/// The timed repetitions: fresh seeded fleets until `seconds` have
/// passed, each checked after its clock stops.
fn timed(out: &mut Outcome, engine: &Engine, args: &Args, threads: usize) -> Result<(), String> {
    let start = Instant::now();
    let (mut rates, mut latency, mut jobs) = (vec![], vec![], vec![]);
    let budget = Duration::from_secs_f64(args.seconds);
    for rep in 1u64.. {
        if rates.len() >= MIN_REPS {
            // Start another repetition only while it is expected to end in time.
            let elapsed = start.elapsed();
            if elapsed + elapsed / rates.len() as u32 > budget {
                break;
            }
        }
        let plans = plans(&args.workload, args.seed, rep);
        let t0 = Instant::now();
        let mut fleets = build(engine, &plans)?;
        let mut run_s = 0.0;
        for ens in &mut fleets {
            let t = Instant::now();
            ens.run_to_end(threads);
            run_s += t.elapsed().as_secs_f64();
        }
        let done: Vec<Finished> = plans
            .iter()
            .zip(fleets)
            .map(|(p, ens)| finish(p.backend, ens))
            .collect();
        let job_s = t0.elapsed().as_secs_f64();
        for d in &done {
            check_runs(out, d);
        }
        rates.push(session_steps(&plans) as f64 / run_s);
        latency.push(job_s * 1e3);
        jobs.push(run_count(&plans) as f64 / job_s);
    }
    crate::progress("timed repetitions done");
    out.metric("session_steps_per_s", median(&rates));
    out.metric("job_latency_p50_ms", median(&latency));
    out.metric("job_latency_p90_ms", quantile(&latency, 0.9));
    out.metric("jobs_per_s", median(&jobs));
    out.fact("timed_repetitions", Json::Num(rates.len() as f64));
    out.fact("session_steps_per_s_all", Json::num_arr(&rates));
    Ok(())
}

/// Runs fresh fleets untimed-but-clocked on `threads` workers; returns
/// the seconds spent in `run_to_end` and every run's history.
fn untraced(
    out: &mut Outcome,
    engine: &Engine,
    plans: &[Plan],
    threads: usize,
) -> Result<(f64, Vec<EnergyHistory>), String> {
    let mut secs = 0.0;
    let mut histories = Vec::new();
    for (plan, mut ens) in plans.iter().zip(build(engine, plans)?) {
        let t = Instant::now();
        ens.run_to_end(threads);
        secs += t.elapsed().as_secs_f64();
        let done = finish(plan.backend, ens);
        check_runs(out, &done);
        histories.extend(done.summaries.into_iter().map(|s| s.history));
    }
    Ok((secs, histories))
}

/// The fleet ledger: the workload's fleets once untraced on 1 and on
/// nproc threads, then traced wave by wave on one thread, whose histories
/// must equal the untraced ones; plus the split of `prepare` into the
/// `pic` push and `core` binning on a simulation of the same bundle.
pub fn ledger(
    out: &mut Outcome,
    engine: &Engine,
    bundle: &ModelBundle,
    workload: &str,
    seed: u64,
    threads: usize,
) -> Result<Tracer, String> {
    let plans = plans(workload, seed, 1);
    let steps = session_steps(&plans) as f64;
    let mut tracer = Tracer::new(Instant::now());
    let (mut t1, mut tn, mut traced) = (vec![], vec![], vec![]);
    let mut reference = EnergyHistory::default();
    // Alternate the untraced and traced passes, so that machine drift
    // during the ledger hits both sides of the overhead ratio alike.
    for _ in 0..LEDGER_REPS {
        let (secs, mut plain) = untraced(out, engine, &plans, 1)?;
        t1.push(secs);
        tn.push(untraced(out, engine, &plans, threads)?.0);
        let mut secs = 0.0;
        let mut histories = Vec::new();
        for plan in &plans {
            let mut sessions = plan
                .specs
                .iter()
                .map(|s| engine.start(s, plan.backend))
                .collect::<Result<Vec<Session>, _>>()
                .map_err(|e| format!("starting a traced session: {e}"))?;
            let t = Instant::now();
            traced_waves(&mut sessions, histories.len(), &mut tracer);
            secs += t.elapsed().as_secs_f64();
            histories.extend(sessions.into_iter().map(|s| s.finish().history));
        }
        traced.push(secs);
        for (i, (a, b)) in histories.iter().zip(&plain).enumerate() {
            out.check(a == b, || {
                format!("traced run {i} differs from the untraced ensemble")
            });
        }
        // Every workload's first fleet is its DL fleet.
        reference = plain.swap_remove(0);
    }
    crate::progress("ledger: untraced and traced passes done");
    let (t1, tn, traced) = (median(&t1), median(&tn), median(&traced));

    let ms = |name: &str| {
        let (n, secs, _) = tracer.totals(name);
        secs * 1e3 / n.max(1) as f64
    };
    let (infers, infer_s, rows) = tracer.totals("nn.infer");
    out.metric("engine.session_steps_per_s_1t", steps / t1);
    out.metric("pool.parallel_efficiency", t1 / (threads as f64 * tn));
    out.metric("engine.trace_overhead", traced / t1 - 1.0);
    out.metric(
        "engine.unaccounted_share",
        tracer.unaccounted_share("engine.wave"),
    );
    out.metric("engine.wave_ms", ms("engine.wave"));
    out.metric("engine.prepare_ms_per_row", ms("engine.prepare"));
    out.metric("engine.apply_ms_per_row", ms("engine.apply"));
    out.metric("nn.infer_ms_per_wave", ms("nn.infer"));
    out.metric("nn.rows_per_infer", rows as f64 / infers.max(1) as f64);
    out.metric(
        "nn.infer_gflops",
        model::flops_per_row() * rows as f64 / infer_s / 1e9,
    );

    let dl = &plans[0];
    if dl.backend != Backend::Dl1D {
        return Err("the ledger expects the DL fleet first".into());
    }
    let (push_ms, bin_ms) = split_prepare(out, bundle, &dl.specs[0], &reference)?;
    out.metric("pic.push_ms_per_row", push_ms);
    out.metric("core.bin_ms_per_row", bin_ms);
    let trad_ms = if tracer.totals("engine.step").0 > 0 {
        ms("engine.step")
    } else {
        trad_step_ms(engine, &dl.specs[0])?
    };
    out.metric("pic.trad_step_ms", trad_ms);
    out.fact("ledger_threads", Json::Num(threads as f64));
    Ok(tracer)
}

/// Times `Simulation::step_pre_solve` (the `pic` push and diagnostics)
/// and `PhasedFieldSolver::prepare_input` (`core` binning, mass rescale
/// and normalisation) on a simulation built from `bundle` for `spec`,
/// and checks its momentum history equals the engine session's.
fn split_prepare(
    out: &mut Outcome,
    bundle: &ModelBundle,
    spec: &ScenarioSpec,
    reference: &EnergyHistory,
) -> Result<(f64, f64), String> {
    let DomainSpec::OneD { ncells, length } = spec.domain else {
        return Err("the probe needs a 1-D domain".into());
    };
    if !matches!(spec.loading, LoadingSpec::Random) {
        return Err("the probe loads particles at random, as two_stream does".into());
    }
    let (v0, vth) = spec
        .species
        .as_two_stream()
        .ok_or("the probe needs a two-stream species")?;
    let frozen = bundle.freeze().map_err(|e| e.to_string())?;
    let grid = Grid1D::new(ncells, length);
    let particles = TwoStreamInit::random(v0, vth, spec.n_particles(), spec.seed).build(&grid);
    let cfg = PicConfig {
        grid,
        init: None,
        dt: spec.dt,
        n_steps: spec.n_steps,
        gather_shape: Numerics1D::default().gather_shape,
        tracked_modes: spec.tracked_modes.clone(),
    };
    let mut sim = Simulation::from_particles(cfg, particles, Box::new(frozen.solver()));
    let mut row = vec![0.0f32; frozen.spec().cells()];
    let mut field = vec![0.0f32; ncells];
    let (mut push, mut bin) = (0.0, 0.0);
    for _ in 0..spec.n_steps {
        let t0 = Instant::now();
        sim.step_pre_solve();
        let t1 = Instant::now();
        let (solver, particles, grid, e) = sim.split_for_solve();
        let phased = solver.phased().ok_or("the DL solver splits its solve")?;
        phased.prepare_input(particles, grid, &mut row);
        let t2 = Instant::now();
        phased.infer_batch(&row, 1, &mut field);
        phased.apply_output(&field, e);
        sim.step_post_solve();
        push += (t1 - t0).as_secs_f64();
        bin += (t2 - t1).as_secs_f64();
    }
    let momentum = sim.history().momentum_series("probe").values;
    out.check(momentum[..] == reference.momentum[..spec.n_steps], || {
        "the split-prepare probe diverged from the engine session".into()
    });
    let n = spec.n_steps as f64;
    Ok((push * 1e3 / n, bin * 1e3 / n))
}

/// Mean `Session::step` of a traditional run of `spec` (the workloads
/// without a traditional fleet).
fn trad_step_ms(engine: &Engine, spec: &ScenarioSpec) -> Result<f64, String> {
    let mut session = engine
        .start(spec, Backend::Traditional1D)
        .map_err(|e| format!("traditional probe: {e}"))?;
    let t = Instant::now();
    session.run_to_end();
    Ok(t.elapsed().as_secs_f64() * 1e3 / spec.n_steps as f64)
}

/// The `gemm_fleet` and `paper_fleet` workloads.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = dlpic_repro::core::pool::available_threads();
    let plans0 = plans(&args.workload, args.seed, 0);
    let (bundle, mut engine, fleets) = setup(&mut out, &plans0)?;
    crate::reset_peak_rss(&mut out);
    verify(&mut out, &mut engine, &plans0, fleets, threads)?;
    crate::progress("verified");
    if args.trace {
        let mut tracer = ledger(
            &mut out,
            &engine,
            &bundle,
            &args.workload,
            args.seed,
            threads,
        )?;
        let serve_spans = crate::serve::layer_probe(&mut out, &bundle, args.seed)?;
        tracer.absorb(serve_spans);
        crate::write_trace(args, &tracer);
    } else {
        timed(&mut out, &engine, args, threads)?;
    }
    out.metric("peak_rss_mb", crate::peak_rss_mb());
    out.fact(
        "fleets",
        Json::Arr(
            plans0
                .iter()
                .map(|p| {
                    obj(vec![
                        ("backend", Json::Str(p.backend.to_string())),
                        ("runs", Json::Num(p.specs.len() as f64)),
                        ("ppc", Json::Num(p.specs[0].ppc as f64)),
                        ("steps", Json::Num(p.specs[0].n_steps as f64)),
                    ])
                })
                .collect(),
        ),
    );
    Ok(out)
}
