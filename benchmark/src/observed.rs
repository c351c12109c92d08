//! `observed_runs`: the bottleneck / chaos investigator's path. Per
//! program: build an `Experiment`, run hybrid/4, run it again with the
//! Chrome tracer and interval probes attached, ask for the what-if
//! ceilings (five idealised re-simulations of the same binary), and run
//! it once more on a second `Experiment` under a seeded fault plan. It
//! exercises the tick loop with observers, idealisation knobs and fault
//! hooks *on* — the code `fig_sweep` bypasses entirely.

use crate::common::{timed_run, Args, PassOut, Tally, Timed};
use crate::spans::Recorder;
use crate::staged::{self, Config, Counts, Layers, RunMods};
use crate::stats::Fnv;
use crate::trace::{self, CycleMap, Traced};
use std::time::Instant;
use voltron_bench::harness::DEFAULT_PROBE_PERIOD;
use voltron_compiler::Strategy;
use voltron_core::report::Json;
use voltron_core::{Experiment, FaultPlan, KnobId, ObsRequest};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{all, Scale, Workload};

const CONFIG: Config = (Strategy::Hybrid, 4, CoherenceBackend::Snooping);
/// Operations per program: new, run, observed run, what-if, faulted run.
const STEPS: u64 = 5;

fn obs_request() -> ObsRequest {
    ObsRequest {
        chrome_trace: true,
        probe_period: Some(DEFAULT_PROBE_PERIOD),
    }
}

/// The fault plan of a run: light enough that every program recovers,
/// seeded from `--seed` so another seed strikes other cycles.
fn fault_plan(seed: u64) -> FaultPlan {
    FaultPlan::parse(&format!("seed={},rate=0.002", seed + 6)).expect("a well-formed plan")
}

/// What one pass over the programs produced, beyond timings.
#[derive(Default)]
struct PathOut {
    cycles: CycleMap,
    trace_bytes: u64,
    faults_injected: u64,
    faults_recovered: u64,
}

/// The user path for one program through the real `Experiment`; pushes
/// one latency per completed step.
fn user_path(
    w: &Workload,
    plan: &FaultPlan,
    out: &mut PathOut,
    op_ms: &mut Vec<f64>,
) -> Result<(), String> {
    let (s, c, b) = CONFIG;
    let mut t0 = Instant::now();
    let mut step = |op_ms: &mut Vec<f64>| {
        op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        t0 = Instant::now();
    };
    let key = |what: &str| format!("{}/{what}", w.name);
    let err = |e: voltron_core::SystemError| e.to_string();

    let mut exp = Experiment::new(&w.program).map_err(err)?;
    out.cycles.insert(key("baseline"), exp.baseline_cycles());
    step(op_ms);

    let plain = exp.run_on(s, c, b).map_err(err)?.cycles;
    out.cycles.insert(key("plain"), plain);
    step(op_ms);

    let observed = exp.run_observed_on(s, c, b, &obs_request()).map_err(err)?;
    out.cycles.insert(key("observed"), observed.run.cycles);
    out.trace_bytes += observed.trace_json.len() as u64;
    if observed.run.cycles != plain {
        return Err("the observers changed the cycle count".into());
    }
    step(op_ms);

    let report = exp.whatif_on(s, c, b).map_err(err)?;
    if !report.stack.is_exact() || report.regions.iter().any(|r| !r.stack.is_exact()) {
        return Err("a CycleStack does not sum exactly".into());
    }
    for ceiling in &report.ceilings {
        out.cycles.insert(
            key(&format!("whatif/{}", ceiling.knob.label())),
            ceiling.ideal_cycles,
        );
    }
    step(op_ms);

    let mut chaos = Experiment::new(&w.program).map_err(err)?;
    chaos.set_fault_plan(Some(plan.clone()));
    let faulted = chaos.run_on(s, c, b).map_err(err)?;
    out.cycles.insert(key("faulted"), faulted.cycles);
    out.faults_injected += faulted.stats.faults.injected();
    out.faults_recovered += faulted.stats.faults.recovered();
    step(op_ms);
    Ok(())
}

/// One pass of [`user_path`] over every program, [`STEPS`] operations
/// each; the steps after a failed one count as failed too.
fn direct_pass(ws: &[Workload], plan: &FaultPlan, tally: &mut Tally) -> (PathOut, Vec<f64>, f64) {
    let mut out = PathOut::default();
    let mut op_ms = Vec::new();
    let t0 = Instant::now();
    for w in ws {
        let before = op_ms.len();
        let res = user_path(w, plan, &mut out, &mut op_ms);
        let done = (op_ms.len() - before) as u64;
        tally.ok(done);
        for _ in done..STEPS {
            tally.op(res.clone().map_err(|e| format!("{}: {e}", w.name)));
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    (out, op_ms, wall_s)
}

pub fn run_timed(args: &Args) -> Timed {
    let plan = fault_plan(args.seed);
    timed_run(
        args,
        |_| all(Scale::Test),
        |ws, tally| {
            let (out, op_ms, wall_s) = direct_pass(ws, &plan, tally);
            let mut h = Fnv::default();
            for (k, v) in &out.cycles {
                h.bytes(k.as_bytes());
                h.word(*v);
            }
            h.word(out.trace_bytes);
            h.word(out.faults_injected);
            h.word(out.faults_recovered);
            PassOut {
                wall_s,
                op_ms,
                digest: h.0,
                facts: vec![
                    ("fault_plan".into(), Json::Str(plan.spec())),
                    ("faults_injected".into(), Json::UInt(out.faults_injected)),
                    ("faults_recovered".into(), Json::UInt(out.faults_recovered)),
                    ("trace_json_bytes".into(), Json::UInt(out.trace_bytes)),
                    (
                        "sim_cycles".into(),
                        Json::UInt(out.cycles.values().sum::<u64>()),
                    ),
                ],
            }
        },
    )
    .0
}

/// The same path, staged: every call `Experiment` makes on it, made by
/// the benchmark on one thread under one span each.
fn staged_pass(
    ws: &[Workload],
    plan: &FaultPlan,
    mut rec: Recorder,
    tally: &mut Tally,
) -> (Counts, CycleMap, Vec<Recorder>) {
    let mut counts = Counts::default();
    let mut cycles = CycleMap::new();
    let (s, c, _) = CONFIG;
    rec.span("pass", |rec| {
        for w in ws {
            rec.begin_op(|| format!("observed_runs/{}", w.name));
            let key = |what: &str| format!("{}/{what}", w.name);
            let staged = (|| -> Result<(), String> {
                let run =
                    |rec: &mut Recorder, counts: &mut Counts, fe, golden, mods: &RunMods<'_>| {
                        staged::stage_run(rec, fe, golden, CONFIG, mods, counts)
                    };
                let (golden, base) = staged::stage_experiment_new(rec, &w.program, &mut counts)?;
                cycles.insert(key("baseline"), base);
                let fe = staged::front_end(rec, &w.program, s, c, &mut counts)?;
                let plain = RunMods {
                    run_span: Some("sim.run.plain"),
                    ..RunMods::default()
                };
                cycles.insert(key("plain"), run(rec, &mut counts, &fe, &golden, &plain)?);
                let observed = RunMods {
                    obs: obs_request(),
                    run_span: Some("sim.run.observed"),
                    ..RunMods::default()
                };
                cycles.insert(
                    key("observed"),
                    run(rec, &mut counts, &fe, &golden, &observed)?,
                );
                for knob in KnobId::ALL {
                    let ideal = RunMods {
                        ideal: knob.knobs(),
                        run_span: Some("sim.run.whatif"),
                        ..RunMods::default()
                    };
                    cycles.insert(
                        key(&format!("whatif/{}", knob.label())),
                        run(rec, &mut counts, &fe, &golden, &ideal)?,
                    );
                }
                // The second `Experiment` pays golden, front ends and
                // baseline again before its faulted run.
                let (golden, _) = staged::stage_experiment_new(rec, &w.program, &mut counts)?;
                let fe = staged::front_end(rec, &w.program, s, c, &mut counts)?;
                let faulted = RunMods {
                    faults: Some(plan),
                    run_span: Some("sim.run.faulted"),
                    ..RunMods::default()
                };
                cycles.insert(
                    key("faulted"),
                    run(rec, &mut counts, &fe, &golden, &faulted)?,
                );
                Ok(())
            })();
            tally.op(staged.map_err(|e| format!("{}: staged: {e}", w.name)));
        }
    });
    (counts, cycles, vec![rec])
}

pub fn run_traced(args: &Args) -> Traced {
    let mut t = Traced::new();
    let epoch = Instant::now();
    let mut rec = Recorder::new(true, epoch);
    let mut layers = Layers::new();
    let plan = fault_plan(args.seed);
    let ws = trace::build_programs(&mut rec, Scale::Test, &mut layers);
    // The real path: warm-up, and the cycles the staged replay must match.
    let (direct, _, _) = direct_pass(&ws, &plan, &mut t.tally);
    let staged = trace::staged_passes(args, &mut t.tally, |record, tally| {
        staged_pass(&ws, &plan, Recorder::new(record, epoch), tally)
    });
    trace::compare_cycles(&staged.extras[0], &direct.cycles, &mut t.tally);
    trace::ff_probe(&ws, CONFIG, &mut layers, &mut t.tally);
    trace::obs_probe(&ws, CONFIG, &obs_request(), &mut layers, &mut t.tally);
    staged.emit(&mut layers);
    trace::emit_driver_spans(&rec, &mut layers);
    t.layers = layers;
    t.recorders.push(("driver".into(), rec));
    t.recorders.extend(staged.recorders);
    t
}
