//! What the traced runs share: the staged-pass protocol (recorder on and
//! off, alternating), the turn from spans into per-layer metrics, the
//! staged-versus-`Experiment` cycle check, and the small probe runs that
//! size a simulator feature against the same image without it.

use crate::common::{Args, Tally};
use crate::spans::{self, Recorder};
use crate::staged::{self, Booted, Config, Counts, Layers, RunMods};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use voltron_core::{ObsRequest, GOLDEN_FUEL};
use voltron_ir::pretty::program_to_string;
use voltron_ir::profile::profile;
use voltron_ir::verify::verify_program;
use voltron_sim::{ChromeTracer, Machine, MachineConfig, MachineProgram, RunOutcome};
use voltron_workloads::{all, Scale, Workload};

/// The result of a traced run.
pub struct Traced {
    pub tally: Tally,
    pub layers: Layers,
    /// One recorder per track of the span file.
    pub recorders: Vec<(String, Recorder)>,
}

impl Traced {
    pub fn new() -> Traced {
        Traced {
            tally: Tally::default(),
            layers: Layers::new(),
            recorders: Vec::new(),
        }
    }
}

/// Traced passes per run (the issue fixes two).
const TRACED_PASSES: usize = 2;

/// What the staged passes of one traced run add up to.
pub struct StagedSummary<E> {
    pub counts: Counts,
    /// Whatever else each recorded pass produced (cycles per run, …).
    pub extras: Vec<E>,
    /// Mean self time per span name per pass, milliseconds.
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Mean wall-clock of a recorded pass, milliseconds.
    pub wall_ms_per_pass: f64,
    /// Fastest recorded pass ÷ fastest unrecorded pass.
    pub overhead_ratio: f64,
    pub recorders: Vec<(String, Recorder)>,
}

/// Run `pass` [`TRACED_PASSES`] times recording spans, alternating with
/// as many passes that record nothing; check that every pass produced
/// the same deterministic counts. `pass` is told whether to record and
/// hands back one recorder per thread it used.
pub fn staged_passes<E>(
    args: &Args,
    tally: &mut Tally,
    mut pass: impl FnMut(bool, &mut Tally) -> (Counts, E, Vec<Recorder>),
) -> StagedSummary<E> {
    let reps = if args.quick { 1 } else { TRACED_PASSES };
    let mut reference: Option<Counts> = None;
    let mut extras = Vec::new();
    let (mut on_s, mut off_s) = (Vec::new(), Vec::new());
    let mut recorders = Vec::new();
    let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
    for i in 0..reps {
        for record in [true, false] {
            if !record && args.quick {
                continue;
            }
            let t0 = Instant::now();
            let (counts, extra, recs) = pass(record, tally);
            let wall = t0.elapsed().as_secs_f64();
            match &reference {
                None => reference = Some(counts),
                Some(first) => tally.op(if *first == counts {
                    Ok(())
                } else {
                    Err("a staged pass's deterministic counts differ from the first".into())
                }),
            }
            if record {
                on_s.push(wall);
                extras.push(extra);
                for (track, rec) in recs.into_iter().enumerate() {
                    for (name, ns) in spans::self_times(rec.spans()) {
                        *self_ns.entry(name).or_insert(0) += ns;
                    }
                    recorders.push((format!("staged pass {} track {track}", i + 1), rec));
                }
            } else {
                off_s.push(wall);
            }
        }
    }
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    StagedSummary {
        counts: reference.expect("at least one staged pass ran"),
        extras,
        self_ms: self_ns
            .into_iter()
            .map(|(k, ns)| (k, ns as f64 / 1e6 / on_s.len() as f64))
            .collect(),
        wall_ms_per_pass: on_s.iter().sum::<f64>() * 1e3 / on_s.len() as f64,
        overhead_ratio: if off_s.is_empty() {
            0.0
        } else {
            min(&on_s) / min(&off_s)
        },
        recorders,
    }
}

impl<E> StagedSummary<E> {
    /// Self time of every span whose name starts with `prefix`, ms/pass.
    pub fn ms(&self, prefix: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(0.0, |acc, (_, v)| acc + v)
    }

    /// Write the host-time stack and the counts. A span named `x.y`
    /// becomes the metric `x.y_ms`; every `sim.run*` span is the tick
    /// loop; the root `pass` span's self time is the explicit `other`
    /// bucket that makes the stack sum exactly to the pass's wall-clock.
    pub fn emit(&self, layers: &mut Layers) {
        self.counts.emit(layers);
        for (name, ms) in &self.self_ms {
            if !name.starts_with("sim.run") && *name != "pass" {
                layers.insert(format!("{name}_ms"), *ms);
            }
        }
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let run_ms = self.ms("sim.run");
        let sim = &self.counts.sim;
        layers.insert("sim.run_ms".into(), run_ms);
        layers.insert("sim.whatif.resim_ms".into(), self.ms("sim.run.whatif"));
        layers.insert(
            "sim.fault.run_overhead_ratio".into(),
            per(self.ms("sim.run.faulted"), self.ms("sim.run.plain")),
        );
        layers.insert(
            "sim.host_ns_per_ticked_cycle".into(),
            per(run_ms * 1e6, sim.ticked as f64),
        );
        layers.insert(
            "sim.host_ns_per_core_cycle".into(),
            per(run_ms * 1e6, sim.core_cycles as f64),
        );
        layers.insert(
            "sim.minsts_per_host_s".into(),
            per(sim.issued_insts as f64 / 1e3, run_ms),
        );
        layers.insert(
            "ir.interp.minsts_per_s".into(),
            per(
                self.counts.golden_dyn_insts as f64 / 1e3,
                self.ms("ir.interp.golden"),
            ),
        );
        layers.insert(
            "sim.reset_vs_build_ratio".into(),
            per(self.ms("sim.machine_reset"), self.ms("sim.machine_build")),
        );
        layers.insert("bench.trace.other_ms".into(), self.ms("pass"));
        layers.insert("bench.trace.staged_wall_ms".into(), self.wall_ms_per_pass);
        layers.insert("bench.trace.overhead_ratio".into(), self.overhead_ratio);
    }
}

/// Build the programs under a `workloads.build` span, and size the IR
/// layer's own entry points on them: the verifier, the profiler and the
/// printer each get one standalone call per program (inside the pipeline
/// they run within `FrontEnd::new` and the serve engine's content hash,
/// where the benchmark cannot see them).
pub fn build_programs(rec: &mut Recorder, scale: Scale, layers: &mut Layers) -> Vec<Workload> {
    let ws = rec.span("workloads.build", |_| all(scale));
    layers.insert(
        "workloads.ir_insts".into(),
        ws.iter().map(|w| w.program.inst_count()).sum::<usize>() as f64,
    );
    for w in &ws {
        rec.begin_op(|| format!("ir-probe/{}", w.name));
        black_box(
            rec.span("ir.verify", |_| verify_program(&w.program))
                .is_ok(),
        );
        black_box(
            rec.span("ir.profile", |_| profile(&w.program, GOLDEN_FUEL))
                .is_ok(),
        );
        black_box(
            rec.span("ir.pretty.print", |_| program_to_string(&w.program))
                .len(),
        );
    }
    ws
}

/// Every span the driver recorded outside the staged passes becomes the
/// metric `<span name>_ms`, inclusive of whatever it called.
pub fn emit_driver_spans(rec: &Recorder, layers: &mut Layers) {
    for (name, ns) in spans::inclusive_times(rec.spans()) {
        layers.insert(format!("{name}_ms"), ns as f64 / 1e6);
    }
}

/// Simulated cycles per run, keyed by a label naming the run.
pub type CycleMap = BTreeMap<String, u64>;

/// The staged replay must have produced, for every run `Experiment`
/// made, exactly its cycle count. One operation per run.
pub fn compare_cycles(staged: &CycleMap, direct: &CycleMap, tally: &mut Tally) {
    for (key, want) in direct {
        tally.op(match staged.get(key) {
            Some(got) if got == want => Ok(()),
            Some(got) => Err(format!("{key}: staged {got} cycles, Experiment {want}")),
            None => Err(format!("{key}: run by Experiment but not staged")),
        });
    }
}

/// Compile and boot `config` of one program outside any pass.
fn boot(w: &Workload, config: Config) -> Result<Booted, String> {
    let mut rec = Recorder::new(false, Instant::now());
    let mut counts = Counts::default();
    let (strategy, cores, _) = config;
    let fe = staged::front_end(&mut rec, &w.program, strategy, cores, &mut counts)?;
    staged::stage_boot(&mut rec, &fe, config, &RunMods::default(), &mut counts)
}

/// Reset `machine` to `cfg`, run it, and time only the run.
fn timed_rerun(
    machine: &mut Machine,
    image: &Arc<MachineProgram>,
    cfg: &MachineConfig,
    tracer: bool,
) -> Result<(RunOutcome, f64), String> {
    machine
        .reset(Arc::clone(image), cfg)
        .map_err(|e| e.to_string())?;
    if tracer {
        machine.set_tracer(Box::new(ChromeTracer::new()));
    }
    let t0 = Instant::now();
    let out = machine.run_mut().map_err(|e| e.to_string())?;
    Ok((out, t0.elapsed().as_secs_f64()))
}

/// `sim.ff_speedup_ratio`: every program's `config` image run with
/// `MachineConfig::fast_forward` off ÷ on. The two runs must agree on
/// every statistic and on final memory; a disagreement is a failed
/// operation.
pub fn ff_probe(ws: &[Workload], config: Config, layers: &mut Layers, tally: &mut Tally) {
    let (mut on_s, mut off_s) = (0.0, 0.0);
    for w in ws {
        let probe = (|| -> Result<(), String> {
            let (mut machine, image, cfg) = boot(w, config)?;
            let (on, t_on) = timed_rerun(&mut machine, &image, &cfg, false)?;
            let mut slow = cfg.clone();
            slow.fast_forward = false;
            let (off, t_off) = timed_rerun(&mut machine, &image, &slow, false)?;
            on_s += t_on;
            off_s += t_off;
            if on.stats != off.stats || on.memory.first_difference(&off.memory).is_some() {
                return Err("fast-forward on and off disagree".into());
            }
            Ok(())
        })();
        tally.op(probe.map_err(|e| format!("{}: ff probe: {e}", w.name)));
    }
    layers.insert(
        "sim.ff_speedup_ratio".into(),
        if on_s > 0.0 { off_s / on_s } else { 0.0 },
    );
}

/// `sim.obs.trace_overhead_ratio` and `sim.obs.probes_overhead_ratio`:
/// every program's `config` image run with only the Chrome tracer, and
/// with only the interval probes, ÷ the same image run plain. Observers
/// must not move a single statistic; if one does, the operation fails.
pub fn obs_probe(
    ws: &[Workload],
    config: Config,
    obs: &ObsRequest,
    layers: &mut Layers,
    tally: &mut Tally,
) {
    let (mut plain_s, mut trace_s, mut probes_s) = (0.0, 0.0, 0.0);
    for w in ws {
        let probe = (|| -> Result<(), String> {
            let (mut machine, image, cfg) = boot(w, config)?;
            let (plain, t_plain) = timed_rerun(&mut machine, &image, &cfg, false)?;
            let (traced, t_trace) = timed_rerun(&mut machine, &image, &cfg, true)?;
            let mut probed_cfg = cfg.clone();
            probed_cfg.probe_period = obs.probe_period;
            let (probed, t_probes) = timed_rerun(&mut machine, &image, &probed_cfg, false)?;
            plain_s += t_plain;
            trace_s += t_trace;
            probes_s += t_probes;
            if plain.stats != traced.stats || plain.stats != probed.stats {
                return Err("an observer changed the statistics".into());
            }
            Ok(())
        })();
        tally.op(probe.map_err(|e| format!("{}: observer probe: {e}", w.name)));
    }
    let per = |num: f64| if plain_s > 0.0 { num / plain_s } else { 0.0 };
    layers.insert("sim.obs.trace_overhead_ratio".into(), per(trace_s));
    layers.insert("sim.obs.probes_overhead_ratio".into(), per(probes_s));
}
