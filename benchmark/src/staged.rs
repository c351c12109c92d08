//! The staged, single-thread replay of the pipeline.
//!
//! A traced run does not ask the program where its time went — it has no
//! spans of its own yet. Instead the benchmark itself makes the calls
//! `Experiment` makes (`interp::run` → `FrontEnd::new` →
//! `compile_prepared` → `check`/`validate` → `Machine::new_shared` →
//! `run_mut` → `outputs_equivalent` → `reset`), one span per call, on one
//! thread, and checks that the cycles it gets equal the cycles
//! `Experiment` produced for the same configuration: the decomposition is
//! then of the same computation.

use crate::spans::Recorder;
use crate::stats::Fnv;
use std::collections::BTreeMap;
use std::sync::Arc;
use voltron_compiler::{compile_prepared, CompileOptions, FrontEnd, Strategy};
use voltron_core::{machine_config, outputs_equivalent, ObsRequest, GOLDEN_FUEL};
use voltron_ir::{interp, Memory, Program};
use voltron_sim::{
    ChromeTracer, CoherenceBackend, CycleStack, FaultPlan, IdealKnobs, Machine, MachineProgram,
    MachineStats, StallReason,
};

/// One (strategy, cores, backend) point.
pub type Config = (Strategy, usize, CoherenceBackend);

/// Per-layer metric values by contract name.
pub type Layers = BTreeMap<String, f64>;

/// Every modelled-component count of the runs of one pass, summed. All
/// simulated, all exact: a host-only optimisation must leave each one —
/// and so [`SimTotals::fingerprint`] — identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimTotals {
    pub runs: u64,
    pub cycles: u64,
    pub ticked: u64,
    /// Σ cycles × cores: the denominator of host time per core-cycle.
    pub core_cycles: u64,
    pub issued_insts: u64,
    pub cpi_issued: u64,
    pub cpi_nops: u64,
    pub cpi_idle: u64,
    pub cpi_spawn_start: u64,
    pub cpi_stalls: [u64; 9],
    /// Runs whose `CycleStack` did not sum exactly (a failed operation).
    pub inexact_stacks: u64,
    pub coupled_cycles: u64,
    pub decoupled_cycles: u64,
    pub mode_switches: u64,
    pub spawns: u64,
    pub bus_transactions: u64,
    pub bus_busy_cycles: u64,
    pub c2c_transfers: u64,
    pub mem_fetches: u64,
    pub l1d: (u64, u64),
    pub l1i: (u64, u64),
    pub messages: u64,
    pub net_latency: u64,
    pub direct_transfers: u64,
    pub broadcasts: u64,
    pub tm_commits: u64,
    pub tm_aborts: u64,
    pub tm_wasted: u64,
    pub faults_injected: u64,
    pub faults_recovered: u64,
}

impl SimTotals {
    pub fn absorb(&mut self, stats: &MachineStats, ticked: u64) {
        let stack = CycleStack::of(stats);
        self.runs += 1;
        self.cycles += stats.cycles;
        self.ticked += ticked;
        self.core_cycles += stats.cycles * stats.cores.len() as u64;
        self.issued_insts += stats.dynamic_insts;
        self.cpi_issued += stack.issued;
        self.cpi_nops += stack.nops;
        self.cpi_idle += stack.idle;
        self.cpi_spawn_start += stack.spawn_starts;
        for (acc, s) in self.cpi_stalls.iter_mut().zip(stack.stalls) {
            *acc += s;
        }
        self.inexact_stacks += u64::from(!stack.is_exact());
        self.coupled_cycles += stats.coupled_cycles;
        self.decoupled_cycles += stats.decoupled_cycles;
        self.mode_switches += stats.mode_switches;
        self.spawns += stats.spawns;
        self.bus_transactions += stats.mem.bus_transactions;
        self.bus_busy_cycles += stats.mem.bus_busy_cycles;
        self.c2c_transfers += stats.mem.c2c_transfers;
        self.mem_fetches += stats.mem.mem_fetches;
        for &(h, m) in &stats.mem.l1d {
            self.l1d.0 += h;
            self.l1d.1 += m;
        }
        for &(h, m) in &stats.mem.l1i {
            self.l1i.0 += h;
            self.l1i.1 += m;
        }
        self.messages += stats.net.messages;
        self.net_latency += stats.net.total_latency;
        self.direct_transfers += stats.net.direct_transfers;
        self.broadcasts += stats.net.broadcasts;
        self.tm_commits += stats.tm.commits;
        self.tm_aborts += stats.tm.aborts;
        self.tm_wasted += stats.tm.wasted_cycles;
        self.faults_injected += stats.faults.injected();
        self.faults_recovered += stats.faults.recovered();
    }

    /// The exact counts as `(contract name, value)` rows, in the order
    /// the fingerprint hashes them.
    fn count_rows(&self) -> Vec<(String, u64)> {
        let mut rows: Vec<(String, u64)> = vec![
            ("sim.sim_cycles".into(), self.cycles),
            ("sim.issued_insts".into(), self.issued_insts),
            ("sim.cpi.issued".into(), self.cpi_issued),
            ("sim.cpi.nops".into(), self.cpi_nops),
            ("sim.cpi.idle".into(), self.cpi_idle),
            ("sim.cpi.spawn_start".into(), self.cpi_spawn_start),
        ];
        for r in StallReason::ALL {
            rows.push((format!("sim.cpi.stall.{r}"), self.cpi_stalls[r.index()]));
        }
        rows.extend([
            ("sim.mode.coupled_cycles".into(), self.coupled_cycles),
            ("sim.mode.decoupled_cycles".into(), self.decoupled_cycles),
            ("sim.mode.switches".into(), self.mode_switches),
            ("sim.spawns".into(), self.spawns),
            ("sim.memsys.bus_transactions".into(), self.bus_transactions),
            ("sim.memsys.bus_busy_cycles".into(), self.bus_busy_cycles),
            ("sim.memsys.c2c_transfers".into(), self.c2c_transfers),
            ("sim.memsys.mem_fetches".into(), self.mem_fetches),
            ("sim.network.messages".into(), self.messages),
            ("sim.network.direct_transfers".into(), self.direct_transfers),
            ("sim.network.broadcasts".into(), self.broadcasts),
            ("sim.tm.commits".into(), self.tm_commits),
            ("sim.tm.aborts".into(), self.tm_aborts),
            ("sim.tm.wasted_cycles".into(), self.tm_wasted),
            ("sim.fault.injected".into(), self.faults_injected),
            ("sim.fault.recovered".into(), self.faults_recovered),
        ]);
        rows
    }

    /// One number over every modelled-component count (plus the cache
    /// hit/miss and latency sums the ratios below are made of), cut to
    /// 48 bits so it survives a trip through an f64.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for (_, v) in self.count_rows() {
            h.word(v);
        }
        for v in [
            self.l1d.0,
            self.l1d.1,
            self.l1i.0,
            self.l1i.1,
            self.net_latency,
        ] {
            h.word(v);
        }
        h.0 & 0xffff_ffff_ffff
    }

    /// Write the modelled-component metrics. `ticked` is host work, not a
    /// modelled quantity, so it stays out of the fingerprint.
    pub fn emit(&self, layers: &mut Layers) {
        let ratio = |num: u64, den: u64| {
            if den == 0 {
                0.0
            } else {
                num as f64 / den as f64
            }
        };
        for (name, v) in self.count_rows() {
            layers.insert(name, v as f64);
        }
        layers.insert("sim.ticked_cycles".into(), self.ticked as f64);
        layers.insert(
            "sim.skip_efficiency".into(),
            if self.cycles == 0 {
                0.0
            } else {
                1.0 - ratio(self.ticked, self.cycles)
            },
        );
        layers.insert(
            "sim.memsys.l1d_miss_ratio".into(),
            ratio(self.l1d.1, self.l1d.0 + self.l1d.1),
        );
        layers.insert(
            "sim.memsys.l1i_miss_ratio".into(),
            ratio(self.l1i.1, self.l1i.0 + self.l1i.1),
        );
        layers.insert(
            "sim.network.avg_latency_cycles".into(),
            ratio(self.net_latency, self.messages),
        );
        layers.insert(
            "sim.tm.commit_ratio".into(),
            ratio(self.tm_commits, self.tm_commits + self.tm_aborts),
        );
        layers.insert("sim.stats_fingerprint".into(), self.fingerprint() as f64);
    }
}

/// Deterministic work counts of one staged pass, outside the simulator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    pub sim: SimTotals,
    pub golden_dyn_insts: u64,
    pub front_end_builds: u64,
    pub compiles: u64,
    pub image_insts: u64,
    /// Times the planner chose ILP / fine-grain TLP / LLP for a region.
    pub regions: [u64; 3],
    pub trace_bytes: u64,
}

impl Counts {
    pub fn emit(&self, layers: &mut Layers) {
        self.sim.emit(layers);
        let mut put = |name: &str, v: u64| {
            layers.insert(name.into(), v as f64);
        };
        put("ir.interp.dyn_insts", self.golden_dyn_insts);
        put("compiler.front_end.builds", self.front_end_builds);
        put("compiler.compiles", self.compiles);
        put("compiler.image_insts", self.image_insts);
        put("compiler.regions_ilp", self.regions[0]);
        put("compiler.regions_ftlp", self.regions[1]);
        put("compiler.regions_llp", self.regions[2]);
        put("sim.obs.trace_bytes", self.trace_bytes);
    }
}

/// Interpret the golden model (what `Experiment::new` does first).
///
/// # Errors
/// The interpreter's error, rendered.
pub fn golden(
    rec: &mut Recorder,
    program: &Program,
    counts: &mut Counts,
) -> Result<Memory, String> {
    let out = rec
        .span("ir.interp.golden", |_| interp::run(program, GOLDEN_FUEL))
        .map_err(|e| format!("golden run: {e}"))?;
    counts.golden_dyn_insts += out.steps;
    Ok(out.memory)
}

/// Build the compiler front end a configuration needs.
///
/// # Errors
/// The compiler's error, rendered.
pub fn front_end(
    rec: &mut Recorder,
    program: &Program,
    strategy: Strategy,
    cores: usize,
    counts: &mut Counts,
) -> Result<FrontEnd, String> {
    // The backend never reaches the front end (`FrontEnd::key` depends on
    // geometry only), exactly as in `Experiment::ensure_front_end`.
    let mcfg = machine_config(cores, CoherenceBackend::Snooping);
    let fe = rec
        .span("compiler.front_end", |_| {
            FrontEnd::new(program, strategy, &mcfg, &CompileOptions::default())
        })
        .map_err(|e| format!("front end: {e}"))?;
    counts.front_end_builds += 1;
    Ok(fe)
}

/// How one staged run differs from a plain one.
#[derive(Debug, Clone, Default)]
pub struct RunMods<'a> {
    pub faults: Option<&'a FaultPlan>,
    pub ideal: IdealKnobs,
    pub obs: ObsRequest,
    /// Span name of the tick loop, so plain, observed, what-if and
    /// faulted runs can be told apart (all start with `sim.run`).
    pub run_span: Option<&'static str>,
}

/// A booted machine, its image, and the configuration it was booted with.
pub type Booted = (Machine, Arc<MachineProgram>, voltron_sim::MachineConfig);

/// Compile, validate and boot one configuration — the part of the
/// pipeline `compile_matrix` times — under one span per call.
///
/// # Errors
/// The first failing stage, rendered.
pub fn stage_boot(
    rec: &mut Recorder,
    fe: &FrontEnd,
    (strategy, cores, backend): Config,
    mods: &RunMods<'_>,
    counts: &mut Counts,
) -> Result<Booted, String> {
    let mcfg = machine_config(cores, backend);
    let compiled = rec
        .span("compiler.plan_codegen", |_| {
            compile_prepared(fe, strategy, &mcfg, &CompileOptions::default())
        })
        .map_err(|e| format!("compile {strategy}/{cores}: {e}"))?;
    counts.compiles += 1;
    counts.image_insts += compiled
        .machine
        .cores
        .iter()
        .map(|c| c.inst_count() as u64)
        .sum::<u64>();
    for kind in compiled.region_kinds.values() {
        match *kind {
            "ilp" => counts.regions[0] += 1,
            "strands" | "dswp" => counts.regions[1] += 1,
            "doall" => counts.regions[2] += 1,
            _ => {}
        }
    }
    let image = Arc::new(compiled.machine);
    rec.span("sim.validate", |_| {
        image.check()?;
        image.validate(&mcfg).map_err(|e| e.to_string())
    })
    .map_err(|e| format!("validate {strategy}/{cores}: {e}"))?;
    // As in `run_prepared_obs`: the compiler saw the pristine config;
    // faults, idealisation and probes are simulator-side only.
    let mut sim_cfg = mcfg;
    sim_cfg.ideal = mods.ideal;
    sim_cfg.probe_period = mods.obs.probe_period;
    sim_cfg.faults = mods.faults.cloned();
    let machine = rec
        .span("sim.machine_build", |_| {
            Machine::new_shared(Arc::clone(&image), &sim_cfg)
        })
        .map_err(|e| format!("boot {strategy}/{cores}: {e}"))?;
    Ok((machine, image, sim_cfg))
}

/// Tear a machine (and, unless the caller kept a reference, its image)
/// down under its own span: freeing a 64-core machine's caches, queues
/// and instruction images is simulator work, not benchmark glue.
pub fn drop_machine(rec: &mut Recorder, machine: Machine, image: Arc<MachineProgram>) {
    rec.span("sim.machine_drop", |_| {
        drop(machine);
        drop(image);
    });
}

/// [`stage_boot`], then run, compare with the golden memory, and reset
/// the machine the way the serve pool would. Returns the run's cycles.
///
/// # Errors
/// The first failing stage, rendered; a golden-memory mismatch is one.
pub fn stage_run(
    rec: &mut Recorder,
    fe: &FrontEnd,
    golden: &Memory,
    config: Config,
    mods: &RunMods<'_>,
    counts: &mut Counts,
) -> Result<u64, String> {
    let (strategy, cores, _) = config;
    let (mut machine, image, sim_cfg) = stage_boot(rec, fe, config, mods, counts)?;
    if mods.obs.chrome_trace {
        machine.set_tracer(Box::new(ChromeTracer::new()));
    }
    let (out, trace) = rec
        .span(mods.run_span.unwrap_or("sim.run"), |_| {
            machine.run_mut().map(|mut out| {
                // Splicing the probe gauges into the trace is part of
                // producing an observed run's artifact, as in
                // `run_prepared_obs`.
                let trace = match (mods.obs.chrome_trace, &out.probes) {
                    (true, Some(series)) => voltron_sim::trace_with_counters(&out.trace, series),
                    _ => std::mem::take(&mut out.trace),
                };
                (out, trace)
            })
        })
        .map_err(|e| format!("simulate {strategy}/{cores}: {e}"))?;
    counts.trace_bytes += trace.len() as u64;
    rec.span("core.golden_compare", |_| {
        outputs_equivalent(golden, &out.memory)
    })
    .map_err(|addr| format!("output mismatch under {strategy}/{cores} at {addr:#x}"))?;
    rec.span("sim.machine_reset", |_| {
        machine.reset(Arc::clone(&image), &sim_cfg)
    })
    .map_err(|e| format!("reset {strategy}/{cores}: {e}"))?;
    drop_machine(rec, machine, image);
    counts.sim.absorb(&out.stats, out.ticked_cycles);
    Ok(out.stats.cycles)
}

/// What `Experiment::new` does: golden model, serial front end, and the
/// 1-core serial baseline. Returns the golden memory and the baseline's
/// cycles.
///
/// # Errors
/// The first failing stage, rendered.
pub fn stage_experiment_new(
    rec: &mut Recorder,
    program: &Program,
    counts: &mut Counts,
) -> Result<(Memory, u64), String> {
    let memory = golden(rec, program, counts)?;
    let fe = front_end(rec, program, Strategy::Serial, 1, counts)?;
    let base = stage_run(
        rec,
        &fe,
        &memory,
        (Strategy::Serial, 1, CoherenceBackend::Snooping),
        &RunMods::default(),
        counts,
    )?;
    Ok((memory, base))
}
