//! End-to-end Voltron system: compile, simulate, validate, and measure.
//!
//! This crate ties the stack together the way the paper's evaluation does:
//!
//! * [`run_reference`] interprets a program for the golden output;
//! * [`run_configuration`] compiles with a [`Strategy`] for an N-core
//!   machine, simulates it, and *always* checks the machine's final memory
//!   against the golden model (with a documented FP-reduction tolerance);
//! * [`cache`] keeps what runs leave behind — golden memory, front ends,
//!   images, results, finished machines — and decides what is cached;
//! * [`Experiment`] batches the runs the figures need (baseline + each
//!   technique + hybrid) through it and computes speedups, stall
//!   breakdowns, mode residency, and per-region technique attribution.
//!
//! # Example
//!
//! ```
//! use voltron_core::{Experiment, Strategy};
//! use voltron_ir::builder::ProgramBuilder;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new("quick");
//! let a = pb.data_mut().zeroed("a", 8 * 512);
//! let mut f = pb.function("main");
//! let base = f.ldi(a as i64);
//! f.counted_loop(0i64, 512i64, 1, |f, iv| {
//!     let off = f.shl(iv, 3i64);
//!     let ad = f.add(base, off);
//!     f.store8(ad, 0, iv);
//! });
//! f.halt();
//! pb.finish_function(f);
//! let program = pb.finish();
//!
//! let mut exp = Experiment::new(&program)?;
//! let hybrid = exp.run(Strategy::Hybrid, 4)?;
//! assert!(hybrid.speedup > 1.0);
//! # Ok(())
//! # }
//! ```

pub mod cache;
pub mod report;

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use voltron_compiler::{compile_prepared, CompileError, CompileOptions, FrontEnd};
use voltron_ir::{interp, Memory, Program};
use voltron_sim::whatif::region_stacks;
use voltron_sim::{
    ChromeTracer, CoherenceBackend, Machine, MachineConfig, MachineStats, RunOutcome, SealedImage,
    SimError, StallReason,
};

pub use cache::{CacheInfo, MachinePool, ProgramCache, Reference, ResultKey, RunSpec};
pub use voltron_compiler::Strategy;
/// Interpreter fuel used for golden runs (and, by default, for the
/// compiler's profiling run).
pub use voltron_ir::interp::GOLDEN_FUEL;
pub use voltron_sim::{
    BoundBy, CycleStack, FaultBudgetReport, FaultEvent, FaultKind, FaultPlan, FaultSite,
    FaultStats, KnobId, ProbeSeries, ProbeSummary, RegionStack,
};

/// The machine configuration for one experiment run: geometry from
/// [`MachineConfig::scaled`] (identical to the paper machine at the
/// paper's 1/2/4-core points), coherence timing from `backend`. What the
/// compiler sees for a configuration; [`sim_config`] derives the machine
/// a simulation of it boots. Panics (inside `scaled`) on a core count
/// that is not a power of two up to 64.
pub fn machine_config(cores: usize, backend: CoherenceBackend) -> MachineConfig {
    MachineConfig::scaled(cores).with_backend(backend)
}

/// A system-level failure (compilation, simulation, or validation).
#[derive(Debug)]
pub enum SystemError {
    /// Compilation failed.
    Compile(CompileError),
    /// Simulation failed.
    Sim(SimError),
    /// The golden (interpreter) run failed.
    Golden(interp::InterpError),
    /// The machine's output disagreed with the golden model.
    OutputMismatch {
        /// Strategy that produced the divergence.
        strategy: Strategy,
        /// Core count.
        cores: usize,
        /// First differing address.
        addr: u64,
    },
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Compile(e) => write!(f, "compile: {e}"),
            SystemError::Sim(e) => write!(f, "simulate: {e}"),
            SystemError::Golden(e) => write!(f, "golden run: {e}"),
            SystemError::OutputMismatch {
                strategy,
                cores,
                addr,
            } => write!(
                f,
                "output mismatch under {strategy}/{cores} cores at {addr:#x}"
            ),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<CompileError> for SystemError {
    fn from(e: CompileError) -> SystemError {
        SystemError::Compile(e)
    }
}

impl From<SimError> for SystemError {
    fn from(e: SimError) -> SystemError {
        SystemError::Sim(e)
    }
}

impl From<interp::InterpError> for SystemError {
    fn from(e: interp::InterpError) -> SystemError {
        SystemError::Golden(e)
    }
}

/// Compare final memories. Byte equality is required except for 8-byte
/// words that parse as close floating-point values: chunked floating-point
/// reductions legally reassociate (accumulator expansion, DESIGN.md §2),
/// so FP sums may differ in the last bits.
pub fn outputs_equivalent(golden: &Memory, machine: &Memory) -> Result<(), u64> {
    let ga = golden.bytes();
    let mb = machine.bytes();
    if ga.len() != mb.len() {
        return Err(voltron_ir::DataSegment::BASE + ga.len().min(mb.len()) as u64);
    }
    let mut i = 0usize;
    while i < ga.len() {
        if ga[i] == mb[i] {
            i += 1;
            continue;
        }
        // Mismatch: inspect the enclosing aligned 8-byte word as f64.
        let w = i & !7;
        if w + 8 <= ga.len() {
            let fg = f64::from_le_bytes(ga[w..w + 8].try_into().expect("8 bytes"));
            let fm = f64::from_le_bytes(mb[w..w + 8].try_into().expect("8 bytes"));
            // Only genuine (normal or zero) floats qualify for tolerance;
            // integer bytes reinterpreted as f64 are subnormals and fall
            // through to the exact comparison.
            let normal = |v: f64| v == 0.0 || (v.is_finite() && v.abs() >= f64::MIN_POSITIVE);
            let tol = (1e-9 * fg.abs().max(fm.abs())).max(1e-12);
            if normal(fg) && normal(fm) && (fg - fm).abs() <= tol {
                i = w + 8;
                continue;
            }
        }
        return Err(voltron_ir::DataSegment::BASE + i as u64);
    }
    Ok(())
}

/// Result of one compiled-and-simulated configuration.
#[derive(Debug)]
pub struct RunResult {
    /// The strategy used.
    pub strategy: Strategy,
    /// Core count.
    pub cores: usize,
    /// Coherence backend the memory system was timed with.
    pub backend: CoherenceBackend,
    /// Execution time in simulated cycles.
    pub cycles: u64,
    /// Cycles the simulator actually ticked (fast-forward skips the
    /// rest; see `voltron_sim::RunOutcome::ticked_cycles`).
    pub ticked_cycles: u64,
    /// Speedup over the serial baseline.
    pub speedup: f64,
    /// Full machine statistics.
    pub stats: MachineStats,
    /// Planner region kinds (region id -> technique name).
    pub region_kinds: HashMap<u32, &'static str>,
    /// Estimated serial weight per region id.
    pub region_weights: HashMap<u32, u64>,
    /// The strategy whose simulation (at the same cores and backend)
    /// produced `stats`, when this configuration lowered to the same
    /// machine program as an earlier one of its batch and was not
    /// simulated again; `None` when this run was simulated itself (see
    /// [`Experiment::run_all_on`]).
    pub shared_with: Option<Strategy>,
}

impl RunResult {
    /// Fraction of hybrid time in coupled mode.
    pub fn coupled_fraction(&self) -> f64 {
        if self.stats.cycles == 0 {
            0.0
        } else {
            self.stats.coupled_cycles as f64 / self.stats.cycles as f64
        }
    }

    /// Fig. 3-style attribution: the fraction of (estimated serial)
    /// execution the planner assigned to each parallelism class in this
    /// build, as `[ilp, fine-grain tlp, llp, single-core]` summing to 1.
    pub fn parallelism_breakdown(&self) -> [f64; 4] {
        let mut acc = [0u64; 4];
        for (rid, kind) in &self.region_kinds {
            let slot = match *kind {
                "ilp" => 0,
                "strands" | "dswp" => 1,
                "doall" => 2,
                _ => 3,
            };
            acc[slot] += self.region_weights.get(rid).copied().unwrap_or(0);
        }
        let total: u64 = acc.iter().sum();
        if total == 0 {
            return [0.0, 0.0, 0.0, 1.0];
        }
        acc.map(|w| w as f64 / total as f64)
    }

    /// Per-core-average stall cycles for a Fig. 12 category, normalized
    /// by `baseline_cycles`.
    pub fn normalized_stall(&self, category: StallCategory, baseline_cycles: u64) -> f64 {
        let raw: f64 = category
            .reasons()
            .iter()
            .map(|&r| self.stats.avg_stall(r))
            .sum();
        raw / baseline_cycles.max(1) as f64
    }
}

/// Fig. 12 stall categories (see `voltron_sim::stats` for the mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCategory {
    /// Instruction-cache stalls.
    IStall,
    /// Data stalls (cache misses, store-buffer pressure).
    DStall,
    /// Data receive stalls (queue mode) and direct-latch waits.
    RecvData,
    /// Predicate receive stalls (control synchronization).
    RecvPred,
    /// Region-boundary synchronization (the paper's call/return sync):
    /// spawn/join, mode-switch barriers, commit tokens.
    Sync,
    /// Fixed-latency interlock slack (schedule imperfection).
    Other,
}

impl StallCategory {
    /// All categories in display order.
    pub const ALL: [StallCategory; 6] = [
        StallCategory::IStall,
        StallCategory::DStall,
        StallCategory::RecvData,
        StallCategory::RecvPred,
        StallCategory::Sync,
        StallCategory::Other,
    ];

    /// The raw stall reasons aggregated into this category.
    pub fn reasons(self) -> &'static [StallReason] {
        match self {
            StallCategory::IStall => &[StallReason::IFetch],
            StallCategory::DStall => &[StallReason::DMiss, StallReason::StoreBuf],
            StallCategory::RecvData => &[StallReason::RecvData, StallReason::DirectWait],
            StallCategory::RecvPred => &[StallReason::RecvPred],
            StallCategory::Sync => &[StallReason::Sync, StallReason::SendFull],
            StallCategory::Other => &[StallReason::Interlock],
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            StallCategory::IStall => "i-stalls",
            StallCategory::DStall => "d-stalls",
            StallCategory::RecvData => "recv stall",
            StallCategory::RecvPred => "predicate recv",
            StallCategory::Sync => "call/return sync",
            StallCategory::Other => "interlock",
        }
    }
}

/// Run the reference interpreter.
///
/// # Errors
/// Propagates interpreter failures.
pub fn run_reference(program: &Program) -> Result<interp::Outcome, SystemError> {
    Ok(interp::run(program, GOLDEN_FUEL)?)
}

/// Compile and simulate one configuration from scratch — fresh front
/// end, fresh compile, a machine built for it — validating the output
/// against `golden`. Shares nothing with any other run and touches
/// neither a [`ProgramCache`] nor a [`MachinePool`], which makes it the
/// oracle `tests/shared_runs.rs` holds [`Experiment`]'s cached, shared
/// and pooled simulations to.
///
/// # Errors
/// Fails on compile/simulate errors or output divergence.
pub fn run_configuration(
    program: &Program,
    golden: &Memory,
    config: Config,
    baseline_cycles: u64,
) -> Result<RunResult, SystemError> {
    let prepared = prepare(&front_end(program, config.0, config.1)?, config)?;
    let spec = RunSpec::new(config);
    let mut machine = Machine::boot(&prepared.image, &sim_config(&spec))?;
    let out = run_checked(&mut machine, config, golden, &spec.obs)?;
    Ok(prepared.result(config, out.stats, out.ticked_cycles, baseline_cycles, None))
}

/// What to observe during a run (see `voltron_sim::obs`). The default
/// observes nothing, which is also what every cached/figure run uses —
/// observation never perturbs the architectural results (pinned by the
/// observer-effect tests), but the artifacts are only collected on
/// request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsRequest {
    /// Attach a `ChromeTracer` and return its rendered JSON.
    pub chrome_trace: bool,
    /// Sample interval probes with this period (cycles).
    pub probe_period: Option<u64>,
}

/// A run's result plus the observability artifacts requested for it.
#[derive(Debug)]
pub struct Observed {
    /// The architectural result (identical to an unobserved run); shared
    /// with the result cache when it came from or went into it.
    pub run: Arc<RunResult>,
    /// Chrome trace-event JSON (empty string unless requested).
    pub trace_json: String,
    /// The interval probe series, when a period was requested.
    pub probes: Option<ProbeSeries>,
    /// Which cache layers the run found warm.
    pub cache: CacheInfo,
}

/// One (strategy, cores, backend) point: what a [`ProgramCache`]'s image
/// layer is keyed by, and the first part of a [`ResultKey`].
pub type Config = (Strategy, usize, CoherenceBackend);

/// Build the front end (verify, profile, analyses) `strategy` at `cores`
/// compiles from. A program has at most two ([`FrontEnd::key`]), and the
/// coherence backend never selects between them: the front end depends on
/// geometry only, never on memory-system timing. Profiling dominates
/// compile time, so a [`ProgramCache`] builds each at most once and
/// reuses it in [`prepare`].
///
/// # Errors
/// Fails if the program does not verify or its profiling run fails.
pub fn front_end(
    program: &Program,
    strategy: Strategy,
    cores: usize,
) -> Result<FrontEnd, SystemError> {
    let mcfg = machine_config(cores, CoherenceBackend::Snooping);
    Ok(FrontEnd::new(
        program,
        strategy,
        &mcfg,
        &CompileOptions::default(),
    )?)
}

/// A configuration compiled and ready to boot: the first half of a run.
/// The image is sealed, so every simulation of it — a what-if's five, the
/// one that serves a whole class of equal configurations, or every pooled
/// machine the serve engine reboots onto it — boots without validating
/// and reads one decoded program; the planner maps stay the
/// configuration's own. A [`ProgramCache`] keeps one per configuration
/// for as long as it lives.
#[derive(Debug)]
pub struct Prepared {
    /// The per-core machine code, validated for its core count.
    pub image: Arc<SealedImage>,
    /// Planner maps, copied into every [`Prepared::result`].
    region_kinds: HashMap<u32, &'static str>,
    region_weights: HashMap<u32, u64>,
}

/// Plan and emit `config` from its [`front_end`], then seal the image:
/// what a [`ProgramCache`] does per image-layer miss.
///
/// # Errors
/// Propagates compile and validation failures.
pub fn prepare(fe: &FrontEnd, (strategy, cores, backend): Config) -> Result<Prepared, SystemError> {
    let mcfg = machine_config(cores, backend);
    let compiled = compile_prepared(fe, strategy, &mcfg, &CompileOptions::default())?;
    Ok(Prepared {
        image: SealedImage::seal(Arc::new(compiled.machine), &mcfg)?,
        region_kinds: compiled.region_kinds,
        region_weights: compiled.region_weights,
    })
}

impl Prepared {
    /// This configuration's [`RunResult`] from the statistics of a
    /// simulation of its image: its own, or its class leader's
    /// ([`Experiment::run_all_on`], which then names it in `shared_with`).
    pub fn result(
        &self,
        (strategy, cores, backend): Config,
        stats: MachineStats,
        ticked_cycles: u64,
        baseline_cycles: u64,
        shared_with: Option<Strategy>,
    ) -> RunResult {
        let cycles = stats.cycles;
        RunResult {
            strategy,
            cores,
            backend,
            cycles,
            ticked_cycles,
            speedup: baseline_cycles as f64 / cycles.max(1) as f64,
            stats,
            region_kinds: self.region_kinds.clone(),
            region_weights: self.region_weights.clone(),
            shared_with,
        }
    }
}

/// The machine a simulation of `spec` boots (built, or a pooled one
/// rebooted onto it), as opposed to [`machine_config`], which is what the
/// compiler saw.
///
/// The budget caps simulation only, so budgeted and unbudgeted builds
/// stay identical. Idealization knobs are likewise simulator-side only: a
/// what-if run executes the *same* code as the measured run, just timed
/// by an idealized machine, so its ceiling is attributable to hardware
/// alone. Fault injection perturbs timing only; [`run_checked`] still
/// holds faulted runs to the golden memory, which *is* the recovery
/// contract (DESIGN.md §10).
pub fn sim_config(spec: &RunSpec<'_>) -> MachineConfig {
    let (_, cores, backend) = spec.config;
    let mut cfg = machine_config(cores, backend);
    if let Some(budget) = spec.cycle_budget {
        cfg.max_cycles = cfg.max_cycles.min(budget);
    }
    cfg.ideal = spec.ideal;
    cfg.probe_period = spec.obs.probe_period;
    cfg.faults = spec.faults.cloned();
    cfg
}

/// Run a booted (or rebooted) machine to completion and hold its final
/// memory to `golden`: the second half of a run, with a Chrome tracer
/// attached when `obs` asks for one. When probes were sampled too
/// ([`sim_config`] set the period), they are spliced into the outcome's
/// `trace` as Perfetto counter tracks — one document shows spans and
/// gauges. The machine is left for the caller: the [`MachinePool`] parks
/// it on `Ok` and retires it on `Err`.
///
/// # Errors
/// A simulation failure, or [`SystemError::OutputMismatch`] at the first
/// address where the machine's memory is not equivalent to `golden`.
pub fn run_checked(
    machine: &mut Machine,
    (strategy, cores, _): Config,
    golden: &Memory,
    obs: &ObsRequest,
) -> Result<RunOutcome, SystemError> {
    if obs.chrome_trace {
        machine.set_tracer(Box::new(ChromeTracer::new()));
    }
    let mut out = machine.run_mut()?;
    if let Err(addr) = outputs_equivalent(golden, &out.memory) {
        return Err(SystemError::OutputMismatch {
            strategy,
            cores,
            addr,
        });
    }
    if let (true, Some(series)) = (obs.chrome_trace, &out.probes) {
        out.trace = voltron_sim::trace_with_counters(&out.trace, series);
    }
    Ok(out)
}

/// Run `f` over `items` on scoped host threads — the last on the calling
/// thread, so a batch of one spawns nothing — and return the results in
/// item order.
fn fan_out<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let Some((last, rest)) = items.split_last() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let f = &f;
        let handles: Vec<_> = rest
            .iter()
            .map(|item| scope.spawn(move || f(item)))
            .collect();
        let tail = f(last);
        let joined = handles
            .into_iter()
            .map(|h| h.join().expect("runner panicked"));
        joined.chain([tail]).collect()
    })
}

/// One counterfactual idealization's ceiling: how much faster the same
/// binary runs when one hardware resource is made perfect.
#[derive(Debug, Clone, Copy)]
pub struct KnobCeiling {
    /// The resource that was idealized.
    pub knob: KnobId,
    /// Execution time under the idealized machine.
    pub ideal_cycles: u64,
    /// `measured_cycles / ideal_cycles`: the speedup *ceiling* any
    /// real-hardware improvement to this resource could reach. Removing a
    /// resource constraint never adds work, so this is ≥ 1 up to
    /// second-order scheduling effects (pinned at ≥ 1 − ε by tests).
    pub speedup_ceiling: f64,
}

/// Bottleneck diagnosis for one planner region.
#[derive(Debug, Clone)]
pub struct RegionDiagnosis {
    /// Region id (`u32::MAX` = outside any planned region).
    pub region: u32,
    /// Planner technique for the region (`"outside"` for the remainder).
    pub kind: &'static str,
    /// Where this region's cycles went.
    pub stack: RegionStack,
    /// The dominant cycle class — what the region is bound by.
    pub bound_by: BoundBy,
}

/// Full bottleneck-intelligence report for one configuration: the CPI
/// stack of the measured run, per-region diagnoses, and the what-if
/// speedup ceiling of each one-hot idealization (see
/// `voltron_sim::whatif`).
#[derive(Debug, Clone)]
pub struct WhatIfReport {
    /// Strategy of the diagnosed run.
    pub strategy: Strategy,
    /// Core count.
    pub cores: usize,
    /// Coherence backend.
    pub backend: CoherenceBackend,
    /// Execution time of the measured (non-idealized) run.
    pub measured_cycles: u64,
    /// Machine-wide cycle stack (sums exactly to cores × cycles).
    pub stack: CycleStack,
    /// The machine-wide dominant cycle class.
    pub bound_by: BoundBy,
    /// Per-region stacks and classifications, outside-region last.
    pub regions: Vec<RegionDiagnosis>,
    /// One ceiling per [`KnobId::ALL`] entry, in that order.
    pub ceilings: Vec<KnobCeiling>,
}

impl WhatIfReport {
    /// The measured half of a report: `run`'s machine-wide cycle stack and
    /// its per-region stacks, each classified by its dominant cycle class,
    /// with no ceilings yet. [`Experiment::whatif_on`] and the serve
    /// engine's what-if both start here and add one
    /// [`WhatIfReport::ceiling`] per [`KnobId::ALL`] entry.
    pub fn diagnose(run: &RunResult) -> WhatIfReport {
        let stack = CycleStack::of(&run.stats);
        let regions = region_stacks(&run.stats)
            .into_iter()
            .map(|rs| RegionDiagnosis {
                region: rs.region,
                kind: if rs.region == voltron_sim::REGION_OUTSIDE {
                    "outside"
                } else {
                    run.region_kinds.get(&rs.region).copied().unwrap_or("?")
                },
                bound_by: rs.bound_by(),
                stack: rs,
            })
            .collect();
        WhatIfReport {
            strategy: run.strategy,
            cores: run.cores,
            backend: run.backend,
            measured_cycles: run.cycles,
            bound_by: stack.bound_by(),
            stack,
            regions,
            ceilings: Vec::with_capacity(KnobId::ALL.len()),
        }
    }

    /// Record that the measured binary took `ideal_cycles` with `knob`'s
    /// resource idealized (the callers are [`WhatIfReport::diagnose`]'s).
    pub fn ceiling(&mut self, knob: KnobId, ideal_cycles: u64) {
        self.ceilings.push(KnobCeiling {
            knob,
            ideal_cycles,
            speedup_ceiling: self.measured_cycles as f64 / ideal_cycles.max(1) as f64,
        });
    }

    /// The idealization with the highest speedup ceiling — the best
    /// answer to "what single hardware resource should be improved?".
    pub fn best_ceiling(&self) -> &KnobCeiling {
        self.ceilings
            .iter()
            .max_by(|a, b| {
                a.speedup_ceiling
                    .partial_cmp(&b.speedup_ceiling)
                    .expect("ceilings are finite")
            })
            .expect("KnobId::ALL is non-empty")
    }
}

/// Simulated and actually-ticked cycles of the simulations performed.
#[derive(Default)]
struct Totals {
    simulated: u64,
    ticked: u64,
}

impl Totals {
    fn add(&mut self, run: &RunResult) {
        self.simulated += run.cycles;
        self.ticked += run.ticked_cycles;
    }
}

/// The budget and fault plan every run of one experiment shares.
#[derive(Default)]
struct Settings {
    cycle_budget: Option<u64>,
    fault_plan: Option<FaultPlan>,
}

impl Settings {
    /// A plain run of `config` under these settings.
    fn plain(&self, config: Config) -> RunSpec<'_> {
        RunSpec {
            cycle_budget: self.cycle_budget,
            faults: self.fault_plan.as_ref(),
            ..RunSpec::new(config)
        }
    }
}

/// Per-benchmark experiment driver: computes the baseline once, then runs
/// any (strategy, cores) combination against it. A single-program,
/// single-owner view of the run cache ([`cache`]): it adds the budget and
/// fault plan every run shares, batching ([`Experiment::run_all_on`]),
/// host fan-out, and the totals of what it simulated.
pub struct Experiment<'a> {
    program: &'a Program,
    cache: ProgramCache,
    pool: MachinePool,
    reference: Arc<Reference>,
    totals: Totals,
    settings: Settings,
}

impl<'a> Experiment<'a> {
    /// Interpret the golden model and time the 1-core serial baseline.
    ///
    /// # Errors
    /// Fails if the reference run or the baseline build fails.
    pub fn new(program: &'a Program) -> Result<Experiment<'a>, SystemError> {
        Experiment::with_cycle_budget(program, None)
    }

    /// [`Experiment::new`] with a per-run simulated-cycle budget that
    /// also covers the baseline run, so a hanging program cannot hold
    /// the constructor either (see [`Experiment::set_cycle_budget`]).
    ///
    /// # Errors
    /// Fails if the reference run or the baseline build fails.
    pub fn with_cycle_budget(
        program: &'a Program,
        budget: Option<u64>,
    ) -> Result<Experiment<'a>, SystemError> {
        let cache = ProgramCache::default();
        // One parked machine per shape: an experiment's repeat runs of a
        // shape come one after another, bar a what-if's own five.
        let pool = MachinePool::new(1);
        let (reference, _) = cache.reference(program, &pool, budget)?;
        Ok(Experiment {
            program,
            cache,
            pool,
            totals: Totals {
                simulated: reference.baseline_cycles,
                ticked: reference.baseline_ticked_cycles,
            },
            reference,
            settings: Settings {
                cycle_budget: budget,
                fault_plan: None,
            },
        })
    }

    /// Serial 1-core execution time in cycles.
    pub fn baseline_cycles(&self) -> u64 {
        self.reference.baseline_cycles
    }

    /// Cap every *subsequent* [`Experiment::run`] at `budget` simulated
    /// cycles (never raising the machine's own `max_cycles`). A run that
    /// exhausts the budget fails with `SimError::MaxCycles`, so a
    /// harness can bound how long one workload may hold a host thread.
    /// `None` removes the cap. The budget is part of the [`ResultKey`]:
    /// results cached under another budget are neither served nor listed
    /// by [`Experiment::results`] until it is set again.
    pub fn set_cycle_budget(&mut self, budget: Option<u64>) {
        self.settings.cycle_budget = budget;
    }

    /// Inject faults into every *subsequent* run per `plan` (see
    /// `voltron_sim::fault`): timing moves, but the output check still
    /// holds every faulted run to the golden memory. The serial baseline
    /// (already computed) stays fault-free — it is the denominator the
    /// speedups are normalized by. The plan is part of the [`ResultKey`],
    /// so one `Experiment` never mixes runs under different plans.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.settings.fault_plan = plan;
    }

    /// Total simulated cycles across every simulation this experiment
    /// has actually performed, baseline included: cache hits are
    /// excluded, and a class of configurations that shared one simulation
    /// ([`Experiment::run_all_on`]) counts it once. The harness divides
    /// the sum by host wall-clock for its simulated-cycles-per-second
    /// throughput metric, which therefore stays a simulator-speed number.
    pub fn simulated_cycles(&self) -> u64 {
        self.totals.simulated
    }

    /// Total cycles the simulator actually ticked across those runs.
    /// `simulated_cycles / ticked_cycles` is the fast-forward
    /// skip-efficiency the harness reports (1.0 means no cycle was
    /// skippable).
    pub fn ticked_cycles(&self) -> u64 {
        self.totals.ticked
    }

    /// Every configuration result cached under the current budget and
    /// fault plan, in deterministic (strategy name, cores, backend) order
    /// — the harness's `BENCH_*.json` inventory.
    pub fn results(&self) -> Vec<Arc<RunResult>> {
        let s = &self.settings;
        let mut v = self.cache.results(s.cycle_budget, s.fault_plan.as_ref());
        v.sort_by_key(|r| (r.strategy.to_string(), r.cores, r.backend.label()));
        v
    }

    /// Run (or fetch the cached run of) a configuration on the default
    /// snooping backend.
    ///
    /// # Errors
    /// Propagates configuration failures.
    pub fn run(&mut self, strategy: Strategy, cores: usize) -> Result<&RunResult, SystemError> {
        self.run_on(strategy, cores, CoherenceBackend::Snooping)
    }

    /// Run (or fetch the cached run of) a configuration on an explicit
    /// coherence backend.
    ///
    /// # Errors
    /// Propagates configuration failures.
    pub fn run_on(
        &mut self,
        strategy: Strategy,
        cores: usize,
        backend: CoherenceBackend,
    ) -> Result<&RunResult, SystemError> {
        let config = (strategy, cores, backend);
        self.run_all_on(&[config])?;
        let spec = self.settings.plain(config);
        Ok(self.cache.cached_mut(&spec).expect("just run"))
    }

    /// Run a configuration with observability attached, returning the
    /// trace/probe artifacts alongside the result. Always simulates
    /// (an observed run has no [`RunSpec::key`]: it is asked for because
    /// its artifacts are wanted, and the cache must keep the exact object
    /// an unobserved sweep produced) — on the image an earlier run of the
    /// configuration compiled; the simulated cycles still count toward
    /// the throughput totals.
    ///
    /// # Errors
    /// Propagates configuration failures.
    pub fn run_observed_on(
        &mut self,
        strategy: Strategy,
        cores: usize,
        backend: CoherenceBackend,
        obs: &ObsRequest,
    ) -> Result<Observed, SystemError> {
        let spec = RunSpec {
            obs: obs.clone(),
            ..self.settings.plain((strategy, cores, backend))
        };
        let out = self
            .cache
            .run(self.program, &self.reference, &self.pool, &spec)?;
        if !out.cache.result_hit {
            self.totals.add(&out.run);
        }
        Ok(out)
    }

    /// Run every not-yet-cached configuration in `configs`, simulating
    /// each *distinct* machine program once, across host threads.
    ///
    /// The missing configurations are compiled first. Those that boot the
    /// same machine with the same program — equal `(cores, backend)` and
    /// structurally equal images, which happens whenever one technique
    /// wins every region of the hybrid plan — form a class; a simulation
    /// is a deterministic function of exactly that pair plus the budget,
    /// fault plan and knobs, which are one `Experiment`'s and so equal by
    /// construction. One leader per class (its first member in `configs`
    /// order) is validated, simulated and compared with the golden
    /// memory; every other member's [`RunResult`] is built from the
    /// leader's statistics under its own strategy label, region maps and
    /// speedup, and names the leader in [`RunResult::shared_with`]. A
    /// class exists within one batch only: a configuration asked for on
    /// its own is simulated (DESIGN.md, "Shared simulations").
    ///
    /// Classes are independent simulations sharing only immutable state,
    /// so a workload's sweep finishes in the wall-clock of its slowest
    /// class instead of their sum. Results land in the cache exactly as a
    /// sequence of [`Experiment::run_on`] calls would have left them:
    /// committed in `configs` order up to the first failure, whose error
    /// is returned (later successes are discarded, as a sequential sweep
    /// would never have run them).
    ///
    /// # Errors
    /// The first (in `configs` order) configuration failure.
    pub fn run_all_on(
        &mut self,
        configs: &[(Strategy, usize, CoherenceBackend)],
    ) -> Result<(), SystemError> {
        let mut missing: Vec<RunSpec<'_>> = Vec::new();
        for &c in configs {
            let spec = self.settings.plain(c);
            if self.cache.cached(&spec).is_none() && !missing.iter().any(|m| m.config == c) {
                missing.push(spec);
            }
        }
        // Compile up front, serially. A compile failure ends the batch
        // where a sequential sweep would have stopped — whatever precedes
        // it still runs and commits before the error is returned.
        let mut prepared = Vec::with_capacity(missing.len());
        let mut compile_failure = None;
        for spec in &missing {
            match self.cache.prepared(self.program, spec.config) {
                Ok(p) => prepared.push(p),
                Err(e) => {
                    compile_failure = Some(e);
                    break;
                }
            }
        }
        // `leader[i]` is the first configuration that boots the same
        // machine with the same program as `i` (itself, when none does).
        let mut leader: Vec<usize> = Vec::with_capacity(prepared.len());
        for i in 0..prepared.len() {
            let shape = |k: usize| (missing[k].config.1, missing[k].config.2);
            let same = (0..i).find(|&j| {
                let image = |k: usize| prepared[k].0.image.program();
                leader[j] == j && shape(j) == shape(i) && image(j) == image(i)
            });
            leader.push(same.unwrap_or(i));
        }
        let leaders: Vec<usize> = (0..leader.len()).filter(|&i| leader[i] == i).collect();
        let (golden, baseline) = (&self.reference.memory, self.reference.baseline_cycles);
        let simulate =
            |&i: &usize| cache::simulate(&prepared[i], golden, baseline, &self.pool, &missing[i]);
        let mut outcomes = fan_out(&leaders, simulate).into_iter();
        let mut committed: Vec<Arc<RunResult>> = Vec::with_capacity(prepared.len());
        for (i, (p, _)) in prepared.iter().enumerate() {
            let run = if leader[i] == i {
                let run = outcomes.next().expect("one outcome per leader")?.run;
                self.totals.add(&run);
                run
            } else {
                // Committed earlier in this loop: a failed leader has
                // already returned its error.
                let lead = &committed[leader[i]];
                let (stats, ticked) = (lead.stats.clone(), lead.ticked_cycles);
                let shared_with = Some(lead.strategy);
                Arc::new(p.result(missing[i].config, stats, ticked, baseline, shared_with))
            };
            self.cache.store(&missing[i], &run);
            committed.push(run);
        }
        compile_failure.map_or(Ok(()), Err)
    }

    /// Diagnose a configuration: build its CPI stack and per-region
    /// classification from the measured run (cached, or run now exactly
    /// as [`Experiment::run_on`] would), then re-simulate the image that
    /// run compiled under each [`KnobId::ALL`] idealization across host
    /// threads, reporting each knob's speedup ceiling.
    ///
    /// The measured run is never perturbed: an idealized run has no
    /// [`RunSpec::key`], so its result lives only in the returned report
    /// and a sweep that also asks for what-ifs serves byte-identical
    /// `RunResult`s. Idealized runs are still validated against the
    /// golden memory — idealization changes timing, never architectural
    /// output.
    ///
    /// # Errors
    /// Propagates configuration failures (measured or idealized).
    pub fn whatif_on(
        &mut self,
        strategy: Strategy,
        cores: usize,
        backend: CoherenceBackend,
    ) -> Result<WhatIfReport, SystemError> {
        let mut report = WhatIfReport::diagnose(self.run_on(strategy, cores, backend)?);
        let specs = KnobId::ALL.map(|knob| RunSpec {
            ideal: knob.knobs(),
            ..self.settings.plain((strategy, cores, backend))
        });
        let outcomes = fan_out(&specs, |spec| {
            self.cache
                .run(self.program, &self.reference, &self.pool, spec)
        });
        for (knob, outcome) in KnobId::ALL.into_iter().zip(outcomes) {
            let run = outcome?.run;
            self.totals.add(&run);
            report.ceiling(knob, run.cycles);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;

    /// A program the oracle runs to completion must not run out of fuel
    /// in the compiler's profiling pass.
    #[test]
    fn profiling_and_golden_runs_share_one_budget() {
        assert_eq!(CompileOptions::default().profile_fuel, GOLDEN_FUEL);
    }

    fn doall_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 400);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 400i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.mul(iv, 5i64);
            f.store8(ad, 0, v);
        });
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    #[test]
    fn hybrid_beats_serial_on_doall() {
        let p = doall_program();
        let mut exp = Experiment::new(&p).unwrap();
        let r = exp.run(Strategy::Hybrid, 4).unwrap();
        assert!(r.speedup > 1.3, "speedup {}", r.speedup);
        let r2 = exp.run(Strategy::Llp, 2).unwrap();
        assert!(r2.speedup > 1.0, "2-core LLP speedup {}", r2.speedup);
    }

    #[test]
    fn breakdown_sums_to_one() {
        let p = doall_program();
        let mut exp = Experiment::new(&p).unwrap();
        let frac = exp
            .run(Strategy::Hybrid, 4)
            .unwrap()
            .parallelism_breakdown();
        let sum: f64 = frac.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(frac[2] > 0.5, "doall should dominate: {frac:?}");
    }

    #[test]
    fn equivalence_tolerates_fp_reassociation() {
        let mut d = voltron_ir::DataSegment::default();
        d.zeroed("x", 16);
        let mut a = Memory::from_data(&d);
        let mut b = Memory::from_data(&d);
        let base = voltron_ir::DataSegment::BASE;
        a.store_f64(base, 0.1 + 0.2).unwrap();
        b.store_f64(base, 0.3).unwrap(); // differs in the last ulp
        assert!(outputs_equivalent(&a, &b).is_ok());
        // Integer differences are never tolerated.
        a.store_uint(base + 8, 8, 41).unwrap();
        b.store_uint(base + 8, 8, 42).unwrap();
        assert!(outputs_equivalent(&a, &b).is_err());
    }

    #[test]
    fn cycle_budget_bounds_a_run() {
        let p = doall_program();
        let mut exp = Experiment::new(&p).unwrap();
        exp.set_cycle_budget(Some(10));
        match exp.run(Strategy::Serial, 1) {
            Err(SystemError::Sim(voltron_sim::SimError::MaxCycles(10))) => {}
            other => panic!("expected a budget overrun, got {other:?}"),
        }
        // A failed run is not cached; lifting the budget recovers.
        exp.set_cycle_budget(None);
        assert!(exp.run(Strategy::Serial, 1).is_ok());
    }

    #[test]
    fn whatif_reports_exact_stack_and_sane_ceilings() {
        let p = doall_program();
        let mut exp = Experiment::new(&p).unwrap();
        let before = exp.run(Strategy::Hybrid, 4).unwrap().cycles;
        let report = exp
            .whatif_on(Strategy::Hybrid, 4, CoherenceBackend::Snooping)
            .unwrap();
        assert_eq!(report.measured_cycles, before);
        assert!(report.stack.is_exact(), "machine stack must sum exactly");
        for r in &report.regions {
            assert!(r.stack.is_exact(), "region {} stack must sum", r.region);
        }
        assert_eq!(report.ceilings.len(), KnobId::ALL.len());
        for c in &report.ceilings {
            assert!(
                c.speedup_ceiling >= 1.0 - 1e-9,
                "{} ceiling {} < 1",
                c.knob,
                c.speedup_ceiling
            );
        }
        assert!(report.best_ceiling().speedup_ceiling >= 1.0);
        // The measured run in the cache is byte-identical to the
        // pre-what-if result: idealized runs never touch the cache.
        assert_eq!(exp.run(Strategy::Hybrid, 4).unwrap().cycles, before);
    }

    #[test]
    fn serial_strategy_has_speedup_one() {
        let p = doall_program();
        let mut exp = Experiment::new(&p).unwrap();
        let r = exp.run(Strategy::Serial, 4).unwrap();
        // Serial on a 4-core machine runs on the master only.
        assert!((r.speedup - 1.0).abs() < 0.05, "speedup {}", r.speedup);
    }
}
