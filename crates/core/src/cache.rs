//! The run cache: what is kept per program ([`ProgramCache`]: golden
//! memory and serial baseline, two front ends, one image per
//! configuration, one result per [`ResultKey`]) and across programs
//! ([`MachinePool`]). [`ProgramCache::run`] takes one [`RunSpec`] through
//! all of it, and the rules are written here only: *which runs are cached*
//! is [`RunSpec::key`]; *a failed run caches nothing* because only a
//! [`RunResult`] can be stored; *which machines are reused* is
//! [`simulate`]. `Experiment` (batching, host fan-out) and the serve
//! engine (program lookup, request counters, the wire) are two views of
//! these types (DESIGN.md §12.2).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use voltron_compiler::{CompileOptions, FrontEnd};
use voltron_ir::{Memory, Program};
use voltron_sim::{
    CoherenceBackend, FaultPlan, IdealKnobs, Machine, MachineConfig, SealedImage, SimError,
};

use crate::{
    front_end, machine_config, prepare, run_checked, run_reference, sim_config, Config, ObsRequest,
    Observed, Prepared, RunResult, Strategy, SystemError,
};

/// The serial 1-core configuration every speedup is normalized by.
const BASELINE: Config = (Strategy::Serial, 1, CoherenceBackend::Snooping);

/// One run, fully specified: everything that can change what a
/// simulation of a program does or returns.
#[derive(Debug, Clone)]
pub struct RunSpec<'a> {
    /// The (strategy, cores, backend) point.
    pub config: Config,
    /// Cap on simulated cycles (never raises the machine's own).
    pub cycle_budget: Option<u64>,
    /// Fault plan to inject, if any.
    pub faults: Option<&'a FaultPlan>,
    /// Hardware resources to idealize (a what-if's re-simulations).
    pub ideal: IdealKnobs,
    /// Observers to attach.
    pub obs: ObsRequest,
    /// Simulate even if a result is cached, and do not cache the result.
    pub fresh: bool,
}

/// What a cached result is keyed by — the configuration, the cycle budget
/// and the fault plan: everything a cacheable run's numbers can depend on
/// besides the program. The plan is held `{:?}`-rendered: its `f64` rate
/// keeps `FaultPlan` from being `Eq + Hash`, and its `--faults` spec
/// string leaves out directed events.
pub type ResultKey = (Config, Option<u64>, Option<String>);

fn fault_key(plan: &FaultPlan) -> String {
    format!("{plan:?}")
}

impl RunSpec<'_> {
    /// A plain run of `config`: no budget, no faults, nothing idealized
    /// or observed, cacheable.
    pub fn new(config: Config) -> RunSpec<'static> {
        RunSpec {
            config,
            cycle_budget: None,
            faults: None,
            ideal: IdealKnobs::default(),
            obs: ObsRequest::default(),
            fresh: false,
        }
    }

    /// The key this run's result is cached under, or `None` when it may
    /// be neither served from the result layer nor stored in it: an
    /// observed run is asked for because its artifacts are wanted, an
    /// idealized run is not a measurement of the machine, and a `fresh`
    /// one asked to be simulated. Cached results are therefore always the
    /// exact object a plain run produced.
    pub fn key(&self) -> Option<ResultKey> {
        let plain =
            !self.fresh && self.ideal == IdealKnobs::default() && self.obs == ObsRequest::default();
        plain.then(|| (self.config, self.cycle_budget, self.faults.map(fault_key)))
    }
}

/// Which layers a run found warm: the response row's `cache` block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheInfo {
    /// The golden memory + serial baseline were already resident (set by
    /// whoever called [`ProgramCache::reference`] for this run).
    pub golden_hit: bool,
    /// The compiler front end was already built.
    pub front_end_hit: bool,
    /// The compiled machine image was already built.
    pub image_hit: bool,
    /// The run was served from the result layer (no simulation at all).
    pub result_hit: bool,
    /// The machine came from the pool (rebooted) rather than being built.
    pub machine_pooled: bool,
}

/// `[hits, misses]` of one layer, counted where the lookup happens.
type Tally = [AtomicU64; 2];

fn note(tally: &Tally, hit: bool) -> bool {
    tally[usize::from(!hit)].fetch_add(1, Ordering::Relaxed);
    hit
}

fn tallied(tally: &Tally) -> (u64, u64) {
    let [hits, misses] = tally.each_ref().map(|n| n.load(Ordering::Relaxed));
    (hits, misses)
}

/// What every run of one program is held to and normalized by.
#[derive(Debug)]
pub struct Reference {
    /// The reference interpreter's final memory.
    pub memory: Memory,
    /// Serial 1-core execution time: the speedup denominator.
    pub baseline_cycles: u64,
    /// Cycles the simulator actually ticked during the baseline run.
    pub baseline_ticked_cycles: u64,
}

/// The pool's key: machines of one shape are interchangeable after a reboot.
fn shape(cfg: &MachineConfig) -> (usize, &'static str) {
    (cfg.cores, cfg.coherence.label())
}

/// Parked machines per (cores, backend label) shape, revived by
/// [`Machine::reboot`], whose reuse-equals-fresh contract the golden and
/// serve suites pin. Every product simulation draws its machine here; a
/// machine whose run failed, mismatched the golden memory or panicked
/// never comes back.
#[derive(Debug)]
pub struct MachinePool {
    parked: Mutex<HashMap<(usize, &'static str), Vec<Machine>>>,
    cap: usize,
    reuse: Tally,
    retired: AtomicU64,
}

impl MachinePool {
    /// An empty pool that parks at most `cap` machines per shape.
    pub fn new(cap: usize) -> MachinePool {
        MachinePool {
            parked: Mutex::new(HashMap::new()),
            cap: cap.max(1),
            reuse: Tally::default(),
            retired: AtomicU64::new(0),
        }
    }

    /// A machine booted on `image` under `cfg`: a parked one of that
    /// shape or an empty one, rebooted; `true` when it was pooled.
    fn checkout(
        &self,
        image: &Arc<SealedImage>,
        cfg: &MachineConfig,
    ) -> Result<(Machine, bool), SimError> {
        let mut parked = self.parked.lock().expect("pool lock");
        let machine = parked.get_mut(&shape(cfg)).and_then(Vec::pop);
        drop(parked);
        let pooled = note(&self.reuse, machine.is_some());
        let mut machine = machine.unwrap_or_default();
        machine.reboot(image, cfg)?;
        Ok((machine, pooled))
    }

    /// Park a machine that finished a validated run under `cfg`.
    fn checkin(&self, cfg: &MachineConfig, machine: Machine) {
        let mut parked = self.parked.lock().expect("pool lock");
        let list = parked.entry(shape(cfg)).or_default();
        if list.len() < self.cap {
            return list.push(machine);
        }
        drop(parked);
        self.retire(machine);
    }

    /// Drop a machine for good: wedged, budget-blown, wrong, or surplus.
    fn retire(&self, machine: Machine) {
        drop(machine);
        self.retired.fetch_add(1, Ordering::Relaxed);
    }

    /// Machines currently parked, over all shapes.
    pub fn parked(&self) -> usize {
        let parked = self.parked.lock().expect("pool lock");
        parked.values().map(Vec::len).sum()
    }

    /// `(rebooted, built)` checkouts so far.
    pub fn reuse(&self) -> (u64, u64) {
        tallied(&self.reuse)
    }

    /// Machines dropped rather than parked so far.
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Relaxed)
    }
}

/// One simulation of a compiled configuration (with the layers compiling
/// it found warm) on a pooled machine, held to `golden`: [`sim_config`],
/// checkout, [`run_checked`], then park the machine — or retire it with
/// the error. Touches no cache layer; the image was validated when
/// [`prepare`] sealed it.
pub(crate) fn simulate(
    (prepared, layers): &(Arc<Prepared>, CacheInfo),
    golden: &Memory,
    baseline_cycles: u64,
    pool: &MachinePool,
    spec: &RunSpec<'_>,
) -> Result<Observed, SystemError> {
    let cfg = sim_config(spec);
    let (mut machine, machine_pooled) = pool.checkout(&prepared.image, &cfg)?;
    let out = match run_checked(&mut machine, spec.config, golden, &spec.obs) {
        Ok(out) => out,
        Err(e) => {
            pool.retire(machine);
            return Err(e);
        }
    };
    pool.checkin(&cfg, machine);
    let run = prepared.result(
        spec.config,
        out.stats,
        out.ticked_cycles,
        baseline_cycles,
        None,
    );
    Ok(Observed {
        run: Arc::new(run),
        trace_json: out.trace,
        probes: out.probes,
        cache: CacheInfo {
            machine_pooled,
            ..*layers
        },
    })
}

/// Everything kept about one program, top to bottom: golden memory and
/// serial baseline, the two front ends, compiled images, results. Every
/// method takes `&self`; nothing that can panic on request data runs
/// under a layer's lock.
#[derive(Debug, Default)]
pub struct ProgramCache {
    reference: Mutex<Option<Arc<Reference>>>,
    /// Front ends, indexed by [`FrontEnd::key`].
    front_ends: Mutex<[Option<Arc<FrontEnd>>; 2]>,
    images: Mutex<HashMap<Config, Arc<Prepared>>>,
    results: Mutex<HashMap<ResultKey, Arc<RunResult>>>,
    /// Lookups of each layer above.
    reference_tally: Tally,
    front_end_tally: Tally,
    image_tally: Tally,
    result_tally: Tally,
}

impl ProgramCache {
    /// The golden memory and the serial baseline, computed once: the
    /// reference interpreter, then one [`BASELINE`] run — fault-free,
    /// capped at `cycle_budget` so a hanging program cannot hold its
    /// first caller, through the image layer and the pool like any other
    /// run, but never stored as a result. `true` when already resident.
    ///
    /// # Errors
    /// Fails if the reference run or the baseline build or run fails;
    /// nothing is kept, so a later call starts over.
    pub fn reference(
        &self,
        program: &Program,
        pool: &MachinePool,
        cycle_budget: Option<u64>,
    ) -> Result<(Arc<Reference>, bool), SystemError> {
        let mut slot = self.reference.lock().expect("reference lock");
        if let Some(r) = slot.as_ref() {
            return Ok((Arc::clone(r), note(&self.reference_tally, true)));
        }
        note(&self.reference_tally, false);
        let memory = run_reference(program)?.memory;
        let compiled = self.prepared(program, BASELINE)?;
        let spec = RunSpec {
            cycle_budget,
            ..RunSpec::new(BASELINE)
        };
        // Baseline 0: the baseline run's own speedup is meaningless.
        let base = simulate(&compiled, &memory, 0, pool, &spec)?.run;
        let r = Arc::new(Reference {
            memory,
            baseline_cycles: base.cycles,
            baseline_ticked_cycles: base.ticked_cycles,
        });
        *slot = Some(Arc::clone(&r));
        Ok((r, false))
    }

    /// The compiled image (and planner maps) of `config`, built once from
    /// the front end in its slot, itself built at most once; the flags
    /// say which of the two layers were warm.
    ///
    /// # Errors
    /// Propagates front-end and compile failures; nothing is kept.
    pub fn prepared(
        &self,
        program: &Program,
        config: Config,
    ) -> Result<(Arc<Prepared>, CacheInfo), SystemError> {
        let (strategy, cores, _) = config;
        // Before the lock is taken: a core count the machine model rejects
        // panics here, and a panic under the lock would poison this
        // program's front-end layer for every later caller.
        let geometry = machine_config(cores, CoherenceBackend::Snooping);
        let idx = usize::from(FrontEnd::key(
            strategy,
            &geometry,
            &CompileOptions::default(),
        ));
        let mut slots = self.front_ends.lock().expect("front-end lock");
        let front_end_hit = note(&self.front_end_tally, slots[idx].is_some());
        let fe = match &slots[idx] {
            Some(fe) => Arc::clone(fe),
            None => {
                let fe = Arc::new(front_end(program, strategy, cores)?);
                slots[idx] = Some(Arc::clone(&fe));
                fe
            }
        };
        drop(slots);
        let resident = self
            .images
            .lock()
            .expect("image lock")
            .get(&config)
            .cloned();
        let image_hit = note(&self.image_tally, resident.is_some());
        let prepared = match resident {
            Some(p) => p,
            None => {
                let p = Arc::new(prepare(&fe, config)?);
                let mut images = self.images.lock().expect("image lock");
                // A racing caller may have inserted first; keep the
                // resident one so every machine shares one allocation.
                Arc::clone(images.entry(config).or_insert(p))
            }
        };
        let info = CacheInfo {
            front_end_hit,
            image_hit,
            ..CacheInfo::default()
        };
        Ok((prepared, info))
    }

    /// The cached result `spec` may be answered with, if there is one.
    pub fn cached(&self, spec: &RunSpec<'_>) -> Option<Arc<RunResult>> {
        let key = spec.key()?;
        let hit = self
            .results
            .lock()
            .expect("results lock")
            .get(&key)
            .cloned();
        note(&self.result_tally, hit.is_some());
        hit
    }

    /// [`ProgramCache::cached`] as a borrow, for a caller that owns the
    /// cache outright.
    pub(crate) fn cached_mut(&mut self, spec: &RunSpec<'_>) -> Option<&RunResult> {
        let results = self.results.get_mut().expect("results lock");
        results.get(&spec.key()?).map(|r| &**r)
    }

    /// Keep `run` as the answer to `spec`, if `spec` may be cached.
    pub(crate) fn store(&self, spec: &RunSpec<'_>, run: &Arc<RunResult>) {
        if let Some(key) = spec.key() {
            let mut results = self.results.lock().expect("results lock");
            results.insert(key, Arc::clone(run));
        }
    }

    /// Every result cached under `cycle_budget` and `faults`.
    pub fn results(
        &self,
        cycle_budget: Option<u64>,
        faults: Option<&FaultPlan>,
    ) -> Vec<Arc<RunResult>> {
        let faults = faults.map(fault_key);
        let results = self.results.lock().expect("results lock");
        let under = results
            .iter()
            .filter(|((_, b, f), _)| *b == cycle_budget && *f == faults);
        under.map(|(_, r)| Arc::clone(r)).collect()
    }

    /// Run one specification: answer it from the result layer when
    /// [`RunSpec::key`] allows and a result is there, else compile through
    /// the front-end and image layers, [`simulate`] on a pooled machine,
    /// and store the result when the key allows.
    ///
    /// # Errors
    /// Compile, simulation or golden-compare failure; nothing is stored.
    pub fn run(
        &self,
        program: &Program,
        reference: &Reference,
        pool: &MachinePool,
        spec: &RunSpec<'_>,
    ) -> Result<Observed, SystemError> {
        if let Some(run) = self.cached(spec) {
            return Ok(Observed {
                run,
                trace_json: String::new(),
                probes: None,
                cache: CacheInfo {
                    front_end_hit: true,
                    image_hit: true,
                    result_hit: true,
                    ..CacheInfo::default()
                },
            });
        }
        let compiled = self.prepared(program, spec.config)?;
        let (golden, baseline) = (&reference.memory, reference.baseline_cycles);
        let out = simulate(&compiled, golden, baseline, pool, spec)?;
        self.store(spec, &out.run);
        Ok(out)
    }

    /// `(hits, misses)` of the reference, front-end, image and result
    /// layers, in that order.
    pub fn counts(&self) -> [(u64, u64); 4] {
        let layers = [
            &self.reference_tally,
            &self.front_end_tally,
            &self.image_tally,
            &self.result_tally,
        ];
        layers.map(tallied)
    }
}
