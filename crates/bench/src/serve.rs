//! `voltron-serve`: a persistent simulation service.
//!
//! The one-shot commands (`voltron bench_one`, the `fig*` sweeps) pay the
//! full pipeline on every invocation: interpret the golden model, profile and
//! compile the program, build a machine, simulate, tear everything down.
//! For interactive exploration and CI farms that ask many small questions
//! about the same workloads, almost all of that work is re-derivable from
//! content alone. This module keeps it resident:
//!
//! * **Content-addressed caching** ([`Engine`]): programs are keyed by a
//!   hash of their printed IR (not their name), so two requests for the
//!   same content share one golden memory, one serial baseline, at most
//!   two compiler [`FrontEnd`]s (see [`front_end_slot`]), one compiled
//!   [`Prepared`] image per (strategy, cores, backend), and — when a
//!   request carries no observability or idealization — one cached
//!   [`RunResult`]. The engine owns the content hash, these cache layers,
//!   the machine pool and the counters, nothing else: what it compiles,
//!   how a run is configured, checked and diagnosed are `voltron-core`'s
//!   `prepare` / `sim_config` / `run_checked` / `WhatIfReport::diagnose`,
//!   the functions `Experiment` itself runs on, so served == direct is
//!   shared code.
//! * **Pooled, resettable machines**: simulated machines are expensive to
//!   allocate (caches, network CAMs, TM buffers). Finished machines park
//!   in per-(cores, backend) free-lists and are revived with
//!   [`Machine::reset`], whose reuse-equals-fresh contract is pinned by
//!   the golden tests. A machine that panics, errors, or fails output
//!   validation is *retired* (dropped), never re-pooled.
//! * **A work-stealing scheduler** ([`Server`]): requests land in bounded
//!   per-worker queues; idle workers steal from the back of busy ones.
//!   Each simulation runs under `catch_unwind`, so one poisoned request
//!   becomes a typed error row while the daemon keeps serving.
//!
//! The wire protocol is line-delimited JSON over TCP or stdin (see
//! [`parse_request`] / [`Response::to_json`]); rows carry the same run
//! fields as the `BENCH_*.json` sidecars. DESIGN.md §12 documents the
//! invariants.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use voltron_compiler::FrontEnd;
use voltron_core::report::Json;
use voltron_core::{
    front_end, front_end_slot, prepare, run_checked, run_reference, sim_config, Config, KnobId,
    ObsRequest, Observed, Prepared, ProbeSummary, RunResult, SimEnv, Strategy, SystemError,
    WhatIfReport,
};
use voltron_ir::{Memory, Program};
use voltron_sim::{
    CoherenceBackend, FaultPlan, IdealKnobs, Machine, MachineConfig, MachineProgram,
};
use voltron_workloads::{by_name, Scale};

use crate::harness::{checked_cores, panic_message, DEFAULT_PROBE_PERIOD};
use crate::jsonv::JValue;

/// The scale label used on the wire and in pool/report keys.
pub fn scale_label(scale: Scale) -> &'static str {
    match scale {
        Scale::Test => "test",
        Scale::Full => "full",
    }
}

/// One simulation request, as carried on the wire.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response row.
    pub id: u64,
    /// Workload name (must exist in `voltron_workloads::all`).
    pub workload: String,
    /// Workload scale (wire default: `test`).
    pub scale: Scale,
    /// Compilation strategy (wire default: `hybrid`).
    pub strategy: Strategy,
    /// Core count (wire default: 4).
    pub cores: usize,
    /// Coherence backend; the wire names the family and the bank count
    /// resolves per core count (`CoherenceBackend::sized_for`), exactly
    /// as on the command line.
    pub backend: CoherenceBackend,
    /// Per-request deadline as a simulated-cycle budget: the run fails
    /// with a typed `sim` error instead of holding a worker.
    pub budget_cycles: Option<u64>,
    /// Fault plan (`seed=N,rate=R[,site=LABEL]` syntax).
    pub faults: Option<FaultPlan>,
    /// Bypass the result cache: always simulate, and don't publish the
    /// result. Load generators use this to measure true simulation
    /// throughput; trace/probe requests imply it.
    pub fresh: bool,
    /// Attach the bottleneck what-if report to the response.
    pub whatif: bool,
    /// Sample interval probes (at the harness default period) and attach
    /// their summary.
    pub probes: bool,
    /// Attach the Chrome trace-event JSON.
    pub trace: bool,
}

impl Request {
    /// A plain request for one configuration (the defaults the wire uses).
    pub fn new(workload: &str, strategy: Strategy, cores: usize) -> Request {
        Request {
            id: 0,
            workload: workload.to_string(),
            scale: Scale::Test,
            strategy,
            cores,
            backend: CoherenceBackend::Snooping,
            budget_cycles: None,
            faults: None,
            fresh: false,
            whatif: false,
            probes: false,
            trace: false,
        }
    }
}

/// A typed request failure. The daemon never dies for a bad request: the
/// kind is the machine-readable row discriminator, the message is for
/// humans.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The request line did not parse or had invalid fields.
    BadRequest(String),
    /// No workload of that name exists at that scale.
    UnknownWorkload(String),
    /// Compilation failed.
    Compile(String),
    /// Simulation failed (budget exhaustion lands here as `MaxCycles`).
    Sim(String),
    /// The golden (interpreter) run failed.
    Golden(String),
    /// The machine's output disagreed with the golden model.
    Mismatch(String),
    /// The simulation panicked; the worker survived, the machine was
    /// retired.
    Panic(String),
}

impl ServeError {
    /// Machine-readable discriminator for the response row.
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::BadRequest(_) => "bad-request",
            ServeError::UnknownWorkload(_) => "unknown-workload",
            ServeError::Compile(_) => "compile",
            ServeError::Sim(_) => "sim",
            ServeError::Golden(_) => "golden",
            ServeError::Mismatch(_) => "mismatch",
            ServeError::Panic(_) => "panic",
        }
    }

    /// Human-readable detail.
    pub fn message(&self) -> &str {
        match self {
            ServeError::BadRequest(m)
            | ServeError::UnknownWorkload(m)
            | ServeError::Compile(m)
            | ServeError::Sim(m)
            | ServeError::Golden(m)
            | ServeError::Mismatch(m)
            | ServeError::Panic(m) => m,
        }
    }
}

impl From<SystemError> for ServeError {
    fn from(e: SystemError) -> ServeError {
        match e {
            SystemError::Compile(c) => ServeError::Compile(c.to_string()),
            SystemError::Sim(s) => ServeError::Sim(s.to_string()),
            SystemError::Golden(g) => ServeError::Golden(g.to_string()),
            SystemError::OutputMismatch { .. } => ServeError::Mismatch(e.to_string()),
        }
    }
}

/// Which cache layers a request hit (for the response row and the
/// saturation benchmark's hit-rate report).
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheInfo {
    /// The golden memory + serial baseline were already resident.
    pub golden_hit: bool,
    /// The compiler front end was already built.
    pub front_end_hit: bool,
    /// The compiled machine image was already built.
    pub image_hit: bool,
    /// The run was served from the result cache (no simulation at all).
    pub result_hit: bool,
    /// The machine came from the free-list (reset) rather than `new`.
    pub machine_pooled: bool,
}

/// A successfully served request.
#[derive(Debug)]
pub struct Served {
    /// The architectural result — field-for-field what the direct
    /// `Experiment` path produces for the same configuration.
    pub run: Arc<RunResult>,
    /// Serial 1-core cycles (the speedup denominator).
    pub baseline_cycles: u64,
    /// Bottleneck report, when requested.
    pub whatif: Option<WhatIfReport>,
    /// Interval probe summary, when requested.
    pub probes: Option<ProbeSummary>,
    /// Chrome trace-event JSON, when requested.
    pub trace_json: Option<String>,
    /// Cache layers hit.
    pub cache: CacheInfo,
    /// Host microseconds spent executing (queue wait excluded).
    pub host_micros: u64,
}

/// One response row. `Run` carries the simulation result; `Stats` answers
/// an in-band `{"stats": true}` probe with the daemon's counters.
#[derive(Debug)]
pub enum Response {
    /// A simulation response.
    Run {
        /// Echoed request id.
        id: u64,
        /// Echoed workload name.
        workload: String,
        /// Echoed scale label.
        scale: &'static str,
        /// End-to-end latency (queue wait + execution), microseconds.
        latency_micros: u64,
        /// The result or a typed error.
        result: Result<Box<Served>, ServeError>,
    },
    /// A server-statistics response.
    Stats {
        /// Echoed request id.
        id: u64,
        /// The counters document.
        stats: Json,
    },
}

impl Response {
    /// The row for a request that never reached a worker: a typed
    /// `bad-request` error echoing what could be read of it.
    fn bad_request(id: u64, workload: &str, message: String) -> Response {
        Response::Run {
            id,
            workload: workload.to_string(),
            scale: "test",
            latency_micros: 0,
            result: Err(ServeError::BadRequest(message)),
        }
    }

    /// The echoed request id.
    pub fn id(&self) -> u64 {
        match self {
            Response::Run { id, .. } | Response::Stats { id, .. } => *id,
        }
    }

    /// Render the NDJSON wire row. Run rows carry the same fields as a
    /// `BENCH_*.json` run entry (strategy/cores/backend/cycles/speedup/
    /// dominant_stall) plus serve metadata; error rows carry the typed
    /// kind and message.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Stats { id, stats } => Json::Obj(vec![
                ("id".into(), Json::UInt(*id)),
                ("ok".into(), Json::UInt(1)),
                ("stats".into(), stats.clone()),
            ]),
            Response::Run {
                id,
                workload,
                scale,
                latency_micros,
                result,
            } => {
                let mut fields = vec![
                    ("id".into(), Json::UInt(*id)),
                    ("workload".into(), Json::Str(workload.clone())),
                    ("scale".into(), Json::Str((*scale).into())),
                ];
                match result {
                    Err(e) => {
                        fields.push(("ok".into(), Json::UInt(0)));
                        fields.push(("error".into(), Json::Str(e.kind().into())));
                        fields.push(("message".into(), Json::Str(e.message().into())));
                    }
                    Ok(s) => {
                        let r = &s.run;
                        fields.push(("ok".into(), Json::UInt(1)));
                        fields.push(("strategy".into(), Json::Str(r.strategy.to_string())));
                        fields.push(("cores".into(), Json::UInt(r.cores as u64)));
                        fields.push(("backend".into(), Json::Str(r.backend.label().into())));
                        fields.push(("cycles".into(), Json::UInt(r.cycles)));
                        fields.push(("ticked_cycles".into(), Json::UInt(r.ticked_cycles)));
                        fields.push(("speedup".into(), Json::Num(r.speedup)));
                        fields.push(("baseline_cycles".into(), Json::UInt(s.baseline_cycles)));
                        if let Some((reason, _)) = r.stats.dominant_stall() {
                            fields.push(("dominant_stall".into(), Json::Str(reason.to_string())));
                        }
                        fields.push((
                            "cache".into(),
                            Json::Obj(vec![
                                ("golden".into(), hit(s.cache.golden_hit)),
                                ("front_end".into(), hit(s.cache.front_end_hit)),
                                ("image".into(), hit(s.cache.image_hit)),
                                ("result".into(), hit(s.cache.result_hit)),
                                (
                                    "machine".into(),
                                    Json::Str(
                                        if s.cache.machine_pooled {
                                            "pooled"
                                        } else {
                                            "fresh"
                                        }
                                        .into(),
                                    ),
                                ),
                            ]),
                        ));
                        if let Some(w) = &s.whatif {
                            fields.push(("whatif".into(), crate::harness::whatif_json(w)));
                        }
                        if let Some(p) = &s.probes {
                            fields.push(("probes".into(), crate::harness::probe_summary_json(p)));
                        }
                        if r.stats.faults.any() {
                            fields.push((
                                "faults".into(),
                                crate::harness::fault_stats_json(&r.stats.faults),
                            ));
                        }
                        if let Some(t) = &s.trace_json {
                            fields.push(("trace".into(), Json::Str(t.clone())));
                        }
                        fields.push(("host_micros".into(), Json::UInt(s.host_micros)));
                    }
                }
                fields.push(("latency_micros".into(), Json::UInt(*latency_micros)));
                Json::Obj(fields)
            }
        }
    }
}

fn hit(b: bool) -> Json {
    Json::Str(if b { "hit" } else { "miss" }.into())
}

/// Parse one NDJSON request line. `{"stats": true}` probes are handled by
/// the connection loop before this is called.
///
/// # Errors
/// A human-readable message naming the offending field.
pub fn parse_request(v: &JValue) -> Result<Request, String> {
    let workload = v
        .get("workload")
        .and_then(JValue::as_str)
        .ok_or("missing 'workload'")?;
    let mut req = Request::new(workload, Strategy::Hybrid, 4);
    if let Some(id) = v.get("id") {
        req.id = id.as_num().ok_or("'id' must be a number")? as u64;
    }
    if let Some(s) = v.get("scale") {
        let s = s.as_str().ok_or("'scale' must be a string")?;
        let scale = [Scale::Test, Scale::Full]
            .into_iter()
            .find(|&k| scale_label(k) == s);
        req.scale = scale.ok_or_else(|| format!("unknown scale {s:?}"))?;
    }
    if let Some(s) = v.get("strategy") {
        let s = s.as_str().ok_or("'strategy' must be a string")?;
        req.strategy = Strategy::parse(s).ok_or_else(|| format!("unknown strategy {s:?}"))?;
    }
    if let Some(c) = v.get("cores") {
        let c = c.as_num().ok_or("'cores' must be a number")?;
        req.cores = checked_cores(c).map_err(|e| format!("'cores': {e}"))?;
    }
    if let Some(b) = v.get("backend") {
        let b = b.as_str().ok_or("'backend' must be a string")?;
        let family = CoherenceBackend::parse(b).ok_or_else(|| format!("unknown backend {b:?}"))?;
        req.backend = family.sized_for(req.cores);
    }
    if let Some(n) = v.get("budget_cycles") {
        req.budget_cycles = Some(n.as_num().ok_or("'budget_cycles' must be a number")? as u64);
    }
    if let Some(f) = v.get("faults") {
        let spec = f.as_str().ok_or("'faults' must be a spec string")?;
        req.faults = Some(FaultPlan::parse(spec)?);
    }
    let flag = |field: &str| -> Result<bool, String> {
        match v.get(field) {
            None => Ok(false),
            Some(JValue::Bool(x)) => Ok(*x),
            Some(_) => Err(format!("'{field}' must be a boolean")),
        }
    };
    req.fresh = flag("fresh")?;
    req.whatif = flag("whatif")?;
    req.probes = flag("probes")?;
    req.trace = flag("trace")?;
    Ok(req)
}

// ---------------------------------------------------------------------------
// Content-addressed engine
// ---------------------------------------------------------------------------

/// FNV-1a over the printed IR: names are *not* part of the identity, so
/// renaming a workload (or requesting the same content under two names)
/// shares every cache layer.
fn content_hash(program: &Program) -> u64 {
    let text = voltron_ir::pretty::program_to_string(program);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Golden model + serial baseline for one program, computed once.
struct Golden {
    memory: Memory,
    baseline_cycles: u64,
}

/// Key of one cached result: everything that can move the architectural
/// numbers. Observed or idealized runs never cache (as in
/// `Experiment::run_observed_on`), so neither appears here.
type ResultKey = (Config, Option<u64>, Option<String>);

/// Everything the engine keeps per distinct program content.
struct ProgramEntry {
    program: Program,
    golden: Mutex<Option<Arc<Golden>>>,
    /// Front ends, indexed by [`front_end_slot`].
    front_ends: Mutex<[Option<Arc<FrontEnd>>; 2]>,
    images: Mutex<HashMap<Config, Arc<Prepared>>>,
    results: Mutex<HashMap<ResultKey, Arc<RunResult>>>,
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
    golden_hits: AtomicU64,
    golden_misses: AtomicU64,
    fe_hits: AtomicU64,
    fe_misses: AtomicU64,
    image_hits: AtomicU64,
    image_misses: AtomicU64,
    result_hits: AtomicU64,
    pool_hits: AtomicU64,
    pool_misses: AtomicU64,
    retired: AtomicU64,
}

/// The content-addressed simulation engine: program registry, compile
/// caches, result cache, and the machine pool. Thread-safe; every method
/// takes `&self`.
pub struct Engine {
    /// (workload name, scale label) → content hash, so repeat requests
    /// skip re-rendering the IR.
    names: Mutex<HashMap<(String, &'static str), u64>>,
    programs: Mutex<HashMap<u64, Arc<ProgramEntry>>>,
    /// Parked machines per (cores, backend label); revived by
    /// [`Machine::reset`].
    pool: Mutex<HashMap<(usize, &'static str), Vec<Machine>>>,
    pool_cap: usize,
    counters: Counters,
}

impl Engine {
    /// An empty engine whose free-lists keep at most `pool_cap` machines
    /// per (cores, backend) shape.
    pub fn new(pool_cap: usize) -> Engine {
        Engine {
            names: Mutex::new(HashMap::new()),
            programs: Mutex::new(HashMap::new()),
            pool: Mutex::new(HashMap::new()),
            pool_cap: pool_cap.max(1),
            counters: Counters::default(),
        }
    }

    /// Execute one request to completion on the calling thread.
    ///
    /// # Errors
    /// A typed [`ServeError`]; the engine stays fully serviceable.
    pub fn execute(&self, req: &Request) -> Result<Served, ServeError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let t0 = Instant::now();
        let out = self.execute_inner(req, t0);
        match &out {
            Ok(_) => self.counters.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.counters.errors.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    fn execute_inner(&self, req: &Request, t0: Instant) -> Result<Served, ServeError> {
        let entry = self.entry(&req.workload, req.scale)?;
        let (golden, golden_hit) = self.golden(&entry)?;
        let config = (req.strategy, req.cores, req.backend);
        let env = SimEnv {
            golden: &golden.memory,
            cycle_budget: req.budget_cycles,
            faults: req.faults.as_ref(),
        };
        let obs = ObsRequest {
            chrome_trace: req.trace,
            probe_period: req.probes.then_some(DEFAULT_PROBE_PERIOD),
        };
        let cacheable = !req.trace && !req.probes && !req.fresh;
        let result_key: ResultKey = (
            config,
            req.budget_cycles,
            req.faults.as_ref().map(FaultPlan::spec),
        );
        let cached = if cacheable {
            let results = entry.results.lock().expect("results lock");
            results.get(&result_key).cloned()
        } else {
            None
        };
        let (run, probes, trace_json, mut cache) = if let Some(run) = cached {
            self.counters.result_hits.fetch_add(1, Ordering::Relaxed);
            let cache = CacheInfo {
                golden_hit,
                front_end_hit: true,
                image_hit: true,
                result_hit: true,
                machine_pooled: false,
            };
            (run, None, None, cache)
        } else {
            let (observed, mut cache) = self.run_config(
                &entry,
                config,
                env,
                golden.baseline_cycles,
                IdealKnobs::default(),
                &obs,
            )?;
            cache.golden_hit = golden_hit;
            let run = Arc::new(observed.run);
            if cacheable {
                entry
                    .results
                    .lock()
                    .expect("results lock")
                    .insert(result_key, Arc::clone(&run));
            }
            let probes = observed.probes.as_ref().map(|p| p.summary());
            let trace_json = req.trace.then_some(observed.trace_json);
            (run, probes, trace_json, cache)
        };
        let whatif = if req.whatif {
            Some(self.whatif(&entry, config, env, &run, &mut cache)?)
        } else {
            None
        };
        Ok(Served {
            run,
            baseline_cycles: golden.baseline_cycles,
            whatif,
            probes,
            trace_json,
            cache,
            host_micros: t0.elapsed().as_micros() as u64,
        })
    }

    /// Resolve a workload to its content-addressed program entry.
    fn entry(&self, workload: &str, scale: Scale) -> Result<Arc<ProgramEntry>, ServeError> {
        let name_key = (workload.to_string(), scale_label(scale));
        if let Some(h) = self.names.lock().expect("names lock").get(&name_key) {
            let programs = self.programs.lock().expect("programs lock");
            if let Some(e) = programs.get(h) {
                return Ok(Arc::clone(e));
            }
        }
        let w = by_name(workload, scale).ok_or_else(|| {
            ServeError::UnknownWorkload(format!(
                "no workload {workload:?} at scale {}",
                scale_label(scale)
            ))
        })?;
        let h = content_hash(&w.program);
        let entry = {
            let mut programs = self.programs.lock().expect("programs lock");
            Arc::clone(programs.entry(h).or_insert_with(|| {
                Arc::new(ProgramEntry {
                    program: w.program,
                    golden: Mutex::new(None),
                    front_ends: Mutex::new([None, None]),
                    images: Mutex::new(HashMap::new()),
                    results: Mutex::new(HashMap::new()),
                })
            }))
        };
        self.names.lock().expect("names lock").insert(name_key, h);
        Ok(entry)
    }

    /// Golden memory + serial baseline, computed once per program. The
    /// baseline runs unbudgeted and fault-free — like `Experiment::new`'s,
    /// it is the denominator every served speedup shares — and flows
    /// through `run_config`, so its machine comes from the same pool as
    /// every other run's.
    fn golden(&self, entry: &Arc<ProgramEntry>) -> Result<(Arc<Golden>, bool), ServeError> {
        let mut slot = entry.golden.lock().expect("golden lock");
        if let Some(g) = slot.as_ref() {
            self.counters.golden_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(g), true));
        }
        self.counters.golden_misses.fetch_add(1, Ordering::Relaxed);
        let memory = run_reference(&entry.program)
            .map_err(|e| ServeError::Golden(e.to_string()))?
            .memory;
        let env = SimEnv {
            golden: &memory,
            cycle_budget: None,
            faults: None,
        };
        // Baseline 0: the baseline run's own speedup is meaningless and
        // discarded.
        let (base, _) = self.run_config(
            entry,
            (Strategy::Serial, 1, CoherenceBackend::Snooping),
            env,
            0,
            IdealKnobs::default(),
            &ObsRequest::default(),
        )?;
        let g = Arc::new(Golden {
            memory,
            baseline_cycles: base.run.cycles,
        });
        *slot = Some(Arc::clone(&g));
        Ok((g, false))
    }

    /// The front end for this configuration, built at most twice per
    /// program (once per [`front_end_slot`]).
    fn front_end(
        &self,
        entry: &ProgramEntry,
        strategy: Strategy,
        cores: usize,
    ) -> Result<(Arc<FrontEnd>, bool), SystemError> {
        // Before the lock is taken: a core count the machine model rejects
        // panics here, and a panic under the lock would poison this
        // program's front-end layer for every later request.
        let idx = front_end_slot(strategy, cores);
        let mut slots = entry.front_ends.lock().expect("front-end lock");
        if let Some(fe) = slots[idx].as_ref() {
            self.counters.fe_hits.fetch_add(1, Ordering::Relaxed);
            return Ok((Arc::clone(fe), true));
        }
        self.counters.fe_misses.fetch_add(1, Ordering::Relaxed);
        let fe = Arc::new(front_end(&entry.program, strategy, cores)?);
        slots[idx] = Some(Arc::clone(&fe));
        Ok((fe, false))
    }

    /// The compiled image (and planner maps) for one configuration.
    fn image(
        &self,
        entry: &ProgramEntry,
        fe: &FrontEnd,
        config: Config,
    ) -> Result<(Arc<Prepared>, bool), SystemError> {
        {
            let images = entry.images.lock().expect("image lock");
            if let Some(img) = images.get(&config) {
                self.counters.image_hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(img), true));
            }
        }
        self.counters.image_misses.fetch_add(1, Ordering::Relaxed);
        let img = Arc::new(prepare(fe, config)?);
        let mut images = entry.images.lock().expect("image lock");
        // A racing worker may have inserted first; keep the resident one
        // so every machine shares a single program allocation.
        let img = Arc::clone(images.entry(config).or_insert(img));
        Ok((img, false))
    }

    /// Take a machine for this shape from the free-list (reset to the new
    /// program and config) or build a fresh one.
    fn checkout(
        &self,
        cores: usize,
        backend: CoherenceBackend,
        program: &Arc<MachineProgram>,
        cfg: &MachineConfig,
    ) -> Result<(Machine, bool), SystemError> {
        let key = (cores, backend.label());
        let parked = self
            .pool
            .lock()
            .expect("pool lock")
            .get_mut(&key)
            .and_then(Vec::pop);
        if let Some(mut m) = parked {
            match m.reset(Arc::clone(program), cfg) {
                Ok(()) => {
                    self.counters.pool_hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((m, true));
                }
                Err(_) => {
                    // A reset can only fail on program/config validation;
                    // retire the machine and fall through to a fresh build
                    // (which will report the same validation error).
                    self.counters.retired.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        self.counters.pool_misses.fetch_add(1, Ordering::Relaxed);
        Ok((Machine::new_shared(Arc::clone(program), cfg)?, false))
    }

    /// Park a machine that finished a *successful* run. Errored,
    /// panicked, or output-mismatched machines never come back here.
    fn checkin(&self, cores: usize, backend: CoherenceBackend, machine: Machine) {
        let key = (cores, backend.label());
        let mut pool = self.pool.lock().expect("pool lock");
        let list = pool.entry(key).or_default();
        if list.len() < self.pool_cap {
            list.push(machine);
        } else {
            self.counters.retired.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One run of `config`: compiled through the caches by
    /// `voltron_core::prepare`, configured by `sim_config`, run and held
    /// to the golden memory by `run_checked` — the calls `Experiment`
    /// makes, on a machine that comes from the pool and goes back to it.
    fn run_config(
        &self,
        entry: &ProgramEntry,
        config: Config,
        env: SimEnv<'_>,
        baseline_cycles: u64,
        ideal: IdealKnobs,
        obs: &ObsRequest,
    ) -> Result<(Observed, CacheInfo), SystemError> {
        let (strategy, cores, backend) = config;
        let (fe, front_end_hit) = self.front_end(entry, strategy, cores)?;
        let (prepared, image_hit) = self.image(entry, &fe, config)?;
        let sim_cfg = sim_config(config, env, ideal, obs);
        let (mut machine, machine_pooled) =
            self.checkout(cores, backend, &prepared.image, &sim_cfg)?;
        let out = match run_checked(&mut machine, config, env.golden, obs) {
            Ok(out) => out,
            Err(e) => {
                // Wedged, budget-blown or wrong: retire the machine rather
                // than trusting reset to unwedge it.
                drop(machine);
                self.counters.retired.fetch_add(1, Ordering::Relaxed);
                return Err(e);
            }
        };
        self.checkin(cores, backend, machine);
        // Every served miss simulates (a `fresh` request must), so no run
        // is ever `shared_with` another.
        let run = prepared.result(config, out.stats, out.ticked_cycles, baseline_cycles, None);
        let observed = Observed {
            run,
            trace_json: out.trace,
            probes: out.probes,
        };
        let cache = CacheInfo {
            golden_hit: false,
            front_end_hit,
            image_hit,
            result_hit: false,
            machine_pooled,
        };
        Ok((observed, cache))
    }

    /// Bottleneck what-if for a served run: `WhatIfReport::diagnose` on
    /// the measured run, then the same image re-simulated once per
    /// idealization knob, through the same caches and machine pool (with
    /// baseline 0: only the idealized runs' cycles are read).
    fn whatif(
        &self,
        entry: &ProgramEntry,
        config: Config,
        env: SimEnv<'_>,
        measured: &RunResult,
        cache: &mut CacheInfo,
    ) -> Result<WhatIfReport, SystemError> {
        let mut report = WhatIfReport::diagnose(measured);
        for knob in KnobId::ALL {
            let (ideal, c) =
                self.run_config(entry, config, env, 0, knob.knobs(), &ObsRequest::default())?;
            cache.machine_pooled |= c.machine_pooled;
            report.ceiling(knob, ideal.run.cycles);
        }
        Ok(report)
    }

    /// Counter snapshot for the stats row and the saturation benchmark.
    pub fn stats_json(&self) -> Json {
        let c = &self.counters;
        let get = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let rate = |hits: u64, misses: u64| {
            let total = hits + misses;
            if total == 0 {
                0.0
            } else {
                hits as f64 / total as f64
            }
        };
        let pooled: usize = self
            .pool
            .lock()
            .expect("pool lock")
            .values()
            .map(Vec::len)
            .sum();
        Json::Obj(vec![
            ("requests".into(), Json::UInt(get(&c.requests))),
            ("completed".into(), Json::UInt(get(&c.completed))),
            ("errors".into(), Json::UInt(get(&c.errors))),
            ("panics".into(), Json::UInt(get(&c.panics))),
            ("result_hits".into(), Json::UInt(get(&c.result_hits))),
            (
                "front_end_hit_rate".into(),
                Json::Num(rate(get(&c.fe_hits), get(&c.fe_misses))),
            ),
            (
                "image_hit_rate".into(),
                Json::Num(rate(get(&c.image_hits), get(&c.image_misses))),
            ),
            (
                "machine_pool_hit_rate".into(),
                Json::Num(rate(get(&c.pool_hits), get(&c.pool_misses))),
            ),
            (
                "golden_hit_rate".into(),
                Json::Num(rate(get(&c.golden_hits), get(&c.golden_misses))),
            ),
            ("machines_parked".into(), Json::UInt(pooled as u64)),
            ("machines_retired".into(), Json::UInt(get(&c.retired))),
        ])
    }

    fn note_panic(&self) {
        // `execute` counted the request before it unwound.
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Work-stealing server
// ---------------------------------------------------------------------------

/// Server sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (default: host parallelism).
    pub workers: usize,
    /// Bounded depth of each worker's queue; submitters block when every
    /// queue is full, which is the backpressure a TCP client feels.
    pub queue_depth: usize,
    /// Machines kept per (cores, backend) free-list.
    pub pool_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4);
        ServerConfig {
            workers,
            queue_depth: 4 * workers,
            pool_cap: workers,
        }
    }
}

enum Op {
    Run(Request),
    Stats { id: u64 },
}

struct Job {
    op: Op,
    reply: Sender<Response>,
    submitted: Instant,
}

struct Queue {
    jobs: Mutex<VecDeque<Job>>,
    ready: Condvar,
}

struct Shared {
    engine: Engine,
    queues: Vec<Queue>,
    /// Submitters park here when every queue is at capacity; workers
    /// signal after each pop.
    space: Condvar,
    space_lock: Mutex<()>,
    cursor: AtomicUsize,
    stop: AtomicBool,
    queue_depth: usize,
}

/// The daemon: an [`Engine`] behind a pool of work-stealing workers.
/// In-process callers use [`Server::call`]; the TCP/stdin front ends use
/// [`serve_connection`].
pub struct Server {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Server {
    /// Start the worker pool.
    pub fn start(cfg: ServerConfig) -> Server {
        let workers = cfg.workers.max(1);
        let shared = Arc::new(Shared {
            engine: Engine::new(cfg.pool_cap),
            queues: (0..workers)
                .map(|_| Queue {
                    jobs: Mutex::new(VecDeque::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            space: Condvar::new(),
            space_lock: Mutex::new(()),
            cursor: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
            queue_depth: cfg.queue_depth.max(1),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// The engine (for direct inspection in tests and benchmarks).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// Enqueue a request; the response lands on `reply`. Blocks while
    /// every worker queue is full (bounded-queue backpressure). Submitting
    /// after [`Server::shutdown`] sends an immediate typed error instead.
    pub fn submit(&self, req: Request, reply: Sender<Response>) {
        self.enqueue(Op::Run(req), reply);
    }

    /// Enqueue an in-band stats probe.
    pub fn submit_stats(&self, id: u64, reply: Sender<Response>) {
        self.enqueue(Op::Stats { id }, reply);
    }

    fn enqueue(&self, op: Op, reply: Sender<Response>) {
        let shared = &self.shared;
        let refuse = |op: &Op, reply: &Sender<Response>| {
            let (id, workload) = match op {
                Op::Run(r) => (r.id, r.workload.as_str()),
                Op::Stats { id } => (*id, ""),
            };
            let _ = reply.send(Response::bad_request(
                id,
                workload,
                "server is shutting down".into(),
            ));
        };
        if shared.stop.load(Ordering::Acquire) {
            return refuse(&op, &reply);
        }
        let job = Job {
            op,
            reply,
            submitted: Instant::now(),
        };
        loop {
            let n = shared.queues.len();
            let start = shared.cursor.fetch_add(1, Ordering::Relaxed) % n;
            for off in 0..n {
                let q = &shared.queues[(start + off) % n];
                let mut jobs = q.jobs.lock().expect("queue lock");
                if jobs.len() < shared.queue_depth {
                    jobs.push_back(job);
                    drop(jobs);
                    q.ready.notify_one();
                    return;
                }
            }
            // Every queue is full: wait for a worker to pop, then retry.
            let guard = shared.space_lock.lock().expect("space lock");
            let _unused = shared
                .space
                .wait_timeout(guard, Duration::from_millis(5))
                .expect("space wait");
            if shared.stop.load(Ordering::Acquire) {
                return refuse(&job.op, &job.reply);
            }
        }
    }

    /// Synchronous round-trip: submit and wait for the response. This is
    /// the in-process API the equivalence tests and the benchmark use.
    pub fn call(&self, req: Request) -> Response {
        let (tx, rx) = channel();
        self.submit(req, tx);
        rx.recv().expect("worker dropped the reply channel")
    }

    /// Stop accepting work, finish queued jobs, and join the workers.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        for q in &self.shared.queues {
            q.ready.notify_all();
        }
        self.shared.space.notify_all();
        let mut handles = self.handles.lock().expect("handles lock");
        for h in handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    loop {
        if let Some(job) = pop_job(shared, me) {
            shared.space.notify_one();
            run_job(shared, job);
            continue;
        }
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // Park briefly on the own-queue condvar; the timeout bounds how
        // stale a steal opportunity can get without routing wakeups.
        let q = &shared.queues[me];
        let jobs = q.jobs.lock().expect("queue lock");
        if jobs.is_empty() {
            let _ = q
                .ready
                .wait_timeout(jobs, Duration::from_millis(1))
                .expect("queue wait");
        }
    }
}

/// Pop from the worker's own queue front, else steal from the *back* of
/// another's (oldest-first for the owner, newest-first for thieves, the
/// classic locality split).
fn pop_job(shared: &Shared, me: usize) -> Option<Job> {
    if let Some(j) = shared.queues[me]
        .jobs
        .lock()
        .expect("queue lock")
        .pop_front()
    {
        return Some(j);
    }
    let n = shared.queues.len();
    for off in 1..n {
        let victim = (me + off) % n;
        if let Some(j) = shared.queues[victim]
            .jobs
            .lock()
            .expect("queue lock")
            .pop_back()
        {
            return Some(j);
        }
    }
    None
}

fn run_job(shared: &Shared, job: Job) {
    match job.op {
        Op::Stats { id } => {
            let _ = job.reply.send(Response::Stats {
                id,
                stats: shared.engine.stats_json(),
            });
        }
        Op::Run(req) => {
            // Fault isolation: a panicking simulation is converted into a
            // typed error row. The machine involved was owned by the
            // unwound stack frame, so it was dropped (retired), never
            // re-pooled — the pool only ever holds machines that finished
            // a validated run.
            let outcome = catch_unwind(AssertUnwindSafe(|| shared.engine.execute(&req)));
            let result = match outcome {
                Ok(Ok(served)) => Ok(Box::new(served)),
                Ok(Err(e)) => Err(e),
                Err(payload) => {
                    shared.engine.note_panic();
                    Err(ServeError::Panic(
                        panic_message(payload.as_ref()).to_string(),
                    ))
                }
            };
            let _ = job.reply.send(Response::Run {
                id: req.id,
                workload: req.workload,
                scale: scale_label(req.scale),
                latency_micros: job.submitted.elapsed().as_micros() as u64,
                result,
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Connection front end (TCP and stdin share it)
// ---------------------------------------------------------------------------

/// Serve one NDJSON connection: read request lines from `reader`, write
/// one response row per request to `writer` (out of order as they finish;
/// rows carry the request id). Returns when the reader hits EOF and every
/// in-flight response has been written.
pub fn serve_connection<R: BufRead + Send, W: Write>(server: &Server, reader: R, writer: &mut W) {
    let (tx, rx) = channel::<Response>();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match crate::jsonv::parse(line) {
                    Err(e) => {
                        let _ = tx.send(Response::bad_request(0, "", e));
                    }
                    Ok(v) => {
                        let id = v.get("id").and_then(JValue::as_num).unwrap_or(0.0) as u64;
                        if v.get("stats") == Some(&JValue::Bool(true)) {
                            server.submit_stats(id, tx.clone());
                            continue;
                        }
                        match parse_request(&v) {
                            Ok(req) => server.submit(req, tx.clone()),
                            Err(e) => {
                                let workload = v.get("workload").and_then(JValue::as_str);
                                let row = Response::bad_request(id, workload.unwrap_or(""), e);
                                let _ = tx.send(row);
                            }
                        }
                    }
                }
            }
            // Dropping the last sender ends the writer loop below once
            // all in-flight worker replies have drained.
            drop(tx);
        });
        while let Ok(resp) = rx.recv() {
            if writeln!(writer, "{}", resp.to_json().render()).is_err() {
                break;
            }
            let _ = writer.flush();
        }
    });
}
