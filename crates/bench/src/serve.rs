//! `voltron-serve`: a persistent simulation service.
//!
//! The one-shot commands (`voltron bench_one`, the `fig*` sweeps) pay the
//! full pipeline on every invocation: interpret the golden model, profile and
//! compile the program, build a machine, simulate, tear everything down.
//! For interactive exploration and CI farms that ask many small questions
//! about the same workloads, almost all of that work can be kept. This
//! module keeps it resident:
//!
//! * **The run cache, shared** ([`Engine`]): per (workload, scale) one
//!   `voltron_core::ProgramCache` — golden memory and serial baseline, at
//!   most two compiler front ends, one compiled image per (strategy,
//!   cores, backend), one cached [`RunResult`] per plain request — and one
//!   `voltron_core::MachinePool` of finished machines for all of them.
//!   These are the types `Experiment` is a view of, and every request is a
//!   `RunSpec` taken through `ProgramCache::run`, so served == direct is
//!   shared code and shared rules. The engine adds program lookup, the
//!   request counters and the translation to and from the wire.
//! * **One bounded FIFO** ([`Server`]): requests wait in one queue that
//!   every worker pops from, oldest first; a submitter blocks while it is
//!   full. A worker runs its request's simulations — a what-if's five
//!   included — on its own thread. Each request runs under
//!   `catch_unwind`, so one poisoned request becomes a typed error row
//!   (its machine dropped with the unwound frame, never re-pooled) while
//!   the daemon keeps serving.
//!
//! The wire protocol is line-delimited JSON over TCP or stdin (see
//! [`parse_request`] / [`Response::to_json`]); a run row is an envelope
//! around the same `voltron_core::report::RunRecord` a `BENCH_*.json`
//! sidecar writes. DESIGN.md §12 documents the invariants.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use voltron_core::report::{
    cache_json, parse, probe_summary_json, schema, whatif_json, Json, RunRecord,
};
pub use voltron_core::CacheInfo;
use voltron_core::{
    KnobId, MachinePool, ObsRequest, ProbeSummary, ProgramCache, RunResult, RunSpec, Strategy,
    SystemError, WhatIfReport,
};
use voltron_ir::Program;
use voltron_sim::{CoherenceBackend, FaultPlan};
use voltron_workloads::{by_name, Scale};

use crate::harness::{checked_cores, panic_message, DEFAULT_PROBE_PERIOD};

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

    /// Render the NDJSON wire row: `id` (and for a run, `workload` and
    /// `scale`), `ok`, then `"schema":1` and either the run's record with
    /// this response's blocks, the typed error, or the counters, then the
    /// timings.
    pub fn to_json(&self) -> Json {
        let mut row = vec![("id", Json::UInt(self.id()))];
        match self {
            Response::Stats { stats, .. } => {
                row.extend([("ok", Json::UInt(1)), schema(), ("stats", stats.clone())]);
            }
            Response::Run {
                workload,
                scale,
                latency_micros,
                result,
                ..
            } => {
                row.push(("workload", Json::Str(workload.clone())));
                row.push(("scale", Json::Str((*scale).into())));
                match result {
                    Err(e) => row.extend([
                        ("ok", Json::UInt(0)),
                        schema(),
                        ("error", Json::Str(e.kind().into())),
                        ("message", Json::Str(e.message().into())),
                    ]),
                    Ok(s) => {
                        row.push(("ok", Json::UInt(1)));
                        let baseline = ("baseline_cycles", Json::UInt(s.baseline_cycles));
                        let blocks = [
                            Some(("cache", cache_json(&s.cache))),
                            s.whatif.as_ref().map(|w| ("whatif", whatif_json(w))),
                            s.probes.as_ref().map(|p| ("probes", probe_summary_json(p))),
                        ];
                        let record = RunRecord::of(&s.run);
                        record.write(&mut row, [baseline], blocks.into_iter().flatten());
                        row.extend(s.trace_json.clone().map(|t| ("trace", Json::Str(t))));
                        row.push(("host_micros", Json::UInt(s.host_micros)));
                    }
                }
                row.push(("latency_micros", Json::UInt(*latency_micros)));
            }
        }
        Json::obj(row)
    }
}

/// Parse one NDJSON request line. `{"stats": true}` probes are handled by
/// the connection loop before this is called.
///
/// # Errors
/// A human-readable message naming the offending field.
pub fn parse_request(v: &Json) -> Result<Request, String> {
    let workload = v
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("missing 'workload'")?;
    let mut req = Request::new(workload, Strategy::Hybrid, 4);
    let count = |name: &str| {
        let n = v.get(name).map(Json::as_u64);
        let why = || format!("'{name}' must be a non-negative integer");
        n.map(|n| n.ok_or_else(why)).transpose()
    };
    req.id = count("id")?.unwrap_or(0);
    req.budget_cycles = count("budget_cycles")?;
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
    if let Some(f) = v.get("faults") {
        let spec = f.as_str().ok_or("'faults' must be a spec string")?;
        req.faults = Some(FaultPlan::parse(spec)?);
    }
    let flag = |field: &str| -> Result<bool, String> {
        match v.get(field) {
            None => Ok(false),
            Some(Json::Bool(x)) => Ok(*x),
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
// Engine
// ---------------------------------------------------------------------------

/// A registered program and everything `voltron-core` keeps about it.
type Loaded = Arc<(Program, ProgramCache)>;

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    completed: AtomicU64,
    errors: AtomicU64,
    panics: AtomicU64,
}

/// The simulation engine: a registry of programs, each with its
/// `voltron-core` run cache, one machine pool for all of them, and the
/// request counters. Thread-safe; every method takes `&self`.
pub struct Engine {
    /// Keyed by (workload name, scale label): a request can name a
    /// program no other way, and names map 1:1 to programs.
    programs: Mutex<HashMap<(String, &'static str), Loaded>>,
    pool: MachinePool,
    counters: Counters,
}

impl Engine {
    /// An empty engine whose pool parks at most `pool_cap` machines per
    /// (cores, backend) shape.
    pub fn new(pool_cap: usize) -> Engine {
        Engine {
            programs: Mutex::new(HashMap::new()),
            pool: MachinePool::new(pool_cap),
            counters: Counters::default(),
        }
    }

    /// Execute one request to completion on the calling thread.
    ///
    /// # Errors
    /// A typed [`ServeError`]; the engine stays fully serviceable.
    pub fn execute(&self, req: &Request) -> Result<Served, ServeError> {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let out = self.serve(req);
        match &out {
            Ok(_) => self.counters.completed.fetch_add(1, Ordering::Relaxed),
            Err(_) => self.counters.errors.fetch_add(1, Ordering::Relaxed),
        };
        out
    }

    fn serve(&self, req: &Request) -> Result<Served, ServeError> {
        let t0 = Instant::now();
        let entry = self.entry(&req.workload, req.scale)?;
        let (program, cache) = &*entry;
        // Unbudgeted: the baseline is the denominator requests of every
        // budget share.
        let (reference, golden_hit) = cache.reference(program, &self.pool, None)?;
        let spec = RunSpec {
            cycle_budget: req.budget_cycles,
            faults: req.faults.as_ref(),
            obs: ObsRequest {
                chrome_trace: req.trace,
                probe_period: req.probes.then_some(DEFAULT_PROBE_PERIOD),
            },
            fresh: req.fresh,
            ..RunSpec::new((req.strategy, req.cores, req.backend))
        };
        let out = cache.run(program, &reference, &self.pool, &spec)?;
        let mut cache_info = CacheInfo {
            golden_hit,
            ..out.cache
        };
        // The same image re-simulated once per idealization knob, through
        // the same layers and pool, one after another on this thread.
        let whatif = if req.whatif {
            let mut report = WhatIfReport::diagnose(&out.run);
            for knob in KnobId::ALL {
                let ideal = RunSpec {
                    ideal: knob.knobs(),
                    obs: ObsRequest::default(),
                    ..spec.clone()
                };
                let ideal = cache.run(program, &reference, &self.pool, &ideal)?;
                cache_info.machine_pooled |= ideal.cache.machine_pooled;
                report.ceiling(knob, ideal.run.cycles);
            }
            Some(report)
        } else {
            None
        };
        Ok(Served {
            run: out.run,
            baseline_cycles: reference.baseline_cycles,
            whatif,
            probes: out.probes.as_ref().map(|p| p.summary()),
            trace_json: req.trace.then_some(out.trace_json),
            cache: cache_info,
            host_micros: t0.elapsed().as_micros() as u64,
        })
    }

    /// Resolve a workload to its program and run cache.
    fn entry(&self, workload: &str, scale: Scale) -> Result<Loaded, ServeError> {
        let key = (workload.to_string(), scale_label(scale));
        if let Some(e) = self.programs.lock().expect("programs lock").get(&key) {
            return Ok(Arc::clone(e));
        }
        // Built outside the lock; a racing worker's entry wins.
        let w = by_name(workload, scale).ok_or_else(|| {
            ServeError::UnknownWorkload(format!(
                "no workload {workload:?} at scale {}",
                scale_label(scale)
            ))
        })?;
        let mut programs = self.programs.lock().expect("programs lock");
        let entry = programs
            .entry(key)
            .or_insert_with(|| Arc::new((w.program, ProgramCache::default())));
        Ok(Arc::clone(entry))
    }

    /// Counter snapshot for the stats row and the saturation benchmark.
    pub fn stats_json(&self) -> Json {
        // Reference, front-end, image and result lookups over all programs.
        let mut layers = [(0u64, 0u64); 4];
        for entry in self.programs.lock().expect("programs lock").values() {
            for (sum, (hits, misses)) in layers.iter_mut().zip(entry.1.counts()) {
                *sum = (sum.0 + hits, sum.1 + misses);
            }
        }
        let [golden, front_end, image, result] = layers;
        let c = &self.counters;
        let count = |name: &str, n: u64| (name.to_string(), Json::UInt(n));
        let tally = |name: &str, a: &AtomicU64| count(name, a.load(Ordering::Relaxed));
        let rate = |name: &str, (hits, misses): (u64, u64)| {
            let share = hits as f64 / (hits + misses).max(1) as f64;
            (name.to_string(), Json::Num(share))
        };
        Json::Obj(vec![
            tally("requests", &c.requests),
            tally("completed", &c.completed),
            tally("errors", &c.errors),
            tally("panics", &c.panics),
            count("result_hits", result.0),
            rate("front_end_hit_rate", front_end),
            rate("image_hit_rate", image),
            rate("machine_pool_hit_rate", self.pool.reuse()),
            rate("golden_hit_rate", golden),
            count("machines_parked", self.pool.parked() as u64),
            count("machines_retired", self.pool.retired()),
        ])
    }

    fn note_panic(&self) {
        // `execute` counted the request before it unwound.
        self.counters.panics.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server sizing knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads (default: host parallelism).
    pub workers: usize,
    /// Queued jobs per worker: the one FIFO holds `workers × queue_depth`,
    /// and submitters block while it is full, which is the backpressure a
    /// TCP client feels.
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
            queue_depth: 4,
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

struct Shared {
    engine: Engine,
    /// The one bounded FIFO every worker pops from.
    jobs: Mutex<VecDeque<Job>>,
    /// Signalled on each push; workers wait here while `jobs` is empty.
    ready: Condvar,
    /// Signalled on each pop; submitters wait here while `jobs` is full.
    space: Condvar,
    capacity: usize,
    /// Written only under the `jobs` lock, so no waiter misses it.
    stop: AtomicBool,
}

/// The daemon: an [`Engine`] behind a pool of workers sharing one FIFO.
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
            jobs: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            space: Condvar::new(),
            capacity: workers * cfg.queue_depth.max(1),
            stop: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
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

    /// Enqueue a request; the response lands on `reply`. Blocks while the
    /// queue is full (bounded-queue backpressure). A submit that finds the
    /// server stopped by [`Server::shutdown`], or is still blocked when it
    /// is called, sends an immediate typed error instead.
    pub fn submit(&self, req: Request, reply: Sender<Response>) {
        self.enqueue(Op::Run(req), reply);
    }

    /// Enqueue an in-band stats probe.
    fn submit_stats(&self, id: u64, reply: Sender<Response>) {
        self.enqueue(Op::Stats { id }, reply);
    }

    fn enqueue(&self, op: Op, reply: Sender<Response>) {
        let shared = &self.shared;
        let stopped = || shared.stop.load(Ordering::Acquire);
        let jobs = shared.jobs.lock().expect("queue lock");
        let mut jobs = shared
            .space
            .wait_while(jobs, |jobs| !stopped() && jobs.len() >= shared.capacity)
            .expect("queue lock");
        if stopped() {
            drop(jobs);
            let (id, workload) = match &op {
                Op::Run(r) => (r.id, r.workload.as_str()),
                Op::Stats { id } => (*id, ""),
            };
            let message = "server is shutting down".into();
            let _ = reply.send(Response::bad_request(id, workload, message));
            return;
        }
        jobs.push_back(Job {
            op,
            reply,
            submitted: Instant::now(),
        });
        drop(jobs);
        shared.ready.notify_one();
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
        let shared = &self.shared;
        {
            let _jobs = shared.jobs.lock().expect("queue lock");
            shared.stop.store(true, Ordering::Release);
        }
        shared.ready.notify_all();
        shared.space.notify_all();
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

/// Pop jobs oldest-first until the queue is empty and the server stopped.
fn worker_loop(shared: &Shared) {
    loop {
        let mut jobs = shared.jobs.lock().expect("queue lock");
        let job = loop {
            if let Some(job) = jobs.pop_front() {
                break job;
            }
            if shared.stop.load(Ordering::Acquire) {
                return;
            }
            jobs = shared.ready.wait(jobs).expect("queue lock");
        };
        drop(jobs);
        shared.space.notify_one();
        run_job(shared, job);
    }
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
                match parse(line) {
                    Err(e) => {
                        let _ = tx.send(Response::bad_request(0, "", e));
                    }
                    Ok(v) => {
                        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
                        if v.get("stats") == Some(&Json::Bool(true)) {
                            server.submit_stats(id, tx.clone());
                            continue;
                        }
                        match parse_request(&v) {
                            Ok(req) => server.submit(req, tx.clone()),
                            Err(e) => {
                                let workload = v.get("workload").and_then(Json::as_str);
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
