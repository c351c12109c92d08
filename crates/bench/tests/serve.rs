//! End-to-end equivalence and robustness tests for the serve daemon.
//!
//! The load-bearing claim is that a served run is *architecturally
//! indistinguishable* from the one-shot `Experiment` path: same cycles,
//! same speedup bits, bit-identical `MachineStats` — through concurrent
//! clients, pooled (reset) machines, and every cache layer.

use std::collections::HashMap;
use std::io::Cursor;
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use voltron_bench::cli::bench_one;
use voltron_bench::figures;
use voltron_bench::harness::{HarnessArgs, DEFAULT_PROBE_PERIOD};
use voltron_bench::serve::{
    parse_request, serve_connection, Engine, Request, Response, ServeError, Served, Server,
    ServerConfig,
};
use voltron_core::report::{parse, Json, RunRecord};
use voltron_core::{
    Experiment, FaultPlan, KnobId, ObsRequest, RunResult, Strategy, SystemError, WhatIfReport,
};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{by_name, Scale};

const SNOOPING: CoherenceBackend = CoherenceBackend::Snooping;
/// A backend *family*, as `--backend directory` and the wire's
/// `"backend":"directory"` name it; every consumer sizes it to the
/// machine with `CoherenceBackend::sized_for`.
const DIRECTORY: CoherenceBackend = CoherenceBackend::Directory { banks: 4 };

/// The cycle-golden matrix (`tests/cycle_golden.rs`) — workload, strategy,
/// cores, backend family — plus one directory entry. Served results must
/// match the direct path on every entry.
const MATRIX: &[(&str, Strategy, usize, CoherenceBackend)] = &[
    ("164.gzip", Strategy::Serial, 1, SNOOPING),
    ("164.gzip", Strategy::Ilp, 4, SNOOPING),
    ("164.gzip", Strategy::FineGrainTlp, 4, SNOOPING),
    ("164.gzip", Strategy::Llp, 4, SNOOPING),
    ("164.gzip", Strategy::Hybrid, 4, SNOOPING),
    ("164.gzip", Strategy::Hybrid, 2, SNOOPING),
    ("rawcaudio", Strategy::Serial, 1, SNOOPING),
    ("rawcaudio", Strategy::Ilp, 4, SNOOPING),
    ("rawcaudio", Strategy::FineGrainTlp, 4, SNOOPING),
    ("rawcaudio", Strategy::Llp, 4, SNOOPING),
    ("rawcaudio", Strategy::Hybrid, 4, SNOOPING),
    ("rawcaudio", Strategy::Hybrid, 2, SNOOPING),
    ("171.swim", Strategy::Serial, 1, SNOOPING),
    ("171.swim", Strategy::Ilp, 4, SNOOPING),
    ("171.swim", Strategy::FineGrainTlp, 4, SNOOPING),
    ("171.swim", Strategy::Llp, 4, SNOOPING),
    ("171.swim", Strategy::Hybrid, 4, SNOOPING),
    ("171.swim", Strategy::Hybrid, 2, SNOOPING),
    ("179.art", Strategy::Serial, 1, SNOOPING),
    ("179.art", Strategy::FineGrainTlp, 4, SNOOPING),
    ("179.art", Strategy::Hybrid, 4, SNOOPING),
    ("epic", Strategy::Serial, 1, SNOOPING),
    ("epic", Strategy::FineGrainTlp, 4, SNOOPING),
    ("epic", Strategy::Hybrid, 4, SNOOPING),
    ("mpeg2dec", Strategy::Serial, 1, SNOOPING),
    ("mpeg2dec", Strategy::Llp, 4, SNOOPING),
    ("mpeg2dec", Strategy::Hybrid, 4, SNOOPING),
    ("164.gzip", Strategy::Hybrid, 4, DIRECTORY),
];

/// A direct `Experiment` on a test-scale workload. The program is leaked
/// so the experiment (which borrows it) can outlive this call; fine for a
/// test process.
fn direct_experiment(name: &str) -> Experiment<'static> {
    let w = by_name(name, Scale::Test).expect("workload exists");
    Experiment::new(Box::leak(Box::new(w.program))).expect("direct experiment")
}

fn assert_run_matches(served: &Served, direct: &RunResult, baseline: u64, what: &str) {
    let r = &served.run;
    assert_eq!(r.strategy, direct.strategy, "{what}: strategy");
    assert_eq!(r.cores, direct.cores, "{what}: cores");
    assert_eq!(r.backend, direct.backend, "{what}: backend");
    assert_eq!(r.cycles, direct.cycles, "{what}: cycles");
    assert_eq!(r.ticked_cycles, direct.ticked_cycles, "{what}: ticked");
    assert_eq!(
        r.speedup.to_bits(),
        direct.speedup.to_bits(),
        "{what}: speedup bits"
    );
    assert_eq!(r.stats, direct.stats, "{what}: MachineStats");
    assert_eq!(r.region_kinds, direct.region_kinds, "{what}: region kinds");
    assert_eq!(served.baseline_cycles, baseline, "{what}: baseline cycles");
}

/// One of the engine's counters, read from its stats document.
fn engine_counter(server: &Server, name: &str) -> u64 {
    let stats = server.engine().stats_json().render();
    let v = parse(&stats).expect("stats parse");
    v.get(name)
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no counter {name} in {stats}")) as u64
}

fn unwrap_run(resp: Response) -> Box<Served> {
    match resp {
        Response::Run { result: Ok(s), .. } => s,
        Response::Run {
            result: Err(e), id, ..
        } => {
            panic!("request {id} failed: {}: {}", e.kind(), e.message())
        }
        Response::Stats { .. } => panic!("unexpected stats response"),
    }
}

/// Tentpole equivalence: the golden matrix, served to four concurrent
/// client threads, must match field-for-field what a direct
/// `Experiment` produces — including when the server answers from its
/// result cache and its machine pool.
#[test]
fn served_matrix_matches_direct_under_concurrency() {
    let server = Server::start(ServerConfig {
        workers: 4,
        queue_depth: 8,
        pool_cap: 4,
    });

    /// One client per stride through the matrix.
    const STRIDES: [usize; 4] = [1, 3, 5, 9];
    const CLIENTS: usize = STRIDES.len();
    let results: Mutex<Vec<(usize, usize, Box<Served>)>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for (client, stride) in STRIDES.into_iter().enumerate() {
            let server = &server;
            let results = &results;
            scope.spawn(move || {
                for step in 0..MATRIX.len() {
                    // Each client walks the whole matrix from a different
                    // phase at a different stride (each coprime with its
                    // length), so cold compiles, cache hits, and pool churn
                    // interleave instead of falling into lock-step.
                    let idx = (client * 7 + step * stride) % MATRIX.len();
                    let (workload, strategy, cores, family) = MATRIX[idx];
                    let mut req = Request::new(workload, strategy, cores);
                    req.backend = family.sized_for(cores);
                    req.id = (client * MATRIX.len() + idx) as u64;
                    let served = unwrap_run(server.call(req));
                    results.lock().unwrap().push((client, idx, served));
                }
            });
        }
    });

    // Direct one-shot path, one Experiment per workload (its own caches).
    let mut direct: Vec<(&str, Experiment<'static>)> = Vec::new();
    for &(name, ..) in MATRIX {
        if !direct.iter().any(|(n, _)| *n == name) {
            direct.push((name, direct_experiment(name)));
        }
    }

    let results = results.into_inner().unwrap();
    let mut walked: Vec<(usize, usize)> = results.iter().map(|&(c, i, _)| (c, i)).collect();
    walked.sort_unstable();
    walked.dedup();
    assert_eq!(
        walked.len(),
        CLIENTS * MATRIX.len(),
        "every client walks every entry once"
    );
    for (client, idx, served) in &results {
        let (workload, strategy, cores, family) = MATRIX[*idx];
        let exp = &mut direct
            .iter_mut()
            .find(|(n, _)| *n == workload)
            .expect("direct experiment")
            .1;
        let baseline = exp.baseline_cycles();
        let d = exp
            .run_on(strategy, cores, family.sized_for(cores))
            .expect("direct run");
        assert_run_matches(
            served,
            d,
            baseline,
            &format!(
                "client {client} {workload}/{strategy:?}/{cores}/{}",
                family.label()
            ),
        );
    }

    // With 4 clients walking the same 28 configs, the result cache must
    // have absorbed most of the load.
    let hits = engine_counter(&server, "result_hits");
    assert!(
        hits as usize >= (CLIENTS - 1) * MATRIX.len() / 2,
        "expected substantial result-cache traffic, got {hits} hits"
    );
    server.shutdown();
}

/// One label, one machine: `bench_one --backend directory`, `fig13
/// --backend directory` and a served `"backend":"directory"` request all
/// resolve the family through `CoherenceBackend::sized_for`, so the
/// sidecar rows and the wire row carrying that label agree.
#[test]
fn directory_label_means_the_same_machine_on_the_cli_and_the_wire() {
    let argv = ["164.gzip", "--backend", "directory"];
    let args = HarnessArgs::parse(Scale::Test, &["--backend B"], 1, &argv).expect("flags parse");
    let one_shot = bench_one(&args).expect("bench_one runs");
    let figs = figures::select("fig13");
    let args = HarnessArgs::parse(
        Scale::Test,
        &["--backend B", "--bench N"],
        0,
        &["--backend", "directory", "--bench", "164.gzip"],
    )
    .expect("flags parse");
    let swept = figures::sweep("fig13", &figs, &args);
    let hybrid4 = |rows: &[RunRecord]| {
        let row = rows.iter().find(|r| r.strategy == "hybrid" && r.cores == 4);
        let row = row.expect("a hybrid/4 row");
        (row.backend, row.cycles, row.speedup.to_bits())
    };
    let line = r#"{"workload":"164.gzip","strategy":"hybrid","cores":4,"backend":"directory"}"#;
    let req = parse_request(&parse(line).unwrap()).expect("request parses");
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 2,
        pool_cap: 1,
    });
    let served = unwrap_run(server.call(req));
    server.shutdown();
    let wire = (
        served.run.backend.label(),
        served.run.cycles,
        served.run.speedup.to_bits(),
    );
    assert_eq!(wire.0, "directory");
    assert_eq!(hybrid4(&one_shot.summaries[0].runs), wire, "bench_one");
    assert_eq!(hybrid4(&swept.summaries[0].runs), wire, "fig13");
}

/// The sidecar and the wire write one record: the hybrid/4 row of
/// `bench_one`'s `BENCH_bench_one.json` document and the row
/// `serve_connection` writes for the same request read back through
/// `RunRecord::from_json` as equal records, on snooping and on the
/// directory. The engine simulates every configuration itself, so its row
/// never names a leader; the sweep's may.
#[test]
fn served_rows_read_back_as_the_one_shot_sidecar_records() {
    let burst = concat!(
        "{\"id\":1,\"workload\":\"164.gzip\",\"strategy\":\"hybrid\",\"cores\":4}\n",
        "{\"id\":5,\"workload\":\"164.gzip\",\"strategy\":\"hybrid\",\"cores\":4,",
        "\"backend\":\"directory\"}\n",
    );
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 2,
        pool_cap: 1,
    });
    let mut out = Vec::new();
    serve_connection(&server, Cursor::new(burst.as_bytes()), &mut out);
    server.shutdown();
    let rows = String::from_utf8(out).expect("utf8 rows");
    let rows: Vec<Json> = rows.lines().map(|l| parse(l).expect("a row")).collect();
    for (id, backend) in [(1, "snooping"), (5, "directory")] {
        let row = rows.iter().find(|r| r.get("id") == Some(&Json::UInt(id)));
        let served = RunRecord::from_json(row.expect("a row per request"));
        let argv = ["164.gzip", "--backend", backend];
        let args = HarnessArgs::parse(Scale::Test, &["--backend B"], 1, &argv).expect("flags");
        let harvest = bench_one(&args).expect("bench_one runs");
        let doc = parse(&harvest.document("bench_one", &args).render()).expect("a document");
        let workload = &doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")[0];
        let runs = workload.get("runs").and_then(Json::as_arr).expect("runs");
        let records: Result<Vec<RunRecord>, String> =
            runs.iter().map(RunRecord::from_json).collect();
        let mut one_shot = records.expect("schema-1 rows").into_iter();
        let one_shot = one_shot.find(|r| r.strategy == "hybrid" && r.cores == 4);
        let one_shot = one_shot.expect("a hybrid/4 row");
        let one_shot = RunRecord {
            shared_with: None,
            ..one_shot
        };
        assert_eq!(served, Ok(one_shot), "{backend}");
    }
}

/// Directed pool check on both coherence backends: a second identical
/// `fresh` request must be served by a *pooled, reset* machine and still
/// produce bit-identical results.
#[test]
fn pooled_machine_reuse_equals_fresh_on_both_backends() {
    for backend in [
        CoherenceBackend::Snooping,
        CoherenceBackend::directory_for(4),
    ] {
        let server = Server::start(ServerConfig {
            workers: 1,
            queue_depth: 4,
            pool_cap: 2,
        });
        let mut req = Request::new("rawcaudio", Strategy::Hybrid, 4);
        req.backend = backend;
        req.fresh = true; // bypass the result cache: really simulate twice
        let first = unwrap_run(server.call(req.clone()));
        let second = unwrap_run(server.call(req));
        assert!(
            !first.cache.machine_pooled,
            "{backend:?}: first run must build its machine"
        );
        assert!(
            second.cache.machine_pooled,
            "{backend:?}: second run must reuse the pooled machine"
        );
        assert!(
            second.cache.front_end_hit && second.cache.image_hit,
            "{backend:?}: compile layers must be warm on the second run"
        );
        assert!(
            !second.cache.result_hit,
            "{backend:?}: fresh requests must not be served from the result cache"
        );
        assert_eq!(first.run.cycles, second.run.cycles, "{backend:?}: cycles");
        assert_eq!(first.run.stats, second.run.stats, "{backend:?}: stats");
        assert_eq!(
            first.run.speedup.to_bits(),
            second.run.speedup.to_bits(),
            "{backend:?}: speedup bits"
        );
        server.shutdown();
    }
}

/// A cycle-budget deadline produces a typed `sim` error — and the worker
/// that hit it keeps serving.
#[test]
fn budget_exhaustion_is_typed_and_worker_survives() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        pool_cap: 1,
    });
    let mut starved = Request::new("rawcaudio", Strategy::Serial, 1);
    starved.budget_cycles = Some(2);
    match server.call(starved) {
        Response::Run { result: Err(e), .. } => {
            assert_eq!(e.kind(), "sim", "budget exhaustion is a sim error");
        }
        other => panic!(
            "expected a typed sim error, got {:?}",
            other.to_json().render()
        ),
    }
    // The single worker must still be alive and able to serve.
    let ok = unwrap_run(server.call(Request::new("rawcaudio", Strategy::Serial, 1)));
    assert!(ok.run.cycles > 0);
    server.shutdown();
}

/// Requested artifacts ride on the response: what-if report, probe
/// summary, and Chrome trace JSON.
#[test]
fn on_demand_artifacts_are_attached() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        pool_cap: 2,
    });
    let mut req = Request::new("rawcaudio", Strategy::Hybrid, 4);
    req.whatif = true;
    req.probes = true;
    req.trace = true;
    let served = unwrap_run(server.call(req));
    let w = served.whatif.as_ref().expect("whatif report attached");
    assert!(!w.ceilings.is_empty(), "whatif report has knob ceilings");
    assert!(served.probes.is_some(), "probe summary attached");
    let trace = served.trace_json.as_ref().expect("trace attached");
    assert!(
        trace.contains("traceEvents"),
        "trace is Chrome trace-event JSON"
    );
    // Observed runs never enter the result cache: a plain repeat of the
    // same config must still simulate (or hit the plain-result cache
    // built by *this* request's baseline, but never return probe data).
    let plain = unwrap_run(server.call(Request::new("rawcaudio", Strategy::Hybrid, 4)));
    assert!(plain.whatif.is_none() && plain.probes.is_none() && plain.trace_json.is_none());
    server.shutdown();
}

/// The observed and idealized half of served == direct: a served what-if
/// report and probe summary equal `Experiment`'s, whether the measured
/// run was simulated on a fresh machine (the first request) or on a
/// pooled one (the repeat, whose machines all come from the free-list).
#[test]
fn served_whatif_and_probes_match_direct() {
    let mut exp = direct_experiment("rawcaudio");
    let backend = CoherenceBackend::Snooping;
    let direct = exp
        .whatif_on(Strategy::Hybrid, 4, backend)
        .expect("direct what-if");
    let obs = ObsRequest {
        chrome_trace: false,
        probe_period: Some(DEFAULT_PROBE_PERIOD),
    };
    let direct_probes = exp
        .run_observed_on(Strategy::Hybrid, 4, backend, &obs)
        .expect("direct observed run")
        .probes
        .expect("probes were requested")
        .summary();

    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        pool_cap: 2,
    });
    for what in ["fresh machine", "pooled machines"] {
        let mut req = Request::new("rawcaudio", Strategy::Hybrid, 4);
        req.whatif = true;
        req.probes = true;
        let served = unwrap_run(server.call(req));
        // The serial baseline's 1-core machine plus one 4-core machine:
        // the first request's measured (and probed) run built the latter
        // and its idealized runs reused it; the repeat built nothing.
        let parked = engine_counter(&server, "machines_parked");
        assert_eq!(parked, 2, "{what}: machines built");
        let w = served.whatif.as_ref().expect("what-if attached");
        assert_eq!(w.measured_cycles, direct.measured_cycles, "{what}");
        assert_eq!(w.stack, direct.stack, "{what}: stack");
        assert_eq!(w.bound_by, direct.bound_by, "{what}: bound_by");
        assert_eq!(w.regions.len(), direct.regions.len(), "{what}: regions");
        for (r, d) in w.regions.iter().zip(&direct.regions) {
            assert_eq!((r.region, r.kind), (d.region, d.kind), "{what}: region");
            assert_eq!(r.bound_by, d.bound_by, "{what}: region {}", r.region);
            assert_eq!(r.stack, d.stack, "{what}: region {} stack", r.region);
        }
        let ideal = |r: &WhatIfReport| -> Vec<(KnobId, u64)> {
            r.ceilings
                .iter()
                .map(|c| (c.knob, c.ideal_cycles))
                .collect()
        };
        assert_eq!(ideal(w), ideal(&direct), "{what}: ideal cycles");
        assert_eq!(ideal(w).len(), KnobId::ALL.len(), "{what}: five ceilings");
        assert_eq!(served.probes.as_ref(), Some(&direct_probes), "{what}");
    }
    server.shutdown();
}

// ---------------------------------------------------------------------------
// The cache rules, one table, both views
// ---------------------------------------------------------------------------

/// One way of asking for the table's configuration.
#[derive(Debug, Clone, Copy)]
enum Ask {
    Plain,
    Traced,
    Probed,
    /// A what-if: the measured run plus five idealized re-simulations.
    Idealized,
    /// The wire's `fresh` flag (`Experiment` has no such request).
    Fresh,
    /// Under a cycle budget no run of the configuration fits in.
    Starved,
    /// Under a fault plan.
    Faulted,
}

/// What the cache rules promise for one ask.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// Simulates, and its result is the object later hits must return.
    Stores(&'static str),
    /// No simulation: the very object stored under that name.
    Hit(&'static str),
    /// Simulates, and its result is no cached object.
    Uncached,
    /// Fails with this error kind.
    Fails(&'static str),
}

/// What a view showed for one ask.
struct Seen {
    /// Cycles, or the error's kind.
    outcome: Result<u64, &'static str>,
    /// A machine ran.
    simulated: bool,
    /// Address of the `RunResult` handed back (0 when none is).
    object: usize,
}

const RULES_WORKLOAD: &str = "rawcaudio";
const RULES_CONFIG: (Strategy, usize, CoherenceBackend) = (Strategy::Hybrid, 4, SNOOPING);

/// The rules of `voltron_core::cache`, in the order a session could meet
/// them: each uncacheable ask twice (a stored result would turn the
/// second into a hit), each followed by the plain ask, which must still
/// be answered with the first row's object.
const RULES: &[(Ask, Expect)] = &[
    (Ask::Plain, Expect::Stores("plain")),
    (Ask::Plain, Expect::Hit("plain")),
    (Ask::Traced, Expect::Uncached),
    (Ask::Traced, Expect::Uncached),
    (Ask::Plain, Expect::Hit("plain")),
    (Ask::Probed, Expect::Uncached),
    (Ask::Probed, Expect::Uncached),
    (Ask::Plain, Expect::Hit("plain")),
    (Ask::Idealized, Expect::Uncached),
    (Ask::Idealized, Expect::Uncached),
    (Ask::Plain, Expect::Hit("plain")),
    (Ask::Fresh, Expect::Uncached),
    (Ask::Fresh, Expect::Uncached),
    (Ask::Plain, Expect::Hit("plain")),
    // A failed run caches nothing, and lifting the budget recovers.
    (Ask::Starved, Expect::Fails("sim")),
    (Ask::Starved, Expect::Fails("sim")),
    (Ask::Plain, Expect::Hit("plain")),
    // A fault plan keys separately from no plan.
    (Ask::Faulted, Expect::Stores("faulted")),
    (Ask::Faulted, Expect::Hit("faulted")),
    (Ask::Plain, Expect::Hit("plain")),
];

fn rules_plan() -> FaultPlan {
    FaultPlan::parse("seed=11,rate=0.002").expect("plan parses")
}

/// One of the two owners of a run cache, asked the table's way. `None`:
/// the view cannot express the ask.
trait View {
    fn ask(&mut self, ask: Ask) -> Option<Seen>;
}

impl View for Experiment<'static> {
    fn ask(&mut self, ask: Ask) -> Option<Seen> {
        let (s, c, b) = RULES_CONFIG;
        let before = self.simulated_cycles();
        let seen = |r: &RunResult| (r.cycles, r as *const RunResult as usize);
        let observed = |exp: &mut Self, obs: ObsRequest| {
            let o = exp.run_observed_on(s, c, b, &obs)?;
            Ok((o.run.cycles, Arc::as_ptr(&o.run) as usize))
        };
        let outcome: Result<(u64, usize), SystemError> = match ask {
            Ask::Plain => self.run_on(s, c, b).map(seen),
            Ask::Traced => observed(
                self,
                ObsRequest {
                    chrome_trace: true,
                    probe_period: None,
                },
            ),
            Ask::Probed => observed(
                self,
                ObsRequest {
                    chrome_trace: false,
                    probe_period: Some(DEFAULT_PROBE_PERIOD),
                },
            ),
            Ask::Idealized => self.whatif_on(s, c, b).map(|w| (w.measured_cycles, 0)),
            Ask::Fresh => return None,
            Ask::Starved => {
                self.set_cycle_budget(Some(2));
                let r = self.run_on(s, c, b).map(seen);
                self.set_cycle_budget(None);
                r
            }
            Ask::Faulted => {
                self.set_fault_plan(Some(rules_plan()));
                let r = self.run_on(s, c, b).map(seen);
                self.set_fault_plan(None);
                r
            }
        };
        Some(Seen {
            simulated: self.simulated_cycles() != before,
            object: outcome.as_ref().map_or(0, |&(_, object)| object),
            outcome: outcome
                .map(|(cycles, _)| cycles)
                .map_err(|e| ServeError::from(e).kind()),
        })
    }
}

impl View for Engine {
    fn ask(&mut self, ask: Ask) -> Option<Seen> {
        let (s, c, b) = RULES_CONFIG;
        let mut req = Request::new(RULES_WORKLOAD, s, c);
        req.backend = b;
        match ask {
            Ask::Plain => {}
            Ask::Traced => req.trace = true,
            Ask::Probed => req.probes = true,
            Ask::Idealized => req.whatif = true,
            Ask::Fresh => req.fresh = true,
            Ask::Starved => req.budget_cycles = Some(2),
            Ask::Faulted => req.faults = Some(rules_plan()),
        }
        Some(match self.execute(&req) {
            Ok(served) => Seen {
                outcome: Ok(served.run.cycles),
                // Once the first row has parked a machine of this shape,
                // every later simulation is handed a pooled one.
                simulated: !served.cache.result_hit || served.cache.machine_pooled,
                // A what-if hands back the measured run; its idealized
                // runs' results are only ever cycles in the report.
                object: if req.whatif {
                    0
                } else {
                    Arc::as_ptr(&served.run) as usize
                },
            },
            Err(e) => Seen {
                outcome: Err(e.kind()),
                simulated: false,
                object: 0,
            },
        })
    }
}

/// `voltron_core::cache`'s rules — which runs are served from or stored
/// in the result layer, that a failure stores nothing, that budget and
/// fault plan are part of the key — hold row for row through both of its
/// views, `Experiment` and `Engine::execute`.
#[test]
fn the_cache_rules_hold_through_both_views() {
    let views: [(&str, Box<dyn View>); 2] = [
        ("Experiment", Box::new(direct_experiment(RULES_WORKLOAD))),
        ("Engine", Box::new(Engine::new(2))),
    ];
    for (name, mut view) in views {
        let mut stored: HashMap<&str, usize> = HashMap::new();
        let mut plain_cycles = None;
        for (row, &(ask, expect)) in RULES.iter().enumerate() {
            let what = format!("{name}, row {row} ({ask:?}, {expect:?})");
            let Some(seen) = view.ask(ask) else {
                continue;
            };
            match expect {
                Expect::Fails(kind) => assert_eq!(seen.outcome, Err(kind), "{what}"),
                Expect::Stores(as_name) => {
                    assert!(seen.outcome.is_ok() && seen.simulated, "{what}: simulates");
                    assert!(
                        !stored.values().any(|&o| o == seen.object),
                        "{what}: a new object"
                    );
                    stored.insert(as_name, seen.object);
                }
                Expect::Hit(of) => {
                    assert!(
                        seen.outcome.is_ok() && !seen.simulated,
                        "{what}: no simulation"
                    );
                    assert_eq!(seen.object, stored[of], "{what}: the stored object");
                }
                Expect::Uncached => {
                    assert!(seen.outcome.is_ok() && seen.simulated, "{what}: simulates");
                    assert!(
                        !stored.values().any(|&o| o == seen.object),
                        "{what}: not a cached object"
                    );
                }
            }
            // Observers, knobs and `fresh` never move the measured cycles;
            // a fault plan may.
            if let (Ok(cycles), false) = (seen.outcome, matches!(ask, Ask::Faulted)) {
                assert_eq!(*plain_cycles.get_or_insert(cycles), cycles, "{what}");
            }
        }
        assert_eq!(stored.len(), 2, "{name}: the plain and the faulted result");
    }
    a_result_is_shared_only_inside_one_batch();
}

/// A class shares one simulation only within one `run_all_on` batch:
/// there the non-leader names its leader, while an engine asked for the
/// same two configurations simulates both, and a later `fresh` request
/// for the non-leader simulates again — to the very statistics the batch
/// handed it. (The last row of the table above.)
fn a_result_is_shared_only_inside_one_batch() {
    // gsmencode at 4 cores: LLP wins every region of the hybrid plan.
    let llp = (Strategy::Llp, 4, SNOOPING);
    let hybrid = (Strategy::Hybrid, 4, SNOOPING);
    let mut exp = direct_experiment("gsmencode");
    exp.run_all_on(&[llp, hybrid]).expect("batch");
    assert_eq!(exp.run_on(llp.0, 4, SNOOPING).unwrap().shared_with, None);
    let shared = exp.run_on(hybrid.0, 4, SNOOPING).unwrap();
    assert_eq!(shared.shared_with, Some(Strategy::Llp));

    let engine = Engine::new(2);
    let mut served = Vec::new();
    for (strategy, fresh) in [(llp.0, false), (hybrid.0, false), (hybrid.0, true)] {
        let mut req = Request::new("gsmencode", strategy, 4);
        req.fresh = fresh;
        let s = engine.execute(&req).expect("served");
        assert!(!s.cache.result_hit, "{strategy}/fresh={fresh}: simulated");
        assert_eq!(s.run.shared_with, None, "{strategy}/fresh={fresh}");
        served.push(s);
    }
    assert!(served[2].cache.image_hit && served[2].cache.machine_pooled);
    let baseline = served[2].baseline_cycles;
    assert_run_matches(&served[2], shared, baseline, "fresh hybrid vs shared");
}

/// A request that panics inside the engine becomes one typed `panic`
/// row, is counted once, retires nothing that was parked, and leaves
/// every cache layer of its program usable (DESIGN.md §12.3). In-process
/// callers bypass `parse_request`'s check, so a core count the machine
/// model rejects is a deterministic panic route.
#[test]
fn panicking_request_is_isolated_and_counted_once() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 4,
        pool_cap: 2,
    });
    let counter = |name: &str| engine_counter(&server, name);
    unwrap_run(server.call(Request::new("rawcaudio", Strategy::Serial, 1)));
    let parked = counter("machines_parked");
    match server.call(Request::new("rawcaudio", Strategy::Hybrid, 3)) {
        Response::Run { result: Err(e), .. } => {
            assert_eq!(e.kind(), "panic", "{}", e.message());
            assert!(e.message().contains("got 3"), "{}", e.message());
        }
        other => panic!("expected a panic row, got {}", other.to_json().render()),
    }
    assert_eq!(counter("panics"), 1);
    assert_eq!(
        counter("requests"),
        counter("completed") + counter("errors"),
        "every request is counted exactly once"
    );
    assert_eq!(counter("machines_parked"), parked);
    // The one worker survived, and no lock of this program's entry was
    // poisoned: a request that needs a front end and an image of the
    // same workload still compiles and runs.
    let ok = unwrap_run(server.call(Request::new("rawcaudio", Strategy::Hybrid, 4)));
    assert!(ok.run.cycles > 0);
    server.shutdown();
}

/// The NDJSON wire loop: malformed lines, bad fields, unknown workloads,
/// and in-band stats probes each produce their typed row, and good
/// requests still succeed on the same connection.
#[test]
fn wire_protocol_rows_are_typed() {
    let server = Server::start(ServerConfig {
        workers: 2,
        queue_depth: 4,
        pool_cap: 2,
    });
    let input = concat!(
        "this is not json\n",
        "{\"id\": 2, \"workload\": \"no-such-benchmark\"}\n",
        "{\"id\": 3, \"workload\": \"rawcaudio\", \"cores\": 0}\n",
        "{\"id\": 4, \"workload\": \"rawcaudio\", \"strategy\": \"serial\", \"cores\": 1}\n",
        "{\"id\": 5, \"stats\": true}\n",
    );
    let mut out = Vec::new();
    serve_connection(&server, Cursor::new(input.as_bytes()), &mut out);
    server.shutdown();

    let text = String::from_utf8(out).expect("utf8 output");
    let rows: Vec<Json> = text
        .lines()
        .map(|l| parse(l).expect("every response row parses"))
        .collect();
    assert_eq!(rows.len(), 5, "one row per request line:\n{text}");
    let by_id = |id: f64| {
        rows.iter()
            .find(|r| r.get("id").and_then(Json::as_num) == Some(id))
            .unwrap_or_else(|| panic!("no row with id {id}:\n{text}"))
    };
    let err_kind = |row: &Json| {
        row.get("error")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    assert_eq!(err_kind(by_id(0.0)), "bad-request", "malformed JSON");
    assert_eq!(err_kind(by_id(2.0)), "unknown-workload");
    assert_eq!(err_kind(by_id(3.0)), "bad-request", "cores: 0 is invalid");
    let good = by_id(4.0);
    assert_eq!(good.get("ok").and_then(Json::as_num), Some(1.0));
    assert!(good.get("cycles").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
    assert_eq!(
        good.get("cache")
            .and_then(|c| c.get("result"))
            .and_then(Json::as_str),
        Some("miss"),
        "first run of a config cannot be a result hit"
    );
    let stats = by_id(5.0);
    assert!(
        stats.get("stats").and_then(|s| s.get("requests")).is_some(),
        "stats probe returns the counters document: {text}"
    );
}

/// `parse_request` accepts the documented field set and rejects bad
/// values with a message naming the field.
#[test]
fn parse_request_validates_fields() {
    let request = |s: &str| parse_request(&parse(s).unwrap());
    let req = request(
        "{\"id\": 9, \"workload\": \"epic\", \"scale\": \"test\", \"strategy\": \"llp\",\
         \"cores\": 2, \"backend\": \"directory\", \"budget_cycles\": 1000,\
         \"faults\": \"seed=3,rate=0.5\", \"fresh\": true, \"whatif\": true}",
    )
    .expect("full request parses");
    assert_eq!(req.id, 9);
    assert_eq!(req.strategy, Strategy::Llp);
    assert_eq!(req.cores, 2);
    assert_eq!(req.backend, CoherenceBackend::directory_for(2));
    assert_eq!(req.budget_cycles, Some(1000));
    assert!(req.faults.is_some() && req.fresh && req.whatif);
    let widest = request("{\"workload\": \"epic\", \"cores\": 64}").expect("64 cores is valid");
    assert_eq!(widest.cores, 64);
    // Integers are read exactly, past 2^53 too.
    let big = request("{\"workload\": \"epic\", \"id\": 9007199254740993}").expect("an exact id");
    assert_eq!(big.id, 9_007_199_254_740_993);
    // One strategy vocabulary: the wire takes what the command line takes.
    for spelling in ["ftlp", "fine-grain-tlp"] {
        let req = request(&format!(
            "{{\"workload\": \"epic\", \"strategy\": \"{spelling}\"}}"
        ));
        assert_eq!(req.expect(spelling).strategy, Strategy::FineGrainTlp);
    }

    for (bad, needle) in [
        ("{}", "workload"),
        ("{\"workload\": \"epic\", \"scale\": \"huge\"}", "scale"),
        (
            "{\"workload\": \"epic\", \"strategy\": \"magic\"}",
            "strategy",
        ),
        ("{\"workload\": \"epic\", \"cores\": 1.5}", "cores"),
        ("{\"workload\": \"epic\", \"cores\": 3}", "cores"),
        ("{\"workload\": \"epic\", \"cores\": 0}", "cores"),
        ("{\"workload\": \"epic\", \"cores\": 128}", "cores"),
        (
            "{\"workload\": \"epic\", \"backend\": \"psychic\"}",
            "backend",
        ),
        ("{\"workload\": \"epic\", \"fresh\": 1}", "fresh"),
        // A count is a non-negative integer literal: no sign, no
        // fraction, nothing rounded or truncated into one.
        ("{\"workload\": \"epic\", \"id\": -3}", "'id'"),
        ("{\"workload\": \"epic\", \"id\": 1.7}", "'id'"),
        (
            "{\"workload\": \"epic\", \"budget_cycles\": -5}",
            "'budget_cycles'",
        ),
        (
            "{\"workload\": \"epic\", \"budget_cycles\": 2.9}",
            "'budget_cycles'",
        ),
    ] {
        let err = request(bad).expect_err(bad);
        assert!(err.contains(needle), "{bad}: {err} should name {needle}");
    }
}

/// Submitting after shutdown yields an immediate typed error rather than
/// a hang or a dropped reply channel.
#[test]
fn post_shutdown_submit_gets_typed_error() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        pool_cap: 1,
    });
    server.shutdown();
    let (tx, rx) = channel();
    server.submit(Request::new("rawcaudio", Strategy::Serial, 1), tx);
    match rx.recv().expect("reply arrives") {
        Response::Run {
            result: Err(ServeError::BadRequest(m)),
            ..
        } => {
            assert!(m.contains("shutting down"), "{m}");
        }
        other => panic!(
            "expected shutdown error, got {:?}",
            other.to_json().render()
        ),
    }
}

/// `shutdown` stops intake but finishes what is queued: a full queue of
/// requests submitted just before it is called is served, none refused.
#[test]
fn shutdown_finishes_every_queued_request() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 8,
        pool_cap: 1,
    });
    let strategies = [
        Strategy::Ilp,
        Strategy::FineGrainTlp,
        Strategy::Llp,
        Strategy::Hybrid,
    ];
    // Eight distinct configurations: every parallel strategy at 2 and 4 cores.
    let configs = strategies.into_iter().flat_map(|s| [(s, 2), (s, 4)]);
    let (tx, rx) = channel();
    for ((strategy, cores), id) in configs.zip(1..) {
        let req = Request {
            id,
            ..Request::new("rawcaudio", strategy, cores)
        };
        server.submit(req, tx.clone());
    }
    drop(tx);
    server.shutdown();
    // The workers are joined, so every row is already on the channel; an
    // error row, a "shutting down" refusal included, fails `unwrap_run`.
    let mut ids: Vec<u64> = rx
        .try_iter()
        .map(|row| {
            let id = row.id();
            unwrap_run(row);
            id
        })
        .collect();
    ids.sort_unstable();
    assert_eq!(ids, (1..=8).collect::<Vec<_>>(), "one ok row per request");
}

/// A submitter blocked on a full queue is answered when the server shuts
/// down: one full-scale request runs, one waits in the queue, a third
/// blocks in `submit`. Each of the three gets exactly one row — served, or the
/// typed refusal — and no reply channel is dropped unanswered. By
/// default the queue holds 4 jobs per worker, so its bound grows linearly
/// with the host.
#[test]
fn a_submitter_blocked_on_a_full_queue_is_answered_at_shutdown() {
    assert_eq!(ServerConfig::default().queue_depth, 4);
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 1,
        pool_cap: 1,
    });
    let slow = Request {
        id: 1,
        scale: Scale::Full,
        ..Request::new("rawcaudio", Strategy::Hybrid, 4)
    };
    let queued = Request {
        id: 2,
        ..Request::new("rawcaudio", Strategy::Serial, 1)
    };
    let blocked = Request {
        id: 3,
        ..Request::new("rawcaudio", Strategy::Hybrid, 2)
    };
    let (slow_tx, slow_rx) = channel();
    let (queued_tx, queued_rx) = channel();
    let (blocked_tx, blocked_rx) = channel();
    std::thread::scope(|scope| {
        let server = &server;
        server.submit(slow, slow_tx);
        server.submit(queued, queued_tx);
        scope.spawn(move || server.submit(blocked, blocked_tx));
        // Give the third submit time to block behind the queued one.
        std::thread::sleep(std::time::Duration::from_millis(20));
        server.shutdown();
    });
    // The workers and the blocked submitter are joined: a row that is not
    // on its channel now never comes.
    for (id, rx) in (1..).zip([slow_rx, queued_rx, blocked_rx]) {
        let row = rx.try_recv().expect("every submit is answered");
        assert_eq!(row.id(), id);
        if let Response::Run { result: Err(e), .. } = &row {
            let why = format!("request {id}: {}: {}", e.kind(), e.message());
            assert!(e.message().contains("shutting down"), "{why}");
            assert_eq!(id, 3, "only the blocked submit may be refused: {why}");
        }
        assert!(rx.try_recv().is_err(), "request {id}: one row only");
    }
}

/// One worker pops the one queue oldest-first, so a connection's rows
/// come back in submission order even when a later request (a result-cache
/// hit) is faster than an earlier one.
#[test]
fn one_worker_answers_in_submission_order() {
    let server = Server::start(ServerConfig {
        workers: 1,
        queue_depth: 2,
        pool_cap: 1,
    });
    let input: String = [
        r#"{"id": 1, "workload": "rawcaudio", "cores": 4, "whatif": true}"#,
        r#"{"id": 2, "workload": "rawcaudio", "cores": 4}"#,
        r#"{"id": 3, "workload": "rawcaudio", "strategy": "llp", "cores": 2, "fresh": true}"#,
        r#"{"id": 4, "workload": "rawcaudio", "cores": 4}"#,
        r#"{"id": 5, "stats": true}"#,
        r#"{"id": 6, "workload": "epic", "strategy": "serial", "cores": 1}"#,
    ]
    .map(|line| format!("{line}\n"))
    .concat();
    let mut out = Vec::new();
    serve_connection(&server, Cursor::new(input.as_bytes()), &mut out);
    server.shutdown();
    let text = String::from_utf8(out).expect("utf8 output");
    let ids: Vec<f64> = text
        .lines()
        .map(|l| {
            let row = parse(l).expect("every response row parses");
            assert_eq!(row.get("ok").and_then(Json::as_num), Some(1.0), "{l}");
            row.get("id").and_then(Json::as_num).expect("id")
        })
        .collect();
    assert_eq!(ids, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], "{text}");
}
