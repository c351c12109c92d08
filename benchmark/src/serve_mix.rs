//! `serve_mix`: the daemon's intended traffic — many small repeated
//! questions. A closed loop of two clients against an in-process
//! `Server` with two workers; three requests in four repeat a
//! configuration the result cache already holds, the fourth is `fresh`
//! and really simulates through the machine pool. Each client times what
//! a TCP client would see minus the socket: parse the request line,
//! `Server::call`, render the response row.

use crate::common::{timed_run, Args, PassOut, Tally, Timed};
use crate::spans::Recorder;
use crate::staged::{Counts, Layers, SimTotals};
use crate::stats::{self, Fnv, SplitMix64};
use crate::trace::{self, Traced};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;
use voltron_bench::jsonv;
use voltron_bench::serve::{parse_request, Request, Response, Server, ServerConfig};
use voltron_compiler::Strategy;
use voltron_core::report::Json;
use voltron_core::{Experiment, RunResult};
use voltron_workloads::{by_name, Scale};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Per pass, each unique configuration is asked for this many times
/// `fresh` and three times as often as a repeat: the 3:1 hit/miss mix.
const FRESH_PER_CONFIG: usize = 15;
const REPEATS_PER_CONFIG: usize = 3 * FRESH_PER_CONFIG;

const PROGRAMS: [&str; 6] = [
    "rawcaudio",
    "164.gzip",
    "epic",
    "171.swim",
    "179.art",
    "mpeg2dec",
];
const CONFIGS: [(Strategy, usize); 5] = [
    (Strategy::Ilp, 4),
    (Strategy::FineGrainTlp, 4),
    (Strategy::Llp, 4),
    (Strategy::Hybrid, 2),
    (Strategy::Hybrid, 4),
];

/// The cycle-golden matrix `serve_bench` and `tests/cycle_golden.rs`
/// use: served results must equal the direct path on every entry.
const GOLDEN_MATRIX: [(&str, Strategy, usize); 27] = [
    ("164.gzip", Strategy::Serial, 1),
    ("164.gzip", Strategy::Ilp, 4),
    ("164.gzip", Strategy::FineGrainTlp, 4),
    ("164.gzip", Strategy::Llp, 4),
    ("164.gzip", Strategy::Hybrid, 4),
    ("164.gzip", Strategy::Hybrid, 2),
    ("rawcaudio", Strategy::Serial, 1),
    ("rawcaudio", Strategy::Ilp, 4),
    ("rawcaudio", Strategy::FineGrainTlp, 4),
    ("rawcaudio", Strategy::Llp, 4),
    ("rawcaudio", Strategy::Hybrid, 4),
    ("rawcaudio", Strategy::Hybrid, 2),
    ("171.swim", Strategy::Serial, 1),
    ("171.swim", Strategy::Ilp, 4),
    ("171.swim", Strategy::FineGrainTlp, 4),
    ("171.swim", Strategy::Llp, 4),
    ("171.swim", Strategy::Hybrid, 4),
    ("171.swim", Strategy::Hybrid, 2),
    ("179.art", Strategy::Serial, 1),
    ("179.art", Strategy::FineGrainTlp, 4),
    ("179.art", Strategy::Hybrid, 4),
    ("epic", Strategy::Serial, 1),
    ("epic", Strategy::FineGrainTlp, 4),
    ("epic", Strategy::Hybrid, 4),
    ("mpeg2dec", Strategy::Serial, 1),
    ("mpeg2dec", Strategy::Llp, 4),
    ("mpeg2dec", Strategy::Hybrid, 4),
];

/// The 30 unique configurations, in a fixed order.
fn unique_configs() -> Vec<(&'static str, Strategy, usize)> {
    PROGRAMS
        .iter()
        .flat_map(|&p| CONFIGS.iter().map(move |&(s, c)| (p, s, c)))
        .collect()
}

/// One request as it would arrive on the wire.
struct WireRequest {
    line: String,
    /// Index into [`unique_configs`].
    config: usize,
    fresh: bool,
}

fn wire_line(
    id: usize,
    (program, strategy, cores): (&str, Strategy, usize),
    fresh: bool,
) -> String {
    format!(
        "{{\"id\":{id},\"workload\":\"{program}\",\"scale\":\"test\",\
         \"strategy\":\"{strategy}\",\"cores\":{cores},\"fresh\":{fresh}}}"
    )
}

/// One pass's requests: the same multiset every time, in an order drawn
/// from `seed`.
fn pass_sequence(seed: u64) -> Vec<WireRequest> {
    let configs = unique_configs();
    let mut picks: Vec<(usize, bool)> = Vec::new();
    for config in 0..configs.len() {
        picks.extend(std::iter::repeat_n((config, true), FRESH_PER_CONFIG));
        picks.extend(std::iter::repeat_n((config, false), REPEATS_PER_CONFIG));
    }
    stats::shuffle(&mut picks, seed);
    picks
        .into_iter()
        .enumerate()
        .map(|(id, (config, fresh))| WireRequest {
            line: wire_line(id, configs[config], fresh),
            config,
            fresh,
        })
        .collect()
}

/// What a client saw of one request, plus what the response row says
/// about the inside.
#[derive(Clone)]
struct Sample {
    config: usize,
    fresh: bool,
    /// Parse + call + render, nanoseconds.
    client_ns: u64,
    /// `Server::call` alone, nanoseconds.
    call_ns: u64,
    cycles: u64,
    host_micros: u64,
    latency_micros: u64,
    result_hit: bool,
    image_hit: bool,
    pooled: bool,
    /// The full result, for requests the result cache did not answer.
    run: Option<Arc<RunResult>>,
}

/// Send one request the way a client does.
fn send(server: &Server, req: &WireRequest, rec: &mut Recorder) -> Result<Sample, String> {
    rec.begin_op(|| req.line.clone());
    let t0 = Instant::now();
    let parsed = rec.span("bench.serve.wire_parse", |_| {
        jsonv::parse(&req.line).and_then(|v| parse_request(&v))
    })?;
    let t_call = Instant::now();
    let resp = rec.span("bench.serve.call", |_| server.call(parsed));
    let call_ns = t_call.elapsed().as_nanos() as u64;
    let row = rec.span("bench.serve.render", |_| resp.to_json().render());
    let client_ns = t0.elapsed().as_nanos() as u64;
    black_box(row.len());
    match resp {
        Response::Run {
            latency_micros,
            result: Ok(served),
            ..
        } => Ok(Sample {
            config: req.config,
            fresh: req.fresh,
            client_ns,
            call_ns,
            cycles: served.run.cycles,
            host_micros: served.host_micros,
            latency_micros,
            result_hit: served.cache.result_hit,
            image_hit: served.cache.image_hit,
            pooled: served.cache.machine_pooled,
            // Only a request that really simulated adds to the pass's
            // modelled-component sums.
            run: (!served.cache.result_hit).then(|| Arc::clone(&served.run)),
        }),
        Response::Run { result: Err(e), .. } => {
            Err(format!("{}: {}: {}", req.line, e.kind(), e.message()))
        }
        Response::Stats { .. } => Err(format!("{}: answered with a stats row", req.line)),
    }
}

/// A started server with every unique configuration primed.
struct Primed {
    server: Server,
    /// Cycles of each unique configuration, from the priming pass: every
    /// later answer for it, cached or fresh, must report the same.
    expected: Vec<u64>,
    first_touch_ms: Vec<f64>,
    passes_drawn: u64,
}

/// Start the server and ask for each unique configuration once (the
/// cold pass), sequentially.
fn prime(tally: &mut Tally) -> Primed {
    let server = Server::start(ServerConfig {
        workers: WORKERS,
        ..ServerConfig::default()
    });
    let mut off = Recorder::new(false, Instant::now());
    let mut expected = Vec::new();
    let mut first_touch_ms = Vec::new();
    for (config, &unique) in unique_configs().iter().enumerate() {
        let req = WireRequest {
            line: wire_line(config, unique, false),
            config,
            fresh: false,
        };
        match send(&server, &req, &mut off) {
            Ok(s) => {
                tally.ok(1);
                expected.push(s.cycles);
                first_touch_ms.push(s.client_ns as f64 / 1e6);
            }
            Err(e) => {
                tally.op(Err(e));
                expected.push(0);
            }
        }
    }
    Primed {
        server,
        expected,
        first_touch_ms,
        passes_drawn: 0,
    }
}

/// What one closed-loop pass produced.
struct LoopOut {
    samples: Vec<Sample>,
    wall_s: f64,
    sim: SimTotals,
    recorders: Vec<Recorder>,
}

/// One pass: [`CLIENTS`] threads each take the next request of the
/// sequence as soon as their previous one is answered.
fn closed_loop(p: &mut Primed, seed: u64, tally: &mut Tally, record: Option<Instant>) -> LoopOut {
    // Another order every pass, all of them a function of `--seed`.
    let seq = pass_sequence(SplitMix64::new(seed ^ (p.passes_drawn << 32)).next_u64());
    p.passes_drawn += 1;
    let next = AtomicUsize::new(0);
    let server = &p.server;
    let t0 = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut rec = Recorder::new(record.is_some(), record.unwrap_or(t0));
                    let mut done = Vec::new();
                    // The client's loop is the pass on this thread; its self
                    // time is the glue between the three calls per request.
                    rec.span("pass", |rec| loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = seq.get(k) else { break };
                        done.push(send(server, req, rec));
                    });
                    (done, rec)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut out = LoopOut {
        samples: Vec::with_capacity(seq.len()),
        wall_s,
        sim: SimTotals::default(),
        recorders: Vec::new(),
    };
    for (done, rec) in per_client {
        for res in done {
            tally.op(res.and_then(|s| {
                let want = p.expected[s.config];
                if s.cycles != want {
                    return Err(format!(
                        "config {}: served {} cycles, primed {want}",
                        s.config, s.cycles
                    ));
                }
                if s.fresh == s.result_hit {
                    return Err(format!("config {}: fresh/result-cache mix-up", s.config));
                }
                if let Some(run) = &s.run {
                    out.sim.absorb(&run.stats, run.ticked_cycles);
                }
                out.samples.push(s);
                Ok(())
            }));
        }
        out.recorders.push(rec);
    }
    out
}

/// Order-independent digest of a pass: per configuration, how many
/// answers and the cycles they reported.
fn digest(samples: &[Sample]) -> u64 {
    let mut per = vec![(0u64, 0u64, 0u64); unique_configs().len()];
    for s in samples {
        per[s.config].0 += 1;
        per[s.config].1 += u64::from(s.fresh);
        per[s.config].2 += s.cycles;
    }
    let mut h = Fnv::default();
    for (n, fresh, cycles) in per {
        h.word(n);
        h.word(fresh);
        h.word(cycles);
    }
    h.0
}

/// Serve the golden matrix once and compare every entry, field for
/// field, with the direct `Experiment` result for the same configuration.
fn check_golden_matrix(server: &Server, tally: &mut Tally) {
    let mut current: Option<(&str, voltron_workloads::Workload)> = None;
    for (name, strategy, cores) in GOLDEN_MATRIX {
        if current.as_ref().map(|(n, _)| *n) != Some(name) {
            current = by_name(name, Scale::Test).map(|w| (name, w));
        }
        let checked = (|| -> Result<(), String> {
            let (_, w) = current.as_ref().ok_or("unknown workload")?;
            let served = match server.call(Request::new(name, strategy, cores)) {
                Response::Run { result: Ok(s), .. } => s,
                Response::Run { result: Err(e), .. } => return Err(e.message().to_string()),
                Response::Stats { .. } => return Err("answered with a stats row".into()),
            };
            // A fresh `Experiment` per entry: what a one-shot caller gets.
            let mut exp = Experiment::new(&w.program).map_err(|e| e.to_string())?;
            let baseline = exp.baseline_cycles();
            let direct = exp.run(strategy, cores).map_err(|e| e.to_string())?;
            let r = &served.run;
            let same = r.cycles == direct.cycles
                && r.ticked_cycles == direct.ticked_cycles
                && r.speedup.to_bits() == direct.speedup.to_bits()
                && r.stats == direct.stats
                && served.baseline_cycles == baseline;
            if same {
                Ok(())
            } else {
                Err(format!(
                    "served {} cycles, direct {}",
                    r.cycles, direct.cycles
                ))
            }
        })();
        tally.op(checked.map_err(|e| format!("golden {name}/{strategy}/{cores}: {e}")));
    }
}

pub fn run_timed(args: &Args) -> Timed {
    let (mut timed, p) = timed_run(args, prime, |p, tally| {
        let out = closed_loop(p, args.seed, tally, None);
        let hits = out.samples.iter().filter(|s| s.result_hit).count();
        PassOut {
            wall_s: out.wall_s,
            op_ms: out
                .samples
                .iter()
                .map(|s| s.client_ns as f64 / 1e6)
                .collect(),
            digest: digest(&out.samples),
            facts: vec![
                (
                    "requests_per_pass".into(),
                    Json::UInt(out.samples.len() as u64),
                ),
                (
                    "result_hit_ratio".into(),
                    Json::Num(hits as f64 / out.samples.len().max(1) as f64),
                ),
                ("clients".into(), Json::UInt(CLIENTS as u64)),
                ("workers".into(), Json::UInt(WORKERS as u64)),
            ],
        }
    });
    check_golden_matrix(&p.server, &mut timed.tally);
    timed
}

pub fn run_traced(args: &Args) -> Traced {
    let mut t = Traced::new();
    let epoch = Instant::now();
    let mut layers = Layers::new();
    let mut driver = Recorder::new(true, epoch);
    let mut p = driver.span("bench.serve.prime", |_| prime(&mut t.tally));
    // Warm-up, as the untraced run's set-up does.
    closed_loop(&mut p, args.seed, &mut t.tally, None);
    let staged = trace::staged_passes(args, &mut t.tally, |record, tally| {
        let out = closed_loop(&mut p, args.seed, tally, record.then_some(epoch));
        let counts = Counts {
            sim: out.sim,
            ..Counts::default()
        };
        (counts, (out.samples, out.wall_s), out.recorders)
    });
    check_golden_matrix(&p.server, &mut t.tally);

    let samples: Vec<&Sample> = staged.extras.iter().flat_map(|(s, _)| s).collect();
    let loop_s: f64 = staged.extras.iter().map(|(_, wall_s)| wall_s).sum();
    let median_of = |keep: &dyn Fn(&Sample) -> bool, f: &dyn Fn(&Sample) -> f64| {
        let xs: Vec<f64> = samples.iter().filter(|s| keep(s)).map(|s| f(s)).collect();
        stats::median(&xs)
    };
    let share = |keep: &dyn Fn(&Sample) -> bool, of: &dyn Fn(&Sample) -> bool| {
        let den = samples.iter().filter(|s| of(s)).count();
        let num = samples.iter().filter(|s| of(s) && keep(s)).count();
        num as f64 / den.max(1) as f64
    };
    let hit = |s: &Sample| s.result_hit;
    let miss = |s: &Sample| !s.result_hit;
    let any = |_: &Sample| true;
    let mut all_ms: Vec<f64> = samples.iter().map(|s| s.client_ns as f64 / 1e6).collect();
    all_ms.sort_by(f64::total_cmp);
    staged.emit(&mut layers);
    for (name, v) in [
        (
            "bench.serve.hit_p50_us",
            median_of(&hit, &|s| s.client_ns as f64 / 1e3),
        ),
        (
            "bench.serve.miss_p50_ms",
            median_of(&miss, &|s| s.client_ns as f64 / 1e6),
        ),
        (
            "bench.serve.p99_ms",
            stats::percentile_sorted(&all_ms, 0.99),
        ),
        (
            "bench.serve.execute_hit_us",
            median_of(&hit, &|s| s.host_micros as f64),
        ),
        (
            "bench.serve.execute_miss_ms",
            median_of(&miss, &|s| s.host_micros as f64 / 1e3),
        ),
        (
            "bench.serve.queue_wait_us",
            median_of(&any, &|s| {
                s.latency_micros.saturating_sub(s.host_micros) as f64
            }),
        ),
        (
            "bench.serve.client_overhead_us",
            median_of(&any, &|s| {
                (s.call_ns as f64 / 1e3 - s.latency_micros as f64).max(0.0)
            }),
        ),
        ("bench.serve.result_hit_ratio", share(&hit, &any)),
        (
            "bench.serve.image_hit_ratio",
            share(&|s| s.image_hit, &miss),
        ),
        (
            "bench.serve.machine_pooled_ratio",
            share(&|s| s.pooled, &miss),
        ),
        (
            "bench.serve.first_touch_ms",
            stats::median(&p.first_touch_ms),
        ),
        ("bench.serve.req_per_s", samples.len() as f64 / loop_s),
    ] {
        layers.insert(name.into(), v);
    }
    if let Json::Obj(counters) = p.server.engine().stats_json() {
        for (name, v) in counters {
            let v = match v {
                Json::UInt(n) => n as f64,
                Json::Num(x) => x,
                _ => continue,
            };
            layers.insert(format!("bench.serve.engine.{name}"), v);
        }
    }
    trace::emit_driver_spans(&driver, &mut layers);
    t.layers = layers;
    t.recorders.push(("driver".into(), driver));
    t.recorders.extend(staged.recorders);
    t
}
