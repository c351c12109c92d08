//! The `voltron` command line: one [`COMMANDS`] table mapping each
//! command name to its flags and its function. `src/bin/voltron.rs` is
//! `main` and nothing else; everything a command does lives here or in
//! [`crate::figures`], where the in-process tests can call it.
//!
//! Every command names the flags it takes; any other `--flag`, a missing
//! value, an unknown benchmark or strategy, or a core count the machine
//! model rejects is a usage error (exit status 2), never a panic and
//! never a silently empty table.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::io::{BufReader, Write};
use std::net::TcpListener;
use std::sync::Arc;

use voltron_core::report::{parse, Json};
use voltron_core::{
    CycleStack, Experiment, ProbeSummary, StallCategory, Strategy, SystemError, WhatIfReport,
};
use voltron_sim::{StallReason, REGION_OUTSIDE};
use voltron_workloads::{all, Scale, Workload};

use crate::figures::{self, ABLATIONS};
use crate::harness::{number, run_workloads_chaos, split_args, HarnessArgs, Harvest};
use crate::serve::{serve_connection, Server, ServerConfig};

/// Why a command did not complete.
#[derive(Debug)]
pub enum CliError {
    /// The command line was wrong (exit status 2, with the usage text).
    Usage(String),
    /// The command ran and failed (exit status 1).
    Failed(String),
}

impl From<SystemError> for CliError {
    fn from(e: SystemError) -> CliError {
        CliError::Failed(e.to_string())
    }
}

/// One `voltron` command.
pub struct Command {
    /// Its name on the command line.
    pub name: &'static str,
    /// Its positional arguments, as the usage line spells them.
    pub positional: &'static str,
    /// The flag groups it takes, as the usage line spells them (`--bench
    /// NAME` takes a value, `--test` is a switch); any other `--flag` is
    /// a usage error.
    pub flags: Flags,
    /// Workload scale when neither `--test` nor `--full` is given.
    pub scale: Scale,
    /// What it does, in one line.
    pub about: &'static str,
    run: Run,
}

impl Command {
    /// This command's arguments, parsed against its flag list.
    fn args(&self, argv: &[&str]) -> Result<HarnessArgs, CliError> {
        let max = self.positional.split_whitespace().count();
        let parsed = HarnessArgs::parse(self.scale, &self.flags.concat(), max, argv);
        parsed.map_err(CliError::Usage)
    }

    /// One usage line: name, positionals, then each flag.
    pub fn usage(&self) -> String {
        let flags = self.flags.concat().into_iter().map(|f| format!(" [{f}]"));
        let positional = Some(self.positional).filter(|p| !p.is_empty());
        let words = positional.map(|p| format!(" {p}")).into_iter().chain(flags);
        format!("voltron {}{}", self.name, words.collect::<String>())
    }
}

// The flags, each spelled once, in the groups commands take them in.
const SCALE: &[&str] = &["--test", "--full"];
const BENCH: &[&str] = &["--bench NAME"];
const BACKEND: &[&str] = &["--backend snooping|directory"];
const OBSERVE: &[&str] = &["--trace-out FILE", "--probes-out FILE"];
const FAULTS: &[&str] = &["--faults seed=N,rate=R[,site=LABEL]"];
const BOUNDS: &[&str] = &["--budget-cycles N", "--retries N"];
const WHATIF: &[&str] = &["--whatif"];
const ALL: &[&str] = &["--all"];
const DAEMON: &[&str] = &[
    "--addr HOST:PORT",
    "--workers N",
    "--queue-depth N",
    "--pool-cap N",
    "--stdin",
];

type Flags = &'static [&'static [&'static str]];
type Run = fn(&Command, &[&str]) -> Result<(), CliError>;

const fn command(
    name: &'static str,
    positional: &'static str,
    flags: Flags,
    scale: Scale,
    run: Run,
    about: &'static str,
) -> Command {
    Command {
        name,
        positional,
        flags,
        scale,
        about,
        run,
    }
}

const fn figure_command(name: &'static str, about: &'static str) -> Command {
    let flags = &[SCALE, BENCH, BACKEND, OBSERVE, FAULTS, BOUNDS];
    command(name, "", flags, Scale::Full, figure, about)
}

const fn ablate(name: &'static str, about: &'static str) -> Command {
    command(name, "", &[SCALE, BENCH], Scale::Full, ablation, about)
}

const TARGET: &str = "<benchmark> [strategy] [cores]";

/// Every command, in `voltron help` order.
#[rustfmt::skip]
pub const COMMANDS: [Command; 17] = [
    figure_command("figall", "every evaluation figure from one sweep (the EXPERIMENTS.md source)"),
    figure_command("fig03", "Fig. 3: planner attribution to ILP / fine-grain TLP / LLP, 4 cores"),
    figure_command("fig10", "Fig. 10: per-technique speedup, 2 cores"),
    figure_command("fig11", "Fig. 11: per-technique speedup, 4 cores"),
    figure_command("fig12", "Fig. 12: stall breakdown of the coupled and decoupled builds, 4 cores"),
    figure_command("fig13", "Fig. 13: hybrid speedup, 2 and 4 cores"),
    figure_command("fig14", "Fig. 14: mode residency of the 4-core hybrid"),
    command("scaling", "", &[SCALE, BENCH, FAULTS, BOUNDS], Scale::Full, scaling,
        "speedup at 1-64 cores: every strategy on both coherence backends"),
    ablate("ablate_branch", "branch-condition broadcast vs replication (hybrid, 4 cores)"),
    ablate("ablate_ebug", "plain BUG vs eBUG strand extraction (fine-grain TLP, 4 cores)"),
    ablate("ablate_network", "coupled-mode ILP vs direct-network hop latency 1-4 (4 cores)"),
    command("table1", "", &[], Scale::Test, table1,
        "the simulated machine's parameters against the paper's §5.1"),
    command("bench_one", "<benchmark>", &[SCALE, OBSERVE, BACKEND, FAULTS, WHATIF], Scale::Test,
        bench_one_command, "one benchmark under every strategy: cycles, stalls, region plan"),
    command("bottleneck", TARGET, &[SCALE, BACKEND, ALL], Scale::Test, bottleneck,
        "CPI stack, region diagnosis and what-if ceilings (--all: scan every workload)"),
    command("inspect", TARGET, &[OBSERVE], Scale::Test, inspect,
        "the machine code a configuration compiles to, then one run broken down by region"),
    command("serve", "", &[DAEMON], Scale::Test, serve,
        "the simulation daemon: line-delimited JSON over TCP or stdin"),
    command("trace_check", "<trace.json> [min_cores]", &[], Scale::Test, trace_check,
        "validate a Chrome trace-event file the harness wrote"),
];

/// Every command's usage line and summary.
pub fn help() -> String {
    let mut out = String::from("usage: voltron <command> [arguments]\n");
    for c in &COMMANDS {
        out.push_str(&format!("\n{}\n    {}\n", c.usage(), c.about));
    }
    out
}

/// Run `argv` (without the program name): look the command up and call
/// it. All output of a completed command is already written.
///
/// # Errors
/// [`CliError::Usage`] when the command line is wrong — the message ends
/// in the usage line — and [`CliError::Failed`] when the command is.
pub fn run(argv: &[&str]) -> Result<(), CliError> {
    let Some((&name, rest)) = argv.split_first() else {
        return Err(CliError::Usage(help()));
    };
    if name == "help" || name == "--help" {
        print!("{}", help());
        return Ok(());
    }
    let cmd = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| CliError::Usage(format!("unknown command {name}\n{}", help())))?;
    (cmd.run)(cmd, rest).map_err(|e| match e {
        CliError::Usage(m) => CliError::Usage(format!("{m}\nusage: {}", cmd.usage())),
        failed => failed,
    })
}

/// `main`: [`run`], errors on stderr, the process exit status.
pub fn main(argv: &[&str]) -> i32 {
    match run(argv) {
        Ok(()) => 0,
        Err(CliError::Usage(m)) => {
            eprintln!("{m}");
            2
        }
        Err(CliError::Failed(m)) => {
            eprintln!("voltron: {m}");
            1
        }
    }
}

fn table1(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    cmd.args(argv)?;
    print!("{}", figures::table1());
    Ok(())
}

fn bench_one_command(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let harvest = bench_one(&args)?;
    for (_, dive) in &harvest.results {
        print!("{}", dive.text);
    }
    print!("{}", harvest.failure_section());
    harvest.report(cmd.name, &args);
    Ok(())
}

fn figure(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let figs = figures::select(cmd.name);
    let harvest = figures::sweep(cmd.name, &figs, &args);
    print!("{}", figures::render(&figs, &harvest));
    harvest.report(cmd.name, &args);
    Ok(())
}

fn scaling(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let (out, harvest) = figures::scaling(&args);
    print!("{out}");
    harvest.report(cmd.name, &args);
    Ok(())
}

fn ablation(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let a = ABLATIONS.iter().find(|a| a.id == cmd.name);
    let a = a.expect("an ablation per ablate_* command");
    print!("{}", figures::ablation(a, &args));
    Ok(())
}

fn region_name(id: u32) -> String {
    if id == REGION_OUTSIDE {
        "outside".into()
    } else {
        format!("r{id}")
    }
}

/// The rows of a CPI stack: every core-cycle of the run in exactly one
/// bucket (`voltron_sim::whatif` pins the exact sum), empty buckets
/// omitted, then the aborted-transaction overlay.
fn stack_lines(stack: &CycleStack) -> String {
    let mut out = String::new();
    for (label, n) in stack.rows().into_iter().filter(|r| r.1 > 0) {
        let share = 100.0 * n as f64 / stack.total.max(1) as f64;
        out.push_str(&format!("{label:>14}: {n:>10} ({share:>5.1}%)\n"));
    }
    if stack.tm_wasted > 0 {
        out.push_str(&format!(
            "{:>14}: {:>10} (overlay: issued work later thrown away by aborts)\n",
            "tm-wasted", stack.tm_wasted
        ));
    }
    out
}

/// One line per what-if ceiling: the same binary's cycles on each
/// idealized machine, the best one marked when `mark_best`.
fn ceiling_lines(report: &WhatIfReport, mark_best: bool) -> String {
    let best = report.best_ceiling().knob;
    let mut out = String::new();
    for c in &report.ceilings {
        out.push_str(&format!(
            "{:>22}: {:>9} cycles  ceiling {:.2}x{}\n",
            c.knob.label(),
            c.ideal_cycles,
            c.speedup_ceiling,
            if mark_best && c.knob == best {
                "  <- best"
            } else {
                ""
            }
        ));
    }
    out
}

/// What [`bench_one`] found: the report text, and what the optional
/// passes attach to the sidecar.
#[derive(Debug)]
pub struct DeepDive {
    /// Per-strategy cycles, stalls and region plan (and the what-if).
    pub text: String,
    /// Probe summary of the observed 4-core hybrid, with `--probes-out`.
    pub probes: Option<ProbeSummary>,
    /// Bottleneck report of the 4-core hybrid, with `--whatif`.
    pub whatif: Option<WhatIfReport>,
}

/// Deep-dive one benchmark: every strategy's cycles, speedup, stall
/// breakdown and region plan, as the text of the harvest's one result.
/// With `--trace-out` / `--probes-out` the 4-core hybrid is re-run
/// instrumented (a Chrome trace for <https://ui.perfetto.dev>, an
/// interval probe series whose summary also lands in the sidecar); with
/// `--whatif` it is diagnosed; both land in the harvest's summary.
///
/// # Errors
/// A usage error for a missing or unknown benchmark.
pub fn bench_one(args: &HarnessArgs) -> Result<Harvest<DeepDive>, CliError> {
    let (w, _) = args.target().map_err(CliError::Usage)?;
    let sized = |s, c| (s, c, args.backend.sized_for(c));
    let hybrid4 = sized(Strategy::Hybrid, 4);
    let configs = [
        sized(Strategy::Ilp, 4),
        sized(Strategy::FineGrainTlp, 4),
        sized(Strategy::Llp, 4),
        sized(Strategy::Hybrid, 2),
        hybrid4,
    ];
    let sweep = |w: &Workload, exp: &mut Experiment<'_>| {
        let base = exp.baseline_cycles();
        let mut text = format!(
            "{} ({:?}): serial baseline {base} cycles\n",
            w.name, w.expected
        );
        if let Err(e) = exp.run_all_on(&configs) {
            // Per-configuration errors are reported in the loop below.
            eprintln!("[bench_one] sweep: {e}");
        }
        for (s, c, b) in configs {
            match exp.run_on(s, c, b) {
                Ok(r) => {
                    let kinds: BTreeSet<_> = r.region_kinds.values().collect();
                    let kinds: Vec<_> = kinds.into_iter().collect();
                    text.push_str(&format!(
                        "{s:>15}/{c}: {:>9} cycles  speedup {:.2}  coupled {:>5.1}%  \
                         regions {kinds:?}\n",
                        r.cycles,
                        r.speedup,
                        100.0 * r.coupled_fraction()
                    ));
                    for cat in StallCategory::ALL {
                        let v = r.normalized_stall(cat, base);
                        if v > 0.002 {
                            let label = cat.label();
                            text.push_str(&format!("{label:>20}: {v:.3} of serial time\n"));
                        }
                    }
                }
                Err(e) => text.push_str(&format!("{s:>15}/{c}: ERROR {e}\n")),
            }
        }
        let probes = args.observe("bench_one", w.name, exp, hybrid4)?;
        // The measured run is already cached, so the what-if pass only
        // pays for the five idealized re-runs.
        let mut whatif = None;
        if args.whatif {
            let report = exp.whatif_on(hybrid4.0, hybrid4.1, hybrid4.2)?;
            text.push_str(&format!(
                "\nbottleneck (hybrid/4): bound by {}, best ceiling {} ({:.2}x)\n{}",
                report.bound_by,
                report.best_ceiling().knob,
                report.best_ceiling().speedup_ceiling,
                ceiling_lines(&report, false)
            ));
            whatif = Some(report);
        }
        Ok(DeepDive {
            text,
            probes,
            whatif,
        })
    };
    let mut harvest = run_workloads_chaos(
        vec![w],
        args.budget_cycles,
        args.faults.clone(),
        args.retries,
        sweep,
    );
    for (summary, (_, dive)) in harvest.summaries.iter_mut().zip(&harvest.results) {
        summary.probes = dive.probes.clone();
        summary.whatif = dive.whatif.clone();
    }
    Ok(harvest)
}

/// "What is this benchmark bound by, and what would fixing it buy?" —
/// the CPI stack of a measured run, its per-region classification, and
/// the counterfactual speedup ceiling of each one-hot hardware
/// idealization (see `voltron_sim::whatif`). `--all` instead scans every
/// workload's 4-core hybrid, one summary line each.
fn bottleneck(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    if args.all {
        println!("== bottleneck scan (hybrid / 4 cores) ==");
        for w in all(args.scale) {
            let report = Experiment::new(&w.program)
                .and_then(|mut exp| exp.whatif_on(Strategy::Hybrid, 4, args.backend.sized_for(4)));
            match report {
                Ok(r) => println!(
                    "{:>12}: {:>9} cycles  bound by {:<15} best ceiling {} ({:.2}x)",
                    w.name,
                    r.measured_cycles,
                    r.bound_by.to_string(),
                    r.best_ceiling().knob,
                    r.best_ceiling().speedup_ceiling
                ),
                Err(e) => println!("{:>12}: ERROR {e}", w.name),
            }
        }
        return Ok(());
    }
    let (w, (strategy, cores, backend)) = args.target().map_err(CliError::Usage)?;
    let mut exp = Experiment::new(&w.program)?;
    let report = exp.whatif_on(strategy, cores, backend)?;
    let measured = report.measured_cycles;
    println!("== {} / {strategy} / {cores} cores ==", w.name);
    println!(
        "measured {measured} cycles (serial baseline {}, speedup {:.2})",
        exp.baseline_cycles(),
        exp.baseline_cycles() as f64 / measured.max(1) as f64
    );
    println!(
        "\ncycle stack ({} core-cycles over {} cores):\n{}bound by: {}",
        report.stack.total,
        report.stack.cores,
        stack_lines(&report.stack),
        report.bound_by
    );
    if !report.regions.is_empty() {
        println!("\nper-region diagnosis:");
    }
    for d in &report.regions {
        println!(
            "{:>8} {:<10} {:>9} cycles ({:>5.1}%)  bound by {}",
            region_name(d.region),
            d.kind,
            d.cycles,
            100.0 * d.cycles as f64 / measured.max(1) as f64,
            d.bound_by
        );
    }
    let best = report.best_ceiling();
    println!(
        "\nwhat-if ceilings (same binary on an idealized machine):\n{}\n\
         recommendation: the run is {}-bound; idealizing {} is worth \
         at most {:.2}x — nothing else can beat that ceiling.",
        ceiling_lines(&report, true),
        report.bound_by,
        best.knob,
        best.speedup_ceiling
    );
    Ok(())
}

/// Inspect the machine code a configuration compiles to, then run it
/// once and break its cycles down per planner
/// region. `--trace-out` writes the run's Chrome trace-event timeline,
/// `--probes-out` its interval probe series.
fn inspect(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let (w, config) = args.target().map_err(CliError::Usage)?;
    let (strategy, cores, backend) = config;
    let mut exp = Experiment::new(&w.program)?;
    args.observe("inspect", w.name, &mut exp, config)?;
    let sealed = exp.image(config)?;
    let image = sealed.program();
    let run = exp.run_on(strategy, cores, backend)?;

    println!("== {} / {strategy} / {cores} cores ==", w.name);
    let mut kinds: Vec<_> = run.region_kinds.iter().collect();
    kinds.sort();
    println!("regions: {kinds:?}\n");
    for k in 0..cores {
        println!("{}", image.dump_core(k));
    }
    println!("== run ==\n{}", run.stats.summary());

    // Per-region occupancy: largest first, "outside" covering the code
    // between planned regions.
    let mut regions: Vec<_> = run.stats.regions.iter().collect();
    regions.sort_by_key(|(id, rb)| (std::cmp::Reverse(rb.cycles), **id));
    if !regions.is_empty() {
        println!("\n== per-region breakdown ==");
    }
    for (&id, rb) in regions {
        let kind = run.region_kinds.get(&id).copied().unwrap_or("-");
        let share = 100.0 * rb.cycles as f64 / run.cycles.max(1) as f64;
        let mut stalls: Vec<(StallReason, u64)> = StallReason::ALL
            .iter()
            .map(|&r| (r, rb.buckets.stalls_for(r)))
            .filter(|&(_, n)| n > 0)
            .collect();
        stalls.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        let top: Vec<String> = stalls
            .iter()
            .take(3)
            .map(|(r, n)| format!("{r} {n}"))
            .collect();
        println!(
            "{:>8} {kind:<10} {:>9} cycles ({share:>5.1}%)  issued {:>9}  idle {:>8}  stalls: {}",
            region_name(id),
            rb.cycles,
            rb.buckets.issued,
            rb.buckets.idle,
            if top.is_empty() {
                "none".into()
            } else {
                top.join(", ")
            }
        );
    }

    let report = WhatIfReport::diagnose(run);
    println!(
        "\n== cycle stack ==\n{} core-cycles over {} cores, bound by {}\n{}",
        report.stack.total,
        report.stack.cores,
        report.bound_by,
        stack_lines(&report.stack).trim_end()
    );
    for d in &report.regions {
        println!("{:>8}: bound by {}", region_name(d.region), d.bound_by);
    }
    Ok(())
}

/// The `voltron-serve` daemon (see [`crate::serve`]): line-delimited JSON
/// requests over TCP, or stdin/stdout with `--stdin`; one response row
/// per request, in completion order, carrying the request id. On TCP
/// startup it prints `LISTENING <addr>` on stdout so scripts binding
/// port 0 can discover the port.
fn serve(_: &Command, argv: &[&str]) -> Result<(), CliError> {
    let (flags, _) = split_args(DAEMON, 0, argv).map_err(CliError::Usage)?;
    let mut cfg = ServerConfig::default();
    let mut addr = "127.0.0.1:7077";
    let mut stdin_mode = false;
    for (flag, v) in flags {
        let positive = || match number::<usize>(flag, v) {
            Ok(0) => Err(CliError::Usage(format!(
                "{flag} requires a positive integer"
            ))),
            n => n.map_err(CliError::Usage),
        };
        match flag {
            "--addr" => addr = v,
            "--workers" => cfg.workers = positive()?,
            "--queue-depth" => cfg.queue_depth = positive()?,
            "--pool-cap" => cfg.pool_cap = positive()?,
            _ => stdin_mode = true,
        }
    }
    let server = Arc::new(Server::start(cfg));
    if stdin_mode {
        let reader = BufReader::new(std::io::stdin());
        serve_connection(&server, reader, &mut std::io::stdout());
        return Ok(());
    }
    let listener = TcpListener::bind(addr)
        .map_err(|e| CliError::Failed(format!("cannot bind {addr}: {e}")))?;
    let local = listener.local_addr().expect("bound socket has an address");
    println!("LISTENING {local}");
    let _ = std::io::stdout().flush();
    eprintln!("voltron-serve listening on {local}");
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("accept failed: {e}");
                continue;
            }
        };
        let server = Arc::clone(&server);
        std::thread::spawn(move || match stream.try_clone() {
            Ok(read_half) => {
                let mut writer = stream;
                serve_connection(&server, BufReader::new(read_half), &mut writer);
            }
            Err(e) => eprintln!("cannot clone stream: {e}"),
        });
    }
    Ok(())
}

/// Per-core tracks live below the machine-wide tids
/// (`voltron_sim::obs`: regions=90, mode=91, bus=92, tm=100+core).
const FIRST_SPECIAL_TID: f64 = 90.0;

/// Validate a Chrome trace-event JSON file the harness emitted: it must
/// parse, have a non-empty `traceEvents` array, and carry a real event
/// (not just `M` metadata) on at least `min_cores` distinct per-core
/// tracks. It must also be internally consistent: every flow-finish
/// (`ph:"f"`) binds to an earlier flow-start (`ph:"s"`) with the same id
/// at a timestamp no later than its own, and each track's `B`/`E` span
/// events carry monotonically non-decreasing timestamps (events arrive in
/// simulation order, so time running backwards on a track means the
/// tracer misattributed a cycle). Spans balance: every `E` closes an open
/// `B` on its track, and no `B` is left open at the end. `tests/cli.rs`
/// runs this against a traced `bench_one` so a malformed tracer can't
/// land.
fn trace_check(cmd: &Command, argv: &[&str]) -> Result<(), CliError> {
    let args = cmd.args(argv)?;
    let path = args
        .positional
        .first()
        .ok_or_else(|| CliError::Usage("missing <trace.json>".into()))?;
    let min_cores = args
        .positional
        .get(1)
        .map_or(Ok(1), |n| number("min_cores", n));
    let min_cores: usize = min_cores.map_err(CliError::Usage)?;
    let fail = |what: String| CliError::Failed(format!("trace_check: {path} {what}"));
    let src = std::fs::read_to_string(path).map_err(|e| fail(format!("cannot be read: {e}")))?;
    let doc = parse(&src).map_err(|e| fail(format!("is not valid JSON: {e}")))?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .filter(|events| !events.is_empty())
        .ok_or_else(|| fail("has no (or an empty) traceEvents array".into()))?;
    let mut live_cores = BTreeSet::new();
    // Flow id -> start timestamp, set by `s`, consumed conceptually by
    // `f` (ids are never reused by the tracer, so keep them all).
    let mut flow_starts: HashMap<u64, f64> = HashMap::new();
    let mut flows_paired = 0usize;
    // Per track: last-seen B/E timestamp (for monotonicity), open spans.
    let mut spans: BTreeMap<u64, (f64, usize)> = BTreeMap::new();
    let mut errors = 0usize;
    let mut complain = |msg: String| {
        eprintln!("trace_check: {path}: {msg}");
        errors += 1;
    };
    for (i, e) in events.iter().enumerate() {
        let ph = e.get("ph").and_then(Json::as_str).unwrap_or("");
        let tid = e.get("tid").and_then(Json::as_num);
        let ts = e.get("ts").and_then(Json::as_num);
        if let Some(tid) = tid.filter(|&tid| ph != "M" && tid < FIRST_SPECIAL_TID) {
            live_cores.insert(tid as u64);
        }
        match ph {
            "s" | "f" => {
                let (Some(id), Some(ts)) = (e.get("id").and_then(Json::as_num), ts) else {
                    complain(format!("event {i}: flow {ph} without id/ts"));
                    continue;
                };
                if ph == "s" {
                    if flow_starts.insert(id as u64, ts).is_some() {
                        complain(format!("event {i}: flow id {id} started twice"));
                    }
                } else {
                    match flow_starts.get(&(id as u64)) {
                        None => complain(format!(
                            "event {i}: flow finish id {id} has no earlier start"
                        )),
                        Some(&start) if ts < start => complain(format!(
                            "event {i}: flow id {id} finishes at {ts} before its start at {start}"
                        )),
                        Some(_) => flows_paired += 1,
                    }
                }
            }
            "B" | "E" => {
                let (Some(tid), Some(ts)) = (tid, ts) else {
                    complain(format!("event {i}: span {ph} without tid/ts"));
                    continue;
                };
                let (last, open) = spans.entry(tid as u64).or_insert((ts, 0));
                if ts < *last {
                    complain(format!(
                        "event {i}: track {tid} span time runs backwards ({ts} after {last})"
                    ));
                }
                *last = (*last).max(ts);
                if ph == "B" {
                    *open += 1;
                } else if *open == 0 {
                    complain(format!("event {i}: E on track {tid} closes no open B"));
                } else {
                    *open -= 1;
                }
            }
            _ => {}
        }
    }
    for (tid, &(_, open)) in spans.iter().filter(|(_, s)| s.1 > 0) {
        complain(format!("track {tid}: {open} B span(s) never closed"));
    }
    if live_cores.len() < min_cores {
        return Err(fail(format!(
            "has events on {} core track(s), expected >= {min_cores}",
            live_cores.len()
        )));
    }
    if errors > 0 {
        return Err(fail(format!("FAILED with {errors} consistency error(s)")));
    }
    println!(
        "trace_check: {path} OK ({} events, {} live core tracks, {flows_paired} flow pairs)",
        events.len(),
        live_cores.len()
    );
    Ok(())
}
