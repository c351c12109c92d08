//! Shared driver for the `voltron` commands (`crate::cli`): the flag
//! parser and the fault-isolated, threaded workload sweep.
//!
//! Sweeps default to the full evaluation scale (`--test` selects the
//! reduced inputs, `--bench NAME` one benchmark); each command lists the
//! flags it takes and anything else is a usage error ([`split_args`]).
//!
//! Workloads are independent (each gets its own [`Experiment`]), so
//! [`run_workloads`] fans them out across host threads and hands the
//! caller per-workload results in deterministic workload order; the
//! figure tables are assembled sequentially afterwards, so their output
//! is byte-identical to a serial sweep. Each sweep also reports its
//! simulation throughput (simulated cycles per host second, on stderr)
//! and writes a machine-readable `BENCH_<command>.json` sidecar.
//!
//! Workloads are fault-isolated: each one runs under `catch_unwind` with
//! an optional per-workload simulated-cycle budget (`--budget-cycles`),
//! so a panicking, wedged, or miscompiled workload becomes a
//! [`WorkloadFailure`] row in the [`Harvest`] — printed only when
//! something actually failed — while every other workload's figures and
//! sidecar entries are still produced. Wall clock is bounded through the
//! same budget: simulation time is the only unbounded work a workload
//! does, and the machine's own deadlock/livelock watchdogs catch wedges
//! long before the cycle cap.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use voltron_core::report::{
    fault_stats_json, probe_summary_json, schema, throughput, whatif_json, Json, RunRecord,
};
use voltron_core::{
    Config, Experiment, FaultPlan, FaultStats, ObsRequest, ProbeSeries, ProbeSummary, Strategy,
    SystemError, WhatIfReport,
};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{all, by_name, Scale, Workload};

/// Sampling period `--probes-out` uses, in cycles. Dense enough to
/// resolve mode phases on the test-scale inputs, sparse enough that a
/// full-scale series stays small.
pub const DEFAULT_PROBE_PERIOD: u64 = 256;

/// Split one command's arguments into `(flag, value)` pairs and
/// positionals — the one place argument *syntax* is decided. `takes` is
/// the command's flag list as its usage line spells it: `--test` is a
/// switch (its value is empty), `--bench NAME` takes a value. A `--flag`
/// outside the list is an error, never a positional; so are a value flag
/// with nothing after it and a positional beyond `max_positional`.
///
/// # Errors
/// A message naming the offending argument.
#[allow(clippy::type_complexity)]
pub fn split_args<'a>(
    takes: &[&str],
    max_positional: usize,
    argv: &[&'a str],
) -> Result<(Vec<(&'a str, &'a str)>, Vec<String>), String> {
    let mut flags = Vec::new();
    let mut positional = Vec::new();
    let mut it = argv.iter().copied();
    while let Some(a) = it.next() {
        if !a.starts_with("--") {
            if positional.len() == max_positional {
                return Err(format!("unexpected argument {a}"));
            }
            positional.push(a.to_string());
            continue;
        }
        let spec = takes.iter().find(|t| t.split(' ').next() == Some(a));
        let spec = spec.ok_or_else(|| format!("unknown flag {a}"))?;
        let value = match spec.split_once(' ') {
            Some((_, hint)) => it.next().ok_or_else(|| format!("{a} requires {hint}"))?,
            None => "",
        };
        flags.push((a, value));
    }
    Ok((flags, positional))
}

/// Parse a numeric flag value.
///
/// # Errors
/// A message naming the flag.
pub fn number<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
    v.parse()
        .map_err(|_| format!("{flag} requires a non-negative integer (got {v})"))
}

/// The one `cores` rule of the command line and the serve wire: a power
/// of two from 1 to 64 — what `MachineConfig::scaled` asserts, as an
/// error instead of a panic.
///
/// # Errors
/// A message stating the rule.
pub fn checked_cores(c: f64) -> Result<usize, String> {
    if c.fract() == 0.0 && (1.0..=64.0).contains(&c) && (c as usize).is_power_of_two() {
        return Ok(c as usize);
    }
    Err(format!(
        "cores must be a power of two from 1 to 64 (got {c})"
    ))
}

/// The benchmark called `name` at `scale`.
///
/// # Errors
/// A message listing the valid names.
pub fn benchmark(name: &str, scale: Scale) -> Result<Workload, String> {
    by_name(name, scale).ok_or_else(|| {
        let names: Vec<&str> = all(scale).iter().map(|w| w.name).collect();
        format!(
            "unknown benchmark {name} (expected one of: {})",
            names.join(", ")
        )
    })
}

/// Command-line options of the `voltron` commands.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Workload scale.
    pub scale: Scale,
    /// Restrict to one benchmark, when set.
    pub only: Option<String>,
    /// Per-workload simulated-cycle budget, when set: a workload whose
    /// runs exceed it fails with `MaxCycles` and is reported as a
    /// [`WorkloadFailure`] instead of holding a host thread.
    pub budget_cycles: Option<u64>,
    /// Write a Chrome trace-event JSON per workload to this path
    /// (see [`HarnessArgs::artifact_path`] for multi-workload naming).
    pub trace_out: Option<String>,
    /// Write the interval probe series per workload to this path.
    pub probes_out: Option<String>,
    /// Coherence backend family for the command's runs (default
    /// snooping); every run resolves it to its machine size with
    /// [`CoherenceBackend::sized_for`].
    pub backend: CoherenceBackend,
    /// Fault plan for every non-baseline run (`--faults seed=N,rate=R
    /// [,site=...]`); the serial baseline stays fault-free so speedups
    /// keep their denominator.
    pub faults: Option<FaultPlan>,
    /// Re-run a failed workload up to this many extra times on a fresh
    /// [`Experiment`] (fault plans reseeded per attempt, see
    /// [`FaultPlan::reseeded`]). A workload that recovers is *flaky*; one
    /// that never does is a *hard* failure.
    pub retries: u32,
    /// Attach the bottleneck what-if report (`bench_one --whatif`).
    pub whatif: bool,
    /// Scan every workload (`bottleneck --all`).
    pub all: bool,
    /// Positional arguments, in order: `<benchmark> [strategy] [cores]`
    /// for the deep-dive commands ([`HarnessArgs::target`]).
    pub positional: Vec<String>,
}

impl HarnessArgs {
    /// Give [`split_args`]' pairs their types; `scale` is the command's
    /// default when neither `--test` nor `--full` is given.
    ///
    /// # Errors
    /// A usage message: an unknown flag or benchmark, a malformed value.
    pub fn parse(
        scale: Scale,
        takes: &[&str],
        max_positional: usize,
        argv: &[&str],
    ) -> Result<HarnessArgs, String> {
        let (flags, positional) = split_args(takes, max_positional, argv)?;
        let mut a = HarnessArgs {
            scale,
            only: None,
            budget_cycles: None,
            trace_out: None,
            probes_out: None,
            backend: CoherenceBackend::Snooping,
            faults: None,
            retries: 0,
            whatif: false,
            all: false,
            positional,
        };
        for (flag, v) in flags {
            match flag {
                "--test" => a.scale = Scale::Test,
                "--full" => a.scale = Scale::Full,
                "--whatif" => a.whatif = true,
                "--all" => a.all = true,
                "--bench" => a.only = Some(benchmark(v, Scale::Test)?.name.to_string()),
                "--trace-out" => a.trace_out = Some(v.to_string()),
                "--probes-out" => a.probes_out = Some(v.to_string()),
                "--backend" => {
                    a.backend = CoherenceBackend::parse(v).ok_or_else(|| {
                        format!("--backend requires 'snooping' or 'directory' (got {v})")
                    })?;
                }
                "--budget-cycles" => a.budget_cycles = Some(number(flag, v)?),
                "--faults" => a.faults = Some(FaultPlan::parse(v)?),
                "--retries" => a.retries = number(flag, v)?,
                other => return Err(format!("{other} is not a harness flag")),
            }
        }
        Ok(a)
    }

    /// The `<benchmark> [strategy] [cores]` positionals (defaults: hybrid
    /// on 4 cores), the backend sized for that machine.
    ///
    /// # Errors
    /// A usage message: a missing or unknown benchmark, an unknown
    /// strategy, a core count [`checked_cores`] rejects.
    pub fn target(&self) -> Result<(Workload, Config), String> {
        let mut p = self.positional.iter();
        let w = benchmark(p.next().ok_or("missing <benchmark>")?, self.scale)?;
        let strategy = p.next().map_or(Ok(Strategy::Hybrid), |s| {
            Strategy::parse(s).ok_or_else(|| {
                let known = Strategy::ALL.map(|s| s.to_string()).join(", ");
                format!("unknown strategy {s} (expected ftlp or one of: {known})")
            })
        })?;
        let cores = p.next().map_or(Ok(4), |s| {
            checked_cores(
                s.parse()
                    .map_err(|_| format!("cores must be a number (got {s})"))?,
            )
        })?;
        Ok((w, (strategy, cores, self.backend.sized_for(cores))))
    }

    /// Where to write an observability artifact for `workload`. With a
    /// single selected workload (`--bench`, or a `<benchmark>`
    /// positional) the path is used verbatim; in a sweep the workload
    /// name is spliced in before the extension (`trace.json` →
    /// `trace.164.gzip.json`) so workloads don't clobber each other.
    pub fn artifact_path(&self, base: &str, workload: &str) -> String {
        if self.only.is_some() || !self.positional.is_empty() {
            return base.to_string();
        }
        match base.rsplit_once('.') {
            Some((stem, ext)) if !stem.is_empty() => format!("{stem}.{workload}.{ext}"),
            _ => format!("{base}.{workload}"),
        }
    }

    /// The observability pass, when `--trace-out` / `--probes-out` ask
    /// for one: re-run `config` with a Chrome tracer and/or interval
    /// probes (at [`DEFAULT_PROBE_PERIOD`]) attached, write the artifacts
    /// (files and stderr only; a write failure is reported, not fatal)
    /// and return the probe summary for the sidecar. The architectural
    /// result is the unobserved run's (the observer-effect tests pin this).
    ///
    /// # Errors
    /// Propagates a failure of the observed run.
    pub fn observe(
        &self,
        command: &str,
        workload: &str,
        exp: &mut Experiment<'_>,
        (strategy, cores, backend): Config,
    ) -> Result<Option<ProbeSummary>, SystemError> {
        if self.trace_out.is_none() && self.probes_out.is_none() {
            return Ok(None);
        }
        let obs = ObsRequest {
            chrome_trace: self.trace_out.is_some(),
            probe_period: self.probes_out.as_ref().map(|_| DEFAULT_PROBE_PERIOD),
        };
        let o = exp.run_observed_on(strategy, cores, backend, &obs)?;
        let series = o.probes.as_ref().map(ProbeSeries::render_json);
        let wanted = [
            (&self.trace_out, Some(&o.trace_json)),
            (&self.probes_out, series.as_ref()),
        ];
        for (base, doc) in wanted {
            if let (Some(base), Some(doc)) = (base, doc) {
                let path = self.artifact_path(base, workload);
                match std::fs::write(&path, doc) {
                    Ok(()) => eprintln!("[{command}] wrote {path}"),
                    Err(e) => eprintln!("[{command}] cannot write {path}: {e}"),
                }
            }
        }
        Ok(o.probes.as_ref().map(ProbeSeries::summary))
    }

    /// The selected workloads.
    pub fn workloads(&self) -> Vec<Workload> {
        let ws = all(self.scale);
        match &self.only {
            Some(n) => ws.into_iter().filter(|w| w.name == n.as_str()).collect(),
            None => ws,
        }
    }
}

/// One workload's run inventory, recorded in the `BENCH_*.json` sidecar.
#[derive(Debug)]
pub struct WorkloadSummary {
    /// Benchmark name.
    pub name: &'static str,
    /// Serial 1-core cycles.
    pub baseline_cycles: u64,
    /// Total simulated cycles across the workload's runs.
    pub simulated_cycles: u64,
    /// Cycles the simulator actually ticked for them (the rest were
    /// fast-forwarded; see `voltron_sim::MachineConfig::fast_forward`).
    pub ticked_cycles: u64,
    /// Host wall-clock this workload's sweep took, in seconds.
    pub host_seconds: f64,
    /// One record per configuration run.
    pub runs: Vec<RunRecord>,
    /// How many of `runs` were simulated; the rest lowered to the same
    /// machine program as one of those and share its simulation (see
    /// `Experiment::run_all_on`).
    pub distinct_runs: usize,
    /// Bottleneck what-if report for the workload's headline
    /// configuration, when the sweep asked for one (`--whatif`).
    pub whatif: Option<WhatIfReport>,
    /// Interval probe summary, when the sweep ran with `--probes-out`.
    pub probes: Option<ProbeSummary>,
    /// Fault-injection counters summed over the workload's simulations —
    /// a run sharing another's counts once (all zeros, and omitted from
    /// the sidecar, without `--faults`).
    pub faults: FaultStats,
}

/// Snapshot an experiment's run inventory for the JSON sidecar.
/// `host_seconds` is the wall-clock the caller measured around the
/// workload's runs.
pub fn workload_summary(
    name: &'static str,
    exp: &Experiment<'_>,
    host_seconds: f64,
) -> WorkloadSummary {
    let runs: Vec<RunRecord> = exp.results().iter().map(|r| RunRecord::of(r)).collect();
    let simulated = || runs.iter().filter(|r| r.shared_with.is_none());
    let mut faults = FaultStats::default();
    for r in simulated() {
        for (total, site) in faults.sites.iter_mut().zip(&r.faults.sites) {
            total.absorb(site);
        }
    }
    WorkloadSummary {
        name,
        baseline_cycles: exp.baseline_cycles(),
        simulated_cycles: exp.simulated_cycles(),
        ticked_cycles: exp.ticked_cycles(),
        host_seconds,
        distinct_runs: simulated().count(),
        runs,
        probes: None,
        whatif: None,
        faults,
    }
}

/// Skip-efficiency: the fraction of simulated cycles the simulator had
/// to tick (1.0 = fast-forward never skipped; smaller is better). The
/// ratio can exceed 1.0 slightly: the post-halt grace drain ticks a few
/// cycles past the reported execution time.
pub fn skip_efficiency(ticked: u64, simulated: u64) -> f64 {
    ticked as f64 / simulated.max(1) as f64
}

/// Build the `BENCH_*.json` document for a finished sweep. `chaos` is
/// the `--faults`/`--retries` block ([`Harvest::document`]); `None` keeps
/// the document byte-identical to a fault-free harness.
#[allow(clippy::too_many_arguments)]
pub fn bench_json(
    binary: &str,
    scale: &str,
    simulated_cycles: u64,
    ticked_cycles: u64,
    host_seconds: f64,
    summaries: &[WorkloadSummary],
    failures: &[WorkloadFailure],
    chaos: Option<Json>,
) -> Json {
    let workloads = summaries.iter().map(|s| {
        let mut fields = vec![
            ("name", Json::Str(s.name.into())),
            ("baseline_cycles", Json::UInt(s.baseline_cycles)),
            ("simulated_cycles", Json::UInt(s.simulated_cycles)),
            ("ticked_cycles", Json::UInt(s.ticked_cycles)),
            (
                "skip_efficiency",
                Json::Num(skip_efficiency(s.ticked_cycles, s.simulated_cycles)),
            ),
            ("host_seconds", Json::Num(s.host_seconds)),
            ("distinct_runs", Json::UInt(s.distinct_runs as u64)),
            (
                "runs",
                Json::Arr(s.runs.iter().map(RunRecord::to_json).collect()),
            ),
        ];
        if let Some(p) = &s.probes {
            fields.push(("probes", probe_summary_json(p)));
        }
        if let Some(w) = &s.whatif {
            fields.push(("whatif", whatif_json(w)));
        }
        if s.faults.any() {
            fields.push(("faults", fault_stats_json(&s.faults)));
        }
        Json::obj(fields)
    });
    let failures = failures.iter().map(|f| {
        Json::obj([
            ("name", Json::Str(f.name.into())),
            ("reason", Json::Str(f.reason.clone())),
            ("attempts", Json::UInt(f.attempts as u64)),
        ])
    });
    let mut doc = vec![
        schema(),
        ("binary", Json::Str(binary.into())),
        ("scale", Json::Str(scale.into())),
        ("host_seconds", Json::Num(host_seconds)),
        ("simulated_cycles", Json::UInt(simulated_cycles)),
        ("ticked_cycles", Json::UInt(ticked_cycles)),
        (
            "skip_efficiency",
            Json::Num(skip_efficiency(ticked_cycles, simulated_cycles)),
        ),
        (
            "cycles_per_host_second",
            Json::Num(simulated_cycles as f64 / host_seconds.max(1e-9)),
        ),
        ("workloads", Json::Arr(workloads.collect())),
        ("failures", Json::Arr(failures.collect())),
    ];
    doc.extend(chaos.map(|block| ("faults", block)));
    Json::obj(doc)
}

/// The git revision the harness is running from (short hash, plus
/// `-dirty` when the tree has uncommitted changes), or `"unknown"`
/// outside a git checkout. The benchmark stamps it into the provenance
/// block of every result document.
pub fn git_rev() -> String {
    let run = |args: &[&str]| {
        std::process::Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let Some(rev) = run(&["rev-parse", "--short", "HEAD"]) else {
        return "unknown".into();
    };
    match run(&["status", "--porcelain"]) {
        Some(s) if !s.is_empty() => format!("{rev}-dirty"),
        _ => rev,
    }
}

/// A workload that did not survive its sweep: it panicked, exceeded its
/// cycle budget, or failed to compile, simulate, or validate — on every
/// attempt it was given (a *hard* failure once retries are in play).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadFailure {
    /// Benchmark name.
    pub name: &'static str,
    /// Human-readable cause (the last attempt's panic message or
    /// typed-error rendering).
    pub reason: String,
    /// Attempts made (1 without `--retries`).
    pub attempts: u32,
}

/// A workload that failed at least once but succeeded on a retry: the
/// failure did not reproduce on a fresh [`Experiment`] under a reseeded
/// fault plan, so it is *flaky* rather than *hard*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadFlake {
    /// Benchmark name.
    pub name: &'static str,
    /// Attempts made, including the one that succeeded.
    pub attempts: u32,
    /// What the first failed attempt reported.
    pub first_error: String,
}

/// What a [`run_workloads`] sweep produced: the per-workload closure
/// results (in workload order), the failures (also in workload order),
/// plus the aggregate throughput numbers.
#[derive(Debug)]
pub struct Harvest<R> {
    /// Closure results per surviving workload, in workload order.
    pub results: Vec<(Workload, R)>,
    /// Run inventories per surviving workload (same order).
    pub summaries: Vec<WorkloadSummary>,
    /// Workloads that panicked or returned an error on every attempt, in
    /// workload order.
    pub failures: Vec<WorkloadFailure>,
    /// Workloads that failed but recovered on a retry, in workload order
    /// (always empty without `--retries`).
    pub flaky: Vec<WorkloadFlake>,
    /// Total simulated cycles across the sweep.
    pub simulated_cycles: u64,
    /// Total cycles the simulator actually ticked for them.
    pub ticked_cycles: u64,
    /// Wall-clock duration of the sweep.
    pub host_seconds: f64,
}

impl<R> Harvest<R> {
    /// A rendered "failed workloads" section for figure stdout — empty
    /// when every workload survived, so clean sweeps stay byte-identical
    /// to a harness without fault isolation.
    pub fn failure_section(&self) -> String {
        if self.failures.is_empty() {
            return String::new();
        }
        let mut s = String::from("== Failed workloads ==\n");
        for f in &self.failures {
            s.push_str(&format!("{}: FAILED: {}\n", f.name, f.reason));
        }
        s
    }

    /// Print the throughput line (stderr, keeping figure stdout clean)
    /// and write the `BENCH_<binary>.json` sidecar to the working
    /// directory.
    pub fn report(&self, binary: &str, args: &HarnessArgs) {
        eprintln!(
            "[{binary}] {}",
            throughput(self.simulated_cycles, self.host_seconds)
        );
        for f in &self.flaky {
            eprintln!(
                "[{binary}] {} FLAKY: recovered on attempt {} (first error: {})",
                f.name, f.attempts, f.first_error
            );
        }
        for f in &self.failures {
            eprintln!(
                "[{binary}] {} FAILED after {} attempt(s): {}",
                f.name, f.attempts, f.reason
            );
        }
        let path = format!("BENCH_{binary}.json");
        if let Err(e) = std::fs::write(&path, self.document(binary, args).render()) {
            eprintln!("[{binary}] cannot write {path}: {e}");
        }
    }

    /// The `BENCH_<binary>.json` document [`Harvest::report`] writes.
    /// Under `--faults` or `--retries` it ends in a `faults` block: the
    /// plan in `--faults` syntax, the retry allowance, and the
    /// flaky-vs-hard classification the retry loop produced.
    pub fn document(&self, binary: &str, args: &HarnessArgs) -> Json {
        let flaky = self.flaky.iter().map(|f| {
            Json::obj([
                ("name", Json::Str(f.name.into())),
                ("attempts", Json::UInt(f.attempts as u64)),
                ("first_error", Json::Str(f.first_error.clone())),
            ])
        });
        let plan = args.faults.as_ref().map(FaultPlan::spec);
        let chaos = (args.faults.is_some() || args.retries > 0).then(|| {
            Json::obj([
                ("plan", Json::Str(plan.unwrap_or_default())),
                ("retries", Json::UInt(args.retries as u64)),
                ("flaky", Json::Arr(flaky.collect())),
                ("hard", Json::UInt(self.failures.len() as u64)),
            ])
        });
        bench_json(
            binary,
            crate::serve::scale_label(args.scale),
            self.simulated_cycles,
            self.ticked_cycles,
            self.host_seconds,
            &self.summaries,
            &self.failures,
            chaos,
        )
    }
}

/// Render the panic payload `catch_unwind` hands back.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Run `f` for every selected workload with a ready [`Experiment`],
/// fanning the workloads out across host threads. Results come back in
/// workload order regardless of completion order; a workload that
/// panics, blows its cycle budget, or returns an error becomes a
/// [`Harvest::failures`] entry (also echoed on stderr), so one poisoned
/// workload cannot sink the rest of a figure.
pub fn run_workloads<R: Send>(
    args: &HarnessArgs,
    f: impl Fn(&Workload, &mut Experiment<'_>) -> Result<R, SystemError> + Sync,
) -> Harvest<R> {
    run_workloads_chaos(
        args.workloads(),
        args.budget_cycles,
        args.faults.clone(),
        args.retries,
        f,
    )
}

/// [`run_workloads`] on an explicit workload list and budget — the seam
/// the fault-isolation tests inject through.
pub fn run_workloads_on<R: Send>(
    ws: Vec<Workload>,
    budget_cycles: Option<u64>,
    f: impl Fn(&Workload, &mut Experiment<'_>) -> Result<R, SystemError> + Sync,
) -> Harvest<R> {
    run_workloads_chaos(ws, budget_cycles, None, 0, f)
}

/// What one workload's attempt loop produced: the success payload (with
/// how many attempts failed before it, for flaky classification) or the
/// last attempt's error.
type AttemptOutcome<R> = Result<(R, WorkloadSummary, u32, Option<String>), String>;

/// [`run_workloads_on`] plus chaos: every attempt runs under `faults`
/// (reseeded per attempt so an exhausted fault schedule does not
/// deterministically recur), and a failed workload is retried on a fresh
/// [`Experiment`] up to `retries` extra times. Success after a failure
/// classifies the workload as [`Harvest::flaky`]; failure of every
/// attempt leaves it in [`Harvest::failures`] (hard).
pub fn run_workloads_chaos<R: Send>(
    ws: Vec<Workload>,
    budget_cycles: Option<u64>,
    faults: Option<FaultPlan>,
    retries: u32,
    f: impl Fn(&Workload, &mut Experiment<'_>) -> Result<R, SystemError> + Sync,
) -> Harvest<R> {
    let n = ws.len();
    type Slot<R> = Mutex<Option<AttemptOutcome<R>>>;
    let slots: Vec<Slot<R>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let threads = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n.max(1));
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let w = &ws[i];
                let mut res: AttemptOutcome<R> = Err("workload was never run".into());
                let mut first_error = None;
                for attempt in 0..=retries {
                    let plan = faults.as_ref().map(|p| p.reseeded(attempt as u64));
                    // AssertUnwindSafe: on panic the closure's experiment
                    // is dropped whole and the attempt becomes an error,
                    // so no half-updated state survives into the harvest
                    // (or into the next attempt, which starts fresh).
                    let w0 = Instant::now();
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let mut exp = Experiment::with_cycle_budget(&w.program, budget_cycles)?;
                        exp.set_fault_plan(plan);
                        let r = f(w, &mut exp)?;
                        let elapsed = w0.elapsed().as_secs_f64();
                        Ok::<_, SystemError>((r, workload_summary(w.name, &exp, elapsed)))
                    }));
                    let reason = match outcome {
                        Ok(Ok((r, sm))) => {
                            res = Ok((r, sm, attempt, first_error.take()));
                            break;
                        }
                        Ok(Err(e)) => e.to_string(),
                        Err(payload) => format!("panicked: {}", panic_message(&*payload)),
                    };
                    eprintln!("{} (attempt {}): {reason}", w.name, attempt + 1);
                    if first_error.is_none() {
                        first_error = Some(reason.clone());
                    }
                    res = Err(reason);
                }
                *slots[i].lock().expect("result slot poisoned") = Some(res);
            });
        }
    });
    let host_seconds = t0.elapsed().as_secs_f64();
    let mut results = Vec::new();
    let mut summaries = Vec::new();
    let mut failures = Vec::new();
    let mut flaky = Vec::new();
    let mut simulated_cycles = 0u64;
    let mut ticked_cycles = 0u64;
    for (w, slot) in ws.into_iter().zip(slots) {
        match slot.into_inner().expect("result slot poisoned") {
            Some(Ok((r, sm, failed_before, first_error))) => {
                simulated_cycles += sm.simulated_cycles;
                ticked_cycles += sm.ticked_cycles;
                if failed_before > 0 {
                    flaky.push(WorkloadFlake {
                        name: w.name,
                        attempts: failed_before + 1,
                        first_error: first_error.unwrap_or_default(),
                    });
                }
                summaries.push(sm);
                results.push((w, r));
            }
            Some(Err(reason)) => failures.push(WorkloadFailure {
                name: w.name,
                reason,
                attempts: retries + 1,
            }),
            None => failures.push(WorkloadFailure {
                name: w.name,
                reason: "workload was never run".into(),
                attempts: 0,
            }),
        }
    }
    Harvest {
        results,
        summaries,
        failures,
        flaky,
        simulated_cycles,
        ticked_cycles,
        host_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAKES: [&str; 5] = [
        "--test",
        "--bench NAME",
        "--backend B",
        "--retries N",
        "--faults F",
    ];

    fn parse(argv: &[&str]) -> Result<HarnessArgs, String> {
        HarnessArgs::parse(Scale::Full, &TAKES, 3, argv)
    }

    /// The sidecar a sweep run with `argv` writes.
    fn sidecar<R>(h: &Harvest<R>, argv: &[&str]) -> String {
        h.document("t", &parse(argv).expect("flags")).render()
    }

    fn named(names: &[&str]) -> Vec<Workload> {
        let ws = all(Scale::Test).into_iter();
        ws.filter(|w| names.contains(&w.name)).collect()
    }

    #[test]
    fn workload_filter_selects_one() {
        let args = parse(&["--test", "--bench", "164.gzip"]).expect("a known benchmark");
        let ws = args.workloads();
        assert_eq!(ws.len(), 1);
        assert_eq!(ws[0].name, "164.gzip");
        assert_eq!(args.scale, Scale::Test);
        // An unknown name is a usage error naming the valid ones, not an
        // empty selection.
        let err = parse(&["--bench", "nope"]).expect_err("an unknown benchmark");
        assert!(err.contains("nope") && err.contains("164.gzip"), "{err}");
    }

    #[test]
    fn run_workloads_collects_summaries_and_json() {
        let args = parse(&["--test", "--bench", "rawcaudio"]).unwrap();
        let h = run_workloads(&args, |w, exp| {
            exp.run(Strategy::Serial, 1)?;
            Ok(w.name)
        });
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].1, "rawcaudio");
        assert_eq!(h.summaries[0].name, "rawcaudio");
        assert!(!h.summaries[0].runs.is_empty(), "run inventory captured");
        assert!(h.failures.is_empty());
        assert_eq!(h.failure_section(), "");
        // The document's shape is pinned whole by tests/run_record.rs.
        let s = sidecar(&h, &[]);
        assert!(s.contains("\"name\":\"rawcaudio\"") && s.contains("\"failures\":[]"));
    }

    /// A deliberately panicking workload must become a marked-failed row
    /// while the other workloads' results are still produced.
    #[test]
    fn panicking_workload_is_isolated() {
        let ws = named(&["rawcaudio", "164.gzip"]);
        assert_eq!(ws.len(), 2);
        let h = run_workloads_on(ws, None, |w, exp| {
            if w.name == "164.gzip" {
                panic!("injected fault in {}", w.name);
            }
            exp.run(Strategy::Serial, 1)?;
            Ok(w.name)
        });
        assert_eq!(h.results.len(), 1);
        assert_eq!(h.results[0].1, "rawcaudio");
        assert_eq!(h.summaries.len(), 1);
        assert_eq!(h.failures.len(), 1);
        assert_eq!(h.failures[0].name, "164.gzip");
        assert!(
            h.failures[0].reason.contains("injected fault in 164.gzip"),
            "{}",
            h.failures[0].reason
        );
        let section = h.failure_section();
        assert!(section.contains("== Failed workloads =="));
        assert!(section.contains("164.gzip: FAILED:"));
        assert!(sidecar(&h, &[]).contains("injected fault"));
    }

    /// A workload that fails once and then succeeds on a retry is
    /// classified flaky, not failed: its results are harvested and the
    /// first error is kept for the sidecar.
    #[test]
    fn flaky_workload_recovers_on_retry() {
        use std::sync::atomic::AtomicU32;
        let ws = named(&["rawcaudio"]);
        let calls = AtomicU32::new(0);
        let h = run_workloads_chaos(ws, None, None, 2, |w, exp| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("transient failure");
            }
            exp.run(Strategy::Serial, 1)?;
            Ok(w.name)
        });
        assert_eq!(h.results.len(), 1);
        assert!(h.failures.is_empty());
        assert_eq!(h.flaky.len(), 1);
        assert_eq!(h.flaky[0].name, "rawcaudio");
        assert_eq!(h.flaky[0].attempts, 2);
        assert!(
            h.flaky[0].first_error.contains("transient failure"),
            "{}",
            h.flaky[0].first_error
        );
        let s = sidecar(&h, &["--retries", "2"]);
        assert!(s.contains("\"flaky\""));
        assert!(s.contains("\"attempts\":2"));
        assert!(s.contains("\"hard\":0"));
    }

    /// A workload that fails every attempt is a hard failure carrying the
    /// full attempt count.
    #[test]
    fn hard_failure_exhausts_its_retries() {
        let ws = named(&["rawcaudio"]);
        let h = run_workloads_chaos(ws, None, None, 2, |_, _| -> Result<(), SystemError> {
            panic!("hard failure")
        });
        assert!(h.results.is_empty());
        assert!(h.flaky.is_empty());
        assert_eq!(h.failures.len(), 1);
        assert_eq!(h.failures[0].attempts, 3);
        assert!(h.failures[0].reason.contains("hard failure"));
    }

    /// A sweep under a real fault plan recovers (the experiment's output
    /// check holds faulted runs to the golden memory), and its sidecar
    /// reads back as the summary's records: gsmencode's hybrid/4 shares
    /// llp/4's simulation, so its row names llp, `distinct_runs` is two,
    /// and it carries llp's fault counters without the workload totals
    /// counting them again.
    #[test]
    fn faulted_sweep_recovers_and_reports_counters() {
        use voltron_core::report::parse;
        use voltron_core::FaultSite;
        let ws = named(&["gsmencode"]);
        let plan = FaultPlan::seeded(7, 0.01).only(FaultSite::Fetch);
        let h = run_workloads_chaos(ws, None, Some(plan.clone()), 0, |_, exp| {
            let snooping = CoherenceBackend::Snooping;
            exp.run_all_on(&[
                (Strategy::Ilp, 4, snooping),
                (Strategy::Llp, 4, snooping),
                (Strategy::Hybrid, 4, snooping),
            ])
        });
        assert!(h.failures.is_empty(), "{:?}", h.failures);
        let summary = &h.summaries[0];
        assert_eq!(summary.distinct_runs, 2);
        assert!(summary.faults.any(), "no fetch faults fired");
        assert_eq!(
            summary.faults.injected(),
            summary.faults.recovered(),
            "every injected fetch hiccup is recovered at injection"
        );
        let doc = sidecar(&h, &["--faults", "seed=7,rate=0.01,site=fetch"]);
        let doc = parse(&doc).expect("sidecar parses");
        let plan = doc.get("faults").and_then(|f| f.get("plan"));
        assert_eq!(plan, Some(&Json::Str("seed=7,rate=0.01,site=fetch".into())));
        let w = &doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")[0];
        let runs = w.get("runs").and_then(Json::as_arr).expect("runs");
        let runs: Result<Vec<RunRecord>, _> = runs.iter().map(RunRecord::from_json).collect();
        assert_eq!(runs.as_ref(), Ok(&summary.runs));
        let shared: Vec<_> = summary
            .runs
            .iter()
            .map(|r| (&*r.strategy, r.shared_with))
            .collect();
        let llp = Some(Strategy::Llp);
        assert_eq!(shared, [("hybrid", llp), ("ilp", None), ("llp", None)]);
        let injected = |shared: bool| -> u64 {
            let runs = summary.runs.iter();
            let runs = runs.filter(|r| r.shared_with.is_some() == shared);
            runs.map(|r| r.faults.injected()).sum()
        };
        assert!(injected(true) > 0, "the shared run carries llp's counters");
        assert_eq!(
            summary.faults.injected(),
            injected(false),
            "once per simulation"
        );
    }

    /// A workload that exceeds its simulated-cycle budget fails with
    /// `MaxCycles` instead of holding its host thread.
    #[test]
    fn budget_overrun_is_a_marked_failure() {
        let ws = named(&["rawcaudio"]);
        let h = run_workloads_on(ws, Some(10), |w, exp| {
            exp.run(Strategy::Serial, 1)?;
            Ok(w.name)
        });
        assert!(h.results.is_empty());
        assert_eq!(h.failures.len(), 1);
        assert!(
            h.failures[0].reason.contains("max cycles"),
            "{}",
            h.failures[0].reason
        );
    }
}
