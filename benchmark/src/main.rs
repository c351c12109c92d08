//! The Voltron benchmark: five pinned workloads measured end to end with
//! tracing off, and layer by layer — from outside, by timing calls into
//! each layer's public functions — with tracing on. See `README.md` in
//! this directory; `BENCHMARK.json` at the repository root is the
//! contract this program is written to.

mod common;
mod compile_matrix;
mod contract;
mod observed;
mod provenance;
mod serve_mix;
mod spans;
mod staged;
mod stats;
mod sweep;
mod trace;
mod verify;

use common::{Args, Tally, Timed};
use contract::{Contract, MetricSpec};
use std::path::PathBuf;
use std::process::ExitCode;
use sweep::SweepSpec;
use trace::Traced;
use voltron_core::report::Json;

const USAGE: &str = "usage: voltron-benchmark --workload NAME [--seed N] [--seconds S] \
                     [--trace [0|1]] [--quick] [--out DIR] | --list | --list-exact | --verify [--out DIR]";

enum Mode {
    Run(Args),
    List,
    ListExact,
    Verify(PathBuf),
}

fn parse_args(contract: &Contract) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = contract.run_seconds as f64;
    let mut trace = false;
    let mut quick = false;
    let mut out_dir = PathBuf::from("benchmark/out");
    let (mut list, mut verify) = (false, false);
    let mut it = std::env::args().skip(1).peekable();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} requires a value"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed requires an unsigned integer")?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds requires a non-negative number")?;
            }
            "--out" => out_dir = PathBuf::from(value("--out")?),
            // The driver passes `--trace 0|1`; a bare `--trace` means 1.
            "--trace" => {
                trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--quick" => quick = true,
            "--list" => list = true,
            "--list-exact" => return Ok(Mode::ListExact),
            "--verify" => verify = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if list {
        return Ok(Mode::List);
    }
    if verify {
        return Ok(Mode::Verify(out_dir));
    }
    let workload = workload.ok_or("--workload is required")?;
    if contract.workload_why(&workload).is_none() {
        return Err(format!("unknown workload {workload} (try --list)"));
    }
    Ok(Mode::Run(Args {
        workload,
        seed,
        seconds,
        trace,
        quick,
        out_dir,
    }))
}

/// One reported metric: the value, and for a timing the spread of the
/// samples behind it (count, fastest, median, slowest).
struct Reported {
    name: String,
    value: f64,
    samples: Option<(usize, f64, f64, f64)>,
}

fn fastest(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn summarise(name: &str, value: f64, xs: &[f64]) -> Reported {
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Reported {
        name: name.into(),
        value,
        samples: (!xs.is_empty()).then(|| (xs.len(), fastest(xs), stats::median(xs), max)),
    }
}

/// The end-to-end metrics of an untraced run. Every workload reports
/// all of them; what an operation is differs per workload (README.md).
///
/// Every pass does identical work (its digest is checked), and on a
/// shared host interference only ever adds time, so the fastest pass is
/// the least disturbed estimate of what the work costs: `pass_s` and
/// `op_p50_ms` report the fastest pass, which repeats several times
/// better than the median does (README.md has the measurements), and the
/// median and slowest are printed beside them.
fn end_to_end(t: &Timed) -> Vec<Reported> {
    let p50_per_pass: Vec<f64> = t
        .op_ms
        .iter()
        .map(|ops| {
            let mut ops = ops.clone();
            ops.sort_by(f64::total_cmp);
            stats::percentile_sorted(&ops, 0.5)
        })
        .collect();
    vec![
        summarise("setup_s", stats::median(&t.setup_s), &t.setup_s),
        summarise("pass_s", fastest(&t.pass_s), &t.pass_s),
        summarise("op_p50_ms", fastest(&p50_per_pass), &p50_per_pass),
    ]
}

/// Everything one workload invocation measured.
struct Measured {
    tally: Tally,
    reported: Vec<Reported>,
    /// Unbounded facts for the human-readable report.
    facts: Vec<(String, Json)>,
    /// One recorder per track of the span file (traced runs only).
    recorders: Vec<(String, spans::Recorder)>,
}

fn run_workload(args: &Args) -> Measured {
    let timed = |t: Timed| {
        let reported = end_to_end(&t);
        let mut facts = t.facts;
        let mut ops: Vec<f64> = t.op_ms.iter().flatten().copied().collect();
        ops.sort_by(f64::total_cmp);
        // Over every operation of every timed pass: the median, and the
        // highest percentile with at least ten samples beyond it.
        facts.push(("op_latency_samples".into(), Json::UInt(ops.len() as u64)));
        for p in [Some(0.5), stats::tail_percentile(ops.len())]
            .into_iter()
            .flatten()
        {
            facts.push((
                format!("op_latency_p{}_ms", p * 100.0),
                Json::Num(stats::percentile_sorted(&ops, p)),
            ));
        }
        // The raw pass and set-up times, so a reader of the document can
        // see a noisy run for what it is.
        let list = |xs: &[f64]| Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect());
        facts.push(("pass_s_samples".into(), list(&t.pass_s)));
        facts.push(("setup_s_samples".into(), list(&t.setup_s)));
        Measured {
            tally: t.tally,
            reported,
            facts,
            recorders: Vec::new(),
        }
    };
    let traced = |mut t: Traced| {
        t.layers
            .insert("process.peak_rss_mb".into(), provenance::peak_rss_mb());
        let reported = t
            .layers
            .into_iter()
            .map(|(name, value)| Reported {
                name,
                value,
                samples: None,
            })
            .collect();
        Measured {
            tally: t.tally,
            reported,
            facts: Vec::new(),
            recorders: t.recorders,
        }
    };
    match (args.workload.as_str(), args.trace) {
        ("fig_sweep", false) => timed(sweep::run_timed(&SweepSpec::fig_sweep(), args)),
        ("fig_sweep", true) => traced(sweep::run_traced(&SweepSpec::fig_sweep(), args)),
        ("mesh_scale", false) => timed(sweep::run_timed(&SweepSpec::mesh_scale(), args)),
        ("mesh_scale", true) => traced(sweep::run_traced(&SweepSpec::mesh_scale(), args)),
        ("compile_matrix", false) => timed(compile_matrix::run_timed(args)),
        ("compile_matrix", true) => traced(compile_matrix::run_traced(args)),
        ("observed_runs", false) => timed(observed::run_timed(args)),
        ("observed_runs", true) => traced(observed::run_traced(args)),
        ("serve_mix", false) => timed(serve_mix::run_timed(args)),
        ("serve_mix", true) => traced(serve_mix::run_traced(args)),
        (other, _) => unreachable!("{other} passed the contract check but has no driver"),
    }
}

/// Run one workload, print the report, write the documents, and print
/// the contract's result object as the last line of stdout.
fn run(contract: &Contract, args: &Args) -> Result<bool, String> {
    let specs: &[MetricSpec] = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let prov = provenance::collect(contract, args);
    let Measured {
        mut tally,
        reported,
        facts,
        recorders,
    } = run_workload(args);

    // Every metric the contract names, exactly once; none it does not.
    let mut metrics = Vec::new();
    let mut details = Vec::new();
    let mut lines = Vec::new();
    for spec in specs {
        let found = reported.iter().find(|r| r.name == spec.name);
        // A layer this workload does not load reports 0 work and 0 time.
        let value = match (found, args.trace) {
            (Some(r), _) => r.value,
            (None, true) => 0.0,
            (None, false) => return Err(format!("{} was not measured", spec.name)),
        };
        if !value.is_finite() {
            tally.op(Err(format!("{} is not a finite number", spec.name)));
        }
        let unit = || ("unit".to_string(), Json::Str(spec.unit.clone()));
        metrics.push((
            spec.name.clone(),
            Json::Obj(vec![("value".into(), Json::Num(value)), unit()]),
        ));
        let mut d = vec![
            ("value".into(), Json::Num(value)),
            unit(),
            ("better".into(), Json::Str(spec.better.clone())),
        ];
        let mut line = format!(
            "{:<40} {:>18} {:<7} {}",
            spec.name,
            Json::Num(value).render(),
            spec.unit,
            spec.better
        );
        if let Some(b) = spec.bound {
            d.push(("bound".into(), Json::Num(b)));
            line.push_str(&format!("  bound {b}"));
        }
        if let Some((n, min, median, max)) = found.and_then(|r| r.samples) {
            d.push(("samples".into(), Json::UInt(n as u64)));
            d.push(("min".into(), Json::Num(min)));
            d.push(("median".into(), Json::Num(median)));
            d.push(("max".into(), Json::Num(max)));
            line.push_str(&format!("  n={n} min {min} median {median} max {max}"));
        }
        details.push((spec.name.clone(), Json::Obj(d)));
        lines.push(line);
    }
    if let Some(r) = reported
        .iter()
        .find(|r| !specs.iter().any(|s| s.name == r.name))
    {
        return Err(format!(
            "{} is measured but BENCHMARK.json does not name it",
            r.name
        ));
    }

    let mode = if args.trace {
        "per-layer, tracing on"
    } else {
        "end-to-end, tracing off"
    };
    println!("== voltron benchmark: {} ({mode}) ==", args.workload);
    if args.quick {
        println!("QUICK SMOKE RUN: one set-up, one pass; these numbers are not comparable");
    }
    println!(
        "why: {}",
        contract.workload_why(&args.workload).unwrap_or("")
    );
    for (k, v) in &prov {
        println!("{k}: {}", plain(v));
    }
    for (k, v) in &facts {
        println!("{k}: {}", plain(v));
    }
    for line in &lines {
        println!("{line}");
    }
    println!(
        "operations: {} attempted, {} failed",
        tally.attempted, tally.failed
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }

    let correct = tally.failed == 0;
    // `Json` has no boolean, so the four-key result object is assembled
    // around the rendered metrics.
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted.max(1),
        tally.failed,
        Json::Obj(metrics).render()
    );

    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", args.out_dir.display()))?;
    let stem = if args.trace { "layers" } else { "result" };
    let doc = Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("mode".into(), Json::Str(mode.into())),
        ("provenance".into(), Json::Obj(prov)),
        ("facts".into(), Json::Obj(facts)),
        ("metrics".into(), Json::Obj(details)),
        ("attempted".into(), Json::UInt(tally.attempted)),
        ("failed".into(), Json::UInt(tally.failed)),
        (
            "failures".into(),
            Json::Arr(tally.notes.iter().cloned().map(Json::Str).collect()),
        ),
    ]);
    let path = args.out_dir.join(format!("{stem}-{}.json", args.workload));
    std::fs::write(&path, format!("{}\n", doc.render()))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if args.trace {
        let path = args.out_dir.join(format!("trace-{}.json", args.workload));
        std::fs::write(&path, spans::chrome_document(&recorders).render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("spans: {}", path.display());
    }
    println!("{result}");
    Ok(correct)
}

/// A JSON scalar without its quotes, for the human-readable lines.
fn plain(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.render(),
    }
}

fn main() -> ExitCode {
    let outcome = Contract::load().and_then(|contract| match parse_args(&contract)? {
        Mode::List => {
            for (name, _) in &contract.workloads {
                println!("{name}");
            }
            Ok(true)
        }
        // The metrics that must repeat exactly, for `repeat.sh`.
        Mode::ListExact => {
            for m in contract.per_layer.iter().filter(|m| m.is_exact()) {
                println!("{}", m.name);
            }
            Ok(true)
        }
        Mode::Verify(out_dir) => verify::verify(&contract, &out_dir),
        Mode::Run(args) => run(&contract, &args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("voltron-benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
