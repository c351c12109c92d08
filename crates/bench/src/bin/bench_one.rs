//! Deep-dive one benchmark: every strategy's cycles, speedup, stall
//! breakdown, and region plan.
//! `cargo run -p voltron-bench --bin bench_one -- <benchmark> [--full]
//!  [--trace-out FILE] [--probes-out FILE]`
//!
//! With `--trace-out`/`--probes-out` the 4-core hybrid configuration is
//! re-run with observability attached: a Chrome trace-event timeline
//! (open the file in <https://ui.perfetto.dev>) and/or an interval probe
//! series, whose summary also lands in `BENCH_bench_one.json`.

use voltron_bench::harness::{bench_json, chaos_json, workload_summary, DEFAULT_PROBE_PERIOD};
use voltron_core::report::throughput;
use voltron_core::{Experiment, FaultPlan, ObsRequest, StallCategory, Strategy};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{by_name, Scale};

fn usage() -> ! {
    eprintln!(
        "usage: bench_one <benchmark> [--full] [--trace-out FILE] [--probes-out FILE] \
         [--backend snooping|directory] [--faults seed=N,rate=R[,site=LABEL]] [--whatif]"
    );
    std::process::exit(2);
}

fn main() {
    let t0 = std::time::Instant::now();
    let mut bench = None;
    let mut scale = Scale::Test;
    let mut trace_out: Option<String> = None;
    let mut probes_out: Option<String> = None;
    let mut backend = CoherenceBackend::Snooping;
    let mut faults: Option<FaultPlan> = None;
    let mut whatif = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--full" => scale = Scale::Full,
            "--test" => scale = Scale::Test,
            "--whatif" => whatif = true,
            "--trace-out" => trace_out = Some(args.next().unwrap_or_else(|| usage())),
            "--probes-out" => probes_out = Some(args.next().unwrap_or_else(|| usage())),
            "--backend" => {
                let v = args.next().unwrap_or_else(|| usage());
                backend = CoherenceBackend::parse(&v).unwrap_or_else(|| usage());
            }
            "--faults" => {
                let v = args.next().unwrap_or_else(|| usage());
                faults = match FaultPlan::parse(&v) {
                    Ok(p) => Some(p),
                    Err(e) => {
                        eprintln!("{e}");
                        std::process::exit(2);
                    }
                };
            }
            other => bench = Some(other.to_string()),
        }
    }
    let bench = bench.unwrap_or_else(|| usage());
    let w = by_name(&bench, scale).unwrap_or_else(|| {
        eprintln!("unknown benchmark {bench}");
        std::process::exit(2);
    });
    let mut exp = Experiment::new(&w.program).unwrap_or_else(|e| panic!("{e}"));
    // Installed after construction so the serial baseline stays
    // fault-free (the speedup denominator); every sweep run below is
    // chaos-tested and still held to the golden output.
    exp.set_fault_plan(faults.clone());
    let base = exp.baseline_cycles();
    println!(
        "{} ({:?}): serial baseline {base} cycles",
        w.name, w.expected
    );
    let configs = [
        (Strategy::Ilp, 4, backend),
        (Strategy::FineGrainTlp, 4, backend),
        (Strategy::Llp, 4, backend),
        (Strategy::Hybrid, 2, backend),
        (Strategy::Hybrid, 4, backend),
    ];
    if let Err(e) = exp.run_all_on(&configs) {
        // Per-config errors are reported in the loop below.
        eprintln!("[bench_one] sweep: {e}");
    }
    for (s, c, bk) in configs {
        match exp.run_on(s, c, bk) {
            Ok(r) => {
                let mut kinds: Vec<_> = r.region_kinds.values().collect();
                kinds.sort();
                kinds.dedup();
                println!(
                    "{s:>15}/{c}: {:>9} cycles  speedup {:.2}  coupled {:>5.1}%  regions {kinds:?}",
                    r.cycles,
                    r.speedup,
                    100.0 * r.coupled_fraction()
                );
                for cat in StallCategory::ALL {
                    let v = r.normalized_stall(cat, base);
                    if v > 0.002 {
                        println!("{:>20}: {v:.3} of serial time", cat.label());
                    }
                }
            }
            Err(e) => println!("{s:>15}/{c}: ERROR {e}"),
        }
    }
    // Observability pass: re-run the 4-core hybrid with the requested
    // instruments attached. The architectural result is identical (the
    // observer-effect tests pin this); only the artifacts are new.
    let mut probe_summary = None;
    if trace_out.is_some() || probes_out.is_some() {
        let req = ObsRequest {
            chrome_trace: trace_out.is_some(),
            probe_period: probes_out.as_ref().map(|_| DEFAULT_PROBE_PERIOD),
        };
        match exp.run_observed_on(Strategy::Hybrid, 4, backend, &req) {
            Ok(o) => {
                if let Some(path) = &trace_out {
                    match std::fs::write(path, &o.trace_json) {
                        Ok(()) => eprintln!("[bench_one] wrote {path}"),
                        Err(e) => eprintln!("[bench_one] cannot write {path}: {e}"),
                    }
                }
                if let (Some(path), Some(series)) = (&probes_out, &o.probes) {
                    match std::fs::write(path, series.render_json()) {
                        Ok(()) => eprintln!("[bench_one] wrote {path}"),
                        Err(e) => eprintln!("[bench_one] cannot write {path}: {e}"),
                    }
                }
                probe_summary = o.probes.as_ref().map(|s| s.summary());
            }
            Err(e) => eprintln!("[bench_one] observed run failed: {e}"),
        }
    }
    // Bottleneck pass: diagnose the 4-core hybrid. The measured run is
    // already cached, so this only pays for the five idealized re-runs.
    let mut whatif_report = None;
    if whatif {
        match exp.whatif_on(Strategy::Hybrid, 4, backend) {
            Ok(report) => {
                println!(
                    "\nbottleneck (hybrid/4): bound by {}, best ceiling {} ({:.2}x)",
                    report.bound_by,
                    report.best_ceiling().knob,
                    report.best_ceiling().speedup_ceiling
                );
                for c in &report.ceilings {
                    println!(
                        "{:>22}: {:>9} cycles  ceiling {:.2}x",
                        c.knob.label(),
                        c.ideal_cycles,
                        c.speedup_ceiling
                    );
                }
                whatif_report = Some(report);
            }
            Err(e) => eprintln!("[bench_one] what-if pass failed: {e}"),
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    eprintln!("[bench_one] {}", throughput(exp.simulated_cycles(), secs));
    let scale_name = if scale == Scale::Full { "full" } else { "test" };
    let mut summary = workload_summary(w.name, &exp, secs);
    summary.probes = probe_summary;
    summary.whatif = whatif_report;
    if summary.faults.any() {
        eprintln!(
            "[bench_one] faults: {} injected, {} recovered, {} gave up",
            summary.faults.injected(),
            summary.faults.recovered(),
            summary.faults.gave_up()
        );
    }
    let chaos = faults.as_ref().map(|p| chaos_json(Some(p), 0, &[], 0));
    let summaries = [summary];
    let doc = bench_json(
        "bench_one",
        scale_name,
        exp.simulated_cycles(),
        exp.ticked_cycles(),
        secs,
        &summaries,
        &[],
        chaos,
    );
    if let Err(e) = std::fs::write("BENCH_bench_one.json", doc.render()) {
        eprintln!("[bench_one] cannot write BENCH_bench_one.json: {e}");
    }
}
