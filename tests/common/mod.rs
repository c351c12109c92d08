//! The fingerprint helper `cycle_golden.rs` and `scaling_golden.rs` pin
//! their matrices with.

use std::sync::Arc;

use voltron_compiler::{compile, CompileOptions};
use voltron_core::Strategy;
use voltron_sim::{ChromeTracer, Machine, MachineConfig, StallReason};
use voltron_workloads::{by_name, Scale};

/// Compile `bench` with `strategy` for `cfg` once, run the image in all
/// four {fast-forward on, off} × {plain, Chrome tracer + interval probes}
/// corners, and return the one fingerprint
/// `<label>: cycles/coupled/decoupled/insts/spawns|stall0,...,stall8`
/// (stalls summed over cores in `StallReason::ALL` order) they agree on.
/// Fast-forward (DESIGN.md §6) and the observability layer (§8) are
/// architecturally invisible, so a corner that differs from the first is
/// a bug and panics naming itself.
pub fn fingerprint(label: &str, bench: &str, strategy: Strategy, cfg: &MachineConfig) -> String {
    let w = by_name(bench, Scale::Test).expect("benchmark registered");
    let compiled = compile(&w.program, strategy, cfg, &CompileOptions::default())
        .unwrap_or_else(|e| panic!("{label}: compile: {e}"));
    let image = Arc::new(compiled.machine);
    let mut agreed: Option<String> = None;
    for fast_forward in [true, false] {
        for observed in [false, true] {
            let corner = format!("{label} (fast-forward {fast_forward}, observed {observed})");
            let mut cfg = cfg.clone();
            cfg.fast_forward = fast_forward;
            cfg.probe_period = observed.then_some(64);
            let mut machine = Machine::new_shared(Arc::clone(&image), &cfg)
                .unwrap_or_else(|e| panic!("{corner}: boot: {e}"));
            if observed {
                machine.set_tracer(Box::new(ChromeTracer::new()));
            }
            let out = machine
                .run()
                .unwrap_or_else(|e| panic!("{corner}: run: {e}"));
            if observed {
                assert!(!out.trace.is_empty(), "{corner}: no trace");
                assert!(
                    out.probes.as_ref().is_some_and(|p| !p.samples.is_empty()),
                    "{corner}: no probe samples"
                );
            }
            let s = &out.stats;
            let stalls: Vec<String> = StallReason::ALL
                .iter()
                .map(|&r| s.total_stall(r).to_string())
                .collect();
            let fp = format!(
                "{label}: {}/{}/{}/{}/{}|{}",
                s.cycles,
                s.coupled_cycles,
                s.decoupled_cycles,
                s.dynamic_insts,
                s.spawns,
                stalls.join(",")
            );
            let first = agreed.get_or_insert_with(|| fp.clone());
            assert_eq!(*first, fp, "{corner} differs from the first corner");
        }
    }
    agreed.expect("four corners ran")
}
