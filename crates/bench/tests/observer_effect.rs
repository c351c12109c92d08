//! Observer-effect freedom: attaching the ChromeTracer and interval
//! probes must not change a single architectural number. This compares
//! full `MachineStats` (cycles, per-core stall breakdowns, region
//! attribution, memory/network/TM counters — everything `PartialEq`
//! covers) between a plain run and an instrumented run of the same
//! configuration.
//!
//! The full golden matrix is held to its pinned fingerprints plain and
//! observed in `tests/cycle_golden.rs`; this subset goes through
//! `Experiment` and compares the whole `MachineStats`.

use voltron_core::{Experiment, ObsRequest, Strategy};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{by_name, Scale};

const CONFIGS: &[(Strategy, usize)] = &[
    (Strategy::Ilp, 4),
    (Strategy::FineGrainTlp, 4),
    (Strategy::Llp, 4),
    (Strategy::Hybrid, 2),
    (Strategy::Hybrid, 4),
];

#[test]
fn observed_runs_report_identical_stats() {
    for bench in ["164.gzip", "rawcaudio"] {
        let w = by_name(bench, Scale::Test).expect("benchmark registered");
        let mut exp = Experiment::new(&w.program).expect("experiment");
        let req = ObsRequest {
            chrome_trace: true,
            probe_period: Some(64),
        };
        for &(strategy, cores) in CONFIGS {
            let plain = exp.run(strategy, cores).expect("plain run").stats.clone();
            let observed = exp
                .run_observed_on(strategy, cores, CoherenceBackend::Snooping, &req)
                .expect("observed run");
            assert_eq!(
                plain, observed.run.stats,
                "{bench} {strategy}/{cores}: observation changed the architectural stats"
            );
            assert!(
                !observed.trace_json.is_empty(),
                "{bench} {strategy}/{cores}: no trace collected"
            );
            assert!(
                observed
                    .probes
                    .as_ref()
                    .is_some_and(|p| !p.samples.is_empty()),
                "{bench} {strategy}/{cores}: no probe samples collected"
            );
        }
    }
}
