//! Bottleneck-intelligence invariants (DESIGN.md §11).
//!
//! Two properties make a CPI stack and a what-if report trustworthy,
//! and both are pinned here end-to-end on real workloads:
//!
//! * **Exact sum** — every (core, cycle) of a run lands in exactly one
//!   stack bucket: `issued + nops + idle + stalls + spawn_starts ==
//!   (cycles + drained_cycles) * cores`, machine-wide and per region
//!   (against each region's own `cycles * cores` budget). A stack that
//!   "mostly sums" can hide an unattributed bucket exactly where the
//!   bottleneck is.
//! * **Ceilings are ceilings** — idealizing a hardware resource never
//!   adds work, so every knob's `measured / ideal` speedup must be at
//!   least `1 - epsilon` (epsilon absorbs second-order scheduling shifts:
//!   e.g. a reordered bus grant can move a handful of cycles).
//!
//! Every idealized run inside `Experiment::whatif_on` is also validated
//! against the golden interpreter memory, so this test doubles as the
//! proof that the knobs (including value-based TM conflict detection)
//! change timing, never architectural output.

use voltron_core::{Experiment, KnobId, Strategy};
use voltron_sim::CoherenceBackend;
use voltron_workloads::{by_name, Scale};

/// Tolerance for second-order scheduling effects in ceiling speedups.
const EPS: f64 = 0.02;

const MATRIX: &[(&str, Strategy)] = &[
    ("164.gzip", Strategy::Hybrid),
    ("164.gzip", Strategy::FineGrainTlp),
    ("rawcaudio", Strategy::Hybrid),
    ("rawcaudio", Strategy::Llp),
    ("gsmdecode", Strategy::Hybrid),
    ("gsmdecode", Strategy::FineGrainTlp),
];

fn check(bench: &str, strategy: Strategy, cores: usize, backend: CoherenceBackend) {
    let w = by_name(bench, Scale::Test).expect("known benchmark");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    let report = exp
        .whatif_on(strategy, cores, backend)
        .unwrap_or_else(|e| panic!("{bench}/{strategy}: {e}"));
    let tag = format!("{bench}/{strategy}/{cores}");

    // Machine-wide exact sum.
    let stack = &report.stack;
    assert!(
        stack.is_exact(),
        "{tag}: machine stack accounts {} of {} core-cycles",
        stack.accounted(),
        stack.total
    );
    assert_eq!(stack.cores, cores, "{tag}");
    assert_eq!(
        report.measured_cycles,
        exp.run_on(strategy, cores, backend).unwrap().cycles
    );

    // Per-region exact sums, and the regions partition the run: their
    // cycle budgets sum to the machine's (every cycle is inside exactly
    // one region, REGION_OUTSIDE covering the remainder).
    let mut region_total = 0u64;
    for d in &report.regions {
        assert!(
            d.stack.is_exact(),
            "{tag} region {}: accounts {} of {}",
            d.region,
            d.stack.accounted(),
            d.stack.total
        );
        region_total += d.stack.total;
    }
    assert_eq!(
        region_total, stack.total,
        "{tag}: regions must partition the run"
    );

    // One ceiling per knob, each >= 1 - eps, and the best one is the max.
    assert_eq!(report.ceilings.len(), KnobId::ALL.len(), "{tag}");
    for c in &report.ceilings {
        assert!(
            c.speedup_ceiling >= 1.0 - EPS,
            "{tag}: idealizing {} made the run slower ({} -> {} cycles, {:.4}x)",
            c.knob,
            report.measured_cycles,
            c.ideal_cycles,
            c.speedup_ceiling
        );
        assert!(c.ideal_cycles > 0, "{tag}: {} ran zero cycles", c.knob);
    }
    let best = report.best_ceiling().speedup_ceiling;
    for c in &report.ceilings {
        assert!(best >= c.speedup_ceiling, "{tag}: best_ceiling is not max");
    }
}

#[test]
fn stacks_sum_exactly_and_ceilings_hold_across_the_matrix() {
    for &(bench, strategy) in MATRIX {
        check(bench, strategy, 4, CoherenceBackend::Snooping);
    }
}

#[test]
fn invariants_hold_on_the_directory_backend_and_two_cores() {
    check(
        "164.gzip",
        Strategy::Hybrid,
        4,
        CoherenceBackend::directory_for(4),
    );
    check("rawcaudio", Strategy::Hybrid, 2, CoherenceBackend::Snooping);
}

/// The serial baseline also carries an exact stack (1 core, no spawns,
/// no communication) — the degenerate case keeps the invariant honest.
#[test]
fn serial_stack_is_exact_too() {
    check("gsmdecode", Strategy::Serial, 1, CoherenceBackend::Snooping);
}

/// What-if never perturbs the measured world: running the full report
/// then re-reading the cached run yields byte-identical stats, and a
/// fresh experiment reproduces the same measured cycles.
#[test]
fn whatif_leaves_the_measured_run_untouched() {
    let w = by_name("164.gzip", Scale::Test).expect("known benchmark");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    let before = exp.run(Strategy::Hybrid, 4).unwrap().stats.clone();
    let report = exp
        .whatif_on(Strategy::Hybrid, 4, CoherenceBackend::Snooping)
        .unwrap();
    let after = exp.run(Strategy::Hybrid, 4).unwrap();
    assert_eq!(before, after.stats, "cache must hold the measured object");
    assert_eq!(report.measured_cycles, after.cycles);

    let mut fresh = Experiment::new(&w.program).expect("experiment");
    assert_eq!(
        fresh.run(Strategy::Hybrid, 4).unwrap().cycles,
        report.measured_cycles,
        "a fresh measured run must not see any knob residue"
    );
}

/// The free-spawn knob lands thread starts straight in the target's CAM,
/// bypassing the send queue — and with it the routed delivery that wakes
/// a parked core. 164.gzip hybrid/4 spawns onto sleeping workers in every
/// parallel region; a bypass that forgets the wake-up leaves them asleep
/// and the master deadlocked on their join tokens.
#[test]
fn free_spawn_bypass_wakes_the_parked_target() {
    let w = by_name("164.gzip", Scale::Test).expect("known benchmark");
    let mut exp = Experiment::new(&w.program).expect("experiment");
    let report = exp
        .whatif_on(Strategy::Hybrid, 4, CoherenceBackend::Snooping)
        .expect("every idealized run completes");
    let free = report
        .ceilings
        .iter()
        .find(|c| c.knob == KnobId::FreeSpawn)
        .expect("a free-spawn ceiling");
    assert!(free.ideal_cycles > 0);
    assert!(
        free.speedup_ceiling >= 1.0 - EPS,
        "free spawns made the run slower: {} -> {} cycles",
        report.measured_cycles,
        free.ideal_cycles
    );
}
