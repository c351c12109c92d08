//! CPI stacks and counterfactual what-if analysis.
//!
//! Two halves of one question — *what is this run bound by, and what
//! would fixing it buy?*
//!
//! * [`CycleStack`] decomposes a finished run's core-cycles into issue,
//!   per-[`StallReason`], idle, and spawn-start components, machine-wide
//!   and per region ([`region_stacks`]), under an **exact-sum
//!   invariant**: the components add to `(cycles + drained_cycles) *
//!   cores` for the run, `cycles * cores` for a region, with no residue
//!   (asserted by `tests/whatif_ceilings.rs`).
//!   TM-abort wasted work is carried as an *overlay* — those cycles were
//!   already classified as issue or stall while the doomed transaction
//!   ran, so adding them as a component would double-count.
//! * [`KnobId`] enumerates the idealization knobs of
//!   [`crate::config::IdealKnobs`]; the driver in `voltron-core` re-runs
//!   a workload with one knob lit at a time and reports the speedup as
//!   the **ceiling** on what optimizing that cost class can yield
//!   (Amdahl-style: removing a cost entirely bounds every partial fix).
//! * [`BoundBy`] names the cost classes; [`CycleStack::bound_by`] picks
//!   the dominant one, which is the per-region classification the
//!   feedback-directed planner (ROADMAP item 5) consumes.
//!
//! The measured run never sees a knob: stacks are pure post-processing
//! of [`MachineStats`], and idealized runs happen on separate machines
//! built from a config copy. Golden fingerprints therefore stay
//! byte-identical with this module compiled in.

use crate::config::IdealKnobs;
use crate::mcode::{RegionId, REGION_OUTSIDE};
use crate::stats::{CoreStats, MachineStats, StallReason};
use std::fmt;
use std::ops::Deref;

/// The cost class a run (or region) is dominated by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BoundBy {
    /// Issue and interlock cycles dominate: the code is doing work.
    Compute,
    /// I-fetch, d-miss and store-buffer stalls dominate.
    Memory,
    /// Operand-network stalls (recv-data, direct-wait, send-full)
    /// dominate.
    Communication,
    /// Sync, predicate-receive and spawn-start cycles dominate.
    Synchronization,
    /// Cores sit idle awaiting spawns: not enough parallelism extracted.
    Idle,
    /// TM-abort wasted work exceeds every primary bucket.
    TmConflicts,
}

impl fmt::Display for BoundBy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BoundBy::Compute => "compute",
            BoundBy::Memory => "memory",
            BoundBy::Communication => "communication",
            BoundBy::Synchronization => "synchronization",
            BoundBy::Idle => "idle",
            BoundBy::TmConflicts => "tm-conflicts",
        };
        f.write_str(s)
    }
}

/// A CPI stack: where every core-cycle of a run, or of one region of
/// it, went.
///
/// Built by [`CycleStack::of`] (machine-wide) or [`region_stacks`] from a
/// finished run's [`MachineStats`]; pure post-processing, the run is
/// never touched. It derefs to its [`CoreStats`] buckets, so
/// `stack.issued`, `stack.stalls` and `stack.accounted()` read the one
/// accounting record directly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CycleStack {
    /// Core count the totals are summed over.
    pub cores: usize,
    /// The exact-sum denominator: `(cycles + drained_cycles) * cores`
    /// for a run (every core is accounted on every simulated cycle,
    /// including the post-halt drain), `cycles * cores` for a region.
    pub total: u64,
    /// The core-cycles, bucketed. A region's NOPs are inside `issued`.
    pub buckets: CoreStats,
    /// Overlay: core-cycles inside transactions that later aborted.
    /// Already counted in `issued`/`stalls`; **not** an exact-sum term.
    pub tm_wasted: u64,
}

impl Deref for CycleStack {
    type Target = CoreStats;

    fn deref(&self) -> &CoreStats {
        &self.buckets
    }
}

impl CycleStack {
    /// Decompose a run's statistics into its machine-wide stack.
    pub fn of(stats: &MachineStats) -> CycleStack {
        let cores = stats.cores.len();
        CycleStack {
            cores,
            total: (stats.cycles + stats.drained_cycles) * cores as u64,
            buckets: stats.summed(),
            tm_wasted: stats.tm.wasted_cycles,
        }
    }

    /// The exact-sum invariant: the buckets add to `total` with no
    /// residue.
    pub fn is_exact(&self) -> bool {
        self.accounted() == self.total
    }

    /// Dominant cost class. Ties break toward the earlier class in
    /// [`BoundBy`]'s listing order (compute first), which makes the
    /// classification deterministic.
    pub fn bound_by(&self) -> BoundBy {
        let s = |r: StallReason| self.stalls_for(r);
        let classes = [
            (
                BoundBy::Compute,
                self.issued + self.nops + s(StallReason::Interlock),
            ),
            (
                BoundBy::Memory,
                s(StallReason::IFetch) + s(StallReason::DMiss) + s(StallReason::StoreBuf),
            ),
            (
                BoundBy::Communication,
                s(StallReason::RecvData) + s(StallReason::DirectWait) + s(StallReason::SendFull),
            ),
            (
                BoundBy::Synchronization,
                s(StallReason::Sync) + s(StallReason::RecvPred) + self.spawn_starts,
            ),
            (BoundBy::Idle, self.idle),
            (BoundBy::TmConflicts, self.tm_wasted),
        ];
        let mut best = classes[0];
        for c in classes {
            if c.1 > best.1 {
                best = c;
            }
        }
        best.0
    }

    /// Display rows `(label, core-cycles)` in stack order: issue first,
    /// then NOPs, each stall reason, spawn-starts, idle. Omits the
    /// `tm_wasted` overlay (render it separately — it double-counts).
    pub fn rows(&self) -> Vec<(String, u64)> {
        let mut rows = vec![
            ("issue".to_string(), self.issued),
            ("nop".to_string(), self.nops),
        ];
        for r in StallReason::ALL {
            rows.push((r.to_string(), self.stalls_for(r)));
        }
        rows.push(("spawn-start".to_string(), self.spawn_starts));
        rows.push(("idle".to_string(), self.idle));
        rows
    }
}

/// Every region's stack, `(region, cycles the master spent in it, its
/// stack over cycles * cores)`: planner regions in id order,
/// [`REGION_OUTSIDE`] last.
pub fn region_stacks(stats: &MachineStats) -> Vec<(RegionId, u64, CycleStack)> {
    let cores = stats.cores.len();
    let mut out: Vec<_> = stats
        .regions
        .iter()
        .map(|(&r, rb)| {
            let stack = CycleStack {
                cores,
                total: rb.cycles * cores as u64,
                buckets: rb.buckets.clone(),
                tm_wasted: rb.tm_wasted,
            };
            (r, rb.cycles, stack)
        })
        .collect();
    out.sort_by_key(|&(r, ..)| (r == REGION_OUTSIDE, r));
    out
}

/// One idealization knob of the what-if engine, naming a single field
/// of [`IdealKnobs`]. The driver runs the workload once per knob and
/// reports `measured_cycles / ideal_cycles` as that cost class's
/// speedup ceiling.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KnobId {
    /// Zero-latency operand network.
    ZeroLatencyNetwork,
    /// Infinite bus/bank bandwidth.
    InfiniteBandwidth,
    /// Perfect L1 caches.
    PerfectL1,
    /// Zero recoverable TM conflict aborts.
    ZeroTmConflicts,
    /// Free spawn delivery.
    FreeSpawn,
}

impl KnobId {
    /// Every knob, in display order.
    pub const ALL: [KnobId; 5] = [
        KnobId::ZeroLatencyNetwork,
        KnobId::InfiniteBandwidth,
        KnobId::PerfectL1,
        KnobId::ZeroTmConflicts,
        KnobId::FreeSpawn,
    ];

    /// Stable machine-readable label (used in `BENCH_*.json`).
    pub fn label(self) -> &'static str {
        match self {
            KnobId::ZeroLatencyNetwork => "zero-latency-network",
            KnobId::InfiniteBandwidth => "infinite-bandwidth",
            KnobId::PerfectL1 => "perfect-l1",
            KnobId::ZeroTmConflicts => "zero-tm-conflicts",
            KnobId::FreeSpawn => "free-spawn",
        }
    }

    /// The one-hot [`IdealKnobs`] this knob stands for.
    pub fn knobs(self) -> IdealKnobs {
        let mut k = IdealKnobs::default();
        match self {
            KnobId::ZeroLatencyNetwork => k.zero_latency_network = true,
            KnobId::InfiniteBandwidth => k.infinite_bandwidth = true,
            KnobId::PerfectL1 => k.perfect_l1 = true,
            KnobId::ZeroTmConflicts => k.zero_tm_conflicts = true,
            KnobId::FreeSpawn => k.free_spawn = true,
        }
        k
    }

    /// The cost class this knob removes — the ceiling it reports bounds
    /// fixes aimed at that class.
    pub fn addresses(self) -> BoundBy {
        match self {
            KnobId::ZeroLatencyNetwork => BoundBy::Communication,
            KnobId::InfiniteBandwidth | KnobId::PerfectL1 => BoundBy::Memory,
            KnobId::ZeroTmConflicts => BoundBy::TmConflicts,
            KnobId::FreeSpawn => BoundBy::Synchronization,
        }
    }
}

impl fmt::Display for KnobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RegionBreakdown;

    fn synthetic_stats() -> MachineStats {
        let mut m = MachineStats {
            cycles: 90,
            drained_cycles: 10,
            ..MachineStats::default()
        };
        // Two cores, each accounted for all 100 simulated cycles.
        let mut a = CoreStats {
            issued: 50,
            nops: 10,
            idle: 15,
            spawn_starts: 5,
            ..CoreStats::default()
        };
        a.stalls[StallReason::DMiss.index()] = 20;
        let mut b = CoreStats {
            issued: 40,
            idle: 30,
            ..CoreStats::default()
        };
        b.stalls[StallReason::RecvData.index()] = 25;
        b.stalls[StallReason::Sync.index()] = 5;
        m.cores = vec![a, b];
        m.tm.wasted_cycles = 7;
        m
    }

    #[test]
    fn machine_stack_sums_exactly() {
        let stack = CycleStack::of(&synthetic_stats());
        assert_eq!(stack.total, 200);
        assert_eq!(stack.accounted(), 200);
        assert!(stack.is_exact());
        assert_eq!(stack.tm_wasted, 7);
        // The overlay is not part of the sum.
        let row_sum: u64 = stack.rows().iter().map(|&(_, n)| n).sum();
        assert_eq!(row_sum, stack.total);
    }

    #[test]
    fn residue_is_detected() {
        let mut stats = synthetic_stats();
        stats.cores[0].issued -= 1; // lose one cycle
        let stack = CycleStack::of(&stats);
        assert!(!stack.is_exact());
        assert_eq!(stack.accounted(), stack.total - 1);
    }

    #[test]
    fn classification_picks_the_dominant_class() {
        let stack = CycleStack::of(&synthetic_stats());
        // compute 100 (issued 90 + nops 10) beats memory 20, comm 25,
        // sync 10, idle 45.
        assert_eq!(stack.bound_by(), BoundBy::Compute);

        let mut stats = synthetic_stats();
        stats.cores[0].stalls[StallReason::RecvData.index()] = 200;
        assert_eq!(CycleStack::of(&stats).bound_by(), BoundBy::Communication);

        let mut stats = synthetic_stats();
        stats.tm.wasted_cycles = 10_000;
        assert_eq!(CycleStack::of(&stats).bound_by(), BoundBy::TmConflicts);
    }

    #[test]
    fn region_stacks_sort_outside_last_and_sum() {
        let mut stats = synthetic_stats();
        let mut r0 = RegionBreakdown {
            cycles: 10,
            buckets: CoreStats {
                issued: 12,
                idle: 5,
                spawn_starts: 1,
                ..CoreStats::default()
            },
            ..RegionBreakdown::default()
        };
        r0.buckets.stalls[StallReason::Sync.index()] = 2;
        let outside = RegionBreakdown {
            cycles: 3,
            buckets: CoreStats {
                issued: 6,
                ..CoreStats::default()
            },
            ..RegionBreakdown::default()
        };
        stats.regions.insert(2, r0);
        stats.regions.insert(REGION_OUTSIDE, outside);
        let stacks = region_stacks(&stats);
        assert_eq!(stacks.len(), 2);
        assert_eq!((stacks[0].0, stacks[0].1), (2, 10));
        assert_eq!((stacks[1].0, stacks[1].1), (REGION_OUTSIDE, 3));
        assert_eq!(stacks[0].2.total, 20);
        assert!(stacks[0].2.is_exact());
        assert!(stacks[1].2.is_exact());
    }

    #[test]
    fn knobs_are_one_hot_and_labeled() {
        for k in KnobId::ALL {
            let knobs = k.knobs();
            assert!(knobs.any());
            let lit = [
                knobs.zero_latency_network,
                knobs.infinite_bandwidth,
                knobs.perfect_l1,
                knobs.zero_tm_conflicts,
                knobs.free_spawn,
            ]
            .iter()
            .filter(|&&b| b)
            .count();
            assert_eq!(lit, 1, "{k} must light exactly one field");
            assert!(!k.label().is_empty());
        }
        assert_eq!(KnobId::PerfectL1.addresses(), BoundBy::Memory);
    }
}
