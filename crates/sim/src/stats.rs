//! Cycle and stall accounting.
//!
//! The categories follow Fig. 12 of the paper: instruction-cache stalls,
//! data stalls, receive stalls (split into data and predicate receives),
//! and synchronization (spawn/join/commit-token/mode-switch barriers —
//! the paper's "call return sync" category; calls are inlined here, so the
//! synchronization happens at region boundaries instead, see DESIGN.md).

use crate::fault::FaultStats;
use crate::memsys::MemStats;
use crate::network::NetStats;
use crate::tm::TmStats;
use std::collections::HashMap;
use std::fmt;

/// Why a core could not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StallReason {
    /// Instruction-cache miss.
    IFetch,
    /// Waiting on a data-cache miss (pending load destination).
    DMiss,
    /// Store buffer full.
    StoreBuf,
    /// Register not yet ready (fixed-latency interlock slack).
    Interlock,
    /// Direct-mode latch not ready / occupied (`PUT`/`GET`/`BCAST`).
    DirectWait,
    /// `RECV` of a non-predicate value with no matching message.
    RecvData,
    /// `RECV`/`GETB` of a predicate with no matching message (control
    /// synchronization).
    RecvPred,
    /// Send queue full.
    SendFull,
    /// Synchronization: mode-switch barrier, commit token, or commit bus
    /// broadcast.
    Sync,
}

impl StallReason {
    /// All reasons, in display order.
    pub const ALL: [StallReason; 9] = [
        StallReason::IFetch,
        StallReason::DMiss,
        StallReason::StoreBuf,
        StallReason::Interlock,
        StallReason::DirectWait,
        StallReason::RecvData,
        StallReason::RecvPred,
        StallReason::SendFull,
        StallReason::Sync,
    ];

    /// Dense index for table storage: the position in [`StallReason::ALL`],
    /// which lists the variants in declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The reason's name, as displayed.
    pub fn label(self) -> &'static str {
        match self {
            StallReason::IFetch => "i-stall",
            StallReason::DMiss => "d-stall",
            StallReason::StoreBuf => "store-buf",
            StallReason::Interlock => "interlock",
            StallReason::DirectWait => "direct-wait",
            StallReason::RecvData => "recv-data",
            StallReason::RecvPred => "recv-pred",
            StallReason::SendFull => "send-full",
            StallReason::Sync => "sync",
        }
    }
}

impl fmt::Display for StallReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The one cycle-accounting record: where a set of core-cycles went,
/// every core-cycle in exactly one bucket. One core's run
/// ([`MachineStats::cores`]), one region's share of every core
/// ([`RegionBreakdown::buckets`]) and the whole machine
/// ([`MachineStats::summed`], `crate::whatif::CycleStack`) are each one of
/// these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles that issued a useful (non-NOP) operation. A region's count
    /// holds its NOPs too: the tick loop charges issue runs to the region
    /// without splitting them.
    pub issued: u64,
    /// Cycles that issued a NOP (coupled-mode schedule padding); always 0
    /// for a region.
    pub nops: u64,
    /// Cycles spent idle awaiting a spawn.
    pub idle: u64,
    /// Stall cycles, indexed by [`StallReason::index`].
    pub stalls: [u64; 9],
    /// Cycles consumed starting a spawned thread (the wake-up cycle a
    /// `StartThread` decision burns before the first issue). Kept as its
    /// own bucket so every core-cycle lands in exactly one category —
    /// the CPI-stack exact-sum invariant (`crate::whatif`).
    pub spawn_starts: u64,
}

impl CoreStats {
    /// Record a stall.
    pub fn stall(&mut self, r: StallReason) {
        self.stalls[r.index()] += 1;
    }

    /// Total stall cycles.
    fn total_stalls(&self) -> u64 {
        self.stalls.iter().sum()
    }

    /// Stall cycles for one reason.
    pub fn stalls_for(&self, r: StallReason) -> u64 {
        self.stalls[r.index()]
    }

    /// Every accounted cycle: issue + NOPs + idle + stalls + spawn-start
    /// cycles. For a core, the cycles it was simulated for (including
    /// the post-halt drain; see `MachineStats::drained_cycles`); for a
    /// region, `cycles * cores`.
    pub fn accounted(&self) -> u64 {
        self.issued + self.nops + self.idle + self.total_stalls() + self.spawn_starts
    }

    /// The stall reason costing the most cycles, if any stall was
    /// recorded.
    pub fn dominant_stall(&self) -> Option<(StallReason, u64)> {
        StallReason::ALL
            .iter()
            .map(|&r| (r, self.stalls_for(r)))
            .max_by_key(|&(_, n)| n)
            .filter(|&(_, n)| n > 0)
    }
}

/// Per-region occupancy attribution: where every core-cycle spent while
/// the master core was inside the region went.
///
/// Classification matches per-core accounting exactly — the same coupled
/// stall-bus grouping, the same idle/issue arms — so summing a bucket
/// over all regions reproduces the machine-wide total (NOPs inside
/// `issued`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegionBreakdown {
    /// Cycles the master core spent inside the region.
    pub cycles: u64,
    /// Every core's cycles in the region; they sum to `cycles * cores`
    /// (the per-region exact-sum invariant).
    pub buckets: CoreStats,
    /// Core-cycles spent in transactions that later aborted, attributed
    /// to the region current at abort time. An *overlay* on the buckets
    /// (those cycles were already classified as issue/stall), not a term
    /// of the exact-sum decomposition.
    pub tm_wasted: u64,
}

/// Whole-machine statistics for one run.
///
/// `PartialEq` is derived so the fast-forward equivalence tests can
/// assert that an event-skipping run reports *exactly* the numbers a
/// tick-by-tick run does.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineStats {
    /// Total simulated cycles.
    pub cycles: u64,
    /// Post-halt grace-drain ticks: after the master halts, the machine
    /// keeps ticking (bounded) so straggler cores can finish, and those
    /// ticks still account core-cycles into `cores`/`regions` while
    /// `cycles` stays at the halt point. Recorded so the CPI-stack
    /// exact-sum invariant closes:
    /// `sum(cores[i].accounted()) == (cycles + drained_cycles) * cores.len()`.
    pub drained_cycles: u64,
    /// Cycles spent in coupled mode.
    pub coupled_cycles: u64,
    /// Cycles spent in decoupled mode.
    pub decoupled_cycles: u64,
    /// Per-region occupancy/stall attribution, keyed by planner region
    /// (the master core's current block), regions with no cycles left
    /// out.
    pub regions: HashMap<u32, RegionBreakdown>,
    /// Per-core accounting.
    pub cores: Vec<CoreStats>,
    /// Memory system statistics.
    pub mem: MemStats,
    /// Operand network statistics.
    pub net: NetStats,
    /// Transactional memory statistics.
    pub tm: TmStats,
    /// Threads spawned.
    pub spawns: u64,
    /// Mode switches performed.
    pub mode_switches: u64,
    /// Dynamic instructions issued (all cores, including NOPs).
    pub dynamic_insts: u64,
    /// Fault-injection accounting (all zeros when the fault layer is
    /// disabled, so `FaultStats::any` gates every report section).
    pub faults: FaultStats,
}

impl MachineStats {
    /// Every core's buckets summed: the machine-wide record
    /// `crate::whatif::CycleStack::of` is built on.
    pub fn summed(&self) -> CoreStats {
        let mut all = CoreStats::default();
        for c in &self.cores {
            all.issued += c.issued;
            all.nops += c.nops;
            all.idle += c.idle;
            all.spawn_starts += c.spawn_starts;
            for (acc, n) in all.stalls.iter_mut().zip(c.stalls) {
                *acc += n;
            }
        }
        all
    }

    /// Sum of a stall reason across cores.
    pub fn total_stall(&self, r: StallReason) -> u64 {
        self.summed().stalls_for(r)
    }

    /// Average per-core stall cycles for a reason (the paper's Fig. 12
    /// plots per-core averages normalized to serial time).
    pub fn avg_stall(&self, r: StallReason) -> f64 {
        if self.cores.is_empty() {
            0.0
        } else {
            self.total_stall(r) as f64 / self.cores.len() as f64
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let all = self.summed();
        let stall = match all.dominant_stall() {
            Some((r, n)) => format!("{} stall cycles (top: {r} {n})", all.total_stalls()),
            None => "0 stall cycles".to_string(),
        };
        format!(
            "{} cycles ({} coupled / {} decoupled), {} insts, {} spawns, {} tm commits / {} aborts, {stall}",
            self.cycles,
            self.coupled_cycles,
            self.decoupled_cycles,
            self.dynamic_insts,
            self.spawns,
            self.tm.commits,
            self.tm.aborts
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reason_indices_are_dense_and_unique() {
        for (i, r) in StallReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn core_stats_accumulate() {
        let mut c = CoreStats::default();
        c.stall(StallReason::DMiss);
        c.stall(StallReason::DMiss);
        c.stall(StallReason::Sync);
        assert_eq!(c.stalls_for(StallReason::DMiss), 2);
        assert_eq!(c.total_stalls(), 3);
    }

    #[test]
    fn machine_stats_aggregate_across_cores() {
        let mut m = MachineStats {
            cores: vec![CoreStats::default(); 4],
            ..Default::default()
        };
        m.cores[0].stall(StallReason::RecvPred);
        m.cores[3].stall(StallReason::RecvPred);
        assert_eq!(m.total_stall(StallReason::RecvPred), 2);
        assert!((m.avg_stall(StallReason::RecvPred) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn summary_names_the_dominant_stall() {
        let mut m = MachineStats {
            cores: vec![CoreStats::default(); 2],
            ..Default::default()
        };
        assert!(m.summary().contains("0 stall cycles"));
        m.cores[0].stall(StallReason::RecvData);
        m.cores[0].stall(StallReason::RecvData);
        m.cores[1].stall(StallReason::Sync);
        assert_eq!(m.summed().total_stalls(), 3);
        assert_eq!(
            m.summed().dominant_stall(),
            Some((StallReason::RecvData, 2))
        );
        assert!(m.summary().contains("3 stall cycles (top: recv-data 2)"));
    }

    #[test]
    fn region_breakdown_reports_its_dominant_reason() {
        let mut r = RegionBreakdown::default();
        assert_eq!(r.buckets.dominant_stall(), None);
        r.buckets.stalls[StallReason::Sync.index()] = 5;
        r.buckets.stalls[StallReason::DMiss.index()] = 7;
        assert_eq!(r.buckets.total_stalls(), 12);
        assert_eq!(r.buckets.dominant_stall(), Some((StallReason::DMiss, 7)));
    }
}
