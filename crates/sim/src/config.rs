//! Machine configuration.

use crate::fault::FaultPlan;

/// The machine's robustness knobs, unified: the hang detectors'
/// observation windows plus the fault-recovery retry budgets. One struct
/// so the relationships between them can be *validated* instead of
/// silently misbehaving at runtime — a zero window would fire a watchdog
/// on a healthy machine, and a livelock window shorter than the deadlock
/// window would report pure deadlocks as livelocks.
///
/// [`Watchdogs::validate`] is enforced by `Machine::boot`, so every
/// constructed machine has a coherent set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdogs {
    /// Cycles without any core issuing before the machine declares
    /// deadlock.
    pub deadlock_window: u64,
    /// Cycles without any *architectural* state change (register write,
    /// memory write, network traffic, thread or mode event) before the
    /// machine declares livelock: cores are issuing — so the deadlock
    /// window never closes — but only spinning on control flow.
    pub livelock_window: u64,
    /// Fault recovery: retries a single recovery path may take (flit
    /// resends, bank-request reissues) before giving up with
    /// [`crate::machine::SimError::FaultBudget`].
    pub fault_retry_budget: u32,
    /// Fault recovery: base backoff delay in cycles; retry `k` waits
    /// `base << min(k, 10)` cycles (bounded exponential backoff).
    pub fault_backoff_base: u64,
}

impl Watchdogs {
    /// Check the knobs for zero or contradictory values.
    ///
    /// # Errors
    /// Returns a message naming the first bad knob.
    pub fn validate(&self) -> Result<(), String> {
        if self.deadlock_window == 0 {
            return Err("deadlock_window must be nonzero".into());
        }
        if self.livelock_window == 0 {
            return Err("livelock_window must be nonzero".into());
        }
        if self.livelock_window < self.deadlock_window {
            return Err(format!(
                "livelock_window ({}) must be at least deadlock_window ({}): \
                 a deadlocked machine makes no architectural change either, so a \
                 shorter livelock window would misreport every deadlock",
                self.livelock_window, self.deadlock_window
            ));
        }
        if self.fault_retry_budget == 0 {
            return Err(
                "fault_retry_budget must be nonzero (retries are how faults recover)".into(),
            );
        }
        if self.fault_backoff_base == 0 {
            return Err(
                "fault_backoff_base must be nonzero (a zero backoff retries forever in place)"
                    .into(),
            );
        }
        Ok(())
    }

    /// Backoff delay before retry `attempt` (1-based): bounded
    /// exponential, `base << min(attempt - 1, 10)`.
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.fault_backoff_base << attempt.saturating_sub(1).min(10)
    }
}

impl Default for Watchdogs {
    fn default() -> Watchdogs {
        Watchdogs {
            deadlock_window: 50_000,
            livelock_window: 1_000_000,
            fault_retry_budget: 8,
            fault_backoff_base: 8,
        }
    }
}

/// Which coherence interconnect keeps the L1s coherent.
///
/// [`CoherenceBackend::Snooping`] is the paper's machine: one bus, one
/// transaction in flight at a time, every grant snoops every peer. It is
/// the default and the backend every golden fingerprint is pinned
/// against. [`CoherenceBackend::Directory`] is the scalable alternative
/// for ≥8-core machines: lines are home-banked, each bank serializes
/// only its own transactions (so distinct-bank traffic overlaps), and
/// every grant pays a fixed directory-indirection latency
/// ([`MachineConfig::dir_latency`]). Functional MOESI state transitions
/// are identical on both backends — only occupancy and latency differ
/// (see DESIGN.md §9 for where cycle counts legitimately diverge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CoherenceBackend {
    /// Single snooped bus (the paper's machine; the default).
    Snooping,
    /// Address-interleaved directory banks.
    Directory {
        /// Number of home banks (lines interleave across them).
        banks: usize,
    },
}

impl CoherenceBackend {
    /// Short label for reports and flags.
    pub fn label(self) -> &'static str {
        match self {
            CoherenceBackend::Snooping => "snooping",
            CoherenceBackend::Directory { .. } => "directory",
        }
    }

    /// How many independent request streams the backend serializes.
    pub fn bank_count(self) -> usize {
        match self {
            CoherenceBackend::Snooping => 1,
            CoherenceBackend::Directory { banks } => banks.max(1),
        }
    }

    /// The directory sizing the scaling sweeps use: one bank per four
    /// cores, at least two, so bank parallelism grows with the machine.
    pub fn directory_for(cores: usize) -> CoherenceBackend {
        CoherenceBackend::Directory {
            banks: (cores / 4).max(2),
        }
    }

    /// This backend family sized for a `cores`-core machine: snooping
    /// stays snooping, any directory becomes [`directory_for`]`(cores)`.
    /// A `--backend directory` flag or wire field names the family only
    /// ([`parse`]'s bank count is a placeholder), so every consumer of
    /// one resolves it here and equal labels mean equal machines.
    ///
    /// [`directory_for`]: CoherenceBackend::directory_for
    /// [`parse`]: CoherenceBackend::parse
    pub fn sized_for(self, cores: usize) -> CoherenceBackend {
        match self {
            CoherenceBackend::Snooping => CoherenceBackend::Snooping,
            CoherenceBackend::Directory { .. } => CoherenceBackend::directory_for(cores),
        }
    }

    /// Parse a `--backend` flag value.
    pub fn parse(s: &str) -> Option<CoherenceBackend> {
        match s {
            "snooping" => Some(CoherenceBackend::Snooping),
            "directory" => Some(CoherenceBackend::Directory { banks: 4 }),
            _ => None,
        }
    }
}

/// Configuration of the simulated Voltron machine.
///
/// Defaults ([`MachineConfig::paper`]) follow the paper's experimental
/// setup (§5.1): single-issue cores, 4 KB 2-way L1 I/D caches, a shared
/// 128 KB 4-way L2, Itanium-like operation latencies, a 1 cycle/hop direct
/// operand network and a 2 + hops queue network, and bus-based MOESI
/// snooping coherence.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores (1, 2 or 4; the mesh is 1x1, 2x1 or 2x2).
    pub cores: usize,
    /// L1 data cache size in bytes.
    pub l1d_size: u64,
    /// L1 data cache associativity.
    pub l1d_assoc: usize,
    /// L1 instruction cache size in bytes.
    pub l1i_size: u64,
    /// L1 instruction cache associativity.
    pub l1i_assoc: usize,
    /// Shared L2 size in bytes.
    pub l2_size: u64,
    /// Shared L2 associativity.
    pub l2_assoc: usize,
    /// Cache line size in bytes (all levels).
    pub line_size: u64,
    /// L1 load-to-use latency on a hit, in cycles.
    pub l1_hit_latency: u32,
    /// Bus occupancy + fill latency when the L2 supplies a line.
    pub l2_latency: u64,
    /// Bus occupancy + fill latency for a cache-to-cache transfer.
    pub c2c_latency: u64,
    /// Bus occupancy + fill latency when main memory supplies a line.
    pub mem_latency: u64,
    /// Extra bus occupancy when a fill evicts a dirty line.
    pub writeback_penalty: u64,
    /// Store buffer entries per core.
    pub store_buffer_entries: usize,
    /// Send/receive queue depth of the queue-mode operand network.
    pub queue_depth: usize,
    /// Cycles to enqueue into the send queue plus dequeue at the receiver
    /// (the "2" in the paper's 2 + hops queue-mode latency).
    pub queue_overhead: u64,
    /// Per-hop network latency (both modes), cycles.
    pub hop_latency: u64,
    /// Base bus occupancy of a transactional commit.
    pub tm_commit_base: u64,
    /// Extra bus occupancy per committed line.
    pub tm_commit_per_line: u64,
    /// The unified robustness knobs: hang-detector windows and fault
    /// retry budgets (validated by `Machine::boot`; see [`Watchdogs`]).
    pub watchdogs: Watchdogs,
    /// Hard cap on simulated cycles.
    pub max_cycles: u64,
    /// Event-driven fast-forward: when every core is blocked and no
    /// same-cycle event is due, jump `cycle` straight to the earliest
    /// subsystem wake time instead of ticking the identity transition
    /// once per cycle. Statistics are bulk-accounted over the skipped
    /// span, so every reported number is identical either way (see
    /// DESIGN.md §6); the toggle exists so that equivalence can be
    /// tested in-process.
    pub fast_forward: bool,
    /// Coherence interconnect (see [`CoherenceBackend`]). Snooping is
    /// the paper's machine and the default; the directory backend
    /// overlaps distinct-bank transactions at the cost of
    /// [`MachineConfig::dir_latency`] per grant.
    pub coherence: CoherenceBackend,
    /// Directory-indirection latency: extra cycles every directory-bank
    /// grant pays for the home-bank lookup and forwarding that the
    /// snooping bus gets for free by broadcasting. Ignored by
    /// [`CoherenceBackend::Snooping`].
    pub dir_latency: u64,
    /// Interval probe sampling period in cycles: `Some(p)` records a
    /// [`crate::obs::ProbeSample`] every `p` cycles (returned in
    /// [`crate::machine::RunOutcome::probes`]). `None` (the default)
    /// records nothing and costs one branch per tick. The sampled series
    /// is bit-identical with `fast_forward` on or off: skipped spans are
    /// sampled at every period boundary they cross (see DESIGN.md §8).
    pub probe_period: Option<u64>,
    /// Deterministic fault injection plan. `None` (the default) disables
    /// the fault layer entirely: no RNG is built, no opportunity is
    /// consulted, and every golden fingerprint is byte-identical to a
    /// build without the layer (see DESIGN.md §10).
    pub faults: Option<FaultPlan>,
    /// What-if idealization knobs (see [`crate::whatif`]). All off by
    /// default; every measured/golden run keeps them off, and the
    /// compiler never sees them — the what-if driver sets them on the
    /// *simulator-side* config copy only, after compilation.
    pub ideal: IdealKnobs,
}

/// Counterfactual idealization knobs for the what-if engine
/// ([`crate::whatif`]): each removes one class of cost at simulation
/// time, bounding the speedup obtainable by optimizing that class. The
/// knobs are timing-only — program semantics, compiled code, and the
/// golden-output contract are untouched, so an idealized run still
/// validates against the reference memory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IdealKnobs {
    /// Zero-latency operand network: queue-mode messages, direct-mode
    /// latches, and broadcasts deliver with no hop latency, no fixed
    /// overhead, and no link serialization.
    pub zero_latency_network: bool,
    /// Infinite interconnect bandwidth: every bus/bank request is
    /// granted the cycle it arrives (latency still paid), so requests
    /// never queue behind each other.
    pub infinite_bandwidth: bool,
    /// Perfect L1 caches: every load, store and instruction fetch hits.
    pub perfect_l1: bool,
    /// Zero recoverable TM conflict aborts: value-based byte-granular
    /// conflict detection ([`crate::tm::TxnManager::set_value_conflicts`])
    /// plus free commit broadcasts. True data conflicts still abort.
    pub zero_tm_conflicts: bool,
    /// Free spawn: thread-start messages bypass the send queue and
    /// arrive at the target core instantly.
    pub free_spawn: bool,
}

impl IdealKnobs {
    /// True when any knob is set (the measured-run fast path checks
    /// this once and skips all idealization branches).
    pub fn any(self) -> bool {
        self.zero_latency_network
            || self.infinite_bandwidth
            || self.perfect_l1
            || self.zero_tm_conflicts
            || self.free_spawn
    }
}

impl MachineConfig {
    /// The paper's configuration for `cores` cores.
    ///
    /// # Panics
    /// Panics unless `cores` is 1, 2, or 4.
    pub fn paper(cores: usize) -> MachineConfig {
        assert!(
            matches!(cores, 1 | 2 | 4),
            "the evaluation uses 1-, 2- or 4-core machines (got {cores})"
        );
        MachineConfig {
            cores,
            l1d_size: 4 * 1024,
            l1d_assoc: 2,
            l1i_size: 4 * 1024,
            l1i_assoc: 2,
            l2_size: 128 * 1024,
            l2_assoc: 4,
            line_size: 32,
            l1_hit_latency: 2,
            l2_latency: 12,
            c2c_latency: 8,
            mem_latency: 120,
            writeback_penalty: 2,
            store_buffer_entries: 8,
            queue_depth: 16,
            queue_overhead: 2,
            hop_latency: 1,
            tm_commit_base: 6,
            tm_commit_per_line: 1,
            watchdogs: Watchdogs::default(),
            max_cycles: 2_000_000_000,
            fast_forward: true,
            coherence: CoherenceBackend::Snooping,
            dir_latency: 3,
            probe_period: None,
            faults: None,
            ideal: IdealKnobs::default(),
        }
    }

    /// A scaled machine beyond the paper's core counts: the paper's
    /// per-core parameters (caches, latencies, queue depths) on a
    /// power-of-two mesh up to 64 cores. For 1, 2 and 4 cores this is
    /// exactly [`MachineConfig::paper`], so the golden matrix is
    /// unaffected by building through `scaled`; the larger counts get
    /// the near-square meshes the geometry tests pin (8 → 4x2, 16 → 4x4,
    /// 32 → 8x4, 64 → 8x8).
    ///
    /// # Panics
    /// Panics unless `cores` is a power of two no larger than 64.
    pub fn scaled(cores: usize) -> MachineConfig {
        assert!(
            cores.is_power_of_two() && cores <= 64,
            "scaled machines use power-of-two core counts up to 64 (got {cores})"
        );
        MachineConfig {
            cores,
            ..MachineConfig::paper(4)
        }
    }

    /// Builder-style backend selection.
    pub fn with_backend(mut self, backend: CoherenceBackend) -> MachineConfig {
        self.coherence = backend;
        self
    }

    /// Mesh width (cores per row): the near-square factorization `w x h`
    /// with `w >= h`, so 2 cores form a 2x1 row, 4 form 2x2, 8 form 4x2,
    /// and 16 form 4x4 — not a 2-wide strip whose hop counts would grow
    /// linearly with the core count.
    pub fn mesh_width(&self) -> usize {
        let n = self.cores.max(1);
        let mut h = 1;
        let mut d = 1;
        while d * d <= n {
            if n.is_multiple_of(d) {
                h = d;
            }
            d += 1;
        }
        n / h
    }

    /// Grid coordinates of a core.
    pub fn coords(&self, core: usize) -> (usize, usize) {
        let w = self.mesh_width();
        (core % w, core / w)
    }

    /// Manhattan hop distance between two cores.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u64
    }

    /// The neighbor of `core` in direction `d`, if it exists.
    pub fn neighbor(&self, core: usize, d: voltron_ir::Dir) -> Option<usize> {
        use voltron_ir::Dir;
        let w = self.mesh_width();
        let h = self.cores.div_ceil(w);
        let (x, y) = self.coords(core);
        let (nx, ny) = match d {
            Dir::East => (x + 1, y),
            Dir::West => (x.wrapping_sub(1), y),
            Dir::South => (x, y + 1),
            Dir::North => (x, y.wrapping_sub(1)),
        };
        if nx < w && ny < h {
            let n = ny * w + nx;
            if n < self.cores && n != core {
                return Some(n);
            }
        }
        None
    }
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig::paper(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::Dir;

    #[test]
    fn four_core_mesh_is_2x2() {
        let c = MachineConfig::paper(4);
        assert_eq!(c.coords(0), (0, 0));
        assert_eq!(c.coords(1), (1, 0));
        assert_eq!(c.coords(2), (0, 1));
        assert_eq!(c.coords(3), (1, 1));
        assert_eq!(c.hops(0, 3), 2);
        assert_eq!(c.hops(0, 1), 1);
        assert_eq!(c.hops(1, 2), 2);
    }

    #[test]
    fn neighbors_in_2x2() {
        let c = MachineConfig::paper(4);
        assert_eq!(c.neighbor(0, Dir::East), Some(1));
        assert_eq!(c.neighbor(0, Dir::South), Some(2));
        assert_eq!(c.neighbor(0, Dir::West), None);
        assert_eq!(c.neighbor(3, Dir::North), Some(1));
        assert_eq!(c.neighbor(3, Dir::West), Some(2));
    }

    #[test]
    fn two_core_mesh_is_1x2() {
        let c = MachineConfig::paper(2);
        assert_eq!(c.hops(0, 1), 1);
        assert_eq!(c.neighbor(0, Dir::East), Some(1));
        assert_eq!(c.neighbor(1, Dir::West), Some(0));
        assert_eq!(c.neighbor(0, Dir::South), None);
    }

    #[test]
    #[should_panic(expected = "1-, 2- or 4-core")]
    fn odd_core_counts_rejected() {
        MachineConfig::paper(3);
    }

    #[test]
    fn eight_core_mesh_is_4x2() {
        let c = MachineConfig::scaled(8);
        assert_eq!(c.mesh_width(), 4);
        assert_eq!(c.coords(0), (0, 0));
        assert_eq!(c.coords(3), (3, 0));
        assert_eq!(c.coords(4), (0, 1));
        assert_eq!(c.coords(7), (3, 1));
        // Corner-to-corner: 3 across + 1 down, not the 2x4 strip's 1 + 3.
        assert_eq!(c.hops(0, 7), 4);
        assert_eq!(c.neighbor(0, Dir::East), Some(1));
        assert_eq!(c.neighbor(0, Dir::South), Some(4));
        assert_eq!(c.neighbor(3, Dir::East), None);
        assert_eq!(c.neighbor(4, Dir::North), Some(0));
    }

    #[test]
    fn sixteen_core_mesh_is_4x4() {
        let c = MachineConfig::scaled(16);
        assert_eq!(c.mesh_width(), 4);
        assert_eq!(c.coords(5), (1, 1));
        assert_eq!(c.coords(15), (3, 3));
        // Corner-to-corner is 6 hops on 4x4; the old 2x8 strip made it 8.
        assert_eq!(c.hops(0, 15), 6);
        // Mean pairwise distance must beat the strip layout's.
        let total: u64 = (0..16)
            .flat_map(|a| (0..16).map(move |b| (a, b)))
            .map(|(a, b)| c.hops(a, b))
            .sum();
        assert!(total < 16 * 16 * 4, "4x4 mean hops should be well under 4");
        assert_eq!(c.neighbor(3, Dir::South), Some(7));
        assert_eq!(c.neighbor(12, Dir::East), Some(13));
        assert_eq!(c.neighbor(12, Dir::South), None);
    }

    #[test]
    fn thirtytwo_core_mesh_is_8x4() {
        let c = MachineConfig::scaled(32);
        assert_eq!(c.mesh_width(), 8);
        assert_eq!(c.coords(0), (0, 0));
        assert_eq!(c.coords(8), (0, 1));
        assert_eq!(c.coords(31), (7, 3));
        // Corner-to-corner: 7 across + 3 down on 8x4.
        assert_eq!(c.hops(0, 31), 10);
        assert_eq!(c.neighbor(7, Dir::East), None);
        assert_eq!(c.neighbor(7, Dir::South), Some(15));
        assert_eq!(c.neighbor(24, Dir::North), Some(16));
        assert_eq!(c.neighbor(24, Dir::South), None);
    }

    #[test]
    fn sixtyfour_core_mesh_is_8x8() {
        let c = MachineConfig::scaled(64);
        assert_eq!(c.mesh_width(), 8);
        assert_eq!(c.coords(9), (1, 1));
        assert_eq!(c.coords(63), (7, 7));
        // Corner-to-corner is 14 hops on 8x8.
        assert_eq!(c.hops(0, 63), 14);
        assert_eq!(c.neighbor(0, Dir::South), Some(8));
        assert_eq!(c.neighbor(63, Dir::North), Some(55));
        assert_eq!(c.neighbor(63, Dir::East), None);
        assert_eq!(c.neighbor(56, Dir::West), None);
    }

    #[test]
    fn scaled_matches_paper_at_paper_core_counts() {
        for cores in [1, 2, 4] {
            assert_eq!(MachineConfig::scaled(cores), MachineConfig::paper(cores));
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two core counts up to 64")]
    fn scaled_rejects_128() {
        MachineConfig::scaled(128);
    }

    #[test]
    #[should_panic(expected = "power-of-two core counts up to 64")]
    fn scaled_rejects_non_power_of_two() {
        MachineConfig::scaled(12);
    }

    #[test]
    fn backend_helpers() {
        assert_eq!(CoherenceBackend::Snooping.bank_count(), 1);
        assert_eq!(CoherenceBackend::Directory { banks: 4 }.bank_count(), 4);
        assert_eq!(CoherenceBackend::directory_for(8).bank_count(), 2);
        assert_eq!(CoherenceBackend::directory_for(64).bank_count(), 16);
        assert_eq!(
            CoherenceBackend::parse("snooping"),
            Some(CoherenceBackend::Snooping)
        );
        assert_eq!(
            CoherenceBackend::parse("directory"),
            Some(CoherenceBackend::Directory { banks: 4 })
        );
        for refused in ["mesi", "bus", "dir"] {
            assert_eq!(CoherenceBackend::parse(refused), None, "{refused}");
        }
        let dir = CoherenceBackend::parse("directory").unwrap();
        assert_eq!(dir.sized_for(4), CoherenceBackend::directory_for(4));
        assert_eq!(dir.sized_for(64).bank_count(), 16);
        assert_eq!(
            CoherenceBackend::Snooping.sized_for(64),
            CoherenceBackend::Snooping
        );
        let cfg = MachineConfig::scaled(16).with_backend(CoherenceBackend::directory_for(16));
        assert_eq!(cfg.coherence.label(), "directory");
        assert_eq!(MachineConfig::paper(4).coherence.label(), "snooping");
    }

    #[test]
    fn watchdogs_reject_zero_and_contradictory_windows() {
        assert!(Watchdogs::default().validate().is_ok());
        let bad = Watchdogs {
            deadlock_window: 0,
            ..Watchdogs::default()
        };
        assert!(bad.validate().unwrap_err().contains("deadlock_window"));
        let bad = Watchdogs {
            livelock_window: 0,
            ..Watchdogs::default()
        };
        assert!(bad.validate().unwrap_err().contains("livelock_window"));
        // Livelock window shorter than the deadlock window misreports
        // every deadlock as a livelock: contradictory, rejected.
        let bad = Watchdogs {
            deadlock_window: 10_000,
            livelock_window: 500,
            ..Watchdogs::default()
        };
        assert!(bad.validate().unwrap_err().contains("at least"));
        let bad = Watchdogs {
            fault_retry_budget: 0,
            ..Watchdogs::default()
        };
        assert!(bad.validate().unwrap_err().contains("fault_retry_budget"));
        let bad = Watchdogs {
            fault_backoff_base: 0,
            ..Watchdogs::default()
        };
        assert!(bad.validate().unwrap_err().contains("fault_backoff_base"));
    }

    #[test]
    fn backoff_is_bounded_exponential() {
        let w = Watchdogs::default();
        assert_eq!(w.backoff(1), w.fault_backoff_base);
        assert_eq!(w.backoff(2), w.fault_backoff_base * 2);
        assert_eq!(w.backoff(4), w.fault_backoff_base * 8);
        // Capped at 10 doublings: no overflow, no unbounded wait.
        assert_eq!(w.backoff(50), w.fault_backoff_base << 10);
        assert_eq!(w.backoff(u32::MAX), w.fault_backoff_base << 10);
    }

    #[test]
    fn paper_configs_keep_their_seed_layouts() {
        // The rewrite must not disturb the 1/2/4-core geometries the
        // whole golden matrix is calibrated against.
        assert_eq!(MachineConfig::paper(1).mesh_width(), 1);
        assert_eq!(MachineConfig::paper(2).mesh_width(), 2);
        assert_eq!(MachineConfig::paper(4).mesh_width(), 2);
    }
}
