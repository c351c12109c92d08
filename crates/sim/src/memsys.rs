//! The memory hierarchy: per-core L1s, shared L2, the coherence
//! interconnect, store buffers.
//!
//! Timing only — data values live in the eager functional memory (see
//! [`crate::cache`] for the rationale). The interconnect is organized as
//! address-interleaved *banks*, each serializing one coherence
//! transaction at a time:
//!
//! * [`CoherenceBackend::Snooping`] is a single bank — the paper's
//!   bus-based MOESI snooping protocol, one transaction machine-wide,
//!   cache-to-cache transfers cheaper than memory. Every pinned golden
//!   fingerprint runs on this backend.
//! * [`CoherenceBackend::Directory`] home-banks lines across several
//!   banks: transactions to distinct banks overlap, and each grant pays
//!   the directory-indirection latency (`MachineConfig::dir_latency`)
//!   for the home lookup the snooping broadcast gets for free.
//!
//! Functional MOESI state transitions are identical on both backends (a
//! directory tracks precise sharers, so it invalidates/downgrades the
//! same caches the snoop would); only occupancy and latency differ. See
//! DESIGN.md §9 for the divergence argument.

use crate::cache::{LineState, TagCache};
use crate::config::{CoherenceBackend, MachineConfig};
use crate::fault::{
    FaultBudgetReport, FaultKind, FaultPlan, FaultPort, FaultSite, SiteFaults, SiteInjector,
};
use std::collections::VecDeque;
use voltron_ir::Reg;

/// Bus occupancy of an ownership upgrade (S -> M invalidation round).
const UPGRADE_LATENCY: u64 = 4;

/// What a bus transaction is for.
#[derive(Debug, Clone, PartialEq)]
pub enum BusKind {
    /// A load miss: fetch a line in shared state.
    ReadShared {
        /// Destination register to wake.
        dst: Reg,
        /// Core epoch at issue (stale fills after a TM abort are dropped).
        epoch: u64,
    },
    /// A store miss: fetch the line with ownership.
    ReadExclusive,
    /// A store hit on a Shared line: invalidate other copies.
    Upgrade,
    /// An instruction-cache fill.
    IFill,
    /// A transactional commit broadcasting `extra_lines + 1` lines.
    TmCommit {
        /// All written lines (the req's `line` is the first).
        lines: Vec<u64>,
    },
}

impl BusKind {
    /// Short label for trace tracks.
    pub fn label(&self) -> &'static str {
        match self {
            BusKind::ReadShared { .. } => "read-shared",
            BusKind::ReadExclusive => "read-exclusive",
            BusKind::Upgrade => "upgrade",
            BusKind::IFill => "i-fill",
            BusKind::TmCommit { .. } => "tm-commit",
        }
    }
}

/// A queued bus request.
#[derive(Debug, Clone, PartialEq)]
pub struct BusReq {
    /// Requesting core.
    pub core: usize,
    /// Line-aligned address.
    pub line: u64,
    /// Transaction type.
    pub kind: BusKind,
}

/// A completion the machine must dispatch to a core.
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// A load fill arrived: wake `dst` (if `epoch` still matches).
    LoadFill {
        /// The core that issued the load.
        core: usize,
        /// The register the load targets.
        dst: Reg,
        /// Epoch at issue.
        epoch: u64,
    },
    /// A transactional commit finished its bus broadcast.
    TmCommitDone {
        /// The committing core.
        core: usize,
    },
    /// An instruction-cache fill landed in `core`'s L1I.
    IFillDone {
        /// The core that requested the fill.
        core: usize,
    },
}

/// What an instruction fetch would be answered with
/// ([`MemSys::ifetch_peek`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The line is in the I-cache.
    Hit,
    /// The line's own fill is in flight: the fetch counts nothing, and
    /// every fetch of the line answers the same until
    /// [`Completion::IFillDone`].
    Waiting,
    /// A miss would be counted (and a fill requested, unless another
    /// line's is already pending).
    Missed,
}

/// Result of a load lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// L1 (or store-buffer forwarding) hit; data usable after the hit
    /// latency.
    Hit,
    /// Miss; a bus request was enqueued, the destination register stays
    /// pending until the fill completes.
    Miss,
}

#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    addr: u64,
    width: u64,
}

#[derive(Debug, Clone)]
struct InFlight {
    req: BusReq,
    finish: u64,
    /// Whether peers/L2/memory supplied (grant-time decision, applied at
    /// completion).
    others_had_copy: bool,
}

/// Memory-system statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MemStats {
    /// Completed bus transactions.
    pub bus_transactions: u64,
    /// Total cycles the interconnect was occupied, summed over banks.
    pub bus_busy_cycles: u64,
    /// Occupied cycles per bank (one entry, equal to
    /// `bus_busy_cycles`, on the snooping backend).
    pub bank_busy_cycles: Vec<u64>,
    /// Cache-to-cache supplies.
    pub c2c_transfers: u64,
    /// Lines supplied by main memory.
    pub mem_fetches: u64,
    /// L1D (hits, misses) per core.
    pub l1d: Vec<(u64, u64)>,
    /// L1I (hits, misses) per core.
    pub l1i: Vec<(u64, u64)>,
}

/// One interconnect bank: a request queue and at most one transaction in
/// flight. The snooping backend is exactly one bank, which reproduces
/// the old single-bus `queue`/`current` pair field for field.
#[derive(Debug, Default)]
struct Bank {
    queue: VecDeque<BusReq>,
    current: Option<InFlight>,
    /// Overlapping in-flight transactions, used only under the
    /// infinite-bandwidth idealization (always empty on measured runs,
    /// so the hot path never scans it).
    extra: Vec<InFlight>,
    busy: u64,
}

/// Runtime fault state for the interconnect's two sites (grant loss and
/// transient bank stalls). Present only when the machine config carries
/// a fault plan.
#[derive(Debug)]
struct MemFaults {
    grant_loss: SiteInjector,
    stall: SiteInjector,
    port: FaultPort,
    /// Consecutive grant losses of each bank's head request.
    lost: Vec<u32>,
    /// Cycle before which a bank may not grant again (post-loss backoff;
    /// `u64::MAX` parks a bank whose budget is exhausted).
    blocked_until: Vec<u64>,
}

impl MemFaults {
    fn new(plan: &FaultPlan, cfg: &MachineConfig, n_banks: usize) -> Box<MemFaults> {
        Box::new(MemFaults {
            grant_loss: plan.injector(FaultSite::GrantLoss),
            stall: plan.injector(FaultSite::BankStall),
            port: FaultPort::new(&cfg.watchdogs),
            lost: vec![0; n_banks],
            blocked_until: vec![0; n_banks],
        })
    }
}

/// The full memory system. The default is an empty hierarchy of no
/// cores, for [`MemSys::reset`] to size.
#[derive(Debug, Default)]
pub struct MemSys {
    cfg: MachineConfig,
    l1d: Vec<TagCache>,
    l1i: Vec<TagCache>,
    l2: TagCache,
    banks: Vec<Bank>,
    /// Directory-indirection latency per grant (0 on snooping).
    dir_penalty: u64,
    store_bufs: Vec<VecDeque<StoreEntry>>,
    /// Entries across all store buffers.
    sb_entries: usize,
    /// Head-of-buffer bus request outstanding.
    sb_waiting: Vec<bool>,
    /// Requests queued at or in flight on any bank.
    outstanding: usize,
    /// Line being I-fetched per core.
    ifill_pending: Vec<Option<u64>>,
    /// The line each core's last instruction fetch hit (`None` after any
    /// fill into its L1I). A re-fetch of it is a hit without a lookup:
    /// nothing else has touched that L1I since, so the line is still
    /// present and already its set's most recently used — the lookup
    /// would change no replacement decision, only the hit counter.
    last_ifetch: Vec<Option<u64>>,
    stats_bus: u64,
    stats_busy: u64,
    stats_c2c: u64,
    stats_mem: u64,
    /// Overlapped transactions [`MemSys::tick`] found due, in grant
    /// order (empty between ticks; kept for its allocation).
    due: Vec<InFlight>,
    /// Grants made by the last [`MemSys::tick`] `(core, kind label,
    /// start, finish)`, for the machine's trace path (cleared at the top
    /// of every tick, drained via [`MemSys::take_grants`]). The snooping
    /// backend grants at most once per tick; the directory backend can
    /// grant once per bank.
    grants: Vec<(usize, &'static str, u64, u64)>,
    /// Fault-injection state; `None` on fault-free runs.
    faults: Option<Box<MemFaults>>,
}

impl MemSys {
    /// Build the hierarchy for a machine configuration.
    ///
    /// # Panics
    /// See [`MemSys::reset`].
    pub fn new(cfg: &MachineConfig) -> MemSys {
        let mut m = MemSys::default();
        m.reset(cfg);
        m
    }

    /// Empty the hierarchy and size it for `cfg`, keeping the tag-cache,
    /// bank and store-buffer allocations it already has.
    ///
    /// # Panics
    /// Panics unless every cache geometry is a power-of-two split.
    pub fn reset(&mut self, cfg: &MachineConfig) {
        let n = cfg.cores;
        let n_banks = cfg.coherence.bank_count();
        let line = cfg.line_size;
        self.l1d.resize_with(n, TagCache::default);
        for c in &mut self.l1d {
            c.reset_to(cfg.l1d_size, cfg.l1d_assoc, line);
        }
        self.l1i.resize_with(n, TagCache::default);
        for c in &mut self.l1i {
            c.reset_to(cfg.l1i_size, cfg.l1i_assoc, line);
        }
        self.l2.reset_to(cfg.l2_size, cfg.l2_assoc, line);
        for b in &mut self.banks {
            b.queue.clear();
            b.current = None;
            b.extra.clear();
            b.busy = 0;
        }
        self.banks.resize_with(n_banks, Bank::default);
        self.dir_penalty = match cfg.coherence {
            CoherenceBackend::Snooping => 0,
            CoherenceBackend::Directory { .. } => cfg.dir_latency,
        };
        for q in &mut self.store_bufs {
            q.clear();
        }
        self.store_bufs.resize_with(n, VecDeque::new);
        self.sb_entries = 0;
        self.sb_waiting.clear();
        self.sb_waiting.resize(n, false);
        self.outstanding = 0;
        self.ifill_pending.clear();
        self.ifill_pending.resize(n, None);
        self.last_ifetch.clear();
        self.last_ifetch.resize(n, None);
        self.stats_bus = 0;
        self.stats_busy = 0;
        self.stats_c2c = 0;
        self.stats_mem = 0;
        self.due.clear();
        self.grants.clear();
        // Fault state is rebuilt rather than cleared: the plan is
        // per-request and cheap next to a run.
        self.faults = cfg
            .faults
            .as_ref()
            .map(|plan| MemFaults::new(plan, cfg, n_banks));
        self.cfg = cfg.clone();
    }

    /// Home bank of a line: address-interleaved at line granularity.
    fn bank_of(&self, line: u64) -> usize {
        if self.banks.len() == 1 {
            0
        } else {
            ((line / self.cfg.line_size) % self.banks.len() as u64) as usize
        }
    }

    /// Route a request to its line's home bank.
    fn enqueue(&mut self, req: BusReq) {
        let b = self.bank_of(req.line);
        self.banks[b].queue.push_back(req);
        self.outstanding += 1;
    }

    /// Line-align an address.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr & !(self.cfg.line_size - 1)
    }

    /// Issue a load. On a miss the fill is requested and `dst` must stay
    /// pending until the matching [`Completion::LoadFill`].
    pub fn load(&mut self, core: usize, addr: u64, dst: Reg, epoch: u64) -> LoadOutcome {
        // Perfect-L1 idealization: every load hits. Sound because the
        // caches are tag-only timing models — data always comes from the
        // functional memory — so skipping the fill machinery changes
        // timing alone.
        if self.cfg.ideal.perfect_l1 {
            self.l1d[core].credit_hits(1);
            return LoadOutcome::Hit;
        }
        // Store-buffer forwarding.
        if self.store_bufs[core]
            .iter()
            .any(|e| e.addr < addr + 8 && addr < e.addr + e.width)
        {
            return LoadOutcome::Hit;
        }
        let line = self.line_of(addr);
        if self.l1d[core].access(line).is_some() {
            return LoadOutcome::Hit;
        }
        self.enqueue(BusReq {
            core,
            line,
            kind: BusKind::ReadShared { dst, epoch },
        });
        LoadOutcome::Miss
    }

    /// Issue a store into the core's store buffer. Returns false when the
    /// buffer is full (the core must stall and retry).
    pub fn store(&mut self, core: usize, addr: u64, width: u64) -> bool {
        if self.store_bufs[core].len() >= self.cfg.store_buffer_entries {
            return false;
        }
        self.store_bufs[core].push_back(StoreEntry { addr, width });
        self.sb_entries += 1;
        true
    }

    /// True when the core's store buffer cannot accept another entry.
    pub fn store_buffer_full(&self, core: usize) -> bool {
        self.store_bufs[core].len() >= self.cfg.store_buffer_entries
    }

    /// Instruction fetch: true when the line is in the I-cache; otherwise
    /// a fill is requested (at most one outstanding per core).
    pub fn ifetch(&mut self, core: usize, addr: u64) -> bool {
        // Perfect-L1 idealization: every fetch hits.
        if self.cfg.ideal.perfect_l1 {
            self.l1i[core].credit_hits(1);
            return true;
        }
        let line = self.line_of(addr);
        if self.last_ifetch[core] == Some(line) {
            self.l1i[core].credit_hits(1);
            return true;
        }
        if self.ifill_pending[core] == Some(line) {
            return false;
        }
        if self.l1i[core].access(line).is_some() {
            self.last_ifetch[core] = Some(line);
            return true;
        }
        if self.ifill_pending[core].is_none() {
            self.ifill_pending[core] = Some(line);
            self.enqueue(BusReq {
                core,
                line,
                kind: BusKind::IFill,
            });
        }
        false
    }

    /// What [`MemSys::ifetch`] would answer, without counting, filling or
    /// remembering anything.
    pub fn ifetch_peek(&self, core: usize, addr: u64) -> Fetch {
        let line = self.line_of(addr);
        if self.cfg.ideal.perfect_l1 || self.last_ifetch[core] == Some(line) {
            Fetch::Hit
        } else if self.ifill_pending[core] == Some(line) {
            Fetch::Waiting
        } else if self.l1i[core].peek(line).is_some() {
            Fetch::Hit
        } else {
            Fetch::Missed
        }
    }

    /// Credit `n` repeat instruction-fetch hits on `core`'s L1I, for
    /// ticks a parked core sat out: each would have re-fetched its
    /// current (cached) instruction.
    pub fn credit_ifetch_hits(&mut self, core: usize, n: u64) {
        self.l1i[core].credit_hits(n);
    }

    /// Count `n` repeats of the fetch [`MemSys::ifetch_peek`] answers
    /// for `addr`, for cycles fast-forward skips: hits on a `Hit`, misses
    /// on a `Missed` (a blocked core keeps missing only while another
    /// line's fill is pending, so no fill is requested), nothing on a
    /// `Waiting`.
    pub fn replay_ifetch(&mut self, core: usize, addr: u64, n: u64) {
        match self.ifetch_peek(core, addr) {
            Fetch::Hit => self.l1i[core].credit_hits(n),
            Fetch::Missed => self.l1i[core].credit_misses(n),
            Fetch::Waiting => {}
        }
    }

    /// Enqueue a transactional-commit broadcast of `lines`.
    ///
    /// # Panics
    /// Panics if `lines` is empty.
    pub fn enqueue_tm_commit(&mut self, core: usize, mut lines: Vec<u64>) {
        assert!(!lines.is_empty(), "tm commit needs at least one line");
        let first = lines.remove(0);
        self.enqueue(BusReq {
            core,
            line: first,
            kind: BusKind::TmCommit { lines },
        });
    }

    fn grant_latency(&self, req: &BusReq) -> (u64, bool) {
        let peers_dirty = (0..self.cfg.cores).any(|j| {
            j != req.core
                && self.l1d[j]
                    .peek(req.line)
                    .map(LineState::is_dirty)
                    .unwrap_or(false)
        });
        let peers_any =
            (0..self.cfg.cores).any(|j| j != req.core && self.l1d[j].peek(req.line).is_some());
        let base = match &req.kind {
            BusKind::Upgrade => UPGRADE_LATENCY,
            BusKind::TmCommit { lines } => {
                if self.cfg.ideal.zero_tm_conflicts {
                    // The knob also idealizes commit broadcasts to a
                    // single cycle: the TM ceiling covers conflict *and*
                    // commit-serialization cost together.
                    1
                } else {
                    self.cfg.tm_commit_base + (lines.len() as u64 + 1) * self.cfg.tm_commit_per_line
                }
            }
            BusKind::IFill => {
                if self.l2.peek(req.line).is_some() {
                    self.cfg.l2_latency
                } else {
                    self.cfg.mem_latency
                }
            }
            BusKind::ReadShared { .. } | BusKind::ReadExclusive => {
                if peers_dirty {
                    self.cfg.c2c_latency
                } else if self.l2.peek(req.line).is_some() {
                    self.cfg.l2_latency
                } else if peers_any {
                    self.cfg.c2c_latency
                } else {
                    self.cfg.mem_latency
                }
            }
        };
        // Directory indirection: the home-bank lookup + forwarding that
        // the snooping broadcast resolves combinationally.
        let mut lat = base + self.dir_penalty;
        if matches!(
            req.kind,
            BusKind::ReadShared { .. } | BusKind::ReadExclusive
        ) {
            if let Some(v) = self.l1d[req.core].victim_state(req.line) {
                if v.is_dirty() {
                    lat += self.cfg.writeback_penalty;
                }
            }
        }
        (lat, peers_any)
    }

    fn writeback_to_l2(&mut self, line: u64) {
        // Dirty L1 eviction: install/mark dirty in L2 (L2 evictions go to
        // memory for free — memory is always functionally up to date).
        self.l2.fill(line, LineState::M);
    }

    fn fill_l1d(&mut self, core: usize, line: u64, state: LineState) {
        if let Some((vline, vstate)) = self.l1d[core].fill(line, state) {
            if vstate.is_dirty() {
                self.writeback_to_l2(vline);
            }
        }
    }

    fn complete(&mut self, inflight: InFlight, out: &mut Vec<Completion>) {
        let req = inflight.req;
        let n = self.cfg.cores;
        match req.kind {
            BusKind::ReadShared { dst, epoch } => {
                let mut shared = false;
                for j in 0..n {
                    if j == req.core {
                        continue;
                    }
                    match self.l1d[j].peek(req.line) {
                        Some(LineState::M) => {
                            self.l1d[j].set_state(req.line, LineState::O);
                            shared = true;
                            self.stats_c2c += 1;
                        }
                        Some(LineState::E) => {
                            self.l1d[j].set_state(req.line, LineState::S);
                            shared = true;
                        }
                        Some(_) => shared = true,
                        None => {}
                    }
                }
                if self.l2.peek(req.line).is_none() && !shared {
                    // Came from memory: install in L2 too.
                    self.l2.fill(req.line, LineState::E);
                    self.stats_mem += 1;
                }
                let state = if shared { LineState::S } else { LineState::E };
                self.fill_l1d(req.core, req.line, state);
                out.push(Completion::LoadFill {
                    core: req.core,
                    dst,
                    epoch,
                });
            }
            BusKind::ReadExclusive => {
                for j in 0..n {
                    if j != req.core {
                        self.l1d[j].invalidate(req.line);
                    }
                }
                if self.l2.peek(req.line).is_none() && !inflight.others_had_copy {
                    self.l2.fill(req.line, LineState::E);
                    self.stats_mem += 1;
                }
                self.fill_l1d(req.core, req.line, LineState::M);
                self.retire_store(req.core);
            }
            BusKind::Upgrade => {
                for j in 0..n {
                    if j != req.core {
                        self.l1d[j].invalidate(req.line);
                    }
                }
                match self.l1d[req.core].peek(req.line) {
                    Some(_) => self.l1d[req.core].set_state(req.line, LineState::M),
                    None => self.fill_l1d(req.core, req.line, LineState::M),
                }
                self.retire_store(req.core);
            }
            BusKind::IFill => {
                self.l1i[req.core].fill(req.line, LineState::E);
                self.last_ifetch[req.core] = None;
                if self.l2.peek(req.line).is_none() {
                    self.l2.fill(req.line, LineState::E);
                }
                self.ifill_pending[req.core] = None;
                out.push(Completion::IFillDone { core: req.core });
            }
            BusKind::TmCommit { lines } => {
                let mut all = lines;
                all.push(req.line);
                for line in all {
                    for j in 0..n {
                        if j != req.core {
                            self.l1d[j].invalidate(line);
                        }
                    }
                    match self.l1d[req.core].peek(line) {
                        Some(_) => self.l1d[req.core].set_state(line, LineState::M),
                        None => self.fill_l1d(req.core, line, LineState::M),
                    }
                }
                out.push(Completion::TmCommitDone { core: req.core });
            }
        }
        self.stats_bus += 1;
        self.outstanding -= 1;
    }

    fn retire_store(&mut self, core: usize) {
        self.sb_waiting[core] = false;
        if self.store_bufs[core].pop_front().is_some() {
            self.sb_entries -= 1;
        }
    }

    fn drain_store_buffers(&mut self) {
        if self.sb_entries == 0 {
            return;
        }
        // Perfect-L1 idealization: stores retire instantly — no
        // ownership traffic, no StoreBuf back-pressure.
        if self.cfg.ideal.perfect_l1 {
            for buf in &mut self.store_bufs {
                buf.clear();
            }
            self.sb_entries = 0;
            return;
        }
        for core in 0..self.cfg.cores {
            if self.sb_waiting[core] {
                continue;
            }
            let Some(head) = self.store_bufs[core].front().copied() else {
                continue;
            };
            let line = self.line_of(head.addr);
            match self.l1d[core].access(line) {
                Some(s) if s.is_writable() => {
                    self.l1d[core].set_state(line, LineState::M);
                    self.store_bufs[core].pop_front();
                    self.sb_entries -= 1;
                }
                Some(_) => {
                    // Shared or Owned: need exclusive ownership.
                    self.enqueue(BusReq {
                        core,
                        line,
                        kind: BusKind::Upgrade,
                    });
                    self.sb_waiting[core] = true;
                }
                None => {
                    self.enqueue(BusReq {
                        core,
                        line,
                        kind: BusKind::ReadExclusive,
                    });
                    self.sb_waiting[core] = true;
                }
            }
        }
    }

    /// Advance one cycle: finish due transactions, grant the next per
    /// bank, drain store buffers. Completions for the machine to dispatch
    /// are appended to `out` — a caller-owned buffer, so the per-cycle
    /// path reuses one allocation. Banks are visited in index order, so
    /// completion and grant order is deterministic; with a single bank
    /// (snooping) this is the old one-bus loop unchanged.
    pub fn tick(&mut self, now: u64, out: &mut Vec<Completion>) {
        self.grants.clear();
        // With nothing queued or in flight every bank is idle.
        let banks = if self.outstanding == 0 {
            0
        } else {
            self.banks.len()
        };
        for b in 0..banks {
            if let Some(cur) = &self.banks[b].current {
                if now >= cur.finish {
                    let cur = self.banks[b].current.take().expect("checked above");
                    self.complete(cur, out);
                }
            }
            // Infinite-bandwidth idealization: complete due overlapped
            // transactions (grant order preserved for determinism), then
            // grant *everything* queued — latency is still paid, queueing
            // never is.
            if self.cfg.ideal.infinite_bandwidth {
                if !self.banks[b].extra.is_empty() {
                    let mut due = std::mem::take(&mut self.due);
                    due.extend(self.banks[b].extra.extract_if(.., |f| now >= f.finish));
                    for f in due.drain(..) {
                        self.complete(f, out);
                    }
                    self.due = due;
                }
                while let Some(req) = self.banks[b].queue.pop_front() {
                    let (lat, others) = self.grant_latency(&req);
                    self.stats_busy += lat;
                    self.banks[b].busy += lat;
                    self.grants
                        .push((req.core, req.kind.label(), now, now + lat));
                    self.banks[b].extra.push(InFlight {
                        req,
                        finish: now + lat,
                        others_had_copy: others,
                    });
                }
                continue;
            }
            if self.banks[b].current.is_none() {
                // A bank backing off after a lost grant may not regrant
                // until its retry slot (checked before any RNG draw so
                // the draw sequence is fast-forward safe).
                if self
                    .faults
                    .as_deref()
                    .is_some_and(|f| f.blocked_until[b] > now)
                {
                    continue;
                }
                if let Some(req) = self.banks[b].queue.pop_front() {
                    // Consult the injectors at the grant — the
                    // architectural event. A lost grant reissues the
                    // request at the head of the queue after backoff; a
                    // transient stall just inflates this grant's latency.
                    let mut extra = 0;
                    if let Some(f) = self.faults.as_deref_mut() {
                        if f.grant_loss.fire(now).is_some() {
                            let attempts = f.lost[b] + 1;
                            if attempts > f.port.budget() {
                                f.grant_loss.note_gave_up();
                                f.blocked_until[b] = u64::MAX;
                                f.port.fail(FaultBudgetReport {
                                    cycle: now,
                                    site: FaultSite::GrantLoss,
                                    attempts,
                                    budget: f.port.budget(),
                                    detail: format!(
                                        "bank {b} {} request from core {}",
                                        req.kind.label(),
                                        req.core
                                    ),
                                });
                                f.port.log(now, req.core, FaultSite::GrantLoss, "gave-up");
                            } else {
                                f.grant_loss.note_retried(1);
                                f.lost[b] = attempts;
                                f.blocked_until[b] = now + f.port.backoff(attempts);
                                f.port.log(now, req.core, FaultSite::GrantLoss, "lost");
                            }
                            self.banks[b].queue.push_front(req);
                            continue;
                        }
                        if f.lost[b] > 0 {
                            f.lost[b] = 0;
                            f.grant_loss.note_recovered();
                            f.port.log(now, req.core, FaultSite::GrantLoss, "recovered");
                        }
                        if let Some(FaultKind::Stall(d)) = f.stall.fire(now) {
                            extra = d;
                            f.stall.note_recovered();
                            f.port.log(now, req.core, FaultSite::BankStall, "stalled");
                        }
                    }
                    let (lat, others) = self.grant_latency(&req);
                    let lat = lat + extra;
                    self.stats_busy += lat;
                    self.banks[b].busy += lat;
                    self.grants
                        .push((req.core, req.kind.label(), now, now + lat));
                    self.banks[b].current = Some(InFlight {
                        req,
                        finish: now + lat,
                        others_had_copy: others,
                    });
                }
            }
        }
        self.drain_store_buffers();
    }

    /// Earliest future cycle at which [`MemSys::tick`] would do anything
    /// beyond the identity transition, for the machine's fast-forward
    /// engine. `Some(now)` means the very next tick has work (queued
    /// requests can be granted, or an unblocked store buffer has a head
    /// to drain — both happen at grant/drain time, not at a known future
    /// cycle); `Some(t)` with `t > now` is the earliest in-flight
    /// completion across banks; `None` means the hierarchy is fully
    /// quiescent.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let sb_busy = self.sb_entries > 0
            && self
                .store_bufs
                .iter()
                .zip(&self.sb_waiting)
                .any(|(q, &w)| !q.is_empty() && !w);
        if sb_busy {
            return Some(now);
        }
        if self.outstanding == 0 {
            return None;
        }
        let mut wake: Option<u64> = None;
        let mut consider = |at: u64| {
            if at > now && wake.is_none_or(|w| at < w) {
                wake = Some(at);
            }
        };
        for (b, bank) in self.banks.iter().enumerate() {
            if bank.current.is_none() && !bank.queue.is_empty() {
                // A bank backing off after a lost grant regrants at
                // `blocked_until` (a parked gave-up bank never does; the
                // machine surfaces the budget error instead).
                match self.faults.as_deref().map(|f| f.blocked_until[b]) {
                    Some(at) if at > now => {
                        if at != u64::MAX {
                            consider(at);
                        }
                    }
                    _ => return Some(now),
                }
            }
            if let Some(c) = &bank.current {
                consider(c.finish);
            }
            for f in &bank.extra {
                consider(f.finish);
            }
        }
        wake
    }

    /// Drain the grants made by the last [`MemSys::tick`] (cleared at
    /// the top of every tick, so draining after each tick sees every
    /// grant exactly once). At most one per bank per tick: a single
    /// element on the snooping bus, up to `banks` on a directory
    /// machine.
    pub fn take_grants(&mut self) -> std::vec::Drain<'_, (usize, &'static str, u64, u64)> {
        self.grants.drain(..)
    }

    // ---- fault injection ----

    /// The interconnect's fault port, when the config carries a fault plan.
    pub fn fault_port(&mut self) -> Option<&mut FaultPort> {
        self.faults.as_deref_mut().map(|f| &mut f.port)
    }

    /// Per-site fault counters for the interconnect's two sites.
    pub fn fault_stats(&self) -> Vec<(FaultSite, SiteFaults)> {
        self.faults.as_deref().map_or_else(Vec::new, |f| {
            vec![
                (FaultSite::GrantLoss, f.grant_loss.stats()),
                (FaultSite::BankStall, f.stall.stats()),
            ]
        })
    }

    /// Cumulative interconnect-busy cycles so far, summed over banks
    /// (the interval probes' bus utilization counter; also in
    /// [`MemStats::bus_busy_cycles`]).
    pub fn bus_busy_cycles(&self) -> u64 {
        self.stats_busy
    }

    /// Snapshot the statistics.
    pub fn stats(&self) -> MemStats {
        MemStats {
            bus_transactions: self.stats_bus,
            bus_busy_cycles: self.stats_busy,
            bank_busy_cycles: self.banks.iter().map(|b| b.busy).collect(),
            c2c_transfers: self.stats_c2c,
            mem_fetches: self.stats_mem,
            l1d: self.l1d.iter().map(|c| c.stats()).collect(),
            l1i: self.l1i.iter().map(|c| c.stats()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSys {
        MemSys::new(&MachineConfig::paper(4))
    }

    fn r0() -> Reg {
        Reg::gpr(0)
    }

    /// Tick from `start` until a completion arrives, returning the cycle
    /// it arrived at and the completions; panics if none comes within
    /// `cap` cycles.
    fn run_until_completion(m: &mut MemSys, start: u64, cap: u64) -> (u64, Vec<Completion>) {
        let mut done = Vec::new();
        for t in start..start + cap {
            m.tick(t, &mut done);
            if !done.is_empty() {
                return (t, done);
            }
        }
        panic!("no completion within {cap} cycles from {start}");
    }

    #[test]
    fn lost_grant_is_reissued_after_backoff() {
        use crate::fault::FaultPlan;
        let mut cfg = MachineConfig::paper(4);
        cfg.faults = Some(FaultPlan::seeded(0, 0.0).with_event(0, FaultKind::GrantLoss));
        let mut m = MemSys::new(&cfg);
        m.load(0, 0x1_0000, r0(), 0);
        // The first grant attempt loses; the bank backs off 8 cycles and
        // regrants, so the fill completes one backoff later than clean.
        let (t, c) = run_until_completion(&mut m, 0, 1000);
        assert!(matches!(c[0], Completion::LoadFill { core: 0, .. }));
        let clean = {
            let mut m = sys();
            m.load(0, 0x1_0000, r0(), 0);
            run_until_completion(&mut m, 0, 1000).0
        };
        assert_eq!(t, clean + 8);
        let gl = m.fault_stats()[0].1;
        assert_eq!((gl.injected, gl.retried, gl.recovered), (1, 1, 1));
        assert!(m.fault_port().and_then(FaultPort::take_failure).is_none());
    }

    #[test]
    fn bank_stall_inflates_one_grant() {
        use crate::fault::FaultPlan;
        let mut cfg = MachineConfig::paper(4);
        cfg.faults = Some(FaultPlan::seeded(0, 0.0).with_event(0, FaultKind::Stall(11)));
        let mut m = MemSys::new(&cfg);
        m.load(0, 0x1_0000, r0(), 0);
        let (t, _) = run_until_completion(&mut m, 0, 1000);
        let clean = {
            let mut m = sys();
            m.load(0, 0x1_0000, r0(), 0);
            run_until_completion(&mut m, 0, 1000).0
        };
        assert_eq!(t, clean + 11);
        let st = m.fault_stats()[1].1;
        assert_eq!((st.injected, st.recovered), (1, 1));
    }

    #[test]
    fn grant_loss_budget_exhaustion_fails_closed() {
        use crate::fault::FaultPlan;
        let mut cfg = MachineConfig::paper(4);
        cfg.faults = Some(FaultPlan::seeded(1, 1.0).only(FaultSite::GrantLoss));
        let mut m = MemSys::new(&cfg);
        m.load(0, 0x1_0000, r0(), 0);
        for t in 0..5000 {
            m.tick(t, &mut Vec::new());
        }
        let report = m
            .fault_port()
            .and_then(FaultPort::take_failure)
            .expect("budget must exhaust");
        assert_eq!(report.site, FaultSite::GrantLoss);
        assert!(report.attempts > report.budget);
        assert!(report.detail.contains("read-shared"));
        assert_eq!(m.fault_stats()[0].1.gave_up, 1);
        // The parked bank never regrants and never wakes fast-forward.
        assert_eq!(m.next_event(5000), None);
    }

    fn dir_sys(cores: usize, banks: usize) -> MemSys {
        let cfg = MachineConfig::scaled(cores).with_backend(CoherenceBackend::Directory { banks });
        MemSys::new(&cfg)
    }

    #[test]
    fn directory_banks_overlap_distinct_line_traffic() {
        // Two cold misses to lines homed on different banks must overlap
        // on the directory machine: both complete within one memory
        // latency (plus directory indirection) of issue, where the
        // snooping bus would serialize them.
        let cfg4 = MachineConfig::scaled(4);
        let span = |mut m: MemSys| {
            m.load(0, 0x1_0000, r0(), 0); // bank 0 under 4-way interleave
            m.load(1, 0x1_0020, r0(), 0); // bank 1
            let (mut done, mut t, mut last) = (0usize, 0u64, 0u64);
            while done < 2 {
                // Overlapping banks can deliver both fills in one tick.
                let (tc, c) = run_until_completion(&mut m, t, 1000);
                done += c.len();
                last = tc;
                t = tc + 1;
            }
            last
        };
        let snoop_done = span(MemSys::new(&cfg4));
        let dir_done = span(dir_sys(4, 4));
        let dir_lat = cfg4.dir_latency;
        assert!(
            dir_done <= cfg4.mem_latency + dir_lat + 2,
            "banked fills should overlap, finished at {dir_done}"
        );
        assert!(
            snoop_done >= 2 * cfg4.mem_latency,
            "snooping serializes, finished at {snoop_done}"
        );
    }

    #[test]
    fn directory_grants_pay_indirection_latency() {
        let mut snoop = sys();
        let mut dir = dir_sys(4, 4);
        snoop.load(0, 0x1_0000, r0(), 0);
        dir.load(0, 0x1_0000, r0(), 0);
        let (ts, _) = run_until_completion(&mut snoop, 0, 1000);
        let (td, _) = run_until_completion(&mut dir, 0, 1000);
        assert_eq!(td - ts, MachineConfig::paper(4).dir_latency);
    }

    #[test]
    fn directory_keeps_moesi_transitions_identical() {
        // Same sharing scenario as `dirty_line_is_supplied_cache_to_cache`,
        // on the directory backend: the state machine must land in the
        // same MOESI states even though the timing differs.
        let mut m = dir_sys(16, 4);
        assert!(m.store(0, 0x1_0000, 8));
        for t in 0..400 {
            m.tick(t, &mut Vec::new());
        }
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::M));
        m.load(1, 0x1_0000, r0(), 0);
        run_until_completion(&mut m, 400, 1000);
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::O));
        assert_eq!(m.l1d[1].peek(0x1_0000), Some(LineState::S));
        // And a third core's store invalidates both through the home bank.
        assert!(m.store(2, 0x1_0000, 8));
        for t in 1500..2500 {
            m.tick(t, &mut Vec::new());
        }
        assert!(m.store_bufs[2].is_empty());
        assert_eq!(m.l1d[0].peek(0x1_0000), None);
        assert_eq!(m.l1d[1].peek(0x1_0000), None);
        assert_eq!(m.l1d[2].peek(0x1_0000), Some(LineState::M));
    }

    #[test]
    fn per_bank_busy_cycles_sum_to_total() {
        // Lines interleave across banks at line granularity: with 32-byte
        // lines, 0x1_0020 is homed on bank 1 of 4, and only that bank
        // works for it.
        let mut m = dir_sys(16, 4);
        m.load(3, 0x1_0020, r0(), 0);
        run_until_completion(&mut m, 0, 1000);
        let busy: Vec<bool> = m.stats().bank_busy_cycles.iter().map(|&b| b > 0).collect();
        assert_eq!(busy, [false, true, false, false]);
        let mut m = dir_sys(16, 4);
        for i in 0..8 {
            m.load(i % 16, 0x1_0000 + i as u64 * 32, r0(), 0);
        }
        for t in 0..2000 {
            m.tick(t, &mut Vec::new());
        }
        let st = m.stats();
        assert_eq!(st.bank_busy_cycles.len(), 4);
        assert_eq!(st.bank_busy_cycles.iter().sum::<u64>(), st.bus_busy_cycles);
        // The interleave spread the 8 lines across all 4 banks.
        assert!(st.bank_busy_cycles.iter().all(|&b| b > 0));
    }

    #[test]
    fn cold_load_misses_then_hits() {
        let mut m = sys();
        assert_eq!(m.load(0, 0x1_0000, r0(), 0), LoadOutcome::Miss);
        let (t, c) = run_until_completion(&mut m, 0, 1000);
        assert_eq!(
            c,
            vec![Completion::LoadFill {
                core: 0,
                dst: r0(),
                epoch: 0
            }]
        );
        // Memory latency for a cold miss.
        assert!(t >= 120, "completed too fast at {t}");
        assert_eq!(m.load(0, 0x1_0008, r0(), 0), LoadOutcome::Hit);
    }

    #[test]
    fn second_core_gets_line_faster_from_l2_or_peer() {
        let mut m = sys();
        m.load(0, 0x1_0000, r0(), 0);
        run_until_completion(&mut m, 0, 1000);
        m.load(1, 0x1_0000, r0(), 0);
        let (t0, _) = run_until_completion(&mut m, 200, 1000);
        assert!(
            t0 - 200 < 120,
            "should be served by L2/peer, took {}",
            t0 - 200
        );
    }

    #[test]
    fn store_gains_ownership_and_invalidates_sharers() {
        let mut m = sys();
        // Both cores read the line -> shared.
        m.load(0, 0x1_0000, r0(), 0);
        run_until_completion(&mut m, 0, 1000);
        m.load(1, 0x1_0000, r0(), 0);
        run_until_completion(&mut m, 200, 1000);
        // Core 0 stores: must upgrade and invalidate core 1.
        assert!(m.store(0, 0x1_0000, 8));
        for t in 400..800 {
            m.tick(t, &mut Vec::new());
        }
        assert!(m.store_bufs[0].is_empty());
        assert_eq!(m.l1d[1].peek(0x1_0000), None);
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::M));
    }

    #[test]
    fn dirty_line_is_supplied_cache_to_cache() {
        let mut m = sys();
        assert!(m.store(0, 0x1_0000, 8));
        for t in 0..400 {
            m.tick(t, &mut Vec::new());
        }
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::M));
        // Core 1 load: supplier is core 0 (dirty), downgrading it to O.
        m.load(1, 0x1_0000, r0(), 0);
        let (t, _) = run_until_completion(&mut m, 400, 1000);
        assert!(t - 400 <= 16, "c2c should be fast, took {}", t - 400);
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::O));
        assert_eq!(m.l1d[1].peek(0x1_0000), Some(LineState::S));
    }

    #[test]
    fn store_buffer_forwards_to_loads() {
        let mut m = sys();
        assert!(m.store(0, 0x1_0000, 8));
        // Load overlapping the buffered store hits by forwarding.
        assert_eq!(m.load(0, 0x1_0004, r0(), 0), LoadOutcome::Hit);
    }

    #[test]
    fn store_buffer_fills_up() {
        let mut m = sys();
        // The drain needs bus round-trips, so 8 quick stores to distinct
        // lines fill the buffer.
        for i in 0..8 {
            assert!(m.store(0, 0x1_0000 + i * 64, 8), "store {i} rejected");
            m.tick(i, &mut Vec::new());
        }
        assert!(!m.store(0, 0x2_0000, 8));
    }

    #[test]
    fn ifetch_fills_once() {
        let mut m = sys();
        assert!(!m.ifetch(0, 0x8000_0000));
        assert!(!m.ifetch(0, 0x8000_0004)); // same line, already pending
        let mut done = false;
        for t in 0..400 {
            m.tick(t, &mut Vec::new());
            if m.ifetch(0, 0x8000_0000) {
                done = true;
                break;
            }
        }
        assert!(done);
        assert!(m.ifetch(0, 0x8000_001c)); // same 32B line
    }

    #[test]
    fn replay_ifetch_counts_what_the_fetches_would() {
        const A: u64 = 0x8000_0000;
        const B: u64 = 0x8000_0040;
        // Core 0 has fetched `A` once: its fill is pending, or has landed.
        let driven = |landed: bool| {
            let mut m = sys();
            assert!(!m.ifetch(0, A));
            if landed {
                run_until_completion(&mut m, 0, 1000);
            }
            m
        };
        for (landed, addr, answer) in [
            (true, A, Fetch::Hit),
            (false, A, Fetch::Waiting),
            (false, B, Fetch::Missed),
        ] {
            let (mut replayed, mut fetched) = (driven(landed), driven(landed));
            assert_eq!(replayed.ifetch_peek(0, addr), answer);
            replayed.replay_ifetch(0, addr, 5);
            for _ in 0..5 {
                fetched.ifetch(0, addr);
            }
            assert_eq!(replayed.stats().l1i, fetched.stats().l1i, "{answer:?}");
        }
    }

    #[test]
    fn tm_commit_invalidates_peers_and_completes() {
        let mut m = sys();
        m.load(1, 0x1_0000, r0(), 0);
        run_until_completion(&mut m, 0, 1000);
        m.enqueue_tm_commit(0, vec![0x1_0000, 0x1_0020]);
        let (_, c) = run_until_completion(&mut m, 200, 1000);
        assert_eq!(c, vec![Completion::TmCommitDone { core: 0 }]);
        assert_eq!(m.l1d[1].peek(0x1_0000), None);
        assert_eq!(m.l1d[0].peek(0x1_0000), Some(LineState::M));
    }

    #[test]
    fn bus_serializes_requests() {
        let mut m = sys();
        m.load(0, 0x1_0000, r0(), 0);
        m.load(1, 0x2_0000, r0(), 1);
        // First completion strictly before the second.
        let (t1, c1) = run_until_completion(&mut m, 0, 1000);
        let (t2, c2) = run_until_completion(&mut m, t1 + 1, 1000);
        assert!(matches!(c1[0], Completion::LoadFill { core: 0, .. }));
        assert!(matches!(c2[0], Completion::LoadFill { core: 1, .. }));
        assert!(t2 > t1);
    }

    /// The last-line shortcut in `ifetch` is invisible: against a bare
    /// `TagCache` doing the full lookup on every fetch, a random fetch
    /// stream (re-fetches, walks across lines, jumps, fetches of other
    /// lines while a fill is pending) sees the same hit or miss every
    /// time, the same counters, and — the fills land in a cache two sets
    /// of two ways wide — the same lines resident after every fill, that
    /// is, the same victims.
    #[test]
    fn last_line_shortcut_changes_no_hit_miss_or_victim() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut cfg = MachineConfig::paper(1);
        (cfg.l1i_size, cfg.l1i_assoc) = (128, 2);
        let mut m = MemSys::new(&cfg);
        let mut full = TagCache::new(cfg.l1i_size, cfg.l1i_assoc, cfg.line_size);
        let mut pending: Option<u64> = None;
        let mut rng = StdRng::seed_from_u64(14);
        let mut addr = 0u64;
        let (mut shortcuts, mut fills) = (0, 0);
        for now in 0..40_000u64 {
            match rng.gen_range(0..10u32) {
                0..=4 => {}
                5..=7 => addr += 4,
                _ => addr = rng.gen_range(0..12u64) * 32 + rng.gen_range(0..8u64) * 4,
            }
            let line = m.line_of(addr);
            // What `ifetch` did before it had the shortcut.
            let expect = if pending == Some(line) {
                false
            } else if full.access(line).is_some() {
                true
            } else {
                pending.get_or_insert(line);
                false
            };
            shortcuts += u32::from(m.last_ifetch[0] == Some(line));
            assert_eq!(m.ifetch(0, addr), expect, "cycle {now}, address {addr:#x}");
            m.tick(now, &mut Vec::new());
            if let Some(filled) = pending.filter(|_| m.ifill_pending[0].is_none()) {
                full.fill(filled, LineState::E);
                pending = None;
                fills += 1;
                for l in 0..16 {
                    assert_eq!(m.l1i[0].peek(l * 32), full.peek(l * 32), "line {l}");
                }
            }
            assert_eq!(m.l1i[0].stats(), full.stats(), "cycle {now}");
        }
        assert!(
            shortcuts > 5_000 && fills > 100,
            "{shortcuts} shortcuts, {fills} fills"
        );
    }
}
