//! Low-cost transactional memory for speculative (statistical) DOALL
//! execution.
//!
//! The paper's design (§3, citing the Lieberman tech report): loop chunks
//! run as ordered transactions; the hardware watches coherence traffic for
//! cross-core dependences and rolls back memory state on a violation,
//! while register state is restored so the chunk re-executes from its
//! start.
//!
//! This implementation is lazy-versioned with ordered commits:
//!
//! * writes are buffered byte-granular per transaction;
//! * a commit token enforces chunk order (chunk *k* commits only after
//!   chunk *k − 1*), so the committing transaction never fails;
//! * at commit, the write-set is broadcast (a bus transaction in
//!   [`crate::memsys`]); any *later-ordered* live transaction whose
//!   line-granular read-set intersects the committed write-set aborts and
//!   restarts — it may have read stale pre-commit data.

use voltron_ir::hash::{IntMap, IntSet};

/// Per-core transaction bookkeeping.
#[derive(Debug, Clone)]
pub struct Txn {
    /// Chunk order within the current speculative region (0-based).
    pub order: u32,
    read_lines: IntSet<u64>,
    write_lines: IntSet<u64>,
    writes: IntMap<u64, u8>,
    /// First-read committed value per byte actually read (not forwarded
    /// from the transaction's own write buffer). Populated only in
    /// value-based conflict mode ([`TxnManager::set_value_conflicts`]);
    /// empty — and never consulted — on the default line-granular path.
    observed: IntMap<u64, u8>,
}

/// TM statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TmStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted (and restarted) transactions.
    pub aborts: u64,
    /// Lines broadcast at commits.
    pub committed_lines: u64,
    /// Core-cycles spent inside transactions that later aborted — the
    /// re-executed (wasted) work. Accounted by the machine (the manager
    /// has no clock); an overlay on the CPI-stack categories, not a
    /// separate term of the exact-sum decomposition.
    pub wasted_cycles: u64,
}

/// The transaction manager (one per machine). The default manages no
/// cores until [`TxnManager::reset`] sizes it.
#[derive(Debug, Default)]
pub struct TxnManager {
    line_mask: u64,
    txns: Vec<Option<Txn>>,
    /// Retired transactions, recycled by [`TxnManager::begin`] so their
    /// hash containers keep their capacity (transactions are begun every
    /// few hundred cycles on the DOALL path).
    pool: Vec<Txn>,
    /// The commit token: the order the next commit must have.
    expected: u32,
    /// Value-based (byte-granular) conflict detection: a commit aborts a
    /// later-ordered reader only when it changes the *value* of a byte
    /// that reader observed. The what-if "zero TM conflict aborts"
    /// idealization — it removes false-sharing and silent-store aborts,
    /// the recoverable ones, while true data conflicts still abort (they
    /// must: the reader consumed a stale value and re-execution is the
    /// recovery contract). Off on every measured run.
    value_conflicts: bool,
    stats: TmStats,
}

/// Clear a retired transaction's sets (keeping capacity) for reuse.
fn retire(mut txn: Txn) -> Txn {
    txn.read_lines.clear();
    txn.write_lines.clear();
    txn.writes.clear();
    txn.observed.clear();
    txn
}

impl TxnManager {
    /// Create a manager for `cores` cores and `line_size`-byte conflict
    /// granularity.
    ///
    /// # Panics
    /// See [`TxnManager::reset`].
    pub fn new(cores: usize, line_size: u64) -> TxnManager {
        let mut tm = TxnManager::default();
        tm.reset(cores, line_size);
        tm
    }

    /// Switch conflict detection to value-based byte granularity (the
    /// what-if idealization). Must be set before any transaction begins.
    pub fn set_value_conflicts(&mut self, on: bool) {
        self.value_conflicts = on;
    }

    /// True if `core` has a live transaction.
    pub fn active(&self, core: usize) -> bool {
        self.txns[core].is_some()
    }

    /// Begin a transaction of the given chunk `order`. Order 0 resets the
    /// commit token. Each DOALL invocation numbers its chunks from 0;
    /// chunk 0 runs on the master core, and the code generator emits the
    /// master's `XBEGIN 0` *before* the worker spawns, so the reset is
    /// ordered before any worker activity of the invocation.
    ///
    /// # Panics
    /// Panics if the core already has a live transaction (no nesting).
    pub fn begin(&mut self, core: usize, order: u32) {
        assert!(self.txns[core].is_none(), "core {core}: nested transaction");
        if order == 0 {
            self.expected = 0;
        }
        let mut txn = self.pool.pop().unwrap_or_else(|| Txn {
            order: 0,
            read_lines: IntSet::default(),
            write_lines: IntSet::default(),
            writes: IntMap::default(),
            observed: IntMap::default(),
        });
        txn.order = order;
        self.txns[core] = Some(txn);
    }

    /// Transactional read: merge the transaction's own buffered bytes over
    /// the globally committed bytes, recording the read-set.
    ///
    /// `committed` supplies the committed value of the addressed bytes
    /// (little-endian, as [`voltron_ir::Memory::load_uint`] returns).
    pub fn read(&mut self, core: usize, addr: u64, width: u64, committed: u64) -> u64 {
        let txn = self.txns[core]
            .as_mut()
            .expect("transactional read outside txn");
        // Insert per spanned line, not per byte (accesses are narrow, so
        // this is one or two inserts instead of `width`).
        let line_size = !self.line_mask + 1;
        let last = (addr + width - 1) & self.line_mask;
        let mut line = addr & self.line_mask;
        loop {
            txn.read_lines.insert(line);
            if line == last {
                break;
            }
            line += line_size;
        }
        let mut bytes = committed.to_le_bytes();
        for (i, byte) in bytes.iter_mut().enumerate().take(width as usize) {
            match txn.writes.get(&(addr + i as u64)) {
                Some(v) => *byte = *v,
                // First-read value of a byte taken from committed memory:
                // the evidence value-based conflict detection compares a
                // later commit against. Self-written bytes are immune to
                // external commits and are never recorded.
                None if self.value_conflicts => {
                    txn.observed.entry(addr + i as u64).or_insert(*byte);
                }
                None => {}
            }
        }
        u64::from_le_bytes(bytes)
    }

    /// Transactional write: buffer bytes, recording the write-set.
    pub fn write(&mut self, core: usize, addr: u64, width: u64, value: u64) {
        let txn = self.txns[core]
            .as_mut()
            .expect("transactional write outside txn");
        let bytes = value.to_le_bytes();
        let line_size = !self.line_mask + 1;
        let last = (addr + width - 1) & self.line_mask;
        let mut line = addr & self.line_mask;
        loop {
            txn.write_lines.insert(line);
            if line == last {
                break;
            }
            line += line_size;
        }
        for b in 0..width {
            txn.writes.insert(addr + b, bytes[b as usize]);
        }
    }

    /// True when `core` holds the commit token.
    pub fn can_commit(&self, core: usize) -> bool {
        self.txns[core]
            .as_ref()
            .map(|t| t.order == self.expected)
            .unwrap_or(false)
    }

    /// Commit `core`'s transaction: apply its buffered writes through
    /// `apply`, advance the token, and abort any later-ordered live
    /// transaction that read a committed line. Returns the committed
    /// line-set (for the bus broadcast) and the cores that must restart.
    ///
    /// # Panics
    /// Panics if the core holds no transaction or lacks the token.
    pub fn commit(
        &mut self,
        core: usize,
        mut apply: impl FnMut(u64, u8),
    ) -> (Vec<u64>, Vec<usize>) {
        assert!(self.can_commit(core), "commit without token on core {core}");
        let txn = self.txns[core].take().expect("checked by can_commit");
        for (addr, byte) in &txn.writes {
            apply(*addr, *byte);
        }
        self.expected = txn.order + 1;
        let mut aborted = Vec::new();
        for (c, slot) in self.txns.iter_mut().enumerate() {
            if let Some(other) = slot {
                let conflicts = other.order > txn.order
                    && if self.value_conflicts {
                        // Abort only when a committed byte *changes* a
                        // value the later transaction actually observed:
                        // false sharing and silent stores survive, stale
                        // reads still roll back.
                        txn.writes
                            .iter()
                            .any(|(a, v)| other.observed.get(a).is_some_and(|o| o != v))
                    } else {
                        !other.read_lines.is_disjoint(&txn.write_lines)
                    };
                if conflicts {
                    self.pool.push(retire(slot.take().expect("just matched")));
                    aborted.push(c);
                    self.stats.aborts += 1;
                }
            }
        }
        self.stats.commits += 1;
        self.stats.committed_lines += txn.write_lines.len() as u64;
        let mut lines: Vec<u64> = txn.write_lines.iter().copied().collect();
        lines.sort_unstable();
        self.pool.push(retire(txn));
        (lines, aborted)
    }

    /// The order the next commit must have (the commit-token position).
    pub fn expected(&self) -> u32 {
        self.expected
    }

    /// The chunk order of `core`'s live transaction, if any.
    pub fn order_of(&self, core: usize) -> Option<u32> {
        self.txns[core].as_ref().map(|t| t.order)
    }

    /// `(read set, write set)` line counts of `core`'s live transaction,
    /// or `(0, 0)` when none is active (the interval probes' TM gauge).
    pub fn set_sizes(&self, core: usize) -> (usize, usize) {
        self.txns[core]
            .as_ref()
            .map_or((0, 0), |t| (t.read_lines.len(), t.write_lines.len()))
    }

    /// The core whose live transaction has chunk `order`, if any (used by
    /// deadlock forensics to point at the commit-token holder).
    pub fn holder_of(&self, order: u32) -> Option<usize> {
        self.txns
            .iter()
            .position(|t| t.as_ref().is_some_and(|t| t.order == order))
    }

    /// Explicitly abort `core`'s transaction (XABORT or machine-initiated).
    pub fn abort(&mut self, core: usize) {
        if let Some(txn) = self.txns[core].take() {
            self.pool.push(retire(txn));
            self.stats.aborts += 1;
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TmStats {
        self.stats
    }

    /// Empty the manager and size it for `cores` cores and `line_size`
    /// granularity, retiring any live transactions into the pool so
    /// their hash containers keep their capacity. Conflict detection goes
    /// back to line granularity; callers re-apply
    /// [`TxnManager::set_value_conflicts`].
    ///
    /// # Panics
    /// Panics unless `line_size` is a power of two.
    pub fn reset(&mut self, cores: usize, line_size: u64) {
        assert!(line_size.is_power_of_two());
        self.line_mask = !(line_size - 1);
        for slot in &mut self.txns {
            if let Some(txn) = slot.take() {
                self.pool.push(retire(txn));
            }
        }
        self.txns.resize(cores, None);
        self.expected = 0;
        self.value_conflicts = false;
        self.stats = TmStats::default();
    }

    /// Earliest future cycle at which the TM's state can change on its
    /// own, for the machine's fast-forward engine: always `None`.
    ///
    /// Every TM transition is progress-driven, never time-driven. The
    /// commit token advances only when a core executes `XEND` (an issue,
    /// so the machine is not fully blocked), the commit's bus broadcast
    /// latency is owned by [`crate::memsys::MemSys`] and surfaces through
    /// its `next_event`, and aborts happen synchronously inside
    /// [`TxnManager::commit`]. A machine whose cores are all blocked can
    /// therefore never be woken *by* the TM, only by the bus completion
    /// that lets a committer finish.
    pub fn next_event(&self) -> Option<u64> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap};

    #[test]
    fn read_your_own_writes() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.write(0, 100, 4, 0xaabbccdd);
        assert_eq!(tm.read(0, 100, 4, 0), 0xaabbccdd);
        // Partial overlap merges committed and buffered bytes.
        assert_eq!(tm.read(0, 102, 4, 0x11110000), 0x1111aabb);
    }

    #[test]
    fn ordered_commit_token() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.begin(1, 1);
        assert!(!tm.can_commit(1));
        assert!(tm.can_commit(0));
        let mut mem: HashMap<u64, u8> = HashMap::new();
        tm.commit(0, |a, b| {
            mem.insert(a, b);
        });
        assert!(tm.can_commit(1));
    }

    #[test]
    fn raw_conflict_aborts_later_txn() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.begin(1, 1);
        // Later txn reads a line the earlier one writes.
        tm.read(1, 64, 8, 0);
        tm.write(0, 64, 8, 42);
        let (lines, aborted) = tm.commit(0, |_, _| {});
        assert_eq!(lines, vec![64]);
        assert_eq!(aborted, vec![1]);
        assert!(!tm.active(1));
        assert_eq!(tm.stats().aborts, 1);
    }

    #[test]
    fn disjoint_lines_do_not_conflict() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.begin(1, 1);
        tm.read(1, 128, 8, 0);
        tm.write(0, 64, 8, 42);
        let (_, aborted) = tm.commit(0, |_, _| {});
        assert!(aborted.is_empty());
        assert!(tm.active(1));
    }

    #[test]
    fn false_sharing_within_a_line_conflicts() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.begin(1, 1);
        tm.read(1, 40, 8, 0); // same 32B line as addr 32..63
        tm.write(0, 32, 8, 1);
        let (_, aborted) = tm.commit(0, |_, _| {});
        assert_eq!(aborted, vec![1]);
    }

    #[test]
    fn order_zero_resets_token_for_next_invocation() {
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.commit(0, |_, _| {});
        // Next invocation. The codegen contract: the master's XBEGIN 0
        // precedes worker spawns, so begin(0) happens before any worker
        // begin of the same invocation.
        tm.begin(0, 0);
        tm.begin(1, 1);
        assert!(!tm.can_commit(1));
        tm.commit(0, |_, _| {});
        assert!(tm.can_commit(1));
    }

    #[test]
    fn value_mode_spares_false_sharing_and_silent_stores() {
        let mut tm = TxnManager::new(3, 32);
        tm.set_value_conflicts(true);
        tm.begin(0, 0);
        tm.begin(1, 1);
        tm.begin(2, 2);
        // Core 1 reads bytes 40..48 (committed value 7); core 2 reads
        // bytes 0..8 (committed value 9). Core 0 writes byte 32..40 on
        // core 1's line (false sharing) and silently re-stores 9 over
        // core 2's bytes.
        tm.read(1, 40, 8, 7);
        tm.read(2, 0, 8, 9);
        tm.write(0, 32, 8, 1);
        tm.write(0, 0, 8, 9);
        let (_, aborted) = tm.commit(0, |_, _| {});
        assert!(aborted.is_empty(), "aborted {aborted:?}");
        assert!(tm.active(1) && tm.active(2));
        assert_eq!(tm.stats().aborts, 0);
    }

    #[test]
    fn value_mode_still_aborts_true_conflicts() {
        let mut tm = TxnManager::new(2, 32);
        tm.set_value_conflicts(true);
        tm.begin(0, 0);
        tm.begin(1, 1);
        tm.read(1, 64, 8, 0); // observes 0
        tm.write(0, 64, 8, 42); // commits a different value
        let (_, aborted) = tm.commit(0, |_, _| {});
        assert_eq!(aborted, vec![1]);
        assert_eq!(tm.stats().aborts, 1);
    }

    #[test]
    fn value_mode_ignores_self_written_bytes() {
        let mut tm = TxnManager::new(2, 32);
        tm.set_value_conflicts(true);
        tm.begin(0, 0);
        tm.begin(1, 1);
        // Core 1 writes the byte first, then reads it back: the value is
        // forwarded from its own buffer and is immune to the commit.
        tm.write(1, 64, 8, 5);
        tm.read(1, 64, 8, 0);
        tm.write(0, 64, 8, 42);
        let (_, aborted) = tm.commit(0, |_, _| {});
        assert!(aborted.is_empty());
    }

    /// Nothing a commit reports may depend on the order its sets were
    /// filled in (or, therefore, on how their keys hash).
    #[test]
    fn commit_is_independent_of_insertion_order() {
        let accesses: [(u64, u64, u64); 4] = [
            (64, 8, 0x0102_0304_0506_0708),
            (4096, 4, 0xdead_beef),
            (30, 4, 0xaabb_ccdd), // straddles the 0 and 32 lines
            (200, 1, 0x7f),
        ];
        let commit = |order: &[usize]| {
            let mut tm = TxnManager::new(3, 32);
            tm.begin(0, 0);
            tm.begin(1, 1);
            tm.begin(2, 2);
            for &i in order {
                let (addr, width, value) = accesses[i];
                tm.write(0, addr, width, value);
                tm.read(0, addr + 512, width, 0);
                // Core 1 reads what core 0 writes; core 2 stays clear.
                tm.read(1, addr, width, 0);
                tm.read(2, addr + 8192, width, 0);
            }
            let mut applied = BTreeMap::new();
            let (lines, aborted) = tm.commit(0, |a, b| {
                assert!(applied.insert(a, b).is_none(), "byte {a:#x} applied twice");
            });
            (lines, aborted, applied, tm.stats())
        };
        let forward = commit(&[0, 1, 2, 3]);
        assert_eq!(forward.0, vec![0, 32, 64, 192, 4096]);
        assert_eq!(forward.1, vec![1]);
        assert_eq!(forward.2.len(), 8 + 4 + 4 + 1);
        assert_eq!(commit(&[3, 1, 0, 2]), forward);
        assert_eq!(commit(&[2, 3, 0, 1]), forward);
    }

    #[test]
    fn commit_applies_bytes() {
        let mut tm = TxnManager::new(1, 32);
        tm.begin(0, 0);
        tm.write(0, 10, 2, 0xbeef);
        let mut mem: HashMap<u64, u8> = HashMap::new();
        tm.commit(0, |a, b| {
            mem.insert(a, b);
        });
        assert_eq!(mem.get(&10), Some(&0xef));
        assert_eq!(mem.get(&11), Some(&0xbe));
    }
}
