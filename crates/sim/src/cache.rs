//! Tag-state caches.
//!
//! The simulator separates *function* from *timing*: data values live in
//! the eager functional [`voltron_ir::Memory`]; caches track only tags and
//! MOESI states to decide hit/miss timing and coherence traffic. This is
//! the standard timing-directed-functional simulator split and keeps the
//! golden-model equivalence trivially independent of cache bugs (which
//! then only mis-time, and are caught by the unit tests here).

/// MOESI line state (the paper's bus-based snooping protocol).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineState {
    /// Modified: dirty, exclusive.
    M,
    /// Owned: dirty, shared (supplies data on snoop).
    O,
    /// Exclusive: clean, exclusive.
    E,
    /// Shared: clean, shared.
    S,
}

impl LineState {
    /// True if this state must supply data / be written back.
    pub fn is_dirty(self) -> bool {
        matches!(self, LineState::M | LineState::O)
    }

    /// True if a store can hit this line without a bus transaction.
    pub fn is_writable(self) -> bool {
        matches!(self, LineState::M | LineState::E)
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: LineState,
    lru: u64,
}

/// A set-associative tag-state cache (LRU replacement). The default is
/// an empty cache with no sets, for [`TagCache::reset_to`] to shape.
#[derive(Debug, Clone, Default)]
pub struct TagCache {
    sets: Vec<Vec<Line>>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl TagCache {
    /// Build a cache of `size` bytes with `assoc` ways and `line`-byte
    /// lines.
    ///
    /// # Panics
    /// See [`TagCache::reset_to`].
    pub fn new(size: u64, assoc: usize, line: u64) -> TagCache {
        let mut c = TagCache::default();
        c.reset_to(size, assoc, line);
        c
    }

    /// Empty the cache, zero its counters and give it `size` bytes in
    /// `assoc` ways of `line`-byte lines, keeping the allocations of the
    /// sets it already has.
    ///
    /// # Panics
    /// Panics unless the geometry is a power-of-two split.
    pub fn reset_to(&mut self, size: u64, assoc: usize, line: u64) {
        assert!(line.is_power_of_two() && size.is_power_of_two() && assoc > 0);
        let nsets = size / line / assoc as u64;
        assert!(nsets.is_power_of_two() && nsets > 0, "bad cache geometry");
        for set in &mut self.sets {
            set.clear();
        }
        self.sets.resize_with(nsets as usize, Vec::new);
        self.assoc = assoc;
        self.line_shift = line.trailing_zeros();
        self.set_mask = nsets - 1;
        self.tick = 0;
        self.hits = 0;
        self.misses = 0;
    }

    /// The line-aligned address containing `addr`.
    pub fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.line_shift) & self.set_mask) as usize
    }

    /// Look up `addr`; returns its state without changing LRU.
    pub fn peek(&self, addr: u64) -> Option<LineState> {
        let tag = addr >> self.line_shift;
        self.sets[self.set_of(addr)]
            .iter()
            .find(|l| l.tag == tag)
            .map(|l| l.state)
    }

    /// Look up `addr`, updating LRU and hit/miss counters.
    pub fn access(&mut self, addr: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        match self.sets[set].iter_mut().find(|l| l.tag == tag) {
            Some(l) => {
                l.lru = tick;
                self.hits += 1;
                Some(l.state)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Change the state of a present line (no-op when absent).
    pub fn set_state(&mut self, addr: u64, state: LineState) {
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        if let Some(l) = self.sets[set].iter_mut().find(|l| l.tag == tag) {
            l.state = state;
        }
    }

    /// Remove a line; returns its state if it was present.
    pub fn invalidate(&mut self, addr: u64) -> Option<LineState> {
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        let ways = &mut self.sets[set];
        ways.iter()
            .position(|l| l.tag == tag)
            .map(|pos| ways.remove(pos).state)
    }

    /// The state the LRU victim would have if a fill happened now (for
    /// writeback-penalty prediction).
    pub fn victim_state(&self, addr: u64) -> Option<LineState> {
        let set = &self.sets[self.set_of(addr)];
        if set.len() < self.assoc {
            return None;
        }
        set.iter().min_by_key(|l| l.lru).map(|l| l.state)
    }

    /// Insert `addr` with `state`, evicting LRU if needed. Returns the
    /// evicted `(line_address, state)` when a line was displaced.
    pub fn fill(&mut self, addr: u64, state: LineState) -> Option<(u64, LineState)> {
        self.tick += 1;
        let tick = self.tick;
        let tag = addr >> self.line_shift;
        let set = self.set_of(addr);
        let shift = self.line_shift;
        let assoc = self.assoc;
        let ways = &mut self.sets[set];
        if let Some(l) = ways.iter_mut().find(|l| l.tag == tag) {
            l.state = state;
            l.lru = tick;
            return None;
        }
        let mut evicted = None;
        if ways.len() >= assoc {
            let pos = ways
                .iter()
                .enumerate()
                .min_by_key(|(_, l)| l.lru)
                .map(|(i, _)| i)
                .expect("nonempty set");
            let v = ways.remove(pos);
            evicted = Some((v.tag << shift, v.state));
        }
        ways.push(Line {
            tag,
            state,
            lru: tick,
        });
        evicted
    }

    /// (hits, misses) counted by [`TagCache::access`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Credit `n` repeat hits without touching LRU state. Used by the
    /// fast-forward engine to replay a blocked core's per-cycle refetch
    /// of its current instruction: the last real [`TagCache::access`]
    /// already made that line MRU, so `n` further touches would not
    /// change the eviction order, only this counter.
    pub fn credit_hits(&mut self, n: u64) {
        self.hits += n;
    }

    /// Credit `n` repeat misses. A lookup that misses changes no line,
    /// and skipping its step of the LRU clock lowers every later stamp
    /// alike, so only this counter moves.
    pub fn credit_misses(&mut self, n: u64) {
        self.misses += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_after_fill() {
        let mut c = TagCache::new(4096, 2, 32);
        assert_eq!(c.access(0x100), None);
        c.fill(0x100, LineState::S);
        assert_eq!(c.access(0x100), Some(LineState::S));
        assert_eq!(c.access(0x11f), Some(LineState::S)); // same line
        assert_eq!(c.access(0x120), None); // next line
        assert_eq!(c.stats(), (2, 2));
    }

    #[test]
    fn lru_eviction_returns_victim() {
        let mut c = TagCache::new(64, 2, 32); // one set, two ways
        c.fill(0, LineState::M);
        c.fill(32, LineState::S);
        assert_eq!(c.victim_state(64), Some(LineState::M));
        let ev = c.fill(64, LineState::E);
        assert_eq!(ev, Some((0, LineState::M)));
        assert_eq!(c.peek(0), None);
        assert_eq!(c.peek(32), Some(LineState::S));
    }

    #[test]
    fn access_refreshes_lru() {
        let mut c = TagCache::new(64, 2, 32);
        c.fill(0, LineState::S);
        c.fill(32, LineState::S);
        c.access(0); // 0 becomes MRU; 32 is the victim now
        let ev = c.fill(64, LineState::S);
        assert_eq!(ev, Some((32, LineState::S)));
    }

    #[test]
    fn state_transitions() {
        let mut c = TagCache::new(4096, 2, 32);
        c.fill(0x40, LineState::E);
        c.set_state(0x40, LineState::M);
        assert_eq!(c.peek(0x40), Some(LineState::M));
        assert!(LineState::M.is_dirty() && LineState::M.is_writable());
        assert!(LineState::O.is_dirty() && !LineState::O.is_writable());
        assert_eq!(c.invalidate(0x40), Some(LineState::M));
        assert_eq!(c.invalidate(0x40), None);
    }

    #[test]
    fn line_of_masks_low_bits() {
        let c = TagCache::new(4096, 2, 32);
        assert_eq!(c.line_of(0x123), 0x120);
    }
}
