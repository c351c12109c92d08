//! Profiling interpreter.
//!
//! The Voltron compiler is profile-driven in three places (paper §4):
//!
//! 1. **Statistical DOALL detection** needs, per loop, whether any
//!    cross-iteration memory dependence was *observed* during profiling.
//! 2. **eBUG** needs per-load cache-miss likelihood to weight
//!    load→consumer edges.
//! 3. **Parallelism selection** needs block execution counts and loop trip
//!    counts to focus on hot regions and skip short loops.
//!
//! This module runs the reference interpreter with an observer that
//! collects all three. The observer's state is flat — counters indexed by
//! block and instruction, loop membership as a table, one stack of open
//! loop invocations shared by every frame — and becomes the sparse
//! [`Profile`] only once, at the end.
//!
//! # The dependence test
//!
//! Every open invocation, at stack depth `d`, owns shadow plane `d`: one
//! cell per data-segment byte, indexed by `addr − DataSegment::BASE`,
//! holding the *stamp* of the last write and of the last read. A stamp is
//! drawn from one counter at every loop-header entry, so each invocation
//! has an `opened` stamp, each of its iterations a `current` one, and
//! within a plane stamps only grow. A cell counts as touched in this
//! invocation iff its stamp is at least `opened` — whatever an earlier
//! invocation at the same depth left behind is smaller, so opening a loop
//! clears nothing — and as touched in an *earlier iteration* iff it is
//! also not `current`. A load after an earlier iteration's store, or a
//! store after an earlier iteration's load or store, latches the loop's
//! `cross_iter_dep`; the invocation then stops tracking, and so does every
//! later invocation of that loop (the verdict is an OR).
//!
//! Accesses made inside a callee are tested against the caller's open
//! loops too: the stack of open invocations spans all frames.
//!
//! # Widths and memory
//!
//! Stamps are `u32`, a cell is 8 bytes. The step budget is a caller's
//! `u64`, so the counter can reach `u32::MAX`; when it does,
//! `Profiler::renumber` rewrites every plane to the three values the
//! test distinguishes (0 never, 1 earlier iteration, 2 current) and
//! restarts the counter at 2. No stamp is ever reused for two iterations
//! or two invocations, for any fuel. Iteration and invocation *counts* are
//! `u64` and bounded by the steps executed. Planes are allocated zeroed
//! the first time a tracked loop opens at their depth: memory is at most
//! (deepest dynamic loop nest) × (data-segment bytes) × 8 B — 0.98 MB per
//! depth for the largest Full-scale workload's 122 KB — and pages no
//! access lands on are never touched. An access that is not wholly inside
//! the segment indexes no plane; the interpreter faults on it immediately
//! afterwards.

use crate::cfg::{Cfg, Dominators};
use crate::inst::InstRef;
use crate::interp::{self, InterpError, Observer};
use crate::loops::{LoopForest, LoopId};
use crate::program::{BlockId, DataSegment, FuncId, Program};
use std::collections::HashMap;

/// Per-loop profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopProfile {
    /// How many times the loop was entered.
    pub invocations: u64,
    /// Total iterations across all invocations.
    pub total_iters: u64,
    /// True if any cross-iteration memory dependence (RAW/WAR/WAW at byte
    /// granularity) was observed in any invocation.
    pub cross_iter_dep: bool,
}

impl LoopProfile {
    /// Average trip count (0 if never invoked).
    pub fn avg_trip(&self) -> f64 {
        if self.invocations == 0 {
            0.0
        } else {
            self.total_iters as f64 / self.invocations as f64
        }
    }
}

/// Per-static-load profile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadProfile {
    /// Dynamic executions of this load.
    pub accesses: u64,
    /// How many missed in the profiling L1D model.
    pub misses: u64,
}

impl LoadProfile {
    /// Miss ratio in `[0, 1]` (0 if never executed).
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The collected profile of one program run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    /// Dynamic entries per block.
    pub block_counts: HashMap<(FuncId, BlockId), u64>,
    /// Per-loop statistics.
    pub loops: HashMap<(FuncId, LoopId), LoopProfile>,
    /// Per-load cache behavior.
    pub loads: HashMap<InstRef, LoadProfile>,
    /// Total interpreted instructions.
    pub steps: u64,
}

impl Profile {
    /// Block count lookup (0 when never executed).
    pub fn block_count(&self, f: FuncId, b: BlockId) -> u64 {
        self.block_counts.get(&(f, b)).copied().unwrap_or(0)
    }

    /// Loop profile lookup.
    pub fn loop_profile(&self, f: FuncId, l: LoopId) -> LoopProfile {
        self.loops.get(&(f, l)).copied().unwrap_or_default()
    }

    /// Load profile lookup.
    pub fn load_profile(&self, at: InstRef) -> LoadProfile {
        self.loads.get(&at).copied().unwrap_or_default()
    }
}

/// A small functional set-associative LRU cache used only for miss-rate
/// profiling (matching the paper's 4 KB, 2-way, 32 B-line L1D).
#[derive(Debug, Clone)]
pub struct FunctionalCache {
    /// `nsets × assoc` line numbers; each set's ways in LRU order
    /// (first = MRU), [`FunctionalCache::EMPTY`] where nothing is cached.
    tags: Vec<u64>,
    assoc: usize,
    line_shift: u32,
    set_mask: u64,
}

impl FunctionalCache {
    /// No line number equals this: lines are at least two bytes.
    const EMPTY: u64 = u64::MAX;

    /// Create a cache of `size` bytes, `assoc` ways, `line` bytes per line.
    ///
    /// # Panics
    /// Panics unless size/assoc/line are powers of two that divide evenly
    /// and a line holds at least two bytes.
    pub fn new(size: u64, assoc: usize, line: u64) -> FunctionalCache {
        assert!(line.is_power_of_two() && line >= 2 && size.is_power_of_two());
        assert!(assoc > 0);
        let nsets = size / line / assoc as u64;
        assert!(nsets.is_power_of_two() && nsets > 0);
        FunctionalCache {
            tags: vec![FunctionalCache::EMPTY; nsets as usize * assoc],
            assoc,
            line_shift: line.trailing_zeros(),
            set_mask: nsets - 1,
        }
    }

    /// The paper's L1D configuration.
    fn paper_l1d() -> FunctionalCache {
        FunctionalCache::new(4096, 2, 32)
    }

    /// Touch an address; returns true on hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr >> self.line_shift;
        let first = (line & self.set_mask) as usize * self.assoc;
        let ways = &mut self.tags[first..first + self.assoc];
        match ways.iter().position(|t| *t == line) {
            Some(pos) => {
                ways[..=pos].rotate_right(1);
                true
            }
            None => {
                ways.rotate_right(1);
                ways[0] = line;
                false
            }
        }
    }
}

/// Last-writer and last-reader stamp of one data byte in one plane; zero
/// is "never", and so is every value below the reading loop's `opened`.
type Cell = [u32; 2];

/// One loop invocation in progress.
#[derive(Debug)]
struct OpenLoop {
    /// Index into [`Profiler::loop_stats`].
    stat: usize,
    /// Iterations started after the first.
    iter: u64,
    /// Stamp drawn when the invocation opened.
    opened: u32,
    /// Stamp drawn when the current iteration started.
    current: u32,
    /// False once this invocation's verdict cannot change the profile:
    /// a dependence was found, now or in an earlier invocation.
    tracking: bool,
}

/// The profiling observer. All state is dense and indexed; see the module
/// docs for the dependence test and DESIGN.md §15 for why it equals the
/// map-per-invocation formulation it replaced.
struct Profiler {
    /// First flat block index of each function (plus the total).
    block_base: Vec<usize>,
    /// Dynamic entries per flat block.
    block_counts: Vec<u64>,
    /// First instruction slot of each flat block.
    inst_base: Vec<usize>,
    /// Load profile per instruction slot (zero for non-loads).
    load_stats: Vec<LoadProfile>,
    /// The loop each flat block heads, if any.
    header_of: Vec<Option<LoopId>>,
    /// First index into `loop_stats` of each function's loops (plus the
    /// total).
    loop_base: Vec<usize>,
    loop_stats: Vec<LoopProfile>,
    /// Start of each loop's row in `member`, by `loop_stats` index.
    member_base: Vec<usize>,
    /// Rows of `blocks(function)` flags: whether the loop contains the block.
    member: Vec<bool>,
    /// Open invocations of every live frame, outermost first.
    open: Vec<OpenLoop>,
    /// `open.len()` at each live frame's entry, outermost frame first.
    frames: Vec<usize>,
    /// `planes[d]` shadows the data segment for `open[d]`.
    planes: Vec<Vec<Cell>>,
    /// The last stamp handed out.
    stamp: u32,
    data_len: u64,
    cache: FunctionalCache,
}

impl Profiler {
    fn new(program: &Program) -> Profiler {
        let mut p = Profiler {
            block_base: Vec::with_capacity(program.funcs.len() + 1),
            block_counts: Vec::new(),
            inst_base: Vec::new(),
            load_stats: Vec::new(),
            header_of: Vec::new(),
            loop_base: Vec::with_capacity(program.funcs.len() + 1),
            loop_stats: Vec::new(),
            member_base: Vec::new(),
            member: Vec::new(),
            open: Vec::new(),
            frames: Vec::new(),
            planes: Vec::new(),
            stamp: 0,
            data_len: program.data.bytes.len() as u64,
            cache: FunctionalCache::paper_l1d(),
        };
        let mut insts = 0;
        for (f, forest) in program.funcs.iter().zip(loop_forests(program)) {
            p.block_base.push(p.header_of.len());
            p.loop_base.push(p.member_base.len());
            for (b, block) in f.blocks.iter().enumerate() {
                p.inst_base.push(insts);
                insts += block.insts.len();
                let b = BlockId(b as u32);
                p.header_of.push(
                    forest
                        .innermost_of(b)
                        .filter(|l| forest.get(*l).header == b),
                );
            }
            for l in &forest.loops {
                p.member_base.push(p.member.len());
                p.member
                    .extend((0..f.blocks.len()).map(|b| l.blocks.contains(&BlockId(b as u32))));
            }
        }
        p.block_base.push(p.header_of.len());
        p.loop_base.push(p.member_base.len());
        p.block_counts = vec![0; p.header_of.len()];
        p.load_stats = vec![LoadProfile::default(); insts];
        p.loop_stats = vec![LoopProfile::default(); p.member_base.len()];
        p
    }

    /// A stamp greater than every stamp stored in any plane.
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.renumber();
        }
        self.stamp += 1;
        self.stamp
    }

    /// Make room for more stamps without changing any verdict. The test
    /// only asks of a cell whether it was stamped in this invocation and
    /// whether in the current iteration, so each tracked plane keeps
    /// exactly that (1 = earlier iteration, 2 = current one) and
    /// everything stale becomes 0.
    fn renumber(&mut self) {
        for (d, plane) in self.planes.iter_mut().enumerate() {
            match self.open.get_mut(d) {
                Some(o) if o.tracking => {
                    for c in plane.iter_mut().flatten() {
                        *c = match *c {
                            s if s < o.opened => 0,
                            s if s == o.current => 2,
                            _ => 1,
                        };
                    }
                }
                _ => plane.fill([0, 0]),
            }
        }
        for o in &mut self.open {
            (o.opened, o.current) = (1, 2);
        }
        self.stamp = 2;
    }

    /// Close the innermost open invocation and charge it to its loop.
    fn close_top(&mut self) {
        let o = self.open.pop().expect("an open loop");
        let stat = &mut self.loop_stats[o.stat];
        stat.invocations += 1;
        stat.total_iters += o.iter + 1;
    }

    fn close_down_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close_top();
        }
    }

    /// Test one access against every open invocation — the current
    /// frame's and its callers' alike — and stamp it.
    fn record_access(&mut self, addr: u64, bytes: u64, is_store: bool) {
        // An access outside the segment touches no plane; the interpreter
        // faults on it right after this hook returns.
        let off = addr.wrapping_sub(DataSegment::BASE);
        if off >= self.data_len || bytes > self.data_len - off {
            return;
        }
        let range = off as usize..(off + bytes) as usize;
        for (o, plane) in self.open.iter_mut().zip(&mut self.planes) {
            if !o.tracking {
                continue;
            }
            let earlier = |s: u32| s >= o.opened && s != o.current;
            for cell in &mut plane[range.clone()] {
                let [w, r] = *cell;
                if earlier(w) || (is_store && earlier(r)) {
                    o.tracking = false;
                    self.loop_stats[o.stat].cross_iter_dep = true;
                    break;
                }
                cell[usize::from(!is_store)] = o.current;
            }
        }
    }

    fn run(mut self, program: &Program, fuel: u64) -> Result<Profile, InterpError> {
        let outcome = interp::run_observed(program, fuel, &mut self)?;
        // Main halts without returning: close what is still open.
        self.close_down_to(0);
        Ok(self.into_profile(program, outcome.steps))
    }

    /// The collected counters as the public, sparse [`Profile`].
    fn into_profile(self, program: &Program, steps: u64) -> Profile {
        let mut profile = Profile {
            steps,
            ..Profile::default()
        };
        for (fi, f) in program.funcs.iter().enumerate() {
            let func = FuncId(fi as u32);
            for (bi, block) in f.blocks.iter().enumerate() {
                let flat = self.block_base[fi] + bi;
                let block_id = BlockId(bi as u32);
                if self.block_counts[flat] > 0 {
                    profile
                        .block_counts
                        .insert((func, block_id), self.block_counts[flat]);
                }
                for index in 0..block.insts.len() {
                    let lp = self.load_stats[self.inst_base[flat] + index];
                    if lp.accesses > 0 {
                        let at = InstRef {
                            func,
                            block: block_id,
                            index,
                        };
                        profile.loads.insert(at, lp);
                    }
                }
            }
            let loops = self.loop_base[fi]..self.loop_base[fi + 1];
            for (li, stat) in self.loop_stats[loops].iter().enumerate() {
                if stat.invocations > 0 {
                    profile.loops.insert((func, LoopId(li as u32)), *stat);
                }
            }
        }
        profile
    }
}

impl Observer for Profiler {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        let flat = self.block_base[func.idx()] + block.idx();
        self.block_counts[flat] += 1;
        let frame = *self.frames.last().expect("frame exists");
        // Close this frame's loops that no longer contain the block.
        while self.open.len() > frame {
            let top = self.open.last().expect("non-empty");
            if self.member[self.member_base[top.stat] + block.idx()] {
                break;
            }
            self.close_top();
        }
        // Entering a header either advances or opens an invocation.
        let Some(lid) = self.header_of[flat] else {
            return;
        };
        let stat = self.loop_base[func.idx()] + lid.idx();
        let stamp = self.next_stamp();
        match self.open[frame..].last_mut() {
            Some(top) if top.stat == stat => {
                top.iter += 1;
                top.current = stamp;
            }
            _ => {
                let tracking = !self.loop_stats[stat].cross_iter_dep;
                // Zeroed pages cost nothing until a tracked access lands.
                while tracking && self.planes.len() <= self.open.len() {
                    self.planes.push(vec![[0, 0]; self.data_len as usize]);
                }
                self.open.push(OpenLoop {
                    stat,
                    iter: 0,
                    opened: stamp,
                    current: stamp,
                    tracking,
                });
            }
        }
    }

    fn on_load(&mut self, at: InstRef, addr: u64, bytes: u64) {
        let hit = self.cache.access(addr);
        let flat = self.block_base[at.func.idx()] + at.block.idx();
        let lp = &mut self.load_stats[self.inst_base[flat] + at.index];
        lp.accesses += 1;
        lp.misses += u64::from(!hit);
        self.record_access(addr, bytes, false);
    }

    fn on_store(&mut self, _at: InstRef, addr: u64, bytes: u64) {
        self.cache.access(addr);
        self.record_access(addr, bytes, true);
    }

    fn on_call(&mut self, _func: FuncId) {
        self.frames.push(self.open.len());
    }

    fn on_ret(&mut self, _func: FuncId) {
        let frame = self.frames.pop().expect("frame exists");
        self.close_down_to(frame);
    }
}

/// Loop forests for every function of a program (computed once, shared by
/// the profiler and the compiler).
pub fn loop_forests(program: &Program) -> Vec<LoopForest> {
    program
        .funcs
        .iter()
        .map(|f| {
            let cfg = Cfg::build(f);
            let dom = Dominators::compute(&cfg);
            LoopForest::build(&cfg, &dom)
        })
        .collect()
}

/// Profile a program by interpreting it.
///
/// # Errors
/// Propagates interpreter failures.
pub fn profile(program: &Program, fuel: u64) -> Result<Profile, InterpError> {
    Profiler::new(program).run(program, fuel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::RegClass;

    /// A DOALL-style loop: a[i] = i (independent iterations).
    fn doall_program() -> (Program, u64) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            f.store8(addr, 0, iv);
        });
        f.halt();
        pb.finish_function(f);
        (pb.finish(), a)
    }

    /// A recurrence: a[i] = a[i-1] + 1 (cross-iteration RAW).
    fn recurrence_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(1i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            let prev = f.load8(addr, -8);
            let v = f.add(prev, 1i64);
            f.store8(addr, 0, v);
        });
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    #[test]
    fn doall_loop_has_no_cross_dep() {
        let (p, _) = doall_program();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(p.main, LoopId(0));
        assert_eq!(lp.invocations, 1);
        assert_eq!(lp.total_iters, 65); // 64 body iterations + exit test
        assert!(!lp.cross_iter_dep);
    }

    #[test]
    fn recurrence_has_cross_dep() {
        let p = recurrence_program();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(p.main, LoopId(0));
        assert!(lp.cross_iter_dep);
    }

    /// `for i in 1..64 { f(i) }` where `f(i)` does `a[i] = a[i-1] + 1`:
    /// the recurrence runs in a callee, under the caller's open loop.
    #[test]
    fn accesses_in_a_callee_are_charged_to_the_callers_loops() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut g = pb.function("f");
        let i = g.param(RegClass::Gpr);
        let base = g.ldi(a as i64);
        let off = g.shl(i, 3i64);
        let addr = g.add(base, off);
        let prev = g.load8(addr, -8);
        let v = g.add(prev, 1i64);
        g.store8(addr, 0, v);
        g.ret();
        let gid = pb.finish_function(g);
        let mut f = pb.function("main");
        f.counted_loop(1i64, 64i64, 1, |f, iv| {
            f.call(gid, &[iv], None);
        });
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(p.main, LoopId(0));
        assert_eq!((lp.invocations, lp.total_iters), (1, 64));
        assert!(lp.cross_iter_dep);
    }

    /// `f(n)`: `for i in 0..3 { a[3n+i] = i; if n == 0 && i == 1 { f(1);
    /// load a[3] } }`. The loop is open in two frames at once. Neither
    /// invocation carries a dependence — the outer one reads `a[3]` in
    /// the iteration its callee wrote it — but stamps of the inner
    /// invocation read as the outer one's would look like an earlier
    /// iteration.
    #[test]
    fn a_loop_open_in_two_frames_keeps_separate_shadow_state() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 6);
        let fid = pb.next_func_id();
        let mut g = pb.function("f");
        let n = g.param(RegClass::Gpr);
        let base = g.ldi(a as i64);
        let first = g.mul(n, 24i64);
        let mine = g.add(base, first);
        g.counted_loop(0i64, 3i64, 1, |g, i| {
            let off = g.shl(i, 3i64);
            let addr = g.add(mine, off);
            g.store8(addr, 0, i);
            let tens = g.mul(n, 10i64);
            let both = g.add(tens, i);
            let p = g.cmp(crate::CmpCc::Eq, both, 1i64);
            g.if_then(p, |g| {
                let one = g.ldi(1);
                g.call(fid, &[one], None);
                g.load8(base, 24);
            });
        });
        g.ret();
        assert_eq!(pb.finish_function(g), fid);
        let mut f = pb.function("main");
        let zero = f.ldi(0);
        f.call(fid, &[zero], None);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let prof = profile(&p, 1_000_000).unwrap();
        let lp = prof.loop_profile(fid, LoopId(0));
        assert_eq!((lp.invocations, lp.total_iters), (2, 8));
        assert!(!lp.cross_iter_dep);
    }

    /// `for i in 0..3 { for j in 0..4 { a[x] += 1 } }` with `x` either
    /// loop's counter. By `j`, the re-entered inner loop carries nothing
    /// over its stale cells and the outer one rewrites every slot; by
    /// `i`, the outer loop carries nothing although one of its iterations
    /// touches its slot in every inner iteration.
    fn nest(by_outer: bool) -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 4);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 3i64, 1, |f, i| {
            f.counted_loop(0i64, 4i64, 1, |f, j| {
                let off = f.shl(if by_outer { i } else { j }, 3i64);
                let addr = f.add(base, off);
                let v = f.load8(addr, 0);
                let w = f.add(v, 1i64);
                f.store8(addr, 0, w);
            });
        });
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    /// `for i in 0..6 { a[i] = i; if i == 5 { load a[0] } }`: the one
    /// dependence spans the whole invocation.
    fn late_dependence() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 6);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 6i64, 1, |f, i| {
            let off = f.shl(i, 3i64);
            let addr = f.add(base, off);
            f.store8(addr, 0, i);
            let last = f.cmp(crate::CmpCc::Eq, i, 5i64);
            f.if_then(last, |f| {
                f.load8(base, 0);
            });
        });
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    /// Wherever in a run the stamp counter reaches `u32::MAX`, the
    /// renumbering changes no verdict.
    #[test]
    fn stamp_renumbering_changes_no_verdict() {
        let verdicts = |p: &Program| {
            let prof = profile(p, 1_000_000).unwrap();
            [0, 1].map(|l| prof.loop_profile(p.main, LoopId(l)).cross_iter_dep)
        };
        assert_eq!(verdicts(&nest(false)), [true, false]);
        assert_eq!(verdicts(&nest(true)), [false, true]);
        assert_eq!(verdicts(&late_dependence()), [true, false]);
        for p in [
            nest(false),
            nest(true),
            late_dependence(),
            doall_program().0,
        ] {
            let want = profile(&p, 1_000_000).unwrap();
            let headers: u64 = want.loops.values().map(|l| l.total_iters).sum();
            for back in 0..=headers as u32 {
                let mut profiler = Profiler::new(&p);
                profiler.stamp = u32::MAX - back;
                let got = profiler.run(&p, 1_000_000).unwrap();
                assert_eq!(got, want, "counter started {back} below the limit");
            }
        }
    }

    /// An access that leaves the segment faults in the interpreter; the
    /// shadow planes are never indexed with it.
    #[test]
    fn out_of_segment_accesses_fault_without_touching_a_plane() {
        for (off, store) in [(8 * 4 - 4, false), (8 * 4, true), (-(1i64 << 40), false)] {
            let mut pb = ProgramBuilder::new("t");
            let a = pb.data_mut().zeroed("a", 8 * 4);
            let mut f = pb.function("main");
            let base = f.ldi(a as i64);
            f.counted_loop(0i64, 2i64, 1, |f, iv| {
                f.store8(base, 0, iv);
                if store {
                    f.store8(base, off, iv);
                } else {
                    f.load8(base, off);
                }
            });
            f.halt();
            pb.finish_function(f);
            let err = profile(&pb.finish(), 1_000).unwrap_err();
            assert!(matches!(err, InterpError::Mem(_)), "{off}: {err}");
        }
    }

    #[test]
    fn load_misses_are_counted() {
        // Stream through 32 KB so the 4 KB cache must miss repeatedly.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 32 * 1024);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        let acc = f.ldi(0);
        f.counted_loop(0i64, 4096i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            let v = f.load8(addr, 0);
            let s = f.add(acc, v);
            f.mov_to(acc, s);
        });
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let prof = profile(&p, 10_000_000).unwrap();
        let total_misses: u64 = prof.loads.values().map(|l| l.misses).sum();
        // 4096 loads * 8B = 32 KB streamed with 32B lines: 1024 misses.
        assert!(total_misses >= 1000, "got {total_misses}");
    }

    #[test]
    fn functional_cache_lru() {
        let mut c = FunctionalCache::new(64, 2, 16); // 2 sets, 2 ways
        assert!(!c.access(0)); // set 0
        assert!(!c.access(32)); // set 0
        assert!(c.access(0)); // hit, now MRU
        assert!(!c.access(64)); // set 0 -> evicts 32
        assert!(c.access(0));
        assert!(!c.access(32));
    }

    #[test]
    fn block_counts_accumulate() {
        let (p, _) = doall_program();
        let prof = profile(&p, 1_000_000).unwrap();
        // Header executes 65 times (64 iterations + final test).
        let max = prof.block_counts.values().max().copied().unwrap_or(0);
        assert!(max >= 64);
    }
}
