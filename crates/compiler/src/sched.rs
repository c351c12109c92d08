//! The coupled-mode joint scheduler.
//!
//! Coupled regions behave as one multicluster VLIW: all cores issue in
//! lock-step, one operation per core per cycle, and the slot index within
//! a block *is* the cycle. The scheduler therefore solves one list-
//! scheduling problem across all cores at once:
//!
//! * intra-core dependences come from each core's operation list
//!   (data/anti/output/memory/control, via [`BlockDfg`]);
//! * cross-core constraints are the `PUT -> GET` / `BCAST -> GETB` pairs
//!   and link-latch serialization produced by [`crate::comm`], plus
//!   memory-ordering edges between may-aliasing operations on different
//!   cores (the paper: "dependent memory operations execute in subsequent
//!   cycles");
//! * all `BR`s are pinned to one aligned cycle (and a trailing `JUMP` to
//!   the next), and every core's slot vector is padded with NOPs to the
//!   same block length.
//!
//! Getting `GET` after `PUT` is not just a performance matter: in
//! lock-step a premature `GET` stalls the whole group including the core
//! that still owes the `PUT` — a deadlock. The pair edges make that
//! impossible by construction.

use crate::alias::AliasAnalysis;
use crate::comm::{CoreOp, LoweredBlock, PairEdge};
use crate::dfg::BlockDfg;
use voltron_ir::{Block, Inst, Opcode};

/// The schedule of one block: equal-length slot vectors per core.
#[derive(Debug, Clone)]
pub struct BlockSchedule {
    /// `slots[core][cycle]` — the instruction issued by `core` at the
    /// block-relative cycle (NOP where idle).
    pub slots: Vec<Vec<Inst>>,
}

impl BlockSchedule {
    /// Block schedule length in cycles.
    pub fn len(&self) -> usize {
        self.slots.first().map(Vec::len).unwrap_or(0)
    }

    /// True when no core issues anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Schedule one lowered block for coupled execution.
///
/// `alias` drives the cross-core memory-ordering edges (ops carry their
/// original block index in [`CoreOp::orig`]).
pub fn schedule_coupled(lowered: &LoweredBlock, alias: &AliasAnalysis) -> BlockSchedule {
    let ncores = lowered.per_core.len();
    // Flat node ids: (core, idx) -> node.
    let base: Vec<usize> = {
        let mut b = Vec::with_capacity(ncores);
        let mut acc = 0;
        for ops in &lowered.per_core {
            b.push(acc);
            acc += ops.len();
        }
        b
    };
    let total: usize = lowered.per_core.iter().map(Vec::len).sum();
    let node = |core: usize, idx: usize| base[core] + idx;
    let mut core_of = vec![0usize; total];
    let mut inst_of: Vec<&CoreOp> = Vec::with_capacity(total);
    for (c, ops) in lowered.per_core.iter().enumerate() {
        for op in ops {
            core_of[inst_of.len()] = c;
            inst_of.push(op);
        }
    }

    // Edges: (from, to, latency).
    let mut edges: Vec<(usize, usize, u32)> = Vec::new();
    // Intra-core edges via a per-core BlockDfg over the op list.
    for (c, ops) in lowered.per_core.iter().enumerate() {
        let pseudo = Block {
            insts: ops.iter().map(|o| o.inst.clone()).collect(),
        };
        let dfg = BlockDfg::build(&pseudo, alias);
        for (i, es) in dfg.succs.iter().enumerate() {
            for e in es {
                edges.push((node(c, i), node(c, e.to), e.latency));
            }
        }
    }
    // Cross-core pair edges from communication lowering.
    for &PairEdge { from, to, latency } in &lowered.pair_edges {
        edges.push((node(from.0, from.1), node(to.0, to.1), latency));
    }
    // Cross-core memory ordering: original program order between
    // may-aliasing accesses on different cores.
    let mems: Vec<usize> = (0..total)
        .filter(|&n| inst_of[n].inst.op.is_mem() && inst_of[n].orig.is_some())
        .collect();
    for (ai, &a) in mems.iter().enumerate() {
        for &b in &mems[ai + 1..] {
            if core_of[a] == core_of[b] {
                continue; // intra-core handled above
            }
            let (x, y) = (&inst_of[a].inst, &inst_of[b].inst);
            if (x.op.is_store() || y.op.is_store()) && alias.may_alias(x, y) {
                let (first, second) = if inst_of[a].orig < inst_of[b].orig {
                    (a, b)
                } else {
                    (b, a)
                };
                edges.push((first, second, 1));
            }
        }
    }

    // Longest-path priorities (the graph is a DAG; node ids are not
    // topological across cores, so relax iteratively).
    let mut succs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); total];
    let mut indeg = vec![0usize; total];
    for &(f, t, l) in &edges {
        succs[f].push((t, l));
        indeg[t] += 1;
    }
    // Kahn topological order.
    let mut topo: Vec<usize> = Vec::with_capacity(total);
    let mut queue: Vec<usize> = (0..total).filter(|&n| indeg[n] == 0).collect();
    let mut indeg2 = indeg.clone();
    while let Some(n) = queue.pop() {
        topo.push(n);
        for &(t, _) in &succs[n] {
            indeg2[t] -= 1;
            if indeg2[t] == 0 {
                queue.push(t);
            }
        }
    }
    debug_assert_eq!(topo.len(), total, "cyclic block dependence graph");
    let mut priority = vec![0u32; total];
    for &n in topo.iter().rev() {
        let mut p = inst_of[n].inst.op.latency();
        for &(t, l) in &succs[n] {
            p = p.max(l + priority[t]);
        }
        priority[n] = p;
    }

    // List scheduling. Branches are deferred and aligned afterwards.
    let is_branch = |n: usize| matches!(inst_of[n].inst.op, Opcode::Br | Opcode::Jump);
    let mut time: Vec<Option<u64>> = vec![None; total];
    let mut remaining = total;
    let mut preds: Vec<Vec<(usize, u32)>> = vec![Vec::new(); total];
    for &(f, t, l) in &edges {
        preds[t].push((f, l));
    }
    // Pre-place nothing; iterate cycles.
    let mut cycle: u64 = 0;
    let branch_count = (0..total).filter(|&n| is_branch(n)).count();
    while remaining > branch_count {
        for c in 0..ncores {
            // Highest-priority ready op on core c this cycle.
            let mut best: Option<(u32, usize)> = None;
            for idx in 0..lowered.per_core[c].len() {
                let n = node(c, idx);
                if time[n].is_some() || is_branch(n) {
                    continue;
                }
                let ready = preds[n].iter().all(|&(p, l)| {
                    if is_branch(p) {
                        return false; // branches come last; nothing follows
                    }
                    time[p]
                        .map(|tp| tp + u64::from(l) <= cycle)
                        .unwrap_or(false)
                });
                if ready {
                    let pr = priority[n];
                    if best.map(|(bp, bn)| (pr, n) > (bp, bn)).unwrap_or(true) {
                        best = Some((pr, n));
                    }
                }
            }
            if let Some((_, n)) = best {
                time[n] = Some(cycle);
                remaining -= 1;
            }
        }
        cycle += 1;
        debug_assert!(cycle < 1_000_000, "scheduler failed to converge");
    }

    // Align branches: all BRs at one cycle, trailing JUMPs one later.
    let mut br_cycle: u64 = cycle; // at least after every scheduled op
    #[allow(clippy::needless_range_loop)]
    for n in 0..total {
        if !is_branch(n) {
            continue;
        }
        for &(p, l) in &preds[n] {
            if let Some(tp) = time[p] {
                br_cycle = br_cycle.max(tp + u64::from(l));
            }
        }
    }
    let mut have_br = false;
    let mut have_jump = false;
    for n in 0..total {
        match inst_of[n].inst.op {
            Opcode::Br => {
                time[n] = Some(br_cycle);
                have_br = true;
            }
            Opcode::Jump => {
                have_jump = true;
            }
            _ => {}
        }
    }
    let jump_cycle = if have_br { br_cycle + 1 } else { br_cycle };
    for n in 0..total {
        if inst_of[n].inst.op == Opcode::Jump {
            time[n] = Some(jump_cycle);
        }
    }
    let len = if have_jump {
        jump_cycle + 1
    } else if have_br {
        br_cycle + 1
    } else {
        // Longest occupied cycle + 1 (or 0 for an empty block).
        time.iter()
            .flatten()
            .copied()
            .max()
            .map(|t| t + 1)
            .unwrap_or(0)
    };

    let mut slots: Vec<Vec<Inst>> = vec![vec![Inst::nop(); len as usize]; ncores];
    for n in 0..total {
        let t = time[n].expect("all ops scheduled") as usize;
        let c = core_of[n];
        debug_assert_eq!(
            slots[c][t].op,
            Opcode::Nop,
            "slot collision at core {c} cycle {t}"
        );
        slots[c][t] = inst_of[n].inst.clone();
    }
    BlockSchedule { slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{FreshRegs, RegionLowerer, TagAlloc};
    use crate::partition::{bug_partition, PartitionParams};
    use crate::FrontEnd;
    use std::collections::HashMap;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::{BlockId, ExecMode, Program};
    use voltron_sim::MachineConfig;

    fn build_two_chain() -> Program {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[1; 8]);
        let b = pb.data_mut().array_i64("b", &[2; 8]);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let x = fb.load8(ba, 0);
        let y = fb.load8(bb, 0);
        let s = fb.add(x, y);
        fb.store8(ba, 8, s);
        let done = fb.label();
        fb.jump(done);
        fb.bind(done);
        fb.halt();
        pb.finish_function(fb);
        pb.finish()
    }

    fn schedule_block(p: &Program, cores: usize) -> BlockSchedule {
        let f = p.main_func();
        let fe = FrontEnd::of_flat(p);
        let inp = fe.inputs();
        let asg = bug_partition(
            &inp,
            &[BlockId(0)],
            &PartitionParams::bug(cores),
            &HashMap::new(),
        );
        let cfg = MachineConfig::paper(cores);
        let mut fresh = FreshRegs::for_function(f);
        let mut tags = TagAlloc::default();
        let mut lw = RegionLowerer::new(f, &asg, &cfg, ExecMode::Coupled, &mut fresh, &mut tags);
        let lb = lw.lower_block(BlockId(0));
        schedule_coupled(&lb, inp.alias)
    }

    /// Validate the fundamental invariants on any schedule: equal length
    /// per core; every PUT strictly precedes its GET.
    fn check_invariants(s: &BlockSchedule) {
        let len = s.len();
        for core in &s.slots {
            assert_eq!(core.len(), len);
        }
        // For each link direction, interleaved PUT/GET ordering: walk
        // cycles; a GET at cycle t requires a PUT at cycle < t.
        for c in 0..s.slots.len() {
            for t in 0..len {
                if s.slots[c][t].op == Opcode::Get {
                    // find some PUT before t anywhere
                    let any_put_before = (0..s.slots.len())
                        .any(|c2| (0..t).any(|t2| s.slots[c2][t2].op == Opcode::Put));
                    assert!(
                        any_put_before,
                        "GET at cycle {t} core {c} with no earlier PUT"
                    );
                }
            }
        }
    }

    #[test]
    fn schedules_are_aligned_and_put_precedes_get() {
        let p = build_two_chain();
        let s = schedule_block(&p, 2);
        check_invariants(&s);
        assert!(s.len() >= 4, "chain needs several cycles, got {}", s.len());
    }

    #[test]
    fn single_core_schedule_degenerates() {
        let p = build_two_chain();
        let s = schedule_block(&p, 1);
        check_invariants(&s);
        // All 6 original ops plus the lowered PBR + JUMP terminator pair.
        let useful = s.slots[0].iter().filter(|i| i.op != Opcode::Nop).count();
        assert_eq!(useful, 8);
    }

    #[test]
    fn branches_align_across_cores() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut fb = pb.function("main");
        let a = fb.ldi(5);
        let exit = fb.label();
        let p0 = fb.cmp(voltron_ir::CmpCc::Lt, a, 10i64);
        fb.br_if(p0, exit);
        fb.bind(exit);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let s = schedule_block(&p, 4);
        check_invariants(&s);
        // All BRs in the same (last) cycle.
        let mut br_cycles: Vec<usize> = Vec::new();
        for core in &s.slots {
            for (t, inst) in core.iter().enumerate() {
                if inst.op == Opcode::Br {
                    br_cycles.push(t);
                }
            }
        }
        assert_eq!(br_cycles.len(), 4);
        assert!(br_cycles.iter().all(|&t| t == br_cycles[0]));
        assert_eq!(br_cycles[0], s.len() - 1);
    }

    #[test]
    fn parallel_schedule_is_shorter_than_serial() {
        // Two fully independent long chains: 2 cores should beat 1.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[3; 8]);
        let b = pb.data_mut().array_i64("b", &[4; 8]);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let mut x = fb.load8(ba, 0);
        let mut y = fb.load8(bb, 0);
        for _ in 0..6 {
            x = fb.mul(x, x);
            y = fb.mul(y, y);
        }
        fb.store8(ba, 8, x);
        fb.store8(bb, 8, y);
        let done = fb.label();
        fb.jump(done);
        fb.bind(done);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let s1 = schedule_block(&p, 1);
        let s2 = schedule_block(&p, 2);
        check_invariants(&s2);
        assert!(
            s2.len() < s1.len(),
            "2-core coupled schedule ({}) should beat serial ({})",
            s2.len(),
            s1.len()
        );
    }
}
