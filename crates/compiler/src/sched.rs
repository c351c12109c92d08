//! The coupled-mode joint scheduler.
//!
//! Coupled regions behave as one multicluster VLIW: all cores issue in
//! lock-step, one operation per core per cycle, and the slot index within
//! a block *is* the cycle. The scheduler therefore solves one list-
//! scheduling problem across all cores at once:
//!
//! * intra-core dependences come from each core's operation list
//!   (data/anti/output/memory/control, by the walk [`crate::dfg::BlockDfg`]
//!   is built from);
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

use crate::alias::{AliasAnalysis, Origin};
use crate::comm::{LoweredBlock, PairEdge};
use crate::dfg::for_each_dep;
use voltron_ir::{Inst, Opcode};

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

/// Schedule one lowered block for coupled execution, moving its
/// operations into the slot vectors.
///
/// `alias` drives the cross-core memory-ordering edges (ops carry their
/// original block index in [`crate::comm::CoreOp::orig`]).
pub fn schedule_coupled(lowered: LoweredBlock, alias: &AliasAnalysis) -> BlockSchedule {
    let LoweredBlock {
        mut per_core,
        pair_edges,
    } = lowered;
    let ncores = per_core.len();
    // Flat node ids: core c's ops are nodes base[c]..base[c + 1].
    let mut base: Vec<usize> = Vec::with_capacity(ncores + 1);
    let mut total = 0;
    for ops in &per_core {
        base.push(total);
        total += ops.len();
    }
    base.push(total);
    let node = |core: usize, idx: usize| base[core] + idx;
    let mut core_of: Vec<usize> = Vec::with_capacity(total);
    let mut op_of: Vec<Opcode> = Vec::with_capacity(total);

    // Edges: (from, to, latency). Intra-core ones come from each core's
    // operation list, duplicates and all: every use below is a maximum.
    let mut edges: Vec<(usize, usize, u32)> = Vec::new();
    // Memory operations of the original block: (node, orig, origin,
    // is a store).
    let mut mems: Vec<(usize, Option<usize>, Origin, bool)> = Vec::new();
    for (c, ops) in per_core.iter().enumerate() {
        for_each_dep(
            ops.len(),
            |i| &ops[i].inst,
            alias,
            |f, t, l, _| {
                edges.push((node(c, f), node(c, t), l));
            },
        );
        for (i, op) in ops.iter().enumerate() {
            core_of.push(c);
            op_of.push(op.inst.op);
            if op.inst.op.is_mem() && op.orig.is_some() {
                let origin = alias.mem_origin(&op.inst);
                mems.push((node(c, i), op.orig, origin, op.inst.op.is_store()));
            }
        }
    }
    // Cross-core pair edges from communication lowering.
    for &PairEdge { from, to, latency } in &pair_edges {
        edges.push((node(from.0, from.1), node(to.0, to.1), latency));
    }
    // Cross-core memory ordering: original program order between
    // may-aliasing accesses on different cores.
    for (ai, &(a, orig_a, origin_a, store_a)) in mems.iter().enumerate() {
        for &(b, orig_b, origin_b, store_b) in &mems[ai + 1..] {
            if core_of[a] == core_of[b] {
                continue; // intra-core handled above
            }
            if (store_a || store_b) && origin_a.may_alias(origin_b) {
                let (first, second) = if orig_a < orig_b { (a, b) } else { (b, a) };
                edges.push((first, second, 1));
            }
        }
    }

    // Successor lists, flat: node n's are succs[start[n]..start[n + 1]].
    let mut start = vec![0usize; total + 1];
    for &(f, _, _) in &edges {
        start[f + 1] += 1;
    }
    for n in 0..total {
        start[n + 1] += start[n];
    }
    let mut succs: Vec<(usize, u32)> = vec![(0, 0); edges.len()];
    let mut indeg = vec![0usize; total];
    {
        let mut next = start.clone();
        for &(f, t, l) in &edges {
            succs[next[f]] = (t, l);
            next[f] += 1;
            indeg[t] += 1;
        }
    }
    let succs_of = |n: usize| &succs[start[n]..start[n + 1]];

    // Longest-path priorities (the graph is a DAG; node ids are not
    // topological across cores, so go by a Kahn order).
    let mut topo: Vec<usize> = Vec::with_capacity(total);
    let mut unvisited = indeg.clone();
    let mut queue: Vec<usize> = (0..total).filter(|&n| indeg[n] == 0).collect();
    while let Some(n) = queue.pop() {
        topo.push(n);
        for &(t, _) in succs_of(n) {
            unvisited[t] -= 1;
            if unvisited[t] == 0 {
                queue.push(t);
            }
        }
    }
    debug_assert_eq!(topo.len(), total, "cyclic block dependence graph");
    let mut priority = vec![0u32; total];
    for &n in topo.iter().rev() {
        let mut p = op_of[n].latency();
        for &(t, l) in succs_of(n) {
            p = p.max(l + priority[t]);
        }
        priority[n] = p;
    }

    // List scheduling. Branches are deferred and aligned afterwards, and
    // nothing that follows a branch is ever ready.
    let is_branch = |n: usize| matches!(op_of[n], Opcode::Br | Opcode::Jump);
    // An op becomes a candidate on its core once its last predecessor is
    // placed (`waiting` counts the others), and is ready from the latest
    // cycle those placements allow. Core c's candidates are
    // cand[base[c]..base[c] + ncand[c]].
    let mut waiting = indeg;
    let mut earliest = vec![0u64; total];
    let mut cand = vec![0usize; total];
    let mut ncand = vec![0usize; ncores];
    for n in 0..total {
        if waiting[n] == 0 && !is_branch(n) {
            let c = core_of[n];
            cand[base[c] + ncand[c]] = n;
            ncand[c] += 1;
        }
    }
    let mut time: Vec<Option<u64>> = vec![None; total];
    let mut remaining = total;
    let mut cycle: u64 = 0;
    let branch_count = (0..total).filter(|&n| is_branch(n)).count();
    while remaining > branch_count {
        // Cores in order: a core's pick sees what lower-numbered cores
        // placed earlier in the same cycle.
        for c in 0..ncores {
            // Highest-priority ready op on core c this cycle.
            let list = &mut cand[base[c]..base[c] + ncand[c]];
            let best = (0..list.len())
                .filter(|&k| earliest[list[k]] <= cycle)
                .max_by_key(|&k| (priority[list[k]], list[k]));
            let Some(k) = best else { continue };
            let n = list[k];
            list.swap(k, ncand[c] - 1);
            ncand[c] -= 1;
            time[n] = Some(cycle);
            remaining -= 1;
            for &(t, l) in succs_of(n) {
                earliest[t] = earliest[t].max(cycle + u64::from(l));
                waiting[t] -= 1;
                if waiting[t] == 0 && !is_branch(t) {
                    let ct = core_of[t];
                    cand[base[ct] + ncand[ct]] = t;
                    ncand[ct] += 1;
                }
            }
        }
        cycle += 1;
        debug_assert!(cycle < 1_000_000, "scheduler failed to converge");
    }

    // Align branches: all BRs at one cycle, trailing JUMPs one later.
    let mut br_cycle: u64 = cycle; // at least after every scheduled op
    for &(p, t, l) in &edges {
        if is_branch(t) {
            if let Some(tp) = time[p] {
                br_cycle = br_cycle.max(tp + u64::from(l));
            }
        }
    }
    let have_br = op_of.contains(&Opcode::Br);
    let have_jump = op_of.contains(&Opcode::Jump);
    let jump_cycle = if have_br { br_cycle + 1 } else { br_cycle };
    for n in 0..total {
        match op_of[n] {
            Opcode::Br => time[n] = Some(br_cycle),
            Opcode::Jump => time[n] = Some(jump_cycle),
            _ => {}
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
    } as usize;

    // at[c * len + t]: the index in core c's list of its op at cycle t.
    const IDLE: usize = usize::MAX;
    let mut at = vec![IDLE; ncores * len];
    for n in 0..total {
        let t = time[n].expect("all ops scheduled") as usize;
        let c = core_of[n];
        debug_assert_eq!(
            at[c * len + t],
            IDLE,
            "slot collision at core {c} cycle {t}"
        );
        at[c * len + t] = n - base[c];
    }
    let slots = per_core
        .iter_mut()
        .enumerate()
        .map(|(c, ops)| {
            at[c * len..(c + 1) * len]
                .iter()
                .map(|&i| match i {
                    IDLE => Inst::nop(),
                    i => std::mem::replace(&mut ops[i].inst, Inst::nop()),
                })
                .collect()
        })
        .collect();
    BlockSchedule { slots }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::{FreshRegs, RegionLowerer, TagAlloc};
    use crate::partition::{bug_partition, PartitionParams};
    use crate::FrontEnd;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::hash::IntMap;
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
            &IntMap::default(),
        );
        let cfg = MachineConfig::paper(cores);
        let mut fresh = FreshRegs::for_function(f);
        let mut tags = TagAlloc::default();
        let mut lw = RegionLowerer::new(f, &asg, &cfg, ExecMode::Coupled, &mut fresh, &mut tags);
        let lb = lw.lower_block(BlockId(0));
        schedule_coupled(lb, inp.alias)
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
