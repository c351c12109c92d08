//! Loop unrolling.
//!
//! The paper's ILP results ride on Trimaran's mature VLIW flow, which
//! widens blocks (unrolling, if-conversion, trace formation) before
//! multicluster partitioning; without wider blocks a 4-core coupled
//! schedule has too little slack to beat a single core. This pass unrolls
//! hot, innermost, canonical counted loops that were *not* claimed by the
//! statistical-DOALL selector:
//!
//! ```text
//! for (iv = ..; iv < bound; iv += step) body
//! ==>
//! ub = bound - (U-1)*step
//! while (iv < ub) { body; iv += step;  ... x U, renamed per copy }
//! while (iv < bound) { body; iv += step }       // original remainder
//! ```
//!
//! Registers defined in the body that are not loop-carried are renamed
//! per copy so the coupled scheduler can overlap the copies; carried
//! registers (inductions, accumulators) keep their names and chain.

use crate::liveness::Liveness;
use std::collections::{BTreeSet, HashMap, HashSet};
use voltron_ir::cfg::Cfg;
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::profile::Profile;
use voltron_ir::{Block, BlockId, CmpCc, FuncId, Function, Inst, Opcode, Operand, Reg, RegClass};

/// Unrolling thresholds.
#[derive(Debug, Clone, Copy)]
pub struct UnrollParams {
    /// Minimum profiled average trip count.
    pub min_trip: f64,
    /// Minimum dynamic cycles in the loop to bother.
    pub hot_threshold: u64,
    /// Body sizes up to this unroll by `factor_small`, larger by
    /// `factor_large` (0 disables).
    pub small_body: usize,
    /// Unroll factor for small bodies.
    pub factor_small: usize,
    /// Unroll factor for larger bodies.
    pub factor_large: usize,
    /// Bodies above this many instructions are never unrolled.
    pub max_body: usize,
}

impl Default for UnrollParams {
    fn default() -> UnrollParams {
        UnrollParams {
            min_trip: 16.0,
            hot_threshold: 2_000,
            small_body: 16,
            factor_small: 4,
            factor_large: 2,
            max_body: 48,
        }
    }
}

/// A canonical counted loop eligible for unrolling.
#[derive(Debug)]
struct Candidate {
    header: BlockId,
    /// All loop blocks, contiguous, starting at the header.
    first: u32,
    last: u32,
    iv: Reg,
    step: i64,
    bound: Operand,
    factor: usize,
}

/// Unroll eligible loops in `f`; `exclude_headers` are loops the planner
/// will parallelize as DOALL (their canonical shape must survive).
/// Returns the number of loops unrolled. When it returns nonzero the
/// caller must recompute every analysis (block ids shifted).
pub fn unroll_hot_loops(
    f: &mut Function,
    func: FuncId,
    profile: &Profile,
    exclude_headers: &HashSet<BlockId>,
    params: &UnrollParams,
) -> usize {
    // Analyze once, then apply candidates bottom-up (descending block
    // ids): each transform only shifts blocks at or after its own loop,
    // so earlier candidates' coordinates — and the profile's block ids —
    // stay valid throughout.
    let cfg = Cfg::build(f);
    let dom = voltron_ir::cfg::Dominators::compute(&cfg);
    let forest = LoopForest::build(&cfg, &dom);
    let lv = Liveness::compute(f, &cfg);
    let mut picked: Vec<Candidate> = Vec::new();
    for (li, l) in forest.loops.iter().enumerate() {
        if exclude_headers.contains(&l.header) || !l.children.is_empty() {
            continue;
        }
        if let Some(c) = candidate(f, func, &forest, LoopId(li as u32), profile, &lv, params) {
            picked.push(c);
        }
    }
    picked.sort_by_key(|c| std::cmp::Reverse(c.first));
    let count = picked.len();
    for c in picked {
        apply(f, &c, &lv);
    }
    count
}

fn candidate(
    f: &Function,
    func: FuncId,
    forest: &LoopForest,
    lp: LoopId,
    profile: &Profile,
    lv: &Liveness,
    params: &UnrollParams,
) -> Option<Candidate> {
    let l = forest.get(lp);
    let header = l.header;
    let lprof = profile.loop_profile(func, lp);
    if lprof.avg_trip() < params.min_trip {
        return None;
    }
    // Canonical header and latch (same shape the DOALL detector checks).
    let hblock = f.block(header);
    if hblock.insts.len() != 2 {
        return None;
    }
    let (iv, bound) = match (&hblock.insts[0].op, &hblock.insts[1].op) {
        (Opcode::Cmp(CmpCc::Ge), Opcode::Br) => {
            let cmp = &hblock.insts[0];
            let br = &hblock.insts[1];
            let iv = cmp.srcs[0].as_reg()?;
            if br.srcs[1].as_reg()? != cmp.dst? {
                return None;
            }
            (iv, cmp.srcs[1])
        }
        _ => return None,
    };
    let exit_target = hblock.insts[1].static_target()?;
    if l.blocks.contains(&exit_target) || l.exit_targets != vec![exit_target] {
        return None;
    }
    if let Operand::Reg(r) = bound {
        if defined_in(f, &l.blocks, r) {
            return None;
        }
    } else if !matches!(bound, Operand::Imm(_)) {
        return None;
    }
    if l.latches.len() != 1 {
        return None;
    }
    let latch = f.block(l.latches[0]);
    let li = latch.insts.len();
    if li < 2 {
        return None;
    }
    if latch.insts[li - 1].op != Opcode::Jump || latch.insts[li - 1].static_target() != Some(header)
    {
        return None;
    }
    let step_inst = &latch.insts[li - 2];
    let step = match (step_inst.op, step_inst.dst, step_inst.srcs.as_slice()) {
        (Opcode::Add, Some(d), [Operand::Reg(s), Operand::Imm(k)])
            if d == iv && *s == iv && *k > 0 =>
        {
            *k
        }
        _ => return None,
    };
    if count_defs(f, &l.blocks, iv) != 1 {
        return None;
    }
    // Contiguous, starting at the header; no calls or machine ops.
    let mut blocks: Vec<u32> = l.blocks.iter().map(|b| b.0).collect();
    blocks.sort_unstable();
    let (first, last) = (blocks[0], *blocks.last()?);
    if first != header.0 || last - first + 1 != blocks.len() as u32 || first == 0 {
        return None;
    }
    let mut body_ops = 0usize;
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            if matches!(inst.op, Opcode::Call | Opcode::Ret | Opcode::Halt) || inst.op.is_comm() {
                return None;
            }
            body_ops += 1;
        }
    }
    if body_ops > params.max_body {
        return None;
    }
    // Only iterations that are actually independent benefit: a carried
    // scalar recurrence chains the copies and unrolling just bloats the
    // code. Allow the induction variable and reduction-shaped carries
    // (their copies still chain, but everything around them overlaps).
    for &r in lv.live_in_of(header) {
        if r == iv || !defined_in(f, &l.blocks, r) {
            continue;
        }
        let mut reduction_like = true;
        for &b in &l.blocks {
            for inst in &f.block(b).insts {
                if inst.def() == Some(r) {
                    let ok = matches!(
                        inst.op,
                        Opcode::Add
                            | Opcode::Min
                            | Opcode::Max
                            | Opcode::Fadd
                            | Opcode::Fmin
                            | Opcode::Fmax
                    ) && inst.srcs.first().and_then(Operand::as_reg) == Some(r);
                    if !ok {
                        reduction_like = false;
                    }
                }
            }
        }
        if !reduction_like {
            return None;
        }
    }
    // Hotness (latency-weighted dynamic cycles).
    let mut est = 0u64;
    for &b in &l.blocks {
        let cnt = profile.block_count(func, b);
        let lat: u64 = f
            .block(b)
            .insts
            .iter()
            .map(|i| u64::from(i.op.latency()))
            .sum();
        est += cnt * lat;
    }
    if est < params.hot_threshold {
        return None;
    }
    let factor = if body_ops <= params.small_body {
        params.factor_small
    } else {
        params.factor_large
    };
    if factor < 2 {
        return None;
    }
    Some(Candidate {
        header,
        first,
        last,
        iv,
        step,
        bound,
        factor,
    })
}

fn defined_in(f: &Function, blocks: &BTreeSet<BlockId>, r: Reg) -> bool {
    blocks
        .iter()
        .any(|&b| f.block(b).insts.iter().any(|i| i.def() == Some(r)))
}

fn count_defs(f: &Function, blocks: &std::collections::BTreeSet<BlockId>, r: Reg) -> usize {
    blocks
        .iter()
        .map(|&b| {
            f.block(b)
                .insts
                .iter()
                .filter(|i| i.def() == Some(r))
                .count()
        })
        .sum()
}

/// Rewrite block references through `map`.
fn retarget_block(b: &mut Block, map: &impl Fn(BlockId) -> BlockId) {
    for inst in &mut b.insts {
        for s in &mut inst.srcs {
            if let Operand::Block(t) = s {
                *t = map(*t);
            }
        }
    }
}

fn apply(f: &mut Function, c: &Candidate, lv: &Liveness) {
    let u = c.factor;
    let nloop = (c.last - c.first + 1) as usize;
    let header = c.header;

    // Carried registers keep their names; everything else defined in the
    // body is renamed per copy.
    let loop_blocks: Vec<BlockId> = (c.first..=c.last).map(BlockId).collect();
    // Ordered: the per-copy names below are handed out in iteration
    // order, and two compiles of one program must emit one image.
    let mut defined: BTreeSet<Reg> = BTreeSet::new();
    for &b in &loop_blocks {
        for i in &f.block(b).insts {
            if let Some(d) = i.def() {
                defined.insert(d);
            }
        }
    }
    let carried: HashSet<Reg> = lv
        .live_in_of(header)
        .iter()
        .copied()
        .filter(|r| defined.contains(r))
        .collect();
    let mut next_reg = f.reg_counts();

    // The unrolled chunk: guard header + U body copies.
    // Chunk-internal ids are relative for now; resolved when spliced.
    // Relative id 0 = guard header; copy k's blocks start at
    // 1 + k*nloop.
    let mut chunk: Vec<Block> = Vec::with_capacity(1 + u * nloop);

    // Guard: pu = cmp.ge iv, ub ; br remainder_header, pu.
    // `ub` is computed in the preheader (spliced below); allocate it now.
    let ub = Reg {
        class: RegClass::Gpr,
        index: next_reg[RegClass::Gpr.index()],
    };
    next_reg[RegClass::Gpr.index()] += 1;
    let pu = Reg {
        class: RegClass::Pred,
        index: next_reg[RegClass::Pred.index()],
    };
    next_reg[RegClass::Pred.index()] += 1;
    // Sentinel ids: chunk-relative targets are encoded as u32::MAX - rel
    // so the splice can tell them apart from function-level ids.
    let rel = |k: u32| BlockId(u32::MAX - k);
    const REMAINDER: u32 = 1_000_000; // chunk-relative marker for the old header
    let mut guard = Block::default();
    guard.insts.push(Inst::with_dst(
        Opcode::Cmp(CmpCc::Ge),
        pu,
        vec![c.iv.into(), Operand::Reg(ub)],
    ));
    guard.insts.push(Inst::new(
        Opcode::Br,
        vec![Operand::Block(rel(REMAINDER)), pu.into()],
    ));
    chunk.push(guard);

    for copy in 0..u {
        // Per-copy renaming of non-carried defs.
        let mut rename: HashMap<Reg, Reg> = HashMap::new();
        if copy > 0 {
            for &d in &defined {
                if !carried.contains(&d) && d != c.iv {
                    let nr = Reg {
                        class: d.class,
                        index: next_reg[d.class.index()],
                    };
                    next_reg[d.class.index()] += 1;
                    rename.insert(d, nr);
                }
            }
        }
        for (bi, &b) in loop_blocks.iter().enumerate() {
            let mut nb = f.block(b).clone();
            // Copy 0..u-1 of the header: drop the exit test entirely (the
            // guard bounds the whole chunk). The header contributes its
            // non-branch instructions (there are none beyond the compare).
            if b == header {
                nb.insts.clear();
            }
            for inst in &mut nb.insts {
                if let Some(d) = inst.dst.as_mut() {
                    if let Some(nr) = rename.get(d) {
                        *d = *nr;
                    }
                }
                for s in &mut inst.srcs {
                    if let Operand::Reg(r) = s {
                        if let Some(nr) = rename.get(r) {
                            *r = *nr;
                        }
                    }
                }
                if let Some(g) = inst.guard.as_mut() {
                    if let Some(nr) = rename.get(g) {
                        *g = *nr;
                    }
                }
            }
            // Latch: the back jump goes to the next copy, or to the guard
            // after the last copy.
            let is_latch = nb
                .insts
                .last()
                .map(|i| i.op == Opcode::Jump && i.static_target() == Some(header))
                .unwrap_or(false);
            if is_latch {
                let tail = nb.insts.last_mut().expect("latch jump");
                let next = if copy + 1 == u {
                    rel(0) // back to the guard
                } else {
                    rel(1 + ((copy as u32) + 1) * nloop as u32)
                };
                tail.srcs[0] = Operand::Block(next);
            }
            // Body-internal branches: map into this copy.
            let base_rel = 1 + (copy as u32) * nloop as u32;
            retarget_block(&mut nb, &|t: BlockId| {
                if t.0 >= c.first && t.0 <= c.last && (t != header) {
                    rel(base_rel + (t.0 - c.first))
                } else {
                    t // header handled above; external targets impossible
                }
            });
            let _ = bi;
            chunk.push(nb);
        }
    }

    // Splice: [0 .. first) ++ chunk ++ [first ..] with target remapping.
    let chunk_len = chunk.len() as u32;
    let old_blocks = std::mem::take(&mut f.blocks);
    let shift = |t: BlockId| -> BlockId {
        if t.0 >= c.first {
            BlockId(t.0 + chunk_len)
        } else {
            t
        }
    };
    let mut out: Vec<Block> = Vec::with_capacity(old_blocks.len() + chunk.len());
    let mut guard_id: Option<u32> = None;
    for (bi, mut b) in old_blocks.into_iter().enumerate() {
        if bi as u32 == c.first {
            // Compute ub at the end of the preheader (before any
            // terminator) and insert the chunk.
            let span = (u as i64 - 1) * c.step;
            let prev = out.last_mut().expect("loop has a preheader");
            let bound_reg = match c.bound {
                Operand::Reg(r) => r,
                Operand::Imm(v) => {
                    let t = Reg {
                        class: RegClass::Gpr,
                        index: next_reg[0],
                    };
                    next_reg[0] += 1;
                    let at = prev
                        .insts
                        .iter()
                        .position(|i| i.op.is_terminator())
                        .unwrap_or(prev.insts.len());
                    prev.insts
                        .insert(at, Inst::with_dst(Opcode::Ldi, t, vec![Operand::Imm(v)]));
                    t
                }
                _ => unreachable!("candidate() allows only reg/imm bounds"),
            };
            let at = prev
                .insts
                .iter()
                .position(|i| i.op.is_terminator())
                .unwrap_or(prev.insts.len());
            prev.insts.insert(
                at,
                Inst::with_dst(Opcode::Sub, ub, vec![bound_reg.into(), Operand::Imm(span)]),
            );
            let chunk_base = out.len() as u32;
            guard_id = Some(chunk_base);
            for mut cb in chunk.drain(..) {
                retarget_block(&mut cb, &|t: BlockId| {
                    if t.0 > u32::MAX - 2_000_000 {
                        // Chunk-relative sentinel.
                        let r = u32::MAX - t.0;
                        if r == REMAINDER {
                            BlockId(c.first + chunk_len) // old header, shifted
                        } else {
                            BlockId(chunk_base + r)
                        }
                    } else {
                        shift(t)
                    }
                });
                out.push(cb);
            }
        }
        let inside_old_loop = (bi as u32) >= c.first && (bi as u32) <= c.last;
        if inside_old_loop {
            // The remainder loop keeps its internal structure (its latch
            // still targets the old header at its shifted position).
            retarget_block(&mut b, &shift);
        } else {
            // Everything else entering the loop must hit the guard.
            let g = guard_id;
            retarget_block(&mut b, &|t: BlockId| {
                if t == header {
                    // Blocks before the splice point have not seen the
                    // guard yet; those after have.
                    BlockId(g.expect("guard emitted before any later block"))
                } else {
                    shift(t)
                }
            });
        }
        out.push(b);
    }
    f.blocks = out;
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::{profile, Program};

    fn sum_program(n: i64) -> (Program, u64) {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &(0..n).collect::<Vec<_>>());
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, n, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let w = f.mul(v, 3i64);
            f.reduce_add(acc, w);
        });
        let ob = fb.ldi(out as i64);
        fb.store8(ob, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        (pb.finish(), out)
    }

    fn test_params() -> UnrollParams {
        UnrollParams {
            hot_threshold: 50,
            ..UnrollParams::default()
        }
    }

    fn unroll_main(p: &mut Program) -> usize {
        let prof = profile::profile(p, 100_000_000).unwrap();
        let main = p.main;
        let f = p.func_mut(main);
        unroll_hot_loops(f, main, &prof, &HashSet::new(), &test_params())
    }

    #[test]
    fn unrolled_sum_is_equivalent_for_various_trip_counts() {
        for n in [16i64, 17, 19, 63, 64, 65, 100] {
            let (mut p, out) = sum_program(n);
            let golden = voltron_ir::interp::run(&p, 100_000_000).unwrap();
            let unrolled = unroll_main(&mut p);
            assert!(unrolled >= 1, "n={n}: loop should unroll");
            voltron_ir::verify::verify_program(&p).unwrap_or_else(|e| panic!("n={n}: {e}"));
            let got = voltron_ir::interp::run(&p, 100_000_000).unwrap();
            assert_eq!(
                golden.memory.load_i64(out).unwrap(),
                got.memory.load_i64(out).unwrap(),
                "n={n}"
            );
            // And the unrolled version executes fewer dynamic branches.
            assert!(
                got.steps < golden.steps,
                "n={n}: {} !< {}",
                got.steps,
                golden.steps
            );
        }
    }

    #[test]
    fn cold_or_short_loops_are_left_alone() {
        let (mut p, _) = sum_program(8); // below min_trip
        assert_eq!(unroll_main(&mut p), 0);
    }

    #[test]
    fn excluded_headers_are_skipped() {
        let (mut p, _) = sum_program(200);
        let prof = profile::profile(&p, 100_000_000).unwrap();
        // Find the loop header and exclude it.
        let main = p.main;
        let f = p.func_mut(main);
        let cfg = Cfg::build(f);
        let dom = voltron_ir::cfg::Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let exclude: HashSet<BlockId> = forest.loops.iter().map(|l| l.header).collect();
        assert_eq!(
            unroll_hot_loops(f, main, &prof, &exclude, &test_params()),
            0
        );
    }

    #[test]
    fn carried_recurrence_is_not_unrolled() {
        // `acc` is carried through a MOV (not the canonical reduction
        // form), so iterations chain and unrolling is refused.
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &(0..64).collect::<Vec<_>>());
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let acc = fb.ldi(1);
        fb.counted_loop(0i64, 64i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let m = f.xor(acc, v);
            f.mov_to(acc, m);
        });
        fb.store8(base, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let mut p = pb.finish();
        assert_eq!(unroll_main(&mut p), 0);
    }

    #[test]
    fn branchy_body_unrolls_correctly() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb
            .data_mut()
            .array_i64("a", &(0..120).map(|i| i * 7 % 23 - 11).collect::<Vec<_>>());
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 120i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let pos = f.cmp(CmpCc::Gt, v, 0i64);
            let nv = f.sub(0i64, v);
            let amt = f.sel(pos, v, nv);
            f.reduce_add(acc, amt);
        });
        let ob = fb.ldi(out as i64);
        fb.store8(ob, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let mut p = pb.finish();
        let golden = voltron_ir::interp::run(&p, 100_000_000).unwrap();
        assert!(unroll_main(&mut p) >= 1);
        voltron_ir::verify::verify_program(&p).unwrap();
        let got = voltron_ir::interp::run(&p, 100_000_000).unwrap();
        assert_eq!(golden.memory.first_difference(&got.memory), None);
    }
}
