//! Statistical DOALL loop detection (§4.1 "Extracting LLP").
//!
//! A loop qualifies when:
//!
//! 1. it is a *canonical counted loop*: header `p = cmp.ge iv, bound;
//!    br exit, p`, a single latch ending `iv = iv + step; jump header`,
//!    loop-invariant `bound`, positive immediate `step`, and a single
//!    exit target;
//! 2. its only scalar loop-carried values are the induction variable and
//!    recognized reductions (`acc = op acc, x` with `op` commutative and
//!    associative, and `acc` not otherwise read in the loop) — these are
//!    removed by induction-variable replication and accumulator
//!    expansion;
//! 3. profiling observed **no cross-iteration memory dependence**
//!    (statistical DOALL — the transactional memory guards the residual
//!    risk at run time);
//! 4. the profiled trip count is high enough to amortize spawn overhead.
//!
//! Detection produces a [`DoallInfo`] the code generator turns into
//! chunked, speculative per-core loops (`XBEGIN order` / body /
//! `XCOMMIT`).

use crate::liveness::Liveness;
use voltron_ir::cfg::Cfg;
use voltron_ir::hash::IntSet;
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::profile::Profile;
use voltron_ir::{BlockId, CmpCc, FuncId, Function, Opcode, Operand, Reg, RegClass};

/// A recognized reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reduction {
    /// The accumulator register.
    pub reg: Reg,
    /// The combining operation (`Add`, `Min`, `Max`, `Fadd`, `Fmin`,
    /// `Fmax`).
    pub op: Opcode,
}

impl Reduction {
    /// The identity element the workers' partial accumulators start from.
    pub fn identity(&self) -> Operand {
        match self.op {
            Opcode::Add => Operand::Imm(0),
            Opcode::Min => Operand::Imm(i64::MAX),
            Opcode::Max => Operand::Imm(i64::MIN),
            Opcode::Fadd => Operand::FImm(0.0),
            Opcode::Fmin => Operand::FImm(f64::INFINITY),
            Opcode::Fmax => Operand::FImm(f64::NEG_INFINITY),
            other => unreachable!("not a reduction op: {other:?}"),
        }
    }
}

/// Everything the code generator needs about a DOALL loop.
#[derive(Debug, Clone)]
pub struct DoallInfo {
    /// The loop.
    pub loop_id: LoopId,
    /// Loop header block.
    pub header: BlockId,
    /// All loop blocks (layout order).
    pub blocks: Vec<BlockId>,
    /// The single exit target outside the loop.
    pub exit_target: BlockId,
    /// The induction variable.
    pub iv: Reg,
    /// The loop-invariant bound operand of the header compare.
    pub bound: Operand,
    /// The (positive) step.
    pub step: i64,
    /// The header compare destination (exit predicate).
    pub exit_pred: Reg,
    /// Recognized reductions.
    pub reductions: Vec<Reduction>,
    /// Profiled average trip count.
    pub avg_trip: f64,
}

/// Minimum profiled average trip count to consider chunking worthwhile
/// (micro-loops cannot amortize spawn + parameter-transfer overhead).
pub const MIN_TRIP: f64 = 12.0;

/// Try to prove `lp` statistical-DOALL. Returns `None` (with no side
/// effects) when any condition fails.
pub fn detect(
    f: &Function,
    func: FuncId,
    forest: &LoopForest,
    lp: LoopId,
    cfg: &Cfg,
    liveness: &Liveness,
    profile: &Profile,
) -> Option<DoallInfo> {
    let l = forest.get(lp);
    let header = l.header;

    // (4) profile gates first: observed memory independence + trips.
    let lprof = profile.loop_profile(func, lp);
    if lprof.cross_iter_dep || lprof.invocations == 0 {
        return None;
    }
    if lprof.avg_trip() < MIN_TRIP {
        return None;
    }

    // (1) canonical header: cmp.ge iv, bound ; br exit, p.
    let hblock = f.block(header);
    if hblock.insts.len() != 2 {
        return None;
    }
    let (iv, bound, exit_pred) = match (&hblock.insts[0].op, &hblock.insts[1].op) {
        (Opcode::Cmp(CmpCc::Ge), Opcode::Br) => {
            let cmp = &hblock.insts[0];
            let br = &hblock.insts[1];
            let iv = cmp.srcs[0].as_reg()?;
            let bound = cmp.srcs[1];
            let p = cmp.dst?;
            if br.srcs[1].as_reg()? != p {
                return None;
            }
            (iv, bound, p)
        }
        _ => return None,
    };
    let exit_target = hblock.insts[1].static_target()?;
    if l.blocks.contains(&exit_target) {
        return None;
    }

    // Single exit target for the whole loop.
    if l.exit_targets.len() != 1 || l.exit_targets[0] != exit_target {
        return None;
    }

    // Loop-invariant bound.
    if let Operand::Reg(r) = bound {
        if defined_in_loop(f, l.blocks.iter(), r) {
            return None;
        }
    } else if !matches!(bound, Operand::Imm(_)) {
        return None;
    }

    // (1) single latch ending `iv = iv + step ; jump header`.
    if l.latches.len() != 1 {
        return None;
    }
    let latch = f.block(l.latches[0]);
    let li = latch.insts.len();
    if li < 2 {
        return None;
    }
    let jump = &latch.insts[li - 1];
    if jump.op != Opcode::Jump || jump.static_target() != Some(header) {
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

    // iv defined exactly once in the loop (the latch increment).
    let iv_defs = count_defs(f, l.blocks.iter(), iv);
    if iv_defs != 1 {
        return None;
    }

    // No machine-only ops, no calls/halts inside.
    for &b in &l.blocks {
        for inst in &f.block(b).insts {
            if matches!(inst.op, Opcode::Call | Opcode::Ret | Opcode::Halt) || inst.op.is_comm() {
                return None;
            }
        }
    }

    // (2) classify loop-carried scalars, in register order: the emitter
    // ships and combines the partial accumulators in this order.
    let mut reductions: Vec<Reduction> = Vec::new();
    let mut carried: Vec<Reg> = liveness
        .live_in_of(header)
        .iter()
        .copied()
        .filter(|&r| r != iv && defined_in_loop(f, l.blocks.iter(), r))
        .collect();
    carried.sort_unstable();
    for r in carried {
        if r.class == RegClass::Btr {
            return None;
        }
        // One def, of the canonical reduction shape, and no other reads.
        let mut def: Option<Reduction> = None;
        let mut defs = 0usize;
        let mut other_reads = 0usize;
        for &b in &l.blocks {
            for inst in &f.block(b).insts {
                if inst.def() == Some(r) {
                    defs += 1;
                    let red_op = matches!(
                        inst.op,
                        Opcode::Add
                            | Opcode::Min
                            | Opcode::Max
                            | Opcode::Fadd
                            | Opcode::Fmin
                            | Opcode::Fmax
                    );
                    let self_first = inst.srcs.first().and_then(Operand::as_reg) == Some(r);
                    let operand_clean = inst
                        .srcs
                        .get(1)
                        .map(|s| s.as_reg() != Some(r))
                        .unwrap_or(false);
                    if red_op && self_first && operand_clean && inst.guard.is_none() {
                        def = Some(Reduction {
                            reg: r,
                            op: inst.op,
                        });
                    }
                    continue;
                }
                // Reads outside its own accumulation.
                if inst.uses().any(|u| u == r) {
                    other_reads += 1;
                }
            }
        }
        match (defs, def, other_reads) {
            (1, Some(red), 0) => reductions.push(red),
            _ => return None,
        }
    }

    // (2b) nothing else defined in the loop may be live at the exit
    // (last-iteration values cannot be reconstructed from chunks).
    for &r in liveness.live_in_of(exit_target) {
        if r == iv || reductions.iter().any(|x| x.reg == r) {
            continue;
        }
        if r == exit_pred {
            return None; // predicate consumed after the loop: bail
        }
        if defined_in_loop(f, l.blocks.iter(), r) {
            return None;
        }
    }

    // Contiguous layout (the emitter replicates the range wholesale).
    let mut blocks: Vec<BlockId> = l.blocks.iter().copied().collect();
    blocks.sort_unstable();
    let first = blocks[0].0;
    if blocks.last().copied() != Some(BlockId(first + blocks.len() as u32 - 1)) {
        return None;
    }
    // Only the header may be entered from outside.
    for &b in &blocks {
        if b == header {
            continue;
        }
        if cfg.preds_of(b).iter().any(|p| !l.blocks.contains(p)) {
            return None;
        }
    }

    Some(DoallInfo {
        loop_id: lp,
        header,
        blocks,
        exit_target,
        iv,
        bound,
        step,
        exit_pred,
        reductions,
        avg_trip: lprof.avg_trip(),
    })
}

/// Whether an instruction of `blocks` defines `r`.
pub(crate) fn defined_in_loop<'a>(
    f: &Function,
    blocks: impl Iterator<Item = &'a BlockId>,
    r: Reg,
) -> bool {
    for &b in blocks {
        for inst in &f.block(b).insts {
            if inst.def() == Some(r) {
                return true;
            }
        }
    }
    false
}

/// How many instructions of `blocks` define `r`.
pub(crate) fn count_defs<'a>(
    f: &Function,
    blocks: impl Iterator<Item = &'a BlockId>,
    r: Reg,
) -> usize {
    let mut n = 0;
    for &b in blocks {
        for inst in &f.block(b).insts {
            if inst.def() == Some(r) {
                n += 1;
            }
        }
    }
    n
}

/// Collect the live-in registers a chunk body needs from the master:
/// everything live into the header that is *not* defined in the loop,
/// excluding the induction variable (sent as the chunk's lower bound).
pub fn chunk_live_ins(f: &Function, info: &DoallInfo, liveness: &Liveness) -> Vec<Reg> {
    let defined: IntSet<Reg> = info
        .blocks
        .iter()
        .flat_map(|&b| f.block(b).insts.iter())
        .filter_map(|i| i.def())
        .collect();
    let mut used: IntSet<Reg> = IntSet::default();
    for &b in &info.blocks {
        for inst in &f.block(b).insts {
            used.extend(inst.uses());
        }
    }
    let mut out: Vec<Reg> = liveness
        .live_in_of(info.header)
        .iter()
        .copied()
        .filter(|r| {
            *r != info.iv && used.contains(r) && !defined.contains(r) && r.class != RegClass::Btr
        })
        .collect();
    if let Operand::Reg(b) = info.bound {
        // The bound register is replaced by the chunk's upper bound, but
        // if the body also reads it directly it still ships normally (the
        // filter above already includes it when used).
        let _ = b;
    }
    out.sort_unstable();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::cfg::Dominators;
    use voltron_ir::profile;
    use voltron_ir::Program;

    fn analyze(p: &Program) -> (Cfg, LoopForest, Liveness, Profile) {
        let f = p.main_func();
        let cfg = Cfg::build(f);
        let dom = Dominators::compute(&cfg);
        let forest = LoopForest::build(&cfg, &dom);
        let lv = Liveness::compute(f, &cfg);
        let prof = profile::profile(p, 100_000_000).unwrap();
        (cfg, forest, lv, prof)
    }

    fn detect_first(p: &Program) -> Option<DoallInfo> {
        let f = p.main_func();
        let (cfg, forest, lv, prof) = analyze(p);
        detect(f, p.main, &forest, LoopId(0), &cfg, &lv, &prof)
    }

    #[test]
    fn array_fill_is_doall() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 128);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        fb.counted_loop(0i64, 128i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.mul(iv, iv);
            f.store8(ad, 0, v);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let info = detect_first(&p).expect("array fill should be DOALL");
        assert_eq!(info.step, 1);
        assert!(info.reductions.is_empty());
        assert!(info.avg_trip > 100.0);
        assert_eq!(info.bound, Operand::Imm(128));
    }

    #[test]
    fn reduction_loop_is_doall_with_accumulator() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[3; 200]);
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 200i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            f.reduce_add(acc, v);
        });
        let ob = fb.ldi(out as i64);
        fb.store8(ob, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let info = detect_first(&p).expect("reduction should be DOALL");
        assert_eq!(info.reductions.len(), 1);
        assert_eq!(info.reductions[0].op, Opcode::Add);
        let live = chunk_live_ins(p.main_func(), &info, &{
            let cfg = Cfg::build(p.main_func());
            Liveness::compute(p.main_func(), &cfg)
        });
        // base is a live-in the chunks need.
        assert!(live.iter().any(|r| r.class == RegClass::Gpr));
    }

    #[test]
    fn reductions_come_in_register_order() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().array_i64("a", &[3; 200]);
        let out = pb.data_mut().zeroed("out", 32);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let accs: Vec<Reg> = (0..4).map(|_| fb.ldi(0)).collect();
        fb.counted_loop(0i64, 200i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            for &acc in &accs {
                f.reduce_add(acc, v);
            }
        });
        let ob = fb.ldi(out as i64);
        for (k, &acc) in accs.iter().enumerate() {
            fb.store8(ob, 8 * k as i64, acc);
        }
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        // Each liveness computation hashes its sets afresh, so a verdict
        // that followed set order would differ between them.
        for _ in 0..8 {
            let info = detect_first(&p).expect("reductions should be DOALL");
            let regs: Vec<Reg> = info.reductions.iter().map(|r| r.reg).collect();
            assert_eq!(regs, accs);
        }
    }

    #[test]
    fn recurrence_is_rejected_by_profile() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 128);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        fb.counted_loop(1i64, 128i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let prev = f.load8(ad, -8);
            let v = f.add(prev, 1i64);
            f.store8(ad, 0, v);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        assert!(detect_first(&p).is_none());
    }

    #[test]
    fn non_reduction_carried_scalar_is_rejected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 128);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let prev = fb.ldi(0);
        fb.counted_loop(0i64, 128i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            f.store8(ad, 0, prev); // uses last iteration's value
            let v = f.mul(iv, 3i64);
            f.mov_to(prev, v); // carried, not a reduction
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        assert!(detect_first(&p).is_none());
    }

    #[test]
    fn short_loop_is_rejected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 4);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        fb.counted_loop(0i64, 4i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            f.store8(ad, 0, iv);
        });
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        assert!(detect_first(&p).is_none(), "trip count 4 is below MIN_TRIP");
    }

    #[test]
    fn loop_with_value_live_after_exit_is_rejected() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 8 * 128);
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let base = fb.ldi(a as i64);
        let mut last = fb.ldi(0);
        fb.counted_loop(0i64, 128i64, 1, |f, iv| {
            let v = f.mul(iv, 7i64);
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            f.store8(ad, 0, v);
            last = v; // reassigning the Rust binding: v is a fresh reg
        });
        // `last` (defined in the loop) is read after the loop.
        let ob = fb.ldi(out as i64);
        fb.store8(ob, 0, last);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        assert!(detect_first(&p).is_none());
    }
}
