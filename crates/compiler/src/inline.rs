//! Whole-program inlining.
//!
//! The Voltron compiler partitions and schedules flat regions; calls are
//! therefore inlined away before planning (the machine has no call
//! support — sealing a machine image rejects residual calls). Recursion is
//! rejected.

use crate::error::CompileError;
use voltron_ir::{Block, BlockId, FuncId, Function, Inst, Opcode, Operand, Program, Reg, RegClass};

/// Maximum number of individual call-site expansions before assuming
/// runaway recursion.
const MAX_INLINE_STEPS: usize = 10_000;

/// `program` as the one-function program the compiler plans and emits
/// from: `inline_all`'s flat function as `main`, same name and data.
///
/// # Errors
/// See `inline_all`.
pub fn inline_program(program: &Program) -> Result<Program, CompileError> {
    Ok(Program {
        name: program.name.clone(),
        funcs: vec![inline_all(program)?],
        main: FuncId(0),
        data: program.data.clone(),
    })
}

/// Inline every call in `main`, returning the flat function.
///
/// # Errors
/// Fails on (mutual) recursion or malformed call sites.
fn inline_all(program: &Program) -> Result<Function, CompileError> {
    let mut f = program.main_func().clone();
    let mut steps = 0;
    while let Some((bi, ii)) = find_call(&f) {
        steps += 1;
        if steps > MAX_INLINE_STEPS {
            return Err(CompileError::Unsupported(
                "inlining did not terminate (recursive calls?)".into(),
            ));
        }
        inline_one(&mut f, bi, ii, program)?;
    }
    Ok(f)
}

fn find_call(f: &Function) -> Option<(usize, usize)> {
    for (bi, b) in f.blocks.iter().enumerate() {
        for (ii, inst) in b.insts.iter().enumerate() {
            if inst.op == Opcode::Call {
                return Some((bi, ii));
            }
        }
    }
    None
}

fn remap_reg(r: Reg, offsets: &[u32; 4]) -> Reg {
    Reg {
        class: r.class,
        index: r.index + offsets[r.class.index()],
    }
}

fn remap_inst_regs(inst: &mut Inst, offsets: &[u32; 4]) {
    if let Some(d) = inst.dst.as_mut() {
        *d = remap_reg(*d, offsets);
    }
    for s in &mut inst.srcs {
        if let Operand::Reg(r) = s {
            *r = remap_reg(*r, offsets);
        }
    }
    if let Some(g) = inst.guard.as_mut() {
        *g = remap_reg(*g, offsets);
    }
}

/// Rewrite `block`'s block references through `map`.
pub(crate) fn shift_targets(block: &mut Block, map: impl Fn(BlockId) -> BlockId) {
    for inst in &mut block.insts {
        for s in &mut inst.srcs {
            if let Operand::Block(t) = s {
                *t = map(*t);
            }
        }
    }
}

fn inline_one(
    f: &mut Function,
    bi: usize,
    ii: usize,
    program: &Program,
) -> Result<(), CompileError> {
    let call = f.blocks[bi].insts[ii].clone();
    let callee_id = match call.srcs[0] {
        Operand::Func(x) => x,
        _ => {
            return Err(CompileError::Internal(
                "call without function operand".into(),
            ))
        }
    };
    let callee = program.func(callee_id);
    if callee.name == f.name {
        return Err(CompileError::Unsupported(format!(
            "recursive call to {} cannot be inlined",
            callee.name
        )));
    }
    if call.guard.is_some() {
        return Err(CompileError::Unsupported(
            "guarded calls are not supported".into(),
        ));
    }

    let offsets = f.reg_counts();
    let m = callee.blocks.len();
    let cont_id = BlockId((bi + 1 + m) as u32);

    // Pre block: instructions before the call plus parameter moves.
    let orig = std::mem::take(&mut f.blocks[bi]);
    let mut pre = Block {
        insts: orig.insts[..ii].to_vec(),
    };
    for (param, arg) in callee.params.iter().zip(call.srcs[1..].iter()) {
        let p = remap_reg(*param, &offsets);
        let op = match (p.class, arg) {
            (RegClass::Gpr, Operand::Imm(_)) => Opcode::Ldi,
            (RegClass::Fpr, Operand::FImm(_)) => Opcode::Fldi,
            _ => Opcode::Mov,
        };
        pre.insts.push(Inst::with_dst(op, p, vec![*arg]));
    }

    // Continuation block: the remainder of the original block.
    let mut cont = Block {
        insts: orig.insts[ii + 1..].to_vec(),
    };

    // Remap targets in untouched caller blocks (and the continuation):
    // blocks after `bi` shift down by m + 1.
    let shift = (m + 1) as u32;
    let map_caller = |t: BlockId| {
        if t.idx() <= bi {
            t
        } else {
            BlockId(t.0 + shift)
        }
    };
    shift_targets(&mut cont, map_caller);
    for b in f.blocks.iter_mut() {
        shift_targets(b, map_caller);
    }

    // Clone callee blocks with register and target remapping; rewrite RET
    // into (optional move) + jump to the continuation.
    let mut inlined: Vec<Block> = Vec::with_capacity(m);
    for cb in &callee.blocks {
        let mut nb = cb.clone();
        for inst in &mut nb.insts {
            remap_inst_regs(inst, &offsets);
        }
        shift_targets(&mut nb, |t| BlockId((bi + 1) as u32 + t.0));
        // Rewrite returns.
        let mut out: Vec<Inst> = Vec::with_capacity(nb.insts.len());
        for inst in nb.insts {
            if inst.op == Opcode::Ret {
                match (call.dst, inst.srcs.first()) {
                    (Some(dst), Some(v)) => {
                        out.push(Inst::with_dst(Opcode::Mov, dst, vec![*v]));
                    }
                    (Some(_), None) => {
                        return Err(CompileError::Internal(format!(
                            "{} returns no value but the call expects one",
                            callee.name
                        )))
                    }
                    _ => {}
                }
                out.push(Inst::new(Opcode::Jump, vec![Operand::Block(cont_id)]));
            } else if inst.op == Opcode::Halt {
                return Err(CompileError::Unsupported(format!(
                    "HALT inside callee {}",
                    callee.name
                )));
            } else {
                out.push(inst);
            }
        }
        inlined.push(Block { insts: out });
    }

    // Reassemble the layout.
    let tail: Vec<Block> = f.blocks.drain(bi + 1..).collect();
    f.blocks[bi] = pre;
    f.blocks.extend(inlined);
    f.blocks.push(cont);
    f.blocks.extend(tail);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::verify;

    fn run_flat(program: &Program, flat: Function) -> voltron_ir::Memory {
        let mut p2 = program.clone();
        let main = p2.main;
        *p2.func_mut(main) = flat;
        voltron_ir::interp::run(&p2, 10_000_000).unwrap().memory
    }

    #[test]
    fn simple_call_is_inlined_and_equivalent() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut g = pb.function("triple");
        let x = g.param(RegClass::Gpr);
        let t2 = g.add(x, x);
        let t3 = g.add(t2, x);
        g.ret_val(t3);
        let gid = pb.finish_function(g);
        let mut fb = pb.function("main");
        let v = fb.ldi(14);
        let r = fb.call(gid, &[v], Some(RegClass::Gpr)).unwrap();
        let base = fb.ldi(out as i64);
        fb.store8(base, 0, r);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();

        let flat = inline_all(&p).unwrap();
        assert!(find_call(&flat).is_none());
        verify::verify_function(&flat, None, p.main).unwrap();
        let mem = run_flat(&p, flat);
        assert_eq!(mem.load_i64(out).unwrap(), 42);
    }

    #[test]
    fn call_inside_loop_and_branches() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        // abs_diff(a, b) with control flow inside.
        let mut g = pb.function("absdiff");
        let a = g.param(RegClass::Gpr);
        let b = g.param(RegClass::Gpr);
        let p0 = g.cmp(voltron_ir::CmpCc::Ge, a, b);
        let d1 = g.sub(a, b);
        let d2 = g.sub(b, a);
        let r = g.sel(p0, d1, d2);
        g.ret_val(r);
        let gid = pb.finish_function(g);
        let mut fb = pb.function("main");
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 10i64, 1, |f, iv| {
            let five = f.ldi(5);
            let d = f.call(gid, &[iv, five], Some(RegClass::Gpr)).unwrap();
            let s = f.add(acc, d);
            f.mov_to(acc, s);
        });
        let base = fb.ldi(out as i64);
        fb.store8(base, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();

        let expected = voltron_ir::interp::run(&p, 10_000_000).unwrap();
        let flat = inline_all(&p).unwrap();
        verify::verify_function(&flat, None, p.main).unwrap();
        let mem = run_flat(&p, flat);
        assert_eq!(
            mem.load_i64(out).unwrap(),
            expected.memory.load_i64(out).unwrap()
        );
        // sum |i-5| for i in 0..10 = 5+4+3+2+1+0+1+2+3+4 = 25
        assert_eq!(mem.load_i64(out).unwrap(), 25);
    }

    #[test]
    fn nested_calls_fully_flatten() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut g = pb.function("inc");
        let x = g.param(RegClass::Gpr);
        let y = g.add(x, 1i64);
        g.ret_val(y);
        let gid = pb.finish_function(g);
        let mut h = pb.function("inc2");
        let x = h.param(RegClass::Gpr);
        let a = h.call(gid, &[x], Some(RegClass::Gpr)).unwrap();
        let b = h.call(gid, &[a], Some(RegClass::Gpr)).unwrap();
        h.ret_val(b);
        let hid = pb.finish_function(h);
        let mut fb = pb.function("main");
        let v = fb.ldi(40);
        let r = fb.call(hid, &[v], Some(RegClass::Gpr)).unwrap();
        let base = fb.ldi(out as i64);
        fb.store8(base, 0, r);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let flat = inline_all(&p).unwrap();
        assert!(find_call(&flat).is_none());
        let mem = run_flat(&p, flat);
        assert_eq!(mem.load_i64(out).unwrap(), 42);
    }

    #[test]
    fn recursion_is_rejected() {
        // Build manually: f calls itself.
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut fb = pb.function("main");
        // placeholder; will be patched below
        let base = fb.ldi(0);
        let _ = base;
        fb.halt();
        pb.finish_function(fb);
        let mut p = pb.finish();
        // Patch: main calls main.
        let main = p.main;
        p.func_mut(main).blocks[0]
            .insts
            .insert(0, Inst::new(Opcode::Call, vec![Operand::Func(main)]));
        assert!(matches!(inline_all(&p), Err(CompileError::Unsupported(_))));
    }
}
