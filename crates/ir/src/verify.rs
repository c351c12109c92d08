//! IR well-formedness checking.
//!
//! The verifier catches malformed programs at construction time (workload
//! bugs) and after each compiler pass (compiler bugs): operand-count and
//! class mismatches, branches into nowhere, terminators in the middle of
//! blocks, and references to unknown functions.

use crate::inst::{Inst, Operand};
use crate::opcode::Opcode;
use crate::program::{BlockId, FuncId, Function, Program};
use crate::reg::RegClass;
use std::fmt;

/// A verification failure, with location context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyError {
    /// Containing function name.
    pub func: String,
    /// Containing block.
    pub block: BlockId,
    /// Instruction index within the block.
    pub index: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verify error in {} {} inst {}: {}",
            self.func, self.block, self.index, self.message
        )
    }
}

impl std::error::Error for VerifyError {}

/// Verify a whole program.
///
/// # Errors
/// Returns the first problem found.
pub fn verify_program(p: &Program) -> Result<(), VerifyError> {
    for (fi, f) in p.funcs.iter().enumerate() {
        verify_function(f, Some(p), FuncId(fi as u32))?;
    }
    Ok(())
}

/// Verify one function. When `program` is provided, call targets and arity
/// are checked too.
///
/// # Errors
/// Returns the first problem found.
pub fn verify_function(
    f: &Function,
    program: Option<&Program>,
    _id: FuncId,
) -> Result<(), VerifyError> {
    let nblocks = f.blocks.len();
    let err = |block: BlockId, index: usize, message: String| VerifyError {
        func: f.name.clone(),
        block,
        index,
        message,
    };
    if nblocks == 0 {
        return Err(err(BlockId(0), 0, "function has no blocks".into()));
    }
    for (bid, b) in f.iter_blocks() {
        for (i, inst) in b.insts.iter().enumerate() {
            // Terminators other than Br must be last; Br may be followed
            // only by an unconditional Jump (branch ladder tail).
            if inst.op.ends_block() && i + 1 != b.insts.len() {
                return Err(err(bid, i, format!("{} not at end of block", inst.op)));
            }
            if inst.op == Opcode::Br {
                let rest = &b.insts[i + 1..];
                let ok = rest.is_empty()
                    || (rest.len() == 1 && rest[0].op == Opcode::Jump)
                    || rest
                        .iter()
                        .all(|x| x.op == Opcode::Br || x.op == Opcode::Jump);
                if !ok {
                    return Err(err(bid, i, "instructions after conditional branch".into()));
                }
            }
            check_inst(inst, program).map_err(|m| err(bid, i, m))?;
            // Branch targets in range.
            if let Some(t) = inst.static_target() {
                if t.idx() >= nblocks {
                    return Err(err(bid, i, format!("branch target {t} out of range")));
                }
            }
        }
        // The last block must not fall off the end of the function.
        if bid.idx() + 1 == nblocks && b.falls_through() {
            return Err(err(bid, b.insts.len(), "last block falls through".into()));
        }
    }
    Ok(())
}

/// Per-instruction shape and register-class check with no surrounding
/// function or program context: the subset of the grammar meaningful for
/// lowered machine code, where calls are gone (`CALL`/`RET` are errors) and
/// branch targets are core-image block indices checked elsewhere. The
/// simulator's mcode validator reuses this so the grammar lives in one place.
///
/// # Errors
/// Returns a description of the first shape or class violation.
pub fn check_mcode_inst(inst: &Inst) -> Result<(), String> {
    if matches!(inst.op, Opcode::Call | Opcode::Ret) {
        let why = "survives lowering (calls must be inlined)";
        return Err(format!("{} {why}", inst.op));
    }
    check_inst(inst, None)
}

fn class_of(op: Operand) -> Option<RegClass> {
    match op {
        Operand::Reg(r) => Some(r.class),
        Operand::Imm(_) => Some(RegClass::Gpr),
        Operand::FImm(_) => Some(RegClass::Fpr),
        Operand::Block(_) => Some(RegClass::Btr),
        _ => None,
    }
}

fn expect_srcs(inst: &Inst, n: usize) -> Result<(), String> {
    if inst.srcs.len() != n {
        return Err(format!(
            "{} expects {} sources, found {}",
            inst.op,
            n,
            inst.srcs.len()
        ));
    }
    Ok(())
}

fn expect_dst(inst: &Inst, class: RegClass) -> Result<(), String> {
    match inst.dst {
        Some(d) if d.class == class => Ok(()),
        Some(d) => Err(format!(
            "{} expects {class} destination, found {}",
            inst.op, d.class
        )),
        None => Err(format!("{} requires a destination", inst.op)),
    }
}

fn expect_src_class(inst: &Inst, i: usize, class: RegClass) -> Result<(), String> {
    match class_of(inst.srcs[i]) {
        Some(c) if c == class => Ok(()),
        other => Err(format!(
            "{} source {i} must be {class}, found {other:?}",
            inst.op
        )),
    }
}

fn check_inst(inst: &Inst, program: Option<&Program>) -> Result<(), String> {
    use Opcode::*;
    if let Some(g) = inst.guard {
        if g.class != RegClass::Pred {
            return Err("guard must be a predicate register".into());
        }
    }
    match inst.op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar | Min | Max => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Gpr)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            expect_src_class(inst, 1, RegClass::Gpr)?;
        }
        Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Fpr)?;
            expect_src_class(inst, 0, RegClass::Fpr)?;
            expect_src_class(inst, 1, RegClass::Fpr)?;
        }
        Fabs | Fneg | Fsqrt => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Fpr)?;
            expect_src_class(inst, 0, RegClass::Fpr)?;
        }
        Mov => {
            expect_srcs(inst, 1)?;
            let d = inst.dst.ok_or("mov requires a destination")?;
            expect_src_class(inst, 0, d.class)?;
        }
        Ldi => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Gpr)?;
            if !matches!(inst.srcs[0], Operand::Imm(_)) {
                return Err("ldi requires an integer immediate".into());
            }
        }
        Fldi => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Fpr)?;
            if !matches!(inst.srcs[0], Operand::FImm(_)) {
                return Err("fldi requires a float immediate".into());
            }
        }
        Cmp(_) => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Pred)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            expect_src_class(inst, 1, RegClass::Gpr)?;
        }
        Fcmp(_) => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Pred)?;
            expect_src_class(inst, 0, RegClass::Fpr)?;
            expect_src_class(inst, 1, RegClass::Fpr)?;
        }
        Sel => {
            expect_srcs(inst, 3)?;
            expect_dst(inst, RegClass::Gpr)?;
            expect_src_class(inst, 0, RegClass::Pred)?;
            expect_src_class(inst, 1, RegClass::Gpr)?;
            expect_src_class(inst, 2, RegClass::Gpr)?;
        }
        Fsel => {
            expect_srcs(inst, 3)?;
            expect_dst(inst, RegClass::Fpr)?;
            expect_src_class(inst, 0, RegClass::Pred)?;
            expect_src_class(inst, 1, RegClass::Fpr)?;
            expect_src_class(inst, 2, RegClass::Fpr)?;
        }
        PAnd | POr => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Pred)?;
            expect_src_class(inst, 0, RegClass::Pred)?;
            expect_src_class(inst, 1, RegClass::Pred)?;
        }
        PNot => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Pred)?;
            expect_src_class(inst, 0, RegClass::Pred)?;
        }
        ItoF => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Fpr)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
        }
        FtoI => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Gpr)?;
            expect_src_class(inst, 0, RegClass::Fpr)?;
        }
        PtoG => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Gpr)?;
            expect_src_class(inst, 0, RegClass::Pred)?;
        }
        GtoP => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Pred)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
        }
        Load(..) => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Gpr)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            if !matches!(inst.srcs[1], Operand::Imm(_)) {
                return Err("load offset must be an immediate".into());
            }
        }
        Store(_) => {
            expect_srcs(inst, 3)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            if !matches!(inst.srcs[1], Operand::Imm(_)) {
                return Err("store offset must be an immediate".into());
            }
            expect_src_class(inst, 2, RegClass::Gpr)?;
        }
        Fload | Fload4 => {
            expect_srcs(inst, 2)?;
            expect_dst(inst, RegClass::Fpr)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            if !matches!(inst.srcs[1], Operand::Imm(_)) {
                return Err("load offset must be an immediate".into());
            }
        }
        Fstore | Fstore4 => {
            expect_srcs(inst, 3)?;
            expect_src_class(inst, 0, RegClass::Gpr)?;
            if !matches!(inst.srcs[1], Operand::Imm(_)) {
                return Err("store offset must be an immediate".into());
            }
            expect_src_class(inst, 2, RegClass::Fpr)?;
        }
        Pbr => {
            expect_srcs(inst, 1)?;
            expect_dst(inst, RegClass::Btr)?;
            if !matches!(inst.srcs[0], Operand::Block(_)) {
                return Err("pbr requires a block operand".into());
            }
        }
        Br => {
            expect_srcs(inst, 2)?;
            match inst.srcs[0] {
                Operand::Block(_) => {}
                Operand::Reg(r) if r.class == RegClass::Btr => {}
                _ => return Err("br target must be a block or btr".into()),
            }
            expect_src_class(inst, 1, RegClass::Pred)?;
        }
        Jump => {
            expect_srcs(inst, 1)?;
            match inst.srcs[0] {
                Operand::Block(_) => {}
                Operand::Reg(r) if r.class == RegClass::Btr => {}
                _ => return Err("jump target must be a block or btr".into()),
            }
        }
        Call => {
            if inst.srcs.is_empty() {
                return Err("call requires a function operand".into());
            }
            let fid = match inst.srcs[0] {
                Operand::Func(x) => x,
                _ => return Err("call requires a function operand".into()),
            };
            if let Some(p) = program {
                if fid.idx() >= p.funcs.len() {
                    return Err(format!("call to unknown function fn{}", fid.0));
                }
                let callee = p.func(fid);
                if callee.params.len() != inst.srcs.len() - 1 {
                    return Err(format!(
                        "call to {} with {} args, expected {}",
                        callee.name,
                        inst.srcs.len() - 1,
                        callee.params.len()
                    ));
                }
                for (param, arg) in callee.params.iter().zip(inst.srcs[1..].iter()) {
                    match class_of(*arg) {
                        Some(c) if c == param.class => {}
                        other => {
                            return Err(format!(
                                "call argument class {other:?} does not match parameter {param}"
                            ))
                        }
                    }
                }
            }
        }
        Ret => {
            if inst.srcs.len() > 1 {
                return Err("ret takes at most one value".into());
            }
        }
        Halt | Nop | Sleep | Xcommit | Xabort => {
            expect_srcs(inst, 0)?;
        }
        Put => {
            expect_srcs(inst, 2)?;
            class_of(inst.srcs[0]).ok_or("put value must be a register or immediate")?;
            if !matches!(inst.srcs[1], Operand::Dir(_)) {
                return Err("put requires a direction".into());
            }
        }
        Get => {
            expect_srcs(inst, 1)?;
            if inst.dst.is_none() {
                return Err("get requires a destination".into());
            }
            if !matches!(inst.srcs[0], Operand::Dir(_)) {
                return Err("get requires a direction".into());
            }
        }
        Bcast => {
            expect_srcs(inst, 1)?;
            class_of(inst.srcs[0]).ok_or("bcast value must be a register or immediate")?;
        }
        GetB => {
            expect_srcs(inst, 0)?;
            if inst.dst.is_none() {
                return Err("getb requires a destination".into());
            }
        }
        Send => {
            if inst.srcs.len() != 2 && inst.srcs.len() != 3 {
                return Err("send takes value, core, and an optional tag".into());
            }
            class_of(inst.srcs[0]).ok_or("send value must be a register or immediate")?;
            if !matches!(inst.srcs[1], Operand::Core(_)) {
                return Err("send requires a core operand".into());
            }
            if inst.srcs.len() == 3 && !matches!(inst.srcs[2], Operand::Imm(_)) {
                return Err("send tag must be an immediate".into());
            }
        }
        Recv => {
            if inst.srcs.len() != 1 && inst.srcs.len() != 2 {
                return Err("recv takes core and an optional tag".into());
            }
            if inst.dst.is_none() {
                return Err("recv requires a destination".into());
            }
            if !matches!(inst.srcs[0], Operand::Core(_)) {
                return Err("recv requires a core operand".into());
            }
            if inst.srcs.len() == 2 && !matches!(inst.srcs[1], Operand::Imm(_)) {
                return Err("recv tag must be an immediate".into());
            }
        }
        Spawn => {
            expect_srcs(inst, 2)?;
            if !matches!(inst.srcs[0], Operand::Core(_)) {
                return Err("spawn requires a core operand".into());
            }
            if !matches!(inst.srcs[1], Operand::Block(_)) {
                return Err("spawn requires a block operand".into());
            }
        }
        ModeSwitch => {
            expect_srcs(inst, 1)?;
            if !matches!(inst.srcs[0], Operand::Mode(_)) {
                return Err("mode switch requires a mode operand".into());
            }
        }
        Xbegin => {
            expect_srcs(inst, 1)?;
            // The chunk order is an integer (immediate or GPR).
            expect_src_class(inst, 0, RegClass::Gpr)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::reg::Reg;

    fn ok_program() -> Program {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("d", 8);
        let mut f = pb.function("main");
        let a = f.ldi(1);
        let b = f.ldi(2);
        let c = f.add(a, b);
        let base = f.ldi(crate::program::DataSegment::BASE as i64);
        f.store8(base, 0, c);
        f.halt();
        pb.finish_function(f);
        pb.finish()
    }

    #[test]
    fn valid_program_verifies() {
        assert!(verify_program(&ok_program()).is_ok());
    }

    #[test]
    fn class_mismatch_is_caught() {
        let mut p = ok_program();
        // Corrupt: add with a float source.
        p.funcs[0].blocks[0].insts[2].srcs[0] = Operand::Reg(Reg::fpr(0));
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("must be gpr"));
    }

    #[test]
    fn misplaced_terminator_is_caught() {
        let mut p = ok_program();
        let halt = Inst::new(Opcode::Halt, vec![]);
        p.funcs[0].blocks[0].insts.insert(0, halt);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("not at end"));
    }

    #[test]
    fn out_of_range_branch_is_caught() {
        let mut p = ok_program();
        let n = p.funcs[0].blocks[0].insts.len();
        p.funcs[0].blocks[0].insts[n - 1] =
            Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(99))]);
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("out of range"));
    }

    #[test]
    fn falling_off_function_is_caught() {
        let mut p = ok_program();
        p.funcs[0].blocks[0].insts.pop(); // remove halt
        let e = verify_program(&p).unwrap_err();
        assert!(e.message.contains("falls through"));
    }
}
