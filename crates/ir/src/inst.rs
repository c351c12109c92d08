//! Instructions and operands.

use crate::opcode::{Dir, ExecMode, Opcode};
use crate::program::{BlockId, FuncId};
use crate::reg::Reg;
use std::fmt;

/// An instruction operand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Operand {
    /// A virtual register.
    Reg(Reg),
    /// An integer immediate.
    Imm(i64),
    /// A float immediate.
    FImm(f64),
    /// A basic-block reference (branch target, spawn target).
    Block(BlockId),
    /// A function reference (call target).
    Func(FuncId),
    /// A mesh direction (direct-mode network).
    Dir(Dir),
    /// A core id (queue-mode network, spawn).
    Core(u8),
    /// An execution mode (mode switch).
    Mode(ExecMode),
}

impl Operand {
    /// The register, if this operand is one.
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Operand::Reg(r) => Some(*r),
            _ => None,
        }
    }

    /// The block id, if this operand is one.
    pub fn as_block(&self) -> Option<BlockId> {
        match self {
            Operand::Block(b) => Some(*b),
            _ => None,
        }
    }

    /// The core id, if this operand is one.
    pub fn as_core(&self) -> Option<u8> {
        match self {
            Operand::Core(c) => Some(*c),
            _ => None,
        }
    }
}

impl From<Reg> for Operand {
    fn from(r: Reg) -> Operand {
        Operand::Reg(r)
    }
}

impl From<i64> for Operand {
    fn from(v: i64) -> Operand {
        Operand::Imm(v)
    }
}

impl From<f64> for Operand {
    fn from(v: f64) -> Operand {
        Operand::FImm(v)
    }
}

impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Operand::Reg(r) => write!(f, "{r}"),
            Operand::Imm(v) => write!(f, "{v}"),
            Operand::FImm(v) => write!(f, "{v}f"),
            Operand::Block(b) => write!(f, "bb{}", b.0),
            Operand::Func(x) => write!(f, "fn{}", x.0),
            Operand::Dir(d) => write!(f, "{d}"),
            Operand::Core(c) => write!(f, "core{c}"),
            Operand::Mode(m) => write!(f, "{m}"),
        }
    }
}

/// One IR (or machine) instruction.
///
/// Instructions may carry a guard predicate (HPL-PD style full predication):
/// when the guard evaluates false the instruction is nullified (no result
/// write, no memory or network effect) but still occupies its issue slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Inst {
    /// The operation.
    pub op: Opcode,
    /// Destination register, when the opcode produces a value.
    pub dst: Option<Reg>,
    /// Source operands, per the conventions documented on [`Opcode`].
    pub srcs: Vec<Operand>,
    /// Optional guard predicate register.
    pub guard: Option<Reg>,
}

impl Inst {
    /// Create an instruction with a destination.
    pub fn with_dst(op: Opcode, dst: Reg, srcs: Vec<Operand>) -> Inst {
        Inst {
            op,
            dst: Some(dst),
            srcs,
            guard: None,
        }
    }

    /// Create an instruction without a destination.
    pub fn new(op: Opcode, srcs: Vec<Operand>) -> Inst {
        Inst {
            op,
            dst: None,
            srcs,
            guard: None,
        }
    }

    /// A NOP.
    pub fn nop() -> Inst {
        Inst::new(Opcode::Nop, Vec::new())
    }

    /// Attach a guard predicate (builder style).
    pub fn guarded(mut self, p: Reg) -> Inst {
        self.guard = Some(p);
        self
    }

    /// All registers read by this instruction, sources in order and then
    /// the guard. Allocation-free: the simulator's scoreboard and the
    /// compiler's per-operand tables walk it for every instruction.
    pub fn uses(&self) -> impl Iterator<Item = Reg> + '_ {
        self.srcs
            .iter()
            .filter_map(Operand::as_reg)
            .chain(self.guard)
    }

    /// The register written, if any.
    pub fn def(&self) -> Option<Reg> {
        self.dst
    }

    /// Branch / jump target block, if statically known (IR-level form).
    pub fn static_target(&self) -> Option<BlockId> {
        match self.op {
            Opcode::Br | Opcode::Jump => self.srcs.first().and_then(Operand::as_block),
            Opcode::Pbr => self.srcs.first().and_then(Operand::as_block),
            _ => None,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(g) = self.guard {
            write!(f, "({g}) ")?;
        }
        if let Some(d) = self.dst {
            write!(f, "{d} = ")?;
        }
        write!(f, "{}", self.op)?;
        for (i, s) in self.srcs.iter().enumerate() {
            if i == 0 {
                write!(f, " {s}")?;
            } else {
                write!(f, ", {s}")?;
            }
        }
        Ok(())
    }
}

/// A stable reference to an instruction within a program:
/// (function, block, index within block).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct InstRef {
    /// The containing function.
    pub func: FuncId,
    /// The containing block.
    pub block: BlockId,
    /// Index in the block's instruction vector.
    pub index: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;
    use crate::reg::Reg;

    #[test]
    fn uses_include_guard() {
        let i = Inst::with_dst(
            Opcode::Add,
            Reg::gpr(0),
            vec![Reg::gpr(1).into(), Operand::Imm(3)],
        )
        .guarded(Reg::pred(2));
        assert_eq!(
            i.uses().collect::<Vec<_>>(),
            vec![Reg::gpr(1), Reg::pred(2)]
        );
        assert_eq!(i.def(), Some(Reg::gpr(0)));
    }

    #[test]
    fn display_is_readable() {
        let i = Inst::with_dst(
            Opcode::Add,
            Reg::gpr(0),
            vec![Reg::gpr(1).into(), Operand::Imm(3)],
        );
        assert_eq!(i.to_string(), "r0 = add r1, 3");
    }

    #[test]
    fn static_target_of_jump() {
        let i = Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(4))]);
        assert_eq!(i.static_target(), Some(BlockId(4)));
    }
}
