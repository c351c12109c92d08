//! Lightweight symbol-based alias analysis.
//!
//! The paper leans on Nystrom-style context-sensitive pointer analysis to
//! prune memory dependences. Our programs only address the static data
//! segment, so a much simpler analysis recovers the same facts: every
//! address-producing register is traced (flow-insensitively, to a
//! fixpoint) to the data-segment *symbol* it derives from. Two memory
//! operations may alias only when their symbols may coincide.

use voltron_ir::hash::IntMap;
use voltron_ir::{Function, Opcode, Operand, Program, Reg};

/// Where an address value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Not yet known (bottom).
    Unknown,
    /// Derived from exactly one data symbol (index into
    /// `program.data.symbols`).
    Symbol(usize),
    /// Derived from several symbols or from non-address arithmetic (top).
    Any,
}

impl Origin {
    fn join(self, other: Origin) -> Origin {
        match (self, other) {
            (Origin::Unknown, x) | (x, Origin::Unknown) => x,
            (Origin::Symbol(a), Origin::Symbol(b)) if a == b => Origin::Symbol(a),
            _ => Origin::Any,
        }
    }

    /// Whether addresses of these two origins may coincide.
    pub fn may_alias(self, other: Origin) -> bool {
        match (self, other) {
            (Origin::Symbol(x), Origin::Symbol(y)) => x == y,
            _ => true,
        }
    }
}

/// Alias facts for one function.
#[derive(Debug, Clone)]
pub struct AliasAnalysis {
    origins: IntMap<Reg, Origin>,
}

impl AliasAnalysis {
    /// Analyze `f` against `program`'s data segment.
    pub fn analyze(program: &Program, f: &Function) -> AliasAnalysis {
        let mut origins: IntMap<Reg, Origin> = IntMap::default();
        let symbol_of_addr = |v: i64| -> Origin {
            let addr = v as u64;
            match program.data.symbols.iter().position(|s| {
                let base = voltron_ir::DataSegment::BASE + s.offset;
                addr >= base && addr < base + s.size.max(1)
            }) {
                Some(i) => Origin::Symbol(i),
                None => Origin::Any,
            }
        };
        let mut changed = true;
        while changed {
            changed = false;
            for b in &f.blocks {
                for inst in &b.insts {
                    let Some(d) = inst.dst else { continue };
                    if d.class != voltron_ir::RegClass::Gpr {
                        continue;
                    }
                    let operand_origin = |op: &Operand, origins: &IntMap<Reg, Origin>| match op {
                        Operand::Imm(v) => symbol_of_addr(*v),
                        Operand::Reg(r) => origins.get(r).copied().unwrap_or(Origin::Unknown),
                        _ => Origin::Any,
                    };
                    let new = match inst.op {
                        Opcode::Ldi => operand_origin(&inst.srcs[0], &origins),
                        Opcode::Mov => operand_origin(&inst.srcs[0], &origins),
                        // Pointer arithmetic: base +- computed offset keeps
                        // the base's origin when exactly one side is an
                        // address.
                        Opcode::Add | Opcode::Sub => {
                            let a = operand_origin(&inst.srcs[0], &origins);
                            let b2 = operand_origin(&inst.srcs[1], &origins);
                            match (a, b2) {
                                (Origin::Symbol(s), Origin::Any | Origin::Unknown) => {
                                    Origin::Symbol(s)
                                }
                                (Origin::Any | Origin::Unknown, Origin::Symbol(s)) => {
                                    Origin::Symbol(s)
                                }
                                (Origin::Symbol(_), Origin::Symbol(_)) => Origin::Any,
                                (Origin::Unknown, Origin::Unknown) => Origin::Unknown,
                                _ => Origin::Any,
                            }
                        }
                        Opcode::Sel => {
                            let a = operand_origin(&inst.srcs[1], &origins);
                            let b2 = operand_origin(&inst.srcs[2], &origins);
                            a.join(b2)
                        }
                        // Loads of pointers from memory, shifts, etc.:
                        // conservatively Any.
                        _ => Origin::Any,
                    };
                    let cur = origins.get(&d).copied().unwrap_or(Origin::Unknown);
                    let joined = cur.join(new);
                    if joined != cur {
                        origins.insert(d, joined);
                        changed = true;
                    }
                }
            }
        }
        AliasAnalysis { origins }
    }

    /// Origin of the address in `base_reg`.
    fn origin(&self, base_reg: Reg) -> Origin {
        self.origins.get(&base_reg).copied().unwrap_or(Origin::Any)
    }

    /// Origin of a memory instruction's address (its first source).
    pub fn mem_origin(&self, inst: &voltron_ir::Inst) -> Origin {
        debug_assert!(inst.op.is_mem());
        match inst.srcs.first() {
            Some(Operand::Reg(r)) => self.origin(*r),
            _ => Origin::Any,
        }
    }

    /// Whether two memory instructions may touch the same memory.
    pub fn may_alias(&self, a: &voltron_ir::Inst, b: &voltron_ir::Inst) -> bool {
        self.mem_origin(a).may_alias(self.mem_origin(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;

    #[test]
    fn distinct_arrays_do_not_alias() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 64);
        let b = pb.data_mut().zeroed("b", 64);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let idx = fb.ldi(8);
        let pa = fb.add(ba, idx);
        let pb2 = fb.add(bb, idx);
        let va = fb.load8(pa, 0);
        fb.store8(pb2, 0, va);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let aa = AliasAnalysis::analyze(&p, f);
        let insts = &f.blocks[0].insts;
        let load = insts.iter().find(|i| i.op.is_load()).unwrap();
        let store = insts.iter().find(|i| i.op.is_store()).unwrap();
        assert!(!aa.may_alias(load, store));
        assert!(aa.may_alias(load, load));
    }

    #[test]
    fn merged_pointers_are_conservative() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 64);
        let b = pb.data_mut().zeroed("b", 64);
        let mut fb = pb.function("main");
        let ba = fb.ldi(a as i64);
        let bb = fb.ldi(b as i64);
        let p0 = fb.cmp(voltron_ir::CmpCc::Lt, 1i64, 2i64);
        let sel = fb.sel(p0, ba, bb); // could be either array
        let v = fb.load8(sel, 0);
        fb.store8(ba, 0, v);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let aa = AliasAnalysis::analyze(&p, f);
        let insts = &f.blocks[0].insts;
        let load = insts.iter().find(|i| i.op.is_load()).unwrap();
        let store = insts.iter().find(|i| i.op.is_store()).unwrap();
        assert!(aa.may_alias(load, store));
    }
}
