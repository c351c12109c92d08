//! The reference interpreter (golden model).
//!
//! Runs IR programs directly with sequential semantics. Every simulated
//! machine execution is checked against this interpreter's final memory in
//! the integration tests, and the profiler ([`crate::profile`]) is a thin
//! observer on top of it.

use crate::inst::{Inst, InstRef, Operand};
use crate::mem::{MemError, Memory};
use crate::opcode::Opcode;
use crate::program::{BlockId, FuncId, Function, Program};
use crate::reg::{Reg, RegClass};
use crate::semantics;
use crate::value::Value;
use std::fmt;

/// The step budget every whole-program run shares: the golden run a
/// simulated execution is checked against and the compiler's profiling
/// run use the same one, so a program the oracle accepts never fails to
/// compile with [`InterpError::FuelExhausted`].
pub const GOLDEN_FUEL: u64 = 2_000_000_000;

/// Observation hooks used by the profiler; default implementations are
/// no-ops so plain interpretation pays almost nothing.
pub trait Observer {
    /// Called when control enters a block.
    fn on_block(&mut self, _func: FuncId, _block: BlockId) {}
    /// Called for every executed (non-nullified) load.
    fn on_load(&mut self, _at: InstRef, _addr: u64, _bytes: u64) {}
    /// Called for every executed (non-nullified) store.
    fn on_store(&mut self, _at: InstRef, _addr: u64, _bytes: u64) {}
    /// Called on function entry.
    fn on_call(&mut self, _func: FuncId) {}
    /// Called on function return.
    fn on_ret(&mut self, _func: FuncId) {}
}

/// The do-nothing observer.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoObserver;

impl Observer for NoObserver {}

/// Interpreter failure.
#[derive(Debug, Clone, PartialEq)]
pub enum InterpError {
    /// A memory access faulted.
    Mem(MemError),
    /// The step budget was exhausted (probable infinite loop).
    FuelExhausted {
        /// Steps executed before giving up.
        steps: u64,
    },
    /// The program is malformed (e.g. fell off the end of a function, or
    /// contains machine-only operations).
    BadProgram(String),
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::Mem(e) => write!(f, "memory fault: {e}"),
            InterpError::FuelExhausted { steps } => {
                write!(f, "fuel exhausted after {steps} steps")
            }
            InterpError::BadProgram(m) => write!(f, "bad program: {m}"),
        }
    }
}

impl std::error::Error for InterpError {}

impl From<MemError> for InterpError {
    fn from(e: MemError) -> InterpError {
        InterpError::Mem(e)
    }
}

/// A typed register file (one bank per class).
#[derive(Debug, Clone)]
pub struct RegFile {
    gpr: Vec<i64>,
    fpr: Vec<f64>,
    pred: Vec<bool>,
    btr: Vec<BlockId>,
}

impl RegFile {
    /// Zero-initialized file sized for `counts` registers per class.
    pub fn new(counts: [u32; 4]) -> RegFile {
        RegFile {
            gpr: vec![0; counts[0] as usize],
            fpr: vec![0.0; counts[1] as usize],
            pred: vec![false; counts[2] as usize],
            btr: vec![BlockId(0); counts[3] as usize],
        }
    }

    /// Sized for a function's registers.
    pub fn for_function(f: &Function) -> RegFile {
        RegFile::new(f.reg_counts())
    }

    /// Read a register.
    ///
    /// # Panics
    /// Panics if the register is out of range for its class.
    pub fn read(&self, r: Reg) -> Value {
        match r.class {
            RegClass::Gpr => Value::Int(self.gpr[r.index as usize]),
            RegClass::Fpr => Value::Float(self.fpr[r.index as usize]),
            RegClass::Pred => Value::Pred(self.pred[r.index as usize]),
            RegClass::Btr => Value::Target(self.btr[r.index as usize]),
        }
    }

    /// Write a register.
    ///
    /// # Panics
    /// Panics if the register is out of range or the value class mismatches.
    pub fn write(&mut self, r: Reg, v: Value) {
        match (r.class, v) {
            (RegClass::Gpr, Value::Int(x)) => self.gpr[r.index as usize] = x,
            (RegClass::Fpr, Value::Float(x)) => self.fpr[r.index as usize] = x,
            (RegClass::Pred, Value::Pred(x)) => self.pred[r.index as usize] = x,
            (RegClass::Btr, Value::Target(x)) => self.btr[r.index as usize] = x,
            (c, v) => panic!("class mismatch writing {v:?} to {c:?} register"),
        }
    }
}

struct Frame {
    func: FuncId,
    regs: RegFile,
    block: BlockId,
    index: usize,
    /// Where the caller wants the return value.
    ret_dst: Option<Reg>,
}

/// Result of a successful interpretation.
#[derive(Debug)]
pub struct Outcome {
    /// Final data memory.
    pub memory: Memory,
    /// Dynamic instruction count (including nullified ones).
    pub steps: u64,
}

/// Interpret `program` from `main` with the default observer.
///
/// # Errors
/// See [`InterpError`].
pub fn run(program: &Program, fuel: u64) -> Result<Outcome, InterpError> {
    run_observed(program, fuel, &mut NoObserver)
}

/// Interpret `program`, reporting events to `obs`.
///
/// # Errors
/// See [`InterpError`].
pub fn run_observed<O: Observer + ?Sized>(
    program: &Program,
    fuel: u64,
    obs: &mut O,
) -> Result<Outcome, InterpError> {
    let mut memory = Memory::from_data(&program.data);
    let mut steps: u64 = 0;
    let main = program.main_func();
    let mut stack: Vec<Frame> = vec![Frame {
        func: program.main,
        regs: RegFile::for_function(main),
        block: BlockId(0),
        index: 0,
        ret_dst: None,
    }];
    obs.on_call(program.main);
    obs.on_block(program.main, BlockId(0));

    'outer: loop {
        if steps >= fuel {
            return Err(InterpError::FuelExhausted { steps });
        }
        let depth = stack.len() - 1;
        let (func_id, block, index) = {
            let f = &stack[depth];
            (f.func, f.block, f.index)
        };
        let func = program.func(func_id);
        let blk = &func.blocks[block.idx()];
        if index >= blk.insts.len() {
            // Fall through to the next block in layout order.
            let next = BlockId(block.0 + 1);
            if next.idx() >= func.blocks.len() {
                return Err(InterpError::BadProgram(format!(
                    "fell off the end of function {} at {}",
                    func.name, block
                )));
            }
            let f = &mut stack[depth];
            f.block = next;
            f.index = 0;
            obs.on_block(func_id, next);
            continue;
        }
        let inst = &blk.insts[index];
        steps += 1;
        let at = InstRef {
            func: func_id,
            block,
            index,
        };

        // Guard check: nullified instructions advance the pc and do nothing.
        if let Some(g) = inst.guard {
            if !stack[depth].regs.read(g).as_pred() {
                stack[depth].index += 1;
                continue;
            }
        }

        // Control flow is handled here; everything else in exec_inst.
        match inst.op {
            Opcode::Br | Opcode::Jump => {
                let taken = if inst.op == Opcode::Jump {
                    true
                } else {
                    let p = inst.srcs[1]
                        .as_reg()
                        .ok_or_else(|| InterpError::BadProgram("br without predicate".into()))?;
                    stack[depth].regs.read(p).as_pred()
                };
                if taken {
                    let target = match inst.srcs[0] {
                        Operand::Block(b) => b,
                        Operand::Reg(r) if r.class == RegClass::Btr => {
                            stack[depth].regs.read(r).as_target()
                        }
                        _ => {
                            return Err(InterpError::BadProgram(
                                "branch target is neither block nor btr".into(),
                            ))
                        }
                    };
                    let f = &mut stack[depth];
                    f.block = target;
                    f.index = 0;
                    obs.on_block(func_id, target);
                } else {
                    stack[depth].index += 1;
                }
                continue;
            }
            Opcode::Call => {
                let callee_id = match inst.srcs[0] {
                    Operand::Func(fid) => fid,
                    _ => return Err(InterpError::BadProgram("call without function".into())),
                };
                let callee = program.func(callee_id);
                let mut regs = RegFile::for_function(callee);
                if callee.params.len() != inst.srcs.len() - 1 {
                    return Err(InterpError::BadProgram(format!(
                        "call to {} with {} args, expected {}",
                        callee.name,
                        inst.srcs.len() - 1,
                        callee.params.len()
                    )));
                }
                for (param, arg) in callee.params.iter().zip(inst.srcs[1..].iter()) {
                    let v = eval_operand(&stack[depth].regs, *arg)?;
                    regs.write(*param, v);
                }
                stack[depth].index += 1;
                stack.push(Frame {
                    func: callee_id,
                    regs,
                    block: BlockId(0),
                    index: 0,
                    ret_dst: inst.dst,
                });
                obs.on_call(callee_id);
                obs.on_block(callee_id, BlockId(0));
                continue;
            }
            Opcode::Ret => {
                let retv = match inst.srcs.first() {
                    Some(op) => Some(eval_operand(&stack[depth].regs, *op)?),
                    None => None,
                };
                let frame = stack.pop().expect("frame");
                obs.on_ret(frame.func);
                if stack.is_empty() {
                    return Err(InterpError::BadProgram("ret from main (use halt)".into()));
                }
                if let (Some(dst), Some(v)) = (frame.ret_dst, retv) {
                    let d = stack.len() - 1;
                    stack[d].regs.write(dst, v);
                }
                continue;
            }
            Opcode::Halt => {
                break 'outer;
            }
            _ => {}
        }

        exec_inst(inst, at, &mut stack[depth].regs, &mut memory, obs)?;
        stack[depth].index += 1;
    }

    Ok(Outcome { memory, steps })
}

/// Evaluate a source operand against a register file.
pub fn eval_operand(regs: &RegFile, op: Operand) -> Result<Value, InterpError> {
    match op {
        Operand::Reg(r) => Ok(regs.read(r)),
        Operand::Imm(v) => Ok(Value::Int(v)),
        Operand::FImm(v) => Ok(Value::Float(v)),
        Operand::Block(b) => Ok(Value::Target(b)),
        other => Err(InterpError::BadProgram(format!(
            "operand {other:?} not evaluable in the interpreter"
        ))),
    }
}

/// Execute a non-control, non-call instruction against registers and
/// memory.
///
/// # Errors
/// Returns an error on memory faults or machine-only opcodes.
fn exec_inst<O: Observer + ?Sized>(
    inst: &Inst,
    at: InstRef,
    regs: &mut RegFile,
    memory: &mut Memory,
    obs: &mut O,
) -> Result<(), InterpError> {
    use Opcode::*;
    let get = |i: usize, regs: &RegFile| eval_operand(regs, inst.srcs[i]);
    match inst.op {
        Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar | Min | Max => {
            let a = get(0, regs)?.as_int();
            let b = get(1, regs)?.as_int();
            regs.write(
                inst.dst.expect("alu dst"),
                Value::Int(semantics::int_binop(inst.op, a, b)),
            );
        }
        Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
            let a = get(0, regs)?.as_float();
            let b = get(1, regs)?.as_float();
            regs.write(
                inst.dst.expect("fpu dst"),
                Value::Float(semantics::float_binop(inst.op, a, b)),
            );
        }
        Fabs | Fneg | Fsqrt => {
            let a = get(0, regs)?.as_float();
            regs.write(
                inst.dst.expect("fpu dst"),
                Value::Float(semantics::float_unop(inst.op, a)),
            );
        }
        Mov => {
            let v = get(0, regs)?;
            regs.write(inst.dst.expect("mov dst"), v);
        }
        Ldi => {
            let v = get(0, regs)?.as_int();
            regs.write(inst.dst.expect("ldi dst"), Value::Int(v));
        }
        Fldi => {
            let v = get(0, regs)?.as_float();
            regs.write(inst.dst.expect("fldi dst"), Value::Float(v));
        }
        Cmp(cc) => {
            let a = get(0, regs)?.as_int();
            let b = get(1, regs)?.as_int();
            regs.write(
                inst.dst.expect("cmp dst"),
                Value::Pred(semantics::int_cmp(cc, a, b)),
            );
        }
        Fcmp(cc) => {
            let a = get(0, regs)?.as_float();
            let b = get(1, regs)?.as_float();
            regs.write(
                inst.dst.expect("fcmp dst"),
                Value::Pred(semantics::float_cmp(cc, a, b)),
            );
        }
        Sel => {
            let p = get(0, regs)?.as_pred();
            let v = if p { get(1, regs)? } else { get(2, regs)? };
            regs.write(inst.dst.expect("sel dst"), Value::Int(v.as_int()));
        }
        Fsel => {
            let p = get(0, regs)?.as_pred();
            let v = if p { get(1, regs)? } else { get(2, regs)? };
            regs.write(inst.dst.expect("fsel dst"), Value::Float(v.as_float()));
        }
        PAnd | POr => {
            let a = get(0, regs)?.as_pred();
            let b = get(1, regs)?.as_pred();
            regs.write(
                inst.dst.expect("pred dst"),
                Value::Pred(semantics::pred_binop(inst.op, a, b)),
            );
        }
        PNot => {
            let a = get(0, regs)?.as_pred();
            regs.write(inst.dst.expect("pnot dst"), Value::Pred(!a));
        }
        ItoF => {
            let a = get(0, regs)?.as_int();
            regs.write(
                inst.dst.expect("itof dst"),
                Value::Float(semantics::int_to_float(a)),
            );
        }
        FtoI => {
            let a = get(0, regs)?.as_float();
            regs.write(
                inst.dst.expect("ftoi dst"),
                Value::Int(semantics::float_to_int(a)),
            );
        }
        PtoG => {
            let a = get(0, regs)?.as_pred();
            regs.write(inst.dst.expect("ptog dst"), Value::Int(i64::from(a)));
        }
        GtoP => {
            let a = get(0, regs)?.as_int();
            regs.write(
                inst.dst.expect("gtop dst"),
                Value::Pred(semantics::int_to_pred(a)),
            );
        }
        Load(w, s) => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let addr = base.wrapping_add(off as u64);
            obs.on_load(at, addr, w.bytes());
            let raw = memory.load_uint(addr, w.bytes())?;
            regs.write(
                inst.dst.expect("load dst"),
                Value::Int(semantics::extend_load(raw, w.bytes(), s)),
            );
        }
        Store(w) => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let v = get(2, regs)?.as_int();
            let addr = base.wrapping_add(off as u64);
            obs.on_store(at, addr, w.bytes());
            memory.store_uint(addr, w.bytes(), v as u64)?;
        }
        Fload => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let addr = base.wrapping_add(off as u64);
            obs.on_load(at, addr, 8);
            let v = memory.load_f64(addr)?;
            regs.write(inst.dst.expect("fload dst"), Value::Float(v));
        }
        Fstore => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let v = get(2, regs)?.as_float();
            let addr = base.wrapping_add(off as u64);
            obs.on_store(at, addr, 8);
            memory.store_f64(addr, v)?;
        }
        Fload4 => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let addr = base.wrapping_add(off as u64);
            obs.on_load(at, addr, 4);
            let raw = memory.load_uint(addr, 4)? as u32;
            regs.write(
                inst.dst.expect("fload4 dst"),
                Value::Float(semantics::widen_f32(raw)),
            );
        }
        Fstore4 => {
            let base = get(0, regs)?.as_int() as u64;
            let off = get(1, regs)?.as_int();
            let v = get(2, regs)?.as_float();
            let addr = base.wrapping_add(off as u64);
            obs.on_store(at, addr, 4);
            memory.store_uint(addr, 4, u64::from(semantics::narrow_f32(v)))?;
        }
        Pbr => {
            let t = match inst.srcs[0] {
                Operand::Block(b) => b,
                _ => return Err(InterpError::BadProgram("pbr without block".into())),
            };
            regs.write(inst.dst.expect("pbr dst"), Value::Target(t));
        }
        Nop => {}
        Br | Jump | Call | Ret | Halt => {
            unreachable!("control flow handled by the interpreter loop")
        }
        Put | Get | Bcast | GetB | Send | Recv | Spawn | Sleep | ModeSwitch | Xbegin | Xcommit
        | Xabort => {
            return Err(InterpError::BadProgram(format!(
                "machine-only operation {} in interpreted IR",
                inst.op
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::opcode::CmpCc;

    #[test]
    fn arithmetic_and_store() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let a = f.ldi(6);
        let b = f.ldi(7);
        let c = f.mul(a, b);
        let base = f.ldi(out as i64);
        f.store8(base, 0, c);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let o = run(&p, 1000).unwrap();
        assert_eq!(o.memory.load_i64(out).unwrap(), 42);
    }

    #[test]
    fn counted_loop_sums() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let acc = f.ldi(0);
        f.counted_loop(0i64, 10i64, 1, |f, iv| {
            let s = f.add(acc, iv);
            f.mov_to(acc, s);
        });
        let base = f.ldi(out as i64);
        f.store8(base, 0, acc);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let o = run(&p, 10_000).unwrap();
        assert_eq!(o.memory.load_i64(out).unwrap(), 45);
    }

    #[test]
    fn call_and_return() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        // double(x) = x + x
        let mut g = pb.function("double");
        let x = g.param(RegClass::Gpr);
        let y = g.add(x, x);
        g.ret_val(y);
        let gid = pb.finish_function(g);
        let mut f = pb.function("main");
        let v = f.ldi(21);
        let r = f.call(gid, &[v], Some(RegClass::Gpr)).unwrap();
        let base = f.ldi(out as i64);
        f.store8(base, 0, r);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let o = run(&p, 1000).unwrap();
        assert_eq!(o.memory.load_i64(out).unwrap(), 42);
    }

    #[test]
    fn guarded_inst_is_nullified() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let p0 = f.cmp(CmpCc::Eq, 1i64, 2i64); // false
        let base = f.ldi(out as i64);
        f.emit(
            crate::inst::Inst::new(
                Opcode::Store(crate::opcode::MemWidth::W8),
                vec![base.into(), Operand::Imm(0), Operand::Imm(99)],
            )
            .guarded(p0),
        );
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let o = run(&p, 1000).unwrap();
        assert_eq!(o.memory.load_i64(out).unwrap(), 0);
    }

    #[test]
    fn fuel_exhaustion_detected() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut f = pb.function("main");
        let head = f.label();
        f.bind(head);
        let t = f.cmp(CmpCc::Eq, 0i64, 0i64);
        f.br_if(t, head);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        assert!(matches!(
            run(&p, 100),
            Err(InterpError::FuelExhausted { .. })
        ));
    }

    #[test]
    fn float_pipeline() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let a = f.fldi(2.0);
        let b = f.fldi(8.0);
        let c = f.fmul(a, b);
        let d = f.fsqrt(c);
        let base = f.ldi(out as i64);
        f.fstore(base, 0, d);
        f.halt();
        pb.finish_function(f);
        let p = pb.finish();
        let o = run(&p, 1000).unwrap();
        assert_eq!(o.memory.load_f64(out).unwrap(), 4.0);
    }
}
