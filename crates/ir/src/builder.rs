//! Ergonomic program construction.
//!
//! [`FunctionBuilder`] provides one method per common operation, allocates
//! virtual registers automatically, and supports forward-referenced labels
//! and structured loop helpers. `voltron-workloads` uses it to express the
//! benchmark kernels.
//!
//! Labels are symbolic during construction and resolved to [`BlockId`]s in
//! binding order when the function is finished.

use crate::inst::{Inst, Operand};
use crate::opcode::{CmpCc, MemWidth, Opcode, Signedness};
use crate::program::{Block, BlockId, DataSegment, FuncId, Function, Program};
use crate::reg::{Reg, RegClass};

/// A forward-referencable block label.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Builds one function.
#[derive(Debug)]
pub struct FunctionBuilder {
    name: String,
    params: Vec<Reg>,
    /// Blocks in layout (binding) order; the instruction stream under
    /// construction goes into the last one.
    blocks: Vec<Block>,
    /// For each bound label (by raw id), the layout index it was bound to.
    bound: Vec<Option<u32>>,
    next_reg: [u32; 4],
}

impl FunctionBuilder {
    /// Start building a function. The entry block is open immediately.
    pub fn new(name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::default()],
            bound: Vec::new(),
            next_reg: [0; 4],
        }
    }

    /// Declare a parameter of the given class.
    pub fn param(&mut self, class: RegClass) -> Reg {
        let r = self.fresh(class);
        self.params.push(r);
        r
    }

    /// Allocate a fresh register.
    pub fn fresh(&mut self, class: RegClass) -> Reg {
        let i = self.next_reg[class.index()];
        self.next_reg[class.index()] += 1;
        Reg { class, index: i }
    }

    /// Create a new (unbound) label for forward references.
    pub fn label(&mut self) -> Label {
        self.bound.push(None);
        Label(self.bound.len() as u32 - 1)
    }

    /// Bind `label` here: subsequent instructions go into a new block that
    /// control reaches by jumping to the label (or by fallthrough from the
    /// previous block).
    ///
    /// # Panics
    /// Panics if the label was already bound.
    pub fn bind(&mut self, label: Label) {
        assert!(self.bound[label.0 as usize].is_none(), "label bound twice");
        self.blocks.push(Block::default());
        self.bound[label.0 as usize] = Some(self.blocks.len() as u32 - 1);
    }

    /// Emit a raw instruction (escape hatch).
    pub fn emit(&mut self, inst: Inst) {
        self.blocks
            .last_mut()
            .expect("at least entry block")
            .insts
            .push(inst);
    }

    fn emit_val(&mut self, op: Opcode, class: RegClass, srcs: Vec<Operand>) -> Reg {
        let d = self.fresh(class);
        self.emit(Inst::with_dst(op, d, srcs));
        d
    }

    // ---- constants and moves ----

    /// Load an integer constant.
    pub fn ldi(&mut self, v: i64) -> Reg {
        self.emit_val(Opcode::Ldi, RegClass::Gpr, vec![Operand::Imm(v)])
    }

    /// Load a float constant.
    pub fn fldi(&mut self, v: f64) -> Reg {
        self.emit_val(Opcode::Fldi, RegClass::Fpr, vec![Operand::FImm(v)])
    }

    /// Copy a register (same class).
    pub fn mov(&mut self, src: Reg) -> Reg {
        self.emit_val(Opcode::Mov, src.class, vec![src.into()])
    }

    /// Copy into an existing register (same class).
    pub fn mov_to(&mut self, dst: Reg, src: impl Into<Operand>) {
        let src = src.into();
        let op = match dst.class {
            RegClass::Gpr => {
                if let Operand::Imm(_) = src {
                    Opcode::Ldi
                } else {
                    Opcode::Mov
                }
            }
            RegClass::Fpr => {
                if let Operand::FImm(_) = src {
                    Opcode::Fldi
                } else {
                    Opcode::Mov
                }
            }
            _ => Opcode::Mov,
        };
        self.emit(Inst::with_dst(op, dst, vec![src]));
    }

    // ---- integer ALU ----

    fn binop(&mut self, op: Opcode, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_val(op, RegClass::Gpr, vec![a.into(), b.into()])
    }

    /// `a + b`.
    pub fn add(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Add, a, b)
    }

    /// `a - b`.
    pub fn sub(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Sub, a, b)
    }

    /// `a * b`.
    pub fn mul(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Mul, a, b)
    }

    /// `a / b` (0 on division by zero).
    pub fn div(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Div, a, b)
    }

    /// `a % b` (0 on remainder by zero).
    pub fn rem(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Rem, a, b)
    }

    /// Bitwise and.
    pub fn and(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::And, a, b)
    }

    /// Bitwise or.
    pub fn or(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Or, a, b)
    }

    /// Bitwise xor.
    pub fn xor(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Xor, a, b)
    }

    /// Shift left.
    pub fn shl(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Shl, a, b)
    }

    /// Logical shift right.
    pub fn shr(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Shr, a, b)
    }

    /// Arithmetic shift right.
    pub fn sar(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Sar, a, b)
    }

    /// Signed minimum.
    pub fn min(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Min, a, b)
    }

    /// Signed maximum.
    pub fn max(&mut self, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.binop(Opcode::Max, a, b)
    }

    // ---- compare / select / predicates ----

    /// Integer compare producing a predicate.
    pub fn cmp(&mut self, cc: CmpCc, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_val(Opcode::Cmp(cc), RegClass::Pred, vec![a.into(), b.into()])
    }

    /// Float compare producing a predicate.
    pub fn fcmp(&mut self, cc: CmpCc, a: Reg, b: Reg) -> Reg {
        self.emit_val(Opcode::Fcmp(cc), RegClass::Pred, vec![a.into(), b.into()])
    }

    /// `p ? a : b` over integers.
    pub fn sel(&mut self, p: Reg, a: impl Into<Operand>, b: impl Into<Operand>) -> Reg {
        self.emit_val(
            Opcode::Sel,
            RegClass::Gpr,
            vec![p.into(), a.into(), b.into()],
        )
    }

    /// `p ? a : b` over floats.
    pub fn fsel(&mut self, p: Reg, a: Reg, b: Reg) -> Reg {
        self.emit_val(
            Opcode::Fsel,
            RegClass::Fpr,
            vec![p.into(), a.into(), b.into()],
        )
    }

    /// Predicate and.
    pub fn pand(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit_val(Opcode::PAnd, RegClass::Pred, vec![a.into(), b.into()])
    }

    /// Predicate or.
    pub fn por(&mut self, a: Reg, b: Reg) -> Reg {
        self.emit_val(Opcode::POr, RegClass::Pred, vec![a.into(), b.into()])
    }

    /// Predicate not.
    pub fn pnot(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::PNot, RegClass::Pred, vec![a.into()])
    }

    // ---- conversions ----

    /// Int to float.
    pub fn itof(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::ItoF, RegClass::Fpr, vec![a.into()])
    }

    /// Float to int (truncating).
    pub fn ftoi(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::FtoI, RegClass::Gpr, vec![a.into()])
    }

    /// Predicate to int (0/1).
    pub fn ptog(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::PtoG, RegClass::Gpr, vec![a.into()])
    }

    /// Int to predicate (nonzero).
    pub fn gtop(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::GtoP, RegClass::Pred, vec![a.into()])
    }

    // ---- floating point ----

    fn fbinop(&mut self, op: Opcode, a: Reg, b: Reg) -> Reg {
        self.emit_val(op, RegClass::Fpr, vec![a.into(), b.into()])
    }

    /// Float add.
    pub fn fadd(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fadd, a, b)
    }

    /// Float subtract.
    pub fn fsub(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fsub, a, b)
    }

    /// Float multiply.
    pub fn fmul(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fmul, a, b)
    }

    /// Float divide.
    pub fn fdiv(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fdiv, a, b)
    }

    /// Float minimum.
    pub fn fmin(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fmin, a, b)
    }

    /// Float maximum.
    pub fn fmax(&mut self, a: Reg, b: Reg) -> Reg {
        self.fbinop(Opcode::Fmax, a, b)
    }

    /// Float absolute value.
    pub fn fabs(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::Fabs, RegClass::Fpr, vec![a.into()])
    }

    /// Float negate.
    pub fn fneg(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::Fneg, RegClass::Fpr, vec![a.into()])
    }

    /// Float square root.
    pub fn fsqrt(&mut self, a: Reg) -> Reg {
        self.emit_val(Opcode::Fsqrt, RegClass::Fpr, vec![a.into()])
    }

    // ---- memory ----

    fn load(&mut self, w: MemWidth, s: Signedness, base: Reg, off: i64) -> Reg {
        self.emit_val(
            Opcode::Load(w, s),
            RegClass::Gpr,
            vec![base.into(), Operand::Imm(off)],
        )
    }

    /// Load a signed 64-bit value.
    pub fn load8(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W8, Signedness::Signed, base, off)
    }

    /// Load a signed 32-bit value.
    pub fn load4(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W4, Signedness::Signed, base, off)
    }

    /// Load an unsigned 32-bit value.
    pub fn load4u(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W4, Signedness::Unsigned, base, off)
    }

    /// Load a signed 16-bit value.
    pub fn load2(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W2, Signedness::Signed, base, off)
    }

    /// Load an unsigned 16-bit value.
    pub fn load2u(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W2, Signedness::Unsigned, base, off)
    }

    /// Load a signed 8-bit value.
    pub fn load1(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W1, Signedness::Signed, base, off)
    }

    /// Load an unsigned 8-bit value.
    pub fn load1u(&mut self, base: Reg, off: i64) -> Reg {
        self.load(MemWidth::W1, Signedness::Unsigned, base, off)
    }

    /// Load an `f64`.
    pub fn fload(&mut self, base: Reg, off: i64) -> Reg {
        self.emit_val(
            Opcode::Fload,
            RegClass::Fpr,
            vec![base.into(), Operand::Imm(off)],
        )
    }

    fn store(&mut self, w: MemWidth, base: Reg, off: i64, v: impl Into<Operand>) {
        self.emit(Inst::new(
            Opcode::Store(w),
            vec![base.into(), Operand::Imm(off), v.into()],
        ));
    }

    /// Store 64 bits.
    pub fn store8(&mut self, base: Reg, off: i64, v: impl Into<Operand>) {
        self.store(MemWidth::W8, base, off, v)
    }

    /// Store 32 bits.
    pub fn store4(&mut self, base: Reg, off: i64, v: impl Into<Operand>) {
        self.store(MemWidth::W4, base, off, v)
    }

    /// Store 16 bits.
    pub fn store2(&mut self, base: Reg, off: i64, v: impl Into<Operand>) {
        self.store(MemWidth::W2, base, off, v)
    }

    /// Store 8 bits.
    pub fn store1(&mut self, base: Reg, off: i64, v: impl Into<Operand>) {
        self.store(MemWidth::W1, base, off, v)
    }

    /// Store an `f64`.
    pub fn fstore(&mut self, base: Reg, off: i64, v: Reg) {
        self.emit(Inst::new(
            Opcode::Fstore,
            vec![base.into(), Operand::Imm(off), v.into()],
        ));
    }

    // ---- control flow ----

    /// Branch to `label` if `p` is true (fallthrough otherwise).
    pub fn br_if(&mut self, p: Reg, label: Label) {
        self.emit(Inst::new(
            Opcode::Br,
            vec![Operand::Block(BlockId(label.0)), p.into()],
        ));
        self.blocks.push(Block::default());
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) {
        self.emit(Inst::new(
            Opcode::Jump,
            vec![Operand::Block(BlockId(label.0))],
        ));
        self.blocks.push(Block::default());
    }

    /// Call `func` with `args`; returns the result register if
    /// `ret_class` is given.
    pub fn call(&mut self, func: FuncId, args: &[Reg], ret_class: Option<RegClass>) -> Option<Reg> {
        let mut srcs: Vec<Operand> = vec![Operand::Func(func)];
        srcs.extend(args.iter().map(|r| Operand::Reg(*r)));
        match ret_class {
            Some(c) => {
                let d = self.fresh(c);
                self.emit(Inst::with_dst(Opcode::Call, d, srcs));
                Some(d)
            }
            None => {
                self.emit(Inst::new(Opcode::Call, srcs));
                None
            }
        }
    }

    /// Return without a value.
    pub fn ret(&mut self) {
        self.emit(Inst::new(Opcode::Ret, vec![]));
        self.blocks.push(Block::default());
    }

    /// Return a value.
    pub fn ret_val(&mut self, v: Reg) {
        self.emit(Inst::new(Opcode::Ret, vec![v.into()]));
        self.blocks.push(Block::default());
    }

    /// Halt the machine (end of `main`).
    pub fn halt(&mut self) {
        self.emit(Inst::new(Opcode::Halt, vec![]));
        self.blocks.push(Block::default());
    }

    // ---- canonical reductions ----
    //
    // These emit the single-instruction accumulation form
    // `acc = op acc, v` that the statistical-DOALL detector recognizes
    // for accumulator expansion. Prefer them over `mov_to(acc, add(...))`
    // in reduction loops.

    /// `acc += v` in the canonical reduction form.
    pub fn reduce_add(&mut self, acc: Reg, v: impl Into<Operand>) {
        self.emit(Inst::with_dst(Opcode::Add, acc, vec![acc.into(), v.into()]));
    }

    /// `acc = min(acc, v)` in the canonical reduction form.
    pub fn reduce_min(&mut self, acc: Reg, v: impl Into<Operand>) {
        self.emit(Inst::with_dst(Opcode::Min, acc, vec![acc.into(), v.into()]));
    }

    /// `acc = max(acc, v)` in the canonical reduction form.
    pub fn reduce_max(&mut self, acc: Reg, v: impl Into<Operand>) {
        self.emit(Inst::with_dst(Opcode::Max, acc, vec![acc.into(), v.into()]));
    }

    /// `acc += v` over floats in the canonical reduction form.
    pub fn reduce_fadd(&mut self, acc: Reg, v: Reg) {
        self.emit(Inst::with_dst(
            Opcode::Fadd,
            acc,
            vec![acc.into(), v.into()],
        ));
    }

    // ---- structured loop helpers ----

    /// Build a canonical counted loop `for (iv = start; iv < bound;
    /// iv += step) body(iv)` in the exact shape the DOALL detector
    /// recognizes: preheader init, header compare + exit branch, body,
    /// latch increment + back jump.
    ///
    /// `start`, `bound`, and `step` must be loop-invariant operands
    /// (`step` a positive immediate).
    pub fn counted_loop(
        &mut self,
        start: impl Into<Operand>,
        bound: impl Into<Operand>,
        step: i64,
        body: impl FnOnce(&mut FunctionBuilder, Reg),
    ) {
        assert!(step > 0, "counted_loop requires a positive step");
        let iv = self.fresh(RegClass::Gpr);
        self.mov_to(iv, start);
        let header = self.label();
        let exit = self.label();
        self.bind(header);
        let done = self.cmp(CmpCc::Ge, iv, bound);
        self.br_if(done, exit);
        body(self, iv);
        // Latch: the canonical `iv = iv + step` the DOALL detector matches.
        self.emit(Inst::with_dst(
            Opcode::Add,
            iv,
            vec![iv.into(), Operand::Imm(step)],
        ));
        self.jump(header);
        self.bind(exit);
    }

    /// Build a do-while style loop: `body` runs at least once and repeats
    /// while the predicate it returns is true.
    pub fn do_while(&mut self, body: impl FnOnce(&mut FunctionBuilder) -> Reg) {
        let head = self.label();
        self.bind(head);
        let again = body(self);
        self.br_if(again, head);
    }

    /// If-then helper: runs `then` when `p` is true.
    pub fn if_then(&mut self, p: Reg, then: impl FnOnce(&mut FunctionBuilder)) {
        let skip = self.label();
        let np = self.pnot(p);
        self.br_if(np, skip);
        then(self);
        self.bind(skip);
    }

    /// If-then-else helper.
    pub fn if_then_else(
        &mut self,
        p: Reg,
        then: impl FnOnce(&mut FunctionBuilder),
        otherwise: impl FnOnce(&mut FunctionBuilder),
    ) {
        let else_l = self.label();
        let join = self.label();
        let np = self.pnot(p);
        self.br_if(np, else_l);
        then(self);
        self.jump(join);
        self.bind(else_l);
        otherwise(self);
        self.bind(join);
    }

    /// Finish: resolve labels to block ids and produce the [`Function`].
    ///
    /// # Panics
    /// Panics if any referenced label was never bound.
    pub fn finish(self) -> Function {
        let FunctionBuilder {
            name,
            params,
            mut blocks,
            bound,
            ..
        } = self;
        // Drop a trailing empty block (created by terminator helpers) if
        // nothing falls into it and no label points at it.
        let last_idx = blocks.len() - 1;
        let last_bound = bound.contains(&Some(last_idx as u32));
        if blocks[last_idx].insts.is_empty() && !last_bound && last_idx > 0 {
            let prev = &blocks[last_idx - 1];
            if !prev.falls_through() {
                blocks.pop();
            }
        }
        // Rewrite label references (stored as BlockId(label raw)) to layout
        // block ids.
        for b in &mut blocks {
            for inst in &mut b.insts {
                for s in &mut inst.srcs {
                    if let Operand::Block(BlockId(raw)) = s {
                        let target = bound
                            .get(*raw as usize)
                            .copied()
                            .flatten()
                            .unwrap_or_else(|| panic!("label {raw} referenced but never bound"));
                        *s = Operand::Block(BlockId(target));
                    }
                }
            }
        }
        Function {
            name,
            params,
            blocks,
        }
    }
}

/// Builds a whole [`Program`].
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    name: String,
    data: DataSegment,
    funcs: Vec<Function>,
}

impl ProgramBuilder {
    /// Start a program with the given name.
    pub fn new(name: impl Into<String>) -> ProgramBuilder {
        ProgramBuilder {
            name: name.into(),
            data: DataSegment::default(),
            funcs: Vec::new(),
        }
    }

    /// Access the data segment for allocating globals.
    pub fn data_mut(&mut self) -> &mut DataSegment {
        &mut self.data
    }

    /// Start building a function (finish it with
    /// [`ProgramBuilder::finish_function`]).
    pub fn function(&mut self, name: impl Into<String>) -> FunctionBuilder {
        FunctionBuilder::new(name)
    }

    /// Reserve a function id before building it (for forward calls).
    /// The next `finish_function` calls fill ids in order.
    pub fn next_func_id(&self) -> FuncId {
        FuncId(self.funcs.len() as u32)
    }

    /// Add a finished function; returns its id.
    pub fn finish_function(&mut self, fb: FunctionBuilder) -> FuncId {
        self.funcs.push(fb.finish());
        FuncId(self.funcs.len() as u32 - 1)
    }

    /// Produce the program.
    ///
    /// # Panics
    /// Panics if no function is named `main`.
    pub fn finish(self) -> Program {
        let main = self
            .funcs
            .iter()
            .position(|f| f.name == "main")
            .expect("program must define a function named `main`");
        Program {
            name: self.name,
            funcs: self.funcs,
            main: FuncId(main as u32),
            data: self.data,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::Cfg;

    #[test]
    fn labels_resolve_in_binding_order() {
        let mut f = FunctionBuilder::new("t");
        let out = f.label();
        let one = f.ldi(1);
        let p = f.cmp(CmpCc::Eq, one, 1i64);
        f.br_if(p, out);
        let _ = f.ldi(99);
        f.bind(out);
        f.halt();
        let func = f.finish();
        // Entry block branches to the block bound by `out`.
        let br = func.blocks[0].insts.last().unwrap();
        let t = br.static_target().unwrap();
        assert_eq!(func.blocks[t.idx()].insts[0].op, Opcode::Halt);
    }

    #[test]
    fn counted_loop_shape_is_canonical() {
        let mut pb = ProgramBuilder::new("t");
        let a = pb.data_mut().zeroed("a", 80);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 10i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let addr = f.add(base, off);
            f.store8(addr, 0, iv);
        });
        f.halt();
        pb.finish_function(f);
        let prog = pb.finish();
        let func = prog.main_func();
        let cfg = Cfg::build(func);
        let dom = crate::cfg::Dominators::compute(&cfg);
        let lf = crate::loops::LoopForest::build(&cfg, &dom);
        assert_eq!(lf.loops.len(), 1);
    }

    #[test]
    #[should_panic(expected = "never bound")]
    fn unbound_label_panics() {
        let mut f = FunctionBuilder::new("t");
        let l = f.label();
        f.jump(l);
        let _ = f.finish();
    }

    #[test]
    fn if_then_else_joins() {
        let mut f = FunctionBuilder::new("main");
        let p = f.cmp(CmpCc::Lt, 1i64, 2i64);
        f.if_then_else(
            p,
            |f| {
                f.ldi(10);
            },
            |f| {
                f.ldi(20);
            },
        );
        f.halt();
        let func = f.finish();
        assert!(func.blocks.len() >= 4);
    }
}
