//! The decoded image: each core's [`CoreImage`] lowered once into a flat
//! `Vec<DInst>` in which every question the cycle loop asks per cycle is
//! already answered (DESIGN.md §13).
//!
//! * **Flat program counter.** Instructions are numbered in image order
//!   with empty blocks skipped, so the fall-through successor of `pc` is
//!   `pc + 1`, a block id resolves through [`DecodedCore::entry`] to the
//!   first instruction at or after that block, and `insts.len()` is the
//!   one sentinel meaning "ran off the end of the image". The fetch
//!   address is `base + 4 * pc`.
//! * **One register array.** The four register classes are laid out back
//!   to back ([`DecodedCore::slot`]) and followed by a constant pool, so
//!   every operand — register or immediate — is one index into one
//!   `[u64]`, and the scoreboard is a parallel array of ready-times over
//!   the same indices. Values are raw bits; the class is static.
//! * **Issue class.** [`IssueClass`] names the structural hazard
//!   `check_core` must test beyond the scoreboard; for most instructions
//!   there is none.
//!
//! Decoding is infallible. An instruction the machine cannot execute
//! (one `MachineProgram::check`/`validate` would have rejected) becomes
//! [`DOp::Trap`], which raises its `SimError::Malformed` only if issued.

use crate::mcode::{CoreImage, MachineProgram, RegionId};
use crate::network::TAG_JOIN;
use crate::stats::StallReason;
use crate::validate::{recv_tag, send_tag};
use std::collections::HashMap;
use std::sync::Arc;
use voltron_ir::{
    semantics, BlockId, CmpCc, Dir, ExecMode, Inst, MemWidth, Opcode, Operand, Reg, RegClass,
    Signedness, Value,
};

/// Scoreboard slots per instruction: at most three register sources, a
/// guard and a destination in the machine-code grammar.
pub const SB_SLOTS: usize = 5;

/// A pure register-to-register operation: reads slots, yields the
/// destination's new bits. Evaluated through [`voltron_ir::semantics`],
/// the same definitions the reference interpreter uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AluOp {
    /// Integer two-operand ALU op.
    IntBin { op: Opcode, a: u32, b: u32 },
    /// Float two-operand op.
    FloatBin { op: Opcode, a: u32, b: u32 },
    /// Float one-operand op.
    FloatUn { op: Opcode, a: u32 },
    /// `MOV`, `LDI`, `FLDI`, `PBR`, `PTOG`: the bits move unchanged
    /// (immediates and block ids live in the constant pool; a predicate
    /// is stored as 0/1).
    Copy { a: u32 },
    /// Integer compare.
    Cmp { cc: CmpCc, a: u32, b: u32 },
    /// Float compare.
    Fcmp { cc: CmpCc, a: u32, b: u32 },
    /// `SEL` / `FSEL`.
    Select { p: u32, a: u32, b: u32 },
    /// `PAND` / `POR`.
    PredBin { op: Opcode, a: u32, b: u32 },
    /// `PNOT`.
    PredNot { a: u32 },
    /// `ITOF`.
    IntToFloat { a: u32 },
    /// `FTOI`.
    FloatToInt { a: u32 },
    /// `GTOP`.
    IntToPred { a: u32 },
}

impl AluOp {
    /// The destination's new bits, reading sources from `regs`.
    #[inline]
    pub fn eval(self, regs: &[u64]) -> u64 {
        let int = |s: u32| regs[s as usize] as i64;
        let float = |s: u32| f64::from_bits(regs[s as usize]);
        let pred = |s: u32| regs[s as usize] != 0;
        match self {
            AluOp::IntBin { op, a, b } => semantics::int_binop(op, int(a), int(b)) as u64,
            AluOp::FloatBin { op, a, b } => {
                semantics::float_binop(op, float(a), float(b)).to_bits()
            }
            AluOp::FloatUn { op, a } => semantics::float_unop(op, float(a)).to_bits(),
            AluOp::Copy { a } => regs[a as usize],
            AluOp::Cmp { cc, a, b } => u64::from(semantics::int_cmp(cc, int(a), int(b))),
            AluOp::Fcmp { cc, a, b } => u64::from(semantics::float_cmp(cc, float(a), float(b))),
            AluOp::Select { p, a, b } => regs[if pred(p) { a } else { b } as usize],
            AluOp::PredBin { op, a, b } => u64::from(semantics::pred_binop(op, pred(a), pred(b))),
            AluOp::PredNot { a } => u64::from(!pred(a)),
            AluOp::IntToFloat { a } => semantics::int_to_float(int(a)).to_bits(),
            AluOp::FloatToInt { a } => semantics::float_to_int(float(a)) as u64,
            AluOp::IntToPred { a } => u64::from(semantics::int_to_pred(int(a))),
        }
    }
}

/// What a load reads and how it widens.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemKind {
    /// Integer access of the given width (signedness matters to loads).
    Int(MemWidth, Signedness),
    /// 8-byte float.
    F64,
    /// 4-byte float, widened to / narrowed from f64.
    F32,
}

impl MemKind {
    /// Access width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemKind::Int(w, _) => w.bytes(),
            MemKind::F64 => 8,
            MemKind::F32 => 4,
        }
    }

    /// Register bits of a loaded raw little-endian value.
    #[inline]
    pub fn load_bits(self, raw: u64) -> u64 {
        match self {
            MemKind::Int(w, s) => semantics::extend_load(raw, w.bytes(), s) as u64,
            MemKind::F64 => raw,
            MemKind::F32 => semantics::widen_f32(raw as u32).to_bits(),
        }
    }

    /// Raw value a store of register bits `v` writes.
    #[inline]
    pub fn store_raw(self, v: u64) -> u64 {
        match self {
            MemKind::Int(..) | MemKind::F64 => v,
            MemKind::F32 => u64::from(semantics::narrow_f32(f64::from_bits(v))),
        }
    }
}

/// Where a taken branch goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrTarget {
    /// A static block operand, resolved to its flat index.
    Flat(u32),
    /// A branch-target register slot holding a block id.
    Btr(u32),
    /// Neither; raises "branch without target" if the branch is taken.
    Missing,
}

/// A decoded operation with operands resolved to slots.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DOp {
    /// Schedule padding.
    Nop,
    /// Pure register-to-register op writing `dst`.
    Alu { dst: u32, f: AluOp },
    /// `BR` (taken when slot `pred` is nonzero) and `JUMP` (`pred` is the
    /// constant-true slot).
    Br { pred: u32, target: BrTarget },
    /// Stop the core for good.
    Halt,
    /// End the fine-grain thread.
    Sleep,
    /// Arrive at the mode-switch barrier.
    ModeSwitch(ExecMode),
    /// Load `kind` from `regs[base] + regs[off]` into `dst`; `reg` is the
    /// architectural name the memory system tags the fill with.
    Load {
        dst: u32,
        base: u32,
        off: u32,
        kind: MemKind,
        reg: Reg,
    },
    /// Store `regs[val]` as `kind` to `regs[base] + regs[off]`.
    Store {
        base: u32,
        off: u32,
        val: u32,
        kind: MemKind,
    },
    /// Direct-mode put of slot `val` (a `class` value).
    Put { val: u32, class: RegClass, dir: Dir },
    /// Direct-mode get into `dst` (a `class` register).
    Get { dst: u32, class: RegClass, dir: Dir },
    /// Broadcast slot `val`.
    Bcast { val: u32, class: RegClass },
    /// Read the broadcast latch into `dst`.
    GetB { dst: u32, class: RegClass },
    /// Queue-mode send of slot `val`.
    Send {
        val: u32,
        class: RegClass,
        to: u8,
        tag: u32,
    },
    /// Queue-mode receive into `dst`.
    Recv {
        dst: u32,
        class: RegClass,
        from: u8,
        tag: u32,
    },
    /// Start a thread at `block` of core `to`.
    Spawn { to: u8, block: BlockId },
    /// Begin a transaction whose chunk order is in slot `order`.
    Xbegin { order: u32 },
    /// Commit.
    Xcommit,
    /// Abort.
    Xabort,
    /// Not executable: raises `SimError::Malformed(traps[i])` if issued.
    Trap(u32),
}

/// The structural hazard `check_core` tests after the scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueClass {
    /// None: scoreboard-ready means issue.
    Plain,
    /// One outstanding load miss per core.
    Load,
    /// Store-buffer space (outside a transaction).
    Store,
    /// Far latch free.
    Put(Dir),
    /// Near latch full.
    Get(Dir),
    /// Every peer's broadcast latch free.
    Bcast,
    /// Broadcast latch full.
    GetB,
    /// Send-queue space (`SEND`, `SPAWN`).
    SendLike,
    /// A matching message; `stall` is how the wait is classified.
    Recv {
        from: u8,
        tag: u32,
        stall: StallReason,
    },
    /// The commit token.
    Xcommit,
}

/// One decoded instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DInst {
    /// What to execute.
    pub op: DOp,
    /// What to test before issue.
    pub class: IssueClass,
    /// Scoreboard slots: register sources, guard, destination, padded
    /// with the always-ready constant-0 slot.
    pub sb: [u32; SB_SLOTS],
    /// Slot whose zero value nullifies the instruction
    /// ([`DecodedCore::true_slot`] when unguarded).
    pub guard: u32,
    /// Result latency of [`DOp::Alu`] ops.
    pub latency: u32,
    /// `NOP`: counted apart from issued instructions, never traced.
    pub is_nop: bool,
    /// Leaves the core through the queue/broadcast network, so a live
    /// transaction that issues it can no longer be rolled back.
    pub net_op: bool,
    /// Changes architectural state beyond the program counter (feeds the
    /// livelock watchdog).
    pub arch_change: bool,
    /// Back-reference: block index in the image.
    pub block: u32,
    /// Back-reference: slot within the block.
    pub slot: u32,
    /// The block's planner region.
    pub region: RegionId,
}

/// One core's decoded image.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedCore {
    /// The flat program.
    pub insts: Vec<DInst>,
    /// Block id -> flat index of the first instruction at or after the
    /// block (`insts.len()` when there is none).
    pub block_entry: Vec<u32>,
    /// First slot of each register class; `[4]` is the register count
    /// and the first constant-pool slot.
    pub class_base: [u32; 5],
    /// Constant-pool contents, living at slots `class_base[4]..`.
    pub consts: Vec<u64>,
    /// Messages of [`DOp::Trap`] instructions.
    pub traps: Vec<String>,
    /// Base of the core's instruction window.
    pub fetch_base: u64,
}

impl DecodedCore {
    /// Number of architectural registers (all classes).
    pub fn n_regs(&self) -> usize {
        self.class_base[4] as usize
    }

    /// Flat slot of register `r`.
    pub fn slot(&self, r: Reg) -> u32 {
        self.class_base[r.class.index()] + r.index
    }

    /// Constant 0: never written, so always ready — the scoreboard pad.
    fn zero_slot(&self) -> u32 {
        self.class_base[4]
    }

    /// Constant 1: the guard of unguarded instructions and the predicate
    /// of `JUMP`.
    pub fn true_slot(&self) -> u32 {
        self.class_base[4] + 1
    }

    /// The sentinel program counter: one past the last instruction.
    pub fn off_end(&self) -> u32 {
        self.insts.len() as u32
    }

    /// Flat index a transfer to block `b` lands on (the sentinel when `b`
    /// is out of range or only empty blocks follow).
    pub fn entry(&self, b: BlockId) -> u32 {
        self.block_entry
            .get(b.idx())
            .copied()
            .unwrap_or(self.off_end())
    }

    /// Fetch address of the instruction at `pc`.
    pub fn fetch_addr(&self, pc: u32) -> u64 {
        self.fetch_base + u64::from(pc) * 4
    }

    /// The register slots `d` reads or writes (its scoreboard entries
    /// without the padding).
    pub fn scoreboard<'a>(&self, d: &'a DInst) -> impl Iterator<Item = u32> + 'a {
        let pad = self.zero_slot();
        d.sb.iter().copied().filter(move |&s| s != pad)
    }
}

/// A decoded [`MachineProgram`]: one [`DecodedCore`] per image, behind
/// one shared pointer (a clone shares the images).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecodedProgram {
    /// Per-core decoded images.
    pub cores: Arc<[DecodedCore]>,
}

impl DecodedProgram {
    /// Decode every image of `program`.
    pub fn new(program: &MachineProgram) -> DecodedProgram {
        DecodedProgram {
            cores: program
                .cores
                .iter()
                .enumerate()
                .map(|(core, image)| decode_core(core, image))
                .collect(),
        }
    }
}

/// Register bits of a network value.
pub fn value_bits(v: Value) -> u64 {
    match v {
        Value::Int(x) => x as u64,
        Value::Float(x) => x.to_bits(),
        Value::Pred(x) => u64::from(x),
        Value::Target(b) => u64::from(b.0),
    }
}

/// The network value of register bits of a known class.
pub fn bits_value(class: RegClass, bits: u64) -> Value {
    match class {
        RegClass::Gpr => Value::Int(bits as i64),
        RegClass::Fpr => Value::Float(f64::from_bits(bits)),
        RegClass::Pred => Value::Pred(bits != 0),
        RegClass::Btr => Value::Target(BlockId(bits as u32)),
    }
}

fn decode_core(core: usize, image: &CoreImage) -> DecodedCore {
    let total = image.inst_count() as u32;
    let mut block_entry = Vec::with_capacity(image.blocks.len());
    let mut flat = 0u32;
    for b in &image.blocks {
        block_entry.push(flat);
        flat += b.insts.len() as u32;
    }
    // A block with nothing at or after it has `flat == total` already:
    // the cumulative count *is* the index of the next real instruction.
    let counts = image.reg_counts();
    let mut class_base = [0u32; 5];
    for c in 0..4 {
        class_base[c + 1] = class_base[c] + counts[c];
    }
    let mut lower = Lowering {
        core,
        class_base,
        block_entry,
        total,
        consts: vec![0, 1],
        const_slots: HashMap::from([(0, 0), (1, 1)]),
        traps: Vec::new(),
    };
    let mut insts = Vec::with_capacity(total as usize);
    for (bi, b) in image.blocks.iter().enumerate() {
        for (si, inst) in b.insts.iter().enumerate() {
            let (op, class) = lower.inst(inst).unwrap_or_else(|msg| {
                lower.traps.push(msg);
                (DOp::Trap(lower.traps.len() as u32 - 1), IssueClass::Plain)
            });
            let mut sb = [class_base[4]; SB_SLOTS];
            // Only `CALL` (a trap) can name more registers than fit; the
            // rest of its operands cannot delay an error that is already
            // unreachable past `MachineProgram::check`.
            for (entry, r) in sb.iter_mut().zip(inst.uses_iter().chain(inst.dst)) {
                *entry = lower.slot(r);
            }
            insts.push(DInst {
                op,
                class,
                sb,
                guard: inst.guard.map_or(lower.true_slot(), |g| lower.slot(g)),
                latency: inst.op.latency(),
                is_nop: inst.op == Opcode::Nop,
                net_op: matches!(
                    inst.op,
                    Opcode::Send | Opcode::Recv | Opcode::Bcast | Opcode::GetB | Opcode::Spawn
                ),
                arch_change: !matches!(inst.op, Opcode::Nop | Opcode::Br | Opcode::Jump),
                block: bi as u32,
                slot: si as u32,
                region: b.region,
            });
        }
    }
    DecodedCore {
        insts,
        block_entry: lower.block_entry,
        class_base,
        consts: lower.consts,
        traps: lower.traps,
        fetch_base: CoreImage::base(core),
    }
}

/// Per-core lowering state: the register layout, the constant pool being
/// grown, and the block table targets resolve through.
struct Lowering {
    core: usize,
    class_base: [u32; 5],
    block_entry: Vec<u32>,
    total: u32,
    consts: Vec<u64>,
    const_slots: HashMap<u64, u32>,
    traps: Vec<String>,
}

impl Lowering {
    fn slot(&self, r: Reg) -> u32 {
        self.class_base[r.class.index()] + r.index
    }

    /// Where `consts[1]` lives (see [`DecodedCore::true_slot`]).
    fn true_slot(&self) -> u32 {
        self.class_base[4] + 1
    }

    fn konst(&mut self, bits: u64) -> u32 {
        let next = self.consts.len() as u32;
        let k = *self.const_slots.entry(bits).or_insert(next);
        if k == next {
            self.consts.push(bits);
        }
        self.class_base[4] + k
    }

    /// Slot and class of an evaluable operand (what the interpreter's
    /// `eval_operand` accepts).
    fn operand(&mut self, inst: &Inst, i: usize) -> Result<(u32, RegClass), String> {
        match inst.srcs.get(i) {
            Some(Operand::Reg(r)) => Ok((self.slot(*r), r.class)),
            Some(Operand::Imm(v)) => Ok((self.konst(*v as u64), RegClass::Gpr)),
            Some(Operand::FImm(v)) => Ok((self.konst(v.to_bits()), RegClass::Fpr)),
            Some(Operand::Block(b)) => Ok((self.konst(u64::from(b.0)), RegClass::Btr)),
            Some(other) => Err(format!(
                "core {}: bad program: operand {other:?} not evaluable in the interpreter",
                self.core
            )),
            None => Err(format!(
                "core {}: {} is missing source {i}",
                self.core, inst.op
            )),
        }
    }

    /// Slot of source `i`, which must be of `class`.
    fn src(&mut self, inst: &Inst, i: usize, class: RegClass) -> Result<u32, String> {
        let (slot, found) = self.operand(inst, i)?;
        if found != class {
            return Err(format!(
                "core {}: {} source {i} must be {class}, found {found}",
                self.core, inst.op
            ));
        }
        Ok(slot)
    }

    /// Slot of the destination, which must exist and be of `class`.
    fn dst(&self, inst: &Inst, class: RegClass) -> Result<u32, String> {
        match inst.dst {
            Some(d) if d.class == class => Ok(self.slot(d)),
            _ => Err(format!(
                "core {}: {} requires a {class} destination",
                self.core, inst.op
            )),
        }
    }

    /// Slot and class of a destination of any class.
    fn any_dst(&self, inst: &Inst) -> Result<(u32, RegClass), String> {
        inst.dst
            .map(|d| (self.slot(d), d.class))
            .ok_or_else(|| format!("core {}: {} requires a destination", self.core, inst.op))
    }

    fn core_operand(&self, inst: &Inst, i: usize) -> Result<u8, String> {
        inst.srcs
            .get(i)
            .and_then(Operand::as_core)
            .ok_or_else(|| format!("core {}: {} requires a core operand", self.core, inst.op))
    }

    fn alu(&self, inst: &Inst, class: RegClass, f: AluOp) -> Result<(DOp, IssueClass), String> {
        let dst = self.dst(inst, class)?;
        Ok((DOp::Alu { dst, f }, IssueClass::Plain))
    }

    #[allow(clippy::too_many_lines)]
    fn inst(&mut self, inst: &Inst) -> Result<(DOp, IssueClass), String> {
        use Opcode::*;
        use RegClass::{Btr, Fpr, Gpr, Pred};
        let op = inst.op;
        match op {
            Nop => Ok((DOp::Nop, IssueClass::Plain)),
            Add | Sub | Mul | Div | Rem | And | Or | Xor | Shl | Shr | Sar | Min | Max => {
                let (a, b) = (self.src(inst, 0, Gpr)?, self.src(inst, 1, Gpr)?);
                self.alu(inst, Gpr, AluOp::IntBin { op, a, b })
            }
            Fadd | Fsub | Fmul | Fdiv | Fmin | Fmax => {
                let (a, b) = (self.src(inst, 0, Fpr)?, self.src(inst, 1, Fpr)?);
                self.alu(inst, Fpr, AluOp::FloatBin { op, a, b })
            }
            Fabs | Fneg | Fsqrt => {
                let a = self.src(inst, 0, Fpr)?;
                self.alu(inst, Fpr, AluOp::FloatUn { op, a })
            }
            Mov => {
                let (_, class) = self.any_dst(inst)?;
                let a = self.src(inst, 0, class)?;
                self.alu(inst, class, AluOp::Copy { a })
            }
            Ldi => {
                let a = self.src(inst, 0, Gpr)?;
                self.alu(inst, Gpr, AluOp::Copy { a })
            }
            Fldi => {
                let a = self.src(inst, 0, Fpr)?;
                self.alu(inst, Fpr, AluOp::Copy { a })
            }
            Pbr => {
                if !matches!(inst.srcs.first(), Some(Operand::Block(_))) {
                    return Err(format!(
                        "core {}: bad program: pbr without block",
                        self.core
                    ));
                }
                let a = self.src(inst, 0, Btr)?;
                self.alu(inst, Btr, AluOp::Copy { a })
            }
            Cmp(cc) => {
                let (a, b) = (self.src(inst, 0, Gpr)?, self.src(inst, 1, Gpr)?);
                self.alu(inst, Pred, AluOp::Cmp { cc, a, b })
            }
            Fcmp(cc) => {
                let (a, b) = (self.src(inst, 0, Fpr)?, self.src(inst, 1, Fpr)?);
                self.alu(inst, Pred, AluOp::Fcmp { cc, a, b })
            }
            Sel | Fsel => {
                let class = if op == Sel { Gpr } else { Fpr };
                let p = self.src(inst, 0, Pred)?;
                let (a, b) = (self.src(inst, 1, class)?, self.src(inst, 2, class)?);
                self.alu(inst, class, AluOp::Select { p, a, b })
            }
            PAnd | POr => {
                let (a, b) = (self.src(inst, 0, Pred)?, self.src(inst, 1, Pred)?);
                self.alu(inst, Pred, AluOp::PredBin { op, a, b })
            }
            PNot => {
                let a = self.src(inst, 0, Pred)?;
                self.alu(inst, Pred, AluOp::PredNot { a })
            }
            ItoF => {
                let a = self.src(inst, 0, Gpr)?;
                self.alu(inst, Fpr, AluOp::IntToFloat { a })
            }
            FtoI => {
                let a = self.src(inst, 0, Fpr)?;
                self.alu(inst, Gpr, AluOp::FloatToInt { a })
            }
            PtoG => {
                let a = self.src(inst, 0, Pred)?;
                self.alu(inst, Gpr, AluOp::Copy { a })
            }
            GtoP => {
                let a = self.src(inst, 0, Gpr)?;
                self.alu(inst, Pred, AluOp::IntToPred { a })
            }
            Load(..) | Fload | Fload4 => {
                let (kind, class) = match op {
                    Load(w, s) => (MemKind::Int(w, s), Gpr),
                    Fload => (MemKind::F64, Fpr),
                    _ => (MemKind::F32, Fpr),
                };
                let load = DOp::Load {
                    dst: self.dst(inst, class)?,
                    base: self.src(inst, 0, Gpr)?,
                    off: self.src(inst, 1, Gpr)?,
                    kind,
                    reg: inst.dst.expect("dst() checked it"),
                };
                Ok((load, IssueClass::Load))
            }
            Store(_) | Fstore | Fstore4 => {
                let (kind, class) = match op {
                    Store(w) => (MemKind::Int(w, Signedness::Unsigned), Gpr),
                    Fstore => (MemKind::F64, Fpr),
                    _ => (MemKind::F32, Fpr),
                };
                let store = DOp::Store {
                    base: self.src(inst, 0, Gpr)?,
                    off: self.src(inst, 1, Gpr)?,
                    val: self.src(inst, 2, class)?,
                    kind,
                };
                Ok((store, IssueClass::Store))
            }
            Br | Jump => {
                let pred = if op == Jump {
                    self.true_slot()
                } else {
                    self.src(inst, 1, Pred)?
                };
                let target = match inst.srcs.first() {
                    Some(Operand::Block(t)) => {
                        BrTarget::Flat(self.block_entry.get(t.idx()).copied().unwrap_or(self.total))
                    }
                    Some(Operand::Reg(r)) if r.class == Btr => BrTarget::Btr(self.slot(*r)),
                    _ => BrTarget::Missing,
                };
                Ok((DOp::Br { pred, target }, IssueClass::Plain))
            }
            Halt => Ok((DOp::Halt, IssueClass::Plain)),
            Sleep => Ok((DOp::Sleep, IssueClass::Plain)),
            ModeSwitch => match inst.srcs.first() {
                Some(Operand::Mode(m)) => Ok((DOp::ModeSwitch(*m), IssueClass::Plain)),
                _ => Err("mode switch without mode".into()),
            },
            Call | Ret => Err(format!(
                "core {}: {op} in machine code (inliner bug)",
                self.core
            )),
            Put => {
                let (val, class) = self.operand(inst, 0)?;
                match inst.srcs.get(1) {
                    Some(Operand::Dir(d)) => {
                        let dir = *d;
                        Ok((DOp::Put { val, class, dir }, IssueClass::Put(dir)))
                    }
                    _ => Err("put without direction".into()),
                }
            }
            Get => match inst.srcs.first() {
                Some(Operand::Dir(d)) => {
                    let (dst, class) = self.any_dst(inst)?;
                    let dir = *d;
                    Ok((DOp::Get { dst, class, dir }, IssueClass::Get(dir)))
                }
                _ => Err("get without direction".into()),
            },
            Bcast => {
                let (val, class) = self.operand(inst, 0)?;
                Ok((DOp::Bcast { val, class }, IssueClass::Bcast))
            }
            GetB => {
                let (dst, class) = self.any_dst(inst)?;
                Ok((DOp::GetB { dst, class }, IssueClass::GetB))
            }
            Send => {
                let (val, class) = self.operand(inst, 0)?;
                let to = self.core_operand(inst, 1)?;
                let tag = send_tag(inst);
                let send = DOp::Send {
                    val,
                    class,
                    to,
                    tag,
                };
                Ok((send, IssueClass::SendLike))
            }
            Recv => {
                let from = self.core_operand(inst, 0)?;
                let tag = recv_tag(inst);
                let (dst, class) = self.any_dst(inst)?;
                let stall = if tag == TAG_JOIN {
                    StallReason::Sync
                } else if class == Pred {
                    StallReason::RecvPred
                } else {
                    StallReason::RecvData
                };
                let recv = DOp::Recv {
                    dst,
                    class,
                    from,
                    tag,
                };
                Ok((recv, IssueClass::Recv { from, tag, stall }))
            }
            Spawn => {
                let to = self.core_operand(inst, 0)?;
                let block = inst
                    .srcs
                    .get(1)
                    .and_then(Operand::as_block)
                    .ok_or_else(|| format!("core {}: spawn requires a block", self.core))?;
                Ok((DOp::Spawn { to, block }, IssueClass::SendLike))
            }
            Xbegin => {
                let order = self.src(inst, 0, Gpr)?;
                Ok((DOp::Xbegin { order }, IssueClass::Plain))
            }
            Xcommit => Ok((DOp::Xcommit, IssueClass::Xcommit)),
            Xabort => Ok((DOp::Xabort, IssueClass::Plain)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcode::MBlock;

    fn image(blocks: Vec<MBlock>) -> CoreImage {
        CoreImage { blocks }
    }

    #[test]
    fn empty_blocks_resolve_to_the_next_instruction_or_the_sentinel() {
        let mut b0 = MBlock::new("b0", 0);
        b0.insts.push(Inst::nop());
        b0.insts
            .push(Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(1))]));
        let mut b2 = MBlock::new("b2", 0);
        b2.insts
            .push(Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(3))]));
        let d = decode_core(
            1,
            &image(vec![b0, MBlock::new("e", 0), b2, MBlock::new("t", 0)]),
        );
        assert_eq!(d.block_entry, vec![0, 2, 2, 3]);
        assert_eq!(d.off_end(), 3);
        assert_eq!(d.entry(BlockId(9)), 3);
        let target = |pc: usize| match d.insts[pc].op {
            DOp::Br { target, .. } => target,
            other => panic!("not a branch: {other:?}"),
        };
        assert_eq!(target(1), BrTarget::Flat(2));
        assert_eq!(target(2), BrTarget::Flat(3));
        assert_eq!(d.fetch_addr(2), CoreImage::base(1) + 8);
        assert_eq!((d.insts[2].block, d.insts[2].slot), (2, 0));
    }

    #[test]
    fn immediates_share_the_constant_pool_and_registers_are_laid_out_by_class() {
        let mut b = MBlock::new("b", 7);
        b.insts.push(
            Inst::with_dst(
                Opcode::Add,
                Reg::gpr(2),
                vec![Reg::gpr(1).into(), Operand::Imm(5)],
            )
            .guarded(Reg::pred(0)),
        );
        b.insts.push(Inst::with_dst(
            Opcode::Fldi,
            Reg::fpr(0),
            vec![Operand::FImm(1.5)],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Ldi,
            Reg::gpr(0),
            vec![Operand::Imm(5)],
        ));
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        let d = decode_core(0, &image(vec![b]));
        assert_eq!(d.class_base, [0, 3, 4, 5, 5]);
        assert_eq!(d.consts, vec![0, 1, 5, 1.5f64.to_bits()]);
        let add = &d.insts[0];
        assert_eq!(
            add.op,
            DOp::Alu {
                dst: 2,
                f: AluOp::IntBin {
                    op: Opcode::Add,
                    a: 1,
                    b: 7
                }
            }
        );
        assert_eq!(add.guard, d.slot(Reg::pred(0)));
        assert_eq!(d.scoreboard(add).collect::<Vec<_>>(), vec![1, 4, 2]);
        assert_eq!(add.region, 7);
        assert_eq!(d.insts[1].guard, d.true_slot());
        assert_eq!(
            d.insts[2].op,
            DOp::Alu {
                dst: 0,
                f: AluOp::Copy { a: 7 }
            }
        );
    }

    #[test]
    fn unexecutable_instructions_decode_to_traps_with_the_issue_time_message() {
        let mut b = MBlock::new("b", 0);
        b.insts.push(Inst::new(
            Opcode::Call,
            vec![Operand::Func(voltron_ir::FuncId(0))],
        ));
        b.insts.push(Inst::new(Opcode::Ret, vec![]));
        b.insts.push(Inst::new(Opcode::ModeSwitch, vec![]));
        b.insts
            .push(Inst::new(Opcode::Put, vec![Reg::gpr(0).into()]));
        b.insts.push(Inst::new(Opcode::Jump, vec![Operand::Imm(3)]));
        let d = decode_core(2, &image(vec![b]));
        let trap = |pc: usize| match d.insts[pc].op {
            DOp::Trap(t) => d.traps[t as usize].as_str(),
            other => panic!("not a trap: {other:?}"),
        };
        assert_eq!(trap(0), "core 2: call in machine code (inliner bug)");
        assert_eq!(trap(1), "core 2: ret in machine code (inliner bug)");
        assert_eq!(trap(2), "mode switch without mode");
        assert_eq!(trap(3), "put without direction");
        // A targetless branch only fails if taken.
        assert_eq!(
            d.insts[4].op,
            DOp::Br {
                pred: d.true_slot(),
                target: BrTarget::Missing
            }
        );
    }

    #[test]
    fn values_round_trip_through_register_bits() {
        for v in [
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Pred(true),
            Value::Target(BlockId(9)),
        ] {
            assert_eq!(bits_value(v.class(), value_bits(v)), v);
        }
    }
}
