//! The instruction set.
//!
//! The ISA is HPL-PD-flavored (the paper's compiler targets HPL-PD via
//! Trimaran) extended with Voltron's inter-core operations:
//!
//! * **Direct-mode network**: [`Opcode::Put`] / [`Opcode::Get`] move a
//!   register value across one mesh link in lock-step (1 cycle/hop), and
//!   [`Opcode::Bcast`] / [`Opcode::GetB`] broadcast branch conditions within
//!   a coupled group.
//! * **Queue-mode network**: [`Opcode::Send`] / [`Opcode::Recv`] communicate
//!   asynchronously through send/receive queues (2 cycles + 1/hop).
//! * **Fine-grain threading**: [`Opcode::Spawn`] / [`Opcode::Sleep`] start
//!   and finish fine-grain threads in the same program context.
//! * **Mode control**: [`Opcode::ModeSwitch`] is the barrier-like switch
//!   between coupled and decoupled execution.
//! * **Transactional memory**: [`Opcode::Xbegin`] / [`Opcode::Xcommit`] /
//!   [`Opcode::Xabort`] delimit the speculative chunks of statistical
//!   DOALL loops.
//! * **Unbundled branches**: [`Opcode::Pbr`] (prepare-to-branch) writes a
//!   branch-target register; [`Opcode::Br`] / [`Opcode::Jump`] transfer
//!   control through it, exactly as in Fig. 5 of the paper.

use std::fmt;

/// Comparison condition codes for [`Opcode::Cmp`] and [`Opcode::Fcmp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpCc {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
    /// Unsigned less-than.
    Ltu,
    /// Unsigned greater-or-equal.
    Geu,
}

impl CmpCc {
    /// The condition that is true exactly when `self` is false.
    pub fn negate(self) -> CmpCc {
        match self {
            CmpCc::Eq => CmpCc::Ne,
            CmpCc::Ne => CmpCc::Eq,
            CmpCc::Lt => CmpCc::Ge,
            CmpCc::Le => CmpCc::Gt,
            CmpCc::Gt => CmpCc::Le,
            CmpCc::Ge => CmpCc::Lt,
            CmpCc::Ltu => CmpCc::Geu,
            CmpCc::Geu => CmpCc::Ltu,
        }
    }
}

impl fmt::Display for CmpCc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpCc::Eq => "eq",
            CmpCc::Ne => "ne",
            CmpCc::Lt => "lt",
            CmpCc::Le => "le",
            CmpCc::Gt => "gt",
            CmpCc::Ge => "ge",
            CmpCc::Ltu => "ltu",
            CmpCc::Geu => "geu",
        };
        f.write_str(s)
    }
}

/// Memory access width in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 1 byte.
    W1,
    /// 2 bytes.
    W2,
    /// 4 bytes.
    W4,
    /// 8 bytes.
    W8,
}

impl MemWidth {
    /// The width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            MemWidth::W1 => 1,
            MemWidth::W2 => 2,
            MemWidth::W4 => 4,
            MemWidth::W8 => 8,
        }
    }
}

/// Whether a sub-word load sign- or zero-extends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Signedness {
    /// Sign-extend to 64 bits.
    Signed,
    /// Zero-extend to 64 bits.
    Unsigned,
}

/// Mesh link direction for direct-mode `PUT`/`GET`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dir {
    /// Toward larger x (core id + 1 in the same row).
    East,
    /// Toward smaller x.
    West,
    /// Toward smaller y (core id - width).
    North,
    /// Toward larger y.
    South,
}

impl Dir {
    /// The direction a matching `GET` must use to read what a `PUT` in
    /// `self` direction wrote (the link's other end).
    pub fn opposite(self) -> Dir {
        match self {
            Dir::East => Dir::West,
            Dir::West => Dir::East,
            Dir::North => Dir::South,
            Dir::South => Dir::North,
        }
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Dir::East => "E",
            Dir::West => "W",
            Dir::North => "N",
            Dir::South => "S",
        };
        f.write_str(s)
    }
}

/// Voltron execution mode, the operand of [`Opcode::ModeSwitch`]. A
/// machine boots decoupled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExecMode {
    /// Lock-step multicluster-VLIW execution (direct network).
    Coupled,
    /// Independent fine-grain threads (queue network).
    #[default]
    Decoupled,
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecMode::Coupled => f.write_str("coupled"),
            ExecMode::Decoupled => f.write_str("decoupled"),
        }
    }
}

/// An operation code.
///
/// Operand conventions (checked by the verifier) are documented per group;
/// `dst` refers to [`crate::Inst::dst`], `srcs` to [`crate::Inst::srcs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Opcode {
    // ---- integer ALU: dst gpr, srcs [gpr|imm, gpr|imm] ----
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Integer divide (quotient; division by zero yields 0 by definition).
    Div,
    /// Integer remainder (remainder by zero yields 0 by definition).
    Rem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left (count masked to 6 bits).
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,

    // ---- moves and constants ----
    /// Register move within a class: dst, srcs `[reg]` (same class as dst).
    Mov,
    /// Load integer immediate: dst gpr, srcs `[imm]`.
    Ldi,
    /// Load float immediate: dst fpr, srcs `[fimm]`.
    Fldi,

    // ---- compare and select ----
    /// Integer compare: dst pred, srcs `[gpr|imm, gpr|imm]`.
    Cmp(CmpCc),
    /// Float compare: dst pred, srcs `[fpr, fpr]`.
    Fcmp(CmpCc),
    /// Integer select: dst gpr, srcs `[pred, gpr|imm, gpr|imm]`
    /// (`dst = p ? a : b`).
    Sel,
    /// Float select: dst fpr, srcs `[pred, fpr, fpr]`.
    Fsel,

    // ---- predicate logic: dst pred, srcs preds ----
    /// Predicate and.
    PAnd,
    /// Predicate or.
    POr,
    /// Predicate negation (one source).
    PNot,

    // ---- conversions ----
    /// Int to float: dst fpr, srcs `[gpr]`.
    ItoF,
    /// Float to int (truncating): dst gpr, srcs `[fpr]`.
    FtoI,
    /// Predicate to int (0/1): dst gpr, srcs `[pred]`.
    PtoG,
    /// Int to predicate (nonzero): dst pred, srcs `[gpr]`.
    GtoP,

    // ---- floating point: dst fpr, srcs fprs ----
    /// Float add.
    Fadd,
    /// Float subtract.
    Fsub,
    /// Float multiply.
    Fmul,
    /// Float divide.
    Fdiv,
    /// Float absolute value (one source).
    Fabs,
    /// Float negate (one source).
    Fneg,
    /// Float minimum.
    Fmin,
    /// Float maximum.
    Fmax,
    /// Float square root (one source).
    Fsqrt,

    // ---- memory ----
    /// Integer load: dst gpr, srcs `[base gpr, imm offset]`.
    Load(MemWidth, Signedness),
    /// Integer store: srcs `[base gpr, imm offset, value gpr|imm]`.
    Store(MemWidth),
    /// f64 load: dst fpr, srcs `[base gpr, imm offset]`.
    Fload,
    /// f64 store: srcs `[base gpr, imm offset, value fpr]`.
    Fstore,
    /// f32 load (widens to f64): dst fpr, srcs `[base gpr, imm offset]`.
    Fload4,
    /// f32 store (narrowing): srcs `[base gpr, imm offset, value fpr]`.
    Fstore4,

    // ---- control flow ----
    /// Prepare-to-branch: dst btr, srcs `[block]`.
    Pbr,
    /// Conditional branch: srcs `[btr|block, pred]`; taken if the predicate
    /// is true. The IR form may name the block directly; lowering rewrites
    /// it to a BTR per the distributed branch architecture.
    Br,
    /// Unconditional jump: srcs `[btr|block]`.
    Jump,
    /// Call: dst optional return value, srcs `[func, args...]`. Calls are
    /// fully inlined before partitioning; the machine never executes one.
    Call,
    /// Return: srcs `[]` or `[reg]` (value matching the caller's dst class).
    Ret,
    /// Stop the machine (end of `main`).
    Halt,
    /// No operation (schedule padding).
    Nop,

    // ---- Voltron scalar operand network ----
    /// Direct-mode put: srcs `[reg, dir]`. Writes the value onto the mesh
    /// link in the given direction; 1 cycle/hop, lock-step with the `GET`.
    Put,
    /// Direct-mode get: dst reg, srcs `[dir]`. Reads the link latch.
    Get,
    /// Direct-mode broadcast of a branch condition within the coupled
    /// group: srcs `[reg]`.
    Bcast,
    /// Read the broadcast latch: dst reg, srcs `[]`.
    GetB,
    /// Queue-mode send: srcs `[reg, core]`. Enqueues a message routed to
    /// the target core.
    Send,
    /// Queue-mode receive: dst reg, srcs `[core]`. Blocks until a message
    /// from the named sender is in the receive queue.
    Recv,

    // ---- fine-grain threads and modes ----
    /// Start a fine-grain thread: srcs `[core, block]`. Sends the start
    /// address to the target core, which must be sleeping.
    Spawn,
    /// Finish a fine-grain thread; the core idles awaiting the next spawn.
    Sleep,
    /// Switch execution mode: srcs `[mode]`. Barrier across the core group.
    ModeSwitch,

    // ---- transactional memory (statistical DOALL support) ----
    /// Begin a speculative chunk: srcs `[gpr|imm chunk-order]`.
    Xbegin,
    /// Commit the chunk, in chunk order (blocks for the commit token).
    Xcommit,
    /// Abort the chunk explicitly.
    Xabort,
}

impl Opcode {
    /// Nominal result latency in cycles, assuming L1 hits for memory
    /// operations. These follow the paper's "latencies of the Itanium
    /// processor are assumed" setup; the scheduler plans with them and the
    /// simulator's scoreboard enforces them.
    pub fn latency(self) -> u32 {
        use Opcode::*;
        match self {
            Mul => 3,
            Div | Rem => 12,
            Fadd | Fsub | Fmul | Fmin | Fmax | Fabs | Fneg => 4,
            Fdiv | Fsqrt => 16,
            ItoF | FtoI => 4,
            Load(..) | Fload | Fload4 => 2,
            _ => 1,
        }
    }

    /// True for operations that read memory.
    pub fn is_load(self) -> bool {
        matches!(self, Opcode::Load(..) | Opcode::Fload | Opcode::Fload4)
    }

    /// True for operations that write memory.
    pub fn is_store(self) -> bool {
        matches!(self, Opcode::Store(_) | Opcode::Fstore | Opcode::Fstore4)
    }

    /// True for any memory access.
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for control-transfer operations (branch/jump/call/ret/halt).
    fn is_control(self) -> bool {
        matches!(
            self,
            Opcode::Br | Opcode::Jump | Opcode::Call | Opcode::Ret | Opcode::Halt
        )
    }

    /// True for operations that may end a basic block.
    pub fn is_terminator(self) -> bool {
        self.is_control()
    }

    /// True for unconditional block-enders (no fallthrough).
    pub fn ends_block(self) -> bool {
        matches!(self, Opcode::Jump | Opcode::Ret | Opcode::Halt)
    }

    /// True for inter-core communication operations.
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            Opcode::Put
                | Opcode::Get
                | Opcode::Bcast
                | Opcode::GetB
                | Opcode::Send
                | Opcode::Recv
                | Opcode::Spawn
        )
    }

    /// Mnemonic used by the pretty-printer.
    pub fn mnemonic(self) -> String {
        use Opcode::*;
        match self {
            Add => "add".into(),
            Sub => "sub".into(),
            Mul => "mul".into(),
            Div => "div".into(),
            Rem => "rem".into(),
            And => "and".into(),
            Or => "or".into(),
            Xor => "xor".into(),
            Shl => "shl".into(),
            Shr => "shr".into(),
            Sar => "sar".into(),
            Min => "min".into(),
            Max => "max".into(),
            Mov => "mov".into(),
            Ldi => "ldi".into(),
            Fldi => "fldi".into(),
            Cmp(cc) => format!("cmp.{cc}"),
            Fcmp(cc) => format!("fcmp.{cc}"),
            Sel => "sel".into(),
            Fsel => "fsel".into(),
            PAnd => "pand".into(),
            POr => "por".into(),
            PNot => "pnot".into(),
            ItoF => "itof".into(),
            FtoI => "ftoi".into(),
            PtoG => "ptog".into(),
            GtoP => "gtop".into(),
            Fadd => "fadd".into(),
            Fsub => "fsub".into(),
            Fmul => "fmul".into(),
            Fdiv => "fdiv".into(),
            Fabs => "fabs".into(),
            Fneg => "fneg".into(),
            Fmin => "fmin".into(),
            Fmax => "fmax".into(),
            Fsqrt => "fsqrt".into(),
            Load(w, s) => format!(
                "ld{}{}",
                w.bytes(),
                if matches!(s, Signedness::Unsigned) {
                    "u"
                } else {
                    ""
                }
            ),
            Store(w) => format!("st{}", w.bytes()),
            Fload => "fld".into(),
            Fstore => "fst".into(),
            Fload4 => "fld4".into(),
            Fstore4 => "fst4".into(),
            Pbr => "pbr".into(),
            Br => "br".into(),
            Jump => "jump".into(),
            Call => "call".into(),
            Ret => "ret".into(),
            Halt => "halt".into(),
            Nop => "nop".into(),
            Put => "put".into(),
            Get => "get".into(),
            Bcast => "bcast".into(),
            GetB => "getb".into(),
            Send => "send".into(),
            Recv => "recv".into(),
            Spawn => "spawn".into(),
            Sleep => "sleep".into(),
            ModeSwitch => "mode".into(),
            Xbegin => "xbegin".into(),
            Xcommit => "xcommit".into(),
            Xabort => "xabort".into(),
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negate_is_involutive() {
        for cc in [
            CmpCc::Eq,
            CmpCc::Ne,
            CmpCc::Lt,
            CmpCc::Le,
            CmpCc::Gt,
            CmpCc::Ge,
            CmpCc::Ltu,
            CmpCc::Geu,
        ] {
            assert_eq!(cc.negate().negate(), cc);
        }
    }

    #[test]
    fn dir_opposite_round_trips() {
        for d in [Dir::East, Dir::West, Dir::North, Dir::South] {
            assert_eq!(d.opposite().opposite(), d);
        }
    }

    #[test]
    fn mem_classification() {
        assert!(Opcode::Load(MemWidth::W4, Signedness::Signed).is_load());
        assert!(Opcode::Store(MemWidth::W8).is_store());
        assert!(Opcode::Fload.is_mem());
        assert!(!Opcode::Add.is_mem());
    }

    #[test]
    fn latency_defaults_to_one() {
        assert_eq!(Opcode::Add.latency(), 1);
        assert_eq!(Opcode::Mul.latency(), 3);
        assert_eq!(Opcode::Fadd.latency(), 4);
        assert_eq!(Opcode::Load(MemWidth::W8, Signedness::Signed).latency(), 2);
    }

    #[test]
    fn terminators_end_blocks() {
        assert!(Opcode::Jump.ends_block());
        assert!(Opcode::Halt.ends_block());
        assert!(!Opcode::Br.ends_block());
        assert!(Opcode::Br.is_terminator());
    }
}
