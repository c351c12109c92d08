//! Compiler intermediate representation for the Voltron reproduction.
//!
//! This crate plays the role that Trimaran's mid-level IR played in the
//! original paper: a typed, virtual-register, HPL-PD-flavored representation
//! that the Voltron compiler partitions, schedules, and lowers to per-core
//! machine code, and that a reference interpreter can execute directly to
//! produce golden outputs and profiles.
//!
//! # Overview
//!
//! * [`Program`] — a whole program: functions plus a static data segment.
//! * [`Function`] / [`Block`] / [`Inst`] — the code hierarchy. Blocks fall
//!   through in layout order unless terminated by an unconditional
//!   control-flow instruction.
//! * [`Reg`] — typed virtual registers in four classes (general, floating
//!   point, predicate, branch-target), mirroring HPL-PD's GPR/FPR/PR/BTR
//!   files.
//! * [`Opcode`] — the instruction set, including Voltron's inter-core
//!   communication operations (`PUT`/`GET`/`SEND`/`RECV`/`BCAST`/`SPAWN`/
//!   `SLEEP`/`MODE_SWITCH`) and transactional-memory markers.
//! * [`builder`] — ergonomic construction of programs (used heavily by the
//!   `voltron-workloads` crate).
//! * [`interp`] — the reference interpreter (golden model).
//! * [`profile`] — a profiling interpreter collecting block counts, loop
//!   trip counts, per-load cache-miss rates, and cross-iteration memory
//!   dependence observations (the input to statistical-DOALL detection).
//! * [`mod@cfg`] / [`loops`] — dominators, reverse postorder, natural loops.
//! * [`hash`] — the integer-key hasher the simulator and compiler share.
//!
//! # Example
//!
//! ```
//! use voltron_ir::builder::ProgramBuilder;
//!
//! let mut pb = ProgramBuilder::new("demo");
//! let arr = pb.data_mut().array_i64("a", &[1, 2, 3, 4]);
//! let mut f = pb.function("main");
//! let base = f.ldi(arr as i64);
//! let x = f.load8(base, 0);
//! let y = f.load8(base, 8);
//! let s = f.add(x, y);
//! f.store8(base, 16, s);
//! f.halt();
//! pb.finish_function(f);
//! let program = pb.finish();
//!
//! let out = voltron_ir::interp::run(&program, 1_000_000).unwrap();
//! assert_eq!(out.memory.load_i64(arr + 16).unwrap(), 3);
//! ```

pub mod builder;
pub mod cfg;
pub mod hash;
pub mod inst;
pub mod interp;
pub mod loops;
pub mod mem;
pub mod opcode;
pub mod pretty;
pub mod profile;
pub mod program;
pub mod reg;
pub mod semantics;
pub mod value;
pub mod verify;

pub use inst::{Inst, InstRef, Operand};
pub use mem::{MemError, Memory};
pub use opcode::{CmpCc, Dir, ExecMode, MemWidth, Opcode, Signedness};
pub use program::{Block, BlockId, DataSegment, FuncId, Function, Program, Symbol};
pub use reg::{Reg, RegClass};
pub use value::Value;
