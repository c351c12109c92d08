//! Cycle-level simulator of the Voltron dual-mode multicore (HPCA 2007).
//!
//! The machine consists of single-issue, statically scheduled VLIW cores
//! on a 2-D mesh with:
//!
//! * private L1 instruction/data caches kept coherent by a bus-based MOESI
//!   snooping protocol over a shared banked L2 ([`memsys`]);
//! * the **dual-mode scalar operand network** ([`network`]): a 1 cycle/hop
//!   direct mode for lock-step (coupled) execution and a 2 + hops queue
//!   mode for decoupled fine-grain threads;
//! * a 1-bit stall bus that stalls the whole coupled group when any member
//!   stalls ([`machine`]);
//! * low-cost ordered transactional memory for speculative statistical-
//!   DOALL loops ([`tm`]).
//!
//! # Example
//!
//! Machine code is normally produced by `voltron-compiler`; hand-written
//! images work too:
//!
//! ```
//! use voltron_sim::{Machine, MachineConfig, MachineProgram, CoreImage, MBlock};
//! use voltron_ir::{DataSegment, Inst, Opcode, Operand, Reg};
//!
//! let mut data = DataSegment::default();
//! let out = data.zeroed("out", 8);
//! let mut b = MBlock::new("entry", 0);
//! b.insts.push(Inst::with_dst(Opcode::Ldi, Reg::gpr(0), vec![Operand::Imm(out as i64)]));
//! b.insts.push(Inst::with_dst(Opcode::Ldi, Reg::gpr(1), vec![Operand::Imm(41)]));
//! b.insts.push(Inst::with_dst(Opcode::Add, Reg::gpr(2), vec![Reg::gpr(1).into(), Operand::Imm(1)]));
//! b.insts.push(Inst::new(Opcode::Store(voltron_ir::MemWidth::W8),
//!     vec![Reg::gpr(0).into(), Operand::Imm(0), Reg::gpr(2).into()]));
//! b.insts.push(Inst::new(Opcode::Halt, vec![]));
//! let prog = MachineProgram { name: "demo".into(), cores: vec![CoreImage { blocks: vec![b] }], data };
//!
//! let outcome = Machine::new(prog, &MachineConfig::paper(1)).unwrap().run().unwrap();
//! assert_eq!(outcome.memory.load_i64(out).unwrap(), 42);
//! ```

pub mod cache;
pub mod config;
pub mod decode;
pub mod fault;
pub mod machine;
pub mod mcode;
pub mod memsys;
pub mod network;
pub mod obs;
pub mod sealed;
pub mod stats;
pub mod tm;
pub mod trace;
pub mod validate;
pub mod whatif;

pub use config::{CoherenceBackend, IdealKnobs, MachineConfig, Watchdogs};
pub use fault::{FaultBudgetReport, FaultEvent, FaultKind, FaultPlan, FaultSite, FaultStats};
pub use machine::{CoreWait, Machine, RunOutcome, SimError, WaitCause};
pub use mcode::{CoreImage, MBlock, MachineProgram, RegionId, REGION_OUTSIDE};
pub use obs::{
    append_counters, trace_with_counters, ChromeTracer, ProbeSample, ProbeSeries, ProbeSummary,
};
pub use sealed::SealedImage;
pub use stats::{CoreStats, MachineStats, RegionBreakdown, StallReason};
pub use validate::{Site, ValidateError};
pub use whatif::{BoundBy, CycleStack, KnobId};

#[cfg(test)]
mod tests {
    /// The dev profile optimises this crate (the root manifest) but keeps
    /// its checks: a build that turns overflow checks off fails here.
    #[cfg(debug_assertions)]
    #[test]
    fn test_builds_keep_overflow_checks() {
        let overflowed = std::panic::catch_unwind(|| std::hint::black_box(u8::MAX) + 1);
        assert!(overflowed.is_err(), "u8::MAX + 1 did not panic");
    }
}
