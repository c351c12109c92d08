//! Lowered machine code: per-core instruction images.
//!
//! In Voltron each core fetches from its own L1 I-cache, so a compiled
//! program is one instruction image *per core*. Block operands inside an
//! image refer to that image's own blocks (the same *logical* block has a
//! different physical location on every core, exactly as in the paper's
//! distributed branch architecture).

use voltron_ir::{BlockId, DataSegment, Inst, Opcode};

/// Region identifier used for per-region cycle attribution (Fig. 3).
pub type RegionId = u32;

/// Region id assigned to bookkeeping code outside any planned region.
pub const REGION_OUTSIDE: RegionId = u32::MAX;

/// One machine basic block on one core.
#[derive(Debug, Clone, PartialEq)]
pub struct MBlock {
    /// Debug label (e.g. `"gsm.bb3.c0"`).
    pub name: String,
    /// The scheduled instructions, one issue slot per entry.
    pub insts: Vec<Inst>,
    /// The planner region this block belongs to.
    pub region: RegionId,
}

impl MBlock {
    /// An empty block with the given name and region.
    pub fn new(name: impl Into<String>, region: RegionId) -> MBlock {
        MBlock {
            name: name.into(),
            insts: Vec::new(),
            region,
        }
    }

    /// Whether control can run past the block's end: it is empty or ends
    /// in neither a terminator nor `SLEEP` (the core idles until a spawn).
    pub(crate) fn falls_through(&self) -> bool {
        self.insts
            .last()
            .is_none_or(|i| !i.op.ends_block() && i.op != Opcode::Sleep)
    }
}

/// The instruction image of one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreImage {
    /// Blocks; `BlockId(i)` indexes `blocks[i]`. Block 0 is where the core
    /// starts (master) or where spawns land (workers choose their own
    /// entry blocks, block 0 of a worker is unused unless targeted).
    pub blocks: Vec<MBlock>,
}

impl CoreImage {
    /// Byte address of instruction `(block, index)` in this core's
    /// instruction space. Instructions are 4 bytes; cores' spaces are
    /// disjoint (`core` selects a 16 MiB window).
    pub fn inst_addr(&self, core: usize, block: BlockId, index: usize) -> u64 {
        // The simulator fetches through its decoded image, where the
        // address is `base + 4 * pc` (`crate::decode`); this linear walk
        // is only for tests and diagnostics.
        let mut off = 0u64;
        for b in &self.blocks[..block.idx()] {
            off += b.insts.len() as u64;
        }
        Self::base(core) + (off + index as u64) * 4
    }

    /// Base address of a core's instruction window.
    pub fn base(core: usize) -> u64 {
        0x8000_0000 + (core as u64) * 0x0100_0000
    }

    /// Total instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Maximum register index + 1 per class used in this image.
    pub fn reg_counts(&self) -> [u32; 4] {
        let mut counts = [0u32; 4];
        for b in &self.blocks {
            for i in &b.insts {
                if let Some(d) = i.dst {
                    let c = &mut counts[d.class.index()];
                    *c = (*c).max(d.index + 1);
                }
                for u in i.uses() {
                    let c = &mut counts[u.class.index()];
                    *c = (*c).max(u.index + 1);
                }
            }
        }
        counts
    }
}

/// A compiled program: one image per core plus the data segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MachineProgram {
    /// Program name (reports).
    pub name: String,
    /// Per-core instruction images; `cores.len()` is the core count the
    /// program was compiled for.
    pub cores: Vec<CoreImage>,
    /// The data segment to materialize at boot.
    pub data: DataSegment,
}

impl MachineProgram {
    /// Invariant 0 of [`MachineProgram::validate`] and its `CALL`/`RET`
    /// rule on their own, per image. Kept only because the benchmark's
    /// staged pipeline calls it; sealing runs `validate`.
    ///
    /// # Errors
    /// Returns a description of the first problem.
    pub fn check(&self) -> Result<(), String> {
        for (ci, img) in self.cores.iter().enumerate() {
            for (bi, b) in img.blocks.iter().enumerate() {
                for (ii, inst) in b.insts.iter().enumerate() {
                    if let Some(t) = inst.static_target() {
                        if t.idx() >= img.blocks.len() {
                            return Err(format!(
                                "core {ci} block {bi} ({}) inst {ii}: target {t} out of range",
                                b.name
                            ));
                        }
                    }
                    if inst.op == Opcode::Call || inst.op == Opcode::Ret {
                        return Err(format!(
                            "core {ci} block {bi}: {} survives lowering (calls must be inlined)",
                            inst.op
                        ));
                    }
                }
                if bi + 1 == img.blocks.len() && b.falls_through() {
                    return Err(format!(
                        "core {ci}: last block {bi} ({}) falls off the image",
                        b.name
                    ));
                }
            }
        }
        Ok(())
    }

    /// Pretty-print one core's image (debugging aid).
    pub fn dump_core(&self, core: usize) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "core {core}:");
        for (bi, b) in self.cores[core].blocks.iter().enumerate() {
            let _ = writeln!(s, "  bb{bi} <{}> region {}:", b.name, b.region);
            for i in &b.insts {
                let _ = writeln!(s, "      {i}");
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::{Inst, Opcode, Operand};

    fn halt_image() -> CoreImage {
        let mut b = MBlock::new("entry", 0);
        b.insts.push(Inst::nop());
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        CoreImage { blocks: vec![b] }
    }

    #[test]
    fn addresses_are_per_core_disjoint() {
        let img = halt_image();
        let a0 = img.inst_addr(0, BlockId(0), 0);
        let a1 = img.inst_addr(1, BlockId(0), 0);
        assert_ne!(a0, a1);
        assert_eq!(img.inst_addr(0, BlockId(0), 1), a0 + 4);
    }

    #[test]
    fn check_catches_bad_target() {
        let mut img = halt_image();
        img.blocks[0].insts[0] = Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(7))]);
        let p = MachineProgram {
            name: "t".into(),
            cores: vec![img],
            data: DataSegment::default(),
        };
        assert!(p.check().unwrap_err().contains("out of range"));
    }

    #[test]
    fn check_catches_fallthrough_off_image() {
        let mut img = halt_image();
        img.blocks[0].insts.pop();
        let p = MachineProgram {
            name: "t".into(),
            cores: vec![img],
            data: DataSegment::default(),
        };
        assert!(p.check().unwrap_err().contains("falls off"));
    }

    #[test]
    fn reg_counts_cover_uses_guards_and_destinations() {
        let mut img = halt_image();
        img.blocks[0].insts[0] = Inst::with_dst(
            Opcode::Fadd,
            voltron_ir::Reg::fpr(4),
            vec![
                voltron_ir::Reg::fpr(1).into(),
                voltron_ir::Reg::fpr(6).into(),
            ],
        )
        .guarded(voltron_ir::Reg::pred(2));
        assert_eq!(img.reg_counts(), [0, 7, 3, 0]);
        assert_eq!(img.inst_count(), 2);
    }
}
