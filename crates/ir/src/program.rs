//! Programs, functions, blocks, and the static data segment.

use crate::inst::Inst;
use crate::reg::{Reg, RegClass};
use std::fmt;

/// Identifier of a basic block within a function (or per-core image).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a function within a program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(pub u32);

impl FuncId {
    /// The function index as usize.
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// A basic block: straight-line instructions with terminators at the end.
///
/// Blocks fall through to the next block in layout order unless the last
/// instruction is an unconditional control transfer
/// ([`crate::opcode::Opcode::ends_block`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Block {
    /// The instructions, in program order.
    pub insts: Vec<Inst>,
}

impl Block {
    /// True if the block falls through to the next block in layout order.
    pub fn falls_through(&self) -> bool {
        match self.insts.last() {
            Some(i) => !i.op.ends_block(),
            None => true,
        }
    }
}

/// A function: parameters and a vector of basic blocks; block 0 is entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Human-readable name.
    pub name: String,
    /// Parameter registers, filled by the caller's arguments.
    pub params: Vec<Reg>,
    /// The blocks; `BlockId(i)` indexes `blocks[i]`. Block 0 is the entry.
    pub blocks: Vec<Block>,
}

impl Function {
    /// Create an empty function with one (empty) entry block.
    pub fn new(name: impl Into<String>) -> Function {
        Function {
            name: name.into(),
            params: Vec::new(),
            blocks: vec![Block::default()],
        }
    }

    /// Entry block id (always `BlockId(0)`).
    pub fn entry(&self) -> BlockId {
        BlockId(0)
    }

    /// Shared access to a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.idx()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    /// Panics if `b` is out of range.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.idx()]
    }

    /// Iterate over `(BlockId, &Block)` pairs in layout order.
    pub fn iter_blocks(&self) -> impl Iterator<Item = (BlockId, &Block)> {
        self.blocks
            .iter()
            .enumerate()
            .map(|(i, b)| (BlockId(i as u32), b))
    }

    /// Highest register index used per class, plus one (register file sizes).
    pub fn reg_counts(&self) -> [u32; 4] {
        let mut counts = [0u32; 4];
        let mut bump = |r: Reg| {
            let c = &mut counts[r.class.index()];
            *c = (*c).max(r.index + 1);
        };
        for r in &self.params {
            bump(*r);
        }
        for b in &self.blocks {
            for i in &b.insts {
                if let Some(d) = i.dst {
                    bump(d);
                }
                for u in i.uses() {
                    bump(u);
                }
            }
        }
        counts
    }

    /// Total static instruction count.
    pub fn inst_count(&self) -> usize {
        self.blocks.iter().map(|b| b.insts.len()).sum()
    }

    /// Allocate a fresh register of the given class (one past the current
    /// maximum index).
    pub fn fresh_reg(&mut self, class: RegClass) -> Reg {
        let counts = self.reg_counts();
        Reg {
            class,
            index: counts[class.index()],
        }
    }
}

/// A named region of the data segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Symbol {
    /// Symbol name (unique within the program).
    pub name: String,
    /// Byte offset from [`DataSegment::BASE`].
    pub offset: u64,
    /// Size in bytes.
    pub size: u64,
}

/// The static data segment: initialized globals.
///
/// All workload state lives here (the IR has no stack: calls are inlined
/// before code generation and locals live in virtual registers).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataSegment {
    /// Raw initialized bytes; address of byte `i` is `BASE + i`.
    pub bytes: Vec<u8>,
    /// Symbols, in allocation order.
    pub symbols: Vec<Symbol>,
}

impl DataSegment {
    /// Virtual address of the first data byte.
    pub const BASE: u64 = 0x1_0000;

    /// Allocate `size` bytes aligned to `align`, initialized to zero.
    /// Returns the symbol's virtual address.
    pub fn alloc(&mut self, name: impl Into<String>, size: u64, align: u64) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let mut off = self.bytes.len() as u64;
        off = (off + align - 1) & !(align - 1);
        self.bytes.resize((off + size) as usize, 0);
        self.symbols.push(Symbol {
            name: name.into(),
            offset: off,
            size,
        });
        Self::BASE + off
    }

    /// Allocate and initialize an `i64` array. Returns its address.
    pub fn array_i64(&mut self, name: impl Into<String>, init: &[i64]) -> u64 {
        let addr = self.alloc(name, (init.len() * 8) as u64, 8);
        for (i, v) in init.iter().enumerate() {
            let o = (addr - Self::BASE) as usize + i * 8;
            self.bytes[o..o + 8].copy_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate and initialize an `i32` array. Returns its address.
    pub fn array_i32(&mut self, name: impl Into<String>, init: &[i32]) -> u64 {
        let addr = self.alloc(name, (init.len() * 4) as u64, 8);
        for (i, v) in init.iter().enumerate() {
            let o = (addr - Self::BASE) as usize + i * 4;
            self.bytes[o..o + 4].copy_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate and initialize an `i16` array. Returns its address.
    pub fn array_i16(&mut self, name: impl Into<String>, init: &[i16]) -> u64 {
        let addr = self.alloc(name, (init.len() * 2) as u64, 8);
        for (i, v) in init.iter().enumerate() {
            let o = (addr - Self::BASE) as usize + i * 2;
            self.bytes[o..o + 2].copy_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate and initialize a byte array. Returns its address.
    pub fn array_u8(&mut self, name: impl Into<String>, init: &[u8]) -> u64 {
        let addr = self.alloc(name, init.len() as u64, 8);
        let o = (addr - Self::BASE) as usize;
        self.bytes[o..o + init.len()].copy_from_slice(init);
        addr
    }

    /// Allocate and initialize an `f64` array. Returns its address.
    pub fn array_f64(&mut self, name: impl Into<String>, init: &[f64]) -> u64 {
        let addr = self.alloc(name, (init.len() * 8) as u64, 8);
        for (i, v) in init.iter().enumerate() {
            let o = (addr - Self::BASE) as usize + i * 8;
            self.bytes[o..o + 8].copy_from_slice(&v.to_le_bytes());
        }
        addr
    }

    /// Allocate a zero-initialized region of `size` bytes. Returns its
    /// address.
    pub fn zeroed(&mut self, name: impl Into<String>, size: u64) -> u64 {
        self.alloc(name, size, 8)
    }

    /// Look up a symbol's address by name.
    pub fn symbol_addr(&self, name: &str) -> Option<u64> {
        self.symbols
            .iter()
            .find(|s| s.name == name)
            .map(|s| Self::BASE + s.offset)
    }

    /// Total size in bytes.
    pub fn size(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// Given an address, the symbol containing it (for alias analysis and
    /// diagnostics).
    pub fn symbol_containing(&self, addr: u64) -> Option<&Symbol> {
        if addr < Self::BASE {
            return None;
        }
        let off = addr - Self::BASE;
        self.symbols
            .iter()
            .find(|s| off >= s.offset && off < s.offset + s.size)
    }
}

/// A whole program: functions (with a designated `main`) and the data
/// segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Program name (used in reports).
    pub name: String,
    /// All functions; `FuncId(i)` indexes `funcs[i]`.
    pub funcs: Vec<Function>,
    /// Index of the entry function.
    pub main: FuncId,
    /// The static data segment.
    pub data: DataSegment,
}

impl Program {
    /// Shared access to a function.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.funcs[f.idx()]
    }

    /// Mutable access to a function.
    ///
    /// # Panics
    /// Panics if `f` is out of range.
    pub fn func_mut(&mut self, f: FuncId) -> &mut Function {
        &mut self.funcs[f.idx()]
    }

    /// The entry function.
    pub fn main_func(&self) -> &Function {
        self.func(self.main)
    }

    /// Total static instruction count across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(Function::inst_count).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::Opcode;

    #[test]
    fn data_segment_allocates_aligned() {
        let mut d = DataSegment::default();
        let a = d.array_u8("a", &[1, 2, 3]);
        let b = d.array_i64("b", &[10, 20]);
        assert_eq!(a, DataSegment::BASE);
        assert_eq!(b % 8, 0);
        assert!(b >= a + 3);
        assert_eq!(d.symbol_addr("b"), Some(b));
        let sym = d.symbol_containing(b + 8).unwrap();
        assert_eq!(sym.name, "b");
    }

    #[test]
    fn array_init_round_trips() {
        let mut d = DataSegment::default();
        let a = d.array_i32("a", &[-5, 7]);
        let off = (a - DataSegment::BASE) as usize;
        let v = i32::from_le_bytes(d.bytes[off..off + 4].try_into().unwrap());
        assert_eq!(v, -5);
    }

    #[test]
    fn reg_counts_track_max() {
        let mut f = Function::new("t");
        f.block_mut(BlockId(0)).insts.push(Inst::with_dst(
            Opcode::Add,
            Reg::gpr(9),
            vec![Reg::gpr(2).into(), Reg::gpr(3).into()],
        ));
        assert_eq!(f.reg_counts()[0], 10);
        let fresh = f.fresh_reg(RegClass::Gpr);
        assert_eq!(fresh.index, 10);
    }

    #[test]
    fn fallthrough_detection() {
        let mut b = Block::default();
        assert!(b.falls_through());
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        assert!(!b.falls_through());
    }
}
