//! Backward register liveness over a function.
//!
//! Used at region boundaries: live-in registers of a parallel region are
//! the values the master must ship to workers; live-out registers defined
//! inside the region must be shipped home at the exit.

use std::collections::{HashMap, HashSet};
use voltron_ir::cfg::Cfg;
use voltron_ir::{BlockId, Function, Reg};

/// Per-block live-in/live-out register sets.
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    /// Registers live on entry to each block.
    pub live_in: HashMap<BlockId, HashSet<Reg>>,
    /// Registers live on exit from each block.
    pub live_out: HashMap<BlockId, HashSet<Reg>>,
}

impl Liveness {
    /// Compute liveness by iterating to a fixpoint over the CFG.
    pub fn compute(f: &Function, cfg: &Cfg) -> Liveness {
        let n = f.blocks.len();
        // Per-block use/def (use = read before any write in the block).
        let mut uses: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut defs: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        for (bi, b) in f.blocks.iter().enumerate() {
            for inst in &b.insts {
                for u in inst.uses() {
                    if !defs[bi].contains(&u) {
                        uses[bi].insert(u);
                    }
                }
                if let Some(d) = inst.def() {
                    defs[bi].insert(d);
                }
            }
        }
        let mut live_in: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut live_out: Vec<HashSet<Reg>> = vec![HashSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse RPO converges quickly for reducible CFGs.
            for &b in cfg.rpo.iter().rev() {
                let bi = b.idx();
                let mut out: HashSet<Reg> = HashSet::new();
                for &s in cfg.succs_of(b) {
                    out.extend(live_in[s.idx()].iter().copied());
                }
                let mut inn = uses[bi].clone();
                for r in &out {
                    if !defs[bi].contains(r) {
                        inn.insert(*r);
                    }
                }
                if out != live_out[bi] || inn != live_in[bi] {
                    live_out[bi] = out;
                    live_in[bi] = inn;
                    changed = true;
                }
            }
        }
        Liveness {
            live_in: live_in
                .into_iter()
                .enumerate()
                .map(|(i, s)| (BlockId(i as u32), s))
                .collect(),
            live_out: live_out
                .into_iter()
                .enumerate()
                .map(|(i, s)| (BlockId(i as u32), s))
                .collect(),
        }
    }

    /// Live-in set of a block (empty when unknown).
    pub fn live_in_of(&self, b: BlockId) -> &HashSet<Reg> {
        static EMPTY: std::sync::OnceLock<HashSet<Reg>> = std::sync::OnceLock::new();
        self.live_in
            .get(&b)
            .unwrap_or_else(|| EMPTY.get_or_init(HashSet::new))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::CmpCc;

    #[test]
    fn value_live_across_loop() {
        let mut pb = ProgramBuilder::new("t");
        let out = pb.data_mut().zeroed("out", 8);
        let mut fb = pb.function("main");
        let acc = fb.ldi(0);
        fb.counted_loop(0i64, 10i64, 1, |f, iv| {
            let s = f.add(acc, iv);
            f.mov_to(acc, s);
        });
        let base = fb.ldi(out as i64);
        fb.store8(base, 0, acc);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        // `acc` (defined in entry, stored after the loop) is live into the
        // loop header.
        let header = cfg.succs_of(BlockId(0))[0];
        assert!(lv.live_in_of(header).iter().any(|r| {
            // acc is the first gpr defined by ldi 0
            r.class == voltron_ir::RegClass::Gpr && r.index == 0
        }));
    }

    #[test]
    fn dead_value_is_not_live() {
        let mut pb = ProgramBuilder::new("t");
        pb.data_mut().zeroed("pad", 8);
        let mut fb = pb.function("main");
        let a = fb.ldi(1);
        let exit = fb.label();
        let p0 = fb.cmp(CmpCc::Eq, a, 1i64);
        fb.br_if(p0, exit);
        let _dead = fb.ldi(99); // defined, never used
        fb.bind(exit);
        fb.halt();
        pb.finish_function(fb);
        let p = pb.finish();
        let f = p.main_func();
        let cfg = Cfg::build(f);
        let lv = Liveness::compute(f, &cfg);
        // Nothing is live into the exit block.
        let exit_block = BlockId((f.blocks.len() - 1) as u32);
        assert!(lv.live_in_of(exit_block).is_empty());
    }
}
