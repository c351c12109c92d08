//! Decode invariants (DESIGN.md §13): the flat decoded image must carry
//! exactly the facts the `Inst`s carried, for every image the golden
//! matrices run and for images nobody hand-wrote.
//!
//! For each core image and its decoding:
//!
//! 1. flat index <-> `(block, slot)` is a bijection over instructions,
//!    in image order;
//! 2. every static branch target and every block-table entry is the first
//!    instruction at or after the named block — what the per-cycle
//!    empty-block walk used to find — or the off-the-end sentinel;
//! 3. the scoreboard slots are `Inst::uses_iter()` + `dst`, and every
//!    register has its own slot below the constant pool;
//! 4. the fetch address is `CoreImage::inst_addr`.

use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use voltron_compiler::{compile, CompileOptions, Strategy};
use voltron_ir::BlockId;
use voltron_sim::decode::{BrTarget, DOp, DecodedProgram};
use voltron_sim::{CoreImage, MBlock, MachineConfig, MachineProgram};
use voltron_workloads::{by_name, Scale};

#[path = "common/fuzz.rs"]
mod fuzz;

/// Where a transfer to block `b` lands: the first `(block, slot)` at or
/// after it, skipping empty blocks (`None` = ran off the end).
fn landing(image: &CoreImage, b: usize) -> Option<(usize, usize)> {
    (b..image.blocks.len())
        .find(|&b| !image.blocks[b].insts.is_empty())
        .map(|b| (b, 0))
}

fn assert_decode_invariants(p: &MachineProgram) {
    let decoded = DecodedProgram::new(p);
    assert_eq!(decoded.cores.len(), p.cores.len());
    for (c, (image, d)) in p.cores.iter().zip(decoded.cores.iter()).enumerate() {
        // (1) Image order enumerates the flat indices, and each decoded
        // instruction points back at where it came from.
        let mut flat_of = HashMap::new();
        for (bi, b) in image.blocks.iter().enumerate() {
            for si in 0..b.insts.len() {
                let flat = flat_of.len();
                let back = &d.insts[flat];
                assert_eq!((back.block as usize, back.slot as usize), (bi, si));
                flat_of.insert((bi, si), flat as u32);
            }
        }
        assert_eq!(flat_of.len(), d.insts.len(), "core {c}: instruction count");
        let flat_landing = |b: usize| landing(image, b).map_or(d.off_end(), |at| flat_of[&at]);

        let mut slots = HashSet::new();
        for (bi, b) in image.blocks.iter().enumerate() {
            // (2) The block table.
            assert_eq!(
                d.entry(BlockId(bi as u32)),
                flat_landing(bi),
                "core {c} bb{bi}"
            );
            for (si, inst) in b.insts.iter().enumerate() {
                let flat = flat_of[&(bi, si)];
                let di = &d.insts[flat as usize];
                let at = format!("core {c} bb{bi}[{si}] `{inst}`");
                // (2) Static targets.
                if let (Some(t), DOp::Br { target, .. }) = (inst.static_target(), di.op) {
                    assert_eq!(target, BrTarget::Flat(flat_landing(t.idx())), "{at}");
                }
                // (3) Scoreboard slots, one slot per register.
                let regs: Vec<_> = inst.uses_iter().chain(inst.dst).collect();
                let expect: Vec<u32> = regs.iter().map(|&r| d.slot(r)).collect();
                assert_eq!(d.scoreboard(di).collect::<Vec<_>>(), expect, "{at}");
                assert_eq!(di.guard, inst.guard.map_or(d.true_slot(), |g| d.slot(g)));
                for r in regs {
                    assert!((d.slot(r) as usize) < d.n_regs(), "{at}: {r} in the pool");
                    slots.insert((d.slot(r), r));
                }
                // (4) Fetch address.
                assert_eq!(
                    d.fetch_addr(flat),
                    image.inst_addr(c, BlockId(bi as u32), si),
                    "{at}"
                );
                assert_eq!(di.region, b.region, "{at}");
                assert_eq!(di.latency, inst.op.latency(), "{at}");
            }
        }
        let distinct: HashSet<u32> = slots.iter().map(|&(s, _)| s).collect();
        assert_eq!(
            distinct.len(),
            slots.len(),
            "core {c}: two registers share a slot"
        );
        assert_eq!(d.entry(BlockId(image.blocks.len() as u32)), d.off_end());
        assert_eq!(&d.consts[..2], &[0, 1], "core {c}: the zero and true slots");
    }
}

/// Every image of the 28-entry `cycle_golden` and 16-entry
/// `scaling_golden` matrices (and the rest of the strategy x cores grid
/// over the same six workloads; the coherence backend does not reach the
/// compiler).
#[test]
fn golden_matrix_images_satisfy_the_decode_invariants() {
    let strategies = [
        Strategy::Ilp,
        Strategy::FineGrainTlp,
        Strategy::Llp,
        Strategy::Hybrid,
    ];
    let mut images = 0;
    for bench in [
        "164.gzip",
        "rawcaudio",
        "171.swim",
        "179.art",
        "epic",
        "mpeg2dec",
    ] {
        let w = by_name(bench, Scale::Test).expect("benchmark registered");
        let grid = std::iter::once((Strategy::Serial, 1)).chain(
            strategies
                .iter()
                .flat_map(|&s| [2, 4, 8, 16].map(|cores| (s, cores))),
        );
        for (strategy, cores) in grid {
            let cfg = MachineConfig::scaled(cores);
            let compiled = compile(&w.program, strategy, &cfg, &CompileOptions::default())
                .unwrap_or_else(|e| panic!("{bench} {strategy}/{cores}: compile: {e}"));
            assert_decode_invariants(&compiled.machine);
            images += compiled.machine.cores.len();
        }
    }
    assert!(images > 44, "the grid covers the golden matrices");
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 128, ..ProptestConfig::default()
    })]

    /// Random two-core programs — branches into any block, operands that
    /// straddle the valid space, empty blocks spliced in front of, between
    /// and behind the real ones — decode without panicking and satisfy the
    /// same invariants.
    #[test]
    fn random_images_satisfy_the_decode_invariants(
        main_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..12),
        spin_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..8),
        worker_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..8),
        empties in 0..8usize,
    ) {
        let (mut p, _) = fuzz::two_core_case(&main_ops, &spin_ops, &worker_ops);
        for image in &mut p.cores {
            for at in [2, 1, 0] {
                if empties & (1 << at) != 0 {
                    image.blocks.insert(at, MBlock::new("empty", 9));
                }
            }
        }
        assert_decode_invariants(&p);
    }
}
