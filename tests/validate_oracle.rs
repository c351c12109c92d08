//! `MachineProgram::validate` against its oracle on what the compiler
//! really emits.
//!
//! The oracle (`crates/sim/tests/common/validate_oracle.rs`) is the
//! map-per-invariant validator the one-walk `validate()` replaced; the
//! simulator's own suite holds the two together on hand-built and random
//! images. Here every workload is compiled under every parallel strategy
//! at 4, 16 and 64 cores, and each image must get the identical `Result`
//! from both — clean, and again with one `SEND`, one `GET`, one `GETB` and
//! one `MODE_SWITCH` site deleted (which site is drawn from a fixed
//! seed), so the sweeps are compared on images with thousands of streams,
//! dozens of regions and a real rejection to order.

#[path = "../crates/sim/tests/common/validate_oracle.rs"]
mod validate_oracle;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use validate_oracle::validate_oracle;
use voltron_compiler::{compile_prepared, CompileOptions, FrontEnd, Strategy};
use voltron_ir::Opcode;
use voltron_sim::{MachineConfig, MachineProgram};
use voltron_workloads::{all, Scale};

/// Every `(core, block, slot)` holding an `op`.
fn sites(p: &MachineProgram, op: Opcode) -> Vec<(usize, usize, usize)> {
    let mut out = Vec::new();
    for (c, img) in p.cores.iter().enumerate() {
        for (b, blk) in img.blocks.iter().enumerate() {
            for (i, inst) in blk.insts.iter().enumerate() {
                if inst.op == op {
                    out.push((c, b, i));
                }
            }
        }
    }
    out
}

#[test]
fn compiler_output_validates_like_the_oracle_clean_and_corrupted() {
    let opts = CompileOptions::default();
    let mut rng = StdRng::seed_from_u64(20);
    let mut rejected = [0usize; 4];
    for w in all(Scale::Test) {
        let fe = FrontEnd::new(&w.program, Strategy::Ilp, &MachineConfig::scaled(4), &opts)
            .unwrap_or_else(|e| panic!("{}: front end: {e}", w.name));
        for strategy in [
            Strategy::Ilp,
            Strategy::FineGrainTlp,
            Strategy::Llp,
            Strategy::Hybrid,
        ] {
            for cores in [4usize, 16, 64] {
                let mcfg = MachineConfig::scaled(cores);
                let image = compile_prepared(&fe, strategy, &mcfg, &opts)
                    .unwrap_or_else(|e| panic!("{} {strategy}/{cores}: {e}", w.name))
                    .machine;
                let label = format!("{} {strategy}/{cores}", w.name);
                assert_eq!(image.validate(&mcfg), Ok(()), "{label}");
                assert_eq!(validate_oracle(&image, &mcfg), Ok(()), "{label}");
                let ops = [Opcode::Send, Opcode::Get, Opcode::GetB, Opcode::ModeSwitch];
                for (k, op) in ops.into_iter().enumerate() {
                    let at = sites(&image, op);
                    if at.is_empty() {
                        continue;
                    }
                    let (c, b, i) = at[rng.gen_range(0..at.len())];
                    let mut broken = image.clone();
                    broken.cores[c].blocks[b].insts.remove(i);
                    let got = broken.validate(&mcfg);
                    assert_eq!(
                        got,
                        validate_oracle(&broken, &mcfg),
                        "{label}: {op} deleted at core {c} bb{b} inst {i}"
                    );
                    rejected[k] += usize::from(got.is_err());
                }
            }
        }
    }
    // Deleting one of several SEND sites of a stream is legal (matching
    // is by existence) and condition replication leaves few broadcasts,
    // but each kind of deletion must have produced real rejections to
    // compare.
    assert!(rejected.iter().all(|&n| n >= 5), "rejections {rejected:?}");
}
