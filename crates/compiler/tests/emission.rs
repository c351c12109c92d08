//! Structural inspection of emitted machine code: the right Voltron
//! mechanisms must appear in the right places.

use std::collections::HashMap;
use voltron_compiler::{compile, CompileOptions, Strategy};
use voltron_ir::builder::ProgramBuilder;
use voltron_ir::{Inst, Opcode, Operand, Program, Reg};
use voltron_sim::{CoreImage, MachineConfig, MachineProgram, RegionId};
use voltron_workloads::{by_name, Scale};

fn doall_program(n: i64) -> Program {
    let mut pb = ProgramBuilder::new("emit-doall");
    let a = pb.data_mut().zeroed("a", (n * 8) as u64);
    let mut f = pb.function("main");
    let base = f.ldi(a as i64);
    f.counted_loop(0i64, n, 1, |f, iv| {
        let off = f.shl(iv, 3i64);
        let ad = f.add(base, off);
        let v = f.mul(iv, iv);
        f.store8(ad, 0, v);
    });
    f.halt();
    pb.finish_function(f);
    pb.finish()
}

/// Wide independent FP chains: an ILP-friendly region.
fn ilp_program() -> Program {
    let mut pb = ProgramBuilder::new("emit-ilp");
    let a = pb.data_mut().array_f64("a", &[1.5; 64]);
    let out = pb.data_mut().zeroed("out", 32);
    let mut f = pb.function("main");
    let base = f.ldi(a as i64);
    let ob = f.ldi(out as i64);
    f.counted_loop(0i64, 62i64, 1, |f, iv| {
        let off = f.shl(iv, 3i64);
        let ad = f.add(base, off);
        // Read the neighbor ahead: a cross-iteration memory dependence
        // that keeps this loop off the DOALL path (so the ILP machinery,
        // including the unroller, owns it) while the iterations' scalar
        // work stays independent.
        let x = f.fload(ad, 8);
        let mut chains = Vec::new();
        for _ in 0..4 {
            let y = f.fmul(x, x);
            let z = f.fadd(y, x);
            chains.push(f.fmul(z, y));
        }
        let s0 = f.fadd(chains[0], chains[1]);
        let s1 = f.fadd(chains[2], chains[3]);
        let s = f.fadd(s0, s1);
        f.fstore(ad, 0, s);
        let _ = iv;
    });
    let v = f.fload(base, 0);
    f.fstore(ob, 0, v);
    f.halt();
    pb.finish_function(f);
    pb.finish()
}

fn count_op(m: &MachineProgram, core: usize, op: Opcode) -> usize {
    m.cores[core]
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|i| i.op == op)
        .count()
}

fn count_op_all(m: &MachineProgram, op: Opcode) -> usize {
    (0..m.cores.len()).map(|c| count_op(m, c, op)).sum()
}

#[test]
fn doall_emits_speculation_and_chunk_distribution() {
    let p = doall_program(500);
    let cfg = MachineConfig::paper(4);
    let c = compile(&p, Strategy::Llp, &cfg, &CompileOptions::default()).unwrap();
    let m = &c.machine;
    // Master spawns 3 workers, every core begins and commits a chunk.
    assert_eq!(count_op(m, 0, Opcode::Spawn), 3);
    assert_eq!(count_op_all(m, Opcode::Xbegin), 4);
    assert_eq!(count_op_all(m, Opcode::Xcommit), 4);
    // Workers finish with SLEEP; nobody mode-switches (pure decoupled).
    for k in 1..4 {
        assert!(count_op(m, k, Opcode::Sleep) >= 1, "core {k} must sleep");
    }
    assert_eq!(count_op_all(m, Opcode::ModeSwitch), 0);
    // The plan recorded a doall region.
    assert!(c.region_kinds.values().any(|k| *k == "doall"));
}

#[test]
fn coupled_regions_use_distributed_branches_and_mode_switches() {
    let p = ilp_program();
    let cfg = MachineConfig::paper(2);
    let c = compile(&p, Strategy::Ilp, &cfg, &CompileOptions::default()).unwrap();
    let m = &c.machine;
    assert!(
        c.region_kinds.values().any(|k| *k == "ilp"),
        "planner chose {:?}",
        c.region_kinds
    );
    // Coupled code branches through PBR + BR on every participating core.
    for k in 0..2 {
        assert!(count_op(m, k, Opcode::Pbr) >= 1, "core {k} lacks PBR");
        assert!(
            count_op(m, k, Opcode::ModeSwitch) >= 2,
            "core {k} must switch in and back out"
        );
    }
    // Lock-step slots are NOP-padded somewhere.
    assert!(count_op_all(m, Opcode::Nop) > 0);
}

#[test]
fn condition_replication_removes_broadcasts() {
    let p = ilp_program();
    let cfg = MachineConfig::paper(2);
    let with = compile(&p, Strategy::Ilp, &cfg, &CompileOptions::default()).unwrap();
    let mut o = CompileOptions::default();
    o.emit.condition_replication = false;
    let without = compile(&p, Strategy::Ilp, &cfg, &o).unwrap();
    let b_with = count_op_all(&with.machine, Opcode::Bcast);
    let b_without = count_op_all(&without.machine, Opcode::Bcast);
    assert!(
        b_with < b_without,
        "replication should remove broadcasts: {b_with} vs {b_without}"
    );
    // The loop-exit compare is cloned on both cores when replicating.
    let cmp_with: usize = (0..2)
        .map(|k| {
            with.machine.cores[k]
                .blocks
                .iter()
                .flat_map(|b| b.insts.iter())
                .filter(|i| matches!(i.op, Opcode::Cmp(_)))
                .count()
        })
        .sum();
    let cmp_without: usize = (0..2)
        .map(|k| {
            without.machine.cores[k]
                .blocks
                .iter()
                .flat_map(|b| b.insts.iter())
                .filter(|i| matches!(i.op, Opcode::Cmp(_)))
                .count()
        })
        .sum();
    assert!(cmp_with > cmp_without);
}

#[test]
fn decoupled_strands_use_tagged_queues_and_join_tokens() {
    // Force strands on a two-array kernel.
    let mut pb = ProgramBuilder::new("emit-strands");
    let a = pb.data_mut().array_i64("a", &[3; 256]);
    let b = pb.data_mut().array_i64("b", &[4; 256]);
    let out = pb.data_mut().zeroed("out", 16);
    let mut f = pb.function("main");
    let ab = f.ldi(a as i64);
    let bb = f.ldi(b as i64);
    let s1 = f.ldi(0);
    let s2 = f.ldi(0);
    f.counted_loop(0i64, 256i64, 1, |f, iv| {
        let off = f.shl(iv, 3i64);
        let pa = f.add(ab, off);
        let va = f.load8(pa, 0);
        let wa = f.mul(va, 3i64);
        f.reduce_add(s1, wa);
        let pb2 = f.add(bb, off);
        let vb = f.load8(pb2, 0);
        let wb = f.mul(vb, 5i64);
        f.reduce_add(s2, wb);
    });
    let ob = f.ldi(out as i64);
    f.store8(ob, 0, s1);
    f.store8(ob, 8, s2);
    f.halt();
    pb.finish_function(f);
    let p = pb.finish();

    let cfg = MachineConfig::paper(2);
    let c = compile(&p, Strategy::FineGrainTlp, &cfg, &CompileOptions::default()).unwrap();
    let m = &c.machine;
    assert!(
        c.region_kinds
            .values()
            .any(|k| *k == "strands" || *k == "dswp"),
        "planner chose {:?}",
        c.region_kinds
    );
    // Queue-mode communication, no direct-mode ops, at least one join
    // token (tag TAG_JOIN) from the worker.
    assert!(count_op_all(m, Opcode::Send) >= 1);
    assert!(count_op_all(m, Opcode::Recv) >= 1);
    assert_eq!(count_op_all(m, Opcode::Put), 0);
    assert_eq!(count_op_all(m, Opcode::Get), 0);
    let join_sends = m.cores[1]
        .blocks
        .iter()
        .flat_map(|b| b.insts.iter())
        .filter(|i| {
            i.op == Opcode::Send
                && matches!(
                    i.srcs.get(2),
                    Some(voltron_ir::Operand::Imm(t))
                        if *t == i64::from(voltron_sim::network::TAG_JOIN)
                )
        })
        .count();
    assert!(join_sends >= 1, "worker must send a join token");
}

#[test]
fn serial_strategy_uses_master_only() {
    let p = doall_program(500);
    let cfg = MachineConfig::paper(4);
    let c = compile(&p, Strategy::Serial, &cfg, &CompileOptions::default()).unwrap();
    for k in 1..4 {
        // Workers carry only the boot sleep block.
        let useful: usize = c.machine.cores[k]
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter(|i| i.op != Opcode::Sleep)
            .count();
        assert_eq!(useful, 0, "core {k} should be empty under Serial");
    }
}

#[test]
fn unrolling_can_be_disabled() {
    let p = ilp_program();
    let cfg = MachineConfig::paper(2);
    let no_unroll = CompileOptions {
        unroll: None,
        ..CompileOptions::default()
    };
    let a = compile(&p, Strategy::Ilp, &cfg, &no_unroll).unwrap();
    let b = compile(&p, Strategy::Ilp, &cfg, &CompileOptions::default()).unwrap();
    let static_a: usize = a.machine.cores.iter().map(|c| c.inst_count()).sum();
    let static_b: usize = b.machine.cores.iter().map(|c| c.inst_count()).sum();
    assert!(
        static_b > static_a,
        "unrolling should enlarge the image: {static_b} !> {static_a}"
    );
}

/// An image with everything a per-core patch table would carry taken
/// out: block names dropped, `Core` operands, `SEND`/`RECV` tags and the
/// `XBEGIN` ordinal zeroed, and registers renumbered per class in order
/// of first occurrence (the emitter hands each worker its own `fresh`
/// registers, so equal code differs in numbering).
fn image_class(img: &CoreImage) -> Vec<(RegionId, Vec<Inst>)> {
    let mut names: HashMap<Reg, Reg> = HashMap::new();
    let mut used = [0u32; 4];
    let mut rename = |r: Reg| {
        *names.entry(r).or_insert_with(|| {
            let index = used[r.class.index()];
            used[r.class.index()] += 1;
            Reg { index, ..r }
        })
    };
    let mut class = Vec::new();
    for b in &img.blocks {
        let mut insts = Vec::new();
        for inst in &b.insts {
            let mut inst = inst.clone();
            inst.guard = inst.guard.map(&mut rename);
            for (slot, src) in inst.srcs.iter_mut().enumerate() {
                let patched = matches!(
                    (inst.op, slot),
                    (Opcode::Send, 2) | (Opcode::Recv, 1) | (Opcode::Xbegin, 0)
                );
                *src = match *src {
                    Operand::Reg(r) => Operand::Reg(rename(r)),
                    Operand::Core(_) => Operand::Core(0),
                    Operand::Imm(_) if patched => Operand::Imm(0),
                    other => other,
                };
            }
            inst.dst = inst.dst.map(&mut rename);
            insts.push(inst);
        }
        class.push((b.region, insts));
    }
    class
}

/// The measurement behind ROADMAP item 4 (DESIGN.md §17), as a test: a
/// DOALL worker is one outlined body, so under `llp` at 64 cores the 63
/// worker images are one class — although no two of them are equal as
/// emitted. A template-plus-patch-table image form would stand on this.
#[test]
fn doall_worker_images_are_one_class_up_to_renaming_and_per_core_constants() {
    let cfg = MachineConfig::scaled(64);
    for (name, doall_regions) in [("171.swim", 2), ("172.mgrid", 3)] {
        let w = by_name(name, Scale::Test).unwrap();
        let c = compile(&w.program, Strategy::Llp, &cfg, &CompileOptions::default()).unwrap();
        let doalls = c.region_kinds.values().filter(|k| **k == "doall").count();
        assert_eq!(doalls, doall_regions, "{name}: DOALL regions");
        let workers = &c.machine.cores[1..];
        for (k, img) in workers.iter().enumerate().skip(1) {
            assert!(*img != workers[0], "{name}: cores 1 and {} equal", k + 1);
            assert!(
                image_class(img) == image_class(&workers[0]),
                "{name}: core {} is not core 1 renamed and patched",
                k + 1
            );
        }
        // The master dispatches and combines: a class of its own.
        assert!(image_class(&c.machine.cores[0]) != image_class(&workers[0]));
    }
}
