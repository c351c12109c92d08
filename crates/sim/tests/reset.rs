//! `Machine::reset` reuse-equals-fresh, at the sim layer.
//!
//! The serve daemon's machine pool leans entirely on the contract that a
//! reset machine is behaviourally indistinguishable from a newly built
//! one. These tests pin it with hand-built images (the compiler-produced
//! path is pinned end-to-end by `crates/bench/tests/serve.rs`): same
//! memory output, bit-identical `MachineStats`, across programs, core
//! counts, coherence backends, and fault plans.

use std::sync::Arc;

use voltron_ir::{CmpCc, DataSegment, Inst, MemWidth, Memory, Opcode, Operand, Reg};
use voltron_sim::{
    CoherenceBackend, CoreImage, FaultPlan, MBlock, Machine, MachineConfig, MachineProgram,
    MachineStats, RunOutcome, SealedImage, SimError,
};

/// A 1-core program that stores `base + count` into `out` after a
/// `count`-iteration loop (enough cycles to exercise caches and stats).
fn loop_program(name: &str, count: i64, base: i64) -> MachineProgram {
    loop_program_for(name, count, base, 1)
}

/// [`loop_program`] widened to an `n_cores` machine.
fn loop_program_for(name: &str, count: i64, base: i64, n_cores: usize) -> MachineProgram {
    let mut data = DataSegment::default();
    let out = data.zeroed("out", 8);
    let mut b = MBlock::new("entry", 0);
    b.insts.push(Inst::with_dst(
        Opcode::Ldi,
        Reg::gpr(0),
        vec![Operand::Imm(out as i64)],
    ));
    b.insts.push(Inst::with_dst(
        Opcode::Ldi,
        Reg::gpr(1),
        vec![Operand::Imm(base)],
    ));
    b.insts.push(Inst::with_dst(
        Opcode::Ldi,
        Reg::gpr(2),
        vec![Operand::Imm(count)],
    ));
    let mut body = MBlock::new("body", 1);
    body.insts.push(Inst::with_dst(
        Opcode::Add,
        Reg::gpr(1),
        vec![Reg::gpr(1).into(), Operand::Imm(1)],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Sub,
        Reg::gpr(2),
        vec![Reg::gpr(2).into(), Operand::Imm(1)],
    ));
    body.insts.push(Inst::new(
        Opcode::Store(MemWidth::W8),
        vec![Reg::gpr(0).into(), Operand::Imm(0), Reg::gpr(1).into()],
    ));
    body.insts.push(Inst::with_dst(
        Opcode::Cmp(CmpCc::Gt),
        Reg::pred(0),
        vec![Reg::gpr(2).into(), Operand::Imm(0)],
    ));
    body.insts.push(Inst::new(
        Opcode::Br,
        vec![Operand::Block(voltron_ir::BlockId(1)), Reg::pred(0).into()],
    ));
    let mut done = MBlock::new("done", 2);
    done.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut cores = vec![CoreImage {
        blocks: vec![b, body, done],
    }];
    // Slave cores (never spawned) get an empty halt image so the same
    // workload builds for any machine width.
    for _ in 1..n_cores {
        let mut idle = MBlock::new("idle", 0);
        idle.insts.push(Inst::new(Opcode::Halt, vec![]));
        cores.push(CoreImage { blocks: vec![idle] });
    }
    MachineProgram {
        name: name.into(),
        cores,
        data,
    }
}

fn run_fresh(program: &Arc<MachineProgram>, cfg: &MachineConfig) -> RunOutcome {
    Machine::new_shared(Arc::clone(program), cfg)
        .expect("fresh machine")
        .run()
        .expect("fresh run")
}

fn assert_same(fresh: &RunOutcome, reused: &RunOutcome) {
    assert_eq!(
        fresh.memory.bytes(),
        reused.memory.bytes(),
        "memory must match"
    );
    assert_eq!(fresh.stats, reused.stats, "stats must be bit-identical");
    assert_eq!(fresh.ticked_cycles, reused.ticked_cycles);
}

#[test]
fn reset_same_program_equals_fresh() {
    let program = Arc::new(loop_program("p", 64, 0));
    let cfg = MachineConfig::paper(1);
    let fresh = run_fresh(&program, &cfg);

    let mut m = Machine::new_shared(Arc::clone(&program), &cfg).expect("machine");
    m.run_mut().expect("first run");
    m.reset(Arc::clone(&program), &cfg).expect("reset");
    let reused = m.run_mut().expect("reused run");
    assert_same(&fresh, &reused);

    // A third life still matches.
    m.reset(Arc::clone(&program), &cfg).expect("reset again");
    let third = m.run_mut().expect("third run");
    assert_same(&fresh, &third);
}

#[test]
fn reset_across_programs_and_backends() {
    let a = Arc::new(loop_program_for("a", 48, 0, 4));
    let b = Arc::new(loop_program_for("b", 96, 1000, 4));
    for backend in [
        CoherenceBackend::Snooping,
        CoherenceBackend::directory_for(4),
    ] {
        let cfg = MachineConfig::scaled(4).with_backend(backend);
        let fresh_a = run_fresh(&a, &cfg);
        let fresh_b = run_fresh(&b, &cfg);

        // One machine serves program a, then b, then a again.
        let mut m = Machine::new_shared(Arc::clone(&a), &cfg).expect("machine");
        m.run_mut().expect("run a");
        m.reset(Arc::clone(&b), &cfg).expect("reset to b");
        let got_b = m.run_mut().expect("run b");
        assert_same(&fresh_b, &got_b);
        m.reset(Arc::clone(&a), &cfg).expect("reset to a");
        let got_a = m.run_mut().expect("run a again");
        assert_same(&fresh_a, &got_a);
    }
}

#[test]
fn reset_across_configs_rebuilds_faults_and_probes() {
    let program = Arc::new(loop_program("p", 64, 0));
    let plain = MachineConfig::paper(1);
    let mut faulted = plain.clone();
    faulted.faults = Some(FaultPlan::seeded(7, 0.01));
    faulted.probe_period = Some(16);

    let fresh_plain = run_fresh(&program, &plain);
    let fresh_faulted = run_fresh(&program, &faulted);
    assert!(
        fresh_faulted.stats.faults.any(),
        "the faulted config must actually inject"
    );

    // plain -> faulted -> plain through one pooled machine.
    let mut m = Machine::new_shared(Arc::clone(&program), &plain).expect("machine");
    m.run_mut().expect("plain run");
    m.reset(Arc::clone(&program), &faulted).expect("reset");
    let got_faulted = m.run_mut().expect("faulted run");
    assert_same(&fresh_faulted, &got_faulted);
    assert!(got_faulted.probes.is_some(), "probes honoured after reset");
    m.reset(Arc::clone(&program), &plain).expect("reset back");
    let got_plain = m.run_mut().expect("plain run again");
    assert_same(&fresh_plain, &got_plain);
    assert!(
        got_plain.probes.is_none(),
        "probe state must not leak across reset"
    );
    assert!(
        !got_plain.stats.faults.any(),
        "fault state must not leak across reset"
    );
}

#[test]
fn run_mut_then_reset_restores_memory_image() {
    // `run_mut` hands out the machine's memory; a reset must rebuild it
    // from the program's data segment, not reuse the drained stub.
    let program = Arc::new(loop_program("p", 8, 0));
    let cfg = MachineConfig::paper(1);
    let mut m = Machine::new_shared(Arc::clone(&program), &cfg).expect("machine");
    let first = m.run_mut().expect("first run");
    let expected = Memory::from_data(&program.data);
    assert_ne!(
        first.memory.bytes(),
        expected.bytes(),
        "the run must have written something"
    );
    m.reset(Arc::clone(&program), &cfg).expect("reset");
    let second = m.run_mut().expect("second run");
    assert_eq!(first.memory.bytes(), second.memory.bytes());
    assert_eq!(first.stats, second.stats);
}

#[test]
fn one_machine_reboots_across_core_counts_and_geometries() {
    let directory =
        |cores| MachineConfig::scaled(cores).with_backend(CoherenceBackend::directory_for(cores));
    let mut odd = MachineConfig::paper(2);
    odd.l1d_size = 8 * 1024;
    odd.faults = Some(FaultPlan::seeded(7, 0.01));
    odd.probe_period = Some(16);
    let steps = [
        MachineConfig::paper(1),
        directory(64),
        MachineConfig::scaled(4),
        directory(16),
        odd,
        MachineConfig::paper(1),
    ];
    let mut m = Machine::default();
    for (i, cfg) in steps.iter().enumerate() {
        let program = loop_program_for("p", 64, i as i64, cfg.cores);
        let image = SealedImage::seal(Arc::new(program), cfg).expect("seal");
        let fresh = Machine::boot(&image, cfg)
            .expect("boot")
            .run()
            .expect("fresh run");
        assert_eq!(fresh.stats.faults.any(), cfg.faults.is_some(), "step {i}");
        m.reboot(&image, cfg).expect("reboot");
        let reused = m.run_mut().expect("rebooted run");
        assert_same(&fresh, &reused);
        assert_eq!(fresh.probes, reused.probes, "step {i}");
    }
}

#[test]
fn an_unbooted_machine_refuses_to_run() {
    let err = Machine::default().run_mut().expect_err("nothing to run");
    assert!(matches!(err, SimError::Malformed(_)), "{err}");
}

#[test]
fn stats_default_is_all_zero() {
    // `Machine::reset` relies on `MachineStats::default()` being the
    // state a new machine starts from.
    let d = MachineStats::default();
    assert_eq!(d, MachineStats::default());
    assert_eq!(d.cycles, 0);
}
