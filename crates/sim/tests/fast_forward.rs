//! Fast-forward equivalence: the event-driven skip engine must be
//! architecturally invisible (DESIGN.md §6).
//!
//! The property: for any program, running with `fast_forward` on and
//! off produces the *same* [`voltron_sim::MachineStats`] field by
//! field, the same final memory, the same stragglers — or the same
//! typed error at the same cycle. Only `ticked_cycles` (host work) may
//! differ. The proptest drives the same random-program generator as
//! the validator fuzz smoke (`common/fuzz.rs`), which hits deadlocks, livelocks, send/recv
//! waits, mode barriers, and cycle-cap overruns — exactly the blocked
//! shapes fast-forward skips over.

use proptest::prelude::*;
use voltron_ir::{BlockId, DataSegment, Inst, Opcode, Operand, Reg};
use voltron_sim::{
    CoreImage, MBlock, Machine, MachineConfig, MachineProgram, RunOutcome, SimError,
};

#[path = "common/fuzz.rs"]
mod fuzz;

fn gpr(i: u32) -> Reg {
    Reg::gpr(i)
}

fn program(core_blocks: Vec<Vec<MBlock>>, data: DataSegment) -> MachineProgram {
    MachineProgram {
        name: "ff-corpus".into(),
        cores: core_blocks
            .into_iter()
            .map(|blocks| CoreImage { blocks })
            .collect(),
        data,
    }
}

/// A worker image whose block 0 is the usual sleep stub.
fn sleep_stub() -> MBlock {
    let mut b = MBlock::new("idle", 0);
    b.insts.push(Inst::new(Opcode::Sleep, vec![]));
    b
}

/// Run `p` with fast-forward forced to `ff`, everything else per `cfg`.
fn run_with(p: &MachineProgram, cfg: &MachineConfig, ff: bool) -> Result<RunOutcome, SimError> {
    let mut cfg = cfg.clone();
    cfg.fast_forward = ff;
    Machine::new(p.clone(), &cfg)?.run()
}

/// Assert the two outcomes are architecturally identical, stats field
/// by field so a regression names the counter that diverged.
fn assert_equivalent(off: &RunOutcome, on: &RunOutcome) {
    let (a, b) = (&off.stats, &on.stats);
    assert_eq!(a.cycles, b.cycles, "cycles");
    assert_eq!(a.coupled_cycles, b.coupled_cycles, "coupled_cycles");
    assert_eq!(a.decoupled_cycles, b.decoupled_cycles, "decoupled_cycles");
    assert_eq!(a.region_cycles, b.region_cycles, "region_cycles");
    assert_eq!(a.cores, b.cores, "per-core stats");
    assert_eq!(a.mem, b.mem, "memory-system stats");
    assert_eq!(a.net, b.net, "network stats");
    assert_eq!(a.tm, b.tm, "TM stats");
    assert_eq!(a.spawns, b.spawns, "spawns");
    assert_eq!(a.mode_switches, b.mode_switches, "mode_switches");
    assert_eq!(a.dynamic_insts, b.dynamic_insts, "dynamic_insts");
    // Belt and braces: the whole struct, in case a field is added
    // without extending the list above.
    assert_eq!(a, b, "MachineStats");
    assert_eq!(off.memory, on.memory, "final data memory");
    assert_eq!(off.stragglers, on.stragglers, "stragglers");
    assert!(
        on.ticked_cycles <= off.ticked_cycles,
        "fast-forward ticked more ({}) than tick-by-tick ({})",
        on.ticked_cycles,
        off.ticked_cycles
    );
}

/// All cores blocked at once: the master takes a cold load miss
/// (`mem_latency` = 120 cycles on the paper machine) while the worker
/// sleeps. Fast-forward must skip inside the miss window without
/// moving a single counter.
#[test]
fn cold_miss_with_sleeping_worker_skips_and_matches() {
    let mut data = DataSegment::default();
    let base = data.zeroed("buf", 64) as i64;
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::with_dst(
        Opcode::Ldi,
        gpr(0),
        vec![Operand::Imm(base)],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
        gpr(1),
        vec![gpr(0).into(), Operand::Imm(0)],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(2),
        vec![gpr(1).into(), gpr(1).into()],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data);
    let cfg = MachineConfig::paper(2);
    let off = run_with(&p, &cfg, false).expect("tick-by-tick run failed");
    let on = run_with(&p, &cfg, true).expect("fast-forwarded run failed");
    assert_equivalent(&off, &on);
    assert!(
        on.ticked_cycles < on.stats.cycles,
        "no cycles were skipped: ticked {} of {}",
        on.ticked_cycles,
        on.stats.cycles
    );
}

/// The interval probe sampler must be fast-forward invariant too: a
/// skipped span crossing period boundaries is sampled boundary by
/// boundary (DESIGN.md §8), so the series — counters *and* gauges — is
/// bit-identical to the tick-by-tick one. The cold-miss program above
/// guarantees a multi-period skip with an odd period.
#[test]
fn probe_series_survives_fast_forward_across_a_cold_miss() {
    let mut data = DataSegment::default();
    let base = data.zeroed("buf", 64) as i64;
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::with_dst(
        Opcode::Ldi,
        gpr(0),
        vec![Operand::Imm(base)],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
        gpr(1),
        vec![gpr(0).into(), Operand::Imm(0)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data);
    let mut cfg = MachineConfig::paper(2);
    cfg.probe_period = Some(5);
    let off = run_with(&p, &cfg, false).expect("tick-by-tick run failed");
    let on = run_with(&p, &cfg, true).expect("fast-forwarded run failed");
    assert_equivalent(&off, &on);
    assert!(
        on.ticked_cycles < on.stats.cycles,
        "no cycles were skipped, the in-span sampling was not exercised"
    );
    let series = on.probes.as_ref().expect("probes recorded");
    assert!(
        series.samples.len() >= 2,
        "expected several samples, got {}",
        series.samples.len()
    );
    assert_eq!(off.probes, on.probes, "probe series diverged");
}

/// A RECV that waits on a slow sender: the receiver blocks on the CAM
/// bucket, the sender blocks on a cold miss, and the skip has to chain
/// bus completion -> send -> network delivery without disturbing the
/// delivery cycle.
#[test]
fn recv_across_cold_miss_matches() {
    let mut data = DataSegment::default();
    let base = data.zeroed("buf", 64) as i64;
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(1))],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(0),
        vec![Operand::Core(1), Operand::Imm(1)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut w = MBlock::new("worker", 0);
    w.insts.push(Inst::with_dst(
        Opcode::Ldi,
        gpr(0),
        vec![Operand::Imm(base)],
    ));
    w.insts.push(Inst::with_dst(
        Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
        gpr(1),
        vec![gpr(0).into(), Operand::Imm(0)],
    ));
    w.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(1).into(), Operand::Core(0), Operand::Imm(1)],
    ));
    w.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub(), w]], data);
    let cfg = MachineConfig::paper(2);
    let off = run_with(&p, &cfg, false).expect("tick-by-tick run failed");
    let on = run_with(&p, &cfg, true).expect("fast-forwarded run failed");
    assert_equivalent(&off, &on);
    assert!(on.ticked_cycles < on.stats.cycles);
}

// ---------- proptest equivalence over random programs ----------
//
// Most generated programs wedge; the property checks that the
// deadlock/livelock watchdogs fire at the *same cycle* with fast-forward
// on, and that clean runs match stat for stat.

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, ..ProptestConfig::default()
    })]

    /// Fast-forward on vs. off over random two-core programs: same
    /// stats, same memory, same stragglers — or the same error
    /// rendered the same way (deadlock/livelock reports carry the
    /// firing cycle and the full wait-for graph, so a skip landing one
    /// cycle off shows up as a text diff here).
    #[test]
    fn fast_forward_is_invisible(
        main_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..12),
        spin_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..8),
        worker_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..8),
    ) {
        let (p, cfg) = fuzz::two_core_case(&main_ops, &spin_ops, &worker_ops);
        match (run_with(&p, &cfg, false), run_with(&p, &cfg, true)) {
            (Ok(off), Ok(on)) => assert_equivalent(&off, &on),
            (Err(off), Err(on)) => prop_assert_eq!(
                format!("{off:?}"),
                format!("{on:?}"),
                "errors diverged"
            ),
            (Ok(_), Err(on)) => prop_assert!(false, "only fast-forward failed: {on:?}"),
            (Err(off), Ok(_)) => prop_assert!(false, "only tick-by-tick failed: {off:?}"),
        }
    }

    /// The interval probe series is part of the equivalence contract:
    /// with a period deliberately coprime to nothing in particular
    /// (7), skipped spans cross sample boundaries constantly, and the
    /// series sampled inside them must still match the tick-by-tick one
    /// sample for sample.
    #[test]
    fn probe_series_is_fast_forward_invariant(
        main_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..12),
        worker_ops in proptest::collection::vec(fuzz::fuzz_op(), 0..8),
    ) {
        let (p, mut cfg) = fuzz::two_core_case(&main_ops, &[], &worker_ops);
        cfg.probe_period = Some(7);
        match (run_with(&p, &cfg, false), run_with(&p, &cfg, true)) {
            (Ok(off), Ok(on)) => {
                assert_equivalent(&off, &on);
                prop_assert_eq!(&off.probes, &on.probes, "probe series diverged");
            }
            (Err(off), Err(on)) => prop_assert_eq!(
                format!("{off:?}"),
                format!("{on:?}"),
                "errors diverged"
            ),
            (Ok(_), Err(on)) => prop_assert!(false, "only fast-forward failed: {on:?}"),
            (Err(off), Ok(_)) => prop_assert!(false, "only tick-by-tick failed: {off:?}"),
        }
    }
}
