//! Fast-forward equivalence: the event-driven skip engine must be
//! architecturally invisible (DESIGN.md §6).
//!
//! The property: for any program, running with `fast_forward` on and
//! off produces the *same* [`voltron_sim::MachineStats`] field by
//! field, the same final memory, the same stragglers — or the same
//! typed error at the same cycle. Only `ticked_cycles` (host work) may
//! differ. The random cases drive the same random-program generator as
//! the validator fuzz smoke (`common/fuzz.rs`), which hits deadlocks, livelocks, send/recv
//! waits, mode barriers, and cycle-cap overruns — exactly the blocked
//! shapes fast-forward skips over.

use rand::rngs::StdRng;
use voltron_ir::{BlockId, DataSegment, Inst, Opcode, Operand, Reg};
use voltron_sim::{
    CoreImage, MBlock, Machine, MachineConfig, MachineProgram, RunOutcome, SimError,
};

use crate::common::cases::cases;
use crate::common::fuzz::{self, fuzz_ops};

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
    assert_eq!(a.regions, b.regions, "per-region stats");
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

/// A conflict abort moves the pc while an I-fill is pending. Core 1's
/// order-1 transaction reads `x` and runs on through four more I-lines,
/// which evict the `XBEGIN` line from its one-set, two-way L1I. Core 0
/// writes `x`, counts down `delay`, and commits first, aborting core 1
/// back to its evicted `XBEGIN` line: until the pending fill lands, core
/// 1 misses on that line every cycle without requesting a fill, and a
/// skip over those cycles must count each miss.
#[test]
fn rollback_during_an_ifill_counts_every_miss() {
    let ldi = |r: u32, v: i64| Inst::with_dst(Opcode::Ldi, gpr(r), vec![Operand::Imm(v)]);
    let add1 = |r: u32| Inst::with_dst(Opcode::Add, gpr(r), vec![gpr(r).into(), Operand::Imm(1)]);
    let store = |addr: u32, v: u32| {
        Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(addr).into(), Operand::Imm(0), gpr(v).into()],
        )
    };
    let mut data = DataSegment::default();
    let x = data.zeroed("x", 8) as i64;
    let out = data.zeroed("out", 8) as i64;
    let mut cfg = MachineConfig::paper(2);
    cfg.l1i_size = 64;
    let mut main = MBlock::new("main", 0);
    main.insts
        .push(Inst::new(Opcode::Xbegin, vec![Operand::Imm(0)]));
    main.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(1))],
    ));
    main.insts
        .extend([ldi(0, x), ldi(1, 1), store(0, 1), ldi(2, 1)]);
    let mut wait = MBlock::new("delay", 0);
    wait.insts.push(Inst::with_dst(
        Opcode::Sub,
        gpr(2),
        vec![gpr(2).into(), Operand::Imm(1)],
    ));
    wait.insts.push(Inst::with_dst(
        Opcode::Cmp(voltron_ir::CmpCc::Gt),
        Reg::pred(0),
        vec![gpr(2).into(), Operand::Imm(0)],
    ));
    wait.insts.push(Inst::new(
        Opcode::Br,
        vec![Operand::Block(BlockId(1)), Reg::pred(0).into()],
    ));
    let mut commit = MBlock::new("commit", 0);
    commit.insts.push(Inst::new(Opcode::Xcommit, vec![]));
    commit.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(3),
        vec![Operand::Core(1), Operand::Imm(1)],
    ));
    commit.insts.extend([ldi(4, out), store(4, 3)]);
    commit.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut worker = MBlock::new("worker", 0);
    worker
        .insts
        .push(Inst::new(Opcode::Xbegin, vec![Operand::Imm(1)]));
    worker.insts.push(ldi(0, x));
    worker.insts.push(Inst::with_dst(
        Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
        gpr(1),
        vec![gpr(0).into(), Operand::Imm(0)],
    ));
    worker.insts.extend((0..32).map(|_| add1(2)));
    worker.insts.push(Inst::new(Opcode::Xcommit, vec![]));
    worker.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(1).into(), Operand::Core(0), Operand::Imm(1)],
    ));
    worker.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let mut p = program(
        vec![vec![main, wait, commit], vec![sleep_stub(), worker]],
        data,
    );
    let mut rollbacks = 0;
    for delay in (1..=397).step_by(3) {
        // The last instruction of core 0's entry block sets the delay.
        *p.cores[0].blocks[0].insts.last_mut().unwrap() = ldi(2, delay);
        let off = run_with(&p, &cfg, false).expect("tick-by-tick run failed");
        let on = run_with(&p, &cfg, true).expect("fast-forwarded run failed");
        assert_eq!(off.memory.load_i64(out as u64).unwrap(), 1, "delay {delay}");
        rollbacks += off.stats.tm.aborts;
        assert_equivalent(&off, &on);
    }
    assert!(rollbacks > 0, "no delay aborted core 1");
}

// ---------- equivalence over random programs ----------
//
// Most generated programs wedge; the property checks that the
// deadlock/livelock watchdogs fire at the *same cycle* with fast-forward
// on, and that clean runs match stat for stat.

/// Run `p` tick by tick and fast-forwarded: the same typed error, as a
/// string compare (deadlock/livelock reports carry the firing cycle and
/// the full wait-for graph, so a skip landing one cycle off shows up as a
/// text diff), or two clean runs that `same` compares.
fn both_ways(p: &MachineProgram, cfg: &MachineConfig, same: impl FnOnce(&RunOutcome, &RunOutcome)) {
    match (run_with(p, cfg, false), run_with(p, cfg, true)) {
        (Ok(off), Ok(on)) => same(&off, &on),
        (Err(off), Err(on)) => assert_eq!(format!("{off:?}"), format!("{on:?}"), "errors diverged"),
        (Ok(_), Err(on)) => panic!("only fast-forward failed: {on:?}"),
        (Err(off), Ok(_)) => panic!("only tick-by-tick failed: {off:?}"),
    }
}

/// Fast-forward on vs. off over random two-core programs: same stats,
/// same memory, same stragglers — or the same error rendered the same
/// way.
#[test]
fn fast_forward_is_invisible() {
    cases(100_000, 48, fuzz::fuzz_case, |(main, spin, worker)| {
        let (p, cfg) = fuzz::two_core_case(main, spin, worker);
        both_ways(&p, &cfg, assert_equivalent);
    });
}

/// The interval probe series is part of the equivalence contract: with a
/// period deliberately coprime to nothing in particular (7), skipped
/// spans cross sample boundaries constantly, and the series sampled
/// inside them must still match the tick-by-tick one sample for sample.
#[test]
fn probe_series_is_fast_forward_invariant() {
    let sample = |rng: &mut StdRng| (fuzz_ops(rng, 12), fuzz_ops(rng, 8));
    cases(200_000, 48, sample, |(main, worker)| {
        let (p, mut cfg) = fuzz::two_core_case(main, &[], worker);
        cfg.probe_period = Some(7);
        both_ways(&p, &cfg, |off, on| {
            assert_equivalent(off, on);
            assert_eq!(off.probes, on.probes, "probe series diverged");
        });
    });
}
