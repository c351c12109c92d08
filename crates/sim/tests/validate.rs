//! Seeded-broken-program corpus for the static validator and the
//! deadlock forensics.
//!
//! Each test corrupts a well-formed dual-core program in exactly one way
//! and asserts that [`MachineProgram::validate`] (via [`Machine::new`])
//! rejects it with the right [`ValidateError`] variant *and* the right
//! coordinates — core, block, instruction slot, and stream tag where
//! applicable. A final fuzz smoke drives random small programs
//! through `validate()` + `Machine::run` and asserts the pipeline only
//! ever produces typed results, never panics.
//!
//! Every rejection is also held to the oracle (`common/validate_oracle.rs`,
//! the map-per-invariant validator `validate()` replaced): the identical
//! `Result`, on the corpus above, on seeded single and double corruptions
//! of a fork/join image at 2, 16 and 64 cores, and on random programs
//! spread over the same meshes — peeling the reported instruction off
//! and validating again until the image is clean, so each case pins a
//! whole *order* of first errors. And on what the compiler really emits:
//! every workload under every parallel strategy at 4, 16 and 64 cores,
//! clean and with one `SEND`, `GET`, `GETB` and `MODE_SWITCH` site deleted
//! (the site drawn from a fixed seed), so the two are compared on images
//! with thousands of streams, dozens of regions and a real rejection to
//! order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use voltron_compiler::{compile_prepared, CompileOptions, FrontEnd, Strategy};
use voltron_ir::{BlockId, DataSegment, Dir, ExecMode, Inst, Opcode, Operand, Reg};
use voltron_sim::{
    CoreImage, MBlock, Machine, MachineConfig, MachineProgram, SealedImage, SimError,
    ValidateError, WaitCause,
};
use voltron_workloads::{all, Scale};

use crate::common::cases::cases;
use crate::common::fuzz::{self, fuzz_case};
use crate::common::mesh;
use crate::common::validate_oracle::validate_oracle;

fn gpr(i: u32) -> Reg {
    Reg::gpr(i)
}

fn program(core_blocks: Vec<Vec<MBlock>>, data: DataSegment) -> MachineProgram {
    MachineProgram {
        name: "corpus".into(),
        cores: core_blocks
            .into_iter()
            .map(|blocks| CoreImage { blocks })
            .collect(),
        data,
    }
}

fn data() -> DataSegment {
    let mut d = DataSegment::default();
    d.zeroed("pad", 8);
    d
}

/// Build the rejection for a program on a `cores`-core paper machine.
fn reject(p: MachineProgram, cores: usize) -> ValidateError {
    reject_on(p, &MachineConfig::paper(cores))
}

/// The rejection `Machine::new` gives `p` under `cfg` — which must be the
/// oracle's.
fn reject_on(p: MachineProgram, cfg: &MachineConfig) -> ValidateError {
    let want = validate_oracle(&p, cfg);
    match Machine::new(p, cfg) {
        Err(SimError::Validate(e)) => {
            assert_eq!(Err(e.clone()), want, "validate() differs from the oracle");
            e
        }
        Ok(_) => panic!("corrupted program was accepted"),
        Err(other) => panic!("expected a validation error, got {other:?}"),
    }
}

/// A worker image whose block 0 is the usual sleep stub.
fn sleep_stub() -> MBlock {
    let mut b = MBlock::new("idle", 0);
    b.insts.push(Inst::new(Opcode::Sleep, vec![]));
    b
}

#[test]
fn orphan_recv_names_core_block_and_tag() {
    // Core 0 receives tag 7 from core 1, but core 1 never sends it.
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(1))],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(0),
        vec![Operand::Core(1), Operand::Imm(7)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub(), sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::OrphanRecv { site, from, tag } => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 1));
            assert_eq!(site.block_name, "main");
            assert_eq!(from, 1);
            assert_eq!(tag, 7);
        }
        other => panic!("expected OrphanRecv, got {other:?}"),
    }
}

#[test]
fn orphan_send_names_core_block_and_tag() {
    // Core 1 sends tag 5 to core 0, but core 0 never receives it.
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(1))],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut w = MBlock::new("worker", 0);
    w.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(3)]));
    w.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(0).into(), Operand::Core(0), Operand::Imm(5)],
    ));
    w.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub(), w]], data());
    match reject(p, 2) {
        ValidateError::OrphanSend { site, to, tag } => {
            assert_eq!((site.core, site.block, site.inst), (1, 1, 1));
            assert_eq!(site.block_name, "worker");
            assert_eq!(to, 0);
            assert_eq!(tag, 5);
        }
        other => panic!("expected OrphanSend, got {other:?}"),
    }
}

#[test]
fn put_without_get_is_a_latch_imbalance() {
    // Region 3: core 0 PUTs east but core 1 never GETs west. The latch
    // belongs to core 1 (its west side).
    let mut c0 = MBlock::new("main", 3);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c0.insts.push(Inst::new(
        Opcode::Put,
        vec![gpr(0).into(), Operand::Dir(Dir::East)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::LatchImbalance {
            region,
            owner,
            dir,
            puts,
            gets,
            site,
        } => {
            assert_eq!(region, 3);
            assert_eq!(owner, 1);
            assert_eq!(dir, Dir::West);
            assert_eq!((puts, gets), (1, 0));
            assert_eq!((site.core, site.block, site.inst), (0, 0, 1));
        }
        other => panic!("expected LatchImbalance, got {other:?}"),
    }
}

#[test]
fn extra_get_is_a_latch_imbalance_too() {
    // Balanced pair plus one stray GET on the same latch: 1 put, 2 gets.
    let mut c0 = MBlock::new("main", 0);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c0.insts.push(Inst::new(
        Opcode::Put,
        vec![gpr(0).into(), Operand::Dir(Dir::East)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut w = MBlock::new("worker", 0);
    w.insts.push(Inst::with_dst(
        Opcode::Get,
        gpr(0),
        vec![Operand::Dir(Dir::West)],
    ));
    w.insts.push(Inst::with_dst(
        Opcode::Get,
        gpr(1),
        vec![Operand::Dir(Dir::West)],
    ));
    w.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let p = program(vec![vec![c0], vec![w]], data());
    match reject(p, 2) {
        ValidateError::LatchImbalance {
            owner, puts, gets, ..
        } => {
            assert_eq!(owner, 1);
            assert_eq!((puts, gets), (1, 2));
        }
        other => panic!("expected LatchImbalance, got {other:?}"),
    }
}

#[test]
fn put_off_the_mesh_is_rejected() {
    // On a 2x1 mesh nothing lies to the north.
    let mut c0 = MBlock::new("main", 0);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c0.insts.push(Inst::new(
        Opcode::Put,
        vec![gpr(0).into(), Operand::Dir(Dir::North)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::OffMesh { site, dir } => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 1));
            assert_eq!(dir, Dir::North);
        }
        other => panic!("expected OffMesh, got {other:?}"),
    }
}

#[test]
fn self_spawn_is_rejected() {
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(0), Operand::Block(BlockId(0))],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::SelfSpawn { site } => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 0));
        }
        other => panic!("expected SelfSpawn, got {other:?}"),
    }
}

#[test]
fn spawn_into_a_missing_block_is_rejected() {
    // Core 1's image has one block; the spawn targets bb4.
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(4))],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::SpawnBadBlock {
            site,
            target_core,
            block,
            blocks,
        } => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 0));
            assert_eq!(target_core, 1);
            assert_eq!(block, 4);
            assert_eq!(blocks, 1);
        }
        other => panic!("expected SpawnBadBlock, got {other:?}"),
    }
}

#[test]
fn send_to_a_core_off_the_machine_is_rejected() {
    // A 4-core image dropped onto a machine... no — the image itself
    // names core 7, which no paper machine has.
    let mut c0 = MBlock::new("main", 0);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c0.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(0).into(), Operand::Core(7), Operand::Imm(0)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    match reject(p, 2) {
        ValidateError::CoreOutOfRange {
            site,
            target,
            cores,
        } => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 1));
            assert_eq!(target, 7);
            assert_eq!(cores, 2);
        }
        other => panic!("expected CoreOutOfRange, got {other:?}"),
    }
}

#[test]
fn undrained_broadcast_is_rejected() {
    // Region 2: core 0 broadcasts once; core 1 has a block in the region
    // but no GETB to drain its latch.
    let mut c0 = MBlock::new("main", 2);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c0.insts.push(Inst::new(Opcode::Bcast, vec![gpr(0).into()]));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut w = MBlock::new("worker", 2);
    w.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let p = program(vec![vec![c0], vec![w]], data());
    match reject(p, 2) {
        ValidateError::BcastImbalance {
            region,
            core,
            expected,
            getbs,
            site,
        } => {
            assert_eq!(region, 2);
            assert_eq!(core, 1);
            assert_eq!((expected, getbs), (1, 0));
            assert_eq!((site.core, site.block, site.inst), (0, 0, 1));
        }
        other => panic!("expected BcastImbalance, got {other:?}"),
    }
}

#[test]
fn malformed_operand_shape_is_rejected_with_coordinates() {
    // A RECV whose "core" operand is an immediate: pure shape violation.
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(0),
        vec![Operand::Imm(1), Operand::Imm(0)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0]], data());
    match Machine::new(p, &MachineConfig::paper(1)) {
        Err(SimError::Validate(ValidateError::Shape { site, message })) => {
            assert_eq!((site.core, site.block, site.inst), (0, 0, 0));
            assert!(message.contains("core operand"), "{message}");
        }
        other => panic!("expected Shape rejection, got {other:?}"),
    }
}

/// Statically balanced streams that cross at runtime: the forensics name
/// both blocked cores, their blocks, and the tags they wait on.
#[test]
fn runtime_cross_recv_reports_a_wait_cycle() {
    // Core 0 waits for tag 0 from core 1 before sending tag 1; core 1
    // waits for tag 1 from core 0 before sending tag 0.
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(
        Opcode::Spawn,
        vec![Operand::Core(1), Operand::Block(BlockId(1))],
    ));
    c0.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(0),
        vec![Operand::Core(1), Operand::Imm(0)],
    ));
    c0.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(0).into(), Operand::Core(1), Operand::Imm(1)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut w = MBlock::new("worker", 0);
    w.insts.push(Inst::with_dst(
        Opcode::Recv,
        gpr(0),
        vec![Operand::Core(0), Operand::Imm(1)],
    ));
    w.insts.push(Inst::new(
        Opcode::Send,
        vec![gpr(0).into(), Operand::Core(0), Operand::Imm(0)],
    ));
    w.insts.push(Inst::new(Opcode::Sleep, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub(), w]], data());
    let mut cfg = MachineConfig::paper(2);
    cfg.watchdogs.deadlock_window = 2_000;
    match Machine::new(p, &cfg).unwrap().run() {
        Err(SimError::Deadlock {
            waits, cycle_path, ..
        }) => {
            assert_eq!(waits.len(), 2);
            assert_eq!(waits[0].core, 0);
            assert_eq!(waits[0].block_name, "main");
            assert_eq!(
                waits[0].cause,
                WaitCause::Recv {
                    from: 1,
                    tag: 0,
                    buffered: 0
                }
            );
            assert_eq!(waits[1].core, 1);
            assert_eq!(waits[1].block_name, "worker");
            assert_eq!(
                waits[1].cause,
                WaitCause::Recv {
                    from: 0,
                    tag: 1,
                    buffered: 0
                }
            );
            assert_eq!(cycle_path, Some(vec![0, 1, 0]));
        }
        other => panic!("expected deadlock forensics, got {other:?}"),
    }
}

// ---------- fuzz smoke ----------

/// Random small two-core programs — most of them garbage — must be
/// either rejected with a typed error or simulated to a typed outcome.
/// Nothing in `SealedImage::seal`, `Machine::boot`, decode or the cycle
/// loop (including the deadlock/livelock forensics most of these
/// programs will hit) may panic, and sealing fails closed with exactly
/// the error `validate` reports.
#[test]
fn random_programs_never_panic() {
    cases(300_000, 64, fuzz_case, |(main, spin, worker)| {
        let (p, cfg) = fuzz::two_core_case(main, spin, worker);
        let want = p.validate(&cfg).map_err(SimError::Validate);
        let sealed = SealedImage::seal(Arc::new(p), &cfg);
        assert_eq!(
            format!("{:?}", sealed.as_ref().map(drop)),
            format!("{want:?}")
        );
        // Both arms are typed; reaching either (or a clean run) is a
        // pass. A panic anywhere in the pipeline fails the property.
        match sealed.and_then(|image| Machine::boot(&image, &cfg)) {
            Ok(m) => {
                let _ = m.run();
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    });
}

/// A sealed image boots only machines of the core count it was sealed
/// for, and a refused reboot leaves the machine usable.
#[test]
fn boot_refuses_a_config_of_another_core_count() {
    let mut c0 = MBlock::new("main", 0);
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let p = program(vec![vec![c0], vec![sleep_stub()]], data());
    let image = SealedImage::seal(Arc::new(p), &MachineConfig::paper(2)).expect("seals");
    let refused = |r: Result<(), SimError>| match r {
        Err(SimError::Malformed(m)) => m == "program compiled for 2 cores, machine has 4",
        _ => false,
    };
    assert!(refused(
        Machine::boot(&image, &MachineConfig::paper(4)).map(drop)
    ));
    let mut m = Machine::boot(&image, &MachineConfig::paper(2)).expect("boots");
    let first = m.run_mut().expect("runs");
    assert!(refused(m.reboot(&image, &MachineConfig::paper(4))));
    m.reboot(&image, &MachineConfig::paper(2)).expect("reboots");
    assert_eq!(m.run_mut().expect("and runs again").stats, first.stats);
}

/// Build the rejection for a program on a scaled (4x4) machine.
fn reject_scaled(p: MachineProgram, cores: usize) -> ValidateError {
    reject_on(p, &MachineConfig::scaled(cores))
}

/// A 16-image program with `blocks` installed on `core` and sleep stubs
/// everywhere else.
fn program_4x4_with(core: usize, blocks: Vec<MBlock>) -> MachineProgram {
    let mut cores: Vec<Vec<MBlock>> = (0..16).map(|_| vec![sleep_stub()]).collect();
    cores[core] = blocks;
    program(cores, data())
}

#[test]
fn put_off_the_4x4_mesh_is_rejected() {
    // Core 3 sits at (3,0) of the 4x4 mesh: East is off the edge even
    // though a 1-D machine of the same core count would have a core 4.
    let mut c = MBlock::new("main", 0);
    c.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(1)]));
    c.insts.push(Inst::new(
        Opcode::Put,
        vec![gpr(0).into(), Operand::Dir(Dir::East)],
    ));
    c.insts.push(Inst::new(Opcode::Halt, vec![]));
    match reject_scaled(program_4x4_with(3, vec![c]), 16) {
        ValidateError::OffMesh { site, dir } => {
            assert_eq!((site.core, site.block, site.inst), (3, 0, 1));
            assert_eq!(dir, Dir::East);
        }
        other => panic!("expected OffMesh, got {other:?}"),
    }
}

#[test]
fn get_off_the_4x4_mesh_is_rejected() {
    // Core 12 is the bottom-left corner (0,3): West is off the edge.
    let mut c = MBlock::new("main", 0);
    c.insts.push(Inst::with_dst(
        Opcode::Get,
        gpr(0),
        vec![Operand::Dir(Dir::West)],
    ));
    c.insts.push(Inst::new(Opcode::Halt, vec![]));
    match reject_scaled(program_4x4_with(12, vec![c]), 16) {
        ValidateError::OffMesh { site, dir } => {
            assert_eq!((site.core, site.block, site.inst), (12, 0, 0));
            assert_eq!(dir, Dir::West);
        }
        other => panic!("expected OffMesh, got {other:?}"),
    }
}

#[test]
fn on_mesh_4x4_put_get_pair_validates_and_runs() {
    // The same PUT east / GET west pair the edge tests corrupt, but on
    // an in-mesh link (master core 0 -> core 1): it must pass the 4x4
    // validation and run to completion.
    let mut c0 = MBlock::new("main", 0);
    c0.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(7)]));
    c0.insts.push(Inst::new(
        Opcode::Put,
        vec![gpr(0).into(), Operand::Dir(Dir::East)],
    ));
    c0.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut c1 = MBlock::new("side", 0);
    c1.insts.push(Inst::with_dst(
        Opcode::Get,
        gpr(1),
        vec![Operand::Dir(Dir::West)],
    ));
    c1.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut cores: Vec<Vec<MBlock>> = (0..16).map(|_| vec![sleep_stub()]).collect();
    cores[0] = vec![c0];
    cores[1] = vec![c1];
    let p = program(cores, data());
    let m = Machine::new(p, &MachineConfig::scaled(16)).expect("validates at 4x4");
    m.run().expect("runs to completion");
}

// ---------- validate() against its oracle ----------

/// The instruction a rejection names.
fn named_site(e: &ValidateError) -> &voltron_sim::Site {
    match e {
        ValidateError::Shape { site, .. }
        | ValidateError::CoreOutOfRange { site, .. }
        | ValidateError::OffMesh { site, .. }
        | ValidateError::SelfSpawn { site }
        | ValidateError::SpawnBadBlock { site, .. }
        | ValidateError::OrphanRecv { site, .. }
        | ValidateError::OrphanSend { site, .. }
        | ValidateError::LatchImbalance { site, .. }
        | ValidateError::BcastImbalance { site, .. }
        | ValidateError::SwitchMissing { site, .. } => site,
    }
}

/// `validate()` and the oracle agree on `p` — and on what is left of it
/// after deleting the instruction the rejection names (or ending a block
/// that falls off with `HALT`), and so on until it validates. Returns the
/// rejections in the order they surfaced.
fn same_as_oracle_until_clean(mut p: MachineProgram, cfg: &MachineConfig) -> Vec<ValidateError> {
    let mut seen = Vec::new();
    loop {
        let got = p.validate(cfg);
        assert_eq!(got, validate_oracle(&p, cfg), "after {seen:?}");
        let Err(e) = got else { return seen };
        let at = named_site(&e);
        let insts = &mut p.cores[at.core].blocks[at.block].insts;
        if at.inst < insts.len() {
            insts.remove(at.inst);
        } else {
            insts.push(Inst::new(Opcode::Halt, vec![]));
        }
        seen.push(e);
    }
}

/// `mesh::fork_join_loop` with one of every statically checked mechanism
/// in its coupled stretch (region 0, every core present): a `PUT` east
/// on the master for a `GET` west on core 1, and a master `BCAST` every
/// worker drains.
fn every_mechanism(cores: usize) -> MachineProgram {
    let (mut p, _) = mesh::fork_join_loop(cores, 4, 8);
    let after_switch = |p: &MachineProgram, core: usize| {
        let (b, i) = find(p, core, Opcode::ModeSwitch).expect("a coupled stretch");
        (b, i + 1)
    };
    let (b, i) = after_switch(&p, 0);
    p.cores[0].blocks[b].insts.splice(
        i..i,
        [
            Inst::new(Opcode::Put, vec![gpr(0).into(), Operand::Dir(Dir::East)]),
            Inst::new(Opcode::Bcast, vec![gpr(0).into()]),
        ],
    );
    for w in 1..cores {
        let (b, i) = after_switch(&p, w);
        let insts = &mut p.cores[w].blocks[b].insts;
        insts.insert(i, Inst::with_dst(Opcode::GetB, gpr(1), vec![]));
        if w == 1 {
            let get = Inst::with_dst(Opcode::Get, gpr(2), vec![Operand::Dir(Dir::West)]);
            insts.insert(i, get);
        }
    }
    p
}

/// The first `op` site of `core`'s image.
fn find(p: &MachineProgram, core: usize, op: Opcode) -> Option<(usize, usize)> {
    p.cores[core]
        .blocks
        .iter()
        .enumerate()
        .find_map(|(b, blk)| {
            let i = blk.insts.iter().position(|inst| inst.op == op)?;
            Some((b, i))
        })
}

/// Delete the first `op` site of `core` (a no-op once it is gone).
fn delete(p: &mut MachineProgram, core: usize, op: Opcode) {
    if let Some((b, i)) = find(p, core, op) {
        p.cores[core].blocks[b].insts.remove(i);
    }
}

/// Rewrite the first `op` site of `core`.
fn rewrite(p: &mut MachineProgram, core: usize, op: Opcode, f: impl FnOnce(&mut Inst)) {
    if let Some((b, i)) = find(p, core, op) {
        f(&mut p.cores[core].blocks[b].insts[i]);
    }
}

/// One seeded corruption per rejection the walk can produce.
type Corruption = (&'static str, fn(&mut MachineProgram));

const CORRUPTIONS: [Corruption; 23] = [
    ("core out of range", |p| {
        let off = p.cores.len() as u8;
        rewrite(p, 1, Opcode::Send, |i| i.srcs[1] = Operand::Core(off));
    }),
    ("put off the mesh", |p| {
        rewrite(p, 0, Opcode::Put, |i| i.srcs[1] = Operand::Dir(Dir::North));
    }),
    ("get off the mesh", |p| {
        // A stray GET on the last core, which has no east neighbour on
        // any mesh — behind the block's own sites, so that deleting "the
        // first GET" of core 1 never just undoes it.
        let work = &mut p.cores.last_mut().expect("cores").blocks[1].insts;
        let get = Inst::with_dst(Opcode::Get, gpr(3), vec![Operand::Dir(Dir::East)]);
        work.insert(work.len() - 1, get);
    }),
    ("self spawn", |p| {
        rewrite(p, 0, Opcode::Spawn, |i| i.srcs[0] = Operand::Core(0));
    }),
    ("spawn into a missing block", |p| {
        rewrite(p, 0, Opcode::Spawn, |i| {
            i.srcs[1] = Operand::Block(BlockId(9));
        });
    }),
    ("orphan recv", |p| {
        delete(p, p.cores.len() - 1, Opcode::Send)
    }),
    ("orphan send", |p| delete(p, 0, Opcode::Recv)),
    // Two sites of one orphan stream, in different blocks: the rejection
    // names the first the walk meets.
    ("orphan stream received twice", |p| {
        let recv = Inst::with_dst(
            Opcode::Recv,
            gpr(5),
            vec![Operand::Core(1), Operand::Imm(9)],
        );
        p.cores[0].blocks[3].insts.insert(0, recv.clone());
        p.cores[0].blocks[2].insts.insert(1, recv);
    }),
    ("orphan stream sent twice", |p| {
        let send = Inst::new(
            Opcode::Send,
            vec![gpr(0).into(), Operand::Core(0), Operand::Imm(8)],
        );
        p.cores[1].blocks[1].insts.insert(2, send.clone());
        p.cores[1].blocks[0].insts.insert(0, send);
    }),
    ("latch without its get", |p| delete(p, 1, Opcode::Get)),
    ("latch filled twice", |p| {
        let (b, i) = find(p, 0, Opcode::Put).unwrap_or((1, 0));
        let put = Inst::new(Opcode::Put, vec![gpr(1).into(), Operand::Dir(Dir::East)]);
        p.cores[0].blocks[b].insts.insert(i, put);
    }),
    ("undrained broadcast", |p| {
        delete(p, p.cores.len() - 1, Opcode::GetB);
    }),
    ("switch one core cannot reach", |p| {
        delete(p, 1, Opcode::ModeSwitch);
    }),
    // Shapes (invariants 0 and 1), among them all decode could not lower,
    // each at the site `shape_rows_name_their_site` expects.
    ("shape", |p| {
        rewrite(p, 0, Opcode::Recv, |i| i.srcs[0] = Operand::Imm(1));
    }),
    ("static target out of range on core 1", |p| {
        let past = BlockId(p.cores[1].blocks.len() as u32);
        let jump = Inst::new(Opcode::Jump, vec![Operand::Block(past)]);
        p.cores[1].blocks[1].insts.insert(0, jump);
    }),
    ("empty last block", |p| {
        let last = p.cores.last_mut().expect("cores");
        last.blocks.push(MBlock::new("empty", 1));
    }),
    ("fall-through last block", |p| {
        p.cores[0].blocks.last_mut().expect("blocks").insts.pop();
    }),
    ("residual call", |p| {
        let call = Inst::new(Opcode::Call, vec![Operand::Func(voltron_ir::FuncId(0))]);
        p.cores[0].blocks[0].insts.insert(0, call);
    }),
    ("residual ret", |p| {
        let ret = Inst::new(Opcode::Ret, vec![]);
        p.cores[1].blocks[1].insts.insert(1, ret);
    }),
    ("mode switch without a mode", |p| {
        rewrite(p, 0, Opcode::ModeSwitch, |i| i.srcs.clear());
    }),
    ("put without a direction", |p| {
        rewrite(p, 0, Opcode::Put, |i| i.srcs[1] = Operand::Imm(0));
    }),
    ("branch to an immediate", |p| {
        rewrite(p, 0, Opcode::Br, |i| i.srcs[0] = Operand::Imm(3));
    }),
    ("put of a core operand", |p| {
        rewrite(p, 0, Opcode::Put, |i| i.srcs[0] = Operand::Core(0));
    }),
];

/// The shape rows of [`CORRUPTIONS`] are refused as `Shape` at the
/// instruction they corrupt, or at the slot past a last block that falls
/// off.
#[test]
fn shape_rows_name_their_site() {
    for cores in [2usize, 16, 64] {
        let cfg = MachineConfig::scaled(cores);
        let base = every_mechanism(cores);
        let master = |op| {
            let (b, i) = find(&base, 0, op).expect("the master holds one");
            (0, b, i)
        };
        let falls_off = "the image's last block falls off its end";
        let (switch, put) = (master(Opcode::ModeSwitch), master(Opcode::Put));
        let sites = [
            (master(Opcode::Recv), "recv requires a core operand"),
            ((1, 1, 0), "jump targets bb2, past the image's end"),
            ((cores - 1, 2, 0), falls_off),
            ((0, 3, 2), falls_off),
            ((0, 0, 0), "call survives lowering (calls must be inlined)"),
            ((1, 1, 1), "ret survives lowering (calls must be inlined)"),
            (switch, "mode expects 1 sources, found 0"),
            (put, "put requires a direction"),
            (master(Opcode::Br), "br target must be a block or btr"),
            (put, "put value must be a register or immediate"),
        ];
        let rows = &CORRUPTIONS[CORRUPTIONS.len() - sites.len()..];
        for ((name, corrupt), want) in rows.iter().zip(sites) {
            let mut p = base.clone();
            corrupt(&mut p);
            match reject_on(p, &cfg) {
                ValidateError::Shape { site, message } => {
                    let got = ((site.core, site.block, site.inst), message.as_str());
                    assert_eq!(got, want, "{cores}: {name}");
                }
                other => panic!("{cores}: {name}: expected Shape, got {other:?}"),
            }
        }
    }
}

#[test]
fn seeded_corruptions_match_the_oracle_on_2_16_and_64_core_meshes() {
    for cores in [2usize, 16, 64] {
        let cfg = MachineConfig::scaled(cores);
        let base = every_mechanism(cores);
        assert_eq!(base.validate(&cfg), Ok(()), "{cores}: the base image");
        assert_eq!(validate_oracle(&base, &cfg), Ok(()));
        for (name, corrupt) in CORRUPTIONS {
            let mut p = base.clone();
            corrupt(&mut p);
            let seen = same_as_oracle_until_clean(p, &cfg);
            assert!(!seen.is_empty(), "{cores}: {name} was accepted");
        }
        // Two violations in one image: which is reported first, and what
        // surfaces once it is repaired, must not depend on the walk. (A
        // pair may cancel — a stream with both ends deleted is clean.)
        for (_, first) in CORRUPTIONS {
            for (_, second) in CORRUPTIONS {
                let mut p = base.clone();
                first(&mut p);
                second(&mut p);
                same_as_oracle_until_clean(p, &cfg);
            }
        }
    }
}

/// Every kind of rejection is actually reached by the seeded corpus (a
/// corpus that only ever tripped the per-instruction checks would hold
/// the cross-core sweeps to nothing).
#[test]
fn the_seeded_corpus_reaches_every_rejection() {
    let cfg = MachineConfig::scaled(16);
    let mut kinds = std::collections::HashSet::new();
    for (_, corrupt) in CORRUPTIONS {
        let mut p = every_mechanism(16);
        corrupt(&mut p);
        for e in same_as_oracle_until_clean(p, &cfg) {
            kinds.insert(std::mem::discriminant(&e));
        }
    }
    // Shape, CoreOutOfRange, OffMesh, SelfSpawn, SpawnBadBlock,
    // OrphanRecv, OrphanSend, LatchImbalance, BcastImbalance,
    // SwitchMissing.
    assert_eq!(kinds.len(), 10);
    // And the switch sweep reports the coupled barrier first.
    let mut p = every_mechanism(16);
    for w in 1..16 {
        while find(&p, w, Opcode::ModeSwitch).is_some() {
            delete(&mut p, w, Opcode::ModeSwitch);
        }
    }
    match p.validate(&cfg) {
        Err(ValidateError::SwitchMissing { core, mode, .. }) => {
            assert_eq!((core, mode), (1, ExecMode::Coupled));
        }
        other => panic!("expected SwitchMissing, got {other:?}"),
    }
}

/// The fuzz alphabet spread over 2-, 16- and 64-core meshes (the master
/// image on core 0, the worker image on every other core): the identical
/// verdict from `validate()` and the oracle, down to the clean image.
#[test]
fn random_programs_match_the_oracle_on_every_mesh() {
    cases(400_000, 96, fuzz_case, |(main, spin, worker)| {
        let (two, _) = fuzz::two_core_case(main, spin, worker);
        for cores in [2usize, 16, 64] {
            let mut p = two.clone();
            p.cores.resize(cores, two.cores[1].clone());
            same_as_oracle_until_clean(p, &MachineConfig::scaled(cores));
        }
    });
}

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
