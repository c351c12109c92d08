//! A hand-built fork/barrier/join loop for any mesh size
//! (for the suites that need many mostly-parked cores).
//!
//! Every iteration the master, in region 0, spawns all `cores - 1`
//! workers, meets them at a mode-switch barrier, runs two lock-step
//! cycles coupled and switches back; then, in region 1, loads one line of
//! a `window`-line array (a cold miss while the array is larger than the
//! iteration count, hits once it wraps) and collects a join token from
//! every worker. Workers sleep between iterations. So one iteration
//! parks and unparks every core, forms two barriers, fills and drains
//! `cores - 1` receive streams, and moves the master across two region
//! boundaries.

use voltron_ir::{
    BlockId, CmpCc, DataSegment, ExecMode, Inst, MemWidth, Opcode, Operand, Reg, Signedness,
};
use voltron_sim::{CoreImage, MBlock, MachineProgram};

/// CAM tag of the join tokens.
const JOIN: i64 = 1;

fn switch(mode: ExecMode) -> Inst {
    Inst::new(Opcode::ModeSwitch, vec![Operand::Mode(mode)])
}

/// The coupled stretch every core runs between the two barriers.
fn coupled_stretch(b: &mut MBlock) {
    b.insts.push(switch(ExecMode::Coupled));
    b.insts.push(Inst::nop());
    b.insts.push(Inst::nop());
    b.insts.push(switch(ExecMode::Decoupled));
}

/// Build the loop for `cores` cores and `iters` iterations over a
/// `window`-line array (`window` a power of two). Also returns the
/// address the master stores its checksum to ([`fork_join_sum`]).
pub fn fork_join_loop(cores: usize, iters: i64, window: i64) -> (MachineProgram, u64) {
    assert!(cores >= 2 && window.count_ones() == 1);
    let gpr = Reg::gpr;
    let mut data = DataSegment::default();
    let lines = data.zeroed("lines", window as u64 * 32) as i64;
    let out = data.zeroed("out", 8) as i64;

    // Master: r0 = iteration, r1 = running sum, r2.. scratch.
    let mut entry = MBlock::new("entry", 0);
    entry
        .insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(0)]));
    entry
        .insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(1), vec![Operand::Imm(0)]));
    let mut fork = MBlock::new("fork", 0);
    for w in 1..cores {
        fork.insts.push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(w as u8), Operand::Block(BlockId(1))],
        ));
    }
    coupled_stretch(&mut fork);
    let mut join = MBlock::new("join", 1);
    join.insts.push(Inst::with_dst(
        Opcode::And,
        gpr(2),
        vec![gpr(0).into(), Operand::Imm(window - 1)],
    ));
    join.insts.push(Inst::with_dst(
        Opcode::Shl,
        gpr(2),
        vec![gpr(2).into(), Operand::Imm(5)],
    ));
    join.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(2),
        vec![gpr(2).into(), Operand::Imm(lines)],
    ));
    join.insts.push(Inst::with_dst(
        Opcode::Load(MemWidth::W8, Signedness::Signed),
        gpr(3),
        vec![gpr(2).into(), Operand::Imm(0)],
    ));
    join.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(1),
        vec![gpr(1).into(), gpr(3).into()],
    ));
    for w in 1..cores {
        join.insts.push(Inst::with_dst(
            Opcode::Recv,
            gpr(4),
            vec![Operand::Core(w as u8), Operand::Imm(JOIN)],
        ));
        join.insts.push(Inst::with_dst(
            Opcode::Add,
            gpr(1),
            vec![gpr(1).into(), gpr(4).into()],
        ));
    }
    join.insts.push(Inst::with_dst(
        Opcode::Add,
        gpr(0),
        vec![gpr(0).into(), Operand::Imm(1)],
    ));
    join.insts.push(Inst::with_dst(
        Opcode::Cmp(CmpCc::Lt),
        Reg::pred(0),
        vec![gpr(0).into(), Operand::Imm(iters)],
    ));
    join.insts.push(Inst::new(
        Opcode::Br,
        vec![Operand::Block(BlockId(1)), Reg::pred(0).into()],
    ));
    let mut done = MBlock::new("done", 1);
    done.insts
        .push(Inst::with_dst(Opcode::Ldi, gpr(2), vec![Operand::Imm(out)]));
    done.insts.push(Inst::new(
        Opcode::Store(MemWidth::W8),
        vec![gpr(2).into(), Operand::Imm(0), gpr(1).into()],
    ));
    done.insts.push(Inst::new(Opcode::Halt, vec![]));
    let mut images = vec![CoreImage {
        blocks: vec![entry, fork, join, done],
    }];

    // Workers: block 0 is the sleep stub, block 1 one iteration's work.
    for w in 1..cores {
        let mut idle = MBlock::new("idle", 0);
        idle.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let mut work = MBlock::new("work", 0);
        coupled_stretch(&mut work);
        work.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(0),
            vec![Operand::Imm(w as i64)],
        ));
        work.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(0).into(), Operand::Core(0), Operand::Imm(JOIN)],
        ));
        work.insts.push(Inst::new(Opcode::Sleep, vec![]));
        images.push(CoreImage {
            blocks: vec![idle, work],
        });
    }
    let program = MachineProgram {
        name: format!("fork-join-{cores}"),
        cores: images,
        data,
    };
    (program, out as u64)
}

/// The checksum the loop stores: every iteration adds one zero line
/// word and the join tokens `1 + 2 + ... + (cores - 1)`.
pub fn fork_join_sum(cores: usize, iters: i64) -> i64 {
    iters * (cores * (cores - 1) / 2) as i64
}
