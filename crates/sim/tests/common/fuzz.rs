//! The random machine-program generator shared by the simulator-engine
//! suites. Most programs it produces are garbage —
//! that is the point: they wedge, spin, fault and fall off their images
//! in every way the cycle loop must survive.

use rand::rngs::StdRng;
use rand::Rng;
use voltron_ir::{BlockId, CmpCc, DataSegment, Dir, ExecMode, Inst, Opcode, Operand, Reg};
use voltron_sim::{CoreImage, MBlock, MachineConfig, MachineProgram};

use super::cases::vec_of;

fn gpr(i: u32) -> Reg {
    Reg::gpr(i)
}

/// The fuzz generator's instruction alphabet. Operand ranges straddle
/// the valid space on purpose: cores up to 3 on a 2-core machine, blocks
/// up to 3 on 2-block images, all four mesh directions on a 2x1 mesh.
#[derive(Debug, Clone)]
pub enum FuzzOp {
    Ldi(u8, i8),
    Add(u8, u8, u8),
    Cmp(u8, u8),
    Send(u8, u8, u8),
    Recv(u8, u8, u8),
    Spawn(u8, u8),
    Put(u8, u8),
    Get(u8, u8),
    Bcast(u8),
    GetB(u8),
    ModeSwitch(bool),
    Jump(u8),
    Br(u8),
    Store(u8, u8),
    Load(u8, u8),
}

/// One random instruction of the alphabet, each kind equally likely.
pub fn fuzz_op(rng: &mut StdRng) -> FuzzOp {
    let r = |rng: &mut StdRng| rng.gen_range(0..4u8);
    match rng.gen_range(0..15) {
        0 => FuzzOp::Ldi(r(rng), rng.gen::<u8>() as i8),
        1 => FuzzOp::Add(r(rng), r(rng), r(rng)),
        2 => FuzzOp::Cmp(r(rng), r(rng)),
        3 => FuzzOp::Send(r(rng), r(rng), rng.gen_range(0..3)),
        4 => FuzzOp::Recv(r(rng), r(rng), rng.gen_range(0..3)),
        5 => FuzzOp::Spawn(r(rng), r(rng)),
        6 => FuzzOp::Put(r(rng), r(rng)),
        7 => FuzzOp::Get(r(rng), r(rng)),
        8 => FuzzOp::Bcast(r(rng)),
        9 => FuzzOp::GetB(r(rng)),
        10 => FuzzOp::ModeSwitch(rng.gen()),
        11 => FuzzOp::Jump(r(rng)),
        12 => FuzzOp::Br(r(rng)),
        13 => FuzzOp::Store(r(rng), r(rng)),
        _ => FuzzOp::Load(r(rng), r(rng)),
    }
}

/// Fewer than `max` random instructions.
pub fn fuzz_ops(rng: &mut StdRng, max: usize) -> Vec<FuzzOp> {
    vec_of(rng, 0..max, fuzz_op)
}

/// Random `main`, `spin` and `worker` op lists for [`two_core_case`].
pub fn fuzz_case(rng: &mut StdRng) -> (Vec<FuzzOp>, Vec<FuzzOp>, Vec<FuzzOp>) {
    (fuzz_ops(rng, 12), fuzz_ops(rng, 8), fuzz_ops(rng, 8))
}

const FUZZ_DIRS: [Dir; 4] = [Dir::East, Dir::West, Dir::South, Dir::North];

fn lower_fuzz(ops: &[FuzzOp], base: i64) -> Vec<Inst> {
    let mut insts = Vec::with_capacity(ops.len() + 1);
    for op in ops {
        let inst = match *op {
            FuzzOp::Ldi(d, v) => {
                Inst::with_dst(Opcode::Ldi, gpr(d as u32), vec![Operand::Imm(i64::from(v))])
            }
            FuzzOp::Add(d, a, b) => Inst::with_dst(
                Opcode::Add,
                gpr(d as u32),
                vec![gpr(a as u32).into(), gpr(b as u32).into()],
            ),
            FuzzOp::Cmp(a, b) => Inst::with_dst(
                Opcode::Cmp(CmpCc::Lt),
                Reg::pred(0),
                vec![gpr(a as u32).into(), gpr(b as u32).into()],
            ),
            FuzzOp::Send(v, c, t) => Inst::new(
                Opcode::Send,
                vec![
                    gpr(v as u32).into(),
                    Operand::Core(c),
                    Operand::Imm(i64::from(t)),
                ],
            ),
            FuzzOp::Recv(d, c, t) => Inst::with_dst(
                Opcode::Recv,
                gpr(d as u32),
                vec![Operand::Core(c), Operand::Imm(i64::from(t))],
            ),
            FuzzOp::Spawn(c, b) => Inst::new(
                Opcode::Spawn,
                vec![Operand::Core(c), Operand::Block(BlockId(b as u32))],
            ),
            FuzzOp::Put(v, d) => Inst::new(
                Opcode::Put,
                vec![
                    gpr(v as u32).into(),
                    Operand::Dir(FUZZ_DIRS[d as usize % 4]),
                ],
            ),
            FuzzOp::Get(r, d) => Inst::with_dst(
                Opcode::Get,
                gpr(r as u32),
                vec![Operand::Dir(FUZZ_DIRS[d as usize % 4])],
            ),
            FuzzOp::Bcast(v) => Inst::new(Opcode::Bcast, vec![gpr(v as u32).into()]),
            FuzzOp::GetB(d) => Inst::with_dst(Opcode::GetB, gpr(d as u32), vec![]),
            FuzzOp::ModeSwitch(coupled) => Inst::new(
                Opcode::ModeSwitch,
                vec![Operand::Mode(if coupled {
                    ExecMode::Coupled
                } else {
                    ExecMode::Decoupled
                })],
            ),
            FuzzOp::Jump(b) => Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(b as u32))]),
            FuzzOp::Br(b) => Inst::new(
                Opcode::Br,
                vec![Operand::Block(BlockId(b as u32)), Reg::pred(0).into()],
            ),
            FuzzOp::Store(a, v) => {
                insts.push(Inst::with_dst(
                    Opcode::Ldi,
                    gpr(3),
                    vec![Operand::Imm(base + i64::from(a) * 8)],
                ));
                Inst::new(
                    Opcode::Store(voltron_ir::MemWidth::W8),
                    vec![gpr(3).into(), Operand::Imm(0), gpr(v as u32).into()],
                )
            }
            FuzzOp::Load(d, a) => {
                insts.push(Inst::with_dst(
                    Opcode::Ldi,
                    gpr(3),
                    vec![Operand::Imm(base + i64::from(a) * 8)],
                ));
                Inst::with_dst(
                    Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
                    gpr(d as u32),
                    vec![gpr(3).into(), Operand::Imm(0)],
                )
            }
        };
        insts.push(inst);
    }
    insts
}

/// The two-core case the suites run: core 0 holds `main` (region 0) and
/// `spin` (region 1), each ending in `HALT`; core 1 holds the usual sleep
/// stub and `worker`, ending in `SLEEP`. Memory operations address a
/// 64-byte buffer. The machine is the paper's two-core one with
/// watchdogs and cycle cap tight enough that a wedged or spinning
/// program fails fast.
pub fn two_core_case(
    main: &[FuzzOp],
    spin: &[FuzzOp],
    worker: &[FuzzOp],
) -> (MachineProgram, MachineConfig) {
    let mut data = DataSegment::default();
    let base = data.zeroed("buf", 64) as i64;
    let block = |name: &str, region, ops: &[FuzzOp], last: Opcode| {
        let mut b = MBlock::new(name, region);
        b.insts = lower_fuzz(ops, base);
        b.insts.push(Inst::new(last, vec![]));
        b
    };
    let core0 = vec![
        block("main", 0, main, Opcode::Halt),
        block("spin", 1, spin, Opcode::Halt),
    ];
    let core1 = vec![
        block("idle", 0, &[], Opcode::Sleep),
        block("worker", 0, worker, Opcode::Sleep),
    ];
    let program = MachineProgram {
        name: "fuzz".into(),
        cores: vec![CoreImage { blocks: core0 }, CoreImage { blocks: core1 }],
        data,
    };
    let mut cfg = MachineConfig::paper(2);
    cfg.watchdogs.deadlock_window = 500;
    cfg.watchdogs.livelock_window = 2_000;
    cfg.max_cycles = 20_000;
    (program, cfg)
}
