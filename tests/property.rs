//! Property-based tests, seeded random cases, on the core invariants:
//!
//! * randomly generated programs compile under every strategy and
//!   reproduce the reference interpreter's memory exactly;
//! * the queue network delivers per-(sender, tag) FIFO;
//! * the tag cache behaves like a naive LRU reference model;
//! * ordered transactions serialize to the chunk order.

use rand::rngs::StdRng;
use rand::Rng;
use voltron_compiler::{compile, CompileOptions, Strategy};
use voltron_ir::builder::{FunctionBuilder, ProgramBuilder};
use voltron_ir::{CmpCc, Program, Reg};
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::{CoherenceBackend, Machine, MachineConfig};

#[path = "../crates/sim/tests/common/cases.rs"]
mod cases;
use cases::{cases, vec_of};

// ---------- random-program generation ----------

#[derive(Debug, Clone)]
enum GenOp {
    Add(u8, u8),
    Sub(u8, u8),
    Mul(u8, u8),
    Xor(u8, u8),
    Min(u8, u8),
    Sel(u8, u8, u8),
    LoadA(u8),
    LoadB(u8),
    StoreA(u8, u8),
    StoreB(u8, u8),
    /// Floating-point multiply-add over the FP pool.
    Fma(u8, u8),
    /// A store nullified or enabled by a data-dependent guard predicate.
    GuardedStoreB(u8, u8, u8),
}

/// One random op, each kind equally likely, over full-width `u8` operands.
fn gen_op(rng: &mut StdRng) -> GenOp {
    let u = |rng: &mut StdRng| rng.gen::<u8>();
    match rng.gen_range(0..12) {
        0 => GenOp::Add(u(rng), u(rng)),
        1 => GenOp::Sub(u(rng), u(rng)),
        2 => GenOp::Mul(u(rng), u(rng)),
        3 => GenOp::Xor(u(rng), u(rng)),
        4 => GenOp::Min(u(rng), u(rng)),
        5 => GenOp::Sel(u(rng), u(rng), u(rng)),
        6 => GenOp::LoadA(u(rng)),
        7 => GenOp::LoadB(u(rng)),
        8 => GenOp::StoreA(u(rng), u(rng)),
        9 => GenOp::StoreB(u(rng), u(rng)),
        10 => GenOp::Fma(u(rng), u(rng)),
        _ => GenOp::GuardedStoreB(u(rng), u(rng), u(rng)),
    }
}

const ARR: i64 = 32;

/// Emit the op sequence against a register pool; returns the pool.
fn emit_ops(f: &mut FunctionBuilder, ops: &[GenOp], seeds: &[i64], a: Reg, b: Reg) -> Vec<Reg> {
    let mut pool: Vec<Reg> = seeds.iter().map(|&v| f.ldi(v)).collect();
    let mut fpool: Vec<Reg> = pool.iter().map(|&r| f.itof(r)).collect();
    let pick = |pool: &[Reg], i: u8| pool[i as usize % pool.len()];
    for op in ops {
        let r = match *op {
            GenOp::Add(x, y) => {
                let (x, y) = (pick(&pool, x), pick(&pool, y));
                f.add(x, y)
            }
            GenOp::Sub(x, y) => {
                let (x, y) = (pick(&pool, x), pick(&pool, y));
                f.sub(x, y)
            }
            GenOp::Mul(x, y) => {
                let (x, y) = (pick(&pool, x), pick(&pool, y));
                f.mul(x, y)
            }
            GenOp::Xor(x, y) => {
                let (x, y) = (pick(&pool, x), pick(&pool, y));
                f.xor(x, y)
            }
            GenOp::Min(x, y) => {
                let (x, y) = (pick(&pool, x), pick(&pool, y));
                f.min(x, y)
            }
            GenOp::Sel(p, x, y) => {
                let (pv, x, y) = (pick(&pool, p), pick(&pool, x), pick(&pool, y));
                let pr = f.cmp(CmpCc::Lt, pv, 0i64);
                f.sel(pr, x, y)
            }
            GenOp::LoadA(i) => {
                let idx = f.ldi(i64::from(i) % ARR * 8);
                let ad = f.add(a, idx);
                f.load8(ad, 0)
            }
            GenOp::LoadB(i) => {
                let idx = f.ldi(i64::from(i) % ARR * 8);
                let ad = f.add(b, idx);
                f.load8(ad, 0)
            }
            GenOp::StoreA(i, v) => {
                let idx = f.ldi(i64::from(i) % ARR * 8);
                let ad = f.add(a, idx);
                let v = pick(&pool, v);
                f.store8(ad, 0, v);
                v
            }
            GenOp::StoreB(i, v) => {
                let idx = f.ldi(i64::from(i) % ARR * 8);
                let ad = f.add(b, idx);
                let v = pick(&pool, v);
                f.store8(ad, 0, v);
                v
            }
            GenOp::Fma(x, y) => {
                let (fx, fy) = (pick(&fpool, x), pick(&fpool, y));
                let m = f.fmul(fx, fy);
                let s = f.fadd(m, fx);
                fpool.push(s);
                if fpool.len() > 12 {
                    fpool.remove(0);
                }
                // Fold into the integer pool so the checksum observes it
                // exactly (ftoi of possibly-huge values saturates via the
                // shared semantics, identically everywhere).
                f.ftoi(s)
            }
            GenOp::GuardedStoreB(i, v, g) => {
                let idx = f.ldi(i64::from(i) % ARR * 8);
                let ad = f.add(b, idx);
                let val = pick(&pool, v);
                let gv = pick(&pool, g);
                let p = f.cmp(CmpCc::Lt, gv, 0i64);
                f.emit(
                    voltron_ir::Inst::new(
                        voltron_ir::Opcode::Store(voltron_ir::MemWidth::W8),
                        vec![ad.into(), voltron_ir::Operand::Imm(0), val.into()],
                    )
                    .guarded(p),
                );
                val
            }
        };
        pool.push(r);
        if pool.len() > 24 {
            pool.remove(0);
        }
    }
    pool
}

fn straightline_program(ops: &[GenOp], seeds: &[i64], init: &[i64]) -> Program {
    let mut pb = ProgramBuilder::new("prop-straight");
    let a = pb.data_mut().array_i64("a", init);
    let b = pb.data_mut().zeroed("b", (ARR * 8) as u64);
    let out = pb.data_mut().zeroed("out", 8);
    let mut f = pb.function("main");
    let ab = f.ldi(a as i64);
    let bb = f.ldi(b as i64);
    let pool = emit_ops(&mut f, ops, seeds, ab, bb);
    // Fold the pool into a checksum so every value is observable.
    let acc = f.ldi(0);
    for r in pool {
        f.reduce_add(acc, r);
    }
    let ob = f.ldi(out as i64);
    f.store8(ob, 0, acc);
    f.halt();
    pb.finish_function(f);
    pb.finish()
}

fn loop_program(ops: &[GenOp], seeds: &[i64], init: &[i64], trips: i64) -> Program {
    let mut pb = ProgramBuilder::new("prop-loop");
    let a = pb.data_mut().array_i64("a", init);
    let b = pb.data_mut().zeroed("b", (ARR * 8) as u64);
    let out = pb.data_mut().zeroed("out", 8);
    let mut f = pb.function("main");
    let ab = f.ldi(a as i64);
    let bb = f.ldi(b as i64);
    let acc = f.ldi(0);
    f.counted_loop(0i64, trips, 1, |f, iv| {
        // Mix the induction variable into the addresses so iterations
        // touch different slots.
        let slot = f.rem(iv, ARR);
        let off = f.shl(slot, 3i64);
        let av = f.add(ab, off);
        let x = f.load8(av, 0);
        let pool = emit_ops(f, ops, seeds, ab, bb);
        let y = f.add(x, *pool.last().expect("pool non-empty"));
        let bv = f.add(bb, off);
        f.store8(bv, 0, y);
        f.reduce_add(acc, y);
    });
    let ob = f.ldi(out as i64);
    f.store8(ob, 0, acc);
    f.halt();
    pb.finish_function(f);
    pb.finish()
}

/// Run `p` on the paper's 2- and 4-core machines under every strategy,
/// and at scale — llp/16 and hybrid/64 on the banked directory, where the
/// DOALL chunks wait on the commit token and the loads miss across the
/// mesh — against the reference interpreter.
fn check_program(p: &Program) {
    let golden = voltron_ir::interp::run(p, 500_000_000).expect("golden");
    let at_scale =
        |cores| MachineConfig::scaled(cores).with_backend(CoherenceBackend::directory_for(cores));
    for (strategy, cfg) in [
        (Strategy::Ilp, MachineConfig::paper(4)),
        (Strategy::FineGrainTlp, MachineConfig::paper(4)),
        (Strategy::Llp, MachineConfig::paper(4)),
        (Strategy::Hybrid, MachineConfig::paper(4)),
        (Strategy::Hybrid, MachineConfig::paper(2)),
        (Strategy::Llp, at_scale(16)),
        (Strategy::Hybrid, at_scale(64)),
    ] {
        let cores = cfg.cores;
        let compiled = compile(p, strategy, &cfg, &CompileOptions::default())
            .unwrap_or_else(|e| panic!("{strategy}/{cores}: {e}"));
        let out = Machine::new(compiled.machine, &cfg)
            .unwrap()
            .run()
            .unwrap_or_else(|e| panic!("{strategy}/{cores}: {e}"));
        assert_eq!(
            golden.memory.first_difference(&out.memory),
            None,
            "{strategy}/{cores} diverged"
        );
    }
}

/// Initial contents of array `a`.
fn init_array(rng: &mut StdRng) -> Vec<i64> {
    (0..ARR).map(|_| rng.gen_range(-1000i64..1000)).collect()
}

#[test]
fn random_straightline_programs_are_equivalent() {
    let sample = |rng: &mut StdRng| {
        let ops = vec_of(rng, 4..40, gen_op);
        let seeds = vec_of(rng, 2..6, |rng| rng.gen_range(-100i64..100));
        (ops, seeds, init_array(rng))
    };
    cases(1_000_000, 16, sample, |(ops, seeds, init)| {
        check_program(&straightline_program(ops, seeds, init));
    });
}

#[test]
fn random_loop_programs_are_equivalent() {
    let sample = |rng: &mut StdRng| {
        let ops = vec_of(rng, 3..16, gen_op);
        let seeds = vec_of(rng, 2..5, |rng| rng.gen_range(-50i64..50));
        (ops, seeds, init_array(rng), rng.gen_range(5i64..60))
    };
    cases(1_100_000, 16, sample, |(ops, seeds, init, trips)| {
        check_program(&loop_program(ops, seeds, init, *trips));
    });
}

#[test]
fn network_is_fifo_per_sender_and_tag() {
    let sample = |rng: &mut StdRng| {
        let values = vec_of(rng, 1..24, |rng| rng.gen_range(-1000i64..1000));
        (values, rng.gen_range(1u32..5))
    };
    cases(1_200_000, 16, sample, |(values, tag)| {
        let cfg = MachineConfig::paper(4);
        let mut net = OperandNetwork::new(&cfg);
        let mut now = 0u64;
        let mut sent = 0usize;
        let mut got: Vec<i64> = Vec::new();
        while got.len() < values.len() {
            if sent < values.len()
                && net.send(
                    0,
                    3,
                    *tag,
                    Payload::Data(voltron_ir::Value::Int(values[sent])),
                    now,
                )
            {
                sent += 1;
            }
            net.tick(now);
            if let Some(voltron_ir::Value::Int(v)) = net.recv(3, 0, *tag, now) {
                got.push(v);
            }
            now += 1;
            assert!(now < 100_000, "network failed to drain");
        }
        assert_eq!(&got, values);
    });
}

#[test]
fn tag_cache_matches_naive_lru() {
    use voltron_sim::cache::{LineState, TagCache};
    let sample = |rng: &mut StdRng| vec_of(rng, 1..400, |rng| rng.gen_range(0u64..4096));
    cases(1_300_000, 16, sample, |addrs| {
        let mut cache = TagCache::new(512, 2, 32); // 8 sets, 2 ways
                                                   // Naive model: per set, a vector in MRU order.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 8];
        for &addr in addrs {
            let line = addr >> 5;
            let set = (line & 7) as usize;
            let hit_model = model[set].contains(&line);
            let hit_cache = cache.access(addr).is_some();
            assert_eq!(hit_model, hit_cache, "line {line} set {set}");
            if hit_model {
                let pos = model[set].iter().position(|l| *l == line).unwrap();
                let l = model[set].remove(pos);
                model[set].insert(0, l);
            } else {
                cache.fill(addr, LineState::S);
                model[set].insert(0, line);
                model[set].truncate(2);
            }
        }
    });
}

#[test]
fn transactions_serialize_in_chunk_order() {
    use std::collections::HashMap;
    use voltron_sim::tm::TxnManager;
    let sample = |rng: &mut StdRng| {
        vec_of(rng, 1..32, |rng| {
            (rng.gen_range(0u64..16), rng.gen_range(0u64..255))
        })
    };
    cases(1_400_000, 16, sample, |writes| {
        // Split the write stream across two ordered transactions; the
        // committed memory must equal applying chunk 0 then chunk 1.
        let mid = writes.len() / 2;
        let mut tm = TxnManager::new(2, 32);
        tm.begin(0, 0);
        tm.begin(1, 1);
        for (i, &(slot, v)) in writes.iter().enumerate() {
            let core = usize::from(i >= mid);
            tm.write(core, 0x1_0000 + slot * 8, 8, v);
        }
        let mut mem: HashMap<u64, u8> = HashMap::new();
        assert!(!tm.can_commit(1));
        tm.commit(0, |a, b| {
            mem.insert(a, b);
        });
        assert!(tm.can_commit(1));
        tm.commit(1, |a, b| {
            mem.insert(a, b);
        });
        // Reference: sequential application.
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for &(slot, v) in writes {
            for (bi, byte) in v.to_le_bytes().iter().enumerate() {
                reference.insert(0x1_0000 + slot * 8 + bi as u64, *byte);
            }
        }
        assert_eq!(mem, reference);
    });
}
