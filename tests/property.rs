//! Property-based tests (proptest) on the core invariants:
//!
//! * randomly generated programs compile under every strategy and
//!   reproduce the reference interpreter's memory exactly;
//! * the queue network delivers per-(sender, tag) FIFO;
//! * the tag cache behaves like a naive LRU reference model;
//! * ordered transactions serialize to the chunk order.

use proptest::prelude::*;
use voltron_compiler::{compile, CompileOptions, Strategy as CompileStrategy};
use voltron_ir::builder::{FunctionBuilder, ProgramBuilder};
use voltron_ir::{CmpCc, Program, Reg};
use voltron_sim::network::{OperandNetwork, Payload};
use voltron_sim::{CoherenceBackend, Machine, MachineConfig};

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

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Add(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Sub(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Mul(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Xor(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Min(a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(p, a, b)| GenOp::Sel(p, a, b)),
        any::<u8>().prop_map(GenOp::LoadA),
        any::<u8>().prop_map(GenOp::LoadB),
        (any::<u8>(), any::<u8>()).prop_map(|(i, v)| GenOp::StoreA(i, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(i, v)| GenOp::StoreB(i, v)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Fma(a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(i, v, g)| GenOp::GuardedStoreB(i, v, g)),
    ]
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
        (CompileStrategy::Ilp, MachineConfig::paper(4)),
        (CompileStrategy::FineGrainTlp, MachineConfig::paper(4)),
        (CompileStrategy::Llp, MachineConfig::paper(4)),
        (CompileStrategy::Hybrid, MachineConfig::paper(4)),
        (CompileStrategy::Hybrid, MachineConfig::paper(2)),
        (CompileStrategy::Llp, at_scale(16)),
        (CompileStrategy::Hybrid, at_scale(64)),
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

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, .. ProptestConfig::default() })]

    #[test]
    fn random_straightline_programs_are_equivalent(
        ops in proptest::collection::vec(gen_op(), 4..40),
        seeds in proptest::collection::vec(-100i64..100, 2..6),
        init in proptest::collection::vec(-1000i64..1000, ARR as usize),
    ) {
        check_program(&straightline_program(&ops, &seeds, &init));
    }

    #[test]
    fn random_loop_programs_are_equivalent(
        ops in proptest::collection::vec(gen_op(), 3..16),
        seeds in proptest::collection::vec(-50i64..50, 2..5),
        init in proptest::collection::vec(-1000i64..1000, ARR as usize),
        trips in 5i64..60,
    ) {
        check_program(&loop_program(&ops, &seeds, &init, trips));
    }

    #[test]
    fn network_is_fifo_per_sender_and_tag(
        values in proptest::collection::vec(-1000i64..1000, 1..24),
        tag in 1u32..5,
    ) {
        let cfg = MachineConfig::paper(4);
        let mut net = OperandNetwork::new(&cfg);
        let mut now = 0u64;
        let mut sent = 0usize;
        let mut got: Vec<i64> = Vec::new();
        while got.len() < values.len() {
            if sent < values.len()
                && net.send(0, 3, tag, Payload::Data(voltron_ir::Value::Int(values[sent])), now)
            {
                sent += 1;
            }
            net.tick(now);
            if let Some(voltron_ir::Value::Int(v)) = net.recv(3, 0, tag, now) {
                got.push(v);
            }
            now += 1;
            prop_assert!(now < 100_000, "network failed to drain");
        }
        prop_assert_eq!(got, values);
    }

    #[test]
    fn tag_cache_matches_naive_lru(
        addrs in proptest::collection::vec(0u64..4096, 1..400),
    ) {
        use voltron_sim::cache::{LineState, TagCache};
        let mut cache = TagCache::new(512, 2, 32); // 8 sets, 2 ways
        // Naive model: per set, a vector in MRU order.
        let mut model: Vec<Vec<u64>> = vec![Vec::new(); 8];
        for addr in addrs {
            let line = addr >> 5;
            let set = (line & 7) as usize;
            let hit_model = model[set].contains(&line);
            let hit_cache = cache.access(addr).is_some();
            prop_assert_eq!(hit_model, hit_cache, "line {} set {}", line, set);
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
    }

    #[test]
    fn transactions_serialize_in_chunk_order(
        writes in proptest::collection::vec((0u64..16, 0u64..255), 1..32),
    ) {
        use std::collections::HashMap;
        use voltron_sim::tm::TxnManager;
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
        prop_assert!(!tm.can_commit(1));
        tm.commit(0, |a, b| { mem.insert(a, b); });
        prop_assert!(tm.can_commit(1));
        tm.commit(1, |a, b| { mem.insert(a, b); });
        // Reference: sequential application.
        let mut reference: HashMap<u64, u8> = HashMap::new();
        for &(slot, v) in &writes {
            for (bi, byte) in v.to_le_bytes().iter().enumerate() {
                reference.insert(0x1_0000 + slot * 8 + bi as u64, *byte);
            }
        }
        prop_assert_eq!(mem, reference);
    }
}
