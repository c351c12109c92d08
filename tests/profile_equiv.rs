//! The flat-state profiler against its oracle, and the owned-analyses
//! front end against a fresh compile.
//!
//! The oracle below is the map-per-byte profiler `voltron_ir::profile`
//! used to be — one `HashMap<u64, (i64, i64)>` per open loop invocation,
//! `BTreeSet` membership per block entry, a `Vec<Vec<u64>>` LRU cache —
//! with one correction: an access is tested against the open loops of
//! *every* live frame, not only the innermost one. It lives on only
//! here. Every field of `Profile` must be equal on all 25 workloads at
//! both scales, original and inlined, and on random access mixes.

use proptest::prelude::*;
use std::collections::HashMap;
use voltron_compiler::{
    compile, compile_prepared, inline, CompileOptions, FrontEnd, Strategy as CompileStrategy,
};
use voltron_ir::builder::{FunctionBuilder, ProgramBuilder};
use voltron_ir::interp::{self, InterpError, Observer};
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::profile::{loop_forests, profile, Profile};
use voltron_ir::{BlockId, FuncId, InstRef, Program, Reg, RegClass};
use voltron_sim::MachineConfig;
use voltron_workloads::{all, Scale};

// ---------- the oracle ----------

struct ActiveLoop {
    id: LoopId,
    iter: u64,
    /// Per-byte last-writer and last-reader iteration.
    mem: HashMap<u64, (i64, i64)>,
    dep_found: bool,
}

struct FrameCtx {
    func: FuncId,
    stack: Vec<ActiveLoop>,
}

struct Oracle<'a> {
    forests: &'a [LoopForest],
    profile: Profile,
    frames: Vec<FrameCtx>,
    /// Per-set line list in LRU order (front = MRU): 4 KB, 2-way, 32 B.
    sets: Vec<Vec<u64>>,
}

impl Oracle<'_> {
    fn cache_access(&mut self, addr: u64) -> bool {
        let line = addr >> 5;
        let ways = &mut self.sets[(line & 63) as usize];
        let hit = ways.iter().position(|t| *t == line);
        if let Some(pos) = hit {
            ways.remove(pos);
        }
        ways.insert(0, line);
        ways.truncate(2);
        hit.is_some()
    }

    fn pop_loop(&mut self, func: FuncId, al: ActiveLoop) {
        let entry = self.profile.loops.entry((func, al.id)).or_default();
        entry.invocations += 1;
        entry.total_iters += al.iter + 1;
        entry.cross_iter_dep |= al.dep_found;
    }

    fn record_access(&mut self, addr: u64, bytes: u64, is_store: bool) {
        for al in self.frames.iter_mut().flat_map(|f| &mut f.stack) {
            if al.dep_found {
                continue;
            }
            let k = al.iter as i64;
            for b in 0..bytes {
                let e = al.mem.entry(addr + b).or_insert((-1, -1));
                if is_store {
                    if (e.0 >= 0 && e.0 < k) || (e.1 >= 0 && e.1 < k) {
                        al.dep_found = true;
                        break;
                    }
                    e.0 = k;
                } else {
                    if e.0 >= 0 && e.0 < k {
                        al.dep_found = true;
                        break;
                    }
                    e.1 = e.1.max(k);
                }
            }
        }
    }
}

impl Observer for Oracle<'_> {
    fn on_block(&mut self, func: FuncId, block: BlockId) {
        *self.profile.block_counts.entry((func, block)).or_insert(0) += 1;
        let forest = &self.forests[func.idx()];
        loop {
            let frame = self.frames.last_mut().expect("frame exists");
            match frame.stack.last() {
                Some(top) if !forest.get(top.id).blocks.contains(&block) => {
                    let al = frame.stack.pop().expect("non-empty");
                    self.pop_loop(func, al);
                }
                _ => break,
            }
        }
        let frame = self.frames.last_mut().expect("frame exists");
        if let Some(lid) = forest.innermost_of(block) {
            if forest.get(lid).header == block {
                match frame.stack.last_mut() {
                    Some(top) if top.id == lid => top.iter += 1,
                    _ => frame.stack.push(ActiveLoop {
                        id: lid,
                        iter: 0,
                        mem: HashMap::new(),
                        dep_found: false,
                    }),
                }
            }
        }
    }

    fn on_load(&mut self, at: InstRef, addr: u64, bytes: u64) {
        let hit = self.cache_access(addr);
        let lp = self.profile.loads.entry(at).or_default();
        lp.accesses += 1;
        lp.misses += u64::from(!hit);
        self.record_access(addr, bytes, false);
    }

    fn on_store(&mut self, _at: InstRef, addr: u64, bytes: u64) {
        self.cache_access(addr);
        self.record_access(addr, bytes, true);
    }

    fn on_call(&mut self, func: FuncId) {
        self.frames.push(FrameCtx {
            func,
            stack: Vec::new(),
        });
    }

    fn on_ret(&mut self, _func: FuncId) {
        let frame = self.frames.pop().expect("frame exists");
        for al in frame.stack.into_iter().rev() {
            self.pop_loop(frame.func, al);
        }
    }
}

fn oracle_profile(program: &Program, fuel: u64) -> Result<Profile, InterpError> {
    let forests = loop_forests(program);
    let mut o = Oracle {
        forests: &forests,
        profile: Profile::default(),
        frames: Vec::new(),
        sets: vec![Vec::new(); 64],
    };
    let outcome = interp::run_observed(program, fuel, &mut o)?;
    while let Some(frame) = o.frames.pop() {
        for al in frame.stack.into_iter().rev() {
            o.pop_loop(frame.func, al);
        }
    }
    o.profile.steps = outcome.steps;
    Ok(o.profile)
}

/// Field by field, so a failure names the map that moved.
fn assert_profiles_equal(what: &str, got: &Profile, want: &Profile) {
    assert_eq!(got.steps, want.steps, "{what}: steps");
    assert_eq!(got.block_counts, want.block_counts, "{what}: block_counts");
    assert_eq!(got.loops, want.loops, "{what}: loops");
    assert_eq!(got.loads, want.loads, "{what}: loads");
}

#[test]
fn flat_profiler_equals_the_map_oracle_on_every_workload() {
    for (scale, label) in [(Scale::Test, "test"), (Scale::Full, "full")] {
        for w in all(scale) {
            let inlined = inline::inline_program(&w.program).expect("workloads inline");
            for (program, shape) in [(&w.program, "original"), (&inlined, "inlined")] {
                let got = profile(program, interp::GOLDEN_FUEL).expect("profile");
                let want = oracle_profile(program, interp::GOLDEN_FUEL).expect("oracle");
                assert_profiles_equal(&format!("{} {label} {shape}", w.name), &got, &want);
            }
        }
    }
}

// ---------- random access mixes ----------

const SEGMENT: i64 = 48;

/// One access: `width` bytes at `(base + ci·i + cj·j + ck·k) mod (SEGMENT − 7)`
/// — unaligned, so widths overlap each other's bytes.
#[derive(Debug, Clone, Copy)]
struct Access {
    store: bool,
    width: u8,
    base: u8,
    coef: [u8; 3],
}

fn gen_access() -> impl Strategy<Value = Access> {
    (any::<bool>(), 0u8..4, any::<u8>(), (0u8..5, 0u8..5, 0u8..5)).prop_map(
        |(store, w, base, (ci, cj, ck))| Access {
            store,
            width: 1 << w,
            base,
            coef: [ci, cj, ck],
        },
    )
}

fn emit_accesses(f: &mut FunctionBuilder, seg: Reg, ivs: [Reg; 3], accesses: &[Access]) {
    for a in accesses {
        let mut off = f.ldi(i64::from(a.base));
        for (iv, c) in ivs.into_iter().zip(a.coef) {
            let term = f.mul(iv, i64::from(c));
            off = f.add(off, term);
        }
        let off = f.rem(off, SEGMENT - 7);
        let addr = f.add(seg, off);
        match (a.store, a.width) {
            (false, 1) => drop(f.load1u(addr, 0)),
            (false, 2) => drop(f.load2(addr, 0)),
            (false, 4) => drop(f.load4u(addr, 0)),
            (false, _) => drop(f.load8(addr, 0)),
            (true, 1) => f.store1(addr, 0, off),
            (true, 2) => f.store2(addr, 0, off),
            (true, 4) => f.store4(addr, 0, off),
            (true, _) => f.store8(addr, 0, off),
        }
    }
}

/// `for i { outer; for j { mid; for k { inner } } }` over one small
/// segment: the inner loops are re-entered once per enclosing iteration.
/// With `outline`, the `k` loop runs in a callee, under the caller's two
/// open loops.
fn nest_program(levels: &[Vec<Access>; 3], trips: [i64; 3], outline: bool) -> Program {
    let mut pb = ProgramBuilder::new("prop-nest");
    let seg = pb.data_mut().zeroed("seg", SEGMENT as u64) as i64;
    let callee = outline.then(|| {
        let mut g = pb.function("inner");
        let (i, j) = (g.param(RegClass::Gpr), g.param(RegClass::Gpr));
        let base = g.ldi(seg);
        g.counted_loop(0i64, trips[2], 1, |g, k| {
            emit_accesses(g, base, [i, j, k], &levels[2]);
        });
        g.ret();
        pb.finish_function(g)
    });
    let mut f = pb.function("main");
    let base = f.ldi(seg);
    let zero = f.ldi(0);
    f.counted_loop(0i64, trips[0], 1, |f, i| {
        emit_accesses(f, base, [i, zero, zero], &levels[0]);
        f.counted_loop(0i64, trips[1], 1, |f, j| {
            emit_accesses(f, base, [i, j, zero], &levels[1]);
            match callee {
                Some(g) => drop(f.call(g, &[i, j], None)),
                None => f.counted_loop(0i64, trips[2], 1, |f, k| {
                    emit_accesses(f, base, [i, j, k], &levels[2]);
                }),
            }
        });
    });
    f.halt();
    pb.finish_function(f);
    pb.finish()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, .. ProptestConfig::default() })]

    #[test]
    fn flat_profiler_equals_the_map_oracle_on_random_access_mixes(
        outer in proptest::collection::vec(gen_access(), 0..3),
        mid in proptest::collection::vec(gen_access(), 0..3),
        inner in proptest::collection::vec(gen_access(), 1..4),
        trips in (1i64..4, 1i64..4, 1i64..5),
        outline in any::<bool>(),
    ) {
        let p = nest_program(&[outer, mid, inner], [trips.0, trips.1, trips.2], outline);
        let got = profile(&p, 1_000_000).expect("profile");
        let want = oracle_profile(&p, 1_000_000).expect("oracle");
        assert_profiles_equal("random nest", &got, &want);
    }
}

/// The verdicts the random mixes must actually exercise: both outcomes,
/// at more than one depth. Guards the generator, not the profiler.
#[test]
fn random_access_mixes_reach_both_verdicts() {
    let store = |coef| Access {
        store: true,
        width: 8,
        base: 0,
        coef,
    };
    // Each (i, j, k) writes its own 8 bytes only when the strides make it
    // so; a zero stride at a level repeats the address across that level.
    let p = nest_program(&[vec![], vec![], vec![store([0, 0, 8])]], [2, 2, 3], false);
    let prof = profile(&p, 1_000_000).unwrap();
    let loops = [0, 1, 2].map(|l| prof.loop_profile(p.main, LoopId(l)));
    assert_eq!(
        loops.map(|l| l.cross_iter_dep),
        [true, true, false],
        "outer levels rewrite the same bytes, the innermost does not"
    );
    assert_eq!(loops[2].invocations, 4);
}

// ---------- the owned analyses ----------

/// One `FrontEnd` serves every configuration with its key; what it hands
/// `compile_prepared` — profile and analyses, rebuilt after unrolling or
/// kept when unrolling changed nothing, and the dependence graphs it
/// builds on first use and then keeps — must be what a fresh `compile`
/// derives for itself. Which configuration builds a graph first must not
/// matter, so the matrix is compiled in order, in reverse from a second
/// front end, and by two threads racing through a third.
#[test]
fn prepared_compiles_equal_fresh_compiles_in_every_configuration() {
    let opts = CompileOptions::default();
    let strategies = [
        CompileStrategy::Ilp,
        CompileStrategy::FineGrainTlp,
        CompileStrategy::Llp,
        CompileStrategy::Hybrid,
    ];
    let matrix: Vec<(CompileStrategy, MachineConfig)> = strategies
        .into_iter()
        .flat_map(|s| [2usize, 4, 16, 64].map(|n| (s, MachineConfig::scaled(n))))
        .collect();
    for w in all(Scale::Test) {
        let fresh: Vec<_> = matrix
            .iter()
            .map(|(strategy, mcfg)| {
                assert!(
                    FrontEnd::key(*strategy, mcfg, &opts),
                    "one key covers the matrix"
                );
                compile(&w.program, *strategy, mcfg, &opts)
                    .unwrap_or_else(|e| panic!("{} {strategy}/{}: fresh: {e}", w.name, mcfg.cores))
                    .machine
            })
            .collect();
        let front_end = || {
            let (strategy, mcfg) = &matrix[0];
            FrontEnd::new(&w.program, *strategy, mcfg, &opts)
                .unwrap_or_else(|e| panic!("{}: front end: {e}", w.name))
        };
        let check = |fe: &FrontEnd, k: usize, order: &str| -> Result<(), String> {
            let (strategy, mcfg) = &matrix[k];
            let label = format!("{} {strategy}/{} ({order})", w.name, mcfg.cores);
            let prepared = compile_prepared(fe, *strategy, mcfg, &opts)
                .map_err(|e| format!("{label}: prepared: {e}"))?;
            if prepared.machine != fresh[k] {
                return Err(format!(
                    "{label}: prepared image differs from a fresh compile"
                ));
            }
            Ok(())
        };
        let fe = front_end();
        (0..matrix.len()).for_each(|k| check(&fe, k, "in order").unwrap());
        let fe = front_end();
        (0..matrix.len())
            .rev()
            .for_each(|k| check(&fe, k, "reversed").unwrap());
        // Both threads enter each configuration together, so they race
        // for the same unbuilt graphs (and neither leaves the other at
        // the gate: failures, panics included, are reported after the
        // last configuration).
        let fe = front_end();
        let gate = std::sync::Barrier::new(2);
        let failures: Vec<String> = std::thread::scope(|threads| {
            let racers: Vec<_> = (0..2)
                .map(|_| {
                    threads.spawn(|| {
                        (0..matrix.len())
                            .filter_map(|k| {
                                gate.wait();
                                let racing = || check(&fe, k, "two threads");
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(racing))
                                    .unwrap_or_else(|_| Err(format!("{} #{k}: panicked", w.name)))
                                    .err()
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            racers
                .into_iter()
                .flat_map(|t| t.join().expect("racer panicked"))
                .collect()
        });
        assert!(failures.is_empty(), "{failures:?}");
    }
}
