//! The Voltron compiler.
//!
//! Orchestrates single-thread programs onto the Voltron multicore
//! (HPCA 2007, §4): whole-program inlining, profiling, region planning
//! (statistical DOALL → DSWP → strands → ILP → serial), partitioning
//! (BUG / eBUG / DSWP stages), communication insertion over the dual-mode
//! scalar operand network, distributed-branch replication, coupled-mode
//! joint scheduling, and emission of per-core machine images.
//!
//! # Example
//!
//! ```
//! use voltron_compiler::{compile, CompileOptions, Strategy};
//! use voltron_ir::builder::ProgramBuilder;
//! use voltron_sim::{Machine, MachineConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut pb = ProgramBuilder::new("demo");
//! let a = pb.data_mut().zeroed("a", 8 * 256);
//! let mut f = pb.function("main");
//! let base = f.ldi(a as i64);
//! f.counted_loop(0i64, 256i64, 1, |f, iv| {
//!     let off = f.shl(iv, 3i64);
//!     let ad = f.add(base, off);
//!     let v = f.mul(iv, iv);
//!     f.store8(ad, 0, v);
//! });
//! f.halt();
//! pb.finish_function(f);
//! let program = pb.finish();
//!
//! let cfg = MachineConfig::paper(4);
//! let compiled = compile(&program, Strategy::Hybrid, &cfg, &CompileOptions::default())?;
//! let outcome = Machine::new(compiled.machine, &cfg)?.run()?;
//! assert_eq!(outcome.memory.load_i64(a + 8 * 100)?, 100 * 100);
//! # Ok(())
//! # }
//! ```

pub mod alias;
pub mod codegen;
pub mod comm;
pub mod dfg;
pub mod doall;
pub mod error;
pub mod inline;
pub mod liveness;
pub mod partition;
pub mod plan;
pub mod sched;
pub mod unroll;

pub use codegen::Compiled;
pub use error::CompileError;
pub use plan::{Plan, PlanParams, Strategy};

use alias::AliasAnalysis;
use dfg::DepGraphs;
use liveness::Liveness;
use std::collections::HashSet;
use voltron_ir::cfg::{Cfg, Dominators};
use voltron_ir::interp::GOLDEN_FUEL;
use voltron_ir::loops::{LoopForest, LoopId};
use voltron_ir::{profile, Function, Program};
use voltron_sim::MachineConfig;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Planner settings.
    pub plan: PlanParams,
    /// Emission options (ablation hooks).
    pub emit: codegen::EmitOptions,
    /// Unroll hot non-DOALL counted loops before planning (None
    /// disables). Widens blocks so the coupled-mode scheduler has slack,
    /// standing in for Trimaran's unroll/trace formation (DESIGN.md).
    pub unroll: Option<unroll::UnrollParams>,
}

impl Default for CompileOptions {
    fn default() -> CompileOptions {
        CompileOptions {
            plan: PlanParams::default(),
            emit: codegen::EmitOptions::default(),
            unroll: Some(unroll::UnrollParams::default()),
        }
    }
}

/// The strategy-independent front half of [`compile`]: the inlined
/// (and possibly unrolled) program, its execution profile, and the
/// analyses of its one function that planning and emission read.
///
/// Profiling interprets the whole program, which dominates compile time,
/// yet its result is identical for every configuration sharing the same
/// [`FrontEnd::key`]. Harnesses that compile one program under many
/// strategy/core combinations (the figure drivers) build at most two
/// front ends per workload and feed them to [`compile_prepared`].
///
/// It also owns the region analyses no configuration can change — the
/// per-block and per-loop dependence graphs ([`DepGraphs`]) — built on
/// first use by whichever [`compile_prepared`] call needs one, from
/// whichever thread: harnesses and the serve engine share one
/// `Arc<FrontEnd>` between workers.
#[derive(Debug)]
pub struct FrontEnd {
    flat_program: Program,
    prof: profile::Profile,
    unrolled: bool,
    cfg: Cfg,
    forest: LoopForest,
    liveness: Liveness,
    alias: AliasAnalysis,
    graphs: DepGraphs,
}

// Shared between threads by reference; the lazily built graphs must not
// cost it that.
const _: fn() = || {
    fn shared<T: Send + Sync>() {}
    shared::<FrontEnd>();
};

/// The flow analyses of `f`.
fn analyze_flow(f: &Function) -> (Cfg, LoopForest, Liveness) {
    let cfg = Cfg::build(f);
    let dom = Dominators::compute(&cfg);
    let forest = LoopForest::build(&cfg, &dom);
    let liveness = Liveness::compute(f, &cfg);
    (cfg, forest, liveness)
}

impl FrontEnd {
    /// Run the front end for the given configuration: verify, inline,
    /// profile, and — when [`FrontEnd::key`] is true for it — unroll hot
    /// loops and re-profile.
    ///
    /// # Errors
    /// Fails on malformed input, recursion, or a failing profiling run.
    pub fn new(
        program: &Program,
        strategy: Strategy,
        mcfg: &MachineConfig,
        opts: &CompileOptions,
    ) -> Result<FrontEnd, CompileError> {
        voltron_ir::verify::verify_program(program)?;
        let mut flat_program = inline::inline_program(program)?;
        voltron_ir::verify::verify_program(&flat_program)?;
        // The oracle's budget: a program the golden run finishes never
        // runs out of fuel while it is profiled.
        let mut prof = profile::profile(&flat_program, GOLDEN_FUEL)?;
        let main_id = flat_program.main;
        let mut flow = analyze_flow(flat_program.main_func());

        // Unrolling (skipped for serial / single-core builds, and never
        // for loops the DOALL selector could claim — their canonical
        // shape must survive).
        let unrolled = FrontEnd::key(strategy, mcfg, opts);
        if unrolled {
            let uparams = opts.unroll.as_ref().expect("key implies unroll");
            let (cfg, forest, liveness) = &flow;
            let f = flat_program.main_func();
            let exclude: HashSet<_> = (0..forest.loops.len())
                .map(|li| LoopId(li as u32))
                .filter(|&lp| doall::detect(f, main_id, forest, lp, cfg, liveness, &prof).is_some())
                .map(|lp| forest.get(lp).header)
                .collect();
            let changed = unroll::unroll_hot_loops(
                flat_program.func_mut(main_id),
                main_id,
                &prof,
                &exclude,
                uparams,
            );
            if changed > 0 {
                voltron_ir::verify::verify_program(&flat_program)?;
                prof = profile::profile(&flat_program, GOLDEN_FUEL)?;
                flow = analyze_flow(flat_program.main_func());
            }
        }
        Ok(FrontEnd::assemble(flat_program, prof, unrolled, flow))
    }

    /// Analyze the final flat program and take ownership of it all.
    fn assemble(
        flat_program: Program,
        prof: profile::Profile,
        unrolled: bool,
        (cfg, forest, liveness): (Cfg, LoopForest, Liveness),
    ) -> FrontEnd {
        let alias = AliasAnalysis::analyze(&flat_program, flat_program.main_func());
        let graphs = DepGraphs::new(flat_program.main_func(), &forest);
        FrontEnd {
            flat_program,
            prof,
            unrolled,
            cfg,
            forest,
            liveness,
            alias,
            graphs,
        }
    }

    /// The analyses of an already flat program exactly as written — no
    /// verification, inlining or unrolling — for unit tests that name its
    /// blocks.
    #[cfg(test)]
    pub(crate) fn of_flat(p: &Program) -> FrontEnd {
        let prof = profile::profile(p, GOLDEN_FUEL).expect("profiling run");
        FrontEnd::assemble(p.clone(), prof, false, analyze_flow(p.main_func()))
    }

    /// Everything planning and emission read, borrowed from this front
    /// end.
    pub(crate) fn inputs(&self) -> plan::PlanInputs<'_> {
        plan::PlanInputs {
            f: self.flat_program.main_func(),
            func: self.flat_program.main,
            cfg: &self.cfg,
            forest: &self.forest,
            liveness: &self.liveness,
            profile: &self.prof,
            alias: &self.alias,
            graphs: &self.graphs,
        }
    }

    /// Whether the front end for this configuration includes the unroll
    /// pass. Configurations with equal keys (for the same program and
    /// options) share an identical front end and may reuse one
    /// [`FrontEnd`] across [`compile_prepared`] calls.
    pub fn key(strategy: Strategy, mcfg: &MachineConfig, opts: &CompileOptions) -> bool {
        opts.unroll.is_some() && mcfg.cores > 1 && strategy != Strategy::Serial
    }

    /// Whether this front end applied the unroll pass.
    pub fn unrolled(&self) -> bool {
        self.unrolled
    }
}

/// Compile `program` for the machine in `mcfg` using `strategy`.
///
/// # Errors
/// Fails on malformed input, recursion, a failing profiling run, or an
/// internal emission invariant violation.
pub fn compile(
    program: &Program,
    strategy: Strategy,
    mcfg: &MachineConfig,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let fe = FrontEnd::new(program, strategy, mcfg, opts)?;
    compile_prepared(&fe, strategy, mcfg, opts)
}

/// Plan and emit for one configuration from a prepared [`FrontEnd`].
///
/// The caller must pass a front end whose [`FrontEnd::key`] matches this
/// configuration; [`compile`] composes the two halves correctly and is
/// the right entry point unless the front end is being reused.
///
/// # Errors
/// Fails on an internal emission invariant violation.
pub fn compile_prepared(
    fe: &FrontEnd,
    strategy: Strategy,
    mcfg: &MachineConfig,
    opts: &CompileOptions,
) -> Result<Compiled, CompileError> {
    let flat_program = &fe.flat_program;
    let inputs = fe.inputs();
    let the_plan = plan::plan(&inputs, strategy, mcfg.cores, &opts.plan);
    codegen::emit(
        &inputs,
        &the_plan,
        mcfg,
        &flat_program.data,
        flat_program.name.clone(),
        &opts.emit,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::builder::ProgramBuilder;
    use voltron_ir::CmpCc;
    use voltron_sim::Machine;

    /// Compile-and-run under every strategy/core combination and check
    /// the machine's final memory equals the interpreter's.
    fn check_all(program: &Program, fuel: u64) {
        let golden = voltron_ir::interp::run(program, fuel).expect("golden run");
        for cores in [1usize, 2, 4] {
            for strategy in [
                Strategy::Serial,
                Strategy::Ilp,
                Strategy::FineGrainTlp,
                Strategy::Llp,
                Strategy::Hybrid,
            ] {
                let mcfg = MachineConfig::paper(cores);
                let compiled = compile(program, strategy, &mcfg, &CompileOptions::default())
                    .unwrap_or_else(|e| panic!("compile {strategy}/{cores}: {e}"));
                let out = Machine::new(compiled.machine, &mcfg)
                    .unwrap_or_else(|e| panic!("boot {strategy}/{cores}: {e}"))
                    .run()
                    .unwrap_or_else(|e| panic!("run {strategy}/{cores}: {e}"));
                assert!(
                    out.stragglers.is_empty(),
                    "{strategy}/{cores}: stragglers {:?}",
                    out.stragglers
                );
                if let Some(addr) = golden.memory.first_difference(&out.memory) {
                    panic!(
                        "{strategy}/{cores}: memory differs at {addr:#x}: golden {:?} vs machine {:?}",
                        golden.memory.load_i64(addr & !7),
                        out.memory.load_i64(addr & !7)
                    );
                }
            }
        }
    }

    #[test]
    fn straightline_arithmetic_all_strategies() {
        let mut pb = ProgramBuilder::new("straight");
        let out = pb.data_mut().zeroed("out", 64);
        let mut f = pb.function("main");
        let a = f.ldi(6);
        let b = f.ldi(7);
        let c = f.mul(a, b);
        let d = f.add(c, 100i64);
        let e = f.sub(d, 1i64);
        let base = f.ldi(out as i64);
        f.store8(base, 0, c);
        f.store8(base, 8, d);
        f.store8(base, 16, e);
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 1_000_000);
    }

    #[test]
    fn doall_loop_all_strategies() {
        let mut pb = ProgramBuilder::new("doall");
        let a = pb.data_mut().zeroed("a", 8 * 300);
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        let acc = f.ldi(0);
        f.counted_loop(0i64, 300i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.mul(iv, 3i64);
            f.store8(ad, 0, v);
            f.reduce_add(acc, v);
        });
        let ob = f.ldi(out as i64);
        f.store8(ob, 0, acc);
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 10_000_000);
    }

    #[test]
    fn branchy_code_all_strategies() {
        let mut pb = ProgramBuilder::new("branchy");
        let a = pb.data_mut().array_i64("a", &[5, -3, 8, -1, 9, 0, -7, 4]);
        let out = pb.data_mut().zeroed("out", 8);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        let acc = f.ldi(0);
        f.counted_loop(0i64, 8i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let ad = f.add(base, off);
            let v = f.load8(ad, 0);
            let p = f.cmp(CmpCc::Gt, v, 0i64);
            f.if_then_else(
                p,
                |f| {
                    let s = f.add(acc, v);
                    f.mov_to(acc, s);
                },
                |f| {
                    let s = f.sub(acc, v);
                    f.mov_to(acc, s);
                },
            );
        });
        let ob = f.ldi(out as i64);
        f.store8(ob, 0, acc);
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 1_000_000);
    }

    #[test]
    fn nested_loops_with_recurrence_all_strategies() {
        // The inner loop carries a memory recurrence so it must not be
        // DOALL; the outer structure exercises serial/ILP regions.
        let mut pb = ProgramBuilder::new("nest");
        let a = pb.data_mut().zeroed("a", 8 * 64);
        let mut f = pb.function("main");
        let base = f.ldi(a as i64);
        f.counted_loop(0i64, 4i64, 1, |f, _outer| {
            f.counted_loop(1i64, 64i64, 1, |f, iv| {
                let off = f.shl(iv, 3i64);
                let ad = f.add(base, off);
                let prev = f.load8(ad, -8);
                let v = f.add(prev, 1i64);
                f.store8(ad, 0, v);
            });
        });
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 10_000_000);
    }

    #[test]
    fn float_kernel_all_strategies() {
        let mut pb = ProgramBuilder::new("floats");
        let xs: Vec<f64> = (0..200).map(|i| i as f64 * 0.5).collect();
        let a = pb.data_mut().array_f64("a", &xs);
        let b = pb.data_mut().zeroed("b", 8 * 200);
        let mut f = pb.function("main");
        let ba = f.ldi(a as i64);
        let bb = f.ldi(b as i64);
        let scale = f.fldi(1.5);
        f.counted_loop(0i64, 200i64, 1, |f, iv| {
            let off = f.shl(iv, 3i64);
            let pa = f.add(ba, off);
            let v = f.fload(pa, 0);
            let w = f.fmul(v, scale);
            let x = f.fadd(w, w);
            let pb2 = f.add(bb, off);
            f.fstore(pb2, 0, x);
        });
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 10_000_000);
    }

    #[test]
    fn calls_are_inlined_end_to_end() {
        let mut pb = ProgramBuilder::new("calls");
        let out = pb.data_mut().zeroed("out", 8);
        let mut g = pb.function("square_plus");
        let x = g.param(voltron_ir::RegClass::Gpr);
        let y = g.param(voltron_ir::RegClass::Gpr);
        let sq = g.mul(x, x);
        let r = g.add(sq, y);
        g.ret_val(r);
        let gid = pb.finish_function(g);
        let mut f = pb.function("main");
        let acc = f.ldi(0);
        f.counted_loop(0i64, 20i64, 1, |f, iv| {
            let one = f.ldi(1);
            let v = f
                .call(gid, &[iv, one], Some(voltron_ir::RegClass::Gpr))
                .unwrap();
            let s = f.add(acc, v);
            f.mov_to(acc, s);
        });
        let ob = f.ldi(out as i64);
        f.store8(ob, 0, acc);
        f.halt();
        pb.finish_function(f);
        check_all(&pb.finish(), 1_000_000);
    }
}
