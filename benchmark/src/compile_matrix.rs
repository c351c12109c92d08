//! `compile_matrix`: compile, validate and boot — and never simulate.
//! The compiler and the image validation/build layers do all the work
//! and the tick loop none, so a compiler speed-up shows here (and is
//! predicted flat on `mesh_scale`), and work that a simulator
//! optimisation moves into image build shows here as a cost.

use crate::common::{timed_run, Args, PassOut, Tally, Timed};
use crate::spans::Recorder;
use crate::staged::{self, Config, Counts, Layers, RunMods};
use crate::stats::Fnv;
use crate::trace::{self, Traced};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use voltron_compiler::Strategy;
use voltron_core::report::Json;
use voltron_core::{outputs_equivalent, GOLDEN_FUEL};
use voltron_ir::interp;
use voltron_sim::{CoherenceBackend, Machine, MachineConfig, MachineProgram};
use voltron_workloads::{all, Scale, Workload};

/// Every parallel strategy at every supported core count: the paper's
/// bus up to four cores, the banked directory beyond, as the two sweep
/// workloads use them.
fn matrix() -> Vec<Config> {
    let mut configs = Vec::new();
    for s in [
        Strategy::Ilp,
        Strategy::FineGrainTlp,
        Strategy::Llp,
        Strategy::Hybrid,
    ] {
        for cores in [2, 4, 8, 16, 32, 64] {
            let backend = if cores <= 4 {
                CoherenceBackend::Snooping
            } else {
                CoherenceBackend::directory_for(cores)
            };
            configs.push((s, cores, backend));
        }
    }
    configs
}

/// A booted image kept for the after-timing correctness run.
type Kept = (usize, Config, Arc<MachineProgram>, MachineConfig);

/// One pass over programs × matrix on the calling thread. An operation
/// is one configuration compiled, validated and booted; its latency
/// excludes the program's (shared) front end, the pass's wall-clock does
/// not.
fn pass(
    ws: &[Workload],
    rec: &mut Recorder,
    tally: &mut Tally,
    op_ms: &mut Vec<f64>,
    kept: &mut Vec<Kept>,
) -> Counts {
    let mut counts = Counts::default();
    let configs = matrix();
    kept.clear();
    rec.span("pass", |rec| {
        for (wi, w) in ws.iter().enumerate() {
            rec.begin_op(|| format!("compile_matrix/{}", w.name));
            let (s0, c0, _) = configs[0];
            let fe = match staged::front_end(rec, &w.program, s0, c0, &mut counts) {
                Ok(fe) => fe,
                Err(e) => {
                    for _ in &configs {
                        tally.op(Err(format!("{}: {e}", w.name)));
                    }
                    continue;
                }
            };
            for &config in &configs {
                let (s, c, b) = config;
                rec.begin_op(|| format!("{}/{s}/{c}/{}", w.name, b.label()));
                let t0 = Instant::now();
                let booted = staged::stage_boot(rec, &fe, config, &RunMods::default(), &mut counts);
                op_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                tally.op(match booted {
                    Ok((machine, image, cfg)) => {
                        if c <= 4 {
                            kept.push((wi, config, Arc::clone(&image), cfg));
                        }
                        staged::drop_machine(rec, black_box(machine), image);
                        Ok(())
                    }
                    Err(e) => Err(format!("{}: {e}", w.name)),
                });
            }
        }
    });
    counts
}

fn digest(counts: &Counts) -> u64 {
    let mut h = Fnv::default();
    h.word(counts.front_end_builds);
    h.word(counts.compiles);
    h.word(counts.image_insts);
    for r in counts.regions {
        h.word(r);
    }
    h.0
}

/// Simulate every kept 2- and 4-core image once and compare its final
/// memory with the interpreter's: the images the matrix timed are real.
fn check_kept(ws: &[Workload], kept: &[Kept], tally: &mut Tally) {
    let mut golden: Vec<Option<voltron_ir::Memory>> = ws.iter().map(|_| None).collect();
    for (wi, (s, c, _), image, cfg) in kept {
        let w = &ws[*wi];
        let checked = (|| -> Result<(), String> {
            if golden[*wi].is_none() {
                let out = interp::run(&w.program, GOLDEN_FUEL).map_err(|e| e.to_string())?;
                golden[*wi] = Some(out.memory);
            }
            let out = Machine::new_shared(Arc::clone(image), cfg)
                .and_then(Machine::run)
                .map_err(|e| e.to_string())?;
            outputs_equivalent(golden[*wi].as_ref().expect("just set"), &out.memory)
                .map_err(|addr| format!("output mismatch at {addr:#x}"))
        })();
        tally.op(checked.map_err(|e| format!("{}/{s}/{c}: {e}", w.name)));
    }
}

pub fn run_timed(args: &Args) -> Timed {
    let mut off = Recorder::new(false, Instant::now());
    let (mut timed, (ws, kept)) = timed_run(
        args,
        |_| (all(Scale::Test), Vec::new()),
        |(ws, kept), tally| {
            let mut op_ms = Vec::new();
            let t0 = Instant::now();
            let counts = pass(ws, &mut off, tally, &mut op_ms, kept);
            let wall_s = t0.elapsed().as_secs_f64();
            PassOut {
                wall_s,
                op_ms,
                digest: digest(&counts),
                facts: vec![
                    ("configurations".into(), Json::UInt(counts.compiles)),
                    ("image_insts".into(), Json::UInt(counts.image_insts)),
                    (
                        "compiles_per_s".into(),
                        Json::Num(counts.compiles as f64 / wall_s),
                    ),
                ],
            }
        },
    );
    check_kept(&ws, &kept, &mut timed.tally);
    timed
}

pub fn run_traced(args: &Args) -> Traced {
    let mut t = Traced::new();
    let epoch = Instant::now();
    let mut rec = Recorder::new(true, epoch);
    let mut layers = Layers::new();
    let ws = trace::build_programs(&mut rec, Scale::Test, &mut layers);
    let mut kept = Vec::new();
    // Warm-up, as the untraced run's set-up does.
    pass(
        &ws,
        &mut Recorder::new(false, epoch),
        &mut t.tally,
        &mut Vec::new(),
        &mut kept,
    );
    let staged = trace::staged_passes(args, &mut t.tally, |record, tally| {
        let mut rec = Recorder::new(record, epoch);
        let counts = pass(&ws, &mut rec, tally, &mut Vec::new(), &mut kept);
        (counts, (), vec![rec])
    });
    check_kept(&ws, &kept, &mut t.tally);
    staged.emit(&mut layers);
    trace::emit_driver_spans(&rec, &mut layers);
    layers.insert(
        "compiler.compiles_per_s".into(),
        staged.counts.compiles as f64 / (staged.wall_ms_per_pass / 1e3),
    );
    t.layers = layers;
    t.recorders.push(("driver".into(), rec));
    t.recorders.extend(staged.recorders);
    t
}
