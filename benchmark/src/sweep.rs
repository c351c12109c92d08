//! `fig_sweep` and `mesh_scale`: the figure sweep exactly as `figall`
//! drives it — `run_workloads_on` fanning the 25 programs across host
//! threads, `Experiment::run_all_on` fanning each program's
//! configurations — at two very different machine shapes.

use crate::common::{timed_run, Args, PassOut, Tally, Timed};
use crate::spans::Recorder;
use crate::staged::{self, Config, Counts, Layers, RunMods};
use crate::stats::Fnv;
use crate::trace::{self, CycleMap, Traced};
use std::hint::black_box;
use std::time::Instant;
use voltron_bench::harness::{bench_json, run_workloads_on, Harvest};
use voltron_compiler::Strategy;
use voltron_core::report::Json;
use voltron_core::Experiment;
use voltron_sim::CoherenceBackend;
use voltron_workloads::{all, Scale, Workload};

/// The paper's Fig. 13 averages (EXPERIMENTS.md): hybrid speedup at 2
/// and 4 cores. Reference values for the relative-error metrics only —
/// nothing is gated on them.
const PAPER_FIG13: [(usize, f64); 2] = [(2, 1.46), (4, 1.83)];

/// Which programs at which configurations.
pub struct SweepSpec {
    pub name: &'static str,
    pub scale: Scale,
    pub configs: Vec<Config>,
}

impl SweepSpec {
    /// `figall`'s eight configurations at full scale on the paper's bus.
    pub fn fig_sweep() -> SweepSpec {
        let mut configs = Vec::new();
        for s in [
            Strategy::Ilp,
            Strategy::FineGrainTlp,
            Strategy::Llp,
            Strategy::Hybrid,
        ] {
            for cores in [2, 4] {
                configs.push((s, cores, CoherenceBackend::Snooping));
            }
        }
        SweepSpec {
            name: "fig_sweep",
            scale: Scale::Full,
            configs,
        }
    }

    /// The scaled meshes on the banked directory, at test scale.
    pub fn mesh_scale() -> SweepSpec {
        let mut configs = Vec::new();
        for s in [Strategy::Llp, Strategy::Hybrid] {
            for cores in [8, 16, 32, 64] {
                configs.push((s, cores, CoherenceBackend::directory_for(cores)));
            }
        }
        SweepSpec {
            name: "mesh_scale",
            scale: Scale::Test,
            configs,
        }
    }
}

/// One threaded pass, as a user regenerating the figures runs it:
/// sweep, then render the sidecar document. Returns the harvest, the
/// pass's wall-clock in seconds, and the rendered document's size.
fn threaded_pass(
    spec: &SweepSpec,
    ws: Vec<Workload>,
    rec: &mut Recorder,
) -> (Harvest<()>, f64, usize) {
    let t0 = Instant::now();
    let harvest = run_workloads_on(ws, None, |_, exp| exp.run_all_on(&spec.configs));
    let doc = rec.span("bench.report.json_render", |_| {
        bench_json(
            spec.name,
            "bench",
            harvest.simulated_cycles,
            harvest.ticked_cycles,
            harvest.host_seconds,
            &harvest.summaries,
            &harvest.failures,
            None,
        )
        .render()
    });
    let bytes = black_box(doc).len();
    (harvest, t0.elapsed().as_secs_f64(), bytes)
}

/// Mean hybrid speedup over the programs at `cores`, if the sweep has
/// that configuration.
fn hybrid_avg(harvest: &Harvest<()>, cores: usize) -> Option<f64> {
    let xs: Vec<f64> = harvest
        .summaries
        .iter()
        .filter_map(|s| {
            s.runs
                .iter()
                .find(|r| r.strategy == "hybrid" && r.cores == cores)
                .map(|r| r.speedup)
        })
        .collect();
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Hash of every deterministic field of a harvest.
fn digest(harvest: &Harvest<()>) -> u64 {
    let mut h = Fnv::default();
    h.word(harvest.failures.len() as u64);
    for s in &harvest.summaries {
        h.bytes(s.name.as_bytes());
        h.word(s.baseline_cycles);
        h.word(s.simulated_cycles);
        h.word(s.ticked_cycles);
        for r in &s.runs {
            h.bytes(r.strategy.as_bytes());
            h.word(r.cores as u64);
            h.bytes(r.backend.as_bytes());
            h.word(r.cycles);
            h.word(r.speedup.to_bits());
        }
    }
    h.0
}

/// Count a harvest's operations (one per program) and take the programs
/// back for the next pass.
fn settle(spec: &SweepSpec, harvest: Harvest<()>, tally: &mut Tally) -> Vec<Workload> {
    tally.ok(harvest.results.len() as u64);
    for f in &harvest.failures {
        tally.op(Err(format!("{}: {}", f.name, f.reason)));
    }
    for f in &harvest.flaky {
        tally.fail_only(format!("{}: flaky ({})", f.name, f.first_error));
    }
    if harvest.failures.is_empty() {
        harvest.results.into_iter().map(|(w, ())| w).collect()
    } else {
        // A failed program is dropped from the harvest; rebuild the list
        // so every pass attempts all of them.
        all(spec.scale)
    }
}

pub fn run_timed(spec: &SweepSpec, args: &Args) -> Timed {
    let mut off = Recorder::new(false, Instant::now());
    timed_run(
        args,
        |_| all(spec.scale),
        |ws, tally| {
            let (harvest, wall_s, _) = threaded_pass(spec, std::mem::take(ws), &mut off);
            let mut facts = vec![
                ("sim_cycles".into(), Json::UInt(harvest.simulated_cycles)),
                (
                    "sim_mcycles_per_host_s".into(),
                    Json::Num(harvest.simulated_cycles as f64 / 1e6 / wall_s),
                ),
            ];
            for (cores, paper) in PAPER_FIG13 {
                if let Some(avg) = hybrid_avg(&harvest, cores) {
                    facts.push((format!("hybrid{cores}_speedup_avg"), Json::Num(avg)));
                    facts.push((
                        format!("hybrid{cores}_rel_err_vs_paper_{paper}"),
                        Json::Num(((avg - paper) / paper).abs()),
                    ));
                }
            }
            let out = PassOut {
                wall_s,
                op_ms: harvest
                    .summaries
                    .iter()
                    .map(|s| s.host_seconds * 1e3)
                    .collect(),
                digest: digest(&harvest),
                facts,
            };
            *ws = settle(spec, harvest, tally);
            out
        },
    )
    .0
}

fn run_key(program: &str, strategy: &str, cores: usize, backend: &str) -> String {
    format!("{program}/{strategy}/{cores}/{backend}")
}

/// One staged, single-thread pass over every program.
fn staged_pass(
    spec: &SweepSpec,
    ws: &[Workload],
    mut rec: Recorder,
    tally: &mut Tally,
) -> (Counts, CycleMap, Vec<Recorder>) {
    let mut counts = Counts::default();
    let mut cycles = CycleMap::new();
    rec.span("pass", |rec| {
        for w in ws {
            rec.begin_op(|| format!("{}/{}", spec.name, w.name));
            let staged = (|| -> Result<(), String> {
                let (golden, base) = staged::stage_experiment_new(rec, &w.program, &mut counts)?;
                cycles.insert(format!("{}/baseline", w.name), base);
                // Every configuration here is multi-core and non-serial,
                // so they share the one unrolled front end.
                let (s0, c0, _) = spec.configs[0];
                let fe = staged::front_end(rec, &w.program, s0, c0, &mut counts)?;
                for &config in &spec.configs {
                    let (s, c, b) = config;
                    let key = run_key(w.name, &s.to_string(), c, b.label());
                    rec.begin_op(|| key.clone());
                    let run = staged::stage_run(
                        rec,
                        &fe,
                        &golden,
                        config,
                        &RunMods::default(),
                        &mut counts,
                    )?;
                    cycles.insert(key, run);
                }
                Ok(())
            })();
            tally.op(staged);
        }
    });
    (counts, cycles, vec![rec])
}

/// The same programs through the real `Experiment`, one at a time on
/// the driver thread: sizes `Experiment::new` and `run_all_on` as a
/// caller sees them, and yields the cycles the staged replay must match.
fn direct_pass(
    spec: &SweepSpec,
    ws: &[Workload],
    rec: &mut Recorder,
    tally: &mut Tally,
) -> CycleMap {
    let mut cycles = CycleMap::new();
    for w in ws {
        rec.begin_op(|| format!("{}/{}/direct", spec.name, w.name));
        let direct = (|| -> Result<(), String> {
            let mut exp = rec
                .span("core.experiment_new", |_| Experiment::new(&w.program))
                .map_err(|e| e.to_string())?;
            rec.span("core.run_all", |_| exp.run_all_on(&spec.configs))
                .map_err(|e| e.to_string())?;
            cycles.insert(format!("{}/baseline", w.name), exp.baseline_cycles());
            for r in exp.results() {
                cycles.insert(
                    run_key(w.name, &r.strategy.to_string(), r.cores, r.backend.label()),
                    r.cycles,
                );
            }
            Ok(())
        })();
        tally.op(direct.map_err(|e| format!("{}: {e}", w.name)));
    }
    cycles
}

pub fn run_traced(spec: &SweepSpec, args: &Args) -> Traced {
    let mut t = Traced::new();
    let epoch = Instant::now();
    let mut rec = Recorder::new(true, epoch);
    let mut layers = Layers::new();

    let ws = trace::build_programs(&mut rec, spec.scale, &mut layers);
    // Warm-up, then the threaded reference: the first pass fills lazy
    // state, the second is the wall-clock the staged total is divided by.
    let (harvest, _, _) = threaded_pass(spec, ws, &mut Recorder::new(false, epoch));
    let ws = settle(spec, harvest, &mut t.tally);
    let (harvest, threaded_s, json_bytes) = threaded_pass(spec, ws, &mut rec);
    let hybrid = PAPER_FIG13.map(|(cores, _)| hybrid_avg(&harvest, cores));
    let ws = settle(spec, harvest, &mut t.tally);

    let staged = trace::staged_passes(args, &mut t.tally, |record, tally| {
        staged_pass(spec, &ws, Recorder::new(record, epoch), tally)
    });
    let direct = direct_pass(spec, &ws, &mut rec, &mut t.tally);
    trace::compare_cycles(&staged.extras[0], &direct, &mut t.tally);
    let ff_config = *spec.configs.last().expect("a sweep has configurations");
    trace::ff_probe(&ws, ff_config, &mut layers, &mut t.tally);

    staged.emit(&mut layers);
    trace::emit_driver_spans(&rec, &mut layers);
    layers.insert("bench.report.json_bytes".into(), json_bytes as f64);
    layers.insert(
        "core.host_parallelism".into(),
        staged.wall_ms_per_pass / 1e3 / threaded_s,
    );
    layers.insert(
        "core.sim_mcycles_per_host_s".into(),
        staged.counts.sim.cycles as f64 / 1e6 / threaded_s,
    );
    for ((cores, paper), avg) in PAPER_FIG13.into_iter().zip(hybrid) {
        if let Some(avg) = avg {
            layers.insert(format!("core.hybrid{cores}_speedup_avg"), avg);
            layers.insert(
                format!("core.paper_fig13_{cores}c_rel_err"),
                ((avg - paper) / paper).abs(),
            );
        }
    }
    t.layers = layers;
    t.recorders.push(("driver".into(), rec));
    t.recorders.extend(staged.recorders);
    t
}
