//! The paper's evaluation as data: every figure is one [`Figure`] value in
//! [`FIGURES`], rendered by one sweep ([`sweep`]) and one renderer
//! ([`render`]). `voltron figall` is the whole table and `voltron fig13`
//! one entry of it, so a single-figure run prints exactly its `figall`
//! section. The scaling sweep, the ablations and "Table 1" share the table
//! helper ([`value_table`]).
//!
//! The contract (DESIGN.md §4.1): a figure names the `(strategy, cores)`
//! *points* it reads; a sweep simulates the union of its figures' points
//! in [`SWEEP`] order through a single `Experiment::run_all_on`, so which
//! configuration leads a class of equal images — and every `shared_with`
//! label in the sidecar — depends on the figures selected only through
//! which points are present, never on their order.

use voltron_compiler::{compile, CompileOptions};
use voltron_core::report::{mean, pct, speedup, Table};
use voltron_core::{
    run_checked, run_reference, Config, ObsRequest, ProbeSummary, RunResult, StallCategory,
    Strategy, SystemError,
};
use voltron_ir::{Memory, Program};
use voltron_sim::{CoherenceBackend, Machine, MachineConfig};

use crate::harness::{run_workloads, HarnessArgs, Harvest};

/// One `(strategy, cores)` point of the evaluation sweep.
pub type Point = (Strategy, usize);

/// Every point any figure reads, in the order a sweep simulates them.
pub const SWEEP: [Point; 8] = [
    (Strategy::Ilp, 2),
    (Strategy::Ilp, 4),
    (Strategy::FineGrainTlp, 2),
    (Strategy::FineGrainTlp, 4),
    (Strategy::Llp, 2),
    (Strategy::Llp, 4),
    (Strategy::Hybrid, 2),
    (Strategy::Hybrid, 4),
];

/// One figure of the paper's evaluation.
pub struct Figure {
    /// Command name (`fig13`).
    pub id: &'static str,
    /// Section heading.
    pub heading: &'static str,
    /// The paper's numbers for comparison, printed under the table
    /// (empty: the paper gives none).
    pub paper: &'static str,
    /// The points it reads, in the order `values` receives their results.
    pub points: &'static [Point],
    /// Labels of the rows one workload contributes when it contributes
    /// more than one (they fill a `mode` column); empty for one row.
    pub modes: &'static [&'static str],
    /// Column headers after the label columns.
    pub columns: fn() -> Vec<&'static str>,
    /// One workload's rows, as numbers, from the cached results of
    /// `points` and the serial baseline's cycles.
    pub values: fn(&[&RunResult], u64) -> Vec<Vec<f64>>,
    /// Format one row of values (or of their column means) as cells.
    pub cells: fn(&[f64]) -> Vec<String>,
    /// Whether the table ends in an `average` row of column means.
    pub average: bool,
}

fn speedups(results: &[&RunResult], _baseline: u64) -> Vec<Vec<f64>> {
    vec![results.iter().map(|r| r.speedup).collect()]
}

fn speedup_cells(v: &[f64]) -> Vec<String> {
    v.iter().map(|&x| speedup(x)).collect()
}

const TECHNIQUES: fn() -> Vec<&'static str> = || vec!["ILP", "fine-grain TLP", "LLP"];

/// The six figures, in `figall` order.
pub const FIGURES: [Figure; 6] = [
    Figure {
        id: "fig03",
        heading: "Figure 3: parallelism breakdown (4 cores)",
        paper: "paper: 30% ILP / 32% fTLP / 31% LLP / 7% single core",
        points: &[(Strategy::Hybrid, 4)],
        modes: &[],
        columns: || vec!["ILP", "fine-grain TLP", "LLP", "single core"],
        values: |r, _| vec![r[0].parallelism_breakdown().to_vec()],
        cells: |v| v.iter().map(|&x| pct(x)).collect(),
        average: true,
    },
    Figure {
        id: "fig10",
        heading: "Figure 10: per-technique speedup (2 cores)",
        paper: "paper averages: 1.23 / 1.16 / 1.18",
        points: &[
            (Strategy::Ilp, 2),
            (Strategy::FineGrainTlp, 2),
            (Strategy::Llp, 2),
        ],
        modes: &[],
        columns: TECHNIQUES,
        values: speedups,
        cells: speedup_cells,
        average: true,
    },
    Figure {
        id: "fig11",
        heading: "Figure 11: per-technique speedup (4 cores)",
        paper: "paper averages: 1.33 / 1.23 / 1.37",
        points: &[
            (Strategy::Ilp, 4),
            (Strategy::FineGrainTlp, 4),
            (Strategy::Llp, 4),
        ],
        modes: &[],
        columns: TECHNIQUES,
        values: speedups,
        cells: speedup_cells,
        average: true,
    },
    Figure {
        id: "fig12",
        heading: "Figure 12: stall breakdown / serial cycles (4 cores)",
        paper: "",
        points: &[(Strategy::Ilp, 4), (Strategy::FineGrainTlp, 4)],
        modes: &["coupled", "decoupled"],
        columns: || StallCategory::ALL.iter().map(|c| c.label()).collect(),
        values: |results, baseline| {
            let row = |r: &&RunResult| StallCategory::ALL.map(|c| r.normalized_stall(c, baseline));
            results.iter().map(|r| row(r).to_vec()).collect()
        },
        cells: |v| v.iter().map(|x| format!("{x:.3}")).collect(),
        average: false,
    },
    Figure {
        id: "fig13",
        heading: "Figure 13: hybrid speedup",
        paper: "paper averages: 1.46 (2 cores) / 1.83 (4 cores)",
        points: &[(Strategy::Hybrid, 2), (Strategy::Hybrid, 4)],
        modes: &[],
        columns: || vec!["2 cores", "4 cores"],
        values: speedups,
        cells: speedup_cells,
        average: true,
    },
    Figure {
        id: "fig14",
        heading: "Figure 14: mode residency (4-core hybrid)",
        paper: "",
        points: &[(Strategy::Hybrid, 4)],
        modes: &[],
        columns: || vec!["coupled", "decoupled"],
        values: |r, _| vec![vec![r[0].coupled_fraction()]],
        cells: |v| vec![pct(v[0]), pct(1.0 - v[0])],
        average: true,
    },
];

/// The figures a command name selects: all six for `figall`, else the one
/// with that id.
pub fn select(command: &str) -> Vec<&'static Figure> {
    FIGURES
        .iter()
        .filter(|f| command == "figall" || f.id == command)
        .collect()
}

/// What one workload contributes to a sweep.
#[derive(Debug)]
pub struct Swept {
    /// Per selected figure, the values of the rows it contributes.
    pub values: Vec<Vec<Vec<f64>>>,
    /// Probe summary of the observed 4-core hybrid run, with
    /// `--probes-out` (it lands in the sidecar).
    pub probes: Option<ProbeSummary>,
}

/// Simulate what `figs` read — the union of their points, in [`SWEEP`]
/// order, on `args.backend` sized per point — for every selected workload,
/// and collect each figure's rows from the cached results. With
/// `--trace-out` / `--probes-out` the 4-core hybrid is then re-run
/// instrumented and its artifacts written under `command`'s name; figure
/// stdout is untouched by that.
pub fn sweep(command: &str, figs: &[&Figure], args: &HarnessArgs) -> Harvest<Swept> {
    let sized = |&(s, c): &Point| (s, c, args.backend.sized_for(c));
    let points: Vec<Config> = SWEEP
        .iter()
        .filter(|p| figs.iter().any(|f| f.points.contains(p)))
        .map(sized)
        .collect();
    let mut harvest = run_workloads(args, |w, exp| {
        exp.run_all_on(&points)?;
        let cached = exp.results();
        let result_of = |p: &Point| {
            let (s, c, b) = sized(p);
            let found = cached
                .iter()
                .find(|r| (r.strategy, r.cores, r.backend) == (s, c, b));
            &**found.expect("the sweep ran every point its figures read")
        };
        let values = figs
            .iter()
            .map(|f| {
                let results: Vec<&RunResult> = f.points.iter().map(result_of).collect();
                (f.values)(&results, exp.baseline_cycles())
            })
            .collect();
        let probes = args.observe(command, w.name, exp, sized(&(Strategy::Hybrid, 4)))?;
        Ok(Swept { values, probes })
    });
    // Surviving results and summaries are aligned (both in workload
    // order, failures excluded from each).
    for (summary, (_, swept)) in harvest.summaries.iter_mut().zip(&harvest.results) {
        summary.probes = swept.probes.clone();
    }
    harvest
}

/// Render `figs`' sections from the sweep that ran them, then the failed
/// workloads — a section only a failure produces, so clean sweeps stay
/// byte-identical to a harness without fault isolation.
pub fn render(figs: &[&Figure], harvest: &Harvest<Swept>) -> String {
    let mut out = String::new();
    for (i, f) in figs.iter().enumerate() {
        let lead: &[&str] = if f.modes.is_empty() {
            &["benchmark"]
        } else {
            &["benchmark", "mode"]
        };
        let mut rows = Vec::new();
        for (w, swept) in &harvest.results {
            for (k, vals) in swept.values[i].iter().enumerate() {
                let name = if k == 0 { w.name } else { "" };
                let labels = std::iter::once(name).chain(f.modes.get(k).copied());
                rows.push((labels.map(String::from).collect(), vals.clone()));
            }
        }
        let table = value_table(lead, &(f.columns)(), &rows, f.cells, f.average);
        out.push_str(&format!("== {} ==\n{table}\n", f.heading));
        if !f.paper.is_empty() {
            out.push_str(&format!("{}\n\n", f.paper));
        }
    }
    out.push_str(&harvest.failure_section());
    out
}

/// A table of numbers: `lead` label columns, then one column per entry
/// of `columns`; each row's values formatted by `cells`; when `average`,
/// a last row of the column means formatted the same way.
pub fn value_table(
    lead: &[&str],
    columns: &[&str],
    rows: &[(Vec<String>, Vec<f64>)],
    cells: impl Fn(&[f64]) -> Vec<String>,
    average: bool,
) -> String {
    let headers: Vec<&str> = lead.iter().chain(columns).copied().collect();
    let mut table = Table::new(&headers);
    for (labels, vals) in rows {
        table.row(labels.iter().cloned().chain(cells(vals)).collect());
    }
    if let (true, Some((_, first))) = (average, rows.first()) {
        let means: Vec<f64> = (0..first.len())
            .map(|i| mean(&rows.iter().map(|r| r.1[i]).collect::<Vec<f64>>()))
            .collect();
        let mut avg = vec![String::new(); lead.len()];
        avg[0] = "average".into();
        table.row(avg.into_iter().chain(cells(&means)).collect());
    }
    table.render()
}

/// Core counts the scaling sweep visits (power-of-two meshes up to 8x8).
const SCALING_CORES: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Core-count scaling beyond the paper's machines: speedup at 1→64 cores
/// for every strategy on both coherence backends, one table per
/// (strategy, backend). The 2- and 4-core snooping points are Fig. 13's;
/// the larger meshes (`MachineConfig::scaled`) and the banked directory
/// (`CoherenceBackend::directory_for`) are this repo's extension.
pub fn scaling(args: &HarnessArgs) -> (String, Harvest<Vec<f64>>) {
    // Backend families; each point sizes its own (`sized_for`).
    let families = [
        CoherenceBackend::Snooping,
        CoherenceBackend::directory_for(1),
    ];
    // Strategy-major, then cores, then the two backends; the tables below
    // recover the flat index from that order.
    let strategies = &Strategy::ALL[1..];
    let configs: Vec<Config> = strategies
        .iter()
        .flat_map(|&s| {
            SCALING_CORES
                .iter()
                .flat_map(move |&c| families.map(|b| (s, c, b.sized_for(c))))
        })
        .collect();
    let harvest: Harvest<Vec<f64>> = run_workloads(args, |_, exp| {
        exp.run_all_on(&configs)?;
        configs
            .iter()
            .map(|&(s, c, b)| Ok(exp.run_on(s, c, b)?.speedup))
            .collect()
    });
    let columns: Vec<String> = SCALING_CORES.iter().map(|c| c.to_string()).collect();
    let columns: Vec<&str> = columns.iter().map(String::as_str).collect();
    let mut out = String::from("Speedup vs core count, 1-64 cores (baseline = 1-core serial)\n");
    for (si, strat) in strategies.iter().enumerate() {
        for (bi, family) in families.iter().enumerate() {
            let rows: Vec<(Vec<String>, Vec<f64>)> = harvest
                .results
                .iter()
                .map(|(w, vals)| {
                    let at = |ci| vals[(si * SCALING_CORES.len() + ci) * families.len() + bi];
                    let row = (0..SCALING_CORES.len()).map(at).collect();
                    (vec![w.name.to_string()], row)
                })
                .collect();
            out.push_str(&format!("\n== {strat:?} / {} ==\n", family.label()));
            let table = value_table(&["benchmark"], &columns, &rows, speedup_cells, true);
            out.push_str(&table);
        }
    }
    out.push_str(
        "\npaper: 2- and 4-core points reproduce Fig. 13; larger meshes are this repo's extension\n",
    );
    let fails = harvest.failure_section();
    if !fails.is_empty() {
        out.push_str(&format!("\n{fails}\n"));
    }
    (out, harvest)
}

/// One knob of an ablation: what it changes on the 4-core paper machine
/// and the default compile options before the build.
pub type Tweak = fn(&mut MachineConfig, &mut CompileOptions);

/// One ablation: a strategy built once per variant, each variant a
/// labelled [`Tweak`].
pub struct Ablation {
    /// Command name.
    pub id: &'static str,
    /// Title line.
    pub title: &'static str,
    /// The strategy every variant is built with.
    pub strategy: Strategy,
    /// Column label and tweak of each variant.
    pub variants: &'static [(&'static str, Tweak)],
    /// Closing remark (may be empty).
    pub note: &'static str,
}

/// The three ablations (DESIGN.md §4).
pub const ABLATIONS: [Ablation; 3] = [
    // The distributed-branch condition mechanism: broadcast (Fig. 5(b))
    // vs replicated condition computation (Fig. 5(c); the default
    // heuristic replicates induction-fed compares).
    Ablation {
        id: "ablate_branch",
        title: "Ablation: hybrid speedup with branch-condition broadcast vs replication, 4 cores",
        strategy: Strategy::Hybrid,
        variants: &[
            ("broadcast only", |_, o| {
                o.emit.condition_replication = false
            }),
            ("replicated conditions", |_, o| {
                o.emit.condition_replication = true
            }),
        ],
        note: "",
    },
    // eBUG's miss/memory edge weights and memory balancing vs a plain
    // BUG objective for decoupled strand extraction (§4.1).
    Ablation {
        id: "ablate_ebug",
        title: "Ablation: strand extraction with plain BUG vs eBUG weights, 4 cores",
        strategy: Strategy::FineGrainTlp,
        variants: &[
            ("plain BUG", |_, o| o.plan.ebug_strands = false),
            ("eBUG", |_, o| o.plan.ebug_strands = true),
        ],
        note: "",
    },
    // Sensitivity of coupled-mode ILP to operand-network latency: raise
    // the direct network's per-hop latency toward queue-mode cost (cf.
    // §3.1's latency/flexibility trade-off).
    Ablation {
        id: "ablate_network",
        title: "Ablation: coupled-mode (ILP) speedup vs direct-network hop latency, 4 cores",
        strategy: Strategy::Ilp,
        variants: &[
            ("1 cyc/hop", |c, _| c.hop_latency = 1),
            ("2 cyc/hop", |c, _| c.hop_latency = 2),
            ("3 cyc/hop", |c, _| c.hop_latency = 3),
            ("4 cyc/hop", |c, _| c.hop_latency = 4),
        ],
        note:
            "1 cyc/hop is the dual-mode direct network; 3-4 approximates queue-mode-only hardware\n",
    },
];

/// Compile `program` from scratch for `cfg` under `opts`, run it, hold
/// its memory to `golden`, and return its cycle count.
fn build_and_run(
    program: &Program,
    golden: &Memory,
    strategy: Strategy,
    cfg: &MachineConfig,
    opts: &CompileOptions,
) -> Result<u64, SystemError> {
    let compiled = compile(program, strategy, cfg, opts)?;
    let mut machine = Machine::new(compiled.machine, cfg)?;
    let config = (strategy, cfg.cores, cfg.coherence);
    Ok(
        run_checked(&mut machine, config, golden, &ObsRequest::default())?
            .stats
            .cycles,
    )
}

/// Run one ablation over the selected workloads: per workload the golden
/// model and the serial 1-core baseline once, then one build per variant.
/// A workload that fails anywhere is reported on stderr and left out.
pub fn ablation(a: &Ablation, args: &HarnessArgs) -> String {
    let mut rows = Vec::new();
    for w in args.workloads() {
        let row = (|| {
            let golden = run_reference(&w.program)?.memory;
            let opts = CompileOptions::default();
            let serial = MachineConfig::paper(1);
            let base = build_and_run(&w.program, &golden, Strategy::Serial, &serial, &opts)?;
            let mut speedups = Vec::new();
            for (_, tweak) in a.variants {
                let (mut cfg, mut opts) = (MachineConfig::paper(4), CompileOptions::default());
                tweak(&mut cfg, &mut opts);
                let cycles = build_and_run(&w.program, &golden, a.strategy, &cfg, &opts)?;
                speedups.push(base as f64 / cycles.max(1) as f64);
            }
            Ok::<_, SystemError>(speedups)
        })();
        match row {
            Ok(speedups) => rows.push((vec![w.name.to_string()], speedups)),
            Err(e) => eprintln!("{}: {e}", w.name),
        }
    }
    let columns: Vec<&str> = a.variants.iter().map(|v| v.0).collect();
    let table = value_table(&["benchmark"], &columns, &rows, speedup_cells, true);
    format!("{}\n{table}\n{}", a.title, a.note)
}

/// "Table 1": the experimental setup of §5.1, as configured in
/// `MachineConfig::paper`. The paper presents this in prose; printing it
/// makes the simulated machine auditable against the text.
pub fn table1() -> String {
    let c = MachineConfig::paper(4);
    let cache = |size: u64, assoc: usize| format!("{size} B, {assoc}-way");
    let cycles = |n: u64| format!("{n} cycles");
    let direct = if c.direct_network { "" } else { " (DISABLED)" };
    let direct = format!("{} cycle/hop{direct}", c.hop_latency);
    let queue = format!("{} + hops cycles", c.queue_overhead);
    let commit = format!(
        "{} + {}/line cycles",
        c.tm_commit_base, c.tm_commit_per_line
    );
    let store_buffer = format!("{} entries", c.store_buffer_entries);
    let rows: [(&str, String, &str); 16] = [
        (
            "cores",
            format!("{} (2x2 mesh)", c.cores),
            "1/2/4 single-issue VLIW",
        ),
        ("issue width", "1".into(), "single-issue"),
        ("L1 I-cache", cache(c.l1i_size, c.l1i_assoc), "4 kB 2-way"),
        ("L1 D-cache", cache(c.l1d_size, c.l1d_assoc), "4 kB 2-way"),
        ("shared L2", cache(c.l2_size, c.l2_assoc), "128 kB 4-way"),
        (
            "line size",
            format!("{} B", c.line_size),
            "(not stated; 32 B)",
        ),
        (
            "coherence",
            "MOESI snooping bus".into(),
            "MOESI bus-based snooping",
        ),
        ("direct network", direct, "1 cycle per hop"),
        ("queue network", queue, "2 cycles + 1 per hop"),
        (
            "send/recv queue depth",
            c.queue_depth.to_string(),
            "(not stated; 16)",
        ),
        (
            "L1 hit latency",
            cycles(u64::from(c.l1_hit_latency)),
            "Itanium latencies",
        ),
        ("L2 latency", cycles(c.l2_latency), "(not stated)"),
        ("memory latency", cycles(c.mem_latency), "(not stated)"),
        ("cache-to-cache", cycles(c.c2c_latency), "(not stated)"),
        ("store buffer", store_buffer, "(not stated)"),
        ("TM commit cost", commit, "low-cost TM [7,14]"),
    ];
    let mut t = Table::new(&["parameter", "value", "paper §5.1"]);
    for (parameter, value, paper) in rows {
        t.row(vec![parameter.into(), value, paper.into()]);
    }
    format!(
        "Table 1: simulated machine configuration (MachineConfig::paper)\n{}\n",
        t.render()
    )
}
