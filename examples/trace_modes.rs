//! Watch the machine switch between execution modes: compile the ADPCM
//! decoder (a coupled-ILP benchmark) and print the structural trace —
//! thread spawns, mode switches, commits, halts — through a small
//! `Tracer` of our own.
//!
//! Run with: `cargo run --release --example trace_modes`

use voltron::compiler::{compile, CompileOptions, Strategy};
use voltron::sim::trace::{TraceEvent, Tracer};
use voltron::sim::{Machine, MachineConfig};
use voltron::workloads::{by_name, Scale};

/// Lines kept before the rest are only counted.
const LIMIT: usize = 64;

/// Renders the structural events as text lines, at most [`LIMIT`] of them.
#[derive(Default)]
struct StructuralTrace {
    lines: Vec<String>,
    suppressed: u64,
}

impl Tracer for StructuralTrace {
    fn wants_issues(&self) -> bool {
        false
    }

    fn event(&mut self, e: TraceEvent<'_>) {
        let line = match e {
            TraceEvent::ThreadStart { cycle, core, block } => {
                format!("[{cycle:>8}] core{core} SPAWNED at bb{block}")
            }
            TraceEvent::BarrierWait { cycle, core, mode } => {
                format!("[{cycle:>8}] core{core} AT BARRIER (-> {mode})")
            }
            TraceEvent::ModeSwitch { cycle, mode } => format!("[{cycle:>8}] MODE -> {mode}"),
            TraceEvent::TmBegin { cycle, core, order } => {
                format!("[{cycle:>8}] core{core} XBEGIN (order {order})")
            }
            TraceEvent::TmCommit { cycle, core, lines } => {
                format!("[{cycle:>8}] core{core} XCOMMIT ({lines} lines)")
            }
            TraceEvent::TmAbort { cycle, core } => {
                format!("[{cycle:>8}] core{core} ABORTED (replaying chunk)")
            }
            TraceEvent::Halt { cycle, core } => format!("[{cycle:>8}] core{core} HALT"),
            _ => return,
        };
        if self.lines.len() < LIMIT {
            self.lines.push(line);
        } else {
            self.suppressed += 1;
        }
    }

    fn render(&mut self) -> String {
        let mut text: String = self.lines.iter().map(|l| format!("{l}\n")).collect();
        if self.suppressed > 0 {
            text += &format!("... {} events suppressed\n", self.suppressed);
        }
        text
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = by_name("g721decode", Scale::Test).expect("registered");
    let cfg = MachineConfig::paper(4);
    let compiled = compile(
        &w.program,
        Strategy::Hybrid,
        &cfg,
        &CompileOptions::default(),
    )?;
    let mut machine = Machine::new(compiled.machine, &cfg)?;
    machine.set_tracer(Box::new(StructuralTrace::default()));
    let outcome = machine.run()?;
    println!("{}", outcome.trace);
    println!("--\n{}", outcome.stats.summary());
    Ok(())
}
