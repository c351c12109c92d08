//! Execution tracing.
//!
//! A [`Tracer`] installed on a [`crate::Machine`] receives the
//! architecturally interesting events — instruction issues, thread
//! spawns, mode switches, transactional commits/aborts — as they happen.
//! This is the debugging lens for compiler work: a deadlock dump tells
//! you where the machine wedged; a trace tells you how it got there.
//!
//! Events borrow from the machine program (the block name and the issued
//! instruction) so emitting them costs nothing on the simulation hot
//! path; a tracer that wants to keep an event must render or copy what
//! it needs inside [`Tracer::event`].

use crate::fault::FaultSite;
use crate::stats::StallReason;
use std::fmt::Write as _;
use voltron_ir::{ExecMode, Inst};

/// One trace event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent<'a> {
    /// A core issued an instruction.
    Issue {
        /// Cycle of issue.
        cycle: u64,
        /// Issuing core.
        core: usize,
        /// Machine block name.
        block: &'a str,
        /// The issued instruction.
        inst: &'a Inst,
    },
    /// An idle core picked up a spawned thread.
    ThreadStart {
        /// Cycle.
        cycle: u64,
        /// The core that woke.
        core: usize,
        /// Target block index in its image.
        block: usize,
    },
    /// The group switched execution mode.
    ModeSwitch {
        /// Cycle.
        cycle: u64,
        /// The new mode.
        mode: ExecMode,
    },
    /// A transaction committed.
    TmCommit {
        /// Cycle.
        cycle: u64,
        /// Committing core.
        core: usize,
        /// Lines broadcast.
        lines: usize,
    },
    /// A transaction was aborted (and will re-execute).
    TmAbort {
        /// Cycle.
        cycle: u64,
        /// Rolled-back core.
        core: usize,
    },
    /// A core halted.
    Halt {
        /// Cycle.
        cycle: u64,
        /// The core.
        core: usize,
    },
    /// A core entered a stall phase (span start; closed by the matching
    /// [`TraceEvent::StallEnd`], or by end of run for still-open spans).
    /// Emitted only on transitions, so a 10 000-cycle receive wait is two
    /// events, and fast-forwarded spans need no events at all.
    StallBegin {
        /// First stalled cycle.
        cycle: u64,
        /// The stalled core.
        core: usize,
        /// Why — the same classification `CoreStats::stalls` accumulates.
        reason: StallReason,
    },
    /// A core left its stall phase (span end, exclusive).
    StallEnd {
        /// First non-stalled cycle.
        cycle: u64,
        /// The core.
        core: usize,
    },
    /// The master core entered a planner region (span start).
    /// `crate::REGION_OUTSIDE` marks inter-region glue.
    RegionEnter {
        /// First cycle attributed to the region.
        cycle: u64,
        /// Region id.
        region: u32,
    },
    /// The master core left a planner region (span end, exclusive).
    RegionExit {
        /// First cycle no longer attributed to the region.
        cycle: u64,
        /// Region id.
        region: u32,
    },
    /// A transaction began (span start; closed by
    /// [`TraceEvent::TmCommit`] or [`TraceEvent::TmAbort`]).
    TmBegin {
        /// Cycle.
        cycle: u64,
        /// The core.
        core: usize,
        /// Commit-order rank of the chunk.
        order: u32,
    },
    /// A core arrived at the mode-switch barrier; the barrier releases at
    /// the next [`TraceEvent::ModeSwitch`].
    BarrierWait {
        /// Arrival cycle.
        cycle: u64,
        /// The core.
        core: usize,
        /// The mode it is switching to.
        mode: ExecMode,
    },
    /// The bus was granted to one transaction — a complete span (the
    /// finish cycle is known at grant time).
    Bus {
        /// Grant cycle.
        start: u64,
        /// Release cycle (exclusive).
        finish: u64,
        /// Requesting core.
        core: usize,
        /// Transaction kind label ("read-shared", "tm-commit", ...).
        kind: &'static str,
    },
    /// A core enqueued an operand-network SEND (flow edge source).
    MsgSend {
        /// Cycle.
        cycle: u64,
        /// Sender.
        from: usize,
        /// Receiver.
        to: usize,
        /// Stream tag.
        tag: u32,
    },
    /// A core's RECV consumed a message (flow edge sink). Edges pair with
    /// [`TraceEvent::MsgSend`] in FIFO order per `(from, to, tag)`.
    MsgRecv {
        /// Cycle.
        cycle: u64,
        /// Receiver.
        core: usize,
        /// Sender.
        from: usize,
        /// Stream tag.
        tag: u32,
    },
    /// The fault layer injected or recovered from a fault (see
    /// [`crate::fault`]). Emitted only when a plan is active, so
    /// fault-free traces are untouched.
    Fault {
        /// Cycle of the fault action.
        cycle: u64,
        /// The core the fault struck (sender/requester for
        /// network/interconnect sites).
        core: usize,
        /// Injection site.
        site: FaultSite,
        /// What happened ("dropped", "retried", "spurious abort", ...).
        action: &'static str,
    },
}

/// Receiver of trace events. `Send` so a machine carrying a tracer can
/// live in the serve daemon's cross-thread machine pool (both provided
/// tracers are plain data).
pub trait Tracer: Send {
    /// Called for every event, in cycle order.
    fn event(&mut self, e: TraceEvent<'_>);

    /// Whether [`TraceEvent::Issue`] is wanted, asked once when the
    /// tracer is installed: a tracer answering `false` is never sent one,
    /// so the machine skips an event per issued instruction.
    fn wants_issues(&self) -> bool {
        true
    }

    /// Hand over whatever was captured (returned in
    /// [`crate::machine::RunOutcome::trace`] after a traced run, which
    /// calls this once). A tracer may move its buffer out.
    fn render(&mut self) -> String {
        String::new()
    }
}

/// A tracer that renders events as text lines, with a cap so hot loops
/// cannot balloon memory.
#[derive(Debug)]
pub struct TextTracer {
    lines: Vec<String>,
    suppressed: u64,
    /// Stop recording after this many events (issues included).
    pub limit: usize,
    /// Record instruction issues and per-cycle span events (very verbose)
    /// or only the structural events.
    pub issues: bool,
}

impl TextTracer {
    /// A tracer capturing up to `limit` events; `issues` selects whether
    /// per-instruction lines are included.
    pub fn new(limit: usize, issues: bool) -> TextTracer {
        TextTracer {
            lines: Vec::new(),
            suppressed: 0,
            limit,
            issues,
        }
    }

    /// The captured lines.
    pub fn lines(&self) -> &[String] {
        &self.lines
    }

    /// Render the whole trace.
    pub fn render(&self) -> String {
        let mut s = String::new();
        for l in &self.lines {
            let _ = writeln!(s, "{l}");
        }
        if self.suppressed > 0 {
            let _ = writeln!(s, "... {} events suppressed", self.suppressed);
        }
        s
    }
}

impl Tracer for TextTracer {
    fn render(&mut self) -> String {
        TextTracer::render(self)
    }

    fn event(&mut self, e: TraceEvent<'_>) {
        // Fine-grained span/flow events ride the `issues` verbosity knob:
        // a default text trace stays structural.
        let wanted = match e {
            TraceEvent::Issue { .. }
            | TraceEvent::StallBegin { .. }
            | TraceEvent::StallEnd { .. }
            | TraceEvent::RegionEnter { .. }
            | TraceEvent::RegionExit { .. }
            | TraceEvent::Bus { .. }
            | TraceEvent::MsgSend { .. }
            | TraceEvent::MsgRecv { .. } => self.issues,
            _ => true,
        };
        if !wanted {
            return;
        }
        if self.lines.len() >= self.limit {
            self.suppressed += 1;
            return;
        }
        let line = match e {
            TraceEvent::Issue {
                cycle,
                core,
                block,
                inst,
            } => {
                format!("[{cycle:>8}] core{core} <{block}> {inst}")
            }
            TraceEvent::ThreadStart { cycle, core, block } => {
                format!("[{cycle:>8}] core{core} SPAWNED at bb{block}")
            }
            TraceEvent::ModeSwitch { cycle, mode } => {
                format!("[{cycle:>8}] MODE -> {mode}")
            }
            TraceEvent::TmCommit { cycle, core, lines } => {
                format!("[{cycle:>8}] core{core} XCOMMIT ({lines} lines)")
            }
            TraceEvent::TmAbort { cycle, core } => {
                format!("[{cycle:>8}] core{core} ABORTED (replaying chunk)")
            }
            TraceEvent::Halt { cycle, core } => {
                format!("[{cycle:>8}] core{core} HALT")
            }
            TraceEvent::StallBegin {
                cycle,
                core,
                reason,
            } => {
                format!("[{cycle:>8}] core{core} STALL {reason}")
            }
            TraceEvent::StallEnd { cycle, core } => {
                format!("[{cycle:>8}] core{core} UNSTALL")
            }
            TraceEvent::RegionEnter { cycle, region } => {
                format!("[{cycle:>8}] REGION -> r{region}")
            }
            TraceEvent::RegionExit { cycle, region } => {
                format!("[{cycle:>8}] REGION <- r{region}")
            }
            TraceEvent::TmBegin { cycle, core, order } => {
                format!("[{cycle:>8}] core{core} XBEGIN (order {order})")
            }
            TraceEvent::BarrierWait { cycle, core, mode } => {
                format!("[{cycle:>8}] core{core} AT BARRIER (-> {mode})")
            }
            TraceEvent::Bus {
                start,
                finish,
                core,
                kind,
            } => {
                format!("[{start:>8}] core{core} BUS {kind} until {finish}")
            }
            TraceEvent::MsgSend {
                cycle,
                from,
                to,
                tag,
            } => {
                format!("[{cycle:>8}] core{from} SEND -> core{to} tag {tag}")
            }
            TraceEvent::MsgRecv {
                cycle,
                core,
                from,
                tag,
            } => {
                format!("[{cycle:>8}] core{core} RECV <- core{from} tag {tag}")
            }
            TraceEvent::Fault {
                cycle,
                core,
                site,
                action,
            } => {
                format!("[{cycle:>8}] core{core} FAULT {} {action}", site.label())
            }
        };
        self.lines.push(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use voltron_ir::Opcode;

    #[test]
    fn text_tracer_respects_limit_and_issue_filter() {
        let nop = Inst::new(Opcode::Nop, vec![]);
        let mut t = TextTracer::new(2, false);
        t.event(TraceEvent::Issue {
            cycle: 1,
            core: 0,
            block: "b",
            inst: &nop,
        });
        assert!(t.lines().is_empty(), "issues filtered out");
        t.event(TraceEvent::ModeSwitch {
            cycle: 2,
            mode: ExecMode::Coupled,
        });
        t.event(TraceEvent::Halt { cycle: 3, core: 0 });
        t.event(TraceEvent::Halt { cycle: 4, core: 1 });
        assert_eq!(t.lines().len(), 2, "limit enforced");
        assert!(t.render().contains("MODE -> coupled"));
    }

    #[test]
    fn truncated_traces_report_the_suppressed_count() {
        let mut t = TextTracer::new(1, false);
        t.event(TraceEvent::Halt { cycle: 1, core: 0 });
        t.event(TraceEvent::Halt { cycle: 2, core: 1 });
        t.event(TraceEvent::Halt { cycle: 3, core: 2 });
        // Filtered events (issues off) are not "suppressed" — they were
        // never wanted.
        let nop = Inst::new(Opcode::Nop, vec![]);
        t.event(TraceEvent::Issue {
            cycle: 4,
            core: 0,
            block: "b",
            inst: &nop,
        });
        assert_eq!(t.lines().len(), 1);
        assert_eq!(t.suppressed, 2);
        assert!(t.render().ends_with("... 2 events suppressed\n"));

        let mut clean = TextTracer::new(8, false);
        clean.event(TraceEvent::Halt { cycle: 1, core: 0 });
        assert!(
            !clean.render().contains("suppressed"),
            "no trailer when nothing was dropped"
        );
    }

    #[test]
    fn issue_lines_render_the_borrowed_instruction() {
        let nop = Inst::new(Opcode::Nop, vec![]);
        let mut t = TextTracer::new(8, true);
        t.event(TraceEvent::Issue {
            cycle: 7,
            core: 1,
            block: "entry",
            inst: &nop,
        });
        assert_eq!(t.lines().len(), 1);
        assert!(t.lines()[0].contains("<entry>"));
    }
}
