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
/// live in the serve daemon's cross-thread machine pool (the provided
/// `ChromeTracer` is plain data).
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
