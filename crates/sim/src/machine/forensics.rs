//! Deadlock and livelock forensics: what each blocked core waits on,
//! the wait-for graph over them and its cycle witness (DESIGN.md §5), and
//! the simulator's error type that carries them.

use super::{CoreState, Decision, Machine};
use crate::decode::IssueClass;
use crate::fault::FaultBudgetReport;
use crate::stats::StallReason;
use crate::validate::ValidateError;
use std::fmt;
use voltron_ir::{Dir, ExecMode, MemError};

/// What a blocked core is waiting on: one edge annotation of the
/// wait-for graph built when the machine wedges.
#[derive(Debug, Clone, PartialEq)]
pub enum WaitCause {
    /// `RECV` on a `(sender, tag)` stream with nothing available;
    /// `buffered` counts messages delivered into that CAM bucket but not
    /// yet consumable this cycle (0 means the sender never sent).
    Recv {
        /// Sender core named by the receive.
        from: usize,
        /// CAM tag of the stream.
        tag: u32,
        /// Messages sitting in the bucket.
        buffered: usize,
    },
    /// `GET` on an empty direct-mode latch (only `from` can fill it).
    GetLatch {
        /// The neighbor that should `PUT`.
        from: usize,
        /// Latch direction as seen from the waiting core.
        dir: Dir,
    },
    /// `PUT` toward a far latch that `to` has not drained.
    PutLatch {
        /// The neighbor holding the occupied latch.
        to: usize,
        /// Link direction as seen from the waiting core.
        dir: Dir,
    },
    /// `BCAST` blocked by peers that have not drained their broadcast
    /// latches.
    Bcast {
        /// Cores with an occupied broadcast latch.
        blockers: Vec<usize>,
    },
    /// `GETB` on an empty broadcast latch (no peer has broadcast).
    GetBcast,
    /// `SEND`/`SPAWN` into a full send queue; routing toward the head's
    /// destination is what must drain first.
    SendQueue {
        /// Destination of the queue head.
        to: Option<usize>,
        /// Send-queue occupancy.
        queued: usize,
    },
    /// Waiting at a mode-switch barrier for cores that never arrive.
    ModeBarrier {
        /// The switch target.
        mode: ExecMode,
        /// Cores not at the barrier (a halted/idle core here means the
        /// barrier can never form).
        absent: Vec<usize>,
    },
    /// `XCOMMIT` without the commit token.
    CommitToken {
        /// The waiting transaction's chunk order.
        order: Option<u32>,
        /// The order the token is at.
        expected: u32,
        /// The core whose live transaction holds the expected order.
        holder: Option<usize>,
    },
    /// Waiting on the memory system (ifetch, load miss, store buffer, or
    /// a bus broadcast).
    Memory,
    /// A lock-step member stalled only by the 1-bit stall bus; the
    /// `blockers` are the group members with a stall of their own.
    StallBus {
        /// Coupled-group members whose own stall wedges the group.
        blockers: Vec<usize>,
    },
    /// Any other stall (e.g. a scoreboard interlock).
    Other(StallReason),
}

impl fmt::Display for WaitCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitCause::Recv {
                from,
                tag,
                buffered,
            } => write!(f, "RECV from core {from} tag {tag} ({buffered} buffered)"),
            WaitCause::GetLatch { from, dir } => {
                write!(f, "GET on empty {dir} latch (fed by core {from})")
            }
            WaitCause::PutLatch { to, dir } => {
                write!(f, "PUT {dir} blocked: core {to} has not drained the latch")
            }
            WaitCause::Bcast { blockers } => {
                write!(
                    f,
                    "BCAST blocked by undrained latches at cores {blockers:?}"
                )
            }
            WaitCause::GetBcast => write!(f, "GETB on empty broadcast latch"),
            WaitCause::SendQueue { to, queued } => match to {
                Some(to) => write!(f, "send queue full ({queued} queued, head to core {to})"),
                None => write!(f, "send queue full ({queued} queued)"),
            },
            WaitCause::ModeBarrier { mode, absent } => {
                write!(
                    f,
                    "mode-switch barrier to {mode}; cores {absent:?} not at it"
                )
            }
            WaitCause::CommitToken {
                order,
                expected,
                holder,
            } => {
                write!(
                    f,
                    "XCOMMIT of chunk {order:?} waits for token at {expected}"
                )?;
                match holder {
                    Some(h) => write!(f, " (held by core {h})"),
                    None => write!(f, " (no live transaction holds it)"),
                }
            }
            WaitCause::Memory => write!(f, "memory system"),
            WaitCause::StallBus { blockers } => {
                write!(f, "stall bus (group stalled by cores {blockers:?})")
            }
            WaitCause::Other(r) => write!(f, "{r:?} stall"),
        }
    }
}

/// One node of the wait-for graph: a live core, where it is, and what
/// blocks it.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreWait {
    /// The blocked core.
    pub core: usize,
    /// Its current block index.
    pub block: usize,
    /// Its current block's debug label.
    pub block_name: String,
    /// Instruction slot within the block.
    pub pc: usize,
    /// What it is waiting on.
    pub cause: WaitCause,
}

impl fmt::Display for CoreWait {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "core {} at bb{}[{}] <{}>: {}",
            self.core, self.block, self.pc, self.block_name, self.cause
        )
    }
}

/// Simulation failure.
#[derive(Debug)]
pub enum SimError {
    /// The machine code failed static cross-core validation.
    Validate(ValidateError),
    /// No core made progress for the deadlock window; carries the
    /// wait-for graph, the cycle through it (when one exists), and a
    /// state dump.
    Deadlock {
        /// The cycle at which deadlock was declared.
        cycle: u64,
        /// What each live core is blocked on.
        waits: Vec<CoreWait>,
        /// A cycle in the wait-for graph, as core ids with the first
        /// repeated at the end (`None` when the hang is acyclic, e.g.
        /// everyone waits on a core that slept).
        cycle_path: Option<Vec<usize>>,
        /// Human-readable machine state.
        dump: String,
    },
    /// Cores kept issuing but no architectural state changed for the
    /// livelock window (e.g. a control-flow spin).
    Livelock {
        /// The cycle at which livelock was declared.
        cycle: u64,
        /// The configured watchdog window.
        window: u64,
        /// Human-readable machine state.
        dump: String,
    },
    /// The cycle cap was reached.
    MaxCycles(u64),
    /// A memory access faulted.
    Mem(MemError),
    /// The machine code is malformed.
    Malformed(String),
    /// An illegal network operation (e.g. PUT off the mesh).
    Network(String),
    /// Fault recovery exhausted a retry budget (see [`crate::fault`]):
    /// the run fails closed instead of silently diverging.
    FaultBudget(FaultBudgetReport),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Validate(e) => write!(f, "invalid machine code: {e}"),
            SimError::Deadlock {
                cycle,
                waits,
                cycle_path,
                dump,
            } => {
                writeln!(f, "deadlock at cycle {cycle}:")?;
                for w in waits {
                    writeln!(f, "  {w}")?;
                }
                if let Some(path) = cycle_path {
                    let path: Vec<String> = path.iter().map(|c| format!("core {c}")).collect();
                    writeln!(f, "  wait cycle: {}", path.join(" -> "))?;
                }
                write!(f, "{dump}")
            }
            SimError::Livelock {
                cycle,
                window,
                dump,
            } => write!(
                f,
                "livelock at cycle {cycle}: no architectural change for {window} cycles:\n{dump}"
            ),
            SimError::MaxCycles(c) => write!(f, "exceeded max cycles ({c})"),
            SimError::Mem(e) => write!(f, "memory fault: {e}"),
            SimError::Malformed(m) => write!(f, "malformed machine code: {m}"),
            SimError::Network(m) => write!(f, "network error: {m}"),
            SimError::FaultBudget(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> SimError {
        SimError::Mem(e)
    }
}

impl From<ValidateError> for SimError {
    fn from(e: ValidateError) -> SimError {
        SimError::Validate(e)
    }
}

impl Machine {
    pub(super) fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(s, "mode: {}", self.mode);
        for (i, c) in self.cores.iter().enumerate() {
            let _ = write!(s, "  core {i}: {:?} at ", c.state);
            let _ = match self.current(i) {
                Some(d) => {
                    let blk = &self.image.program().cores[i].blocks[d.block as usize];
                    let inst = &blk.insts[d.slot as usize];
                    write!(s, "bb{}[{}] <{}> next `{inst}`", d.block, d.slot, blk.name)
                }
                None => write!(s, "the end of its image"),
            };
            let _ = writeln!(s, " txn={}", self.tm.active(i));
        }
        s
    }

    /// What core `i` is waiting on right now, or `None` when it is not
    /// part of the hang (halted or idle).
    fn wait_cause(&self, i: usize) -> Option<WaitCause> {
        match self.cores[i].state {
            CoreState::Halted | CoreState::Idle => None,
            CoreState::AtSwitch(mode) => {
                let absent = (0..self.cores.len())
                    .filter(|&c| !matches!(self.cores[c].state, CoreState::AtSwitch(_)))
                    .collect();
                Some(WaitCause::ModeBarrier { mode, absent })
            }
            CoreState::WaitBus => Some(WaitCause::Memory),
            CoreState::Running => {
                let reason = match self.decisions.get(i) {
                    Some(Decision::Stall(r)) => *r,
                    // A coupled-group member ready to issue but wedged by
                    // the stall bus: the stalling members are the cause.
                    Some(Decision::Issue) if self.mode == ExecMode::Coupled => {
                        let blockers: Vec<usize> = (0..self.cores.len())
                            .filter(|&c| {
                                c != i
                                    && self.cores[c].state == CoreState::Running
                                    && matches!(self.decisions.get(c), Some(Decision::Stall(_)))
                            })
                            .collect();
                        return Some(WaitCause::StallBus { blockers });
                    }
                    _ => return None,
                };
                // A running core that stalled was checked, so it sits on
                // an instruction.
                let class = self.current(i).map(|d| d.class);
                let cause = match reason {
                    StallReason::IFetch | StallReason::DMiss | StallReason::StoreBuf => {
                        WaitCause::Memory
                    }
                    StallReason::Interlock => WaitCause::Other(reason),
                    _ => match class {
                        Some(IssueClass::Recv { from, tag, .. }) => {
                            let from = from as usize;
                            WaitCause::Recv {
                                from,
                                tag,
                                buffered: self.net.buffered_from(i, from, tag),
                            }
                        }
                        Some(IssueClass::Get(dir)) => match self.cfg.neighbor(i, dir) {
                            Some(from) => WaitCause::GetLatch { from, dir },
                            None => WaitCause::Other(reason),
                        },
                        Some(IssueClass::Put(dir)) => match self.cfg.neighbor(i, dir) {
                            Some(to) => WaitCause::PutLatch { to, dir },
                            None => WaitCause::Other(reason),
                        },
                        Some(IssueClass::Bcast) => WaitCause::Bcast {
                            blockers: self.net.bcast_blockers(i),
                        },
                        Some(IssueClass::GetB) => WaitCause::GetBcast,
                        Some(IssueClass::SendLike) => {
                            let (to, queued) = self.net.send_queue(i);
                            WaitCause::SendQueue { to, queued }
                        }
                        Some(IssueClass::Xcommit) => {
                            let expected = self.tm.expected();
                            WaitCause::CommitToken {
                                order: self.tm.order_of(i),
                                expected,
                                holder: self.tm.holder_of(expected),
                            }
                        }
                        _ => WaitCause::Other(reason),
                    },
                };
                Some(cause)
            }
        }
    }

    /// Build the wait-for graph over all non-halted, non-idle cores and
    /// detect a cycle through it (the classic deadlock witness).
    pub(super) fn diagnose(&self) -> (Vec<CoreWait>, Option<Vec<usize>>) {
        let mut waits = Vec::new();
        for i in 0..self.cores.len() {
            if let Some(cause) = self.wait_cause(i) {
                // A waiting core sits on the instruction it waits at.
                let (block, pc) = self
                    .current(i)
                    .map_or((0, 0), |d| (d.block as usize, d.slot as usize));
                let block_name = self.image.program().cores[i]
                    .blocks
                    .get(block)
                    .map_or_else(|| "?".into(), |blk| blk.name.clone());
                waits.push(CoreWait {
                    core: i,
                    block,
                    block_name,
                    pc,
                    cause,
                });
            }
        }
        let cycle_path = find_wait_cycle(&waits);
        (waits, cycle_path)
    }
}

/// The cores a wait cause points at: the wait-for-graph edges.
fn wait_edges(cause: &WaitCause) -> Vec<usize> {
    match cause {
        WaitCause::Recv { from, .. } | WaitCause::GetLatch { from, .. } => vec![*from],
        WaitCause::PutLatch { to, .. } => vec![*to],
        WaitCause::Bcast { blockers } | WaitCause::StallBus { blockers } => blockers.clone(),
        WaitCause::SendQueue { to, .. } => to.iter().copied().collect(),
        WaitCause::ModeBarrier { absent, .. } => absent.clone(),
        WaitCause::CommitToken { holder, .. } => holder.iter().copied().collect(),
        WaitCause::GetBcast | WaitCause::Memory | WaitCause::Other(_) => Vec::new(),
    }
}

/// Find a cycle in the wait-for graph, returned as core ids with the
/// first repeated at the end. Depth-first search over at most
/// `cores` nodes; explored in core order so the witness is deterministic.
fn find_wait_cycle(waits: &[CoreWait]) -> Option<Vec<usize>> {
    use std::collections::HashMap;
    let edges: HashMap<usize, Vec<usize>> = waits
        .iter()
        .map(|w| (w.core, wait_edges(&w.cause)))
        .collect();

    const ON_STACK: u8 = 1;
    const DONE: u8 = 2;
    fn dfs(
        v: usize,
        edges: &HashMap<usize, Vec<usize>>,
        state: &mut HashMap<usize, u8>,
        stack: &mut Vec<usize>,
    ) -> Option<Vec<usize>> {
        state.insert(v, ON_STACK);
        stack.push(v);
        for &u in edges.get(&v).into_iter().flatten() {
            match state.get(&u).copied() {
                Some(ON_STACK) => {
                    let start = stack
                        .iter()
                        .position(|&x| x == u)
                        .expect("u is on the stack");
                    let mut path = stack[start..].to_vec();
                    path.push(u);
                    return Some(path);
                }
                Some(_) => {}
                None if edges.contains_key(&u) => {
                    if let Some(p) = dfs(u, edges, state, stack) {
                        return Some(p);
                    }
                }
                None => {}
            }
        }
        stack.pop();
        state.insert(v, DONE);
        None
    }

    let mut state = HashMap::new();
    let mut stack = Vec::new();
    for w in waits {
        if !state.contains_key(&w.core) {
            if let Some(p) = dfs(w.core, &edges, &mut state, &mut stack) {
                return Some(p);
            }
        }
    }
    None
}
