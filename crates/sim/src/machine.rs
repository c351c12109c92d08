//! The Voltron machine: cores, lock-step coupled execution, decoupled
//! fine-grain threads, mode switching, and the cycle loop.
//!
//! Cores are single-issue and statically scheduled. A register scoreboard
//! enforces operand readiness (LEQ semantics with hardware interlocks), so
//! scheduling bugs can only cost cycles, never correctness. In coupled
//! mode all cores issue in lock-step and any member's stall stalls the
//! group (the 1-bit stall bus); in decoupled mode each core stalls
//! independently.

use crate::config::MachineConfig;
use crate::decode::{
    bits_value, value_bits, BrTarget, DInst, DOp, DecodedCore, DecodedProgram, IssueClass,
};
use crate::fault::{FaultBudgetReport, FaultKind, FaultPort, FaultSite, FaultStats, SiteInjector};
use crate::mcode::{MachineProgram, RegionId, REGION_OUTSIDE};
use crate::memsys::{Completion, LoadOutcome, MemSys};
use crate::network::{bits, OperandNetwork, Payload};
use crate::obs::{ProbeSample, ProbeSeries};
use crate::sealed::SealedImage;
use crate::stats::{CoreStats, MachineStats, RegionBreakdown, StallReason};
use crate::tm::TxnManager;
use crate::trace::{TraceEvent, Tracer};
use crate::validate::ValidateError;
use std::fmt;
use std::sync::Arc;
use voltron_ir::{BlockId, Dir, ExecMode, MemError, Memory, Reg, RegClass, Value};

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
    /// The memory hierarchy made no forward progress (see
    /// [`crate::memsys::BusTimeout`]).
    Bus(crate::memsys::BusTimeout),
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
            SimError::Bus(e) => write!(f, "bus timeout: {e}"),
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

impl From<crate::memsys::BusTimeout> for SimError {
    fn from(e: crate::memsys::BusTimeout) -> SimError {
        SimError::Bus(e)
    }
}

/// Result of a successful run.
#[derive(Debug)]
pub struct RunOutcome {
    /// Final data memory (compare against the interpreter's).
    pub memory: Memory,
    /// All statistics.
    pub stats: MachineStats,
    /// Cores still running when the master halted (compiler bug
    /// indicator; empty in correct executions).
    pub stragglers: Vec<usize>,
    /// The installed tracer's rendering (empty string without one).
    pub trace: String,
    /// Cycles actually executed by [`Machine::tick`] (including the
    /// post-halt grace drain). With fast-forward on this is the host
    /// work actually done; `stats.cycles / ticked_cycles` is the
    /// skip-efficiency the bench harness reports. Deliberately *not*
    /// part of [`MachineStats`]: the architectural numbers must be
    /// identical with fast-forward on and off, and this one is not.
    pub ticked_cycles: u64,
    /// The interval time series recorded when
    /// [`MachineConfig::probe_period`] was set (`None` otherwise). Like
    /// everything in [`MachineStats`], bit-identical with fast-forward
    /// on or off.
    pub probes: Option<ProbeSeries>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum CoreState {
    Running,
    #[default]
    Idle,
    Halted,
    AtSwitch(ExecMode),
    WaitBus,
}

#[derive(Debug, Clone)]
struct Snapshot {
    /// The architectural registers (the constant pool never changes).
    regs: Vec<u64>,
    pc: u32,
}

#[derive(Debug, Default)]
struct Core {
    state: CoreState,
    /// Flat index into the core's decoded image (`crate::decode`).
    pc: u32,
    /// Register bits by decoded slot: every class back to back, then the
    /// image's constant pool. Empty until the image is decoded.
    regs: Vec<u64>,
    /// Cycle at which each slot's value is available; `u64::MAX` marks a
    /// pending (in-flight load) result. Constant slots stay 0.
    ready: Vec<u64>,
    epoch: u64,
    pending_load: bool,
    snapshot: Option<Snapshot>,
}

impl Core {
    /// Size the register file and scoreboard for a freshly decoded image.
    fn load_image(&mut self, image: &DecodedCore) {
        self.regs.clear();
        self.regs.resize(image.n_regs(), 0);
        self.regs.extend_from_slice(&image.consts);
        self.ready.clear();
        self.ready.resize(self.regs.len(), 0);
    }

    fn clear_scoreboard(&mut self) {
        self.ready.iter_mut().for_each(|t| *t = 0);
    }

    /// The cycle at which `d`'s sources, guard and destination are all
    /// available (`u64::MAX` while a load result is pending).
    fn operands_ready_at(&self, d: &DInst) -> u64 {
        d.sb.iter().fold(0, |t, &s| t.max(self.ready[s as usize]))
    }

    /// Return the core to its just-built state. The register file keeps
    /// its allocation; the next tick's [`Core::load_image`] rewrites it.
    fn reset(&mut self) {
        self.state = CoreState::Idle;
        self.pc = 0;
        self.epoch = 0;
        self.pending_load = false;
        self.snapshot = None;
    }
}

/// What a core does in one cycle. Doubles as the accounting bucket the
/// cycle is charged to (see [`Machine::charge`]): in a coupled tick whose
/// stall bus is raised, members without a stall of their own are charged
/// `Stall` with the group's reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decision {
    Issue,
    Stall(StallReason),
    StartThread,
    Quiet,
}

/// The simulated machine.
pub struct Machine {
    cfg: MachineConfig,
    image: Arc<SealedImage>,
    /// `image`'s decoded program, taken by the first [`Machine::tick`]
    /// after boot (empty until then) and shared with every machine on
    /// the same image.
    decoded: DecodedProgram,
    cores: Vec<Core>,
    memsys: MemSys,
    net: OperandNetwork,
    tm: TxnManager,
    memory: Memory,
    mode: ExecMode,
    cycle: u64,
    last_progress: u64,
    /// Cycle of the last architectural state change (anything beyond
    /// pure control flow); drives the livelock watchdog.
    last_arch_change: u64,
    core_stats: Vec<CoreStats>,
    /// Per-region attribution table, indexed by region id with the last
    /// slot standing in for [`REGION_OUTSIDE`]; flat so attribution is
    /// indexed adds (the maps the stats report comes out of are built
    /// once at the end of `run`).
    region_table: Vec<RegionBreakdown>,
    /// Core sets by state, one bit per core (halted cores are in none).
    /// Written only by [`Machine::set_state`].
    running: u64,
    idle: u64,
    at_switch: u64,
    wait_bus: u64,
    /// Cores whose state changed since their decision was last evaluated.
    dirty: u64,
    /// Run-length accounting: the bucket each core's cycles are being
    /// charged to and the first cycle of that run not yet charged.
    runs: Vec<(Decision, u64)>,
    /// Region-table slot open runs are charged to (the master's region as
    /// of the last executed tick).
    cur_slot: usize,
    /// First cycle whose region and mode cycle counts are not yet charged.
    span_since: u64,
    coupled_cycles: u64,
    decoupled_cycles: u64,
    spawns: u64,
    mode_switches: u64,
    dynamic_insts: u64,
    tracer: Option<Box<dyn Tracer>>,
    /// Per-core issue decisions, persistent across ticks: a parked core
    /// (see [`Machine::tick`]) keeps the decision it was last given.
    decisions: Vec<Decision>,
    /// Memory-system completions of the current tick, reused likewise.
    completions: Vec<Completion>,
    /// Cycles actually executed by [`Machine::tick`].
    ticked: u64,
    /// Set by [`Machine::tick`] when the cycle it just executed made no
    /// progress and the next tick cannot resolve a mode-switch barrier:
    /// the machine is fully blocked and [`Machine::fast_forward`] may
    /// jump time to the next subsystem event.
    ff_eligible: bool,
    /// Interval probe series being recorded, when
    /// [`MachineConfig::probe_period`] is set.
    probes: Option<ProbeSeries>,
    /// Tracer-only: the stall reason each core's open stall span carries
    /// (`None` when no span is open). Maintained only while a tracer is
    /// installed, so span events are emitted on transitions alone.
    obs_stall: Vec<Option<StallReason>>,
    /// Tracer-only: the region whose span is currently open.
    obs_region: Option<RegionId>,
    /// Fault layer (`None` unless [`MachineConfig::faults`] is set):
    /// spurious-abort injector for live transactions. The draw happens at
    /// issue time of a core inside a transaction — an architectural
    /// event — so the stream is identical with fast-forward on or off.
    fault_tm: Option<SiteInjector>,
    /// Fault layer: instruction-fetch hiccup injector (drawn at issue).
    fault_fetch: Option<SiteInjector>,
    /// First cycle each core's fetch works again after a hiccup (0 when
    /// clear; `check_core` stalls fetch while `cycle` is below this).
    fetch_block: Vec<u64>,
    /// Consecutive spurious aborts per core since its last commit; the
    /// retry budget fails the run closed when a transaction can never
    /// get through.
    tm_streak: Vec<u32>,
    /// Per-core irrevocability latch: set once the live transaction has
    /// issued a network operation (SEND/RECV/BCAST/GETB/SPAWN). Such a
    /// transaction can no longer be rolled back — the message is in
    /// flight, and a replay from the snapshot would duplicate it — so
    /// the spurious-abort injector must skip it. Genuine conflict
    /// aborts never hit these: only the order-0 master chunk wraps the
    /// spawn/live-in sends, and nothing ever outranks order 0.
    txn_irrevocable: Vec<bool>,
    /// Cycle at which each core's live transaction began (`XBEGIN` issue
    /// cycle). Cycle numbering is identical with fast-forward on or off,
    /// so the abort-wasted-work arithmetic below replays exactly.
    tm_begin_cycle: Vec<u64>,
    /// Core-cycles spent inside transactions that later aborted
    /// (cumulative `abort_cycle - begin_cycle`); reported as
    /// [`crate::tm::TmStats::wasted_cycles`].
    tm_wasted: u64,
}

impl Machine {
    /// Seal `program` for `cfg` and boot a machine on it.
    ///
    /// # Errors
    /// See [`SealedImage::seal`] and [`Machine::boot`].
    pub fn new(program: MachineProgram, cfg: &MachineConfig) -> Result<Machine, SimError> {
        Machine::boot(&SealedImage::seal(Arc::new(program), cfg)?, cfg)
    }

    /// [`Machine::new`] for an already-shared program, sealed (so checked,
    /// validated and later decoded) again on every call. Kept only because
    /// `benchmark/README.md`'s API list names it: a caller that boots one
    /// image more than once seals it once and calls [`Machine::boot`].
    ///
    /// # Errors
    /// See [`Machine::new`].
    pub fn new_shared(
        program: Arc<MachineProgram>,
        cfg: &MachineConfig,
    ) -> Result<Machine, SimError> {
        Machine::boot(&SealedImage::seal(program, cfg)?, cfg)
    }

    /// Boot a machine on a sealed `image` under `cfg`. The image was
    /// validated when it was sealed, and nothing is decoded until the
    /// first tick, so boot does no per-instruction work.
    ///
    /// # Errors
    /// [`SimError::Malformed`] when `cfg` is not a machine of the core
    /// count `image` was sealed for, or its watchdogs are invalid.
    pub fn boot(image: &Arc<SealedImage>, cfg: &MachineConfig) -> Result<Machine, SimError> {
        image.admit(cfg)?;
        let n = cfg.cores;
        // The "zero TM conflict aborts" idealization swaps the conflict
        // predicate for value-based detection (crate::tm), which spares
        // false sharing while still aborting true dependences — final
        // memory stays correct under every knob.
        let mut tm = TxnManager::new(n, cfg.line_size);
        tm.set_value_conflicts(cfg.ideal.zero_tm_conflicts);
        let mut m = Machine {
            image: Arc::clone(image),
            decoded: DecodedProgram::default(),
            cores: (0..n).map(|_| Core::default()).collect(),
            memsys: MemSys::new(cfg),
            net: OperandNetwork::new(cfg),
            tm,
            memory: Memory::from_data(&image.program().data),
            mode: ExecMode::Decoupled,
            cycle: 0,
            last_progress: 0,
            last_arch_change: 0,
            core_stats: vec![CoreStats::default(); n],
            region_table: vec![RegionBreakdown::default(); image.region_slots()],
            running: 0,
            idle: 0,
            at_switch: 0,
            wait_bus: 0,
            dirty: 0,
            runs: Vec::with_capacity(n),
            cur_slot: 0,
            span_since: 0,
            coupled_cycles: 0,
            decoupled_cycles: 0,
            spawns: 0,
            mode_switches: 0,
            dynamic_insts: 0,
            tracer: None,
            decisions: Vec::with_capacity(n),
            completions: Vec::new(),
            ticked: 0,
            ff_eligible: false,
            probes: cfg
                .probe_period
                .filter(|&p| p > 0)
                .map(|p| ProbeSeries::new(p, n)),
            obs_stall: vec![None; n],
            obs_region: None,
            fault_tm: cfg.faults.as_ref().map(|p| p.injector(FaultSite::TmAbort)),
            fault_fetch: cfg.faults.as_ref().map(|p| p.injector(FaultSite::Fetch)),
            fetch_block: vec![0; n],
            tm_streak: vec![0; n],
            txn_irrevocable: vec![false; n],
            tm_begin_cycle: vec![0; n],
            tm_wasted: 0,
            cfg: cfg.clone(),
        };
        m.boot_cores();
        Ok(m)
    }

    /// Boot state of the core sets and the accounting runs: every core
    /// idle but the running master, every decision due for evaluation,
    /// nothing charged yet.
    fn boot_cores(&mut self) {
        let n = self.cores.len();
        self.idle = self.all_cores();
        (self.running, self.at_switch, self.wait_bus) = (0, 0, 0);
        self.set_state(0, CoreState::Running);
        self.dirty = self.all_cores();
        self.decisions.clear();
        self.decisions.resize(n, Decision::Quiet);
        self.runs.clear();
        self.runs.resize(n, (Decision::Quiet, 0));
        self.cur_slot = 0;
        self.span_since = 0;
    }

    /// The single writer of a core's state: keeps the per-state core sets
    /// in step and queues the core for re-evaluation.
    fn set_state(&mut self, i: usize, state: CoreState) {
        let bit = 1u64 << i;
        for set in [
            &mut self.running,
            &mut self.idle,
            &mut self.at_switch,
            &mut self.wait_bus,
        ] {
            *set &= !bit;
        }
        match state {
            CoreState::Running => self.running |= bit,
            CoreState::Idle => self.idle |= bit,
            CoreState::AtSwitch(_) => self.at_switch |= bit,
            CoreState::WaitBus => self.wait_bus |= bit,
            CoreState::Halted => {}
        }
        self.dirty |= bit;
        self.cores[i].state = state;
    }

    /// The set of all cores.
    fn all_cores(&self) -> u64 {
        u64::MAX >> (64 - self.cores.len())
    }

    /// The cores that are neither halted nor idle.
    fn active_cores(&self) -> u64 {
        self.running | self.at_switch | self.wait_bus
    }

    fn anyone_active(&self) -> bool {
        self.active_cores() != 0
    }

    /// [`Machine::reboot`] onto `program`, sealed (so checked, validated
    /// and, at the next tick, decoded) again on every call: slower than
    /// the pool's `reboot` onto an image sealed once. Kept only because
    /// `benchmark/README.md`'s API list names it.
    ///
    /// # Errors
    /// See [`Machine::new`].
    pub fn reset(
        &mut self,
        program: Arc<MachineProgram>,
        cfg: &MachineConfig,
    ) -> Result<(), SimError> {
        self.reboot(&SealedImage::seal(program, cfg)?, cfg)
    }

    /// Return the machine to the state [`Machine::boot`] would build for
    /// (`image`, `cfg`), reusing the core, cache, network, and TM
    /// allocations instead of rebuilding them. This is the machine pool's
    /// hot path: a reboot-then-run is architecturally identical to a
    /// fresh-boot-then-run (field-by-field, pinned by the serve
    /// equivalence tests), only cheaper. A refused reboot leaves the
    /// machine as it was.
    ///
    /// # Errors
    /// See [`Machine::boot`].
    pub fn reboot(
        &mut self,
        image: &Arc<SealedImage>,
        cfg: &MachineConfig,
    ) -> Result<(), SimError> {
        image.admit(cfg)?;
        self.memory = Memory::from_data(&image.program().data);
        self.decoded = DecodedProgram::default();
        let n = cfg.cores;
        self.cores.resize_with(n, Core::default);
        self.cores.iter_mut().for_each(Core::reset);
        self.boot_cores();
        self.memsys.reset(cfg);
        self.net.reset(cfg);
        self.tm.reset(n, cfg.line_size);
        self.tm.set_value_conflicts(cfg.ideal.zero_tm_conflicts);
        self.mode = ExecMode::Decoupled;
        self.cycle = 0;
        self.last_progress = 0;
        self.last_arch_change = 0;
        self.core_stats.clear();
        self.core_stats.resize(n, CoreStats::default());
        self.region_table.clear();
        self.region_table
            .resize(image.region_slots(), RegionBreakdown::default());
        self.coupled_cycles = 0;
        self.decoupled_cycles = 0;
        self.spawns = 0;
        self.mode_switches = 0;
        self.dynamic_insts = 0;
        self.tracer = None;
        self.completions.clear();
        self.ticked = 0;
        self.ff_eligible = false;
        self.probes = cfg
            .probe_period
            .filter(|&p| p > 0)
            .map(|p| ProbeSeries::new(p, n));
        self.obs_stall.clear();
        self.obs_stall.resize(n, None);
        self.obs_region = None;
        self.fault_tm = cfg.faults.as_ref().map(|p| p.injector(FaultSite::TmAbort));
        self.fault_fetch = cfg.faults.as_ref().map(|p| p.injector(FaultSite::Fetch));
        self.fetch_block.clear();
        self.fetch_block.resize(n, 0);
        self.tm_streak.clear();
        self.tm_streak.resize(n, 0);
        self.txn_irrevocable.clear();
        self.txn_irrevocable.resize(n, false);
        self.tm_begin_cycle.clear();
        self.tm_begin_cycle.resize(n, 0);
        self.tm_wasted = 0;
        self.image = Arc::clone(image);
        self.cfg = cfg.clone();
        Ok(())
    }

    /// The image as lowered for the cycle loop (see [`crate::decode`]):
    /// empty from boot to the first [`Machine::tick`], then the one
    /// decoded program every machine on the same [`SealedImage`] reads.
    pub fn decoded(&self) -> &DecodedProgram {
        &self.decoded
    }

    /// Install an execution tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, t: Box<dyn Tracer>) {
        self.tracer = Some(t);
        // Fault events are buffered by the subsystems only while someone
        // will drain them.
        for port in self.fault_ports() {
            port.set_logging(true);
        }
    }

    /// The subsystems' fault ports, interconnect first (none without a
    /// fault plan).
    fn fault_ports(&mut self) -> impl Iterator<Item = &mut FaultPort> {
        let ports = [self.memsys.fault_port(), self.net.fault_port()];
        ports.into_iter().flatten()
    }

    fn trace(&mut self, e: TraceEvent<'_>) {
        if let Some(t) = self.tracer.as_mut() {
            t.event(e);
        }
    }

    /// Run to completion (master core `HALT`).
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run(mut self) -> Result<RunOutcome, SimError> {
        self.run_mut()
    }

    /// Run to completion in place, leaving the machine's allocations
    /// behind for [`Machine::reset`] to reuse. The outcome's owned fields
    /// (memory, per-core stats, probes) are moved out, so a finished
    /// machine is architecturally empty until reset; everything else
    /// (cores, caches, network, TM, region table) keeps its capacity.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn run_mut(&mut self) -> Result<RunOutcome, SimError> {
        while self.cores[0].state != CoreState::Halted {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::MaxCycles(self.cfg.max_cycles));
            }
            self.tick()?;
            if self.cfg.fast_forward && self.ff_eligible {
                self.fast_forward();
            }
        }
        // Execution time is the master's halt cycle; workers may still be
        // a few instructions from their SLEEP (the master does not wait
        // for the final join-token-to-sleep race). Drain briefly so the
        // straggler check only flags genuinely stuck cores. The drain
        // still counts against the cycle cap — a straggler that pushes
        // past `max_cycles` here is over budget, not a clean finish —
        // and is short enough that it is never worth fast-forwarding.
        let exec_cycles = self.cycle;
        let mut grace = 0u32;
        while grace < 2_000 && self.anyone_active() {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::MaxCycles(self.cfg.max_cycles));
            }
            self.tick()?;
            grace += 1;
        }
        self.flush(self.cycle);
        self.cycle = exec_cycles;
        let stragglers: Vec<usize> = bits(self.active_cores()).collect();
        let outside_slot = self.region_table.len() - 1;
        let slot_region = |slot: usize| {
            if slot == outside_slot {
                REGION_OUTSIDE
            } else {
                slot as RegionId
            }
        };
        let region_cycles = self
            .region_table
            .iter()
            .enumerate()
            .filter(|(_, rb)| rb.cycles > 0)
            .map(|(slot, rb)| (slot_region(slot), rb.cycles))
            .collect();
        let regions = self
            .region_table
            .iter()
            .enumerate()
            .filter(|(_, rb)| rb.cycles > 0)
            .map(|(slot, rb)| (slot_region(slot), rb.clone()))
            .collect();
        let mut faults = FaultStats::default();
        for (site, sf) in self.net.fault_stats() {
            faults.site_mut(site).absorb(&sf);
        }
        for (site, sf) in self.memsys.fault_stats() {
            faults.site_mut(site).absorb(&sf);
        }
        if let Some(inj) = &self.fault_tm {
            faults.site_mut(FaultSite::TmAbort).absorb(&inj.stats());
        }
        if let Some(inj) = &self.fault_fetch {
            faults.site_mut(FaultSite::Fetch).absorb(&inj.stats());
        }
        let mut tm_stats = self.tm.stats();
        tm_stats.wasted_cycles = self.tm_wasted;
        let stats = MachineStats {
            cycles: self.cycle,
            drained_cycles: u64::from(grace),
            coupled_cycles: self.coupled_cycles,
            decoupled_cycles: self.decoupled_cycles,
            region_cycles,
            regions,
            cores: std::mem::take(&mut self.core_stats),
            mem: self.memsys.stats(),
            net: self.net.stats(),
            tm: tm_stats,
            spawns: self.spawns,
            mode_switches: self.mode_switches,
            dynamic_insts: self.dynamic_insts,
            faults,
        };
        let trace = self.tracer.as_ref().map(|t| t.render()).unwrap_or_default();
        let memory = std::mem::replace(
            &mut self.memory,
            Memory::from_data(&voltron_ir::DataSegment::default()),
        );
        Ok(RunOutcome {
            memory,
            stats,
            stragglers,
            trace,
            ticked_cycles: self.ticked,
            probes: self.probes.take(),
        })
    }

    /// Take the image's decoded program and size each core's register
    /// file for it (first tick after a boot or reboot).
    fn load_decoded(&mut self) {
        self.decoded = self.image.decoded().clone();
        for (core, image) in self.cores.iter_mut().zip(self.decoded.cores.iter()) {
            core.load_image(image);
        }
    }

    /// The decoded instruction core `i` sits on (`None` off the end).
    fn current(&self, i: usize) -> Option<&DInst> {
        self.decoded.cores[i].insts.get(self.cores[i].pc as usize)
    }

    /// Step core `i` to the next instruction in image order.
    fn advance_pc(&mut self, i: usize) -> Result<(), SimError> {
        // Fallthrough beyond a block that ends unconditionally is a
        // malformed image; `MachineProgram::check` prevented targets out
        // of range, and blocks that end a region end with jump/halt/sleep
        // which never reach here.
        let core = &mut self.cores[i];
        core.pc += 1;
        if core.pc == self.decoded.cores[i].off_end() {
            return Err(ran_off_end(i));
        }
        Ok(())
    }

    /// Region-table slot of the region the master core occupies (region
    /// attribution follows the master).
    fn master_region(&self) -> (RegionId, usize) {
        let region = self.current(0).map_or(REGION_OUTSIDE, |d| d.region);
        let slot = if region == REGION_OUTSIDE {
            self.region_table.len() - 1
        } else {
            region as usize
        };
        (region, slot)
    }

    fn dump(&self) -> String {
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
    fn diagnose(&self) -> (Vec<CoreWait>, Option<Vec<usize>>) {
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

    fn try_mode_switch(&mut self) -> Result<(), SimError> {
        let mut target: Option<ExecMode> = None;
        for c in &self.cores {
            match c.state {
                CoreState::AtSwitch(m) => match target {
                    None => target = Some(m),
                    Some(t) if t == m => {}
                    Some(t) => {
                        return Err(SimError::Malformed(format!(
                            "cores disagree on mode switch target ({t} vs {m})"
                        )))
                    }
                },
                _ => return Ok(()),
            }
        }
        let m = target.expect("at least one core");
        let cyc = self.cycle;
        // Cycles before this one were spent in the old mode.
        self.flush(cyc);
        self.mode = m;
        self.mode_switches += 1;
        self.last_arch_change = cyc;
        self.trace(TraceEvent::ModeSwitch {
            cycle: cyc,
            mode: m,
        });
        for i in 0..self.cores.len() {
            self.set_state(i, CoreState::Running);
            self.advance_pc(i)?;
        }
        Ok(())
    }

    /// Decide what core `i` does this cycle. The only error is a running
    /// core whose last transfer (branch, spawn, rollback) landed past the
    /// last instruction of its image.
    fn check_core(&mut self, i: usize) -> Result<Decision, SimError> {
        let now = self.cycle;
        let core = &self.cores[i];
        let decision = match core.state {
            CoreState::Halted => Decision::Quiet,
            CoreState::Idle => {
                if self.net.has_spawn(i, now) {
                    Decision::StartThread
                } else {
                    Decision::Quiet
                }
            }
            CoreState::AtSwitch(_) | CoreState::WaitBus => Decision::Stall(StallReason::Sync),
            CoreState::Running => {
                let image = &self.decoded.cores[i];
                let Some(d) = image.insts.get(core.pc as usize) else {
                    return Err(ran_off_end(i));
                };
                // An injected fetch hiccup blocks the front end before it
                // reaches the I-cache (no L1I access is made, matching the
                // pending-fill behaviour `fast_forward` assumes for
                // `Stall(IFetch)` cores).
                if now < self.fetch_block[i] || !self.memsys.ifetch(i, image.fetch_addr(core.pc)) {
                    return Ok(Decision::Stall(StallReason::IFetch));
                }
                // Scoreboard: sources, guard, and destination (WAW).
                let ready_at = core.operands_ready_at(d);
                if ready_at == u64::MAX {
                    return Ok(Decision::Stall(StallReason::DMiss));
                }
                if ready_at > now {
                    return Ok(Decision::Stall(StallReason::Interlock));
                }
                // A nullified instruction consumes its slot, nothing else.
                if core.regs[d.guard as usize] == 0 {
                    return Ok(Decision::Issue);
                }
                let (can_issue, or_stall) = match d.class {
                    IssueClass::Plain => return Ok(Decision::Issue),
                    IssueClass::Load => (!core.pending_load, StallReason::DMiss),
                    IssueClass::Store => (
                        self.tm.active(i) || !self.memsys.store_buffer_full(i),
                        StallReason::StoreBuf,
                    ),
                    IssueClass::Put(dir) => (self.net.can_put(i, dir), StallReason::DirectWait),
                    IssueClass::Get(dir) => {
                        (self.net.can_get(i, dir, now), StallReason::DirectWait)
                    }
                    IssueClass::Bcast => (self.net.can_bcast(i), StallReason::DirectWait),
                    IssueClass::GetB => (self.net.can_getb(i, now), StallReason::DirectWait),
                    IssueClass::SendLike => (self.net.can_send(i), StallReason::SendFull),
                    IssueClass::Recv { from, tag, stall } => {
                        (self.net.can_recv(i, from as usize, tag, now), stall)
                    }
                    IssueClass::Xcommit => (self.tm.can_commit(i), StallReason::Sync),
                };
                if can_issue {
                    Decision::Issue
                } else {
                    Decision::Stall(or_stall)
                }
            }
        };
        Ok(decision)
    }

    /// Charge the wasted work of core `c`'s aborting transaction: every
    /// cycle since its `XBEGIN` was speculation the core will re-execute.
    /// Attributed to the region the master core occupies at abort time —
    /// an overlay on the primary CPI-stack categories (those cycles were
    /// already classified as issue/stall), not an exact-sum term; see
    /// [`RegionBreakdown::tm_wasted`]. Both the begin and abort cycles
    /// are issue-time architectural events, so the arithmetic replays
    /// identically with fast-forward on or off.
    fn note_tm_abort(&mut self, c: usize) {
        let wasted = self.cycle - self.tm_begin_cycle[c];
        self.tm_wasted += wasted;
        let (_, slot) = self.master_region();
        self.region_table[slot].tm_wasted += wasted;
    }

    fn restore_core(&mut self, i: usize) {
        let snap = self.cores[i]
            .snapshot
            .take()
            .expect("aborted transaction must have a snapshot");
        let core = &mut self.cores[i];
        core.regs[..snap.regs.len()].copy_from_slice(&snap.regs);
        core.pc = snap.pc;
        core.clear_scoreboard();
        core.pending_load = false;
        core.epoch += 1;
        self.set_state(i, CoreState::Running);
    }

    /// Execute a load's functional read (through the TM when live).
    fn functional_load(&mut self, i: usize, addr: u64, width: u64) -> Result<u64, SimError> {
        let committed = self.memory.load_uint(addr, width)?;
        if self.tm.active(i) {
            Ok(self.tm.read(i, addr, width, committed))
        } else {
            Ok(committed)
        }
    }

    fn functional_store(
        &mut self,
        i: usize,
        addr: u64,
        width: u64,
        v: u64,
    ) -> Result<(), SimError> {
        if self.tm.active(i) {
            // Validate the range without writing (faults surface now).
            self.memory.load_uint(addr, width)?;
            self.tm.write(i, addr, width, v);
        } else {
            self.memory.store_uint(addr, width, v)?;
        }
        Ok(())
    }

    /// Consult the machine-owned spurious-abort injector at a commit
    /// attempt of core `i`'s transaction. Returns `Ok(true)` when the
    /// abort consumed the slot (the core rolled back to its `XBEGIN`
    /// instead of committing).
    ///
    /// The draw happens at `XCOMMIT` issue — an architectural event, so
    /// the RNG stream advances identically with fast-forward on or off —
    /// and only for *revocable* transactions (no network op issued since
    /// `XBEGIN`; see [`Machine::txn_irrevocable`]). Drawing per commit
    /// rather than per issued instruction makes the plan's `rate` a
    /// per-transaction abort probability, so a long chunk is exactly as
    /// survivable as a short one and the consecutive-abort budget is only
    /// exhausted by genuinely unsurvivable plans (rate ≈ 1).
    fn fault_tm_at_commit(&mut self, i: usize) -> Result<bool, SimError> {
        if self.txn_irrevocable[i] || self.cores[i].snapshot.is_none() {
            return Ok(false);
        }
        let now = self.cycle;
        let fired = self
            .fault_tm
            .as_mut()
            .is_some_and(|inj| inj.fire(now).is_some());
        if !fired {
            return Ok(false);
        }
        let budget = self.cfg.watchdogs.fault_retry_budget;
        let attempts = self.tm_streak[i] + 1;
        let inj = self.fault_tm.as_mut().expect("fired above");
        if attempts > budget {
            inj.note_gave_up();
            let order = self.tm.order_of(i).unwrap_or(0);
            return Err(SimError::FaultBudget(FaultBudgetReport {
                cycle: now,
                site: FaultSite::TmAbort,
                attempts,
                budget,
                detail: format!("transaction on core {i} (chunk order {order})"),
            }));
        }
        inj.note_retried(1);
        inj.note_recovered();
        self.tm_streak[i] = attempts;
        self.note_tm_abort(i);
        self.tm.abort(i);
        self.restore_core(i);
        self.last_arch_change = now;
        self.trace(TraceEvent::Fault {
            cycle: now,
            core: i,
            site: FaultSite::TmAbort,
            action: "spurious abort",
        });
        self.trace(TraceEvent::TmAbort {
            cycle: now,
            core: i,
        });
        Ok(true)
    }

    /// Consult the fetch-hiccup injector at an issue opportunity of core
    /// `i`. The draw happens only here — at instruction issue, an
    /// architectural event — so the RNG stream advances identically with
    /// fast-forward on or off (skipped spans issue nothing).
    fn fault_at_issue(&mut self, i: usize) {
        let now = self.cycle;
        // Fetch hiccup: the *next* fetches of this core stall for `d`
        // cycles; the instruction issuing now is already past fetch. A
        // bounded transient absorbed purely in time — recovered at once.
        let hiccup = self
            .fault_fetch
            .as_mut()
            .and_then(|inj| match inj.fire(now) {
                Some(FaultKind::FetchHiccup(d)) => {
                    inj.note_recovered();
                    Some(d)
                }
                _ => None,
            });
        if let Some(d) = hiccup {
            self.fetch_block[i] = now + 1 + d;
            self.trace(TraceEvent::Fault {
                cycle: now,
                core: i,
                site: FaultSite::Fetch,
                action: "fetch hiccup",
            });
        }
    }

    #[allow(clippy::too_many_lines)]
    fn exec_core(&mut self, i: usize) -> Result<(), SimError> {
        let now = self.cycle;
        if self.cfg.faults.is_some() {
            self.fault_at_issue(i);
        }
        let d = self.decoded.cores[i].insts[self.cores[i].pc as usize];
        // Latch irrevocability: once a live transaction issues a network
        // operation the message leaves the core, and a rollback to the
        // snapshot would replay it (duplicate spawns/sends, re-consumed
        // receives). The spurious-abort injector checks this latch.
        if d.net_op && self.tm.active(i) {
            self.txn_irrevocable[i] = true;
        }
        self.dynamic_insts += 1;
        if d.is_nop {
            self.core_stats[i].nops += 1;
        } else {
            self.core_stats[i].issued += 1;
            if let Some(t) = self.tracer.as_mut() {
                let block = &self.image.program().cores[i].blocks[d.block as usize];
                t.event(TraceEvent::Issue {
                    cycle: now,
                    core: i,
                    block: block.name.as_str(),
                    inst: &block.insts[d.slot as usize],
                });
            }
        }

        // Nullified by guard: slot consumed, no effects.
        if self.cores[i].regs[d.guard as usize] == 0 {
            return self.advance_pc(i);
        }

        // Everything below except pure control flow changes architectural
        // state (registers, memory, network, core/transaction state);
        // feed the livelock watchdog.
        if d.arch_change {
            self.last_arch_change = now;
        }

        match d.op {
            DOp::Nop => {}
            DOp::Alu { dst, f } => {
                let core = &mut self.cores[i];
                core.regs[dst as usize] = f.eval(&core.regs);
                core.ready[dst as usize] = now + u64::from(d.latency);
            }

            // ---- control ----
            DOp::Br { pred, target } => {
                let core = &mut self.cores[i];
                if core.regs[pred as usize] != 0 {
                    let image = &self.decoded.cores[i];
                    core.pc = match target {
                        BrTarget::Flat(t) => t,
                        BrTarget::Btr(r) => image.entry(BlockId(core.regs[r as usize] as u32)),
                        BrTarget::Missing => {
                            return Err(SimError::Malformed(format!(
                                "core {i}: branch without target"
                            )))
                        }
                    };
                    // Landing past the image's end is the next tick's
                    // error (`check_core`).
                    return Ok(());
                }
            }
            DOp::Halt => {
                self.set_state(i, CoreState::Halted);
                self.trace(TraceEvent::Halt {
                    cycle: now,
                    core: i,
                });
                return Ok(());
            }
            DOp::Sleep => {
                self.set_state(i, CoreState::Idle);
                return Ok(());
            }
            DOp::ModeSwitch(m) => {
                self.set_state(i, CoreState::AtSwitch(m));
                self.trace(TraceEvent::BarrierWait {
                    cycle: now,
                    core: i,
                    mode: m,
                });
                return Ok(()); // pc advances when the barrier resolves
            }
            DOp::Trap(t) => {
                return Err(SimError::Malformed(
                    self.decoded.cores[i].traps[t as usize].clone(),
                ))
            }

            // ---- memory ----
            DOp::Load {
                dst,
                base,
                off,
                kind,
                reg,
            } => {
                let regs = &self.cores[i].regs;
                let addr = regs[base as usize].wrapping_add(regs[off as usize]);
                let raw = self.functional_load(i, addr, kind.bytes())?;
                self.cores[i].regs[dst as usize] = kind.load_bits(raw);
                let ready = match self.memsys.load(i, addr, reg, self.cores[i].epoch) {
                    LoadOutcome::Hit => now + u64::from(self.cfg.l1_hit_latency),
                    LoadOutcome::Miss => {
                        self.cores[i].pending_load = true;
                        u64::MAX
                    }
                };
                self.cores[i].ready[dst as usize] = ready;
            }
            DOp::Store {
                base,
                off,
                val,
                kind,
            } => {
                let regs = &self.cores[i].regs;
                let addr = regs[base as usize].wrapping_add(regs[off as usize]);
                let raw = kind.store_raw(regs[val as usize]);
                self.functional_store(i, addr, kind.bytes(), raw)?;
                // A transactional store is buffered in the transaction
                // and takes no store-buffer entry.
                if !self.tm.active(i) {
                    let ok = self.memsys.store(i, addr, kind.bytes());
                    debug_assert!(ok, "store-buffer space was checked before issue");
                }
            }

            // ---- operand network ----
            DOp::Put { val, class, dir } => {
                let v = bits_value(class, self.cores[i].regs[val as usize]);
                let ok = self.net.put(i, dir, v, now).map_err(SimError::Network)?;
                debug_assert!(ok, "checked can_put before issue");
            }
            DOp::Get { dst, class, dir } => {
                let v = self
                    .net
                    .get(i, dir, now)
                    .ok_or_else(|| SimError::Network(format!("core {i}: GET on empty latch")))?;
                self.write_value(i, dst, class, v)?;
            }
            DOp::Bcast { val, class } => {
                let v = bits_value(class, self.cores[i].regs[val as usize]);
                let ok = self.net.bcast(i, v, now);
                debug_assert!(ok, "checked can_bcast before issue");
            }
            DOp::GetB { dst, class } => {
                let v = self
                    .net
                    .getb(i, now)
                    .ok_or_else(|| SimError::Network(format!("core {i}: GETB on empty latch")))?;
                self.write_value(i, dst, class, v)?;
            }
            DOp::Send {
                val,
                class,
                to,
                tag,
            } => {
                let v = bits_value(class, self.cores[i].regs[val as usize]);
                let to = to as usize;
                let ok = self.net.send(i, to, tag, Payload::Data(v), now);
                debug_assert!(ok, "checked can_send before issue");
                self.trace(TraceEvent::MsgSend {
                    cycle: now,
                    from: i,
                    to,
                    tag,
                });
            }
            DOp::Recv {
                dst,
                class,
                from,
                tag,
            } => {
                let from = from as usize;
                let v = self.net.recv(i, from, tag, now).ok_or_else(|| {
                    SimError::Network(format!("core {i}: RECV raced an empty queue"))
                })?;
                self.write_value(i, dst, class, v)?;
                self.trace(TraceEvent::MsgRecv {
                    cycle: now,
                    core: i,
                    from,
                    tag,
                });
            }
            DOp::Spawn { to, block } => {
                let ok = self.net.send(i, to as usize, 0, Payload::Spawn(block), now);
                debug_assert!(ok, "checked can_send before issue");
            }

            // ---- transactional memory ----
            DOp::Xbegin { order } => {
                let core = &mut self.cores[i];
                let order = core.regs[order as usize] as u32;
                core.snapshot = Some(Snapshot {
                    regs: core.regs[..self.decoded.cores[i].n_regs()].to_vec(),
                    pc: core.pc,
                });
                self.txn_irrevocable[i] = false;
                self.tm_begin_cycle[i] = now;
                self.tm.begin(i, order);
                self.trace(TraceEvent::TmBegin {
                    cycle: now,
                    core: i,
                    order,
                });
            }
            DOp::Xcommit => {
                if self.cfg.faults.is_some() && self.fault_tm_at_commit(i)? {
                    return Ok(()); // rolled back to the XBEGIN instead
                }
                let mut fault: Option<MemError> = None;
                let mem = &mut self.memory;
                let (lines, aborted) = self.tm.commit(i, |a, byte| {
                    if let Err(e) = mem.store_uint(a, 1, u64::from(byte)) {
                        fault.get_or_insert(e);
                    }
                });
                if let Some(e) = fault {
                    return Err(SimError::Mem(e));
                }
                self.cores[i].snapshot = None;
                self.tm_streak[i] = 0;
                self.trace(TraceEvent::TmCommit {
                    cycle: now,
                    core: i,
                    lines: lines.len(),
                });
                for c in aborted {
                    self.note_tm_abort(c);
                    self.restore_core(c);
                    self.trace(TraceEvent::TmAbort {
                        cycle: now,
                        core: c,
                    });
                }
                if !lines.is_empty() {
                    self.memsys.enqueue_tm_commit(i, lines);
                    self.set_state(i, CoreState::WaitBus);
                }
            }
            DOp::Xabort => {
                self.note_tm_abort(i);
                self.tm.abort(i);
                self.restore_core(i);
                return Ok(()); // pc restored to the XBEGIN
            }
        }
        self.advance_pc(i)
    }

    /// Write a value that arrived over the operand network into `dst`,
    /// usable next cycle. The sender chose the value's class, so only
    /// here can it be checked against the receiving register's.
    fn write_value(
        &mut self,
        i: usize,
        dst: u32,
        class: RegClass,
        v: Value,
    ) -> Result<(), SimError> {
        if v.class() != class {
            let name = Reg {
                class,
                index: dst - self.decoded.cores[i].class_base[class.index()],
            };
            return Err(SimError::Malformed(format!(
                "core {i}: network value {v:?} written to {name} of class {class}"
            )));
        }
        let core = &mut self.cores[i];
        core.regs[dst as usize] = value_bits(v);
        core.ready[dst as usize] = self.cycle + 1;
        Ok(())
    }

    fn dispatch(&mut self, c: Completion) {
        match c {
            Completion::LoadFill { core, dst, epoch } => {
                if self.cores[core].epoch == epoch {
                    let slot = self.decoded.cores[core].slot(dst);
                    self.cores[core].ready[slot as usize] = self.cycle + 1;
                    self.cores[core].pending_load = false;
                }
            }
            Completion::TmCommitDone { core } => {
                if self.cores[core].state == CoreState::WaitBus {
                    self.set_state(core, CoreState::Running);
                }
            }
        }
    }

    /// Advance the machine one cycle.
    ///
    /// # Errors
    /// See [`SimError`].
    pub fn tick(&mut self) -> Result<(), SimError> {
        let now = self.cycle;
        self.ticked += 1;
        self.ff_eligible = false;
        if self.decoded.cores.is_empty() {
            self.load_decoded();
        }
        let mut done = std::mem::take(&mut self.completions);
        self.memsys.tick(now, &mut done);
        for c in done.drain(..) {
            self.dispatch(c);
        }
        self.completions = done;
        if self.tracer.is_some() {
            // At most one grant per bank per tick, and ticks clear the
            // grant buffer, so draining here sees every grant once.
            let grants: Vec<_> = self.memsys.take_grants().collect();
            for (core, kind, start, finish) in grants {
                self.trace(TraceEvent::Bus {
                    start,
                    finish,
                    core,
                    kind,
                });
            }
        }
        self.net.tick(now);
        if self.cfg.faults.is_some() {
            // Fail closed the moment any subsystem's recovery exhausted
            // its retry budget: a parked request can never complete, so
            // continuing would end in a misleading deadlock report.
            if let Some(r) = self.fault_ports().find_map(FaultPort::take_failure) {
                return Err(SimError::FaultBudget(r));
            }
            if self.tracer.is_some() {
                let ports = self.fault_ports();
                let events: Vec<_> = ports.flat_map(FaultPort::take_events).collect();
                for (cycle, core, site, action) in events {
                    self.trace(TraceEvent::Fault {
                        cycle,
                        core,
                        site,
                        action,
                    });
                }
            }
        }
        self.try_mode_switch()?;

        // Only cores whose decision can differ from the one they hold are
        // evaluated. A decoupled core that is halted, asleep with no spawn
        // buffered, or parked at a barrier or commit broadcast keeps its
        // `Quiet` / `Stall(Sync)` until a state change marks it dirty or a
        // spawn lands in its CAM. Coupled ticks evaluate every core: the
        // stall bus couples their buckets, and a mode switch (which needs
        // every core at the barrier) therefore never straddles a parked
        // one. Ascending bit order is core order, which is issue order.
        let active = match self.mode {
            ExecMode::Coupled => self.all_cores(),
            ExecMode::Decoupled => {
                self.running | (self.idle & self.net.spawn_pending()) | self.dirty
            }
        };
        self.dirty = 0;
        for i in bits(active) {
            self.decisions[i] = self.check_core(i)?;
        }
        // The coupled stall bus: any *running* member's stall stalls the
        // group. Cores already waiting at the mode-switch barrier (or on
        // a bus broadcast) no longer gate lock-step issue — otherwise a
        // one-slot schedule misalignment at a region exit would wedge the
        // whole group.
        let group_stall = match self.mode {
            ExecMode::Coupled => bits(self.running).find_map(|i| match self.decisions[i] {
                Decision::Stall(r) => Some(r),
                _ => None,
            }),
            ExecMode::Decoupled => None,
        };
        let mut progress = false;
        for i in bits(active) {
            let d = match (group_stall, self.decisions[i]) {
                (Some(_), own @ Decision::Stall(_)) => own,
                (Some(r), _) => Decision::Stall(r),
                (None, d) => d,
            };
            if self.runs[i].0 != d {
                self.charge(i, now);
                self.runs[i].0 = d;
            }
            match d {
                Decision::Issue => {
                    self.exec_core(i)?;
                    progress = true;
                }
                // Spawns only start in decoupled mode; a pending one in
                // coupled mode waits (no progress) in the same bucket. A
                // halted/idle core in coupled mode is a compiler bug; the
                // deadlock detector flags the hang if the group never
                // re-forms.
                Decision::StartThread if self.mode == ExecMode::Decoupled => {
                    let (_, blk) = self
                        .net
                        .take_spawn(i, now)
                        .expect("has_spawn checked in decision phase");
                    self.cores[i].pc = self.decoded.cores[i].entry(blk);
                    self.set_state(i, CoreState::Running);
                    self.spawns += 1;
                    self.last_arch_change = now;
                    self.trace(TraceEvent::ThreadStart {
                        cycle: now,
                        core: i,
                        block: blk.idx(),
                    });
                    progress = true;
                }
                _ => {}
            }
        }

        // This cycle and the ones after it belong to the region the
        // master now occupies; everything before goes to the old one.
        let (region, slot) = self.master_region();
        if slot != self.cur_slot {
            self.flush(now);
            self.cur_slot = slot;
        }
        if self.tracer.is_some() {
            self.emit_spans(now, region);
        }

        if progress {
            self.last_progress = now;
        } else if self.anyone_active()
            && now - self.last_progress > self.cfg.watchdogs.deadlock_window
        {
            let (waits, cycle_path) = self.diagnose();
            return Err(SimError::Deadlock {
                cycle: now,
                waits,
                cycle_path,
                dump: self.dump(),
            });
        }
        // Livelock watchdog: cores issue (so the deadlock window keeps
        // resetting) but nothing architectural changes — a control-flow
        // spin.
        if now - self.last_arch_change > self.cfg.watchdogs.livelock_window && self.anyone_active()
        {
            return Err(SimError::Livelock {
                cycle: now,
                window: self.cfg.watchdogs.livelock_window,
                dump: self.dump(),
            });
        }
        // Fast-forward is legal from here iff nothing issued (so every
        // core's decision is frozen until an external event) and the next
        // tick's `try_mode_switch` cannot fire (it fires only when *all*
        // cores sit at the barrier — that tick is not the identity).
        self.ff_eligible = !progress && self.at_switch != self.all_cores();
        self.cycle += 1;
        if let Some(period) = self.probes.as_ref().map(|p| p.period) {
            if self.cycle.is_multiple_of(period) {
                self.sample_probes();
            }
        }
        Ok(())
    }

    /// The one accounting path: close core `i`'s open run at cycle `upto`,
    /// charging its length to the core's stats and the current region.
    /// Issue runs reach [`CoreStats`] per instruction instead (`exec_core`
    /// splits them into useful operations and NOPs).
    fn charge(&mut self, i: usize, upto: u64) {
        let (bucket, since) = self.runs[i];
        self.runs[i].1 = upto;
        let n = upto - since;
        let cs = &mut self.core_stats[i];
        let rb = &mut self.region_table[self.cur_slot];
        match bucket {
            Decision::Issue => rb.issued += n,
            Decision::Stall(r) => {
                cs.stalls[r.index()] += n;
                rb.stalls[r.index()] += n;
            }
            Decision::Quiet => {
                cs.idle += n;
                rb.idle += n;
            }
            Decision::StartThread => {
                cs.spawn_starts += n;
                rb.spawn_starts += n;
            }
        }
    }

    /// Close every open run at cycle `upto`: all cores, the region's own
    /// cycle count and the mode's. Called before anything a run is
    /// charged *to* changes (master region, mode) and before anything
    /// reads the counters (a probe sample, the end of the run) — so a
    /// span of any length, ticked or fast-forwarded, is charged once.
    fn flush(&mut self, upto: u64) {
        for i in 0..self.cores.len() {
            self.charge(i, upto);
        }
        let n = upto - self.span_since;
        self.span_since = upto;
        self.region_table[self.cur_slot].cycles += n;
        match self.mode {
            ExecMode::Coupled => self.coupled_cycles += n,
            ExecMode::Decoupled => self.decoupled_cycles += n,
        }
    }

    /// The stall reason core `i`'s cycle was charged with by the last
    /// tick, if any — the coupled stall bus makes this the group reason
    /// for members without a stall of their own.
    fn effective_stall(&self, i: usize) -> Option<StallReason> {
        match self.runs[i].0 {
            Decision::Stall(r) => Some(r),
            _ => None,
        }
    }

    /// Emit stall-span and region-span transitions for the tick at `now`
    /// (tracer installed). Only transitions produce events, so a long
    /// stall is two events and fast-forwarded spans need none: the
    /// decisions they replay are frozen, so no transition occurs there.
    fn emit_spans(&mut self, now: u64, region: RegionId) {
        for i in 0..self.cfg.cores {
            let eff = self.effective_stall(i);
            if eff != self.obs_stall[i] {
                if self.obs_stall[i].is_some() {
                    self.trace(TraceEvent::StallEnd {
                        cycle: now,
                        core: i,
                    });
                }
                if let Some(reason) = eff {
                    self.trace(TraceEvent::StallBegin {
                        cycle: now,
                        core: i,
                        reason,
                    });
                }
                self.obs_stall[i] = eff;
            }
        }
        if self.obs_region != Some(region) {
            if let Some(old) = self.obs_region {
                self.trace(TraceEvent::RegionExit {
                    cycle: now,
                    region: old,
                });
            }
            self.trace(TraceEvent::RegionEnter { cycle: now, region });
            self.obs_region = Some(region);
        }
    }

    /// Record one interval sample. Both callers — the tick path and
    /// fast-forward — invoke this with `self.cycle` sitting exactly on a
    /// period boundary; the flush brings all counters up to cover cycles
    /// `0..self.cycle`, which is what makes the series bit-identical
    /// with fast-forward on or off.
    fn sample_probes(&mut self) {
        let cycle = self.cycle;
        self.flush(cycle);
        let n = self.cfg.cores;
        let bus_busy = self.memsys.bus_busy_cycles();
        let Some(series) = self.probes.as_mut() else {
            return;
        };
        let mut sample = ProbeSample {
            cycle,
            issued: Vec::with_capacity(n),
            idle: Vec::with_capacity(n),
            stalls: Vec::with_capacity(n),
            send_queue: Vec::with_capacity(n),
            recv_buffered: Vec::with_capacity(n),
            tm_read_set: Vec::with_capacity(n),
            tm_write_set: Vec::with_capacity(n),
            bus_busy,
        };
        for i in 0..n {
            let cs = &self.core_stats[i];
            sample.issued.push(cs.issued + cs.nops);
            sample.idle.push(cs.idle);
            sample.stalls.push(cs.stalls);
            sample.send_queue.push(self.net.send_queue(i).1);
            sample.recv_buffered.push(self.net.recv_buffered(i));
            let (r, w) = self.tm.set_sizes(i);
            sample.tm_read_set.push(r);
            sample.tm_write_set.push(w);
        }
        series.samples.push(sample);
    }

    /// The cycle at which a [`StallReason::Interlock`]-stalled core's
    /// scoreboard clears: the latest ready-time over the instruction's
    /// sources, guard, and destination. All of them are finite — a
    /// pending (`u64::MAX`) register classifies the stall as
    /// [`StallReason::DMiss`] instead.
    fn interlock_wake(&self, i: usize) -> u64 {
        let d = self
            .current(i)
            .expect("an interlocked core sits on the instruction it checked");
        self.cores[i].operands_ready_at(d)
    }

    /// Event-driven fast-forward (see DESIGN.md §6 for the equivalence
    /// argument). Called after a tick that made no progress: every core
    /// is blocked, so until some subsystem event lands, each following
    /// tick is the identity transition plus counters. Jump `cycle`
    /// straight to the earliest such event — an in-flight bus
    /// completion, a network arrival, or a scoreboard interlock
    /// clearing — capped so the deadlock/livelock watchdogs and the
    /// `max_cycles` cap fire at exactly the cycle a tick-by-tick run
    /// fires them.
    fn fast_forward(&mut self) {
        // The cycle whose (cached) decisions describe the blocked state;
        // `self.cycle` is already the next tick's cycle.
        let prev = self.cycle - 1;
        let mut wake = u64::MAX;
        if let Some(t) = self.memsys.next_event(prev) {
            wake = wake.min(t);
        }
        if let Some(t) = self.net.next_event(prev) {
            wake = wake.min(t);
        }
        if let Some(t) = self.tm.next_event() {
            wake = wake.min(t);
        }
        for i in bits(self.running) {
            if self.decisions[i] == Decision::Stall(StallReason::Interlock) {
                wake = wake.min(self.interlock_wake(i));
            }
            // A fetch hiccup is a pure timer: nothing else will wake the
            // blocked core, so the skip must land on its expiry.
            if self.fetch_block[i] > prev {
                wake = wake.min(self.fetch_block[i]);
            }
        }
        // Directed machine-level fault events are pinned to cycles; both
        // fast-forward modes must tick the cycle at which one becomes
        // due so it fires at the same issue opportunity. (The network and
        // bank injectors surface theirs through their own `next_event`.)
        for inj in [self.fault_tm.as_ref(), self.fault_fetch.as_ref()]
            .into_iter()
            .flatten()
        {
            if let Some(t) = inj.next_event(prev) {
                wake = wake.min(t.max(prev + 1));
            }
        }
        // Watchdogs: a tick-by-tick run would declare deadlock/livelock
        // on the first cycle past its window, so never jump beyond it —
        // the real tick executed there raises the identical error.
        if self.anyone_active() {
            let deadlock_at = self
                .last_progress
                .saturating_add(self.cfg.watchdogs.deadlock_window)
                .saturating_add(1);
            let livelock_at = self
                .last_arch_change
                .saturating_add(self.cfg.watchdogs.livelock_window)
                .saturating_add(1);
            wake = wake.min(deadlock_at).min(livelock_at);
        }
        // An all-idle machine has no watchdog (nothing is "active"), so
        // the run loop's cap is the only exit; land exactly on it.
        wake = wake.min(self.cfg.max_cycles);
        if wake <= self.cycle {
            return;
        }
        // The skipped span needs no accounting: every core's run stays
        // open across it and is charged, at its full length, when it next
        // closes. The one per-cycle side effect a blocked tick has is
        // each running core re-fetching its current instruction; unless
        // it is the fetch itself that stalls (the pending-fill guard in
        // `MemSys::ifetch` counts nothing on those), that is one L1I hit
        // per cycle.
        let n = wake - self.cycle;
        for i in bits(self.running) {
            if self.decisions[i] != Decision::Stall(StallReason::IFetch) {
                self.memsys.credit_ifetch_hits(i, n);
            }
        }
        // Interval probes: stop at every sampling boundary inside the
        // skip, so each sample is taken with exactly the counters a
        // tick-by-tick run would have there (the instantaneous gauges are
        // frozen across a blocked span by the same argument that makes
        // the skip itself legal).
        if let Some(period) = self.probes.as_ref().map(|p| p.period) {
            let mut next = (self.cycle / period + 1) * period;
            while next <= wake {
                self.cycle = next;
                self.sample_probes();
                next += period;
            }
        }
        self.cycle = wake;
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

fn ran_off_end(core: usize) -> SimError {
    SimError::Malformed(format!("core {core} ran off the end of its image"))
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Machine(cycle {}, mode {}, {} cores)",
            self.cycle, self.mode, self.cfg.cores
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcode::{CoreImage, MBlock};
    use voltron_ir::{DataSegment, Inst, Opcode, Operand};

    fn mk_program(core_blocks: Vec<Vec<MBlock>>, data: DataSegment) -> MachineProgram {
        MachineProgram {
            name: "t".into(),
            cores: core_blocks
                .into_iter()
                .map(|blocks| CoreImage { blocks })
                .collect(),
            data,
        }
    }

    fn gpr(i: u32) -> Reg {
        Reg::gpr(i)
    }

    #[test]
    fn single_core_arithmetic_halts() {
        let mut data = DataSegment::default();
        let out = data.zeroed("out", 8);
        let mut b = MBlock::new("entry", 0);
        b.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(6)]));
        b.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(1), vec![Operand::Imm(7)]));
        b.insts.push(Inst::with_dst(
            Opcode::Mul,
            gpr(2),
            vec![gpr(0).into(), gpr(1).into()],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(3),
            vec![Operand::Imm(out as i64)],
        ));
        b.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(3).into(), Operand::Imm(0), gpr(2).into()],
        ));
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        let p = mk_program(vec![vec![b]], data);
        let m = Machine::new(p, &MachineConfig::paper(1)).unwrap();
        let out_run = m.run().unwrap();
        assert_eq!(out_run.memory.load_i64(out).unwrap(), 42);
        assert!(out_run.stats.cycles >= 6);
        assert!(out_run.stragglers.is_empty());
    }

    #[test]
    fn mul_latency_is_respected() {
        // mul at cycle t; consumer must wait until t+3.
        let mut data = DataSegment::default();
        let out = data.zeroed("out", 8);
        let mut b = MBlock::new("entry", 0);
        b.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(5)]));
        b.insts.push(Inst::with_dst(
            Opcode::Mul,
            gpr(1),
            vec![gpr(0).into(), gpr(0).into()],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Add,
            gpr(2),
            vec![gpr(1).into(), Operand::Imm(1)],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(3),
            vec![Operand::Imm(out as i64)],
        ));
        b.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(3).into(), Operand::Imm(0), gpr(2).into()],
        ));
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        let p = mk_program(vec![vec![b]], data);
        let out_run = Machine::new(p, &MachineConfig::paper(1))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out_run.memory.load_i64(out).unwrap(), 26);
        let interlock = out_run.stats.cores[0].stalls_for(StallReason::Interlock);
        assert!(interlock >= 2, "expected interlock stalls, got {interlock}");
    }

    /// Two cores in decoupled mode: master spawns a worker that computes
    /// and sends a value back.
    #[test]
    fn spawn_send_recv_roundtrip() {
        let mut data = DataSegment::default();
        let out = data.zeroed("out", 8);
        // Core 0: spawn core1@bb1, recv from core 1, store, halt.
        let mut c0 = MBlock::new("main", 0);
        c0.insts.push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(1), Operand::Block(BlockId(1))],
        ));
        c0.insts
            .push(Inst::with_dst(Opcode::Recv, gpr(0), vec![Operand::Core(1)]));
        c0.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(1),
            vec![Operand::Imm(out as i64)],
        ));
        c0.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(1).into(), Operand::Imm(0), gpr(0).into()],
        ));
        c0.insts.push(Inst::new(Opcode::Halt, vec![]));
        // Core 1: bb0 unused (sleep stub), bb1: compute 99, send, sleep.
        let mut c1_idle = MBlock::new("idle", 0);
        c1_idle.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let mut c1 = MBlock::new("worker", 0);
        c1.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(99)]));
        c1.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(0).into(), Operand::Core(0)],
        ));
        c1.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let p = mk_program(vec![vec![c0], vec![c1_idle, c1]], data);
        let out_run = Machine::new(p, &MachineConfig::paper(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out_run.memory.load_i64(out).unwrap(), 99);
        assert_eq!(out_run.stats.spawns, 1);
        assert!(out_run.stats.cores[0].stalls_for(StallReason::RecvData) > 0);
        assert!(out_run.stragglers.is_empty());
    }

    /// Coupled mode: two cores switch to lock-step, exchange a value over
    /// the direct network, switch back.
    #[test]
    fn coupled_put_get_lockstep() {
        let mut data = DataSegment::default();
        let out = data.zeroed("out", 8);
        // Core 0: spawn worker into its switch stub; mode switch; PUT 7
        // east; NOP; mode switch back; recv join; store; halt.
        let mut c0 = MBlock::new("main", 0);
        c0.insts.push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(1), Operand::Block(BlockId(1))],
        ));
        c0.insts.push(Inst::new(
            Opcode::ModeSwitch,
            vec![Operand::Mode(ExecMode::Coupled)],
        ));
        c0.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(7)]));
        c0.insts.push(Inst::new(
            Opcode::Put,
            vec![gpr(0).into(), Operand::Dir(Dir::East)],
        ));
        c0.insts.push(Inst::nop());
        c0.insts.push(Inst::nop());
        c0.insts.push(Inst::new(
            Opcode::ModeSwitch,
            vec![Operand::Mode(ExecMode::Decoupled)],
        ));
        c0.insts
            .push(Inst::with_dst(Opcode::Recv, gpr(1), vec![Operand::Core(1)]));
        c0.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(2),
            vec![Operand::Imm(out as i64)],
        ));
        c0.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(2).into(), Operand::Imm(0), gpr(1).into()],
        ));
        c0.insts.push(Inst::new(Opcode::Halt, vec![]));
        // Core 1: bb0 idle stub; bb1: switch, nops aligned, GET west,
        // double it, switch back, send result, sleep.
        let mut c1_idle = MBlock::new("idle", 0);
        c1_idle.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let mut c1 = MBlock::new("worker", 0);
        c1.insts.push(Inst::new(
            Opcode::ModeSwitch,
            vec![Operand::Mode(ExecMode::Coupled)],
        ));
        c1.insts.push(Inst::nop());
        c1.insts.push(Inst::nop());
        c1.insts.push(Inst::with_dst(
            Opcode::Get,
            gpr(0),
            vec![Operand::Dir(Dir::West)],
        ));
        c1.insts.push(Inst::with_dst(
            Opcode::Add,
            gpr(1),
            vec![gpr(0).into(), gpr(0).into()],
        ));
        c1.insts.push(Inst::nop());
        c1.insts.push(Inst::new(
            Opcode::ModeSwitch,
            vec![Operand::Mode(ExecMode::Decoupled)],
        ));
        c1.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(1).into(), Operand::Core(0)],
        ));
        c1.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let p = mk_program(vec![vec![c0], vec![c1_idle, c1]], data);
        let out_run = Machine::new(p, &MachineConfig::paper(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out_run.memory.load_i64(out).unwrap(), 14);
        assert_eq!(out_run.stats.mode_switches, 2);
        assert!(out_run.stats.coupled_cycles > 0);
        assert!(out_run.stats.net.direct_transfers >= 1);
    }

    /// A RECV whose stream no SEND feeds is caught statically, before
    /// the cycle loop ever runs.
    #[test]
    fn orphan_recv_is_rejected_statically() {
        let mut data = DataSegment::default();
        data.zeroed("pad", 8);
        let mut c0 = MBlock::new("main", 0);
        c0.insts
            .push(Inst::with_dst(Opcode::Recv, gpr(0), vec![Operand::Core(1)]));
        c0.insts.push(Inst::new(Opcode::Halt, vec![]));
        let mut c1 = MBlock::new("idle", 0);
        c1.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let p = mk_program(vec![vec![c0], vec![c1]], data);
        let err = Machine::new(p, &MachineConfig::paper(2)).unwrap_err();
        match err {
            SimError::Validate(crate::validate::ValidateError::OrphanRecv { site, from, tag }) => {
                assert_eq!(site.core, 0);
                assert_eq!(site.block, 0);
                assert_eq!(from, 1);
                assert_eq!(tag, 0);
            }
            other => panic!("expected orphan-recv rejection, got {other}"),
        }
    }

    /// A statically valid program whose two cores each RECV what the
    /// other sends *afterwards*: a genuine runtime wait cycle. The
    /// forensics must name both waits and the 0 -> 1 -> 0 cycle.
    #[test]
    fn deadlocked_recv_is_reported() {
        let mut data = DataSegment::default();
        data.zeroed("pad", 8);
        // Core 0: recv from core 1 (tag 0) *before* sending tag 1.
        let mut c0 = MBlock::new("main", 0);
        c0.insts.push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(1), Operand::Block(BlockId(1))],
        ));
        c0.insts.push(Inst::with_dst(
            Opcode::Recv,
            gpr(0),
            vec![Operand::Core(1), Operand::Imm(0)],
        ));
        c0.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(1), vec![Operand::Imm(5)]));
        c0.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(1).into(), Operand::Core(1), Operand::Imm(1)],
        ));
        c0.insts.push(Inst::new(Opcode::Halt, vec![]));
        // Core 1: recv from core 0 (tag 1) *before* sending tag 0.
        let mut c1_idle = MBlock::new("idle", 0);
        c1_idle.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let mut c1 = MBlock::new("worker", 0);
        c1.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(0), vec![Operand::Imm(7)]));
        c1.insts.push(Inst::with_dst(
            Opcode::Recv,
            gpr(1),
            vec![Operand::Core(0), Operand::Imm(1)],
        ));
        c1.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(0).into(), Operand::Core(0), Operand::Imm(0)],
        ));
        c1.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let p = mk_program(vec![vec![c0], vec![c1_idle, c1]], data);
        let err = Machine::new(p, &MachineConfig::paper(2))
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            SimError::Deadlock {
                waits, cycle_path, ..
            } => {
                let w0 = waits.iter().find(|w| w.core == 0).expect("core 0 waits");
                assert_eq!(
                    w0.cause,
                    WaitCause::Recv {
                        from: 1,
                        tag: 0,
                        buffered: 0
                    }
                );
                let w1 = waits.iter().find(|w| w.core == 1).expect("core 1 waits");
                assert_eq!(w1.block_name, "worker");
                assert_eq!(
                    w1.cause,
                    WaitCause::Recv {
                        from: 0,
                        tag: 1,
                        buffered: 0
                    }
                );
                let path = cycle_path.expect("cross-recv hang is a cycle");
                assert_eq!(path, vec![0, 1, 0]);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// A jump-to-self spin issues every cycle (so the deadlock window
    /// keeps resetting) but never changes architectural state: the
    /// livelock watchdog, not `MaxCycles`, must call it.
    #[test]
    fn control_spin_is_diagnosed_as_livelock() {
        let mut data = DataSegment::default();
        data.zeroed("pad", 8);
        let mut b = MBlock::new("spin", 0);
        b.insts
            .push(Inst::new(Opcode::Jump, vec![Operand::Block(BlockId(0))]));
        let p = mk_program(vec![vec![b]], data);
        let cfg = MachineConfig {
            watchdogs: crate::config::Watchdogs {
                deadlock_window: 1_000,
                livelock_window: 2_000,
                ..crate::config::Watchdogs::default()
            },
            ..MachineConfig::paper(1)
        };
        let err = Machine::new(p, &cfg).unwrap().run().unwrap_err();
        match err {
            SimError::Livelock { cycle, window, .. } => {
                assert_eq!(window, 2_000);
                assert!(cycle >= 2_000);
            }
            other => panic!("expected livelock, got {other}"),
        }
    }

    /// Transactions: two chunks, the later one reads what the earlier one
    /// writes -> observe an abort and a sequentially-correct result.
    #[test]
    fn tm_conflict_rolls_back_and_reexecutes() {
        let mut data = DataSegment::default();
        let shared = data.array_i64("shared", &[5]);
        let out = data.zeroed("out", 8);
        // Core 0 (chunk 0): spawn worker; xbegin 0; long delay (nops);
        // store 100 to shared; xcommit; recv join; halt.
        let mut c0 = MBlock::new("main", 0);
        // Codegen contract: the master's XBEGIN 0 precedes worker spawns.
        c0.insts
            .push(Inst::new(Opcode::Xbegin, vec![Operand::Imm(0)]));
        c0.insts.push(Inst::new(
            Opcode::Spawn,
            vec![Operand::Core(1), Operand::Block(BlockId(1))],
        ));
        for _ in 0..40 {
            c0.insts.push(Inst::nop());
        }
        c0.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(0),
            vec![Operand::Imm(shared as i64)],
        ));
        c0.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(1), vec![Operand::Imm(100)]));
        c0.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(0).into(), Operand::Imm(0), gpr(1).into()],
        ));
        c0.insts.push(Inst::new(Opcode::Xcommit, vec![]));
        c0.insts
            .push(Inst::with_dst(Opcode::Recv, gpr(2), vec![Operand::Core(1)]));
        c0.insts.push(Inst::new(Opcode::Halt, vec![]));
        // Core 1 (chunk 1): xbegin 1; read shared; store it to out;
        // xcommit; send join; sleep. It reads early (before core 0's
        // store), so it must abort and re-run, ending with out == 100.
        let mut c1_idle = MBlock::new("idle", 0);
        c1_idle.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let mut c1 = MBlock::new("chunk1", 0);
        c1.insts
            .push(Inst::new(Opcode::Xbegin, vec![Operand::Imm(1)]));
        c1.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(0),
            vec![Operand::Imm(shared as i64)],
        ));
        c1.insts.push(Inst::with_dst(
            Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
            gpr(1),
            vec![gpr(0).into(), Operand::Imm(0)],
        ));
        c1.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(2),
            vec![Operand::Imm(out as i64)],
        ));
        c1.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(2).into(), Operand::Imm(0), gpr(1).into()],
        ));
        c1.insts.push(Inst::new(Opcode::Xcommit, vec![]));
        c1.insts
            .push(Inst::with_dst(Opcode::Ldi, gpr(3), vec![Operand::Imm(1)]));
        c1.insts.push(Inst::new(
            Opcode::Send,
            vec![gpr(3).into(), Operand::Core(0)],
        ));
        c1.insts.push(Inst::new(Opcode::Sleep, vec![]));
        let p = mk_program(vec![vec![c0], vec![c1_idle, c1]], data);
        let out_run = Machine::new(p, &MachineConfig::paper(2))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(
            out_run.memory.load_i64(out).unwrap(),
            100,
            "sequential semantics"
        );
        assert!(out_run.stats.tm.aborts >= 1, "expected at least one abort");
        assert_eq!(
            out_run.stats.tm.commits,
            2 + out_run.stats.tm.aborts - out_run.stats.tm.aborts
        );
    }

    #[test]
    fn load_miss_stalls_consumer_until_fill() {
        let mut data = DataSegment::default();
        let a = data.array_i64("a", &[11]);
        let out = data.zeroed("out", 8);
        let mut b = MBlock::new("entry", 0);
        b.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(0),
            vec![Operand::Imm(a as i64)],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Load(voltron_ir::MemWidth::W8, voltron_ir::Signedness::Signed),
            gpr(1),
            vec![gpr(0).into(), Operand::Imm(0)],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Add,
            gpr(2),
            vec![gpr(1).into(), Operand::Imm(1)],
        ));
        b.insts.push(Inst::with_dst(
            Opcode::Ldi,
            gpr(3),
            vec![Operand::Imm(out as i64)],
        ));
        b.insts.push(Inst::new(
            Opcode::Store(voltron_ir::MemWidth::W8),
            vec![gpr(3).into(), Operand::Imm(0), gpr(2).into()],
        ));
        b.insts.push(Inst::new(Opcode::Halt, vec![]));
        let p = mk_program(vec![vec![b]], data);
        let out_run = Machine::new(p, &MachineConfig::paper(1))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(out_run.memory.load_i64(out).unwrap(), 12);
        let dstalls = out_run.stats.cores[0].stalls_for(StallReason::DMiss);
        assert!(
            dstalls > 50,
            "cold miss should stall ~memory latency, got {dstalls}"
        );
    }
}
