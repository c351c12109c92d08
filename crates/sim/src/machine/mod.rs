//! The Voltron machine: cores, lock-step coupled execution, decoupled
//! fine-grain threads, mode switching, and the cycle loop.
//!
//! Cores are single-issue and statically scheduled. A register scoreboard
//! enforces operand readiness (LEQ semantics with hardware interlocks), so
//! scheduling bugs can only cost cycles, never correctness. In coupled
//! mode all cores issue in lock-step and any member's stall stalls the
//! group (the 1-bit stall bus); in decoupled mode each core stalls
//! independently.
//!
//! Here: state, boot, the run and tick loops, accounting, fast-forward.
//! The issue path is in `issue`, deadlock forensics in `forensics`, the
//! tracer and probes in `observe`, the chaos layer's hooks in `faults`.

mod faults;
mod forensics;
mod issue;
mod observe;

pub use forensics::{CoreWait, SimError, WaitCause};

use crate::config::MachineConfig;
use crate::decode::{DInst, DecodedProgram, IssueClass};
use crate::mcode::{MachineProgram, RegionId, REGION_OUTSIDE};
use crate::memsys::{Completion, Fetch, MemSys};
use crate::network::{bits, OperandNetwork};
use crate::obs::ProbeSeries;
use crate::sealed::SealedImage;
use crate::stats::{CoreStats, MachineStats, RegionBreakdown, StallReason};
use crate::tm::TxnManager;
use crate::trace::TraceEvent;
use faults::MachineFaults;
use issue::{Core, Decision};
use observe::Tracing;
use std::fmt;
use std::sync::Arc;
use voltron_ir::{ExecMode, Memory};

/// Slots of the ring that files riders by the tick their ride ends at; a
/// ride is at most `RIDE_SLOTS - 1` NOPs long.
const RIDE_SLOTS: usize = 16;

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

/// The simulated machine. The default is an empty machine of no cores,
/// booted by [`Machine::reboot`].
#[derive(Default)]
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
    /// Running cores that sit out decoupled ticks on a stall only one
    /// known event ends (DESIGN.md §14.1): a load fill, their own I-fill,
    /// or a move of the commit token. Each holds its decision until that
    /// event marks it `dirty`.
    parked: u64,
    /// The parked cores waiting at `XCOMMIT` for the commit token.
    token_waiters: u64,
    /// Per core, `ticked` at the tick that parked it: the ticks it sits
    /// out after that are the L1I hits [`Machine::credit_parked`] owes.
    parked_at: Vec<u64>,
    /// Coupled cores riding the group through a run of NOPs in the I-line
    /// they last fetched (DESIGN.md §14.1): out of the per-core loop, each
    /// issues one NOP on every coupled tick whose stall bus is low, and
    /// [`Machine::sync_rider`] brings it up to date when asked.
    riders: u64,
    /// Coupled ticks whose stall bus was low while someone rode: the
    /// clock riders issue by.
    ride_clock: u64,
    /// Per core, the `ride_clock` its ridden NOPs were last synced at and
    /// the one its ride ends at.
    rides: Vec<(u64, u64)>,
    /// Riders filed by the `ride_clock` their ride ends at, modulo
    /// [`RIDE_SLOTS`].
    ride_ends: [u64; RIDE_SLOTS],
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
    /// The tracer and its span state, present only after
    /// [`Machine::set_tracer`].
    obs: Option<Box<Tracing>>,
    /// The chaos layer's machine-side state, present only under
    /// [`MachineConfig::faults`].
    faults: Option<Box<MachineFaults>>,
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

    /// [`Machine::new`] for an already-shared program, sealed (so
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

    /// Boot a machine on a sealed `image` under `cfg`: the
    /// [`Machine::reboot`] of an empty machine. The image was validated
    /// when it was sealed, and nothing is decoded until the first tick,
    /// so boot does no per-instruction work.
    ///
    /// # Errors
    /// [`SimError::Malformed`] when `cfg` is not a machine of the core
    /// count `image` was sealed for, or its watchdogs are invalid.
    pub fn boot(image: &Arc<SealedImage>, cfg: &MachineConfig) -> Result<Machine, SimError> {
        let mut m = Machine::default();
        m.reboot(image, cfg)?;
        Ok(m)
    }

    /// The single writer of a core's state: keeps the per-state core sets
    /// in step and queues the core for re-evaluation.
    fn set_state(&mut self, i: usize, state: CoreState) {
        self.end_ride(i);
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

    /// [`Machine::reboot`] onto `program`, sealed (so validated and, at
    /// the next tick, decoded) again on every call: slower than the
    /// pool's `reboot` onto an image sealed once. Kept only because
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

    /// Boot the machine on `image` under `cfg`, sizing every part for
    /// `cfg` and keeping the core, cache, network and TM allocations it
    /// already has: the machine pool's hot path. A refused reboot leaves
    /// the machine as it was.
    ///
    /// # Errors
    /// [`SimError::Malformed`] when `cfg` is not a machine of the core
    /// count `image` was sealed for, or its watchdogs are invalid.
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
        // Every core idle but the running master, every decision due for
        // evaluation, nothing charged yet.
        self.idle = self.all_cores();
        (self.running, self.at_switch, self.wait_bus) = (0, 0, 0);
        self.set_state(0, CoreState::Running);
        self.dirty = self.all_cores();
        (self.parked, self.token_waiters) = (0, 0);
        self.parked_at.clear();
        self.parked_at.resize(n, 0);
        (self.riders, self.ride_clock) = (0, 0);
        self.rides.clear();
        self.rides.resize(n, (0, 0));
        self.ride_ends = [0; RIDE_SLOTS];
        self.decisions.clear();
        self.decisions.resize(n, Decision::Quiet);
        self.runs.clear();
        self.runs.resize(n, (Decision::Quiet, 0));
        self.cur_slot = 0;
        self.span_since = 0;
        self.memsys.reset(cfg);
        self.net.reset(cfg);
        self.tm.reset(n, cfg.line_size);
        // The "zero TM conflict aborts" idealization swaps the conflict
        // predicate for value-based detection (crate::tm), which spares
        // false sharing while still aborting true dependences — final
        // memory stays correct under every knob.
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
        self.obs = None;
        self.completions.clear();
        self.ticked = 0;
        self.ff_eligible = false;
        self.probes = cfg
            .probe_period
            .filter(|&p| p > 0)
            .map(|p| ProbeSeries::new(p, n));
        self.faults = cfg.faults.as_ref().map(|plan| MachineFaults::new(plan, n));
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
        if self.cores.is_empty() {
            return Err(SimError::Malformed("the machine was never booted".into()));
        }
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
        while grace < 2_000 && self.active_cores() != 0 {
            if self.cycle >= self.cfg.max_cycles {
                return Err(SimError::MaxCycles(self.cfg.max_cycles));
            }
            self.tick()?;
            grace += 1;
        }
        self.flush(self.cycle);
        for i in bits(self.parked) {
            self.credit_parked(i, self.ticked);
        }
        (self.parked, self.token_waiters) = (0, 0);
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
        let regions = self
            .region_table
            .iter()
            .enumerate()
            .filter(|(_, rb)| rb.cycles > 0)
            .map(|(slot, rb)| (slot_region(slot), rb.clone()))
            .collect();
        let mut tm_stats = self.tm.stats();
        tm_stats.wasted_cycles = self.tm_wasted;
        let stats = MachineStats {
            cycles: self.cycle,
            drained_cycles: u64::from(grace),
            coupled_cycles: self.coupled_cycles,
            decoupled_cycles: self.decoupled_cycles,
            regions,
            cores: std::mem::take(&mut self.core_stats),
            mem: self.memsys.stats(),
            net: self.net.stats(),
            tm: tm_stats,
            spawns: self.spawns,
            mode_switches: self.mode_switches,
            dynamic_insts: self.dynamic_insts,
            faults: self.fault_stats(),
        };
        let trace = self
            .obs
            .as_mut()
            .map_or_else(String::new, |o| o.tracer.render());
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
        // Invariant 0 ends the last block in a terminator, so only a
        // nullified one steps onto the sentinel.
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

    /// Park running core `i` after a decoupled tick decided it stalls for
    /// `reason`, when only one known event can end that stall: a pending
    /// load (`DMiss`), a fetch the pending-fill guard will answer until
    /// the line's own fill lands (`IFetch`), or an `XCOMMIT` without the
    /// commit token (`Sync`). Other stalls end on timers or on traffic
    /// that is cheaper to re-check than to track (DESIGN.md §14.1).
    fn park(&mut self, i: usize, reason: StallReason) {
        if self.cores[i].state != CoreState::Running {
            return;
        }
        let bit = 1u64 << i;
        match reason {
            StallReason::DMiss => {}
            StallReason::IFetch
                if self
                    .fetch_addr(i)
                    .is_some_and(|addr| self.memsys.ifetch_peek(i, addr) == Fetch::Waiting) => {}
            StallReason::Sync
                if self
                    .current(i)
                    .is_some_and(|d| d.class == IssueClass::Xcommit) =>
            {
                self.token_waiters |= bit;
            }
            _ => return,
        }
        self.parked |= bit;
        self.parked_at[i] = self.ticked;
    }

    /// Credit parked core `i` with the L1I hits of the ticks it sat out
    /// up to tick `upto`. Each would have re-fetched its current line
    /// through the last-line shortcut (DESIGN.md §14.3) — one hit, no
    /// lookup — unless the fetch itself is what stalls it, which the
    /// pending-fill guard answers without counting.
    fn credit_parked(&mut self, i: usize, upto: u64) {
        if self.decisions[i] != Decision::Stall(StallReason::IFetch) {
            self.memsys.credit_ifetch_hits(i, upto - self.parked_at[i]);
        }
    }

    /// The parked-core invariant, checked on every tick of a debug build:
    /// each of `cores` (parked, and not woken this tick) re-derives the
    /// decision it holds, with [`MemSys::ifetch_peek`] answering its
    /// fetch.
    #[cfg(debug_assertions)]
    fn check_parked(&self, cores: u64) {
        for i in bits(cores) {
            let fetched = self
                .fetch_addr(i)
                .is_some_and(|addr| self.memsys.ifetch_peek(i, addr) == Fetch::Hit);
            let now = self.decide(i, fetched).ok();
            let held = self.decisions[i];
            assert_eq!(
                now,
                Some(held),
                "core {i} parked at cycle {} holds {held:?} but now decides {now:?}",
                self.cycle
            );
        }
    }

    /// The rider invariant, checked on every coupled tick of a debug
    /// build: each rider, synced, sits on a NOP in the line its last
    /// fetch hit, and [`Machine::decide`] issues it.
    #[cfg(debug_assertions)]
    fn check_riders(&mut self) {
        for i in bits(self.riders) {
            let (synced, end) = self.rides[i];
            assert!(self.ride_clock < end, "core {i} rides past its end");
            let pc = self.cores[i].pc;
            let at = pc + (self.ride_clock - synced) as u32;
            self.cores[i].pc = at;
            let held = self
                .fetch_addr(i)
                .is_some_and(|addr| self.memsys.fetch_line_held(i, addr));
            let nop = self.current(i).is_some_and(|d| d.is_nop);
            let now = self.decide(i, held).ok();
            self.cores[i].pc = pc;
            assert!(
                held && nop && now == Some(Decision::Issue),
                "core {i} rides at cycle {} but at pc {at} decides {now:?} \
                 (line held: {held}, NOP: {nop})",
                self.cycle
            );
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
        if let Some(obs) = self.obs.as_deref_mut() {
            // At most one grant per bank per tick, and ticks clear the
            // grant buffer, so draining here sees every grant once.
            for (core, kind, start, finish) in self.memsys.take_grants() {
                obs.tracer.event(TraceEvent::Bus {
                    start,
                    finish,
                    core,
                    kind,
                });
            }
        }
        self.net.tick(now);
        if self.faults.is_some() {
            self.check_fault_ports()?;
        }
        self.try_mode_switch()?;

        // Only cores whose decision can differ from the one they hold are
        // evaluated (DESIGN.md §14.1). A decoupled core that is halted,
        // asleep with no spawn buffered, or waiting at a barrier or commit
        // broadcast keeps its `Quiet` / `Stall(Sync)` until a state change
        // marks it dirty or a spawn lands in its CAM. A parked running
        // core keeps its stall until the one event that can end it — its
        // load fill, its I-fill, a move of the commit token — marks it
        // dirty; its skipped re-fetches are credited when it is next
        // evaluated. Coupled ticks evaluate every core but the riders: a
        // rider's next NOP is in the line its last fetch hit, with its
        // guard ready, so it decides `Issue` and cannot raise the stall
        // bus, and it issues whenever the bus is low. When another member
        // raises the bus, every ride ends and the riders are evaluated
        // with the rest, so their stall is charged as before.
        // Ascending bit order is core order, which is issue order.
        let coupled = self.mode == ExecMode::Coupled;
        let mut active = if coupled {
            self.land_riders();
            self.all_cores() & !self.riders
        } else {
            (self.running & !self.parked) | (self.idle & self.net.spawn_pending()) | self.dirty
        };
        self.dirty = 0;
        #[cfg(debug_assertions)]
        {
            self.check_parked(self.parked & !active);
            self.check_riders();
        }
        for i in bits(self.parked & active) {
            self.credit_parked(i, self.ticked - 1);
        }
        self.parked &= !active;
        self.token_waiters &= !active;
        for i in bits(active) {
            let d = self.check_core(i)?;
            self.decisions[i] = d;
            if let (Decision::Stall(reason), ExecMode::Decoupled) = (d, self.mode) {
                self.park(i, reason);
            }
        }
        // The coupled stall bus: any *running* member's stall stalls the
        // group. Cores already waiting at the mode-switch barrier (or on
        // a bus broadcast) no longer gate lock-step issue — otherwise a
        // one-slot schedule misalignment at a region exit would wedge the
        // whole group.
        let group_stall = match self.mode {
            ExecMode::Coupled => {
                bits(self.running & active).find_map(|i| match self.decisions[i] {
                    Decision::Stall(r) => Some(r),
                    _ => None,
                })
            }
            ExecMode::Decoupled => None,
        };
        let mut progress = false;
        if self.riders != 0 {
            if group_stall.is_some() {
                let riders = self.riders;
                for i in bits(riders) {
                    self.end_ride(i);
                    self.decisions[i] = self.check_core(i)?;
                }
                active |= riders;
            } else {
                // Every rider issues its next NOP.
                self.ride_clock += 1;
                progress = true;
            }
        }
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
                    if coupled {
                        self.start_ride(i);
                    }
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
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.emit_spans(now, region, &self.runs);
        }

        if progress {
            self.last_progress = now;
        } else if self.active_cores() != 0
            && now - self.last_progress > self.cfg.watchdogs.deadlock_window
        {
            // A dump shows every core where it stands.
            self.end_rides();
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
        if now - self.last_arch_change > self.cfg.watchdogs.livelock_window
            && self.active_cores() != 0
        {
            self.end_rides();
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
    /// charging its length to the core's buckets and the current region's.
    /// Issue runs reach the core's buckets per instruction instead
    /// (`exec_core` splits them into useful operations and NOPs); the
    /// region's `issued` takes the whole run, NOPs included.
    fn charge(&mut self, i: usize, upto: u64) {
        let (bucket, since) = self.runs[i];
        self.runs[i].1 = upto;
        let n = upto - since;
        let cs = &mut self.core_stats[i];
        let rb = &mut self.region_table[self.cur_slot].buckets;
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
        for i in bits(self.riders) {
            self.sync_rider(i);
        }
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
        debug_assert_eq!(self.riders, 0, "riders issued on the tick before");
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
            // An interlock clears at a finite cycle: a pending load is `DMiss`.
            if self.decisions[i] == Decision::Stall(StallReason::Interlock) {
                let d = self
                    .current(i)
                    .expect("an interlocked core sits on its instruction");
                wake = wake.min(self.cores[i].operands_ready_at(d));
            }
        }
        if let Some(f) = self.faults.as_deref() {
            wake = wake.min(f.next_event(prev, self.running));
        }
        // Watchdogs: a tick-by-tick run would declare deadlock/livelock
        // on the first cycle past its window, so never jump beyond it —
        // the real tick executed there raises the identical error.
        if self.active_cores() != 0 {
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
        // each running core re-fetching its current instruction, which
        // answers the same on every skipped cycle.
        let n = wake - self.cycle;
        for i in bits(self.running) {
            if let Some(addr) = self.fetch_addr(i) {
                self.memsys.replay_ifetch(i, addr, n);
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
