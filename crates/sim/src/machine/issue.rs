//! The issue path: each core's register file and scoreboard, the
//! per-cycle decision (fetch, interlocks, network and commit readiness),
//! and the execution of the instruction a core issues, transactional
//! memory included.

use super::{ran_off_end, CoreState, Machine, SimError};
use crate::decode::{bits_value, value_bits, BrTarget, DInst, DOp, DecodedCore, IssueClass};
use crate::memsys::{Completion, LoadOutcome};
use crate::network::Payload;
use crate::stats::StallReason;
use crate::trace::TraceEvent;
use voltron_ir::{BlockId, MemError, Reg, RegClass, Value};

#[derive(Debug, Clone)]
pub(super) struct Snapshot {
    /// The architectural registers (the constant pool never changes).
    regs: Vec<u64>,
    pc: u32,
}

#[derive(Debug, Default)]
pub(super) struct Core {
    pub(super) state: CoreState,
    /// Flat index into the core's decoded image (`crate::decode`).
    pub(super) pc: u32,
    /// Register bits by decoded slot: every class back to back, then the
    /// image's constant pool. Empty until the image is decoded.
    regs: Vec<u64>,
    /// Cycle at which each slot's value is available; `u64::MAX` marks a
    /// pending (in-flight load) result. Constant slots stay 0.
    ready: Vec<u64>,
    epoch: u64,
    pending_load: bool,
    pub(super) snapshot: Option<Snapshot>,
}

impl Core {
    /// Size the register file and scoreboard for a freshly decoded image.
    pub(super) fn load_image(&mut self, image: &DecodedCore) {
        self.regs.clear();
        self.regs.resize(image.n_regs(), 0);
        self.regs.extend_from_slice(&image.consts);
        self.ready.clear();
        self.ready.resize(self.regs.len(), 0);
    }

    /// The cycle at which `d`'s sources, guard and destination are all
    /// available (`u64::MAX` while a load result is pending).
    pub(super) fn operands_ready_at(&self, d: &DInst) -> u64 {
        d.sb.iter().fold(0, |t, &s| t.max(self.ready[s as usize]))
    }

    /// Return the core to its just-built state. The register file keeps
    /// its allocation; the next tick's [`Core::load_image`] rewrites it.
    pub(super) fn reset(&mut self) {
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
pub(super) enum Decision {
    Issue,
    Stall(StallReason),
    StartThread,
    Quiet,
}

impl Machine {
    /// Decide what core `i` does this cycle, fetching its instruction.
    /// The only error is a running core whose last transfer (branch,
    /// spawn, rollback) landed past the last instruction of its image.
    pub(super) fn check_core(&mut self, i: usize) -> Result<Decision, SimError> {
        let fetched = self
            .fetch_addr(i)
            .is_some_and(|addr| self.memsys.ifetch(i, addr));
        self.decide(i, fetched)
    }

    /// Where core `i`'s front end fetches from this cycle: its current
    /// instruction's address when it is running on one and no injected
    /// fetch hiccup blocks it. A hiccup stalls fetch before it reaches the
    /// I-cache, so no L1I access is made. Inlined: every core check calls it.
    #[inline]
    pub(super) fn fetch_addr(&self, i: usize) -> Option<u64> {
        let core = &self.cores[i];
        let image = &self.decoded.cores[i];
        let on_inst = (core.pc as usize) < image.insts.len();
        let faults = self.faults.as_deref();
        let unblocked = faults.is_none_or(|f| self.cycle >= f.fetch_block[i]);
        (core.state == CoreState::Running && on_inst && unblocked)
            .then(|| image.fetch_addr(core.pc))
    }

    /// The decision of [`Machine::check_core`] once the fetch is answered
    /// (`fetched`: the instruction came out of the I-cache), without side
    /// effects.
    pub(super) fn decide(&self, i: usize, fetched: bool) -> Result<Decision, SimError> {
        let now = self.cycle;
        let core = &self.cores[i];
        let decision = match core.state {
            CoreState::Idle if self.net.has_spawn(i, now) => Decision::StartThread,
            CoreState::Halted | CoreState::Idle => Decision::Quiet,
            CoreState::AtSwitch(_) | CoreState::WaitBus => Decision::Stall(StallReason::Sync),
            CoreState::Running => {
                let image = &self.decoded.cores[i];
                let Some(d) = image.insts.get(core.pc as usize) else {
                    return Err(ran_off_end(i));
                };
                if !fetched {
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
    pub(super) fn note_tm_abort(&mut self, c: usize) {
        let wasted = self.cycle - self.tm_begin_cycle[c];
        self.tm_wasted += wasted;
        let (_, slot) = self.master_region();
        self.region_table[slot].tm_wasted += wasted;
    }

    pub(super) fn restore_core(&mut self, i: usize) {
        let snap = self.cores[i]
            .snapshot
            .take()
            .expect("aborted transaction must have a snapshot");
        let core = &mut self.cores[i];
        core.regs[..snap.regs.len()].copy_from_slice(&snap.regs);
        core.pc = snap.pc;
        core.ready.fill(0);
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

    #[allow(clippy::too_many_lines)]
    pub(super) fn exec_core(&mut self, i: usize) -> Result<(), SimError> {
        let now = self.cycle;
        let d = self.decoded.cores[i].insts[self.cores[i].pc as usize];
        self.fault_at_issue(i, d.net_op);
        self.dynamic_insts += 1;
        if d.is_nop {
            self.core_stats[i].nops += 1;
        } else {
            self.core_stats[i].issued += 1;
            if let Some(obs) = self.obs.as_deref_mut().filter(|o| o.issues) {
                let block = &self.image.program().cores[i].blocks[d.block as usize];
                obs.tracer.event(TraceEvent::Issue {
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
                    };
                    // A BTR jump past the image's end is the next tick's
                    // error (`check_core`); invariant 0 rules out the rest.
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
                if let Some(f) = self.faults.as_deref_mut() {
                    f.txn_irrevocable[i] = false;
                }
                self.tm_begin_cycle[i] = now;
                self.tm.begin(i, order);
                if order == 0 {
                    // Order 0 resets the commit token.
                    self.dirty |= self.token_waiters;
                }
                self.trace(TraceEvent::TmBegin {
                    cycle: now,
                    core: i,
                    order,
                });
            }
            DOp::Xcommit => {
                if self.fault_tm_at_commit(i)? {
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
                // The token moved on.
                self.dirty |= self.token_waiters;
                self.cores[i].snapshot = None;
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

    /// Apply a memory-system completion. A load or I-cache fill for a
    /// parked core is the event it waits on (any load fill, whatever its
    /// epoch: a stale one only costs a re-evaluation).
    pub(super) fn dispatch(&mut self, c: Completion) {
        match c {
            Completion::LoadFill { core, dst, epoch } => {
                if self.cores[core].epoch == epoch {
                    let slot = self.decoded.cores[core].slot(dst);
                    self.cores[core].ready[slot as usize] = self.cycle + 1;
                    self.cores[core].pending_load = false;
                }
                self.dirty |= self.parked & 1 << core;
            }
            Completion::IFillDone { core } => self.dirty |= self.parked & 1 << core,
            Completion::TmCommitDone { core } => {
                if self.cores[core].state == CoreState::WaitBus {
                    self.set_state(core, CoreState::Running);
                }
            }
        }
    }
}
