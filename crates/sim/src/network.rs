//! The dual-mode scalar operand network.
//!
//! * **Direct mode** (coupled execution): per-link single-entry latches.
//!   `PUT` writes the latch at the far end of a mesh link (1 cycle/hop);
//!   the lock-step `GET` consumes it. A broadcast latch per core carries
//!   branch conditions (`BCAST`/`GETB`).
//! * **Queue mode** (decoupled execution): per-core send queues, XY
//!   dimension-ordered routing with per-link occupancy (one message per
//!   link per cycle), and CAM receive queues searched by sender id.
//!   Uncontended latency is `queue_overhead + hops` to queue insertion,
//!   matching the paper's 2 + hops cycles.
//!
//! `SPAWN` rides the queue network as a control message carrying the
//! thread's start block.
//!
//! # Hot-path layout
//!
//! This module sits on the simulator's innermost loop (`tick` runs every
//! simulated cycle; the `can_*` probes run for every stalled instruction
//! every cycle), so the state is laid out for O(1) access with no
//! per-cycle allocation:
//!
//! * Directed-link state (`link_free`, the direct-mode latches, and the
//!   neighbor table) lives in flat arrays indexed `core * 4 + direction`;
//!   every core has at most four mesh links.
//! * The receive CAM is an *indexed* MPMC queue set: one hash-indexed
//!   FIFO per `(sender, tag)` stream (the Virtual-Link-style design),
//!   so `can_recv`/`recv` and tick-time delivery are O(1) regardless of
//!   how many producers or tags converge on a receiver — the old layout
//!   scanned a per-sender bucket list on every probe, which is
//!   O(senders x tags) at 64-core fan-in. Within a stream all messages
//!   cross the same XY route, and link reservations only ever push later
//!   messages further out, so delivery order equals availability order
//!   and the stream head is always the oldest matchable message —
//!   indexed lookup is exact, not an approximation of the scan it
//!   replaced.
//! * Spawn messages keep their own per-sender FIFOs plus a global
//!   delivery sequence number; `take_spawn` picks the earliest-delivered
//!   available head, but only scans the *active-sender list* (senders
//!   with a nonempty spawn FIFO) instead of all cores. Cross-sender
//!   spawn availability is not monotone in delivery sequence (a
//!   later-delivered spawn from a nearer sender can become available
//!   first), so the FIFOs cannot be merged into one queue without
//!   changing semantics; the active list preserves the exact
//!   earliest-delivered-available selection.
//! * Broadcast-latch occupancy is a counter, making `can_bcast` O(1)
//!   instead of an all-cores scan per probe.
//! * Pending work is indexed, so a cycle with none costs nothing: `tick`
//!   walks only the non-empty send queues (one bit per core), and
//!   `next_event` reads a list of the non-empty data streams' heads, the
//!   receivers with a buffered spawn (one bit per core) and the latch
//!   occupancy counters instead of every `(receiver, sender)` stream map.

use crate::config::MachineConfig;
use crate::fault::{
    FaultBudgetReport, FaultKind, FaultPlan, FaultPort, FaultSite, SiteFaults, SiteInjector,
};
use std::collections::{HashMap, VecDeque};
use voltron_ir::hash::IntMap;
use voltron_ir::{BlockId, Dir, Value};

/// Message payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload {
    /// A scalar operand.
    Data(Value),
    /// A fine-grain-thread start address (target core's block id).
    Spawn(BlockId),
}

/// Tag used by region-join tokens; the machine classifies stalls on
/// these receives as synchronization (the paper's call/return sync).
pub const TAG_JOIN: u32 = 0xffff;

/// A network message.
///
/// The receive-queue CAM matches on `(from, tag)`. The paper's CAM keys on
/// the sender id alone; the tag widens the key so the compiler can name
/// individual communicated values instead of relying on fragile positional
/// ordering between sender and receiver code (see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Message {
    /// Sender core.
    pub from: usize,
    /// Destination core.
    pub to: usize,
    /// CAM tag (0 for untagged transfers).
    pub tag: u32,
    /// Payload.
    pub payload: Payload,
}

/// Links per core: one per [`Dir`].
const LINKS: usize = 4;

/// Flat index of a direction (E/W/S/N order is arbitrary but fixed).
fn dir_index(d: Dir) -> usize {
    match d {
        Dir::East => 0,
        Dir::West => 1,
        Dir::South => 2,
        Dir::North => 3,
    }
}

/// One `(sender, tag)` data stream of a receiver's CAM.
#[derive(Debug, Default)]
struct Stream {
    /// `(value, available)` in delivery order.
    q: VecDeque<(Value, u64)>,
    /// This stream's position in [`OperandNetwork::heads`] while `q` is
    /// non-empty (stale otherwise).
    head: usize,
}

type TagMap = IntMap<u32, Stream>;

/// A non-empty data stream and the availability of its head message: one
/// entry of the index `next_event` reads.
#[derive(Debug, Clone, Copy)]
struct StreamHead {
    at: u64,
    to: usize,
    from: usize,
    tag: u32,
}

/// The set bits of `word`, ascending (the core ids of a core set).
pub(crate) fn bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let i = word.trailing_zeros() as usize;
            word &= word - 1;
            i
        })
    })
}

/// Per-receiver CAM state: an indexed MPMC queue set.
#[derive(Debug, Default)]
struct RecvSide {
    /// One FIFO per `(sender, tag)` stream: `data[from]` indexes the
    /// sender directly, the inner map hash-indexes the tag. Entries
    /// persist once created (a drained stream stays as an empty FIFO),
    /// so steady-state delivery never allocates.
    data: Vec<TagMap>,
    /// `spawns[from]`: `(delivery sequence, start block, available)`.
    spawns: Vec<VecDeque<(u64, BlockId, u64)>>,
    /// Senders whose spawn FIFO is nonempty (unordered; `take_spawn`
    /// selects by delivery sequence, not list position).
    spawn_senders: Vec<usize>,
    /// Buffered messages across all streams (data + spawns).
    buffered: usize,
}

impl RecvSide {
    /// Drop `from` from the active-sender list once its FIFO drains.
    fn deactivate_spawn_sender(&mut self, from: usize) {
        if let Some(i) = self.spawn_senders.iter().position(|&s| s == from) {
            self.spawn_senders.swap_remove(i);
        }
    }
}

/// A send-queue entry. Fault-free runs only ever see `enq` vary: the
/// retry state stays zeroed and the sequence number is stamped only when
/// a fault plan is attached, so the hot path is untouched.
#[derive(Debug, Clone, Copy)]
struct SendEntry {
    msg: Message,
    /// Enqueue cycle (for the latency statistic).
    enq: u64,
    /// Drop-retry count for this message (fault injection only).
    attempts: u32,
    /// Cycle before which the head must not reinject (exponential
    /// backoff after a drop; `u64::MAX` parks a head whose budget is
    /// exhausted until the machine surfaces the typed error).
    not_before: u64,
    /// The message was already delivered once; this entry is the
    /// injected duplicate the receiver must dedup.
    dup: bool,
    /// Per-`(from, to, tag)` stream sequence number (fault runs only).
    seq: u64,
}

/// Runtime fault state for the network's three sites. Present only when
/// the machine config carries a fault plan; `None` keeps every fault
/// branch off the fault-free hot path.
#[derive(Debug)]
struct NetFaults {
    drop: SiteInjector,
    delay: SiteInjector,
    dup: SiteInjector,
    port: FaultPort,
    /// `tx_seq[from]`: next sequence number per `(to, tag)` stream.
    tx_seq: Vec<HashMap<(usize, u32), u64>>,
    /// `rx_seq[to][from]`: next expected sequence number per tag; a
    /// delivery below it is a duplicate and is dropped at CAM insertion.
    rx_seq: Vec<Vec<HashMap<u32, u64>>>,
}

impl NetFaults {
    fn new(plan: &FaultPlan, cfg: &MachineConfig) -> Box<NetFaults> {
        let n = cfg.cores;
        Box::new(NetFaults {
            drop: plan.injector(FaultSite::NetDrop),
            delay: plan.injector(FaultSite::NetDelay),
            dup: plan.injector(FaultSite::NetDuplicate),
            port: FaultPort::new(&cfg.watchdogs),
            tx_seq: (0..n).map(|_| HashMap::new()).collect(),
            rx_seq: (0..n).map(|_| vec![HashMap::new(); n]).collect(),
        })
    }
}

/// Network statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Queue-mode messages delivered.
    pub messages: u64,
    /// Total source-to-receive-queue latency of delivered messages.
    pub total_latency: u64,
    /// Direct-mode transfers completed.
    pub direct_transfers: u64,
    /// Broadcasts completed.
    pub broadcasts: u64,
}

/// The operand network (both modes). The default is an empty network of
/// no cores, for [`OperandNetwork::reset`] to size.
#[derive(Debug, Default)]
pub struct OperandNetwork {
    cfg: MachineConfig,
    /// Mesh width, cached off the config (it recomputes per call).
    width: usize,
    /// `neighbor[core * 4 + dir]`, cached off the config.
    neighbor: Vec<Option<usize>>,
    send_q: Vec<VecDeque<SendEntry>>,
    /// Cores whose send queue is non-empty, one bit per core.
    sending: u64,
    recv: Vec<RecvSide>,
    /// Receivers with a spawn buffered (available or not), one bit per
    /// core: exactly the cores whose `spawn_senders` is non-empty.
    spawn_pending: u64,
    /// Every non-empty data stream with its head's availability,
    /// unordered; each stream knows its position ([`Stream::head`]).
    heads: Vec<StreamHead>,
    /// Fault-injection state; `None` on fault-free runs.
    faults: Option<Box<NetFaults>>,
    /// Monotone counter stamping queue-mode deliveries in order.
    deliver_seq: u64,
    /// Next-free cycle per directed mesh link, indexed by the link's
    /// source core and direction.
    link_free: Vec<u64>,
    /// Direct-mode latch at `receiver * 4 + direction-from-receiver`.
    direct: Vec<Option<(Value, u64)>>,
    /// Occupied direct-mode latches.
    direct_occupied: usize,
    /// Broadcast latch per receiving core.
    bcast: Vec<Option<(Value, u64)>>,
    /// Occupied broadcast latches (makes `can_bcast` O(1)).
    bcast_occupied: usize,
    stats: NetStats,
}

impl OperandNetwork {
    /// Build the network for a machine configuration.
    ///
    /// # Panics
    /// See [`OperandNetwork::reset`].
    pub fn new(cfg: &MachineConfig) -> OperandNetwork {
        let mut net = OperandNetwork::default();
        net.reset(cfg);
        net
    }

    // ---- queue mode ----

    /// Enqueue a message into the sender's send queue. Returns false when
    /// the queue is full (the SEND stalls).
    pub fn send(&mut self, from: usize, to: usize, tag: u32, payload: Payload, now: u64) -> bool {
        // Free-spawn idealization: thread-start messages bypass the send
        // queue and land in the target's CAM instantly, so spawn cost
        // vanishes from both the sender (no queue slot, no SendFull) and
        // the receiver (no in-flight wait).
        let msg = Message {
            from,
            to,
            tag,
            payload,
        };
        if self.cfg.ideal.free_spawn && matches!(payload, Payload::Spawn(_)) {
            self.deliver(msg, now);
            return true;
        }
        if self.send_q[from].len() >= self.cfg.queue_depth {
            return false;
        }
        // Stream sequence numbers exist only to let the receiver dedup
        // injected duplicates; fault-free runs never stamp or check them.
        let seq = match self.faults.as_mut() {
            Some(f) => {
                let s = f.tx_seq[from].entry((to, tag)).or_insert(0);
                let seq = *s;
                *s += 1;
                seq
            }
            None => 0,
        };
        self.sending |= 1 << from;
        self.send_q[from].push_back(SendEntry {
            msg,
            enq: now,
            attempts: 0,
            not_before: 0,
            dup: false,
            seq,
        });
        true
    }

    /// True if the sender's queue has room for another message.
    pub fn can_send(&self, from: usize) -> bool {
        self.send_q[from].len() < self.cfg.queue_depth
    }

    /// The receivers with a spawn buffered, available yet or not, one bit
    /// per core. An idle core outside this set cannot start a thread, so
    /// the machine leaves it parked.
    pub fn spawn_pending(&self) -> u64 {
        self.spawn_pending
    }

    /// Insert a routed message into its receiver's CAM, usable from
    /// cycle `available`: the one place the receive side's indexes (the
    /// stream-head list, the active spawn senders, the pending-spawn set,
    /// the occupancy and delivery counters) are maintained on arrival.
    fn deliver(&mut self, msg: Message, available: u64) {
        let side = &mut self.recv[msg.to];
        match msg.payload {
            Payload::Data(v) => {
                let stream = side.data[msg.from].entry(msg.tag).or_default();
                if stream.q.is_empty() {
                    stream.head = self.heads.len();
                    self.heads.push(StreamHead {
                        at: available,
                        to: msg.to,
                        from: msg.from,
                        tag: msg.tag,
                    });
                }
                stream.q.push_back((v, available));
            }
            Payload::Spawn(b) => {
                if side.spawns[msg.from].is_empty() {
                    side.spawn_senders.push(msg.from);
                }
                side.spawns[msg.from].push_back((self.deliver_seq, b, available));
                self.spawn_pending |= 1 << msg.to;
            }
        }
        side.buffered += 1;
        self.deliver_seq += 1;
        self.stats.messages += 1;
    }

    /// True if an available spawn message is waiting at `core`. Scans
    /// only the senders with a nonempty spawn FIFO (usually zero or
    /// one), not all cores.
    pub fn has_spawn(&self, core: usize, now: u64) -> bool {
        let side = &self.recv[core];
        side.spawn_senders.iter().any(|&from| {
            side.spawns[from]
                .front()
                .is_some_and(|&(_, _, at)| at <= now)
        })
    }

    /// True if a data message from `(from, tag)` is available at `core`
    /// (O(1) stream lookup).
    pub fn can_recv(&self, core: usize, from: usize, tag: u32, now: u64) -> bool {
        self.recv[core].data[from]
            .get(&tag)
            .is_some_and(|s| s.q.front().is_some_and(|&(_, at)| at <= now))
    }

    /// Consume the oldest available data message from `(from, tag)` at
    /// `core` (O(1) stream lookup).
    pub fn recv(&mut self, core: usize, from: usize, tag: u32, now: u64) -> Option<Value> {
        let side = &mut self.recv[core];
        let stream = side.data[from].get_mut(&tag)?;
        let &(v, at) = stream.q.front()?;
        if at > now {
            return None;
        }
        stream.q.pop_front();
        side.buffered -= 1;
        let slot = stream.head;
        match stream.q.front() {
            Some(&(_, next)) => self.heads[slot].at = next,
            None => {
                // Drained: drop its index entry and tell the stream that
                // took the vacated position.
                self.heads.swap_remove(slot);
                if let Some(&m) = self.heads.get(slot) {
                    self.recv[m.to].data[m.from]
                        .get_mut(&m.tag)
                        .expect("an indexed stream exists")
                        .head = slot;
                }
            }
        }
        Some(v)
    }

    /// Consume the oldest available spawn message at an idle `core`
    /// (earliest-delivered across all senders, as the CAM scan found it).
    /// Selection order must stay by delivery sequence: availability is
    /// not monotone across senders, so the per-sender FIFOs cannot be
    /// merged — but only active senders are scanned.
    pub fn take_spawn(&mut self, core: usize, now: u64) -> Option<(usize, BlockId)> {
        let side = &mut self.recv[core];
        let mut best: Option<(u64, usize)> = None;
        for &from in &side.spawn_senders {
            if let Some(&(seq, _, at)) = side.spawns[from].front() {
                if at <= now && best.is_none_or(|(s, _)| seq < s) {
                    best = Some((seq, from));
                }
            }
        }
        let (_, from) = best?;
        let (_, blk, _) = side.spawns[from].pop_front().expect("head checked above");
        if side.spawns[from].is_empty() {
            side.deactivate_spawn_sender(from);
            if side.spawn_senders.is_empty() {
                self.spawn_pending &= !(1 << core);
            }
        }
        side.buffered -= 1;
        Some((from, blk))
    }

    /// Advance routing one cycle: each core may inject its send-queue head
    /// if the path's links are free.
    ///
    /// Receive queues are modeled *unbounded*: with a single FIFO per
    /// receiver, finite receive queues deadlock when a decoupled producer
    /// runs many iterations ahead (its broadcast predicates fill a
    /// consumer's queue and block an unrelated pair's data behind
    /// head-of-line). Hardware solves this with per-pair virtual channels
    /// or credits; buffering unboundedly is the standard simulator
    /// idealization and is recorded in DESIGN.md. Send queues stay at the
    /// configured depth, which is what bounds producer run-ahead cost.
    pub fn tick(&mut self, now: u64) {
        for core in bits(self.sending) {
            if self.cfg.ideal.zero_latency_network {
                // Zero-latency idealization: no link serialization either,
                // so the whole queue drains in one tick.
                while self.inject_head(core, now) {}
            } else {
                self.inject_head(core, now);
            }
        }
    }

    /// Inject `core`'s send-queue head if possible; returns true when a
    /// delivery attempt consumed (or re-marked) the head, false when the
    /// queue is empty or the head must wait (backoff, drop).
    fn inject_head(&mut self, core: usize, now: u64) -> bool {
        let Some(&entry) = self.send_q[core].front() else {
            return false;
        };
        // A head backing off after a drop waits for its retry slot.
        if entry.not_before > now {
            return false;
        }
        let msg = entry.msg;
        // Consult the fault injectors at the injection attempt — the
        // architectural event, so the draw sequence is identical with
        // fast-forward on or off. An injected duplicate resend is
        // recovery machinery, not a fresh send: it draws nothing.
        let mut extra_delay = 0;
        let mut duplicate_after = false;
        if let Some(f) = self.faults.as_deref_mut() {
            if !entry.dup {
                if f.drop.fire(now).is_some() {
                    // Dropped at injection: no link is reserved, the
                    // head stays queued and reinjects after backoff.
                    let attempts = entry.attempts + 1;
                    let head = self.send_q[core].front_mut().expect("head exists");
                    if attempts > f.port.budget() {
                        f.drop.note_gave_up();
                        head.not_before = u64::MAX;
                        f.port.fail(FaultBudgetReport {
                            cycle: now,
                            site: FaultSite::NetDrop,
                            attempts,
                            budget: f.port.budget(),
                            detail: format!(
                                "message core {} -> core {} tag {}",
                                msg.from, msg.to, msg.tag
                            ),
                        });
                        f.port.log(now, core, FaultSite::NetDrop, "gave-up");
                    } else {
                        f.drop.note_retried(1);
                        head.attempts = attempts;
                        head.not_before = now + f.port.backoff(attempts);
                        f.port.log(now, core, FaultSite::NetDrop, "dropped");
                    }
                    return false;
                }
                if let Some(FaultKind::Delay(d)) = f.delay.fire(now) {
                    extra_delay = d;
                    f.port.log(now, core, FaultSite::NetDelay, "delayed");
                }
                if f.dup.fire(now).is_some() {
                    duplicate_after = true;
                    f.port.log(now, core, FaultSite::NetDuplicate, "duplicated");
                }
            }
        }
        let available = if self.cfg.ideal.zero_latency_network {
            // Zero-latency idealization: no hops, no fixed overhead,
            // no link reservation (injected faults still delay).
            now + extra_delay
        } else {
            // Walk the XY route, reserving each directed link as it is
            // crossed. A link appears at most once on an XY path, so
            // committing reservations inline is the same as computing
            // the whole path first.
            let w = self.width;
            let (mut x, mut y) = (msg.from % w, msg.from / w);
            let (tx, ty) = (msg.to % w, msg.to / w);
            let mut t = now;
            let mut prev = msg.from;
            while x != tx {
                let d = if x < tx { Dir::East } else { Dir::West };
                x = if x < tx { x + 1 } else { x - 1 };
                let slot = prev * LINKS + dir_index(d);
                t = t
                    .max(self.link_free[slot] + 1)
                    .max(t + self.cfg.hop_latency);
                self.link_free[slot] = t;
                prev = y * w + x;
            }
            while y != ty {
                let d = if y < ty { Dir::South } else { Dir::North };
                y = if y < ty { y + 1 } else { y - 1 };
                let slot = prev * LINKS + dir_index(d);
                t = t
                    .max(self.link_free[slot] + 1)
                    .max(t + self.cfg.hop_latency);
                self.link_free[slot] = t;
                prev = y * w + x;
            }
            // +1: insertion into the receive queue (the second cycle of
            // the paper's 2-cycle fixed overhead; the first was the send
            // queue write, already implied by injecting one cycle after
            // the SEND executed).
            t + self.cfg.queue_overhead - 1 + extra_delay
        };
        if duplicate_after {
            // Keep the head: the next tick reinjects it as the
            // duplicate (consuming real link bandwidth) and the
            // receiver's sequence check drops it at CAM insertion.
            self.send_q[core].front_mut().expect("head exists").dup = true;
        } else {
            self.send_q[core].pop_front();
            if self.send_q[core].is_empty() {
                self.sending &= !(1 << core);
            }
        }
        // Receive-side idempotence: a delivery below the expected
        // stream sequence is a duplicate — count it recovered and
        // drop it before it reaches the CAM.
        if let Some(f) = self.faults.as_deref_mut() {
            let expected = f.rx_seq[msg.to][msg.from].entry(msg.tag).or_insert(0);
            if entry.seq < *expected {
                f.dup.note_recovered();
                f.port.log(now, core, FaultSite::NetDuplicate, "deduped");
                return true;
            }
            *expected = entry.seq + 1;
            if entry.attempts > 0 {
                f.drop.note_recovered();
                f.port.log(now, core, FaultSite::NetDrop, "recovered");
            }
            if extra_delay > 0 {
                f.delay.note_recovered();
            }
        }
        self.deliver(msg, available);
        self.stats.total_latency += available.saturating_sub(entry.enq);
        true
    }

    // ---- direct mode ----

    /// Hop latency of a direct-mode latch write (zero under the
    /// zero-latency idealization: the value is visible the same cycle).
    fn direct_latency(&self) -> u64 {
        if self.cfg.ideal.zero_latency_network {
            0
        } else {
            self.cfg.hop_latency
        }
    }

    /// True when a `PUT` from `core` toward `d` would find its far latch
    /// free (off-mesh directions report false; the `put` itself errors).
    pub fn can_put(&self, core: usize, d: Dir) -> bool {
        match self.neighbor[core * LINKS + dir_index(d)] {
            Some(to) => self.direct[to * LINKS + dir_index(d.opposite())].is_none(),
            None => false,
        }
    }

    /// True when a `BCAST` from `core` would find all peer latches free
    /// (O(1): occupancy counter minus the sender's own latch).
    pub fn can_bcast(&self, from: usize) -> bool {
        self.bcast_occupied == usize::from(self.bcast[from].is_some())
    }

    /// `PUT`: write `value` onto the link in direction `d`. Returns false
    /// (stall) when the far latch is still occupied, or errors when the
    /// link does not exist.
    ///
    /// # Errors
    /// Returns a message naming the core and direction when no neighbor
    /// exists that way (a compiler bug).
    pub fn put(&mut self, from: usize, d: Dir, value: Value, now: u64) -> Result<bool, String> {
        let to = self.neighbor[from * LINKS + dir_index(d)]
            .ok_or_else(|| format!("core {from} has no neighbor to the {d}"))?;
        let slot = to * LINKS + dir_index(d.opposite());
        if self.direct[slot].is_some() {
            return Ok(false);
        }
        self.direct[slot] = Some((value, now + self.direct_latency()));
        self.direct_occupied += 1;
        self.stats.direct_transfers += 1;
        Ok(true)
    }

    /// True when a `GET` from direction `d` at `core` would succeed now.
    pub fn can_get(&self, core: usize, d: Dir, now: u64) -> bool {
        self.direct[core * LINKS + dir_index(d)].is_some_and(|(_, at)| at <= now)
    }

    /// Consume the direct latch at (`core`, `d`).
    pub fn get(&mut self, core: usize, d: Dir, now: u64) -> Option<Value> {
        if !self.can_get(core, d, now) {
            return None;
        }
        self.direct_occupied -= 1;
        self.direct[core * LINKS + dir_index(d)]
            .take()
            .map(|(v, _)| v)
    }

    /// `BCAST`: deliver `value` to every other core's broadcast latch.
    /// Returns false (stall) when any latch is still occupied.
    pub fn bcast(&mut self, from: usize, value: Value, now: u64) -> bool {
        if !self.can_bcast(from) {
            return false;
        }
        for c in 0..self.cfg.cores {
            if c != from {
                self.bcast[c] = Some((value, now + self.direct_latency()));
            }
        }
        self.bcast_occupied += self.cfg.cores - 1;
        self.stats.broadcasts += 1;
        true
    }

    /// True when a `GETB` at `core` would succeed now.
    pub fn can_getb(&self, core: usize, now: u64) -> bool {
        self.bcast[core].is_some_and(|(_, at)| at <= now)
    }

    /// Consume the broadcast latch at `core`.
    pub fn getb(&mut self, core: usize, now: u64) -> Option<Value> {
        if !self.can_getb(core, now) {
            return None;
        }
        let v = self.bcast[core].take().map(|(v, _)| v);
        self.bcast_occupied -= 1;
        v
    }

    /// True when `core` has nothing buffered anywhere — queues in either
    /// direction, its inbound direct-mode latches, or its broadcast latch
    /// (used in debug assertions at region boundaries).
    pub fn quiescent(&self, core: usize) -> bool {
        self.send_q[core].is_empty()
            && self.recv[core].buffered == 0
            && self.direct[core * LINKS..(core + 1) * LINKS]
                .iter()
                .all(Option::is_none)
            && self.bcast[core].is_none()
    }

    // ---- forensics ----
    //
    // Read-only introspection used by the machine's deadlock diagnosis to
    // annotate wait-for-graph edges with queue occupancies.

    /// Messages buffered at `core` from `(from, tag)` — delivered into the
    /// CAM, whether or not available yet this cycle.
    pub fn buffered_from(&self, core: usize, from: usize, tag: u32) -> usize {
        self.recv[core].data[from]
            .get(&tag)
            .map_or(0, |s| s.q.len())
    }

    /// Total messages buffered in `core`'s receive CAM, across all
    /// senders and tags (the interval probes' receive-bucket depth).
    pub fn recv_buffered(&self, core: usize) -> usize {
        self.recv[core].buffered
    }

    /// `core`'s send-queue head destination (if any) and total occupancy.
    pub fn send_queue(&self, core: usize) -> (Option<usize>, usize) {
        (
            self.send_q[core].front().map(|e| e.msg.to),
            self.send_q[core].len(),
        )
    }

    /// Peers whose broadcast latch is still occupied, blocking the next
    /// `BCAST` from `from` until they drain it.
    pub fn bcast_blockers(&self, from: usize) -> Vec<usize> {
        (0..self.cfg.cores)
            .filter(|&c| c != from && self.bcast[c].is_some())
            .collect()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Empty the network and size it for `cfg`, keeping the queue, CAM
    /// and latch allocations it already has: every per-stream FIFO keeps
    /// its capacity.
    ///
    /// # Panics
    /// Panics above 64 cores: the pending-work sets are `u64` words
    /// ([`crate::Machine`] rejects such a configuration with a typed
    /// error before it gets here).
    pub fn reset(&mut self, cfg: &MachineConfig) {
        let n = cfg.cores;
        assert!(n <= 64, "the operand network models at most 64 cores");
        self.width = cfg.mesh_width();
        self.neighbor.clear();
        self.neighbor.resize(n * LINKS, None);
        for core in 0..n {
            for d in [Dir::East, Dir::West, Dir::South, Dir::North] {
                self.neighbor[core * LINKS + dir_index(d)] = cfg.neighbor(core, d);
            }
        }
        for q in &mut self.send_q {
            q.clear();
        }
        self.send_q.resize_with(n, VecDeque::new);
        self.sending = 0;
        self.spawn_pending = 0;
        self.heads.clear();
        self.recv.resize_with(n, RecvSide::default);
        for side in &mut self.recv {
            for streams in &mut side.data {
                for stream in streams.values_mut() {
                    stream.q.clear();
                }
            }
            side.data.resize_with(n, TagMap::default);
            for q in &mut side.spawns {
                q.clear();
            }
            side.spawns.resize_with(n, VecDeque::new);
            side.spawn_senders.clear();
            side.buffered = 0;
        }
        // Fault state is rebuilt rather than cleared: the plan (seeds,
        // rates, sites) is per-request and cheap next to a run.
        self.faults = cfg.faults.as_ref().map(|plan| NetFaults::new(plan, cfg));
        self.deliver_seq = 0;
        self.link_free.clear();
        self.link_free.resize(n * LINKS, 0);
        self.direct.clear();
        self.direct.resize(n * LINKS, None);
        self.direct_occupied = 0;
        self.bcast.clear();
        self.bcast.resize(n, None);
        self.bcast_occupied = 0;
        self.cfg = cfg.clone();
        self.stats = NetStats::default();
    }

    // ---- fault injection ----

    /// The network's fault port, when the config carries a fault plan.
    pub fn fault_port(&mut self) -> Option<&mut FaultPort> {
        self.faults.as_deref_mut().map(|f| &mut f.port)
    }

    /// Per-site fault counters for the network's three sites.
    pub fn fault_stats(&self) -> Vec<(FaultSite, SiteFaults)> {
        self.faults.as_deref().map_or_else(Vec::new, |f| {
            vec![
                (FaultSite::NetDrop, f.drop.stats()),
                (FaultSite::NetDelay, f.delay.stats()),
                (FaultSite::NetDuplicate, f.dup.stats()),
            ]
        })
    }

    /// Earliest future cycle at which the network's observable state can
    /// change on its own, for the machine's fast-forward engine.
    ///
    /// `Some(now)` whenever any send queue holds a message: injection
    /// happens inside `tick` and depends on link reservations, so the
    /// next tick is not the identity. Otherwise the network is purely a
    /// set of parked values with availability times, and the answer is
    /// the minimum `at > now` across direct latches, broadcast latches,
    /// CAM stream heads and spawn heads (an already-available value stays
    /// available forever, so it never constitutes a *future* event).
    /// Heads suffice because every stream is in availability order, and
    /// only heads may be reported: a message behind one wakes nobody, so
    /// counting it would tick cycles a scan of the heads skips.
    ///
    /// Nothing is scanned that is known to be empty: the send queues, the
    /// stream heads and the spawn receivers are read off their indexes,
    /// and the latch arrays only while their occupancy counters are
    /// non-zero. The result is exactly that of visiting every queue,
    /// latch and stream.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        let mut wake: Option<u64> = None;
        let mut consider = |at: u64| {
            if at > now && wake.is_none_or(|w| at < w) {
                wake = Some(at);
            }
        };
        for core in bits(self.sending) {
            let e = self.send_q[core]
                .front()
                .expect("a sending core has a head");
            if e.not_before <= now {
                return Some(now);
            }
            // A head backing off after a drop retries at `not_before`
            // (a parked gave-up head never does; the machine surfaces
            // the budget error instead).
            if e.not_before != u64::MAX {
                consider(e.not_before);
            }
        }
        if self.direct_occupied > 0 {
            for (_, at) in self.direct.iter().flatten() {
                consider(*at);
            }
        }
        if self.bcast_occupied > 0 {
            for (_, at) in self.bcast.iter().flatten() {
                consider(*at);
            }
        }
        for head in &self.heads {
            consider(head.at);
        }
        for core in bits(self.spawn_pending) {
            let side = &self.recv[core];
            for &from in &side.spawn_senders {
                if let Some(&(_, _, at)) = side.spawns[from].front() {
                    consider(at);
                }
            }
        }
        debug_assert_eq!(wake, self.next_event_by_scan(now), "the indexes drifted");
        wake
    }

    /// [`OperandNetwork::next_event`] computed the exhaustive way — every
    /// send queue, latch, `(receiver, sender, tag)` stream and spawn FIFO
    /// visited, no index consulted. The reference the indexed version is
    /// checked against (on every call in debug builds, and by the
    /// `accounting` suite's random traffic).
    #[doc(hidden)]
    pub fn next_event_by_scan(&self, now: u64) -> Option<u64> {
        if self
            .send_q
            .iter()
            .any(|q| q.front().is_some_and(|e| e.not_before <= now))
        {
            return Some(now);
        }
        let retries = self
            .send_q
            .iter()
            .filter_map(|q| q.front())
            .map(|e| e.not_before)
            .filter(|&at| at != u64::MAX);
        let latches = self.direct.iter().chain(&self.bcast).flatten().map(|l| l.1);
        let streams = self.recv.iter().flat_map(|side| {
            let data = side.data.iter().flat_map(HashMap::values);
            let data = data.filter_map(|s| s.q.front()).map(|m| m.1);
            let spawns = side.spawns.iter().filter_map(VecDeque::front).map(|m| m.2);
            data.chain(spawns)
        });
        retries
            .chain(latches)
            .chain(streams)
            .filter(|&at| at > now)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;

    fn net(cores: usize) -> OperandNetwork {
        OperandNetwork::new(&MachineConfig::paper(cores))
    }

    fn faulty_net(cores: usize, plan: FaultPlan) -> OperandNetwork {
        let mut cfg = MachineConfig::paper(cores);
        cfg.faults = Some(plan);
        OperandNetwork::new(&cfg)
    }

    #[test]
    fn queue_latency_is_two_plus_hops() {
        let mut n = net(4);
        // Send at cycle 10 from core 0 to adjacent core 1 (1 hop).
        assert!(n.send(0, 1, 0, Payload::Data(Value::Int(7)), 10));
        n.tick(11);
        // Available at 10 + 2 + 1 = 13, not earlier.
        assert!(!n.can_recv(1, 0, 0, 12));
        assert!(n.can_recv(1, 0, 0, 13));
        assert_eq!(n.recv(1, 0, 0, 13), Some(Value::Int(7)));
    }

    #[test]
    fn diagonal_costs_two_hops() {
        let mut n = net(4);
        assert!(n.send(0, 3, 0, Payload::Data(Value::Int(1)), 10));
        n.tick(11);
        assert!(!n.can_recv(3, 0, 0, 13));
        assert!(n.can_recv(3, 0, 0, 14)); // 10 + 2 + 2
    }

    #[test]
    fn per_sender_fifo_order() {
        let mut n = net(2);
        n.send(0, 1, 0, Payload::Data(Value::Int(1)), 0);
        n.send(0, 1, 0, Payload::Data(Value::Int(2)), 0);
        for t in 1..10 {
            n.tick(t);
        }
        assert_eq!(n.recv(1, 0, 0, 20), Some(Value::Int(1)));
        assert_eq!(n.recv(1, 0, 0, 20), Some(Value::Int(2)));
        assert_eq!(n.recv(1, 0, 0, 20), None);
    }

    #[test]
    fn recv_matches_sender_id() {
        let mut n = net(4);
        n.send(2, 3, 0, Payload::Data(Value::Int(22)), 0);
        n.send(1, 3, 0, Payload::Data(Value::Int(11)), 0);
        for t in 1..10 {
            n.tick(t);
        }
        // CAM lookup by sender: core 3 can take core 1's message first.
        assert_eq!(n.recv(3, 1, 0, 20), Some(Value::Int(11)));
        assert_eq!(n.recv(3, 2, 0, 20), Some(Value::Int(22)));
    }

    #[test]
    fn send_queue_fills() {
        let mut n = net(2);
        for i in 0..16 {
            assert!(n.send(0, 1, 0, Payload::Data(Value::Int(i)), 0), "send {i}");
        }
        assert!(!n.send(0, 1, 0, Payload::Data(Value::Int(99)), 0));
    }

    #[test]
    fn spawn_messages_are_separate_from_data() {
        let mut n = net(2);
        n.send(0, 1, 0, Payload::Data(Value::Int(5)), 0);
        n.send(0, 1, 0, Payload::Spawn(BlockId(3)), 0);
        for t in 1..10 {
            n.tick(t);
        }
        assert_eq!(n.take_spawn(1, 20), Some((0, BlockId(3))));
        assert!(n.take_spawn(1, 20).is_none());
        assert_eq!(n.recv(1, 0, 0, 20), Some(Value::Int(5)));
    }

    #[test]
    fn spawns_from_distinct_senders_arrive_in_delivery_order() {
        let mut n = net(4);
        // Core 2's spawn is enqueued first; both are delivered the same
        // tick (core order), so core 2's delivery sequence is lower.
        n.send(2, 3, 0, Payload::Spawn(BlockId(7)), 0);
        n.send(1, 3, 0, Payload::Spawn(BlockId(5)), 0);
        for t in 1..10 {
            n.tick(t);
        }
        assert_eq!(n.take_spawn(3, 20), Some((1, BlockId(5))));
        assert_eq!(n.take_spawn(3, 20), Some((2, BlockId(7))));
    }

    #[test]
    fn direct_put_get_one_cycle_per_hop() {
        let mut n = net(4);
        assert_eq!(n.put(0, Dir::East, Value::Int(42), 5), Ok(true));
        // Not visible in the same cycle; visible one hop later.
        assert!(!n.can_get(1, Dir::West, 5));
        assert!(n.can_get(1, Dir::West, 6));
        assert_eq!(n.get(1, Dir::West, 6), Some(Value::Int(42)));
        assert!(!n.can_get(1, Dir::West, 7)); // consumed
    }

    #[test]
    fn put_stalls_on_occupied_latch() {
        let mut n = net(4);
        assert_eq!(n.put(0, Dir::East, Value::Int(1), 0), Ok(true));
        assert_eq!(n.put(0, Dir::East, Value::Int(2), 1), Ok(false));
        n.get(1, Dir::West, 2);
        assert_eq!(n.put(0, Dir::East, Value::Int(2), 2), Ok(true));
    }

    #[test]
    fn put_off_mesh_is_an_error() {
        let mut n = net(2);
        assert!(n.put(0, Dir::West, Value::Int(1), 0).is_err());
        assert!(n.put(1, Dir::South, Value::Int(1), 0).is_err());
    }

    #[test]
    fn broadcast_reaches_all_others() {
        let mut n = net(4);
        assert!(n.bcast(2, Value::Pred(true), 10));
        for c in [0usize, 1, 3] {
            assert!(!n.can_getb(c, 10));
            assert!(n.can_getb(c, 11));
        }
        assert!(!n.can_getb(2, 11));
        assert_eq!(n.getb(0, 11), Some(Value::Pred(true)));
        // Occupied until everyone consumed.
        assert!(!n.bcast(2, Value::Pred(false), 12));
        n.getb(1, 12);
        n.getb(3, 12);
        assert!(n.bcast(2, Value::Pred(false), 13));
    }

    #[test]
    fn link_contention_delays_second_message() {
        let mut n = net(2);
        n.send(0, 1, 0, Payload::Data(Value::Int(1)), 0);
        n.send(0, 1, 0, Payload::Data(Value::Int(2)), 0);
        n.tick(1);
        n.tick(2);
        // First available at 3; second injected a cycle later at 4.
        assert!(n.can_recv(1, 0, 0, 3));
        n.recv(1, 0, 0, 3);
        assert!(!n.can_recv(1, 0, 0, 3));
        assert!(n.can_recv(1, 0, 0, 4));
    }

    #[test]
    fn dropped_flit_retries_after_backoff_and_delivers() {
        let plan = FaultPlan::seeded(0, 0.0).with_event(0, FaultKind::Drop);
        let mut n = faulty_net(2, plan);
        assert!(n.send(0, 1, 7, Payload::Data(Value::Int(42)), 0));
        // First injection attempt (cycle 1) drops; backoff base is 8, so
        // the head reinjects at cycle 9 and is available at 9 + 1 hop
        // + 1 insertion cycle.
        n.tick(1);
        assert_eq!(n.next_event(1), Some(9));
        for t in 2..=9 {
            n.tick(t);
        }
        assert!(!n.can_recv(1, 0, 7, 10));
        assert!(n.can_recv(1, 0, 7, 11));
        assert_eq!(n.recv(1, 0, 7, 11), Some(Value::Int(42)));
        let drop = n.fault_stats()[FaultSite::NetDrop.index()].1;
        assert_eq!((drop.injected, drop.retried, drop.recovered), (1, 1, 1));
        assert!(n.fault_port().and_then(FaultPort::take_failure).is_none());
    }

    #[test]
    fn delayed_flit_arrives_late_but_intact() {
        let plan = FaultPlan::seeded(0, 0.0).with_event(0, FaultKind::Delay(5));
        let mut n = faulty_net(2, plan);
        assert!(n.send(0, 1, 0, Payload::Data(Value::Int(9)), 10));
        n.tick(11);
        // Fault-free availability is 13; the injected delay adds 5.
        assert!(!n.can_recv(1, 0, 0, 17));
        assert!(n.can_recv(1, 0, 0, 18));
        assert_eq!(n.recv(1, 0, 0, 18), Some(Value::Int(9)));
        let delay = n.fault_stats()[FaultSite::NetDelay.index()].1;
        assert_eq!((delay.injected, delay.recovered), (1, 1));
    }

    #[test]
    fn duplicated_flit_is_deduped_at_the_receiver() {
        let plan = FaultPlan::seeded(0, 0.0).with_event(0, FaultKind::Duplicate);
        let mut n = faulty_net(2, plan);
        assert!(n.send(0, 1, 0, Payload::Data(Value::Int(1)), 0));
        assert!(n.send(0, 1, 0, Payload::Data(Value::Int(2)), 0));
        for t in 1..10 {
            n.tick(t);
        }
        // The receiver sees each value exactly once, in order.
        assert_eq!(n.recv(1, 0, 0, 20), Some(Value::Int(1)));
        assert_eq!(n.recv(1, 0, 0, 20), Some(Value::Int(2)));
        assert_eq!(n.recv(1, 0, 0, 20), None);
        let dup = n.fault_stats()[FaultSite::NetDuplicate.index()].1;
        assert_eq!((dup.injected, dup.recovered), (1, 1));
        assert!(n.quiescent(0) && n.quiescent(1));
    }

    #[test]
    fn drop_budget_exhaustion_fails_closed() {
        // Rate 1.0 on the drop site alone: every injection attempt drops,
        // so the default budget of 8 retries must run out.
        let mut n = faulty_net(2, FaultPlan::seeded(1, 1.0).only(FaultSite::NetDrop));
        assert!(n.send(0, 1, 3, Payload::Data(Value::Int(5)), 0));
        for t in 1..2100 {
            n.tick(t);
        }
        let report = n
            .fault_port()
            .and_then(FaultPort::take_failure)
            .expect("budget must exhaust");
        assert_eq!(report.site, FaultSite::NetDrop);
        assert!(report.attempts > report.budget);
        assert!(report.detail.contains("core 0 -> core 1"));
        let drop = n.fault_stats()[FaultSite::NetDrop.index()].1;
        assert_eq!(drop.gave_up, 1);
        // The parked head never delivers and never wakes fast-forward.
        assert!(!n.can_recv(1, 0, 3, 10_000));
        assert_eq!(n.next_event(2100), None);
    }

    #[test]
    fn quiescent_sees_queues_latches_and_broadcasts() {
        let mut n = net(4);
        assert!((0..4).all(|c| n.quiescent(c)));
        // A queued (not yet delivered) message makes the sender busy.
        n.send(0, 1, 0, Payload::Data(Value::Int(1)), 0);
        assert!(!n.quiescent(0));
        n.tick(1);
        // Delivered but unconsumed: the receiver is busy, sender is clear.
        assert!(n.quiescent(0));
        assert!(!n.quiescent(1));
        n.recv(1, 0, 0, 10);
        assert!(n.quiescent(1));
        // An occupied direct latch belongs to the receiving core.
        n.put(0, Dir::East, Value::Int(9), 10).unwrap();
        assert!(!n.quiescent(1));
        assert!(n.quiescent(0));
        n.get(1, Dir::West, 11);
        assert!(n.quiescent(1));
        // A pending broadcast marks every peer busy until consumed.
        assert!(n.bcast(2, Value::Pred(true), 12));
        assert!(n.quiescent(2));
        assert!(!n.quiescent(0) && !n.quiescent(1) && !n.quiescent(3));
        for c in [0, 1, 3] {
            n.getb(c, 13);
        }
        assert!((0..4).all(|c| n.quiescent(c)));
    }
}
