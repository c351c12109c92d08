//! The chaos layer's machine-side hooks (DESIGN.md §10): the spurious
//! transaction abort drawn at `XCOMMIT`, the fetch hiccup drawn at issue,
//! and the subsystems' fault ports checked every tick.

use super::{Machine, SimError};
use crate::fault::{FaultBudgetReport, FaultKind, FaultPlan, FaultSite, FaultStats, SiteInjector};
use crate::network::bits;
use crate::trace::TraceEvent;

/// Runtime fault state for the machine's two sites, spurious TM aborts and
/// fetch hiccups: the machine's counterpart of `MemFaults` and `NetFaults`.
pub(super) struct MachineFaults {
    /// Spurious-abort injector, drawn at a revocable transaction's commit.
    tm: SiteInjector,
    /// Instruction-fetch hiccup injector (drawn at issue).
    fetch: SiteInjector,
    /// First cycle each core's fetch works again after a hiccup (0: clear).
    pub(super) fetch_block: Vec<u64>,
    /// Consecutive spurious aborts per core since its last commit, held
    /// to the retry budget.
    tm_streak: Vec<u32>,
    /// Per-core irrevocability latch: set once the live transaction has
    /// issued a network operation (SEND/RECV/BCAST/GETB/SPAWN). Such a
    /// transaction can no longer be rolled back — the message is in
    /// flight, and a replay from the snapshot would duplicate it — so
    /// the spurious-abort injector must skip it. Genuine conflict
    /// aborts never hit these: only the order-0 master chunk wraps the
    /// spawn/live-in sends, and nothing ever outranks order 0.
    pub(super) txn_irrevocable: Vec<bool>,
}

impl MachineFaults {
    pub(super) fn new(plan: &FaultPlan, cores: usize) -> Box<MachineFaults> {
        Box::new(MachineFaults {
            tm: plan.injector(FaultSite::TmAbort),
            fetch: plan.injector(FaultSite::Fetch),
            fetch_block: vec![0; cores],
            tm_streak: vec![0; cores],
            txn_irrevocable: vec![false; cores],
        })
    }

    /// The first cycle after `prev` a fast-forward must tick for this
    /// layer: a `running` core's fetch hiccup expiring (a pure timer) or
    /// a directed event falling due, so it fires at the same issue
    /// opportunity with fast-forward on or off.
    pub(super) fn next_event(&self, prev: u64, running: u64) -> u64 {
        let mut wake = u64::MAX;
        for i in bits(running) {
            if self.fetch_block[i] > prev {
                wake = wake.min(self.fetch_block[i]);
            }
        }
        for inj in [&self.tm, &self.fetch] {
            if let Some(t) = inj.next_event(prev) {
                wake = wake.min(t.max(prev + 1));
            }
        }
        wake
    }
}

impl Machine {
    /// Fail closed once a subsystem's recovery exhausted its retry budget
    /// (a parked request never completes: going on ends in a misleading
    /// deadlock report), and hand its buffered fault events to the tracer.
    pub(super) fn check_fault_ports(&mut self) -> Result<(), SimError> {
        let mut obs = self.obs.as_deref_mut();
        let ports = [self.memsys.fault_port(), self.net.fault_port()];
        for port in ports.into_iter().flatten() {
            if let Some(r) = port.take_failure() {
                return Err(SimError::FaultBudget(r));
            }
            if let Some(obs) = obs.as_deref_mut() {
                for (cycle, core, site, action) in port.take_events() {
                    obs.tracer.event(TraceEvent::Fault {
                        cycle,
                        core,
                        site,
                        action,
                    });
                }
            }
        }
        Ok(())
    }

    /// Consult the fetch-hiccup injector at an issue opportunity of core
    /// `i`, and latch the live transaction irrevocable when the issuing
    /// instruction is a network operation (`net_op`). The draw happens
    /// only here — at instruction issue, an architectural event — so the
    /// RNG stream advances identically with fast-forward on or off
    /// (skipped spans issue nothing).
    pub(super) fn fault_at_issue(&mut self, i: usize, net_op: bool) {
        let now = self.cycle;
        let Some(f) = self.faults.as_deref_mut() else {
            return;
        };
        if net_op && self.tm.active(i) {
            f.txn_irrevocable[i] = true;
        }
        // Fetch hiccup: the *next* fetches of this core stall for `d`
        // cycles; the instruction issuing now is already past fetch. A
        // bounded transient absorbed purely in time — recovered at once.
        let Some(FaultKind::FetchHiccup(d)) = f.fetch.fire(now) else {
            return;
        };
        f.fetch.note_recovered();
        f.fetch_block[i] = now + 1 + d;
        self.trace(TraceEvent::Fault {
            cycle: now,
            core: i,
            site: FaultSite::Fetch,
            action: "fetch hiccup",
        });
    }

    /// Consult the spurious-abort injector at a commit attempt of core
    /// `i`'s transaction. Returns `Ok(true)` when the abort consumed the
    /// slot (the core rolled back to its `XBEGIN` instead of committing).
    ///
    /// The draw happens at `XCOMMIT` issue — an architectural event, so
    /// the RNG stream advances identically with fast-forward on or off —
    /// and only for *revocable* transactions (no network op issued since
    /// `XBEGIN`; see [`MachineFaults::txn_irrevocable`]). Drawing per
    /// commit rather than per issued instruction makes the plan's `rate`
    /// a per-transaction abort probability, so a long chunk is exactly as
    /// survivable as a short one and the consecutive-abort budget is only
    /// exhausted by genuinely unsurvivable plans (rate ≈ 1).
    pub(super) fn fault_tm_at_commit(&mut self, i: usize) -> Result<bool, SimError> {
        let now = self.cycle;
        let Some(f) = self.faults.as_deref_mut() else {
            return Ok(false);
        };
        if f.txn_irrevocable[i] || self.cores[i].snapshot.is_none() || f.tm.fire(now).is_none() {
            f.tm_streak[i] = 0; // the commit goes through
            return Ok(false);
        }
        let budget = self.cfg.watchdogs.fault_retry_budget;
        let attempts = f.tm_streak[i] + 1;
        if attempts > budget {
            f.tm.note_gave_up();
            let order = self.tm.order_of(i).unwrap_or(0);
            return Err(SimError::FaultBudget(FaultBudgetReport {
                cycle: now,
                site: FaultSite::TmAbort,
                attempts,
                budget,
                detail: format!("transaction on core {i} (chunk order {order})"),
            }));
        }
        f.tm.note_retried(1);
        f.tm.note_recovered();
        f.tm_streak[i] = attempts;
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

    /// Every site's injection and recovery counts: the network's and the
    /// interconnect's, then the machine's own.
    pub(super) fn fault_stats(&self) -> FaultStats {
        let mut faults = FaultStats::default();
        for (site, sf) in self
            .net
            .fault_stats()
            .into_iter()
            .chain(self.memsys.fault_stats())
        {
            faults.site_mut(site).absorb(&sf);
        }
        if let Some(f) = &self.faults {
            faults.site_mut(FaultSite::TmAbort).absorb(&f.tm.stats());
            faults.site_mut(FaultSite::Fetch).absorb(&f.fetch.stats());
        }
        faults
    }
}
