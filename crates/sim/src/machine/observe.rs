//! Observers: the tracer's machine-side state and the events it is
//! sent, and the interval probes.

use super::{Decision, Machine};
use crate::mcode::RegionId;
use crate::obs::ProbeSample;
use crate::stats::StallReason;
use crate::trace::{TraceEvent, Tracer};

/// An installed tracer and the span state that lets the machine send it
/// transitions alone. Present only after [`Machine::set_tracer`].
pub(super) struct Tracing {
    pub(super) tracer: Box<dyn Tracer>,
    /// Whether the tracer is sent [`TraceEvent::Issue`] (asked once, by
    /// [`Machine::set_tracer`]).
    pub(super) issues: bool,
    /// The stall reason each core's open stall span carries (`None` when
    /// no span is open).
    stall: Vec<Option<StallReason>>,
    /// The region whose span is currently open.
    region: Option<RegionId>,
}

impl Tracing {
    /// Emit stall-span and region-span transitions for the tick at `now`,
    /// given each core's open accounting run. Only transitions produce
    /// events, so a long stall is two events and fast-forwarded spans need
    /// none: the decisions they replay are frozen, so no transition occurs
    /// there.
    pub(super) fn emit_spans(&mut self, now: u64, region: RegionId, runs: &[(Decision, u64)]) {
        for (i, &(bucket, _)) in runs.iter().enumerate() {
            // The charged reason: the group's, under a raised stall bus.
            let eff = match bucket {
                Decision::Stall(r) => Some(r),
                _ => None,
            };
            if eff != self.stall[i] {
                if self.stall[i].is_some() {
                    self.tracer.event(TraceEvent::StallEnd {
                        cycle: now,
                        core: i,
                    });
                }
                if let Some(reason) = eff {
                    self.tracer.event(TraceEvent::StallBegin {
                        cycle: now,
                        core: i,
                        reason,
                    });
                }
                self.stall[i] = eff;
            }
        }
        if self.region != Some(region) {
            if let Some(old) = self.region {
                self.tracer.event(TraceEvent::RegionExit {
                    cycle: now,
                    region: old,
                });
            }
            self.tracer
                .event(TraceEvent::RegionEnter { cycle: now, region });
            self.region = Some(region);
        }
    }
}

impl Machine {
    /// Install an execution tracer (see [`crate::trace`]).
    pub fn set_tracer(&mut self, t: Box<dyn Tracer>) {
        self.obs = Some(Box::new(Tracing {
            issues: t.wants_issues(),
            tracer: t,
            stall: vec![None; self.cores.len()],
            region: None,
        }));
        // Fault events are buffered by the subsystems only while someone
        // will drain them.
        let ports = [self.memsys.fault_port(), self.net.fault_port()];
        for port in ports.into_iter().flatten() {
            port.set_logging(true);
        }
    }

    pub(super) fn trace(&mut self, e: TraceEvent<'_>) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.tracer.event(e);
        }
    }

    /// Record one interval sample. Both callers — the tick path and
    /// fast-forward — invoke this with `self.cycle` sitting exactly on a
    /// period boundary; the flush brings all counters up to cover cycles
    /// `0..self.cycle`, which is what makes the series bit-identical
    /// with fast-forward on or off.
    pub(super) fn sample_probes(&mut self) {
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
}
