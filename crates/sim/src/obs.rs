//! Observability: Chrome-trace export and interval time-series probes.
//!
//! Two complementary lenses, both zero-overhead when off:
//!
//! * [`ChromeTracer`] — a [`Tracer`] that renders the machine's span
//!   events (stall phases, planner regions, TM transactions, bus
//!   occupancy, mode residency, SEND→RECV edges) as Chrome trace-event
//!   JSON, loadable in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`. One timeline track per core, plus TM tracks per
//!   core and machine-wide region/mode/bus tracks.
//! * [`ProbeSeries`] — an interval sampler (period set by
//!   [`crate::MachineConfig::probe_period`]) recording per-core
//!   occupancy counters, operand-network queue depths, TM read/write-set
//!   sizes, and bus utilization every `period` cycles. The series is
//!   bit-identical with fast-forward on or off: `Machine::fast_forward`
//!   stops at every period boundary inside a skipped span, and sampling
//!   first charges every open accounting run up to the boundary
//!   (DESIGN.md §8).
//!
//! Nothing here parses JSON; both renderers emit it with plain string
//! building, mirroring `voltron-core`'s report writer.

use crate::stats::StallReason;
use crate::trace::{TraceEvent, Tracer};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use voltron_ir::ExecMode;

/// Virtual thread id of the planner-region track.
const TID_REGION: u64 = 90;
/// Virtual thread id of the execution-mode track.
const TID_MODE: u64 = 91;
/// Virtual thread id of the bus-occupancy track.
const TID_BUS: u64 = 92;
/// Virtual thread id of the fault-injection track.
const TID_FAULT: u64 = 93;
/// Base virtual thread id of the per-core TM tracks.
const TID_TM_BASE: u64 = 100;

/// A [`Tracer`] rendering machine events as Chrome trace-event JSON.
///
/// Spans arrive as begin/end pairs; any still open when the run ends are
/// closed at the last observed cycle by [`ChromeTracer::render`].
/// Instruction issues are ignored (a per-instruction timeline would dwarf
/// everything else); the structural timeline is the point.
#[derive(Debug, Default)]
pub struct ChromeTracer {
    /// Rendered event objects, in arrival order.
    events: Vec<String>,
    /// Tids that already got a `thread_name` metadata record.
    named: BTreeSet<u64>,
    /// Open stall span per core.
    open_stall: BTreeMap<usize, (u64, StallReason)>,
    /// Open region span.
    open_region: Option<(u64, u32)>,
    /// Open transaction span per core.
    open_txn: BTreeMap<usize, (u64, u32)>,
    /// Start cycle of the current mode-residency span, if a switch was
    /// seen (the machine starts decoupled; residency before the first
    /// switch is synthesized in `render`).
    open_mode: Option<(u64, ExecMode)>,
    /// Pending SEND flow ids per `(from, to, tag)`, FIFO.
    pending_flows: HashMap<(usize, usize, u32), VecDeque<u64>>,
    /// Next flow id.
    next_flow: u64,
    /// Largest cycle seen in any event.
    max_ts: u64,
}

impl ChromeTracer {
    /// A fresh tracer.
    pub fn new() -> ChromeTracer {
        ChromeTracer::default()
    }

    /// Number of events captured so far (metadata records included).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no event has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    fn see(&mut self, ts: u64) {
        self.max_ts = self.max_ts.max(ts);
    }

    /// Emit the `thread_name` metadata record for `tid` once.
    fn name_tid(&mut self, tid: u64) {
        if !self.named.insert(tid) {
            return;
        }
        let name = match tid {
            TID_REGION => "regions".to_string(),
            TID_MODE => "mode".to_string(),
            TID_BUS => "bus".to_string(),
            TID_FAULT => "faults".to_string(),
            t if t >= TID_TM_BASE => format!("tm {}", t - TID_TM_BASE),
            t => format!("core {t}"),
        };
        self.events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
        // Sort core tracks first, then TM, then the machine-wide tracks.
        let rank = match tid {
            t if t < TID_REGION => t,
            t if t >= TID_TM_BASE => 1000 + t,
            t => 2000 + t,
        };
        self.events.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"sort_index\":{rank}}}}}"
        ));
    }

    fn begin(&mut self, tid: u64, ts: u64, cat: &str, name: &str) {
        self.name_tid(tid);
        self.see(ts);
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"B\",\"ts\":{ts},\
             \"pid\":1,\"tid\":{tid}}}"
        ));
    }

    fn end(&mut self, tid: u64, ts: u64) {
        self.see(ts);
        self.events.push(render_end(tid, ts));
    }

    fn instant(&mut self, tid: u64, ts: u64, cat: &str, name: &str) {
        self.name_tid(tid);
        self.see(ts);
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":1,\"tid\":{tid},\"s\":\"t\"}}"
        ));
    }

    fn complete(&mut self, tid: u64, ts: u64, dur: u64, cat: &str, name: &str) {
        self.name_tid(tid);
        self.see(ts + dur);
        self.events.push(format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\
             \"dur\":{dur},\"pid\":1,\"tid\":{tid}}}"
        ));
    }

    fn flow(&mut self, tid: u64, ts: u64, id: u64, phase: char) {
        self.see(ts);
        let bind = if phase == 'f' { ",\"bp\":\"e\"" } else { "" };
        self.events.push(format!(
            "{{\"name\":\"msg\",\"cat\":\"net\",\"ph\":\"{phase}\",\"id\":{id},\
             \"ts\":{ts},\"pid\":1,\"tid\":{tid}{bind}}}"
        ));
    }
}

fn render_end(tid: u64, ts: u64) -> String {
    format!("{{\"ph\":\"E\",\"ts\":{ts},\"pid\":1,\"tid\":{tid}}}")
}

fn mode_label(mode: ExecMode) -> &'static str {
    match mode {
        ExecMode::Coupled => "coupled",
        ExecMode::Decoupled => "decoupled",
    }
}

fn region_name(region: u32) -> String {
    if region == crate::mcode::REGION_OUTSIDE {
        "outside".to_string()
    } else {
        format!("region {region}")
    }
}

impl Tracer for ChromeTracer {
    fn event(&mut self, e: TraceEvent<'_>) {
        match e {
            // Per-instruction issues would dwarf the structural timeline.
            TraceEvent::Issue { .. } => {}
            TraceEvent::StallBegin {
                cycle,
                core,
                reason,
            } => {
                self.open_stall.insert(core, (cycle, reason));
                self.begin(core as u64, cycle, "stall", &reason.to_string());
            }
            TraceEvent::StallEnd { cycle, core } => {
                if self.open_stall.remove(&core).is_some() {
                    self.end(core as u64, cycle);
                }
            }
            TraceEvent::RegionEnter { cycle, region } => {
                self.open_region = Some((cycle, region));
                self.begin(TID_REGION, cycle, "region", &region_name(region));
            }
            TraceEvent::RegionExit { cycle, .. } => {
                if self.open_region.take().is_some() {
                    self.end(TID_REGION, cycle);
                }
            }
            TraceEvent::TmBegin { cycle, core, order } => {
                self.open_txn.insert(core, (cycle, order));
                self.begin(
                    TID_TM_BASE + core as u64,
                    cycle,
                    "tm",
                    &format!("txn #{order}"),
                );
            }
            TraceEvent::TmCommit { cycle, core, lines } => {
                if self.open_txn.remove(&core).is_some() {
                    self.end(TID_TM_BASE + core as u64, cycle);
                }
                self.instant(
                    TID_TM_BASE + core as u64,
                    cycle,
                    "tm",
                    &format!("commit ({lines} lines)"),
                );
            }
            TraceEvent::TmAbort { cycle, core } => {
                if self.open_txn.remove(&core).is_some() {
                    self.end(TID_TM_BASE + core as u64, cycle);
                }
                self.instant(TID_TM_BASE + core as u64, cycle, "tm", "abort");
            }
            TraceEvent::BarrierWait { cycle, core, mode } => {
                self.instant(
                    core as u64,
                    cycle,
                    "mode",
                    &format!("at barrier (-> {})", mode_label(mode)),
                );
            }
            TraceEvent::ModeSwitch { cycle, mode } => {
                // Close the previous residency span; before the first
                // switch the machine was decoupled since cycle 0.
                let (start, prev) = self.open_mode.take().unwrap_or((0, ExecMode::Decoupled));
                self.complete(TID_MODE, start, cycle - start, "mode", mode_label(prev));
                self.open_mode = Some((cycle, mode));
            }
            TraceEvent::Bus {
                start,
                finish,
                core,
                kind,
            } => {
                self.complete(
                    TID_BUS,
                    start,
                    finish - start,
                    "bus",
                    &format!("{kind} (core {core})"),
                );
            }
            TraceEvent::MsgSend {
                cycle,
                from,
                to,
                tag,
            } => {
                let id = self.next_flow;
                self.next_flow += 1;
                self.pending_flows
                    .entry((from, to, tag))
                    .or_default()
                    .push_back(id);
                self.instant(
                    from as u64,
                    cycle,
                    "net",
                    &format!("send tag {tag} -> {to}"),
                );
                self.flow(from as u64, cycle, id, 's');
            }
            TraceEvent::MsgRecv {
                cycle,
                core,
                from,
                tag,
            } => {
                self.instant(
                    core as u64,
                    cycle,
                    "net",
                    &format!("recv tag {tag} <- {from}"),
                );
                if let Some(id) = self
                    .pending_flows
                    .get_mut(&(from, core, tag))
                    .and_then(VecDeque::pop_front)
                {
                    self.flow(core as u64, cycle, id, 'f');
                }
            }
            TraceEvent::ThreadStart { cycle, core, block } => {
                self.instant(core as u64, cycle, "thread", &format!("spawn bb{block}"));
            }
            TraceEvent::Halt { cycle, core } => {
                self.instant(core as u64, cycle, "thread", "halt");
            }
            TraceEvent::Fault {
                cycle,
                core,
                site,
                action,
            } => {
                self.instant(
                    TID_FAULT,
                    cycle,
                    "fault",
                    &format!("{} {action} (core {core})", site.label()),
                );
            }
        }
    }

    /// Render `{"traceEvents":[...]}`, closing any spans still open at
    /// the last observed cycle.
    fn render(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 96 + 64);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String, e: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(e);
        };
        for e in &self.events {
            push(&mut out, e);
        }
        let close = self.max_ts;
        for &core in self.open_stall.keys() {
            push(&mut out, &render_end(core as u64, close));
        }
        if self.open_region.is_some() {
            push(&mut out, &render_end(TID_REGION, close));
        }
        for &core in self.open_txn.keys() {
            push(&mut out, &render_end(TID_TM_BASE + core as u64, close));
        }
        if let Some((start, mode)) = self.open_mode {
            push(
                &mut out,
                &format!(
                    "{{\"name\":\"{}\",\"cat\":\"mode\",\"ph\":\"X\",\"ts\":{start},\
                     \"dur\":{},\"pid\":1,\"tid\":{TID_MODE}}}",
                    mode_label(mode),
                    close - start
                ),
            );
        }
        out.push_str("]}");
        out
    }
}

/// One interval sample: the machine's occupancy counters and queue
/// gauges at a period boundary.
///
/// Counter fields (`issued`, `idle`, `stalls`, `bus_busy`) are
/// *cumulative* since cycle 0 — interval rates are first differences, and
/// cumulative counters make the fast-forward equivalence exact by
/// construction. Gauge fields (`send_queue`, `recv_buffered`,
/// `tm_read_set`, `tm_write_set`) are instantaneous.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSample {
    /// The period boundary this sample was taken at (cycles elapsed).
    pub cycle: u64,
    /// Per-core cycles that issued (useful ops and NOPs), cumulative.
    pub issued: Vec<u64>,
    /// Per-core idle cycles, cumulative.
    pub idle: Vec<u64>,
    /// Per-core stall cycles by [`StallReason::index`], cumulative.
    pub stalls: Vec<[u64; 9]>,
    /// Per-core operand-network send-queue occupancy.
    pub send_queue: Vec<usize>,
    /// Per-core receive-CAM occupancy (all senders and tags).
    pub recv_buffered: Vec<usize>,
    /// Per-core live-transaction read-set lines (0 when no txn).
    pub tm_read_set: Vec<usize>,
    /// Per-core live-transaction write-set lines (0 when no txn).
    pub tm_write_set: Vec<usize>,
    /// Bus-busy cycles, cumulative.
    pub bus_busy: u64,
}

/// The interval time series recorded by a probed run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProbeSeries {
    /// Sampling period in cycles.
    pub period: u64,
    /// Core count (length of every per-core vector).
    pub cores: usize,
    /// Samples, one per period boundary reached.
    pub samples: Vec<ProbeSample>,
}

/// Aggregates of a [`ProbeSeries`] for `BENCH_*.json` summaries.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeSummary {
    /// Sampling period in cycles.
    pub period: u64,
    /// Samples recorded.
    pub samples: usize,
    /// Peak sampled send-queue occupancy (any core).
    pub peak_send_queue: usize,
    /// Peak sampled receive-CAM occupancy (any core).
    pub peak_recv_buffered: usize,
    /// Peak sampled TM write-set size (any core).
    pub peak_tm_write_set: usize,
    /// Bus-busy cycles over elapsed cycles at the last sample. Busy
    /// time is booked at grant for the whole transfer, so a transfer
    /// straddling the final sample can push this slightly above 1.0.
    pub bus_utilization: f64,
    /// Intervals whose dominant occupancy was each stall reason
    /// (summed across cores; by [`StallReason::index`]).
    pub stall_phase_hist: [u64; 9],
    /// Intervals in which no core stalled at all.
    pub quiet_intervals: u64,
}

impl ProbeSeries {
    /// An empty series for a `cores`-core machine sampling every
    /// `period` cycles.
    pub fn new(period: u64, cores: usize) -> ProbeSeries {
        ProbeSeries {
            period,
            cores,
            samples: Vec::new(),
        }
    }

    /// Summarize the series (zeroes when no sample was taken).
    pub fn summary(&self) -> ProbeSummary {
        let mut s = ProbeSummary {
            period: self.period,
            samples: self.samples.len(),
            peak_send_queue: 0,
            peak_recv_buffered: 0,
            peak_tm_write_set: 0,
            bus_utilization: 0.0,
            stall_phase_hist: [0; 9],
            quiet_intervals: 0,
        };
        let zero = vec![[0u64; 9]; self.cores];
        let mut prev: &[[u64; 9]] = &zero;
        for sample in &self.samples {
            s.peak_send_queue = s
                .peak_send_queue
                .max(sample.send_queue.iter().copied().max().unwrap_or(0));
            s.peak_recv_buffered = s
                .peak_recv_buffered
                .max(sample.recv_buffered.iter().copied().max().unwrap_or(0));
            s.peak_tm_write_set = s
                .peak_tm_write_set
                .max(sample.tm_write_set.iter().copied().max().unwrap_or(0));
            // Dominant stall reason of the interval ending here.
            let mut delta = [0u64; 9];
            for (cur, old) in sample.stalls.iter().zip(prev) {
                for r in 0..9 {
                    delta[r] += cur[r] - old[r];
                }
            }
            match StallReason::ALL
                .iter()
                .map(|&r| (r, delta[r.index()]))
                .max_by_key(|&(_, n)| n)
                .filter(|&(_, n)| n > 0)
            {
                Some((r, _)) => s.stall_phase_hist[r.index()] += 1,
                None => s.quiet_intervals += 1,
            }
            prev = &sample.stalls;
        }
        if let Some(last) = self.samples.last() {
            if last.cycle > 0 {
                s.bus_utilization = last.bus_busy as f64 / last.cycle as f64;
            }
        }
        s
    }

    /// Render the series' gauges as Chrome trace-event *counter* records
    /// (`"ph":"C"`), one per sample: machine-wide send-queue depth,
    /// receive-CAM occupancy, live transactions (cores with a non-empty
    /// read or write set), and interval bus utilization in percent
    /// (first difference of the cumulative busy counter over the
    /// period). Perfetto draws each as a stacked counter track above the
    /// span timeline. Returns the comma-separated records without
    /// surrounding brackets so [`trace_with_counters`] can splice them
    /// into a rendered trace; empty when the series has no samples.
    pub fn counter_events(&self) -> String {
        let mut out = String::new();
        let mut prev_busy = 0u64;
        let mut prev_cycle = 0u64;
        for sample in &self.samples {
            let ts = sample.cycle;
            let send: usize = sample.send_queue.iter().sum();
            let recv: usize = sample.recv_buffered.iter().sum();
            let live = sample
                .tm_read_set
                .iter()
                .zip(&sample.tm_write_set)
                .filter(|&(r, w)| *r > 0 || *w > 0)
                .count();
            let span = ts.saturating_sub(prev_cycle).max(1);
            let busy = sample.bus_busy.saturating_sub(prev_busy);
            let util = 100.0 * busy as f64 / span as f64;
            prev_busy = sample.bus_busy;
            prev_cycle = ts;
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"send queue\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                 \"args\":{{\"depth\":{send}}}}},\
                 {{\"name\":\"recv buffered\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                 \"args\":{{\"entries\":{recv}}}}},\
                 {{\"name\":\"live txns\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                 \"args\":{{\"count\":{live}}}}},\
                 {{\"name\":\"bus util %\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                 \"args\":{{\"percent\":{util:.2}}}}}"
            );
        }
        out
    }

    /// Render the series as JSON (one object per sample, columnar
    /// per-core arrays), for `--probes-out`.
    pub fn render_json(&self) -> String {
        fn ints<T: std::fmt::Display>(out: &mut String, vals: &[T]) {
            out.push('[');
            for (i, v) in vals.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{v}");
            }
            out.push(']');
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"period\":{},\"cores\":{},\"samples\":[",
            self.period, self.cores
        );
        for (i, sample) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"cycle\":{},\"issued\":", sample.cycle);
            ints(&mut out, &sample.issued);
            out.push_str(",\"idle\":");
            ints(&mut out, &sample.idle);
            out.push_str(",\"stalls\":[");
            for (c, row) in sample.stalls.iter().enumerate() {
                if c > 0 {
                    out.push(',');
                }
                ints(&mut out, row);
            }
            out.push_str("],\"send_queue\":");
            ints(&mut out, &sample.send_queue);
            out.push_str(",\"recv_buffered\":");
            ints(&mut out, &sample.recv_buffered);
            out.push_str(",\"tm_read_set\":");
            ints(&mut out, &sample.tm_read_set);
            out.push_str(",\"tm_write_set\":");
            ints(&mut out, &sample.tm_write_set);
            let _ = write!(out, ",\"bus_busy\":{}}}", sample.bus_busy);
        }
        out.push_str("]}");
        out
    }
}

/// Splice a probe series' counter tracks ([`ProbeSeries::counter_events`])
/// into a rendered Chrome trace (`{"traceEvents":[...]}`): the span
/// timeline and the gauges land in one Perfetto document. Returns the
/// trace unchanged when the series has no samples or the document does
/// not end in a trace-event array.
pub fn trace_with_counters(trace: &str, series: &ProbeSeries) -> String {
    let counters = series.counter_events();
    if counters.is_empty() {
        return trace.to_string();
    }
    let Some(body) = trace.strip_suffix("]}") else {
        return trace.to_string();
    };
    let sep = if body.ends_with('[') { "" } else { "," };
    format!("{body}{sep}{counters}]}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balanced(s: &str) -> bool {
        let (mut braces, mut brackets) = (0i64, 0i64);
        let mut in_str = false;
        let mut prev_escape = false;
        for c in s.chars() {
            if in_str {
                match c {
                    '\\' if !prev_escape => prev_escape = true,
                    '"' if !prev_escape => in_str = false,
                    _ => prev_escape = false,
                }
                if c != '\\' {
                    prev_escape = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' => braces += 1,
                '}' => braces -= 1,
                '[' => brackets += 1,
                ']' => brackets -= 1,
                _ => {}
            }
        }
        braces == 0 && brackets == 0 && !in_str
    }

    #[test]
    fn chrome_tracer_closes_open_spans_and_pairs_flows() {
        let mut t = ChromeTracer::new();
        t.event(TraceEvent::StallBegin {
            cycle: 3,
            core: 0,
            reason: StallReason::RecvData,
        });
        t.event(TraceEvent::MsgSend {
            cycle: 5,
            from: 1,
            to: 0,
            tag: 7,
        });
        t.event(TraceEvent::MsgRecv {
            cycle: 9,
            core: 0,
            from: 1,
            tag: 7,
        });
        t.event(TraceEvent::StallEnd { cycle: 9, core: 0 });
        t.event(TraceEvent::TmBegin {
            cycle: 10,
            core: 1,
            order: 2,
        });
        let json = t.render();
        assert!(balanced(&json), "balanced JSON: {json}");
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"recv-data\""));
        assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
        // The open txn span is closed at the last seen cycle.
        assert!(json.contains("\"ph\":\"E\",\"ts\":10,\"pid\":1,\"tid\":101"));
    }

    #[test]
    fn mode_residency_spans_cover_the_run() {
        let mut t = ChromeTracer::new();
        t.event(TraceEvent::ModeSwitch {
            cycle: 100,
            mode: ExecMode::Coupled,
        });
        t.event(TraceEvent::ModeSwitch {
            cycle: 250,
            mode: ExecMode::Decoupled,
        });
        t.event(TraceEvent::Halt {
            cycle: 300,
            core: 0,
        });
        let json = t.render();
        // decoupled 0..100, coupled 100..250, decoupled 250..close.
        assert!(json
            .contains("\"name\":\"decoupled\",\"cat\":\"mode\",\"ph\":\"X\",\"ts\":0,\"dur\":100"));
        assert!(json
            .contains("\"name\":\"coupled\",\"cat\":\"mode\",\"ph\":\"X\",\"ts\":100,\"dur\":150"));
        assert!(json.contains(
            "\"name\":\"decoupled\",\"cat\":\"mode\",\"ph\":\"X\",\"ts\":250,\"dur\":50"
        ));
    }

    #[test]
    fn probe_summary_histogram_and_peaks() {
        let mut series = ProbeSeries::new(10, 2);
        let base = ProbeSample {
            cycle: 10,
            issued: vec![5, 5],
            idle: vec![0, 0],
            stalls: vec![[0; 9]; 2],
            send_queue: vec![0, 3],
            recv_buffered: vec![1, 0],
            tm_read_set: vec![0, 0],
            tm_write_set: vec![0, 2],
            bus_busy: 4,
        };
        let mut second = base.clone();
        second.cycle = 20;
        second.stalls[0][StallReason::RecvData.index()] = 6;
        second.stalls[1][StallReason::Sync.index()] = 2;
        second.send_queue = vec![0, 1];
        second.bus_busy = 10;
        series.samples.push(base);
        series.samples.push(second);
        let s = series.summary();
        assert_eq!(s.samples, 2);
        assert_eq!(s.peak_send_queue, 3);
        assert_eq!(s.peak_recv_buffered, 1);
        assert_eq!(s.peak_tm_write_set, 2);
        assert_eq!(s.quiet_intervals, 1, "first interval had no stalls");
        assert_eq!(s.stall_phase_hist[StallReason::RecvData.index()], 1);
        assert!((s.bus_utilization - 0.5).abs() < 1e-12);
        assert!(balanced(&series.render_json()));
    }

    /// A hand-built sample for the directed summary-math tests below.
    fn sample(cycle: u64, cores: usize) -> ProbeSample {
        ProbeSample {
            cycle,
            issued: vec![0; cores],
            idle: vec![0; cores],
            stalls: vec![[0; 9]; cores],
            send_queue: vec![0; cores],
            recv_buffered: vec![0; cores],
            tm_read_set: vec![0; cores],
            tm_write_set: vec![0; cores],
            bus_busy: 0,
        }
    }

    #[test]
    fn summary_of_empty_series_is_all_zero() {
        let s = ProbeSeries::new(10, 4).summary();
        assert_eq!(s.samples, 0);
        assert_eq!(s.peak_send_queue, 0);
        assert_eq!(s.peak_recv_buffered, 0);
        assert_eq!(s.peak_tm_write_set, 0);
        assert_eq!(s.bus_utilization, 0.0);
        assert_eq!(s.quiet_intervals, 0);
        assert_eq!(s.stall_phase_hist, [0; 9]);
    }

    /// Peaks are maxima over *all* samples and *all* cores, not just the
    /// last sample or core 0.
    #[test]
    fn peaks_track_any_core_at_any_sample() {
        let mut series = ProbeSeries::new(10, 3);
        let mut a = sample(10, 3);
        a.send_queue = vec![1, 7, 0];
        let mut b = sample(20, 3);
        b.send_queue = vec![2, 0, 5];
        b.recv_buffered = vec![0, 0, 9];
        b.tm_write_set = vec![4, 0, 0];
        series.samples.push(a);
        series.samples.push(b);
        let s = series.summary();
        assert_eq!(s.peak_send_queue, 7, "peak was in the first sample");
        assert_eq!(s.peak_recv_buffered, 9);
        assert_eq!(s.peak_tm_write_set, 4);
    }

    /// Bus utilization is cumulative-busy over elapsed at the *last*
    /// sample — intermediate samples only matter through their deltas.
    #[test]
    fn bus_utilization_uses_the_last_sample() {
        let mut series = ProbeSeries::new(100, 1);
        let mut a = sample(100, 1);
        a.bus_busy = 90; // briefly saturated...
        let mut b = sample(400, 1);
        b.bus_busy = 100; // ...then nearly idle.
        series.samples.push(a);
        series.samples.push(b);
        let s = series.summary();
        assert!(
            (s.bus_utilization - 0.25).abs() < 1e-12,
            "{}",
            s.bus_utilization
        );
    }

    /// The phase histogram classifies each interval by its dominant
    /// stall *delta* (cumulative counters differenced), and an interval
    /// with no stall growth anywhere is quiet.
    #[test]
    fn stall_phase_histogram_differences_cumulative_counters() {
        let mut series = ProbeSeries::new(10, 2);
        let mut a = sample(10, 2);
        a.stalls[0][StallReason::DMiss.index()] = 8;
        let mut b = sample(20, 2);
        // Cumulative counts carry forward: no growth this interval.
        b.stalls[0][StallReason::DMiss.index()] = 8;
        let mut c = sample(30, 2);
        c.stalls[0][StallReason::DMiss.index()] = 9; // +1
        c.stalls[1][StallReason::Sync.index()] = 5; // +5 dominates
        series.samples.push(a);
        series.samples.push(b);
        series.samples.push(c);
        let s = series.summary();
        assert_eq!(s.stall_phase_hist[StallReason::DMiss.index()], 1);
        assert_eq!(s.stall_phase_hist[StallReason::Sync.index()], 1);
        assert_eq!(s.quiet_intervals, 1, "the flat interval is quiet");
    }

    #[test]
    fn counter_events_emit_gauges_and_interval_utilization() {
        let mut series = ProbeSeries::new(10, 2);
        let mut a = sample(10, 2);
        a.send_queue = vec![2, 1];
        a.recv_buffered = vec![0, 4];
        a.tm_read_set = vec![3, 0];
        a.tm_write_set = vec![0, 0];
        a.bus_busy = 5;
        let mut b = sample(20, 2);
        b.bus_busy = 5; // idle interval
        series.samples.push(a);
        series.samples.push(b);
        let ev = series.counter_events();
        assert!(ev.contains("\"name\":\"send queue\",\"ph\":\"C\",\"ts\":10"));
        assert!(ev.contains("\"args\":{\"depth\":3}"), "{ev}");
        assert!(ev.contains("\"args\":{\"entries\":4}"), "{ev}");
        // Core 0 has a live read set, so one transaction is live.
        assert!(ev.contains("\"args\":{\"count\":1}"), "{ev}");
        assert!(ev.contains("\"args\":{\"percent\":50.00}"), "{ev}");
        assert!(ev.contains("\"ts\":20") && ev.contains("\"percent\":0.00"));
        // Splicing keeps the document balanced and appends every record.
        let spliced = trace_with_counters("{\"traceEvents\":[]}", &series);
        assert!(balanced(&spliced), "{spliced}");
        assert!(spliced.contains("bus util %"));
        let untouched = trace_with_counters("{\"traceEvents\":[]}", &ProbeSeries::new(10, 1));
        assert_eq!(untouched, "{\"traceEvents\":[]}");
    }
}
