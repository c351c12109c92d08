//! In-memory span recorder for the traced run.
//!
//! The benchmark measures every layer from outside: one span around each
//! call into a layer's public function, opened and closed by the
//! benchmark's own code. Spans nest (a span opened while another is open
//! becomes its child), stay in memory for the whole run, and are flushed
//! once at exit as a Chrome trace-event document that Perfetto loads
//! beside the simulator's own traces.

use std::collections::BTreeMap;
use std::time::Instant;
use voltron_bench::jsonv::JValue;
use voltron_core::report::Json;

/// One closed span. `parent` indexes the recorder's span list; `op`
/// indexes its operation-label table and identifies the (workload,
/// strategy, cores, backend) run or the request the span belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread. A disabled recorder runs the closure and
/// nothing else, so the same staged pipeline can be timed with the
/// recorder on and off (`bench.trace.overhead_ratio`).
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    ops: Vec<String>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch` (shared by every
    /// thread's recorder so their tracks line up).
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            // Operation 0 is "no particular operation" (pass-level glue).
            ops: vec![String::new()],
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Start attributing spans to a new operation. The label is only
    /// built when recording, so timed passes pay nothing for it.
    pub fn begin_op(&mut self, label: impl FnOnce() -> String) {
        if self.enabled {
            self.ops.push(label());
        }
    }

    /// Run `f` inside a span named `name`. The closure receives the
    /// recorder so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            op: (self.ops.len() - 1) as u32,
        });
        self.open.push(idx);
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        let s = &mut self.spans[idx as usize];
        s.start_ns = start;
        s.end_ns = end;
        out
    }

    /// Chrome trace events for this recorder's spans on track `tid`.
    /// `ts`/`dur` are microseconds as the format requires; `args` keeps
    /// the exact nanoseconds, the parent index and the operation label.
    fn chrome_events(&self, tid: u64, out: &mut Vec<Json>) {
        for (i, s) in self.spans.iter().enumerate() {
            let mut args = vec![
                ("id".into(), Json::UInt(i as u64)),
                ("start_ns".into(), Json::UInt(s.start_ns)),
                ("end_ns".into(), Json::UInt(s.end_ns)),
                ("op".into(), Json::Str(self.ops[s.op as usize].clone())),
            ];
            if let Some(p) = s.parent {
                args.push(("parent".into(), Json::UInt(u64::from(p))));
            }
            out.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str("host".into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(tid)),
                ("args".into(), Json::Obj(args)),
            ]));
        }
    }
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of it its direct children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, c) in spans.iter().zip(&covered) {
        *by_name.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(*c);
    }
    by_name
}

/// Inclusive time per span name (a wrapper span's whole interval).
pub fn inclusive_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_insert(0) += s.dur_ns();
    }
    by_name
}

/// One Chrome trace document from one recorder per track: a
/// `thread_name` metadata event naming each track, then its spans.
pub fn chrome_document(tracks: &[(String, Recorder)]) -> Json {
    let mut events = Vec::new();
    for (tid, (label, _)) in tracks.iter().enumerate() {
        events.push(Json::Obj(vec![
            ("name".into(), Json::Str("thread_name".into())),
            ("ph".into(), Json::Str("M".into())),
            ("pid".into(), Json::UInt(1)),
            ("tid".into(), Json::UInt(tid as u64)),
            (
                "args".into(),
                Json::Obj(vec![("name".into(), Json::Str(label.clone()))]),
            ),
        ]));
    }
    for (tid, (_, rec)) in tracks.iter().enumerate() {
        rec.chrome_events(tid as u64, &mut events);
    }
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ns".into())),
    ])
}

/// Check a parsed span file: apart from track-name metadata (`M`), every
/// event is a complete (`X`) event whose end is not before its start, and
/// every parent link points at an earlier span on the same track whose
/// interval contains the child. Returns the number of spans.
///
/// # Errors
/// Names the first offending event.
pub fn check_document(doc: &JValue) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(JValue::as_arr)
        .ok_or("no traceEvents array")?;
    // (tid, id) -> (start, end), filled in document order: a parent is
    // always written before its children.
    let mut seen: BTreeMap<(u64, u64), (u64, u64)> = BTreeMap::new();
    for (i, e) in events.iter().enumerate() {
        if e.get("ph").and_then(JValue::as_str) == Some("M") {
            continue;
        }
        let num = |v: Option<&JValue>, what: &str| {
            v.and_then(JValue::as_num)
                .map(|n| n as u64)
                .ok_or(format!("event {i}: missing {what}"))
        };
        if e.get("ph").and_then(JValue::as_str) != Some("X") {
            return Err(format!("event {i}: not a complete (X) event"));
        }
        if e.get("name").and_then(JValue::as_str).is_none() {
            return Err(format!("event {i}: no name"));
        }
        let tid = num(e.get("tid"), "tid")?;
        let args = e.get("args").ok_or(format!("event {i}: no args"))?;
        let id = num(args.get("id"), "args.id")?;
        let start = num(args.get("start_ns"), "args.start_ns")?;
        let end = num(args.get("end_ns"), "args.end_ns")?;
        if end < start {
            return Err(format!("event {i}: ends before it starts"));
        }
        if args.get("op").and_then(JValue::as_str).is_none() {
            return Err(format!("event {i}: no args.op"));
        }
        if let Some(p) = args.get("parent") {
            let p = p.as_num().ok_or(format!("event {i}: bad parent"))? as u64;
            match seen.get(&(tid, p)) {
                Some(&(ps, pe)) if ps <= start && end <= pe => {}
                Some(_) => return Err(format!("event {i}: not inside its parent {p}")),
                None => return Err(format!("event {i}: parent {p} not seen on track {tid}")),
            }
        }
        seen.insert((tid, id), (start, end));
    }
    Ok(seen.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    /// root [0,100) with children a [10,40) and b [50,90); b has a child
    /// a [60,70). Self: root 100-30-40 = 30, a 30 + 10 = 40, b 40-10 = 30.
    #[test]
    fn self_time_subtracts_direct_children_only() {
        let tree = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a", 60, 70, Some(2)),
        ];
        let own = self_times(&tree);
        assert_eq!(own["root"], 30);
        assert_eq!(own["a"], 40);
        assert_eq!(own["b"], 30);
        assert_eq!(own.values().sum::<u64>(), 100, "self times tile the root");
        let incl = inclusive_times(&tree);
        assert_eq!(incl["root"], 100);
        assert_eq!(incl["a"], 40);
        assert_eq!(incl["b"], 40);
    }

    #[test]
    fn recorder_nests_and_round_trips_through_the_parser() {
        let mut rec = Recorder::new(true, Instant::now());
        rec.begin_op(|| "fig_sweep/epic/hybrid/4/snooping".into());
        let v = rec.span("outer", |r| r.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(
            spans[1].op, 1,
            "spans carry the operation begun before them"
        );
        let text = chrome_document(&[("driver".into(), rec)]).render();
        let doc = voltron_bench::jsonv::parse(&text).expect("span file parses");
        assert_eq!(check_document(&doc), Ok(2));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false, Instant::now());
        rec.begin_op(|| unreachable!("no label is built when not recording"));
        assert_eq!(rec.span("outer", |r| r.span("inner", |_| 1)), 1);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn checker_rejects_a_child_outside_its_parent() {
        let bad = r#"{"traceEvents":[
            {"name":"p","ph":"X","tid":1,"args":{"id":0,"start_ns":10,"end_ns":20,"op":""}},
            {"name":"c","ph":"X","tid":1,"args":{"id":1,"start_ns":15,"end_ns":25,"op":"","parent":0}}]}"#;
        let doc = voltron_bench::jsonv::parse(bad).unwrap();
        assert!(check_document(&doc).unwrap_err().contains("not inside"));
    }
}
