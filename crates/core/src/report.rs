//! Plain-text tables and the workspace's one JSON value: fixed-width
//! [`Table`]s for the human-facing figures; [`Json`], written by
//! [`Json::render`] and read back by [`parse`], for the `BENCH_*.json`
//! sidecars, the serve wire and every artifact check; and [`RunRecord`],
//! the one versioned shape in which a sidecar and a wire row report a
//! run, with the blocks that ride along with it (what-if, probes, faults,
//! cache). Also the [`throughput`] line the harness prints after every
//! sweep.

use std::fmt::Write as _;

use crate::{CacheInfo, RunResult, Strategy, WhatIfReport};
use voltron_sim::fault::SiteFaults;
use voltron_sim::{CoherenceBackend, FaultSite, FaultStats, ProbeSummary, StallReason};

/// A JSON value. The workspace has no serialization dependency; this
/// tree, its writer and its parser are the whole of it.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer (cycle counts), kept exact: never routed
    /// through f64 when written, and what [`parse`] reads an integer
    /// literal without sign, fraction or exponent as.
    UInt(u64),
    /// Any other number. Non-finite values render as `null`.
    Num(f64),
    /// A string (escaped on render).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as ordered key/value pairs.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Serialize to a compact JSON document.
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.write(&mut s);
        s
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    let _ = write!(out, "{v}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(s, out),
            Json::Arr(xs) => {
                out.push('[');
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    x.write(out);
                }
                out.push(']');
            }
            Json::Obj(kvs) => {
                out.push('{');
                for (i, (k, v)) in kvs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        let Json::Obj(members) = self else {
            return None;
        };
        members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        let Json::Arr(v) = self else { return None };
        Some(v)
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        let Json::Str(s) = self else { return None };
        Some(s)
    }

    /// Any number, as f64 (an integer above 2^53 rounds).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            Json::UInt(n) => Some(*n as f64),
            _ => None,
        }
    }

    /// A non-negative integer, exactly. A negative, fractional or
    /// exponent-form number is not one.
    pub fn as_u64(&self) -> Option<u64> {
        let Json::UInt(n) = self else { return None };
        Some(*n)
    }
}

fn write_escaped(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document: exactly RFC 8259 (minus `\u`
/// surrogate-pair pedantry), object keys in document order.
///
/// # Errors
/// A message with the byte offset of the first syntax error.
pub fn parse(src: &str) -> Result<Json, String> {
    let b = src.as_bytes();
    let mut p = Parser { b, pos: 0 };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != b.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.items(*b"{}", Self::member).map(Json::Obj),
            Some(b'[') => self.items(*b"[]", Self::value).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.lit("true", Json::Bool(true)),
            Some(b'f') => self.lit("false", Json::Bool(false)),
            Some(b'n') => self.lit("null", Json::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    /// The comma-separated items between `open` and `close`, each read
    /// by `item`.
    fn items<T>(
        &mut self,
        [open, close]: [u8; 2],
        item: impl Fn(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.ws();
            items.push(item(self)?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(&c) if c == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected ',' or '{}'", close as char))),
            }
        }
    }

    fn member(&mut self) -> Result<(String, Json), String> {
        let key = self.string()?;
        self.ws();
        self.eat(b':')?;
        self.ws();
        Ok((key, self.value()?))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            let plain = |c: &u8| !matches!(c, b'"' | b'\\' | 0..=0x1f);
            while self.b.get(self.pos).is_some_and(plain) {
                self.pos += 1;
            }
            // The run ends at an ASCII byte, so it is whole characters.
            let run = std::str::from_utf8(&self.b[start..self.pos]);
            out.push_str(run.map_err(|_| self.err("invalid UTF-8"))?);
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                Some(_) => return Err(self.err("control char in string")),
            }
            let esc = *self.b.get(self.pos).ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            out.push(match esc {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'u' => {
                    let hex = self.b.get(self.pos..self.pos + 4).unwrap_or_default();
                    let code = std::str::from_utf8(hex).ok();
                    let code = code.and_then(|h| u32::from_str_radix(h, 16).ok());
                    let code = code.ok_or_else(|| self.err("bad \\u escape"))?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return Err(self.err("bad escape")),
            });
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        // Only ASCII was consumed. A literal `u64` accepts — digits, no
        // sign — stays exact; anything else is read as a float.
        let text = std::str::from_utf8(&self.b[start..self.pos]).unwrap_or("");
        let exact = text.parse().ok().map(Json::UInt);
        exact
            .or_else(|| text.parse().ok().map(Json::Num))
            .ok_or_else(|| self.err("bad number"))
    }
}

/// The version every [`RunRecord`], sidecar document and wire row
/// carries as `"schema"`.
pub const SCHEMA: u64 = 1;

/// The `"schema":1` member of a record, a sidecar document and every
/// wire row.
pub fn schema() -> (&'static str, Json) {
    ("schema", Json::UInt(SCHEMA))
}

/// One reported run — what a `BENCH_*.json` run row and a serve response
/// row both say about a (strategy, cores, backend) configuration. Written
/// only by [`RunRecord::write`] and read only by
/// [`RunRecord::from_json`]; DESIGN.md tabulates it as "the run record".
/// `strategy` and `backend` are labels (the benchmark compares them as
/// strings); the other enumerations stay typed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Strategy label (e.g. "hybrid").
    pub strategy: String,
    /// Core count.
    pub cores: usize,
    /// Coherence backend label.
    pub backend: &'static str,
    /// Execution time in simulated cycles.
    pub cycles: u64,
    /// Cycles the simulator ticked (fast-forward skipped the rest).
    pub ticked_cycles: u64,
    /// Speedup over the serial 1-core baseline.
    pub speedup: f64,
    /// The largest stall bucket summed over cores (`None` for a run that
    /// never stalled).
    pub dominant_stall: Option<StallReason>,
    /// The strategy whose simulation this run shares (`None` for a run
    /// that was simulated itself; see `RunResult::shared_with`).
    pub shared_with: Option<Strategy>,
    /// Fault-injection counters of the simulation (all zero without a
    /// fault plan, and then not written).
    pub faults: FaultStats,
}

impl RunRecord {
    /// The record of a finished run.
    pub fn of(r: &RunResult) -> RunRecord {
        RunRecord {
            strategy: r.strategy.to_string(),
            cores: r.cores,
            backend: r.backend.label(),
            cycles: r.cycles,
            ticked_cycles: r.ticked_cycles,
            speedup: r.speedup,
            dominant_stall: r.stats.dominant_stall().map(|(reason, _)| reason),
            shared_with: r.shared_with,
            faults: r.stats.faults,
        }
    }

    /// The record as a sidecar run row.
    pub fn to_json(&self) -> Json {
        let mut row = Vec::new();
        self.clone().write(&mut row, [], []);
        Json::obj(row)
    }

    /// Append the record's members to `row` — `"schema":1`, then its
    /// fields in declaration order, each optional one only when set — with
    /// the row's own members where the serve wire has always carried them:
    /// `after_speedup` (its `baseline_cycles`) and `before_faults` (its
    /// `cache`, `whatif` and `probes` blocks). Consumes the record, so the
    /// row takes its strings without copying them.
    pub fn write<'a>(
        self,
        row: &mut Vec<(&'a str, Json)>,
        after_speedup: impl IntoIterator<Item = (&'a str, Json)>,
        before_faults: impl IntoIterator<Item = (&'a str, Json)>,
    ) {
        row.extend([
            schema(),
            ("strategy", Json::Str(self.strategy)),
            ("cores", Json::UInt(self.cores as u64)),
            ("backend", Json::Str(self.backend.into())),
            ("cycles", Json::UInt(self.cycles)),
            ("ticked_cycles", Json::UInt(self.ticked_cycles)),
            ("speedup", Json::Num(self.speedup)),
        ]);
        row.extend(after_speedup);
        if let Some(d) = self.dominant_stall {
            row.push(("dominant_stall", Json::Str(d.to_string())));
        }
        if let Some(s) = self.shared_with {
            row.push(("shared_with", Json::Str(s.to_string())));
        }
        row.extend(before_faults);
        if self.faults.any() {
            row.push(("faults", fault_stats_json(&self.faults)));
        }
    }

    /// Read the record in `v`, a sidecar run row or a whole serve row
    /// (members that are not the record's are ignored).
    ///
    /// # Errors
    /// A `schema` other than [`SCHEMA`], or a message naming the first
    /// missing or malformed field.
    pub fn from_json(v: &Json) -> Result<RunRecord, String> {
        if v.get("schema").and_then(Json::as_u64) != Some(SCHEMA) {
            let found = v.get("schema").map_or("none".into(), Json::render);
            return Err(format!("schema {found} is not record schema {SCHEMA}"));
        }
        let count = |k| member(v, k, Json::as_u64);
        let strategy = |s: &Json| Strategy::parse(s.as_str()?);
        let stall = |s: &Json| {
            StallReason::ALL
                .into_iter()
                .find(|r| s.as_str() == Some(&r.to_string()))
        };
        Ok(RunRecord {
            strategy: member(v, "strategy", strategy)?.to_string(),
            cores: count("cores")? as usize,
            backend: member(v, "backend", |s| CoherenceBackend::parse(s.as_str()?))?.label(),
            cycles: count("cycles")?,
            ticked_cycles: count("ticked_cycles")?,
            speedup: member(v, "speedup", Json::as_num)?,
            dominant_stall: optional(v, "dominant_stall", stall)?,
            shared_with: optional(v, "shared_with", strategy)?,
            faults: optional(v, "faults", fault_stats_from_json)?.unwrap_or_default(),
        })
    }
}

/// `v`'s member `k` as `read` takes it, or a message naming `k`.
fn member<'a, T>(v: &'a Json, k: &str, read: impl Fn(&'a Json) -> Option<T>) -> Result<T, String> {
    v.get(k)
        .and_then(read)
        .ok_or_else(|| format!("'{k}' is missing or malformed"))
}

/// [`member`], for a member that may be absent.
fn optional<'a, T>(
    v: &'a Json,
    k: &str,
    read: impl Fn(&'a Json) -> Option<T>,
) -> Result<Option<T>, String> {
    v.get(k).map(|_| member(v, k, read)).transpose()
}

/// The `faults` block: the totals plus one row per site that saw a fault.
pub fn fault_stats_json(fs: &FaultStats) -> Json {
    let sites = fs
        .rows()
        .filter(|(_, s)| s.injected + s.retried + s.recovered + s.gave_up > 0)
        .map(|(label, s)| {
            let counts = Json::obj([
                ("injected", Json::UInt(s.injected)),
                ("retried", Json::UInt(s.retried)),
                ("recovered", Json::UInt(s.recovered)),
                ("gave_up", Json::UInt(s.gave_up)),
            ]);
            (label, counts)
        });
    Json::obj([
        ("injected", Json::UInt(fs.injected())),
        ("recovered", Json::UInt(fs.recovered())),
        ("gave_up", Json::UInt(fs.gave_up())),
        ("sites", Json::obj(sites)),
    ])
}

/// Read a `faults` block back; its totals must be its sites' sums.
fn fault_stats_from_json(v: &Json) -> Option<FaultStats> {
    let Json::Obj(sites) = v.get("sites")? else {
        return None;
    };
    let mut fs = FaultStats::default();
    for (label, s) in sites {
        let n = |k| s.get(k).and_then(Json::as_u64);
        *fs.site_mut(FaultSite::parse(label)?) = SiteFaults {
            injected: n("injected")?,
            retried: n("retried")?,
            recovered: n("recovered")?,
            gave_up: n("gave_up")?,
        };
    }
    let totals = [
        ("injected", fs.injected()),
        ("recovered", fs.recovered()),
        ("gave_up", fs.gave_up()),
    ];
    let summed = totals
        .into_iter()
        .all(|(k, total)| v.get(k).and_then(Json::as_u64) == Some(total));
    summed.then_some(fs)
}

/// The `whatif` block: the machine-wide classification, the CPI-stack
/// rows (exact by construction, see `voltron_sim::whatif`), one ceiling
/// per idealization knob, and the per-region diagnoses.
pub fn whatif_json(r: &WhatIfReport) -> Json {
    let stack = r.stack.rows().into_iter().filter(|(_, n)| *n > 0);
    let stack = stack.map(|(k, n)| (k, Json::UInt(n))).collect();
    let best = r.best_ceiling().knob.label();
    let ceilings = r.ceilings.iter().map(|c| {
        let ceiling = Json::obj([
            ("ideal_cycles", Json::UInt(c.ideal_cycles)),
            ("speedup_ceiling", Json::Num(c.speedup_ceiling)),
        ]);
        (c.knob.label(), ceiling)
    });
    let regions = r.regions.iter().map(|d| {
        let region = if d.region == u32::MAX {
            Json::Str("outside".into())
        } else {
            Json::UInt(u64::from(d.region))
        };
        Json::obj([
            ("region", region),
            ("kind", Json::Str(d.kind.into())),
            ("cycles", Json::UInt(d.stack.cycles)),
            ("bound_by", Json::Str(d.bound_by.to_string())),
        ])
    });
    Json::obj([
        ("strategy", Json::Str(r.strategy.to_string())),
        ("cores", Json::UInt(r.cores as u64)),
        ("measured_cycles", Json::UInt(r.measured_cycles)),
        ("bound_by", Json::Str(r.bound_by.to_string())),
        ("best_ceiling", Json::Str(best.into())),
        ("stack", Json::Obj(stack)),
        ("ceilings", Json::obj(ceilings)),
        ("regions", Json::Arr(regions.collect())),
    ])
}

/// The `probes` block. The stall-phase histogram is keyed by
/// stall-reason label, zero-count reasons omitted.
pub fn probe_summary_json(p: &ProbeSummary) -> Json {
    let hist = StallReason::ALL
        .iter()
        .filter(|r| p.stall_phase_hist[r.index()] > 0)
        .map(|r| (r.to_string(), Json::UInt(p.stall_phase_hist[r.index()])));
    Json::obj([
        ("period", Json::UInt(p.period)),
        ("samples", Json::UInt(p.samples as u64)),
        ("peak_send_queue", Json::UInt(p.peak_send_queue as u64)),
        (
            "peak_recv_buffered",
            Json::UInt(p.peak_recv_buffered as u64),
        ),
        ("peak_tm_write_set", Json::UInt(p.peak_tm_write_set as u64)),
        ("bus_utilization", Json::Num(p.bus_utilization)),
        ("quiet_intervals", Json::UInt(p.quiet_intervals)),
        ("stall_phase_histogram", Json::Obj(hist.collect())),
    ])
}

/// The serve row's `cache` block: which layers hit.
pub fn cache_json(c: &CacheInfo) -> Json {
    let word = |b: bool, yes: &str, no: &str| Json::Str(if b { yes } else { no }.into());
    Json::obj([
        ("golden", word(c.golden_hit, "hit", "miss")),
        ("front_end", word(c.front_end_hit, "hit", "miss")),
        ("image", word(c.image_hit, "hit", "miss")),
        ("result", word(c.result_hit, "hit", "miss")),
        ("machine", word(c.machine_pooled, "pooled", "fresh")),
    ])
}

/// The harness's throughput line: how much simulation happened per host
/// second of wall clock.
pub fn throughput(simulated_cycles: u64, host_seconds: f64) -> String {
    let cps = simulated_cycles as f64 / host_seconds.max(1e-9);
    format!(
        "{simulated_cycles} simulated cycles in {host_seconds:.3}s host \
         = {:.2}M cycles/host-second",
        cps / 1e6
    )
}

/// A simple fixed-width table builder.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    ///
    /// # Panics
    /// Panics on column-count mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.rows.push(cells);
    }

    /// Render with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut width = vec![0usize; ncols];
        for (i, h) in self.headers.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let mut line = String::new();
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let pad = width[i] - c.len();
                if i == 0 {
                    line.push_str(c);
                    line.push_str(&" ".repeat(pad));
                } else {
                    line.push_str(&" ".repeat(pad));
                    line.push_str(c);
                }
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &width));
        out.push('\n');
        out.push_str(&"-".repeat(width.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
            out.push('\n');
        }
        out
    }
}

/// Format a speedup (2 decimal places).
pub fn speedup(x: f64) -> String {
    format!("{x:.2}")
}

/// Format a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Geometric mean of positive values (the figures report arithmetic means;
/// both are provided).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s: f64 = xs.iter().map(|x| x.max(1e-12).ln()).sum();
    (s / xs.len() as f64).exp()
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["bench", "speedup"]);
        t.row(vec!["gzip".into(), "1.20".into()]);
        t.row(vec!["a-very-long-name".into(), "2.00".into()]);
        let s = t.render();
        assert!(s.contains("bench"));
        assert!(s.lines().count() == 4);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn means_behave() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(pct(0.25), "25.0%");
    }

    #[test]
    #[should_panic(expected = "column count mismatch")]
    fn row_arity_checked() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["x".into()]);
    }

    #[test]
    fn json_renders_and_escapes() {
        let doc = Json::obj([
            ("name", Json::Str("a\"b\\c\n".into())),
            ("cycles", Json::UInt(u64::MAX)),
            ("speedup", Json::Num(1.5)),
            ("bad", Json::Num(f64::NAN)),
            (
                "runs",
                Json::Arr(vec![Json::UInt(1), Json::Null, Json::Bool(false)]),
            ),
        ]);
        assert_eq!(
            doc.render(),
            "{\"name\":\"a\\\"b\\\\c\\u000a\",\"cycles\":18446744073709551615,\
             \"speedup\":1.5,\"bad\":null,\"runs\":[1,null,false]}"
        );
    }

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null},"e":true}"#).unwrap();
        let a = v.get("a").and_then(Json::as_arr).unwrap();
        assert_eq!(a, [Json::UInt(1), Json::Num(2.5), Json::Num(-300.0)]);
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
        // Integers stay exact past 2^53; a sign, fraction or exponent
        // makes a float, which `as_u64` refuses.
        let n = |s: &str| parse(s).unwrap();
        assert_eq!(n("9007199254740993").as_u64(), Some(9_007_199_254_740_993));
        assert_eq!(n("18446744073709551616"), Json::Num(18446744073709551616.0));
        for not_a_count in ["-3", "1.7", "1e3", "-0"] {
            assert_eq!(n(not_a_count).as_u64(), None, "{not_a_count}");
            assert!(n(not_a_count).as_num().is_some(), "{not_a_count}");
        }
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "{",
            "[1,]",
            "{\"a\":}",
            "tru",
            "\"abc",
            "{} x",
            "{\"a\" 1}",
            "1-2",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn throughput_line_mentions_cycles_and_rate() {
        let s = throughput(2_000_000, 2.0);
        assert!(s.contains("2000000 simulated cycles"));
        assert!(s.contains("1.00M cycles/host-second"));
    }
}
