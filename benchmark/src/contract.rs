//! `BENCHMARK.json` as the benchmark sees it.
//!
//! The contract file at the repository root is the only catalogue of
//! workloads and metrics: it is compiled in, the code looks units,
//! directions and bounds up here, and emitting a metric it does not name
//! is an error — so the file and the program cannot drift apart.

use voltron_bench::jsonv::{self, JValue};

const SOURCE: &str = include_str!("../../BENCHMARK.json");

/// One metric the contract names.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Allowed worsening as a share of the parent's median; end-to-end
    /// metrics only.
    pub bound: Option<f64>,
}

impl MetricSpec {
    /// Simulated or otherwise deterministic quantities carry one of these
    /// units and must repeat exactly between two runs of the same inputs;
    /// every other unit is host time (or derived from it) and only has to
    /// stay within a bound.
    pub fn is_exact(&self) -> bool {
        matches!(
            self.unit.as_str(),
            "cycles" | "insts" | "count" | "bytes" | "hash" | "frac" | "x"
        )
    }
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn metrics(doc: &JValue, key: &str) -> Result<Vec<MetricSpec>, String> {
    let field = |m: &JValue, f: &str| -> Result<String, String> {
        m.get(f)
            .and_then(JValue::as_str)
            .map(str::to_string)
            .ok_or(format!("{key}: a metric lacks '{f}'"))
    };
    doc.get(key)
        .and_then(JValue::as_arr)
        .ok_or(format!("no '{key}' array"))?
        .iter()
        .map(|m| {
            Ok(MetricSpec {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: field(m, "better")?,
                bound: m.get("bound").and_then(JValue::as_num),
            })
        })
        .collect()
}

impl Contract {
    /// Parse the compiled-in contract.
    ///
    /// # Errors
    /// Names the missing or malformed field.
    pub fn load() -> Result<Contract, String> {
        let doc = jsonv::parse(SOURCE)?;
        let workloads = doc
            .get("workloads")
            .and_then(JValue::as_arr)
            .ok_or("no 'workloads' array")?
            .iter()
            .map(|w| {
                let s = |f: &str| {
                    w.get(f)
                        .and_then(JValue::as_str)
                        .map(str::to_string)
                        .ok_or(format!("a workload lacks '{f}'"))
                };
                Ok((s("name")?, s("why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(JValue::as_num)
                .ok_or("no 'run_seconds'")? as u64,
            workloads,
            end_to_end: metrics(&doc, "end_to_end")?,
            per_layer: metrics(&doc, "per_layer")?,
        })
    }

    /// Check the contract against the limits the driver enforces, so a
    /// bad edit fails `--verify` here instead of being refused there.
    pub fn problems(&self) -> Vec<String> {
        let mut bad = Vec::new();
        let name_ok = |n: &str| {
            !n.is_empty()
                && n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let unit_ok = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
        };
        if !(1..=60).contains(&self.run_seconds) {
            bad.push(format!("run_seconds {} outside 1..=60", self.run_seconds));
        }
        if !(2..=8).contains(&self.workloads.len()) {
            bad.push(format!(
                "{} workloads (2 to 8 allowed)",
                self.workloads.len()
            ));
        }
        let mut names: Vec<&str> = Vec::new();
        for (n, why) in &self.workloads {
            names.push(n);
            if why.is_empty() || why.len() > 200 || why.contains('\n') {
                bad.push(format!(
                    "workload {n}: 'why' must be one line of at most 200"
                ));
            }
        }
        for m in self.end_to_end.iter().chain(&self.per_layer) {
            names.push(&m.name);
            if !unit_ok(&m.unit) {
                bad.push(format!("{}: bad unit {:?}", m.name, m.unit));
            }
            if m.better != "lower" && m.better != "higher" {
                bad.push(format!("{}: 'better' must be lower or higher", m.name));
            }
        }
        for m in &self.end_to_end {
            match m.bound {
                Some(b) if b > 0.0 && b <= 0.25 => {}
                _ => bad.push(format!("{}: bound must be in (0, 0.25]", m.name)),
            }
        }
        for m in &self.per_layer {
            if m.bound.is_some() {
                bad.push(format!("{}: per-layer metrics carry no bound", m.name));
            }
        }
        match self.end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.better == "lower" => {
                if self.end_to_end.iter().any(|o| o.bound > m.bound) {
                    bad.push("setup_s must carry the largest bound".into());
                }
            }
            _ => bad.push("end_to_end needs setup_s in s, lower".into()),
        }
        if !(1..=16).contains(&self.end_to_end.len()) {
            bad.push(format!("{} end-to-end metrics", self.end_to_end.len()));
        }
        if !(1..=128).contains(&self.per_layer.len()) {
            bad.push(format!("{} per-layer metrics", self.per_layer.len()));
        }
        for n in &names {
            if !name_ok(n) {
                bad.push(format!("bad name {n:?}"));
            }
        }
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                bad.push(format!("name {:?} used twice", pair[0]));
            }
        }
        if SOURCE.len() > 64 * 1024 {
            bad.push("BENCHMARK.json exceeds 64 KiB".into());
        }
        bad
    }

    pub fn workload_why(&self, name: &str) -> Option<&str> {
        self.workloads
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, why)| why.as_str())
    }
}
