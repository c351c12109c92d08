//! `--verify`: the benchmark checks itself against its contract.
//!
//! Runs every workload in `--quick` mode, traced and untraced, each in
//! its own process as the driver would, and checks that the last line of
//! each output is the contract's result object with exactly the metrics
//! `BENCHMARK.json` names for that mode — each once, each with the
//! contract's unit — and that every span file parses and is balanced and
//! parent-consistent.

use crate::contract::{Contract, MetricSpec};
use crate::spans;
use std::path::Path;
use std::process::Command;
use voltron_bench::jsonv::{self, JValue};

/// Check one result line against the metrics of its mode.
fn check_result(line: &str, specs: &[MetricSpec]) -> Result<(), String> {
    let doc = jsonv::parse(line).map_err(|e| format!("last line is not JSON: {e}"))?;
    let JValue::Obj(members) = &doc else {
        return Err("last line is not a JSON object".into());
    };
    let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
    if keys != ["correct", "attempted", "failed", "metrics"] {
        return Err(format!("result keys are {keys:?}"));
    }
    if doc.get("correct") != Some(&JValue::Bool(true)) {
        return Err("the run reports correct=false".into());
    }
    let whole = |k: &str| {
        doc.get(k)
            .and_then(JValue::as_num)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or(format!("'{k}' is not a whole number"))
    };
    if whole("attempted")? < 1.0 {
        return Err("attempted is below 1".into());
    }
    if whole("failed")? != 0.0 {
        return Err("operations failed".into());
    }
    let Some(JValue::Obj(metrics)) = doc.get("metrics") else {
        return Err("'metrics' is not an object".into());
    };
    for spec in specs {
        let hits: Vec<&JValue> = metrics
            .iter()
            .filter(|(k, _)| *k == spec.name)
            .map(|(_, v)| v)
            .collect();
        let [m] = hits.as_slice() else {
            return Err(format!("{} is emitted {} times", spec.name, hits.len()));
        };
        if m.get("value").and_then(JValue::as_num).is_none() {
            return Err(format!("{} has no numeric value", spec.name));
        }
        if m.get("unit").and_then(JValue::as_str) != Some(spec.unit.as_str()) {
            return Err(format!("{} does not carry unit {}", spec.name, spec.unit));
        }
    }
    for (name, _) in metrics {
        if !specs.iter().any(|s| s.name == *name) {
            return Err(format!("{name} is emitted but not named in BENCHMARK.json"));
        }
    }
    Ok(())
}

/// Run the self-check; `Ok(false)` when anything is off.
///
/// # Errors
/// Only when the benchmark cannot start its own executable.
pub fn verify(contract: &Contract, out_dir: &Path) -> Result<bool, String> {
    let mut problems = contract.problems();
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    for (workload, _) in &contract.workloads {
        for (trace, specs) in [("0", &contract.end_to_end), ("1", &contract.per_layer)] {
            eprintln!("verify: {workload} --trace {trace} --quick");
            // `output` waits for the child and collects what it printed.
            let out = Command::new(&exe)
                .args(["--workload", workload, "--trace", trace, "--quick", "--out"])
                .arg(out_dir)
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let checked = if out.status.success() {
                check_result(stdout.lines().last().unwrap_or(""), specs)
            } else {
                Err(format!("exited with {}", out.status))
            };
            if let Err(e) = checked {
                problems.push(format!("{workload} --trace {trace}: {e}"));
            }
        }
        let path = out_dir.join(format!("trace-{workload}.json"));
        let spans_ok = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| jsonv::parse(&text))
            .and_then(|doc| spans::check_document(&doc));
        match spans_ok {
            Ok(n) => eprintln!("verify: {} holds {n} well-formed spans", path.display()),
            Err(e) => problems.push(format!("{}: {e}", path.display())),
        }
    }
    for p in &problems {
        println!("verify: PROBLEM: {p}");
    }
    println!(
        "verify: {} workloads, {} end-to-end and {} per-layer metrics: {}",
        contract.workloads.len(),
        contract.end_to_end.len(),
        contract.per_layer.len(),
        if problems.is_empty() { "ok" } else { "FAILED" }
    );
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, unit: &str) -> MetricSpec {
        MetricSpec {
            name: name.into(),
            unit: unit.into(),
            better: "lower".into(),
            bound: Some(0.1),
        }
    }

    #[test]
    fn result_line_must_match_the_contract_exactly() {
        let specs = [spec("pass_s", "s"), spec("setup_s", "s")];
        let good = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"pass_s":{"value":1.5,"unit":"s"},"setup_s":{"value":0.5,"unit":"s"}}}"#;
        assert_eq!(check_result(good, &specs), Ok(()));
        let missing = r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"pass_s":{"value":1.5,"unit":"s"}}}"#;
        assert!(check_result(missing, &specs)
            .unwrap_err()
            .contains("0 times"));
        let extra = good.replace(
            "\"metrics\":{",
            "\"metrics\":{\"x\":{\"value\":1,\"unit\":\"s\"},",
        );
        assert!(check_result(&extra, &specs)
            .unwrap_err()
            .contains("not named"));
        let twice = good.replace(
            "\"metrics\":{",
            "\"metrics\":{\"pass_s\":{\"value\":1,\"unit\":\"s\"},",
        );
        assert!(check_result(&twice, &specs)
            .unwrap_err()
            .contains("2 times"));
        let unit = good.replace("\"unit\":\"s\"}}}", "\"unit\":\"ms\"}}}");
        assert!(check_result(&unit, &specs).unwrap_err().contains("unit"));
        let failed = good.replace("\"failed\":0", "\"failed\":1");
        assert!(check_result(&failed, &specs).is_err());
    }
}
