//! The provenance block every output carries: enough about the host,
//! the toolchain, the tree and the run's settings to judge two result
//! files comparable before comparing their numbers.

use crate::common::Args;
use crate::contract::Contract;
use voltron_core::report::Json;

fn first_line_of(path: &str, key: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

fn trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    first_line_of("/proc/self/status", "VmHWM")
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn collect(contract: &Contract, args: &Args) -> Vec<(String, Json)> {
    let unknown = || "unknown".to_string();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let os = format!(
        "{} {}",
        trimmed("/proc/sys/kernel/ostype").unwrap_or_else(unknown),
        trimmed("/proc/sys/kernel/osrelease").unwrap_or_else(unknown)
    );
    let bounds = contract
        .end_to_end
        .iter()
        .map(|m| (m.name.clone(), Json::Num(m.bound.unwrap_or(0.0))))
        .collect();
    vec![
        ("host_nproc".into(), Json::UInt(nproc as u64)),
        (
            "host_cpu".into(),
            Json::Str(first_line_of("/proc/cpuinfo", "model name").unwrap_or_else(unknown)),
        ),
        ("host_os".into(), Json::Str(os)),
        ("rustc".into(), Json::Str(rustc_version())),
        // Short hash plus `-dirty`; "unknown" outside a git checkout.
        (
            "git_rev".into(),
            Json::Str(voltron_bench::harness::git_rev()),
        ),
        (
            "build_profile".into(),
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug (numbers are meaningless)"
                } else {
                    "release, lto=thin, codegen-units=1"
                }
                .into(),
            ),
        ),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("quick".into(), Json::UInt(u64::from(args.quick))),
        (
            "modelled_caches".into(),
            Json::Str("start empty on every simulated run".into()),
        ),
        ("regression_bounds".into(), Json::Obj(bounds)),
    ]
}
