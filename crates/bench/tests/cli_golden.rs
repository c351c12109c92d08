//! Pins the text the bottleneck and inspect commands print. Each file in
//! `tests/golden/` is the stdout of the built `voltron` binary: the CPI
//! stack, the per-region diagnoses and breakdowns, and the what-if
//! ceilings, so a change to any number or row either report prints shows
//! up as a diff of a committed file. `inspect`'s machine-code dump is left
//! out (the file starts at its `== run ==` line): an emission change moves
//! the code, not the accounting this pins.

use std::process::Command;

/// `voltron <args>`'s stdout; the command must succeed.
fn stdout(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_voltron"))
        .args(args)
        .output()
        .expect("run voltron");
    assert!(out.status.success(), "voltron {args:?}: {:?}", out.status);
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn assert_golden(what: &str, got: &str, want: &str) {
    for (n, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "{what}: line {} differs", n + 1);
    }
    assert_eq!(
        got, want,
        "{what}: same lines, different length or line ends"
    );
}

#[test]
fn bottleneck_and_inspect_print_the_committed_goldens() {
    assert_golden(
        "bottleneck 164.gzip",
        &stdout(&["bottleneck", "164.gzip"]),
        include_str!("golden/bottleneck_164_gzip.txt"),
    );
    assert_golden(
        "bottleneck --all",
        &stdout(&["bottleneck", "--all"]),
        include_str!("golden/bottleneck_all.txt"),
    );
    let inspect = stdout(&["inspect", "164.gzip"]);
    let run = inspect.find("== run ==\n").expect("an `== run ==` line");
    assert_golden(
        "inspect 164.gzip",
        &inspect[run..],
        include_str!("golden/inspect_164_gzip.txt"),
    );
}
