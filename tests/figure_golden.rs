//! Pins the figure output. `tests/golden/figall_test.txt` is the stdout
//! of `figall --test` as the per-figure binaries' last commit printed it
//! (two runs compared equal); the figure table (`voltron_bench::figures`)
//! must reproduce it byte for byte, and a single-figure selection must
//! print exactly its section of `figall` — so `voltron fig13` and `voltron
//! figall` cannot drift apart, and a change to any number any figure
//! reports shows up as a diff of a committed file.

use voltron_bench::figures::{self, FIGURES};
use voltron_bench::harness::HarnessArgs;
use voltron_workloads::Scale;

const GOLDEN: &str = include_str!("golden/figall_test.txt");

fn args(argv: &[&str]) -> HarnessArgs {
    let takes = ["--backend snooping|directory", "--bench NAME"];
    HarnessArgs::parse(Scale::Test, &takes, 0, argv).expect("flags parse")
}

/// `command`'s figures, swept and rendered in-process.
fn rendered(command: &str, args: &HarnessArgs) -> String {
    let figs = figures::select(command);
    assert!(!figs.is_empty(), "{command} selects no figure");
    let harvest = figures::sweep(command, &figs, args);
    assert!(harvest.failures.is_empty(), "{:?}", harvest.failures);
    figures::render(&figs, &harvest)
}

#[test]
fn figall_at_test_scale_is_the_committed_golden() {
    let out = rendered("figall", &args(&[]));
    for (n, (got, want)) in out.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(got, want, "line {} differs", n + 1);
    }
    assert_eq!(out, GOLDEN, "same lines, different length or line ends");
}

/// A single-figure command prints exactly its section of `figall` run on
/// the same selection: the six sections, each from a sweep of its own
/// (other points, so other class leaders), concatenate to `figall`'s
/// output. Checked on one benchmark, whose hybrid shares the LLP build's
/// simulation: six more whole sweeps would triple this file's time, and
/// the code path does not depend on how many workloads are selected.
#[test]
fn each_single_figure_prints_its_section_of_figall() {
    let args = args(&["--bench", "gsmencode"]);
    let mut sections = String::new();
    for f in &FIGURES {
        let section = rendered(f.id, &args);
        let heading = format!("== {} ==\n", f.heading);
        assert!(section.starts_with(&heading), "{}: {section}", f.id);
        assert!(GOLDEN.contains(&heading), "{}: not the golden's", f.id);
        sections.push_str(&section);
    }
    assert_eq!(sections, rendered("figall", &args));
}

/// `--backend directory` reaches every figure's simulations (Fig. 3's
/// used to run, and label, snooping whatever the flag said): each sidecar
/// row carries the directory label, and the rows are the directory
/// machine's, not the snooping one's under another name.
#[test]
fn every_figure_simulates_the_backend_it_was_asked_for() {
    let on = |family: &str, id: &str| {
        let args = args(&["--backend", family, "--bench", "164.gzip"]);
        let figs = figures::select(id);
        let mut harvest = figures::sweep(id, &figs, &args);
        let runs = harvest.summaries.remove(0).runs;
        assert!(!runs.is_empty(), "{id}: no runs in the sidecar");
        for r in &runs {
            assert_eq!(r.backend, family, "{id}: {}/{}", r.strategy, r.cores);
        }
        runs.iter().map(|r| r.cycles).collect::<Vec<u64>>()
    };
    for f in &FIGURES {
        assert_ne!(
            on("directory", f.id),
            on("snooping", f.id),
            "{}: directory rows equal the snooping ones",
            f.id
        );
    }
}
