//! The `voltron` command line fails closed, like the serve wire does: a
//! flag outside the command's list, an unknown benchmark or strategy, or a
//! core count the machine model rejects is a usage error (exit status 2)
//! — never a `MachineConfig` assert, never a silently empty table, and a
//! flag is never swallowed as the benchmark name.

use voltron_bench::cli::{self, CliError, COMMANDS};
use voltron_bench::harness::HarnessArgs;
use voltron_core::Strategy;
use voltron_sim::CoherenceBackend;
use voltron_workloads::Scale;

const TAKES: [&str; 4] = ["--test", "--bench NAME", "--backend B", "--retries N"];

fn parse(argv: &[&str]) -> Result<HarnessArgs, String> {
    HarnessArgs::parse(Scale::Full, &TAKES, 3, argv)
}

/// Flags outside the command's list, missing values, surplus positionals
/// and bad values are all errors.
#[test]
fn parser_fails_closed() {
    for (bad, needle) in [
        (&["164.gzip", "--whatif"][..], "unknown flag --whatif"),
        (&["164.gzip", "--nonsense", "2"][..], "--nonsense"),
        (&["--retries"][..], "--retries requires N"),
        (&["--retries", "many"][..], "--retries"),
        (&["--backend", "psychic"][..], "psychic"),
        (&["--bench", "nope"][..], "unknown benchmark nope"),
        (&["a", "b", "c", "d"][..], "unexpected argument d"),
    ] {
        let err = parse(bad).expect_err("rejected");
        assert!(err.contains(needle), "{bad:?}: {err}");
    }
}

/// The `<benchmark> [strategy] [cores]` positionals: one strategy
/// vocabulary (every `Display` label and the short `ftlp`), one cores
/// rule, the backend sized for the machine they name.
#[test]
fn positional_target_is_validated() {
    let target = |argv: &[&str]| parse(argv).unwrap().target().map(|t| t.1);
    let snooping = CoherenceBackend::Snooping;
    assert_eq!(target(&["epic"]), Ok((Strategy::Hybrid, 4, snooping)));
    let directory = CoherenceBackend::directory_for(2);
    let full = ["164.gzip", "ftlp", "2", "--backend", "directory"];
    assert_eq!(target(&full), Ok((Strategy::FineGrainTlp, 2, directory)));
    for s in Strategy::ALL {
        let label = s.to_string();
        assert_eq!(target(&["epic", &label, "64"]), Ok((s, 64, snooping)));
    }
    for (bad, needle) in [
        (&[][..], "<benchmark>"),
        (&["nope"][..], "unknown benchmark"),
        (&["epic", "magic"][..], "unknown strategy"),
        (&["epic", "hybrid", "3"][..], "power of two"),
        (&["epic", "hybrid", "128"][..], "power of two"),
        (&["epic", "hybrid", "four"][..], "number"),
    ] {
        let err = target(bad).expect_err("rejected");
        assert!(err.contains(needle), "{bad:?}: {err}");
    }
}

/// The four command lines that used to panic, print an empty table, or
/// misread a flag are usage errors naming what was wrong, with the
/// command's usage line; nothing was simulated to find that out.
#[test]
fn the_shown_defects_are_usage_errors() {
    for (argv, needle) in [
        (&["inspect", "164.gzip", "hybrid", "3"][..], "power of two"),
        (
            &["bottleneck", "164.gzip", "hybrid", "3"][..],
            "power of two",
        ),
        (&["fig13", "--bench", "nope"][..], "unknown benchmark nope"),
        (
            &["bench_one", "164.gzip", "--retries", "2"][..],
            "unknown flag --retries",
        ),
        (&["bench_one", "--whatif"][..], "missing <benchmark>"),
        (
            &["bottleneck", "164.gzip", "magic"][..],
            "unknown strategy magic",
        ),
        (&["table1", "--test"][..], "unknown flag --test"),
        (&["fig99"][..], "unknown command fig99"),
        (&[][..], "usage: voltron <command>"),
    ] {
        match cli::run(argv) {
            Err(CliError::Usage(m)) => {
                assert!(m.contains(needle), "{argv:?}: {m}");
                assert!(m.contains("voltron"), "{argv:?}: no usage line in {m}");
            }
            other => panic!("{argv:?}: expected a usage error, got {other:?}"),
        }
    }
    assert_eq!(cli::main(&["fig13", "--bench", "nope"]), 2);
}

/// Today's seventeen names, each once.
#[test]
fn the_command_table_has_every_former_binary() {
    let names: Vec<&str> = COMMANDS.iter().map(|c| c.name).collect();
    let former = [
        "figall",
        "fig03",
        "fig10",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "scaling",
        "ablate_branch",
        "ablate_ebug",
        "ablate_network",
        "table1",
        "bench_one",
        "bottleneck",
        "inspect",
        "serve",
        "trace_check",
    ];
    assert_eq!(names, former);
}
