//! What every workload shares: the command line, the operation tally,
//! and the set-up / warm-up / timed-pass loop of the untraced run.

use std::path::PathBuf;
use std::time::Instant;
use voltron_core::report::Json;

/// Set-ups per run: `setup_s` is their median, so one slow set-up does
/// not decide a run's value.
const SETUP_REPS: usize = 3;
/// A run never reports a median over fewer timed passes than this,
/// however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Parsed command line of one workload invocation.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// How long the timed phase measures, in seconds.
    pub seconds: f64,
    pub trace: bool,
    /// Smoke mode: one set-up, one pass. Its numbers are labelled as not
    /// comparable.
    pub quick: bool,
    /// Where the result document and the span file go.
    pub out_dir: PathBuf,
}

/// Operations attempted and failed, with the reason for each failure.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    /// Count one operation; an `Err` is a failed operation.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail_only(why);
        }
    }

    /// Count `n` operations that succeeded.
    pub fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Record a failure of an operation that was already counted as
    /// attempted.
    pub fn fail_only(&mut self, why: String) {
        self.failed += 1;
        // Keep the report readable when something systematic breaks.
        if self.notes.len() < 20 {
            self.notes.push(why);
        }
    }
}

/// What one pass hands back to [`timed_run`].
#[derive(Debug, Default)]
pub struct PassOut {
    /// Wall-clock of the pass's own work, seconds: what a user waits for,
    /// without the checking the benchmark does afterwards.
    pub wall_s: f64,
    /// Client-observed latency of each operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Hash of every deterministic field the pass produced; a pass whose
    /// digest differs from the warm-up pass's is a failed operation.
    pub digest: u64,
    /// Deterministic facts worth printing (taken from the warm-up pass).
    pub facts: Vec<(String, Json)>,
}

/// The raw samples of an untraced run; `main` turns them into the
/// end-to-end metrics.
#[derive(Debug, Default)]
pub struct Timed {
    pub tally: Tally,
    pub setup_s: Vec<f64>,
    pub pass_s: Vec<f64>,
    /// Operation latencies of each timed pass, milliseconds.
    pub op_ms: Vec<Vec<f64>>,
    pub facts: Vec<(String, Json)>,
}

/// Run the untraced protocol: set up [`SETUP_REPS`] times (each set-up
/// builds the inputs and runs one untimed warm-up pass, so caches are
/// full and lazy initialisation is done before timing), then run timed
/// passes on the last set-up until `--seconds` have elapsed. Returns the
/// samples and the last set-up's state, for after-timing checks.
pub fn timed_run<S>(
    args: &Args,
    mut setup: impl FnMut(&mut Tally) -> S,
    mut pass: impl FnMut(&mut S, &mut Tally) -> PassOut,
) -> (Timed, S) {
    let mut out = Timed::default();
    let mut state = None;
    let mut reference = 0u64;
    for _ in 0..if args.quick { 1 } else { SETUP_REPS } {
        // Drop the previous set-up first: two resident copies would make
        // the later set-ups slower than a user's only one.
        drop(state.take());
        let t0 = Instant::now();
        let mut s = setup(&mut out.tally);
        let warm = pass(&mut s, &mut out.tally);
        out.setup_s.push(t0.elapsed().as_secs_f64());
        reference = warm.digest;
        out.facts = warm.facts;
        state = Some(s);
    }
    let mut s = state.expect("at least one set-up ran");
    let min_passes = if args.quick { 1 } else { MIN_PASSES };
    let t_all = Instant::now();
    while out.pass_s.len() < min_passes
        || (!args.quick && t_all.elapsed().as_secs_f64() < args.seconds)
    {
        let p = pass(&mut s, &mut out.tally);
        out.pass_s.push(p.wall_s);
        out.op_ms.push(p.op_ms);
        out.tally.op(if p.digest == reference {
            Ok(())
        } else {
            Err(format!(
                "pass {}: deterministic fields differ from the warm-up pass",
                out.pass_s.len()
            ))
        });
    }
    (out, s)
}
