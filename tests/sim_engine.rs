//! Tier-1 driver for the simulator-engine suites that live under
//! `crates/sim/tests/`: `cargo test` at the repository root only builds
//! this package's own `tests/`, and these are the suites that guard the
//! issue path — run-length accounting and the network's pending-work
//! indexes, fast-forward equivalence, reset-equals-fresh, the machine
//! edge cases, the decode invariants, and the static validator's
//! seeded-broken-program corpus. Each file is included as a module,
//! unchanged; `cargo test --workspace` also runs them in place.

// Three of the suites include the shared generator `common/fuzz.rs`, each
// as its own private module, exactly as they do when built standalone.
#![allow(clippy::duplicate_mod)]

#[path = "../crates/sim/tests/accounting.rs"]
mod accounting;
#[path = "../crates/sim/tests/decode.rs"]
mod decode;
#[path = "../crates/sim/tests/fast_forward.rs"]
mod fast_forward;
#[path = "../crates/sim/tests/machine_edge.rs"]
mod machine_edge;
#[path = "../crates/sim/tests/reset.rs"]
mod reset;
#[path = "../crates/sim/tests/validate.rs"]
mod validate;
