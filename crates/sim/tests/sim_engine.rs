//! The simulator-engine suites, one test binary: run-length accounting
//! and the network's pending-work indexes, fast-forward equivalence,
//! reset-equals-fresh, the machine edge cases, the decode invariants, and
//! the static validator's seeded-broken-program corpus. Each suite is a
//! module, so a test's id is `<suite>::<test>`
//! (`cargo test -p voltron-sim --test sim_engine accounting::`).

/// Helpers the suites share.
mod common {
    pub mod cases;
    pub mod fuzz;
    pub mod mesh;
    pub mod validate_oracle;
}

mod accounting;
mod decode;
mod fast_forward;
mod machine_edge;
mod reset;
mod validate;
