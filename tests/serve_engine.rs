//! Tier-1 driver for the serve daemon's equivalence suite, which lives
//! under `crates/bench/tests/` (see `tests/sim_engine.rs` for the
//! pattern). It asserts served == direct `Experiment` results bit for
//! bit; the serve engine simulates every configuration it is asked for,
//! so the same assertions hold `Experiment`'s shared simulations
//! (DESIGN.md, "Shared simulations") to an engine that shares none.
//! `cargo test --workspace` also runs the file in place, next to
//! `serve_daemon.rs` — the one serve test that needs the built binary.

#[path = "../crates/bench/tests/serve.rs"]
mod serve;
