//! The evaluation harness behind the `voltron` command line
//! (`src/bin/voltron.rs`): the figure table, the command table, the
//! workload sweep they run on, and the serve daemon.

pub mod cli;
pub mod figures;
pub mod harness;
pub mod jsonv;
pub mod serve;
