//! The workspace's one JSON value and parser live in
//! `voltron_core::report`; these two names stay only because
//! `benchmark/README.md`'s API list spells them `jsonv::{parse, JValue}`.

pub use voltron_core::report::{parse, Json as JValue};
