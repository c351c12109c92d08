//! The serve engine's suites, one test binary: in process (`serve`) and
//! over TCP against the built `voltron` binary (`serve_daemon`).

mod serve;
mod serve_daemon;
