//! The one serve test that needs the built `voltron` binary
//! (`CARGO_BIN_EXE_voltron`); every in-process serve test is in `serve.rs`.

use voltron_core::report::{parse, Json};

/// Full TCP round trip against the real `voltron serve` daemon: bind port 0,
/// discover the port from the `LISTENING` line, and exchange NDJSON.
#[test]
fn tcp_daemon_round_trip() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::process::{Command, Stdio};

    let mut child = Command::new(env!("CARGO_BIN_EXE_voltron"))
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn serve daemon");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read LISTENING banner");
    let addr = banner
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let result = std::panic::catch_unwind(|| {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(
                b"{\"id\": 1, \"workload\": \"rawcaudio\", \"strategy\": \"serial\", \"cores\": 1}\n\
                  {\"id\": 2, \"stats\": true}\n",
            )
            .expect("send requests");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut rows = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read response row");
            rows.push(parse(line.trim()).expect("row parses"));
        }
        let run = rows
            .iter()
            .find(|r| r.get("id").and_then(Json::as_num) == Some(1.0))
            .expect("run row");
        assert_eq!(run.get("ok").and_then(Json::as_num), Some(1.0));
        assert!(run.get("cycles").and_then(Json::as_num).unwrap_or(0.0) > 0.0);
        let stats = rows
            .iter()
            .find(|r| r.get("id").and_then(Json::as_num) == Some(2.0))
            .expect("stats row");
        assert!(stats.get("stats").is_some());
    });
    let _ = child.kill();
    let _ = child.wait();
    if let Err(p) = result {
        std::panic::resume_unwind(p);
    }
}
