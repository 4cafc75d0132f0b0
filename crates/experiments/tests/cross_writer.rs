//! One cell format, two writers: the cells a `td-repro --out D` sweep
//! stores are hits for a `td-serve` daemon on `--store D/cells`, and the
//! hit's reply is byte-identical to the one a fresh daemon computes on a
//! miss — `payload_sum`, the stored file's checksum trailer, included.
//!
//! The sweep is the real `td-repro` binary; the daemons are
//! `td_serve::server::run` on threads of this test process, each with
//! its own store and socket, drained by an in-band `shutdown`.
#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};
use td_engine::json::{self, Json};
use td_serve::server::{run, ServeConfig};

const EXE: &str = env!("CARGO_BIN_EXE_td-repro");

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-xw-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// One request, one reply, connection closed.
fn request(socket: &Path, line: &str) -> String {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{line}").unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    reply.trim_end().to_owned()
}

/// Serve `store` on `socket` for one request; returns the reply and the
/// daemon's `(hits, computed)`.
fn serve_once(store: &Path, socket: &Path, req: &str) -> (String, u64, u64) {
    let cfg = ServeConfig {
        socket: socket.to_owned(),
        store_dir: store.to_owned(),
        jobs: 1,
        ..ServeConfig::default()
    };
    let daemon = std::thread::spawn(move || run(cfg, None));
    let start = Instant::now();
    while UnixStream::connect(socket).is_err() {
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "daemon never came up"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let reply = request(socket, req);
    let stats = json::parse(&request(socket, r#"{"op":"stats"}"#)).expect("stats is JSON");
    request(socket, r#"{"op":"shutdown"}"#);
    assert_eq!(daemon.join().unwrap().unwrap(), 0, "shutdown drains to 0");
    let count = |name| stats.get(name).and_then(Json::as_u64).expect(name);
    (reply, count("hits"), count("computed"))
}

#[test]
fn sweep_cells_are_daemon_hits_byte_identical_to_a_miss() {
    let dir = tmp_dir("sweep");
    let out = Command::new(EXE)
        .args(["fig8", "--seed", "7", "--out", dir.to_str().unwrap()])
        .output()
        .expect("spawn td-repro");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let req = r#"{"op":"simulate","experiment":"fig8","seed":7,"profile":"quick"}"#;
    let (hit, hits, computed) = serve_once(&dir.join("cells"), &dir.join("hit.sock"), req);
    assert_eq!(
        (hits, computed),
        (1, 0),
        "the sweep's cell must be a hit: {hit}"
    );
    assert!(hit.starts_with(r#"{"status":"ok""#), "{hit}");

    let fresh = tmp_dir("fresh");
    let (miss, hits, computed) = serve_once(&fresh.join("store"), &fresh.join("miss.sock"), req);
    assert_eq!((hits, computed), (0, 1), "{miss}");
    assert_eq!(
        hit, miss,
        "a hit on the sweep's cell and a fresh miss differ"
    );

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}
