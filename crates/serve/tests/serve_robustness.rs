//! End-to-end robustness proof for the `td-serve` daemon.
//!
//! Each test boots the real binary on its own store + socket and
//! drives it over the wire:
//!
//! * miss → hit → corrupt → quarantine → recompute, with the `ok`
//!   responses byte-identical throughout (the cache is invisible except
//!   through `stats`);
//! * a wall-clock deadline killing an oversized cell with a structured
//!   `deadline_exceeded`, and leaving no panic report on stderr;
//! * admission control shedding a lower-priority queued request and
//!   rejecting on a full queue, then an in-band `shutdown` drain
//!   (exit 0) answering the queued client `draining`;
//! * SIGTERM drain (exit 130) answering every queued client `draining`
//!   and leaving nothing in the store but cells and `quarantine/`, and a
//!   restarted daemon, past a stale `pending.tdq` it neither reads nor
//!   touches, computing a resubmitted request and then serving it as a
//!   byte-identical hit;
//! * the blocking accept and its wake-ups: a `shutdown` acknowledged
//!   before EOF in every one of 30 daemon lifetimes, fresh connections
//!   answered without an accept poll, SIGTERM noticed by an idle daemon;
//! * hostile request lines — over the 64 KiB cap, never terminated, not
//!   UTF-8 — each answered `bad_request` while other connections are
//!   served, and seeded random lines written in random-sized pieces,
//!   each answered by exactly one `bad_request`;
//! * a cell of an older format version refused by name, quarantined and
//!   recomputed.
#![cfg(unix)]

use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use td_engine::SimRng;
use td_serve::proto::MAX_LINE_BYTES;

const EXE: &str = env!("CARGO_BIN_EXE_td-serve");

struct Daemon {
    child: Child,
    socket: PathBuf,
    store: PathBuf,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("td-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn spawn_daemon(tag: &str, extra: &[&str]) -> Daemon {
    let store = tmp_dir(tag);
    let socket = store.join("s.sock");
    spawn_daemon_at(&store, &socket, extra)
}

fn spawn_daemon_at(store: &Path, socket: &Path, extra: &[&str]) -> Daemon {
    spawn_daemon_with_stderr(store, socket, extra, Stdio::null())
}

fn spawn_daemon_with_stderr(store: &Path, socket: &Path, extra: &[&str], stderr: Stdio) -> Daemon {
    let child = Command::new(EXE)
        .arg("serve")
        .arg("--store")
        .arg(store)
        .arg("--socket")
        .arg(socket)
        .args(extra)
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .expect("spawn td-serve");
    let daemon = Daemon {
        child,
        socket: socket.to_path_buf(),
        store: store.to_path_buf(),
    };
    // Wait until the daemon accepts connections.
    let start = Instant::now();
    loop {
        if UnixStream::connect(&daemon.socket).is_ok() {
            break daemon;
        }
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "daemon never came up on {}",
            daemon.socket.display()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One request, one reply, connection closed.
fn request(socket: &Path, line: &str) -> String {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "daemon closed without replying");
    reply.trim_end().to_owned()
}

/// Open a connection and send a request without waiting for the reply —
/// for building up concurrent in-flight/queued work.
struct PendingReply {
    reader: BufReader<UnixStream>,
}

fn request_async(socket: &Path, line: &str) -> PendingReply {
    let stream = UnixStream::connect(socket).expect("connect");
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    PendingReply {
        reader: BufReader::new(stream),
    }
}

impl PendingReply {
    fn recv(mut self) -> String {
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(!reply.is_empty(), "daemon closed without replying");
        reply.trim_end().to_owned()
    }
}

fn send_sigterm(child: &Child) {
    let kill = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(kill.success());
}

fn stats(socket: &Path) -> String {
    request(socket, "{\"op\":\"stats\"}")
}

/// Pull `"name":N` out of a stats/response line.
fn field(json: &str, name: &str) -> u64 {
    let pat = format!("\"{name}\":");
    let at = json
        .find(&pat)
        .unwrap_or_else(|| panic!("no field {name} in {json}"));
    json[at + pat.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap_or_else(|_| panic!("field {name} not numeric in {json}"))
}

/// Poll stats until `pred` holds (daemon-side state is asynchronous).
fn wait_stats(socket: &Path, what: &str, pred: impl Fn(&str) -> bool) -> String {
    let start = Instant::now();
    loop {
        let s = stats(socket);
        if pred(&s) {
            break s;
        }
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "timed out waiting for {what}; last stats: {s}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Assert that a drained `store` holds nothing but `cell-*.tdc` files
/// and the `quarantine/` sidecar: no queue file and no `*.tmp`.
fn assert_only_cells(store: &Path) {
    for entry in std::fs::read_dir(store).unwrap() {
        let name = entry.unwrap().file_name().into_string().unwrap();
        let cell = name.starts_with("cell-") && name.ends_with(".tdc");
        assert!(cell || name == "quarantine", "left in the store: {name}");
    }
}

/// A store file's 8-byte little-endian checksum trailer.
fn trailer(file: &[u8]) -> u64 {
    u64::from_le_bytes(file[file.len() - 8..].try_into().unwrap())
}

/// The one `.tdc` cell in `store`.
fn only_cell(store: &Path) -> PathBuf {
    let cells: Vec<PathBuf> = std::fs::read_dir(store)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "tdc"))
        .collect();
    assert_eq!(cells.len(), 1, "cells: {cells:?}");
    cells.into_iter().next().unwrap()
}

/// A request that stays in the event loop long enough to trip any
/// wall-clock deadline: `multihop` (the heaviest topology) over a
/// 100 000 s simulation — minutes of dispatch in a debug build. The
/// deadline poll lives in the dispatch loop, so the busy experiment
/// must be dispatch-bound, not analysis-bound.
fn oversized(seed: u64, deadline_ms: u64) -> String {
    format!(
        "{{\"op\":\"simulate\",\"experiment\":\"multihop\",\"seed\":{seed},\
         \"sim_secs\":100000,\"deadline_ms\":{deadline_ms}}}"
    )
}

#[test]
fn miss_hit_corrupt_quarantine_recompute_byte_identical() {
    let d = spawn_daemon("cache", &["--jobs", "2"]);
    let req = "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":5,\"sim_secs\":2}";

    // Miss: computed and stored.
    let first = request(&d.socket, req);
    assert!(first.contains("\"status\":\"ok\""), "miss reply: {first}");
    // Hit: byte-identical to the computed response.
    let second = request(&d.socket, req);
    assert_eq!(first, second, "cache hit must be byte-identical");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "misses"), 1, "stats: {s}");
    assert_eq!(field(&s, "hits"), 1, "stats: {s}");
    assert_eq!(field(&s, "computed"), 1, "stats: {s}");
    assert_eq!(field(&s, "quarantined"), 0, "stats: {s}");

    // The reply's fingerprint is the checksum trailer of the file on disk.
    let cell = std::fs::read_dir(&d.store)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|e| e == "tdc"))
        .expect("a .tdc cell in the store");
    let mut bytes = std::fs::read(&cell).unwrap();
    let fingerprint = |file: &[u8]| format!("\"payload_sum\":\"{:016x}\"", trailer(file));
    assert!(first.contains(&fingerprint(&bytes)), "reply: {first}");

    // Corrupt the stored cell: flip one byte mid-file.
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&cell, &bytes).unwrap();

    // The daemon quarantines the corrupt cell and transparently
    // recomputes — the reply is still byte-identical.
    let third = request(&d.socket, req);
    assert_eq!(first, third, "recompute after quarantine must match");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "quarantined"), 1, "stats: {s}");
    assert_eq!(field(&s, "recomputed"), 1, "stats: {s}");
    let quarantine = d.store.join("quarantine");
    let held = std::fs::read_dir(&quarantine)
        .map(Iterator::count)
        .unwrap_or(0);
    assert_eq!(held, 1, "corrupt cell should sit in quarantine/");

    // And the store is intact again: the recomputed cell verifies, and
    // the hit on it reports that file's fingerprint too.
    let fourth = request(&d.socket, req);
    assert_eq!(first, fourth);
    let recomputed = std::fs::read(&cell).unwrap();
    assert!(
        fourth.contains(&fingerprint(&recomputed)),
        "reply: {fourth}"
    );
    let s = stats(&d.socket);
    assert_eq!(field(&s, "hits"), 2, "stats: {s}");

    // Sanity: a bad request is a structured rejection, not a hangup.
    let bad = request(&d.socket, "{\"op\":\"simulate\"}");
    assert!(
        bad.contains("\"status\":\"bad_request\""),
        "bad reply: {bad}"
    );
    let unknown = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"no-such-thing\"}",
    );
    assert!(
        unknown.contains("\"status\":\"bad_request\""),
        "unknown-experiment reply: {unknown}"
    );
}

/// `td-serve serve --store DIR` plus `flag value`, which must be refused
/// with exit 2 before a daemon starts: the refusal's stderr. A daemon
/// that did start would never exit, so it is stopped and the test fails
/// instead of hanging.
fn refused_serve_flag(store: &Path, flag: &str, value: &str) -> String {
    let mut child = Command::new(EXE)
        .arg("serve")
        .arg("--store")
        .arg(store)
        .args([flag, value])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn td-serve serve");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll td-serve") {
            break status;
        }
        if start.elapsed() > Duration::from_secs(20) {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{flag} {value} started a daemon");
        }
        std::thread::sleep(Duration::from_millis(10));
    };
    let mut err = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut err).unwrap();
    assert_eq!(status.code(), Some(2), "{flag} {value}: {err}");
    err
}

/// A cell is a pure function of its key, so the daemon has nothing to
/// retry: the retry, backoff and breaker flags are unknown flags.
#[test]
fn retry_flags_are_unknown() {
    let store = tmp_dir("no-retries");
    for flag in ["--retries", "--backoff-ms", "--breaker"] {
        let err = refused_serve_flag(&store, flag, "1");
        assert!(
            err.contains(&format!("unknown serve flag \"{flag}\"")),
            "{err}"
        );
    }
}

/// Zero workers, a zero-length queue or a zero deadline is refused by
/// name, not clamped to 1.
#[test]
fn zero_counts_are_refused() {
    let store = tmp_dir("zero-counts");
    for flag in ["--jobs", "--queue-cap", "--deadline-ms"] {
        let err = refused_serve_flag(&store, flag, "0");
        assert!(err.contains(&format!("{flag} must be positive")), "{err}");
    }
}

#[test]
fn deadline_kills_an_oversized_cell() {
    let d = spawn_daemon("deadline", &["--jobs", "1"]);
    let reply = request(&d.socket, &oversized(99, 200));
    assert!(
        reply.contains("\"status\":\"deadline_exceeded\""),
        "reply: {reply}"
    );
    assert!(
        reply.contains("td-deadline exceeded") && reply.contains("event(s)"),
        "diagnostics should name sim time and events: {reply}"
    );
    let s = stats(&d.socket);
    assert_eq!(field(&s, "deadline_exceeded"), 1, "stats: {s}");
    // The daemon is unharmed and the cell was not stored.
    let quick = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":99,\"sim_secs\":1}",
    );
    assert!(quick.contains("\"status\":\"ok\""), "quick: {quick}");
    drop(d);

    // `--deadline-ms` is the deadline of every request that names none.
    let d = spawn_daemon("deadline-default", &["--jobs", "1", "--deadline-ms", "300"]);
    let reply = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"multihop\",\"seed\":97,\"sim_secs\":100000}",
    );
    assert!(
        reply.contains("\"status\":\"deadline_exceeded\""),
        "default deadline not applied: {reply}"
    );
    let quick = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":97,\"sim_secs\":1}",
    );
    assert!(quick.contains("\"status\":\"ok\""), "quick: {quick}");
}

/// An expired deadline is an expected outcome, not a crash: the daemon's
/// stderr carries no panic report for it, with or without a backtrace.
#[test]
fn a_deadline_expiry_writes_no_panic_report() {
    use std::io::Read as _;
    let store = tmp_dir("deadline-stderr");
    let socket = store.join("s.sock");
    let mut d = spawn_daemon_with_stderr(&store, &socket, &["--jobs", "1"], Stdio::piped());
    let reply = request(&d.socket, &oversized(98, 200));
    assert!(
        reply.contains("\"status\":\"deadline_exceeded\""),
        "reply: {reply}"
    );
    let ack = request(&d.socket, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "ack: {ack}");
    assert_eq!(
        exit_code_within(&mut d.child, Duration::from_secs(20)),
        Some(0)
    );
    let mut err = String::new();
    (d.child.stderr.take().expect("stderr is piped"))
        .read_to_string(&mut err)
        .expect("read the daemon's stderr");
    assert!(!err.contains("panicked at"), "stderr: {err}");
    assert!(err.contains("td-deadline exceeded"), "stderr: {err}");
}

#[test]
fn shed_queue_full_and_shutdown_drain() {
    let mut d = spawn_daemon("shed", &["--jobs", "1", "--queue-cap", "1"]);

    // Occupy the single worker with an oversized cell; its 2s deadline
    // bounds how long the drain can take (the cell itself needs >3s).
    let busy = request_async(&d.socket, &oversized(1, 2000));
    wait_stats(&d.socket, "worker busy", |s| field(s, "in_flight") == 1);

    // Fill the queue with a priority-2 job.
    let low = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":11,\"sim_secs\":1,\"priority\":2}",
    );
    wait_stats(&d.socket, "queued job", |s| field(s, "queued") == 1);

    // A priority-5 job sheds it…
    let high = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":12,\"sim_secs\":1,\"priority\":5}",
    );
    let low_reply = low.recv();
    assert!(
        low_reply.contains("\"status\":\"overloaded\"")
            && low_reply.contains("\"reason\":\"shed\""),
        "shed victim reply: {low_reply}"
    );

    // …and a priority-1 job finds no lower-priority victim: queue_full.
    let rejected = request(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":13,\"sim_secs\":1,\"priority\":1}",
    );
    assert!(
        rejected.contains("\"reason\":\"queue_full\""),
        "reject reply: {rejected}"
    );

    // In-band shutdown: drains and exits 0.
    let ack = request(&d.socket, "{\"op\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "ack: {ack}");
    let high_reply = high.recv();
    assert!(
        high_reply.contains("\"reason\":\"draining\""),
        "queued client at drain: {high_reply}"
    );
    let busy_reply = busy.recv();
    assert!(
        busy_reply.contains("\"status\":\"deadline_exceeded\""),
        "in-flight reply: {busy_reply}"
    );
    let status = d.child.wait().expect("wait daemon");
    assert_eq!(status.code(), Some(0), "shutdown drain exits 0");
    assert_only_cells(&d.store);
}

#[test]
fn sigterm_drain_answers_the_queue_and_restart_serves_resubmits() {
    let store = tmp_dir("drain");
    let socket1 = store.join("s1.sock");
    let mut d = spawn_daemon_at(&store, &socket1, &["--jobs", "1"]);

    // Worker busy on a deadline-bounded oversized cell; two quick jobs
    // queued behind it.
    let busy = request_async(&d.socket, &oversized(1, 2000));
    wait_stats(&d.socket, "worker busy", |s| field(s, "in_flight") == 1);
    let q1 = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":21,\"sim_secs\":1}",
    );
    let q2 = request_async(
        &d.socket,
        "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":22,\"sim_secs\":1}",
    );
    wait_stats(&d.socket, "two queued jobs", |s| field(s, "queued") == 2);

    // SIGTERM: graceful drain, exit 130.
    send_sigterm(&d.child);
    for pending in [q1, q2] {
        let reply = pending.recv();
        assert!(
            reply.contains("\"reason\":\"draining\""),
            "queued client at drain: {reply}"
        );
    }
    let busy_reply = busy.recv();
    assert!(
        busy_reply.contains("\"status\":\"deadline_exceeded\""),
        "in-flight reply: {busy_reply}"
    );
    let status = d.child.wait().expect("wait daemon");
    assert_eq!(status.code(), Some(130), "signal drain exits 130");
    assert_only_cells(&store);

    // Restart on the same store, past a `pending.tdq` an older build
    // drained to: it is neither read nor touched. The resubmitted request
    // is a miss, computed, then a hit with the same bytes.
    let stale = b"TDQP\x02\x00\x00\x00 an older build's queue \xff";
    std::fs::write(store.join("pending.tdq"), stale).unwrap();
    let socket2 = store.join("s2.sock");
    let d2 = spawn_daemon_at(&store, &socket2, &["--jobs", "2"]);
    let req = "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":21,\"sim_secs\":1}";
    let miss = request(&d2.socket, req);
    assert!(miss.contains("\"status\":\"ok\""), "miss: {miss}");
    let s = stats(&d2.socket);
    assert_eq!(field(&s, "misses"), 1, "stats: {s}");
    assert_eq!(field(&s, "computed"), 1, "stats: {s}");
    let hit = request(&d2.socket, req);
    assert_eq!(hit, miss, "the hit is the miss's bytes");
    let s = stats(&d2.socket);
    assert_eq!(field(&s, "hits"), 1, "stats: {s}");
    assert!(
        std::fs::read(store.join("pending.tdq")).unwrap() == stale,
        "the stale queue file is untouched"
    );
}

/// Wait for the daemon to exit, failing if it takes longer than `limit`.
fn exit_code_within(child: &mut Child, limit: Duration) -> Option<i32> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            break status.code();
        }
        assert!(start.elapsed() < limit, "daemon still up after {limit:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn shutdown_reply_always_precedes_exit() {
    // The drain starts the moment the accept loop is woken, and ends in
    // process exit: the acknowledgement must be on the wire first, every
    // time, and the exit code must say "in-band".
    let store = tmp_dir("lifetimes");
    for life in 0..30 {
        let socket = store.join(format!("s{life}.sock"));
        let mut d = spawn_daemon_at(&store, &socket, &["--jobs", "1"]);
        // `request` fails on EOF before a reply line.
        let ack = request(&d.socket, "{\"op\":\"shutdown\"}");
        assert_eq!(ack, "{\"status\":\"ok\",\"draining\":true}", "life {life}");
        let code = exit_code_within(&mut d.child, Duration::from_secs(5));
        assert_eq!(code, Some(0), "life {life}");
        assert!(!socket.exists(), "life {life}: socket file removed");
    }
}

#[test]
fn fresh_connections_do_not_wait_for_an_accept_poll() {
    // What `td-serve req` does per request. The 25 ms accept poll this
    // replaces pinned the median at >= 25 ms; a blocking accept answers
    // in well under a millisecond, and 5 ms leaves room for a busy box.
    let d = spawn_daemon("fresh", &["--jobs", "1"]);
    let mut ms: Vec<f64> = (0..20)
        .map(|_| {
            let start = Instant::now();
            let pong = request(&d.socket, "{\"op\":\"ping\"}");
            assert!(pong.contains("\"pong\":true"), "pong: {pong}");
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = (ms[9] + ms[10]) / 2.0;
    assert!(median < 5.0, "median fresh-connection ping {median:.2} ms");
}

#[test]
fn sigterm_wakes_an_idle_daemon() {
    // Nothing connects, so nothing but the signal watcher's self-connect
    // can get the daemon out of its blocking accept.
    let mut d = spawn_daemon("idle-term", &["--jobs", "1"]);
    send_sigterm(&d.child);
    let code = exit_code_within(&mut d.child, Duration::from_secs(1));
    assert_eq!(code, Some(130), "signal drain exits 130");
}

/// Write `bytes` on a connection of its own, from another thread so a
/// daemon that stops reading cannot block the test. While it is open a
/// fresh connection must still get its `ping` answered. Returns the
/// daemon's first reply on it, and whether the daemon then closed it.
fn hostile_line(d: &Daemon, bytes: Vec<u8>) -> (String, bool) {
    let stream = UnixStream::connect(&d.socket).expect("connect");
    // A daemon that never answers fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let sender = std::thread::spawn(move || {
        // A daemon that hangs up mid-line fails the rest of the write.
        let _ = writer.write_all(&bytes);
        writer
    });
    let pong = request(&d.socket, "{\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "pong: {pong}");
    let mut reader = BufReader::new(stream);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(reply.ends_with('\n'), "daemon closed without replying");
    let mut writer = sender.join().unwrap();
    let closed = if writer.write_all(b"{\"op\":\"ping\"}\n").is_ok() {
        let mut next = String::new();
        // EOF, or a reset for the bytes the daemon never read.
        !matches!(reader.read_line(&mut next), Ok(n) if n > 0)
    } else {
        true
    };
    (reply.trim_end().to_owned(), closed)
}

#[test]
fn an_oversized_line_is_refused_and_its_connection_closed() {
    let d = spawn_daemon("long-line", &["--jobs", "1"]);
    let mut line = format!("{{\"op\":\"ping\",\"pad\":\"{}\"}}", "x".repeat(100 << 10));
    line.push('\n');
    let (reply, closed) = hostile_line(&d, line.into_bytes());
    assert_eq!(
        reply,
        "{\"status\":\"bad_request\",\"reason\":\"request line exceeds 65536 bytes\"}"
    );
    assert!(closed, "the rest of the line is never read");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "bad_requests"), 1, "stats: {s}");
}

#[test]
fn a_never_terminated_line_is_cut_at_the_cap() {
    let d = spawn_daemon("endless", &["--jobs", "1"]);
    let (reply, closed) = hostile_line(&d, vec![b'{'; 1 << 20]);
    assert!(
        reply.contains("request line exceeds 65536 bytes"),
        "reply: {reply}"
    );
    assert!(closed);
    let s = stats(&d.socket);
    assert_eq!(field(&s, "bad_requests"), 1, "stats: {s}");
}

#[test]
fn a_non_utf8_line_is_a_bad_request_not_a_hangup() {
    let d = spawn_daemon("not-utf8", &["--jobs", "1"]);
    let (reply, closed) = hostile_line(&d, b"{\"op\":\"p\xffng\"}\n".to_vec());
    assert_eq!(
        reply,
        "{\"status\":\"bad_request\",\"reason\":\"request line is not UTF-8 \
         (invalid byte at offset 8)\"}"
    );
    assert!(!closed, "the next line on the connection is served");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "bad_requests"), 1, "stats: {s}");
}

/// A cell an older build sealed — format version 1, byte-wise FNV-1a
/// trailer — is refused by name: `verify` reports the version, and the
/// daemon quarantines it and recomputes the same reply.
#[test]
fn a_v1_cell_is_quarantined_by_name_and_recomputed() {
    let d = spawn_daemon("v1-cell", &["--jobs", "1"]);
    let req = "{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":5,\"sim_secs\":2}";
    let first = request(&d.socket, req);
    let cell = only_cell(&d.store);
    let bytes = std::fs::read(&cell).unwrap();
    let mut v1 = bytes[..bytes.len() - 8].to_vec();
    v1[4..8].copy_from_slice(&1u32.to_le_bytes());
    let check = td_engine::fnv1a(&v1);
    v1.extend_from_slice(&check.to_le_bytes());
    std::fs::write(&cell, &v1).unwrap();

    let verify = Command::new(EXE)
        .arg("verify")
        .arg("--store")
        .arg(&d.store)
        .output()
        .expect("run td-serve verify");
    assert_eq!(verify.status.code(), Some(1), "a v1 cell is not intact");
    let out = String::from_utf8_lossy(&verify.stdout);
    assert!(
        out.contains("cell format v1; this build reads v2"),
        "verify: {out}"
    );

    let again = request(&d.socket, req);
    assert_eq!(first, again, "the recompute answers the same bytes");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "quarantined"), 1, "stats: {s}");
    assert_eq!(field(&s, "recomputed"), 1, "stats: {s}");
    let held = d.store.join("quarantine").join(cell.file_name().unwrap());
    assert!(
        std::fs::read(held).unwrap() == v1,
        "the v1 file is evidence"
    );
    assert!(again.contains(&format!("{:016x}", trailer(&std::fs::read(&cell).unwrap()))));
}

/// A random request line: non-blank, newline-free, under the cap. It
/// is built from pieces of the grammar (text the parser must refuse
/// deep inside an object), in half the lines mixed with arbitrary bytes.
fn random_line(rng: &mut SimRng) -> Vec<u8> {
    const TOKENS: [&[u8]; 16] = [
        b"{",
        b"}",
        b"\"",
        b":",
        b",",
        b" ",
        b"\\",
        b"\\u00e9",
        b"\"op\"",
        b"\"ping\"",
        b"\"simulate\"",
        b"\"seed\"",
        b"\"fig2\"",
        b"7",
        b"18446744073709551616",
        b"true",
    ];
    let len = match rng.next_below(8) {
        0..=4 => 1 + rng.next_below(64),
        5 | 6 => 65 + rng.next_below(4096),
        _ => 4097 + rng.next_below(MAX_LINE_BYTES as u64 - 4098),
    } as usize;
    let arbitrary = rng.next_below(2) == 0;
    let mut line = Vec::with_capacity(len + 20);
    while line.len() < len {
        if arbitrary && rng.next_below(2) == 0 {
            line.push(rng.next_u64() as u8);
        } else {
            line.extend_from_slice(TOKENS[rng.next_below(TOKENS.len() as u64) as usize]);
        }
    }
    line.truncate(len);
    line.retain(|&b| b != b'\n');
    // A printable first byte keeps the line from being blank; half the
    // lines open an object, so the parser reads past the first byte.
    line.insert(
        0,
        match rng.next_below(2) {
            0 => b'{',
            _ => b'!' + rng.next_below(94) as u8,
        },
    );
    line
}

/// Seeded random lines, each written in random-sized pieces with pauses
/// between them, while a second connection pings: every line gets
/// exactly one `bad_request`, and the daemon counts each.
#[test]
fn random_lines_in_partial_writes_each_get_one_bad_request() {
    const LINES: u64 = 40;
    let d = spawn_daemon("fuzz", &["--jobs", "1"]);
    let stream = UnixStream::connect(&d.socket).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let pinger = UnixStream::connect(&d.socket).expect("connect");
    pinger
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    let mut ping_writer = pinger.try_clone().unwrap();
    let mut ping_reader = BufReader::new(pinger);
    let mut ping = || {
        ping_writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
        let mut pong = String::new();
        ping_reader.read_line(&mut pong).expect("a pong");
        assert_eq!(pong, "{\"status\":\"ok\",\"pong\":true}\n");
    };

    let mut rng = SimRng::new(0x5eed_f022);
    for i in 0..LINES {
        let line = random_line(&mut rng);
        let mut rest = &line[..];
        while !rest.is_empty() {
            let piece = 1 + rng.next_below(rest.len().min(8192) as u64) as usize;
            writer.write_all(&rest[..piece]).unwrap();
            rest = &rest[piece..];
            std::thread::sleep(Duration::from_micros(rng.next_below(1500)));
            // Mid-line, another client is served.
            ping();
        }
        writer.write_all(b"\n").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("a reply");
        assert!(
            reply.starts_with("{\"status\":\"bad_request\",\"reason\":"),
            "line {i} ({} bytes): {reply}",
            line.len()
        );
    }
    // Exactly one reply per line: the next one answers this ping.
    writer.write_all(b"{\"op\":\"ping\"}\n").unwrap();
    let mut pong = String::new();
    reader.read_line(&mut pong).unwrap();
    assert!(pong.contains("\"pong\":true"), "pong: {pong}");
    let s = stats(&d.socket);
    assert_eq!(field(&s, "bad_requests"), LINES, "stats: {s}");
}
