//! The daemon: accept loop, admission control, worker pool and graceful
//! drain.
//!
//! # Request lifecycle
//!
//! ```text
//! blocking accept ──▶ one thread per connection, one line per request
//!  (a self-connect wakes it into the drain: after a flushed
//!   `shutdown` reply, or from the signal watcher)
//!
//! client line ──parse──▶ admission ──▶ store lookup ──hit──▶ respond ok
//!  (≤ 64 KiB)               │         (one checksum  │miss/quarantined
//!                           │           pass)        ▼
//!                           │        bounded priority queue ──▶ worker
//!                           │                                    │
//!                      overloaded /                  cell::compute, once
//!                      queue_full / shed               ╱        │        ╲
//!                                             ok: store_policy  deadline   panic:
//!                                             clean: store, ok  exceeded   failed
//!                                             audited: failed
//! ```
//!
//! A cell's report is a pure function of `(experiment, profile, seed,
//! overrides)`, so a worker computes it at most once per request and
//! answers what that run produced: a panic or an audit violation would
//! recur on a second run. Responses carry no wall-clock or cache fields —
//! a cache hit and a recompute of the same cell are byte-identical,
//! which the integration tests and the CI `serve` job pin.

use crate::proto::{self, Request, SimulateReq};
use std::io::{self, BufRead, BufReader, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use td_engine::json;
use td_experiments::cell::{self, Limits, Outcome};
use td_experiments::registry::{config_hash, find, Entry};
use td_experiments::store::{CellData, CellKey, Lookup, Store};
use td_experiments::sweep::budget;
use td_experiments::Report;
use td_net::audit::Tally;

/// Daemon configuration (the `td-serve serve` flag surface).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Store directory (cells and their quarantine sidecar).
    pub store_dir: PathBuf,
    /// Worker threads = job-budget slots.
    pub jobs: usize,
    /// Bounded queue capacity; beyond it, shed or reject.
    pub queue_cap: usize,
    /// Deadline applied to requests that don't carry their own.
    pub default_deadline_ms: Option<u64>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            socket: PathBuf::from("td-serve.sock"),
            store_dir: PathBuf::from("store"),
            jobs: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2),
            queue_cap: 64,
            default_deadline_ms: None,
        }
    }
}

/// Monotonic service counters, exposed by the `stats` request. Naming
/// is part of the wire contract — the CI `serve` job asserts on it.
#[derive(Debug, Default)]
pub struct Counters {
    /// Request lines received (any op, including unparsable).
    pub requests: AtomicU64,
    /// `ok` responses sent (hits + computes).
    pub ok: AtomicU64,
    /// Unparsable or invalid requests.
    pub bad_requests: AtomicU64,
    /// Simulate requests answered from the store.
    pub hits: AtomicU64,
    /// Simulate requests with no stored cell.
    pub misses: AtomicU64,
    /// Cells computed by a worker (first time).
    pub computed: AtomicU64,
    /// Cells recomputed after their stored copy was quarantined.
    pub recomputed: AtomicU64,
    /// Worker panics caught.
    pub worker_panics: AtomicU64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: AtomicU64,
    /// `failed` responses (worker panics, audit violations, store errors).
    pub failed: AtomicU64,
    /// Queued requests shed to admit a higher-priority one.
    pub shed: AtomicU64,
    /// Requests rejected outright (`queue_full` or `draining`).
    pub overloaded: AtomicU64,
    /// Corrupt store cells moved to quarantine during lookups.
    pub quarantined: AtomicU64,
}

/// One queued simulate job.
struct Job {
    seq: u64,
    req: SimulateReq,
    /// `req`'s registry entry, resolved at admission.
    entry: Entry,
    key: CellKey,
    deadline: Option<Instant>,
    reply: mpsc::Sender<String>,
    /// The stored copy was quarantined; success counts as a recompute.
    recompute: bool,
}

#[derive(Default)]
struct QueueState {
    items: Vec<Job>,
    next_seq: u64,
    in_flight: usize,
    stop: bool,
}

struct Shared {
    cfg: ServeConfig,
    store: Store,
    counters: Counters,
    queue: Mutex<QueueState>,
    cond: Condvar,
    draining: AtomicBool,
    /// Request lines read whose reply is not yet on its socket. The
    /// drain waits for zero before the process may exit.
    replies_owed: AtomicU64,
}

/// Run the daemon until a drain completes. `interrupt` is the
/// signal-handler flag (SIGINT/SIGTERM); an in-band `shutdown` request
/// drains identically. Returns the process exit code: 130 for a
/// signal-initiated drain (mirroring `td-repro`), 0 otherwise.
pub fn run(cfg: ServeConfig, interrupt: Option<&'static AtomicBool>) -> io::Result<i32> {
    let store = Store::open(&cfg.store_dir)?;
    let _ = std::fs::remove_file(&cfg.socket);
    let listener = UnixListener::bind(&cfg.socket)?;
    budget().configure(cfg.jobs);

    let shared = Arc::new(Shared {
        store,
        counters: Counters::default(),
        queue: Mutex::new(QueueState::default()),
        cond: Condvar::new(),
        draining: AtomicBool::new(false),
        replies_owed: AtomicU64::new(0),
        cfg,
    });

    let mut workers = Vec::new();
    for _ in 0..shared.cfg.jobs.max(1) {
        let s = Arc::clone(&shared);
        workers.push(std::thread::spawn(move || worker_loop(&s)));
    }

    eprintln!(
        "td-serve: listening on {} (store {}, {} worker(s), queue cap {})",
        shared.cfg.socket.display(),
        shared.cfg.store_dir.display(),
        shared.cfg.jobs.max(1),
        shared.cfg.queue_cap,
    );

    // A signal never surfaces from the blocking accept (glibc's `signal`
    // sets SA_RESTART, std retries EINTR): a watcher turns the handler's
    // flag into wake-ups, until the accept loop drops `watch_stop`.
    let (watch_stop, watch_rx) = mpsc::channel::<()>();
    let watcher = interrupt.map(|flag| {
        let s = Arc::clone(&shared);
        std::thread::spawn(move || {
            let tick = Duration::from_millis(20);
            while let Err(mpsc::RecvTimeoutError::Timeout) = watch_rx.recv_timeout(tick) {
                if flag.load(Ordering::SeqCst) {
                    wake_accept(&s.cfg.socket);
                }
            }
        })
    });

    let interrupted = || interrupt.is_some_and(|f| f.load(Ordering::SeqCst));
    loop {
        match listener.accept() {
            // Usually the wake-up; whichever connection it is, drop it.
            Ok(_) if interrupted() || shared.draining.load(Ordering::SeqCst) => break,
            Ok((stream, _)) => {
                let s = Arc::clone(&shared);
                std::thread::spawn(move || handle_conn(&s, stream));
            }
            Err(e) => {
                eprintln!("td-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    let signalled = interrupted();
    drop(watch_stop);
    if let Some(w) = watcher {
        let _ = w.join();
    }

    shared.draining.store(true, Ordering::SeqCst);
    eprintln!("td-serve: draining (in-flight cells finish, queued clients are answered)");
    drop(listener);
    let _ = std::fs::remove_file(&shared.cfg.socket);
    drain_queue(&shared);
    for w in workers {
        let _ = w.join();
    }
    // Connection threads are detached and process exit would cut their
    // last replies off: wait until every request line read has been
    // answered (bounded, for a client that stopped reading).
    let patience = Instant::now() + Duration::from_secs(1);
    while shared.replies_owed.load(Ordering::SeqCst) > 0 && Instant::now() < patience {
        std::thread::sleep(Duration::from_millis(1));
    }
    eprintln!("td-serve: drain complete");
    Ok(if signalled { 130 } else { 0 })
}

/// End the blocking `accept` (no `poll` without `unsafe`): connect to our
/// own socket, once the flag the accept loop checks is up.
fn wake_accept(socket: &Path) {
    let _ = UnixStream::connect(socket);
}

/// Stop the workers and answer every queued client `draining`: a cell
/// is a pure function of its key, so a client that resubmits gets the
/// same bytes, and the drain leaves nothing on disk.
fn drain_queue(shared: &Shared) {
    let jobs = {
        let mut q = shared.queue.lock().unwrap();
        q.stop = true;
        shared.cond.notify_all();
        std::mem::take(&mut q.items)
    };
    for job in jobs {
        let _ = job.reply.send(render_overloaded("draining"));
    }
}

/// What one read of a request line produced.
enum ConnLine {
    /// A line (newline stripped), or the unterminated rest before EOF.
    Line(String),
    /// A line that cannot be parsed at all, answered `bad_request` with
    /// `why`. Not UTF-8: the framing is intact and the connection goes
    /// on. Longer than [`proto::MAX_LINE_BYTES`]: the rest of the line
    /// was never read, so the connection `close`s after the reply.
    Unreadable { why: String, close: bool },
}

/// Read one request line of at most [`proto::MAX_LINE_BYTES`] bytes
/// (newline excluded) into `buf`; `None` at EOF or on a read error.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> Option<ConnLine> {
    buf.clear();
    let cap = proto::MAX_LINE_BYTES as u64 + 1;
    match reader.take(cap).read_until(b'\n', buf) {
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    } else if buf.len() > proto::MAX_LINE_BYTES {
        return Some(ConnLine::Unreadable {
            why: format!("request line exceeds {} bytes", proto::MAX_LINE_BYTES),
            close: true,
        });
    }
    Some(match std::str::from_utf8(buf) {
        Ok(line) => ConnLine::Line(line.to_owned()),
        Err(e) => ConnLine::Unreadable {
            why: format!(
                "request line is not UTF-8 (invalid byte at offset {})",
                e.valid_up_to()
            ),
            close: false,
        },
    })
}

/// Serve one connection: a line-per-request loop until EOF, or until a
/// line over [`proto::MAX_LINE_BYTES`] has been answered.
fn handle_conn(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut reader, &mut buf) {
        if matches!(&line, ConnLine::Line(l) if l.trim().is_empty()) {
            continue;
        }
        shared.replies_owed.fetch_add(1, Ordering::SeqCst);
        let (mut resp, shutdown) = match &line {
            ConnLine::Line(l) => handle_line(shared, l),
            ConnLine::Unreadable { why, .. } => {
                shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                (bad_request(shared, why), false)
            }
        };
        resp.push('\n');
        // One write, and the socket has no buffer to flush.
        let wrote = writer.write_all(resp.as_bytes());
        if shutdown {
            // After the reply, so the client reads it before EOF; a
            // client that hung up still gets its drain.
            wake_accept(&shared.cfg.socket);
        }
        shared.replies_owed.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() || matches!(line, ConnLine::Unreadable { close: true, .. }) {
            return;
        }
    }
}

/// Count a rejected request and word its `bad_request` reply.
fn bad_request(shared: &Shared, why: &str) -> String {
    shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
    format!(
        "{{\"status\":\"bad_request\",\"reason\":\"{}\"}}",
        json::escape(why)
    )
}

/// Answer one line; `true` asks for a drain once the reply is written.
fn handle_line(shared: &Arc<Shared>, line: &str) -> (String, bool) {
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    let resp = match proto::parse_request(line) {
        Err(why) => bad_request(shared, &why),
        Ok(Request::Ping) => "{\"status\":\"ok\",\"pong\":true}".to_owned(),
        Ok(Request::Stats) => render_stats(shared),
        Ok(Request::Shutdown) => {
            shared.draining.store(true, Ordering::SeqCst);
            return ("{\"status\":\"ok\",\"draining\":true}".to_owned(), true);
        }
        Ok(Request::Simulate(req)) => handle_simulate(shared, req),
    };
    (resp, false)
}

fn handle_simulate(shared: &Arc<Shared>, req: SimulateReq) -> String {
    let Some(entry) = find(&req.experiment) else {
        let why = format!("unknown experiment \"{}\"", req.experiment);
        return bad_request(shared, &why);
    };
    let key = CellKey {
        config_hash: config_hash(&req.experiment, req.profile, &req.overrides),
        seed: req.seed,
    };

    if shared.draining.load(Ordering::SeqCst) {
        shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
        return render_overloaded("draining");
    }

    // Store lookup; a quarantined cell falls through to recompute.
    let mut recompute = false;
    match shared.store.load(key) {
        Ok(Lookup::Hit(data, sum)) => {
            shared.counters.hits.fetch_add(1, Ordering::SeqCst);
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            return render_ok(key, &data, sum);
        }
        Ok(Lookup::Miss) => {
            shared.counters.misses.fetch_add(1, Ordering::SeqCst);
        }
        Ok(Lookup::Quarantined(why)) => {
            shared.counters.quarantined.fetch_add(1, Ordering::SeqCst);
            eprintln!(
                "td-serve: quarantined cell-{:016x}-{:016x}.tdc ({why}); recomputing",
                key.config_hash, key.seed
            );
            recompute = true;
        }
        Err(e) => return failed(shared, &req, key, &format!("store read failed: {e}")),
    }

    let deadline = req
        .deadline_ms
        .or(shared.cfg.default_deadline_ms)
        .map(|ms| Instant::now() + Duration::from_millis(ms));

    // Admission: bounded queue with priority shedding.
    let (tx, rx) = mpsc::channel();
    {
        let mut q = shared.queue.lock().unwrap();
        if q.stop || shared.draining.load(Ordering::SeqCst) {
            shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
            return render_overloaded("draining");
        }
        if q.items.len() >= shared.cfg.queue_cap.max(1) {
            // Shed the lowest-priority queued job — youngest within the
            // class — but only if it is *strictly* below the newcomer.
            let victim_idx = q
                .items
                .iter()
                .enumerate()
                .filter(|(_, j)| j.req.priority < req.priority)
                .min_by_key(|(_, j)| (j.req.priority, std::cmp::Reverse(j.seq)))
                .map(|(i, _)| i);
            match victim_idx {
                Some(i) => {
                    let victim = q.items.remove(i);
                    shared.counters.shed.fetch_add(1, Ordering::SeqCst);
                    let _ = victim.reply.send(render_overloaded("shed"));
                }
                None => {
                    shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
                    return render_overloaded("queue_full");
                }
            }
        }
        let seq = q.next_seq;
        q.next_seq += 1;
        q.items.push(Job {
            seq,
            req,
            entry,
            key,
            deadline,
            reply: tx,
            recompute,
        });
        shared.cond.notify_one();
    }
    rx.recv()
        .unwrap_or_else(|_| "{\"status\":\"failed\",\"reason\":\"worker lost\"}".to_owned())
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut q = shared.queue.lock().unwrap();
            loop {
                // Highest priority first, FIFO (lowest seq) within it.
                let pick = q
                    .items
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, j)| (std::cmp::Reverse(j.req.priority), j.seq))
                    .map(|(i, _)| i);
                if let Some(i) = pick {
                    q.in_flight += 1;
                    break q.items.remove(i);
                }
                if q.stop {
                    return;
                }
                q = shared.cond.wait(q).unwrap();
            }
        };
        let _ = job.reply.send(process_job(shared, &job));
        let mut q = shared.queue.lock().unwrap();
        q.in_flight -= 1;
        shared.cond.notify_all();
    }
}

fn process_job(shared: &Arc<Shared>, job: &Job) -> String {
    let (req, c) = (&job.req, &shared.counters);
    // A request can expire while queued; don't burn a worker on it.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        c.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
        return render_deadline(req, job.key, "deadline expired while queued");
    }
    let sim_secs = req.overrides.iter().find(|(k, _)| k == "sim_secs");
    let limits = Limits {
        sim_secs: sim_secs.map(|&(_, v)| v),
        deadline: job.deadline,
    };

    // Borrow one job-budget slot while computing, so in-experiment
    // replicate sweeps can use whatever the other workers leave idle.
    let slot = budget().acquire_up_to(1);
    let run = cell::compute(&job.entry, req.seed, req.profile, limits);
    let resp = match run.outcome {
        // A report the auditor flagged fails, and nothing is cached.
        Outcome::Ok(report) => match cell::store_policy(None, &Tally::of(&run.meter)) {
            Ok(()) => save_computed(shared, job, report),
            Err(why) => failed(shared, req, job.key, &why),
        },
        Outcome::Deadline(why) => {
            c.deadline_exceeded.fetch_add(1, Ordering::SeqCst);
            render_deadline(req, job.key, &why)
        }
        Outcome::Panic(why) => {
            c.worker_panics.fetch_add(1, Ordering::SeqCst);
            failed(shared, req, job.key, &why)
        }
    };
    budget().release(slot);
    resp
}

/// Store a computed report the policy accepted and answer `ok`.
fn save_computed(shared: &Shared, job: &Job, report: Report) -> String {
    let data = CellData {
        experiment: job.req.experiment.clone(),
        profile: job.req.profile,
        report,
    };
    let sum = match shared.store.save(job.key, &data) {
        Ok(sum) => sum,
        Err(e) => {
            let why = format!("store write failed: {e}");
            return failed(shared, &job.req, job.key, &why);
        }
    };
    shared.counters.computed.fetch_add(1, Ordering::SeqCst);
    if job.recompute {
        shared.counters.recomputed.fetch_add(1, Ordering::SeqCst);
    }
    shared.counters.ok.fetch_add(1, Ordering::SeqCst);
    render_ok(job.key, &data, sum)
}

/// The `ok` response. Deliberately free of cache/wall-clock fields so a
/// cache hit and a recompute of the same cell are byte-identical.
/// `payload_sum` is the stored file's checksum trailer, as
/// [`Store::load`] verified it or [`Store::save`] wrote it; the encoding
/// is deterministic and only canonical files decode, so hit, miss and
/// recompute agree — which the byte-identity tests pin.
fn render_ok(key: CellKey, data: &CellData, payload_sum: u64) -> String {
    format!(
        "{{\"status\":\"ok\",\"experiment\":\"{}\",\"seed\":{},\"profile\":\"{}\",\
         \"config_hash\":\"{:016x}\",\"all_ok\":{},\"rows\":{},\"failures\":{},\
         \"metrics\":{},\"payload_sum\":\"{:016x}\"}}",
        json::escape(&data.experiment),
        key.seed,
        proto::profile_name(data.profile),
        key.config_hash,
        data.report.all_ok(),
        data.report.rows.len(),
        data.report.failures().len(),
        data.report.metrics.len(),
        payload_sum,
    )
}

fn render_overloaded(reason: &str) -> String {
    format!("{{\"status\":\"overloaded\",\"reason\":\"{reason}\"}}")
}

fn render_deadline(req: &SimulateReq, key: CellKey, diagnostics: &str) -> String {
    format!(
        "{{\"status\":\"deadline_exceeded\",\"experiment\":\"{}\",\"seed\":{},\
         \"config_hash\":\"{:016x}\",\"diagnostics\":\"{}\"}}",
        json::escape(&req.experiment),
        req.seed,
        key.config_hash,
        json::escape(diagnostics),
    )
}

/// Count a `failed` request and word its reply.
fn failed(shared: &Shared, req: &SimulateReq, key: CellKey, reason: &str) -> String {
    shared.counters.failed.fetch_add(1, Ordering::SeqCst);
    format!(
        "{{\"status\":\"failed\",\"experiment\":\"{}\",\"seed\":{},\
         \"config_hash\":\"{:016x}\",\"reason\":\"{}\"}}",
        json::escape(&req.experiment),
        req.seed,
        key.config_hash,
        json::escape(reason),
    )
}

fn render_stats(shared: &Arc<Shared>) -> String {
    let (queued, in_flight) = {
        let q = shared.queue.lock().unwrap();
        (q.items.len(), q.in_flight)
    };
    let c = &shared.counters;
    let get = |a: &AtomicU64| a.load(Ordering::SeqCst);
    format!(
        "{{\"status\":\"stats\",\"requests\":{},\"ok\":{},\"bad_requests\":{},\
         \"hits\":{},\"misses\":{},\"computed\":{},\"recomputed\":{},\
         \"worker_panics\":{},\"deadline_exceeded\":{},\
         \"failed\":{},\"shed\":{},\"overloaded\":{},\"quarantined\":{},\
         \"queued\":{queued},\"in_flight\":{in_flight}}}",
        get(&c.requests),
        get(&c.ok),
        get(&c.bad_requests),
        get(&c.hits),
        get(&c.misses),
        get(&c.computed),
        get(&c.recomputed),
        get(&c.worker_panics),
        get(&c.deadline_exceeded),
        get(&c.failed),
        get(&c.shed),
        get(&c.overloaded),
        get(&c.quarantined),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_experiments::registry::Profile;

    fn shared_on(tag: &str) -> Arc<Shared> {
        let dir = std::env::temp_dir().join(format!("td-server-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Arc::new(Shared {
            store: Store::open(&dir).unwrap(),
            counters: Counters::default(),
            queue: Mutex::new(QueueState::default()),
            cond: Condvar::new(),
            draining: AtomicBool::new(false),
            replies_owed: AtomicU64::new(0),
            cfg: ServeConfig {
                store_dir: dir,
                ..ServeConfig::default()
            },
        })
    }

    /// A quick `fig2` request at `seed`, one simulated second long.
    fn fig2_quick(seed: u64) -> SimulateReq {
        SimulateReq {
            experiment: "fig2".into(),
            seed,
            profile: Profile::Quick,
            deadline_ms: None,
            priority: 0,
            overrides: vec![("sim_secs".into(), 1)],
        }
    }

    /// `req` as a worker would take it off the queue, run by `entry`.
    fn job_for(req: SimulateReq, entry: Entry) -> Job {
        let key = CellKey {
            config_hash: config_hash(&req.experiment, req.profile, &req.overrides),
            seed: req.seed,
        };
        Job {
            seq: 0,
            req,
            entry,
            key,
            deadline: None,
            reply: mpsc::channel().0,
            recompute: false,
        }
    }

    /// A miss encodes its cell once (for the write), a hit not at all,
    /// and both put the stored file's trailer on the wire.
    #[test]
    fn miss_encodes_once_hit_never_and_both_fingerprint_the_file() {
        use td_experiments::store::ENCODES;
        let shared = shared_on("encodes");
        let req = fig2_quick(3);
        let job = job_for(req.clone(), find("fig2").unwrap());
        let key = job.key;

        let before = ENCODES.get();
        let miss = process_job(&shared, &job);
        assert_eq!(
            ENCODES.get() - before,
            1,
            "a miss encodes for the write only"
        );
        let file = std::fs::read(shared.store.cell_path(key)).unwrap();
        let trailer = u64::from_le_bytes(file[file.len() - 8..].try_into().unwrap());
        let fingerprint = format!("\"payload_sum\":\"{trailer:016x}\"}}");
        assert!(miss.ends_with(&fingerprint), "{miss} vs {fingerprint}");

        let before = ENCODES.get();
        let hit = handle_simulate(&shared, req);
        assert_eq!(ENCODES.get(), before, "a hit re-encodes nothing");
        assert_eq!(hit, miss, "hit and miss replies are the same bytes");
        assert_eq!(shared.counters.hits.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }

    /// A report the invariant auditor flagged is answered `failed` with
    /// the violation as its reason, every time it is asked, and never
    /// reaches the store: a cached copy would be served `ok` forever.
    #[test]
    fn audit_violating_cells_are_failed_and_never_stored() {
        let shared = shared_on("audit");
        let probe = Entry::new(
            "audit-probe",
            "violates an invariant, then reports a pass (test fixture)",
            |seed, _| {
                td_net::audit::inject_violation_for_test("probe conservation broken");
                let mut rep = td_experiments::Report::new("audit-probe", "probe", "-");
                rep.check("completed", "yes", format!("seed {seed}"), true);
                rep
            },
        );
        let job = job_for(fig2_quick(5), probe);
        for _ in 0..2 {
            let reply = process_job(&shared, &job);
            assert!(reply.starts_with("{\"status\":\"failed\""), "{reply}");
            assert!(reply.contains("probe conservation broken"), "{reply}");
            let stored = shared.store.cell_path(job.key).exists();
            assert!(!stored, "the cell was stored");
        }
        let c = &shared.counters;
        assert_eq!(c.failed.load(Ordering::SeqCst), 2);
        assert_eq!(c.computed.load(Ordering::SeqCst), 0);
        assert_eq!(c.ok.load(Ordering::SeqCst), 0);
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }

    /// A panicking cell is run once per request and answered `failed`
    /// with the panic message, every time: the same run would panic
    /// again, so nothing retries it, refuses it, or stores it.
    #[test]
    fn a_panic_is_computed_once_and_never_refused() {
        static RUNS: AtomicU64 = AtomicU64::new(0);
        let counted_panic = Entry::new("fig2", "panics on every run (test fixture)", |seed, _| {
            RUNS.fetch_add(1, Ordering::SeqCst);
            panic!("fixture panic at seed {seed}")
        });
        let shared = shared_on("panic-once");
        let job = job_for(fig2_quick(8), counted_panic);
        for _ in 0..2 {
            let reply = process_job(&shared, &job);
            assert!(reply.starts_with("{\"status\":\"failed\""), "{reply}");
            assert!(reply.contains("fixture panic at seed 8"), "{reply}");
        }
        assert_eq!(RUNS.load(Ordering::SeqCst), 2, "one run per request");
        let c = &shared.counters;
        assert_eq!(c.worker_panics.load(Ordering::SeqCst), 2);
        assert_eq!(c.failed.load(Ordering::SeqCst), 2);
        assert_eq!(c.computed.load(Ordering::SeqCst), 0);
        assert!(
            !shared.store.cell_path(job.key).exists(),
            "the cell was stored"
        );
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }

    /// Failures of one config never stand between a client and that
    /// config's stored cells: after three failed seeds, a stored seed is
    /// still a hit with the miss's bytes.
    #[test]
    fn failures_of_a_config_leave_its_stored_cells_served() {
        let shared = shared_on("failed-config");
        let stored = fig2_quick(3);
        let miss = process_job(&shared, &job_for(stored.clone(), find("fig2").unwrap()));
        assert!(miss.starts_with("{\"status\":\"ok\""), "{miss}");
        // The same `fig2` config key, at three other seeds.
        let panics = || Entry::new("fig2", "panics (test fixture)", |_, _| panic!("fixture"));
        for seed in [4, 5, 6] {
            let reply = process_job(&shared, &job_for(fig2_quick(seed), panics()));
            assert!(reply.starts_with("{\"status\":\"failed\""), "{reply}");
        }
        let hit = handle_simulate(&shared, stored);
        assert_eq!(hit, miss, "the stored cell is answered as it was computed");
        assert_eq!(shared.counters.hits.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }

    /// Every way a request line can end: through its newline (LF or
    /// CRLF), at EOF unterminated, at the cap, past it, or not UTF-8.
    #[test]
    fn request_lines_are_bounded_and_checked() {
        let cap = proto::MAX_LINE_BYTES;
        let mut wire = b"ping\r\n{\"op\":\"stats\"}\n".to_vec();
        wire.extend_from_slice(b"ok \xff bytes\n");
        wire.extend(std::iter::repeat_n(b'a', cap));
        wire.push(b'\n');
        wire.extend(std::iter::repeat_n(b'b', cap + 1));
        wire.extend_from_slice(b"\nnever read");
        let mut reader = io::Cursor::new(wire);
        let mut buf = Vec::new();
        let mut next = || read_line(&mut reader, &mut buf);
        assert!(matches!(next(), Some(ConnLine::Line(l)) if l == "ping"));
        assert!(matches!(next(), Some(ConnLine::Line(l)) if l == "{\"op\":\"stats\"}"));
        match next() {
            Some(ConnLine::Unreadable { why, close: false }) => {
                assert_eq!(why, "request line is not UTF-8 (invalid byte at offset 3)");
            }
            _ => panic!("a non-UTF-8 line"),
        }
        assert!(matches!(next(), Some(ConnLine::Line(l)) if l.len() == cap));
        match next() {
            Some(ConnLine::Unreadable { why, close: true }) => {
                assert_eq!(why, "request line exceeds 65536 bytes");
            }
            _ => panic!("an over-cap line"),
        }
        let mut tail = io::Cursor::new(b"ping".to_vec());
        assert!(matches!(read_line(&mut tail, &mut buf), Some(ConnLine::Line(l)) if l == "ping"));
        assert!(read_line(&mut tail, &mut buf).is_none());
    }

    /// A drain answers every queued client `draining` and writes
    /// nothing: the store directory stays empty.
    #[test]
    fn drain_answers_queued_clients_and_writes_nothing() {
        let shared = shared_on("drain");
        let (tx, rx) = mpsc::channel();
        let job = Job {
            reply: tx,
            ..job_for(fig2_quick(4), find("fig2").unwrap())
        };
        shared.queue.lock().unwrap().items.push(job);
        drain_queue(&shared);
        assert_eq!(rx.recv(), Ok(render_overloaded("draining")));
        assert!(shared.queue.lock().unwrap().stop, "the workers stop");
        let left: Vec<_> = std::fs::read_dir(shared.store.dir())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert!(left.is_empty(), "the drain wrote {left:?}");
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }
}
