//! The daemon: accept loop, admission control, worker pool, retry /
//! breaker policy, and graceful drain.
//!
//! # Request lifecycle
//!
//! ```text
//! blocking accept ──▶ one thread per connection, one line per request
//!  (a self-connect wakes it into the drain: after a flushed
//!   `shutdown` reply, or from the signal watcher)
//!
//! client line ──parse──▶ admission ──▶ store lookup ──hit──▶ respond ok
//!                           │          (one FNV-1a   │miss/quarantined
//!                           │           pass)        ▼
//!                           │        bounded priority queue ──▶ worker
//!                           │                                    │
//!                      overloaded /                     catch_unwind(run)
//!                      queue_full / shed               ╱        │        ╲
//!                                             ok: encode once,  deadline   panic:
//!                                             store, respond    exceeded   retry→backoff
//!                                                                          →failed→breaker
//! ```
//!
//! All robustness decisions are deterministic: the backoff jitter is
//! seeded from `(config_hash, seed, attempt)`, the circuit breaker is a
//! plain consecutive-failure counter per config, and responses carry no
//! wall-clock or cache fields — a cache hit and a recompute of the same
//! cell are byte-identical, which the integration tests and the CI
//! `serve` job pin.

use crate::proto::{self, Request, SimulateReq, MAX_PRIORITY};
use crate::store::{CellData, CellKey, Lookup, Store};
use std::collections::HashMap;
use std::io::{self, BufRead as _, BufReader, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use td_engine::{SimRng, SnapError, SnapReader, SnapWriter};
use td_experiments::journal::{decode_checked_line, encode_checked_line};
use td_experiments::registry::{config_hash, find, validate_override, Profile};
use td_experiments::sweep::budget;

/// Magic of a persisted pending-queue record.
const PENDING_MAGIC: &[u8; 4] = b"TDQP";
/// Pending-queue record version.
const PENDING_VERSION: u32 = 1;

/// Daemon configuration (the `td-serve serve` flag surface).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on.
    pub socket: PathBuf,
    /// Store directory (cells, quarantine sidecar, pending queue).
    pub store_dir: PathBuf,
    /// Worker threads = job-budget slots.
    pub jobs: usize,
    /// Bounded queue capacity; beyond it, shed or reject.
    pub queue_cap: usize,
    /// Retries after the first failed attempt.
    pub max_retries: u32,
    /// Base backoff between attempts (doubles per retry, plus
    /// deterministic jitter).
    pub backoff_base_ms: u64,
    /// Consecutive final failures of one config before its circuit
    /// breaker opens.
    pub breaker_threshold: u32,
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
            max_retries: 2,
            backoff_base_ms: 50,
            breaker_threshold: 3,
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
    /// Attempts retried after a worker panic.
    pub retries: AtomicU64,
    /// Worker panics caught (every attempt, retried or not).
    pub worker_panics: AtomicU64,
    /// `deadline_exceeded` responses.
    pub deadline_exceeded: AtomicU64,
    /// `failed` responses (retries exhausted or store errors).
    pub failed: AtomicU64,
    /// Queued requests shed to admit a higher-priority one.
    pub shed: AtomicU64,
    /// Requests rejected outright (`queue_full` or `draining`).
    pub overloaded: AtomicU64,
    /// Requests rejected by an open circuit breaker.
    pub circuit_open: AtomicU64,
    /// Corrupt store cells moved to quarantine during lookups.
    pub quarantined: AtomicU64,
    /// Queued jobs persisted to `pending.tdq` at drain.
    pub queue_persisted: AtomicU64,
    /// Jobs restored from `pending.tdq` at startup.
    pub queue_restored: AtomicU64,
}

/// One queued simulate job.
struct Job {
    seq: u64,
    req: SimulateReq,
    key: CellKey,
    deadline: Option<Instant>,
    /// `None` for orphans restored from `pending.tdq` — the original
    /// client is gone; the result still lands in the store.
    reply: Option<mpsc::Sender<String>>,
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
    /// Consecutive final failures per config hash.
    breaker: Mutex<HashMap<u64, u32>>,
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
        breaker: Mutex::new(HashMap::new()),
        cfg,
    });

    restore_pending(&shared);

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
    eprintln!("td-serve: draining (in-flight cells finish, queue persists)");
    drop(listener);
    let _ = std::fs::remove_file(&shared.cfg.socket);
    drain_queue(&shared)?;
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

/// Stop the workers, persist unstarted jobs, answer their clients.
fn drain_queue(shared: &Shared) -> io::Result<()> {
    let jobs = {
        let mut q = shared.queue.lock().unwrap();
        q.stop = true;
        shared.cond.notify_all();
        std::mem::take(&mut q.items)
    };
    if !jobs.is_empty() {
        persist_pending(shared, &jobs)?;
        shared
            .counters
            .queue_persisted
            .fetch_add(jobs.len() as u64, Ordering::SeqCst);
    }
    for job in jobs {
        if let Some(tx) = job.reply {
            let _ = tx.send(render_overloaded("draining"));
        }
    }
    Ok(())
}

/// Write the unstarted queue to `pending.tdq`: one checked line per
/// job (the journal's line discipline), atomically.
fn persist_pending(shared: &Shared, jobs: &[Job]) -> io::Result<()> {
    let mut text = String::new();
    for job in jobs {
        let mut w = SnapWriter::with_header(PENDING_MAGIC, PENDING_VERSION);
        w.write_str(&job.req.experiment);
        w.write_u64(job.req.seed);
        w.write_u8(match job.req.profile {
            Profile::Quick => 0,
            Profile::Full => 1,
        });
        w.write_u8(job.req.priority);
        w.write_u64(job.req.overrides.len() as u64);
        for (k, v) in &job.req.overrides {
            w.write_str(k);
            w.write_u64(*v);
        }
        text.push_str(&encode_checked_line(&w.into_bytes()));
        text.push('\n');
    }
    let path = shared.store.pending_path();
    let tmp = path.with_extension("tdq.tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)
}

/// Replay `pending.tdq` into the queue as orphan jobs, then delete the
/// file. Salvage-tolerant: a line whose checksum fails drops the rest
/// (the write was torn from there on); a line that checks out but that a
/// live client could not have sent — see [`decode_pending`] — is skipped
/// on its own.
fn restore_pending(shared: &Shared) {
    let path = shared.store.pending_path();
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => return,
    };
    let mut restored = 0u64;
    for line in text.lines() {
        let Ok(bytes) = decode_checked_line(line) else {
            break;
        };
        let req = match decode_pending(&bytes) {
            Ok(req) => req,
            Err(why) => {
                eprintln!("td-serve: skipping a pending job from the last drain: {why}");
                continue;
            }
        };
        let key = CellKey {
            config_hash: config_hash(&req.experiment, req.profile, &req.overrides),
            seed: req.seed,
        };
        let mut q = shared.queue.lock().unwrap();
        let seq = q.next_seq;
        q.next_seq += 1;
        q.items.push(Job {
            seq,
            req,
            key,
            deadline: None,
            reply: None,
            recompute: false,
        });
        shared.cond.notify_one();
        restored += 1;
    }
    let _ = std::fs::remove_file(&path);
    if restored > 0 {
        shared
            .counters
            .queue_restored
            .fetch_add(restored, Ordering::SeqCst);
        eprintln!("td-serve: restored {restored} pending job(s) from the last drain");
    }
}

/// Decode one `pending.tdq` payload and hold it to what `parse_request`
/// and `handle_simulate` demand of a request off the socket: the file
/// outlives the binary that wrote it, so it is outside input too.
fn decode_pending(bytes: &[u8]) -> Result<SimulateReq, String> {
    let req = read_pending(bytes).map_err(|e| e.to_string())?;
    if u64::from(req.priority) > MAX_PRIORITY {
        return Err(format!("priority {} above {MAX_PRIORITY}", req.priority));
    }
    for (key, value) in &req.overrides {
        validate_override(key, *value)?;
    }
    if find(&req.experiment).is_none() {
        return Err(format!("unknown experiment {:?}", req.experiment));
    }
    Ok(req)
}

/// The TDQP v1 codec, the inverse of `persist_pending`'s writer.
fn read_pending(bytes: &[u8]) -> Result<SimulateReq, SnapError> {
    let mut r = SnapReader::new(bytes);
    let version = r.expect_header(PENDING_MAGIC)?;
    if version != PENDING_VERSION {
        return Err(SnapError::UnsupportedVersion(version));
    }
    let experiment = r.read_str()?;
    let seed = r.read_u64()?;
    let profile = match r.read_u8()? {
        0 => Profile::Quick,
        1 => Profile::Full,
        tag => return Err(SnapError::Corrupt(format!("unknown profile tag {tag}"))),
    };
    let priority = r.read_u8()?;
    let n = r.read_len()?;
    let mut overrides = Vec::new();
    for _ in 0..n {
        let k = r.read_str()?;
        let v = r.read_u64()?;
        overrides.push((k, v));
    }
    r.finish()?;
    Ok(SimulateReq {
        experiment,
        seed,
        profile,
        deadline_ms: None,
        priority,
        overrides,
    })
}

/// Serve one connection: a line-per-request loop until EOF.
fn handle_conn(shared: &Arc<Shared>, stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(read_half);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { return };
        if line.trim().is_empty() {
            continue;
        }
        shared.replies_owed.fetch_add(1, Ordering::SeqCst);
        let (mut resp, shutdown) = handle_line(shared, &line);
        resp.push('\n');
        // One write, and the socket has no buffer to flush.
        let wrote = writer.write_all(resp.as_bytes());
        if shutdown {
            // After the reply, so the client reads it before EOF; a
            // client that hung up still gets its drain.
            wake_accept(&shared.cfg.socket);
        }
        shared.replies_owed.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() {
            return;
        }
    }
}

/// Answer one line; `true` asks for a drain once the reply is written.
fn handle_line(shared: &Arc<Shared>, line: &str) -> (String, bool) {
    shared.counters.requests.fetch_add(1, Ordering::SeqCst);
    let resp = match proto::parse_request(line) {
        Err(why) => {
            shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
            format!(
                "{{\"status\":\"bad_request\",\"reason\":\"{}\"}}",
                proto::json_escape(&why)
            )
        }
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
    if find(&req.experiment).is_none() {
        shared.counters.bad_requests.fetch_add(1, Ordering::SeqCst);
        return format!(
            "{{\"status\":\"bad_request\",\"reason\":\"unknown experiment {}\"}}",
            quoted(&req.experiment)
        );
    }
    let key = CellKey {
        config_hash: config_hash(&req.experiment, req.profile, &req.overrides),
        seed: req.seed,
    };

    if shared.draining.load(Ordering::SeqCst) {
        shared.counters.overloaded.fetch_add(1, Ordering::SeqCst);
        return render_overloaded("draining");
    }

    // Circuit breaker: a config that keeps failing is rejected without
    // burning a worker on it again.
    if breaker_is_open(shared, key.config_hash) {
        shared.counters.circuit_open.fetch_add(1, Ordering::SeqCst);
        return render_failed(&req, key, 0, true, "circuit breaker open for this config");
    }

    // Store lookup; a quarantined cell falls through to recompute.
    let mut recompute = false;
    match shared.store.load(key) {
        Ok(Lookup::Hit(data, file_fnv)) => {
            shared.counters.hits.fetch_add(1, Ordering::SeqCst);
            shared.counters.ok.fetch_add(1, Ordering::SeqCst);
            return render_ok(key, &data, file_fnv);
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
        Err(e) => {
            shared.counters.failed.fetch_add(1, Ordering::SeqCst);
            return render_failed(&req, key, 0, false, &format!("store read failed: {e}"));
        }
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
                    if let Some(vtx) = victim.reply {
                        let _ = vtx.send(render_overloaded("shed"));
                    }
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
            key,
            deadline,
            reply: Some(tx),
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
        let resp = process_job(shared, &job);
        if let Some(tx) = &job.reply {
            let _ = tx.send(resp);
        }
        let mut q = shared.queue.lock().unwrap();
        q.in_flight -= 1;
        shared.cond.notify_all();
    }
}

enum CellOutcome {
    Ok(Box<td_experiments::Report>),
    Deadline(String),
    Panic(String),
}

/// One attempt: arm the sim-secs override and the wall-clock deadline,
/// run the entry under `catch_unwind`, classify the outcome. A panic
/// from a cell whose deadline has passed counts as a deadline — a
/// helper-thread unwind can lose the marker payload at the thread-scope
/// boundary, so expiry is checked directly too.
fn run_cell(req: &SimulateReq, deadline: Option<Instant>) -> CellOutcome {
    let Some(entry) = find(&req.experiment) else {
        return CellOutcome::Panic(format!(
            "experiment {:?} vanished from registry",
            req.experiment
        ));
    };
    let sim_secs = req
        .overrides
        .iter()
        .find(|(k, _)| k == "sim_secs")
        .map(|(_, v)| *v);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _secs_guard = sim_secs.map(td_experiments::override_sim_secs);
        let _deadline_guard = deadline.map(td_net::deadline::arm_until);
        entry.run(req.seed, req.profile)
    }));
    match result {
        Ok(report) => CellOutcome::Ok(Box::new(report)),
        Err(payload) => {
            let msg = panic_message(&payload);
            let expired = deadline.is_some_and(|d| Instant::now() >= d);
            if msg.starts_with(td_net::deadline::PANIC_PREFIX) {
                CellOutcome::Deadline(msg)
            } else if expired {
                // The marker payload was lost at a thread-scope
                // boundary; recover the diagnostics it carried.
                CellOutcome::Deadline(td_net::deadline::take_last_message().unwrap_or(msg))
            } else {
                CellOutcome::Panic(msg)
            }
        }
    }
}

fn process_job(shared: &Arc<Shared>, job: &Job) -> String {
    let req = &job.req;
    // A request can expire while queued; don't burn a worker on it.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        shared
            .counters
            .deadline_exceeded
            .fetch_add(1, Ordering::SeqCst);
        return render_deadline(req, job.key, "deadline expired while queued");
    }

    // Borrow one job-budget slot while computing, so in-experiment
    // replicate sweeps can use whatever the other workers leave idle.
    let slot = budget().acquire_up_to(1);
    let max_attempts = 1 + shared.cfg.max_retries;
    let mut attempt = 0u32;
    let resp = loop {
        attempt += 1;
        match run_cell(req, job.deadline) {
            CellOutcome::Ok(report) => {
                let data = CellData {
                    experiment: req.experiment.clone(),
                    profile: req.profile,
                    report: *report,
                };
                let file_fnv = match shared.store.save(job.key, &data) {
                    Ok(fnv) => fnv,
                    Err(e) => {
                        shared.counters.failed.fetch_add(1, Ordering::SeqCst);
                        break render_failed(
                            req,
                            job.key,
                            attempt,
                            false,
                            &format!("store write failed: {e}"),
                        );
                    }
                };
                shared.counters.computed.fetch_add(1, Ordering::SeqCst);
                if job.recompute {
                    shared.counters.recomputed.fetch_add(1, Ordering::SeqCst);
                }
                breaker_reset(shared, job.key.config_hash);
                shared.counters.ok.fetch_add(1, Ordering::SeqCst);
                break render_ok(job.key, &data, file_fnv);
            }
            CellOutcome::Deadline(why) => {
                shared
                    .counters
                    .deadline_exceeded
                    .fetch_add(1, Ordering::SeqCst);
                break render_deadline(req, job.key, &why);
            }
            CellOutcome::Panic(why) => {
                shared.counters.worker_panics.fetch_add(1, Ordering::SeqCst);
                if attempt >= max_attempts {
                    let open = breaker_record_failure(shared, job.key.config_hash);
                    shared.counters.failed.fetch_add(1, Ordering::SeqCst);
                    break render_failed(req, job.key, attempt, open, &why);
                }
                shared.counters.retries.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(backoff(shared.cfg.backoff_base_ms, job.key, attempt));
            }
        }
    };
    budget().release(slot);
    resp
}

/// Exponential backoff with deterministic jitter: attempt `a` sleeps
/// `base·2^(a−1) + jitter`, the jitter drawn from a [`SimRng`] seeded
/// by `(config_hash, seed, attempt)` — reproducible run to run, yet
/// decorrelated across cells so retry storms don't synchronize.
fn backoff(base_ms: u64, key: CellKey, attempt: u32) -> Duration {
    let base = base_ms.max(1);
    let exp = base.saturating_mul(1 << attempt.min(6).saturating_sub(1));
    let mut rng = SimRng::new(
        key.config_hash
            ^ key.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ u64::from(attempt).wrapping_mul(0xD1B5_4A32_D192_ED03),
    );
    Duration::from_millis(exp + rng.next_below(base))
}

fn breaker_is_open(shared: &Shared, config: u64) -> bool {
    let b = shared.breaker.lock().unwrap();
    b.get(&config)
        .is_some_and(|&n| n >= shared.cfg.breaker_threshold.max(1))
}

/// Record a final (retries-exhausted) failure; true if the breaker for
/// this config is now open.
fn breaker_record_failure(shared: &Shared, config: u64) -> bool {
    let mut b = shared.breaker.lock().unwrap();
    let n = b.entry(config).or_insert(0);
    *n += 1;
    *n >= shared.cfg.breaker_threshold.max(1)
}

fn breaker_reset(shared: &Shared, config: u64) {
    shared.breaker.lock().unwrap().remove(&config);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else {
        "non-string panic payload".to_owned()
    }
}

fn quoted(s: &str) -> String {
    format!("\\\"{}\\\"", proto::json_escape(s))
}

/// The `ok` response. Deliberately free of cache/wall-clock fields so a
/// cache hit and a recompute of the same cell are byte-identical.
/// `payload_fnv` is the FNV-1a of the stored file's bytes (payload and
/// trailer), as [`Store::load`] or [`Store::save`] reported it; the
/// encoding is deterministic and only canonical files decode, so hit,
/// miss and recompute agree — which the byte-identity tests pin.
fn render_ok(key: CellKey, data: &CellData, payload_fnv: u64) -> String {
    format!(
        "{{\"status\":\"ok\",\"experiment\":\"{}\",\"seed\":{},\"profile\":\"{}\",\
         \"config_hash\":\"{:016x}\",\"all_ok\":{},\"rows\":{},\"failures\":{},\
         \"metrics\":{},\"payload_fnv\":\"{:016x}\"}}",
        proto::json_escape(&data.experiment),
        key.seed,
        proto::profile_name(data.profile),
        key.config_hash,
        data.report.all_ok(),
        data.report.rows.len(),
        data.report.failures().len(),
        data.report.metrics.len(),
        payload_fnv,
    )
}

fn render_overloaded(reason: &str) -> String {
    format!("{{\"status\":\"overloaded\",\"reason\":\"{reason}\"}}")
}

fn render_deadline(req: &SimulateReq, key: CellKey, diagnostics: &str) -> String {
    format!(
        "{{\"status\":\"deadline_exceeded\",\"experiment\":\"{}\",\"seed\":{},\
         \"config_hash\":\"{:016x}\",\"diagnostics\":\"{}\"}}",
        proto::json_escape(&req.experiment),
        req.seed,
        key.config_hash,
        proto::json_escape(diagnostics),
    )
}

fn render_failed(
    req: &SimulateReq,
    key: CellKey,
    attempts: u32,
    circuit_open: bool,
    reason: &str,
) -> String {
    format!(
        "{{\"status\":\"failed\",\"experiment\":\"{}\",\"seed\":{},\
         \"config_hash\":\"{:016x}\",\"attempts\":{attempts},\
         \"circuit_open\":{circuit_open},\"reason\":\"{}\"}}",
        proto::json_escape(&req.experiment),
        req.seed,
        key.config_hash,
        proto::json_escape(reason),
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
         \"retries\":{},\"worker_panics\":{},\"deadline_exceeded\":{},\
         \"failed\":{},\"shed\":{},\"overloaded\":{},\"circuit_open\":{},\
         \"quarantined\":{},\"queue_persisted\":{},\"queue_restored\":{},\
         \"queued\":{queued},\"in_flight\":{in_flight}}}",
        get(&c.requests),
        get(&c.ok),
        get(&c.bad_requests),
        get(&c.hits),
        get(&c.misses),
        get(&c.computed),
        get(&c.recomputed),
        get(&c.retries),
        get(&c.worker_panics),
        get(&c.deadline_exceeded),
        get(&c.failed),
        get(&c.shed),
        get(&c.overloaded),
        get(&c.circuit_open),
        get(&c.quarantined),
        get(&c.queue_persisted),
        get(&c.queue_restored),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use td_experiments::journal::fnv1a;

    #[test]
    fn backoff_is_deterministic_and_monotone_in_attempt() {
        let key = CellKey {
            config_hash: 0xabc,
            seed: 7,
        };
        let a1 = backoff(50, key, 1);
        let a1b = backoff(50, key, 1);
        assert_eq!(a1, a1b, "same (config, seed, attempt) → same delay");
        let a2 = backoff(50, key, 2);
        let a3 = backoff(50, key, 3);
        assert!(a1 >= Duration::from_millis(50));
        assert!(a2 >= Duration::from_millis(100));
        assert!(a3 >= Duration::from_millis(200));
        // Jitter is bounded by one base unit.
        assert!(a1 < Duration::from_millis(100));
        // Different cells get different jitter streams.
        let other = CellKey {
            config_hash: 0xdef,
            seed: 7,
        };
        assert_ne!(backoff(50, key, 1), backoff(50, other, 1));
    }

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
            breaker: Mutex::new(HashMap::new()),
            cfg: ServeConfig {
                store_dir: dir,
                ..ServeConfig::default()
            },
        })
    }

    /// A miss encodes its cell once (for the write), a hit not at all,
    /// and both put the FNV-1a of the stored file on the wire.
    #[test]
    fn miss_encodes_once_hit_never_and_both_fingerprint_the_file() {
        use crate::store::ENCODES;
        let shared = shared_on("encodes");
        let req = SimulateReq {
            experiment: "fig2".into(),
            seed: 3,
            profile: Profile::Quick,
            deadline_ms: None,
            priority: 0,
            overrides: vec![("sim_secs".into(), 1)],
        };
        let key = CellKey {
            config_hash: config_hash(&req.experiment, req.profile, &req.overrides),
            seed: req.seed,
        };
        let job = Job {
            seq: 0,
            req: req.clone(),
            key,
            deadline: None,
            reply: None,
            recompute: false,
        };

        let before = ENCODES.get();
        let miss = process_job(&shared, &job);
        assert_eq!(
            ENCODES.get() - before,
            1,
            "a miss encodes for the write only"
        );
        let file = std::fs::read(shared.store.cell_path(key)).unwrap();
        let fingerprint = format!("\"payload_fnv\":\"{:016x}\"}}", fnv1a(&file));
        assert!(miss.ends_with(&fingerprint), "{miss} vs {fingerprint}");

        let before = ENCODES.get();
        let hit = handle_simulate(&shared, req);
        assert_eq!(ENCODES.get(), before, "a hit re-encodes nothing");
        assert_eq!(hit, miss, "hit and miss replies are the same bytes");
        assert_eq!(shared.counters.hits.load(Ordering::SeqCst), 1);
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }

    /// One `pending.tdq` payload, field by field.
    fn pending_payload(
        version: u32,
        experiment: &str,
        priority: u8,
        overrides: &[(&str, u64)],
    ) -> Vec<u8> {
        let mut w = SnapWriter::with_header(PENDING_MAGIC, version);
        w.write_str(experiment);
        w.write_u64(9);
        w.write_u8(1);
        w.write_u8(priority);
        w.write_u64(overrides.len() as u64);
        for (k, v) in overrides {
            w.write_str(k);
            w.write_u64(*v);
        }
        w.into_bytes()
    }

    #[test]
    fn pending_queue_roundtrips_and_salvages() {
        let req = SimulateReq {
            experiment: "fig8".into(),
            seed: 9,
            profile: Profile::Full,
            deadline_ms: Some(5),
            priority: 7,
            overrides: vec![("sim_secs".into(), 30)],
        };
        let bytes = pending_payload(PENDING_VERSION, "fig8", 7, &[("sim_secs", 30)]);
        let got = decode_pending(&bytes).unwrap();
        assert_eq!(got.experiment, req.experiment);
        assert_eq!(got.seed, req.seed);
        assert_eq!(got.profile, req.profile);
        assert_eq!(got.priority, req.priority);
        assert_eq!(got.overrides, req.overrides);
        assert_eq!(got.deadline_ms, None, "deadlines don't survive a restart");
        // Truncations are refused, never a panic.
        for cut in 0..bytes.len() {
            assert!(decode_pending(&bytes[..cut]).is_err(), "cut {cut}");
        }

        // A line can carry a good checksum and still be something no live
        // client could have queued. Each such line is skipped on its own;
        // the good lines around it restore; a checksum failure still
        // drops everything after it.
        let invalid = [
            pending_payload(0, "fig8", 7, &[]),
            pending_payload(PENDING_VERSION + 1, "fig8", 7, &[]),
            pending_payload(PENDING_VERSION, "fig8", 255, &[]),
            pending_payload(PENDING_VERSION, "fig8", 7, &[("sim_secs", 0)]),
            pending_payload(PENDING_VERSION, "fig8", 7, &[("shards", 2)]),
            pending_payload(PENDING_VERSION, "no-such-entry", 7, &[]),
        ];
        let mut lines = vec![encode_checked_line(&bytes)];
        for payload in &invalid {
            assert!(decode_pending(payload).is_err());
            lines.push(encode_checked_line(payload));
        }
        let fig2 = pending_payload(PENDING_VERSION, "fig2", 0, &[]);
        lines.push(encode_checked_line(&fig2));
        lines.push("not a checked line".to_owned());
        lines.push(encode_checked_line(&bytes));

        let shared = shared_on("pending");
        std::fs::write(shared.store.pending_path(), lines.join("\n")).unwrap();
        restore_pending(&shared);
        let queued: Vec<_> = {
            let q = shared.queue.lock().unwrap();
            q.items
                .iter()
                .map(|j| (j.req.experiment.clone(), j.req.priority))
                .collect()
        };
        assert_eq!(queued, [("fig8".to_owned(), 7), ("fig2".to_owned(), 0)]);
        assert_eq!(shared.counters.queue_restored.load(Ordering::SeqCst), 2);
        assert!(!shared.store.pending_path().exists());
        let _ = std::fs::remove_dir_all(shared.store.dir());
    }
}
