//! The `serve_mix` workload: `td-serve` as its users meet it — the CLI
//! binary as a child process, line-JSON over its Unix socket, nothing
//! linked in.
//!
//! Load is a **closed loop**: one client on one persistent connection
//! for the latency phases, `nproc` clients for the throughput phase, each
//! sending its next request only when the previous reply arrived.
//!
//! A **round** is a fixed script over cells no earlier round touched:
//!
//! | phase      | requests                                            | exercises |
//! |------------|-----------------------------------------------------|-----------|
//! | miss       | distinct seeds: small, mid, large cells             | simulate + encode + fsync'd write |
//! | hit        | the small cells × reps, the large cells × reps      | parse + store read/verify/decode + wire |
//! | recompute  | flip one seeded byte in each mid cell file, re-ask  | quarantine + miss path |
//! | connect    | hits on a fresh connection each, as `td-serve req`  | accept loop |
//! | throughput | `nproc` clients: small hits, then new mid misses    | the daemon's concurrency |
//!
//! Cell sizes differ on purpose: *small* is `fig2` at `sim_secs = 40`
//! (≈ 1.4 ms to compute, a few KB stored), *mid* is `multihop` quick
//! (≈ 54 ms), *large* is `fig45` quick (≈ 256 ms, ≈ 282 KB stored), and a
//! hit costs what the stored cell weighs. The phase sizes make each
//! phase a comparable share of the round, so the round's wall clock moves
//! when any one of them does.
//!
//! Checked on every reply: status `ok`, and bytes equal to the first
//! reply for the same request (hit = miss = recompute). Checked at the
//! end: the daemon's `stats` counters equal what the script must have
//! caused, `shutdown` exits 0, and offline `td-serve verify` passes.

use crate::json;
use crate::metrics::Outcome;
use crate::sim::fnv1a;
use crate::stats::{fastest, median, summarize, Summary};
use crate::trace::Recorder;
use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Rounds a run never goes below.
pub const MIN_ROUNDS: usize = 3;
/// Rounds a run never exceeds.
const MAX_ROUNDS: usize = 40;
/// Worker threads the daemon is started with (`--jobs`).
const DAEMON_JOBS: usize = 2;
/// How long to wait for the daemon to boot or exit before giving up.
const PATIENCE: Duration = Duration::from_secs(60);

/// Request counts of one round.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Distinct small cells missed, then hit.
    pub small_cells: usize,
    /// Hits per small cell.
    pub small_reps: usize,
    /// Distinct mid cells missed, then corrupted and recomputed.
    pub mid_cells: usize,
    /// Distinct large cells missed, then hit.
    pub large_cells: usize,
    /// Hits per large cell.
    pub large_reps: usize,
    /// Hits on a fresh connection each.
    pub connects: usize,
    /// Small-cell hits each throughput client sends.
    pub thr_hits: usize,
    /// New mid cells each throughput client misses.
    pub thr_mids: usize,
    /// Pings before the first round.
    pub pings: usize,
    /// Daemon boots timed for `setup_s` (the last one serves the rounds).
    pub boots: usize,
}

impl Sizes {
    /// The workload's sizes: ≈ 4 s a round on the 2-core reference box.
    pub const FULL: Sizes = Sizes {
        small_cells: 40,
        small_reps: 100,
        mid_cells: 8,
        large_cells: 2,
        large_reps: 50,
        connects: 24,
        thr_hits: 2000,
        thr_mids: 4,
        pings: 1000,
        boots: 5,
    };
    /// Contract-test sizes: every phase runs, in well under a second.
    pub const SMOKE: Sizes = Sizes {
        small_cells: 3,
        small_reps: 4,
        mid_cells: 1,
        large_cells: 1,
        large_reps: 2,
        connects: 2,
        thr_hits: 6,
        thr_mids: 1,
        pings: 5,
        boots: 2,
    };
}

/// The three cell classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Class {
    Small,
    Mid,
    Large,
}

impl Class {
    fn index(self) -> usize {
        self as usize
    }

    fn request(self, seed: u64) -> String {
        match self {
            Class::Small => format!(
                "{{\"op\":\"simulate\",\"experiment\":\"fig2\",\"seed\":{seed},\"sim_secs\":40}}"
            ),
            Class::Mid => {
                format!("{{\"op\":\"simulate\",\"experiment\":\"multihop\",\"seed\":{seed}}}")
            }
            Class::Large => {
                format!("{{\"op\":\"simulate\",\"experiment\":\"fig45\",\"seed\":{seed}}}")
            }
        }
    }
}

/// SplitMix64 finalizer: the benchmark's own seed derivation, so the
/// daemon only ever sees inputs generated from `--seed`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hands out cell seeds that never repeat within a run: a seed-derived
/// base with the low 20 bits counting up (and everything below 2^52, so
/// any JSON reader holds them exactly).
struct SeedSource {
    base: u64,
    next: u64,
}

impl SeedSource {
    fn new(master: u64) -> Self {
        SeedSource {
            base: (mix(master) >> 32) << 20,
            next: 0,
        }
    }

    fn take(&mut self, n: usize) -> Vec<u64> {
        let out = (0..n as u64).map(|i| self.base + self.next + i).collect();
        self.next += n as u64;
        assert!(self.next < 1 << 20, "a run asks for under a million cells");
        out
    }
}

/// The daemon as a child process, in a scratch directory of its own.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    store: PathBuf,
    /// Spawn → first `pong`.
    pub boot_s: f64,
    _dir: crate::host::ScratchDir,
}

impl Daemon {
    /// Spawn `td-serve serve` on a fresh store and wait for its first
    /// `pong`.
    pub fn spawn(bin: &Path) -> Result<Daemon, String> {
        let dir = crate::host::ScratchDir::create("serve").map_err(|e| e.to_string())?;
        let store = dir.path().join("store");
        let socket = dir.path().join("sock");
        let log =
            std::fs::File::create(dir.path().join("daemon.log")).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let child = Command::new(bin)
            .arg("serve")
            .arg("--store")
            .arg(&store)
            .arg("--socket")
            .arg(&socket)
            .args(["--jobs", &DAEMON_JOBS.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let mut d = Daemon {
            child,
            socket,
            store,
            boot_s: 0.0,
            _dir: dir,
        };
        loop {
            if let Ok(mut c) = Client::connect(&d.socket) {
                if c.request("{\"op\":\"ping\"}")
                    .is_ok_and(|r| r.contains("\"pong\":true"))
                {
                    break;
                }
            }
            if let Ok(Some(status)) = d.child.try_wait() {
                return Err(format!("td-serve exited during boot: {status}"));
            }
            if t.elapsed() > PATIENCE {
                return Err("td-serve did not answer a ping within a minute".to_owned());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        d.boot_s = t.elapsed().as_secs_f64();
        Ok(d)
    }

    /// The daemon's peak resident set so far (`VmHWM`), KiB.
    pub fn vm_hwm_kib(&self) -> u64 {
        crate::host::proc_status_kib(Some(self.child.id()), "VmHWM")
    }

    /// In-band `shutdown`, then wait for the process: `(drain seconds,
    /// exited 0)`. The store stays on disk until the `Daemon` is dropped.
    pub fn shutdown(&mut self) -> Result<(f64, bool), String> {
        let t = Instant::now();
        let reply = Client::connect(&self.socket)
            .and_then(|mut c| c.request("{\"op\":\"shutdown\"}"))
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        if !reply.contains("\"draining\":true") {
            return Err(format!("unexpected shutdown reply {reply}"));
        }
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok((t.elapsed().as_secs_f64(), status.success())),
                Ok(None) if t.elapsed() > PATIENCE => {
                    return Err("td-serve did not exit within a minute of shutdown".to_owned())
                }
                Ok(None) => std::thread::sleep(Duration::from_micros(500)),
                Err(e) => return Err(format!("wait failed: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    /// Whatever went wrong above, no daemon outlives the benchmark.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One persistent connection: a request line out, a reply line back.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connect to the daemon's socket.
    pub fn connect(socket: &Path) -> std::io::Result<Client> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(PATIENCE))?;
        let writer = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Send one request line and read its reply line (without the
    /// newline).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}

/// Every reply, checked: status `ok`, and the same bytes as the first
/// reply to the same request.
#[derive(Default)]
pub struct Ledger {
    first: HashMap<String, u64>,
    /// Requests checked.
    pub sent: u64,
    /// Requests that were not answered `ok`, or whose reply differed from
    /// the first reply to the same request.
    pub failed: u64,
}

impl Ledger {
    /// Check one reply (`None`: the request got no reply at all). Returns
    /// whether it passed.
    pub fn check(&mut self, request: &str, reply: Option<&str>) -> bool {
        self.sent += 1;
        let ok = reply.is_some_and(|reply| {
            let digest = fnv1a(reply.bytes());
            reply.contains("\"status\":\"ok\"")
                && *self.first.entry(request.to_owned()).or_insert(digest) == digest
        });
        if !ok {
            self.failed += 1;
        }
        ok
    }

    /// FNV-1a over the first reply of every distinct request, in request
    /// order: the run's `sim_digest`.
    pub fn digest(&self) -> u64 {
        let mut firsts: Vec<(&String, &u64)> = self.first.iter().collect();
        firsts.sort_unstable();
        fnv1a(firsts.into_iter().flat_map(|(_, d)| d.to_le_bytes()))
    }
}

/// Latency and rate samples, pooled over a run's rounds.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// `ping` round trips, µs.
    pub ping_us: Vec<f64>,
    /// Hits on small cells, µs.
    pub hit_small_us: Vec<f64>,
    /// Hits on large cells, µs.
    pub hit_large_us: Vec<f64>,
    /// Misses on small cells, ms.
    pub miss_small_ms: Vec<f64>,
    /// Misses on mid cells, ms.
    pub miss_mid_ms: Vec<f64>,
    /// Misses on large cells, ms.
    pub miss_large_ms: Vec<f64>,
    /// Quarantine-and-recompute of mid cells, ms.
    pub recompute_ms: Vec<f64>,
    /// Hits on a fresh connection, ms.
    pub connect_ms: Vec<f64>,
    /// Throughput-phase small-cell hits per second, one per round.
    pub hit_req_per_s: Vec<f64>,
    /// Throughput-phase mid-cell misses per second, one per round.
    pub miss_cells_per_s: Vec<f64>,
    /// Wall clock of each round, s.
    pub round_wall_s: Vec<f64>,
    /// Wall clock of each phase of each round, s, in [`PHASES`] order.
    pub phase_wall_s: Vec<[f64; PHASES.len()]>,
}

/// The phases of a round, in the order they run.
pub const PHASES: [&str; 6] = [
    "miss",
    "hit",
    "recompute",
    "connect",
    "throughput hit",
    "throughput miss",
];

impl Samples {
    /// The best-case round: each phase's fastest run across the rounds,
    /// summed (the byte flips between `hit` and `recompute` are file
    /// edits by the benchmark, not daemon time, and are left out).
    pub fn best_round_wall_s(&self) -> f64 {
        (0..PHASES.len())
            .map(|i| {
                let runs: Vec<f64> = self.phase_wall_s.iter().map(|round| round[i]).collect();
                fastest(&runs)
            })
            .sum()
    }
}

/// The `stats` counters the script can predict exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulate requests answered from the store.
    pub hits: u64,
    /// Simulate requests with no stored cell.
    pub misses: u64,
    /// Cells computed (first time or again).
    pub computed: u64,
    /// Cells recomputed after quarantine.
    pub recomputed: u64,
    /// Corrupt cells moved to quarantine.
    pub quarantined: u64,
    /// `failed` replies.
    pub failed: u64,
    /// Requests rejected outright.
    pub overloaded: u64,
    /// Queued requests shed.
    pub shed: u64,
    /// Unparsable requests.
    pub bad_requests: u64,
}

impl Counters {
    /// `(name, value)` in the order the per-layer metrics declare them.
    pub fn fields(&self) -> [(&'static str, u64); 9] {
        [
            ("hits", self.hits),
            ("misses", self.misses),
            ("computed", self.computed),
            ("recomputed", self.recomputed),
            ("quarantined", self.quarantined),
            ("failed", self.failed),
            ("overloaded", self.overloaded),
            ("shed", self.shed),
            ("bad_requests", self.bad_requests),
        ]
    }

    /// Read the counters out of a `stats` reply.
    pub fn parse(reply: &str) -> Result<Counters, String> {
        let doc = json::parse(reply)?;
        let get = |k: &str| {
            doc.get(k)
                .and_then(json::Value::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("stats reply has no {k}"))
        };
        Ok(Counters {
            hits: get("hits")?,
            misses: get("misses")?,
            computed: get("computed")?,
            recomputed: get("recomputed")?,
            quarantined: get("quarantined")?,
            failed: get("failed")?,
            overloaded: get("overloaded")?,
            shed: get("shed")?,
            bad_requests: get("bad_requests")?,
        })
    }

    /// Counters that differ from `expected`.
    pub fn mismatches(&self, expected: &Counters) -> u64 {
        self.fields()
            .iter()
            .zip(expected.fields())
            .filter(|(got, want)| got.1 != want.1)
            .count() as u64
    }
}

/// Spans, when the run is traced; nothing otherwise.
struct Tracer<'a>(Option<&'a mut Recorder>);

impl Tracer<'_> {
    /// Run `f` as the phase `name`; returns its result and wall clock.
    fn phase<T>(&mut self, name: &str, f: impl FnOnce(&mut Self) -> T) -> (T, f64) {
        let id = self.0.as_mut().map(|r| r.enter(name));
        let t = Instant::now();
        let out = f(self);
        let s = t.elapsed().as_secs_f64();
        if let (Some(r), Some(id)) = (self.0.as_mut(), id) {
            r.exit(id);
        }
        (out, s)
    }

    fn request(&mut self, name: &str, t0: Instant, t1: Instant) {
        if let Some(r) = self.0.as_mut() {
            r.record(name, t0, t1);
        }
    }
}

/// One connection's state plus everything a round accumulates into.
struct Session<'a> {
    daemon: &'a Daemon,
    client: Client,
    ledger: Ledger,
    samples: Samples,
    expected: Counters,
    seeds: SeedSource,
    /// Mid-cell seeds asked so far (the probes re-run them in-process).
    mid_seeds: Vec<u64>,
    /// Stored size of a small and of a large cell file, bytes.
    cell_bytes: (u64, u64),
    /// The reply to the latest [`Session::timed`] request.
    last_reply: Option<String>,
    /// `config_hash` of each class, learnt from its first reply: it names
    /// the class's cell files together with the seed.
    config_hash: [Option<String>; 3],
}

impl Session<'_> {
    /// Send `line` on the persistent connection, check the reply, and
    /// return its latency in seconds.
    fn timed(&mut self, span: &str, line: &str, tr: &mut Tracer<'_>) -> f64 {
        let t0 = Instant::now();
        let reply = self.client.request(line);
        let t1 = Instant::now();
        tr.request(span, t0, t1);
        self.last_reply = reply.ok();
        self.ledger.check(line, self.last_reply.as_deref());
        (t1 - t0).as_secs_f64()
    }

    /// Remember `class`'s `config_hash` from the latest reply.
    fn learn_config_hash(&mut self, class: Class) {
        let slot = &mut self.config_hash[class.index()];
        if slot.is_none() {
            *slot = self
                .last_reply
                .as_deref()
                .and_then(|r| json::parse(r).ok())
                .and_then(|doc| Some(doc.get("config_hash")?.as_str()?.to_owned()));
        }
    }

    /// Path of the stored cell of `class` at `seed`.
    fn cell_file(&self, class: Class, seed: u64) -> Result<PathBuf, String> {
        let hash = self.config_hash[class.index()]
            .as_deref()
            .ok_or("no reply carried a config_hash")?;
        Ok(self
            .daemon
            .store
            .join(format!("cell-{hash}-{seed:016x}.tdc")))
    }

    fn round(&mut self, sz: &Sizes, tr: &mut Tracer<'_>) -> Result<(), String> {
        let t_round = Instant::now();
        let small_seeds = self.seeds.take(sz.small_cells);
        let small: Vec<String> = small_seeds
            .iter()
            .map(|&s| Class::Small.request(s))
            .collect();
        let mid_seeds = self.seeds.take(sz.mid_cells);
        let mid: Vec<String> = mid_seeds.iter().map(|&s| Class::Mid.request(s)).collect();
        let large_seeds = self.seeds.take(sz.large_cells);
        let large: Vec<String> = large_seeds
            .iter()
            .map(|&s| Class::Large.request(s))
            .collect();
        self.mid_seeds.extend(&mid_seeds);

        let mut walls = [0.0; PHASES.len()];
        ((), walls[0]) = tr.phase(PHASES[0], |tr| {
            for line in &small {
                let s = self.timed("miss small", line, tr);
                self.samples.miss_small_ms.push(s * 1e3);
            }
            self.learn_config_hash(Class::Small);
            for line in &mid {
                let s = self.timed("miss mid", line, tr);
                self.samples.miss_mid_ms.push(s * 1e3);
            }
            self.learn_config_hash(Class::Mid);
            for line in &large {
                let s = self.timed("miss large", line, tr);
                self.samples.miss_large_ms.push(s * 1e3);
            }
            self.learn_config_hash(Class::Large);
        });
        let misses = (small.len() + mid.len() + large.len()) as u64;
        self.expected.misses += misses;
        self.expected.computed += misses;

        ((), walls[1]) = tr.phase(PHASES[1], |tr| {
            for _ in 0..sz.small_reps {
                for line in &small {
                    let s = self.timed("hit small", line, tr);
                    self.samples.hit_small_us.push(s * 1e6);
                }
            }
            for _ in 0..sz.large_reps {
                for line in &large {
                    let s = self.timed("hit large", line, tr);
                    self.samples.hit_large_us.push(s * 1e6);
                }
            }
        });
        self.expected.hits += (small.len() * sz.small_reps + large.len() * sz.large_reps) as u64;

        // Flip one seeded byte in the middle half of each mid cell file;
        // the next request for it must quarantine, recompute, and still
        // answer with the first reply's bytes.
        for &seed in &mid_seeds {
            let path = self.cell_file(Class::Mid, seed)?;
            let mut bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let at = bytes.len() / 4 + (mix(seed) % (bytes.len() as u64 / 2).max(1)) as usize;
            bytes[at] ^= 0xFF;
            std::fs::write(&path, bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        ((), walls[2]) = tr.phase(PHASES[2], |tr| {
            for line in &mid {
                let s = self.timed("recompute mid", line, tr);
                self.samples.recompute_ms.push(s * 1e3);
            }
        });
        self.expected.quarantined += mid.len() as u64;
        self.expected.recomputed += mid.len() as u64;
        self.expected.computed += mid.len() as u64;

        ((), walls[3]) = tr.phase(PHASES[3], |tr| {
            for i in 0..sz.connects {
                let line = &small[i % small.len()];
                let t0 = Instant::now();
                let reply = Client::connect(&self.daemon.socket).and_then(|mut c| c.request(line));
                let t1 = Instant::now();
                tr.request("connect + hit small", t0, t1);
                self.ledger.check(line, reply.as_deref().ok());
                self.samples.connect_ms.push((t1 - t0).as_secs_f64() * 1e3);
            }
        });
        self.expected.hits += sz.connects as u64;

        let clients = crate::host::cores().max(1);
        let hit_lines: Vec<Vec<&String>> = (0..clients)
            .map(|c| {
                (0..sz.thr_hits)
                    .map(|i| &small[(c + i) % small.len()])
                    .collect()
            })
            .collect();
        let (rate, wall) = tr.phase(PHASES[4], |tr| self.fan_out(&hit_lines, "hit small", tr));
        self.samples.hit_req_per_s.push(rate?);
        walls[4] = wall;
        self.expected.hits += (clients * sz.thr_hits) as u64;

        let new_mids: Vec<Vec<String>> = (0..clients)
            .map(|_| {
                let seeds = self.seeds.take(sz.thr_mids);
                self.mid_seeds.extend(&seeds);
                seeds.into_iter().map(|s| Class::Mid.request(s)).collect()
            })
            .collect();
        let miss_lines: Vec<Vec<&String>> = new_mids.iter().map(|v| v.iter().collect()).collect();
        let (rate, wall) = tr.phase(PHASES[5], |tr| self.fan_out(&miss_lines, "miss mid", tr));
        self.samples.miss_cells_per_s.push(rate?);
        walls[5] = wall;
        self.expected.misses += (clients * sz.thr_mids) as u64;
        self.expected.computed += (clients * sz.thr_mids) as u64;

        self.samples
            .round_wall_s
            .push(t_round.elapsed().as_secs_f64());
        self.samples.phase_wall_s.push(walls);
        if self.cell_bytes == (0, 0) {
            let size = |path: PathBuf| {
                std::fs::metadata(&path)
                    .map(|m| m.len())
                    .map_err(|e| format!("{}: {e}", path.display()))
            };
            self.cell_bytes = (
                size(self.cell_file(Class::Small, small_seeds[0])?)?,
                size(self.cell_file(Class::Large, large_seeds[0])?)?,
            );
        }
        Ok(())
    }

    /// Closed-loop fan-out: one client thread per line list, each on its
    /// own connection, released together. Returns requests per second
    /// from the first send to the last reply.
    fn fan_out(
        &mut self,
        per_client: &[Vec<&String>],
        span: &str,
        tr: &mut Tracer<'_>,
    ) -> Result<f64, String> {
        type Reply = (Instant, Instant, Option<String>);
        let barrier = Barrier::new(per_client.len());
        let socket = &self.daemon.socket;
        let results: Vec<Result<Vec<Reply>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = per_client
                .iter()
                .map(|lines| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let client = Client::connect(socket);
                        // Every thread reaches the barrier, connected or not.
                        barrier.wait();
                        let mut client = client.map_err(|e| format!("connect: {e}"))?;
                        Ok(lines
                            .iter()
                            .map(|line| {
                                let t0 = Instant::now();
                                let reply = client.request(line).ok();
                                (t0, Instant::now(), reply)
                            })
                            .collect())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client thread panicked".to_owned()))
                })
                .collect()
        });
        let mut first = None::<Instant>;
        let mut last = None::<Instant>;
        let mut n = 0u64;
        for (lines, replies) in per_client.iter().zip(results) {
            for (line, (t0, t1, reply)) in lines.iter().zip(replies?) {
                tr.request(span, t0, t1);
                self.ledger.check(line, reply.as_deref());
                first = Some(first.map_or(t0, |f| f.min(t0)));
                last = Some(last.map_or(t1, |l| l.max(t1)));
                n += 1;
            }
        }
        match (first, last) {
            (Some(f), Some(l)) if l > f => Ok(n as f64 / (l - f).as_secs_f64()),
            _ => Err("throughput phase sent nothing".to_owned()),
        }
    }
}

/// How many rounds a run plays.
#[derive(Clone, Copy, Debug)]
pub enum Rounds {
    /// Until `seconds` have passed since the first round began, at least
    /// [`MIN_ROUNDS`].
    For(f64),
    /// Exactly this many; with a recorder, only the last is traced.
    Exactly(usize),
}

/// Everything one daemon lifetime measured.
#[derive(Clone, Debug)]
pub struct Run {
    /// Spawn → first `pong`, one per boot.
    pub boot_s: Vec<f64>,
    /// Latency and rate samples.
    pub samples: Samples,
    /// Daemon `VmHWM` before shutdown, KiB.
    pub vm_hwm_kib: u64,
    /// Counters the daemon reported.
    pub stats: Counters,
    /// `shutdown` request → process exit, s.
    pub drain_s: f64,
    /// Cells `td-serve verify` found intact, and its wall clock.
    pub verify: (u64, f64),
    /// Stored bytes of a small and a large cell.
    pub cell_bytes: (u64, u64),
    /// Mid-cell seeds the run asked for.
    pub mid_seeds: Vec<u64>,
    /// Requests and checks attempted.
    pub attempted: u64,
    /// Requests and checks failed.
    pub failed: u64,
    /// Digest over the first reply to every distinct request.
    pub sim_digest: u64,
}

/// Boot the daemon, play the rounds, check the counters, shut down,
/// verify the store offline.
pub fn run(
    bin: &Path,
    seed: u64,
    sz: &Sizes,
    rounds: Rounds,
    mut rec: Option<&mut Recorder>,
) -> Result<Run, String> {
    let mut boot_s = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    for _ in 1..sz.boots {
        let mut d = Daemon::spawn(bin)?;
        boot_s.push(d.boot_s);
        let (_, clean) = d.shutdown()?;
        attempted += 1;
        failed += u64::from(!clean);
    }
    let mut daemon = Daemon::spawn(bin)?;
    boot_s.push(daemon.boot_s);

    let mut s = Session {
        daemon: &daemon,
        client: Client::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?,
        ledger: Ledger::default(),
        samples: Samples::default(),
        expected: Counters::default(),
        seeds: SeedSource::new(seed),
        mid_seeds: Vec::new(),
        cell_bytes: (0, 0),
        last_reply: None,
        config_hash: [None, None, None],
    };
    for _ in 0..sz.pings {
        let us = s.timed("ping", "{\"op\":\"ping\"}", &mut Tracer(None)) * 1e6;
        s.samples.ping_us.push(us);
    }
    let mut played = 0usize;
    let timed = Instant::now();
    loop {
        let more = match rounds {
            Rounds::For(seconds) => {
                played < MIN_ROUNDS
                    || (timed.elapsed().as_secs_f64() < seconds && played < MAX_ROUNDS)
            }
            Rounds::Exactly(n) => played < n,
        };
        if !more {
            break;
        }
        played += 1;
        let last = matches!(rounds, Rounds::Exactly(n) if played == n);
        let mut tracer = Tracer(rec.as_deref_mut().filter(|_| last));
        if let Some(r) = tracer.0.as_mut() {
            r.set_pass(played as u32);
        }
        tracer.phase("pass", |tr| s.round(sz, tr)).0?;
    }

    let vm_hwm_kib = daemon.vm_hwm_kib();
    let stats_reply = s
        .client
        .request("{\"op\":\"stats\"}")
        .map_err(|e| e.to_string())?;
    let stats = Counters::parse(&stats_reply)?;
    attempted += s.ledger.sent + 1;
    failed += s.ledger.failed + stats.mismatches(&s.expected);
    if stats != s.expected {
        eprintln!(
            "td-bench: daemon counters {stats:?} differ from the script's {:?}",
            s.expected
        );
    }
    let Session {
        client,
        ledger,
        samples,
        mid_seeds,
        cell_bytes,
        ..
    } = s;
    drop(client);
    let (drain_s, clean) = daemon.shutdown()?;
    attempted += 1;
    failed += u64::from(!clean);

    let t = Instant::now();
    let verify = Command::new(bin)
        .arg("verify")
        .arg("--store")
        .arg(&daemon.store)
        .stdin(Stdio::null())
        .output()
        .map_err(|e| format!("cannot run td-serve verify: {e}"))?;
    let verify_s = t.elapsed().as_secs_f64();
    let text = String::from_utf8_lossy(&verify.stdout);
    let intact: u64 = text
        .strip_prefix("verify: ")
        .and_then(|r| r.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);
    attempted += 1;
    if !verify.status.success() || intact != stats.misses {
        eprintln!(
            "td-bench: td-serve verify: {} (expected {} intact cells)",
            text.trim(),
            stats.misses
        );
        failed += 1;
    }

    Ok(Run {
        boot_s,
        samples,
        vm_hwm_kib,
        stats,
        drain_s,
        verify: (intact, verify_s),
        cell_bytes,
        mid_seeds,
        attempted,
        failed,
        sim_digest: ledger.digest(),
    })
}

/// Everything an untraced `serve_mix` run measured, beyond the result
/// line.
#[derive(Clone, Debug)]
pub struct Detail {
    /// Rounds played.
    pub rounds: usize,
    /// Client threads in the throughput phase.
    pub threads: u32,
    /// Quartiles over the rounds (wall clock, throughput-phase rate), the
    /// daemon's peak RSS, and quartiles over the boots.
    pub summaries: Vec<(&'static str, Summary)>,
    /// The run itself, for the per-phase table.
    pub run: Run,
}

/// The untraced run: end-to-end metrics. As for the simulation workloads
/// the reported time is the best case — each phase's fastest run summed,
/// the highest throughput-phase rate — with quartiles over the rounds
/// printed beside it; the latencies inside a round are medians over its
/// requests.
pub fn run_untraced(seed: u64, seconds: f64, smoke: bool) -> Result<(Outcome, Detail), String> {
    let bin = crate::host::build_td_serve()?;
    let sz = if smoke { Sizes::SMOKE } else { Sizes::FULL };
    let run = run(&bin, seed, &sz, Rounds::For(seconds), None)?;
    let mut out = Outcome {
        attempted: run.attempted,
        failed: run.failed,
        values: Vec::new(),
    };
    let s = &run.samples;
    out.set("wall_s", s.best_round_wall_s());
    out.set(
        "work_per_s",
        s.hit_req_per_s.iter().copied().fold(0.0, f64::max),
    );
    out.set("setup_s", median(&run.boot_s));
    let detail = Detail {
        rounds: s.round_wall_s.len(),
        threads: crate::host::cores() as u32,
        summaries: vec![
            ("pass_wall_s", summarize(&s.round_wall_s)),
            ("hit_req_per_s", summarize(&s.hit_req_per_s)),
            ("peak_rss_mib", summarize(&[run.vm_hwm_kib as f64 / 1024.0])),
            ("setup_s", summarize(&run.boot_s)),
        ],
        run,
    };
    Ok((out, detail))
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: &str = "{\"status\":\"ok\",\"experiment\":\"fig2\",\"payload_fnv\":\"00ff\"}";

    #[test]
    fn ledger_passes_identical_ok_replies() {
        let mut l = Ledger::default();
        assert!(l.check("req a", Some(OK)));
        assert!(l.check("req a", Some(OK)));
        assert!(l.check("req b", Some(&OK.replace("00ff", "00aa"))));
        assert_eq!((l.sent, l.failed), (3, 0));
    }

    #[test]
    fn a_non_ok_reply_a_missing_reply_or_different_bytes_fail() {
        let mut l = Ledger::default();
        assert!(l.check("req a", Some(OK)));
        // hit != miss bytes for the same key
        assert!(!l.check("req a", Some(&OK.replace("00ff", "00fe"))));
        assert!(!l.check(
            "req b",
            Some("{\"status\":\"overloaded\",\"reason\":\"queue_full\"}")
        ));
        assert!(!l.check("req c", Some("{\"status\":\"failed\",\"reason\":\"x\"}")));
        assert!(!l.check("req d", None));
        assert_eq!((l.sent, l.failed), (5, 4));
        // The first reply stays the reference.
        assert!(l.check("req a", Some(OK)));
    }

    #[test]
    fn ledger_digest_ignores_request_order() {
        let mut a = Ledger::default();
        a.check("x", Some(OK));
        a.check("y", Some(&OK.replace("00ff", "1")));
        let mut b = Ledger::default();
        b.check("y", Some(&OK.replace("00ff", "1")));
        b.check("x", Some(OK));
        assert_eq!(a.digest(), b.digest());
        b.check("z", Some(OK));
        assert_ne!(a.digest(), b.digest());
    }

    #[test]
    fn best_round_takes_each_phases_fastest_run() {
        let s = Samples {
            phase_wall_s: vec![
                [1.0, 0.5, 0.4, 0.6, 0.3, 0.2],
                [0.9, 0.7, 0.4, 0.5, 0.3, 0.4],
                [1.2, 0.6, 0.3, 0.7, 0.2, 0.3],
            ],
            ..Samples::default()
        };
        let want: f64 = [0.9, 0.5, 0.3, 0.5, 0.2, 0.2].iter().sum();
        assert!((s.best_round_wall_s() - want).abs() < 1e-12);
    }

    #[test]
    fn counters_parse_and_compare() {
        let reply = "{\"status\":\"stats\",\"requests\":9,\"ok\":7,\"bad_requests\":0,\
                     \"hits\":4,\"misses\":3,\"computed\":4,\"recomputed\":1,\"retries\":0,\
                     \"worker_panics\":0,\"deadline_exceeded\":0,\"failed\":0,\"shed\":0,\
                     \"overloaded\":0,\"circuit_open\":0,\"quarantined\":1,\
                     \"queue_persisted\":0,\"queue_restored\":0,\"queued\":0,\"in_flight\":0}";
        let got = Counters::parse(reply).unwrap();
        let want = Counters {
            hits: 4,
            misses: 3,
            computed: 4,
            recomputed: 1,
            quarantined: 1,
            ..Counters::default()
        };
        assert_eq!(got, want);
        assert_eq!(got.mismatches(&want), 0);
        let off = Counters {
            hits: 5,
            overloaded: 1,
            ..want
        };
        assert_eq!(got.mismatches(&off), 2);
        assert!(Counters::parse("{\"status\":\"stats\"}").is_err());
    }

    #[test]
    fn seeds_never_repeat_and_depend_on_the_master_seed() {
        let mut a = SeedSource::new(1);
        let mut all = a.take(5);
        all.extend(a.take(7));
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n);
        assert!(all.iter().all(|&s| s < 1 << 52));
        assert_ne!(SeedSource::new(1).take(1), SeedSource::new(2).take(1));
        assert_eq!(SeedSource::new(7).take(3), SeedSource::new(7).take(3));
    }
}
