//! `td-serve` — the simulation-serving daemon and its maintenance /
//! client subcommands.
//!
//! ```text
//! td-serve serve   --store DIR [--socket PATH] [--jobs N] [--queue-cap N]
//!                  [--deadline-ms N]
//! td-serve verify  --store DIR [--fix]      # checksum-scan every cell
//! td-serve compact --store DIR              # drop tmp files + quarantine
//! td-serve req     --socket PATH JSON...    # send request line(s), print replies
//! td-serve stats   --socket PATH            # shorthand for req '{"op":"stats"}'
//! ```
//!
//! The daemon drains gracefully on SIGINT/SIGTERM (finish in-flight
//! cells, answer queued clients `draining`, exit 130) or on an in-band
//! `{"op":"shutdown"}` request (same drain, exit 0).

use std::io::{BufRead as _, BufReader, Write as _};
use std::path::PathBuf;
use std::process::ExitCode;
use td_experiments::store::Store;
use td_serve::server::{run, ServeConfig};

/// Graceful-shutdown signal handling (SIGINT / SIGTERM), the same raw
/// `signal(2)` binding `td-repro` uses: the zero-dependency rule keeps
/// `unsafe` confined to the two binaries (and the `alloc_ledger` test's
/// counting allocator), and the handler body is a single atomic store,
/// well inside the async-signal-safe set.
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static INTERRUPTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        INTERRUPTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGINT, on_signal as *const () as usize);
            signal(SIGTERM, on_signal as *const () as usize);
        }
    }
}

fn install_signal_handlers() -> Option<&'static std::sync::atomic::AtomicBool> {
    #[cfg(unix)]
    {
        sig::install();
        Some(&sig::INTERRUPTED)
    }
    #[cfg(not(unix))]
    {
        None
    }
}

/// A fired deadline unwinds its worker by design and is answered
/// `deadline_exceeded`; it is not a crash, so it gets one plain stderr
/// line instead of the default hook's `panicked at` report. A panic on a
/// thread whose deadline has passed counts too: a thread scope re-raises
/// a helper's deadline panic with a payload of its own. That line keeps
/// such a panic's message and location, so a real bug that happens to
/// panic after the deadline still shows. Every other panic goes to the
/// default hook.
fn install_panic_hook() {
    use td_net::deadline;
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = (payload.downcast_ref::<String>().map(String::as_str))
            .or_else(|| payload.downcast_ref::<&str>().copied());
        match msg {
            Some(m) if m.starts_with(deadline::PANIC_PREFIX) => eprintln!("td-serve: {m}"),
            _ if deadline::expired() => {
                let loc = info
                    .location()
                    .map_or(String::new(), |l| format!(" at {l}"));
                eprintln!(
                    "td-serve: {} (unwound by: {}{loc})",
                    deadline::PANIC_PREFIX,
                    msg.unwrap_or("a non-string payload")
                );
            }
            _ => default(info),
        }
    }));
}

fn usage() -> String {
    "usage:\n  \
     td-serve serve   --store DIR [--socket PATH] [--jobs N] [--queue-cap N]\n                   \
     [--deadline-ms N]\n  \
     td-serve verify  --store DIR [--fix]\n  \
     td-serve compact --store DIR\n  \
     td-serve req     --socket PATH JSON...\n  \
     td-serve stats   --socket PATH\n\n\
     serve flags:\n  \
     --store DIR        store directory (created if absent)\n  \
     --socket PATH      Unix socket path (default: STORE/td-serve.sock)\n  \
     --jobs N           worker threads (default: available cores)\n  \
     --queue-cap N      bounded queue capacity (default: 64)\n  \
     --deadline-ms N    default per-request deadline (default: none)"
        .to_owned()
}

fn parse_u64(flag: &str, value: Option<String>) -> Result<u64, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse::<u64>()
        .map_err(|_| format!("{flag} needs an unsigned integer, got {v:?}"))
}

/// [`parse_u64`] that refuses zero: a zero worker count, queue or
/// deadline is never what the caller meant.
fn parse_positive(flag: &str, value: Option<String>) -> Result<u64, String> {
    match parse_u64(flag, value)? {
        0 => Err(format!("{flag} must be positive")),
        n => Ok(n),
    }
}

fn cmd_serve(args: &mut std::env::Args) -> Result<i32, String> {
    let mut store_dir: Option<PathBuf> = None;
    let mut socket: Option<PathBuf> = None;
    let mut cfg = ServeConfig::default();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                store_dir = Some(PathBuf::from(args.next().ok_or("--store needs a value")?))
            }
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?))
            }
            "--jobs" => cfg.jobs = parse_positive("--jobs", args.next())?.min(512) as usize,
            "--queue-cap" => {
                cfg.queue_cap = parse_positive("--queue-cap", args.next())?.min(1 << 20) as usize;
            }
            "--deadline-ms" => {
                cfg.default_deadline_ms = Some(parse_positive("--deadline-ms", args.next())?);
            }
            other => return Err(format!("unknown serve flag {other:?}\n\n{}", usage())),
        }
    }
    let store_dir = store_dir.ok_or_else(|| format!("serve needs --store DIR\n\n{}", usage()))?;
    cfg.socket = socket.unwrap_or_else(|| store_dir.join("td-serve.sock"));
    cfg.store_dir = store_dir;
    let interrupt = install_signal_handlers();
    install_panic_hook();
    run(cfg, interrupt).map_err(|e| format!("serve failed: {e}"))
}

fn cmd_verify(args: &mut std::env::Args) -> Result<i32, String> {
    let mut store_dir: Option<PathBuf> = None;
    let mut fix = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                store_dir = Some(PathBuf::from(args.next().ok_or("--store needs a value")?))
            }
            "--fix" => fix = true,
            other => return Err(format!("unknown verify flag {other:?}")),
        }
    }
    let store_dir = store_dir.ok_or("verify needs --store DIR")?;
    let store = Store::open(&store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    let report = store
        .verify(fix)
        .map_err(|e| format!("verify failed: {e}"))?;
    println!(
        "verify: {} intact cell(s), {} corrupt, {} quarantined",
        report.intact,
        report.corrupt.len(),
        report.quarantined
    );
    for (name, why) in &report.corrupt {
        println!(
            "  corrupt: {name}: {why}{}",
            if fix { " (moved to quarantine/)" } else { "" }
        );
    }
    Ok(if report.corrupt.is_empty() { 0 } else { 1 })
}

fn cmd_compact(args: &mut std::env::Args) -> Result<i32, String> {
    let mut store_dir: Option<PathBuf> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => {
                store_dir = Some(PathBuf::from(args.next().ok_or("--store needs a value")?))
            }
            other => return Err(format!("unknown compact flag {other:?}")),
        }
    }
    let store_dir = store_dir.ok_or("compact needs --store DIR")?;
    let store = Store::open(&store_dir).map_err(|e| format!("cannot open store: {e}"))?;
    let report = store
        .compact()
        .map_err(|e| format!("compact failed: {e}"))?;
    println!(
        "compact: removed {} tmp file(s) and {} quarantined cell(s), reclaimed {} byte(s)",
        report.tmp_removed, report.quarantine_removed, report.bytes_reclaimed
    );
    Ok(0)
}

/// Send each JSON line to the daemon and print each reply. Exit 0 iff
/// every reply has `"status":"ok"` or `"status":"stats"`.
fn cmd_req(args: &mut std::env::Args, implicit: Option<&str>) -> Result<i32, String> {
    let mut socket: Option<PathBuf> = None;
    let mut lines: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--socket" => {
                socket = Some(PathBuf::from(args.next().ok_or("--socket needs a value")?))
            }
            _ => lines.push(arg),
        }
    }
    if let Some(line) = implicit {
        lines.push(line.to_owned());
    }
    let socket = socket.ok_or("req needs --socket PATH")?;
    if lines.is_empty() {
        return Err("req needs at least one JSON request line".to_owned());
    }
    #[cfg(unix)]
    {
        let stream = std::os::unix::net::UnixStream::connect(&socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream);
        let mut all_ok = true;
        for line in &lines {
            writeln!(writer, "{line}").map_err(|e| format!("write failed: {e}"))?;
            writer.flush().map_err(|e| e.to_string())?;
            let mut reply = String::new();
            let n = reader
                .read_line(&mut reply)
                .map_err(|e| format!("read failed: {e}"))?;
            if n == 0 {
                return Err("daemon closed the connection".to_owned());
            }
            let reply = reply.trim_end();
            println!("{reply}");
            if !(reply.contains("\"status\":\"ok\"") || reply.contains("\"status\":\"stats\"")) {
                all_ok = false;
            }
        }
        Ok(if all_ok { 0 } else { 1 })
    }
    #[cfg(not(unix))]
    {
        Err("td-serve req needs Unix sockets".to_owned())
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args();
    let _argv0 = args.next();
    let code = match args.next().as_deref() {
        Some("serve") => cmd_serve(&mut args),
        Some("verify") => cmd_verify(&mut args),
        Some("compact") => cmd_compact(&mut args),
        Some("req") => cmd_req(&mut args, None),
        Some("stats") => cmd_req(&mut args, Some("{\"op\":\"stats\"}")),
        Some("--help" | "-h") | None => {
            println!("{}", usage());
            Ok(0)
        }
        Some(other) => Err(format!("unknown subcommand {other:?}\n\n{}", usage())),
    };
    match code {
        Ok(n) => ExitCode::from(u8::try_from(n).unwrap_or(1)),
        Err(msg) => {
            eprintln!("td-serve: {msg}");
            ExitCode::from(2)
        }
    }
}
