//! The machine and checkout a run happens in: core count, git revision,
//! the scratch directory, and the `td-serve` binary built from this
//! checkout's sources.
//!
//! The benchmark runs from the root of a checkout (the driver's is not a
//! git repository and is not `/root/repo`), reads and writes only inside
//! it, and names every path relative to it — which also keeps the daemon's
//! Unix-socket path far below the 108-byte `sun_path` limit however deep
//! the checkout sits.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Cores available to this process.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A `kB` field (`VmHWM`, `VmRSS`, …) of `/proc/<pid>/status`, in KiB; 0
/// where it cannot be read. `pid` `None` is this process.
pub fn proc_status_kib(pid: Option<u32>, field: &str) -> u64 {
    let who = pid.map_or_else(|| "self".to_owned(), |p| p.to_string());
    std::fs::read_to_string(format!("/proc/{who}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Short git revision of the checkout, `"unknown"` outside a work tree
/// (the driver's checkout is one such).
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Cargo's target directory for this checkout, relative to its root: the
/// driver sets `CARGO_TARGET_DIR`; by hand it is the root workspace's
/// `target`. Both are git-ignored.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .filter(|v| !v.is_empty())
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Where the benchmark keeps what it writes (daemon stores, span files).
pub fn out_dir() -> PathBuf {
    target_dir().join("td-bench")
}

/// Fail unless the current directory is the root of a checkout that holds
/// the simulator's sources — in a directory with only the benchmark's own
/// files there is nothing to measure.
pub fn require_checkout_root() -> Result<(), String> {
    for needed in ["crates/serve/Cargo.toml", "crates/experiments/Cargo.toml"] {
        if !Path::new(needed).is_file() {
            return Err(format!(
                "{needed} not found: run td-bench from the root of a checkout"
            ));
        }
    }
    Ok(())
}

/// Build `td-serve` from this checkout (a no-op when it is fresh) and
/// return the path of the binary.
pub fn build_td_serve() -> Result<PathBuf, String> {
    require_checkout_root()?;
    let status = Command::new("cargo")
        .args(["build", "--release", "--quiet", "--bin", "td-serve"])
        .args(["--manifest-path", "crates/serve/Cargo.toml"])
        .stdin(Stdio::null())
        // The result line owns stdout.
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build of td-serve failed: {status}"));
    }
    let bin = target_dir().join("release").join("td-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!(
            "{} missing after a successful build",
            bin.display()
        ))
    }
}

/// A directory under [`out_dir`] that is removed when dropped.
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    /// Create `out_dir()/<label>-<pid>-<n>`; `n` makes names unique within
    /// this process, the pid across concurrent ones.
    pub fn create(label: &str) -> std::io::Result<ScratchDir> {
        use std::sync::atomic::{AtomicU32, Ordering};
        static NEXT: AtomicU32 = AtomicU32::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let path = out_dir().join(format!("{label}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
