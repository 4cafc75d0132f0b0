//! Experiment registry: every reproduced figure/table, addressable by id.

use crate::report::Report;

/// Run profile: how much simulated time to give each experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Profile {
    /// Short runs for CI / quick checks (minutes of simulated time).
    Quick,
    /// Paper-scale runs (the durations behind EXPERIMENTS.md).
    Full,
}

impl Profile {
    /// The byte `config_hash` and every on-disk format write for it.
    pub fn tag(self) -> u8 {
        match self {
            Profile::Quick => 0,
            Profile::Full => 1,
        }
    }

    /// The inverse of [`Profile::tag`].
    pub fn from_tag(tag: u8) -> Result<Profile, td_engine::SnapError> {
        match tag {
            0 => Ok(Profile::Quick),
            1 => Ok(Profile::Full),
            other => Err(td_engine::SnapError::Corrupt(format!(
                "unknown profile tag {other}"
            ))),
        }
    }
}

/// One registered experiment.
pub struct Entry {
    /// Id used on the `td-repro` command line (`fig2`, `abl-pacing`, …).
    pub id: &'static str,
    /// One-line description.
    pub about: &'static str,
    runner: fn(u64, Profile) -> Report,
}

impl Entry {
    /// Build an ad-hoc entry outside the registry. Used by harness tests
    /// and benches that need a controlled runner (e.g. one that panics on
    /// purpose to exercise the pool's fault isolation) without touching
    /// the presentation-order registry below.
    pub fn new(id: &'static str, about: &'static str, runner: fn(u64, Profile) -> Report) -> Self {
        Entry { id, about, runner }
    }

    /// Execute with the given seed and profile.
    pub fn run(&self, seed: u64, profile: Profile) -> Report {
        (self.runner)(seed, profile)
    }
}

fn secs(profile: Profile, quick: u64, full: u64) -> u64 {
    if let Some(s) = crate::sim_secs_override() {
        return s;
    }
    match profile {
        Profile::Quick => quick,
        Profile::Full => full,
    }
}

/// Config-override keys `td-serve` accepts, with validation. Every key
/// here must be deterministic (same overrides + seed → byte-identical
/// report) and safe to apply per-thread; process-global settings like
/// `--shards` are deliberately excluded because concurrent requests
/// would race on them.
pub const OVERRIDE_KEYS: &[&str] = &["sim_secs"];

/// Validate one config override. `Ok` means [`config_hash`] may include
/// it and a worker may apply it.
pub fn validate_override(key: &str, value: u64) -> Result<(), String> {
    match key {
        "sim_secs" => {
            if (1..=100_000).contains(&value) {
                Ok(())
            } else {
                Err(format!("sim_secs must be in 1..=100000, got {value}"))
            }
        }
        other => Err(format!(
            "unknown override key {other:?} (known: {})",
            OVERRIDE_KEYS.join(", ")
        )),
    }
}

/// Canonical hash of a request's configuration: experiment id, profile,
/// and the sorted override list. `td-serve` content-addresses its store
/// by `(config_hash, seed)`, so two requests that would run the same
/// simulation — regardless of override order on the wire — must hash
/// identically, and any semantic change to what a config means must
/// bump the version tag baked into the preimage.
pub fn config_hash(id: &str, profile: Profile, overrides: &[(String, u64)]) -> u64 {
    let mut bytes = Vec::with_capacity(64);
    bytes.extend_from_slice(b"td-serve-config-v1\0");
    bytes.extend_from_slice(id.as_bytes());
    bytes.push(0);
    bytes.push(profile.tag());
    let mut sorted: Vec<&(String, u64)> = overrides.iter().collect();
    sorted.sort();
    for (k, v) in sorted {
        bytes.push(0);
        bytes.extend_from_slice(k.as_bytes());
        bytes.push(b'=');
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    td_engine::fnv1a(&bytes)
}

/// All experiments, in presentation order.
pub fn registry() -> Vec<Entry> {
    vec![
        Entry {
            id: "fig2",
            about: "One-way baseline: 3 connections, tau = 1 s (Fig. 2)",
            runner: |seed, p| crate::fig2::report(seed, secs(p, 600, 2000)),
        },
        Entry {
            id: "fig3",
            about: "Ten connections two-way, rapid queue fluctuations (Fig. 3)",
            runner: |seed, p| crate::fig3::report(seed, secs(p, 400, 1000)),
        },
        Entry {
            id: "fig45",
            about: "1+1 two-way, small pipe: ACK-compression + out-of-phase (Figs. 4-5)",
            runner: |seed, p| crate::fig45::report(seed, secs(p, 500, 1000)),
        },
        Entry {
            id: "fig67",
            about: "1+1 two-way, large pipe: in-phase mode (Figs. 6-7)",
            runner: |seed, p| crate::fig67::report(seed, secs(p, 800, 2000)),
        },
        Entry {
            id: "fig8",
            about: "Fixed windows 30/25, small pipe (Fig. 8)",
            runner: |seed, p| crate::fig89::report_fig8(seed, secs(p, 120, 400)),
        },
        Entry {
            id: "fig9",
            about: "Fixed windows 30/25, large pipe (Fig. 9)",
            runner: |seed, p| crate::fig89::report_fig9(seed, secs(p, 300, 800)),
        },
        Entry {
            id: "oneway-util",
            about: "One-way utilization vs pipe and buffer (in-text, Sec. 3.1)",
            runner: |seed, p| crate::oneway_util::report(seed, secs(p, 400, 800)),
        },
        Entry {
            id: "conjecture",
            about: "Zero-length-ACK fixed-window conjecture sweep (Sec. 4.3.3)",
            runner: |seed, p| crate::conjecture::report(seed, secs(p, 200, 500)),
        },
        Entry {
            id: "delayed-ack",
            about: "Delayed-ACK option fragments clusters (Sec. 5)",
            runner: |seed, p| crate::delayed_ack::report(seed, secs(p, 400, 1000)),
        },
        Entry {
            id: "multihop",
            about: "Four switches, 50 connections (Sec. 5 / [19])",
            runner: |seed, p| crate::multihop::report(seed, secs(p, 300, 800)),
        },
        Entry {
            id: "scale",
            about: "Cluster chain of Sec. 5 units, 10k+ connections full (sharded)",
            runner: crate::scale::report,
        },
        Entry {
            id: "decbit",
            about: "DECbit AIMD under two-way traffic (Sec. 5 / OSI testbed)",
            runner: |seed, p| crate::decbit::report(seed, secs(p, 400, 1000)),
        },
        Entry {
            id: "piggyback",
            about: "Duplex connection with piggybacked ACKs (Sec. 2.1 third trigger)",
            runner: |seed, p| crate::piggyback::report(seed, secs(p, 400, 1000)),
        },
        Entry {
            id: "modes",
            about: "Synchronization-mode census across start phases (Sec. 4.3.3)",
            runner: |seed, p| crate::modes::report(seed, secs(p, 300, 600)),
        },
        Entry {
            id: "rtt-spread",
            about: "Unequal RTTs break complete clustering (Sec. 5)",
            runner: |seed, p| crate::rtt_spread::report(seed, secs(p, 600, 1000)),
        },
        Entry {
            id: "crosstraffic",
            about: "Poisson cross-traffic vs clustering (Sec. 6 open question)",
            runner: |seed, p| crate::crosstraffic::report(seed, secs(p, 400, 800)),
        },
        Entry {
            id: "short-flows",
            about: "FCT of 100-packet transfers under the fig45 dynamics",
            runner: |seed, p| crate::short_flows::report(seed, secs(p, 8, 20) as usize),
        },
        Entry {
            id: "reno",
            about: "TCP Reno under two-way traffic: structural vs Tahoe-specific findings",
            runner: |seed, p| crate::reno::report(seed, secs(p, 400, 800)),
        },
        Entry {
            id: "abl-pacing",
            about: "Ablation: paced vs nonpaced sender (Sec. 1/6 conjecture)",
            runner: |seed, p| crate::ablations::report_pacing(seed, secs(p, 300, 800)),
        },
        Entry {
            id: "abl-increment",
            about: "Ablation: modified vs original avoidance increment (Sec. 2.1)",
            runner: |seed, p| crate::ablations::report_increment(seed, secs(p, 300, 800)),
        },
        Entry {
            id: "abl-red",
            about: "Ablation: RED breaks drop-tail's loss synchronization",
            runner: |seed, p| crate::ablations::report_red(seed, secs(p, 600, 1500)),
        },
        Entry {
            id: "abl-discipline",
            about: "Ablation: drop-tail vs Random Drop vs Fair Queueing",
            runner: |seed, p| crate::ablations::report_discipline(seed, secs(p, 300, 800)),
        },
        Entry {
            id: "chaos",
            about: "Robustness drill: recovery from scheduled outages and burst loss",
            runner: |seed, p| crate::chaos::report(seed, secs(p, 120, 400)),
        },
    ]
}

/// Entries addressable with `--only` but excluded from `--all`: the
/// resource-budget rungs and the model-checking drill rather than paper
/// claims.
pub fn hidden() -> Vec<Entry> {
    vec![
        Entry {
            id: "scale100k",
            about: "100k-connection rung: 640-cluster chain, trace off, pinned RSS budget",
            runner: crate::scale::report_100k,
        },
        Entry {
            id: "scale1m",
            about: "1M-connection rung: 6400-cluster chain, compressed routes, pinned RSS budget",
            runner: crate::scale::report_1m,
        },
        Entry {
            id: "mc_fig45",
            about: "Bounded model checking: fault placements across one fig45 congestion epoch",
            runner: crate::mc::report,
        },
    ]
}

/// Look up one experiment by id, including hidden entries.
pub fn find(id: &str) -> Option<Entry> {
    registry().into_iter().chain(hidden()).find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique() {
        let mut ids: Vec<_> = registry().iter().map(|e| e.id).collect();
        ids.extend(hidden().iter().map(|e| e.id));
        let n = ids.len();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), n);
        assert!(n >= 21);
    }

    #[test]
    fn find_works() {
        assert!(find("fig2").is_some());
        assert!(find("nonsense").is_none());
        // Hidden entries resolve by id but stay out of the listing.
        assert!(find("scale100k").is_some());
        assert!(find("scale1m").is_some());
        assert!(find("mc_fig45").is_some());
        assert!(registry()
            .iter()
            .all(|e| e.id != "scale100k" && e.id != "scale1m" && e.id != "mc_fig45"));
    }

    #[test]
    fn quick_profile_runs_an_entry() {
        let rep = find("fig8").unwrap().run(1, Profile::Quick);
        assert_eq!(rep.id, "fig8");
        assert!(!rep.rows.is_empty());
    }

    #[test]
    fn config_hash_is_order_insensitive_and_version_tagged() {
        let a = config_hash("fig8", Profile::Quick, &[]);
        let b = config_hash("fig8", Profile::Full, &[]);
        let c = config_hash("fig9", Profile::Quick, &[]);
        assert_ne!(a, b, "profile is part of the config");
        assert_ne!(a, c, "id is part of the config");

        let ov1 = vec![("sim_secs".to_owned(), 60)];
        let d = config_hash("fig8", Profile::Quick, &ov1);
        assert_ne!(a, d, "overrides are part of the config");
        // Same overrides in a different on-the-wire order hash the same.
        let two_a = vec![("a".to_owned(), 1), ("b".to_owned(), 2)];
        let two_b = vec![("b".to_owned(), 2), ("a".to_owned(), 1)];
        assert_eq!(
            config_hash("fig8", Profile::Quick, &two_a),
            config_hash("fig8", Profile::Quick, &two_b),
        );
    }

    #[test]
    fn override_validation_gates_the_config_surface() {
        assert!(validate_override("sim_secs", 1).is_ok());
        assert!(validate_override("sim_secs", 100_000).is_ok());
        assert!(validate_override("sim_secs", 0).is_err());
        assert!(validate_override("sim_secs", 100_001).is_err());
        let err = validate_override("shards", 4).unwrap_err();
        assert!(err.contains("unknown override key"), "{err}");
        for key in OVERRIDE_KEYS {
            assert!(validate_override(key, 10).is_ok());
        }
    }

    #[test]
    fn sim_secs_override_caps_the_standard_mapping() {
        assert_eq!(secs(Profile::Quick, 600, 2000), 600);
        assert_eq!(secs(Profile::Full, 600, 2000), 2000);
        {
            let _g = crate::override_sim_secs(42);
            assert_eq!(secs(Profile::Quick, 600, 2000), 42);
            assert_eq!(secs(Profile::Full, 600, 2000), 42);
        }
        assert_eq!(secs(Profile::Quick, 600, 2000), 600, "guard restores");
    }
}
