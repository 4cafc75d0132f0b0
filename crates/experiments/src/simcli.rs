//! Configuration parsing for the `td-sim` general-purpose scenario CLI.
//!
//! `td-repro` regenerates the paper; `td-sim` lets a user run *their own*
//! dumbbell scenario from the command line — any mix of algorithms,
//! disciplines, pipe sizes, and buffers — and get the standard outputs
//! (summary, CSV, SVG, pcap). This module holds the flag grammar and its
//! translation into a [`Scenario`], kept out of the binary so it is unit-
//! testable.

use crate::scenario::{ConnSpec, Scenario};
use td_core::{CcKind, DelayedAck, IncrementRule, ReceiverConfig, SenderConfig};
use td_engine::SimDuration;
use td_net::DisciplineKind;

/// Parsed `td-sim` invocation.
#[derive(Debug)]
pub struct SimArgs {
    /// The scenario to run.
    pub scenario: Scenario,
    /// Output directory for CSV/SVG/pcap (None = summary only).
    pub out: Option<std::path::PathBuf>,
    /// Write a pcap of the 1→2 bottleneck into `out` (requires `out`).
    pub pcap: bool,
}

/// Parse a congestion-control name.
pub fn parse_cc(s: &str) -> Result<CcKind, String> {
    match s {
        "tahoe" => Ok(CcKind::Tahoe {
            rule: IncrementRule::Modified,
        }),
        "tahoe-original" => Ok(CcKind::Tahoe {
            rule: IncrementRule::Original,
        }),
        "reno" => Ok(CcKind::Reno),
        "decbit" => Ok(CcKind::Decbit),
        other => {
            if let Some(w) = other.strip_prefix("fixed:") {
                let wnd: u64 = w.parse().map_err(|_| format!("bad fixed window: {w}"))?;
                // A zero window deadlocks the sender: nothing is ever
                // transmitted, so no ACK and no timer can unstick it.
                if wnd == 0 {
                    return Err(
                        "fixed window must be at least 1 packet (fixed:0 never sends)".into(),
                    );
                }
                Ok(CcKind::FixedWindow { wnd })
            } else {
                Err(format!(
                    "unknown cc {other:?} (tahoe, tahoe-original, reno, decbit, fixed:N)"
                ))
            }
        }
    }
}

/// Parse a queue-discipline name.
pub fn parse_discipline(s: &str) -> Result<DisciplineKind, String> {
    match s {
        "drop-tail" | "droptail" => Ok(DisciplineKind::DropTail),
        "random-drop" | "randomdrop" => Ok(DisciplineKind::RandomDrop),
        "fq" | "fair-queueing" => Ok(DisciplineKind::FairQueueing),
        "red" => Ok(DisciplineKind::Red),
        other => Err(format!(
            "unknown discipline {other:?} (drop-tail, random-drop, fq, red)"
        )),
    }
}

/// Parse the full argument list (exclusive of `argv\[0\]`).
pub fn parse(args: &[String]) -> Result<SimArgs, String> {
    let mut tau_ms: u64 = 10;
    let mut buffer: Option<u32> = Some(20);
    let mut fwd: usize = 1;
    let mut rev: usize = 1;
    let mut duration_s: u64 = 300;
    let mut seed: u64 = 1;
    let mut cc = CcKind::default();
    let mut discipline = DisciplineKind::DropTail;
    let mut delack = false;
    let mut pacing = false;
    let mut maxwnd: u64 = 1000;
    let mut mark: Option<u32> = None;
    let mut out = None;
    let mut pcap = false;

    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut val = |name: &str| -> Result<&String, String> {
            it.next().ok_or(format!("{name} needs a value"))
        };
        match a.as_str() {
            "--tau-ms" => tau_ms = val("--tau-ms")?.parse().map_err(|e| format!("{e}"))?,
            "--buffer" => {
                let v = val("--buffer")?;
                buffer = if v == "inf" {
                    None
                } else {
                    Some(v.parse().map_err(|e| format!("{e}"))?)
                };
            }
            "--fwd" => fwd = val("--fwd")?.parse().map_err(|e| format!("{e}"))?,
            "--rev" => rev = val("--rev")?.parse().map_err(|e| format!("{e}"))?,
            "--duration" => duration_s = val("--duration")?.parse().map_err(|e| format!("{e}"))?,
            "--seed" => seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--cc" => cc = parse_cc(val("--cc")?)?,
            "--discipline" => discipline = parse_discipline(val("--discipline")?)?,
            "--maxwnd" => maxwnd = val("--maxwnd")?.parse().map_err(|e| format!("{e}"))?,
            "--mark" => mark = Some(val("--mark")?.parse().map_err(|e| format!("{e}"))?),
            "--delack" => delack = true,
            "--paced" => pacing = true,
            "--pcap" => pcap = true,
            "--out" => out = Some(std::path::PathBuf::from(val("--out")?)),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if fwd + rev == 0 {
        return Err("need at least one connection (--fwd/--rev)".into());
    }
    // Like fixed:0, a zero advertised window means the sender may never
    // transmit: no data, no ACK clock, no pending timer — a silent
    // deadlock rather than a simulation.
    if maxwnd == 0 {
        return Err(
            "--maxwnd must be at least 1 packet (a zero window deadlocks the sender)".into(),
        );
    }
    if duration_s < 10 {
        return Err("--duration must be at least 10 s".into());
    }
    // The pcap is a file in the output directory; without one it would
    // be silently dropped.
    if pcap && out.is_none() {
        return Err("--pcap writes into the --out directory; give --out DIR".into());
    }
    // DECbit needs marking to function; default its threshold.
    if cc == CcKind::Decbit && mark.is_none() {
        mark = Some(2);
    }

    let spec = ConnSpec {
        sender: SenderConfig {
            cc,
            maxwnd,
            pacing: pacing.then_some(crate::scenario::DATA_SERVICE),
            ..SenderConfig::paper()
        },
        receiver: ReceiverConfig {
            delayed_ack: delack.then(DelayedAck::default),
            ..ReceiverConfig::paper()
        },
    };
    let mut sc = Scenario::paper(seed, duration_s, SimDuration::from_millis(tau_ms), buffer)
        .with_fwd(fwd, spec)
        .with_rev(rev, spec);
    sc.discipline = discipline;
    sc.mark_threshold = mark;
    Ok(SimArgs {
        scenario: sc,
        out,
        pcap,
    })
}

/// The `--help` text.
pub fn usage() -> String {
    "td-sim — run a custom dumbbell scenario\n\
     \n\
     usage: td-sim [flags]\n\
     \n\
     topology / workload:\n\
     \x20 --tau-ms N        bottleneck propagation delay, ms   [10]\n\
     \x20 --buffer N|inf    bottleneck buffer, packets         [20]\n\
     \x20 --fwd N           connections Host-1 -> Host-2       [1]\n\
     \x20 --rev N           connections Host-2 -> Host-1       [1]\n\
     \x20 --duration SECS   simulated time                     [300]\n\
     \x20 --seed N          RNG seed                           [1]\n\
     \n\
     protocol:\n\
     \x20 --cc NAME         tahoe | tahoe-original | reno | decbit | fixed:N\n\
     \x20 --maxwnd N        receiver-advertised window         [1000]\n\
     \x20 --delack          enable delayed ACKs\n\
     \x20 --paced           pace data at the bottleneck rate\n\
     \n\
     gateway:\n\
     \x20 --discipline D    drop-tail | random-drop | fq | red [drop-tail]\n\
     \x20 --mark N          CE-mark above this occupancy (DECbit)\n\
     \n\
     output:\n\
     \x20 --out DIR         write CSV + SVG (+ pcap with --pcap)\n\
     \x20 --pcap            capture the 1->2 bottleneck wire (needs --out)\n"
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_owned()).collect()
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.scenario.fwd.len(), 1);
        assert_eq!(a.scenario.rev.len(), 1);
        assert_eq!(a.scenario.buffer, Some(20));
        assert!(!a.pcap);
        assert!(a.out.is_none());
    }

    #[test]
    fn full_flag_set() {
        let a = parse(&args(
            "--tau-ms 1000 --buffer inf --fwd 3 --rev 0 --duration 100 --seed 9 \
             --cc fixed:30 --discipline fq --delack --pcap --out /tmp/x",
        ))
        .unwrap();
        assert_eq!(a.scenario.tau, SimDuration::from_secs(1));
        assert_eq!(a.scenario.buffer, None);
        assert_eq!(a.scenario.fwd.len(), 3);
        assert!(a.scenario.rev.is_empty());
        assert_eq!(a.scenario.seed, 9);
        assert_eq!(a.scenario.discipline, DisciplineKind::FairQueueing);
        assert_eq!(a.scenario.fwd[0].sender.cc, CcKind::FixedWindow { wnd: 30 });
        assert!(a.scenario.fwd[0].receiver.delayed_ack.is_some());
        assert!(a.pcap);
        assert_eq!(a.out.unwrap(), std::path::PathBuf::from("/tmp/x"));
    }

    #[test]
    fn decbit_defaults_marking() {
        let a = parse(&args("--cc decbit")).unwrap();
        assert_eq!(a.scenario.mark_threshold, Some(2));
        let b = parse(&args("--cc decbit --mark 5")).unwrap();
        assert_eq!(b.scenario.mark_threshold, Some(5));
    }

    #[test]
    fn cc_names() {
        assert!(parse_cc("tahoe").is_ok());
        assert!(parse_cc("tahoe-original").is_ok());
        assert!(parse_cc("reno").is_ok());
        assert!(parse_cc("decbit").is_ok());
        assert_eq!(
            parse_cc("fixed:12").unwrap(),
            CcKind::FixedWindow { wnd: 12 }
        );
        assert!(parse_cc("cubic").is_err());
        assert!(parse_cc("fixed:x").is_err());
    }

    #[test]
    fn zero_windows_are_rejected() {
        // fixed:0 configures a sender that can never transmit — reject it
        // up front instead of deadlocking the simulation.
        let err = parse_cc("fixed:0").unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
        let err = parse(&args("--maxwnd 0")).unwrap_err();
        assert!(err.contains("at least 1"), "unhelpful error: {err}");
        // The boundary value stays accepted.
        assert_eq!(parse_cc("fixed:1").unwrap(), CcKind::FixedWindow { wnd: 1 });
        assert!(parse(&args("--maxwnd 1")).is_ok());
    }

    #[test]
    fn discipline_names() {
        assert!(parse_discipline("drop-tail").is_ok());
        assert!(parse_discipline("red").is_ok());
        assert!(parse_discipline("fq").is_ok());
        assert!(parse_discipline("codel").is_err());
    }

    #[test]
    fn rejections() {
        assert!(parse(&args("--fwd 0 --rev 0")).is_err());
        assert!(parse(&args("--duration 5")).is_err());
        assert!(parse(&args("--bogus")).is_err());
        assert!(parse(&args("--buffer")).is_err(), "missing value");
        let err = parse(&args("--shards 2")).unwrap_err();
        assert!(err.contains("unknown flag: --shards"), "{err}");
        let err = parse(&args("--pcap")).unwrap_err();
        assert!(err.contains("--out"), "{err}");
    }

    #[test]
    fn usage_mentions_every_flag() {
        let u = usage();
        for flag in [
            "--tau-ms",
            "--buffer",
            "--fwd",
            "--rev",
            "--duration",
            "--seed",
            "--cc",
            "--maxwnd",
            "--delack",
            "--paced",
            "--discipline",
            "--mark",
            "--out",
            "--pcap",
        ] {
            assert!(u.contains(flag), "usage missing {flag}");
        }
    }
}
