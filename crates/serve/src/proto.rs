//! Wire protocol: line-delimited flat JSON requests and responses.
//!
//! One request per line, one response line per request. A request is a
//! *flat* JSON object (string, unsigned integer and boolean values
//! only), read by the workspace's one strict parser,
//! [`td_engine::json::parse`]; nesting, `null`, floats, negatives,
//! duplicate keys and integers past `u64` are refused with an error
//! naming the key. Replies are `format!` layouts whose strings go
//! through [`td_engine::json::escape`].
//!
//! ```text
//! {"op":"simulate","experiment":"fig8","seed":1,"profile":"quick",
//!  "deadline_ms":30000,"priority":7,"sim_secs":60}
//! {"op":"stats"}
//! {"op":"ping"}
//! {"op":"shutdown"}
//! ```
//!
//! Unknown `simulate` keys must be valid config-override keys
//! ([`td_experiments::registry::OVERRIDE_KEYS`]); anything else is a
//! `bad_request`. Override order on the wire does not matter — the
//! canonical config hash sorts them. A request line is at most
//! [`MAX_LINE_BYTES`] long and UTF-8; a longer one is answered
//! `bad_request` and its connection closed, a non-UTF-8 one answered
//! `bad_request`.
//!
//! A simulate request's `ok` reply summarizes the cell (experiment,
//! seed, profile, config hash, row and failure counts) and ends with
//! `payload_sum`: the stored cell file's 8-byte checksum trailer in hex
//! ([`td_experiments::store`]), the same for a hit, a miss and a
//! recompute of one cell.

use td_engine::json::{self, Json};
use td_experiments::registry::{validate_override, Profile};

/// Longest request line the daemon reads, newline excluded: a fixed cap,
/// so a client that never sends a newline cannot grow its memory.
pub const MAX_LINE_BYTES: usize = 64 << 10;

/// Priority ceiling (inclusive). `0` is first to shed, `9` last.
pub const MAX_PRIORITY: u64 = 9;

/// Default priority for requests that don't set one.
pub const DEFAULT_PRIORITY: u8 = 5;

/// A parsed `simulate` request.
#[derive(Clone, Debug, PartialEq)]
pub struct SimulateReq {
    /// Registry experiment id.
    pub experiment: String,
    /// Master seed for the cell.
    pub seed: u64,
    /// Run profile.
    pub profile: Profile,
    /// Wall-clock budget for the cell, if any.
    pub deadline_ms: Option<u64>,
    /// Shed priority, `0..=9`; higher survives longer under overload.
    pub priority: u8,
    /// Validated config overrides, as they appeared on the wire.
    pub overrides: Vec<(String, u64)>,
}

/// One request line, parsed.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Compute (or serve from the store) one simulation cell.
    Simulate(SimulateReq),
    /// Report the daemon's counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin a graceful drain and exit 0.
    Shutdown,
}

/// The members of a request: a JSON object whose values are strings,
/// non-negative integers, `true` or `false`. Nesting, `null`, floats,
/// negatives, duplicate keys and integers past `u64` are refused with a
/// message naming the offense, because a `bad_request` the client can't
/// act on is a robustness hole of its own.
fn flat_members(line: &str) -> Result<Vec<(String, Json)>, String> {
    let doc = json::parse(line).map_err(|e| format!("request must be a JSON object: {e}"))?;
    let Json::Obj(members) = doc else {
        return Err("request must be a JSON object".into());
    };
    for (i, (key, value)) in members.iter().enumerate() {
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        let offense = match value {
            Json::Str(_) | Json::Bool(_) => continue,
            Json::Num(text) if text.starts_with('-') => "negative values not accepted",
            Json::Num(text) if text.contains(['.', 'e', 'E']) => "floats are not accepted",
            Json::Num(_) if value.as_u64().is_none() => "integer out of range",
            Json::Num(_) => continue,
            Json::Null => "null not accepted",
            Json::Arr(_) | Json::Obj(_) => "nested values not accepted",
        };
        return Err(format!("key {key:?}: {offense}"));
    }
    Ok(members)
}

/// Parse one request line. `Err` is a human-readable reason the caller
/// wraps into a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let members = flat_members(line)?;
    let op = members
        .iter()
        .find(|(k, _)| k == "op")
        .ok_or_else(|| "missing \"op\" field".to_owned())?;
    let op = op.1.as_str().ok_or("\"op\" must be a string")?;
    match op {
        "stats" | "ping" | "shutdown" => {
            if members.len() != 1 {
                return Err(format!("op {op:?} takes no other fields"));
            }
            Ok(match op {
                "stats" => Request::Stats,
                "ping" => Request::Ping,
                _ => Request::Shutdown,
            })
        }
        "simulate" => {
            let mut experiment = None;
            let mut seed = 1u64;
            let mut profile = Profile::Quick;
            let mut deadline_ms = None;
            let mut priority = DEFAULT_PRIORITY;
            let mut overrides = Vec::new();
            for (key, value) in &members {
                match (key.as_str(), value.as_str(), value.as_u64()) {
                    ("op", ..) => {}
                    ("experiment", Some(s), _) => experiment = Some(s.to_owned()),
                    ("experiment", ..) => return Err("\"experiment\" must be a string".into()),
                    ("seed", _, Some(n)) => seed = n,
                    ("seed", ..) => return Err("\"seed\" must be an unsigned integer".into()),
                    ("profile", Some(s), _) => {
                        profile = match s {
                            "quick" => Profile::Quick,
                            "full" => Profile::Full,
                            other => return Err(format!("bad profile {other:?} (quick|full)")),
                        }
                    }
                    ("profile", ..) => return Err("\"profile\" must be a string".into()),
                    ("deadline_ms", _, Some(n)) => {
                        if n == 0 {
                            return Err("\"deadline_ms\" must be positive".into());
                        }
                        deadline_ms = Some(n);
                    }
                    ("deadline_ms", ..) => {
                        return Err("\"deadline_ms\" must be an unsigned integer".into())
                    }
                    ("priority", _, Some(n)) => {
                        if n > MAX_PRIORITY {
                            return Err(format!("\"priority\" must be 0..={MAX_PRIORITY}"));
                        }
                        priority = n as u8;
                    }
                    ("priority", ..) => {
                        return Err("\"priority\" must be an unsigned integer".into())
                    }
                    (other, _, Some(n)) => {
                        validate_override(other, n)?;
                        overrides.push((other.to_owned(), n));
                    }
                    (other, ..) => {
                        return Err(format!(
                            "key {other:?} is neither a request field nor an \
                             integer config override"
                        ))
                    }
                }
            }
            let experiment =
                experiment.ok_or_else(|| "simulate requires \"experiment\"".to_owned())?;
            Ok(Request::Simulate(SimulateReq {
                experiment,
                seed,
                profile,
                deadline_ms,
                priority,
                overrides,
            }))
        }
        other => Err(format!("unknown op {other:?}")),
    }
}

/// The wire name of a profile.
pub fn profile_name(p: Profile) -> &'static str {
    match p {
        Profile::Quick => "quick",
        Profile::Full => "full",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_full_simulate_surface() {
        let req = parse_request(
            r#"{"op":"simulate","experiment":"fig8","seed":42,"profile":"full",
               "deadline_ms":30000,"priority":7,"sim_secs":60}"#
                .replace('\n', " ")
                .as_str(),
        )
        .unwrap();
        assert_eq!(
            req,
            Request::Simulate(SimulateReq {
                experiment: "fig8".into(),
                seed: 42,
                profile: Profile::Full,
                deadline_ms: Some(30_000),
                priority: 7,
                overrides: vec![("sim_secs".into(), 60)],
            })
        );
        // Seeds are exact to u64::MAX; `\b` and `\f` are escapes.
        let line = r#"{"op":"simulate","experiment":"x\b\fy","seed":18446744073709551615}"#;
        let Ok(Request::Simulate(s)) = parse_request(line) else {
            panic!("{line}")
        };
        assert_eq!((s.experiment.as_str(), s.seed), ("x\u{8}\u{c}y", u64::MAX));
    }

    #[test]
    fn defaults_are_applied() {
        let req = parse_request(r#"{"op":"simulate","experiment":"fig2"}"#).unwrap();
        match req {
            Request::Simulate(s) => {
                assert_eq!(s.seed, 1);
                assert_eq!(s.profile, Profile::Quick);
                assert_eq!(s.deadline_ms, None);
                assert_eq!(s.priority, DEFAULT_PRIORITY);
                assert!(s.overrides.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn control_ops_parse() {
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap(), Request::Stats);
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap(), Request::Ping);
        assert_eq!(
            parse_request(r#" { "op" : "shutdown" } "#).unwrap(),
            Request::Shutdown
        );
        assert!(parse_request(r#"{"op":"stats","extra":1}"#).is_err());
    }

    #[test]
    fn structured_rejections() {
        for (line, needle) in [
            ("", "JSON object"),
            ("[1,2]", "JSON object"),
            (r#"{"op":"simulate"}"#, "requires \"experiment\""),
            (r#"{"op":"nope"}"#, "unknown op"),
            (r#"{"experiment":"fig8"}"#, "missing \"op\""),
            (
                r#"{"op":"simulate","experiment":"fig8","seed":-1}"#,
                "negative",
            ),
            (
                r#"{"op":"simulate","experiment":"fig8","seed":1.5}"#,
                "float",
            ),
            (
                r#"{"op":"simulate","experiment":"fig8","priority":10}"#,
                "priority",
            ),
            (
                r#"{"op":"simulate","experiment":"fig8","shards":2}"#,
                "unknown override key",
            ),
            (
                r#"{"op":"simulate","experiment":"fig8","sim_secs":0}"#,
                "sim_secs",
            ),
            (
                r#"{"op":"simulate","experiment":"fig8","nested":{"a":1}}"#,
                "nested",
            ),
            (r#"{"op":"ping"} extra"#, "trailing garbage"),
            (r#"{"op":"ping","op":"ping"}"#, "duplicate key"),
            (
                r#"{"op":"ping","n":18446744073709551616}"#,
                "integer out of range",
            ),
            (r#"{"op":"ping","n":null}"#, "null not accepted"),
            // Strict RFC 8259: no leading zero, no raw control byte in a
            // string, no form feed as whitespace.
            (r#"{"op":"ping","n":007}"#, "leading zero"),
            ("{\"op\":\"pi\tng\"}", "control byte in string"),
            ("{\u{c}\"op\":\"ping\"}", "expected '\"' at byte 1"),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn escape_roundtrips_through_parse() {
        let nasty = "a\"b\\c\nd\te\u{1}f";
        let line = format!(
            r#"{{"op":"simulate","experiment":"{}"}}"#,
            json::escape(nasty)
        );
        match parse_request(&line).unwrap() {
            Request::Simulate(s) => assert_eq!(s.experiment, nasty),
            other => panic!("{other:?}"),
        }
    }
}
