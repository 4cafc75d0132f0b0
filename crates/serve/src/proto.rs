//! Wire protocol: line-delimited flat JSON requests and responses.
//!
//! One request per line, one response line per request. The request
//! grammar is deliberately a *flat* JSON object — string, unsigned
//! integer, and boolean values only; nesting is rejected — so the
//! parser is a page of obvious code with structured errors instead of a
//! JSON dependency (the workspace is zero-dep by charter). Responses
//! are built with the same hand-rolled `format!` + escape style the
//! experiment runner uses for `timings.json`.
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
//! canonical config hash sorts them.

use td_experiments::registry::{validate_override, Profile};

/// Escape a string for inclusion in a JSON response line.
pub use td_experiments::runner::json_escape;

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

/// A scalar value in a flat JSON object.
#[derive(Clone, Debug, PartialEq)]
enum Value {
    Str(String),
    UInt(u64),
    Bool(bool),
}

/// Parse one flat JSON object line into key/value pairs.
///
/// Accepts exactly: `{ "key" : value , ... }` where value is a string,
/// a non-negative integer, `true`, or `false`. Rejects nesting, null,
/// floats, negatives, and duplicate keys — all with a message naming
/// the offense, because a `bad_request` the client can't act on is a
/// robustness hole of its own.
fn parse_flat_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut chars = line.char_indices().peekable();
    let mut pairs: Vec<(String, Value)> = Vec::new();

    fn skip_ws(chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>) {
        while chars.next_if(|&(_, c)| c.is_ascii_whitespace()).is_some() {}
    }

    fn parse_string(
        chars: &mut std::iter::Peekable<std::str::CharIndices<'_>>,
    ) -> Result<String, String> {
        match chars.next() {
            Some((_, '"')) => {}
            Some((i, c)) => return Err(format!("expected '\"' at byte {i}, found {c:?}")),
            None => return Err("unterminated input, expected string".into()),
        }
        let mut s = String::new();
        loop {
            match chars.next() {
                Some((_, '"')) => return Ok(s),
                Some((i, '\\')) => match chars.next() {
                    Some((_, '"')) => s.push('"'),
                    Some((_, '\\')) => s.push('\\'),
                    Some((_, '/')) => s.push('/'),
                    Some((_, 'n')) => s.push('\n'),
                    Some((_, 't')) => s.push('\t'),
                    Some((_, 'r')) => s.push('\r'),
                    Some((_, 'u')) => {
                        let mut code = String::new();
                        for _ in 0..4 {
                            match chars.next() {
                                Some((_, c)) if c.is_ascii_hexdigit() => code.push(c),
                                _ => return Err(format!("bad \\u escape at byte {i}")),
                            }
                        }
                        let n = u32::from_str_radix(&code, 16).expect("hex checked");
                        match char::from_u32(n) {
                            Some(c) => s.push(c),
                            None => return Err(format!("bad \\u escape at byte {i}")),
                        }
                    }
                    other => {
                        return Err(format!(
                            "unsupported escape at byte {i}: {:?}",
                            other.map(|(_, c)| c)
                        ))
                    }
                },
                Some((_, c)) => s.push(c),
                None => return Err("unterminated string".into()),
            }
        }
    }

    skip_ws(&mut chars);
    match chars.next() {
        Some((_, '{')) => {}
        other => {
            return Err(format!(
                "request must be a JSON object, found {:?}",
                other.map(|(_, c)| c)
            ))
        }
    }
    skip_ws(&mut chars);
    if chars.next_if(|&(_, c)| c == '}').is_some() {
        skip_ws(&mut chars);
        if let Some((i, c)) = chars.next() {
            return Err(format!("trailing garbage at byte {i}: {c:?}"));
        }
        return Ok(pairs);
    }
    loop {
        skip_ws(&mut chars);
        let key = parse_string(&mut chars)?;
        if pairs.iter().any(|(k, _)| *k == key) {
            return Err(format!("duplicate key {key:?}"));
        }
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ':')) => {}
            other => {
                return Err(format!(
                    "expected ':' after key {key:?}, found {:?}",
                    other.map(|(_, c)| c)
                ))
            }
        }
        skip_ws(&mut chars);
        let value = match chars.peek().copied() {
            Some((_, '"')) => Value::Str(parse_string(&mut chars)?),
            Some((_, c)) if c.is_ascii_digit() => {
                let mut digits = String::new();
                while let Some((_, d)) = chars.next_if(|&(_, c)| c.is_ascii_digit()) {
                    digits.push(d);
                }
                if chars
                    .peek()
                    .is_some_and(|&(_, c)| c == '.' || c == 'e' || c == 'E')
                {
                    return Err(format!("key {key:?}: floats are not accepted"));
                }
                Value::UInt(
                    digits
                        .parse()
                        .map_err(|_| format!("key {key:?}: integer out of range"))?,
                )
            }
            Some((_, 't')) | Some((_, 'f')) => {
                let mut word = String::new();
                while let Some((_, c)) = chars.next_if(|&(_, c)| c.is_ascii_alphabetic()) {
                    word.push(c);
                }
                match word.as_str() {
                    "true" => Value::Bool(true),
                    "false" => Value::Bool(false),
                    other => return Err(format!("key {key:?}: bad literal {other:?}")),
                }
            }
            Some((_, '-')) => return Err(format!("key {key:?}: negative values not accepted")),
            Some((_, '{')) | Some((_, '[')) => {
                return Err(format!("key {key:?}: nested values not accepted"))
            }
            other => {
                return Err(format!(
                    "key {key:?}: expected a value, found {:?}",
                    other.map(|(_, c)| c)
                ))
            }
        };
        pairs.push((key, value));
        skip_ws(&mut chars);
        match chars.next() {
            Some((_, ',')) => continue,
            Some((_, '}')) => break,
            other => {
                return Err(format!(
                    "expected ',' or '}}', found {:?}",
                    other.map(|(_, c)| c)
                ))
            }
        }
    }
    skip_ws(&mut chars);
    if let Some((i, c)) = chars.next() {
        return Err(format!("trailing garbage at byte {i}: {c:?}"));
    }
    Ok(pairs)
}

/// Parse one request line. `Err` is a human-readable reason the caller
/// wraps into a `bad_request` response.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let pairs = parse_flat_object(line)?;
    let op = pairs
        .iter()
        .find(|(k, _)| k == "op")
        .ok_or_else(|| "missing \"op\" field".to_owned())?;
    let op = match &op.1 {
        Value::Str(s) => s.as_str(),
        _ => return Err("\"op\" must be a string".into()),
    };
    match op {
        "stats" | "ping" | "shutdown" => {
            if pairs.len() != 1 {
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
            for (key, value) in &pairs {
                match (key.as_str(), value) {
                    ("op", _) => {}
                    ("experiment", Value::Str(s)) => experiment = Some(s.clone()),
                    ("experiment", _) => return Err("\"experiment\" must be a string".into()),
                    ("seed", Value::UInt(n)) => seed = *n,
                    ("seed", _) => return Err("\"seed\" must be an unsigned integer".into()),
                    ("profile", Value::Str(s)) => {
                        profile = match s.as_str() {
                            "quick" => Profile::Quick,
                            "full" => Profile::Full,
                            other => return Err(format!("bad profile {other:?} (quick|full)")),
                        }
                    }
                    ("profile", _) => return Err("\"profile\" must be a string".into()),
                    ("deadline_ms", Value::UInt(n)) => {
                        if *n == 0 {
                            return Err("\"deadline_ms\" must be positive".into());
                        }
                        deadline_ms = Some(*n);
                    }
                    ("deadline_ms", _) => {
                        return Err("\"deadline_ms\" must be an unsigned integer".into())
                    }
                    ("priority", Value::UInt(n)) => {
                        if *n > MAX_PRIORITY {
                            return Err(format!("\"priority\" must be 0..={MAX_PRIORITY}"));
                        }
                        priority = *n as u8;
                    }
                    ("priority", _) => {
                        return Err("\"priority\" must be an unsigned integer".into())
                    }
                    (other, Value::UInt(n)) => {
                        validate_override(other, *n)?;
                        overrides.push((other.to_owned(), *n));
                    }
                    (other, _) => {
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
            json_escape(nasty)
        );
        match parse_request(&line).unwrap() {
            Request::Simulate(s) => assert_eq!(s.experiment, nasty),
            other => panic!("{other:?}"),
        }
    }
}
