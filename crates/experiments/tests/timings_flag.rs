//! `td-repro --timings FILE` without `--out`: the observability report
//! lands at FILE as well-formed JSON describing the sweep that ran, and
//! nothing else is written — no `SUMMARY.md`, no CSVs, no `cells/`.
//!
//! The workspace has no JSON dependency, so the report is read with the
//! small recursive-descent parser below (RFC 8259 values, no extensions).

use std::process::Command;

const EXE: &str = env!("CARGO_BIN_EXE_td-repro");

#[derive(Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

/// Parse one JSON document; `Err` names the byte offset it choked at.
fn parse(text: &str) -> Result<Json, String> {
    let b = text.as_bytes();
    let mut i = 0;
    let v = value(b, &mut i)?;
    skip_ws(b, &mut i);
    if i != b.len() {
        return Err(format!("trailing bytes at {i}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], i: &mut usize) {
    while *i < b.len() && b" \t\r\n".contains(&b[*i]) {
        *i += 1;
    }
}

fn expect(b: &[u8], i: &mut usize, lit: &str) -> Result<(), String> {
    if b[*i..].starts_with(lit.as_bytes()) {
        *i += lit.len();
        Ok(())
    } else {
        Err(format!("expected {lit:?} at {i}"))
    }
}

fn value(b: &[u8], i: &mut usize) -> Result<Json, String> {
    skip_ws(b, i);
    match b.get(*i) {
        Some(b'n') => expect(b, i, "null").map(|_| Json::Null),
        Some(b't') => expect(b, i, "true").map(|_| Json::Bool(true)),
        Some(b'f') => expect(b, i, "false").map(|_| Json::Bool(false)),
        Some(b'"') => string(b, i).map(Json::Str),
        Some(b'[') => {
            *i += 1;
            let mut items = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b']') {
                *i += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(value(b, i)?);
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b']') => {
                        *i += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at {i}")),
                }
            }
        }
        Some(b'{') => {
            *i += 1;
            let mut fields = Vec::new();
            skip_ws(b, i);
            if b.get(*i) == Some(&b'}') {
                *i += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(b, i);
                let k = string(b, i)?;
                skip_ws(b, i);
                expect(b, i, ":")?;
                fields.push((k, value(b, i)?));
                skip_ws(b, i);
                match b.get(*i) {
                    Some(b',') => *i += 1,
                    Some(b'}') => {
                        *i += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at {i}")),
                }
            }
        }
        Some(c) if *c == b'-' || c.is_ascii_digit() => {
            let start = *i;
            while *i < b.len() && b"+-.eE0123456789".contains(&b[*i]) {
                *i += 1;
            }
            let s = std::str::from_utf8(&b[start..*i]).unwrap();
            s.parse()
                .map(Json::Num)
                .map_err(|_| format!("bad number {s:?} at {start}"))
        }
        _ => Err(format!("unexpected byte at {i}")),
    }
}

fn string(b: &[u8], i: &mut usize) -> Result<String, String> {
    expect(b, i, "\"")?;
    let mut out = Vec::new();
    while let Some(&c) = b.get(*i) {
        *i += 1;
        match c {
            b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
            b'\\' => {
                let esc = *b.get(*i).ok_or("unterminated escape")?;
                *i += 1;
                match esc {
                    b'"' | b'\\' | b'/' => out.push(esc),
                    b'b' => out.push(8),
                    b'f' => out.push(12),
                    b'n' => out.push(b'\n'),
                    b'r' => out.push(b'\r'),
                    b't' => out.push(b'\t'),
                    b'u' => {
                        let hex = b.get(*i..*i + 4).ok_or("short \\u escape")?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).unwrap(), 16)
                            .map_err(|_| format!("bad \\u escape at {i}"))?;
                        *i += 4;
                        let ch = char::from_u32(code).unwrap_or('\u{FFFD}');
                        out.extend_from_slice(ch.to_string().as_bytes());
                    }
                    _ => return Err(format!("bad escape at {i}")),
                }
            }
            c if c < 0x20 => return Err(format!("control byte in string at {i}")),
            c => out.push(c),
        }
    }
    Err("unterminated string".into())
}

#[test]
fn parser_accepts_json_and_rejects_near_misses() {
    let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"é"}} "#).unwrap();
    assert_eq!(
        v.get("a"),
        Some(&Json::Arr(vec![
            Json::Num(1.0),
            Json::Num(-2500.0),
            Json::Bool(true),
            Json::Null,
        ]))
    );
    assert_eq!(
        v.get("b").and_then(|b| b.get("c")),
        Some(&Json::Str("x\"é".into()))
    );
    for bad in [
        "{",
        "[1,]",
        "{\"a\" 1}",
        "{\"a\":1}}",
        "nul",
        "\"a",
        "{'a':1}",
    ] {
        assert!(parse(bad).is_err(), "{bad:?} parsed");
    }
}

#[test]
fn timings_file_without_out_is_json_and_writes_nothing_else() {
    let dir = std::env::temp_dir().join(format!("td-timings-flag-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(EXE)
        .args(["fig8", "--seed", "7", "--jobs", "1", "--timings", "T"])
        .current_dir(&dir)
        .output()
        .expect("spawn td-repro");
    assert!(
        out.status.success(),
        "td-repro failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let text = std::fs::read_to_string(dir.join("T")).expect("--timings wrote no file");
    let report = parse(&text).unwrap_or_else(|e| panic!("T is not JSON ({e}):\n{text}"));
    assert_eq!(report.get("master_seed"), Some(&Json::Num(7.0)));
    let Some(Json::Arr(rows)) = report.get("experiments") else {
        panic!("no experiments array:\n{text}");
    };
    assert_eq!(rows.len(), 1, "{text}");
    assert_eq!(rows[0].get("id"), Some(&Json::Str("fig8".into())));

    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    written.sort();
    assert_eq!(
        written,
        ["T"],
        "without --out only the timings file is written"
    );

    let _ = std::fs::remove_dir_all(&dir);
}
