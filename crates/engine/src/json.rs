//! The workspace's JSON: [`escape`] for what it writes, [`parse`] for
//! what it reads back (`timings.json`, `td-serve` requests and replies).
//! The writers stay `format!` layouts at their call sites: `timings.json`
//! is pretty-printed (`"k": v`) and replies are compact (`"k":v`), both
//! pinned byte for byte, so a shared builder would only add a style
//! option.
//!
//! [`parse`] is strict RFC 8259, and its errors name a byte offset:
//!
//! * objects keep their members in document order, duplicates included;
//! * a number keeps its literal text, so [`Json::as_u64`] is exact for
//!   every `u64` (an `f64` loses integers above 2⁵³);
//! * nesting deeper than 64 levels is an error, not a stack overflow: a
//!   64 KiB request line can open 65 536 arrays;
//! * a `\u` escape that is not a Unicode scalar value (a surrogate) is
//!   an error.

/// Deepest nesting [`parse`] accepts. The deepest document the workspace
/// writes, `timings.json`, is 4 deep.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` or `false`
    Bool(bool),
    /// A number, as its literal text (`-2.5e3`).
    Num(String),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object's members in document order, duplicates included.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// A string's text.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// A number written as a non-negative integer that fits a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(text) if text.bytes().all(|b| b.is_ascii_digit()) => text.parse().ok(),
            _ => None,
        }
    }

    /// An array's elements.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Escape a string for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Parse one JSON document: a value with optional whitespace around it.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { s: text, i: 0 };
    let v = p.value(0)?;
    p.ws();
    match p.peek() {
        None => Ok(v),
        Some(_) => Err(p.err("trailing garbage")),
    }
}

struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.as_bytes().get(self.i).copied()
    }

    /// Step over `c` if it is next.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.peek() == Some(c);
        self.i += usize::from(hit);
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.eat(c) {
            return Ok(());
        }
        Err(self.err(&format!("expected {:?}", char::from(c))))
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    /// Step over a run of digits; `false` if there was none.
    fn digits(&mut self) -> bool {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        self.i > start
    }

    fn err(&self, what: &str) -> String {
        match self.s[self.i..].chars().next() {
            Some(c) => format!("{what} at byte {}: {c:?}", self.i),
            None => format!("{what} at byte {}: end of input", self.i),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.i
            )),
            Some(b'{') => self
                .items(b'}', |p| {
                    p.ws();
                    let key = p.string()?;
                    p.ws();
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Obj),
            Some(b'[') => self.items(b']', |p| p.value(depth + 1)).map(Json::Arr),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.word("true", Json::Bool(true)),
            Some(b'f') => self.word("false", Json::Bool(false)),
            Some(b'n') => self.word("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, from its opening
    /// bracket through `close`.
    fn items<T>(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.i += 1;
        let mut items = Vec::new();
        self.ws();
        if self.eat(close) {
            return Ok(items);
        }
        loop {
            items.push(item(self)?);
            self.ws();
            if self.eat(close) {
                return Ok(items);
            }
            self.expect(b',')?;
        }
    }

    fn word(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if !self.s[self.i..].starts_with(word) {
            return Err(self.err("expected a value"));
        }
        self.i += word.len();
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.i;
        self.eat(b'-');
        if self.eat(b'0') {
            if matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("leading zero in number at byte {start}"));
            }
        } else if !self.digits() {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'.') && !self.digits() {
            return Err(self.err("expected a digit"));
        }
        if self.eat(b'e') || self.eat(b'E') {
            let _ = self.eat(b'+') || self.eat(b'-');
            if !self.digits() {
                return Err(self.err("expected a digit"));
            }
        }
        Ok(Json::Num(self.s[start..self.i].to_owned()))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        // Start of the current run of unescaped text.
        let mut run = self.i;
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    out.push_str(&self.s[run..self.i]);
                    self.i += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    out.push_str(&self.s[run..self.i]);
                    let at = self.i;
                    let (c, len) = match self.s.as_bytes().get(at + 1) {
                        Some(&e @ (b'"' | b'\\' | b'/')) => (char::from(e), 2),
                        Some(b'b') => ('\u{8}', 2),
                        Some(b'f') => ('\u{c}', 2),
                        Some(b'n') => ('\n', 2),
                        Some(b'r') => ('\r', 2),
                        Some(b't') => ('\t', 2),
                        Some(b'u') => {
                            let hex = (self.s.get(at + 2..at + 6))
                                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()));
                            let code = hex.and_then(|h| u32::from_str_radix(h, 16).ok());
                            let c = code.and_then(char::from_u32);
                            (c.ok_or(format!("bad \\u escape at byte {at}"))?, 6)
                        }
                        _ => return Err(format!("bad escape at byte {at}")),
                    };
                    out.push(c);
                    self.i += len;
                    run = self.i;
                }
                Some(0..=0x1f) => return Err(self.err("control byte in string")),
                Some(_) => self.i += 1,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_accepts_json_and_rejects_near_misses() {
        let v = parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"é\u00e9"}} "#).unwrap();
        let num = |n: &str| Json::Num(n.into());
        let want = [num("1"), num("-2.5e3"), Json::Bool(true), Json::Null];
        assert_eq!(v.get("a").and_then(Json::as_array), Some(&want[..]));
        let c = v.get("b").and_then(|b| b.get("c"));
        assert_eq!(c.and_then(Json::as_str), Some("x\"éé"));
        // `|`-separated, then two with raw control bytes.
        let near_misses =
            r#"|{|[1,]|{"a" 1}|{"a":1}}|nul|"a|{'a':1}|01|1.|.5|+1|-|1e|"\x"|"\ud800"|"\u+041""#;
        for bad in near_misses.split('|').chain(["\"a\u{1}b\"", "\u{c}1"]) {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn numbers_keep_their_text_and_objects_their_duplicates() {
        let max = parse("18446744073709551615").unwrap();
        assert_eq!(max.as_u64(), Some(u64::MAX));
        for not_u64 in ["18446744073709551616", "-0", "1.0", "1e3", "\"7\""] {
            assert_eq!(parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        let dup = parse(r#"{"a":1,"a":2}"#).unwrap();
        let num = |n: &str| Json::Num(n.into());
        let want = Json::Obj(vec![("a".into(), num("1")), ("a".into(), num("2"))]);
        assert_eq!(dup, want);
        assert_eq!(dup.get("a").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn nesting_is_capped() {
        let deep = |n| "[".repeat(n) + &"]".repeat(n);
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        let err = parse(&deep(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(err, "nesting deeper than 64 levels at byte 64");
        // A request line's worth of openers fails fast, not by overflow.
        let err = parse(&"[".repeat(60_000)).unwrap_err();
        assert!(err.starts_with("nesting deeper"), "{err}");
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("plain"), "plain");
        let escaped = escape("say \"hi\"\\\n\tdone\u{1}");
        assert_eq!(escaped, "say \\\"hi\\\"\\\\\\n\\tdone\\u0001");
        // Every control character, the two escaped ASCII ones, non-ASCII.
        let mut nasty: String = (0u8..0x20).map(char::from).collect();
        nasty.push_str("\"\\é→😀");
        let quoted = format!("\"{}\"", escape(&nasty));
        assert_eq!(parse(&quoted), Ok(Json::Str(nasty)));
    }
}
