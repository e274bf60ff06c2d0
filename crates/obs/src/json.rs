//! The workspace's one JSON reader and string escaper — no external deps.
//!
//! Every emitter lays out its own JSON (fixtures lock each layout) but
//! writes every string through [`write_str`] or [`quote`]. The result
//! cache, the journal, the daemon protocol and the event-log checker read
//! JSON back with [`Json::parse`], which covers exactly the subset the
//! writers emit: `null`, booleans, unsigned integers, strings, arrays, and
//! objects. Floats never appear in cached results (every cached quantity
//! is an exact counter), which is what makes byte-identical warm-cache
//! reports possible — so the parser rejects them, and a rejected cache
//! entry is simply treated as a miss.

use std::fmt;
use std::fmt::Write as _;

/// A parsed JSON value (unsigned-integer numbers only).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer (the only number form cached results use).
    Num(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

/// A parse failure, with the byte offset it occurred at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub what: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.at, self.what)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] on malformed input or on constructs the
    /// cache never writes (floats, negative numbers, exponents).
    pub fn parse(s: &str) -> Result<Json, JsonError> {
        let b = s.as_bytes();
        let mut p = Parser { s, b, i: 0 };
        p.ws();
        let v = p.value()?;
        p.ws();
        if p.i != b.len() {
            return Err(p.err("trailing data"));
        }
        Ok(v)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Object field lookup by value: moves the field out instead of
    /// cloning it.
    pub fn into_field(self, key: &str) -> Option<Json> {
        match self {
            Json::Obj(fields) => fields.into_iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is a number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as `Option<u64>`: `null` maps to `Some(None)`, a number
    /// to `Some(Some(n))`, anything else to `None`.
    pub fn as_opt_u64(&self) -> Option<Option<u64>> {
        match self {
            Json::Null => Some(None),
            Json::Num(n) => Some(Some(*n)),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a str,
    b: &'a [u8],
    i: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, what: &'static str) -> JsonError {
        JsonError { at: self.i, what }
    }

    fn ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\n' | b'\r') {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(self.err("unexpected character"))
        }
    }

    fn lit(&mut self, word: &str, v: Json) -> Result<Json, JsonError> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(self.err("bad literal"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => self.lit("null", Json::Null),
            b't' => self.lit("true", Json::Bool(true)),
            b'f' => self.lit("false", Json::Bool(false)),
            b'"' => Ok(Json::Str(self.string()?)),
            b'[' => self.array(),
            b'{' => self.object(),
            b'0'..=b'9' => self.number(),
            b'-' | b'.' => Err(self.err("cached results contain only unsigned integers")),
            _ => Err(self.err("unexpected character")),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("cached results contain only unsigned integers"));
        }
        let s = std::str::from_utf8(&self.b[start..self.i]).expect("digits are ascii");
        s.parse::<u64>().map(Json::Num).map_err(|_| self.err("integer overflow"))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.i += 1;
                    match self.peek().ok_or_else(|| self.err("unterminated escape"))? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            if self.i + 4 >= self.b.len() {
                                return Err(self.err("short unicode escape"));
                            }
                            let hex = std::str::from_utf8(&self.b[self.i + 1..self.i + 5])
                                .map_err(|_| self.err("bad unicode escape"))?;
                            let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("bad unicode escape"))?;
                            // Cached strings only escape control chars, so
                            // surrogate pairs never appear.
                            out.push(char::from_u32(code).ok_or_else(|| self.err("bad unicode escape"))?);
                            self.i += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.i += 1;
                }
                _ => {
                    // Copy the run up to the next `"` or `\` in one step.
                    // Both are ASCII, so the run ends on a char boundary
                    // of the (already valid UTF-8) input.
                    let run = self.b[self.i..].iter().position(|&c| c == b'"' || c == b'\\');
                    let end = run.map_or(self.b.len(), |n| self.i + n);
                    out.push_str(&self.s[self.i..end]);
                    self.i = end;
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected , or ]")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut fields = Vec::new();
        self.ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            let val = self.value()?;
            fields.push((key, val));
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected , or }")),
            }
        }
    }
}

/// Appends `s` to `out` as a JSON string literal (quotes included):
/// `"`, `\`, newline, carriage return and tab get their short escapes,
/// any other control character becomes `\u00XX`.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `s` as a JSON string literal; see [`write_str`].
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_str(&mut out, s);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_cache_subset() {
        let v = Json::parse(r#"{"a": 7, "b": [1, 2], "c": null, "d": "x\ny", "e": true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(7));
        assert_eq!(v.get("b").unwrap().as_arr().unwrap().len(), 2);
        assert_eq!(v.get("c").unwrap().as_opt_u64(), Some(None));
        assert_eq!(v.get("d").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("e").unwrap().as_bool(), Some(true));
    }

    #[test]
    fn rejects_floats_and_negatives() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("-3").is_err());
        assert!(Json::parse("1e9").is_err());
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(Json::parse("{} x").is_err());
        assert!(Json::parse("[1,]").is_err());
    }

    #[test]
    fn u64_range_roundtrips() {
        let max = u64::MAX.to_string();
        assert_eq!(Json::parse(&max).unwrap().as_u64(), Some(u64::MAX));
    }

    #[test]
    fn write_str_escapes() {
        let raw = "a\"b\\c\n\r\t\u{1}";
        let s = quote(raw);
        assert_eq!(s, "\"a\\\"b\\\\c\\n\\r\\t\\u0001\"");
        // And parses back.
        assert_eq!(Json::parse(&s).unwrap().as_str(), Some(raw));
    }

    /// A string past 256 KiB of multi-byte scalars, every character
    /// `quote` escapes and raw control characters parses back exactly
    /// (and in linear time: each run between escapes is copied at once).
    #[test]
    fn long_strings_roundtrip() {
        let piece = "aé€𝄞\"\\\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}/ ";
        let raw = piece.repeat(256 * 1024 / piece.len() + 1);
        assert!(raw.len() > 256 * 1024);
        assert_eq!(Json::parse(&quote(&raw)).unwrap().as_str(), Some(raw.as_str()));
        // Inside an object, next to other values.
        let doc = format!("{{\"s\":{},\"n\":7}}", quote(&raw));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("s").unwrap().as_str(), Some(raw.as_str()));
        assert_eq!(v.get("n").unwrap().as_u64(), Some(7));
    }

    /// The escapes `quote` never writes, and raw control characters the
    /// writers never leave unescaped, still decode.
    #[test]
    fn every_escape_and_raw_control_characters_decode() {
        let v = Json::parse(r#""\"\\\/\b\f\n\r\t\u00e9\u20ac""#).unwrap();
        assert_eq!(v.as_str(), Some("\"\\/\u{8}\u{c}\n\r\t\u{e9}€"));
        assert_eq!(Json::parse("\"a\u{1}\tb\u{7f}é\"").unwrap().as_str(), Some("a\u{1}\tb\u{7f}é"));
    }

    #[test]
    fn string_errors_keep_their_offsets() {
        assert_eq!(Json::parse("\"abc"), Err(JsonError { at: 4, what: "unterminated string" }));
        assert_eq!(Json::parse("\"é€"), Err(JsonError { at: 6, what: "unterminated string" }));
        assert_eq!(Json::parse("\"ab\\"), Err(JsonError { at: 4, what: "unterminated escape" }));
        assert_eq!(Json::parse("\"ab\\q\""), Err(JsonError { at: 4, what: "bad escape" }));
        assert_eq!(Json::parse("\"\\u12\""), Err(JsonError { at: 2, what: "short unicode escape" }));
    }

    #[test]
    fn into_field_moves_the_first_match_out() {
        let v = Json::parse(r#"{"a": [1], "b": "x", "a": 2}"#).unwrap();
        assert_eq!(v.clone().into_field("a"), Some(Json::Arr(vec![Json::Num(1)])));
        assert_eq!(v.into_field("c"), None);
        assert_eq!(Json::Num(3).into_field("a"), None);
    }

    #[test]
    fn nested_structures() {
        let v = Json::parse(r#"[{"k": [[]]}, []]"#).unwrap();
        assert_eq!(v.as_arr().unwrap().len(), 2);
    }
}
