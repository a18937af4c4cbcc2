//! A minimal, std-only JSON codec: one recursive-descent parser and one
//! deterministic byte writer, with the [`Json`] tree built on both.
//!
//! The wire protocol needs exactly this much JSON and no more: objects
//! (written with sorted keys so frames are byte-deterministic), arrays,
//! strings with the standard escapes, finite numbers, booleans and null.
//! The parser is written for hostile input — it never panics, it bounds
//! recursion depth, and anything malformed comes back as a structured
//! [`JsonError`] naming the byte offset, which the server turns into a
//! structured protocol error instead of a dead connection.
//!
//! The hot request never builds a tree: [`crate::protocol::Request::parse`]
//! drives the `Parser`'s primitives straight into typed fields, and the
//! hot responses go through `ObjWriter` into the connection's frame
//! buffer. [`Json::parse`] and [`Json::render`] are the same parser and
//! the same writer with a tree on the other end, so there is one grammar,
//! one escaper and one number format.
//!
//! Floating-point payload fields (cycles, areas) are *not* carried as
//! JSON numbers: the protocol transports them as 16-hex-digit IEEE-754
//! bit-pattern strings (see [`crate::protocol::bits_str`]) so every
//! round trip is bit-exact. JSON numbers here are only used for small
//! integers (parameter values, counts, ports), all well under 2^53.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// Maximum nesting depth the parser accepts; deeper input is rejected
/// rather than risking stack exhaustion on `[[[[...`-style frames.
pub(crate) const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` so rendering is key-sorted and deterministic.
    Obj(BTreeMap<String, Json>),
}

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Human-readable description of the malformation.
    pub message: String,
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl Json {
    /// Parse a complete JSON document; trailing non-whitespace is an
    /// error (a frame carries exactly one value).
    pub fn parse(input: &[u8]) -> Result<Json, JsonError> {
        let mut p = Parser::new(input);
        let v = p.value(0, true)?;
        p.finish()?;
        Ok(v)
    }

    /// Render to a compact string (no whitespace, object keys sorted).
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.render_into(&mut out);
        String::from_utf8(out).expect("the writer emits ASCII syntax around `str` contents")
    }

    /// Append the compact rendering to `out`.
    pub(crate) fn render_into(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => write_bool(out, *b),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    item.render_into(out);
                }
                out.push(b']');
            }
            Json::Obj(map) => {
                let mut obj = ObjWriter::begin(out);
                for (k, v) in map {
                    v.render_into(obj.key(k));
                }
                obj.end();
            }
        }
    }

    /// Build an object from `(key, value)` pairs.
    pub fn obj<I: IntoIterator<Item = (&'static str, Json)>>(pairs: I) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member `key` of an object, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as a non-negative integer, if this is a
    /// number holding one exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if n.fract() == 0.0 && (0.0..9.0e15).contains(n) => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean payload, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(map) => Some(map),
            _ => None,
        }
    }
}

/// Append `true` / `false`.
pub(crate) fn write_bool(out: &mut Vec<u8>, b: bool) {
    out.extend_from_slice(if b { b"true" } else { b"false" });
}

/// Append a number: integers (the only numbers the protocol sends)
/// without a fractional part, non-finite values as `null`.
pub(crate) fn write_num(out: &mut Vec<u8>, n: f64) {
    use std::io::Write as _;
    // Writing into a `Vec` cannot fail.
    let _ = if !n.is_finite() {
        out.write_all(b"null")
    } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
        write!(out, "{}", n as i64)
    } else {
        write!(out, "{n}")
    };
}

/// Append `s` as a string literal, quotes and escapes included.
pub(crate) fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    // Bytes that need no escape are copied in runs; every byte of a
    // multi-byte UTF-8 sequence is >= 0x80 and is one of them.
    let bytes = s.as_bytes();
    let mut run = 0;
    let mut control = *b"\\u0000";
    for (i, &b) in bytes.iter().enumerate() {
        let escape: &[u8] = match b {
            b'"' => b"\\\"",
            b'\\' => b"\\\\",
            b'\n' => b"\\n",
            b'\r' => b"\\r",
            b'\t' => b"\\t",
            0x00..=0x1F => {
                control[4] = HEX[usize::from(b >> 4)];
                control[5] = HEX[usize::from(b & 0xF)];
                &control
            }
            _ => continue,
        };
        out.extend_from_slice(&bytes[run..i]);
        out.extend_from_slice(escape);
        run = i + 1;
    }
    out.extend_from_slice(&bytes[run..]);
    out.push(b'"');
}

/// Writes one object's members into a byte buffer. Keys must arrive in
/// ascending byte order — the order a `BTreeMap<String, _>` iterates in —
/// so that what is written directly equals what the tree renders.
pub(crate) struct ObjWriter<'a> {
    out: &'a mut Vec<u8>,
    last: Option<&'a str>,
}

impl<'a> ObjWriter<'a> {
    /// Open an object at the end of `out`.
    pub(crate) fn begin(out: &'a mut Vec<u8>) -> Self {
        out.push(b'{');
        ObjWriter { out, last: None }
    }

    /// Write `"key":` and hand back the buffer for the value.
    pub(crate) fn key(&mut self, key: &'a str) -> &mut Vec<u8> {
        debug_assert!(
            // `None` orders before every `Some`.
            self.last < Some(key),
            "object keys must ascend: `{key}` after `{:?}`",
            self.last
        );
        if self.last.is_some() {
            self.out.push(b',');
        }
        self.last = Some(key);
        write_str(self.out, key);
        self.out.push(b':');
        self.out
    }

    /// Close the object.
    pub(crate) fn end(self) {
        self.out.push(b'}');
    }
}

/// The recursive-descent parser. [`Json::parse`] builds a tree with it;
/// [`crate::protocol::Request::parse`] calls the same primitives and keeps
/// only the fields it knows.
pub(crate) struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    /// A parser at the first non-whitespace byte of `input`.
    pub(crate) fn new(input: &'a [u8]) -> Self {
        let mut p = Parser { input, pos: 0 };
        p.skip_ws();
        p
    }

    /// The document ends here: anything but trailing whitespace is an
    /// error.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.input.len() {
            return Err(self.err("trailing data after JSON value"));
        }
        Ok(())
    }

    fn err(&self, message: &str) -> JsonError {
        JsonError {
            message: message.to_string(),
            offset: self.pos,
        }
    }

    pub(crate) fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, JsonError> {
        if self.input[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.err(&format!("invalid literal (expected `{lit}`)")))
        }
    }

    /// Parse the value at the cursor, `depth` containers down. With
    /// `keep` false the value is checked exactly as thoroughly but not
    /// materialized: strings come back as `Null` and containers empty,
    /// so skipping a value allocates nothing. Numbers and booleans are
    /// returned either way.
    pub(crate) fn value(&mut self, depth: usize, keep: bool) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => {
                let mut map = BTreeMap::new();
                self.members(|p, key| {
                    let value = p.value(depth + 1, keep)?;
                    if keep {
                        map.insert(key.into_owned(), value);
                    }
                    Ok(())
                })?;
                Ok(Json::Obj(map))
            }
            Some(b'[') => self.array(depth, keep),
            Some(b'"') => {
                let s = self.string()?;
                Ok(if keep {
                    Json::Str(s.into_owned())
                } else {
                    Json::Null
                })
            }
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => Ok(Json::Num(self.number()?)),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Walk the object at the cursor. For each member, `member` gets the
    /// parser standing on the member's value, and the key; it must
    /// consume exactly that value. Members arrive in document order, a
    /// repeated key once per occurrence.
    pub(crate) fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            member(self, key)?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(()),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `}` in object"));
                }
            }
        }
    }

    fn array(&mut self, depth: usize, keep: bool) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            let item = self.value(depth + 1, keep)?;
            if keep {
                items.push(item);
            }
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(Json::Arr(items)),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    return Err(self.err("expected `,` or `]` in array"));
                }
            }
        }
    }

    /// Parse the string literal at the cursor. A literal without escapes
    /// — every key and value a well-behaved client sends — is borrowed
    /// from the input.
    pub(crate) fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let input = self.input;
        // Every byte of a run was checked below, one scalar at a time.
        let run = |from: usize, to: usize| {
            std::str::from_utf8(&input[from..to]).expect("run of validated UTF-8")
        };
        let mut unescaped: Option<String> = None;
        let mut run_start = self.pos;
        loop {
            // Most of most strings is plain ASCII: pass it in one scan.
            let rest = &input[self.pos..];
            self.pos += rest
                .iter()
                .position(|b| matches!(b, b'"' | b'\\' | 0x00..=0x1F | 0x80..))
                .unwrap_or(rest.len());
            match self.bump() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    let tail = run(run_start, self.pos - 1);
                    return Ok(match unescaped {
                        None => Cow::Borrowed(tail),
                        Some(mut out) => {
                            out.push_str(tail);
                            Cow::Owned(out)
                        }
                    });
                }
                Some(b'\\') => {
                    let literal = run(run_start, self.pos - 1);
                    let c = match self.bump() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'b') => '\u{8}',
                        Some(b'f') => '\u{c}',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => self.unicode_escape()?,
                        _ => return Err(self.err("invalid escape")),
                    };
                    let out = unescaped.get_or_insert_with(String::new);
                    out.push_str(literal);
                    out.push(c);
                    run_start = self.pos;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(b) => {
                    // Check the multi-byte scalar starting at this byte.
                    let start = self.pos - 1;
                    let len = utf8_len(b).ok_or_else(|| self.err("invalid UTF-8"))?;
                    let end = start + len;
                    let slice = self
                        .input
                        .get(start..end)
                        .ok_or_else(|| self.err("truncated UTF-8 sequence"))?;
                    std::str::from_utf8(slice).map_err(|_| self.err("invalid UTF-8"))?;
                    self.pos = end;
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, JsonError> {
        let code = self.hex4()?;
        // Surrogate pair handling: a high surrogate must be followed by
        // an escaped low surrogate; anything else is replaced rather than
        // crashing the parse (hostile input is the common case here).
        if (0xD800..0xDC00).contains(&code) {
            if self.input[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if (0xDC00..0xE000).contains(&low) {
                    let c = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                    return Ok(char::from_u32(c).unwrap_or('\u{FFFD}'));
                }
            }
            return Ok('\u{FFFD}');
        }
        Ok(char::from_u32(code).unwrap_or('\u{FFFD}'))
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut code: u32 = 0;
        for _ in 0..4 {
            let d = match self.bump() {
                Some(b @ b'0'..=b'9') => u32::from(b - b'0'),
                Some(b @ b'a'..=b'f') => u32::from(b - b'a') + 10,
                Some(b @ b'A'..=b'F') => u32::from(b - b'A') + 10,
                _ => return Err(self.err("invalid \\u escape")),
            };
            code = code * 16 + d;
        }
        Ok(code)
    }

    fn number(&mut self) -> Result<f64, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let n: f64 = text.parse().map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            return Err(self.err("non-finite number"));
        }
        Ok(n)
    }
}

fn utf8_len(first: u8) -> Option<usize> {
    match first {
        0x00..=0x7F => Some(1),
        0xC2..=0xDF => Some(2),
        0xE0..=0xEF => Some(3),
        0xF0..=0xF4 => Some(4),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: &Json) {
        let text = v.render();
        let parsed = Json::parse(text.as_bytes()).unwrap_or_else(|e| panic!("{text}: {e}"));
        assert_eq!(&parsed, v, "{text}");
    }

    #[test]
    fn values_round_trip() {
        roundtrip(&Json::Null);
        roundtrip(&Json::Bool(true));
        roundtrip(&Json::Num(0.0));
        roundtrip(&Json::Num(-17.0));
        roundtrip(&Json::Num(3.5));
        roundtrip(&Json::Str("hello \"w\\orld\"\n\t\u{1}".to_string()));
        roundtrip(&Json::Str("unicode: ε 💡".to_string()));
        roundtrip(&Json::Arr(vec![Json::Num(1.0), Json::Null]));
        roundtrip(&Json::obj([
            ("b", Json::Num(2.0)),
            ("a", Json::Arr(vec![Json::obj([("x", Json::Bool(false))])])),
        ]));
    }

    #[test]
    fn object_keys_render_sorted() {
        let v = Json::obj([("zeta", Json::Num(1.0)), ("alpha", Json::Num(2.0))]);
        assert_eq!(v.render(), r#"{"alpha":2,"zeta":1}"#);
    }

    /// The writer's escapes and number formats, pinned as bytes: the tree
    /// and the direct response writers share them, so comparing the two
    /// cannot show a change here.
    #[test]
    fn escapes_and_numbers_are_pinned() {
        let text = |v: Json| v.render();
        assert_eq!(
            text(Json::Str(
                "a\"b\\c/\n\r\t\u{0}\u{8}\u{c}\u{1f}\u{7f}\u{e9}\u{1F4A1}".into()
            )),
            "\"a\\\"b\\\\c/\\n\\r\\t\\u0000\\u0008\\u000c\\u001f\u{7f}\u{e9}\u{1F4A1}\""
        );
        for (n, want) in [
            (0.0, "0"),
            (-0.0, "0"),
            (7.0, "7"),
            (-17.0, "-17"),
            (3.5, "3.5"),
            (8_999_999_999_999_999.0, "8999999999999999"),
            (9.0e15, "9000000000000000"),
            (u64::MAX as f64, "18446744073709552000"),
            (1e300, &format!("1{}", "0".repeat(300))),
            (f64::NAN, "null"),
            (f64::NEG_INFINITY, "null"),
        ] {
            assert_eq!(text(Json::Num(n)), want, "{n}");
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "object keys must ascend")]
    fn the_writer_refuses_a_repeated_or_descending_key() {
        let mut out = Vec::new();
        let mut obj = ObjWriter::begin(&mut out);
        write_num(obj.key("a"), 1.0);
        write_num(obj.key("b"), 2.0);
        write_num(obj.key("b"), 3.0);
    }

    #[test]
    fn strings_without_escapes_are_borrowed_from_the_input() {
        let mut p = Parser::new(br#""plain \u00e9" "#);
        assert!(matches!(p.string(), Ok(Cow::Owned(s)) if s == "plain \u{e9}"));
        let mut p = Parser::new("\"plain \u{e9}\"".as_bytes());
        assert!(matches!(p.string(), Ok(Cow::Borrowed("plain \u{e9}"))));
    }

    #[test]
    fn skipping_checks_what_parsing_checks() {
        for doc in [
            &br#"{"a":[1,{"b":"c\n"}],"a":null}"#[..],
            br#"{"a":[1,{"b":"c\q"}]}"#,
            br#"{"a":[1,{"b":1e999}]}"#,
            br#"[[[[1 2]]]]"#,
            b"\"\xc3\"",
        ] {
            let kept = Parser::new(doc).value(0, true).map(|_| ());
            let skipped = Parser::new(doc).value(0, false).map(|_| ());
            assert_eq!(kept, skipped, "{}", String::from_utf8_lossy(doc));
        }
    }

    #[test]
    fn malformed_inputs_error_and_never_panic() {
        for bad in [
            &b""[..],
            b"{",
            b"}",
            b"[1,",
            b"[1 2]",
            b"{\"a\":}",
            b"{\"a\" 1}",
            b"{1:2}",
            b"\"unterminated",
            b"\"bad \\q escape\"",
            b"\"\\u12\"",
            b"truer",
            b"nul",
            b"1.2.3",
            b"-",
            b"1e999",
            b"[1] trailing",
            b"\xff\xfe",
            b"\"\xc3\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{:?} should fail", bad);
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = vec![b'['; 10_000];
        assert!(Json::parse(&deep).is_err());
    }

    #[test]
    fn surrogate_pairs_and_lone_surrogates() {
        assert_eq!(
            Json::parse(br#""\ud83d\udca1""#).unwrap(),
            Json::Str("💡".to_string())
        );
        assert_eq!(
            Json::parse(br#""\ud83d""#).unwrap(),
            Json::Str("\u{FFFD}".to_string())
        );
    }

    #[test]
    fn accessors() {
        let v = Json::obj([
            ("n", Json::Num(42.0)),
            ("s", Json::Str("x".into())),
            ("b", Json::Bool(true)),
            ("a", Json::Arr(vec![])),
        ]);
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(0)
        );
        assert!(v.get("missing").is_none());
        assert_eq!(Json::Num(1.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }
}
