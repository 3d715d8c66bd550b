//! A minimal JSON value type, parser, and writer.
//!
//! The build environment has no crates-io mirror, so `serde` is not
//! available; this module supplies the small JSON subset the scenario
//! lab needs — [`ScenarioSpec`](crate::scenario::ScenarioSpec) spec
//! files and [`SweepResult`](crate::scenario::SweepResult) exports.
//! It parses the full JSON grammar (objects, arrays, strings with
//! escapes, numbers, booleans, null) and writes deterministic output:
//! object keys keep insertion order and `f64`s render with Rust's
//! shortest round-trip formatting.

use std::collections::BTreeMap;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object. Insertion order is preserved for stable output.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds an object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64`, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if numeric and integral.
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as usize)
            }
            _ => None,
        }
    }

    /// The value as `u64`, if numeric and integral.
    ///
    /// Values above 2^53 lose precision in transit (JSON numbers are
    /// doubles); seeds that matter should stay below that.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The value as `bool`, if a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as `&str`, if a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a slice, if an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Renders compact JSON (no whitespace).
    pub fn to_string_compact(&self) -> String {
        self.render(None)
    }

    /// Renders pretty-printed JSON with two-space indentation.
    pub fn to_string_pretty(&self) -> String {
        self.render(Some(2))
    }

    fn render(&self, indent: Option<usize>) -> String {
        let mut out = Vec::new();
        self.write(&mut out, indent, 0);
        String::from_utf8(out).expect("the writer emits whole UTF-8 scalars")
    }

    fn write(&self, out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::Num(n) => {
                if !write_num(out, *n) {
                    out.extend_from_slice(b"null"); // JSON has no NaN/Infinity
                }
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.extend_from_slice(b"[]");
                    return;
                }
                out.push(b'[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, indent, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(b']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.extend_from_slice(b"{}");
                    return;
                }
                out.push(b'{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(b',');
                    }
                    newline(out, indent, depth + 1);
                    write_str(out, k);
                    out.push(b':');
                    if indent.is_some() {
                        out.push(b' ');
                    }
                    v.write(out, indent, depth + 1);
                }
                newline(out, indent, depth);
                out.push(b'}');
            }
        }
    }
}

/// Pretty layout only: a line break, then `width * depth` spaces.
fn newline(out: &mut Vec<u8>, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push(b'\n');
        out.resize(out.len() + width * depth, b' ');
    }
}

/// Appends the JSON bytes of `n` and returns `true`, or appends nothing
/// and returns `false` when `n` is not finite (JSON has no NaN or
/// Infinity; each caller decides what that means).
///
/// This is the one definition of number bytes for every writer in the
/// workspace: Rust's shortest round-trip `{:?}` rendering, so a value
/// survives write → [`parse`] bit-identically. Integral values below
/// 10^16, where `{:?}` prints every digit then `.0`, take a digit loop
/// instead of the formatter; the bytes are the same.
pub fn write_num(out: &mut Vec<u8>, n: f64) -> bool {
    if !n.is_finite() {
        return false;
    }
    if n.fract() == 0.0 && n.abs() < 1e16 {
        if n.is_sign_negative() {
            out.push(b'-');
        }
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = n.abs() as u64;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[at..]);
        out.extend_from_slice(b".0");
    } else {
        use std::io::Write as _;
        write!(out, "{n:?}").expect("writing to a Vec cannot fail");
    }
    true
}

/// Appends `s` as a JSON string literal: quoted, with `"`, `\` and
/// control characters escaped.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push(b'"');
    for &b in s.as_bytes() {
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            b if b < 0x20 => {
                out.extend_from_slice(b"\\u00");
                out.push(HEX[usize::from(b >> 4)]);
                out.push(HEX[usize::from(b & 0xF)]);
            }
            // Multi-byte UTF-8 sequences pass through byte by byte:
            // every byte of one is >= 0x80.
            b => out.push(b),
        }
    }
    out.push(b'"');
}

/// What class of failure a [`ParseError`] is. Callers that need to
/// react differently to different failures (the journal recovery
/// scanner treats any kind as frame corruption, but tests pin the
/// specific rejection) match on this instead of parsing the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// Malformed syntax: unexpected character, bad literal, bad
    /// escape, unterminated string, missing separator.
    Syntax,
    /// Input ended inside a value.
    UnexpectedEof,
    /// A complete value was followed by non-whitespace bytes.
    TrailingGarbage,
    /// An object repeated a key.
    DuplicateKey,
    /// A number token parsed to a non-finite `f64` (e.g. `1e999`) —
    /// JSON has no `Infinity`, so silently accepting it would create
    /// values the writer cannot round-trip.
    NonFiniteNumber,
    /// Arrays/objects nested beyond [`MAX_DEPTH`] (a depth bomb would
    /// otherwise overflow the recursive parser's stack).
    TooDeep,
}

/// Maximum array/object nesting depth [`parse`] accepts.
pub const MAX_DEPTH: usize = 128;

/// A parse failure: what went wrong and the byte offset it happened at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// The failure class.
    pub kind: ParseErrorKind,
    /// Human-readable description.
    pub message: String,
    /// Byte offset into the input.
    pub at: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.at)
    }
}

impl std::error::Error for ParseError {}

/// Parses a JSON document. The whole input must be one value (trailing
/// whitespace allowed).
pub fn parse(input: &str) -> Result<Json, ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(p.err_kind(
            ParseErrorKind::TrailingGarbage,
            "trailing characters after JSON value",
        ));
    }
    Ok(v)
}

/// Streaming variant of [`parse`]: parses **one** JSON value from the
/// front of `input` (leading whitespace allowed) and returns it with
/// the byte offset just past the value. Callers consuming a stream of
/// concatenated documents — journal frame payloads, line-delimited
/// exports — loop on the returned offset instead of pre-splitting the
/// input.
pub fn parse_prefix(input: &str) -> Result<(Json, usize), ParseError> {
    let bytes = input.as_bytes();
    let mut p = Parser {
        bytes,
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    Ok((v, p.pos))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Current array/object nesting depth (depth-bomb guard).
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &str) -> ParseError {
        let kind = if self.pos >= self.bytes.len() {
            ParseErrorKind::UnexpectedEof
        } else {
            ParseErrorKind::Syntax
        };
        self.err_kind(kind, message)
    }

    fn err_kind(&self, kind: ParseErrorKind, message: &str) -> ParseError {
        ParseError {
            kind,
            message: message.to_string(),
            at: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    /// Bumps the nesting depth on container entry, failing on a depth
    /// bomb. The matching decrement happens in `object`/`array` on
    /// their (sole) successful exits.
    fn enter(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err_kind(
                ParseErrorKind::TooDeep,
                "arrays/objects nested deeper than MAX_DEPTH",
            ));
        }
        Ok(())
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{')?;
        self.enter()?;
        let mut pairs = Vec::new();
        let mut keys = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if keys.insert(key.clone(), ()).is_some() {
                return Err(ParseError {
                    kind: ParseErrorKind::DuplicateKey,
                    message: format!("duplicate key {key:?}"),
                    at: key_at,
                });
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[')?;
        self.enter()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            self.depth -= 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    self.depth -= 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| self.err("non-ascii \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogate pairs are not needed by the lab's
                            // identifiers; reject rather than mangle.
                            let c = char::from_u32(code)
                                .ok_or_else(|| self.err("\\u escape is a surrogate"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is a &str, so
                    // boundaries are valid).
                    let rest = &self.bytes[self.pos..];
                    let s = unsafe { std::str::from_utf8_unchecked(rest) };
                    let c = s.chars().next().expect("non-empty by peek");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, ParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text =
            std::str::from_utf8(&self.bytes[start..self.pos]).expect("number bytes are ascii");
        let n = text
            .parse::<f64>()
            .map_err(|_| self.err("invalid number"))?;
        if !n.is_finite() {
            // `"1e999".parse::<f64>()` is `Ok(inf)` in Rust — reject
            // rather than admit a value the writer renders as `null`.
            return Err(self.err_kind(
                ParseErrorKind::NonFiniteNumber,
                "number overflows to a non-finite f64",
            ));
        }
        Ok(Json::Num(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_a_nested_document() {
        let doc = Json::obj(vec![
            ("name", Json::Str("fig10-vs-n".into())),
            ("runs", Json::Num(100.0)),
            ("flag", Json::Bool(true)),
            ("none", Json::Null),
            (
                "values",
                Json::Arr(vec![Json::Num(40.0), Json::Num(20.5), Json::Num(-1.25)]),
            ),
            (
                "nested",
                Json::obj(vec![("k", Json::Str("a \"quoted\"\nline".into()))]),
            ),
        ]);
        for text in [doc.to_string_compact(), doc.to_string_pretty()] {
            assert_eq!(parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn parses_whitespace_and_escapes() {
        let v = parse(" { \"a\" : [ 1 , 2.5e1 ] , \"b\" : \"x\\u0041\\t\" } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1], Json::Num(25.0));
        assert_eq!(v.get("b").unwrap().as_str().unwrap(), "xA\t");
    }

    #[test]
    fn integral_accessors_guard_fractions() {
        assert_eq!(parse("3").unwrap().as_usize(), Some(3));
        assert_eq!(parse("3.5").unwrap().as_usize(), None);
        assert_eq!(parse("-1").unwrap().as_usize(), None);
        assert_eq!(parse("12345678901").unwrap().as_u64(), Some(12345678901));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Duplicate keys are a spec-file authoring error, not silently
        // last-wins.
        assert!(parse("{\"a\":1,\"a\":2}").is_err());
    }

    #[test]
    fn typed_error_kinds() {
        let kind = |input: &str| parse(input).unwrap_err().kind;
        assert_eq!(kind("1 2"), ParseErrorKind::TrailingGarbage);
        assert_eq!(kind("[1] x"), ParseErrorKind::TrailingGarbage);
        assert_eq!(kind("{\"a\":1,\"a\":2}"), ParseErrorKind::DuplicateKey);
        assert_eq!(kind("{"), ParseErrorKind::UnexpectedEof);
        assert_eq!(kind("\"unterminated"), ParseErrorKind::UnexpectedEof);
        assert_eq!(kind("[1,]"), ParseErrorKind::Syntax);
        assert_eq!(kind("tru"), ParseErrorKind::Syntax);
    }

    #[test]
    fn rejects_numbers_that_overflow_to_infinity() {
        for bad in ["1e999", "-1e999", "123456789e307"] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind, ParseErrorKind::NonFiniteNumber, "{bad:?}");
        }
        // The largest finite doubles still parse.
        assert!(parse("1.7976931348623157e308").is_ok());
        assert!(parse("-1.7976931348623157e308").is_ok());
    }

    #[test]
    fn rejects_depth_bombs_without_overflowing() {
        let deep = "[".repeat(MAX_DEPTH + 1) + &"]".repeat(MAX_DEPTH + 1);
        let err = parse(&deep).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        let bomb = "[".repeat(200_000);
        let err = parse(&bomb).unwrap_err();
        assert_eq!(err.kind, ParseErrorKind::TooDeep);
        // ...and exactly MAX_DEPTH is fine (siblings don't count:
        // depth is nesting, not total containers).
        let ok = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok).is_ok());
        assert!(parse("[[1],[2],[3],[{},{}]]").is_ok());
    }

    #[test]
    fn parse_prefix_streams_concatenated_documents() {
        let stream = " {\"a\":1} [2,3]\n\"tail\" ";
        let mut at = 0;
        let mut values = Vec::new();
        while !stream[at..].trim_start().is_empty() {
            let (v, used) = parse_prefix(&stream[at..]).unwrap();
            values.push(v);
            at += used;
        }
        assert_eq!(
            values,
            vec![
                Json::obj(vec![("a", Json::Num(1.0))]),
                Json::Arr(vec![Json::Num(2.0), Json::Num(3.0)]),
                Json::Str("tail".into()),
            ]
        );
        // A torn tail surfaces as an error, not a panic.
        assert!(parse_prefix("{\"a\":").is_err());
    }

    #[test]
    fn non_finite_numbers_render_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string_compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string_compact(), "null");
    }

    /// `write_num`'s digit loop must agree with `{:?}` byte for byte,
    /// on both sides of every threshold it relies on.
    #[test]
    fn write_num_matches_debug_formatting() {
        let mut samples = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            0.5,
            1e-4,
            9.9e-5,
            1e15,
            1e16,
            -1e16,
            1e16 - 2.0,
            9_007_199_254_740_993.0,
            f64::from(u32::MAX),
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324,
            46.666666666666664,
        ];
        let mut p = 1.0f64;
        for _ in 0..40 {
            samples.extend([p, p - 1.0, p + 1.0, -p, p / 7.0]);
            p *= 10.0;
        }
        // Arbitrary bit patterns cover the fractional and exponent forms.
        let mut bits = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..20_000 {
            bits = bits.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            samples.push(f64::from_bits(bits));
            samples.push((bits >> 11) as f64);
            samples.push((bits >> 40) as f64 * 0.25);
        }
        let mut out = Vec::new();
        for n in samples {
            out.clear();
            if write_num(&mut out, n) {
                assert_eq!(std::str::from_utf8(&out).unwrap(), format!("{n:?}"));
            } else {
                assert!(!n.is_finite() && out.is_empty(), "{n:?}");
            }
        }
    }

    #[test]
    fn write_str_escapes_quotes_backslashes_and_controls() {
        let mut out = Vec::new();
        write_str(&mut out, "a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é");
        assert_eq!(
            std::str::from_utf8(&out).unwrap(),
            "\"a\\\"b\\\\c\\n\\r\\t\\u0001\\u001f\u{7f}é\""
        );
        assert_eq!(
            parse(std::str::from_utf8(&out).unwrap()).unwrap(),
            Json::Str("a\"b\\c\n\r\t\u{1}\u{1f}\u{7f}é".into())
        );
    }

    #[test]
    fn shortest_roundtrip_float_formatting() {
        let n = 46.666666666666664f64;
        let text = Json::Num(n).to_string_compact();
        assert_eq!(parse(&text).unwrap().as_f64(), Some(n));
    }
}
