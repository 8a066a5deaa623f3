//! A dependency-free JSON value: integer-exact emission and parsing.
//!
//! The engine's corpus formats only need objects, arrays, strings, booleans,
//! `null`, and *integers* (all schedule arithmetic is integral `u64`), so
//! numbers are carried as `i128` and floating-point literals are rejected on
//! parse — round trips are exact by construction.
//!
//! This module also holds the crate's one JSON lexer, `Scan`. [`Json::parse`]
//! builds a tree on it, and [`crate::jsonl::LineDecoder`] decodes instance
//! lines on it without building one, so both parsers accept the same
//! grammar and report the same error offsets and messages.
//! [`crate::report::SolveReport::read_store_json`] decodes the strings of
//! store payloads with it. The lexer makes one linear pass over its input,
//! and both of its recursive walkers stop at a fixed nesting depth with a
//! [`JsonError`].

use std::fmt;

/// A JSON value (numbers restricted to integers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer (JSON number without fraction/exponent).
    Num(i128),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object: ordered key–value pairs (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `u64`, if it is a non-negative integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0 && *n <= u64::MAX as i128 => Some(*n as u64),
            _ => None,
        }
    }

    /// The value as `usize`, if representable.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().and_then(|n| usize::try_from(n).ok())
    }

    /// The value as `&str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Parses one JSON document (rejecting trailing garbage).
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut s = Scan::new(text);
        s.skip_ws();
        let v = value(&mut s, 0)?;
        s.end()?;
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => write!(f, "{n}"),
            Json::Str(s) => write_escaped_str(s, f),
            Json::Arr(items) => {
                f.write_str("[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Json::Obj(pairs) => {
                f.write_str("{")?;
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

/// Writes `s` as a quoted JSON string: `"`, `\`, `\n`, `\r`, `\t` escaped,
/// other control characters as `\u00xx`, everything else verbatim. The
/// single source of truth for the crate's string escaping — both
/// [`Json::Str`]'s `Display` and the allocation-free report byte writer
/// ([`crate::report::SolveReport::write_json_line`]) go through it, so the
/// two serialization paths cannot diverge, and
/// [`crate::report::SolveReport::read_store_json`] accepts a string only
/// if this writes it back byte for byte.
pub(crate) fn write_escaped_str(s: &str, out: &mut impl fmt::Write) -> fmt::Result {
    out.write_str("\"")?;
    for ch in s.chars() {
        match ch {
            '"' => out.write_str("\\\"")?,
            '\\' => out.write_str("\\\\")?,
            '\n' => out.write_str("\\n")?,
            '\r' => out.write_str("\\r")?,
            '\t' => out.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32)?,
            c => out.write_char(c)?,
        }
    }
    out.write_str("\"")
}

/// Parse error with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the problem.
    pub at: usize,
    /// Description.
    pub reason: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON error at byte {}: {}", self.at, self.reason)
    }
}

impl std::error::Error for JsonError {}

/// Deepest nesting of arrays and objects a document may have. Instance
/// lines nest 3 deep and store payloads 4. The walkers below recurse once
/// per level, so the bound keeps any input, however deep, from
/// overflowing the stack of the thread that parses it.
const MAX_DEPTH: usize = 128;

/// The crate's one JSON lexer: a validating cursor over one document.
/// [`Json::parse`] builds a tree on it; [`crate::jsonl::LineDecoder`]
/// walks instance lines on it straight into reusable buffers. Integers
/// only (no fraction or exponent, no leading zeros, `i128` range), and
/// arrays and objects nest at most [`MAX_DEPTH`] deep. The input is a
/// `&str`, so the cursor always sits on a character boundary.
pub(crate) struct Scan<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scan<'a> {
    /// A cursor at the start of `text`.
    pub(crate) fn new(text: &'a str) -> Self {
        Scan { text, pos: 0 }
    }

    fn err(&self, reason: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            reason: reason.into(),
        }
    }

    /// The cursor's byte offset into the text.
    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    /// The byte under the cursor.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Skips JSON whitespace.
    pub(crate) fn skip_ws(&mut self) {
        self.pos = ws_end(self.text.as_bytes(), self.pos);
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected `{}`", b as char)))
        }
    }

    /// Consumes the `:` after an object key and the whitespace around it.
    pub(crate) fn colon(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(())
    }

    /// Checks that only whitespace follows the document.
    pub(crate) fn end(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after JSON value"));
        }
        Ok(())
    }

    fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.text[self.pos..].starts_with(lit) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(format!("expected `{lit}`")))
        }
    }

    /// Walks one array or object (cursor on its `[` or `{`) that sits
    /// inside `depth` others: calls `element` once per element, with the
    /// cursor on the element's first byte and the depth inside this
    /// container, and consumes the separators and the closing bracket.
    /// For an object, `element` reads the whole `key: value` member.
    pub(crate) fn elements(
        &mut self,
        depth: usize,
        mut element: impl FnMut(&mut Self, usize) -> Result<(), JsonError>,
    ) -> Result<(), JsonError> {
        if depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        let (close, expected) = match self.peek() {
            Some(b'[') => (b']', "expected `,` or `]`"),
            _ => (b'}', "expected `,` or `}`"),
        };
        self.pos += 1;
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            element(self, depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(c) if c == close => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(self.err(expected)),
            }
        }
    }

    /// Reads an array of unsigned integers (cursor on its `[`) that sits
    /// inside `depth` arrays or objects in one tight loop, appending each
    /// element to `out`: the fast path for an instance line's job sizes.
    /// Returns `false` at the first byte it does not accept (a sign,
    /// fraction, exponent, leading zero, a literal past `u64::MAX`, a
    /// non-number or a syntax error) and at the nesting bound, with the
    /// cursor back on the `[` and `out` possibly holding a prefix of the
    /// elements. The caller then walks the array with
    /// [`elements`](Self::elements), whose errors are the ones reported.
    pub(crate) fn u64_array(&mut self, depth: usize, out: &mut Vec<u64>) -> bool {
        if depth >= MAX_DEPTH {
            return false;
        }
        let bytes = self.text.as_bytes();
        let mut i = ws_end(bytes, self.pos + 1);
        if bytes.get(i) == Some(&b']') {
            self.pos = i + 1;
            return true;
        }
        loop {
            let Some(first) = digit_at(bytes, i) else {
                return false;
            };
            let mut value = u64::from(first);
            i += 1;
            // A `0` ends its literal: a digit after it is a leading zero,
            // which the separator check below turns away.
            if value != 0 {
                while let Some(d) = digit_at(bytes, i) {
                    let Some(next) = value
                        .checked_mul(10)
                        .and_then(|v| v.checked_add(u64::from(d)))
                    else {
                        return false;
                    };
                    value = next;
                    i += 1;
                }
            }
            out.push(value);
            i = ws_end(bytes, i);
            match bytes.get(i) {
                Some(b',') => i = ws_end(bytes, i + 1),
                Some(b']') => {
                    self.pos = i + 1;
                    return true;
                }
                _ => return false,
            }
        }
    }

    /// Validates and skips one value of any shape that sits inside
    /// `depth` arrays or objects.
    pub(crate) fn skip_value(&mut self, depth: usize) -> Result<(), JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string(None),
            Some(b'[') => self.elements(depth, Self::skip_value),
            Some(b'{') => self.elements(depth, |s, depth| {
                s.string(None)?;
                s.colon()?;
                s.skip_value(depth)
            }),
            Some(b'-' | b'0'..=b'9') => self.number().map(|_| ()),
            _ => Err(self.unexpected()),
        }
    }

    /// The error for a byte (or the end of input) where a value should
    /// start.
    fn unexpected(&self) -> JsonError {
        match self.peek() {
            Some(c) => self.err(format!("unexpected `{}`", c as char)),
            None => self.err("unexpected end of input"),
        }
    }

    /// Parses an integer literal (cursor on its `-` or first digit).
    pub(crate) fn number(&mut self) -> Result<i128, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digit"));
        }
        let digits = &self.text.as_bytes()[digits_start..self.pos];
        // RFC 8259: no leading zeros ("-0" and "0" are fine, "007" is not).
        if digits.len() > 1 && digits[0] == b'0' {
            return Err(self.err("leading zeros are not allowed"));
        }
        if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            return Err(self.err("floating-point numbers are not supported"));
        }
        // Fast path for the overwhelmingly common case — short non-negative
        // literals (job sizes, machine counts): accumulate in `u64`, which
        // 18 digits can never overflow. Long or negative literals take the
        // generic checked path.
        if digits.len() <= 18 && start == digits_start {
            let mut value: u64 = 0;
            for &b in digits {
                value = value * 10 + u64::from(b - b'0');
            }
            return Ok(value as i128);
        }
        // `i128::from_str` errors (rather than wrapping) on out-of-range
        // literals, which we surface as a parse error.
        let text = &self.text[start..self.pos];
        text.parse::<i128>()
            .map_err(|_| self.err(format!("integer out of range `{text}`")))
    }

    /// Reads 4 hex digits starting at byte offset `at`.
    fn hex4(&self, at: usize) -> Result<u32, JsonError> {
        self.text
            .get(at..at + 4)
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))
    }

    /// Validates one string (cursor on its opening `"`), appending the
    /// unescaped text to `out` when one is given.
    pub(crate) fn string(&mut self, mut out: Option<&mut String>) -> Result<(), JsonError> {
        self.expect(b'"')?;
        loop {
            // Copy the run up to the next quote or backslash in one step:
            // both are ASCII, so the run ends on a character boundary.
            let rest = &self.text.as_bytes()[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .unwrap_or(rest.len());
            if let Some(buf) = out.as_deref_mut() {
                buf.push_str(&self.text[self.pos..self.pos + run]);
            }
            self.pos += run;
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    // A backslash: one escape sequence.
                    self.pos += 1;
                    let ch = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b'r') => '\r',
                        Some(b't') => '\t',
                        Some(b'u') => {
                            let hex = self.hex4(self.pos + 1)?;
                            self.pos += 4;
                            let code = if (0xD800..0xDC00).contains(&hex) {
                                // High surrogate: a low surrogate must follow
                                // as another \uXXXX escape (RFC 8259 §7).
                                if self.text.as_bytes().get(self.pos + 1..self.pos + 3)
                                    != Some(b"\\u")
                                {
                                    return Err(
                                        self.err("high surrogate not followed by \\u escape")
                                    );
                                }
                                let low = self.hex4(self.pos + 3)?;
                                if !(0xDC00..0xE000).contains(&low) {
                                    return Err(
                                        self.err("high surrogate not followed by low surrogate")
                                    );
                                }
                                self.pos += 6;
                                0x10000 + ((hex - 0xD800) << 10) + (low - 0xDC00)
                            } else {
                                hex
                            };
                            char::from_u32(code).ok_or_else(|| self.err("bad \\u code point"))?
                        }
                        _ => return Err(self.err("bad escape")),
                    };
                    if let Some(buf) = out.as_deref_mut() {
                        buf.push(ch);
                    }
                    self.pos += 1;
                }
            }
        }
    }
}

/// The offset of the first byte at or after `at` that is not JSON
/// whitespace.
fn ws_end(bytes: &[u8], mut at: usize) -> usize {
    while matches!(bytes.get(at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        at += 1;
    }
    at
}

/// The value of the ASCII digit at `at`, if one is there.
pub(crate) fn digit_at(bytes: &[u8], at: usize) -> Option<u8> {
    bytes
        .get(at)
        .map(|b| b.wrapping_sub(b'0'))
        .filter(|&d| d <= 9)
}

/// The tree builder behind [`Json::parse`]: one value that sits inside
/// `depth` arrays or objects.
fn value(s: &mut Scan<'_>, depth: usize) -> Result<Json, JsonError> {
    match s.peek() {
        Some(b'"') => {
            let mut text = String::new();
            s.string(Some(&mut text))?;
            Ok(Json::Str(text))
        }
        Some(b'[') => {
            let mut items = Vec::new();
            s.elements(depth, |s, depth| {
                items.push(value(s, depth)?);
                Ok(())
            })?;
            Ok(Json::Arr(items))
        }
        Some(b'{') => {
            let mut pairs = Vec::new();
            s.elements(depth, |s, depth| {
                let mut key = String::new();
                s.string(Some(&mut key))?;
                s.colon()?;
                pairs.push((key, value(s, depth)?));
                Ok(())
            })?;
            Ok(Json::Obj(pairs))
        }
        Some(b'-' | b'0'..=b'9') => s.number().map(Json::Num),
        Some(b'n') => s.literal("null").map(|()| Json::Null),
        Some(b't') => s.literal("true").map(|()| Json::Bool(true)),
        Some(b'f') => s.literal("false").map(|()| Json::Bool(false)),
        _ => Err(s.unexpected()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let v = Json::Obj(vec![
            ("id".into(), Json::Str("a \"b\"\n".into())),
            ("n".into(), Json::Num(-42)),
            ("ok".into(), Json::Bool(true)),
            ("xs".into(), Json::Arr(vec![Json::Num(1), Json::Null])),
            ("nested".into(), Json::Obj(vec![("k".into(), Json::Num(0))])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).unwrap(), v);
    }

    #[test]
    fn parses_whitespace_and_unicode() {
        let v = Json::parse(" { \"k\" : [ 1 , \"\\u00e9✓\" ] } ").unwrap();
        assert_eq!(
            v.get("k").unwrap().as_arr().unwrap()[1].as_str(),
            Some("é✓")
        );
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = Json::parse("\"\\ud83d\\ude00 ok\"").unwrap();
        assert_eq!(v, Json::Str("😀 ok".into()));
        // Lone or malformed surrogates are rejected, not mis-decoded.
        assert!(Json::parse("\"\\ud83d\"").is_err());
        assert!(Json::parse("\"\\ud83d\\u0041\"").is_err());
        assert!(Json::parse("\"\\ude00\"").is_err());
    }

    #[test]
    fn rejects_floats_and_garbage() {
        assert!(Json::parse("1.5").is_err());
        assert!(Json::parse("1e3").is_err());
        assert!(Json::parse("{}extra").is_err());
        assert!(Json::parse("{\"a\":}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn integer_literal_edge_cases() {
        // Exactly representable extremes round trip.
        assert_eq!(
            Json::parse(&i128::MAX.to_string()).unwrap(),
            Json::Num(i128::MAX)
        );
        assert_eq!(
            Json::parse(&i128::MIN.to_string()).unwrap(),
            Json::Num(i128::MIN)
        );
        // One past the extremes: a parse error, never a wrap or a panic.
        let too_big = "170141183460469231731687303715884105728"; // i128::MAX + 1
        let err = Json::parse(too_big).unwrap_err();
        assert!(err.reason.contains("out of range"), "{err}");
        assert!(Json::parse("-170141183460469231731687303715884105729").is_err());
        // Absurdly long literals are rejected, not truncated.
        let huge = "9".repeat(200);
        assert!(Json::parse(&huge).is_err());
        assert!(Json::parse(&format!("{{\"n\":{huge}}}")).is_err());
        // `-0` is valid JSON and parses to zero.
        assert_eq!(Json::parse("-0").unwrap(), Json::Num(0));
        assert_eq!(Json::parse("0").unwrap(), Json::Num(0));
        // Leading zeros are malformed per RFC 8259.
        assert!(Json::parse("007").is_err());
        assert!(Json::parse("-012").is_err());
        assert!(Json::parse("[01]").is_err());
        // A bare sign or non-digit after `-` is malformed.
        assert!(Json::parse("-").is_err());
        assert!(Json::parse("-x").is_err());
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let at_bound = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(Json::parse(&at_bound).is_ok());
        // One level past the bound, or 100,000 levels deep, is an error at
        // the first bracket past the bound, never a stack overflow.
        for levels in [MAX_DEPTH + 1, 100_000] {
            let err = Json::parse(&"[".repeat(levels)).unwrap_err();
            assert_eq!(err.at, MAX_DEPTH);
            assert_eq!(err.reason, "nesting deeper than 128 levels");
            let err = Json::parse(&"{\"k\":".repeat(levels)).unwrap_err();
            assert_eq!(err.at, 5 * MAX_DEPTH);
        }
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        let id = "a".repeat(512 * 1024);
        let doc = format!("{{\"id\":\"{id}\",\"n\":1}}");
        let started = std::time::Instant::now();
        let v = Json::parse(&doc).unwrap();
        let took = started.elapsed();
        assert!(took.as_secs_f64() < 1.0, "512 KiB string took {took:?}");
        assert_eq!(v.get("id").and_then(Json::as_str), Some(id.as_str()));
    }

    #[test]
    fn accessors() {
        let v = Json::parse("{\"m\":3,\"s\":\"x\"}").unwrap();
        assert_eq!(v.get("m").unwrap().as_u64(), Some(3));
        assert_eq!(v.get("m").unwrap().as_usize(), Some(3));
        assert_eq!(v.get("s").unwrap().as_str(), Some("x"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::Num(-1).as_u64(), None);
    }
}
