//! Hand-rolled JSON: a tree value, a renderer, and a small strict parser.
//!
//! The workspace builds hermetically (no serde), yet §5's operability
//! story demands machine-readable output: every experiment binary renders
//! its report through [`Json`], and CI validates the result by parsing it
//! back with [`parse`]. The renderer emits canonical, deterministic text
//! (object keys in insertion order, `u64` counters verbatim rather than
//! through `f64`), so two runs' reports can be compared with `cmp`.

use std::io::Write as _;

/// A JSON value. Integers keep their own variants so 64-bit counters
/// (packet ids, byte totals) render exactly instead of rounding through
/// `f64`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Unsigned integer, rendered verbatim.
    U64(u64),
    /// Signed integer, rendered verbatim.
    I64(i64),
    /// Floating point. Non-finite values render as `null` (JSON has no
    /// NaN/Inf).
    F64(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object as an ordered key list (insertion order is render order).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object constructor from key/value pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
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

    /// Render to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = Vec::new();
        self.write(&mut out);
        String::from_utf8(out).expect("the writers emit whole strs and ASCII")
    }

    /// Append the compact rendering to `out`.
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        match self {
            Json::Null => out.extend_from_slice(b"null"),
            Json::Bool(b) => out.extend_from_slice(if *b { b"true" } else { b"false" }),
            Json::U64(v) => write_u64(*v, out),
            Json::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Json::F64(v) => write_f64(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => write_list(out, *b"[]", items, |out, item| item.write(out)),
            Json::Obj(pairs) => write_obj(out, pairs.iter().map(|(k, v)| (k, v)), |out, v| {
                v.write(out)
            }),
        }
    }
}

// The writers below are shared by `Json::render`, the per-record trace
// encoder (`sink`) and the hub's export (`telemetry`). They append UTF-8
// text to a byte buffer — bytes rather than a `String` so digits and
// escapes, built in place, need no validation pass — and allocate only
// when the buffer has to grow.

/// Append `v` as [`Json::F64`] renders it: integral values keep a `.0`
/// so they stay distinguishable from integers, and non-finite values
/// (JSON has no NaN/Inf) become `null`.
pub(crate) fn write_f64(v: f64, out: &mut Vec<u8>) {
    if !v.is_finite() {
        out.extend_from_slice(b"null");
    } else if v.fract() == 0.0 && v.abs() < 1e15 {
        let _ = write!(out, "{v:.1}");
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `items` comma-separated between the two `brackets`, each item
/// appended by `write_item`.
pub(crate) fn write_list<T>(
    out: &mut Vec<u8>,
    [open, close]: [u8; 2],
    items: impl IntoIterator<Item = T>,
    mut write_item: impl FnMut(&mut Vec<u8>, T),
) {
    out.push(open);
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        write_item(out, item);
    }
    out.push(close);
}

/// Append a JSON object with one member per `(key, value)` of `members`,
/// each value appended by `write_value`.
pub(crate) fn write_obj<K: AsRef<str>, V>(
    out: &mut Vec<u8>,
    members: impl IntoIterator<Item = (K, V)>,
    mut write_value: impl FnMut(&mut Vec<u8>, V),
) {
    write_list(out, *b"{}", members, |out, (key, v)| {
        write_str(key.as_ref(), out);
        out.push(b':');
        write_value(out, v);
    });
}

/// `00`..`99`, so the integer writer emits two digits per division.
const DIGIT_PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
2021222324252627282930313233343536373839\
4041424344454647484950515253545556575859\
6061626364656667686970717273747576777879\
8081828384858687888990919293949596979899";

/// Append `v` in decimal.
#[inline]
pub fn write_u64(mut v: u64, out: &mut Vec<u8>) {
    let mut digits = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = digits.len();
    while v >= 100 {
        let pair = (v % 100) as usize * 2;
        v /= 100;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if v >= 10 {
        let pair = v as usize * 2;
        at -= 2;
        digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        digits[at] = b'0' + v as u8;
    }
    out.extend_from_slice(&digits[at..]);
}

/// Whether `b` cannot appear verbatim inside a JSON string.
#[inline]
pub(crate) fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

/// Append `s` as a quoted JSON string, escaping `"`, `\\` and control
/// characters. A string with nothing to escape — every field name and
/// nearly every value — is one scan and one copy.
#[inline]
pub fn write_str(s: &str, out: &mut Vec<u8>) {
    out.push(b'"');
    if s.bytes().any(needs_escape) {
        write_escaped(s.as_bytes(), out);
    } else {
        out.extend_from_slice(s.as_bytes());
    }
    out.push(b'"');
}

/// Append a quoted JSON string whose text `write` appends in place —
/// escaped after the fact in the rare case it needs it — so a name
/// rendered from structure is written without a copy.
pub(crate) fn write_str_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    out.push(b'"');
    let at = out.len();
    write(out);
    if out[at..].iter().copied().any(needs_escape) {
        let raw = out.split_off(at);
        write_escaped(&raw, out);
    }
    out.push(b'"');
}

/// The slow path of [`write_str`]: copy plain runs, expand the rest.
fn write_escaped(s: &[u8], out: &mut Vec<u8>) {
    let mut plain_from = 0;
    for (i, &b) in s.iter().enumerate() {
        if !needs_escape(b) {
            continue;
        }
        out.extend_from_slice(&s[plain_from..i]);
        plain_from = i + 1;
        match b {
            b'"' => out.extend_from_slice(b"\\\""),
            b'\\' => out.extend_from_slice(b"\\\\"),
            b'\n' => out.extend_from_slice(b"\\n"),
            b'\r' => out.extend_from_slice(b"\\r"),
            b'\t' => out.extend_from_slice(b"\\t"),
            _ => {
                const HEX: &[u8; 16] = b"0123456789abcdef";
                out.extend_from_slice(b"\\u00");
                out.push(HEX[(b >> 4) as usize]);
                out.push(HEX[(b & 0xf) as usize]);
            }
        }
    }
    out.extend_from_slice(&s[plain_from..]);
}

/// Parse error with byte offset, for CI diagnostics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset of the failure.
    pub at: usize,
    /// What went wrong.
    pub msg: &'static str,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.at, self.msg)
    }
}

/// Parse a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Strict: no comments, no trailing commas, numbers
/// land in `U64`/`I64` when integral and representable, else `F64`.
pub fn parse(s: &str) -> Result<Json, ParseError> {
    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> ParseError {
        ParseError { at: self.pos, msg }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8, msg: &'static str) -> Result<(), ParseError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(msg))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, ParseError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Json, ParseError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn array(&mut self) -> Result<Json, ParseError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
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
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, ParseError> {
        self.expect(b'{', "expected '{'")?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after key")?;
            self.skip_ws();
            let v = self.value()?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, ParseError> {
        self.expect(b'"', "expected '\"'")?;
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
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            if self.pos + 5 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos + 1..self.pos + 5])
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            // Surrogates would need pairing; the renderer
                            // never emits them, so reject for simplicity.
                            let c = char::from_u32(hex)
                                .ok_or_else(|| self.err("non-scalar \\u escape"))?;
                            out.push(c);
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so valid).
                    let rest = &self.bytes[self.pos..];
                    let s = std::str::from_utf8(rest).map_err(|_| self.err("invalid utf8"))?;
                    let c = s.chars().next().unwrap();
                    if (c as u32) < 0x20 {
                        return Err(self.err("raw control character in string"));
                    }
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
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(Json::U64(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(Json::I64(i));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| ParseError {
            at: start,
            msg: "invalid number",
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_canonically() {
        let v = Json::obj(vec![
            ("id", Json::Str("fig2".into())),
            ("n", Json::U64(18446744073709551615)),
            ("neg", Json::I64(-3)),
            ("f", Json::F64(2.5)),
            ("whole", Json::F64(3.0)),
            ("ok", Json::Bool(true)),
            ("none", Json::Null),
            ("rows", Json::Arr(vec![Json::U64(1), Json::U64(2)])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"id":"fig2","n":18446744073709551615,"neg":-3,"f":2.5,"whole":3.0,"ok":true,"none":null,"rows":[1,2]}"#
        );
    }

    #[test]
    fn escapes_strings() {
        let v = Json::Str("a\"b\\c\nd\u{1}".into());
        assert_eq!(v.render(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        assert_eq!(parse(&v.render()).unwrap(), v);
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::F64(f64::NAN).render(), "null");
        assert_eq!(Json::F64(f64::INFINITY).render(), "null");
    }

    #[test]
    fn roundtrips() {
        let v = Json::obj(vec![(
            "tables",
            Json::Arr(vec![Json::obj(vec![
                ("name", Json::Str("t".into())),
                (
                    "rows",
                    Json::Arr(vec![Json::Arr(vec![
                        Json::F64(-1.25),
                        Json::U64(u64::MAX),
                        Json::Bool(false),
                    ])]),
                ),
            ])]),
        )]);
        let back = parse(&v.render()).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , { \"b\" : null } ] } ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{} x").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn integer_vs_float_classification() {
        assert_eq!(parse("42").unwrap(), Json::U64(42));
        assert_eq!(parse("-42").unwrap(), Json::I64(-42));
        assert_eq!(parse("42.0").unwrap(), Json::F64(42.0));
        assert_eq!(parse("1e3").unwrap(), Json::F64(1000.0));
    }
}
