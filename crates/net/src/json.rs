//! Minimal JSON encode/decode for the serving layer.
//!
//! The workspace ground rules forbid `serde_json`, and the service's stats
//! snapshot already hand-rolls its JSON (`StatsSnapshot::to_json`). This
//! module extends that approach with the two missing pieces the HTTP API
//! needs: a small recursive-descent parser for request bodies and a
//! streaming object writer for responses (which can embed pre-rendered JSON
//! like the stats snapshot verbatim via [`JsonObj::raw`]).
//!
//! Both directions are linear in the document. The parser copies each run
//! of plain string bytes (up to the next `"`, `\` or control byte, all
//! ASCII, so every run ends on a char boundary) as one slice of the source,
//! and the writer escapes the same runs straight into its buffer; a
//! multi-megabyte `proof_hex` costs one scan each way. Nesting is bounded
//! by `MAX_DEPTH` (128 arrays and objects): a deeper document is an `Err`,
//! so an untrusted body of a million `[` cannot overflow a handler thread's
//! stack.

use std::fmt::Write as _;

/// How deeply arrays and objects may nest. The documents the API emits
/// nest a few levels; the bound keeps the recursive descent within a
/// thread's stack on any input.
const MAX_DEPTH: usize = 128;

/// A byte a JSON string carries as is: not `"`, `\` or a control byte.
fn is_plain(b: u8) -> bool {
    b != b'"' && b != b'\\' && b >= 0x20
}

/// A parsed JSON value. Integers without a fraction or exponent are kept
/// exact in `Int` (covers `u64` seeds); everything else numeric is `Float`.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer literal, kept exact.
    Int(i128),
    /// Any other number.
    Float(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one JSON document; trailing non-whitespace is an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Object field lookup; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The value as a `u64`, if it is an integer in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(i) => u64::try_from(*i).ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (integers widen).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Int(i) => Some(*i as f64),
            Json::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean payload, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    /// Parses an array or object one level deeper, refusing past [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
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
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run of plain bytes goes over as one slice. Its delimiters
            // are ASCII, so it starts and ends on char boundaries of `text`.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| !is_plain(b))
                .unwrap_or(self.bytes.len() - self.pos);
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run;
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let cp = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: a low surrogate must follow.
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                self.expect(b'u')
                                    .map_err(|_| "lone high surrogate".to_string())?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("bad low surrogate".into());
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(char::from_u32(cp).ok_or("bad unicode escape")?);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                Some(_) => return Err("raw control byte in string".into()),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let end = self.pos + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        // Exactly four hex digits: no sign, space or other byte.
        let mut v = 0;
        for &b in &self.bytes[self.pos..end] {
            let nibble = NIBBLES[usize::from(b)];
            if nibble == NOT_HEX {
                return Err("bad \\u escape".into());
            }
            v = v << 4 | u32::from(nibble);
        }
        self.pos = end;
        Ok(v)
    }

    fn number(&mut self) -> Result<Json, String> {
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
        if is_float {
            text.parse::<f64>()
                .map(Json::Float)
                .map_err(|_| format!("bad number '{text}'"))
        } else {
            text.parse::<i128>()
                .map(Json::Int)
                .map_err(|_| format!("bad number '{text}'"))
        }
    }
}

/// Escapes a string for embedding in JSON (without the surrounding quotes).
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Appends `s` escaped to `out`, each run of plain bytes as one slice.
fn escape_into(out: &mut String, s: &str) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        if is_plain(b) {
            continue;
        }
        out.push_str(&s[start..i]);
        start = i + 1;
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            _ => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
    }
    out.push_str(&s[start..]);
}

/// A streaming JSON object writer.
#[derive(Default)]
pub struct JsonObj {
    buf: String,
    first: bool,
}

impl JsonObj {
    /// Starts an empty object.
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        self.quoted(k);
        self.buf.push(':');
    }

    fn quoted(&mut self, s: &str) {
        self.buf.push('"');
        escape_into(&mut self.buf, s);
        self.buf.push('"');
    }

    /// Adds a string field.
    pub fn str(mut self, k: &str, v: &str) -> Self {
        self.key(k);
        self.quoted(v);
        self
    }

    /// Adds an unsigned integer field.
    pub(crate) fn u64(mut self, k: &str, v: u64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v}");
        self
    }

    /// Adds a float field (4 decimal places, matching the stats JSON).
    pub(crate) fn f64(mut self, k: &str, v: f64) -> Self {
        self.key(k);
        let _ = write!(self.buf, "{v:.4}");
        self
    }

    /// Adds a boolean field.
    pub(crate) fn bool(mut self, k: &str, v: bool) -> Self {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
        self
    }

    /// Adds a `null` field.
    pub(crate) fn null(mut self, k: &str) -> Self {
        self.key(k);
        self.buf.push_str("null");
        self
    }

    /// Embeds pre-rendered JSON verbatim (e.g. `StatsSnapshot::to_json()`
    /// or a nested [`JsonObj`]).
    pub(crate) fn raw(mut self, k: &str, json: &str) -> Self {
        self.key(k);
        self.buf.push_str(json);
        self
    }

    /// Closes the object and returns the JSON text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

const HEX_DIGITS: &[u8; 16] = b"0123456789abcdef";
const NOT_HEX: u8 = 0xff;

/// Each byte's value as a hex digit, or `NOT_HEX`.
const NIBBLES: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut i = 0;
    while i < 16 {
        table[HEX_DIGITS[i] as usize] = i as u8;
        table[HEX_DIGITS[i].to_ascii_uppercase() as usize] = i as u8;
        i += 1;
    }
    table
};

/// Lower-hex encoding of bytes.
pub fn encode_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        out.push(HEX_DIGITS[usize::from(b >> 4)] as char);
        out.push(HEX_DIGITS[usize::from(b & 0xf)] as char);
    }
    out
}

/// Decodes a hex string (case-insensitive, even length).
pub fn decode_hex(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex string".into());
    }
    let mut out = Vec::with_capacity(s.len() / 2);
    for (i, pair) in s.as_bytes().chunks_exact(2).enumerate() {
        let (hi, lo) = (NIBBLES[usize::from(pair[0])], NIBBLES[usize::from(pair[1])]);
        if hi == NOT_HEX || lo == NOT_HEX {
            // Every pair before this one was ASCII, so `2 * i` is a char
            // boundary, and the pair is a whole `str` slice exactly when
            // `2 * i + 2` is one too.
            return Err(if s.is_char_boundary(2 * i + 2) {
                format!("bad hex at byte {}", 2 * i)
            } else {
                "non-ascii hex".into()
            });
        }
        out.push(hi << 4 | lo);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestCaseError;

    #[test]
    fn parse_roundtrip_basics() {
        let v = Json::parse(
            r#"{"a":1,"b":"x\n\"y\"","c":[true,null,-2.5],"d":{"e":18446744073709551615}}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().as_str(), Some("x\n\"y\""));
        match v.get("c").unwrap() {
            Json::Arr(items) => {
                assert_eq!(items[0].as_bool(), Some(true));
                assert_eq!(items[1], Json::Null);
                assert_eq!(items[2].as_f64(), Some(-2.5));
            }
            other => panic!("expected array, got {other:?}"),
        }
        // u64::MAX survives exactly.
        assert_eq!(
            v.get("d").unwrap().get("e").unwrap().as_u64(),
            Some(u64::MAX)
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in ["", "{", "{\"a\":}", "[1,]", "{\"a\":1}x", "\"\\q\"", "nul"] {
            assert!(Json::parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes() {
        let v = Json::parse(r#""\u00e9\ud83d\ude00""#).unwrap();
        assert_eq!(v.as_str(), Some("é😀"));
        assert!(Json::parse(r#""\ud83d""#).is_err(), "lone surrogate");
    }

    #[test]
    fn writer_emits_valid_json() {
        let inner = JsonObj::new().u64("n", 3).finish();
        let out = JsonObj::new()
            .str("s", "a\"b")
            .u64("u", 42)
            .bool("t", true)
            .null("z")
            .raw("nested", &inner)
            .finish();
        let back = Json::parse(&out).unwrap();
        assert_eq!(back.get("s").unwrap().as_str(), Some("a\"b"));
        assert_eq!(back.get("u").unwrap().as_u64(), Some(42));
        assert_eq!(back.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(back.get("z"), Some(&Json::Null));
        assert_eq!(
            back.get("nested").unwrap().get("n").unwrap().as_u64(),
            Some(3)
        );
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0u8, 1, 0xab, 0xff];
        let hex = encode_hex(&bytes);
        assert_eq!(hex, "0001abff");
        assert_eq!(decode_hex(&hex).unwrap(), bytes);
        assert_eq!(decode_hex("0001ABFF").unwrap(), bytes);
        assert_eq!(decode_hex("abc").unwrap_err(), "odd-length hex string");
        assert_eq!(decode_hex("zz").unwrap_err(), "bad hex at byte 0");
        assert_eq!(decode_hex("00+f").unwrap_err(), "bad hex at byte 2");
        assert_eq!(decode_hex("00é").unwrap_err(), "bad hex at byte 2");
        assert_eq!(decode_hex("0é0").unwrap_err(), "non-ascii hex");
    }

    #[test]
    fn escape_writes_json_escapes() {
        assert_eq!(
            escape("a\"b\\c\n\r\t\u{1}\u{1f}é"),
            "a\\\"b\\\\c\\n\\r\\t\\u0001\\u001fé"
        );
        assert_eq!(JsonObj::new().str("k\"", "v").finish(), "{\"k\\\"\":\"v\"}");
        // Every control char, quote, backslash and slash survives the trip.
        let special: String = (0..0x20)
            .filter_map(char::from_u32)
            .chain(['"', '\\', '/'])
            .collect();
        let back = Json::parse(&JsonObj::new().str("k", &special).finish()).unwrap();
        assert_eq!(back.get("k").and_then(Json::as_str), Some(special.as_str()));
    }

    #[test]
    fn string_errors_are_reported() {
        for (bad, err) in [
            ("\"abc", "unterminated string"),
            ("\"ab\\", "unterminated escape"),
            ("\"a\nb\"", "raw control byte in string"),
            ("\"a\u{1f}b\"", "raw control byte in string"),
            ("\"a\\qb\"", "bad escape at byte 4"),
            ("\"a\\u12zz\"", "bad \\u escape"),
            ("\"\\u+041\"", "bad \\u escape"),
            ("\"\\u-041\"", "bad \\u escape"),
            ("\"\\u 041\"", "bad \\u escape"),
            ("\"a\\u12", "truncated \\u escape"),
            ("\"\\ud83dx\"", "lone high surrogate"),
            ("\"\\ud83d\\u0041\"", "bad low surrogate"),
        ] {
            assert_eq!(Json::parse(bad).unwrap_err(), err, "{bad:?}");
        }
        assert_eq!(
            Json::parse("\"é\\u00e9😀 \\\"x\"").unwrap().as_str(),
            Some("éé😀 \"x")
        );
    }

    #[test]
    fn nesting_is_bounded() {
        let deep =
            |open: &str, close: &str, n: usize| format!("{}1{}", open.repeat(n), close.repeat(n));
        assert!(Json::parse(&deep("[", "]", MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep("{\"a\":", "}", MAX_DEPTH)).is_ok());
        let err = Json::parse(&deep("[", "]", MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err,
            format!("nesting deeper than {MAX_DEPTH} at byte {MAX_DEPTH}")
        );
        // Far past any thread's stack without the bound.
        assert!(Json::parse(&deep("[", "]", 100_000)).is_err());
        assert!(Json::parse(&deep("{\"a\":", "}", 100_000)).is_err());
        assert!(Json::parse(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn max_body_sized_hex_value_round_trips() {
        let bytes: Vec<u8> = (0..crate::http::MAX_BODY_BYTES / 2)
            .map(|i| (i * 31 + i / 251) as u8)
            .collect();
        let hex = encode_hex(&bytes);
        assert_eq!(hex.len(), crate::http::MAX_BODY_BYTES);
        let doc = JsonObj::new().str("proof_hex", &hex).finish();
        let back = Json::parse(&doc).unwrap();
        let field = back.get("proof_hex").and_then(Json::as_str).unwrap();
        assert_eq!(decode_hex(field).unwrap(), bytes);
    }

    #[test]
    fn stats_snapshot_embeds_cleanly() {
        // The reuse contract with the service's hand-rolled stats JSON.
        let snap = zkml_service::ServiceStats::new().snapshot();
        let out = JsonObj::new().raw("service", &snap.to_json()).finish();
        let back = Json::parse(&out).unwrap();
        assert!(back.get("service").unwrap().get("jobs_submitted").is_some());
    }

    /// One char from a class: control, `"` `\` `/`, printable ASCII, or a
    /// 2-, 3- or 4-byte UTF-8 scalar (surrogates are dropped).
    fn char_of(class: u32, r: u32) -> Option<char> {
        char::from_u32(match class {
            0 => r % 0x20,
            1 => [0x22, 0x5c, 0x2f][(r % 3) as usize],
            2 => 0x20 + r % 0x60,
            3 => 0x80 + r % (0x800 - 0x80),
            4 => 0x800 + r % (0x1_0000 - 0x800),
            _ => 0x1_0000 + r % (0x11_0000 - 0x1_0000),
        })
    }

    /// Bytes a JSON document is made of, so that byte soup reaches past the
    /// first token.
    const JSONISH: &[u8] = b"{}[]\":,\\/u0123456789abcdefABEF-+.eE truefalsenull\n";

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn written_strings_parse_back(
            chars in prop::collection::vec((0u32..6, any::<u32>()), 0..64)
        ) {
            let s: String = chars.into_iter().filter_map(|(c, r)| char_of(c, r)).collect();
            let doc = JsonObj::new().str("k", &s).finish();
            let back = Json::parse(&doc).map_err(TestCaseError::Fail)?;
            prop_assert_eq!(back.get("k").and_then(Json::as_str), Some(s.as_str()));
            prop_assert_eq!(Json::parse(&format!("\"{}\"", escape(&s))), Ok(Json::Str(s)));
        }

        #[test]
        fn byte_soup_never_panics(
            soup in prop::collection::vec((any::<bool>(), any::<u8>()), 0..256)
        ) {
            let bytes: Vec<u8> = soup
                .into_iter()
                .map(|(raw, b)| if raw { b } else { JSONISH[usize::from(b) % JSONISH.len()] })
                .collect();
            let _ = Json::parse(&String::from_utf8_lossy(&bytes));
        }

        #[test]
        fn hex_round_trips(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let hex = encode_hex(&bytes);
            prop_assert_eq!(hex.len(), 2 * bytes.len());
            prop_assert_eq!(decode_hex(&hex), Ok(bytes.clone()));
            prop_assert_eq!(decode_hex(&hex.to_ascii_uppercase()), Ok(bytes));
        }
    }
}
