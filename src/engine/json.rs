//! A minimal JSON value, parser and writer.
//!
//! The build environment pins this workspace to zero external
//! dependencies, so the engine carries its own ~200-line JSON layer
//! instead of `serde`. The emitted documents are plain JSON — readable by
//! any serde-based consumer — and [`ScenarioSpec`](super::ScenarioSpec)
//! round-trips through it losslessly (covered by the facade tests).

use std::fmt::Write as _;

/// A JSON document node.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, Json)>),
}

/// Parse/shape failure raised by [`Json::parse`] and the typed accessors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong, with byte offset where applicable.
    pub message: String,
}

impl std::fmt::Display for JsonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "json: {}", self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`Json::parse`] accepts. The deepest
/// documents the repo writes nest 8 levels (the serve spool manifest:
/// jobs → job → request → sweep → axes → axis → values); checkpoints nest
/// at most 5 and a `result` response 7. The parser recurses once per
/// level, so without a limit one hostile `[[[[…` request line overflows
/// the thread's stack and aborts the process. Deeper input is a
/// structured error instead.
pub const MAX_DEPTH: usize = 64;

fn err<T>(message: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError {
        message: message.into(),
    })
}

impl Json {
    /// Parses a JSON document.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(text.as_bytes(), &mut pos);
        if pos != text.len() {
            return err(format!("trailing characters at byte {pos}"));
        }
        Ok(value)
    }

    /// Serializes with two-space indentation.
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, true);
        out
    }

    /// Serializes compactly.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0, false);
        out
    }

    fn write(&self, out: &mut String, indent: usize, pretty: bool) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(out, *n),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    item.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if pretty {
                        newline_indent(out, indent + 1);
                    }
                    write_str(out, key);
                    out.push(':');
                    if pretty {
                        out.push(' ');
                    }
                    value.write(out, indent + 1, pretty);
                }
                if pretty {
                    newline_indent(out, indent);
                }
                out.push('}');
            }
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Required object field.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        match self.get(key) {
            Some(v) => Ok(v),
            None => err(format!("missing field `{key}`")),
        }
    }

    /// Numeric value.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(n) => Ok(*n),
            other => err(format!("expected number, found {}", other.kind())),
        }
    }

    /// Non-negative integer value.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        let n = self.as_f64()?;
        if n < 0.0 || n.fract() != 0.0 || n >= 2f64.powi(53) {
            return err(format!("expected non-negative integer, found {n}"));
        }
        Ok(n as u64)
    }

    /// `usize` value.
    pub fn as_usize(&self) -> Result<usize, JsonError> {
        Ok(self.as_u64()? as usize)
    }

    /// String value.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, found {}", other.kind())),
        }
    }

    /// Array items.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, found {}", other.kind())),
        }
    }

    /// Builds a number array from a slice of `f64` (state vectors in
    /// checkpoints). Finite values round-trip exactly: the writer emits
    /// the shortest decimal that parses back to the same bits.
    pub fn num_arr(values: &[f64]) -> Json {
        Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
    }

    /// The array's items as `f64`s (inverse of [`Json::num_arr`]).
    pub fn as_f64_vec(&self) -> Result<Vec<f64>, JsonError> {
        self.as_arr()?.iter().map(|v| v.as_f64()).collect()
    }

    fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "bool",
            Json::Num(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

fn newline_indent(out: &mut String, indent: usize) {
    out.push('\n');
    for _ in 0..indent {
        out.push_str("  ");
    }
}

fn write_num(out: &mut String, n: f64) {
    if !n.is_finite() {
        // JSON has no Inf/NaN; `null` is the least-bad spelling.
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() < 2f64.powi(53) && !(n == 0.0 && n.is_sign_negative()) {
        // Whole numbers print without the float suffix; negative zero is
        // excluded so checkpointed state round-trips bit-exactly.
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(out: &mut String, s: &str) {
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

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing containers nest `depth` levels.
/// `*pos` is a byte offset into `text` and always sits on a char
/// boundary: the parser only steps over ASCII bytes and whole chars.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => err("unexpected end of input"),
        Some(b'{' | b'[') if depth == MAX_DEPTH => err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = match parse_value(text, pos, depth + 1)? {
                    Json::Str(s) => s,
                    _ => return err(format!("object key must be a string at byte {pos}")),
                };
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return err(format!("expected ':' at byte {pos}"));
                }
                *pos += 1;
                let value = parse_value(text, pos, depth + 1)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(text, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'"') => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match bytes.get(*pos) {
                    None => return err("unterminated string"),
                    Some(b'"') => {
                        *pos += 1;
                        return Ok(Json::Str(s));
                    }
                    Some(b'\\') => {
                        *pos += 1;
                        match bytes.get(*pos) {
                            Some(b'"') => s.push('"'),
                            Some(b'\\') => s.push('\\'),
                            Some(b'/') => s.push('/'),
                            Some(b'n') => s.push('\n'),
                            Some(b'r') => s.push('\r'),
                            Some(b't') => s.push('\t'),
                            Some(b'b') => s.push('\u{8}'),
                            Some(b'f') => s.push('\u{c}'),
                            Some(b'u') => {
                                let Some(code) = hex4(bytes, *pos + 1) else {
                                    return err("bad \\u escape");
                                };
                                *pos += 4;
                                // A UTF-16 surrogate pair (what most encoders
                                // send for a non-BMP char) is one char; a lone
                                // surrogate becomes U+FFFD.
                                let low = match bytes.get(*pos + 1..*pos + 3) {
                                    Some(b"\\u") => hex4(bytes, *pos + 3),
                                    _ => None,
                                };
                                let ch = match (code, low) {
                                    (0xD800..=0xDBFF, Some(low @ 0xDC00..=0xDFFF)) => {
                                        *pos += 6;
                                        char::from_u32(
                                            0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00),
                                        )
                                    }
                                    _ => char::from_u32(code),
                                };
                                s.push(ch.unwrap_or('\u{fffd}'));
                            }
                            _ => return err("bad escape sequence"),
                        }
                        *pos += 1;
                    }
                    Some(&b) if b < 0x80 => {
                        s.push(b as char);
                        *pos += 1;
                    }
                    Some(_) => {
                        // Multi-byte UTF-8: decode just this one char (the
                        // input is already valid UTF-8, so there is nothing
                        // left to validate).
                        let Some(c) = text.get(*pos..).and_then(|rest| rest.chars().next()) else {
                            return err(format!("invalid UTF-8 in string at byte {pos}"));
                        };
                        s.push(c);
                        *pos += c.len_utf8();
                    }
                }
            }
        }
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(_) => {
            let start = *pos;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
            {
                *pos += 1;
            }
            let text = std::str::from_utf8(&bytes[start..*pos]).expect("ascii");
            match text.parse::<f64>() {
                Ok(n) => Ok(Json::Num(n)),
                Err(_) => err(format!("invalid token at byte {start}")),
            }
        }
    }
}

/// Builds an object from key/value pairs (engine-internal sugar).
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The four hex digits of a `\\u` escape starting at `at`, or `None`
/// when any is missing or not a hex digit.
fn hex4(bytes: &[u8], at: usize) -> Option<u32> {
    bytes
        .get(at..at + 4)?
        .iter()
        .try_fold(0, |acc, &b| Some(acc * 16 + char::from(b).to_digit(16)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_nested_documents() {
        let doc = obj(vec![
            ("name", Json::Str("two_stream".into())),
            ("dt", Json::Num(0.2)),
            ("steps", Json::Num(200.0)),
            (
                "modes",
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0), Json::Num(3.0)]),
            ),
            (
                "nested",
                obj(vec![("flag", Json::Bool(true)), ("none", Json::Null)]),
            ),
        ]);
        for text in [doc.to_pretty(), doc.to_compact()] {
            assert_eq!(Json::parse(&text).unwrap(), doc);
        }
    }

    #[test]
    fn escapes_and_unicode() {
        let doc = Json::Str("a \"quote\"\nnewline\ttab λ".into());
        let parsed = Json::parse(&doc.to_compact()).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(Json::parse(r#""λ""#).unwrap(), Json::Str("λ".into()));
    }

    #[test]
    fn non_ascii_strings_parse_in_linear_time() {
        // ~300 KB of two-byte chars: one pass over the input takes
        // milliseconds, while re-validating the rest of the input per char
        // takes tens of seconds.
        let doc = Json::Str("é".repeat(150_000));
        let text = doc.to_compact();
        let t0 = std::time::Instant::now();
        let parsed = Json::parse(&text).unwrap();
        let elapsed = t0.elapsed();
        assert_eq!(parsed, doc);
        assert_eq!(parsed.to_compact(), text);
        assert!(
            elapsed < std::time::Duration::from_secs(2),
            "parsing {} bytes of non-ASCII text took {elapsed:?}",
            text.len()
        );
    }

    #[test]
    fn surrogate_pairs_decode_to_one_char() {
        // What Python's `json.dumps` sends for a non-BMP char.
        assert_eq!(
            Json::parse(r#""\ud83d\ude00 x""#).unwrap(),
            Json::Str("😀 x".into())
        );
        // Lone halves, and a high half before a non-low escape, stay U+FFFD.
        assert_eq!(
            Json::parse(r#""\ud83d""#).unwrap(),
            Json::Str("\u{fffd}".into())
        );
        assert_eq!(
            Json::parse(r#""\ude00\ud83d""#).unwrap(),
            Json::Str("\u{fffd}\u{fffd}".into())
        );
        assert_eq!(
            Json::parse(r#""\ud83d\u0041""#).unwrap(),
            Json::Str("\u{fffd}A".into())
        );
        let doc = Json::Str("tenant 😀𝄞".into());
        assert_eq!(Json::parse(&doc.to_compact()).unwrap(), doc);
    }

    #[test]
    fn unicode_escapes_take_exactly_four_hex_digits() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap(), Json::Str("A".into()));
        for bad in [r#""\u+041""#, r#""\u 041""#, r#""\u04""#, r#""\u004g""#] {
            assert!(Json::parse(bad).is_err(), "accepted {bad}");
        }
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "{",
            "[1,",
            "\"open",
            "{\"a\" 1}",
            "[1 2]",
            "tru",
            "1.2.3",
            "",
        ] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Json::parse("[1] trailing").is_err());
    }

    #[test]
    fn nesting_is_limited_to_max_depth() {
        let nested = |levels: usize| "[".repeat(levels) + &"]".repeat(levels);
        let mut doc = Json::parse(&nested(MAX_DEPTH)).expect("at the limit");
        for _ in 1..MAX_DEPTH {
            doc = doc.as_arr().unwrap()[0].clone();
        }
        assert_eq!(doc, Json::Arr(vec![]));
        for hostile in [
            nested(MAX_DEPTH + 1),
            "{\"a\":".repeat(MAX_DEPTH + 1),
            // Far past any stack: must error, not abort.
            "[".repeat(200_000),
        ] {
            let e = Json::parse(&hostile).unwrap_err();
            assert!(e.message.contains("nesting deeper"), "{e}");
        }
    }

    #[test]
    fn f64_values_round_trip_bit_exactly() {
        // Checkpoints rely on this: every finite f64 survives the text
        // round-trip with identical bits (Display prints the shortest
        // representation that parses back exactly).
        let vals = [
            0.1,
            1.0 / 3.0,
            -2.5e-17,
            6.02e23,
            f64::MIN_POSITIVE,
            -0.0,
            0.0,
            123_456_789.123_456_78,
            -1e308,
        ];
        let doc = Json::num_arr(&vals);
        for text in [doc.to_pretty(), doc.to_compact()] {
            let parsed = Json::parse(&text).unwrap().as_f64_vec().unwrap();
            for (a, b) in vals.iter().zip(&parsed) {
                assert_eq!(a.to_bits(), b.to_bits(), "{a} mutated in transit");
            }
        }
    }

    #[test]
    fn typed_accessors() {
        let doc = Json::parse(r#"{"n": 3, "s": "x", "a": [1.5]}"#).unwrap();
        assert_eq!(doc.field("n").unwrap().as_usize().unwrap(), 3);
        assert_eq!(doc.field("s").unwrap().as_str().unwrap(), "x");
        assert_eq!(doc.field("a").unwrap().as_arr().unwrap().len(), 1);
        assert!(doc.field("missing").is_err());
        assert!(doc.field("s").unwrap().as_f64().is_err());
        assert!(doc.field("a").unwrap().as_arr().unwrap()[0]
            .as_u64()
            .is_err());
    }
}
