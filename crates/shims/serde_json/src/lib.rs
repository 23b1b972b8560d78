//! Offline stand-in for `serde_json`: renders [`serde::Value`] trees to JSON
//! text and parses JSON text back, bridging to the workspace's `Serialize` /
//! `Deserialize` traits via [`to_string`] and [`from_str`].

use serde::{DeError, Deserialize, Serialize};
use std::fmt;

pub use serde::Value;

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    message: String,
}

impl Error {
    fn new(message: impl Into<String>) -> Self {
        Error {
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for Error {}

impl From<DeError> for Error {
    fn from(e: DeError) -> Self {
        Error::new(e.to_string())
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Serializes `value` to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut out = String::new();
    write_value(&value.serialize_value(), &mut out);
    Ok(out)
}

/// Deserializes a `T` from JSON text.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let value = parse_value_str(text)?;
    Ok(T::deserialize_value(&value)?)
}

/// Parses JSON text into a [`Value`] tree.
pub fn parse_value_str(text: &str) -> Result<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {pos}")));
    }
    Ok(value)
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(true) => out.push_str("true"),
        Value::Bool(false) => out.push_str("false"),
        Value::I64(v) => out.push_str(&v.to_string()),
        Value::U64(v) => out.push_str(&v.to_string()),
        Value::F64(v) => {
            if v.is_finite() {
                // `{}` prints the shortest representation that round-trips.
                let text = v.to_string();
                out.push_str(&text);
                // Keep floats distinguishable from integers in the output.
                if !text.contains(['.', 'e', 'E']) {
                    out.push_str(".0");
                }
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Obj(pairs) => {
            out.push('{');
            for (i, (key, item)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(Error::new("unexpected end of input")),
        Some(b'n') => parse_keyword(bytes, pos, "null", Value::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Value::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Value::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    _ => return Err(Error::new(format!("expected ',' or ']' at byte {pos}"))),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut pairs = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Value::Obj(pairs));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(Error::new(format!("expected ':' at byte {pos}")));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                pairs.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Value::Obj(pairs));
                    }
                    _ => return Err(Error::new(format!("expected ',' or '}}' at byte {pos}"))),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, keyword: &str, value: Value) -> Result<Value> {
    if bytes[*pos..].starts_with(keyword.as_bytes()) {
        *pos += keyword.len();
        Ok(value)
    } else {
        Err(Error::new(format!("invalid literal at byte {pos}")))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(Error::new(format!("expected string at byte {pos}")));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(Error::new("unterminated string")),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000C}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or_else(|| Error::new("truncated \\u escape"))?;
                        let hex = std::str::from_utf8(hex)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| Error::new("invalid \\u escape"))?;
                        // Surrogate pairs are not produced by our writer;
                        // unpaired surrogates map to the replacement char.
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(Error::new("invalid escape sequence")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next `"` or `\` in one step: both
                // are ASCII, so they never split a UTF-8 sequence.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                let run = std::str::from_utf8(&bytes[*pos..end])
                    .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                out.push_str(run);
                *pos = end;
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    {
        *pos += 1;
    }
    let text =
        std::str::from_utf8(&bytes[start..*pos]).map_err(|_| Error::new("invalid number"))?;
    if text.is_empty() {
        return Err(Error::new(format!("expected value at byte {start}")));
    }
    let is_float = text.contains(['.', 'e', 'E']);
    if !is_float {
        if let Ok(v) = text.parse::<i64>() {
            return Ok(Value::I64(v));
        }
        if let Ok(v) = text.parse::<u64>() {
            return Ok(Value::U64(v));
        }
    }
    text.parse::<f64>()
        .map(Value::F64)
        .map_err(|_| Error::new(format!("invalid number `{text}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-7i32).unwrap(), "-7");
        assert_eq!(to_string(&1.5f64).unwrap(), "1.5");
        assert_eq!(from_str::<f64>("1.5").unwrap(), 1.5);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert_eq!(
            to_string(&"he said \"hi\"\n").unwrap(),
            "\"he said \\\"hi\\\"\\n\""
        );
        assert_eq!(from_str::<String>("\"a\\u0041b\"").unwrap(), "aAb");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![1u32, 2, 3];
        let text = to_string(&v).unwrap();
        assert_eq!(text, "[1,2,3]");
        assert_eq!(from_str::<Vec<u32>>(&text).unwrap(), v);

        let opt: Option<f64> = None;
        assert_eq!(to_string(&opt).unwrap(), "null");
        assert_eq!(from_str::<Option<f64>>("null").unwrap(), None);
        assert_eq!(from_str::<Option<f64>>("2.25").unwrap(), Some(2.25));

        let pairs = vec![(1u32, 2.5f64), (3, 4.5)];
        let text = to_string(&pairs).unwrap();
        assert_eq!(from_str::<Vec<(u32, f64)>>(&text).unwrap(), pairs);
    }

    #[test]
    fn floats_keep_precision() {
        for &x in &[0.1, 1e-300, 123_456_789.123_456_79, -2.5e17, f64::MAX] {
            let text = to_string(&x).unwrap();
            let back: f64 = from_str(&text).unwrap();
            assert_eq!(back, x, "{text}");
        }
    }

    #[test]
    fn big_u64_survives() {
        let x = u64::MAX;
        let text = to_string(&x).unwrap();
        assert_eq!(from_str::<u64>(&text).unwrap(), x);
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(from_str::<Vec<u32>>(" [ 1 , 2 ] ").unwrap(), vec![1, 2]);
        assert!(from_str::<u32>("[1] junk").is_err());
        assert!(from_str::<u32>("\"text\"").is_err());
        assert!(parse_value_str("{\"a\":}").is_err());
    }

    /// The per-character decoder [`parse_string`] replaced, kept as the
    /// reference its output must match.
    fn parse_string_reference(bytes: &[u8], pos: &mut usize) -> Result<String> {
        if bytes.get(*pos) != Some(&b'"') {
            return Err(Error::new(format!("expected string at byte {pos}")));
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            match bytes.get(*pos) {
                None => return Err(Error::new("unterminated string")),
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    match bytes.get(*pos) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000C}'),
                        Some(b'u') => {
                            let hex = bytes
                                .get(*pos + 1..*pos + 5)
                                .ok_or_else(|| Error::new("truncated \\u escape"))?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| Error::new("invalid \\u escape"))?;
                            // Surrogate pairs are not produced by our writer;
                            // unpaired surrogates map to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            *pos += 4;
                        }
                        _ => return Err(Error::new("invalid escape sequence")),
                    }
                    *pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&bytes[*pos..])
                        .map_err(|_| Error::new("invalid UTF-8 in string"))?;
                    let c = rest.chars().next().unwrap();
                    out.push(c);
                    *pos += c.len_utf8();
                }
            }
        }
    }

    /// A splitmix64 stream, so the reference comparison is seeded.
    struct SplitMix(u64);

    impl SplitMix {
        fn below(&mut self, n: usize) -> usize {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) % n as u64) as usize
        }
    }

    /// Seeded JSON string literals mixing multi-byte UTF-8, every escape,
    /// valid and broken `\u` sequences, raw control characters, and
    /// unterminated strings: the run-copying decoder returns the same value
    /// or error, and stops at the same byte, as the per-character one.
    #[test]
    fn string_decoding_matches_the_per_character_reference() {
        let mut pieces = vec!["a", "plain ascii ", "é", "€", "中文", "𝄞"];
        // Every escape, valid and broken `\u` sequences, an unknown escape
        // and a lone backslash.
        let escapes =
            r#"\" \\ \/ \n \r \t \b \f \u0041 \u00e9 \u20AC \uD834 \uffff \u12G4 \u+0A1 \u1 \x \"#;
        pieces.extend(escapes.split(' '));
        // Raw control characters, and a bare quote that ends the string.
        pieces.extend(["\u{0}", "\u{1f}", "\t", "\n", "\""]);
        let mut rng = SplitMix(0x5EED_0022);
        for case in 0..20_000 {
            let mut text = String::from("\"");
            for _ in 0..rng.below(24) {
                text.push_str(pieces[rng.below(pieces.len())]);
            }
            match rng.below(4) {
                0 => {}
                1 => text.push('"'),
                _ => text.push_str("\",\"tail\":\"é\"}"),
            }
            let bytes = text.as_bytes();
            let (mut at, mut reference_at) = (0, 0);
            let decoded = parse_string(bytes, &mut at);
            let reference = parse_string_reference(bytes, &mut reference_at);
            assert_eq!(decoded, reference, "case {case}: {text:?}");
            assert_eq!(at, reference_at, "case {case}: {text:?}");
        }
    }

    /// A 1 MiB string decodes in linear time (the per-character decoder
    /// re-validated the rest of the input for every character it copied).
    #[test]
    fn a_one_mebibyte_string_decodes_in_under_a_second() {
        // 1,024 bytes of ASCII ending in one two-byte character, 1,024 times.
        let content = format!("{}é", "a".repeat(1022)).repeat(1024);
        assert_eq!(content.len(), 1 << 20);
        let text = to_string(&content).unwrap();
        let started = std::time::Instant::now();
        let decoded: String = from_str(&text).unwrap();
        let elapsed = started.elapsed();
        assert_eq!(decoded, content);
        assert!(elapsed.as_secs_f64() < 1.0, "took {elapsed:?}");
    }
}
