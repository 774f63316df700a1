//! A tiny JSON value model, emitter and parser.
//!
//! `f90y-obs` keeps the workspace dependency-free, so the telemetry
//! report carries its own serialisation: enough of RFC 8259 for the
//! report shape (objects, arrays, strings, finite numbers, booleans,
//! null) with string escapes on both paths.

use std::error::Error;
use std::fmt;

/// A JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (integers emit without a fraction).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order is preserved on emit.
    Obj(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) => {
                if !n.is_finite() {
                    // JSON has no NaN/±inf; `null` keeps the document
                    // well-formed instead of emitting a bare `NaN`.
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n}")
                }
            }
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{item}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

/// Why a document failed to parse or match an expected shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    message: String,
    /// Byte offset of the failure, when known.
    pub offset: Option<usize>,
}

impl JsonError {
    pub(crate) fn shape(message: impl Into<String>) -> Self {
        JsonError {
            message: message.into(),
            offset: None,
        }
    }

    fn at(message: impl Into<String>, offset: usize) -> Self {
        JsonError {
            message: message.into(),
            offset: Some(offset),
        }
    }
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offset {
            Some(off) => write!(f, "JSON error at byte {off}: {}", self.message),
            None => write!(f, "JSON error: {}", self.message),
        }
    }
}

impl Error for JsonError {}

/// Parse a JSON document.
///
/// # Errors
///
/// Fails on malformed input or trailing non-whitespace.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(JsonError::at("trailing characters", pos));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err(JsonError::at("unexpected end of input", *pos)),
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
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                if bytes.get(*pos) != Some(&b':') {
                    return Err(JsonError::at("expected ':'", *pos));
                }
                *pos += 1;
                let value = parse_value(bytes, pos)?;
                fields.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(JsonError::at("expected ',' or '}'", *pos)),
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
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(JsonError::at("expected ',' or ']'", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: Json,
) -> Result<Json, JsonError> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(JsonError::at(format!("expected '{word}'"), *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, JsonError> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(b) = bytes.get(*pos) {
        if b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| JsonError::at("invalid utf-8 in number", start))?;
    let n: f64 = text
        .parse()
        .map_err(|_| JsonError::at(format!("bad number '{text}'"), start))?;
    if !n.is_finite() {
        return Err(JsonError::at("non-finite number", start));
    }
    Ok(Json::Num(n))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, JsonError> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(JsonError::at("expected string", *pos));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err(JsonError::at("unterminated string", *pos)),
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
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| JsonError::at("bad \\u escape", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| JsonError::at("bad \\u escape", *pos))?;
                        out.push(
                            char::from_u32(code)
                                .ok_or_else(|| JsonError::at("bad \\u code point", *pos))?,
                        );
                        *pos += 4;
                    }
                    _ => return Err(JsonError::at("bad escape", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next delimiter in one piece.
                // Both delimiters are ASCII, so the run starts and ends
                // on scalar boundaries of the `&str` `parse` was given.
                let start = *pos;
                while !matches!(bytes.get(*pos), None | Some(b'"' | b'\\')) {
                    *pos += 1;
                }
                let run = std::str::from_utf8(&bytes[start..*pos])
                    .map_err(|_| JsonError::at("invalid utf-8 in string", start))?;
                out.push_str(run);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip() {
        let doc = Json::Obj(vec![
            (
                "name".into(),
                Json::Str("frontend.parse \"quoted\"\n".into()),
            ),
            ("count".into(), Json::Num(42.0)),
            ("ratio".into(), Json::Num(0.25)),
            (
                "flags".into(),
                Json::Arr(vec![Json::Bool(true), Json::Null]),
            ),
            ("empty_obj".into(), Json::Obj(vec![])),
            ("empty_arr".into(), Json::Arr(vec![])),
        ]);
        let text = doc.to_string();
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn integers_emit_without_fraction() {
        assert_eq!(Json::Num(42.0).to_string(), "42");
        assert_eq!(Json::Num(-3.0).to_string(), "-3");
        assert_eq!(Json::Num(0.5).to_string(), "0.5");
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Json::Num(f64::NEG_INFINITY).to_string(), "null");
        // The emitted document stays parseable.
        let doc = Json::Obj(vec![("x".into(), Json::Num(f64::NAN))]);
        assert_eq!(
            parse(&doc.to_string()).unwrap(),
            Json::Obj(vec![("x".into(), Json::Null)])
        );
    }

    #[test]
    fn control_characters_escape_on_emit() {
        let doc = Json::Str("a\u{1}b\u{7f}\n".into());
        let text = doc.to_string();
        assert_eq!(text, "\"a\\u0001b\u{7f}\\n\"");
        assert_eq!(parse(&text).unwrap(), doc);
    }

    #[test]
    fn whitespace_and_nesting_parse() {
        let text = r#" { "a" : [ 1 , { "b" : "x" } ] , "c" : -2.5e1 } "#;
        let doc = parse(text).unwrap();
        let Json::Obj(fields) = doc else {
            panic!("object")
        };
        assert_eq!(fields[1], ("c".into(), Json::Num(-25.0)));
    }

    #[test]
    fn errors_carry_offsets() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("12 34").unwrap_err().offset.is_some());
        assert!(parse("\"\\q\"").is_err());
    }

    #[test]
    fn string_error_offsets_are_byte_positions() {
        // "é" is two bytes: the offsets count bytes, past the run.
        let err = parse("\"aé").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("unterminated string", Some(4))
        );
        let err = parse("\"aé\\").unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("bad escape", Some(5)));
        let err = parse("\"aé\\q\"").unwrap_err();
        assert_eq!((err.message.as_str(), err.offset), ("bad escape", Some(5)));
        let err = parse("\"\\u12").unwrap_err();
        assert_eq!(
            (err.message.as_str(), err.offset),
            ("bad \\u escape", Some(2))
        );
    }

    #[test]
    fn a_two_megabyte_string_parses_in_linear_time() {
        // Multi-byte scalars and escapes at every run boundary. With one
        // `from_utf8` over the whole remaining document per character
        // this is ~10^12 byte checks and does not finish.
        let unit = "é\u{1F600}x\"\\\n\t→ plain ascii run ";
        let value: String = unit.repeat(2 * 1024 * 1024 / unit.len() + 1);
        assert!(value.len() > 2 * 1024 * 1024);
        let doc = Json::Obj(vec![("src".into(), Json::Str(value))]);
        assert_eq!(parse(&doc.to_string()).unwrap(), doc);
    }

    #[test]
    fn unicode_escapes_decode() {
        assert_eq!(parse("\"\\u0041\\u00e9\"").unwrap(), Json::Str("Aé".into()));
    }
}
