//! A minimal JSON reader/writer (std only; the build environment has no
//! registry access for serde).
//!
//! The writer side is just [`quote`]; renderers format objects by hand.
//! The reader side is a small recursive-descent parser over the full JSON
//! grammar, used by the in-tree structural validation of the machine
//! renderers' output — the JSON we emit must parse back with the fields
//! the stability contract promises, and CI asserts that without any
//! network dependency.

use std::fmt::Write as _;

/// The deepest array and object nesting [`Json::parse`] accepts. Deeper
/// input is an error carrying its byte offset, not a native stack
/// overflow: a daemon request line comes from outside the program.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any number (JSON does not distinguish integer widths).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys are kept).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses one complete JSON document (trailing garbage is an error).
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }

    /// Member lookup on an object (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
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

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders `s` as a quoted JSON string literal (quotes included).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out
}

/// Validates a `BENCH_*.json` perf-trajectory file: JSON Lines, one
/// sample per line, each an object with string `rev`, `stamp`, `bench`,
/// `metric`, `unit` members and a numeric `value`. Returns the number of
/// samples, or the first offending line's error. Blank lines are allowed
/// (the file is append-only across PRs).
pub fn validate_trajectory(text: &str) -> Result<usize, String> {
    let mut samples = 0;
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        for key in ["rev", "stamp", "bench", "metric", "unit"] {
            if doc.get(key).and_then(Json::as_str).is_none() {
                return Err(format!("line {}: missing string member {key:?}", i + 1));
            }
        }
        if doc.get("value").and_then(Json::as_f64).is_none() {
            return Err(format!("line {}: missing numeric member \"value\"", i + 1));
        }
        samples += 1;
    }
    Ok(samples)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses the value at `pos`, inside `depth` enclosing arrays and objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while let Some(c) = bytes.get(*pos) {
        if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-') {
            *pos += 1;
        } else {
            break;
        }
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|t| t.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    let mut out = String::new();
    loop {
        let Some(&c) = bytes.get(*pos) else {
            return Err("unterminated string".to_string());
        };
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let Some(&esc) = bytes.get(*pos) else {
                    return Err("unterminated escape".to_string());
                };
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        let cp = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape {hex:?}"))?;
                        *pos += 4;
                        // Surrogate pairs are not produced by our writer;
                        // map lone surrogates to the replacement char.
                        out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                    }
                    other => return Err(format!("bad escape \\{}", other as char)),
                }
            }
            // Multi-byte UTF-8: copy the whole scalar.
            c if c >= 0x80 => {
                let start = *pos - 1;
                let len = match c {
                    0xc0..=0xdf => 2,
                    0xe0..=0xef => 3,
                    _ => 4,
                };
                let chunk = bytes
                    .get(start..start + len)
                    .and_then(|b| std::str::from_utf8(b).ok())
                    .ok_or_else(|| "invalid UTF-8 in string".to_string())?;
                out.push_str(chunk);
                *pos = start + len;
            }
            c => out.push(c as char),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {pos}", pos = *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    *pos += 1; // consume '{'
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected string key at byte {pos}", pos = *pos));
        }
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected `:` at byte {pos}", pos = *pos));
        }
        *pos += 1;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {pos}", pos = *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_arrays_and_objects() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("-12.5e1").unwrap(), Json::Num(-125.0));
        assert_eq!(
            Json::parse(r#"[1, "two", null]"#).unwrap(),
            Json::Arr(vec![Json::Num(1.0), Json::Str("two".into()), Json::Null])
        );
        let obj = Json::parse(r#"{"a": {"b": [true]}, "c": 3}"#).unwrap();
        assert_eq!(obj.get("c").and_then(Json::as_f64), Some(3.0));
        assert_eq!(
            obj.get("a").and_then(|a| a.get("b")).unwrap(),
            &Json::Arr(vec![Json::Bool(true)])
        );
    }

    #[test]
    fn quote_round_trips_hostile_strings() {
        for s in [
            "",
            "plain",
            "with \"quotes\" and \\backslash\\",
            "tab\there\nnewline",
            "control\u{1}char",
            "unicode: héllo → 世界",
        ] {
            let quoted = quote(s);
            assert_eq!(
                Json::parse(&quoted).unwrap(),
                Json::Str(s.to_string()),
                "{quoted}"
            );
        }
    }

    #[test]
    fn trajectory_validation_accepts_well_formed_lines() {
        let good = concat!(
            r#"{"rev":"abc1234","stamp":"1700000000","bench":"workspace/reanalyze_warm","metric":"mean_ns","value":290000,"unit":"ns"}"#,
            "\n\n",
            r#"{"rev":"abc1234","stamp":"1700000000","bench":"check/db_save","metric":"best_ns","value":1.5e4,"unit":"ns"}"#,
            "\n",
        );
        assert_eq!(validate_trajectory(good), Ok(2));
        assert_eq!(validate_trajectory(""), Ok(0));
    }

    #[test]
    fn trajectory_validation_rejects_bad_lines() {
        let missing_key = r#"{"rev":"abc","stamp":"1","bench":"b","metric":"m","value":1}"#;
        assert!(validate_trajectory(missing_key)
            .unwrap_err()
            .contains("unit"));
        let string_value =
            r#"{"rev":"a","stamp":"1","bench":"b","metric":"m","value":"1","unit":"ns"}"#;
        assert!(validate_trajectory(string_value)
            .unwrap_err()
            .contains("value"));
        assert!(validate_trajectory("not json")
            .unwrap_err()
            .starts_with("line 1"));
        let bad_second = concat!(
            r#"{"rev":"a","stamp":"1","bench":"b","metric":"m","value":1,"unit":"ns"}"#,
            "\n{",
        );
        assert!(validate_trajectory(bad_second)
            .unwrap_err()
            .starts_with("line 2"));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse(r#"{"a" 1}"#).is_err());
        assert!(Json::parse("true false").is_err(), "trailing garbage");
        assert!(Json::parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_stops_at_the_limit_with_its_position() {
        let nest = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let mut at_limit = Json::parse(&nest(MAX_DEPTH)).expect("nesting at the limit parses");
        for _ in 1..MAX_DEPTH {
            at_limit = at_limit.as_array().expect("nested array")[0].clone();
        }
        assert_eq!(at_limit, Json::Arr(Vec::new()));
        assert_eq!(
            Json::parse(&nest(MAX_DEPTH + 1)),
            Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {MAX_DEPTH}"
            ))
        );
        let object = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&object)
            .unwrap_err()
            .starts_with("nesting deeper"));
        // Far past the limit: an error, not a stack overflow.
        assert!(Json::parse(&nest(50_000)).is_err());
    }
}
