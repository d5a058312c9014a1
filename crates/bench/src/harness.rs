//! Host facts and the minimal JSON reader the repository benchmark uses.
//!
//! [`host_parallelism`] reports the logical CPUs a run could use, and
//! [`parse_json`] reads JSON into a [`Value`]: the full grammar minus
//! `\u` escapes. The benchmark (`src/bin/benchmark/`) builds its results
//! records from [`Value`]s and reads them back with [`parse_json`], and the
//! trace smoke test parses the exported Chrome trace with it.

use std::collections::BTreeMap;

/// Logical CPUs visible to this process: a sharded run's speedup is only
/// meaningful relative to the cores the host could actually give it.
pub fn host_parallelism() -> u64 {
    std::thread::available_parallelism().map_or(1, |n| n.get() as u64)
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (as an `f64`: integers above 2^53 lose precision).
    Num(f64),
    /// String (no `\u` escapes).
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, insertion-agnostic.
    Obj(BTreeMap<String, Value>),
}

impl Value {
    /// The object's map, when this value is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Obj(m) => Some(m),
            _ => None,
        }
    }
    /// The array's elements, when this value is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Arr(a) => Some(a),
            _ => None,
        }
    }
    /// The number, when this value is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }
    /// The string slice, when this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// Parse a JSON document; `None` on any syntax error.
pub fn parse_json(text: &str) -> Option<Value> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos == bytes.len() {
        Some(v)
    } else {
        None
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Option<Value> {
    skip_ws(b, pos);
    match *b.get(*pos)? {
        b'{' => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Some(Value::Obj(map));
            }
            loop {
                skip_ws(b, pos);
                let key = match parse_value(b, pos)? {
                    Value::Str(s) => s,
                    _ => return None,
                };
                skip_ws(b, pos);
                if b.get(*pos) != Some(&b':') {
                    return None;
                }
                *pos += 1;
                map.insert(key, parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b'}' => {
                        *pos += 1;
                        return Some(Value::Obj(map));
                    }
                    _ => return None,
                }
            }
        }
        b'[' => {
            *pos += 1;
            let mut arr = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Some(Value::Arr(arr));
            }
            loop {
                arr.push(parse_value(b, pos)?);
                skip_ws(b, pos);
                match b.get(*pos)? {
                    b',' => *pos += 1,
                    b']' => {
                        *pos += 1;
                        return Some(Value::Arr(arr));
                    }
                    _ => return None,
                }
            }
        }
        b'"' => {
            *pos += 1;
            let mut s = String::new();
            loop {
                match *b.get(*pos)? {
                    b'"' => {
                        *pos += 1;
                        return Some(Value::Str(s));
                    }
                    b'\\' => {
                        *pos += 1;
                        let c = match *b.get(*pos)? {
                            b'"' => '"',
                            b'\\' => '\\',
                            b'/' => '/',
                            b'n' => '\n',
                            b't' => '\t',
                            b'r' => '\r',
                            _ => return None, // \u escapes are not supported
                        };
                        s.push(c);
                        *pos += 1;
                    }
                    c => {
                        s.push(c as char);
                        *pos += 1;
                    }
                }
            }
        }
        b't' => {
            *pos = pos.checked_add(4)?;
            (b.get(*pos - 4..*pos)? == b"true").then_some(Value::Bool(true))
        }
        b'f' => {
            *pos = pos.checked_add(5)?;
            (b.get(*pos - 5..*pos)? == b"false").then_some(Value::Bool(false))
        }
        b'n' => {
            *pos = pos.checked_add(4)?;
            (b.get(*pos - 4..*pos)? == b"null").then_some(Value::Null)
        }
        _ => {
            let start = *pos;
            while *pos < b.len()
                && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
            {
                *pos += 1;
            }
            std::str::from_utf8(&b[start..*pos])
                .ok()?
                .parse()
                .ok()
                .map(Value::Num)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_rejects_trailing_garbage() {
        assert!(parse_json("{} extra").is_none());
        assert!(parse_json("[1, 2").is_none());
        assert!(parse_json("\"unterminated").is_none());
    }

    #[test]
    fn parser_handles_nesting_and_escapes() {
        let v = parse_json(r#"{"a": [1, -2.5e3, "x\n\"y"], "b": {"c": null, "d": true}}"#)
            .expect("valid json");
        let obj = v.as_object().unwrap();
        let arr = obj.get("a").unwrap().as_array().unwrap();
        assert_eq!(arr[1].as_f64(), Some(-2500.0));
        assert_eq!(arr[2].as_str(), Some("x\n\"y"));
    }
}
