//! JSON for the results records, the result line and the Chrome trace.
//! Values and parsing are the bench harness's own
//! (`parsched_bench::harness::{Value, parse_json}`); this module builds and
//! writes them.

pub use parsched_bench::harness::{parse_json, Value as Json};
use std::fmt::Write as _;

pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

pub fn str(s: impl Into<String>) -> Json {
    Json::Str(s.into())
}

/// Field access on objects.
pub trait Lookup {
    fn get(&self, key: &str) -> Option<&Json>;
}

impl Lookup for Json {
    fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?.get(key)
    }
}

/// Serialize `v` on one line. Strings escape only what `parse_json` reads
/// back (quote, backslash, newline, tab, carriage return); the benchmark
/// writes no other control characters.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, v);
    out
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_value(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(x) if x.is_finite() => {
            let _ = write!(out, "{x}");
        }
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, x) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, x);
            }
            out.push(']');
        }
        Json::Obj(pairs) => {
            out.push('{');
            for (i, (k, x)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, k);
                out.push_str(": ");
                write_value(out, x);
            }
            out.push('}');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_parser_reads_back_what_the_benchmark_writes() {
        let v = obj([
            ("a", Json::Num(1.25)),
            (
                "b",
                Json::Arr(vec![Json::Bool(true), Json::Null, str("x\"y\\\n")]),
            ),
            (
                "c",
                obj([("d", Json::Num(-3e-7)), ("e", Json::Num(f64::NAN))]),
            ),
        ]);
        let back = parse_json(&render(&v)).expect("valid JSON");
        assert_eq!(back.get("a"), Some(&Json::Num(1.25)));
        assert_eq!(back.get("b"), v.get("b"));
        assert_eq!(
            back.get("c").and_then(|c| c.get("d")),
            Some(&Json::Num(-3e-7))
        );
        assert_eq!(back.get("c").and_then(|c| c.get("e")), Some(&Json::Null));
    }
}
