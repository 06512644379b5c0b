//! JSON in and out. Reading reuses the product's own reader
//! (`xg_artifact::JsonValue`); this module adds the matching writer, since
//! the workspace carries no JSON dependency.

pub use xg_artifact::JsonValue as Json;

pub fn num(x: f64) -> Json {
    Json::Num(x)
}

pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

pub fn obj<'a>(fields: impl IntoIterator<Item = (&'a str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The number behind a value, if it is one.
pub fn as_f64(v: &Json) -> Option<f64> {
    match v {
        Json::Num(n) => Some(*n),
        _ => None,
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write(out: &mut String, v: &Json) {
    match v {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // Rust prints the shortest text that reads back to the same f64, so
        // a measured value keeps all its digits. JSON has no NaN or infinity.
        Json::Num(n) if n.is_finite() => out.push_str(&n.to_string()),
        Json::Num(_) => out.push_str("null"),
        Json::Str(s) => write_str(out, s),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write(out, item);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (k, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(out, k);
                out.push_str(": ");
                write(out, item);
            }
            out.push('}');
        }
    }
}

/// Render on one line.
pub fn render(v: &Json) -> String {
    let mut out = String::new();
    write(&mut out, v);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_values_read_back_unchanged() {
        let v = obj([
            ("name", text("a \"quoted\"\nline")),
            ("value", num(0.1 + 0.2)),
            ("count", num(1500.0)),
            (
                "list",
                Json::Arr(vec![Json::Bool(true), Json::Null, num(-0.5)]),
            ),
        ]);
        let line = render(&v);
        assert!(!line.contains('\n'));
        assert!(line.contains("0.30000000000000004") && line.contains("\"count\": 1500"));
        assert_eq!(Json::parse(&line).unwrap(), v);
    }
}
