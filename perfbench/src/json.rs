//! Just enough JSON output for the result lines `run.py` reads.

/// A JSON object built field by field, in insertion order.
#[derive(Default)]
pub struct Obj(Vec<String>);

impl Obj {
    /// A number; non-finite values become `null`.
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let text = if value.is_finite() { format!("{value}") } else { "null".to_string() };
        self.0.push(format!("{}: {text}", quote(key)));
        self
    }

    /// A string.
    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.0.push(format!("{}: {}", quote(key), quote(value)));
        self
    }

    /// Already-encoded JSON.
    pub fn raw(mut self, key: &str, json: String) -> Self {
        self.0.push(format!("{}: {json}", quote(key)));
        self
    }

    pub fn finish(self) -> String {
        format!("{{{}}}", self.0.join(", "))
    }
}

/// A JSON array of already-encoded values.
pub fn array(values: impl IntoIterator<Item = String>) -> String {
    format!("[{}]", values.into_iter().collect::<Vec<_>>().join(", "))
}

/// `text` as a JSON string literal.
pub fn quote(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
