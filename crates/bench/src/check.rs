//! The consolidated bench manifest (`BENCH.json`): its row types, a
//! minimal JSON parser, and the tolerance rule the gate applies.
//!
//! The container has no JSON dependency, so this module carries a minimal
//! recursive-descent parser covering exactly the JSON subset the manifest
//! uses (objects, arrays, strings, f64 numbers, booleans, null).
//!
//! The comparison rule is deliberately forgiving of machine noise: a row
//! fails only when its fresh median exceeds
//! `baseline * (1 + tolerance) + 2 ms`. The relative term absorbs
//! steady-state jitter (25 % default — the observed run-to-run spread of
//! sub-100 ms mapping runs on a loaded CI box), the absolute term keeps
//! near-zero rows from failing on scheduler hiccups.

/// Extra absolute slack added on top of the relative tolerance, so rows
/// measuring a few milliseconds don't fail on a single timer-granularity or
/// scheduler blip.
pub const ABSOLUTE_SLACK_MS: f64 = 2.0;

/// A parsed JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (always held as `f64`).
    Num(f64),
    /// A string literal.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte-offset-tagged message on malformed input or trailing
/// garbage.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
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
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let escaped = match self.peek() {
                        Some(b'"') => '"',
                        Some(b'\\') => '\\',
                        Some(b'/') => '/',
                        Some(b'n') => '\n',
                        Some(b't') => '\t',
                        Some(b'r') => '\r',
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    };
                    out.push(escaped);
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 is copied through verbatim.
                    let start = self.pos;
                    while self.bytes.get(self.pos).is_some_and(|&b| b != b'"' && b != b'\\') {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| format!("invalid UTF-8 at byte {start}"))?,
                    );
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }
}

/// One row of a manifest section, with typed field accessors whose errors
/// name the row and the field.
struct Row<'a> {
    index: usize,
    json: &'a Json,
}

impl Row<'_> {
    fn field(&self, key: &str) -> Result<&Json, String> {
        self.json.get(key).ok_or_else(|| format!("row {} missing `{key}`", self.index))
    }

    fn mistyped(&self, key: &str, what: &str) -> String {
        format!("row {}: `{key}` is not {what}", self.index)
    }

    fn text(&self, key: &str) -> Result<String, String> {
        self.field(key)?.as_str().map(str::to_string).ok_or_else(|| self.mistyped(key, "a string"))
    }

    fn num(&self, key: &str) -> Result<f64, String> {
        self.field(key)?.as_f64().ok_or_else(|| self.mistyped(key, "a number"))
    }

    fn flag(&self, key: &str) -> Result<bool, String> {
        self.field(key)?.as_bool().ok_or_else(|| self.mistyped(key, "a boolean"))
    }

    /// The CGRA side length of a `"8x8"`-style `cgra` field.
    fn cgra(&self) -> Result<usize, String> {
        self.field("cgra")?
            .as_str()
            .and_then(|s| s.split('x').next())
            .and_then(|s| s.parse::<usize>().ok())
            .ok_or_else(|| self.mistyped("cgra", "like \"8x8\""))
    }
}

/// Parses every row of the array `doc[key]` with `parse_row`.
fn section<T>(
    doc: &Json,
    key: &str,
    parse_row: impl Fn(&Row<'_>) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let rows = doc
        .get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("baseline has no `{key}` array"))?;
    rows.iter().enumerate().map(|(index, json)| parse_row(&Row { index, json })).collect()
}

/// One `scaling` row: the full mapping pipeline on one kernel and array.
#[derive(Clone, Debug, PartialEq)]
pub struct ScalingRow {
    /// Kernel name (`suite::by_name` key).
    pub kernel: String,
    /// CGRA side length (`8` for an 8x8 array).
    pub cgra: usize,
    /// Median wall time in milliseconds.
    pub median_ms: f64,
    /// Whether `--gate` re-measures this row (only fast rows are gated).
    pub check: bool,
}

/// Extracts the `scaling` rows from a parsed manifest.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn scaling_rows(doc: &Json) -> Result<Vec<ScalingRow>, String> {
    section(doc, "scaling", |row| {
        Ok(ScalingRow {
            kernel: row.text("kernel")?,
            cgra: row.cgra()?,
            median_ms: row.num("median_ms")?,
            check: row.flag("check")?,
        })
    })
}

/// One `portfolio_race` row: himap, bhc and exact raced first-feasible.
#[derive(Clone, Debug, PartialEq)]
pub struct RaceRow {
    /// Kernel name (`suite::by_name` key).
    pub kernel: String,
    /// CGRA side length.
    pub cgra: usize,
    /// Median race wall time in milliseconds.
    pub median_ms: f64,
    /// The deterministic winner's backend name.
    pub winner: String,
    /// The winning mapping's II.
    pub ii: usize,
    /// Whether `--gate` re-measures this row.
    pub check: bool,
}

/// Extracts the `portfolio_race` rows from a parsed manifest.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn race_rows(doc: &Json) -> Result<Vec<RaceRow>, String> {
    section(doc, "portfolio_race", |row| {
        Ok(RaceRow {
            kernel: row.text("kernel")?,
            cgra: row.cgra()?,
            median_ms: row.num("median_ms")?,
            winner: row.text("winner")?,
            ii: row.num("ii")? as usize,
            check: row.flag("check")?,
        })
    })
}

/// One `heterogeneity` row: the same kernel mapped on the homogeneous and
/// on the capability-restricted (corner multipliers + edge-only memory)
/// fabric of one array size.
#[derive(Clone, Debug, PartialEq)]
pub struct HetRow {
    /// Kernel name (`suite::by_name` key).
    pub kernel: String,
    /// CGRA side length.
    pub cgra: usize,
    /// II achieved on the homogeneous fabric.
    pub hom_ii: usize,
    /// II achieved on the heterogeneous fabric (≥ `hom_ii` by construction).
    pub het_ii: usize,
    /// Median wall time of the heterogeneous mapping in milliseconds.
    pub median_ms: f64,
    /// Whether `--gate` re-measures this row.
    pub check: bool,
}

/// Extracts the `heterogeneity` rows from a parsed manifest.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn het_rows(doc: &Json) -> Result<Vec<HetRow>, String> {
    section(doc, "heterogeneity", |row| {
        Ok(HetRow {
            kernel: row.text("kernel")?,
            cgra: row.cgra()?,
            hom_ii: row.num("hom_ii")? as usize,
            het_ii: row.num("het_ii")? as usize,
            median_ms: row.num("median_ms")?,
            check: row.flag("check")?,
        })
    })
}

/// One `whole_array` row: a kernel mapped by the main path on a whole
/// array, pristine or with a dead square corner, and verified clean.
#[derive(Clone, Debug, PartialEq)]
pub struct ArrayRow {
    /// Kernel name (`suite::by_name` key).
    pub kernel: String,
    /// CGRA side length (`64` for a 64x64 array).
    pub cgra: usize,
    /// Side of the dead corner `(0..k, 0..k)`; 0 on the pristine fabric.
    pub dead_corner: usize,
    /// Median wall time of map-plus-verify in milliseconds.
    pub median_ms: f64,
    /// Node count of the largest window index the walk routed on.
    pub index_nodes: usize,
    /// FU utilization of the mapping.
    pub utilization: f64,
    /// Whether `--gate` re-measures this row.
    pub check: bool,
}

/// Extracts the `whole_array` rows from a parsed manifest.
///
/// # Errors
///
/// Returns a message naming the missing or mistyped field.
pub fn array_rows(doc: &Json) -> Result<Vec<ArrayRow>, String> {
    section(doc, "whole_array", |row| {
        Ok(ArrayRow {
            kernel: row.text("kernel")?,
            cgra: row.cgra()?,
            dead_corner: row.num("dead_corner")? as usize,
            median_ms: row.num("median_ms")?,
            index_nodes: row.num("index_nodes")? as usize,
            utilization: row.num("utilization")?,
            check: row.flag("check")?,
        })
    })
}

/// The pass/fail threshold for a fresh measurement against a baseline
/// median: `baseline * (1 + tolerance) + 2 ms`.
pub fn limit_ms(baseline_ms: f64, tolerance: f64) -> f64 {
    baseline_ms * (1.0 + tolerance) + ABSOLUTE_SLACK_MS
}

#[allow(clippy::unwrap_used, clippy::expect_used)]
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_nesting() {
        let doc = parse(r#"{"a": [1, -2.5, 3e2], "b": {"c": true, "d": null}, "e": "x\ny"}"#)
            .expect("parses");
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[1].as_f64(), Some(-2.5));
        assert_eq!(doc.get("a").unwrap().as_array().unwrap()[2].as_f64(), Some(300.0));
        assert_eq!(doc.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(doc.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(doc.get("e").unwrap().as_str(), Some("x\ny"));
    }

    #[test]
    fn parses_empty_containers_and_whitespace() {
        assert_eq!(parse(" { } ").unwrap(), Json::Obj(vec![]));
        assert_eq!(parse("[\n]").unwrap(), Json::Arr(vec![]));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\": 1} x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
    }

    #[test]
    fn round_trips_a_scaling_baseline_shape() {
        let text = r#"{
          "scaling": [
            {"kernel": "gemm", "cgra": "8x8", "median_ms": 18.5, "check": true},
            {"kernel": "floyd-warshall", "cgra": "4x4", "median_ms": 900.0, "check": false}
          ]
        }"#;
        let rows = scaling_rows(&parse(text).expect("parses")).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kernel, "gemm");
        assert_eq!(rows[0].cgra, 8);
        assert!(rows[0].check);
        assert!(!rows[1].check);
        assert_eq!(rows[1].cgra, 4);
    }

    #[test]
    fn round_trips_a_portfolio_baseline_shape() {
        let text = r#"{
          "bench": "pr6_portfolio_race",
          "portfolio_race": [
            {"kernel": "mvt", "cgra": "4x4", "median_ms": 12.0, "winner": "himap",
             "ii": 2, "check": true}
          ]
        }"#;
        let rows = race_rows(&parse(text).expect("parses")).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kernel, "mvt");
        assert_eq!(rows[0].winner, "himap");
        assert_eq!(rows[0].ii, 2);
        assert!(rows[0].check);
    }

    #[test]
    fn round_trips_a_heterogeneity_baseline_shape() {
        let text = r#"{
          "heterogeneity": [
            {"kernel": "stencil2d", "cgra": "4x4", "hom_ii": 4, "het_ii": 16,
             "median_ms": 45.0, "check": true}
          ]
        }"#;
        let rows = het_rows(&parse(text).expect("parses")).expect("rows");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kernel, "stencil2d");
        assert_eq!(rows[0].cgra, 4);
        assert_eq!(rows[0].hom_ii, 4);
        assert_eq!(rows[0].het_ii, 16);
        assert!(rows[0].check);
    }

    #[test]
    fn round_trips_a_whole_array_baseline_shape() {
        let text = r#"{
          "whole_array": [
            {"kernel": "gemm", "cgra": "64x64", "dead_corner": 0, "median_ms": 180.0,
             "index_nodes": 2024, "utilization": 1, "check": true},
            {"kernel": "floyd-warshall", "cgra": "64x64", "dead_corner": 8,
             "median_ms": 600.0, "index_nodes": 132, "utilization": 0.5833333333333334,
             "check": false}
          ]
        }"#;
        let rows = array_rows(&parse(text).expect("parses")).expect("rows");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].kernel, "gemm");
        assert_eq!(rows[0].cgra, 64);
        assert_eq!(rows[0].dead_corner, 0);
        assert_eq!(rows[0].index_nodes, 2024);
        assert!(rows[0].check);
        assert_eq!(rows[1].dead_corner, 8);
        assert_eq!(rows[1].utilization, 0.5833333333333334, "utilization round-trips exactly");
        assert!(!rows[1].check);
    }

    #[test]
    fn missing_fields_are_named() {
        let text = r#"{"scaling": [{"kernel": "gemm"}]}"#;
        let err = scaling_rows(&parse(text).expect("parses")).unwrap_err();
        assert!(err.contains("cgra"), "unhelpful error: {err}");
        let text = r#"{"scaling": [{"kernel": 3, "cgra": "4x4"}]}"#;
        let err = scaling_rows(&parse(text).expect("parses")).unwrap_err();
        assert!(err.contains("`kernel` is not a string"), "unhelpful error: {err}");
    }

    #[test]
    fn limit_combines_relative_and_absolute_slack() {
        assert!((limit_ms(100.0, 0.25) - 127.0).abs() < 1e-9);
        // Near-zero baselines still get the absolute floor.
        assert!(limit_ms(0.1, 0.25) > 2.0);
    }
}
