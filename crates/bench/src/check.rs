//! The bench manifest (`BENCH.json`): its one row schema, a minimal JSON
//! parser, and the rules the gate judges a fresh sample by.
//!
//! The container has no JSON dependency, so this module carries a minimal
//! recursive-descent parser covering exactly the JSON subset the manifest
//! uses (objects, arrays, strings, f64 numbers, booleans, null).
//!
//! Every row is judged by the same rules ([`judge`]): its fresh median may
//! exceed the committed one by at most 25 % + 2 ms (and must stay under a
//! 1 s ceiling on 64x64), and its II, window index size, utilization and
//! winner may not get worse. The relative term absorbs run-to-run jitter on
//! a loaded box; the absolute term keeps millisecond rows from failing on a
//! scheduler hiccup.

use std::fmt;

/// Relative slack on a row's committed median.
pub const TOLERANCE: f64 = 0.25;

/// Absolute slack added on top of [`TOLERANCE`], so rows measuring a few
/// milliseconds don't fail on a single timer-granularity or scheduler blip.
pub const ABSOLUTE_SLACK_MS: f64 = 2.0;

/// Array side of the whole-array rows.
pub const WHOLE_ARRAY_SIDE: usize = 64;

/// Unconditional ceiling on every whole-array median, independent of the
/// committed baseline: a 64x64 map+verify that takes a second has lost the
/// scalability argument even if the baseline drifted with it.
pub const WHOLE_ARRAY_WALL_LIMIT_MS: f64 = 1000.0;

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

/// The fabric a row maps on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fabric {
    /// The homogeneous array with every PE alive.
    Pristine,
    /// `CapabilityMap::heterogeneous`: corner multipliers, edge-only memory.
    Heterogeneous,
    /// Every PE of the corner `(0..8, 0..8)` dead.
    DeadCorner8,
}

/// How a row maps its kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// `HiMap::map` with default options.
    HiMap,
    /// `race` over himap, bhc and exact, first feasible wins.
    Race,
}

impl Fabric {
    const ALL: [Fabric; 3] = [Fabric::Pristine, Fabric::Heterogeneous, Fabric::DeadCorner8];

    /// The manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            Fabric::Pristine => "pristine",
            Fabric::Heterogeneous => "heterogeneous",
            Fabric::DeadCorner8 => "dead-corner-8",
        }
    }
}

impl Backend {
    const ALL: [Backend; 2] = [Backend::HiMap, Backend::Race];

    /// The manifest spelling.
    pub fn name(self) -> &'static str {
        match self {
            Backend::HiMap => "himap",
            Backend::Race => "race",
        }
    }
}

/// What one measurement of a row yields: the median wall time and the
/// deterministic companion values of the last sample.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Sample {
    /// Median wall time of map (or race) plus verify, in milliseconds.
    pub median_ms: f64,
    /// The mapping's II.
    pub ii: usize,
    /// FU utilization of the mapping.
    pub utilization: f64,
    /// Node count of the largest window index the walk routed on.
    pub index_nodes: usize,
    /// Name of the backend that produced the mapping.
    pub winner: String,
}

/// One gated row: what is measured (kernel, array, fabric, backend) and
/// the committed sample it is judged against.
#[derive(Clone, Debug, PartialEq)]
pub struct Row {
    /// Kernel name (`suite::by_name` key).
    pub kernel: String,
    /// CGRA side length (`8` for an 8x8 array).
    pub cgra: usize,
    /// The fabric the kernel maps on.
    pub fabric: Fabric,
    /// How the kernel is mapped.
    pub backend: Backend,
    /// The committed measurement.
    pub sample: Sample,
}

impl fmt::Display for Row {
    /// The row's key, e.g. `gemm 64x64 dead-corner-8 himap`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (c, fabric, backend) = (self.cgra, self.fabric.name(), self.backend.name());
        f.pad(&format!("{} {c}x{c} {fabric} {backend}", self.kernel))
    }
}

impl Row {
    /// The row as one line of the manifest's `rows` array.
    pub fn to_json(&self) -> String {
        let (c, s) = (self.cgra, &self.sample);
        format!(
            "{{\"kernel\": \"{}\", \"cgra\": \"{c}x{c}\", \"fabric\": \"{}\", \
             \"backend\": \"{}\", \"median_ms\": {:.3}, \"ii\": {}, \"utilization\": {}, \
             \"index_nodes\": {}, \"winner\": \"{}\"}}",
            self.kernel,
            self.fabric.name(),
            self.backend.name(),
            s.median_ms,
            s.ii,
            s.utilization,
            s.index_nodes,
            s.winner
        )
    }

    /// The largest fresh median that passes: `median * 1.25 + 2 ms`, and at
    /// most [`WHOLE_ARRAY_WALL_LIMIT_MS`] on the whole array.
    pub fn limit_ms(&self) -> f64 {
        let limit = self.sample.median_ms * (1.0 + TOLERANCE) + ABSOLUTE_SLACK_MS;
        if self.cgra == WHOLE_ARRAY_SIDE {
            limit.min(WHOLE_ARRAY_WALL_LIMIT_MS)
        } else {
            limit
        }
    }
}

/// Judges a fresh sample against its committed row and returns every rule
/// it breaks; the row passes when the list is empty.
pub fn judge(row: &Row, fresh: &Sample) -> Vec<String> {
    let committed = &row.sample;
    let mut broken = Vec::new();
    if fresh.median_ms > row.limit_ms() {
        broken.push(format!("median {:.3} ms > limit {:.3} ms", fresh.median_ms, row.limit_ms()));
    }
    if fresh.ii > committed.ii {
        broken.push(format!("II {} > {}", fresh.ii, committed.ii));
    }
    if fresh.index_nodes > committed.index_nodes {
        broken.push(format!("index {} > {} nodes", fresh.index_nodes, committed.index_nodes));
    }
    if fresh.utilization < committed.utilization {
        broken.push(format!("utilization {} < {}", fresh.utilization, committed.utilization));
    }
    if fresh.winner != committed.winner {
        broken.push(format!("winner {} != {}", fresh.winner, committed.winner));
    }
    broken
}

/// The rule [`Row::limit_ms`] applies, in words.
pub fn limit_rule() -> String {
    let (side, ceiling) = (WHOLE_ARRAY_SIDE, WHOLE_ARRAY_WALL_LIMIT_MS);
    format!(
        "median * {} + {ABSOLUTE_SLACK_MS} ms, at most {ceiling} ms on {side}x{side}",
        1.0 + TOLERANCE
    )
}

/// The manifest `rows` are written into: the protocol, then one line per
/// row.
pub fn manifest(rows: &[Row]) -> String {
    let lines: Vec<String> = rows.iter().map(|r| format!("    {}", r.to_json())).collect();
    format!(
        "{{\n  \"bench\": \"gate\",\n  \"protocol\": \"map (or race) + verify, 1 warmup, median of 5 \
         wall-clock samples; limit {}\",\n  \"rows\": [\n{}\n  ]\n}}\n",
        limit_rule(),
        lines.join(",\n")
    )
}

/// Extracts the `rows` array of a parsed manifest.
///
/// # Errors
///
/// Returns a message naming the row index and the missing, mistyped or
/// unknown field.
pub fn rows(doc: &Json) -> Result<Vec<Row>, String> {
    let rows = doc.get("rows").and_then(Json::as_array).ok_or("manifest has no `rows` array")?;
    rows.iter().enumerate().map(|(index, json)| row(index, json)).collect()
}

fn row(index: usize, json: &Json) -> Result<Row, String> {
    let field = |key: &str| json.get(key).ok_or_else(|| format!("row {index} missing `{key}`"));
    let bad = |key: &str, what: &str| format!("row {index}: `{key}` is not {what}");
    let text = |key: &str| field(key)?.as_str().ok_or_else(|| bad(key, "a string"));
    let num = |key: &str| field(key)?.as_f64().ok_or_else(|| bad(key, "a number"));
    let count = |key: &str| {
        num(key).and_then(|n| {
            if n >= 0.0 && n.fract() == 0.0 {
                Ok(n as usize)
            } else {
                Err(bad(key, "a count"))
            }
        })
    };
    let cgra = text("cgra")?;
    let fabric = text("fabric")?;
    let backend = text("backend")?;
    Ok(Row {
        kernel: text("kernel")?.to_string(),
        cgra: cgra
            .split_once('x')
            .filter(|(r, c)| r == c)
            .and_then(|(r, _)| r.parse().ok())
            .ok_or_else(|| bad("cgra", "like \"8x8\""))?,
        fabric: Fabric::ALL
            .into_iter()
            .find(|f| f.name() == fabric)
            .ok_or_else(|| format!("row {index}: unknown fabric `{fabric}`"))?,
        backend: Backend::ALL
            .into_iter()
            .find(|b| b.name() == backend)
            .ok_or_else(|| format!("row {index}: unknown backend `{backend}`"))?,
        sample: Sample {
            median_ms: num("median_ms")?,
            ii: count("ii")?,
            utilization: num("utilization")?,
            index_nodes: count("index_nodes")?,
            winner: text("winner")?.to_string(),
        },
    })
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
        assert_eq!(doc.get("b").unwrap().get("c"), Some(&Json::Bool(true)));
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

    /// One row per fabric and backend value.
    fn sample_rows() -> Vec<Row> {
        let row =
            |kernel: &str, cgra, fabric, backend, median_ms, ii, utilization, index_nodes| Row {
                kernel: kernel.into(),
                cgra,
                fabric,
                backend,
                sample: Sample { median_ms, ii, utilization, index_nodes, winner: "himap".into() },
            };
        vec![
            row("gemm", 4, Fabric::Pristine, Backend::HiMap, 2.5, 8, 1.0, 48),
            row("mvt", 4, Fabric::Pristine, Backend::Race, 6.25, 2, 0.5, 32),
            row("stencil2d", 4, Fabric::Heterogeneous, Backend::HiMap, 40.0, 16, 0.25, 64),
            row(
                "floyd-warshall",
                64,
                Fabric::DeadCorner8,
                Backend::HiMap,
                600.0,
                3,
                0.5833333333333334,
                132,
            ),
        ]
    }

    #[test]
    fn manifest_round_trips_every_fabric_and_backend() {
        let written = sample_rows();
        let read = rows(&parse(&manifest(&written)).expect("parses")).expect("rows");
        assert_eq!(read, written, "utilization and every key round-trip exactly");
        assert_eq!(read[3].to_string(), "floyd-warshall 64x64 dead-corner-8 himap");
    }

    #[test]
    fn missing_and_mistyped_fields_are_named_with_their_row() {
        let one = |row: &str| format!(r#"{{"rows": [{}, {row}]}}"#, sample_rows()[0].to_json());
        let err = |text: String| rows(&parse(&text).expect("parses")).unwrap_err();
        let e = err(one(r#"{"kernel": "gemm"}"#));
        assert!(e.contains("row 1") && e.contains("`cgra`"), "unhelpful error: {e}");
        let e = err(one(&sample_rows()[0].to_json().replace(r#""ii": 8, "#, "")));
        assert_eq!(e, "row 1 missing `ii`");
        let e = err(one(&sample_rows()[0].to_json().replace(r#""gemm""#, "3")));
        assert_eq!(e, "row 1: `kernel` is not a string");
        let e = err(one(&sample_rows()[0].to_json().replace(r#""ii": 8"#, r#""ii": 8.5"#)));
        assert_eq!(e, "row 1: `ii` is not a count");
        let e = err(one(&sample_rows()[0].to_json().replace("4x4", "4x8")));
        assert_eq!(e, r#"row 1: `cgra` is not like "8x8""#);
    }

    #[test]
    fn unknown_fabric_and_backend_are_rejected_with_their_row() {
        let json = sample_rows()[0].to_json();
        let err = |row: String| rows(&parse(&format!(r#"{{"rows": [{row}]}}"#)).expect("parses"));
        let e = err(json.replace("pristine", "faulty")).unwrap_err();
        assert_eq!(e, "row 0: unknown fabric `faulty`");
        let e = err(json.replace("himap\", \"median", "bhc\", \"median")).unwrap_err();
        assert_eq!(e, "row 0: unknown backend `bhc`");
    }

    /// Sample row `index` judged against a copy of its sample that `change` edited.
    fn judged(index: usize, change: impl FnOnce(&mut Sample)) -> Vec<String> {
        let row = sample_rows().swap_remove(index);
        let mut fresh = row.sample.clone();
        change(&mut fresh);
        judge(&row, &fresh)
    }

    #[test]
    fn an_unchanged_sample_passes() {
        for row in sample_rows() {
            assert_eq!(judge(&row, &row.sample), Vec::<String>::new(), "{row}");
        }
    }

    #[test]
    fn a_median_over_the_limit_fails() {
        // 2.5 ms * 1.25 + 2 ms = 5.125 ms.
        assert!(judged(0, |s| s.median_ms = 5.125).is_empty());
        assert_eq!(judged(0, |s| s.median_ms = 5.2), ["median 5.200 ms > limit 5.125 ms"]);
    }

    #[test]
    fn a_whole_array_median_over_one_second_fails() {
        // 900 ms * 1.25 + 2 ms = 1127 ms, but a 64x64 row stops at 1 s.
        let mut row = sample_rows().swap_remove(3);
        row.sample.median_ms = 900.0;
        let fresh = Sample { median_ms: 1000.5, ..row.sample.clone() };
        assert_eq!(judge(&row, &fresh), ["median 1000.500 ms > limit 1000.000 ms"]);
    }

    #[test]
    fn a_larger_ii_fails() {
        assert_eq!(judged(0, |s| s.ii = 9), ["II 9 > 8"]);
        assert!(judged(0, |s| s.ii = 7).is_empty());
    }

    #[test]
    fn a_larger_index_fails() {
        assert_eq!(judged(0, |s| s.index_nodes = 49), ["index 49 > 48 nodes"]);
    }

    #[test]
    fn a_smaller_utilization_fails() {
        assert_eq!(judged(1, |s| s.utilization = 0.4375), ["utilization 0.4375 < 0.5"]);
    }

    #[test]
    fn a_different_winner_fails() {
        assert_eq!(judged(1, |s| s.winner = "bhc".into()), ["winner bhc != himap"]);
    }
}
