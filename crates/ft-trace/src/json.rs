//! The workspace's JSON codec: a value type with writer and parser, with no
//! external dependencies (this build environment has no crates.io access).
//! Every artifact under `results/` and every repro file goes through it.

use ft_metrics::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use std::fmt;

/// Deepest nesting of arrays and objects [`JsonVal::parse`] follows. The
/// parser recurses once per level, so an unbounded document would overflow
/// the stack of whichever thread read it; nothing this workspace writes
/// nests beyond a dozen levels.
pub const MAX_DEPTH: usize = 128;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonVal {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer, exact over all of `u64` and `i64`. What the parser makes
    /// of a number written without fraction or exponent.
    Int(i128),
    /// Any other number. A whole `Num` below 9e15 is written as an integer
    /// and therefore reads back as [`JsonVal::Int`].
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JsonVal>),
    /// An object; insertion order is preserved.
    Obj(Vec<(String, JsonVal)>),
}

impl JsonVal {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonVal> {
        match self {
            JsonVal::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric value, if this is a number (an integer beyond 2^53 rounds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonVal::Int(n) => Some(*n as f64),
            JsonVal::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The number as an integer, if it is one: nothing is truncated.
    fn as_int(&self) -> Option<i128> {
        match self {
            JsonVal::Int(n) => Some(*n),
            // The cast is exact: it saturates only beyond 1.7e38.
            JsonVal::Num(n) if n.fract() == 0.0 && n.abs() < 1e38 => Some(*n as i128),
            _ => None,
        }
    }

    /// Numeric value as u64; `None` for a negative, fractional or
    /// out-of-range number.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_int().and_then(|n| u64::try_from(n).ok())
    }

    /// Numeric value as i64; `None` for a fractional or out-of-range number.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_int().and_then(|n| i64::try_from(n).ok())
    }

    /// Array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JsonVal]> {
        match self {
            JsonVal::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object fields in insertion order, if this is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonVal)]> {
        match self {
            JsonVal::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Parse a JSON document.
    ///
    /// # Errors
    ///
    /// A description with the byte offset of the first syntax error.
    pub fn parse(s: &str) -> Result<JsonVal, String> {
        let b = s.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(b, &mut pos, 0)?;
        skip_ws(b, &mut pos);
        if pos != b.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }
}

fn escape(s: &str, out: &mut String) {
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

impl fmt::Display for JsonVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JsonVal::Null => write!(f, "null"),
            JsonVal::Bool(b) => write!(f, "{b}"),
            JsonVal::Int(n) => write!(f, "{n}"),
            JsonVal::Num(n) => {
                if !n.is_finite() {
                    // JSON has no Infinity/NaN tokens; `null` keeps the
                    // document parseable (callers needing the distinction
                    // encode non-finite values as strings).
                    write!(f, "null")
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    write!(f, "{}", *n as i64)
                } else {
                    write!(f, "{n:e}")
                }
            }
            JsonVal::Str(s) => {
                let mut out = String::new();
                escape(s, &mut out);
                f.write_str(&out)
            }
            JsonVal::Arr(items) => {
                write!(f, "[")?;
                for (i, it) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{it}")?;
                }
                write!(f, "]")
            }
            JsonVal::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    let mut out = String::new();
                    escape(k, &mut out);
                    write!(f, "{out}: {v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, lit: &str) -> Result<(), String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(())
    } else {
        Err(format!("expected `{lit}` at byte {pos}"))
    }
}

fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<JsonVal, String> {
    skip_ws(b, pos);
    if depth > MAX_DEPTH {
        return Err(format!("nested deeper than {MAX_DEPTH} levels at byte {pos}"));
    }
    match b.get(*pos) {
        None => Err("unexpected end of input".to_string()),
        Some(b'n') => expect(b, pos, "null").map(|()| JsonVal::Null),
        Some(b't') => expect(b, pos, "true").map(|()| JsonVal::Bool(true)),
        Some(b'f') => expect(b, pos, "false").map(|()| JsonVal::Bool(false)),
        Some(b'"') => parse_string(b, pos).map(JsonVal::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(JsonVal::Arr(items));
            }
            loop {
                items.push(parse_value(b, pos, depth + 1)?);
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(JsonVal::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(b, pos);
            if b.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(JsonVal::Obj(fields));
            }
            loop {
                skip_ws(b, pos);
                let key = parse_string(b, pos)?;
                skip_ws(b, pos);
                expect(b, pos, ":")?;
                let val = parse_value(b, pos, depth + 1)?;
                fields.push((key, val));
                skip_ws(b, pos);
                match b.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(JsonVal::Obj(fields));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(b, pos),
    }
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    if b.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape".to_string())?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar.
                let rest = std::str::from_utf8(&b[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<JsonVal, String> {
    let start = *pos;
    while *pos < b.len()
        && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    // Digits only (and a sign): an integer, unless it is too long for one.
    if let Ok(n) = text.parse::<i128>() {
        return Ok(JsonVal::Int(n));
    }
    text.parse::<f64>()
        .map(JsonVal::Num)
        .map_err(|_| format!("bad number at byte {start}"))
}

/// An `ft-metrics` snapshot as a JSON object — the document of
/// `results/METRICS.json` and the `metrics` block of a conformance repro:
/// `counters` and `gauges` by name, `histograms` as `{count, sum, buckets}`
/// with the buckets as sparse `[index, count]` pairs. Names come out sorted.
pub fn metrics_to_json(snap: &MetricsSnapshot) -> JsonVal {
    fn by_name<T>(m: &std::collections::BTreeMap<String, T>, f: impl Fn(&T) -> JsonVal) -> JsonVal {
        JsonVal::Obj(m.iter().map(|(k, v)| (k.clone(), f(v))).collect())
    }
    let int = |n: u64| JsonVal::Int(n.into());
    let histogram = |h: &HistogramSnapshot| {
        let buckets = h.buckets.iter().enumerate().filter(|(_, &b)| b != 0);
        JsonVal::Obj(vec![
            ("count".to_string(), int(h.count)),
            ("sum".to_string(), int(h.sum)),
            (
                "buckets".to_string(),
                JsonVal::Arr(
                    buckets
                        .map(|(i, &b)| JsonVal::Arr(vec![int(i as u64), int(b)]))
                        .collect(),
                ),
            ),
        ])
    };
    JsonVal::Obj(vec![
        ("counters".to_string(), by_name(&snap.counters, |&v| int(v))),
        ("gauges".to_string(), by_name(&snap.gauges, |&v| JsonVal::Int(v.into()))),
        ("histograms".to_string(), by_name(&snap.histograms, histogram)),
    ])
}

/// Inverse of [`metrics_to_json`]; a missing section is empty.
///
/// # Errors
///
/// Describes the first value that is not what its section holds: a counter
/// that is not a `u64`, a gauge that is not an `i64`, a malformed histogram.
pub fn metrics_from_json(v: &JsonVal) -> Result<MetricsSnapshot, String> {
    let section = |key: &str| v.get(key).and_then(JsonVal::as_obj).unwrap_or_default();
    let mut snap = MetricsSnapshot::default();
    for (k, v) in section("counters") {
        let n = v.as_u64().ok_or_else(|| format!("counter `{k}` not a u64"))?;
        snap.counters.insert(k.clone(), n);
    }
    for (k, v) in section("gauges") {
        let n = v.as_i64().ok_or_else(|| format!("gauge `{k}` not an i64"))?;
        snap.gauges.insert(k.clone(), n);
    }
    for (k, v) in section("histograms") {
        let field = |name: &str| {
            v.get(name)
                .and_then(JsonVal::as_u64)
                .ok_or_else(|| format!("histogram `{k}` missing `{name}`"))
        };
        let mut h = HistogramSnapshot::empty();
        h.count = field("count")?;
        h.sum = field("sum")?;
        let buckets = v
            .get("buckets")
            .and_then(JsonVal::as_arr)
            .ok_or_else(|| format!("histogram `{k}` missing `buckets`"))?;
        for pair in buckets {
            let Some([i, b]) = pair.as_arr() else {
                return Err(format!(
                    "histogram `{k}`: bucket entry is not an [index, count] pair"
                ));
            };
            let (Some(i), Some(b)) = (i.as_u64(), b.as_u64()) else {
                return Err(format!("histogram `{k}`: non-integer bucket pair"));
            };
            if (i as usize) < HISTOGRAM_BUCKETS {
                h.buckets[i as usize] = b;
            }
        }
        snap.histograms.insert(k.clone(), h);
    }
    Ok(snap)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let v = JsonVal::Obj(vec![
            ("name".to_string(), JsonVal::Str("split \"x\"\n".to_string())),
            ("n".to_string(), JsonVal::Int(42)),
            ("err".to_string(), JsonVal::Num(1.25e-3)),
            ("flag".to_string(), JsonVal::Bool(true)),
            (
                "ops".to_string(),
                JsonVal::Arr(vec![JsonVal::Int(-1), JsonVal::Null]),
            ),
        ]);
        let s = v.to_string();
        let back = JsonVal::parse(&s).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn non_finite_numbers_emit_valid_json() {
        // A bare `inf`/`NaN` token would make the whole document
        // unparseable; non-finite numbers degrade to `null`.
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let doc = JsonVal::Obj(vec![("err".to_string(), JsonVal::Num(v))]).to_string();
            let back = JsonVal::parse(&doc).unwrap();
            assert_eq!(back.get("err"), Some(&JsonVal::Null), "{doc}");
        }
    }

    #[test]
    fn parses_whitespace_and_nesting() {
        let v = JsonVal::parse("  { \"a\" : [ 1 , { \"b\" : -2.5e1 } ] }  ").unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_f64(), Some(1.0));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[1]
                .get("b")
                .unwrap()
                .as_f64(),
            Some(-25.0)
        );
    }

    #[test]
    fn integers_are_exact_and_as_u64_does_not_truncate() {
        for n in [u64::MAX as i128, i64::MIN as i128, (1 << 53) + 1, 0] {
            let back = JsonVal::parse(&JsonVal::Int(n).to_string()).unwrap();
            assert_eq!(back, JsonVal::Int(n));
            assert_eq!(back.as_u64(), u64::try_from(n).ok());
            assert_eq!(back.as_i64(), i64::try_from(n).ok());
        }
        // A whole float is an integer however it was spelled; nothing else is.
        assert_eq!(JsonVal::parse("4.2e1").unwrap().as_u64(), Some(42));
        assert_eq!(JsonVal::Num(42.0).as_i64(), Some(42));
        for not_u64 in ["1.5", "-1", "1e30", "18446744073709551616", "\"7\"", "null"] {
            assert_eq!(JsonVal::parse(not_u64).unwrap().as_u64(), None, "{not_u64}");
        }
        assert_eq!(JsonVal::parse("-1").unwrap().as_i64(), Some(-1));
        assert_eq!(JsonVal::parse("9223372036854775808").unwrap().as_i64(), None);
        // Too long for an integer: still a number.
        let long = "1".repeat(60);
        assert_eq!(JsonVal::parse(&long).unwrap().as_f64(), Some(long.parse().unwrap()));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        // On a 2 MiB stack: a test thread's, and an `ft-serve` worker's.
        let parse_deep = |open: &'static str, leaf: &'static str, close: &'static str| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn(move || {
                    let doc = |n: usize| open.repeat(n) + leaf + &close.repeat(n);
                    assert!(JsonVal::parse(&doc(MAX_DEPTH)).is_ok());
                    for n in [MAX_DEPTH + 1, 200_000] {
                        let err = JsonVal::parse(&doc(n)).unwrap_err();
                        assert!(err.contains("nested deeper"), "{err}");
                    }
                })
                .unwrap()
                .join()
                .unwrap();
        };
        parse_deep("[", "1", "]");
        parse_deep("{\"k\": ", "1", "}");
    }

    #[test]
    fn metrics_snapshots_roundtrip_exactly() {
        let m = ft_metrics::Metrics::new();
        assert_eq!(metrics_from_json(&metrics_to_json(&m.snapshot())), Ok(m.snapshot()));
        m.counter("compiled.cache.hit").add(41);
        m.counter("big").add(u64::MAX);
        m.gauge("pool.queue.depth").set(-3);
        let h = m.histogram("engine.vm.run_us");
        for v in [0, 17, 1 << 40] {
            h.record(v);
        }
        let snap = m.snapshot();
        let text = metrics_to_json(&snap).to_string();
        assert!(text.contains("\"big\": 18446744073709551615"), "{text}");
        let back = metrics_from_json(&JsonVal::parse(&text).unwrap());
        assert_eq!(back, Ok(snap));
    }

    #[test]
    fn malformed_metrics_are_rejected() {
        let read = |doc: &str| metrics_from_json(&JsonVal::parse(doc).unwrap());
        assert!(read("{\"counters\": {\"x\": -1}}").is_err());
        assert!(read("{\"counters\": {\"x\": 1.5}}").is_err());
        assert!(read("{\"gauges\": {\"x\": 9223372036854775808}}").is_err());
        assert!(read("{\"histograms\": {\"h\": {\"count\": 1, \"sum\": 1}}}").is_err());
        let pair = |p: &str| {
            read(&format!(
                "{{\"histograms\": {{\"h\": {{\"count\": 1, \"sum\": 1, \"buckets\": [{p}]}}}}}}"
            ))
        };
        assert!(pair("[1, 1]").is_ok());
        assert!(pair("[1]").is_err());
        assert!(pair("[1, 0.5]").is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(JsonVal::parse("{").is_err());
        assert!(JsonVal::parse("[1,]").is_err());
        assert!(JsonVal::parse("\"abc").is_err());
        assert!(JsonVal::parse("{} extra").is_err());
    }
}
