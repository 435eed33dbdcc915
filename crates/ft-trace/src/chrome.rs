//! Chrome trace-event export and validation.
//!
//! The emitted JSON follows the Trace Event Format's "JSON Object Format":
//! a top-level object with a `traceEvents` array of `"X"` (complete),
//! `"i"` (instant), `"C"` (counter) and `"M"` (metadata) events. The files
//! load directly in Perfetto (<https://ui.perfetto.dev>) or
//! `chrome://tracing`.
//!
//! Layout:
//!
//! * track 1 (`tid` 1): compilation spans — frontend, passes, schedule,
//!   autoschedule, codegen — plus schedule decisions as instant events;
//! * track 2: runtime-execution spans (wall-clock);
//! * track 3: metrics counter samples (`"C"` events, one series per metric
//!   name — cache traffic, pool activity, kernel dispatch counts);
//! * tracks 100+: one per recorded [`RunProfile`], rendering the
//!   per-statement breakdown as a flame graph in *modeled cycles* (1 cycle
//!   is drawn as 1 µs); a parent's bar covers its children, and the
//!   uncovered tail is the statement's own exclusive time.

use crate::json::JsonVal;
use crate::{
    CounterSample, Decision, RunProfile, SpanEvent, TraceSink, TRACK_COMPILE, TRACK_COUNTERS,
    TRACK_PROFILE_BASE,
};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;

fn num(n: u64) -> JsonVal {
    JsonVal::Num(n as f64)
}

fn obj(fields: Vec<(&str, JsonVal)>) -> JsonVal {
    JsonVal::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn meta_event(name: &str, tid: u64, args: JsonVal) -> JsonVal {
    obj(vec![
        ("name", JsonVal::Str(name.to_string())),
        ("ph", JsonVal::Str("M".to_string())),
        ("pid", num(1)),
        ("tid", num(tid)),
        ("args", args),
    ])
}

fn span_event(ev: &SpanEvent) -> JsonVal {
    let args = JsonVal::Obj(
        ev.args
            .iter()
            .map(|(k, v)| (k.clone(), JsonVal::Str(v.clone())))
            .collect(),
    );
    obj(vec![
        ("name", JsonVal::Str(ev.name.clone())),
        ("cat", JsonVal::Str(ev.cat.clone())),
        ("ph", JsonVal::Str("X".to_string())),
        ("ts", num(ev.ts_us)),
        ("dur", num(ev.dur_us)),
        ("pid", num(1)),
        ("tid", num(ev.track)),
        ("args", args),
    ])
}

fn dep_json(d: &ft_analysis::FoundDep) -> JsonVal {
    obj(vec![
        ("kind", JsonVal::Str(format!("{:?}", d.kind))),
        ("var", JsonVal::Str(d.var.clone())),
        ("source", num(d.source.0)),
        ("sink", num(d.sink.0)),
        ("carrier", JsonVal::Str(format!("{:?}", d.carrier))),
        ("certain", JsonVal::Bool(d.certain)),
    ])
}

fn decision_event(d: &Decision) -> JsonVal {
    let mut args = vec![
        ("primitive", JsonVal::Str(d.primitive.clone())),
        ("args", JsonVal::Str(d.args.clone())),
        ("verdict", JsonVal::Str(d.verdict.to_string())),
    ];
    if let Some(p) = &d.pass {
        args.push(("pass", JsonVal::Str(p.clone())));
    }
    if let Some(r) = &d.reason {
        args.push(("reason", JsonVal::Str(r.clone())));
    }
    if !d.deps.is_empty() {
        args.push(("deps", JsonVal::Arr(d.deps.iter().map(dep_json).collect())));
    }
    obj(vec![
        (
            "name",
            JsonVal::Str(format!("{} {}", d.primitive, d.verdict)),
        ),
        ("cat", JsonVal::Str("schedule".to_string())),
        ("ph", JsonVal::Str("i".to_string())),
        ("ts", num(d.ts_us)),
        ("pid", num(1)),
        ("tid", num(TRACK_COMPILE)),
        ("s", JsonVal::Str("t".to_string())),
        ("args", obj(args)),
    ])
}

/// A metrics sample as a Chrome `"C"` (counter) event: the event name is
/// the metric name (each distinct name renders as its own counter track in
/// Perfetto), the series value rides in `args.value`.
fn counter_event(c: &CounterSample) -> JsonVal {
    obj(vec![
        ("name", JsonVal::Str(c.name.clone())),
        ("cat", JsonVal::Str("metrics".to_string())),
        ("ph", JsonVal::Str("C".to_string())),
        ("ts", num(c.ts_us)),
        ("pid", num(1)),
        ("tid", num(TRACK_COUNTERS)),
        ("args", obj(vec![("value", JsonVal::Num(c.value))])),
    ])
}

/// Render one profile as a flame graph on `track`. Durations are modeled
/// cycles drawn as microseconds; a node's bar is its *inclusive* time, so
/// children are always contained in their parent.
fn profile_events(p: &RunProfile, track: u64, out: &mut Vec<JsonVal>) {
    let n = p.nodes.len();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, node) in p.nodes.iter().enumerate() {
        if let Some(par) = node.parent {
            children[par].push(i);
        }
    }
    // Inclusive integer duration, bottom-up (children come after their
    // parent in preorder, so iterate in reverse).
    let mut incl = vec![0u64; n];
    for i in (0..n).rev() {
        let own = p.nodes[i].counters.cycles.round().max(0.0) as u64;
        incl[i] = own + children[i].iter().map(|&c| incl[c]).sum::<u64>();
    }
    // Start offsets: children laid out consecutively from the parent start.
    let mut start = vec![0u64; n];
    for i in 0..n {
        let mut cursor = start[i];
        for &c in &children[i] {
            start[c] = cursor;
            cursor += incl[c];
        }
    }
    let totals = p.totals();
    for (i, node) in p.nodes.iter().enumerate() {
        let c = &node.counters;
        let mut args = vec![
            ("trips", num(c.trips)),
            ("flops", num(c.flops)),
            ("int_ops", num(c.int_ops)),
            ("dram_bytes", num(c.dram_bytes)),
            ("l2_bytes", num(c.l2_bytes)),
            ("scratch_bytes", num(c.scratch_bytes)),
            ("heap_bytes", num(c.heap_bytes)),
            ("excl_cycles", JsonVal::Num(c.cycles)),
        ];
        if let Some(id) = node.stmt {
            args.push(("stmt", num(id.0)));
        }
        if i == 0 {
            args.push(("total_flops", num(totals.flops)));
            args.push(("total_dram_bytes", num(totals.dram_bytes)));
            args.push(("total_l2_bytes", num(totals.l2_bytes)));
        }
        out.push(obj(vec![
            ("name", JsonVal::Str(node.desc.clone())),
            ("cat", JsonVal::Str("profile".to_string())),
            ("ph", JsonVal::Str("X".to_string())),
            ("ts", num(start[i])),
            ("dur", num(incl[i])),
            ("pid", num(1)),
            ("tid", num(track)),
            ("args", obj(args)),
        ]));
    }
}

/// Serialize everything a sink collected as Chrome trace-event JSON.
pub fn chrome_trace(sink: &TraceSink) -> String {
    let events = sink.events();
    let decisions = sink.decisions();
    let profiles = sink.profiles();
    let counters = sink.counter_samples();

    let mut out: Vec<JsonVal> = Vec::new();
    out.push(meta_event(
        "process_name",
        0,
        obj(vec![("name", JsonVal::Str("ft-trace".to_string()))]),
    ));
    let mut track_names: BTreeMap<u64, String> = BTreeMap::new();
    track_names.insert(TRACK_COMPILE, "compile".to_string());
    track_names.insert(crate::TRACK_RUNTIME, "runtime".to_string());
    if !counters.is_empty() {
        track_names.insert(TRACK_COUNTERS, "metrics".to_string());
    }
    for ev in &events {
        track_names
            .entry(ev.track)
            .or_insert_with(|| format!("track {}", ev.track));
    }
    for (r, p) in profiles.iter().enumerate() {
        track_names.insert(
            TRACK_PROFILE_BASE + r as u64,
            format!("profile: {} (modeled cycles)", p.func),
        );
    }
    for (tid, name) in &track_names {
        out.push(meta_event(
            "thread_name",
            *tid,
            obj(vec![("name", JsonVal::Str(name.clone()))]),
        ));
    }
    for ev in &events {
        out.push(span_event(ev));
    }
    for d in &decisions {
        out.push(decision_event(d));
    }
    for c in &counters {
        out.push(counter_event(c));
    }
    for (r, p) in profiles.iter().enumerate() {
        profile_events(p, TRACK_PROFILE_BASE + r as u64, &mut out);
    }

    JsonVal::Obj(vec![
        ("traceEvents".to_string(), JsonVal::Arr(out)),
        (
            "displayTimeUnit".to_string(),
            JsonVal::Str("ms".to_string()),
        ),
    ])
    .to_string()
}

/// Write the Chrome trace to `path`, creating parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(sink: &TraceSink, path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    std::fs::write(path, chrome_trace(sink))
}

/// Summary statistics of a validated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// `"X"` complete events.
    pub spans: usize,
    /// `"i"` instant events.
    pub instants: usize,
    /// `"C"` counter events.
    pub counters: usize,
    /// Distinct `(pid, tid)` tracks carrying spans.
    pub tracks: usize,
}

/// Validate that `text` is well-formed Chrome trace-event JSON: a
/// `traceEvents` array whose events all carry `ph`/`name`/`pid`/`tid`,
/// whose `"X"` events have non-negative numeric `ts`/`dur`, whose `"C"`
/// counter events have a numeric `ts` and an all-numeric `args` series,
/// and whose spans nest properly (no partial overlap) within each track.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn validate_chrome_trace(text: &str) -> Result<TraceStats, String> {
    let root = JsonVal::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing `traceEvents` field")?
        .as_arr()
        .ok_or("`traceEvents` is not an array")?;
    let mut spans_by_track: HashMap<(u64, u64), Vec<(u64, u64)>> = HashMap::new();
    let mut n_spans = 0usize;
    let mut n_instants = 0usize;
    let mut n_counters = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(JsonVal::as_str)
            .ok_or(format!("event {i}: missing string `ph`"))?;
        ev.get("name")
            .and_then(JsonVal::as_str)
            .ok_or(format!("event {i}: missing string `name`"))?;
        let pid = ev
            .get("pid")
            .and_then(JsonVal::as_u64)
            .ok_or(format!("event {i}: missing numeric `pid`"))?;
        let tid = ev
            .get("tid")
            .and_then(JsonVal::as_u64)
            .ok_or(format!("event {i}: missing numeric `tid`"))?;
        match ph {
            "X" => {
                let ts = ev
                    .get("ts")
                    .and_then(JsonVal::as_f64)
                    .ok_or(format!("event {i}: `X` event missing numeric `ts`"))?;
                let dur = ev
                    .get("dur")
                    .and_then(JsonVal::as_f64)
                    .ok_or(format!("event {i}: `X` event missing numeric `dur`"))?;
                if ts < 0.0 || dur < 0.0 {
                    return Err(format!("event {i}: negative ts/dur"));
                }
                spans_by_track
                    .entry((pid, tid))
                    .or_default()
                    .push((ts as u64, dur as u64));
                n_spans += 1;
            }
            "i" => {
                ev.get("ts")
                    .and_then(JsonVal::as_f64)
                    .ok_or(format!("event {i}: `i` event missing numeric `ts`"))?;
                n_instants += 1;
            }
            "C" => {
                ev.get("ts")
                    .and_then(JsonVal::as_f64)
                    .ok_or(format!("event {i}: `C` event missing numeric `ts`"))?;
                let args = ev
                    .get("args")
                    .and_then(JsonVal::as_obj)
                    .ok_or(format!("event {i}: `C` event missing object `args`"))?;
                if args.is_empty() {
                    return Err(format!("event {i}: `C` event has an empty series"));
                }
                for (k, v) in args {
                    if v.as_f64().is_none() {
                        return Err(format!("event {i}: `C` event series `{k}` is not numeric"));
                    }
                }
                n_counters += 1;
            }
            "M" => {}
            other => return Err(format!("event {i}: unknown phase `{other}`")),
        }
    }
    // Nesting check: within a track, sorted by (start asc, dur desc), every
    // span must be fully contained in the enclosing open span, if any.
    for ((pid, tid), mut spans) in spans_by_track.clone() {
        spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut stack: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for (ts, dur) in spans {
            let end = ts + dur;
            while let Some(&(_, top_end)) = stack.last() {
                if top_end <= ts {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&(top_ts, top_end)) = stack.last() {
                if end > top_end {
                    return Err(format!(
                        "track {pid}/{tid}: span [{ts}, {end}) partially overlaps \
                         enclosing span [{top_ts}, {top_end})"
                    ));
                }
            }
            stack.push((ts, end));
        }
    }
    Ok(TraceStats {
        events: events.len(),
        spans: n_spans,
        instants: n_instants,
        counters: n_counters,
        tracks: spans_by_track.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ProfileNode, StmtCounters};
    use ft_ir::StmtId;

    fn sink_with_everything() -> TraceSink {
        let sink = TraceSink::new();
        {
            let _outer = sink.span("pass", "simplify");
            let _inner = sink.span("pass", "const_fold");
        }
        sink.decision(crate::Decision {
            pass: Some("auto_fuse".to_string()),
            primitive: "fuse".to_string(),
            args: "(#3, #7)".to_string(),
            verdict: crate::Verdict::Rejected,
            reason: Some("would reverse a dependence".to_string()),
            deps: vec![ft_analysis::FoundDep {
                kind: ft_analysis::DepKind::Raw,
                var: "y".to_string(),
                source: StmtId(5),
                sink: StmtId(9),
                carrier: ft_analysis::Carrier::Independent,
                certain: true,
            }],
            ts_us: sink.now_us(),
        });
        sink.profile(RunProfile {
            func: "subdivnet".to_string(),
            nodes: vec![
                ProfileNode {
                    stmt: None,
                    desc: "run".to_string(),
                    parent: None,
                    counters: StmtCounters {
                        cycles: 2.0,
                        ..Default::default()
                    },
                },
                ProfileNode {
                    stmt: Some(StmtId(4)),
                    desc: "for i".to_string(),
                    parent: Some(0),
                    counters: StmtCounters {
                        flops: 10,
                        cycles: 8.0,
                        ..Default::default()
                    },
                },
            ],
        });
        sink
    }

    #[test]
    fn export_validates_and_counts() {
        let sink = sink_with_everything();
        let text = chrome_trace(&sink);
        let stats = validate_chrome_trace(&text).unwrap();
        assert_eq!(stats.instants, 1);
        // 2 compile spans + 2 profile nodes.
        assert_eq!(stats.spans, 4);
        assert!(stats.tracks >= 2);
    }

    #[test]
    fn decision_deps_survive_export() {
        let sink = sink_with_everything();
        let text = chrome_trace(&sink);
        let root = JsonVal::parse(&text).unwrap();
        let evs = root.get("traceEvents").unwrap().as_arr().unwrap();
        let dec = evs
            .iter()
            .find(|e| e.get("ph").and_then(JsonVal::as_str) == Some("i"))
            .unwrap();
        let deps = dec
            .get("args")
            .unwrap()
            .get("deps")
            .unwrap()
            .as_arr()
            .unwrap();
        assert_eq!(deps[0].get("var").unwrap().as_str(), Some("y"));
        assert_eq!(deps[0].get("kind").unwrap().as_str(), Some("Raw"));
        assert_eq!(deps[0].get("source").unwrap().as_u64(), Some(5));
    }

    #[test]
    fn metrics_snapshots_export_as_counter_tracks() {
        let sink = sink_with_everything();
        let m = sink.metrics();
        m.counter("compiled.cache.hit").add(3);
        m.gauge("pool.queue.peak_depth").set(7);
        m.gauge("custom.series").set(-2);
        m.histogram("engine.interp.run_us").record(100);
        sink.sample_metrics();
        let text = chrome_trace(&sink);
        let stats = validate_chrome_trace(&text).unwrap();
        // counter + two gauges + histogram count/sum.
        assert_eq!(stats.counters, 5, "{text}");
        let root = JsonVal::parse(&text).unwrap();
        let evs = root.get("traceEvents").unwrap().as_arr().unwrap();
        let hit = evs
            .iter()
            .find(|e| {
                e.get("ph").and_then(JsonVal::as_str) == Some("C")
                    && e.get("name").and_then(JsonVal::as_str) == Some("compiled.cache.hit")
            })
            .expect("cache-hit counter event");
        assert_eq!(
            hit.get("args").unwrap().get("value").unwrap().as_f64(),
            Some(3.0)
        );
        assert_eq!(
            hit.get("tid").unwrap().as_u64(),
            Some(crate::TRACK_COUNTERS)
        );
        // The counters track is named in metadata.
        assert!(text.contains("\"metrics\""), "{text}");
    }

    #[test]
    fn validator_rejects_malformed_counter_events() {
        let no_args = r#"{"traceEvents": [
            {"name":"c","ph":"C","ts":0,"pid":1,"tid":3}
        ]}"#;
        assert!(validate_chrome_trace(no_args).unwrap_err().contains("args"));
        let non_numeric = r#"{"traceEvents": [
            {"name":"c","ph":"C","ts":0,"pid":1,"tid":3,"args":{"value":"x"}}
        ]}"#;
        assert!(
            validate_chrome_trace(non_numeric)
                .unwrap_err()
                .contains("not numeric"),
            "{:?}",
            validate_chrome_trace(non_numeric)
        );
    }

    #[test]
    fn validator_rejects_partial_overlap() {
        let bad = r#"{"traceEvents": [
            {"name":"a","ph":"X","ts":0,"dur":10,"pid":1,"tid":1},
            {"name":"b","ph":"X","ts":5,"dur":10,"pid":1,"tid":1}
        ]}"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("partially overlaps"), "{err}");
    }

    #[test]
    fn validator_rejects_missing_fields() {
        assert!(validate_chrome_trace("[]").is_err());
        let no_ph = r#"{"traceEvents": [{"name":"a","pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(no_ph).unwrap_err().contains("ph"));
        let no_dur = r#"{"traceEvents": [{"name":"a","ph":"X","ts":0,"pid":1,"tid":1}]}"#;
        assert!(validate_chrome_trace(no_dur).unwrap_err().contains("dur"));
    }

    #[test]
    fn profile_children_are_contained_in_parents() {
        // The root has 2 exclusive cycles and the child 8 inclusive; the
        // exported root bar must cover the child bar.
        let sink = sink_with_everything();
        let text = chrome_trace(&sink);
        let root = JsonVal::parse(&text).unwrap();
        let evs = root.get("traceEvents").unwrap().as_arr().unwrap();
        let bars: Vec<(&str, u64, u64)> = evs
            .iter()
            .filter(|e| {
                e.get("cat").and_then(JsonVal::as_str) == Some("profile")
                    && e.get("ph").and_then(JsonVal::as_str) == Some("X")
            })
            .map(|e| {
                (
                    e.get("name").and_then(JsonVal::as_str).unwrap(),
                    e.get("ts").and_then(JsonVal::as_u64).unwrap(),
                    e.get("dur").and_then(JsonVal::as_u64).unwrap(),
                )
            })
            .collect();
        assert_eq!(bars.len(), 2);
        let run = bars.iter().find(|b| b.0 == "run").unwrap();
        let child = bars.iter().find(|b| b.0 == "for i").unwrap();
        assert_eq!(run.2, 10); // 2 own + 8 child
        assert!(child.1 >= run.1 && child.1 + child.2 <= run.1 + run.2);
    }
}
