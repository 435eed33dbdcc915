//! The benchmark's own span recorder.
//!
//! Spans are recorded from benchmark code, around calls into public product
//! functions — nothing is added inside the product crates. Every timed call
//! goes through [`Recorder::begin`]/[`Recorder::end`] whether or not the run
//! is traced, so traced and untraced runs read the clock the same way and
//! differ only by the push onto the in-memory span list.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call. `parent` indexes the same recorder's span list; `op`
/// is the operation (request, run, cold start) the call belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// A started call; hand it back to [`Recorder::end`].
pub struct Open {
    start: Instant,
    idx: Option<usize>,
}

/// Per-thread span list. Threads of one run share `epoch` so their
/// timestamps line up in the exported trace.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    epoch: Instant,
    pub tid: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(on: bool, epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            on,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// Switch recording: the traced run measures untraced rounds first, to
    /// report what tracing costs, and records a probe loop as one span. Only
    /// between calls that are themselves recorded.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn begin(&mut self, name: &'static str, op: u64) -> Open {
        let idx = self.on.then(|| {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: self.stack.last().copied(),
                op,
            });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open {
            start: Instant::now(),
            idx,
        }
    }

    /// Close a call and return its wall time in microseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if let Some(i) = open.idx {
            let s = &mut self.spans[i];
            s.start_ns = open.start.duration_since(self.epoch).as_nanos() as u64;
            s.end_ns = end.duration_since(self.epoch).as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(i), "spans must close innermost first");
        }
        end.duration_since(open.start).as_nanos() as f64 / 1e3
    }

    /// Wall times (µs) of every span called `name`, keyed by operation id.
    pub fn durations(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.dur_us()))
            .collect()
    }
}

/// Self time of each span: its duration minus the part its direct children
/// cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Per-name totals over a span list.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let own = self_times_ns(spans);
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own_ns) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.end_ns - s.start_ns;
        e.self_ns += own_ns;
    }
    out
}

/// Spans written per thread; totals always cover every span, the file is
/// capped so a 150k-request run does not leave a 50 MB trace behind.
const MAX_EVENTS_PER_THREAD: usize = 20_000;

/// Chrome trace-event JSON (`chrome://tracing`, Perfetto) of the recorders.
pub fn chrome_trace(recorders: &[&Recorder]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    let mut first = true;
    for r in recorders {
        for s in r.spans.iter().take(MAX_EVENTS_PER_THREAD) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"ftbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"op\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                r.tid,
                s.op
            );
        }
    }
    out.push_str("\n],\"displayTimeUnit\":\"ns\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        // root [0,100) has siblings a [10,30) and b [40,90); b has c [50,60).
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 40, 90, Some(0)),
            span("c", 50, 60, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 40, 10]);
        // Self times partition the root: nothing is counted twice or lost.
        assert_eq!(self_times_ns(&spans).iter().sum::<u64>(), 100);
        let agg = by_name(&spans);
        assert_eq!(agg["b"].total_ns, 50);
        assert_eq!(agg["b"].self_ns, 40);
    }

    #[test]
    fn recorder_links_children_to_the_open_span() {
        let mut r = Recorder::new(true, Instant::now(), 0);
        let outer = r.begin("outer", 7);
        let inner = r.begin("inner", 7);
        r.end(inner);
        let us = r.end(outer);
        assert!(us >= 0.0);
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.spans[1].parent, Some(0));
        assert!(r.spans[1].start_ns >= r.spans[0].start_ns);
        assert!(r.spans[1].end_ns <= r.spans[0].end_ns);
        let own = self_times_ns(&r.spans);
        assert_eq!(own[0] + own[1], r.spans[0].end_ns - r.spans[0].start_ns);
    }

    #[test]
    fn recorder_off_times_but_records_nothing() {
        let mut r = Recorder::new(false, Instant::now(), 0);
        let o = r.begin("x", 0);
        assert!(r.end(o) >= 0.0);
        assert!(r.spans.is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let mut r = Recorder::new(true, Instant::now(), 3);
        let o = r.begin("call", 1);
        r.end(o);
        let text = chrome_trace(&[&r]);
        let v = ft_trace::JsonVal::parse(&text).expect("valid JSON");
        let events = v
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("ph").and_then(|p| p.as_str()), Some("X"));
        assert_eq!(events[0].get("tid").and_then(|p| p.as_u64()), Some(3));
    }
}
