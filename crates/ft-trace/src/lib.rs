//! # ft-trace — compilation provenance and runtime profiling
//!
//! The paper's central usability claim is that dependence-checked schedule
//! primitives let callers "aggressively try transformations without worrying
//! about their correctness" (§4.3), and its evaluation explains every speedup
//! with a hardware-counter breakdown (Fig. 17). Neither story is possible
//! without observability: this crate is the shared substrate the whole stack
//! reports into.
//!
//! Three kinds of records are collected:
//!
//! * **Spans** ([`Span`], RAII): timed phases of compilation and execution —
//!   frontend lowering, each simplification pass, each `auto_*` pass,
//!   codegen, runtime execution. Exported as Chrome trace-event "X" events.
//! * **Decisions** ([`Decision`]): one entry per schedule-primitive attempt,
//!   with its arguments, verdict, and — for rejections — the *structured*
//!   violated dependences ([`ft_analysis::FoundDep`]), not just a message.
//! * **Profiles** ([`RunProfile`]): per-statement attribution of the runtime
//!   [`PerfCounters`](StmtCounters) deltas, a Fig. 17-style breakdown per
//!   loop instead of per run.
//!
//! There is deliberately **no global state**: a [`TraceSink`] is an explicit
//! cheaply-clonable handle (an `Arc` around the buffers) that callers thread
//! through the APIs they want observed. Every instrumented component stores
//! an `Option<TraceSink>`; when it is `None` the instrumentation is a single
//! branch on a local field — nothing is allocated, locked, or timestamped.

pub use ft_analysis::{Carrier, DepKind, FoundDep};
use ft_ir::StmtId;
use parking_lot::Mutex;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod report;

pub use chrome::{chrome_trace, validate_chrome_trace, write_chrome_trace, TraceStats};
pub use json::{metrics_from_json, metrics_to_json, JsonVal};
pub use report::{decision_line, provenance_report};

/// Track (Chrome `tid`) that compilation-phase spans land on.
pub const TRACK_COMPILE: u64 = 1;
/// Track that runtime-execution spans land on.
pub const TRACK_RUNTIME: u64 = 2;
/// Track that metrics counter samples (`"C"` events) land on.
pub const TRACK_COUNTERS: u64 = 3;
/// First track used for per-statement profile rendering (one per run).
pub const TRACK_PROFILE_BASE: u64 = 100;

/// One sampled value of a named runtime metric, exported as a Chrome
/// trace-event `"C"` (counter) event so Perfetto renders the series as a
/// counter track. Samples usually come from [`TraceSink::metrics_sample`]
/// freezing an `ft_metrics` registry at a meaningful moment (after a
/// benchmark repetition, at the end of a run).
#[derive(Debug, Clone, PartialEq)]
pub struct CounterSample {
    /// Metric name, e.g. `"compiled.cache.hit"`.
    pub name: String,
    /// Sampled value (counters and histogram counts are exact in `f64`
    /// far beyond any realistic magnitude).
    pub value: f64,
    /// Timestamp, microseconds since the sink's epoch.
    pub ts_us: u64,
}

/// One completed timed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Human-readable name, e.g. `"auto_fuse"` or `"simplify"`.
    pub name: String,
    /// Category, e.g. `"frontend"`, `"pass"`, `"autoschedule"`, `"runtime"`.
    pub cat: String,
    /// Start, microseconds since the sink's epoch.
    pub ts_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Track (Chrome `tid`) the span belongs to.
    pub track: u64,
    /// Extra key/value annotations.
    pub args: Vec<(String, String)>,
}

/// Outcome of one schedule-primitive attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The transformation was applied.
    Applied,
    /// The transformation was rejected (legality or structural failure).
    Rejected,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Applied => write!(f, "applied"),
            Verdict::Rejected => write!(f, "rejected"),
        }
    }
}

/// One entry of the schedule decision log: a primitive attempt, its
/// arguments, and how it was judged.
#[derive(Debug, Clone)]
pub struct Decision {
    /// Enclosing auto-schedule pass (`"auto_fuse"`, …), if any.
    pub pass: Option<String>,
    /// Primitive name (`"split"`, `"parallelize"`, `"fuse"`, …).
    pub primitive: String,
    /// Rendered argument list, e.g. `"(Loop(\"i\"), 32)"`.
    pub args: String,
    /// Whether the primitive was applied or rejected.
    pub verdict: Verdict,
    /// Rejection message (primitive-specific), if rejected.
    pub reason: Option<String>,
    /// Structured dependences that blocked the transformation, if the
    /// rejection came from the dependence engine.
    pub deps: Vec<FoundDep>,
    /// Timestamp, microseconds since the sink's epoch.
    pub ts_us: u64,
}

/// Counter deltas attributed to one statement, *exclusive* of its children
/// (so the per-statement values of a profile sum exactly to the run's
/// whole-run aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StmtCounters {
    /// Times execution entered this statement (loop-body trips for loops).
    pub trips: u64,
    /// Floating-point operations.
    pub flops: u64,
    /// Integer/addressing operations.
    pub int_ops: u64,
    /// Bytes that missed the simulated L2 (DRAM traffic).
    pub dram_bytes: u64,
    /// Bytes served by the simulated L2.
    pub l2_bytes: u64,
    /// Bytes accessed in scratch memories.
    pub scratch_bytes: u64,
    /// Raw bytes requested from heap/global memory.
    pub heap_bytes: u64,
    /// Modeled serial cycles spent directly in this statement.
    pub cycles: f64,
}

impl StmtCounters {
    /// Accumulate another delta into this one. Saturating: long-lived
    /// aggregation (profiles merged across many runs) pins at `u64::MAX`
    /// instead of wrapping to a small, plausible-looking value.
    pub fn add(&mut self, other: &StmtCounters) {
        self.trips = self.trips.saturating_add(other.trips);
        self.flops = self.flops.saturating_add(other.flops);
        self.int_ops = self.int_ops.saturating_add(other.int_ops);
        self.dram_bytes = self.dram_bytes.saturating_add(other.dram_bytes);
        self.l2_bytes = self.l2_bytes.saturating_add(other.l2_bytes);
        self.scratch_bytes = self.scratch_bytes.saturating_add(other.scratch_bytes);
        self.heap_bytes = self.heap_bytes.saturating_add(other.heap_bytes);
        self.cycles += other.cycles;
    }
}

/// One node of a per-statement runtime profile (a loop, library call, or the
/// synthetic root representing straight-line code outside any loop).
#[derive(Debug, Clone)]
pub struct ProfileNode {
    /// IR statement this node corresponds to; `None` for the root.
    pub stmt: Option<StmtId>,
    /// Short description, e.g. `"for i in 0..1024"` or `"gemm"`.
    pub desc: String,
    /// Index of the parent node; `None` for the root (node 0).
    pub parent: Option<usize>,
    /// Exclusive counter deltas attributed to this node.
    pub counters: StmtCounters,
}

/// A complete per-statement attribution of one runtime execution.
#[derive(Debug, Clone)]
pub struct RunProfile {
    /// Name of the executed function.
    pub func: String,
    /// Profile tree in preorder; node 0 is the root.
    pub nodes: Vec<ProfileNode>,
}

impl RunProfile {
    /// Sum of all exclusive per-node counters — by construction equal to the
    /// run's whole-run aggregates for flops/bytes.
    pub fn totals(&self) -> StmtCounters {
        let mut t = StmtCounters::default();
        for n in &self.nodes {
            t.add(&n.counters);
        }
        t
    }
}

#[derive(Default)]
struct TraceData {
    events: Vec<SpanEvent>,
    decisions: Vec<Decision>,
    profiles: Vec<RunProfile>,
    counters: Vec<CounterSample>,
}

/// Handle to a trace buffer. Cloning is cheap (it shares the buffer); all
/// clones report into the same trace and share one time epoch.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<Mutex<TraceData>>,
    epoch: Instant,
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let d = self.inner.lock();
        write!(
            f,
            "TraceSink({} spans, {} decisions, {} profiles)",
            d.events.len(),
            d.decisions.len(),
            d.profiles.len()
        )
    }
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// Create an empty sink; its time epoch is "now".
    pub fn new() -> TraceSink {
        TraceSink {
            inner: Arc::new(Mutex::new(TraceData::default())),
            epoch: Instant::now(),
        }
    }

    /// Microseconds elapsed since this sink was created.
    pub fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// Open a span on the compile track; it is recorded when dropped.
    pub fn span(&self, cat: &str, name: &str) -> Span {
        self.span_on(TRACK_COMPILE, cat, name)
    }

    /// Open a span on an explicit track.
    pub fn span_on(&self, track: u64, cat: &str, name: &str) -> Span {
        Span {
            sink: self.clone(),
            name: name.to_string(),
            cat: cat.to_string(),
            track,
            start_us: self.now_us(),
            args: Vec::new(),
        }
    }

    /// Record an already-completed span.
    pub fn push_event(&self, ev: SpanEvent) {
        self.inner.lock().events.push(ev);
    }

    /// Append an entry to the schedule decision log.
    pub fn decision(&self, d: Decision) {
        self.inner.lock().decisions.push(d);
    }

    /// Attach a per-statement runtime profile.
    pub fn profile(&self, p: RunProfile) {
        self.inner.lock().profiles.push(p);
    }

    /// Record one counter sample (a point on a Chrome counter track).
    pub fn counter(&self, name: &str, value: f64) {
        let s = CounterSample {
            name: name.to_string(),
            value,
            ts_us: self.now_us(),
        };
        self.inner.lock().counters.push(s);
    }

    /// Sample every instrument of a frozen metrics snapshot onto the
    /// counter track, stamped "now": counters and gauges by value,
    /// histograms as `<name>.count` / `<name>.sum`. Call at meaningful
    /// boundaries (end of a run, end of a benchmark repetition) to chart
    /// cache traffic, pool activity, and kernel counts over trace time.
    pub fn metrics_sample(&self, snap: &ft_metrics::MetricsSnapshot) {
        let ts_us = self.now_us();
        let mut d = self.inner.lock();
        for (name, &v) in &snap.counters {
            d.counters.push(CounterSample {
                name: name.clone(),
                value: v as f64,
                ts_us,
            });
        }
        for (name, &v) in &snap.gauges {
            d.counters.push(CounterSample {
                name: name.clone(),
                value: v as f64,
                ts_us,
            });
        }
        for (name, h) in &snap.histograms {
            d.counters.push(CounterSample {
                name: format!("{name}.count"),
                value: h.count as f64,
                ts_us,
            });
            d.counters.push(CounterSample {
                name: format!("{name}.sum"),
                value: h.sum as f64,
                ts_us,
            });
        }
    }

    /// Snapshot of the recorded spans.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.inner.lock().events.clone()
    }

    /// Snapshot of the decision log.
    pub fn decisions(&self) -> Vec<Decision> {
        self.inner.lock().decisions.clone()
    }

    /// Snapshot of the recorded runtime profiles.
    pub fn profiles(&self) -> Vec<RunProfile> {
        self.inner.lock().profiles.clone()
    }

    /// Snapshot of the recorded counter samples.
    pub fn counter_samples(&self) -> Vec<CounterSample> {
        self.inner.lock().counters.clone()
    }
}

/// An open timed span; records a [`SpanEvent`] when dropped.
pub struct Span {
    sink: TraceSink,
    name: String,
    cat: String,
    track: u64,
    start_us: u64,
    args: Vec<(String, String)>,
}

impl Span {
    /// Attach a key/value annotation (shown in the trace viewer's `args`).
    pub fn arg(&mut self, key: &str, value: impl fmt::Display) {
        self.args.push((key.to_string(), value.to_string()));
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let end = self.sink.now_us();
        self.sink.push_event(SpanEvent {
            name: std::mem::take(&mut self.name),
            cat: std::mem::take(&mut self.cat),
            ts_us: self.start_us,
            dur_us: end.saturating_sub(self.start_us),
            track: self.track,
            args: std::mem::take(&mut self.args),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_analysis::{Carrier, DepKind};

    #[test]
    fn spans_record_on_drop_with_nesting_order() {
        let sink = TraceSink::new();
        {
            let mut outer = sink.span("pass", "outer");
            outer.arg("k", 3);
            let _inner = sink.span("pass", "inner");
        }
        let evs = sink.events();
        // Inner drops first, so it is recorded first.
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[0].name, "inner");
        assert_eq!(evs[1].name, "outer");
        assert_eq!(evs[1].args, vec![("k".to_string(), "3".to_string())]);
        assert!(evs[0].ts_us >= evs[1].ts_us);
        assert!(evs[0].ts_us + evs[0].dur_us <= evs[1].ts_us + evs[1].dur_us);
    }

    #[test]
    fn clones_share_one_buffer() {
        let sink = TraceSink::new();
        let clone = sink.clone();
        drop(clone.span("cat", "from-clone"));
        assert_eq!(sink.events().len(), 1);
    }

    #[test]
    fn decisions_keep_structured_deps() {
        let sink = TraceSink::new();
        sink.decision(Decision {
            pass: Some("auto_parallelize".to_string()),
            primitive: "parallelize".to_string(),
            args: "(\"i\", OpenMp)".to_string(),
            verdict: Verdict::Rejected,
            reason: Some("carried dependence".to_string()),
            deps: vec![FoundDep {
                kind: DepKind::Raw,
                var: "y".to_string(),
                source: StmtId(7),
                sink: StmtId(9),
                carrier: Carrier::Independent,
                certain: true,
            }],
            ts_us: sink.now_us(),
        });
        let ds = sink.decisions();
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].deps[0].var, "y");
        assert_eq!(ds[0].deps[0].kind, DepKind::Raw);
    }

    #[test]
    fn profile_totals_sum_exclusive_counters() {
        let p = RunProfile {
            func: "f".to_string(),
            nodes: vec![
                ProfileNode {
                    stmt: None,
                    desc: "run".to_string(),
                    parent: None,
                    counters: StmtCounters {
                        flops: 1,
                        ..Default::default()
                    },
                },
                ProfileNode {
                    stmt: Some(StmtId(4)),
                    desc: "for i".to_string(),
                    parent: Some(0),
                    counters: StmtCounters {
                        flops: 10,
                        dram_bytes: 64,
                        ..Default::default()
                    },
                },
            ],
        };
        let t = p.totals();
        assert_eq!(t.flops, 11);
        assert_eq!(t.dram_bytes, 64);
    }
}
