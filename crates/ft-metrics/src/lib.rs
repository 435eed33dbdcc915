//! # ft-metrics — runtime telemetry registry
//!
//! A zero-global-state metrics substrate for the execution engines, plumbed
//! the same way [`ft-trace`]'s `TraceSink` is: a [`Metrics`] handle is a
//! cheap-to-clone `Arc` around a registry, components hold an
//! `Option<Metrics>`, and instrumentation is a no-op when absent. There is
//! deliberately no process-wide default registry — every harness (bench,
//! conformance, serving) builds its own and decides its lifetime.
//!
//! Three instrument kinds:
//!
//! * [`Counter`] — a monotone `u64`, saturating on overflow. Hot-path
//!   increments are a single relaxed atomic add.
//! * [`Gauge`] — a signed level (`i64`), set or adjusted.
//! * [`Histogram`] — 64 fixed log2 buckets over `u64` samples (bucket `k`
//!   holds values with bit length `k`; bucket 0 holds zero; bucket 63 is
//!   the overflow tail). Fixed buckets make merging a bucket-wise add,
//!   which is associative and commutative — histograms recorded
//!   concurrently by pool workers combine to the same result regardless
//!   of worker count or interleaving.
//!
//! Registration (first use of a name) takes a mutex; the returned handles
//! are lock-free thereafter, so hot loops register once and hold the
//! handle. [`Metrics::snapshot`] freezes everything into a
//! [`MetricsSnapshot`] with deterministic (sorted-name) ordering, and
//! [`MetricsSnapshot::diff`] isolates one run's deltas.
//! The JSON form (`results/METRICS.json`) is `ft_trace::metrics_to_json` /
//! `metrics_from_json`: the workspace has one JSON codec, and this crate
//! stays a leaf below it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log2 buckets in a [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Bucket index a sample lands in: its bit length, clamped to the tail.
#[inline]
fn bucket_index(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
}

/// Inclusive upper bound of bucket `k` (`u64::MAX` for the tail bucket).
#[inline]
fn bucket_upper_bound(k: usize) -> u64 {
    if k >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// A monotone counter. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Add one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`, saturating at `u64::MAX` instead of wrapping.
    pub fn add(&self, n: u64) {
        let prev = self.0.fetch_add(n, Ordering::Relaxed);
        if prev.checked_add(n).is_none() {
            // Wrapped: pin to the ceiling. Racy double-saturation still
            // lands on the same value, so this stays deterministic.
            self.0.store(u64::MAX, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A signed level. Cloning shares the underlying cell.
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `d`.
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the level to `v` if it is below (a relaxed running maximum).
    pub fn fetch_max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistogramCore {
    fn new() -> HistogramCore {
        HistogramCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log2 histogram of `u64` samples (typically microseconds
/// or bytes). Cloning shares the underlying cells.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        // The sum saturates: on week-long runs the bucket counts stay
        // meaningful even after the sum pins.
        let _ = self
            .0
            .sum
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s.saturating_add(v))
            });
    }

    /// Record a wall-clock duration in whole microseconds.
    pub fn record_duration_us(&self, d: std::time::Duration) {
        self.record(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// One named registry of instruments behind a [`Metrics`] handle.
#[derive(Debug, Default)]
struct Registry {
    counters: Mutex<BTreeMap<String, Counter>>,
    gauges: Mutex<BTreeMap<String, Gauge>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

/// A cheap-to-clone handle on a metrics registry. All clones observe the
/// same instruments; drop every clone and the registry is gone — there is
/// no global fallback.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<Registry>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// The counter named `name`, registering it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.inner.counters.lock().unwrap();
        m.entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// The gauge named `name`, registering it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.inner.gauges.lock().unwrap();
        m.entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicI64::new(0))))
            .clone()
    }

    /// The histogram named `name`, registering it empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.inner.histograms.lock().unwrap();
        m.entry(name.to_string())
            .or_insert_with(|| Histogram(Arc::new(HistogramCore::new())))
            .clone()
    }

    /// Freeze every instrument into a point-in-time snapshot with
    /// deterministic (sorted-name) iteration order.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(k, h)| {
                let buckets: Vec<u64> = h
                    .0
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect();
                (
                    k.clone(),
                    HistogramSnapshot {
                        buckets,
                        count: h.0.count.load(Ordering::Relaxed),
                        sum: h.0.sum.load(Ordering::Relaxed),
                    },
                )
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// A frozen [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts, `HISTOGRAM_BUCKETS` entries.
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// An empty histogram (all buckets zero).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            ..HistogramSnapshot::default()
        }
    }

    /// Merge `other` into `self` bucket-wise. Associative and commutative,
    /// so per-worker histograms combine deterministically in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < HISTOGRAM_BUCKETS {
            self.buckets.resize(HISTOGRAM_BUCKETS, 0);
        }
        for (i, &b) in other.buckets.iter().enumerate().take(HISTOGRAM_BUCKETS) {
            self.buckets[i] = self.buckets[i].saturating_add(b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Bucket-wise saturating subtraction (for run deltas).
    pub fn diff(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let n = self.buckets.len().max(earlier.buckets.len());
        let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..n)
                .map(|i| get(&self.buckets, i).saturating_sub(get(&earlier.buckets, i)))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the upper bound of the bucket containing the
    /// `q`-th sample (`q` in `[0, 1]`). Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (k, &b) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(b);
            if seen >= rank {
                return bucket_upper_bound(k);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }
}

/// A point-in-time freeze of a registry: sorted-name maps of every
/// instrument. The unit of export, diffing, and cross-worker merging.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histograms by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A gauge's level, 0 when absent.
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// The deltas accumulated since `earlier` was taken from the same
    /// registry: counters and histograms subtract (saturating), gauges are
    /// levels and keep their later value.
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, &v)| (k.clone(), v.saturating_sub(earlier.counter(k))))
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(k, h)| {
                let base = earlier.histograms.get(k);
                let d = match base {
                    Some(b) => h.diff(b),
                    None => h.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }

    /// Merge `other` into `self`: counters and histograms add, gauges take
    /// `other`'s level (last writer wins). Associative and commutative on
    /// the additive parts, so per-worker snapshots combine to the same
    /// totals in any merge order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, &v) in &other.counters {
            let e = self.counters.entry(k.clone()).or_insert(0);
            *e = e.saturating_add(v);
        }
        for (k, &v) in &other.gauges {
            self.gauges.insert(k.clone(), v);
        }
        for (k, h) in &other.histograms {
            self.histograms
                .entry(k.clone())
                .or_insert_with(HistogramSnapshot::empty)
                .merge(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_bit_length() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 63);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let m = Metrics::new();
        let c = m.counter("x");
        c.add(u64::MAX - 1);
        c.add(10);
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn handles_share_cells_across_clones() {
        let m = Metrics::new();
        m.counter("runs").inc();
        let m2 = m.clone();
        m2.counter("runs").add(2);
        assert_eq!(m.snapshot().counter("runs"), 3);
        m.gauge("depth").set(7);
        m2.gauge("depth").add(-2);
        assert_eq!(m.snapshot().gauge("depth"), 5);
    }

    #[test]
    fn snapshot_diff_isolates_a_run() {
        let m = Metrics::new();
        let c = m.counter("calls");
        let h = m.histogram("lat_us");
        c.add(5);
        h.record(100);
        let before = m.snapshot();
        c.add(3);
        h.record(200);
        h.record(300);
        let delta = m.snapshot().diff(&before);
        assert_eq!(delta.counter("calls"), 3);
        assert_eq!(delta.histograms["lat_us"].count, 2);
        assert_eq!(delta.histograms["lat_us"].sum, 500);
    }

    #[test]
    fn histogram_quantile_walks_cumulative_buckets() {
        let m = Metrics::new();
        let h = m.histogram("h");
        for v in [1u64, 2, 3, 4, 1000] {
            h.record(v);
        }
        let s = &m.snapshot().histograms["h"];
        assert_eq!(s.count, 5);
        // p50 = 3rd sample → bucket of 3 (bit length 2, ub 3).
        assert_eq!(s.quantile(0.5), 3);
        // p99 → last bucket touched (1000 has bit length 10, ub 1023).
        assert_eq!(s.quantile(0.99), 1023);
    }

    #[test]
    fn merge_adds_counters_and_buckets() {
        let a = Metrics::new();
        a.counter("c").add(2);
        a.histogram("h").record(5);
        let b = Metrics::new();
        b.counter("c").add(3);
        b.histogram("h").record(9);
        b.gauge("g").set(4);
        let mut s = a.snapshot();
        s.merge(&b.snapshot());
        assert_eq!(s.counter("c"), 5);
        assert_eq!(s.histograms["h"].count, 2);
        assert_eq!(s.histograms["h"].sum, 14);
        assert_eq!(s.gauge("g"), 4);
    }
}
