//! Property test for the metrics snapshot ⇄ JSON conversion: whatever a
//! registry can hold comes back exactly, saturation boundaries included.

use ft_metrics::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use ft_trace::{metrics_from_json, metrics_to_json, JsonVal};
use proptest::prelude::*;

/// A full-spread `u64` strategy (the vendored rand cannot sample the
/// full-width inclusive range, so saturation boundaries are explicit arms).
fn arb_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..=(u64::MAX - 1),
        Just(u64::MAX),
        Just(0u64),
        0u64..4096,
    ]
}

/// An arbitrary (possibly near-saturated) frozen histogram.
fn arb_hist() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(arb_u64(), HISTOGRAM_BUCKETS),
        arb_u64(),
        arb_u64(),
    )
        .prop_map(|(buckets, count, sum)| HistogramSnapshot {
            buckets,
            count,
            sum,
        })
}

proptest! {
    /// JSON export/import round-trips arbitrary registries exactly, through
    /// the value and through its text.
    #[test]
    fn json_roundtrips_arbitrary_histograms(
        h in arb_hist(),
        c in arb_u64(),
        g in prop_oneof![i64::MIN..=(i64::MAX - 1), Just(i64::MIN), Just(i64::MAX)],
    ) {
        let mut snap = MetricsSnapshot::default();
        snap.counters.insert("c".to_string(), c);
        snap.gauges.insert("g".to_string(), g);
        snap.histograms.insert("h".to_string(), h);
        let doc = metrics_to_json(&snap);
        prop_assert_eq!(metrics_from_json(&doc), Ok(snap.clone()));
        let reread = JsonVal::parse(&doc.to_string()).unwrap();
        prop_assert_eq!(metrics_from_json(&reread), Ok(snap));
    }
}
