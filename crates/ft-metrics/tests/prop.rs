//! Property tests for the histogram merge algebra (the basis of the
//! cross-worker determinism claim).

use ft_metrics::{HistogramSnapshot, Metrics, MetricsSnapshot, HISTOGRAM_BUCKETS};
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

fn merged(a: &HistogramSnapshot, b: &HistogramSnapshot) -> HistogramSnapshot {
    let mut m = a.clone();
    m.merge(b);
    m
}

proptest! {
    /// Merge is commutative even at saturation boundaries.
    #[test]
    fn histogram_merge_commutes(a in arb_hist(), b in arb_hist()) {
        prop_assert_eq!(merged(&a, &b), merged(&b, &a));
    }

    /// Merge is associative, so a reduction tree over per-worker
    /// histograms gives the same answer regardless of shape.
    #[test]
    fn histogram_merge_associates(a in arb_hist(), b in arb_hist(), c in arb_hist()) {
        prop_assert_eq!(merged(&merged(&a, &b), &c), merged(&a, &merged(&b, &c)));
    }

    /// The empty histogram is the merge identity.
    #[test]
    fn histogram_merge_identity(a in arb_hist()) {
        prop_assert_eq!(merged(&a, &HistogramSnapshot::empty()), a.clone());
        prop_assert_eq!(merged(&HistogramSnapshot::empty(), &a), a);
    }

    /// Recording the same sample multiset sharded across 1, 2, or 8
    /// workers — each with a private registry, merged afterwards — yields
    /// bit-identical merged snapshots. This is the property the pool
    /// relies on when it aggregates per-worker metrics.
    #[test]
    fn sharded_recording_is_deterministic(
        samples in proptest::collection::vec(arb_u64(), 0..200),
    ) {
        let mut merges: Vec<MetricsSnapshot> = Vec::new();
        for workers in [1usize, 2, 8] {
            let shards: Vec<Metrics> = (0..workers).map(|_| Metrics::new()).collect();
            for (i, &s) in samples.iter().enumerate() {
                let m = &shards[i % workers];
                m.histogram("kernel_us").record(s);
                m.counter("runs").inc();
            }
            let mut total = MetricsSnapshot::default();
            // Merge in an arbitrary (here: reversed) order; associativity
            // and commutativity make the order irrelevant.
            for m in shards.iter().rev() {
                total.merge(&m.snapshot());
            }
            merges.push(total);
        }
        prop_assert_eq!(&merges[0], &merges[1]);
        prop_assert_eq!(&merges[1], &merges[2]);
    }
}
