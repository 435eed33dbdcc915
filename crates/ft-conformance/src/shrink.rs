//! Trace minimization: reduce a failing schedule trace to a minimal failing
//! prefix, then drop individually-unneeded ops inside it.

use crate::ops::ScheduleOp;

/// Shrink `trace` with respect to the failure predicate `fails`.
///
/// Two phases, both deterministic:
///
/// 1. **Minimal failing prefix** — scan prefixes shortest-first, starting
///    at the *empty* trace, and keep the first one that fails. A failure
///    that does not depend on the schedule at all (e.g. a miscompiling
///    code transform, as the AD fault-injection tests exercise) must
///    shrink to the empty trace, not to one arbitrary surviving op. (A
///    linear scan, not a binary search: failure is not monotone in prefix
///    length, because a later op can rewrite the tree under an earlier
///    one.)
/// 2. **Greedy op removal** — try deleting each remaining op (last first,
///    so positional loop indices of earlier ops stay meaningful as long as
///    possible); keep a deletion whenever the shorter trace still fails.
///
/// Returns `trace` unchanged when it does not fail at all (nothing to
/// shrink). The result is guaranteed to satisfy `fails` whenever the input
/// did.
pub fn minimize<F>(trace: &[ScheduleOp], fails: F) -> Vec<ScheduleOp>
where
    F: Fn(&[ScheduleOp]) -> bool,
{
    let mut cur: Option<Vec<ScheduleOp>> = None;
    for p in 0..=trace.len() {
        if fails(&trace[..p]) {
            cur = Some(trace[..p].to_vec());
            break;
        }
    }
    let Some(mut cur) = cur else {
        return trace.to_vec();
    };
    let mut i = 0;
    while i < cur.len() {
        let at = cur.len() - 1 - i;
        let mut cand = cur.clone();
        cand.remove(at);
        if fails(&cand) {
            cur = cand;
        } else {
            i += 1;
        }
    }
    cur
}

/// How many times a minimized trace is re-run before it is written up.
pub const RECHECK_RUNS: u32 = 5;

/// A divergence that did not reproduce on every re-run of its minimized
/// trace: a nondeterministic backend, reported as such.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Flaky {
    /// Re-runs that diverged.
    pub hits: u32,
    /// Re-runs made ([`RECHECK_RUNS`]).
    pub runs: u32,
}

/// Re-run `check` on the minimized trace [`RECHECK_RUNS`] times. Returns
/// the divergence to report — the last one a re-run observed, or `first`
/// (seen while sweeping and shrinking) when none of them diverged — and
/// `Some(Flaky)` unless every re-run hit. The harness fuzzes the compiler;
/// it must itself survive a backend that answers differently each time.
pub fn recheck<D>(first: D, mut check: impl FnMut() -> Option<D>) -> (D, Option<Flaky>) {
    let mut seen = first;
    let mut hits = 0;
    for _ in 0..RECHECK_RUNS {
        if let Some(d) = check() {
            seen = d;
            hits += 1;
        }
    }
    let flaky = (hits < RECHECK_RUNS).then_some(Flaky {
        hits,
        runs: RECHECK_RUNS,
    });
    (seen, flaky)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recheck_classifies_instead_of_panicking() {
        // Deterministic: every re-run hits, the freshest divergence wins.
        assert_eq!(recheck("first", || Some("again")), ("again", None));
        // Gone: nothing reproduces, the original observation is reported.
        let gone = Flaky {
            hits: 0,
            runs: RECHECK_RUNS,
        };
        assert_eq!(recheck("first", || None), ("first", Some(gone)));
        // Intermittent: two of five.
        let mut n = 0;
        let (d, flaky) = recheck(0, || {
            n += 1;
            (n % 2 == 0).then_some(n)
        });
        assert_eq!((d, flaky.map(|f| (f.hits, f.runs))), (4, Some((2, RECHECK_RUNS))));
    }

    fn op(i: usize) -> ScheduleOp {
        ScheduleOp::Vectorize { loop_idx: i }
    }

    #[test]
    fn reduces_to_the_single_culprit() {
        // "Fails" iff the trace contains loop_idx 7.
        let trace = vec![op(1), op(2), op(7), op(3), op(4)];
        let min = minimize(&trace, |t| t.iter().any(|o| *o == op(7)));
        assert_eq!(min, vec![op(7)]);
    }

    #[test]
    fn keeps_a_required_pair() {
        // Fails iff both 2 and 4 survive, in any order.
        let trace = vec![op(1), op(2), op(3), op(4), op(5)];
        let min = minimize(&trace, |t| {
            t.iter().any(|o| *o == op(2)) && t.iter().any(|o| *o == op(4))
        });
        assert_eq!(min, vec![op(2), op(4)]);
    }

    #[test]
    fn non_failing_trace_is_returned_unchanged() {
        let trace = vec![op(1), op(2)];
        let min = minimize(&trace, |_| false);
        assert_eq!(min, trace);
    }

    #[test]
    fn prefix_phase_is_shortest_first() {
        // Every non-empty prefix fails; the minimal one is length 1.
        let trace = vec![op(9), op(1), op(2)];
        let min = minimize(&trace, |t| !t.is_empty());
        assert_eq!(min, vec![op(9)]);
    }

    #[test]
    fn schedule_independent_failure_shrinks_to_the_empty_trace() {
        // A bug that reproduces with no schedule ops at all (e.g. an
        // injected AD miscompilation) must minimize to the empty trace —
        // previously the shrinker never tried it and kept one arbitrary
        // op.
        let trace = vec![op(1), op(2), op(3)];
        let min = minimize(&trace, |_| true);
        assert!(min.is_empty(), "{min:?}");
    }
}
