//! Every scoped dependence query equals the unscoped reference.
//!
//! `loop_carried_deps` (behind `parallelize` and `vectorize`) and
//! `carried_reductions` pair only the accesses inside the loop they are
//! asked about; `all_deps` still pairs every access with every other under
//! every common carrier. Over the four workloads, forward and gradient (not
//! GAT), small and full scale, unscheduled, rule-scheduled, under the
//! committed searched schedules and under a fixed set of sampled schedule
//! traces (some of whose accepted prefixes split a guarded loop with
//! `separate_tail`), for every loop `L` of the function:
//!
//! * `loop_carried_deps(f, L)` is exactly `all_deps(f)` restricted to
//!   `Carrier::Loop(L)` — same dependences, same order, same `certain`;
//! * `carried_reductions(f, L)` is exactly the statements of the
//!   same-operator reduce pairs an unscoped enumeration finds carried by `L`.

use freetensor::autodiff::GradOptions;
use freetensor::autoschedule::search::{prepare_candidate, SavedSchedule};
use freetensor::autoschedule::Target;
use freetensor::ir::{Device, Func, StmtId, StmtKind};
use freetensor::schedule::trace::{apply_trace, ScheduleOp};
use freetensor::workloads::{Scale, Workload};
use ft_analysis::deps::dep_exists;
use ft_analysis::{
    all_deps, carried_reductions, collect_accesses, loop_carried_deps, AccessKind, Carrier, Sat,
};
use ft_conformance::ops::sample_trace;
use proptest::test_runner::TestRng;

fn loops_of(f: &Func) -> Vec<StmtId> {
    let mut v = Vec::new();
    f.body.walk(&mut |s| {
        if matches!(s.kind, StmtKind::For { .. }) {
            v.push(s.id);
        }
    });
    v
}

/// Every same-operator reduce pair of `f` with every common loop that
/// carries it, in the order `carried_reductions` visits pairs.
fn reduction_reference(f: &Func) -> Vec<(StmtId, StmtId, StmtId)> {
    let info = collect_accesses(f);
    let mut out = Vec::new();
    for a in &info.accesses {
        for b in &info.accesses {
            let (AccessKind::Reduce(x), AccessKind::Reduce(y)) = (a.kind, b.kind) else {
                continue;
            };
            if x != y || a.var != b.var || a.def != b.def {
                continue;
            }
            let common = a
                .loops
                .iter()
                .zip(b.loops.iter())
                .take_while(|(p, q)| p.id == q.id);
            for (c, _) in common {
                if dep_exists(&info, a, b, Carrier::Loop(c.id)) != Sat::Empty {
                    out.push((a.stmt, b.stmt, c.id));
                }
            }
        }
    }
    out
}

/// Check one function; returns (loops, carried dependences, carried
/// reductions) checked.
fn check(label: &str, f: &Func) -> (usize, usize, usize) {
    let reference = all_deps(f);
    let reductions = reduction_reference(f);
    let loops = loops_of(f);
    let mut found = (loops.len(), 0, 0);
    for &l in &loops {
        let want: Vec<_> = reference
            .iter()
            .filter(|d| d.carrier == Carrier::Loop(l))
            .cloned()
            .collect();
        assert_eq!(loop_carried_deps(f, l), want, "{label}: loop {l}\n{f}");
        found.1 += want.len();
        let mut want = Vec::new();
        for &(a, b, _) in reductions.iter().filter(|r| r.2 == l) {
            for s in [a, b] {
                if !want.contains(&s) {
                    want.push(s);
                }
            }
        }
        assert_eq!(carried_reductions(f, l), want, "{label}: loop {l}\n{f}");
        found.2 += want.len();
    }
    found
}

#[test]
fn scoped_queries_equal_the_unscoped_reference() {
    let samples: Vec<_> = (0..8u64)
        .map(|s| sample_trace(&mut TestRng::from_seed_u64(0xDE95_0000 + s), 6))
        .collect();
    let (mut functions, mut loops, mut deps, mut reductions) = (0, 0, 0, 0);
    let mut splits = 0;
    for w in Workload::ALL {
        for (scale, scale_name) in [(Scale::Small, "small"), (Scale::Full, "full")] {
            let fwd = w.at(scale).program();
            let mut bases = vec![(format!("{}-{scale_name}", w.name()), fwd.clone())];
            if w.differentiable() {
                let grad = fwd.grad(&GradOptions::default()).expect("differentiable");
                bases.push((format!("{}.grad-{scale_name}", w.name()), grad));
            }
            for (label, p) in bases {
                let mut variants = vec![
                    ("unscheduled".to_string(), p.func().clone()),
                    (
                        "rules".to_string(),
                        p.optimize(&Target::cpu()).func().clone(),
                    ),
                ];
                if !label.contains(".grad") {
                    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                        .join("results/schedules")
                        .join(SavedSchedule::file_name(w.name(), "cpu", scale_name));
                    let text = std::fs::read_to_string(&path).expect("committed schedule");
                    let saved = SavedSchedule::from_json(&text).expect("schedule parses");
                    let (f, _) = prepare_candidate(p.func(), Device::Cpu, &saved.trace);
                    variants.push(("searched".to_string(), f));
                }
                // Every accepted prefix of every sampled trace.
                for (k, trace) in samples.iter().enumerate() {
                    let accepted = apply_trace(p.func(), trace).1;
                    splits += accepted
                        .iter()
                        .filter(|op| matches!(op, ScheduleOp::SeparateTail { .. }))
                        .count();
                    for n in 1..=accepted.len() {
                        let f = apply_trace(p.func(), &accepted[..n]).0;
                        variants.push((format!("sampled[{k}][..{n}]"), f));
                    }
                }
                for (v, f) in variants {
                    let (l, d, r) = check(&format!("{label} {v}"), &f);
                    (functions, loops, deps, reductions) =
                        (functions + 1, loops + l, deps + d, reductions + r);
                }
            }
        }
    }
    eprintln!(
        "dependence queries: {functions} functions, {loops} loops, {deps} carried \
         dependences, {reductions} carried reductions, {splits} sampled separate_tail: \
         scoped = unscoped"
    );
    assert!(deps > 0 && reductions > 0, "the comparison is vacuous");
    assert!(splits > 0, "no sampled prefix splits a loop");
}
