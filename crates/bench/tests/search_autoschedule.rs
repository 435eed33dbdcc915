//! End-to-end properties of search-based auto-scheduling against the real
//! bench workloads: determinism of the model's ranking across runs and
//! worker pools, a directed quality bar on small SubdivNet, honest committed
//! artifacts, and metrics export coverage.

use bench::{modeled_counters, prepare, replayed_counters, Scale, Workload};
use ft_autoschedule::search::{
    prepare_candidate, rule_trace, search, SavedSchedule, SearchConfig, SearchOutcome,
};
use ft_autoschedule::Target;
use ft_metrics::Metrics;
use ft_runtime::ScheduleScore;
use ft_schedule::trace::ScheduleOp;
use std::path::PathBuf;

/// The committed schedule store, independent of the test cwd.
fn schedules_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/schedules")
}

/// The modeled score of a replayed trace, through the helper the search
/// evaluator and `ft-autoschedule --replay` share.
fn modeled_score(prep: &bench::Prepared, trace: &[ScheduleOp]) -> Option<ScheduleScore> {
    replayed_counters(prep, trace).map(|c| c.score())
}

/// The search with the bench evaluator and no measurer: what
/// `search_schedule` runs on a host without a C compiler, and the only form
/// whose outcome is a function of seed and budget alone.
fn modeled_search(
    prep: &bench::Prepared,
    config: &SearchConfig,
    metrics: Option<&Metrics>,
) -> SearchOutcome {
    let evaluator = |f: &ft_ir::Func| modeled_counters(f, &prep.inputs);
    search(
        prep.naive.func(),
        &Target::cpu(),
        config,
        &evaluator,
        None,
        None,
        metrics,
    )
}

#[test]
fn search_is_deterministic_across_runs_and_worker_pools() {
    // Same seed and budget must give bit-identical outcomes no matter how
    // many evaluation workers run.
    let prep = prepare(Workload::Gat, Scale::Small);
    let run = |workers: usize| {
        let config = SearchConfig {
            budget: 10,
            seed: 41,
            workers,
            ..SearchConfig::default()
        };
        modeled_search(&prep, &config, None)
    };
    let (a, b, c) = (run(1), run(1), run(4));
    for (other, why) in [(&b, "a second run"), (&c, "the worker count")] {
        assert_eq!(a.best_trace, other.best_trace, "{why} changed the result");
        assert_eq!(a.best_score, other.best_score, "{why}");
        assert_eq!(a.history, other.history, "{why}");
        assert_eq!(a.payoff, other.payoff, "{why}");
    }
}

#[test]
fn search_beats_a_known_good_hand_schedule_on_small_subdivnet() {
    // A schedule a performance engineer would write by hand: parallelize
    // the outermost face loop and promote the first local buffer. On the
    // model's axis the search must discover something at least as good
    // within a small budget — and the hand schedule itself must be a real
    // improvement, or the bar would be vacuous.
    let prep = prepare(Workload::Subdivnet, Scale::Small);
    let naive = modeled_score(&prep, &[]).expect("naive run");
    let hand = vec![
        ScheduleOp::Parallelize { loop_idx: 0 },
        ScheduleOp::SetMtype { def_idx: 0 },
    ];
    let hand_score = modeled_score(&prep, &hand).expect("hand-schedule run");
    assert!(hand_score < naive, "hand schedule is not an improvement");
    let config = SearchConfig {
        budget: 48,
        seed: 2022,
        workers: 2,
        ..SearchConfig::default()
    };
    let outcome = modeled_search(&prep, &config, None);
    assert!(
        outcome.best_score <= hand_score,
        "search ({:?}) lost to the hand schedule ({hand_score:?})",
        outcome.best_score
    );
}

#[test]
fn the_rule_trace_replays_to_the_rule_schedule() {
    // The search's warm start, the A/B's reference and `rule_wall_us` all
    // claim to be "the rules' program": replaying the rule trace must give
    // `Program::optimize`'s program, on every workload at both scales.
    let cpu = Target::cpu();
    for w in Workload::ALL {
        for scale in [Scale::Small, Scale::Full] {
            let prep = prepare(w, scale);
            let base = prep.naive.func();
            let (replayed, accepted) = prepare_candidate(base, cpu.device, &rule_trace(base, &cpu));
            assert_eq!(
                replayed.to_string(),
                prep.naive.optimize(&cpu).func().to_string(),
                "{} {}: replayed {accepted:?}",
                w.name(),
                scale.name()
            );
        }
    }
}

#[test]
fn committed_schedules_replay_to_their_recorded_scores() {
    // Every schedule committed under results/schedules/ must (a) replay
    // from its trace to exactly the recorded modeled score and (b) carry a
    // measured verdict that is no worse than the rule trace by more than
    // the rule trace's own noise. A file that drifts from either is a
    // stale artifact and must fail CI.
    let dir = schedules_dir();
    let mut found = 0usize;
    for w in Workload::ALL {
        for scale in [Scale::Small, Scale::Full] {
            let path = dir.join(SavedSchedule::file_name(w.name(), "cpu", scale.name()));
            let Ok(text) = std::fs::read_to_string(&path) else {
                continue;
            };
            found += 1;
            let saved = SavedSchedule::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let m = saved
                .measured
                .as_ref()
                .unwrap_or_else(|| panic!("{}: no `measured` verdict", path.display()));
            assert!(
                m.wall_us <= m.rule_wall_us + m.noise_us,
                "{}: committed schedule measured slower than the rule trace",
                path.display()
            );
            let prep = prepare(w, scale);
            let replayed = modeled_score(&prep, &saved.trace)
                .unwrap_or_else(|| panic!("{}: replay failed", path.display()));
            let recorded = ScheduleScore::new(saved.searched_cycles, saved.searched_dram);
            assert_eq!(
                replayed,
                recorded,
                "{}: replayed score diverged from the recorded one",
                path.display()
            );
        }
    }
    assert!(
        found > 0,
        "no committed schedules found under {} — the searched system has nothing to replay",
        dir.display()
    );
}

#[test]
fn search_exports_its_counters_through_the_standard_registry() {
    // The driver's `--metrics` export must carry the search telemetry: the
    // same registry every engine reports into.
    let prep = prepare(Workload::Gat, Scale::Small);
    let metrics = Metrics::new();
    let config = SearchConfig {
        budget: 6,
        seed: 2022,
        ..SearchConfig::default()
    };
    let outcome = modeled_search(&prep, &config, Some(&metrics));
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("search.evaluations"), outcome.evaluations);
    assert_eq!(snap.counter("search.memo.hit"), outcome.memo_hits);
    assert_eq!(
        snap.counter("search.illegal_rejected"),
        outcome.illegal_rejected
    );
    assert_eq!(snap.counter("search.measured"), 0, "nothing measures here");
    assert!(snap.counter("search.generations") >= 1);
    assert!(snap.gauges.contains_key("search.best_cycles"));
    // And the snapshot round-trips through JSON with the gauges intact,
    // which is what the artifact upload consumes.
    let text = ft_trace::metrics_to_json(&snap).to_string();
    let back = ft_trace::metrics_from_json(&ft_trace::JsonVal::parse(&text).unwrap()).unwrap();
    assert_eq!(back.counter("search.evaluations"), outcome.evaluations);
}
