//! The schedule decision log: every primitive attempt is recorded with its
//! verdict, and rejections coming from the dependence engine carry the exact
//! structured `FoundDep`s — not just a formatted message.

use ft_analysis::loop_carried_deps;
use ft_ir::find::Selector;
use ft_ir::prelude::*;
use ft_schedule::Schedule;
use ft_trace::{TraceSink, Verdict};

/// `for i in 1..1024: y[i] = y[i-1] * 2` — a textbook loop-carried RAW.
fn scan_func() -> Func {
    Func::new("scan")
        .param("y", [1024], DataType::F32, AccessType::InOut)
        .body(for_(
            "i",
            1,
            1024,
            store(
                "y",
                [var("i")],
                load("y", [var("i") - 1]) * 2.0f32,
            ),
        ))
}

#[test]
fn rejected_parallelize_logs_the_exact_founddep() {
    let f = scan_func();
    let loop_id = Selector::from("i").resolve(&f).unwrap().id;
    let expected = loop_carried_deps(&f, loop_id);
    assert!(
        !expected.is_empty(),
        "test premise: the scan loop must have blockers"
    );

    let sink = TraceSink::new();
    let mut s = Schedule::with_sink(f, sink.clone());
    let err = s.parallelize("i", ParallelScope::OpenMp).unwrap_err();
    assert!(matches!(err, ft_schedule::ScheduleError::Illegal(_)));

    let decisions = sink.decisions();
    assert_eq!(decisions.len(), 1);
    let d = &decisions[0];
    assert_eq!(d.primitive, "parallelize");
    assert_eq!(d.verdict, Verdict::Rejected);
    assert!(d.args.contains('i'), "args should name the loop: {}", d.args);
    assert!(d.reason.as_deref().unwrap_or("").contains("dependence"));
    // The logged deps are exactly what loop_carried_deps reported.
    assert_eq!(
        format!("{:?}", d.deps),
        format!("{expected:?}"),
        "decision log must carry the structured blockers verbatim"
    );
    assert!(d.deps.iter().any(|dep| dep.var == "y"));
}

#[test]
fn applied_primitives_are_logged_too_and_no_sink_means_no_log() {
    // With a sink: a successful split is logged as applied.
    let sink = TraceSink::new();
    let mut s = Schedule::with_sink(scan_func(), sink.clone());
    s.split("i", 32).unwrap();
    let ds = sink.decisions();
    assert_eq!(ds.len(), 1);
    assert_eq!(ds[0].primitive, "split");
    assert_eq!(ds[0].verdict, Verdict::Applied);
    assert!(ds[0].deps.is_empty());

    // Without a sink: the same sequence records nothing anywhere.
    let mut s2 = Schedule::new(scan_func());
    s2.split("i", 32).unwrap();
    assert!(s2.sink().is_none());
}

#[test]
fn phase_labels_attach_to_decisions() {
    let sink = TraceSink::new();
    let mut s = Schedule::with_sink(scan_func(), sink.clone());
    s.set_phase(Some("auto_parallelize".to_string()));
    let _ = s.parallelize("i", ParallelScope::OpenMp);
    s.set_phase(None);
    let _ = s.split("i", 32);
    let ds = sink.decisions();
    assert_eq!(ds.len(), 2);
    assert_eq!(ds[0].pass.as_deref(), Some("auto_parallelize"));
    assert_eq!(ds[1].pass, None);
}

/// `var t[1]; for i in 0..8 { t[0] = t[0] + x[i]; y[i] = t[0];
/// var t[1] { t[0] = 1 } }` — a def shadowing the running sum's name inside
/// the loop must not hide the sum's carried dependence: parallelized, the
/// iterations race on the outer `t`.
#[test]
fn a_shadowing_def_does_not_let_parallelize_race() {
    let f = Func::new("shadow")
        .param("x", [8], DataType::F32, AccessType::Input)
        .param("y", [8], DataType::F32, AccessType::Output)
        .body(var_def(
            "t",
            [1],
            DataType::F32,
            MemType::CpuHeap,
            for_(
                "i",
                0,
                8,
                block([
                    store("t", [0], load("t", [0]) + load("x", [var("i")])),
                    store("y", [var("i")], load("t", [0])),
                    var_def(
                        "t",
                        [1],
                        DataType::F32,
                        MemType::CpuHeap,
                        store("t", [0], 1.0f32),
                    ),
                ]),
            ),
        ));
    let sink = TraceSink::new();
    let mut s = Schedule::with_sink(f, sink.clone());
    let err = s.parallelize("i", ParallelScope::OpenMp).unwrap_err();
    assert!(
        matches!(err, ft_schedule::ScheduleError::Illegal(_)),
        "{err}"
    );
    let decisions = sink.decisions();
    assert_eq!(decisions.len(), 1);
    assert_eq!(decisions[0].verdict, Verdict::Rejected);
    assert!(
        decisions[0].deps.iter().any(|d| d.var == "t"),
        "{:?}",
        decisions[0].deps
    );
}
