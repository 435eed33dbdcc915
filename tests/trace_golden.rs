//! Golden tests for the observability layer: the schedule decision log a
//! traced `auto_schedule` produces on SubdivNet, the per-statement runtime
//! profile, and the exported Chrome trace-event JSON.

use freetensor::autoschedule::Target;
use freetensor::core::Program;
use freetensor::runtime::Runtime;
use freetensor::trace::{
    chrome_trace, validate_chrome_trace, DepKind, TraceSink, Verdict,
};
use freetensor::workloads::{input_pairs, subdivnet};

/// Compile + auto-schedule SubdivNet (small) with a sink installed.
fn traced_subdivnet(p: &subdivnet::Params) -> (Program, TraceSink) {
    let sink = TraceSink::new();
    let prog = Program::compile_traced(&subdivnet::source(p), "subdivnet", sink.clone())
        .expect("subdivnet compiles")
        .optimize(&Target::gpu());
    (prog, sink)
}

#[test]
fn subdivnet_decision_log_covers_all_six_passes() {
    // At five channels the channel loop is short enough for `auto_unroll`,
    // which runs in front of `auto_vectorize`, so the vectorizer has no
    // loop left to try; at sixteen the channel loop stays and is offered
    // to it.
    let wide = subdivnet::Params {
        in_feats: 16,
        ..subdivnet::Params::small()
    };
    let decisions: Vec<_> = [subdivnet::Params::small(), wide]
        .iter()
        .flat_map(|p| traced_subdivnet(p).1.decisions())
        .collect();
    // Every pass of the paper's auto-scheduler must leave at least one
    // entry in the decision log on this workload.
    for pass in [
        "auto_fuse",
        "auto_use_lib",
        "auto_parallelize",
        "auto_vectorize",
        "auto_mem_type",
        "auto_unroll",
    ] {
        assert!(
            decisions.iter().any(|d| d.pass.as_deref() == Some(pass)),
            "no decision logged for {pass}; got passes {:?}",
            decisions.iter().map(|d| d.pass.clone()).collect::<Vec<_>>()
        );
    }
    // The reused scalar `d` carries a WAR/WAW dependence across the channel
    // loop, so vectorizing it must be *rejected* — and the rejection must
    // carry the structured dependences, not just a message (§4.3: rejections
    // explain themselves).
    let rejection = decisions
        .iter()
        .find(|d| {
            d.primitive == "vectorize"
                && d.verdict == Verdict::Rejected
                && !d.deps.is_empty()
        })
        .expect("a vectorize rejection with structured deps");
    assert!(
        rejection
            .deps
            .iter()
            .any(|dep| dep.var == "d" && matches!(dep.kind, DepKind::Waw | DepKind::War)),
        "expected a WAW/WAR dependence on the reused scalar `d`, got {:?}",
        rejection.deps
    );
    assert!(rejection.reason.is_some(), "rejection must carry a reason");
}

#[test]
fn per_statement_profile_sums_to_run_aggregates() {
    let p = subdivnet::Params::small();
    let (prog, sink) = traced_subdivnet(&p);
    let r = prog
        .run(&Runtime::new(), &input_pairs(&subdivnet::inputs(&p, 11)), &[])
        .expect("traced run");
    let profiles = sink.profiles();
    assert_eq!(profiles.len(), 1, "exactly one profiled run");
    // Per-node counters are exclusive, so their sum must equal the run's
    // whole-run aggregates exactly (Fig. 17 per-loop breakdown property).
    let totals = profiles[0].totals();
    assert_eq!(totals.flops, r.counters.flops);
    assert_eq!(totals.dram_bytes, r.counters.dram_bytes);
    assert_eq!(totals.l2_bytes, r.counters.l2_bytes);
    assert!(
        profiles[0].nodes.len() > 1,
        "profile must break the run down below the root"
    );
}

#[test]
fn chrome_trace_export_is_valid_and_covers_compile_and_runtime() {
    let p = subdivnet::Params::small();
    let (prog, sink) = traced_subdivnet(&p);
    prog.run(&Runtime::new(), &input_pairs(&subdivnet::inputs(&p, 11)), &[])
        .expect("traced run");
    let json = chrome_trace(&sink);
    let stats = validate_chrome_trace(&json).expect("exported trace validates");
    assert!(stats.events > 0, "trace must contain events");
    assert!(
        stats.tracks >= 3,
        "expected compile + runtime + profile tracks, got {}",
        stats.tracks
    );
    // Spot-check the provenance chain end to end: frontend, a pass, an
    // auto-schedule pass, and the runtime execution span.
    let events = sink.events();
    for (cat, name) in [
        ("frontend", "compile"),
        ("pass", "simplify"),
        ("autoschedule", "auto_fuse"),
        ("runtime", "interp subdivnet"),
    ] {
        assert!(
            events.iter().any(|e| e.cat == cat && e.name == name),
            "missing span {cat}/{name}; got {:?}",
            events
                .iter()
                .map(|e| format!("{}/{}", e.cat, e.name))
                .collect::<Vec<_>>()
        );
    }
}
