//! FT_PROFILE differential attribution: the compiled engine's per-loop-nest
//! `clock_gettime` timings must tell the same story as the interpreter's
//! modeled per-statement profile.
//!
//! Both engines publish [`RunProfile`]s over the *same* `Func` (so loop
//! nests share [`ft_ir::StmtId`]s): the interpreter attributes modeled
//! cycles exclusively per statement, the profiled compiled build measures
//! wall nanoseconds per outermost nest. The test rolls the interpreter's
//! tree up to outermost nests and checks that (a) both engines see the same
//! set of nests, (b) they agree on which nest dominates, and (c) the
//! compiled per-nest times account for ≥95% of the entry-call wall time —
//! the coverage contract that makes the attribution trustworthy.

use ft_metrics::Metrics;
use ft_runtime::{cc_available, CompiledEngine, ExecutionEngine, Runtime};
use ft_trace::{RunProfile, TraceSink};
use ft_workloads::subdivnet;
use std::collections::HashMap;
use std::path::PathBuf;

fn tmp_cache(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("ft-prof-attr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Fold a profile's exclusive per-node times up into each node's
/// outermost-loop ancestor, returning `(stmt, desc, time)` per outermost
/// nest in source order. Works for both engines: the compiled profile is
/// already flat (every site is depth 1), the interpreter's tree collapses.
fn rollup(p: &RunProfile) -> Vec<(ft_ir::StmtId, String, f64)> {
    let mut out: Vec<(ft_ir::StmtId, String, f64)> = Vec::new();
    let mut top_of = vec![None::<usize>; p.nodes.len()];
    for (i, n) in p.nodes.iter().enumerate() {
        match n.parent {
            None => {}
            Some(0) => {
                let id = n.stmt.expect("non-root profile nodes carry stmt ids");
                top_of[i] = Some(out.len());
                out.push((id, n.desc.clone(), n.counters.cycles));
            }
            Some(par) => {
                let t = top_of[par].expect("profile nodes are preorder");
                top_of[i] = Some(t);
                out[t].2 += n.counters.cycles;
            }
        }
    }
    out
}

fn argmax(nests: &[(ft_ir::StmtId, String, f64)]) -> ft_ir::StmtId {
    nests
        .iter()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("at least one nest")
        .0
}

#[test]
fn compiled_profile_agrees_with_interpreter_attribution_on_subdivnet() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // Full-size SubdivNet (1024 faces × 32 channels), not the conformance
    // test scale: per-nest wall times must sit far above the constant
    // out-of-loop overhead (allocations, timer pairs) for the ≥95%
    // coverage contract to be meaningful.
    let p = subdivnet::Params::default();
    let inputs = subdivnet::inputs(&p, 3);
    let func = subdivnet::program(&p).func().clone();
    let sizes: HashMap<String, i64> = HashMap::new();

    // Interpreter attribution (modeled cycles).
    let interp_sink = TraceSink::new();
    let mut interp = Runtime::new();
    interp.set_sink(Some(interp_sink.clone()));
    let ri = interp.run(&func, &inputs, &sizes).expect("interp runs");
    let interp_profiles = interp_sink.profiles();
    assert_eq!(interp_profiles.len(), 1, "{interp_profiles:?}");
    let interp_nests = rollup(&interp_profiles[0]);
    assert!(!interp_nests.is_empty(), "{:?}", interp_profiles[0]);

    // Compiled attribution (measured wall ns), summed over several warm
    // runs so per-nest times sit well above timer resolution.
    let sink = TraceSink::new();
    let metrics = Metrics::new();
    let mut eng = CompiledEngine::with_cache_dir(tmp_cache("subdivnet")).with_profiling(true);
    eng.set_sink(Some(sink.with_metrics(metrics.clone())));
    const RUNS: usize = 5;
    let mut rc = None;
    for _ in 0..RUNS {
        rc = Some(eng.run(&func, &inputs, &sizes).expect("compiled runs"));
    }
    let rc = rc.expect("ran");

    // Same numbers as the interpreter (the usual conformance tolerance).
    let d = rc.output("y").max_abs_diff(ri.output("y"));
    assert!(d < 5e-4, "profiled compiled run diverged: {d}");

    let profiles = sink.profiles();
    assert_eq!(profiles.len(), RUNS, "{profiles:?}");
    let mut compiled_nests = rollup(&profiles[0]);
    for p in &profiles[1..] {
        for (acc, cur) in compiled_nests.iter_mut().zip(rollup(p)) {
            assert_eq!(acc.0, cur.0, "site table is stable across runs");
            acc.2 += cur.2;
        }
    }

    // (a) Both engines attribute to the same outermost nests.
    let ids = |v: &[(ft_ir::StmtId, String, f64)]| {
        let mut ids: Vec<_> = v.iter().map(|(id, _, _)| *id).collect();
        ids.sort();
        ids
    };
    assert_eq!(
        ids(&interp_nests),
        ids(&compiled_nests),
        "interp {interp_nests:?} vs compiled {compiled_nests:?}"
    );

    // (b) They agree on the dominant nest — the per-statement ordering
    // check CI gates on.
    assert_eq!(
        argmax(&interp_nests),
        argmax(&compiled_nests),
        "interp {interp_nests:?} vs compiled {compiled_nests:?}"
    );

    // (c) Per-nest times cover ≥95% of the entry-call wall time.
    let s = metrics.snapshot();
    let site_ns = s.counter("compiled.prof.site_ns");
    let call_ns = s.counter("compiled.prof.call_ns");
    assert!(call_ns > 0, "{s:?}");
    assert!(
        site_ns as f64 >= 0.95 * call_ns as f64,
        "attribution covers only {site_ns} of {call_ns} ns"
    );
}
