//! Native compiled engine integration tests.
//!
//! * `compiled_matches_interpreter_*` — pins [`CompiledEngine`] against the
//!   instrumented interpreter on all four paper workloads under sampled,
//!   legality-checked schedule traces, forward and gradient (the same
//!   differential discipline as the conformance sweep, focused on the
//!   newest backend).
//! * `warm_artifact_cache_spawns_no_compiler` — the compile-once/run-many
//!   contract: a second engine over the same artifact-cache directory must
//!   serve the kernel from disk with *zero* `cc` spawns, verified through
//!   the `compiled.cc.spawned` / `compiled.cache.{hit,miss}` metrics
//!   counters (structurally, through the METRICS.json snapshot format —
//!   the same counters `bench_check --expect-warm` gates on in CI).
//! * `colliding_param_names_do_not_shadow`,
//!   `heap_def_inside_a_parallel_body_is_thread_private` — directed ABI and
//!   storage cases the sampled traces do not reach.

use ft_conformance::grad::{build_grad_func, grad_run_inputs, ones_seed, GradSpec};
use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::{check_grad_variant, check_variant, Backend, GradTol, Workload};
use ft_ir::prelude::*;
use ft_ir::ForProperty;
use ft_metrics::{Metrics, MetricsSnapshot};
use ft_runtime::{cc_available, CompiledEngine, ExecutionEngine, Runtime, TensorVal};
use proptest::test_runner::TestRng;
use std::collections::HashMap;

/// Forward tolerance — same contract as `Config::default().tol`.
const TOL: f64 = 5e-4;

fn variant_seed(w: Workload, k: u64) -> u64 {
    ft_ir::fnv1a(w.name().as_bytes()) ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[test]
fn compiled_matches_interpreter_on_all_workloads_under_sampled_traces() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let backends = [Backend::Interp, Backend::Compiled];
    for w in Workload::ALL {
        for k in 0..4u64 {
            let seed = variant_seed(w, k);
            let case = w.build(seed & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(seed);
            let raw = sample_trace(&mut rng, 5);
            let (func, trace) = apply_trace(&case.func, &raw);
            if let Some(d) = check_variant(&case, &func, &backends, TOL) {
                panic!(
                    "{} sample {k} under trace {trace:?}: {}",
                    w.name(),
                    d.message
                );
            }
        }
    }
}

#[test]
fn compiled_grad_matches_interpreter_under_sampled_traces() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let backends = [Backend::Interp, Backend::Compiled];
    let tol = GradTol::default();
    let mut checked = 0usize;
    for w in Workload::ALL {
        for k in 0..2u64 {
            let seed = variant_seed(w, 0x6AD ^ k);
            let case = w.build(seed & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(seed);
            let raw = sample_trace(&mut rng, 4);
            // Outside the differentiable fragment = structured skip, same
            // as the grad conformance sweep.
            let Ok((gfunc, trace)) = build_grad_func(&case.func, &raw, &GradSpec::default())
            else {
                continue;
            };
            let seed_grad = ones_seed(&case);
            let inputs = grad_run_inputs(&case, &seed_grad);
            let oracle_grads = w.oracle_grad(&case.inputs, &seed_grad);
            if let Some(d) = check_grad_variant(&gfunc, &inputs, &oracle_grads, &backends, &tol)
            {
                panic!(
                    "{} grad sample {k} under trace {trace:?}: {}",
                    w.name(),
                    d.message
                );
            }
            checked += 1;
        }
    }
    assert!(
        checked >= 4,
        "grad differential is vacuous: only {checked} variants were differentiable"
    );
}

#[test]
fn warm_artifact_cache_spawns_no_compiler() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let dir = std::env::temp_dir().join(format!("ft-warm-cache-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let case = Workload::Subdivnet.build(3);
    // Both runs are judged through the METRICS.json snapshot format — the
    // same structural path `bench_check --expect-warm` gates on in CI —
    // so this test pins the counters *and* their export.
    let frozen = |m: &Metrics| {
        MetricsSnapshot::from_json(&m.snapshot().to_json()).expect("snapshot roundtrips")
    };

    // Cold start: fresh directory, fresh engine — must compile exactly here.
    let cold_metrics = Metrics::new();
    let mut cold = CompiledEngine::with_cache_dir(&dir);
    cold.set_metrics(Some(cold_metrics.clone()));
    cold.run(&case.func, &case.inputs, &HashMap::new())
        .expect("cold run");
    let snap = frozen(&cold_metrics);
    assert!(
        snap.counter("compiled.cc.spawned") >= 1,
        "cold run never invoked cc"
    );
    assert!(
        snap.counter("compiled.cache.miss") >= 1,
        "cold run recorded no cache miss"
    );
    assert_eq!(
        snap.counter("compiled.cache.publish"),
        snap.counter("compiled.cache.miss"),
        "every miss must publish an artifact"
    );
    assert!(
        snap.gauge("compiled.cache.size_bytes") > 0,
        "published artifact cache reports zero size"
    );

    // Warm start: a *new* engine (empty in-memory memo) over the same
    // directory — the on-disk artifact must satisfy it without cc.
    let warm_metrics = Metrics::new();
    let mut warm = CompiledEngine::with_cache_dir(&dir);
    warm.set_metrics(Some(warm_metrics.clone()));
    let r = warm
        .run(&case.func, &case.inputs, &HashMap::new())
        .expect("warm run");
    let snap = frozen(&warm_metrics);
    assert_eq!(
        snap.counter("compiled.cc.spawned"),
        0,
        "warm run spawned the compiler despite a populated artifact cache"
    );
    assert!(
        snap.counter("compiled.cache.hit") >= 1,
        "warm run recorded no cache lookup"
    );
    assert_eq!(
        snap.counter("compiled.cache.miss"),
        0,
        "warm run was not a pure cache hit"
    );
    assert_eq!(
        snap.histograms
            .get("engine.compiled.run_us")
            .map_or(0, |h| h.count),
        1,
        "warm run recorded no run-wall sample"
    );
    // The disk-served kernel still computes the right answer.
    let diff = r.output(&case.oracle_output).max_abs_diff(&case.oracle);
    assert!(diff < TOL, "warm kernel diverged from oracle by {diff}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn colliding_param_names_do_not_shadow() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // `x.y` and `x_y` sanitize to the same C identifier; the emitter's
    // mangler must keep them apart in the kernel signature and the engine
    // must bind each to its own buffer.
    let f = Func::new("pick")
        .param("x.y", [2], DataType::F32, AccessType::Input)
        .param("x_y", [2], DataType::F32, AccessType::Input)
        .param("o", [2], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            2,
            store(
                "o",
                [var("i")],
                load("x.y", [var("i")]) - load("x_y", [var("i")]),
            ),
        ));
    let inputs: HashMap<String, TensorVal> = [
        ("x.y".to_string(), TensorVal::from_f32(&[2], vec![10.0, 20.0])),
        ("x_y".to_string(), TensorVal::from_f32(&[2], vec![1.0, 2.0])),
    ]
    .into_iter()
    .collect();
    let out = CompiledEngine::new()
        .run(&f, &inputs, &HashMap::new())
        .expect("compiled run");
    assert_eq!(out.output("o").to_f64_vec(), vec![9.0, 18.0]);
}

#[test]
fn heap_def_inside_a_parallel_body_is_thread_private() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // A heap `VarDef` under an `OpenMp` loop cannot live at a shared arena
    // offset: the planned unit must `calloc` it per iteration. Each row
    // fills its scratch and reads it back, so a shared buffer would mix
    // rows across the team.
    const ROWS: usize = 64;
    const COLS: usize = 48;
    let f = Func::new("rows")
        .param("x", [ROWS, COLS], DataType::F32, AccessType::Input)
        .param("y", [ROWS], DataType::F32, AccessType::Output)
        .body(for_with(
            "i",
            0,
            ROWS,
            ForProperty::parallel(ParallelScope::OpenMp),
            var_def(
                "t",
                [COLS],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_(
                        "j",
                        0,
                        COLS,
                        store("t", [var("j")], load("x", [var("i"), var("j")]) * 2.0f32),
                    ),
                    for_(
                        "k",
                        0,
                        COLS,
                        reduce("y", [var("i")], ReduceOp::Add, load("t", [var("k")])),
                    ),
                ]),
            ),
        ));
    let (lowered, plan) = ft_runtime::lower_and_plan(&f, &HashMap::new());
    let (c, _) = freetensor::codegen::emit_c_planned(&lowered, &plan, false).expect("emits");
    assert!(c.contains("calloc("), "planned unit placed `t` in the arena:\n{c}");

    let x = TensorVal::from_f32(
        &[ROWS, COLS],
        (0..ROWS * COLS).map(|v| (v as f32 * 0.11).sin()).collect(),
    );
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let want = Runtime::new().run(&f, &inputs, &HashMap::new()).expect("interp run");
    let engine = CompiledEngine::new();
    let mut ctx = ft_runtime::RunContext::new();
    let fresh = engine.run(&f, &inputs, &HashMap::new()).expect("compiled run");
    let planned = engine
        .run_with(&f, &inputs, &HashMap::new(), &mut ctx)
        .expect("compiled run with a context");
    assert_eq!(fresh.outputs, want.outputs);
    assert_eq!(planned.outputs, want.outputs);
}
