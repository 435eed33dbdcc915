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
//! * `hoisted_gathers_and_guards_*`, `all_i32_histogram_is_exact`,
//!   `i64_max_reduction_is_exact_above_2_pow_53`,
//!   `unknown_library_kernel_*` — the emitter's scalar-code decisions
//!   (values moved out of loops, register accumulators, typed operators)
//!   on the inputs where moving an evaluation would show.

use freetensor::autoschedule::Target;
use freetensor::workloads::{gat, longformer};
use freetensor::trace::{metrics_from_json, metrics_to_json, JsonVal};
use ft_conformance::grad::{build_grad_func, grad_setup, GradSpec};
use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::{check_grad_variant, check_variant, Backend, Case, GradTol, Workload};
use ft_ir::prelude::*;
use ft_ir::ForProperty;
use ft_metrics::Metrics;
use ft_runtime::{cc_available, CompiledEngine, ExecutionEngine, Runtime, RuntimeError, TensorVal};
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
            let case = Case::build(w, seed & 0xFFFF);
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
            let case = Case::build(w, seed & 0xFFFF);
            let mut rng = TestRng::from_seed_u64(seed);
            let raw = sample_trace(&mut rng, 4);
            // Outside the differentiable fragment = structured skip, same
            // as the grad conformance sweep.
            let Ok((gfunc, trace)) = build_grad_func(&case.func, &raw, &GradSpec::default())
            else {
                continue;
            };
            let (inputs, oracle_grads) = grad_setup(w, &case);
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
    let case = Case::build(Workload::Subdivnet, 3);
    // Both runs are judged through the METRICS.json snapshot format — the
    // same structural path `bench_check --expect-warm` gates on in CI —
    // so this test pins the counters *and* their export.
    let frozen = |m: &Metrics| {
        let text = metrics_to_json(&m.snapshot()).to_string();
        let doc = JsonVal::parse(&text).expect("snapshot is JSON");
        metrics_from_json(&doc).expect("snapshot roundtrips")
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
    // offset: the planned unit keeps it on the iteration's stack while it
    // fits the emitter's bound and `calloc`s it per iteration above. Each
    // row fills its scratch and reads it back, so a shared buffer would mix
    // rows across the team.
    const ROWS: usize = 64;
    for (cols, private) in [(48usize, "float t[48] = {0};"), (4097, "calloc(")] {
        let f = Func::new("rows")
            .param("x", [ROWS, cols], DataType::F32, AccessType::Input)
            .param("y", [ROWS], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                ROWS,
                ForProperty::parallel(ParallelScope::OpenMp),
                var_def(
                    "t",
                    [cols],
                    DataType::F32,
                    MemType::CpuHeap,
                    block([
                        for_(
                            "j",
                            0,
                            cols,
                            store("t", [var("j")], load("x", [var("i"), var("j")]) * 2.0f32),
                        ),
                        for_(
                            "k",
                            0,
                            cols,
                            reduce("y", [var("i")], ReduceOp::Add, load("t", [var("k")])),
                        ),
                    ]),
                ),
            ));
        let (lowered, plan) = ft_runtime::lower_and_plan(&f, &HashMap::new());
        let (c, _) = freetensor::codegen::emit_c_planned(&lowered, &plan, false).expect("emits");
        assert!(
            c.contains(private),
            "`t` is not thread-private as `{private}`:\n{c}"
        );
        assert_eq!(c.contains("calloc("), cols > 4096, "{c}");

        let x = TensorVal::from_f32(
            &[ROWS, cols],
            (0..ROWS * cols).map(|v| (v as f32 * 0.11).sin()).collect(),
        );
        let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
        let want = Runtime::new()
            .run(&f, &inputs, &HashMap::new())
            .expect("interp run");
        let engine = CompiledEngine::new();
        let mut ctx = ft_runtime::RunContext::new();
        let fresh = engine
            .run(&f, &inputs, &HashMap::new())
            .expect("compiled run");
        let planned = engine
            .run_with(&f, &inputs, &HashMap::new(), &mut ctx)
            .expect("compiled run with a context");
        assert_eq!(fresh.outputs, want.outputs);
        assert_eq!(planned.outputs, want.outputs);
    }
}

/// `y` of the rule-scheduled `program` on both engines, checked to agree
/// within `TOL` everywhere.
fn compiled_and_interpreted(
    program: &freetensor::core::Program,
    inputs: &HashMap<String, TensorVal>,
) -> (TensorVal, TensorVal) {
    let p = program.optimize(&Target::cpu());
    let want = Runtime::new()
        .run(p.func(), inputs, &HashMap::new())
        .expect("interp run");
    let got = CompiledEngine::new()
        .run(p.func(), inputs, &HashMap::new())
        .expect("compiled run");
    let (want, got) = (want.output("y").clone(), got.output("y").clone());
    let diff = got.max_abs_diff(&want);
    assert!(
        diff < TOL,
        "compiled differs from the interpreter by {diff}"
    );
    (got, want)
}

#[test]
fn hoisted_gathers_and_guards_stay_within_tolerance_of_the_interpreter() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // GAT: the per-edge weight and the gathered row index leave the channel
    // loop, `m` and `den` accumulate in registers around edge loops whose
    // trip count is data. The last node gets no edge: its edge range starts
    // at the end of `colidx`, so anything evaluated for it that the program
    // does not evaluate reads out of bounds, and its row must stay zero.
    let p = gat::Params {
        n_nodes: 64,
        degree: 4,
        feat_len: 8,
    };
    let mut inputs = gat::inputs(&p, 11);
    let rowptr = inputs.get_mut("rowptr").expect("rowptr");
    let edges = rowptr.get_flat(p.n_nodes);
    rowptr.set_flat(p.n_nodes - 1, edges);
    let (y, _) = compiled_and_interpreted(&gat::program(&p), &inputs);
    let last_row = &y.f32_data().expect("f32 y")[(p.n_nodes - 1) * p.feat_len..];
    assert!(last_row.iter().all(|v| *v == 0.0), "{last_row:?}");

    // Longformer: rows at both ends of the sequence have window slots
    // outside it. The `K`/`V` rows of those slots do not exist; the dot
    // products and the weighted sum around them sit under an `If` that
    // nothing may be moved out of.
    let p = longformer::Params {
        seq_len: 96,
        w: 8,
        feat_len: 16,
    };
    let inputs = longformer::inputs(&p, 11);
    let (y, want) = compiled_and_interpreted(&longformer::program(&p), &inputs);
    for row in [0, p.w - 1, p.seq_len - p.w, p.seq_len - 1] {
        for c in 0..p.feat_len {
            let (g, w) = (
                y.get(&[row as i64, c as i64]),
                want.get(&[row as i64, c as i64]),
            );
            assert!(
                g.as_f64().is_finite() && (g.as_f64() - w.as_f64()).abs() < TOL,
                "y[{row}, {c}] = {g:?}, interpreter {w:?}"
            );
        }
    }
}

#[test]
fn all_i32_histogram_is_exact() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // `h[idx[i]] += w[i]` under a parallel mark, every tensor `i32`: chunk
    // rows, an ordered merge into a register, nothing typed as a float on
    // the way.
    const N: usize = 4096;
    const BINS: usize = 16;
    let mut fold = reduce(
        "h",
        [Expr::cast(DataType::I64, load("idx", [var("i")]))],
        ReduceOp::Add,
        load("w", [var("i")]),
    );
    if let StmtKind::ReduceTo { atomic, .. } = &mut fold.kind {
        *atomic = true;
    }
    let f = Func::new("hist")
        .param("idx", [N], DataType::I32, AccessType::Input)
        .param("w", [N], DataType::I32, AccessType::Input)
        .param("h", [BINS], DataType::I32, AccessType::Output)
        .body(for_with(
            "i",
            0,
            N,
            ForProperty::parallel(ParallelScope::OpenMp),
            fold,
        ));
    let inputs: HashMap<String, TensorVal> = [
        (
            "idx".to_string(),
            TensorVal::from_i32(
                &[N],
                (0..N).map(|i| ((i * 37 + 11) % BINS) as i32).collect(),
            ),
        ),
        (
            "w".to_string(),
            TensorVal::from_i32(
                &[N],
                (0..N).map(|i| (i as i32 % 1000) * 2_000 - 7).collect(),
            ),
        ),
    ]
    .into_iter()
    .collect();
    let want = Runtime::new()
        .run(&f, &inputs, &HashMap::new())
        .expect("interp run");
    let got = CompiledEngine::new()
        .run(&f, &inputs, &HashMap::new())
        .expect("compiled run");
    assert_eq!(got.outputs, want.outputs);
}

#[test]
fn i64_max_reduction_is_exact_above_2_pow_53() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // 2^53 + 1 is not a double: a `max=` that compares through `fmax`
    // answers 2^53.
    const BIG: i64 = 1 << 53;
    let f = Func::new("top")
        .param("x", [4], DataType::I64, AccessType::Input)
        .param("m", [2], DataType::I64, AccessType::Output)
        .body(for_(
            "i",
            0,
            4,
            block([
                reduce("m", [0], ReduceOp::Max, load("x", [var("i")])),
                reduce("m", [1], ReduceOp::Min, -load("x", [var("i")])),
            ]),
        ));
    let x = TensorVal::from_i64(&[4], vec![BIG - 1, BIG + 1, BIG, 5]);
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x)].into_iter().collect();
    let want = Runtime::new().run(&f, &inputs, &HashMap::new()).expect("interp run");
    assert_eq!(want.output("m").i64_data(), Some(&[BIG + 1, -BIG - 1][..]));
    let got = CompiledEngine::new()
        .run(&f, &inputs, &HashMap::new())
        .expect("compiled run");
    assert_eq!(got.outputs, want.outputs);
}

#[test]
fn unknown_library_kernel_is_a_structured_error_and_spawns_no_cc() {
    // Needs no compiler: the point is that none is asked.
    let f = Func::new("spectrum")
        .param("a", [4], DataType::F32, AccessType::Input)
        .param("b", [4], DataType::F32, AccessType::Output)
        .body(Stmt::new(StmtKind::LibCall {
            kernel: "fft".to_string(),
            inputs: vec!["a".to_string()],
            outputs: vec!["b".to_string()],
            attrs: vec![4],
        }));
    let inputs: HashMap<String, TensorVal> =
        [("a".to_string(), TensorVal::from_f32(&[4], vec![1.0; 4]))]
            .into_iter()
            .collect();
    let want = RuntimeError::UnknownKernel("fft".to_string());
    let interp = Runtime::new().run(&f, &inputs, &HashMap::new());
    assert_eq!(interp.err(), Some(want.clone()));

    let metrics = Metrics::new();
    let mut engine = CompiledEngine::new();
    engine.set_metrics(Some(metrics.clone()));
    let compiled = engine.run(&f, &inputs, &HashMap::new());
    assert_eq!(compiled.err(), Some(want));
    let snap = metrics.snapshot();
    assert_eq!(snap.counter("compiled.cc.spawned"), 0);
    assert_eq!(snap.counter("compiled.cache.miss"), 0);
}
