//! `lower_cpu_parallel` — the IR→IR step between a scheduled function and
//! the C emitter — and the determinism contract it buys (see `DESIGN.md`,
//! "CPU parallel lowering and the determinism contract").
//!
//! * Directed IR cases, one per rule of the pass: each checks the shape of
//!   the lowered tree and that lowered and original agree on the
//!   interpreter.
//! * `compiled_outputs_are_bit_identical_across_20_runs` and
//!   `compiled_outputs_are_bit_identical_across_omp_num_threads` — the three
//!   differentiated programs, four searched schedules and rule-scheduled
//!   Longformer (vector `exp` in its split window loops), through
//!   `CompiledEngine`: one bit pattern run to run, and the same pattern from
//!   child processes at `OMP_NUM_THREADS` = 1, 2 and 4. The schedules are
//!   the model-ranked traces `results/schedules/` held until the search
//!   started measuring (`tests/fixtures/model-ranked-schedules/`): they nest
//!   parallel marks and parallelize reductions into shared rows, which is
//!   what the lowering is for and what a measured search no longer commits.
//! * `emitted_c_has_no_atomics_and_forward_rule_c_is_unchanged` — no
//!   `omp atomic`/`omp critical` in any of those programs' C, and the C of
//!   the four forward rule-scheduled programs (full and small scale) still
//!   hashes to its pin: the lowering does not touch them.
//! * `rule_scheduled_gradient_c_and_ir_are_unchanged` — the C of the three
//!   full-scale rule-scheduled gradients and the printed rule-scheduled IR
//!   of all seven benchmark programs hash to their pins: the legality
//!   checks the rule passes ask accept and refuse what they did.
//! * `committed_searched_c_is_unchanged` — the C of the eight committed
//!   searched schedules, replayed at full and small scale, hashes to its
//!   pin: replay applies the same primitives the rule passes do.
//! * `rule_scheduled_windows_are_guard_free_and_bit_identical_to_the_unsplit_schedule`
//!   — Longformer and its gradient, small and full: no loop keeps a guard on
//!   its iterators after `auto_separate_tail`, and the interpreter's output
//!   bits are the unsplit schedule's.
//! * `benchmark_units_stay_in_f32_under_wdouble_promotion` — the C of the
//!   benchmark's seven units has no implicit `float`→`double` promotion and
//!   no narrowing float conversion, says `cc`.
//! * `the_unit_cc_builds_is_the_unit_program_emit_c_prints` — on the 22
//!   benchmark units, the `<key>.c` a `CompiledEngine` writes is byte for
//!   byte `Program::emit_c()`.
//! * `every_lowered_parallel_loop_proves` — the 22 benchmark units (the
//!   seven rule-scheduled programs and the eight committed searched
//!   schedules, at small and full scale), lowered as the engines run them
//!   (`lower_and_plan`): unique statement ids, and `prove_parallel` (the
//!   verdict both lowering engines run once per resolve) serializes no
//!   loop. With `--nocapture` it prints one table row per program and
//!   scale: parallel loops, serialized, and what proving them all cost.
//! * `the_scalar_lowering_is_invisible_to_the_interpreter` — the same 22
//!   units and one directed loop with a store between two reads: the
//!   interpreter's output bits on `lower_cpu_parallel(f)` and on
//!   `lower_scalar` of it are the same. With `--nocapture` it prints what
//!   the pass decided per unit.
//! * `a_racy_mark_runs_serially_with_its_reason_on_every_engine` — a
//!   hand-marked prefix sum and one-cell store: serial on the VM and the
//!   compiled engine, bit-identical to the interpreter, with a rejected
//!   `lower.parallel` decision naming the dependence and no `omp parallel
//!   for` in the unit (the one line `Program::emit_c()` keeps);
//!   `an_unlowered_atomic_reduction_is_a_carried_reduction_to_the_prover`
//!   — the prover's other reason.
//! * `every_vectorize_loop_is_emitted_under_omp_simd` — the rule-scheduled
//!   programs: a loop of `lower_and_plan`'s function carries `#pragma omp
//!   simd` in the C if and only if it is marked `vectorize`. With
//!   `--nocapture` it prints one table row per program and scale, with the
//!   marks `lower_scalar` cleared.

use freetensor::autodiff::GradOptions;
use freetensor::autoschedule::search::{prepare_candidate, SavedSchedule};
use freetensor::autoschedule::Target;
use freetensor::codegen::lower::{MAX_CHUNKS, PARTIAL_BYTES_CAP};
use freetensor::codegen::{emit_c, lower_and_plan, lower_cpu_parallel, lower_scalar, prove_parallel};
use freetensor::core::Program;
use freetensor::ir::prelude::*;
use freetensor::ir::{ForProperty, StmtId};
use freetensor::runtime::{
    cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, Scalar, TensorVal,
    VmRuntime,
};
use freetensor::trace::TraceSink;
use freetensor::workloads::{data, Inputs, Instance, Scale, Workload};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

fn omp() -> ForProperty {
    ForProperty::parallel(ParallelScope::OpenMp)
}

/// `var[indices] op= value`, flagged the way `parallelize` flags a carried
/// reduction.
fn atomic<I>(var: &str, indices: I, op: ReduceOp, value: impl Into<Expr>) -> Stmt
where
    I: IntoIterator,
    I::Item: Into<Expr>,
{
    let mut s = reduce(var, indices, op, value);
    if let StmtKind::ReduceTo { atomic, .. } = &mut s.kind {
        *atomic = true;
    }
    s
}

fn idx_at(i: &str) -> Expr {
    Expr::cast(DataType::I64, load("idx", [var(i)]))
}

/// What the directed cases look at in a lowered tree.
#[derive(Debug, Default)]
struct Shape {
    parallel_loops: Vec<String>,
    vectorized_loops: Vec<String>,
    atomics: usize,
    defs: Vec<(String, Vec<Expr>)>,
    /// Values stored into `*.part*` buffers: the fill identities.
    fills: Vec<(String, Expr)>,
}

fn shape_of(f: &Func) -> Shape {
    let mut sh = Shape::default();
    f.body.walk(&mut |s| match &s.kind {
        StmtKind::For { iter, property, .. } => {
            if property.parallel.is_parallel() {
                sh.parallel_loops.push(iter.clone());
            }
            if property.vectorize {
                sh.vectorized_loops.push(iter.clone());
            }
        }
        StmtKind::ReduceTo { atomic: true, .. } => sh.atomics += 1,
        StmtKind::VarDef { name, shape, .. } => sh.defs.push((name.clone(), shape.clone())),
        StmtKind::Store { var, value, .. } if var.contains(".part") => {
            sh.fills.push((var.clone(), value.clone()));
        }
        _ => {}
    });
    sh
}

fn loops_with_id(f: &Func, id: StmtId) -> usize {
    let mut n = 0;
    f.body.walk(&mut |s| {
        if s.id == id && matches!(s.kind, StmtKind::For { .. }) {
            n += 1;
        }
    });
    n
}

/// Lower `f`, check the invariants every lowering has, and check that the
/// interpreter computes the same outputs from both trees.
fn lower_checked(f: &Func, inputs: &Inputs, sizes: &HashMap<String, i64>) -> Func {
    let lowered = lower_cpu_parallel(f).into_owned();
    assert_eq!(shape_of(&lowered).atomics, 0, "{lowered}");
    assert!(
        matches!(lower_cpu_parallel(&lowered), Cow::Borrowed(_)),
        "lowering is not idempotent:\n{lowered}"
    );
    emit_c(&lowered, &ft_analysis::MemPlan::plan(&lowered, sizes), false)
        .unwrap_or_else(|e| panic!("emit_c rejected lowered IR: {e}\n{lowered}"));
    let rt = Runtime::new();
    let want = rt.run(f, inputs, sizes).expect("original runs");
    let got = rt.run(&lowered, inputs, sizes).expect("lowered runs");
    assert_eq!(want.outputs.len(), got.outputs.len());
    for (name, w) in &want.outputs {
        let g = got.output(name);
        for i in 0..w.numel() {
            let (w, g) = (w.get_flat(i).as_f64(), g.get_flat(i).as_f64());
            assert!(
                (w - g).abs() <= 1e-5 + 1e-5 * w.abs(),
                "{name}[{i}]: original {w}, lowered {g}\n{lowered}"
            );
        }
    }
    lowered
}

fn no_sizes() -> HashMap<String, i64> {
    HashMap::new()
}

/// `idx` (256 bins indices below `bins`) and `w` (256 weights).
fn scatter_inputs(bins: usize) -> Inputs {
    let idx: Vec<i32> = (0..256).map(|i| ((i * 37 + 11) % bins) as i32).collect();
    let w: Vec<f32> = (0..256).map(|i| 0.25 + (i % 7) as f32 * 0.125).collect();
    HashMap::from([
        ("idx".to_string(), TensorVal::from_i32(&[256], idx)),
        ("w".to_string(), TensorVal::from_f32(&[256], w)),
    ])
}

fn scatter_func(bins: impl Into<Expr>, body: Stmt) -> Func {
    Func::new("scatter")
        .param("idx", [256], DataType::I32, AccessType::Input)
        .param("w", [256], DataType::F32, AccessType::Input)
        .param("h", [bins.into()], DataType::F32, AccessType::InOut)
        .body(body)
}

#[test]
fn carried_add_becomes_chunk_rows_and_an_ordered_merge() {
    let l = for_with(
        "i",
        0,
        256,
        omp(),
        atomic("h", [idx_at("i")], ReduceOp::Add, load("w", [var("i")])),
    )
    .with_label("L");
    let id = l.id;
    let f = scatter_func(64, l);
    let mut inputs = scatter_inputs(64);
    inputs.insert("h".to_string(), TensorVal::from_f32(&[64], vec![1.5; 64]));
    let lowered = lower_checked(&f, &inputs, &no_sizes());
    let sh = shape_of(&lowered);
    // 64 f32 = 256 B per row: the chunk count tops out.
    assert_eq!(
        sh.defs,
        [(
            "h.part".to_string(),
            vec![Expr::IntConst(MAX_CHUNKS as i64), Expr::IntConst(64)]
        )],
        "{lowered}"
    );
    // Chunk loop and merge: two parallel nests (a zeroed `VarDef` is the
    // identity of `+=`, so nothing fills the rows); the chunk loop alone
    // keeps L's id and label.
    assert_eq!(sh.parallel_loops, ["i.chunk", "h.part.i0"], "{lowered}");
    assert_eq!(loops_with_id(&lowered, id), 1, "{lowered}");
    let labelled = find_stmts(&lowered.body, &|s| s.label.as_deref() == Some("L"));
    assert_eq!(labelled.len(), 1, "{lowered}");
    assert!(
        matches!(&labelled[0].kind, StmtKind::For { iter, .. } if iter == "i.chunk"),
        "{lowered}"
    );
    assert!(sh.fills.is_empty(), "{lowered}");
}

#[test]
fn mul_min_max_rows_start_from_the_identity() {
    let body = block([
        atomic("pm", [idx_at("i")], ReduceOp::Mul, load("w", [var("i")])),
        atomic("mn", [idx_at("i")], ReduceOp::Min, load("w", [var("i")])),
        atomic("mx", [idx_at("i")], ReduceOp::Max, load("w", [var("i")])),
        atomic("imx", [idx_at("i")], ReduceOp::Max, load("idx", [var("i")])),
    ]);
    let f = Func::new("ops")
        .param("idx", [256], DataType::I32, AccessType::Input)
        .param("w", [256], DataType::F32, AccessType::Input)
        .param("pm", [4], DataType::F32, AccessType::InOut)
        .param("mn", [4], DataType::F32, AccessType::InOut)
        .param("mx", [4], DataType::F32, AccessType::InOut)
        .param("imx", [4], DataType::I32, AccessType::InOut);
    let mut inputs = scatter_inputs(4);
    // Existing contents must survive: the merge folds rows *into* X.
    inputs.insert("pm".to_string(), TensorVal::from_f32(&[4], vec![2.0; 4]));
    inputs.insert(
        "mn".to_string(),
        TensorVal::from_f32(&[4], vec![0.3, 9.0, 0.1, 9.0]),
    );
    inputs.insert(
        "mx".to_string(),
        TensorVal::from_f32(&[4], vec![0.3, 9.0, 0.1, 9.0]),
    );
    inputs.insert(
        "imx".to_string(),
        TensorVal::from_i32(&[4], vec![-7, 100, 2, 0]),
    );
    let l = for_with("i", 0, 256, omp(), body);
    let id = l.id;
    let f = f.body(l);
    let lowered = lower_checked(&f, &inputs, &no_sizes());
    // Per target a fill and a merge nest, plus the chunk loop: only the
    // chunk loop is L's.
    assert_eq!(loops_with_id(&lowered, id), 1, "{lowered}");
    let mut fills = shape_of(&lowered).fills;
    fills.sort_by(|a, b| a.0.cmp(&b.0));
    assert_eq!(
        fills,
        [
            ("imx.part".to_string(), Expr::IntConst(i64::from(i32::MIN))),
            ("mn.part".to_string(), Expr::FloatConst(f64::INFINITY)),
            ("mx.part".to_string(), Expr::FloatConst(f64::NEG_INFINITY)),
            ("pm.part".to_string(), Expr::FloatConst(1.0)),
        ],
        "{lowered}"
    );
}

#[test]
fn thread_private_target_only_loses_its_flag() {
    // `t` lives inside L: the inner parallel mark made its reduction
    // atomic, demoting that mark makes it plain.
    let inner = for_with(
        "j",
        0,
        8,
        omp(),
        atomic(
            "t",
            [var("j") % 2],
            ReduceOp::Add,
            load("x", [var("i"), var("j")]),
        ),
    );
    let body = var_def(
        "t",
        [2],
        DataType::F32,
        MemType::CpuStack,
        block([
            inner,
            store("y", [var("i")], load("t", [0]) - load("t", [1])),
        ]),
    );
    let f = Func::new("private")
        .param("x", [16, 8], DataType::F32, AccessType::Input)
        .param("y", [16], DataType::F32, AccessType::Output)
        .body(for_with("i", 0, 16, omp(), body));
    let inputs = HashMap::from([("x".to_string(), data::features(&[16, 8], 5))]);
    let lowered = lower_checked(&f, &inputs, &no_sizes());
    let sh = shape_of(&lowered);
    assert_eq!(sh.parallel_loops, ["i"], "{lowered}");
    assert_eq!(
        sh.defs.len(),
        1,
        "no partial for a private target:\n{lowered}"
    );
}

/// The three ways a target cannot be privatized: the loop and everything in
/// it run serially, without `simd` on the loop itself.
#[test]
fn unprivatizable_targets_serialize_the_loop() {
    let red = || atomic("h", [idx_at("i")], ReduceOp::Add, load("w", [var("i")]));
    let serial = |f: &Func, inputs: &Inputs, sizes: &HashMap<String, i64>, why: &str| {
        let lowered = lower_checked(f, inputs, sizes);
        let sh = shape_of(&lowered);
        assert!(sh.parallel_loops.is_empty(), "{why}:\n{lowered}");
        assert!(sh.vectorized_loops.is_empty(), "{why}:\n{lowered}");
        assert!(sh.defs.is_empty(), "{why}:\n{lowered}");
    };
    let par_simd = ForProperty {
        vectorize: true,
        ..omp()
    };

    // A Store to the target inside L.
    let body = block([if_(var("i").lt(4), store("h", [var("i")], 0.0f32)), red()]);
    let f = scatter_func(64, for_with("i", 0, 256, par_simd, body));
    let mut inputs = scatter_inputs(64);
    inputs.insert("h".to_string(), TensorVal::from_f32(&[64], vec![1.0; 64]));
    serial(&f, &inputs, &no_sizes(), "store inside L");

    // A symbolic extent.
    let f = scatter_func(var("n"), for_with("i", 0, 256, omp(), red())).size_param("n");
    serial(
        &f,
        &inputs,
        &HashMap::from([("n".to_string(), 64i64)]),
        "symbolic extent",
    );

    // Two rows over the cap.
    let bins = PARTIAL_BYTES_CAP as usize / 4 / 2 + 1;
    let f = scatter_func(bins, for_with("i", 0, 256, omp(), red()));
    let mut big = scatter_inputs(64);
    big.insert("h".to_string(), TensorVal::zeros(DataType::F32, &[bins]));
    serial(&f, &big, &no_sizes(), "over the byte cap");

    // Loop bounds that read memory.
    let f = scatter_func(
        64,
        for_with(
            "i",
            0,
            Expr::cast(DataType::I64, load("idx", [0])),
            omp(),
            red(),
        ),
    );
    serial(&f, &inputs, &no_sizes(), "bounds read a tensor");
}

#[test]
fn only_the_outermost_parallel_mark_survives() {
    let k = for_with(
        "k",
        0,
        4,
        ForProperty {
            vectorize: true,
            ..omp()
        },
        store(
            "y",
            [var("i"), var("j"), var("k")],
            var("i") * 100 + var("j") * 10 + var("k"),
        ),
    );
    let f = Func::new("nest3")
        .param("y", [4, 4, 4], DataType::F32, AccessType::Output)
        .body(for_with("i", 0, 4, omp(), for_with("j", 0, 4, omp(), k)));
    let lowered = lower_checked(&f, &HashMap::new(), &no_sizes());
    let sh = shape_of(&lowered);
    assert_eq!(sh.parallel_loops, ["i"], "{lowered}");
    assert_eq!(
        sh.vectorized_loops,
        ["k"],
        "demotion keeps vectorize:\n{lowered}"
    );
}

#[test]
fn a_local_def_shadowing_the_target_is_left_alone() {
    // Inside L, `h` is rebound: reductions under the inner def go to it,
    // not to the partial of the outer `h`.
    let inner = var_def(
        "h",
        [64],
        DataType::F32,
        MemType::CpuHeap,
        block([
            atomic("h", [idx_at("i")], ReduceOp::Add, 1.0f32),
            store("y", [var("i")], load("h", [idx_at("i")])),
        ]),
    );
    let body = block([
        inner,
        atomic("h", [idx_at("i")], ReduceOp::Add, load("w", [var("i")])),
    ]);
    let f = scatter_func(64, for_with("i", 0, 256, omp(), body)).param(
        "y",
        [256],
        DataType::F32,
        AccessType::Output,
    );
    let mut inputs = scatter_inputs(64);
    inputs.insert("h".to_string(), TensorVal::zeros(DataType::F32, &[64]));
    let lowered = lower_checked(&f, &inputs, &no_sizes());
    let mut to_part = 0;
    lowered.body.walk(&mut |s| {
        if matches!(&s.kind, StmtKind::ReduceTo { var, .. } if var == "h.part") {
            to_part += 1;
        }
    });
    assert_eq!(to_part, 1, "{lowered}");
}

/// One plan for one function: the rows the lowering adds are in the plan
/// the engine binds contexts to, live in the arena (no allocation on a warm
/// call, no `calloc` in the C) and count against a server's memory budget.
#[test]
fn partial_rows_are_planned_arena_backed_and_budgeted() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    // 4096 f32 bins = 16 KiB per row, 8 rows.
    let red = atomic("h", [idx_at("i")], ReduceOp::Add, load("w", [var("i")]));
    let f = scatter_func(4096, for_with("i", 0, 256, omp(), red));
    let rows = MAX_CHUNKS * 4096 * 4;
    let sizes = no_sizes();
    let (lowered, plan) = freetensor::runtime::lower_and_plan(&f, &sizes);
    assert!(plan.planned_peak_bytes >= rows, "{plan:?}");
    let (c, _) = freetensor::codegen::emit_c(&lowered, &plan, false).expect("emits");
    assert!(c.contains("float* h_part = (float*)(__ft_arena + "), "{c}");
    assert!(!c.contains("calloc"), "{c}");

    let mut inputs = scatter_inputs(4096);
    inputs.insert("h".to_string(), TensorVal::zeros(DataType::F32, &[4096]));
    let metrics = ft_metrics::Metrics::new();
    let mut engine = CompiledEngine::new();
    engine.set_metrics(Some(metrics.clone()));
    let mut ctx = RunContext::new();
    let cold = engine
        .run_with(&f, &inputs, &sizes, &mut ctx)
        .expect("cold run");
    ctx.recycle(cold).expect("recycles");
    let allocs = |m: &ft_metrics::Metrics| m.snapshot().counter("mem.arena.alloc_calls");
    let before = allocs(&metrics);
    for _ in 0..3 {
        let r = engine
            .run_with(&f, &inputs, &sizes, &mut ctx)
            .expect("warm run");
        ctx.recycle(r).expect("recycles");
    }
    assert_eq!(allocs(&metrics), before, "warm calls allocated");

    let params = (256 + 256 + 4096) * 4;
    let srv = freetensor::serve::Server::new(
        freetensor::serve::ServeConfig {
            workers: 0,
            mem_budget_bytes: Some(params + rows / 2),
            ..Default::default()
        },
        ft_metrics::Metrics::new(),
    );
    let req = freetensor::serve::Request::new(std::sync::Arc::new(f), inputs, sizes);
    match srv.submit("a", req) {
        Err(freetensor::serve::ServeError::OverBudget {
            requested_bytes, ..
        }) => assert!(requested_bytes >= params + rows, "{requested_bytes}"),
        other => panic!("want OverBudget, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn nothing_to_lower_is_returned_borrowed() {
    let f = Func::new("axpy")
        .param("x", [var("n")], DataType::F32, AccessType::Input)
        .param("y", [var("n")], DataType::F32, AccessType::InOut)
        .size_param("n")
        .body(for_with(
            "i",
            0,
            var("n"),
            omp(),
            block([
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i")]) + load("x", [var("i")]),
                ),
                // A plain (non-atomic) reduction and a serial inner loop.
                for_("j", 0, 2, reduce("y", [var("i")], ReduceOp::Add, 1.0f32)),
            ]),
        ));
    assert!(matches!(lower_cpu_parallel(&f), Cow::Borrowed(_)));
}

// ---------------------------------------------------------------------------
// The benchmark's programs: three gradients under the rule passes and the
// four committed searched schedules.

#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    Rules,
    GradRules,
    Searched,
}

fn instance(name: &str, full: bool) -> Instance {
    let scale = if full { Scale::Full } else { Scale::Small };
    Workload::from_name(name).expect("a workload").at(scale)
}

/// Inputs at one scale; a gradient also gets its seed tensor `<out>.grad`.
fn inputs(name: &str, full: bool, grad: bool) -> Inputs {
    let inst = instance(name, full);
    let mut m = inst.inputs(7);
    if grad {
        let out = inst.workload().output();
        m.insert(format!("{out}.grad"), data::features(&inst.output_shape(), 99));
    }
    m
}

fn program(name: &str, full: bool, kind: Kind) -> Program {
    let p = instance(name, full).program();
    match kind {
        Kind::Rules => p.optimize(&Target::cpu()),
        Kind::GradRules => p
            .grad(&GradOptions::default())
            .expect("differentiable")
            .optimize(&Target::cpu()),
        Kind::Searched => {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("tests/fixtures/model-ranked-schedules")
                .join(SavedSchedule::file_name(name, "cpu", "full"));
            let text = std::fs::read_to_string(&path).expect("schedule fixture");
            let saved = SavedSchedule::from_json(&text).expect("schedule parses");
            let (func, _) = prepare_candidate(p.func(), freetensor::ir::Device::Cpu, &saved.trace);
            Program::from_schedule(freetensor::schedule::Schedule::new(func))
        }
    }
}

/// The seven programs whose C used to carry `omp atomic` or nested regions.
fn lowered_programs() -> Vec<(String, Program, Inputs)> {
    let mut v = Vec::new();
    for name in ["subdivnet", "longformer", "softras"] {
        v.push((
            format!("{name}.grad"),
            program(name, true, Kind::GradRules),
            inputs(name, true, true),
        ));
    }
    for name in ["subdivnet", "longformer", "softras", "gat"] {
        v.push((
            format!("{name}.searched"),
            program(name, true, Kind::Searched),
            inputs(name, true, false),
        ));
    }
    v
}

/// FNV-1a over names, shapes and raw element bits, in name order.
fn output_hash(outputs: &HashMap<String, TensorVal>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h = freetensor::ir::Fnv1a::new();
    for name in names {
        let t = &outputs[name];
        h.write(name.as_bytes());
        for d in t.shape() {
            h.write(&d.to_le_bytes());
        }
        for i in 0..t.numel() {
            let bits = match t.get_flat(i) {
                Scalar::Float(f) => f.to_bits(),
                Scalar::Int(v) => v as u64,
                Scalar::Bool(b) => u64::from(b),
            };
            h.write(&bits.to_le_bytes());
        }
    }
    h.finish()
}

/// One hash per program over `runs` compiled runs each; panics when two
/// runs of a program differ in a single bit. The programs are
/// [`lowered_programs`] and rule-scheduled Longformer, whose split window
/// loops call libmvec's vector `expf` where the host has it.
fn compiled_hashes(runs: usize) -> Vec<(String, u64)> {
    let engine = CompiledEngine::new();
    let sizes = no_sizes();
    let longformer = (
        "longformer.rules".to_string(),
        program("longformer", true, Kind::Rules),
        inputs("longformer", true, false),
    );
    lowered_programs()
        .into_iter()
        .chain([longformer])
        .map(|(label, p, inputs)| {
            let mut ctx = RunContext::new();
            let mut first = None;
            for run in 0..runs {
                let r = engine
                    .run_with(p.func(), &inputs, &sizes, &mut ctx)
                    .unwrap_or_else(|e| panic!("{label}: {e}"));
                let h = output_hash(&r.outputs);
                assert_eq!(
                    *first.get_or_insert(h),
                    h,
                    "{label}: run {run} differs bitwise from run 0"
                );
                ctx.recycle(r).expect("recycles");
            }
            (label, first.expect("runs > 0"))
        })
        .collect()
}

#[test]
fn compiled_outputs_are_bit_identical_across_20_runs() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    assert_eq!(compiled_hashes(20).len(), 8);
}

const HASH_LINE: &str = "FT_OUTPUT_HASHES ";

/// Child side of the `OMP_NUM_THREADS` sweep (libgomp reads the variable
/// once per process): prints one line of per-program output hashes.
#[test]
#[ignore = "helper: run by compiled_outputs_are_bit_identical_across_omp_num_threads"]
fn print_compiled_output_hashes() {
    let line: Vec<String> = compiled_hashes(2)
        .into_iter()
        .map(|(label, h)| format!("{label}={h:016x}"))
        .collect();
    println!("{HASH_LINE}{}", line.join(" "));
}

#[test]
fn compiled_outputs_are_bit_identical_across_omp_num_threads() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    let hashes: Vec<String> = ["1", "2", "4"]
        .iter()
        .map(|threads| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "print_compiled_output_hashes",
                    "--ignored",
                    "--nocapture",
                ])
                .env("OMP_NUM_THREADS", threads)
                .output()
                .expect("child test process runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "child at OMP_NUM_THREADS={threads} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            stdout
                .lines()
                .find_map(|l| l.split_once(HASH_LINE).map(|(_, h)| h.to_string()))
                .unwrap_or_else(|| panic!("no hash line from the child:\n{stdout}"))
        })
        .collect();
    assert_eq!(hashes[0].split(' ').count(), 8, "{hashes:?}");
    assert_eq!(hashes[0], hashes[1], "OMP_NUM_THREADS=1 vs 2");
    assert_eq!(hashes[0], hashes[2], "OMP_NUM_THREADS=1 vs 4");
}

/// FNV-1a of `Program::emit_c()` for the forward rule-scheduled programs:
/// they hold no atomic reduction and no nested parallel mark, so the
/// lowering must not move a byte of them. Pinned at the commit before
/// `lower_cpu_parallel` existed (980b554) and re-pinned three times since:
/// when the emitter itself changed what it spells for the same IR (`f32`
/// expressions in `float`, loop-invariant and repeated values in `const`
/// locals, reduction targets in registers with a `simd reduction` clause,
/// small thread-private rows as arrays — `ft-codegen/src/scalar.rs`), when
/// the prelude gained `ft_ffmod`/`ft_ffmodf` (eight lines in front of
/// `ft_sigmoid`, nothing else), and when it gained the `FT_LIBMVEC` block
/// of vector-math declarations (fifteen lines after `#include <math.h>`;
/// Longformer's C also moved, by the `auto_separate_tail` split its IR pin
/// below records). SoftRas (both scales) and small GAT moved once more when
/// `auto_unroll` came to run before `auto_vectorize`: the loop the unrolled
/// channel loop sat in is now `vectorize`, and its C gains a `simd
/// reduction` pragma. All eight moved once more when the emitter became a
/// printer of `lower_scalar`'s IR: registers are spelled as scalar locals
/// (`float m = -INFINITY;`, no block), a reduction into a register needs no
/// accumulator, temporaries are numbered in decision order, and an `f32`
/// value with an operator in it is no register (the interpreter would
/// round it) — its loads are, and the prelude declares the `float` math
/// pure so that `cc` computes it once. Each diff is in EXPERIMENTS.md. All
/// eight moved once more, and no kernel with them, when `Program::emit_c`
/// came to print the unit `cc` builds (arena offsets, `ft_entry`): the
/// pins are the hashes of the engine's unit at the commit before.
const FORWARD_RULE_C: [(&str, bool, u64); 8] = [
    ("subdivnet", true, 0x18f7_464c_a82a_58eb),
    ("subdivnet", false, 0x1f77_fb90_21a9_53a1),
    ("longformer", true, 0x51bd_0608_f1c3_c859),
    ("longformer", false, 0x9a9e_84b2_8831_7c90),
    ("softras", true, 0x51a5_312f_fb19_b421),
    ("softras", false, 0xe9da_a6f4_f793_bd78),
    ("gat", true, 0x5183_9118_13f6_9430),
    ("gat", false, 0x1854_8c5f_af2b_e765),
];

#[test]
fn emitted_c_has_no_atomics_and_forward_rule_c_is_unchanged() {
    for (label, p, _) in lowered_programs() {
        assert!(
            matches!(lower_cpu_parallel(p.func()), Cow::Owned(_)),
            "{label} no longer exercises the lowering"
        );
        let c = p.emit_c();
        assert!(
            !c.contains("omp atomic") && !c.contains("omp critical"),
            "{label}:\n{c}"
        );
    }
    for (name, full, want) in FORWARD_RULE_C {
        let p = program(name, full, Kind::Rules);
        assert!(
            matches!(lower_cpu_parallel(p.func()), Cow::Borrowed(_)),
            "{name}"
        );
        let h = freetensor::ir::fnv1a(p.emit_c().as_bytes());
        assert_eq!(h, want, "{name} (full scale: {full}) emits different C");
    }
}

/// FNV-1a of `Program::emit_c()` for the eight committed searched
/// schedules (`results/schedules/`, what `kernel-searched` compiles),
/// replayed at full and small scale: replay runs the schedule primitives
/// on positions, so a primitive that rebuilds its loop differently moves
/// these. Pinned when the primitives came to decide on the tree in place
/// (SubdivNet's full-scale search kept the rule schedule: its pin is
/// `FORWARD_RULE_C`'s), and re-pinned with it to the unit `cc` builds.
const SEARCHED_C: [(&str, bool, u64); 8] = [
    ("subdivnet", true, 0x18f7_464c_a82a_58eb),
    ("subdivnet", false, 0x5f7e_b3d6_7632_49f4),
    ("longformer", true, 0x1234_68bb_b8d2_a04e),
    ("longformer", false, 0xdaa0_eacd_5ef8_d069),
    ("softras", true, 0x981f_d554_dfb9_a8cc),
    ("softras", false, 0xc0e2_6e26_58c6_6876),
    ("gat", true, 0xdc14_562a_182b_e570),
    ("gat", false, 0xfed2_53e8_4eb5_7971),
];

#[test]
fn committed_searched_c_is_unchanged() {
    let moved: Vec<String> = SEARCHED_C
        .iter()
        .filter_map(|&(name, full, want)| {
            let h = freetensor::ir::fnv1a(committed_searched(name, full).emit_c().as_bytes());
            (h != want).then(|| format!("{name} (full scale: {full}): {h:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "moved from their pins:\n{}", moved.join("\n"));
}

/// FNV-1a of `Program::emit_c()` for the three full-scale rule-scheduled
/// gradients, next to `FORWARD_RULE_C`: what the rule passes decided for
/// the programs where the dependence queries cost the most. Pinned at the
/// commit before the queries were scoped (f67484e); re-pinned with
/// `FORWARD_RULE_C` for the `FT_LIBMVEC` prelude block (all three) and
/// Longformer's split window loops, and for SubdivNet and SoftRas once more
/// when backward loops over named values kept ascending order (both) and
/// the emitter stopped counting a body-local reduction as carried (SoftRas),
/// and with `FORWARD_RULE_C` when the emitter became a printer of
/// `lower_scalar`'s IR and when `Program::emit_c` came to print the unit
/// `cc` builds.
const GRAD_RULE_C: [(&str, u64); 3] = [
    ("subdivnet", 0xf7b1_1f5e_dad9_90e4),
    ("longformer", 0x619e_abf9_11e2_71bd),
    ("softras", 0x8055_f374_58af_12e7),
];

/// FNV-1a of the printed rule-scheduled IR of the benchmark's seven
/// programs at full scale (`true` = differentiated first), pinned at the
/// same commit: every primitive the rule passes tried was accepted or
/// refused exactly as before. The two Longformer entries moved once, when
/// `auto_separate_tail` split their window loops (3 forward, 7 in the
/// gradient); `UNSPLIT_RULE_IR` keeps what they were. SoftRas (both) and
/// SubdivNet's gradient moved when `auto_unroll` came in front of
/// `auto_vectorize` and named values stopped reversing backward loops.
const RULE_IR: [(&str, bool, u64); 7] = [
    ("subdivnet", false, 0x4933_bda9_f6f8_24ab),
    ("longformer", false, 0x59fe_159e_2d9a_1e4a),
    ("softras", false, 0x2023_bb22_df7d_d187),
    ("gat", false, 0x48fd_0000_11d8_cf03),
    ("subdivnet", true, 0xbd57_4e49_3eaf_f7b3),
    ("longformer", true, 0xa1d2_c2ad_e85c_f18d),
    ("softras", true, 0xbc59_dde1_8bc7_d3c2),
];

#[test]
fn rule_scheduled_gradient_c_and_ir_are_unchanged() {
    let mut moved = Vec::new();
    for (name, want) in GRAD_RULE_C {
        let p = program(name, true, Kind::GradRules);
        let h = freetensor::ir::fnv1a(p.emit_c().as_bytes());
        if h != want {
            moved.push(format!("{name}.grad C: {h:#018x}"));
        }
    }
    for (name, grad, want) in RULE_IR {
        let kind = if grad { Kind::GradRules } else { Kind::Rules };
        let h = freetensor::ir::fnv1a(program(name, true, kind).func().to_string().as_bytes());
        if h != want {
            moved.push(format!("{name} (grad: {grad}) IR: {h:#018x}"));
        }
    }
    assert!(
        moved.is_empty(),
        "moved from their pins:\n{}",
        moved.join("\n")
    );
}

/// `RULE_IR` of Longformer and its gradient (full scale) before
/// `auto_separate_tail` existed: what [`unsplit_rules`] must still print.
const UNSPLIT_RULE_IR: [(bool, u64); 2] = [
    (false, 0xe296_43ed_931f_66f6),
    (true, 0x80c3_8313_cbe8_d215),
];

/// The rule passes without `auto_separate_tail`, as `Program::optimize`
/// runs them.
fn unsplit_rules(p: &Program) -> Func {
    use freetensor::autoschedule::*;
    let mut f = p.func().clone();
    for param in &mut f.params {
        param.mtype = MemType::default_for(Device::Cpu);
    }
    let (target, mut s) = (Target::cpu(), freetensor::schedule::Schedule::new(f));
    auto_fuse(&mut s);
    auto_use_lib(&mut s);
    auto_parallelize(&mut s, &target);
    auto_unroll(&mut s);
    auto_vectorize(&mut s);
    auto_mem_type(&mut s, &target);
    ft_passes::simplify(&s.into_func())
}

/// Every `if` whose condition reads an iterator of a loop around it.
fn iterator_guards(f: &Func) -> Vec<String> {
    let mut guards = Vec::new();
    f.body.walk(&mut |s| {
        let StmtKind::If { cond, .. } = &s.kind else {
            return;
        };
        let nest = freetensor::ir::find::loop_nest_of(&f.body, s.id).expect("in the tree");
        let free = cond.free_vars();
        if nest.loops.iter().any(|l| free.contains(l.iter)) {
            guards.push(format!("{cond:?}"));
        }
    });
    guards
}

/// Longformer's window loops under the rule passes, forward and
/// differentiated, small and full: `auto_separate_tail` leaves no guard on
/// an iterator in any loop, and the interpreter computes exactly the bits
/// of the unsplit schedule — every iteration runs the arm it ran before.
#[test]
fn rule_scheduled_windows_are_guard_free_and_bit_identical_to_the_unsplit_schedule() {
    for (grad, kind) in [(false, Kind::Rules), (true, Kind::GradRules)] {
        for full in [false, true] {
            let label = format!("longformer (grad: {grad}, full scale: {full})");
            let base = match grad {
                false => instance("longformer", full).program(),
                true => instance("longformer", full)
                    .program()
                    .grad(&GradOptions::default())
                    .expect("differentiable"),
            };
            let (split, unsplit) = (program("longformer", full, kind), unsplit_rules(&base));
            assert!(
                !iterator_guards(&unsplit).is_empty(),
                "{label}: nothing to split"
            );
            let guards = iterator_guards(split.func());
            assert!(guards.is_empty(), "{label}: {guards:?}\n{}", split.func());
            if full {
                let h = freetensor::ir::fnv1a(unsplit.to_string().as_bytes());
                assert!(
                    UNSPLIT_RULE_IR.contains(&(grad, h)),
                    "{label}: unsplit IR {h:#018x}"
                );
            }
            let inst = instance("longformer", full);
            let mut ins = inst.inputs(7);
            if grad {
                ins.insert(
                    "y.grad".to_string(),
                    data::features(&inst.output_shape(), 99),
                );
            }
            let run = |f: &Func| {
                Runtime::new()
                    .run(f, &ins, &no_sizes())
                    .expect("runs")
                    .outputs
            };
            assert_eq!(
                output_hash(&run(split.func())),
                output_hash(&run(&unsplit)),
                "{label}"
            );
        }
    }
}

/// The benchmark's seven programs under the rule passes: four forward,
/// three differentiated.
fn rule_programs() -> impl Iterator<Item = (&'static str, Kind)> {
    ["subdivnet", "longformer", "softras", "gat"]
        .map(|n| (n, Kind::Rules))
        .into_iter()
        .chain(["subdivnet", "longformer", "softras"].map(|n| (n, Kind::GradRules)))
}

/// Table labels of one of [`rule_programs`] at one scale.
fn labels(name: &str, kind: Kind, full: bool) -> (String, &'static str) {
    let label = match kind {
        Kind::GradRules => format!("{name}.grad"),
        _ => name.to_string(),
    };
    (label, if full { "full" } else { "small" })
}

/// The `vectorize` marks of `f`'s serial loops, in pre-order.
fn vectorize_marks(f: &Func) -> Vec<bool> {
    let mut marks = Vec::new();
    f.body.walk(&mut |s| {
        if let StmtKind::For { property, .. } = &s.kind {
            marks.push(property.vectorize && !property.parallel.is_parallel());
        }
    });
    marks
}

/// The schedule and the emitter agree: in the seven rule-scheduled
/// programs, small and full, a loop of the function `lower_and_plan`
/// returns is emitted under `#pragma omp simd` if and only if it is marked
/// `vectorize` — a pragma the emitter dropped would be SIMD the rule passes
/// proved and the kernel never gets, one it added a promise nobody checked.
/// The marks `lower_scalar` cleared (a loop left with a carried `min=`/
/// `max=` or a reduction it could not keep in a register) are counted
/// apart. The emitter prints one `for` line per IR loop, in pre-order, so
/// the two walks pair up loop by loop. With `--nocapture` it prints one
/// table row per program and scale.
#[test]
fn every_vectorize_loop_is_emitted_under_omp_simd() {
    println!("\n| program | scale | `vectorize` loops | `omp simd` | marks the pass cleared |");
    println!("|---|---|---|---|---|");
    let mut failed = Vec::new();
    for (name, kind) in rule_programs() {
        for full in [false, true] {
            let p = program(name, full, kind);
            let (lowered, _) = lower_and_plan(p.func(), &no_sizes());
            let marks = vectorize_marks(&lowered);
            let before = vectorize_marks(&lower_cpu_parallel(p.func()));
            let cleared = before.iter().filter(|&&m| m).count() - marks.iter().filter(|&&m| m).count();
            let c = p.emit_c();
            let lines: Vec<&str> = c.lines().map(str::trim_start).collect();
            // Loops of the function, not of the prelude's helpers.
            let simd: Vec<bool> = (1..lines.len())
                .filter(|&i| lines[i].starts_with("for (int64_t ") && lines[i].ends_with('{'))
                .map(|i| lines[i - 1].starts_with("#pragma omp simd"))
                .collect();
            let (label, scale) = labels(name, kind, full);
            assert_eq!(
                simd.len(),
                marks.len(),
                "{label} ({scale}): loops vs `for` lines\n{c}"
            );
            let mismatched = marks.iter().zip(&simd).filter(|(m, s)| m != s).count();
            println!(
                "| {label} | {scale} | {} | {} | {cleared} |",
                marks.iter().filter(|&&m| m).count(),
                simd.iter().filter(|&&s| s).count(),
            );
            if mismatched > 0 {
                failed.push(format!("{label} ({scale}): {mismatched} loops disagree"));
            }
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// The emitter types an `f32` program's expressions in `float` from the
/// IR's own inference (`Expr::dtype`); `cc` is the judge of whether that
/// inference mirrors C's conversions: one `exp` for `expf`, one unsuffixed
/// literal or one temporary of the wrong type is a warning here.
#[test]
fn benchmark_units_stay_in_f32_under_wdouble_promotion() {
    use std::io::Write as _;
    use std::process::{Command, Stdio};
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    for (name, kind) in rule_programs() {
        let c = program(name, true, kind).emit_c();
        let mut cc = Command::new("cc")
            .args(["-fopenmp", "-fsyntax-only", "-Werror", "-xc", "-"])
            .args(["-Wdouble-promotion", "-Wfloat-conversion"])
            .stdin(Stdio::piped())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("cc spawns");
        cc.stdin
            .as_mut()
            .expect("piped stdin")
            .write_all(c.as_bytes())
            .expect("write source");
        let out = cc.wait_with_output().expect("cc runs");
        assert!(
            out.status.success(),
            "{name} ({kind:?}):\n{}\n--- source ---\n{c}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

/// The committed searched schedule of `name` at one scale
/// (`results/schedules/`, what `kernel-searched` compiles), replayed.
fn committed_searched(name: &str, full: bool) -> Program {
    let scale = if full { "full" } else { "small" };
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("results/schedules")
        .join(SavedSchedule::file_name(name, "cpu", scale));
    let text = std::fs::read_to_string(&path).expect("committed schedule");
    let saved = SavedSchedule::from_json(&text).expect("schedule parses");
    let p = instance(name, full).program();
    let (func, _) = prepare_candidate(p.func(), freetensor::ir::Device::Cpu, &saved.trace);
    Program::from_schedule(freetensor::schedule::Schedule::new(func))
}

/// One of the benchmark's 22 units: a table label, its scale, the program,
/// and the inputs it runs on.
struct Unit {
    label: String,
    scale: &'static str,
    program: Program,
    inputs: Box<dyn Fn() -> Inputs>,
}

/// The benchmark's seven programs under the rule passes — four forward,
/// three differentiated — and the eight committed searched schedules, at
/// small and full scale.
fn benchmark_units() -> Vec<Unit> {
    let mut units = Vec::new();
    for (name, kind) in rule_programs() {
        for full in [false, true] {
            let (label, scale) = labels(name, kind, full);
            let grad = kind == Kind::GradRules;
            let inputs = Box::new(move || inputs(name, full, grad));
            let program = program(name, full, kind);
            units.push(Unit { label, scale, program, inputs });
        }
    }
    for name in ["subdivnet", "longformer", "softras", "gat"] {
        for full in [false, true] {
            let (_, scale) = labels(name, Kind::Searched, full);
            let label = format!("{name} (searched)");
            let inputs = Box::new(move || inputs(name, full, false));
            let program = committed_searched(name, full);
            units.push(Unit { label, scale, program, inputs });
        }
    }
    units
}

/// A loop that reads one cell, writes it, and reads it again — what no
/// value may be moved across — as a directed unit next to the 22, whose
/// programs happen to hold no such loop.
fn store_between_reads() -> Unit {
    let acc = || load("acc", [0]);
    let y = || ft_ir::idx![var("i"), var("c")];
    let f = Func::new("carry")
        .param("x", [8], DataType::F32, AccessType::Input)
        .param("acc", [1], DataType::F32, AccessType::InOut)
        .param("y", [8, 8], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            8,
            for_(
                "c",
                0,
                8,
                block([
                    store("y", y(), acc() * load("x", [var("c")])),
                    store("acc", [0], acc() + load("x", [var("c")])),
                    store("y", y(), load("y", y()) + acc()),
                ]),
            ),
        ));
    let inputs = || {
        let x = TensorVal::from_f32(&[8], (0..8).map(|v| v as f32 * 0.37 - 1.1).collect());
        let acc = TensorVal::from_f32(&[1], vec![0.3]);
        HashMap::from([("x".to_string(), x), ("acc".to_string(), acc)])
    };
    Unit {
        label: "store between reads".to_string(),
        scale: "directed",
        program: Program::from_func(f),
        inputs: Box::new(inputs),
    }
}

/// The 22 benchmark units, lowered as both back ends run them
/// (`lower_and_plan`, the scalar lowering's registers included). Every
/// statement keeps an id of its own, so a query about one loop is about
/// that loop alone, and the verdict the engines run under
/// (`prove_parallel`, the queries `parallelize` asks: no carried
/// dependence, no carried reduction) serializes no loop. Run with
/// `--nocapture`, it prints a table row per program and scale with what
/// proving every loop cost (one access collection, both queries per loop,
/// best of three).
#[test]
fn every_lowered_parallel_loop_proves() {
    println!("\n| program | scale | parallel loops | serialized | prover µs |");
    println!("|---|---|---|---|---|");
    let mut failed = Vec::new();
    for Unit { label, scale, program, .. } in benchmark_units() {
        let (lowered, _) = lower_and_plan(program.func(), &no_sizes());
        let (mut ids, mut duplicates, mut loops) = (HashSet::new(), 0, 0);
        lowered.body.walk(&mut |s| {
            duplicates += usize::from(!ids.insert(s.id));
            if matches!(&s.kind, StmtKind::For { property, .. } if property.parallel.is_parallel()) {
                loops += 1;
            }
        });
        let mut best = std::time::Duration::MAX;
        let mut serialized = Vec::new();
        for _ in 0..3 {
            let mut proven = lowered.clone();
            let t0 = std::time::Instant::now();
            serialized = prove_parallel(&mut proven);
            best = best.min(t0.elapsed());
        }
        println!(
            "| {label} | {scale} | {loops} | {} | {} |",
            serialized.len(),
            best.as_micros()
        );
        if duplicates + serialized.len() > 0 {
            let why: Vec<&str> = serialized.iter().map(|r| r.reason.as_str()).collect();
            failed.push(format!("{label} ({scale}): {duplicates} duplicate ids, serialized {why:?}"));
        }
    }
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}

/// The units a `CompiledEngine` wrote as `<key>.c` into `cache`.
fn cached_units(cache: &std::path::Path) -> Vec<String> {
    std::fs::read_dir(cache)
        .expect("cache directory")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "c"))
        .map(|p| std::fs::read_to_string(p).expect("unit"))
        .collect()
}

/// One C unit: on each of the 22 benchmark units — no size parameters,
/// every mark proves — the unit a `CompiledEngine` writes next to the
/// object it builds is byte for byte the unit `Program::emit_c()` prints.
#[test]
fn the_unit_cc_builds_is_the_unit_program_emit_c_prints() {
    if !cc_available() {
        eprintln!("skipping: no C compiler on PATH");
        return;
    }
    let mut moved = Vec::new();
    for (k, Unit { label, scale, program, inputs }) in benchmark_units().into_iter().enumerate() {
        let cache = std::env::temp_dir().join(format!("ft-unit-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cache);
        let engine = CompiledEngine::with_cache_dir(cache.clone());
        engine
            .run(program.func(), &inputs(), &no_sizes())
            .unwrap_or_else(|e| panic!("{label} ({scale}): {e}"));
        if cached_units(&cache) != [program.emit_c()] {
            moved.push(format!("{label} ({scale})"));
        }
        let _ = std::fs::remove_dir_all(&cache);
    }
    assert!(moved.is_empty(), "the engine built another unit for {moved:?}");
}

/// `lower_scalar` is invisible to the reference semantics: on each of the
/// 22 benchmark units, and on [`store_between_reads`], the interpreter
/// computes, bit for bit, the same outputs from the function
/// `lower_cpu_parallel` returns and from `lower_scalar` of it — a register
/// holds only what the interpreter reads back unchanged, and nothing moves
/// across a write of what it loads. With `--nocapture` it prints one row
/// per unit: the values hoisted out of a loop, the values computed once
/// for a run of assignments, the accumulators, and the `vectorize` marks
/// cleared.
#[test]
fn the_scalar_lowering_is_invisible_to_the_interpreter() {
    println!("\n| program | scale | hoisted | reused | accumulators | marks cleared |");
    println!("|---|---|---|---|---|---|");
    let mut failed = Vec::new();
    let units = benchmark_units().into_iter().chain([store_between_reads()]);
    for Unit { label, scale, program, inputs } in units {
        let lowered = lower_cpu_parallel(program.func());
        let scalar = lower_scalar(&lowered);
        let mut registers = [0; 3];
        scalar.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                for (k, prefix) in ["ft.h", "ft.c", "ft.a"].iter().enumerate() {
                    registers[k] += usize::from(name.starts_with(prefix));
                }
            }
        });
        let marks = |f: &Func| vectorize_marks(f).into_iter().filter(|&m| m).count();
        let [hoisted, reused, accs] = registers;
        println!(
            "| {label} | {scale} | {hoisted} | {reused} | {accs} | {} |",
            marks(&lowered) - marks(&scalar)
        );
        let inputs = inputs();
        let run = |f: &Func| {
            let r = Runtime::new().run(f, &inputs, &no_sizes());
            output_hash(&r.unwrap_or_else(|e| panic!("{label} ({scale}): {e}")).outputs)
        };
        if run(&lowered) != run(&scalar) {
            failed.push(format!("{label} ({scale})"));
        }
    }
    assert!(failed.is_empty(), "the interpreter's bits moved on {failed:?}");
}

/// A mark `parallelize` was never asked about reaches the engines: a
/// hand-marked prefix sum, `for i (OpenMp): y[i + 1] = y[i] + x[i]`, whose
/// every iteration reads what the one before wrote, and a store of every
/// iteration into one cell. The resolve both lowering engines share cannot
/// prove either mark, so on the VM and the compiled engine the loop runs
/// serially: outputs bit-identical to the interpreter, one rejected
/// `lower.parallel` decision naming the dependence, and no `omp parallel
/// for` in the unit `cc` builds. That pragma line is the one difference
/// `Program::emit_c` documents: the printed unit, whose marks nothing
/// proves, keeps it and is otherwise the built one.
#[test]
fn a_racy_mark_runs_serially_with_its_reason_on_every_engine() {
    let n = 4096usize;
    let prefix = Func::new("prefix")
        .param("x", [n], DataType::F32, AccessType::Input)
        .param("y", [n + 1], DataType::F32, AccessType::Output)
        .body(for_with(
            "i",
            0,
            n as i64,
            omp(),
            store("y", [var("i") + 1], load("y", [var("i")]) + load("x", [var("i")])),
        ));
    let one_cell = Func::new("one_cell")
        .param("y", [1], DataType::I64, AccessType::Output)
        .body(for_with("i", 0, 32, omp(), store("y", [0], var("i"))));
    let x = TensorVal::from_f32(&[n], (0..n).map(|v| (v as f32 * 0.37).sin()).collect());
    let cases = [
        (prefix, HashMap::from([("x".to_string(), x)])),
        (one_cell, HashMap::new()),
    ];
    for (f, inputs) in &cases {
        let want = Runtime::new().run(f, inputs, &no_sizes()).expect("interp");
        let cache = std::env::temp_dir().join(format!("ft-racy-{}-{}", std::process::id(), f.name));
        let _ = std::fs::remove_dir_all(&cache);
        let mut engines: Vec<Box<dyn ExecutionEngine>> = vec![Box::new(VmRuntime::new())];
        if cc_available() {
            engines.push(Box::new(CompiledEngine::with_cache_dir(cache.clone())));
        } else {
            eprintln!("cc unavailable; not running the compiled engine");
        }
        for mut engine in engines {
            let who = format!("{} on {}", engine.name(), f.name);
            let sink = TraceSink::new();
            engine.set_sink(Some(sink.clone()));
            let got = engine.run(f, inputs, &no_sizes()).expect(&who);
            assert_eq!(output_hash(&got.outputs), output_hash(&want.outputs), "{who}");
            let serialized: Vec<_> = sink
                .decisions()
                .into_iter()
                .filter(|d| d.primitive == "lower.parallel")
                .collect();
            let names_y = |d: &freetensor::trace::Decision| {
                matches!(d.verdict, freetensor::trace::Verdict::Rejected)
                    && matches!(&d.deps[..], [dep] if dep.var == "y")
                    && d.reason.as_ref().is_some_and(|r| r.contains("`y`"))
            };
            assert!(matches!(&serialized[..], [d] if names_y(d)), "{who}: {serialized:?}");
        }
        let resolved = VmRuntime::new().resolve(f, &no_sizes()).expect("resolves");
        let (unit, _) = emit_c(resolved.func(), resolved.plan(), false).expect("emits");
        assert!(!unit.contains("omp parallel for"), "{}:\n{unit}", f.name);
        let printed = Program::from_func(f.clone()).emit_c();
        let pragma = "    #pragma omp parallel for\n";
        assert_eq!(printed.matches(pragma).count(), 1, "{printed}");
        assert_eq!(printed.replace(pragma, ""), unit, "{}", f.name);
        if cc_available() {
            assert_eq!(cached_units(&cache), [unit], "{}", f.name);
        }
    }
}

/// `parallelize` leaves a carried reduction flagged `atomic` for the
/// lowering to privatize; handed to the prover unlowered, the same loop is
/// one it cannot prove, and it says which reduction.
#[test]
fn an_unlowered_atomic_reduction_is_a_carried_reduction_to_the_prover() {
    let red = atomic("acc", [0], ReduceOp::Add, load("x", [var("i")]));
    let id = red.id;
    let f = Func::new("fser")
        .param("x", [64], DataType::F32, AccessType::Input)
        .param("acc", [1], DataType::F32, AccessType::Output)
        .body(for_with("i", 0, 64, omp(), red));
    let mut proven = Cow::Borrowed(&f);
    let serialized = prove_parallel(&mut proven);
    assert_eq!(serialized.len(), 1);
    assert_eq!(serialized[0].reason, format!("carried reduction {id}"));
    assert!(matches!(proven, Cow::Owned(_)));
    assert!(shape_of(&proven).parallel_loops.is_empty());
    // Lowered first, as the engines do, it privatizes and proves.
    let mut lowered = lower_cpu_parallel(&f);
    assert_eq!(prove_parallel(&mut lowered), []);
}
