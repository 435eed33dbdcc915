//! The VM on a reusable [`RunContext`]: `VarDef` storage comes from the
//! crate's one buffer pool (`arena::TensorPool`, observable as the
//! `mem.arena.*` metrics) and a `LibCall` works on its operands in place.
//! A context-free `run` draws on a pool too, on every engine.
//! An integration test of its own because it installs a counting allocator.

use ft_ir::prelude::*;
use ft_ir::{AccessType, DataType, MemType, Stmt, StmtKind};
use ft_metrics::{Metrics, MetricsSnapshot};
use ft_runtime::{
    cc_available, CompiledEngine, ExecutionEngine, RunContext, Runtime, TensorVal, TraceSink,
    VmRuntime,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;

/// Side of the square matmul operands below, and the bytes of one of them:
/// the size a copy of an operand would allocate.
const SIDE: usize = 64;
const OPERAND_BYTES: usize = SIDE * SIDE * 4;

thread_local! {
    /// Allocations of at least [`OPERAND_BYTES`] made by this thread.
    static BIG_ALLOCS: Cell<usize> = const { Cell::new(0) };
}

struct CountBig;

// SAFETY: defers to `System` for every request; the only addition is a
// thread-local counter that never allocates and has no destructor.
unsafe impl GlobalAlloc for CountBig {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if layout.size() >= OPERAND_BYTES {
            BIG_ALLOCS.with(|c| c.set(c.get() + 1));
        }
        // SAFETY: the caller's contract is `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountBig = CountBig;

/// `out[i] = 2 * x[i]` through a 16-element scratch `VarDef` named `name`.
fn through_scratch(name: &str, dtype: DataType, out: &str) -> Stmt {
    let fill = for_(
        "i",
        0,
        16,
        store(name, [var("i")], load("x", [var("i")]) * 2),
    );
    let drain = for_("i", 0, 16, store(out, [var("i")], load(name, [var("i")])));
    var_def(
        name,
        [16usize],
        dtype,
        MemType::CpuHeap,
        block([fill, drain]),
    )
}

/// The `mem.arena.*` metrics after each of `runs` runs of `f` on one
/// context, recycled in between.
fn run_on_one_context(f: &Func, runs: usize) -> Vec<MetricsSnapshot> {
    let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32).collect());
    let ins = HashMap::from([("x".to_string(), x)]);
    let metrics = Metrics::new();
    let mut vm = VmRuntime::new();
    vm.set_sink(Some(TraceSink::from(metrics.clone())));
    let mut ctx = RunContext::new();
    (0..runs)
        .map(|_| {
            let r = vm
                .run_with(f, &ins, &HashMap::new(), &mut ctx)
                .expect("runs");
            ctx.recycle(r).expect("recycle");
            metrics.snapshot()
        })
        .collect()
}

/// `y = 2 * x` through a scratch entered four times a run.
fn scratch_in_a_loop() -> Func {
    Func::new("scratch")
        .param("x", [16], DataType::F32, AccessType::Input)
        .param("y", [16], DataType::F32, AccessType::Output)
        .body(for_("r", 0, 4, through_scratch("t", DataType::F32, "y")))
}

/// `mem.arena.alloc_calls` and `mem.arena.reuse_hits` of a snapshot.
fn counts(s: &MetricsSnapshot) -> (u64, u64) {
    (
        s.counter("mem.arena.alloc_calls"),
        s.counter("mem.arena.reuse_hits"),
    )
}

#[test]
fn second_run_on_one_context_allocates_no_def_storage() {
    // The scratch is entered four times a run: the first entry of the first
    // run allocates it, every later one — in that run or the next — is a
    // pool hit. The output `y` is allocated by the first run and, recycled,
    // reused by the second.
    let snaps = run_on_one_context(&scratch_in_a_loop(), 2);
    assert_eq!(counts(&snaps[0]), (2, 3));
    assert_eq!(counts(&snaps[1]), (2, 8));
}

#[test]
fn a_context_free_run_draws_on_a_pool_like_a_first_run_with() {
    // `run` is `run_with` on a fresh context: on every engine it allocates
    // and reuses what a first `run_with` does, and computes the same bits.
    let f = scratch_in_a_loop();
    let x = TensorVal::from_f32(&[16], (0..16).map(|v| v as f32).collect());
    let ins = HashMap::from([("x".to_string(), x)]);
    let mut engines: Vec<Box<dyn ExecutionEngine>> =
        vec![Box::new(Runtime::new()), Box::new(VmRuntime::new())];
    if cc_available() {
        engines.push(Box::new(CompiledEngine::new()));
    }
    for mut engine in engines {
        let name = engine.name();
        let metrics = Metrics::new();
        engine.set_sink(Some(TraceSink::from(metrics.clone())));
        let free = engine.run(&f, &ins, &HashMap::new()).expect("runs");
        let after_run = counts(&metrics.snapshot());
        let with = engine
            .run_with(&f, &ins, &HashMap::new(), &mut RunContext::new())
            .expect("runs");
        let total = counts(&metrics.snapshot());
        let after_run_with = (total.0 - after_run.0, total.1 - after_run.1);
        assert!(after_run.0 > 0, "{name}: `run` drew on no pool");
        assert_eq!(after_run, after_run_with, "{name}");
        assert_eq!(free.outputs, with.outputs, "{name}");
    }
}

#[test]
fn a_pooled_buffer_of_the_wrong_dtype_gives_its_bytes_back() {
    // An f32 and an i32 scratch of one byte size, one after the other: the
    // plan packs them into one class, so the second finds the first's
    // buffer on the free-list, cannot use it and drops it. The pool then
    // holds one class's bytes, not two.
    let f = Func::new("scratches")
        .param("x", [16], DataType::F32, AccessType::Input)
        .param("y", [16], DataType::F32, AccessType::Output)
        .param("z", [16], DataType::I32, AccessType::Output)
        .body(block([
            through_scratch("tf", DataType::F32, "y"),
            through_scratch("ti", DataType::I32, "z"),
        ]));
    let plan = ft_analysis::MemPlan::plan(&f, &HashMap::new());
    let class = plan.entries[0].class.expect("constant-size def is planned");
    assert_eq!(
        plan.entries[1].class,
        Some(class),
        "the two defs share a class"
    );
    let snaps = run_on_one_context(&f, 1);
    // Two defs and the two outputs.
    assert_eq!(snaps[0].counter("mem.arena.alloc_calls"), 4);
    assert_eq!(
        snaps[0].gauge("mem.arena.bytes_peak"),
        plan.classes[class].bytes as i64
    );
}

#[test]
fn matmul_libcall_works_on_its_operands_in_place() {
    let f = Func::new("mm")
        .param("A", [SIDE, SIDE], DataType::F32, AccessType::Input)
        .param("B", [SIDE, SIDE], DataType::F32, AccessType::Input)
        .param("C", [SIDE, SIDE], DataType::F32, AccessType::Output)
        .body(Stmt::new(StmtKind::LibCall {
            kernel: "matmul".to_string(),
            inputs: vec!["A".to_string(), "B".to_string()],
            outputs: vec!["C".to_string()],
            attrs: vec![SIDE as i64; 3],
        }));
    let operand = |scale: f32| {
        let data = (0..SIDE * SIDE).map(|v| (v % 17) as f32 * scale).collect();
        TensorVal::from_f32(&[SIDE, SIDE], data)
    };
    let ins = HashMap::from([
        ("A".to_string(), operand(0.5)),
        ("B".to_string(), operand(0.25)),
    ]);
    let before = BIG_ALLOCS.with(Cell::get);
    let r = VmRuntime::new().run_with(&f, &ins, &HashMap::new(), &mut RunContext::new());
    // One operand-sized buffer, C zeroed, and none for the call: A and B
    // are bound as the caller's buffers, and the kernel reads them and
    // updates C where they are.
    assert_eq!(BIG_ALLOCS.with(Cell::get) - before, 1);
    assert!(r
        .expect("runs")
        .output("C")
        .to_f64_vec()
        .iter()
        .any(|v| *v != 0.0));
}
