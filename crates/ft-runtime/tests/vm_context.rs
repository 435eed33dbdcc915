//! The VM on a reusable [`RunContext`]: `VarDef` storage comes from the
//! crate's one buffer pool (`arena::TensorPool`, observable as the
//! `mem.arena.*` metrics) and a `LibCall` works on its operands in place.
//! An integration test of its own because it installs a counting allocator.

use ft_ir::prelude::*;
use ft_ir::{AccessType, DataType, MemType, Stmt, StmtKind};
use ft_metrics::{Metrics, MetricsSnapshot};
use ft_runtime::{ExecutionEngine, RunContext, TensorVal, VmRuntime};
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
    vm.set_metrics(Some(metrics.clone()));
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

#[test]
fn second_run_on_one_context_allocates_no_def_storage() {
    // The scratch is entered four times a run: the first entry of the first
    // run allocates it, every later one — in that run or the next — is a
    // pool hit.
    let f = Func::new("scratch")
        .param("x", [16], DataType::F32, AccessType::Input)
        .param("y", [16], DataType::F32, AccessType::Output)
        .body(for_("r", 0, 4, through_scratch("t", DataType::F32, "y")));
    let snaps = run_on_one_context(&f, 2);
    let counts = |s: &MetricsSnapshot| {
        (
            s.counter("mem.arena.alloc_calls"),
            s.counter("mem.arena.reuse_hits"),
        )
    };
    assert_eq!(counts(&snaps[0]), (1, 3));
    assert_eq!(counts(&snaps[1]), (1, 7));
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
    assert_eq!(snaps[0].counter("mem.arena.alloc_calls"), 2);
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
    // One operand-sized buffer per bound parameter (A and B copied in, C
    // zeroed) and none for the call: the kernel reads A and B and updates
    // C where they are.
    assert_eq!(BIG_ALLOCS.with(Cell::get) - before, 3);
    assert!(r
        .expect("runs")
        .output("C")
        .to_f64_vec()
        .iter()
        .any(|v| *v != 0.0));
}
