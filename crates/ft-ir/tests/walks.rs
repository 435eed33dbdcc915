//! IR walks borrow the tree: `walk`, `find_by_id` and `Stmt::children`
//! over the seven benchmark programs as the rule passes leave them (four
//! forward, three differentiated, full scale) make no heap allocation, and
//! `walk` visits statements in the pre-order of a plain recursion.

use ft_autodiff::GradOptions;
use ft_autoschedule::Target;
use ft_ir::find::find_by_id;
use ft_ir::{Func, Stmt, StmtId, StmtKind};
use ft_workloads::{Scale, Workload};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the allocations of each thread (the test
/// harness runs tests on threads of its own).
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The seven benchmark programs under `Program::optimize` for the CPU.
fn scheduled() -> Vec<(String, Func)> {
    let mut out = Vec::new();
    for w in Workload::ALL {
        let p = w.at(Scale::Full).program();
        if w != Workload::Gat {
            let g = p.grad(&GradOptions::default()).expect("differentiable");
            out.push((
                format!("{}.grad", w.name()),
                g.optimize(&Target::cpu()).func().clone(),
            ));
        }
        out.push((
            w.name().to_string(),
            p.optimize(&Target::cpu()).func().clone(),
        ));
    }
    out
}

/// Pre-order ids by a recursion over the statement kinds.
fn preorder(s: &Stmt, out: &mut Vec<StmtId>) {
    out.push(s.id);
    match &s.kind {
        StmtKind::Block(v) => v.iter().for_each(|c| preorder(c, out)),
        StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => preorder(body, out),
        StmtKind::If {
            then, otherwise, ..
        } => {
            preorder(then, out);
            if let Some(o) = otherwise {
                preorder(o, out);
            }
        }
        StmtKind::Store { .. }
        | StmtKind::ReduceTo { .. }
        | StmtKind::LibCall { .. }
        | StmtKind::Empty => {}
    }
}

#[test]
fn walks_allocate_nothing_and_visit_in_pre_order() {
    for (label, f) in scheduled() {
        let mut want = Vec::new();
        preorder(&f.body, &mut want);
        let mut got = Vec::with_capacity(want.len());
        let walked = allocations(|| f.body.walk(&mut |s| got.push(s.id)));
        assert_eq!(walked, 0, "{label}: walk");
        assert_eq!(got, want, "{label}: walk order");

        let mut found = 0;
        let by_id = allocations(|| {
            for id in &want {
                found += usize::from(find_by_id(&f.body, *id).is_some_and(|s| s.id == *id));
            }
        });
        assert_eq!(by_id, 0, "{label}: find_by_id");
        assert_eq!(found, want.len(), "{label}: find_by_id");

        let mut edges = 0;
        let children = allocations(|| f.body.walk(&mut |s| edges += s.children().count()));
        assert_eq!(children, 0, "{label}: children");
        assert_eq!(
            edges + 1,
            want.len(),
            "{label}: every statement but the root is a child"
        );
    }
}
