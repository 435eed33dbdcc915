//! The structural key, `Func::content_hash`, over a corpus of real
//! programs: the four workloads at every scale, forward and differentiated,
//! as compiled and under the rule passes; the eight committed searched
//! schedules replayed; and sampled schedules. Two functions share the key
//! exactly when they print the same; refreshing statement ids keeps it; one
//! changed mark, type, constant, name or label moves it; and computing it
//! allocates nothing. `--nocapture` prints what one key costs next to
//! FNV-1a of the printed text (the key it replaced), on the rule-scheduled
//! forward programs.

use ft_autodiff::GradOptions;
use ft_autoschedule::search::{prepare_candidate, SavedSchedule};
use ft_autoschedule::Target;
use ft_conformance::ops::sample_trace;
use ft_ir::{DataType, Device, Expr, Func, MemType, ParallelScope, Stmt, StmtId, StmtKind};
use ft_workloads::{Scale, Workload};
use proptest::test_runner::TestRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashMap;
use std::time::Instant;

/// The system allocator, counting the allocations of each thread.
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

const SCALES: [Scale; 3] = [Scale::Test, Scale::Small, Scale::Full];

/// Every function of the corpus, labelled.
fn corpus() -> Vec<(String, Func)> {
    let mut out = Vec::new();
    let cpu = Target::cpu();
    for w in Workload::ALL {
        for scale in SCALES {
            let fwd = w.at(scale).program();
            let grad = fwd.grad(&GradOptions::default()).expect("differentiable");
            for (kind, p) in [("fwd", fwd), ("grad", grad)] {
                let label = format!("{} {} {kind}", w.name(), scale.name());
                out.push((format!("{label} rules"), p.optimize(&cpu).func().clone()));
                out.push((label, p.func().clone()));
            }
        }
        for scale in [Scale::Small, Scale::Full] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../results/schedules")
                .join(SavedSchedule::file_name(w.name(), "cpu", scale.name()));
            let text = std::fs::read_to_string(&path).expect("committed schedule");
            let saved = SavedSchedule::from_json(&text).expect("schedule parses");
            let base = w.at(scale).program();
            let (func, _) = prepare_candidate(base.func(), Device::Cpu, &saved.trace);
            out.push((format!("{} {} searched", w.name(), scale.name()), func));
        }
        let base = w.at(Scale::Test).program();
        let mut rng = TestRng::from_seed_u64(0x5eed ^ w.name().len() as u64);
        for i in 0..4 {
            let trace = sample_trace(&mut rng, 6);
            let (func, _) = prepare_candidate(base.func(), Device::Cpu, &trace);
            out.push((format!("{} test sampled {i}", w.name()), func));
        }
    }
    out
}

/// Visit every statement mutably, in pre-order.
fn stmts_mut(s: &mut Stmt, f: &mut impl FnMut(&mut Stmt)) {
    f(s);
    match &mut s.kind {
        StmtKind::Block(v) => v.iter_mut().for_each(|c| stmts_mut(c, f)),
        StmtKind::VarDef { body, .. } | StmtKind::For { body, .. } => stmts_mut(body, f),
        StmtKind::If {
            then, otherwise, ..
        } => {
            stmts_mut(then, f);
            if let Some(o) = otherwise {
                stmts_mut(o, f);
            }
        }
        _ => {}
    }
}

/// Visit every expression of `e` mutably, in pre-order.
fn exprs_mut(e: &mut Expr, f: &mut impl FnMut(&mut Expr)) {
    f(e);
    match e {
        Expr::Load { indices, .. } => indices.iter_mut().for_each(|i| exprs_mut(i, f)),
        Expr::Unary { a, .. } | Expr::Cast { a, .. } => exprs_mut(a, f),
        Expr::Binary { a, b, .. } => {
            exprs_mut(a, f);
            exprs_mut(b, f);
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            exprs_mut(cond, f);
            exprs_mut(then, f);
            exprs_mut(otherwise, f);
        }
        _ => {}
    }
}

/// Visit every expression the body holds, mutably.
fn body_exprs_mut(func: &mut Func, f: &mut impl FnMut(&mut Expr)) {
    stmts_mut(&mut func.body, &mut |s| match &mut s.kind {
        StmtKind::For { begin, end, .. } => {
            exprs_mut(begin, f);
            exprs_mut(end, f);
        }
        StmtKind::If { cond, .. } => exprs_mut(cond, f),
        StmtKind::VarDef { shape, .. } => shape.iter_mut().for_each(|e| exprs_mut(e, f)),
        StmtKind::Store { indices, value, .. } | StmtKind::ReduceTo { indices, value, .. } => {
            indices.iter_mut().for_each(|e| exprs_mut(e, f));
            exprs_mut(value, f);
        }
        _ => {}
    });
}

/// Apply `edit` to the first statement it accepts; whether one did.
fn edit_first_stmt(func: &mut Func, mut edit: impl FnMut(&mut Stmt) -> bool) -> bool {
    let mut done = false;
    stmts_mut(&mut func.body, &mut |s| done = done || edit(s));
    done
}

/// Apply `edit` to the first expression it accepts; whether one did.
fn edit_first_expr(func: &mut Func, mut edit: impl FnMut(&mut Expr) -> bool) -> bool {
    let mut done = false;
    body_exprs_mut(func, &mut |e| done = done || edit(e));
    done
}

/// One-field edits, each of which changes the printed form.
#[allow(clippy::type_complexity)]
fn edits() -> Vec<(&'static str, Box<dyn Fn(&mut Func) -> bool>)> {
    vec![
        (
            "a loop's parallel mark",
            Box::new(|f| {
                edit_first_stmt(f, |s| match &mut s.kind {
                    StmtKind::For { property, .. } => {
                        property.parallel = match property.parallel {
                            ParallelScope::Serial => ParallelScope::OpenMp,
                            _ => ParallelScope::Serial,
                        };
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a loop's vectorize mark",
            Box::new(|f| {
                edit_first_stmt(f, |s| match &mut s.kind {
                    StmtKind::For { property, .. } => {
                        property.vectorize = !property.vectorize;
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a def's mtype",
            Box::new(|f| {
                edit_first_stmt(f, |s| match &mut s.kind {
                    StmtKind::VarDef { mtype, .. } => {
                        *mtype = match mtype {
                            MemType::CpuHeap => MemType::CpuStack,
                            _ => MemType::CpuHeap,
                        };
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a def's dtype",
            Box::new(|f| {
                edit_first_stmt(f, |s| match &mut s.kind {
                    StmtKind::VarDef { dtype, .. } => {
                        *dtype = match dtype {
                            DataType::F32 => DataType::F64,
                            _ => DataType::F32,
                        };
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "an integer constant",
            Box::new(|f| {
                edit_first_expr(f, |e| match e {
                    Expr::IntConst(v) => {
                        *v += 1;
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a float's bits",
            Box::new(|f| {
                edit_first_expr(f, |e| match e {
                    Expr::FloatConst(v) if v.is_finite() => {
                        *v = f64::from_bits(v.to_bits() ^ 1);
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a name",
            Box::new(|f| {
                edit_first_stmt(f, |s| match &mut s.kind {
                    StmtKind::For { iter, .. } => {
                        iter.push('_');
                        true
                    }
                    _ => false,
                })
            }),
        ),
        (
            "a label",
            Box::new(|f| {
                edit_first_stmt(f, |s| {
                    let is_loop = matches!(s.kind, StmtKind::For { .. });
                    if is_loop {
                        s.label = Some(format!("{}L", s.label.take().unwrap_or_default()));
                    }
                    is_loop
                })
            }),
        ),
    ]
}

#[test]
fn keys_match_printed_forms_ignore_ids_and_see_every_field() {
    let corpus = corpus();
    let mut by_text: HashMap<String, (u64, &str)> = HashMap::new();
    let mut by_key: HashMap<u64, (String, &str)> = HashMap::new();
    for (label, f) in &corpus {
        let (text, key) = (f.to_string(), f.content_hash());
        if let Some((k, other)) = by_text.insert(text.clone(), (key, label)) {
            assert_eq!(k, key, "{label} prints as {other} but keys differently");
        }
        if let Some((t, other)) = by_key.insert(key, (text.clone(), label)) {
            assert_eq!(
                t, text,
                "{label} shares its key with {other} but prints differently"
            );
        }

        let mut refreshed = f.clone();
        stmts_mut(&mut refreshed.body, &mut |s| s.id = StmtId::fresh());
        assert_ne!(refreshed.body.id, f.body.id);
        assert_eq!(
            refreshed.content_hash(),
            key,
            "{label}: fresh ids moved the key"
        );

        // Each edit twice in a row: the second one changes a label's text,
        // where the first one gave the loop a label.
        for (what, edit) in edits() {
            let mut g = f.clone();
            let mut before = (text.clone(), key);
            for _ in 0..2 {
                if !edit(&mut g) {
                    break;
                }
                let after = (g.to_string(), g.content_hash());
                assert_ne!(after.0, before.0, "{label}: {what} did not print");
                assert_ne!(after.1, before.1, "{label}: {what} did not move the key");
                before = after;
            }
        }

        let mut k = 0;
        assert_eq!(
            allocations(|| k = f.content_hash()),
            0,
            "{label}: content_hash allocated"
        );
        assert_eq!(k, key);
    }
    assert!(
        by_text.len() > 40,
        "a corpus of {} distinct programs",
        by_text.len()
    );
}

/// Best-of-batches µs per call of `f`.
fn micros(mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..15 {
        let t = Instant::now();
        for _ in 0..20 {
            sink ^= f();
        }
        best = best.min(t.elapsed().as_secs_f64() * 1e6 / 20.0);
    }
    std::hint::black_box(sink);
    best
}

#[test]
fn key_cost_next_to_the_printed_key() {
    for w in Workload::ALL {
        for scale in [Scale::Small, Scale::Full] {
            let f = w
                .at(scale)
                .program()
                .optimize(&Target::cpu())
                .func()
                .clone();
            let structural = micros(|| f.content_hash());
            let printed = micros(|| ft_ir::fnv1a(f.to_string().as_bytes()));
            eprintln!(
                "{:<10} {:<5} content_hash {structural:6.2} us, FNV-1a of the printed text {printed:6.2} us",
                w.name(),
                scale.name()
            );
        }
    }
}
