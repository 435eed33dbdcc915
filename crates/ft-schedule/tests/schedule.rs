//! Integration tests for every Table-1 transformation: structural effects,
//! legality decisions, and semantics preservation under the interpreter.

use ft_ir::prelude::*;
use ft_runtime::{Runtime, TensorVal};
use ft_schedule::{Schedule, ScheduleError};
use std::collections::HashMap;

/// Run a function and return the named output.
fn run(func: &Func, inputs: &[(&str, TensorVal)], sizes: &[(&str, i64)], out: &str) -> TensorVal {
    let inputs: HashMap<String, TensorVal> = inputs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect();
    let sizes: HashMap<String, i64> = sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    Runtime::new()
        .run(func, &inputs, &sizes)
        .unwrap_or_else(|e| panic!("run failed: {e}\n{func}"))
        .output(out)
        .clone()
}

fn seq_f32(n: usize) -> TensorVal {
    TensorVal::from_f32(&[n], (0..n).map(|i| (i as f32 * 0.7).sin()).collect())
}

/// Check that a transformed function computes the same outputs.
fn assert_same_semantics(
    before: &Func,
    after: &Func,
    inputs: &[(&str, TensorVal)],
    sizes: &[(&str, i64)],
    out: &str,
) {
    let a = run(before, inputs, sizes, out);
    let b = run(after, inputs, sizes, out);
    assert!(
        a.allclose(&b, 1e-5),
        "semantics changed:\nBEFORE\n{before}\nAFTER\n{after}"
    );
}

fn stencil_func(n: i64) -> Func {
    // y[i] = x[i] * 2 + x[i + 1]
    Func::new("stencil")
        .param("x", [n + 1], DataType::F32, AccessType::Input)
        .param("y", [n], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            store(
                "y",
                [var("i")],
                load("x", [var("i")]) * 2.0f32 + load("x", [var("i") + 1]),
            ),
        ))
}

#[test]
fn split_preserves_semantics_with_tail_guard() {
    let f = stencil_func(10);
    let mut s = Schedule::new(f.clone());
    let (outer, inner) = s.split("i", 4).unwrap();
    assert_ne!(outer, inner);
    // 10 = 2*4 + 2: a guard must exist.
    let text = s.func().to_string();
    assert!(text.contains("if"), "{text}");
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(11))], &[], "y");
}

#[test]
fn split_exact_has_no_guard() {
    let f = stencil_func(8);
    let mut s = Schedule::new(f.clone());
    s.split("i", 4).unwrap();
    assert!(!s.func().to_string().contains("if"));
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(9))], &[], "y");
}

#[test]
fn merge_two_loops() {
    let f = Func::new("f")
        .param("a", [6, 5], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            6,
            for_(
                "j",
                0,
                5,
                store("a", [var("i"), var("j")], var("i") * 10 + var("j")),
            ),
        ));
    let mut s = Schedule::new(f.clone());
    let merged = s.merge("i", "j").unwrap();
    let m = ft_ir::find::find_by_id(&s.func().body, merged).unwrap();
    match &m.kind {
        StmtKind::For { iter, end, .. } => {
            assert_eq!(iter, "i.j");
            assert_eq!(*end, Expr::IntConst(30));
        }
        _ => panic!("merge did not produce a loop"),
    }
    assert_same_semantics(&f, s.func(), &[], &[], "a");
}

#[test]
fn merge_rejects_triangular() {
    let f = Func::new("f")
        .param("a", [6, 6], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            6,
            for_("j", 0, var("i"), store("a", [var("i"), var("j")], 1.0f32)),
        ));
    let mut s = Schedule::new(f);
    assert!(matches!(
        s.merge("i", "j"),
        Err(ScheduleError::Unsupported(_))
    ));
}

#[test]
fn reorder_legal_case_runs_and_permutes() {
    let f = Func::new("f")
        .param("a", [4, 3], DataType::F32, AccessType::Output)
        .param("b", [4, 3], DataType::F32, AccessType::Input)
        .body(for_(
            "i",
            0,
            4,
            for_(
                "j",
                0,
                3,
                store(
                    "a",
                    [var("i"), var("j")],
                    load("b", [var("i"), var("j")]) + 1.0f32,
                ),
            ),
        ));
    let mut s = Schedule::new(f.clone());
    s.reorder(&["j", "i"]).unwrap();
    // j is now outermost.
    match &ft_schedule::util::peel(&s.func().body).kind {
        StmtKind::For { iter, .. } => assert_eq!(iter, "j"),
        _ => panic!(),
    }
    let b = TensorVal::from_f32(&[4, 3], (0..12).map(|x| x as f32).collect());
    assert_same_semantics(&f, s.func(), &[("b", b)], &[], "a");
}

#[test]
fn reorder_illegal_case_rejected() {
    // Fig. 12(b): scalar recurrence.
    let f = Func::new("f")
        .param("a", Vec::<Expr>::new(), DataType::F32, AccessType::InOut)
        .param("b", [4, 3], DataType::F32, AccessType::Input)
        .body(for_(
            "i",
            0,
            4,
            for_(
                "j",
                0,
                3,
                store(
                    "a",
                    scalar(),
                    load("a", scalar()) * load("b", [var("i"), var("j")]) + 1.0f32,
                ),
            ),
        ));
    let mut s = Schedule::new(f);
    assert!(matches!(
        s.reorder(&["j", "i"]),
        Err(ScheduleError::Illegal(_))
    ));
}

#[test]
fn fission_splits_loop_bodies() {
    let s1 = store("t", [var("i")], load("x", [var("i")]) * 2.0f32);
    let s1_id = s1.id;
    let f = Func::new("f")
        .param("x", [8], DataType::F32, AccessType::Input)
        .param("t", [8], DataType::F32, AccessType::Output)
        .param("y", [8], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            8,
            block([
                s1,
                store("y", [var("i")], load("t", [var("i")]) + 1.0f32),
            ]),
        ));
    let mut s = Schedule::new(f.clone());
    let (l1, l2) = s.fission("i", s1_id).unwrap();
    assert_ne!(l1, l2);
    let loops = ft_ir::find::find_stmts(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::For { .. })
    });
    assert_eq!(loops.len(), 2);
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(8))], &[], "y");
}

#[test]
fn fission_rejects_backward_dep() {
    // S1 reads b[i-1] written by S2 in earlier iterations: fission reverses.
    let s1 = store("a", [var("i")], load("b", [var("i") - 1]));
    let s1_id = s1.id;
    let f = Func::new("f")
        .param("a", [8], DataType::F32, AccessType::Output)
        .param("b", [8], DataType::F32, AccessType::InOut)
        .body(for_(
            "i",
            1,
            8,
            block([s1, store("b", [var("i")], var("i"))]),
        ));
    let mut s = Schedule::new(f);
    assert!(matches!(
        s.fission("i", s1_id),
        Err(ScheduleError::Illegal(_))
    ));
}

#[test]
fn fuse_elementwise_loops() {
    let f = Func::new("f")
        .param("x", [8], DataType::F32, AccessType::Input)
        .param("t", [8], DataType::F32, AccessType::Output)
        .param("y", [8], DataType::F32, AccessType::Output)
        .body(block([
            for_("i", 0, 8, store("t", [var("i")], load("x", [var("i")]) * 2.0f32)),
            for_("j", 0, 8, store("y", [var("j")], load("t", [var("j")]) + 1.0f32)),
        ]));
    let mut s = Schedule::new(f.clone());
    let fused = s.fuse("i", "j").unwrap();
    let loops = ft_ir::find::find_stmts(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::For { .. })
    });
    assert_eq!(loops.len(), 1);
    assert_eq!(loops[0].id, fused);
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(8))], &[], "y");
}

#[test]
fn fuse_with_offset_ranges() {
    // Paper Fig. 10: ranges -w..w+1 and 0..2w+1 with matching extents fuse
    // after the "+w" shift.
    let w = 3i64;
    let f = Func::new("f")
        .param("dot", [2 * w + 1], DataType::F32, AccessType::Input)
        .param("a", [2 * w + 1], DataType::F32, AccessType::Output)
        .param("b", [2 * w + 1], DataType::F32, AccessType::Output)
        .body(block([
            for_("k", -w, w + 1, store("a", [var("k") + w], load("dot", [var("k") + w]))),
            for_("k2", 0, 2 * w + 1, store("b", [var("k2")], var("k2"))),
        ]));
    let mut s = Schedule::new(f.clone());
    s.fuse("k", "k2").unwrap();
    assert_same_semantics(&f, s.func(), &[("dot", seq_f32(7))], &[], "a");
    assert_same_semantics(&f, s.func(), &[("dot", seq_f32(7))], &[], "b");
}

#[test]
fn fuse_rejects_dot_max_pattern() {
    // Paper: fusing the max-reduction consumer with its producer is illegal.
    let f = Func::new("f")
        .param("dot", [8], DataType::F32, AccessType::Input)
        .param("m", Vec::<Expr>::new(), DataType::F32, AccessType::InOut)
        .param("out", [8], DataType::F32, AccessType::Output)
        .body(block([
            for_(
                "k",
                0,
                8,
                reduce("m", scalar(), ReduceOp::Max, load("dot", [var("k")])),
            ),
            for_(
                "k2",
                0,
                8,
                store(
                    "out",
                    [var("k2")],
                    load("dot", [var("k2")]) - load("m", scalar()),
                ),
            ),
        ]));
    let mut s = Schedule::new(f);
    assert!(matches!(s.fuse("k", "k2"), Err(ScheduleError::Illegal(_))));
}

#[test]
fn swap_independent_statements() {
    let s1 = store("a", [var("i")], 1.0f32);
    let s2 = store("b", [var("i")], 2.0f32);
    let (id1, id2) = (s1.id, s2.id);
    let f = Func::new("f")
        .param("a", [4], DataType::F32, AccessType::Output)
        .param("b", [4], DataType::F32, AccessType::Output)
        .body(for_("i", 0, 4, block([s1, s2])));
    let mut s = Schedule::new(f.clone());
    s.swap(id1, id2).unwrap();
    assert_same_semantics(&f, s.func(), &[], &[], "a");
    // Conflicting statements refuse to swap.
    let s1 = store("a", [var("i")], 1.0f32);
    let s2 = store("b", [var("i")], load("a", [var("i")]));
    let (id1, id2) = (s1.id, s2.id);
    let f = Func::new("f")
        .param("a", [4], DataType::F32, AccessType::Output)
        .param("b", [4], DataType::F32, AccessType::Output)
        .body(for_("i", 0, 4, block([s1, s2])));
    let mut s = Schedule::new(f);
    assert!(matches!(s.swap(id1, id2), Err(ScheduleError::Illegal(_))));
}

#[test]
fn parallelize_marks_loop_and_preserves_results() {
    let f = stencil_func(64);
    let mut s = Schedule::new(f.clone());
    s.parallelize("i", ParallelScope::OpenMp).unwrap();
    match &ft_schedule::util::peel(&s.func().body).kind {
        StmtKind::For { property, .. } => {
            assert_eq!(property.parallel, ParallelScope::OpenMp)
        }
        _ => panic!(),
    }
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(65))], &[], "y");
}

#[test]
fn parallelize_rejects_recurrence() {
    let f = Func::new("f")
        .param("a", [64], DataType::F32, AccessType::InOut)
        .body(for_(
            "i",
            1,
            64,
            store("a", [var("i")], load("a", [var("i") - 1]) + 1.0f32),
        ));
    let mut s = Schedule::new(f);
    assert!(matches!(
        s.parallelize("i", ParallelScope::OpenMp),
        Err(ScheduleError::Illegal(_))
    ));
}

#[test]
fn parallelize_reduction_becomes_atomic() {
    // Fig. 13(e): histogram via indirect index.
    let f = Func::new("f")
        .param("idx", [64], DataType::I32, AccessType::Input)
        .param("h", [4], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            64,
            Stmt::new(StmtKind::ReduceTo {
                var: "h".to_string(),
                indices: vec![Expr::cast(DataType::I64, load("idx", [var("i")]))],
                op: ReduceOp::Add,
                value: Expr::FloatConst(1.0),
                atomic: false,
            }),
        ));
    let mut s = Schedule::new(f);
    s.parallelize("i", ParallelScope::OpenMp).unwrap();
    let mut found_atomic = false;
    s.func().body.walk(&mut |st| {
        if let StmtKind::ReduceTo { atomic, .. } = &st.kind {
            found_atomic |= *atomic;
        }
    });
    assert!(found_atomic, "reduction should be lowered to atomic");
}

#[test]
fn unroll_expands_constant_loops() {
    let f = stencil_func(4);
    let mut s = Schedule::new(f.clone());
    s.unroll("i").unwrap();
    assert!(ft_ir::find::find_stmts(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::For { .. })
    })
    .is_empty());
    let stores = ft_ir::find::find_stmts(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::Store { .. })
    });
    assert_eq!(stores.len(), 4);
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(5))], &[], "y");
    // Non-constant bounds are rejected.
    let g = Func::new("g")
        .param("y", [8], DataType::F32, AccessType::Output)
        .size_param("n")
        .body(for_("i", 0, var("n"), store("y", [var("i")], 1.0f32)));
    let mut s = Schedule::new(g);
    assert!(matches!(s.unroll("i"), Err(ScheduleError::Unsupported(_))));
}

#[test]
fn blend_interleaves_iterations() {
    let f = Func::new("f")
        .param("a", [3], DataType::F32, AccessType::Output)
        .param("b", [3], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            3,
            block([
                store("a", [var("i")], var("i")),
                store("b", [var("i")], var("i") * 2),
            ]),
        ));
    let mut s = Schedule::new(f.clone());
    s.blend("i").unwrap();
    // All stores to a come before all stores to b.
    let mut order = Vec::new();
    s.func().body.walk(&mut |st| {
        if let StmtKind::Store { var, .. } = &st.kind {
            order.push(var.clone());
        }
    });
    assert_eq!(order, vec!["a", "a", "a", "b", "b", "b"]);
    assert_same_semantics(&f, s.func(), &[], &[], "b");
}

#[test]
fn vectorize_marks_innermost() {
    let f = stencil_func(16);
    let mut s = Schedule::new(f.clone());
    s.vectorize("i").unwrap();
    match &ft_schedule::util::peel(&s.func().body).kind {
        StmtKind::For { property, .. } => assert!(property.vectorize),
        _ => panic!(),
    }
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(17))], &[], "y");
}

#[test]
fn cache_fig14_pattern() {
    // for i in 0..n: for j in 0..m: f(a[i + j]) — cache a around loop j.
    let f = Func::new("f")
        .param("a", [12], DataType::F32, AccessType::Input)
        .param("y", [8, 4], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            8,
            for_(
                "j",
                0,
                4,
                store("y", [var("i"), var("j")], load("a", [var("i") + var("j")]) * 2.0f32),
            )
            .with_label("Lj"),
        ));
    let mut s = Schedule::new(f.clone());
    let name = s
        .cache(ft_ir::find::Selector::Label("Lj".to_string()), "a", MemType::CpuStack)
        .unwrap();
    assert_eq!(name, "a.cache");
    // The cache tensor has extent m = 4.
    let def = ft_ir::find::find_stmt(&s.func().body, &|st| {
        matches!(&st.kind, StmtKind::VarDef { name, .. } if name == "a.cache")
    })
    .expect("cache def exists");
    match &def.kind {
        StmtKind::VarDef { shape, mtype, .. } => {
            assert_eq!(shape, &vec![Expr::IntConst(4)]);
            assert_eq!(*mtype, MemType::CpuStack);
        }
        _ => unreachable!(),
    }
    assert_same_semantics(&f, s.func(), &[("a", seq_f32(12))], &[], "y");
}

#[test]
fn cache_written_region_is_stored_back() {
    let f = Func::new("f")
        .param("a", [8], DataType::F32, AccessType::InOut)
        .body(
            for_("j", 0, 8, store("a", [var("j")], var("j") * 3)).with_label("L"),
        );
    let mut s = Schedule::new(f.clone());
    s.cache(ft_ir::find::Selector::Label("L".to_string()), "a", MemType::CpuStack)
        .unwrap();
    let a = TensorVal::from_f32(&[8], vec![0.0; 8]);
    assert_same_semantics(&f, s.func(), &[("a", a)], &[], "a");
}

#[test]
fn cache_reduce_accumulates_locally() {
    // for i: for j: acc[] += x[i*4+j] — cache_reduce acc around j.
    let f = Func::new("f")
        .param("x", [32], DataType::F32, AccessType::Input)
        .param("acc", Vec::<Expr>::new(), DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            8,
            for_(
                "j",
                0,
                4,
                reduce(
                    "acc",
                    scalar(),
                    ReduceOp::Add,
                    load("x", [var("i") * 4 + var("j")]),
                ),
            )
            .with_label("Lj"),
        ));
    let mut s = Schedule::new(f.clone());
    let name = s
        .cache_reduce(
            ft_ir::find::Selector::Label("Lj".to_string()),
            "acc",
            MemType::CpuStack,
        )
        .unwrap();
    assert_eq!(name, "acc.cache_red");
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(32))], &[], "acc");
}

#[test]
fn set_mtype_moves_local_tensors() {
    let f = Func::new("f")
        .param("y", [4], DataType::F32, AccessType::Output)
        .body(var_def(
            "t",
            [4],
            DataType::F32,
            MemType::CpuHeap,
            block([
                store("t", [0], 1.0f32),
                store("y", [0], load("t", [0])),
            ]),
        ));
    let mut s = Schedule::new(f);
    s.set_mtype("t", MemType::CpuStack).unwrap();
    let def = ft_ir::find::find_stmt(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::VarDef { .. })
    })
    .unwrap();
    match &def.kind {
        StmtKind::VarDef { mtype, .. } => assert_eq!(*mtype, MemType::CpuStack),
        _ => unreachable!(),
    }
    assert!(s.set_mtype("zz", MemType::CpuStack).is_err());
}

#[test]
fn var_split_reorder_merge_roundtrip() {
    let base = |layout: &mut dyn FnMut(&mut Schedule)| {
        let f = Func::new("f")
            .param("x", [24], DataType::F32, AccessType::Input)
            .param("y", [24], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [24],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_("i", 0, 24, store("t", [var("i")], load("x", [var("i")]) * 2.0f32)),
                    for_("j", 0, 24, store("y", [var("j")], load("t", [var("j")]) + 1.0f32)),
                ]),
            ));
        let mut s = Schedule::new(f);
        layout(&mut s);
        s.into_func()
    };
    let plain = base(&mut |_| {});
    let split = base(&mut |s| s.var_split("t", 0, 6).unwrap());
    let split_reordered = base(&mut |s| {
        s.var_split("t", 0, 6).unwrap();
        s.var_reorder("t", &[1, 0]).unwrap();
    });
    let merged_back = base(&mut |s| {
        s.var_split("t", 0, 6).unwrap();
        s.var_merge("t", 0).unwrap();
    });
    let x = seq_f32(24);
    let expect = run(&plain, &[("x", x.clone())], &[], "y");
    for f in [&split, &split_reordered, &merged_back] {
        let got = run(f, &[("x", x.clone())], &[], "y");
        assert!(expect.allclose(&got, 1e-6), "layout changed semantics:\n{f}");
    }
    // Layout of parameters is rejected.
    let f = stencil_func(4);
    let mut s = Schedule::new(f);
    assert!(s.var_split("x", 0, 2).is_err());
}

#[test]
fn as_lib_replaces_matmul_nest() {
    let (m, k, n) = (6i64, 5i64, 4i64);
    let f = Func::new("mm")
        .param("A", [m, k], DataType::F32, AccessType::Input)
        .param("B", [k, n], DataType::F32, AccessType::Input)
        .param("C", [m, n], DataType::F32, AccessType::Output)
        .body(for_(
            "i",
            0,
            m,
            for_(
                "j",
                0,
                n,
                block([
                    store("C", [var("i"), var("j")], 0.0f32),
                    for_(
                        "kk",
                        0,
                        k,
                        reduce(
                            "C",
                            [var("i"), var("j")],
                            ReduceOp::Add,
                            load("A", [var("i"), var("kk")]) * load("B", [var("kk"), var("j")]),
                        ),
                    ),
                ]),
            ),
        ));
    let mut s = Schedule::new(f.clone());
    s.as_lib("i").unwrap();
    assert!(ft_ir::find::find_stmt(&s.func().body, &|st| {
        matches!(st.kind, StmtKind::LibCall { .. })
    })
    .is_some());
    let a = TensorVal::from_f32(
        &[m as usize, k as usize],
        (0..m * k).map(|x| (x as f32).cos()).collect(),
    );
    let b = TensorVal::from_f32(
        &[k as usize, n as usize],
        (0..k * n).map(|x| (x as f32) * 0.1).collect(),
    );
    assert_same_semantics(&f, s.func(), &[("A", a), ("B", b)], &[], "C");
}

#[test]
fn as_lib_rejects_non_matmul() {
    let f = stencil_func(8);
    let mut s = Schedule::new(f);
    assert!(matches!(s.as_lib("i"), Err(ScheduleError::Unsupported(_))));
}

#[test]
fn separate_tail_removes_guard_from_main() {
    let f = stencil_func(10);
    let mut s = Schedule::new(f.clone());
    let (outer, inner) = s.split("i", 4).unwrap();
    // The guard `split` left is on the inner iterator: the inner loop's
    // range shrinks to where it holds, and without an `else` nothing else
    // remains. The outer loop's body is a loop, not an `if`.
    assert!(s.separate_tail(outer).is_err());
    let pieces = s.separate_tail(inner).unwrap();
    assert_eq!((pieces.head, pieces.interior, pieces.tail), (None, inner, None));
    assert!(ft_ir::find::find_stmt(&s.func().body, &|st| matches!(
        st.kind,
        StmtKind::If { .. }
    ))
    .is_none());
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(11))], &[], "y");
}

#[test]
fn composed_schedule_pipeline() {
    // split + parallelize outer + vectorize inner + cache: the combined
    // pipeline the auto-scheduler builds, applied by hand.
    let f = stencil_func(64);
    let mut s = Schedule::new(f.clone());
    let (outer, inner) = s.split("i", 8).unwrap();
    s.parallelize(outer, ParallelScope::OpenMp).unwrap();
    s.vectorize(inner).unwrap();
    assert_same_semantics(&f, s.func(), &[("x", seq_f32(65))], &[], "y");
}
