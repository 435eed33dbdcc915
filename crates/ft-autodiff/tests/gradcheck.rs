//! Gradient checking: analytic gradients from the AD transform vs central
//! finite differences, across the paper's mechanism examples.

use ft_autodiff::{grad, grad_with, GradOptions, TapePolicy};
use ft_ir::idx;
use ft_ir::prelude::*;
use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
use std::collections::HashMap;

type Inputs = HashMap<String, TensorVal>;

fn tensor(shape: &[usize], seed: u64) -> TensorVal {
    // Deterministic pseudo-random values in [-1, 1].
    let n: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
    let data: Vec<f64> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) * 2.0 - 1.0
        })
        .collect();
    TensorVal::from_f64(shape, data)
}

/// Sum all elements of all float outputs (the scalar loss used for FD).
fn loss(func: &Func, inputs: &Inputs, sizes: &HashMap<String, i64>) -> f64 {
    let r = Runtime::new().run(func, inputs, sizes).expect("fwd runs");
    r.outputs.values().flat_map(|t| t.to_f64_vec()).sum()
}

/// Compare AD gradients against central finite differences for each wrt
/// input of `func`, using the all-ones seed (loss = sum of outputs).
fn gradcheck(func: &Func, opts: &GradOptions, inputs: &Inputs, sizes: &[(&str, i64)], tol: f64) {
    let sizes: HashMap<String, i64> = sizes.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let g = grad_with(func, opts).expect("grad transform");
    // Seeds: ones for every output gradient.
    let mut grad_inputs = inputs.clone();
    let fwd = Runtime::new().run(func, inputs, &sizes).expect("fwd");
    for p in &func.params {
        if p.atype == AccessType::Output && p.dtype.is_float() {
            let shape = fwd.output(&p.name).shape().to_vec();
            let ones =
                TensorVal::from_f64(&shape, vec![1.0; shape.iter().product::<usize>().max(1)]);
            grad_inputs.insert(format!("{}.grad", p.name), ones);
        }
    }
    let res = Runtime::new()
        .run(&g, &grad_inputs, &sizes)
        .expect("grad runs");
    // Finite differences per input element.
    let eps = 1e-5;
    for p in &func.params {
        if p.atype != AccessType::Input || !p.dtype.is_float() {
            continue;
        }
        let analytic = res.output(&format!("{}.grad", p.name));
        let base = inputs[&p.name].clone();
        for i in 0..base.numel() {
            let mut plus = inputs.clone();
            let mut t = base.clone();
            t.set_flat(
                i,
                ft_runtime::Scalar::Float(base.get_flat(i).as_f64() + eps),
            );
            plus.insert(p.name.clone(), t);
            let mut minus = inputs.clone();
            let mut t = base.clone();
            t.set_flat(
                i,
                ft_runtime::Scalar::Float(base.get_flat(i).as_f64() - eps),
            );
            minus.insert(p.name.clone(), t);
            let fd = (loss(func, &plus, &sizes) - loss(func, &minus, &sizes)) / (2.0 * eps);
            let an = analytic.get_flat(i).as_f64();
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs()),
                "gradient mismatch for {}[{}]: analytic {an}, finite-diff {fd}\n{g}",
                p.name,
                i
            );
        }
    }
}

/// The paper's Fig. 15 program.
fn fig15(n: i64) -> Func {
    Func::new("fig15")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("b", [n], DataType::F64, AccessType::Input)
        .param("c", [n], DataType::F64, AccessType::Input)
        .param("d", [n], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .param("z", [n], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            var_def(
                "t",
                scalar(),
                DataType::F64,
                MemType::CpuStack,
                block([
                    store("t", scalar(), load("a", [var("i")]) * load("b", [var("i")])),
                    store("y", [var("i")], load("t", scalar()) * load("c", [var("i")])),
                    store("z", [var("i")], load("t", scalar()) * load("d", [var("i")])),
                ]),
            ),
        ))
}

fn fig15_inputs(n: usize) -> Inputs {
    [
        ("a".to_string(), tensor(&[n], 1)),
        ("b".to_string(), tensor(&[n], 2)),
        ("c".to_string(), tensor(&[n], 3)),
        ("d".to_string(), tensor(&[n], 4)),
    ]
    .into_iter()
    .collect()
}

#[test]
fn fig15_gradcheck_selective() {
    gradcheck(
        &fig15(6),
        &GradOptions::default(),
        &fig15_inputs(6),
        &[],
        1e-4,
    );
}

#[test]
fn fig15_gradcheck_materialize_all() {
    let opts = GradOptions {
        policy: TapePolicy::All,
        ..Default::default()
    };
    gradcheck(&fig15(6), &opts, &fig15_inputs(6), &[], 1e-4);
}

#[test]
fn fig15_policies_agree_but_tape_differs() {
    // FT(-) materializes t (tape present); FT(+) recomputes (no tape), with
    // identical results — the mechanism behind the paper's Fig. 18.
    let f = fig15(6);
    let all = grad_with(
        &f,
        &GradOptions {
            policy: TapePolicy::All,
            ..Default::default()
        },
    )
    .unwrap();
    let sel = grad_with(&f, &GradOptions::default()).unwrap();
    assert!(all.to_string().contains("t.tape"), "{all}");
    assert!(!sel.to_string().contains("t.tape"), "{sel}");
    // The recomputing version re-emits the defining store, targeting the
    // backward incarnation `t.b`, in the backward pass (Fig. 15(c)).
    assert!(sel.to_string().contains("t.b[] = a["), "{sel}");
}

#[test]
fn reduction_gradcheck() {
    // y[0] = sum_i x[i]^2 (via ReduceTo): dy/dx = 2x.
    let f = Func::new("sumsq")
        .param("x", [5], DataType::F64, AccessType::Input)
        .param("y", [1], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            5,
            reduce(
                "y",
                [0],
                ReduceOp::Add,
                load("x", [var("i")]) * load("x", [var("i")]),
            ),
        ));
    let inputs: Inputs = [("x".to_string(), tensor(&[5], 7))].into_iter().collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-4);
}

#[test]
fn softmax_like_gradcheck() {
    // Numerically-stabilized softmax then weighted sum — the Longformer
    // attention inner pattern, with a max-reduction shift.
    let n = 5i64;
    let f = Func::new("softmax")
        .param("x", [n], DataType::F64, AccessType::Input)
        .param("v", [n], DataType::F64, AccessType::Input)
        .param("y", [1], DataType::F64, AccessType::Output)
        .body(var_def(
            "m",
            scalar(),
            DataType::F64,
            MemType::CpuStack,
            var_def(
                "den",
                scalar(),
                DataType::F64,
                MemType::CpuStack,
                block([
                    store("m", scalar(), f64::NEG_INFINITY),
                    for_(
                        "i",
                        0,
                        n,
                        reduce("m", scalar(), ReduceOp::Max, load("x", [var("i")])),
                    ),
                    for_(
                        "j",
                        0,
                        n,
                        reduce(
                            "den",
                            scalar(),
                            ReduceOp::Add,
                            intrin::exp(load("x", [var("j")]) - load("m", scalar())),
                        ),
                    ),
                    for_(
                        "k",
                        0,
                        n,
                        reduce(
                            "y",
                            [0],
                            ReduceOp::Add,
                            intrin::exp(load("x", [var("k")]) - load("m", scalar()))
                                / load("den", scalar())
                                * load("v", [var("k")]),
                        ),
                    ),
                ]),
            ),
        ));
    let inputs: Inputs = [
        ("x".to_string(), tensor(&[5], 11)),
        ("v".to_string(), tensor(&[5], 12)),
    ]
    .into_iter()
    .collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-3);
}

#[test]
fn guarded_stencil_gradcheck() {
    // Sliding-window access with boundary guards (Longformer shape).
    let (n, w) = (6i64, 2i64);
    let f = Func::new("window")
        .param("x", [n], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .body(for_(
            "j",
            0,
            n,
            for_(
                "k",
                -w,
                w + 1,
                if_(
                    (var("j") + var("k")).ge(0).and((var("j") + var("k")).lt(n)),
                    reduce(
                        "y",
                        [var("j")],
                        ReduceOp::Add,
                        load("x", idx![var("j") + var("k")]) * 0.5f64,
                    ),
                ),
            ),
        ));
    let inputs: Inputs = [("x".to_string(), tensor(&[6], 21))].into_iter().collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-4);
}

#[test]
fn unary_chain_gradcheck() {
    // y[i] = sigmoid(exp(x[i]) * tanh(x[i]) + sqrt(abs(x[i]) + 1))
    let f = Func::new("chain")
        .param("x", [4], DataType::F64, AccessType::Input)
        .param("y", [4], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            4,
            store(
                "y",
                [var("i")],
                intrin::sigmoid(
                    intrin::exp(load("x", [var("i")])) * intrin::tanh(load("x", [var("i")]))
                        + intrin::sqrt(intrin::abs(load("x", [var("i")])) + 1.0f64),
                ),
            ),
        ));
    let inputs: Inputs = [("x".to_string(), tensor(&[4], 31))].into_iter().collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-3);
}

#[test]
fn overwritten_output_gradcheck() {
    // y[i] written twice: the second store kills the first's gradient path.
    let f = Func::new("overwrite")
        .param("x", [4], DataType::F64, AccessType::Input)
        .param("y", [4], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            4,
            block([
                store("y", [var("i")], load("x", [var("i")]) * 3.0f64),
                store(
                    "y",
                    [var("i")],
                    load("x", [var("i")]) * load("x", [var("i")]),
                ),
            ]),
        ));
    let inputs: Inputs = [("x".to_string(), tensor(&[4], 41))].into_iter().collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-4);
}

#[test]
fn taped_vector_intermediate_gradcheck() {
    // A vector intermediate with an expensive definition: must be taped
    // under Selective, and indexed by the loop version in the backward pass.
    let (n, m) = (3i64, 4i64);
    let f = Func::new("taped")
        .param("x", [n, m], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            var_def(
                "row",
                [m],
                DataType::F64,
                MemType::CpuStack,
                block([
                    for_(
                        "j",
                        0,
                        m,
                        store(
                            "row",
                            [var("j")],
                            intrin::exp(
                                intrin::sigmoid(load("x", [var("i"), var("j")]))
                                    * intrin::tanh(load("x", [var("i"), var("j")]))
                                    + intrin::sqrt(
                                        intrin::abs(load("x", [var("i"), var("j")])) + 1.0f64,
                                    ),
                            ),
                        ),
                    ),
                    for_(
                        "k",
                        0,
                        m,
                        reduce(
                            "y",
                            [var("i")],
                            ReduceOp::Add,
                            load("row", [var("k")]) * load("row", [var("k")]),
                        ),
                    ),
                ]),
            ),
        ));
    // Force the store decision with a tight recompute budget.
    let opts = GradOptions {
        recompute_threshold: 4,
        ..Default::default()
    };
    let g = grad_with(&f, &opts).unwrap();
    assert!(g.to_string().contains("row.tape"), "{g}");
    let inputs: Inputs = [("x".to_string(), tensor(&[3, 4], 51))]
        .into_iter()
        .collect();
    gradcheck(&f, &opts, &inputs, &[], 1e-3);
    // The default (more recompute-friendly) budget must agree too.
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-3);
    let _ = grad(&f).unwrap();
}

#[test]
fn unsupported_cases_error_cleanly() {
    // InOut parameter.
    let f = Func::new("f")
        .param("x", [2], DataType::F64, AccessType::InOut)
        .body(store("x", [0], load("x", [1])));
    assert!(grad(&f).is_err());
    // Multiplicative reduction.
    let f = Func::new("f")
        .param("x", [2], DataType::F64, AccessType::Input)
        .param("y", [1], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            2,
            reduce("y", [0], ReduceOp::Mul, load("x", [var("i")])),
        ));
    assert!(grad(&f).is_err());
}

#[test]
fn frontend_program_differentiates() {
    // End-to-end: DSL source -> IR -> grad -> gradcheck.
    let src = r#"
def f(x: f64[6] in, y: f64[6] out):
  for i in range(6):
    t = create_var((), "f64", "cpu")
    t = x[i] * x[i]
    y[i] = t * x[i]
"#;
    let f = ft_frontend::compile_str(src, "f").expect("compiles");
    let inputs: Inputs = [("x".to_string(), tensor(&[6], 61))].into_iter().collect();
    gradcheck(&f, &GradOptions::default(), &inputs, &[], 1e-4);
}

#[test]
fn duplicate_def_names_from_double_caching_gradcheck() {
    // Regression: the schedule's `cache` op names its staging buffer
    // `{param}.cache`, so caching the same parameter twice produces two
    // sibling defs with the same name — here with *different* version
    // structure (a depth-0 whole-array copy vs a depth-1 per-iteration
    // scalar). AD bookkeeping keys per-tensor facts by name and used to
    // merge the two, allocating one tape but indexing it with the other
    // def's rank (IndexOutOfBounds on `x.cache.tape`); found by the grad
    // conformance sweep on longformer (repro
    // `longformer-seed29958-interp-grad-all-t0-opt-then-grad.json`).
    let f = Func::new("dblcache")
        .param("x", [4], DataType::F64, AccessType::Input)
        .param("y", [4], DataType::F64, AccessType::Output)
        .body(block([
            var_def(
                "x.cache",
                [4],
                DataType::F64,
                MemType::CpuStack,
                block([
                    for_(
                        "i",
                        0,
                        4,
                        store("x.cache", [var("i")], load("x", [var("i")])),
                    ),
                    for_(
                        "i",
                        0,
                        4,
                        store(
                            "y",
                            [var("i")],
                            load("x.cache", [var("i")]) * load("x.cache", [var("i")]),
                        ),
                    ),
                ]),
            ),
            for_(
                "j",
                0,
                4,
                var_def(
                    "x.cache",
                    scalar(),
                    DataType::F64,
                    MemType::CpuStack,
                    block([
                        store("x.cache", scalar(), load("x", [var("j")])),
                        reduce(
                            "y",
                            [var("j")],
                            ReduceOp::Add,
                            load("x.cache", scalar()) * load("x.cache", scalar()),
                        ),
                    ]),
                ),
            ),
        ]));
    let inputs: Inputs = [("x".to_string(), tensor(&[4], 77))].into_iter().collect();
    // y[i] = 2·x[i]², so dy/dx must come out 4·x under every tape policy.
    for policy in [TapePolicy::All, TapePolicy::Selective] {
        let opts = GradOptions {
            policy,
            ..Default::default()
        };
        gradcheck(&f, &opts, &inputs, &[], 1e-3);
    }
}

#[test]
fn scalar_reused_across_inner_loop_gradcheck_all_policy() {
    // A scalar temporary declared outside the inner loop that overwrites it
    // each iteration: the end-of-scope snapshot would tape only the final
    // value, so `deep_tape_plan` switches to per-store taping with one
    // version per (i, j).
    let (n, m) = (4i64, 3i64);
    let f = Func::new("reuse")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("b", [m], DataType::F64, AccessType::Input)
        .param("y", [n, m], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            var_def(
                "t",
                scalar(),
                DataType::F64,
                MemType::CpuStack,
                for_(
                    "j",
                    0,
                    m,
                    block([
                        store("t", scalar(), load("a", [var("i")]) - load("b", [var("j")])),
                        store(
                            "y",
                            [var("i"), var("j")],
                            load("t", scalar()) * load("t", scalar()),
                        ),
                    ]),
                ),
            ),
        ));
    let inputs: Inputs = [
        ("a".to_string(), tensor(&[n as usize], 7)),
        ("b".to_string(), tensor(&[m as usize], 8)),
    ]
    .into_iter()
    .collect();
    let all = GradOptions {
        policy: TapePolicy::All,
        ..Default::default()
    };
    gradcheck(&f, &all, &inputs, &[], 1e-4);
    // The tape must carry one version dimension per loop enclosing the
    // *store* — (i, j) — not just the VarDef's (i).
    let g = grad_with(&f, &all).expect("grad transform");
    let mut tape_dims = None;
    g.body.walk(&mut |s| {
        if let StmtKind::VarDef { name, shape, .. } = &s.kind {
            if name == "t.tape" {
                tape_dims = Some(shape.len());
            }
        }
    });
    assert_eq!(tape_dims, Some(2), "expected per-store tape over (i, j)");
}

#[test]
fn scalar_reuse_read_outside_storing_nest_is_rejected() {
    // The same reused scalar, but read *after* the inner loop: the backward
    // pass would need the previous iteration's value, which per-store taping
    // cannot provide — the transform must refuse rather than miscompute.
    let (n, m) = (4i64, 3i64);
    let f = Func::new("stale")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("b", [m], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            var_def(
                "t",
                scalar(),
                DataType::F64,
                MemType::CpuStack,
                block([
                    for_(
                        "j",
                        0,
                        m,
                        store("t", scalar(), load("a", [var("i")]) * load("b", [var("j")])),
                    ),
                    store("y", [var("i")], load("t", scalar()) * load("t", scalar())),
                ]),
            ),
        ));
    let all = GradOptions {
        policy: TapePolicy::All,
        ..Default::default()
    };
    let err = grad_with(&f, &all).expect_err("stale read must be rejected");
    assert!(
        err.to_string().contains("read under"),
        "unexpected error: {err}"
    );
}

#[test]
fn recurrence_keeps_its_reversal_and_its_gradient() {
    // y[i] = y[i - 1] * 0.5 + a[i]: iteration `i` reads what `i - 1` wrote,
    // so the backward pass must visit `i` before `i - 1` — a `Store`, never
    // an accumulate-only loop. The accumulation next to it ascends.
    let n = 6i64;
    let f = Func::new("scan")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .param("s", [1], DataType::F64, AccessType::Output)
        .body(block([
            store("y", [0], load("a", [0])),
            for_(
                "i",
                1,
                n,
                store(
                    "y",
                    [var("i")],
                    load("y", [var("i") - 1]) * 0.5f64 + load("a", [var("i")]),
                ),
            ),
            for_(
                "k",
                0,
                n,
                reduce(
                    "s",
                    [0],
                    ReduceOp::Add,
                    load("y", [var("k")]) * load("a", [var("k")]),
                ),
            ),
        ]));
    let text = grad(&f).expect("grad transform").to_string();
    assert!(
        text.contains("y.grad[6 - i]"),
        "the scan is reversed:\n{text}"
    );
    assert!(
        text.contains("a.grad[k] += s.grad[0] * y[k]"),
        "the sum is not:\n{text}"
    );
    let inputs: Inputs = [("a".to_string(), tensor(&[n as usize], 23))].into();
    for policy in [TapePolicy::Selective, TapePolicy::All] {
        let opts = GradOptions {
            policy,
            ..Default::default()
        };
        gradcheck(&f, &opts, &inputs, &[], 1e-6);
    }
}

#[test]
fn named_values_in_a_replayed_nest_and_over_an_unneeded_tensor_gradcheck() {
    // x[k, p] = exp(a[k]) / s[0] * w[p]   the nest is replayed whole under
    //                                      `Selective`, its name with it
    // u[k]    = a[k] * a[k]               nothing in the backward pass reads
    //                                      `u` …
    // y[k, p] = x[k, p] * x[k, p]
    // z[k, p] += u[k] + s[0]              … not even the value named here
    let (n, m) = (3i64, 4i64);
    let local =
        |name, shape: Vec<Expr>, body| var_def(name, shape, DataType::F64, MemType::CpuHeap, body);
    let f = Func::new("named")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("s", [1], DataType::F64, AccessType::Input)
        .param("w", [m], DataType::F64, AccessType::Input)
        .param("y", [n, m], DataType::F64, AccessType::Output)
        .param("z", [n, m], DataType::F64, AccessType::Output)
        .body(local(
            "x",
            vec![n.into(), m.into()],
            local(
                "u",
                vec![n.into()],
                block([
                    for_(
                        "k",
                        0,
                        n,
                        for_(
                            "p",
                            0,
                            m,
                            store(
                                "x",
                                idx![var("k"), var("p")],
                                intrin::exp(load("a", [var("k")])) / load("s", [0])
                                    * load("w", [var("p")]),
                            ),
                        ),
                    ),
                    for_(
                        "k",
                        0,
                        n,
                        store(
                            "u",
                            [var("k")],
                            load("a", [var("k")]) * load("a", [var("k")]),
                        ),
                    ),
                    for_(
                        "k",
                        0,
                        n,
                        for_(
                            "p",
                            0,
                            m,
                            block([
                                store(
                                    "y",
                                    idx![var("k"), var("p")],
                                    load("x", idx![var("k"), var("p")])
                                        * load("x", idx![var("k"), var("p")]),
                                ),
                                reduce(
                                    "z",
                                    idx![var("k"), var("p")],
                                    ReduceOp::Add,
                                    load("u", [var("k")]) + load("s", [0]),
                                ),
                            ]),
                        ),
                    ),
                ]),
            ),
        ));
    let text = grad(&f).expect("grad transform").to_string();
    assert!(
        text.contains("= exp(a[k]) / s[0]"),
        "a name in the nest:\n{text}"
    );
    assert!(
        text.contains("= u.b[2 - k] + s[0]"),
        "a name over `u`:\n{text}"
    );
    assert!(
        !text.contains("u.tape"),
        "which is no reason to keep `u`:\n{text}"
    );
    let inputs: Inputs = [
        ("a".to_string(), tensor(&[n as usize], 31)),
        ("s".to_string(), TensorVal::from_f64(&[1], vec![1.7])),
        ("w".to_string(), tensor(&[m as usize], 33)),
    ]
    .into();
    for policy in [TapePolicy::Selective, TapePolicy::All, TapePolicy::None] {
        let opts = GradOptions {
            policy,
            ..Default::default()
        };
        gradcheck(&f, &opts, &inputs, &[], 1e-6);
    }
}

/// A program whose single intermediate has `def_cost` exactly equal to the
/// default `recompute_threshold` (16): a chain of 16 adds over 17 loads.
fn boundary_cost_func(n: i64) -> Func {
    let mut acc = load("a", [var("i")]);
    for _ in 0..16 {
        acc = acc + load("a", [var("i")]);
    }
    Func::new("boundary")
        .param("a", [n], DataType::F64, AccessType::Input)
        .param("y", [n], DataType::F64, AccessType::Output)
        .body(for_(
            "i",
            0,
            n,
            var_def(
                "t",
                scalar(),
                DataType::F64,
                MemType::CpuStack,
                block([
                    store("t", scalar(), acc),
                    store("y", [var("i")], load("t", scalar()) * load("t", scalar())),
                ]),
            ),
        ))
}

#[test]
fn selective_boundary_decisions_give_bit_identical_gradients() {
    // At the default threshold (16) the cost-16 definition is *recomputed*;
    // one below it is *stored*. The two gradient programs must differ
    // structurally (tape vs replay) yet produce bit-identical gradients.
    let f = boundary_cost_func(5);
    let at = grad_with(&f, &GradOptions::default()).expect("threshold 16 grad");
    let below = grad_with(
        &f,
        &GradOptions {
            recompute_threshold: 15,
            ..Default::default()
        },
    )
    .expect("threshold 15 grad");
    let at_txt = format!("{at}");
    let below_txt = format!("{below}");
    assert!(
        !at_txt.contains("t.tape"),
        "def_cost == threshold must recompute, found a tape:\n{at_txt}"
    );
    assert!(
        below_txt.contains("t.tape"),
        "def_cost just above threshold must store:\n{below_txt}"
    );
    let mut inputs = [("a".to_string(), tensor(&[5], 11))]
        .into_iter()
        .collect::<Inputs>();
    inputs.insert(
        "y.grad".to_string(),
        TensorVal::from_f64(&[5], vec![1.0; 5]),
    );
    let sizes = HashMap::new();
    let ra = Runtime::new()
        .run(&at, &inputs, &sizes)
        .expect("recompute runs");
    let rb = Runtime::new()
        .run(&below, &inputs, &sizes)
        .expect("store runs");
    assert_eq!(
        ra.output("a.grad"),
        rb.output("a.grad"),
        "store vs recompute must be bit-identical"
    );
}
