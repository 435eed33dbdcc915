//! Property test: programs printed by the IR pretty-printer parse back and
//! compute the same results (printer/parser round-trip through execution).

use ft_ir::prelude::*;
use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random scalar expressions over iterator `i` and input tensor `x[16]`
/// (always in-bounds: subscripts are `i` or constants 0..16).
fn arb_value_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (-4i64..=4).prop_map(Expr::IntConst),
        (-2.0f64..2.0).prop_map(Expr::FloatConst),
        Just(var("i")),
        Just(load("x", [var("i")])),
        (0usize..16).prop_map(|k| load("x", [k])),
    ];
    leaf.prop_recursive(3, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.min(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
            inner.clone().prop_map(intrin::abs),
            inner.clone().prop_map(|a| intrin::exp(a * 0.125f64)),
            inner.clone().prop_map(intrin::sigmoid),
            inner.clone().prop_map(|a| -a),
        ]
    })
}

/// Random straight-line-plus-control programs writing y[16] from x[16].
fn arb_program() -> impl Strategy<Value = Func> {
    (
        arb_value_expr(),
        arb_value_expr(),
        0i64..8,
        proptest::bool::ANY,
    )
        .prop_map(|(e1, e2, pivot, use_reduce)| {
            let body = if use_reduce {
                block([
                    store("y", [var("i")], e1),
                    if_(
                        var("i").ge(pivot),
                        reduce("y", [var("i")], ReduceOp::Add, e2),
                    ),
                ])
            } else {
                block([if_else(
                    var("i").lt(pivot),
                    store("y", [var("i")], e1),
                    store("y", [var("i")], e2),
                )])
            };
            Func::new("rt")
                .param("x", [16], DataType::F32, AccessType::Input)
                .param("y", [16], DataType::F32, AccessType::Output)
                .body(for_("i", 0, 16, body))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn printed_programs_parse_and_agree(f in arb_program()) {
        let text = f.to_string();
        let reparsed = ft_frontend::compile_str(&text, "rt")
            .unwrap_or_else(|e| panic!("printer output failed to parse: {e}\n{text}"));
        let x = TensorVal::from_f32(&[16], (0..16).map(|k| (k as f32 * 0.37).sin()).collect());
        let inputs: HashMap<String, TensorVal> =
            [("x".to_string(), x)].into_iter().collect();
        let rt = Runtime::new();
        let a = rt.run(&f, &inputs, &HashMap::new()).expect("original runs");
        let b = rt.run(&reparsed, &inputs, &HashMap::new()).expect("reparsed runs");
        prop_assert!(
            a.output("y").allclose(b.output("y"), 1e-5),
            "round-trip changed semantics:\n{text}"
        );
    }
}

#[test]
fn workload_sources_roundtrip_through_printer() {
    // Every workload's lowered IR prints to text the parser accepts again.
    let sources = [ft_libop::compile_with_libop(
        "def e(a: f32[4, 4] in, b: f32[4, 4] in, c: f32[4, 4] out):\n  matmul(a, b, c, 4, 4, 4)\n",
        "e",
    )
    .unwrap()];
    for f in sources {
        let text = f.to_string();
        ft_frontend::parse(&text)
            .unwrap_or_else(|e| panic!("printer output rejected: {e}\n{text}"));
    }
}
