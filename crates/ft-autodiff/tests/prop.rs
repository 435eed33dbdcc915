//! Property test: reverse-mode AD matches central finite differences on
//! randomly generated differentiable elementwise chains.

use ft_autodiff::{grad_with, GradOptions, TapePolicy};
use ft_ir::prelude::*;
use ft_runtime::{ExecutionEngine, Runtime, Scalar, TensorVal};
use proptest::prelude::*;
use std::collections::HashMap;

const N: usize = 4;

/// Random smooth expressions of `x[i]` (kept numerically tame).
fn arb_smooth_expr() -> impl Strategy<Value = Expr> {
    let x = || load("x", [var("i")]);
    let leaf = prop_oneof![Just(x()), (-1.5f64..1.5).prop_map(Expr::FloatConst),];
    leaf.prop_recursive(3, 16, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a + b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a - b),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a * b),
            inner.clone().prop_map(intrin::sigmoid),
            inner.clone().prop_map(intrin::tanh),
            inner.clone().prop_map(|a| intrin::exp(a * 0.25f64)),
            inner
                .clone()
                .prop_map(|a| intrin::sqrt(intrin::abs(a) + 1.0f64)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.max(b)),
        ]
    })
}

fn build(expr: Expr, via_local: bool) -> Func {
    // Optionally route through a local intermediate so the tape/recompute
    // machinery participates.
    let body = if via_local {
        var_def(
            "t",
            scalar(),
            DataType::F64,
            MemType::CpuStack,
            block([
                store("t", scalar(), expr),
                store(
                    "y",
                    [var("i")],
                    load("t", scalar()) * load("t", scalar()) + load("t", scalar()),
                ),
            ]),
        )
    } else {
        store("y", [var("i")], expr)
    };
    Func::new("p")
        .param("x", [N], DataType::F64, AccessType::Input)
        .param("y", [N], DataType::F64, AccessType::Output)
        .body(for_("i", 0, N, body))
}

fn loss(func: &Func, x: &TensorVal) -> f64 {
    let inputs: HashMap<String, TensorVal> = [("x".to_string(), x.clone())].into_iter().collect();
    Runtime::new()
        .run(func, &inputs, &HashMap::new())
        .expect("fwd runs")
        .output("y")
        .to_f64_vec()
        .iter()
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_chain_gradcheck(
        e in arb_smooth_expr(),
        via_local in proptest::bool::ANY,
        policy in prop_oneof![Just(TapePolicy::All), Just(TapePolicy::Selective)],
        seed in 0u64..1000,
    ) {
        let func = build(e, via_local);
        let opts = GradOptions { policy, ..Default::default() };
        let g = grad_with(&func, &opts).expect("grad transform");
        let x = TensorVal::from_f64(
            &[N],
            (0..N).map(|k| ((k as f64 + seed as f64) * 0.61).sin() * 0.8).collect(),
        );
        let ones = TensorVal::from_f64(&[N], vec![1.0; N]);
        let inputs: HashMap<String, TensorVal> = [
            ("x".to_string(), x.clone()),
            ("y.grad".to_string(), ones),
        ]
        .into_iter()
        .collect();
        let analytic = Runtime::new()
            .run(&g, &inputs, &HashMap::new())
            .expect("grad runs");
        let gx = analytic.output("x.grad");
        let eps = 1e-5;
        for i in 0..N {
            let mut plus = x.clone();
            plus.set_flat(i, Scalar::Float(x.get_flat(i).as_f64() + eps));
            let mut minus = x.clone();
            minus.set_flat(i, Scalar::Float(x.get_flat(i).as_f64() - eps));
            let fd = (loss(&func, &plus) - loss(&func, &minus)) / (2.0 * eps);
            let an = gx.get_flat(i).as_f64();
            // `max` and `abs` kinks can make FD unreliable exactly at the
            // kink; allow a slightly loose tolerance.
            prop_assert!(
                (fd - an).abs() <= 2e-3 * (1.0 + fd.abs()),
                "x[{i}]: analytic {an} vs fd {fd}\n{func}"
            );
        }
    }
}
