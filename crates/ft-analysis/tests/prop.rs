//! Property test for the dependence engine: if the analysis certifies a loop
//! free of carried dependences, executing its iterations in *reverse* order
//! must produce identical results. (The engine may be conservative — extra
//! dependences are allowed — but never unsound.)

use ft_analysis::loop_carried_deps;
use ft_ir::idx;
use ft_ir::prelude::*;
use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
use proptest::prelude::*;
use std::collections::HashMap;

const N: i64 = 12;

/// One guarded update `a[p*i + q] op= a[r*i + s] + 1` inside `for i in 0..N`,
/// with bounds guards so every access is valid.
fn program(p: i64, q: i64, r: i64, s: i64, use_reduce: bool) -> (Func, StmtId) {
    let widx = var("i") * p + q;
    let ridx = var("i") * r + s;
    let guard = widx
        .clone()
        .ge(0)
        .and(widx.clone().lt(N))
        .and(ridx.clone().ge(0))
        .and(ridx.clone().lt(N));
    let update = if use_reduce {
        reduce("a", idx![widx], ReduceOp::Add, load("a", idx![ridx]) + 1.0f64)
    } else {
        store("a", idx![widx], load("a", idx![ridx]) + 1.0f64)
    };
    let the_loop = for_("i", 0, N, if_(guard, update));
    let loop_id = the_loop.id;
    (
        Func::new("f")
            .param("a", [N], DataType::F64, AccessType::InOut)
            .body(the_loop),
        loop_id,
    )
}

/// The same program with the loop reversed (`i := N-1-i`).
fn reversed(func: &Func) -> Func {
    struct Rev;
    impl Mutator for Rev {
        fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
            if let StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } = s.kind
            {
                let flipped = ft_ir::mutate::subst_var_stmt(
                    *body,
                    &iter,
                    &(end.clone() - 1 - var(&iter) + begin.clone()),
                );
                Stmt {
                    id: s.id,
                    label: s.label,
                    kind: StmtKind::For {
                        iter,
                        begin,
                        end,
                        property,
                        body: Box::new(flipped),
                    },
                }
            } else {
                ft_ir::mutate::mutate_stmt_walk(self, s)
            }
        }
    }
    func.with_body(Rev.mutate_stmt(func.body.clone()))
}

fn run(func: &Func) -> Vec<f64> {
    let a = TensorVal::from_f64(&[N as usize], (0..N).map(|k| (k as f64 * 0.7).sin()).collect());
    let inputs: HashMap<String, TensorVal> = [("a".to_string(), a)].into_iter().collect();
    Runtime::new()
        .run(func, &inputs, &HashMap::new())
        .expect("runs")
        .output("a")
        .to_f64_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn no_carried_dep_implies_order_independence(
        p in 0i64..=2, q in -2i64..=2, r in 0i64..=2, s in -2i64..=2, red in proptest::bool::ANY
    ) {
        let (func, loop_id) = program(p, q, r, s, red);
        let blockers = loop_carried_deps(&func, loop_id);
        if blockers.is_empty() {
            let fwd = run(&func);
            let bwd = run(&reversed(&func));
            for (x, y) in fwd.iter().zip(&bwd) {
                prop_assert!(
                    (x - y).abs() < 1e-9,
                    "analysis certified independence but order matters: \
                     a[{p}*i+{q}] {} a[{r}*i+{s}]+1\n{func}",
                    if red { "+=" } else { "=" }
                );
            }
        }
    }

    /// The engine must flag the classic recurrence patterns (completeness
    /// spot-check so the soundness property above is not vacuous).
    #[test]
    fn unit_shift_recurrences_are_flagged(shift in 1i64..=2) {
        let (func, loop_id) = program(1, 0, 1, -shift, false);
        prop_assert!(!loop_carried_deps(&func, loop_id).is_empty());
    }
}
