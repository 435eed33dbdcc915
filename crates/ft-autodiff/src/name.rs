//! Name before you differentiate.
//!
//! [`pullback`](crate::deriv::pullback) differentiates a statement's value
//! as one expression, inside the statement's loop. For
//! `y[j, p] += ex[k] / den * V[t, p]` that puts two divisions per feature
//! element into the backward loop over `p` — for adjoints of `ex[k]` and
//! `den` that exist once per window position. So a loop-invariant float
//! subexpression that carries a gradient gets a name first:
//!
//! ```text
//! for p in 0..64:                          t = ex[k] / den
//!   y[j, p] += ex[k] / den * V[t, p]  =>   for p in 0..64:
//!                                            y[j, p] += t * V[t, p]
//! ```
//!
//! and the backward pass accumulates `t.grad += y.grad[j, p] * V[t, p]` in
//! the loop and differentiates `t = ex[k] / den` once, outside it. What may
//! be named is what the C emitter may hoist: the rule of
//! [`ft_passes::hoist`].
//!
//! Only the *backward* pass is derived from the named body. The forward
//! half of the gradient function stays the program as written, so its
//! outputs do not change on any engine (a name is a rounding point for the
//! interpreter's `f64` intermediates), the tape decisions are taken on the
//! program as written, and a name costs no tape under any policy: the
//! backward pass replays `t = E` in front of the mirrored loop from exactly
//! the values — tapes, inputs, replayed tensors of enclosing scopes — that
//! the pullback of the unnamed statement would have read inside it.

use ft_ir::mutate::{mutate_expr_walk, mutate_stmt_walk};
use ft_ir::{builder, DataType, Expr, Func, MemType, Mutator, Stmt, StmtKind};
use ft_passes::hoist::{certainly_runs, direct_assignments, scan, LoopNames};
use std::collections::{HashMap, HashSet};

/// `func`'s body with every value the rule admits named, and the names
/// introduced with their element types.
///
/// A value is a maximal float subexpression `E` of the value of an
/// assignment directly in its innermost enclosing loop `L` that may leave
/// `L`, contains an operator and loads a tensor of which `active` holds. It
/// becomes `VarDef t { t[] = E; L[E := t[]] }`, `t` a 0-d `CpuStack` tensor
/// of `E`'s type; structurally equal values of one loop share a name.
///
/// `func`'s definition names must be unique (`uniquify_def_names`): "loads
/// nothing `L` writes" is decided by name.
pub(crate) fn name_invariants(
    func: &Func,
    dtypes: &HashMap<String, DataType>,
    active: &dyn Fn(&str) -> bool,
) -> (Stmt, Vec<(String, DataType)>) {
    let mut used: HashSet<String> = func
        .params
        .iter()
        .map(|p| p.name.clone())
        .chain(func.size_params.iter().cloned())
        .collect();
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef { name, .. } | StmtKind::For { iter: name, .. } = &s.kind {
            used.insert(name.clone());
        }
    });
    let mut namer = Namer {
        loops: LoopNames::of(&func.body),
        next_loop: 0,
        dtypes,
        active,
        used,
        introduced: Vec::new(),
    };
    let body = namer.mutate_stmt(func.body.clone());
    (body, namer.introduced)
}

struct Namer<'a> {
    /// What each loop of the body as written binds or writes.
    loops: LoopNames<'a>,
    /// Loops entered so far: the walk is in the pre-order `loops` counts in.
    next_loop: usize,
    dtypes: &'a HashMap<String, DataType>,
    active: &'a dyn Fn(&str) -> bool,
    /// Every parameter, size parameter, definition and iterator name.
    used: HashSet<String>,
    introduced: Vec<(String, DataType)>,
}

impl Namer<'_> {
    /// The values the `k`-th loop (over `begin..end`, body `body`) may
    /// name, with their types.
    fn values(&self, k: usize, begin: &Expr, end: &Expr, body: &Stmt) -> Vec<(Expr, DataType)> {
        if !certainly_runs(begin, end) {
            return Vec::new();
        }
        let scope = self.loops.scope(k);
        let varies = |n: &str| self.loops.varies(scope, n);
        let carries_gradient = |e: &Expr| matches!(e, Expr::Load { var, .. } if (self.active)(var));
        let mut found = Vec::new();
        direct_assignments(body, &mut |_, value| {
            scan(value, &varies, &carries_gradient, &mut found, 0)
        });
        let tensor = |n: &str| self.dtypes.get(n).copied().unwrap_or(DataType::F64);
        found
            .into_iter()
            // A bare load already has a name, and an integer (a subscript,
            // a comparison) has no gradient to collect.
            .filter(|e| !matches!(e, Expr::Load { .. }))
            .map(|e| (e.clone(), e.dtype(&tensor).dtype))
            .filter(|(_, dtype)| dtype.is_float())
            .collect()
    }

    fn fresh(&mut self) -> String {
        (1..)
            .map(|k| format!("ad.t{k}"))
            .find(|n| self.used.insert(n.clone()))
            .expect("unbounded candidate space")
    }
}

impl Mutator for Namer<'_> {
    fn mutate_stmt(&mut self, s: Stmt) -> Stmt {
        let StmtKind::For {
            begin, end, body, ..
        } = &s.kind
        else {
            return mutate_stmt_walk(self, s);
        };
        let k = self.next_loop;
        self.next_loop += 1;
        let values = self.values(k, begin, end, body);
        let lp = mutate_stmt_walk(self, s);
        if values.is_empty() {
            return lp;
        }
        let named: Vec<(Expr, String, DataType)> = values
            .into_iter()
            .map(|(e, dtype)| (e, self.fresh(), dtype))
            .collect();
        // Everywhere in the loop, the definitions of nested loops' names
        // included: the value means the same thing there.
        let lp = UseNames(&named).mutate_stmt(lp);
        let mut stmts: Vec<Stmt> = named
            .iter()
            .map(|(e, t, _)| builder::store(t, builder::scalar(), e.clone()))
            .collect();
        stmts.push(lp);
        let mut out = builder::block(stmts);
        for (_, t, dtype) in named.into_iter().rev() {
            out = builder::var_def(&t, builder::scalar(), dtype, MemType::CpuStack, out);
            self.introduced.push((t, dtype));
        }
        out
    }
}

/// Replace every occurrence of a named value by a load of its name.
struct UseNames<'n>(&'n [(Expr, String, DataType)]);

impl Mutator for UseNames<'_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        match self.0.iter().find(|(v, _, _)| *v == e) {
            Some((_, t, _)) => builder::load(t, builder::scalar()),
            None => mutate_expr_walk(self, e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    /// `x` and `w` carry gradients, `n` is an integer tensor.
    fn dtypes() -> HashMap<String, DataType> {
        [
            ("x", DataType::F32),
            ("w", DataType::F32),
            ("y", DataType::F32),
            ("n", DataType::I32),
        ]
        .into_iter()
        .map(|(n, d)| (n.to_string(), d))
        .collect()
    }

    fn func(body: Stmt) -> Func {
        Func::new("f")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("w", [8], DataType::F32, AccessType::Input)
            .param("n", [8], DataType::I32, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .size_param("m")
            .body(body)
    }

    fn names_of(body: Stmt) -> (String, Vec<(String, DataType)>) {
        let d = dtypes();
        let f = func(body);
        let (body, names) = name_invariants(&f, &d, &|n| n == "x" || n == "w" || n == "y");
        (f.with_body(body).to_string(), names)
    }

    /// `for p in begin..end: <wrap>(y[p] += <value> * w[p])` inside `for k`.
    fn nest(begin: i64, end: impl Into<Expr>, value: Expr, wrap: fn(Stmt) -> Stmt) -> Stmt {
        for_(
            "k",
            0,
            8,
            for_(
                "p",
                begin,
                end,
                wrap(reduce(
                    "y",
                    [var("p")],
                    ReduceOp::Add,
                    value * load("w", [var("p")]),
                )),
            ),
        )
    }

    fn quotient() -> Expr {
        load("x", [var("k")]) / load("x", [0])
    }

    #[test]
    fn an_invariant_quotient_is_named_in_front_of_its_loop() {
        let (text, names) = names_of(nest(0, 8, quotient(), |s| s));
        assert_eq!(names, [("ad.t1".to_string(), DataType::F32)]);
        let def = text.find("ad.t1[] = x[k] / x[0]").expect(&text);
        let lp = text.find("for p in").expect(&text);
        assert!(text.find("for k in").unwrap() < def && def < lp, "{text}");
        assert!(text.contains("y[p] += ad.t1[] * w[p]"), "{text}");
        assert!(
            text.contains("ad.t1 = create_var((), \"f32\", \"cpu/stack\")"),
            "{text}"
        );
    }

    #[test]
    fn what_the_hoist_rule_refuses_is_not_named() {
        let refused =
            [
                // A loop that may not run, or never does.
                nest(0, var("m"), quotient(), |s| s),
                nest(3, 3, quotient(), |s| s),
                // A statement under an `If` in its loop.
                nest(0, 8, quotient(), |s| if_(var("p").lt(var("m")), s)),
                // A value that loads what the loop writes — its own target.
                nest(0, 8, load("y", [0]) / load("x", [0]), |s| s),
                // No load that carries a gradient.
                nest(
                    0,
                    8,
                    Expr::cast(DataType::F32, load("n", [var("k")])) * 2.0f32,
                    |s| s,
                ),
                // A bare load.
                nest(0, 8, load("x", [var("k")]), |s| s),
                // An integer subscript expression, even one computed from a
                // tensor that carries a gradient.
                for_(
                    "k",
                    0,
                    4,
                    for_(
                        "p",
                        0,
                        4,
                        store(
                            "y",
                            [var("p")],
                            load(
                                "x",
                                [Expr::cast(DataType::I64, load("x", [var("k")]) * 2.0f32)
                                    + var("p")],
                            ),
                        ),
                    ),
                ),
                // A `select` arm.
                nest(
                    0,
                    8,
                    Expr::select(var("p").lt(2), quotient(), 0.0f32.into()),
                    |s| s,
                ),
            ];
        for body in refused {
            let (text, names) = names_of(body);
            assert!(names.is_empty(), "{text}");
            assert!(!text.contains("ad.t"), "{text}");
        }
    }

    #[test]
    fn equal_values_of_one_loop_share_a_name_and_are_replaced_everywhere() {
        let body = for_(
            "p",
            0,
            8,
            block([
                reduce(
                    "y",
                    [var("p")],
                    ReduceOp::Add,
                    quotient() * load("w", [var("p")]),
                ),
                if_(
                    var("p").lt(var("m")),
                    reduce("y", [var("p")], ReduceOp::Add, quotient() + 1.0f32),
                ),
            ]),
        );
        let (text, names) = names_of(for_("k", 0, 8, body));
        assert_eq!(names.len(), 1, "{text}");
        assert_eq!(text.matches("x[k] / x[0]").count(), 1, "{text}");
        assert!(text.contains("y[p] += ad.t1[] + 1.0"), "{text}");
    }

    #[test]
    fn each_loop_names_its_own_values_in_front_of_itself() {
        // `x[k] / x[0]` is invariant in `p`, `exp(x[0])` in `k` as well — but
        // a value is named one level up, where its statement's loop starts.
        let inner = for_(
            "p",
            0,
            8,
            reduce(
                "y",
                [var("p")],
                ReduceOp::Add,
                quotient() * intrin::exp(load("x", [0])) * load("w", [var("p")]),
            ),
        );
        let body = for_(
            "k",
            0,
            8,
            block([
                store(
                    "y",
                    [var("k")],
                    intrin::exp(load("x", [0])) * load("w", [var("k")]),
                ),
                inner,
            ]),
        );
        let (text, names) = names_of(body);
        assert_eq!(names.len(), 2, "{text}");
        // The outer name, `exp(x[0])`, is used in the inner one's definition.
        let outer = text.find("ad.t2[] = exp(x[0])").expect(&text);
        assert!(outer < text.find("for k in").unwrap(), "{text}");
        assert!(text.contains("ad.t1[] = x[k] / x[0] * ad.t2[]"), "{text}");
        assert!(text.contains("y[k] = ad.t2[] * w[k]"), "{text}");
    }

    /// The names given in a DSL program, all of whose float tensors carry
    /// gradients.
    fn names_in_source(src: &str, entry: &str) -> String {
        let f = ft_ir::mutate::uniquify_def_names(
            &ft_frontend::compile_str(src, entry).expect("compiles"),
        );
        let mut d: HashMap<String, DataType> =
            f.params.iter().map(|p| (p.name.clone(), p.dtype)).collect();
        f.body.walk(&mut |s| {
            if let StmtKind::VarDef { name, dtype, .. } = &s.kind {
                d.insert(name.clone(), *dtype);
            }
        });
        let (body, names) = name_invariants(&f, &d, &|n| d[n].is_float());
        assert!(names.iter().all(|(_, dtype)| *dtype == DataType::F32));
        f.with_body(body).to_string()
    }

    #[test]
    fn the_attention_weight_of_longformer_and_softras_gets_a_name() {
        // The two statements the benchmark's gradients spend their time in:
        // a softmax weight, constant over the feature / channel loop.
        let text = names_in_source(
            r#"
def f(ex: f32[5] in, den: f32[1] in, V: f32[8, 4] in, y: f32[4, 4] out):
  for j in range(4):
    for k4 in range(5):
      if j + k4 - 2 >= 0 and j + k4 - 2 < 4:
        for p2 in range(4):
          y[j, p2] += ex[k4] / den[0] * V[j + k4, p2]
"#,
            "f",
        );
        assert!(text.contains("ad.t1[] = ex[k4] / den[0]"), "{text}");
        assert!(
            text.contains("y[j, p2] += ad.t1[] * V[j + k4, p2]"),
            "{text}"
        );
        // In front of `p2`, inside the guard that decides whether it runs.
        let (guard, def) = (
            text.find("if j + k4").unwrap(),
            text.find("ad.t1[] =").unwrap(),
        );
        assert!(guard < def && def < text.find("for p2").unwrap(), "{text}");

        let text = names_in_source(
            r#"
def f(sc: f32[6] in, m: f32[1] in, den: f32[1] in, col: f32[6, 3] in, img: f32[4, 3] out):
  for p in range(4):
    for f4 in range(6):
      for c in range(3):
        img[p, c] += exp(sc[f4] - m[0]) / den[0] * col[f4, c]
"#,
            "f",
        );
        assert!(
            text.contains("ad.t1[] = exp(sc[f4] - m[0]) / den[0]"),
            "{text}"
        );
        assert!(text.contains("img[p, c] += ad.t1[] * col[f4, c]"), "{text}");
    }

    #[test]
    fn names_do_not_collide_with_what_the_function_already_defines() {
        let body = var_def(
            "ad.t1",
            scalar(),
            DataType::F32,
            MemType::CpuStack,
            for_("ad.t2", 0, 2, nest(0, 8, quotient(), |s| s)),
        );
        let (text, names) = names_of(body);
        assert_eq!(names, [("ad.t3".to_string(), DataType::F32)], "{text}");
    }
}
