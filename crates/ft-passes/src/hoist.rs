//! When a subexpression may be evaluated once in front of a loop.
//!
//! One rule, two callers: the C emitter's hoisted temporaries
//! (`ft-codegen/src/scalar.rs`) and the values `ft-autodiff` names before it
//! differentiates. A subexpression `E` of an assignment in loop `L` may move
//! in front of `L` when that can neither change its value nor add an
//! evaluation the program did not have:
//!
//! * `E` names nothing `L` binds — its iterator, its `VarDef`s, nested ones
//!   included — and loads nothing `L` writes ([`LoopNames`], [`invariant`]),
//!   so a structurally equal expression anywhere in `L` means the same thing;
//! * `L` runs a constant, positive number of times ([`certainly_runs`]);
//! * the assignment is directly in `L`, under no `If` and no nested loop
//!   ([`direct_assignments`]);
//! * `E` is evaluated whenever the assignment is: it is not in a `select`
//!   arm or right of a short-circuit operator ([`operands`], [`scan`]).

use ft_ir::{BinaryOp, Expr, Stmt, StmtKind};

/// Whether a loop over `begin..end` runs a constant, positive number of
/// times.
#[inline]
pub fn certainly_runs(begin: &Expr, end: &Expr) -> bool {
    matches!((begin, end), (Expr::IntConst(b), Expr::IntConst(e)) if b < e)
}

/// The names one loop binds or writes: a range of [`LoopNames`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Scope {
    start: usize,
    end: usize,
    /// No loop is nested in this one.
    pub innermost: bool,
}

/// What every loop of a statement tree binds (its iterator, a `VarDef`) or
/// writes, nested loops' names included.
#[derive(Debug, Default)]
pub struct LoopNames<'a> {
    /// In traversal order, so that a loop's names — its nested loops'
    /// included — are one contiguous range.
    names: Vec<&'a str>,
    /// One scope per `For`, in pre-order.
    loops: Vec<Scope>,
}

impl<'a> LoopNames<'a> {
    /// The names of every loop in `body`.
    pub fn of(body: &'a Stmt) -> Self {
        let mut n = LoopNames::default();
        n.collect(body, 0);
        n
    }

    /// The scope of the `k`-th `For` of the tree, in pre-order (`then`
    /// before `otherwise`).
    #[inline]
    pub fn scope(&self, k: usize) -> Scope {
        self.loops[k]
    }

    /// Whether the loop of `scope` binds or writes `name`.
    #[inline]
    pub fn varies(&self, scope: Scope, name: &str) -> bool {
        self.names[scope.start..scope.end].contains(&name)
    }

    /// `from` is where the names of the innermost loop around `s` start.
    /// Returns whether `s` holds a loop at all.
    fn collect(&mut self, s: &'a Stmt, from: usize) -> bool {
        match &s.kind {
            StmtKind::Block(v) => v.iter().fold(false, |any, c| self.collect(c, from) | any),
            StmtKind::VarDef { name, body, .. } => {
                self.name(name, from);
                self.collect(body, from)
            }
            StmtKind::For { iter, body, .. } => {
                let idx = self.loops.len();
                self.loops.push(Scope::default());
                let start = self.names.len();
                self.names.push(iter);
                let nested = self.collect(body, start);
                self.loops[idx] = Scope {
                    start,
                    end: self.names.len(),
                    innermost: !nested,
                };
                true
            }
            StmtKind::If {
                then, otherwise, ..
            } => {
                let t = self.collect(then, from);
                otherwise.as_ref().is_some_and(|o| self.collect(o, from)) | t
            }
            StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. } => {
                self.name(var, from);
                false
            }
            StmtKind::LibCall { outputs, .. } => {
                outputs.iter().for_each(|o| self.name(o, from));
                false
            }
            StmtKind::Empty => false,
        }
    }

    fn name(&mut self, n: &'a str, from: usize) {
        // Once per loop: every lookup walks the loop's whole range.
        if !self.names[from..].contains(&n) {
            self.names.push(n);
        }
    }
}

/// The operands of `e` that are evaluated whenever `e` is (subscripts
/// first), then the ones that may not be.
#[inline]
pub fn operands(e: &Expr) -> (&[Expr], [Option<&Expr>; 2], [Option<&Expr>; 2]) {
    match e {
        Expr::Load { indices, .. } => (indices, [None; 2], [None; 2]),
        Expr::Unary { a, .. } | Expr::Cast { a, .. } => (&[], [Some(a), None], [None; 2]),
        Expr::Binary {
            op: BinaryOp::And | BinaryOp::Or,
            a,
            b,
        } => (&[], [Some(a), None], [Some(b), None]),
        Expr::Binary { a, b, .. } => (&[], [Some(a), Some(b)], [None; 2]),
        Expr::Select {
            cond,
            then,
            otherwise,
        } => (&[], [Some(cond), None], [Some(then), Some(otherwise)]),
        _ => (&[], [None; 2], [None; 2]),
    }
}

/// A constant or a scalar variable.
#[inline]
pub fn is_leaf(e: &Expr) -> bool {
    matches!(
        e,
        Expr::IntConst(_) | Expr::FloatConst(_) | Expr::BoolConst(_) | Expr::Var(_)
    )
}

/// Whether `e` names nothing of which `varies` holds: no such scalar
/// variable, no load of such a tensor.
pub fn invariant(e: &Expr, varies: &impl Fn(&str) -> bool) -> bool {
    !e.any(&mut |n| matches!(n, Expr::Var(v) | Expr::Load { var: v, .. } if varies(v)))
}

/// Collect into `out` the maximal subexpressions of `e` — `e` itself
/// included — that are [`invariant`], hold a node of which `worth` holds, and
/// are evaluated whenever `e` is. `out[h0..]` are the candidates of the same
/// loop so far: a structurally equal one is not added twice.
pub fn scan<'a>(
    e: &'a Expr,
    varies: &impl Fn(&str) -> bool,
    worth: &impl Fn(&Expr) -> bool,
    out: &mut Vec<&'a Expr>,
    h0: usize,
) {
    if scan_proper(e, varies, worth, out, h0) == (true, true) {
        candidate(e, out, h0);
    }
}

/// [`scan`] for the proper subexpressions of `e`. Returns whether `e` itself
/// is invariant (the caller then takes it whole: nothing inside it stays in
/// `out`), and whether it holds a `worth` node.
fn scan_proper<'a>(
    e: &'a Expr,
    varies: &impl Fn(&str) -> bool,
    worth: &impl Fn(&Expr) -> bool,
    out: &mut Vec<&'a Expr>,
    h0: usize,
) -> (bool, bool) {
    if is_leaf(e) {
        return (!matches!(e, Expr::Var(n) if varies(n)), false);
    }
    let mark = out.len();
    let mut inv = !matches!(e, Expr::Load { var, .. } if varies(var));
    let mut worthy = worth(e);
    let (idx, sure, maybe) = operands(e);
    for c in idx.iter().chain(sure.into_iter().flatten()) {
        let (ci, cw) = scan_proper(c, varies, worth, out, h0);
        if ci && cw {
            candidate(c, out, h0);
        }
        inv &= ci;
        worthy |= cw;
    }
    for c in maybe.into_iter().flatten() {
        inv &= invariant(c, varies);
        worthy |= c.any(&mut |n| worth(n));
    }
    if inv {
        out.truncate(mark);
    }
    (inv, worthy)
}

fn candidate<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>, h0: usize) {
    if !out[h0..].contains(&e) {
        out.push(e);
    }
}

/// Call `f` on the subscripts and the value of every assignment directly
/// and unconditionally in the loop whose body is `s`: the `Store`s and
/// `ReduceTo`s reached through `Block`s and `VarDef`s only.
pub fn direct_assignments<'a>(s: &'a Stmt, f: &mut impl FnMut(&'a [Expr], &'a Expr)) {
    match &s.kind {
        StmtKind::Block(v) => v.iter().for_each(|c| direct_assignments(c, f)),
        StmtKind::VarDef { body, .. } => direct_assignments(body, f),
        StmtKind::Store { indices, value, .. } | StmtKind::ReduceTo { indices, value, .. } => {
            f(indices, value)
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    fn is_load(e: &Expr) -> bool {
        matches!(e, Expr::Load { .. })
    }

    #[test]
    fn only_constant_positive_trip_counts_certainly_run() {
        assert!(certainly_runs(&0.into(), &4.into()));
        assert!(!certainly_runs(&4.into(), &4.into()));
        assert!(!certainly_runs(&0.into(), &var("n")));
    }

    #[test]
    fn a_loop_varies_what_it_and_its_nested_loops_bind_or_write() {
        let body = for_(
            "i",
            0,
            4,
            block([
                store("a", [var("i")], 0.0f32),
                for_(
                    "k",
                    0,
                    2,
                    reduce("b", [var("k")], ReduceOp::Add, load("x", [var("i")])),
                ),
            ]),
        );
        let names = LoopNames::of(&body);
        let (outer, inner) = (names.scope(0), names.scope(1));
        assert!(!outer.innermost && inner.innermost);
        for n in ["i", "k", "a", "b"] {
            assert!(names.varies(outer, n), "{n}");
        }
        assert!(names.varies(inner, "k") && names.varies(inner, "b"));
        assert!(!names.varies(inner, "i") && !names.varies(inner, "a"));
        assert!(!names.varies(outer, "x"));
    }

    #[test]
    fn scan_takes_maximal_invariants_on_the_sure_path_only() {
        let varies = |n: &str| n == "p" || n == "y";
        // ex[k] / den[] * V[k, p]: the quotient leaves whole.
        let quotient = load("ex", [var("k")]) / load("den", scalar());
        let e = quotient.clone() * load("V", ft_ir::idx![var("k"), var("p")]);
        let mut out = Vec::new();
        scan(&e, &varies, &is_load, &mut out, 0);
        assert_eq!(out, [&quotient]);
        // A `select` arm stays where it is; an invariant `select` goes
        // whole.
        let guarded = Expr::select(var("p").lt(2), load("x", [0]), 0.0f32.into());
        let mut out = Vec::new();
        scan(&guarded, &varies, &is_load, &mut out, 0);
        assert!(out.is_empty());
        let whole = Expr::select(var("k").lt(2), load("x", [0]), 0.0f32.into());
        scan(&whole, &varies, &is_load, &mut out, 0);
        assert_eq!(out, [&whole]);
        // What the loop writes is not invariant in it, and a value met twice
        // is one candidate.
        let own = load("y", [0]) * load("x", [0]) + load("x", [0]);
        let mut out = Vec::new();
        scan(&own, &varies, &is_load, &mut out, 0);
        assert_eq!(out, [&load("x", [0])]);
    }

    #[test]
    fn assignments_under_an_if_or_a_nested_loop_are_not_direct() {
        let body = block([
            store("a", [0], 0.0f32),
            var_def(
                "t",
                scalar(),
                DataType::F32,
                MemType::CpuStack,
                store("t", scalar(), 1.0f32),
            ),
            if_(var("i").lt(2), store("b", [0], 2.0f32)),
            for_("k", 0, 2, store("c", [var("k")], 3.0f32)),
        ]);
        let mut values = Vec::new();
        direct_assignments(&body, &mut |_, value| values.push(value.clone()));
        assert_eq!(values, [Expr::from(0.0f32), Expr::from(1.0f32)]);
    }
}
