//! Remaining transformations: `as_lib` and `separate_tail`
//! (paper Table 1, "Others").

use crate::util::{as_for_ref, peel, peel_into};
use crate::{Schedule, ScheduleError};
use ft_analysis::{const_bounds, to_linexpr, BoundsCtx};
use ft_ir::builder::var;
use ft_ir::find::Selector;
use ft_ir::mutate::{bound_names, fresh_name, refresh_ids};
use ft_ir::{BinaryOp, Expr, ReduceOp, Stmt, StmtId, StmtKind};
use ft_passes::const_fold_expr;
use ft_poly::LinExpr;

impl Schedule {
    /// Replace a matrix-multiplication loop nest with a call to the vendor
    /// library kernel (`as_lib`). The nest must have the canonical shape
    ///
    /// ```text
    /// for i in 0..M:
    ///   for j in 0..N:
    ///     [C[i, j] = 0]            # optional zero-init
    ///     for k in 0..K:
    ///       C[i, j] += A[i, k] * B[k, j]
    /// ```
    ///
    /// with constant `M`, `K`, `N`.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the nest does not match.
    pub fn as_lib(&mut self, loop_sel: impl Into<Selector>) -> Result<(), ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.as_lib_impl(sel);
        self.record("as_lib", args, &r);
        r
    }

    fn as_lib_impl(&mut self, loop_sel: Selector) -> Result<(), ScheduleError> {
        // The nest is matched in place; only the replacement is built.
        let target = self.resolve_ref(loop_sel)?;
        let pi = as_for_ref(target)?;
        let pj = as_for_ref(peel(pi.body))?;
        let unsup = |m: &str| ScheduleError::Unsupported(format!("as_lib: {m}"));
        // The j-body: optional init store, then the k loop.
        let jbody = peel(pj.body);
        let (init, kloop) = match &jbody.kind {
            StmtKind::Block(v) => {
                let items: Vec<&Stmt> = v.iter().filter(|s| !s.is_empty()).collect();
                match items.as_slice() {
                    [a, b] => (Some(*a), *b),
                    [a] => (None, *a),
                    _ => return Err(unsup("j-loop body is not (init?, k-loop)")),
                }
            }
            StmtKind::For { .. } => (None, jbody),
            _ => return Err(unsup("j-loop body is not a loop")),
        };
        let pk = as_for_ref(kloop)?;
        // Check constant extents, zero-based.
        let dims: Vec<i64> = [&pi, &pj, &pk]
            .iter()
            .map(|p| {
                if p.begin.as_int() != Some(0) {
                    return Err(unsup("loops must start at 0"));
                }
                const_fold_expr(p.end.clone())
                    .as_int()
                    .ok_or_else(|| unsup("loop extents must be constants"))
            })
            .collect::<Result<_, _>>()?;
        let (m, n, k) = (dims[0], dims[1], dims[2]);
        // Innermost statement: C[i, j] += A[i, k] * B[k, j].
        let StmtKind::ReduceTo {
            var: c,
            indices,
            op: ReduceOp::Add,
            value,
            ..
        } = &peel(pk.body).kind
        else {
            return Err(unsup("innermost statement is not `+=`"));
        };
        let is = |e: &Expr, n: &str| matches!(e, Expr::Var(v) if v == n);
        if indices.len() != 2 || !is(&indices[0], pi.iter) || !is(&indices[1], pj.iter) {
            return Err(unsup("accumulator must be C[i, j]"));
        }
        let Expr::Binary {
            op: BinaryOp::Mul,
            a,
            b,
        } = value
        else {
            return Err(unsup("innermost value is not a product"));
        };
        let (
            Expr::Load {
                var: av,
                indices: ai,
            },
            Expr::Load {
                var: bv,
                indices: bi,
            },
        ) = (a.as_ref(), b.as_ref())
        else {
            return Err(unsup("product operands must be loads"));
        };
        if ai.len() != 2
            || bi.len() != 2
            || !is(&ai[0], pi.iter)
            || !is(&ai[1], pk.iter)
            || !is(&bi[0], pk.iter)
            || !is(&bi[1], pj.iter)
        {
            return Err(unsup("operands must be A[i, k] and B[k, j]"));
        }
        // Validate the optional init: C[i, j] = 0.
        if let Some(init) = init {
            let ok = matches!(&init.kind, StmtKind::Store { var, indices, value }
                if var == c && indices.len() == 2
                    && is(&indices[0], pi.iter) && is(&indices[1], pj.iter)
                    && matches!(const_fold_expr(value.clone()),
                        Expr::IntConst(0) | Expr::FloatConst(_)));
            if !ok {
                return Err(unsup("init statement is not `C[i, j] = 0`"));
            }
        }
        // Build the replacement: (init nest if present) + LibCall.
        let mut seq: Vec<Stmt> = Vec::new();
        if init.is_some() {
            seq.push(ft_ir::builder::for_(
                format!("{}.z0", pi.iter),
                0,
                m,
                ft_ir::builder::for_(
                    format!("{}.z1", pj.iter),
                    0,
                    n,
                    ft_ir::builder::store(
                        c.clone(),
                        [
                            ft_ir::builder::var(format!("{}.z0", pi.iter)),
                            ft_ir::builder::var(format!("{}.z1", pj.iter)),
                        ],
                        Expr::FloatConst(0.0),
                    ),
                ),
            ));
        }
        seq.push(Stmt::new(StmtKind::LibCall {
            kernel: "matmul".to_string(),
            inputs: vec![av.clone(), bv.clone()],
            outputs: vec![c.clone()],
            attrs: vec![m, k, n],
        }));
        let replacement = Stmt {
            id: target.id,
            label: target.label.clone(),
            kind: StmtKind::Block(seq),
        };
        self.rewrite(replacement.id, |_| replacement)
    }

    /// Index-set splitting (paper `separate_tail`): a loop whose body is one
    /// `if` on a conjunction of affine comparisons in its own iterator becomes
    /// up to three loops over consecutive ranges — a head running the `else`
    /// arm, a guard-free interior running the `then` arm, and a tail running
    /// the `else` arm again. Without an `else` arm only the interior remains.
    ///
    /// The interior is `[max(begin, lo…), min(end, hi…))`, one `lo` or `hi`
    /// per conjunct (`c·i + r ⋈ 0` bounds `i` from below when `c > 0` and
    /// from above when `c < 0`), so reversed iterators like `(511 - j) +
    /// (64 - k) - 32` split as `j + k - 32` does. Every iteration runs the
    /// arm it ran before, in the same order, so the split needs no
    /// dependence check. Operands of a bound that another provably covers
    /// over the enclosing loops are dropped.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::Unsupported`] when the body is not one `if`, or a
    /// conjunct is not an affine comparison involving the iterator.
    pub fn separate_tail(
        &mut self,
        loop_sel: impl Into<Selector>,
    ) -> Result<Separated, ScheduleError> {
        let sel = loop_sel.into();
        let args = self.tracing().then(|| format!("({sel:?})"));
        let r = self.separate_tail_impl(sel);
        self.record("separate_tail", args, &r);
        r
    }

    fn separate_tail_impl(&mut self, loop_sel: Selector) -> Result<Separated, ScheduleError> {
        let target = self.resolve_ref(loop_sel)?;
        let (id, p) = (target.id, as_for_ref(target)?);
        let unsup = |m: String| ScheduleError::Unsupported(format!("separate_tail: {m}"));
        let StmtKind::If {
            cond, otherwise, ..
        } = &peel(p.body).kind
        else {
            return Err(unsup(format!("the body of `{}` is not one `if`", p.iter)));
        };
        let (lows, highs) = guard_bounds(cond, p.iter).map_err(unsup)?;
        let ctx = outer_bounds(self.func(), id);
        let lo = fold_bound(
            BinaryOp::Max,
            std::iter::once(p.begin.clone()).chain(lows),
            &ctx,
        );
        let hi = fold_bound(
            BinaryOp::Min,
            std::iter::once(p.end.clone()).chain(highs),
            &ctx,
        );
        let head_end = fold_bound(BinaryOp::Min, [lo.clone(), p.end.clone()], &ctx);
        let tail_begin = fold_bound(BinaryOp::Max, [hi.clone(), head_end.clone()], &ctx);
        let mut used = bound_names(self.func());
        // One copy of the `else` arm over `[begin, end)`, under its own
        // iterator and fresh ids; none when there is no `else` or the range
        // is empty by construction.
        let mut else_loop = |piece: &str, begin: Expr, end: Expr| {
            let arm = otherwise.as_deref()?;
            let trip = const_fold_expr(end.clone() - begin.clone()).as_int();
            if begin == end || trip.is_some_and(|t| t <= 0) {
                return None;
            }
            let iter = fresh_name(&format!("{}.{piece}", p.iter), &mut used);
            let body = ft_ir::mutate::subst_var_stmt(refresh_ids(arm.clone()), p.iter, &var(&iter));
            Some(Stmt::new(StmtKind::For {
                iter,
                begin,
                end,
                property: p.property.clone(),
                body: Box::new(body),
            }))
        };
        let head = else_loop("head", p.begin.clone(), head_end);
        let tail = else_loop("tail", tail_begin, p.end.clone());
        let split = Separated {
            head: head.as_ref().map(|s| s.id),
            interior: id,
            tail: tail.as_ref().map(|s| s.id),
        };
        self.rewrite(id, |mut interior| {
            let StmtKind::For {
                begin, end, body, ..
            } = &mut interior.kind
            else {
                unreachable!("checked above")
            };
            let StmtKind::If { then, .. } = peel_into(body.take()).kind else {
                unreachable!("checked above")
            };
            (*begin, *end, *body) = (lo, hi, then);
            let mut pieces: Vec<Stmt> = head.into_iter().chain([interior]).chain(tail).collect();
            match pieces.len() {
                1 => pieces.pop().expect("one piece"),
                _ => Stmt::new(StmtKind::Block(pieces)),
            }
        })?;
        Ok(split)
    }
}

/// The loops [`Schedule::separate_tail`] leaves where one loop was.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Separated {
    /// The `else` arm over the iterations before the interior.
    pub head: Option<StmtId>,
    /// The guard-free `then` arm; it keeps the loop's id and label.
    pub interior: StmtId,
    /// The `else` arm over the iterations after the interior.
    pub tail: Option<StmtId>,
}

/// The lower and upper (exclusive) bounds on `iter` that `cond` places,
/// one per conjunct: each is an affine comparison that becomes
/// `c·iter + r ≥ 0` over integers, that is `iter ≥ ⌈-r / c⌉` when `c > 0`
/// and `iter < ⌊r / -c⌋ + 1` when `c < 0`. `Err` says which conjunct is
/// not of this form.
fn guard_bounds(cond: &Expr, iter: &str) -> Result<(Vec<Expr>, Vec<Expr>), String> {
    let (mut lows, mut highs) = (Vec::new(), Vec::new());
    let mut conjuncts = vec![cond];
    while let Some(e) = conjuncts.pop() {
        let refuse = |why: String| {
            let mut c = String::new();
            let _ = ft_ir::printer::print_expr(&mut c, e);
            Err(format!("guard `{c}` {why}"))
        };
        let Expr::Binary { op, a, b } = e else {
            return refuse("is not a comparison".to_string());
        };
        if *op == BinaryOp::And {
            conjuncts.extend([b.as_ref(), a.as_ref()]);
            continue;
        }
        use BinaryOp::{Eq, Ge, Gt, Le, Lt};
        if !matches!(op, Ge | Gt | Le | Lt | Eq) {
            return refuse("is not an inequality".to_string());
        }
        let (Some(la), Some(lb)) = (to_linexpr(a), to_linexpr(b)) else {
            return refuse("is not affine".to_string());
        };
        let d = la - lb;
        // Every comparison as one or two `e >= 0`.
        let nonneg = match op {
            Ge => vec![d],
            Gt => vec![d - 1],
            Le => vec![-d],
            Lt => vec![-d - 1],
            _ => vec![d.clone(), -d],
        };
        for e in nonneg {
            let k = e.coeff(iter);
            if k == 0 {
                return refuse(format!("does not depend on `{iter}`"));
            }
            let r = e - LinExpr::term(iter, k);
            match k {
                1.. => lows.push(floor_div(-r + (k - 1), k)),
                -1 => highs.push(affine_expr(&(r + 1))),
                _ => highs.push(floor_div(r, -k) + 1),
            }
        }
    }
    Ok((lows, highs))
}

/// `⌊l / k⌋` for `k > 0` (the IR's integer `/` floors).
fn floor_div(l: LinExpr, k: i64) -> Expr {
    let e = affine_expr(&l);
    if k == 1 {
        e
    } else {
        e / k
    }
}

/// `l` as `positive terms - negative terms ± constant`, the way a bound is
/// written by hand (`32 - j`, not `j * -1 + 32`).
fn affine_expr(l: &LinExpr) -> Expr {
    let term = |name: &str, c: i64| if c == 1 { var(name) } else { var(name) * c };
    let (pos, neg): (Vec<_>, Vec<_>) = l.iter_terms().partition(|(_, c)| *c > 0);
    let mut k = l.constant_term();
    // Lead with the positive terms, or with the constant when there are none.
    let mut e = pos
        .into_iter()
        .map(|(n, c)| term(n, c))
        .reduce(|a, b| a + b);
    if e.is_none() && k != 0 {
        e = Some(Expr::IntConst(std::mem::take(&mut k)));
    }
    for (n, c) in neg {
        let t = term(n, -c);
        e = Some(match e {
            Some(acc) => acc - t,
            None => -t,
        });
    }
    let e = e.unwrap_or(Expr::IntConst(0));
    match k {
        0 => e,
        k if k > 0 => e + k,
        k => e - (-k),
    }
}

/// The ranges of the loops around `id` as far as they are affine: a `max`
/// begin contributes its first affine operand and a `min` end its first —
/// a wider range, so what holds over it holds over the loop.
fn outer_bounds(func: &ft_ir::Func, id: StmtId) -> BoundsCtx {
    fn operand(e: &Expr, op: BinaryOp) -> Option<LinExpr> {
        match e {
            Expr::Binary { op: o, a, b } if *o == op => operand(a, op).or_else(|| operand(b, op)),
            e => to_linexpr(e),
        }
    }
    let mut ctx = BoundsCtx::new();
    for l in ft_ir::find::loop_nest_of(&func.body, id).map_or_else(Vec::new, |n| n.loops) {
        let lo = operand(l.begin, BinaryOp::Max);
        if let (Some(lo), Some(hi)) = (lo, operand(l.end, BinaryOp::Min)) {
            ctx.push(l.iter, lo, hi - 1);
        }
    }
    ctx
}

/// Whether `x <= y` wherever the loops of `ctx` run, through nested
/// `min`/`max` down to affine differences (`false`: not proved).
fn provably_le(x: &Expr, y: &Expr, ctx: &BoundsCtx) -> bool {
    use BinaryOp::{Max, Min};
    match (x, y) {
        (Expr::Binary { op: Max, a, b }, _) => provably_le(a, y, ctx) && provably_le(b, y, ctx),
        (Expr::Binary { op: Min, a, b }, _) => provably_le(a, y, ctx) || provably_le(b, y, ctx),
        (_, Expr::Binary { op: Min, a, b }) => provably_le(x, a, ctx) && provably_le(x, b, ctx),
        (_, Expr::Binary { op: Max, a, b }) => provably_le(x, a, ctx) || provably_le(x, b, ctx),
        _ => const_bounds(&(x.clone() - y.clone()), ctx).is_some_and(|(_, hi)| hi <= 0),
    }
}

/// `op` (`Min` or `Max`) over `operands`, dropping every operand another
/// one provably covers.
fn fold_bound(op: BinaryOp, operands: impl IntoIterator<Item = Expr>, ctx: &BoundsCtx) -> Expr {
    // Whether `x` makes `y` redundant.
    let covers = |x: &Expr, y: &Expr| match op {
        BinaryOp::Max => provably_le(y, x, ctx),
        _ => provably_le(x, y, ctx),
    };
    let mut kept: Vec<Expr> = Vec::new();
    for x in operands.into_iter().map(const_fold_expr) {
        if !kept.iter().any(|k| covers(k, &x)) {
            kept.retain(|k| !covers(&x, k));
            kept.push(x);
        }
    }
    let folded = kept.into_iter().reduce(|a, b| Expr::binary(op, a, b));
    const_fold_expr(folded.expect("a bound has at least one operand"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::mutate::subst_var_stmt;
    use ft_ir::prelude::*;
    use ft_runtime::{ExecutionEngine, Runtime};
    use std::collections::HashMap;

    const J: i64 = 9;
    const L: i64 = 7;

    /// `for j: for k: if guard: y[j, k] += 1 [else: y[j, k] += 10]` — an arm
    /// that runs twice, or not at all, shows in `y`.
    fn guarded(guard: &Expr, with_else: bool) -> Func {
        let hit = |v: f32| reduce("y", [var("j"), var("k")], ReduceOp::Add, v);
        let body = match with_else {
            true => if_else(guard.clone(), hit(1.0), hit(10.0)),
            false => if_(guard.clone(), hit(1.0)),
        };
        Func::new("guarded")
            .param("y", [J, L], DataType::F32, AccessType::Output)
            .body(for_("j", 0, J, for_("k", 0, L, body)))
    }

    fn holds(guard: &Expr, j: i64, k: i64) -> bool {
        let s = subst_var_stmt(if_(guard.clone(), empty()), "j", &Expr::IntConst(j));
        let StmtKind::If { cond, .. } = subst_var_stmt(s, "k", &Expr::IntConst(k)).kind else {
            unreachable!("an `if` stays an `if`")
        };
        const_fold_expr(cond).as_bool().expect("a constant guard")
    }

    fn split_k(f: &Func) -> (Func, Separated) {
        let mut s = Schedule::new(f.clone());
        let pieces = s.separate_tail("k").unwrap_or_else(|e| panic!("{e}\n{f}"));
        (s.into_func(), pieces)
    }

    fn ifs_in(s: &Stmt) -> usize {
        let mut n = 0;
        s.walk(&mut |st| n += usize::from(matches!(st.kind, StmtKind::If { .. })));
        n
    }

    #[test]
    fn the_split_runs_each_arm_where_the_guard_says() {
        let (j, k) = (var("j"), var("k"));
        let reversed =
            (Expr::IntConst(J - 1) - j.clone()) + (Expr::IntConst(L - 1) - k.clone()) - 3;
        let guards = [
            // Longformer's window, and the same guard over reversed iterators.
            (j.clone() + k.clone() - 3)
                .ge(0)
                .and((j.clone() + k.clone() - 3).lt(J)),
            reversed.clone().ge(0).and(reversed.lt(J)),
            // Coefficients other than ±1 round toward the guard.
            (k.clone() * 2 - j.clone())
                .gt(1)
                .and((k.clone() * 3).le(j.clone() + 7)),
            (j.clone() - k.clone() * 2).ge(-4),
            k.clone().eq(j.clone() - 1),
            // Empty interiors: for every `j`, or for some.
            k.clone().ge(j.clone() + 3).and(k.clone().lt(j.clone())),
            k.clone().gt(5).and(k.clone().lt(3)),
            k.clone().ge(j.clone()).and(k.clone().lt(4)),
        ];
        for guard in &guards {
            for with_else in [true, false] {
                let f = guarded(guard, with_else);
                let (split, pieces) = split_k(&f);
                let want: Vec<f64> = (0..J)
                    .flat_map(|j| (0..L).map(move |k| (j, k)))
                    .map(|(j, k)| match (holds(guard, j, k), with_else) {
                        (true, _) => 1.0,
                        (false, true) => 10.0,
                        (false, false) => 0.0,
                    })
                    .collect();
                let run = |f: &Func| {
                    let r = Runtime::new().run(f, &HashMap::new(), &HashMap::new());
                    r.expect("runs").output("y").to_f64_vec()
                };
                assert_eq!(run(&split), want, "{split}");
                assert_eq!(ifs_in(&split.body), 0, "{split}");
                assert!(
                    with_else || pieces.head.is_none() && pieces.tail.is_none(),
                    "{split}"
                );
                let interior = ft_ir::find::find_by_id(&split.body, pieces.interior);
                assert!(
                    matches!(interior, Some(s) if s.label == f.body.label),
                    "{split}"
                );
            }
        }
    }

    #[test]
    fn bounds_read_as_written_and_drop_what_the_loops_cover() {
        let (j, k) = (var("j"), var("k"));
        let window = (j.clone() + k.clone() - 3)
            .ge(0)
            .and((j.clone() + k - 3).lt(J));
        let (split, _) = split_k(&guarded(&window, true));
        let text = split.to_string();
        // `0 <= 3 - j` is not known for every `j`, `0 <= max(0, 3 - j) <= L` is.
        assert!(
            text.contains("for k.head in range(0, max(0, 3 - j))"),
            "{text}"
        );
        assert!(
            text.contains("for k in range(max(0, 3 - j), min(7, 12 - j))"),
            "{text}"
        );
        assert!(
            text.contains("for k.tail in range(min(7, 12 - j), 7)"),
            "{text}"
        );
        // A guard that holds on the whole range leaves the loop as it was.
        let (whole, pieces) = split_k(&guarded(&var("k").lt(L + 5), true));
        assert_eq!((pieces.head, pieces.tail), (None, None), "{whole}");
        assert!(
            whole.to_string().contains("for k in range(0, 7)"),
            "{whole}"
        );
    }

    #[test]
    fn guards_it_cannot_split_are_refused_with_the_reason_logged() {
        let sink = ft_trace::TraceSink::new();
        let indirect = Func::new("indirect")
            .param("x", [L], DataType::F32, AccessType::Input)
            .param("y", [J, L], DataType::F32, AccessType::Output)
            .body(for_(
                "j",
                0,
                J,
                for_(
                    "k",
                    0,
                    L,
                    if_(
                        load("x", [var("k")]).gt(0.0f32),
                        store("y", [var("j"), var("k")], 1.0f32),
                    ),
                ),
            ));
        let cases = [
            (indirect, "is not affine"),
            (guarded(&(var("j") * var("k")).lt(5), true), "is not affine"),
            (guarded(&var("j").lt(3), true), "does not depend on `k`"),
            (guarded(&var("k").ne(3), true), "is not an inequality"),
            (
                guarded(&var("k").lt(3).or(var("k").gt(5)), true),
                "is not an inequality",
            ),
        ];
        for (f, why) in cases {
            let mut s = Schedule::new(f.clone());
            s.set_sink(Some(sink.clone()));
            let e = s.separate_tail("k").expect_err("refused");
            assert!(e.to_string().contains(why), "{e}");
            assert_eq!(
                s.func().to_string(),
                f.to_string(),
                "refused means untouched"
            );
            let last = sink.decisions().pop().expect("logged");
            assert_eq!(last.primitive, "separate_tail");
            assert!(
                last.reason.as_deref().is_some_and(|r| r.contains(why)),
                "{last:?}"
            );
        }
        let mut s = Schedule::new(guarded(&var("k").lt(3), true));
        assert!(s
            .separate_tail("j")
            .unwrap_err()
            .to_string()
            .contains("not one `if`"));
    }
}
