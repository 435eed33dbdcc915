//! Scalar-code decisions of the C emitter: what leaves a loop, what is
//! computed once, what lives in a register.
//!
//! The paper's speedups are fewer redundant operations in the generated
//! OpenMP code (§4.3), and the backend compiler cannot find them for us:
//! every tensor is a plain pointer that may alias every other, the body of
//! an `omp parallel for` is outlined, and `exp` may set `errno`. So the
//! decisions are made here, on the IR, where a tensor is a name — and
//! handed to [`c`](crate::c) as a list of [`Event`]s keyed by the pre-order
//! number of the statement they apply to. The IR itself is not rewritten:
//! the engine re-emits the unit on every warm call to find its cache key,
//! and cloning a function costs more than this whole analysis.
//!
//! * **Hoisting.** A maximal subexpression of a statement directly in loop
//!   `L` that may leave `L` by the rule of [`ft_passes::hoist`] (shared with
//!   the values `ft-autodiff` names before differentiating) and contains a
//!   load, a division or a math call is evaluated once in front of `L` —
//!   one level at a time.
//! * **Reuse.** Within a run of consecutive `Store`/`ReduceTo` statements,
//!   a load, division or math call that occurs again before anything it
//!   loads is written is computed once, in front of its first use. (The
//!   arithmetic in between needs no help: on `const` locals the backend
//!   compiler's own CSE sees it.)
//! * **Accumulators.** In an innermost serial or `vectorize` loop, an
//!   unconditional `X[idx] op= v` with loop-invariant `idx`, `X` touched by
//!   nothing else in the loop, accumulates in a local. `+`/`*` locals go
//!   into the loop's `simd reduction` clause; a `vectorize` loop left with
//!   a carried reduction (`min`/`max`, whose NaN rule is not the clause's,
//!   or a target the rule above refused) loses its pragma rather than
//!   carry a `simd` promise it breaks. A tensor bound inside the loop's
//!   body is private to one iteration: a reduction into it (`ad.t1.grad`
//!   of a named value's adjoint) is neither an accumulator nor carried.

use ft_ir::{BinaryOp, Expr, Fnv1a, ReduceOp, Stmt, StmtKind, UnaryOp};
use ft_passes::hoist::{self, any_node, certainly_runs, is_leaf, operands, LoopNames, Scope};

/// One decision, for the statement whose pre-order number is `at`.
#[derive(Debug)]
pub(crate) struct Event<'a> {
    pub at: u32,
    pub kind: Kind<'a>,
}

#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind<'a> {
    /// `const T t = expr;` in front of loop `at` (and of its pragma), live
    /// until the loop ends.
    Hoist(&'a Expr),
    /// `const T t = expr;` in front of statement `at`, live through
    /// statement `last`.
    Reuse { expr: &'a Expr, last: u32 },
    /// Loop `at` keeps `var[indices]` in a local: loaded in front of the
    /// loop, the target of every `var[indices] op= v` inside, stored after.
    Accum {
        var: &'a str,
        indices: &'a [Expr],
        op: ReduceOp,
    },
    /// Loop `at` is marked `vectorize` but carries a reduction.
    NoSimd,
}

/// The decisions for `body`, sorted by statement.
pub(crate) fn analyze(body: &Stmt) -> Vec<Event<'_>> {
    let mut a = Analyzer {
        names: LoopNames::of(body),
        ..Analyzer::default()
    };
    a.visit(body, None, false);
    a.events.sort_by_key(|e| e.at);
    a.events
}

/// An enclosing loop, as seen from a statement inside it.
#[derive(Debug, Clone, Copy)]
struct Loop {
    scope: Scope,
    /// Runs a constant, positive number of times.
    hoistable: bool,
    /// Where this loop's candidates start in [`Analyzer::hoists`].
    h0: usize,
}

/// `var[indices] op= …` kept in a local.
type Acc<'a> = (&'a str, &'a [Expr], ReduceOp);

/// A load, division or math call seen in the current run of assignments.
#[derive(Debug)]
struct Seen<'a> {
    expr: &'a Expr,
    /// [`fingerprint`] of `expr`: an unrolled body is a run of dozens of
    /// loads that differ in the last term of an index, and each is looked
    /// up among all the others, and again whenever a tensor is written.
    hash: u64,
    loads: u64,
    /// 0 once a write to a tensor it loads closed the entry.
    count: u32,
    first: u32,
    last: u32,
}

#[derive(Debug, Default)]
struct Analyzer<'a> {
    /// What each loop binds or writes.
    names: LoopNames<'a>,
    next_loop: usize,
    next_stmt: u32,
    events: Vec<Event<'a>>,
    /// Hoisting candidates of the enclosing loops, innermost last. All of
    /// them will be temporaries that are live at the statement being
    /// visited, whichever loop they end up in front of.
    hoists: Vec<&'a Expr>,
    seen: Vec<Seen<'a>>,
}

fn is_assign(s: &Stmt) -> bool {
    matches!(s.kind, StmtKind::Store { .. } | StmtKind::ReduceTo { .. })
}

/// Whether evaluating `e` itself (not its operands) is worth a temporary.
fn costly(e: &Expr) -> bool {
    match e {
        Expr::Load { .. } => true,
        Expr::Unary { op, .. } => matches!(
            op,
            UnaryOp::Sqrt | UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Sigmoid | UnaryOp::Tanh
        ),
        Expr::Binary { op, .. } => matches!(op, BinaryOp::Div | BinaryOp::Mod | BinaryOp::Pow),
        _ => false,
    }
}

fn loads(e: &Expr, var: &str) -> bool {
    any_node(
        e,
        &mut |n| matches!(n, Expr::Load { var: v, .. } if v == var),
    )
}

fn mentions(e: &Expr, iter: &str) -> bool {
    any_node(e, &mut |n| matches!(n, Expr::Var(v) if v == iter))
}

/// The bit of tensor `name` in a set of tensors folded into 64 bits.
fn tensor_bit(name: &str) -> u64 {
    1 << (ft_ir::fnv1a(name.as_bytes()) & 63)
}

/// Feed the structure of `e` to `h`, and the tensors it loads to `loads`.
fn fingerprint(e: &Expr, h: &mut Fnv1a, loads: &mut u64) {
    match e {
        Expr::IntConst(v) => {
            h.write(&[0]);
            h.write(&v.to_le_bytes());
        }
        Expr::FloatConst(v) => {
            h.write(&[1]);
            h.write(&v.to_bits().to_le_bytes());
        }
        Expr::BoolConst(v) => h.write(&[2, u8::from(*v)]),
        Expr::Var(n) => {
            h.write(&[3]);
            h.write(n.as_bytes());
        }
        Expr::Load { var, indices } => {
            h.write(&[4, indices.len() as u8]);
            h.write(var.as_bytes());
            *loads |= tensor_bit(var);
            indices.iter().for_each(|i| fingerprint(i, h, loads));
        }
        Expr::Unary { op, a } => {
            h.write(&[5, *op as u8]);
            fingerprint(a, h, loads);
        }
        Expr::Binary { op, a, b } => {
            h.write(&[6, *op as u8]);
            fingerprint(a, h, loads);
            fingerprint(b, h, loads);
        }
        Expr::Select {
            cond,
            then,
            otherwise,
        } => {
            h.write(&[7]);
            fingerprint(cond, h, loads);
            fingerprint(then, h, loads);
            fingerprint(otherwise, h, loads);
        }
        Expr::Cast { dtype, a } => {
            h.write(&[8, *dtype as u8]);
            fingerprint(a, h, loads);
        }
    }
}

/// Whether two index lists certainly address different elements.
fn distinct(a: &[Expr], b: &[Expr]) -> bool {
    a.iter()
        .zip(b)
        .any(|(x, y)| matches!((x, y), (Expr::IntConst(p), Expr::IntConst(q)) if p != q))
}

/// Whether `s` reads `var`, or writes it other than through `ok`.
fn touches<'a>(
    s: &'a Stmt,
    var: &str,
    guarded: bool,
    ok: &mut impl FnMut(&'a [Expr], ReduceOp, bool) -> bool,
) -> bool {
    let reads = |es: &[Expr]| es.iter().any(|e| loads(e, var));
    match &s.kind {
        StmtKind::Block(v) => v.iter().any(|c| touches(c, var, guarded, ok)),
        StmtKind::VarDef {
            name, shape, body, ..
        } => name == var || reads(shape) || touches(body, var, guarded, ok),
        StmtKind::For {
            begin, end, body, ..
        } => loads(begin, var) || loads(end, var) || touches(body, var, true, ok),
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => {
            loads(cond, var)
                || touches(then, var, true, ok)
                || otherwise
                    .as_ref()
                    .is_some_and(|o| touches(o, var, true, ok))
        }
        StmtKind::Store {
            var: x,
            indices,
            value,
        } => x == var || reads(indices) || loads(value, var),
        StmtKind::ReduceTo {
            var: x,
            indices,
            op,
            value,
            atomic,
        } => {
            reads(indices)
                || loads(value, var)
                || (x == var && !ok(indices, *op, guarded || *atomic))
        }
        StmtKind::LibCall {
            inputs, outputs, ..
        } => inputs.iter().chain(outputs).any(|n| n == var),
        StmtKind::Empty => false,
    }
}

impl<'a> Analyzer<'a> {
    /// Whether `e` means the same thing everywhere in `lp` and before it.
    fn invariant(&self, e: &Expr, lp: &Loop) -> bool {
        hoist::invariant(e, &|n| self.names.varies(lp.scope, n))
    }

    /// Make candidates of the maximal subexpressions of `e` that may leave
    /// `lp` and contain something [`costly`], `e` itself included.
    fn scan(&mut self, e: &'a Expr, lp: &Loop) {
        let names = &self.names;
        let varies = |n: &str| names.varies(lp.scope, n);
        hoist::scan(e, &varies, &costly, &mut self.hoists, lp.h0);
    }

    /// Count the costly subexpressions of `e`, part of assignment `at`,
    /// that are evaluated whenever `e` is. A repeat is not looked into: its
    /// operands will be evaluated once, with it.
    fn count(&mut self, e: &'a Expr, at: u32) {
        if is_leaf(e) {
            return;
        }
        if self.hoists.contains(&e) {
            return;
        }
        let costly = costly(e);
        let (mut h, mut loads) = (Fnv1a::new(), 0);
        if costly {
            fingerprint(e, &mut h, &mut loads);
            let repeat = |s: &&mut Seen| s.count > 0 && s.hash == h.finish() && s.expr == e;
            if let Some(s) = self.seen.iter_mut().find(repeat) {
                s.count += 1;
                s.last = at;
                return;
            }
        }
        let (idx, sure, _) = operands(e);
        for c in idx.iter().chain(sure.into_iter().flatten()) {
            self.count(c, at);
        }
        if costly {
            self.seen.push(Seen {
                expr: e,
                hash: h.finish(),
                loads,
                count: 1,
                first: at,
                last: at,
            });
        }
    }

    /// One assignment of a run.
    fn assign(&mut self, s: &'a Stmt) {
        let at = self.next_stmt;
        self.next_stmt += 1;
        let (StmtKind::Store {
            var,
            indices,
            value,
        }
        | StmtKind::ReduceTo {
            var,
            indices,
            value,
            ..
        }) = &s.kind
        else {
            unreachable!("assign is called on Store and ReduceTo only")
        };
        for e in indices.iter().chain([value]) {
            self.count(e, at);
        }
        // What loads `var` has a new value from here on.
        let bit = tensor_bit(var);
        for i in 0..self.seen.len() {
            let s = &self.seen[i];
            if s.count > 0 && s.loads & bit != 0 && loads(s.expr, var) {
                self.close(i);
            }
        }
    }

    fn close(&mut self, i: usize) {
        let s = &mut self.seen[i];
        if s.count > 1 {
            self.events.push(Event {
                at: s.first,
                kind: Kind::Reuse {
                    expr: s.expr,
                    last: s.last,
                },
            });
        }
        s.count = 0;
    }

    fn end_run(&mut self) {
        (0..self.seen.len()).for_each(|i| self.close(i));
        self.seen.clear();
    }

    /// Second pass. `lp` is the innermost enclosing loop, `guarded` whether
    /// an `If` sits between it and `s`.
    fn visit(&mut self, s: &'a Stmt, lp: Option<&Loop>, guarded: bool) {
        if is_assign(s) {
            self.assign(s);
            return self.end_run();
        }
        let at = self.next_stmt;
        self.next_stmt += 1;
        match &s.kind {
            StmtKind::Block(v) => {
                for c in v {
                    if is_assign(c) {
                        self.assign(c);
                    } else {
                        self.end_run();
                        self.visit(c, lp, guarded);
                    }
                }
                self.end_run();
            }
            StmtKind::VarDef { body, .. } => self.visit(body, lp, guarded),
            StmtKind::If {
                then, otherwise, ..
            } => {
                self.visit(then, lp, true);
                if let Some(o) = otherwise {
                    self.visit(o, lp, true);
                }
            }
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                let scope = self.names.scope(self.next_loop);
                self.next_loop += 1;
                let me = Loop {
                    scope,
                    hoistable: certainly_runs(begin, end),
                    h0: self.hoists.len(),
                };
                if me.hoistable {
                    hoist::direct_assignments(body, &mut |indices, value| {
                        for e in indices.iter().chain([value]) {
                            self.scan(e, &me);
                        }
                    });
                }
                self.visit(body, Some(&me), false);
                // Each candidate goes one loop further out where it may,
                // and in front of this loop where it may not — then what
                // is invariant *inside* it gets its chance further out.
                let up = lp.filter(|p| p.hoistable && !guarded);
                let e0 = self.events.len();
                let mut keep = me.h0;
                for i in me.h0..self.hoists.len() {
                    let e = self.hoists[i];
                    match up {
                        Some(p) if self.invariant(e, p) => {
                            if !self.hoists[p.h0..keep].contains(&e) {
                                self.hoists[keep] = e;
                                keep += 1;
                            }
                        }
                        _ => self.events.push(Event {
                            at,
                            kind: Kind::Hoist(e),
                        }),
                    }
                }
                self.hoists.truncate(keep);
                if let Some(p) = up {
                    for i in e0..self.events.len() {
                        if let Kind::Hoist(e) = self.events[i].kind {
                            self.scan(e, p);
                        }
                    }
                }
                if scope.innermost && !property.parallel.is_parallel() {
                    self.accumulate(at, iter, body, &me, property.vectorize);
                } else if property.vectorize && carried(body, iter, &[], &mut Vec::new()) {
                    self.events.push(Event {
                        at,
                        kind: Kind::NoSimd,
                    });
                }
            }
            StmtKind::Store { .. } | StmtKind::ReduceTo { .. } => unreachable!("handled above"),
            StmtKind::LibCall { .. } | StmtKind::Empty => {}
        }
    }

    /// Accumulators of innermost loop `at` over `iter`.
    fn accumulate(&mut self, at: u32, iter: &str, body: &'a Stmt, me: &Loop, vectorize: bool) {
        let mut accs: Vec<Acc<'a>> = Vec::new();
        self.reductions(body, me, &mut Vec::new(), &mut accs);
        let mut k = 0;
        while k < accs.len() {
            let var = accs[k].0;
            if k > 0 && accs[k - 1].0 == var {
                // Cleared together with the accumulator before it.
                k += 1;
                continue;
            }
            // Nothing in the loop may read `var`, and every write of it
            // must be one of its accumulators or certainly another element
            // than all of them.
            let alone = !touches(body, var, false, &mut |idx, op, guarded| {
                accs.iter()
                    .filter(|a| a.0 == var)
                    .all(|a| (a.1 == idx && a.2 == op && !guarded) || distinct(a.1, idx))
            });
            if alone {
                k += 1;
            } else {
                // The first of `var`'s accumulators is the one at `k`.
                accs.retain(|a| a.0 != var);
            }
        }
        if vectorize && carried(body, iter, &accs, &mut Vec::new()) {
            self.events.push(Event {
                at,
                kind: Kind::NoSimd,
            });
        }
        self.events
            .extend(accs.into_iter().map(|(var, indices, op)| Event {
                at,
                kind: Kind::Accum { var, indices, op },
            }));
    }

    /// The distinct unconditional, non-atomic reductions directly in `me`
    /// whose target element is the same in every iteration, into tensors
    /// bound outside the body (`locals`, innermost last, are the others).
    fn reductions(
        &self,
        s: &'a Stmt,
        me: &Loop,
        locals: &mut Vec<&'a str>,
        out: &mut Vec<Acc<'a>>,
    ) {
        match &s.kind {
            StmtKind::Block(v) => v.iter().for_each(|c| self.reductions(c, me, locals, out)),
            StmtKind::VarDef { name, body, .. } => {
                locals.push(name);
                self.reductions(body, me, locals, out);
                locals.pop();
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                atomic: false,
                ..
            } if !locals.contains(&var.as_str())
                && indices.iter().all(|e| self.invariant(e, me))
                && !out.iter().any(|a| a.0 == var && a.1 == indices.as_slice()) =>
            {
                out.push((var, indices, *op));
            }
            _ => {}
        }
    }
}

/// Whether the loop over `iter` with body `s` folds into one element from
/// more than one iteration, other than through the `+`/`*` accumulators
/// among `accs` (a `simd reduction` clause covers those). A tensor bound in
/// the body (`locals`, innermost last) is private to its iteration.
fn carried<'a>(s: &'a Stmt, iter: &str, accs: &[Acc<'_>], locals: &mut Vec<&'a str>) -> bool {
    match &s.kind {
        StmtKind::ReduceTo {
            var, indices, op, ..
        } => {
            let in_clause = matches!(op, ReduceOp::Add | ReduceOp::Mul)
                && accs.iter().any(|a| a.0 == var && a.1 == indices.as_slice());
            !in_clause
                && !locals.contains(&var.as_str())
                && !indices.iter().any(|e| mentions(e, iter))
        }
        StmtKind::Block(v) => v.iter().any(|c| carried(c, iter, accs, locals)),
        StmtKind::VarDef { name, body, .. } => {
            locals.push(name);
            let carries = carried(body, iter, accs, locals);
            locals.pop();
            carries
        }
        StmtKind::For { body, .. } => carried(body, iter, accs, locals),
        StmtKind::If {
            then, otherwise, ..
        } => {
            carried(then, iter, accs, locals)
                || otherwise
                    .as_ref()
                    .is_some_and(|o| carried(o, iter, accs, locals))
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    /// What [`analyze`] decides for `for p in 0..64` (`vectorize`) over
    /// `body`: `(NoSimd, accumulator targets)`.
    fn loop_decisions(body: Stmt) -> (bool, Vec<String>) {
        let simd = ForProperty {
            vectorize: true,
            ..ForProperty::default()
        };
        let root = for_with("p", 0, 64, simd, body);
        let (mut no_simd, mut accs) = (false, Vec::new());
        for e in analyze(&root).into_iter().filter(|e| e.at == 0) {
            match e.kind {
                Kind::NoSimd => no_simd = true,
                Kind::Accum { var, .. } => accs.push(var.to_string()),
                _ => {}
            }
        }
        (no_simd, accs)
    }

    /// `g[] += x[p]; g[] += x[p] * x[p]; t[0] += g[]`.
    fn fold_through_g() -> Stmt {
        block([
            reduce("g", scalar(), ReduceOp::Add, load("x", [var("p")])),
            reduce(
                "g",
                scalar(),
                ReduceOp::Add,
                load("x", [var("p")]) * load("x", [var("p")]),
            ),
            reduce("t", [0], ReduceOp::Add, load("g", scalar())),
        ])
    }

    #[test]
    fn a_reduction_into_a_body_local_def_is_private_to_the_iteration() {
        let g = |body| var_def("g", scalar(), DataType::F32, MemType::CpuStack, body);
        // Bound in the body: `g` starts from zero every iteration, so the
        // loop keeps its pragma, and only `t` is an accumulator.
        assert_eq!(
            loop_decisions(g(fold_through_g())),
            (false, vec!["t".to_string()])
        );
        // The same folds into a `g` bound outside the loop carry it.
        assert!(loop_decisions(fold_through_g()).0);
    }
}
