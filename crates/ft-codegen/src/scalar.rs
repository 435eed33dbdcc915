//! The scalar lowering both back ends run: what leaves a loop, what is
//! computed once, what lives in a register — decided once, on the IR, and
//! written into it.
//!
//! The paper's speedups are fewer redundant operations in the generated
//! OpenMP code (§4.3), and the backend compiler cannot find them for us:
//! every tensor is a plain pointer that may alias every other, and the
//! body of an `omp parallel for` is outlined. So [`lower_scalar`] decides
//! on the IR, where a tensor is a name, and spells each decision as a 0-d
//! `CpuStack` `VarDef` — a register, which the C printer declares as a
//! scalar local and the VM keeps in a machine register. It runs once per
//! prepare, in [`lower_and_plan`](crate::lower_and_plan), whose function
//! [`emit_c_traced`](crate::emit_c_traced) prints too.
//!
//! * **Hoisting.** A maximal subexpression of a statement directly in loop
//!   `L` that may leave `L` by the rule of [`ft_passes::hoist`] (shared with
//!   the values `ft-autodiff` names before differentiating) and contains a
//!   load, a division or a math call is stored once into a register in
//!   front of `L` — one level at a time.
//! * **Reuse.** Within a run of consecutive `Store`/`ReduceTo` statements,
//!   a load, division or math call that occurs again before anything it
//!   loads is written is stored into a register in front of its first use.
//!   (The arithmetic in between needs no help: on `const` locals the
//!   backend compiler's own CSE sees it.)
//! * **Accumulators.** In an innermost serial or `vectorize` loop, an
//!   unconditional `X[idx] op= v` with loop-invariant `idx`, `X` touched by
//!   nothing else in the loop, accumulates in a register: loaded in front
//!   of the loop, written back after it, both under `begin < end` when the
//!   loop may not run. A target that is already a register needs none. A
//!   `+`/`*` register goes into the loop's `simd reduction` clause; a
//!   `vectorize` loop left with a carried reduction (`min`/`max`, whose NaN
//!   rule is not the clause's, or a target the rule above refused) loses
//!   its mark rather than carry a `simd` promise it breaks, and so does a
//!   `vectorize` loop with a parallel loop inside (OpenMP admits no
//!   parallel region in a `simd` loop; the inner loop keeps its threads,
//!   which the schedule asked for too). A tensor bound
//!   inside the loop's body is private to one iteration: a reduction into
//!   it (`ad.t1.grad` of a named value's adjoint) is neither an accumulator
//!   nor carried.
//!
//! A register is a rounding point for the interpreter, which computes
//! `f32` arithmetic in `f64` and rounds on a store. So a hoisted or reused
//! value is one the interpreter reads back bit for bit from a register of
//! its type: a load or a cast, or any `f64`, `i64` or `bool` value. An
//! `f32` value with an operator in it is not named whole; the loads in it
//! are. The pass is invisible to the reference semantics.

use ft_ir::mutate::{bound_names, mutate_expr_walk, Mutator};
use ft_ir::{builder, BinaryOp, DataType, Expr, Func, MemType, ReduceOp, Stmt, StmtKind, UnaryOp};
use ft_passes::hoist::{self, certainly_runs, is_leaf, operands, LoopNames, Scope};
use std::borrow::Cow;
use std::collections::HashSet;

/// `func` with its scalar-code decisions written in, or `func` itself when
/// there are none.
pub fn lower_scalar(func: &Func) -> Cow<'_, Func> {
    let mut a = Lowering {
        names: LoopNames::of(&func.body),
        used: bound_names(func),
        tensors: func
            .params
            .iter()
            .map(|p| (p.name.as_str(), p.dtype, false))
            .collect(),
        ..Lowering::default()
    };
    let body = a.visit(&func.body, None, false);
    if !a.changed {
        return Cow::Borrowed(func);
    }
    Cow::Owned(Func {
        name: func.name.clone(),
        params: func.params.clone(),
        size_params: func.size_params.clone(),
        body,
    })
}

/// An enclosing loop, as seen from a statement inside it.
#[derive(Debug, Clone, Copy)]
struct Loop {
    scope: Scope,
    /// Runs a constant, positive number of times.
    hoistable: bool,
    /// Where this loop's candidates start in [`Lowering::hoists`].
    h0: usize,
}

/// `var[indices] op= …` kept in a register: the register's name, `None`
/// when `var` is one already.
#[derive(Debug)]
struct Acc<'a> {
    var: &'a str,
    indices: &'a [Expr],
    op: ReduceOp,
    reg: Option<String>,
}

/// A load, division or math call seen in the current run of assignments.
#[derive(Debug, Clone)]
struct Seen<'a> {
    expr: &'a Expr,
    /// 0 once a write to a tensor it loads closed the entry.
    count: u32,
    /// Positions in the run of its first and last use.
    first: usize,
    last: usize,
}

#[derive(Debug, Default)]
struct Lowering<'a> {
    /// What each loop binds or writes.
    names: LoopNames<'a>,
    next_loop: usize,
    /// Hoisting candidates of the enclosing loops, innermost last.
    hoists: Vec<&'a Expr>,
    seen: Vec<Seen<'a>>,
    /// The entries of `seen` used more than once: each is computed once.
    reuses: Vec<Seen<'a>>,
    /// The accumulators of the innermost loop being rewritten.
    accs: Vec<Acc<'a>>,
    /// Tensors in scope, innermost last: name, element type, register.
    tensors: Vec<(&'a str, DataType, bool)>,
    /// Every name of the function, and the registers made so far.
    used: HashSet<Cow<'a, str>>,
    next_reg: usize,
    changed: bool,
}

/// Whether evaluating `e` itself (not its operands) is worth a register,
/// `tensors` in scope: a load is, unless it reads a register.
fn costly(tensors: &[(&str, DataType, bool)], e: &Expr) -> bool {
    match e {
        Expr::Load { var, .. } => !tensors
            .iter()
            .rev()
            .find(|t| t.0 == var)
            .is_some_and(|t| t.2),
        Expr::Unary { op, .. } => matches!(
            op,
            UnaryOp::Sqrt | UnaryOp::Exp | UnaryOp::Ln | UnaryOp::Sigmoid | UnaryOp::Tanh
        ),
        Expr::Binary { op, .. } => matches!(op, BinaryOp::Div | BinaryOp::Mod | BinaryOp::Pow),
        _ => false,
    }
}

fn loads(e: &Expr, var: &str) -> bool {
    e.any(&mut |n| matches!(n, Expr::Load { var: v, .. } if v == var))
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

/// Replaces every occurrence of a named value, outermost first, by a read
/// of its register.
struct UseRegisters<'r, 'a>(&'r [(&'a Expr, String)]);

impl Mutator for UseRegisters<'_, '_> {
    fn mutate_expr(&mut self, e: Expr) -> Expr {
        if is_leaf(&e) {
            return e;
        }
        match self.0.iter().find(|(v, _)| **v == e) {
            Some((_, reg)) => builder::load(reg.as_str(), builder::scalar()),
            None => mutate_expr_walk(self, e),
        }
    }
}

/// `VarDef reg { reg = value; body }`, a register of `dtype`.
fn register(reg: &str, dtype: DataType, value: Expr, body: Vec<Stmt>) -> Stmt {
    let mut stmts = vec![builder::store(reg, builder::scalar(), value)];
    stmts.extend(body);
    builder::var_def(
        reg,
        builder::scalar(),
        dtype,
        MemType::CpuStack,
        builder::block(stmts),
    )
}

impl<'a> Lowering<'a> {
    fn elem(&self, name: &str) -> DataType {
        let t = self.tensors.iter().rev().find(|t| t.0 == name);
        t.map_or(DataType::I64, |t| t.1)
    }

    fn dtype(&self, e: &Expr) -> DataType {
        e.dtype(&|n| self.elem(n)).dtype
    }

    /// Whether the interpreter reads `e` back bit for bit from a register
    /// of its type: the storage of an `f32` or `i32` rounds or wraps what
    /// the interpreter computes in `f64` or `i64`. Literals fold anyway.
    fn exact(&self, e: &Expr) -> bool {
        let t = e.dtype(&|n| self.elem(n));
        !t.weak
            && match t.dtype {
                DataType::F64 | DataType::I64 | DataType::Bool => true,
                DataType::F32 | DataType::I32 => {
                    matches!(e, Expr::Load { .. } | Expr::Cast { .. })
                }
            }
    }

    /// A register name no other name of the function has.
    fn fresh(&mut self, kind: char) -> String {
        loop {
            self.next_reg += 1;
            let name = format!("ft.{kind}{}", self.next_reg);
            if self.used.insert(Cow::Owned(name.clone())) {
                return name;
            }
        }
    }

    /// Whether `e` means the same thing everywhere in `lp` and before it.
    fn invariant(&self, e: &Expr, lp: &Loop) -> bool {
        hoist::invariant(e, &|n| self.names.varies(lp.scope, n))
    }

    /// Make candidates of the maximal subexpressions of `e` that may leave
    /// `lp` and contain something [`costly`], `e` itself included; one the
    /// interpreter would round in a register gives way to its operands.
    fn scan(&mut self, e: &'a Expr, lp: &Loop) {
        let (names, tensors) = (&self.names, &self.tensors);
        let varies = |n: &str| names.varies(lp.scope, n);
        let costly = |e: &Expr| costly(tensors, e);
        let mut i = self.hoists.len();
        hoist::scan(e, &varies, &costly, &mut self.hoists, lp.h0);
        while i < self.hoists.len() {
            let c = self.hoists[i];
            if self.exact(c) {
                i += 1;
                continue;
            }
            self.hoists.remove(i);
            let len = self.hoists.len();
            let (idx, sure, _) = operands(c);
            for o in idx.iter().chain(sure.into_iter().flatten()) {
                hoist::scan(o, &varies, &costly, &mut self.hoists, lp.h0);
            }
            // In its place, so the order of the candidates stays the order
            // they are met in.
            let added = self.hoists.len() - len;
            self.hoists[i..].rotate_right(added);
        }
    }

    /// Count the costly subexpressions of `e`, part of the assignment at
    /// `at` in the run, that are evaluated whenever `e` is. A repeat is not
    /// looked into: its operands will be evaluated once, with it.
    fn count(&mut self, e: &'a Expr, at: usize) {
        if is_leaf(e) || self.hoists.contains(&e) {
            return;
        }
        let costly = costly(&self.tensors, e) && self.exact(e);
        if costly {
            let repeat = |s: &&mut Seen| s.count > 0 && s.expr == e;
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
                count: 1,
                first: at,
                last: at,
            });
        }
    }

    /// The assignment at `at` in the current run.
    fn assign(&mut self, s: &'a Stmt, at: usize) {
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
        for i in 0..self.seen.len() {
            if self.seen[i].count > 0 && loads(self.seen[i].expr, var) {
                self.close(i);
            }
        }
    }

    fn close(&mut self, i: usize) {
        if self.seen[i].count > 1 {
            self.reuses.push(self.seen[i].clone());
        }
        self.seen[i].count = 0;
    }

    /// The assignments of `run`, rewritten, with every value reused in
    /// them in a register in front of its first use.
    fn end_run(&mut self, run: &[&'a Stmt]) -> Vec<Stmt> {
        (0..self.seen.len()).for_each(|i| self.close(i));
        self.seen.clear();
        let mut reuses = std::mem::take(&mut self.reuses);
        reuses.sort_by_key(|r| r.first);
        let named: Vec<(&'a Expr, String)> =
            reuses.iter().map(|r| (r.expr, self.fresh('c'))).collect();
        // The registers among the first `k` that are live at `at`.
        let live = |at: usize, k: usize| -> Vec<(&'a Expr, String)> {
            let live = (0..k).filter(|&j| reuses[j].first <= at && at <= reuses[j].last);
            live.map(|j| named[j].clone()).collect()
        };
        let stmts: Vec<Stmt> = run
            .iter()
            .enumerate()
            .map(|(at, s)| {
                let k = reuses.partition_point(|r| r.first <= at);
                UseRegisters(&live(at, k)).mutate_stmt(self.assignment(s))
            })
            .collect();
        // Every register lives to the end of the run: wrap from the back,
        // in reverse order.
        let mut rev: Vec<Stmt> = Vec::new();
        for (at, s) in stmts.into_iter().enumerate().rev() {
            rev.push(s);
            for k in (0..reuses.len()).rev().filter(|&k| reuses[k].first == at) {
                // Spelled with the registers declared before it.
                let value = UseRegisters(&live(at, k)).mutate_expr(reuses[k].expr.clone());
                let body = rev.drain(..).rev().collect();
                rev.push(register(
                    &named[k].1,
                    self.dtype(reuses[k].expr),
                    value,
                    body,
                ));
            }
        }
        self.changed |= !named.is_empty();
        rev.reverse();
        rev
    }

    /// An assignment as written, unless it folds into an accumulator.
    fn assignment(&self, s: &Stmt) -> Stmt {
        if let StmtKind::ReduceTo {
            var,
            indices,
            op,
            value,
            atomic: false,
        } = &s.kind
        {
            let acc = self
                .accs
                .iter()
                .find(|a| a.var == var && a.indices == indices.as_slice());
            if let Some(Acc { reg: Some(reg), .. }) = acc {
                let mut s = s.clone();
                s.kind = StmtKind::ReduceTo {
                    var: reg.clone(),
                    indices: Vec::new(),
                    op: *op,
                    value: value.clone(),
                    atomic: false,
                };
                return s;
            }
        }
        s.clone()
    }

    /// `s` rewritten. `lp` is the innermost enclosing loop, `guarded`
    /// whether an `If` sits between it and `s`.
    fn visit(&mut self, s: &'a Stmt, lp: Option<&Loop>, guarded: bool) -> Stmt {
        let is_assign =
            |s: &Stmt| matches!(s.kind, StmtKind::Store { .. } | StmtKind::ReduceTo { .. });
        if is_assign(s) {
            self.assign(s, 0);
            let mut run = self.end_run(&[s]);
            return if run.len() == 1 {
                run.remove(0)
            } else {
                builder::block(run)
            };
        }
        let kind = match &s.kind {
            StmtKind::Block(v) => {
                let (mut out, mut run) = (Vec::with_capacity(v.len()), Vec::new());
                for c in v {
                    if is_assign(c) {
                        self.assign(c, run.len());
                        run.push(c);
                    } else {
                        out.extend(self.end_run(&run));
                        run.clear();
                        out.push(self.visit(c, lp, guarded));
                    }
                }
                out.extend(self.end_run(&run));
                StmtKind::Block(out)
            }
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                atype,
                body,
            } => {
                self.tensors
                    .push((name, *dtype, mtype.register(shape.len())));
                let body = self.visit(body, lp, guarded);
                self.tensors.pop();
                StmtKind::VarDef {
                    name: name.clone(),
                    shape: shape.clone(),
                    dtype: *dtype,
                    mtype: *mtype,
                    atype: *atype,
                    body: Box::new(body),
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => StmtKind::If {
                cond: cond.clone(),
                then: Box::new(self.visit(then, lp, true)),
                otherwise: otherwise
                    .as_ref()
                    .map(|o| Box::new(self.visit(o, lp, true))),
            },
            StmtKind::For { .. } => return self.visit_for(s, lp, guarded),
            StmtKind::Store { .. } | StmtKind::ReduceTo { .. } => unreachable!("handled above"),
            StmtKind::LibCall { .. } | StmtKind::Empty => s.kind.clone(),
        };
        Stmt {
            id: s.id,
            label: s.label.clone(),
            kind,
        }
    }

    fn visit_for(&mut self, s: &'a Stmt, lp: Option<&Loop>, guarded: bool) -> Stmt {
        let StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } = &s.kind
        else {
            unreachable!("called on loops")
        };
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
        let serial = !property.parallel.is_parallel();
        let accs = match scope.innermost && serial {
            true => self.accumulators(body, &me),
            false => Vec::new(),
        };
        let no_simd = property.vectorize
            && ((serial && carried(body, iter, &accs, &mut Vec::new())) || holds_parallel(body));
        let outer_accs = std::mem::replace(&mut self.accs, accs);
        let body = self.visit(body, Some(&me), false);
        let accs = std::mem::replace(&mut self.accs, outer_accs);
        let mut property = property.clone();
        property.vectorize &= !no_simd;
        let mut out = Stmt {
            id: s.id,
            label: s.label.clone(),
            kind: StmtKind::For {
                iter: iter.clone(),
                begin: begin.clone(),
                end: end.clone(),
                property,
                body: Box::new(body),
            },
        };
        self.changed |= no_simd;

        // The elements the loop folds into, in registers around it.
        let accs: Vec<_> = accs
            .into_iter()
            .filter_map(|a| Some((a.reg?, a.var, a.indices)))
            .collect();
        if !accs.is_empty() {
            let mut stmts = vec![out];
            for (reg, var, indices) in &accs {
                let value = builder::load(reg.as_str(), builder::scalar());
                stmts.push(builder::store(*var, indices.to_vec(), value));
            }
            for (reg, var, indices) in accs.iter().rev() {
                let value = builder::load(*var, indices.to_vec());
                stmts = vec![register(reg, self.elem(var), value, stmts)];
            }
            out = stmts.pop().expect("one register");
            // A loop that may not run must not touch the element either.
            if !me.hoistable {
                out = builder::if_(Expr::binary(BinaryOp::Lt, begin.clone(), end.clone()), out);
            }
            self.changed = true;
        }

        // Each candidate goes one loop further out where it may, and in
        // front of this loop where it may not — then what is invariant
        // *inside* it gets its chance further out.
        let up = lp.filter(|p| p.hoistable && !guarded);
        let mut placed: Vec<&'a Expr> = Vec::new();
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
                _ => placed.push(e),
            }
        }
        self.hoists.truncate(keep);
        if let Some(p) = up {
            for &e in &placed {
                self.scan(e, p);
            }
        }
        if placed.is_empty() {
            return out;
        }
        let named: Vec<(&'a Expr, String)> = placed.iter().map(|&e| (e, self.fresh('h'))).collect();
        out = UseRegisters(&named).mutate_stmt(out);
        let mut stmts = vec![out];
        for k in (0..named.len()).rev() {
            // Spelled with the registers declared before it.
            let value = UseRegisters(&named[..k]).mutate_expr(named[k].0.clone());
            stmts = vec![register(&named[k].1, self.dtype(named[k].0), value, stmts)];
        }
        self.changed = true;
        stmts.pop().expect("one register")
    }

    /// The accumulators of innermost loop `me` with body `body`.
    fn accumulators(&mut self, body: &'a Stmt, me: &Loop) -> Vec<Acc<'a>> {
        let mut accs = Vec::new();
        self.reductions(body, me, &mut Vec::new(), &mut accs);
        let mut k = 0;
        while k < accs.len() {
            let var = accs[k].var;
            if k > 0 && accs[k - 1].var == var {
                // Cleared together with the accumulator before it.
                k += 1;
                continue;
            }
            // Nothing in the loop may read `var`, and every write of it
            // must be one of its accumulators or certainly another element
            // than all of them.
            let alone = !touches(body, var, false, &mut |idx, op, guarded| {
                accs.iter().filter(|a| a.var == var).all(|a| {
                    (a.indices == idx && a.op == op && !guarded) || distinct(a.indices, idx)
                })
            });
            if alone {
                k += 1;
            } else {
                // The first of `var`'s accumulators is the one at `k`.
                accs.retain(|a| a.var != var);
            }
        }
        let register = |var: &str| {
            self.tensors
                .iter()
                .rev()
                .find(|t| t.0 == var)
                .is_some_and(|t| t.2)
        };
        let regs: Vec<bool> = accs.iter().map(|a| register(a.var)).collect();
        for (a, is_reg) in accs.iter_mut().zip(regs) {
            if !is_reg {
                a.reg = Some(self.fresh('a'));
            }
        }
        accs
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
                && !out
                    .iter()
                    .any(|a| a.var == var && a.indices == indices.as_slice()) =>
            {
                out.push(Acc {
                    var,
                    indices,
                    op: *op,
                    reg: None,
                });
            }
            _ => {}
        }
    }
}

/// Is there a parallel loop anywhere in `s`?
fn holds_parallel(s: &Stmt) -> bool {
    let mut found = false;
    s.walk(&mut |t| {
        found |=
            matches!(&t.kind, StmtKind::For { property, .. } if property.parallel.is_parallel());
    });
    found
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
                && accs
                    .iter()
                    .any(|a| a.var == var && a.indices == indices.as_slice());
            !in_clause
                && !locals.contains(&var.as_str())
                && !indices
                    .iter()
                    .any(|e| e.any(&mut |n| matches!(n, Expr::Var(v) if v == iter)))
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

    fn simd() -> ForProperty {
        ForProperty {
            vectorize: true,
            ..ForProperty::default()
        }
    }

    /// `for p in 0..64` (`vectorize`) over `body`, in `wrap`, lowered:
    /// (whether its mark was cleared, the accumulators' targets).
    fn loop_decisions(body: Stmt, wrap: fn(Stmt) -> Stmt) -> (bool, Vec<String>) {
        let f = Func::new("f")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("t", [1], DataType::F32, AccessType::Output)
            .body(wrap(for_with("p", 0, 64, simd(), body)));
        let (mut cleared, mut accs) = (false, Vec::new());
        lower_scalar(&f).body.walk(&mut |s| match &s.kind {
            StmtKind::For { property, .. } => cleared = !property.vectorize,
            StmtKind::Store {
                var,
                value: Expr::Load { var: reg, .. },
                ..
            } if reg.starts_with("ft.a") => accs.push(var.clone()),
            _ => {}
        });
        (cleared, accs)
    }

    /// A 0-d `CpuStack` `g` around `body`.
    fn g(body: Stmt) -> Stmt {
        var_def("g", scalar(), DataType::F32, MemType::CpuStack, body)
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
        // Bound in the body: `g` starts from zero every iteration, so the
        // loop keeps its mark, and only `t` is an accumulator.
        assert_eq!(
            loop_decisions(g(fold_through_g()), |l| l),
            (false, vec!["t".to_string()])
        );
        // The same folds into a `g` bound outside the loop carry it.
        assert!(loop_decisions(fold_through_g(), g).0);
        // A register folded into and nothing else needs no accumulator of
        // its own, and keeps the mark: the `simd reduction` clause names it.
        let sum = reduce("g", scalar(), ReduceOp::Add, load("x", [var("p")]));
        assert_eq!(loop_decisions(sum, g), (false, vec![]));
    }

    #[test]
    fn an_f32_value_with_an_operator_is_not_named_whole() {
        // `exp(x[0]) / 2` would round in an `f32` register; the load in it
        // leaves the loop instead. An `f64` value leaves whole.
        let value = || Expr::unary(UnaryOp::Exp, load("x", [0])) / 2.0;
        let hoisted = |dt| {
            let f = Func::new("f")
                .param("x", [64], dt, AccessType::Input)
                .param("y", [64], dt, AccessType::Output)
                .body(for_("p", 0, 64, store("y", [var("p")], value())));
            let mut values = Vec::new();
            lower_scalar(&f).body.walk(&mut |s| {
                if let StmtKind::Store { var, value, .. } = &s.kind {
                    if var.starts_with("ft.h") {
                        values.push(value.clone());
                    }
                }
            });
            values
        };
        assert_eq!(hoisted(DataType::F32), [load("x", [0])]);
        assert_eq!(hoisted(DataType::F64), [value()]);
    }
}
