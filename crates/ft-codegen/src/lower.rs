//! CPU parallel lowering: the one IR→IR step between a scheduled function
//! and the C emitter.
//!
//! `parallelize` marks loops and flags carried reductions `atomic` (paper
//! Fig. 13(d)/(e)); how a CPU realizes those marks is decided here, once,
//! before memory planning and emission, instead of by pragmas sprinkled in
//! the emitter. For every *outermost* parallel loop `L`:
//!
//! 1. parallel marks nested inside `L` become serial loops (keeping
//!    `vectorize`): OpenMP serializes nested regions anyway, so they only
//!    cost their fork/join;
//! 2. `atomic` is cleared on reductions whose target `VarDef` is inside `L`
//!    — the buffer is thread-private;
//! 3. every other `atomic` target `X` is *privatized*: `L` becomes a
//!    parallel loop over `P` fixed chunks of its range, each chunk
//!    accumulating in iteration order into its own row of an
//!    identity-initialised `X.part[P, shape(X)…]` placed just outside `L`
//!    (zeroed like every `VarDef`, which is the identity of `+=`; a fill
//!    nest stores the identity of `*=`, `min=`, `max=`),
//!    followed by a merge nest folding the rows into `X` in ascending chunk
//!    order;
//! 4. when a target cannot be privatized (any access to `X` inside `L`
//!    other than `ReduceTo` with one operator, non-constant extents, `L`'s
//!    bounds reading a tensor, or two rows exceeding
//!    [`PARTIAL_BYTES_CAP`]), `L` and everything inside it run serially.
//!
//! `P = clamp(PARTIAL_BYTES_TARGET / Σ bytes(X), 2, 8)` is a function of the
//! nest alone — never of the runtime thread count — and every
//! floating-point sum has one fixed association order, so results are
//! bit-identical run to run and across `OMP_NUM_THREADS` — and across the
//! two back ends that execute the lowered function, the C emitter's
//! kernels and the bytecode VM, whatever their worker counts. The rules are
//! purely syntactic (no dependence queries: every printed unit and every
//! context-free run lowers), and a function with no `atomic` reduction and
//! no nested parallel mark is returned borrowed, untouched.
//!
//! Whether a kept mark is legal at all is [`prove_parallel`]'s to say.
//!
//! The C backend maps *every* parallel scope onto OpenMP threads, so the
//! pass treats any non-serial scope as a CPU parallel mark. The
//! interpreter (the reference semantics) and the cost model keep the
//! unlowered IR.

use ft_analysis::{carried_reductions_in, collect_accesses, loop_carried_deps_in, FoundDep};
use ft_ir::mutate::{bound_names, fresh_name};
use ft_ir::{
    AccessType, DataType, Expr, ForProperty, Func, MemType, ParallelScope, ReduceOp, Stmt, StmtId,
    StmtKind,
};
use ft_passes::const_fold_expr;
use ft_schedule::util::replace_by_id;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// Hard cap on the partial rows of one lowered nest, all targets together:
/// a nest whose two rows would not fit runs serially. 1 MiB bounds what a
/// nest can add to the planned arena (and to a served request's budget).
pub const PARTIAL_BYTES_CAP: u64 = 1 << 20;

/// What the rows of a nest should add up to when the chunk count is free
/// to choose. 256 KiB keeps fill, accumulate and merge inside a per-core L2
/// next to the loop's own working set; measured on the grad workloads, every
/// further 256 KiB of rows cost ~4 % of the process's peak RSS and bought no
/// wall time on a 2-core host.
pub const PARTIAL_BYTES_TARGET: u64 = 1 << 18;

/// Most chunks a nest is cut into. Eight keeps a 2–8 thread team busy, and
/// with more chunks than threads a static schedule never runs adjacent rows
/// concurrently (no false sharing at row boundaries of small targets).
pub const MAX_CHUNKS: u64 = 8;

/// Fewest chunks worth privatizing for: a single chunk is the serial loop
/// plus a copy.
pub const MIN_CHUNKS: u64 = 2;

/// Lower the CPU parallel marks of `func` (see the module docs). Returns
/// `Cow::Borrowed` — no clone, no rewrite — when there is nothing to lower.
pub fn lower_cpu_parallel(func: &Func) -> Cow<'_, Func> {
    if !needs_lowering(&func.body, false) {
        return Cow::Borrowed(func);
    }
    let mut lowered = func.clone();
    let mut lw = Lowerer {
        func,
        used: None,
        defs: HashMap::new(),
    };
    for p in &func.params {
        lw.defs
            .entry(&p.name)
            .or_default()
            .push((p.dtype, &p.shape));
    }
    lw.outside(&func.body, &mut lowered.body);
    Cow::Owned(lowered)
}

/// A parallel mark [`prove_parallel`] cleared: the loop, and the first
/// dependence it carries (printed as the schedule decision log prints one)
/// or `carried reduction #N`.
#[derive(Debug, Clone, PartialEq)]
pub struct Serialized {
    pub loop_id: StmtId,
    pub reason: String,
    pub dep: Option<FoundDep>,
}

/// Ask the two queries `parallelize` asks about every parallel-marked loop
/// of `func`, over accesses collected once, and make each loop they cannot
/// prove serial (keeping `vectorize`); `func` stays borrowed when none is.
/// Both engines run this once per resolve, after `lower_and_plan` (DESIGN.md
/// §7): it costs a query per loop, so [`lower_cpu_parallel`] never calls it.
pub fn prove_parallel(func: &mut Cow<'_, Func>) -> Vec<Serialized> {
    let f: &Func = func;
    let (mut info, mut refused) = (None, Vec::new());
    f.body.walk(&mut |s| {
        if !matches!(&s.kind, StmtKind::For { property, .. } if property.parallel.is_parallel()) {
            return;
        }
        let info = info.get_or_insert_with(|| collect_accesses(f));
        let dep = loop_carried_deps_in(info, s.id).into_iter().next();
        let reason = match (&dep, carried_reductions_in(info, s.id).first()) {
            (Some(d), _) => d.to_string(),
            (None, Some(r)) => format!("carried reduction {r}"),
            (None, None) => return,
        };
        refused.push(Serialized {
            loop_id: s.id,
            reason,
            dep,
        });
    });
    for r in &refused {
        replace_by_id(&mut func.to_mut().body, r.loop_id, |mut s| {
            if let StmtKind::For { property, .. } = &mut s.kind {
                property.parallel = ParallelScope::Serial;
            }
            s
        });
    }
    refused
}

/// Is there an `atomic` reduction, or a parallel loop inside a parallel one?
fn needs_lowering(s: &Stmt, in_parallel: bool) -> bool {
    match &s.kind {
        StmtKind::ReduceTo { atomic, .. } => *atomic,
        StmtKind::For { property, body, .. } => {
            let par = property.parallel.is_parallel();
            (par && in_parallel) || needs_lowering(body, in_parallel || par)
        }
        StmtKind::Block(v) => v.iter().any(|c| needs_lowering(c, in_parallel)),
        StmtKind::VarDef { body, .. } => needs_lowering(body, in_parallel),
        StmtKind::If {
            then, otherwise, ..
        } => {
            needs_lowering(then, in_parallel)
                || otherwise
                    .as_ref()
                    .is_some_and(|o| needs_lowering(o, in_parallel))
        }
        StmtKind::Store { .. } | StmtKind::LibCall { .. } | StmtKind::Empty => false,
    }
}

/// How the body of one outermost parallel loop uses a tensor defined
/// outside it.
#[derive(Debug, Default)]
struct Touch {
    /// Some reduction into it is flagged `atomic`.
    atomic: bool,
    /// The operator of the reductions seen so far.
    op: Option<ReduceOp>,
    /// Loaded, stored, passed to a library kernel, or reduced with a second
    /// operator: not privatizable.
    mixed: bool,
}

/// Scope-aware scan of a loop body: records a [`Touch`] per tensor that is
/// *not* bound by a `VarDef` inside the body.
#[derive(Default)]
struct Scan<'a> {
    local: Vec<&'a str>,
    touch: HashMap<&'a str, Touch>,
}

impl<'a> Scan<'a> {
    fn outer(&mut self, name: &'a str) -> Option<&mut Touch> {
        (!self.local.contains(&name)).then(|| self.touch.entry(name).or_default())
    }

    fn mixed(&mut self, name: &'a str) {
        if let Some(t) = self.outer(name) {
            t.mixed = true;
        }
    }

    /// Every tensor loaded in `es` is used as a value.
    fn loads(&mut self, es: impl IntoIterator<Item = &'a Expr>) {
        for e in es {
            e.for_each_load(&mut |var, _| self.mixed(var));
        }
    }

    fn stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(v) => v.iter().for_each(|c| self.stmt(c)),
            StmtKind::VarDef {
                name, shape, body, ..
            } => {
                self.loads(shape);
                self.local.push(name);
                self.stmt(body);
                self.local.pop();
            }
            StmtKind::For {
                begin, end, body, ..
            } => {
                self.loads([begin, end]);
                self.stmt(body);
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                self.loads([cond]);
                self.stmt(then);
                if let Some(o) = otherwise {
                    self.stmt(o);
                }
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => {
                self.mixed(var);
                self.loads(indices.iter().chain([value]));
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } => {
                if let Some(t) = self.outer(var) {
                    t.atomic |= *atomic;
                    t.mixed |= t.op.is_some_and(|seen| seen != *op);
                    t.op = Some(*op);
                }
                self.loads(indices.iter().chain([value]));
            }
            StmtKind::LibCall {
                inputs, outputs, ..
            } => {
                for n in inputs.iter().chain(outputs) {
                    self.mixed(n);
                }
            }
        }
    }
}

/// One privatized reduction target of a nest.
struct Partial {
    /// The tensor being reduced into, defined outside the nest.
    target: String,
    /// Name of the `[P, extents…]` partial buffer.
    part: String,
    op: ReduceOp,
    dtype: DataType,
    /// The target's (constant) extents.
    extents: Vec<i64>,
    /// One iterator per extent, for the fill and merge nests.
    iters: Vec<String>,
}

impl Partial {
    /// Wrap `body` in serial loops over the target's dimensions `from..`,
    /// the innermost one vectorized.
    fn dim_loops(&self, from: usize, body: Stmt) -> Stmt {
        let dims = self.iters.iter().zip(&self.extents).enumerate();
        dims.skip(from).rev().fold(body, |nest, (d, (it, extent))| {
            let property = ForProperty {
                vectorize: d + 1 == self.iters.len(),
                ..ForProperty::serial()
            };
            for_stmt(it, *extent, property, nest)
        })
    }
}

/// Rewrite the inside of an outermost parallel loop in place: every loop
/// becomes serial (keeping `vectorize`), every `atomic` flag is cleared, and
/// reductions into a privatized target go to row `chunk` of its partial.
/// `shadowed` holds the privatized names a `VarDef` inside the loop rebinds.
fn rewrite_inside(s: &mut Stmt, parts: &[Partial], chunk: &str, shadowed: &mut Vec<String>) {
    match &mut s.kind {
        StmtKind::Empty | StmtKind::Store { .. } | StmtKind::LibCall { .. } => {}
        StmtKind::Block(v) => {
            for c in v {
                rewrite_inside(c, parts, chunk, shadowed);
            }
        }
        StmtKind::For { property, body, .. } => {
            property.parallel = ParallelScope::Serial;
            rewrite_inside(body, parts, chunk, shadowed);
        }
        StmtKind::If {
            then, otherwise, ..
        } => {
            rewrite_inside(then, parts, chunk, shadowed);
            if let Some(o) = otherwise {
                rewrite_inside(o, parts, chunk, shadowed);
            }
        }
        StmtKind::VarDef { name, body, .. } => {
            let rebinds = parts.iter().any(|p| p.target == *name);
            if rebinds {
                shadowed.push(name.clone());
            }
            rewrite_inside(body, parts, chunk, shadowed);
            if rebinds {
                shadowed.pop();
            }
        }
        StmtKind::ReduceTo {
            var,
            indices,
            atomic,
            ..
        } => {
            *atomic = false;
            if !shadowed.contains(var) {
                if let Some(p) = parts.iter().find(|p| p.target == *var) {
                    var.clone_from(&p.part);
                    indices.insert(0, Expr::Var(chunk.to_string()));
                }
            }
        }
    }
}

/// The walk outside any parallel loop, over the original function and its
/// clone in lockstep: scope facts are read from the original, which
/// nothing mutates; rewrites land in the clone.
struct Lowerer<'a> {
    func: &'a Func,
    /// Every name bound anywhere in the function plus the ones this pass
    /// introduced; collected when the first name is needed.
    used: Option<HashSet<Cow<'a, str>>>,
    /// Innermost-last `(dtype, shape)` per visible tensor name.
    defs: HashMap<&'a str, Vec<(DataType, &'a [Expr])>>,
}

fn for_stmt(iter: &str, end: i64, property: ForProperty, body: Stmt) -> Stmt {
    Stmt::new(StmtKind::For {
        iter: iter.to_string(),
        begin: Expr::IntConst(0),
        end: Expr::IntConst(end),
        property,
        body: Box::new(body),
    })
}

impl<'a> Lowerer<'a> {
    fn fresh(&mut self, base: &str) -> String {
        let func = self.func;
        fresh_name(base, self.used.get_or_insert_with(|| bound_names(func)))
    }

    fn outside(&mut self, orig: &'a Stmt, new: &mut Stmt) {
        match (&orig.kind, &mut new.kind) {
            (StmtKind::Block(os), StmtKind::Block(ns)) => {
                for (o, n) in os.iter().zip(ns) {
                    self.outside(o, n);
                }
            }
            (
                StmtKind::VarDef {
                    name,
                    dtype,
                    shape,
                    body: o,
                    ..
                },
                StmtKind::VarDef { body: n, .. },
            ) => {
                self.defs.entry(name).or_default().push((*dtype, shape));
                self.outside(o, n);
                self.defs
                    .get_mut(name.as_str())
                    .expect("pushed above")
                    .pop();
            }
            (
                StmtKind::For {
                    property, body: o, ..
                },
                StmtKind::For { body: n, .. },
            ) => {
                if !property.parallel.is_parallel() {
                    self.outside(o, n);
                } else if needs_lowering(o, true) {
                    self.lower_nest(o, new);
                }
            }
            (
                StmtKind::If {
                    then: ot,
                    otherwise: oo,
                    ..
                },
                StmtKind::If {
                    then: nt,
                    otherwise: no,
                    ..
                },
            ) => {
                self.outside(ot, nt);
                if let (Some(o), Some(n)) = (oo, no) {
                    self.outside(o, n);
                }
            }
            // Not under any parallel loop: nothing to be atomic against.
            (_, StmtKind::ReduceTo { atomic, .. }) => *atomic = false,
            _ => {}
        }
    }

    /// Lower the outermost parallel loop `l`, whose body in the original
    /// function is `orig_body`, in place.
    fn lower_nest(&mut self, orig_body: &'a Stmt, l: &mut Stmt) {
        let mut scan = Scan::default();
        scan.stmt(orig_body);
        let mut targets: Vec<(&str, &Touch)> = scan
            .touch
            .iter()
            .filter(|(_, t)| t.atomic)
            .map(|(n, t)| (*n, t))
            .collect();
        targets.sort_by_key(|(n, _)| *n);
        let StmtKind::For {
            begin,
            end,
            property,
            body,
            ..
        } = &mut l.kind
        else {
            unreachable!("lower_nest is only called on For statements");
        };
        if targets.is_empty() {
            // Nothing shared is reduced into: L stays parallel.
            return rewrite_inside(body, &[], "", &mut Vec::new());
        }
        let Some((p, parts)) = self.plan_partials(&targets, begin, end) else {
            // Serial, in iteration order — and not `simd` either: the
            // iterations collide on the target, that is why it was atomic.
            property.parallel = ParallelScope::Serial;
            property.vectorize = false;
            return rewrite_inside(body, &[], "", &mut Vec::new());
        };

        let hole = Stmt {
            id: l.id,
            label: None,
            kind: StmtKind::Empty,
        };
        let Stmt {
            id,
            label,
            kind:
                StmtKind::For {
                    iter,
                    begin,
                    end,
                    property,
                    mut body,
                },
        } = std::mem::replace(l, hole)
        else {
            unreachable!("matched as a For above");
        };
        let chunk = self.fresh(&format!("{iter}.chunk"));
        rewrite_inside(&mut body, &parts, &chunk, &mut Vec::new());
        // Chunk c covers [begin + c·len, min(begin + (c+1)·len, end)) with
        // len = ⌈(end − begin) / P⌉: a grid fixed by the nest, not the team.
        let len = const_fold_expr((&end - &begin + (p - 1)) / p);
        let c = Expr::Var(chunk.clone());
        let lo = const_fold_expr(&begin + &c * &len);
        let hi = const_fold_expr((&begin + (&c + 1) * &len).min(&end));
        let scope = property.parallel;
        let chunk_loop = Stmt {
            id,
            label,
            kind: StmtKind::For {
                iter: chunk.clone(),
                begin: Expr::IntConst(0),
                end: Expr::IntConst(p),
                property: ForProperty::parallel(scope),
                body: Box::new(Stmt::new(StmtKind::For {
                    iter,
                    begin: lo,
                    end: hi,
                    property: ForProperty {
                        parallel: ParallelScope::Serial,
                        vectorize: false,
                        ..property
                    },
                    body,
                })),
            },
        };

        // Only the chunk loop keeps L's id: every statement has its own, so
        // a dependence query about one nest sees only that nest. A `VarDef`
        // starts zeroed, which is the identity of `+=`: only the other
        // operators fill.
        let mut stmts = Vec::with_capacity(2 * parts.len() + 1);
        for part in parts.iter().filter(|p| p.op != ReduceOp::Add) {
            stmts.push(Self::fill_nest(scope, &chunk, p, part));
        }
        stmts.push(chunk_loop);
        for part in &parts {
            stmts.push(Self::merge_nest(scope, &chunk, p, part));
        }
        let mut out = Stmt::new(StmtKind::Block(stmts));
        for part in parts.into_iter().rev() {
            let mut shape = vec![Expr::IntConst(p)];
            shape.extend(part.extents.iter().map(|e| Expr::IntConst(*e)));
            out = Stmt::new(StmtKind::VarDef {
                name: part.part,
                shape,
                dtype: part.dtype,
                mtype: MemType::CpuHeap,
                atype: AccessType::Cache,
                body: Box::new(out),
            });
        }
        *l = out;
    }

    /// Decide the chunk count and name the partial buffers, or `None` when
    /// the nest has to run serially.
    fn plan_partials(
        &mut self,
        targets: &[(&str, &Touch)],
        begin: &Expr,
        end: &Expr,
    ) -> Option<(i64, Vec<Partial>)> {
        // The bounds are re-evaluated by every chunk, concurrently with the
        // body: they must not read memory.
        if !begin.loaded_vars().is_empty() || !end.loaded_vars().is_empty() {
            return None;
        }
        let mut sized: Vec<(&str, ReduceOp, DataType, Vec<i64>)> = Vec::new();
        let mut total: u64 = 0;
        for (name, touch) in targets {
            if touch.mixed {
                return None;
            }
            let (dtype, shape) = *self.defs.get(*name)?.last()?;
            let extents: Vec<i64> = shape
                .iter()
                .map(|e| const_fold_expr(e.clone()).as_int().filter(|v| *v >= 0))
                .collect::<Option<_>>()?;
            let bytes = extents
                .iter()
                .try_fold(dtype.size_bytes() as u64, |a, e| a.checked_mul(*e as u64))?;
            total = total.checked_add(bytes)?;
            sized.push((name, touch.op?, dtype, extents));
        }
        let chunks = (PARTIAL_BYTES_TARGET / total.max(1)).clamp(MIN_CHUNKS, MAX_CHUNKS);
        if chunks.checked_mul(total)? > PARTIAL_BYTES_CAP {
            return None;
        }
        let parts = sized
            .into_iter()
            .map(|(name, op, dtype, extents)| {
                let part = self.fresh(&format!("{name}.part"));
                let iters = (0..extents.len())
                    .map(|d| self.fresh(&format!("{part}.i{d}")))
                    .collect();
                Partial {
                    target: name.to_string(),
                    part,
                    op,
                    dtype,
                    extents,
                    iters,
                }
            })
            .collect();
        Some((chunks as i64, parts))
    }

    /// `for chunk: for i0: … part[chunk, i0, …] = identity` — a perfect
    /// full-overwrite nest, so the memory plan elides the arena zero-fill.
    fn fill_nest(scope: ParallelScope, chunk: &str, chunks: i64, part: &Partial) -> Stmt {
        let iters = &part.iters;
        let mut indices = vec![Expr::Var(chunk.to_string())];
        indices.extend(iters.iter().cloned().map(Expr::Var));
        let nest = Stmt::new(StmtKind::Store {
            var: part.part.clone(),
            indices,
            value: part.op.identity(part.dtype),
        });
        let nest = part.dim_loops(0, nest);
        for_stmt(chunk, chunks, ForProperty::parallel(scope), nest)
    }

    /// `for i0 (parallel): for chunk: for i1…: X[i0, …] op= part[chunk, i0, …]`
    /// — every element of `X` folds its rows in ascending chunk order.
    fn merge_nest(scope: ParallelScope, chunk: &str, chunks: i64, part: &Partial) -> Stmt {
        let iters = &part.iters;
        let at: Vec<Expr> = iters.iter().cloned().map(Expr::Var).collect();
        let mut row = vec![Expr::Var(chunk.to_string())];
        row.extend(at.iter().cloned());
        let nest = Stmt::new(StmtKind::ReduceTo {
            var: part.target.clone(),
            indices: at,
            op: part.op,
            value: Expr::Load {
                var: part.part.clone(),
                indices: row,
            },
            atomic: false,
        });
        let nest = part.dim_loops(1, nest);
        match iters.first() {
            // A scalar target: nothing to spread over a team.
            None => for_stmt(chunk, chunks, ForProperty::serial(), nest),
            Some(i0) => {
                let rows = for_stmt(chunk, chunks, ForProperty::serial(), nest);
                for_stmt(i0, part.extents[0], ForProperty::parallel(scope), rows)
            }
        }
    }
}
