//! The gradient transformation: forward instrumentation + reversed pass.

use crate::analyze::{decide, tensor_facts, MaterializeDecision, TapePolicy};
use crate::deriv::{pullback, DerivError};
use crate::name::name_invariants;
use ft_ir::mutate::{rename_var_stmt, subst_var_stmt, uniquify_def_names};
use ft_ir::{
    builder, AccessType, DataType, Expr, Func, MemType, Param, ReduceOp, Stmt, StmtKind,
};
use ft_passes::const_fold_expr;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Options controlling the gradient transformation.
#[derive(Debug, Clone)]
pub struct GradOptions {
    /// Store-vs-recompute strategy (paper §5.2).
    pub policy: TapePolicy,
    /// Definition-cost threshold below which `Selective` recomputes.
    pub recompute_threshold: usize,
    /// Inputs to differentiate with respect to (default: every float input).
    pub wrt: Option<Vec<String>>,
    /// Deliberate miscompilation for harness validation (never set in
    /// production): see [`AdFault`].
    pub fault: Option<AdFault>,
}

impl Default for GradOptions {
    fn default() -> Self {
        GradOptions {
            policy: TapePolicy::Selective,
            recompute_threshold: 16,
            wrt: None,
            fault: None,
        }
    }
}

/// Injectable AD miscompilations, used to validate that the gradient
/// conformance harness actually catches bugs (the same role
/// `ScheduleOp::ParallelizeUnchecked` plays for the forward harness).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdFault {
    /// Backward tape reads ignore the symbolic version subscripts (§5.1):
    /// every iteration reads tape slot 0 instead of `iter − begin`, so any
    /// taped tensor under a loop yields wrong gradients.
    DropTapeVersionBump,
}

/// Failures of the gradient transformation.
#[derive(Debug, Clone, PartialEq)]
pub enum AdError {
    /// An expression could not be differentiated.
    Deriv(String),
    /// The program shape is outside the supported fragment.
    Unsupported(String),
}

impl fmt::Display for AdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdError::Deriv(m) => write!(f, "differentiation error: {m}"),
            AdError::Unsupported(m) => write!(f, "autodiff unsupported: {m}"),
        }
    }
}

impl std::error::Error for AdError {}

impl From<DerivError> for AdError {
    fn from(e: DerivError) -> Self {
        AdError::Deriv(e.to_string())
    }
}

fn grad_name(t: &str) -> String {
    format!("{t}.grad")
}

fn tape_name(t: &str) -> String {
    format!("{t}.tape")
}

/// Differentiate with default options. See [`grad_with`].
///
/// # Errors
///
/// See [`grad_with`].
pub fn grad(func: &Func) -> Result<Func, AdError> {
    grad_with(func, &GradOptions::default())
}

/// Build the gradient function of `func`: it computes the original outputs
/// *plus* `x.grad` for every requested input, given seed gradients `y.grad`
/// for every float output (passed in-out; they are consumed).
///
/// # Errors
///
/// [`AdError::Unsupported`] for in-out parameters, library calls, taped
/// tensors under non-affine/iterator-dependent loop bounds, and
/// multiplicative reductions; [`AdError::Deriv`] for non-differentiable
/// expressions on the value path.
pub fn grad_with(func: &Func, opts: &GradOptions) -> Result<Func, AdError> {
    // Everything below keys per-tensor bookkeeping (dtypes, write-site
    // facts, tape names) by VarDef name, so duplicate names — e.g. the same
    // parameter cached twice by the schedule, yielding two `Q.cache` defs —
    // would silently merge distinct tensors and corrupt tape indexing.
    // Alpha-rename them apart first.
    let func = &uniquify_def_names(func);
    for p in &func.params {
        if p.atype == AccessType::InOut {
            return Err(AdError::Unsupported(format!(
                "in-out parameter `{}` (separate inputs from outputs before AD)",
                p.name
            )));
        }
    }
    let mut has_libcall = false;
    func.body.walk(&mut |s| {
        has_libcall |= matches!(s.kind, StmtKind::LibCall { .. });
    });
    if has_libcall {
        return Err(AdError::Unsupported(
            "library calls cannot be differentiated; apply as_lib after AD".to_string(),
        ));
    }

    // Active tensors: requested inputs, float outputs, and float locals.
    let wrt: Vec<String> = match &opts.wrt {
        Some(w) => {
            // Each requested name must be a *float input* parameter: an
            // unknown name has nothing to differentiate, an output would
            // collide with its own `.grad` seed parameter, and an integer
            // input has no gradient.
            for x in w {
                let p = func.find_param(x).ok_or_else(|| {
                    AdError::Unsupported(format!("unknown wrt input `{x}`"))
                })?;
                if p.atype != AccessType::Input {
                    return Err(AdError::Unsupported(format!(
                        "wrt `{x}` is an {:?} parameter; only inputs can be \
                         differentiated with respect to",
                        p.atype
                    )));
                }
                if !p.dtype.is_float() {
                    return Err(AdError::Unsupported(format!(
                        "wrt `{x}` has integer dtype {:?}; gradients are \
                         defined for float inputs only",
                        p.dtype
                    )));
                }
            }
            w.clone()
        }
        None => func
            .params
            .iter()
            .filter(|p| p.atype == AccessType::Input && p.dtype.is_float())
            .map(|p| p.name.clone())
            .collect(),
    };
    let mut dtypes: HashMap<String, DataType> = HashMap::new();
    for p in &func.params {
        dtypes.insert(p.name.clone(), p.dtype);
    }
    func.body.walk(&mut |s| {
        if let StmtKind::VarDef { name, dtype, .. } = &s.kind {
            dtypes.insert(name.clone(), *dtype);
        }
    });
    let inputs_inactive: HashSet<String> = func
        .params
        .iter()
        .filter(|p| p.atype == AccessType::Input && !wrt.contains(&p.name))
        .map(|p| p.name.clone())
        .collect();
    let is_active = |dtypes: &HashMap<String, DataType>, name: &str| {
        dtypes.get(name).is_some_and(|d| d.is_float()) && !inputs_inactive.contains(name)
    };
    // The backward pass is differentiated from a body in which loop-invariant
    // values have names. Everything else — what is taped, what is
    // recomputed, the forward pass that is instrumented — is decided on and
    // taken from the program as written: the names exist in the backward
    // pass only, where they are active float scalars like any other.
    let (named_body, names) = name_invariants(func, &dtypes, &|n| is_active(&dtypes, n));
    dtypes.extend(names.iter().cloned());
    let active = |name: &str| is_active(&dtypes, name);

    let facts = tensor_facts(func, &active);
    let param_set: HashSet<String> = func.params.iter().map(|p| p.name.clone()).collect();
    let mut decisions = decide(&facts, &param_set, opts.policy, opts.recompute_threshold);
    if opts.policy == TapePolicy::None {
        if let Some((t, _)) = decisions
            .iter()
            .find(|(_, d)| **d == MaterializeDecision::Store)
        {
            return Err(AdError::Unsupported(format!(
                "`{t}` must be materialized but TapePolicy::None forbids it"
            )));
        }
    }

    let deep_tape = deep_tape_plan(func, &decisions)?;
    // A named value is recomputed, under every policy: `backward(Block)`
    // replays `t = E` in front of its loop from what the pullback of the
    // unnamed statement would have read inside it.
    decisions.extend(
        names
            .into_iter()
            .map(|(t, _)| (t, MaterializeDecision::Recompute)),
    );
    let mut tx = Grad {
        decisions: &decisions,
        dtypes: &dtypes,
        active: &active,
        tapes: Vec::new(),
        versions: HashMap::new(),
        stack: Vec::new(),
        deep_tape,
        shapes: HashMap::new(),
        tmp: 0,
        size_params: func.size_params.iter().cloned().collect(),
        fault: opts.fault,
    };
    let fwd = tx.instrument_forward(func.body.clone())?;
    let bwd = tx.backward(&named_body)?;

    // Assemble: tapes wrap [forward; backward].
    let mut body = Stmt::new(StmtKind::Block(vec![fwd, bwd]));
    for (name, dims, dtype) in tx.tapes.iter().rev() {
        body = builder::var_def(name.clone(), dims.clone(), *dtype, MemType::CpuHeap, body);
    }
    let mut out = Func::new(format!("{}.grad", func.name));
    out.size_params = func.size_params.clone();
    for p in &func.params {
        out.params.push(p.clone());
    }
    for p in &func.params {
        if p.atype == AccessType::Output && p.dtype.is_float() {
            out.params.push(Param {
                name: grad_name(&p.name),
                shape: p.shape.clone(),
                dtype: p.dtype,
                mtype: p.mtype,
                atype: AccessType::InOut,
            });
        }
    }
    for x in &wrt {
        let p = func
            .find_param(x)
            .ok_or_else(|| AdError::Unsupported(format!("unknown wrt input `{x}`")))?;
        out.params.push(Param {
            name: grad_name(x),
            shape: p.shape.clone(),
            dtype: p.dtype,
            mtype: p.mtype,
            atype: AccessType::Output,
        });
    }
    out.body = body;
    Ok(out)
}

struct Grad<'a> {
    decisions: &'a HashMap<String, MaterializeDecision>,
    dtypes: &'a HashMap<String, DataType>,
    active: &'a dyn Fn(&str) -> bool,
    /// Collected tape definitions: (name, dims, dtype).
    tapes: Vec<(String, Vec<Expr>, DataType)>,
    /// Version-dimension count per taped tensor (loops enclosing its
    /// `VarDef` in the forward pass — or enclosing its defining store, for
    /// tensors in `deep_tape`).
    versions: HashMap<String, usize>,
    /// Enclosing loops: (iter, begin, end).
    stack: Vec<(String, Expr, Expr)>,
    /// Stored tensors snapshotted after their defining store rather than at
    /// `VarDef`-scope exit (see [`deep_tape_plan`]).
    deep_tape: HashSet<String>,
    /// Declared shape of every `VarDef` seen so far (store-site snapshots
    /// need it after the `VarDef` arm has already given `shape` away).
    shapes: HashMap<String, Vec<Expr>>,
    tmp: usize,
    size_params: HashSet<String>,
    /// Injected miscompilation, if any (see [`AdFault`]).
    fault: Option<AdFault>,
}

/// Decide which `Store`-decided tensors need *per-store* taping.
///
/// The default tape snapshot runs at `VarDef`-scope exit, which records only
/// the value a location holds when the scope ends. That is correct as long
/// as no location is overwritten across iterations of a loop nested inside
/// the scope — formally, for every store deeper than the `VarDef`, each of
/// the intervening loop iterators must appear in the store's indices (each
/// iteration then writes a distinct location, e.g. `dot[k] = …` inside
/// `for k`). A scalar temporary reused across an inner loop (`d = …` inside
/// `for c` with `d` declared outside) violates this: the backward pass would
/// read the final iteration's value everywhere. Such tensors are instead
/// snapshotted immediately after their store, with one tape dimension per
/// loop enclosing the *store*.
///
/// # Errors
///
/// [`AdError::Unsupported`] when per-store taping is needed but unsound:
/// several store sites, a self-referencing store, or reads outside the
/// store's loop nest (those would need the previous iteration's value).
fn deep_tape_plan(
    func: &Func,
    decisions: &HashMap<String, MaterializeDecision>,
) -> Result<HashSet<String>, AdError> {
    #[derive(Default)]
    struct Info {
        /// Per store: (iterators between `VarDef` and store, free variables
        /// of the store indices, whether the value reads the tensor itself).
        stores: Vec<(Vec<String>, HashSet<String>, bool)>,
        reduces: usize,
        /// Iterator stacks (relative to the `VarDef`) of statements that
        /// read the tensor.
        load_sites: Vec<Vec<String>>,
    }
    fn record_loads(
        exprs: &[&Expr],
        stack: &[String],
        defs: &HashMap<String, usize>,
        info: &mut HashMap<String, Info>,
    ) {
        for e in exprs {
            for v in e.loaded_vars() {
                if let Some(&d) = defs.get(&v) {
                    info.entry(v).or_default().load_sites.push(stack[d..].to_vec());
                }
            }
        }
    }
    fn walk(
        s: &Stmt,
        stack: &mut Vec<String>,
        defs: &mut HashMap<String, usize>,
        info: &mut HashMap<String, Info>,
    ) {
        match &s.kind {
            StmtKind::VarDef { name, body, .. } => {
                let prev = defs.insert(name.clone(), stack.len());
                walk(body, stack, defs, info);
                match prev {
                    Some(d) => {
                        defs.insert(name.clone(), d);
                    }
                    None => {
                        defs.remove(name);
                    }
                }
            }
            StmtKind::For { iter, body, .. } => {
                stack.push(iter.clone());
                walk(body, stack, defs, info);
                stack.pop();
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => {
                if let Some(&d) = defs.get(var) {
                    let mut idx_vars = HashSet::new();
                    for i in indices {
                        idx_vars.extend(i.free_vars());
                    }
                    let self_load = value.loaded_vars().contains(var);
                    info.entry(var.clone()).or_default().stores.push((
                        stack[d..].to_vec(),
                        idx_vars,
                        self_load,
                    ));
                }
                let exprs: Vec<&Expr> =
                    std::iter::once(value).chain(indices.iter()).collect();
                record_loads(&exprs, stack, defs, info);
            }
            StmtKind::ReduceTo {
                var,
                indices,
                value,
                ..
            } => {
                if defs.contains_key(var) {
                    info.entry(var.clone()).or_default().reduces += 1;
                }
                let exprs: Vec<&Expr> =
                    std::iter::once(value).chain(indices.iter()).collect();
                record_loads(&exprs, stack, defs, info);
            }
            _ => {
                for c in s.children() {
                    walk(c, stack, defs, info);
                }
            }
        }
    }
    let mut info: HashMap<String, Info> = HashMap::new();
    walk(
        &func.body,
        &mut Vec::new(),
        &mut HashMap::new(),
        &mut info,
    );
    let mut deep = HashSet::new();
    for (t, i) in info {
        if decisions.get(&t) != Some(&MaterializeDecision::Store) {
            continue;
        }
        // Accumulators keep the end-of-scope snapshot (backward reads want
        // the final reduced value), as do tensors whose deeper stores each
        // cover the intervening iterators with their indices.
        if i.reduces > 0 || i.stores.iter().all(|(rel, _, _)| rel.is_empty()) {
            continue;
        }
        let covered = i
            .stores
            .iter()
            .all(|(rel, idx_vars, _)| rel.iter().all(|it| idx_vars.contains(it)));
        if covered {
            continue;
        }
        if i.stores.len() != 1 {
            return Err(AdError::Unsupported(format!(
                "`{t}` is overwritten across an inner loop from {} store sites; \
                 per-store taping supports exactly one",
                i.stores.len()
            )));
        }
        let (rel, _, self_load) = &i.stores[0];
        if *self_load {
            return Err(AdError::Unsupported(format!(
                "`{t}` is overwritten across an inner loop by a self-referencing \
                 store; the previous version cannot be taped"
            )));
        }
        if let Some(bad) = i.load_sites.iter().find(|ls| !ls.starts_with(rel)) {
            return Err(AdError::Unsupported(format!(
                "`{t}` is overwritten inside loop nest {rel:?} but read under \
                 {bad:?}; reads outside the storing nest would see a stale tape"
            )));
        }
        deep.insert(t);
    }
    Ok(deep)
}

impl Grad<'_> {
    fn stored(&self, t: &str) -> bool {
        self.decisions.get(t) == Some(&MaterializeDecision::Store)
    }

    fn recomputed(&self, t: &str) -> bool {
        self.decisions.get(t) == Some(&MaterializeDecision::Recompute)
    }

    /// A tape is declared at function scope, one dimension per enclosing
    /// loop plus `shape`: every one of those extents must be over size
    /// parameters only (a `cache`d window can have an iterator in its shape).
    fn check_tapeable_bounds(&self, t: &str, shape: &[Expr]) -> Result<(), AdError> {
        let bounds = self.stack.iter().flat_map(|(_, b, e)| [b, e]);
        for expr in bounds.chain(shape) {
            for v in expr.free_vars() {
                if !self.size_params.contains(&v) {
                    return Err(AdError::Unsupported(format!(
                        "tape for `{t}` needs loop bounds and a shape over size parameters \
                         only (found iterator `{v}`)"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Forward pass: original statements plus end-of-scope tape snapshots
    /// for every tensor decided `Store`.
    fn instrument_forward(&mut self, s: Stmt) -> Result<Stmt, AdError> {
        let Stmt { id, label, kind } = s;
        let kind = match kind {
            StmtKind::Block(v) => StmtKind::Block(
                v.into_iter()
                    .map(|st| self.instrument_forward(st))
                    .collect::<Result<_, _>>()?,
            ),
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                atype,
                body,
            } => {
                self.shapes.insert(name.clone(), shape.clone());
                let body = self.instrument_forward(*body)?;
                let body = if self.stored(&name) && !self.deep_tape.contains(&name) {
                    self.check_tapeable_bounds(&name, &shape)?;
                    // Tape dims: one per enclosing loop (symbolic versions,
                    // §5.1) plus the tensor's own dims.
                    let mut dims: Vec<Expr> = self
                        .stack
                        .iter()
                        .map(|(_, b, e)| const_fold_expr(e.clone() - b.clone()))
                        .collect();
                    dims.extend(shape.iter().cloned());
                    self.versions.insert(name.clone(), self.stack.len());
                    self.tapes.push((tape_name(&name), dims, dtype));
                    let snapshot = self.snapshot(&name, &shape);
                    Stmt::new(StmtKind::Block(vec![body, snapshot]))
                } else {
                    body
                };
                StmtKind::VarDef {
                    name,
                    shape,
                    dtype,
                    mtype,
                    atype,
                    body: Box::new(body),
                }
            }
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                self.stack
                    .push((iter.clone(), begin.clone(), end.clone()));
                let body = self.instrument_forward(*body)?;
                self.stack.pop();
                StmtKind::For {
                    iter,
                    begin,
                    end,
                    property,
                    body: Box::new(body),
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => StmtKind::If {
                cond,
                then: Box::new(self.instrument_forward(*then)?),
                otherwise: match otherwise {
                    Some(o) => Some(Box::new(self.instrument_forward(*o)?)),
                    None => None,
                },
            },
            StmtKind::Store {
                var,
                indices,
                value,
            } if self.deep_tape.contains(&var) => {
                // Per-store taping: snapshot right after the store, with one
                // version dimension per loop enclosing the *store* (see
                // `deep_tape_plan`). The tape declaration happens here too —
                // `deep_tape_plan` guarantees a single store site.
                let shape = self.shapes.get(&var).cloned().unwrap_or_default();
                self.check_tapeable_bounds(&var, &shape)?;
                let dtype = self.dtypes.get(&var).copied().unwrap_or(DataType::F64);
                let mut dims: Vec<Expr> = self
                    .stack
                    .iter()
                    .map(|(_, b, e)| const_fold_expr(e.clone() - b.clone()))
                    .collect();
                dims.extend(shape.iter().cloned());
                self.versions.insert(var.clone(), self.stack.len());
                self.tapes.push((tape_name(&var), dims, dtype));
                let snapshot = self.snapshot(&var, &shape);
                let store = Stmt {
                    id,
                    label,
                    kind: StmtKind::Store {
                        var,
                        indices,
                        value,
                    },
                };
                return Ok(Stmt::new(StmtKind::Block(vec![store, snapshot])));
            }
            k => k,
        };
        Ok(Stmt { id, label, kind })
    }

    /// Version subscripts for the current loop stack: `iter - begin` each.
    fn version_indices(&self) -> Vec<Expr> {
        self.stack
            .iter()
            .map(|(it, b, _)| const_fold_expr(builder::var(it) - b.clone()))
            .collect()
    }

    /// `for c…: t.tape[versions…, c…] = t[c…]`.
    fn snapshot(&mut self, t: &str, shape: &[Expr]) -> Stmt {
        let iters: Vec<String> = (0..shape.len()).map(|d| format!("{t}.s{d}")).collect();
        let elem: Vec<Expr> = iters.iter().map(builder::var).collect();
        let mut idx = self.version_indices();
        idx.extend(elem.iter().cloned());
        let mut stmt = builder::store(
            tape_name(t),
            idx,
            Expr::Load {
                var: t.to_string(),
                indices: elem,
            },
        );
        for (it, ext) in iters.iter().zip(shape).rev() {
            stmt = builder::for_(it, 0, ext.clone(), stmt);
        }
        stmt
    }

    /// Replace value-loads of `Store`-decided tensors with tape loads,
    /// indexed by the current (mirrored) loop iterators.
    fn tape_substitute(&self, e: &Expr) -> Expr {
        match e {
            Expr::Load { var, indices } if self.stored(var) => {
                let nvers = self.versions.get(var).copied().unwrap_or(0);
                let mut idx: Vec<Expr> = self.stack[..nvers]
                    .iter()
                    .map(|(it, b, _)| {
                        if self.fault == Some(AdFault::DropTapeVersionBump) {
                            Expr::IntConst(0)
                        } else {
                            const_fold_expr(builder::var(it) - b.clone())
                        }
                    })
                    .collect();
                idx.extend(indices.iter().map(|i| self.tape_substitute(i)));
                Expr::Load {
                    var: tape_name(var),
                    indices: idx,
                }
            }
            Expr::Load { var, indices } => Expr::Load {
                var: var.clone(),
                indices: indices.iter().map(|i| self.tape_substitute(i)).collect(),
            },
            Expr::Unary { op, a } => Expr::unary(*op, self.tape_substitute(a)),
            Expr::Binary { op, a, b } => {
                Expr::binary(*op, self.tape_substitute(a), self.tape_substitute(b))
            }
            Expr::Select {
                cond,
                then,
                otherwise,
            } => Expr::select(
                self.tape_substitute(cond),
                self.tape_substitute(then),
                self.tape_substitute(otherwise),
            ),
            Expr::Cast { dtype, a } => Expr::cast(*dtype, self.tape_substitute(a)),
            other => other.clone(),
        }
    }

}

impl Grad<'_> {
    /// Build the reversed (backward) pass of a statement.
    fn backward(&mut self, s: &Stmt) -> Result<Stmt, AdError> {
        match &s.kind {
            StmtKind::Empty | StmtKind::LibCall { .. } => Ok(builder::empty()),
            StmtKind::Block(v) => {
                let mut out: Vec<Stmt> = Vec::new();
                // Re-emit recompute definitions first, in forward order
                // (paper Fig. 15(c)): any direct child that only stores into
                // recompute-decided tensors — a bare store or a whole loop
                // nest — is replayed, with loads of taped tensors redirected
                // to their tapes.
                for st in v {
                    let (writes, all_stores) = written_tensors(st);
                    if !writes.is_empty()
                        && all_stores
                        && writes.iter().all(|t| self.recomputed(t))
                    {
                        let replay = self.tape_substitute_stmt(refresh_ids(st));
                        out.push(replay);
                    }
                }
                for st in v.iter().rev() {
                    // The recompute definitions' own pullback still runs:
                    // it routes gradients onward to the inputs.
                    out.push(self.backward(st)?);
                }
                Ok(Stmt::new(StmtKind::Block(out)))
            }
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body: def_body,
                ..
            } => {
                let body = self.backward(def_body)?;
                // The backward incarnation of the tensor (fresh, zeroed;
                // refilled by recomputation when needed).
                let bwd_name = format!("{name}.b");
                let body = rename_var_stmt(body, name, &bwd_name);
                let with_grad = if (self.active)(name) {
                    builder::var_def(
                        grad_name(name),
                        shape.clone(),
                        *dtype,
                        *mtype,
                        body,
                    )
                } else {
                    body
                };
                Ok(builder::var_def(
                    bwd_name,
                    shape.clone(),
                    *dtype,
                    *mtype,
                    with_grad,
                ))
            }
            StmtKind::For {
                iter,
                begin,
                end,
                body,
                ..
            } => {
                self.stack
                    .push((iter.clone(), begin.clone(), end.clone()));
                let mut inner = self.backward(body)?;
                self.stack.pop();
                if !accumulate_only(body) {
                    // Iterate in reverse: i := begin + end - 1 - i.
                    let reversed_iter =
                        const_fold_expr(begin.clone() + end.clone() - 1 - builder::var(iter));
                    inner = subst_var_stmt(inner, iter, &reversed_iter);
                }
                Ok(builder::for_(
                    iter.clone(),
                    begin.clone(),
                    end.clone(),
                    inner,
                ))
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                let t = self.backward(then)?;
                match otherwise {
                    Some(o) => {
                        let o = self.backward(o)?;
                        Ok(builder::if_else(cond.clone(), t, o))
                    }
                    None => Ok(builder::if_(cond.clone(), t)),
                }
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => {
                if !(self.active)(var) {
                    return Ok(builder::empty());
                }
                // g = var.grad[idx]; var.grad[idx] = 0; then contributions
                // flow with adjoint g (handles self-referencing stores).
                self.tmp += 1;
                let g = format!("ad.g{}", self.tmp);
                let dtype = self.dtypes.get(var).copied().unwrap_or(DataType::F64);
                let mut stmts = vec![
                    builder::store(
                        &g,
                        builder::scalar(),
                        Expr::Load {
                            var: grad_name(var),
                            indices: indices.clone(),
                        },
                    ),
                    builder::store(grad_name(var), indices.clone(), ReduceOp::Add.identity(dtype)),
                ];
                let adj = Expr::Load {
                    var: g.clone(),
                    indices: vec![],
                };
                for c in pullback(value, &adj, self.active)? {
                    stmts.push(builder::reduce(
                        grad_name(&c.target),
                        c.indices.iter().map(|i| self.tape_substitute(i)),
                        ReduceOp::Add,
                        self.tape_substitute(&c.value),
                    ));
                }
                Ok(builder::var_def(
                    g,
                    Vec::<Expr>::new(),
                    dtype,
                    MemType::CpuStack,
                    Stmt::new(StmtKind::Block(stmts)),
                ))
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                ..
            } => {
                if !(self.active)(var) {
                    return Ok(builder::empty());
                }
                match op {
                    ReduceOp::Add => {
                        let adj = Expr::Load {
                            var: grad_name(var),
                            indices: indices.clone(),
                        };
                        let mut stmts = Vec::new();
                        for c in pullback(value, &adj, self.active)? {
                            stmts.push(builder::reduce(
                                grad_name(&c.target),
                                c.indices.iter().map(|i| self.tape_substitute(i)),
                                ReduceOp::Add,
                                self.tape_substitute(&c.value),
                            ));
                        }
                        Ok(Stmt::new(StmtKind::Block(stmts)))
                    }
                    // Extremum reductions (numerical-stability shifts like
                    // softmax's running max) are treated as locally constant:
                    // the shift's gradient contributions cancel analytically,
                    // so the subgradient through the max is dropped.
                    ReduceOp::Max | ReduceOp::Min => Ok(builder::empty()),
                    ReduceOp::Mul => Err(AdError::Unsupported(
                        "multiplicative reductions".to_string(),
                    )),
                }
            }
        }
    }
}

/// Whether the backward pass of a loop with body `s` may run its iterations
/// in forward order: `s` is, through nested `For`s and `Block`s only, nothing
/// but `+=` into tensors it never loads, and writes of 0-d `VarDef`s bound
/// inside it (the values `name.rs` introduces), which live for one
/// iteration. The backward iterations then read the adjoints of those
/// targets and `+=` into the adjoints of the tensors loaded — two disjoint
/// sets — so their order decides rounding only, and ascending subscripts
/// are the ones a C compiler vectorizes.
fn accumulate_only(s: &Stmt) -> bool {
    fn walk<'a>(
        s: &'a Stmt,
        locals: &mut Vec<&'a str>,
        targets: &mut HashSet<String>,
        loads: &mut HashSet<String>,
    ) -> bool {
        match &s.kind {
            StmtKind::Block(v) => v.iter().all(|c| walk(c, locals, targets, loads)),
            StmtKind::For {
                begin, end, body, ..
            } => {
                loads.extend(begin.loaded_vars());
                loads.extend(end.loaded_vars());
                walk(body, locals, targets, loads)
            }
            StmtKind::VarDef {
                name, shape, body, ..
            } if shape.is_empty() => {
                locals.push(name);
                let ok = walk(body, locals, targets, loads);
                locals.pop();
                ok
            }
            StmtKind::Store { var, value, .. } if locals.contains(&var.as_str()) => {
                loads.extend(value.loaded_vars());
                true
            }
            StmtKind::ReduceTo {
                var,
                indices,
                op: ReduceOp::Add,
                value,
                ..
            } => {
                if !locals.contains(&var.as_str()) {
                    targets.insert(var.clone());
                }
                for e in indices.iter().chain([value]) {
                    loads.extend(e.loaded_vars());
                }
                true
            }
            _ => false,
        }
    }
    let (mut targets, mut loads) = (HashSet::new(), HashSet::new());
    walk(s, &mut Vec::new(), &mut targets, &mut loads) && targets.is_disjoint(&loads)
}

/// The set of tensors written in a sub-tree, and whether every write is a
/// plain `Store`.
fn written_tensors(s: &Stmt) -> (HashSet<String>, bool) {
    let mut writes = HashSet::new();
    let mut all_stores = true;
    s.walk(&mut |st| match &st.kind {
        StmtKind::Store { var, .. } => {
            writes.insert(var.clone());
        }
        StmtKind::ReduceTo { var, .. } => {
            writes.insert(var.clone());
            all_stores = false;
        }
        StmtKind::LibCall { outputs, .. } => {
            writes.extend(outputs.iter().cloned());
            all_stores = false;
        }
        _ => {}
    });
    (writes, all_stores)
}

impl Grad<'_> {
    /// Apply [`Grad::tape_substitute`] to every expression in a statement
    /// (used when replaying recompute definitions in the backward pass).
    fn tape_substitute_stmt(&self, s: Stmt) -> Stmt {
        let Stmt { id, label, kind } = s;
        let kind = match kind {
            StmtKind::Block(v) => StmtKind::Block(
                v.into_iter().map(|st| self.tape_substitute_stmt(st)).collect(),
            ),
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                atype,
                body,
            } => StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                atype,
                body: Box::new(self.tape_substitute_stmt(*body)),
            },
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => StmtKind::For {
                iter,
                begin: self.tape_substitute(&begin),
                end: self.tape_substitute(&end),
                property,
                body: Box::new(self.tape_substitute_stmt(*body)),
            },
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => StmtKind::If {
                cond: self.tape_substitute(&cond),
                then: Box::new(self.tape_substitute_stmt(*then)),
                otherwise: otherwise.map(|o| Box::new(self.tape_substitute_stmt(*o))),
            },
            StmtKind::Store {
                var,
                indices,
                value,
            } => StmtKind::Store {
                var,
                indices: indices.iter().map(|i| self.tape_substitute(i)).collect(),
                value: self.tape_substitute(&value),
            },
            k => k,
        };
        Stmt { id, label, kind }
    }
}

/// Deep copy with fresh statement identities.
fn refresh_ids(s: &Stmt) -> Stmt {
    let kind = match &s.kind {
        StmtKind::Block(v) => StmtKind::Block(v.iter().map(refresh_ids).collect()),
        StmtKind::VarDef {
            name,
            shape,
            dtype,
            mtype,
            atype,
            body,
        } => StmtKind::VarDef {
            name: name.clone(),
            shape: shape.clone(),
            dtype: *dtype,
            mtype: *mtype,
            atype: *atype,
            body: Box::new(refresh_ids(body)),
        },
        StmtKind::For {
            iter,
            begin,
            end,
            property,
            body,
        } => StmtKind::For {
            iter: iter.clone(),
            begin: begin.clone(),
            end: end.clone(),
            property: property.clone(),
            body: Box::new(refresh_ids(body)),
        },
        StmtKind::If {
            cond,
            then,
            otherwise,
        } => StmtKind::If {
            cond: cond.clone(),
            then: Box::new(refresh_ids(then)),
            otherwise: otherwise.as_ref().map(|o| Box::new(refresh_ids(o))),
        },
        k => k.clone(),
    };
    Stmt::new(kind)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    /// `y[i] = x[i] * x[i]` with a float input, an integer input (unused on
    /// the value path), and one output.
    fn square() -> Func {
        Func::new("square")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("k", [4], DataType::I32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store(
                    "y",
                    [var("i")],
                    load("x", [var("i")]) * load("x", [var("i")]),
                ),
            ))
    }

    fn wrt(names: &[&str]) -> GradOptions {
        GradOptions {
            wrt: Some(names.iter().map(|s| s.to_string()).collect()),
            ..Default::default()
        }
    }

    #[test]
    fn wrt_unknown_name_is_rejected() {
        let e = grad_with(&square(), &wrt(&["nope"])).unwrap_err();
        assert!(
            matches!(&e, AdError::Unsupported(m) if m.contains("unknown wrt")),
            "{e}"
        );
    }

    #[test]
    fn wrt_output_param_is_rejected() {
        // Previously accepted: `y` in wrt produced two parameters both named
        // `y.grad` (the in-out seed and the requested output gradient).
        let e = grad_with(&square(), &wrt(&["y"])).unwrap_err();
        assert!(
            matches!(&e, AdError::Unsupported(m) if m.contains("Output")),
            "{e}"
        );
    }

    #[test]
    fn wrt_integer_input_is_rejected() {
        let e = grad_with(&square(), &wrt(&["k"])).unwrap_err();
        assert!(
            matches!(&e, AdError::Unsupported(m) if m.contains("integer dtype")),
            "{e}"
        );
    }

    #[test]
    fn valid_wrt_yields_unique_param_names() {
        let g = grad_with(&square(), &wrt(&["x"])).unwrap();
        let mut names: Vec<&str> = g.params.iter().map(|p| p.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate gradient parameter names");
    }

    #[test]
    fn only_pure_accumulation_keeps_the_forward_order() {
        let dot = || {
            reduce(
                "dot",
                [var("k")],
                ReduceOp::Add,
                load("Q", [var("j"), var("p")]) * load("K", [var("k"), var("p")]),
            )
        };
        // `dot[k] += Q[j, p] * K[k, p]`, alone or at the bottom of a nest.
        assert!(accumulate_only(&dot()));
        assert!(accumulate_only(&for_("p", 0, 4, block([dot(), dot()]))));
        // A 0-d value bound in the body lives for one iteration: `name.rs`'s
        // `t = Q[j, p]; dot[k] += t * K[k, p]` keeps the forward order.
        let scalar_def = |body| var_def("t", scalar(), DataType::F32, MemType::CpuStack, body);
        let t = || load("t", scalar());
        let named = |use_t: Stmt| {
            scalar_def(block([
                store("t", scalar(), load("Q", [var("j"), var("p")])),
                use_t,
            ]))
        };
        let dot_t = || {
            reduce(
                "dot",
                [var("k")],
                ReduceOp::Add,
                t() * load("K", [var("k"), var("p")]),
            )
        };
        assert!(accumulate_only(&named(dot_t())));
        assert!(accumulate_only(&for_("c", 0, 3, named(for_("k", 0, 4, dot_t())))));
        // Anything else in the body keeps the reversal.
        for body in [
            block([dot(), store("y", [var("p")], 0.0f32)]),
            // The local's value stored to a tensor bound outside the body.
            named(store("y", [var("p")], t())),
            // A 0-d tensor bound outside the body lives across iterations.
            block([store("t", scalar(), load("Q", [var("j"), var("p")])), dot_t()]),
            // A local row is not a named value.
            var_def(
                "r",
                [2],
                DataType::F32,
                MemType::CpuStack,
                block([store("r", [0], 1.0f32), dot()]),
            ),
            // A target the local's value is loaded from.
            named(reduce("Q", [var("j"), var("p")], ReduceOp::Add, t())),
            if_(var("p").lt(2), dot()),
            reduce(
                "m",
                scalar(),
                ReduceOp::Max,
                load("Q", [var("j"), var("p")]),
            ),
            // A target the body also reads is carried from iteration to
            // iteration.
            reduce(
                "dot",
                [var("p")],
                ReduceOp::Add,
                load("dot", [var("p") - 1]),
            ),
        ] {
            assert!(!accumulate_only(&body), "{body}");
        }
    }

    #[test]
    fn backward_loops_ascend_over_accumulations_and_descend_elsewhere() {
        // for i: for p: y[i] += x[i, p] * w[p]    (accumulation in `p`)
        //        z[i] = y[i] * y[i]               (a store: `i` reverses)
        let f = Func::new("f")
            .param("x", [4, 8], DataType::F32, AccessType::Input)
            .param("w", [8], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .param("z", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                block([
                    for_(
                        "p",
                        0,
                        8,
                        reduce(
                            "y",
                            [var("i")],
                            ReduceOp::Add,
                            load("x", [var("i"), var("p")]) * load("w", [var("p")]),
                        ),
                    ),
                    store(
                        "z",
                        [var("i")],
                        load("y", [var("i")]) * load("y", [var("i")]),
                    ),
                ]),
            ));
        let g = grad(&f).unwrap().to_string();
        assert!(
            g.contains("w.grad[p] += y.grad[3 - i] * x[3 - i, p]"),
            "{g}"
        );
        assert!(!g.contains("7 - p"), "{g}");
    }

    #[test]
    fn injected_fault_misindexes_tape_reads() {
        // A taped scalar under a loop: `t = x[i]*x[i]; y[i] = t*t` with
        // TapePolicy::All. The faulty transform must read `t.tape[0]`
        // everywhere instead of `t.tape[i]`.
        let f = Func::new("f")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                var_def(
                    "t",
                    scalar(),
                    DataType::F32,
                    MemType::CpuStack,
                    block([
                        store("t", scalar(), load("x", [var("i")]) * load("x", [var("i")])),
                        store("y", [var("i")], load("t", scalar()) * load("t", scalar())),
                    ]),
                ),
            ));
        let sound = grad_with(
            &f,
            &GradOptions {
                policy: TapePolicy::All,
                ..Default::default()
            },
        )
        .unwrap();
        let faulty = grad_with(
            &f,
            &GradOptions {
                policy: TapePolicy::All,
                fault: Some(AdFault::DropTapeVersionBump),
                ..Default::default()
            },
        )
        .unwrap();
        assert_ne!(
            format!("{sound}"),
            format!("{faulty}"),
            "the injected fault must change the emitted gradient program"
        );
    }
}
