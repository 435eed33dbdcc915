//! The dependence engine: instance-precision RAW/WAR/WAW analysis and the
//! order-violation queries behind every schedule legality check.
//!
//! A dependence query between two accesses is compiled to an integer linear
//! system (see `ft-poly`):
//!
//! * the iteration domains of both instances (loop bounds + branch
//!   conditions), with iterators renamed apart,
//! * subscript equality per affine dimension (non-affine dimensions are
//!   skipped — "may alias anything"),
//! * an execution-order constraint (loop-carried at a given carrier loop, or
//!   loop-independent with syntactic position as tie-breaker).
//!
//! Two FreeTensor-specific refinements (paper Fig. 12) are implemented:
//!
//! * **stack-scope projection**: a dependence on a tensor cannot be carried
//!   by a loop that encloses the tensor's `VarDef` — each iteration owns a
//!   fresh incarnation (Fig. 12(d));
//! * **commutative reductions**: two `ReduceTo`s with the same operator on
//!   the same tensor never constrain each other (Fig. 12(c)).

use crate::access::{collect_accesses, Access, AccessInfo, AccessKind, LoopCtx};
use crate::affine::{affine, cond_constraints, Affine};
use ft_ir::{find, BinaryOp, Expr, Func, ReduceOp, Stmt, StmtId, StmtKind};
use ft_poly::{CmpOp, Rows, Sat};
use std::collections::HashSet;
use std::fmt;

/// Classification of a dependence by the kinds of its endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write (true dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
}

/// What carries a dependence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Carrier {
    /// Carried by the loop with this id (the instances differ in this loop's
    /// iteration, with all outer common iterations equal).
    Loop(StmtId),
    /// Loop-independent (same iteration of every common loop; the sink is
    /// syntactically after the source).
    Independent,
}

/// A dependence found by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct FoundDep {
    /// RAW / WAR / WAW.
    pub kind: DepKind,
    /// The tensor involved.
    pub var: String,
    /// Statement containing the earlier (source) access.
    pub source: StmtId,
    /// Statement containing the later (sink) access.
    pub sink: StmtId,
    /// Carrier loop or loop-independent.
    pub carrier: Carrier,
    /// `true` when the solver certified the dependence exists; `false` when
    /// it could not rule it out (conservative).
    pub certain: bool,
}

/// One line per dependence, as the schedule decision log and the VM's
/// refused regions print it: ``Raw `y` #5 -> #9 @loop #3 certain``.
impl fmt::Display for FoundDep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?} `{}` {} -> {} @",
            self.kind, self.var, self.source, self.sink
        )?;
        match self.carrier {
            Carrier::Loop(id) => write!(f, "loop {id}")?,
            Carrier::Independent => f.write_str("independent")?,
        }
        f.write_str(if self.certain { " certain" } else { " may" })
    }
}

/// A structured legality violation: why a transformation must be rejected,
/// carrying the blocking dependences themselves (not just a message) so
/// callers — notably the schedule decision log — can report *which*
/// dependence was violated.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Human-readable explanation.
    pub reason: String,
    /// The dependences blocking the transformation; empty for structural
    /// failures (e.g. "loop not found") that never reached the solver.
    pub deps: Vec<FoundDep>,
}

impl Violation {
    fn structural(reason: impl Into<String>) -> Violation {
        Violation {
            reason: reason.into(),
            deps: Vec::new(),
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.reason)
    }
}

/// Which instance of a query an iterator belongs to: the source (earlier,
/// named with an `s` suffix) or the sink (`t`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    Source,
    Sink,
}

/// A variable of a dependence query: the iterator of one loop on one side,
/// or a name no enclosing loop binds (a size parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QVar<'f> {
    Iter {
        iter: &'f str,
        id: StmtId,
        side: Side,
    },
    Free(&'f str),
}

impl QVar<'_> {
    /// The variable's name, `{iter}.{loop id}{s|t}` for an iterator, as
    /// bytes: the solver breaks pivot ties in this order.
    fn name_bytes<'b>(&'b self, buf: &'b mut [u8; 24]) -> impl Iterator<Item = u8> + 'b {
        let (head, tail_len) = match *self {
            QVar::Free(name) => (name, 0),
            QVar::Iter { iter, id, side } => {
                let digits = id.0.checked_ilog10().map_or(1, |d| d as usize + 1);
                buf[0] = b'.';
                let mut n = id.0;
                for k in (1..=digits).rev() {
                    buf[k] = b'0' + (n % 10) as u8;
                    n /= 10;
                }
                buf[digits + 1] = if side == Side::Source { b's' } else { b't' };
                (iter, digits + 2)
            }
        };
        head.bytes().chain(buf[..tail_len].iter().copied())
    }

    fn cmp_name(&self, other: &QVar<'_>) -> std::cmp::Ordering {
        let (mut a, mut b) = ([0; 24], [0; 24]);
        self.name_bytes(&mut a).cmp(other.name_bytes(&mut b))
    }
}

/// The integer system of one dependence query, over variables interned per
/// query: no name is built or hashed until the system is solved.
#[derive(Default)]
struct Query<'f> {
    vars: Vec<QVar<'f>>,
    /// `form op 0`, in push order (the solver takes equalities in order).
    rows: Vec<(CmpOp, Affine<usize>)>,
}

impl<'f> Query<'f> {
    fn intern(&mut self, v: QVar<'f>) -> usize {
        match self.vars.iter().position(|w| *w == v) {
            Some(k) => k,
            None => {
                self.vars.push(v);
                self.vars.len() - 1
            }
        }
    }

    /// The iterator of loop `l` on `side`.
    fn iter(&mut self, l: &LoopCtx<'f>, side: Side) -> Affine<usize> {
        let v = self.intern(QVar::Iter {
            iter: l.iter,
            id: l.id,
            side,
        });
        Affine {
            terms: vec![(v, 1)],
            constant: 0,
        }
    }

    /// `name` as `side` sees it inside `loops` (innermost binding wins).
    fn resolve(&mut self, name: &'f str, loops: &[LoopCtx<'f>], side: Side) -> usize {
        let v = match loops.iter().rev().find(|l| l.iter == name) {
            Some(l) => QVar::Iter {
                iter: l.iter,
                id: l.id,
                side,
            },
            None => QVar::Free(name),
        };
        self.intern(v)
    }

    /// `e` over this query's variables, as `side` sees it inside `loops`.
    fn affine(&mut self, e: &'f Expr, loops: &[LoopCtx<'f>], side: Side) -> Option<Affine<usize>> {
        affine(e, &mut |n| self.resolve(n, loops, side))
    }

    /// `a >= 0` or `a == 0`.
    fn push(&mut self, op: CmpOp, a: Affine<usize>) {
        self.rows.push((op, a));
    }

    /// `a < b`.
    fn push_lt(&mut self, a: Affine<usize>, b: Affine<usize>) {
        self.push(CmpOp::Ge0, b.minus(a).plus(Affine::constant(-1)));
    }

    /// Variables numbered in name order, as [`System::satisfiable`] would.
    ///
    /// [`System::satisfiable`]: ft_poly::System::satisfiable
    fn satisfiable(&self) -> Sat {
        let n = self.vars.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| self.vars[a].cmp_name(&self.vars[b]));
        let mut column = vec![0; n];
        for (k, &v) in order.iter().enumerate() {
            column[v] = k;
        }
        let mut rows = Rows::new(n);
        for (op, a) in &self.rows {
            let mut row = vec![0; n + 1];
            for &(v, c) in &a.terms {
                row[column[v]] += c;
            }
            row[n] = a.constant;
            rows.push(*op, row);
        }
        rows.satisfiable()
    }
}

/// Call `f` on every operand of a chain of `op`s (on `e` itself when it is
/// not one): each operand of a `max` lower bound or a `min` upper bound
/// bounds the iterator on its own.
fn for_each_operand<'e>(e: &'e Expr, op: BinaryOp, f: &mut impl FnMut(&'e Expr)) {
    match e {
        Expr::Binary { op: o, a, b } if *o == op => {
            for_each_operand(a, op, f);
            for_each_operand(b, op, f);
        }
        _ => f(e),
    }
}

/// Add the iteration-domain constraints of one access side. A bound that is
/// not affine — or an operand of a `min`/`max` bound that is not — adds
/// nothing: the domain only grows, which is the conservative direction.
fn domain_constraints<'f>(acc: &Access<'f>, side: Side, q: &mut Query<'f>) {
    // A loop's bounds see only the *outer* iterators as this side's.
    for (k, l) in acc.loops.iter().enumerate() {
        let outer = &acc.loops[..k];
        for_each_operand(l.begin, BinaryOp::Max, &mut |lo| {
            if let Some(lo) = q.affine(lo, outer, side) {
                let v = q.iter(l, side);
                q.push(CmpOp::Ge0, v.minus(lo));
            }
        });
        for_each_operand(l.end, BinaryOp::Min, &mut |hi| {
            if let Some(hi) = q.affine(hi, outer, side) {
                let v = q.iter(l, side);
                q.push_lt(v, hi);
            }
        });
    }
    for (cond, taken) in acc.conds.iter() {
        let mut rows = Vec::new();
        cond_constraints(
            cond,
            *taken,
            &mut |n| q.resolve(n, &acc.loops, side),
            &mut |op, a| rows.push((op, a)),
        );
        q.rows.extend(rows);
    }
}

/// Add subscript-equality constraints for the affine dimensions.
fn subscript_constraints<'f>(a: &Access<'f>, b: &Access<'f>, q: &mut Query<'f>) {
    // A LibCall access has no subscripts and aliases the whole tensor:
    // mismatched arity also means "may alias" — skip equality entirely.
    if a.indices.len() != b.indices.len() {
        return;
    }
    for (ia, ib) in a.indices.iter().zip(b.indices) {
        let la = q.affine(ia, &a.loops, Side::Source);
        let lb = q.affine(ib, &b.loops, Side::Sink);
        if let (Some(la), Some(lb)) = (la, lb) {
            q.push(CmpOp::Eq0, la.minus(lb));
        }
        // Non-affine dimension: may alias anything — no constraint.
    }
}

/// The system every query about the pair starts from, `a` on the source
/// side and `b` on the sink side: both iteration domains, subscript
/// equality, and the stack-scope incarnation constraint (Fig. 12(d)) — two
/// instances can only touch the *same* incarnation of a locally defined
/// tensor when they agree on every loop enclosing its `VarDef`, because
/// each iteration of such a loop allocates a fresh tensor.
fn pair_system<'f>(info: &AccessInfo, a: &Access<'f>, b: &Access<'f>) -> Query<'f> {
    let mut q = Query::default();
    domain_constraints(a, Side::Source, &mut q);
    domain_constraints(b, Side::Sink, &mut q);
    subscript_constraints(a, b, &mut q);
    if let Some(containing) = info.def_loops(a) {
        lockstep(
            &mut q,
            common_loops(a, b).filter(|c| containing.contains(&c.id)),
        );
    }
    q
}

/// Both instances run the same iteration of each of `loops`.
fn lockstep<'a, 'f: 'a>(q: &mut Query<'f>, loops: impl IntoIterator<Item = &'a LoopCtx<'f>>) {
    for c in loops {
        let (s, t) = (q.iter(c, Side::Source), q.iter(c, Side::Sink));
        q.push(CmpOp::Eq0, s.minus(t));
    }
}

/// The `first` instance runs an earlier iteration of `c` than the `then`
/// one.
fn earlier<'f>(q: &mut Query<'f>, c: &LoopCtx<'f>, first: Side, then: Side) {
    let (a, b) = (q.iter(c, first), q.iter(c, then));
    q.push_lt(a, b);
}

/// The loops common to both accesses (shared prefix of enclosing loops).
fn common_loops<'a, 'f>(
    a: &'a Access<'f>,
    b: &'a Access<'f>,
) -> impl Iterator<Item = &'a LoopCtx<'f>> {
    a.loops
        .iter()
        .zip(b.loops.iter())
        .take_while(|(x, y)| x.id == y.id)
        .map(|(x, _)| x)
}

/// Whether `a` runs inside loop `l`.
fn inside(a: &Access, l: StmtId) -> bool {
    a.loops.iter().any(|c| c.id == l)
}

/// Does a dependence with `a` as source (earlier) and `b` as sink (later)
/// exist under the given carrier?
///
/// `Sat::Empty` means certainly not; `NonEmpty` certainly yes; `Unknown` is
/// treated by callers as "maybe" (conservative). The structural refusals —
/// a carrier not common to the pair, a carrier enclosing the tensor's
/// `VarDef` (Fig. 12(d)), a loop-independent source that is not
/// syntactically earlier — are answered before any system is built.
pub fn dep_exists(info: &AccessInfo, a: &Access, b: &Access, carrier: Carrier) -> Sat {
    let common: Vec<&LoopCtx> = common_loops(a, b).collect();
    let (same, carrying) = match carrier {
        Carrier::Loop(l) => {
            let Some(d) = common.iter().position(|c| c.id == l) else {
                return Sat::Empty; // not a common loop: cannot carry
            };
            if info
                .def_loops(a)
                .is_some_and(|containing| containing.contains(&l))
            {
                return Sat::Empty;
            }
            (&common[..d], Some(common[d]))
        }
        Carrier::Independent => {
            if a.pos >= b.pos {
                return Sat::Empty; // source must be syntactically earlier
            }
            (&common[..], None)
        }
    };
    let mut q = pair_system(info, a, b);
    lockstep(&mut q, same.iter().copied());
    if let Some(c) = carrying {
        earlier(&mut q, c, Side::Source, Side::Sink);
    }
    q.satisfiable()
}

fn classify(a: AccessKind, b: AccessKind) -> DepKind {
    match (a.writes(), b.writes()) {
        (true, true) => DepKind::Waw,
        (true, false) => DepKind::Raw,
        (false, true) => DepKind::War,
        (false, false) => unreachable!("read-read pairs are filtered out"),
    }
}

/// Whether two accesses may touch one cell: the same name bound to the same
/// definition, and no dimension where both subscripts are constants that
/// differ (`y[i, 0]` and `y[i, 1]` never meet — the one case no solver is
/// needed for, and unrolled bodies are full of it).
fn may_meet(a: &Access, b: &Access) -> bool {
    let distinct =
        |(x, y): (&Expr, &Expr)| matches!((x, y), (Expr::IntConst(p), Expr::IntConst(q)) if p != q);
    a.def == b.def
        && a.var == b.var
        && (a.indices.len() != b.indices.len() || !a.indices.iter().zip(b.indices).any(distinct))
}

/// Whether a pair of accesses can be ignored entirely: read-read pairs,
/// pairs that never meet, and same-operator reduce-reduce pairs (Fig.
/// 12(c)).
fn ignorable(a: &Access, b: &Access) -> bool {
    if !may_meet(a, b) || (!a.kind.writes() && !b.kind.writes()) {
        return true;
    }
    matches!(
        (a.kind, b.kind),
        (AccessKind::Reduce(x), AccessKind::Reduce(y)) if x == y
    )
}

fn found(a: &Access, b: &Access, carrier: Carrier, sat: Sat) -> FoundDep {
    FoundDep {
        kind: classify(a.kind, b.kind),
        var: a.var.to_string(),
        source: a.stmt,
        sink: b.stmt,
        carrier,
        certain: sat == Sat::NonEmpty,
    }
}

/// Compute every dependence in the function: for each conflicting access
/// pair, each possible carrier loop plus the loop-independent case. The
/// unscoped reference the scoped queries below are tested against.
pub fn all_deps(func: &Func) -> Vec<FoundDep> {
    let info = collect_accesses(func);
    let mut out = Vec::new();
    for a in &info.accesses {
        for b in &info.accesses {
            if ignorable(a, b) {
                continue;
            }
            for c in common_loops(a, b) {
                let carrier = Carrier::Loop(c.id);
                match dep_exists(&info, a, b, carrier) {
                    Sat::Empty => {}
                    sat => out.push(found(a, b, carrier, sat)),
                }
            }
            match dep_exists(&info, a, b, Carrier::Independent) {
                Sat::Empty => {}
                sat => out.push(found(a, b, Carrier::Independent, sat)),
            }
        }
    }
    out
}

/// Dependences carried by a specific loop: those that block parallelizing
/// it (paper Fig. 13). Same-operator reduce pairs are exempt (they lower to
/// atomics or parallel reductions); everything else carried by it counts.
pub fn loop_carried_deps(func: &Func, loop_id: StmtId) -> Vec<FoundDep> {
    loop_carried_deps_in(&collect_accesses(func), loop_id)
}

/// [`loop_carried_deps`] over the accesses of a function already collected
/// in `info`. Only accesses inside the loop are paired: no other pair has it
/// as a common loop.
pub fn loop_carried_deps_in(info: &AccessInfo, loop_id: StmtId) -> Vec<FoundDep> {
    let under: Vec<&Access> = info
        .accesses
        .iter()
        .filter(|a| inside(a, loop_id))
        .collect();
    let carrier = Carrier::Loop(loop_id);
    let mut out = Vec::new();
    for a in &under {
        for b in &under {
            if ignorable(a, b) {
                continue;
            }
            match dep_exists(info, a, b, carrier) {
                Sat::Empty => {}
                sat => out.push(found(a, b, carrier, sat)),
            }
        }
    }
    out
}

/// Reduce statements under `loop_id` whose target element may be updated by
/// more than one iteration of the loop — these must become atomic updates or
/// parallel reductions when the loop is parallelized (Fig. 13(d)/(e)).
pub fn carried_reductions(func: &Func, loop_id: StmtId) -> Vec<StmtId> {
    carried_reductions_in(&collect_accesses(func), loop_id)
}

/// [`carried_reductions`] over accesses already collected in `info`.
pub fn carried_reductions_in(info: &AccessInfo, loop_id: StmtId) -> Vec<StmtId> {
    let reduces: Vec<(&Access, ReduceOp)> = info
        .accesses
        .iter()
        .filter(|a| inside(a, loop_id))
        .filter_map(|a| match a.kind {
            AccessKind::Reduce(op) => Some((a, op)),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for (a, op_a) in &reduces {
        for (b, op_b) in &reduces {
            if !may_meet(a, b) || op_a != op_b {
                continue;
            }
            if dep_exists(info, a, b, Carrier::Loop(loop_id)) != Sat::Empty {
                for s in [a.stmt, b.stmt] {
                    if !out.contains(&s) {
                        out.push(s);
                    }
                }
            }
        }
    }
    out
}

/// Ids of all statements in the subtree rooted at `root`.
pub fn subtree_ids(root: &Stmt) -> HashSet<StmtId> {
    let mut set = HashSet::new();
    root.walk(&mut |s| {
        set.insert(s.id);
    });
    set
}

/// The violation reporting that a transformation would reverse the
/// dependence `a -> b` (carried by `carrier`).
fn reversed(what: &str, a: &Access, b: &Access, carrier: Carrier, sat: Sat) -> Violation {
    Violation {
        reason: format!(
            "{what} would reverse a dependence on `{}` ({} -> {})",
            a.var, a.stmt, b.stmt
        ),
        deps: vec![found(a, b, carrier, sat)],
    }
}

/// Legality of fusing consecutive loops `l1` (first) and `l2` (second).
///
/// After fusion, `l2`'s body at normalized iteration `j` runs *before*
/// `l1`'s body at any normalized iteration `i > j`; fusion is illegal iff a
/// conflict exists between such instances (paper's `dot_max` example,
/// Fig. 8→10). Returns a [`Violation`] (reason + blocking dependences) when
/// illegal.
pub fn fuse_illegal(func: &Func, l1: StmtId, l2: StmtId) -> Option<Violation> {
    let (Some(loop1), Some(loop2)) = (
        find::find_by_id(&func.body, l1),
        find::find_by_id(&func.body, l2),
    ) else {
        return Some(Violation::structural("loop not found"));
    };
    let (StmtKind::For { begin: b1, .. }, StmtKind::For { begin: b2, .. }) =
        (&loop1.kind, &loop2.kind)
    else {
        return Some(Violation::structural("not loops"));
    };
    let info = collect_accesses(func);
    let in1 = info
        .accesses
        .iter()
        .filter_map(|a| Some((a, a.loops.iter().find(|l| l.id == l1)?)));
    let in2: Vec<(&Access, &LoopCtx)> = info
        .accesses
        .iter()
        .filter_map(|b| Some((b, b.loops.iter().find(|l| l.id == l2)?)))
        .collect();
    for (a, ia) in in1 {
        for (b, jb) in &in2 {
            if ignorable(a, b) {
                continue;
            }
            let mut q = pair_system(&info, a, b);
            // Normalized iterations: (i - begin1) vs (j - begin2).
            let (Some(lb1), Some(lb2)) = (
                q.affine(b1, &a.loops, Side::Source),
                q.affine(b2, &b.loops, Side::Sink),
            ) else {
                return Some(Violation::structural("non-affine loop begin"));
            };
            // Common outer loops (everything above l1/l2) run in lockstep.
            lockstep(&mut q, common_loops(a, b));
            // j_norm < i_norm would be reversed by fusion.
            let (j, i) = (q.iter(jb, Side::Sink), q.iter(ia, Side::Source));
            q.push_lt(j.minus(lb2), i.minus(lb1));
            let sat = q.satisfiable();
            if sat != Sat::Empty {
                return Some(reversed("fusing", a, b, Carrier::Loop(l1), sat));
            }
        }
    }
    None
}

/// Legality of fissioning loop `loop_id` into the statements selected by
/// `in_first` followed by the rest.
///
/// After fission every first-part iteration runs before any second-part
/// iteration; illegal iff a second-part instance at iteration `i` conflicts
/// with a first-part instance at iteration `j > i`.
pub fn fission_illegal(
    func: &Func,
    loop_id: StmtId,
    in_first: &dyn Fn(StmtId) -> bool,
) -> Option<Violation> {
    if find::find_by_id(&func.body, loop_id).is_none() {
        return Some(Violation::structural("loop not found"));
    }
    let info = collect_accesses(func);
    let (first, second): (Vec<&Access>, Vec<&Access>) = info
        .accesses
        .iter()
        .filter(|a| inside(a, loop_id))
        .partition(|a| in_first(a.stmt));
    // a in the second part (earlier in original), b in the first part.
    for a in &second {
        for b in &first {
            if ignorable(a, b) {
                continue;
            }
            let common: Vec<&LoopCtx> = common_loops(a, b).collect();
            let Some(d) = common.iter().position(|c| c.id == loop_id) else {
                continue;
            };
            let mut q = pair_system(&info, a, b);
            lockstep(&mut q, common[..d].iter().copied());
            // second-part at i strictly before first-part at j (i < j) in the
            // original order — reversed after fission.
            earlier(&mut q, common[d], Side::Source, Side::Sink);
            let sat = q.satisfiable();
            if sat != Sat::Empty {
                return Some(reversed("fission", a, b, Carrier::Loop(loop_id), sat));
            }
        }
    }
    None
}

/// Legality of swapping two consecutive statements `s1` (first) and `s2`.
///
/// Swapping only permutes the two bodies *within* one iteration of the
/// common loops, so it is illegal iff they conflict at equal iterations.
pub fn swap_illegal(func: &Func, s1: StmtId, s2: StmtId) -> Option<Violation> {
    let (Some(st1), Some(st2)) = (
        find::find_by_id(&func.body, s1),
        find::find_by_id(&func.body, s2),
    ) else {
        return Some(Violation::structural("statement not found"));
    };
    let info = collect_accesses(func);
    let ids1 = subtree_ids(st1);
    let ids2 = subtree_ids(st2);
    let in2: Vec<&Access> = info
        .accesses
        .iter()
        .filter(|x| ids2.contains(&x.stmt))
        .collect();
    for a in info.accesses.iter().filter(|x| ids1.contains(&x.stmt)) {
        for b in &in2 {
            if ignorable(a, b) {
                continue;
            }
            let mut q = pair_system(&info, a, b);
            lockstep(&mut q, common_loops(a, b));
            let sat = q.satisfiable();
            if sat != Sat::Empty {
                return Some(Violation {
                    reason: format!(
                        "statements conflict on `{}` within one iteration",
                        a.var
                    ),
                    deps: vec![found(a, b, Carrier::Independent, sat)],
                });
            }
        }
    }
    None
}

/// Legality of permuting a perfect loop nest.
///
/// `old_order` lists the nest's loop ids outermost-first as written;
/// `new_order` is the desired nesting. Illegal iff some conflicting pair of
/// instances executes in one order under the old nesting and the opposite
/// order under the new nesting.
pub fn reorder_illegal(
    func: &Func,
    old_order: &[StmtId],
    new_order: &[StmtId],
) -> Option<Violation> {
    let info = collect_accesses(func);
    // Only accesses inside the whole nest can change order.
    let nested: Vec<&Access> = info
        .accesses
        .iter()
        .filter(|a| old_order.iter().all(|id| inside(a, *id)))
        .collect();
    for a in &nested {
        for b in &nested {
            if ignorable(a, b) {
                continue;
            }
            // Execution-order comparison sequences: the common loops, in old
            // and in new nesting order — the permuted nest loops take the
            // place of the first nest loop in the common order.
            let old_seq: Vec<&LoopCtx> = common_loops(a, b).collect();
            let first_nest_pos = old_seq
                .iter()
                .position(|c| old_order.contains(&c.id))
                .unwrap_or(old_seq.len());
            let mut new_seq: Vec<&LoopCtx> = old_seq
                .iter()
                .filter(|c| !old_order.contains(&c.id))
                .copied()
                .collect();
            let nest_loops = new_order
                .iter()
                .filter_map(|id| old_seq.iter().find(|c| c.id == *id).copied());
            for (k, l) in nest_loops.enumerate() {
                new_seq.insert(first_nest_pos + k, l);
            }

            // Violation: a before b under old_seq at depth d, while b
            // strictly before a under new_seq at depth e.
            let mut q = pair_system(&info, a, b);
            let base = q.rows.len();
            for d in 0..=old_seq.len() {
                if d == old_seq.len() && a.pos >= b.pos {
                    continue; // "a before b at equal iters" needs pos order
                }
                for e in 0..new_seq.len() {
                    q.rows.truncate(base);
                    lockstep(&mut q, old_seq[..d].iter().copied());
                    if d < old_seq.len() {
                        earlier(&mut q, old_seq[d], Side::Source, Side::Sink);
                    }
                    lockstep(&mut q, new_seq[..e].iter().copied());
                    // b strictly before a in the new order.
                    earlier(&mut q, new_seq[e], Side::Sink, Side::Source);
                    let sat = q.satisfiable();
                    if sat != Sat::Empty {
                        let carrier = Carrier::Loop(new_seq[e].id);
                        return Some(reversed("reorder", a, b, carrier, sat));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::idx;
    use ft_ir::DataType;

    fn fnc(body: Stmt) -> Func {
        Func::new("f")
            .param("a", [var("N"), var("M")], DataType::F32, AccessType::InOut)
            .param("b", [var("N"), var("M")], DataType::F32, AccessType::InOut)
            .param("idx", [var("N")], DataType::I32, AccessType::Input)
            .size_param("N")
            .size_param("M")
            .size_param("K")
            .body(body)
    }

    fn i() -> Expr {
        var("i")
    }
    fn j() -> Expr {
        var("j")
    }

    #[test]
    fn query_variables_sort_as_their_names() {
        // The solver breaks pivot ties in name order: an interned variable
        // must sort exactly where its `{iter}.{loop id}{s|t}` name would.
        let name = |v: &QVar| match *v {
            QVar::Iter { iter, id, side } => {
                format!("{iter}.{}{}", id.0, if side == Side::Source { 's' } else { 't' })
            }
            QVar::Free(n) => n.to_string(),
        };
        let mut vars = Vec::new();
        for iter in ["i", "i.1", "j", "N", "i0", "k2", "_"] {
            for id in [0, 1, 3, 9, 10, 12, 100, 1_234_567, u64::MAX] {
                for side in [Side::Source, Side::Sink] {
                    vars.push(QVar::Iter { iter, id: StmtId(id), side });
                }
            }
            vars.push(QVar::Free(iter));
        }
        vars.extend(["i.12", "i.12s", "i.1.3t", "j.9"].map(QVar::Free));
        for a in &vars {
            for b in &vars {
                assert_eq!(a.cmp_name(b), name(a).cmp(&name(b)), "{} vs {}", name(a), name(b));
            }
        }
    }

    #[test]
    fn fig12a_reorder_legal() {
        // for i: for j: a[i, j] = b[i, j] + 1  — no deps at all.
        let body = for_(
            "i",
            0,
            var("N"),
            for_("j", 0, var("M"), store("a", [i(), j()], load("b", [i(), j()]) + 1.0f64)),
        );
        let f = fnc(body);
        let li = find::find_loop(&f.body, "i").unwrap().id;
        let lj = find::find_loop(&f.body, "j").unwrap().id;
        assert!(reorder_illegal(&f, &[li, lj], &[lj, li]).is_none());
        assert!(all_deps(&f).is_empty());
    }

    #[test]
    fn fig12b_reorder_illegal() {
        // for i: for j: a = a * b[i, j] + 1 on a scalar (as Store, not reduce).
        let f = Func::new("f")
            .param("a", Vec::<Expr>::new(), DataType::F32, AccessType::InOut)
            .param("b", [var("N"), var("M")], DataType::F32, AccessType::Input)
            .size_param("N")
            .size_param("M")
            .body(for_(
                "i",
                0,
                var("N"),
                for_(
                    "j",
                    0,
                    var("M"),
                    store(
                        "a",
                        scalar(),
                        load("a", scalar()) * load("b", [i(), j()]) + 1.0f64,
                    ),
                ),
            ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        let lj = find::find_loop(&f.body, "j").unwrap().id;
        assert!(reorder_illegal(&f, &[li, lj], &[lj, li]).is_some());
    }

    #[test]
    fn fig12c_reduction_can_reorder() {
        // for i: for j: a += b[i, j]  (ReduceTo: WAW exempt).
        let f = Func::new("f")
            .param("a", Vec::<Expr>::new(), DataType::F32, AccessType::InOut)
            .param("b", [var("N"), var("M")], DataType::F32, AccessType::Input)
            .size_param("N")
            .size_param("M")
            .body(for_(
                "i",
                0,
                var("N"),
                for_(
                    "j",
                    0,
                    var("M"),
                    reduce("a", scalar(), ReduceOp::Add, load("b", [i(), j()])),
                ),
            ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        let lj = find::find_loop(&f.body, "j").unwrap().id;
        assert!(reorder_illegal(&f, &[li, lj], &[lj, li]).is_none());
    }

    #[test]
    fn fig12d_stack_scoped_temp_can_reorder() {
        // for i: for j: t = var(K); for k: t[k] = a[i,j,k]; b[i,j,k] = t[k]
        let f = Func::new("f")
            .param(
                "a",
                [var("N"), var("M"), var("K")],
                DataType::F32,
                AccessType::Input,
            )
            .param(
                "b",
                [var("N"), var("M"), var("K")],
                DataType::F32,
                AccessType::Output,
            )
            .size_param("N")
            .size_param("M")
            .size_param("K")
            .body(for_(
                "i",
                0,
                var("N"),
                for_(
                    "j",
                    0,
                    var("M"),
                    var_def(
                        "t",
                        [var("K")],
                        DataType::F32,
                        MemType::CpuStack,
                        for_(
                            "k",
                            0,
                            var("K"),
                            block([
                                store("t", [var("k")], load("a", [i(), j(), var("k")])),
                                store("b", [i(), j(), var("k")], load("t", [var("k")])),
                            ]),
                        ),
                    ),
                ),
            ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        let lj = find::find_loop(&f.body, "j").unwrap().id;
        // WAW on t across i/j iterations is projected away by stack scoping.
        assert!(reorder_illegal(&f, &[li, lj], &[lj, li]).is_none());
        // And neither loop carries a dependence (so both parallelize).
        assert!(loop_carried_deps(&f, li).is_empty());
        assert!(loop_carried_deps(&f, lj).is_empty());
    }

    #[test]
    fn fig13a_parallelizable() {
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            store("a", idx![i(), 0], load("b", idx![i(), 0]) + 1.0f64),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(loop_carried_deps(&f, li).is_empty());
    }

    #[test]
    fn fig13b_cross_iteration_dep_blocks() {
        // for i: a[0,0] = a[0,0] * 2 + b[i,0]
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            store(
                "a",
                idx![0, 0],
                load("a", idx![0, 0]) * 2.0f64 + load("b", idx![i(), 0]),
            ),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(!loop_carried_deps(&f, li).is_empty());
    }

    #[test]
    fn fig13d_same_index_reduction_detected() {
        // for i: acc[] += b[i, 0]
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            reduce("a", idx![0, 0], ReduceOp::Add, load("b", idx![i(), 0])),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(loop_carried_deps(&f, li).is_empty()); // exempt...
        assert_eq!(carried_reductions(&f, li).len(), 1); // ...but must combine
    }

    #[test]
    fn fig13e_random_access_reduction_detected() {
        // for i: a[idx[i], 0] += b[i, 0]  — indirect subscript.
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            reduce(
                "a",
                [Expr::cast(DataType::I64, load("idx", [i()])), 0.into()],
                ReduceOp::Add,
                load("b", idx![i(), 0]),
            ),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(loop_carried_deps(&f, li).is_empty());
        assert_eq!(carried_reductions(&f, li).len(), 1);
    }

    #[test]
    fn disjoint_writes_by_index_do_not_conflict() {
        // for i: a[i,0] = 1; a[i,1] = 2 — distinct columns, no dep at all.
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            block([
                store("a", idx![i(), 0], 1.0f64),
                store("a", idx![i(), 1], 2.0f64),
            ]),
        ));
        assert!(all_deps(&f).is_empty());
    }

    #[test]
    fn loop_independent_raw_found() {
        // for i: a[i,0] = b[i,0]; b2 reads a[i,0] later in same iteration.
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            block([
                store("a", idx![i(), 0], load("b", idx![i(), 0])),
                store("b", idx![i(), 1], load("a", idx![i(), 0])),
            ]),
        ));
        let deps = all_deps(&f);
        assert!(deps
            .iter()
            .any(|d| d.kind == DepKind::Raw && d.carrier == Carrier::Independent && d.var == "a"));
        // No loop-carried deps: i iterations are independent.
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(loop_carried_deps(&f, li).is_empty());
    }

    #[test]
    fn carried_raw_found_with_distance_one() {
        // for i in 1..N: a[i,0] = a[i-1,0] — carried by i.
        let f = fnc(for_(
            "i",
            1,
            var("N"),
            store("a", idx![i(), 0], load("a", idx![i() - 1, 0])),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        let blockers = loop_carried_deps(&f, li);
        assert!(blockers.iter().any(|d| d.kind == DepKind::Raw));
    }

    #[test]
    fn guards_refine_dependence() {
        // for i in 0..N: if i < 1: a[0,0] = ...; only iteration 0 writes, so
        // no carried WAW.
        let f = fnc(for_(
            "i",
            0,
            var("N"),
            if_(i().lt(1), store("a", idx![0, 0], 1.0f64)),
        ));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(loop_carried_deps(&f, li).is_empty());
    }

    #[test]
    fn paper_fuse_example_dot_max() {
        // Paper Fig. 8: loop k1 writes dot[k+w] and updates dot_max (reduce);
        // loop k2 reads dot_max. Fusing k2 into k1 is illegal (dot_max is
        // read before all updates are in).
        let f = Func::new("f")
            .param("dot", [var("W")], DataType::F32, AccessType::InOut)
            .param("dot_max", Vec::<Expr>::new(), DataType::F32, AccessType::InOut)
            .param("dot_norm", [var("W")], DataType::F32, AccessType::Output)
            .size_param("W")
            .body(block([
                for_(
                    "k1",
                    0,
                    var("W"),
                    reduce(
                        "dot_max",
                        scalar(),
                        ReduceOp::Max,
                        load("dot", [var("k1")]),
                    ),
                ),
                for_(
                    "k2",
                    0,
                    var("W"),
                    store(
                        "dot_norm",
                        [var("k2")],
                        load("dot", [var("k2")]) - load("dot_max", scalar()),
                    ),
                ),
            ]));
        let l1 = find::find_loop(&f.body, "k1").unwrap().id;
        let l2 = find::find_loop(&f.body, "k2").unwrap().id;
        assert!(fuse_illegal(&f, l1, l2).is_some());
    }

    #[test]
    fn fuse_legal_when_elementwise() {
        // for k1: a[k1,0] = b[k1,0]; for k2: b[k2,1] = a[k2,0] * 2
        // Dependence a[k1] -> a[k2] only at k2 == k1: fusion preserves it.
        let f = fnc(block([
            for_("k1", 0, var("N"), store("a", idx![var("k1"), 0], load("b", idx![var("k1"), 0]))),
            for_(
                "k2",
                0,
                var("N"),
                store("b", idx![var("k2"), 1], load("a", idx![var("k2"), 0]) * 2.0f64),
            ),
        ]));
        let l1 = find::find_loop(&f.body, "k1").unwrap().id;
        let l2 = find::find_loop(&f.body, "k2").unwrap().id;
        assert!(fuse_illegal(&f, l1, l2).is_none());
    }

    #[test]
    fn fuse_illegal_on_backward_read() {
        // for k1: a[k1,0] = ...; for k2: reads a[k2+1,0]: after fusion the
        // read at iteration k happens before the write at k+1. Illegal.
        let f = fnc(block([
            for_("k1", 0, var("N"), store("a", idx![var("k1"), 0], 1.0f64)),
            for_(
                "k2",
                0,
                var("N") - 1,
                store("b", idx![var("k2"), 0], load("a", idx![var("k2") + 1, 0])),
            ),
        ]));
        let l1 = find::find_loop(&f.body, "k1").unwrap().id;
        let l2 = find::find_loop(&f.body, "k2").unwrap().id;
        assert!(fuse_illegal(&f, l1, l2).is_some());
    }

    #[test]
    fn swap_legality() {
        // s1: a[i,0] = b[i,0]; s2: b[i,1] = 1 — disjoint; swap ok.
        let s1 = store("a", idx![i(), 0], load("b", idx![i(), 0]));
        let s2 = store("b", idx![i(), 1], 1.0f64);
        let (id1, id2) = (s1.id, s2.id);
        let f = fnc(for_("i", 0, var("N"), block([s1, s2])));
        assert!(swap_illegal(&f, id1, id2).is_none());
        // s1 writes a[i,0], s2 reads a[i,0]: conflict at same iteration.
        let s1 = store("a", idx![i(), 0], 1.0f64);
        let s2 = store("b", idx![i(), 0], load("a", idx![i(), 0]));
        let (id1, id2) = (s1.id, s2.id);
        let f = fnc(for_("i", 0, var("N"), block([s1, s2])));
        assert!(swap_illegal(&f, id1, id2).is_some());
    }

    #[test]
    fn fission_legality() {
        // for i { S1: t1[i,0] = b[i,0]; S2: a[i,0] = t1[i,0] } — fission legal
        // (dep is loop-independent, same iteration).
        let s1 = store("a", idx![i(), 0], load("b", idx![i(), 0]));
        let s2 = store("b", idx![i(), 1], load("a", idx![i(), 0]));
        let id1 = s1.id;
        let f = fnc(for_("i", 0, var("N"), block([s1, s2])));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(fission_illegal(&f, li, &|id| id == id1).is_none());
        // for i { S1: a[i,0] = b[i-1,1]; S2: b[i,1] = 1 } — S1 at iter j reads
        // what S2 wrote at iter j-1: after fission all S1 run first and read
        // stale data. Illegal.
        let s1 = store("a", idx![i(), 0], load("b", idx![i() - 1, 1]));
        let s2 = store("b", idx![i(), 1], 1.0f64);
        let id1 = s1.id;
        let f = fnc(for_("i", 1, var("N"), block([s1, s2])));
        let li = find::find_loop(&f.body, "i").unwrap().id;
        assert!(fission_illegal(&f, li, &|id| id == id1).is_some());
    }

    /// `for c in 0..8 { for j in lo(c) .. hi(c) { y[j] = x[c] } }`, and the
    /// id of the `c` loop.
    fn chunked(lo: Expr, hi: Expr) -> (Func, StmtId) {
        let l = for_(
            "c",
            0,
            8,
            for_("j", lo, hi, store("y", [j()], load("x", [var("c")]))),
        );
        let id = l.id;
        let f = Func::new("f")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("y", [var("n")], DataType::F32, AccessType::Output)
            .param("adj", [8], DataType::I64, AccessType::Input)
            .size_param("n")
            .body(l);
        (f, id)
    }

    #[test]
    fn a_min_upper_bound_partitions_the_chunks() {
        // The chunk grid `lower_cpu_parallel` cuts: chunk `c` covers
        // [16c, min(16c + 16, n)), so no two chunks meet in `y`.
        let c16 = || var("c") * 16;
        let (f, c) = chunked(c16(), (c16() + 16).min(var("n")));
        assert!(loop_carried_deps(&f, c).is_empty());
        assert!(carried_reductions(&f, c).is_empty());
        // Without the `min`, the domain of `j` is unbounded above.
        let (f, c) = chunked(c16(), var("n"));
        assert!(!loop_carried_deps(&f, c).is_empty());
    }

    #[test]
    fn a_max_lower_bound_partitions_the_chunks() {
        // Chunks counted from the top: [max(n - 16c - 16, 0), n - 16c).
        let top = || var("n") - var("c") * 16;
        let (f, c) = chunked((top() - 16).max(0), top());
        assert!(loop_carried_deps(&f, c).is_empty());
        let (f, c) = chunked(Expr::from(0), top());
        assert!(!loop_carried_deps(&f, c).is_empty());
    }

    #[test]
    fn a_non_affine_bound_operand_drops_only_itself() {
        let adj = |e: Expr| load("adj", [e]);
        // The affine operand still bounds `j`: the chunks stay disjoint.
        let c16 = || var("c") * 16;
        let (f, c) = chunked(c16(), (c16() + 16).min(adj(var("c"))));
        assert!(loop_carried_deps(&f, c).is_empty());
        // And dropping the load loosens, never tightens: every `c` writes
        // `y[0..min(adj[c], 8))`, which collides.
        let (f, c) = chunked(Expr::from(0), adj(var("c")).min(8));
        let blockers = loop_carried_deps(&f, c);
        assert!(
            blockers
                .iter()
                .any(|d| d.var == "y" && d.kind == DepKind::Waw),
            "{blockers:?}"
        );
    }

    #[test]
    fn a_shadowing_def_does_not_hide_a_carried_dependence() {
        // var t[1]; for i in 0..8 { t[0] = t[0] + x[i]; y[i] = t[0];
        //                           var t[1] { t[0] = 1 } }
        // The inner `t` is a different tensor: the outer one still carries
        // the running sum across iterations of `i`.
        let the_loop = for_(
            "i",
            0,
            8,
            block([
                store("t", [0], load("t", [0]) + load("x", [i()])),
                store("y", [i()], load("t", [0])),
                var_def("t", [1], DataType::F32, MemType::CpuHeap, store("t", [0], 1.0f32)),
            ]),
        );
        let li = the_loop.id;
        let f = Func::new("f")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(var_def("t", [1], DataType::F32, MemType::CpuHeap, the_loop));
        let blockers = loop_carried_deps(&f, li);
        assert!(
            blockers.iter().any(|d| d.var == "t" && d.kind == DepKind::Raw),
            "{blockers:?}"
        );
        // No dependence pairs an access of the outer `t` with the inner one.
        let inner = find::find_stmts(&f.body, &|s| {
            matches!(&s.kind, StmtKind::Store { value: Expr::FloatConst(_), .. })
        })[0]
            .id;
        assert!(all_deps(&f).iter().all(|d| (d.source == inner) == (d.sink == inner)));
    }
}
