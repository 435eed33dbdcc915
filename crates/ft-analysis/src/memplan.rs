//! Static memory planning: liveness-based arena layout for `VarDef`s.
//!
//! Every execution engine historically gave each `VarDef` a fresh zeroed
//! heap buffer per scope entry — per *loop iteration* for loop-local defs.
//! This module computes, ahead of execution, which defs can share storage
//! and which defs actually need their zero-fill:
//!
//! 1. **Live ranges.** One pre-order walk assigns every statement a
//!    sequence number. A def's live range is the union of its access
//!    points, each access widened to the span of every loop lying strictly
//!    *inside* the def's own scope (a value carried across iterations of
//!    such a loop is live for the whole loop). Loops enclosing the def
//!    itself cause no widening: the def is freshly scoped per iteration.
//! 2. **Interference.** Two defs interfere iff their live ranges overlap.
//! 3. **Packing.** Defs are grouped into storage *classes* (an equivalence
//!    relation, so typed buffer pools can realize the sharing as easily as
//!    a byte arena can): best-fit by decreasing size, with a first-fit
//!    retry in program order when that heuristic ever packs worse than the
//!    naive stack discipline. Class `k` occupies one 64-byte-aligned slice
//!    of the arena, sized by its largest member. A register — a 0-d
//!    `CpuStack` def, which the C back end declares as a scalar local and
//!    the VM keeps in a register — takes no class and counts in neither
//!    naive total: no executor but the reference interpreter stores one in
//!    memory.
//! 4. **Zero-fill elision.** A def whose first action on every execution
//!    path that touches it is a full overwrite (a scalar store, or a
//!    perfect unconditional loop nest covering the whole shape) does not
//!    need its buffer zeroed on scope entry — `must_zero == false`.
//!    Anything conditional, partial, or reducing keeps the zero-fill.
//!
//! The resulting [`MemPlan`] is deterministic for a given `(func, sizes)`
//! pair ([`MemPlan::plan_hash`] is stable across processes) and carries
//! three comparable byte totals: `naive_alloc_bytes` (allocation churn of
//! the fresh-buffer-per-entry regime, loop trip counts folded in when
//! constant), `naive_peak_bytes` (stack-discipline peak of that regime)
//! and `planned_peak_bytes` (the arena size).

use ft_ir::{scalar, BinaryOp, DataType, Expr, Func, MemType, Stmt, StmtId, StmtKind};
use std::collections::HashMap;

/// Arena slices are aligned to the simulated cache line, matching the
/// engines' modeled address arithmetic.
pub const ARENA_ALIGN: u64 = 64;

fn align_up(b: u64) -> u64 {
    b.div_ceil(ARENA_ALIGN) * ARENA_ALIGN
}

/// Best-effort constant evaluation of a shape/bound expression under the
/// given size-parameter bindings, by the integer operators of
/// [`ft_ir::scalar`](mod@ft_ir::scalar). `None` marks the extent dynamic — or not a number
/// `i64` holds: an extent that overflows is `None`, never a wrapped figure.
pub fn eval_extent(e: &Expr, sizes: &HashMap<String, i64>) -> Option<i64> {
    use BinaryOp::*;
    match e {
        Expr::IntConst(v) => Some(*v),
        Expr::Var(n) => sizes.get(n).copied(),
        Expr::Binary {
            op: op @ (Add | Sub | Mul | Div | Mod | Min | Max),
            a,
            b,
        } => scalar::checked_int_binary(*op, eval_extent(a, sizes)?, eval_extent(b, sizes)?),
        Expr::Cast { a, .. } => eval_extent(a, sizes),
        _ => None,
    }
}

/// The planner's verdict on one `VarDef`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanEntry {
    /// IR name of the def (not necessarily unique — shadowing is legal).
    pub name: String,
    /// Stable id of the defining statement, which every engine finds the
    /// entry by ([`MemPlan::entry`]).
    pub stmt: StmtId,
    /// Element type.
    pub dtype: DataType,
    /// Memory space.
    pub mtype: MemType,
    /// Element count, when every extent is constant under `sizes`.
    pub numel: Option<u64>,
    /// Byte size (`numel * dtype.size_bytes()`), when constant.
    pub bytes: Option<u64>,
    /// Storage class the def was packed into; `None` for dynamic defs,
    /// which fall back to ordinary allocation.
    pub class: Option<usize>,
    /// Byte offset of the def's class inside the arena.
    pub offset: Option<u64>,
    /// Whether scope entry must zero the buffer before the body runs.
    /// `false` is a proof that every element is written before it is read.
    pub must_zero: bool,
    /// Live range in pre-order sequence numbers (inclusive).
    pub first: u32,
    /// See [`PlanEntry::first`].
    pub last: u32,
}

/// One storage class of the packed arena.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanClass {
    /// Byte size of the class (its largest member).
    pub bytes: u64,
    /// Byte offset inside the arena (64-aligned).
    pub offset: u64,
}

/// A complete static memory plan for one function.
#[derive(Debug, Clone, PartialEq)]
pub struct MemPlan {
    /// One entry per `VarDef`, in pre-order.
    pub entries: Vec<PlanEntry>,
    /// The packed storage classes; `planned_peak_bytes` is their total.
    pub classes: Vec<PlanClass>,
    /// Arena size: sum of aligned class sizes.
    pub planned_peak_bytes: u64,
    /// Peak bytes of the naive fresh-buffer-per-scope regime (stack
    /// discipline over def scopes, aligned like the arena).
    pub naive_peak_bytes: u64,
    /// Total allocation churn of the naive regime: every scope entry
    /// counted, loop trip counts folded in when constant (unknown trips
    /// count once, so this is a floor).
    pub naive_alloc_bytes: u64,
    /// `(stmt, index into entries)`, sorted by statement id.
    by_stmt: Vec<(StmtId, usize)>,
    /// [`plan_hash`](MemPlan::plan_hash), taken once by [`MemPlan::plan`]:
    /// the fields above are read-only from then on (nothing writes them; a
    /// plan edited through them keeps the hash of the plan it was built as).
    hash: u64,
}

/// One recorded access during the liveness walk.
struct AccessRec {
    def_idx: usize,
    seq: u32,
    /// Start seq of the outermost loop that is strictly inside the def's
    /// scope and encloses the access, when any.
    widen_loop: Option<u32>,
}

/// Walk state for the single liveness pass.
struct Walker<'a> {
    sizes: &'a HashMap<String, i64>,
    seq: u32,
    /// Innermost-first def bindings: name -> stack of def indices.
    scope: HashMap<String, Vec<usize>>,
    /// All defs in pre-order: (name, stmt, dtype, mtype, bytes, scope start).
    defs: Vec<(String, StmtId, DataType, MemType, Option<u64>, u32)>,
    /// Per def: whether it is a register (0-d `CpuStack`).
    registers: Vec<bool>,
    /// Scope end seq per def, filled on exit.
    def_end: Vec<u32>,
    accesses: Vec<AccessRec>,
    /// Enclosing loops: (start seq, end seq filled later) indices into
    /// `loops`.
    loop_stack: Vec<usize>,
    loops: Vec<(u32, u32)>,
    /// Stack-discipline accounting for the naive numbers.
    live_now: u64,
    naive_peak: u64,
    naive_alloc: u64,
    /// Product of constant trip counts of enclosing loops (unknown = 1).
    trip_factor: u64,
}

impl Walker<'_> {
    fn note_access(&mut self, name: &str) {
        let Some(stack) = self.scope.get(name) else {
            return; // parameter or size var, not a planned def
        };
        let Some(&def_idx) = stack.last() else {
            return;
        };
        let def_start = self.defs[def_idx].5;
        // Outermost enclosing loop opened after the def's scope began.
        let widen_loop = self
            .loop_stack
            .iter()
            .map(|&li| self.loops[li].0)
            .find(|&ls| ls > def_start);
        self.accesses.push(AccessRec {
            def_idx,
            seq: self.seq,
            widen_loop,
        });
    }

    /// Note every load in `es`, in evaluation order.
    fn note_loads<'e>(&mut self, es: impl IntoIterator<Item = &'e Expr>) {
        for e in es {
            e.for_each_load(&mut |var, _| self.note_access(var));
        }
    }

    fn stmt(&mut self, s: &Stmt) {
        self.seq += 1;
        let my_seq = self.seq;
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body,
                ..
            } => {
                self.note_loads(shape);
                let numel: Option<u64> = shape
                    .iter()
                    .map(|e| eval_extent(e, self.sizes))
                    .try_fold(1u64, |a, b| a.checked_mul(b?.max(0) as u64));
                let bytes = numel.and_then(|n| n.checked_mul(dtype.size_bytes() as u64));
                let def_idx = self.defs.len();
                self.defs
                    .push((name.clone(), s.id, *dtype, *mtype, bytes, my_seq));
                let register = mtype.register(shape.len());
                self.registers.push(register);
                self.def_end.push(0);
                // A register is no buffer in the naive regime either.
                let b = if register { 0 } else { bytes.unwrap_or(0) };
                self.live_now += align_up(b);
                self.naive_peak = self.naive_peak.max(self.live_now);
                self.naive_alloc = self
                    .naive_alloc
                    .saturating_add(align_up(b).saturating_mul(self.trip_factor));
                self.scope.entry(name.clone()).or_default().push(def_idx);
                self.stmt(body);
                self.scope.get_mut(name).expect("pushed above").pop();
                self.live_now -= align_up(b);
                self.def_end[def_idx] = self.seq;
            }
            StmtKind::For {
                begin, end, body, ..
            } => {
                self.note_loads([begin, end]);
                let li = self.loops.len();
                self.loops.push((my_seq, 0));
                self.loop_stack.push(li);
                let trips = match (eval_extent(begin, self.sizes), eval_extent(end, self.sizes)) {
                    (Some(b), Some(e)) => e.saturating_sub(b).max(0) as u64,
                    _ => 1,
                };
                let saved = self.trip_factor;
                self.trip_factor = self.trip_factor.saturating_mul(trips.max(1));
                self.stmt(body);
                self.trip_factor = saved;
                self.loop_stack.pop();
                self.loops[li].1 = self.seq;
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                self.note_loads([cond]);
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
                self.note_access(var);
                self.note_loads(indices.iter().chain([value]));
            }
            StmtKind::ReduceTo {
                var,
                indices,
                value,
                ..
            } => {
                self.note_access(var);
                self.note_loads(indices.iter().chain([value]));
            }
            StmtKind::LibCall {
                inputs, outputs, ..
            } => {
                for n in inputs.iter().chain(outputs) {
                    self.note_access(n);
                }
            }
        }
    }
}

/// Verdict of the write-before-read scan.
#[derive(Debug, Clone, Copy, PartialEq)]
enum ZeroScan {
    /// Statement does not touch the def; keep scanning.
    Skip,
    /// First touch is a proven full overwrite: zero-fill elidable.
    Covered,
    /// First touch may read (or only partially write): must zero.
    Needs,
}

/// Whether `e` loads `name`.
fn loads(e: &Expr, name: &str) -> bool {
    e.any(&mut |n| matches!(n, Expr::Load { var, .. } if var == name))
}

fn stmt_touches(s: &Stmt, name: &str) -> bool {
    let mut hit = false;
    s.walk(&mut |st| match &st.kind {
        StmtKind::VarDef { name: n, shape, .. } => {
            // A shadowing def rebinds the name for its subtree; its own
            // extents still evaluate in the outer scope. `walk` cannot skip
            // subtrees, so shadowed regions are handled conservatively:
            // treat any occurrence as a touch (only affects precision).
            if n == name {
                hit = true;
            }
            if shape.iter().any(|e| loads(e, name)) {
                hit = true;
            }
        }
        StmtKind::Store {
            var,
            indices,
            value,
        } => {
            hit |= var == name || indices.iter().any(|e| loads(e, name)) || loads(value, name);
        }
        StmtKind::ReduceTo {
            var,
            indices,
            value,
            ..
        } => {
            hit |= var == name || indices.iter().any(|e| loads(e, name)) || loads(value, name);
        }
        StmtKind::For { begin, end, .. } => {
            hit |= loads(begin, name) || loads(end, name);
        }
        StmtKind::If { cond, .. } => {
            hit |= loads(cond, name);
        }
        StmtKind::LibCall {
            inputs, outputs, ..
        } => {
            hit |= inputs.iter().any(|n| n == name) || outputs.iter().any(|n| n == name);
        }
        _ => {}
    });
    hit
}

/// Does `s` start with a perfect unconditional loop nest that stores to
/// every element of `name` (extents syntactically equal to `shape`, indices
/// the nest iterators in order) without reading it?
fn is_full_overwrite_nest(s: &Stmt, name: &str, shape: &[Expr]) -> bool {
    let mut cur = s;
    let mut iters: Vec<&str> = Vec::new();
    for extent in shape {
        let StmtKind::For {
            iter,
            begin,
            end,
            body,
            ..
        } = &cur.kind
        else {
            return false;
        };
        if !matches!(begin, Expr::IntConst(0)) || end != extent {
            return false;
        }
        iters.push(iter);
        // Perfect nest: descend through trivial single-statement blocks.
        let mut b: &Stmt = body;
        while let StmtKind::Block(v) = &b.kind {
            let non_empty: Vec<&Stmt> = v.iter().filter(|st| !st.is_empty()).collect();
            if non_empty.len() != 1 {
                return false;
            }
            b = non_empty[0];
        }
        cur = b;
    }
    let StmtKind::Store {
        var,
        indices,
        value,
    } = &cur.kind
    else {
        return false;
    };
    var == name
        && indices.len() == iters.len()
        && indices
            .iter()
            .zip(&iters)
            .all(|(e, it)| matches!(e, Expr::Var(v) if v == *it))
        && !loads(value, name)
}

/// Scan the def body in execution order for the first statement touching
/// the def, deciding whether scope entry needs the zero-fill.
fn zero_scan(s: &Stmt, name: &str, shape: &[Expr]) -> ZeroScan {
    match &s.kind {
        StmtKind::Empty => ZeroScan::Skip,
        StmtKind::Block(v) => {
            for st in v {
                match zero_scan(st, name, shape) {
                    ZeroScan::Skip => continue,
                    d => return d,
                }
            }
            ZeroScan::Skip
        }
        StmtKind::VarDef {
            name: n,
            shape: sh,
            body,
            ..
        } => {
            if sh.iter().any(|e| loads(e, name)) {
                return ZeroScan::Needs;
            }
            if n == name {
                // Shadowed for the whole subtree: our def is untouched.
                return ZeroScan::Skip;
            }
            zero_scan(body, name, shape)
        }
        StmtKind::Store {
            var,
            indices,
            value,
        } => {
            if indices.iter().any(|e| loads(e, name)) || loads(value, name) {
                return ZeroScan::Needs;
            }
            if var == name {
                // Only a scalar store covers the whole def in one shot.
                if shape.is_empty() {
                    ZeroScan::Covered
                } else {
                    ZeroScan::Needs
                }
            } else {
                ZeroScan::Skip
            }
        }
        StmtKind::ReduceTo {
            var,
            indices,
            value,
            ..
        } => {
            if var == name || indices.iter().any(|e| loads(e, name)) || loads(value, name) {
                ZeroScan::Needs
            } else {
                ZeroScan::Skip
            }
        }
        StmtKind::For { begin, end, .. } => {
            if loads(begin, name) || loads(end, name) {
                return ZeroScan::Needs;
            }
            if is_full_overwrite_nest(s, name, shape) {
                return ZeroScan::Covered;
            }
            // A loop that touches the def some other way may execute zero
            // times or cover partially: conservative.
            if stmt_touches(s, name) {
                ZeroScan::Needs
            } else {
                ZeroScan::Skip
            }
        }
        StmtKind::If { cond, .. } => {
            if loads(cond, name) {
                return ZeroScan::Needs;
            }
            // Conditional first write: either branch may be skipped.
            if stmt_touches(s, name) {
                ZeroScan::Needs
            } else {
                ZeroScan::Skip
            }
        }
        StmtKind::LibCall {
            inputs, outputs, ..
        } => {
            if inputs.iter().any(|n| n == name) || outputs.iter().any(|n| n == name) {
                // Library kernels accumulate (`matmul` does `C +=`).
                ZeroScan::Needs
            } else {
                ZeroScan::Skip
            }
        }
    }
}

fn overlaps(a: (u32, u32), b: (u32, u32)) -> bool {
    a.0 <= b.1 && b.0 <= a.1
}

/// Pack `order`ed defs into classes; returns (class id per def position in
/// `idxs`, class sizes). `best_fit` picks the tightest compatible class,
/// otherwise first-fit.
fn pack(
    order: &[usize],
    bytes: &HashMap<usize, u64>,
    ranges: &HashMap<usize, (u32, u32)>,
    best_fit: bool,
) -> (HashMap<usize, usize>, Vec<u64>) {
    let mut class_of: HashMap<usize, usize> = HashMap::new();
    let mut class_bytes: Vec<u64> = Vec::new();
    let mut class_members: Vec<Vec<usize>> = Vec::new();
    for &d in order {
        let db = bytes[&d];
        let dr = ranges[&d];
        let mut chosen: Option<usize> = None;
        for (ci, members) in class_members.iter().enumerate() {
            if members.iter().any(|&m| overlaps(ranges[&m], dr)) {
                continue;
            }
            match chosen {
                None => chosen = Some(ci),
                Some(prev) if best_fit => {
                    // Tightest class still holding the def; ties keep the
                    // lowest index for determinism.
                    let (pb, cb) = (class_bytes[prev], class_bytes[ci]);
                    let fit = |b: u64| if b >= db { b - db } else { u64::MAX - (db - b) };
                    if fit(cb) < fit(pb) {
                        chosen = Some(ci);
                    }
                }
                Some(_) => {} // first fit: keep the first
            }
        }
        let ci = match chosen {
            Some(ci) => ci,
            None => {
                class_bytes.push(0);
                class_members.push(Vec::new());
                class_bytes.len() - 1
            }
        };
        class_bytes[ci] = class_bytes[ci].max(db);
        class_members[ci].push(d);
        class_of.insert(d, ci);
    }
    (class_of, class_bytes)
}

impl MemPlan {
    /// Compute the plan for `func` under the given size-parameter bindings.
    /// Pass an empty map for a size-generic plan (only constant-shaped defs
    /// get packed; the rest fall back to dynamic allocation).
    pub fn plan(func: &Func, sizes: &HashMap<String, i64>) -> MemPlan {
        let mut w = Walker {
            sizes,
            seq: 0,
            scope: HashMap::new(),
            defs: Vec::new(),
            registers: Vec::new(),
            def_end: Vec::new(),
            accesses: Vec::new(),
            loop_stack: Vec::new(),
            loops: Vec::new(),
            live_now: 0,
            naive_peak: 0,
            naive_alloc: 0,
            trip_factor: 1,
        };
        w.stmt(&func.body);

        // Live ranges: union of widened access points; untouched defs get a
        // zero-length range at their scope start.
        let n_defs = w.defs.len();
        let mut ranges: HashMap<usize, (u32, u32)> = HashMap::new();
        for a in &w.accesses {
            let (lo, hi) = match a.widen_loop {
                Some(ls) => {
                    let &(s, e) = w
                        .loops
                        .iter()
                        .find(|&&(s, _)| s == ls)
                        .expect("loop recorded during walk");
                    (s, e)
                }
                None => (a.seq, a.seq),
            };
            ranges
                .entry(a.def_idx)
                .and_modify(|r| {
                    r.0 = r.0.min(lo);
                    r.1 = r.1.max(hi);
                })
                .or_insert((lo, hi));
        }
        for (d, def) in w.defs.iter().enumerate() {
            ranges.entry(d).or_insert((def.5, def.5));
        }

        // must_zero: re-find each def statement by id for the body scan.
        let mut must_zero: Vec<bool> = vec![true; n_defs];
        {
            let mut k = 0usize;
            func.body.walk(&mut |s| {
                if let StmtKind::VarDef {
                    name, shape, body, ..
                } = &s.kind
                {
                    debug_assert_eq!(w.defs[k].1, s.id, "walk order matches planner");
                    must_zero[k] = zero_scan(body, name, shape) != ZeroScan::Covered;
                    k += 1;
                }
            });
        }

        // A def that needs the zero-fill is written at *scope entry* (that
        // is where executors zero it), so for interference purposes its
        // live range starts there — not at its first recorded access.
        // Without this, a class-mate whose range sits between the def's
        // scope entry and its first access would clobber the zeros.
        for (d, def) in w.defs.iter().enumerate() {
            if must_zero[d] {
                let r = ranges.get_mut(&d).expect("range seeded above");
                r.0 = r.0.min(def.5);
            }
        }

        // Pack the constant-shaped defs, registers aside.
        let bytes: HashMap<usize, u64> = w
            .defs
            .iter()
            .enumerate()
            .filter(|&(d, _)| !w.registers[d])
            .filter_map(|(d, def)| def.4.map(|b| (d, b)))
            .collect();
        let mut by_size: Vec<usize> = bytes.keys().copied().collect();
        by_size.sort_by_key(|&d| (std::cmp::Reverse(bytes[&d]), d));
        let (mut class_of, mut class_bytes) = pack(&by_size, &bytes, &ranges, true);
        let planned = |cb: &[u64]| cb.iter().map(|&b| align_up(b)).sum::<u64>();
        if planned(&class_bytes) > w.naive_peak {
            // Pathological fragmentation: retry in program order, keep the
            // better packing.
            let mut by_start: Vec<usize> = bytes.keys().copied().collect();
            by_start.sort_by_key(|&d| (ranges[&d].0, d));
            let (c2, b2) = pack(&by_start, &bytes, &ranges, false);
            if planned(&b2) < planned(&class_bytes) {
                class_of = c2;
                class_bytes = b2;
            }
        }
        let mut classes: Vec<PlanClass> = Vec::with_capacity(class_bytes.len());
        let mut off = 0u64;
        for &b in &class_bytes {
            classes.push(PlanClass {
                bytes: b,
                offset: off,
            });
            off += align_up(b);
        }
        let planned_peak_bytes = off;

        let entries: Vec<PlanEntry> = w
            .defs
            .iter()
            .enumerate()
            .map(|(d, (name, stmt, dtype, mtype, b, _))| {
                let class = class_of.get(&d).copied();
                PlanEntry {
                    name: name.clone(),
                    stmt: *stmt,
                    dtype: *dtype,
                    mtype: *mtype,
                    numel: b.map(|bb| bb / (dtype.size_bytes() as u64).max(1)),
                    bytes: *b,
                    class,
                    offset: class.map(|c| classes[c].offset),
                    must_zero: must_zero[d],
                    first: ranges[&d].0,
                    last: ranges[&d].1,
                }
            })
            .collect();

        let mut by_stmt: Vec<(StmtId, usize)> = entries
            .iter()
            .enumerate()
            .map(|(k, e)| (e.stmt, k))
            .collect();
        by_stmt.sort_unstable();
        debug_assert!(
            by_stmt.windows(2).all(|w| w[0].0 != w[1].0),
            "two defs of `{}` share a statement id",
            func.name
        );
        let mut h = ft_ir::Fnv1a::new();
        let mut eat = |bytes: &[u8]| h.write(bytes);
        eat(&(func.params.len() as u64).to_le_bytes());
        eat(&planned_peak_bytes.to_le_bytes());
        eat(&w.naive_peak.to_le_bytes());
        for e in &entries {
            eat(e.name.as_bytes());
            eat(&[0xff, e.must_zero as u8]);
            eat(&e.bytes.unwrap_or(u64::MAX).to_le_bytes());
            eat(&e.offset.unwrap_or(u64::MAX).to_le_bytes());
            eat(&(e.class.map_or(u64::MAX, |c| c as u64)).to_le_bytes());
            eat(&u64::from(e.first).to_le_bytes());
            eat(&u64::from(e.last).to_le_bytes());
        }

        MemPlan {
            entries,
            classes,
            planned_peak_bytes,
            naive_peak_bytes: w.naive_peak,
            naive_alloc_bytes: w.naive_alloc,
            by_stmt,
            hash: h.finish(),
        }
    }

    /// The entry of the def `stmt` defines. `None` for a statement the
    /// plan has no def of, and for an id two defs share (which `plan`
    /// debug-asserts against): such a def is placed nowhere.
    pub fn entry(&self, stmt: StmtId) -> Option<&PlanEntry> {
        let k = self.by_stmt.partition_point(|&(s, _)| s < stmt);
        match self.by_stmt[k..] {
            [(s, e), ref rest @ ..] if s == stmt && rest.first().is_none_or(|r| r.0 != s) => {
                Some(&self.entries[e])
            }
            _ => None,
        }
    }

    /// Deterministic FNV-1a hash of the whole plan — identical programs
    /// yield identical hashes across processes and runs. A field read: the
    /// plan hashed itself when it was built.
    pub fn plan_hash(&self) -> u64 {
        self.hash
    }

    /// Planned peak footprint of one *run*: the arena peak plus every
    /// parameter buffer, given as its resolved byte size and aligned like
    /// the arena (inputs are caller-owned but pinned for the call;
    /// outputs/in-outs/caches are allocated by the engine). This is the
    /// number a serving admission controller budgets against — rejecting on
    /// `planned_peak_bytes` alone would undercount programs whose footprint
    /// is dominated by parameters.
    pub fn run_peak_bytes(&self, param_bytes: impl IntoIterator<Item = u64>) -> u64 {
        let aligned = param_bytes.into_iter().map(align_up);
        aligned.fold(self.planned_peak_bytes, u64::saturating_add)
    }

    /// Defs actually packed into the arena.
    pub fn n_planned(&self) -> usize {
        self.entries.iter().filter(|e| e.class.is_some()).count()
    }

    /// Defs whose zero-fill was proven elidable.
    pub fn n_zero_elided(&self) -> usize {
        self.entries.iter().filter(|e| !e.must_zero).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::AccessType;

    fn sizes(pairs: &[(&str, i64)]) -> HashMap<String, i64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    /// Two sequential loop-local defs never overlap: one class, planned
    /// peak well under the naive sum.
    #[test]
    fn disjoint_defs_share_one_class() {
        let body = block([
            var_def(
                "a",
                [256],
                DataType::F32,
                MemType::CpuHeap,
                store("a", [0], 1.0f32),
            ),
            var_def(
                "b",
                [256],
                DataType::F32,
                MemType::CpuHeap,
                store("b", [0], 2.0f32),
            ),
        ]);
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(body);
        let p = MemPlan::plan(&f, &HashMap::new());
        assert_eq!(p.entries.len(), 2);
        assert_eq!(p.entries[0].class, p.entries[1].class);
        assert_eq!(p.planned_peak_bytes, 1024);
        assert_eq!(p.naive_peak_bytes, 1024, "stack peak: one def at a time");
        assert_eq!(p.naive_alloc_bytes, 2048, "naive regime allocates both");
    }

    /// A def read after another def starts interferes with it.
    #[test]
    fn overlapping_defs_get_distinct_classes() {
        let inner = var_def(
            "b",
            [64],
            DataType::F32,
            MemType::CpuHeap,
            block([
                store("b", [0], load("a", [0])),
                store("a", [1], load("b", [0])),
            ]),
        );
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "a",
                [64],
                DataType::F32,
                MemType::CpuHeap,
                block([store("a", [0], 1.0f32), inner]),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        assert_ne!(p.entries[0].class, p.entries[1].class);
        assert_eq!(p.planned_peak_bytes, p.naive_peak_bytes);
    }

    /// Accesses inside a loop that sits inside the def's scope widen to the
    /// whole loop, so a def written in one iteration and read in the next
    /// conflicts with everything else used in that loop.
    #[test]
    fn loop_carried_def_widens_to_the_loop() {
        // acc lives across iterations of the loop (reduce), scratch is
        // loop-local. They must not share storage.
        let loop_body = block([var_def(
            "scratch",
            [8],
            DataType::F32,
            MemType::CpuHeap,
            store("acc", scalar(), load("scratch", [0])),
        )]);
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "acc",
                [] as [Expr; 0],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    store("acc", scalar(), 0.0f32),
                    for_("i", 0, 10, loop_body),
                    store("y", [0], load("acc", scalar())),
                ]),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        assert_ne!(
            p.entries[0].class, p.entries[1].class,
            "loop-carried acc must not share with loop-local scratch"
        );
    }

    /// Defs scoped inside a loop do not widen to the loop itself: each
    /// iteration gets a fresh incarnation.
    #[test]
    fn loop_local_def_does_not_widen_past_its_scope() {
        let f = Func::new("f")
            .param("y", [10], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                10,
                var_def(
                    "t",
                    [4],
                    DataType::F32,
                    MemType::CpuHeap,
                    store("y", [var("i")], load("t", [0])),
                ),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        let e = &p.entries[0];
        assert!(e.class.is_some());
        // Interval stays inside the loop body (no widening to the loop).
        assert!(e.first > 1, "{e:?}");
    }

    #[test]
    fn must_zero_analysis() {
        // (a) full-overwrite nest -> elidable.
        let full = var_def(
            "t",
            ft_ir::idx![var("n"), 4],
            DataType::F32,
            MemType::CpuHeap,
            block([
                for_(
                    "i",
                    0,
                    var("n"),
                    for_("j", 0, 4, store("t", [var("i"), var("j")], 1.0f32)),
                ),
                store("y", [0], load("t", [0, 0])),
            ]),
        );
        // (b) conditional first write -> must zero.
        let cond = var_def(
            "u",
            [4],
            DataType::F32,
            MemType::CpuHeap,
            block([
                if_(load("y", [0]).gt(0.0f32), store("u", [0], 1.0f32)),
                store("y", [1], load("u", [0])),
            ]),
        );
        // (c) reduce-first scalar -> must zero.
        let red = var_def(
            "s",
            [] as [Expr; 0],
            DataType::F32,
            MemType::CpuHeap,
            block([
                reduce("s", scalar(), ReduceOp::Add, 1.0f32),
                store("y", [2], load("s", scalar())),
            ]),
        );
        // (d) scalar store-first -> elidable.
        let sc = var_def(
            "v",
            [] as [Expr; 0],
            DataType::F32,
            MemType::CpuHeap,
            block([
                store("v", scalar(), 3.0f32),
                store("y", [3], load("v", scalar())),
            ]),
        );
        let f = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(block([full, cond, red, sc]));
        let p = MemPlan::plan(&f, &sizes(&[("n", 3)]));
        assert!(!p.entries[0].must_zero, "full overwrite nest");
        assert!(p.entries[1].must_zero, "conditional first write");
        assert!(p.entries[2].must_zero, "reduce reads the identity");
        assert!(!p.entries[3].must_zero, "scalar store first");
        assert_eq!(p.n_zero_elided(), 2);
    }

    /// Partial overwrite (inner extent differs from the shape) keeps the
    /// zero-fill.
    #[test]
    fn partial_overwrite_still_zeros() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "t",
                [8, 8],
                DataType::F32,
                MemType::CpuHeap,
                block([
                    for_(
                        "i",
                        0,
                        8,
                        for_("j", 0, 4, store("t", [var("i"), var("j")], 1.0f32)),
                    ),
                    store("y", [0], load("t", [0, 7])),
                ]),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        assert!(p.entries[0].must_zero);
    }

    /// Same program, same sizes -> identical plan and hash; different sizes
    /// -> (generally) different hash.
    #[test]
    fn plan_is_deterministic() {
        let mk = || {
            Func::new("f")
                .param("y", [var("n")], DataType::F32, AccessType::Output)
                .size_param("n")
                .body(var_def(
                    "t",
                    [var("n")],
                    DataType::F32,
                    MemType::CpuHeap,
                    for_("i", 0, var("n"), store("t", [var("i")], 1.0f32)),
                ))
        };
        let s = sizes(&[("n", 128)]);
        let f = mk();
        assert_eq!(MemPlan::plan(&f, &s), MemPlan::plan(&f, &s));
        // A structurally identical rebuild gets fresh StmtIds but the same
        // hash: the hash covers layout, not node identity.
        let p1 = MemPlan::plan(&f, &s);
        let p2 = MemPlan::plan(&mk(), &s);
        assert_eq!(p1.plan_hash(), p2.plan_hash());
        let p3 = MemPlan::plan(&mk(), &sizes(&[("n", 256)]));
        assert_ne!(p1.plan_hash(), p3.plan_hash());
    }

    /// Every layout field moves `plan_hash()`: re-plan the fixture with one
    /// thing changed and `t`'s entry (or the plan) differs there, and so does
    /// the hash.
    #[test]
    fn plan_hash_moves_with_each_layout_field() {
        let fill = |t: &str| for_("i", 0, 64, store(t, [var("i")], 1.0f32));
        let def = |t: &str, body: Stmt| var_def(t, [64], DataType::F32, MemType::CpuHeap, body);
        let f = || Func::new("f").param("y", [64], DataType::F32, AccessType::Output);
        let plan = |f: Func| MemPlan::plan(&f, &HashMap::new());
        let t = |p: &MemPlan| p.entries.last().unwrap().clone();
        let base = plan(f().body(def("t", fill("t"))));
        let x = plan(
            f().param("x", [1], DataType::F32, AccessType::Input)
                .body(def("t", fill("t"))),
        );
        let read = store("y", [0], load("t", [0]));
        let zeroed = plan(f().body(def("t", block([read, fill("t")]))));
        assert_ne!(t(&zeroed).must_zero, t(&base).must_zero);
        let longer = plan(f().body(def("t", block([fill("t"), fill("t")]))));
        assert_ne!(t(&longer).last, t(&base).last);
        let inner = plan(f().body(def("u", block([fill("u"), def("t", fill("t")), fill("u")]))));
        assert_ne!(t(&inner).first, t(&base).first);
        assert_ne!(
            (t(&inner).offset, t(&inner).class),
            (t(&base).offset, t(&base).class)
        );
        for (k, p) in [x, zeroed, longer, inner].iter().enumerate() {
            assert_ne!(p.plan_hash(), base.plan_hash(), "variant {k}");
        }
    }

    /// Dynamic extents under an empty size map stay unplanned.
    #[test]
    fn dynamic_defs_fall_back() {
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(var_def(
                "t",
                [var("n")],
                DataType::F32,
                MemType::CpuHeap,
                store("t", [0], 1.0f32),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        assert_eq!(p.entries[0].class, None);
        assert_eq!(p.entries[0].offset, None);
        assert_eq!(p.n_planned(), 0);
        // With the size bound the same def plans fine.
        let p2 = MemPlan::plan(&f, &sizes(&[("n", 64)]));
        assert_eq!(p2.n_planned(), 1);
        assert_eq!(p2.planned_peak_bytes, 256);
    }

    /// The packed arena never exceeds the naive stack-discipline peak.
    #[test]
    fn planned_never_exceeds_naive_peak() {
        // Chain of partially overlapping defs in one scope tree.
        let inner2 = var_def(
            "c",
            [96],
            DataType::F32,
            MemType::CpuHeap,
            store("c", [0], load("b", [0])),
        );
        let inner1 = var_def(
            "b",
            [32],
            DataType::F32,
            MemType::CpuHeap,
            block([store("b", [0], load("a", [0])), inner2]),
        );
        let f = Func::new("f")
            .param("y", [1], DataType::F32, AccessType::Output)
            .body(var_def(
                "a",
                [128],
                DataType::F32,
                MemType::CpuHeap,
                block([store("a", [0], 1.0f32), inner1]),
            ));
        let p = MemPlan::plan(&f, &HashMap::new());
        assert!(
            p.planned_peak_bytes <= p.naive_peak_bytes,
            "planned {} > naive {}",
            p.planned_peak_bytes,
            p.naive_peak_bytes
        );
    }
}
