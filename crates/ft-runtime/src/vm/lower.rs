//! Lowering of a slot-resolved function into a [`VmProgram`]: the
//! register-allocating `Compiler`, strength reduction, and parallel-region
//! sites.

use super::*;

/// Per-open-loop compile state for strength reduction.
pub(super) struct LoopCtx {
    /// Scalar slot of the loop iterator.
    pub(super) s: usize,
    /// `Compiler::cond_depth` at loop entry; an access compiled while the
    /// depth is back at this value executes unconditionally every iteration.
    cond_base: usize,
    /// Tensor slots the loop body writes (stores, reduces, `LibCall`
    /// outputs, and `VarDef`s) — loads from any other tensor are
    /// loop-invariant.
    pub(super) writes: std::collections::HashSet<usize>,
    /// Whether the preheader contains instructions that can fault (hoisted
    /// invariant loads / integer division); if so the preheader must be
    /// skipped for zero-trip loops.
    pub(super) faulty_preheader: bool,
    /// Instructions to run once at loop entry (after `s = begin`).
    pub(super) preheader: Vec<Instr>,
    /// Induction increments to run at the end of every iteration.
    pub(super) latches: Vec<Instr>,
}

impl LoopCtx {
    pub(super) fn new(s: usize, cond_base: usize, writes: std::collections::HashSet<usize>) -> LoopCtx {
        LoopCtx {
            s,
            cond_base,
            writes,
            faulty_preheader: false,
            preheader: Vec::new(),
            latches: Vec::new(),
        }
    }
}

/// Call `f` on `s` and on every statement nested in it.
fn for_each_stmt(s: &crate::compiled::CStmt, f: &mut impl FnMut(&crate::compiled::CStmt)) {
    use crate::compiled::CStmt as S;
    f(s);
    match s {
        S::Nop | S::Store { .. } | S::Reduce { .. } | S::LibCall { .. } => {}
        S::Seq(v) => v.iter().for_each(|st| for_each_stmt(st, f)),
        S::VarDef { body, .. } | S::For { body, .. } => for_each_stmt(body, f),
        S::If {
            then, otherwise, ..
        } => {
            for_each_stmt(then, f);
            if let Some(o) = otherwise {
                for_each_stmt(o, f);
            }
        }
    }
}

/// Collect every tensor slot `s` can write (or reallocate).
pub(super) fn collect_writes(s: &crate::compiled::CStmt, out: &mut std::collections::HashSet<usize>) {
    use crate::compiled::CStmt as S;
    for_each_stmt(s, &mut |st| match st {
        S::VarDef { t, .. } | S::Store { t, .. } | S::Reduce { t, .. } => {
            out.insert(*t);
        }
        S::LibCall { outputs, .. } => out.extend(outputs.iter().copied()),
        _ => {}
    });
}

pub(super) struct Compiler {
    pub(super) buf: Vec<Instr>,
    /// Next free register (stack-discipline temporaries).
    next: u32,
    /// Registers below this are permanently reserved (persists).
    floor: u32,
    max_regs: u32,
    pub(super) loops: Vec<LoopCtx>,
    /// Loop depth at which each tensor slot was defined (`Some(0)` for
    /// parameters), used to prove a tensor — and hence its shape — is
    /// invariant in the innermost loop.
    depth_of: Vec<Option<usize>>,
    /// Declared dtype per tensor slot (fixed by the lowering).
    pub(super) tdtype: Vec<DataType>,
    /// Number of conditional constructs (`If` branches, `Select` arms)
    /// currently open; compared against `LoopCtx::cond_base` to decide
    /// whether an access executes unconditionally in its loop.
    pub(super) cond_depth: usize,
    lib_sites: Vec<LibSite>,
    pub(super) vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

/// Whether `e` is total (cannot fault), pure (no memory reads) and integer
/// (never produces a `Float`/`Bool` that `as_i64` would bend nonlinearly):
/// safe to evaluate speculatively in a preheader, even for zero-trip loops.
pub(super) fn pure_total(e: &crate::compiled::CExpr) -> bool {
    use crate::compiled::CExpr as E;
    use BinaryOp::*;
    match e {
        E::Int(_) | E::Scalar(_) => true,
        E::Unary { op, a } => {
            matches!(op, UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign) && pure_total(a)
        }
        E::Binary { op, a, b } => {
            matches!(op, Add | Sub | Mul | Min | Max) && pure_total(a) && pure_total(b)
        }
        _ => false,
    }
}

/// Whether scalar slot `s` appears anywhere in `e`.
pub(super) fn contains_scalar(e: &crate::compiled::CExpr, s: usize) -> bool {
    use crate::compiled::CExpr as E;
    match e {
        E::Int(_) | E::Float(_) | E::Bool(_) => false,
        E::Scalar(x) => *x == s,
        E::Load { idx, .. } => idx.iter().any(|i| contains_scalar(i, s)),
        E::Unary { a, .. } => contains_scalar(a, s),
        E::Binary { a, b, .. } => contains_scalar(a, s) || contains_scalar(b, s),
        E::Select {
            cond,
            then,
            otherwise,
        } => {
            contains_scalar(cond, s) || contains_scalar(then, s) || contains_scalar(otherwise, s)
        }
        E::Cast { a, .. } => contains_scalar(a, s),
    }
}

/// Whether `e` (already known `pure_total`) is an affine function of scalar
/// slot `s`, given that every other scalar slot in it is loop-invariant —
/// which is the caller's to check.
fn linear_in(e: &crate::compiled::CExpr, s: usize) -> bool {
    use crate::compiled::CExpr as E;
    use BinaryOp::*;
    match e {
        E::Int(_) | E::Scalar(_) => true,
        E::Unary { op, a } => match op {
            UnaryOp::Neg => linear_in(a, s),
            _ => !contains_scalar(a, s),
        },
        E::Binary { op, a, b } => match op {
            Add | Sub => linear_in(a, s) && linear_in(b, s),
            Mul => {
                (linear_in(a, s) && !contains_scalar(b, s))
                    || (!contains_scalar(a, s) && linear_in(b, s))
            }
            Min | Max => !contains_scalar(a, s) && !contains_scalar(b, s),
            _ => false,
        },
        _ => false,
    }
}

fn reloc(mut ins: Instr, base: u32) -> Instr {
    match &mut ins {
        Instr::Jmp { to } | Instr::BrFalse { to, .. } | Instr::BrGeI { to, .. } => *to += base,
        _ => {}
    }
    ins
}

impl Compiler {
    pub(super) fn emit(&mut self, i: Instr) {
        self.buf.push(i);
    }

    pub(super) fn emit_idx(&mut self, i: Instr) -> usize {
        self.buf.push(i);
        self.buf.len() - 1
    }

    pub(super) fn patch(&mut self, at: usize, to: u32) {
        match &mut self.buf[at] {
            Instr::Jmp { to: t } | Instr::BrFalse { to: t, .. } | Instr::BrGeI { to: t, .. } => {
                *t = to
            }
            other => unreachable!("patch target is not a branch: {other:?}"),
        }
    }

    pub(super) fn mark(&self) -> u32 {
        self.next
    }

    fn alloc_tmp(&mut self) -> u32 {
        let r = self.next;
        self.next += 1;
        if self.next > self.max_regs {
            self.max_regs = self.next;
        }
        r
    }

    /// Release temporaries back to `mark` (never below the persist floor).
    pub(super) fn free_to(&mut self, mark: u32) {
        self.next = mark.max(self.floor);
    }

    /// Allocate a register that survives for the rest of the program.
    ///
    /// Persists must not collide with *any* temporary — including ones in
    /// code emitted earlier that re-executes every loop iteration (a loop
    /// body's early statements run again after a later statement's persist
    /// is installed). Allocating at the high watermark puts the persist
    /// above every register ever touched, and raising the floor keeps all
    /// future temporaries above it too. Registers skipped in between are
    /// leaked (8 bytes each, bounded by program size).
    pub(super) fn alloc_persist(&mut self) -> u32 {
        let r = self.max_regs;
        self.max_regs = r + 1;
        self.floor = r + 1;
        self.next = r + 1;
        r
    }

    /// Emit a conversion between scalar kinds: `Scalar::as_f64`/`as_i64`/
    /// `as_bool`, which is the cast to the kind's widest type.
    fn conv(&mut self, r: u32, from: Ty, to: Ty) -> u32 {
        if from == to {
            return r;
        }
        let dst = self.alloc_tmp();
        let to = match to {
            Ty::I => DataType::I64,
            Ty::F => DataType::F64,
            Ty::B => DataType::Bool,
        };
        self.emit(Instr::Cast { to, from, dst, a: r });
        dst
    }

    /// Compile each index expression into a contiguous register block
    /// (converted to `i64`, preserving the interpreter's evaluation order).
    fn idx_block(&mut self, idx: &[crate::compiled::CExpr]) -> u32 {
        let blk = self.next;
        for _ in idx {
            self.alloc_tmp();
        }
        for (d, e) in idx.iter().enumerate() {
            let mark = self.mark();
            let (r, t) = self.expr(e);
            let r = self.conv(r, t, Ty::I);
            self.emit(Instr::Mov {
                dst: blk + d as u32,
                src: r,
            });
            self.free_to(mark);
        }
        blk
    }

    /// Statically inferred scalar kind of an expression, mirroring the
    /// typing rules `expr` compiles with.
    fn static_ty(&self, e: &crate::compiled::CExpr) -> Ty {
        use crate::compiled::CExpr as E;
        use BinaryOp::*;
        match e {
            E::Int(_) => Ty::I,
            E::Float(_) => Ty::F,
            E::Bool(_) => Ty::B,
            E::Scalar(_) => Ty::I,
            E::Load { t, .. } => ty_of(self.tdtype[*t]),
            E::Unary { op, a } => match op {
                UnaryOp::Not => Ty::B,
                UnaryOp::Sqrt
                | UnaryOp::Exp
                | UnaryOp::Ln
                | UnaryOp::Sigmoid
                | UnaryOp::Tanh => Ty::F,
                UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign => match self.static_ty(a) {
                    Ty::F => Ty::F,
                    _ => Ty::I,
                },
            },
            E::Binary { op, a, b } => match op {
                And | Or | Eq | Ne | Lt | Le | Gt | Ge => Ty::B,
                Pow => Ty::F,
                _ if self.static_ty(a) == Ty::F || self.static_ty(b) == Ty::F => Ty::F,
                _ => Ty::I,
            },
            E::Select { then, .. } => self.static_ty(then),
            E::Cast { dtype, .. } => ty_of(*dtype),
        }
    }

    /// Whether `e` is invariant in scalar slot `s` *and* safe to hoist into
    /// the loop preheader: it never references `s`, and every load it
    /// performs reads a tensor that exists before the loop and that the
    /// loop body does not write, so its value — and any fault it raises —
    /// is exactly that of the access's first-iteration evaluation.
    pub(super) fn invariant_ok(
        &self,
        e: &crate::compiled::CExpr,
        s: usize,
        writes: &std::collections::HashSet<usize>,
    ) -> bool {
        use crate::compiled::CExpr as E;
        match e {
            E::Int(_) | E::Float(_) | E::Bool(_) => true,
            E::Scalar(x) => *x != s,
            E::Load { t, idx } => {
                !writes.contains(t)
                    && self.depth_of[*t].is_some_and(|d| d < self.loops.len())
                    && idx.iter().all(|i| self.invariant_ok(i, s, writes))
            }
            E::Unary { a, .. } => self.invariant_ok(a, s, writes),
            E::Binary { a, b, .. } => {
                self.invariant_ok(a, s, writes) && self.invariant_ok(b, s, writes)
            }
            E::Select {
                cond,
                then,
                otherwise,
            } => {
                self.invariant_ok(cond, s, writes)
                    && self.invariant_ok(then, s, writes)
                    && self.invariant_ok(otherwise, s, writes)
            }
            E::Cast { a, .. } => self.invariant_ok(a, s, writes),
        }
    }

    /// Affine-in-`s` check where `s`-free subtrees may be arbitrary
    /// hoistable invariants ([`Compiler::invariant_ok`]), as long as every
    /// node on the `s`-path stays integer-typed — a float on the path would
    /// round the truncated offset and break the two-point stride probe.
    fn linear_mixed(
        &self,
        e: &crate::compiled::CExpr,
        s: usize,
        writes: &std::collections::HashSet<usize>,
    ) -> bool {
        use crate::compiled::CExpr as E;
        use BinaryOp::*;
        if self.invariant_ok(e, s, writes) {
            return self.static_ty(e) != Ty::F;
        }
        match e {
            E::Scalar(x) => *x == s,
            E::Unary {
                op: UnaryOp::Neg,
                a,
            } => self.linear_mixed(a, s, writes),
            E::Binary { op, a, b } => match op {
                Add | Sub => {
                    self.linear_mixed(a, s, writes) && self.linear_mixed(b, s, writes)
                }
                Mul => {
                    (self.linear_mixed(a, s, writes)
                        && self.invariant_ok(b, s, writes)
                        && self.static_ty(b) != Ty::F)
                        || (self.invariant_ok(a, s, writes)
                            && self.static_ty(a) != Ty::F
                            && self.linear_mixed(b, s, writes))
                }
                _ => false,
            },
            _ => false,
        }
    }

    /// Try to strength-reduce an access to tensor `t` at `idx` against the
    /// innermost loop: returns the register holding the (incrementally
    /// maintained) flat offset, or `None` to take the generic path.
    ///
    /// The stride is measured *numerically* in the preheader — the offset is
    /// evaluated at `s` and `s + 1` and subtracted — which handles
    /// runtime-invariant coefficients (`i * n + j` with a size parameter
    /// `n`) that a compile-time constant folder could not. Structural
    /// linearity is still required, so the two probes fully determine the
    /// sequence (wrapping arithmetic keeps this exact mod 2^64).
    pub(super) fn try_reduce(
        &mut self,
        t: usize,
        idx: &[crate::compiled::CExpr],
    ) -> Option<u32> {
        let (s, cond_base) = self.loops.last().map(|l| (l.s, l.cond_base))?;
        // The tensor (and hence its shape, which OffRaw reads at loop
        // entry) must exist before the loop starts.
        if self.depth_of[t].is_none_or(|d| d >= self.loops.len()) {
            return None;
        }
        // Two eligibility tiers: `simple` probes are pure arithmetic that
        // cannot fault, so they may run unconditionally in the preheader
        // even for zero-trip loops; `with_loads` probes additionally hoist
        // loop-invariant loads (gather rows, runtime strides read from
        // memory), which is only sound for accesses executed
        // unconditionally on every iteration — and obliges the preheader to
        // be skipped when the loop runs zero iterations.
        let simple = idx.iter().all(|e| pure_total(e) && linear_in(e, s));
        let with_loads = !simple && self.cond_depth == cond_base && {
            let lp = self.loops.last().expect("checked above");
            idx.iter().all(|e| {
                self.invariant_ok(e, s, &lp.writes) || self.linear_mixed(e, s, &lp.writes)
            })
        };
        if !(simple || with_loads) {
            return None;
        }
        if with_loads {
            self.loops
                .last_mut()
                .expect("checked above")
                .faulty_preheader = true;
        }
        let varying = idx.iter().any(|e| contains_scalar(e, s));
        let r_off = self.alloc_persist();
        let r_stride = if varying {
            Some(self.alloc_persist())
        } else {
            None
        };
        let mut pre = Vec::new();
        std::mem::swap(&mut self.buf, &mut pre);
        let mark = self.mark();
        let blk = self.idx_block(idx);
        self.emit(Instr::OffRaw {
            t: t as u32,
            idx: blk,
            ndim: idx.len() as u8,
            dst: r_off,
        });
        if let Some(rs) = r_stride {
            // stride = off(s + 1) - off(s), probed by nudging the iterator.
            self.emit(Instr::AddImmI {
                dst: s as u32,
                v: 1,
            });
            let blk2 = self.idx_block(idx);
            let t2 = self.alloc_tmp();
            self.emit(Instr::OffRaw {
                t: t as u32,
                idx: blk2,
                ndim: idx.len() as u8,
                dst: t2,
            });
            self.emit(Instr::AddImmI {
                dst: s as u32,
                v: -1,
            });
            self.emit(Instr::SubI {
                dst: rs,
                a: t2,
                b: r_off,
            });
        }
        self.free_to(mark);
        std::mem::swap(&mut self.buf, &mut pre);
        let lp = self.loops.last_mut().expect("checked above");
        lp.preheader.extend(pre);
        if let Some(rs) = r_stride {
            lp.latches.push(Instr::AddI {
                dst: r_off,
                a: r_off,
                b: rs,
            });
        }
        Some(r_off)
    }

    pub(super) fn expr(&mut self, e: &crate::compiled::CExpr) -> (u32, Ty) {
        use crate::compiled::CExpr as E;
        match e {
            E::Int(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstI { dst, v: *v });
                (dst, Ty::I)
            }
            E::Float(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstF { dst, v: *v });
                (dst, Ty::F)
            }
            E::Bool(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::ConstB { dst, v: *v });
                (dst, Ty::B)
            }
            // Scalar slots are read-only to expressions; return the slot
            // register itself.
            E::Scalar(s) => (*s as u32, Ty::I),
            E::Load { t, idx } => {
                let ty = ty_of(self.tdtype[*t]);
                if let Some(off) = self.try_reduce(*t, idx) {
                    let dst = self.alloc_tmp();
                    self.emit(Instr::LoadFlat {
                        t: *t as u32,
                        off,
                        dst,
                    });
                    (dst, ty)
                } else {
                    let mark = self.mark();
                    let blk = self.idx_block(idx);
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.free_to(mark);
                    let dst = self.alloc_tmp();
                    self.emit(Instr::LoadT {
                        t: *t as u32,
                        off: roff,
                        dst,
                    });
                    (dst, ty)
                }
            }
            E::Unary { op, a } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a);
                // The kind the operator computes in (`scalar::unary`).
                let tc = match op {
                    UnaryOp::Not => Ty::B,
                    UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign if ta != Ty::F => Ty::I,
                    _ => Ty::F,
                };
                let ca = self.conv(ra, ta, tc);
                self.free_to(mark);
                let dst = self.alloc_tmp();
                self.emit(match tc {
                    Ty::B => Instr::Not { dst, a: ca },
                    Ty::I => Instr::UnI { op: *op, dst, a: ca },
                    Ty::F => Instr::UnF { op: *op, dst, a: ca },
                });
                (dst, tc)
            }
            E::Binary { op, a, b } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a);
                let (rb, tb) = self.expr(b);
                use BinaryOp::*;
                // The kind the operands meet in, and the result's
                // (`scalar::binary`).
                let float = ta == Ty::F || tb == Ty::F;
                let (tc, tr) = match op {
                    And | Or => (Ty::B, Ty::B),
                    Eq | Ne | Lt | Le | Gt | Ge if ta == Ty::I && tb == Ty::I => (Ty::I, Ty::B),
                    Eq | Ne | Lt | Le | Gt | Ge => (Ty::F, Ty::B),
                    Add | Sub | Mul | Div | Mod | Min | Max if !float => (Ty::I, Ty::I),
                    _ => (Ty::F, Ty::F),
                };
                let (a, b) = (self.conv(ra, ta, tc), self.conv(rb, tb, tc));
                self.free_to(mark);
                let dst = self.alloc_tmp();
                let op = *op;
                self.emit(match (tc, tr, op) {
                    (Ty::B, _, _) => Instr::BinB { op, dst, a, b },
                    (Ty::I, Ty::B, _) => Instr::CmpI { op, dst, a, b },
                    (_, Ty::B, _) => Instr::CmpF { op, dst, a, b },
                    (Ty::I, _, Add) => Instr::AddI { dst, a, b },
                    (Ty::I, _, Sub) => Instr::SubI { dst, a, b },
                    (Ty::I, _, Mul) => Instr::MulI { dst, a, b },
                    (Ty::I, _, _) => Instr::BinI { op, dst, a, b },
                    (Ty::F, _, Add) => Instr::AddF { dst, a, b },
                    (Ty::F, _, Sub) => Instr::SubF { dst, a, b },
                    (Ty::F, _, Mul) => Instr::MulF { dst, a, b },
                    (Ty::F, _, Div) => Instr::DivF { dst, a, b },
                    (Ty::F, _, _) => Instr::BinF { op, dst, a, b },
                });
                (dst, tr)
            }
            E::Select {
                cond,
                then,
                otherwise,
            } => {
                let mark = self.mark();
                let (rc, tc) = self.expr(cond);
                let cb = self.conv(rc, tc, Ty::B);
                self.free_to(mark);
                let dst = self.alloc_tmp();
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
                // Arms evaluate conditionally.
                self.cond_depth += 1;
                let mark2 = self.mark();
                let (rt, tt) = self.expr(then);
                self.emit(Instr::Mov { dst, src: rt });
                self.free_to(mark2);
                let jend = self.emit_idx(Instr::Jmp { to: 0 });
                let else_pc = self.buf.len() as u32;
                self.patch(br, else_pc);
                let (re, te) = self.expr(otherwise);
                self.cond_depth -= 1;
                debug_assert_eq!(tt, te, "the slot lowering gives both arms the node's type");
                self.emit(Instr::Mov { dst, src: re });
                self.free_to(mark2);
                let end_pc = self.buf.len() as u32;
                self.patch(jend, end_pc);
                (dst, tt)
            }
            E::Cast { dtype, a } => {
                let mark = self.mark();
                let (ra, ta) = self.expr(a);
                let to = ty_of(*dtype);
                if matches!(dtype, DataType::F32 | DataType::I32) || ta != to {
                    self.free_to(mark);
                    let dst = self.alloc_tmp();
                    self.emit(Instr::Cast {
                        to: *dtype,
                        from: ta,
                        dst,
                        a: ra,
                    });
                    return (dst, to);
                }
                (ra, to)
            }
        }
    }

    fn stmt(&mut self, s: &crate::compiled::CStmt) {
        use crate::compiled::CStmt as S;
        match s {
            S::Nop => {}
            S::Seq(v) => {
                for st in v {
                    self.stmt(st);
                }
            }
            S::If {
                cond,
                then,
                otherwise,
            } => {
                let mark = self.mark();
                let (rc, tc) = self.expr(cond);
                let cb = self.conv(rc, tc, Ty::B);
                self.free_to(mark);
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
                self.cond_depth += 1;
                self.stmt(then);
                if let Some(o) = otherwise {
                    let j = self.emit_idx(Instr::Jmp { to: 0 });
                    let else_pc = self.buf.len() as u32;
                    self.patch(br, else_pc);
                    self.stmt(o);
                    let end = self.buf.len() as u32;
                    self.patch(j, end);
                } else {
                    let end = self.buf.len() as u32;
                    self.patch(br, end);
                }
                self.cond_depth -= 1;
            }
            S::Store { t, idx, value } => {
                let mark = self.mark();
                if let Some(off) = self.try_reduce(*t, idx) {
                    let (rv, tv) = self.expr(value);
                    self.emit(Instr::StoreFlat {
                        t: *t as u32,
                        off,
                        src: rv,
                        sty: tv,
                    });
                } else {
                    let blk = self.idx_block(idx);
                    let (rv, tv) = self.expr(value);
                    // Bounds are checked after the value evaluates, matching
                    // the interpreter's error order.
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.emit(Instr::StoreT {
                        t: *t as u32,
                        off: roff,
                        src: rv,
                        sty: tv,
                    });
                }
                self.free_to(mark);
            }
            S::Reduce { t, idx, op, value } => {
                let mark = self.mark();
                if let Some(off) = self.try_reduce(*t, idx) {
                    let (rv, tv) = self.expr(value);
                    self.emit(Instr::ReduceFlat {
                        t: *t as u32,
                        off,
                        src: rv,
                        sty: tv,
                        op: *op,
                    });
                } else {
                    let blk = self.idx_block(idx);
                    let (rv, tv) = self.expr(value);
                    let roff = self.alloc_tmp();
                    self.emit(Instr::Off {
                        t: *t as u32,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: roff,
                    });
                    self.emit(Instr::ReduceT {
                        t: *t as u32,
                        off: roff,
                        src: rv,
                        sty: tv,
                        op: *op,
                    });
                }
                self.free_to(mark);
            }
            S::VarDef {
                t,
                shape,
                dtype,
                body,
                ..
            } => {
                self.tdtype[*t] = *dtype;
                let mark = self.mark();
                let blk = self.idx_block(shape);
                self.emit(Instr::Alloc {
                    t: *t as u32,
                    shape: blk,
                    ndim: shape.len() as u8,
                    dtype: *dtype,
                });
                self.free_to(mark);
                self.depth_of[*t] = Some(self.loops.len());
                self.stmt(body);
                self.emit(Instr::Free { t: *t as u32 });
            }
            S::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
                prof: _,
            } => {
                let id = self.lib_sites.len() as u32;
                self.lib_sites.push(LibSite {
                    kernel: kernel.clone(),
                    inputs: inputs.clone(),
                    outputs: outputs.clone(),
                    attrs: attrs.clone(),
                });
                self.emit(Instr::LibCall { id });
            }
            S::For {
                s,
                begin,
                end,
                scope,
                vectorize,
                prof,
                body,
            } => self.compile_for(*s, begin, end, *scope, *vectorize, *prof, body),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn compile_for(
        &mut self,
        s: usize,
        begin: &crate::compiled::CExpr,
        end: &crate::compiled::CExpr,
        scope: ParallelScope,
        vectorize: bool,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) {
        let s_reg = s as u32;
        // `end` cannot reference `s` (the lowering creates the iterator
        // slot after lowering both bounds), so `s` can take the begin
        // value before `end` evaluates.
        let mark = self.mark();
        let (r0, t0) = self.expr(begin);
        let c0 = self.conv(r0, t0, Ty::I);
        self.emit(Instr::Mov {
            dst: s_reg,
            src: c0,
        });
        self.free_to(mark);
        let re = self.alloc_persist();
        let mark2 = self.mark();
        let (r1, t1) = self.expr(end);
        let c1 = self.conv(r1, t1, Ty::I);
        self.emit(Instr::Mov { dst: re, src: c1 });
        self.free_to(mark2);
        // Schedule marks, honored in priority order: an `OpenMp` loop
        // becomes a pool region (a `vectorize` mark on it is logged as
        // refused); a `vectorize` mark becomes a fused wide kernel if it
        // can; anything else, the plain strength-reduced serial loop below.
        if scope == ParallelScope::OpenMp {
            if vectorize {
                self.decide(prof, false, "parallel_region");
            }
            return self.region(s_reg, re, prof, body);
        }
        if vectorize && self.try_vectorize(s, s_reg, re, prof, body) {
            return;
        }
        let mut writes = std::collections::HashSet::new();
        collect_writes(body, &mut writes);
        self.loops.push(LoopCtx::new(s, self.cond_depth, writes));
        let mut body_buf = Vec::new();
        std::mem::swap(&mut self.buf, &mut body_buf);
        self.stmt(body);
        std::mem::swap(&mut self.buf, &mut body_buf);
        let ctx = self.loops.pop().expect("pushed above");
        // Preheader (offset bases + numeric stride probes), then the
        // guard, then the relocated body, then the induction latches.
        let pre_gi = self.emit_preheader(ctx.faulty_preheader, ctx.preheader, s_reg, re);
        let guard = self.buf.len() as u32;
        let gi = self.emit_idx(Instr::BrGeI {
            a: s_reg,
            b: re,
            to: 0,
        });
        let base = self.buf.len() as u32;
        for ins in body_buf {
            let ins = reloc(ins, base);
            self.buf.push(ins);
        }
        self.buf.extend(ctx.latches);
        self.emit(Instr::AddImmI { dst: s_reg, v: 1 });
        self.emit(Instr::Jmp { to: guard });
        let exit = self.buf.len() as u32;
        self.patch(gi, exit);
        if let Some(pg) = pre_gi {
            self.patch(pg, exit);
        }
    }

    /// Emit a loop's preheader. When it can fault (hoisted invariant loads)
    /// it goes behind a zero-trip pre-guard, so an empty loop never touches
    /// memory it would not have touched under the interpreter; the guard
    /// (on iterator `a` against bound `b`) is returned for the caller to
    /// patch to the loop's exit.
    pub(super) fn emit_preheader(&mut self, faulty: bool, pre: Vec<Instr>, a: u32, b: u32) -> Option<usize> {
        let guard = faulty.then(|| self.emit_idx(Instr::BrGeI { a, b, to: 0 }));
        self.buf.extend(pre);
        guard
    }

    /// Record one `vectorize` decision for the trace.
    pub(super) fn decide(&mut self, prof: usize, accepted: bool, detail: impl Into<String>) {
        self.decisions.push(LowerDecision {
            prof,
            accepted,
            detail: detail.into(),
        });
    }

    /// Lower an `OpenMp` loop into a [`ParSite`]: whether it may run on the
    /// pool is the dependence engine's to say, when it is about to
    /// ([`VmProgram::refusal`]).
    fn region(
        &mut self,
        s_reg: u32,
        re: u32,
        prof: usize,
        body: &crate::compiled::CStmt,
    ) {
        // The body compiles into a standalone stream with a clean loop /
        // conditional context (workers re-enter it from scratch every
        // iteration). `depth_of` stays consistent under the reset: tensors
        // defined outside merely stop looking loop-invariant, which only
        // makes strength reduction and hoisting more conservative.
        let saved_loops = std::mem::take(&mut self.loops);
        let saved_cond = self.cond_depth;
        self.cond_depth = 0;
        let mut code = Vec::new();
        std::mem::swap(&mut self.buf, &mut code);
        self.stmt(body);
        self.emit(Instr::Halt);
        std::mem::swap(&mut self.buf, &mut code);
        self.loops = saved_loops;
        self.cond_depth = saved_cond;
        // Each worker owns the body's `VarDef`s.
        let mut local_mask = vec![false; self.tdtype.len()];
        for_each_stmt(body, &mut |st| {
            if let crate::compiled::CStmt::VarDef { t, .. } = st {
                local_mask[*t] = true;
            }
        });
        let site = self.par_sites.len() as u32;
        self.par_sites.push(ParSite {
            s: s_reg,
            end: re,
            cost: code.len() as u32,
            code,
            local_mask,
            prof,
            refusal: std::sync::OnceLock::new(),
        });
        self.emit(Instr::ParRegion { site });
    }
}

/// Lower a [`Compiled`] function into a VM program.
/// `func` is the function `c` was compiled from.
pub(crate) fn compile_program<'c>(c: &'c Compiled, func: &'c Func) -> VmProgram<'c> {
    let mut cp = Compiler {
        buf: Vec::new(),
        next: c.n_scalars as u32,
        floor: c.n_scalars as u32,
        max_regs: c.n_scalars as u32,
        loops: Vec::new(),
        cond_depth: 0,
        depth_of: vec![None; c.n_tensors],
        tdtype: vec![DataType::F32; c.n_tensors],
        lib_sites: Vec::new(),
        vec_sites: Vec::new(),
        par_sites: Vec::new(),
        decisions: Vec::new(),
    };
    for (slot, dtype) in &c.params {
        cp.tdtype[*slot] = *dtype;
        cp.depth_of[*slot] = Some(0);
    }
    cp.stmt(&c.body);
    cp.emit(Instr::Halt);
    VmProgram {
        c,
        func,
        accesses: std::sync::OnceLock::new(),
        code: cp.buf,
        n_regs: cp.max_regs as usize,
        lib_sites: cp.lib_sites,
        vec_sites: cp.vec_sites,
        par_sites: cp.par_sites,
        decisions: cp.decisions,
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    #[test]
    fn zero_trip_loops_are_safe_with_strength_reduction() {
        // Zero-trip and negative-trip loops must not fault in the stride
        // probe even though the body indexes `x[i*3 + 1]`.
        let f = Func::new("zt")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(block([
                for_(
                    "i",
                    0,
                    var("n"),
                    store("y", [var("i")], load("x", [var("i") * 3 + 1])),
                ),
                for_(
                    "k",
                    5,
                    2,
                    store("y", [var("k")], 9.0f32),
                ),
            ]));
        let x = TensorVal::from_f32(&[4], vec![1.0, 2.0, 3.0, 4.0]);
        let r = assert_parity(&f, &[("x", x.clone())], &[("n", 0)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 4]);
        // And a one-trip run still reads through the reduced offset.
        let r = assert_parity(&f, &[("x", x)], &[("n", 1)]);
        assert_eq!(r.output("y").get_flat(0).as_f64(), 2.0);
    }

    #[test]
    fn strength_reduction_emits_flat_accesses() {
        let affine = Func::new("aff")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                64,
                store("y", [var("i")], load("x", [var("i")])),
            ));
        let c = crate::compiled::compile(&affine).unwrap();
        let prog = compile_program(&c, &affine);
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::LoadFlat { .. })),
            "affine load should strength-reduce"
        );
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::StoreFlat { .. })),
            "affine store should strength-reduce"
        );

        let gather = Func::new("gat")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("idx", [64], DataType::I64, AccessType::Input)
            .param("y", [64], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                64,
                store("y", [var("i")], load("x", [load("idx", [var("i")])])),
            ));
        let c = crate::compiled::compile(&gather).unwrap();
        let prog = compile_program(&c, &gather);
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::LoadT { .. })),
            "gather load must stay on the generic checked path"
        );
    }

    #[test]
    fn invariant_gather_rows_strength_reduce() {
        // SubdivNet's inner-loop shape: the gathered row index
        // `adj[i, j]` (and its `% 3` neighbour) is invariant in the channel
        // loop, so the channel-loop accesses strength-reduce to flat
        // loads even though the index contains loads and a Mod.
        let (faces, ch) = (6usize, 8usize);
        let f = Func::new("conv")
            .param("e", [faces, ch], DataType::F32, AccessType::Input)
            .param("adj", [faces, 3], DataType::I64, AccessType::Input)
            .param("y", [faces, ch], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                faces as i64,
                for_(
                    "j",
                    0,
                    3,
                    for_(
                        "c",
                        0,
                        ch as i64,
                        reduce(
                            "y",
                            [var("i"), var("c")],
                            ReduceOp::Add,
                            load("e", [load("adj", [var("i"), var("j")]), var("c")])
                                + load(
                                    "e",
                                    [
                                        load("adj", [var("i"), (var("j") + 1) % 3]),
                                        var("c"),
                                    ],
                                ),
                        ),
                    ),
                ),
            ));
        let c = crate::compiled::compile(&f).unwrap();
        let prog = compile_program(&c, &f);
        let flat_loads = prog
            .code
            .iter()
            .filter(|i| matches!(i, Instr::LoadFlat { .. }))
            .count();
        assert!(
            flat_loads >= 2,
            "both invariant-row gathers should strength-reduce, got {flat_loads} flat loads"
        );

        let e = TensorVal::from_f32(
            &[faces, ch],
            (0..faces * ch).map(|v| v as f32 * 0.25 - 3.0).collect(),
        );
        let adj = TensorVal::from_i64(
            &[faces, 3],
            (0..faces * 3)
                .map(|v| ((v * 7 + 2) % faces) as i64)
                .collect(),
        );
        let r = assert_parity(&f, &[("e", e.clone()), ("adj", adj.clone())], &[]);
        // Spot-check one output cell against a direct computation.
        let mut expect = 0.0f32;
        for j in 0..3 {
            let r0 = adj.get_flat(2 * 3 + j).as_i64() as usize;
            let r1 = adj.get_flat(2 * 3 + (j + 1) % 3).as_i64() as usize;
            expect += e.get_flat(r0 * ch + 5).as_f64() as f32
                + e.get_flat(r1 * ch + 5).as_f64() as f32;
        }
        assert_eq!(r.output("y").get_flat(2 * ch + 5).as_f64(), expect as f64);
    }

    #[test]
    fn zero_trip_loop_skips_faulting_preheader() {
        // The hoisted invariant load `idx[7]` is out of bounds, but the
        // loop never runs an iteration — the interpreter succeeds, so the
        // VM's preheader must be skipped by the zero-trip pre-guard.
        let f = Func::new("ztf")
            .param("x", [8], DataType::F32, AccessType::Input)
            .param("idx", [4], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .size_param("n")
            .body(for_(
                "c",
                0,
                var("n"),
                store("y", [var("c")], load("x", [load("idx", [7])])),
            ));
        let x = TensorVal::from_f32(&[8], vec![1.0; 8]);
        let idx = TensorVal::from_i64(&[4], vec![0; 4]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[("n", 0)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn guarded_gather_is_not_hoisted() {
        // `idx[0]` is 100 — far out of bounds of `x` — but the guard is
        // false on every iteration, so the interpreter never evaluates the
        // load. Hoisting it into the preheader would fault; conditional
        // accesses must stay on the generic lazily-evaluated path.
        let f = Func::new("guard")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("idx", [1], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                if_(
                    var("i").lt(0),
                    store("y", [var("i")], load("x", [load("idx", [0])])),
                ),
            ));
        let x = TensorVal::from_f32(&[4], vec![1.0; 4]);
        let idx = TensorVal::from_i64(&[1], vec![100]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn loads_from_loop_written_tensors_are_not_hoisted() {
        // `acc[0]` has a loop-invariant index but the loop itself writes
        // `acc`, so the load must be re-evaluated every iteration.
        let f = Func::new("carry")
            .param("y", [8], DataType::I64, AccessType::Output)
            .body(var_def(
                "acc",
                [1usize],
                DataType::I64,
                MemType::CpuHeap,
                for_(
                    "i",
                    0,
                    8,
                    block([
                        store("acc", [0], load("acc", [0]) + var("i")),
                        store("y", [var("i")], load("acc", [0])),
                    ]),
                ),
            ));
        let r = assert_parity(&f, &[], &[]);
        // Running sums 0,1,3,6,... — a stale hoisted load would repeat 0.
        assert_eq!(
            r.output("y").to_f64_vec(),
            vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]
        );
    }

    #[test]
    fn unlowered_atomic_reduce_is_refused_never_pooled() {
        // `compile_program` fed the IR `run_inner` never hands it: the
        // colliding reduction still carries its `atomic` flag. The loop is a
        // region, and the engine refuses it the fork.
        let f = Func::new("fser")
            .param("x", [64], DataType::F32, AccessType::Input)
            .param("acc", [1], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                64,
                ForProperty::parallel(ParallelScope::OpenMp),
                atomic_reduce("acc", 0.into(), ReduceOp::Add, load("x", [var("i")])),
            ));
        let reduce = find_stmts(&f.body, &|s| matches!(s.kind, StmtKind::ReduceTo { .. }))[0].id;
        assert_eq!(
            refusals_of(&f),
            [Some(format!("carried reduction {reduce}"))]
        );
    }

    #[test]
    fn a_region_reads_what_it_writes_at_its_own_iteration() {
        // `y[i]` written, then read at the same `i`: nothing crosses
        // iterations, so the loop runs on the pool — and every run agrees
        // with the interpreter bit for bit. 8192 iterations clear
        // `PAR_THRESHOLD`; on one core the region runs inline.
        let n = 8192i64;
        let f = Func::new("overlap")
            .param("x", [n], DataType::F32, AccessType::Input)
            .param("y", [n], DataType::F32, AccessType::Output)
            .param("z", [n], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                n,
                ForProperty::parallel(ParallelScope::OpenMp),
                block([
                    store("y", [var("i")], load("x", [var("i")]) * 2.0f32),
                    store("z", [var("i")], load("y", [var("i")]) + 1.0f32),
                ]),
            ));
        assert_eq!(refusals_of(&f), [None]);
        let x = TensorVal::from_f32(&[n as usize], (0..n).map(|v| v as f32 * 0.5).collect());
        let metrics = Metrics::new();
        let mut vm = VmRuntime::new();
        vm.set_metrics(Some(metrics.clone()));
        let (ins, szs) = maps(&[("x", x.clone())], &[]);
        for _ in 0..20 {
            let r = vm.run(&f, &ins, &szs).expect("vm ok");
            assert_eq!(
                r.outputs,
                assert_parity(&f, &[("x", x.clone())], &[]).outputs
            );
        }
        let pooled = metrics.snapshot().counter("vm.par.pool");
        assert_eq!(
            pooled > 0,
            WorkerPool::global().background_workers() > 0,
            "{pooled}"
        );
    }

    #[test]
    fn a_store_to_one_cell_is_refused_with_the_engines_reason() {
        // A store whose cell does not depend on the parallel iterator.
        let st = store("y", [0], var("i"));
        let id = st.id;
        let l = for_with("i", 0, 32, ForProperty::parallel(ParallelScope::OpenMp), st);
        let lid = l.id;
        let g = Func::new("unproven")
            .param("y", [1], DataType::I64, AccessType::Output)
            .body(l);
        let why = format!("Waw `y` {id} -> {id} @loop {lid} certain");
        assert_eq!(refusals_of(&g), [Some(why.clone())]);
        assert_parity(&g, &[], &[]);
        // 32 iterations never fork, but a traced run asks anyway: the span
        // carries the same reason on any number of cores.
        let sink = TraceSink::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        let (ins, szs) = maps(&[], &[]);
        vm.run(&g, &ins, &szs).expect("vm ok");
        let spans: Vec<Vec<(String, String)>> = sink
            .events()
            .into_iter()
            .filter(|e| e.name == "vm.parallel")
            .map(|e| e.args)
            .collect();
        let refused = |a: &Vec<(String, String)>| a.iter().any(|(k, v)| k == "reason" && *v == why);
        assert!(matches!(&spans[..], [a] if refused(a)), "{spans:?}");
    }

    #[test]
    fn a_region_marked_vectorize_runs_inline_as_its_own_body() {
        // 256 copies stay under `PAR_THRESHOLD`, so the region runs inline:
        // its own body per iteration, no kernel, bit for bit the serial
        // loop. The `vectorize` mark is logged as refused.
        let both = ForProperty {
            vectorize: true,
            ..ForProperty::parallel(ParallelScope::OpenMp)
        };
        let f = Func::new("copy")
            .param("x", [256], DataType::F32, AccessType::Input)
            .param("y", [256], DataType::F64, AccessType::Output)
            .body(for_with(
                "i",
                0,
                256,
                both,
                store("y", [var("i")], load("x", [var("i")])),
            ));
        assert_eq!(decisions_of(&f), [(false, "parallel_region".to_string())]);
        let x = TensorVal::from_f32(&[256], (0..256).map(|v| v as f32 * 0.3).collect());
        let metrics = Metrics::new();
        let mut vm = VmRuntime::new();
        vm.set_metrics(Some(metrics.clone()));
        let (ins, szs) = maps(&[("x", x.clone())], &[]);
        let r = vm.run(&f, &ins, &szs).expect("vm ok");
        assert_eq!(r.outputs, assert_parity(&f, &[("x", x)], &[]).outputs);
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("vm.par.serial"), 1);
        for kernel in VEC_KERNEL_NAMES {
            assert_eq!(snap.counter(&format!("vm.kernel.{kernel}")), 0);
        }
    }

    #[test]
    fn an_inner_iterator_is_not_an_invariant_of_the_region() {
        // Hand-marked, wrongly: iterations `i` and `i + 1` of the parallel
        // loop meet in `t[i + 1]` (`k` = 1 and 0), which both update. The
        // region is refused, and then agrees with the interpreter bit for
        // bit.
        let (n, w) = (64i64, 8i64);
        let f = Func::new("band")
            .param("x", [n], DataType::F32, AccessType::Input)
            .param("t", [n + w], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                n,
                ForProperty::parallel(ParallelScope::OpenMp),
                for_(
                    "k",
                    0,
                    w,
                    reduce(
                        "t",
                        [var("i") + var("k")],
                        ReduceOp::Add,
                        load("x", [var("i")]) * 0.37f32,
                    ),
                ),
            ));
        let refusals = refusals_of(&f);
        assert!(
            matches!(&refusals[..], [Some(why)] if why.starts_with("carried reduction")),
            "{refusals:?}"
        );
        let x = TensorVal::from_f32(
            &[n as usize],
            (0..n).map(|v| (v as f32 * 0.61).sin() * 7.3).collect(),
        );
        for _ in 0..20 {
            assert_parity(&f, &[("x", x.clone())], &[]);
        }
        // The same write behind a component that is the bare iterator is
        // not refused: `t2[i, k]`.
        let g = Func::new("rows")
            .param("x", [n], DataType::F32, AccessType::Input)
            .param("t2", [n, w], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                n,
                ForProperty::parallel(ParallelScope::OpenMp),
                for_(
                    "k",
                    0,
                    w,
                    reduce(
                        "t2",
                        [var("i"), var("k")],
                        ReduceOp::Add,
                        load("x", [var("i")]),
                    ),
                ),
            ));
        assert_eq!(refusals_of(&g), [None]);
    }
}
