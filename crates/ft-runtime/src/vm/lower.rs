//! Lowering of a slot-resolved function into a [`VmProgram`]: the
//! register-allocating `Compiler`, strength reduction, and parallel-region
//! sites. A register of the IR (a 0-d `CpuStack` def, which
//! `ft_codegen::lower_scalar` makes of every value it hoists, reuses or
//! accumulates) is a machine register here; what to hoist is not decided
//! again.

use super::*;

/// Per-open-loop compile state for strength reduction.
#[derive(Default)]
pub(super) struct LoopCtx {
    /// Scalar slot of the loop iterator.
    pub(super) s: usize,
    /// Tensor slots the loop body writes (stores, reduces, `LibCall`
    /// outputs, and `VarDef`s) — a register outside them is loop-invariant.
    pub(super) writes: std::collections::HashSet<usize>,
    /// Instructions to run once at loop entry (after `s = begin`), even
    /// when the loop runs no iteration: they cannot fault.
    pub(super) preheader: Vec<Instr>,
    /// Induction increments to run at the end of every iteration.
    pub(super) latches: Vec<Instr>,
}

/// Call `f` on `s` and on every statement nested in it.
fn for_each_stmt(s: &CStmt, f: &mut impl FnMut(&CStmt)) {
    use CStmt as S;
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
pub(super) fn collect_writes(s: &CStmt, out: &mut std::collections::HashSet<usize>) {
    use CStmt as S;
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
    /// The machine register of each register of the IR (0-d `CpuStack`).
    regs: Vec<Option<u32>>,
    /// The defining statement of each tensor slot a `VarDef` allocates.
    defs: Vec<Option<StmtId>>,
    lib_sites: Vec<LibSite>,
    pub(super) vec_sites: Vec<VecSite>,
    par_sites: Vec<ParSite>,
    decisions: Vec<LowerDecision>,
}

/// Whether scalar slot `s` appears anywhere in `e`.
pub(super) fn contains_scalar(e: &CExpr, s: usize) -> bool {
    use CExpr as E;
    match e {
        E::Const(_) => false,
        E::Scalar(x) => *x == s,
        E::Load { idx, .. } => idx.iter().any(|i| contains_scalar(i, s)),
        E::Unary { a, .. } => contains_scalar(a, s),
        E::Binary { a, b, .. } => contains_scalar(a, s) || contains_scalar(b, s),
        E::Select {
            cond,
            then,
            otherwise,
        } => contains_scalar(cond, s) || contains_scalar(then, s) || contains_scalar(otherwise, s),
        E::Cast { a, .. } => contains_scalar(a, s),
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

    /// Compile `e`, which the slot lowering gave `kind`.
    fn expr_in(&mut self, e: &CExpr, kind: Kind) -> u32 {
        let (r, k) = self.expr(e);
        debug_assert_eq!(k, kind, "the slot lowering converts {e:?}");
        r
    }

    /// Compile each index expression into a contiguous register block
    /// (preserving the interpreter's evaluation order).
    fn idx_block(&mut self, idx: &[CExpr]) -> u32 {
        let blk = self.next;
        for _ in idx {
            self.alloc_tmp();
        }
        for (d, e) in idx.iter().enumerate() {
            let mark = self.mark();
            let r = self.expr_in(e, Kind::Int);
            self.emit(Instr::Mov {
                dst: blk + d as u32,
                src: r,
            });
            self.free_to(mark);
        }
        blk
    }

    /// The register `e` reads, with its kind, if it reads one.
    /// (An index into one is no register read: it fails as an access to a
    /// tensor that does not exist.)
    pub(super) fn register(&self, e: &CExpr) -> Option<(u32, Kind)> {
        match e {
            CExpr::Load { t, idx } if idx.is_empty() => {
                self.regs[*t].map(|r| (r, Kind::of(self.tdtype[*t])))
            }
            _ => None,
        }
    }

    /// Whether the innermost loop's preheader may evaluate `e` even when the
    /// loop runs no iteration: it reads constants, scalars and registers
    /// the loop does not write, and no integer division can fault. With
    /// `int`, integer arithmetic the stride probes evaluate at an
    /// iteration (no conversion or comparison, so every leaf is an
    /// integer); without, a value of every iteration (no iterator `s`).
    pub(super) fn speculable(&self, e: &CExpr, s: usize, int: bool) -> bool {
        use BinaryOp::*;
        use CExpr as E;
        match e {
            E::Const(_) => true,
            E::Scalar(x) => int || *x != s,
            // To the loop, a register it does not write is an outer scalar.
            E::Load { t, .. } => {
                self.register(e).is_some()
                    && self.loops.last().is_some_and(|l| !l.writes.contains(t))
            }
            E::Unary { op, a, .. } => {
                (!int || matches!(op, UnaryOp::Neg | UnaryOp::Abs | UnaryOp::Sign))
                    && self.speculable(a, s, int)
            }
            E::Binary { op, a, b, flop } => {
                let ok = match int {
                    true => matches!(op, Add | Sub | Mul | Min | Max),
                    // Float operands: `/` and `%` compute in floats.
                    false => *flop || !matches!(op, Div | Mod),
                };
                ok && self.speculable(a, s, int) && self.speculable(b, s, int)
            }
            E::Select { .. } => false,
            E::Cast { a, .. } => !int && self.speculable(a, s, int),
        }
    }

    /// Whether `e` (already known [`speculable`](Compiler::speculable) as
    /// an integer) is an affine function of scalar slot `s`.
    fn linear_in(&self, e: &CExpr, s: usize) -> bool {
        use BinaryOp::*;
        use CExpr as E;
        match e {
            E::Const(_) | E::Scalar(_) | E::Load { .. } => true,
            E::Unary { op, a, .. } => match op {
                UnaryOp::Neg => self.linear_in(a, s),
                _ => !contains_scalar(a, s),
            },
            E::Binary { op, a, b, .. } => match op {
                Add | Sub => self.linear_in(a, s) && self.linear_in(b, s),
                Mul => {
                    (self.linear_in(a, s) && !contains_scalar(b, s))
                        || (!contains_scalar(a, s) && self.linear_in(b, s))
                }
                Min | Max => !contains_scalar(a, s) && !contains_scalar(b, s),
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
    pub(super) fn try_reduce(&mut self, t: usize, idx: &[CExpr]) -> Option<u32> {
        let s = self.loops.last()?.s;
        // The tensor (and hence its shape, which OffRaw reads at loop
        // entry) must exist before the loop starts.
        if self.depth_of[t].is_none_or(|d| d >= self.loops.len()) {
            return None;
        }
        // The probes run in the preheader whether or not the loop runs, so
        // they must not fault: integer arithmetic on scalars and registers.
        // A gathered row (`e[adj[i, j], c]`) reads a register here, which
        // `ft_codegen::lower_scalar` loaded in front of the loop.
        if !idx
            .iter()
            .all(|e| self.speculable(e, s, true) && self.linear_in(e, s))
        {
            return None;
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

    /// Compile `e` into a register, in the kind of its operands; returns
    /// the register and the kind of its value.
    pub(super) fn expr(&mut self, e: &CExpr) -> (u32, Kind) {
        use CExpr as E;
        match e {
            E::Const(v) => {
                let dst = self.alloc_tmp();
                self.emit(Instr::Const {
                    dst,
                    bits: bits_of(*v),
                });
                (dst, v.kind())
            }
            // Scalar slots and registers are read-only to expressions;
            // return the register itself.
            E::Scalar(s) => (*s as u32, Kind::Int),
            E::Load { .. } if self.register(e).is_some() => self.register(e).expect("checked"),
            E::Load { t, idx } => {
                let tu = *t as u32;
                let flat = self.try_reduce(*t, idx);
                let off = flat.unwrap_or_else(|| {
                    let mark = self.mark();
                    let (blk, off) = (self.idx_block(idx), self.alloc_tmp());
                    self.emit(Instr::Off {
                        t: tu,
                        idx: blk,
                        ndim: idx.len() as u8,
                        dst: off,
                    });
                    self.free_to(mark);
                    off
                });
                let dst = self.alloc_tmp();
                self.emit(match flat {
                    Some(_) => Instr::LoadFlat { t: tu, off, dst },
                    None => Instr::LoadT { t: tu, off, dst },
                });
                (dst, Kind::of(self.tdtype[*t]))
            }
            E::Unary { op, a, .. } => {
                let mark = self.mark();
                let (a, kind) = self.expr(a);
                debug_assert_eq!(scalar::unary_kind(*op, kind), kind, "{e:?}");
                self.free_to(mark);
                let dst = self.alloc_tmp();
                self.emit(match kind {
                    Kind::Bool => Instr::Not { dst, a },
                    Kind::Int => Instr::UnI { op: *op, dst, a },
                    Kind::Float => Instr::UnF { op: *op, dst, a },
                });
                (dst, kind)
            }
            E::Binary { op, a, b, .. } => {
                let mark = self.mark();
                let a = self.expr(a);
                let b = self.expr(b);
                self.binary(*op, a, b, mark)
            }
            E::Select {
                cond,
                then,
                otherwise,
            } => {
                let mark = self.mark();
                let cb = self.expr_in(cond, Kind::Bool);
                self.free_to(mark);
                let dst = self.alloc_tmp();
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
                let mark2 = self.mark();
                let (rt, kind) = self.expr(then);
                self.emit(Instr::Mov { dst, src: rt });
                self.free_to(mark2);
                let jend = self.emit_idx(Instr::Jmp { to: 0 });
                let else_pc = self.buf.len() as u32;
                self.patch(br, else_pc);
                let re = self.expr_in(otherwise, kind);
                self.emit(Instr::Mov { dst, src: re });
                self.free_to(mark2);
                let end_pc = self.buf.len() as u32;
                self.patch(jend, end_pc);
                (dst, kind)
            }
            E::Cast { dtype, a } => {
                let mark = self.mark();
                let (a, from) = self.expr(a);
                if *dtype == from.dtype() {
                    return (a, from);
                }
                self.free_to(mark);
                let dst = self.alloc_tmp();
                self.emit(Instr::Cast {
                    to: *dtype,
                    from,
                    dst,
                    a,
                });
                (dst, Kind::of(*dtype))
            }
        }
    }

    /// `a op b` of two evaluated operands of the kind `op` computes in,
    /// their temporaries released back to `mark`.
    fn binary(
        &mut self,
        op: BinaryOp,
        (a, ka): (u32, Kind),
        (b, kb): (u32, Kind),
        mark: u32,
    ) -> (u32, Kind) {
        use BinaryOp::*;
        let (kind, result) = scalar::binary_kind(op, ka, kb);
        debug_assert!(
            ka == kind && kb == kind,
            "the slot lowering converts `{}`'s operands",
            op.name()
        );
        self.free_to(mark);
        let dst = self.alloc_tmp();
        self.emit(match (kind, result, op) {
            (Kind::Bool, _, _) => Instr::BinB { op, dst, a, b },
            (Kind::Int, Kind::Bool, _) => Instr::CmpI { op, dst, a, b },
            (_, Kind::Bool, _) => Instr::CmpF { op, dst, a, b },
            (Kind::Int, _, Add) => Instr::AddI { dst, a, b },
            (Kind::Int, _, Sub) => Instr::SubI { dst, a, b },
            (Kind::Int, _, Mul) => Instr::MulI { dst, a, b },
            (Kind::Int, _, _) => Instr::BinI { op, dst, a, b },
            (Kind::Float, _, Add) => Instr::AddF { dst, a, b },
            (Kind::Float, _, Sub) => Instr::SubF { dst, a, b },
            (Kind::Float, _, Mul) => Instr::MulF { dst, a, b },
            (Kind::Float, _, Div) => Instr::DivF { dst, a, b },
            (Kind::Float, _, _) => Instr::BinF { op, dst, a, b },
        });
        (dst, result)
    }

    /// `t[idx] = value`, or `t[idx] op= value` (`scalar::reduce`: the
    /// operator's `binary`, then the store). The slot lowering gives a
    /// stored value `t`'s kind, and a reduction's value the kind the
    /// operator computes in.
    fn assign(&mut self, t: usize, idx: &[CExpr], op: Option<ReduceOp>, value: &CExpr) {
        let mark = self.mark();
        let tu = t as u32;
        if let Some(r) = self.regs[t].filter(|_| idx.is_empty()) {
            let v = self.expr(value);
            let v = self.combine(t, r, op, v, mark);
            self.store_reg(t, r, v);
            return self.free_to(mark);
        }
        let flat = self.try_reduce(t, idx);
        let blk = flat.is_none().then(|| self.idx_block(idx));
        let v @ (mut src, kind) = self.expr(value);
        // Bounds are checked after the value evaluates, matching the
        // interpreter's error order.
        let off = flat.unwrap_or_else(|| {
            let (off, ndim) = (self.alloc_tmp(), idx.len() as u8);
            let idx = blk.expect("no flat offset");
            self.emit(Instr::Off {
                t: tu,
                idx,
                ndim,
                dst: off,
            });
            off
        });
        let mut op = op;
        if op.is_some() && kind != Kind::of(self.tdtype[t]) {
            // The value's kind promotes the element's (a float added to an
            // integer, say): read, combine, and store the result.
            let old = self.alloc_tmp();
            self.emit(match flat {
                Some(_) => Instr::LoadFlat {
                    t: tu,
                    off,
                    dst: old,
                },
                None => Instr::LoadT {
                    t: tu,
                    off,
                    dst: old,
                },
            });
            let m = self.mark();
            let v = self.combine(t, old, op.take(), v, m);
            src = self.alloc_tmp();
            self.store_reg(t, src, v);
        }
        self.emit(match (flat, op) {
            (Some(_), None) => Instr::StoreFlat { t: tu, off, src },
            (None, None) => Instr::StoreT { t: tu, off, src },
            (Some(_), Some(op)) => Instr::ReduceFlat {
                t: tu,
                off,
                src,
                op,
            },
            (None, Some(op)) => Instr::ReduceT {
                t: tu,
                off,
                src,
                op,
            },
        });
        self.free_to(mark);
    }

    /// `old op v` for a reduction into `t`, whose old value register `old`
    /// holds, temporaries released back to `mark`; `v` itself for a store.
    /// The old value is read in `v`'s kind: the one conversion the slot
    /// form cannot state, since the old value is no expression of it.
    fn combine(
        &mut self,
        t: usize,
        old: u32,
        op: Option<ReduceOp>,
        v: (u32, Kind),
        mark: u32,
    ) -> (u32, Kind) {
        let Some(op) = op else { return v };
        let (from, mut old) = (Kind::of(self.tdtype[t]), old);
        if from != v.1 {
            let dst = self.alloc_tmp();
            self.emit(Instr::Cast {
                to: v.1.dtype(),
                from,
                dst,
                a: old,
            });
            old = dst;
        }
        self.binary(op.binary(), (old, v.1), v, mark)
    }

    /// `r = v`, converted as a store into a tensor of `t`'s dtype converts
    /// it.
    fn store_reg(&mut self, t: usize, r: u32, (src, kind): (u32, Kind)) {
        let dtype = self.tdtype[t];
        self.emit(match dtype == kind.dtype() {
            true => Instr::Mov { dst: r, src },
            false => Instr::Cast {
                to: dtype,
                from: kind,
                dst: r,
                a: src,
            },
        });
    }

    fn stmt(&mut self, s: &CStmt) {
        use CStmt as S;
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
                let cb = self.expr_in(cond, Kind::Bool);
                self.free_to(mark);
                let br = self.emit_idx(Instr::BrFalse { cond: cb, to: 0 });
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
            }
            S::Store { t, idx, value } => self.assign(*t, idx, None, value),
            S::Reduce { t, idx, op, value } => self.assign(*t, idx, Some(*op), value),
            S::VarDef {
                t,
                shape,
                dtype,
                mtype,
                body,
                ..
            } if mtype.register(shape.len()) => {
                // A register, zero like every def on entry (all-zero bits
                // are 0, 0.0 and `false`).
                self.tdtype[*t] = *dtype;
                let r = self.alloc_persist();
                self.regs[*t] = Some(r);
                self.emit(Instr::Const { dst: r, bits: 0 });
                self.stmt(body);
            }
            S::VarDef {
                t,
                id,
                shape,
                dtype,
                body,
                ..
            } => {
                self.tdtype[*t] = *dtype;
                self.defs[*t] = Some(*id);
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
        begin: &CExpr,
        end: &CExpr,
        scope: ParallelScope,
        vectorize: bool,
        prof: usize,
        body: &CStmt,
    ) {
        let s_reg = s as u32;
        // `end` cannot reference `s` (the lowering creates the iterator
        // slot after lowering both bounds), so `s` can take the begin
        // value before `end` evaluates.
        let mark = self.mark();
        let src = self.expr_in(begin, Kind::Int);
        self.emit(Instr::Mov { dst: s_reg, src });
        self.free_to(mark);
        let re = self.alloc_persist();
        let mark2 = self.mark();
        let c1 = self.expr_in(end, Kind::Int);
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
            return self.region(s_reg, re, body);
        }
        if vectorize && self.try_vectorize(s, s_reg, re, prof, body) {
            return;
        }
        let mut writes = std::collections::HashSet::new();
        collect_writes(body, &mut writes);
        self.loops.push(LoopCtx {
            s,
            writes,
            ..LoopCtx::default()
        });
        let mut body_buf = Vec::new();
        std::mem::swap(&mut self.buf, &mut body_buf);
        self.stmt(body);
        std::mem::swap(&mut self.buf, &mut body_buf);
        let ctx = self.loops.pop().expect("pushed above");
        // Preheader (offset bases + numeric stride probes), then the
        // guard, then the relocated body, then the induction latches.
        self.buf.extend(ctx.preheader);
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
    }

    /// Record one `vectorize` decision for the trace.
    pub(super) fn decide(&mut self, prof: usize, accepted: bool, detail: impl Into<String>) {
        self.decisions.push(LowerDecision {
            prof,
            accepted,
            detail: detail.into(),
        });
    }

    /// Lower an `OpenMp` loop into a [`ParSite`]. The resolve proved the
    /// mark (`ft_codegen::prove_parallel`) or made the loop serial.
    fn region(&mut self, s_reg: u32, re: u32, body: &CStmt) {
        // The body compiles into a standalone stream with a clean loop
        // context (workers re-enter it from scratch every iteration, each
        // with its own copy of the registers). `depth_of` stays consistent
        // under the reset: tensors defined outside merely stop looking
        // loop-invariant, which only makes strength reduction more
        // conservative.
        let saved_loops = std::mem::take(&mut self.loops);
        let mut code = Vec::new();
        std::mem::swap(&mut self.buf, &mut code);
        self.stmt(body);
        self.emit(Instr::Halt);
        std::mem::swap(&mut self.buf, &mut code);
        self.loops = saved_loops;
        // Each worker owns the body's `VarDef`s.
        let mut local_mask = vec![false; self.tdtype.len()];
        for_each_stmt(body, &mut |st| {
            if let CStmt::VarDef { t, .. } = st {
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
        });
        self.emit(Instr::ParRegion { site });
    }
}

/// Lower a [`Compiled`] function into a VM program.
pub(crate) fn compile_program(c: &Compiled) -> VmProgram<'_> {
    let mut cp = Compiler {
        buf: Vec::new(),
        next: c.n_scalars as u32,
        floor: c.n_scalars as u32,
        max_regs: c.n_scalars as u32,
        loops: Vec::new(),
        depth_of: vec![None; c.n_tensors],
        tdtype: vec![DataType::F32; c.n_tensors],
        regs: vec![None; c.n_tensors],
        defs: vec![None; c.n_tensors],
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
        code: cp.buf,
        defs: cp.defs,
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
                for_("k", 5, 2, store("y", [var("k")], 9.0f32)),
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
        let c = crate::slots::compile(&affine).unwrap();
        let prog = compile_program(&c);
        assert!(
            prog.code
                .iter()
                .any(|i| matches!(i, Instr::LoadFlat { .. })),
            "affine load should strength-reduce"
        );
        assert!(
            prog.code
                .iter()
                .any(|i| matches!(i, Instr::StoreFlat { .. })),
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
        let c = crate::slots::compile(&gather).unwrap();
        let prog = compile_program(&c);
        assert!(
            prog.code.iter().any(|i| matches!(i, Instr::LoadT { .. })),
            "gather load must stay on the generic checked path"
        );
    }

    /// The values `ft_codegen::lower_scalar` hoists out of a loop of `f`.
    fn hoisted(f: &Func) -> Vec<Expr> {
        let mut values = Vec::new();
        ft_codegen::lower_scalar(f).body.walk(&mut |s| {
            if let StmtKind::Store { var, value, .. } = &s.kind {
                if var.starts_with("ft.h") {
                    values.push(value.clone());
                }
            }
        });
        values
    }

    #[test]
    fn invariant_gather_rows_strength_reduce() {
        // SubdivNet's inner-loop shape: the gathered row index
        // `adj[i, j]` (and its `% 3` neighbour) is invariant in the channel
        // loop, so the scalar lowering loads both in front of it, and the
        // channel-loop accesses strength-reduce to flat loads through the
        // registers.
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
                                    [load("adj", [var("i"), (var("j") + 1) % 3]), var("c")],
                                ),
                        ),
                    ),
                ),
            ));
        let row = |j: Expr| load("adj", [var("i"), j]);
        assert_eq!(hoisted(&f), [row(var("j")), row((var("j") + 1) % 3)]);
        let (lowered, _) = ft_codegen::lower_and_plan(&f, &HashMap::new());
        let c = crate::slots::compile(&lowered).unwrap();
        let prog = compile_program(&c);
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
            expect +=
                e.get_flat(r0 * ch + 5).as_f64() as f32 + e.get_flat(r1 * ch + 5).as_f64() as f32;
        }
        assert_eq!(r.output("y").get_flat(2 * ch + 5).as_f64(), expect as f64);
    }

    #[test]
    fn zero_trip_loop_skips_faulting_preheader() {
        // The invariant load `idx[7]` is out of bounds, but the loop never
        // runs an iteration — the interpreter succeeds. A loop that may not
        // run has nothing hoisted out of it, so nothing faults in front of
        // it.
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
        assert_eq!(hoisted(&f), []);
        let x = TensorVal::from_f32(&[8], vec![1.0; 8]);
        let idx = TensorVal::from_i64(&[4], vec![0; 4]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[("n", 0)]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn guarded_gather_is_not_hoisted() {
        // `idx[0]` is 100 — far out of bounds of `x` — but the guard is
        // false on every iteration, so the interpreter never evaluates the
        // load. Hoisting it in front of the loop would fault: nothing
        // leaves an `If`.
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
        assert_eq!(hoisted(&f), []);
        let x = TensorVal::from_f32(&[4], vec![1.0; 4]);
        let idx = TensorVal::from_i64(&[1], vec![100]);
        let r = assert_parity(&f, &[("x", x), ("idx", idx)], &[]);
        assert_eq!(r.output("y").to_f64_vec(), vec![0.0; 8]);
    }

    #[test]
    fn loads_from_loop_written_tensors_are_not_hoisted() {
        // `acc[0]` has a loop-invariant index but the loop itself writes
        // `acc`, so the load is evaluated every iteration: nothing leaves
        // the loop, and nothing is reused across the store.
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
        assert!(matches!(
            ft_codegen::lower_scalar(&f),
            std::borrow::Cow::Borrowed(_)
        ));
        let r = assert_parity(&f, &[], &[]);
        // Running sums 0,1,3,6,... — a stale hoisted load would repeat 0.
        assert_eq!(
            r.output("y").to_f64_vec(),
            vec![0.0, 1.0, 3.0, 6.0, 10.0, 15.0, 21.0, 28.0]
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
        assert!(serialized_of(&f).is_empty());
        let x = TensorVal::from_f32(&[n as usize], (0..n).map(|v| v as f32 * 0.5).collect());
        let metrics = Metrics::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(TraceSink::from(metrics.clone())));
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
        assert_eq!(serialized_of(&g), std::slice::from_ref(&why));
        assert_parity(&g, &[], &[]);
        // The resolve decides it, whether or not the region would fork: a
        // traced run's `lower.parallel` decision carries the same reason and
        // the dependence on any number of cores.
        let sink = TraceSink::new();
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        let (ins, szs) = maps(&[], &[]);
        vm.run(&g, &ins, &szs).expect("vm ok");
        let refused: Vec<_> = sink
            .decisions()
            .into_iter()
            .filter(|d| d.primitive == "lower.parallel")
            .collect();
        assert!(
            matches!(&refused[..], [d] if d.reason.as_deref() == Some(why.as_str()) && d.deps.len() == 1),
            "{refused:?}"
        );
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
        vm.set_sink(Some(TraceSink::from(metrics.clone())));
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
        // resolve makes the loop serial, and it agrees with the interpreter
        // bit for bit.
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
        let serialized = serialized_of(&f);
        assert!(
            matches!(&serialized[..], [why] if why.starts_with("carried reduction")),
            "{serialized:?}"
        );
        let x = TensorVal::from_f32(
            &[n as usize],
            (0..n).map(|v| (v as f32 * 0.61).sin() * 7.3).collect(),
        );
        for _ in 0..20 {
            assert_parity(&f, &[("x", x.clone())], &[]);
        }
        // The same write behind a component that is the bare iterator is
        // serialized: `t2[i, k]`.
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
        assert!(serialized_of(&g).is_empty());
    }
}
