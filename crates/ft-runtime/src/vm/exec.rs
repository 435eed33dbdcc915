//! The machine: per-run state (`VmState`), the dispatch loop, and
//! fork-join execution of parallel regions.

use super::*;

/// A live tensor in the VM: the crate's one tensor type, beside the
/// element count every flat bounds check compares against, so the dispatch
/// loop needs no walk over the shape.
#[derive(Debug)]
pub(super) struct VmSlot {
    pub(super) val: TensorVal,
    numel: usize,
}

impl VmSlot {
    fn new(val: TensorVal) -> VmSlot {
        VmSlot {
            numel: val.numel(),
            val,
        }
    }
}

/// Raw shared view of the coordinator's tensor slots for fork-join regions.
///
/// SAFETY: the VM executes only functions a resolve proved
/// (`ft_codegen::prove_parallel`, run by [`crate::bind`]): the dependence
/// engine finds no dependence and no reduction carried by any parallel loop
/// left in them, so no cell one iteration writes is read or written by
/// another, and element accesses never race. The `Option` shells
/// of shared slots are never inserted or removed while the region runs
/// (region code contains no `Alloc`/`Free` for non-local tensors, and
/// parameters are placed before any code runs) except by a `LibCall`, which
/// takes its output out of its slot for the call: the engine models the
/// call as a write of the whole tensor, so no other iteration touches it.
/// Transient `&mut` views of one shared slot may coexist across workers
/// only under that proof.
pub(super) struct SharedSlots(*mut Option<VmSlot>);
unsafe impl Send for SharedSlots {}
unsafe impl Sync for SharedSlots {}

/// Minimum `trip * body_cost` before a parallel region pays for the
/// fork-join handshake; below it the region runs serially in place.
const PAR_THRESHOLD: u64 = 32_768;

/// Mutable machine state of one run.
pub(super) struct VmState<'a> {
    pub(super) names: &'a [String],
    pub(super) regs: Vec<u64>,
    pub(super) tensors: Vec<Option<VmSlot>>,
    /// Inside a fork-join region: the coordinator's slots plus the mask of
    /// slots that stay worker-private (the region body's `VarDef`s).
    pub(super) shared: Option<(&'a SharedSlots, &'a [bool])>,
    /// Dispatch tallies, present only when the owning
    /// [`VmRuntime`] has a metrics registry. Coordinator-thread only:
    /// worker states inside a fork-join region run untallied, so the
    /// counts are independent of worker count.
    pub(super) tally: Option<VmTally>,
    /// Plan-driven buffer pool for `Alloc`/`Free` storage. Coordinator
    /// only — fork-join worker states run with `None`.
    pub(super) arena: Option<TensorPool>,
}

/// Per-run dispatch bookkeeping harvested into the metrics registry after
/// execution. Plain integers on the coordinator thread — no atomics on the
/// dispatch hot path.
#[derive(Debug)]
pub(super) struct VmTally {
    /// Dispatch counts per fused [`VecKernel`] kind, by [`VecKernel::idx`].
    pub(super) vec: [u64; VEC_KERNEL_NAMES.len()],
    /// Parallel-region sites scheduled on the worker pool.
    pub(super) par_pool: u64,
    /// Parallel-region sites that took the serial fallback (tiny trip
    /// count, one-core host, or nested region).
    pub(super) par_serial: u64,
    /// Wall time of each fused-kernel dispatch, in nanoseconds.
    pub(super) kernel_ns: ft_metrics::Histogram,
}

/// A value as its register holds it: `Scalar` widens exactly like the
/// register file does.
#[inline(always)]
fn bits_of(v: Scalar) -> u64 {
    match v {
        Scalar::Float(x) => x.to_bits(),
        Scalar::Int(x) => x as u64,
        Scalar::Bool(x) => x as u64,
    }
}

impl VmState<'_> {
    #[inline(always)]
    pub(super) fn ri(&self, r: u32) -> i64 {
        self.regs[r as usize] as i64
    }

    #[inline(always)]
    pub(super) fn rf(&self, r: u32) -> f64 {
        f64::from_bits(self.regs[r as usize])
    }

    #[inline(always)]
    fn rb(&self, r: u32) -> bool {
        self.regs[r as usize] != 0
    }

    #[inline(always)]
    pub(super) fn wi(&mut self, r: u32, v: i64) {
        self.regs[r as usize] = v as u64;
    }

    #[inline(always)]
    pub(super) fn wf(&mut self, r: u32, v: f64) {
        self.regs[r as usize] = v.to_bits();
    }

    #[inline(always)]
    fn wb(&mut self, r: u32, v: bool) {
        self.regs[r as usize] = v as u64;
    }

    /// `dst = a op b` on integers, by the table; with `op` a constant the
    /// operator's own arm is all that is left of it.
    #[inline(always)]
    fn bin_i(&mut self, op: BinaryOp, dst: u32, a: u32, b: u32) -> Result<(), RuntimeError> {
        let v = scalar::int_binary(op, self.ri(a), self.ri(b))?;
        self.wi(dst, v);
        Ok(())
    }

    /// `dst = a op b` on floats, likewise.
    #[inline(always)]
    fn bin_f(&mut self, op: BinaryOp, dst: u32, a: u32, b: u32) {
        let v = scalar::float_binary(op, self.rf(a), self.rf(b));
        self.wf(dst, v);
    }

    #[inline]
    pub(super) fn scalar_of(&self, r: u32, ty: Ty) -> Scalar {
        match ty {
            Ty::I => Scalar::Int(self.ri(r)),
            Ty::F => Scalar::Float(self.rf(r)),
            Ty::B => Scalar::Bool(self.rb(r)),
        }
    }

    /// The tensor slot `t` resolves to: the local vector, or the
    /// coordinator's slot when running inside a fork-join region and `t`
    /// is not worker-private.
    #[inline(always)]
    pub(super) fn slot(&self, t: usize) -> &Option<VmSlot> {
        match self.shared {
            // SAFETY: see [`SharedSlots`].
            Some((sh, mask)) if !mask[t] => unsafe { &*sh.0.add(t) },
            _ => &self.tensors[t],
        }
    }

    #[inline(always)]
    pub(super) fn slot_mut(&mut self, t: usize) -> &mut Option<VmSlot> {
        match self.shared {
            // SAFETY: see [`SharedSlots`].
            Some((sh, mask)) if !mask[t] => unsafe { &mut *sh.0.add(t) },
            _ => &mut self.tensors[t],
        }
    }

    /// `numel` of a live slot, or the load/store error payload.
    #[inline]
    pub(super) fn numel_of(&self, t: usize) -> Result<usize, RuntimeError> {
        self.slot(t)
            .as_ref()
            .map(|vt| vt.numel)
            .ok_or_else(|| RuntimeError::UndefinedName(self.names[t].clone()))
    }

    /// One `LoadFlat` worth of semantics (checks and error payloads
    /// included) as a plain call, for the vector kernels' scalar tails.
    #[inline]
    pub(super) fn load_flat_val(&self, t: usize, o: i64) -> Result<Scalar, RuntimeError> {
        let Some(vt) = self.slot(t).as_ref() else {
            return Err(RuntimeError::UndefinedName(self.names[t].clone()));
        };
        if o < 0 || o as usize >= vt.numel {
            return Err(self.oob(t, vec![o]));
        }
        Ok(vt.val.get_flat(o as usize))
    }

    /// One `StoreFlat` worth of semantics as a plain call, out of line for
    /// the reason `exec_vec` is.
    #[inline(never)]
    pub(super) fn store_flat_val(&mut self, t: usize, o: i64, v: Scalar) -> Result<(), RuntimeError> {
        let numel = self.numel_of(t)?;
        if o < 0 || o as usize >= numel {
            return Err(self.oob(t, vec![o]));
        }
        self.slot_mut(t)
            .as_mut()
            .expect("checked above")
            .val
            .set_flat(o as usize, v);
        Ok(())
    }

    /// One `ReduceFlat` worth of semantics as a plain call.
    #[inline]
    pub(super) fn reduce_flat_val(
        &mut self,
        t: usize,
        o: i64,
        op: ReduceOp,
        v: Scalar,
    ) -> Result<(), RuntimeError> {
        let old = self.load_flat_val(t, o)?;
        let new = scalar::reduce(op, old, v);
        self.slot_mut(t)
            .as_mut()
            .expect("checked above")
            .val
            .set_flat(o as usize, new);
        Ok(())
    }

    /// Place the bound parameters ([`Resolved::bind`]), before any code
    /// runs.
    pub(super) fn bind_params(
        &mut self,
        c: &Compiled,
        resolved: &Resolved<'_>,
        inputs: &HashMap<String, TensorVal>,
    ) {
        let bound = resolved.bind(inputs, None);
        for ((slot, _), val) in c.params.iter().zip(bound) {
            self.tensors[*slot] = Some(VmSlot::new(val.into_owned()));
        }
    }

    /// The extents of tensor `t`, read from the `ndim` registers at `base`.
    fn shape_of(&self, t: usize, base: u32, ndim: u8) -> Result<Vec<usize>, RuntimeError> {
        let regs = &self.regs[base as usize..base as usize + ndim as usize];
        regs.iter()
            .map(|r| usize::try_from(*r as i64))
            .collect::<Result<_, _>>()
            .map_err(|_| RuntimeError::UnresolvedSize(self.names[t].clone()))
    }

    fn oob(&self, t: usize, index: Vec<i64>) -> RuntimeError {
        let shape = self.slot(t)
            .as_ref()
            .map(|vt| vt.val.shape().to_vec())
            .unwrap_or_default();
        RuntimeError::IndexOutOfBounds {
            name: self.names[t].clone(),
            index,
            shape,
        }
    }

    /// Dispatch a `LibCall` site to the kernels of [`crate::libkernel`], on
    /// the operands in place.
    fn libcall(&mut self, site: &LibSite) -> Result<(), RuntimeError> {
        match site.kernel.as_str() {
            "matmul" => {
                let out = site.outputs[0];
                let undefined = |t: usize| RuntimeError::UndefinedName(self.names[t].clone());
                // The output leaves its slot for the call so the inputs can
                // be borrowed beside it. An input that *is* the output reads
                // a copy of its value at entry, as the interpreter's does.
                let mut c = self.slot_mut(out).take().ok_or_else(|| undefined(out))?;
                let at_entry = site.inputs.contains(&out).then(|| c.val.clone());
                let input = |t: usize| match &at_entry {
                    Some(v) if t == out => Ok(v),
                    _ => self
                        .slot(t)
                        .as_ref()
                        .map(|s| &s.val)
                        .ok_or_else(|| undefined(t)),
                };
                let r = input(site.inputs[0]).and_then(|a| {
                    let b = input(site.inputs[1])?;
                    matmul_checked(a, b, &mut c.val, &site.attrs, &self.names[out])
                });
                *self.slot_mut(out) = Some(c);
                r.map(drop)
            }
            other => Err(RuntimeError::UnknownKernel(other.to_string())),
        }
    }

    /// The dispatch loop over one instruction stream (the top-level code or
    /// a fork-join region body).
    pub(super) fn exec_code(
        &mut self,
        code: &[Instr],
        prog: &VmProgram<'_>,
    ) -> Result<(), RuntimeError> {
        let mut pc = 0usize;
        loop {
            match &code[pc] {
                Instr::Halt => return Ok(()),
                Instr::Jmp { to } => {
                    pc = *to as usize;
                    continue;
                }
                Instr::BrFalse { cond, to } => {
                    if !self.rb(*cond) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::BrGeI { a, b, to } => {
                    if self.ri(*a) >= self.ri(*b) {
                        pc = *to as usize;
                        continue;
                    }
                }
                Instr::ConstI { dst, v } => self.wi(*dst, *v),
                Instr::ConstF { dst, v } => self.wf(*dst, *v),
                Instr::ConstB { dst, v } => self.wb(*dst, *v),
                Instr::Mov { dst, src } => self.regs[*dst as usize] = self.regs[*src as usize],
                Instr::AddImmI { dst, v } => {
                    let x = self.ri(*dst).wrapping_add(*v);
                    self.wi(*dst, x);
                }
                Instr::AddI { dst, a, b } => self.bin_i(BinaryOp::Add, *dst, *a, *b)?,
                Instr::SubI { dst, a, b } => self.bin_i(BinaryOp::Sub, *dst, *a, *b)?,
                Instr::MulI { dst, a, b } => self.bin_i(BinaryOp::Mul, *dst, *a, *b)?,
                Instr::BinI { op, dst, a, b } => self.bin_i(*op, *dst, *a, *b)?,
                Instr::AddF { dst, a, b } => self.bin_f(BinaryOp::Add, *dst, *a, *b),
                Instr::SubF { dst, a, b } => self.bin_f(BinaryOp::Sub, *dst, *a, *b),
                Instr::MulF { dst, a, b } => self.bin_f(BinaryOp::Mul, *dst, *a, *b),
                Instr::DivF { dst, a, b } => self.bin_f(BinaryOp::Div, *dst, *a, *b),
                Instr::BinF { op, dst, a, b } => self.bin_f(*op, *dst, *a, *b),
                Instr::BinB { op, dst, a, b } => {
                    let v = scalar::logic(*op, self.rb(*a), self.rb(*b));
                    self.wb(*dst, v);
                }
                Instr::CmpI { op, dst, a, b } => {
                    let v = scalar::compare(*op, self.ri(*a), self.ri(*b));
                    self.wb(*dst, v);
                }
                Instr::CmpF { op, dst, a, b } => {
                    let v = scalar::compare(*op, self.rf(*a), self.rf(*b));
                    self.wb(*dst, v);
                }
                Instr::UnI { op, dst, a } => {
                    let v = scalar::int_unary(*op, self.ri(*a));
                    self.wi(*dst, v);
                }
                Instr::UnF { op, dst, a } => {
                    let v = scalar::float_unary(*op, self.rf(*a));
                    self.wf(*dst, v);
                }
                Instr::Not { dst, a } => {
                    let v = !self.rb(*a);
                    self.wb(*dst, v);
                }
                Instr::Cast { to, from, dst, a } => {
                    let v = scalar::cast(*to, self.scalar_of(*a, *from));
                    self.regs[*dst as usize] = bits_of(v);
                }
                Instr::Off { t, idx, ndim, dst } => {
                    let ti = *t as usize;
                    let Some(vt) = self.slot(ti).as_ref() else {
                        return Err(RuntimeError::UndefinedName(self.names[ti].clone()));
                    };
                    let nd = *ndim as usize;
                    let base = *idx as usize;
                    let index = || (0..nd).map(|d| self.regs[base + d] as i64).collect();
                    if nd != vt.val.ndim() {
                        return Err(self.oob(ti, index()));
                    }
                    let mut off = 0usize;
                    for d in 0..nd {
                        let i = self.regs[base + d] as i64;
                        let extent = vt.val.shape()[d];
                        if i < 0 || i as usize >= extent {
                            return Err(self.oob(ti, index()));
                        }
                        off = off * extent + i as usize;
                    }
                    self.regs[*dst as usize] = off as u64;
                }
                Instr::OffRaw { t, idx, ndim, dst } => {
                    let ti = *t as usize;
                    let vt = self.slot(ti).as_ref().expect("defined outside loop");
                    let base = *idx as usize;
                    let mut off = 0i64;
                    for d in 0..*ndim as usize {
                        let i = self.regs[base + d] as i64;
                        off = off.wrapping_mul(vt.val.shape()[d] as i64).wrapping_add(i);
                    }
                    self.regs[*dst as usize] = off as u64;
                }
                Instr::LoadT { t, off, dst } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let vt = self.slot(ti).as_ref().expect("Off checked");
                    let bits = match &vt.val.data {
                        Data::F32(v) => (v[o] as f64).to_bits(),
                        Data::F64(v) => v[o].to_bits(),
                        Data::I32(v) => (v[o] as i64) as u64,
                        Data::I64(v) => v[o] as u64,
                        Data::Bool(v) => v[o] as u64,
                    };
                    self.regs[*dst as usize] = bits;
                }
                Instr::LoadFlat { t, off, dst } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    self.regs[*dst as usize] = bits_of(self.load_flat_val(ti, o)?);
                }
                Instr::StoreT { t, off, src, sty } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let v = self.scalar_of(*src, *sty);
                    self.slot_mut(ti)
                        .as_mut()
                        .expect("Off checked")
                        .val
                        .set_flat(o, v);
                }
                Instr::StoreFlat { t, off, src, sty } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    let v = self.scalar_of(*src, *sty);
                    self.store_flat_val(ti, o, v)?;
                }
                Instr::ReduceT {
                    t,
                    off,
                    src,
                    sty,
                    op,
                } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as usize;
                    let v = self.scalar_of(*src, *sty);
                    let old = self.slot(ti).as_ref().expect("Off checked").val.get_flat(o);
                    let new = scalar::reduce(*op, old, v);
                    self.slot_mut(ti)
                        .as_mut()
                        .expect("Off checked")
                        .val
                        .set_flat(o, new);
                }
                Instr::ReduceFlat {
                    t,
                    off,
                    src,
                    sty,
                    op,
                } => {
                    let ti = *t as usize;
                    let o = self.regs[*off as usize] as i64;
                    let v = self.scalar_of(*src, *sty);
                    self.reduce_flat_val(ti, o, *op, v)?;
                }
                Instr::Alloc {
                    t,
                    shape,
                    ndim,
                    dtype,
                } => {
                    let ti = *t as usize;
                    let sh = self.shape_of(ti, *shape, *ndim)?;
                    let val = match self.arena.as_mut() {
                        Some(pool) => pool.take_slot(ti, *dtype, &sh),
                        None => TensorVal::zeros(*dtype, &sh),
                    };
                    *self.slot_mut(ti) = Some(VmSlot::new(val));
                }
                Instr::Free { t } => {
                    let ti = *t as usize;
                    if let Some(vt) = self.slot_mut(ti).take() {
                        if let Some(pool) = self.arena.as_mut() {
                            pool.put_slot(ti, vt.val);
                        }
                    }
                }
                Instr::LibCall { id } => {
                    self.libcall(&prog.lib_sites[*id as usize])?;
                }
                Instr::VecLoop { site } => {
                    self.exec_vec(&prog.vec_sites[*site as usize])?;
                }
                Instr::ParRegion { site } => {
                    self.exec_region(prog, &prog.par_sites[*site as usize])?;
                }
            }
            pc += 1;
        }
    }

    /// Run one fork-join region on the worker pool, or serially in place
    /// when the work would not pay for the handshake.
    fn exec_region(&mut self, prog: &VmProgram<'_>, site: &ParSite) -> Result<(), RuntimeError> {
        let b = self.ri(site.s);
        let e = self.ri(site.end);
        if b >= e {
            self.wi(site.s, e);
            return Ok(());
        }
        let trip = (e - b) as usize;
        let pool = WorkerPool::global();
        let workers = (pool.background_workers() + 1).min(trip);
        let work = (trip as u64).saturating_mul(u64::from(site.cost.max(1)));
        if workers <= 1 || work < PAR_THRESHOLD || self.shared.is_some() {
            if let Some(t) = self.tally.as_mut() {
                t.par_serial += 1;
            }
            for i in b..e {
                self.wi(site.s, i);
                self.exec_code(&site.code, prog)?;
            }
            self.wi(site.s, e);
            return Ok(());
        }
        if let Some(t) = self.tally.as_mut() {
            t.par_pool += 1;
        }
        let grain = grain_for(trip as i64, workers, u64::from(site.cost.max(1)));
        let base_regs = &self.regs;
        let shared = SharedSlots(self.tensors.as_mut_ptr());
        let names = self.names;
        let mask = site.local_mask.as_slice();
        // First error in deterministic (chunk, not thread) order. No
        // iteration reads a cell another writes, so whether each iteration
        // faults is independent of the others and the minimum faulting
        // chunk matches the serial first fault.
        let err: Mutex<Option<(usize, RuntimeError)>> = Mutex::new(None);
        let body = |lo: i64, hi: i64| {
            let chunk = ((lo - b) / grain) as usize;
            if err.lock().as_ref().is_some_and(|(c, _)| *c < chunk) {
                return;
            }
            // This chunk's scratch state: the registers as they stood at
            // region entry, and empty slots for the body's own `VarDef`s.
            let mut ws = VmState {
                names,
                regs: base_regs.clone(),
                tensors: (0..prog.c.n_tensors).map(|_| None).collect(),
                shared: Some((&shared, mask)),
                tally: None,
                arena: None,
            };
            for i in lo..hi {
                ws.wi(site.s, i);
                if let Err(er) = ws.exec_code(&site.code, prog) {
                    let mut g = err.lock();
                    if g.as_ref().is_none_or(|(c, _)| chunk < *c) {
                        *g = Some((chunk, er));
                    }
                    break;
                }
            }
        };
        if let Err(payload) = pool.try_run(b, e, grain, workers, &body) {
            std::panic::resume_unwind(payload);
        }
        if let Some((_, er)) = err.into_inner() {
            return Err(er);
        }
        self.wi(site.s, e);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::*;
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    #[test]
    fn error_parity_division_by_zero() {
        let f = Func::new("div")
            .param("x", [8], DataType::I64, AccessType::Input)
            .param("y", [8], DataType::I64, AccessType::Output)
            .body(for_(
                "i",
                0,
                8,
                store("y", [var("i")], load("x", [var("i")]) / (var("i") - 2)),
            ));
        let x = TensorVal::from_i64(&[8], (1..9).collect());
        let (ins, szs) = maps(&[("x", x)], &[]);
        let ei = Runtime::new().run(&f, &ins, &szs).unwrap_err();
        let ef = VmRuntime::new().run(&f, &ins, &szs).unwrap_err();
        assert_eq!(ei, RuntimeError::DivisionByZero);
        assert_eq!(ei, ef);
    }

    #[test]
    fn error_parity_out_of_bounds() {
        // A data-dependent index keeps the VM on the generic
        // (per-dimension checked) path, so the error payload is identical.
        let f = Func::new("oob")
            .param("idx", [1], DataType::I64, AccessType::Input)
            .param("y", [2], DataType::F32, AccessType::Output)
            .body(store("y", [load("idx", [0])], 1.0f32));
        let idx = TensorVal::from_i64(&[1], vec![5]);
        let (ins, szs) = maps(&[("idx", idx)], &[]);
        let ei = Runtime::new().run(&f, &ins, &szs).unwrap_err();
        let ef = VmRuntime::new().run(&f, &ins, &szs).unwrap_err();
        assert_eq!(
            ei,
            RuntimeError::IndexOutOfBounds {
                name: "y".to_string(),
                index: vec![5],
                shape: vec![2],
            }
        );
        assert_eq!(ei, ef);
    }

    #[test]
    fn libcall_matmul_parity() {
        let (m, k, n) = (9usize, 5usize, 6usize);
        let f = Func::new("mm")
            .param("A", [m, k], DataType::F32, AccessType::Input)
            .param("B", [k, n], DataType::F32, AccessType::Input)
            .param("C", [m, n], DataType::F32, AccessType::Output)
            .body(ft_ir::Stmt::new(ft_ir::StmtKind::LibCall {
                kernel: "matmul".to_string(),
                inputs: vec!["A".to_string(), "B".to_string()],
                outputs: vec!["C".to_string()],
                attrs: vec![m as i64, k as i64, n as i64],
            }));
        let a = TensorVal::from_f32(&[m, k], (0..m * k).map(|v| v as f32 * 0.5).collect());
        let b = TensorVal::from_f32(&[k, n], (0..k * n).map(|v| (v as f32).sin()).collect());
        let r = assert_parity(&f, &[("A", a), ("B", b)], &[]);
        assert_eq!(r.counters.flops, (2 * m * k * n) as u64);
    }

    #[test]
    fn a_worker_runs_a_libcall_into_its_own_def() {
        // Every iteration multiplies into its own `c`: nothing crosses
        // iterations, so the region forks (on a host with a helper) and the
        // workers run the call on their private slot.
        let n = 8192i64;
        let f = Func::new("mmrows")
            .param("a", [2, 2], DataType::F32, AccessType::Input)
            .param("b", [2, 2], DataType::F32, AccessType::Input)
            .param("x", [n], DataType::F32, AccessType::Input)
            .param("y", [n], DataType::F32, AccessType::Output)
            .body(for_with(
                "i",
                0,
                n,
                ForProperty::parallel(ParallelScope::OpenMp),
                var_def(
                    "c",
                    [2, 2],
                    DataType::F32,
                    MemType::CpuHeap,
                    block([
                        ft_ir::Stmt::new(ft_ir::StmtKind::LibCall {
                            kernel: "matmul".to_string(),
                            inputs: vec!["a".to_string(), "b".to_string()],
                            outputs: vec!["c".to_string()],
                            attrs: vec![2, 2, 2],
                        }),
                        store("y", [var("i")], load("c", [1, 0]) * load("x", [var("i")])),
                    ]),
                ),
            ));
        assert!(serialized_of(&f).is_empty());
        let a = TensorVal::from_f32(&[2, 2], vec![0.5, 1.5, -2.0, 3.0]);
        let b = TensorVal::from_f32(&[2, 2], vec![1.25, -1.0, 0.75, 2.0]);
        let x = TensorVal::from_f32(&[n as usize], (0..n).map(|v| v as f32 * 0.01).collect());
        let metrics = Metrics::new();
        let mut vm = VmRuntime::new();
        vm.set_metrics(Some(metrics.clone()));
        let inputs = [("a", a), ("b", b), ("x", x)];
        let (ins, szs) = maps(&inputs, &[]);
        let r = vm.run(&f, &ins, &szs).expect("vm ok");
        assert_eq!(r.outputs, assert_parity(&f, &inputs, &[]).outputs);
        let pooled = metrics.snapshot().counter("vm.par.pool");
        assert_eq!(
            pooled > 0,
            WorkerPool::global().background_workers() > 0,
            "{pooled}"
        );
    }

    #[test]
    fn int_reduction_and_wrapping_parity() {
        // Int reduce plus wrapping int arithmetic.
        let f = Func::new("ired")
            .param("x", [16], DataType::I32, AccessType::Input)
            .param("s", [1], DataType::I64, AccessType::Output)
            .body(for_(
                "i",
                0,
                16,
                reduce(
                    "s",
                    [0],
                    ReduceOp::Add,
                    load("x", [var("i")]) * load("x", [var("i")]) - var("i"),
                ),
            ));
        let x = TensorVal::from_i32(&[16], (0..16).map(|v| v * 3 - 20).collect());
        let r = assert_parity(&f, &[("x", x)], &[]);
        let expect: i64 = (0..16i64)
            .map(|i| {
                let v = i * 3 - 20;
                v * v - i
            })
            .sum();
        assert_eq!(r.output("s").get_flat(0).as_i64(), expect);
    }

    #[test]
    fn parallel_float_reductions_run_the_lowered_nest() {
        // `y[i] += x[i, j]` and `top max= x[i, j]` with `j` parallel: float
        // reductions carried by the parallel loop. The VM used to serialize
        // such a loop; now it executes the nest the compiled kernel
        // executes — fill, chunk loop, merges, every one a region the
        // resolve proves — so the association is the lowered function's:
        // fixed by the IR, not by which worker ran what, and only close to
        // serial.
        // 2048 rows put the merge of `y` over `PAR_THRESHOLD`: with a helper
        // thread it runs on the pool, on a one-core host inline, same bits.
        let (rows, cols) = (2048usize, 24usize);
        let xij = || load("x", [var("i"), var("j")]);
        let f = Func::new("rowsum")
            .param("x", [rows, cols], DataType::F32, AccessType::Input)
            .param("y", [rows], DataType::F32, AccessType::Output)
            .param("top", [1], DataType::F32, AccessType::Output)
            .body(for_with(
                "j",
                0,
                cols as i64,
                ForProperty::parallel(ParallelScope::OpenMp),
                for_(
                    "i",
                    0,
                    rows as i64,
                    block([
                        atomic_reduce("y", var("i"), ReduceOp::Add, xij()),
                        atomic_reduce("top", 0.into(), ReduceOp::Max, xij()),
                    ]),
                ),
            ));
        let x = TensorVal::from_f32(
            &[rows, cols],
            (0..rows * cols)
                .map(|v| (v as f32 * 0.37).sin() * 3.1)
                .collect(),
        );
        let (ins, szs) = maps(&[("x", x.clone())], &[]);
        let (sink, metrics) = (TraceSink::new(), Metrics::new());
        let mut vm = VmRuntime::new();
        vm.set_sink(Some(sink.clone()));
        vm.set_metrics(Some(metrics.clone()));
        let first = vm.run(&f, &ins, &szs).expect("vm ok");
        assert_eq!(
            metrics.snapshot().counter("vm.par.pool") > 0,
            WorkerPool::global().background_workers() > 0
        );
        let resolved = vm.resolve(&f, &szs).expect("resolves");
        let mut regions = 0;
        resolved.func().body.walk(&mut |s| {
            if matches!(&s.kind, StmtKind::For { property, .. } if property.parallel.is_parallel()) {
                regions += 1;
            }
        });
        let serialized = sink.decisions().into_iter().filter(|d| d.primitive == "lower.parallel");
        assert_eq!(serialized.count(), 0, "fill, chunk loop and merge must all prove");
        assert!(regions >= 3, "{regions} regions");
        for _ in 1..20 {
            let again = vm.run(&f, &ins, &szs).expect("vm ok");
            assert_eq!(again.outputs, first.outputs, "run-to-run bits moved");
        }
        assert_eq!(assert_parity(&f, &[("x", x)], &[]).outputs, first.outputs);
        let serial = Runtime::new().run(&f, &ins, &szs).expect("interp ok");
        assert!(first.output("y").allclose(serial.output("y"), 1e-4));
        assert_eq!(first.output("top"), serial.output("top"));
    }
}
