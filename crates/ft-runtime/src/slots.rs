//! Slot-indexed lowering of the IR: the form the reference interpreter
//! executes and the bytecode VM ([`crate::vm`]) compiles from. (The engine
//! that compiles C is [`crate::native`].)
//!
//! Interpreting the IR directly would resolve tensor and iterator *names*
//! through hash maps on every access; this module lowers a [`Func`] once
//! into a form where every scalar and tensor reference is a dense slot
//! index, and the executor works over plain vectors. Semantics and
//! instrumentation are identical to the specification in [`crate::interp`]
//! (the equivalence is exercised by the whole cross-crate test suite, which
//! runs everything through this path).

use crate::counters::{CacheSim, PerfCounters, LINE};
use crate::device::DeviceConfig;
use crate::error::RuntimeError;
use crate::value::{Scalar, TensorVal};
use ft_ir::{
    BinaryOp, DataType, Expr, Func, MemType, ParallelScope, ReduceOp, Stmt, StmtKind, UnaryOp,
};
use ft_trace::{ProfileNode, StmtCounters};
use std::collections::HashMap;

/// A compiled expression over slot indices.
#[derive(Debug, Clone)]
pub(crate) enum CExpr {
    Int(i64),
    Float(f64),
    Bool(bool),
    /// Scalar slot (loop iterator or size parameter).
    Scalar(usize),
    Load {
        t: usize,
        idx: Vec<CExpr>,
    },
    Unary {
        op: UnaryOp,
        a: Box<CExpr>,
    },
    Binary {
        op: BinaryOp,
        a: Box<CExpr>,
        b: Box<CExpr>,
    },
    Select {
        cond: Box<CExpr>,
        then: Box<CExpr>,
        otherwise: Box<CExpr>,
    },
    Cast {
        dtype: DataType,
        a: Box<CExpr>,
    },
}

/// A compiled statement over slot indices.
#[derive(Debug, Clone)]
pub(crate) enum CStmt {
    Seq(Vec<CStmt>),
    VarDef {
        t: usize,
        shape: Vec<CExpr>,
        dtype: DataType,
        mtype: MemType,
        body: Box<CStmt>,
    },
    For {
        s: usize,
        begin: CExpr,
        end: CExpr,
        scope: ParallelScope,
        vectorize: bool,
        /// Profile-node index counters inside this loop are attributed to.
        prof: usize,
        body: Box<CStmt>,
    },
    If {
        cond: CExpr,
        then: Box<CStmt>,
        otherwise: Option<Box<CStmt>>,
    },
    Store {
        t: usize,
        idx: Vec<CExpr>,
        value: CExpr,
    },
    Reduce {
        t: usize,
        idx: Vec<CExpr>,
        op: ReduceOp,
        value: CExpr,
    },
    LibCall {
        kernel: String,
        inputs: Vec<usize>,
        outputs: Vec<usize>,
        attrs: Vec<i64>,
        /// Profile-node index this call's bulk charges are attributed to.
        prof: usize,
    },
    Nop,
}

/// A fully lowered function, ready to execute.
#[derive(Debug, Clone)]
pub(crate) struct Compiled {
    pub body: CStmt,
    /// One entry per tensor slot: diagnostic name.
    pub tensor_names: Vec<String>,
    /// Tensor slot and declared dtype per parameter, in declaration order
    /// (shapes and inputs arrive resolved — see [`crate::bind`]).
    pub params: Vec<(usize, DataType)>,
    /// Scalar slot per size parameter, in declaration order.
    pub size_slots: Vec<usize>,
    pub n_tensors: usize,
    pub n_scalars: usize,
    /// Profile-tree skeleton in preorder (node 0 = the function root); each
    /// `For`/`LibCall` carries the index of its node. Counters are zeroed
    /// here and filled per run.
    pub prof_nodes: Vec<ProfileNode>,
}

struct Lower {
    tensor_names: Vec<String>,
    /// Element type per tensor slot.
    tensor_dtypes: Vec<DataType>,
    n_scalars: usize,
    tensor_scope: HashMap<String, Vec<usize>>,
    scalar_scope: HashMap<String, Vec<usize>>,
    prof_nodes: Vec<ProfileNode>,
    prof_cur: usize,
}

impl Lower {
    fn tensor_slot(&mut self, name: &str) -> Result<usize, RuntimeError> {
        self.tensor_scope
            .get(name)
            .and_then(|v| v.last().copied())
            .ok_or_else(|| RuntimeError::UndefinedName(name.to_string()))
    }

    fn new_tensor(&mut self, name: &str, dtype: DataType) -> usize {
        let slot = self.tensor_names.len();
        self.tensor_names.push(name.to_string());
        self.tensor_dtypes.push(dtype);
        self.tensor_scope
            .entry(name.to_string())
            .or_default()
            .push(slot);
        slot
    }

    fn new_scalar(&mut self, name: &str) -> usize {
        let slot = self.n_scalars;
        self.n_scalars += 1;
        self.scalar_scope
            .entry(name.to_string())
            .or_default()
            .push(slot);
        slot
    }

    fn new_prof_node(&mut self, stmt: ft_ir::StmtId, desc: String) -> usize {
        let idx = self.prof_nodes.len();
        self.prof_nodes.push(ProfileNode {
            stmt: Some(stmt),
            desc,
            parent: Some(self.prof_cur),
            counters: StmtCounters::default(),
        });
        idx
    }

    fn expr(&mut self, e: &Expr) -> Result<CExpr, RuntimeError> {
        Ok(match e {
            Expr::IntConst(v) => CExpr::Int(*v),
            Expr::FloatConst(v) => CExpr::Float(*v),
            Expr::BoolConst(v) => CExpr::Bool(*v),
            Expr::Var(n) => CExpr::Scalar(
                self.scalar_scope
                    .get(n)
                    .and_then(|v| v.last().copied())
                    .ok_or_else(|| RuntimeError::UndefinedName(n.clone()))?,
            ),
            Expr::Load { var, indices } => CExpr::Load {
                t: self.tensor_slot(var)?,
                idx: indices
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Result<_, _>>()?,
            },
            Expr::Unary { op, a } => CExpr::Unary {
                op: *op,
                a: Box::new(self.expr(a)?),
            },
            Expr::Binary { op, a, b } => CExpr::Binary {
                op: *op,
                a: Box::new(self.expr(a)?),
                b: Box::new(self.expr(b)?),
            },
            Expr::Select {
                cond,
                then,
                otherwise,
            } => {
                // A `Select` has the type `Expr::dtype` gives the node — C's
                // `?:` — and its arm is converted to it, so neither the
                // interpreter nor the VM needs a rule of its own.
                let ty = |e: &Expr| e.dtype(&|n: &str| self.elem(n)).dtype;
                let (to, from) = (ty(e), [ty(then), ty(otherwise)]);
                CExpr::Select {
                    cond: Box::new(self.expr(cond)?),
                    then: Box::new(self.arm(then, from[0], to)?),
                    otherwise: Box::new(self.arm(otherwise, from[1], to)?),
                }
            }
            Expr::Cast { dtype, a } => CExpr::Cast {
                dtype: *dtype,
                a: Box::new(self.expr(a)?),
            },
        })
    }

    /// The element type of the tensor `name` resolves to; any type for a
    /// name that resolves to nothing, which lowering it reports.
    fn elem(&self, name: &str) -> DataType {
        let slot = self.tensor_scope.get(name).and_then(|v| v.last());
        slot.map_or(DataType::I64, |t| self.tensor_dtypes[*t])
    }

    /// A `Select` arm of type `from`, converted to the node's type `to`; a
    /// literal converts here, once.
    fn arm(&mut self, e: &Expr, from: DataType, to: DataType) -> Result<CExpr, RuntimeError> {
        let c = self.expr(e)?;
        if from == to {
            return Ok(c);
        }
        Ok(match Scalar::of_const(e) {
            Some(v) => match ft_ir::scalar::cast(to, v) {
                Scalar::Int(v) => CExpr::Int(v),
                Scalar::Float(v) => CExpr::Float(v),
                Scalar::Bool(v) => CExpr::Bool(v),
            },
            None => CExpr::Cast {
                dtype: to,
                a: Box::new(c),
            },
        })
    }

    fn stmt(&mut self, s: &Stmt) -> Result<CStmt, RuntimeError> {
        Ok(match &s.kind {
            StmtKind::Empty => CStmt::Nop,
            StmtKind::Block(v) => CStmt::Seq(
                v.iter()
                    .map(|st| self.stmt(st))
                    .collect::<Result<_, _>>()?,
            ),
            StmtKind::VarDef {
                name,
                shape,
                dtype,
                mtype,
                body,
                ..
            } => {
                let shape: Vec<CExpr> = shape
                    .iter()
                    .map(|e| self.expr(e))
                    .collect::<Result<_, _>>()?;
                let t = self.new_tensor(name, *dtype);
                let body = self.stmt(body)?;
                self.tensor_scope
                    .get_mut(name)
                    .expect("just pushed")
                    .pop();
                CStmt::VarDef {
                    t,
                    shape,
                    dtype: *dtype,
                    mtype: *mtype,
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
                let begin = self.expr(begin)?;
                let end = self.expr(end)?;
                let s_slot = self.new_scalar(iter);
                let prof = self.new_prof_node(s.id, format!("for {iter}"));
                let saved = self.prof_cur;
                self.prof_cur = prof;
                let body = self.stmt(body)?;
                self.prof_cur = saved;
                self.scalar_scope
                    .get_mut(iter)
                    .expect("just pushed")
                    .pop();
                CStmt::For {
                    s: s_slot,
                    begin,
                    end,
                    scope: property.parallel,
                    vectorize: property.vectorize,
                    prof,
                    body: Box::new(body),
                }
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => CStmt::If {
                cond: self.expr(cond)?,
                then: Box::new(self.stmt(then)?),
                otherwise: match otherwise {
                    Some(o) => Some(Box::new(self.stmt(o)?)),
                    None => None,
                },
            },
            StmtKind::Store {
                var,
                indices,
                value,
            } => CStmt::Store {
                t: self.tensor_slot(var)?,
                idx: indices
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Result<_, _>>()?,
                value: self.expr(value)?,
            },
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                ..
            } => CStmt::Reduce {
                t: self.tensor_slot(var)?,
                idx: indices
                    .iter()
                    .map(|i| self.expr(i))
                    .collect::<Result<_, _>>()?,
                op: *op,
                value: self.expr(value)?,
            },
            StmtKind::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
            } => CStmt::LibCall {
                kernel: kernel.clone(),
                inputs: inputs
                    .iter()
                    .map(|n| self.tensor_slot(n))
                    .collect::<Result<_, _>>()?,
                outputs: outputs
                    .iter()
                    .map(|n| self.tensor_slot(n))
                    .collect::<Result<_, _>>()?,
                attrs: attrs.clone(),
                prof: self.new_prof_node(s.id, kernel.clone()),
            },
        })
    }
}

/// Lower a function into slot-indexed form.
pub(crate) fn compile(func: &Func) -> Result<Compiled, RuntimeError> {
    let mut lw = Lower {
        tensor_names: Vec::new(),
        tensor_dtypes: Vec::new(),
        n_scalars: 0,
        tensor_scope: HashMap::new(),
        scalar_scope: HashMap::new(),
        prof_nodes: vec![ProfileNode {
            stmt: None,
            desc: func.name.clone(),
            parent: None,
            counters: StmtCounters::default(),
        }],
        prof_cur: 0,
    };
    let size_slots = func.size_params.iter().map(|sp| lw.new_scalar(sp)).collect();
    let params = func
        .params
        .iter()
        .map(|p| (lw.new_tensor(&p.name, p.dtype), p.dtype))
        .collect();
    let body = lw.stmt(&func.body)?;
    Ok(Compiled {
        body,
        n_tensors: lw.tensor_names.len(),
        tensor_names: lw.tensor_names,
        params,
        size_slots,
        n_scalars: lw.n_scalars,
        prof_nodes: lw.prof_nodes,
    })
}

pub(crate) struct TensorEntry {
    pub val: TensorVal,
    pub mtype: MemType,
    pub base: u64,
}

/// Execution context over slot vectors (same instrumentation semantics as
/// the reference interpreter).
pub(crate) struct ExecCtx<'a> {
    pub config: &'a DeviceConfig,
    pub tensors: Vec<Option<TensorEntry>>,
    pub names: &'a [String],
    pub scalars: Vec<i64>,
    pub counters: PerfCounters,
    pub cache: CacheSim,
    pub next_addr: u64,
    pub gpu_depth: usize,
    /// When profiling: one exclusive counter bucket per `Compiled::prof_nodes`
    /// entry. `None` keeps the hot path attribution-free.
    pub prof: Option<Vec<StmtCounters>>,
    /// Index of the bucket currently being charged (node 0 = function root).
    pub prof_cur: usize,
    /// When metrics are installed: wall time of each library-kernel call.
    pub kernel_us: Option<ft_metrics::Histogram>,
    /// Plan-driven buffer pool for `VarDef` storage. Reuses scope-exited
    /// buffers of the same interference class (skipping the zero-fill when
    /// the plan proved write-before-read); modeled accounting is unchanged.
    pub arena: crate::arena::TensorPool,
}

impl ExecCtx<'_> {
    pub(crate) fn entry(&self, t: usize) -> Result<&TensorEntry, RuntimeError> {
        self.tensors[t]
            .as_ref()
            .ok_or_else(|| RuntimeError::UndefinedName(self.names[t].clone()))
    }

    pub(crate) fn tensor(&self, t: usize) -> Result<&TensorVal, RuntimeError> {
        Ok(&self.entry(t)?.val)
    }

    pub(crate) fn replace_tensor(&mut self, t: usize, val: TensorVal) -> Result<(), RuntimeError> {
        let e = self.tensors[t]
            .as_mut()
            .ok_or_else(|| RuntimeError::UndefinedName(self.names[t].clone()))?;
        e.val = val;
        Ok(())
    }

    /// Charge counters in bulk for a library kernel.
    pub(crate) fn charge_bulk(&mut self, bytes: u64, flops: u64, cycles: f64) {
        self.counters.heap_bytes += bytes;
        self.counters.l2_bytes += bytes;
        self.counters.dram_bytes += bytes;
        self.counters.flops += flops;
        let cyc = cycles + (bytes as f64 / LINE as f64) * self.config.cost_dram / 4.0;
        self.counters.modeled_cycles += cyc;
        if let Some(p) = self.prof.as_mut() {
            let c = &mut p[self.prof_cur];
            c.heap_bytes += bytes;
            c.l2_bytes += bytes;
            c.dram_bytes += bytes;
            c.flops += flops;
            c.cycles += cyc;
        }
    }

    pub(crate) fn alloc(
        &mut self,
        t: usize,
        val: TensorVal,
        mtype: MemType,
    ) -> Result<(), RuntimeError> {
        let device = mtype.device();
        let dev_name = device.to_string();
        let bytes = val.size_bytes() as u64;
        let live = *self.counters.live_bytes.get(&dev_name).unwrap_or(&0);
        let capacity = self.config.capacity(device) as u64;
        if live + bytes > capacity {
            return Err(RuntimeError::OutOfMemory {
                device,
                requested: bytes,
                live,
                capacity,
            });
        }
        self.counters.alloc(&dev_name, bytes);
        let base = self.next_addr;
        self.next_addr += bytes.div_ceil(LINE) * LINE;
        self.tensors[t] = Some(TensorEntry { val, mtype, base });
        Ok(())
    }

    fn dealloc(&mut self, t: usize) -> Option<TensorVal> {
        self.tensors[t].take().map(|e| {
            self.counters
                .free(&e.mtype.device().to_string(), e.val.size_bytes() as u64);
            e.val
        })
    }

    #[inline]
    fn record_access(&mut self, t: usize, off: usize) {
        let entry = self.tensors[t].as_ref().expect("checked by caller");
        let bytes = entry.val.dtype().size_bytes() as u64;
        let mtype = entry.mtype;
        let base = entry.base;
        match mtype {
            MemType::CpuHeap | MemType::GpuGlobal => {
                self.counters.heap_bytes += bytes;
                self.counters.l2_bytes += bytes;
                let addr = base + off as u64 * bytes;
                let m0 = self.cache.misses;
                self.cache.access(addr, bytes);
                let misses = self.cache.misses - m0;
                let cyc = if misses > 0 {
                    misses as f64 * self.config.cost_dram
                } else {
                    self.config.cost_l2
                };
                self.counters.dram_bytes += misses * LINE;
                self.counters.modeled_cycles += cyc;
                if let Some(p) = self.prof.as_mut() {
                    let c = &mut p[self.prof_cur];
                    c.heap_bytes += bytes;
                    c.l2_bytes += bytes;
                    c.dram_bytes += misses * LINE;
                    c.cycles += cyc;
                }
            }
            MemType::CpuStack | MemType::GpuShared | MemType::GpuLocal => {
                self.counters.scratch_bytes += bytes;
                self.counters.modeled_cycles += self.config.cost_scratch;
                if let Some(p) = self.prof.as_mut() {
                    let c = &mut p[self.prof_cur];
                    c.scratch_bytes += bytes;
                    c.cycles += self.config.cost_scratch;
                }
            }
        }
    }

    fn bounds_check(&self, t: usize, idx: &[i64]) -> Result<usize, RuntimeError> {
        let entry = self.entry(t)?;
        if idx.len() != entry.val.ndim()
            || idx
                .iter()
                .zip(entry.val.shape())
                .any(|(&i, &e)| i < 0 || i as usize >= e)
        {
            return Err(RuntimeError::IndexOutOfBounds {
                name: self.names[t].clone(),
                index: idx.to_vec(),
                shape: entry.val.shape().to_vec(),
            });
        }
        Ok(entry.val.flat_index(idx))
    }

    #[inline]
    fn count_op(&mut self, float: bool) {
        if float {
            self.counters.flops += 1;
        } else {
            self.counters.int_ops += 1;
        }
        self.counters.modeled_cycles += self.config.cost_op;
        if let Some(p) = self.prof.as_mut() {
            let c = &mut p[self.prof_cur];
            if float {
                c.flops += 1;
            } else {
                c.int_ops += 1;
            }
            c.cycles += self.config.cost_op;
        }
    }

    fn eval_indices(&mut self, idx: &[CExpr]) -> Result<Vec<i64>, RuntimeError> {
        idx.iter().map(|e| Ok(self.eval(e)?.as_i64())).collect()
    }

    pub(crate) fn eval(&mut self, e: &CExpr) -> Result<Scalar, RuntimeError> {
        Ok(match e {
            CExpr::Int(v) => Scalar::Int(*v),
            CExpr::Float(v) => Scalar::Float(*v),
            CExpr::Bool(v) => Scalar::Bool(*v),
            CExpr::Scalar(s) => Scalar::Int(self.scalars[*s]),
            CExpr::Load { t, idx } => {
                let idx = self.eval_indices(idx)?;
                let off = self.bounds_check(*t, &idx)?;
                let v = self.tensors[*t].as_ref().expect("checked").val.get_flat(off);
                self.record_access(*t, off);
                v
            }
            CExpr::Unary { op, a } => {
                let v = self.eval(a)?;
                self.count_op(matches!(v, Scalar::Float(_)));
                ft_ir::scalar::unary(*op, v)
            }
            CExpr::Binary { op, a, b } => {
                let va = self.eval(a)?;
                let vb = self.eval(b)?;
                self.count_op(
                    matches!(va, Scalar::Float(_)) || matches!(vb, Scalar::Float(_)),
                );
                ft_ir::scalar::binary(*op, va, vb)?
            }
            CExpr::Select {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond)?.as_bool() {
                    self.eval(then)?
                } else {
                    self.eval(otherwise)?
                }
            }
            CExpr::Cast { dtype, a } => ft_ir::scalar::cast(*dtype, self.eval(a)?),
        })
    }

    pub(crate) fn exec(&mut self, s: &CStmt) -> Result<(), RuntimeError> {
        match s {
            CStmt::Nop => Ok(()),
            CStmt::Seq(v) => {
                for st in v {
                    self.exec(st)?;
                }
                Ok(())
            }
            CStmt::VarDef {
                t,
                shape,
                dtype,
                mtype,
                body,
            } => {
                let sh: Vec<usize> = shape
                    .iter()
                    .map(|e| {
                        let v = self.eval(e)?.as_i64();
                        usize::try_from(v)
                            .map_err(|_| RuntimeError::UnresolvedSize(self.names[*t].clone()))
                    })
                    .collect::<Result<_, _>>()?;
                let val = self.arena.take_slot(*t, *dtype, &sh);
                self.alloc(*t, val, *mtype)?;
                let r = self.exec(body);
                if let Some(val) = self.dealloc(*t) {
                    self.arena.put_slot(*t, val);
                }
                r
            }
            CStmt::For {
                s: slot,
                begin,
                end,
                scope,
                vectorize,
                prof,
                body,
            } => {
                let b = self.eval(begin)?.as_i64();
                let e = self.eval(end)?.as_i64();
                let entering_gpu = scope.is_gpu() && self.gpu_depth == 0;
                if entering_gpu {
                    self.counters.kernel_launches += 1;
                    self.counters.modeled_cycles += self.config.cost_kernel_launch;
                }
                if scope.is_gpu() {
                    self.gpu_depth += 1;
                }
                let saved_prof = self.prof_cur;
                if let Some(p) = self.prof.as_mut() {
                    self.prof_cur = *prof;
                    p[*prof].trips += (e - b).max(0) as u64;
                }
                let cycles_before = self.counters.modeled_cycles;
                for i in b..e {
                    self.scalars[*slot] = i;
                    self.exec(body)?;
                }
                self.prof_cur = saved_prof;
                if scope.is_gpu() {
                    self.gpu_depth -= 1;
                }
                let mut width = self.config.width(*scope) as f64;
                if *vectorize {
                    width *= 8.0;
                }
                if width > 1.0 && e > b {
                    let delta = self.counters.modeled_cycles - cycles_before;
                    let eff = width.min((e - b) as f64);
                    self.counters.modeled_cycles = cycles_before + delta / eff;
                }
                Ok(())
            }
            CStmt::If {
                cond,
                then,
                otherwise,
            } => {
                if self.eval(cond)?.as_bool() {
                    self.exec(then)
                } else if let Some(o) = otherwise {
                    self.exec(o)
                } else {
                    Ok(())
                }
            }
            CStmt::Store { t, idx, value } => {
                let idx = self.eval_indices(idx)?;
                let v = self.eval(value)?;
                let off = self.bounds_check(*t, &idx)?;
                self.tensors[*t]
                    .as_mut()
                    .expect("checked")
                    .val
                    .set_flat(off, v);
                self.record_access(*t, off);
                Ok(())
            }
            CStmt::Reduce { t, idx, op, value } => {
                let idx = self.eval_indices(idx)?;
                let v = self.eval(value)?;
                let off = self.bounds_check(*t, &idx)?;
                let old = self.tensors[*t].as_ref().expect("checked").val.get_flat(off);
                self.record_access(*t, off);
                self.count_op(
                    matches!(old, Scalar::Float(_)) || matches!(v, Scalar::Float(_)),
                );
                let new = ft_ir::scalar::reduce(*op, old, v);
                self.tensors[*t]
                    .as_mut()
                    .expect("checked")
                    .val
                    .set_flat(off, new);
                self.record_access(*t, off);
                Ok(())
            }
            CStmt::LibCall {
                kernel,
                inputs,
                outputs,
                attrs,
                prof,
            } => {
                let saved_prof = self.prof_cur;
                if let Some(p) = self.prof.as_mut() {
                    self.prof_cur = *prof;
                    p[*prof].trips += 1;
                }
                let t0 = self.kernel_us.as_ref().map(|_| std::time::Instant::now());
                let r = crate::libkernel::dispatch_slots(self, kernel, inputs, outputs, attrs);
                if let (Some(h), Some(t0)) = (&self.kernel_us, t0) {
                    h.record_duration_us(t0.elapsed());
                }
                self.prof_cur = saved_prof;
                r
            }
        }
    }
}
