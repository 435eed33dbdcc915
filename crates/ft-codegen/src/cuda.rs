//! CUDA-flavoured source emission for GPU schedules.
//!
//! Each outermost GPU-parallel loop nest becomes one `__global__` kernel; a
//! host function launches them in order. Block/thread-scope loops map to
//! `blockIdx.*` / `threadIdx.*` with bound guards; `GpuShared` definitions
//! become `__shared__` arrays; atomic reductions become `atomicAdd`.
//!
//! Names, indices and expressions are spelled by the C emitter's
//! [`Printer`] — one scope of tensors and identifiers for the host function
//! and every kernel, one typed spelling of every operator — under CUDA's
//! type names and with the scalar helpers qualified for both sides.

use crate::c::{Printer, SCALAR_HELPERS};
use ft_ir::{BinaryOp, DataType, Expr, Func, MemType, ParallelScope, ReduceOp, Stmt, StmtKind};
use std::fmt::Write as _;

/// CUDA's names of the element types, in [`Printer::ctype`]'s order:
/// `long long`, which the atomics and `min`/`max` are overloaded for, not
/// `int64_t`.
const TYPES: [&str; 5] = ["float", "double", "int", "long long", "bool"];

const HEADERS: &str = "#include <cuda_runtime.h>\n#include <math.h>\n#include <stdint.h>\n\n";

/// What the scalar helpers are qualified with: host code calls them too.
const HELPER_QUALIFIER: &str = "static inline __host__ __device__";

struct Cuda<'a> {
    p: Printer<'a>,
    /// `__shared__` defs in scope, innermost last.
    shared: Vec<&'a str>,
    /// The `__global__` functions emitted so far.
    kernels: String,
    n_kernels: usize,
    /// `<func>_kernel`, and the parameter and argument lists every kernel
    /// shares with the host function.
    kernel_prefix: String,
    params: String,
    args: String,
    in_kernel: bool,
    /// The function being written: the host's, or the current kernel's.
    out: String,
    indent: usize,
}

impl<'a> Cuda<'a> {
    /// Whether a sub-tree writes any `__shared__` tensor (which requires a
    /// barrier before other threads read it — paper §4.3's "inserting
    /// thread synchronizing statements").
    fn writes_shared(&self, s: &Stmt) -> bool {
        let mut hit = false;
        s.walk(&mut |st| match &st.kind {
            StmtKind::Store { var, .. } | StmtKind::ReduceTo { var, .. } => {
                hit |= self.shared.contains(&var.as_str());
            }
            _ => {}
        });
        hit
    }

    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    /// `s { body }`.
    fn braced(&mut self, head: &str, body: &'a Stmt) {
        self.line(head);
        self.indent += 1;
        self.stmt(body);
        self.indent -= 1;
    }

    /// Extent of a GPU-parallel loop, printed for the launch configuration.
    fn launch_extent(&self, begin: &Expr, end: &Expr) -> String {
        let extent = ft_passes::const_fold_expr(end.clone() - begin.clone());
        self.p.expr(&extent, DataType::I64)
    }

    /// An outermost GPU-parallel loop: its nest becomes a kernel of its own,
    /// written with everything the host has in scope, and the host launches
    /// it.
    fn kernel(&mut self, s: &'a Stmt, begin: &Expr, end: &Expr, body: &'a Stmt) {
        let name = format!("{}{}", self.kernel_prefix, self.n_kernels);
        self.n_kernels += 1;
        // Grid/block sizes: this loop plus an inner thread loop.
        let grid = self.launch_extent(begin, end);
        let block = match &ft_schedule::util::peel(body).kind {
            StmtKind::For {
                begin, end, property, ..
            } if property.parallel.is_gpu_thread() => self.launch_extent(begin, end),
            _ => "1".to_string(),
        };
        let host = (std::mem::take(&mut self.out), self.indent);
        (self.in_kernel, self.indent) = (true, 1);
        self.stmt(s);
        let text = std::mem::replace(&mut self.out, host.0);
        (self.in_kernel, self.indent) = (false, host.1);
        let _ = writeln!(
            self.kernels,
            "__global__ void {name}({}) {{\n{text}}}\n",
            self.params
        );
        self.line(&format!(
            "{name}<<<dim3({grid}), dim3({block})>>>({});",
            self.args
        ));
        self.line("cudaDeviceSynchronize();");
    }

    fn stmt(&mut self, s: &'a Stmt) {
        match &s.kind {
            StmtKind::Empty => {}
            StmtKind::Block(v) => {
                let live: Vec<&Stmt> = v.iter().filter(|st| !st.is_empty()).collect();
                for (i, st) in live.iter().enumerate() {
                    self.stmt(st);
                    if self.in_kernel && i + 1 < live.len() && self.writes_shared(st) {
                        self.line("__syncthreads();");
                    }
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
                self.p.tensors.push((name, *dtype, shape));
                let ident = self.p.names.bind(name);
                if *mtype == MemType::GpuShared {
                    self.shared.push(name);
                }
                if self.in_kernel {
                    let n: i64 = shape
                        .iter()
                        .map(|e| ft_passes::const_fold_expr(e.clone()).as_int().unwrap_or(1))
                        .product::<i64>()
                        .max(1);
                    let prefix = match mtype {
                        MemType::GpuShared => "__shared__ ",
                        _ => "",
                    };
                    self.line(&format!("{prefix}{} {ident}[{n}];", self.p.ctype(*dtype)));
                } else {
                    // Host-side buffers for locals spanning kernels.
                    self.line(&format!(
                        "/* device buffer `{ident}` allocated via cudaMalloc in deployment */"
                    ));
                }
                self.stmt(body);
                if *mtype == MemType::GpuShared {
                    self.shared.pop();
                }
                self.p.names.unbind(name);
                self.p.tensors.pop();
            }
            StmtKind::For {
                begin,
                end,
                property,
                body,
                ..
            } if property.parallel.is_gpu() && !self.in_kernel => {
                self.kernel(s, begin, end, body);
            }
            StmtKind::For {
                iter,
                begin,
                end,
                property,
                body,
            } => {
                // Bounds are evaluated in the enclosing scope; the iterator
                // is only in scope inside the loop.
                let begin = self.p.expr(begin, DataType::I64);
                let end = self.p.expr(end, DataType::I64);
                let i = self.p.names.bind(iter);
                let hw = match property.parallel {
                    ParallelScope::CudaBlockX => Some("blockIdx.x"),
                    ParallelScope::CudaBlockY => Some("blockIdx.y"),
                    ParallelScope::CudaThreadX => Some("threadIdx.x"),
                    ParallelScope::CudaThreadY => Some("threadIdx.y"),
                    _ => None,
                };
                match hw {
                    Some(hw) => {
                        self.line(&format!("long long {i} = {begin} + (long long){hw};"));
                        self.braced(&format!("if ({i} < {end}) {{"), body);
                    }
                    None => self.braced(
                        &format!("for (long long {i} = {begin}; {i} < {end}; ++{i}) {{"),
                        body,
                    ),
                }
                self.line("}");
                self.p.names.unbind(iter);
            }
            StmtKind::If {
                cond,
                then,
                otherwise,
            } => {
                let cond = self.p.expr(cond, DataType::I64);
                self.braced(&format!("if ({cond}) {{"), then);
                if let Some(o) = otherwise {
                    self.braced("} else {", o);
                }
                self.line("}");
            }
            StmtKind::Store {
                var,
                indices,
                value,
            } => self.assign(var, indices, None, false, value),
            StmtKind::ReduceTo {
                var,
                indices,
                op,
                value,
                atomic,
            } => self.assign(var, indices, Some(*op), *atomic, value),
            StmtKind::LibCall { kernel, .. } => {
                self.line(&format!("/* library call: {kernel} (cuBLAS in deployment) */"));
            }
        }
    }

    /// `var[indices] = value;` or its reduction, the value spelled in the
    /// element's type.
    fn assign(
        &mut self,
        var: &str,
        indices: &[Expr],
        op: Option<ReduceOp>,
        atomic: bool,
        value: &Expr,
    ) {
        let elem = self.p.elem(var);
        let mut lhs = String::new();
        self.p.put_index(&mut lhs, var, indices);
        let fold = |op| {
            // `min=`/`max=` are the binary operator on the element, typed
            // and spelled like any other.
            let element = Expr::Load {
                var: var.to_string(),
                indices: indices.to_vec(),
            };
            self.p.expr(&Expr::binary(op, element, value.clone()), elem)
        };
        let rhs = match op {
            Some(ReduceOp::Min) => fold(BinaryOp::Min),
            Some(ReduceOp::Max) => fold(BinaryOp::Max),
            _ => self.p.expr(value, elem),
        };
        self.line(&match (op, atomic) {
            (Some(ReduceOp::Add), true) => format!("atomicAdd(&{lhs}, {rhs});"),
            (Some(ReduceOp::Add), false) => format!("{lhs} += {rhs};"),
            (Some(ReduceOp::Mul), _) => format!("{lhs} *= {rhs};"),
            _ => format!("{lhs} = {rhs};"),
        });
    }
}

/// Emit CUDA-flavoured source: one `__global__` kernel per outermost
/// GPU-parallel region, plus a host launcher function.
pub fn emit_cuda(func: &Func) -> String {
    let (p, syms) = Printer::new(func, TYPES);
    // Parameters of every kernel: all tensors + size params.
    let params = p.signature(func, &syms);
    let args: Vec<&str> = syms.params.iter().chain(&syms.size_params).map(String::as_str).collect();
    // Outermost GPU-parallel loops become kernels; everything else runs on
    // the host (sequentially, in order).
    let mut em = Cuda {
        p,
        shared: Vec::new(),
        kernels: String::new(),
        n_kernels: 0,
        kernel_prefix: format!("{}_kernel", syms.func),
        params: params.join(", "),
        args: args.join(", "),
        in_kernel: false,
        out: String::new(),
        indent: 1,
    };
    em.stmt(&func.body);
    format!(
        "{HEADERS}{}\n{}\nvoid {}({}) {{\n{}}}\n",
        SCALAR_HELPERS.replace("static inline", HELPER_QUALIFIER),
        em.kernels,
        syms.func,
        em.params,
        em.out
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_ir::ForProperty;

    fn gpu_func() -> Func {
        Func::new("saxpy")
            .param_on("x", [4096], DataType::F32, MemType::GpuGlobal, AccessType::Input)
            .param_on("y", [4096], DataType::F32, MemType::GpuGlobal, AccessType::InOut)
            .body(for_with(
                "b",
                0,
                32,
                ForProperty::parallel(ParallelScope::CudaBlockX),
                for_with(
                    "t",
                    0,
                    128,
                    ForProperty::parallel(ParallelScope::CudaThreadX),
                    store(
                        "y",
                        [var("b") * 128 + var("t")],
                        load("y", [var("b") * 128 + var("t")])
                            + load("x", [var("b") * 128 + var("t")]),
                    ),
                ),
            ))
    }

    #[test]
    fn emits_kernel_and_launch() {
        let cu = emit_cuda(&gpu_func());
        assert!(cu.contains("__global__ void saxpy_kernel0"), "{cu}");
        assert!(cu.contains("blockIdx.x"), "{cu}");
        assert!(cu.contains("threadIdx.x"), "{cu}");
        assert!(cu.contains("<<<dim3(32), dim3(128)>>>"), "{cu}");
        assert!(cu.contains("cudaDeviceSynchronize();"), "{cu}");
    }

    #[test]
    fn shared_memory_and_atomics() {
        let body = for_with(
            "b",
            0,
            8,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            var_def(
                "t",
                [32],
                DataType::F32,
                MemType::GpuShared,
                Stmt::new(StmtKind::ReduceTo {
                    var: "y".to_string(),
                    indices: vec![Expr::IntConst(0)],
                    op: ReduceOp::Add,
                    value: load("t", [0]),
                    atomic: true,
                }),
            ),
        );
        let f = Func::new("f")
            .param_on("y", [1], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(body);
        let cu = emit_cuda(&f);
        assert!(cu.contains("__shared__ float t[32];"), "{cu}");
        assert!(cu.contains("atomicAdd(&y[0]"), "{cu}");
    }

    #[test]
    fn shared_writes_get_barriers() {
        // Fill shared memory in a thread loop, then read it: a
        // __syncthreads() must separate the two phases.
        let body = for_with(
            "b",
            0,
            8,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            var_def(
                "t",
                [32],
                DataType::F32,
                MemType::GpuShared,
                block([
                    for_with(
                        "tx",
                        0,
                        32,
                        ForProperty::parallel(ParallelScope::CudaThreadX),
                        store("t", [var("tx")], load("x", [var("b") * 32 + var("tx")])),
                    ),
                    for_with(
                        "tx2",
                        0,
                        32,
                        ForProperty::parallel(ParallelScope::CudaThreadX),
                        store("y", [var("b") * 32 + var("tx2")], load("t", ft_ir::idx![Expr::IntConst(31) - var("tx2")])),
                    ),
                ]),
            ),
        );
        let f = Func::new("rev")
            .param_on("x", [256], DataType::F32, MemType::GpuGlobal, AccessType::Input)
            .param_on("y", [256], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(body);
        let cu = emit_cuda(&f);
        assert!(cu.contains("__syncthreads();"), "{cu}");
        // The barrier sits between the fill and the read.
        let sync_pos = cu.find("__syncthreads();").unwrap();
        let read_pos = cu.find("y[").unwrap();
        assert!(sync_pos < read_pos, "{cu}");
    }

    #[test]
    fn two_parallel_regions_two_kernels() {
        let k1 = for_with(
            "b",
            0,
            8,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            store("y", [var("b")], 1.0f32),
        );
        let k2 = for_with(
            "b2",
            0,
            8,
            ForProperty::parallel(ParallelScope::CudaBlockX),
            store("y", [var("b2")], 2.0f32),
        );
        let f = Func::new("f")
            .param_on("y", [8], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(block([k1, k2]));
        let cu = emit_cuda(&f);
        assert!(cu.contains("f_kernel0"), "{cu}");
        assert!(cu.contains("f_kernel1"), "{cu}");
    }

    /// `body` over every `b` of a block-parallel loop.
    fn per_block(iter: &str, body: Stmt) -> Stmt {
        for_with(iter, 0, 8, ForProperty::parallel(ParallelScope::CudaBlockX), body)
    }

    #[test]
    fn a_def_spanning_kernels_is_indexed_with_its_own_shape() {
        // `t[8, 5]` lives on the host side, between the kernel that fills
        // it and the one that reads it back: both must know its shape.
        let f = Func::new("span")
            .param_on("y", [8], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(var_def(
                "t",
                [8, 5],
                DataType::F32,
                MemType::GpuGlobal,
                block([
                    per_block("b", store("t", [var("b"), 3.into()], 1.0f32)),
                    per_block("b2", store("y", [var("b2")], load("t", [var("b2"), 3.into()]))),
                ]),
            ));
        let cu = emit_cuda(&f);
        assert!(cu.contains("t[(b) * (5) + (3)] = 1.0f;"), "{cu}");
        assert!(cu.contains("y[b2] = t[(b2) * (5) + (3)];"), "{cu}");
    }

    #[test]
    fn colliding_param_names_get_distinct_identifiers() {
        let f = Func::new("c")
            .param_on("a.b", [8], DataType::F32, MemType::GpuGlobal, AccessType::Input)
            .param_on("a_b", [8], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(per_block("i", store("a_b", [var("i")], load("a.b", [var("i")]))));
        let cu = emit_cuda(&f);
        assert!(cu.contains("c_kernel0(const float* a_b, float* a_b_2)"), "{cu}");
        assert!(cu.contains("a_b_2[i] = a_b[i];"), "{cu}");
        assert!(cu.contains("c_kernel0<<<dim3(8), dim3(1)>>>(a_b, a_b_2);"), "{cu}");
    }

    #[test]
    fn integer_operators_are_spelled_as_the_c_emitter_spells_them() {
        // The IR's integer `/` and `%` floor and its `abs` is exact: C's
        // truncating operators and `fabsf` are none of them.
        let n = || load("n", [var("i")]);
        let f = Func::new("ints")
            .param_on("n", [8], DataType::I32, MemType::GpuGlobal, AccessType::Input)
            .param_on("q", [8], DataType::I32, MemType::GpuGlobal, AccessType::Output)
            .param_on("x", [8], DataType::F32, MemType::GpuGlobal, AccessType::Output)
            .body(per_block(
                "i",
                block([
                    store("q", [var("i")], intrin::abs(n() / 3) + n().rem(3)),
                    store("x", [var("i")], intrin::abs(load("x", [var("i")]))),
                ]),
            ));
        let cu = emit_cuda(&f);
        assert!(
            cu.contains("q[i] = (llabs(ft_fdiv(n[i], 3)) + ft_fmod(n[i], 3));"),
            "{cu}"
        );
        assert!(cu.contains("x[i] = fabsf(x[i]);"), "{cu}");
        assert!(
            cu.contains("static inline __host__ __device__ int64_t ft_fdiv("),
            "{cu}"
        );
        // And the same operators in C (which keeps `n[i]` in a local):
        // one printer, one spelling.
        let c = crate::emit_c(&f).expect("nothing to refuse");
        assert!(
            c.contains("q[i] = (llabs(ft_fdiv(ft_c1, 3)) + ft_fmod(ft_c1, 3));"),
            "{c}"
        );
    }
}
