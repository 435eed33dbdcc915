//! The operator set (forward) with autograd-tape recording.
//!
//! Shapes follow the workloads' needs: generic elementwise/reduction/matmul
//! operators plus the "rearrangement" operators irregular programs force on
//! operator-based frameworks (`index_select`, `cat`, `unfold_window`, …) and
//! DGL-style segment operators for graphs.

use crate::{OpError, Session, Tensor};
use ft_ir::DataType;
use ft_runtime::TensorVal;

/// A recorded operator application (for the backward pass).
pub struct Entry {
    /// Which operator.
    pub op: Op,
    /// Input tensors (held live by the tape — the baseline's footprint).
    pub inputs: Vec<Tensor>,
    /// The produced output (also held live).
    pub output: Tensor,
}

/// Operator kinds with the attributes backward needs.
#[derive(Debug, Clone)]
pub enum Op {
    /// Elementwise addition.
    Add,
    /// Elementwise subtraction.
    Sub,
    /// Elementwise multiplication.
    Mul,
    /// Elementwise division.
    Div,
    /// Elementwise absolute value.
    Abs,
    /// Elementwise exponential.
    Exp,
    /// Elementwise ReLU.
    Relu,
    /// Elementwise logistic sigmoid.
    Sigmoid,
    /// Multiply by a constant.
    Scale(f64),
    /// `mat[p, f] + vec[f]` (broadcast over rows).
    AddRow,
    /// `mat[p, f] + vec[p]` (broadcast over columns).
    AddCol,
    /// Sum over one dimension.
    SumDim(usize),
    /// Softmax along one dimension (output saved).
    SoftmaxDim(usize),
    /// Matrix multiplication with the given dimensions.
    Matmul {
        /// Rows of A.
        m: usize,
        /// Inner dimension.
        k: usize,
        /// Columns of B.
        n: usize,
    },
    /// 2-D transpose.
    Transpose2d,
    /// Shape change (element order preserved).
    Reshape(Vec<usize>),
    /// Row gather by an index tensor.
    IndexSelect,
    /// Slice along a dimension.
    Slice {
        /// Dimension.
        dim: usize,
        /// Start (inclusive).
        start: usize,
        /// End (exclusive).
        end: usize,
    },
    /// Concatenation along a dimension (input sizes recorded for backward).
    Cat {
        /// Dimension.
        dim: usize,
        /// Extent of each input along `dim`.
        sizes: Vec<usize>,
    },
    /// Longformer window materialization: `K[n, f] -> [n, 2w+1, f]`.
    UnfoldWindow {
        /// Window half-width.
        w: usize,
    },
    /// `dot[n, l] = Σ_f Q[n, f] · Kwin[n, l, f]`.
    BmmQk,
    /// `y[n, f] = Σ_l attn[n, l] · Vwin[n, l, f]`.
    BmmAv,
    /// Sum of all elements to a scalar.
    SumAll,
    /// Gradient-free operators (graph gathers/segments; GAT forward only).
    NoGrad,
}

fn f32s(t: &Tensor) -> Vec<f64> {
    t.val().to_f64_vec()
}

fn out_tensor(shape: &[usize], data: Vec<f64>) -> TensorVal {
    let mut t = TensorVal::zeros(DataType::F32, shape);
    for (i, v) in data.into_iter().enumerate() {
        t.set_flat(i, ft_runtime::Scalar::Float(v));
    }
    t
}

impl Session {
    fn record(&self, op: Op, inputs: &[&Tensor], output: &Tensor) {
        let mut st = self.state.borrow_mut();
        if st.grad_mode {
            st.tape.push(Entry {
                op,
                inputs: inputs.iter().map(|t| (*t).clone()).collect(),
                output: output.clone(),
            });
        }
    }

    fn binary_ew(
        &self,
        op: Op,
        a: &Tensor,
        b: &Tensor,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Tensor, OpError> {
        if a.shape() != b.shape() {
            return Err(OpError::Shape(format!(
                "elementwise operands differ: {:?} vs {:?}",
                a.shape(),
                b.shape()
            )));
        }
        let (va, vb) = (f32s(a), f32s(b));
        let data: Vec<f64> = va.iter().zip(&vb).map(|(x, y)| f(*x, *y)).collect();
        let n = data.len();
        self.charge(3 * n, n);
        let out = self.alloc(out_tensor(a.shape(), data))?;
        self.record(op, &[a, b], &out);
        Ok(out)
    }

    fn unary_ew(&self, op: Op, a: &Tensor, f: impl Fn(f64) -> f64) -> Result<Tensor, OpError> {
        let data: Vec<f64> = f32s(a).into_iter().map(f).collect();
        let n = data.len();
        self.charge(2 * n, n);
        let out = self.alloc(out_tensor(a.shape(), data))?;
        self.record(op, &[a], &out);
        Ok(out)
    }

    /// Elementwise `a + b`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn add(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        self.binary_ew(Op::Add, a, b, |x, y| x + y)
    }

    /// Elementwise `a - b`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn sub(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        self.binary_ew(Op::Sub, a, b, |x, y| x - y)
    }

    /// Elementwise `a * b`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn mul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        self.binary_ew(Op::Mul, a, b, |x, y| x * y)
    }

    /// Elementwise `a / b`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn div(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        self.binary_ew(Op::Div, a, b, |x, y| x / y)
    }

    /// Elementwise `|a|`.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn abs(&self, a: &Tensor) -> Result<Tensor, OpError> {
        self.unary_ew(Op::Abs, a, f64::abs)
    }

    /// Elementwise `exp(a)`.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn exp(&self, a: &Tensor) -> Result<Tensor, OpError> {
        self.unary_ew(Op::Exp, a, f64::exp)
    }

    /// Elementwise `max(a, 0)`.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn relu(&self, a: &Tensor) -> Result<Tensor, OpError> {
        self.unary_ew(Op::Relu, a, |x| x.max(0.0))
    }

    /// Elementwise sigmoid.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn sigmoid(&self, a: &Tensor) -> Result<Tensor, OpError> {
        self.unary_ew(Op::Sigmoid, a, |x| 1.0 / (1.0 + (-x).exp()))
    }

    /// `a * c` for a constant.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn scale(&self, a: &Tensor, c: f64) -> Result<Tensor, OpError> {
        self.unary_ew(Op::Scale(c), a, |x| x * c)
    }

    /// `mat[p, f] + vec[f]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn add_row(&self, mat: &Tensor, vec: &Tensor) -> Result<Tensor, OpError> {
        let (p, f) = mat2(mat)?;
        if vec.shape() != [f] {
            return Err(OpError::Shape("add_row vector length".to_string()));
        }
        let (vm, vv) = (f32s(mat), f32s(vec));
        let data: Vec<f64> = (0..p * f).map(|i| vm[i] + vv[i % f]).collect();
        self.charge(2 * p * f + f, p * f);
        let out = self.alloc(out_tensor(&[p, f], data))?;
        self.record(Op::AddRow, &[mat, vec], &out);
        Ok(out)
    }

    /// `mat[p, f] + vec[p]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn add_col(&self, mat: &Tensor, vec: &Tensor) -> Result<Tensor, OpError> {
        let (p, f) = mat2(mat)?;
        if vec.shape() != [p] {
            return Err(OpError::Shape("add_col vector length".to_string()));
        }
        let (vm, vv) = (f32s(mat), f32s(vec));
        let data: Vec<f64> = (0..p * f).map(|i| vm[i] + vv[i / f]).collect();
        self.charge(2 * p * f + p, p * f);
        let out = self.alloc(out_tensor(&[p, f], data))?;
        self.record(Op::AddCol, &[mat, vec], &out);
        Ok(out)
    }

    /// Sum over dimension `dim`.
    ///
    /// # Errors
    ///
    /// Bad dimension or out-of-memory.
    pub fn sum_dim(&self, a: &Tensor, dim: usize) -> Result<Tensor, OpError> {
        let shape = a.shape().to_vec();
        if dim >= shape.len() {
            return Err(OpError::Shape(format!(
                "sum_dim {dim} of rank {}",
                shape.len()
            )));
        }
        let (outer, d, inner) = split3(&shape, dim);
        let v = f32s(a);
        let mut data = vec![0.0f64; outer * inner];
        for o in 0..outer {
            for j in 0..d {
                for i in 0..inner {
                    data[o * inner + i] += v[(o * d + j) * inner + i];
                }
            }
        }
        let mut out_shape = shape.clone();
        out_shape.remove(dim);
        let n = v.len();
        self.charge(n + data.len(), n);
        let out = self.alloc(out_tensor(&out_shape, data))?;
        self.record(Op::SumDim(dim), &[a], &out);
        Ok(out)
    }

    /// Softmax along dimension `dim` (numerically stabilized).
    ///
    /// # Errors
    ///
    /// Bad dimension or out-of-memory.
    pub fn softmax_dim(&self, a: &Tensor, dim: usize) -> Result<Tensor, OpError> {
        let shape = a.shape().to_vec();
        if dim >= shape.len() {
            return Err(OpError::Shape("softmax dim".to_string()));
        }
        let (outer, d, inner) = split3(&shape, dim);
        let v = f32s(a);
        let mut data = vec![0.0f64; v.len()];
        for o in 0..outer {
            for i in 0..inner {
                let at = |j: usize| (o * d + j) * inner + i;
                let m = (0..d).map(|j| v[at(j)]).fold(f64::NEG_INFINITY, f64::max);
                let den: f64 = (0..d).map(|j| (v[at(j)] - m).exp()).sum();
                for j in 0..d {
                    data[at(j)] = (v[at(j)] - m).exp() / den;
                }
            }
        }
        let n = v.len();
        self.charge(2 * n, 5 * n);
        let out = self.alloc(out_tensor(&shape, data))?;
        self.record(Op::SoftmaxDim(dim), &[a], &out);
        Ok(out)
    }

    /// `a[m, k] @ b[k, n]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn matmul(&self, a: &Tensor, b: &Tensor) -> Result<Tensor, OpError> {
        let (m, k) = mat2(a)?;
        let (k2, n) = mat2(b)?;
        if k != k2 {
            return Err(OpError::Shape(format!("matmul inner dims: {k} vs {k2}")));
        }
        let (va, vb) = (f32s(a), f32s(b));
        let mut data = vec![0.0f64; m * n];
        for i in 0..m {
            for p in 0..k {
                let x = va[i * k + p];
                for j in 0..n {
                    data[i * n + j] += x * vb[p * n + j];
                }
            }
        }
        self.charge(m * k + k * n + m * n, 2 * m * k * n);
        let out = self.alloc(out_tensor(&[m, n], data))?;
        self.record(Op::Matmul { m, k, n }, &[a, b], &out);
        Ok(out)
    }

    /// 2-D transpose.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn transpose2d(&self, a: &Tensor) -> Result<Tensor, OpError> {
        let (m, n) = mat2(a)?;
        let v = f32s(a);
        let mut data = vec![0.0f64; m * n];
        for i in 0..m {
            for j in 0..n {
                data[j * m + i] = v[i * n + j];
            }
        }
        self.charge(2 * m * n, 0);
        let out = self.alloc(out_tensor(&[n, m], data))?;
        self.record(Op::Transpose2d, &[a], &out);
        Ok(out)
    }

    /// Reshape (same element count).
    ///
    /// # Errors
    ///
    /// Element-count mismatch or out-of-memory.
    pub fn reshape(&self, a: &Tensor, shape: &[usize]) -> Result<Tensor, OpError> {
        if shape.iter().product::<usize>() != a.val().numel() {
            return Err(OpError::Shape("reshape element count".to_string()));
        }
        let data = f32s(a);
        let n = data.len();
        // Reshape is a data-movement operator in an eager framework.
        self.charge(2 * n, 0);
        let out = self.alloc(out_tensor(shape, data))?;
        self.record(Op::Reshape(a.shape().to_vec()), &[a], &out);
        Ok(out)
    }

    /// Gather rows of `a` (dim 0) by integer indices.
    ///
    /// # Errors
    ///
    /// Index out of range or out-of-memory.
    pub fn index_select(&self, a: &Tensor, idx: &Tensor) -> Result<Tensor, OpError> {
        let shape = a.shape().to_vec();
        let rows = shape[0];
        let row_elems: usize = shape[1..].iter().product::<usize>().max(1);
        let v = f32s(a);
        let indices = f32s(idx);
        let m = indices.len();
        let mut data = vec![0.0f64; m * row_elems];
        for (r, ix) in indices.iter().enumerate() {
            let src = *ix as usize;
            if src >= rows {
                return Err(OpError::Shape(format!(
                    "index_select: row {src} out of {rows}"
                )));
            }
            data[r * row_elems..(r + 1) * row_elems]
                .copy_from_slice(&v[src * row_elems..(src + 1) * row_elems]);
        }
        let mut out_shape = shape.clone();
        out_shape[0] = m;
        self.charge(m + 2 * m * row_elems, 0);
        let out = self.alloc(out_tensor(&out_shape, data))?;
        self.record(Op::IndexSelect, &[a, idx], &out);
        Ok(out)
    }

    /// Slice `[start, end)` along `dim`.
    ///
    /// # Errors
    ///
    /// Bad range or out-of-memory.
    pub fn slice(
        &self,
        a: &Tensor,
        dim: usize,
        start: usize,
        end: usize,
    ) -> Result<Tensor, OpError> {
        let shape = a.shape().to_vec();
        if dim >= shape.len() || end > shape[dim] || start >= end {
            return Err(OpError::Shape("slice range".to_string()));
        }
        let (outer, d, inner) = split3(&shape, dim);
        let v = f32s(a);
        let nd = end - start;
        let mut data = vec![0.0f64; outer * nd * inner];
        for o in 0..outer {
            for j in 0..nd {
                for i in 0..inner {
                    data[(o * nd + j) * inner + i] = v[(o * d + j + start) * inner + i];
                }
            }
        }
        let mut out_shape = shape.clone();
        out_shape[dim] = nd;
        self.charge(2 * data.len(), 0);
        let out = self.alloc(out_tensor(&out_shape, data))?;
        self.record(Op::Slice { dim, start, end }, &[a], &out);
        Ok(out)
    }

    /// Concatenate along `dim`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn cat(&self, parts: &[&Tensor], dim: usize) -> Result<Tensor, OpError> {
        if parts.is_empty() {
            return Err(OpError::Shape("cat of nothing".to_string()));
        }
        let base = parts[0].shape().to_vec();
        let mut sizes = Vec::new();
        let mut total = 0usize;
        for p in parts {
            let s = p.shape();
            if s.len() != base.len()
                || s.iter()
                    .zip(&base)
                    .enumerate()
                    .any(|(d, (x, y))| d != dim && x != y)
            {
                return Err(OpError::Shape("cat shapes".to_string()));
            }
            sizes.push(s[dim]);
            total += s[dim];
        }
        let (outer, _, inner) = split3(&base, dim);
        let mut out_shape = base.clone();
        out_shape[dim] = total;
        let mut data = vec![0.0f64; outer * total * inner];
        let mut off = 0usize;
        for p in parts {
            let d = p.shape()[dim];
            let v = f32s(p);
            for o in 0..outer {
                for j in 0..d {
                    for i in 0..inner {
                        data[(o * total + off + j) * inner + i] = v[(o * d + j) * inner + i];
                    }
                }
            }
            off += d;
        }
        self.charge(2 * data.len(), 0);
        let out = self.alloc(out_tensor(&out_shape, data))?;
        let refs: Vec<&Tensor> = parts.to_vec();
        self.record(Op::Cat { dim, sizes }, &refs, &out);
        Ok(out)
    }

    /// Longformer window materialization: `K[n, f] -> Kwin[n, 2w+1, f]`,
    /// zero-padded at the boundaries. This is the paper's Fig. 1(b): the
    /// feature matrix is copied window-size-fold.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn unfold_window(&self, k: &Tensor, w: usize) -> Result<Tensor, OpError> {
        let (n, f) = mat2(k)?;
        let l = 2 * w + 1;
        let v = f32s(k);
        let mut data = vec![0.0f64; n * l * f];
        for j in 0..n {
            for (kk, dk) in (-(w as i64)..=(w as i64)).enumerate() {
                let src = j as i64 + dk;
                if src < 0 || src >= n as i64 {
                    continue;
                }
                for p in 0..f {
                    data[(j * l + kk) * f + p] = v[src as usize * f + p];
                }
            }
        }
        self.charge(n * f + n * l * f, 0);
        let out = self.alloc(out_tensor(&[n, l, f], data))?;
        self.record(Op::UnfoldWindow { w }, &[k], &out);
        Ok(out)
    }

    /// `dot[n, l] = Σ_f Q[n, f] · Kwin[n, l, f]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn bmm_qk(&self, q: &Tensor, kwin: &Tensor) -> Result<Tensor, OpError> {
        let (n, f) = mat2(q)?;
        let [n2, l, f2] = *kwin.shape() else {
            return Err(OpError::Shape("bmm_qk expects [n, l, f]".to_string()));
        };
        if n != n2 || f != f2 {
            return Err(OpError::Shape("bmm_qk shapes".to_string()));
        }
        let (vq, vk) = (f32s(q), f32s(kwin));
        let mut data = vec![0.0f64; n * l];
        for j in 0..n {
            for kk in 0..l {
                let mut acc = 0.0;
                for p in 0..f {
                    acc += vq[j * f + p] * vk[(j * l + kk) * f + p];
                }
                data[j * l + kk] = acc;
            }
        }
        self.charge(n * f + n * l * f + n * l, 2 * n * l * f);
        let out = self.alloc(out_tensor(&[n, l], data))?;
        self.record(Op::BmmQk, &[q, kwin], &out);
        Ok(out)
    }

    /// `y[n, f] = Σ_l attn[n, l] · Vwin[n, l, f]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn bmm_av(&self, attn: &Tensor, vwin: &Tensor) -> Result<Tensor, OpError> {
        let (n, l) = mat2(attn)?;
        let [n2, l2, f] = *vwin.shape() else {
            return Err(OpError::Shape("bmm_av expects [n, l, f]".to_string()));
        };
        if n != n2 || l != l2 {
            return Err(OpError::Shape("bmm_av shapes".to_string()));
        }
        let (va, vv) = (f32s(attn), f32s(vwin));
        let mut data = vec![0.0f64; n * f];
        for j in 0..n {
            for kk in 0..l {
                let a = va[j * l + kk];
                for p in 0..f {
                    data[j * f + p] += a * vv[(j * l + kk) * f + p];
                }
            }
        }
        self.charge(n * l + n * l * f + n * f, 2 * n * l * f);
        let out = self.alloc(out_tensor(&[n, f], data))?;
        self.record(Op::BmmAv, &[attn, vwin], &out);
        Ok(out)
    }

    /// Sum all elements to a 0-D tensor.
    ///
    /// # Errors
    ///
    /// Out-of-memory.
    pub fn sum_all(&self, a: &Tensor) -> Result<Tensor, OpError> {
        let v = f32s(a);
        let s: f64 = v.iter().sum();
        self.charge(v.len() + 1, v.len());
        let out = self.alloc(out_tensor(&[], vec![s]))?;
        self.record(Op::SumAll, &[a], &out);
        Ok(out)
    }

    // ---- DGL-style graph operators (forward only, as in the paper) ----

    /// Gather rows of `h[n, f]` by edge targets `idx[e]`.
    ///
    /// # Errors
    ///
    /// Bad index or out-of-memory.
    pub fn gather_rows(&self, h: &Tensor, idx: &Tensor) -> Result<Tensor, OpError> {
        self.index_select(h, idx)
    }

    /// Per-segment maximum over CSR segments: `vals[e], rowptr[n+1] -> [n]`.
    ///
    /// # Errors
    ///
    /// Bad row pointers or out-of-memory.
    pub fn segment_max(&self, vals: &Tensor, rowptr: &Tensor) -> Result<Tensor, OpError> {
        self.segment_reduce(vals, rowptr, f64::NEG_INFINITY, f64::max)
    }

    /// Per-segment sum over CSR segments.
    ///
    /// # Errors
    ///
    /// Bad row pointers or out-of-memory.
    pub fn segment_sum(&self, vals: &Tensor, rowptr: &Tensor) -> Result<Tensor, OpError> {
        self.segment_reduce(vals, rowptr, 0.0, |a, b| a + b)
    }

    #[allow(clippy::needless_range_loop)] // CSR walks index by edge id
    fn segment_reduce(
        &self,
        vals: &Tensor,
        rowptr: &Tensor,
        init: f64,
        f: impl Fn(f64, f64) -> f64,
    ) -> Result<Tensor, OpError> {
        let v = f32s(vals);
        let rp = f32s(rowptr);
        let n = rp.len() - 1;
        let mut data = vec![init; n];
        for i in 0..n {
            for e in rp[i] as usize..rp[i + 1] as usize {
                data[i] = f(data[i], v[e]);
            }
        }
        self.charge(v.len() + n, v.len());
        let out = self.alloc(out_tensor(&[n], data))?;
        self.record(Op::NoGrad, &[vals, rowptr], &out);
        Ok(out)
    }

    /// Expand a per-node value to edges: `x[n], rowptr -> [e]`.
    ///
    /// # Errors
    ///
    /// Bad row pointers or out-of-memory.
    #[allow(clippy::needless_range_loop)] // CSR walks index by edge id
    pub fn expand_by_segment(
        &self,
        x: &Tensor,
        rowptr: &Tensor,
        e: usize,
    ) -> Result<Tensor, OpError> {
        let v = f32s(x);
        let rp = f32s(rowptr);
        let n = rp.len() - 1;
        let mut data = vec![0.0f64; e];
        for i in 0..n {
            for j in rp[i] as usize..rp[i + 1] as usize {
                data[j] = v[i];
            }
        }
        self.charge(v.len() + e, 0);
        let out = self.alloc(out_tensor(&[e], data))?;
        self.record(Op::NoGrad, &[x, rowptr], &out);
        Ok(out)
    }

    /// Weighted per-segment feature sum:
    /// `y[i, f] = Σ_{e in seg i} w[e] · feats[e, f]`.
    ///
    /// # Errors
    ///
    /// Shape mismatch or out-of-memory.
    pub fn segment_weighted_sum(
        &self,
        w: &Tensor,
        feats: &Tensor,
        rowptr: &Tensor,
    ) -> Result<Tensor, OpError> {
        let vw = f32s(w);
        let vf = f32s(feats);
        let rp = f32s(rowptr);
        let n = rp.len() - 1;
        let f = feats.shape()[1];
        let mut data = vec![0.0f64; n * f];
        for i in 0..n {
            for e in rp[i] as usize..rp[i + 1] as usize {
                for p in 0..f {
                    data[i * f + p] += vw[e] * vf[e * f + p];
                }
            }
        }
        self.charge(vw.len() + vf.len() + n * f, 2 * vf.len());
        let out = self.alloc(out_tensor(&[n, f], data))?;
        self.record(Op::NoGrad, &[w, feats, rowptr], &out);
        Ok(out)
    }
}

fn mat2(t: &Tensor) -> Result<(usize, usize), OpError> {
    match *t.shape() {
        [a, b] => Ok((a, b)),
        ref s => Err(OpError::Shape(format!("expected a matrix, got {s:?}"))),
    }
}

/// Split a shape at `dim` into (outer, dim extent, inner) products.
pub(crate) fn split3(shape: &[usize], dim: usize) -> (usize, usize, usize) {
    let outer: usize = shape[..dim].iter().product::<usize>().max(1);
    let inner: usize = shape[dim + 1..].iter().product::<usize>().max(1);
    (outer, shape[dim], inner)
}
