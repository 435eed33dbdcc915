//! Runtime tensor values.

pub use ft_ir::Scalar;
use ft_ir::DataType;
use std::fmt;

/// A dense, row-major tensor value (a scalar is a 0-D tensor with one
/// element).
#[derive(Debug, Clone, PartialEq)]
pub struct TensorVal {
    dtype: DataType,
    shape: Vec<usize>,
    /// Crate-visible so the VM's fused kernels can work on typed slices.
    /// The length always equals the product of `shape`; nothing outside
    /// this module resizes it.
    pub(crate) data: Data,
}

/// Typed backing storage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Data {
    F32(Vec<f32>),
    F64(Vec<f64>),
    I32(Vec<i32>),
    I64(Vec<i64>),
    Bool(Vec<bool>),
}

impl TensorVal {
    /// An all-zeros tensor.
    pub fn zeros(dtype: DataType, shape: &[usize]) -> TensorVal {
        let n: usize = shape.iter().product();
        let data = match dtype {
            DataType::F32 => Data::F32(vec![0.0; n]),
            DataType::F64 => Data::F64(vec![0.0; n]),
            DataType::I32 => Data::I32(vec![0; n]),
            DataType::I64 => Data::I64(vec![0; n]),
            DataType::Bool => Data::Bool(vec![false; n]),
        };
        TensorVal {
            dtype,
            shape: shape.to_vec(),
            data,
        }
    }

    /// Build an f32 tensor from values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `shape`.
    pub fn from_f32(shape: &[usize], data: Vec<f32>) -> TensorVal {
        assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorVal {
            dtype: DataType::F32,
            shape: shape.to_vec(),
            data: Data::F32(data),
        }
    }

    /// Build an f64 tensor from values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `shape`.
    pub fn from_f64(shape: &[usize], data: Vec<f64>) -> TensorVal {
        assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorVal {
            dtype: DataType::F64,
            shape: shape.to_vec(),
            data: Data::F64(data),
        }
    }

    /// Build an i32 tensor from values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `shape`.
    pub fn from_i32(shape: &[usize], data: Vec<i32>) -> TensorVal {
        assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorVal {
            dtype: DataType::I32,
            shape: shape.to_vec(),
            data: Data::I32(data),
        }
    }

    /// Build an i64 tensor from values.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the product of `shape`.
    pub fn from_i64(shape: &[usize], data: Vec<i64>) -> TensorVal {
        assert_eq!(data.len(), shape.iter().product::<usize>());
        TensorVal {
            dtype: DataType::I64,
            shape: shape.to_vec(),
            data: Data::I64(data),
        }
    }

    /// A 0-D f64 scalar tensor.
    pub fn scalar_f64(v: f64) -> TensorVal {
        TensorVal {
            dtype: DataType::F64,
            shape: vec![],
            data: Data::F64(vec![v]),
        }
    }

    /// Reset every element to zero in place (no reallocation).
    pub fn fill_zero(&mut self) {
        match &mut self.data {
            Data::F32(v) => v.fill(0.0),
            Data::F64(v) => v.fill(0.0),
            Data::I32(v) => v.fill(0),
            Data::I64(v) => v.fill(0),
            Data::Bool(v) => v.fill(false),
        }
    }

    /// Retarget this buffer at `(dtype, shape)` without zeroing, reusing the
    /// existing storage when possible. Returns `None` when the dtypes differ
    /// (the buffer cannot be reused), otherwise `Some(grew)` where `grew`
    /// reports whether the resize had to allocate beyond the old capacity.
    /// Shrinks keep capacity; stale elements are left as-is — callers must
    /// either [`fill_zero`](Self::fill_zero) or hold a write-before-read
    /// proof for every element.
    pub(crate) fn reuse_for(&mut self, dtype: DataType, shape: &[usize]) -> Option<bool> {
        if self.dtype != dtype {
            return None;
        }
        let n: usize = shape.iter().product();
        fn fit<T: Default + Clone>(v: &mut Vec<T>, n: usize) -> bool {
            let grew = n > v.capacity();
            v.resize(n, T::default());
            grew
        }
        let grew = match &mut self.data {
            Data::F32(v) => fit(v, n),
            Data::F64(v) => fit(v, n),
            Data::I32(v) => fit(v, n),
            Data::I64(v) => fit(v, n),
            Data::Bool(v) => fit(v, n),
        };
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        Some(grew)
    }

    /// Overwrite this buffer with a copy of `src` (dtype, shape and data),
    /// reusing the existing storage when the dtypes match. Returns `None`
    /// on a dtype mismatch, otherwise `Some(grew)` as in
    /// [`reuse_for`](Self::reuse_for).
    pub(crate) fn copy_from(&mut self, src: &TensorVal) -> Option<bool> {
        if self.dtype != src.dtype {
            return None;
        }
        fn refill<T: Clone>(dst: &mut Vec<T>, src: &[T]) -> bool {
            let grew = src.len() > dst.capacity();
            dst.clear();
            dst.extend_from_slice(src);
            grew
        }
        let grew = match (&mut self.data, &src.data) {
            (Data::F32(d), Data::F32(s)) => refill(d, s),
            (Data::F64(d), Data::F64(s)) => refill(d, s),
            (Data::I32(d), Data::I32(s)) => refill(d, s),
            (Data::I64(d), Data::I64(s)) => refill(d, s),
            (Data::Bool(d), Data::Bool(s)) => refill(d, s),
            _ => unreachable!("dtype checked above"),
        };
        self.shape.clear();
        self.shape.extend_from_slice(&src.shape);
        Some(grew)
    }

    /// Element type.
    pub fn dtype(&self) -> DataType {
        self.dtype
    }

    /// Shape (empty for scalars).
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.numel() * self.dtype.size_bytes()
    }

    /// The raw f32 storage, if this tensor is f32-typed.
    pub fn f32_data(&self) -> Option<&[f32]> {
        match &self.data {
            Data::F32(v) => Some(v),
            _ => None,
        }
    }

    /// The raw i64 storage, if this tensor is i64-typed.
    pub fn i64_data(&self) -> Option<&[i64]> {
        match &self.data {
            Data::I64(v) => Some(v),
            _ => None,
        }
    }

    /// Untyped pointer to the backing storage (for handing buffers to
    /// native code). Row-major, densely packed; `bool` is one byte per
    /// element holding 0/1, matching C99 `_Bool`.
    pub(crate) fn as_ptr_untyped(&self) -> *const std::ffi::c_void {
        match &self.data {
            Data::F32(v) => v.as_ptr() as *const _,
            Data::F64(v) => v.as_ptr() as *const _,
            Data::I32(v) => v.as_ptr() as *const _,
            Data::I64(v) => v.as_ptr() as *const _,
            Data::Bool(v) => v.as_ptr() as *const _,
        }
    }

    /// Mutable untyped pointer to the backing storage.
    pub(crate) fn as_mut_ptr_untyped(&mut self) -> *mut std::ffi::c_void {
        match &mut self.data {
            Data::F32(v) => v.as_mut_ptr() as *mut _,
            Data::F64(v) => v.as_mut_ptr() as *mut _,
            Data::I32(v) => v.as_mut_ptr() as *mut _,
            Data::I64(v) => v.as_mut_ptr() as *mut _,
            Data::Bool(v) => v.as_mut_ptr() as *mut _,
        }
    }

    /// Row-major flat offset of a multi-index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank mismatches or any index is out of bounds.
    pub fn flat_index(&self, idx: &[i64]) -> usize {
        assert_eq!(
            idx.len(),
            self.shape.len(),
            "rank mismatch indexing tensor of shape {:?} with {:?}",
            self.shape,
            idx
        );
        let mut off = 0usize;
        for (d, (&i, &extent)) in idx.iter().zip(&self.shape).enumerate() {
            assert!(
                i >= 0 && (i as usize) < extent,
                "index {i} out of bounds for dim {d} (extent {extent})"
            );
            off = off * extent + i as usize;
        }
        off
    }

    /// Read the element at a flat offset.
    #[inline]
    pub fn get_flat(&self, off: usize) -> Scalar {
        match &self.data {
            Data::F32(v) => Scalar::Float(v[off] as f64),
            Data::F64(v) => Scalar::Float(v[off]),
            Data::I32(v) => Scalar::Int(v[off] as i64),
            Data::I64(v) => Scalar::Int(v[off]),
            Data::Bool(v) => Scalar::Bool(v[off]),
        }
    }

    /// Write the element at a flat offset, converting to the tensor's dtype.
    #[inline]
    pub fn set_flat(&mut self, off: usize, v: Scalar) {
        match &mut self.data {
            Data::F32(d) => d[off] = v.as_f64() as f32,
            Data::F64(d) => d[off] = v.as_f64(),
            Data::I32(d) => d[off] = v.as_i64() as i32,
            Data::I64(d) => d[off] = v.as_i64(),
            Data::Bool(d) => d[off] = v.as_bool(),
        }
    }

    /// Read by multi-index.
    pub fn get(&self, idx: &[i64]) -> Scalar {
        self.get_flat(self.flat_index(idx))
    }

    /// Write by multi-index.
    pub fn set(&mut self, idx: &[i64], v: Scalar) {
        let off = self.flat_index(idx);
        self.set_flat(off, v);
    }

    /// All elements as f64 (for comparisons in tests and harnesses).
    pub fn to_f64_vec(&self) -> Vec<f64> {
        (0..self.numel()).map(|i| self.get_flat(i).as_f64()).collect()
    }

    /// Maximum absolute elementwise difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &TensorVal) -> f64 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.to_f64_vec()
            .iter()
            .zip(other.to_f64_vec())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Whether all elements are within `tol` of `other`'s.
    pub fn allclose(&self, other: &TensorVal, tol: f64) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Display for TensorVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tensor<{:?}, {}>", self.shape, self.dtype)?;
        if self.numel() <= 8 {
            write!(f, " {:?}", self.to_f64_vec())?;
        }
        Ok(())
    }
}

/// Portable 4-lane inner loops of the VM's two fused kernels, `axpy` and
/// `dot` (`std::simd` is unstable and external SIMD crates are off the
/// table, so these are manual 4-wide unrolls the optimizer can turn into
/// real vector code).
///
/// Bit-exactness contract: every kernel reproduces the scalar engines'
/// per-element semantics *exactly* — loads widen to `f64`, reductions round
/// back through the tensor's storage dtype after **every** combine, and
/// loop-carried accumulations keep their serial association (the 4-lane
/// unroll applies only to the independent loads/multiplies). This is what
/// lets the fast VM stay bit-identical to the interpreter while still
/// shedding per-element dispatch.
pub mod lanes {
    /// `y[i] = ((y[i] as f64) + a * (x[i] as f64)) as f32` for every `i` —
    /// the axpy shape. Elements are independent, so all four lanes of each
    /// unrolled chunk vectorize cleanly.
    pub fn axpy_f32(y: &mut [f32], a: f64, x: &[f32]) {
        debug_assert_eq!(y.len(), x.len());
        let (yc, yt) = y.split_at_mut(y.len() - y.len() % 4);
        let (xc, xt) = x.split_at(x.len() - x.len() % 4);
        for (yw, xw) in yc.chunks_exact_mut(4).zip(xc.chunks_exact(4)) {
            yw[0] = (yw[0] as f64 + a * xw[0] as f64) as f32;
            yw[1] = (yw[1] as f64 + a * xw[1] as f64) as f32;
            yw[2] = (yw[2] as f64 + a * xw[2] as f64) as f32;
            yw[3] = (yw[3] as f64 + a * xw[3] as f64) as f32;
        }
        for (yv, xv) in yt.iter_mut().zip(xt) {
            *yv = (*yv as f64 + a * *xv as f64) as f32;
        }
    }

    /// `f64` variant of [`axpy_f32`] (no narrowing round-trip).
    pub fn axpy_f64(y: &mut [f64], a: f64, x: &[f64]) {
        debug_assert_eq!(y.len(), x.len());
        for (yv, xv) in y.iter_mut().zip(x) {
            *yv += a * *xv;
        }
    }

    /// Fused load-mul-reduce for the dot-product shape: returns the final
    /// accumulator after `acc = ((acc as f64) + (x[i] as f64) * (y[i] as
    /// f64)) as f32` over every `i`, in serial order. The multiplies are
    /// unrolled 4 wide (independent); the adds stay serial because float
    /// addition is non-associative and the interpreter is the spec.
    pub fn dot_f32(acc0: f32, x: &[f32], y: &[f32]) -> f32 {
        debug_assert_eq!(x.len(), y.len());
        let mut acc = acc0;
        let split = x.len() - x.len() % 4;
        for (xw, yw) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
            let p = [
                xw[0] as f64 * yw[0] as f64,
                xw[1] as f64 * yw[1] as f64,
                xw[2] as f64 * yw[2] as f64,
                xw[3] as f64 * yw[3] as f64,
            ];
            acc = (acc as f64 + p[0]) as f32;
            acc = (acc as f64 + p[1]) as f32;
            acc = (acc as f64 + p[2]) as f32;
            acc = (acc as f64 + p[3]) as f32;
        }
        for (xv, yv) in x[split..].iter().zip(&y[split..]) {
            acc = (acc as f64 + *xv as f64 * *yv as f64) as f32;
        }
        acc
    }

    /// `f64` variant of [`dot_f32`]: serial-order adds, unrolled multiplies.
    pub fn dot_f64(acc0: f64, x: &[f64], y: &[f64]) -> f64 {
        debug_assert_eq!(x.len(), y.len());
        let mut acc = acc0;
        let split = x.len() - x.len() % 4;
        for (xw, yw) in x[..split].chunks_exact(4).zip(y[..split].chunks_exact(4)) {
            let p = [xw[0] * yw[0], xw[1] * yw[1], xw[2] * yw[2], xw[3] * yw[3]];
            acc += p[0];
            acc += p[1];
            acc += p[2];
            acc += p[3];
        }
        for (xv, yv) in x[split..].iter().zip(&y[split..]) {
            acc += xv * yv;
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_is_row_major() {
        let mut t = TensorVal::zeros(DataType::F32, &[2, 3]);
        t.set(&[1, 2], Scalar::Float(7.0));
        assert_eq!(t.flat_index(&[1, 2]), 5);
        assert_eq!(t.get(&[1, 2]).as_f64(), 7.0);
        assert_eq!(t.get(&[0, 0]).as_f64(), 0.0);
    }

    #[test]
    fn scalars_are_zero_dim() {
        let t = TensorVal::scalar_f64(3.5);
        assert_eq!(t.ndim(), 0);
        assert_eq!(t.numel(), 1);
        assert_eq!(t.get(&[]).as_f64(), 3.5);
    }

    #[test]
    fn dtype_conversion_on_set() {
        let mut t = TensorVal::zeros(DataType::I32, &[1]);
        t.set(&[0], Scalar::Float(3.9));
        assert_eq!(t.get(&[0]).as_i64(), 3);
        let mut b = TensorVal::zeros(DataType::Bool, &[1]);
        b.set(&[0], Scalar::Int(2));
        assert!(b.get(&[0]).as_bool());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_panics() {
        let t = TensorVal::zeros(DataType::F32, &[2]);
        t.get(&[2]);
    }

    #[test]
    fn comparison_helpers() {
        let a = TensorVal::from_f32(&[3], vec![1.0, 2.0, 3.0]);
        let b = TensorVal::from_f32(&[3], vec![1.0, 2.5, 3.0]);
        assert!((a.max_abs_diff(&b) - 0.5).abs() < 1e-9);
        assert!(a.allclose(&b, 0.6));
        assert!(!a.allclose(&b, 0.4));
    }

    #[test]
    fn size_accounting() {
        let t = TensorVal::zeros(DataType::F64, &[4, 4]);
        assert_eq!(t.size_bytes(), 128);
    }
}
