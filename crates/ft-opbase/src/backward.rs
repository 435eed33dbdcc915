//! Graph-based reverse AD over the recorded operator tape.
//!
//! The classic operator-framework scheme (paper §7 "Automatic
//! differentiation"): walk the tape backwards, replacing each node by its
//! gradient counterpart. Every saved input/output was *retained* by the tape
//! — the all-materialized behaviour FreeTensor's selective strategy improves
//! on.

use crate::ops::{split3, Op};
use crate::{OpError, Session, Tensor};
use ft_ir::DataType;
use ft_runtime::TensorVal;
use std::collections::HashMap;

fn vals(t: &Tensor) -> Vec<f64> {
    t.val().to_f64_vec()
}

fn tensor_from(shape: &[usize], data: Vec<f64>) -> TensorVal {
    let mut t = TensorVal::zeros(DataType::F32, shape);
    for (i, v) in data.into_iter().enumerate() {
        t.set_flat(i, ft_runtime::Scalar::Float(v));
    }
    t
}

impl Session {
    /// Run the backward pass from `output` with gradient `seed`, consuming
    /// the tape. Returns the gradient of every tensor that received one,
    /// keyed by [`Tensor::id`].
    ///
    /// # Errors
    ///
    /// [`OpError::OutOfMemory`] when gradient buffers exceed capacity;
    /// [`OpError::Shape`] when the seed's shape mismatches the output.
    pub fn backward(
        &self,
        output: &Tensor,
        seed: TensorVal,
    ) -> Result<HashMap<usize, TensorVal>, OpError> {
        if seed.shape() != output.shape() {
            return Err(OpError::Shape("backward seed shape".to_string()));
        }
        let tape = std::mem::take(&mut self.state.borrow_mut().tape);
        let mut grads: HashMap<usize, Vec<f64>> = HashMap::new();
        grads.insert(output.id(), seed.to_f64_vec());
        for entry in tape.iter().rev() {
            let Some(gout) = grads.get(&entry.output.id()).cloned() else {
                continue;
            };
            let contribs = self.op_backward(&entry.op, &entry.inputs, &entry.output, &gout)?;
            for (tensor, g) in contribs {
                let slot = grads
                    .entry(tensor.id())
                    .or_insert_with(|| vec![0.0; tensor.val().numel()]);
                for (a, b) in slot.iter_mut().zip(g) {
                    *a += b;
                }
            }
        }
        // Materialize gradients as tensors (counted toward footprint).
        let mut out = HashMap::new();
        let shapes: HashMap<usize, Vec<usize>> = tape
            .iter()
            .flat_map(|e| {
                e.inputs
                    .iter()
                    .chain(std::iter::once(&e.output))
                    .map(|t| (t.id(), t.shape().to_vec()))
            })
            .collect();
        for (id, g) in grads {
            let shape = shapes
                .get(&id)
                .cloned()
                .unwrap_or_else(|| output.shape().to_vec());
            out.insert(id, tensor_from(&shape, g));
        }
        Ok(out)
    }

    #[allow(clippy::too_many_lines)]
    fn op_backward(
        &self,
        op: &Op,
        inputs: &[Tensor],
        output: &Tensor,
        gout: &[f64],
    ) -> Result<Vec<(Tensor, Vec<f64>)>, OpError> {
        // Every gradient operator is itself an operator launch: charge it.
        let n_out = gout.len();
        let out = match op {
            Op::Add => {
                self.charge(3 * n_out, n_out);
                vec![
                    (inputs[0].clone(), gout.to_vec()),
                    (inputs[1].clone(), gout.to_vec()),
                ]
            }
            Op::Sub => {
                self.charge(3 * n_out, n_out);
                vec![
                    (inputs[0].clone(), gout.to_vec()),
                    (inputs[1].clone(), gout.iter().map(|g| -g).collect()),
                ]
            }
            Op::Mul => {
                let (a, b) = (vals(&inputs[0]), vals(&inputs[1]));
                self.charge(4 * n_out, 2 * n_out);
                vec![
                    (
                        inputs[0].clone(),
                        gout.iter().zip(&b).map(|(g, y)| g * y).collect(),
                    ),
                    (
                        inputs[1].clone(),
                        gout.iter().zip(&a).map(|(g, x)| g * x).collect(),
                    ),
                ]
            }
            Op::Div => {
                let (a, b) = (vals(&inputs[0]), vals(&inputs[1]));
                self.charge(4 * n_out, 4 * n_out);
                vec![
                    (
                        inputs[0].clone(),
                        gout.iter().zip(&b).map(|(g, y)| g / y).collect(),
                    ),
                    (
                        inputs[1].clone(),
                        gout.iter()
                            .zip(a.iter().zip(&b))
                            .map(|(g, (x, y))| -g * x / (y * y))
                            .collect(),
                    ),
                ]
            }
            Op::Abs => {
                let a = vals(&inputs[0]);
                self.charge(3 * n_out, n_out);
                vec![(
                    inputs[0].clone(),
                    gout.iter()
                        .zip(&a)
                        .map(|(g, x)| g * if *x >= 0.0 { 1.0 } else { -1.0 })
                        .collect(),
                )]
            }
            Op::Exp => {
                let y = vals(output);
                self.charge(3 * n_out, n_out);
                vec![(
                    inputs[0].clone(),
                    gout.iter().zip(&y).map(|(g, e)| g * e).collect(),
                )]
            }
            Op::Relu => {
                let a = vals(&inputs[0]);
                self.charge(3 * n_out, n_out);
                vec![(
                    inputs[0].clone(),
                    gout.iter()
                        .zip(&a)
                        .map(|(g, x)| if *x > 0.0 { *g } else { 0.0 })
                        .collect(),
                )]
            }
            Op::Sigmoid => {
                let y = vals(output);
                self.charge(3 * n_out, 3 * n_out);
                vec![(
                    inputs[0].clone(),
                    gout.iter()
                        .zip(&y)
                        .map(|(g, s)| g * s * (1.0 - s))
                        .collect(),
                )]
            }
            Op::Scale(c) => {
                self.charge(2 * n_out, n_out);
                vec![(inputs[0].clone(), gout.iter().map(|g| g * c).collect())]
            }
            Op::AddRow => {
                let f = inputs[1].val().numel();
                let mut gv = vec![0.0; f];
                for (i, g) in gout.iter().enumerate() {
                    gv[i % f] += g;
                }
                self.charge(2 * n_out + f, n_out);
                vec![(inputs[0].clone(), gout.to_vec()), (inputs[1].clone(), gv)]
            }
            Op::AddCol => {
                let p = inputs[1].val().numel();
                let f = n_out / p;
                let mut gv = vec![0.0; p];
                for (i, g) in gout.iter().enumerate() {
                    gv[i / f] += g;
                }
                self.charge(2 * n_out + p, n_out);
                vec![(inputs[0].clone(), gout.to_vec()), (inputs[1].clone(), gv)]
            }
            Op::SumDim(dim) => {
                let shape = inputs[0].shape().to_vec();
                let (outer, d, inner) = split3(&shape, *dim);
                let mut g = vec![0.0; outer * d * inner];
                for o in 0..outer {
                    for j in 0..d {
                        for i in 0..inner {
                            g[(o * d + j) * inner + i] = gout[o * inner + i];
                        }
                    }
                }
                self.charge(n_out + g.len(), 0);
                vec![(inputs[0].clone(), g)]
            }
            Op::SoftmaxDim(dim) => {
                let y = vals(output);
                let shape = output.shape().to_vec();
                let (outer, d, inner) = split3(&shape, *dim);
                let mut g = vec![0.0; y.len()];
                for o in 0..outer {
                    for i in 0..inner {
                        let at = |j: usize| (o * d + j) * inner + i;
                        let dot: f64 = (0..d).map(|j| gout[at(j)] * y[at(j)]).sum();
                        for j in 0..d {
                            g[at(j)] = y[at(j)] * (gout[at(j)] - dot);
                        }
                    }
                }
                self.charge(3 * y.len(), 4 * y.len());
                vec![(inputs[0].clone(), g)]
            }
            Op::Matmul { m, k, n } => {
                let (a, b) = (vals(&inputs[0]), vals(&inputs[1]));
                let mut ga = vec![0.0; m * k];
                let mut gb = vec![0.0; k * n];
                for i in 0..*m {
                    for j in 0..*n {
                        let g = gout[i * n + j];
                        for p in 0..*k {
                            ga[i * k + p] += g * b[p * n + j];
                            gb[p * n + j] += g * a[i * k + p];
                        }
                    }
                }
                self.charge(m * k + k * n + 2 * m * n, 4 * m * k * n);
                vec![(inputs[0].clone(), ga), (inputs[1].clone(), gb)]
            }
            Op::Transpose2d => {
                let [n, m] = *output.shape() else {
                    unreachable!()
                };
                let mut g = vec![0.0; m * n];
                for j in 0..n {
                    for i in 0..m {
                        g[i * n + j] = gout[j * m + i];
                    }
                }
                self.charge(2 * n_out, 0);
                vec![(inputs[0].clone(), g)]
            }
            Op::Reshape(orig) => {
                let _ = orig;
                self.charge(2 * n_out, 0);
                vec![(inputs[0].clone(), gout.to_vec())]
            }
            Op::IndexSelect => {
                let src_shape = inputs[0].shape().to_vec();
                let row: usize = src_shape[1..].iter().product::<usize>().max(1);
                let idx = vals(&inputs[1]);
                let mut g = vec![0.0; inputs[0].val().numel()];
                for (r, ix) in idx.iter().enumerate() {
                    let dst = *ix as usize;
                    for p in 0..row {
                        g[dst * row + p] += gout[r * row + p];
                    }
                }
                self.charge(n_out + g.len(), n_out);
                vec![(inputs[0].clone(), g)]
            }
            Op::Slice { dim, start, .. } => {
                let shape = inputs[0].shape().to_vec();
                let (outer, d, inner) = split3(&shape, *dim);
                let nd = output.shape()[*dim];
                let mut g = vec![0.0; inputs[0].val().numel()];
                for o in 0..outer {
                    for j in 0..nd {
                        for i in 0..inner {
                            g[(o * d + j + start) * inner + i] = gout[(o * nd + j) * inner + i];
                        }
                    }
                }
                self.charge(n_out + g.len(), 0);
                vec![(inputs[0].clone(), g)]
            }
            Op::Cat { dim, sizes } => {
                let total: usize = sizes.iter().sum();
                let base = output.shape().to_vec();
                let (outer, _, inner) = split3(&base, *dim);
                let mut contribs = Vec::new();
                let mut off = 0usize;
                for (part, d) in inputs.iter().zip(sizes) {
                    let mut g = vec![0.0; part.val().numel()];
                    for o in 0..outer {
                        for j in 0..*d {
                            for i in 0..inner {
                                g[(o * d + j) * inner + i] =
                                    gout[(o * total + off + j) * inner + i];
                            }
                        }
                    }
                    off += d;
                    contribs.push((part.clone(), g));
                }
                self.charge(2 * n_out, 0);
                contribs
            }
            Op::UnfoldWindow { w } => {
                let [n, f] = *inputs[0].shape() else {
                    unreachable!()
                };
                let l = 2 * w + 1;
                let mut g = vec![0.0; n * f];
                for j in 0..n {
                    for (kk, dk) in (-(*w as i64)..=(*w as i64)).enumerate() {
                        let src = j as i64 + dk;
                        if src < 0 || src >= n as i64 {
                            continue;
                        }
                        for p in 0..f {
                            g[src as usize * f + p] += gout[(j * l + kk) * f + p];
                        }
                    }
                }
                self.charge(n_out + g.len(), n_out);
                vec![(inputs[0].clone(), g)]
            }
            Op::BmmQk => {
                let (q, kwin) = (vals(&inputs[0]), vals(&inputs[1]));
                let [n, f] = *inputs[0].shape() else {
                    unreachable!()
                };
                let [_, l, _] = *inputs[1].shape() else {
                    unreachable!()
                };
                let mut gq = vec![0.0; n * f];
                let mut gk = vec![0.0; n * l * f];
                for j in 0..n {
                    for kk in 0..l {
                        let g = gout[j * l + kk];
                        for p in 0..f {
                            gq[j * f + p] += g * kwin[(j * l + kk) * f + p];
                            gk[(j * l + kk) * f + p] += g * q[j * f + p];
                        }
                    }
                }
                self.charge(n * f + n * l * f + n * l, 4 * n * l * f);
                vec![(inputs[0].clone(), gq), (inputs[1].clone(), gk)]
            }
            Op::BmmAv => {
                let (attn, vwin) = (vals(&inputs[0]), vals(&inputs[1]));
                let [n, l] = *inputs[0].shape() else {
                    unreachable!()
                };
                let [_, _, f] = *inputs[1].shape() else {
                    unreachable!()
                };
                let mut ga = vec![0.0; n * l];
                let mut gv = vec![0.0; n * l * f];
                for j in 0..n {
                    for kk in 0..l {
                        let mut acc = 0.0;
                        for p in 0..f {
                            acc += gout[j * f + p] * vwin[(j * l + kk) * f + p];
                            gv[(j * l + kk) * f + p] += attn[j * l + kk] * gout[j * f + p];
                        }
                        ga[j * l + kk] = acc;
                    }
                }
                self.charge(n * l + n * l * f + n * f, 4 * n * l * f);
                vec![(inputs[0].clone(), ga), (inputs[1].clone(), gv)]
            }
            Op::SumAll => {
                let n = inputs[0].val().numel();
                self.charge(n + 1, 0);
                vec![(inputs[0].clone(), vec![gout[0]; n])]
            }
            Op::NoGrad => vec![],
        };
        Ok(out)
    }
}
