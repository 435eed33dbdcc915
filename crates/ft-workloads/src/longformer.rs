//! Longformer's sliding-window attention (paper §1 Fig. 1, §3.2 Fig. 5).
//!
//! Token `j` attends only to tokens within distance `w`; scores are
//! softmax-normalized over the valid window and used to mix `V`.

use crate::{data, Inputs};
use freetensor_core::Program;
use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::{Scalar, TensorVal};

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Sequence length.
    pub seq_len: usize,
    /// Window half-width.
    pub w: usize,
    /// Feature dimension.
    pub feat_len: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            seq_len: 512,
            w: 32,
            feat_len: 64,
        }
    }
}

impl Params {
    /// A small instance for tests.
    pub fn small() -> Params {
        Params {
            seq_len: 12,
            w: 2,
            feat_len: 4,
        }
    }
}

/// Synthetic `Q`, `K`, `V` of shape `[seq_len, feat_len]`.
pub fn inputs(p: &Params, seed: u64) -> Inputs {
    let mut m = Inputs::new();
    for (i, name) in ["Q", "K", "V"].iter().enumerate() {
        m.insert(
            (*name).to_string(),
            data::features(&[p.seq_len, p.feat_len], seed + i as u64),
        );
    }
    m
}

/// The FreeTensor DSL source: direct sliding-window indexing, no copies
/// (paper Fig. 5, completed with the attention application).
pub fn source(p: &Params) -> String {
    format!(
        r#"
def longformer(Q: f32[{n}, {f}] in, K: f32[{n}, {f}] in, V: f32[{n}, {f}] in, y: f32[{n}, {f}] out):
  for j in range({n}):
    dot = create_var(({l},), "f32", "cpu")
    for k in range({l}):
      if j + k - {w} >= 0 and j + k - {w} < {n}:
        for p in range({f}):
          dot[k] += Q[j, p] * K[j + k - {w}, p]
      else:
        dot[k] = -inf
    m = create_var((), "f32", "cpu")
    m = -inf
    for k2 in range({l}):
      m max= dot[k2]
    ex = create_var(({l},), "f32", "cpu")
    for ke in range({l}):
      if j + ke - {w} >= 0 and j + ke - {w} < {n}:
        ex[ke] = exp(dot[ke] - m)
      else:
        ex[ke] = 0.0
    den = create_var((), "f32", "cpu")
    for k3 in range({l}):
      den += ex[k3]
    for k4 in range({l}):
      if j + k4 - {w} >= 0 and j + k4 - {w} < {n}:
        for p2 in range({f}):
          y[j, p2] += ex[k4] / den * V[j + k4 - {w}, p2]
"#,
        n = p.seq_len,
        f = p.feat_len,
        w = p.w,
        l = 2 * p.w + 1
    )
}

/// Compile the FreeTensor program.
pub fn program(p: &Params) -> Program {
    Program::compile(&source(p), "longformer").expect("longformer source compiles")
}

/// Reference implementation.
pub fn reference(p: &Params, inputs: &Inputs) -> TensorVal {
    let (q, k, v) = (&inputs["Q"], &inputs["K"], &inputs["V"]);
    let (n, f, w) = (p.seq_len, p.feat_len, p.w as i64);
    let mut y = TensorVal::zeros(ft_ir::DataType::F32, &[n, f]);
    for j in 0..n {
        let lo = (j as i64 - w).max(0) as usize;
        let hi = ((j as i64 + w + 1).min(n as i64)) as usize;
        let mut scores: Vec<f64> = Vec::new();
        for t in lo..hi {
            let mut dot = 0.0f64;
            for c in 0..f {
                dot += q.get_flat(j * f + c).as_f64() * k.get_flat(t * f + c).as_f64();
            }
            scores.push(dot);
        }
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        for (idx, t) in (lo..hi).enumerate() {
            let a = (scores[idx] - m).exp() / den;
            for c in 0..f {
                let cur = y.get_flat(j * f + c).as_f64();
                y.set_flat(
                    j * f + c,
                    Scalar::Float(cur + a * v.get_flat(t * f + c).as_f64()),
                );
            }
        }
    }
    y
}

/// Plain-Rust oracle gradients `∂L/∂Q`, `∂L/∂K`, `∂L/∂V` given
/// `seed = ∂L/∂y`.
///
/// Per row `j`, with window scores `s_t = Q[j]·K[t]` and attention
/// `a = softmax(s)` (the max-shift cancels analytically): writing
/// `b_t = Σ_c seed[j,c]·V[t,c]` and `ā = Σ_t a_t·b_t`,
///
/// * `∂L/∂V[t,c] += a_t · seed[j,c]`
/// * `∂s_t = a_t · (b_t − ā)` (softmax Jacobian)
/// * `∂L/∂Q[j,p] += Σ_t ∂s_t · K[t,p]`, `∂L/∂K[t,p] += ∂s_t · Q[j,p]`.
pub fn reference_grad(p: &Params, inputs: &Inputs, seed: &TensorVal) -> Inputs {
    let (q, k, v) = (&inputs["Q"], &inputs["K"], &inputs["V"]);
    let (n, f, w) = (p.seq_len, p.feat_len, p.w as i64);
    let mut dq = vec![0.0f64; n * f];
    let mut dk = vec![0.0f64; n * f];
    let mut dv = vec![0.0f64; n * f];
    for j in 0..n {
        let lo = (j as i64 - w).max(0) as usize;
        let hi = ((j as i64 + w + 1).min(n as i64)) as usize;
        let scores: Vec<f64> = (lo..hi)
            .map(|t| {
                (0..f)
                    .map(|c| q.get_flat(j * f + c).as_f64() * k.get_flat(t * f + c).as_f64())
                    .sum()
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        let attn: Vec<f64> = scores.iter().map(|s| (s - m).exp() / den).collect();
        let b: Vec<f64> = (lo..hi)
            .map(|t| {
                (0..f)
                    .map(|c| seed.get_flat(j * f + c).as_f64() * v.get_flat(t * f + c).as_f64())
                    .sum()
            })
            .collect();
        let abar: f64 = attn.iter().zip(&b).map(|(a, b)| a * b).sum();
        for (idx, t) in (lo..hi).enumerate() {
            for c in 0..f {
                dv[t * f + c] += attn[idx] * seed.get_flat(j * f + c).as_f64();
            }
            let ds = attn[idx] * (b[idx] - abar);
            for c in 0..f {
                dq[j * f + c] += ds * k.get_flat(t * f + c).as_f64();
                dk[t * f + c] += ds * q.get_flat(j * f + c).as_f64();
            }
        }
    }
    let to_val =
        |v: Vec<f64>| TensorVal::from_f32(&[n, f], v.into_iter().map(|x| x as f32).collect());
    let mut m = Inputs::new();
    m.insert("Q.grad".to_string(), to_val(dq));
    m.insert("K.grad".to_string(), to_val(dk));
    m.insert("V.grad".to_string(), to_val(dv));
    m
}

fn window_mask(p: &Params) -> TensorVal {
    let l = 2 * p.w + 1;
    let mut mask = vec![0.0f32; p.seq_len * l];
    for j in 0..p.seq_len {
        for kk in 0..l {
            let t = j as i64 + kk as i64 - p.w as i64;
            if t < 0 || t >= p.seq_len as i64 {
                mask[j * l + kk] = -1e30;
            }
        }
    }
    TensorVal::from_f32(&[p.seq_len, l], mask)
}

/// Handles to the baseline's leaf tensors (for gradient lookups).
pub struct OpbaseHandles {
    /// Query matrix handle.
    pub q: Tensor,
    /// Key matrix handle.
    pub k: Tensor,
    /// Value matrix handle.
    pub v: Tensor,
    /// Output handle.
    pub y: Tensor,
}

/// Operator-based implementation (paper Fig. 1(b)): materialize the
/// window-unfolded `K` and `V` (the w-fold copies), batched dot products,
/// masked softmax over the window, batched mix.
///
/// # Errors
///
/// Propagates operator shape/memory errors (including the OOM this
/// materialization causes at larger sizes).
pub fn opbase(s: &Session, p: &Params, inputs: &Inputs) -> Result<OpbaseHandles, OpError> {
    let q = s.tensor(inputs["Q"].clone())?;
    let k = s.tensor(inputs["K"].clone())?;
    let v = s.tensor(inputs["V"].clone())?;
    let mask = s.tensor(window_mask(p))?;
    let kwin = s.unfold_window(&k, p.w)?;
    let vwin = s.unfold_window(&v, p.w)?;
    let dot = s.bmm_qk(&q, &kwin)?;
    let masked = s.add(&dot, &mask)?;
    let attn = s.softmax_dim(&masked, 1)?;
    let y = s.bmm_av(&attn, &vwin)?;
    Ok(OpbaseHandles { q, k, v, y })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::Runtime;
    use std::collections::HashMap;

    #[test]
    fn window_materialization_dominates_baseline_memory() {
        let p = Params::small();
        let ins = inputs(&p, 5);
        let s = Session::cpu();
        let _ = opbase(&s, &p, &ins).unwrap();
        let baseline_peak = s.counters().peak_bytes["cpu"];
        let rt = Runtime::new();
        let r = program(&p).run(&rt, &ins, &HashMap::new()).unwrap();
        let ft_peak = r.counters.peak_bytes["cpu"];
        assert!(
            baseline_peak > 2 * ft_peak,
            "baseline peak {baseline_peak} vs FreeTensor {ft_peak}"
        );
    }

    #[test]
    fn freetensor_grad_matches_operator_grad() {
        let p = Params::small();
        let ins = inputs(&p, 13);
        let seed = TensorVal::from_f32(&[p.seq_len, p.feat_len], vec![1.0; p.seq_len * p.feat_len]);
        // FreeTensor AD.
        let g = program(&p)
            .grad(&ft_autodiff::GradOptions::default())
            .unwrap();
        let rt = Runtime::new();
        let mut seeded = ins.clone();
        seeded.insert("y.grad".to_string(), seed.clone());
        let r = g.run(&rt, &seeded, &HashMap::new()).unwrap();
        // Operator AD.
        let s = Session::cpu();
        s.set_grad_mode(true);
        let h = opbase(&s, &p, &ins).unwrap();
        let grads = s.backward(&h.y, seed).unwrap();
        for (name, handle) in [("Q", &h.q), ("K", &h.k), ("V", &h.v)] {
            let ft = r.output(&format!("{name}.grad"));
            let ob = &grads[&handle.id()];
            assert!(
                ft.allclose(ob, 1e-2),
                "{name}.grad mismatch: max diff {}",
                ft.max_abs_diff(ob)
            );
        }
    }
}
