//! SoftRas-style differentiable rasterization (paper §6.1).
//!
//! Every pixel–face pair gets a geometric score (a sigmoid of the signed
//! distance between the pixel and the face's center), scores are normalized
//! per pixel, and face colors are mixed accordingly — the fine-grained
//! "compute per pixel-face pair" structure the paper highlights.

use crate::{data, Inputs};
use freetensor_core::Program;
use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::{Scalar, TensorVal};

/// Problem sizes and the soft-rasterizer constants.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Image height.
    pub h: usize,
    /// Image width.
    pub w: usize,
    /// Number of faces.
    pub n_faces: usize,
    /// Color channels.
    pub channels: usize,
    /// Squared soft radius.
    pub r2: f32,
    /// Sharpness of the sigmoid.
    pub sigma: f32,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            h: 32,
            w: 32,
            n_faces: 24,
            channels: 3,
            r2: 0.03,
            sigma: 0.01,
        }
    }
}

impl Params {
    /// A small instance for tests.
    pub fn small() -> Params {
        Params {
            h: 6,
            w: 5,
            n_faces: 7,
            channels: 2,
            ..Params::default()
        }
    }

    /// Number of pixels.
    pub fn pixels(&self) -> usize {
        self.h * self.w
    }
}

/// Synthetic inputs: pixel grid `px[P, 2]`, face centers `faces[F, 2]`,
/// face colors `col[F, CH]`.
pub fn inputs(p: &Params, seed: u64) -> Inputs {
    let mut m = Inputs::new();
    m.insert("px".to_string(), data::pixel_grid(p.h, p.w));
    // Face centers in [0, 1]^2: reuse the feature generator, shifted.
    let raw = data::features(&[p.n_faces, 2], seed);
    let centers: Vec<f32> = raw
        .to_f64_vec()
        .into_iter()
        .map(|v| (v as f32 + 1.0) / 2.0)
        .collect();
    m.insert(
        "faces".to_string(),
        TensorVal::from_f32(&[p.n_faces, 2], centers),
    );
    m.insert(
        "col".to_string(),
        data::features(&[p.n_faces, p.channels], seed ^ 0xC0),
    );
    m
}

/// The FreeTensor DSL source: per-pixel loop over faces, distances computed
/// in place, softmax-normalized mixing.
pub fn source(p: &Params) -> String {
    format!(
        r#"
def softras(px: f32[{pp}, 2] in, faces: f32[{ff}, 2] in, col: f32[{ff}, {ch}] in, img: f32[{pp}, {ch}] out):
  for p in range({pp}):
    sc = create_var(({ff},), "f32", "cpu")
    for f in range({ff}):
      sc[f] = ({r2} - ((px[p, 0] - faces[f, 0]) * (px[p, 0] - faces[f, 0]) + (px[p, 1] - faces[f, 1]) * (px[p, 1] - faces[f, 1]))) / {sigma}
    m = create_var((), "f32", "cpu")
    m = -inf
    for f2 in range({ff}):
      m max= sc[f2]
    den = create_var((), "f32", "cpu")
    for f3 in range({ff}):
      den += exp(sc[f3] - m)
    for f4 in range({ff}):
      for c in range({ch}):
        img[p, c] += exp(sc[f4] - m) / den * col[f4, c]
"#,
        pp = p.pixels(),
        ff = p.n_faces,
        ch = p.channels,
        r2 = p.r2,
        sigma = p.sigma
    )
}

/// Compile the FreeTensor program.
pub fn program(p: &Params) -> Program {
    Program::compile(&source(p), "softras").expect("softras source compiles")
}

/// Reference implementation.
#[allow(clippy::needless_range_loop)] // face index is part of the math
pub fn reference(p: &Params, inputs: &Inputs) -> TensorVal {
    let (px, faces, col) = (&inputs["px"], &inputs["faces"], &inputs["col"]);
    let (pp, ff, ch) = (p.pixels(), p.n_faces, p.channels);
    let mut img = TensorVal::zeros(ft_ir::DataType::F32, &[pp, ch]);
    for pi in 0..pp {
        let scores: Vec<f64> = (0..ff)
            .map(|f| {
                let mut d = 0.0;
                for t in 0..2 {
                    let diff =
                        px.get_flat(pi * 2 + t).as_f64() - faces.get_flat(f * 2 + t).as_f64();
                    d += diff * diff;
                }
                (p.r2 as f64 - d) / p.sigma as f64
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        for f in 0..ff {
            let a = (scores[f] - m).exp() / den;
            for c in 0..ch {
                let cur = img.get_flat(pi * ch + c).as_f64();
                img.set_flat(
                    pi * ch + c,
                    Scalar::Float(cur + a * col.get_flat(f * ch + c).as_f64()),
                );
            }
        }
    }
    img
}

/// Plain-Rust oracle gradients `∂L/∂px`, `∂L/∂faces`, `∂L/∂col` given
/// `seed = ∂L/∂img`.
///
/// Per pixel, with scores `s_f = (r² − dist²_f)/σ` and `a = softmax(s)`:
/// writing `b_f = Σ_c seed[p,c]·col[f,c]` and `ā = Σ_f a_f·b_f`,
///
/// * `∂L/∂col[f,c] += a_f · seed[p,c]`
/// * `∂s_f = a_f · (b_f − ā)`, `∂dist²_f = −∂s_f/σ`
/// * `∂L/∂px[p,t] += ∂dist²_f · 2(px[p,t] − faces[f,t])` and the negation
///   for `faces`.
pub fn reference_grad(p: &Params, inputs: &Inputs, seed: &TensorVal) -> Inputs {
    let (px, faces, col) = (&inputs["px"], &inputs["faces"], &inputs["col"]);
    let (pp, ff, ch) = (p.pixels(), p.n_faces, p.channels);
    let sigma = p.sigma as f64;
    let mut dpx = vec![0.0f64; pp * 2];
    let mut dfaces = vec![0.0f64; ff * 2];
    let mut dcol = vec![0.0f64; ff * ch];
    for pi in 0..pp {
        let scores: Vec<f64> = (0..ff)
            .map(|f| {
                let mut d = 0.0;
                for t in 0..2 {
                    let diff =
                        px.get_flat(pi * 2 + t).as_f64() - faces.get_flat(f * 2 + t).as_f64();
                    d += diff * diff;
                }
                (p.r2 as f64 - d) / sigma
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        let attn: Vec<f64> = scores.iter().map(|s| (s - m).exp() / den).collect();
        let b: Vec<f64> = (0..ff)
            .map(|f| {
                (0..ch)
                    .map(|c| {
                        seed.get_flat(pi * ch + c).as_f64() * col.get_flat(f * ch + c).as_f64()
                    })
                    .sum()
            })
            .collect();
        let abar: f64 = attn.iter().zip(&b).map(|(a, b)| a * b).sum();
        for f in 0..ff {
            for c in 0..ch {
                dcol[f * ch + c] += attn[f] * seed.get_flat(pi * ch + c).as_f64();
            }
            let ds = attn[f] * (b[f] - abar);
            let dd2 = -ds / sigma;
            for t in 0..2 {
                let diff = px.get_flat(pi * 2 + t).as_f64() - faces.get_flat(f * 2 + t).as_f64();
                dpx[pi * 2 + t] += dd2 * 2.0 * diff;
                dfaces[f * 2 + t] -= dd2 * 2.0 * diff;
            }
        }
    }
    let to_val = |shape: &[usize], v: Vec<f64>| {
        TensorVal::from_f32(shape, v.into_iter().map(|x| x as f32).collect())
    };
    let mut m = Inputs::new();
    m.insert("px.grad".to_string(), to_val(&[pp, 2], dpx));
    m.insert("faces.grad".to_string(), to_val(&[ff, 2], dfaces));
    m.insert("col.grad".to_string(), to_val(&[ff, ch], dcol));
    m
}

/// Handles to the baseline's leaf tensors.
pub struct OpbaseHandles {
    /// Face centers handle.
    pub faces: Tensor,
    /// Face colors handle.
    pub col: Tensor,
    /// Rendered image handle.
    pub img: Tensor,
}

/// Operator-based implementation: materialize the full pixel×face distance
/// matrix via `dist² = |p|² + |c|² − 2·P·Cᵀ`, then softmax and a matmul with
/// the color matrix — whole-tensor operators all the way (with the P×F
/// intermediates the fine-grained version never allocates).
///
/// # Errors
///
/// Propagates operator shape/memory errors.
pub fn opbase(s: &Session, p: &Params, inputs: &Inputs) -> Result<OpbaseHandles, OpError> {
    let px = s.tensor(inputs["px"].clone())?;
    let faces = s.tensor(inputs["faces"].clone())?;
    let col = s.tensor(inputs["col"].clone())?;
    // |p|^2 per pixel and |c|^2 per face.
    let px2 = s.mul(&px, &px)?;
    let p2 = s.sum_dim(&px2, 1)?; // [P]
    let f2t = s.mul(&faces, &faces)?;
    let c2 = s.sum_dim(&f2t, 1)?; // [F]
                                  // -2 P C^T.
    let ct = s.transpose2d(&faces)?;
    let pc = s.matmul(&px, &ct)?; // [P, F]
    let m2 = s.scale(&pc, -2.0)?;
    let with_p2 = s.add_col(&m2, &p2)?;
    let dist2 = s.add_row(&with_p2, &c2)?;
    // score = (r2 - dist2) / sigma.
    let neg = s.scale(&dist2, -1.0 / p.sigma as f64)?;
    let r2v = vec![p.r2 / p.sigma; p.n_faces];
    let bias = s.tensor(TensorVal::from_f32(&[p.n_faces], r2v))?;
    let score = s.add_row(&neg, &bias)?;
    let attn = s.softmax_dim(&score, 1)?;
    let img = s.matmul(&attn, &col)?;
    Ok(OpbaseHandles { faces, col, img })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_runtime::Runtime;
    use std::collections::HashMap;

    #[test]
    fn freetensor_grad_matches_operator_grad() {
        let p = Params::small();
        let ins = inputs(&p, 19);
        let seed = TensorVal::from_f32(
            &[p.pixels(), p.channels],
            vec![1.0; p.pixels() * p.channels],
        );
        let g = program(&p)
            .grad(&ft_autodiff::GradOptions {
                wrt: Some(vec!["faces".to_string(), "col".to_string()]),
                ..Default::default()
            })
            .unwrap();
        let rt = Runtime::new();
        let mut seeded = ins.clone();
        seeded.insert("img.grad".to_string(), seed.clone());
        let r = g.run(&rt, &seeded, &HashMap::new()).unwrap();
        let s = Session::cpu();
        s.set_grad_mode(true);
        let h = opbase(&s, &p, &ins).unwrap();
        let grads = s.backward(&h.img, seed).unwrap();
        for (name, handle) in [("faces", &h.faces), ("col", &h.col)] {
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
