//! Graph Attention Network layer (paper §6.1).
//!
//! For each node `i`, attention scores over its CSR neighbors are
//! softmax-normalized and used to mix neighbor features — fine-grained
//! computation with *data-dependent loop bounds* (`rowptr[i]..rowptr[i+1]`)
//! and indirect feature access, the pattern TVM failed to build (paper
//! Table 2's ICE entries) and DGL serves with dedicated sparse kernels.

use crate::{data, Inputs};
use freetensor_core::Program;
use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::{Scalar, TensorVal};

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of graph nodes.
    pub n_nodes: usize,
    /// Neighbors per node (regular synthetic graph).
    pub degree: usize,
    /// Feature dimension.
    pub feat_len: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_nodes: 512,
            degree: 8,
            feat_len: 32,
        }
    }
}

impl Params {
    /// A small instance for tests.
    pub fn small() -> Params {
        Params {
            n_nodes: 16,
            degree: 3,
            feat_len: 4,
        }
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.n_nodes * self.degree
    }
}

/// Synthetic inputs: features `h[N, F]`, per-node score halves `el[N]`,
/// `er[N]`, and the CSR structure `rowptr[N+1]`, `colidx[E]`.
pub fn inputs(p: &Params, seed: u64) -> Inputs {
    let (rowptr, colidx) = data::csr_graph(p.n_nodes, p.degree, seed ^ 0x6A7);
    let mut m = Inputs::new();
    m.insert(
        "h".to_string(),
        data::features(&[p.n_nodes, p.feat_len], seed),
    );
    m.insert("el".to_string(), data::features(&[p.n_nodes], seed + 1));
    m.insert("er".to_string(), data::features(&[p.n_nodes], seed + 2));
    m.insert("rowptr".to_string(), rowptr);
    m.insert("colidx".to_string(), colidx);
    m
}

/// The FreeTensor DSL source. Loop bounds are loaded from `rowptr` — the
/// data-dependent control flow a free-form language expresses directly.
pub fn source(p: &Params) -> String {
    format!(
        r#"
def gat(h: f32[{n}, {f}] in, el: f32[{n}] in, er: f32[{n}] in, rowptr: i32[{n1}] in, colidx: i32[{e}] in, y: f32[{n}, {f}] out):
  for i in range({n}):
    m = create_var((), "f32", "cpu")
    m = -inf
    for j in range(rowptr[i], rowptr[i + 1]):
      m max= el[i] + er[colidx[j]]
    den = create_var((), "f32", "cpu")
    for j2 in range(rowptr[i], rowptr[i + 1]):
      den += exp(el[i] + er[colidx[j2]] - m)
    for j3 in range(rowptr[i], rowptr[i + 1]):
      for c in range({f}):
        y[i, c] += exp(el[i] + er[colidx[j3]] - m) / den * h[colidx[j3], c]
"#,
        n = p.n_nodes,
        n1 = p.n_nodes + 1,
        e = p.edges(),
        f = p.feat_len
    )
}

/// Compile the FreeTensor program.
pub fn program(p: &Params) -> Program {
    Program::compile(&source(p), "gat").expect("gat source compiles")
}

/// Reference implementation.
pub fn reference(p: &Params, inputs: &Inputs) -> TensorVal {
    let (h, el, er) = (&inputs["h"], &inputs["el"], &inputs["er"]);
    let (rowptr, colidx) = (&inputs["rowptr"], &inputs["colidx"]);
    let (n, f) = (p.n_nodes, p.feat_len);
    let mut y = TensorVal::zeros(ft_ir::DataType::F32, &[n, f]);
    for i in 0..n {
        let lo = rowptr.get_flat(i).as_i64() as usize;
        let hi = rowptr.get_flat(i + 1).as_i64() as usize;
        let scores: Vec<f64> = (lo..hi)
            .map(|e| {
                let j = colidx.get_flat(e).as_i64() as usize;
                el.get_flat(i).as_f64() + er.get_flat(j).as_f64()
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        for (k, e) in (lo..hi).enumerate() {
            let j = colidx.get_flat(e).as_i64() as usize;
            let a = (scores[k] - m).exp() / den;
            for c in 0..f {
                let cur = y.get_flat(i * f + c).as_f64();
                y.set_flat(
                    i * f + c,
                    Scalar::Float(cur + a * h.get_flat(j * f + c).as_f64()),
                );
            }
        }
    }
    y
}

/// Plain-Rust oracle gradients `∂L/∂h`, `∂L/∂el`, `∂L/∂er` given
/// `seed = ∂L/∂y`.
///
/// Per node `i`, with edge scores `s_j = el[i] + er[colidx[j]]` and
/// `a = softmax(s)` over the CSR row: writing
/// `b_j = Σ_c seed[i,c]·h[colidx[j],c]` and `ā = Σ_j a_j·b_j`,
///
/// * `∂L/∂h[colidx[j],c] += a_j · seed[i,c]`
/// * `∂s_j = a_j · (b_j − ā)`
/// * `∂L/∂el[i] += Σ_j ∂s_j`, `∂L/∂er[colidx[j]] += ∂s_j`.
pub fn reference_grad(p: &Params, inputs: &Inputs, seed: &TensorVal) -> Inputs {
    let (h, el, er) = (&inputs["h"], &inputs["el"], &inputs["er"]);
    let (rowptr, colidx) = (&inputs["rowptr"], &inputs["colidx"]);
    let (n, f) = (p.n_nodes, p.feat_len);
    let mut dh = vec![0.0f64; n * f];
    let mut del = vec![0.0f64; n];
    let mut der = vec![0.0f64; n];
    for (i, del_i) in del.iter_mut().enumerate() {
        let lo = rowptr.get_flat(i).as_i64() as usize;
        let hi = rowptr.get_flat(i + 1).as_i64() as usize;
        let scores: Vec<f64> = (lo..hi)
            .map(|e| {
                let j = colidx.get_flat(e).as_i64() as usize;
                el.get_flat(i).as_f64() + er.get_flat(j).as_f64()
            })
            .collect();
        let m = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let den: f64 = scores.iter().map(|s| (s - m).exp()).sum();
        let attn: Vec<f64> = scores.iter().map(|s| (s - m).exp() / den).collect();
        let b: Vec<f64> = (lo..hi)
            .map(|e| {
                let j = colidx.get_flat(e).as_i64() as usize;
                (0..f)
                    .map(|c| seed.get_flat(i * f + c).as_f64() * h.get_flat(j * f + c).as_f64())
                    .sum()
            })
            .collect();
        let abar: f64 = attn.iter().zip(&b).map(|(a, b)| a * b).sum();
        for (k, e) in (lo..hi).enumerate() {
            let j = colidx.get_flat(e).as_i64() as usize;
            for c in 0..f {
                dh[j * f + c] += attn[k] * seed.get_flat(i * f + c).as_f64();
            }
            let ds = attn[k] * (b[k] - abar);
            *del_i += ds;
            der[j] += ds;
        }
    }
    let mut m = Inputs::new();
    m.insert(
        "h.grad".to_string(),
        TensorVal::from_f32(&[n, f], dh.into_iter().map(|x| x as f32).collect()),
    );
    m.insert(
        "el.grad".to_string(),
        TensorVal::from_f32(&[n], del.into_iter().map(|x| x as f32).collect()),
    );
    m.insert(
        "er.grad".to_string(),
        TensorVal::from_f32(&[n], der.into_iter().map(|x| x as f32).collect()),
    );
    m
}

/// DGL-style implementation: edge gathers, segment softmax, and a weighted
/// segment sum — dedicated sparse kernels, each materializing edge-sized
/// intermediates (forward only, as in the paper's evaluation).
///
/// # Errors
///
/// Propagates operator shape/memory errors.
pub fn opbase(s: &Session, p: &Params, inputs: &Inputs) -> Result<Tensor, OpError> {
    let h = s.tensor(inputs["h"].clone())?;
    let el = s.tensor(inputs["el"].clone())?;
    let er = s.tensor(inputs["er"].clone())?;
    let rowptr = s.tensor(inputs["rowptr"].clone())?;
    let colidx = s.tensor(inputs["colidx"].clone())?;
    let e = p.edges();
    // Edge scores: el[src(e)] + er[dst(e)].
    let el_e = s.expand_by_segment(&el, &rowptr, e)?;
    let er_e = s.index_select(&er, &colidx)?;
    let scores = s.add(&el_e, &er_e)?;
    // Segment softmax.
    let seg_max = s.segment_max(&scores, &rowptr)?;
    let max_e = s.expand_by_segment(&seg_max, &rowptr, e)?;
    let shifted = s.sub(&scores, &max_e)?;
    let exp_e = s.exp(&shifted)?;
    let den = s.segment_sum(&exp_e, &rowptr)?;
    let den_e = s.expand_by_segment(&den, &rowptr, e)?;
    let attn = s.div(&exp_e, &den_e)?;
    // Weighted neighbor mix.
    let gathered = s.gather_rows(&h, &colidx)?;
    s.segment_weighted_sum(&attn, &gathered, &rowptr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_autoschedule::Target;
    use ft_runtime::Runtime;

    #[test]
    fn freetensor_beats_dgl_on_kernel_count() {
        // The paper: "we can implement more computations in fewer kernels".
        let p = Params::small();
        let ins = inputs(&p, 29);
        let s = Session::gpu();
        let _ = opbase(&s, &p, &ins).unwrap();
        let dgl_kernels = s.counters().kernel_launches;
        let rt = Runtime::new();
        let r = program(&p)
            .optimize(&Target::gpu())
            .run(&rt, &crate::input_pairs(&ins), &[])
            .unwrap();
        assert!(
            r.counters.kernel_launches < dgl_kernels,
            "FreeTensor {} vs DGL-style {}",
            r.counters.kernel_launches,
            dgl_kernels
        );
    }
}
