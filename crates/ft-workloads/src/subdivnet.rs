//! SubdivNet's mesh convolution with circular difference (paper §2, Fig. 2).
//!
//! For each face `i` with neighbors `adj[i, 0..3]`, the output feature is
//! the circular difference `Σ_j |e[adj[i,j]] - e[adj[i,(j+1)%3]]|`.

use crate::{data, Inputs};
use freetensor_core::Program;
use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::{Scalar, TensorVal};

/// Problem sizes.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Number of mesh faces.
    pub n_faces: usize,
    /// Feature channels per face.
    pub in_feats: usize,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            n_faces: 1024,
            in_feats: 32,
        }
    }
}

impl Params {
    /// A small instance for tests.
    pub fn small() -> Params {
        Params {
            n_faces: 24,
            in_feats: 5,
        }
    }
}

/// Synthetic inputs: `e[n_faces, in_feats]` features, `adj[n_faces, 3]`.
pub fn inputs(p: &Params, seed: u64) -> Inputs {
    let mut m = Inputs::new();
    m.insert(
        "e".to_string(),
        data::features(&[p.n_faces, p.in_feats], seed),
    );
    m.insert(
        "adj".to_string(),
        data::mesh_adjacency(p.n_faces, seed ^ 0xAD),
    );
    m
}

/// The FreeTensor DSL source (fine-grained, redundancy-free — paper
/// Fig. 3(b)).
///
/// Written the way a careful kernel author would: the output is zeroed
/// explicitly (no reliance on the allocator handing out zeroed memory)
/// and the difference goes through a single scalar temporary `d` declared
/// once per `(i, j)` and reused across channels. The shape is deliberate
/// exercise for the auto-scheduler: the two adjacent `i`-nests are a
/// fusion candidate, and the reused scalar carries a WAR/WAW dependence
/// across the channel loop, so `vectorize(c)` is *rejected* by the
/// dependence engine — the schedule decision log records both.
pub fn source(p: &Params) -> String {
    format!(
        r#"
def subdivnet(e: f32[{f}, {c}] in, adj: i32[{f}, 3] in, y: f32[{f}, {c}] out):
  for i0 in range({f}):
    for c0 in range({c}):
      y[i0, c0] = 0.0
  for i in range({f}):
    for j in range(3):
      d = create_var((), "f32", "cpu")
      for c in range({c}):
        d = e[adj[i, j], c] - e[adj[i, (j + 1) % 3], c]
        y[i, c] += abs(d)
"#,
        f = p.n_faces,
        c = p.in_feats
    )
}

/// Compile the FreeTensor program.
pub fn program(p: &Params) -> Program {
    Program::compile(&source(p), "subdivnet").expect("subdivnet source compiles")
}

/// Reference implementation (plain Rust oracle).
pub fn reference(p: &Params, inputs: &Inputs) -> TensorVal {
    let e = &inputs["e"];
    let adj = &inputs["adj"];
    let mut y = TensorVal::zeros(ft_ir::DataType::F32, &[p.n_faces, p.in_feats]);
    for i in 0..p.n_faces {
        for j in 0..3 {
            let a = adj.get_flat(i * 3 + j).as_i64() as usize;
            let b = adj.get_flat(i * 3 + (j + 1) % 3).as_i64() as usize;
            for c in 0..p.in_feats {
                let d = (e.get_flat(a * p.in_feats + c).as_f64()
                    - e.get_flat(b * p.in_feats + c).as_f64())
                .abs();
                let cur = y.get_flat(i * p.in_feats + c).as_f64();
                y.set_flat(i * p.in_feats + c, Scalar::Float(cur + d));
            }
        }
    }
    y
}

/// Plain-Rust oracle gradient: `∂L/∂e` given `seed = ∂L/∂y`.
///
/// `y[i,c] += |e[a,c] − e[b,c]|` with `a = adj[i,j]`, `b = adj[i,(j+1)%3]`,
/// so each term contributes `±sign(e[a,c] − e[b,c]) · seed[i,c]` to the two
/// endpoints (`sign(0) = 0`, matching the runtimes and the AD `Abs` rule).
pub fn reference_grad(p: &Params, inputs: &Inputs, seed: &TensorVal) -> Inputs {
    let e = &inputs["e"];
    let adj = &inputs["adj"];
    let (n, c) = (p.n_faces, p.in_feats);
    let mut de = vec![0.0f64; n * c];
    for i in 0..n {
        for j in 0..3 {
            let a = adj.get_flat(i * 3 + j).as_i64() as usize;
            let b = adj.get_flat(i * 3 + (j + 1) % 3).as_i64() as usize;
            for ch in 0..c {
                let d = e.get_flat(a * c + ch).as_f64() - e.get_flat(b * c + ch).as_f64();
                let s = if d > 0.0 {
                    1.0
                } else if d < 0.0 {
                    -1.0
                } else {
                    0.0
                };
                let g = s * seed.get_flat(i * c + ch).as_f64();
                de[a * c + ch] += g;
                de[b * c + ch] -= g;
            }
        }
    }
    let mut m = Inputs::new();
    m.insert(
        "e.grad".to_string(),
        TensorVal::from_f32(&[n, c], de.into_iter().map(|v| v as f32).collect()),
    );
    m
}

/// Operator-based implementation (paper Fig. 2(c)):
/// `index_select → reshape → cat(slice, slice) → sub → abs → sum_dim`.
///
/// # Errors
///
/// Propagates operator shape/memory errors.
pub fn opbase(s: &Session, p: &Params, inputs: &Inputs) -> Result<Tensor, OpError> {
    let e = s.tensor(inputs["e"].clone())?;
    let adj = s.tensor(inputs["adj"].clone())?;
    // Step 1: gather all neighbor features (the redundant 3× copy).
    let flat = s.reshape(&adj, &[p.n_faces * 3])?;
    let gathered = s.index_select(&e, &flat)?;
    let adj_feat = s.reshape(&gathered, &[p.n_faces, 3, p.in_feats])?;
    // Step 2: rotate along the neighbor dimension.
    let tail = s.slice(&adj_feat, 1, 1, 3)?;
    let head = s.slice(&adj_feat, 1, 0, 1)?;
    let reordered = s.cat(&[&tail, &head], 1)?;
    // Step 3: |a - b| summed over neighbors.
    let diff = s.sub(&adj_feat, &reordered)?;
    let absd = s.abs(&diff)?;
    s.sum_dim(&absd, 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_autoschedule::Target;
    use ft_runtime::Runtime;
    use std::collections::HashMap;

    #[test]
    fn freetensor_uses_less_traffic_than_opbase() {
        let p = Params::small();
        let ins = inputs(&p, 3);
        let rt = Runtime::new();
        let r = program(&p)
            .optimize(&Target::cpu())
            .run(&rt, &ins, &HashMap::new())
            .unwrap();
        let s = Session::cpu();
        let _ = opbase(&s, &p, &ins).unwrap();
        // The baseline materializes adj_feat (3× features) plus reorder
        // copies: strictly more DRAM traffic.
        assert!(
            s.counters().dram_bytes > r.counters.dram_bytes,
            "opbase {} vs freetensor {}",
            s.counters().dram_bytes,
            r.counters.dram_bytes
        );
    }

    #[test]
    fn gradients_flow_through_both() {
        let p = Params::small();
        let ins = inputs(&p, 9);
        // FreeTensor AD.
        let g = program(&p)
            .grad(&ft_autodiff::GradOptions::default())
            .unwrap();
        let rt = Runtime::new();
        let seed = TensorVal::from_f32(&[p.n_faces, p.in_feats], vec![1.0; p.n_faces * p.in_feats]);
        let mut seeded = ins.clone();
        seeded.insert("y.grad".to_string(), seed.clone());
        let r = g.run(&rt, &seeded, &HashMap::new()).unwrap();
        let ft_grad = r.output("e.grad").clone();
        // Baseline AD over the same chain, keeping the input handle so its
        // gradient can be looked up.
        let s = Session::cpu();
        s.set_grad_mode(true);
        let e = s.tensor(ins["e"].clone()).unwrap();
        let adj = s.tensor(ins["adj"].clone()).unwrap();
        let flat = s.reshape(&adj, &[p.n_faces * 3]).unwrap();
        let gathered = s.index_select(&e, &flat).unwrap();
        let af = s.reshape(&gathered, &[p.n_faces, 3, p.in_feats]).unwrap();
        let tail = s.slice(&af, 1, 1, 3).unwrap();
        let head = s.slice(&af, 1, 0, 1).unwrap();
        let re = s.cat(&[&tail, &head], 1).unwrap();
        let diff = s.sub(&af, &re).unwrap();
        let absd = s.abs(&diff).unwrap();
        let y = s.sum_dim(&absd, 1).unwrap();
        let grads = s.backward(&y, seed).unwrap();
        assert!(
            grads[&e.id()].allclose(&ft_grad, 1e-3),
            "gradient mismatch between FreeTensor AD and operator AD"
        );
    }
}
