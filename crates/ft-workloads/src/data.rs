//! Synthetic input generators.
//!
//! The paper evaluates on real meshes, documents, 3-D models and graphs; the
//! kernels' control flow depends only on sizes and adjacency *structure*,
//! so seeded synthetic data with matched shapes exercises identical code
//! paths (see the substitution table in `DESIGN.md`).

use ft_runtime::TensorVal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniform features in `[-1, 1]`.
pub fn features(shape: &[usize], seed: u64) -> TensorVal {
    let mut rng = StdRng::seed_from_u64(seed);
    let n: usize = shape.iter().product();
    TensorVal::from_f32(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

/// A valid 3-regular mesh adjacency: each face `i` names three *distinct*
/// neighbor faces, none equal to `i`.
pub fn mesh_adjacency(n_faces: usize, seed: u64) -> TensorVal {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut adj = Vec::with_capacity(n_faces * 3);
    for i in 0..n_faces {
        let mut picked: Vec<i32> = Vec::with_capacity(3);
        while picked.len() < 3 {
            let c = rng.gen_range(0..n_faces) as i32;
            if c != i as i32 && !picked.contains(&c) {
                picked.push(c);
            }
        }
        adj.extend(picked);
    }
    TensorVal::from_i32(&[n_faces, 3], adj)
}

/// A CSR graph where every node has exactly `deg` distinct neighbors.
/// Returns `(rowptr[n+1], colidx[n*deg])` as i32 tensors.
pub fn csr_graph(n: usize, deg: usize, seed: u64) -> (TensorVal, TensorVal) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rowptr = Vec::with_capacity(n + 1);
    let mut colidx = Vec::with_capacity(n * deg);
    rowptr.push(0i32);
    for i in 0..n {
        let mut picked: Vec<i32> = Vec::with_capacity(deg);
        while picked.len() < deg {
            let c = rng.gen_range(0..n) as i32;
            if c != i as i32 && !picked.contains(&c) {
                picked.push(c);
            }
        }
        picked.sort_unstable();
        colidx.extend(picked);
        rowptr.push(colidx.len() as i32);
    }
    (
        TensorVal::from_i32(&[n + 1], rowptr),
        TensorVal::from_i32(&[n * deg], colidx),
    )
}

/// Pixel-center coordinates of an `h × w` grid, normalized to `[0, 1]²`,
/// flattened to `[h*w, 2]`.
pub fn pixel_grid(h: usize, w: usize) -> TensorVal {
    let mut data = Vec::with_capacity(h * w * 2);
    for y in 0..h {
        for x in 0..w {
            data.push((x as f32 + 0.5) / w as f32);
            data.push((y as f32 + 0.5) / h as f32);
        }
    }
    TensorVal::from_f32(&[h * w, 2], data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adjacency_is_valid() {
        let adj = mesh_adjacency(64, 3);
        for i in 0..64 {
            let row: Vec<i64> = (0..3).map(|j| adj.get_flat(i * 3 + j).as_i64()).collect();
            assert!(row.iter().all(|&c| (0..64).contains(&c) && c != i as i64));
            assert_ne!(row[0], row[1]);
            assert_ne!(row[1], row[2]);
            assert_ne!(row[0], row[2]);
        }
    }

    #[test]
    fn csr_shape_invariants() {
        let (rp, ci) = csr_graph(32, 4, 1);
        assert_eq!(rp.numel(), 33);
        assert_eq!(ci.numel(), 128);
        assert_eq!(rp.get_flat(32).as_i64(), 128);
        for i in 0..32 {
            assert_eq!(rp.get_flat(i + 1).as_i64() - rp.get_flat(i).as_i64(), 4);
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(
            features(&[8], 42).to_f64_vec(),
            features(&[8], 42).to_f64_vec()
        );
        assert_ne!(
            features(&[8], 42).to_f64_vec(),
            features(&[8], 43).to_f64_vec()
        );
    }

    #[test]
    fn pixel_grid_covers_unit_square() {
        let g = pixel_grid(4, 4);
        let v = g.to_f64_vec();
        assert!(v.iter().all(|&c| c > 0.0 && c < 1.0));
        assert_eq!(g.shape(), &[16, 2]);
    }
}
