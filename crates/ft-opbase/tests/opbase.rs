//! Forward-correctness and gradient checks for the operator baseline.

use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::TensorVal;

fn t(s: &Session, shape: &[usize], seed: u64) -> Tensor {
    let n: usize = shape.iter().product();
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let data: Vec<f32> = (0..n)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state as f64 / u64::MAX as f64) * 2.0 - 1.0) as f32
        })
        .collect();
    s.tensor(TensorVal::from_f32(shape, data)).unwrap()
}

#[test]
fn elementwise_chain() {
    let s = Session::cpu();
    let a = t(&s, &[8], 1);
    let b = t(&s, &[8], 2);
    let c = s.add(&a, &b).unwrap();
    let d = s.mul(&c, &a).unwrap();
    let e = s.relu(&d).unwrap();
    for i in 0..8 {
        let expect = ((a.val().get_flat(i).as_f64() + b.val().get_flat(i).as_f64())
            * a.val().get_flat(i).as_f64())
        .max(0.0);
        assert!((e.val().get_flat(i).as_f64() - expect).abs() < 1e-5);
    }
}

#[test]
fn softmax_rows_sum_to_one() {
    let s = Session::cpu();
    let a = t(&s, &[3, 5], 3);
    let y = s.softmax_dim(&a, 1).unwrap();
    for r in 0..3 {
        let sum: f64 = (0..5).map(|c| y.val().get_flat(r * 5 + c).as_f64()).sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }
}

#[test]
fn matmul_and_transpose() {
    let s = Session::cpu();
    let a = t(&s, &[3, 4], 4);
    let b = t(&s, &[4, 2], 5);
    let c = s.matmul(&a, &b).unwrap();
    let reference = ft_runtime::libkernel::matmul_reference(a.val(), b.val(), 3, 4, 2);
    assert!(c.val().allclose(&reference, 1e-4));
    let at = s.transpose2d(&a).unwrap();
    assert_eq!(at.shape(), &[4, 3]);
    assert_eq!(
        at.val().get_flat(2 * 3 + 1).as_f64(),
        a.val().get_flat(4 + 2).as_f64()
    );
}

#[test]
fn subdivnet_rearrangement_ops() {
    // Fig. 2's step structure: index_select -> reshape -> cat(slice) -> sub
    // -> abs -> sum_dim.
    let s = Session::cpu();
    let e = t(&s, &[6, 4], 7); // features
    let adj = s
        .tensor(TensorVal::from_i32(
            &[6, 3],
            vec![1, 2, 3, 0, 2, 4, 0, 1, 5, 0, 4, 5, 1, 3, 5, 2, 3, 4],
        ))
        .unwrap();
    let flat = s.reshape(&adj, &[18]).unwrap();
    let adj_feat3 = s.index_select(&e, &flat).unwrap();
    let adj_feat = s.reshape(&adj_feat3, &[6, 3, 4]).unwrap();
    let tail = s.slice(&adj_feat, 1, 1, 3).unwrap();
    let head = s.slice(&adj_feat, 1, 0, 1).unwrap();
    let reordered = s.cat(&[&tail, &head], 1).unwrap();
    let diff = s.sub(&adj_feat, &reordered).unwrap();
    let absd = s.abs(&diff).unwrap();
    let y = s.sum_dim(&absd, 1).unwrap();
    assert_eq!(y.shape(), &[6, 4]);
    // Spot-check one element against the direct fine-grained formula.
    let ev = e.val();
    let face = 2usize;
    let neigh = [0usize, 1, 5];
    let mut expect = 0.0;
    for j in 0..3 {
        let a = ev.get_flat(neigh[j] * 4).as_f64();
        let b = ev.get_flat(neigh[(j + 1) % 3] * 4).as_f64();
        expect += (a - b).abs();
    }
    assert!((y.val().get_flat(face * 4).as_f64() - expect).abs() < 1e-5);
}

#[test]
fn unfold_window_zero_pads() {
    let s = Session::cpu();
    let k = s
        .tensor(TensorVal::from_f32(&[3, 2], vec![1., 2., 3., 4., 5., 6.]))
        .unwrap();
    let win = s.unfold_window(&k, 1).unwrap();
    assert_eq!(win.shape(), &[3, 3, 2]);
    // Row 0, offset -1 is out of range: zeros.
    assert_eq!(win.val().get_flat(0).as_f64(), 0.0);
    // Row 0, offset 0 is K[0].
    assert_eq!(win.val().get_flat(2).as_f64(), 1.0);
    // Row 0, offset +1 is K[1].
    assert_eq!(win.val().get_flat(4).as_f64(), 3.0);
}

/// Central-difference gradcheck through an op chain built by `f`.
fn opcheck(shapes: &[&[usize]], f: impl Fn(&Session, &[Tensor]) -> Tensor, tol: f64) {
    // Baseline inputs.
    let mk = |vals: &[Vec<f32>]| -> (Session, Vec<Tensor>) {
        let s = Session::cpu();
        let ts: Vec<Tensor> = vals
            .iter()
            .zip(shapes)
            .map(|(v, sh)| s.tensor(TensorVal::from_f32(sh, v.clone())).unwrap())
            .collect();
        (s, ts)
    };
    let base: Vec<Vec<f32>> = shapes
        .iter()
        .enumerate()
        .map(|(k, sh)| {
            let n: usize = sh.iter().product();
            (0..n)
                .map(|i| ((i + k * 7) as f32 * 0.37).sin() * 0.8)
                .collect()
        })
        .collect();
    // Analytic gradients.
    let (s, ts) = mk(&base);
    s.set_grad_mode(true);
    let out = f(&s, &ts);
    let loss = s.sum_all(&out).unwrap();
    let grads = s
        .backward(&loss, TensorVal::from_f32(&[], vec![1.0]))
        .unwrap();
    // Finite differences.
    let eps = 1e-3f32;
    for (k, sh) in shapes.iter().enumerate() {
        let n: usize = sh.iter().product();
        let analytic = grads
            .get(&ts[k].id())
            .unwrap_or_else(|| panic!("no grad for input {k}"));
        for i in 0..n {
            let mut plus = base.clone();
            plus[k][i] += eps;
            let (sp, tp) = mk(&plus);
            let op = f(&sp, &tp);
            let lp: f64 = op.val().to_f64_vec().iter().sum();
            let mut minus = base.clone();
            minus[k][i] -= eps;
            let (sm, tm) = mk(&minus);
            let om = f(&sm, &tm);
            let lm: f64 = om.val().to_f64_vec().iter().sum();
            let fd = (lp - lm) / (2.0 * eps as f64);
            let an = analytic.get_flat(i).as_f64();
            assert!(
                (fd - an).abs() <= tol * (1.0 + fd.abs()),
                "input {k} elem {i}: analytic {an}, fd {fd}"
            );
        }
    }
}

#[test]
fn gradcheck_elementwise_and_reduce() {
    opcheck(
        &[&[6], &[6]],
        |s, ts| {
            let c = s.mul(&ts[0], &ts[1]).unwrap();
            let d = s.sigmoid(&c).unwrap();
            let e = s.exp(&d).unwrap();
            s.scale(&e, 0.5).unwrap()
        },
        1e-2,
    );
}

#[test]
fn gradcheck_matmul_softmax() {
    opcheck(
        &[&[3, 4], &[4, 2]],
        |s, ts| {
            let c = s.matmul(&ts[0], &ts[1]).unwrap();
            s.softmax_dim(&c, 1).unwrap()
        },
        1e-2,
    );
}

#[test]
fn gradcheck_subdivnet_chain() {
    opcheck(
        &[&[4, 3]],
        |s, ts| {
            let adj = s
                .tensor(TensorVal::from_i32(
                    &[4, 3],
                    vec![1, 2, 3, 0, 2, 3, 0, 1, 3, 0, 1, 2],
                ))
                .unwrap();
            let flat = s.reshape(&adj, &[12]).unwrap();
            let gathered = s.index_select(&ts[0], &flat).unwrap();
            let af = s.reshape(&gathered, &[4, 3, 3]).unwrap();
            let tail = s.slice(&af, 1, 1, 3).unwrap();
            let head = s.slice(&af, 1, 0, 1).unwrap();
            let re = s.cat(&[&tail, &head], 1).unwrap();
            let d = s.sub(&af, &re).unwrap();
            // |x| is non-smooth; square instead for a clean FD check.
            let sq = s.mul(&d, &d).unwrap();
            s.sum_dim(&sq, 1).unwrap()
        },
        1e-2,
    );
}

#[test]
fn gradcheck_longformer_chain() {
    opcheck(
        &[&[5, 3], &[5, 3], &[5, 3]],
        |s, ts| {
            let kwin = s.unfold_window(&ts[1], 1).unwrap();
            let vwin = s.unfold_window(&ts[2], 1).unwrap();
            let dot = s.bmm_qk(&ts[0], &kwin).unwrap();
            let attn = s.softmax_dim(&dot, 1).unwrap();
            s.bmm_av(&attn, &vwin).unwrap()
        },
        1e-2,
    );
}

#[test]
fn grad_mode_retains_intermediates() {
    // With gradients on, intermediates stay live (larger peak) — the
    // baseline behaviour behind the paper's OOM columns.
    let peak = |grad: bool| -> u64 {
        let s = Session::cpu();
        s.set_grad_mode(grad);
        let a = t(&s, &[1024], 1);
        let mut x = a.clone();
        for _ in 0..8 {
            x = s.exp(&x).unwrap();
        }
        s.counters().peak_bytes["cpu"]
    };
    let without = peak(false);
    let with = peak(true);
    assert!(
        with > 2 * without,
        "grad-mode peak {with} should far exceed no-grad peak {without}"
    );
}

#[test]
fn shape_errors_are_reported() {
    let s = Session::cpu();
    let a = t(&s, &[4], 1);
    let b = t(&s, &[5], 2);
    assert!(matches!(s.add(&a, &b), Err(OpError::Shape(_))));
    let m = t(&s, &[2, 3], 3);
    assert!(matches!(s.matmul(&m, &m), Err(OpError::Shape(_))));
}

#[test]
fn segment_ops_match_direct_computation() {
    // CSR: rowptr [0,2,5], colidx [1,2, 0,1,2]; vals per edge.
    let s = Session::cpu();
    let rowptr = s.tensor(TensorVal::from_i32(&[3], vec![0, 2, 5])).unwrap();
    let vals = s
        .tensor(TensorVal::from_f32(&[5], vec![1.0, 3.0, -2.0, 5.0, 4.0]))
        .unwrap();
    let mx = s.segment_max(&vals, &rowptr).unwrap();
    assert_eq!(mx.val().to_f64_vec(), vec![3.0, 5.0]);
    let sm = s.segment_sum(&vals, &rowptr).unwrap();
    assert_eq!(sm.val().to_f64_vec(), vec![4.0, 7.0]);
    let per_node = s
        .tensor(TensorVal::from_f32(&[2], vec![10.0, 20.0]))
        .unwrap();
    let exp = s.expand_by_segment(&per_node, &rowptr, 5).unwrap();
    assert_eq!(exp.val().to_f64_vec(), vec![10.0, 10.0, 20.0, 20.0, 20.0]);
    let feats = s
        .tensor(TensorVal::from_f32(
            &[5, 2],
            (0..10).map(|x| x as f32).collect(),
        ))
        .unwrap();
    let w = s
        .tensor(TensorVal::from_f32(&[5], vec![1.0, 0.5, 2.0, 0.0, 1.0]))
        .unwrap();
    let y = s.segment_weighted_sum(&w, &feats, &rowptr).unwrap();
    // node 0: 1*[0,1] + 0.5*[2,3] = [1, 2.5]; node 1: 2*[4,5] + 0 + 1*[8,9].
    assert_eq!(y.val().to_f64_vec(), vec![1.0, 2.5, 16.0, 19.0]);
}

#[test]
fn add_row_and_add_col_broadcast() {
    let s = Session::cpu();
    let m = s
        .tensor(TensorVal::from_f32(&[2, 3], vec![0.0; 6]))
        .unwrap();
    let row = s
        .tensor(TensorVal::from_f32(&[3], vec![1.0, 2.0, 3.0]))
        .unwrap();
    let col = s
        .tensor(TensorVal::from_f32(&[2], vec![10.0, 20.0]))
        .unwrap();
    let a = s.add_row(&m, &row).unwrap();
    assert_eq!(a.val().to_f64_vec(), vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    let b = s.add_col(&a, &col).unwrap();
    assert_eq!(
        b.val().to_f64_vec(),
        vec![11.0, 12.0, 13.0, 21.0, 22.0, 23.0]
    );
}
