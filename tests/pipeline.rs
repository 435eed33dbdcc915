//! Cross-crate integration: full pipeline per workload — parse, inline,
//! partially evaluate, auto-schedule (CPU and GPU), execute, and compare
//! against the plain-Rust oracle and the operator baseline.

use freetensor::autoschedule::Target;
use freetensor::opbase::Session;
use freetensor::runtime::Runtime;
use freetensor::workloads::{gat, longformer, softras, subdivnet};
use std::collections::HashMap;

#[test]
fn subdivnet_pipeline() {
    let p = subdivnet::Params {
        n_faces: 48,
        in_feats: 6,
    };
    let ins = subdivnet::inputs(&p, 1);
    let oracle = subdivnet::reference(&p, &ins);
    let rt = Runtime::new();
    let prog = subdivnet::program(&p);
    for target in [Target::cpu(), Target::gpu()] {
        let r = prog
            .optimize(&target)
            .run(&rt, &ins, &HashMap::new())
            .unwrap();
        assert!(r.output("y").allclose(&oracle, 1e-4));
    }
    let s = Session::cpu();
    let y = subdivnet::opbase(&s, &p, &ins).unwrap();
    assert!(y.val().allclose(&oracle, 1e-4));
}

#[test]
fn longformer_pipeline() {
    let p = longformer::Params {
        seq_len: 20,
        w: 3,
        feat_len: 6,
    };
    let ins = longformer::inputs(&p, 2);
    let oracle = longformer::reference(&p, &ins);
    let rt = Runtime::new();
    let prog = longformer::program(&p);
    for target in [Target::cpu(), Target::gpu()] {
        let r = prog
            .optimize(&target)
            .run(&rt, &ins, &HashMap::new())
            .unwrap();
        assert!(r.output("y").allclose(&oracle, 1e-3));
    }
}

#[test]
fn softras_pipeline() {
    let p = softras::Params::small();
    let ins = softras::inputs(&p, 3);
    let oracle = softras::reference(&p, &ins);
    let rt = Runtime::new();
    let r = softras::program(&p)
        .optimize(&Target::gpu())
        .run(&rt, &ins, &HashMap::new())
        .unwrap();
    assert!(r.output("img").allclose(&oracle, 1e-3));
}

#[test]
fn gat_pipeline() {
    let p = gat::Params::small();
    let ins = gat::inputs(&p, 4);
    let oracle = gat::reference(&p, &ins);
    let rt = Runtime::new();
    for target in [Target::cpu(), Target::gpu()] {
        let r = gat::program(&p)
            .optimize(&target)
            .run(&rt, &ins, &HashMap::new())
            .unwrap();
        assert!(r.output("y").allclose(&oracle, 1e-3));
    }
}

#[test]
fn headline_claims_hold_at_test_scale() {
    // The paper's central claims, checked end-to-end: fewer kernels, less
    // DRAM traffic, smaller footprint than the operator baseline.
    let p = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let ins = subdivnet::inputs(&p, 5);
    let rt = Runtime::new();
    let ft = subdivnet::program(&p)
        .optimize(&Target::gpu())
        .run(&rt, &ins, &HashMap::new())
        .unwrap();
    let s = Session::gpu();
    let _ = subdivnet::opbase(&s, &p, &ins).unwrap();
    let ob = s.counters();
    assert!(ft.counters.kernel_launches < ob.kernel_launches);
    assert!(ft.counters.dram_bytes < ob.dram_bytes);
    assert!(ft.counters.modeled_cycles < ob.modeled_cycles);
    assert!(ft.counters.peak_bytes["gpu"] < ob.peak_bytes["gpu"]);
}
