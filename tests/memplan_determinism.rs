//! Plan-determinism sweep (nightly CI): the static memory plan must be a
//! pure function of the program. For every workload × sampled
//! legality-checked schedule trace, the variant is rebuilt twice from
//! scratch — fresh `Func`, fresh statement IDs — and both builds must
//! produce bit-identical [`ft_analysis::MemPlan`] hashes. Any leak of
//! global ID allocation, map iteration order, or address-based tie-breaks
//! into packing decisions shows up here long before it silently splits the
//! compiled-kernel artifact cache (the plan hash is part of its key).
//!
//! Budget: `FT_PLAN_SAMPLES` traces per workload (default 8 → 32 plans);
//! the nightly job raises it to 64 → 256.

use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::{Case, Workload};
use proptest::test_runner::TestRng;
use std::collections::HashMap;

#[test]
fn memplan_determinism_sweep() {
    let samples: usize = std::env::var("FT_PLAN_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);
    let sizes: HashMap<String, i64> = HashMap::new();
    let mut planned = 0usize;
    let mut packed = 0usize;
    for w in Workload::ALL {
        for s in 0..samples {
            let trace = {
                let mut rng = TestRng::from_seed_u64(0x9E3D_0000 + s as u64);
                sample_trace(&mut rng, 6)
            };
            let build = || {
                let case = Case::build(w, 11);
                apply_trace(&case.func, &trace).0
            };
            let p1 = ft_analysis::MemPlan::plan(&build(), &sizes);
            let p2 = ft_analysis::MemPlan::plan(&build(), &sizes);
            assert_eq!(
                p1.plan_hash(),
                p2.plan_hash(),
                "{}[{s}]: same program produced different memory plans\ntrace: {trace:?}",
                w.name()
            );
            assert!(
                p1.planned_peak_bytes <= p1.naive_peak_bytes,
                "{}[{s}]: packing lost to stack discipline ({} > {})",
                w.name(),
                p1.planned_peak_bytes,
                p1.naive_peak_bytes
            );
            planned += 1;
            packed += p1.n_planned();
        }
    }
    eprintln!("memplan determinism: {planned} variants, {packed} packed defs, all hashes stable");
    assert!(packed > 0, "sweep is vacuous — no variant packed any def");
}
