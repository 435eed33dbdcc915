//! `ft_passes::simplify` reaches its fixpoint in one pass.
//!
//! Every call the pipeline makes — `Program::compile` (through
//! `from_func`), `grad` and `optimize` of the four benchmark workloads at
//! the small and full scales — and a `simplify` of every schedule the
//! conformance sampler accepts must report one round and at most two
//! control passes in its trace, and simplifying its output again must
//! print the same function.

use freetensor::autodiff::GradOptions;
use freetensor::autoschedule::Target;
use freetensor::core::Program;
use freetensor::ir::Func;
use freetensor::trace::TraceSink;
use freetensor::workloads::{gat, longformer, softras, subdivnet, Instance, Scale, Workload};
use ft_conformance::ops::{apply_trace, sample_trace};
use ft_conformance::Case;
use proptest::test_runner::TestRng;

/// The simplify spans recorded in `sink`: one `simplify` span with
/// `rounds` = 1 and at most two `simplify:control` passes.
fn assert_one_round(what: &str, sink: &TraceSink) {
    let events = sink.events();
    let outer: Vec<_> = events.iter().filter(|e| e.name == "simplify").collect();
    assert_eq!(outer.len(), 1, "{what}: one simplify per call");
    let rounds = outer[0].args.iter().find(|(k, _)| k == "rounds");
    assert_eq!(rounds.map(|(_, v)| v.as_str()), Some("1"), "{what}");
    let controls = events
        .iter()
        .filter(|e| e.name == "simplify:control")
        .count();
    assert!(controls <= 2, "{what}: {controls} control passes");
}

/// `simplify(f)` prints as `f`: `f` is a fixpoint.
fn assert_fixpoint(what: &str, f: &Func) {
    let again = ft_passes::simplify(f.clone(), None);
    assert_eq!(
        again.to_string(),
        f.to_string(),
        "{what}: simplify moved its own output"
    );
}

/// Run `stage` on a fresh sink and hold its one `simplify` call to the
/// contract.
fn checked(what: &str, stage: impl FnOnce(TraceSink) -> Program) -> Program {
    let sink = TraceSink::new();
    let p = stage(sink.clone());
    assert_one_round(what, &sink);
    assert_fixpoint(what, p.func());
    p
}

fn source(inst: &Instance) -> (String, &'static str) {
    match inst {
        Instance::Subdivnet(p) => (subdivnet::source(p), "subdivnet"),
        Instance::Longformer(p) => (longformer::source(p), "longformer"),
        Instance::Softras(p) => (softras::source(p), "softras"),
        Instance::Gat(p) => (gat::source(p), "gat"),
    }
}

#[test]
fn every_pipeline_simplify_is_one_round_to_a_fixpoint() {
    for scale in [Scale::Small, Scale::Full] {
        for w in Workload::ALL {
            let name = format!("{} {scale:?}", w.name());
            let (src, entry) = source(&w.at(scale));
            let fwd = checked(&format!("{name} compile"), |sink| {
                Program::compile_traced(&src, entry, sink).expect("compiles")
            });
            let mut programs = vec![fwd.clone()];
            if w.differentiable() {
                programs.push(checked(&format!("{name} grad"), |sink| {
                    let mut fwd = fwd.clone();
                    fwd.set_sink(Some(sink));
                    fwd.grad(&GradOptions::default()).expect("grad")
                }));
            }
            for (i, mut p) in programs.into_iter().enumerate() {
                checked(&format!("{name} #{i} optimize"), |sink| {
                    p.set_sink(Some(sink));
                    p.optimize(&Target::cpu())
                });
            }
        }
    }
}

#[test]
fn every_accepted_sampled_schedule_simplifies_in_one_round() {
    let mut accepted = 0;
    for (i, w) in Workload::ALL.into_iter().enumerate() {
        let case = Case::build(w, 7);
        let mut rng = TestRng::from_seed_u64(0x5EED + i as u64);
        for k in 0..12 {
            let (scheduled, trace) = apply_trace(&case.func, &sample_trace(&mut rng, 6), None);
            accepted += trace.len();
            let what = format!("{} sample {k} {trace:?}", w.name());
            let sink = TraceSink::new();
            let once = ft_passes::simplify(scheduled, Some(&sink));
            assert_one_round(&what, &sink);
            assert_fixpoint(&what, &once);
        }
    }
    assert!(
        accepted > 4 * 12,
        "the sampler accepted only {accepted} ops"
    );
}

/// `float(i) / float(n)` is a float division: simplifying it must not
/// read the casts as affine and leave the integer division `i / n`. The
/// interpreter holds both to 0.5 at `i` = 1, `n` = 2.
#[test]
fn a_cast_to_float_is_not_affine() {
    use freetensor::ir::prelude::*;
    use freetensor::runtime::{ExecutionEngine, Runtime};
    use std::collections::HashMap;
    let ratio = Expr::cast(DataType::F64, var("i")) / Expr::cast(DataType::F64, var("n"));
    let simplified = ft_passes::simplify_expr(ratio.clone());
    let sizes: HashMap<String, i64> = [("n".to_string(), 2)].into_iter().collect();
    for e in [ratio, simplified] {
        let f = Func::new("ratio")
            .size_param("n")
            .param("y", [1], DataType::F64, AccessType::Output)
            .body(for_("i", 1, 2, store("y", [0], e.clone())));
        let out = Runtime::new()
            .run(&f, &HashMap::new(), &sizes)
            .expect("runs");
        assert_eq!(out.output("y").to_f64_vec(), [0.5], "{e:?}");
    }
}
