//! Cross-crate AD integration: workload gradients against finite
//! differences, and policy equivalence (FT(-) ≡ FT(+) numerically).

use freetensor::autodiff::{GradOptions, TapePolicy};
use freetensor::autoschedule::Target;
use freetensor::ir::{BinaryOp, Expr, Stmt, StmtKind};
use freetensor::runtime::{Runtime, Scalar, TensorVal};
use freetensor::workloads::{data, longformer, subdivnet, Inputs, Scale, Workload};
use ft_conformance::diff::{grad_close, reduction_depth, GradTol};
use ft_passes::hoist::{any_node, invariant, LoopNames};
use std::collections::HashMap;

fn loss_of(
    prog: &freetensor::core::Program,
    inputs: &HashMap<String, TensorVal>,
    out: &str,
) -> f64 {
    let rt = Runtime::new();
    let r = prog.run(&rt, inputs, &HashMap::new()).unwrap();
    r.output(out).to_f64_vec().iter().sum()
}

#[test]
fn longformer_gradient_matches_finite_differences() {
    let p = longformer::Params {
        seq_len: 8,
        w: 2,
        feat_len: 3,
    };
    let inputs = longformer::inputs(&p, 55);
    let prog = longformer::program(&p);
    let grad = prog.grad(&GradOptions::default()).unwrap();
    let seed = TensorVal::from_f32(&[p.seq_len, p.feat_len], vec![1.0; p.seq_len * p.feat_len]);
    let mut seeded = inputs.clone();
    seeded.insert("y.grad".to_string(), seed);
    let analytic = grad.run(&Runtime::new(), &seeded, &HashMap::new()).unwrap();
    let eps = 1e-3;
    for name in ["Q", "K", "V"] {
        let g = analytic.output(&format!("{name}.grad"));
        let base = inputs[name].clone();
        // Probe a handful of elements (full FD is quadratic).
        for i in [0usize, 3, 7, 11, base.numel() - 1] {
            let mut plus = inputs.clone();
            let mut t = base.clone();
            t.set_flat(i, Scalar::Float(base.get_flat(i).as_f64() + eps));
            plus.insert(name.to_string(), t);
            let mut minus = inputs.clone();
            let mut t = base.clone();
            t.set_flat(i, Scalar::Float(base.get_flat(i).as_f64() - eps));
            minus.insert(name.to_string(), t);
            let fd = (loss_of(&prog, &plus, "y") - loss_of(&prog, &minus, "y")) / (2.0 * eps);
            let an = g.get_flat(i).as_f64();
            assert!(
                (fd - an).abs() < 1e-2 * (1.0 + fd.abs()),
                "{name}[{i}]: analytic {an} vs fd {fd}"
            );
        }
    }
}

#[test]
fn tape_policies_agree_numerically() {
    let p = subdivnet::Params {
        n_faces: 32,
        in_feats: 4,
    };
    let inputs = subdivnet::inputs(&p, 77);
    let prog = subdivnet::program(&p);
    let seed = TensorVal::from_f32(&[p.n_faces, p.in_feats], vec![1.0; p.n_faces * p.in_feats]);
    let rt = Runtime::new();
    let mut results = Vec::new();
    for policy in [TapePolicy::All, TapePolicy::Selective] {
        let grad = prog
            .grad(&GradOptions {
                policy,
                ..Default::default()
            })
            .unwrap();
        let mut seeded = inputs.clone();
        seeded.insert("y.grad".to_string(), seed.clone());
        let r = grad.run(&rt, &seeded, &HashMap::new()).unwrap();
        results.push(r.output("e.grad").clone());
    }
    assert!(
        results[0].allclose(&results[1], 1e-6),
        "FT(-) and FT(+) gradients must be numerically identical"
    );
}

#[test]
fn grad_of_optimized_program_matches_grad_of_naive() {
    // AD before scheduling vs after: both orders must agree (AD is an AST
    // transform; schedules preserve semantics).
    let p = subdivnet::Params {
        n_faces: 24,
        in_feats: 3,
    };
    let inputs = subdivnet::inputs(&p, 88);
    let prog = subdivnet::program(&p);
    let seed = TensorVal::from_f32(&[p.n_faces, p.in_feats], vec![1.0; p.n_faces * p.in_feats]);
    let rt = Runtime::new();
    let grad_then_opt = prog
        .grad(&GradOptions::default())
        .unwrap()
        .optimize(&freetensor::autoschedule::Target::cpu());
    let grad_plain = prog.grad(&GradOptions::default()).unwrap();
    let mut seeded = inputs.clone();
    seeded.insert("y.grad".to_string(), seed);
    let a = grad_plain.run(&rt, &seeded, &HashMap::new()).unwrap();
    let b = grad_then_opt.run(&rt, &seeded, &HashMap::new()).unwrap();
    assert!(a.output("e.grad").allclose(b.output("e.grad"), 1e-5));
}

/// `Σ seed ⊙ output` of the forward program on the interpreter.
fn weighted_loss(
    prog: &freetensor::core::Program,
    inputs: &Inputs,
    out: &str,
    seed: &TensorVal,
) -> f64 {
    let r = prog.run(&Runtime::new(), inputs, &HashMap::new()).unwrap();
    let (y, s) = (r.output(out).to_f64_vec(), seed.to_f64_vec());
    y.iter().zip(&s).map(|(y, s)| y * s).sum()
}

#[test]
fn the_ad_decisions_move_no_forward_bit_and_no_gradient() {
    // What `grad_with` decides before it differentiates — which values get
    // a name, which backward loops keep the forward order — shows in the
    // last bits of the gradients only. Per workload and tape policy: the
    // forward outputs of the gradient function are the program's own, bit
    // for bit; the gradients are the oracle's, and a central difference
    // along one random direction through all inputs agrees with them.
    for w in Workload::ALL {
        let inst = w.at(Scale::Test);
        let inputs = inst.inputs(41);
        let prog = inst.program();
        let out = w.output();
        let forward = prog.run(&Runtime::new(), &inputs, &HashMap::new()).unwrap();
        let seed = data::features(&inst.output_shape(), 43);
        let oracle = inst.reference_grad(&inputs, &seed);
        let mut with_seed = inputs.clone();
        with_seed.insert(format!("{out}.grad"), seed.clone());
        for policy in [TapePolicy::All, TapePolicy::Selective] {
            let opts = GradOptions {
                policy,
                ..Default::default()
            };
            let g = prog.grad(&opts).unwrap();
            let what = format!("{} under {policy:?}", w.name());
            let r = g.run(&Runtime::new(), &with_seed, &HashMap::new()).unwrap();
            assert_eq!(
                r.output(out),
                forward.output(out),
                "forward output of {what}"
            );
            let scale = (1 + reduction_depth(g.func())) as f64;
            for (name, want) in &oracle {
                grad_close(r.output(name), want, &GradTol::default(), scale)
                    .unwrap_or_else(|e| panic!("`{name}` of {what}: off by {e:e}"));
            }
            // d/dh L(x + h·d) at 0 is Σ x.grad ⊙ d. The step is read back
            // from the perturbed f32 inputs, so the direction is the one
            // actually taken.
            let h = 2e-4;
            let (mut plus, mut minus) = (inputs.clone(), inputs.clone());
            let mut analytic = 0.0;
            let mut names: Vec<&String> = oracle.keys().collect();
            names.sort();
            for (k, name) in names.into_iter().enumerate() {
                let x = name.strip_suffix(".grad").unwrap();
                let d = data::features(inputs[x].shape(), 47 + k as u64).to_f64_vec();
                let grad = r.output(name).to_f64_vec();
                for (i, d) in d.iter().enumerate() {
                    let x0 = inputs[x].get_flat(i).as_f64();
                    plus.get_mut(x)
                        .unwrap()
                        .set_flat(i, Scalar::Float(x0 + h * d));
                    minus
                        .get_mut(x)
                        .unwrap()
                        .set_flat(i, Scalar::Float(x0 - h * d));
                    let step = plus[x].get_flat(i).as_f64() - minus[x].get_flat(i).as_f64();
                    analytic += grad[i] * step / (2.0 * h);
                }
            }
            let fd = (weighted_loss(&prog, &plus, out, &seed)
                - weighted_loss(&prog, &minus, out, &seed))
                / (2.0 * h);
            assert!(
                (fd - analytic).abs() <= 5e-3 * (1.0 + fd.abs()),
                "{what}: directional derivative {analytic} vs central difference {fd}"
            );
        }
    }
}

/// The divisions in `s` whose divisor `inv` holds of.
fn divisions(s: &Stmt, inv: &impl Fn(&Expr) -> bool) -> usize {
    let mut found = 0;
    s.walk(&mut |st| {
        let (StmtKind::Store { indices, value, .. } | StmtKind::ReduceTo { indices, value, .. }) =
            &st.kind
        else {
            return;
        };
        for e in indices.iter().chain([value]) {
            any_node(e, &mut |n| {
                found +=
                    usize::from(matches!(n, Expr::Binary { op: BinaryOp::Div, b, .. } if inv(b)));
                false
            });
        }
    });
    found
}

#[test]
fn named_values_cost_no_tape_and_leave_no_invariant_division_in_a_backward_loop() {
    // Full scale, as the benchmark runs them: differentiate, then the rule
    // schedule; the planned peak is that of the lowered function.
    // A named value is two 4-byte scalars in the backward pass (`.b`,
    // `.grad`), registers like every 0-d `CpuStack` def: neither back end
    // keeps one in memory, so the plan gives them no arena slot (they took
    // a 64-byte slot each, and the peaks were 262 336, 662 656 and 12 480
    // bytes, until the scalar lowering made them registers) — and no tape.
    for (w, tapes, peak) in [
        (Workload::Subdivnet, 0, 262_144),
        (Workload::Longformer, 3, 662_464),
        (Workload::Softras, 2, 12_288),
    ] {
        let g = w
            .at(Scale::Full)
            .program()
            .grad(&GradOptions::default())
            .unwrap();
        let scheduled = g.optimize(&Target::cpu());
        let mut defs = Vec::new();
        scheduled.func().body.walk(&mut |s| {
            if let StmtKind::VarDef { name, .. } = &s.kind {
                defs.push(name.clone());
            }
        });
        let taped: Vec<&String> = defs.iter().filter(|n| n.contains(".tape")).collect();
        assert_eq!(taped.len(), tapes, "{}: {taped:?}", w.name());
        assert!(taped.iter().all(|n| !n.starts_with("ad.")), "{taped:?}");
        assert_eq!(
            defs.iter().any(|n| n.starts_with("ad.t")),
            w != Workload::Subdivnet,
            "{}: {defs:?}",
            w.name()
        );
        let (_, plan) = freetensor::codegen::lower_and_plan(scheduled.func(), &HashMap::new());
        assert_eq!(plan.planned_peak_bytes, peak, "{}", w.name());

        // Every innermost loop of the backward pass (it writes an adjoint):
        // no division by something the loop does not change. That is what
        // the names are for — `x / den` once per row, not once per element.
        // As differentiated and as scheduled; the rules unroll SoftRas's
        // three-channel loop into the loop over faces, where one weight per
        // face is the work itself, so there it is a count: 3 divisions per
        // face (the weight, its two adjoints) where the parent commit had 9.
        for (func, face_loop_divisions) in [
            (g.func(), 0),
            (scheduled.func(), if w == Workload::Softras { 3 } else { 0 }),
        ] {
            let names = LoopNames::of(&func.body);
            let (mut k, mut checked) = (0, 0);
            func.body.walk(&mut |s| {
                let StmtKind::For { body: lp, .. } = &s.kind else {
                    return;
                };
                let scope = names.scope(k);
                k += 1;
                let mut backward = false;
                lp.walk(&mut |st| {
                    backward |=
                        matches!(&st.kind, StmtKind::ReduceTo { var, .. } if var.contains(".grad"));
                });
                if scope.innermost && backward {
                    checked += 1;
                    // A tensor value, that is: dividing by a literal (the
                    // adjoint of SoftRas's `/ sigma`) is nobody's to hoist.
                    let inv = |e: &Expr| {
                        any_node(e, &mut |n| matches!(n, Expr::Load { .. }))
                            && invariant(e, &|n| names.varies(scope, n))
                    };
                    assert!(
                        divisions(lp, &inv) <= face_loop_divisions,
                        "{}:\n{s}",
                        w.name()
                    );
                }
            });
            assert!(checked > 0, "{}", w.name());
        }
    }
}
