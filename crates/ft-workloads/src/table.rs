//! The one table of the evaluation: the paper's four workloads (§6.1) at
//! the three problem sizes this repository runs them at. Everything that
//! enumerates workloads — the conformance sweeps, the figure binaries, the
//! replayed schedule traces — asks this table instead of matching on a
//! workload itself.

use crate::{gat, longformer, softras, subdivnet, Inputs};
use freetensor_core::Program;
use ft_opbase::{OpError, Session, Tensor};
use ft_runtime::TensorVal;

/// One of the paper's four irregular workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Indirect adjacency + circular difference (paper Fig. 2).
    Subdivnet,
    /// Sliding-window attention with boundary guards (Fig. 1/5).
    Longformer,
    /// Per pixel–face geometric scoring.
    Softras,
    /// CSR neighbor softmax with data-dependent loop bounds.
    Gat,
}

/// Problem size class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Each module's `Params::small()`: what the differential tests run.
    Test,
    /// Reduced shapes where a kernel takes microseconds (CI figures, and
    /// the shapes the recorded `*-cpu-small.json` schedule traces were
    /// recorded at).
    Small,
    /// Paper-like shapes scaled to the simulator: each `Params::default()`.
    Full,
}

impl Scale {
    /// Stable lower-case name (`BENCH.json`, schedule file names).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

impl Workload {
    /// All workloads, in the paper's order.
    pub const ALL: [Workload; 4] = [
        Workload::Subdivnet,
        Workload::Longformer,
        Workload::Softras,
        Workload::Gat,
    ];

    /// Stable lower-case name: repro and schedule files, CLI arguments, the
    /// DSL entry point.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Subdivnet => "subdivnet",
            Workload::Longformer => "longformer",
            Workload::Softras => "softras",
            Workload::Gat => "gat",
        }
    }

    /// The paper's spelling, for printed tables and `BENCH.json`.
    pub fn display(self) -> &'static str {
        match self {
            Workload::Subdivnet => "SubdivNet",
            Workload::Longformer => "Longformer",
            Workload::Softras => "SoftRas",
            Workload::Gat => "GAT",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Name of the output tensor the oracle predicts.
    pub fn output(self) -> &'static str {
        match self {
            Workload::Softras => "img",
            _ => "y",
        }
    }

    /// Whether the gradient study (Fig. 16(b), Fig. 18) covers it: the paper
    /// leaves GAT out (§6.2), the operator baseline has no backward for its
    /// CSR gather. The DSL program itself differentiates, and
    /// [`Instance::reference_grad`] covers all four.
    pub fn differentiable(self) -> bool {
        self != Workload::Gat
    }

    /// The workload at `scale`.
    pub fn at(self, scale: Scale) -> Instance {
        match self {
            Workload::Subdivnet => Instance::Subdivnet(match scale {
                Scale::Test => subdivnet::Params::small(),
                Scale::Small => subdivnet::Params {
                    n_faces: 128,
                    in_feats: 8,
                },
                Scale::Full => subdivnet::Params::default(),
            }),
            Workload::Longformer => Instance::Longformer(match scale {
                Scale::Test => longformer::Params::small(),
                Scale::Small => longformer::Params {
                    seq_len: 96,
                    w: 8,
                    feat_len: 16,
                },
                Scale::Full => longformer::Params::default(),
            }),
            Workload::Softras => Instance::Softras(match scale {
                Scale::Test => softras::Params::small(),
                Scale::Small => softras::Params {
                    h: 12,
                    w: 12,
                    n_faces: 12,
                    channels: 3,
                    ..softras::Params::default()
                },
                Scale::Full => softras::Params::default(),
            }),
            Workload::Gat => Instance::Gat(match scale {
                Scale::Test => gat::Params::small(),
                Scale::Small => gat::Params {
                    n_nodes: 64,
                    degree: 4,
                    feat_len: 8,
                },
                Scale::Full => gat::Params::default(),
            }),
        }
    }
}

/// A workload with its problem sizes fixed ([`Workload::at`]).
#[derive(Debug, Clone, Copy)]
pub enum Instance {
    /// [`subdivnet`] at these sizes.
    Subdivnet(subdivnet::Params),
    /// [`longformer`] at these sizes.
    Longformer(longformer::Params),
    /// [`softras`] at these sizes.
    Softras(softras::Params),
    /// [`gat`] at these sizes.
    Gat(gat::Params),
}

/// `$body` with `$m` bound to the instance's module and `$p` to its sizes,
/// for the functions every module spells alike.
macro_rules! in_module {
    ($inst:expr, $m:ident, $p:ident => $body:expr) => {
        match $inst {
            Instance::Subdivnet($p) => {
                use subdivnet as $m;
                $body
            }
            Instance::Longformer($p) => {
                use longformer as $m;
                $body
            }
            Instance::Softras($p) => {
                use softras as $m;
                $body
            }
            Instance::Gat($p) => {
                use gat as $m;
                $body
            }
        }
    };
}

impl Instance {
    /// Which workload this is.
    pub fn workload(&self) -> Workload {
        match self {
            Instance::Subdivnet(_) => Workload::Subdivnet,
            Instance::Longformer(_) => Workload::Longformer,
            Instance::Softras(_) => Workload::Softras,
            Instance::Gat(_) => Workload::Gat,
        }
    }

    /// The unscheduled FreeTensor program.
    pub fn program(&self) -> Program {
        in_module!(self, m, p => m::program(p))
    }

    /// Synthetic inputs drawn from `seed`.
    pub fn inputs(&self, seed: u64) -> Inputs {
        in_module!(self, m, p => m::inputs(p, seed))
    }

    /// Plain-Rust oracle value of [`Workload::output`].
    pub fn reference(&self, inputs: &Inputs) -> TensorVal {
        in_module!(self, m, p => m::reference(p, inputs))
    }

    /// Plain-Rust oracle gradient: `{x}.grad` for every differentiable
    /// input, given the seed `∂L/∂output`.
    pub fn reference_grad(&self, inputs: &Inputs, seed: &TensorVal) -> Inputs {
        in_module!(self, m, p => m::reference_grad(p, inputs, seed))
    }

    /// The operator-based implementation on `s`; returns the handle of the
    /// output (what `Session::backward` starts from).
    ///
    /// # Errors
    ///
    /// Propagates operator shape/memory errors.
    pub fn opbase(&self, s: &Session, inputs: &Inputs) -> Result<Tensor, OpError> {
        match self {
            Instance::Subdivnet(p) => subdivnet::opbase(s, p, inputs),
            Instance::Longformer(p) => longformer::opbase(s, p, inputs).map(|h| h.y),
            Instance::Softras(p) => softras::opbase(s, p, inputs).map(|h| h.img),
            Instance::Gat(p) => gat::opbase(s, p, inputs),
        }
    }

    /// Shape of [`Workload::output`] (and of its gradient seed).
    pub fn output_shape(&self) -> Vec<usize> {
        match self {
            Instance::Subdivnet(p) => vec![p.n_faces, p.in_feats],
            Instance::Longformer(p) => vec![p.seq_len, p.feat_len],
            Instance::Softras(p) => vec![p.pixels(), p.channels],
            Instance::Gat(p) => vec![p.n_nodes, p.feat_len],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_autoschedule::Target;
    use ft_runtime::Runtime;
    use std::collections::HashMap;

    #[test]
    fn every_workload_at_every_scale() {
        let test_scale = [
            Instance::Subdivnet(subdivnet::Params::small()),
            Instance::Longformer(longformer::Params::small()),
            Instance::Softras(softras::Params::small()),
            Instance::Gat(gat::Params::small()),
        ];
        for (w, small) in Workload::ALL.into_iter().zip(test_scale) {
            assert_eq!(Workload::from_name(w.name()), Some(w));
            assert_eq!(w.differentiable(), w != Workload::Gat, "{}", w.name());
            assert_eq!(format!("{:?}", w.at(Scale::Test)), format!("{small:?}"));
            for scale in [Scale::Test, Scale::Small, Scale::Full] {
                let inst = w.at(scale);
                assert_eq!(inst.workload(), w);
                let naive = inst.program();
                assert_eq!(naive.func().name, w.name());
                let out = naive.func().params.iter().find(|p| p.name == w.output());
                assert!(out.is_some(), "{} has no `{}`", w.name(), w.output());
                if scale != Scale::Test {
                    continue;
                }
                // Every implementation agrees with the oracle, on an output
                // of the shape the table promises: the program as written
                // and under both rule schedules, and the operator baseline.
                let inputs = inst.inputs(7);
                let oracle = inst.reference(&inputs);
                assert_eq!(oracle.shape(), inst.output_shape(), "{}", w.name());
                for target in [None, Some(Target::cpu()), Some(Target::gpu())] {
                    let prog = target.as_ref().map_or(naive.clone(), |t| naive.optimize(t));
                    let r = prog
                        .run(&Runtime::new(), &inputs, &HashMap::new())
                        .unwrap_or_else(|e| panic!("{} on {target:?}: {e:?}", w.name()));
                    let d = r.output(w.output()).max_abs_diff(&oracle);
                    assert!(
                        d < 1e-4,
                        "{} on {target:?}: off by {d}\n{}",
                        w.name(),
                        prog.func()
                    );
                }
                let s = Session::cpu();
                let d = inst
                    .opbase(&s, &inputs)
                    .unwrap()
                    .val()
                    .max_abs_diff(&oracle);
                assert!(d < 1e-4, "{}: operator baseline off by {d}", w.name());
            }
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
