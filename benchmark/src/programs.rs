//! The programs the benchmark runs: the paper's four workloads, forward or
//! differentiated, at small or full scale — their DSL source, seeded inputs,
//! plain-Rust oracle outputs, and the compile pipeline as a sequence of
//! separately timed public calls.

use crate::trace::Recorder;
use freetensor_core::Program;
use ft_analysis::MemPlan;
use ft_autodiff::GradOptions;
use ft_autoschedule::search::{prepare_candidate, SavedSchedule};
use ft_autoschedule::Target;
use ft_runtime::TensorVal;
use ft_workloads::{data, gat, longformer, softras, subdivnet, Inputs};
use std::collections::HashMap;
use std::path::PathBuf;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Prog {
    Subdivnet,
    Longformer,
    Softras,
    Gat,
}

pub const PROGS: [Prog; 4] = [Prog::Subdivnet, Prog::Longformer, Prog::Softras, Prog::Gat];

impl Prog {
    /// Name used in metric names, schedule files and as DSL entry point.
    pub fn name(self) -> &'static str {
        match self {
            Prog::Subdivnet => "subdivnet",
            Prog::Longformer => "longformer",
            Prog::Softras => "softras",
            Prog::Gat => "gat",
        }
    }

    fn output(self) -> &'static str {
        match self {
            Prog::Softras => "img",
            _ => "y",
        }
    }
}

/// How the lowered program is scheduled before it is compiled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sched {
    /// As the frontend lowered it.
    Naive,
    /// `Program::optimize(&Target::cpu())`, the rule-based passes.
    Rules,
    /// The committed `results/schedules/<prog>-cpu-full.json`, replayed.
    Searched,
}

/// One program instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Case {
    pub prog: Prog,
    pub full: bool,
    pub grad: bool,
}

/// Problem sizes: full scale is each workload's `Params::default()` (the
/// sizes `results/BENCH.json` uses); small is the bench crate's small scale,
/// where a kernel takes microseconds and the machinery around it dominates.
enum P {
    Sub(subdivnet::Params),
    Lf(longformer::Params),
    Sr(softras::Params),
    Gat(gat::Params),
}

impl Case {
    pub fn fwd(prog: Prog) -> Case {
        Case {
            prog,
            full: true,
            grad: false,
        }
    }

    pub fn grad(prog: Prog) -> Case {
        Case {
            prog,
            full: true,
            grad: true,
        }
    }

    pub fn small(prog: Prog) -> Case {
        Case {
            prog,
            full: false,
            grad: false,
        }
    }

    /// `longformer`, `longformer.grad`, `longformer.small`.
    pub fn label(&self) -> String {
        let mut s = self.prog.name().to_string();
        if self.grad {
            s.push_str(".grad");
        }
        if !self.full {
            s.push_str(".small");
        }
        s
    }

    fn params(&self) -> P {
        match (self.prog, self.full) {
            (Prog::Subdivnet, true) => P::Sub(subdivnet::Params::default()),
            (Prog::Subdivnet, false) => P::Sub(subdivnet::Params {
                n_faces: 128,
                in_feats: 8,
            }),
            (Prog::Longformer, true) => P::Lf(longformer::Params::default()),
            (Prog::Longformer, false) => P::Lf(longformer::Params {
                seq_len: 96,
                w: 8,
                feat_len: 16,
            }),
            (Prog::Softras, true) => P::Sr(softras::Params::default()),
            (Prog::Softras, false) => P::Sr(softras::Params {
                h: 12,
                w: 12,
                n_faces: 12,
                ..softras::Params::default()
            }),
            (Prog::Gat, true) => P::Gat(gat::Params::default()),
            (Prog::Gat, false) => P::Gat(gat::Params {
                n_nodes: 64,
                degree: 4,
                feat_len: 8,
            }),
        }
    }

    pub fn source(&self) -> String {
        match self.params() {
            P::Sub(p) => subdivnet::source(&p),
            P::Lf(p) => longformer::source(&p),
            P::Sr(p) => softras::source(&p),
            P::Gat(p) => gat::source(&p),
        }
    }

    /// Seeded inputs; a differentiated program also gets the seed tensor
    /// `<output>.grad`, drawn from the same run seed.
    pub fn inputs(&self, seed: u64) -> Inputs {
        let (mut m, out_shape) = match self.params() {
            P::Sub(p) => (subdivnet::inputs(&p, seed), vec![p.n_faces, p.in_feats]),
            P::Lf(p) => (longformer::inputs(&p, seed), vec![p.seq_len, p.feat_len]),
            P::Sr(p) => (softras::inputs(&p, seed), vec![p.pixels(), p.channels]),
            P::Gat(p) => (gat::inputs(&p, seed), vec![p.n_nodes, p.feat_len]),
        };
        if self.grad {
            m.insert(
                format!("{}.grad", self.prog.output()),
                data::features(&out_shape, seed ^ 0x9E37_79B9),
            );
        }
        m
    }

    /// What the plain-Rust reference says the outputs are. Never an engine.
    pub fn oracle(&self, inputs: &Inputs) -> Inputs {
        let out = self.prog.output();
        let seed = inputs.get(&format!("{out}.grad"));
        let (y, grads) = match self.params() {
            P::Sub(p) => (
                subdivnet::reference(&p, inputs),
                seed.map(|s| subdivnet::reference_grad(&p, inputs, s)),
            ),
            P::Lf(p) => (
                longformer::reference(&p, inputs),
                seed.map(|s| longformer::reference_grad(&p, inputs, s)),
            ),
            P::Sr(p) => (
                softras::reference(&p, inputs),
                seed.map(|s| softras::reference_grad(&p, inputs, s)),
            ),
            P::Gat(p) => (
                gat::reference(&p, inputs),
                seed.map(|s| gat::reference_grad(&p, inputs, s)),
            ),
        };
        let mut want = grads.unwrap_or_default();
        want.insert(out.to_string(), y);
        want
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map_or_else(|| PathBuf::from("."), PathBuf::from)
}

/// Where the benchmark writes: `benchmark/out/` (git-ignored).
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn saved_schedule(prog: Prog) -> Result<SavedSchedule, String> {
    let path = repo_root()
        .join("results/schedules")
        .join(SavedSchedule::file_name(prog.name(), "cpu", "full"));
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("schedule file {}: {e}", path.display()))?;
    SavedSchedule::from_json(&text).map_err(|e| format!("schedule file {}: {e}", path.display()))
}

/// Source text → scheduled program, one span per pipeline stage.
pub fn schedule_program(
    case: &Case,
    sched: Sched,
    rec: &mut Recorder,
    op: u64,
) -> Result<Program, String> {
    let src = case.source();
    let o = rec.begin("frontend", op);
    let func = ft_libop::compile_with_libop(&src, case.prog.name());
    rec.end(o);
    let func = func?;
    let o = rec.begin("simplify", op);
    let mut program = Program::from_func(func);
    rec.end(o);
    if case.grad {
        let o = rec.begin("grad", op);
        let g = program.grad(&GradOptions::default());
        rec.end(o);
        program = g.map_err(|e| format!("grad: {e}"))?;
    }
    match sched {
        Sched::Naive => Ok(program),
        Sched::Rules => {
            let o = rec.begin("optimize", op);
            let p = program.optimize(&Target::cpu());
            rec.end(o);
            Ok(p)
        }
        Sched::Searched => {
            let o = rec.begin("replay", op);
            let r = saved_schedule(case.prog).map(|saved| {
                let (func, _) = prepare_candidate(program.func(), ft_ir::Device::Cpu, &saved.trace);
                Program::from_schedule(ft_schedule::Schedule::new(func))
            });
            rec.end(o);
            r
        }
    }
}

/// Exact sizes (and the C text's hash) of what the pipeline produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Emitted {
    pub planned_peak_bytes: u64,
    pub c_bytes: u64,
    pub c_hash: u64,
    pub ir_bytes: u64,
}

impl Emitted {
    pub fn of(program: &Program, planned_peak_bytes: u64, c_text: &str) -> Emitted {
        Emitted {
            planned_peak_bytes,
            c_bytes: c_text.len() as u64,
            c_hash: fnv64(c_text.as_bytes()),
            ir_bytes: program.func().to_string().len() as u64,
        }
    }
}

/// Scheduled program → memory plan + C text (what the engine hands `cc`).
/// Returns the planned arena peak in bytes and the C text.
pub fn emit(program: &Program, rec: &mut Recorder, op: u64) -> (u64, String) {
    let sizes: HashMap<String, i64> = HashMap::new();
    let o = rec.begin("memplan", op);
    let plan = MemPlan::plan(program.func(), &sizes);
    rec.end(o);
    let o = rec.begin("emit_c", op);
    let c = program.emit_c();
    rec.end(o);
    (plan.planned_peak_bytes, c)
}

pub fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Element-wise comparison against the oracle:
/// `|got − want| ≤ 5e-4 + 1e-3·|want|`, every oracle tensor present.
pub fn check(got: &HashMap<String, TensorVal>, want: &Inputs) -> Result<(), String> {
    for (name, w) in want {
        let g = got
            .get(name)
            .ok_or_else(|| format!("output `{name}` missing"))?;
        if g.shape() != w.shape() {
            return Err(format!(
                "output `{name}` has shape {:?}, oracle {:?}",
                g.shape(),
                w.shape()
            ));
        }
        let bad = match (g.f32_data(), w.f32_data()) {
            (Some(g), Some(w)) => {
                first_miss(g.iter().map(|v| *v as f64), w.iter().map(|v| *v as f64))
            }
            _ => first_miss(g.to_f64_vec().into_iter(), w.to_f64_vec().into_iter()),
        };
        if let Some((i, g, w)) = bad {
            return Err(format!("output `{name}`[{i}] = {g}, oracle {w}"));
        }
    }
    Ok(())
}

fn first_miss(
    got: impl Iterator<Item = f64>,
    want: impl Iterator<Item = f64>,
) -> Option<(usize, f64, f64)> {
    got.zip(want)
        .enumerate()
        // NaN on either side must count as a miss, hence no plain `>`.
        .find(|(_, (g, w))| {
            (g - w)
                .abs()
                .partial_cmp(&(5e-4 + 1e-3 * w.abs()))
                .is_none_or(|o| o.is_gt())
        })
        .map(|(i, (g, w))| (i, g, w))
}

/// FNV-1a over the bit patterns of every output, in name order: two runs
/// hash alike exactly when their outputs are bit-identical.
pub fn bits_hash(outputs: &HashMap<String, TensorVal>) -> u64 {
    let mut names: Vec<&String> = outputs.keys().collect();
    names.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for name in names {
        let t = &outputs[name];
        let mut eat = |bits: u64| {
            h ^= bits;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        };
        match t.f32_data() {
            Some(d) => d.iter().for_each(|v| eat(u64::from(v.to_bits()))),
            None => t.to_f64_vec().iter().for_each(|v| eat(v.to_bits())),
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparator_accepts_the_reference_and_rejects_a_perturbation() {
        let case = Case::small(Prog::Subdivnet);
        let inputs = case.inputs(7);
        let want = case.oracle(&inputs);
        assert!(check(&want, &want).is_ok());

        let mut off = want.clone();
        let y = off.get_mut("y").expect("y");
        let v = y.get_flat(3).as_f64();
        y.set_flat(3, ft_runtime::Scalar::Float(v + 1e-2));
        let err = check(&off, &want).expect_err("1e-2 is outside the tolerance");
        assert!(err.contains("`y`[3]"), "{err}");

        let mut missing = want.clone();
        missing.remove("y");
        assert!(check(&missing, &want).is_err());
    }

    #[test]
    fn comparator_rejects_nan() {
        let want: Inputs = [("y".to_string(), TensorVal::from_f32(&[2], vec![1.0, 2.0]))].into();
        let got: Inputs = [(
            "y".to_string(),
            TensorVal::from_f32(&[2], vec![1.0, f32::NAN]),
        )]
        .into();
        assert!(check(&got, &want).is_err());
    }

    #[test]
    fn inputs_follow_the_seed() {
        let case = Case::grad(Prog::Softras);
        let a = case.inputs(1);
        assert_eq!(bits_hash(&a), bits_hash(&case.inputs(1)));
        assert_ne!(bits_hash(&a), bits_hash(&case.inputs(2)));
        assert!(a.contains_key("img.grad"));
        let want = case.oracle(&a);
        for name in ["img", "faces.grad", "col.grad"] {
            assert!(want.contains_key(name), "{name}");
        }
    }

    #[test]
    fn labels_are_metric_safe() {
        assert_eq!(Case::fwd(Prog::Gat).label(), "gat");
        assert_eq!(Case::grad(Prog::Longformer).label(), "longformer.grad");
        assert_eq!(Case::small(Prog::Softras).label(), "softras.small");
    }
}
