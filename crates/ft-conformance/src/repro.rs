//! Machine-readable divergence repros: serialization to/from JSON and
//! replay.
//!
//! A repro file is self-contained: the workload name and input seed pin the
//! program and data, the trace pins the schedule. `Repro::replay` re-applies
//! all three and re-runs the differential check, so a CI failure can be
//! reproduced from the artifact alone.

use crate::backend::Backend;
use crate::diff::{Divergence, GradTol};
use crate::grad::{
    fault_from_name, fault_name, grad_setup, policy_from_name, policy_name, GradOrder, GradSpec,
};
use crate::ops::{op_from_json, op_to_json, ScheduleOp};
use crate::shrink::Flaky;
use crate::workload::Case;
use crate::Variant;
use ft_workloads::Workload;
use ft_trace::JsonVal;
use std::io;
use std::path::{Path, PathBuf};

/// A minimized divergence, as written to `results/conformance/*.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Repro {
    /// Workload name ([`Workload::name`]).
    pub workload: String,
    /// Seed the synthetic inputs were drawn with.
    pub input_seed: u64,
    /// Backend that diverged ([`Backend::name`]).
    pub backend: String,
    /// Output tensor the divergence was observed on.
    pub output: String,
    /// Maximum element-wise absolute error observed.
    pub max_abs_err: f64,
    /// Tolerance the comparison used.
    pub tol: f64,
    /// Minimized schedule trace.
    pub trace: Vec<ScheduleOp>,
    /// Compact schedule decision log of the minimized trace (one line per
    /// primitive attempt, `ft_trace::decision_line` format). Informational:
    /// not needed for replay, defaulted to empty on older repro files.
    pub decision_log: Vec<String>,
    /// For gradient-sweep repros: how the grad function was built
    /// (`GradOptions` point + composition order). `None` on forward repros
    /// and on files from before the gradient sweep existed.
    pub grad: Option<GradSpec>,
    /// Relative tolerance term of the gradient contract (`tol` holds the
    /// absolute term). `None` on forward repros.
    pub tol_rel: Option<f64>,
    /// Runtime telemetry of the diverging backend's minimized run (an
    /// `ft-metrics` snapshot: engine wall histograms, compile/cache
    /// counters, pool stats), so a miscompile report carries the runtime
    /// conditions that produced it. Informational: not needed for replay,
    /// `None` on files from before telemetry existed.
    pub metrics: Option<ft_metrics::MetricsSnapshot>,
    /// Set when the minimized trace did not diverge on every one of its
    /// re-runs ([`crate::shrink::recheck`]): the failure is intermittent
    /// (`hits` of `runs`), and `hits == 0` means it stopped reproducing
    /// altogether — the fields above then describe the original sighting.
    /// `None` on deterministic divergences and on older files.
    pub flaky: Option<Flaky>,
}

fn num(n: u64) -> JsonVal {
    JsonVal::Int(n.into())
}

/// `max_abs_err` is infinite on execution-failure divergences, and JSON has
/// no Infinity/NaN tokens — encode non-finite errors as strings.
fn err_to_json(v: f64) -> JsonVal {
    if v.is_finite() {
        JsonVal::Num(v)
    } else if v.is_nan() {
        JsonVal::Str("nan".to_string())
    } else if v > 0.0 {
        JsonVal::Str("inf".to_string())
    } else {
        JsonVal::Str("-inf".to_string())
    }
}

fn err_from_json(v: &JsonVal) -> Option<f64> {
    match v.as_str() {
        Some("inf") => Some(f64::INFINITY),
        Some("-inf") => Some(f64::NEG_INFINITY),
        Some("nan") => Some(f64::NAN),
        Some(_) => None,
        None => v.as_f64(),
    }
}

fn grad_to_json(g: &GradSpec) -> JsonVal {
    let mut fields = vec![
        ("policy".to_string(), JsonVal::Str(policy_name(g.policy).to_string())),
        ("recompute_threshold".to_string(), num(g.recompute_threshold as u64)),
        ("order".to_string(), JsonVal::Str(g.order.name().to_string())),
    ];
    if let Some(f) = g.fault {
        fields.push(("fault".to_string(), JsonVal::Str(fault_name(f).to_string())));
    }
    JsonVal::Obj(fields)
}

fn grad_from_json(v: &JsonVal) -> Result<GradSpec, String> {
    let s = |key: &str| -> Result<&str, String> {
        v.get(key)
            .and_then(JsonVal::as_str)
            .ok_or_else(|| format!("grad object missing `{key}`"))
    };
    let policy = policy_from_name(s("policy")?)
        .ok_or_else(|| format!("unknown tape policy `{}`", s("policy").unwrap()))?;
    let order = GradOrder::from_name(s("order")?)
        .ok_or_else(|| format!("unknown grad order `{}`", s("order").unwrap()))?;
    let recompute_threshold = v
        .get("recompute_threshold")
        .and_then(JsonVal::as_u64)
        .ok_or("grad object missing `recompute_threshold`")? as usize;
    let fault = match v.get("fault").and_then(JsonVal::as_str) {
        None => None,
        Some(name) => {
            Some(fault_from_name(name).ok_or_else(|| format!("unknown AD fault `{name}`"))?)
        }
    };
    Ok(GradSpec {
        policy,
        recompute_threshold,
        order,
        fault,
    })
}

impl Repro {
    /// Serialize to a JSON document.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("workload".to_string(), JsonVal::Str(self.workload.clone())),
            ("input_seed".to_string(), num(self.input_seed)),
            ("backend".to_string(), JsonVal::Str(self.backend.clone())),
            ("output".to_string(), JsonVal::Str(self.output.clone())),
            ("max_abs_err".to_string(), err_to_json(self.max_abs_err)),
            ("tol".to_string(), JsonVal::Num(self.tol)),
            (
                "schedule".to_string(),
                JsonVal::Arr(self.trace.iter().map(op_to_json).collect()),
            ),
            (
                "decision_log".to_string(),
                JsonVal::Arr(
                    self.decision_log
                        .iter()
                        .map(|l| JsonVal::Str(l.clone()))
                        .collect(),
                ),
            ),
        ];
        // Gradient fields are emitted only for gradient repros, so forward
        // repro files are byte-identical to the pre-gradient format.
        if let Some(g) = &self.grad {
            fields.push(("grad".to_string(), grad_to_json(g)));
        }
        if let Some(r) = self.tol_rel {
            fields.push(("tol_rel".to_string(), JsonVal::Num(r)));
        }
        // The telemetry snapshot is emitted only when present, so files
        // from metric-less sweeps are byte-identical to the old format.
        if let Some(m) = &self.metrics {
            fields.push(("metrics".to_string(), ft_trace::metrics_to_json(m)));
        }
        if let Some(f) = self.flaky {
            let counts = vec![
                ("hits".to_string(), num(u64::from(f.hits))),
                ("runs".to_string(), num(u64::from(f.runs))),
            ];
            fields.push(("flaky".to_string(), JsonVal::Obj(counts)));
        }
        JsonVal::Obj(fields).to_string()
    }

    /// Parse back from [`Repro::to_json`] output.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn from_json(s: &str) -> Result<Repro, String> {
        let v = JsonVal::parse(s)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonVal::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonVal::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let trace = v
            .get("schedule")
            .and_then(JsonVal::as_arr)
            .ok_or("missing `schedule` array")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        // Tolerate files from before the decision log existed.
        let decision_log = v
            .get("decision_log")
            .and_then(JsonVal::as_arr)
            .map(|a| {
                a.iter()
                    .filter_map(JsonVal::as_str)
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default();
        // Both gradient fields are optional: absent on forward repros and
        // on files from before the gradient sweep existed.
        let grad = match v.get("grad") {
            None => None,
            Some(g) => Some(grad_from_json(g)?),
        };
        let tol_rel = v.get("tol_rel").and_then(JsonVal::as_f64);
        // Optional telemetry block: absent on pre-metrics files, rejected
        // (not silently dropped) when present but malformed.
        let metrics = match v.get("metrics") {
            None => None,
            Some(m) => Some(
                ft_trace::metrics_from_json(m).map_err(|e| format!("bad `metrics` block: {e}"))?,
            ),
        };
        let flaky = match v.get("flaky") {
            None => None,
            Some(f) => {
                let count = |key: &str| {
                    f.get(key)
                        .and_then(JsonVal::as_u64)
                        .and_then(|n| u32::try_from(n).ok())
                        .ok_or_else(|| format!("bad `flaky` block: missing count `{key}`"))
                };
                Some(Flaky {
                    hits: count("hits")?,
                    runs: count("runs")?,
                })
            }
        };
        Ok(Repro {
            workload: str_field("workload")?,
            input_seed: v
                .get("input_seed")
                .and_then(JsonVal::as_u64)
                .ok_or("missing numeric field `input_seed`")?,
            backend: str_field("backend")?,
            output: str_field("output")?,
            max_abs_err: v
                .get("max_abs_err")
                .and_then(err_from_json)
                .ok_or("missing numeric field `max_abs_err`")?,
            tol: num_field("tol")?,
            trace,
            decision_log,
            grad,
            tol_rel,
            metrics,
            flaky,
        })
    }

    /// Write the repro under `dir`, returning the path.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation and write failures.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        // Gradient repros get the sweep point in the file name so variants
        // of the same (workload, seed, backend) don't clobber each other.
        let grad_tag = self
            .grad
            .as_ref()
            .map(|g| {
                format!(
                    "-grad-{}-t{}-{}{}",
                    policy_name(g.policy),
                    g.recompute_threshold,
                    g.order.name(),
                    g.fault.map(|f| format!("-{}", fault_name(f))).unwrap_or_default()
                )
            })
            .unwrap_or_default();
        let path = dir.join(format!(
            "{}-seed{}-{}{}.json",
            self.workload, self.input_seed, self.backend, grad_tag
        ));
        std::fs::write(&path, self.to_json() + "\n")?;
        Ok(path)
    }

    /// Rebuild the case, re-apply the trace (and, for gradient repros, the
    /// recorded differentiation), and re-run the differential check on the
    /// recorded backend.
    ///
    /// # Errors
    ///
    /// When the workload or backend name is unknown, or a gradient repro's
    /// program no longer differentiates.
    pub fn replay(&self) -> Result<Option<Divergence>, String> {
        let w = Workload::from_name(&self.workload)
            .ok_or_else(|| format!("unknown workload `{}`", self.workload))?;
        let b = Backend::from_name(&self.backend)
            .ok_or_else(|| format!("unknown backend `{}`", self.backend))?;
        let case = Case::build(w, self.input_seed);
        let setup = self.grad.map(|spec| (spec, grad_setup(w, &case)));
        let variant = Variant {
            case: &case,
            grad: setup
                .as_ref()
                .map(|(spec, (inputs, oracle_grads))| (*spec, inputs, oracle_grads)),
            tol: GradTol {
                abs: self.tol,
                rel: self.tol_rel.unwrap_or(0.0),
            },
            backends: &[b],
        };
        let (func, _) = variant.build(&self.trace, None).map_err(|e| e.to_string())?;
        Ok(variant.check(&func))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Repro {
        Repro {
            workload: "gat".to_string(),
            input_seed: 17,
            backend: "reordered".to_string(),
            output: "y".to_string(),
            max_abs_err: 0.375,
            tol: 5e-4,
            trace: vec![
                ScheduleOp::Split {
                    loop_idx: 2,
                    factor: 8,
                },
                ScheduleOp::Fuse {
                    first_idx: 0,
                    second_idx: 1,
                },
                ScheduleOp::Cache {
                    loop_idx: 1,
                    param_idx: 3,
                },
                ScheduleOp::ParallelizeUnchecked { loop_idx: 0 },
            ],
            decision_log: vec![
                "split((2), 8): applied".to_string(),
                "parallelize((0), OpenMp): rejected — loop-carried dependence".to_string(),
            ],
            grad: None,
            tol_rel: None,
            metrics: None,
            flaky: None,
        }
    }

    fn grad_sample() -> Repro {
        use ft_autodiff::{AdFault, TapePolicy};
        Repro {
            output: "h.grad".to_string(),
            grad: Some(GradSpec {
                policy: TapePolicy::All,
                recompute_threshold: 17,
                order: GradOrder::OptThenGrad,
                fault: Some(AdFault::DropTapeVersionBump),
            }),
            tol_rel: Some(1e-3),
            ..sample()
        }
    }

    #[test]
    fn json_roundtrip_preserves_every_op() {
        let r = sample();
        let back = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn write_and_read_back() {
        let dir = std::env::temp_dir().join(format!("ftconf-repro-test-{}", std::process::id()));
        let r = sample();
        let path = r.write(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(Repro::from_json(&text).unwrap(), r);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_json_is_rejected() {
        assert!(Repro::from_json("{}").is_err());
        assert!(Repro::from_json("not json").is_err());
    }

    #[test]
    fn a_repro_naming_a_removed_backend_is_a_structured_replay_error() {
        // Files written before the threaded and child-process backends
        // were deleted still parse; replaying one says what is wrong.
        let mut r = sample();
        r.backend = "threaded".to_string();
        let parsed = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.replay().unwrap_err(), "unknown backend `threaded`");
    }

    #[test]
    fn grad_fields_roundtrip_and_forward_files_stay_unchanged() {
        // A gradient repro preserves the full sweep point through JSON.
        let g = grad_sample();
        let back = Repro::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
        // A fault-free spec omits the `fault` key and still roundtrips.
        let mut no_fault = grad_sample();
        no_fault.grad.as_mut().unwrap().fault = None;
        assert!(!no_fault.to_json().contains("\"fault\""));
        assert_eq!(Repro::from_json(&no_fault.to_json()).unwrap(), no_fault);
        // Forward repros never mention gradient keys (the file format is
        // unchanged for pre-gradient consumers), and files from before the
        // gradient sweep parse with `grad: None`.
        let f = sample();
        let json = f.to_json();
        assert!(!json.contains("\"grad\"") && !json.contains("\"tol_rel\""));
        assert_eq!(Repro::from_json(&json).unwrap().grad, None);
        // A malformed grad object is rejected, not silently dropped.
        let bad = g.to_json().replace("opt-then-grad", "sideways");
        assert!(Repro::from_json(&bad).is_err());
    }

    #[test]
    fn flaky_counts_roundtrip_and_are_absent_when_deterministic() {
        let mut r = sample();
        assert!(!r.to_json().contains("\"flaky\""));
        r.flaky = Some(Flaky { hits: 2, runs: 5 });
        let json = r.to_json();
        assert!(json.contains("\"flaky\""), "{json}");
        assert_eq!(Repro::from_json(&json).unwrap(), r);
        // Present but malformed is rejected, not silently dropped.
        let bad = json.replace("\"hits\"", "\"hit\"");
        assert!(Repro::from_json(&bad).is_err());
    }

    #[test]
    fn infinite_error_repros_roundtrip() {
        // Execution-failure divergences record `max_abs_err: inf`; the file
        // must stay valid JSON and parse back to infinity (found by the
        // gradient sweep: a backend execution error produced an unparseable
        // repro).
        let mut r = sample();
        r.max_abs_err = f64::INFINITY;
        let json = r.to_json();
        let back = Repro::from_json(&json).unwrap();
        assert_eq!(back.max_abs_err, f64::INFINITY);
        assert_eq!(back, r);
        r.max_abs_err = f64::NAN;
        let back = Repro::from_json(&r.to_json()).unwrap();
        assert!(back.max_abs_err.is_nan());
    }

    #[test]
    fn grad_repro_filename_encodes_the_sweep_point() {
        let dir = std::env::temp_dir().join(format!("ftconf-gradrepro-{}", std::process::id()));
        let g = grad_sample();
        let path = g.write(&dir).unwrap();
        let name = path.file_name().unwrap().to_string_lossy().to_string();
        assert!(
            name.contains("grad-all-t17-opt-then-grad-drop-tape-version-bump"),
            "{name}"
        );
        assert_eq!(Repro::from_json(&std::fs::read_to_string(&path).unwrap()).unwrap(), g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_block_roundtrips_and_is_optional() {
        // A metric-less repro never mentions the key, so pre-telemetry
        // consumers see an unchanged format.
        let plain = sample();
        assert!(!plain.to_json().contains("\"metrics\""));
        assert_eq!(Repro::from_json(&plain.to_json()).unwrap().metrics, None);
        // A repro carrying telemetry round-trips it exactly.
        let m = ft_metrics::Metrics::new();
        m.counter("compiled.cache.hit").add(2);
        m.counter("compiled.cc.spawned").inc();
        m.gauge("compiled.cache.size_bytes").set(4096);
        m.histogram("engine.compiled.run_us").record(137);
        let mut with = sample();
        with.metrics = Some(m.snapshot());
        let back = Repro::from_json(&with.to_json()).unwrap();
        assert_eq!(back, with);
        let snap = back.metrics.unwrap();
        assert_eq!(snap.counter("compiled.cc.spawned"), 1);
        assert_eq!(snap.histograms["engine.compiled.run_us"].count, 1);
        // A malformed telemetry block is rejected, not silently dropped
        // (a counter is a u64; -1 is not).
        let bad = with
            .to_json()
            .replace("\"compiled.cc.spawned\": 1", "\"compiled.cc.spawned\": -1");
        assert!(Repro::from_json(&bad).is_err());
    }

    #[test]
    fn decision_log_roundtrips_and_old_files_parse() {
        let r = sample();
        let back = Repro::from_json(&r.to_json()).unwrap();
        assert_eq!(back.decision_log, r.decision_log);
        // A pre-decision-log file (no such key) still parses, with an
        // empty log.
        let mut old = r.clone();
        old.decision_log.clear();
        let json = old.to_json().replace(
            "\"decision_log\"",
            "\"ignored_legacy_key\"",
        );
        let parsed = Repro::from_json(&json).unwrap();
        assert!(parsed.decision_log.is_empty());
        assert_eq!(parsed.trace, r.trace);
    }
}
