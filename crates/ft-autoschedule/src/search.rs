//! The reader of recorded schedule traces.
//!
//! A trace is a list of positional [`ScheduleOp`]s, applied through
//! `ft-schedule`'s dependence-checked primitives
//! ([`ft_schedule::trace::apply_trace`]): an op the legality checks refuse
//! is dropped, so any trace replays to a legal program. The traces under
//! `results/schedules/` were recorded by an evolutionary search that has
//! since been retired (the rule passes of [`auto_schedule`](crate::auto_schedule)
//! are the auto-scheduler); nothing regenerates them. They stay as replay
//! fixtures: [`SavedSchedule::from_json`] reads one, and
//! [`prepare_candidate`] builds its program.

use ft_ir::{Device, Func, MemType};
use ft_schedule::trace::{apply_trace, op_from_json, ScheduleOp};
use ft_trace::JsonVal;

/// Apply `trace` to `base` for `device` and simplify, mirroring
/// `freetensor_core::Program::optimize` (param placement → schedule →
/// simplify). Returns the program and the ops the legality checks accepted.
pub fn prepare_candidate(
    base: &Func,
    device: Device,
    trace: &[ScheduleOp],
) -> (Func, Vec<ScheduleOp>) {
    let mut f = base.clone();
    for p in &mut f.params {
        p.mtype = MemType::default_for(device);
    }
    let (scheduled, accepted) = apply_trace(&f, trace);
    (ft_passes::simplify(&scheduled), accepted)
}

/// A recorded schedule trace: one JSON file per (workload, device,
/// shape class) under `results/schedules/`.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSchedule {
    /// Workload name (bench naming: `subdivnet`, `longformer`, ...).
    pub workload: String,
    /// Device name (`cpu`).
    pub device: String,
    /// Shape class (bench scale key: `full` or `small`).
    pub scale: String,
    /// The recorded trace.
    pub trace: Vec<ScheduleOp>,
}

impl SavedSchedule {
    /// Canonical file name under `results/schedules/`.
    pub fn file_name(workload: &str, device: &str, scale: &str) -> String {
        format!("{workload}-{device}-{scale}.json")
    }

    /// Parse a recorded trace file. Fields other than `workload`,
    /// `device`, `scale` and `trace` are ignored: the committed files also
    /// carry what the search that recorded them measured.
    ///
    /// # Errors
    ///
    /// Names the first missing or malformed field.
    pub fn from_json(s: &str) -> Result<SavedSchedule, String> {
        let v = JsonVal::parse(s)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonVal::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let trace = v
            .get("trace")
            .and_then(JsonVal::as_arr)
            .ok_or("missing `trace` array")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("`trace`: {e}"))?;
        Ok(SavedSchedule {
            workload: str_field("workload")?,
            device: str_field("device")?,
            scale: str_field("scale")?,
            trace,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed trace files: the eight under `results/schedules/` and
    /// the four model-ranked fixtures of the CPU-lowering tests.
    fn committed() -> Vec<std::path::PathBuf> {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        for dir in ["results/schedules", "tests/fixtures/model-ranked-schedules"] {
            for entry in std::fs::read_dir(root.join(dir)).expect("trace directory") {
                let path = entry.expect("directory entry").path();
                if path.extension().is_some_and(|e| e == "json") {
                    files.push(path);
                }
            }
        }
        files.sort();
        files
    }

    #[test]
    fn every_committed_trace_parses_and_a_broken_field_is_named() {
        let files = committed();
        assert_eq!(files.len(), 12, "{files:?}");
        for path in &files {
            let text = std::fs::read_to_string(path).unwrap();
            let saved = SavedSchedule::from_json(&text)
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let name = SavedSchedule::file_name(&saved.workload, &saved.device, &saved.scale);
            assert_eq!(path.file_name().unwrap().to_string_lossy(), name);
            assert!(!saved.trace.is_empty(), "{}", path.display());
        }
        // One committed file, each of its four fields removed or broken in
        // turn. Every other field it carries is ignored, as is one that no
        // version wrote.
        let text = std::fs::read_to_string(&files[0]).unwrap();
        let doc = JsonVal::parse(&text).unwrap();
        let JsonVal::Obj(fields) = &doc else {
            panic!("not an object")
        };
        let edit = |key: &str, value: Option<JsonVal>| {
            let mut out: Vec<_> = fields.iter().filter(|(k, _)| k != key).cloned().collect();
            out.extend(value.map(|v| (key.to_string(), v)));
            JsonVal::Obj(out).to_string()
        };
        let reader_fields = ["workload", "device", "scale", "trace"];
        let only_those = JsonVal::Obj(
            fields
                .iter()
                .filter(|(k, _)| reader_fields.contains(&k.as_str()))
                .cloned()
                .collect(),
        );
        let parsed = SavedSchedule::from_json(&text).unwrap();
        assert_eq!(
            SavedSchedule::from_json(&only_those.to_string()),
            Ok(parsed.clone())
        );
        let future = edit("from_the_future", Some(JsonVal::Arr(vec![JsonVal::Null])));
        assert_eq!(SavedSchedule::from_json(&future), Ok(parsed));
        let unknown_op = JsonVal::Arr(vec![JsonVal::Obj(vec![(
            "op".to_string(),
            JsonVal::Str("interchange".to_string()),
        )])]);
        let broken = [
            ("workload", None),
            ("device", None),
            ("scale", None),
            ("trace", None),
            ("workload", Some(JsonVal::Int(3))),
            ("trace", Some(JsonVal::Str("fuse".to_string()))),
            ("trace", Some(unknown_op)),
        ];
        for (key, value) in broken {
            let what = format!("{key} = {value:?}");
            let err = SavedSchedule::from_json(&edit(key, value)).unwrap_err();
            assert!(err.contains(&format!("`{key}`")), "{what}: {err}");
        }
    }
}
