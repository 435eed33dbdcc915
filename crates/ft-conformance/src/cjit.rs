//! The codegen backend: wrap `ft_codegen::emit_c` output in a generated
//! `main()`, compile it with the system C compiler, run the binary, and
//! parse the printed outputs back into tensors.
//!
//! Input data is embedded in the generated translation unit as static array
//! initializers (test-scale tensors are small), so the child process needs
//! no I/O protocol beyond printing its outputs.

use ft_ir::{AccessType, DataType, Expr, Func};
use ft_runtime::{
    output_with_timeout, ExecutionEngine, PerfCounters, RunResult, RuntimeError, TensorVal,
};
use ft_trace::TraceSink;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Whether a C compiler (`cc`) is available on `PATH`.
pub use ft_runtime::cc_available;

/// Deadline for one `cc` invocation.
const CC_TIMEOUT: Duration = Duration::from_secs(120);
/// Deadline for one run of the generated binary. A miscompiled infinite
/// loop must not hang a 128-variant sweep; the child is killed and the
/// variant reports a structured `child_timeout` error instead.
const RUN_TIMEOUT: Duration = Duration::from_secs(60);

fn child_timeout_err(what: &str, timeout: Duration) -> String {
    format!(
        "child_timeout: `{what}` exceeded {} ms and was killed",
        timeout.as_millis()
    )
}

/// The process-based codegen backend behind the common
/// [`ExecutionEngine`] trait: compile to a standalone binary, run it as a
/// child, parse its printed outputs. Slower and more isolated than
/// `ft_runtime::CompiledEngine` — useful precisely because a miscompile
/// can only take down the child, not the harness.
#[derive(Debug, Clone, Copy, Default)]
pub struct CjitEngine;

impl ExecutionEngine for CjitEngine {
    fn name(&self) -> &'static str {
        "codegen"
    }

    fn run(
        &self,
        func: &Func,
        inputs: &HashMap<String, TensorVal>,
        sizes: &HashMap<String, i64>,
    ) -> Result<RunResult, RuntimeError> {
        let outputs = run_c(func, inputs, sizes).map_err(RuntimeError::Native)?;
        Ok(RunResult {
            outputs,
            counters: PerfCounters::default(),
        })
    }

    fn set_sink(&mut self, _sink: Option<TraceSink>) {}

    fn sink(&self) -> Option<&TraceSink> {
        None
    }
}

fn ctype(dt: DataType) -> &'static str {
    match dt {
        DataType::F32 => "float",
        DataType::F64 => "double",
        DataType::I32 => "int32_t",
        DataType::I64 => "int64_t",
        DataType::Bool => "bool",
    }
}

/// Evaluate a (constant or size-parameter) shape extent.
fn eval_extent(e: &Expr, sizes: &HashMap<String, i64>) -> Result<i64, String> {
    use ft_ir::BinaryOp::*;
    match e {
        Expr::IntConst(v) => Ok(*v),
        Expr::Var(n) => sizes
            .get(n)
            .copied()
            .ok_or_else(|| format!("unresolved size `{n}` in shape")),
        Expr::Binary { op, a, b } => {
            let x = eval_extent(a, sizes)?;
            let y = eval_extent(b, sizes)?;
            Ok(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                // A zero size-parameter must surface as a shrinkable error,
                // not a div_euclid panic that aborts the whole harness.
                Div if y == 0 => return Err("division by zero in shape extent".to_string()),
                Div => x.div_euclid(y),
                Mod if y == 0 => return Err("division by zero in shape extent".to_string()),
                Mod => x.rem_euclid(y),
                Min => x.min(y),
                Max => x.max(y),
                _ => return Err(format!("unsupported shape operator {op:?}")),
            })
        }
        other => Err(format!("non-constant shape expression {other:?}")),
    }
}

fn literal(dt: DataType, v: f64) -> String {
    if dt.is_float() {
        // `{:e}` keeps full f64 precision via the round-trip guarantee of
        // Rust's float formatting; the C compiler rounds back to float for
        // f32 arrays, recovering the original value exactly.
        format!("{v:e}")
    } else {
        format!("{}", v as i64)
    }
}

/// Compile and run `func`, returning its output tensors.
///
/// # Errors
///
/// Describes the failing stage: shape evaluation, C compilation, child
/// execution, or output parsing.
pub fn run_c(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
) -> Result<HashMap<String, TensorVal>, String> {
    run_c_impl(func, inputs, sizes, false)
}

/// As [`run_c`], but emit the kernel through the memory planner
/// ([`ft_codegen::emit_c_planned`]): planned `VarDef`s live at static
/// offsets in one arena allocation instead of per-def `calloc`s. The driver
/// passes a NULL arena, exercising the kernel's own malloc-fallback path —
/// the same code shape the in-process compiled engine runs cold.
pub fn run_c_planned(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
) -> Result<HashMap<String, TensorVal>, String> {
    run_c_impl(func, inputs, sizes, true)
}

fn run_c_impl(
    func: &Func,
    inputs: &HashMap<String, TensorVal>,
    sizes: &HashMap<String, i64>,
    planned: bool,
) -> Result<HashMap<String, TensorVal>, String> {
    if !cc_available() {
        return Err("no C compiler on PATH".to_string());
    }
    // The emitter disambiguates colliding names (`x.y` vs `x_y`) with
    // suffixes; `c_symbols` re-runs the same mangler so the driver's array
    // declarations line up with the emitted signature, param by param.
    let syms = ft_codegen::c_symbols(func);
    // Resolve every parameter's concrete shape, carrying its C identifier.
    let mut shapes: Vec<(String, String, Vec<usize>, DataType, AccessType)> = Vec::new();
    for (p, ident) in func.params.iter().zip(&syms.params) {
        let sh: Vec<usize> = p
            .shape
            .iter()
            .map(|e| eval_extent(e, sizes).map(|v| v.max(0) as usize))
            .collect::<Result<_, _>>()?;
        shapes.push((p.name.clone(), ident.clone(), sh, p.dtype, p.atype));
    }

    // Generate the translation unit: emitted kernel + main() driver.
    let (lowered, plan) = ft_codegen::lower_and_plan(func, sizes);
    let mut src = if planned {
        ft_codegen::emit_c_planned(&lowered, &plan, false).map(|(src, _)| src)
    } else {
        ft_codegen::emit_c(&lowered)
    }
    .map_err(|e| format!("codegen: {e}"))?;
    src.push_str("\n#include <stdio.h>\n\nint main(void) {\n");
    for (name, c, shape, dtype, atype) in &shapes {
        let n = shape.iter().product::<usize>().max(1);
        match atype {
            AccessType::Input | AccessType::InOut => {
                let t = inputs
                    .get(name)
                    .ok_or_else(|| format!("missing input `{name}`"))?;
                if t.numel() != shape.iter().product::<usize>() {
                    return Err(format!("input `{name}` has wrong element count"));
                }
                let vals: Vec<String> = t
                    .to_f64_vec()
                    .into_iter()
                    .map(|v| literal(*dtype, v))
                    .collect();
                let _ = writeln!(
                    src,
                    "    static {} {c}[{n}] = {{{}}};",
                    ctype(*dtype),
                    vals.join(", ")
                );
            }
            _ => {
                let _ = writeln!(src, "    static {} {c}[{n}];", ctype(*dtype));
            }
        }
    }
    let mut args: Vec<String> = shapes.iter().map(|(_, c, ..)| c.clone()).collect();
    for sp in &func.size_params {
        let v = sizes
            .get(sp)
            .copied()
            .ok_or_else(|| format!("unresolved size `{sp}`"))?;
        args.push(format!("(int64_t){v}"));
    }
    if planned {
        // Planned signatures take the arena pointer last; NULL selects the
        // kernel's internal malloc fallback.
        args.push("(unsigned char*)0".to_string());
    }
    let _ = writeln!(src, "    {}({});", syms.func, args.join(", "));
    for (i, (_, c, shape, dtype, atype)) in shapes.iter().enumerate() {
        if !matches!(atype, AccessType::Output | AccessType::InOut) {
            continue;
        }
        let n = shape.iter().product::<usize>().max(1);
        // Key the output protocol by parameter *position*, not name: two
        // IR names may print identically after C string escaping, while the
        // index is always unambiguous.
        let _ = writeln!(src, "    printf(\"OUT %d %d\\n\", {i}, {n});");
        if dtype.is_float() {
            let _ = writeln!(
                src,
                "    for (int64_t i = 0; i < {n}; ++i) printf(\"%.17g\\n\", (double){c}[i]);"
            );
        } else {
            let _ = writeln!(
                src,
                "    for (int64_t i = 0; i < {n}; ++i) printf(\"%lld\\n\", (long long){c}[i]);"
            );
        }
    }
    src.push_str("    return 0;\n}\n");

    // Unique scratch paths per (process, invocation).
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let tag = format!(
        "ftconf-{}-{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    );
    let dir = std::env::temp_dir();
    let src_path: PathBuf = dir.join(format!("{tag}.c"));
    let bin_path: PathBuf = dir.join(format!("{tag}.bin"));
    std::fs::write(&src_path, &src).map_err(|e| format!("write {}: {e}", src_path.display()))?;
    let cleanup = || {
        let _ = std::fs::remove_file(&src_path);
        let _ = std::fs::remove_file(&bin_path);
    };

    // OpenMP when the toolchain supports it; the pragmas degrade to warnings
    // (sequential execution — still a valid semantics check) otherwise.
    let mut compiled = false;
    let mut last_err = String::new();
    for extra in [&["-fopenmp"][..], &[][..]] {
        let out = output_with_timeout(
            Command::new("cc")
                .arg("-O1")
                .args(extra)
                .arg(&src_path)
                .arg("-o")
                .arg(&bin_path)
                .arg("-lm"),
            CC_TIMEOUT,
        )
        .map_err(|e| {
            cleanup();
            format!("spawn cc: {e}")
        })?;
        if out.timed_out {
            cleanup();
            return Err(child_timeout_err("cc", CC_TIMEOUT));
        }
        if out.status.success() {
            compiled = true;
            break;
        }
        last_err = String::from_utf8_lossy(&out.stderr).into_owned();
    }
    if !compiled {
        cleanup();
        return Err(format!("cc failed:\n{last_err}"));
    }
    let out = output_with_timeout(&mut Command::new(&bin_path), RUN_TIMEOUT).map_err(|e| {
        cleanup();
        format!("run generated binary: {e}")
    })?;
    cleanup();
    if out.timed_out {
        return Err(child_timeout_err(&bin_path.display().to_string(), RUN_TIMEOUT));
    }
    if !out.status.success() {
        return Err(format!("generated binary exited with {:?}", out.status));
    }

    // Parse the "OUT <param-index> <n>" / value-per-line protocol.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let mut lines = stdout.lines();
    let mut outputs = HashMap::new();
    while let Some(header) = lines.next() {
        let mut parts = header.split_whitespace();
        if parts.next() != Some("OUT") {
            return Err(format!("unexpected output line `{header}`"));
        }
        let idx: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "missing output index".to_string())?;
        let n: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "missing output count".to_string())?;
        let (name, _, shape, ..) = shapes
            .get(idx)
            .ok_or_else(|| format!("output index {idx} out of range"))?;
        let mut data = Vec::with_capacity(n);
        for _ in 0..n {
            let line = lines
                .next()
                .ok_or_else(|| format!("truncated output for `{name}`"))?;
            data.push(
                line.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("bad value `{line}` for `{name}`: {e}"))?,
            );
        }
        outputs.insert(name.clone(), TensorVal::from_f64(shape, data));
    }
    Ok(outputs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;

    #[test]
    fn tiny_kernel_roundtrips_through_cc() {
        if !cc_available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        let f = Func::new("scale2")
            .param("x", [4], DataType::F32, AccessType::Input)
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                4,
                store("y", [var("i")], load("x", [var("i")]) * 2.0f32),
            ));
        let x = TensorVal::from_f32(&[4], vec![1.0, -2.5, 3.25, 0.0]);
        let inputs: HashMap<String, TensorVal> =
            [("x".to_string(), x)].into_iter().collect();
        let out = run_c(&f, &inputs, &HashMap::new()).unwrap();
        assert_eq!(out["y"].to_f64_vec(), vec![2.0, -5.0, 6.5, 0.0]);
    }

    #[test]
    fn zero_size_divisor_is_an_error_not_a_panic() {
        let sizes = HashMap::from([("n".to_string(), 4i64), ("z".to_string(), 0i64)]);
        let e = eval_extent(&(var("n") / var("z")), &sizes).unwrap_err();
        assert!(e.contains("division by zero"), "{e}");
        let e = eval_extent(&(var("n") % var("z")), &sizes).unwrap_err();
        assert!(e.contains("division by zero"), "{e}");
    }

    #[test]
    fn colliding_param_names_do_not_shadow() {
        if !cc_available() {
            eprintln!("skipping: no C compiler");
            return;
        }
        // `x.y` and `x_y` sanitize to the same C identifier; before the
        // mangler the driver declared two `static float x_y[...]` arrays
        // and the kernel read whichever shadowed. Each must round-trip its
        // own values.
        let f = Func::new("pick")
            .param("x.y", [2], DataType::F32, AccessType::Input)
            .param("x_y", [2], DataType::F32, AccessType::Input)
            .param("o", [2], DataType::F32, AccessType::Output)
            .body(for_(
                "i",
                0,
                2,
                store(
                    "o",
                    [var("i")],
                    load("x.y", [var("i")]) - load("x_y", [var("i")]),
                ),
            ));
        let inputs: HashMap<String, TensorVal> = [
            ("x.y".to_string(), TensorVal::from_f32(&[2], vec![10.0, 20.0])),
            ("x_y".to_string(), TensorVal::from_f32(&[2], vec![1.0, 2.0])),
        ]
        .into_iter()
        .collect();
        let out = run_c(&f, &inputs, &HashMap::new()).unwrap();
        assert_eq!(out["o"].to_f64_vec(), vec![9.0, 18.0]);
    }
}
