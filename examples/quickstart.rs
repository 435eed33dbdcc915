//! Quickstart: compile a FreeTensor DSL program, auto-schedule it for CPU,
//! run it on the instrumented runtime, and inspect the counters.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use freetensor::autoschedule::Target;
use freetensor::core::Program;
use freetensor::runtime::{Runtime, TensorVal};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A fine-grained tensor program: a 1-D stencil with a boundary guard —
    // the kind of partial-tensor access operator frameworks struggle with.
    let src = r#"
def blur(x: f32[256] in, y: f32[256] out):
  for i in range(256):
    acc = create_var((), "f32", "cpu")
    for k in range(-1, 2):
      if i + k >= 0 and i + k < 256:
        acc += x[i + k]
    y[i] = acc / 3.0
"#;
    let program = Program::compile(src, "blur")?;
    println!("== unscheduled IR ==\n{}", program.func());

    // Rule-based auto-scheduling (paper §4.3).
    let fast = program.optimize(&Target::cpu());
    println!("== auto-scheduled IR ==\n{}", fast.func());

    // Execute.
    let x = TensorVal::from_f32(&[256], (0..256).map(|i| (i as f32 * 0.1).sin()).collect());
    let rt = Runtime::new();
    let inputs = HashMap::from([("x".to_string(), x)]);
    let result = fast.run(&rt, &inputs, &HashMap::new())?;
    println!("y[0..4] = {:?}", &result.output("y").to_f64_vec()[..4]);
    println!(
        "counters: {} flops, {} DRAM bytes, {:.0} modeled cycles",
        result.counters.flops, result.counters.dram_bytes, result.counters.modeled_cycles
    );
    Ok(())
}
