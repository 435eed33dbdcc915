//! Fine-grained AD on the paper's Fig. 15 program, showing the selective
//! intermediate tensor materialization decision (store vs recompute).
//!
//! ```sh
//! cargo run --example autodiff
//! ```

use freetensor::autodiff::{GradOptions, TapePolicy};
use freetensor::core::Program;
use freetensor::runtime::{Runtime, TensorVal};
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Paper Fig. 15(a): t is an intermediate used by two outputs.
    let src = r#"
def fig15(a: f64[64] in, b: f64[64] in, c: f64[64] in, d: f64[64] in, y: f64[64] out, z: f64[64] out):
  for i in range(64):
    t = create_var((), "f64", "cpu")
    t = a[i] * b[i]
    y[i] = t * c[i]
    z[i] = t * d[i]
"#;
    let program = Program::compile(src, "fig15")?;

    let materialized = program.grad(&GradOptions {
        policy: TapePolicy::All,
        ..Default::default()
    })?;
    let selective = program.grad(&GradOptions::default())?;

    println!("== FT(-) — every intermediate materialized (Fig. 15(b)) ==");
    println!(
        "{}",
        materialized
            .func()
            .to_string()
            .lines()
            .filter(|l| l.contains("tape"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    println!("\n== FT(+) — t recomputed in the backward pass (Fig. 15(c)) ==");
    let text = selective.func().to_string();
    assert!(!text.contains("t.tape"), "selective should not tape t");
    println!("(no t.tape anywhere; backward re-emits `t = a[i] * b[i]`)\n");

    // Both produce identical gradients.
    let rt = Runtime::new();
    let mk = |s: u64| {
        TensorVal::from_f64(
            &[64],
            (0..64)
                .map(|i| ((i as f64) * 0.1 + s as f64).sin())
                .collect(),
        )
    };
    let ones = TensorVal::from_f64(&[64], vec![1.0; 64]);
    let inputs: HashMap<String, TensorVal> = [
        ("a", mk(1)),
        ("b", mk(2)),
        ("c", mk(3)),
        ("d", mk(4)),
        ("y.grad", ones.clone()),
        ("z.grad", ones),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    let r_all = materialized.run(&rt, &inputs, &HashMap::new())?;
    let r_sel = selective.run(&rt, &inputs, &HashMap::new())?;
    for g in ["a.grad", "b.grad", "c.grad", "d.grad"] {
        assert!(r_all.output(g).allclose(r_sel.output(g), 1e-12));
    }
    println!(
        "gradients identical; FT(-) peak {}B vs FT(+) peak {}B",
        r_all.counters.peak_bytes["cpu"], r_sel.counters.peak_bytes["cpu"]
    );
    Ok(())
}
