//! SoftRas differentiable rendering: render an image, then backpropagate a
//! target-matching loss gradient to the face positions and colors.
//!
//! ```sh
//! cargo run --example softras
//! ```

use freetensor::autodiff::GradOptions;
use freetensor::runtime::{Runtime, TensorVal};
use freetensor::workloads::softras;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = softras::Params {
        h: 16,
        w: 16,
        n_faces: 8,
        channels: 3,
        ..softras::Params::default()
    };
    let mut inputs = softras::inputs(&params, 99);

    // Forward render.
    let rt = Runtime::new();
    let program = softras::program(&params);
    let fwd = program.run(&rt, &inputs, &HashMap::new())?;
    let img = fwd.output("img");
    println!(
        "rendered {}x{} image, mean intensity {:.4}",
        params.h,
        params.w,
        img.to_f64_vec().iter().sum::<f64>() / img.numel() as f64
    );

    // Backward: gradient of the mean intensity w.r.t. geometry and colors —
    // the "differentiable renderer" property SoftRas exists for.
    let grad = program.grad(&GradOptions {
        wrt: Some(vec!["faces".to_string(), "col".to_string()]),
        ..Default::default()
    })?;
    let seed = TensorVal::from_f32(
        &[params.pixels(), params.channels],
        vec![1.0 / params.pixels() as f32; params.pixels() * params.channels],
    );
    inputs.insert("img.grad".to_string(), seed);
    let back = grad.run(&rt, &inputs, &HashMap::new())?;
    let g_faces = back.output("faces.grad").to_f64_vec();
    let g_col = back.output("col.grad").to_f64_vec();
    println!(
        "|d faces| = {:.4}, |d col| = {:.4}",
        g_faces.iter().map(|v| v * v).sum::<f64>().sqrt(),
        g_col.iter().map(|v| v * v).sum::<f64>().sqrt()
    );
    Ok(())
}
