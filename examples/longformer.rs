//! Longformer sliding-window attention with differentiation: the paper's
//! Fig. 1/5 workload, including the gradient program and the memory gap
//! between FreeTensor's tapes and the baseline's retained intermediates.
//!
//! ```sh
//! cargo run --example longformer
//! ```

use freetensor::autodiff::GradOptions;
use freetensor::opbase::Session;
use freetensor::runtime::{Runtime, TensorVal};
use freetensor::workloads::longformer;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = longformer::Params {
        seq_len: 128,
        w: 8,
        feat_len: 16,
    };
    let mut inputs = longformer::inputs(&params, 7);
    let seed = TensorVal::from_f32(
        &[params.seq_len, params.feat_len],
        vec![1.0; params.seq_len * params.feat_len],
    );

    // FreeTensor: one fused gradient program (forward + tape + backward).
    let grad = longformer::program(&params).grad(&GradOptions::default())?;
    let rt = Runtime::new();
    inputs.insert("y.grad".to_string(), seed.clone());
    let ft = grad.run(&rt, &inputs, &HashMap::new())?;
    println!(
        "FreeTensor grad: peak {} bytes, {} DRAM bytes",
        ft.counters.peak_bytes["cpu"], ft.counters.dram_bytes
    );

    // Baseline: operator chain with graph AD retaining every intermediate.
    let session = Session::cpu();
    session.set_grad_mode(true);
    let handles = longformer::opbase(&session, &params, &inputs)?;
    let grads = session.backward(&handles.y, seed)?;
    let ob = session.counters();
    println!(
        "baseline grad:   peak {} bytes, {} DRAM bytes",
        ob.peak_bytes["cpu"], ob.dram_bytes
    );

    // Gradients agree.
    let dq = ft.output("Q.grad");
    let dq_ob = &grads[&handles.q.id()];
    println!(
        "dQ agrees across systems (max diff {:.2e})",
        dq.max_abs_diff(dq_ob)
    );
    println!(
        "\nmemory ratio (baseline / FreeTensor): {:.1}x",
        ob.peak_bytes["cpu"] as f64 / ft.counters.peak_bytes["cpu"] as f64
    );
    Ok(())
}
