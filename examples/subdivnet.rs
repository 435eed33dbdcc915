//! SubdivNet mesh convolution: FreeTensor vs the operator-based baseline,
//! reproducing the paper's §2 motivation (Figs. 2–3) at example scale.
//!
//! ```sh
//! cargo run --example subdivnet
//! ```

use freetensor::autoschedule::Target;
use freetensor::opbase::Session;
use freetensor::runtime::Runtime;
use freetensor::workloads::subdivnet;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = subdivnet::Params {
        n_faces: 256,
        in_feats: 16,
    };
    let inputs = subdivnet::inputs(&params, 42);

    // FreeTensor: the fine-grained program, auto-scheduled for the GPU model.
    let program = subdivnet::program(&params).optimize(&Target::gpu());
    let rt = Runtime::new();
    let ft = program.run(&rt, &inputs, &HashMap::new())?;

    // Operator-based: index_select / reshape / cat / sub / abs / sum.
    let session = Session::gpu();
    let y = subdivnet::opbase(&session, &params, &inputs)?;
    let ob = session.counters();

    // Same numbers...
    assert!(ft.output("y").allclose(y.val(), 1e-4));
    println!(
        "outputs agree (max diff {:.2e})",
        ft.output("y").max_abs_diff(y.val())
    );

    // ...very different execution (the paper's Fig. 17 analysis).
    println!("\n{:<22}{:>14}{:>14}", "", "FreeTensor", "operator-based");
    println!(
        "{:<22}{:>14}{:>14}",
        "kernel launches", ft.counters.kernel_launches, ob.kernel_launches
    );
    println!(
        "{:<22}{:>14}{:>14}",
        "DRAM bytes", ft.counters.dram_bytes, ob.dram_bytes
    );
    println!(
        "{:<22}{:>14.0}{:>14.0}",
        "modeled cycles", ft.counters.modeled_cycles, ob.modeled_cycles
    );
    Ok(())
}
