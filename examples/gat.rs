//! GAT layer with data-dependent loop bounds: FreeTensor vs the DGL-style
//! sparse-operator pipeline ("we can implement more computations in fewer
//! kernels", paper §6.2).
//!
//! ```sh
//! cargo run --example gat
//! ```

use freetensor::autoschedule::Target;
use freetensor::opbase::Session;
use freetensor::runtime::Runtime;
use freetensor::workloads::gat;
use std::collections::HashMap;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = gat::Params {
        n_nodes: 256,
        degree: 8,
        feat_len: 16,
    };
    let inputs = gat::inputs(&params, 3);

    let program = gat::program(&params).optimize(&Target::gpu());
    let rt = Runtime::new();
    let ft = program.run(&rt, &inputs, &HashMap::new())?;

    let session = Session::gpu();
    let y = gat::opbase(&session, &params, &inputs)?;
    assert!(ft.output("y").allclose(y.val(), 1e-3));

    println!(
        "kernels: FreeTensor {} vs DGL-style {}",
        ft.counters.kernel_launches,
        session.counters().kernel_launches
    );
    println!(
        "DRAM bytes: FreeTensor {} vs DGL-style {}",
        ft.counters.dram_bytes,
        session.counters().dram_bytes
    );
    Ok(())
}
