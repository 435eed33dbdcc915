//! Emit the native-backend source for a scheduled program — the paper's
//! §4.3 code-generation stage: the C/OpenMP unit the compiled engine hands
//! `cc` (planned arena offsets and the `ft_entry` wrapper included). The
//! GPU schedule is printed as IR: its block/thread loop mapping is what
//! the interpreter's device model prices, and no CUDA is emitted.
//!
//! ```sh
//! cargo run --example codegen
//! ```

use freetensor::autoschedule::Target;
use freetensor::workloads::subdivnet;

fn main() {
    let params = subdivnet::Params {
        n_faces: 64,
        in_feats: 8,
    };
    let program = subdivnet::program(&params);

    println!("==== C / OpenMP: the unit cc builds (CPU schedule) ====");
    println!("{}", program.optimize(&Target::cpu()).emit_c());

    println!("==== GPU schedule (IR the device model prices) ====");
    println!("{}", program.optimize(&Target::gpu()).func());
}
