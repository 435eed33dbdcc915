//! The emitted C must be accepted by the host C compiler for every
//! workload, CPU-scheduled (skipped gracefully when no `cc` is installed).

use freetensor::autoschedule::Target;
use freetensor::workloads::{gat, longformer, softras, subdivnet};
use std::io::Write as _;
use std::process::{Command, Stdio};

fn compiles(source: &str) -> Result<(), String> {
    let mut child = Command::new("cc")
        .args(["-fsyntax-only", "-fopenmp", "-xc", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|_| "no-cc".to_string())?;
    child
        .stdin
        .as_mut()
        .expect("piped")
        .write_all(source.as_bytes())
        .expect("write");
    let out = child.wait_with_output().expect("cc runs");
    if out.status.success() {
        Ok(())
    } else {
        Err(String::from_utf8_lossy(&out.stderr).to_string())
    }
}

#[test]
fn emitted_c_compiles_for_all_workloads() {
    let programs = vec![
        (
            "subdivnet",
            subdivnet::program(&subdivnet::Params {
                n_faces: 16,
                in_feats: 4,
            }),
        ),
        (
            "longformer",
            longformer::program(&longformer::Params {
                seq_len: 16,
                w: 2,
                feat_len: 4,
            }),
        ),
        ("softras", softras::program(&softras::Params::small())),
        ("gat", gat::program(&gat::Params::small())),
    ];
    for (name, prog) in programs {
        let c = prog.optimize(&Target::cpu()).emit_c();
        match compiles(&c) {
            Ok(()) => {}
            Err(e) if e == "no-cc" => {
                eprintln!("cc unavailable; skipping");
                return;
            }
            Err(e) => panic!("{name}: generated C rejected:\n{e}\n--- source ---\n{c}"),
        }
    }
}
