//! The one telemetry handle: where a traced program's run reports when the
//! engine it runs on already carries a metrics registry, and what a
//! registry-only handle records.

use freetensor::autoschedule::Target;
use freetensor::core::Program;
use freetensor::runtime::{cc_available, CompiledEngine, ExecutionEngine, Runtime, TensorVal};
use freetensor::trace::TraceSink;
use ft_metrics::Metrics;
use std::collections::HashMap;

const SRC: &str =
    "def f(x: f32[64] in, y: f32[64] out):\n  for i in range(64):\n    y[i] = x[i] * 2 + 1\n";

fn inputs() -> HashMap<String, TensorVal> {
    let x = TensorVal::from_f32(&[64], (0..64).map(|v| v as f32).collect());
    HashMap::from([("x".to_string(), x)])
}

/// Run the program traced into `sink` on `engine`, which carries a
/// registry of its own: the runtime span and the profile land in the
/// program's log, the engine's run histogram in the engine's registry, and
/// nothing of the run in the program's registry.
fn run_split<E: ExecutionEngine + Clone>(mut engine: E, span: &str) {
    let sink = TraceSink::new();
    let p = Program::compile_traced(SRC, "f", sink.clone())
        .expect("compiles")
        .optimize(&Target::cpu());
    let registry = Metrics::new();
    engine.set_sink(Some(TraceSink::from(registry.clone())));
    let r = p.run(&engine, &inputs(), &HashMap::new()).expect("runs");
    assert_eq!(r.output("y").to_f64_vec()[63], 127.0);
    assert!(
        sink.events()
            .iter()
            .any(|e| e.cat == "runtime" && e.name == span),
        "no `{span}` span in the program's log: {:?}",
        sink.events().iter().map(|e| &e.name).collect::<Vec<_>>()
    );
    assert_eq!(sink.profiles().len(), 1, "{:?}", sink.profiles());
    let name = engine.name();
    let run_us = format!("engine.{name}.run_us");
    let counted = registry.snapshot();
    assert_eq!(
        counted.histograms.get(&run_us).map(|h| h.count),
        Some(1),
        "{counted:?}"
    );
    let program_registry = sink.metrics().snapshot();
    assert!(
        !program_registry.histograms.contains_key(&run_us),
        "{program_registry:?}"
    );
    // The engine's own handle stayed registry-only: it logged nothing.
    let handle = engine.sink().expect("installed");
    assert!(handle.events().is_empty() && handle.profiles().is_empty());
}

#[test]
fn a_traced_program_logs_into_its_sink_and_counts_into_the_engines_registry() {
    run_split(Runtime::new(), "interp f");
    if !cc_available() {
        eprintln!("cc unavailable; the compiled half is skipped");
        return;
    }
    run_split(CompiledEngine::new().with_profiling(true), "compiled f");
}

#[test]
fn a_registry_only_handle_records_no_events_decisions_or_profiles() {
    let registry = Metrics::new();
    let handle = TraceSink::from(registry.clone());
    let mut p = Program::compile(SRC, "f").expect("compiles");
    p.set_sink(Some(handle.clone()));
    let fast = p.optimize(&Target::cpu());
    let _ = fast.emit_c();
    let mut rt = Runtime::new();
    rt.set_sink(Some(handle.clone()));
    fast.run(&rt, &inputs(), &HashMap::new()).expect("runs");
    assert!(handle.events().is_empty(), "{:?}", handle.events());
    assert!(handle.decisions().is_empty());
    assert!(handle.profiles().is_empty());
    assert!(handle.counter_samples().is_empty());
    let counted = registry.snapshot();
    assert_eq!(
        counted
            .histograms
            .get("engine.interp.run_us")
            .map(|h| h.count),
        Some(1),
        "{counted:?}"
    );
}
