//! `serve-hot` and `serve-mixed`: closed-loop clients against one
//! `ft_serve::Server`. Each client sends its next request only after the
//! previous reply arrived; `clients = workers = min(nproc, 4)`.

use crate::harness::{
    self, Ctl, Outcome, Prepared, Round, Tally, Value, ROUNDS, SETUP_REPS, WARMUP_OPS,
};
use crate::programs::{self, Case, Prog, Sched, PROGS};
use crate::stats;
use crate::trace::Recorder;
use ft_ir::Func;
use ft_metrics::{Metrics, MetricsSnapshot};
use ft_runtime::{CompiledEngine, ExecutionEngine, RunContext};
use ft_serve::{Payload, Request, Response, ServeConfig, Server};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `clients = workers = min(nproc, 4)`.
pub fn width() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

fn cases(workload: &str) -> Vec<Case> {
    if workload == "serve-hot" {
        vec![Case::small(Prog::Subdivnet)]
    } else {
        PROGS
            .iter()
            .flat_map(|p| [Case::small(*p), Case::fwd(*p)])
            .collect()
    }
}

/// One program key of the traffic mix.
struct Key {
    prep: Prepared,
    func: Arc<Func>,
    /// Digest of a reply that followed an oracle-checked tensor reply to the
    /// same request (digest mode only).
    digest: Option<u64>,
}

impl Key {
    fn request(&self, digest: bool) -> Request {
        let r = Request::new(self.func.clone(), self.prep.inputs.clone(), HashMap::new());
        if digest {
            r.digest()
        } else {
            r
        }
    }
}

struct Setup {
    server: Server,
    /// A directly driven engine on the same cache directory. It builds every
    /// key first (oracle-checked), and, never dropped, keeps libgomp mapped
    /// while servers come and go.
    engine: CompiledEngine,
    cache_dir: PathBuf,
    metrics: Metrics,
    keys: Vec<Key>,
}

fn server_on(dir: &std::path::Path, workers: usize, metrics: &Metrics) -> Server {
    Server::new(
        ServeConfig {
            workers,
            queue_cap: 256,
            mem_budget_bytes: None,
            ctx_pool_per_key: width() + 1,
            cache_dir: Some(dir.to_path_buf()),
        },
        metrics.clone(),
    )
}

/// A tensor-mode call, compared with the oracle.
fn checked_call(server: &Server, key: &Key, client: &str, tally: &mut Tally) -> bool {
    tally.attempted += 1;
    tally.checked += 1;
    let verdict = match server.call(client, key.request(false)) {
        Ok(Response {
            payload: Payload::Tensors(t),
            ..
        }) => programs::check(&t, &key.prep.want),
        Ok(_) => Err("tensor request answered with a digest".to_string()),
        Err(e) => Err(e.to_string()),
    };
    match verdict {
        Ok(()) => true,
        Err(e) => {
            tally.fail(format!("{}: {e}", key.prep.case.label()));
            false
        }
    }
}

fn setup(
    workload: &str,
    ctl: &Ctl,
    rec: &mut Recorder,
    engine_metrics: Option<&Metrics>,
    tally: &mut Tally,
) -> Setup {
    let cache_dir = harness::fresh_cache_dir();
    let engine = harness::new_engine(&cache_dir, engine_metrics);
    let metrics = Metrics::new();
    let sizes = HashMap::new();
    let mut keys = Vec::new();
    for (k, case) in cases(workload).into_iter().enumerate() {
        let k = k as u64;
        tally.attempted += 1;
        let built = harness::prepare(case, Sched::Rules, ctl.seed, rec, k).and_then(|prep| {
            let o = rec.begin("cold_run", k);
            let r = engine.run(prep.program.func(), &prep.inputs, &sizes);
            rec.end(o);
            programs::check(&r.map_err(|e| e.to_string())?.outputs, &prep.want)?;
            Ok(prep)
        });
        match built {
            Ok(prep) => keys.push(Key {
                func: Arc::new(prep.program.func().clone()),
                prep,
                digest: None,
            }),
            Err(e) => tally.fail(format!("{}: {e}", case.label())),
        }
    }
    let server = server_on(&cache_dir, width(), &metrics);
    let digest_mode = workload == "serve-hot";
    let o = rec.begin("warmup", 0);
    for key in &mut keys {
        if !checked_call(&server, key, "warmup", tally) {
            continue;
        }
        let start = Instant::now();
        for i in 0..WARMUP_OPS {
            tally.attempted += 1;
            match server.call("warmup", key.request(digest_mode)) {
                Ok(r) if i == 0 => key.digest = r.digest(),
                Ok(_) => {}
                Err(e) => tally.fail(format!("{}: {e}", key.prep.case.label())),
            }
            if start.elapsed() >= harness::WARMUP_CAP {
                break;
            }
        }
    }
    rec.end(o);
    Setup {
        server,
        engine,
        cache_dir,
        metrics,
        keys,
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The order in which a client walks the keys: a shuffle drawn from the run
/// seed and the client's index, repeated for the whole run.
fn key_order(n: usize, seed: u64, client: usize) -> Vec<usize> {
    let mut state = seed ^ (client as u64).wrapping_mul(0xA076_1D64_78BD_642F);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, (splitmix(&mut state) % (i as u64 + 1)) as usize);
    }
    order
}

/// What one client saw in one round.
#[derive(Default)]
struct ClientRound {
    latency_us: Vec<f64>,
    /// Index into `Setup::keys` of each entry of `latency_us`.
    key_of: Vec<usize>,
    queue_us: Vec<f64>,
    exec_us: Vec<f64>,
    clone_us: Vec<f64>,
    digests: HashSet<u64>,
    tally: Tally,
    done: Option<Instant>,
}

fn client_round(
    su: &Setup,
    digest_mode: bool,
    order: &[usize],
    cursor: &mut usize,
    client: usize,
    deadline: Instant,
    rec: &mut Recorder,
) -> ClientRound {
    let name = format!("client-{client}");
    let mut out = ClientRound::default();
    if su.keys.is_empty() {
        return out;
    }
    // This thread's root span, so its self times add up to its traced wall.
    let root = rec.begin("client_round", client as u64);
    for i in 0u64.. {
        let last = Instant::now() >= deadline;
        let key_idx = order[*cursor % order.len()];
        let key = &su.keys[key_idx];
        *cursor += 1;
        let op = (client as u64) << 40 | *cursor as u64;
        let o = rec.begin("client_clone", op);
        let req = key.request(digest_mode);
        out.clone_us.push(rec.end(o));
        out.tally.attempted += 1;
        let o = rec.begin("call", op);
        let reply = su.server.call(&name, req);
        let us = rec.end(o);
        match reply {
            Ok(r) => {
                let verdict = match &r.payload {
                    Payload::Digest(d) => {
                        out.digests.insert(*d);
                        out.tally.checked += 1;
                        if Some(*d) == key.digest {
                            Ok(())
                        } else {
                            Err(format!("digest {d:#x} differs from the checked reply's"))
                        }
                    }
                    Payload::Tensors(t) if harness::is_checked(i, last) => {
                        out.tally.checked += 1;
                        programs::check(t, &key.prep.want)
                    }
                    Payload::Tensors(_) => Ok(()),
                };
                match verdict {
                    Ok(()) => {
                        out.latency_us.push(us);
                        out.key_of.push(key_idx);
                        out.queue_us.push(r.queue_us as f64);
                        out.exec_us.push(r.exec_us as f64);
                    }
                    Err(e) => out.tally.fail(format!("{}: {e}", key.prep.case.label())),
                }
            }
            // A refused request (`Overloaded`, `OverBudget`) or a failed run
            // is a failed operation, never unwrapped.
            Err(e) => out.tally.fail(format!("{}: {e}", key.prep.case.label())),
        }
        if last || out.tally.failed >= 64 {
            break;
        }
    }
    rec.end(root);
    out.done = Some(Instant::now());
    out
}

pub fn run(workload: &str, ctl: &Ctl) -> Outcome {
    let digest_mode = workload == "serve-hot";
    let clients = width();
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut rec = Recorder::new(ctl.traced, epoch, 0);
    let root = rec.begin("ftbench", 0);
    let engine_metrics = ctl.traced.then(Metrics::new);

    let round_len = Duration::from_secs_f64(ctl.seconds / ROUNDS as f64);
    let n_keys = cases(workload).len();
    let orders: Vec<Vec<usize>> = (0..clients)
        .map(|c| key_order(n_keys, ctl.seed, c))
        .collect();
    let mut cursors = vec![0usize; clients];
    let mut client_recs: Vec<Recorder> = (0..clients)
        .map(|c| Recorder::new(false, epoch, c as u32 + 1))
        .collect();
    let mut timed = Timed::default();
    let mut traced_rounds: Vec<ClientRound> = Vec::new();
    let mut digests: HashSet<u64> = HashSet::new();
    // Every set-up (fresh cache directory, server, buffers) serves an equal
    // share of the rounds, as in the kernel workloads; tensor-mode probe
    // requests are oracle-checked before its first and after its last round.
    let share = ROUNDS / SETUP_REPS;
    let mut setup_s = Vec::new();
    let mut during = MetricsSnapshot::default();
    let mut last: Option<(Setup, MetricsSnapshot)> = None;
    for round in 0..ROUNDS {
        if round % share == 0 {
            drop(last.take());
            let o = rec.begin("setup", (round / share) as u64);
            let s = setup(
                workload,
                ctl,
                &mut rec,
                engine_metrics.as_ref(),
                &mut out.tally,
            );
            setup_s.push(rec.end(o) / 1e6);
            for key in &s.keys {
                checked_call(&s.server, key, "probe", &mut out.tally);
            }
            let before = s.metrics.snapshot();
            last = Some((s, before));
        }
        let (su, before) = last.as_ref().expect("set up at round 0");
        let recording = ctl.traced && round >= ROUNDS / 2;
        let o = rec.begin("round", round as u64);
        let start = Instant::now();
        let deadline = start + round_len;
        let results: Vec<ClientRound> = std::thread::scope(|s| {
            let handles: Vec<_> = client_recs
                .iter_mut()
                .zip(cursors.iter_mut())
                .zip(&orders)
                .enumerate()
                .map(|(c, ((crec, cursor), order))| {
                    let su = &su;
                    crec.set_on(recording);
                    s.spawn(move || client_round(su, digest_mode, order, cursor, c, deadline, crec))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        rec.end(o);
        let wall = results
            .iter()
            .filter_map(|r| r.done)
            .max()
            .map_or(round_len, |t| t - start)
            .as_secs_f64();
        let mut pooled = Vec::new();
        for mut r in results {
            let mut per_key = vec![Vec::new(); su.keys.len()];
            for (us, k) in r.latency_us.iter().zip(&r.key_of) {
                per_key[*k].push(*us);
            }
            timed.slices.push(Round { op_us: per_key });
            pooled.extend_from_slice(&r.latency_us);
            digests.extend(r.digests.drain());
            out.tally.merge(std::mem::take(&mut r.tally));
            if recording {
                traced_rounds.push(r);
            }
        }
        timed.rps.push(pooled.len() as f64 / wall);
        timed.pooled.push(pooled);
        if (round + 1) % share == 0 {
            during.merge(&su.metrics.snapshot().diff(before));
            for key in &su.keys {
                checked_call(&su.server, key, "probe", &mut out.tally);
            }
        }
    }
    let (su, _) = last.expect("ROUNDS > 0");
    out.e2e
        .insert("setup_s".into(), harness::quickest(&setup_s));

    if let Some(engine_metrics) = &engine_metrics {
        layers(
            ctl,
            &su,
            &mut rec,
            &timed,
            &traced_rounds,
            &digests,
            engine_metrics,
            &mut out,
        );
        let l = &mut out.layers;
        let ok = during.counter("serve.ok").max(1);
        l.insert(
            "ft-serve.warm_share".into(),
            Value::new(during.counter("serve.warm") as f64 / ok as f64, ok),
        );
        l.insert(
            "ft-serve.cc_spawned_warm".into(),
            Value::new(during.counter("compiled.cc.spawned") as f64, ok),
        );
        l.insert(
            "ft-serve.rejected".into(),
            Value::new(
                (during.counter("serve.rejected.backpressure")
                    + during.counter("serve.rejected.budget")) as f64,
                during.counter("serve.requests"),
            ),
        );
    } else {
        let p50 = harness::op_p50(&timed.slices);
        out.e2e.insert("op_p50_us".into(), p50);
        out.detail.insert("latency_p50_us".into(), (p50, "us"));
        out.detail
            .insert("latency_p99_us".into(), (quiet_p99(&timed.pooled), "us"));
        out.detail.insert(
            "served_rps".into(),
            (best_rps(&timed.rps, &timed.pooled), "1/s"),
        );
    }
    rec.end(root);
    out.recorders.push(rec);
    out.recorders.extend(client_recs);
    out
}

/// What the timed rounds produced. `slices` has one entry per client per
/// round (that client's latencies by key, in the order it saw them), in round
/// order; `pooled` and `rps` have one entry per round.
#[derive(Default)]
struct Timed {
    slices: Vec<Round>,
    pooled: Vec<Vec<f64>>,
    rps: Vec<f64>,
}

/// The p99 reply latency of the quietest round.
fn quiet_p99(pooled: &[Vec<f64>]) -> Value {
    Value::new(
        stats::quietest(pooled, stats::p99),
        pooled.iter().map(|r| r.len() as u64).sum(),
    )
}

/// Replies per second over all clients in the best round.
fn best_rps(rps: &[f64], pooled: &[Vec<f64>]) -> Value {
    Value::new(
        rps.iter().copied().fold(0.0, f64::max),
        pooled.iter().map(|r| r.len() as u64).sum(),
    )
}

fn median_value(v: &[f64]) -> Value {
    Value::new(stats::median(v), v.len() as u64)
}

/// The traced run's per-layer numbers for a serving workload.
#[allow(clippy::too_many_arguments)]
fn layers(
    ctl: &Ctl,
    su: &Setup,
    rec: &mut Recorder,
    timed: &Timed,
    traced: &[ClientRound],
    digests: &HashSet<u64>,
    engine_metrics: &Metrics,
    out: &mut Outcome,
) {
    let l = &mut out.layers;
    let (plain, recorded) = timed.slices.split_at(timed.slices.len() / 2);
    harness::trace_overhead_layer(plain, recorded, l);
    l.insert(
        "ft-serve.latency_p99_us".into(),
        quiet_p99(&timed.pooled[ROUNDS / 2..]),
    );
    l.insert(
        "ft-serve.served_rps".into(),
        best_rps(&timed.rps[ROUNDS / 2..], &timed.pooled[ROUNDS / 2..]),
    );
    harness::pipeline_layers(rec, l);
    let emitted: Vec<_> = su.keys.iter().map(|k| k.prep.emitted).collect();
    harness::emitted_layers(&emitted, l);
    let cold = harness::sum_of_quiet_medians(rec, "cold_run");

    let all = |f: fn(&ClientRound) -> &Vec<f64>| -> Vec<f64> {
        traced.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (lat, queue, exec) = (
        all(|r| &r.latency_us),
        all(|r| &r.queue_us),
        all(|r| &r.exec_us),
    );
    let handoff: Vec<f64> = lat
        .iter()
        .zip(queue.iter().zip(&exec))
        .map(|(l, (q, e))| (l - q - e).max(0.0))
        .collect();
    l.insert("ft-serve.queue_p50_us".into(), median_value(&queue));
    l.insert("ft-serve.exec_p50_us".into(), median_value(&exec));
    l.insert("ft-serve.handoff_p50_us".into(), median_value(&handoff));
    l.insert(
        "ft-serve.client_clone_us".into(),
        median_value(&all(|r| &r.clone_us)),
    );
    l.insert(
        "ft-serve.digest_distinct".into(),
        Value::new(digests.len() as f64, lat.len() as u64),
    );

    // Layer by layer on the calling thread: a `workers: 0` server on the
    // same cache directory (submit = key + plan + admission; pump_one = ctx
    // checkout + run + digest + reply), then the engine alone on the same
    // program and inputs.
    let manual = server_on(&su.cache_dir, 0, &Metrics::new());
    let digest_mode = su.keys.iter().any(|k| k.digest.is_some());
    let per_key = Duration::from_secs_f64(ctl.seconds / 10.0 / su.keys.len().max(1) as f64);
    let sizes = HashMap::new();
    let (mut submit, mut pump, mut direct) = (Vec::new(), Vec::new(), Vec::new());
    let mut kernel: BTreeMap<&'static str, Vec<(f64, f64)>> = BTreeMap::new();
    let mut warm_sum = 0.0;
    for (k, key) in su.keys.iter().enumerate() {
        let k = k as u64;
        let tally = &mut out.tally;
        let (s_us, p_us): (Vec<f64>, Vec<f64>) = sample_for(per_key, || {
            tally.attempted += 1;
            let req = key.request(digest_mode);
            let o = rec.begin("submit", k);
            let rx = manual.submit("manual", req);
            let s = rec.end(o);
            let o = rec.begin("pump_one", k);
            manual.pump_one();
            let p = rec.end(o);
            match rx.map(|rx| rx.recv()) {
                Ok(Ok(Ok(_))) => Some((s, p)),
                Ok(Ok(Err(e))) | Err(e) => {
                    tally.fail(format!("manual: {e}"));
                    None
                }
                Ok(Err(e)) => {
                    tally.fail(format!("manual: {e}"));
                    None
                }
            }
        })
        .into_iter()
        .unzip();
        submit.push(stats::quiet_median(&[s_us]));
        pump.push(stats::quiet_median(&[p_us]));

        let before = engine_metrics.snapshot();
        let mut ctx = RunContext::new();
        let d_us = sample_for(per_key, || {
            tally.attempted += 1;
            let o = rec.begin("run_with", k);
            let r = su
                .engine
                .run_with(&key.func, &key.prep.inputs, &sizes, &mut ctx);
            let run = rec.end(o);
            match r {
                Ok(r) => {
                    let o = rec.begin("recycle", k);
                    let _ = ctx.recycle(r);
                    Some(run + rec.end(o))
                }
                Err(e) => {
                    tally.fail(format!("direct: {e}"));
                    None
                }
            }
        });
        // The registry only has a mean of the kernel time, so the dispatch
        // share is taken against the mean of the same calls.
        let mean_run = d_us.iter().sum::<f64>() / d_us.len().max(1) as f64;
        let run = stats::quiet_median(&[d_us]);
        direct.push(run);
        warm_sum += run;
        let h = engine_metrics.snapshot().diff(&before);
        if let Some(h) = h.histograms.get("engine.compiled.kernel_us") {
            kernel
                .entry(key.prep.case.prog.name())
                .or_default()
                .push((h.mean(), mean_run));
        }
    }
    let n = su.keys.len() as u64;
    let geo = |v: &[f64]| Value::new(stats::geomean(v), n);
    let l = &mut out.layers;
    l.insert("ft-serve.submit_us".into(), geo(&submit));
    l.insert("ft-serve.pump_us".into(), geo(&pump));
    l.insert("ft-serve.run_with_us".into(), geo(&direct));
    l.insert(
        "ft-serve.overhead_us".into(),
        Value::new(
            (stats::geomean(&pump) - stats::geomean(&direct)).max(0.0),
            n,
        ),
    );
    for (name, v) in kernel {
        let kern = stats::geomean(&v.iter().map(|(k, _)| *k).collect::<Vec<_>>());
        let run = stats::geomean(&v.iter().map(|(_, r)| *r).collect::<Vec<_>>());
        l.insert(
            format!("ft-runtime.native.kernel_us.{name}"),
            Value::new(kern, v.len() as u64),
        );
        l.insert(
            format!("ft-runtime.native.dispatch_us.{name}"),
            Value::new((run - kern).max(0.0), v.len() as u64),
        );
    }
    harness::cc_layers(cold, warm_sum, &su.cache_dir, n, engine_metrics, l);
}

/// Results of `op` called back to back for `span`, after five calls that do
/// not count (a fresh server's or context's first calls on a key are cold).
/// A failed call (`None`) ends the loop.
fn sample_for<T>(span: Duration, mut op: impl FnMut() -> Option<T>) -> Vec<T> {
    let mut samples = Vec::new();
    let start = Instant::now();
    for i in 0u64.. {
        match op() {
            Some(s) if i >= 5 => samples.push(s),
            Some(_) => {}
            None => break,
        }
        if i >= 5 && start.elapsed() >= span {
            break;
        }
    }
    samples
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_order_is_a_seeded_permutation() {
        let a = key_order(8, 42, 0);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        assert_eq!(a, key_order(8, 42, 0));
        assert_ne!(a, key_order(8, 42, 1));
        assert_ne!(a, key_order(8, 43, 0));
        assert_eq!(key_order(1, 7, 0), vec![0]);
    }
}
