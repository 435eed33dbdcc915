//! Search-based auto-scheduling: evolutionary search over [`ScheduleOp`]
//! traces. The deterministic cost model scores every candidate; when the
//! caller can time candidates on the hardware, the model only decides which
//! of them get timed and the measured wall decides which one wins.
//!
//! Where the rule-based [`auto_schedule`](crate::auto_schedule) commits to
//! one fixed pass order, this module *searches* the legal-schedule space the
//! way Ansor/TensorIR-class autotuners do — but with two properties those
//! systems don't have for free:
//!
//! 1. **Legality is a rejection, not a crash.** Every candidate trace is
//!    applied through `ft-schedule`'s dependence-checked primitives
//!    ([`ft_schedule::trace::apply_trace`]); an illegal mutation is simply
//!    a no-op in the trace, so the neighborhood generator never needs its
//!    own legality model.
//! 2. **The model's ranking is deterministic.** Candidates are scored by
//!    the instrumented cost model's `modeled_cycles` (with `dram_bytes` as
//!    tiebreak), quantized into a total order by
//!    [`ft_runtime::ScheduleScore`] — so without a measurer the same seed
//!    and budget produce the identical best trace on any machine, at any
//!    worker count.
//!
//! The engine is workload-agnostic: the caller supplies an *evaluator*
//! closure that runs a scheduled function on real inputs and returns its
//! [`PerfCounters`] (the bench crate's driver runs the instrumented
//! interpreter on the CPU-lowered function), and optionally a *measurer*
//! that returns the warm wall time of the same function in microseconds
//! (the bench crate's runs the compiled kernel). With a measurer, each
//! generation times [`MEASURED_PER_GEN`] of its candidates, survivors and
//! payoff credit follow the measured wall, and the returned trace is the
//! winner of a final interleaved A/B against the rule trace. Candidate
//! programs are memoized on [`Func::content_hash`] of the simplified
//! function, so two traces that produce the same program are never
//! evaluated, or measured, twice.

use crate::Target;
use ft_ir::{Device, Func, MemType};
use ft_metrics::Metrics;
use ft_runtime::{PerfCounters, ScheduleScore};
use ft_schedule::trace::{apply_trace, op_from_json, op_to_json, ScheduleOp};
use ft_schedule::Schedule;
use ft_trace::{JsonVal, TraceSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Knobs of one search run. Everything that affects the outcome is in here
/// (plus the base function and target): two runs with equal configs are
/// bit-identical.
#[derive(Debug, Clone)]
pub struct SearchConfig {
    /// Maximum evaluator invocations (memo hits are free).
    pub budget: usize,
    /// RNG seed; the single source of randomness.
    pub seed: u64,
    /// Evaluation worker threads. **Does not affect the result**, only
    /// wall-clock: candidates are generated and ranked sequentially, and
    /// parallel evaluation writes into per-candidate slots.
    pub workers: usize,
    /// Warm-start per-op payoff statistics from a previous run
    /// ([`SavedSchedule::payoff`]); `None` starts uniform.
    pub warm_payoff: Option<PayoffTable>,
}

impl Default for SearchConfig {
    fn default() -> SearchConfig {
        SearchConfig {
            budget: 256,
            seed: 2022,
            workers: 1,
            warm_payoff: None,
        }
    }
}

/// Per-op-kind win/trial statistics, Laplace-smoothed into mutation weights.
///
/// Every proposed candidate credits the op kinds its mutation introduced
/// ("trials"); kinds whose candidates improved on their parent also count a
/// "win". The neighborhood generator multiplies each kind's base weight by
/// `(wins + 1) / (trials + 2)`, so kinds that keep paying off get sampled
/// more and kinds that never help decay toward (but never reach) zero —
/// the table is a prior, not a filter. Tables persist in
/// [`SavedSchedule`] JSON so later runs warm-start from earlier evidence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PayoffTable {
    entries: BTreeMap<String, (u64, u64)>,
}

impl PayoffTable {
    /// `(wins, trials)` recorded for an op kind.
    pub fn get(&self, op: &str) -> (u64, u64) {
        self.entries.get(op).copied().unwrap_or((0, 0))
    }

    /// Record one trial (and, when the child beat its parent, one win).
    pub fn credit(&mut self, op: &str, improved: bool) {
        let e = self.entries.entry(op.to_string()).or_insert((0, 0));
        e.1 += 1;
        if improved {
            e.0 += 1;
        }
    }

    /// Smoothed sampling weight of an op kind in 1/1024 units, scaled by
    /// its base weight. Integer arithmetic keeps sampling deterministic.
    fn weight_millis(&self, op: &str, base: u64) -> u64 {
        let (wins, trials) = self.get(op);
        // Laplace smoothing: an untried op weighs base * 512/1024.
        (base * 1024 * (wins + 1) / (trials + 2)).max(1)
    }

    /// Iterate entries in deterministic (name) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64, u64)> {
        self.entries.iter().map(|(k, (w, t))| (k.as_str(), *w, *t))
    }

    /// Serialize as `{"op": [wins, trials], ...}`.
    pub fn to_json(&self) -> JsonVal {
        JsonVal::Obj(
            self.entries
                .iter()
                .map(|(k, (w, t))| {
                    (
                        k.clone(),
                        JsonVal::Arr(vec![JsonVal::Num(*w as f64), JsonVal::Num(*t as f64)]),
                    )
                })
                .collect(),
        )
    }

    /// Parse [`PayoffTable::to_json`] output.
    ///
    /// # Errors
    ///
    /// Describes the first malformed entry.
    pub fn from_json(v: &JsonVal) -> Result<PayoffTable, String> {
        let JsonVal::Obj(fields) = v else {
            return Err("payoff table is not an object".to_string());
        };
        let mut entries = BTreeMap::new();
        for (k, v) in fields {
            let arr = v
                .as_arr()
                .ok_or_else(|| format!("payoff `{k}` not an array"))?;
            let n = |i: usize| -> Result<u64, String> {
                arr.get(i)
                    .and_then(JsonVal::as_u64)
                    .ok_or_else(|| format!("payoff `{k}` missing element {i}"))
            };
            entries.insert(k.clone(), (n(0)?, n(1)?));
        }
        Ok(PayoffTable { entries })
    }
}

/// Summary of one generation, for the search history artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct GenStat {
    /// Generation number (0 = warm-start seeds).
    pub generation: u64,
    /// Cumulative evaluator invocations after this generation.
    pub evaluations: u64,
    /// Cumulative memoization hits after this generation.
    pub memo_hits: u64,
    /// Cumulative candidates handed to the measurer (0 without one).
    pub measured: u64,
    /// Modeled cycles of the best candidate so far.
    pub best_cycles: f64,
    /// `dram_bytes` of the best candidate so far.
    pub best_dram: u64,
    /// Measured wall of the best candidate so far (`None` without a
    /// measurer, or while nothing has been timed successfully).
    pub best_wall_us: Option<f64>,
}

/// One candidate the search loop handed to the measurer: the pair the
/// calibration report correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// [`Func::content_hash`] of the candidate program (never repeats).
    pub key: u64,
    /// Its modeled cycles, from the evaluator.
    pub cycles: f64,
    /// Its measured wall in microseconds; `None` when the measurer failed.
    pub wall_us: Option<f64>,
}

/// The verdict of the final A/B, and where it was taken. `search` fills
/// the four timing fields; it cannot know what its measurer ran on, so the
/// caller that built the measurer fills `omp_threads`, `nproc` and `cc`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Measured {
    /// Median wall of the returned trace over the A/B, in microseconds.
    pub wall_us: f64,
    /// Median wall of the rule trace over the same A/B.
    pub rule_wall_us: f64,
    /// Interquartile range of the rule trace's A/B samples: the margin a
    /// candidate had to beat `rule_wall_us` by to displace the rule trace.
    pub noise_us: f64,
    /// Alternations of the A/B (samples behind each median).
    pub runs: u64,
    /// OpenMP team size the kernels ran with.
    pub omp_threads: u64,
    /// Hardware threads of the host.
    pub nproc: u64,
    /// First line of `cc --version`.
    pub cc: String,
}

/// Everything a search run produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Best trace found, minimized ([`minimize_trace`]): accepted ops only,
    /// none of them redundant — replays deterministically.
    pub best_trace: Vec<ScheduleOp>,
    /// Its score.
    pub best_score: ScheduleScore,
    /// Its full counters (from the evaluation that discovered it).
    pub best_counters: PerfCounters,
    /// The recorded rule passes, the warm-start trace ([`rule_trace`]).
    pub rule_trace: Vec<ScheduleOp>,
    /// The warm-start trace's score (what search has to beat).
    pub rule_score: ScheduleScore,
    /// Evaluator invocations actually spent (≤ budget).
    pub evaluations: u64,
    /// Candidates answered from the memo table.
    pub memo_hits: u64,
    /// Ops rejected by the legality checks across all candidates.
    pub illegal_rejected: u64,
    /// Generations run (excluding the seed generation).
    pub generations: u64,
    /// Per-generation progress.
    pub history: Vec<GenStat>,
    /// Final payoff statistics (persist for warm starts).
    pub payoff: PayoffTable,
    /// The final A/B between `best_trace` and `rule_trace`, or why there is
    /// none: no measurer, or a reading of the rule trace the measurer
    /// failed to take (a host too busy to give clean readings, for one).
    pub measured: Result<Measured, String>,
    /// Every candidate the generations measured, in measurement order (the
    /// A/B's repeat measurements are not in here).
    pub measurements: Vec<Measurement>,
    /// Wall-clock milliseconds spent inside the measurer (compiling and
    /// timing), the A/B included.
    pub measure_wall_ms: f64,
}

/// A prepared candidate: the trace applied and simplified, exactly the way
/// `Program::optimize` prepares the rule-based schedule — so scores
/// recorded here reproduce on the bench replay path.
struct Prepared {
    func: Func,
    key: u64,
    accepted: Vec<ScheduleOp>,
    rejected: u64,
}

/// Apply `trace` to `base` for `device` and simplify, mirroring
/// `freetensor_core::Program::optimize` (param placement → schedule →
/// simplify). Public because the bench replay path must build candidate
/// programs identically to how the search scored them.
pub fn prepare_candidate(
    base: &Func,
    device: Device,
    trace: &[ScheduleOp],
) -> (Func, Vec<ScheduleOp>) {
    let mut f = base.clone();
    for p in &mut f.params {
        p.mtype = MemType::default_for(device);
    }
    let (scheduled, accepted) = apply_trace(&f, trace);
    (ft_passes::simplify(&scheduled), accepted)
}

fn prepare(base: &Func, device: Device, trace: &[ScheduleOp]) -> Prepared {
    let (func, accepted) = prepare_candidate(base, device, trace);
    let key = func.content_hash();
    let rejected = (trace.len() - accepted.len()) as u64;
    Prepared {
        func,
        key,
        accepted,
        rejected,
    }
}

/// Deterministic chunked parallel map: output order is input order and the
/// result is independent of thread scheduling (each worker owns a disjoint
/// contiguous slice of the output).
fn par_map<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if workers <= 1 || items.len() <= 1 {
        return items.iter().map(&f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    let mut out: Vec<Option<R>> = Vec::new();
    out.resize_with(items.len(), || None);
    std::thread::scope(|s| {
        for (inp, outp) in items.chunks(chunk).zip(out.chunks_mut(chunk)) {
            s.spawn(|| {
                for (i, o) in inp.iter().zip(outp.iter_mut()) {
                    *o = Some(f(i));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("par_map slot filled"))
        .collect()
}

/// What the rule-based passes do to `base`, in the positional trace
/// vocabulary: the real passes run on a recording [`Schedule`], and every
/// primitive they get accepted is noted with the position its loop or def
/// had at that moment. Replaying the result through [`prepare_candidate`]
/// therefore rebuilds `Program::optimize`'s program. It seeds the search
/// population so generation 0 already contains the rule schedule; search
/// then has to *improve* on it.
///
/// CPU-only, like the search itself (the trace vocabulary's `parallelize`
/// is OpenMP).
pub fn rule_trace(base: &Func, target: &Target) -> Vec<ScheduleOp> {
    let mut f = base.clone();
    for p in &mut f.params {
        p.mtype = MemType::default_for(target.device);
    }
    let mut sched = Schedule::new(f);
    sched.record_ops();
    crate::run_passes(&mut sched, target);
    sched.take_ops()
}

/// Op kinds the neighborhood generator samples, with base weights.
/// (`parallelize_unchecked` is fault injection and is never proposed.)
const OP_KINDS: &[(&str, u64)] = &[
    ("split", 3),
    ("merge", 1),
    ("reorder", 1),
    ("fuse", 2),
    ("parallelize", 3),
    ("vectorize", 2),
    ("unroll", 1),
    ("cache", 2),
    ("separate_tail", 1),
    ("set_mtype", 2),
    ("as_lib", 1),
];

/// Positional index space (taken modulo the live loop/def/param count at
/// application time, matching the conformance sampler).
const IDX_SPACE: usize = 64;

fn random_op(rng: &mut StdRng, payoff: &PayoffTable) -> ScheduleOp {
    let weights: Vec<u64> = OP_KINDS
        .iter()
        .map(|(k, base)| payoff.weight_millis(k, *base))
        .collect();
    let total: u64 = weights.iter().sum();
    let mut roll = rng.gen_range(0..total);
    let mut idx = 0;
    for (i, w) in weights.iter().enumerate() {
        if roll < *w {
            idx = i;
            break;
        }
        roll -= *w;
    }
    let l = rng.gen_range(0..IDX_SPACE);
    match OP_KINDS[idx].0 {
        "split" => ScheduleOp::Split {
            loop_idx: l,
            factor: [2i64, 3, 4, 8][rng.gen_range(0..4usize)],
        },
        "merge" => ScheduleOp::Merge { loop_idx: l },
        "reorder" => ScheduleOp::Reorder { loop_idx: l },
        "fuse" => ScheduleOp::Fuse {
            first_idx: l,
            second_idx: rng.gen_range(0..IDX_SPACE),
        },
        "parallelize" => ScheduleOp::Parallelize { loop_idx: l },
        "vectorize" => ScheduleOp::Vectorize { loop_idx: l },
        "unroll" => ScheduleOp::Unroll { loop_idx: l },
        "cache" => ScheduleOp::Cache {
            loop_idx: l,
            param_idx: rng.gen_range(0..8usize),
        },
        "separate_tail" => ScheduleOp::SeparateTail { loop_idx: l },
        "set_mtype" => ScheduleOp::SetMtype {
            def_idx: rng.gen_range(0..8usize),
        },
        _ => ScheduleOp::AsLib { loop_idx: l },
    }
}

/// What candidates are ranked by, lower first: measured wall in
/// nanoseconds, then the model's score. Without a measurer the wall is 0
/// for everyone and the model decides alone; with one, a candidate nothing
/// has timed (or whose measurement failed) carries `u64::MAX` and ranks
/// behind every timed one.
type Fitness = (u64, ScheduleScore);

/// Fitness of a candidate that failed to run, or that the budget starved.
const WORST: Fitness = (u64::MAX, worst_score());

/// One member of the population.
#[derive(Debug, Clone)]
struct Indiv {
    key: u64,
    trace: Vec<ScheduleOp>,
    fitness: Fitness,
}

/// A proposed candidate: the trace, the op kinds its mutation introduced
/// (for payoff credit), and the parent fitness it must beat to count a win.
struct Proposal {
    trace: Vec<ScheduleOp>,
    credited: Vec<&'static str>,
    parent_fitness: Fitness,
}

/// Tournament selection: the better of two uniform draws.
fn select<'a>(rng: &mut StdRng, pop: &'a [Indiv]) -> &'a Indiv {
    let a = &pop[rng.gen_range(0..pop.len())];
    let b = &pop[rng.gen_range(0..pop.len())];
    if a.fitness <= b.fitness {
        a
    } else {
        b
    }
}

fn propose(rng: &mut StdRng, pop: &[Indiv], payoff: &PayoffTable) -> Proposal {
    let parent = select(rng, pop);
    let mut trace = parent.trace.clone();
    // Kinds: mutate 3, append 3, truncate 2, crossover 2.
    let roll = rng.gen_range(0..10u32);
    let mut credited = Vec::new();
    if roll < 3 && !trace.is_empty() {
        // Mutate: replace one op with a fresh draw.
        let pos = rng.gen_range(0..trace.len());
        let op = random_op(rng, payoff);
        credited.push(op_kind_name(&op));
        trace[pos] = op;
    } else if roll < 6 || trace.is_empty() {
        // Append/insert a fresh op.
        let op = random_op(rng, payoff);
        credited.push(op_kind_name(&op));
        let pos = rng.gen_range(0..=trace.len());
        trace.insert(pos, op);
        trace.truncate(MAX_TRACE_LEN);
    } else if roll < 8 {
        // Truncate: drop one op.
        let pos = rng.gen_range(0..trace.len());
        trace.remove(pos);
    } else {
        // Crossover: parent prefix + other parent's suffix.
        let other = select(rng, pop);
        let a = rng.gen_range(0..=trace.len());
        let b = rng.gen_range(0..=other.trace.len());
        trace.truncate(a);
        trace.extend_from_slice(&other.trace[b..]);
        trace.truncate(MAX_TRACE_LEN);
    }
    Proposal {
        trace,
        credited,
        parent_fitness: parent.fitness,
    }
}

/// The static name of an op's kind (identical to [`ScheduleOp::op_name`]
/// but returning the `OP_KINDS` interned str for payoff credit).
fn op_kind_name(op: &ScheduleOp) -> &'static str {
    OP_KINDS
        .iter()
        .map(|(k, _)| *k)
        .find(|k| *k == op.op_name())
        .unwrap_or("split")
}

/// Score of a failed (or budget-starved) candidate: ranks strictly last.
const fn worst_score() -> ScheduleScore {
    ScheduleScore {
        cycles_q: u64::MAX,
        dram_bytes: u64::MAX,
    }
}

/// Survivors kept between generations.
pub const POPULATION: usize = 8;

/// Candidates proposed per generation.
pub const GENERATION_SIZE: usize = 16;

/// Hard cap on trace length (crossover and append respect it).
pub const MAX_TRACE_LEN: usize = 24;

/// Candidates handed to the measurer per generation: the three the model
/// ranks best among those nothing has timed yet, plus one drawn by the
/// seeded RNG from the rest — so the model is also sampled where it
/// expects nothing, which is where a miscalibrated model hides winners.
pub const MEASURED_PER_GEN: usize = 4;

/// Measured candidates that meet the rule trace in the final A/B.
pub const FINALISTS: usize = 3;

/// Alternations of the final A/B (samples per contender).
pub const AB_ROUNDS: usize = 10;

/// Drop, one at a time to a fixpoint, every op of `trace` whose removal
/// leaves the [`Func::content_hash`] of the prepared program unchanged: repeated
/// marks, ops a later op undoes, ops that were no-ops where they applied.
/// The result replays to the same program with nothing left to drop
/// (minimizing twice is the identity).
pub fn minimize_trace(base: &Func, device: Device, trace: &[ScheduleOp]) -> Vec<ScheduleOp> {
    let mut cur = prepare(base, device, trace);
    let mut i = 0;
    while i < cur.accepted.len() {
        let mut shorter = cur.accepted.clone();
        shorter.remove(i);
        let p = prepare(base, device, &shorter);
        if p.key == cur.key {
            // Everything before `i` was already tried against this program
            // with one more op in the trace; an op that could not go then
            // may be able to now, so start over.
            cur = p;
            i = 0;
        } else {
            i += 1;
        }
    }
    cur.accepted
}

/// Median of a non-empty sample (mean of the middle two for even counts).
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The cost model as [`search`] sees it: the counters of a scheduled
/// function on real inputs, `None` when it fails to run.
pub type Evaluator<'a> = dyn Fn(&Func) -> Option<PerfCounters> + Sync + 'a;

/// The hardware as [`search`] sees it: the warm wall of a scheduled
/// function in microseconds, `None` when it fails to build or run.
pub type Measurer<'a> = dyn Fn(&Func) -> Option<f64> + 'a;

/// What the search knows about one distinct candidate program.
struct Seen {
    /// Discovery order: the tiebreak that keeps "the first best wins".
    order: usize,
    /// Accepted ops of the first trace that produced this program.
    trace: Vec<ScheduleOp>,
    /// `None` when the evaluator could not run it.
    counters: Option<PerfCounters>,
    score: ScheduleScore,
    /// `None`: never handed to the measurer. `Some(None)`: the measurer
    /// failed on it. `Some(Some(us))`: its warm wall.
    wall: Option<Option<f64>>,
}

/// The mutable state of one [`search`] run and the two things it is given
/// to judge candidates with.
struct Searcher<'a> {
    base: &'a Func,
    device: Device,
    workers: usize,
    budget: u64,
    evaluator: &'a Evaluator<'a>,
    measurer: Option<&'a Measurer<'a>>,
    rng: StdRng,
    seen: BTreeMap<u64, Seen>,
    evals: u64,
    memo_hits: u64,
    illegal: u64,
    measurements: Vec<Measurement>,
    measure_time: Duration,
}

impl Searcher<'_> {
    fn fitness(&self, key: u64) -> Fitness {
        let Some(s) = self.seen.get(&key) else {
            return WORST;
        };
        let wall_ns = match (self.measurer, s.wall) {
            (None, _) => 0,
            (Some(_), Some(Some(us))) => (us * 1e3) as u64,
            (Some(_), _) => u64::MAX,
        };
        (wall_ns, s.score)
    }

    /// The best candidate that ran, by fitness, earliest discovered first.
    fn best(&self) -> Option<&Seen> {
        self.seen
            .iter()
            .filter(|(_, s)| s.counters.is_some())
            .min_by_key(|(k, s)| (self.fitness(**k), s.order))
            .map(|(_, s)| s)
    }

    fn measure(&mut self, func: &Func) -> Option<f64> {
        let measurer = self.measurer?;
        let start = Instant::now();
        // A measurer that answers with something that is not a time has
        // failed, whatever it meant.
        let wall = measurer(func).filter(|us| us.is_finite() && *us >= 0.0);
        self.measure_time += start.elapsed();
        wall
    }

    /// One batch: prepare in parallel, dedupe against the memo, evaluate
    /// misses in parallel, fold results sequentially in batch order, then —
    /// the workers having joined — time this batch's share of candidates on
    /// the calling thread. Returns each trace's program key and accepted
    /// ops, in batch order.
    fn run_batch(&mut self, traces: &[Vec<ScheduleOp>]) -> Vec<(u64, Vec<ScheduleOp>)> {
        let (base, device) = (self.base, self.device);
        let prepared: Vec<Prepared> = par_map(traces, self.workers, |t| prepare(base, device, t));
        // Sequential dedup: first occurrence of each unseen key becomes a
        // miss, capped by the remaining budget (deterministically: later
        // candidates in the batch are the ones starved).
        let mut miss_idx: Vec<usize> = Vec::new();
        let mut batch_new: BTreeSet<u64> = BTreeSet::new();
        for (i, p) in prepared.iter().enumerate() {
            self.illegal += p.rejected;
            if self.seen.contains_key(&p.key) || batch_new.contains(&p.key) {
                self.memo_hits += 1;
            } else if (self.evals + miss_idx.len() as u64) < self.budget {
                batch_new.insert(p.key);
                miss_idx.push(i);
            }
        }
        let miss_funcs: Vec<&Func> = miss_idx.iter().map(|&i| &prepared[i].func).collect();
        let evaluator = self.evaluator;
        let fresh: Vec<Option<PerfCounters>> = par_map(&miss_funcs, self.workers, |f| evaluator(f));
        for (&i, counters) in miss_idx.iter().zip(fresh) {
            self.evals += 1;
            let order = self.seen.len();
            self.seen.insert(
                prepared[i].key,
                Seen {
                    order,
                    trace: prepared[i].accepted.clone(),
                    score: counters
                        .as_ref()
                        .map_or_else(worst_score, PerfCounters::score),
                    counters,
                    wall: None,
                },
            );
        }
        if self.measurer.is_some() {
            // Distinct programs of this batch that the model could run and
            // nothing has timed, best modeled first.
            let untimed = |key: &u64| {
                self.seen
                    .get(key)
                    .is_some_and(|s| s.counters.is_some() && s.wall.is_none())
            };
            let mut pool: Vec<usize> = (0..prepared.len())
                .filter(|&i| untimed(&prepared[i].key))
                .collect();
            pool.sort_by_key(|&i| (self.seen[&prepared[i].key].score, prepared[i].key));
            pool.dedup_by_key(|i| prepared[*i].key);
            let favourites = MEASURED_PER_GEN - 1;
            let mut picks: Vec<usize> = pool.iter().copied().take(favourites).collect();
            if pool.len() > favourites {
                picks.push(pool[self.rng.gen_range(favourites..pool.len())]);
            }
            for i in picks {
                let wall_us = self.measure(&prepared[i].func);
                let s = self
                    .seen
                    .get_mut(&prepared[i].key)
                    .expect("pooled from seen");
                s.wall = Some(wall_us);
                self.measurements.push(Measurement {
                    key: prepared[i].key,
                    cycles: s.score.cycles(),
                    wall_us,
                });
            }
        }
        prepared.into_iter().map(|p| (p.key, p.accepted)).collect()
    }

    /// The final interleaved A/B: the rule trace against the best
    /// [`FINALISTS`] measured candidates, [`AB_ROUNDS`] samples each, in an
    /// order that reverses every round so no contender always runs behind
    /// the same neighbour. Returns the winner's key and the verdict; the
    /// rule trace is displaced only by a contender whose median beats its
    /// own by more than the interquartile range of its own samples. `Err`
    /// says why the rule trace has no measurement to defend: no measurer,
    /// or one that failed on one of its readings.
    fn final_ab(&mut self, rule_key: u64) -> Result<(u64, Measured), String> {
        self.measurer.ok_or("no measurer")?;
        if !matches!(self.seen.get(&rule_key).and_then(|s| s.wall), Some(Some(_))) {
            return Err("the measurer failed on the rule trace".to_string());
        }
        let mut finalists: Vec<u64> = self
            .seen
            .iter()
            .filter(|(k, s)| **k != rule_key && s.wall.flatten().is_some())
            .map(|(k, _)| *k)
            .collect();
        finalists.sort_by_key(|k| (self.fitness(*k), self.seen[k].order));
        finalists.truncate(FINALISTS);
        let contenders: Vec<u64> = std::iter::once(rule_key).chain(finalists).collect();
        let funcs: Vec<Func> = contenders
            .iter()
            .map(|k| prepare(self.base, self.device, &self.seen[k].trace).func)
            .collect();
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); contenders.len()];
        for round in 0..AB_ROUNDS {
            let mut order: Vec<usize> = (0..contenders.len()).collect();
            if round % 2 == 1 {
                order.reverse();
            }
            for c in order {
                if let Some(us) = self.measure(&funcs[c]) {
                    samples[c].push(us);
                }
            }
        }
        // A contender the measurer failed on even once has no full sample.
        for s in &mut samples {
            s.sort_by(f64::total_cmp);
        }
        let full_median = |s: &Vec<f64>| (s.len() == AB_ROUNDS).then(|| median(s));
        let rule = &samples[0];
        let rule_wall_us = full_median(rule).ok_or_else(|| {
            let failed = AB_ROUNDS - rule.len();
            format!("the measurer failed on the rule trace in {failed} of {AB_ROUNDS} A/B rounds")
        })?;
        let noise_us = rule[AB_ROUNDS * 3 / 4] - rule[AB_ROUNDS / 4];
        let (winner, wall_us) = samples
            .iter()
            .enumerate()
            .skip(1)
            .filter_map(|(c, s)| Some((c, full_median(s)?)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .filter(|(_, m)| rule_wall_us - m > noise_us)
            .unwrap_or((0, rule_wall_us));
        Ok((
            contenders[winner],
            Measured {
                wall_us,
                rule_wall_us,
                noise_us,
                runs: AB_ROUNDS as u64,
                ..Measured::default()
            },
        ))
    }

    fn gen_stat(&self, generation: u64) -> GenStat {
        let best = self.best();
        GenStat {
            generation,
            evaluations: self.evals,
            memo_hits: self.memo_hits,
            measured: self.measurements.len() as u64,
            best_cycles: best.map_or(f64::INFINITY, |s| s.score.cycles()),
            best_dram: best.map_or(u64::MAX, |s| s.score.dram_bytes),
            best_wall_us: best.and_then(|s| s.wall.flatten()),
        }
    }
}

/// Run the evolutionary search. See the module docs for the model; the
/// short version:
///
/// - generation 0 evaluates the empty trace and [`rule_trace`];
/// - each generation proposes [`GENERATION_SIZE`] candidates
///   by payoff-weighted mutate/append/truncate/crossover, prepares them in
///   parallel, answers duplicates from the memo table, evaluates the rest
///   in parallel (never exceeding [`SearchConfig::budget`] evaluator
///   calls), then updates population/payoff/best sequentially in proposal
///   order — which is what makes the outcome worker-count-invariant;
/// - the search stops when the budget is spent.
///
/// `evaluator` returns `None` for candidates that fail to run; they rank
/// strictly last and can never become the best.
///
/// With a `measurer` (called on this thread only, never while evaluator
/// workers run) the model stops being the objective: each generation —
/// generation 0's two seeds included — hands the measurer
/// [`MEASURED_PER_GEN`] of its not-yet-timed distinct candidates, ranks
/// population and payoff credit by measured wall (an untimed candidate
/// ranks behind every timed one and earns its op kinds neither a trial nor
/// a win), and the returned trace is the winner of a final interleaved A/B:
/// the rule trace against the best [`FINALISTS`] measured candidates,
/// [`AB_ROUNDS`] readings each, the rule trace displaced only by a median
/// that beats its own by more than the interquartile range of its own
/// readings ([`SearchOutcome::measured`]). The outcome is then as
/// repeatable as the measurer is. Without one this is the deterministic
/// model-ranked loop, the RNG stream included.
pub fn search(
    base: &Func,
    target: &Target,
    config: &SearchConfig,
    evaluator: &Evaluator<'_>,
    measurer: Option<&Measurer<'_>>,
    sink: Option<&TraceSink>,
    metrics: Option<&Metrics>,
) -> SearchOutcome {
    assert_eq!(
        target.device,
        Device::Cpu,
        "trace search is CPU-only (the trace vocabulary parallelizes onto OpenMP)"
    );
    let mut payoff = config.warm_payoff.clone().unwrap_or_default();
    let mut pop: Vec<Indiv> = Vec::new();
    let mut history: Vec<GenStat> = Vec::new();
    let mut st = Searcher {
        base,
        device: target.device,
        workers: config.workers.max(1),
        budget: config.budget as u64,
        evaluator,
        measurer,
        rng: StdRng::seed_from_u64(config.seed),
        seen: BTreeMap::new(),
        evals: 0,
        memo_hits: 0,
        illegal: 0,
        measurements: Vec::new(),
        measure_time: Duration::ZERO,
    };
    let report = |st: &Searcher, generation: u64, history: &mut Vec<GenStat>| {
        let g = st.gen_stat(generation);
        if let Some(m) = metrics {
            m.gauge("search.best_cycles")
                .set(if g.best_cycles.is_finite() {
                    g.best_cycles as i64
                } else {
                    i64::MAX
                });
        }
        history.push(g);
    };

    // Generation 0: warm-start seeds (empty trace + the rule trace).
    let rtrace = rule_trace(base, target);
    let seeds = vec![Vec::new(), rtrace.clone()];
    let mut span0 = sink.map(|s| s.span("search", "generation"));
    let seeded = st.run_batch(&seeds);
    let rule_key = seeded[1].0;
    let rule_score = st.fitness(rule_key).1;
    for (key, trace) in seeded {
        let fitness = st.fitness(key);
        pop.push(Indiv {
            key,
            trace,
            fitness,
        });
    }
    if let Some(s) = &mut span0 {
        s.arg("gen", 0);
        s.arg("evaluations", st.evals);
    }
    drop(span0);
    report(&st, 0, &mut history);

    let mut generations: u64 = 0;
    while st.evals < st.budget && !pop.is_empty() {
        generations += 1;
        let mut span = sink.map(|s| s.span("search", "generation"));
        // Propose sequentially (single RNG stream → deterministic).
        let proposals: Vec<Proposal> = (0..GENERATION_SIZE)
            .map(|_| propose(&mut st.rng, &pop, &payoff))
            .collect();
        let traces: Vec<Vec<ScheduleOp>> = proposals.iter().map(|p| p.trace.clone()).collect();
        let (evals_before, measured_before) = (st.evals, st.measurements.len());
        let scored = st.run_batch(&traces);
        // A candidate timed in this batch may already sit in the
        // population from an earlier, untimed appearance.
        for ind in &mut pop {
            ind.fitness = st.fitness(ind.key);
        }
        // Sequential fold in proposal order: payoff credit + population.
        for (prop, (key, trace)) in proposals.iter().zip(scored) {
            let fitness = st.fitness(key);
            let judged = measurer.is_none() || fitness.0 != u64::MAX;
            if judged {
                for kind in &prop.credited {
                    payoff.credit(kind, fitness < prop.parent_fitness);
                }
            }
            pop.push(Indiv {
                key,
                trace,
                fitness,
            });
        }
        // Survivor selection: best-first, deduped by content hash so the
        // population can't collapse into copies of one schedule.
        pop.sort_by(|a, b| a.fitness.cmp(&b.fitness).then(a.key.cmp(&b.key)));
        pop.dedup_by_key(|i| i.key);
        pop.truncate(POPULATION);
        report(&st, generations, &mut history);
        if let Some(s) = &mut span {
            s.arg("gen", generations);
            s.arg("evaluations", st.evals - evals_before);
            s.arg("measured", st.measurements.len() - measured_before);
            s.arg("best_cycles", history[history.len() - 1].best_cycles);
        }
        if let Some(m) = metrics {
            m.counter("search.generations").inc();
        }
    }

    let ab = st.final_ab(rule_key);
    if let Some(m) = metrics {
        m.counter("search.evaluations").add(st.evals);
        m.counter("search.memo.hit").add(st.memo_hits);
        m.counter("search.illegal_rejected").add(st.illegal);
        m.counter("search.measured")
            .add(st.measurements.len() as u64);
    }
    let winner = match &ab {
        Ok((key, _)) => st.seen.get(key),
        Err(_) => st.best(),
    };
    let (best_trace, best_score, best_counters) = match winner {
        Some(s) => (
            minimize_trace(base, target.device, &s.trace),
            s.score,
            s.counters.clone().unwrap_or_default(),
        ),
        // Every evaluation failed (evaluator returned None throughout):
        // surface the rule trace with a worst score rather than panicking.
        None => (rtrace.clone(), worst_score(), PerfCounters::default()),
    };
    SearchOutcome {
        best_trace,
        best_score,
        best_counters,
        rule_trace: rtrace,
        rule_score,
        evaluations: st.evals,
        memo_hits: st.memo_hits,
        illegal_rejected: st.illegal,
        generations,
        history,
        payoff,
        measured: ab.map(|(_, m)| m),
        measurements: st.measurements,
        measure_wall_ms: st.measure_time.as_secs_f64() * 1e3,
    }
}

/// A persisted best-of-search schedule: everything needed to replay the
/// searched schedule deterministically and to verify the win that justified
/// committing it. Stored as one JSON file per (workload, device,
/// shape-class) under `results/schedules/`.
#[derive(Debug, Clone, PartialEq)]
pub struct SavedSchedule {
    /// Workload name (bench naming: `subdivnet`, `longformer`, ...).
    pub workload: String,
    /// Device name (`cpu`).
    pub device: String,
    /// Shape class (bench scale key: `full` or `small`).
    pub scale: String,
    /// Search seed that produced this trace.
    pub seed: u64,
    /// Evaluation budget of the producing run.
    pub budget: u64,
    /// Wall-clock milliseconds the producing search spent (the cost of the
    /// tuning, reported alongside the replayed benefit).
    pub search_wall_ms: f64,
    /// Searched schedule's deterministic score.
    pub searched_cycles: f64,
    /// Searched schedule's DRAM traffic.
    pub searched_dram: u64,
    /// Rule-based (warm-start) score the search had to beat.
    pub rule_cycles: f64,
    /// Rule-based DRAM traffic.
    pub rule_dram: u64,
    /// The winning trace (accepted ops only).
    pub trace: Vec<ScheduleOp>,
    /// Final payoff table, for warm-starting future searches.
    pub payoff: PayoffTable,
    /// The measured verdict behind `trace`; `None` for a schedule searched
    /// on the model alone (no C compiler, or a file from before the field).
    pub measured: Option<Measured>,
}

impl Measured {
    fn to_json(&self) -> JsonVal {
        JsonVal::Obj(vec![
            ("wall_us".to_string(), JsonVal::Num(self.wall_us)),
            ("rule_wall_us".to_string(), JsonVal::Num(self.rule_wall_us)),
            ("noise_us".to_string(), JsonVal::Num(self.noise_us)),
            ("runs".to_string(), JsonVal::Num(self.runs as f64)),
            (
                "omp_threads".to_string(),
                JsonVal::Num(self.omp_threads as f64),
            ),
            ("nproc".to_string(), JsonVal::Num(self.nproc as f64)),
            ("cc".to_string(), JsonVal::Str(self.cc.clone())),
        ])
    }

    fn from_json(v: &JsonVal) -> Result<Measured, String> {
        let time = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonVal::as_f64)
                .filter(|us| us.is_finite() && *us >= 0.0)
                .ok_or_else(|| format!("`measured.{key}` is not a time in microseconds"))
        };
        let count = |key: &str| -> Result<u64, String> {
            v.get(key)
                .and_then(JsonVal::as_u64)
                .ok_or_else(|| format!("`measured.{key}` is not a count"))
        };
        Ok(Measured {
            wall_us: time("wall_us")?,
            rule_wall_us: time("rule_wall_us")?,
            noise_us: time("noise_us")?,
            runs: count("runs")?,
            omp_threads: count("omp_threads")?,
            nproc: count("nproc")?,
            cc: v
                .get("cc")
                .and_then(JsonVal::as_str)
                .ok_or("`measured.cc` is not a string")?
                .to_string(),
        })
    }
}

impl SavedSchedule {
    /// Canonical file name under `results/schedules/`.
    pub fn file_name(workload: &str, device: &str, scale: &str) -> String {
        format!("{workload}-{device}-{scale}.json")
    }

    /// Serialize as a JSON document.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            ("workload".to_string(), JsonVal::Str(self.workload.clone())),
            ("device".to_string(), JsonVal::Str(self.device.clone())),
            ("scale".to_string(), JsonVal::Str(self.scale.clone())),
            ("seed".to_string(), JsonVal::Num(self.seed as f64)),
            ("budget".to_string(), JsonVal::Num(self.budget as f64)),
            (
                "search_wall_ms".to_string(),
                JsonVal::Num(self.search_wall_ms),
            ),
            (
                "searched_cycles".to_string(),
                JsonVal::Num(self.searched_cycles),
            ),
            (
                "searched_dram".to_string(),
                JsonVal::Num(self.searched_dram as f64),
            ),
            ("rule_cycles".to_string(), JsonVal::Num(self.rule_cycles)),
            ("rule_dram".to_string(), JsonVal::Num(self.rule_dram as f64)),
            (
                "trace".to_string(),
                JsonVal::Arr(self.trace.iter().map(op_to_json).collect()),
            ),
            ("payoff".to_string(), self.payoff.to_json()),
        ];
        if let Some(m) = &self.measured {
            fields.push(("measured".to_string(), m.to_json()));
        }
        JsonVal::Obj(fields).to_string()
    }

    /// Parse [`SavedSchedule::to_json`] output. Fields this version does
    /// not know are ignored; `measured` may be absent.
    ///
    /// # Errors
    ///
    /// Describes the first malformed or missing field.
    pub fn from_json(s: &str) -> Result<SavedSchedule, String> {
        let v = JsonVal::parse(s)?;
        let str_field = |key: &str| -> Result<String, String> {
            v.get(key)
                .and_then(JsonVal::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field `{key}`"))
        };
        let num_field = |key: &str| -> Result<f64, String> {
            v.get(key)
                .and_then(JsonVal::as_f64)
                .ok_or_else(|| format!("missing numeric field `{key}`"))
        };
        let trace = v
            .get("trace")
            .and_then(JsonVal::as_arr)
            .ok_or("missing `trace` array")?
            .iter()
            .map(op_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let payoff = match v.get("payoff") {
            Some(p) => PayoffTable::from_json(p)?,
            None => PayoffTable::default(),
        };
        Ok(SavedSchedule {
            workload: str_field("workload")?,
            device: str_field("device")?,
            scale: str_field("scale")?,
            seed: num_field("seed")? as u64,
            budget: num_field("budget")? as u64,
            // Absent in schedules saved before the wall-clock axis existed.
            search_wall_ms: v
                .get("search_wall_ms")
                .and_then(JsonVal::as_f64)
                .unwrap_or(0.0),
            searched_cycles: num_field("searched_cycles")?,
            searched_dram: num_field("searched_dram")? as u64,
            rule_cycles: num_field("rule_cycles")?,
            rule_dram: num_field("rule_dram")? as u64,
            trace,
            payoff,
            measured: v.get("measured").map(Measured::from_json).transpose()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ft_ir::prelude::*;
    use ft_runtime::{ExecutionEngine, Runtime, TensorVal};
    use std::collections::HashMap;

    /// A SubdivNet-shaped toy: two fusable elementwise loops over a
    /// parallelizable index.
    fn toy() -> Func {
        Func::new("toy")
            .param("x", [256], DataType::F32, AccessType::Input)
            .param("t", [256], DataType::F32, AccessType::Output)
            .param("y", [256], DataType::F32, AccessType::Output)
            .body(block([
                for_(
                    "i",
                    0,
                    256,
                    store("t", [var("i")], load("x", [var("i")]) * 2.0f32),
                ),
                for_(
                    "j",
                    0,
                    256,
                    store("y", [var("j")], load("t", [var("j")]) + 1.0f32),
                ),
            ]))
    }

    fn toy_inputs() -> HashMap<String, TensorVal> {
        [(
            "x".to_string(),
            TensorVal::from_f32(&[256], (0..256).map(|v| (v as f32).sin()).collect()),
        )]
        .into_iter()
        .collect()
    }

    fn toy_eval(f: &Func) -> Option<PerfCounters> {
        Runtime::new()
            .run(f, &toy_inputs(), &HashMap::new())
            .ok()
            .map(|r| r.counters)
    }

    #[test]
    fn rule_trace_replays_to_the_rule_schedule() {
        let f = toy();
        let t = Target::cpu();
        let trace = rule_trace(&f, &t);
        // The rules fuse the two loops and parallelize, every op they were
        // granted replays, and the replay is their program.
        assert!(trace.iter().any(|o| matches!(o, ScheduleOp::Fuse { .. })));
        assert!(trace
            .iter()
            .any(|o| matches!(o, ScheduleOp::Parallelize { .. })));
        let (scheduled, accepted) = prepare_candidate(&f, Device::Cpu, &trace);
        assert_eq!(accepted, trace);
        let (placed, _) = prepare_candidate(&f, Device::Cpu, &[]);
        let rules = ft_passes::simplify(&crate::auto_schedule(&placed, &t));
        assert_eq!(scheduled.to_string(), rules.to_string());
        // And that schedule must actually beat the unscheduled program.
        let base_score = toy_eval(&f).unwrap().score();
        let rule_score = toy_eval(&scheduled).unwrap().score();
        assert!(rule_score < base_score, "{rule_score:?} vs {base_score:?}");
    }

    #[test]
    fn search_is_deterministic_across_runs_and_worker_counts() {
        let f = toy();
        let t = Target::cpu();
        let run = |workers: usize| {
            let config = SearchConfig {
                budget: 24,
                seed: 7,
                workers,
                ..SearchConfig::default()
            };
            search(&f, &t, &config, &toy_eval, None, None, None)
        };
        let a = run(1);
        let b = run(1);
        let c = run(4);
        assert_eq!(a.best_trace, b.best_trace);
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(
            a.best_trace, c.best_trace,
            "worker count changed the result"
        );
        assert_eq!(a.best_score, c.best_score);
        assert_eq!(a.memo_hits, c.memo_hits);
        assert_eq!(a.history, c.history);
    }

    #[test]
    fn search_beats_or_matches_rule_trace_and_respects_budget() {
        let f = toy();
        let t = Target::cpu();
        let metrics = Metrics::new();
        let config = SearchConfig {
            budget: 32,
            seed: 2022,
            ..SearchConfig::default()
        };
        let out = search(&f, &t, &config, &toy_eval, None, None, Some(&metrics));
        assert!(out.best_score <= out.rule_score);
        assert!(out.evaluations <= 32);
        // The winner must replay to the same score it was recorded with.
        let (replayed, _) = prepare_candidate(&f, Device::Cpu, &out.best_trace);
        let rc = toy_eval(&replayed).unwrap();
        assert!(rc.score_eq(&out.best_counters), "replay diverged");
        assert_eq!(rc.score(), out.best_score);
        // Metrics surfaced through the standard registry.
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("search.evaluations"), out.evaluations);
        assert_eq!(snap.counter("search.memo.hit"), out.memo_hits);
        assert!(snap.counter("search.illegal_rejected") == out.illegal_rejected);
        assert!(snap.gauges.contains_key("search.best_cycles"));
    }

    /// A hardware that hates threads: every OpenMP mark costs more than the
    /// whole serial program. The model believes the opposite.
    fn charges_parallel_marks(f: &Func) -> Option<f64> {
        Some(100.0 + 500.0 * f.to_string().matches("parallel=").count() as f64)
    }

    fn parallel_marks(f: &Func, trace: &[ScheduleOp]) -> usize {
        let (scheduled, _) = prepare_candidate(f, Device::Cpu, trace);
        scheduled.to_string().matches("parallel=").count()
    }

    fn measured_config() -> SearchConfig {
        SearchConfig {
            budget: 40,
            seed: 2022,
            ..SearchConfig::default()
        }
    }

    #[test]
    fn the_returned_trace_follows_the_measurer_where_it_disagrees_with_the_model() {
        let f = toy();
        let t = Target::cpu();
        let config = measured_config();
        let modeled = search(&f, &t, &config, &toy_eval, None, None, None);
        assert!(
            parallel_marks(&f, &modeled.best_trace) > 0,
            "the model alone is expected to parallelize the toy"
        );
        assert_eq!(modeled.measured, Err("no measurer".to_string()));
        assert!(modeled.measurements.is_empty());
        let out = search(
            &f,
            &t,
            &config,
            &toy_eval,
            Some(&charges_parallel_marks),
            None,
            None,
        );
        assert_eq!(
            parallel_marks(&f, &out.best_trace),
            0,
            "{:?}",
            out.best_trace
        );
        let m = out.measured.expect("the A/B ran");
        assert_eq!(m.runs, AB_ROUNDS as u64);
        assert_eq!(m.wall_us, 100.0);
        assert!(m.rule_wall_us > m.wall_us + m.noise_us);
        // The model's favourite is on the record with what it measured.
        assert!(out.best_score > modeled.best_score);
        assert_eq!(out.history.last().unwrap().best_wall_us, Some(100.0));
    }

    #[test]
    fn the_rule_trace_stands_when_nothing_beats_it_by_more_than_the_noise() {
        let f = toy();
        let t = Target::cpu();
        // Every program measures the same, the rule trace a little noisily:
        // no contender clears the margin however the model ranks them.
        let rule_key = prepare_candidate(&f, Device::Cpu, &rule_trace(&f, &t))
            .0
            .content_hash();
        let calls = std::cell::Cell::new(0u32);
        let flat = |g: &Func| {
            calls.set(calls.get() + 1);
            let jitter = f64::from(calls.get() % 3);
            Some(if g.content_hash() == rule_key {
                50.0 + jitter
            } else {
                50.0
            })
        };
        let out = search(
            &f,
            &t,
            &measured_config(),
            &toy_eval,
            Some(&flat),
            None,
            None,
        );
        let (replayed, _) = prepare_candidate(&f, Device::Cpu, &out.best_trace);
        assert_eq!(replayed.content_hash(), rule_key);
        assert_eq!(out.best_score, out.rule_score);
        let m = out.measured.expect("the A/B ran");
        assert_eq!(m.wall_us, m.rule_wall_us);
        assert!(m.noise_us > 0.0);
    }

    #[test]
    fn the_measurer_sees_each_program_once_and_a_bounded_share_of_each_generation() {
        let f = toy();
        let t = Target::cpu();
        let calls = std::cell::RefCell::new(Vec::new());
        let counting = |g: &Func| {
            calls.borrow_mut().push(g.content_hash());
            charges_parallel_marks(g)
        };
        let out = search(
            &f,
            &t,
            &measured_config(),
            &toy_eval,
            Some(&counting),
            None,
            None,
        );
        // Generation 0 measures both seeds.
        assert_eq!(out.history[0].measured, 2);
        for w in out.history.windows(2) {
            assert!(w[1].measured - w[0].measured <= MEASURED_PER_GEN as u64);
        }
        let calls = calls.into_inner();
        let searched = &calls[..out.measurements.len()];
        let keys: Vec<u64> = out.measurements.iter().map(|m| m.key).collect();
        assert_eq!(searched, keys);
        let distinct: BTreeSet<u64> = keys.iter().copied().collect();
        assert_eq!(distinct.len(), keys.len(), "a program was measured twice");
        assert!(out.measurements.len() > 2 && out.measurements.len() as u64 <= out.evaluations);
        // Everything after is the A/B: full rounds over at most the
        // finalists and the rule trace.
        let ab = calls.len() - searched.len();
        assert_eq!(ab % AB_ROUNDS, 0);
        assert!((1..=FINALISTS + 1).contains(&(ab / AB_ROUNDS)));
    }

    #[test]
    fn a_failing_measurer_ranks_last_and_never_panics() {
        let f = toy();
        let t = Target::cpu();
        // `cc` is broken: nothing can be timed, so the model's order stands
        // and there is no measured verdict to report.
        let broken = |_: &Func| None;
        let out = search(
            &f,
            &t,
            &measured_config(),
            &toy_eval,
            Some(&broken),
            None,
            None,
        );
        let why = out.measured.unwrap_err();
        assert_eq!(why, "the measurer failed on the rule trace");
        assert!(out.measurements.len() > 2);
        assert!(out.measurements.iter().all(|m| m.wall_us.is_none()));
        assert!(out.best_score < out.rule_score);
        assert_eq!(
            out.best_score.cycles(),
            out.history.last().unwrap().best_cycles
        );
        // It fails on parallel programs only: they rank behind every timed
        // one, so the winner is serial, and NaN is a failure too.
        let picky = |g: &Func| match charges_parallel_marks(g) {
            Some(us) if us > 100.0 => Some(f64::NAN),
            timed => timed,
        };
        let out = search(
            &f,
            &t,
            &measured_config(),
            &toy_eval,
            Some(&picky),
            None,
            None,
        );
        assert_eq!(parallel_marks(&f, &out.best_trace), 0);
        // The rule trace itself could not be timed: no A/B, no verdict.
        assert!(out.measured.is_err());
    }

    #[test]
    fn minimized_traces_replay_to_the_same_program_and_stay_minimal() {
        let f = toy();
        let padded = vec![
            ScheduleOp::Parallelize { loop_idx: 0 },
            ScheduleOp::Fuse {
                first_idx: 0,
                second_idx: 1,
            },
            ScheduleOp::Parallelize { loop_idx: 0 },
            ScheduleOp::Parallelize { loop_idx: 0 },
            ScheduleOp::SeparateTail { loop_idx: 0 },
        ];
        let key = |t: &[ScheduleOp]| prepare_candidate(&f, Device::Cpu, t).0.content_hash();
        let min = minimize_trace(&f, Device::Cpu, &padded);
        assert_eq!(key(&min), key(&padded));
        assert!(min.len() < padded.len(), "{min:?}");
        assert_eq!(minimize_trace(&f, Device::Cpu, &min), min);
        for i in 0..min.len() {
            let mut shorter = min.clone();
            shorter.remove(i);
            assert_ne!(key(&shorter), key(&min), "op {i} of {min:?} is redundant");
        }
        // What search returns is already minimal.
        let out = search(
            &f,
            &Target::cpu(),
            &measured_config(),
            &toy_eval,
            None,
            None,
            None,
        );
        assert_eq!(
            minimize_trace(&f, Device::Cpu, &out.best_trace),
            out.best_trace
        );
    }

    fn saved() -> SavedSchedule {
        let mut payoff = PayoffTable::default();
        payoff.credit("split", true);
        payoff.credit("split", false);
        payoff.credit("parallelize", true);
        SavedSchedule {
            workload: "subdivnet".to_string(),
            device: "cpu".to_string(),
            scale: "small".to_string(),
            seed: 2022,
            budget: 256,
            search_wall_ms: 321.5,
            searched_cycles: 12345.5,
            searched_dram: 1 << 20,
            rule_cycles: 23456.0,
            rule_dram: 1 << 21,
            trace: vec![
                ScheduleOp::Fuse {
                    first_idx: 0,
                    second_idx: 1,
                },
                ScheduleOp::Parallelize { loop_idx: 0 },
                ScheduleOp::SetMtype { def_idx: 0 },
            ],
            payoff,
            measured: None,
        }
    }

    #[test]
    fn saved_schedule_roundtrips_with_and_without_measured() {
        let mut s = saved();
        let text = s.to_json();
        assert!(!text.contains("measured"));
        assert_eq!(SavedSchedule::from_json(&text).unwrap(), s);
        s.measured = Some(Measured {
            wall_us: 61.25,
            rule_wall_us: 70.5,
            noise_us: 1.75,
            runs: 10,
            omp_threads: 2,
            nproc: 2,
            cc: "cc (Debian 12.2.0-14) 12.2.0".to_string(),
        });
        assert_eq!(SavedSchedule::from_json(&s.to_json()).unwrap(), s);
        assert_eq!(
            SavedSchedule::file_name("subdivnet", "cpu", "small"),
            "subdivnet-cpu-small.json"
        );
        assert!(SavedSchedule::from_json("{}").is_err());
    }

    #[test]
    fn saved_schedule_ignores_unknown_fields_and_names_a_malformed_measured_one() {
        let s = saved();
        let text = s.to_json();
        let with = |extra: &str| format!("{}, {extra}}}", text.strip_suffix('}').unwrap());
        let parsed = SavedSchedule::from_json(&with(r#""from_the_future": [1, {"x": 2}]"#));
        assert_eq!(parsed.unwrap(), s);
        let unknown_inside = r#""measured": {"wall_us": 1, "rule_wall_us": 2, "noise_us": 0,
            "runs": 10, "omp_threads": 2, "nproc": 2, "cc": "gcc", "governor": "performance"}"#;
        let parsed = SavedSchedule::from_json(&with(unknown_inside)).unwrap();
        assert_eq!(parsed.measured.unwrap().rule_wall_us, 2.0);
        for (bad, field) in [
            (r#""measured": 3"#, "measured.wall_us"),
            (r#""measured": {"wall_us": "fast"}"#, "measured.wall_us"),
            (
                r#""measured": {"wall_us": 1, "rule_wall_us": -2}"#,
                "measured.rule_wall_us",
            ),
            (
                r#""measured": {"wall_us": 1, "rule_wall_us": 2, "noise_us": 0, "runs": "ten"}"#,
                "measured.runs",
            ),
        ] {
            let err = SavedSchedule::from_json(&with(bad)).unwrap_err();
            assert!(err.contains(field), "{bad}: {err}");
        }
    }

    #[test]
    fn payoff_table_shifts_weights_toward_winners() {
        let mut p = PayoffTable::default();
        let base = p.weight_millis("split", 3);
        for _ in 0..10 {
            p.credit("split", true);
        }
        assert!(p.weight_millis("split", 3) > base);
        for _ in 0..20 {
            p.credit("merge", false);
        }
        assert!(p.weight_millis("merge", 1) < PayoffTable::default().weight_millis("merge", 1));
        // Weights never hit zero: every kind stays reachable.
        assert!(p.weight_millis("merge", 1) >= 1);
        // Round-trips through JSON.
        let back = PayoffTable::from_json(&p.to_json()).unwrap();
        assert_eq!(p, back);
    }
}
