//! Performance counters and the L2 cache simulator.

use std::collections::HashMap;

/// A set-associative cache simulator with LRU replacement and 64-byte lines.
///
/// Heap/global accesses are pushed through this model; a hit counts as L2
/// traffic, a miss as DRAM traffic — matching the DRAM/L2 breakdown the
/// paper profiles in Fig. 17.
#[derive(Debug, Clone)]
pub struct CacheSim {
    sets: Vec<Vec<u64>>, // per set: line tags, most-recently-used last
    ways: usize,
    set_mask: u64,
    /// Number of accesses that hit in the cache.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
}

/// Cache line size in bytes.
pub const LINE: u64 = 64;

/// The reason a requested cache geometry is not exactly realizable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheGeometryError {
    /// `ways` was zero.
    ZeroWays,
    /// `size` holds fewer lines than one full set (`size < ways * LINE`),
    /// so the derived set count is zero.
    TooSmall,
    /// The derived set count is not a power of two, which the mask-based
    /// indexing requires.
    NonPowerOfTwoSets(usize),
}

impl CacheSim {
    /// Build a simulator of `size` bytes with `ways`-way associativity.
    ///
    /// Geometries that are not exactly realizable are clamped to the nearest
    /// valid one instead of panicking: `ways` is raised to at least 1, and
    /// the set count is rounded *down* to a power of two, with a floor of
    /// one set. Use [`CacheSim::try_new`] to reject inexact geometries
    /// instead.
    pub fn new(size: usize, ways: usize) -> CacheSim {
        let ways = ways.max(1);
        let raw_sets = size / (ways * LINE as usize);
        let n_sets = if raw_sets == 0 {
            1
        } else {
            1 << raw_sets.ilog2()
        };
        CacheSim {
            sets: vec![Vec::with_capacity(ways); n_sets],
            ways,
            set_mask: n_sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Build a simulator only if `size` and `ways` describe an exact
    /// geometry (a positive power-of-two set count).
    ///
    /// # Errors
    ///
    /// [`CacheGeometryError`] naming what is wrong with the request.
    pub fn try_new(size: usize, ways: usize) -> Result<CacheSim, CacheGeometryError> {
        if ways == 0 {
            return Err(CacheGeometryError::ZeroWays);
        }
        let n_sets = size / (ways * LINE as usize);
        if n_sets == 0 {
            return Err(CacheGeometryError::TooSmall);
        }
        if !n_sets.is_power_of_two() {
            return Err(CacheGeometryError::NonPowerOfTwoSets(n_sets));
        }
        Ok(CacheSim::new(size, ways))
    }

    /// Number of sets the simulator settled on.
    pub fn n_sets(&self) -> usize {
        self.sets.len()
    }

    /// Access `len` bytes starting at `addr`; touches every covered line.
    pub fn access(&mut self, addr: u64, len: u64) {
        let first = addr / LINE;
        let last = (addr + len.max(1) - 1) / LINE;
        for line in first..=last {
            self.touch(line);
        }
    }

    fn touch(&mut self, line: u64) {
        let set = (line & self.set_mask) as usize;
        let tags = &mut self.sets[set];
        if let Some(pos) = tags.iter().position(|&t| t == line) {
            tags.remove(pos);
            tags.push(line);
            self.hits += 1;
        } else {
            if tags.len() == self.ways {
                tags.remove(0);
            }
            tags.push(line);
            self.misses += 1;
        }
    }

    /// Forget all cached lines but keep the counters.
    pub fn flush(&mut self) {
        for s in &mut self.sets {
            s.clear();
        }
    }
}

/// Aggregated execution counters of one run.
///
/// `PartialEq` compares every field exactly (including `modeled_cycles`,
/// which is an `f64`): the bytecode VM's instrumented mode is required to
/// reproduce the interpreter's counters bit-for-bit, and the differential
/// tests assert that with `==`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfCounters {
    /// GPU kernel launches (outermost GPU-parallel region entries).
    pub kernel_launches: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Integer/addressing operations executed.
    pub int_ops: u64,
    /// Bytes moved to/from DRAM (cache-line granularity misses).
    pub dram_bytes: u64,
    /// Bytes served by the simulated L2.
    pub l2_bytes: u64,
    /// Bytes accessed in scratch memories (stack / shared / registers).
    pub scratch_bytes: u64,
    /// Raw bytes requested from heap/global memory (before the cache model).
    pub heap_bytes: u64,
    /// Current live bytes per device name ("cpu" / "gpu").
    pub live_bytes: HashMap<String, u64>,
    /// Peak live bytes per device name.
    pub peak_bytes: HashMap<String, u64>,
    /// Modeled execution time in cycle units (parallelism-aware).
    pub modeled_cycles: f64,
}

impl PerfCounters {
    /// Record an allocation on a device; returns the new live size.
    /// Saturating: a pathological allocation stream pins at `u64::MAX`
    /// instead of wrapping (a wrapped `live_bytes` would also corrupt the
    /// peak tracking below it).
    pub fn alloc(&mut self, device: &str, bytes: u64) -> u64 {
        let live = self.live_bytes.entry(device.to_string()).or_insert(0);
        *live = live.saturating_add(bytes);
        let live_now = *live;
        let peak = self.peak_bytes.entry(device.to_string()).or_insert(0);
        if live_now > *peak {
            *peak = live_now;
        }
        live_now
    }

    /// Record a deallocation on a device.
    pub fn free(&mut self, device: &str, bytes: u64) {
        if let Some(live) = self.live_bytes.get_mut(device) {
            *live = live.saturating_sub(bytes);
        }
    }

    /// The search objective of this run: quantized `modeled_cycles` first,
    /// `dram_bytes` as the tiebreak. See [`ScheduleScore`].
    pub fn score(&self) -> ScheduleScore {
        ScheduleScore::new(self.modeled_cycles, self.dram_bytes)
    }

    /// Whether two runs score equally *for schedule-search purposes*:
    /// `modeled_cycles` within relative epsilon (and `dram_bytes` exactly).
    ///
    /// `PerfCounters::eq` intentionally stays bit-exact — the VM-parity
    /// differential tests depend on that — but a search comparing candidate
    /// schedules must not let accumulated float drift (e.g. a different
    /// merge order of per-thread counters) make two identical schedules
    /// compare unequal and churn the population. Use this (or [`score`],
    /// whose quantization is coarser than the epsilon here) for ranking.
    ///
    /// [`score`]: PerfCounters::score
    pub fn score_eq(&self, other: &PerfCounters) -> bool {
        let a = self.modeled_cycles;
        let b = other.modeled_cycles;
        let cycles_close = if a == b {
            true // covers 0.0 == 0.0 and exact equality
        } else {
            (a - b).abs() <= SCORE_REL_EPS * a.abs().max(b.abs())
        };
        cycles_close && self.dram_bytes == other.dram_bytes
    }
}

/// Relative tolerance under which two `modeled_cycles` values are the same
/// schedule score (~2^-26, i.e. half the f64 mantissa): large enough to
/// absorb any realistic accumulation-order drift, far smaller than the
/// effect of a real schedule change.
pub const SCORE_REL_EPS: f64 = 1.5e-8;

/// A total-order key over `(modeled_cycles, dram_bytes)` for ranking
/// candidate schedules: lower is better, `Ord` is derived, and the cycle
/// component is *quantized* so values within float-drift distance of each
/// other collapse to the same key.
///
/// Quantization masks the low 26 mantissa bits of the `f64` bit pattern.
/// For non-negative finite doubles the bit pattern is monotone as a `u64`,
/// so masking preserves order while bucketing values whose relative
/// difference is below ~2^-26 — the same scale as [`SCORE_REL_EPS`]. Two
/// runs that `score_eq` therefore map to equal or adjacent keys, and the
/// derived lexicographic order falls through to deterministic `dram_bytes`
/// on ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ScheduleScore {
    /// Quantized `modeled_cycles` bit pattern (primary objective).
    pub cycles_q: u64,
    /// Exact `dram_bytes` (deterministic tiebreak).
    pub dram_bytes: u64,
}

impl ScheduleScore {
    /// Mask clearing the low 26 of the 52 f64 mantissa bits.
    const QUANT_MASK: u64 = !((1u64 << 26) - 1);

    /// Build the key from raw counter values. Negative or NaN cycle values
    /// cannot occur in real runs; they rank last so a corrupted candidate
    /// never wins the search.
    pub fn new(modeled_cycles: f64, dram_bytes: u64) -> ScheduleScore {
        let cycles_q = if modeled_cycles.is_finite() && modeled_cycles >= 0.0 {
            modeled_cycles.to_bits() & Self::QUANT_MASK
        } else {
            u64::MAX
        };
        ScheduleScore {
            cycles_q,
            dram_bytes,
        }
    }

    /// The representative `modeled_cycles` of this key's bucket (for
    /// display; `u64::MAX` decodes as infinity).
    pub fn cycles(&self) -> f64 {
        if self.cycles_q == u64::MAX {
            f64::INFINITY
        } else {
            f64::from_bits(self.cycles_q)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_hits_on_reuse() {
        let mut c = CacheSim::new(1 << 16, 4);
        c.access(0, 4);
        c.access(4, 4); // same line
        c.access(64, 4); // next line
        assert_eq!(c.misses, 2);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn cache_evicts_lru() {
        // 2 sets * 2 ways * 64B = 256B cache; lines mapping to set 0:
        // 0, 128, 256, ... (line index even).
        let mut c = CacheSim::new(256, 2);
        c.access(0, 1); // set 0: [0]
        c.access(128, 1); // set 0: [0, 2]
        c.access(256, 1); // evicts line 0
        c.access(0, 1); // miss again
        assert_eq!(c.misses, 4);
        assert_eq!(c.hits, 0);
        // Re-touching 0 now hits (it was just brought back).
        c.access(0, 1);
        assert_eq!(c.hits, 1);
    }

    #[test]
    fn small_geometry_clamps_to_one_set() {
        // size < ways * LINE used to derive zero sets and panic; it now
        // clamps to a single fully-associative set.
        let mut c = CacheSim::new(64, 4);
        assert_eq!(c.n_sets(), 1);
        c.access(0, 4);
        c.access(0, 4);
        assert_eq!((c.misses, c.hits), (1, 1));
    }

    #[test]
    fn non_power_of_two_sets_round_down() {
        // 3 * 64B direct-mapped → 3 raw sets → clamped down to 2.
        let c = CacheSim::new(3 * 64, 1);
        assert_eq!(c.n_sets(), 2);
        // 5 raw sets → 4.
        assert_eq!(CacheSim::new(5 * 64, 1).n_sets(), 4);
    }

    #[test]
    fn degenerate_geometries_do_not_panic() {
        assert_eq!(CacheSim::new(0, 4).n_sets(), 1);
        assert_eq!(CacheSim::new(256, 0).n_sets(), 4); // ways clamped to 1
        let mut c = CacheSim::new(1, 1);
        c.access(1 << 40, 16); // high address in a 1-set cache, still fine
        assert!(c.misses > 0);
    }

    #[test]
    fn try_new_reports_the_defect() {
        assert_eq!(
            CacheSim::try_new(256, 0).unwrap_err(),
            CacheGeometryError::ZeroWays
        );
        assert_eq!(
            CacheSim::try_new(63, 1).unwrap_err(),
            CacheGeometryError::TooSmall
        );
        assert_eq!(
            CacheSim::try_new(3 * 64, 1).unwrap_err(),
            CacheGeometryError::NonPowerOfTwoSets(3)
        );
        assert!(CacheSim::try_new(1 << 16, 4).is_ok());
    }

    #[test]
    fn multi_line_access_touches_all_lines() {
        let mut c = CacheSim::new(1 << 16, 4);
        c.access(60, 8); // straddles the 0..64 and 64..128 lines
        assert_eq!(c.misses, 2);
    }

    #[test]
    fn alloc_tracks_peak() {
        let mut p = PerfCounters::default();
        p.alloc("gpu", 100);
        p.alloc("gpu", 50);
        p.free("gpu", 120);
        p.alloc("gpu", 10);
        assert_eq!(p.peak_bytes["gpu"], 150);
        assert_eq!(p.live_bytes["gpu"], 40);
    }

    #[test]
    fn alloc_saturates_instead_of_wrapping() {
        let mut p = PerfCounters::default();
        p.alloc("gpu", u64::MAX - 1);
        assert_eq!(p.alloc("gpu", 100), u64::MAX);
        assert_eq!(p.peak_bytes["gpu"], u64::MAX);
    }

    #[test]
    fn score_eq_absorbs_float_drift_but_not_real_changes() {
        let base = PerfCounters {
            modeled_cycles: 1.0e9,
            dram_bytes: 1 << 20,
            ..Default::default()
        };
        // A value one ulp-accumulation away (simulating a different merge
        // order of per-thread partial sums) must still compare equal for
        // search, even though exact PartialEq distinguishes it.
        let mut drifted = base.clone();
        drifted.modeled_cycles = 1.0e9 + 1.0; // rel diff 1e-9 < SCORE_REL_EPS
        assert_ne!(base, drifted);
        assert!(base.score_eq(&drifted));
        assert!(drifted.score_eq(&base));
        // A real schedule change (0.1% fewer cycles) is a different score.
        let mut better = base.clone();
        better.modeled_cycles = 0.999e9;
        assert!(!base.score_eq(&better));
        // dram_bytes is an exact, deterministic counter: any difference is a
        // different score even at identical cycles.
        let mut more_dram = base.clone();
        more_dram.dram_bytes += 64;
        assert!(!base.score_eq(&more_dram));
        // Zero-cycle runs compare equal to themselves.
        let zero = PerfCounters::default();
        assert!(zero.score_eq(&PerfCounters::default()));
    }

    #[test]
    fn schedule_score_orders_by_quantized_cycles_then_dram() {
        let a = ScheduleScore::new(1.0e9, 100);
        let drift = ScheduleScore::new(1.0e9 + 1.0, 100);
        // Drift-distance values collapse to the same key...
        assert_eq!(a, drift);
        // ...real differences order correctly...
        assert!(ScheduleScore::new(0.999e9, 100) < a);
        assert!(a < ScheduleScore::new(1.001e9, 100));
        // ...and dram_bytes breaks exact-cycle ties deterministically.
        assert!(a < ScheduleScore::new(1.0e9, 101));
        // Corrupted values rank last, never winning a search.
        assert!(ScheduleScore::new(f64::NAN, 0) > ScheduleScore::new(1.0e12, u64::MAX));
        assert_eq!(ScheduleScore::new(f64::NAN, 0).cycles(), f64::INFINITY);
        // score() is consistent with score_eq(): equal keys for drift pairs.
        let p1 = PerfCounters {
            modeled_cycles: 1.0e9,
            dram_bytes: 7,
            ..Default::default()
        };
        let mut p2 = p1.clone();
        p2.modeled_cycles = 1.0e9 + 1.0;
        assert!(p1.score_eq(&p2));
        assert_eq!(p1.score(), p2.score());
    }
}
