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
}
