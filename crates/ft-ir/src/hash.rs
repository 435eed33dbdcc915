//! The one FNV-1a loop every content key in the workspace goes through
//! (artifact-cache keys, `MemPlan::plan_hash`, schedule `canonical_key`,
//! request keys, per-variant fuzz seeds).

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV 64-bit prime, 2^40 + 0x1b3.
const PRIME: u64 = 0x0000_0100_0000_01b3;
/// 2^44 + 0x1b3. Not the FNV prime: `MemPlan::plan_hash`, the schedule
/// `canonical_key` and the conformance/fuzz seed derivations were written
/// with it, and their values are observable (plan hashes feed the
/// artifact-cache key; the seeds decide which schedules the blocking
/// sweeps sample), so the multiplier stays and gets a name.
const PRIME_P44: u64 = 0x0000_1000_0000_01b3;

/// Streaming 64-bit FNV-1a: feeding the same bytes through any split of
/// [`write`](Fnv1a::write) calls gives the same [`finish`](Fnv1a::finish).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
    prime: u64,
}

impl Fnv1a {
    /// Standard FNV-1a.
    pub const fn new() -> Fnv1a {
        Fnv1a {
            state: OFFSET,
            prime: PRIME,
        }
    }

    /// The 2^44 + 0x1b3 multiplier variant (see the module source for which
    /// keys are pinned to it). New keys use [`Fnv1a::new`].
    pub const fn new_p44() -> Fnv1a {
        Fnv1a {
            state: OFFSET,
            prime: PRIME_P44,
        }
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(self.prime);
        }
    }

    /// The hash of everything written so far.
    #[inline]
    pub const fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv1a {
    fn default() -> Fnv1a {
        Fnv1a::new()
    }
}

/// Standard FNV-1a of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

/// [`Fnv1a::new_p44`] of one byte string.
pub fn fnv1a_p44(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new_p44();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_and_split_writes() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        // The pinned variant: one step is (basis ^ 'a') * (2^44 + 0x1b3).
        assert_eq!(fnv1a_p44(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(
            fnv1a_p44(b"a"),
            (0xcbf2_9ce4_8422_2325u64 ^ 0x61).wrapping_mul((1 << 44) + 0x1b3)
        );
        for make in [Fnv1a::new, Fnv1a::new_p44] {
            let mut whole = make();
            whole.write(b"plan|x|4096");
            let mut split = make();
            split.write(b"plan|");
            split.write(b"");
            split.write(b"x|4096");
            assert_eq!(whole.finish(), split.finish());
        }
    }
}
