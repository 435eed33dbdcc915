//! The one FNV-1a loop, with the one (standard) prime, that every content
//! key in the workspace goes through: artifact-cache keys (streamed over the
//! unit `ft-codegen` emits), `MemPlan::plan_hash`, schedule `canonical_key`
//! and request keys (both stream a program's `Display` in through
//! [`std::fmt::Write`], no `String`), output digests, per-variant fuzz seeds.

/// FNV-1a 64-bit offset basis.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// The FNV 64-bit prime, 2^40 + 0x1b3.
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streaming 64-bit FNV-1a: feeding the same bytes through any split of
/// [`write`](Fnv1a::write) calls gives the same [`finish`](Fnv1a::finish).
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a {
    state: u64,
}

impl Fnv1a {
    /// Standard FNV-1a.
    pub const fn new() -> Fnv1a {
        Fnv1a { state: OFFSET }
    }

    /// Absorb `bytes`.
    #[inline]
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ u64::from(b)).wrapping_mul(PRIME);
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

/// `write!(h, "{x}")` is `h.write(x.to_string().as_bytes())` without the
/// `String`: the hash does not depend on how `Display` chunks its output.
impl std::fmt::Write for Fnv1a {
    #[inline]
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// Standard FNV-1a of one byte string.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;
    use std::fmt::Write as _;

    #[test]
    fn known_answers_and_split_writes() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
        let mut whole = Fnv1a::new();
        whole.write(b"plan|x|4096");
        let mut split = Fnv1a::new();
        split.write(b"plan|");
        split.write(b"");
        split.write(b"x|4096");
        assert_eq!(whole.finish(), split.finish());
        // Streaming a program's `Display` is hashing its printed text.
        let func = Func::new("f")
            .param("y", [4], DataType::F32, AccessType::Output)
            .body(for_("i", 0, 4, store("y", [var("i")], 1.0f32)));
        let mut streamed = Fnv1a::new();
        write!(streamed, "{func}").unwrap();
        assert_eq!(streamed.finish(), fnv1a(func.to_string().as_bytes()));
    }
}
