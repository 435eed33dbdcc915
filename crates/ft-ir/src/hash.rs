//! The one FNV-1a loop, with the one (standard) prime, that every content
//! key in the workspace goes through: artifact-cache keys (over the emitted
//! unit), `MemPlan::plan_hash`, output digests, per-variant fuzz seeds, and
//! [`Func::content_hash`], behind request keys and schedule-search keys.

use crate::expr::Expr;
use crate::func::Func;
use crate::stmt::{Stmt, StmtKind};
use crate::visit::{walk_expr, Visitor};
use std::fmt::Write as _;

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

    /// Absorb a 64-bit word in one FNV step (not its eight bytes): the
    /// structural key's integers, float bits and lengths.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.state = (self.state ^ word).wrapping_mul(PRIME);
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

impl Func {
    /// Structural content key: FNV-1a ([`Fnv1a`]) over what the printer
    /// prints (names, labels, shapes, types, loop marks, constants), never
    /// statement ids; a tag, operator or type is one byte, an integer, float
    /// bits or a length one [`write_u64`](Fnv1a::write_u64) word. It reads
    /// the tree as the printer lays it out, so two functions share it when
    /// they print alike (it only tells a negative literal from a negated
    /// one, and NaN payloads apart). Allocates nothing.
    pub fn content_hash(&self) -> u64 {
        let mut k = Key(Fnv1a::new());
        k.name(&self.name).word(self.params.len() as u64);
        for p in &self.params {
            let types = [p.dtype as u8, p.mtype as u8, p.atype as u8];
            k.tag(&types).name(&p.name).word(p.shape.len() as u64);
            p.shape.iter().for_each(|e| k.visit_expr(e));
        }
        k.word(self.size_params.len() as u64);
        self.size_params.iter().for_each(|s| _ = k.name(s));
        k.visit_stmt(&self.body);
        k.0.finish()
    }
}

/// The walk behind [`Func::content_hash`].
struct Key(Fnv1a);

impl Key {
    /// Absorb one-byte fields: a tag, operators, types.
    fn tag(&mut self, bytes: &[u8]) -> &mut Key {
        self.0.write(bytes);
        self
    }

    /// Absorb a name, then a byte no UTF-8 text holds.
    fn name(&mut self, s: &str) -> &mut Key {
        self.0.write(s.as_bytes());
        self.tag(&[0xff])
    }

    fn word(&mut self, w: u64) -> &mut Key {
        self.0.write_u64(w);
        self
    }
}

impl Visitor for Key {
    fn visit_stmt(&mut self, s: &Stmt) {
        use StmtKind as K;
        match &s.kind {
            K::Block(v) if v.iter().any(|c| !matches!(c.kind, K::Empty)) => {}
            K::Block(_) | K::Empty => _ = self.tag(b"p"),
            K::VarDef {
                name, dtype, mtype, ..
            } => _ = self.tag(&[b'd', *dtype as u8, *mtype as u8]).name(name),
            K::For {
                iter, property: p, ..
            } => {
                let flags = [p.unroll, p.vectorize, s.label.is_some()].map(u8::from);
                self.tag(&[b'f', p.parallel as u8]).tag(&flags).name(iter);
                s.label.iter().for_each(|l| _ = self.name(l));
            }
            K::If { .. } => _ = self.tag(b"c"),
            K::Store { var, .. } => _ = self.tag(b"s").name(var),
            K::ReduceTo {
                var, op, atomic, ..
            } => _ = self.tag(&[b'r', *op as u8, u8::from(*atomic)]).name(var),
            // Rare (no benchmark program has one): its fields via `Debug`.
            K::LibCall { .. } => _ = write!(self.0, "x{:?}", s.kind),
        }
        // A block's statements print at its own level, `Empty` ones not at
        // all; a loop's or branch's body is indented, and `;` ends it.
        let block = matches!(s.kind, K::Block(_) | K::Empty);
        let nested = matches!(s.kind, K::For { .. } | K::If { .. });
        if !block {
            self.word(s.exprs().count() as u64);
            s.exprs().for_each(|e| self.visit_expr(e));
        }
        for (i, c) in s.children().enumerate() {
            if block && matches!(c.kind, K::Empty) {
                continue;
            }
            if nested && i == 1 {
                self.tag(b"e");
            }
            self.visit_stmt(c);
            if nested {
                self.tag(b";");
            }
        }
    }

    fn visit_expr(&mut self, e: &Expr) {
        _ = match e {
            Expr::IntConst(v) => self.tag(b"i").word(*v as u64),
            Expr::FloatConst(v) => self.tag(b"f").word(v.to_bits()),
            Expr::BoolConst(v) => self.tag(&[b'b', u8::from(*v)]),
            Expr::Var(n) => self.tag(b"v").name(n),
            Expr::Load { var, indices } => self.tag(b"l").name(var).word(indices.len() as u64),
            Expr::Unary { op, .. } => self.tag(&[b'u', *op as u8]),
            Expr::Binary { op, .. } => self.tag(&[b'o', *op as u8]),
            Expr::Select { .. } => self.tag(b"?"),
            Expr::Cast { dtype, .. } => self.tag(&[b'c', *dtype as u8]),
        };
        walk_expr(self, e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

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

    #[test]
    fn write_u64_is_one_fnv_step() {
        let mut h = Fnv1a::new();
        h.write_u64(0x61);
        assert_eq!(h.finish(), fnv1a(b"a"));
    }

    /// Where the printer's layout merges two trees, the key does too: a
    /// block prints its statements at its own level and skips `Empty` ones,
    /// a def's body prints as the def's siblings. A loop's or branch's body
    /// is indented, so the key tells where it ends.
    #[test]
    fn content_hash_reads_the_tree_as_the_printer_lays_it_out() {
        let st = |v: f32| store("y", [0], v);
        let def = |body| var_def("t", scalar(), DataType::F32, MemType::CpuStack, body);
        let func = |body| {
            Func::new("f")
                .param("y", [4], DataType::F32, AccessType::Output)
                .body(body)
        };
        let alike = [
            (
                block([st(1.0), block([st(2.0), empty()])]),
                block([st(1.0), st(2.0)]),
            ),
            (
                block([def(st(1.0)), st(2.0)]),
                def(block([st(1.0), st(2.0)])),
            ),
            (block([empty(), block([])]), empty()),
        ];
        for (a, b) in alike {
            let (a, b) = (func(a), func(b));
            assert_eq!(a.to_string(), b.to_string());
            assert_eq!(a.content_hash(), b.content_hash(), "{a}");
        }
        let cond = var("n").lt(2);
        let apart = [
            (
                block([for_("i", 0, 4, st(1.0)), st(2.0)]),
                for_("i", 0, 4, block([st(1.0), st(2.0)])),
            ),
            (
                block([if_(cond.clone(), st(1.0)), st(2.0)]),
                if_else(cond.clone(), st(1.0), st(2.0)),
            ),
            (if_else(cond.clone(), st(1.0), empty()), if_(cond, st(1.0))),
        ];
        for (a, b) in apart {
            let (a, b) = (func(a), func(b));
            assert_ne!(a.to_string(), b.to_string());
            assert_ne!(a.content_hash(), b.content_hash(), "{a}");
        }
    }
}
