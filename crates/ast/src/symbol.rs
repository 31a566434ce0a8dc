//! Interned identifiers.
//!
//! Every name in a program — predicate symbols, variable names, constant
//! symbols — is interned once in a process-global table and thereafter
//! represented by a 4-byte [`Symbol`]. Equality and hashing are integer
//! operations; the text is recovered with [`Symbol::as_str`].
//!
//! The table leaks its strings deliberately: interned names live for the
//! lifetime of the process (the set of distinct identifiers is bounded by
//! the input programs), and leaking lets `as_str` hand out `&'static str`
//! without reference-counting overhead. This is the standard compiler
//! interner design. New text is copied into a **text arena**: leaked
//! 64 KiB chunks filled back to back, so a new name costs a copy, not an
//! allocation of its own. A chunk's unused tail is abandoned when the
//! next name does not fit it; a name longer than a chunk gets a leaked
//! allocation of its own.
//!
//! **Reads take no lock.** [`Symbol::intern`] serializes writers on a
//! mutex guarding the text → id map, but [`Symbol::as_str`] never touches
//! it: id → text lives in append-only segments of atomic slots. Segment
//! `s` holds 2^(6+s) slots, is allocated (zeroed, so its untouched pages
//! cost nothing) when the first id that falls in it is interned, and is
//! published once and never moves; each slot is written once, after its
//! text, with release ordering. A slot is one thin pointer to the leaked
//! text, which carries its length in a 4-byte prefix, so a symbol costs
//! 8 bytes of slot where a `Vec<&str>` entry cost 16.
//!
//! Two gauges watch the table's growth: `tiebreak_interned_symbols`
//! (distinct names) and `tiebreak_interned_bytes` (the bytes of every
//! name's text plus its 4-byte length prefix — not chunk capacity, so
//! each new name adds exactly `4 + len`). Both are set from the interner's own
//! totals under the writer lock, so they never run backwards and a
//! metrics reset lasts only until the next new name.
//!
//! Three transparent newtypes keep the kinds apart at compile time:
//! [`PredSym`] for predicate symbols, [`VarSym`] for variables, and
//! [`ConstSym`] for constants. Mixing them up is a type error, which is
//! load-bearing in the alphabetic-variant constructions where predicate
//! names survive but argument patterns are rewritten.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ptr;
use std::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

use crate::fxhash::FxHasher;

/// An interned string. Cheap to copy, compare, and hash.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

/// log2 of the first segment's slot count.
const FIRST_SEGMENT_BITS: u32 = 6;
/// Enough doubling segments to address every `u32` id.
const SEGMENT_COUNT: usize = (33 - FIRST_SEGMENT_BITS) as usize;
/// Bytes of the length prefix in front of each leaked text.
const LEN_PREFIX: usize = 4;
/// Bytes of one text-arena chunk.
const CHUNK: usize = 64 << 10;

/// The id → text directory: segment `s` points at 2^(6+s) slots, each
/// null or a pointer to a length-prefixed leaked text. Written only under
/// the [`texts`] lock; read without any lock.
static SEGMENTS: [AtomicPtr<AtomicPtr<u8>>; SEGMENT_COUNT] =
    [const { AtomicPtr::new(ptr::null_mut()) }; SEGMENT_COUNT];

/// Bytes of every leaked text, length prefixes included. Written only
/// under the [`texts`] lock.
static TEXT_BYTES: AtomicU64 = AtomicU64::new(0);

/// The hasher of the text → id map: Fx with its well-mixed high bits
/// rotated down. The table picks buckets from the low bits, and Fx
/// leaves those clustered for names that differ only in their last
/// bytes (`u0p1n2`, `u0p1n3`, …), so lookups probe long runs once
/// hundreds of thousands of such names are interned. Only this map uses
/// it: nothing iterates the map, so no id or output depends on it.
#[derive(Default)]
struct NameHasher(FxHasher);

impl Hasher for NameHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.finish().rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.0.write_u8(n);
    }
}

type NameMap = HashMap<&'static str, u32, BuildHasherDefault<NameHasher>>;

/// The writer side of the interner.
#[derive(Default)]
struct Texts {
    /// The text → id map. Its length is the next id to hand out.
    map: NameMap,
    /// The unused tail of the current text-arena chunk.
    free: &'static mut [u8],
}

impl Texts {
    /// Copies `text` behind its 4-byte little-endian length into the
    /// arena, returning the leaked prefix-and-text bytes.
    fn store(&mut self, text: &str) -> &'static [u8] {
        let len = u32::try_from(text.len()).expect("symbol text longer than 4 GiB");
        let need = LEN_PREFIX + text.len();
        let dest = if need > CHUNK {
            Box::leak(vec![0u8; need].into_boxed_slice())
        } else {
            if need > self.free.len() {
                self.free = Box::leak(vec![0u8; CHUNK].into_boxed_slice());
            }
            let (dest, rest) = std::mem::take(&mut self.free).split_at_mut(need);
            self.free = rest;
            dest
        };
        dest[..LEN_PREFIX].copy_from_slice(&len.to_le_bytes());
        dest[LEN_PREFIX..].copy_from_slice(text.as_bytes());
        dest
    }
}

fn texts() -> &'static Mutex<Texts> {
    static TEXTS: OnceLock<Mutex<Texts>> = OnceLock::new();
    TEXTS.get_or_init(|| Mutex::new(Texts::default()))
}

/// The segment holding `id` and the slot's offset inside it.
fn locate(id: u32) -> (usize, usize) {
    let biased = u64::from(id) + (1 << FIRST_SEGMENT_BITS);
    let top = 63 - biased.leading_zeros();
    let segment = top - FIRST_SEGMENT_BITS;
    (segment as usize, (biased - (1 << top)) as usize)
}

impl Symbol {
    /// Interns `text`, returning its canonical [`Symbol`].
    ///
    /// Interning the same text twice yields the same symbol.
    pub fn intern(text: &str) -> Self {
        let mut texts = texts().lock().expect("symbol interner poisoned");
        if let Some(&id) = texts.map.get(text) {
            return Symbol(id);
        }
        let id = u32::try_from(texts.map.len()).expect("interner overflow: > 2^32 symbols");
        let leaked = texts.store(text);
        let stored: &'static str =
            std::str::from_utf8(&leaked[LEN_PREFIX..]).expect("copied from a str");

        let (segment, offset) = locate(id);
        // Only writers, serialized by the lock held here, store segments.
        let mut slots = SEGMENTS[segment].load(Ordering::Relaxed);
        if slots.is_null() {
            let len = 1 << (segment as u32 + FIRST_SEGMENT_BITS);
            let fresh = Box::<[AtomicPtr<u8>]>::new_zeroed_slice(len);
            // SAFETY: the all-zero bit pattern is a null `AtomicPtr`.
            let fresh = unsafe { fresh.assume_init() };
            slots = Box::leak(fresh).as_mut_ptr();
            SEGMENTS[segment].store(slots, Ordering::Release);
        }
        // SAFETY: `offset` is below the segment's length by `locate`, and
        // the leaked segment lives for the rest of the process. Readers
        // never write through the stored (leaked, immutable) text.
        unsafe { &*slots.add(offset) }.store(leaked.as_ptr().cast_mut(), Ordering::Release);
        texts.map.insert(stored, id);
        let m = tiebreak_trace::metrics();
        m.interned_symbols.set(u64::from(id) + 1);
        let bytes = TEXT_BYTES.load(Ordering::Relaxed) + leaked.len() as u64;
        TEXT_BYTES.store(bytes, Ordering::Relaxed);
        m.interned_bytes.set(bytes);
        Symbol(id)
    }

    /// The interned text. Lock-free: two acquire loads and the length
    /// prefix.
    ///
    /// # Panics
    ///
    /// Never for a symbol returned by [`Symbol::intern`].
    pub fn as_str(self) -> &'static str {
        let (segment, offset) = locate(self.0);
        let slots = SEGMENTS[segment].load(Ordering::Acquire);
        assert!(!slots.is_null(), "symbol {} was never interned", self.0);
        // SAFETY: a non-null segment has 2^(6+segment) slots and lives
        // for the rest of the process; `offset` is in range by `locate`.
        let text = unsafe { &*slots.add(offset) }.load(Ordering::Acquire);
        assert!(!text.is_null(), "symbol {} was never interned", self.0);
        // SAFETY: a non-null slot points at leaked arena bytes holding a
        // 4-byte little-endian length followed by that many bytes of
        // UTF-8, written before the slot's release store.
        unsafe {
            let len = u32::from_le_bytes(text.cast::<[u8; LEN_PREFIX]>().read()) as usize;
            std::str::from_utf8_unchecked(std::slice::from_raw_parts(text.add(LEN_PREFIX), len))
        }
    }

    /// The raw interner index. Stable within a process run only.
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(text: &str) -> Self {
        Symbol::intern(text)
    }
}

macro_rules! symbol_newtype {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub Symbol);

        impl $name {
            /// Interns `text` as this kind of identifier.
            pub fn new(text: &str) -> Self {
                Self(Symbol::intern(text))
            }

            /// The interned text.
            pub fn as_str(self) -> &'static str {
                self.0.as_str()
            }

            /// The underlying generic [`Symbol`].
            pub fn symbol(self) -> Symbol {
                self.0
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($name), "({:?})"), self.as_str())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.write_str(self.as_str())
            }
        }

        impl From<&str> for $name {
            fn from(text: &str) -> Self {
                Self::new(text)
            }
        }
    };
}

symbol_newtype! {
    /// A predicate symbol (e.g. the `p` in `p(X, a)`).
    PredSym
}

symbol_newtype! {
    /// A variable name (e.g. the `X` in `p(X, a)`).
    VarSym
}

symbol_newtype! {
    /// A constant symbol (e.g. the `a` in `p(X, a)`).
    ConstSym
}

/// Filler for unused inline tuple slots: never read as a name.
pub(crate) const FILLER: ConstSym = ConstSym(Symbol(0));

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("edge");
        let b = Symbol::intern("edge");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "edge");
    }

    #[test]
    fn distinct_texts_distinct_symbols() {
        assert_ne!(Symbol::intern("p"), Symbol::intern("q"));
    }

    #[test]
    fn newtypes_share_the_interner_but_not_the_type() {
        let p = PredSym::new("shared");
        let c = ConstSym::new("shared");
        // Same underlying symbol...
        assert_eq!(p.symbol(), c.symbol());
        // ...but the newtypes cannot be compared directly (compile-time
        // property; this test documents the runtime view).
        assert_eq!(p.as_str(), c.as_str());
    }

    #[test]
    fn display_matches_text() {
        let v = VarSym::new("X1");
        assert_eq!(v.to_string(), "X1");
        assert_eq!(format!("{v:?}"), "VarSym(\"X1\")");
    }

    #[test]
    fn segment_boundaries_cover_every_id() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(63), (0, 63));
        assert_eq!(locate(64), (1, 0));
        assert_eq!(locate(191), (1, 127));
        assert_eq!(locate(192), (2, 0));
        assert_eq!(locate(u32::MAX), (SEGMENT_COUNT - 1, 63));
    }

    #[test]
    fn reads_race_interning_without_a_lock() {
        // Writers intern fresh names (crossing several segment
        // boundaries) while readers resolve both old and just-published
        // symbols; every text must come back intact.
        let seed: Vec<Symbol> = (0..256)
            .map(|i| Symbol::intern(&format!("stress_seed_{i}")))
            .collect();
        let published = Mutex::new(Vec::<(Symbol, String)>::new());
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for w in 0..2 {
                let (published, start) = (&published, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..5_000 {
                        let text = format!("stress_w{w}_{i}");
                        let sym = Symbol::intern(&text);
                        assert_eq!(sym.as_str(), text);
                        if i % 64 == 0 {
                            published.lock().unwrap().push((sym, text));
                        }
                    }
                });
            }
            for _ in 0..2 {
                let (seed, published, start) = (&seed, &published, &start);
                scope.spawn(move || {
                    start.wait();
                    for round in 0..200 {
                        for (i, s) in seed.iter().enumerate() {
                            assert_eq!(s.as_str(), format!("stress_seed_{i}"));
                        }
                        let fresh = published.lock().unwrap().clone();
                        for (sym, text) in fresh.iter().skip(round % 4) {
                            assert_eq!(sym.as_str(), text);
                        }
                    }
                });
            }
        });
        for w in 0..2 {
            for i in (0..5_000).step_by(997) {
                let text = format!("stress_w{w}_{i}");
                assert_eq!(Symbol::intern(&text).as_str(), text);
            }
        }
    }

    #[test]
    fn name_hashes_spread_over_the_low_bits() {
        // 409,600 names differing only in their trailing digits fill a
        // 2^19-bucket table, which indexes by the hash's low 19 bits.
        // Uniform hashing hits about 284,000 distinct buckets; plain Fx
        // hits about 27,000.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<NameHasher>::default();
        let mut buckets = crate::fxhash::FxHashSet::default();
        for k in 0..100 {
            for c in 0..8 {
                for j in 0..32 {
                    for i in 0..16 {
                        let name = format!("t{k}xu{c}p{j}n{i}");
                        buckets.insert(build.hash_one(name.as_str()) & ((1 << 19) - 1));
                    }
                }
            }
        }
        assert!(
            buckets.len() >= 250_000,
            "{} distinct buckets",
            buckets.len()
        );
    }

    #[test]
    fn many_symbols_survive() {
        let syms: Vec<Symbol> = (0..1000)
            .map(|i| Symbol::intern(&format!("s{i}")))
            .collect();
        for (i, s) in syms.iter().enumerate() {
            assert_eq!(s.as_str(), format!("s{i}"));
        }
    }
}
