//! Compressed-sparse-row arenas: per-slot spans into one contiguous slab.
//!
//! The ground graph's incidence lists and the condensation's member
//! tables use [`CsrArena`] instead of `Vec<Vec<_>>`, so that (a)
//! iterating a slot touches one cache-line run instead of chasing a
//! pointer per slot, (b) building or cloning a table is a few flat
//! allocations rather than one per slot, and (c) dropping one is as
//! cheap.
//!
//! Arenas stay valid under incremental growth: [`CsrArena::push`]
//! extends a span in place while it has room and otherwise moves it to
//! the slab tail with room to double; [`CsrArena::clear`] empties a
//! span; [`CsrArena::append_sorted`] appends fresh spans at the tail.
//! Vacated ranges are garbage until [`CsrArena::compact`] rewrites the
//! slab, once garbage dominates — so a session that grows or churns
//! forever holds the slab at O(live members).

/// One slot's members: `data[start..start + len]`, and `cap - len`
/// positions after them that [`CsrArena::push`] may fill in place.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u32,
    cap: u32,
}

/// A compressed-sparse-row arena (see the module docs).
#[derive(Clone, Debug)]
pub(crate) struct CsrArena<T> {
    /// Per slot: its span of `data`. Cleared slots are empty.
    spans: Vec<Span>,
    pub(crate) data: Vec<T>,
    /// Total length of all live spans (slab minus garbage and room).
    pub(crate) live: u32,
}

impl<T> Default for CsrArena<T> {
    fn default() -> Self {
        CsrArena {
            spans: Vec::new(),
            data: Vec::new(),
            live: 0,
        }
    }
}

impl<T: Copy> CsrArena<T> {
    /// A counting-sort shell: spans sized from `counts`, slab filled with
    /// `fill`. Returns the arena and the per-slot write cursors for
    /// [`CsrArena::place`].
    pub(crate) fn from_counts(counts: &[u32], fill: T) -> (Self, Vec<u32>) {
        let mut spans = Vec::with_capacity(counts.len());
        let mut start = 0u32;
        for &len in counts {
            spans.push(Span {
                start,
                len,
                cap: len,
            });
            start += len;
        }
        let cursors: Vec<u32> = spans.iter().map(|s| s.start).collect();
        let arena = CsrArena {
            spans,
            data: vec![fill; start as usize],
            live: start,
        };
        (arena, cursors)
    }

    /// Placement write during a counting-sort build: `item` goes to slot
    /// `c`'s next cursor position.
    pub(crate) fn place(&mut self, cursors: &mut [u32], c: u32, item: T) {
        let at = cursors[c as usize];
        self.data[at as usize] = item;
        cursors[c as usize] = at + 1;
    }

    /// The members of slot `c`.
    pub(crate) fn get(&self, c: u32) -> &[T] {
        let Span { start, len, .. } = self.spans[c as usize];
        &self.data[start as usize..(start + len) as usize]
    }

    /// Number of slots (live and cleared alike).
    pub(crate) fn slot_count(&self) -> usize {
        self.spans.len()
    }

    /// Grows the span table to cover slot `c`; new slots are empty.
    pub(crate) fn ensure_slot(&mut self, c: u32) {
        if c as usize >= self.spans.len() {
            self.spans.resize(c as usize + 1, Span::default());
        }
    }

    /// Empties slot `c`; its old slab range becomes garbage until the
    /// next [`CsrArena::compact`].
    pub(crate) fn clear(&mut self, c: u32) {
        self.live -= self.spans[c as usize].len;
        self.spans[c as usize] = Span::default();
    }

    /// Appends `item` to slot `c`: in place while the span has room,
    /// else after moving the span to the slab tail with room to double
    /// (its old range becomes garbage). Amortized O(1) per push between
    /// compactions.
    pub(crate) fn push(&mut self, c: u32, item: T) {
        let mut span = self.spans[c as usize];
        if span.len == span.cap {
            let cap = (span.len * 2).max(4);
            if (span.start + span.cap) as usize != self.data.len() {
                let start = self.data.len() as u32;
                self.data
                    .extend_from_within(span.start as usize..(span.start + span.len) as usize);
                span.start = start;
            }
            span.cap = cap;
            self.data.resize((span.start + cap) as usize, item);
        }
        self.data[(span.start + span.len) as usize] = item;
        span.len += 1;
        self.spans[c as usize] = span;
        self.live += 1;
    }

    /// Appends one fresh span per slot of `slots` (each empty or
    /// cleared) to the slab tail and counting-sorts `members()` into
    /// them: a pair `(i, item)` puts `item` in `slots[i]`, in sequence
    /// order. `members` is called for sizing and again for placement,
    /// and must yield the same sequence both times; `cursors` is
    /// reusable scratch.
    pub(crate) fn append_sorted<I>(
        &mut self,
        slots: &[u32],
        members: impl Fn() -> I,
        cursors: &mut Vec<u32>,
    ) where
        I: Iterator<Item = (u32, T)>,
    {
        cursors.clear();
        cursors.resize(slots.len(), 0);
        for (i, _) in members() {
            cursors[i as usize] += 1;
        }
        let mut start = self.data.len() as u32;
        for (&c, cursor) in slots.iter().zip(cursors.iter_mut()) {
            let len = *cursor;
            self.clear(c);
            self.spans[c as usize] = Span {
                start,
                len,
                cap: len,
            };
            self.live += len;
            *cursor = start;
            start += len;
        }
        let Some((_, fill)) = members().next() else {
            return;
        };
        self.data.resize(start as usize, fill);
        for (i, item) in members() {
            self.place(cursors, i, item);
        }
    }

    /// Rewrites the slab to live spans only, once garbage dominates (the
    /// `2 × live + 64` bound keeps compaction amortized O(1) per patched
    /// or pushed member while still capping the slab at O(live)). Slot
    /// contents are untouched; only their slab positions move, and
    /// spans lose their room.
    pub(crate) fn compact(&mut self) {
        if self.data.len() as u32 <= self.live.saturating_mul(2) + 64 {
            return;
        }
        let mut data = Vec::with_capacity(self.live as usize);
        for span in &mut self.spans {
            let new_start = data.len() as u32;
            data.extend_from_slice(
                &self.data[span.start as usize..(span.start + span.len) as usize],
            );
            *span = Span {
                start: new_start,
                len: span.len,
                cap: span.len,
            };
        }
        self.data = data;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pushes_keep_every_slot_intact_and_the_slab_bounded() {
        let (mut arena, mut cursors) = CsrArena::from_counts(&[2, 0, 1], 0u32);
        for (c, item) in [(0, 10), (2, 30), (0, 11)] {
            arena.place(&mut cursors, c, item);
        }
        let mut want: Vec<Vec<u32>> = vec![vec![10, 11], vec![], vec![30]];
        for step in 0..2_000u32 {
            let c = [0, 1, 2, 1, 0, 3][step as usize % 6];
            arena.ensure_slot(c);
            if want.len() <= c as usize {
                want.resize(c as usize + 1, Vec::new());
            }
            if step % 97 == 0 {
                arena.clear(c);
                want[c as usize].clear();
            } else {
                arena.push(c, step);
                want[c as usize].push(step);
            }
            arena.compact();
            for (slot, members) in want.iter().enumerate() {
                assert_eq!(arena.get(slot as u32), members.as_slice(), "slot {slot}");
            }
            assert!(arena.data.len() as u32 <= arena.live * 2 + 64);
        }
    }
}
