//! Scratch buffers for stage 0 (DESIGN.md §16).
//!
//! Stage 0 works over morsel- and chunk-sized vectors — selection vectors,
//! pass bits, group ids, `f64` operand vectors — whose *contents* live for
//! one morsel or chunk but whose *allocations* are identical from morsel to
//! morsel and from query to query. A session's [`Scratchpad`] owns them:
//! one [`ChunkScratch`] and the two selection vectors a COL stage
//! alternates between, each allocated on first use and lent to a stage by
//! `&mut` after that. The borrow checker is what keeps a stage from
//! aliasing a buffer another stage holds: a lent buffer cannot be lent
//! again, or outlive the query, until its borrow ends.
//!
//! All of this is host-side bookkeeping: lending a buffer never advances
//! the simulated clock, so an executor using a scratchpad is
//! cycle-identical to one allocating fresh vectors.

use fabric_types::{F64Regs, ScanScratch, BATCH_ROWS};

/// What consuming one chunk needs besides the chunk: the kernel's
/// [`ScanScratch`] (column specs, pass bits, passing positions) and the
/// consumer's group ids, group key words, and `f64` input columns and
/// operand vectors. Sized for [`BATCH_ROWS`] rows when first allocated,
/// then recycled.
#[derive(Debug)]
pub struct ChunkScratch {
    pub(crate) scan: ScanScratch,
    pub(crate) eval: EvalScratch,
}

/// The consumer's share of a [`ChunkScratch`].
#[derive(Debug)]
pub(crate) struct EvalScratch {
    /// Group of each consumed row.
    pub(crate) gids: Vec<u32>,
    /// The consumed rows' group key words, back to back.
    pub(crate) words: Vec<u64>,
    /// The raw key bytes and the canonical form of a key seen for the
    /// first time.
    pub(crate) raw: Vec<u8>,
    pub(crate) canon: Vec<u8>,
    pub(crate) regs: F64Regs,
}

impl ChunkScratch {
    fn new() -> Self {
        ChunkScratch {
            scan: ScanScratch::with_rows(BATCH_ROWS),
            eval: EvalScratch {
                gids: Vec::with_capacity(BATCH_ROWS),
                words: Vec::new(),
                raw: Vec::new(),
                canon: Vec::new(),
                regs: F64Regs::default(),
            },
        }
    }

    fn heap_bytes(&self) -> usize {
        let eval = &self.eval;
        self.scan.heap_bytes()
            + eval.gids.capacity() * size_of::<u32>()
            + eval.words.capacity() * size_of::<u64>()
            + eval.raw.capacity()
            + eval.canon.capacity()
            + eval.regs.heap_bytes()
    }
}

/// A session's stage buffers, recycled across stages and queries (see
/// the module docs).
#[derive(Debug, Default)]
pub struct Scratchpad {
    chunk: Option<ChunkScratch>,
    sels: Option<[Vec<u32>; 2]>,
    reuses: u64,
    allocs: u64,
}

impl Scratchpad {
    pub fn new() -> Self {
        Scratchpad::default()
    }

    /// Buffers lent again instead of allocated.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers that had to be freshly allocated.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// The buffers' retained capacity, in bytes. A buffer never shrinks,
    /// so this is also the high-water mark, exported as the
    /// `query.scratchpad.hwm_bytes` gauge.
    pub fn hwm_bytes(&self) -> u64 {
        let chunk = self.chunk.as_ref().map_or(0, ChunkScratch::heap_bytes);
        let sels = self.sels.iter().flatten().map(Vec::capacity).sum::<usize>();
        (chunk + sels * size_of::<u32>()) as u64
    }

    /// Count `n` buffers as reused when they exist, else as allocated.
    fn count(&mut self, exists: bool, n: u64) {
        if exists {
            self.reuses += n;
        } else {
            self.allocs += n;
        }
    }

    /// Lend the [`ChunkScratch`] (capacities retained from its previous
    /// stage).
    pub(crate) fn chunk(&mut self) -> &mut ChunkScratch {
        self.count(self.chunk.is_some(), 1);
        self.chunk.get_or_insert_with(ChunkScratch::new)
    }

    /// Lend the [`ChunkScratch`] and both selection vectors, for a COL
    /// stage.
    pub(crate) fn chunk_and_sels(&mut self) -> (&mut ChunkScratch, &mut [Vec<u32>; 2]) {
        self.count(self.chunk.is_some(), 1);
        self.count(self.sels.is_some(), 2);
        let sels = self.sels.get_or_insert_with(Default::default);
        (self.chunk.get_or_insert_with(ChunkScratch::new), sels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_across_queries() {
        let mut s = Scratchpad::new();
        let (_, [v, _]) = s.chunk_and_sels();
        v.push(1);
        v.reserve(1024);
        let cap_marker = v.capacity();
        assert_eq!(s.allocs(), 3);
        assert_eq!(s.reuses(), 0);

        // Next query: the same allocations come back, capacities intact.
        let (chunk, sels) = s.chunk_and_sels();
        assert!(sels[0].capacity() >= cap_marker, "capacity survives");
        // Sized for a whole chunk when first allocated.
        assert!(chunk.eval.gids.capacity() >= BATCH_ROWS);
        let chunk_bytes = chunk.heap_bytes();
        assert!(chunk_bytes >= BATCH_ROWS * (1 + 4 + 4));
        assert_eq!((s.allocs(), s.reuses()), (3, 3));
        assert!(
            s.hwm_bytes() >= (cap_marker * size_of::<u32>() + chunk_bytes) as u64,
            "high-water mark sees every buffer"
        );
        s.chunk();
        assert_eq!((s.allocs(), s.reuses()), (3, 4));
    }

    #[test]
    fn two_takers_never_share_an_allocation() {
        let mut s = Scratchpad::new();
        let (_, [a, b]) = s.chunk_and_sels();
        // Fresh empty Vecs share the dangling sentinel pointer, so force
        // both to allocate first.
        a.push(1);
        b.push(2);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }
}
