//! Typed scratch buffers for the staged executor (DESIGN.md §16).
//!
//! Every stage of the operator DAG works over morsel- and chunk-sized
//! vectors — selection vectors, pass bits, group ids, `f64` operand
//! vectors — whose *contents* live for one morsel or chunk but whose
//! *allocations* are identical from morsel to morsel and from query to
//! query. A [`Scratchpad`] owns those allocations:
//! stages borrow a buffer with `take_*`, return it with `put_*`, and the
//! next stage (or the next query) reuses the same backing storage.
//!
//! Reuse must never alias a live buffer. Two mechanisms enforce that:
//!
//! * **ownership** — `take_*` moves the `Vec` out of the pool, so two
//!   concurrent takers can never observe the same allocation;
//! * **epochs** — every [`BufferRef`] is stamped with the scratchpad's
//!   query epoch at take time, and `put_*` asserts the stamp matches the
//!   *current* epoch. A buffer held across [`Scratchpad::begin_query`]
//!   (i.e. across a query boundary) is from a dead generation; returning
//!   it would let a stale stage recycle storage the new query may have
//!   handed out. That bug panics instead of corrupting results.
//!
//! All of this is host-side bookkeeping: taking or returning a buffer
//! never advances the simulated clock, so an executor using a scratchpad
//! is cycle-identical to one allocating fresh vectors.

use fabric_types::{F64Regs, ScanScratch, BATCH_ROWS};

/// What a pooled buffer holds. Used for the epoch assert's diagnostics
/// and to keep the two pools' tickets from being interchangeable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferKind {
    /// A [`ChunkScratch`].
    Chunk,
    /// A `Vec<u32>` selection vector.
    Selection,
}

/// What consuming one chunk needs besides the chunk: the kernel's
/// [`ScanScratch`] (column specs, pass bits, passing positions) and the
/// consumer's group ids, raw group keys and `f64` operand vectors. Sized
/// for [`BATCH_ROWS`] rows when first allocated, then recycled.
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
    /// The consumed rows' raw group-key bytes, back to back.
    pub(crate) keys: Vec<u8>,
    /// The last row's raw key of the chunk before (the previous-row memo
    /// across a chunk boundary), and the canonical form of a key being
    /// looked up.
    pub(crate) last_key: Vec<u8>,
    pub(crate) canon: Vec<u8>,
    pub(crate) regs: F64Regs,
}

impl ChunkScratch {
    fn new() -> Self {
        ChunkScratch {
            scan: ScanScratch::with_rows(BATCH_ROWS),
            eval: EvalScratch {
                gids: Vec::with_capacity(BATCH_ROWS),
                keys: Vec::new(),
                last_key: Vec::new(),
                canon: Vec::new(),
                regs: F64Regs::default(),
            },
        }
    }

    fn heap_bytes(&self) -> usize {
        let eval = &self.eval;
        self.scan.heap_bytes()
            + eval.gids.capacity() * size_of::<u32>()
            + eval.keys.capacity()
            + eval.last_key.capacity()
            + eval.canon.capacity()
            + eval.regs.heap_bytes()
    }
}

/// A ticket for a buffer taken from a [`Scratchpad`]: which pool it came
/// from and the query epoch it was taken in. Returning the buffer
/// requires the ticket, and the ticket is only valid within the epoch
/// that minted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferRef {
    kind: BufferKind,
    epoch: u64,
}

impl BufferRef {
    /// The pool this ticket belongs to.
    pub fn kind(&self) -> BufferKind {
        self.kind
    }

    /// The query epoch the buffer was taken in.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

/// A per-session pool of morsel-sized vectors, recycled across stages
/// and queries. See the module docs for the aliasing rules.
#[derive(Debug, Default)]
pub struct Scratchpad {
    epoch: u64,
    chunks: Vec<ChunkScratch>,
    sels: Vec<Vec<u32>>,
    reuses: u64,
    allocs: u64,
    /// High-water mark of pooled capacity bytes (sampled on every
    /// `put_*`), exported as the `query.scratchpad.hwm_bytes` gauge.
    hwm_bytes: u64,
}

impl Scratchpad {
    pub fn new() -> Self {
        Scratchpad::default()
    }

    /// Start a new query: bump the epoch so tickets from earlier queries
    /// are invalidated. Buffers already back in the pools stay pooled.
    pub fn begin_query(&mut self) {
        self.epoch += 1;
    }

    /// The current query epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Buffers served from the pool instead of the allocator.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Buffers that had to be freshly allocated.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// High-water mark of the pools' retained capacity, in bytes — how
    /// much backing storage query execution has ever parked here at once.
    pub fn hwm_bytes(&self) -> u64 {
        self.hwm_bytes
    }

    /// Re-sample the high-water mark after a buffer returns to a pool.
    fn note_hwm(&mut self) {
        let chunks: usize = self.chunks.iter().map(ChunkScratch::heap_bytes).sum();
        let sels: usize = self
            .sels
            .iter()
            .map(|b| b.capacity() * size_of::<u32>())
            .sum();
        self.hwm_bytes = self.hwm_bytes.max((chunks + sels) as u64);
    }

    /// Take a [`ChunkScratch`] (capacities retained from its previous
    /// life) plus the ticket required to return it.
    pub fn take_chunk(&mut self) -> (BufferRef, ChunkScratch) {
        let buf = match self.chunks.pop() {
            Some(b) => {
                self.reuses += 1;
                b
            }
            None => {
                self.allocs += 1;
                ChunkScratch::new()
            }
        };
        (
            BufferRef {
                kind: BufferKind::Chunk,
                epoch: self.epoch,
            },
            buf,
        )
    }

    /// Return a [`ChunkScratch`] to the pool.
    ///
    /// # Panics
    /// If the ticket is from another pool or a previous query epoch —
    /// both are aliasing bugs in the executor, not recoverable states.
    pub fn put_chunk(&mut self, r: BufferRef, buf: ChunkScratch) {
        assert_eq!(r.kind, BufferKind::Chunk, "ticket is not a Chunk ticket");
        assert_eq!(
            r.epoch, self.epoch,
            "stale buffer returned across a query boundary (ticket epoch {} != current {})",
            r.epoch, self.epoch
        );
        self.chunks.push(buf);
        self.note_hwm();
    }

    /// Take a `Vec<u32>` selection-vector buffer plus its ticket.
    pub fn take_sel(&mut self) -> (BufferRef, Vec<u32>) {
        let buf = match self.sels.pop() {
            Some(b) => {
                self.reuses += 1;
                b
            }
            None => {
                self.allocs += 1;
                Vec::new()
            }
        };
        (
            BufferRef {
                kind: BufferKind::Selection,
                epoch: self.epoch,
            },
            buf,
        )
    }

    /// Return a selection-vector buffer to the pool.
    ///
    /// # Panics
    /// If the ticket is from another pool or a previous query epoch.
    pub fn put_sel(&mut self, r: BufferRef, mut buf: Vec<u32>) {
        assert_eq!(
            r.kind,
            BufferKind::Selection,
            "ticket is not a Selection ticket"
        );
        assert_eq!(
            r.epoch, self.epoch,
            "stale buffer returned across a query boundary (ticket epoch {} != current {})",
            r.epoch, self.epoch
        );
        buf.clear();
        self.sels.push(buf);
        self.note_hwm();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_recycle_across_queries() {
        let mut s = Scratchpad::new();
        s.begin_query();
        let (r, mut v) = s.take_sel();
        v.push(1);
        let cap_marker = {
            v.reserve(1024);
            v.capacity()
        };
        s.put_sel(r, v);
        assert_eq!(s.allocs(), 1);
        assert_eq!(s.reuses(), 0);

        // Next query: same allocation comes back, cleared.
        s.begin_query();
        let (r2, v2) = s.take_sel();
        assert!(v2.is_empty(), "pooled buffers are cleared on return");
        assert!(v2.capacity() >= cap_marker, "capacity survives pooling");
        assert_eq!(s.reuses(), 1);
        s.put_sel(r2, v2);

        let (r3, chunk) = s.take_chunk();
        assert_eq!(r3.kind(), BufferKind::Chunk);
        // Sized for a whole chunk when first allocated.
        assert!(chunk.eval.gids.capacity() >= BATCH_ROWS);
        let chunk_bytes = chunk.heap_bytes();
        assert!(chunk_bytes >= BATCH_ROWS * (1 + 4 + 4));
        s.put_chunk(r3, chunk);
        assert_eq!(s.allocs(), 2);
        assert!(
            s.hwm_bytes() >= (cap_marker * size_of::<u32>() + chunk_bytes) as u64,
            "high-water mark saw both pools"
        );
        let (r4, chunk) = s.take_chunk();
        assert_eq!((s.allocs(), s.reuses()), (2, 2));
        s.put_chunk(r4, chunk);
    }

    #[test]
    fn two_takers_never_share_an_allocation() {
        let mut s = Scratchpad::new();
        s.begin_query();
        let (ra, mut a) = s.take_sel();
        let (rb, mut b) = s.take_sel();
        // Ownership makes aliasing impossible; check the pool really
        // handed out two distinct allocations (fresh empty Vecs share the
        // dangling sentinel pointer, so force both to allocate first).
        a.push(1);
        b.push(2);
        assert_ne!(a.as_ptr(), b.as_ptr());
        s.put_sel(ra, a);
        s.put_sel(rb, b);
    }

    #[test]
    #[should_panic(expected = "stale buffer returned across a query boundary")]
    fn returning_a_stale_epoch_buffer_panics() {
        let mut s = Scratchpad::new();
        s.begin_query();
        let (r, v) = s.take_chunk();
        s.begin_query(); // query boundary while the buffer is still out
        s.put_chunk(r, v);
    }

    #[test]
    #[should_panic(expected = "not a Selection ticket")]
    fn returning_to_the_wrong_pool_panics() {
        let mut s = Scratchpad::new();
        s.begin_query();
        let (r, _chunk) = s.take_chunk();
        s.put_sel(r, Vec::new());
    }
}
