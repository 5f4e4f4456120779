//! Byte-accurate backing memory for the simulation.
//!
//! Tables, column arrays, and device buffers are all allocated from one
//! [`MemArena`]. Addresses are stable `u64` offsets (the arena never moves
//! existing bytes), so engines can keep raw [`Addr`]s in their metadata the
//! way real software keeps pointers.

use fabric_types::{Addr, FabricError, Result};

/// Growable, bump-allocated simulated physical memory.
pub struct MemArena {
    bytes: Vec<u8>,
    next: usize,
    limit: usize,
}

/// Default arena capacity limit: 4 GiB of simulated physical memory,
/// matching common Zynq MPSoC boards.
pub const DEFAULT_LIMIT: usize = 4 << 30;

impl MemArena {
    /// Create an arena with the default 4 GiB limit.
    pub fn new() -> Self {
        Self::with_limit(DEFAULT_LIMIT)
    }

    /// Create an arena that will refuse to grow beyond `limit` bytes.
    pub fn with_limit(limit: usize) -> Self {
        MemArena {
            bytes: Vec::new(),
            next: 0,
            limit,
        }
    }

    /// Allocate `len` bytes aligned to `align` (a power of two); returns the
    /// base address. Freshly allocated memory is zeroed.
    pub fn alloc(&mut self, len: usize, align: usize) -> Result<Addr> {
        debug_assert!(align.is_power_of_two());
        let base = (self.next + align - 1) & !(align - 1);
        let end = base.checked_add(len).ok_or(FabricError::ArenaExhausted {
            requested: len,
            available: self.limit - self.next,
        })?;
        if end > self.limit {
            return Err(FabricError::ArenaExhausted {
                requested: len,
                available: self.limit - self.next,
            });
        }
        if end > self.bytes.len() {
            // Grow to exactly `end`: tables are allocated whole, so this is
            // a handful of calls per engine, and amortised doubling would
            // leave up to half of the block as slack — resident or not
            // depending on whether the allocator hands out fresh pages or
            // recycles dirty ones (14 MiB of `project_wide`'s peak RSS).
            self.bytes.reserve_exact(end - self.bytes.len());
            self.bytes.resize(end, 0);
        }
        self.next = end;
        Ok(base as Addr)
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> usize {
        self.next
    }

    /// Immutable view of `[addr, addr+len)`.
    #[inline]
    pub fn slice(&self, addr: Addr, len: usize) -> &[u8] {
        let a = addr as usize;
        debug_assert!(
            a + len <= self.bytes.len(),
            "arena read out of bounds: {addr:#x}+{len} (size {})",
            self.bytes.len()
        );
        &self.bytes[a..a + len]
    }

    /// Mutable view of `[addr, addr+len)`.
    #[inline]
    pub fn slice_mut(&mut self, addr: Addr, len: usize) -> &mut [u8] {
        let a = addr as usize;
        debug_assert!(
            a + len <= self.bytes.len(),
            "arena write out of bounds: {addr:#x}+{len} (size {})",
            self.bytes.len()
        );
        &mut self.bytes[a..a + len]
    }

    /// Checked read that returns an error instead of panicking.
    pub fn try_slice(&self, addr: Addr, len: usize) -> Result<&[u8]> {
        let a = addr as usize;
        if a + len > self.bytes.len() {
            return Err(FabricError::ArenaOutOfBounds {
                addr,
                len,
                size: self.bytes.len(),
            });
        }
        Ok(&self.bytes[a..a + len])
    }

    /// Copy `data` into the arena at `addr`.
    pub fn write(&mut self, addr: Addr, data: &[u8]) {
        self.slice_mut(addr, data.len()).copy_from_slice(data);
    }

    /// Read a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        u64::from_le_bytes(self.slice(addr, 8).try_into().unwrap())
    }

    /// Write a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, v: u64) {
        self.write(addr, &v.to_le_bytes());
    }
}

impl Default for MemArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_leaves_no_slack_behind_the_tables() {
        // A 17 MiB shape: under amortised doubling the second allocation
        // would have left the block at twice the first one's size.
        let mut a = MemArena::new();
        a.alloc(8 << 20, 64).unwrap();
        a.alloc(9 << 20, 64).unwrap();
        assert_eq!(a.allocated(), 17 << 20);
        assert!(
            a.bytes.capacity() < (18 << 20),
            "backing block of {} bytes for 17 MiB of tables",
            a.bytes.capacity()
        );
    }

    #[test]
    fn alloc_is_aligned_and_zeroed() {
        let mut a = MemArena::new();
        let p1 = a.alloc(10, 1).unwrap();
        let p2 = a.alloc(64, 64).unwrap();
        assert_eq!(p1, 0);
        assert_eq!(p2 % 64, 0);
        assert!(a.slice(p2, 64).iter().all(|&b| b == 0));
    }

    #[test]
    fn allocations_do_not_overlap() {
        let mut a = MemArena::new();
        let p1 = a.alloc(100, 8).unwrap();
        let p2 = a.alloc(100, 8).unwrap();
        assert!(p2 >= p1 + 100);
        a.write(p1, &[1u8; 100]);
        a.write(p2, &[2u8; 100]);
        assert!(a.slice(p1, 100).iter().all(|&b| b == 1));
        assert!(a.slice(p2, 100).iter().all(|&b| b == 2));
    }

    #[test]
    fn limit_is_enforced() {
        let mut a = MemArena::with_limit(1024);
        assert!(a.alloc(1000, 1).is_ok());
        assert!(matches!(
            a.alloc(100, 1),
            Err(FabricError::ArenaExhausted { .. })
        ));
    }

    #[test]
    fn u64_roundtrip() {
        let mut a = MemArena::new();
        let p = a.alloc(8, 8).unwrap();
        a.write_u64(p, 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(a.read_u64(p), 0xDEAD_BEEF_CAFE_F00D);
    }

    #[test]
    fn try_slice_checks_bounds() {
        let mut a = MemArena::new();
        let p = a.alloc(16, 1).unwrap();
        assert!(a.try_slice(p, 16).is_ok());
        assert!(a.try_slice(p, 17).is_err());
    }
}
