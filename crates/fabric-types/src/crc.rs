//! CRC-32 framing for delivered data.
//!
//! The fault-tolerance layer (see DESIGN.md §9) frames every unit of data
//! that crosses a simulated device boundary — RM delivery batches, flash
//! pages, host-link shipments — with a CRC-32 so consumers can *detect*
//! injected corruption and trigger redelivery instead of silently consuming
//! flipped bits. The polynomial is the ubiquitous reflected IEEE 802.3 one
//! (CRC-32/ISO-HDLC, the `zlib`/`ethernet` CRC), table-driven and std-only
//! like the rest of the workspace.

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built at compile time. `TABLES[0]` is the
/// classic byte-at-a-time table; `TABLES[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes be folded with
/// eight independent lookups instead of a chain of eight dependent ones.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte-at-a-time step (the tail of [`Crc32::update`], and the
/// definition the sliced loop must equal).
#[inline]
fn step(state: u32, b: u8) -> u32 {
    (state >> 8) ^ TABLES[0][((state ^ b as u32) & 0xFF) as usize]
}

/// CRC-32/ISO-HDLC of `bytes` (init `!0`, reflected, final xor `!0`).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

/// Streaming CRC-32/ISO-HDLC hasher: `init` / `update` / `finalize`.
///
/// WAL records and multi-fragment pages are framed incrementally — header,
/// then payload, then more payload — without ever materializing one
/// contiguous buffer. Feeding the same bytes in any fragmentation yields
/// exactly the one-shot [`crc32`] value.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// A fresh hasher (state `!0`, the standard init value).
    pub fn new() -> Self {
        Crc32 { state: !0u32 }
    }

    /// Absorb `bytes` into the running checksum.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        let mut state = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = state ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][w[4] as usize]
                ^ TABLES[2][w[5] as usize]
                ^ TABLES[1][w[6] as usize]
                ^ TABLES[0][w[7] as usize];
        }
        for &b in words.remainder() {
            state = step(state, b);
        }
        self.state = state;
        self
    }

    /// The checksum of everything absorbed so far (final xor applied).
    /// Non-consuming, so a caller can frame a running prefix and keep
    /// absorbing.
    pub fn finalize(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_published_check_value() {
        // The standard CRC-32 check vector: "123456789" -> 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data: Vec<u8> = (0..=255u8).cycle().take(4096).collect();
        let clean = crc32(&data);
        for (byte, bit) in [(0usize, 0u8), (17, 3), (4095, 7), (2048, 5)] {
            let mut corrupt = data.clone();
            corrupt[byte] ^= 1 << bit;
            assert_ne!(crc32(&corrupt), clean, "flip at {byte}:{bit} undetected");
        }
    }

    #[test]
    fn is_a_pure_function_of_the_bytes() {
        assert_eq!(crc32(b"relational fabric"), crc32(b"relational fabric"));
        assert_ne!(crc32(b"relational fabric"), crc32(b"relational fabrik"));
    }

    #[test]
    fn streaming_matches_one_shot_under_any_fragmentation() {
        let data: Vec<u8> = (0..=255u8).cycle().take(3000).collect();
        let whole = crc32(&data);
        for chunk in [1usize, 3, 7, 64, 999, 3000] {
            let mut h = Crc32::new();
            for frag in data.chunks(chunk) {
                h.update(frag);
            }
            assert_eq!(h.finalize(), whole, "chunk size {chunk} diverged");
        }
        // Empty updates are no-ops.
        let mut h = Crc32::new();
        h.update(&[]).update(&data).update(&[]);
        assert_eq!(h.finalize(), whole);
    }

    #[test]
    fn streaming_finalize_is_non_consuming() {
        let mut h = Crc32::new();
        h.update(b"1234");
        let prefix = h.finalize();
        assert_eq!(prefix, crc32(b"1234"));
        h.update(b"56789");
        assert_eq!(h.finalize(), 0xCBF4_3926, "check vector after resume");
        assert_eq!(Crc32::default().finalize(), crc32(b""));
    }
}
