//! CRC-32 framing for delivered data.
//!
//! The fault-tolerance layer (see DESIGN.md §9) frames every unit of data
//! that crosses a simulated device boundary — RM delivery batches, flash
//! pages, host-link shipments — with a CRC-32 so consumers can *detect*
//! injected corruption and trigger redelivery instead of silently consuming
//! flipped bits. The polynomial is the ubiquitous reflected IEEE 802.3 one
//! (CRC-32/ISO-HDLC, the `zlib`/`ethernet` CRC), std-only like the rest
//! of the workspace.
//!
//! Two kernels compute it, and they are equal bit for bit (DESIGN.md §26):
//!
//! * slicing-by-8 tables — every target, every length;
//! * carry-less-multiply folding (x86-64 `PCLMULQDQ`, chosen by a runtime
//!   CPU feature check) for spans of at least 128 bytes. It folds 64
//!   bytes per step into a 128-bit remainder, reduces that to the 32-bit
//!   state, and hands the last `< 16` bytes to the tables.
//!
//! Nothing but the CPU and the span length picks the kernel: the value is
//! the same either way, so there is nothing to configure.

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

/// The slicing-by-8 kernel: advance the raw (un-inverted) CRC `state`
/// over `bytes`, eight bytes per round, the last `< 8` bytewise.
fn update_sliced(mut state: u32, bytes: &[u8]) -> u32 {
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
    state
}

/// Spans at least this long take the carry-less-multiply kernel where the
/// CPU has one. Below it the fold's fixed cost (four loads, the 128 → 32
/// bit reduction) is not repaid.
const CLMUL_MIN: usize = 128;

/// The carry-less-multiply kernel: [`update_sliced`]'s result for the same
/// arguments, or `None` on a CPU without `PCLMULQDQ`.
#[cfg(target_arch = "x86_64")]
fn update_clmul(state: u32, bytes: &[u8]) -> Option<u32> {
    if !std::is_x86_feature_detected!("pclmulqdq") {
        return None;
    }
    if bytes.len() < 64 {
        return Some(update_sliced(state, bytes));
    }
    // SAFETY: the CPU supports PCLMULQDQ (checked just above) and `fold`
    // is compiled for exactly that feature plus the SSE2 every x86-64 CPU
    // has.
    Some(unsafe { clmul::fold(state, bytes) })
}

/// No carry-less-multiply kernel off x86-64: the tables do everything.
#[cfg(not(target_arch = "x86_64"))]
fn update_clmul(_state: u32, _bytes: &[u8]) -> Option<u32> {
    None
}

/// Carry-less-multiply folding for the reflected IEEE polynomial, after
/// Gopal et al., "Fast CRC Computation for Generic Polynomials Using
/// PCLMULQDQ Instruction" (Intel, 2009), with the reduction constants of
/// the reflected CRC-32 as used by zlib, Linux and Chromium.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi128_si32, _mm_cvtsi32_si128,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    /// Powers of `x` modulo `P`, bit-reflected, that fold a 128-bit lane
    /// 512 bits forward (`K1`, `K2`) or 128 bits forward (`K3`, `K4`).
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    /// 96 → 64 bit reduction.
    const K5: i64 = 0x1_63cd_6124;
    /// The polynomial `P(x)` and Barrett's `μ = x^64 / P(x)`, reflected.
    const P_X: i64 = 0x1_db71_0641;
    const MU: i64 = 0x1_f701_1641;

    /// One unaligned 16-byte load.
    #[inline]
    #[target_feature(enable = "sse2")]
    fn load(block: &[u8]) -> __m128i {
        assert!(block.len() >= 16);
        // SAFETY: `block` holds at least 16 readable bytes (asserted), and
        // `_mm_loadu_si128` has no alignment requirement.
        unsafe { _mm_loadu_si128(block.as_ptr().cast()) }
    }

    /// `a · k.lo ⊕ a.hi · k.hi ⊕ b`: fold lane `a` forward onto lane `b`.
    #[inline]
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    fn fold_onto(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(a, k, 0x00);
        let hi = _mm_clmulepi64_si128(a, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), b)
    }

    /// Advance the raw CRC `state` over `bytes` (at least 64 of them).
    #[target_feature(enable = "pclmulqdq", enable = "sse2")]
    pub(super) fn fold(state: u32, bytes: &[u8]) -> u32 {
        let (head, rest) = bytes.split_at(64);
        // Four lanes of 128 bits; the running state enters the first.
        let mut x0 = _mm_xor_si128(load(&head[..16]), _mm_cvtsi32_si128(state as i32));
        let mut x1 = load(&head[16..32]);
        let mut x2 = load(&head[32..48]);
        let mut x3 = load(&head[48..]);
        let k1k2 = _mm_set_epi64x(K2, K1);
        let mut quads = rest.chunks_exact(64);
        for q in &mut quads {
            x0 = fold_onto(x0, load(&q[..16]), k1k2);
            x1 = fold_onto(x1, load(&q[16..32]), k1k2);
            x2 = fold_onto(x2, load(&q[32..48]), k1k2);
            x3 = fold_onto(x3, load(&q[48..]), k1k2);
        }
        // Four lanes into one, then one 16-byte block at a time.
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = fold_onto(x0, x1, k3k4);
        x = fold_onto(x, x2, k3k4);
        x = fold_onto(x, x3, k3k4);
        let mut blocks = quads.remainder().chunks_exact(16);
        for b in &mut blocks {
            x = fold_onto(x, load(b), k3k4);
        }

        // 128 → 96 → 64 bits.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction 64 → 32 bits (reflected: the result is the
        // upper half of the low 64 bits).
        let pu = _mm_set_epi64x(MU, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let folded = _mm_cvtsi128_si32(_mm_srli_si128(_mm_xor_si128(x, t2), 4)) as u32;
        super::update_sliced(folded, blocks.remainder())
    }
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
        self.state = if bytes.len() >= CLMUL_MIN {
            update_clmul(self.state, bytes).unwrap_or_else(|| update_sliced(self.state, bytes))
        } else {
            update_sliced(self.state, bytes)
        };
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

    /// The definition both kernels must equal: one [`step`] per byte.
    fn bytewise(state: u32, bytes: &[u8]) -> u32 {
        bytes.iter().fold(state, |s, &b| step(s, b))
    }

    #[test]
    fn both_kernels_equal_the_bytewise_definition() {
        use crate::rng::for_each_case;
        let mut case = 0usize;
        for_each_case("crc kernels", |rng| {
            // 256 cases × 16 lengths (+ 4096 once) cover every length in
            // 0..=4096 once, each from a start offset in 0..16 that
            // varies within a case; the running state is random, as it
            // is mid-stream.
            let data: Vec<u8> = (0..4096 + 16).map(|_| rng.next_u64() as u8).collect();
            let state = rng.next_u64() as u32;
            let k = case % 256;
            let lengths = (0..16).map(|j| k + 256 * j).chain((k == 0).then_some(4096));
            for (j, len) in lengths.enumerate() {
                let off = (case + j) % 16;
                let span = &data[off..off + len];
                let expect = bytewise(state, span);
                assert_eq!(
                    update_sliced(state, span),
                    expect,
                    "sliced, {len} B at +{off}"
                );
                if let Some(got) = update_clmul(state, span) {
                    assert_eq!(got, expect, "clmul, {len} B at +{off}");
                }
            }
            // Streaming across the kernel threshold: fragments from
            // 0 to 2 × CLMUL_MIN bytes, so some take each kernel.
            let total = rng.gen_range(0..=4096usize);
            let off = rng.gen_range(0..16usize);
            let span = &data[off..off + total];
            let mut h = Crc32::new();
            let mut rest = span;
            while !rest.is_empty() {
                let cut = rng.gen_range(0..=2 * CLMUL_MIN).min(rest.len());
                h.update(&rest[..cut]);
                rest = &rest[cut..];
            }
            assert_eq!(h.finalize(), !bytewise(!0, span), "streamed {total} B");
            case += 1;
        });
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
