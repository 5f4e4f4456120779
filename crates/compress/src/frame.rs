//! Frame-of-reference (FOR) encoding with per-block bit packing.
//!
//! Each block stores its minimum as the reference plus fixed-width
//! bit-packed offsets. Unlike delta encoding, a value can be decoded
//! *without touching its neighbours* — `reference + bits[i]` — which makes
//! FOR the friendliest numeric codec for a Relational Fabric after plain
//! dictionaries: the device reads one block header and one bit-packed slot.

use fabric_types::{cast, FabricError, Result};

/// Default values per block.
pub const DEFAULT_BLOCK: usize = 128;

/// One encoded block.
#[derive(Debug, Clone)]
struct Block {
    reference: i64,
    bit_width: u8,
    /// ceil(n * bit_width / 8) bytes of little-endian bit-packed offsets.
    bits: Vec<u8>,
    n: usize,
}

/// Frame-of-reference-encoded `i64` column.
#[derive(Debug, Clone)]
pub struct ForEncoded {
    block_size: usize,
    blocks: Vec<Block>,
    len: usize,
}

fn bits_needed(max_offset: u64) -> u8 {
    // 0..=64: always fits in a u8.
    cast::low_u8(u64::from(64 - max_offset.leading_zeros()))
}

impl ForEncoded {
    pub fn encode(values: &[i64]) -> Self {
        Self::encode_with_block(values, DEFAULT_BLOCK)
    }

    pub fn encode_with_block(values: &[i64], block_size: usize) -> Self {
        assert!(block_size >= 1);
        let mut blocks = Vec::new();
        for chunk in values.chunks(block_size) {
            let reference = *chunk.iter().min().unwrap();
            let max_offset = chunk
                .iter()
                .map(|&v| (v as i128 - reference as i128) as u64)
                .max()
                .unwrap();
            let bit_width = bits_needed(max_offset);
            let mut bits = vec![0u8; (chunk.len() * bit_width as usize).div_ceil(8)];
            for (i, &v) in chunk.iter().enumerate() {
                let offset = (v as i128 - reference as i128) as u64;
                write_bits(&mut bits, i * bit_width as usize, bit_width, offset);
            }
            blocks.push(Block {
                reference,
                bit_width,
                bits,
                n: chunk.len(),
            });
        }
        ForEncoded {
            block_size,
            blocks,
            len: values.len(),
        }
    }

    /// Compressed size: per block, reference (8) + width (1) + packed bits.
    pub fn compressed_bytes(&self) -> usize {
        self.blocks.iter().map(|b| 9 + b.bits.len()).sum()
    }

    /// O(1) random access: one block header plus one bit-packed slot.
    pub fn get(&self, i: usize) -> Result<i64> {
        if i >= self.len {
            return Err(FabricError::Codec(format!("index {i} out of range")));
        }
        let b = &self.blocks[i / self.block_size];
        let within = i % self.block_size;
        let offset = read_bits(&b.bits, within * b.bit_width as usize, b.bit_width);
        Ok((b.reference as i128 + offset as i128) as i64)
    }

    /// Decode one block.
    pub fn decode_block(&self, b: usize) -> Result<Vec<i64>> {
        let block = self
            .blocks
            .get(b)
            .ok_or_else(|| FabricError::Codec(format!("block {b} out of range")))?;
        let mut out = Vec::with_capacity(block.n);
        for i in 0..block.n {
            let offset = read_bits(&block.bits, i * block.bit_width as usize, block.bit_width);
            out.push((block.reference as i128 + offset as i128) as i64);
        }
        Ok(out)
    }

    pub fn decode_all(&self) -> Result<Vec<i64>> {
        let mut out = Vec::with_capacity(self.len);
        for b in 0..self.blocks.len() {
            out.extend(self.decode_block(b)?);
        }
        Ok(out)
    }
}

/// Write `width` low bits of `value` at bit offset `pos`.
fn write_bits(buf: &mut [u8], pos: usize, width: u8, value: u64) {
    for k in 0..width as usize {
        if (value >> k) & 1 == 1 {
            buf[(pos + k) / 8] |= 1 << ((pos + k) % 8);
        }
    }
}

/// Read `width` bits at bit offset `pos`.
fn read_bits(buf: &[u8], pos: usize, width: u8) -> u64 {
    let mut v = 0u64;
    for k in 0..width as usize {
        if (buf[(pos + k) / 8] >> ((pos + k) % 8)) & 1 == 1 {
            v |= 1 << k;
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    #[test]
    fn narrow_range_packs_tightly() {
        // Values in [1000, 1015]: 4 bits each.
        let vals: Vec<i64> = (0..1024).map(|i| 1000 + (i % 16)).collect();
        let enc = ForEncoded::encode(&vals);
        // 8 blocks x (9 header + 128*4/8 = 64) = 584 bytes vs 8192 raw.
        assert!(enc.compressed_bytes() < 700, "{}", enc.compressed_bytes());
        assert_eq!(enc.decode_all().unwrap(), vals);
    }

    #[test]
    fn constant_block_is_zero_bits() {
        let vals = vec![42i64; 256];
        let enc = ForEncoded::encode(&vals);
        assert_eq!(enc.compressed_bytes(), 2 * 9); // headers only
        assert_eq!(enc.get(200).unwrap(), 42);
    }

    #[test]
    fn random_access_matches() {
        let vals: Vec<i64> = vec![5, -3, 1000, 7, 7, -90, 0];
        let enc = ForEncoded::encode_with_block(&vals, 3);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i).unwrap(), v, "index {i}");
        }
        assert!(enc.get(7).is_err());
        assert!(enc.decode_block(3).is_err());
    }

    #[test]
    fn negative_and_extreme_values() {
        let vals = vec![i64::MIN, i64::MAX, 0, -1];
        let enc = ForEncoded::encode_with_block(&vals, 2);
        assert_eq!(enc.decode_all().unwrap(), vals);
    }

    #[test]
    fn empty() {
        let enc = ForEncoded::encode(&[]);
        assert_eq!(enc.decode_all().unwrap(), Vec::<i64>::new());
    }

    fn any_i64s(rng: &mut fabric_types::rng::DetRng, min_len: usize) -> Vec<i64> {
        (0..rng.gen_range(min_len..300))
            .map(|_| rng.next_u64() as i64)
            .collect()
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("for roundtrip", |rng| {
            let vals = any_i64s(rng, 0);
            let block = rng.gen_range(1..64usize);
            let enc = ForEncoded::encode_with_block(&vals, block);
            assert_eq!(enc.decode_all().unwrap(), vals);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(enc.get(i).unwrap(), v);
            }
        });
    }

    #[test]
    fn prop_never_larger_than_raw_plus_headers() {
        for_each_case("for never larger than raw plus headers", |rng| {
            let vals = any_i64s(rng, 1);
            let enc = ForEncoded::encode(&vals);
            let headers = vals.len().div_ceil(DEFAULT_BLOCK) * 9;
            assert!(enc.compressed_bytes() <= vals.len() * 8 + headers);
        });
    }
}
