//! Block-based delta encoding with zig-zag varints.
//!
//! Values are split into blocks; each block stores its first value verbatim
//! plus zig-zag varint deltas. Decoding value `i` touches only its block —
//! the granularity at which a fabric device can decompress on the fly.

use fabric_types::{cast, FabricError, Result};

/// Default rows per block (one block ≈ one device burst).
pub const DEFAULT_BLOCK: usize = 128;

/// Delta-encoded `i64` column.
#[derive(Debug, Clone)]
pub struct BlockDelta {
    block_size: usize,
    /// First value of each block.
    bases: Vec<i64>,
    /// Byte offset of each block's delta stream in `deltas`.
    offsets: Vec<usize>,
    deltas: Vec<u8>,
    len: usize,
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = cast::low_u8(v & 0x7F);
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn read_varint(data: &[u8], pos: &mut usize) -> Result<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or_else(|| FabricError::Codec("varint stream truncated".into()))?;
        *pos += 1;
        v |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(FabricError::Codec("varint too long".into()));
        }
    }
}

impl BlockDelta {
    /// Encode with the default block size.
    pub fn encode(values: &[i64]) -> Self {
        Self::encode_with_block(values, DEFAULT_BLOCK)
    }

    /// Encode with an explicit block size (must be ≥ 1).
    pub fn encode_with_block(values: &[i64], block_size: usize) -> Self {
        assert!(block_size >= 1);
        let mut bases = Vec::new();
        let mut offsets = Vec::new();
        let mut deltas = Vec::new();
        for block in values.chunks(block_size) {
            bases.push(block[0]);
            offsets.push(deltas.len());
            let mut prev = block[0];
            for &v in &block[1..] {
                write_varint(&mut deltas, zigzag(v.wrapping_sub(prev)));
                prev = v;
            }
        }
        BlockDelta {
            block_size,
            bases,
            offsets,
            deltas,
            len: values.len(),
        }
    }

    /// Compressed size in bytes (bases + offsets + delta stream).
    pub fn compressed_bytes(&self) -> usize {
        self.bases.len() * 8 + self.offsets.len() * 8 + self.deltas.len()
    }

    /// Decode one whole block (the fabric's on-the-fly unit). Returns the
    /// values of block `b`.
    pub fn decode_block(&self, b: usize) -> Result<Vec<i64>> {
        if b >= self.bases.len() {
            return Err(FabricError::Codec(format!("block {b} out of range")));
        }
        let n = if (b + 1) * self.block_size <= self.len {
            self.block_size
        } else {
            self.len - b * self.block_size
        };
        let mut out = Vec::with_capacity(n);
        let mut v = self.bases[b];
        out.push(v);
        let mut pos = self.offsets[b];
        for _ in 1..n {
            v = v.wrapping_add(unzigzag(read_varint(&self.deltas, &mut pos)?));
            out.push(v);
        }
        Ok(out)
    }

    /// Random access to value `i` (decodes `i`'s block prefix).
    pub fn get(&self, i: usize) -> Result<i64> {
        if i >= self.len {
            return Err(FabricError::Codec(format!("index {i} out of range")));
        }
        let b = i / self.block_size;
        let within = i % self.block_size;
        let mut v = self.bases[b];
        let mut pos = self.offsets[b];
        for _ in 0..within {
            v = v.wrapping_add(unzigzag(read_varint(&self.deltas, &mut pos)?));
        }
        Ok(v)
    }

    /// Decode everything.
    pub fn decode_all(&self) -> Result<Vec<i64>> {
        let mut out = Vec::with_capacity(self.len);
        for b in 0..self.bases.len() {
            out.extend(self.decode_block(b)?);
        }
        Ok(out)
    }

    /// The block size used at encode time.
    pub fn block_size(&self) -> usize {
        self.block_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    #[test]
    fn zigzag_roundtrip_extremes() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 42, -42] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn sorted_data_compresses_well() {
        // Sorted timestamps with small gaps: ~1 byte per value.
        let vals: Vec<i64> = (0..10_000).map(|i| 1_600_000_000 + i * 3).collect();
        let enc = BlockDelta::encode(&vals);
        assert!(enc.compressed_bytes() < vals.len() * 8 / 4);
        assert_eq!(enc.decode_all().unwrap(), vals);
    }

    #[test]
    fn random_access_matches_decode_all() {
        let vals: Vec<i64> = vec![100, 90, 95, 1000, -5, -5, 7];
        let enc = BlockDelta::encode_with_block(&vals, 3);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i).unwrap(), v);
        }
        assert!(enc.get(7).is_err());
    }

    #[test]
    fn block_decode_boundaries() {
        let vals: Vec<i64> = (0..10).collect();
        let enc = BlockDelta::encode_with_block(&vals, 4);
        assert_eq!(enc.decode_block(0).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(enc.decode_block(2).unwrap(), vec![8, 9]); // partial tail
        assert!(enc.decode_block(3).is_err());
    }

    #[test]
    fn empty_and_single() {
        let enc = BlockDelta::encode(&[]);
        assert_eq!(enc.decode_all().unwrap(), Vec::<i64>::new());
        let enc = BlockDelta::encode(&[42]);
        assert_eq!(enc.get(0).unwrap(), 42);
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("delta roundtrip", |rng| {
            let vals: Vec<i64> = (0..rng.gen_range(0..300usize))
                .map(|_| rng.next_u64() as i64)
                .collect();
            let block = rng.gen_range(1..64usize);
            let enc = BlockDelta::encode_with_block(&vals, block);
            assert_eq!(enc.decode_all().unwrap(), vals);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(enc.get(i).unwrap(), v);
            }
        });
    }
}
