//! Dictionary encoding with fixed-width codes.
//!
//! The friendliest codec for the fabric: a value is one array lookup away
//! (`dict[codes[i]]`), so the device can decode any row's column without
//! touching neighbours — true O(1) random access.

use fabric_types::{FabricError, Result};
use std::collections::BTreeMap;

/// A dictionary-encoded column of fixed-width raw values.
#[derive(Debug, Clone)]
pub struct DictEncoded {
    /// Distinct values in first-seen order, each `value_width` bytes.
    dict: Vec<u8>,
    value_width: usize,
    /// Per-row dictionary codes, packed to `code_width` bytes little-endian.
    codes: Vec<u8>,
    code_width: usize,
    len: usize,
}

/// Smallest byte width that can hold codes `0..n`.
fn code_width_for(n: usize) -> usize {
    match n {
        0..=0xFF => 1,
        0x100..=0xFFFF => 2,
        0x1_0000..=0xFFFF_FFFF => 4,
        _ => 8,
    }
}

impl DictEncoded {
    /// Encode `len` fixed-width values stored contiguously in `raw`.
    pub fn encode(raw: &[u8], value_width: usize) -> Result<Self> {
        if value_width == 0 || !raw.len().is_multiple_of(value_width) {
            return Err(FabricError::Codec(format!(
                "raw length {} is not a multiple of value width {value_width}",
                raw.len()
            )));
        }
        let len = raw.len() / value_width;
        let mut index: BTreeMap<&[u8], usize> = BTreeMap::new();
        let mut dict = Vec::new();
        let mut code_list = Vec::with_capacity(len);
        for i in 0..len {
            let v = &raw[i * value_width..(i + 1) * value_width];
            let next = index.len();
            let code = *index.entry(v).or_insert(next);
            if code == next {
                dict.extend_from_slice(v);
            }
            code_list.push(code);
        }
        let code_width = code_width_for(index.len().saturating_sub(1));
        let mut codes = Vec::with_capacity(len * code_width);
        for c in code_list {
            codes.extend_from_slice(&c.to_le_bytes()[..code_width]);
        }
        Ok(DictEncoded {
            dict,
            value_width,
            codes,
            code_width,
            len,
        })
    }

    /// Compressed size in bytes (dictionary + codes).
    pub fn compressed_bytes(&self) -> usize {
        self.dict.len() + self.codes.len()
    }

    /// Original size in bytes.
    pub fn original_bytes(&self) -> usize {
        self.len * self.value_width
    }

    /// O(1) random access: the raw bytes of value `i`.
    pub fn get(&self, i: usize) -> &[u8] {
        let mut code = [0u8; 8];
        code[..self.code_width]
            .copy_from_slice(&self.codes[i * self.code_width..(i + 1) * self.code_width]);
        let c = u64::from_le_bytes(code) as usize;
        &self.dict[c * self.value_width..(c + 1) * self.value_width]
    }

    /// Decode everything back to raw bytes.
    pub fn decode_all(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.original_bytes());
        for i in 0..self.len {
            out.extend_from_slice(self.get(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    fn raw_from_i32(values: &[i32]) -> Vec<u8> {
        values.iter().flat_map(|v| v.to_le_bytes()).collect()
    }

    #[test]
    fn roundtrip_and_random_access() {
        let vals = vec![5i32, 7, 5, 5, 9, 7, 5];
        let raw = raw_from_i32(&vals);
        let enc = DictEncoded::encode(&raw, 4).unwrap();
        // Three distinct 4-byte values and seven 1-byte codes.
        assert_eq!(enc.compressed_bytes(), 3 * 4 + 7);
        assert_eq!(enc.decode_all(), raw);
        assert_eq!(enc.get(4), &9i32.to_le_bytes());
    }

    #[test]
    fn low_cardinality_compresses_well() {
        // 10_000 values from a domain of 3: ~1 byte per value plus dict.
        let vals: Vec<i32> = (0..10_000).map(|i| (i % 3) * 100).collect();
        let raw = raw_from_i32(&vals);
        let enc = DictEncoded::encode(&raw, 4).unwrap();
        assert!(enc.compressed_bytes() < raw.len() / 3);
        assert_eq!(enc.decode_all(), raw);
    }

    #[test]
    fn wide_cardinality_uses_wider_codes() {
        let vals: Vec<i32> = (0..300).collect();
        let enc = DictEncoded::encode(&raw_from_i32(&vals), 4).unwrap();
        // 300 distinct -> 2-byte codes.
        assert_eq!(enc.compressed_bytes(), 300 * 4 + 300 * 2);
    }

    #[test]
    fn misaligned_input_is_error() {
        assert!(DictEncoded::encode(&[1, 2, 3], 4).is_err());
        assert!(DictEncoded::encode(&[1, 2, 3, 4], 0).is_err());
    }

    #[test]
    fn empty_input() {
        let enc = DictEncoded::encode(&[], 4).unwrap();
        assert_eq!(enc.decode_all(), Vec::<u8>::new());
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("dictionary roundtrip", |rng| {
            let vals: Vec<i32> = (0..rng.gen_range(0..500usize))
                .map(|_| rng.gen_range(-50..50i32))
                .collect();
            let raw = raw_from_i32(&vals);
            let enc = DictEncoded::encode(&raw, 4).unwrap();
            assert_eq!(enc.decode_all(), raw);
            for (i, v) in vals.iter().enumerate() {
                assert_eq!(enc.get(i), &v.to_le_bytes());
            }
        });
    }
}
