//! A small LZ77 variant — the general-purpose family the paper rules out
//! for fabric use (§III-D): back-references reach arbitrarily far back, so
//! *"they require fully decompressing your data before you can access
//! separate columns"*.

use fabric_types::{cast, FabricError, Result};
use std::collections::BTreeMap;

/// Minimum/maximum match lengths.
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = 255;
/// Search window.
const WINDOW: usize = 4096;

/// LZ77-compressed byte stream.
///
/// Token stream format: `0x00 <literal u8>` or `0x01 <offset u16 le>
/// <len u8>` (offset counts back from the current position; length is the
/// actual match length, always ≥ `MIN_MATCH`).
#[derive(Debug, Clone)]
pub struct Lz77 {
    tokens: Vec<u8>,
    len: usize,
}

impl Lz77 {
    pub fn encode(data: &[u8]) -> Self {
        let mut tokens = Vec::new();
        // Map from a 4-byte prefix to recent positions.
        let mut table: BTreeMap<[u8; 4], Vec<usize>> = BTreeMap::new();
        let mut i = 0usize;
        while i < data.len() {
            let mut best_len = 0usize;
            let mut best_off = 0usize;
            if i + MIN_MATCH <= data.len() {
                let key: [u8; 4] = data[i..i + 4].try_into().unwrap();
                if let Some(positions) = table.get(&key) {
                    for &p in positions.iter().rev().take(16) {
                        if i - p > WINDOW {
                            break;
                        }
                        let mut l = 0;
                        while i + l < data.len() && data[p + l] == data[i + l] && l < MAX_MATCH {
                            l += 1;
                        }
                        if l > best_len {
                            best_len = l;
                            best_off = i - p;
                        }
                    }
                }
            }
            if best_len >= MIN_MATCH {
                tokens.push(1);
                // Bounded by construction: `best_off <= WINDOW` (4096) and
                // `best_len <= MAX_MATCH` (255).
                tokens.extend_from_slice(&cast::low_u16(best_off as u64).to_le_bytes());
                tokens.push(cast::low_u8(best_len as u64));
                for j in i..i + best_len {
                    if j + 4 <= data.len() {
                        let key: [u8; 4] = data[j..j + 4].try_into().unwrap();
                        table.entry(key).or_default().push(j);
                    }
                }
                i += best_len;
            } else {
                tokens.push(0);
                tokens.push(data[i]);
                if i + 4 <= data.len() {
                    let key: [u8; 4] = data[i..i + 4].try_into().unwrap();
                    table.entry(key).or_default().push(i);
                }
                i += 1;
            }
        }
        Lz77 {
            tokens,
            len: data.len(),
        }
    }

    pub fn compressed_bytes(&self) -> usize {
        self.tokens.len()
    }

    /// Full decompression — the only way to read anything from an LZ
    /// stream, which is exactly the fabric-compatibility problem.
    pub fn decode_all(&self) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(self.len);
        let mut i = 0usize;
        while i < self.tokens.len() {
            match self.tokens[i] {
                0 => {
                    let b = *self
                        .tokens
                        .get(i + 1)
                        .ok_or_else(|| FabricError::Codec("LZ literal truncated".into()))?;
                    out.push(b);
                    i += 2;
                }
                1 => {
                    if i + 4 > self.tokens.len() {
                        return Err(FabricError::Codec("LZ match truncated".into()));
                    }
                    let off = u16::from_le_bytes([self.tokens[i + 1], self.tokens[i + 2]]) as usize;
                    let l = self.tokens[i + 3] as usize;
                    if off == 0 || off > out.len() {
                        return Err(FabricError::Codec("LZ offset out of range".into()));
                    }
                    let start = out.len() - off;
                    for j in 0..l {
                        let b = out[start + j];
                        out.push(b);
                    }
                    i += 4;
                }
                t => return Err(FabricError::Codec(format!("bad LZ token {t}"))),
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    #[test]
    fn roundtrip_repetitive() {
        let phrase = b"the cat sat on the mat; ";
        let mut data = Vec::new();
        for _ in 0..20 {
            data.extend_from_slice(phrase);
        }
        let enc = Lz77::encode(&data);
        assert_eq!(enc.decode_all().unwrap(), data);
        assert!(enc.compressed_bytes() < data.len() / 2);
    }

    #[test]
    fn roundtrip_overlapping_match() {
        // Classic overlap: "aaaa..." encodes as a self-referencing match.
        let data = vec![b'a'; 300];
        let enc = Lz77::encode(&data);
        assert_eq!(enc.decode_all().unwrap(), data);
        assert!(enc.compressed_bytes() < 32);
    }

    #[test]
    fn incompressible_data_roundtrips() {
        // A de Bruijn-ish pseudo-random sequence.
        let data: Vec<u8> = (0..512u32)
            .map(|i| (i.wrapping_mul(2654435761) >> 24) as u8)
            .collect();
        let enc = Lz77::encode(&data);
        assert_eq!(enc.decode_all().unwrap(), data);
    }

    #[test]
    fn empty() {
        let enc = Lz77::encode(&[]);
        assert_eq!(enc.decode_all().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("lz roundtrip", |rng| {
            let data: Vec<u8> = (0..rng.gen_range(0..2000usize))
                .map(|_| rng.gen_range(0..8u8))
                .collect();
            let enc = Lz77::encode(&data);
            assert_eq!(enc.decode_all().unwrap(), data);
        });
    }
}
