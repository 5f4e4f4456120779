//! Canonical Huffman coding over bytes, with a block index for
//! fabric-style random access at block granularity.

use fabric_types::{cast, FabricError, Result};
use std::collections::BinaryHeap;

/// Default symbols per indexed block.
pub const DEFAULT_BLOCK: usize = 1024;

/// Huffman-encoded byte stream.
#[derive(Debug, Clone)]
pub struct HuffmanEncoded {
    /// Code length per byte symbol (0 = unused).
    lengths: [u8; 256],
    /// The bitstream, MSB-first within each byte.
    bits: Vec<u8>,
    /// Symbols per indexed block.
    block_symbols: usize,
    /// Starting bit offset of each block.
    block_offsets: Vec<u64>,
    /// Total number of encoded symbols.
    len: usize,
}

/// Build canonical code lengths from frequencies (package-free heap
/// algorithm; max depth is fine for 256 symbols).
fn build_lengths(freq: &[u64; 256]) -> [u8; 256] {
    #[derive(PartialEq, Eq)]
    struct Node {
        weight: u64,
        id: usize, // tie-break for determinism
        symbols: Vec<usize>,
    }
    impl Ord for Node {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            // Min-heap via reversed comparison.
            other.weight.cmp(&self.weight).then(other.id.cmp(&self.id))
        }
    }
    impl PartialOrd for Node {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }

    let mut lengths = [0u8; 256];
    let mut heap = BinaryHeap::new();
    let mut id = 0;
    for (sym, &f) in freq.iter().enumerate() {
        if f > 0 {
            heap.push(Node {
                weight: f,
                id,
                symbols: vec![sym],
            });
            id += 1;
        }
    }
    match heap.len() {
        0 => return lengths,
        1 => {
            // Degenerate: one distinct symbol still needs one bit.
            lengths[heap.pop().unwrap().symbols[0]] = 1;
            return lengths;
        }
        _ => {}
    }
    while heap.len() > 1 {
        let a = heap.pop().unwrap();
        let b = heap.pop().unwrap();
        let mut symbols = a.symbols;
        symbols.extend(b.symbols);
        for &s in &symbols {
            lengths[s] += 1;
        }
        heap.push(Node {
            weight: a.weight + b.weight,
            id,
            symbols,
        });
        id += 1;
    }
    lengths
}

/// Canonical code assignment: symbols sorted by (length, symbol).
fn canonical_codes(lengths: &[u8; 256]) -> [(u32, u8); 256] {
    let mut order: Vec<usize> = (0..256).filter(|&s| lengths[s] > 0).collect();
    order.sort_by_key(|&s| (lengths[s], s));
    let mut codes = [(0u32, 0u8); 256];
    let mut code = 0u32;
    let mut prev_len = 0u8;
    for &s in &order {
        let l = lengths[s];
        code <<= l - prev_len;
        codes[s] = (code, l);
        code += 1;
        prev_len = l;
    }
    codes
}

struct BitWriter {
    bytes: Vec<u8>,
    bit_pos: u64,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            bytes: Vec::new(),
            bit_pos: 0,
        }
    }

    fn write(&mut self, code: u32, len: u8) {
        for i in (0..len).rev() {
            let bit = (code >> i) & 1;
            let byte_i = (self.bit_pos / 8) as usize;
            if byte_i == self.bytes.len() {
                self.bytes.push(0);
            }
            if bit == 1 {
                self.bytes[byte_i] |= 1 << (7 - (self.bit_pos % 8));
            }
            self.bit_pos += 1;
        }
    }
}

#[inline]
fn read_bit(bits: &[u8], pos: u64) -> u8 {
    (bits[(pos / 8) as usize] >> (7 - (pos % 8))) & 1
}

impl HuffmanEncoded {
    /// Encode with the default block size.
    pub fn encode(data: &[u8]) -> Self {
        Self::encode_with_block(data, DEFAULT_BLOCK)
    }

    /// Encode `data`, indexing every `block_symbols` symbols.
    pub fn encode_with_block(data: &[u8], block_symbols: usize) -> Self {
        assert!(block_symbols >= 1);
        let mut freq = [0u64; 256];
        for &b in data {
            freq[b as usize] += 1;
        }
        let lengths = build_lengths(&freq);
        let codes = canonical_codes(&lengths);
        let mut w = BitWriter::new();
        let mut block_offsets = Vec::with_capacity(data.len() / block_symbols + 1);
        for (i, &b) in data.iter().enumerate() {
            if i % block_symbols == 0 {
                block_offsets.push(w.bit_pos);
            }
            let (code, len) = codes[b as usize];
            w.write(code, len);
        }
        HuffmanEncoded {
            lengths,
            bits: w.bytes,
            block_symbols,
            block_offsets,
            len: data.len(),
        }
    }

    /// Compressed size: bitstream + 256-byte length table + block index.
    pub fn compressed_bytes(&self) -> usize {
        self.bits.len() + 256 + self.block_offsets.len() * 8
    }

    fn decode_from(&self, mut pos: u64, n: usize) -> Result<Vec<u8>> {
        // Canonical decoding: walk lengths, tracking the first code of each
        // length.
        let codes = canonical_codes(&self.lengths);
        // Build (length -> (first_code, first_index)) plus symbol order.
        let mut order: Vec<usize> = (0..256).filter(|&s| self.lengths[s] > 0).collect();
        order.sort_by_key(|&s| (self.lengths[s], s));
        let max_len = order.iter().map(|&s| self.lengths[s]).max().unwrap_or(0);

        let mut out = Vec::with_capacity(n);
        let total_bits = self.bits.len() as u64 * 8;
        for _ in 0..n {
            let mut code = 0u32;
            let mut len = 0u8;
            loop {
                if pos >= total_bits {
                    return Err(FabricError::Codec("huffman stream truncated".into()));
                }
                code = (code << 1) | u32::from(read_bit(&self.bits, pos));
                pos += 1;
                len += 1;
                if len > max_len {
                    return Err(FabricError::Codec("invalid huffman code".into()));
                }
                // Linear probe of symbols with this length (fine for tests
                // and simulation workloads; a real decoder uses tables).
                if let Some(&sym) = order
                    .iter()
                    .find(|&&s| self.lengths[s] == len && codes[s] == (code, len))
                {
                    // `order` only holds indices 0..256.
                    out.push(cast::low_u8(sym as u64));
                    break;
                }
            }
        }
        Ok(out)
    }

    /// Decode one indexed block.
    pub fn decode_block(&self, b: usize) -> Result<Vec<u8>> {
        if b >= self.block_offsets.len() {
            return Err(FabricError::Codec(format!("block {b} out of range")));
        }
        let n = if (b + 1) * self.block_symbols <= self.len {
            self.block_symbols
        } else {
            self.len - b * self.block_symbols
        };
        self.decode_from(self.block_offsets[b], n)
    }

    /// Decode the whole stream.
    pub fn decode_all(&self) -> Result<Vec<u8>> {
        if self.len == 0 {
            return Ok(Vec::new());
        }
        self.decode_from(0, self.len)
    }

    /// Random access to byte `i` (decodes its block prefix).
    pub fn get(&self, i: usize) -> Result<u8> {
        if i >= self.len {
            return Err(FabricError::Codec(format!("index {i} out of range")));
        }
        let b = i / self.block_symbols;
        let within = i % self.block_symbols;
        let decoded = self.decode_from(self.block_offsets[b], within + 1)?;
        Ok(decoded[within])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    #[test]
    fn roundtrip_text() {
        let data = b"abracadabra abracadabra the quick brown fox".to_vec();
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode_all().unwrap(), data);
    }

    #[test]
    fn skewed_data_compresses() {
        // 90% one symbol: well under 8 bits per symbol.
        let data: Vec<u8> = (0..10_000)
            .map(|i| if i % 10 == 0 { b'x' } else { b'a' })
            .collect();
        let enc = HuffmanEncoded::encode(&data);
        assert!(enc.bits.len() < data.len() / 4);
        assert_eq!(enc.decode_all().unwrap(), data);
    }

    #[test]
    fn single_symbol_degenerate() {
        let data = vec![7u8; 100];
        let enc = HuffmanEncoded::encode(&data);
        assert_eq!(enc.decode_all().unwrap(), data);
        assert_eq!(enc.get(50).unwrap(), 7);
    }

    #[test]
    fn block_random_access() {
        let data: Vec<u8> = (0..500).map(|i| (i % 7) as u8 * 30).collect();
        let enc = HuffmanEncoded::encode_with_block(&data, 64);
        for i in [0usize, 63, 64, 499] {
            assert_eq!(enc.get(i).unwrap(), data[i], "index {i}");
        }
        assert_eq!(enc.decode_block(1).unwrap(), &data[64..128]);
        assert!(enc.get(500).is_err());
    }

    #[test]
    fn empty_input() {
        let enc = HuffmanEncoded::encode(&[]);
        assert_eq!(enc.decode_all().unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("huffman roundtrip", |rng| {
            let data: Vec<u8> = (0..rng.gen_range(0..400usize))
                .map(|_| rng.next_u64() as u8)
                .collect();
            let block = rng.gen_range(1..128usize);
            let enc = HuffmanEncoded::encode_with_block(&data, block);
            assert_eq!(enc.decode_all().unwrap(), data);
        });
    }
}
