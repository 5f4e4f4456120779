//! Run-length encoding — the family the paper flags as *not* usable out of
//! the box under a Relational Fabric (§III-D): locating row `i` requires a
//! search over the run index, and run boundaries don't align with the
//! row-group blocks a fabric device streams.

use fabric_types::{FabricError, Result};

/// RLE-encoded `i64` column.
#[derive(Debug, Clone)]
pub struct RleEncoded {
    /// `(value, run_length)` pairs.
    runs: Vec<(i64, u32)>,
    /// Cumulative row count *before* each run (for binary search).
    starts: Vec<u64>,
    len: usize,
}

impl RleEncoded {
    pub fn encode(values: &[i64]) -> Self {
        let mut runs: Vec<(i64, u32)> = Vec::new();
        for &v in values {
            match runs.last_mut() {
                Some((rv, rl)) if *rv == v && *rl < u32::MAX => *rl += 1,
                _ => runs.push((v, 1)),
            }
        }
        let mut starts = Vec::with_capacity(runs.len());
        let mut acc = 0u64;
        for &(_, rl) in &runs {
            starts.push(acc);
            acc += rl as u64;
        }
        RleEncoded {
            runs,
            starts,
            len: values.len(),
        }
    }

    pub fn compressed_bytes(&self) -> usize {
        self.runs.len() * 12
    }

    /// Random access via binary search over run starts — the "expensive
    /// decoding step" of §III-D.
    pub fn get(&self, i: usize) -> Result<i64> {
        if i >= self.len {
            return Err(FabricError::Codec(format!("index {i} out of range")));
        }
        let run = match self.starts.binary_search(&(i as u64)) {
            Ok(r) => r,
            Err(r) => r - 1,
        };
        Ok(self.runs[run].0)
    }

    pub fn decode_all(&self) -> Vec<i64> {
        let mut out = Vec::with_capacity(self.len);
        for &(v, rl) in &self.runs {
            out.extend(std::iter::repeat_n(v, rl as usize));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fabric_types::rng::for_each_case;

    #[test]
    fn runs_collapse() {
        let vals = vec![5i64, 5, 5, 7, 7, 5];
        let enc = RleEncoded::encode(&vals);
        assert_eq!(enc.compressed_bytes(), 3 * 12, "three runs");
        assert_eq!(enc.decode_all(), vals);
    }

    #[test]
    fn random_access_across_run_boundaries() {
        let vals = vec![1i64, 1, 2, 2, 2, 3];
        let enc = RleEncoded::encode(&vals);
        for (i, &v) in vals.iter().enumerate() {
            assert_eq!(enc.get(i).unwrap(), v);
        }
        assert!(enc.get(6).is_err());
    }

    #[test]
    fn sorted_low_cardinality_compresses_extremely() {
        let vals: Vec<i64> = (0..4).flat_map(|v| vec![v; 2500]).collect();
        let enc = RleEncoded::encode(&vals);
        assert_eq!(enc.compressed_bytes(), 4 * 12, "four runs");
    }

    #[test]
    fn empty() {
        let enc = RleEncoded::encode(&[]);
        assert_eq!(enc.decode_all(), Vec::<i64>::new());
    }

    #[test]
    fn prop_roundtrip() {
        for_each_case("rle roundtrip", |rng| {
            let vals: Vec<i64> = (0..rng.gen_range(0..500usize))
                .map(|_| rng.gen_range(-3..3i64))
                .collect();
            let enc = RleEncoded::encode(&vals);
            assert_eq!(enc.decode_all(), vals);
            for (i, &v) in vals.iter().enumerate() {
                assert_eq!(enc.get(i).unwrap(), v);
            }
        });
    }
}
