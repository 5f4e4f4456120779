//! The map-based stream prefetcher: the reference `fabric-sim`'s
//! in-flight store is checked against (DESIGN.md §22). One copy,
//! compiled into the `prefetch` unit tests (through `#[path]`) and into
//! the reference hierarchy of `tests/line_path_reference.rs`.
//!
//! It is the prefetcher before any host-side work: a `BTreeMap` from
//! line to its exact completion time, never forgotten until a demand
//! access takes it or the valve drops everything; streams in a `Vec`
//! with the same training, lookahead, stride locking and pseudo-random
//! replacement. `take_inflight` returns the stored time itself, not
//! `max(ready, now)`, so a hierarchy built on it exercises the claim
//! that the two are indistinguishable to the line path.

use super::{Cycles, DramModel, SimConfig};
use std::collections::BTreeMap;

/// Past this many entries the set is dropped (model behaviour).
pub const MAX_INFLIGHT: usize = 1 << 20;
/// The largest stride a fresh stream locks.
const MAX_STRIDE_LINES: u64 = 8;

struct Stream {
    next_line: u64,
    stride: u64,
    score: usize,
    issued_until: u64,
}

pub struct MapPrefetcher {
    streams: Vec<Stream>,
    capacity: usize,
    degree: u64,
    train: usize,
    tick: u64,
    line_shift: u32,
    inflight: BTreeMap<u64, Cycles>,
    issued: u64,
    useful: u64,
}

impl MapPrefetcher {
    pub fn new(cfg: &SimConfig) -> Self {
        MapPrefetcher {
            streams: Vec::new(),
            capacity: cfg.prefetch_streams,
            degree: cfg.prefetch_degree as u64,
            train: cfg.prefetch_train,
            tick: 0,
            line_shift: cfg.line_size.trailing_zeros(),
            inflight: BTreeMap::new(),
            issued: 0,
            useful: 0,
        }
    }

    /// The exact completion time of the prefetch of this line, if one is
    /// in flight; consumes it.
    pub fn take_inflight(&mut self, line_addr: u64) -> Option<Cycles> {
        let ready = self.inflight.remove(&(line_addr >> self.line_shift));
        if ready.is_some() {
            self.useful += 1;
        }
        ready
    }

    pub fn observe(&mut self, line_addr: u64, now: Cycles, dram: &mut DramModel) {
        self.tick += 1;
        let line = line_addr >> self.line_shift;
        let mut matched = None;
        for (i, s) in self.streams.iter_mut().enumerate() {
            if line == s.next_line {
                matched = Some(i);
                break;
            }
            if s.score == 1 && line > s.next_line - s.stride {
                let delta = line - (s.next_line - s.stride);
                if delta <= MAX_STRIDE_LINES {
                    s.stride = delta;
                    s.next_line = line;
                    matched = Some(i);
                    break;
                }
            }
        }
        match matched {
            Some(i) => {
                let s = &mut self.streams[i];
                s.score += 1;
                s.next_line = line + s.stride;
                if s.score >= self.train {
                    let target = line + self.degree * s.stride;
                    let mut next = s.issued_until.max(line + s.stride);
                    let phase_off = next.wrapping_sub(line) % s.stride;
                    if phase_off != 0 {
                        next += s.stride - phase_off;
                    }
                    while next <= target {
                        if !self.inflight.contains_key(&next) {
                            let ready = dram.access(next << self.line_shift, now);
                            self.inflight.insert(next, ready);
                            self.issued += 1;
                        }
                        s.issued_until = s.issued_until.max(next);
                        next += s.stride;
                    }
                }
            }
            None => {
                if self.streams.len() == self.capacity {
                    let mut x = self.tick;
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let victim = (x as usize) % self.streams.len();
                    self.streams.swap_remove(victim);
                }
                self.streams.push(Stream {
                    next_line: line + 1,
                    stride: 1,
                    score: 1,
                    issued_until: line,
                });
            }
        }
        if self.inflight.len() > MAX_INFLIGHT {
            self.inflight.clear();
        }
    }

    /// `(prefetches issued, prefetches that serviced a demand access)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.issued, self.useful)
    }

    /// Lines in flight.
    pub fn len(&self) -> usize {
        self.inflight.len()
    }

    pub fn reset(&mut self) {
        self.streams.clear();
        self.inflight.clear();
        self.tick = 0;
        self.issued = 0;
        self.useful = 0;
    }
}
