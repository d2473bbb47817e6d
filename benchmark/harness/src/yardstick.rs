//! The yardstick: how fast the box is at this moment.
//!
//! The two-core VM this runs on changes speed by the minute — the same
//! compile reads 107 ms in one stretch and 172 ms in the next, and user
//! CPU time moves with the wall, so it is the core that slows, not the
//! scheduler that steals. A run is too short to average that out. So a
//! fixed kernel of the benchmark's own runs beside the ops, and every
//! timing is reported *at reference speed*: its wall time times
//! [`REFERENCE_MS`] over what the kernel took around it. Over 24
//! stretches of 20 s, that took the spread of a restart compile's
//! median from 20% to 4%.
//!
//! The kernel is a breadth-first walk over a random graph held as
//! `Vec<Vec<u32>>`, with a visited vector, a queue and a small hash map:
//! pointer chasing over about 2 MB, the kind of work a compile is. Of
//! the kernels tried (arithmetic, random walks over 256 kB to 32 MB,
//! allocation churn) it followed the compiles closest (correlation 0.95
//! to 0.98 in log time). It knows nothing of the program under test and
//! takes no seed.

use std::collections::{HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// What one reading takes on the box the benchmark was defined on, in
/// its faster stretches. Only a scale: it makes a timing at reference
/// speed read like the wall time of a quiet box.
pub const REFERENCE_MS: f64 = 8.0;

const NODES: usize = 40_000;
const EDGES_PER_NODE: usize = 3;
const WALKS: usize = 3;

#[derive(Debug)]
pub struct Yardstick {
    edges: Vec<Vec<u32>>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut x = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x % NODES as u64) as u32
        };
        let edges = (0..NODES)
            .map(|_| (0..EDGES_PER_NODE).map(|_| next()).collect())
            .collect();
        Yardstick { edges }
    }

    /// One reading, in ms.
    pub fn read(&self) -> f64 {
        let started = Instant::now();
        for walk in 0..WALKS {
            let mut seen = vec![false; NODES];
            let mut labels: HashMap<u32, u32> = HashMap::new();
            let mut queue = VecDeque::from([(walk * 7919 % NODES) as u32]);
            while let Some(v) = queue.pop_front() {
                if std::mem::replace(&mut seen[v as usize], true) {
                    continue;
                }
                *labels.entry(v % 512).or_default() += 1;
                for &w in &self.edges[v as usize] {
                    if !seen[w as usize] {
                        queue.push_back(w);
                    }
                }
            }
            black_box(labels.len());
        }
        started.elapsed().as_secs_f64() * 1e3
    }
}

/// How much of a slow stretch of the box timed work takes on: the
/// exponent of its time in the yardstick's (1: it slows as the yardstick
/// does; 0.5: by the square root). One pair per workload, fitted when
/// the benchmark was defined; `benchmark/README.md` has the fits.
#[derive(Debug, Clone, Copy)]
pub struct Sensitivity {
    /// Of one op.
    pub op: f64,
    /// Of one set-up.
    pub setup: f64,
}

/// What a wall time taken between two readings is multiplied by to
/// stand at reference speed.
pub fn to_reference(before_ms: f64, after_ms: f64, sensitivity: f64) -> f64 {
    (REFERENCE_MS / ((before_ms + after_ms) / 2.0)).powf(sensitivity)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_reading_is_positive_and_the_walk_is_the_same_every_time() {
        let a = Yardstick::new();
        let b = Yardstick::new();
        assert_eq!(a.edges, b.edges);
        assert!(a.read() > 0.0);
    }

    #[test]
    fn a_slow_stretch_scales_its_timings_down() {
        assert_eq!(to_reference(REFERENCE_MS, REFERENCE_MS, 1.0), 1.0);
        assert_eq!(
            to_reference(2.0 * REFERENCE_MS, 2.0 * REFERENCE_MS, 1.0),
            0.5
        );
        assert_eq!(
            to_reference(0.5 * REFERENCE_MS, 1.5 * REFERENCE_MS, 0.7),
            1.0
        );
        assert_eq!(
            to_reference(4.0 * REFERENCE_MS, 4.0 * REFERENCE_MS, 0.5),
            0.5
        );
        assert_eq!(
            to_reference(4.0 * REFERENCE_MS, 4.0 * REFERENCE_MS, 0.0),
            1.0
        );
    }
}
