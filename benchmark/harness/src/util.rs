//! Small shared pieces: the seeded generator, the digest, `/proc` readers.

use std::fs;

/// SplitMix64: every input the benchmark makes comes from one of these,
/// seeded from `--seed`, so the same seed gives the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias at these sizes is
    /// far below anything the workloads can observe.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a, 64 bit. The benchmark's own digest of inputs and output
/// graphs, deliberately not the product's `CacheKey` hash: a change to
/// that hash must not change what the benchmark calls "the same output".
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub fn hex16(digest: u64) -> String {
    format!("{digest:016x}")
}

/// A `kB` field of `/proc/<pid>/status` (`VmHWM`, `VmRSS`), in MB.
pub fn proc_status_mb(pid: &str, field: &str) -> Option<f64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// utime + stime of a process, in seconds. The tick is 100 Hz on every
/// Linux this runs on; without libc there is no `sysconf` to ask.
pub fn proc_cpu_seconds(pid: u32) -> Option<f64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after ")".
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut r = SplitMix64::new(seed);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn shuffle_keeps_every_item() {
        let mut items: Vec<u32> = (0..41).collect();
        SplitMix64::new(3).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..41).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }

    #[test]
    fn own_process_is_readable() {
        assert!(proc_status_mb("self", "VmHWM").unwrap() > 0.0);
        assert!(proc_cpu_seconds(std::process::id()).is_some());
    }
}
