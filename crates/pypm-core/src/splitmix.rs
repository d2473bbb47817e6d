//! SplitMix64: a seedable stream of well-mixed `u64`s whose whole state
//! is one `u64`. The one generator behind the program's reproducible
//! randomness: a client's seeded retry jitter and the `%percent`
//! sampling of fault injection.

/// The SplitMix64 generator over its state (the seed, to begin with).
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The published SplitMix64 stream from seed 0, so that seeded
    /// jitter and chaos schedules stay what they were.
    #[test]
    fn the_stream_from_seed_zero_is_splitmix64s() {
        let mut rng = SplitMix64(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                0xe220_a839_7b1d_cdaf,
                0x6e78_9e6a_a1b9_65f4,
                0x06c4_5d18_8009_454f
            ]
        );
    }
}
