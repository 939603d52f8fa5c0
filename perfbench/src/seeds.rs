//! Seed plumbing: every input of a run — graph seeds, trial seeds, churn
//! bursts, the arrival and PATCH schedule — is derived from the single
//! `--seed` argument through named, independent streams.

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The master seed of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seeds(pub u64);

impl Seeds {
    /// The `index`-th seed of the stream named `stream`.
    pub fn derive(self, stream: &str, index: u64) -> u64 {
        // FNV-1a over the stream name keeps streams independent of each
        // other and of the order in which they are first used.
        let tag = stream.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        mix(mix(self.0 ^ tag).wrapping_add(index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_stable_and_distinct() {
        let s = Seeds(42);
        assert_eq!(s.derive("trial", 3), Seeds(42).derive("trial", 3));
        assert_ne!(s.derive("trial", 3), s.derive("trial", 4));
        assert_ne!(s.derive("trial", 3), s.derive("churn", 3));
        assert_ne!(s.derive("trial", 3), Seeds(43).derive("trial", 3));
    }
}
