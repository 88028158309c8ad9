//! Stable structural hashing.
//!
//! The verification cache (`sufs-core`) memoizes projections, compliance
//! checks and model-checking verdicts keyed by the *structure* of the
//! expressions involved. Those keys need a hash that is a pure function
//! of the value — independent of allocation addresses, map iteration
//! order or the standard library's randomised `SipHash` keys — so that
//! cache behaviour (and therefore every hit-rate reported by the bench
//! suite) is reproducible run over run.
//!
//! [`StableHasher`] is a 64-bit [FNV-1a](http://www.isthe.com/chongo/tech/comp/fnv/)
//! hasher. All the syntax types of this crate derive [`Hash`] over purely
//! structural data, so feeding them through a deterministic hasher yields
//! a deterministic structural fingerprint. Collisions are possible in
//! principle, which is why the cache stores full keys and uses the
//! fingerprint only to bucket them — a collision can cost time, never
//! correctness.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// A deterministic 64-bit FNV-1a hasher.
///
/// Unlike `std::collections::hash_map::DefaultHasher`, the stream is not
/// keyed: the same bytes always produce the same value within a build,
/// making it suitable for reproducible cache statistics and golden tests.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher { state: FNV_OFFSET }
    }
}

impl StableHasher {
    /// A fresh hasher in the FNV-1a initial state.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        // A final avalanche (SplitMix64 mix) spreads the FNV state's
        // entropy into the high bits, which `HashMap` uses for buckets.
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }
}

/// The stable structural hash of any `Hash` value.
///
/// # Examples
///
/// ```
/// use sufs_hexpr::shash::stable_hash_of;
///
/// assert_eq!(stable_hash_of(&"abc"), stable_hash_of(&"abc"));
/// assert_ne!(stable_hash_of(&"abc"), stable_hash_of(&"abd"));
/// ```
pub fn stable_hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
    let mut hasher = StableHasher::new();
    value.hash(&mut hasher);
    hasher.finish()
}

/// The process-wide source of content stamps.
static STAMPS: AtomicU64 = AtomicU64::new(0);

/// Draws a fresh content stamp: a value no earlier call in this process
/// returned, and never 0.
///
/// A mutable container (the service repository, the policy registry)
/// takes a fresh stamp on every content-changing mutation and copies it
/// on `Clone`. Two values carrying the same stamp therefore hold the same
/// content, which lets a consumer that recorded a stamp skip re-deriving
/// anything from the content while the stamp is unchanged. The counter
/// is global, not per instance, so two independently built values can
/// never share a stamp; 0 is left to values never mutated, which are
/// empty.
pub fn fresh_stamp() -> u64 {
    STAMPS.fetch_add(1, Ordering::Relaxed) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_hist;

    #[test]
    fn deterministic_across_instances() {
        let a = parse_hist("ext[a -> int[b -> eps]]").unwrap();
        let b = parse_hist("ext[a -> int[b -> eps]]").unwrap();
        assert_eq!(stable_hash_of(&a), stable_hash_of(&b));
        assert_eq!(a.structural_hash(), b.structural_hash());
    }

    #[test]
    fn distinguishes_structure() {
        let a = parse_hist("ext[a -> eps]").unwrap();
        let b = parse_hist("int[a -> eps]").unwrap();
        let c = parse_hist("ext[b -> eps]").unwrap();
        assert_ne!(a.structural_hash(), b.structural_hash());
        assert_ne!(a.structural_hash(), c.structural_hash());
    }

    #[test]
    fn known_fnv_vector() {
        // FNV-1a of the empty input is the offset basis; our finish()
        // additionally avalanches it, so just pin the raw state.
        let h = StableHasher::new();
        assert_eq!(h.state, FNV_OFFSET);
        let mut h = StableHasher::new();
        h.write(b"a");
        assert_eq!(h.state, 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fresh_stamps_are_distinct_and_nonzero() {
        let a = fresh_stamp();
        let b = fresh_stamp();
        assert_ne!(a, 0);
        assert!(b > a);
    }
}
