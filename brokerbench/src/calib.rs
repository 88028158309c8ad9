//! A fixed reference computation whose CPU time tracks how fast the
//! host runs the broker's code.
//!
//! On a shared host a CPU second is not a fixed amount of work: other
//! tenants' load on the same cores, caches and memory slows this VM's
//! CPUs, for seconds to minutes at a time, by up to 1.8× on the
//! broker's code. A CPU time measured over a phase moves with it. Timed
//! on the broker's CPU between the blocks of the saturated phase, this
//! computation gives the speed the broker ran at, and the broker's CPU
//! time is scaled to the speed at which it takes [`REFERENCE_NS`].
//!
//! It is hashing with probing (`HashMap` inserts and lookups) and an
//! in-place sort: of the candidates tried, the ones whose time moved
//! most closely with the broker's CPU per request, block by block.
//! Every buffer is allocated before the timing starts and no code of
//! the repository runs, so no change to the program can change its
//! cost.

use std::collections::HashMap;
use std::hint::black_box;

use crate::load::{pin_to, thread_cpu_ns};

/// CPU time of one [`reference_ns`] pass at the calibration speed, ns:
/// its median on the machine the benchmark was calibrated on.
pub const REFERENCE_NS: f64 = 3.3e6;

/// Keys in the hash map (16 Ki).
const KEYS: usize = 1 << 14;
/// Words sorted (32 Ki).
const WORDS: usize = 1 << 15;
/// Passes of each part.
const ROUNDS: u64 = 4;

fn xorshift(n: usize, mut x: u64) -> Vec<u64> {
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect()
}

/// CPU time, ns, of one pass of the reference computation on the
/// calling thread.
pub fn reference_ns() -> u64 {
    let keys = xorshift(KEYS, 0x9e37_79b9_7f4a_7c15);
    let mut words = xorshift(WORDS, 0x2545_f491_4f6c_dd1d);
    let mut map: HashMap<u64, u64> = HashMap::with_capacity(KEYS);
    let start = thread_cpu_ns();
    let mut sum = 0u64;
    for round in 0..ROUNDS {
        map.clear();
        for (i, &k) in keys.iter().enumerate() {
            map.insert(k ^ round, i as u64);
        }
        for &k in &keys {
            sum = sum.wrapping_add(map.get(&(k ^ round)).copied().unwrap_or(0));
        }
        words
            .iter_mut()
            .for_each(|w| *w ^= round.wrapping_mul(0x5555));
        words.sort_unstable();
    }
    black_box((sum, &words));
    thread_cpu_ns() - start
}

/// The factor that scales a time measured between reference passes
/// taking `before` and `after` ns to the calibration speed.
pub fn scale(before: u64, after: u64) -> f64 {
    REFERENCE_NS / ((before as f64) * (after as f64)).sqrt().max(1.0)
}

/// [`reference_ns`] on a thread of its own, pinned to `cpu` if given.
pub fn reference_on(cpu: Option<usize>) -> u64 {
    std::thread::spawn(move || {
        if let Some(cpu) = cpu {
            pin_to(cpu);
        }
        reference_ns()
    })
    .join()
    .expect("the reference computation does not panic")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_inverse_to_the_reference_time() {
        let r = REFERENCE_NS as u64;
        assert!((scale(r, r) - 1.0).abs() < 1e-12);
        // Twice as slow before and after: the measured time halves.
        assert!((scale(2 * r, 2 * r) - 0.5).abs() < 1e-12);
        // Uneven passes count by their geometric mean.
        assert!((scale(r, 4 * r) - 0.5).abs() < 1e-12);
        assert!(scale(0, 0).is_finite());
    }

    #[test]
    fn the_reference_takes_time_on_a_pinned_thread() {
        assert!(reference_on(None) > 0);
        if let Some(&cpu) = crate::load::allowed_cpus().first() {
            assert!(reference_on(Some(cpu)) > 0);
        }
    }
}
