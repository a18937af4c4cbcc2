//! The yardstick: how fast the machine is right now.
//!
//! On a shared box a core's speed moves by a quarter for tens of seconds
//! at a time (a neighbour on the same physical core), each core on its
//! own schedule. No run length the driver allows averages that out, so a
//! raw rate would spread 15–25 % between identical runs. Instead the
//! harness times a fixed kernel — a hash pass, a pointer chase and a
//! floating-point chain, about a quarter of a millisecond — right before and
//! after every round, on the cores the round uses, and scales the round
//! by it. In a probe with the neighbour active, the raw time of a `fuzz`
//! round spread 14 % over ten 10-second windows and the scaled time
//! 0.7 %.
//!
//! Rates and times are therefore reported **at the yardstick's nominal
//! speed**: [`NOMINAL_NS`] is what the kernel takes on an undisturbed
//! core of the box the baseline was measured on, so there a scaled figure
//! equals the raw one; on another machine every figure is off by one
//! constant factor, which a comparison of two commits never sees.

use std::time::Instant;

use crate::stats;

/// The kernel's time on an undisturbed core of the baseline box.
pub const NOMINAL_NS: f64 = 265_000.0;

const HASH_WORDS: usize = 8192;
const HASH_PASSES: usize = 8;
const CHASE_SLOTS: usize = 1 << 16;
const CHASE_STEPS: usize = 40_000;
const FLOAT_STEPS: usize = 20_000;
const TIMED_PASSES: usize = 3;

pub struct Yardstick {
    words: Vec<u64>,
    /// One cycle through all slots, in a scrambled order.
    next: Vec<u32>,
    readings: std::sync::Mutex<Vec<f64>>,
}

impl Yardstick {
    pub fn new() -> Yardstick {
        let mut order: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        crate::rng::shuffle(&mut order, &mut crate::rng::SplitMix64::new(0x59A2D));
        let mut next = vec![0u32; CHASE_SLOTS];
        for w in 0..CHASE_SLOTS {
            next[order[w] as usize] = order[(w + 1) % CHASE_SLOTS];
        }
        Yardstick {
            words: (0..HASH_WORDS as u64).collect(),
            next,
            readings: Default::default(),
        }
    }

    /// One reading on the calling thread, in nanoseconds: an untimed pass
    /// to pull the tables back into cache (the round before has usually
    /// evicted them, and that is not what is being measured), then the
    /// fastest of [`TIMED_PASSES`]. An interrupt or a preemption lengthens
    /// one pass; the slowdown being measured lasts seconds and lengthens
    /// them all.
    fn reading_ns(&self) -> f64 {
        self.pass();
        (0..TIMED_PASSES)
            .map(|_| {
                let t = Instant::now();
                self.pass();
                t.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min)
    }

    fn pass(&self) {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for _ in 0..HASH_PASSES {
            for &w in &self.words {
                h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
            }
        }
        let mut p = h as usize % CHASE_SLOTS;
        for _ in 0..CHASE_STEPS {
            p = self.next[p] as usize;
        }
        let mut x = 1.0 + p as f64 * 1e-9;
        for i in 0..FLOAT_STEPS {
            x = x * 1.000_000_1 + i as f64 * 1e-12;
            if x > 2.0 {
                x -= 1.0;
            }
        }
        std::hint::black_box((h, p, x));
    }

    /// The machine's speed now, 1.0 being nominal: the kernel is run on
    /// `threads` threads at once (one per core a sweep will use; 1 runs
    /// on the calling thread) and the per-thread speeds are averaged.
    pub fn speed(&self, threads: usize) -> f64 {
        let times: Vec<f64> = if threads <= 1 {
            vec![self.reading_ns()]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| s.spawn(|| self.reading_ns()))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("yardstick thread panicked"))
                    .collect()
            })
        };
        self.readings
            .lock()
            .expect("no yardstick thread panics while recording")
            .extend(&times);
        stats::mean(&times.iter().map(|t| NOMINAL_NS / t).collect::<Vec<_>>())
    }

    /// Median kernel time over every reading so far, in microseconds.
    pub fn median_us(&self) -> f64 {
        let readings = self.readings.lock().expect("see `speed`");
        stats::median(&readings) / 1e3
    }

    /// One line for the run's notes: how fast and how even the machine
    /// was while the rounds ran.
    pub fn summary(&self) -> String {
        let readings = self.readings.lock().expect("see `speed`");
        let [q1, q2, q3] = stats::quartiles(&readings).map(|ns| ns / 1e3);
        format!(
            "yardstick: median {q2:.1} us (q1 {q1:.1}, q3 {q3:.1}, nominal {:.1}) over {} readings",
            NOMINAL_NS / 1e3,
            readings.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chase_visits_every_slot_once() {
        let y = Yardstick::new();
        let mut seen = vec![false; CHASE_SLOTS];
        let mut p = 0usize;
        for _ in 0..CHASE_SLOTS {
            assert!(!seen[p], "the chase cycle is shorter than the table");
            seen[p] = true;
            p = y.next[p] as usize;
        }
        assert_eq!(p, 0);
    }

    #[test]
    fn speed_is_positive_and_recorded() {
        let y = Yardstick::new();
        assert!(y.speed(1) > 0.0);
        assert!(y.speed(2) > 0.0);
        assert_eq!(y.readings.lock().unwrap().len(), 3);
        assert!(y.median_us() > 0.0);
    }
}
