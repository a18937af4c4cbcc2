//! Deterministic fault injection for the sweep runner's tests.
//!
//! [`FaultInjector`] wraps any [`CostModel`] and injects panics, NaN
//! estimates and latency spikes at configured rates. Each decision is
//! seed-driven and keyed by the design's structural hash, not by call
//! order, so a (seed, design) pair faults the same way on every call,
//! whatever the thread count, the evaluation order or the rest of the
//! sweep. A planned fault fires on every evaluation of its design, as a
//! fault of a pure estimator would: [`expected_under`] names the exact
//! discards a faulty sweep must report and holds every other point to the
//! clean sweep's bits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use dhdl_core::{structural_hash, Design};
use dhdl_dse::{CacheStats, CostModel, DseError, DseResult};
use dhdl_estimate::Estimate;
use dhdl_target::Platform;

use crate::fixture::{build_dot, by_index, PointBits};

/// Fault rates for a [`FaultInjector`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Seed mixed into every injection decision.
    pub seed: u64,
    /// Fraction of designs whose evaluation panics, in `[0, 1]`.
    pub panic_rate: f64,
    /// Fraction of designs whose estimate comes back NaN, in `[0, 1]`.
    pub nan_rate: f64,
    /// Fraction of designs whose evaluation stalls for
    /// [`FaultConfig::spike`], in `[0, 1]`.
    pub spike_rate: f64,
    /// Stall duration for latency-spike faults.
    pub spike: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0xFA17,
            panic_rate: 0.0,
            nan_rate: 0.0,
            spike_rate: 0.0,
            spike: Duration::from_millis(10),
        }
    }
}

/// The faults planned for one design under a given config (pure,
/// order-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Evaluation will panic.
    pub panic: bool,
    /// The estimate's cycle count will be NaN (unless it panics first).
    pub nan: bool,
    /// Evaluation will stall for the configured spike duration.
    pub spike: bool,
}

/// A [`CostModel`] wrapper injecting deterministic, seed-driven faults.
#[derive(Debug)]
pub struct FaultInjector<'a, E: CostModel> {
    inner: &'a E,
    cfg: FaultConfig,
    panics: AtomicUsize,
    nans: AtomicUsize,
    spikes: AtomicUsize,
}

impl<'a, E: CostModel> FaultInjector<'a, E> {
    /// Wrap `inner` with fault injection per `cfg`.
    pub fn new(inner: &'a E, cfg: FaultConfig) -> Self {
        FaultInjector {
            inner,
            cfg,
            panics: AtomicUsize::new(0),
            nans: AtomicUsize::new(0),
            spikes: AtomicUsize::new(0),
        }
    }

    /// The faults this injector plans for `design` — independent of
    /// evaluation order and of any other design in the sweep.
    pub fn plan(&self, design: &Design) -> FaultPlan {
        let h = structural_hash(design);
        FaultPlan {
            panic: decide(h, self.cfg.seed, 0x70A1C, self.cfg.panic_rate),
            nan: decide(h, self.cfg.seed, 0x0A0A0, self.cfg.nan_rate),
            spike: decide(h, self.cfg.seed, 0x571CE, self.cfg.spike_rate),
        }
    }

    /// Total faults injected so far as `(panics, nans, spikes)`.
    pub fn injected(&self) -> (usize, usize, usize) {
        (
            self.panics.load(Ordering::Relaxed),
            self.nans.load(Ordering::Relaxed),
            self.spikes.load(Ordering::Relaxed),
        )
    }

    /// Run the inner estimate `f` under this design's fault plan —
    /// shared by the single-chip and multi-device entry points so a
    /// design faults identically whichever path evaluates it.
    fn with_faults(&self, design: &Design, f: impl FnOnce() -> Estimate) -> Estimate {
        let plan = self.plan(design);
        if plan.spike {
            self.spikes.fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(self.cfg.spike);
        }
        if plan.panic {
            self.panics.fetch_add(1, Ordering::Relaxed);
            panic!("{}", panic_message(design));
        }
        let mut est = f();
        if plan.nan {
            self.nans.fetch_add(1, Ordering::Relaxed);
            est.cycles = f64::NAN;
        }
        est
    }
}

impl<E: CostModel> CostModel for FaultInjector<'_, E> {
    fn estimate(&self, design: &Design) -> Estimate {
        self.with_faults(design, || self.inner.estimate(design))
    }

    fn estimate_devices(&self, params_key: Option<u64>, design: &Design, k: u32) -> Estimate {
        self.with_faults(design, || {
            self.inner.estimate_devices(params_key, design, k)
        })
    }

    fn platform(&self) -> &Platform {
        self.inner.platform()
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
}

/// The message an injected panic carries for `design`.
fn panic_message(design: &Design) -> String {
    format!(
        "injected estimator fault (design hash {:#x})",
        structural_hash(design)
    )
}

/// What a sweep of [`build_dot`] through `injector` must report, index by
/// index, given the fault-free sweep `clean` with the same options: a
/// point planned to panic is a [`DseError::Panic`] with the injector's
/// message, one planned to come back NaN is a [`DseError::NonFinite`],
/// and every other outcome is the clean one, bit for bit.
pub fn expected_under<E: CostModel>(
    clean: &DseResult,
    injector: &FaultInjector<E>,
) -> Vec<Result<PointBits, DseError>> {
    let mut points = clean.points.iter();
    by_index(clean)
        .into_iter()
        .map(|outcome| {
            let bits = outcome?;
            let p = points.next().expect("one point per evaluated index");
            let design = build_dot(&p.params).expect("an evaluated point builds");
            let plan = injector.plan(&design);
            if plan.panic {
                Err(DseError::Panic {
                    message: panic_message(&design),
                })
            } else if plan.nan {
                Err(DseError::NonFinite)
            } else {
                Ok(bits)
            }
        })
        .collect()
}

/// Order-independent Bernoulli draw: mix the design hash, the seed and a
/// per-fault-class salt through SplitMix64 finalization and compare the
/// top 53 bits against `rate`.
pub fn decide(hash: u64, seed: u64, salt: u64, rate: f64) -> bool {
    if rate <= 0.0 {
        return false;
    }
    if rate >= 1.0 {
        return true;
    }
    let mut z = hash ^ seed.rotate_left(17) ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    unit < rate
}

/// Run `f` with the global panic hook silenced (and restored afterwards,
/// even if `f` itself unwinds).
///
/// The runner isolates injected panics with `catch_unwind`, but the
/// default hook would still print a backtrace banner per injection;
/// tests exercising high fault rates wrap the sweep in this to keep
/// their output readable. Callers are serialized on a global lock
/// because the hook is process-wide.
pub fn with_silent_panics<R>(f: impl FnOnce() -> R) -> R {
    static HOOK_LOCK: Mutex<()> = Mutex::new(());
    let _guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(prev);
    match out {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}
