//! Admission control and backpressure: bounded queues, explicit
//! rejection, and a deterministic degradation ladder.
//!
//! Every unit of work (an estimate or a sweep) must take a [`Permit`]
//! before touching the runner. Permits are bounded three ways:
//!
//! * **per tenant** — each tenant gets an independent bounded queue
//!   ([`AdmissionConfig::tenant_cap`]), so one noisy client saturates
//!   its own queue, not the server;
//! * **globally** — total in-flight work is capped
//!   ([`AdmissionConfig::global_cap`]); the occupancy fraction drives
//!   the degradation ladder;
//! * **per kind** — concurrent sweeps (the expensive kind) have their
//!   own cap ([`AdmissionConfig::sweep_cap`]).
//!
//! When a bound is hit the request is **rejected explicitly** (the
//! 429-style `status: "rejected"` response with `retry_after_ms`) —
//! never queued unboundedly, never dropped silently. The ladder:
//!
//! | level | trigger | behavior |
//! |---|---|---|
//! | `Normal` | occupancy < ½ | admit everything within caps |
//! | `Busy` | occupancy ≥ ½ | shed priority-0 sweeps |
//! | `Saturated` | occupancy = cap | reject sweeps and estimate *misses*; cache hits still answered, flagged `degraded` |
//! | draining | SIGTERM/shutdown | reject all new work (`draining`) |
//!
//! Rejections are instantaneous and allocation-free, which is what keeps
//! the overload test's p99 for cache-hit estimates in single-digit
//! milliseconds while the runner is saturated.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Queue bounds for an [`Admission`] gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Maximum in-flight requests per tenant.
    pub tenant_cap: usize,
    /// Maximum in-flight requests across all tenants.
    pub global_cap: usize,
    /// Maximum concurrent sweeps.
    pub sweep_cap: usize,
    /// `retry_after_ms` hint attached to rejections.
    pub retry_after_ms: u64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            tenant_cap: 32,
            global_cap: 128,
            sweep_cap: 4,
            retry_after_ms: 50,
        }
    }
}

/// The degradation-ladder level implied by current occupancy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadLevel {
    /// Occupancy below half the global cap.
    Normal,
    /// Occupancy at or above half the global cap: priority-0 sweeps are
    /// shed.
    Busy,
    /// Occupancy at the global cap: only cache hits are served (flagged
    /// `degraded`).
    Saturated,
}

/// Why a request was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rejection {
    /// Stable rejection code (`draining`, `tenant_queue_full`,
    /// `overloaded`, `shed_low_priority`).
    pub code: &'static str,
    /// How long the client should back off before retrying.
    pub retry_after_ms: u64,
}

/// The kind of work asking for admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkKind {
    /// A single-point estimate (cheap).
    Estimate,
    /// A DSE sweep (expensive; separately capped and shed first).
    Sweep,
}

#[derive(Debug, Default)]
struct Counters {
    rejected_tenant: AtomicUsize,
    rejected_overload: AtomicUsize,
    rejected_shed: AtomicUsize,
    rejected_draining: AtomicUsize,
    admitted: AtomicUsize,
    peak_inflight: AtomicUsize,
}

#[derive(Debug)]
struct Inner {
    cfg: AdmissionConfig,
    per_tenant: Mutex<HashMap<String, usize>>,
    inflight: AtomicUsize,
    sweeps: AtomicUsize,
    draining: AtomicBool,
    counters: Counters,
}

/// The admission gate. Cheap to clone (an `Arc`); one per server.
#[derive(Debug, Clone)]
pub struct Admission {
    inner: Arc<Inner>,
}

/// A successfully admitted unit of work; releases its tenant/global/
/// sweep slots on drop, so a panicking handler can never leak capacity.
#[derive(Debug)]
pub struct Permit {
    inner: Arc<Inner>,
    tenant: String,
    kind: WorkKind,
}

impl Drop for Permit {
    fn drop(&mut self) {
        self.inner.inflight.fetch_sub(1, Ordering::SeqCst);
        if self.kind == WorkKind::Sweep {
            self.inner.sweeps.fetch_sub(1, Ordering::SeqCst);
        }
        let mut map = self
            .inner
            .per_tenant
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if let Some(n) = map.get_mut(&self.tenant) {
            *n -= 1;
            if *n == 0 {
                map.remove(&self.tenant);
            }
        }
    }
}

/// A point-in-time snapshot of admission counters, surfaced by the
/// `stats` op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionStats {
    /// Currently in-flight admitted requests.
    pub inflight: usize,
    /// Highest in-flight count ever observed (must never exceed the
    /// global cap — the overload test asserts this).
    pub peak_inflight: usize,
    /// Currently running sweeps.
    pub sweeps: usize,
    /// Total admitted requests.
    pub admitted: usize,
    /// Rejections because the tenant queue was full.
    pub rejected_tenant: usize,
    /// Rejections because the server was overloaded (global/sweep cap).
    pub rejected_overload: usize,
    /// Priority-0 sweeps shed under load.
    pub rejected_shed: usize,
    /// Rejections because the server was draining.
    pub rejected_draining: usize,
}

impl Admission {
    /// A gate with the given bounds.
    pub fn new(cfg: AdmissionConfig) -> Self {
        Admission {
            inner: Arc::new(Inner {
                cfg,
                per_tenant: Mutex::new(HashMap::new()),
                inflight: AtomicUsize::new(0),
                sweeps: AtomicUsize::new(0),
                draining: AtomicBool::new(false),
                counters: Counters::default(),
            }),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> AdmissionConfig {
        self.inner.cfg
    }

    /// Enter draining mode: every subsequent admission attempt is
    /// rejected with `draining`. Idempotent.
    pub fn drain(&self) {
        self.inner.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the gate is draining.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::SeqCst)
    }

    /// The current degradation-ladder level.
    pub fn level(&self) -> LoadLevel {
        let inflight = self.inner.inflight.load(Ordering::SeqCst);
        let cap = self.inner.cfg.global_cap;
        if inflight >= cap {
            LoadLevel::Saturated
        } else if inflight * 2 >= cap {
            LoadLevel::Busy
        } else {
            LoadLevel::Normal
        }
    }

    /// Try to admit one unit of work for `tenant` at `priority`.
    ///
    /// # Errors
    ///
    /// Returns a [`Rejection`] (never blocks, never queues) when a bound
    /// is hit or the gate is draining.
    pub fn admit(&self, tenant: &str, priority: u8, kind: WorkKind) -> Result<Permit, Rejection> {
        let inner = &self.inner;
        let reject = |code: &'static str, counter: &AtomicUsize| {
            counter.fetch_add(1, Ordering::Relaxed);
            dhdl_obs::counter!("serve.admission.rejected").incr();
            Err(Rejection {
                code,
                retry_after_ms: inner.cfg.retry_after_ms,
            })
        };
        if inner.draining.load(Ordering::SeqCst) {
            return reject("draining", &inner.counters.rejected_draining);
        }
        // Reserve the global slot first; it is the ladder's input.
        let prev = inner.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.cfg.global_cap {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            return reject("overloaded", &inner.counters.rejected_overload);
        }
        let release_global = || {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
        };
        if kind == WorkKind::Sweep {
            // Shed lowest-priority sweeps once Busy; reject all sweeps
            // beyond the sweep cap or when Saturated.
            let occupancy = prev + 1;
            if occupancy >= inner.cfg.global_cap {
                release_global();
                return reject("overloaded", &inner.counters.rejected_overload);
            }
            if priority == 0 && occupancy * 2 >= inner.cfg.global_cap {
                release_global();
                return reject("shed_low_priority", &inner.counters.rejected_shed);
            }
            let prev_sweeps = inner.sweeps.fetch_add(1, Ordering::SeqCst);
            if prev_sweeps >= inner.cfg.sweep_cap {
                inner.sweeps.fetch_sub(1, Ordering::SeqCst);
                release_global();
                return reject("overloaded", &inner.counters.rejected_overload);
            }
        }
        {
            let mut map = inner.per_tenant.lock().unwrap_or_else(|e| e.into_inner());
            let n = map.entry(tenant.to_string()).or_insert(0);
            if *n >= inner.cfg.tenant_cap {
                drop(map);
                if kind == WorkKind::Sweep {
                    inner.sweeps.fetch_sub(1, Ordering::SeqCst);
                }
                release_global();
                return reject("tenant_queue_full", &inner.counters.rejected_tenant);
            }
            *n += 1;
        }
        inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
        dhdl_obs::counter!("serve.admission.admitted").incr();
        // Track the high-water mark for the bounded-queues assertion.
        let now = inner.inflight.load(Ordering::SeqCst);
        inner
            .counters
            .peak_inflight
            .fetch_max(now, Ordering::SeqCst);
        Ok(Permit {
            inner: Arc::clone(inner),
            tenant: tenant.to_string(),
            kind,
        })
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> AdmissionStats {
        let c = &self.inner.counters;
        AdmissionStats {
            inflight: self.inner.inflight.load(Ordering::SeqCst),
            peak_inflight: c.peak_inflight.load(Ordering::SeqCst),
            sweeps: self.inner.sweeps.load(Ordering::SeqCst),
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected_tenant: c.rejected_tenant.load(Ordering::Relaxed),
            rejected_overload: c.rejected_overload.load(Ordering::Relaxed),
            rejected_shed: c.rejected_shed.load(Ordering::Relaxed),
            rejected_draining: c.rejected_draining.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(tenant_cap: usize, global_cap: usize, sweep_cap: usize) -> Admission {
        Admission::new(AdmissionConfig {
            tenant_cap,
            global_cap,
            sweep_cap,
            retry_after_ms: 25,
        })
    }

    #[test]
    fn per_tenant_queues_are_bounded_independently() {
        let a = gate(2, 100, 100);
        let _p1 = a.admit("alice", 1, WorkKind::Estimate).unwrap();
        let _p2 = a.admit("alice", 1, WorkKind::Estimate).unwrap();
        let r = a.admit("alice", 1, WorkKind::Estimate).unwrap_err();
        assert_eq!(r.code, "tenant_queue_full");
        assert_eq!(r.retry_after_ms, 25);
        // A different tenant is unaffected.
        let _p3 = a.admit("bob", 1, WorkKind::Estimate).unwrap();
        assert_eq!(a.stats().rejected_tenant, 1);
    }

    #[test]
    fn permits_release_on_drop_even_across_kinds() {
        let a = gate(1, 10, 1);
        let p = a.admit("t", 1, WorkKind::Sweep).unwrap();
        assert_eq!(a.stats().inflight, 1);
        assert_eq!(a.stats().sweeps, 1);
        drop(p);
        assert_eq!(a.stats().inflight, 0);
        assert_eq!(a.stats().sweeps, 0);
        // The slot is reusable.
        let _p = a.admit("t", 1, WorkKind::Sweep).unwrap();
    }

    #[test]
    fn global_cap_bounds_total_inflight() {
        let a = gate(100, 3, 100);
        let permits: Vec<Permit> = (0..3)
            .map(|i| a.admit(&format!("t{i}"), 2, WorkKind::Estimate).unwrap())
            .collect();
        let r = a.admit("t9", 2, WorkKind::Estimate).unwrap_err();
        assert_eq!(r.code, "overloaded");
        assert_eq!(a.stats().peak_inflight, 3);
        assert_eq!(a.level(), LoadLevel::Saturated);
        drop(permits);
        assert_eq!(a.level(), LoadLevel::Normal);
    }

    #[test]
    fn ladder_sheds_low_priority_sweeps_first() {
        let a = gate(100, 4, 100);
        // Occupancy 2/4 → Busy: a priority-0 sweep is shed, priority-1
        // is admitted.
        let _keep: Vec<Permit> = (0..2)
            .map(|_| a.admit("bg", 1, WorkKind::Estimate).unwrap())
            .collect();
        assert_eq!(a.level(), LoadLevel::Busy);
        let r = a.admit("low", 0, WorkKind::Sweep).unwrap_err();
        assert_eq!(r.code, "shed_low_priority");
        let ok = a.admit("hi", 1, WorkKind::Sweep);
        assert!(ok.is_ok());
        assert_eq!(a.stats().rejected_shed, 1);
    }

    #[test]
    fn a_sweep_never_takes_the_last_global_slot() {
        let a = gate(100, 4, 100);
        let _keep: Vec<Permit> = (0..2)
            .map(|_| a.admit("bg", 1, WorkKind::Estimate).unwrap())
            .collect();
        let _sweep = a.admit("hi", 1, WorkKind::Sweep).unwrap();
        // A second sweep would saturate the gate and is refused; an
        // estimate may still take the last slot.
        let r = a.admit("hi", 1, WorkKind::Sweep).unwrap_err();
        assert_eq!(r.code, "overloaded");
        let _last = a.admit("bg", 1, WorkKind::Estimate).unwrap();
        assert_eq!(a.level(), LoadLevel::Saturated);
    }

    #[test]
    fn sweep_cap_is_separate_from_global() {
        let a = gate(100, 100, 1);
        let _s1 = a.admit("t", 2, WorkKind::Sweep).unwrap();
        let r = a.admit("t", 2, WorkKind::Sweep).unwrap_err();
        assert_eq!(r.code, "overloaded");
        // Estimates still flow.
        assert!(a.admit("t", 2, WorkKind::Estimate).is_ok());
    }

    #[test]
    fn draining_rejects_everything() {
        let a = gate(10, 10, 10);
        a.drain();
        assert!(a.is_draining());
        let r = a.admit("t", 2, WorkKind::Estimate).unwrap_err();
        assert_eq!(r.code, "draining");
        assert_eq!(a.stats().rejected_draining, 1);
    }

    #[test]
    fn concurrent_admission_never_exceeds_caps() {
        let a = gate(64, 16, 8);
        std::thread::scope(|s| {
            for t in 0..8 {
                let a = a.clone();
                s.spawn(move || {
                    for i in 0..200 {
                        let kind = if i % 3 == 0 {
                            WorkKind::Sweep
                        } else {
                            WorkKind::Estimate
                        };
                        if let Ok(p) = a.admit(&format!("t{t}"), 1, kind) {
                            std::hint::black_box(&p);
                        }
                    }
                });
            }
        });
        let s = a.stats();
        assert!(s.peak_inflight <= 16, "peak {}", s.peak_inflight);
        assert_eq!(s.inflight, 0);
        assert_eq!(s.sweeps, 0);
    }
}
