//! What every workload shares: the run context, the report it fills,
//! repeated set-up, and the application list.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, Fnv64};

use crate::names::BENCHES;
use crate::stats;
use crate::sys;
use crate::yard::Yardstick;

/// Set-up is run this many times per run, each on a fresh thread (so the
/// per-thread skeleton caches start cold every time); `setup_s` is the
/// median.
pub const SETUP_REPS: usize = 5;

/// Arguments of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Where result and trace files go (`benchmark/out`).
    pub out_dir: PathBuf,
    /// Cores the process may use, read before a serve workload pins
    /// this thread to one of them.
    pub nproc: usize,
}

impl Ctx {
    /// Sweep worker threads: every core, at most four.
    pub fn threads(&self) -> usize {
        self.nproc.min(4)
    }

    /// The instant `share` of the run's `--seconds` from `start`.
    pub fn until(&self, start: Instant, share: f64) -> Instant {
        start + Duration::from_secs_f64(self.seconds * share)
    }
}

/// What a run hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (points, simulations, designs, requests).
    pub attempted: u64,
    /// Operations that failed, a failed correctness check included.
    pub failed: u64,
    /// One line per failure, for stderr (capped).
    pub failures: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable side notes (quartiles, round counts, pinning).
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count a failed operation or check.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// `fail` unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.fail(what());
        }
    }

    /// Record an end-to-end rate as the median over `rounds`, noting the
    /// quartiles and the round count beside it.
    pub fn set_median(&mut self, name: &str, rounds: &[f64]) {
        let [q1, q2, q3] = stats::quartiles(rounds);
        self.set(name, q2);
        self.note(format!(
            "{name}: median {q2:.4} (q1 {q1:.4}, q3 {q3:.4}) over {} rounds",
            rounds.len()
        ));
    }
}

/// The nine applications, in [`BENCHES`] order.
pub fn b9() -> Vec<Box<dyn Benchmark>> {
    let all: Vec<Box<dyn Benchmark>> = dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .collect();
    let names: Vec<&str> = all.iter().map(|b| b.name()).collect();
    assert_eq!(names, BENCHES, "the application list changed");
    all
}

/// The parameter-memo salt of a benchmark, derived as `dhdl-bench`'s
/// harness and `dhdl-serve` derive it: name, dataset, and the structural
/// hash of the default-parameter design.
pub fn bench_salt(bench: &dyn Benchmark) -> u64 {
    let mut h = Fnv64::new();
    h.write(bench.name().as_bytes());
    h.write(bench.dataset_desc().as_bytes());
    let design = bench
        .build(&bench.default_params())
        .expect("default parameters build");
    h.write_u64(structural_hash(&design));
    h.finish()
}

/// Run `setup` [`SETUP_REPS`] times, each on a thread of its own, and
/// return the last state with the median set-up time in seconds, scaled
/// by the machine speed read on that thread right before and after.
pub fn repeat_setup<S: Send>(yard: &Yardstick, setup: impl Fn() -> S + Sync) -> (S, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut state: Option<S> = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous state first: a serve set-up owns a child
        // process, and two servers must not overlap.
        drop(state.take());
        let (s, secs) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let before = yard.speed(1);
                    let t = Instant::now();
                    let s = setup();
                    let secs = t.elapsed().as_secs_f64();
                    (s, secs * (before + yard.speed(1)) / 2.0)
                })
                .join()
                .expect("workload set-up panicked")
        });
        times.push(secs);
        state = Some(s);
    }
    (state.expect("SETUP_REPS > 0"), stats::median(&times))
}

/// The timed rounds of one run, each scaled by the machine speed around
/// it (see [`crate::yard`]).
#[derive(Default)]
pub struct Rounds {
    rates: Vec<f64>,
    raw_rates: Vec<f64>,
    cpu: f64,
    ops: u64,
}

impl Rounds {
    /// One round: `ops` operations in `wall` seconds using `cpu` CPU
    /// seconds, on a machine running at `speed` (1.0 = nominal).
    pub fn push(&mut self, ops: u64, wall: f64, cpu: f64, speed: f64) {
        self.rates.push(ops as f64 / (wall * speed));
        self.raw_rates.push(ops as f64 / wall);
        self.cpu += cpu * speed;
        self.ops += ops;
    }

    /// Run one round between two yardstick readings on `threads` threads
    /// and record it. `round` returns its operations, wall seconds and
    /// CPU seconds, plus whatever the caller wants back.
    pub fn measure<R>(
        &mut self,
        yard: &Yardstick,
        threads: usize,
        round: impl FnOnce() -> (u64, f64, f64, R),
    ) -> R {
        let before = yard.speed(threads);
        let (ops, wall, cpu, out) = round();
        self.push(ops, wall, cpu, (before + yard.speed(threads)) / 2.0);
        out
    }

    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// `ops_per_s` as the median over rounds and `cpu_us_per_op` over all
    /// of them.
    pub fn finish(&self, report: &mut Report, yard: &Yardstick) {
        report.note(yard.summary());
        report.set_median("ops_per_s", &self.rates);
        report.set("cpu_us_per_op", self.cpu / self.ops as f64 * 1e6);
        report.note(format!(
            "unscaled ops_per_s: median {:.4}",
            stats::median(&self.raw_rates)
        ));
    }
}

/// Pin this thread, and every thread it starts from now on, to the last
/// core it may use. The single-threaded workloads do this so that the
/// yardstick and the work it scales run on one core; the serve workloads
/// put the server there too.
pub fn pin(report: &mut Report) -> Option<u32> {
    let cpu = sys::last_allowed_cpu().filter(|&c| sys::pin_self(c));
    report.note(match cpu {
        Some(c) => format!("pinned: true (cpu {c})"),
        None => "pinned: false (taskset unavailable)".to_string(),
    });
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_scale_wall_and_cpu_by_machine_speed() {
        let mut r = Rounds::default();
        // The same work on a machine at 80 % speed takes 1.25 times as
        // long; scaled, the two rounds read the same.
        r.push(1000, 1.0, 0.9, 1.0);
        r.push(1000, 1.25, 1.125, 0.8);
        r.push(1000, 2.0, 1.8, 0.5);
        let mut report = Report::default();
        r.finish(&mut report, &Yardstick::new());
        assert!((report.metrics["ops_per_s"] - 1000.0).abs() < 1e-9);
        assert!((report.metrics["cpu_us_per_op"] - 900.0).abs() < 1e-9);
    }
}
