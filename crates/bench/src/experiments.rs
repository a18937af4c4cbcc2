//! Shared experiment machinery: a calibrated harness plus end-to-end
//! evaluation of individual design points (estimate + synthesize +
//! simulate).

use dhdl_apps::Benchmark;
use dhdl_core::{Design, ParamValues};
use dhdl_dse::{explore, spread, DseOptions, DseResult};
use dhdl_estimate::Estimator;
use dhdl_sim::{compile, simulate, simulate_compiled, Bindings, CompileError, SimResult};
use dhdl_synth::{design_hash, place_and_route, SynthReport};
use dhdl_target::{AreaReport, Platform};

use crate::knobs::knob;

/// The benchmark's input arrays as simulator bindings.
fn bindings(bench: &dyn Benchmark) -> Bindings {
    let mut bindings = Bindings::new();
    for (name, data) in bench.inputs() {
        bindings = bindings.bind(&name, data);
    }
    bindings
}

/// Simulate a built design on the benchmark's inputs: on the compiled
/// tape, or on the interpreter for a design the compiler rejects. The
/// two are bit-identical, so only wall-clock time depends on which one
/// ran. Needs a platform, not a calibrated [`Harness`]: simulation never
/// reads the estimator.
///
/// # Panics
///
/// Panics if simulation fails (benchmark designs are validated).
pub fn simulate_bench(platform: &Platform, bench: &dyn Benchmark, design: &Design) -> SimResult {
    simulate_compiled(design, platform, &bindings(bench))
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", bench.name()))
}

/// A calibrated evaluation harness: platform, trained estimator, and the
/// DSE configuration used across experiments.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The target platform (Stratix V on MAIA).
    pub platform: Platform,
    /// The calibrated estimator.
    pub estimator: Estimator,
    /// DSE options (sample budget, seed, memory cap).
    pub dse: DseOptions,
    /// Maximum devices for the multi-FPGA DSE axis (`DHDL_DSE_NUM_FPGAS`
    /// or `--num-fpgas`; default 1 = single-chip). When `> 1`,
    /// [`Harness::explore`] adds the `num_fpgas` parameter to every
    /// benchmark's space; at 1 the space — and therefore every sweep
    /// artifact — is byte-identical to a build that never heard of
    /// partitioning.
    pub num_fpgas: u32,
}

impl Harness {
    /// Build a harness: calibrates the estimator against the synthesis
    /// model (the paper's one-time, application-independent training) and
    /// touches no file. The trained model is never persisted: calibration
    /// is a pure function of platform and seed that costs ~0.2 s, and a
    /// model file could outlive the characterization it was fitted on.
    ///
    /// Sweep resilience knobs come from the environment so every
    /// experiment driver shares them: `DHDL_DSE_THREADS` (worker
    /// threads, 0 = all cores), `DHDL_DSE_DEADLINE_MS` (wall-clock
    /// budget per sweep) and `DHDL_DSE_NUM_FPGAS` (maximum devices for
    /// the multi-FPGA partitioning axis; default 1 keeps sweeps
    /// bit-identical to the single-chip toolchain). Sweeps estimate every point with the bare
    /// estimator: no experiment revisits enough points in one process
    /// for [`dhdl_dse::CachedModel`] to pay for its hashing.
    pub fn new(seed: u64, dse_points: usize) -> Self {
        let platform = Platform::maia();
        let estimator = Estimator::calibrate(&platform, seed);
        let threads = knob("DHDL_DSE_THREADS").unwrap_or(0);
        let deadline = knob("DHDL_DSE_DEADLINE_MS").map(std::time::Duration::from_millis);
        let num_fpgas = knob("DHDL_DSE_NUM_FPGAS").unwrap_or(1).max(1);
        Harness {
            platform,
            estimator,
            dse: DseOptions {
                max_points: dse_points,
                seed,
                threads,
                deadline,
                ..DseOptions::default()
            },
            num_fpgas,
        }
    }

    /// Explore a benchmark's design space with the harness settings on
    /// the resilient parallel runner. A sweep the `DHDL_DSE_DEADLINE_MS`
    /// deadline cut short is re-run, not resumed: the re-run without the
    /// deadline returns the complete result, bit for bit.
    pub fn explore(&self, bench: &dyn Benchmark) -> DseResult {
        let _span = dhdl_obs::span_labeled("sweep", bench.name());
        let build = |p: &ParamValues| bench.build(p);
        let mut space = bench.param_space();
        if self.num_fpgas > 1 {
            // The device count joins the space as an ordinary parameter;
            // benchmark metaprograms ignore it (partitioning happens at
            // estimation time, not construction time).
            space.devices(u64::from(self.num_fpgas));
        }
        let result = explore(build, &space, &self.estimator, &self.dse);
        if result.truncated {
            eprintln!(
                "warning: {} sweep truncated by deadline ({} of {} points skipped); \
                 re-run without the deadline for the complete result",
                bench.name(),
                result.counts.skipped,
                result.counts.skipped + result.counts.evaluated + result.discarded
            );
        }
        result
    }

    /// Simulate `design` under both backends and bit-compare. Returns
    /// the interpreter's result and the verdict: `None` when the tape
    /// compiler does not support the design, otherwise `Ok` or the first
    /// difference.
    ///
    /// # Panics
    ///
    /// Panics if either backend fails to run.
    pub fn cross_simulate(
        &self,
        bench: &dyn Benchmark,
        design: &Design,
    ) -> (SimResult, Option<Result<(), String>>) {
        let bindings = bindings(bench);
        let interp = simulate(design, &self.platform, &bindings)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", bench.name()));
        let verdict = match compile(design, &self.platform) {
            Ok(compiled) => {
                let tape = compiled
                    .run(&bindings)
                    .unwrap_or_else(|e| panic!("{}: tape backend failed: {e}", bench.name()));
                Some(interp.bit_diff(&tape).map_or(Ok(()), Err))
            }
            Err(CompileError::Unsupported(why)) => {
                eprintln!("{}: tape backend unsupported ({why})", bench.name());
                None
            }
        };
        (interp, verdict)
    }

    /// Fully evaluate one design point: estimate, synthesize (area ground
    /// truth) and simulate (runtime ground truth + outputs).
    ///
    /// # Panics
    ///
    /// Panics if the design fails to build or simulate.
    pub fn evaluate(&self, bench: &dyn Benchmark, params: &ParamValues) -> PointEval {
        let design = bench
            .build(params)
            .unwrap_or_else(|e| panic!("{}: build failed: {e}", bench.name()));
        // One elaboration feeds the estimate and the synthesis model;
        // `place_and_route` on the shared netlist is exactly
        // `dhdl_synth::synthesize` without its internal re-elaboration.
        let net = self.estimator.elaborate(&design);
        let est = self.estimator.estimate_net(&design, &net);
        let synth = place_and_route(design_hash(&design), &net, &self.platform.fpga);
        let sim = simulate_bench(&self.platform, bench, &design);
        PointEval {
            params: params.clone(),
            est_area: est.area,
            est_cycles: est.cycles,
            synth,
            sim_cycles: sim.cycles,
        }
    }

    /// Fully evaluate up to `n` spread-out Pareto points of a sweep
    /// (§V-B's "five Pareto points ... for each of our benchmarks").
    pub fn evaluate_front(
        &self,
        bench: &dyn Benchmark,
        result: &DseResult,
        n: usize,
    ) -> Vec<PointEval> {
        spread(&result.pareto, n)
            .into_iter()
            .map(|i| self.evaluate(bench, &result.points[i].params))
            .collect()
    }
}

/// One fully evaluated design point: estimates vs. ground truth.
#[derive(Debug, Clone)]
pub struct PointEval {
    /// The parameter assignment.
    pub params: ParamValues,
    /// Estimated area.
    pub est_area: AreaReport,
    /// Estimated cycles.
    pub est_cycles: f64,
    /// Synthesis-model ground-truth report.
    pub synth: SynthReport,
    /// Simulated ground-truth cycles.
    pub sim_cycles: f64,
}

impl PointEval {
    /// Relative error of a prediction against truth (0 when both are 0).
    pub fn rel_err(pred: f64, truth: f64) -> f64 {
        if truth.abs() < 1e-9 {
            if pred.abs() < 1e-9 {
                0.0
            } else {
                1.0
            }
        } else {
            ((pred - truth) / truth).abs()
        }
    }

    /// `[alm, dsp, bram, runtime]` relative errors for this point.
    pub fn errors(&self) -> [f64; 4] {
        let truth = self.synth.area_report();
        [
            Self::rel_err(self.est_area.alms, truth.alms),
            Self::rel_err(self.est_area.dsps, truth.dsps),
            Self::rel_err(self.est_area.brams, truth.brams),
            Self::rel_err(self.est_cycles, self.sim_cycles),
        ]
    }
}

/// Mean `[alm, dsp, bram, runtime]` relative error over evaluated
/// points (zeros for none) — the Table III figure of merit.
pub fn mean_errors(evals: &[PointEval]) -> [f64; 4] {
    let mut sums = [0.0f64; 4];
    for eval in evals {
        for (s, e) in sums.iter_mut().zip(eval.errors()) {
            *s += e;
        }
    }
    let n = evals.len().max(1) as f64;
    sums.map(|s| s / n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_apps::DotProduct;
    use std::sync::OnceLock;

    /// One calibration for the whole test binary.
    fn harness() -> &'static Harness {
        static HARNESS: OnceLock<Harness> = OnceLock::new();
        HARNESS.get_or_init(|| Harness::new(3, 40))
    }

    #[test]
    fn rel_err_handles_zero_truth() {
        assert_eq!(PointEval::rel_err(0.0, 0.0), 0.0);
        assert_eq!(PointEval::rel_err(5.0, 0.0), 1.0);
        assert!((PointEval::rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn shared_netlist_evaluation_matches_synthesize() {
        let h = harness();
        let bench = DotProduct::new(1_920);
        let design = bench.build(&bench.default_params()).unwrap();
        // The shared-netlist evaluation path equals the per-call one.
        let net = h.estimator.elaborate(&design);
        assert_eq!(
            place_and_route(design_hash(&design), &net, &h.platform.fpga),
            dhdl_synth::synthesize(&design, &h.platform.fpga)
        );
    }

    #[test]
    fn harness_end_to_end_on_small_benchmark() {
        let h = harness();
        let bench = DotProduct::new(1_920);
        let result = h.explore(&bench);
        assert!(!result.pareto.is_empty());
        let evals = h.evaluate_front(&bench, &result, 2);
        assert!(!evals.is_empty());
        let [alm, _dsp, _bram, rt] = evals[0].errors();
        // Errors are finite and not absurd.
        assert!(alm < 1.0, "alm err {alm}");
        assert!(rt < 1.0, "runtime err {rt}");
    }
}
