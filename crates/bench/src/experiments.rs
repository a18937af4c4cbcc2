//! Shared experiment machinery: a calibrated harness plus end-to-end
//! evaluation of individual design points (estimate + synthesize +
//! time + classify).

use dhdl_apps::Benchmark;
use dhdl_core::{Design, ParamValues};
use dhdl_dse::{explore, spread, DseOptions, DseResult};
use dhdl_estimate::{classify, Bottleneck, Estimate, Estimator};
use dhdl_sim::{compile, simulate, simulate_compiled, timing, Bindings, CompileError, SimResult};
use dhdl_synth::{design_hash, place_and_route, SynthReport};
use dhdl_target::{Platform, Resources};

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

/// Ground-truth cycles of a built design: the compile-time timing walk,
/// which every run of the design reports bit for bit, so no tape runs. A
/// design the compiler rejects runs on the interpreter instead (counted
/// as `sim.timing.fallback`); its failure panics. Read through
/// [`Harness::evaluate`].
fn bench_cycles(platform: &Platform, bench: &dyn Benchmark, design: &Design) -> f64 {
    match timing(design, platform) {
        Ok(Some(t)) => return t.cycles,
        // Every run fails: the interpreter says why.
        Ok(None) => {}
        Err(CompileError::Unsupported(_)) => dhdl_obs::counter!("sim.timing.fallback").incr(),
    }
    simulate(design, platform, &bindings(bench))
        .unwrap_or_else(|e| panic!("{}: simulation failed: {e}", bench.name()))
        .cycles
}

/// A calibrated evaluation harness: platform, trained estimator, and the
/// DSE configuration used across experiments.
#[derive(Debug, Clone)]
pub struct Harness {
    /// The target platform (Stratix V on MAIA).
    pub platform: Platform,
    /// The calibrated estimator.
    pub estimator: Estimator,
    /// DSE options (seed, memory cap, threads); the budget is the whole
    /// legal space and there is no deadline.
    pub dse: DseOptions,
    /// Maximum devices for the multi-FPGA DSE axis (`dhdl explore
    /// --num-fpgas`; default 1 = single-chip). When `> 1`,
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
    /// is a pure function of platform and seed that costs under 0.1 s in
    /// release, and a model file could outlive the characterization it
    /// was fitted on.
    ///
    /// Every sweep evaluates the whole legal space: the largest one,
    /// gemm's at `--num-fpgas 4`, holds 87 480 points and takes well
    /// under a second, so a sample would buy nothing but an approximate
    /// front, and a deadline nothing but a partial one. The worker
    /// count comes from the environment so every experiment driver
    /// shares it: `DHDL_DSE_THREADS` (0 = all cores). Sweeps estimate
    /// every point with the bare estimator: a sweep visits each point
    /// once, so the estimate cache would only add hashing.
    pub fn new(seed: u64) -> Self {
        let platform = Platform::maia();
        let estimator = Estimator::calibrate(&platform, seed);
        let threads = knob("DHDL_DSE_THREADS").unwrap_or(0);
        Harness {
            platform,
            estimator,
            dse: DseOptions {
                max_points: usize::MAX,
                seed,
                threads,
                ..DseOptions::default()
            },
            num_fpgas: 1,
        }
    }

    /// Explore a benchmark's design space with the harness settings on
    /// the resilient parallel runner.
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
        explore(build, &space, &self.estimator, &self.dse)
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

    /// Fully evaluate one single-chip design point, the one path from an
    /// assignment to anything beyond its sweep estimate: one build and
    /// one elaboration give the estimate, the place-and-route report,
    /// the raw resources and the class (from the netlist's latency
    /// plan, as the estimate's cycles); the walk gives the cycles.
    ///
    /// # Panics
    ///
    /// Panics if the design fails to build or time.
    pub fn evaluate(&self, bench: &dyn Benchmark, params: &ParamValues) -> PointEval {
        let design = bench
            .build(params)
            .unwrap_or_else(|e| panic!("{}: build failed: {e}", bench.name()));
        // `place_and_route` on the shared netlist is exactly
        // `dhdl_synth::synthesize` without its internal re-elaboration.
        let net = self.estimator.elaborate(&design);
        let est = self.estimator.estimate_net(&design, &net);
        PointEval {
            params: params.clone(),
            est,
            raw: net.raw,
            synth: place_and_route(design_hash(&design), &net, &self.platform.fpga),
            sim_cycles: bench_cycles(&self.platform, bench, &design),
            class: classify(&design, &est, &self.platform, &net),
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
    /// The estimate: area and cycles.
    pub est: Estimate,
    /// Raw resources of the elaborated netlist, before place and route.
    pub raw: Resources,
    /// Synthesis-model ground-truth report.
    pub synth: SynthReport,
    /// Ground-truth cycles: the timing walk's, which a run reports.
    pub sim_cycles: f64,
    /// What limits the point, classified from its estimate.
    pub class: Bottleneck,
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
            Self::rel_err(self.est.area.alms, truth.alms),
            Self::rel_err(self.est.area.dsps, truth.dsps),
            Self::rel_err(self.est.area.brams, truth.brams),
            Self::rel_err(self.est.cycles, self.sim_cycles),
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
        HARNESS.get_or_init(|| Harness::new(3))
    }

    #[test]
    fn rel_err_handles_zero_truth() {
        assert_eq!(PointEval::rel_err(0.0, 0.0), 0.0);
        assert_eq!(PointEval::rel_err(5.0, 0.0), 1.0);
        assert!((PointEval::rel_err(110.0, 100.0) - 0.1).abs() < 1e-12);
    }

    /// What `evaluate` reads from one netlist equals what each per-call
    /// path gives on its own, at the nine applications' default points.
    #[test]
    fn shared_netlist_evaluation_matches_synthesize() {
        let h = harness();
        let benches: Vec<_> = dhdl_apps::all()
            .into_iter()
            .chain(dhdl_apps::dnn())
            .collect();
        assert_eq!(benches.len(), 9);
        std::thread::scope(|s| {
            for bench in &benches {
                s.spawn(move || {
                    let name = bench.name();
                    let params = bench.default_params();
                    let design = bench.build(&params).unwrap();
                    let e = h.evaluate(bench.as_ref(), &params);
                    let est = h.estimator.estimate(&design);
                    assert_eq!(e.est, est, "{name}");
                    assert_eq!(
                        e.synth,
                        dhdl_synth::synthesize(&design, &h.platform.fpga),
                        "{name}"
                    );
                    // The interpreter: a run that does not read the walk.
                    let run = simulate(&design, &h.platform, &bindings(bench.as_ref())).unwrap();
                    assert_eq!(e.sim_cycles.to_bits(), run.cycles.to_bits(), "{name}");
                    let net = dhdl_synth::elaborate(&design, &h.platform.fpga);
                    assert_eq!(
                        e.class,
                        classify(&design, &est, &h.platform, &net),
                        "{name}"
                    );
                    assert_eq!(e.raw, net.raw, "{name}");
                });
            }
        });
    }

    #[test]
    fn ground_truth_cycles_are_a_runs_cycles() {
        let platform = Platform::maia();
        let bench = DotProduct::new(1_920);
        let design = bench.build(&bench.default_params()).unwrap();
        assert_eq!(
            bench_cycles(&platform, &bench, &design).to_bits(),
            simulate_bench(&platform, &bench, &design).cycles.to_bits()
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
