//! `sim_steady`: amortised simulation of the nine default-parameter
//! designs on both simulator backends.
//!
//! The tapes are compiled once in set-up; after that only the per-run
//! speed of each backend counts and compile cost counts for nothing
//! (`fuzz` is the workload where it is the other way round). The rate is
//! a geometric mean over the 18 pairs of design and backend, so gemm on
//! the interpreter (over a second a run) weighs as much as dotproduct on
//! the tape (a few milliseconds).

use std::time::Instant;

use dhdl_core::Design;
use dhdl_estimate::Estimator;
use dhdl_sim::{compile, simulate, Bindings, Compiled, SimResult};
use dhdl_synth::{design_hash, place_and_route};
use dhdl_target::Platform;

use crate::common::{b9, pin, repeat_setup, Ctx, Report};
use crate::names::BENCHES;
use crate::rng::{shuffle, SplitMix64};
use crate::stats;
use crate::sys::self_cpu_secs;
use crate::trace::Tracer;
use crate::yard::Yardstick;

/// Fewest timed samples of a pair, however long one run takes.
const MIN_TAPE_RUNS: usize = 5;
const MIN_INTERP_RUNS: usize = 3;
/// Outputs may differ from `Benchmark::reference()` by this share of the
/// largest expected magnitude (the designs compute in f32).
const REFERENCE_TOL: f64 = 1e-3;

struct App {
    design: Design,
    bindings: Bindings,
    tape: Compiled,
}

struct Setup {
    platform: Platform,
    apps: Vec<App>,
    compile_ms: f64,
}

fn setup() -> Setup {
    let platform = Platform::maia();
    let mut compile_ms = 0.0;
    let apps = b9()
        .iter()
        .map(|bench| {
            let design = bench
                .build(&bench.default_params())
                .expect("default parameters build");
            let mut bindings = Bindings::new();
            for (name, data) in bench.inputs() {
                bindings = bindings.bind(&name, data);
            }
            let t = Instant::now();
            let tape = compile(&design, &platform).expect("the tape backend accepts the design");
            compile_ms += t.elapsed().as_secs_f64() * 1e3;
            App {
                design,
                bindings,
                tape,
            }
        })
        .collect();
    Setup {
        platform,
        apps,
        compile_ms,
    }
}

impl Setup {
    fn run(&self, app: usize, tape: bool) -> SimResult {
        let a = &self.apps[app];
        if tape {
            a.tape.run(&a.bindings).expect("tape run")
        } else {
            simulate(&a.design, &self.platform, &a.bindings).expect("interpreter run")
        }
    }
}

/// Run every design once on both backends, check the outputs against the
/// reference and the backends against each other, and return each pair's
/// run time (`[app][tape as usize]`) and the interpreter results.
fn witness(report: &mut Report, s: &Setup) -> (Vec<[f64; 2]>, Vec<SimResult>) {
    let benches = b9();
    let mut secs = Vec::new();
    let mut results = Vec::new();
    for (i, bench) in benches.iter().enumerate() {
        let t = Instant::now();
        let interp = s.run(i, false);
        let interp_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let tape = s.run(i, true);
        secs.push([interp_s, t.elapsed().as_secs_f64()]);
        report.attempted += 2;
        if let Some(diff) = interp.bit_diff(&tape) {
            report.fail(format!(
                "{}: tape differs from interpreter: {diff}",
                bench.name()
            ));
        }
        for (name, expected) in bench.reference() {
            let scale = expected.iter().fold(1e-30f64, |m, v| m.max(v.abs()));
            let ok = interp.output(&name).is_ok_and(|got| {
                got.len() == expected.len()
                    && got
                        .iter()
                        .zip(&expected)
                        .all(|(g, e)| (g - e).abs() / scale < REFERENCE_TOL)
            });
            report.check(ok, || {
                format!("{}: output `{name}` is off the reference", bench.name())
            });
        }
        results.push(interp);
    }
    (secs, results)
}

/// The per-pair time budget `b` with `Σ max(mandatory_i, b) = total`:
/// pairs whose minimum runs already take longer keep their minimum, the
/// rest share what is left equally.
fn slot_budget(mandatory: &[f64], total: f64) -> f64 {
    let (mut lo, mut hi) = (0.0, total);
    for _ in 0..50 {
        let mid = (lo + hi) / 2.0;
        if mandatory.iter().map(|m| m.max(mid)).sum::<f64>() > total {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    lo
}

/// Shortest timed sample: a run that takes less is repeated back to back
/// until the sample is this long, so the yardstick readings around it do
/// not outweigh it.
const MIN_SAMPLE_SECS: f64 = 0.02;

/// Wall and CPU seconds per run of each timed sample of one pair, scaled
/// by the machine speed around the sample.
#[derive(Default, Clone)]
struct Timed {
    wall: Vec<f64>,
    cpu: Vec<f64>,
    runs: usize,
}

/// Time every pair for its share of `seconds`, in a seeded order.
/// Returns `[app][tape as usize]`.
fn measure(
    report: &mut Report,
    ctx: &Ctx,
    yard: &Yardstick,
    s: &Setup,
    first: &[[f64; 2]],
    cycles: &[u64],
    seconds: f64,
) -> Vec<[Timed; 2]> {
    let mut slots: Vec<(usize, bool)> = (0..s.apps.len())
        .flat_map(|i| [(i, false), (i, true)])
        .collect();
    shuffle(&mut slots, &mut SplitMix64::new(ctx.seed));
    let min_samples = |tape| if tape { MIN_TAPE_RUNS } else { MIN_INTERP_RUNS };
    let batch = |i: usize, tape: bool| {
        (MIN_SAMPLE_SECS / first[i][usize::from(tape)])
            .ceil()
            .max(1.0)
    };
    let mandatory: Vec<f64> = slots
        .iter()
        .map(|&(i, tape)| first[i][usize::from(tape)] * batch(i, tape) * min_samples(tape) as f64)
        .collect();
    let budget = slot_budget(&mandatory, seconds);
    let mut out: Vec<[Timed; 2]> = vec![Default::default(); s.apps.len()];
    for (i, tape) in slots {
        let timed = &mut out[i][usize::from(tape)];
        let runs = batch(i, tape) as usize;
        let start = Instant::now();
        let mut before = yard.speed(1);
        while timed.wall.len() < min_samples(tape) || start.elapsed().as_secs_f64() < budget {
            let cpu0 = self_cpu_secs();
            let t = Instant::now();
            for _ in 0..runs {
                let r = std::hint::black_box(s.run(i, tape));
                report.check(r.cycles.to_bits() == cycles[i], || {
                    format!("{}: simulated cycles changed between runs", BENCHES[i])
                });
            }
            let wall = t.elapsed().as_secs_f64();
            let cpu = self_cpu_secs() - cpu0;
            let after = yard.speed(1);
            let scale = (before + after) / 2.0 / runs as f64;
            timed.wall.push(wall * scale);
            timed.cpu.push(cpu * scale);
            timed.runs += runs;
            report.attempted += runs as u64;
            before = after;
        }
    }
    out
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    pin(&mut report);
    let yard = Yardstick::new();
    let (s, setup_s) = repeat_setup(&yard, setup);
    report.set("setup_s", setup_s);
    let (first, results) = witness(&mut report, &s);
    let cycles: Vec<u64> = results.iter().map(|r| r.cycles.to_bits()).collect();
    drop(results);

    let timed = measure(&mut report, ctx, &yard, &s, &first, &cycles, ctx.seconds);
    let pairs = || timed.iter().flatten();
    let rates: Vec<f64> = pairs().map(|t| 1.0 / stats::median(&t.wall)).collect();
    let cpus: Vec<f64> = pairs().map(|t| stats::median(&t.cpu) * 1e6).collect();
    report.set("ops_per_s", stats::geomean(&rates));
    report.set("cpu_us_per_op", stats::geomean(&cpus));
    report.note(yard.summary());
    report.note(format!(
        "ops_per_s: geometric mean of 18 median rates; {} to {} timed samples, {} to {} runs a pair",
        pairs().map(|t| t.wall.len()).min().unwrap_or(0),
        pairs().map(|t| t.wall.len()).max().unwrap_or(0),
        pairs().map(|t| t.runs).min().unwrap_or(0),
        pairs().map(|t| t.runs).max().unwrap_or(0),
    ));
    report
}

pub fn trace(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::default();
    pin(&mut report);
    let yard = Yardstick::new();
    let t = Instant::now();
    let estimator = Estimator::calibrate(&Platform::maia(), ctx.seed);
    report.set("estimate.calibrate_ms", t.elapsed().as_secs_f64() * 1e3);
    let s = setup();
    report.set("sim.compile_ms", s.compile_ms);
    let instrs: usize = s.apps.iter().map(|a| a.tape.instruction_count()).sum();
    report.set("sim.tape.instrs", instrs as f64);

    let (first, results) = witness(&mut report, &s);
    let cycles: Vec<u64> = results.iter().map(|r| r.cycles.to_bits()).collect();
    report.set("sim.cycles_total", results.iter().map(|r| r.cycles).sum());

    // Estimator accuracy against the two ground truths it never reads:
    // simulated cycles and place-and-route ALMs.
    let (mut cycle_err, mut alm_err) = (Vec::new(), Vec::new());
    for (app, sim) in s.apps.iter().zip(&results) {
        let net = estimator.elaborate(&app.design);
        let est = estimator.estimate_net(&app.design, &net);
        let truth = place_and_route(design_hash(&app.design), &net, &s.platform.fpga);
        cycle_err.push((est.cycles - sim.cycles).abs() / sim.cycles * 100.0);
        alm_err.push((est.area.alms - truth.alms).abs() / truth.alms * 100.0);
    }
    report.set("estimate.cycles_err_pct", stats::mean(&cycle_err));
    report.set("estimate.alm_err_pct", stats::mean(&alm_err));
    drop(results);

    // Per-pair medians from a plain timed pass, then the same runs under
    // spans: the difference is what tracing costs here.
    let timed = measure(
        &mut report,
        ctx,
        &yard,
        &s,
        &first,
        &cycles,
        ctx.seconds * 0.6,
    );
    let median_ms = |i: usize, tape: bool| stats::median(&timed[i][usize::from(tape)].wall) * 1e3;
    for (i, bench) in BENCHES.iter().enumerate() {
        report.set(&format!("sim.interp_run_ms.{bench}"), median_ms(i, false));
        report.set(&format!("sim.tape_run_ms.{bench}"), median_ms(i, true));
    }
    for (metric, tape) in [
        ("sim.interp_runs_per_s", false),
        ("sim.tape_runs_per_s", true),
    ] {
        let rates: Vec<f64> = (0..BENCHES.len())
            .map(|i| 1e3 / median_ms(i, tape))
            .collect();
        report.set(metric, stats::geomean(&rates));
    }

    let mut tr = Tracer::new(true);
    let (mut traced, mut plain) = (0.0, 0.0);
    for (i, pair) in timed.iter().enumerate() {
        // The trace file tells the applications apart by `round`.
        tr.set_round(i as u32);
        for (tape, name) in [(false, "sim.interp_run"), (true, "sim.tape_run")] {
            let before = yard.speed(1);
            let t = Instant::now();
            tr.span(name, |_| std::hint::black_box(s.run(i, tape)));
            let wall = t.elapsed().as_secs_f64();
            traced += wall * (before + yard.speed(1)) / 2.0;
            plain += stats::median(&pair[usize::from(tape)].wall);
            report.attempted += 1;
        }
    }
    report.set("trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    report.set("machine.yardstick_us", yard.median_us());
    (report, tr)
}

#[cfg(test)]
mod tests {
    use super::slot_budget;

    #[test]
    fn slot_budget_fills_the_total_around_the_mandatory_minimums() {
        let mandatory = [3.5, 1.8, 0.1, 0.1, 0.1];
        let b = slot_budget(&mandatory, 10.0);
        let spent: f64 = mandatory.iter().map(|m| m.max(b)).sum();
        assert!((spent - 10.0).abs() < 1e-6, "spent {spent}");
        assert!((b - 4.7 / 3.0).abs() < 1e-6, "budget {b}");
        // Minimums alone over the total: nobody gets extra time.
        assert!(slot_budget(&[6.0, 6.0], 10.0) < 1e-6);
    }
}
