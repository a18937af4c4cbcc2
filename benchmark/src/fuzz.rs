//! `fuzz`: generated designs through every conformance oracle, once each.
//!
//! The simulator is used the other way round from `sim_steady`: every
//! design is a new shape that is compiled once and run once, so compile
//! cost weighs as much as run speed. It is also the only workload that
//! drives place-and-route, partitioning, serialization and the skeleton
//! *build* path. Each round runs on a fresh thread with a fresh
//! `Conformance`, so the per-thread skeleton cache and the shared
//! estimate cache start empty and every round does the same work.
//!
//! Generated designs whose reference output holds a NaN (about 6 %) are
//! left out, see [`has_defined_output`]: the oracles compare NaNs bit for
//! bit, and about one seed in thirty draws a design on which they differ.

use std::time::Instant;

use dhdl_conformance::{generate, Conformance, DesignSpec};
use dhdl_core::serialize;
use dhdl_sim::{compile, simulate, Bindings, CompileError};
use dhdl_synth::{design_hash, elaborate, partition, place_and_route, Skeleton};
use dhdl_target::MultiFpgaPlatform;

use crate::common::{pin, repeat_setup, Ctx, Report, Rounds};
use crate::sys::self_cpu_secs;
use crate::trace::{self_times, Tracer};
use crate::yard::Yardstick;

/// Designs checked per round.
const DESIGNS: u64 = 1000;

struct Setup {
    conformance: Conformance,
    specs: Vec<DesignSpec>,
    /// Generated designs left out for a NaN in their reference output.
    skipped: u64,
    calibrate_ms: f64,
}

/// Whether every element of the spec's reference output is a number.
/// The square root of a negative number is a negative NaN on this
/// hardware and `Neg` makes it positive; where NaNs of both signs meet in
/// a sum, the sign of the result depends on operand order, which differs
/// between the plain-Rust reference, the interpreter and the tape, and
/// the `sim-vs-reference` and `backend-differential` oracles compare
/// bits. In 200 000 generated designs these were the only violations.
/// The screen never looks at the code under test, and a violation on any
/// design it lets through still fails the run.
fn has_defined_output(spec: &DesignSpec) -> bool {
    let (x, y) = spec.inputs();
    spec.reference(&x, &y).iter().all(|v| !v.is_nan())
}

/// The first [`DESIGNS`] designs of the seed's stream with a defined
/// output, and how many were passed over.
fn draw_specs(seed: u64) -> (Vec<DesignSpec>, u64) {
    let mut specs = Vec::with_capacity(DESIGNS as usize);
    let mut skipped = 0;
    for spec in (0..).map(|i| generate(seed, i)) {
        if specs.len() as u64 == DESIGNS {
            break;
        }
        if has_defined_output(&spec) {
            specs.push(spec);
        } else {
            skipped += 1;
        }
    }
    (specs, skipped)
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let conformance = Conformance::new();
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let (specs, skipped) = draw_specs(seed);
    Setup {
        conformance,
        specs,
        skipped,
        calibrate_ms,
    }
}

/// Check every spec; returns wall seconds, CPU seconds and violations.
fn check_all(conformance: &Conformance, specs: &[DesignSpec]) -> (f64, f64, Vec<String>) {
    let cpu0 = self_cpu_secs();
    let t = Instant::now();
    let mut violations = Vec::new();
    for spec in specs {
        for v in conformance.check_design(spec) {
            violations.push(format!("{}: {v}", spec.name()));
        }
    }
    (
        t.elapsed().as_secs_f64(),
        self_cpu_secs() - cpu0,
        violations,
    )
}

pub fn run(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    pin(&mut report);
    let yard = Yardstick::new();
    let (s, setup_s) = repeat_setup(&yard, || setup(ctx.seed));
    report.set("setup_s", setup_s);
    report.note(format!("{} designs with a NaN output left out", s.skipped));

    let mut rounds = Rounds::default();
    let end = ctx.until(Instant::now(), 1.0);
    while Instant::now() < end || rounds.len() < 3 {
        let (wall, cpu, violations, speed) = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let conformance = Conformance::new();
                    let before = yard.speed(1);
                    let (wall, cpu, violations) = check_all(&conformance, &s.specs);
                    (wall, cpu, violations, (before + yard.speed(1)) / 2.0)
                })
                .join()
                .expect("fuzz round panicked")
        });
        report.attempted += DESIGNS;
        violations.into_iter().for_each(|v| report.fail(v));
        rounds.push(DESIGNS, wall, cpu, speed);
    }
    rounds.finish(&mut report, &yard);
    report
}

pub fn trace(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::default();
    pin(&mut report);
    let yard = Yardstick::new();
    let s = setup(ctx.seed);
    report.set("estimate.calibrate_ms", s.calibrate_ms);
    let platform = s.conformance.platform().clone();
    let link = MultiFpgaPlatform::from_platform(&platform, 2).link;

    let mut tr = Tracer::new(true);
    let (mut designs, mut unsupported) = (0u64, 0u64);
    let end = ctx.until(Instant::now(), 0.8);
    for (round, spec) in s.specs.iter().enumerate() {
        if (Instant::now() >= end && designs >= 100) || tr.is_full() {
            break;
        }
        tr.set_round(round as u32);
        if round % 50 == 0 {
            yard.speed(1);
        }
        tr.span("fuzz.design", |tr| {
            for v in tr.span("conformance.check", |_| s.conformance.check_design(spec)) {
                report.fail(format!("{}: {v}", spec.name()));
            }
            // The layers `check_design` calls, once each on the same
            // design, so each has a row of its own.
            let design = tr
                .span("conformance.build", |_| spec.build())
                .expect("a generated spec builds");
            tr.span("synth.skeleton", |_| {
                std::hint::black_box(Skeleton::of(&design))
            });
            let net = tr.span("synth.elaborate", |_| elaborate(&design, &platform.fpga));
            tr.span("synth.pnr", |_| {
                std::hint::black_box(place_and_route(design_hash(&design), &net, &platform.fpga))
            });
            tr.span("synth.partition", |_| {
                std::hint::black_box(partition(&design, &platform.fpga, &link, 2))
            });
            tr.span("core.serialize", |_| {
                let text = serialize::to_text(&design);
                std::hint::black_box(serialize::from_text(&text).expect("round trip parses"))
            });
            let (x, y) = spec.inputs();
            let mut bindings = Bindings::new().bind("x", x);
            if spec.uses_second() {
                bindings = bindings.bind("y", y);
            }
            let interp = tr
                .span("sim.oneshot.interp_run", |_| {
                    simulate(&design, &platform, &bindings)
                })
                .expect("the interpreter runs a generated design");
            match tr.span("sim.oneshot.compile", |_| compile(&design, &platform)) {
                Ok(tape) => {
                    let got = tr
                        .span("sim.oneshot.tape_run", |_| tape.run(&bindings))
                        .expect("the tape runs what it compiled");
                    if let Some(diff) = interp.bit_diff(&got) {
                        report.fail(format!("{}: tape differs: {diff}", spec.name()));
                    }
                }
                Err(CompileError::Unsupported(_)) => unsupported += 1,
            }
        });
        designs += 1;
    }
    report.attempted += designs;
    report.note(format!(
        "{designs} designs traced, {} spans; {} with a NaN output left out",
        tr.spans().len(),
        s.skipped
    ));

    // The same designs through `check_design` alone, untraced, on a fresh
    // thread and context like a measured round.
    let (plain, _, _) = std::thread::scope(|scope| {
        let specs = &s.specs[..designs as usize];
        scope
            .spawn(|| check_all(&Conformance::new(), specs))
            .join()
            .expect("untraced fuzz pass panicked")
    });

    let t = self_times(tr.spans());
    let mean_us = |name: &str| t.get(name).map_or(0.0, |s| s.mean_ns()) / 1e3;
    let rows = [
        ("conformance.build_us", "conformance.build"),
        ("synth.skeleton_us", "synth.skeleton"),
        ("synth.pnr_us", "synth.pnr"),
        ("synth.partition_us", "synth.partition"),
        ("core.serialize_us", "core.serialize"),
        ("sim.oneshot.compile_us", "sim.oneshot.compile"),
        ("sim.oneshot.tape_run_us", "sim.oneshot.tape_run"),
        ("sim.oneshot.interp_run_us", "sim.oneshot.interp_run"),
    ];
    let mut attributed = 0.0;
    for (metric, span) in rows {
        report.set(metric, mean_us(span));
        attributed += mean_us(span);
    }
    let check_us = mean_us("conformance.check");
    report.set("conformance.check_us", check_us);
    report.set("conformance.unattributed_us", check_us - attributed);
    report.set("sim.oneshot.unsupported", unsupported as f64);
    let traced = check_us * designs as f64 / 1e6;
    report.set("trace_overhead_pct", (traced / plain - 1.0) * 100.0);
    report.set("machine.yardstick_us", yard.median_us());
    (report, tr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designs_with_a_nan_output_are_left_out() {
        // Seed 16 draws `fz15a`, whose NaNs of both signs meet in a sum.
        let (specs, skipped) = draw_specs(16);
        assert_eq!(specs.len() as u64, DESIGNS);
        assert!(skipped >= 1);
        assert!(specs.iter().all(has_defined_output));
        assert!(specs.iter().all(|s| s.name() != "fz15a"));
        // What is kept is the stream in order, and the same every time.
        let kept: Vec<String> = (0..DESIGNS + skipped)
            .map(|i| generate(16, i))
            .filter(has_defined_output)
            .map(|s| s.name())
            .collect();
        let names: Vec<String> = specs.iter().map(DesignSpec::name).collect();
        assert_eq!(names, kept);
    }
}
