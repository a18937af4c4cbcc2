//! `dnnbench` — the DNN workload frontier: conv2d + attention.
//!
//! For each DNN-shaped benchmark (a 3x3 line-buffer convolution and an
//! attention-shaped GEMM–softmax–GEMM pipeline) this runs the Figure-5
//! and Figure-6 pipelines side by side: sweep the design space (both
//! spaces fit inside the default budget, so the random sweep enumerates
//! them), emit the Pareto front, simulate the fastest design under both
//! simulator backends with a bit-exact cross-check, and compare modeled
//! FPGA time against the modeled Xeon CPU time. Table-III-style
//! estimator errors on Pareto picks are *reported* (these workloads sit
//! outside the calibration set by design), not gated.
//!
//! Everything written to `results/BENCH_dnn.json` is a deterministic
//! modeled quantity: the file is byte-identical across reruns and across
//! `DHDL_DSE_THREADS` settings. Its `strategies` array holds one entry,
//! the `random` sweep, so readers of the file's earlier two-entry shape
//! keep working.

use std::fmt::Write as _;

use dhdl_apps::Benchmark;
use dhdl_cpu::XeonModel;
use dhdl_dse::DseResult;

use crate::experiments::{mean_errors, Harness};
use crate::report::{pct, times, Report, Table};

/// Harness seed of the DNN frontier run.
pub const SEED: u64 = 0xD4D2;
/// Pareto picks per benchmark for the estimator-error report.
pub const PARETO_N: usize = 4;

/// The DNN frontier at some scale.
#[derive(Debug, Clone)]
pub struct DnnBench {
    /// Mean `[alm, dsp, bram, runtime]` relative model errors over the
    /// benchmarks' Pareto picks.
    pub mean_errors: [f64; 4],
    /// Interpreter vs. tape on each benchmark's best design: `None`
    /// when the tape compiler does not support it, else `Ok` or the
    /// first difference.
    pub backends: Vec<Option<Result<(), String>>>,
    /// The summary, the front CSVs and `BENCH_dnn.json`.
    pub report: Report,
}

/// A sweep's outcome, reduced to deterministic values.
struct SweepRun {
    evaluated: usize,
    valid: usize,
    /// `(params, cycles, alm_frac, dsp_frac, bram_frac)` per front point.
    front: Vec<(String, f64, f64, f64, f64)>,
    best_params: String,
    best_cycles: f64,
}

/// One benchmark's full record for the JSON artifact.
struct BenchRecord {
    name: String,
    space_size: u128,
    sweep: SweepRun,
    sim_cycles: f64,
    backends: Option<Result<(), String>>,
    fpga_s: f64,
    cpu_s: f64,
    speedup: f64,
    bottleneck: String,
    /// Average `(alm, dsp, bram, runtime)` relative model errors.
    errors: [f64; 4],
}

fn sweep_run(
    harness: &Harness,
    bench: &dyn Benchmark,
    dse: &DseResult,
    report: &mut Report,
) -> SweepRun {
    let target = &harness.platform.fpga;
    let mut front: Vec<(String, f64, f64, f64, f64)> = dse
        .pareto
        .iter()
        .map(|&i| {
            let p = &dse.points[i];
            let (a, d, b) = p.area.utilization(target);
            (p.params.to_string(), p.cycles, a, d, b)
        })
        .collect();
    front.sort_by(|x, y| x.1.total_cmp(&y.1).then_with(|| x.0.cmp(&y.0)));
    let best = dse
        .best()
        .unwrap_or_else(|| panic!("{}: no valid design found", bench.name()));
    let mut csv = String::from("params,cycles,alm_frac,dsp_frac,bram_frac\n");
    for (p, c, a, d, b) in &front {
        let _ = writeln!(csv, "\"{p}\",{c:.0},{a:.4},{d:.4},{b:.4}");
    }
    let path = report.file(&format!("dnn_front_{}_random.csv", bench.name()), csv);
    report.say(format_args!(
        "  random: {} evaluated, {} on front, best {:.0} cycles (wrote {})",
        dse.counts.evaluated,
        front.len(),
        best.cycles,
        path.display()
    ));
    SweepRun {
        evaluated: dse.counts.evaluated,
        valid: dse.points.iter().filter(|p| p.valid).count(),
        front,
        best_params: best.params.to_string(),
        best_cycles: best.cycles,
    }
}

fn json(seed: u64, points: usize, records: &[BenchRecord], mean_errors: [f64; 4]) -> String {
    let errors_json = |[a, d, b, r]: [f64; 4]| {
        format!("{{\"alm\": {a:.4}, \"dsp\": {d:.4}, \"bram\": {b:.4}, \"runtime\": {r:.4}}}")
    };
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"seed\": {seed},\n  \"points\": {points},");
    json.push_str("  \"benchmarks\": [\n");
    for (i, r) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{}\", \"space_size\": {},",
            r.name, r.space_size
        );
        let s = &r.sweep;
        let _ = write!(
            json,
            "     \"strategies\": [\n       {{\"strategy\": \"random\", \"evaluated\": {}, \
             \"valid\": {}, \"best_params\": \"{}\", \"best_cycles\": {:.0}, \"front\": [",
            s.evaluated, s.valid, s.best_params, s.best_cycles
        );
        for (k, (p, c, a, d, b)) in s.front.iter().enumerate() {
            let _ = write!(
                json,
                "{}{{\"params\": \"{p}\", \"cycles\": {c:.0}, \"alm\": {a:.4}, \
                 \"dsp\": {d:.4}, \"bram\": {b:.4}}}",
                if k > 0 { ", " } else { "" }
            );
        }
        json.push_str("]}\n     ],\n");
        let bitid = r
            .backends
            .as_ref()
            .map_or("null".to_string(), |b| b.is_ok().to_string());
        let _ = writeln!(
            json,
            "     \"sim_cycles\": {:.0}, \"backends_bit_identical\": {bitid},",
            r.sim_cycles
        );
        let _ = writeln!(
            json,
            "     \"fpga_ms\": {:.4}, \"cpu_model_ms\": {:.4}, \"speedup\": {:.3},",
            r.fpga_s * 1e3,
            r.cpu_s * 1e3,
            r.speedup
        );
        let _ = writeln!(json, "     \"bottleneck\": \"{}\",", r.bottleneck);
        let _ = writeln!(
            json,
            "     \"model_errors\": {}}}{}",
            errors_json(r.errors),
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"mean_model_errors\": {}\n}}",
        errors_json(mean_errors)
    );
    json
}

/// Run the frontier over `benches` on `harness`, measuring model error
/// on up to `pareto_n` Pareto picks of each random sweep.
///
/// # Panics
///
/// Panics if a benchmark has no valid design at this budget.
pub fn dnnbench(harness: &Harness, benches: &[Box<dyn Benchmark>], pareto_n: usize) -> DnnBench {
    let points = harness.dse.max_points;
    let mut report = Report::default();
    let xeon = XeonModel::default();

    let mut records = Vec::new();
    for bench in benches {
        report.say(format_args!(
            "=== {} ({points} samples/strategy) ===",
            bench.name()
        ));
        eprintln!("exploring {}...", bench.name());
        let dse = harness.explore(bench.as_ref());
        eprintln!("  {}", dse.stats.summary());
        let sweep = sweep_run(harness, bench.as_ref(), &dse, &mut report);

        // Fastest random-front design: simulate under both backends and
        // compare against the modeled CPU time (fig6 pipeline).
        let best = dse
            .best()
            .unwrap_or_else(|| panic!("{}: no valid design found", bench.name()));
        let design = bench.build(&best.params).expect("best point builds");
        eprintln!("simulating best design ({})...", best.params);
        let (sim, backends) = harness.cross_simulate(bench.as_ref(), &design);
        if let Some(Err(diff)) = &backends {
            report.say(format_args!("  BACKEND MISMATCH: {diff}"));
        }
        let fpga_s = sim.seconds(&harness.platform);
        let cpu_s = xeon.seconds(&bench.work());
        let est = dhdl_estimate::Estimate {
            cycles: best.cycles,
            area: best.area,
        };
        let bottleneck = dhdl_estimate::classify(&design, &est, &harness.platform).to_string();

        // Table-III-style model errors on a spread of Pareto picks.
        let errors = mean_errors(&harness.evaluate_front(bench.as_ref(), &dse, pareto_n));

        records.push(BenchRecord {
            name: bench.name().to_string(),
            space_size: dse.space_size,
            sweep,
            sim_cycles: sim.cycles,
            backends,
            fpga_s,
            cpu_s,
            speedup: cpu_s / fpga_s,
            bottleneck,
            errors,
        });
    }

    let mut t = Table::new(&[
        "Benchmark",
        "space",
        "best params (random)",
        "sim cycles",
        "FPGA (ms)",
        "CPU model (ms)",
        "Speedup",
        "bit-identical",
        "bottleneck",
        "err ALM/DSP/BRAM/runtime",
    ]);
    let mut mean = [0.0f64; 4];
    for r in &records {
        for (m, e) in mean.iter_mut().zip(r.errors) {
            *m += e / records.len() as f64;
        }
        t.row(&[
            r.name.clone(),
            r.space_size.to_string(),
            r.sweep.best_params.clone(),
            format!("{:.0}", r.sim_cycles),
            format!("{:.3}", r.fpga_s * 1e3),
            format!("{:.3}", r.cpu_s * 1e3),
            times(r.speedup),
            r.backends
                .as_ref()
                .map_or("n/a".to_string(), |b| b.is_ok().to_string()),
            r.bottleneck.clone(),
            r.errors.map(pct).join("/"),
        ]);
    }
    report.say("\nDNN workload frontier: Pareto + speedup summary\n");
    report.say(t.render());
    let [a, d, b, r] = mean.map(pct);
    report.say(format_args!(
        "mean model errors: ALM {a} / DSP {d} / BRAM {b} / runtime {r}"
    ));
    report.wrote(
        "BENCH_dnn.json",
        json(harness.dse.seed, points, &records, mean),
    );
    DnnBench {
        mean_errors: mean,
        backends: records.into_iter().map(|r| r.backends).collect(),
        report,
    }
}
