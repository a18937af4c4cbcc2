//! `dnnbench` — the DNN workload frontier: conv2d + attention.
//!
//! For each DNN-shaped benchmark (a 3x3 line-buffer convolution and an
//! attention-shaped GEMM–softmax–GEMM pipeline) this runs the Figure-5
//! and Figure-6 pipelines side by side: sweep the whole design space,
//! emit the Pareto front, simulate the fastest design under both
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

use dhdl_apps::Benchmark;
use dhdl_cpu::XeonModel;
use dhdl_dse::DseResult;
use dhdl_obs::json::Json;

use crate::experiments::{mean_errors, Harness};
use crate::report::{fixed, pct, times, Report, Table};

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
    let mut csv = Table::new(&["params", "cycles", "alm_frac", "dsp_frac", "bram_frac"]);
    for (p, c, a, d, b) in &front {
        csv.row(&[
            p.clone(),
            format!("{c:.0}"),
            format!("{a:.4}"),
            format!("{d:.4}"),
            format!("{b:.4}"),
        ]);
    }
    let path = report.file(
        &format!("dnn_front_{}_random.csv", bench.name()),
        csv.to_csv(),
    );
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

fn json(seed: u64, records: &[BenchRecord], mean_errors: [f64; 4]) -> Json {
    let errors = |[a, d, b, r]: [f64; 4]| {
        Json::obj([
            ("alm", fixed(a, 4)),
            ("dsp", fixed(d, 4)),
            ("bram", fixed(b, 4)),
            ("runtime", fixed(r, 4)),
        ])
    };
    let benchmarks = records.iter().map(|r| {
        let s = &r.sweep;
        let front = s.front.iter().map(|(p, c, a, d, b)| {
            Json::obj([
                ("params", Json::Str(p.clone())),
                ("cycles", fixed(*c, 0)),
                ("alm", fixed(*a, 4)),
                ("dsp", fixed(*d, 4)),
                ("bram", fixed(*b, 4)),
            ])
        });
        let random = Json::obj([
            ("strategy", Json::Str("random".to_string())),
            ("evaluated", Json::Num(s.evaluated as f64)),
            ("valid", Json::Num(s.valid as f64)),
            ("best_params", Json::Str(s.best_params.clone())),
            ("best_cycles", fixed(s.best_cycles, 0)),
            ("front", Json::Arr(front.collect())),
        ]);
        let bit_identical = r
            .backends
            .as_ref()
            .map_or(Json::Null, |b| Json::Bool(b.is_ok()));
        Json::obj([
            ("name", Json::Str(r.name.clone())),
            ("space_size", Json::Num(r.space_size as f64)),
            ("strategies", Json::Arr(vec![random])),
            ("sim_cycles", fixed(r.sim_cycles, 0)),
            ("backends_bit_identical", bit_identical),
            ("fpga_ms", fixed(r.fpga_s * 1e3, 4)),
            ("cpu_model_ms", fixed(r.cpu_s * 1e3, 4)),
            ("speedup", fixed(r.speedup, 3)),
            ("bottleneck", Json::Str(r.bottleneck.clone())),
            ("model_errors", errors(r.errors)),
        ])
    });
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("benchmarks", Json::Arr(benchmarks.collect())),
        ("mean_model_errors", errors(mean_errors)),
    ])
}

/// Run the frontier over `benches` on `harness`, measuring model error
/// on up to `pareto_n` Pareto picks of each sweep.
///
/// # Panics
///
/// Panics if a benchmark has no valid design.
pub fn dnnbench(harness: &Harness, benches: &[Box<dyn Benchmark>], pareto_n: usize) -> DnnBench {
    let mut report = Report::default();
    let xeon = XeonModel::default();

    let mut records = Vec::new();
    for bench in benches {
        report.say(format_args!("=== {} ===", bench.name()));
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
        let bottleneck = harness
            .evaluate(bench.as_ref(), &best.params)
            .class
            .to_string();

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
        json(harness.dse.seed, &records, mean).render() + "\n",
    );
    DnnBench {
        mean_errors: mean,
        backends: records.into_iter().map(|r| r.backends).collect(),
        report,
    }
}
