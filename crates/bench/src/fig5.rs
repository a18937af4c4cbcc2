//! Figure 5: design-space exploration scatter plots.
//!
//! For every benchmark, estimates every point of the legal design space
//! and emits the three panels of the paper's Figure 5 row (ALM, DSP and
//! BRAM utilization vs. log-cycles) as CSV plus an ASCII render of the
//! ALM panel, with Pareto-optimal designs highlighted. Ends with the
//! boundedness analysis of §V-C1 (which resource limits each benchmark's
//! Pareto front).

use std::collections::BTreeSet;

use dhdl_apps::Benchmark;
use dhdl_dse::{frontier_along, ResourceAxis};

use crate::experiments::Harness;
use crate::report::{ascii_scatter, pct, Report, Table};

/// Harness seed of the Figure 5 run.
pub const SEED: u64 = 0xF165;

/// What §V-C1 says limits each benchmark.
const PAPER_FINDINGS: &[(&str, &str)] = &[
    (
        "dotproduct",
        "memory-bound; MetaPipe cheaper than Sequential",
    ),
    (
        "outerprod",
        "BRAM + memory bound; no MetaPipe on loads/stores",
    ),
    ("gemm", "Pareto designs occupy almost all BRAM"),
    ("tpchq6", "memory-intensive; plateau with tile size"),
    ("blackscholes", "ALM bound (par 16 would be memory bound)"),
    ("gda", "compute bound; BRAM critical via banking"),
    ("kmeans", "ALM bound; BRAM banking under-utilization"),
];

/// Explore each of `benches` on `harness` and analyze its front.
pub fn fig5(harness: &Harness, benches: &[Box<dyn Benchmark>]) -> Report {
    let target = &harness.platform.fpga;
    let mut summary = Table::new(&[
        "Benchmark",
        "space size",
        "evaluated",
        "valid",
        "pareto",
        "discards b/m/e",
        "binding resource on front",
        "best-design class",
        "paper's finding",
    ]);
    let mut r = Report::default();
    for bench in benches {
        eprintln!(
            "exploring {} ({} points)...",
            bench.name(),
            bench.param_space().size()
        );
        let dse = harness.explore(bench.as_ref());
        // CSV: one row per point with all three panels' coordinates, the
        // (cycles, ALM) front highlighted across panels as in the paper,
        // plus the per-axis frontiers.
        let mut csv = Table::new(&[
            "alm_frac",
            "dsp_frac",
            "bram_frac",
            "cycles",
            "valid",
            "pareto",
            "pareto_dsp",
            "pareto_bram",
        ]);
        let pareto: BTreeSet<usize> = dse.pareto.iter().copied().collect();
        let dsp_front: BTreeSet<usize> = frontier_along(&dse, ResourceAxis::Dsps)
            .into_iter()
            .collect();
        let bram_front: BTreeSet<usize> = frontier_along(&dse, ResourceAxis::Brams)
            .into_iter()
            .collect();
        let flag = |on: bool| u8::from(on).to_string();
        let mut scatter = Vec::new();
        for (i, p) in dse.points.iter().enumerate() {
            let (a, d, b) = p.area.utilization(target);
            let class = if pareto.contains(&i) {
                2
            } else {
                u8::from(p.valid)
            };
            csv.row(&[
                format!("{a:.4}"),
                format!("{d:.4}"),
                format!("{b:.4}"),
                format!("{:.0}", p.cycles),
                flag(p.valid),
                flag(pareto.contains(&i)),
                flag(dsp_front.contains(&i)),
                flag(bram_front.contains(&i)),
            ]);
            scatter.push((a, p.cycles, class));
        }
        let path = r.file(&format!("fig5_{}.csv", bench.name()), csv.to_csv());
        r.say(format_args!(
            "\n=== {} ({} pts, wrote {}) ===",
            bench.name(),
            dse.points.len(),
            path.display()
        ));
        // Per-category outcome accounting: point loss is never silent.
        r.say(format_args!("sweep outcomes: {}", dse.counts.summary()));
        r.say(format_args!("sweep throughput: {}", dse.stats.summary()));
        r.say(ascii_scatter(&scatter, 64, 16));

        // Boundedness: which resource is closest to its capacity across
        // the Pareto front.
        let mut maxu = [0.0f64; 3];
        for &i in &dse.pareto {
            let (a, d, b) = dse.points[i].area.utilization(target);
            maxu[0] = maxu[0].max(a);
            maxu[1] = maxu[1].max(d);
            maxu[2] = maxu[2].max(b);
        }
        let names = ["ALM", "DSP", "BRAM"];
        let (bi, bu) = maxu
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("three resources");
        let valid = dse.points.iter().filter(|p| p.valid).count();
        let finding = PAPER_FINDINGS
            .iter()
            .find(|f| f.0 == bench.name())
            .map_or("", |f| f.1);
        // Classify the fastest valid design with the bottleneck analyzer.
        let class = dse
            .best()
            .map(|best| {
                harness
                    .evaluate(bench.as_ref(), &best.params)
                    .class
                    .to_string()
            })
            .unwrap_or_default();
        summary.row(&[
            bench.name().to_string(),
            dse.space_size.to_string(),
            dse.points.len().to_string(),
            valid.to_string(),
            dse.pareto.len().to_string(),
            format!(
                "{}/{}/{}",
                dse.counts.build_failed, dse.counts.mem_cap, dse.counts.eval_failed
            ),
            format!("{} ({})", names[bi], pct(*bu)),
            class,
            finding.to_string(),
        ]);
    }
    r.say("\nFigure 5 summary: boundedness of the Pareto front per benchmark\n");
    r.say(summary.render());
    r.wrote("fig5_summary.csv", summary.to_csv());
    r
}
