//! `partbench` — fronts that need more than one chip.
//!
//! The paper's DSE is bounded by what fits on one Stratix V: tilings
//! whose working set exceeds single-chip BRAM are estimated, marked
//! infeasible, and never reach a Pareto front. This experiment sweeps
//! over-capacity gemm/gda/conv2d tilings three times — single-chip
//! (K=1), and with the multi-FPGA partitioning axis opened to K=2 and
//! K=4 — and reports the *rescued* configurations: points on a K>1
//! Pareto front whose construction parameters do not fit one device
//! unpartitioned.
//!
//! Everything written to `results/BENCH_part.json` is a deterministic
//! modeled quantity: the file is byte-identical across reruns and
//! across `DHDL_DSE_THREADS` settings.
//!
//! The gate fails unless at least one configuration is rescued at K=2
//! *and* at K=4 — the acceptance gate for the partitioning axis.

use std::fmt::Write as _;

use dhdl_apps::{Benchmark, Conv2d, Gda, Gemm};
use dhdl_core::ParamSpace;
use dhdl_dse::{device_count, explore, DseOptions, DseResult};

use crate::experiments::Harness;
use crate::report::{pct, Report, Table};

/// Harness seed — shared with the part-smoke CI job.
pub const SEED: u64 = 0x9A27;

/// Device counts swept after the single-chip baseline.
const DEVICE_SWEEPS: [u32; 2] = [2, 4];

/// One benchmark instance sized past single-chip capacity, with a
/// tiling space that reaches the over-capacity corner (the stock
/// `param_space` caps tiles well inside one device, so the interesting
/// region is opened explicitly here).
pub struct Scenario {
    /// The oversized benchmark instance.
    pub bench: Box<dyn Benchmark>,
    /// Its opened-up parameter space.
    pub space: ParamSpace,
}

/// The three over-capacity scenarios of the full run.
pub fn scenarios() -> Vec<Scenario> {
    let mut out = Vec::new();

    // 1024^3 gemm: three 512^2 f32 tiles sit exactly at the 8 Mbit
    // per-buffer cap and together overflow one Stratix V.
    let gemm = Gemm::new(1024, 1024, 1024);
    let mut s = ParamSpace::new();
    s.tile("tm", gemm.m, 128, 512);
    s.tile("tn", gemm.n, 128, 512);
    s.tile("tk", gemm.k, 128, 512);
    s.par("p", 48, 48);
    s.toggle("mp1");
    s.toggle("mp2");
    out.push(Scenario {
        bench: Box::new(gemm),
        space: s,
    });

    // GDA at D=256: the sigma accumulator is D^2 and the row tile is
    // rts x D, so large `rts` blows the single-chip BRAM budget.
    let gda = Gda::new(16_384, 256);
    let mut s = ParamSpace::new();
    s.tile("rts", gda.r, 256, 1024);
    s.par("p1", gda.d, 16);
    s.par("p2", gda.d, 16);
    s.par("m2p", 4, 4);
    s.par("m1p", 4, 4);
    s.toggle("m1");
    s.toggle("m2");
    out.push(Scenario {
        bench: Box::new(gda),
        space: s,
    });

    // A 514x514 image with 64 output channels: the channel-parallel
    // controller replicates the window pipe up to 64 ways, and the
    // banked cout x th x wout accumulator overflows one device at high
    // `pc` — the replica cut splits the channel lanes across boards.
    let conv = Conv2d::new(514, 64);
    let mut s = ParamSpace::new();
    s.tile("th", conv.out_size(), 2, 4);
    s.par("pc", conv.cout, 64);
    s.par("pj", conv.out_size(), 16);
    s.toggle("mp");
    s.toggle("mpc");
    out.push(Scenario {
        bench: Box::new(conv),
        space: s,
    });

    out
}

/// One sweep's outcome reduced to deterministic values.
struct Run {
    k: u32,
    evaluated: usize,
    valid: usize,
    infeasible: usize,
    front_size: usize,
    /// Best (min-cycles) valid point, if any: `(params, cycles)`.
    best: Option<(String, f64)>,
    /// Front points rescued by partitioning: on this front with
    /// `num_fpgas > 1` and unpartitioned-infeasible on one device.
    rescued: Vec<Rescue>,
    /// All configurations partitioning made feasible, on the front or
    /// not: valid at `num_fpgas > 1`, infeasible on one device. A
    /// nonzero count with an empty `rescued` list means the cut buys
    /// capacity but every rescued point is dominated by a smaller
    /// single-chip design (the honest outcome for workloads whose
    /// fastest tilings already fit).
    rescued_total: usize,
}

/// A configuration partitioning made feasible, with the estimator's
/// view of why.
struct Rescue {
    params: String,
    devices: u32,
    devices_used: u32,
    cycles: f64,
    link_cycles: f64,
    /// Worst per-device utilization after the cut (ALM, DSP, BRAM).
    part_util: (f64, f64, f64),
    /// Unpartitioned single-device utilization (the infeasible one).
    whole_util: (f64, f64, f64),
}

fn sweep(harness: &Harness, sc: &Scenario, k: u32) -> DseResult {
    let mut space = sc.space.clone();
    if k > 1 {
        space.devices(u64::from(k));
    }
    let opts = DseOptions {
        max_points: harness.dse.max_points,
        seed: harness.dse.seed,
        threads: harness.dse.threads,
        ..DseOptions::default()
    };
    explore(|p| sc.bench.build(p), &space, &harness.estimator, &opts)
}

fn analyze(harness: &Harness, sc: &Scenario, k: u32, dse: &DseResult) -> Run {
    let target = &harness.platform.fpga;
    let on_front: std::collections::BTreeSet<usize> = dse.pareto.iter().copied().collect();
    let mut rescued = Vec::new();
    let mut rescued_total = 0usize;
    for (i, p) in dse.points.iter().enumerate() {
        let devices = device_count(&p.params);
        if !p.valid || devices <= 1 {
            continue;
        }
        // Re-ask the estimator about the same construction parameters
        // on one device; metaprograms ignore `num_fpgas`, so this is
        // exactly the K=1 view of the point.
        let design = match sc.bench.build(&p.params) {
            Ok(d) => d,
            Err(_) => continue,
        };
        let whole = harness.estimator.estimate(&design);
        if whole.area.fits(target) {
            continue; // feasible on one chip; partitioning was optional
        }
        rescued_total += 1;
        if !on_front.contains(&i) {
            continue;
        }
        let pe = harness.estimator.estimate_partitioned(&design, devices);
        rescued.push(Rescue {
            params: p.params.to_string(),
            devices,
            devices_used: pe.devices_used,
            cycles: pe.estimate.cycles,
            link_cycles: pe.link_cycles,
            part_util: pe.estimate.area.utilization(target),
            whole_util: whole.area.utilization(target),
        });
    }
    let valid = dse.points.iter().filter(|p| p.valid).count();
    let best = dse.best().map(|p| (p.params.to_string(), p.cycles));
    Run {
        k,
        evaluated: dse.counts.evaluated,
        valid,
        infeasible: dse.points.len() - valid,
        front_size: dse.pareto.len(),
        best,
        rescued,
        rescued_total,
    }
}

fn util_json(u: (f64, f64, f64)) -> String {
    format!(
        "{{\"alm\": {:.4}, \"dsp\": {:.4}, \"bram\": {:.4}}}",
        u.0, u.1, u.2
    )
}

fn json(seed: u64, points: usize, records: &[(String, String, u128, Vec<Run>)]) -> String {
    let mut json = String::new();
    let _ = writeln!(json, "{{\n  \"seed\": {seed},\n  \"points\": {points},");
    json.push_str("  \"scenarios\": [\n");
    for (i, (name, dataset, space_size, runs)) in records.iter().enumerate() {
        let _ = writeln!(
            json,
            "    {{\"name\": \"{name}\", \"dataset\": \"{dataset}\", \"space_size\": {space_size},"
        );
        json.push_str("     \"runs\": [\n");
        for (j, r) in runs.iter().enumerate() {
            let best = r.best.as_ref().map_or("null".to_string(), |(p, c)| {
                format!("{{\"params\": \"{p}\", \"cycles\": {c:.0}}}")
            });
            let _ = write!(
                json,
                "       {{\"k\": {}, \"evaluated\": {}, \"valid\": {}, \"infeasible\": {}, \
                 \"front_size\": {}, \"best\": {best}, \"rescued_total\": {}, \"rescued\": [",
                r.k, r.evaluated, r.valid, r.infeasible, r.front_size, r.rescued_total
            );
            for (m, resc) in r.rescued.iter().enumerate() {
                let _ = write!(
                    json,
                    "{}{{\"params\": \"{}\", \"devices\": {}, \"devices_used\": {}, \
                     \"cycles\": {:.0}, \"link_cycles\": {:.0}, \
                     \"per_device_util\": {}, \"single_device_util\": {}}}",
                    if m > 0 { ", " } else { "" },
                    resc.params,
                    resc.devices,
                    resc.devices_used,
                    resc.cycles,
                    resc.link_cycles,
                    util_json(resc.part_util),
                    util_json(resc.whole_util),
                );
            }
            let _ = writeln!(json, "]}}{}", if j + 1 < runs.len() { "," } else { "" });
        }
        let _ = writeln!(
            json,
            "     ]}}{}",
            if i + 1 < records.len() { "," } else { "" }
        );
    }
    let total: usize = records
        .iter()
        .flat_map(|(_, _, _, runs)| runs.iter())
        .map(|r| r.rescued.len())
        .sum();
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"total_rescued\": {total}\n}}");
    json
}

/// Sweep each of `scenarios` at K=1, 2 and 4 with the harness's budget,
/// seed and thread count.
pub fn partbench(harness: &Harness, scenarios: &[Scenario]) -> Report {
    let points = harness.dse.max_points;
    let mut r = Report::default();
    let mut records = Vec::new();
    for sc in scenarios {
        r.say(format_args!(
            "=== {} [{}] ({points} samples/sweep) ===",
            sc.bench.name(),
            sc.bench.dataset_desc()
        ));
        let mut runs = Vec::new();
        let mut space_size = 0u128;
        for k in std::iter::once(1).chain(DEVICE_SWEEPS) {
            eprintln!("sweeping {} at K={k}...", sc.bench.name());
            let dse = sweep(harness, sc, k);
            eprintln!("  {} ({})", dse.stats.summary(), dse.counts.summary());
            if k == 1 {
                space_size = dse.space_size;
            }
            let run = analyze(harness, sc, k, &dse);
            r.say(format_args!(
                "  K={k}: {} evaluated, {} valid / {} infeasible, {} on front, \
                 rescued {} on front / {} anywhere",
                run.evaluated,
                run.valid,
                run.infeasible,
                run.front_size,
                run.rescued.len(),
                run.rescued_total
            ));
            runs.push(run);
        }
        records.push((
            sc.bench.name().to_string(),
            sc.bench.dataset_desc(),
            space_size,
            runs,
        ));
    }

    let mut t = Table::new(&[
        "Scenario",
        "K",
        "valid/infeasible",
        "front",
        "rescued front/any",
        "best cycles",
        "worst link overhead",
    ]);
    for (name, _, _, runs) in &records {
        for r in runs {
            let link = r
                .rescued
                .iter()
                .map(|resc| resc.link_cycles / resc.cycles)
                .fold(0.0f64, f64::max);
            t.row(&[
                name.clone(),
                r.k.to_string(),
                format!("{}/{}", r.valid, r.infeasible),
                r.front_size.to_string(),
                format!("{}/{}", r.rescued.len(), r.rescued_total),
                r.best
                    .as_ref()
                    .map_or("-".to_string(), |(_, c)| format!("{c:.0}")),
                if r.rescued.is_empty() {
                    "-".to_string()
                } else {
                    pct(link)
                },
            ]);
        }
    }
    r.say("\nMulti-FPGA partitioning: feasibility fronts\n");
    r.say(t.render());
    r.wrote("BENCH_part.json", json(harness.dse.seed, points, &records));

    // The acceptance gate: partitioning must rescue at least one
    // over-capacity configuration at each opened device count.
    for k in DEVICE_SWEEPS {
        let rescued: usize = records
            .iter()
            .flat_map(|(_, _, _, runs)| runs.iter())
            .filter(|run| run.k == k)
            .map(|run| run.rescued.len())
            .sum();
        if rescued == 0 {
            r.failures
                .push(format!("no configuration rescued at K={k}"));
        }
    }
    r
}
