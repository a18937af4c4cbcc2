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

use dhdl_apps::{Benchmark, Conv2d, Gda, Gemm};
use dhdl_core::ParamSpace;
use dhdl_dse::{
    device_count, explore, model_fingerprint, CachedModel, DseOptions, DseResult, EstimateCache,
};
use dhdl_estimate::Estimator;
use dhdl_obs::json::Json;

use crate::experiments::Harness;
use crate::report::{fixed, pct, Report, Table};

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
    /// Front points rescued by partitioning — on this front with
    /// `num_fpgas > 1` and unpartitioned-infeasible on one device — with
    /// the estimator's view of why, as `BENCH_part.json` records them.
    rescued: Vec<Json>,
    /// Largest share of a rescued point's cycles spent on the links.
    worst_link: f64,
    /// All configurations partitioning made feasible, on the front or
    /// not: valid at `num_fpgas > 1`, infeasible on one device. A
    /// nonzero count with an empty `rescued` list means the cut buys
    /// capacity but every rescued point is dominated by a smaller
    /// single-chip design (the honest outcome for workloads whose
    /// fastest tilings already fit).
    rescued_total: usize,
}

fn sweep(
    harness: &Harness,
    model: &CachedModel<'_, Estimator>,
    sc: &Scenario,
    k: u32,
) -> DseResult {
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
    explore(|p| sc.bench.build(p), &space, model, &opts)
}

fn analyze(harness: &Harness, sc: &Scenario, k: u32, dse: &DseResult) -> Run {
    let target = &harness.platform.fpga;
    let on_front: std::collections::BTreeSet<usize> = dse.pareto.iter().copied().collect();
    let mut rescued = Vec::new();
    let (mut rescued_total, mut worst_link) = (0usize, 0.0f64);
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
        worst_link = worst_link.max(pe.link_cycles / pe.estimate.cycles);
        rescued.push(Json::obj([
            ("params", Json::Str(p.params.to_string())),
            ("devices", Json::Num(f64::from(devices))),
            ("devices_used", Json::Num(f64::from(pe.devices_used))),
            ("cycles", fixed(pe.estimate.cycles, 0)),
            ("link_cycles", fixed(pe.link_cycles, 0)),
            // Worst device after the cut, and the one device that failed.
            (
                "per_device_util",
                util_json(pe.estimate.area.utilization(target)),
            ),
            (
                "single_device_util",
                util_json(whole.area.utilization(target)),
            ),
        ]));
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
        worst_link,
        rescued_total,
    }
}

fn util_json((alm, dsp, bram): (f64, f64, f64)) -> Json {
    Json::obj([
        ("alm", fixed(alm, 4)),
        ("dsp", fixed(dsp, 4)),
        ("bram", fixed(bram, 4)),
    ])
}

fn run_json(r: &Run) -> Json {
    let best = r.best.as_ref().map_or(Json::Null, |(p, c)| {
        Json::obj([("params", Json::Str(p.clone())), ("cycles", fixed(*c, 0))])
    });
    Json::obj([
        ("k", Json::Num(f64::from(r.k))),
        ("evaluated", Json::Num(r.evaluated as f64)),
        ("valid", Json::Num(r.valid as f64)),
        ("infeasible", Json::Num(r.infeasible as f64)),
        ("front_size", Json::Num(r.front_size as f64)),
        ("best", best),
        ("rescued_total", Json::Num(r.rescued_total as f64)),
        ("rescued", Json::Arr(r.rescued.clone())),
    ])
}

fn json(seed: u64, records: &[(String, String, u128, Vec<Run>)]) -> Json {
    let scenarios = records.iter().map(|(name, dataset, space_size, runs)| {
        Json::obj([
            ("name", Json::Str(name.clone())),
            ("dataset", Json::Str(dataset.clone())),
            ("space_size", Json::Num(*space_size as f64)),
            ("runs", Json::Arr(runs.iter().map(run_json).collect())),
        ])
    });
    let total: usize = records
        .iter()
        .flat_map(|(_, _, _, runs)| runs.iter())
        .map(|r| r.rescued.len())
        .sum();
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("scenarios", Json::Arr(scenarios.collect())),
        ("total_rescued", Json::Num(total as f64)),
    ])
}

/// Sweep each of `scenarios` at K=1, 2 and 4 with the harness's budget
/// (the whole space), seed and thread count.
pub fn partbench(harness: &Harness, scenarios: &[Scenario]) -> Report {
    // The K=2 space holds the K=1 designs again, and the K=4 space the
    // K=2 ones: one cache lets each sweep estimate only its new device
    // count, which on gda's whole space is a third of the partitioning
    // work. A hit is bit-identical to a recompute.
    let cache = EstimateCache::new(model_fingerprint(&harness.estimator));
    let model = CachedModel::new(&harness.estimator, &cache);
    let mut r = Report::default();
    let mut records = Vec::new();
    for sc in scenarios {
        r.say(format_args!(
            "=== {} [{}] ===",
            sc.bench.name(),
            sc.bench.dataset_desc()
        ));
        let mut runs = Vec::new();
        let mut space_size = 0u128;
        for k in std::iter::once(1).chain(DEVICE_SWEEPS) {
            eprintln!("sweeping {} at K={k}...", sc.bench.name());
            let dse = sweep(harness, &model, sc, k);
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
                    pct(r.worst_link)
                },
            ]);
        }
    }
    r.say("\nMulti-FPGA partitioning: feasibility fronts\n");
    r.say(t.render());
    r.wrote(
        "BENCH_part.json",
        json(harness.dse.seed, &records).render() + "\n",
    );

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
