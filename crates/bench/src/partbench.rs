//! `partbench` — fronts that need more than one chip.
//!
//! The paper's DSE is bounded by what fits on one Stratix V: tilings
//! whose working set exceeds single-chip BRAM are estimated, marked
//! infeasible, and never reach a Pareto front. This experiment sweeps
//! over-capacity gemm/gda/conv2d tilings once each, with the multi-FPGA
//! partitioning axis opened to K=4, and reads three fronts from that
//! sweep — single-chip (K=1), K=2 and K=4 — reporting the *rescued*
//! configurations: points on a K>1 Pareto front whose construction
//! parameters do not fit one device unpartitioned.
//!
//! Everything written to `results/BENCH_part.json` is a deterministic
//! modeled quantity: the file is byte-identical across reruns and
//! across `DHDL_DSE_THREADS` settings.
//!
//! The gate fails unless at least one configuration is rescued at K=2
//! *and* at K=4 — the acceptance gate for the partitioning axis.

use dhdl_apps::{Benchmark, Conv2d, Gda, Gemm};
use dhdl_core::{ParamSpace, ParamValues, NUM_FPGAS};
use dhdl_dse::{device_count, explore, pareto_front, DesignPoint, DseResult, LegalSpace};
use dhdl_obs::json::Json;

use crate::experiments::Harness;
use crate::report::{fixed, pct, Report, Table};

/// Harness seed — shared with the part-smoke CI job.
pub const SEED: u64 = 0x9A27;

/// Device counts read after the single-chip baseline; the last is the
/// width of the one sweep.
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

/// One device count's view of a sweep reduced to deterministic values.
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

/// A wider sweep's points with `num_fpgas <= k`, in sweep order, and
/// their front: what a sweep of the space opened to `k` devices gives,
/// point for point (a point's estimate reads only its assignment). At
/// K=1 they drop `num_fpgas`, which a single-chip space never carries.
struct View {
    points: Vec<DesignPoint>,
    front: Vec<usize>,
}

impl View {
    fn of(sweep: &DseResult, k: u32) -> View {
        let points: Vec<DesignPoint> = (sweep.points.iter())
            .filter(|p| device_count(&p.params) <= k)
            .map(|p| DesignPoint {
                params: if k > 1 {
                    p.params.clone()
                } else {
                    (p.params.iter())
                        .filter(|&(name, _)| name != NUM_FPGAS)
                        .fold(ParamValues::new(), |q, (name, v)| q.with(name, v))
                },
                ..p.clone()
            })
            .collect();
        let objectives: Vec<_> = (points.iter())
            .map(|p| (p.cycles, p.area.alms, p.valid))
            .collect();
        View {
            front: pareto_front(&objectives),
            points,
        }
    }
}

/// Reduce the view of a sweep at `k` devices.
fn analyze(harness: &Harness, sc: &Scenario, k: u32, view: &View) -> Run {
    let target = &harness.platform.fpga;
    let mut rescued = Vec::new();
    let (mut rescued_total, mut worst_link) = (0usize, 0.0f64);
    // The latest one-device point: an assignment's precedes its K > 1
    // points in sweep order, unless the sweep discarded it.
    let mut single: Option<&DesignPoint> = None;
    for (i, p) in view.points.iter().enumerate() {
        let devices = device_count(&p.params);
        if devices == 1 {
            single = Some(p);
        }
        if !p.valid || devices <= 1 {
            continue;
        }
        let one_device = p.params.clone().with(NUM_FPGAS, 1);
        let Some(whole) = single.filter(|w| w.params == one_device) else {
            continue;
        };
        if whole.valid {
            continue; // feasible on one chip; partitioning was optional
        }
        rescued_total += 1;
        if !view.front.contains(&i) {
            continue;
        }
        // Only a rescued front point is built again, for its devices.
        let design = sc.bench.build(&p.params).expect("a swept point builds");
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
    let valid = view.points.iter().filter(|p| p.valid).count();
    // The front's first point is the fastest valid one, the smaller area
    // and then the earlier point breaking ties: `DseResult::best`'s pick.
    let best = (view.front.first()).map(|&i| {
        let p = &view.points[i];
        (p.params.to_string(), p.cycles)
    });
    Run {
        k,
        evaluated: view.points.len(),
        valid,
        infeasible: view.points.len() - valid,
        front_size: view.front.len(),
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

/// Sweep each of `scenarios` once, opened to K=4, with the harness's
/// budget (the whole space), seed and thread count, and read its K=1,
/// K=2 and K=4 fronts from that sweep.
pub fn partbench(harness: &Harness, scenarios: &[Scenario]) -> Report {
    let widest = DEVICE_SWEEPS[DEVICE_SWEEPS.len() - 1];
    let mut r = Report::default();
    let mut records = Vec::new();
    for sc in scenarios {
        r.say(format_args!(
            "=== {} [{}] ===",
            sc.bench.name(),
            sc.bench.dataset_desc()
        ));
        eprintln!("sweeping {} up to K={widest}...", sc.bench.name());
        let mut space = sc.space.clone();
        space.devices(u64::from(widest));
        let (est, opts) = (&harness.estimator, &harness.dse);
        let dse = explore(|p| sc.bench.build(p), &space, est, opts);
        eprintln!("  {} ({})", dse.stats.summary(), dse.counts.summary());
        let mut runs = Vec::new();
        for k in std::iter::once(1).chain(DEVICE_SWEEPS) {
            let run = analyze(harness, sc, k, &View::of(&dse, k));
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
            LegalSpace::new(&sc.space).size(),
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

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_dse::DseOptions;
    use dhdl_estimate::{Estimate, Estimator};
    use dhdl_target::Platform;

    /// Every device count's view of one sweep opened to K=4 is the sweep
    /// of that count's own space: the same points in the same order, bit
    /// for bit, the same front and the same best point.
    #[test]
    fn views_of_the_widest_sweep_are_the_narrower_sweeps() {
        let estimator = Estimator::calibrate_with(&Platform::maia(), 30, 5).0;
        let gda = Gda::new(16_384, 256);
        let mut base = ParamSpace::new();
        base.tile("rts", gda.r, 256, 512);
        base.par("p1", gda.d, 2);
        base.par("p2", gda.d, 1);
        base.par("m2p", 4, 1);
        base.par("m1p", 4, 1);
        base.toggle("m1");
        base.toggle("m2");
        let build = |p: &ParamValues| gda.build(p);
        let space = |k: u32| {
            let mut s = base.clone();
            if k > 1 {
                s.devices(u64::from(k));
            }
            s
        };
        let bits = |p: &DesignPoint| {
            Estimate {
                cycles: p.cycles,
                area: p.area,
            }
            .to_bits()
        };
        for threads in [1, 2] {
            let opts = DseOptions {
                max_points: usize::MAX,
                threads,
                ..DseOptions::default()
            };
            let sweep = explore(build, &space(4), &estimator, &opts);
            assert!(sweep
                .points
                .iter()
                .any(|p| p.valid && device_count(&p.params) > 1));
            for k in [1, 2, 4] {
                let own = explore(build, &space(k), &estimator, &opts);
                let view = View::of(&sweep, k);
                assert_eq!(view.points.len(), own.counts.evaluated, "K={k}");
                assert_eq!(view.points.len(), own.points.len(), "K={k}");
                for (v, o) in view.points.iter().zip(&own.points) {
                    assert_eq!(v.params, o.params, "K={k}");
                    assert_eq!(v.valid, o.valid, "K={k} {}", o.params);
                    assert_eq!(bits(v), bits(o), "K={k} {}", o.params);
                }
                assert_eq!(view.front, own.pareto, "K={k}");
                let best = view.front.first().map(|&i| &view.points[i]);
                assert_eq!(best, own.best(), "K={k}");
            }
        }
    }
}
