//! Search-strategy comparison: the uniform random sweep at a full point
//! budget versus the surrogate-guided strategy at a fraction of it,
//! scored by Pareto hypervolume over (ln cycles, ln ALMs) with a shared
//! reference point per benchmark. `results/BENCH_dse.json` carries the
//! hypervolume-vs-budget curves of both strategies; the acceptance gate
//! fails when the surrogate falls below the floor (≥90% of the random
//! front's hypervolume at ≤10% of its budget by default).

use std::fmt::Write as _;

use dhdl_apps::Benchmark;
use dhdl_dse::hypervolume::{hypervolume_of, reference_point};
use dhdl_dse::{DseResult, SearchStrategy, SurrogateConfig};

use crate::experiments::Harness;
use crate::report::{Report, Table};

/// Harness seed of the strategy comparison.
pub const SEED: u64 = 0xD5EB;

/// Valid evaluated points in the scoring space: (ln cycles, ln ALMs),
/// the same transform the surrogate's acquisition uses.
fn ln_points(r: &DseResult) -> Vec<(f64, f64)> {
    r.points
        .iter()
        .filter(|p| p.valid)
        .map(|p| (p.cycles.max(1e-9).ln(), p.area.alms.max(1e-9).ln()))
        .collect()
}

/// One exploration run with an explicit budget and strategy on a clone
/// of the shared harness (same calibrated model).
fn run(
    harness: &Harness,
    bench: &dyn Benchmark,
    points: usize,
    strategy: SearchStrategy,
) -> DseResult {
    let mut h = harness.clone();
    h.dse.max_points = points;
    h.dse.strategy = strategy;
    h.explore(bench)
}

/// Compare the two strategies on each of `benches`: random at the
/// harness's budget, surrogate at `fraction` of it. The gate fails on a
/// surrogate/random hypervolume ratio below `floor` and, with `rerun`,
/// on a surrogate re-run that differs.
pub fn dsebench(
    harness: &Harness,
    benches: &[Box<dyn Benchmark>],
    fraction: f64,
    floor: f64,
    rerun: bool,
) -> Report {
    let budget = harness.dse.max_points;
    let sur_budget = ((budget as f64 * fraction).round() as usize).max(1);
    // Budget ticks for the surrogate's hypervolume-vs-budget curve; the
    // random curve gets the same ticks (a prefix of its evaluation
    // order) plus coarser ones out to the full budget.
    let sur_ticks: Vec<usize> = (1..=5)
        .map(|i| (sur_budget * i).div_ceil(5))
        .filter(|&k| k > 0)
        .collect();
    let mut rnd_ticks: Vec<usize> = sur_ticks.clone();
    rnd_ticks.extend((1..=4).map(|i| budget * i / 4));
    rnd_ticks.sort_unstable();
    rnd_ticks.dedup();

    eprintln!(
        "comparing strategies: random@{budget} vs surrogate@{sur_budget} \
         ({}% of the budget), floor {floor}",
        (fraction * 100.0).round()
    );

    let surrogate = SearchStrategy::Surrogate(SurrogateConfig::default());
    let mut table = Table::new(&[
        "Benchmark",
        "hv random",
        "hv surrogate",
        "ratio",
        "surrogate front",
        "deterministic",
    ]);
    let mut rows = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut min_ratio = f64::INFINITY;

    for bench in benches {
        eprintln!("{}: random sweep ({budget} points)...", bench.name());
        let random = run(harness, bench.as_ref(), budget, SearchStrategy::Random);
        eprintln!(
            "{}: surrogate search ({sur_budget} points)...",
            bench.name()
        );
        let sur = run(harness, bench.as_ref(), sur_budget, surrogate.clone());
        let deterministic =
            !rerun || run(harness, bench.as_ref(), sur_budget, surrogate.clone()) == sur;

        // One reference point per benchmark, over everything either
        // strategy evaluated, so both hypervolumes are comparable.
        let rnd_pts = ln_points(&random);
        let sur_pts = ln_points(&sur);
        let union: Vec<(f64, f64)> = rnd_pts.iter().chain(&sur_pts).copied().collect();
        let Some(reference) = reference_point(union.iter().copied(), 0.25) else {
            eprintln!("{}: no valid points from either strategy", bench.name());
            failures.push(format!("{}: no valid points", bench.name()));
            continue;
        };
        let hv_random = hypervolume_of(&rnd_pts, reference);
        let hv_sur = hypervolume_of(&sur_pts, reference);
        let ratio = if hv_random > 0.0 {
            hv_sur / hv_random
        } else {
            1.0
        };
        min_ratio = min_ratio.min(ratio);
        if ratio < floor {
            failures.push(format!(
                "{}: surrogate hypervolume ratio {ratio:.4} below the {floor} floor",
                bench.name()
            ));
        }
        if !deterministic {
            failures.push(format!("{}: surrogate re-run differed", bench.name()));
        }

        // Curves: the random sweep evaluates in sample order, so its
        // budget-k front is the first k evaluated points; the surrogate
        // result orders points by pool index, so each tick is its own
        // (deterministic) run at that budget.
        let random_curve: Vec<(usize, f64)> = rnd_ticks
            .iter()
            .map(|&k| {
                let pts = &rnd_pts[..k.min(rnd_pts.len())];
                (k, hypervolume_of(pts, reference))
            })
            .collect();
        let surrogate_curve: Vec<(usize, f64)> = sur_ticks
            .iter()
            .map(|&k| {
                let r = run(harness, bench.as_ref(), k, surrogate.clone());
                (k, hypervolume_of(&ln_points(&r), reference))
            })
            .collect();

        table.row(&[
            bench.name().to_string(),
            format!("{hv_random:.4}"),
            format!("{hv_sur:.4}"),
            format!("{ratio:.4}"),
            format!("{} points", sur.pareto.len()),
            deterministic.to_string(),
        ]);
        rows.push((
            bench.name().to_string(),
            hv_random,
            hv_sur,
            ratio,
            deterministic,
            reference,
            random_curve,
            surrogate_curve,
        ));
    }

    let mut r = Report::default();
    r.say(table.render());

    // BENCH_dse.json: deliberately free of wall-clock fields so a re-run
    // with the same seed and knobs is byte-identical.
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"budget\": {budget},");
    let _ = writeln!(json, "  \"surrogate_budget\": {sur_budget},");
    let _ = writeln!(json, "  \"fraction\": {fraction},");
    let _ = writeln!(json, "  \"floor\": {floor},");
    let _ = writeln!(json, "  \"benchmarks\": [");
    for (i, (name, hv_r, hv_s, ratio, det, reference, rc, sc)) in rows.iter().enumerate() {
        let curve = |c: &[(usize, f64)]| {
            c.iter()
                .map(|(k, hv)| format!("[{k}, {hv:.9}]"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let _ = writeln!(json, "    {{");
        let _ = writeln!(json, "      \"name\": \"{name}\",");
        let _ = writeln!(json, "      \"hv_random\": {hv_r:.9},");
        let _ = writeln!(json, "      \"hv_surrogate\": {hv_s:.9},");
        let _ = writeln!(json, "      \"ratio\": {ratio:.9},");
        let _ = writeln!(json, "      \"deterministic\": {det},");
        let _ = writeln!(
            json,
            "      \"reference\": [{:.9}, {:.9}],",
            reference.0, reference.1
        );
        let _ = writeln!(json, "      \"random_curve\": [{}],", curve(rc));
        let _ = writeln!(json, "      \"surrogate_curve\": [{}]", curve(sc));
        let _ = writeln!(json, "    }}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    let _ = writeln!(json, "  ],");
    if min_ratio.is_finite() {
        let _ = writeln!(json, "  \"min_ratio\": {min_ratio:.9},");
    } else {
        let _ = writeln!(json, "  \"min_ratio\": null,");
    }
    let _ = writeln!(json, "  \"pass\": {}", failures.is_empty());
    json.push_str("}\n");
    r.wrote("BENCH_dse.json", json);
    if failures.is_empty() && min_ratio.is_finite() {
        r.say(format_args!(
            "surrogate holds {:.1}% of the random front's hypervolume at {}% of the budget",
            min_ratio * 100.0,
            (fraction * 100.0).round()
        ));
    }
    r.failures = failures;
    r
}
