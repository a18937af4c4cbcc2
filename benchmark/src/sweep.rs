//! `sweep_cold` and `sweep_warm`: `dhdl_dse::explore` over the nine
//! applications, without and with the estimate cache.
//!
//! `sweep_cold` hands the runner a bare `Estimator`: build → elaborate →
//! latency → area do all the work and the cache does none. `sweep_warm`
//! wraps the same estimator in `CachedModel`; a round is a fresh cache,
//! one fill pass (all writes, and it pays `structural_hash`), then
//! [`WARM_PASSES`] warm passes (all parameter-memo reads that skip build
//! and estimate). At today's speeds the fill pass and the warm passes
//! take about the same wall time, so the round's rate moves when either
//! side of the cache gets slower.

use std::time::Instant;

use dhdl_apps::Benchmark;
use dhdl_core::{structural_hash, Fnv64, ParamValues};
use dhdl_dse::{
    explore, model_fingerprint, params_key, pareto_front, CachedModel, CostModel, DseOptions,
    DseResult, EstimateCache, LegalSpace, SweepStats,
};
use dhdl_estimate::{estimate_cycles_net, Estimate, Estimator};
use dhdl_target::Platform;

use crate::common::{b9, bench_salt, repeat_setup, Ctx, Report, Rounds};
use crate::names::BENCHES;
use crate::stats;
use crate::sys::self_cpu_secs;
use crate::trace::{self_times, Tracer};
use crate::yard::Yardstick;

/// Legal points sampled per application and pass (12 900 over the nine).
const MAX_POINTS: usize = 3000;
/// Warm passes after the fill pass of a `sweep_warm` round.
const WARM_PASSES: usize = 10;
/// Points per application the traced replay walks.
const REPLAY_POINTS: usize = 300;

struct Setup {
    estimator: Estimator,
    benches: Vec<Box<dyn Benchmark>>,
    salts: Vec<u64>,
    calibrate_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let t = Instant::now();
    let estimator = Estimator::calibrate(&Platform::maia(), seed);
    let calibrate_ms = t.elapsed().as_secs_f64() * 1e3;
    let benches = b9();
    let salts = benches.iter().map(|b| bench_salt(b.as_ref())).collect();
    Setup {
        estimator,
        benches,
        salts,
        calibrate_ms,
    }
}

/// FNV-64 over everything a sweep returns: each point's parameters,
/// cycle and area bits and validity, then the Pareto indices.
pub fn digest(result: &DseResult) -> u64 {
    let mut h = Fnv64::new();
    for p in &result.points {
        for (name, value) in p.params.iter() {
            h.write(name.as_bytes());
            h.write_u64(value);
        }
        for v in [
            p.cycles,
            p.area.alms,
            p.area.regs,
            p.area.dsps,
            p.area.brams,
        ] {
            h.write_u64(v.to_bits());
        }
        h.write_u64(u64::from(p.valid));
    }
    for &i in &result.pareto {
        h.write_u64(i as u64);
    }
    h.finish()
}

/// What one application's sweep left behind once its points are dropped.
struct Outcome {
    digest: u64,
    stats: SweepStats,
    discarded: usize,
    eval_failed: usize,
    truncated: bool,
}

/// One pass over the nine applications.
struct Pass {
    /// Sampled points (evaluated + discarded).
    points: u64,
    wall: f64,
    cpu: f64,
    outcomes: Vec<Outcome>,
    /// The sweeps themselves, when the caller asked to keep them.
    results: Vec<DseResult>,
}

impl Pass {
    fn digests(&self) -> Vec<u64> {
        self.outcomes.iter().map(|o| o.digest).collect()
    }
}

/// How [`pass`] runs its sweeps.
#[derive(Clone, Copy)]
struct PassOpts {
    seed: u64,
    threads: usize,
    /// Key the parameter memo (`DseOptions::cache_salt`).
    salted: bool,
    /// Keep every `DseResult` (12 900 points) instead of its digest only.
    keep: bool,
}

impl PassOpts {
    /// The measured shape: the run's seed on every sweep thread, no memo
    /// key, results dropped.
    fn of(ctx: &Ctx) -> PassOpts {
        PassOpts {
            seed: ctx.seed,
            threads: ctx.threads(),
            salted: false,
            keep: false,
        }
    }
}

/// Explore every application once. Only the `explore` calls are timed.
fn pass<M: CostModel>(s: &Setup, model: &M, o: PassOpts) -> Pass {
    let mut out = Pass {
        points: 0,
        wall: 0.0,
        cpu: 0.0,
        outcomes: Vec::with_capacity(s.benches.len()),
        results: Vec::new(),
    };
    for (bench, &salt) in s.benches.iter().zip(&s.salts) {
        let opts = DseOptions {
            max_points: MAX_POINTS,
            seed: o.seed,
            threads: o.threads,
            cache_salt: o.salted.then_some(salt),
            ..DseOptions::default()
        };
        let space = bench.param_space();
        let build = |p: &ParamValues| bench.build(p);
        let cpu0 = self_cpu_secs();
        let t = Instant::now();
        let result = explore(build, &space, model, &opts);
        out.wall += t.elapsed().as_secs_f64();
        out.cpu += self_cpu_secs() - cpu0;
        out.points += (result.points.len() + result.discarded) as u64;
        out.outcomes.push(Outcome {
            digest: digest(&result),
            stats: result.stats,
            discarded: result.discarded,
            eval_failed: result.counts.eval_failed,
            truncated: result.truncated,
        });
        if o.keep {
            out.results.push(result);
        }
    }
    out
}

/// Count what went wrong inside a pass: points lost to panics or
/// non-finite estimates, truncated sweeps, and results that differ from
/// the reference digests.
fn check_pass(report: &mut Report, what: &str, p: &Pass, reference: &[u64]) {
    report.attempted += p.points;
    for (o, name) in p.outcomes.iter().zip(BENCHES) {
        for _ in 0..o.eval_failed {
            report.fail(format!("{what}: a {name} point panicked or was non-finite"));
        }
        report.check(!o.truncated, || format!("{what}: {name} sweep truncated"));
    }
    report.check(p.digests() == reference, || {
        format!("{what}: digest differs from the cold reference")
    });
}

/// The cold reference: a bare-estimator pass on `threads` threads whose
/// digests must equal a single-threaded pass.
fn reference(report: &mut Report, s: &Setup, ctx: &Ctx) -> Vec<u64> {
    let o = PassOpts::of(ctx);
    let wide = pass(s, &s.estimator, o).digests();
    let narrow = pass(s, &s.estimator, PassOpts { threads: 1, ..o }).digests();
    report.check(wide == narrow, || {
        format!("digest differs between 1 and {} threads", ctx.threads())
    });
    wide
}

pub fn run_cold(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let yard = Yardstick::new();
    let (s, setup_s) = repeat_setup(&yard, || setup(ctx.seed));
    report.set("setup_s", setup_s);
    let reference = reference(&mut report, &s, ctx);

    let mut rounds = Rounds::default();
    let end = ctx.until(Instant::now(), 1.0);
    while Instant::now() < end || rounds.len() < 5 {
        let p = rounds.measure(&yard, ctx.threads(), || {
            let p = pass(&s, &s.estimator, PassOpts::of(ctx));
            (p.points, p.wall, p.cpu, p)
        });
        check_pass(&mut report, "sweep_cold", &p, &reference);
    }
    rounds.finish(&mut report, &yard);
    report
}

/// One `sweep_warm` round: a fresh cache, a fill pass, the warm passes.
struct WarmRound {
    fill: Pass,
    warm: Vec<Pass>,
}

fn warm_round(s: &Setup, ctx: &Ctx) -> WarmRound {
    let cache = EstimateCache::new(model_fingerprint(&s.estimator));
    let model = CachedModel::new(&s.estimator, &cache);
    let o = PassOpts {
        salted: true,
        ..PassOpts::of(ctx)
    };
    let fill = pass(s, &model, o);
    let warm = (0..WARM_PASSES).map(|_| pass(s, &model, o)).collect();
    WarmRound { fill, warm }
}

fn check_warm_round(report: &mut Report, r: &WarmRound, reference: &[u64]) {
    check_pass(report, "sweep_warm fill", &r.fill, reference);
    for p in &r.warm {
        check_pass(report, "sweep_warm warm", p, reference);
    }
}

pub fn run_warm(ctx: &Ctx) -> Report {
    let mut report = Report::default();
    let yard = Yardstick::new();
    let (s, setup_s) = repeat_setup(&yard, || setup(ctx.seed));
    report.set("setup_s", setup_s);
    let reference = pass(&s, &s.estimator, PassOpts::of(ctx)).digests();

    let mut rounds = Rounds::default();
    let end = ctx.until(Instant::now(), 1.0);
    while Instant::now() < end || rounds.len() < 5 {
        let r = rounds.measure(&yard, ctx.threads(), || {
            let r = warm_round(&s, ctx);
            let passes = || std::iter::once(&r.fill).chain(&r.warm);
            (
                passes().map(|p| p.points).sum(),
                passes().map(|p| p.wall).sum(),
                passes().map(|p| p.cpu).sum(),
                r,
            )
        });
        check_warm_round(&mut report, &r, &reference);
    }
    rounds.finish(&mut report, &yard);
    report
}

fn bits_equal(a: &Estimate, cycles: f64, area: &dhdl_target::AreaReport) -> bool {
    let bits = |c: f64, r: &dhdl_target::AreaReport| {
        [c, r.alms, r.regs, r.dsps, r.brams].map(f64::to_bits)
    };
    bits(a.cycles, &a.area) == bits(cycles, area)
}

/// Walk the first [`REPLAY_POINTS`] evaluated points of every
/// application on this thread, through the calls the runner makes for a
/// point, each inside a span. `cache` selects the `sweep_warm` shape: a
/// fill walk (memo miss, build, hash, estimate, insert) followed by a
/// warm walk (memo hit). Returns the mean node count of the designs
/// built and whether every replayed estimate was bit-equal to the
/// sweep's.
fn replay(
    tr: &mut Tracer,
    s: &Setup,
    results: &[DseResult],
    seed: u64,
    cached: bool,
) -> (f64, bool) {
    let est = &s.estimator;
    let cache = EstimateCache::new(model_fingerprint(est));
    let (mut nodes, mut built, mut exact) = (0usize, 0usize, true);
    for ((bench, &salt), result) in s.benches.iter().zip(&s.salts).zip(results) {
        let space = bench.param_space();
        tr.span("dse.sample", |_| {
            std::hint::black_box(LegalSpace::new(&space).sample(MAX_POINTS, seed));
        });
        let sample = &result.points[..result.points.len().min(REPLAY_POINTS)];
        for point in sample {
            let p = &point.params;
            let got = tr.span("dse.point", |tr| {
                let pk = cached.then(|| {
                    let pk = tr.span("dse.params_key", |_| params_key(salt, p));
                    let hit = tr.span("dse.cache.l1_miss", |_| cache.get_params(pk));
                    assert!(hit.is_none(), "fresh cache answered a parameter key");
                    pk
                });
                let design = tr
                    .span("apps.build", |_| bench.build(p))
                    .expect("an evaluated point builds");
                nodes += design.len();
                built += 1;
                let key = pk.map(|_| tr.span("core.hash", |_| structural_hash(&design)));
                let net = tr.span("synth.elaborate", |_| est.elaborate(&design));
                let cycles = tr.span("estimate.latency", |_| {
                    estimate_cycles_net(&design, est.platform(), &net)
                });
                let area = tr.span("estimate.area", |_| est.area_model().estimate_net(&net));
                let got = Estimate { cycles, area };
                if let (Some(pk), Some(key)) = (pk, key) {
                    tr.span("dse.cache.insert", |_| {
                        cache.insert(key, got);
                        cache.insert_params(pk, key);
                    });
                }
                got
            });
            exact &= bits_equal(&got, point.cycles, &point.area);
        }
        if cached {
            for point in sample {
                let got = tr.span("dse.point.warm", |tr| {
                    let pk = tr.span("dse.params_key", |_| params_key(salt, &point.params));
                    tr.span("dse.cache.l1_get", |_| {
                        cache.get_params(pk).and_then(|key| cache.get(key))
                    })
                });
                exact &= got.is_some_and(|e| bits_equal(&e, point.cycles, &point.area));
            }
        }
        let tuples: Vec<(f64, f64, bool)> = result
            .points
            .iter()
            .map(|p| (p.cycles, p.area.alms, p.valid))
            .collect();
        let front = tr.span("dse.pareto", |_| pareto_front(&tuples));
        exact &= front == result.pareto;
    }
    (nodes as f64 / built.max(1) as f64, exact)
}

/// Traced and untraced replays, alternating, until `end` or a full
/// tracer. Fills the span-derived metrics both sweep workloads share.
fn traced_replays(
    report: &mut Report,
    ctx: &Ctx,
    s: &Setup,
    results: &[DseResult],
    cached: bool,
    end: Instant,
) -> Tracer {
    let mut tr = Tracer::new(true);
    let mut off = Tracer::new(false);
    let yard = Yardstick::new();
    let (mut traced, mut untraced, mut nodes, mut rounds) = (0.0, 0.0, 0.0, 0u32);
    while (Instant::now() < end || rounds < 2) && !tr.is_full() {
        tr.set_round(rounds);
        yard.speed(1);
        // Alternate which twin goes first so neither always runs on the
        // warmer caches.
        for first in [rounds % 2 == 0, rounds % 2 != 0] {
            let t = Instant::now();
            let (n, exact) = replay(
                if first { &mut tr } else { &mut off },
                s,
                results,
                ctx.seed,
                cached,
            );
            let dt = t.elapsed().as_secs_f64();
            if first {
                traced += dt;
                nodes = n;
            } else {
                untraced += dt;
            }
            report.check(exact, || {
                "replayed estimates differ from the sweep's".into()
            });
        }
        rounds += 1;
    }
    report.note(format!(
        "{rounds} traced replay rounds, {} spans",
        tr.spans().len()
    ));
    report.set("trace_overhead_pct", (traced / untraced - 1.0) * 100.0);
    report.set("machine.yardstick_us", yard.median_us());
    report.set("core.design_nodes", nodes);

    let t = self_times(tr.spans());
    let mean = |name: &str| t.get(name).map_or(0.0, |s| s.mean_ns());
    for (metric, span) in [
        ("apps.build_ns", "apps.build"),
        ("synth.elaborate_ns", "synth.elaborate"),
        ("estimate.latency_ns", "estimate.latency"),
        ("estimate.area_ns", "estimate.area"),
    ] {
        report.set(metric, mean(span));
    }
    report.set("dse.pareto_us", mean("dse.pareto") / 1e3);
    // Sampling is one call per application; spread it over the points
    // the call returns.
    let sampled: usize = results.iter().map(|r| r.points.len() + r.discarded).sum();
    let sample_ns = t.get("dse.sample").map_or(0, |s| s.self_ns) as f64;
    report.set(
        "dse.sample_ns",
        sample_ns / (f64::from(rounds) * sampled as f64),
    );
    if cached {
        for (metric, span) in [
            ("core.hash_ns", "core.hash"),
            ("dse.cache.insert_ns", "dse.cache.insert"),
            ("dse.params_key_ns", "dse.params_key"),
            ("dse.cache.l1_get_ns", "dse.cache.l1_get"),
        ] {
            report.set(metric, mean(span));
        }
    }
    tr
}

/// Median over `passes` of each application's own points per second.
fn per_bench_rates(report: &mut Report, passes: &[Pass]) {
    for (i, bench) in BENCHES.iter().enumerate() {
        let rates: Vec<f64> = passes
            .iter()
            .map(|p| p.outcomes[i].stats.points_per_sec())
            .collect();
        report.set(&format!("dse.points_per_s.{bench}"), stats::median(&rates));
    }
}

pub fn trace_cold(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::default();
    let s = setup(ctx.seed);
    report.set("estimate.calibrate_ms", s.calibrate_ms);
    let reference = reference(&mut report, &s, ctx);
    let threads = ctx.threads();

    // Real sweeps first, alternating all threads and one thread: the
    // runner's wall time per point, its parallel efficiency, and the
    // per-application rates.
    let start = Instant::now();
    let end = ctx.until(start, 0.5);
    let (mut wide, mut narrow) = (Vec::new(), Vec::new());
    while Instant::now() < end || narrow.len() < 3 {
        for (t, into) in [(threads, &mut wide), (1, &mut narrow)] {
            // The first wide pass keeps its points for the replay.
            let o = PassOpts {
                threads: t,
                keep: into.is_empty() && t == threads,
                ..PassOpts::of(ctx)
            };
            let p = pass(&s, &s.estimator, o);
            check_pass(&mut report, "sweep_cold", &p, &reference);
            into.push(p);
        }
    }
    let rate = |ps: &[Pass]| {
        stats::median(
            &ps.iter()
                .map(|p| p.points as f64 / p.wall)
                .collect::<Vec<_>>(),
        )
    };
    let (wide_rate, narrow_rate) = (rate(&wide), rate(&narrow));
    report.set(
        "dse.runner.parallel_eff",
        wide_rate / (threads as f64 * narrow_rate),
    );
    per_bench_rates(&mut report, &wide);
    let discarded: usize = wide[0].outcomes.iter().map(|o| o.discarded).sum();
    report.set("dse.points.discarded", discarded as f64);

    let tr = traced_replays(
        &mut report,
        ctx,
        &s,
        &wide[0].results,
        false,
        ctx.until(start, 1.0),
    );
    // What the runner spends per point on one thread-second basis, minus
    // the layers the replay attributed: memory-cap check, catch_unwind,
    // parameter clones, thread start-up and scheduling.
    let per_point_ns = threads as f64 / wide_rate * 1e9;
    let attributed: f64 = [
        "apps.build_ns",
        "synth.elaborate_ns",
        "estimate.latency_ns",
        "estimate.area_ns",
        "dse.sample_ns",
    ]
    .iter()
    .map(|m| report.metrics[*m])
    .sum::<f64>()
        + report.metrics["dse.pareto_us"] * 1e3 * BENCHES.len() as f64 / wide[0].points as f64;
    report.set("dse.runner.unattributed_ns", per_point_ns - attributed);
    report.note(format!(
        "{threads} threads x wall / points = {per_point_ns:.0} ns; attributed {attributed:.0} ns"
    ));
    (report, tr)
}

pub fn trace_warm(ctx: &Ctx) -> (Report, Tracer) {
    let mut report = Report::default();
    let s = setup(ctx.seed);
    report.set("estimate.calibrate_ms", s.calibrate_ms);
    let reference_pass = pass(
        &s,
        &s.estimator,
        PassOpts {
            keep: true,
            ..PassOpts::of(ctx)
        },
    );
    let reference = reference_pass.digests();

    let start = Instant::now();
    let end = ctx.until(start, 0.5);
    let mut rounds = Vec::new();
    while Instant::now() < end || rounds.len() < 3 {
        let r = warm_round(&s, ctx);
        check_warm_round(&mut report, &r, &reference);
        rounds.push(r);
    }
    let rate = |p: &Pass| p.points as f64 / p.wall;
    let fill: Vec<f64> = rounds.iter().map(|r| rate(&r.fill)).collect();
    let warm: Vec<f64> = rounds
        .iter()
        .flat_map(|r| r.warm.iter().map(rate))
        .collect();
    report.set("dse.fill_points_per_s", stats::median(&fill));
    report.set("dse.warm_points_per_s", stats::median(&warm));

    // Cache counters as the runner reports them: a fill pass may not hit
    // and a warm pass may not miss.
    let counters = |ps: &mut dyn Iterator<Item = &Pass>| {
        ps.flat_map(|p| &p.outcomes)
            .filter_map(|o| o.stats.cache)
            .fold((0u64, 0u64), |(h, m), c| (h + c.hits, m + c.misses))
    };
    let (fill_hits, _) = counters(&mut rounds.iter().map(|r| &r.fill));
    let (warm_hits, warm_misses) = counters(&mut rounds.iter().flat_map(|r| &r.warm));
    report.check(fill_hits == 0, || {
        format!("{fill_hits} cache hits on fill passes")
    });
    report.check(warm_misses == 0, || {
        format!("{warm_misses} cache misses on warm passes")
    });
    report.set(
        "dse.cache.hit_rate",
        warm_hits as f64 / (warm_hits + warm_misses).max(1) as f64,
    );
    let discarded: usize = reference_pass.outcomes.iter().map(|o| o.discarded).sum();
    report.set("dse.points.discarded", discarded as f64);

    let tr = traced_replays(
        &mut report,
        ctx,
        &s,
        &reference_pass.results,
        true,
        ctx.until(start, 1.0),
    );
    (report, tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_dse::DesignPoint;
    use dhdl_target::AreaReport;

    fn result() -> DseResult {
        let point = |tile: u64, cycles: f64| DesignPoint {
            params: ParamValues::new().with("tile", tile).with("par", 2),
            cycles,
            area: AreaReport {
                alms: 100.0,
                regs: 200.0,
                dsps: 3.0,
                brams: 4.0,
            },
            valid: true,
        };
        DseResult {
            points: vec![point(16, 1000.0), point(32, 800.0)],
            pareto: vec![1],
            space_size: 2,
            discarded: 0,
            counts: Default::default(),
            errors: Vec::new(),
            truncated: false,
            stats: Default::default(),
        }
    }

    #[test]
    fn digest_sees_every_field_it_covers_and_ignores_timing() {
        let base = result();
        let d = digest(&base);
        assert_eq!(d, digest(&result()));

        let mut timing = result();
        timing.stats.elapsed_secs = 9.0;
        assert_eq!(d, digest(&timing));

        let mut ulp = result();
        ulp.points[0].cycles = f64::from_bits(1000.0f64.to_bits() + 1);
        let mut area = result();
        area.points[1].area.brams = 5.0;
        let mut params = result();
        params.points[0].params.set("tile", 8);
        let mut valid = result();
        valid.points[1].valid = false;
        let mut front = result();
        front.pareto = vec![0];
        for (what, changed) in [
            ("cycles", ulp),
            ("area", area),
            ("params", params),
            ("valid", valid),
            ("pareto", front),
        ] {
            assert_ne!(d, digest(&changed), "digest ignores {what}");
        }
    }
}
