//! Estimator calibration (§IV-B2).
//!
//! "One network is trained for each factor on a common set of 200 design
//! samples with varying levels of resource usage to give a representative
//! sampling of the space." The samples are application-independent random
//! designs; each is synthesized by the toolchain model and the resulting
//! report fields (routing LUTs, duplicated registers, unavailable LUTs,
//! duplicated BRAMs) become training targets. Calibration runs once per
//! target device and toolchain.

use dhdl_core::{by, DType, Design, DesignBuilder, PrimOp, ReduceOp};
use dhdl_mlp::{Regressor, TrainConfig};
use dhdl_synth::{design_hash, elaborate, place_and_route};
use dhdl_target::FpgaTarget;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::hybrid::{features, AreaEstimator};

/// Default number of calibration samples (the paper uses 200).
pub const DEFAULT_SAMPLES: usize = 200;

/// Generate a random but structurally valid design, exercising nested
/// controllers, tile transfers, mixed primitive bodies and reductions.
pub fn random_design(seed: u64) -> Design {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
    let size: u64 = 1 << rng.gen_range(9..16); // 512 .. 32768 elements
    let n_off = rng.gen_range(1..=4usize);
    let n_blocks = rng.gen_range(1..=4usize);
    let mut b = DesignBuilder::new(format!("cal{seed}"));
    let offs: Vec<_> = (0..n_off)
        .map(|i| b.off_chip(&format!("o{i}"), DType::F32, &[size]))
        .collect();
    // Pre-draw all random choices to keep closure borrows simple.
    let blocks: Vec<BlockPlan> = (0..n_blocks)
        .map(|_| BlockPlan::draw(&mut rng, size, n_off))
        .collect();
    b.sequential(|b| {
        for (bi, plan) in blocks.iter().enumerate() {
            let offs = offs.clone();
            b.outer(
                plan.toggle,
                &[by(size, plan.tile)],
                plan.outer_par,
                |b, iters| {
                    let i = iters[0];
                    let mut bufs = Vec::new();
                    for (k, &o) in offs.iter().take(plan.n_inputs).enumerate() {
                        let t = b.bram(&format!("b{bi}_{k}"), DType::F32, &[plan.tile]);
                        b.tile_load(o, t, &[i], &[plan.tile], plan.load_par);
                        bufs.push(t);
                    }
                    let acc = b.reg(&format!("acc{bi}"), DType::F32, 0.0);
                    if plan.reduce {
                        b.pipe_reduce(
                            &[by(plan.tile, 1)],
                            plan.pipe_par,
                            acc,
                            ReduceOp::Add,
                            |b, it| random_body(b, &bufs, it[0], &plan.ops),
                        );
                    } else {
                        let out = bufs[0];
                        b.pipe(&[by(plan.tile, 1)], plan.pipe_par, |b, it| {
                            let v = random_body(b, &bufs, it[0], &plan.ops);
                            b.store(out, &[it[0]], v);
                        });
                    }
                    if plan.store_back {
                        b.tile_store(offs[0], bufs[0], &[i], &[plan.tile], plan.load_par);
                    }
                },
            );
        }
    });
    b.finish().expect("random calibration designs are valid")
}

#[derive(Debug, Clone)]
struct BlockPlan {
    tile: u64,
    toggle: bool,
    outer_par: u32,
    load_par: u32,
    pipe_par: u32,
    n_inputs: usize,
    reduce: bool,
    store_back: bool,
    ops: Vec<PrimOp>,
}

impl BlockPlan {
    fn draw(rng: &mut StdRng, size: u64, n_off: usize) -> Self {
        let tile = 1u64 << rng.gen_range(4..=12); // 16 .. 4096, divides size
        let pool = [
            PrimOp::Add,
            PrimOp::Sub,
            PrimOp::Mul,
            PrimOp::Mul,
            PrimOp::Div,
            PrimOp::Sqrt,
            PrimOp::Exp,
            PrimOp::Max,
            PrimOp::Abs,
        ];
        let n_ops = rng.gen_range(2..=14usize);
        BlockPlan {
            tile: tile.min(size),
            toggle: rng.gen_bool(0.6),
            outer_par: 1 << rng.gen_range(0..3u32),
            load_par: 1 << rng.gen_range(0..6u32),
            pipe_par: 1 << rng.gen_range(0..7u32),
            n_inputs: rng.gen_range(1..=n_off),
            reduce: rng.gen_bool(0.5),
            store_back: rng.gen_bool(0.5),
            ops: (0..n_ops)
                .map(|_| pool[rng.gen_range(0..pool.len())])
                .collect(),
        }
    }
}

fn random_body(
    b: &mut DesignBuilder,
    bufs: &[dhdl_core::NodeId],
    idx: dhdl_core::NodeId,
    ops: &[PrimOp],
) -> dhdl_core::NodeId {
    let mut v = b.load(bufs[0], &[idx]);
    let mut w = if bufs.len() > 1 {
        b.load(bufs[1], &[idx])
    } else {
        v
    };
    for &op in ops {
        v = if op.arity() == 1 {
            b.prim(op, &[v])
        } else {
            b.prim(op, &[v, w])
        };
        std::mem::swap(&mut v, &mut w);
    }
    w
}

/// Quality metrics of a calibration run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationReport {
    /// Number of training samples.
    pub samples: usize,
    /// Mean relative error of the trained estimator's ALM prediction on the
    /// training set.
    pub alm_training_error: f64,
}

/// Held-out validation of the calibration methodology: train on `n`
/// samples, evaluate mean relative ALM error on `holdout` *fresh* random
/// designs from a disjoint seed stream. This is the generalization number
/// that predicts Table III performance before ever touching a benchmark.
pub fn cross_validate(target: &FpgaTarget, n: usize, holdout: usize, seed: u64) -> f64 {
    let (est, _) = calibrate(target, n, seed);
    let mut err = 0.0;
    for k in 0..holdout {
        let design = random_design(seed.wrapping_add(0xC0_0000 + k as u64));
        let net = elaborate(&design, target);
        let truth = place_and_route(design_hash(&design), &net, target);
        if truth.alms > 0.0 {
            err += ((est.estimate_net(&net).alms - truth.alms) / truth.alms).abs();
        }
    }
    err / holdout.max(1) as f64
}

/// Train the hybrid area estimator on `n` random design samples.
///
/// # Panics
///
/// Panics if `n` is zero.
pub fn calibrate(target: &FpgaTarget, n: usize, seed: u64) -> (AreaEstimator, CalibrationReport) {
    assert!(n > 0, "need at least one calibration sample");
    let mut routing_set = Vec::with_capacity(n);
    let mut dup_set = Vec::with_capacity(n);
    let mut unavail_set = Vec::with_capacity(n);
    let mut bram_pairs = Vec::with_capacity(n);
    let mut nets = Vec::with_capacity(n);
    let mut reports = Vec::with_capacity(n);
    for k in 0..n {
        let design = random_design(seed.wrapping_add(k as u64));
        let net = elaborate(&design, target);
        let report = place_and_route(design_hash(&design), &net, target);
        let f = features(&net).to_vec();
        // Scale-free fractional targets (see `AreaEstimator`).
        let luts = net.raw.luts().max(1.0);
        let regs = net.raw.regs.max(1.0);
        let alms_used = (report.alms - report.luts_unavail).max(1.0);
        routing_set.push((f.clone(), report.luts_route / luts));
        dup_set.push((f.clone(), report.regs_dup / regs));
        unavail_set.push((f, report.luts_unavail / alms_used));
        if net.raw.brams >= 1.0 {
            bram_pairs.push((report.luts_route / luts, report.brams_dup / net.raw.brams));
        }
        nets.push(net);
        reports.push(report);
    }
    let cfg = TrainConfig {
        max_epochs: 800,
        target_mse: 1e-6,
        ..TrainConfig::default()
    };
    // The paper's networks: 11 inputs, 6 hidden nodes, 1 output.
    let routing = Regressor::fit(&routing_set, 6, seed ^ 0x01, &cfg);
    let dup_regs = Regressor::fit(&dup_set, 6, seed ^ 0x02, &cfg);
    let unavail = Regressor::fit(&unavail_set, 6, seed ^ 0x03, &cfg);
    let bram_linear = least_squares(&bram_pairs);
    let est = AreaEstimator {
        routing,
        dup_regs,
        unavail,
        bram_linear,
        regs_per_alm: f64::from(target.regs_per_alm),
    };
    // Training-set ALM error, as a sanity metric.
    let mut err = 0.0;
    for (net, rep) in nets.iter().zip(&reports) {
        let e = est.estimate_net(net);
        if rep.alms > 0.0 {
            err += ((e.alms - rep.alms) / rep.alms).abs();
        }
    }
    let report = CalibrationReport {
        samples: n,
        alm_training_error: err / n as f64,
    };
    (est, report)
}

/// Ordinary least-squares fit `y = a + b x`.
fn least_squares(pairs: &[(f64, f64)]) -> (f64, f64) {
    let n = pairs.len() as f64;
    if pairs.is_empty() {
        return (0.0, 0.0);
    }
    let sx: f64 = pairs.iter().map(|p| p.0).sum();
    let sy: f64 = pairs.iter().map(|p| p.1).sum();
    let sxx: f64 = pairs.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = pairs.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom.abs() < 1e-12 {
        return (sy / n, 0.0);
    }
    let b = (n * sxy - sx * sy) / denom;
    let a = (sy - b * sx) / n;
    (a, b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_designs_are_valid_and_varied() {
        let a = random_design(1);
        let b = random_design(2);
        assert_ne!(design_hash(&a), design_hash(&b));
        assert!(a.len() > 5);
        // Determinism.
        assert_eq!(design_hash(&a), design_hash(&random_design(1)));
    }

    #[test]
    fn least_squares_recovers_line() {
        let pairs: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 + 2.0 * i as f64)).collect();
        let (a, b) = least_squares(&pairs);
        assert!((a - 3.0).abs() < 1e-9);
        assert!((b - 2.0).abs() < 1e-9);
        assert_eq!(least_squares(&[]), (0.0, 0.0));
        let (a, b) = least_squares(&[(5.0, 7.0), (5.0, 9.0)]);
        assert_eq!(b, 0.0);
        assert_eq!(a, 8.0);
    }

    #[test]
    fn cross_validation_generalizes() {
        let target = FpgaTarget::stratix_v();
        let cv = cross_validate(&target, 80, 25, 13);
        assert!(cv < 0.12, "held-out ALM error {cv}");
    }

    #[test]
    fn calibration_beats_raw_on_training_set() {
        let target = FpgaTarget::stratix_v();
        let (est, report) = calibrate(&target, 60, 7);
        assert!(report.alm_training_error < 0.15, "{report:?}");
        // The hybrid estimator must be closer to synthesis than the raw
        // packing-only estimate on a held-out design.
        let d = random_design(10_001);
        let net = elaborate(&d, &target);
        let truth = place_and_route(design_hash(&d), &net, &target).area_report();
        let hybrid = est.estimate_net(&net);
        let raw = crate::hybrid::raw_estimate(&net, &target);
        let err = |x: f64| ((x - truth.alms) / truth.alms).abs();
        assert!(
            err(hybrid.alms) <= err(raw.alms) + 0.02,
            "hybrid {} raw {} truth {}",
            hybrid.alms,
            raw.alms,
            truth.alms
        );
    }
}
