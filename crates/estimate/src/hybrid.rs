//! The hybrid area estimator (§IV-B2).
//!
//! Raw resource counts come from the characterized template models
//! (via [`dhdl_synth::elaborate`]). Global low-level effects — routing
//! LUTs, register duplication, unavailable LUTs — are predicted by small
//! neural networks over 11 design features; duplicated block RAMs are a
//! linear function of the predicted routing LUTs. LUT packing then closes
//! the estimate: routing LUTs are assumed packable, all packable LUTs are
//! assumed packed in pairs, and registers beyond two per compute unit
//! occupy their own ALMs.

use dhdl_core::Design;
use dhdl_mlp::{Regressor, Scratch};
use dhdl_synth::{elaborate, Netlist};
use dhdl_target::{AreaReport, FpgaTarget};

/// Number of features fed to each correction network (the paper's networks
/// have "eleven input nodes").
pub const N_FEATURES: usize = 11;

/// Extract the 11-dimensional feature vector of an elaborated netlist.
pub fn features(net: &Netlist) -> [f64; N_FEATURES] {
    [
        net.raw.luts(),
        net.raw.lut_packable,
        net.raw.regs,
        net.raw.dsps,
        net.raw.brams,
        net.features.prims,
        net.features.mems,
        net.features.ctrls,
        net.features.depth,
        net.features.edges,
        net.features.avg_width,
    ]
}

/// The trained hybrid area model: three correction networks plus the BRAM
/// duplication linear model. Application-independent; trained once per
/// target device and toolchain (§IV-B2).
///
/// The networks predict scale-free *fractions* (routing LUTs per logic
/// LUT, duplicated registers per raw register, unavailable-LUT overhead
/// per used ALM), which are then applied to the raw counts; this keeps
/// the small networks accurate across the three orders of magnitude a
/// design space spans.
#[derive(Debug, Clone, PartialEq)]
pub struct AreaEstimator {
    pub(crate) routing: Regressor,
    pub(crate) dup_regs: Regressor,
    pub(crate) unavail: Regressor,
    /// `(intercept, slope)` of the BRAM duplication fraction vs. the
    /// routing-LUT fraction.
    pub(crate) bram_linear: (f64, f64),
    pub(crate) regs_per_alm: f64,
}

impl AreaEstimator {
    /// Estimate the post-place-and-route area of an elaborated netlist.
    pub fn estimate_net(&self, net: &Netlist) -> AreaReport {
        let f = features(net);
        // One pair of forward-pass buffers serves the three networks.
        let mut scratch = Scratch::default();
        let route_frac = self.routing.predict_with(&f, &mut scratch).max(0.0);
        let routing = route_frac * net.raw.luts();
        let dup_regs = self.dup_regs.predict_with(&f, &mut scratch).max(0.0) * net.raw.regs;
        let unavail_frac = self.unavail.predict_with(&f, &mut scratch).max(0.0);
        // Duplicated BRAMs are a linear function of the routing LUTs
        // (per unit of raw BRAM), clamped to the physically meaningful
        // range: duplication adds between 0 and 100% of the raw BRAMs
        // (§IV-A reports 10-100%).
        let bram_dup_frac = (self.bram_linear.0 + self.bram_linear.1 * route_frac).clamp(0.0, 1.0);
        let bram_dup = bram_dup_frac * net.raw.brams;
        finish_report(
            net,
            routing,
            dup_regs,
            unavail_frac,
            bram_dup,
            self.regs_per_alm,
        )
    }

    /// Estimate the area of a design on `target`.
    pub fn estimate(&self, design: &Design, target: &FpgaTarget) -> AreaReport {
        self.estimate_net(&elaborate(design, target))
    }
}

/// Close an area estimate given correction terms (shared between the hybrid
/// estimator and the raw-analytical ablation). `unavail_frac` is the
/// LAB-granularity overhead as a fraction of used ALMs.
pub(crate) fn finish_report(
    net: &Netlist,
    routing_luts: f64,
    dup_regs: f64,
    unavail_frac: f64,
    bram_dup: f64,
    regs_per_alm: f64,
) -> AreaReport {
    // Routing LUTs are assumed always packable; all packable LUTs are
    // assumed packed in pairs (§IV-B2).
    let packable = net.raw.lut_packable + routing_luts;
    let alms_logic = net.raw.lut_unpackable + packable / 2.0;
    let regs_total = net.raw.regs + dup_regs;
    let alms_regs = (regs_total - regs_per_alm * alms_logic).max(0.0) / regs_per_alm;
    let alms_used = alms_logic + alms_regs;
    AreaReport {
        alms: (alms_used * (1.0 + unavail_frac.max(0.0))).round(),
        regs: regs_total.round(),
        dsps: net.raw.dsps.round(),
        brams: (net.raw.brams + bram_dup).round(),
    }
}

/// Raw analytical estimate with *no* learned correction: the ablation
/// baseline showing the value of the hybrid approach. Applies only the
/// deterministic packing closure.
pub fn raw_estimate(net: &Netlist, target: &FpgaTarget) -> AreaReport {
    finish_report(net, 0.0, 0.0, 0.0, 0.0, f64::from(target.regs_per_alm))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_synth::NetFeatures;
    use dhdl_target::Resources;

    fn toy_net() -> Netlist {
        Netlist {
            breakdown: Default::default(),
            raw: Resources {
                lut_packable: 1000.0,
                lut_unpackable: 500.0,
                regs: 2000.0,
                dsps: 10.0,
                brams: 20.0,
            },
            features: NetFeatures {
                prims: 50.0,
                mems: 5.0,
                ctrls: 6.0,
                depth: 3.0,
                edges: 120.0,
                avg_width: 2.0,
            },
            pipe_depths: Vec::new(),
            latency: Default::default(),
        }
    }

    #[test]
    fn feature_vector_has_eleven_entries() {
        assert_eq!(features(&toy_net()).len(), N_FEATURES);
    }

    #[test]
    fn raw_estimate_packs_all_packable() {
        let t = FpgaTarget::stratix_v();
        let rep = raw_estimate(&toy_net(), &t);
        // 500 unpackable + 1000/2 packed = 1000 logic ALMs; 2000 regs fit
        // exactly in 2 per ALM.
        assert_eq!(rep.alms, 1000.0);
        assert_eq!(rep.dsps, 10.0);
        assert_eq!(rep.brams, 20.0);
    }

    #[test]
    fn excess_registers_take_alms() {
        let t = FpgaTarget::stratix_v();
        let mut net = toy_net();
        net.raw.regs = 6000.0;
        let rep = raw_estimate(&net, &t);
        // 1000 logic ALMs hold 2000 regs; 4000 extra need 2000 ALMs.
        assert_eq!(rep.alms, 3000.0);
    }

    #[test]
    fn features_scale_with_design_size() {
        use dhdl_core::{by, DType, DesignBuilder};
        use dhdl_synth::elaborate;
        let build = |par: u32| {
            let mut b = DesignBuilder::new("f");
            b.sequential(|b| {
                let m = b.bram("m", DType::F32, &[64]);
                b.pipe(&[by(64, 1)], par, |b, it| {
                    let v = b.load(m, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(m, &[it[0]], w);
                });
            });
            b.finish().unwrap()
        };
        let t = FpgaTarget::stratix_v();
        let f1 = features(&elaborate(&build(1), &t));
        let f8 = features(&elaborate(&build(8), &t));
        // Raw LUTs (0), physical prims (5) and edges (9) grow with par.
        assert!(f8[0] > f1[0]);
        assert!(f8[5] > f1[5]);
        assert!(f8[9] > f1[9]);
        // Structural counts (memories, controllers, depth) are unchanged.
        assert_eq!(f8[6], f1[6]);
        assert_eq!(f8[7], f1[7]);
        assert_eq!(f8[8], f1[8]);
    }

    #[test]
    fn corrections_increase_area() {
        let t = FpgaTarget::stratix_v();
        let net = toy_net();
        let raw = raw_estimate(&net, &t);
        let corrected = finish_report(&net, 150.0, 100.0, 0.04, 5.0, 2.0);
        assert!(corrected.alms > raw.alms);
        assert!(corrected.brams > raw.brams);
        assert!(corrected.regs > raw.regs);
    }
}
