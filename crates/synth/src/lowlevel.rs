//! The place-and-route model: applies the low-level logic-synthesis effects
//! of §IV-A to an elaborated netlist and produces the "post place-and-route
//! report" the estimator is validated against.
//!
//! Modeled effects, with the magnitudes the paper reports:
//! * **LUT packing** — ~80% of functions pack in pairs, decreasing used
//!   LUTs by ~40%;
//! * **routing resources** — "route-through" LUTs, typically ~10% of LUTs;
//! * **logic duplication** — duplicated registers ~5%; duplicated block
//!   RAMs 10–100% depending on design complexity;
//! * **unavailable resources** — LAB mapping constraints waste ~4% of LUTs.
//!
//! The exact coefficients are *design-dependent and noisy*, exactly like a
//! real vendor tool: they vary nonlinearly with utilization, fanout and
//! memory density, plus a deterministic per-design perturbation keyed by a
//! hash of the design. The estimator never reads these formulas — it learns
//! them from sampled synthesis runs (paper §IV-B2), which is what makes the
//! reproduced Table III estimation errors meaningful.

use dhdl_core::Design;
use dhdl_target::{AreaReport, FpgaTarget};

use crate::elaborate::Netlist;

/// A post-place-and-route synthesis report.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynthReport {
    /// ALMs used, after packing, routing and LAB-granularity waste.
    pub alms: f64,
    /// Registers used, including duplicates.
    pub regs: f64,
    /// DSP blocks used.
    pub dsps: f64,
    /// Block RAMs used, including duplicates.
    pub brams: f64,
    /// LUTs used for logic (before packing into ALMs).
    pub luts_logic: f64,
    /// LUTs used as route-throughs.
    pub luts_route: f64,
    /// Registers added by fanout duplication.
    pub regs_dup: f64,
    /// Block RAMs added by duplication.
    pub brams_dup: f64,
    /// LUTs lost to LAB mapping constraints.
    pub luts_unavail: f64,
}

impl SynthReport {
    /// Collapse to the quantities Table III compares.
    pub fn area_report(&self) -> AreaReport {
        AreaReport {
            alms: self.alms,
            regs: self.regs,
            dsps: self.dsps,
            brams: self.brams,
        }
    }
}

/// A deterministic 64-bit hash of a design, used to key the per-design
/// perturbations of the place-and-route model (two different designs get
/// different "tool noise"; re-synthesizing the same design is
/// reproducible).
///
/// This hash is *deliberately coarse*: it keys tool noise, not design
/// identity, and collapses many distinct design points onto one value.
/// For a canonical full-structure hash (estimate caching, fault
/// schedules) use [`dhdl_core::structural_hash`] instead. The word
/// stream mixed here is pinned by cached calibration artifacts under
/// `results/` — it must never change.
pub fn design_hash(design: &Design) -> u64 {
    let mut h = dhdl_core::Fnv64::new();
    for b in design.name().bytes() {
        h.write_u64(u64::from(b));
    }
    h.write_u64(design.len() as u64);
    for (id, node) in design.iter() {
        h.write_u64(id.index() as u64);
        h.write_u64(u64::from(node.width));
        h.write_u64(u64::from(node.ty.bits()));
        // Template kind discriminant via its name.
        for b in node.kind.template_name().bytes() {
            h.write_u64(u64::from(b));
        }
    }
    h.finish()
}

/// A deterministic pseudo-random value in `[-1, 1]` derived from `hash`
/// and a stream index.
fn centered(hash: u64, stream: u64) -> f64 {
    let mut x = hash ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // SplitMix64 finalizer.
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

fn noise(hash: u64, stream: u64, amplitude: f64) -> f64 {
    1.0 + amplitude * centered(hash, stream)
}

/// Run the place-and-route model on an elaborated netlist.
///
/// `hash` keys the deterministic per-design perturbations; obtain it with
/// [`design_hash`].
pub fn place_and_route(hash: u64, net: &Netlist, target: &FpgaTarget) -> SynthReport {
    let raw = &net.raw;
    let f = &net.features;
    let luts_raw = raw.luts().max(1.0);
    let util = luts_raw / target.alms as f64;
    let bram_density = raw.brams / (raw.brams + 60.0);
    // Average fanout per physical primitive lane (both edges and prims
    // are counted after replication).
    let fanout = if f.prims > 0.0 {
        f.edges / f.prims
    } else {
        1.0
    };

    // Route-through LUTs: grow with utilization, connectivity and memory
    // density (memories are fixed-position blocks that force long routes).
    let route_frac =
        (0.050 + 0.060 * util + 0.010 * (1.0 + f.edges).ln() / 10.0 + 0.055 * bram_density)
            * noise(hash, 1, 0.12);
    let luts_route = luts_raw * route_frac.max(0.0);

    // Register duplication for fanout reduction (~5%).
    let dup_frac = (0.030 + 0.012 * (fanout - 1.0).max(0.0) + 0.020 * util) * noise(hash, 2, 0.18);
    let regs_dup = raw.regs * dup_frac.max(0.0);

    // BRAM duplication: a nonlinear function of routing complexity
    // (10-100% of the raw count, §IV-A).
    let complexity = route_frac / 0.10;
    let bram_dup_frac =
        (0.05 + 0.35 * (complexity - 0.6).max(0.0)).clamp(0.03, 1.0) * noise(hash, 3, 0.28);
    let brams_dup = (raw.brams * bram_dup_frac.max(0.0)).round();

    // DSP implementation: for designs using few DSPs, the tool sometimes
    // implements multipliers in soft logic instead, producing the high
    // relative DSP errors at low utilization the paper observes (§V-B).
    let dsp_soft_frac = (0.22 * (-raw.dsps / 30.0).exp() * centered(hash, 4).abs()).min(0.9);
    let dsps = (raw.dsps * (1.0 - dsp_soft_frac))
        .round()
        .max(if raw.dsps > 0.0 { 1.0 } else { 0.0 });
    let soft_mult_luts = raw.dsps * dsp_soft_frac * 180.0;

    // LUT packing: route-throughs are always packable. The placer packs
    // nearly all *packable* functions in pairs (the "80% of functions"
    // of §IV-A counts packable functions out of all functions; carry
    // chains and wide functions are the unpackable remainder).
    let packable = raw.lut_packable + luts_route + soft_mult_luts * 0.6;
    let unpackable = raw.lut_unpackable + soft_mult_luts * 0.4;
    let pack_rate = (0.96 * noise(hash, 5, 0.030)).clamp(0.0, 1.0);
    let packed_pairs = packable * pack_rate / 2.0;
    let alms_logic = unpackable + packable * (1.0 - pack_rate) + packed_pairs;

    // Registers beyond what logic ALMs provide occupy their own ALMs.
    let regs_total = raw.regs + regs_dup;
    let regs_capacity = alms_logic * f64::from(target.regs_per_alm);
    let alms_regs = (regs_total - regs_capacity).max(0.0) / f64::from(target.regs_per_alm);

    // LAB-granularity waste (~4%).
    let unavail_frac = (0.035 + 0.015 * util) * noise(hash, 6, 0.22);
    let alms_used = alms_logic + alms_regs;
    let luts_unavail = alms_used * unavail_frac.max(0.0);

    SynthReport {
        alms: (alms_used + luts_unavail).round(),
        regs: regs_total.round(),
        dsps,
        brams: (raw.brams + brams_dup).round(),
        luts_logic: luts_raw + soft_mult_luts,
        luts_route,
        regs_dup,
        brams_dup,
        luts_unavail,
    }
}

/// Convenience wrapper: elaborate and place-and-route a design.
pub fn synthesize(design: &Design, target: &FpgaTarget) -> SynthReport {
    let net = crate::elaborate::elaborate(design, target);
    place_and_route(design_hash(design), &net, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elaborate::{elaborate, NetFeatures, Netlist};
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
    use dhdl_target::Resources;

    fn sample_design(par: u32) -> Design {
        let mut b = DesignBuilder::new("s");
        let x = b.off_chip("x", DType::F32, &[4096]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.meta_pipe(&[by(4096, 256)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[256]);
                b.tile_load(x, t, &[i], &[256], par);
                b.pipe_reduce(&[by(256, 1)], par, acc, ReduceOp::Add, |b, it| {
                    let v = b.load(t, &[it[0]]);
                    b.mul(v, v)
                });
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn deterministic_per_design() {
        let t = FpgaTarget::stratix_v();
        let d = sample_design(4);
        let a = synthesize(&d, &t);
        let b = synthesize(&d, &t);
        assert_eq!(a, b);
    }

    #[test]
    fn different_designs_get_different_noise() {
        let a = design_hash(&sample_design(2));
        let b = design_hash(&sample_design(4));
        assert_ne!(a, b);
    }

    #[test]
    fn effects_have_paper_magnitudes() {
        let t = FpgaTarget::stratix_v();
        let d = sample_design(8);
        let net = elaborate(&d, &t);
        let rep = place_and_route(design_hash(&d), &net, &t);
        // Routing LUTs ~10% of logic LUTs (§IV-A says "about 10%").
        let route_share = rep.luts_route / net.raw.luts();
        assert!(
            (0.02..=0.25).contains(&route_share),
            "route share {route_share}"
        );
        // Duplicated registers around 5%.
        let dup_share = rep.regs_dup / net.raw.regs;
        assert!((0.005..=0.15).contains(&dup_share), "dup share {dup_share}");
        // BRAM duplication within 0-100%.
        assert!(rep.brams >= net.raw.brams);
        assert!(rep.brams <= net.raw.brams * 2.0 + 1.0);
        // Packing shrinks ALMs below raw LUT count.
        assert!(rep.alms < net.raw.luts() * 1.1);
    }

    #[test]
    fn alms_scale_with_parallelism() {
        let t = FpgaTarget::stratix_v();
        let a = synthesize(&sample_design(1), &t);
        let b = synthesize(&sample_design(16), &t);
        assert!(b.alms > a.alms);
        assert!(b.dsps > a.dsps);
    }

    #[test]
    fn zero_netlist_is_finite() {
        let t = FpgaTarget::stratix_v();
        let net = Netlist {
            raw: Resources::zero(),
            breakdown: Default::default(),
            features: NetFeatures::default(),
            pipe_depths: Vec::new(),
            latency: Default::default(),
        };
        let rep = place_and_route(12345, &net, &t);
        assert!(rep.alms.is_finite());
        assert!(rep.alms >= 0.0);
        assert_eq!(rep.dsps, 0.0);
    }

    #[test]
    fn centered_is_bounded() {
        for s in 0..200 {
            let v = centered(0xdead_beef, s);
            assert!((-1.0..=1.0).contains(&v));
        }
    }
}
