//! Multi-FPGA estimation: per-partition area and link-aware latency.
//!
//! The single-chip estimator answers "does this design fit, and how fast
//! is it". With partitioning the questions become per-device: every
//! partition must fit *its* device, and inter-board channels expose link
//! cycles the single-chip latency model never sees.
//!
//! The per-partition area path reuses the whole pipeline unchanged: each
//! partition's derived-design netlist goes through the same calibrated
//! area model as a whole design would, and the reported
//! [`Estimate::area`] is the **component-wise maximum** across devices —
//! so the existing `fits(&device)` check downstream *is* the
//! per-partition capacity check (the max fits iff every partition fits).
//!
//! The latency model is additive exposure: partitions execute the same
//! global controller schedule as the unpartitioned design (controllers
//! still synchronize through their parents), and each cut channel adds
//! its exposed cycles — stream occupancy serialized on the shared link
//! bandwidth, plus one first-word latency per refill for channels inside
//! sequential scopes (overlapped scopes hide all but one).

use dhdl_core::Design;
use dhdl_synth::partition::partition_elaborated;
use dhdl_target::{AreaReport, MultiFpgaPlatform};

use crate::{Estimate, Estimator};

/// A design estimate on a multi-FPGA platform.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionedEstimate {
    /// The headline estimate: cycles include link exposure; area is the
    /// component-wise maximum across devices, so `estimate.area.fits`
    /// against one device checks every partition at once.
    pub estimate: Estimate,
    /// Post-place-and-route area of each device's partition, in device
    /// order.
    pub per_device: Vec<AreaReport>,
    /// Exposed inter-board link cycles included in `estimate.cycles`.
    pub link_cycles: f64,
    /// Devices the placer actually used (`<= k`; 1 means the design was
    /// not cut).
    pub devices_used: u32,
}

/// Component-wise maximum of per-device areas: fits one device iff every
/// input does.
fn area_max(areas: &[AreaReport]) -> AreaReport {
    let mut out = AreaReport::default();
    for a in areas {
        out.alms = out.alms.max(a.alms);
        out.regs = out.regs.max(a.regs);
        out.dsps = out.dsps.max(a.dsps);
        out.brams = out.brams.max(a.brams);
    }
    out
}

impl Estimator {
    /// Estimate a design across up to `k` devices.
    ///
    /// `k <= 1` is byte-identical to [`Estimator::estimate`] (the
    /// partitioning pass is not consulted at all). For `k > 1` the
    /// placer cuts the design (or leaves it whole if it already fits one
    /// device), each partition's netlist runs through the calibrated
    /// area model, and channel traffic adds exposed link cycles. Either
    /// way the whole design is elaborated once: the placer reads the
    /// netlist the estimate was computed from.
    pub fn estimate_partitioned(&self, design: &Design, k: u32) -> PartitionedEstimate {
        let net = self.elaborate(design);
        let base = self.estimate_net(design, &net);
        let whole = || PartitionedEstimate {
            estimate: base,
            per_device: vec![base.area],
            link_cycles: 0.0,
            devices_used: 1,
        };
        if k <= 1 {
            return whole();
        }
        let _span = dhdl_obs::span_arg("estimate_partitioned", "k", u64::from(k));
        let multi = MultiFpgaPlatform::from_platform(self.platform(), k);
        // `multi.device()` is this estimator's device, so `net` is the
        // whole design's netlist on it.
        let parts = partition_elaborated(design, net, multi.device(), &multi.link, k);
        if parts.is_single() {
            // The placer kept the design whole: identical to the
            // single-chip estimate on one of the K devices.
            return whole();
        }
        let per_device: Vec<AreaReport> = parts
            .partitions
            .iter()
            .map(|p| self.area_model().estimate_net(&p.net))
            .collect();
        let link_cycles = parts.link_cycles(&multi.link);
        PartitionedEstimate {
            estimate: Estimate {
                cycles: base.cycles + link_cycles,
                area: area_max(&per_device),
            },
            per_device,
            link_cycles,
            devices_used: parts.devices_used(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder};
    use dhdl_synth::partition::partition;
    use dhdl_target::Platform;

    fn estimator() -> Estimator {
        Estimator::calibrate_with(&Platform::maia(), 40, 3).0
    }

    /// A three-buffer streaming chain; `tile` scales BRAM pressure.
    fn staged(tile: u64) -> Design {
        let n = 16 * tile;
        let mut b = DesignBuilder::new("staged");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let mt = b.bram("mT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(mt, &[it[0]]);
                    let w = b.add(v, v);
                    b.store(yt, &[it[0]], w);
                });
                b.tile_store(y, yt, &[i], &[tile], 1);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn k1_is_byte_identical_to_single_chip() {
        let est = estimator();
        let d = staged(4096);
        let single = est.estimate(&d);
        let p = est.estimate_partitioned(&d, 1);
        assert_eq!(p.estimate, single);
        assert_eq!(p.devices_used, 1);
        assert_eq!(p.link_cycles, 0.0);
        assert_eq!(p.per_device, vec![single.area]);
    }

    #[test]
    fn fitting_design_is_not_cut_at_k2() {
        let est = estimator();
        let d = staged(4096);
        let p = est.estimate_partitioned(&d, 2);
        assert_eq!(p.devices_used, 1);
        assert_eq!(p.estimate, est.estimate(&d));
    }

    #[test]
    fn oversized_design_becomes_feasible_when_cut() {
        let est = estimator();
        let d = staged(204_800);
        let device = &est.platform().fpga;
        let single = est.estimate(&d);
        assert!(
            !single.area.fits(device),
            "test design must overflow one device"
        );
        let p = est.estimate_partitioned(&d, 2);
        assert!(p.devices_used >= 2);
        assert!(
            p.estimate.area.fits(device),
            "per-partition max must fit one device: {:?}",
            p.estimate.area
        );
        for a in &p.per_device {
            assert!(a.fits(device));
        }
        // Link traffic costs cycles: the partitioned design is slower.
        assert!(p.link_cycles > 0.0);
        assert!(p.estimate.cycles > single.cycles);
        assert!((p.estimate.cycles - single.cycles - p.link_cycles).abs() < 1e-9);
    }

    #[test]
    fn area_max_dominates_every_device() {
        let est = estimator();
        let d = staged(262_144);
        let p = est.estimate_partitioned(&d, 4);
        for a in &p.per_device {
            assert!(a.alms <= p.estimate.area.alms);
            assert!(a.dsps <= p.estimate.area.dsps);
            assert!(a.brams <= p.estimate.area.brams);
        }
    }

    /// The public path that `estimate_partitioned` shortens by sharing
    /// one netlist: [`Estimator::estimate`], then [`partition`], which
    /// elaborates the design again, then each partition through the
    /// area model.
    fn reference(est: &Estimator, d: &Design, k: u32) -> PartitionedEstimate {
        let base = est.estimate(d);
        let multi = MultiFpgaPlatform::from_platform(est.platform(), k);
        assert_eq!(multi.device(), &est.platform().fpga);
        let parts = partition(d, multi.device(), &multi.link, k);
        let per_device: Vec<AreaReport> = parts
            .partitions
            .iter()
            .map(|p| est.area_model().estimate_net(&p.net))
            .collect();
        let link_cycles = parts.link_cycles(&multi.link);
        PartitionedEstimate {
            estimate: Estimate {
                cycles: base.cycles + link_cycles,
                area: area_max(&per_device),
            },
            per_device,
            link_cycles,
            devices_used: parts.devices_used(),
        }
    }

    /// Every field of a partitioned estimate, as bits.
    fn bits(p: &PartitionedEstimate) -> Vec<u64> {
        let area = |a: &AreaReport| [a.alms, a.regs, a.dsps, a.brams].map(f64::to_bits);
        let mut out = vec![p.estimate.cycles.to_bits(), p.link_cycles.to_bits()];
        out.extend(area(&p.estimate.area));
        out.extend(p.per_device.iter().flat_map(area));
        out.push(u64::from(p.devices_used));
        out
    }

    #[test]
    fn partitioned_estimate_equals_the_public_path() {
        let est = estimator();
        // Kept whole, cut in two, cut in four.
        for tile in [4096, 204_800, 262_144] {
            let d = staged(tile);
            for k in [2, 4] {
                assert_eq!(
                    bits(&est.estimate_partitioned(&d, k)),
                    bits(&reference(&est, &d, k)),
                    "staged({tile}) at k = {k}"
                );
            }
        }
    }

    #[test]
    fn partitioned_estimates_are_deterministic() {
        let est = estimator();
        let d = staged(262_144);
        assert_eq!(
            est.estimate_partitioned(&d, 4),
            est.estimate_partitioned(&d, 4)
        );
    }
}
