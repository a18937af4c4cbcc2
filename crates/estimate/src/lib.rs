//! # dhdl-estimate — fast area and cycle-count estimation
//!
//! The paper's core contribution (§IV): millisecond-scale estimates of
//! FPGA resource usage and execution cycles for DHDL design instances,
//! accurate enough to drive design space exploration.
//!
//! * [`estimate_cycles`] — recursive latency analysis with the MetaPipe
//!   pipelining formula `(N−1)·max(stages) + Σ stages`, critical-path
//!   search in pipe bodies, and a contention-aware off-chip memory model;
//! * [`AreaEstimator`] — hybrid analytical + neural-network area model
//!   (§IV-B2): characterized template counts, ML-predicted routing LUTs,
//!   register duplication and unavailable LUTs, a linear model for BRAM
//!   duplication, and a LUT-packing closure;
//! * [`calibrate`] — one-time training against the synthesis model on
//!   random design samples (application-independent).
//!
//! [`Estimator::estimate`] elaborates a design exactly once and feeds
//! the one netlist to both the latency and area paths; the `_net` entry
//! points ([`Estimator::estimate_net`], [`Estimator::raw_area_net`])
//! accept a pre-built netlist for callers — the DSE hot path — that
//! already hold one.
//!
//! ```no_run
//! use dhdl_estimate::Estimator;
//! use dhdl_target::Platform;
//!
//! let platform = Platform::maia();
//! let estimator = Estimator::calibrate(&platform, 42);
//! # let design: dhdl_core::Design = unimplemented!();
//! let e = estimator.estimate(&design);
//! println!("{} cycles, {} ALMs", e.cycles, e.area.alms);
//! ```

#![warn(missing_docs)]

mod bottleneck;
mod calibrate;
mod hybrid;
mod latency;
mod multi;

pub use bottleneck::{classify, Bottleneck};
pub use calibrate::{calibrate, cross_validate, random_design, CalibrationReport, DEFAULT_SAMPLES};
pub use hybrid::{features, raw_estimate, AreaEstimator, N_FEATURES};
pub use latency::{estimate_breakdown, estimate_cycles, estimate_cycles_net, LatencyEntry};
pub use multi::PartitionedEstimate;

use dhdl_core::Design;
use dhdl_synth::{elaborate, Netlist};
use dhdl_target::{AreaReport, Platform};

/// A complete design estimate: cycles and post-place-and-route area.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Estimated execution cycles at the fabric clock.
    pub cycles: f64,
    /// Estimated area in device units.
    pub area: AreaReport,
}

impl Estimate {
    /// Whether every field is finite. The sweep runner retries a
    /// non-finite estimate as a transient fault and the estimate cache
    /// refuses to hold one.
    pub fn is_finite(&self) -> bool {
        let a = &self.area;
        [self.cycles, a.alms, a.regs, a.dsps, a.brams]
            .iter()
            .all(|v| v.is_finite())
    }

    /// The IEEE-754 bit patterns of the five fields in the order every
    /// text format writes them: cycles, alms, regs, dsps, brams. Two
    /// estimates are "the same bits" exactly when these arrays are equal
    /// (unlike `==`, which equates `0.0` with `-0.0` and no NaN with
    /// itself).
    pub fn to_bits(&self) -> [u64; 5] {
        [
            self.cycles.to_bits(),
            self.area.alms.to_bits(),
            self.area.regs.to_bits(),
            self.area.dsps.to_bits(),
            self.area.brams.to_bits(),
        ]
    }

    /// The inverse of [`Estimate::to_bits`].
    pub fn from_bits(bits: [u64; 5]) -> Self {
        let [cycles, alms, regs, dsps, brams] = bits.map(f64::from_bits);
        Estimate {
            cycles,
            area: AreaReport {
                alms,
                regs,
                dsps,
                brams,
            },
        }
    }

    /// Estimated wall-clock runtime on `platform`.
    pub fn seconds(&self, platform: &Platform) -> f64 {
        platform.cycles_to_seconds(self.cycles)
    }

    /// Estimated power draw on `platform` in watts.
    pub fn watts(&self, platform: &Platform) -> f64 {
        platform
            .power
            .watts(&self.area, platform.fpga.fabric_clock_hz)
    }

    /// Estimated energy for one execution on `platform`, in joules.
    pub fn joules(&self, platform: &Platform) -> f64 {
        platform.power.joules(
            &self.area,
            platform.fpga.fabric_clock_hz,
            self.seconds(platform),
        )
    }
}

/// The calibrated estimator: platform model plus trained area networks.
#[derive(Debug, Clone, PartialEq)]
pub struct Estimator {
    platform: Platform,
    area: AreaEstimator,
}

impl Estimator {
    /// Calibrate an estimator for `platform` with the paper's default of
    /// 200 synthesis samples.
    pub fn calibrate(platform: &Platform, seed: u64) -> Self {
        Self::calibrate_with(platform, DEFAULT_SAMPLES, seed).0
    }

    /// Calibrate with an explicit sample count, returning quality metrics.
    pub fn calibrate_with(
        platform: &Platform,
        samples: usize,
        seed: u64,
    ) -> (Self, CalibrationReport) {
        let _span = dhdl_obs::span!("calibrate", samples);
        let (area, report) = calibrate(&platform.fpga, samples, seed);
        (
            Estimator {
                platform: platform.clone(),
                area,
            },
            report,
        )
    }

    /// The platform this estimator targets.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The trained area model.
    pub fn area_model(&self) -> &AreaEstimator {
        &self.area
    }

    /// Elaborate a design against this estimator's target — the netlist
    /// both estimate paths consume. Callers that need several views of
    /// one design (estimate + raw area + place-and-route) should
    /// elaborate once and use the `_net` entry points.
    pub fn elaborate(&self, design: &Design) -> Netlist {
        elaborate(design, &self.platform.fpga)
    }

    /// Estimate cycles and area for a design instance.
    ///
    /// The design is elaborated exactly once; the same netlist feeds the
    /// latency path (recorded pipe depths) and the area path.
    pub fn estimate(&self, design: &Design) -> Estimate {
        let net = self.elaborate(design);
        self.estimate_net(design, &net)
    }

    /// [`Estimator::estimate`] on an already-elaborated netlist of the
    /// same design. No further elaboration happens.
    pub fn estimate_net(&self, design: &Design, net: &Netlist) -> Estimate {
        let _span = dhdl_obs::span!("estimate_net");
        let cycles = {
            let _t = dhdl_obs::histogram!("estimate.latency_ns").timer();
            estimate_cycles_net(design, &self.platform, net)
        };
        let area = {
            let _t = dhdl_obs::histogram!("estimate.area_ns").timer();
            self.area.estimate_net(net)
        };
        Estimate { cycles, area }
    }

    /// Estimate only the area of a design instance.
    pub fn area(&self, design: &Design) -> AreaReport {
        self.area.estimate(design, &self.platform.fpga)
    }

    /// Estimate only the cycle count of a design instance.
    pub fn cycles(&self, design: &Design) -> f64 {
        estimate_cycles(design, &self.platform)
    }

    /// Raw analytical area estimate without the learned correction (the
    /// ablation baseline of DESIGN.md).
    pub fn raw_area(&self, design: &Design) -> AreaReport {
        self.raw_area_net(&self.elaborate(design))
    }

    /// [`Estimator::raw_area`] on an already-elaborated netlist.
    pub fn raw_area_net(&self, net: &Netlist) -> AreaReport {
        raw_estimate(net, &self.platform.fpga)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};

    fn small_design() -> Design {
        let mut b = DesignBuilder::new("e2e");
        let x = b.off_chip("x", DType::F32, &[512]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.meta_pipe(&[by(512, 64)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[64]);
                b.tile_load(x, t, &[i], &[64], 2);
                b.pipe_reduce(&[by(64, 1)], 2, acc, ReduceOp::Add, |b, it| {
                    let v = b.load(t, &[it[0]]);
                    b.mul(v, v)
                });
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn end_to_end_estimate() {
        let platform = Platform::maia();
        let (est, _) = Estimator::calibrate_with(&platform, 40, 3);
        let e = est.estimate(&small_design());
        assert!(e.cycles > 0.0);
        assert!(e.area.alms > 0.0);
        assert!(e.seconds(&platform) > 0.0);
        // Raw estimate differs from the corrected one.
        let raw = est.raw_area(&small_design());
        assert_ne!(raw.alms, e.area.alms);
    }

    #[test]
    fn shared_netlist_paths_match_per_call_paths() {
        let platform = Platform::maia();
        let (est, _) = Estimator::calibrate_with(&platform, 30, 7);
        let d = small_design();
        let net = est.elaborate(&d);
        // One elaboration feeding both paths gives exactly the per-call
        // results (the cache relies on this equivalence being bit-exact).
        assert_eq!(est.estimate_net(&d, &net), est.estimate(&d));
        assert_eq!(est.estimate(&d).area, est.area(&d));
        assert_eq!(est.estimate(&d).cycles, est.cycles(&d));
        assert_eq!(est.raw_area_net(&net), est.raw_area(&d));
    }

    #[test]
    fn bits_round_trip_in_format_order_and_finiteness_covers_every_field() {
        let e = Estimate::from_bits([1.5f64, 2.0, -0.0, 4.0, 5.0].map(f64::to_bits));
        assert_eq!((e.cycles, e.area.alms), (1.5, 2.0));
        assert_eq!((e.area.dsps, e.area.brams), (4.0, 5.0));
        assert_eq!(Estimate::from_bits(e.to_bits()).to_bits(), e.to_bits());
        // `==` cannot tell the zeros apart; the bits can.
        let mut pos = e;
        pos.area.regs = 0.0;
        assert_eq!(pos, e);
        assert_ne!(pos.to_bits(), e.to_bits());
        assert!(e.is_finite());
        for field in 0..5 {
            for bad in [f64::NAN, f64::INFINITY] {
                let mut bits = e.to_bits();
                bits[field] = bad.to_bits();
                assert!(!Estimate::from_bits(bits).is_finite());
            }
        }
    }

    #[test]
    fn calibration_is_a_pure_function_of_platform_samples_and_seed() {
        // Nothing persists a trained model: every caller recalibrates, so
        // the same inputs must give the same estimator, bit for bit.
        let platform = Platform::maia();
        let (est, _) = Estimator::calibrate_with(&platform, 30, 5);
        assert_eq!(est, Estimator::calibrate_with(&platform, 30, 5).0);
        assert_ne!(est, Estimator::calibrate_with(&platform, 30, 6).0);
    }
}
