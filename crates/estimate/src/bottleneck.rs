//! Boundedness classification of design points.
//!
//! §V-C1 analyzes every benchmark in terms of what limits it: off-chip
//! bandwidth (dotproduct, tpchq6), ALMs (blackscholes, kmeans), BRAM
//! (outerprod, gemm) or compute depth (gda). This module performs that
//! classification automatically from a design's estimates: the resource
//! closest to capacity if the design is near-full, otherwise whether its
//! netlist's latency plan attributes runtime to transfers or compute.

use dhdl_core::{Design, NodeKind};
use dhdl_synth::Netlist;
use dhdl_target::Platform;

use crate::latency::estimate_breakdown;
use crate::Estimate;

/// What limits a design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bottleneck {
    /// Off-chip bandwidth: transfers dominate the critical controllers.
    Memory,
    /// Compute: pipelines dominate and ALMs/DSPs are the binding resource.
    Compute,
    /// ALM capacity limits further parallelization.
    Alms,
    /// DSP capacity limits further parallelization.
    Dsps,
    /// Block RAM capacity limits tile sizes.
    Brams,
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Bottleneck::Memory => "memory-bound",
            Bottleneck::Compute => "compute-bound",
            Bottleneck::Alms => "ALM-bound",
            Bottleneck::Dsps => "DSP-bound",
            Bottleneck::Brams => "BRAM-bound",
        };
        f.write_str(s)
    }
}

/// Utilization threshold above which a resource is considered binding.
const RESOURCE_BOUND: f64 = 0.75;

/// Classify what limits a design point, given its estimate and the
/// netlist it was made from, whose runtime [`estimate_breakdown`] splits.
pub fn classify(design: &Design, est: &Estimate, platform: &Platform, net: &Netlist) -> Bottleneck {
    // Resource-bound if any resource is close to capacity.
    let (alm, dsp, bram) = est.area.utilization(&platform.fpga);
    let resources = [
        (alm, Bottleneck::Alms),
        (dsp, Bottleneck::Dsps),
        (bram, Bottleneck::Brams),
    ];
    if let Some(&(_, which)) = resources
        .iter()
        .filter(|(u, _)| *u >= RESOURCE_BOUND)
        .max_by(|a, b| a.0.total_cmp(&b.0))
    {
        return which;
    }
    // Otherwise attribute runtime: compare transfer-controller time with
    // compute-controller time among leaf controllers.
    let mut transfer = 0.0;
    let mut compute = 0.0;
    for e in estimate_breakdown(design, platform, net) {
        match design.kind(e.ctrl) {
            NodeKind::TileLoad(_) | NodeKind::TileStore(_) => transfer += e.total,
            NodeKind::Pipe(_) => compute += e.total,
            _ => {}
        }
    }
    if transfer >= compute {
        Bottleneck::Memory
    } else {
        Bottleneck::Compute
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Estimator;
    use dhdl_core::{by, DType, DesignBuilder};

    fn estimator() -> Estimator {
        Estimator::calibrate_with(&Platform::maia(), 30, 44).0
    }

    /// A streaming copy: almost no compute, all transfer.
    fn streaming() -> Design {
        let n = 65_536u64;
        let mut b = DesignBuilder::new("copy");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.meta_pipe(&[by(n, 4096)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[4096]);
                b.tile_load(x, t, &[i], &[4096], 1);
                b.pipe(&[by(4096, 1)], 16, |b, it| {
                    let v = b.load(t, &[it[0]]);
                    let one = b.constant(1.0, DType::F32);
                    let w = b.add(v, one);
                    b.store(t, &[it[0]], w);
                });
                b.tile_store(y, t, &[i], &[4096], 1);
            });
        });
        b.finish().unwrap()
    }

    /// A deep compute kernel over a tiny dataset.
    fn computational() -> Design {
        let n = 1_024u64;
        let mut b = DesignBuilder::new("deep");
        let x = b.off_chip("x", DType::F32, &[n]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[n]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[n], 1);
            b.pipe(&[by(n, 1)], 1, |b, it| {
                let mut v = b.load(t, &[it[0]]);
                for _ in 0..6 {
                    v = b.sqrt(v);
                    v = b.exp(v);
                }
                b.store(t, &[it[0]], v);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn streaming_is_memory_bound() {
        let est = estimator();
        let d = streaming();
        let e = est.estimate(&d);
        let net = est.elaborate(&d);
        assert_eq!(classify(&d, &e, est.platform(), &net), Bottleneck::Memory);
    }

    #[test]
    fn deep_pipelines_are_compute_bound() {
        let est = estimator();
        let d = computational();
        let e = est.estimate(&d);
        let net = est.elaborate(&d);
        assert_eq!(classify(&d, &e, est.platform(), &net), Bottleneck::Compute);
    }

    #[test]
    fn saturated_resources_win() {
        let est = estimator();
        let d = streaming();
        let mut e = est.estimate(&d);
        e.area.brams = est.platform().fpga.brams as f64 * 0.9;
        let net = est.elaborate(&d);
        assert_eq!(classify(&d, &e, est.platform(), &net), Bottleneck::Brams);
        assert_eq!(Bottleneck::Brams.to_string(), "BRAM-bound");
    }
}
