//! Per-resource objectives over explored design points.
//!
//! Besides the (cycles, ALMs) Pareto frontier, this module extracts the
//! per-resource frontiers matching each panel of Figure 5.

use crate::pareto::pareto_front;
use crate::search::{DesignPoint, DseResult};
use dhdl_target::FpgaTarget;

/// The resource axis of a Figure 5 panel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResourceAxis {
    /// Adaptive logic modules (panels A, D, G, ...).
    Alms,
    /// DSP blocks (panels B, E, H, ...).
    Dsps,
    /// Block RAMs (panels C, F, I, ...).
    Brams,
}

impl ResourceAxis {
    /// Extract the axis value from a design point.
    pub fn of(self, p: &DesignPoint) -> f64 {
        match self {
            ResourceAxis::Alms => p.area.alms,
            ResourceAxis::Dsps => p.area.dsps,
            ResourceAxis::Brams => p.area.brams,
        }
    }

    /// The device capacity along this axis.
    pub fn capacity(self, target: &FpgaTarget) -> f64 {
        match self {
            ResourceAxis::Alms => target.alms as f64,
            ResourceAxis::Dsps => target.dsps as f64,
            ResourceAxis::Brams => target.brams as f64,
        }
    }
}

/// Pareto frontier of a result along `(cycles, axis)` — the highlighted
/// points of one Figure 5 panel.
pub fn frontier_along(result: &DseResult, axis: ResourceAxis) -> Vec<usize> {
    let tuples: Vec<(f64, f64, bool)> = result
        .points
        .iter()
        .map(|p| (p.cycles, axis.of(p), p.valid))
        .collect();
    pareto_front(&tuples)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::ParamValues;
    use dhdl_target::AreaReport;

    fn point(cycles: f64, alms: f64, dsps: f64, brams: f64, valid: bool) -> DesignPoint {
        DesignPoint {
            params: ParamValues::new(),
            cycles,
            area: AreaReport {
                alms,
                regs: alms * 2.0,
                dsps,
                brams,
            },
            valid,
        }
    }

    fn result(points: Vec<DesignPoint>) -> DseResult {
        let tuples: Vec<(f64, f64, bool)> = points
            .iter()
            .map(|p| (p.cycles, p.area.alms, p.valid))
            .collect();
        let pareto = pareto_front(&tuples);
        DseResult {
            points,
            pareto,
            space_size: 0,
            discarded: 0,
            counts: crate::OutcomeCounts::default(),
            errors: Vec::new(),
            truncated: false,
            stats: crate::SweepStats::default(),
        }
    }

    #[test]
    fn per_axis_frontiers_differ() {
        // Point 1 is ALM-cheap but DSP-hungry; point 2 the reverse.
        let r = result(vec![
            point(100.0, 10.0, 90.0, 5.0, true),
            point(100.0, 90.0, 10.0, 5.0, true),
            point(50.0, 95.0, 95.0, 9.0, true),
        ]);
        let alm_front = frontier_along(&r, ResourceAxis::Alms);
        let dsp_front = frontier_along(&r, ResourceAxis::Dsps);
        assert!(alm_front.contains(&0));
        assert!(!alm_front.contains(&1));
        assert!(dsp_front.contains(&1));
        assert!(!dsp_front.contains(&0));
        // The fastest point leads both frontiers.
        assert_eq!(alm_front[0], 2);
        assert_eq!(dsp_front[0], 2);
    }

    #[test]
    fn axis_capacity_reads_target() {
        let t = FpgaTarget::stratix_v();
        assert_eq!(ResourceAxis::Alms.capacity(&t), t.alms as f64);
        assert_eq!(ResourceAxis::Dsps.capacity(&t), t.dsps as f64);
        assert_eq!(ResourceAxis::Brams.capacity(&t), t.brams as f64);
    }
}
