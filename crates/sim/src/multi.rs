//! Multi-device simulation: a design under a [`Partitioning`].
//!
//! Partitioning never changes what a design computes, nor the schedule
//! that computes it — the cut moves controllers onto other devices, every
//! cut memory edge becomes an inter-board channel that streams exactly
//! the values the on-chip memory would have held, and partitions still
//! synchronize through their parents, now across the link. The run of a
//! partitioned design is therefore the single-device run, and what a cut
//! adds is time: [`simulate_partitioned`] is [`simulate_compiled`] on the
//! base platform plus the exposed link cycles of the plan's channels
//! ([`Partitioning::link_cycles`]: stream occupancy serialized on the
//! shared link bandwidth, plus first-word latency per refill for
//! channels in sequential scopes).

use dhdl_core::Design;
use dhdl_synth::partition::Partitioning;
use dhdl_target::MultiFpgaPlatform;

use crate::compile::simulate_compiled;
use crate::error::Result;
use crate::interp::{Bindings, SimResult};

/// The result of a multi-device simulation.
#[derive(Debug, Clone)]
pub struct MultiSimResult {
    /// The functional simulation result. `result.cycles` includes the
    /// exposed link cycles; everything else is bit-identical to the
    /// unpartitioned run.
    pub result: SimResult,
    /// Exposed inter-board link cycles included in `result.cycles`
    /// (zero when the design was not cut).
    pub link_cycles: f64,
    /// Devices the partitioning actually uses (1 means the design ran
    /// whole on one device).
    pub devices_used: u32,
}

/// Simulate a design under an already-computed [`Partitioning`]: the
/// single-device run with `parts.link_cycles(&multi.link)` added to the
/// cycle count — exactly `0.0` for a plan without channels, so an uncut
/// plan is bit-identical to [`simulate_compiled`] on the base platform.
///
/// # Errors
///
/// Exactly the errors of [`simulate_compiled`].
pub fn simulate_partitioned(
    design: &Design,
    multi: &MultiFpgaPlatform,
    parts: &Partitioning,
    bindings: &Bindings,
) -> Result<MultiSimResult> {
    let mut result = simulate_compiled(design, &multi.base, bindings)?;
    let link_cycles = parts.link_cycles(&multi.link);
    result.cycles += link_cycles;
    Ok(MultiSimResult {
        result,
        link_cycles,
        devices_used: parts.devices_used(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::simulate;
    use dhdl_core::{by, DType, DesignBuilder};
    use dhdl_synth::partition::{partition, Channel, CutKind, Partition};
    use dhdl_synth::Netlist;
    use dhdl_target::{Platform, Resources};

    /// A small tiled square-then-double chain with real outputs.
    fn chain() -> Design {
        let n = 256u64;
        let tile = 64u64;
        let mut b = DesignBuilder::new("chain");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let mt = b.bram("mT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], 1);
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.pipe(&[by(tile, 1)], 1, |b, it| {
                    let v = b.load(mt, &[it[0]]);
                    let w = b.add(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.tile_store(y, mt, &[i], &[tile], 1);
            });
        });
        b.finish().unwrap()
    }

    fn inputs() -> Bindings {
        Bindings::new().bind("x", (0..256).map(f64::from).collect())
    }

    /// A hand-built two-device partitioning over `chain()` — small
    /// designs are never cut by the placer, so timing composition is
    /// tested against a synthetic cut with known channel traffic.
    fn synthetic_cut(design: &Design) -> Partitioning {
        let mem = design.find_all(|n| n.name.as_deref() == Some("mT"))[0];
        let on = |device| Partition {
            device,
            units: vec![],
            net: Netlist::default(),
            endpoints: Resources::default(),
        };
        Partitioning {
            num_devices: 2,
            cut: CutKind::LeafRanges,
            partitions: vec![on(0), on(1)],
            channels: vec![Channel {
                src: 0,
                dst: 1,
                mem,
                words: 64,
                word_bits: 32,
                transfers: 4,
                overlapped: false,
            }],
        }
    }

    /// The placer's plan for `chain()` at budget `k` is the single plan,
    /// and the run under it is the interpreter's run bit for bit.
    fn assert_single_plan_is_the_single_board_run(k: u32) {
        let d = chain();
        let multi = MultiFpgaPlatform::from_platform(&Platform::maia(), k);
        let parts = partition(&d, multi.device(), &multi.link, k);
        assert!(parts.is_single());
        let base = simulate(&d, &multi.base, &inputs()).unwrap();
        let m = simulate_partitioned(&d, &multi, &parts, &inputs()).unwrap();
        assert_eq!(m.devices_used, 1);
        assert_eq!(m.link_cycles.to_bits(), 0.0f64.to_bits());
        assert_eq!(base.bit_diff(&m.result), None);
    }

    #[test]
    fn k1_is_identical_to_single_board() {
        assert_single_plan_is_the_single_board_run(1);
    }

    #[test]
    fn small_design_stays_whole_at_k4() {
        assert_single_plan_is_the_single_board_run(4);
    }

    #[test]
    fn cut_preserves_outputs_and_adds_link_cycles() {
        let d = chain();
        let p = Platform::maia();
        let multi = MultiFpgaPlatform::from_platform(&p, 2);
        let parts = synthetic_cut(&d);
        assert!(!parts.is_single());
        let base = simulate(&d, &p, &inputs()).unwrap();
        let mut m = simulate_partitioned(&d, &multi, &parts, &inputs()).unwrap();
        // Cycles grow by exactly the exposed link cycles.
        let expected = parts.link_cycles(&multi.link);
        assert!(expected > 0.0);
        assert_eq!(m.link_cycles, expected);
        assert_eq!(m.result.cycles, base.cycles + expected);
        assert_eq!(m.devices_used, 2);
        // Everything else is the interpreter's run: partitioning never
        // changes values, transfers, profile or trace.
        m.result.cycles = base.cycles;
        assert_eq!(base.bit_diff(&m.result), None);
    }
}
