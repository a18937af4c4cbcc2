//! Whole-design statistics, used as features by the hybrid area estimator
//! and for reporting.

use crate::design::Design;
use crate::node::NodeKind;

/// Summary statistics of a design instance.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DesignStats {
    /// Total nodes in the arena.
    pub nodes: usize,
    /// Primitive dataflow nodes (including loads/stores/constants).
    pub primitives: usize,
    /// On-chip memories.
    pub memories: usize,
    /// Controllers of all kinds.
    pub controllers: usize,
    /// Off-chip tile transfers.
    pub transfers: usize,
    /// Maximum controller nesting depth.
    pub depth: usize,
    /// Dataflow edges between primitives.
    pub edges: usize,
    /// Sum of primitive vector widths (a proxy for replicated compute).
    pub total_width: u64,
    /// Total on-chip BRAM bits (logical, before banking/duplication).
    pub bram_bits: u64,
    /// Number of double-buffered memories.
    pub double_buffered: usize,
    /// Sum of BRAM banking factors.
    pub total_banks: u64,
}

impl DesignStats {
    /// Compute statistics for a design.
    pub fn of(design: &Design) -> Self {
        let mut s = DesignStats {
            nodes: design.len(),
            depth: design.nesting_depth(),
            ..Default::default()
        };
        for (id, node) in design.iter() {
            match &node.kind {
                k if k.is_primitive() => {
                    s.primitives += 1;
                    s.total_width += u64::from(node.width);
                    s.edges += design.prim_inputs(id).count();
                }
                NodeKind::Bram(b) => {
                    s.memories += 1;
                    s.bram_bits += b.elements() * u64::from(node.ty.bits());
                    s.total_banks += u64::from(b.banks);
                    if b.double_buf {
                        s.double_buffered += 1;
                    }
                }
                NodeKind::Reg(r) => {
                    s.memories += 1;
                    if r.double_buf {
                        s.double_buffered += 1;
                    }
                }
                NodeKind::PriorityQueue(q) => {
                    s.memories += 1;
                    if q.double_buf {
                        s.double_buffered += 1;
                    }
                }
                NodeKind::TileLoad(_) | NodeKind::TileStore(_) => {
                    s.transfers += 1;
                    s.controllers += 1;
                }
                k if k.is_controller() => s.controllers += 1,
                _ => {}
            }
        }
        s
    }

    /// Average vector width of primitives (1.0 for an empty design).
    pub fn avg_width(&self) -> f64 {
        if self.primitives == 0 {
            1.0
        } else {
            self.total_width as f64 / self.primitives as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::node::by;
    use crate::types::DType;

    #[test]
    fn stats_count_expected_shapes() {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[16]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[16], 1);
            b.pipe(&[by(16, 1)], 2, |b, it| {
                let v = b.load(t, &[it[0]]);
                let w = b.mul(v, v);
                b.store(t, &[it[0]], w);
            });
        });
        let d = b.finish().unwrap();
        let s = DesignStats::of(&d);
        assert_eq!(s.memories, 1);
        assert_eq!(s.transfers, 1);
        assert_eq!(s.controllers, 3); // Sequential, TileLd, Pipe
        assert_eq!(s.bram_bits, 16 * 32);
        assert!(s.primitives >= 3);
        assert!(s.avg_width() > 1.0); // pipe body is width 2
        assert_eq!(s.depth, 2);
    }
}
