//! Automatic banking of on-chip memories.
//!
//! The banking factor for a BRAM node is calculated automatically using the
//! vector widths and access patterns of all the `Ld` and `St` nodes accessing
//! it, such that the required memory bandwidth can be met (§III-B2). This
//! eliminates banks as an independent design-space variable (§IV-C).

use crate::analysis::traversal::for_each_access;
use crate::design::Design;
use crate::node::{Interleaving, NodeKind};

/// Infer and set the banking factor and interleaving scheme of every BRAM
/// in the design.
///
/// Each BRAM's banking factor is the maximum access parallelism over all of
/// its accessors: `Pipe` accessors contribute their parallelization factor,
/// tile transfers their port parallelization factor and folding
/// controllers their own factor. The interleaving scheme is cyclic when
/// parallel `Pipe` lanes touch the memory (unit-stride vector access) and
/// blocked when only tile transfers do (streaming bursts).
pub fn infer(design: &mut Design) {
    // Per node: the widest accessor, and whether a parallel Pipe is one.
    let mut widest = vec![(1u32, false); design.len()];
    for_each_access(design, design.top(), &mut |by, mem, _, _| {
        let (par, pipe) = match design.kind(by) {
            NodeKind::Pipe(p) => (p.par, true),
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => (t.par, false),
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => (s.par, false),
            _ => (1, false),
        };
        let (banks, cyclic) = &mut widest[mem.index()];
        *banks = (*banks).max(par);
        *cyclic |= pipe && par > 1;
    });
    for (node, (banks, cyclic)) in design.nodes_mut().iter_mut().zip(widest) {
        if let NodeKind::Bram(spec) = &mut node.kind {
            spec.banks = banks;
            spec.interleave = if cyclic {
                Interleaving::Cyclic
            } else {
                Interleaving::Blocked
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DesignBuilder;
    use crate::node::{by, NodeKind, ReduceOp};
    use crate::types::DType;

    #[test]
    fn banks_match_max_parallelism() {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            let t = b.bram("t", DType::F32, &[64]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[64], 4);
            b.pipe_reduce(&[by(64, 1)], 8, acc, ReduceOp::Add, |b, it| {
                b.load(t, &[it[0]])
            });
        });
        let d = b.finish().unwrap();
        let bram = d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)))[0];
        match d.kind(bram) {
            NodeKind::Bram(s) => {
                assert_eq!(s.banks, 8);
                // Parallel pipe lanes demand cyclic interleaving.
                assert_eq!(s.interleave, crate::node::Interleaving::Cyclic);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn unaccessed_bram_has_one_bank() {
        let mut b = DesignBuilder::new("t");
        b.sequential(|b| {
            let _unused = b.bram("u", DType::F32, &[16]);
            let m = b.bram("m", DType::F32, &[16]);
            b.pipe(&[by(16, 1)], 1, |b, it| {
                let c = b.constant(0.0, DType::F32);
                b.store(m, &[it[0]], c);
            });
        });
        let d = b.finish().unwrap();
        for bram in d.find_all(|n| matches!(n.kind, NodeKind::Bram(_))) {
            if let NodeKind::Bram(s) = d.kind(bram) {
                assert_eq!(s.banks, 1);
            }
        }
    }
}
