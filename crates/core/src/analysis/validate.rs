//! Structural validation of finished designs.

use crate::analysis::traversal::CtrlTree;
use crate::design::Design;
use crate::error::{DhdlError, Result};
use crate::node::{NodeId, NodeKind, TileSpec};
use crate::types::DType;

/// Check structural legality of a design.
///
/// Verifies that:
/// * the top node is a controller;
/// * outer controllers have at least one stage (or a fold);
/// * loads/stores address memories with the right number of dimensions;
/// * tile transfers are dimensionally consistent and their offsets are
///   constants or in-scope loop iterators;
/// * mux selects are boolean;
/// * fold sources/accumulators are BRAMs of equal element count;
/// * parallelization factors are nonzero.
///
/// # Errors
///
/// Returns a [`DhdlError`] describing the first violation found.
pub fn check(design: &Design, tree: &CtrlTree) -> Result<()> {
    if !design.kind(design.top()).is_controller() {
        return Err(DhdlError::Validation("top node is not a controller".into()));
    }
    for &ctrl in tree.order() {
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => {
                if p.par == 0 {
                    return Err(DhdlError::Validation(format!(
                        "Pipe {ctrl} has parallelization factor 0"
                    )));
                }
                if p.body.is_empty() {
                    return Err(DhdlError::Validation(format!("Pipe {ctrl} has empty body")));
                }
                for &n in &p.body {
                    check_primitive(design, tree, ctrl, n)?;
                }
                if let Some(r) = &p.reduce {
                    if !matches!(design.kind(r.reg), NodeKind::Reg(_)) {
                        return Err(DhdlError::InvalidReference {
                            node: r.reg,
                            reason: "reduce accumulator must be a Reg".into(),
                        });
                    }
                }
            }
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                if s.par == 0 {
                    return Err(DhdlError::Validation(format!(
                        "controller {ctrl} has parallelization factor 0"
                    )));
                }
                if s.stages.is_empty() {
                    return Err(DhdlError::Validation(format!(
                        "outer controller {ctrl} has no stages"
                    )));
                }
                if let Some(f) = &s.fold {
                    check_fold(design, f.src, f.accum)?;
                }
            }
            NodeKind::ParallelCtrl { stages, .. } if stages.is_empty() => {
                return Err(DhdlError::Validation(format!(
                    "Parallel container {ctrl} has no stages"
                )));
            }
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                check_tile(design, tree, ctrl, t)?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn check_fold(design: &Design, src: NodeId, accum: NodeId) -> Result<()> {
    match (design.kind(src), design.kind(accum)) {
        (NodeKind::Bram(a), NodeKind::Bram(b)) => {
            if a.elements() != b.elements() {
                return Err(DhdlError::Validation(format!(
                    "fold source {src} has {} elements but accumulator {accum} has {}",
                    a.elements(),
                    b.elements()
                )));
            }
            Ok(())
        }
        (NodeKind::Reg(_), NodeKind::Reg(_)) => Ok(()),
        _ => Err(DhdlError::InvalidReference {
            node: accum,
            reason: "fold source and accumulator must both be BRAMs or both Regs".into(),
        }),
    }
}

fn check_tile(design: &Design, tree: &CtrlTree, ctrl: NodeId, t: &TileSpec) -> Result<()> {
    let NodeKind::OffChip { dims } = design.kind(t.offchip) else {
        return Err(DhdlError::InvalidReference {
            node: t.offchip,
            reason: "tile transfer target is not an OffChipMem".into(),
        });
    };
    if t.offsets.len() != dims.len() || t.tile.len() != dims.len() {
        return Err(DhdlError::Validation(format!(
            "tile transfer {ctrl}: offsets/tile rank must match off-chip rank {}",
            dims.len()
        )));
    }
    if t.par == 0 {
        return Err(DhdlError::Validation(format!(
            "tile transfer {ctrl} has parallelization factor 0"
        )));
    }
    let NodeKind::Bram(local) = design.kind(t.local) else {
        return Err(DhdlError::InvalidReference {
            node: t.local,
            reason: "tile transfer local buffer must be a BRAM".into(),
        });
    };
    if t.elements() > local.elements() {
        return Err(DhdlError::Validation(format!(
            "tile transfer {ctrl} moves {} elements into a {}-element buffer",
            t.elements(),
            local.elements()
        )));
    }
    for &off in &t.offsets {
        match design.kind(off) {
            NodeKind::Const(_) => {}
            NodeKind::Iter { ctrl: owner, .. } => {
                if !tree.is_ancestor(*owner, ctrl) {
                    return Err(DhdlError::InvalidReference {
                        node: off,
                        reason: format!("iterator of {owner} is not in scope at {ctrl}"),
                    });
                }
            }
            _ => {
                return Err(DhdlError::InvalidReference {
                    node: off,
                    reason: "tile offsets must be constants or loop iterators".into(),
                })
            }
        }
    }
    Ok(())
}

fn check_primitive(design: &Design, tree: &CtrlTree, pipe: NodeId, n: NodeId) -> Result<()> {
    match design.kind(n) {
        NodeKind::Load { mem, addr } => check_addr(design, *mem, addr),
        NodeKind::Store { mem, addr, .. } => check_addr(design, *mem, addr),
        NodeKind::Mux { sel, .. } => {
            if design.ty(*sel) != DType::Bool {
                return Err(DhdlError::Type(format!(
                    "mux {n} select must be bool, got {}",
                    design.ty(*sel)
                )));
            }
            Ok(())
        }
        NodeKind::Prim { inputs, op } => {
            for &i in inputs {
                if let NodeKind::Iter { ctrl: owner, .. } = design.kind(i) {
                    if !tree.is_ancestor(*owner, pipe) {
                        return Err(DhdlError::InvalidReference {
                            node: i,
                            reason: format!("iterator used by `{op}` is out of scope in {pipe}"),
                        });
                    }
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

fn check_addr(design: &Design, mem: NodeId, addr: &[NodeId]) -> Result<()> {
    let expected = match design.kind(mem) {
        NodeKind::Bram(b) => b.dims.len(),
        NodeKind::Reg(_) => 0,
        NodeKind::PriorityQueue(_) => 0,
        _ => {
            return Err(DhdlError::InvalidReference {
                node: mem,
                reason: "memory access target is not an on-chip memory".into(),
            })
        }
    };
    if addr.len() != expected {
        return Err(DhdlError::Validation(format!(
            "access to {mem} uses {} address dims, memory has {expected}",
            addr.len()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::builder::DesignBuilder;
    use crate::error::DhdlError;
    use crate::node::by;
    use crate::types::DType;

    #[test]
    fn wrong_address_rank_rejected() {
        let mut b = DesignBuilder::new("bad");
        b.sequential(|b| {
            let m = b.bram("m", DType::F32, &[4, 4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let v = b.load(m, &[it[0]]); // rank 1 access to rank 2 memory
                b.store(m, &[it[0], it[0]], v);
            });
        });
        assert!(matches!(b.finish(), Err(DhdlError::Validation(_))));
    }

    #[test]
    fn tile_rank_mismatch_rejected() {
        let mut b = DesignBuilder::new("bad");
        let x = b.off_chip("x", DType::F32, &[8, 8]);
        b.sequential(|b| {
            let m = b.bram("m", DType::F32, &[8]);
            let z = b.index_const(0);
            b.tile_load(x, m, &[z], &[8], 1); // rank 1 offsets for rank 2 mem
        });
        assert!(matches!(b.finish(), Err(DhdlError::Validation(_))));
    }

    #[test]
    fn tile_overflow_rejected() {
        let mut b = DesignBuilder::new("bad");
        let x = b.off_chip("x", DType::F32, &[64]);
        b.sequential(|b| {
            let m = b.bram("m", DType::F32, &[8]);
            let z = b.index_const(0);
            b.tile_load(x, m, &[z], &[16], 1); // 16 elements into 8-slot BRAM
        });
        assert!(matches!(b.finish(), Err(DhdlError::Validation(_))));
    }

    #[test]
    fn out_of_scope_iterator_rejected() {
        let mut b = DesignBuilder::new("bad");
        let x = b.off_chip("x", DType::F32, &[64]);
        let mut leaked = None;
        b.sequential(|b| {
            b.meta_pipe(&[by(64, 16)], 1, |b, iters| {
                leaked = Some(iters[0]);
                let t = b.bram("t", DType::F32, &[16]);
                b.tile_load(x, t, &[iters[0]], &[16], 1);
            });
            // Use the leaked iterator outside its controller.
            let t2 = b.bram("t2", DType::F32, &[16]);
            b.tile_load(x, t2, &[leaked.unwrap()], &[16], 1);
        });
        // The leaked iterator's owner is a sibling, not an ancestor.
        assert!(matches!(
            b.finish(),
            Err(DhdlError::InvalidReference { .. })
        ));
    }
}
