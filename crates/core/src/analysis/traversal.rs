//! Controller-hierarchy and memory-access queries shared by the other
//! analyses, the estimators and the partitioner.
//!
//! Both are flat: [`CtrlTree`] is a pre-order list plus a node-indexed
//! parent table, and [`for_each_access`] reports accesses to a callback
//! instead of returning sets, so the analyses `DesignBuilder::finish`
//! runs on every design point fill node-indexed tables and build no map.

use crate::design::Design;
use crate::node::{NodeId, NodeKind};

/// Marks "no parent" in [`CtrlTree`]'s table.
const NONE: u32 = u32::MAX;

/// The controller hierarchy of a design: every controller in pre-order
/// from the top and, indexed by node, each controller's parent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CtrlTree {
    order: Vec<NodeId>,
    parent: Vec<u32>,
}

impl CtrlTree {
    /// Walk the controller hierarchy of `design` once.
    pub fn of(design: &Design) -> Self {
        fn rec(design: &Design, id: NodeId, tree: &mut CtrlTree) {
            tree.order.push(id);
            for &s in design.stages(id) {
                tree.parent[s.index()] = id.index() as u32;
                rec(design, s, tree);
            }
        }
        let mut tree = CtrlTree {
            order: Vec::with_capacity(16),
            parent: vec![NONE; design.len()],
        };
        rec(design, design.top(), &mut tree);
        tree
    }

    /// All controllers in pre-order from the top (what
    /// [`Design::controllers`] returns).
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// The parent controller of `ctrl`; `None` for the top and for nodes
    /// that are not controllers of the hierarchy.
    pub fn parent(&self, ctrl: NodeId) -> Option<NodeId> {
        match self.parent.get(ctrl.index()) {
            Some(&p) if p != NONE => Some(NodeId::from_raw(p)),
            _ => None,
        }
    }

    /// Whether controller `anc` is `node` or one of its ancestors.
    pub fn is_ancestor(&self, anc: NodeId, mut node: NodeId) -> bool {
        loop {
            if node == anc {
                return true;
            }
            match self.parent(node) {
                Some(p) => node = p,
                None => return false,
            }
        }
    }
}

/// Report every on-chip memory access made by the subtree of `ctrl` as
/// `f(by, mem, read, write)`, where `by` is the accessing controller: a
/// `Pipe` (its body's loads and stores and its reduction register), a
/// tile transfer (its local buffer) or a folding outer controller (fold
/// source and accumulator). A memory is reported once per access, not
/// once per subtree.
pub fn for_each_access(
    design: &Design,
    ctrl: NodeId,
    f: &mut impl FnMut(NodeId, NodeId, bool, bool),
) {
    match design.kind(ctrl) {
        NodeKind::Pipe(p) => {
            for &n in &p.body {
                match design.kind(n) {
                    NodeKind::Load { mem, .. } => f(ctrl, *mem, true, false),
                    NodeKind::Store { mem, .. } => f(ctrl, *mem, false, true),
                    _ => {}
                }
            }
            if let Some(r) = &p.reduce {
                f(ctrl, r.reg, true, true);
            }
        }
        NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
            for &st in &s.stages {
                for_each_access(design, st, f);
            }
            if let Some(fold) = &s.fold {
                f(ctrl, fold.src, true, false);
                f(ctrl, fold.accum, true, true);
            }
        }
        NodeKind::ParallelCtrl { stages, .. } => {
            for &st in stages {
                for_each_access(design, st, f);
            }
        }
        NodeKind::TileLoad(t) => f(ctrl, t.local, false, true),
        NodeKind::TileStore(t) => f(ctrl, t.local, true, false),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::node::{by, ReduceOp};
    use crate::types::DType;

    fn sample() -> Design {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.meta_pipe(&[by(64, 16)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[16]);
                b.tile_load(x, t, &[i], &[16], 2);
                b.pipe_reduce(&[by(16, 1)], 4, acc, ReduceOp::Add, |b, it| {
                    b.load(t, &[it[0]])
                });
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn accesses_name_the_accessor_and_the_direction() {
        let d = sample();
        let mut seen = Vec::new();
        for_each_access(&d, d.top(), &mut |by, mem, r, w| seen.push((by, mem, r, w)));
        let bram = d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)))[0];
        let reg = d.find_all(|n| matches!(n.kind, NodeKind::Reg(_)))[0];
        let ctrls = d.controllers();
        let (load, pipe) = (ctrls[2], ctrls[3]);
        // The tile BRAM is written by the TileLd and read by the pipe; the
        // accumulator register is read and written by the reduce pipe.
        assert_eq!(
            seen,
            vec![
                (load, bram, false, true),
                (pipe, bram, true, false),
                (pipe, reg, true, true)
            ]
        );
        // A subtree reports only its own accesses.
        let mut of_load = 0;
        for_each_access(&d, load, &mut |_, _, _, _| of_load += 1);
        assert_eq!(of_load, 1);
    }

    #[test]
    fn parent_and_ancestor() {
        let d = sample();
        let tree = CtrlTree::of(&d);
        assert_eq!(tree.order(), d.controllers());
        // The top has no parent; every other controller reaches the top.
        assert_eq!(tree.parent(d.top()), None);
        for &c in tree.order() {
            assert!(tree.is_ancestor(d.top(), c));
        }
        let pipe = *tree.order().last().unwrap();
        assert_eq!(tree.parent(pipe), Some(tree.order()[1]));
        assert!(!tree.is_ancestor(pipe, d.top()));
        // Memories and primitives are outside the hierarchy.
        let bram = d.find_all(|n| matches!(n.kind, NodeKind::Bram(_)))[0];
        assert_eq!(tree.parent(bram), None);
    }
}
