//! The [`Design`]: an arena-allocated, hierarchical dataflow graph.

use std::fmt;

use crate::error::{DhdlError, Result};
use crate::node::{Ids, Node, NodeId, NodeKind};
use crate::small::ShortStr;
use crate::types::DType;

/// A complete DHDL design instance: a hierarchical dataflow graph with one
/// root controller and a set of off-chip memory declarations.
///
/// A `Design` is produced by a [`crate::DesignBuilder`] metaprogram for a
/// concrete set of parameter values; different parameter values produce
/// different `Design` instances from the same source (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    name: ShortStr,
    nodes: Vec<Node>,
    top: NodeId,
    offchips: Ids,
}

impl Design {
    pub(crate) fn from_parts(name: ShortStr, nodes: Vec<Node>, top: NodeId, offchips: Ids) -> Self {
        Design {
            name,
            nodes,
            top,
            offchips,
        }
    }

    /// Every field, for [`crate::structural_hash`]: destructured with no
    /// `..`, so a field added to `Design` does not compile until the hash
    /// covers it.
    pub(crate) fn parts(&self) -> (&str, &[Node], NodeId, &[NodeId]) {
        let Design {
            name,
            nodes,
            top,
            offchips,
        } = self;
        (name, nodes, *top, offchips)
    }

    /// The design's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The root controller node.
    pub fn top(&self) -> NodeId {
        self.top
    }

    /// Off-chip memories declared by the design, in declaration order.
    pub fn offchips(&self) -> &[NodeId] {
        &self.offchips
    }

    /// Number of nodes in the arena.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the design has no nodes (never true for built designs).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this design.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Mutable access to a node, used by analysis passes that annotate the
    /// graph (banking, double-buffering).
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Every node in arena order, for the analyses that annotate the
    /// whole graph in one pass.
    pub(crate) fn nodes_mut(&mut self) -> &mut [Node] {
        &mut self.nodes
    }

    /// The template kind of a node.
    pub fn kind(&self, id: NodeId) -> &NodeKind {
        &self.node(id).kind
    }

    /// The element type of a node.
    pub fn ty(&self, id: NodeId) -> DType {
        self.node(id).ty
    }

    /// Iterate over all `(id, node)` pairs in creation order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (NodeId::from_raw(i as u32), n))
    }

    /// Ids of all nodes matching a predicate.
    pub fn find_all(&self, mut pred: impl FnMut(&Node) -> bool) -> Vec<NodeId> {
        self.iter()
            .filter(|(_, n)| pred(n))
            .map(|(id, _)| id)
            .collect()
    }

    /// Look up an off-chip memory by name.
    ///
    /// # Errors
    ///
    /// Returns [`DhdlError::InvalidReference`] if no off-chip memory has the
    /// given name.
    pub fn offchip_by_name(&self, name: &str) -> Result<NodeId> {
        self.offchips
            .iter()
            .copied()
            .find(|&id| self.node(id).name.as_deref() == Some(name))
            .ok_or_else(|| DhdlError::InvalidReference {
                node: self.top,
                reason: format!("no off-chip memory named `{name}`"),
            })
    }

    /// Direct child controllers (stages) of a controller node.
    ///
    /// Returns an empty slice for leaf controllers (`Pipe`, `TileLd`,
    /// `TileSt`) and non-controllers.
    pub fn stages(&self, id: NodeId) -> &[NodeId] {
        match &self.node(id).kind {
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => &s.stages,
            NodeKind::ParallelCtrl { stages, .. } => stages,
            _ => &[],
        }
    }

    /// Memories declared in a controller's scope.
    pub fn locals(&self, id: NodeId) -> &[NodeId] {
        match &self.node(id).kind {
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => &s.locals,
            NodeKind::ParallelCtrl { locals, .. } => locals,
            _ => &[],
        }
    }

    /// Walk the controller hierarchy depth-first (pre-order) starting at
    /// `root`, invoking `f` with `(depth, id)`.
    pub fn walk_controllers(&self, root: NodeId, f: &mut impl FnMut(usize, NodeId)) {
        fn rec(d: &Design, depth: usize, id: NodeId, f: &mut impl FnMut(usize, NodeId)) {
            f(depth, id);
            for &s in d.stages(id) {
                rec(d, depth + 1, s, f);
            }
        }
        rec(self, 0, root, f);
    }

    /// All controllers in the design in pre-order from the top.
    pub fn controllers(&self) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.walk_controllers(self.top, &mut |_, id| out.push(id));
        out
    }

    /// Maximum controller nesting depth of the design.
    pub fn nesting_depth(&self) -> usize {
        let mut max = 0;
        self.walk_controllers(self.top, &mut |d, _| max = max.max(d));
        max + 1
    }

    /// All on-chip memories declared anywhere in the design.
    pub fn onchip_mems(&self) -> Vec<NodeId> {
        self.find_all(|n| n.kind.is_onchip_mem())
    }

    /// Value operand ids of a primitive body node (for dataflow traversal
    /// inside `Pipe` bodies). Memory references are *not* included; loop
    /// iterators and constants are.
    pub fn prim_inputs(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let (list, rest): (&[NodeId], [Option<NodeId>; 3]) = match &self.node(id).kind {
            NodeKind::Prim { inputs, .. } => (inputs, [None; 3]),
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => (&[], [Some(*sel), Some(*if_true), Some(*if_false)]),
            NodeKind::Load { addr, .. } => (addr, [None; 3]),
            NodeKind::Store { addr, value, .. } => (addr, [Some(*value), None, None]),
            _ => (&[], [None; 3]),
        };
        list.iter().copied().chain(rest.into_iter().flatten())
    }
}

impl fmt::Display for Design {
    /// Pretty-print the controller hierarchy, one line per controller.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "design {} ({} nodes)", self.name, self.len())?;
        let mut lines = Vec::new();
        self.walk_controllers(self.top, &mut |depth, id| {
            let n = self.node(id);
            let label = n.name.as_deref().unwrap_or("");
            lines.push(format!(
                "{}{} {} {}",
                "  ".repeat(depth + 1),
                n.kind.template_name(),
                id,
                label
            ));
        });
        for l in lines {
            writeln!(f, "{l}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::DesignBuilder;
    use crate::node::by;
    use crate::types::DType;

    #[test]
    fn walk_and_depth() {
        let mut b = DesignBuilder::new("t");
        let x = b.off_chip("x", DType::F32, &[64]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[16]);
            b.meta_pipe(&[by(64, 16)], 1, |b, iters| {
                let i = iters[0];
                b.tile_load(x, t, &[i], &[16], 1);
            });
        });
        let d = b.finish().unwrap();
        assert_eq!(d.nesting_depth(), 3); // Sequential -> MetaPipe -> TileLd
        assert_eq!(d.controllers().len(), 3);
        assert_eq!(d.offchips().len(), 1);
        assert!(d.offchip_by_name("x").is_ok());
        assert!(d.offchip_by_name("nope").is_err());
        let s = d.to_string();
        assert!(s.contains("MetaPipe"));
        assert!(s.contains("TileLd"));
    }
}
