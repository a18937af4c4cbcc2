//! Two-region value arena for the compiled simulation backend.
//!
//! Both backends resolve a design to fixed slots before they execute
//! it; they differ in when, and in what a slot is. The interpreter does
//! it once per *run*: `Sim::new` builds node-indexed tables (one `Vec`
//! per memory, a `vals` vector with the constants already quantized)
//! and the run indexes them by `NodeId`. The compiled backend does it
//! once per *compile*, and lays *everything* out as offsets into one
//! flat `Vec<f64>` that every run of the tape starts from:
//!
//! - **Stable region** (front): every off-chip array (in
//!   [`Design::offchips`] order) followed by every on-chip `Bram`
//!   (`elements()` slots) and `Reg` (one slot), in node-id order. These
//!   slots persist across loop iterations.
//! - **Scratch region** (back): one slot per design node, addressed as
//!   `scratch_base + id.index()` — the compiled analogue of the
//!   interpreter's `vals` vector. `Const` slots are pre-quantized at
//!   layout time so constant operands never need an instruction.
//!
//! Priority queues are the one dynamically-sized structure and live in a
//! small side table of `Vec<f64>`s, indexed densely.
//!
//! [`Layout::template`] builds the arena's initial image; each
//! [`crate::Compiled::run`] clones it and overlays the input bindings, so
//! a run never mutates shared state.

use std::collections::BTreeMap;

use dhdl_core::{Design, NodeId, NodeKind};

/// One off-chip memory's slice of the stable region, plus the naming
/// metadata both backends use for binding validation and output
/// extraction.
#[derive(Debug, Clone)]
pub(crate) struct OffchipRegion {
    /// The off-chip node.
    pub node: NodeId,
    /// First arena slot of the array.
    pub base: usize,
    /// Element count (zero for a non-`OffChip` entry in the off-chip
    /// list, which the interpreter skips but still reports as an empty
    /// output).
    pub len: usize,
    /// Whether the node really is an `OffChip` array (bindable).
    pub real: bool,
    /// Whether the node carries a debug name (only named memories can
    /// match a binding).
    pub named: bool,
    /// Key used when looking up a binding: the node's name, or `""` for
    /// unnamed memories — mirroring the interpreter exactly.
    pub lookup_name: String,
    /// Name under which the array appears in `SimResult` outputs (the
    /// node's name, falling back to its id rendering).
    pub output_name: String,
}

/// The complete arena layout for one design.
#[derive(Debug, Clone)]
pub(crate) struct Layout {
    /// Off-chip regions in [`Design::offchips`] order.
    pub offchips: Vec<OffchipRegion>,
    /// Base slot of each on-chip `Bram`/`Reg`.
    mem_base: BTreeMap<NodeId, usize>,
    /// Dense queue index of each `PriorityQueue`.
    queues: BTreeMap<NodeId, usize>,
    /// Number of priority queues.
    pub n_queues: usize,
    /// First slot of the scratch region.
    scratch_base: usize,
    /// Arena length, in slots.
    len: usize,
}

impl Layout {
    /// Lay out `design` into arena offsets.
    pub fn new(design: &Design) -> Self {
        let mut len = 0;
        let mut offchips = Vec::new();
        for &off in design.offchips() {
            let node = design.node(off);
            let (real, n) = match &node.kind {
                NodeKind::OffChip { dims } => (true, dims.iter().product::<u64>() as usize),
                _ => (false, 0),
            };
            offchips.push(OffchipRegion {
                node: off,
                base: len,
                len: n,
                real,
                named: node.name.is_some(),
                lookup_name: node.name.as_deref().unwrap_or_default().to_string(),
                output_name: node
                    .name
                    .as_deref()
                    .map_or_else(|| format!("{off}"), str::to_string),
            });
            len += n;
        }
        let mut mem_base = BTreeMap::new();
        let mut queues = BTreeMap::new();
        for (id, node) in design.iter() {
            match &node.kind {
                NodeKind::Bram(b) => {
                    mem_base.insert(id, len);
                    len += b.elements() as usize;
                }
                NodeKind::Reg(_) => {
                    mem_base.insert(id, len);
                    len += 1;
                }
                NodeKind::PriorityQueue(_) => {
                    let n = queues.len();
                    queues.insert(id, n);
                }
                _ => {}
            }
        }
        let n_queues = queues.len();
        Layout {
            offchips,
            mem_base,
            queues,
            n_queues,
            scratch_base: len,
            len: len + design.len(),
        }
    }

    /// The arena's initial image: zeros, register inits (raw,
    /// unquantized — matching the interpreter) and pre-quantized
    /// constants. Only a tape needs it; [`crate::timing`] lays a design
    /// out for the emitter's checks alone.
    pub fn template(&self, design: &Design) -> Vec<f64> {
        let mut template = vec![0.0; self.len];
        for (id, node) in design.iter() {
            match &node.kind {
                NodeKind::Reg(r) => template[self.mem_base[&id]] = r.init,
                NodeKind::Const(v) => template[self.slot(id)] = node.ty.quantize(*v),
                _ => {}
            }
        }
        template
    }

    /// Scratch slot of node `id` (the compiled `vals[id]`).
    pub fn slot(&self, id: NodeId) -> usize {
        self.scratch_base + id.index()
    }

    /// Stable-region base of an on-chip `Bram`/`Reg`, if `id` is one.
    pub fn mem_base(&self, id: NodeId) -> Option<usize> {
        self.mem_base.get(&id).copied()
    }

    /// Stable-region base of an off-chip array, if `id` is one.
    pub fn offchip_base(&self, id: NodeId) -> Option<usize> {
        self.offchips
            .iter()
            .find(|r| r.real && r.node == id)
            .map(|r| r.base)
    }

    /// Dense queue index of a `PriorityQueue`, if `id` is one.
    pub fn queue(&self, id: NodeId) -> Option<usize> {
        self.queues.get(&id).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder};

    #[test]
    fn layout_covers_memories_and_scratch() {
        let mut b = DesignBuilder::new("l");
        let x = b.off_chip("x", DType::F32, &[8]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[8]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[8], 1);
            b.pipe(&[by(8, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0]]);
                let c = b.constant(2.5, DType::F32);
                let w = b.mul(v, c);
                b.store(t, &[it[0]], w);
            });
        });
        let d = b.finish().unwrap();
        let l = Layout::new(&d);
        assert_eq!(l.offchips.len(), 1);
        assert_eq!(l.offchips[0].len, 8);
        assert_eq!(l.offchips[0].output_name, "x");
        let template = l.template(&d);
        assert_eq!(template.len(), 8 + 8 + d.len());
        // The constant's scratch slot is pre-quantized.
        let (cid, _) = d
            .iter()
            .find(|(_, n)| matches!(n.kind, dhdl_core::NodeKind::Const(v) if v == 2.5))
            .unwrap();
        assert_eq!(template[l.slot(cid)], 2.5f32 as f64);
    }
}
