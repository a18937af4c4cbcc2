//! Cycle-count estimation (§IV-B1).
//!
//! A recursive analysis pass over the hierarchical IR: the total runtime of
//! `MetaPipe` and `Sequential` nodes is calculated from the runtimes of the
//! controllers they contain; the propagation delay of one `Pipe` iteration
//! is the critical path of its body (depth-first search over the subgraph);
//! iteration counts come from the counter chains (dataset annotations plus
//! tiling factors). Off-chip transfers use the DRAM model's command
//! count/length cost with static contention from competing accessors.
//!
//! Two walks compute it. [`estimate_cycles`] is the reference: it needs
//! nothing but the design, and derives the controller list, the parent
//! and replication maps, every pipe schedule and every pair of competing
//! transfers on each call. [`estimate_cycles_net`] is the DSE hot path:
//! it runs the same recurrence over the [`LatencyPlan`] that elaboration
//! left on the [`Netlist`] — controllers and competitor lists fixed per
//! design *shape*, pipe depths already scheduled — with replication
//! passed down the recursion and each transfer's channel occupancy
//! computed once, and allocates nothing. The property it leans on,
//! **planned walk ≡ reference walk, bitwise** (a plan built from one
//! parameterization serving every other of the same shape included), is
//! the `latency-plan` conformance oracle; both walks share the
//! per-controller arithmetic below and add in the same order.

use std::collections::BTreeMap;

use dhdl_core::analysis::traversal::CtrlTree;
use dhdl_core::{Design, NodeId, NodeKind, OuterSpec, Pattern, PipeSpec, TileSpec};
use dhdl_synth::chardata::{prim_cost, reduce_tree_latency};
use dhdl_synth::{pipe_depth, LatencyPlan, Netlist};
use dhdl_target::Platform;

/// Fixed control overhead (in cycles) for starting/finishing one controller
/// execution: enable/done handshake through the parent.
const CTRL_OVERHEAD: f64 = 2.0;

/// Transfers whose channel occupancies fit the planned walk's stack
/// buffer; a design with more spills them to one heap buffer.
const INLINE_TRANSFERS: usize = 32;

/// Estimate the total execution cycles of a design on a platform.
pub fn estimate_cycles(design: &Design, platform: &Platform) -> f64 {
    Ctx::new(design, platform).cycles(design.top())
}

/// [`estimate_cycles`] over the latency plan and the pipe critical-path
/// depths recorded on an already-elaborated [`Netlist`] of the same
/// design. Bit-identical to `estimate_cycles` (see the module docs); a
/// hand-assembled netlist without a plan gets the reference walk.
pub fn estimate_cycles_net(design: &Design, platform: &Platform, net: &Netlist) -> f64 {
    let Some(plan) = net.latency.as_deref() else {
        return estimate_cycles(design, platform);
    };
    let walk = Planned {
        design,
        platform,
        net,
        plan,
    };
    let mut inline = [0.0; INLINE_TRANSFERS];
    let mut spill = Vec::new();
    let occupancy = match inline.get_mut(..plan.transfers) {
        Some(fits) => fits,
        None => {
            spill.resize(plan.transfers, 0.0);
            &mut spill[..]
        }
    };
    walk.occupancy(0, 1.0, occupancy);
    walk.cycles(0, occupancy)
}

/// Cycles of one `Pipe` execution given the critical path of its body.
fn pipe_cycles(design: &Design, p: &PipeSpec, depth: u64) -> f64 {
    let iters = (p.ctr.total_iters() as f64 / f64::from(p.par)).ceil();
    let mut depth = depth as f64;
    if let (Some(r), Pattern::Reduce(op)) = (&p.reduce, p.pattern) {
        let ty = design.ty(r.reg);
        depth += reduce_tree_latency(op.prim(), ty, p.par) as f64;
        depth += prim_cost(op.prim(), ty).latency as f64;
    }
    // II = 1: one iteration enters the pipeline per cycle.
    depth + iters.max(1.0) + CTRL_OVERHEAD
}

/// Cycles of one execution of an outer controller (anything but a `Pipe`
/// or a transfer) from the cycles of its stages, in program order.
fn outer_cycles(design: &Design, kind: &NodeKind, stages: impl Iterator<Item = f64>) -> f64 {
    match kind {
        NodeKind::Sequential(s) => {
            let iters = (s.ctr.total_iters() as f64 / f64::from(s.par)).ceil();
            let mut body: f64 = stages.sum();
            body += CTRL_OVERHEAD * s.stages.len() as f64;
            body += fold_cycles(design, s);
            iters.max(1.0) * body + CTRL_OVERHEAD
        }
        NodeKind::MetaPipe(s) => {
            // (N-1) * max(stage) + sum(stages)  (§IV-B); the implicit
            // fold, when there is one, is the last stage.
            let n = (s.ctr.total_iters() as f64 / f64::from(s.par))
                .ceil()
                .max(1.0);
            let fold = Some(fold_cycles(design, s)).filter(|&f| f > 0.0);
            let (sum, max) = stages
                .chain(fold)
                .map(|t| t + CTRL_OVERHEAD)
                .fold((0.0, 0.0), |(sum, max): (f64, f64), t| {
                    (sum + t, max.max(t))
                });
            (n - 1.0) * max + sum + CTRL_OVERHEAD
        }
        NodeKind::ParallelCtrl { .. } => stages.fold(0.0, f64::max) + CTRL_OVERHEAD,
        _ => 0.0,
    }
}

/// Cycles of the implicit fold stage of an outer controller: one
/// element-wise combine per accumulator element.
fn fold_cycles(design: &Design, s: &OuterSpec) -> f64 {
    let Some(f) = &s.fold else {
        return 0.0;
    };
    let ty = design.ty(f.accum);
    let (elements, lanes) = match design.kind(f.accum) {
        NodeKind::Bram(b) => (b.elements() as f64, f64::from(b.banks.max(1))),
        _ => (1.0, 1.0), // register fold
    };
    elements / lanes + prim_cost(f.op.prim(), ty).latency as f64
}

/// The channel-occupancy structure of a transfer: `(commands,
/// run_bytes)`. A command covers one contiguous run; if the innermost
/// tile extent covers the full innermost off-chip dimension,
/// consecutive rows are contiguous in DRAM and merge into one long
/// command.
fn transfer_shape(design: &Design, t: &TileSpec) -> (u64, u64) {
    let elem_bytes = u64::from(design.ty(t.offchip).bits()).div_ceil(8);
    let NodeKind::OffChip { dims } = design.kind(t.offchip) else {
        return (0, 0);
    };
    let inner = *t.tile.last().unwrap_or(&1);
    let full_row = dims.last().is_some_and(|&d| d == inner);
    let outer: u64 = t.tile[..t.tile.len().saturating_sub(1)].iter().product();
    if full_row || t.tile.len() == 1 {
        (1, inner * outer.max(1) * elem_bytes)
    } else {
        (outer.max(1), inner * elem_bytes)
    }
}

/// Channel data/issue occupancy of one execution of one replica of a
/// transfer, excluding command latency.
fn channel_cycles(design: &Design, platform: &Platform, t: &TileSpec) -> f64 {
    let (commands, run_bytes) = transfer_shape(design, t);
    let dram = &platform.dram;
    let data = dram.burst_cycles(run_bytes) * commands as f64;
    let issue = (dram.command_issue_cycles * commands) as f64;
    data.max(issue)
}

/// Analytic cycles of a tile transfer, including command structure and
/// contention from competing accessors (§IV-B1): the shared channel also
/// carries the traffic of every transfer that can be active at the same
/// time, so their occupancy (`competing`, evaluated only for a transfer
/// that moves data) adds to this one's (`own`).
fn transfer_cycles(platform: &Platform, own: f64, competing: impl FnOnce() -> f64) -> f64 {
    if own == 0.0 {
        return 0.0;
    }
    platform.dram.command_latency_cycles as f64 + own + competing()
}

/// The planned walk: indices are positions in `plan.ctrls`.
struct Planned<'a> {
    design: &'a Design,
    platform: &'a Platform,
    net: &'a Netlist,
    plan: &'a LatencyPlan,
}

impl Planned<'_> {
    /// Fill `occ[slot]` with the channel occupancy of every transfer
    /// under controller `i`, which exists `rep` times in hardware.
    fn occupancy(&self, i: usize, rep: f64, occ: &mut [f64]) {
        let c = &self.plan.ctrls[i];
        let child_rep = match self.design.kind(c.id) {
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                occ[c.slot as usize] = channel_cycles(self.design, self.platform, t) * rep;
                return;
            }
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => rep * f64::from(s.par),
            _ => rep,
        };
        for child in self.plan.children(i) {
            self.occupancy(child, child_rep, occ);
        }
    }

    fn cycles(&self, i: usize, occ: &[f64]) -> f64 {
        let c = &self.plan.ctrls[i];
        match self.design.kind(c.id) {
            NodeKind::Pipe(p) => {
                let depth = match self.net.pipe_depths.get(c.slot as usize) {
                    Some(&(id, depth)) if id == c.id => depth,
                    _ => pipe_depth(self.design, p),
                };
                pipe_cycles(self.design, p, depth)
            }
            NodeKind::TileLoad(_) | NodeKind::TileStore(_) => {
                let (from, to) = c.competitors;
                let competitors = &self.plan.competitors[from as usize..to as usize];
                transfer_cycles(self.platform, occ[c.slot as usize], || {
                    competitors.iter().fold(0.0, |t, &y| t + occ[y as usize])
                })
            }
            kind => {
                let stages = self.plan.children(i).map(|j| self.cycles(j, occ));
                outer_cycles(self.design, kind, stages)
            }
        }
    }
}

/// One controller's estimated contribution to the design's runtime.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyEntry {
    /// The controller node.
    pub ctrl: NodeId,
    /// Template kind plus id, e.g. `"Pipe %12"`.
    pub label: String,
    /// Estimated cycles for one execution of the controller.
    pub per_execution: f64,
    /// Number of times the controller executes over the whole run
    /// (product of ancestor trip counts, divided by their parallelization).
    pub executions: f64,
    /// `per_execution * executions` — comparable to the simulator's
    /// profile (nested controllers overlap their parents).
    pub total: f64,
}

/// Per-controller estimated cycle breakdown, heaviest first — the
/// analytic counterpart of the simulator's execution profile, used for
/// bottleneck attribution without running anything.
pub fn estimate_breakdown(design: &Design, platform: &Platform) -> Vec<LatencyEntry> {
    let ctx = Ctx::new(design, platform);
    let mut entries = Vec::new();
    // Executions of each controller: product of ancestor effective trip
    // counts (total iterations / par).
    fn walk(ctx: &Ctx, design: &Design, ctrl: NodeId, execs: f64, entries: &mut Vec<LatencyEntry>) {
        let per = ctx.cycles(ctrl);
        entries.push(LatencyEntry {
            ctrl,
            label: format!("{} {}", design.kind(ctrl).template_name(), ctrl),
            per_execution: per,
            executions: execs,
            total: per * execs,
        });
        let child_execs = match design.kind(ctrl) {
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                execs * (s.ctr.total_iters() as f64 / f64::from(s.par.max(1))).ceil()
            }
            _ => execs,
        };
        for &st in design.stages(ctrl) {
            walk(ctx, design, st, child_execs, entries);
        }
    }
    walk(&ctx, design, design.top(), 1.0, &mut entries);
    entries.sort_by(|a, b| b.total.total_cmp(&a.total));
    entries
}

/// Product of ancestor parallelization factors for every controller: how
/// many replicas of it exist in hardware.
fn replication_map(design: &Design) -> BTreeMap<NodeId, f64> {
    let mut reps = BTreeMap::new();
    fn rec(design: &Design, id: NodeId, rep: f64, reps: &mut BTreeMap<NodeId, f64>) {
        reps.insert(id, rep);
        let child_rep = match design.kind(id) {
            NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => rep * f64::from(s.par),
            _ => rep,
        };
        for &st in design.stages(id) {
            rec(design, st, child_rep, reps);
        }
    }
    rec(design, design.top(), 1.0, &mut reps);
    reps
}

/// The reference walk: everything derived from the design, per call.
struct Ctx<'a> {
    design: &'a Design,
    platform: &'a Platform,
    tree: CtrlTree,
    reps: BTreeMap<NodeId, f64>,
}

impl<'a> Ctx<'a> {
    fn new(design: &'a Design, platform: &'a Platform) -> Self {
        Ctx {
            design,
            platform,
            tree: CtrlTree::of(design),
            reps: replication_map(design),
        }
    }

    fn cycles(&self, ctrl: NodeId) -> f64 {
        match self.design.kind(ctrl) {
            NodeKind::Pipe(p) => pipe_cycles(self.design, p, pipe_depth(self.design, p)),
            NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                let own = self.channel_cycles(ctrl, t);
                transfer_cycles(self.platform, own, || self.contention_cycles(ctrl))
            }
            kind => {
                let stages = self.design.stages(ctrl).iter().map(|&st| self.cycles(st));
                outer_cycles(self.design, kind, stages)
            }
        }
    }

    /// [`channel_cycles`] scaled by the transfer's hardware replication.
    fn channel_cycles(&self, ctrl: NodeId, t: &TileSpec) -> f64 {
        channel_cycles(self.design, self.platform, t) * self.reps.get(&ctrl).copied().unwrap_or(1.0)
    }

    /// Static contention estimate: the channel occupancy of every transfer
    /// that can overlap with `xfer` (any transfer whose least common
    /// ancestor is a `MetaPipe` — stages overlap — or a `Parallel`
    /// container).
    fn contention_cycles(&self, xfer: NodeId) -> f64 {
        let mut total = 0.0;
        for ctrl in self.design.controllers() {
            if ctrl == xfer {
                continue;
            }
            let (NodeKind::TileLoad(t) | NodeKind::TileStore(t)) = self.design.kind(ctrl) else {
                continue;
            };
            let lca = self.lca(xfer, ctrl);
            if matches!(
                self.design.kind(lca),
                NodeKind::MetaPipe(_) | NodeKind::ParallelCtrl { .. }
            ) {
                total += self.channel_cycles(ctrl, t);
            }
        }
        total
    }

    fn ancestors(&self, mut id: NodeId) -> Vec<NodeId> {
        let mut chain = vec![id];
        while let Some(p) = self.tree.parent(id) {
            chain.push(p);
            id = p;
        }
        chain
    }

    fn lca(&self, a: NodeId, b: NodeId) -> NodeId {
        let aa = self.ancestors(a);
        let bb = self.ancestors(b);
        for x in &aa {
            if bb.contains(x) {
                return *x;
            }
        }
        self.design.top()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};

    fn platform() -> Platform {
        Platform::maia()
    }

    fn streaming(toggle: bool, par: u32, tile: u64) -> Design {
        let n = 4096;
        let mut b = DesignBuilder::new("stream");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], par);
                b.pipe(&[by(tile, 1)], par, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(yt, &[it[0]], w);
                });
                b.tile_store(y, yt, &[i], &[tile], par);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn metapipe_beats_sequential() {
        let p = platform();
        let seq = estimate_cycles(&streaming(false, 1, 256), &p);
        let meta = estimate_cycles(&streaming(true, 1, 256), &p);
        assert!(
            meta < seq,
            "coarse-grained pipelining must overlap stages: {meta} vs {seq}"
        );
    }

    #[test]
    fn parallelism_reduces_compute_time() {
        let p = platform();
        let slow = estimate_cycles(&streaming(false, 1, 256), &p);
        let fast = estimate_cycles(&streaming(false, 8, 256), &p);
        assert!(fast < slow);
    }

    #[test]
    fn larger_tiles_amortize_latency() {
        let p = platform();
        let small = estimate_cycles(&streaming(true, 1, 64), &p);
        let big = estimate_cycles(&streaming(true, 1, 1024), &p);
        assert!(big < small, "{big} vs {small}");
    }

    #[test]
    fn reduce_pipe_counts_tree_latency() {
        let p = platform();
        let build = |par: u32| {
            let mut b = DesignBuilder::new("red");
            b.sequential(|b| {
                let acc = b.reg("acc", DType::F32, 0.0);
                let m = b.bram("m", DType::F32, &[64]);
                b.pipe_reduce(&[by(64, 1)], par, acc, ReduceOp::Add, |b, it| {
                    b.load(m, &[it[0]])
                });
            });
            b.finish().unwrap()
        };
        let c1 = estimate_cycles(&build(1), &p);
        let c8 = estimate_cycles(&build(8), &p);
        // 8 lanes: 64/8 = 8 iterations instead of 64, despite tree latency.
        assert!(c8 < c1);
    }

    #[test]
    fn breakdown_top_entry_is_the_design() {
        let p = platform();
        let d = streaming(true, 2, 256);
        let total = estimate_cycles(&d, &p);
        let entries = estimate_breakdown(&d, &p);
        // The heaviest entry is the root controller and matches the total.
        assert_eq!(entries[0].ctrl, d.top());
        assert!((entries[0].total - total).abs() < 1e-9);
        // Every controller appears exactly once.
        assert_eq!(entries.len(), d.controllers().len());
        // Nested entries never exceed the root.
        for e in &entries {
            assert!(e.total <= entries[0].total * 1.5, "{e:?}");
        }
    }

    #[test]
    fn contention_counts_parallel_siblings() {
        let mut b = DesignBuilder::new("par");
        let x = b.off_chip("x", DType::F32, &[1024]);
        let y = b.off_chip("y", DType::F32, &[1024]);
        b.sequential(|b| {
            let xt = b.bram("xT", DType::F32, &[1024]);
            let yt = b.bram("yT", DType::F32, &[1024]);
            let z = b.index_const(0);
            b.parallel(|b| {
                b.tile_load(x, xt, &[z], &[1024], 1);
                b.tile_load(y, yt, &[z], &[1024], 1);
            });
            b.pipe(&[by(1024, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let w = b.load(yt, &[it[0]]);
                let s = b.add(v, w);
                b.store(xt, &[it[0]], s);
            });
        });
        let d = b.finish().unwrap();
        let p = platform();
        let cycles = estimate_cycles(&d, &p);
        // Two concurrent loads of 4 KiB at 250 B/cycle with contention 2
        // must take at least 2 * 4096/250 cycles plus compute.
        assert!(cycles > 2.0 * 4096.0 / 250.0);
    }
}
