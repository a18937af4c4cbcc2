//! Multi-FPGA partitioning: cutting an elaborated design across devices.
//!
//! Designs that exceed single-chip capacity are discarded by the DSE
//! pruner, so the largest tilings never reach a Pareto front. This pass
//! follows the structure of multi-FPGA emulation compilers — partition
//! the netlist at controller boundaries, map partitions to devices with a
//! capacity-aware placer, insert explicit inter-board channels at every
//! cut edge — adapted to the DHDL hierarchy, where the natural cut
//! points are *controller* boundaries rather than individual gates.
//!
//! Two cut rules generate candidate plans:
//!
//! * **Leaf-range cuts** split the pre-order sequence of leaf controllers
//!   (`Pipe`, `TileLd`, `TileSt`) into contiguous ranges, one range per
//!   device. Contiguity preserves program order, so every cut edge is a
//!   produced-then-consumed on-chip memory that becomes a channel.
//! * **Replica cuts** split a parallelized outer controller's `par`
//!   replicas across devices (each device runs a share of the replicas),
//!   which divides replicated datapath area when one controller subtree
//!   dominates.
//!
//! A deterministic placer scores every candidate with the per-device
//! utilization proxy and picks the plan with the fewest devices whose
//! largest partition fits (then minimum utilization; ties broken by plan
//! order). `k == 1` always yields a single partition whose netlist is
//! **bit-identical** to [`elaborate`] — the unpartitioned path is the
//! degenerate case, not a parallel implementation.
//!
//! Per-partition netlists come from *derived designs*: controllers and
//! locals that the partition does not keep are pruned from the
//! stage/local lists, and the design is re-costed by the ordinary
//! [`elaborate_with`] pass, so partition areas are priced by exactly the
//! same template models as whole designs. A derived design keeps every
//! node of the original and differs only in its outer controllers'
//! `stages`, `locals`, `fold` and `par`, so a call clones the design once
//! and rewrites those four fields, from the original, for each partition
//! in turn. Its skeleton is the design's own — the one [`elaborate`]'s
//! per-thread cache holds — restricted to the pruned controller tree:
//! the pipe plans are shared, not rebuilt. Each contiguous leaf range is
//! derived and elaborated once per call: the leaf-range DP of every
//! device count and the plans it picks read the same table, whose cells
//! the `synth.partition.range_elaborations` counter counts, and the
//! placer scores a leaf-range plan from the table before building only
//! the winner. Channel endpoint FIFOs are added analytically on top.
//! (Derived designs share the original arena, so the netlist *features*
//! — used only by the estimator's correction networks — still see
//! whole-design statistics; the resource counts, which drive capacity
//! checks, are exact for the pruned tree.)
//!
//! Cross-device traffic assumes host-broadcast off-chip inputs: every
//! device's DRAM holds the input arrays, so only *on-chip* memories
//! crossing a cut become link channels.
//!
//! [`elaborate`]: crate::elaborate::elaborate

use std::ops::Range;

use dhdl_core::{Design, NodeId, NodeKind};
use dhdl_target::{BoardLink, FpgaTarget, Resources};

use crate::chardata::{bram_cost, counter_cost};
use crate::elaborate::{cached_skeleton, elaborate, elaborate_with, Netlist, Skeleton};

/// Placer fit margin on the raw-utilization proxy: a partition is
/// considered to fit its device when its largest utilization axis is
/// below this fraction, leaving headroom for place-and-route effects
/// (packing waste, duplication). The estimator performs the
/// authoritative post-place-and-route per-partition capacity check.
pub const FIT_MARGIN: f64 = 0.90;

/// Which cut rule produced the chosen plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CutKind {
    /// One partition: the whole design on one device (`k == 1`, a
    /// single-leaf design, or a design that already fits one device).
    Single,
    /// Contiguous ranges of the pre-order leaf-controller sequence.
    LeafRanges,
    /// The `par` replicas of one outer controller, split across devices.
    Replicas(NodeId),
}

/// One device's share of a partitioned design.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Device index this partition is placed on (0-based).
    pub device: u32,
    /// Leaf controllers (units) executing on this device, in pre-order.
    pub units: Vec<NodeId>,
    /// Elaborated netlist of the partition's derived design, including
    /// its channel-endpoint FIFOs.
    pub net: Netlist,
    /// Resources of this partition's channel endpoints (already included
    /// in `net`), reported separately for attribution.
    pub endpoints: Resources,
}

/// An inter-board channel: one on-chip memory whose producer and
/// consumer landed on different devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Channel {
    /// Source device (holds the memory's home copy).
    pub src: u32,
    /// Destination device (holds a mirror).
    pub dst: u32,
    /// The on-chip memory crossing the cut.
    pub mem: NodeId,
    /// Elements transferred per refill.
    pub words: u64,
    /// Bits per element.
    pub word_bits: u32,
    /// Static number of refills over the whole run (executions of the
    /// memory's scope body).
    pub transfers: u64,
    /// Whether the memory's scope overlaps its stages (`MetaPipe` /
    /// `Parallel`): overlapped channels hide all but one link latency.
    pub overlapped: bool,
}

/// The result of partitioning a design across up to `k` devices.
#[derive(Debug, Clone, PartialEq)]
pub struct Partitioning {
    /// The requested device budget K.
    pub num_devices: u32,
    /// Which cut rule won.
    pub cut: CutKind,
    /// Per-device partitions, ordered by device index. Always non-empty;
    /// `partitions.len() <= num_devices`.
    pub partitions: Vec<Partition>,
    /// Inter-board channels, in deterministic (memory, device) order.
    pub channels: Vec<Channel>,
}

impl Partitioning {
    /// Number of devices the chosen plan actually uses.
    pub fn devices_used(&self) -> u32 {
        self.partitions.len() as u32
    }

    /// Whether this is the degenerate single-device plan (bit-identical
    /// to the unpartitioned path).
    pub fn is_single(&self) -> bool {
        self.partitions.len() == 1
    }

    /// Total exposed link cycles of all channels on `link`: stream
    /// occupancy serializes on the shared link bandwidth; overlapped
    /// channels (scope is a `MetaPipe`/`Parallel`) pay the first-word
    /// latency once, serialized ones pay it per refill.
    pub fn link_cycles(&self, link: &BoardLink) -> f64 {
        let mut total = 0.0;
        for ch in &self.channels {
            let stream = link.stream_cycles(ch.words, ch.word_bits) * ch.transfers as f64;
            let latency = if ch.overlapped {
                link.latency_cycles as f64
            } else {
                (link.latency_cycles * ch.transfers) as f64
            };
            total += stream + latency;
        }
        total
    }
}

/// Partition `design` across up to `k` identical `target` devices
/// connected by `link`.
///
/// `k == 1` (or a design with at most one leaf controller) returns a
/// single partition whose netlist is bit-identical to
/// [`elaborate`]`(design, target)`. Designs whose utilization proxy
/// already fits one device (under [`FIT_MARGIN`]) also stay single: the
/// placer never pays link traffic it does not need.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn partition(design: &Design, target: &FpgaTarget, link: &BoardLink, k: u32) -> Partitioning {
    partition_elaborated(design, elaborate(design, target), target, link, k)
}

/// [`partition`] given `whole`, the design's [`elaborate`]`(design,
/// target)` netlist: a caller that has it does not elaborate twice.
pub fn partition_elaborated(
    design: &Design,
    whole: Netlist,
    target: &FpgaTarget,
    link: &BoardLink,
    k: u32,
) -> Partitioning {
    assert!(k > 0, "partitioning needs at least one device");
    let units = leaf_units(design);
    if k == 1 || units.len() <= 1 || util_proxy(&whole.raw, target) <= FIT_MARGIN {
        return Partitioning::single(k, units, whole);
    }
    let _span = dhdl_obs::span_arg("partition", "k", u64::from(k));
    let skel = cached_skeleton(design);
    let ctx = Ctx::new(design, target, link, &skel, units);
    // Every derived design is this one copy, rewritten in place.
    let mut work = design.clone();
    let mut candidates: Vec<Candidate> = Vec::new();
    // Leaf-range plans: one per device count, boundaries from a min-max
    // DP over contiguous range costs, every range priced once per call.
    let table = ctx.range_table(&mut work);
    for parts in 2..=k.min(ctx.units.len() as u32) {
        if let Some(bounds) = table.best(parts as usize) {
            candidates.push(Candidate::Ranges(ctx.plan_ranges(bounds, &table)));
        }
    }
    // Replica plans: one per parallelized outer controller.
    for &ctrl in &ctx.outer {
        let (NodeKind::MetaPipe(s) | NodeKind::Sequential(s)) = design.kind(ctrl) else {
            continue;
        };
        if s.par < 2 || s.fold.is_some() || ctx.subtree_has_tile_store(ctrl) {
            continue;
        }
        let devices = k.min(s.par);
        if devices < 2 {
            continue;
        }
        let plan = ctx.build_replicas(&mut work, k, ctrl, s.par, devices);
        candidates.push(Candidate::Built(plan));
    }
    if candidates.is_empty() {
        return Partitioning::single(k, ctx.units, whole);
    }
    // Deterministic selection: fewest devices whose largest partition
    // fits, then minimum peak utilization, then candidate order.
    let scores: Vec<(bool, usize, f64)> = candidates
        .iter()
        .map(|c| {
            let (parts, peak) = match c {
                Candidate::Ranges(plan) => (plan.bounds.len(), plan.peak),
                Candidate::Built(p) => (p.partitions.len(), peak_util(p, target)),
            };
            (peak > FIT_MARGIN, parts, peak)
        })
        .collect();
    let mut best = 0;
    for i in 1..scores.len() {
        let (a_over, a_parts, a_util) = scores[best];
        let (b_over, b_parts, b_util) = scores[i];
        // Lexicographic: fitting beats overflowing, then fewer devices,
        // then lower peak utilization; ties keep the earlier candidate.
        let better = (b_over, b_parts, b_util.total_cmp(&a_util))
            < (a_over, a_parts, std::cmp::Ordering::Equal);
        if better {
            best = i;
        }
    }
    match candidates.swap_remove(best) {
        Candidate::Ranges(plan) => ctx.build_ranges(k, plan, &table),
        Candidate::Built(p) => p,
    }
}

impl Partitioning {
    /// The whole design on one device.
    fn single(k: u32, units: Vec<NodeId>, net: Netlist) -> Partitioning {
        Partitioning {
            num_devices: k,
            cut: CutKind::Single,
            partitions: vec![Partition {
                device: 0,
                units,
                net,
                endpoints: Resources::zero(),
            }],
            channels: Vec::new(),
        }
    }
}

/// Largest-partition utilization of a built plan: the placer's score.
fn peak_util(p: &Partitioning, target: &FpgaTarget) -> f64 {
    p.partitions
        .iter()
        .map(|part| util_proxy(&part.net.raw, target))
        .fold(0.0, f64::max)
}

/// Largest fractional utilization axis of a raw resource vector against
/// a device, using the pre-packing approximation `ALMs ≈ packable/2 +
/// unpackable`. The placer's scoring function; the estimator's
/// post-place-and-route model is the authoritative check.
pub fn util_proxy(raw: &Resources, target: &FpgaTarget) -> f64 {
    let alms = raw.lut_packable / 2.0 + raw.lut_unpackable;
    let a = alms / target.alms as f64;
    let d = raw.dsps / target.dsps as f64;
    let b = raw.brams / target.brams as f64;
    a.max(d).max(b)
}

/// Pre-order leaf controllers: the cut units.
fn leaf_units(design: &Design) -> Vec<NodeId> {
    let mut out = Vec::new();
    design.walk_controllers(design.top(), &mut |_, id| {
        if matches!(
            design.kind(id),
            NodeKind::Pipe(_) | NodeKind::TileLoad(_) | NodeKind::TileStore(_)
        ) {
            out.push(id);
        }
    });
    out
}

/// Per-channel endpoint hardware: the link FIFO plus its flow-control
/// counter, priced by the same characterized models as everything else.
fn endpoint_cost(target: &FpgaTarget, link: &BoardLink, word_bits: u32) -> Resources {
    bram_cost(target, link.fifo_depth, word_bits.max(1), 1, false) + counter_cost()
}

/// Every contiguous leaf range `i..j` elaborated once: row `i` holds the
/// derived-design netlists of `i..i+1` through `i..u` (no channel
/// endpoints) and their utilization proxies. The DP of every device count
/// reads the costs, and the chosen range's netlist is cloned from here.
struct RangeTable {
    nets: Vec<Vec<Netlist>>,
    cost: Vec<Vec<f64>>,
}

impl RangeTable {
    fn net(&self, i: usize, j: usize) -> &Netlist {
        &self.nets[i][j - i - 1]
    }

    fn cost(&self, i: usize, j: usize) -> f64 {
        self.cost[i][j - i - 1]
    }

    /// Min-max DP over contiguous leaf ranges: boundaries of the best
    /// `parts`-way split, scored by each range's utilization proxy.
    fn best(&self, parts: usize) -> Option<Vec<(usize, usize)>> {
        let u = self.nets.len();
        if parts > u {
            return None;
        }
        // f[d][j] = best max-cost splitting units 0..j into d ranges.
        let inf = f64::INFINITY;
        let mut f = vec![vec![inf; u + 1]; parts + 1];
        let mut cut_at = vec![vec![0usize; u + 1]; parts + 1];
        f[0][0] = 0.0;
        for d in 1..=parts {
            for j in d..=u {
                for i in (d - 1)..j {
                    let c = f[d - 1][i].max(self.cost(i, j));
                    if c < f[d][j] {
                        f[d][j] = c;
                        cut_at[d][j] = i;
                    }
                }
            }
        }
        if !f[parts][u].is_finite() {
            return None;
        }
        let mut bounds = Vec::with_capacity(parts);
        let mut j = u;
        for d in (1..=parts).rev() {
            let i = cut_at[d][j];
            bounds.push((i, j));
            j = i;
        }
        bounds.reverse();
        Some(bounds)
    }
}

/// A candidate plan as the placer scores it.
enum Candidate {
    /// A leaf-range split, scored from the range table without building
    /// its partitions.
    Ranges(RangePlan),
    /// A replica split, built in full.
    Built(Partitioning),
}

/// A leaf-range split: its ranges, its links, and the utilization of
/// its largest partition.
struct RangePlan {
    bounds: Vec<(usize, usize)>,
    links: Links,
    peak: f64,
}

/// The channels of a plan, and each device's channel-endpoint resources
/// summed in channel order.
struct Links {
    channels: Vec<Channel>,
    endpoints: Vec<Resources>,
}

impl Links {
    fn new(devices: usize) -> Self {
        Links {
            channels: Vec::new(),
            endpoints: vec![Resources::zero(); devices],
        }
    }
}

/// Marks "none" in [`Ctx`]'s node-indexed tables.
const NONE: u32 = u32::MAX;

/// One on-chip memory some unit accesses, with what a channel carrying
/// it needs.
struct MemAccess {
    mem: NodeId,
    /// Elements and element bits.
    words: u64,
    word_bits: u32,
    /// Refills over the whole run (executions of its scope's body), and
    /// whether the scope overlaps its stages (`MetaPipe` / `Parallel`).
    transfers: u64,
    overlapped: bool,
    /// Declaring controller.
    scope: Option<NodeId>,
    /// `(unit, reads, writes)` of every accessing unit, in unit order.
    units: Vec<(u32, bool, bool)>,
}

/// Shared analysis state for candidate-plan construction. Every table
/// is a `Vec`, indexed by unit or by node.
struct Ctx<'a> {
    design: &'a Design,
    target: &'a FpgaTarget,
    link: &'a BoardLink,
    skel: &'a Skeleton,
    units: Vec<NodeId>,
    /// Memories each unit reads or writes (fold stages attributed to the
    /// last unit of the folding controller's subtree).
    unit_mems: Vec<Vec<NodeId>>,
    /// Controllers whose fold stage each unit owns.
    fold_owned: Vec<Vec<NodeId>>,
    /// Accessed memories with a nonzero element count, by id.
    accesses: Vec<MemAccess>,
    /// Outer controllers (`MetaPipe`, `Sequential`, `Parallel`) in
    /// pre-order: the nodes a derivation rewrites.
    outer: Vec<NodeId>,
    /// By node: the parent controller.
    parent: Vec<u32>,
    /// By node: the pre-order leaf-unit range `[start, end)` of each
    /// controller subtree.
    subtree: Vec<(u32, u32)>,
}

impl<'a> Ctx<'a> {
    fn new(
        design: &'a Design,
        target: &'a FpgaTarget,
        link: &'a BoardLink,
        skel: &'a Skeleton,
        units: Vec<NodeId>,
    ) -> Self {
        let n = design.len();
        let mut index = vec![NONE; n];
        for (i, u) in units.iter().enumerate() {
            index[u.index()] = i as u32;
        }
        let mut ctx = Ctx {
            design,
            target,
            link,
            skel,
            unit_mems: vec![Vec::new(); units.len()],
            fold_owned: vec![Vec::new(); units.len()],
            units,
            accesses: Vec::new(),
            outer: Vec::new(),
            parent: vec![NONE; n],
            subtree: vec![(0, 0); n],
        };
        // One pre-order walk: parents, outer controllers, subtree leaf
        // ranges (pre-order leaves of a subtree are contiguous) and the
        // executions of each controller's body over the whole run (the
        // product of ancestor effective trip counts, matching the latency
        // estimator).
        let mut body_execs = vec![1u64; n];
        fn walk(
            ctx: &mut Ctx,
            index: &[u32],
            body_execs: &mut [u64],
            id: NodeId,
            runs: u64,
        ) -> (u32, u32) {
            let design = ctx.design;
            let body = match design.kind(id) {
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    runs * s.ctr.total_iters().div_ceil(u64::from(s.par.max(1))).max(1)
                }
                _ => runs,
            };
            body_execs[id.index()] = body;
            let range = match index[id.index()] {
                NONE => {
                    if matches!(
                        design.kind(id),
                        NodeKind::MetaPipe(_)
                            | NodeKind::Sequential(_)
                            | NodeKind::ParallelCtrl { .. }
                    ) {
                        ctx.outer.push(id);
                    }
                    let (mut lo, mut hi) = (u32::MAX, 0);
                    for &st in design.stages(id) {
                        ctx.parent[st.index()] = id.index() as u32;
                        let (a, b) = walk(ctx, index, body_execs, st, body);
                        lo = lo.min(a);
                        hi = hi.max(b);
                    }
                    if lo == u32::MAX {
                        (0, 0)
                    } else {
                        (lo, hi)
                    }
                }
                i => (i, i + 1),
            };
            ctx.subtree[id.index()] = range;
            range
        }
        walk(&mut ctx, &index, &mut body_execs, design.top(), 1);
        // Every access as `(memory, unit, reads, writes)`, and each
        // memory's scope.
        let mut scope = vec![NONE; n];
        let mut seen: Vec<(NodeId, u32, bool, bool)> = Vec::new();
        for ctrl in design.controllers() {
            for &m in design.locals(ctrl) {
                scope[m.index()] = ctrl.index() as u32;
            }
            let i = index[ctrl.index()];
            match design.kind(ctrl) {
                NodeKind::Pipe(p) => {
                    for &b in &p.body {
                        match design.kind(b) {
                            NodeKind::Load { mem, .. } => seen.push((*mem, i, true, false)),
                            NodeKind::Store { mem, .. } => seen.push((*mem, i, false, true)),
                            _ => {}
                        }
                    }
                    if let Some(r) = &p.reduce {
                        seen.push((r.reg, i, true, true));
                    }
                }
                NodeKind::TileLoad(t) => seen.push((t.local, i, false, true)),
                NodeKind::TileStore(t) => seen.push((t.local, i, true, false)),
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    if let Some(f) = &s.fold {
                        // The implicit fold stage runs after the body's
                        // last unit: attribute its accesses (and the
                        // fold itself) there.
                        let (_, end) = ctx.subtree[ctrl.index()];
                        if end > 0 {
                            let owner = end - 1;
                            seen.push((f.src, owner, true, false));
                            seen.push((f.accum, owner, true, true));
                            ctx.fold_owned[owner as usize].push(ctrl);
                        }
                    }
                }
                _ => {}
            }
        }
        for &(m, i, _, _) in &seen {
            ctx.unit_mems[i as usize].push(m);
        }
        seen.sort_unstable_by_key(|&(m, i, _, _)| (m, i));
        for (m, i, r, w) in seen {
            match ctx.accesses.last_mut() {
                Some(last) if last.mem == m => match last.units.last_mut() {
                    Some(u) if u.0 == i => {
                        u.1 |= r;
                        u.2 |= w;
                    }
                    _ => last.units.push((i, r, w)),
                },
                _ => {
                    let (words, word_bits) = mem_shape(design, m);
                    let scope =
                        (scope[m.index()] != NONE).then(|| NodeId::from_raw(scope[m.index()]));
                    let (transfers, overlapped) = match scope {
                        Some(s) => (
                            body_execs[s.index()].max(1),
                            matches!(
                                design.kind(s),
                                NodeKind::MetaPipe(_) | NodeKind::ParallelCtrl { .. }
                            ),
                        ),
                        None => (1, false),
                    };
                    ctx.accesses.push(MemAccess {
                        mem: m,
                        words,
                        word_bits,
                        transfers,
                        overlapped,
                        scope,
                        units: vec![(i, r, w)],
                    });
                }
            }
        }
        // A memory without elements never becomes a channel.
        ctx.accesses.retain(|a| a.words > 0);
        ctx
    }

    fn subtree_has_tile_store(&self, ctrl: NodeId) -> bool {
        let (lo, hi) = self.subtree[ctrl.index()];
        self.units[lo as usize..hi as usize]
            .iter()
            .any(|&u| matches!(self.design.kind(u), NodeKind::TileStore(_)))
    }

    /// Whether controller `anc` is `node` or one of its ancestors.
    fn is_ancestor(&self, anc: NodeId, mut node: NodeId) -> bool {
        loop {
            if node == anc {
                return true;
            }
            match self.parent[node.index()] {
                NONE => return false,
                p => node = NodeId::from_raw(p),
            }
        }
    }

    /// Rewrite `work`, a copy of the design, into the derived design of
    /// the partition running units `keep`: kept units' ancestors retain
    /// only kept stages and accessed locals; fold stages survive only on
    /// the partition owning their attributed unit; an optional `par`
    /// override implements replica shares. Only the outer controllers'
    /// `stages`, `locals`, `fold` and `par` change, each rewritten from
    /// the original, so one copy serves every partition in turn.
    fn derive(&self, work: &mut Design, keep: Range<usize>, par_override: Option<(NodeId, u32)>) {
        // By node: kept controllers and memories, and kept fold stages.
        let mut kept = vec![false; self.design.len()];
        let mut folds = vec![false; self.design.len()];
        for i in keep {
            for m in &self.unit_mems[i] {
                kept[m.index()] = true;
            }
            for c in &self.fold_owned[i] {
                folds[c.index()] = true;
            }
            // A unit and its ancestors, up to the first one already kept.
            let mut c = self.units[i].index();
            while !kept[c] {
                kept[c] = true;
                match self.parent[c] {
                    NONE => break,
                    p => c = p as usize,
                }
            }
        }
        let keeps = |id: &&NodeId| kept[id.index()];
        for &ctrl in &self.outer {
            match (&mut work.node_mut(ctrl).kind, self.design.kind(ctrl)) {
                (
                    NodeKind::MetaPipe(w) | NodeKind::Sequential(w),
                    NodeKind::MetaPipe(o) | NodeKind::Sequential(o),
                ) => {
                    w.stages = o.stages.iter().filter(keeps).copied().collect();
                    w.locals = o.locals.iter().filter(keeps).copied().collect();
                    w.fold = if folds[ctrl.index()] { o.fold } else { None };
                    w.par = match par_override {
                        Some((c, share)) if c == ctrl => share,
                        _ => o.par,
                    };
                }
                (
                    NodeKind::ParallelCtrl { stages, locals },
                    NodeKind::ParallelCtrl {
                        stages: os,
                        locals: ol,
                    },
                ) => {
                    *stages = os.iter().filter(keeps).copied().collect();
                    *locals = ol.iter().filter(keeps).copied().collect();
                }
                _ => unreachable!("a working copy keeps every controller's kind"),
            }
        }
    }

    /// The netlist of the partition running units `keep`: `work`
    /// rewritten into its derived design and re-costed through a
    /// skeleton restricted from the design's own.
    fn elaborate_share(
        &self,
        work: &mut Design,
        keep: Range<usize>,
        par_override: Option<(NodeId, u32)>,
    ) -> Netlist {
        self.derive(work, keep, par_override);
        elaborate_with(work, self.target, &self.skel.restrict(work))
    }

    /// A partition's netlist: its derived design's elaboration `net` plus
    /// the hardware of its channel endpoints.
    fn with_endpoints(mut net: Netlist, endpoints: Resources) -> Netlist {
        net.raw += endpoints;
        net.breakdown.memories += endpoints;
        net
    }

    /// Derive and elaborate every contiguous leaf range once.
    fn range_table(&self, work: &mut Design) -> RangeTable {
        let u = self.units.len();
        let nets: Vec<Vec<Netlist>> = (0..u)
            .map(|i| {
                ((i + 1)..=u)
                    .map(|j| self.elaborate_share(work, i..j, None))
                    .collect()
            })
            .collect();
        dhdl_obs::counter!("synth.partition.range_elaborations").add((u * (u + 1) / 2) as u64);
        let cost = nets
            .iter()
            .map(|row| {
                row.iter()
                    .map(|n| util_proxy(&n.raw, self.target))
                    .collect()
            })
            .collect();
        RangeTable { nets, cost }
    }

    /// Add a channel carrying `words` of `a` from `src` to `dst`, with
    /// an endpoint on either device.
    fn channel(&self, links: &mut Links, a: &MemAccess, src: u32, dst: u32, words: u64) {
        links.channels.push(Channel {
            src,
            dst,
            mem: a.mem,
            words,
            word_bits: a.word_bits,
            transfers: a.transfers,
            overlapped: a.overlapped,
        });
        for d in [src, dst] {
            links.endpoints[d as usize] += endpoint_cost(self.target, self.link, a.word_bits);
        }
    }

    /// Score a leaf-range split (device = rank) without building it:
    /// channels wherever a memory's accessors span partitions, and the
    /// utilization of each range's table entry plus its endpoints.
    fn plan_ranges(&self, bounds: Vec<(usize, usize)>, table: &RangeTable) -> RangePlan {
        let mut part = vec![0u32; self.units.len()];
        for (d, &(a, b)) in bounds.iter().enumerate() {
            part[a..b].fill(d as u32);
        }
        let mut links = Links::new(bounds.len());
        // Which partitions read and write the memory at hand.
        let mut access = vec![(false, false); bounds.len()];
        for a in &self.accesses {
            access.fill((false, false));
            for &(u, r, w) in &a.units {
                let p = &mut access[part[u as usize] as usize];
                p.0 |= r;
                p.1 |= w;
            }
            // Homed at the first writer, or at the first reader of a
            // memory that no unit writes.
            let first = a.units.iter().find(|u| u.2).unwrap_or(&a.units[0]);
            let h = part[first.0 as usize];
            for (p, &(reads, writes)) in access.iter().enumerate() {
                let p = p as u32;
                if p == h {
                    continue;
                }
                if reads {
                    self.channel(&mut links, a, h, p, a.words);
                }
                if writes {
                    self.channel(&mut links, a, p, h, a.words);
                }
            }
        }
        let peak = bounds
            .iter()
            .zip(&links.endpoints)
            .map(|(&(a, b), &e)| {
                let mut raw = table.net(a, b).raw;
                raw += e;
                util_proxy(&raw, self.target)
            })
            .fold(0.0, f64::max);
        RangePlan {
            bounds,
            links,
            peak,
        }
    }

    /// Build the partitions of the chosen leaf-range split.
    fn build_ranges(&self, k: u32, plan: RangePlan, table: &RangeTable) -> Partitioning {
        let partitions = plan
            .bounds
            .iter()
            .zip(plan.links.endpoints)
            .enumerate()
            .map(|(d, (&(a, b), endpoints))| Partition {
                device: d as u32,
                units: self.units[a..b].to_vec(),
                net: Self::with_endpoints(table.net(a, b).clone(), endpoints),
                endpoints,
            })
            .collect();
        Partitioning {
            num_devices: k,
            cut: CutKind::LeafRanges,
            partitions,
            channels: plan.links.channels,
        }
    }

    /// Build the full plan for a replica split of `ctrl` (par = `total`)
    /// over `devices` devices: device 0 keeps the whole design with its
    /// share; devices 1.. keep only the replica subtree. Memories read
    /// by the subtree but homed outside broadcast 0→i; memories written
    /// by the subtree gather each device's share i→0.
    fn build_replicas(
        &self,
        work: &mut Design,
        k: u32,
        ctrl: NodeId,
        total: u32,
        devices: u32,
    ) -> Partitioning {
        let (lo, hi) = self.subtree[ctrl.index()];
        let share = |i: u32| -> u32 { total / devices + u32::from(i < total % devices) };
        let mut links = Links::new(devices as usize);
        for a in &self.accesses {
            let (mut reads, mut writes) = (false, false);
            for &(u, r, w) in &a.units {
                if (lo..hi).contains(&u) {
                    reads |= r;
                    writes |= w;
                }
            }
            // Only memories declared *outside* the subtree cross the cut
            // (subtree-local memories are private to each replica share).
            let outside = a.scope.map_or(true, |s| !self.is_ancestor(ctrl, s));
            if !(reads || writes) || !outside {
                continue;
            }
            for d in 1..devices {
                if reads {
                    self.channel(&mut links, a, 0, d, a.words);
                }
                if writes {
                    // Each device produces its replica share of the
                    // memory's elements.
                    let part_words = (a.words * u64::from(share(d))).div_ceil(u64::from(total));
                    self.channel(&mut links, a, d, 0, part_words);
                }
            }
        }
        let partitions = (0..devices)
            .zip(links.endpoints)
            .map(|(d, endpoints)| {
                let keep = if d == 0 {
                    0..self.units.len()
                } else {
                    lo as usize..hi as usize
                };
                let net = self.elaborate_share(work, keep.clone(), Some((ctrl, share(d))));
                Partition {
                    device: d,
                    units: self.units[keep].to_vec(),
                    net: Self::with_endpoints(net, endpoints),
                    endpoints,
                }
            })
            .collect();
        Partitioning {
            num_devices: k,
            cut: CutKind::Replicas(ctrl),
            partitions,
            channels: links.channels,
        }
    }
}

/// Elements / element bits of an on-chip memory.
fn mem_shape(design: &Design, m: NodeId) -> (u64, u32) {
    let node = design.node(m);
    let words = match &node.kind {
        NodeKind::Bram(b) => b.elements(),
        NodeKind::Reg(_) => 1,
        NodeKind::PriorityQueue(q) => q.depth,
        _ => 0,
    };
    (words, node.ty.bits())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::elaborate::elaborate;
    use dhdl_core::analysis::traversal::CtrlTree;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};

    fn link() -> BoardLink {
        BoardLink::maia_interlink()
    }

    /// A multi-stage streaming design whose tile buffers can be scaled
    /// past one device's BRAM capacity.
    fn staged(tile: u64, par: u32) -> Design {
        let n = 16 * tile;
        let mut b = DesignBuilder::new("staged");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let mt = b.bram("mT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.tile_load(x, xt, &[i], &[tile], par);
                b.pipe(&[by(tile, 1)], par, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(mt, &[it[0]], w);
                });
                b.pipe(&[by(tile, 1)], par, |b, it| {
                    let v = b.load(mt, &[it[0]]);
                    let w = b.add(v, v);
                    b.store(yt, &[it[0]], w);
                });
                b.tile_store(y, yt, &[i], &[tile], par);
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn k1_is_bit_identical_to_elaborate() {
        let t = FpgaTarget::stratix_v();
        for (tile, par) in [(64, 1), (4096, 8), (65_536, 4)] {
            let d = staged(tile, par);
            let p = partition(&d, &t, &link(), 1);
            assert!(p.is_single());
            assert_eq!(p.cut, CutKind::Single);
            assert!(p.channels.is_empty());
            assert_eq!(p.partitions[0].net, elaborate(&d, &t));
        }
    }

    #[test]
    fn fitting_design_stays_single_at_any_k() {
        let t = FpgaTarget::stratix_v();
        let d = staged(64, 1);
        for k in [2, 4, 8] {
            let p = partition(&d, &t, &link(), k);
            assert!(p.is_single(), "small design must not be cut at k={k}");
            assert_eq!(p.partitions[0].net, elaborate(&d, &t));
        }
    }

    #[test]
    fn oversized_design_splits_and_partitions_shrink() {
        let t = FpgaTarget::stratix_v();
        // 3 × 64K-word double-buffered F32 tiles: way past one device.
        let d = staged(262_144, 1);
        let whole = util_proxy(&elaborate(&d, &t).raw, &t);
        assert!(whole > 1.0, "test design must exceed one device: {whole}");
        let p = partition(&d, &t, &link(), 2);
        assert_eq!(p.devices_used(), 2);
        assert!(!p.channels.is_empty(), "a cut must produce channels");
        for part in &p.partitions {
            let u = util_proxy(&part.net.raw, &t);
            assert!(u < whole, "partition {u} must be smaller than {whole}");
        }
    }

    #[test]
    fn partitioning_is_deterministic() {
        let t = FpgaTarget::stratix_v();
        let d = staged(262_144, 2);
        let a = partition(&d, &t, &link(), 4);
        let b = partition(&d, &t, &link(), 4);
        assert_eq!(a, b);
    }

    #[test]
    fn channels_connect_placed_devices() {
        let t = FpgaTarget::stratix_v();
        let d = staged(262_144, 1);
        let p = partition(&d, &t, &link(), 4);
        let used = p.devices_used();
        for ch in &p.channels {
            assert!(ch.src < used && ch.dst < used);
            assert_ne!(ch.src, ch.dst);
            assert!(ch.words > 0 && ch.word_bits > 0 && ch.transfers > 0);
        }
        // Endpoint hardware is charged on partitions that own channels.
        if !p.channels.is_empty() {
            assert!(p.partitions.iter().any(|q| q.endpoints.brams > 0.0));
        }
    }

    #[test]
    fn link_cycles_scale_with_traffic() {
        let t = FpgaTarget::stratix_v();
        let d = staged(262_144, 1);
        let p = partition(&d, &t, &link(), 2);
        let l = link();
        let cycles = p.link_cycles(&l);
        assert!(cycles > 0.0);
        // A slower link exposes more cycles.
        let slow = BoardLink {
            words_per_cycle: l.words_per_cycle / 4.0,
            ..l.clone()
        };
        assert!(p.link_cycles(&slow) > cycles);
        // The single plan exposes none.
        assert_eq!(partition(&d, &t, &l, 1).link_cycles(&l), 0.0);
    }

    /// Compute-dominated: one outer controller replicated 16×, each
    /// replica multiplying a large F64 tile (DSP-heavy).
    fn replicated() -> Design {
        let tile = 2048u64;
        let mut b = DesignBuilder::new("rep");
        let x = b.off_chip("x", DType::F64, &[tile]);
        b.sequential(|b| {
            let xt = b.bram("xT", DType::F64, &[tile]);
            let z = b.index_const(0);
            b.tile_load(x, xt, &[z], &[tile], 1);
            b.meta_pipe(&[by(1024, 1)], 16, |b, _| {
                let yt = b.bram("yT", DType::F64, &[tile]);
                b.pipe(&[by(tile, 1)], 32, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    let u = b.mul(w, v);
                    b.store(yt, &[it[0]], u);
                });
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn replica_cut_splits_outer_par() {
        let t = FpgaTarget::stratix_v();
        let d = replicated();
        let whole = elaborate(&d, &t);
        assert!(
            util_proxy(&whole.raw, &t) > FIT_MARGIN,
            "replica test design must overflow one device"
        );
        let p = partition(&d, &t, &link(), 2);
        assert!(p.devices_used() >= 2);
        let peak = p
            .partitions
            .iter()
            .map(|q| util_proxy(&q.net.raw, &t))
            .fold(0.0, f64::max);
        assert!(peak < util_proxy(&whole.raw, &t));
    }

    /// A folding outer controller inside a `Parallel` container, with a
    /// register reduced by one of its pipes: the fold, `Parallel` and
    /// reduction paths of a derivation.
    fn folded() -> Design {
        let mut b = DesignBuilder::new("fold");
        let x = b.off_chip("x", DType::F32, &[4096]);
        let y = b.off_chip("y", DType::F32, &[64]);
        b.sequential(|b| {
            let acc = b.bram("acc", DType::F32, &[64]);
            let r = b.reg("r", DType::F32, 0.0);
            b.parallel(|b| {
                b.outer_fold(true, &[by(4096, 64)], 2, acc, ReduceOp::Add, |b, iters| {
                    let xt = b.bram("xT", DType::F32, &[64]);
                    let pt = b.bram("pT", DType::F32, &[64]);
                    b.tile_load(x, xt, &[iters[0]], &[64], 1);
                    b.pipe(&[by(64, 1)], 4, |b, it| {
                        let v = b.load(xt, &[it[0]]);
                        let w = b.mul(v, v);
                        b.store(pt, &[it[0]], w);
                    });
                    pt
                });
                b.pipe_reduce(&[by(64, 1)], 2, r, ReduceOp::Add, |b, it| {
                    let v = b.load(acc, &[it[0]]);
                    b.add(v, v)
                });
            });
            let z = b.index_const(0);
            b.tile_store(y, acc, &[z], &[64], 1);
        });
        b.finish().unwrap()
    }

    /// The clone-and-retain derivation the in-place one replaced, kept
    /// as its oracle: every derived design is a fresh clone of the
    /// original, pruned through sets.
    fn derive_by_clone(
        design: &Design,
        keep: &BTreeSet<usize>,
        par_override: Option<(NodeId, u32)>,
    ) -> Design {
        let units = leaf_units(design);
        let index: std::collections::BTreeMap<NodeId, usize> =
            units.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let tree = CtrlTree::of(design);
        let subtree_end = |ctrl: NodeId| {
            let mut end = 0;
            design.walk_controllers(ctrl, &mut |_, id| {
                if let Some(&i) = index.get(&id) {
                    end = end.max(i + 1);
                }
            });
            end
        };
        let mut unit_mems = vec![BTreeSet::new(); units.len()];
        let mut fold_owned = vec![BTreeSet::new(); units.len()];
        for ctrl in design.controllers() {
            match design.kind(ctrl) {
                NodeKind::Pipe(p) => {
                    let i = index[&ctrl];
                    for &n in &p.body {
                        if let NodeKind::Load { mem, .. } | NodeKind::Store { mem, .. } =
                            design.kind(n)
                        {
                            unit_mems[i].insert(*mem);
                        }
                    }
                    if let Some(r) = &p.reduce {
                        unit_mems[i].insert(r.reg);
                    }
                }
                NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                    unit_mems[index[&ctrl]].insert(t.local);
                }
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    if let Some(f) = &s.fold {
                        let end = subtree_end(ctrl);
                        if end > 0 {
                            unit_mems[end - 1].insert(f.src);
                            unit_mems[end - 1].insert(f.accum);
                            fold_owned[end - 1].insert(ctrl);
                        }
                    }
                }
                _ => {}
            }
        }
        let mut kept_mems = BTreeSet::new();
        let mut kept_ctrls = BTreeSet::new();
        let mut kept_folds = BTreeSet::new();
        for &i in keep {
            kept_mems.extend(unit_mems[i].iter().copied());
            kept_folds.extend(fold_owned[i].iter().copied());
            let mut n = units[i];
            kept_ctrls.insert(n);
            while let Some(p) = tree.parent(n) {
                kept_ctrls.insert(p);
                n = p;
            }
        }
        let mut derived = design.clone();
        for ctrl in design.controllers() {
            match &mut derived.node_mut(ctrl).kind {
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    s.stages.retain(|st| kept_ctrls.contains(st));
                    s.locals.retain(|m| kept_mems.contains(m));
                    if s.fold.is_some() && !kept_folds.contains(&ctrl) {
                        s.fold = None;
                    }
                    if let Some((c, share)) = par_override {
                        if c == ctrl {
                            s.par = share;
                        }
                    }
                }
                NodeKind::ParallelCtrl { stages, locals } => {
                    stages.retain(|st| kept_ctrls.contains(st));
                    locals.retain(|m| kept_mems.contains(m));
                }
                _ => {}
            }
        }
        derived
    }

    /// Every leaf range and replica share of the test designs, derived
    /// in place on one working copy, equals the clone-and-retain
    /// derivation, and the restricted skeleton re-costs it to exactly
    /// the netlist `elaborate` gives it.
    #[test]
    fn in_place_derivation_matches_clone_and_retain() {
        let t = FpgaTarget::stratix_v();
        let l = link();
        let designs = [
            staged(64, 1),
            staged(4096, 8),
            staged(262_144, 2),
            replicated(),
            folded(),
        ];
        let (mut ranges, mut shares) = (0, 0);
        for d in &designs {
            let skel = Skeleton::of(d);
            let ctx = Ctx::new(d, &t, &l, &skel, leaf_units(d));
            let mut work = d.clone();
            let mut check = |keep: Range<usize>, par: Option<(NodeId, u32)>| {
                let net = ctx.elaborate_share(&mut work, keep.clone(), par);
                let expected = derive_by_clone(d, &keep.collect(), par);
                assert_eq!(work, expected, "{}: derived design", d.name());
                assert_eq!(net, elaborate(&expected, &t), "{}: netlist", d.name());
            };
            // Shares first, the smallest last, so that the ranges after
            // them start from a copy whose `par` is not the original's.
            let u = ctx.units.len();
            for &ctrl in &ctx.outer {
                let (NodeKind::MetaPipe(s) | NodeKind::Sequential(s)) = d.kind(ctrl) else {
                    continue;
                };
                let (lo, hi) = ctx.subtree[ctrl.index()];
                for share in (1..=s.par).rev() {
                    check(0..u, Some((ctrl, share)));
                    check(lo as usize..hi as usize, Some((ctrl, share)));
                    shares += 2;
                }
            }
            for i in 0..u {
                for j in i + 1..=u {
                    check(i..j, None);
                    ranges += 1;
                }
            }
        }
        assert!(
            ranges > 20 && shares > 20,
            "{ranges} ranges, {shares} shares"
        );
    }
}
