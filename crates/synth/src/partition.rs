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
//! Per-partition netlists come from *derived designs*: the design is
//! cloned, controllers/locals that the partition does not keep are pruned
//! from the stage/local lists, and the ordinary [`elaborate`] pass runs
//! on the result, so partition areas are priced by exactly the same
//! template models as whole designs. Each contiguous leaf range is derived
//! and elaborated once per call: the leaf-range DP of every device count
//! and the plans it picks read the same table, whose cells the
//! `synth.partition.range_elaborations` counter counts. Channel endpoint
//! FIFOs are added analytically on top. (Derived designs share the
//! original arena, so the netlist *features* — used only by the
//! estimator's correction networks — still see whole-design statistics;
//! the resource counts, which drive capacity checks, are exact for the
//! pruned tree.)
//!
//! Cross-device traffic assumes host-broadcast off-chip inputs: every
//! device's DRAM holds the input arrays, so only *on-chip* memories
//! crossing a cut become link channels.

use std::collections::{BTreeMap, BTreeSet};

use dhdl_core::analysis::traversal::CtrlTree;
use dhdl_core::{Design, NodeId, NodeKind};
use dhdl_target::{BoardLink, FpgaTarget, Resources};

use crate::chardata::{bram_cost, counter_cost};
use crate::elaborate::{elaborate, Netlist};

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
    assert!(k > 0, "partitioning needs at least one device");
    let whole = elaborate(design, target);
    let units = leaf_units(design);
    let single = |net: Netlist| Partitioning {
        num_devices: k,
        cut: CutKind::Single,
        partitions: vec![Partition {
            device: 0,
            units: units.clone(),
            net,
            endpoints: Resources::zero(),
        }],
        channels: Vec::new(),
    };
    if k == 1 || units.len() <= 1 || util_proxy(&whole.raw, target) <= FIT_MARGIN {
        return single(whole);
    }
    let _span = dhdl_obs::span_arg("partition", "k", u64::from(k));
    let ctx = Ctx::new(design, target, link);
    let mut candidates: Vec<Partitioning> = Vec::new();
    // Leaf-range plans: one per device count, boundaries from a min-max
    // DP over contiguous range costs, every range priced once per call.
    let table = ctx.range_table();
    for parts in 2..=k.min(units.len() as u32) {
        if let Some(plan) = table.best(parts as usize) {
            candidates.push(ctx.build_ranges(k, &plan, &table));
        }
    }
    // Replica plans: one per parallelized outer controller.
    for ctrl in design.controllers() {
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
        candidates.push(ctx.build_replicas(k, ctrl, s.par, devices));
    }
    if candidates.is_empty() {
        return single(whole);
    }
    // Deterministic selection: fewest devices whose largest partition
    // fits, then minimum peak utilization, then candidate order.
    let score = |p: &Partitioning| -> (bool, usize, f64) {
        let peak = p
            .partitions
            .iter()
            .map(|part| util_proxy(&part.net.raw, target))
            .fold(0.0, f64::max);
        (peak > FIT_MARGIN, p.partitions.len(), peak)
    };
    let mut best = 0;
    for i in 1..candidates.len() {
        let (a_over, a_parts, a_util) = score(&candidates[best]);
        let (b_over, b_parts, b_util) = score(&candidates[i]);
        // Lexicographic: fitting beats overflowing, then fewer devices,
        // then lower peak utilization; ties keep the earlier candidate.
        let better = (b_over, b_parts, b_util.total_cmp(&a_util))
            < (a_over, a_parts, std::cmp::Ordering::Equal);
        if better {
            best = i;
        }
    }
    candidates.swap_remove(best)
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
/// reads the costs, and a chosen range's netlist is cloned from here.
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

/// Shared analysis state for candidate-plan construction.
struct Ctx<'a> {
    design: &'a Design,
    target: &'a FpgaTarget,
    link: &'a BoardLink,
    units: Vec<NodeId>,
    /// Memories read / written by each unit (fold stages attributed to
    /// the last unit of the folding controller's subtree).
    unit_reads: Vec<BTreeSet<NodeId>>,
    unit_writes: Vec<BTreeSet<NodeId>>,
    /// Controllers whose fold stage each unit owns.
    fold_owned: Vec<BTreeSet<NodeId>>,
    /// Scope (declaring controller) of every on-chip memory.
    scope: BTreeMap<NodeId, NodeId>,
    /// Executions of each controller's body over the whole run.
    body_execs: BTreeMap<NodeId, u64>,
    /// Pre-order leaf-unit index range `[start, end)` of each controller
    /// subtree.
    subtree: BTreeMap<NodeId, (usize, usize)>,
    tree: CtrlTree,
}

impl<'a> Ctx<'a> {
    fn new(design: &'a Design, target: &'a FpgaTarget, link: &'a BoardLink) -> Self {
        let units = leaf_units(design);
        let index: BTreeMap<NodeId, usize> =
            units.iter().enumerate().map(|(i, &u)| (u, i)).collect();
        let mut unit_reads = vec![BTreeSet::new(); units.len()];
        let mut unit_writes = vec![BTreeSet::new(); units.len()];
        let mut fold_owned = vec![BTreeSet::new(); units.len()];
        let mut scope = BTreeMap::new();
        let mut subtree = BTreeMap::new();
        // Subtree leaf ranges: pre-order leaves of a subtree are
        // contiguous, so a recursive walk assigns [start, end) ranges.
        fn ranges(
            design: &Design,
            id: NodeId,
            index: &BTreeMap<NodeId, usize>,
            subtree: &mut BTreeMap<NodeId, (usize, usize)>,
        ) -> (usize, usize) {
            if let Some(&i) = index.get(&id) {
                subtree.insert(id, (i, i + 1));
                return (i, i + 1);
            }
            let mut lo = usize::MAX;
            let mut hi = 0;
            for &st in design.stages(id) {
                let (a, b) = ranges(design, st, index, subtree);
                lo = lo.min(a);
                hi = hi.max(b);
            }
            if lo == usize::MAX {
                lo = 0;
                hi = 0;
            }
            subtree.insert(id, (lo, hi));
            (lo, hi)
        }
        ranges(design, design.top(), &index, &mut subtree);
        for ctrl in design.controllers() {
            for &m in design.locals(ctrl) {
                scope.insert(m, ctrl);
            }
            match design.kind(ctrl) {
                NodeKind::Pipe(p) => {
                    let i = index[&ctrl];
                    for &n in &p.body {
                        match design.kind(n) {
                            NodeKind::Load { mem, .. } => {
                                unit_reads[i].insert(*mem);
                            }
                            NodeKind::Store { mem, .. } => {
                                unit_writes[i].insert(*mem);
                            }
                            _ => {}
                        }
                    }
                    if let Some(r) = &p.reduce {
                        unit_reads[i].insert(r.reg);
                        unit_writes[i].insert(r.reg);
                    }
                }
                NodeKind::TileLoad(t) => {
                    unit_writes[index[&ctrl]].insert(t.local);
                }
                NodeKind::TileStore(t) => {
                    unit_reads[index[&ctrl]].insert(t.local);
                }
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    if let Some(f) = &s.fold {
                        // The implicit fold stage runs after the body's
                        // last unit: attribute its accesses (and the
                        // fold itself) there.
                        let (_, end) = subtree[&ctrl];
                        if end > 0 {
                            let owner = end - 1;
                            unit_reads[owner].insert(f.src);
                            unit_reads[owner].insert(f.accum);
                            unit_writes[owner].insert(f.accum);
                            fold_owned[owner].insert(ctrl);
                        }
                    }
                }
                _ => {}
            }
        }
        // Executions of each controller's body: the product of ancestor
        // effective trip counts, matching the latency estimator.
        let mut body_execs = BTreeMap::new();
        fn execs(design: &Design, id: NodeId, runs: u64, out: &mut BTreeMap<NodeId, u64>) {
            let body = match design.kind(id) {
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    runs * s.ctr.total_iters().div_ceil(u64::from(s.par.max(1))).max(1)
                }
                _ => runs,
            };
            out.insert(id, body);
            for &st in design.stages(id) {
                execs(design, st, body, out);
            }
        }
        execs(design, design.top(), 1, &mut body_execs);
        Ctx {
            design,
            target,
            link,
            units,
            unit_reads,
            unit_writes,
            fold_owned,
            scope,
            body_execs,
            subtree,
            tree: CtrlTree::of(design),
        }
    }

    fn subtree_has_tile_store(&self, ctrl: NodeId) -> bool {
        let (lo, hi) = self.subtree[&ctrl];
        self.units[lo..hi]
            .iter()
            .any(|&u| matches!(self.design.kind(u), NodeKind::TileStore(_)))
    }

    /// Elements / element bits of an on-chip memory.
    fn mem_shape(&self, m: NodeId) -> (u64, u32) {
        let node = self.design.node(m);
        let words = match &node.kind {
            NodeKind::Bram(b) => b.elements(),
            NodeKind::Reg(_) => 1,
            NodeKind::PriorityQueue(q) => q.depth,
            _ => 0,
        };
        (words, node.ty.bits())
    }

    /// Refill count and overlap flag of a memory, from its scope.
    fn mem_timing(&self, m: NodeId) -> (u64, bool) {
        let Some(&scope) = self.scope.get(&m) else {
            return (1, false);
        };
        let transfers = self.body_execs.get(&scope).copied().unwrap_or(1).max(1);
        let overlapped = matches!(
            self.design.kind(scope),
            NodeKind::MetaPipe(_) | NodeKind::ParallelCtrl { .. }
        );
        (transfers, overlapped)
    }

    /// The derived design of one partition: kept units' ancestors retain
    /// only kept stages and accessed locals; fold stages survive only on
    /// the partition owning their attributed unit; an optional `par`
    /// override implements replica shares.
    fn derive(&self, keep: &BTreeSet<usize>, par_override: Option<(NodeId, u32)>) -> Design {
        let mut kept_mems: BTreeSet<NodeId> = BTreeSet::new();
        let mut kept_units: BTreeSet<NodeId> = BTreeSet::new();
        let mut kept_folds: BTreeSet<NodeId> = BTreeSet::new();
        for &i in keep {
            kept_units.insert(self.units[i]);
            kept_mems.extend(self.unit_reads[i].iter().copied());
            kept_mems.extend(self.unit_writes[i].iter().copied());
            kept_folds.extend(self.fold_owned[i].iter().copied());
        }
        let mut kept_ctrls = kept_units.clone();
        for &u in &kept_units {
            let mut n = u;
            while let Some(p) = self.tree.parent(n) {
                kept_ctrls.insert(p);
                n = p;
            }
        }
        let mut derived = self.design.clone();
        for ctrl in self.design.controllers() {
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

    /// A partition's netlist: its derived design's elaboration `net` plus
    /// the hardware of its channel endpoints, which is also returned.
    fn with_endpoints(&self, mut net: Netlist, endpoint_bits: &[u32]) -> (Netlist, Resources) {
        let mut endpoints = Resources::zero();
        for &bits in endpoint_bits {
            endpoints += endpoint_cost(self.target, self.link, bits);
        }
        net.raw += endpoints;
        net.breakdown.memories += endpoints;
        (net, endpoints)
    }

    /// Derive and elaborate every contiguous leaf range once.
    fn range_table(&self) -> RangeTable {
        let u = self.units.len();
        let nets: Vec<Vec<Netlist>> = (0..u)
            .map(|i| {
                ((i + 1)..=u)
                    .map(|j| elaborate(&self.derive(&(i..j).collect(), None), self.target))
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

    /// Build the full plan for a leaf-range split: partitions in range
    /// order (device = rank), channels wherever a memory's accessors
    /// span partitions.
    fn build_ranges(&self, k: u32, ranges: &[(usize, usize)], table: &RangeTable) -> Partitioning {
        let part_of = |unit: usize| -> u32 {
            ranges
                .iter()
                .position(|&(a, b)| unit >= a && unit < b)
                .expect("ranges cover all units") as u32
        };
        // Accessor partitions per memory, in unit order.
        let mut readers: BTreeMap<NodeId, BTreeSet<u32>> = BTreeMap::new();
        let mut writers: BTreeMap<NodeId, BTreeSet<u32>> = BTreeMap::new();
        let mut home: BTreeMap<NodeId, u32> = BTreeMap::new();
        for i in 0..self.units.len() {
            let p = part_of(i);
            for &m in &self.unit_writes[i] {
                writers.entry(m).or_default().insert(p);
                home.entry(m).or_insert(p);
            }
            for &m in &self.unit_reads[i] {
                readers.entry(m).or_default().insert(p);
            }
        }
        // Readers-only memories are homed at their first reader.
        for i in 0..self.units.len() {
            let p = part_of(i);
            for &m in &self.unit_reads[i] {
                home.entry(m).or_insert(p);
            }
        }
        let mut channels = Vec::new();
        let mut endpoint_bits: Vec<Vec<u32>> = vec![Vec::new(); ranges.len()];
        let mems: BTreeSet<NodeId> = readers.keys().chain(writers.keys()).copied().collect();
        for m in mems {
            let (words, word_bits) = self.mem_shape(m);
            if words == 0 {
                continue;
            }
            let (transfers, overlapped) = self.mem_timing(m);
            let h = home[&m];
            let empty = BTreeSet::new();
            let rs = readers.get(&m).unwrap_or(&empty);
            let ws = writers.get(&m).unwrap_or(&empty);
            let accessors: BTreeSet<u32> = rs.iter().chain(ws.iter()).copied().collect();
            for p in accessors {
                if p == h {
                    continue;
                }
                if rs.contains(&p) {
                    channels.push(Channel {
                        src: h,
                        dst: p,
                        mem: m,
                        words,
                        word_bits,
                        transfers,
                        overlapped,
                    });
                    endpoint_bits[h as usize].push(word_bits);
                    endpoint_bits[p as usize].push(word_bits);
                }
                if ws.contains(&p) {
                    channels.push(Channel {
                        src: p,
                        dst: h,
                        mem: m,
                        words,
                        word_bits,
                        transfers,
                        overlapped,
                    });
                    endpoint_bits[p as usize].push(word_bits);
                    endpoint_bits[h as usize].push(word_bits);
                }
            }
        }
        let partitions = ranges
            .iter()
            .enumerate()
            .map(|(d, &(a, b))| {
                let (net, endpoints) =
                    self.with_endpoints(table.net(a, b).clone(), &endpoint_bits[d]);
                Partition {
                    device: d as u32,
                    units: self.units[a..b].to_vec(),
                    net,
                    endpoints,
                }
            })
            .collect();
        Partitioning {
            num_devices: k,
            cut: CutKind::LeafRanges,
            partitions,
            channels,
        }
    }

    /// Build the full plan for a replica split of `ctrl` (par = `total`)
    /// over `devices` devices: device 0 keeps the whole design with its
    /// share; devices 1.. keep only the replica subtree. Memories read
    /// by the subtree but homed outside broadcast 0→i; memories written
    /// by the subtree gather each device's share i→0.
    fn build_replicas(&self, k: u32, ctrl: NodeId, total: u32, devices: u32) -> Partitioning {
        let (lo, hi) = self.subtree[&ctrl];
        let share = |i: u32| -> u32 { total / devices + u32::from(i < total % devices) };
        let mut sub_reads: BTreeSet<NodeId> = BTreeSet::new();
        let mut sub_writes: BTreeSet<NodeId> = BTreeSet::new();
        for i in lo..hi {
            sub_reads.extend(self.unit_reads[i].iter().copied());
            sub_writes.extend(self.unit_writes[i].iter().copied());
        }
        // Only memories declared *outside* the subtree cross the cut
        // (subtree-local memories are private to each replica share).
        let outside = |m: &NodeId| -> bool {
            match self.scope.get(m) {
                Some(&s) => !self.tree.is_ancestor(ctrl, s),
                None => true,
            }
        };
        let mut channels = Vec::new();
        let mut endpoint_bits: Vec<Vec<u32>> = vec![Vec::new(); devices as usize];
        let crossing: BTreeSet<NodeId> = sub_reads
            .union(&sub_writes)
            .copied()
            .filter(outside)
            .collect();
        for m in crossing {
            let (words, word_bits) = self.mem_shape(m);
            if words == 0 {
                continue;
            }
            let (transfers, overlapped) = self.mem_timing(m);
            for d in 1..devices {
                if sub_reads.contains(&m) {
                    channels.push(Channel {
                        src: 0,
                        dst: d,
                        mem: m,
                        words,
                        word_bits,
                        transfers,
                        overlapped,
                    });
                    endpoint_bits[0].push(word_bits);
                    endpoint_bits[d as usize].push(word_bits);
                }
                if sub_writes.contains(&m) {
                    // Each device produces its replica share of the
                    // memory's elements.
                    let part_words = (words * u64::from(share(d))).div_ceil(u64::from(total));
                    channels.push(Channel {
                        src: d,
                        dst: 0,
                        mem: m,
                        words: part_words,
                        word_bits,
                        transfers,
                        overlapped,
                    });
                    endpoint_bits[d as usize].push(word_bits);
                    endpoint_bits[0].push(word_bits);
                }
            }
        }
        let partitions = (0..devices)
            .map(|d| {
                let keep: BTreeSet<usize> = if d == 0 {
                    (0..self.units.len()).collect()
                } else {
                    (lo..hi).collect()
                };
                let derived = self.derive(&keep, Some((ctrl, share(d))));
                let (net, endpoints) = self
                    .with_endpoints(elaborate(&derived, self.target), &endpoint_bits[d as usize]);
                Partition {
                    device: d,
                    units: if d == 0 {
                        self.units.clone()
                    } else {
                        self.units[lo..hi].to_vec()
                    },
                    net,
                    endpoints,
                }
            })
            .collect();
        Partitioning {
            num_devices: k,
            cut: CutKind::Replicas(ctrl),
            partitions,
            channels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder};

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

    #[test]
    fn replica_cut_splits_outer_par() {
        let t = FpgaTarget::stratix_v();
        // Compute-dominated: one outer controller replicated 8×, each
        // replica multiplying a large F64 tile (DSP-heavy).
        let tile = 2048u64;
        let mut b = DesignBuilder::new("rep");
        let x = b.off_chip("x", DType::F64, &[tile]);
        let d = {
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
        };
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
}
