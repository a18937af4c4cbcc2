//! Design elaboration: flattening a DHDL design instance into raw resource
//! counts using the characterized template models.
//!
//! This is the "counting the resource requirements of each node using their
//! pre-characterized area models" step of §IV-B2, shared by the estimator
//! (as its raw area pass) and by the synthesis model (as the input to
//! place-and-route). Replication from parallelization factors, reduction
//! trees, and delay-balancing registers (ASAP schedule) are all applied
//! here.
//!
//! Elaboration is the DSE hot path: a 75 000-point sweep elaborates 75 000
//! designs that share one structure and differ only in parameters (tile
//! sizes, par factors, banking). It is therefore split in two:
//!
//! * a [`Skeleton`] — everything that depends only on the design's
//!   *structure* (controller tree, pipe body topology, per-node cost-model
//!   lookups keyed by op and type, and the [`LatencyPlan`] the cycle
//!   estimator walks), built once per structure and cached per-thread
//!   keyed by [`shape_hash`] (a partition's derived designs reuse the
//!   cached skeleton's pipe plans and rebuild only the controller tree);
//! * a cheap re-costing pass ([`elaborate_with`]) that reads the
//!   param-dependent values (par factors, replication, memory geometry,
//!   banking, counter lengths) from the concrete design and produces the
//!   [`Netlist`].
//!
//! The split is bit-exact: re-costing performs the same floating-point
//! operations in the same order as a direct walk, so netlists (and
//! everything downstream: estimates, place-and-route, sweeps) are
//! unchanged. Pipe critical-path depths fall out of the ASAP schedule for
//! free and are recorded on the netlist so the latency estimator does not
//! re-schedule the same bodies.

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;
use std::sync::Arc;

use dhdl_core::{shape_hash, DType, Design, DesignStats, NodeId, NodeKind, Pattern, PipeSpec};
use dhdl_target::{FpgaTarget, Resources};

use crate::chardata::{
    access_cost, bram_cost, controller_cost, counter_cost, delay_cost, mux_cost, pqueue_cost,
    prim_cost, reduce_tree_cost, reg_cost, tile_unit_cost, ControllerKind, OpCost,
};

/// Structural features of an elaborated netlist, used by the
/// place-and-route model and (via calibration samples) by the estimator's
/// correction networks.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NetFeatures {
    /// Primitive node instances after replication (physical lanes).
    pub prims: f64,
    /// On-chip memory instances.
    pub mems: f64,
    /// Controller instances.
    pub ctrls: f64,
    /// Maximum controller nesting depth.
    pub depth: f64,
    /// Dataflow edges after replication.
    pub edges: f64,
    /// Average vector width of primitives.
    pub avg_width: f64,
}

/// Raw resources attributed to template classes — the per-class area
/// breakdown used for reporting and bottleneck attribution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AreaBreakdown {
    /// Primitive datapath (arithmetic, muxes, loads/stores, reduce trees).
    pub primitives: Resources,
    /// On-chip memories (BRAMs, registers, queues).
    pub memories: Resources,
    /// Controller and counter logic.
    pub control: Resources,
    /// Off-chip tile transfer units (command generators, FIFOs).
    pub transfers: Resources,
    /// Delay-balancing registers/BRAMs from the ASAP schedule.
    pub delays: Resources,
}

impl AreaBreakdown {
    /// Sum of all classes (equals the netlist's raw resources).
    pub fn total(&self) -> Resources {
        self.primitives
            .plus(&self.memories)
            .plus(&self.control)
            .plus(&self.transfers)
            .plus(&self.delays)
    }
}

/// An elaborated design: raw resources plus netlist features.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Netlist {
    /// Raw resource requirements before any low-level tool effects.
    pub raw: Resources,
    /// Per-template-class attribution of `raw`.
    pub breakdown: AreaBreakdown,
    /// Netlist structure features.
    pub features: NetFeatures,
    /// Critical-path depth of each `Pipe` body with its controller id, in
    /// controller pre-order ([`PlanCtrl::slot`] indexes it) — a byproduct
    /// of the delay-balancing ASAP schedule, recorded so the latency
    /// estimator can skip re-scheduling. Equals [`pipe_depth`] on the
    /// same design.
    pub pipe_depths: Vec<(NodeId, u64)>,
    /// The skeleton's latency plan, shared (not copied) into every
    /// netlist re-costed from it.
    pub latency: Arc<LatencyPlan>,
}

/// Elaborate a design into raw resource counts on `target`.
///
/// Skeletons are cached per-thread keyed by [`shape_hash`], so sweeping
/// many parameterizations of one benchmark pays the structural analysis
/// once; use [`elaborate_with`] to manage the skeleton explicitly.
pub fn elaborate(design: &Design, target: &FpgaTarget) -> Netlist {
    elaborate_with(design, target, &cached_skeleton(design))
}

/// The skeleton of `design` from the per-thread cache [`elaborate`]
/// reads, built on a miss.
pub(crate) fn cached_skeleton(design: &Design) -> Rc<Skeleton> {
    thread_local! {
        static SKELETONS: RefCell<HashMap<u64, Rc<Skeleton>>> = RefCell::new(HashMap::new());
    }
    let shape = shape_hash(design);
    SKELETONS.with(|cache| {
        let mut map = cache.borrow_mut();
        // Bound the per-thread cache; a sweep touches a handful of shapes.
        if map.len() >= 256 {
            map.clear();
        }
        match map.entry(shape) {
            Entry::Occupied(e) => {
                dhdl_obs::counter!("synth.skeleton.reuse").incr();
                e.get().clone()
            }
            Entry::Vacant(e) => {
                dhdl_obs::counter!("synth.skeleton.build").incr();
                let _t = dhdl_obs::histogram!("synth.skeleton.build_ns").timer();
                e.insert(Rc::new(Skeleton::with_shape(design, shape)))
                    .clone()
            }
        }
    })
}

/// Elaborate `design` using a pre-built structural [`Skeleton`].
///
/// The skeleton must have been built from a design with the same
/// [`shape_hash`] (same structure; parameters are free to differ) —
/// this is checked in debug builds.
pub fn elaborate_with(design: &Design, target: &FpgaTarget, skel: &Skeleton) -> Netlist {
    debug_assert_eq!(
        skel.shape,
        shape_hash(design),
        "skeleton/design structure mismatch"
    );
    let _span = dhdl_obs::span_arg("elaborate", "shape", skel.shape);
    let _t = dhdl_obs::histogram!("synth.recost_ns").timer();
    // Everything the walk pushes to is sized up front: one depth per
    // pipe, and a schedule as long as the longest body.
    let longest_body = skel.pipes.iter().map(|p| p.body.len()).max().unwrap_or(0);
    let mut acc = Acc {
        pipe_depths: Vec::with_capacity(skel.pipes.len()),
        sched: Vec::with_capacity(longest_body),
        ..Acc::default()
    };
    visit_plan(design, target, skel, 0, 1.0, &mut acc);
    let stats = DesignStats::of(design);
    Netlist {
        raw: acc.breakdown.total(),
        breakdown: acc.breakdown,
        features: NetFeatures {
            prims: acc.phys_prims.max(1.0),
            mems: stats.memories as f64,
            ctrls: stats.controllers as f64,
            depth: stats.depth as f64,
            edges: acc.edges,
            avg_width: stats.avg_width(),
        },
        pipe_depths: acc.pipe_depths,
        latency: skel.latency.clone(),
    }
}

/// The structure-dependent half of elaboration: the controller tree
/// (flat, with the competitor lists the latency estimator needs) and,
/// per `Pipe`, resolved per-lane cost-model lookups and body wiring.
/// Build once per benchmark structure (see [`shape_hash`]) and re-cost
/// arbitrarily many parameterizations with [`elaborate_with`].
///
/// The pipe plans are shared, not copied: a partition's derived design
/// keeps every node and pipe body of the design it was cut from, so its
/// skeleton rebuilds only the controller tree and reuses the original
/// skeleton's plans.
#[derive(Debug, Clone)]
pub struct Skeleton {
    shape: u64,
    /// The controller tree, flattened; shared with every netlist.
    latency: Arc<LatencyPlan>,
    /// Body plans of the `Pipe`s, indexed by [`PlanCtrl::slot`].
    pipes: Vec<Arc<PipePlan>>,
}

impl Skeleton {
    /// Analyze `design`'s structure.
    pub fn of(design: &Design) -> Skeleton {
        Skeleton::with_shape(design, shape_hash(design))
    }

    fn with_shape(design: &Design, shape: u64) -> Skeleton {
        let latency = {
            let _t = dhdl_obs::histogram!("synth.skeleton.latency_plan_ns").timer();
            Arc::new(LatencyPlan::of(design))
        };
        // Body positions of the pipe being planned, by node; every other
        // node reads `OUTSIDE`.
        let mut position = vec![OUTSIDE; design.len()];
        let pipes = latency
            .ctrls
            .iter()
            .filter_map(|c| match design.kind(c.id) {
                NodeKind::Pipe(p) => Some(Arc::new(pipe_plan(design, p, &mut position))),
                _ => None,
            });
        Skeleton {
            shape,
            pipes: pipes.collect(),
            latency,
        }
    }

    /// The skeleton of `derived`, a design that keeps every node and
    /// pipe body of the design this skeleton was built from and differs
    /// only in its outer controllers' stages, locals, folds and `par` —
    /// a partition's derived design. Its controller tree is walked
    /// afresh; its pipe plans are this skeleton's own.
    pub(crate) fn restrict(&self, derived: &Design) -> Skeleton {
        let latency = LatencyPlan::of(derived);
        let is_pipe = |c: &&PlanCtrl| matches!(derived.kind(c.id), NodeKind::Pipe(_));
        // Pruning keeps the surviving pipes in pre-order, so one pass
        // over the original pipes finds them all.
        let mut own = self.latency.ctrls.iter().filter(is_pipe);
        let pipes = latency
            .ctrls
            .iter()
            .filter(is_pipe)
            .map(|c| {
                let at = own
                    .find(|o| o.id == c.id)
                    .expect("a derived design keeps its pipes in pre-order");
                self.pipes[at.slot as usize].clone()
            })
            .collect();
        Skeleton {
            shape: shape_hash(derived),
            latency: Arc::new(latency),
            pipes,
        }
    }

    /// The [`shape_hash`] of the structure this skeleton was built from.
    pub fn shape(&self) -> u64 {
        self.shape
    }
}

/// Marks a node outside the pipe body being planned.
const OUTSIDE: u32 = u32::MAX;

/// Pre-resolved structure of one pipe body.
#[derive(Debug)]
struct PipePlan {
    body: Vec<BodyPlan>,
    /// Every body node's scheduled inputs, concatenated in body order:
    /// positions (indices into the body) of inputs that are themselves
    /// body nodes, in raw input order. Other inputs (iterators,
    /// out-of-body values) are timing-free.
    inputs: Vec<u32>,
    /// Dataflow edges of one body replica (Σ input counts).
    edges: f64,
}

/// One body node: its cost-model resolution and intra-body wiring.
#[derive(Debug)]
struct BodyPlan {
    cost: BodyCost,
    /// The node's own element type (delay bit-widths, access lanes).
    ty: DType,
    /// Its range `from..to` of [`PipePlan::inputs`].
    inputs: (u32, u32),
}

impl PipePlan {
    fn inputs(&self, b: &BodyPlan) -> &[u32] {
        &self.inputs[b.inputs.0 as usize..b.inputs.1 as usize]
    }
}

#[derive(Debug)]
enum BodyCost {
    /// Cost fully determined by structure (Prim at its cost type, Mux).
    Fixed(OpCost),
    /// Memory access: banking is a DSE parameter, so the cost-model
    /// lookup happens at re-cost time against the concrete `BramSpec`.
    Access { mem: NodeId },
    /// Constants and other cost-free body nodes.
    Free,
}

/// The shape-only half of the latency recurrence, walked per design
/// point by `dhdl_estimate::estimate_cycles_net`: which controllers there
/// are and which off-chip transfers contend for the DRAM channel, so that
/// the per-point walk derives neither.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyPlan {
    /// Every controller, in pre-order from the top.
    pub ctrls: Vec<PlanCtrl>,
    /// Number of `TileLd`/`TileSt` controllers (the range of
    /// [`PlanCtrl::slot`] over transfers).
    pub transfers: usize,
    /// The concatenated competitor lists [`PlanCtrl::competitors`]
    /// indexes: transfer slots.
    pub competitors: Vec<u32>,
}

/// One controller of a [`LatencyPlan`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanCtrl {
    /// The controller node.
    pub id: NodeId,
    /// Controllers in this subtree, itself included: the first child is
    /// the next entry and the next sibling lies `span` entries on.
    pub span: u32,
    /// `Pipe`: the position of its depth in [`Netlist::pipe_depths`].
    /// `TileLd`/`TileSt`: its number among the transfers, in pre-order.
    pub slot: u32,
    /// `TileLd`/`TileSt`: the range of [`LatencyPlan::competitors`]
    /// holding every *other* transfer that can be active at the same
    /// time — their least common ancestor is a `MetaPipe` (stages
    /// overlap) or a `Parallel` container — in pre-order.
    pub competitors: (u32, u32),
}

impl LatencyPlan {
    fn of(design: &Design) -> LatencyPlan {
        fn flatten(
            design: &Design,
            id: NodeId,
            parent: u32,
            plan: &mut LatencyPlan,
            parents: &mut Vec<u32>,
            pipes: &mut u32,
        ) {
            let at = plan.ctrls.len();
            let slot = match design.kind(id) {
                NodeKind::Pipe(_) => std::mem::replace(pipes, *pipes + 1),
                NodeKind::TileLoad(_) | NodeKind::TileStore(_) => {
                    plan.transfers += 1;
                    plan.transfers as u32 - 1
                }
                _ => 0,
            };
            plan.ctrls.push(PlanCtrl {
                id,
                span: 0,
                slot,
                competitors: (0, 0),
            });
            parents.push(parent);
            for &stage in design.stages(id) {
                flatten(design, stage, at as u32, plan, parents, pipes);
            }
            plan.ctrls[at].span = (plan.ctrls.len() - at) as u32;
        }
        let mut plan = LatencyPlan::default();
        let mut parents = Vec::new();
        flatten(design, design.top(), 0, &mut plan, &mut parents, &mut 0);
        let transfers: Vec<usize> = (0..plan.ctrls.len())
            .filter(|&i| {
                let kind = design.kind(plan.ctrls[i].id);
                matches!(kind, NodeKind::TileLoad(_) | NodeKind::TileStore(_))
            })
            .collect();
        for &x in &transfers {
            let from = plan.competitors.len() as u32;
            for &y in transfers.iter().filter(|&&y| y != x) {
                // The least common ancestor: the nearest ancestor of `x`
                // whose subtree holds `y`.
                let mut lca = parents[x] as usize;
                while !(lca..lca + plan.ctrls[lca].span as usize).contains(&y) {
                    lca = parents[lca] as usize;
                }
                if matches!(
                    design.kind(plan.ctrls[lca].id),
                    NodeKind::MetaPipe(_) | NodeKind::ParallelCtrl { .. }
                ) {
                    plan.competitors.push(plan.ctrls[y].slot);
                }
            }
            plan.ctrls[x].competitors = (from, plan.competitors.len() as u32);
        }
        plan
    }

    /// Indices (into [`LatencyPlan::ctrls`]) of the child stages of the
    /// controller at index `i`, in program order.
    pub fn children(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        let end = i + self.ctrls[i].span as usize;
        let mut next = i + 1;
        std::iter::from_fn(move || {
            (next < end).then(|| {
                let child = next;
                next += self.ctrls[child].span as usize;
                child
            })
        })
    }
}

/// Plan one pipe body. `position` reads `OUTSIDE` for every node on
/// entry and on return.
fn pipe_plan(design: &Design, p: &PipeSpec, position: &mut [u32]) -> PipePlan {
    for (k, &n) in p.body.iter().enumerate() {
        position[n.index()] = k as u32;
    }
    let mut inputs = Vec::with_capacity(2 * p.body.len());
    let mut edges = 0.0;
    let body = p
        .body
        .iter()
        .map(|&n| {
            let node = design.node(n);
            let cost = match &node.kind {
                NodeKind::Prim { op, .. } => BodyCost::Fixed(prim_cost(*op, cost_ty(design, n))),
                NodeKind::Mux { .. } => BodyCost::Fixed(mux_cost(node.ty)),
                NodeKind::Load { mem, .. } | NodeKind::Store { mem, .. } => {
                    BodyCost::Access { mem: *mem }
                }
                _ => BodyCost::Free,
            };
            edges += design.prim_inputs(n).count() as f64;
            let from = inputs.len() as u32;
            inputs.extend(
                design
                    .prim_inputs(n)
                    .map(|i| position[i.index()])
                    .filter(|&k| k != OUTSIDE),
            );
            BodyPlan {
                cost,
                ty: node.ty,
                inputs: (from, inputs.len() as u32),
            }
        })
        .collect();
    for &n in &p.body {
        position[n.index()] = OUTSIDE;
    }
    PipePlan {
        body,
        inputs,
        edges,
    }
}

#[derive(Debug, Default)]
struct Acc {
    breakdown: AreaBreakdown,
    edges: f64,
    phys_prims: f64,
    pipe_depths: Vec<(NodeId, u64)>,
    /// Scratch of [`pipe_cost`], reused from pipe to pipe: the ASAP
    /// schedule of the body being costed, `(start, latency)` per node.
    sched: Vec<(u64, u64)>,
}

/// The param-dependent re-costing pass. Mirrors a direct recursive walk
/// of the design *exactly* — same cost lookups, same floating-point
/// accumulation order — so netlists are bit-identical to pre-skeleton
/// elaboration (asserted by tests).
fn visit_plan(
    design: &Design,
    target: &FpgaTarget,
    skel: &Skeleton,
    at: usize,
    rep: f64,
    acc: &mut Acc,
) {
    let PlanCtrl { id: ctrl, slot, .. } = skel.latency.ctrls[at];
    match design.kind(ctrl) {
        NodeKind::Pipe(p) => {
            acc.breakdown.control += counter_cost().times(p.ctr.dims.len() as f64 * rep);
            acc.breakdown.control += controller_cost(ControllerKind::Pipe, 0).times(rep);
            let pipe = &skel.pipes[slot as usize];
            let (datapath, delays, depth) = pipe_cost(design, target, p, pipe, &mut acc.sched);
            acc.breakdown.primitives += datapath.times(rep);
            acc.breakdown.delays += delays.times(rep);
            acc.edges += pipe.edges * rep * f64::from(p.par);
            acc.phys_prims += p.body.len() as f64 * rep * f64::from(p.par);
            acc.pipe_depths.push((ctrl, depth));
        }
        NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
            let is_meta = matches!(design.kind(ctrl), NodeKind::MetaPipe(_));
            let kind = if is_meta {
                ControllerKind::MetaPipe
            } else {
                ControllerKind::Sequential
            };
            acc.breakdown.control += counter_cost().times(s.ctr.dims.len() as f64 * rep);
            acc.breakdown.control += controller_cost(kind, s.stages.len()).times(rep);
            let child_rep = rep * f64::from(s.par);
            for &m in &s.locals {
                acc.breakdown.memories += memory_resources(design, target, m).times(child_rep);
            }
            for child in skel.latency.children(at) {
                visit_plan(design, target, skel, child, child_rep, acc);
            }
            if let Some(f) = &s.fold {
                // The implicit fold stage: one combiner lane per port lane,
                // plus read/modify/write ports on the accumulator.
                let ty = design.ty(f.accum);
                let op = f.op.prim();
                acc.breakdown.primitives += prim_cost(op, ty).res.times(child_rep);
                acc.breakdown.primitives += access_cost(ty, 1).res.times(2.0 * child_rep);
            }
        }
        NodeKind::ParallelCtrl { stages, locals } => {
            acc.breakdown.control +=
                controller_cost(ControllerKind::Parallel, stages.len()).times(rep);
            for &m in locals {
                acc.breakdown.memories += memory_resources(design, target, m).times(rep);
            }
            for child in skel.latency.children(at) {
                visit_plan(design, target, skel, child, rep, acc);
            }
        }
        NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
            let ty = design.ty(t.offchip);
            acc.breakdown.transfers +=
                tile_unit_cost(target, ty.bits(), t.tile.len(), t.par).times(rep);
        }
        _ => {}
    }
}

/// Datapath resources, delay-balancing resources and critical-path depth
/// of one pipe body (per replica), computed from the skeleton plan and
/// the concrete parameters. One array-based ASAP schedule serves both
/// delay balancing and the recorded depth (a direct walk schedules the
/// same body twice, once more via [`pipe_depth`]).
fn pipe_cost(
    design: &Design,
    target: &FpgaTarget,
    p: &PipeSpec,
    plan: &PipePlan,
    sched: &mut Vec<(u64, u64)>,
) -> (Resources, Resources, u64) {
    let par = f64::from(p.par);
    let mut res = Resources::zero();
    sched.clear();
    // Datapath nodes, replicated by the vector width. Resolve the
    // param-dependent access costs once, capturing latencies for the
    // schedule below.
    for b in &plan.body {
        let cost = match &b.cost {
            BodyCost::Fixed(c) => *c,
            BodyCost::Access { mem } => access_cost(b.ty, bank_count(design, *mem)),
            BodyCost::Free => OpCost::default(),
        };
        res += cost.res.times(par);
        sched.push((0, cost.latency));
    }
    // Reduction tree and accumulator for reduce-patterned pipes.
    if let Some(r) = &p.reduce {
        if let Pattern::Reduce(op) = p.pattern {
            let ty = design.ty(r.reg);
            res += reduce_tree_cost(op.prim(), ty, p.par);
            // Final accumulator combiner.
            res += prim_cost(op.prim(), ty).res;
        }
    }
    // ASAP schedule: start[k] = max over already-scheduled body inputs of
    // their ready time (body order is topological; a forward reference
    // would be timing-free here, matching the direct walk).
    for (k, b) in plan.body.iter().enumerate() {
        sched[k].0 = plan
            .inputs(b)
            .iter()
            .map(|&j| j as usize)
            .filter(|&j| j < k)
            .map(|j| sched[j].0 + sched[j].1)
            .max()
            .unwrap_or(0);
    }
    // Delay-balancing resources (§IV-B2): every input edge with slack
    // relative to the consumer's start time delays its full bit width for
    // the slack cycles.
    let mut delays = Resources::zero();
    for (k, b) in plan.body.iter().enumerate() {
        for &j in plan.inputs(b) {
            let (start, lat) = sched[j as usize];
            let slack = sched[k].0.saturating_sub(start + lat);
            if slack > 0 {
                let bits = plan.body[j as usize].ty.bits() * p.par;
                delays += delay_cost(target, slack, bits);
            }
        }
    }
    let depth = sched
        .iter()
        .map(|(start, lat)| start + lat)
        .max()
        .unwrap_or(0);
    (res, delays, depth)
}

fn memory_resources(design: &Design, target: &FpgaTarget, mem: NodeId) -> Resources {
    let node = design.node(mem);
    match &node.kind {
        NodeKind::Bram(b) => bram_cost(target, b.elements(), b.word_width, b.banks, b.double_buf),
        NodeKind::Reg(r) => reg_cost(node.ty, r.double_buf),
        NodeKind::PriorityQueue(q) => pqueue_cost(target, node.ty, q.depth, q.double_buf),
        _ => Resources::zero(),
    }
}

/// The type at which a primitive's cost is characterized: predicates are
/// costed at their (widest) input type, since a 32-bit comparison produces
/// a 1-bit result but consumes 32-bit datapaths.
fn cost_ty(design: &Design, n: NodeId) -> DType {
    match design.kind(n) {
        NodeKind::Prim { op, inputs } if op.is_predicate() => inputs
            .iter()
            .map(|&i| design.ty(i))
            .max_by_key(|t| (t.is_float(), t.bits()))
            .unwrap_or(design.ty(n)),
        _ => design.ty(n),
    }
}

/// Per-node latency within a pipe body, used for ASAP delay balancing.
pub(crate) fn body_node_latency(design: &Design, n: NodeId) -> u64 {
    match design.kind(n) {
        NodeKind::Prim { op, .. } => prim_cost(*op, cost_ty(design, n)).latency,
        NodeKind::Mux { .. } => mux_cost(design.ty(n)).latency,
        NodeKind::Load { mem, .. } | NodeKind::Store { mem, .. } => {
            let banks = bank_count(design, *mem);
            access_cost(design.ty(n), banks).latency
        }
        _ => 0,
    }
}

fn bank_count(design: &Design, mem: NodeId) -> u32 {
    match design.kind(mem) {
        NodeKind::Bram(b) => b.banks,
        _ => 1,
    }
}

/// ASAP schedule of a pipe body: start time of each node.
pub(crate) fn asap_schedule(design: &Design, p: &PipeSpec) -> BTreeMap<NodeId, u64> {
    let mut start: BTreeMap<NodeId, u64> = BTreeMap::new();
    for &n in &p.body {
        let t = design
            .prim_inputs(n)
            .filter_map(|i| start.get(&i).map(|&s| s + body_node_latency(design, i)))
            .max()
            .unwrap_or(0);
        start.insert(n, t);
    }
    start
}

/// Critical-path depth (latency of one iteration) of a pipe body.
///
/// Stand-alone recomputation; an elaborated [`Netlist`] already carries
/// these depths (see [`Netlist::pipe_depths`]).
pub fn pipe_depth(design: &Design, p: &PipeSpec) -> u64 {
    let sched = asap_schedule(design, p);
    p.body
        .iter()
        .map(|&n| sched[&n] + body_node_latency(design, n))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DesignBuilder, ReduceOp};
    use dhdl_target::FpgaTarget;

    /// The pre-skeleton direct elaboration walk, kept verbatim as the
    /// bit-exactness oracle for the skeleton/re-cost split.
    fn elaborate_direct(design: &Design, target: &FpgaTarget) -> Netlist {
        #[derive(Default)]
        struct DirectAcc {
            breakdown: AreaBreakdown,
            edges: f64,
            phys_prims: f64,
        }

        fn body_edges(design: &Design, p: &PipeSpec) -> f64 {
            p.body
                .iter()
                .map(|&n| design.prim_inputs(n).count() as f64)
                .sum()
        }

        fn pipe_body_resources(
            design: &Design,
            target: &FpgaTarget,
            p: &PipeSpec,
        ) -> (Resources, Resources) {
            let par = f64::from(p.par);
            let mut res = Resources::zero();
            for &n in &p.body {
                let node = design.node(n);
                let lane = match &node.kind {
                    NodeKind::Prim { op, .. } => prim_cost(*op, cost_ty(design, n)).res,
                    NodeKind::Mux { .. } => mux_cost(node.ty).res,
                    NodeKind::Load { mem, .. } | NodeKind::Store { mem, .. } => {
                        access_cost(node.ty, bank_count(design, *mem)).res
                    }
                    _ => Resources::zero(),
                };
                res += lane.times(par);
            }
            if let Some(r) = &p.reduce {
                if let Pattern::Reduce(op) = p.pattern {
                    let ty = design.ty(r.reg);
                    res += reduce_tree_cost(op.prim(), ty, p.par);
                    res += prim_cost(op.prim(), ty).res;
                }
            }
            let mut delays = Resources::zero();
            let sched = asap_schedule(design, p);
            for &n in &p.body {
                let n_start = sched[&n];
                for i in design.prim_inputs(n) {
                    let Some(&i_start) = sched.get(&i) else {
                        continue;
                    };
                    let ready = i_start + body_node_latency(design, i);
                    let slack = n_start.saturating_sub(ready);
                    if slack > 0 {
                        let bits = design.ty(i).bits() * p.par;
                        delays += delay_cost(target, slack, bits);
                    }
                }
            }
            (res, delays)
        }

        fn visit(
            design: &Design,
            target: &FpgaTarget,
            ctrl: NodeId,
            rep: f64,
            acc: &mut DirectAcc,
        ) {
            match design.kind(ctrl) {
                NodeKind::Pipe(p) => {
                    acc.breakdown.control += counter_cost().times(p.ctr.dims.len() as f64 * rep);
                    acc.breakdown.control += controller_cost(ControllerKind::Pipe, 0).times(rep);
                    let (datapath, delays) = pipe_body_resources(design, target, p);
                    acc.breakdown.primitives += datapath.times(rep);
                    acc.breakdown.delays += delays.times(rep);
                    acc.edges += body_edges(design, p) * rep * f64::from(p.par);
                    acc.phys_prims += p.body.len() as f64 * rep * f64::from(p.par);
                }
                NodeKind::MetaPipe(s) | NodeKind::Sequential(s) => {
                    let is_meta = matches!(design.kind(ctrl), NodeKind::MetaPipe(_));
                    let kind = if is_meta {
                        ControllerKind::MetaPipe
                    } else {
                        ControllerKind::Sequential
                    };
                    acc.breakdown.control += counter_cost().times(s.ctr.dims.len() as f64 * rep);
                    acc.breakdown.control += controller_cost(kind, s.stages.len()).times(rep);
                    let child_rep = rep * f64::from(s.par);
                    for &m in &s.locals {
                        acc.breakdown.memories +=
                            memory_resources(design, target, m).times(child_rep);
                    }
                    for &st in &s.stages {
                        visit(design, target, st, child_rep, acc);
                    }
                    if let Some(f) = &s.fold {
                        let ty = design.ty(f.accum);
                        let op = f.op.prim();
                        acc.breakdown.primitives += prim_cost(op, ty).res.times(child_rep);
                        acc.breakdown.primitives += access_cost(ty, 1).res.times(2.0 * child_rep);
                    }
                }
                NodeKind::ParallelCtrl { stages, locals } => {
                    acc.breakdown.control +=
                        controller_cost(ControllerKind::Parallel, stages.len()).times(rep);
                    for &m in locals {
                        acc.breakdown.memories += memory_resources(design, target, m).times(rep);
                    }
                    for &st in stages {
                        visit(design, target, st, rep, acc);
                    }
                }
                NodeKind::TileLoad(t) | NodeKind::TileStore(t) => {
                    let ty = design.ty(t.offchip);
                    acc.breakdown.transfers +=
                        tile_unit_cost(target, ty.bits(), t.tile.len(), t.par).times(rep);
                }
                _ => {}
            }
        }

        let mut acc = DirectAcc::default();
        visit(design, target, design.top(), 1.0, &mut acc);
        let stats = DesignStats::of(design);
        let mut depths = Vec::new();
        for id in design.find_all(|n| matches!(n.kind, NodeKind::Pipe(_))) {
            if let NodeKind::Pipe(p) = design.kind(id) {
                depths.push((id, pipe_depth(design, p)));
            }
        }
        Netlist {
            raw: acc.breakdown.total(),
            breakdown: acc.breakdown,
            features: NetFeatures {
                prims: acc.phys_prims.max(1.0),
                mems: stats.memories as f64,
                ctrls: stats.controllers as f64,
                depth: stats.depth as f64,
                edges: acc.edges,
                avg_width: stats.avg_width(),
            },
            pipe_depths: depths,
            latency: Arc::default(),
        }
    }

    fn dot_design(par: u32, tile: u64) -> Design {
        let mut b = DesignBuilder::new("dot");
        let x = b.off_chip("x", DType::F32, &[1024]);
        let y = b.off_chip("y", DType::F32, &[1024]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.meta_pipe(&[by(1024, tile)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                b.parallel(|b| {
                    b.tile_load(x, xt, &[i], &[tile], par);
                    b.tile_load(y, yt, &[i], &[tile], par);
                });
                b.pipe_reduce(&[by(tile, 1)], par, acc, ReduceOp::Add, |b, it| {
                    let a = b.load(xt, &[it[0]]);
                    let c = b.load(yt, &[it[0]]);
                    b.mul(a, c)
                });
            });
        });
        b.finish().unwrap()
    }

    /// Netlists made comparable: direct-walk depths come out in
    /// `find_all` (arena) order, skeleton depths in visit order, and only
    /// the skeleton path carries a latency plan.
    fn normalized(mut n: Netlist) -> Netlist {
        n.pipe_depths.sort_unstable();
        n.latency = Arc::default();
        n
    }

    #[test]
    fn skeleton_recost_is_bit_identical_to_direct_walk() {
        let t = FpgaTarget::stratix_v();
        for (par, tile) in [(1, 64), (2, 64), (4, 128), (8, 512), (16, 32)] {
            let d = dot_design(par, tile);
            let direct = normalized(elaborate_direct(&d, &t));
            let skel = normalized(elaborate(&d, &t));
            assert_eq!(direct, skel, "par={par} tile={tile}");
        }
    }

    #[test]
    fn skeleton_is_shared_across_params() {
        let a = dot_design(1, 64);
        let b = dot_design(8, 512);
        assert_eq!(shape_hash(&a), shape_hash(&b));
        let skel = Skeleton::of(&a);
        let t = FpgaTarget::stratix_v();
        // A skeleton built from one parameterization re-costs another.
        assert_eq!(
            normalized(elaborate_with(&b, &t, &skel)),
            normalized(elaborate_direct(&b, &t))
        );
    }

    #[test]
    fn shape_hash_separates_structures() {
        let dot = dot_design(1, 64);
        let mut b = DesignBuilder::new("dot");
        let x = b.off_chip("x", DType::F32, &[1024]);
        b.sequential(|b| {
            b.meta_pipe(&[by(1024, 64)], 1, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[64]);
                b.tile_load(x, xt, &[i], &[64], 1);
                b.pipe(&[by(64, 1)], 1, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let w = b.mul(v, v);
                    b.store(xt, &[it[0]], w);
                });
            });
        });
        let other = b.finish().unwrap();
        assert_ne!(shape_hash(&dot), shape_hash(&other));
    }

    #[test]
    fn netlist_records_pipe_depths() {
        let t = FpgaTarget::stratix_v();
        let d = dot_design(1, 64);
        let net = elaborate(&d, &t);
        let pipes = d.find_all(|n| matches!(n.kind, NodeKind::Pipe(_)));
        assert!(!pipes.is_empty());
        assert_eq!(net.pipe_depths.len(), pipes.len());
        for &(id, depth) in &net.pipe_depths {
            let NodeKind::Pipe(p) = d.kind(id) else {
                panic!("{id} is no Pipe")
            };
            assert_eq!(depth, pipe_depth(&d, p));
        }
    }

    #[test]
    fn elaboration_scales_with_parallelism() {
        let t = FpgaTarget::stratix_v();
        let n1 = elaborate(&dot_design(1, 64), &t);
        let n8 = elaborate(&dot_design(8, 64), &t);
        assert!(n8.raw.luts() > n1.raw.luts());
        assert!(n8.raw.dsps > n1.raw.dsps); // replicated float multipliers
        assert!(n8.raw.brams >= n1.raw.brams); // banking splits BRAMs
    }

    #[test]
    fn elaboration_scales_with_tile_size() {
        let t = FpgaTarget::stratix_v();
        let small = elaborate(&dot_design(1, 64), &t);
        let big = elaborate(&dot_design(1, 512), &t);
        assert!(big.raw.brams >= small.raw.brams);
    }

    #[test]
    fn pipe_depth_counts_critical_path() {
        let d = dot_design(1, 64);
        let pipes = d.find_all(|n| matches!(n.kind, NodeKind::Pipe(_)));
        let NodeKind::Pipe(p) = d.kind(pipes[0]) else {
            unreachable!()
        };
        // load (1) -> mul (4) at minimum.
        assert!(pipe_depth(&d, p) >= 5);
    }

    #[test]
    fn breakdown_sums_to_raw() {
        let t = FpgaTarget::stratix_v();
        let n = elaborate(&dot_design(4, 128), &t);
        let total = n.breakdown.total();
        assert!((total.luts() - n.raw.luts()).abs() < 1e-6);
        assert!((total.regs - n.raw.regs).abs() < 1e-6);
        assert!((total.brams - n.raw.brams).abs() < 1e-6);
        // All major classes are populated for a tiled reduce design.
        assert!(n.breakdown.primitives.luts() > 0.0);
        assert!(n.breakdown.memories.brams > 0.0);
        assert!(n.breakdown.control.luts() > 0.0);
        assert!(n.breakdown.transfers.luts() > 0.0);
    }

    #[test]
    fn features_are_populated() {
        let t = FpgaTarget::stratix_v();
        let n = elaborate(&dot_design(2, 64), &t);
        assert!(n.features.prims > 0.0);
        assert!(n.features.mems >= 3.0);
        assert!(n.features.ctrls >= 4.0);
        assert!(n.features.edges > 0.0);
        assert!(n.features.depth >= 3.0);
    }

    #[test]
    fn replication_by_outer_par() {
        let t = FpgaTarget::stratix_v();
        let build = |mp_par: u32| {
            let mut b = DesignBuilder::new("rep");
            let x = b.off_chip("x", DType::F32, &[256]);
            b.sequential(|b| {
                b.meta_pipe(&[by(256, 32)], mp_par, |b, iters| {
                    let i = iters[0];
                    let t0 = b.bram("t", DType::F32, &[32]);
                    b.tile_load(x, t0, &[i], &[32], 1);
                    b.pipe(&[by(32, 1)], 1, |b, it| {
                        let v = b.load(t0, &[it[0]]);
                        let w = b.mul(v, v);
                        b.store(t0, &[it[0]], w);
                    });
                });
            });
            b.finish().unwrap()
        };
        let r1 = elaborate(&build(1), &t);
        let r4 = elaborate(&build(4), &t);
        // Outer parallelization replicates the whole body including BRAMs.
        assert!(r4.raw.brams >= r1.raw.brams * 3.0);
        assert!(r4.raw.dsps >= r1.raw.dsps * 3.0);
    }
}
