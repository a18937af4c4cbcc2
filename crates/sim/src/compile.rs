//! One-time lowering of an elaborated design to a straight-line tape.
//!
//! [`compile`] runs two passes over the controller hierarchy:
//!
//! 1. **Emission** flattens the hierarchy into a [`crate::tape::Tape`] in
//!    the interpreter's exact execution order: outer controllers become a
//!    single linearized loop (members execute sequentially in linear
//!    order, as the interpreter runs them) with iterator-decode
//!    instructions, and a pipe becomes counted loops over its enclosing
//!    dimensions around one `Kernel`: its innermost dimension and whole
//!    body, every body node lowered straight to one micro-op over arena
//!    slots. That is the only encoding of a body; what the hazard
//!    analysis ([`lane_major_unobservable`]) decides is the kernel's
//!    *block width* — 32 iterations evaluated op-by-op when that order
//!    is provably unobservable, one iteration at a time otherwise.
//!    Structural errors the interpreter would raise mid-run
//!    (`ZeroTripLoop`, `Malformed`, `Unevaluated`) compile to an `Abort`
//!    at the exact position the interpreter would first discover them
//!    (inside a body: after a single-trip kernel of the ops that precede
//!    it); data-dependent errors (out-of-bounds addresses) stay runtime
//!    checks inside the micro-ops.
//! 2. **Timing** exploits the fact that for any design the emitter
//!    accepts, the interpreter's timing model is *data-independent*:
//!    pipe and fold durations are closed-form in static shapes, tile
//!    transfers occupy the DRAM channel for shape-derived times, and the
//!    MetaPipe recurrence composes those. The walk replays the
//!    interpreter's timed schedule (same f64 operation order, same
//!    [`DramTimeline`] request order) once at compile time, capturing
//!    cycles, transfer counts, the profile and the trace. A run of the
//!    compiled design then only executes the functional tape and stamps
//!    the precomputed timing onto the result.
//!
//! Constructs whose interpretation is dynamically sized (priority queues
//! as fold/reduce/tile endpoints, more iterators than counter
//! dimensions) are rejected with [`CompileError::Unsupported`];
//! [`simulate_compiled`] falls back to the interpreter for those.
//!
//! The contract — enforced by the differential test suites and the
//! conformance oracle — is that [`Compiled::run`] is *bit-identical* to
//! [`simulate`]: same outputs, same cycles, same profile and trace, same
//! errors.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use dhdl_core::{
    DType, Design, MemFold, NodeId, NodeKind, OuterSpec, Pattern, PipeSpec, PrimOp, TileSpec,
};
use dhdl_synth::chardata::{prim_cost, reduce_tree_latency};
use dhdl_synth::pipe_depth;
use dhdl_target::Platform;

use crate::arena::Layout;
use crate::error::{Result, SimError};
use crate::interp::STAGE_OVERHEAD;
use crate::interp::{build_profile, error_counter, simulate, Bindings, ProfileEntry, SimResult};
use crate::memory::DramTimeline;
use crate::tape::{Access, Instr, KKind, KOp, KSrc, Kernel, Tape, TileDesc};
use crate::trace::{Trace, TraceEvent};

/// Why a design could not be compiled to a tape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The design uses a construct whose size or timing is only known
    /// dynamically (e.g. a priority queue as a fold endpoint). The
    /// interpreter remains the reference for these.
    Unsupported(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Unsupported(what) => {
                write!(f, "design not compilable to a tape: {what}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Precomputed timing of one full design execution (valid because timing
/// is data-independent for every compilable design).
#[derive(Debug, Clone, Default)]
struct Timing {
    cycles: f64,
    transfers: usize,
    profile: Vec<ProfileEntry>,
    trace: Trace,
}

/// A design lowered to an instruction tape, ready to run many times.
///
/// Compile once, run per input set. Per compile: the arena layout, the
/// control tape, every kernel's ops with their block width, strides and
/// `quant`/`uniform` flags, and the timing. Per run: one clone of the
/// arena template with the bound inputs laid over it, the lane vectors
/// of the widest blocked kernel, straight-line tape execution, and a
/// copy of each off-chip array out of the arena. No map lookup, graph
/// walk or allocation happens per block.
#[derive(Debug, Clone)]
pub struct Compiled {
    layout: Layout,
    tape: Tape,
    timing: Timing,
}

/// Lower `design` into a [`Compiled`] tape for `platform`.
///
/// # Errors
///
/// Returns [`CompileError::Unsupported`] when the design uses a
/// dynamically-sized construct the tape cannot express; callers should
/// fall back to [`simulate`] (as [`simulate_compiled`] does).
pub fn compile(
    design: &Design,
    platform: &Platform,
) -> std::result::Result<Compiled, CompileError> {
    let _span = dhdl_obs::span!("sim.compile");
    let layout = Layout::new(design);
    let iters = iter_index(design);
    let mut em = Emitter {
        design,
        layout: &layout,
        iters: &iters,
        tape: Tape::default(),
        depth: 0,
        aborted: false,
    };
    em.emit_ctrl(design.top())?;
    let aborted = em.aborted;
    let tape = em.tape;
    // A tape that starts with (or reaches) an Abort never reports
    // timing, exactly as an interpreter run that errors; skip the walk.
    let timing = if aborted {
        Timing::default()
    } else {
        TimingWalk::run(design, platform)
    };
    let compiled = Compiled {
        layout,
        tape,
        timing,
    };
    compiled.publish_census();
    Ok(compiled)
}

impl Compiled {
    /// Execute the tape against `bindings`.
    ///
    /// # Errors
    ///
    /// Returns the same [`SimError`]s the interpreter would for the same
    /// design and inputs.
    pub fn run(&self, bindings: &Bindings) -> Result<SimResult> {
        let _span = dhdl_obs::span!("sim.tape");
        let result = self.run_inner(bindings, false);
        match &result {
            Ok(r) => {
                dhdl_obs::counter!("sim.tape.runs").incr();
                dhdl_obs::counter!("sim.tape.cycles").add(r.cycles as u64);
            }
            Err(e) => {
                dhdl_obs::counter!("sim.errors").incr();
                dhdl_obs::counter(error_counter(e)).incr();
            }
        }
        result
    }

    /// Number of tape instructions (diagnostic).
    pub fn instruction_count(&self) -> usize {
        self.tape.instrs.len()
    }

    /// `(blocked, serial)`: pipe kernels the hazard analysis let run in
    /// lane-major blocks, and kernels held at width 1 (diagnostic).
    pub fn kernels(&self) -> (usize, usize) {
        let blocked = self.tape.kernels.iter().filter(|k| k.blocked).count();
        (blocked, self.tape.kernels.len() - blocked)
    }

    /// [`Compiled::run`] with every kernel held at width 1, the order
    /// that needs no proof: what the `width-differential` tests compare
    /// the block path against. A test entry point, not a schedule.
    #[doc(hidden)]
    pub fn run_serial(&self, bindings: &Bindings) -> Result<SimResult> {
        self.run_inner(bindings, true)
    }

    /// What the compiler decided, as counters: kernels by block width,
    /// ops by the two per-op claims, and body accesses by how a block
    /// performs them (every access of a serial kernel is per-lane; a
    /// uniform load is one read, splatted).
    fn publish_census(&self) {
        let (blocked, serial) = self.kernels();
        dhdl_obs::counter!("sim.compile.count").incr();
        dhdl_obs::counter!("sim.compile.kernels.blocked").add(blocked as u64);
        dhdl_obs::counter!("sim.compile.kernels.serial").add(serial as u64);
        let (mut ops, mut uniform, mut quant_elided) = (0u64, 0u64, 0u64);
        let mut accesses = [0u64; 4]; // unit, splat, strided, per-lane
        for (k, op) in (self.tape.kernels.iter()).flat_map(|k| k.ops.iter().map(move |op| (k, op)))
        {
            ops += 1;
            uniform += u64::from(k.blocked && op.uniform);
            quant_elided += u64::from(!op.quant);
            if let KKind::Load { at } | KKind::Store { at, .. } = &op.kind {
                accesses[match at.stride {
                    _ if !k.blocked => 3,
                    _ if op.uniform => 1,
                    Some(1) => 0,
                    Some(0) => 1,
                    Some(_) => 2,
                    None => 3,
                }] += 1;
            }
        }
        dhdl_obs::counter!("sim.compile.ops").add(ops);
        dhdl_obs::counter!("sim.compile.ops.uniform").add(uniform);
        dhdl_obs::counter!("sim.compile.ops.quant_elided").add(quant_elided);
        dhdl_obs::counter!("sim.compile.accesses.unit").add(accesses[0]);
        dhdl_obs::counter!("sim.compile.accesses.splat").add(accesses[1]);
        dhdl_obs::counter!("sim.compile.accesses.strided").add(accesses[2]);
        dhdl_obs::counter!("sim.compile.accesses.per_lane").add(accesses[3]);
    }

    fn run_inner(&self, bindings: &Bindings, serial: bool) -> Result<SimResult> {
        // Binding validation mirrors the interpreter's `Sim::new` exactly:
        // shape checks in off-chip declaration order first, then the
        // unknown-binding sweep in sorted binding order.
        for r in &self.layout.offchips {
            if !r.real {
                continue;
            }
            if let Some(d) = bindings.get(&r.lookup_name) {
                if d.len() != r.len {
                    return Err(SimError::ShapeMismatch {
                        name: r.lookup_name.clone(),
                        expected: r.len as u64,
                        actual: d.len(),
                    });
                }
            }
        }
        for name in bindings.names() {
            let known = self
                .layout
                .offchips
                .iter()
                .any(|r| r.named && r.lookup_name == name);
            if !known {
                return Err(SimError::UnknownBinding(name.to_string()));
            }
        }
        let mut arena = self.layout.template.clone();
        for r in &self.layout.offchips {
            if r.real {
                if let Some(d) = bindings.get(&r.lookup_name) {
                    arena[r.base..r.base + r.len].copy_from_slice(d);
                }
            }
        }
        let mut queues = vec![Vec::new(); self.layout.n_queues];
        self.tape.execute(&mut arena, &mut queues, serial)?;
        let mut offchip = BTreeMap::new();
        for r in &self.layout.offchips {
            offchip.insert(
                r.output_name.clone(),
                arena[r.base..r.base + r.len].to_vec(),
            );
        }
        Ok(SimResult {
            cycles: self.timing.cycles,
            transfers: self.timing.transfers,
            offchip,
            profile: self.timing.profile.clone(),
            trace: self.timing.trace.clone(),
        })
    }
}

/// The iterator nodes of every controller that owns any, ordered by
/// dimension (then id): one walk of the design per [`compile`], however
/// many controllers it has.
fn iter_index(design: &Design) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut all: Vec<(NodeId, usize, NodeId)> = design
        .iter()
        .filter_map(|(id, n)| match n.kind {
            NodeKind::Iter { ctrl, dim } => Some((ctrl, dim, id)),
            _ => None,
        })
        .collect();
    all.sort_unstable();
    let mut index: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for (ctrl, _, id) in all {
        index.entry(ctrl).or_default().push(id);
    }
    index
}

type EmitResult = std::result::Result<(), CompileError>;

/// Pass 1: flatten the controller hierarchy into the functional tape.
struct Emitter<'a> {
    design: &'a Design,
    layout: &'a Layout,
    /// [`iter_index`] of `design`.
    iters: &'a BTreeMap<NodeId, Vec<NodeId>>,
    tape: Tape,
    /// Static loop-nesting depth at the current emission point.
    depth: usize,
    /// Set once a structural `Abort` has been emitted; all further
    /// emission is dead code the interpreter would never reach.
    aborted: bool,
}

/// A pipe body under construction: its micro-ops, plus the dataflow
/// bookkeeping that turns an operand node into a [`KSrc`].
#[derive(Default)]
struct Body {
    /// Trip count of the kernel's loop.
    trips: u64,
    ops: Vec<KOp>,
    /// Latest micro-op writing each slot so far: readers see the most
    /// recent producer, exactly as `vals` reads do in the interpreter.
    producer: BTreeMap<usize, usize>,
}

impl Body {
    /// The operand in `slot`, as read at this point of the body.
    fn src(&self, slot: usize) -> KSrc {
        let lane = self.producer.get(&slot).copied();
        KSrc { slot, lane }
    }

    /// Append a micro-op, deriving the two claims the executor checks in
    /// debug builds. `quant` is cleared where quantizing at `ty` is
    /// provably the identity: `ty` is `F64`; a predicate (0.0 or 1.0) at
    /// `Bool`; a `Mux` whose two arms, or a `Store` whose value, body ops
    /// produced at this same `ty` (quantization is idempotent; a constant
    /// or outer operand carries its own node's type, so no claim).
    /// `uniform` is set where no operand can differ between iterations of
    /// one kernel call: an `Outer`, and a `Bin`/`Un`/`Mux`/`Load` whose
    /// every operand is a slot no earlier op wrote or another uniform op.
    /// Only a blocked kernel acts on it, where no later op writes such a
    /// slot either (forward-only dataflow) and no op stores to a memory a
    /// uniform load reads (asserted in `emit_pipe`).
    fn push(&mut self, dst: usize, ty: DType, kind: KKind) {
        let at_ty = |s: KSrc| s.lane.is_some_and(|i| self.ops[i].ty == ty);
        let predicate =
            |op: PrimOp| op.is_predicate() || matches!(op, PrimOp::And | PrimOp::Or | PrimOp::Not);
        let quant = ty != DType::F64
            && match &kind {
                KKind::Bin { op, .. } | KKind::Un { op, .. } => {
                    !(ty == DType::Bool && predicate(*op))
                }
                KKind::Mux { t, f, .. } => !(at_ty(*t) && at_ty(*f)),
                KKind::Store { val, .. } => !at_ty(*val),
                _ => true,
            };
        let varies = |s: KSrc| s.lane.is_some_and(|i| !self.ops[i].uniform);
        let uniform = match &kind {
            KKind::Outer { .. } => true,
            KKind::Bin { .. } | KKind::Un { .. } | KKind::Mux { .. } | KKind::Load { .. } => {
                !kind.any_src(varies)
            }
            _ => false,
        };
        self.producer.insert(dst, self.ops.len());
        self.ops.push(KOp {
            dst,
            ty,
            kind,
            quant,
            uniform,
        });
    }
}

/// Linear coefficient of an address in the innermost counter of a
/// `trips`-iteration kernel. `Some` only when the address is provably
/// affine (every term loop-invariant or innermost-linear) and every
/// intermediate value round-trips exactly through the per-lane path's
/// f64 representation; then a block whose two end addresses are in
/// bounds needs no per-lane checks.
fn stride_of(ops: &[KOp], trips: u64, terms: &[(KSrc, u64)]) -> Option<i64> {
    let mut stride = 0i64;
    let mut suffix = 1i64;
    for &(src, dim) in terms.iter().rev() {
        match src.lane.map(|i| &ops[i].kind) {
            None | Some(KKind::Outer { .. }) => {}
            Some(&KKind::Lin { step }) => {
                let max = (trips - 1).checked_mul(step)?;
                if max >= (1u64 << 53) {
                    return None;
                }
                stride = stride.checked_add(i64::try_from(step).ok()?.checked_mul(suffix)?)?;
            }
            Some(_) => return None,
        }
        suffix = suffix.checked_mul(i64::try_from(dim).ok()?)?;
    }
    Some(stride)
}

/// Where a body `Load`/`Store` lands.
enum Target {
    /// Priority queue, by dense index.
    Queue(usize),
    /// Arena-resident `Bram`/`Reg`.
    Mem(Access),
}

/// The block-width decision: is evaluating `ops` op-by-op over a block
/// of iterations (lane-major) instead of iteration-by-iteration
/// unobservable? Only then may the kernel run [`crate::tape::LANES`]
/// wide; otherwise it runs at width 1, which is iteration order. It is
/// unobservable when:
///
/// * the body has no queue traffic (a queue's state orders every access
///   to it);
/// * dataflow is strictly forward — no operand reads a slot that some
///   micro-op of the body writes other than through that op's lanes, so
///   no op sees a previous iteration's value (this also covers an
///   `Iter` of another controller re-quantized in place);
/// * for any memory both loaded and stored in the body, every access
///   uses the same address terms, those terms are invariant or driven
///   by the innermost iterator, and at least one term has a nonzero
///   step — the address is then strictly monotone in the iteration
///   counter, so a load can never observe (or miss) a different
///   iteration's store;
/// * a memory stored by more than one op (and never loaded) uses
///   identical address terms for all of them, keeping the per-address
///   last writer identical under the reordering;
/// * reduction accumulators are disjoint from every loaded or stored
///   memory range and from each other (the reduction itself is
///   evaluated sequentially per lane, preserving the exact chain).
fn lane_major_unobservable(ops: &[KOp]) -> bool {
    let written: BTreeSet<usize> = ops.iter().map(|op| op.dst).collect();
    let mut stores: BTreeMap<NodeId, Vec<&Access>> = BTreeMap::new();
    let mut loads: BTreeMap<NodeId, Vec<&Access>> = BTreeMap::new();
    let mut accs: Vec<usize> = Vec::new();
    let carried = |s: KSrc| s.lane.is_none() && written.contains(&s.slot);
    for op in ops {
        if op.kind.any_src(carried) {
            return false;
        }
        match &op.kind {
            KKind::Load { at, .. } => loads.entry(at.mem).or_default().push(at),
            KKind::Store { at, .. } => stores.entry(at.mem).or_default().push(at),
            KKind::Reduce { .. } => accs.push(op.dst),
            KKind::QPop { .. } | KKind::QPush { .. } => return false,
            _ => {}
        }
    }
    // Accumulators: pairwise distinct (two reductions into one slot
    // would interleave differently under lane-major order) and outside
    // every accessed memory range (a load/store hitting the live
    // accumulator would observe mid-block state).
    for (i, &a) in accs.iter().enumerate() {
        let hit = |at: &&Access| a >= at.base && ((a - at.base) as u64) < at.size;
        if accs[..i].contains(&a) || loads.values().chain(stores.values()).flatten().any(hit) {
            return false;
        }
    }
    for (mem, st) in &stores {
        // All stores to one memory must agree on the address, so the
        // per-address last writer is the textually last store op at the
        // highest lane under both orders.
        let first = &st[0].terms;
        if st[1..].iter().any(|at| at.terms != *first) {
            return false;
        }
        if let Some(ld) = loads.get(mem) {
            // A memory both loaded and stored: same address for every
            // access, and the address must be strictly monotone in the
            // innermost counter (affine with a nonzero stride: each term
            // loop-invariant or innermost-linear, see `stride_of`) so
            // lane `l` can only ever observe lane `l`'s own store.
            if ld.iter().any(|at| at.terms != *first) {
                return false;
            }
            if st[0].stride.map_or(true, |s| s == 0) {
                return false;
            }
        }
    }
    true
}

impl<'a> Emitter<'a> {
    fn unsupported(&self, what: String) -> CompileError {
        CompileError::Unsupported(what)
    }

    fn abort(&mut self, e: SimError) {
        if self.aborted {
            return;
        }
        let i = self.tape.errors.len();
        self.tape.errors.push(e);
        self.tape.instrs.push(Instr::Abort(i));
        self.aborted = true;
    }

    fn push(&mut self, i: Instr) {
        if !self.aborted {
            self.tape.instrs.push(i);
        }
    }

    fn slot(&self, id: NodeId) -> usize {
        self.layout.slot(id)
    }

    /// `ctrl`'s iterator nodes, ordered by dimension.
    fn iter_nodes(&self, ctrl: NodeId) -> &'a [NodeId] {
        self.iters.get(&ctrl).map_or(&[], Vec::as_slice)
    }

    /// `Bram`/`Reg` storage length, in elements.
    fn mem_len(&self, id: NodeId) -> usize {
        match self.design.kind(id) {
            NodeKind::Bram(b) => b.elements() as usize,
            NodeKind::Reg(_) => 1,
            _ => 0,
        }
    }

    fn emit_ctrl(&mut self, ctrl: NodeId) -> EmitResult {
        if self.aborted {
            return Ok(());
        }
        let design = self.design;
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => self.emit_pipe(ctrl, p),
            NodeKind::Sequential(s) | NodeKind::MetaPipe(s) => self.emit_outer(ctrl, s),
            NodeKind::ParallelCtrl { stages, .. } => {
                // Functionally, parallel stages execute in program order.
                for &st in stages {
                    self.emit_ctrl(st)?;
                }
                Ok(())
            }
            NodeKind::TileLoad(t) => self.emit_tile(t, true),
            NodeKind::TileStore(t) => self.emit_tile(t, false),
            other => {
                self.abort(SimError::Malformed(format!(
                    "{} is not an executable controller",
                    other.template_name()
                )));
                Ok(())
            }
        }
    }

    /// Lower an outer controller (`Sequential`/`MetaPipe`): one
    /// linearized loop over all members, since functionally the
    /// interpreter runs members sequentially in linear order (waves only
    /// shape the timing, which pass 2 handles).
    fn emit_outer(&mut self, ctrl: NodeId, s: &OuterSpec) -> EmitResult {
        let total = s.ctr.total_iters();
        if total == 0 {
            self.abort(SimError::ZeroTripLoop(ctrl));
            return Ok(());
        }
        let n_stages = s.stages.len() + usize::from(s.fold.is_some());
        if n_stages == 0 {
            self.abort(SimError::Malformed(format!(
                "outer controller {ctrl} has no stages"
            )));
            return Ok(());
        }
        if let Some(f) = s.fold {
            // The accumulator resets to the reduction identity once per
            // controller execution (silently skipped for non-memories,
            // as in the interpreter).
            match self.design.kind(f.accum) {
                NodeKind::Bram(_) | NodeKind::Reg(_) => {
                    let base = self.layout.mem_base(f.accum).expect("memory laid out");
                    let len = self.mem_len(f.accum);
                    self.push(Instr::Fill {
                        base,
                        len,
                        val: f.op.identity(),
                    });
                }
                NodeKind::PriorityQueue(_) => {
                    return Err(self
                        .unsupported(format!("fold accumulator {} is a priority queue", f.accum)))
                }
                _ => {}
            }
        }
        let iters = self.iter_nodes(ctrl);
        self.push(Instr::LoopStart { trips: total });
        let depth = self.depth;
        self.depth += 1;
        // Per-dimension trip counts with the interpreter's `.max(1)`
        // guard; iterator k decodes as `(lin / suffix_product) % trips`.
        let trips: Vec<u64> = s.ctr.dims.iter().map(|d| d.trip_count().max(1)).collect();
        for (k, &it) in iters.iter().enumerate() {
            let instr = if k < s.ctr.dims.len() {
                Instr::Iter {
                    dst: self.slot(it),
                    depth,
                    div: trips[k + 1..].iter().product(),
                    modu: trips[k],
                    step: s.ctr.dims[k].step,
                }
            } else {
                // Iterators beyond the chain's rank read as zero.
                Instr::Iter {
                    dst: self.slot(it),
                    depth,
                    div: 1,
                    modu: 1,
                    step: 0,
                }
            };
            self.push(instr);
        }
        for &stage in &s.stages {
            self.emit_ctrl(stage)?;
        }
        if let Some(f) = s.fold {
            self.emit_fold(&f)?;
        }
        self.push(Instr::LoopEnd);
        self.depth -= 1;
        Ok(())
    }

    fn emit_fold(&mut self, f: &MemFold) -> EmitResult {
        if self.aborted {
            return Ok(());
        }
        // Source first, then accumulator — the interpreter's lookup order
        // determines which `Unevaluated` error wins.
        let (src, src_len) = match self.design.kind(f.src) {
            NodeKind::Bram(_) | NodeKind::Reg(_) => (
                self.layout.mem_base(f.src).expect("laid out"),
                self.mem_len(f.src),
            ),
            NodeKind::PriorityQueue(_) => {
                return Err(self.unsupported(format!("fold source {} is a priority queue", f.src)))
            }
            _ => {
                self.abort(SimError::Unevaluated(f.src));
                return Ok(());
            }
        };
        let (acc, acc_len) = match self.design.kind(f.accum) {
            NodeKind::Bram(_) | NodeKind::Reg(_) => (
                self.layout.mem_base(f.accum).expect("laid out"),
                self.mem_len(f.accum),
            ),
            NodeKind::PriorityQueue(_) => {
                return Err(
                    self.unsupported(format!("fold accumulator {} is a priority queue", f.accum))
                )
            }
            _ => {
                self.abort(SimError::Unevaluated(f.accum));
                return Ok(());
            }
        };
        self.push(Instr::Fold {
            src,
            acc,
            len: src_len.min(acc_len),
            op: f.op,
            ty: self.design.ty(f.accum),
        });
        Ok(())
    }

    fn emit_pipe(&mut self, ctrl: NodeId, p: &PipeSpec) -> EmitResult {
        let total = p.ctr.total_iters();
        if total == 0 {
            self.abort(SimError::ZeroTripLoop(ctrl));
            return Ok(());
        }
        if let Some(r) = &p.reduce {
            // The reduce register resets element 0 to the identity once
            // per pipe execution.
            let elements = match self.design.kind(r.reg) {
                NodeKind::Reg(_) => Some(1),
                NodeKind::Bram(b) => Some(b.elements()),
                NodeKind::PriorityQueue(_) => Some(0),
                _ => None, // skipped silently; the reduce step aborts below
            };
            match elements {
                Some(0) => {
                    return Err(
                        self.unsupported(format!("reduce register {} has no element 0", r.reg))
                    )
                }
                Some(_) => self.push(Instr::Fill {
                    base: self.layout.mem_base(r.reg).expect("laid out"),
                    len: 1,
                    val: r.op.identity(),
                }),
                None => {}
            }
        }
        let iters = self.iter_nodes(ctrl);
        let dims: Vec<(u64, u64)> = p
            .ctr
            .dims
            .iter()
            .map(|d| (d.trip_count(), d.step))
            .collect();
        if iters.len() > dims.len() {
            return Err(self.unsupported(format!(
                "pipe {ctrl} has more iterators than counter dimensions"
            )));
        }
        // Enclosing pipe dimensions are counted loops on the tape; the
        // innermost one (a single trip for a unit chain) is the kernel's.
        let base_depth = self.depth;
        let (inner_trips, enclosing) = match dims.split_last() {
            Some((&(t, _), enclosing)) => (t, enclosing),
            None => (1, &dims[..]),
        };
        for &(t, _) in enclosing {
            self.push(Instr::LoopStart { trips: t });
            self.depth += 1;
        }
        let mut body = Body {
            trips: inner_trips,
            ..Body::default()
        };
        // Re-bind every iterator at the top of the body: the interpreter
        // rebinds all dimensions each iteration, which matters when an
        // `Iter` node inside the body re-quantizes its own slot.
        for (d, &it) in iters.iter().enumerate() {
            let step = dims[d].1;
            let kind = if d == enclosing.len() {
                KKind::Lin { step }
            } else {
                let depth = base_depth + d;
                KKind::Outer { depth, step }
            };
            body.push(self.slot(it), DType::F64, kind);
        }
        // `Err` is the structural error the interpreter raises at this
        // point of its first iteration, after evaluating what precedes.
        let mut built = p
            .body
            .iter()
            .try_for_each(|&n| self.emit_node(n, &mut body));
        if let (Ok(()), Some(r)) = (&built, &p.reduce) {
            match self.design.kind(r.reg) {
                NodeKind::Bram(_) | NodeKind::Reg(_) => {
                    let (val, op) = (body.src(self.slot(r.value)), r.op);
                    let ty = self.design.ty(r.reg);
                    let acc = self.layout.mem_base(r.reg).expect("laid out");
                    body.push(acc, DType::F64, KKind::Reduce { val, op, ty });
                }
                _ => built = Err(SimError::Unevaluated(r.reg)),
            }
        }
        let blocked = lane_major_unobservable(&body.ops);
        // A uniform load is read once per block, so a blocked body must
        // not store to its memory. None does: a memory both loaded and
        // stored blocks only at an address with a nonzero stride in the
        // innermost counter, which no uniform address has, and reduction
        // accumulators lie outside every loaded range.
        let stored = |mem| {
            (body.ops.iter()).any(|op| matches!(&op.kind, KKind::Store { at, .. } if at.mem == mem))
        };
        debug_assert!(
            !blocked
                || !(body.ops.iter()).any(
                    |op| matches!(&op.kind, KKind::Load { at } if op.uniform && stored(at.mem))
                ),
            "pipe {ctrl}: a blocked body stores to a memory it loads at a uniform address"
        );
        self.push(Instr::Kernel(self.tape.kernels.len()));
        self.tape.kernels.push(Kernel {
            // A body that aborts runs once, up to the abort.
            trips: if built.is_ok() { inner_trips } else { 1 },
            ops: body.ops,
            blocked,
        });
        if let Err(e) = built {
            self.abort(e);
        }
        for _ in enclosing {
            self.push(Instr::LoopEnd);
        }
        self.depth = base_depth;
        Ok(())
    }

    /// Resolve the memory of a body access, with the checks of the
    /// interpreter's `Access::resolve` and `Access::index`.
    fn target(
        &self,
        mem: NodeId,
        addr: &[NodeId],
        body: &Body,
    ) -> std::result::Result<Target, SimError> {
        let (dims, size): (&[u64], u64) = match self.design.kind(mem) {
            NodeKind::PriorityQueue(_) => {
                return Ok(Target::Queue(self.layout.queue(mem).expect("laid out")))
            }
            NodeKind::Reg(_) => (&[], 1),
            NodeKind::Bram(b) if addr.len() == b.dims.len() => (&b.dims, b.dims.iter().product()),
            NodeKind::Bram(b) => {
                return Err(SimError::Malformed(format!(
                    "access to {mem}: address rank {} != memory rank {}",
                    addr.len(),
                    b.dims.len()
                )))
            }
            _ => return Err(SimError::Malformed(format!("access to non-memory {mem}"))),
        };
        let terms: Vec<(KSrc, u64)> = std::iter::zip(addr, dims)
            .map(|(&a, &dim)| (body.src(self.slot(a)), dim))
            .collect();
        Ok(Target::Mem(Access {
            base: self.layout.mem_base(mem).expect("laid out"),
            stride: stride_of(&body.ops, body.trips, &terms),
            terms,
            size,
            mem,
        }))
    }

    /// Lower one body node to its micro-op. `Err` is the structural
    /// error the interpreter's `exec` raises for it at its `Step::Fail`.
    fn emit_node(&self, n: NodeId, body: &mut Body) -> std::result::Result<(), SimError> {
        let design = self.design;
        let node = design.node(n);
        let src = |id: NodeId| body.src(self.slot(id));
        let kind = match &node.kind {
            // Constants are pre-quantized into the arena template; the
            // interpreter's re-store of the same value is a no-op.
            NodeKind::Const(_) => return Ok(()),
            // An iterator read back through the body re-quantizes in
            // place.
            NodeKind::Iter { .. } => KKind::Requant { a: src(n) },
            NodeKind::Prim { op, inputs } => match inputs[..] {
                [] => {
                    return Err(SimError::Malformed(format!(
                        "primitive {op:?} at {n} has no operands"
                    )))
                }
                [a] => KKind::Un { op: *op, a: src(a) },
                [a, b, ..] => KKind::Bin {
                    op: *op,
                    a: src(a),
                    b: src(b),
                },
            },
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => KKind::Mux {
                sel: src(*sel),
                t: src(*if_true),
                f: src(*if_false),
            },
            NodeKind::Load { mem, addr } => match self.target(*mem, addr, body)? {
                Target::Queue(q) => KKind::QPop { q },
                Target::Mem(at) => KKind::Load { at },
            },
            NodeKind::Store { mem, addr, value } => {
                let (val, mem_ty) = (src(*value), design.ty(*mem));
                match self.target(*mem, addr, body)? {
                    Target::Queue(q) => KKind::QPush { q, val, mem_ty },
                    Target::Mem(at) => KKind::Store { at, val, mem_ty },
                }
            }
            other => {
                return Err(SimError::Malformed(format!(
                    "{} cannot appear in a pipe body",
                    other.template_name()
                )))
            }
        };
        body.push(self.slot(n), node.ty, kind);
        Ok(())
    }

    fn emit_tile(&mut self, t: &TileSpec, load: bool) -> EmitResult {
        if self.aborted {
            return Ok(());
        }
        let design = self.design;
        let dims = match design.kind(t.offchip) {
            NodeKind::OffChip { dims } => dims,
            _ => {
                self.abort(SimError::Malformed("tile target is not off-chip".into()));
                return Ok(());
            }
        };
        if t.tile.len() != dims.len() || t.offsets.len() != dims.len() {
            self.abort(SimError::Malformed(format!(
                "tile transfer on {}: tile rank {} / offset rank {} != memory rank {}",
                t.offchip,
                t.tile.len(),
                t.offsets.len(),
                dims.len()
            )));
            return Ok(());
        }
        let local_len = match design.kind(t.local) {
            NodeKind::Bram(b) => b.elements() as usize,
            NodeKind::Reg(_) => 1,
            NodeKind::PriorityQueue(_) => {
                return Err(self.unsupported(format!("tile buffer {} is a priority queue", t.local)))
            }
            _ => {
                self.abort(SimError::Unevaluated(t.local));
                return Ok(());
            }
        };
        let tile_elems: u64 = t.tile.iter().product();
        if local_len == 0 && tile_elems > 0 {
            return Err(self.unsupported(format!("tile buffer {} has no storage", t.local)));
        }
        let strides: Vec<u64> = (0..dims.len())
            .map(|d| dims[d + 1..].iter().product())
            .collect();
        let desc = TileDesc {
            offchip_base: self.layout.offchip_base(t.offchip).expect("laid out"),
            offchip: t.offchip,
            dims: dims.to_vec(),
            strides,
            local_base: self.layout.mem_base(t.local).expect("laid out"),
            local_len,
            tile: t.tile.to_vec(),
            tile_elems,
            offsets: t.offsets.iter().map(|&o| self.slot(o)).collect(),
            load,
        };
        let i = self.tape.tiles.len();
        self.tape.tiles.push(desc);
        self.push(Instr::Tile(i));
        Ok(())
    }
}

/// Pass 2: replay the interpreter's timed schedule without touching
/// data. Every f64 expression and every [`DramTimeline`] request below
/// is copied from the interpreter's timing code verbatim, so the
/// resulting cycles/profile/trace are bitwise identical.
struct TimingWalk<'a> {
    design: &'a Design,
    platform: &'a Platform,
    dram: DramTimeline,
    profile: BTreeMap<NodeId, (u64, f64)>,
    trace: Trace,
}

impl<'a> TimingWalk<'a> {
    fn run(design: &'a Design, platform: &'a Platform) -> Timing {
        let mut w = TimingWalk {
            design,
            platform,
            dram: DramTimeline::new(),
            profile: BTreeMap::new(),
            trace: Trace::default(),
        };
        let cycles = w.walk(design.top(), 0.0, 1.0);
        Timing {
            cycles,
            transfers: w.dram.transfers(),
            profile: build_profile(design, w.profile.iter().map(|(&ctrl, &row)| (ctrl, row))),
            trace: w.trace,
        }
    }

    fn walk(&mut self, ctrl: NodeId, start: f64, conc: f64) -> f64 {
        let dur = self.walk_inner(ctrl, start, conc);
        let e = self.profile.entry(ctrl).or_insert((0, 0.0));
        e.0 += 1;
        e.1 += dur;
        self.trace.events.push(TraceEvent {
            ctrl,
            start,
            end: start + dur,
        });
        dur
    }

    fn walk_inner(&mut self, ctrl: NodeId, start: f64, conc: f64) -> f64 {
        let design = self.design;
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => self.pipe_duration(p),
            NodeKind::Sequential(s) => self.walk_outer(s, false, start, conc),
            NodeKind::MetaPipe(s) => self.walk_outer(s, true, start, conc),
            NodeKind::ParallelCtrl { stages, .. } => {
                let mut max = 0.0f64;
                for &st in stages {
                    let d = self.walk(st, start, conc);
                    max = max.max(d);
                }
                max + STAGE_OVERHEAD
            }
            NodeKind::TileLoad(t) => self.tile_duration(t, start, conc),
            NodeKind::TileStore(t) => self.tile_duration(t, start, conc),
            _ => unreachable!("emission rejected non-controllers"),
        }
    }

    /// The `run_outer` pipeline recurrence over timed members only (the
    /// first member of each wave; the rest are functional-only and have
    /// no timing side effects in the interpreter).
    fn walk_outer(&mut self, s: &OuterSpec, pipelined: bool, start: f64, conc: f64) -> f64 {
        let total = s.ctr.total_iters();
        let n_stages = s.stages.len() + usize::from(s.fold.is_some());
        let par = u64::from(s.par.max(1));
        let waves = total.div_ceil(par);
        let mut finish = vec![start; n_stages];
        for wave in 0..waves {
            let members = ((wave + 1) * par).min(total) - wave * par;
            let member_conc = conc * members as f64;
            let mut cur = vec![0.0f64; n_stages];
            for (st, &stage) in s.stages.iter().enumerate() {
                let ready = if st == 0 {
                    finish[0]
                } else if pipelined {
                    cur[st - 1].max(finish[st])
                } else {
                    cur[st - 1]
                };
                let d = self.walk(stage, ready, member_conc);
                cur[st] = ready + d + STAGE_OVERHEAD;
            }
            if let Some(f) = s.fold {
                let st = n_stages - 1;
                let ready = if st == 0 {
                    finish[0]
                } else if pipelined {
                    cur[st - 1].max(finish[st])
                } else {
                    cur[st - 1]
                };
                let d = self.fold_duration(&f);
                cur[st] = ready + d + STAGE_OVERHEAD;
            }
            if !pipelined {
                let end = cur[n_stages - 1];
                finish = vec![end; n_stages];
            } else {
                finish = cur;
            }
        }
        finish[n_stages - 1] - start + STAGE_OVERHEAD
    }

    fn fold_duration(&self, f: &MemFold) -> f64 {
        let src_len = match self.design.kind(f.src) {
            NodeKind::Bram(b) => b.elements() as usize,
            _ => 1,
        };
        let ty = self.design.ty(f.accum);
        let banks = match self.design.kind(f.accum) {
            NodeKind::Bram(b) => b.banks.max(1),
            _ => 1,
        };
        let lat = prim_cost(f.op.prim(), ty).latency as f64;
        src_len as f64 / f64::from(banks) + lat
    }

    fn pipe_duration(&self, p: &PipeSpec) -> f64 {
        let mut depth = pipe_depth(self.design, p) as f64;
        if let (Some(r), Pattern::Reduce(op)) = (&p.reduce, p.pattern) {
            let ty = self.design.ty(r.reg);
            depth += reduce_tree_latency(op.prim(), ty, p.par) as f64;
            depth += prim_cost(op.prim(), ty).latency as f64;
        }
        let total = p.ctr.total_iters();
        let eff_iters = (total as f64 / f64::from(p.par.max(1))).ceil().max(1.0);
        let outer_wraps: f64 = if p.ctr.dims.len() > 1 {
            p.ctr.dims[..p.ctr.dims.len() - 1]
                .iter()
                .map(|d| d.trip_count() as f64)
                .product()
        } else {
            1.0
        };
        depth + eff_iters + outer_wraps + STAGE_OVERHEAD
    }

    fn tile_duration(&mut self, t: &TileSpec, start: f64, conc: f64) -> f64 {
        let design = self.design;
        let dims = match design.kind(t.offchip) {
            NodeKind::OffChip { dims } => dims,
            _ => unreachable!("emission validated the tile target"),
        };
        let elem_bytes = u64::from(design.ty(t.offchip).bits()).div_ceil(8);
        let inner = *t.tile.last().unwrap_or(&1);
        let full_row = dims.last().is_some_and(|&d| d == inner);
        let outer: u64 = t.tile[..t.tile.len().saturating_sub(1)].iter().product();
        let (commands, run_elems) = if full_row || t.tile.len() == 1 {
            (1, inner * outer.max(1))
        } else {
            (outer.max(1), inner)
        };
        let dram = &self.platform.dram;
        let data = dram.burst_cycles(run_elems * elem_bytes) * commands as f64;
        let issue = (dram.command_issue_cycles * commands) as f64;
        let channel = data.max(issue) * conc.max(1.0);
        let queued = self.dram.request(start, channel);
        dram.command_latency_cycles as f64 + queued
    }
}

/// Simulate via the tape-compiled backend, falling back to the
/// interpreter for designs the compiler does not support.
///
/// # Errors
///
/// Exactly the errors of [`simulate`].
pub fn simulate_compiled(
    design: &Design,
    platform: &Platform,
    bindings: &Bindings,
) -> Result<SimResult> {
    match compile(design, platform) {
        Ok(c) => c.run(bindings),
        Err(CompileError::Unsupported(_)) => {
            dhdl_obs::counter!("sim.tape.fallback").incr();
            simulate(design, platform, bindings)
        }
    }
}
