//! One-time lowering of an elaborated design to a straight-line tape.
//!
//! [`compile`] runs two passes over the controller hierarchy:
//!
//! 1. **Emission** flattens the hierarchy into a [`crate::tape::Tape`] in
//!    the interpreter's exact execution order: outer controllers become a
//!    single linearized loop (members execute sequentially in linear
//!    order, as the interpreter runs them), pipes become nested counted
//!    loops with iterator-decode instructions, and every body node
//!    lowers to one instruction over arena slots. Structural errors the
//!    interpreter would raise mid-run (`ZeroTripLoop`, `Malformed`,
//!    `Unevaluated`) compile to an `Abort` at the exact position the
//!    interpreter would first discover them; data-dependent errors
//!    (out-of-bounds addresses) stay runtime checks inside the
//!    instructions.
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

use std::collections::BTreeMap;
use std::fmt;

use dhdl_core::{Design, MemFold, NodeId, NodeKind, OuterSpec, Pattern, PipeSpec, TileSpec};
use dhdl_synth::chardata::{prim_cost, reduce_tree_latency};
use dhdl_synth::pipe_depth;
use dhdl_target::Platform;

use crate::arena::Layout;
use crate::error::{Result, SimError};
use crate::interp::STAGE_OVERHEAD;
use crate::interp::{build_profile, error_counter, simulate, Bindings, ProfileEntry, SimResult};
use crate::memory::DramTimeline;
use crate::tape::{Instr, KOp, KSrc, Kernel, Tape, TileDesc};
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
/// Compile once, run per input set — the per-run cost is one arena
/// `clone` plus straight-line tape execution with zero per-cycle map
/// lookups or graph walks.
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
    let mut em = Emitter {
        design,
        layout: &layout,
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
    dhdl_obs::counter!("sim.compile.count").incr();
    dhdl_obs::counter!("sim.compile.kernels").add(tape.kernels.len() as u64);
    Ok(Compiled {
        layout,
        tape,
        timing,
    })
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
        let result = self.run_inner(bindings);
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

    fn run_inner(&self, bindings: &Bindings) -> Result<SimResult> {
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
        self.tape.execute(&mut arena, &mut queues)?;
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

/// Iterator nodes owned by a controller, ordered by dimension — the
/// interpreter's `iter_nodes`, run once at compile time instead of once
/// per controller execution.
fn iter_nodes(design: &Design, ctrl: NodeId) -> Vec<NodeId> {
    let mut iters: Vec<(usize, NodeId)> = design
        .iter()
        .filter_map(|(id, n)| match n.kind {
            NodeKind::Iter { ctrl: c, dim } if c == ctrl => Some((dim, id)),
            _ => None,
        })
        .collect();
    iters.sort_unstable();
    iters.into_iter().map(|(_, id)| id).collect()
}

type EmitResult = std::result::Result<(), CompileError>;

/// Pass 1: flatten the controller hierarchy into the functional tape.
struct Emitter<'a> {
    design: &'a Design,
    layout: &'a Layout,
    tape: Tape,
    /// Static loop-nesting depth at the current emission point.
    depth: usize,
    /// Set once a structural `Abort` has been emitted; all further
    /// emission is dead code the interpreter would never reach.
    aborted: bool,
}

/// Memory and reduction hazard analysis for a candidate fused kernel
/// (the cross-op half of the fusion safety conditions; dataflow is
/// checked during op construction in `try_build_kernel`).
fn kernel_hazards_ok(ops: &[KOp]) -> bool {
    // Per-memory address-term lists, plus every loaded/stored arena
    // range and every reduction accumulator.
    let mut stores: BTreeMap<NodeId, Vec<&[(KSrc, u64)]>> = BTreeMap::new();
    let mut loads: BTreeMap<NodeId, Vec<&[(KSrc, u64)]>> = BTreeMap::new();
    let mut ranges: Vec<(usize, u64)> = Vec::new();
    let mut accs: Vec<usize> = Vec::new();
    for op in ops {
        match op {
            KOp::Load {
                mem,
                terms,
                base,
                size,
                ..
            } => {
                loads.entry(*mem).or_default().push(terms);
                ranges.push((*base, *size));
            }
            KOp::Store {
                mem,
                terms,
                base,
                size,
                ..
            } => {
                stores.entry(*mem).or_default().push(terms);
                ranges.push((*base, *size));
            }
            KOp::Reduce { acc, .. } => accs.push(*acc),
            _ => {}
        }
    }
    // Accumulators: pairwise distinct (two reductions into one slot
    // would interleave differently under lane-major order) and outside
    // every accessed memory range (a load/store hitting the live
    // accumulator would observe mid-block state).
    for (i, &a) in accs.iter().enumerate() {
        if accs[..i].contains(&a) {
            return false;
        }
        if ranges.iter().any(|&(b, s)| a >= b && ((a - b) as u64) < s) {
            return false;
        }
    }
    for (mem, st) in &stores {
        // All stores to one memory must agree on the address, so the
        // per-address last writer is the textually last store op at the
        // highest lane under both orders.
        let first = st[0];
        if st[1..].iter().any(|t| *t != first) {
            return false;
        }
        if let Some(ld) = loads.get(mem) {
            // A memory both loaded and stored: same address for every
            // access, and the address must be strictly monotone in the
            // innermost counter (each term loop-invariant or
            // innermost-linear, at least one linear with nonzero step)
            // so lane `l` can only ever observe lane `l`'s own store.
            if ld.iter().any(|t| *t != first) {
                return false;
            }
            let mut linear = false;
            for (src, _) in first {
                match src {
                    KSrc::Slot(_) => {}
                    KSrc::Lane(i) => match &ops[*i] {
                        KOp::Outer { .. } => {}
                        KOp::Lin { step, .. } => {
                            if *step != 0 {
                                linear = true;
                            }
                        }
                        _ => return false,
                    },
                }
            }
            if !linear {
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
        let iters = iter_nodes(self.design, ctrl);
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
            match self.design.kind(r.reg) {
                NodeKind::Reg(_) => {
                    let base = self.layout.mem_base(r.reg).expect("laid out");
                    self.push(Instr::Fill {
                        base,
                        len: 1,
                        val: r.op.identity(),
                    });
                }
                NodeKind::Bram(b) if b.elements() >= 1 => {
                    let base = self.layout.mem_base(r.reg).expect("laid out");
                    self.push(Instr::Fill {
                        base,
                        len: 1,
                        val: r.op.identity(),
                    });
                }
                NodeKind::Bram(_) | NodeKind::PriorityQueue(_) => {
                    return Err(
                        self.unsupported(format!("reduce register {} has no element 0", r.reg))
                    )
                }
                _ => {} // skipped silently; the reduce step aborts below
            }
        }
        let iters = iter_nodes(self.design, ctrl);
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
        let base_depth = self.depth;
        for &(t, _) in &dims {
            self.push(Instr::LoopStart { trips: t });
            self.depth += 1;
        }
        // Index of the first innermost-body instruction (right after the
        // innermost `LoopStart`), for the fusion attempt below.
        let body_start = self.tape.instrs.len();
        // Re-bind every iterator at the top of the innermost body: the
        // interpreter rebinds all dimensions each iteration, which
        // matters when an `Iter` node inside the body re-quantizes its
        // own slot.
        for (d, &it) in iters.iter().enumerate() {
            // Each pipe dimension's counter is driven directly by its own
            // loop (div 1, modulus == trips), so the decode reduces to a
            // multiply.
            self.push(Instr::IterLin {
                dst: self.slot(it),
                depth: base_depth + d,
                step: dims[d].1,
            });
        }
        for &n in &p.body {
            self.emit_node(n)?;
        }
        if let Some(r) = &p.reduce {
            match self.design.kind(r.reg) {
                NodeKind::Bram(_) | NodeKind::Reg(_) => {
                    let acc = self.layout.mem_base(r.reg).expect("laid out");
                    self.push(Instr::ReduceStep {
                        acc,
                        val: self.slot(r.value),
                        op: r.op,
                        ty: self.design.ty(r.reg),
                    });
                }
                _ => self.abort(SimError::Unevaluated(r.reg)),
            }
        }
        // Fuse the innermost loop into a block-vectorized kernel when the
        // body passes the safety analysis; the unfused form remains the
        // fallback for bodies with cross-iteration hazards.
        let mut fused = false;
        if !self.aborted && !dims.is_empty() {
            let innermost = base_depth + dims.len() - 1;
            if let Some(kernel) =
                self.try_build_kernel(body_start, dims[dims.len() - 1].0, innermost)
            {
                let ki = self.tape.kernels.len();
                self.tape.kernels.push(kernel);
                // Drop the innermost `LoopStart` and its body; the
                // kernel instruction replaces the whole loop.
                self.tape.instrs.truncate(body_start - 1);
                self.tape.instrs.push(Instr::Kernel(ki));
                fused = true;
            }
        }
        let ends = dims.len() - usize::from(fused);
        for _ in 0..ends {
            self.push(Instr::LoopEnd);
        }
        self.depth = base_depth;
        Ok(())
    }

    /// Try to convert the innermost-loop body `instrs[start..]` into a
    /// fused [`Kernel`].
    ///
    /// Fusion evaluates the body op-by-op over blocks of iterations
    /// (lane-major) instead of iteration-by-iteration, so it is only
    /// performed when that reordering is provably unobservable:
    ///
    /// * the body contains only lane-safe instruction kinds (no queues,
    ///   tiles, fills, folds, nested loops or aborts);
    /// * dataflow is strictly forward — every operand slot is either
    ///   written by an *earlier* body instruction or by none at all
    ///   (loop-invariant), so no op reads a previous iteration's value;
    /// * for any memory both loaded and stored in the body, every access
    ///   uses the same address terms, those terms are invariant or
    ///   driven by the innermost iterator, and at least one term has a
    ///   nonzero step — the address is then strictly monotone in the
    ///   iteration counter, so a load can never observe (or miss) a
    ///   different iteration's store;
    /// * a memory stored by more than one instruction (and never loaded)
    ///   must use identical address terms for all of them, keeping the
    ///   per-address last-writer identical under the reordering;
    /// * reduction accumulators are disjoint from every loaded or stored
    ///   memory range and from each other (the reduction itself is
    ///   evaluated sequentially per lane, preserving the exact chain).
    fn try_build_kernel(&self, start: usize, trips: u64, innermost_depth: usize) -> Option<Kernel> {
        let body = &self.tape.instrs[start..];
        if body.is_empty() || body.len() > 64 {
            return None;
        }
        // Every arena slot written by any body instruction (forward-
        // dataflow guard: reading one of these before it is written this
        // iteration would observe the previous iteration's value).
        let mut all_dsts: std::collections::BTreeSet<usize> = std::collections::BTreeSet::new();
        for i in body {
            match i {
                Instr::IterLin { dst, .. }
                | Instr::Bin { dst, .. }
                | Instr::Un { dst, .. }
                | Instr::Mux { dst, .. }
                | Instr::Load { dst, .. }
                | Instr::Store { dst, .. } => {
                    all_dsts.insert(*dst);
                }
                Instr::Requant { slot, .. } => {
                    all_dsts.insert(*slot);
                }
                Instr::ReduceStep { .. } => {}
                _ => return None, // queues, tiles, fills, folds, loops, aborts
            }
        }
        let mut ops: Vec<KOp> = Vec::with_capacity(body.len());
        // Latest micro-op writing each slot so far (readers see the most
        // recent producer, exactly as slot reads do in the unfused loop).
        let mut producer: BTreeMap<usize, usize> = BTreeMap::new();
        let resolve = |producer: &BTreeMap<usize, usize>, slot: usize| -> Option<KSrc> {
            if let Some(&i) = producer.get(&slot) {
                Some(KSrc::Lane(i))
            } else if all_dsts.contains(&slot) {
                None // written later in the body: a loop-carried read
            } else {
                Some(KSrc::Slot(slot))
            }
        };
        let resolve_terms =
            |producer: &BTreeMap<usize, usize>, (ts, tl): (u32, u32)| -> Option<Vec<(KSrc, u64)>> {
                self.tape.addr_pool[ts as usize..(ts + tl) as usize]
                    .iter()
                    .map(|&(slot, dim)| resolve(producer, slot).map(|s| (s, dim)))
                    .collect()
            };
        for instr in body {
            let j = ops.len();
            match instr {
                Instr::IterLin { dst, depth, step } => {
                    ops.push(if *depth == innermost_depth {
                        KOp::Lin {
                            dst: *dst,
                            step: *step,
                        }
                    } else {
                        KOp::Outer {
                            dst: *dst,
                            depth: *depth,
                            step: *step,
                        }
                    });
                    producer.insert(*dst, j);
                }
                Instr::Bin { op, a, b, dst, ty } => {
                    ops.push(KOp::Bin {
                        op: *op,
                        a: resolve(&producer, *a)?,
                        b: resolve(&producer, *b)?,
                        dst: *dst,
                        ty: *ty,
                    });
                    producer.insert(*dst, j);
                }
                Instr::Un { op, a, dst, ty } => {
                    ops.push(KOp::Un {
                        op: *op,
                        a: resolve(&producer, *a)?,
                        dst: *dst,
                        ty: *ty,
                    });
                    producer.insert(*dst, j);
                }
                Instr::Mux { sel, t, f, dst, ty } => {
                    ops.push(KOp::Mux {
                        sel: resolve(&producer, *sel)?,
                        t: resolve(&producer, *t)?,
                        f: resolve(&producer, *f)?,
                        dst: *dst,
                        ty: *ty,
                    });
                    producer.insert(*dst, j);
                }
                Instr::Requant { slot, ty } => {
                    // Only meaningful on a slot an earlier body op wrote;
                    // re-quantizing an external slot in place mutates
                    // loop-invariant state and blocks fusion.
                    let a = match resolve(&producer, *slot)? {
                        KSrc::Lane(i) => KSrc::Lane(i),
                        KSrc::Slot(_) => return None,
                    };
                    ops.push(KOp::Requant {
                        a,
                        dst: *slot,
                        ty: *ty,
                    });
                    producer.insert(*slot, j);
                }
                Instr::Load {
                    base,
                    terms,
                    size,
                    mem,
                    dst,
                    ty,
                } => {
                    ops.push(KOp::Load {
                        base: *base,
                        terms: resolve_terms(&producer, *terms)?,
                        size: *size,
                        mem: *mem,
                        dst: *dst,
                        ty: *ty,
                    });
                    producer.insert(*dst, j);
                }
                Instr::Store {
                    base,
                    terms,
                    size,
                    mem,
                    val,
                    mem_ty,
                    dst,
                    dst_ty,
                } => {
                    ops.push(KOp::Store {
                        base: *base,
                        terms: resolve_terms(&producer, *terms)?,
                        size: *size,
                        mem: *mem,
                        val: resolve(&producer, *val)?,
                        mem_ty: *mem_ty,
                        dst: *dst,
                        dst_ty: *dst_ty,
                    });
                    producer.insert(*dst, j);
                }
                Instr::ReduceStep { acc, val, op, ty } => {
                    ops.push(KOp::Reduce {
                        acc: *acc,
                        val: resolve(&producer, *val)?,
                        op: *op,
                        ty: *ty,
                    });
                }
                _ => return None,
            }
        }
        kernel_hazards_ok(&ops).then_some(Kernel { trips, ops })
    }

    /// Append address terms `(slot, dim)` for a Bram access to the pool.
    fn addr_terms(&mut self, addr: &[NodeId], dims: &[u64]) -> (u32, u32) {
        let start = self.tape.addr_pool.len() as u32;
        for (d, &a) in addr.iter().enumerate() {
            let slot = self.slot(a);
            self.tape.addr_pool.push((slot, dims[d]));
        }
        (start, addr.len() as u32)
    }

    fn emit_node(&mut self, n: NodeId) -> EmitResult {
        if self.aborted {
            return Ok(());
        }
        let design = self.design;
        let node = design.node(n);
        let ty = node.ty;
        let dst = self.slot(n);
        match &node.kind {
            // Constants are pre-quantized into the arena template; the
            // interpreter's re-store of the same value is a no-op.
            NodeKind::Const(_) => {}
            // An iterator read back through the body re-quantizes in
            // place.
            NodeKind::Iter { .. } => self.push(Instr::Requant { slot: dst, ty }),
            NodeKind::Prim { op, inputs } => {
                if inputs.is_empty() {
                    self.abort(SimError::Malformed(format!(
                        "primitive {op:?} at {n} has no operands"
                    )));
                    return Ok(());
                }
                if inputs.len() == 1 {
                    self.push(Instr::Un {
                        op: *op,
                        a: self.slot(inputs[0]),
                        dst,
                        ty,
                    });
                } else {
                    self.push(Instr::Bin {
                        op: *op,
                        a: self.slot(inputs[0]),
                        b: self.slot(inputs[1]),
                        dst,
                        ty,
                    });
                }
            }
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => self.push(Instr::Mux {
                sel: self.slot(*sel),
                t: self.slot(*if_true),
                f: self.slot(*if_false),
                dst,
                ty,
            }),
            NodeKind::Load { mem, addr } => match design.kind(*mem) {
                NodeKind::PriorityQueue(_) => {
                    let q = self.layout.queue(*mem).expect("laid out");
                    self.push(Instr::QPop { q, dst, ty });
                }
                NodeKind::Reg(_) => {
                    let base = self.layout.mem_base(*mem).expect("laid out");
                    self.push(Instr::Load {
                        base,
                        terms: (self.tape.addr_pool.len() as u32, 0),
                        size: 1,
                        mem: *mem,
                        dst,
                        ty,
                    });
                }
                NodeKind::Bram(b) => {
                    if addr.len() != b.dims.len() {
                        self.abort(SimError::Malformed(format!(
                            "access to {mem}: address rank {} != memory rank {}",
                            addr.len(),
                            b.dims.len()
                        )));
                        return Ok(());
                    }
                    let base = self.layout.mem_base(*mem).expect("laid out");
                    let size = b.dims.iter().product();
                    let terms = self.addr_terms(addr, &b.dims);
                    self.push(Instr::Load {
                        base,
                        terms,
                        size,
                        mem: *mem,
                        dst,
                        ty,
                    });
                }
                _ => self.abort(SimError::Malformed(format!("access to non-memory {mem}"))),
            },
            NodeKind::Store { mem, addr, value } => match design.kind(*mem) {
                NodeKind::PriorityQueue(_) => {
                    let q = self.layout.queue(*mem).expect("laid out");
                    self.push(Instr::QPush {
                        q,
                        val: self.slot(*value),
                        mem_ty: design.ty(*mem),
                        dst,
                        dst_ty: ty,
                    });
                }
                NodeKind::Reg(_) => {
                    let base = self.layout.mem_base(*mem).expect("laid out");
                    self.push(Instr::Store {
                        base,
                        terms: (self.tape.addr_pool.len() as u32, 0),
                        size: 1,
                        mem: *mem,
                        val: self.slot(*value),
                        mem_ty: design.ty(*mem),
                        dst,
                        dst_ty: ty,
                    });
                }
                NodeKind::Bram(b) => {
                    if addr.len() != b.dims.len() {
                        self.abort(SimError::Malformed(format!(
                            "access to {mem}: address rank {} != memory rank {}",
                            addr.len(),
                            b.dims.len()
                        )));
                        return Ok(());
                    }
                    let base = self.layout.mem_base(*mem).expect("laid out");
                    let size = b.dims.iter().product();
                    let terms = self.addr_terms(addr, &b.dims);
                    self.push(Instr::Store {
                        base,
                        terms,
                        size,
                        mem: *mem,
                        val: self.slot(*value),
                        mem_ty: design.ty(*mem),
                        dst,
                        dst_ty: ty,
                    });
                }
                _ => self.abort(SimError::Malformed(format!("access to non-memory {mem}"))),
            },
            other => self.abort(SimError::Malformed(format!(
                "{} cannot appear in a pipe body",
                other.template_name()
            ))),
        }
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
            profile: build_profile(design, &w.profile),
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
