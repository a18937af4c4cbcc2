//! The DHDL simulator: functional execution plus cycle-level timing.
//!
//! Functionally, the simulator interprets the dataflow graph exactly:
//! controllers iterate their counter chains, pipe bodies evaluate in
//! dataflow order with type quantization, tile transfers move data between
//! off-chip arrays and on-chip buffers, and folds/reductions accumulate.
//!
//! What depends on the [`Design`] alone is resolved once per *run*, in
//! `Sim::new`: memories, the profile and node values live in node-indexed
//! tables, every constant is quantized into its value slot, and each
//! controller's iterators are one run of a sorted list. Each `Pipe`'s
//! body is resolved into [`Step`]s the first time the run executes it:
//! slot indices, precomputed quantizers and memory accesses, with any
//! error the body holds raised by the step where the walk reaches it.
//! Counters and tile coordinates are stepped, never decoded from a
//! linear index. Executing the design then only indexes. (The tape
//! backend resolves the same things once per *compile*, in code of its
//! own: this interpreter is the reference the tape is checked against,
//! so it borrows nothing from `compile`, `tape` or `arena`.)
//!
//! For timing, the simulator resolves what the estimator only
//! approximates: `MetaPipe` stages are scheduled with the full pipeline
//! recurrence over *measured* per-wave stage durations (not the static
//! `(N−1)·max + Σ` bound), off-chip transfers contend on a shared
//! [`DramTimeline`] at their actual issue times, and counters pay a
//! re-initialization bubble per outer iteration. The gap between this and
//! `dhdl_estimate::estimate_cycles` is the runtime-estimation error
//! reported in Table III.

// `ok_or(SimError::Unevaluated(..))` would build an error on every
// memory access and drop it again (the type owns `String`s in other
// variants); `ok_or_else` builds one only when it is returned.
#![allow(clippy::unnecessary_lazy_evaluations)]

use std::collections::BTreeMap;
use std::ops::Range;

use dhdl_core::{
    CounterDim, DType, Design, MemFold, NodeId, NodeKind, OuterSpec, Pattern, PipeSpec, PrimOp,
    ReduceOp, TileSpec,
};
use dhdl_synth::chardata::{prim_cost, reduce_tree_latency};
use dhdl_synth::pipe_depth;
use dhdl_target::Platform;

use crate::error::{Result, SimError};
use crate::memory::DramTimeline;
use crate::trace::{Trace, TraceEvent};

/// Per-stage handshake overhead in cycles (matches the generated control).
pub(crate) const STAGE_OVERHEAD: f64 = 2.0;

/// Input data bound to off-chip memories by name.
///
/// Unbound memories are zero-initialized (typical for outputs). A
/// binding whose name matches no off-chip memory is rejected with
/// [`SimError::UnknownBinding`] — silently ignoring it would leave the
/// memory it meant to feed zeroed.
#[derive(Debug, Clone, Default)]
pub struct Bindings {
    map: BTreeMap<String, Vec<f64>>,
}

impl Bindings {
    /// No bindings; all memories start zeroed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bind `data` to the off-chip memory named `name`.
    pub fn bind(mut self, name: &str, data: Vec<f64>) -> Self {
        self.map.insert(name.to_string(), data);
        self
    }

    pub(crate) fn get(&self, name: &str) -> Option<&Vec<f64>> {
        self.map.get(name)
    }

    /// Bound names in sorted order (the validation order both backends
    /// share).
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.map.keys().map(String::as_str)
    }
}

/// Cycle attribution for one controller across a simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileEntry {
    /// The controller node.
    pub ctrl: NodeId,
    /// Template kind plus debug name (e.g. `"Pipe %12"`).
    pub label: String,
    /// Timed executions of the controller.
    pub executions: u64,
    /// Total cycles across timed executions (children included — entries
    /// of nested controllers overlap their parents').
    pub cycles: f64,
}

/// The outcome of a simulation: total cycles and final off-chip contents.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total execution cycles at the fabric clock.
    pub cycles: f64,
    /// Number of off-chip transfers issued.
    pub transfers: usize,
    pub(crate) offchip: BTreeMap<String, Vec<f64>>,
    pub(crate) profile: Vec<ProfileEntry>,
    pub(crate) trace: Trace,
}

impl SimResult {
    /// Final contents of the off-chip memory named `name`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownOutput`] (listing the outputs that do
    /// exist) if no such memory exists in the simulated design.
    pub fn output(&self, name: &str) -> Result<&[f64]> {
        self.offchip
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SimError::UnknownOutput {
                name: name.to_string(),
                available: self.offchip.keys().cloned().collect(),
            })
    }

    /// Bit-exact comparison against another result (any backend).
    ///
    /// Returns `None` when cycles, transfer counts, every off-chip array,
    /// the profile and the trace are bitwise identical; otherwise a
    /// human-readable description of the first divergence. This is the
    /// contract the tape backend is held to against the interpreter.
    pub fn bit_diff(&self, other: &SimResult) -> Option<String> {
        if self.cycles.to_bits() != other.cycles.to_bits() {
            return Some(format!("cycles {} vs {}", self.cycles, other.cycles));
        }
        if self.transfers != other.transfers {
            return Some(format!(
                "transfers {} vs {}",
                self.transfers, other.transfers
            ));
        }
        let mine: Vec<&String> = self.offchip.keys().collect();
        let theirs: Vec<&String> = other.offchip.keys().collect();
        if mine != theirs {
            return Some(format!("off-chip names {mine:?} vs {theirs:?}"));
        }
        for (name, a) in &self.offchip {
            let b = &other.offchip[name];
            if a.len() != b.len() {
                return Some(format!("`{name}` length {} vs {}", a.len(), b.len()));
            }
            for (i, (x, y)) in a.iter().zip(b).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Some(format!(
                        "`{name}`[{i}] = {x} ({:#x}) vs {y} ({:#x})",
                        x.to_bits(),
                        y.to_bits()
                    ));
                }
            }
        }
        if self.profile.len() != other.profile.len() {
            return Some(format!(
                "profile length {} vs {}",
                self.profile.len(),
                other.profile.len()
            ));
        }
        for (a, b) in self.profile.iter().zip(&other.profile) {
            if a.ctrl != b.ctrl
                || a.label != b.label
                || a.executions != b.executions
                || a.cycles.to_bits() != b.cycles.to_bits()
            {
                return Some(format!("profile entry {a:?} vs {b:?}"));
            }
        }
        if self.trace.events.len() != other.trace.events.len() {
            return Some(format!(
                "trace length {} vs {}",
                self.trace.events.len(),
                other.trace.events.len()
            ));
        }
        for (a, b) in self.trace.events.iter().zip(&other.trace.events) {
            if a.ctrl != b.ctrl
                || a.start.to_bits() != b.start.to_bits()
                || a.end.to_bits() != b.end.to_bits()
            {
                return Some(format!("trace event {a:?} vs {b:?}"));
            }
        }
        None
    }

    /// Wall-clock seconds on `platform`.
    pub fn seconds(&self, platform: &Platform) -> f64 {
        platform.cycles_to_seconds(self.cycles)
    }

    /// Per-controller cycle attribution, heaviest first. Nested
    /// controllers overlap their parents, so entries do not sum to
    /// [`SimResult::cycles`].
    pub fn profile(&self) -> &[ProfileEntry] {
        &self.profile
    }

    /// The controller activity trace (exportable to VCD via
    /// [`Trace::to_vcd`]).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

/// Simulate a design on a platform with the given input bindings.
///
/// # Errors
///
/// Returns a [`SimError`] for shape mismatches, out-of-bounds accesses, or
/// structurally unsupported graphs.
pub fn simulate(design: &Design, platform: &Platform, bindings: &Bindings) -> Result<SimResult> {
    let _span = dhdl_obs::span!("simulate");
    let result = simulate_inner(design, platform, bindings);
    match &result {
        Ok(r) => {
            dhdl_obs::counter!("sim.runs").incr();
            dhdl_obs::counter!("sim.cycles").add(r.cycles as u64);
        }
        Err(e) => {
            dhdl_obs::counter!("sim.errors").incr();
            dhdl_obs::counter(error_counter(e)).incr();
        }
    }
    result
}

/// The full static counter name for an error path; a match (rather than
/// formatting from [`SimError::kind`]) because counters need `'static`
/// names.
pub(crate) fn error_counter(e: &SimError) -> &'static str {
    match e.kind() {
        "missing_binding" => "sim.errors.missing_binding",
        "shape_mismatch" => "sim.errors.shape_mismatch",
        "out_of_bounds" => "sim.errors.out_of_bounds",
        "unknown_binding" => "sim.errors.unknown_binding",
        "unknown_output" => "sim.errors.unknown_output",
        "zero_trip_loop" => "sim.errors.zero_trip_loop",
        "unevaluated" => "sim.errors.unevaluated",
        _ => "sim.errors.malformed",
    }
}

fn simulate_inner(design: &Design, platform: &Platform, bindings: &Bindings) -> Result<SimResult> {
    let mut sim = Sim::new(design, platform, bindings)?;
    let cycles = sim.run(design.top(), 0.0, true, 1.0)?;
    let mut offchip = BTreeMap::new();
    for &off in design.offchips() {
        let name = design
            .node(off)
            .name
            .as_deref()
            .map_or_else(|| format!("{off}"), str::to_string);
        offchip.insert(name, sim.offchip[off.index()].take().unwrap_or_default());
    }
    dhdl_obs::counter!("sim.interp.node_evals").add(sim.node_evals);
    dhdl_obs::counter!("sim.interp.ctrl_execs").add(sim.ctrl_execs);
    let rows = (0..).map(NodeId::from_raw).zip(sim.profile.iter().copied());
    Ok(SimResult {
        cycles,
        transfers: sim.dram.transfers(),
        offchip,
        profile: build_profile(design, rows),
        trace: sim.trace,
    })
}

/// Convert raw per-controller accumulators (in `NodeId` order;
/// controllers that never ran timed are skipped) into the sorted profile
/// — shared by both backends so labels and ordering match bit-for-bit.
pub(crate) fn build_profile(
    design: &Design,
    rows: impl Iterator<Item = (NodeId, (u64, f64))>,
) -> Vec<ProfileEntry> {
    let mut out: Vec<ProfileEntry> = rows
        .filter(|&(_, (executions, _))| executions > 0)
        .map(|(ctrl, (executions, cycles))| ProfileEntry {
            ctrl,
            label: format!(
                "{} {}{}",
                design.kind(ctrl).template_name(),
                ctrl,
                design
                    .node(ctrl)
                    .name
                    .as_deref()
                    .map(|n| format!(" ({n})"))
                    .unwrap_or_default()
            ),
            executions,
            cycles,
        })
        .collect();
    out.sort_by(|a, b| b.cycles.total_cmp(&a.cycles));
    out
}

/// One run's state. Every table is indexed by `NodeId::index()` and
/// sized to the design, so the run path never searches. The memory
/// tables are read through `slot`/`slot_mut`: a reference the design
/// text got wrong is an `Unevaluated` error, not an index panic.
struct Sim<'a> {
    design: &'a Design,
    platform: &'a Platform,
    /// Off-chip arrays (`None`: not an array this run allocated).
    offchip: Vec<Option<Vec<f64>>>,
    /// `Bram`/`Reg`/`PriorityQueue` contents (`None`: not a memory).
    onchip: Vec<Option<Vec<f64>>>,
    /// Node values. Constants hold their quantized value from the start;
    /// iterators and body nodes are written as the run reaches them.
    vals: Vec<f64>,
    /// Every `Iter` node as `(ctrl, dim, id)`, sorted: a controller's
    /// iterators are one contiguous run, in dimension order.
    iters: Vec<(NodeId, usize, NodeId)>,
    dram: DramTimeline,
    /// `(timed executions, cycles)` per controller.
    profile: Vec<(u64, f64)>,
    /// Pipeline depth of each `Pipe` that has run: a function of the
    /// design alone, scheduled at the pipe's first execution (a body the
    /// run rejects is never scheduled).
    depth: Vec<Option<f64>>,
    /// Each `Pipe`'s body as [`Step`]s, resolved at the pipe's first
    /// execution.
    bodies: Vec<Option<Box<[Step]>>>,
    /// The coordinates of every walk in progress, innermost last: an
    /// outer controller, a pipe or a tile transfer pushes one [`Axis`]
    /// per dimension when it starts and truncates them when it ends, so
    /// no execution allocates.
    axes: Vec<Axis>,
    /// Two rows of stage finish times (the previous wave's, this wave's)
    /// per outer controller in progress, stacked like `axes`.
    times: Vec<f64>,
    /// `(offset, array extent, row-major stride)` per dimension of the
    /// tile transfer in progress.
    spans: Vec<(u64, u64, u64)>,
    trace: Trace,
    node_evals: u64,
    ctrl_execs: u64,
}

/// The contents of memory `id`, if the run allocated any.
fn slot(table: &[Option<Vec<f64>>], id: NodeId) -> Option<&Vec<f64>> {
    table.get(id.index())?.as_ref()
}

fn slot_mut(table: &mut [Option<Vec<f64>>], id: NodeId) -> Option<&mut Vec<f64>> {
    table.get_mut(id.index())?.as_mut()
}

/// One dimension of a walk: its coordinate and its extent.
#[derive(Clone, Copy)]
struct Axis {
    at: u64,
    len: u64,
}

/// Step row-major coordinates to the next linear index: the last axis
/// fastest, a wrapped axis carrying into the one before it.
fn advance(axes: &mut [Axis]) {
    for a in axes.iter_mut().rev() {
        a.at += 1;
        if a.at < a.len {
            return;
        }
        a.at = 0;
    }
}

/// Whether `axes` hold linear index `lin` decoded with `%` and `/` (the
/// walks' debug self-check).
fn decodes(axes: &[Axis], lin: u64) -> bool {
    let mut rem = lin;
    axes.iter().rev().all(|a| {
        let at = rem % a.len;
        rem /= a.len;
        a.at == at
    })
}

/// Bind a controller's iterators (`iters`, in dimension order) to the
/// walk at `axes`: iterator `d` reads coordinate `d` times its step,
/// iterators beyond the chain's rank read zero.
fn bind(vals: &mut [f64], iters: &[(NodeId, usize, NodeId)], dims: &[CounterDim], axes: &[Axis]) {
    for &(_, _, it) in iters.iter().skip(dims.len()) {
        vals[it.index()] = 0.0;
    }
    for ((&(_, _, it), dim), a) in iters.iter().zip(dims).zip(axes) {
        vals[it.index()] = (a.at * dim.step) as f64;
    }
}

/// A [`DType`]'s quantization with its `Fix` constants precomputed by
/// the expressions of [`DType::quantize`], so every result is the same
/// bits.
#[derive(Clone, Copy)]
enum Quant {
    F64,
    F32,
    Bool,
    Fix { scale: f64, min: f64, max: f64 },
}

impl Quant {
    fn of(ty: DType) -> Self {
        match ty {
            DType::F64 => Quant::F64,
            DType::F32 => Quant::F32,
            DType::Bool => Quant::Bool,
            DType::Fix { sign, int, frac } => {
                let scale = DType::pow2(u32::from(frac));
                let max = DType::pow2(u32::from(int) + u32::from(frac)) - 1.0;
                let min = if sign { -max - 1.0 } else { 0.0 };
                Quant::Fix { scale, min, max }
            }
        }
    }

    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Quant::F64 => x,
            Quant::F32 => x as f32 as f64,
            Quant::Bool => {
                if x != 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Quant::Fix { scale, min, max } => (x * scale).round().clamp(min, max) / scale,
        }
    }
}

/// A `Load`/`Store` resolved against its memory.
struct Access {
    mem: NodeId,
    /// `(value slot, extent)` per address dimension of a `Bram`; empty
    /// for a register or a queue, which ignore their address.
    dims: Box<[(usize, u64)]>,
    size: u64,
    queue: bool,
}

impl Access {
    /// The access to `mem` at `addr`, or the error the access raises.
    fn resolve(design: &Design, mem: NodeId, addr: &[NodeId]) -> Result<Access> {
        let unindexed = |queue| Access {
            mem,
            dims: Box::default(),
            size: 1,
            queue,
        };
        let dims: &[u64] = match design.kind(mem) {
            NodeKind::Bram(b) => &b.dims,
            NodeKind::Reg(_) => return Ok(unindexed(false)),
            NodeKind::PriorityQueue(_) => return Ok(unindexed(true)),
            _ => return Err(SimError::Malformed(format!("access to non-memory {mem}"))),
        };
        if addr.len() != dims.len() {
            return Err(SimError::Malformed(format!(
                "access to {mem}: address rank {} != memory rank {}",
                addr.len(),
                dims.len()
            )));
        }
        Ok(Access {
            mem,
            dims: addr
                .iter()
                .map(|a| a.index())
                .zip(dims.iter().copied())
                .collect(),
            size: dims.iter().product(),
            queue: false,
        })
    }

    /// The row-major element index, bounds-checked.
    #[inline]
    fn index(&self, vals: &[f64]) -> Result<usize> {
        let mut idx: i64 = 0;
        for &(slot, extent) in &*self.dims {
            idx = idx * extent as i64 + vals[slot] as i64;
        }
        if idx < 0 || idx as u64 >= self.size {
            return Err(SimError::OutOfBounds {
                mem: self.mem,
                index: idx,
                size: self.size,
            });
        }
        Ok(idx as usize)
    }

    /// The memory's contents. Debug builds check that the design still
    /// holds the kind of memory the access was resolved against.
    #[inline]
    fn state<'s>(
        &self,
        onchip: &'s mut [Option<Vec<f64>>],
        design: &Design,
    ) -> Result<&'s mut Vec<f64>> {
        debug_assert!(
            match design.kind(self.mem) {
                NodeKind::Bram(b) => !self.queue && b.dims.len() == self.dims.len(),
                NodeKind::Reg(_) => !self.queue && self.dims.is_empty(),
                NodeKind::PriorityQueue(_) => self.queue,
                _ => false,
            },
            "memory {} changed kind after its access was resolved",
            self.mem
        );
        slot_mut(onchip, self.mem).ok_or_else(|| SimError::Unevaluated(self.mem))
    }
}

/// One body node resolved for execution: operands and results are
/// `vals` slots, and each result is quantized at its node's type.
/// Constants have no step (their slots hold them from the start); a node
/// the walk rejects is a `Fail` that raises its error when reached.
enum Step {
    Prim {
        op: PrimOp,
        a: usize,
        b: Option<usize>,
        out: usize,
        q: Quant,
    },
    Mux {
        sel: usize,
        if_true: usize,
        if_false: usize,
        out: usize,
        q: Quant,
    },
    /// An `Iter` read in the body: its slot re-quantized in place.
    Requant {
        out: usize,
        q: Quant,
    },
    Load {
        at: Access,
        out: usize,
        q: Quant,
    },
    Store {
        at: Access,
        value: usize,
        /// The memory's quantization of the stored value.
        stored: Quant,
        out: usize,
        q: Quant,
    },
    /// A reduce pipe folding its value into the register, after the body.
    Reduce {
        value: usize,
        reg: NodeId,
        op: ReduceOp,
        q: Quant,
    },
    Fail(Box<SimError>),
}

/// Resolve `p`'s body, then its reduction, into steps. Nothing here
/// fails: an error is raised by its step, where the walk reaches it.
fn resolve_body(design: &Design, p: &PipeSpec) -> Box<[Step]> {
    let fail = |e| Step::Fail(Box::new(e));
    let mut steps = Vec::with_capacity(p.body.len() + 1);
    for &n in &p.body {
        let node = design.node(n);
        let (out, q) = (n.index(), Quant::of(node.ty));
        steps.push(match &node.kind {
            NodeKind::Const(_) => continue,
            NodeKind::Iter { .. } => Step::Requant { out, q },
            NodeKind::Prim { op, inputs } => match inputs.first() {
                Some(a) => Step::Prim {
                    op: *op,
                    a: a.index(),
                    b: inputs.get(1).map(|b| b.index()),
                    out,
                    q,
                },
                None => fail(SimError::Malformed(format!(
                    "primitive {op:?} at {n} has no operands"
                ))),
            },
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => Step::Mux {
                sel: sel.index(),
                if_true: if_true.index(),
                if_false: if_false.index(),
                out,
                q,
            },
            NodeKind::Load { mem, addr } => match Access::resolve(design, *mem, addr) {
                Ok(at) => Step::Load { at, out, q },
                Err(e) => fail(e),
            },
            NodeKind::Store { mem, addr, value } => match Access::resolve(design, *mem, addr) {
                Ok(at) => Step::Store {
                    at,
                    value: value.index(),
                    stored: Quant::of(design.ty(*mem)),
                    out,
                    q,
                },
                Err(e) => fail(e),
            },
            other => fail(SimError::Malformed(format!(
                "{} cannot appear in a pipe body",
                other.template_name()
            ))),
        });
    }
    if let Some(r) = &p.reduce {
        // A register reference past the design is `Unevaluated` when the
        // step runs; its quantization is then never applied.
        let q = if r.reg.index() < design.len() {
            Quant::of(design.ty(r.reg))
        } else {
            Quant::F64
        };
        steps.push(Step::Reduce {
            value: r.value.index(),
            reg: r.reg,
            op: r.op,
            q,
        });
    }
    steps.into()
}

/// Evaluate one iteration of a resolved body.
fn exec(
    steps: &[Step],
    vals: &mut [f64],
    onchip: &mut [Option<Vec<f64>>],
    design: &Design,
) -> Result<()> {
    for step in steps {
        match step {
            Step::Prim { op, a, b, out, q } => {
                let b = b.map_or(0.0, |b| vals[b]);
                vals[*out] = q.apply(apply_prim(*op, vals[*a], b));
            }
            Step::Mux {
                sel,
                if_true,
                if_false,
                out,
                q,
            } => {
                let taken = if vals[*sel] != 0.0 { if_true } else { if_false };
                vals[*out] = q.apply(vals[*taken]);
            }
            Step::Requant { out, q } => vals[*out] = q.apply(vals[*out]),
            Step::Load { at, out, q } => {
                let idx = at.index(vals)?;
                let state = at.state(onchip, design)?;
                let v = if !at.queue {
                    state[idx]
                } else if state.is_empty() {
                    0.0
                } else {
                    // Pop the minimum element; total_cmp so a NaN pushed
                    // into the queue (e.g. from a 0/0 upstream) sorts
                    // last instead of panicking the comparator.
                    let (mi, _) = state
                        .iter()
                        .enumerate()
                        .min_by(|a, b| a.1.total_cmp(b.1))
                        .expect("nonempty");
                    state.remove(mi)
                };
                vals[*out] = q.apply(v);
            }
            Step::Store {
                at,
                value,
                stored,
                out,
                q,
            } => {
                let v = vals[*value];
                let s = stored.apply(v);
                let idx = at.index(vals)?;
                let state = at.state(onchip, design)?;
                if at.queue {
                    state.push(s);
                } else {
                    state[idx] = s;
                }
                vals[*out] = q.apply(v);
            }
            Step::Reduce { value, reg, op, q } => {
                let v = vals[*value];
                let state = slot_mut(onchip, *reg).ok_or_else(|| SimError::Unevaluated(*reg))?;
                state[0] = q.apply(op.apply(state[0], v));
            }
            Step::Fail(e) => return Err((**e).clone()),
        }
    }
    Ok(())
}

impl<'a> Sim<'a> {
    fn new(design: &'a Design, platform: &'a Platform, bindings: &Bindings) -> Result<Self> {
        let mut offchip = vec![None; design.len()];
        for &off in design.offchips() {
            let NodeKind::OffChip { dims } = design.kind(off) else {
                continue;
            };
            let elements: u64 = dims.iter().product();
            let name = design
                .node(off)
                .name
                .as_deref()
                .unwrap_or_default()
                .to_string();
            let data = match bindings.get(&name) {
                Some(d) => {
                    if d.len() as u64 != elements {
                        return Err(SimError::ShapeMismatch {
                            name,
                            expected: elements,
                            actual: d.len(),
                        });
                    }
                    d.clone()
                }
                None => vec![0.0; elements as usize],
            };
            offchip[off.index()] = Some(data);
        }
        for name in bindings.map.keys() {
            let known = design
                .offchips()
                .iter()
                .any(|&off| design.node(off).name.as_deref() == Some(name.as_str()));
            if !known {
                return Err(SimError::UnknownBinding(name.clone()));
            }
        }
        let mut onchip = vec![None; design.len()];
        let mut vals = vec![0.0; design.len()];
        let mut iters = Vec::new();
        for (id, node) in design.iter() {
            match &node.kind {
                NodeKind::Bram(b) => onchip[id.index()] = Some(vec![0.0; b.elements() as usize]),
                NodeKind::Reg(r) => onchip[id.index()] = Some(vec![r.init]),
                NodeKind::PriorityQueue(_) => onchip[id.index()] = Some(Vec::new()),
                // Constants are materialized in the datapath at their
                // declared type; quantize so f32 designs do not see f64
                // literals.
                NodeKind::Const(v) => vals[id.index()] = node.ty.quantize(*v),
                NodeKind::Iter { ctrl, dim } => iters.push((*ctrl, *dim, id)),
                _ => {}
            }
        }
        iters.sort_unstable();
        Ok(Sim {
            design,
            platform,
            offchip,
            onchip,
            vals,
            iters,
            dram: DramTimeline::new(),
            profile: vec![(0, 0.0); design.len()],
            depth: vec![None; design.len()],
            bodies: std::iter::repeat_with(|| None).take(design.len()).collect(),
            axes: Vec::new(),
            times: Vec::new(),
            spans: Vec::new(),
            trace: Trace::default(),
            node_evals: 0,
            ctrl_execs: 0,
        })
    }

    /// Execute controller `ctrl` starting at time `start`.
    ///
    /// `timed` selects whether this execution contributes DRAM traffic and
    /// measured durations (replica members beyond the first run
    /// functional-only); `conc` is the replication concurrency multiplier
    /// applied to transfer durations.
    fn run(&mut self, ctrl: NodeId, start: f64, timed: bool, conc: f64) -> Result<f64> {
        self.ctrl_execs += 1;
        let dur = self.run_inner(ctrl, start, timed, conc)?;
        if timed {
            let e = &mut self.profile[ctrl.index()];
            e.0 += 1;
            e.1 += dur;
            self.trace.events.push(TraceEvent {
                ctrl,
                start,
                end: start + dur,
            });
        }
        Ok(dur)
    }

    fn run_inner(&mut self, ctrl: NodeId, start: f64, timed: bool, conc: f64) -> Result<f64> {
        // `design` outlives `self`'s borrow, so the spec is read in place.
        let design = self.design;
        match design.kind(ctrl) {
            NodeKind::Pipe(p) => self.run_pipe(ctrl, p),
            NodeKind::Sequential(s) => self.run_outer(ctrl, s, false, start, timed, conc),
            NodeKind::MetaPipe(s) => self.run_outer(ctrl, s, true, start, timed, conc),
            NodeKind::ParallelCtrl { stages, .. } => {
                let mut max = 0.0f64;
                for &st in stages {
                    let d = self.run(st, start, timed, conc)?;
                    max = max.max(d);
                }
                Ok(max + STAGE_OVERHEAD)
            }
            NodeKind::TileLoad(t) => self.run_tile(t, true, start, timed, conc),
            NodeKind::TileStore(t) => self.run_tile(t, false, start, timed, conc),
            other => Err(SimError::Malformed(format!(
                "{} is not an executable controller",
                other.template_name()
            ))),
        }
    }

    /// Push a walk over `lens` onto `axes`, every coordinate zero.
    fn push_axes(&mut self, lens: impl Iterator<Item = u64>) -> Range<usize> {
        let start = self.axes.len();
        self.axes.extend(lens.map(|len| Axis { at: 0, len }));
        start..self.axes.len()
    }

    /// Execute an outer controller (`Sequential` or `MetaPipe`).
    fn run_outer(
        &mut self,
        ctrl: NodeId,
        s: &OuterSpec,
        pipelined: bool,
        start: f64,
        timed: bool,
        conc: f64,
    ) -> Result<f64> {
        // An empty (unit) chain means "run once"; a chain with real
        // dimensions whose product is zero can never execute its body.
        let total = s.ctr.total_iters();
        if total == 0 {
            return Err(SimError::ZeroTripLoop(ctrl));
        }
        let n_stages = s.stages.len() + usize::from(s.fold.is_some());
        if n_stages == 0 {
            return Err(SimError::Malformed(format!(
                "outer controller {ctrl} has no stages"
            )));
        }
        let par = u64::from(s.par.max(1));
        // Fold accumulators start each controller execution at the
        // reduction identity (reduce semantics of the source pattern).
        if let Some(f) = s.fold {
            if let Some(state) = slot_mut(&mut self.onchip, f.accum) {
                state.fill(f.op.identity());
            }
        }
        // Stage finish times: the previous wave's row at `prev`, this
        // wave's at `cur`. The ready time of stage `st`: for Sequential,
        // stages within a wave serialize and waves serialize.
        let base = self.times.len();
        let (mut prev, mut cur) = (base, base + n_stages);
        self.times.resize(cur, start);
        self.times.resize(cur + n_stages, 0.0);
        let ready = |times: &[f64], prev: usize, cur: usize, st: usize| {
            if st == 0 {
                times[prev]
            } else if pipelined {
                times[cur + st - 1].max(times[prev + st])
            } else {
                times[cur + st - 1]
            }
        };
        let iters = self.iter_nodes(ctrl);
        let walk = self.push_axes(s.ctr.dims.iter().map(|d| d.trip_count().max(1)));
        // Members of one wave run concurrently; only the first is timed.
        let (mut left, mut member_conc) = (0u64, 0.0);
        for lin in 0..total {
            debug_assert!(decodes(&self.axes[walk.clone()], lin), "{ctrl} at {lin}");
            bind(
                &mut self.vals,
                &self.iters[iters.clone()],
                &s.ctr.dims,
                &self.axes[walk.clone()],
            );
            let first = left == 0;
            debug_assert_eq!(first, lin % par == 0, "{ctrl} at {lin}");
            if first {
                left = par.min(total - lin);
                member_conc = conc * left as f64;
            }
            left -= 1;
            if timed && first {
                for (st, &stage) in s.stages.iter().enumerate() {
                    let at = ready(&self.times, prev, cur, st);
                    let d = self.run(stage, at, true, member_conc)?;
                    self.times[cur + st] = at + d + STAGE_OVERHEAD;
                }
                if let Some(f) = &s.fold {
                    let st = n_stages - 1;
                    let at = ready(&self.times, prev, cur, st);
                    self.times[cur + st] = at + self.run_fold(f)? + STAGE_OVERHEAD;
                }
                if pipelined {
                    std::mem::swap(&mut prev, &mut cur);
                } else {
                    // Sequential: next wave starts after this one ends.
                    let end = self.times[cur + n_stages - 1];
                    self.times[prev..prev + n_stages].fill(end);
                }
            } else {
                for &stage in &s.stages {
                    self.run(stage, 0.0, false, member_conc)?;
                }
                if let Some(f) = &s.fold {
                    self.run_fold(f)?;
                }
            }
            advance(&mut self.axes[walk.clone()]);
        }
        let end = self.times[prev + n_stages - 1];
        self.axes.truncate(walk.start);
        self.times.truncate(base);
        Ok(end - start + STAGE_OVERHEAD)
    }

    /// Where `ctrl`'s iterator nodes sit in `self.iters`, ordered by
    /// dimension.
    fn iter_nodes(&self, ctrl: NodeId) -> Range<usize> {
        let lo = self.iters.partition_point(|e| e.0 < ctrl);
        let n = self.iters[lo..].iter().take_while(|e| e.0 == ctrl).count();
        lo..lo + n
    }

    /// Execute one `Pipe`: all counter iterations, functional body
    /// evaluation, plus the timing model (depth + II·iters + counter
    /// bubbles).
    fn run_pipe(&mut self, ctrl: NodeId, p: &PipeSpec) -> Result<f64> {
        let total = p.ctr.total_iters();
        if total == 0 {
            return Err(SimError::ZeroTripLoop(ctrl));
        }
        // A reduce pipe computes the reduction of its own iteration range:
        // the accumulator starts at the identity each execution.
        if let Some(r) = &p.reduce {
            if let Some(state) = slot_mut(&mut self.onchip, r.reg) {
                state[0] = r.op.identity();
            }
        }
        // Functional execution over the full iteration space.
        let design = self.design;
        let iters = self.iter_nodes(ctrl);
        let walk = self.push_axes(p.ctr.dims.iter().map(CounterDim::trip_count));
        let body = self.bodies[ctrl.index()].get_or_insert_with(|| resolve_body(design, p));
        let axes = &mut self.axes[walk.clone()];
        for lin in 0..total {
            debug_assert!(decodes(axes, lin), "{ctrl} at {lin}");
            bind(
                &mut self.vals,
                &self.iters[iters.clone()],
                &p.ctr.dims,
                axes,
            );
            exec(body, &mut self.vals, &mut self.onchip, design)?;
            advance(axes);
        }
        self.axes.truncate(walk.start);
        self.node_evals += total * p.body.len() as u64;
        // Timing: depth + ceil(iters/par) at II=1, plus a one-cycle counter
        // re-initialization bubble per outer-dimension wrap (a control
        // artifact the analytical model ignores).
        let depth = *self.depth[ctrl.index()].get_or_insert_with(|| {
            let mut depth = pipe_depth(design, p) as f64;
            if let (Some(r), Pattern::Reduce(op)) = (&p.reduce, p.pattern) {
                let ty = design.ty(r.reg);
                depth += reduce_tree_latency(op.prim(), ty, p.par) as f64;
                depth += prim_cost(op.prim(), ty).latency as f64;
            }
            depth
        });
        let eff_iters = (total as f64 / f64::from(p.par.max(1))).ceil().max(1.0);
        let dims = &p.ctr.dims;
        let outer_wraps: f64 = if dims.len() > 1 {
            dims[..dims.len() - 1]
                .iter()
                .map(|d| d.trip_count() as f64)
                .product()
        } else {
            1.0
        };
        Ok(depth + eff_iters + outer_wraps + STAGE_OVERHEAD)
    }

    /// Execute the implicit fold stage of an outer controller.
    fn run_fold(&mut self, f: &MemFold) -> Result<f64> {
        if slot(&self.onchip, f.src).is_none() {
            return Err(SimError::Unevaluated(f.src));
        }
        let ty = self.design.ty(f.accum);
        let banks = match self.design.kind(f.accum) {
            NodeKind::Bram(b) => b.banks.max(1),
            _ => 1,
        };
        // The accumulator leaves the table while it is folded into, so
        // the source can be read beside it.
        let mut accum = self.onchip[f.accum.index()]
            .take()
            .ok_or_else(|| SimError::Unevaluated(f.accum))?;
        let src_len = match slot(&self.onchip, f.src) {
            Some(src) => {
                for (a, &s) in accum.iter_mut().zip(src) {
                    *a = ty.quantize(f.op.apply(*a, s));
                }
                src.len()
            }
            // The source *is* the accumulator: each element folds with
            // its own pre-fold value.
            None => {
                for a in accum.iter_mut() {
                    *a = ty.quantize(f.op.apply(*a, *a));
                }
                accum.len()
            }
        };
        self.onchip[f.accum.index()] = Some(accum);
        let lat = prim_cost(f.op.prim(), ty).latency as f64;
        Ok(src_len as f64 / f64::from(banks) + lat)
    }

    /// Execute a tile transfer: functional copy plus a DRAM reservation.
    fn run_tile(
        &mut self,
        t: &TileSpec,
        load: bool,
        start: f64,
        timed: bool,
        conc: f64,
    ) -> Result<f64> {
        let design = self.design;
        let NodeKind::OffChip { dims } = design.kind(t.offchip) else {
            return Err(SimError::Malformed("tile target is not off-chip".into()));
        };
        if t.tile.len() != dims.len() || t.offsets.len() != dims.len() {
            return Err(SimError::Malformed(format!(
                "tile transfer on {}: tile rank {} / offset rank {} != memory rank {}",
                t.offchip,
                t.tile.len(),
                t.offsets.len(),
                dims.len()
            )));
        }
        // Per dimension: resolved offset, array extent and row-major
        // stride; the tile extents are the walk's.
        self.spans.clear();
        for d in 0..dims.len() {
            let offset = self.vals[t.offsets[d].index()] as u64;
            self.spans
                .push((offset, dims[d], dims[d + 1..].iter().product()));
        }
        // Functional copy, iterating the tile's coordinate space.
        let tile_elems: u64 = t.tile.iter().product();
        let walk = self.push_axes(t.tile.iter().copied());
        let local =
            slot_mut(&mut self.onchip, t.local).ok_or_else(|| SimError::Unevaluated(t.local))?;
        // An array the off-chip list never declared has no element to
        // move: `Unevaluated`, but only once the address is in range.
        let array = slot_mut(&mut self.offchip, t.offchip).map_or(&mut [][..], |a| a);
        let local_len = local.len().max(1);
        let axes = &mut self.axes[walk.clone()];
        let mut li = 0;
        for lin in 0..tile_elems {
            debug_assert!(decodes(axes, lin), "tile on {} at {lin}", t.offchip);
            debug_assert_eq!(li, lin as usize % local_len);
            // Bounds are checked innermost axis first.
            let mut off_idx: u64 = 0;
            for (a, &(offset, size, stride)) in axes.iter().zip(&self.spans).rev() {
                let global = offset + a.at;
                if global >= size {
                    return Err(SimError::OutOfBounds {
                        mem: t.offchip,
                        index: global as i64,
                        size,
                    });
                }
                off_idx += global * stride;
            }
            let elem = array
                .get_mut(off_idx as usize)
                .ok_or_else(|| SimError::Unevaluated(t.offchip))?;
            if load {
                local[li] = *elem;
            } else {
                *elem = local[li];
            }
            advance(axes);
            li += 1;
            if li == local_len {
                li = 0;
            }
        }
        self.axes.truncate(walk.start);
        // Timing: reserve the shared channel.
        if !timed {
            return Ok(0.0);
        }
        let elem_bytes = u64::from(design.ty(t.offchip).bits()).div_ceil(8);
        let inner = *t.tile.last().unwrap_or(&1);
        let full_row = dims.last().is_some_and(|&d| d == inner);
        let outer: u64 = t.tile[..t.tile.len().saturating_sub(1)].iter().product();
        let (commands, run_elems) = if full_row || t.tile.len() == 1 {
            (1, inner * outer.max(1))
        } else {
            (outer.max(1), inner)
        };
        // Decompose into fixed command latency (pipelined with other
        // traffic, does not occupy the channel) and data/issue time (which
        // queues on the shared channel and scales with the number of
        // replicated transfer units, `conc`).
        let dram = &self.platform.dram;
        let data = dram.burst_cycles(run_elems * elem_bytes) * commands as f64;
        let issue = (dram.command_issue_cycles * commands) as f64;
        let channel = data.max(issue) * conc.max(1.0);
        let queued = self.dram.request(start, channel);
        Ok(dram.command_latency_cycles as f64 + queued)
    }
}

#[inline]
pub(crate) fn apply_prim(op: PrimOp, a: f64, b: f64) -> f64 {
    match op {
        PrimOp::Add => a + b,
        PrimOp::Sub => a - b,
        PrimOp::Mul => a * b,
        PrimOp::Div => a / b,
        PrimOp::Rem => a % b,
        PrimOp::Lt => f64::from(a < b),
        PrimOp::Le => f64::from(a <= b),
        PrimOp::Gt => f64::from(a > b),
        PrimOp::Ge => f64::from(a >= b),
        PrimOp::Eq => f64::from(a == b),
        PrimOp::Ne => f64::from(a != b),
        PrimOp::And => f64::from(a != 0.0 && b != 0.0),
        PrimOp::Or => f64::from(a != 0.0 || b != 0.0),
        PrimOp::Not => f64::from(a == 0.0),
        PrimOp::Neg => -a,
        PrimOp::Abs => a.abs(),
        PrimOp::Sqrt => a.sqrt(),
        PrimOp::Exp => a.exp(),
        PrimOp::Ln => a.ln(),
        PrimOp::Min => a.min(b),
        PrimOp::Max => a.max(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhdl_core::{by, DType, DesignBuilder, ReduceOp};

    fn platform() -> Platform {
        Platform::maia()
    }

    #[test]
    fn dot_product_is_functionally_correct() {
        let n = 256u64;
        let tile = 64u64;
        let mut b = DesignBuilder::new("dot");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        let out = b.off_chip("out", DType::F32, &[1]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 0.0);
            b.outer_fold(true, &[by(n, tile)], 1, acc, ReduceOp::Add, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[tile]);
                let yt = b.bram("yT", DType::F32, &[tile]);
                let partial = b.reg("partial", DType::F32, 0.0);
                b.parallel(|b| {
                    b.tile_load(x, xt, &[i], &[tile], 1);
                    b.tile_load(y, yt, &[i], &[tile], 1);
                });
                b.pipe_reduce(&[by(tile, 1)], 2, partial, ReduceOp::Add, |b, it| {
                    let a = b.load(xt, &[it[0]]);
                    let c = b.load(yt, &[it[0]]);
                    b.mul(a, c)
                });
                partial
            });
            let ot = b.bram("outT", DType::F32, &[1]);
            b.pipe(&[by(1, 1)], 1, |b, it| {
                let a = b.load_reg(acc);
                b.store(ot, &[it[0]], a);
            });
            let z = b.index_const(0);
            b.tile_store(out, ot, &[z], &[1], 1);
        });
        let d = b.finish().unwrap();
        let xs: Vec<f64> = (0..n).map(|i| (i % 7) as f64 * 0.5).collect();
        let ys: Vec<f64> = (0..n).map(|i| (i % 5) as f64 - 2.0).collect();
        let expected: f64 = xs.iter().zip(&ys).map(|(a, b)| a * b).sum();
        let bindings = Bindings::new().bind("x", xs).bind("y", ys);
        let r = simulate(&d, &platform(), &bindings).unwrap();
        let got = r.output("out").unwrap()[0];
        assert!((got - expected).abs() < 1e-3, "{got} vs {expected}");
        assert!(r.cycles > 0.0);
        assert!(r.transfers >= 8); // 4 tiles * 2 loads (store may batch)
    }

    #[test]
    fn elementwise_map_roundtrip() {
        let n = 128u64;
        let mut b = DesignBuilder::new("sq");
        let x = b.off_chip("x", DType::F32, &[n]);
        let y = b.off_chip("y", DType::F32, &[n]);
        b.sequential(|b| {
            let xt = b.bram("xT", DType::F32, &[n]);
            let yt = b.bram("yT", DType::F32, &[n]);
            let z = b.index_const(0);
            b.tile_load(x, xt, &[z], &[n], 1);
            b.pipe(&[by(n, 1)], 1, |b, it| {
                let v = b.load(xt, &[it[0]]);
                let w = b.mul(v, v);
                b.store(yt, &[it[0]], w);
            });
            b.tile_store(y, yt, &[z], &[n], 1);
        });
        let d = b.finish().unwrap();
        let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.25).collect();
        let bindings = Bindings::new().bind("x", xs.clone());
        let r = simulate(&d, &platform(), &bindings).unwrap();
        let out = r.output("y").unwrap();
        for (i, (&o, &xi)) in out.iter().zip(&xs).enumerate() {
            let e = (xi * xi) as f32 as f64;
            assert!((o - e).abs() < 1e-9, "index {i}: {o} vs {e}");
        }
    }

    #[test]
    fn two_d_tile_load_addresses_correctly() {
        let (r, c) = (8u64, 16u64);
        let mut b = DesignBuilder::new("t2d");
        let x = b.off_chip("x", DType::F32, &[r, c]);
        let y = b.off_chip("y", DType::F32, &[r, c]);
        b.sequential(|b| {
            b.sequential_ctr(&[by(r, 4)], 1, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[4, c]);
                let z = b.index_const(0);
                b.tile_load(x, t, &[i, z], &[4, c], 1);
                b.pipe(&[by(4, 1), by(c, 1)], 1, |b, it| {
                    let v = b.load(t, &[it[0], it[1]]);
                    let one = b.constant(1.0, DType::F32);
                    let w = b.add(v, one);
                    b.store(t, &[it[0], it[1]], w);
                });
                b.tile_store(y, t, &[i, z], &[4, c], 1);
            });
        });
        let d = b.finish().unwrap();
        let xs: Vec<f64> = (0..r * c).map(|i| i as f64).collect();
        let rr = simulate(&d, &platform(), &Bindings::new().bind("x", xs.clone())).unwrap();
        let out = rr.output("y").unwrap();
        for i in 0..(r * c) as usize {
            assert_eq!(out[i], xs[i] + 1.0, "index {i}");
        }
    }

    #[test]
    fn metapipe_is_faster_than_sequential_in_sim() {
        let build = |toggle: bool| {
            let n = 2048u64;
            let tile = 256u64;
            let mut b = DesignBuilder::new("mp");
            let x = b.off_chip("x", DType::F32, &[n]);
            let y = b.off_chip("y", DType::F32, &[n]);
            b.sequential(|b| {
                b.outer(toggle, &[by(n, tile)], 1, |b, iters| {
                    let i = iters[0];
                    let xt = b.bram("xT", DType::F32, &[tile]);
                    let yt = b.bram("yT", DType::F32, &[tile]);
                    b.tile_load(x, xt, &[i], &[tile], 1);
                    b.pipe(&[by(tile, 1)], 1, |b, it| {
                        let v = b.load(xt, &[it[0]]);
                        let w = b.sqrt(v);
                        b.store(yt, &[it[0]], w);
                    });
                    b.tile_store(y, yt, &[i], &[tile], 1);
                });
            });
            b.finish().unwrap()
        };
        let p = platform();
        let seq = simulate(&build(false), &p, &Bindings::new()).unwrap();
        let meta = simulate(&build(true), &p, &Bindings::new()).unwrap();
        assert!(
            meta.cycles < seq.cycles,
            "meta {} < seq {}",
            meta.cycles,
            seq.cycles
        );
    }

    #[test]
    fn fold_accumulates_elementwise() {
        let mut b = DesignBuilder::new("fold");
        let out = b.off_chip("out", DType::F32, &[4]);
        b.sequential(|b| {
            let acc = b.bram("acc", DType::F32, &[4]);
            b.outer_fold(true, &[by(8, 1)], 1, acc, ReduceOp::Add, |b, iters| {
                let i = iters[0];
                let t = b.bram("t", DType::F32, &[4]);
                b.pipe(&[by(4, 1)], 1, |b, it| {
                    let iv = b.prim(PrimOp::Add, &[i, it[0]]);
                    b.store(t, &[it[0]], iv);
                });
                t
            });
            let z = b.index_const(0);
            b.tile_store(out, acc, &[z], &[4], 1);
        });
        let d = b.finish().unwrap();
        let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
        let out = r.output("out").unwrap();
        // acc[j] = sum_{i=0..8} (i + j) = 28 + 8j.
        for (j, &v) in out.iter().enumerate() {
            assert_eq!(v, 28.0 + 8.0 * j as f64, "j={j}");
        }
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut b = DesignBuilder::new("bad");
        let x = b.off_chip("x", DType::F32, &[16]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[16]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[16], 1);
        });
        let d = b.finish().unwrap();
        let r = simulate(&d, &platform(), &Bindings::new().bind("x", vec![1.0; 3]));
        assert!(matches!(r, Err(SimError::ShapeMismatch { .. })));
    }

    #[test]
    fn runtime_out_of_bounds_is_reported() {
        // A data-dependent address beyond the memory bounds must surface
        // as SimError::OutOfBounds, not a panic.
        let mut b = DesignBuilder::new("oob");
        let x = b.off_chip("x", DType::F32, &[8]);
        b.sequential(|b| {
            let t = b.bram("t", DType::F32, &[8]);
            let z = b.index_const(0);
            b.tile_load(x, t, &[z], &[8], 1);
            b.pipe(&[by(8, 1)], 1, |b, it| {
                let v = b.load(t, &[it[0]]);
                // Address = value read from memory: 100.0 is out of range.
                let w = b.load(t, &[v]);
                b.store(t, &[it[0]], w);
            });
        });
        let d = b.finish().unwrap();
        let r = simulate(&d, &platform(), &Bindings::new().bind("x", vec![100.0; 8]));
        assert!(matches!(r, Err(SimError::OutOfBounds { .. })), "{r:?}");
    }

    #[test]
    fn priority_queue_pops_minimum() {
        let mut b = DesignBuilder::new("pq");
        let out = b.off_chip("out", DType::F32, &[4]);
        b.sequential(|b| {
            let q = b.priority_queue("q", DType::F32, 8);
            let ot = b.bram("ot", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                // Push 4-i: pushes 4,3,2,1.
                let four = b.constant(4.0, DType::F32);
                let v = b.sub(four, it[0]);
                b.store(q, &[], v);
            });
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let v = b.load(q, &[]);
                b.store(ot, &[it[0]], v);
            });
            let z = b.index_const(0);
            b.tile_store(out, ot, &[z], &[4], 1);
        });
        let d = b.finish().unwrap();
        let r = simulate(&d, &platform(), &Bindings::new()).unwrap();
        assert_eq!(r.output("out").unwrap(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn a_precomputed_quantizer_is_the_types_quantize_bit_for_bit() {
        let types = [
            DType::F64,
            DType::F32,
            DType::Bool,
            DType::fixed(false, 4, 0),
            DType::fixed(true, 3, 2),
            DType::fixed(true, 16, 16),
            DType::fixed(false, 0, 0),
            DType::fixed(true, 60, 1100),
        ];
        let values = [
            0.0,
            -0.0,
            0.1,
            -1.13,
            2.5,
            -2.5,
            7.4,
            1e300,
            -1e300,
            f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
        ];
        for ty in types {
            let q = Quant::of(ty);
            for x in values {
                let (got, want) = (q.apply(x), ty.quantize(x));
                assert_eq!(got.to_bits(), want.to_bits(), "{ty} of {x}");
            }
        }
    }
}
