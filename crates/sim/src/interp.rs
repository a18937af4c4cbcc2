//! The DHDL simulator: functional execution plus cycle-level timing.
//!
//! Functionally, the simulator interprets the dataflow graph exactly:
//! controllers iterate their counter chains, pipe bodies evaluate in
//! dataflow order with type quantization, tile transfers move data between
//! off-chip arrays and on-chip buffers, and folds/reductions accumulate.
//!
//! For timing, the simulator resolves what the estimator only
//! approximates: `MetaPipe` stages are scheduled with the full pipeline
//! recurrence over *measured* per-wave stage durations (not the static
//! `(N−1)·max + Σ` bound), off-chip transfers contend on a shared
//! [`DramTimeline`] at their actual issue times, and counters pay a
//! re-initialization bubble per outer iteration. The gap between this and
//! `dhdl_estimate::estimate_cycles` is the runtime-estimation error
//! reported in Table III.

use std::collections::BTreeMap;

use dhdl_core::{
    CounterChain, Design, MemFold, NodeId, NodeKind, Pattern, PipeSpec, PrimOp, TileSpec,
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
        offchip.insert(name, sim.offchip.remove(&off).unwrap_or_default());
    }
    Ok(SimResult {
        cycles,
        transfers: sim.dram.transfers(),
        offchip,
        profile: build_profile(design, &sim.profile),
        trace: sim.trace,
    })
}

/// Convert raw per-controller accumulators into the sorted profile —
/// shared by both backends so labels and ordering match bit-for-bit.
pub(crate) fn build_profile(
    design: &Design,
    profile: &BTreeMap<NodeId, (u64, f64)>,
) -> Vec<ProfileEntry> {
    let mut out: Vec<ProfileEntry> = profile
        .iter()
        .map(|(&ctrl, &(executions, cycles))| ProfileEntry {
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

struct Sim<'a> {
    design: &'a Design,
    platform: &'a Platform,
    offchip: BTreeMap<NodeId, Vec<f64>>,
    onchip: BTreeMap<NodeId, Vec<f64>>,
    vals: Vec<f64>,
    dram: DramTimeline,
    profile: BTreeMap<NodeId, (u64, f64)>,
    trace: Trace,
}

impl<'a> Sim<'a> {
    fn new(design: &'a Design, platform: &'a Platform, bindings: &Bindings) -> Result<Self> {
        let mut offchip = BTreeMap::new();
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
            offchip.insert(off, data);
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
        let mut onchip = BTreeMap::new();
        for (id, node) in design.iter() {
            match &node.kind {
                NodeKind::Bram(b) => {
                    onchip.insert(id, vec![0.0; b.elements() as usize]);
                }
                NodeKind::Reg(r) => {
                    onchip.insert(id, vec![r.init]);
                }
                NodeKind::PriorityQueue(_) => {
                    onchip.insert(id, Vec::new());
                }
                _ => {}
            }
        }
        Ok(Sim {
            design,
            platform,
            offchip,
            onchip,
            vals: vec![0.0; design.len()],
            dram: DramTimeline::new(),
            profile: BTreeMap::new(),
            trace: Trace::default(),
        })
    }

    /// Execute controller `ctrl` starting at time `start`.
    ///
    /// `timed` selects whether this execution contributes DRAM traffic and
    /// measured durations (replica members beyond the first run
    /// functional-only); `conc` is the replication concurrency multiplier
    /// applied to transfer durations.
    fn run(&mut self, ctrl: NodeId, start: f64, timed: bool, conc: f64) -> Result<f64> {
        let dur = self.run_inner(ctrl, start, timed, conc)?;
        if timed {
            let e = self.profile.entry(ctrl).or_insert((0, 0.0));
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
        match self.design.kind(ctrl).clone() {
            NodeKind::Pipe(p) => self.run_pipe(ctrl, &p),
            NodeKind::Sequential(s) => {
                let dur = self.run_outer(
                    ctrl, &s.ctr, s.par, &s.stages, s.fold, false, start, timed, conc,
                )?;
                Ok(dur)
            }
            NodeKind::MetaPipe(s) => {
                let dur = self.run_outer(
                    ctrl, &s.ctr, s.par, &s.stages, s.fold, true, start, timed, conc,
                )?;
                Ok(dur)
            }
            NodeKind::ParallelCtrl { stages, .. } => {
                let mut max = 0.0f64;
                for &st in &stages {
                    let d = self.run(st, start, timed, conc)?;
                    max = max.max(d);
                }
                Ok(max + STAGE_OVERHEAD)
            }
            NodeKind::TileLoad(t) => self.run_tile(&t, true, start, timed, conc),
            NodeKind::TileStore(t) => self.run_tile(&t, false, start, timed, conc),
            other => Err(SimError::Malformed(format!(
                "{} is not an executable controller",
                other.template_name()
            ))),
        }
    }

    /// Execute an outer controller (`Sequential` or `MetaPipe`).
    #[allow(clippy::too_many_arguments)]
    fn run_outer(
        &mut self,
        ctrl: NodeId,
        ctr: &CounterChain,
        par: u32,
        stages: &[NodeId],
        fold: Option<MemFold>,
        pipelined: bool,
        start: f64,
        timed: bool,
        conc: f64,
    ) -> Result<f64> {
        // An empty (unit) chain means "run once"; a chain with real
        // dimensions whose product is zero can never execute its body.
        let total = ctr.total_iters();
        if total == 0 {
            return Err(SimError::ZeroTripLoop(ctrl));
        }
        let n_stages = stages.len() + usize::from(fold.is_some());
        if n_stages == 0 {
            return Err(SimError::Malformed(format!(
                "outer controller {ctrl} has no stages"
            )));
        }
        let par = u64::from(par.max(1));
        let waves = total.div_ceil(par);
        // Fold accumulators start each controller execution at the
        // reduction identity (reduce semantics of the source pattern).
        if let Some(f) = fold {
            let id = f.op.identity();
            if let Some(state) = self.onchip.get_mut(&f.accum) {
                for v in state.iter_mut() {
                    *v = id;
                }
            }
        }
        // Pipeline recurrence state: finish time of each stage in the
        // previous wave (for Sequential, stages within a wave serialize and
        // waves serialize).
        let mut finish = vec![start; n_stages];
        let iters = self.iter_nodes(ctrl);
        for wave in 0..waves {
            let members: Vec<u64> = (wave * par..((wave + 1) * par).min(total)).collect();
            for (mi, &lin) in members.iter().enumerate() {
                self.bind_iters(&iters, ctr, lin);
                let member_timed = timed && mi == 0;
                let member_conc = conc * members.len() as f64;
                if member_timed {
                    let mut cur = vec![0.0f64; n_stages];
                    for (s, &stage) in stages.iter().enumerate() {
                        let ready = if s == 0 {
                            finish[0]
                        } else if pipelined {
                            cur[s - 1].max(finish[s])
                        } else {
                            cur[s - 1]
                        };
                        let d = self.run(stage, ready, true, member_conc)?;
                        cur[s] = ready + d + STAGE_OVERHEAD;
                    }
                    if let Some(f) = fold {
                        let s = n_stages - 1;
                        let ready = if s == 0 {
                            finish[0]
                        } else if pipelined {
                            cur[s - 1].max(finish[s])
                        } else {
                            cur[s - 1]
                        };
                        let d = self.run_fold(&f)?;
                        cur[s] = ready + d + STAGE_OVERHEAD;
                    }
                    if !pipelined {
                        // Sequential: next wave starts after this one ends.
                        let end = cur[n_stages - 1];
                        finish = vec![end; n_stages];
                    } else {
                        finish = cur;
                    }
                } else {
                    for &stage in stages {
                        self.run(stage, 0.0, false, member_conc)?;
                    }
                    if let Some(f) = fold {
                        self.run_fold(&f)?;
                    }
                }
            }
        }
        Ok(finish[n_stages - 1] - start + STAGE_OVERHEAD)
    }

    /// Iterator nodes owned by a controller, ordered by dimension.
    fn iter_nodes(&self, ctrl: NodeId) -> Vec<NodeId> {
        let mut iters: Vec<(usize, NodeId)> = self
            .design
            .iter()
            .filter_map(|(id, n)| match n.kind {
                NodeKind::Iter { ctrl: c, dim } if c == ctrl => Some((dim, id)),
                _ => None,
            })
            .collect();
        iters.sort_unstable();
        iters.into_iter().map(|(_, id)| id).collect()
    }

    /// Decode linear iteration `lin` into per-dimension iterator values.
    fn bind_iters(&mut self, iters: &[NodeId], ctr: &CounterChain, lin: u64) {
        let mut rem = lin;
        let mut coords = vec![0u64; ctr.dims.len()];
        for (d, dim) in ctr.dims.iter().enumerate().rev() {
            let trips = dim.trip_count().max(1);
            coords[d] = (rem % trips) * dim.step;
            rem /= trips;
        }
        for (d, &it) in iters.iter().enumerate() {
            self.vals[it.index()] = coords.get(d).copied().unwrap_or(0) as f64;
        }
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
            let id = r.op.identity();
            if let Some(state) = self.onchip.get_mut(&r.reg) {
                state[0] = id;
            }
        }
        // Functional execution over the full iteration space.
        let dims: Vec<(u64, u64)> = p
            .ctr
            .dims
            .iter()
            .map(|d| (d.trip_count(), d.step))
            .collect();
        let iters = self.iter_nodes(ctrl);
        let mut coords = vec![0u64; dims.len()];
        for _ in 0..total {
            for (d, &it) in iters.iter().enumerate() {
                self.vals[it.index()] = (coords[d] * dims[d].1) as f64;
            }
            self.eval_body(p)?;
            // Advance the counter chain (row-major, last dim fastest).
            for d in (0..dims.len()).rev() {
                coords[d] += 1;
                if coords[d] < dims[d].0 {
                    break;
                }
                coords[d] = 0;
            }
        }
        // Timing: depth + ceil(iters/par) at II=1, plus a one-cycle counter
        // re-initialization bubble per outer-dimension wrap (a control
        // artifact the analytical model ignores).
        let mut depth = pipe_depth(self.design, p) as f64;
        if let (Some(r), Pattern::Reduce(op)) = (&p.reduce, p.pattern) {
            let ty = self.design.ty(r.reg);
            depth += reduce_tree_latency(op.prim(), ty, p.par) as f64;
            depth += prim_cost(op.prim(), ty).latency as f64;
        }
        let eff_iters = (total as f64 / f64::from(p.par.max(1))).ceil().max(1.0);
        let outer_wraps: f64 = if dims.len() > 1 {
            dims[..dims.len() - 1]
                .iter()
                .map(|&(t, _)| t as f64)
                .product()
        } else {
            1.0
        };
        Ok(depth + eff_iters + outer_wraps + STAGE_OVERHEAD)
    }

    fn eval_body(&mut self, p: &PipeSpec) -> Result<()> {
        for &n in &p.body {
            let v = self.eval_node(n)?;
            self.vals[n.index()] = v;
        }
        if let Some(r) = &p.reduce {
            let v = self.operand(r.value)?;
            let state = self
                .onchip
                .get_mut(&r.reg)
                .ok_or(SimError::Unevaluated(r.reg))?;
            let ty = self.design.ty(r.reg);
            state[0] = ty.quantize(r.op.apply(state[0], v));
        }
        Ok(())
    }

    fn eval_node(&mut self, n: NodeId) -> Result<f64> {
        let node = self.design.node(n);
        let ty = node.ty;
        let v = match &node.kind {
            NodeKind::Const(v) => *v,
            NodeKind::Iter { .. } => self.vals[n.index()],
            NodeKind::Prim { op, inputs } => {
                if inputs.is_empty() {
                    return Err(SimError::Malformed(format!(
                        "primitive {op:?} at {n} has no operands"
                    )));
                }
                let a = self.operand(inputs[0])?;
                let b = if inputs.len() > 1 {
                    self.operand(inputs[1])?
                } else {
                    0.0
                };
                apply_prim(*op, a, b)
            }
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => {
                if self.operand(*sel)? != 0.0 {
                    self.operand(*if_true)?
                } else {
                    self.operand(*if_false)?
                }
            }
            NodeKind::Load { mem, addr } => {
                let idx = self.flat_index(*mem, addr)?;
                match self.design.kind(*mem) {
                    NodeKind::PriorityQueue(_) => {
                        // Pop the minimum element.
                        let q = self
                            .onchip
                            .get_mut(mem)
                            .ok_or(SimError::Unevaluated(*mem))?;
                        if q.is_empty() {
                            0.0
                        } else {
                            // total_cmp so a NaN pushed into the queue
                            // (e.g. from a 0/0 upstream) sorts last
                            // instead of panicking the comparator.
                            let (mi, _) = q
                                .iter()
                                .enumerate()
                                .min_by(|a, b| a.1.total_cmp(b.1))
                                .expect("nonempty");
                            q.remove(mi)
                        }
                    }
                    _ => {
                        let state = self.onchip.get(mem).ok_or(SimError::Unevaluated(*mem))?;
                        state[idx]
                    }
                }
            }
            NodeKind::Store { mem, addr, value } => {
                let v = self.operand(*value)?;
                let mem_ty = self.design.ty(*mem);
                let idx = self.flat_index(*mem, addr)?;
                match self.design.kind(*mem) {
                    NodeKind::PriorityQueue(_) => {
                        let q = self
                            .onchip
                            .get_mut(mem)
                            .ok_or(SimError::Unevaluated(*mem))?;
                        q.push(mem_ty.quantize(v));
                    }
                    _ => {
                        let state = self
                            .onchip
                            .get_mut(mem)
                            .ok_or(SimError::Unevaluated(*mem))?;
                        state[idx] = mem_ty.quantize(v);
                    }
                }
                v
            }
            other => {
                return Err(SimError::Malformed(format!(
                    "{} cannot appear in a pipe body",
                    other.template_name()
                )))
            }
        };
        Ok(ty.quantize(v))
    }

    fn operand(&self, id: NodeId) -> Result<f64> {
        match self.design.kind(id) {
            // Constants are materialized in the datapath at their declared
            // type; quantize so f32 designs do not see f64 literals.
            NodeKind::Const(v) => Ok(self.design.ty(id).quantize(*v)),
            _ => Ok(self.vals[id.index()]),
        }
    }

    fn flat_index(&self, mem: NodeId, addr: &[NodeId]) -> Result<usize> {
        let dims: &[u64] = match self.design.kind(mem) {
            NodeKind::Bram(b) => &b.dims,
            NodeKind::Reg(_) | NodeKind::PriorityQueue(_) => return Ok(0),
            _ => return Err(SimError::Malformed(format!("access to non-memory {mem}"))),
        };
        if addr.len() != dims.len() {
            return Err(SimError::Malformed(format!(
                "access to {mem}: address rank {} != memory rank {}",
                addr.len(),
                dims.len()
            )));
        }
        let mut idx: i64 = 0;
        for (d, &a) in addr.iter().enumerate() {
            let v = self.operand(a)? as i64;
            idx = idx * dims[d] as i64 + v;
        }
        let size: u64 = dims.iter().product();
        if idx < 0 || idx as u64 >= size {
            return Err(SimError::OutOfBounds {
                mem,
                index: idx,
                size,
            });
        }
        Ok(idx as usize)
    }

    /// Execute the implicit fold stage of an outer controller.
    fn run_fold(&mut self, f: &MemFold) -> Result<f64> {
        let src = self
            .onchip
            .get(&f.src)
            .ok_or(SimError::Unevaluated(f.src))?
            .clone();
        let ty = self.design.ty(f.accum);
        let banks = match self.design.kind(f.accum) {
            NodeKind::Bram(b) => b.banks.max(1),
            _ => 1,
        };
        let accum = self
            .onchip
            .get_mut(&f.accum)
            .ok_or(SimError::Unevaluated(f.accum))?;
        for (a, &s) in accum.iter_mut().zip(&src) {
            *a = ty.quantize(f.op.apply(*a, s));
        }
        let lat = prim_cost(f.op.prim(), ty).latency as f64;
        Ok(src.len() as f64 / f64::from(banks) + lat)
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
        let NodeKind::OffChip { dims } = self.design.kind(t.offchip).clone() else {
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
        // Resolve offsets.
        let mut offsets = Vec::with_capacity(t.offsets.len());
        for &o in &t.offsets {
            offsets.push(self.operand(o)? as u64);
        }
        // Functional copy, iterating the tile's coordinate space.
        let tile_elems: u64 = t.tile.iter().product();
        let local_len = self
            .onchip
            .get(&t.local)
            .map(Vec::len)
            .ok_or(SimError::Unevaluated(t.local))?;
        for lin in 0..tile_elems {
            // Decode lin into tile coordinates (row-major).
            let mut rem = lin;
            let mut off_idx: u64 = 0;
            for (d, &extent) in t.tile.iter().enumerate().rev() {
                let c = rem % extent;
                rem /= extent;
                let global = offsets[d] + c;
                if global >= dims[d] {
                    return Err(SimError::OutOfBounds {
                        mem: t.offchip,
                        index: global as i64,
                        size: dims[d],
                    });
                }
                // Accumulate with the dimension's stride.
                let stride: u64 = dims[d + 1..].iter().product();
                off_idx += global * stride;
            }
            let li = (lin as usize) % local_len.max(1);
            if load {
                let v = self.offchip[&t.offchip][off_idx as usize];
                self.onchip.get_mut(&t.local).expect("checked")[li] = v;
            } else {
                let v = self.onchip[&t.local][li];
                self.offchip.get_mut(&t.offchip).expect("checked")[off_idx as usize] = v;
            }
        }
        // Timing: reserve the shared channel.
        if !timed {
            return Ok(0.0);
        }
        let elem_bytes = u64::from(self.design.ty(t.offchip).bits()).div_ceil(8);
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
}
