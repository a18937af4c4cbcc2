//! The DHDL embedded DSL: a scope-stack design builder.
//!
//! A benchmark is written as a Rust *metaprogram* over a [`DesignBuilder`]:
//! calling the metaprogram with concrete parameter values instantiates all
//! templates and yields a concrete [`Design`], exactly as DHDL programs are
//! instantiated from parameter arguments in the paper (§III).
//!
//! # Examples
//!
//! A tiled vector sum (compare Figure 4 of the paper):
//!
//! ```
//! use dhdl_core::{by, DType, DesignBuilder, ReduceOp};
//!
//! # fn main() -> dhdl_core::Result<()> {
//! let n = 1024;
//! let tile = 64;
//! let mut b = DesignBuilder::new("vecsum");
//! let v = b.off_chip("v", DType::F32, &[n]);
//! let out = b.off_chip("out", DType::F32, &[1]);
//! b.sequential(|b| {
//!     let acc = b.reg("acc", DType::F32, 0.0);
//!     b.meta_pipe(&[by(n, tile)], 1, |b, iters| {
//!         let i = iters[0];
//!         let vt = b.bram("vT", DType::F32, &[tile]);
//!         b.tile_load(v, vt, &[i], &[tile], 1);
//!         b.pipe_reduce(&[by(tile, 1)], 1, acc, ReduceOp::Add, |b, it| {
//!             b.load(vt, &[it[0]])
//!         });
//!     });
//!     let ot = b.bram("outT", DType::F32, &[1]);
//!     b.pipe(&[by(1, 1)], 1, |b, it| {
//!         let a = b.load_reg(acc);
//!         b.store(ot, &[it[0]], a);
//!     });
//!     let zero = b.index_const(0);
//!     b.tile_store(out, ot, &[zero], &[1], 1);
//! });
//! let design = b.finish()?;
//! assert_eq!(design.name(), "vecsum");
//! # Ok(())
//! # }
//! ```

use crate::analysis;
use crate::design::Design;
use crate::error::{DhdlError, Result};
use crate::node::{
    BramSpec, CounterChain, CounterDim, Ids, MemFold, Node, NodeId, NodeKind, OuterSpec, Pattern,
    PipeSpec, PrimOp, QueueSpec, ReduceOp, RegReduce, RegSpec, TileSpec,
};
use crate::small::ShortStr;
use crate::types::DType;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScopeKind {
    Sequential,
    MetaPipe,
    Parallel,
    Pipe,
}

#[derive(Debug)]
struct Scope {
    kind: ScopeKind,
    ctr: CounterChain,
    par: u32,
    pattern: Pattern,
    stages: Ids,
    locals: Ids,
    body: Vec<NodeId>,
}

impl Scope {
    /// A scope with nothing in it yet. Only `Pipe`s collect a body.
    fn open(kind: ScopeKind, ctr: CounterChain, par: u32, pattern: Pattern) -> Self {
        let body = match kind {
            ScopeKind::Pipe => Vec::with_capacity(BODY_CAPACITY),
            _ => Vec::new(),
        };
        Scope {
            kind,
            ctr,
            par,
            pattern,
            stages: Ids::new(),
            locals: Ids::new(),
            body,
        }
    }
}

/// Initial capacities of the builder's growing buffers, so a typical
/// design (the nine applications average 55 nodes, pipe bodies a dozen)
/// is built without regrowing them.
const NODE_CAPACITY: usize = 64;
const SCOPE_CAPACITY: usize = 8;
const BODY_CAPACITY: usize = 16;

/// Builder for [`Design`]s; the DHDL embedded DSL.
///
/// Controller-creating methods take closures that receive the builder and
/// the loop iterator nodes of the new controller. Misuse (e.g. creating a
/// nested controller inside a `Pipe` body) is recorded and reported by
/// [`DesignBuilder::finish`], so the construction code itself stays free of
/// error plumbing.
#[derive(Debug)]
pub struct DesignBuilder {
    name: ShortStr,
    nodes: Vec<Node>,
    offchips: Ids,
    scopes: Vec<Scope>,
    root: Option<NodeId>,
    errors: Vec<DhdlError>,
}

impl DesignBuilder {
    /// Start building a design with the given name.
    pub fn new(name: impl AsRef<str>) -> Self {
        DesignBuilder {
            name: name.as_ref().into(),
            nodes: Vec::with_capacity(NODE_CAPACITY),
            offchips: Ids::new(),
            scopes: Vec::with_capacity(SCOPE_CAPACITY),
            root: None,
            errors: Vec::new(),
        }
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId::from_raw(self.nodes.len() as u32);
        self.nodes.push(node);
        id
    }

    fn reserve(&mut self) -> NodeId {
        self.push_node(Node {
            kind: NodeKind::Const(0.0), // placeholder, overwritten on scope pop
            ty: DType::Bool,
            width: 1,
            name: None,
        })
    }

    fn error(&mut self, e: DhdlError) {
        self.errors.push(e);
    }

    /// Record `id` as a stage of the current scope (or as the design root).
    fn attach_stage(&mut self, id: NodeId) {
        match self.scopes.last_mut() {
            Some(s) if s.kind == ScopeKind::Pipe => {
                self.error(DhdlError::ScopeViolation(format!(
                    "controller {id} created inside a Pipe body"
                )));
            }
            Some(s) => s.stages.push(id),
            None => {
                if self.root.is_some() {
                    self.error(DhdlError::ScopeViolation(format!(
                        "second root controller {id}; a design has exactly one root"
                    )));
                } else {
                    self.root = Some(id);
                }
            }
        }
    }

    fn attach_local(&mut self, id: NodeId) {
        match self.scopes.last_mut() {
            Some(s) if s.kind == ScopeKind::Pipe => self.error(DhdlError::ScopeViolation(format!(
                "memory {id} declared inside a Pipe body"
            ))),
            Some(s) => s.locals.push(id),
            None => self.error(DhdlError::ScopeViolation(format!(
                "on-chip memory {id} declared outside any controller"
            ))),
        }
    }

    fn attach_body(&mut self, id: NodeId) {
        match self.scopes.last_mut() {
            Some(s) if s.kind == ScopeKind::Pipe => s.body.push(id),
            _ => self.error(DhdlError::ScopeViolation(format!(
                "primitive {id} created outside a Pipe body"
            ))),
        }
    }

    fn make_iters(&mut self, ctrl: NodeId, ndims: usize) -> Ids {
        (0..ndims)
            .map(|dim| {
                self.push_node(Node {
                    kind: NodeKind::Iter { ctrl, dim },
                    ty: DType::index(),
                    width: 1,
                    name: None,
                })
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // Memories
    // ------------------------------------------------------------------

    /// Declare an N-dimensional off-chip memory region (`OffChipMem`).
    pub fn off_chip(&mut self, name: &str, ty: DType, dims: &[u64]) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::OffChip { dims: dims.into() },
            ty,
            width: 1,
            name: Some(name.into()),
        });
        self.offchips.push(id);
        id
    }

    /// Declare an on-chip scratchpad (`BRAM`) in the current scope.
    ///
    /// Banking and double-buffering are inferred automatically by analysis
    /// passes when the design is finished (§III-B2, §IV).
    pub fn bram(&mut self, name: &str, ty: DType, dims: &[u64]) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::Bram(BramSpec {
                dims: dims.into(),
                double_buf: false,
                banks: 1,
                word_width: ty.bits(),
                interleave: Default::default(),
            }),
            ty,
            width: 1,
            name: Some(name.into()),
        });
        self.attach_local(id);
        id
    }

    /// Declare a non-pipeline register (`Reg`) in the current scope.
    pub fn reg(&mut self, name: &str, ty: DType, init: f64) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::Reg(RegSpec {
                init,
                double_buf: false,
            }),
            ty,
            width: 1,
            name: Some(name.into()),
        });
        self.attach_local(id);
        id
    }

    /// Declare a hardware priority queue in the current scope.
    pub fn priority_queue(&mut self, name: &str, ty: DType, depth: u64) -> NodeId {
        let id = self.push_node(Node {
            kind: NodeKind::PriorityQueue(QueueSpec {
                depth,
                double_buf: false,
            }),
            ty,
            width: 1,
            name: Some(name.into()),
        });
        self.attach_local(id);
        id
    }

    // ------------------------------------------------------------------
    // Controllers
    // ------------------------------------------------------------------

    fn outer_ctrl<R>(
        &mut self,
        kind: ScopeKind,
        ctrs: &[CounterDim],
        par: u32,
        pattern: Pattern,
        fold: Option<(NodeId, ReduceOp)>,
        f: impl FnOnce(&mut Self, &[NodeId]) -> R,
    ) -> (NodeId, R)
    where
        R: FoldSource,
    {
        let id = self.reserve();
        let iters = self.make_iters(id, ctrs.len());
        self.scopes
            .push(Scope::open(kind, CounterChain::new(ctrs), par, pattern));
        let ret = f(self, &iters);
        let scope = self.scopes.pop().expect("builder scope stack imbalance");
        let mem_fold = fold.map(|(accum, op)| MemFold {
            src: ret.fold_src().unwrap_or(accum),
            accum,
            op,
        });
        if fold.is_some() && ret.fold_src().is_none() {
            self.error(DhdlError::Validation(format!(
                "fold controller {id} body did not return a source buffer"
            )));
        }
        let spec = OuterSpec {
            ctr: scope.ctr,
            par: scope.par,
            pattern: scope.pattern,
            stages: scope.stages,
            locals: scope.locals,
            fold: mem_fold,
        };
        self.nodes[id.index()].kind = match kind {
            ScopeKind::Sequential => NodeKind::Sequential(spec),
            ScopeKind::MetaPipe => NodeKind::MetaPipe(spec),
            _ => unreachable!("outer_ctrl only builds Sequential/MetaPipe"),
        };
        self.attach_stage(id);
        (id, ret)
    }

    /// Create a `Sequential` controller with no loop (runs once).
    pub fn sequential(&mut self, f: impl FnOnce(&mut Self)) -> NodeId {
        self.sequential_ctr(&[], 1, |b, _| f(b))
    }

    /// Create a `Sequential` controller iterating over a counter chain.
    pub fn sequential_ctr(
        &mut self,
        ctrs: &[CounterDim],
        par: u32,
        f: impl FnOnce(&mut Self, &[NodeId]),
    ) -> NodeId {
        self.outer_ctrl(ScopeKind::Sequential, ctrs, par, Pattern::Map, None, f)
            .0
    }

    /// Create a `MetaPipe` (coarse-grained pipeline) controller.
    pub fn meta_pipe(
        &mut self,
        ctrs: &[CounterDim],
        par: u32,
        f: impl FnOnce(&mut Self, &[NodeId]),
    ) -> NodeId {
        self.outer_ctrl(ScopeKind::MetaPipe, ctrs, par, Pattern::Map, None, f)
            .0
    }

    /// Create an outer controller that is a `MetaPipe` when `toggle` is true
    /// and a `Sequential` otherwise — the *MetaPipe toggle* design parameter
    /// of §III-C.
    pub fn outer(
        &mut self,
        toggle: bool,
        ctrs: &[CounterDim],
        par: u32,
        f: impl FnOnce(&mut Self, &[NodeId]),
    ) -> NodeId {
        if toggle {
            self.meta_pipe(ctrs, par, f)
        } else {
            self.sequential_ctr(ctrs, par, f)
        }
    }

    /// Create an outer controller whose body produces a buffer that is
    /// element-wise folded into `accum` each iteration, mirroring the
    /// `MetaPipe(n by t, accum){ ... src }{_+_}` form of Figure 4.
    ///
    /// The closure must return the source buffer to fold.
    pub fn outer_fold(
        &mut self,
        toggle: bool,
        ctrs: &[CounterDim],
        par: u32,
        accum: NodeId,
        op: ReduceOp,
        f: impl FnOnce(&mut Self, &[NodeId]) -> NodeId,
    ) -> NodeId {
        let kind = if toggle {
            ScopeKind::MetaPipe
        } else {
            ScopeKind::Sequential
        };
        self.outer_ctrl(kind, ctrs, par, Pattern::Reduce(op), Some((accum, op)), f)
            .0
    }

    /// Create a fork-join `Parallel` container.
    pub fn parallel(&mut self, f: impl FnOnce(&mut Self)) -> NodeId {
        let id = self.reserve();
        self.scopes.push(Scope::open(
            ScopeKind::Parallel,
            CounterChain::unit(),
            1,
            Pattern::Map,
        ));
        f(self);
        let scope = self.scopes.pop().expect("builder scope stack imbalance");
        self.nodes[id.index()].kind = NodeKind::ParallelCtrl {
            stages: scope.stages,
            locals: scope.locals,
        };
        self.attach_stage(id);
        id
    }

    /// Create an innermost `Pipe` of primitive operations (map pattern).
    pub fn pipe(
        &mut self,
        ctrs: &[CounterDim],
        par: u32,
        f: impl FnOnce(&mut Self, &[NodeId]),
    ) -> NodeId {
        self.pipe_inner(ctrs, par, Pattern::Map, None, |b, it| {
            f(b, it);
            None
        })
    }

    /// Create an innermost `Pipe` with the reduce pattern, accumulating the
    /// closure's returned value into `reg` with `op`.
    pub fn pipe_reduce(
        &mut self,
        ctrs: &[CounterDim],
        par: u32,
        reg: NodeId,
        op: ReduceOp,
        f: impl FnOnce(&mut Self, &[NodeId]) -> NodeId,
    ) -> NodeId {
        self.pipe_inner(ctrs, par, Pattern::Reduce(op), Some((reg, op)), |b, it| {
            Some(f(b, it))
        })
    }

    fn pipe_inner(
        &mut self,
        ctrs: &[CounterDim],
        par: u32,
        pattern: Pattern,
        reduce_to: Option<(NodeId, ReduceOp)>,
        f: impl FnOnce(&mut Self, &[NodeId]) -> Option<NodeId>,
    ) -> NodeId {
        let id = self.reserve();
        let iters = self.make_iters(id, ctrs.len());
        self.scopes.push(Scope::open(
            ScopeKind::Pipe,
            CounterChain::new(ctrs),
            par,
            pattern,
        ));
        let value = f(self, &iters);
        let scope = self.scopes.pop().expect("builder scope stack imbalance");
        let reduce = match (reduce_to, value) {
            (Some((reg, op)), Some(value)) => Some(RegReduce { value, reg, op }),
            (Some((reg, op)), None) => {
                self.error(DhdlError::Validation(format!(
                    "reduce pipe {id} body did not return a value"
                )));
                Some(RegReduce {
                    value: reg,
                    reg,
                    op,
                })
            }
            (None, _) => None,
        };
        self.nodes[id.index()].kind = NodeKind::Pipe(PipeSpec {
            ctr: scope.ctr,
            par: scope.par,
            pattern: scope.pattern,
            body: scope.body,
            reduce,
        });
        self.attach_stage(id);
        id
    }

    /// Create a `TileLd` transferring a tile of `offchip` into `local`.
    ///
    /// `offsets` holds one value node per off-chip dimension (constants or
    /// enclosing loop iterators); `tile` the extent per dimension.
    pub fn tile_load(
        &mut self,
        offchip: NodeId,
        local: NodeId,
        offsets: &[NodeId],
        tile: &[u64],
        par: u32,
    ) -> NodeId {
        self.tile_xfer(true, offchip, local, offsets, tile, par)
    }

    /// Create a `TileSt` transferring `local` into a tile of `offchip`.
    pub fn tile_store(
        &mut self,
        offchip: NodeId,
        local: NodeId,
        offsets: &[NodeId],
        tile: &[u64],
        par: u32,
    ) -> NodeId {
        self.tile_xfer(false, offchip, local, offsets, tile, par)
    }

    fn tile_xfer(
        &mut self,
        load: bool,
        offchip: NodeId,
        local: NodeId,
        offsets: &[NodeId],
        tile: &[u64],
        par: u32,
    ) -> NodeId {
        let ty = self.nodes[offchip.index()].ty;
        let spec = TileSpec {
            offchip,
            local,
            offsets: offsets.into(),
            tile: tile.into(),
            par,
        };
        let id = self.push_node(Node {
            kind: if load {
                NodeKind::TileLoad(spec)
            } else {
                NodeKind::TileStore(spec)
            },
            ty,
            width: par,
            name: None,
        });
        self.attach_stage(id);
        id
    }

    // ------------------------------------------------------------------
    // Primitives (Pipe bodies only)
    // ------------------------------------------------------------------

    /// A scalar constant of the given type, usable inside Pipe bodies.
    pub fn constant(&mut self, value: f64, ty: DType) -> NodeId {
        // Constants are context-free: usable as tile offsets outside pipes
        // too, so no body attachment.
        self.push_node(Node {
            kind: NodeKind::Const(value),
            ty,
            width: 1,
            name: None,
        })
    }

    /// An index-typed constant (for tile offsets and addresses).
    pub fn index_const(&mut self, value: u64) -> NodeId {
        self.constant(value as f64, DType::index())
    }

    fn promote(&self, inputs: &[NodeId]) -> DType {
        inputs
            .iter()
            .map(|&i| self.nodes[i.index()].ty)
            .max_by_key(|t| (t.is_float(), t.bits()))
            .unwrap_or(DType::F32)
    }

    /// Create a primitive operation node in the current Pipe body.
    pub fn prim(&mut self, op: PrimOp, inputs: &[NodeId]) -> NodeId {
        if inputs.len() != op.arity() {
            self.error(DhdlError::Type(format!(
                "{op} expects {} operands, got {}",
                op.arity(),
                inputs.len()
            )));
        }
        let ty = if op.is_predicate() {
            DType::Bool
        } else {
            self.promote(inputs)
        };
        let par = self.scopes.last().map_or(1, |s| s.par);
        let id = self.push_node(Node {
            kind: NodeKind::Prim {
                op,
                inputs: inputs.into(),
            },
            ty,
            width: par,
            name: None,
        });
        self.attach_body(id);
        id
    }

    /// Addition.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Add, &[a, b])
    }

    /// Subtraction.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Sub, &[a, b])
    }

    /// Multiplication.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Mul, &[a, b])
    }

    /// Division.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Div, &[a, b])
    }

    /// Less-than comparison.
    pub fn lt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Lt, &[a, b])
    }

    /// Less-or-equal comparison.
    pub fn le(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Le, &[a, b])
    }

    /// Greater-than comparison.
    pub fn gt(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Gt, &[a, b])
    }

    /// Equality comparison.
    pub fn eq(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Eq, &[a, b])
    }

    /// Logical and.
    pub fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::And, &[a, b])
    }

    /// Logical or.
    pub fn or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Or, &[a, b])
    }

    /// Square root.
    pub fn sqrt(&mut self, a: NodeId) -> NodeId {
        self.prim(PrimOp::Sqrt, &[a])
    }

    /// Natural exponential.
    pub fn exp(&mut self, a: NodeId) -> NodeId {
        self.prim(PrimOp::Exp, &[a])
    }

    /// Natural logarithm.
    pub fn ln(&mut self, a: NodeId) -> NodeId {
        self.prim(PrimOp::Ln, &[a])
    }

    /// Absolute value.
    pub fn abs(&mut self, a: NodeId) -> NodeId {
        self.prim(PrimOp::Abs, &[a])
    }

    /// Arithmetic negation.
    pub fn neg(&mut self, a: NodeId) -> NodeId {
        self.prim(PrimOp::Neg, &[a])
    }

    /// Elementwise maximum.
    pub fn max(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Max, &[a, b])
    }

    /// Elementwise minimum.
    pub fn min(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.prim(PrimOp::Min, &[a, b])
    }

    /// 2:1 multiplexer: `sel ? if_true : if_false`.
    pub fn mux(&mut self, sel: NodeId, if_true: NodeId, if_false: NodeId) -> NodeId {
        let ty = self.promote(&[if_true, if_false]);
        let par = self.scopes.last().map_or(1, |s| s.par);
        let id = self.push_node(Node {
            kind: NodeKind::Mux {
                sel,
                if_true,
                if_false,
            },
            ty,
            width: par,
            name: None,
        });
        self.attach_body(id);
        id
    }

    /// Load an element of an on-chip memory (Pipe bodies only).
    pub fn load(&mut self, mem: NodeId, addr: &[NodeId]) -> NodeId {
        let ty = self.nodes[mem.index()].ty;
        if !self.nodes[mem.index()].kind.is_onchip_mem() {
            self.error(DhdlError::InvalidReference {
                node: mem,
                reason: "load target is not an on-chip memory".into(),
            });
        }
        let par = self.scopes.last().map_or(1, |s| s.par);
        let id = self.push_node(Node {
            kind: NodeKind::Load {
                mem,
                addr: addr.into(),
            },
            ty,
            width: par,
            name: None,
        });
        self.attach_body(id);
        id
    }

    /// Read the current value of a register (Pipe bodies only).
    pub fn load_reg(&mut self, reg: NodeId) -> NodeId {
        self.load(reg, &[])
    }

    /// Store a value to an on-chip memory (Pipe bodies only).
    pub fn store(&mut self, mem: NodeId, addr: &[NodeId], value: NodeId) -> NodeId {
        if !self.nodes[mem.index()].kind.is_onchip_mem() {
            self.error(DhdlError::InvalidReference {
                node: mem,
                reason: "store target is not an on-chip memory".into(),
            });
        }
        let ty = self.nodes[mem.index()].ty;
        let par = self.scopes.last().map_or(1, |s| s.par);
        let id = self.push_node(Node {
            kind: NodeKind::Store {
                mem,
                addr: addr.into(),
                value,
            },
            ty,
            width: par,
            name: None,
        });
        self.attach_body(id);
        id
    }

    /// Write a register (Pipe bodies only).
    pub fn store_reg(&mut self, reg: NodeId, value: NodeId) -> NodeId {
        self.store(reg, &[], value)
    }

    // ------------------------------------------------------------------
    // Finalization
    // ------------------------------------------------------------------

    /// Finish the design: check builder errors, run structural validation
    /// and the automatic banking and double-buffering analyses.
    ///
    /// # Errors
    ///
    /// Returns the first builder misuse error, or a validation error if the
    /// finished graph is structurally illegal.
    pub fn finish(mut self) -> Result<Design> {
        if let Some(e) = self.errors.into_iter().next() {
            return Err(e);
        }
        if !self.scopes.is_empty() {
            return Err(DhdlError::ScopeViolation(
                "builder finished with open scopes".into(),
            ));
        }
        let top = self
            .root
            .take()
            .ok_or_else(|| DhdlError::Validation("design has no root controller".into()))?;
        let mut design = Design::from_parts(self.name, self.nodes, top, self.offchips);
        let tree = analysis::traversal::CtrlTree::of(&design);
        analysis::validate::check(&design, &tree)?;
        analysis::banking::infer(&mut design);
        analysis::double_buffer::infer(&mut design, &tree);
        Ok(design)
    }
}

/// Internal trait letting `outer_ctrl` accept closures that return either
/// nothing or a fold-source buffer.
trait FoldSource {
    fn fold_src(&self) -> Option<NodeId>;
}

impl FoldSource for () {
    fn fold_src(&self) -> Option<NodeId> {
        None
    }
}

impl FoldSource for NodeId {
    fn fold_src(&self) -> Option<NodeId> {
        Some(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::by;

    #[test]
    fn empty_design_fails() {
        let b = DesignBuilder::new("empty");
        assert!(matches!(b.finish(), Err(DhdlError::Validation(_))));
    }

    #[test]
    fn controller_inside_pipe_rejected() {
        let mut b = DesignBuilder::new("bad");
        b.sequential(|b| {
            b.pipe(&[by(4, 1)], 1, |b, _| {
                b.parallel(|_| {});
            });
        });
        assert!(matches!(b.finish(), Err(DhdlError::ScopeViolation(_))));
    }

    #[test]
    fn memory_outside_controller_rejected() {
        let mut b = DesignBuilder::new("bad");
        b.bram("t", DType::F32, &[8]);
        b.sequential(|_| {});
        assert!(matches!(b.finish(), Err(DhdlError::ScopeViolation(_))));
    }

    #[test]
    fn two_roots_rejected() {
        let mut b = DesignBuilder::new("bad");
        b.sequential(|_| {});
        b.sequential(|_| {});
        assert!(matches!(b.finish(), Err(DhdlError::ScopeViolation(_))));
    }

    #[test]
    fn primitive_outside_pipe_rejected() {
        let mut b = DesignBuilder::new("bad");
        b.sequential(|b| {
            let c = b.index_const(1);
            b.prim(PrimOp::Add, &[c, c]);
        });
        assert!(matches!(b.finish(), Err(DhdlError::ScopeViolation(_))));
    }

    #[test]
    fn predicate_type_is_bool() {
        let mut b = DesignBuilder::new("t");
        b.sequential(|b| {
            let m = b.bram("m", DType::F32, &[4]);
            b.pipe(&[by(4, 1)], 1, |b, it| {
                let x = b.load(m, &[it[0]]);
                let c = b.lt(x, x);
                let z = b.constant(0.0, DType::F32);
                let v = b.mux(c, x, z);
                b.store(m, &[it[0]], v);
            });
        });
        let d = b.finish().unwrap();
        let preds = d.find_all(|n| matches!(n.kind, NodeKind::Prim { op: PrimOp::Lt, .. }));
        assert_eq!(preds.len(), 1);
        assert_eq!(d.ty(preds[0]), DType::Bool);
    }

    #[test]
    fn fold_requires_source() {
        let mut b = DesignBuilder::new("t");
        b.sequential(|b| {
            let acc = b.bram("acc", DType::F32, &[4]);
            // outer_fold used correctly
            b.outer_fold(true, &[by(8, 4)], 1, acc, ReduceOp::Add, |b, _| {
                let t = b.bram("t", DType::F32, &[4]);
                b.pipe(&[by(4, 1)], 1, |b, it| {
                    let c = b.constant(1.0, DType::F32);
                    b.store(t, &[it[0]], c);
                });
                t
            });
        });
        assert!(b.finish().is_ok());
    }

    #[test]
    fn wrong_arity_reported() {
        let mut b = DesignBuilder::new("t");
        b.sequential(|b| {
            b.pipe(&[by(4, 1)], 1, |b, _| {
                let c = b.constant(1.0, DType::F32);
                b.prim(PrimOp::Add, &[c]);
            });
        });
        assert!(matches!(b.finish(), Err(DhdlError::Type(_))));
    }
}
