//! Node definitions for the DHDL dataflow graph.
//!
//! Each node corresponds to one of the architectural templates of Table I in
//! the paper: primitive operations, memories, controllers, and memory command
//! generators.

use std::fmt;

use crate::small::{ShortStr, SmallList};
use crate::types::DType;

/// Identifier of a node inside a [`crate::Design`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(u32);

/// A short list of node references — operands, addresses, offsets,
/// stages, locals — stored inside the node up to six (the spilled `Vec`
/// sets the list's size, and six ids fit in it).
pub type Ids = SmallList<NodeId, 6>;

/// Extents of a memory or tile, one per dimension, stored inside the
/// node up to three dimensions.
pub type Extents = SmallList<u64, 3>;

impl NodeId {
    /// Create a `NodeId` from a raw index. Intended for arena internals and
    /// deserialization; regular users obtain ids from the builder.
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw arena index of this id.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}

/// Primitive arithmetic, logic and control operations (Table I, row 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PrimOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Remainder.
    Rem,
    /// Less-than comparison.
    Lt,
    /// Less-or-equal comparison.
    Le,
    /// Greater-than comparison.
    Gt,
    /// Greater-or-equal comparison.
    Ge,
    /// Equality comparison.
    Eq,
    /// Inequality comparison.
    Ne,
    /// Logical/bitwise and.
    And,
    /// Logical/bitwise or.
    Or,
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// Absolute value (multi-cycle complex primitive).
    Abs,
    /// Square root (multi-cycle complex primitive).
    Sqrt,
    /// Natural exponential (multi-cycle complex primitive).
    Exp,
    /// Natural logarithm (multi-cycle complex primitive).
    Ln,
    /// Minimum of two values.
    Min,
    /// Maximum of two values.
    Max,
}

impl PrimOp {
    /// Number of operands the operation consumes.
    pub fn arity(self) -> usize {
        match self {
            PrimOp::Not | PrimOp::Neg | PrimOp::Abs | PrimOp::Sqrt | PrimOp::Exp | PrimOp::Ln => 1,
            _ => 2,
        }
    }

    /// Whether the op is one of the "complex multi-cycle" primitives
    /// called out in §III-B.
    pub fn is_complex(self) -> bool {
        matches!(
            self,
            PrimOp::Div | PrimOp::Rem | PrimOp::Sqrt | PrimOp::Exp | PrimOp::Ln
        )
    }

    /// Whether the result of the op is a boolean regardless of input type.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            PrimOp::Lt | PrimOp::Le | PrimOp::Gt | PrimOp::Ge | PrimOp::Eq | PrimOp::Ne
        )
    }

    /// All primitive ops, for characterization sweeps.
    pub fn all() -> &'static [PrimOp] {
        use PrimOp::*;
        &[
            Add, Sub, Mul, Div, Rem, Lt, Le, Gt, Ge, Eq, Ne, And, Or, Not, Neg, Abs, Sqrt, Exp, Ln,
            Min, Max,
        ]
    }

    /// The op's name in the persisted text formats: its `Debug` name.
    pub fn name(self) -> &'static str {
        // In declaration order, as `all()` is.
        const NAMES: [&str; 21] = [
            "Add", "Sub", "Mul", "Div", "Rem", "Lt", "Le", "Gt", "Ge", "Eq", "Ne", "And", "Or",
            "Not", "Neg", "Abs", "Sqrt", "Exp", "Ln", "Min", "Max",
        ];
        NAMES[self as usize]
    }

    /// The op [`PrimOp::name`] calls `name`.
    pub fn from_name(name: &str) -> Option<PrimOp> {
        PrimOp::all().iter().copied().find(|op| op.name() == name)
    }
}

impl fmt::Display for PrimOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PrimOp::Add => "+",
            PrimOp::Sub => "-",
            PrimOp::Mul => "*",
            PrimOp::Div => "/",
            PrimOp::Rem => "%",
            PrimOp::Lt => "<",
            PrimOp::Le => "<=",
            PrimOp::Gt => ">",
            PrimOp::Ge => ">=",
            PrimOp::Eq => "==",
            PrimOp::Ne => "!=",
            PrimOp::And => "&&",
            PrimOp::Or => "||",
            PrimOp::Not => "!",
            PrimOp::Neg => "neg",
            PrimOp::Abs => "abs",
            PrimOp::Sqrt => "sqrt",
            PrimOp::Exp => "exp",
            PrimOp::Ln => "ln",
            PrimOp::Min => "min",
            PrimOp::Max => "max",
        };
        f.write_str(s)
    }
}

/// Commutative, associative reduction operators used by `reduce`-patterned
/// controllers and fold accumulators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// Summation (`{_+_}` in the paper's surface syntax).
    Add,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
}

impl ReduceOp {
    /// Identity element of the reduction.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Add => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    /// Apply the reduction to two values.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Add => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    /// The primitive op that implements one combiner node of the tree.
    pub fn prim(self) -> PrimOp {
        match self {
            ReduceOp::Add => PrimOp::Add,
            ReduceOp::Min => PrimOp::Min,
            ReduceOp::Max => PrimOp::Max,
        }
    }

    /// The op's name in the persisted text formats: its `Debug` name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Add => "Add",
            ReduceOp::Min => "Min",
            ReduceOp::Max => "Max",
        }
    }

    /// The op [`ReduceOp::name`] calls `name`.
    pub fn from_name(name: &str) -> Option<ReduceOp> {
        [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max]
            .into_iter()
            .find(|op| op.name() == name)
    }
}

/// The parallel pattern a controller was generated from (§III-B3).
///
/// Nodes associated with `Map` are replicated and connected in parallel;
/// nodes associated with `Reduce` are replicated and connected as a balanced
/// tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Pattern {
    /// Independent parallel iterations.
    #[default]
    Map,
    /// Iterations combined through a balanced reduction tree.
    Reduce(ReduceOp),
}

/// One dimension of a counter chain: iterates `0, step, 2*step, ...` up to
/// (but excluding) `end`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CounterDim {
    /// Exclusive upper bound of the iterator.
    pub end: u64,
    /// Step between consecutive iterator values.
    pub step: u64,
}

impl CounterDim {
    /// Number of iterations of this dimension.
    pub fn trip_count(&self) -> u64 {
        if self.step == 0 {
            0
        } else {
            self.end.div_ceil(self.step)
        }
    }
}

/// Shorthand constructor for a counter dimension, mirroring the paper's
/// `end by step` syntax.
///
/// # Examples
///
/// ```
/// use dhdl_core::by;
/// let d = by(96, 1);
/// assert_eq!(d.trip_count(), 96);
/// ```
pub fn by(end: u64, step: u64) -> CounterDim {
    CounterDim { end, step }
}

/// A chain of counters producing loop iterators (the `Counter` template).
///
/// The chain is attached directly to the controller it drives; its vector
/// width equals the controller's parallelization factor.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct CounterChain {
    /// Counter dimensions, outermost first (stored in place up to two).
    pub dims: SmallList<CounterDim, 2>,
}

impl CounterChain {
    /// A chain with no dimensions: the controller runs exactly once.
    pub fn unit() -> Self {
        CounterChain::default()
    }

    /// Build a chain from dimension descriptors.
    pub fn new(dims: &[CounterDim]) -> Self {
        CounterChain { dims: dims.into() }
    }

    /// Total number of iterations (product of per-dimension trip counts).
    pub fn total_iters(&self) -> u64 {
        self.dims.iter().map(CounterDim::trip_count).product()
    }

    /// Whether the chain is the trivial single-iteration chain.
    pub fn is_unit(&self) -> bool {
        self.dims.is_empty()
    }
}

/// How a banked memory maps addresses onto banks (Table I's
/// "interleaving scheme" parameter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Interleaving {
    /// Address `a` lives in bank `a % banks` — consecutive elements land
    /// in different banks, serving unit-stride vector accesses. The
    /// automatic banking analysis picks this for parallel `Pipe` lanes.
    #[default]
    Cyclic,
    /// Address `a` lives in bank `a / (size / banks)` — contiguous blocks
    /// per bank, serving banked tile transfers.
    Blocked,
}

/// Configuration of an on-chip scratchpad (`BRAM` template).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BramSpec {
    /// Logical dimensions in elements.
    pub dims: Extents,
    /// Whether the buffer is double-buffered (set by analysis for buffers
    /// that communicate between MetaPipe stages).
    pub double_buf: bool,
    /// Banking factor (set by the automatic banking analysis).
    pub banks: u32,
    /// Word width in bits of each physical port (defaults to element width).
    pub word_width: u32,
    /// Bank interleaving scheme (set by the automatic banking analysis).
    pub interleave: Interleaving,
}

impl BramSpec {
    /// Total number of logical elements.
    pub fn elements(&self) -> u64 {
        self.dims.iter().product()
    }
}

/// Configuration of a non-pipeline register (`Reg` template).
#[derive(Debug, Clone, PartialEq)]
pub struct RegSpec {
    /// Reset/initial value.
    pub init: f64,
    /// Whether the register is double-buffered.
    pub double_buf: bool,
}

/// Configuration of a hardware sorting queue (`Priority Queue` template).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct QueueSpec {
    /// Maximum number of entries.
    pub depth: u64,
    /// Whether the queue is double-buffered.
    pub double_buf: bool,
}

/// A register-accumulating reduction attached to a `Pipe` (reduce pattern).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegReduce {
    /// Body node producing the per-iteration value.
    pub value: NodeId,
    /// The accumulator register.
    pub reg: NodeId,
    /// Combining operator.
    pub op: ReduceOp,
}

/// A memory-accumulating fold attached to an outer controller, e.g.
/// `MetaPipe(n by 1, accum){ ... src }{_+_}` in Figure 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemFold {
    /// The buffer produced by the controller body each iteration.
    pub src: NodeId,
    /// The accumulator buffer, element-wise combined with `src`.
    pub accum: NodeId,
    /// Combining operator.
    pub op: ReduceOp,
}

/// Body and schedule of an innermost dataflow pipeline (`Pipe` template).
#[derive(Debug, Clone, PartialEq)]
pub struct PipeSpec {
    /// Counter chain producing the loop iterators.
    pub ctr: CounterChain,
    /// Parallelization factor (vector width of the body).
    pub par: u32,
    /// Parallel pattern the pipe was generated from.
    pub pattern: Pattern,
    /// Primitive body nodes in topological order.
    pub body: Vec<NodeId>,
    /// Optional register reduction (present iff `pattern` is `Reduce`).
    pub reduce: Option<RegReduce>,
}

/// Body of an outer controller (`MetaPipe` and `Sequential` templates).
#[derive(Debug, Clone, PartialEq)]
pub struct OuterSpec {
    /// Counter chain producing the loop iterators.
    pub ctr: CounterChain,
    /// Parallelization factor (number of concurrent loop bodies).
    pub par: u32,
    /// Parallel pattern the controller was generated from.
    pub pattern: Pattern,
    /// Child controllers executed as stages, in program order.
    pub stages: Ids,
    /// Memories declared in this controller's scope.
    pub locals: Ids,
    /// Optional element-wise fold of a stage-produced buffer into an
    /// accumulator buffer.
    pub fold: Option<MemFold>,
}

/// Off-chip tile transfer descriptor (`TileLd`/`TileSt` templates).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TileSpec {
    /// The off-chip memory being accessed.
    pub offchip: NodeId,
    /// The on-chip buffer filled (TileLd) or drained (TileSt).
    pub local: NodeId,
    /// Offset value nodes, one per off-chip dimension (constants or
    /// enclosing-controller iterators).
    pub offsets: Ids,
    /// Tile extent per off-chip dimension, in elements.
    pub tile: Extents,
    /// Parallelization factor of the on-chip write/read port.
    pub par: u32,
}

impl TileSpec {
    /// Number of elements moved by one execution of the transfer.
    pub fn elements(&self) -> u64 {
        self.tile.iter().product()
    }
}

/// The template a node instantiates (Table I).
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// A compile-time scalar constant.
    Const(f64),
    /// A primitive vector operation.
    Prim {
        /// Operation code.
        op: PrimOp,
        /// Operand nodes.
        inputs: Ids,
    },
    /// A 2:1 multiplexer.
    Mux {
        /// Select input (boolean).
        sel: NodeId,
        /// Value produced when `sel` is true.
        if_true: NodeId,
        /// Value produced when `sel` is false.
        if_false: NodeId,
    },
    /// Load from an on-chip memory.
    Load {
        /// The memory node (Bram, Reg or PriorityQueue).
        mem: NodeId,
        /// Address nodes, one per memory dimension (empty for Reg).
        addr: Ids,
    },
    /// Store to an on-chip memory.
    Store {
        /// The memory node.
        mem: NodeId,
        /// Address nodes, one per memory dimension (empty for Reg).
        addr: Ids,
        /// Value node.
        value: NodeId,
    },
    /// A loop iterator value produced by a controller's counter chain.
    Iter {
        /// The controller owning the counter chain.
        ctrl: NodeId,
        /// Which chain dimension this iterator reads.
        dim: usize,
    },
    /// An N-dimensional off-chip memory region (`OffChipMem`).
    OffChip {
        /// Dimensions in elements.
        dims: Extents,
    },
    /// On-chip scratchpad memory (`BRAM`).
    Bram(BramSpec),
    /// Non-pipeline register (`Reg`).
    Reg(RegSpec),
    /// Hardware sorting queue (`Priority Queue`).
    PriorityQueue(QueueSpec),
    /// Innermost dataflow pipeline of primitives (`Pipe`).
    Pipe(PipeSpec),
    /// Coarse-grained pipeline of controllers (`MetaPipe`).
    MetaPipe(OuterSpec),
    /// Unpipelined sequential execution of controllers (`Sequential`).
    Sequential(OuterSpec),
    /// Fork-join parallel container with a synchronizing barrier (`Parallel`).
    ParallelCtrl {
        /// Concurrent child controllers.
        stages: Ids,
        /// Memories declared in this scope.
        locals: Ids,
    },
    /// Load a tile of data from an off-chip array (`TileLd`).
    TileLoad(TileSpec),
    /// Store a tile of data to an off-chip array (`TileSt`).
    TileStore(TileSpec),
}

impl NodeKind {
    /// Whether the node is a controller (schedulable stage).
    pub fn is_controller(&self) -> bool {
        matches!(
            self,
            NodeKind::Pipe(_)
                | NodeKind::MetaPipe(_)
                | NodeKind::Sequential(_)
                | NodeKind::ParallelCtrl { .. }
                | NodeKind::TileLoad(_)
                | NodeKind::TileStore(_)
        )
    }

    /// Whether the node is an on-chip memory.
    pub fn is_onchip_mem(&self) -> bool {
        matches!(
            self,
            NodeKind::Bram(_) | NodeKind::Reg(_) | NodeKind::PriorityQueue(_)
        )
    }

    /// Whether the node is a primitive dataflow node (lives in Pipe bodies).
    pub fn is_primitive(&self) -> bool {
        matches!(
            self,
            NodeKind::Const(_)
                | NodeKind::Prim { .. }
                | NodeKind::Mux { .. }
                | NodeKind::Load { .. }
                | NodeKind::Store { .. }
        )
    }

    /// Short template name for diagnostics and codegen.
    pub fn template_name(&self) -> &'static str {
        match self {
            NodeKind::Const(_) => "Const",
            NodeKind::Prim { .. } => "Prim",
            NodeKind::Mux { .. } => "Mux",
            NodeKind::Load { .. } => "Ld",
            NodeKind::Store { .. } => "St",
            NodeKind::Iter { .. } => "Iter",
            NodeKind::OffChip { .. } => "OffChipMem",
            NodeKind::Bram(_) => "BRAM",
            NodeKind::Reg(_) => "Reg",
            NodeKind::PriorityQueue(_) => "PriorityQueue",
            NodeKind::Pipe(_) => "Pipe",
            NodeKind::MetaPipe(_) => "MetaPipe",
            NodeKind::Sequential(_) => "Sequential",
            NodeKind::ParallelCtrl { .. } => "Parallel",
            NodeKind::TileLoad(_) => "TileLd",
            NodeKind::TileStore(_) => "TileSt",
        }
    }
}

/// A node of the DHDL graph: a template instance plus its element type,
/// vector width and optional debug name.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    /// The template this node instantiates.
    pub kind: NodeKind,
    /// Element type of the value produced/stored.
    pub ty: DType,
    /// Vector width of the node (primitives) — scalar operations have
    /// width 1 (§III-B1).
    pub width: u32,
    /// Optional debug name.
    pub name: Option<ShortStr>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_trip_counts() {
        assert_eq!(by(96, 1).trip_count(), 96);
        assert_eq!(by(100, 10).trip_count(), 10);
        assert_eq!(by(101, 10).trip_count(), 11);
        assert_eq!(by(5, 0).trip_count(), 0);
    }

    #[test]
    fn chain_total() {
        let c = CounterChain::new(&[by(4, 1), by(6, 2)]);
        assert_eq!(c.total_iters(), 12);
        assert!(CounterChain::unit().is_unit());
        assert_eq!(CounterChain::unit().total_iters(), 1);
    }

    #[test]
    fn prim_arity() {
        assert_eq!(PrimOp::Add.arity(), 2);
        assert_eq!(PrimOp::Sqrt.arity(), 1);
        assert!(PrimOp::Exp.is_complex());
        assert!(!PrimOp::Add.is_complex());
        assert!(PrimOp::Lt.is_predicate());
        for &op in PrimOp::all() {
            assert_eq!(op.name(), format!("{op:?}"));
            assert_eq!(PrimOp::from_name(op.name()), Some(op));
        }
        assert_eq!(PrimOp::from_name("add"), None);
    }

    #[test]
    fn reduce_identities() {
        assert_eq!(ReduceOp::Add.identity(), 0.0);
        assert_eq!(ReduceOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Min.apply(2.0, 3.0), 2.0);
        assert_eq!(ReduceOp::Max.apply(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.identity(), f64::INFINITY);
        for op in [ReduceOp::Add, ReduceOp::Min, ReduceOp::Max] {
            assert_eq!(op.name(), format!("{op:?}"));
            assert_eq!(ReduceOp::from_name(op.name()), Some(op));
        }
        assert_eq!(ReduceOp::from_name("Mul"), None);
    }

    #[test]
    fn kind_classification() {
        let k = NodeKind::Const(1.0);
        assert!(k.is_primitive());
        assert!(!k.is_controller());
        let b = NodeKind::Bram(BramSpec {
            dims: [16].into(),
            double_buf: false,
            banks: 1,
            word_width: 32,
            interleave: Interleaving::Cyclic,
        });
        assert!(b.is_onchip_mem());
        assert_eq!(b.template_name(), "BRAM");
    }

    #[test]
    fn all_prim_ops_have_consistent_arity() {
        for &op in PrimOp::all() {
            assert!(op.arity() == 1 || op.arity() == 2, "{op}");
        }
    }
}
