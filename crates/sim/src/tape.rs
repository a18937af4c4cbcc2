//! The compiled program: a control tape, pipe-body kernels and their
//! executor.
//!
//! [`mod@crate::compile`] lowers an elaborated design once into a flat
//! `Vec<Instr>` over arena slots (see [`crate::arena`]). The tape itself
//! is control and bulk memory only: loops become `LoopStart`/`LoopEnd`
//! pairs driven by a counter stack, outer iterators are decoded from the
//! counters, and fold/reduce resets and tile transfers are one
//! instruction each. Every pipe body — the whole data path — is stated
//! exactly once, as the [`KOp`] micro-ops of the [`Kernel`] that stands
//! for the pipe's innermost loop.
//!
//! One executor, [`Kernel::run`], evaluates a kernel in blocks of `W`
//! iterations, micro-op by micro-op. The compiler's hazard analysis
//! picks `W`: [`LANES`] when evaluating a block lane-major is provably
//! unobservable, 1 otherwise. At width 1 a block *is* an iteration, so
//! block order is iteration order and the kernel is exact for any body —
//! recurrences, scatters and queue traffic included — because every op
//! writes its value through to its arena slot, where the next iteration
//! finds it.
//!
//! Decided **per compile**: the ops, their operands and slots, the block
//! width, each access's stride, and two claims per op the executor
//! checks in debug builds rather than trusts — [`KOp::quant`] (can
//! quantizing the result change it?) and [`KOp::uniform`] (can it differ
//! between the lanes of a block?). **Per run**: one lane vector per op
//! of the widest blocked kernel, owned by [`Tape::execute`]; no kernel
//! call allocates or zeroes anything. **Per block**: each op once, its
//! operands *borrowed* from the lane vectors of the ops that produced
//! them (a slot operand is splatted into a scratch vector). Arithmetic
//! covers the whole fixed-width vector so it unrolls and vectorizes —
//! lanes past the block's live count hold stale values nothing reads —
//! while loads, stores, the reduction and the write-through honour the
//! live count. A uniform op is evaluated for lane 0 and splatted; an
//! affine in-bounds access is one slice copy at stride 1, one read at 0.
//!
//! The executor is *bit-identical* to the interpreter by construction:
//! per lane, every micro-op replicates the f64 operation order and
//! quantization points of the corresponding `Step` arm of the
//! interpreter's `exec`, and structural errors the interpreter would
//! raise mid-run are compiled to [`Instr::Abort`] at the exact position
//! where the interpreter would first discover them. Executing touches
//! no `HashMap`s, walks no graph and clones no `NodeKind`s.

use dhdl_core::{DType, NodeId, PrimOp, ReduceOp};

use crate::error::{Result, SimError};
use crate::interp::apply_prim;

/// A compiled tile-transfer descriptor (one per `TileLoad`/`TileStore`
/// site). Offsets are read from the arena at runtime; everything else is
/// static.
#[derive(Debug, Clone)]
pub(crate) struct TileDesc {
    /// Arena base of the off-chip array.
    pub offchip_base: usize,
    /// The off-chip node (for error payloads).
    pub offchip: NodeId,
    /// Off-chip array dimensions.
    pub dims: Vec<u64>,
    /// Suffix-product strides of `dims` (`strides[d] = Π dims[d+1..]`).
    pub strides: Vec<u64>,
    /// Arena base of the on-chip buffer.
    pub local_base: usize,
    /// On-chip buffer length in elements.
    pub local_len: usize,
    /// Tile extent per dimension.
    pub tile: Vec<u64>,
    /// Product of `tile` extents.
    pub tile_elems: u64,
    /// Arena slots holding the per-dimension offsets.
    pub offsets: Vec<usize>,
    /// `true` for a load (off-chip → on-chip), `false` for a store.
    pub load: bool,
}
/// One instruction of the control tape. Control flow, bulk memory and
/// [`Instr::Kernel`] only: a pipe body's data path lives in its kernel's
/// [`KOp`]s and nowhere else (pinned by a unit test below).
#[derive(Debug, Clone)]
pub(crate) enum Instr {
    /// Fill `len` slots from `base` with a raw value (fold/reduce
    /// identity resets — unquantized, as in the interpreter).
    Fill {
        /// First slot.
        base: usize,
        /// Slot count.
        len: usize,
        /// Raw fill value.
        val: f64,
    },
    /// Element-wise fold of one buffer into an accumulator buffer.
    Fold {
        /// Source buffer base.
        src: usize,
        /// Accumulator buffer base.
        acc: usize,
        /// Elements combined (`min` of the two lengths).
        len: usize,
        /// Combining operator.
        op: ReduceOp,
        /// Accumulator type.
        ty: DType,
    },
    /// Execute the tile transfer described by `tiles[idx]`.
    Tile(usize),
    /// Enter a counted loop (`trips >= 1`; zero-trip loops compile to
    /// `Abort`).
    LoopStart {
        /// Iteration count.
        trips: u64,
    },
    /// Close the innermost loop: jump back while iterations remain.
    LoopEnd,
    /// Bind an outer controller's iterator slot from its loop counter:
    /// `arena[dst] = ((counter / div) % modu * step) as f64`.
    Iter {
        /// Destination slot.
        dst: usize,
        /// Loop-stack depth of the driving counter.
        depth: usize,
        /// Divisor (suffix trip product of the linearized loop).
        div: u64,
        /// Modulus (the dimension's trip count).
        modu: u64,
        /// Counter step.
        step: u64,
    },
    /// Execute the pipe loop `kernels[idx]`: the pipe's innermost
    /// dimension with its whole body (enclosing pipe dimensions are
    /// `LoopStart`/`LoopEnd` pairs around it).
    Kernel(usize),
    /// Raise `errors[idx]` — a structural error the interpreter would
    /// discover at this execution position.
    Abort(usize),
}

/// Iterations per block of a blocked kernel: a micro-op is dispatched
/// once per block and its arithmetic is one fixed-width loop over
/// `[f64; LANES]`. 16 and 64 both measured slower overall (more
/// dispatches; less of a 48- or 96-trip loop in whole blocks).
const LANES: usize = 32;

/// Operand of a micro-op: the scratch slot of the operand node, and —
/// when an earlier micro-op of the body produced it this iteration —
/// that op's index.
///
/// Every op writes through to its slot, so at width 1 `arena[slot]` is
/// always the value the interpreter's `vals` read would return; `lane`
/// is what a blocked kernel reads instead: the producing op's lane
/// vector, borrowed where it lies. With no `lane` the slot is read as is
/// (splatted for a block): loop-invariant if no op of the body writes
/// it, loop-carried if a later one does — so such a body never blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct KSrc {
    /// Arena slot of the operand node.
    pub slot: usize,
    /// Index of the micro-op that produced it this iteration, if any.
    pub lane: Option<usize>,
}

/// The address half of a body memory access.
#[derive(Debug, Clone)]
pub(crate) struct Access {
    /// Arena base of the memory.
    pub base: usize,
    /// Address terms `(source, dim)`: `idx = idx * dim + value` per term,
    /// the interpreter's exact arithmetic. Empty for a register.
    pub terms: Vec<(KSrc, u64)>,
    /// Flattened memory size (for the bounds check).
    pub size: u64,
    /// Memory node (for error payloads).
    pub mem: NodeId,
    /// Linear coefficient of the address in the innermost counter, when
    /// the compiler could prove it affine (see `compile::stride_of`).
    pub stride: Option<i64>,
}

/// One micro-op of a pipe body, evaluated for a whole block of
/// iterations ("lanes") at a time: compute, quantize at `ty`, write the
/// block's last lane through to `dst` — the shape of a `Step` arm of
/// the interpreter's `exec`. After any block the arena therefore holds
/// what the interpreter's `vals` would after that iteration.
#[derive(Debug, Clone)]
pub(crate) struct KOp {
    /// The scratch slot of the op's design node (`Reduce`: the
    /// accumulator it updates in place).
    pub dst: usize,
    /// The type the result is quantized at: the node's. `F64`, the
    /// identity, for iterators (the interpreter binds them raw) and for
    /// `Reduce` (which quantizes inside its chain).
    pub ty: DType,
    /// What it computes.
    pub kind: KKind,
    /// `false` where the compiler proved quantizing at `ty` the identity
    /// (`compile::Body::push`): the executor skips it, and in debug
    /// builds re-quantizes and requires equal bits.
    pub quant: bool,
    /// `true` where no operand can differ between the iterations of one
    /// kernel call: a blocked kernel evaluates lane 0 and splats, and in
    /// debug builds evaluates every live lane and requires equal bits.
    pub uniform: bool,
}

/// What a [`KOp`] computes.
#[derive(Debug, Clone)]
pub(crate) enum KKind {
    /// Innermost-loop iterator: lane `l` holds `((c0 + l) * step) as f64`.
    Lin {
        /// Counter step.
        step: u64,
    },
    /// Iterator of an enclosing pipe dimension — constant across the
    /// kernel's loop.
    Outer {
        /// Loop-stack depth of the driving counter.
        depth: usize,
        /// Counter step.
        step: u64,
    },
    /// Binary primitive.
    Bin {
        /// The operation.
        op: PrimOp,
        /// Left operand.
        a: KSrc,
        /// Right operand.
        b: KSrc,
    },
    /// Unary primitive: second operand fixed at `0.0`, as in the
    /// interpreter. (Its own variant, not an optional `b`: that branch
    /// in the hottest arm cost tpchq6 and kmeans 5-10 %.)
    Un {
        /// The operation.
        op: PrimOp,
        /// Operand.
        a: KSrc,
    },
    /// 2:1 multiplexer.
    Mux {
        /// Select operand.
        sel: KSrc,
        /// Operand when select is nonzero.
        t: KSrc,
        /// Operand when select is zero.
        f: KSrc,
    },
    /// Re-quantization of `dst` in place (an `Iter` node appearing in a
    /// pipe body, which the interpreter passes back through
    /// `ty.quantize`).
    Requant {
        /// Current value of the slot.
        a: KSrc,
    },
    /// Bounds-checked memory read.
    Load {
        /// Where.
        at: Access,
    },
    /// Bounds-checked memory write (also forwards the raw value to the
    /// store node's own slot at the node's type, like the interpreter's
    /// `Step::Store`).
    Store {
        /// Where.
        at: Access,
        /// Value operand.
        val: KSrc,
        /// The memory's element type.
        mem_ty: DType,
    },
    /// Pop the minimum element of a priority queue (`0.0` when empty).
    /// Width 1 only.
    QPop {
        /// Queue index.
        q: usize,
    },
    /// Push a value into a priority queue. Width 1 only.
    QPush {
        /// Queue index.
        q: usize,
        /// Value operand.
        val: KSrc,
        /// The queue's element type.
        mem_ty: DType,
    },
    /// One step per lane of the pipe's register reduction into `dst`
    /// (element 0 of the reduce register) — loop-carried, so evaluated
    /// in lane order, preserving the interpreter's exact accumulation
    /// chain.
    Reduce {
        /// Operand.
        val: KSrc,
        /// Combining operator.
        op: ReduceOp,
        /// Accumulator type.
        ty: DType,
    },
}

impl KKind {
    /// Whether any operand of this micro-op satisfies `f`.
    pub fn any_src(&self, f: impl Fn(KSrc) -> bool) -> bool {
        match self {
            KKind::Lin { .. } | KKind::Outer { .. } | KKind::QPop { .. } => false,
            KKind::Un { a, .. } | KKind::Requant { a } => f(*a),
            KKind::QPush { val, .. } | KKind::Reduce { val, .. } => f(*val),
            KKind::Bin { a, b, .. } => f(*a) || f(*b),
            KKind::Mux { sel, t, f: e } => f(*sel) || f(*t) || f(*e),
            KKind::Load { at } => at.terms.iter().any(|t| f(t.0)),
            KKind::Store { at, val, .. } => f(*val) || at.terms.iter().any(|t| f(t.0)),
        }
    }
}

/// A pipe's innermost loop and whole body.
#[derive(Debug, Clone)]
pub(crate) struct Kernel {
    /// Iteration count of the loop.
    pub trips: u64,
    /// The body as micro-ops in the interpreter's evaluation order.
    pub ops: Vec<KOp>,
    /// Block width chosen by `compile::lane_major_unobservable`:
    /// [`LANES`] when set, 1 otherwise.
    pub blocked: bool,
}

/// One live loop on the executor's counter stack.
struct Frame {
    body: usize,
    counter: u64,
    trips: u64,
}

/// The flat program: control tape plus its constant pools.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tape {
    /// The instructions.
    pub instrs: Vec<Instr>,
    /// Tile descriptors referenced by `Tile`.
    pub tiles: Vec<TileDesc>,
    /// Pipe loops referenced by `Kernel`.
    pub kernels: Vec<Kernel>,
    /// Error pool referenced by `Abort`.
    pub errors: Vec<SimError>,
}

/// Lane `l` of an operand: its producer's lane in a blocked kernel, its
/// slot — current through write-through — at width 1 or when nothing in
/// the body produced it.
#[inline]
fn get<const W: usize>(lanes: &[[f64; W]], arena: &[f64], src: KSrc, l: usize) -> f64 {
    match src.lane {
        Some(i) if W > 1 => lanes[i][l],
        _ => arena[src.slot],
    }
}

/// An operand's block, borrowed: the producing op's lane vector where it
/// lies, or the arena slot splatted into `tmp` (constant across the
/// block: at width 1 trivially, in a blocked kernel because no micro-op
/// writes it and memory regions are disjoint from node slots). Keeps the
/// per-lane loops below free of source dispatch so they vectorize.
#[inline]
fn operand<'a, const W: usize>(
    lanes: &'a [[f64; W]],
    arena: &[f64],
    src: KSrc,
    tmp: &'a mut [f64; W],
) -> &'a [f64; W] {
    match src.lane {
        Some(i) if W > 1 => &lanes[i],
        _ => {
            *tmp = [arena[src.slot]; W];
            tmp
        }
    }
}

/// Flattened address of lane `l`, with the interpreter's exact term
/// arithmetic.
#[inline]
fn addr_at<const W: usize>(
    lanes: &[[f64; W]],
    arena: &[f64],
    terms: &[(KSrc, u64)],
    l: usize,
) -> i64 {
    let mut idx = 0i64;
    for &(src, dim) in terms {
        idx = idx * dim as i64 + get(lanes, arena, src, l) as i64;
    }
    idx
}

/// Lane-wise primitive evaluation: one operation dispatch per block.
/// Everything the hardware does in one instruction is written out over
/// the whole fixed-width vector (lanes from `live` up compute on stale
/// values nothing reads), so LLVM unrolls and vectorizes it; the libm
/// calls and `Rem` stop at `live`.
#[inline]
fn bin_block<const W: usize>(
    op: PrimOp,
    a: &[f64; W],
    b: &[f64; W],
    out: &mut [f64; W],
    live: usize,
) {
    macro_rules! lanewise {
        ($n:expr, $f:expr) => {
            for l in 0..$n {
                out[l] = $f(a[l], b[l]);
            }
        };
    }
    match op {
        PrimOp::Add => lanewise!(W, |x: f64, y: f64| x + y),
        PrimOp::Sub => lanewise!(W, |x: f64, y: f64| x - y),
        PrimOp::Mul => lanewise!(W, |x: f64, y: f64| x * y),
        PrimOp::Div => lanewise!(W, |x: f64, y: f64| x / y),
        PrimOp::Lt => lanewise!(W, |x: f64, y: f64| f64::from(x < y)),
        PrimOp::Le => lanewise!(W, |x: f64, y: f64| f64::from(x <= y)),
        PrimOp::Gt => lanewise!(W, |x: f64, y: f64| f64::from(x > y)),
        PrimOp::Ge => lanewise!(W, |x: f64, y: f64| f64::from(x >= y)),
        PrimOp::Eq => lanewise!(W, |x: f64, y: f64| f64::from(x == y)),
        PrimOp::Ne => lanewise!(W, |x: f64, y: f64| f64::from(x != y)),
        // (`&`/`|`, not `&&`/`||`: same truth table, no branch per lane.)
        PrimOp::And => lanewise!(W, |x: f64, y: f64| f64::from((x != 0.0) & (y != 0.0))),
        PrimOp::Or => lanewise!(W, |x: f64, y: f64| f64::from((x != 0.0) | (y != 0.0))),
        PrimOp::Not => lanewise!(W, |x: f64, _: f64| f64::from(x == 0.0)),
        PrimOp::Min => lanewise!(W, |x: f64, y: f64| x.min(y)),
        PrimOp::Max => lanewise!(W, |x: f64, y: f64| x.max(y)),
        PrimOp::Neg => lanewise!(W, |x: f64, _: f64| -x),
        PrimOp::Abs => lanewise!(W, |x: f64, _: f64| x.abs()),
        PrimOp::Sqrt => lanewise!(W, |x: f64, _: f64| x.sqrt()),
        // exp/ln dominate softmax and blackscholes inner loops: batching
        // them here hoists the op dispatch out of the lane loop while
        // making the exact libm calls apply_prim makes, so results stay
        // bit-identical per lane.
        PrimOp::Exp => lanewise!(live, |x: f64, _: f64| x.exp()),
        PrimOp::Ln => lanewise!(live, |x: f64, _: f64| x.ln()),
        PrimOp::Rem => lanewise!(live, |x, y| apply_prim(op, x, y)),
    }
}

/// Lane-wise quantization: one type dispatch per block. The casts run
/// over the whole vector; fixed point stops at `live`.
#[inline]
fn quantize_block<const W: usize>(ty: DType, out: &mut [f64; W], live: usize) {
    match ty {
        DType::F64 => {}
        DType::F32 => {
            for o in out.iter_mut() {
                *o = *o as f32 as f64;
            }
        }
        DType::Bool => {
            for o in out.iter_mut() {
                *o = f64::from(*o != 0.0);
            }
        }
        fix => {
            for o in &mut out[..live] {
                *o = fix.quantize(*o);
            }
        }
    }
}

/// Whether quantizing `x` at `ty` leaves its bits alone (what a
/// `quant == false` op claims of every value it produces).
fn idle(ty: DType, x: f64) -> bool {
    ty.quantize(x).to_bits() == x.to_bits()
}

/// Earliest out-of-bounds access of a block, ordered by (lane, op
/// position) — the interpreter's discovery order.
type FirstOob = Option<(usize, usize, SimError)>;

fn note_oob(err: &mut FirstOob, l: usize, j: usize, at: &Access, index: i64) {
    if err.as_ref().map_or(true, |(el, ej, _)| (l, j) < (*el, *ej)) {
        let (mem, size) = (at.mem, at.size);
        *err = Some((l, j, SimError::OutOfBounds { mem, index, size }));
    }
}

/// `(arena index of lane 0, stride)` of a `b`-lane block of accesses at
/// `at` when the address is affine in the lane index and both endpoints
/// are in bounds — then every lane is, and the block needs no per-lane
/// checks. `None` (always, at width 1) falls back to the exact per-lane
/// walk.
fn affine_block<const W: usize>(
    prev: &[[f64; W]],
    arena: &[f64],
    at: &Access,
    b: usize,
) -> Option<(usize, i64)> {
    if W == 1 {
        return None;
    }
    let s = at.stride?;
    let idx0 = addr_at(prev, arena, &at.terms, 0);
    let last = idx0.checked_add(s.checked_mul(b as i64 - 1)?)?;
    if idx0 < 0 || last < 0 || idx0 as u64 >= at.size || last as u64 >= at.size {
        return None;
    }
    // The stride is the compiler's claim; the terms are the definition.
    debug_assert!((0..b).all(|l| addr_at(prev, arena, &at.terms, l) == idx0 + l as i64 * s));
    Some((at.base + idx0 as usize, s))
}

/// Write `q[..b]` to a block's addresses at `at`: one slice copy when
/// they are consecutive and in bounds, lane by lane otherwise.
#[inline]
fn store_block<const W: usize>(
    prev: &[[f64; W]],
    arena: &mut [f64],
    at: &Access,
    q: &[f64; W],
    b: usize,
    j: usize,
    err: &mut FirstOob,
) {
    match affine_block(prev, arena, at, b) {
        Some((first, 1)) => arena[first..first + b].copy_from_slice(&q[..b]),
        Some((first, s)) => {
            for (l, &x) in q[..b].iter().enumerate() {
                arena[(first as i64 + l as i64 * s) as usize] = x;
            }
        }
        None => {
            for (l, &x) in q[..b].iter().enumerate() {
                let idx = addr_at(prev, arena, &at.terms, l);
                if idx < 0 || idx as u64 >= at.size {
                    note_oob(err, l, j, at, idx);
                } else {
                    arena[at.base + idx as usize] = x;
                }
            }
        }
    }
}

/// Lane `l` of an op that may be [`KOp::uniform`], unquantized, as
/// `apply_prim` and the per-lane address walk compute it. `Err` is a
/// load's out-of-bounds access.
fn scalar<'k, const W: usize>(
    kind: &'k KKind,
    frames: &[Frame],
    prev: &[[f64; W]],
    arena: &[f64],
    l: usize,
) -> std::result::Result<f64, (&'k Access, i64)> {
    let get = |src| get(prev, arena, src, l);
    Ok(match kind {
        KKind::Outer { depth, step } => (frames[*depth].counter * step) as f64,
        KKind::Bin { op, a, b } => apply_prim(*op, get(*a), get(*b)),
        KKind::Un { op, a } => apply_prim(*op, get(*a), 0.0),
        KKind::Mux { sel, t, f } => get(if get(*sel) != 0.0 { *t } else { *f }),
        KKind::Load { at } => {
            let idx = addr_at(prev, arena, &at.terms, l);
            if idx < 0 || idx as u64 >= at.size {
                return Err((at, idx));
            }
            arena[at.base + idx as usize]
        }
        _ => unreachable!("compile marks no other kind uniform"),
    })
}

/// `Reduce { Add, F32 }` over a block: `a = (a + x) as f32 as f64` per
/// value, in lane order. When the accumulator and every value already
/// are `f32`s the chain runs in `f32` — the `f32` sum of two `f32`s *is*
/// their `f64` sum rounded to `f32` (53 >= 2 * 24 + 2 bits: the double
/// rounding is innocuous) — and the dependent path loses two conversions
/// a step. Anything else (an `F64`-typed value, a NaN whose payload `f32`
/// cannot hold) takes the chain as written.
#[inline]
fn sum_f32<const W: usize>(a: f64, v: &[f64; W], live: usize) -> f64 {
    let chain = || v[..live].iter().fold(a, |a, &x| (a + x) as f32 as f64);
    let is_f32 = |x: f64| idle(DType::F32, x);
    if W == 1 || !v[..live].iter().fold(is_f32(a), |ok, &x| ok & is_f32(x)) {
        return chain();
    }
    let sum = v[..live].iter().fold(a as f32, |s, &x| s + x as f32);
    debug_assert_eq!(f64::from(sum).to_bits(), chain().to_bits(), "f32 reduce");
    f64::from(sum)
}

impl Kernel {
    /// Execute the loop in blocks of `W` iterations (`W` is [`LANES`] or
    /// 1, per [`Kernel::blocked`]). `lanes` is one vector per micro-op,
    /// lent by [`Tape::execute`] and left as it falls; width 1 has none,
    /// every operand being read from its written-through slot.
    ///
    /// Per lane, every micro-op performs exactly the f64 operations of
    /// the interpreter's `exec` `Step` arm. Within a block the ops run
    /// lane-major, which the compiler proved unobservable before
    /// choosing a width above 1; at width 1 it is the interpreter's
    /// order. Out-of-bounds accesses are collected per block and the
    /// first by (iteration, op position) is raised — the one the
    /// interpreter would hit first. Each op writes the block's last lane
    /// through to its slot, so the next iteration's reads (width 1) and
    /// any instruction after the loop observe the interpreter's state.
    ///
    /// Kept out of line: with both widths inlined into `execute`, one
    /// function holds two copies of every arm and its register
    /// allocation costs width-1 kernels ~4 % (kmeans, paired runs).
    #[inline(never)]
    fn run<const W: usize>(
        &self,
        frames: &[Frame],
        arena: &mut [f64],
        queues: &mut [Vec<f64>],
        lanes: &mut [[f64; W]],
    ) -> Result<()> {
        let mut one = [0.0f64; W];
        // Where slot operands are splatted (a mux has three).
        let (mut ta, mut tb, mut tc) = ([0.0f64; W], [0.0f64; W], [0.0f64; W]);
        // `base + l * step` in f64 is exact while the counter stays under
        // 2^53; width 1 keeps the integer form (the float one cost
        // kmeans ~3 %).
        let lin_in_f64 =
            |step: u64| W > 1 && self.trips.checked_mul(step).is_some_and(|m| m < 1 << 53);
        let mut c0 = 0u64;
        while c0 < self.trips {
            // Lanes in this block (spelled out for width 1 so it folds).
            let b = if W > 1 {
                ((self.trips - c0) as usize).min(W)
            } else {
                1
            };
            let mut err: FirstOob = None;
            for (j, kop) in self.ops.iter().enumerate() {
                // `lane` operands only ever reference earlier micro-ops,
                // so `prev` holds every readable lane vector and `out`
                // is this op's own.
                let (prev, out): (&[[f64; W]], &mut [f64; W]) = if W > 1 {
                    let (prev, rest) = lanes.split_at_mut(j);
                    (prev, &mut rest[0])
                } else {
                    (&[], &mut one)
                };
                if W > 1 && kop.uniform {
                    match scalar(&kop.kind, frames, prev, arena, 0) {
                        Ok(raw) => {
                            debug_assert!(
                                err.is_some()
                                    || (1..b).all(|l| scalar(&kop.kind, frames, prev, arena, l)
                                        .is_ok_and(|x| x.to_bits() == raw.to_bits())),
                                "op {j} is marked uniform and differs between lanes"
                            );
                            let v = if kop.quant { kop.ty.quantize(raw) } else { raw };
                            debug_assert!(kop.quant || err.is_some() || idle(kop.ty, v));
                            out.fill(v);
                            arena[kop.dst] = v;
                        }
                        // Every lane leaves the memory; iteration 0 is
                        // the first the interpreter would see do so.
                        Err((at, idx)) => {
                            note_oob(&mut err, 0, j, at, idx);
                            out.fill(0.0);
                        }
                    }
                    continue;
                }
                match &kop.kind {
                    KKind::Lin { step } if lin_in_f64(*step) => {
                        let (base, step) = ((c0 * step) as f64, *step as f64);
                        for (l, o) in out.iter_mut().enumerate() {
                            *o = base + l as f64 * step;
                        }
                    }
                    KKind::Lin { step } => {
                        for (l, o) in out[..b].iter_mut().enumerate() {
                            *o = ((c0 + l as u64) * step) as f64;
                        }
                    }
                    KKind::Outer { depth, step } => {
                        out.fill((frames[*depth].counter * step) as f64);
                    }
                    KKind::Bin { op, a, b: bb } => {
                        let va = operand(prev, arena, *a, &mut ta);
                        let vb = operand(prev, arena, *bb, &mut tb);
                        bin_block(*op, va, vb, out, b);
                    }
                    KKind::Un { op, a } => {
                        let va = operand(prev, arena, *a, &mut ta);
                        bin_block(*op, va, &[0.0; W], out, b);
                    }
                    KKind::Mux { sel, t, f } => {
                        let vs = operand(prev, arena, *sel, &mut ta);
                        let vt = operand(prev, arena, *t, &mut tb);
                        let vf = operand(prev, arena, *f, &mut tc);
                        for l in 0..W {
                            out[l] = if vs[l] != 0.0 { vt[l] } else { vf[l] };
                        }
                    }
                    KKind::Requant { a } => {
                        *out = *operand(prev, arena, *a, &mut ta);
                    }
                    KKind::Load { at } => match affine_block(prev, arena, at, b) {
                        Some((first, 1)) => out[..b].copy_from_slice(&arena[first..first + b]),
                        Some((first, 0)) => out.fill(arena[first]),
                        Some((first, s)) => {
                            for (l, o) in out[..b].iter_mut().enumerate() {
                                *o = arena[(first as i64 + l as i64 * s) as usize];
                            }
                        }
                        None => {
                            for (l, o) in out[..b].iter_mut().enumerate() {
                                let idx = addr_at(prev, arena, &at.terms, l);
                                if idx < 0 || idx as u64 >= at.size {
                                    // The block raises before anything
                                    // observable reads the lane; until
                                    // then it holds zero, not what some
                                    // earlier kernel left there.
                                    note_oob(&mut err, l, j, at, idx);
                                    *o = 0.0;
                                } else {
                                    *o = arena[at.base + idx as usize];
                                }
                            }
                        }
                    },
                    KKind::Store { at, val, mem_ty } => {
                        let v = operand(prev, arena, *val, &mut ta);
                        // The memory receives the value at the memory's
                        // type: the value itself when it already is at
                        // the node's type and the two are one.
                        if !kop.quant && *mem_ty == kop.ty {
                            store_block(prev, arena, at, v, b, j, &mut err);
                        } else {
                            tb = *v;
                            quantize_block(*mem_ty, &mut tb, b);
                            store_block(prev, arena, at, &tb, b, j, &mut err);
                        }
                        *out = *v;
                    }
                    KKind::QPop { q } => {
                        debug_assert!(W == 1, "queue ops are never blocked");
                        let queue = &mut queues[*q];
                        // total_cmp, as in the interpreter: NaN sorts
                        // last instead of panicking the comparator.
                        let min = queue
                            .iter()
                            .enumerate()
                            .min_by(|a, b| a.1.total_cmp(b.1))
                            .map(|(mi, _)| mi);
                        out[0] = min.map_or(0.0, |mi| queue.remove(mi));
                    }
                    KKind::QPush { q, val, mem_ty } => {
                        debug_assert!(W == 1, "queue ops are never blocked");
                        out[0] = get(prev, arena, *val, 0);
                        queues[*q].push(mem_ty.quantize(out[0]));
                    }
                    KKind::Reduce { val, op, ty } => {
                        let v = operand(prev, arena, *val, &mut ta);
                        let mut a = arena[kop.dst];
                        match (op, ty) {
                            (ReduceOp::Add, DType::F32) => a = sum_f32(a, v, b),
                            (ReduceOp::Add, DType::F64) => {
                                for &x in &v[..b] {
                                    a += x;
                                }
                            }
                            _ => {
                                for &x in &v[..b] {
                                    a = ty.quantize(op.apply(a, x));
                                }
                            }
                        }
                        out[b - 1] = a;
                    }
                }
                if kop.quant {
                    quantize_block(kop.ty, out, b);
                } else {
                    debug_assert!(
                        err.is_some() || out[..b].iter().all(|&x| idle(kop.ty, x)),
                        "op {j} is marked as needing no quantization at {} and does",
                        kop.ty
                    );
                }
                arena[kop.dst] = out[b - 1];
            }
            if let Some((_, _, e)) = err {
                return Err(e);
            }
            c0 += b as u64;
        }
        Ok(())
    }
}

/// `acc[i] = quantize(op(acc[i], src[i]))`, operator and type matched
/// once for the whole buffer.
fn fold_into(acc: &mut [f64], src: &[f64], op: ReduceOp, ty: DType) {
    let pairs = acc.iter_mut().zip(src);
    match (op, ty) {
        (ReduceOp::Add, DType::F32) => pairs.for_each(|(a, &s)| *a = (*a + s) as f32 as f64),
        (ReduceOp::Add, DType::F64) => pairs.for_each(|(a, &s)| *a += s),
        _ => pairs.for_each(|(a, &s)| *a = ty.quantize(op.apply(*a, s))),
    }
}

impl Tape {
    /// Run the tape to completion over `arena` and `queues`; `serial`
    /// holds every kernel at width 1 (see `Compiled::run_serial`).
    pub fn execute(&self, arena: &mut [f64], queues: &mut [Vec<f64>], serial: bool) -> Result<()> {
        let mut ip = 0usize;
        let mut frames: Vec<Frame> = Vec::with_capacity(16);
        // One lane vector per op of the widest blocked kernel so far.
        let mut lanes: Vec<[f64; LANES]> = Vec::new();
        while ip < self.instrs.len() {
            match &self.instrs[ip] {
                Instr::Fill { base, len, val } => {
                    for slot in &mut arena[*base..base + len] {
                        *slot = *val;
                    }
                }
                Instr::Fold {
                    src,
                    acc,
                    len,
                    op,
                    ty,
                } => {
                    let (src, acc, len) = (*src, *acc, *len);
                    if src + len <= acc || acc + len <= src {
                        // Two buffers, borrowed apart: the loop needs no
                        // index and no aliasing assumption.
                        let (lo, hi) = arena.split_at_mut(src.max(acc));
                        let (lo, hi) = (&mut lo[src.min(acc)..][..len], &mut hi[..len]);
                        let (a, s) = if src < acc { (hi, lo) } else { (lo, hi) };
                        fold_into(a, s, *op, *ty);
                    } else {
                        // A buffer folded into itself, forward in place:
                        // slot `i` is read before any slot `>= i` is
                        // written, as in the interpreter's clone-then-zip.
                        for i in 0..len {
                            arena[acc + i] = ty.quantize(op.apply(arena[acc + i], arena[src + i]));
                        }
                    }
                }
                Instr::Tile(t) => self.run_tile(&self.tiles[*t], arena)?,
                Instr::LoopStart { trips } => {
                    debug_assert!(*trips >= 1, "zero-trip loops compile to Abort");
                    frames.push(Frame {
                        body: ip + 1,
                        counter: 0,
                        trips: *trips,
                    });
                }
                Instr::LoopEnd => {
                    let f = frames.last_mut().expect("balanced loops");
                    f.counter += 1;
                    if f.counter < f.trips {
                        ip = f.body;
                        continue;
                    }
                    frames.pop();
                }
                Instr::Iter {
                    dst,
                    depth,
                    div,
                    modu,
                    step,
                } => {
                    let counter = frames[*depth].counter;
                    arena[*dst] = (counter / div % modu * step) as f64;
                }
                Instr::Kernel(k) => {
                    let k = &self.kernels[*k];
                    if k.blocked && !serial {
                        if lanes.len() < k.ops.len() {
                            lanes.resize(k.ops.len(), [0.0; LANES]);
                        }
                        k.run::<LANES>(&frames, arena, queues, &mut lanes)?;
                    } else {
                        k.run::<1>(&frames, arena, queues, &mut [])?;
                    }
                }
                Instr::Abort(e) => return Err(self.errors[*e].clone()),
            }
            ip += 1;
        }
        Ok(())
    }

    /// Execute one tile transfer: a row-wise `copy_within` fast path when
    /// the whole tile is statically in bounds, otherwise an element-wise
    /// replica of the interpreter's loop (identical out-of-bounds error
    /// payloads and wrap-around addressing).
    fn run_tile(&self, d: &TileDesc, arena: &mut [f64]) -> Result<()> {
        if d.tile_elems == 0 {
            return Ok(());
        }
        let rank = d.tile.len();
        let mut offs = [0u64; 8];
        let offs = if rank <= 8 {
            for (o, &slot) in offs.iter_mut().zip(&d.offsets) {
                *o = arena[slot] as u64;
            }
            &offs[..rank]
        } else {
            // Arbitrary-rank fallback (never hit by builder designs).
            return self.run_tile_slow(d, arena, None);
        };
        let fits = d.local_len as u64 >= d.tile_elems
            && rank >= 1
            && offs
                .iter()
                .zip(&d.tile)
                .zip(&d.dims)
                .all(|((&o, &t), &m)| t <= m && o <= m - t);
        if !fits {
            return self.run_tile_slow(d, arena, Some(offs));
        }
        let inner = d.tile[rank - 1] as usize;
        let rows = (d.tile_elems as usize) / inner;
        for row in 0..rows {
            let mut rem = row as u64;
            let mut off = offs[rank - 1] * d.strides[rank - 1];
            for dd in (0..rank - 1).rev() {
                let c = rem % d.tile[dd];
                rem /= d.tile[dd];
                off += (offs[dd] + c) * d.strides[dd];
            }
            let global = d.offchip_base + off as usize;
            let local = d.local_base + row * inner;
            if d.load {
                arena.copy_within(global..global + inner, local);
            } else {
                arena.copy_within(local..local + inner, global);
            }
        }
        Ok(())
    }

    /// Element-wise tile transfer: a faithful replica of the
    /// interpreter's copy loop, including its out-of-bounds check per
    /// dimension (innermost first) and local-index wrap-around.
    fn run_tile_slow(&self, d: &TileDesc, arena: &mut [f64], offs: Option<&[u64]>) -> Result<()> {
        let mut buf;
        let offs = match offs {
            Some(o) => o,
            None => {
                buf = vec![0u64; d.offsets.len()];
                for (o, &slot) in buf.iter_mut().zip(&d.offsets) {
                    *o = arena[slot] as u64;
                }
                &buf
            }
        };
        for lin in 0..d.tile_elems {
            let mut rem = lin;
            let mut off_idx: u64 = 0;
            for (dd, &extent) in d.tile.iter().enumerate().rev() {
                let c = rem % extent;
                rem /= extent;
                let global = offs[dd] + c;
                if global >= d.dims[dd] {
                    return Err(SimError::OutOfBounds {
                        mem: d.offchip,
                        index: global as i64,
                        size: d.dims[dd],
                    });
                }
                off_idx += global * d.strides[dd];
            }
            let li = (lin as usize) % d.local_len.max(1);
            if d.load {
                arena[d.local_base + li] = arena[d.offchip_base + off_idx as usize];
            } else {
                arena[d.offchip_base + off_idx as usize] = arena[d.local_base + li];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    // The two per-op claims `compile::Body::push` derives are checked by
    // the block path in debug builds, not trusted: a kernel handed a
    // wrong one must trip. (Release builds compile the checks out, and
    // these two tests with them.)
    #[cfg(debug_assertions)]
    mod a_wrong_claim_trips_the_debug_check {
        use super::super::*;

        /// `lin` (slot 8) counts 0, 1, 2, …; `second` follows it, writing
        /// slot 9. Memory is slots 0..8, holding 0.1, 1.1, ….
        fn run(second: KOp) {
            let lin = KOp {
                dst: 8,
                ty: DType::F64,
                kind: KKind::Lin { step: 1 },
                quant: false,
                uniform: false,
            };
            let kernel = Kernel {
                trips: 8,
                ops: vec![lin, second],
                blocked: true,
            };
            let mut arena: Vec<f64> = (0..10).map(|i| f64::from(i) + 0.1).collect();
            let mut lanes = vec![[0.0; LANES]; 2];
            kernel
                .run::<LANES>(&[], &mut arena, &mut [], &mut lanes)
                .expect("every access is in bounds");
        }

        const LIN: KSrc = KSrc {
            slot: 8,
            lane: Some(0),
        };

        #[test]
        #[should_panic(expected = "needing no quantization")]
        fn an_add_at_f32_marked_idle() {
            // i + 0.1 is no f32 for any i.
            let b = KSrc {
                slot: 0,
                lane: None,
            };
            run(KOp {
                dst: 9,
                ty: DType::F32,
                kind: KKind::Bin {
                    op: PrimOp::Add,
                    a: LIN,
                    b,
                },
                quant: false,
                uniform: false,
            });
        }

        #[test]
        #[should_panic(expected = "marked uniform")]
        fn a_load_at_a_lin_address_marked_uniform() {
            let at = Access {
                base: 0,
                terms: vec![(LIN, 8)],
                size: 8,
                mem: NodeId::from_raw(0),
                stride: Some(1),
            };
            run(KOp {
                dst: 9,
                ty: DType::F64,
                kind: KKind::Load { at },
                quant: false,
                uniform: true,
            });
        }
    }

    /// The data path has one encoding, [`super::KOp`]. A scalar
    /// instruction added to the tape "just for this case" is a second
    /// one, which the differential fuzzer would then have to reach
    /// separately (it did not, for the ten such variants deleted in PR
    /// 20). Teach `KOp` and the block-width analysis the case instead.
    #[test]
    fn instr_carries_no_data_path_variant() {
        let src = include_str!("tape.rs");
        let (_, rest) = src
            .split_once("pub(crate) enum Instr {\n")
            .expect("enum Instr");
        let (body, _) = rest.split_once("\n}\n").expect("end of enum Instr");
        let variants: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("    ") && l[4..].starts_with(char::is_uppercase))
            .map(|l| l.trim().trim_end_matches(|c: char| !c.is_alphanumeric()))
            .map(|l| l.split('(').next().expect("nonempty"))
            .collect();
        assert_eq!(
            variants,
            [
                "Fill",
                "Fold",
                "Tile",
                "LoopStart",
                "LoopEnd",
                "Iter",
                "Kernel",
                "Abort"
            ],
            "tape::Instr is control, bulk memory and Kernel only"
        );
    }
}
