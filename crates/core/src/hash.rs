//! Canonical structural hashing of designs.
//!
//! Three design hashes exist in the workspace and they serve different
//! masters:
//!
//! * [`structural_hash`] — the *canonical* key over the full node-level
//!   structure of a [`Design`], including every template parameter (tile
//!   sizes, loop bounds, parallelization factors, banking). Any two
//!   designs that could estimate differently key differently. It keys
//!   estimate caches and seed-driven fault schedules in `dhdl-dse`.
//! * [`shape_hash`] — the same walk minus everything that varies across
//!   the DSE points of one benchmark. Designs with equal shapes share an
//!   elaboration skeleton and latency plan in `dhdl-synth`.
//! * `dhdl_synth::design_hash` — a deliberately *coarse* hash that
//!   models per-design place-and-route tool noise; it collapses many
//!   distinct design points onto one key and must stay that way (cached
//!   calibration artifacts under `results/` are keyed by its stream).
//!
//! All are FNV-1a-shaped at heart; [`Fnv64`] is the shared primitive
//! (its prime is not FNV-1a's, see there).
//!
//! # The walk
//!
//! One field-wise walk feeds [`Fnv64::write_u64`] a word per scalar, and
//! each field says which hash it belongs to: [`Stream::shape`] words
//! (template tags, node ids, list lengths, ops, element types) go to
//! both, [`Stream::param`] words (bounds, factors, geometry, constants,
//! widths, debug names) only to the full key. The property the estimate
//! cache leans on is **equal key ⇔ equal structure** (up to 64-bit
//! collisions), and the encoding is built so that it can be checked by
//! reading:
//!
//! * every `struct` and data-carrying `enum` variant is destructured
//!   with no `..`, so a field added to a template does not compile until
//!   it is classified;
//! * every list and name is length-prefixed and every such `enum` writes
//!   a tag first (fieldless ones write their discriminant), so the word
//!   stream is prefix-free — two different designs never produce the
//!   same stream;
//! * floats go in as `f64::to_bits` (so `0.0` and `-0.0` differ), passed
//!   through [`avalanche`] first: "round" constants differ only in their
//!   top bits, and word-wise FNV never carries a difference downwards.
//!
//! That last weakness is also why the full key is closed by the same
//! finisher: the low `k` bits of a word-wise FNV state depend only on
//! the low `k` bits of the words fed in, and `EstimateCache` picks one of
//! its 16 lock shards from the key's low 4 bits. The finisher is a
//! bijection, so it cannot merge two keys.
//!
//! The full key's word stream decides which points a recorded fault
//! schedule hits (`dhdl_dse::fault` plans by it), salts `dhdl-serve`'s
//! parameter memo and is folded into the digests `benchmark/` and
//! DESIGN.md quote; nothing persists it to disk any more (PR 15 deleted
//! the cache file format). It must still never change silently.
//! `crates/core/tests/hash_stability.rs` pins golden values, the tests
//! below flip every field, and `crates/conformance/tests` checks the key
//! against the historical `Debug`-text formulation over the nine
//! applications and generated designs.

use std::fmt;

use crate::node::{
    BramSpec, CounterChain, CounterDim, MemFold, Node, NodeId, NodeKind, OuterSpec, Pattern,
    PipeSpec, QueueSpec, RegReduce, RegSpec, TileSpec,
};
use crate::{DType, Design};

/// Incremental 64-bit hasher of FNV-1a's shape: xor a unit in, then
/// multiply by a prime, starting from FNV-1a's 64-bit offset basis.
///
/// It is **not** textbook FNV-1a: the prime is 2^44 + 0x1b3, where the
/// FNV-1a 64-bit prime is 2^40 + 0x1b3, so a reference FNV-1a disagrees
/// from the first byte. Every structural hash, memo key and pinned digest
/// in the workspace is computed with this prime, so it stays.
///
/// Byte-oriented writes ([`Fnv64::write`]) mix one byte per round;
/// [`Fnv64::write_u64`] mixes a whole 64-bit word per round (the coarser
/// variant `dhdl_synth::design_hash` is built on). The two must not be
/// interleaved carelessly — they produce different streams by design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64(u64);

/// The FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// This hasher's prime, 2^44 + 0x1b3 (FNV-1a's is 2^40 + 0x1b3).
const FNV_PRIME: u64 = 0x1000_0000_01b3;

impl Fnv64 {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Mix `bytes` one byte per round.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Mix one 64-bit word per round.
    pub fn write_u64(&mut self, v: u64) {
        self.0 ^= v;
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// `write!` support so callers can hash `Debug`/`Display` output without
/// allocating intermediate strings.
impl fmt::Write for Fnv64 {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.write(s.as_bytes());
        Ok(())
    }
}

/// The canonical structural hash of a design: every field of the name,
/// the root, the off-chip declarations and every node in arena order
/// (see the module docs for the encoding and why it ends in a finisher).
///
/// Designs differing in *any* field — tile size, loop bound,
/// parallelization factor, memory geometry, a debug name — key different
/// values. Collisions are those of a 64-bit hash: for a 75 000-point
/// sweep the birthday bound is ≈ 1.5e-10, which the estimate cache and
/// fault injector accept by design.
pub fn structural_hash(design: &Design) -> u64 {
    avalanche(Stream::<true>::of(design))
}

/// A hash of everything about a design that an elaboration skeleton
/// bakes in — the controller tree, pipe body topology and wiring, node
/// kinds, ops and types — and nothing that varies across DSE points of
/// one benchmark (par factors, counter bounds, tile extents, memory
/// geometry, banking, constant values). Two designs with equal shape
/// hashes can share a skeleton.
pub fn shape_hash(design: &Design) -> u64 {
    Stream::<false>::of(design)
}

/// The 64-bit finisher of MurmurHash3: a bijection under which every
/// input bit reaches every output bit.
fn avalanche(mut x: u64) -> u64 {
    x ^= x >> 33;
    x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
    x ^= x >> 33;
    x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// The word stream of one walk; `FULL` selects [`structural_hash`].
struct Stream<const FULL: bool>(Fnv64);

impl<const FULL: bool> Stream<FULL> {
    fn of(design: &Design) -> u64 {
        let (name, nodes, top, offchips) = design.parts();
        let mut s = Stream::<FULL>(Fnv64::new());
        s.text(name);
        s.id(top);
        s.ids(offchips);
        s.shape(nodes.len() as u64);
        for node in nodes {
            s.node(node);
        }
        s.0.finish()
    }

    /// A word of both hashes.
    fn shape(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    /// A word of the full key only: free to differ between two designs
    /// that share a skeleton.
    fn param(&mut self, v: u64) {
        if FULL {
            self.0.write_u64(v);
        }
    }

    fn id(&mut self, id: NodeId) {
        self.shape(id.index() as u64);
    }

    fn ids(&mut self, ids: &[NodeId]) {
        self.shape(ids.len() as u64);
        for &id in ids {
            self.id(id);
        }
    }

    fn params(&mut self, vals: &[u64]) {
        self.shape(vals.len() as u64);
        for &v in vals {
            self.param(v);
        }
    }

    fn float(&mut self, x: f64) {
        self.param(avalanche(x.to_bits()));
    }

    /// Length, then the bytes eight to a little-endian word (the last
    /// one zero-padded; the length disambiguates).
    fn text(&mut self, s: &str) {
        self.shape(s.len() as u64);
        for chunk in s.as_bytes().chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.shape(u64::from_le_bytes(word));
        }
    }

    fn pattern(&mut self, pattern: Pattern) {
        self.shape(match pattern {
            Pattern::Map => 0,
            Pattern::Reduce(op) => 1 + op as u64,
        });
    }

    fn counters(&mut self, ctr: &CounterChain) {
        let CounterChain { dims } = ctr;
        self.shape(dims.len() as u64);
        for &CounterDim { end, step } in dims {
            self.param(end);
            self.param(step);
        }
    }

    fn outer(&mut self, spec: &OuterSpec) {
        let OuterSpec {
            ctr,
            par,
            pattern,
            stages,
            locals,
            fold,
        } = spec;
        self.counters(ctr);
        self.param(u64::from(*par));
        self.pattern(*pattern);
        self.ids(stages);
        self.ids(locals);
        match *fold {
            None => self.shape(0),
            Some(MemFold { src, accum, op }) => {
                self.ids(&[src, accum]);
                self.shape(op as u64);
            }
        }
    }

    fn tile(&mut self, spec: &TileSpec) {
        let TileSpec {
            offchip,
            local,
            offsets,
            tile,
            par,
        } = spec;
        self.id(*offchip);
        self.id(*local);
        self.ids(offsets);
        self.params(tile);
        self.param(u64::from(*par));
    }

    fn node(&mut self, node: &Node) {
        let Node {
            kind,
            ty,
            width,
            name,
        } = node;
        // One word, tag in the low bits so a change of type spreads upwards.
        self.shape(match *ty {
            DType::Fix { sign, int, frac } => {
                1 | u64::from(sign) << 8 | u64::from(int) << 16 | u64::from(frac) << 32
            }
            DType::F32 => 2,
            DType::F64 => 3,
            DType::Bool => 4,
        });
        self.param(u64::from(*width));
        if FULL {
            match name {
                None => self.shape(0),
                Some(s) => {
                    self.shape(1);
                    self.text(s);
                }
            }
        }
        match kind {
            NodeKind::Const(v) => {
                self.shape(1);
                self.float(*v);
            }
            NodeKind::Prim { op, inputs } => {
                self.shape(2);
                self.shape(*op as u64);
                self.ids(inputs);
            }
            NodeKind::Mux {
                sel,
                if_true,
                if_false,
            } => {
                self.shape(3);
                self.ids(&[*sel, *if_true, *if_false]);
            }
            NodeKind::Load { mem, addr } => {
                self.shape(4);
                self.id(*mem);
                self.ids(addr);
            }
            NodeKind::Store { mem, addr, value } => {
                self.shape(5);
                self.id(*mem);
                self.ids(addr);
                self.id(*value);
            }
            NodeKind::Iter { ctrl, dim } => {
                self.shape(6);
                self.id(*ctrl);
                self.shape(*dim as u64);
            }
            NodeKind::OffChip { dims } => {
                self.shape(7);
                self.params(dims);
            }
            NodeKind::Bram(BramSpec {
                dims,
                double_buf,
                banks,
                word_width,
                interleave,
            }) => {
                self.shape(8);
                self.params(dims);
                self.param(u64::from(*double_buf));
                self.param(u64::from(*banks));
                self.param(u64::from(*word_width));
                self.param(*interleave as u64);
            }
            NodeKind::Reg(RegSpec { init, double_buf }) => {
                self.shape(9);
                self.float(*init);
                self.param(u64::from(*double_buf));
            }
            NodeKind::PriorityQueue(QueueSpec { depth, double_buf }) => {
                self.shape(10);
                self.param(*depth);
                self.param(u64::from(*double_buf));
            }
            NodeKind::Pipe(PipeSpec {
                ctr,
                par,
                pattern,
                body,
                reduce,
            }) => {
                self.shape(11);
                self.counters(ctr);
                self.param(u64::from(*par));
                self.pattern(*pattern);
                self.ids(body);
                match *reduce {
                    None => self.shape(0),
                    Some(RegReduce { value, reg, op }) => {
                        self.ids(&[value, reg]);
                        self.shape(op as u64);
                    }
                }
            }
            NodeKind::MetaPipe(spec) => {
                self.shape(12);
                self.outer(spec);
            }
            NodeKind::Sequential(spec) => {
                self.shape(13);
                self.outer(spec);
            }
            NodeKind::ParallelCtrl { stages, locals } => {
                self.shape(14);
                self.ids(stages);
                self.ids(locals);
            }
            NodeKind::TileLoad(spec) => {
                self.shape(15);
                self.tile(spec);
            }
            NodeKind::TileStore(spec) => {
                self.shape(16);
                self.tile(spec);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{by, DesignBuilder, Ids, Interleaving, PrimOp, ReduceOp};

    /// One design holding every template of Table I.
    fn zoo(name: &str, tile: u64, par: u32) -> Design {
        let mut b = DesignBuilder::new(name);
        let va = b.off_chip("a", DType::F32, &[4096]);
        let vo = b.off_chip("o", DType::F32, &[4096]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 1.5);
            b.priority_queue("q", DType::F32, 8);
            let sum = b.bram("sum", DType::F32, &[tile]);
            b.outer_fold(true, &[by(4096, tile)], 1, sum, ReduceOp::Add, |b, i| {
                let at = b.bram("aT", DType::F32, &[tile]);
                let ot = b.bram("oT", DType::F32, &[tile]);
                b.parallel(|b| {
                    b.tile_load(va, at, &[i[0]], &[tile], par);
                });
                b.pipe_reduce(&[by(tile, 1)], par, acc, ReduceOp::Add, |b, it| {
                    let x = b.load(at, &[it[0]]);
                    let c = b.constant(2.0, DType::F32);
                    let m = b.mul(x, c);
                    let lt = b.lt(x, c);
                    let s = b.mux(lt, x, m);
                    b.store(ot, &[it[0]], s);
                    s
                });
                b.tile_store(vo, ot, &[i[0]], &[tile], par);
                ot
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn fnv_word_and_byte_streams_are_independent() {
        // A multi-byte word mixes as one round, not one round per byte.
        let mut a = Fnv64::new();
        a.write(&0x0102u16.to_be_bytes());
        let mut b = Fnv64::new();
        b.write_u64(0x0102);
        assert_ne!(a.finish(), b.finish());
        assert_eq!(Fnv64::new().finish(), FNV_OFFSET);
    }

    #[test]
    fn fnv_byte_stream_is_pinned_to_its_own_prime() {
        // Textbook FNV-1a (prime 2^40 + 0x1b3) gives 0xd114_eb67_5ae4_cec9
        // for these bytes; this hasher's prime is 2^44 + 0x1b3.
        assert_eq!(FNV_PRIME, (1 << 44) + 0x1b3);
        let mut h = Fnv64::new();
        h.write(b"dhdl");
        assert_eq!(h.finish(), 0x1b4b_9b67_5ae4_cec9);
    }

    /// A design taken apart: name, nodes, root, off-chip declarations.
    type Parts = (String, Vec<Node>, NodeId, Ids);
    /// A labelled single-field change to a design.
    type Edit = (&'static str, fn(&mut Parts));

    /// An id no field of the zoo holds.
    fn z() -> NodeId {
        NodeId::from_raw(99)
    }

    /// A labelled edit of the first node of the zoo whose kind matches
    /// `$pat`.
    macro_rules! flip {
        ($pat:pat => $edit:expr) => {
            (stringify!($pat => $edit), |p: &mut Parts| {
                let hit = p.1.iter_mut().find_map(|n| match &mut n.kind {
                    $pat => {
                        $edit;
                        Some(())
                    }
                    _ => None,
                });
                hit.expect("the zoo holds every template")
            })
        };
    }

    /// Every field of every template, flipped one at a time, moves the
    /// key: the mechanical half of "equal key ⇔ equal structure".
    #[test]
    fn every_field_reaches_the_key() {
        use NodeKind as K;
        let edits: &[Edit] = &[
            ("nothing", |_| {}),
            ("Design.name", |p| p.0.push('x')),
            ("Design.nodes order", |p| p.1.swap(0, 1)),
            ("Design.nodes len", |p| p.1.truncate(p.1.len() - 1)),
            ("Design.top", |p| p.2 = z()),
            ("Design.offchips order", |p| p.3.reverse()),
            ("Design.offchips len", |p| p.3.truncate(1)),
            ("Node.ty", |p| p.1[0].ty = DType::F64),
            ("Node.ty bool", |p| p.1[0].ty = DType::Bool),
            ("Node.ty fix", |p| p.1[0].ty = DType::fixed(true, 15, 16)),
            ("Node.ty.sign", |p| p.1[0].ty = DType::fixed(false, 15, 16)),
            ("Node.ty.int", |p| p.1[0].ty = DType::fixed(true, 16, 16)),
            ("Node.ty.frac", |p| p.1[0].ty = DType::fixed(true, 15, 15)),
            ("Node.ty int<>frac", |p| {
                p.1[0].ty = DType::fixed(true, 16, 15)
            }),
            ("Node.width", |p| p.1[0].width = 2),
            ("Node.name none", |p| p.1[0].name = None),
            ("Node.name empty", |p| p.1[0].name = Some("".into())),
            ("Node.name other", |p| p.1[0].name = Some("b".into())),
            ("Node.name nul-padded", |p| p.1[0].name = Some("a\0".into())),
            ("Node.name 2 words", |p| {
                p.1[0].name = Some("a23456789".into())
            }),
            flip!(K::Const(v) => *v = 4.0),
            flip!(K::Const(v) => *v = -2.0),
            flip!(K::Prim { op, .. } => *op = PrimOp::Add),
            flip!(K::Prim { inputs, .. } => inputs.reverse()),
            flip!(K::Prim { inputs, .. } => inputs.truncate(1)),
            flip!(K::Mux { sel, .. } => *sel = z()),
            flip!(K::Mux { if_true, .. } => *if_true = z()),
            flip!(K::Mux { if_false, .. } => *if_false = z()),
            flip!(K::Load { mem, .. } => *mem = z()),
            flip!(K::Load { addr, .. } => addr[0] = z()),
            flip!(K::Load { addr, .. } => addr.push(z())),
            flip!(K::Store { mem, .. } => *mem = z()),
            flip!(K::Store { addr, .. } => addr[0] = z()),
            flip!(K::Store { value, .. } => *value = z()),
            flip!(K::Iter { ctrl, .. } => *ctrl = z()),
            flip!(K::Iter { dim, .. } => *dim = 1),
            flip!(K::OffChip { dims } => dims[0] = 2048),
            flip!(K::OffChip { dims } => dims.push(1)),
            flip!(K::Bram(b) => b.dims[0] += 1),
            flip!(K::Bram(b) => b.double_buf ^= true),
            flip!(K::Bram(b) => b.banks += 1),
            flip!(K::Bram(b) => b.word_width += 1),
            flip!(K::Bram(BramSpec { interleave: i @ Interleaving::Blocked, .. }) => *i = Interleaving::Cyclic),
            flip!(K::Reg(r) => r.init = 2.5),
            flip!(K::Reg(r) => r.init = -1.5),
            flip!(K::Reg(r) => r.double_buf ^= true),
            flip!(K::PriorityQueue(q) => q.depth += 1),
            flip!(K::PriorityQueue(q) => q.double_buf ^= true),
            flip!(K::Pipe(s) => s.ctr.dims[0].end += 1),
            flip!(K::Pipe(s) => s.ctr.dims[0].step += 1),
            flip!(K::Pipe(s) => s.ctr.dims.push(by(1, 1))),
            flip!(K::Pipe(s) => s.par += 1),
            flip!(K::Pipe(s) => s.pattern = Pattern::Map),
            flip!(K::Pipe(s) => s.pattern = Pattern::Reduce(ReduceOp::Min)),
            flip!(K::Pipe(s) => s.body.swap(0, 1)),
            flip!(K::Pipe(s) => s.reduce = None),
            flip!(K::Pipe(s) => s.reduce.as_mut().unwrap().value = z()),
            flip!(K::Pipe(s) => s.reduce.as_mut().unwrap().reg = z()),
            flip!(K::Pipe(s) => s.reduce.as_mut().unwrap().op = ReduceOp::Max),
            flip!(K::MetaPipe(s) => s.ctr.dims[0].end += 1),
            flip!(K::MetaPipe(s) => s.par += 1),
            flip!(K::MetaPipe(s) => s.pattern = Pattern::Map),
            flip!(K::MetaPipe(s) => s.stages.swap(0, 1)),
            flip!(K::MetaPipe(s) => s.locals.swap(0, 1)),
            flip!(K::MetaPipe(s) => s.locals.push(s.stages.pop().unwrap())),
            flip!(K::MetaPipe(s) => s.fold = None),
            flip!(K::MetaPipe(s) => s.fold.as_mut().unwrap().src = z()),
            flip!(K::MetaPipe(s) => s.fold.as_mut().unwrap().accum = z()),
            flip!(K::MetaPipe(s) => s.fold.as_mut().unwrap().op = ReduceOp::Min),
            flip!(k @ K::MetaPipe(_) => if let K::MetaPipe(s) = k.clone() { *k = K::Sequential(s) }),
            flip!(K::ParallelCtrl { stages, .. } => stages.push(z())),
            flip!(K::ParallelCtrl { locals, .. } => locals.push(z())),
            flip!(K::TileLoad(t) => t.offchip = z()),
            flip!(K::TileLoad(t) => t.local = z()),
            flip!(K::TileLoad(t) => t.offsets[0] = z()),
            flip!(K::TileLoad(t) => t.tile[0] += 1),
            flip!(K::TileLoad(t) => t.tile.push(1)),
            flip!(K::TileLoad(t) => t.par += 1),
            flip!(k @ K::TileLoad(_) => if let K::TileLoad(t) = k.clone() { *k = K::TileStore(t) }),
        ];
        let design = zoo("zoo", 64, 4);
        let (name, nodes, top, offchips) = design.parts();
        let base: Parts = (name.into(), nodes.to_vec(), top, offchips.into());
        assert_eq!(base.1[0].name.as_deref(), Some("a"));
        let keys: Vec<(&str, u64)> = edits
            .iter()
            .map(|(label, edit)| {
                let mut p = base.clone();
                edit(&mut p);
                (
                    *label,
                    structural_hash(&Design::from_parts(p.0.into(), p.1, p.2, p.3)),
                )
            })
            .collect();
        assert_eq!(keys[0].1, structural_hash(&design));
        for (i, (la, ka)) in keys.iter().enumerate() {
            for (lb, kb) in &keys[..i] {
                assert_ne!(ka, kb, "`{la}` and `{lb}` share a key");
            }
        }
    }

    #[test]
    fn shape_ignores_parameters_and_shard_bits_are_balanced() {
        // `EstimateCache` shards on the low 4 bits; a sweep over small
        // integers must not pile into a few of the 16 (word-wise FNV
        // without the finisher does).
        let shape = shape_hash(&zoo("t", 16, 1));
        assert_ne!(shape, shape_hash(&zoo("u", 16, 1)));
        let mut shards = [0u32; 16];
        for tile in (16..=1024).step_by(16) {
            for par in [1, 2, 4, 8] {
                let design = zoo("t", tile, par);
                assert_eq!(shape_hash(&design), shape);
                shards[(structural_hash(&design) & 15) as usize] += 1;
            }
        }
        let (min, max) = (shards.iter().min().unwrap(), shards.iter().max().unwrap());
        assert!(
            *min >= 4 && *max <= 32,
            "256 keys over 16 shards: {shards:?}"
        );
    }
}
