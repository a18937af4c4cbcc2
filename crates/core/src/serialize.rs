//! Textual serialization of design instances.
//!
//! A stable line-oriented format for persisting elaborated designs —
//! caching DSE winners, shipping designs between the estimator and
//! generator processes, or diffing design instances. Round-trips exactly:
//! `parse(print(d)) == d`.

use crate::design::Design;
use crate::error::{DhdlError, Result};
use crate::node::{
    BramSpec, CounterChain, CounterDim, Extents, Ids, Interleaving, MemFold, Node, NodeId,
    NodeKind, OuterSpec, Pattern, PipeSpec, PrimOp, QueueSpec, RegReduce, RegSpec, TileSpec,
};
use crate::types::DType;

/// Serialize a design to the textual format.
pub fn to_text(design: &Design) -> String {
    let mut out = String::new();
    out.push_str(&format!("dhdl v1 {}\n", escape(design.name())));
    out.push_str(&format!("top {}\n", design.top().index()));
    let offs: Vec<String> = design
        .offchips()
        .iter()
        .map(|o| o.index().to_string())
        .collect();
    out.push_str(&format!("offchips {}\n", offs.join(" ")));
    for (id, node) in design.iter() {
        out.push_str(&format!(
            "node {} ty={} w={} name={} {}\n",
            id.index(),
            node.ty,
            node.width,
            node.name.as_deref().map(escape).unwrap_or_default(),
            kind_text(&node.kind)
        ));
    }
    out
}

/// Parse a design from [`to_text`] output.
///
/// # Errors
///
/// Returns [`DhdlError::Validation`] describing the first malformed line.
pub fn from_text(text: &str) -> Result<Design> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| bad("empty input"))?;
    let name = header
        .strip_prefix("dhdl v1 ")
        .ok_or_else(|| bad("bad header"))?;
    let top_line = lines.next().ok_or_else(|| bad("missing top"))?;
    let top = NodeId::from_raw(
        top_line
            .strip_prefix("top ")
            .ok_or_else(|| bad("bad top line"))?
            .parse::<u32>()
            .map_err(|e| bad(&e.to_string()))?,
    );
    let off_line = lines.next().ok_or_else(|| bad("missing offchips"))?;
    let offchips: Ids = off_line
        .strip_prefix("offchips")
        .ok_or_else(|| bad("bad offchips line"))?
        .split_whitespace()
        .map(|s| s.parse::<u32>().map(NodeId::from_raw))
        .collect::<std::result::Result<_, _>>()
        .map_err(|e| bad(&e.to_string()))?;
    let mut nodes: Vec<(u32, Node)> = Vec::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let rest = line
            .strip_prefix("node ")
            .ok_or_else(|| bad(&format!("expected node line, got `{line}`")))?;
        let mut parts = Tok::new(rest);
        let id: u32 = parts.next()?.parse().map_err(|e| bad(&format!("{e}")))?;
        let ty = parse_ty(parts.kv("ty")?)?;
        let width: u32 = parts.kv("w")?.parse().map_err(|e| bad(&format!("{e}")))?;
        let name_raw = parts.kv("name")?;
        let name = if name_raw.is_empty() {
            None
        } else {
            Some(unescape(name_raw).into())
        };
        let kind = parse_kind(&mut parts)?;
        nodes.push((
            id,
            Node {
                kind,
                ty,
                width,
                name,
            },
        ));
    }
    nodes.sort_by_key(|(id, _)| *id);
    for (i, (id, _)) in nodes.iter().enumerate() {
        if *id as usize != i {
            return Err(bad(&format!("non-contiguous node id {id}")));
        }
    }
    let nodes = nodes.into_iter().map(|(_, n)| n).collect();
    Ok(Design::from_parts(
        unescape(name).into(),
        nodes,
        top,
        offchips,
    ))
}

fn bad(msg: &str) -> DhdlError {
    DhdlError::Validation(format!("deserialize: {msg}"))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace(' ', "\\s")
        .replace('\n', "\\n")
}

fn unescape(s: &str) -> String {
    s.replace("\\n", "\n")
        .replace("\\s", " ")
        .replace("\\\\", "\\")
}

fn ids(v: &[NodeId]) -> String {
    v.iter()
        .map(|i| i.index().to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn dims_text(v: &[u64]) -> String {
    v.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

fn ctr_text(c: &CounterChain) -> String {
    c.dims
        .iter()
        .map(|d| format!("{}x{}", d.end, d.step))
        .collect::<Vec<_>>()
        .join(",")
}

fn kind_text(kind: &NodeKind) -> String {
    match kind {
        NodeKind::Const(v) => format!("Const v={v:e}"),
        NodeKind::Prim { op, inputs } => format!("Prim op={op:?} in={}", ids(inputs)),
        NodeKind::Mux {
            sel,
            if_true,
            if_false,
        } => format!(
            "Mux sel={} t={} f={}",
            sel.index(),
            if_true.index(),
            if_false.index()
        ),
        NodeKind::Load { mem, addr } => format!("Load mem={} addr={}", mem.index(), ids(addr)),
        NodeKind::Store { mem, addr, value } => format!(
            "Store mem={} addr={} val={}",
            mem.index(),
            ids(addr),
            value.index()
        ),
        NodeKind::Iter { ctrl, dim } => format!("Iter ctrl={} dim={}", ctrl.index(), dim),
        NodeKind::OffChip { dims } => format!("OffChip dims={}", dims_text(dims)),
        NodeKind::Bram(b) => format!(
            "Bram dims={} db={} banks={} ww={} il={}",
            dims_text(&b.dims),
            u8::from(b.double_buf),
            b.banks,
            b.word_width,
            match b.interleave {
                Interleaving::Cyclic => "cyclic",
                Interleaving::Blocked => "blocked",
            }
        ),
        NodeKind::Reg(r) => format!("Reg init={:e} db={}", r.init, u8::from(r.double_buf)),
        NodeKind::PriorityQueue(q) => {
            format!("PQueue depth={} db={}", q.depth, u8::from(q.double_buf))
        }
        NodeKind::Pipe(p) => format!(
            "Pipe ctr={} par={} pat={} body={} red={}",
            ctr_text(&p.ctr),
            p.par,
            pattern_text(p.pattern),
            ids(&p.body),
            p.reduce
                .map(|r| format!("{}:{}:{:?}", r.value.index(), r.reg.index(), r.op))
                .unwrap_or_default()
        ),
        NodeKind::MetaPipe(s) => outer_text("MetaPipe", s),
        NodeKind::Sequential(s) => outer_text("Sequential", s),
        NodeKind::ParallelCtrl { stages, locals } => {
            format!("Parallel stages={} locals={}", ids(stages), ids(locals))
        }
        NodeKind::TileLoad(t) => tile_text("TileLoad", t),
        NodeKind::TileStore(t) => tile_text("TileStore", t),
    }
}

fn pattern_text(p: Pattern) -> String {
    match p {
        Pattern::Map => "map".to_string(),
        Pattern::Reduce(op) => format!("reduce-{op:?}"),
    }
}

fn outer_text(tag: &str, s: &OuterSpec) -> String {
    format!(
        "{tag} ctr={} par={} pat={} stages={} locals={} fold={}",
        ctr_text(&s.ctr),
        s.par,
        pattern_text(s.pattern),
        ids(&s.stages),
        ids(&s.locals),
        s.fold
            .map(|f| format!("{}:{}:{:?}", f.src.index(), f.accum.index(), f.op))
            .unwrap_or_default()
    )
}

fn tile_text(tag: &str, t: &TileSpec) -> String {
    format!(
        "{tag} off={} local={} offsets={} tile={} par={}",
        t.offchip.index(),
        t.local.index(),
        ids(&t.offsets),
        dims_text(&t.tile),
        t.par
    )
}

/// Whitespace tokenizer with `key=value` access.
struct Tok<'a> {
    parts: std::str::SplitWhitespace<'a>,
}

impl<'a> Tok<'a> {
    fn new(s: &'a str) -> Self {
        Tok {
            parts: s.split_whitespace(),
        }
    }

    fn next(&mut self) -> Result<&'a str> {
        self.parts
            .next()
            .ok_or_else(|| bad("unexpected end of line"))
    }

    fn kv(&mut self, key: &str) -> Result<&'a str> {
        let tok = self.next()?;
        tok.strip_prefix(key)
            .and_then(|r| r.strip_prefix('='))
            .ok_or_else(|| bad(&format!("expected `{key}=`, got `{tok}`")))
    }
}

fn parse_ty(s: &str) -> Result<DType> {
    match s {
        "f32" => Ok(DType::F32),
        "f64" => Ok(DType::F64),
        "bool" => Ok(DType::Bool),
        other => {
            let sign = other.starts_with('s');
            let rest = other
                .strip_prefix(if sign { "sfix" } else { "ufix" })
                .ok_or_else(|| bad(&format!("bad type `{other}`")))?;
            let (int, frac) = rest
                .split_once('.')
                .ok_or_else(|| bad(&format!("bad fixed type `{other}`")))?;
            Ok(DType::fixed(
                sign,
                int.parse().map_err(|e| bad(&format!("{e}")))?,
                frac.parse().map_err(|e| bad(&format!("{e}")))?,
            ))
        }
    }
}

fn parse_ids<C: FromIterator<NodeId>>(s: &str) -> Result<C> {
    if s.is_empty() {
        return Ok(C::from_iter([]));
    }
    s.split(',')
        .map(|p| {
            p.parse::<u32>()
                .map(NodeId::from_raw)
                .map_err(|e| bad(&format!("{e}")))
        })
        .collect()
}

fn parse_dims(s: &str) -> Result<Extents> {
    if s.is_empty() {
        return Ok(Extents::new());
    }
    s.split(',')
        .map(|p| p.parse::<u64>().map_err(|e| bad(&format!("{e}"))))
        .collect()
}

fn parse_ctr(s: &str) -> Result<CounterChain> {
    if s.is_empty() {
        return Ok(CounterChain::unit());
    }
    let dims = s
        .split(',')
        .map(|p| {
            let (end, step) = p
                .split_once('x')
                .ok_or_else(|| bad(&format!("bad counter `{p}`")))?;
            Ok(CounterDim {
                end: end.parse().map_err(|e| bad(&format!("{e}")))?,
                step: step.parse().map_err(|e| bad(&format!("{e}")))?,
            })
        })
        .collect::<Result<_>>()?;
    Ok(CounterChain { dims })
}

fn parse_pattern(s: &str) -> Result<Pattern> {
    match s {
        "map" => Ok(Pattern::Map),
        other => {
            let op = other
                .strip_prefix("reduce-")
                .ok_or_else(|| bad(&format!("bad pattern `{other}`")))?;
            Ok(Pattern::Reduce(parse_reduce_op(op)?))
        }
    }
}

fn parse_reduce_op(s: &str) -> Result<crate::node::ReduceOp> {
    use crate::node::ReduceOp;
    match s {
        "Add" => Ok(ReduceOp::Add),
        "Min" => Ok(ReduceOp::Min),
        "Max" => Ok(ReduceOp::Max),
        other => Err(bad(&format!("bad reduce op `{other}`"))),
    }
}

fn parse_prim_op(s: &str) -> Result<PrimOp> {
    PrimOp::all()
        .iter()
        .copied()
        .find(|op| format!("{op:?}") == s)
        .ok_or_else(|| bad(&format!("bad prim op `{s}`")))
}

fn parse_triple(s: &str) -> Result<Option<(NodeId, NodeId, crate::node::ReduceOp)>> {
    if s.is_empty() {
        return Ok(None);
    }
    let mut it = s.split(':');
    let a: u32 = it
        .next()
        .ok_or_else(|| bad("bad fold"))?
        .parse()
        .map_err(|e| bad(&format!("{e}")))?;
    let b: u32 = it
        .next()
        .ok_or_else(|| bad("bad fold"))?
        .parse()
        .map_err(|e| bad(&format!("{e}")))?;
    let op = parse_reduce_op(it.next().ok_or_else(|| bad("bad fold"))?)?;
    Ok(Some((NodeId::from_raw(a), NodeId::from_raw(b), op)))
}

fn parse_kind(parts: &mut Tok<'_>) -> Result<NodeKind> {
    let tag = parts.next()?;
    match tag {
        "Const" => Ok(NodeKind::Const(
            parts.kv("v")?.parse().map_err(|e| bad(&format!("{e}")))?,
        )),
        "Prim" => {
            let op = parse_prim_op(parts.kv("op")?)?;
            let inputs = parse_ids(parts.kv("in")?)?;
            Ok(NodeKind::Prim { op, inputs })
        }
        "Mux" => Ok(NodeKind::Mux {
            sel: NodeId::from_raw(parts.kv("sel")?.parse().map_err(|e| bad(&format!("{e}")))?),
            if_true: NodeId::from_raw(parts.kv("t")?.parse().map_err(|e| bad(&format!("{e}")))?),
            if_false: NodeId::from_raw(parts.kv("f")?.parse().map_err(|e| bad(&format!("{e}")))?),
        }),
        "Load" => Ok(NodeKind::Load {
            mem: NodeId::from_raw(parts.kv("mem")?.parse().map_err(|e| bad(&format!("{e}")))?),
            addr: parse_ids(parts.kv("addr")?)?,
        }),
        "Store" => Ok(NodeKind::Store {
            mem: NodeId::from_raw(parts.kv("mem")?.parse().map_err(|e| bad(&format!("{e}")))?),
            addr: parse_ids(parts.kv("addr")?)?,
            value: NodeId::from_raw(parts.kv("val")?.parse().map_err(|e| bad(&format!("{e}")))?),
        }),
        "Iter" => Ok(NodeKind::Iter {
            ctrl: NodeId::from_raw(
                parts
                    .kv("ctrl")?
                    .parse()
                    .map_err(|e| bad(&format!("{e}")))?,
            ),
            dim: parts.kv("dim")?.parse().map_err(|e| bad(&format!("{e}")))?,
        }),
        "OffChip" => Ok(NodeKind::OffChip {
            dims: parse_dims(parts.kv("dims")?)?,
        }),
        "Bram" => Ok(NodeKind::Bram(BramSpec {
            dims: parse_dims(parts.kv("dims")?)?,
            double_buf: parts.kv("db")? == "1",
            banks: parts
                .kv("banks")?
                .parse()
                .map_err(|e| bad(&format!("{e}")))?,
            word_width: parts.kv("ww")?.parse().map_err(|e| bad(&format!("{e}")))?,
            interleave: match parts.kv("il")? {
                "cyclic" => Interleaving::Cyclic,
                "blocked" => Interleaving::Blocked,
                other => return Err(bad(&format!("bad interleave `{other}`"))),
            },
        })),
        "Reg" => Ok(NodeKind::Reg(RegSpec {
            init: parts
                .kv("init")?
                .parse()
                .map_err(|e| bad(&format!("{e}")))?,
            double_buf: parts.kv("db")? == "1",
        })),
        "PQueue" => Ok(NodeKind::PriorityQueue(QueueSpec {
            depth: parts
                .kv("depth")?
                .parse()
                .map_err(|e| bad(&format!("{e}")))?,
            double_buf: parts.kv("db")? == "1",
        })),
        "Pipe" => {
            let ctr = parse_ctr(parts.kv("ctr")?)?;
            let par = parts.kv("par")?.parse().map_err(|e| bad(&format!("{e}")))?;
            let pattern = parse_pattern(parts.kv("pat")?)?;
            let body = parse_ids(parts.kv("body")?)?;
            let reduce = parse_triple(parts.kv("red")?)?.map(|(value, reg, op)| RegReduce {
                value,
                reg,
                op,
            });
            Ok(NodeKind::Pipe(PipeSpec {
                ctr,
                par,
                pattern,
                body,
                reduce,
            }))
        }
        "MetaPipe" | "Sequential" => {
            let ctr = parse_ctr(parts.kv("ctr")?)?;
            let par = parts.kv("par")?.parse().map_err(|e| bad(&format!("{e}")))?;
            let pattern = parse_pattern(parts.kv("pat")?)?;
            let stages = parse_ids(parts.kv("stages")?)?;
            let locals = parse_ids(parts.kv("locals")?)?;
            let fold =
                parse_triple(parts.kv("fold")?)?.map(|(src, accum, op)| MemFold { src, accum, op });
            let spec = OuterSpec {
                ctr,
                par,
                pattern,
                stages,
                locals,
                fold,
            };
            Ok(if tag == "MetaPipe" {
                NodeKind::MetaPipe(spec)
            } else {
                NodeKind::Sequential(spec)
            })
        }
        "Parallel" => Ok(NodeKind::ParallelCtrl {
            stages: parse_ids(parts.kv("stages")?)?,
            locals: parse_ids(parts.kv("locals")?)?,
        }),
        "TileLoad" | "TileStore" => {
            let spec = TileSpec {
                offchip: NodeId::from_raw(
                    parts.kv("off")?.parse().map_err(|e| bad(&format!("{e}")))?,
                ),
                local: NodeId::from_raw(
                    parts
                        .kv("local")?
                        .parse()
                        .map_err(|e| bad(&format!("{e}")))?,
                ),
                offsets: parse_ids(parts.kv("offsets")?)?,
                tile: parse_dims(parts.kv("tile")?)?,
                par: parts.kv("par")?.parse().map_err(|e| bad(&format!("{e}")))?,
            };
            Ok(if tag == "TileLoad" {
                NodeKind::TileLoad(spec)
            } else {
                NodeKind::TileStore(spec)
            })
        }
        other => Err(bad(&format!("unknown node tag `{other}`"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::node::{by, ReduceOp};

    fn sample() -> Design {
        let mut b = DesignBuilder::new("round trip");
        let x = b.off_chip("x", DType::F32, &[128]);
        let y = b.off_chip("y", DType::Bool, &[128]);
        b.sequential(|b| {
            let acc = b.reg("acc", DType::F32, 1.5);
            let q = b.priority_queue("q", DType::F32, 16);
            let _ = q;
            b.outer_fold(true, &[by(128, 32)], 2, acc, ReduceOp::Max, |b, iters| {
                let i = iters[0];
                let xt = b.bram("xT", DType::F32, &[32]);
                let yt = b.bram("yT", DType::Bool, &[32]);
                let partial = b.reg("p", DType::F32, 0.0);
                b.parallel(|b| {
                    b.tile_load(x, xt, &[i], &[32], 2);
                    b.tile_load(y, yt, &[i], &[32], 1);
                });
                b.pipe_reduce(&[by(32, 1)], 2, partial, ReduceOp::Max, |b, it| {
                    let v = b.load(xt, &[it[0]]);
                    let lbl = b.load(yt, &[it[0]]);
                    let z = b.constant(0.0, DType::F32);
                    b.mux(lbl, v, z)
                });
                partial
            });
        });
        b.finish().unwrap()
    }

    #[test]
    fn roundtrip_is_exact() {
        let d = sample();
        let text = to_text(&d);
        let back = from_text(&text).expect("parses");
        assert_eq!(d, back);
        // Second round trip is also stable.
        assert_eq!(to_text(&back), text);
    }

    #[test]
    fn names_with_spaces_survive() {
        let d = sample();
        let back = from_text(&to_text(&d)).unwrap();
        assert_eq!(back.name(), "round trip");
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_text("").is_err());
        assert!(from_text("nope").is_err());
        assert!(from_text("dhdl v1 x\ntop 0\noffchips\nnode 0 garbage").is_err());
        let d = sample();
        let text = to_text(&d);
        // Drop a node: ids become non-contiguous.
        let broken: Vec<&str> = text.lines().filter(|l| !l.contains("node 3 ")).collect();
        assert!(from_text(&broken.join("\n")).is_err());
    }
}
