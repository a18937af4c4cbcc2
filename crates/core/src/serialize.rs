//! Textual serialization of design instances.
//!
//! A line-oriented format: a `dhdl v1 <name>` header, a `top` line, an
//! `offchips` line and one `node` record per node, in id order, written
//! and read with [`crate::record`]. It round-trips exactly:
//! `from_text(&to_text(d)) == d`, and `to_text` gives back the same bytes.
//! The `serialize-roundtrip` conformance oracle holds every generated
//! design to that (in `dhdl-fuzz` and in the benchmark's `fuzz`
//! workload), and tests patch the text to build designs the builder
//! refuses. [`from_text`] checks syntax only, never the design.

use std::fmt;

use crate::design::Design;
use crate::error::{DhdlError, Result};
use crate::node::{
    BramSpec, CounterChain, CounterDim, Interleaving, MemFold, Node, NodeId, NodeKind, OuterSpec,
    Pattern, PipeSpec, PrimOp, QueueSpec, ReduceOp, RegReduce, RegSpec, TileSpec,
};
use crate::record::{Join, Reader, Writer};

/// Serialize a design to the textual format.
pub fn to_text(design: &Design) -> String {
    let mut w = Writer::default();
    w.word("dhdl v1").word(Escaped(design.name())).end();
    w.word("top").word(design.top().index()).end();
    let offchips = design.offchips().iter().map(|o| o.index());
    w.word("offchips").word(Join(' ', offchips)).end();
    for (id, node) in design.iter() {
        w.word("node")
            .word(id.index())
            .field("ty", node.ty)
            .field("w", node.width)
            .field("name", Escaped(node.name.as_deref().unwrap_or_default()));
        write_kind(&mut w, &node.kind);
        w.end();
    }
    w.finish()
}

/// Parse a design from [`to_text`] output.
///
/// # Errors
///
/// Returns [`DhdlError::Validation`] describing the first malformed line.
pub fn from_text(text: &str) -> Result<Design> {
    let mut lines = text.lines();
    let name = lines
        .next()
        .and_then(|l| l.strip_prefix("dhdl v1 "))
        .and_then(unescape)
        .ok_or_else(|| bad("missing or malformed `dhdl v1` header"))?;
    let mut r = Reader::new(lines.next().unwrap_or_default());
    r.expect("top")?;
    let top = r.word("top node id", id)?;
    r.end()?;
    let mut r = Reader::new(lines.next().unwrap_or_default());
    r.expect("offchips")?;
    let offchips = r.rest("offchip id", id)?;
    let mut nodes = Vec::new();
    for line in lines.filter(|l| !l.trim().is_empty()) {
        let mut r = Reader::new(line);
        r.expect("node")?;
        let at = nodes.len();
        r.word("the next node id", |s| (s.parse() == Ok(at)).then_some(()))?;
        let ty = r.num("ty")?;
        let width = r.num("w")?;
        let name = r.value("name", |s| match s {
            "" => Some(None),
            s => unescape(s).map(|n| Some(n.into())),
        })?;
        let kind = read_kind(&mut r)?;
        r.end()?;
        nodes.push(Node {
            kind,
            ty,
            width,
            name,
        });
    }
    Ok(Design::from_parts(name.into(), nodes, top, offchips))
}

fn bad(msg: &str) -> DhdlError {
    DhdlError::Validation(format!("deserialize: {msg}"))
}

/// A name with `\`, space and newline written as `\\`, `\s` and `\n`, so
/// that it is one token.
struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '\\' => f.write_str("\\\\")?,
                ' ' => f.write_str("\\s")?,
                '\n' => f.write_str("\\n")?,
                c => fmt::Write::write_char(f, c)?,
            }
        }
        Ok(())
    }
}

/// The inverse of [`Escaped`]; `None` on any other escape.
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        out.push(match c {
            '\\' => match chars.next()? {
                '\\' => '\\',
                's' => ' ',
                'n' => '\n',
                _ => return None,
            },
            c => c,
        });
    }
    Some(out)
}

fn ids(v: &[NodeId]) -> Join<impl Iterator<Item = usize> + Clone + '_> {
    Join(',', v.iter().map(|i| i.index()))
}

fn id(s: &str) -> Option<NodeId> {
    s.parse().ok().map(NodeId::from_raw)
}

fn num<T: std::str::FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// A counter chain as `end`x`step` per dimension.
fn ctr(c: &CounterChain) -> Join<impl Iterator<Item = Dim> + Clone + '_> {
    Join(',', c.dims.iter().map(|&d| Dim(d)))
}

struct Dim(CounterDim);

impl fmt::Display for Dim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.0.end, self.0.step)
    }
}

fn read_dim(s: &str) -> Option<CounterDim> {
    let (end, step) = s.split_once('x')?;
    Some(CounterDim {
        end: end.parse().ok()?,
        step: step.parse().ok()?,
    })
}

/// `map` or `reduce-<op>`.
struct Pat(Pattern);

impl fmt::Display for Pat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Pattern::Map => f.write_str("map"),
            Pattern::Reduce(op) => write!(f, "reduce-{}", op.name()),
        }
    }
}

fn read_pattern(s: &str) -> Option<Pattern> {
    match s {
        "map" => Some(Pattern::Map),
        _ => s
            .strip_prefix("reduce-")
            .and_then(ReduceOp::from_name)
            .map(Pattern::Reduce),
    }
}

/// A pipe's reduction or an outer controller's fold, `value:target:op`,
/// or nothing.
struct Triple(Option<(NodeId, NodeId, ReduceOp)>);

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some((a, b, op)) => write!(f, "{}:{}:{}", a.index(), b.index(), op.name()),
            None => Ok(()),
        }
    }
}

fn read_triple(s: &str) -> Option<Option<(NodeId, NodeId, ReduceOp)>> {
    if s.is_empty() {
        return Some(None);
    }
    let mut parts = s.split(':');
    let triple = (
        id(parts.next()?)?,
        id(parts.next()?)?,
        ReduceOp::from_name(parts.next()?)?,
    );
    parts.next().is_none().then_some(Some(triple))
}

fn interleave_name(il: Interleaving) -> &'static str {
    match il {
        Interleaving::Cyclic => "cyclic",
        Interleaving::Blocked => "blocked",
    }
}

fn read_interleave(s: &str) -> Option<Interleaving> {
    [Interleaving::Cyclic, Interleaving::Blocked]
        .into_iter()
        .find(|&il| interleave_name(il) == s)
}

fn write_kind(w: &mut Writer, kind: &NodeKind) {
    match kind {
        NodeKind::Const(v) => w.word("Const").field("v", format_args!("{v:e}")),
        NodeKind::Prim { op, inputs } => w
            .word("Prim")
            .field("op", op.name())
            .field("in", ids(inputs)),
        NodeKind::Mux {
            sel,
            if_true,
            if_false,
        } => w
            .word("Mux")
            .field("sel", sel.index())
            .field("t", if_true.index())
            .field("f", if_false.index()),
        NodeKind::Load { mem, addr } => w
            .word("Load")
            .field("mem", mem.index())
            .field("addr", ids(addr)),
        NodeKind::Store { mem, addr, value } => w
            .word("Store")
            .field("mem", mem.index())
            .field("addr", ids(addr))
            .field("val", value.index()),
        NodeKind::Iter { ctrl, dim } => {
            w.word("Iter").field("ctrl", ctrl.index()).field("dim", dim)
        }
        NodeKind::OffChip { dims } => w.word("OffChip").field("dims", Join(',', dims.iter())),
        NodeKind::Bram(b) => w
            .word("Bram")
            .field("dims", Join(',', b.dims.iter()))
            .flag("db", b.double_buf)
            .field("banks", b.banks)
            .field("ww", b.word_width)
            .field("il", interleave_name(b.interleave)),
        NodeKind::Reg(r) => w
            .word("Reg")
            .field("init", format_args!("{:e}", r.init))
            .flag("db", r.double_buf),
        NodeKind::PriorityQueue(q) => w
            .word("PQueue")
            .field("depth", q.depth)
            .flag("db", q.double_buf),
        NodeKind::Pipe(p) => w
            .word("Pipe")
            .field("ctr", ctr(&p.ctr))
            .field("par", p.par)
            .field("pat", Pat(p.pattern))
            .field("body", ids(&p.body))
            .field("red", Triple(p.reduce.map(|r| (r.value, r.reg, r.op)))),
        NodeKind::MetaPipe(s) => write_outer(w, "MetaPipe", s),
        NodeKind::Sequential(s) => write_outer(w, "Sequential", s),
        NodeKind::ParallelCtrl { stages, locals } => w
            .word("Parallel")
            .field("stages", ids(stages))
            .field("locals", ids(locals)),
        NodeKind::TileLoad(t) => write_tile(w, "TileLoad", t),
        NodeKind::TileStore(t) => write_tile(w, "TileStore", t),
    };
}

fn write_outer<'w>(w: &'w mut Writer, tag: &str, s: &OuterSpec) -> &'w mut Writer {
    w.word(tag)
        .field("ctr", ctr(&s.ctr))
        .field("par", s.par)
        .field("pat", Pat(s.pattern))
        .field("stages", ids(&s.stages))
        .field("locals", ids(&s.locals))
        .field("fold", Triple(s.fold.map(|f| (f.src, f.accum, f.op))))
}

fn write_tile<'w>(w: &'w mut Writer, tag: &str, t: &TileSpec) -> &'w mut Writer {
    w.word(tag)
        .field("off", t.offchip.index())
        .field("local", t.local.index())
        .field("offsets", ids(&t.offsets))
        .field("tile", Join(',', t.tile.iter()))
        .field("par", t.par)
}

fn read_kind(r: &mut Reader<'_>) -> Result<NodeKind> {
    Ok(match r.word("a node kind", Some)? {
        "Const" => NodeKind::Const(r.num("v")?),
        "Prim" => NodeKind::Prim {
            op: r.value("op", PrimOp::from_name)?,
            inputs: r.list("in", id)?,
        },
        "Mux" => NodeKind::Mux {
            sel: r.value("sel", id)?,
            if_true: r.value("t", id)?,
            if_false: r.value("f", id)?,
        },
        "Load" => NodeKind::Load {
            mem: r.value("mem", id)?,
            addr: r.list("addr", id)?,
        },
        "Store" => NodeKind::Store {
            mem: r.value("mem", id)?,
            addr: r.list("addr", id)?,
            value: r.value("val", id)?,
        },
        "Iter" => NodeKind::Iter {
            ctrl: r.value("ctrl", id)?,
            dim: r.num("dim")?,
        },
        "OffChip" => NodeKind::OffChip {
            dims: r.list("dims", num)?,
        },
        "Bram" => NodeKind::Bram(BramSpec {
            dims: r.list("dims", num)?,
            double_buf: r.flag("db")?,
            banks: r.num("banks")?,
            word_width: r.num("ww")?,
            interleave: r.value("il", read_interleave)?,
        }),
        "Reg" => NodeKind::Reg(RegSpec {
            init: r.num("init")?,
            double_buf: r.flag("db")?,
        }),
        "PQueue" => NodeKind::PriorityQueue(QueueSpec {
            depth: r.num("depth")?,
            double_buf: r.flag("db")?,
        }),
        "Pipe" => NodeKind::Pipe(PipeSpec {
            ctr: CounterChain {
                dims: r.list("ctr", read_dim)?,
            },
            par: r.num("par")?,
            pattern: r.value("pat", read_pattern)?,
            body: r.list("body", id)?,
            reduce: r
                .value("red", read_triple)?
                .map(|(value, reg, op)| RegReduce { value, reg, op }),
        }),
        tag @ ("MetaPipe" | "Sequential") => {
            let spec = OuterSpec {
                ctr: CounterChain {
                    dims: r.list("ctr", read_dim)?,
                },
                par: r.num("par")?,
                pattern: r.value("pat", read_pattern)?,
                stages: r.list("stages", id)?,
                locals: r.list("locals", id)?,
                fold: r
                    .value("fold", read_triple)?
                    .map(|(src, accum, op)| MemFold { src, accum, op }),
            };
            if tag == "MetaPipe" {
                NodeKind::MetaPipe(spec)
            } else {
                NodeKind::Sequential(spec)
            }
        }
        "Parallel" => NodeKind::ParallelCtrl {
            stages: r.list("stages", id)?,
            locals: r.list("locals", id)?,
        },
        tag @ ("TileLoad" | "TileStore") => {
            let spec = TileSpec {
                offchip: r.value("off", id)?,
                local: r.value("local", id)?,
                offsets: r.list("offsets", id)?,
                tile: r.list("tile", num)?,
                par: r.num("par")?,
            };
            if tag == "TileLoad" {
                NodeKind::TileLoad(spec)
            } else {
                NodeKind::TileStore(spec)
            }
        }
        other => return Err(bad(&format!("unknown node kind `{other}`"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DesignBuilder;
    use crate::node::by;
    use crate::types::DType;

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

    /// The bytes of [`sample`]'s text: PQueue, Mux, both fold triples,
    /// `Parallel` and an escaped name.
    const SAMPLE_TEXT: &str = r"dhdl v1 round\strip
top 2
offchips 0 1
node 0 ty=f32 w=1 name=x OffChip dims=128
node 1 ty=bool w=1 name=y OffChip dims=128
node 2 ty=bool w=1 name= Sequential ctr= par=1 pat=map stages=5 locals=3,4 fold=
node 3 ty=f32 w=1 name=acc Reg init=1.5e0 db=1
node 4 ty=f32 w=1 name=q PQueue depth=16 db=0
node 5 ty=bool w=1 name= MetaPipe ctr=128x32 par=2 pat=reduce-Max stages=10,13 locals=7,8,9 fold=9:3:Max
node 6 ty=ufix32.0 w=1 name= Iter ctrl=5 dim=0
node 7 ty=f32 w=1 name=xT Bram dims=32 db=1 banks=2 ww=32 il=cyclic
node 8 ty=bool w=1 name=yT Bram dims=32 db=1 banks=2 ww=1 il=cyclic
node 9 ty=f32 w=1 name=p Reg init=0e0 db=1
node 10 ty=bool w=1 name= Parallel stages=11,12 locals=
node 11 ty=f32 w=2 name= TileLoad off=0 local=7 offsets=6 tile=32 par=2
node 12 ty=bool w=1 name= TileLoad off=1 local=8 offsets=6 tile=32 par=1
node 13 ty=bool w=1 name= Pipe ctr=32x1 par=2 pat=reduce-Max body=15,16,18 red=18:9:Max
node 14 ty=ufix32.0 w=1 name= Iter ctrl=13 dim=0
node 15 ty=f32 w=2 name= Load mem=7 addr=14
node 16 ty=bool w=2 name= Load mem=8 addr=14
node 17 ty=f32 w=1 name= Const v=0e0
node 18 ty=f32 w=2 name= Mux sel=16 t=15 f=17
";

    #[test]
    fn sample_text_is_pinned() {
        assert_eq!(to_text(&sample()), SAMPLE_TEXT);
        assert_eq!(to_text(&from_text(SAMPLE_TEXT).unwrap()), SAMPLE_TEXT);
    }

    #[test]
    fn names_with_spaces_survive() {
        let d = sample();
        let back = from_text(&to_text(&d)).unwrap();
        assert_eq!(back.name(), "round trip");
        for name in ["a\\s b", "\\", "x\ny", "\\n"] {
            let text = SAMPLE_TEXT.replacen("round\\strip", &Escaped(name).to_string(), 1);
            assert_eq!(from_text(&text).unwrap().name(), name, "{text}");
        }
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        assert!(from_text("").is_err());
        assert!(from_text("nope").is_err());
        assert!(from_text("dhdl v1 x\ntop 0\noffchips\nnode 0 garbage").is_err());
        // Drop a node: ids become non-contiguous.
        let broken: Vec<&str> = SAMPLE_TEXT
            .lines()
            .filter(|l| !l.contains("node 3 "))
            .collect();
        assert!(from_text(&broken.join("\n")).is_err());
        let err = from_text(&SAMPLE_TEXT.replace("db=0", "db=2")).unwrap_err();
        assert!(err.to_string().ends_with("bad value in `db=2`"), "{err}");
        // Every token dropped or garbled (`\x` makes no number, list item,
        // name or tag), and every node kind unknown. Only garbled: the
        // offchip ids, the one list whose items are tokens.
        let lines: Vec<&str> = SAMPLE_TEXT.lines().collect();
        for (i, line) in lines.iter().enumerate() {
            let rejects = |new: &str| {
                let mut text = lines.clone();
                text[i] = new;
                from_text(&text.join("\n")).is_err()
            };
            let tokens: Vec<&str> = line.split(' ').collect();
            for j in 0..tokens.len() {
                let (mut garbled, mut dropped) = (tokens.clone(), tokens.clone());
                let bad = format!("{}\\x", tokens[j]);
                garbled[j] = &bad;
                assert!(rejects(&garbled.join(" ")), "{line}: garbled {j}");
                dropped.remove(j);
                let list_item = i == 2 && j > 0;
                assert!(
                    list_item || rejects(&dropped.join(" ")),
                    "{line}: dropped {j}"
                );
            }
            if line.starts_with("node") {
                assert!(rejects(&line.replacen(tokens[5], "Wat", 1)), "{line}");
            }
        }
    }
}
