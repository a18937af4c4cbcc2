//! Replayable corpus persistence.
//!
//! Every fuzz case — a [`DesignSpec`], a [`PatternSpec`] or a
//! [`DnnSpec`] — serializes to a single self-contained
//! [`dhdl_core::record`] line, its fields in one fixed order (floats as
//! IEEE-754 bit patterns, so round-trips are exact). Failing cases are
//! shrunk and written to `tests/corpus/*.case`; a corpus file is:
//!
//! ```text
//! dhdl-fuzz case v1
//! invariant=<name or `none` for seed cases>
//! design v1 case=... ty=... n=... ...
//! ```
//!
//! Replaying a corpus directory re-runs the full oracle on each case and
//! must produce zero violations once the underlying bug is fixed (seed
//! cases pin the no-violation baseline from day one).

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use dhdl_core::record::{Join, Reader, Writer};
use dhdl_core::{DType, PrimOp, ReduceOp};
use dhdl_obs::json::{bits_str, parse_bits};

use crate::dnn::{DnnKind, DnnSpec};
use crate::gen::{DesignSpec, MapStep, Operand};
use crate::oracle::{Conformance, Violation};
use crate::patgen::{PatRhs, PatStep, PatternSpec};
use crate::shrink::{shrink, shrink_dnn, shrink_pattern};

/// The corpus file header line.
pub const HEADER: &str = "dhdl-fuzz case v1";

/// One persisted fuzz case.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusCase {
    /// The invariant this case violated when captured (`none` for seed
    /// cases that pin the passing baseline).
    pub invariant: String,
    /// The payload spec.
    pub kind: CaseKind,
}

/// The kinds of generated specs a corpus can hold.
#[derive(Debug, Clone, PartialEq)]
pub enum CaseKind {
    /// A raw DHDL design spec.
    Design(DesignSpec),
    /// A pattern-frontend spec.
    Pattern(PatternSpec),
    /// A DNN-shaped fragment spec (conv2d/attention).
    Dnn(DnnSpec),
}

impl CorpusCase {
    /// The canonical file name for this case.
    pub fn file_name(&self) -> String {
        match &self.kind {
            CaseKind::Design(s) => format!("{}-d{:016x}.case", self.invariant, s.case_id),
            CaseKind::Pattern(s) => format!("{}-p{:016x}.case", self.invariant, s.case_id),
            CaseKind::Dnn(s) => format!("{}-n{:016x}.case", self.invariant, s.case_id),
        }
    }

    /// Render the whole case file.
    pub fn to_text(&self) -> String {
        let mut w = Writer::default();
        w.word(HEADER).end();
        w.field("invariant", &self.invariant).end();
        w.word(self.kind.to_line()).end();
        w.finish()
    }

    /// Parse a case file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line.
    pub fn from_text(text: &str) -> Result<CorpusCase, String> {
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return Err(format!("missing `{HEADER}` header"));
        }
        let mut r = Reader::new(lines.next().unwrap_or_default());
        let invariant = r.value("invariant", |s| Some(s.to_string()))?;
        r.end()?;
        let spec = lines.next().ok_or("missing spec line")?;
        let kind = match Reader::new(spec).word("a spec tag", Some)? {
            "design" => CaseKind::Design(design_from_line(spec)?),
            "pattern" => CaseKind::Pattern(pattern_from_line(spec)?),
            "dnn" => CaseKind::Dnn(dnn_from_line(spec)?),
            other => return Err(format!("unknown spec tag `{other}`")),
        };
        Ok(CorpusCase { invariant, kind })
    }
}

impl CaseKind {
    /// The spec's one-line encoding.
    pub fn to_line(&self) -> String {
        match self {
            CaseKind::Design(s) => design_to_line(s),
            CaseKind::Pattern(s) => pattern_to_line(s),
            CaseKind::Dnn(s) => dnn_to_line(s),
        }
    }

    /// Run the spec's layered oracle.
    pub fn check(&self, conf: &Conformance) -> Vec<Violation> {
        match self {
            CaseKind::Design(s) => conf.check_design(s),
            CaseKind::Pattern(s) => conf.check_pattern(s),
            CaseKind::Dnn(s) => conf.check_dnn(s),
        }
    }

    /// Greedily shrink a failing spec while it still violates `invariant`.
    pub fn shrink(&self, conf: &Conformance, invariant: &str) -> CaseKind {
        match self {
            CaseKind::Design(s) => CaseKind::Design(shrink(conf, s, invariant)),
            CaseKind::Pattern(s) => CaseKind::Pattern(shrink_pattern(conf, s, invariant)),
            CaseKind::Dnn(s) => CaseKind::Dnn(shrink_dnn(conf, s, invariant)),
        }
    }
}

/// Write a case into `dir`, returning the path.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_case(dir: &Path, case: &CorpusCase) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(case.file_name());
    fs::write(&path, case.to_text())?;
    Ok(path)
}

/// Load every `*.case` file in `dir`, sorted by file name (so replay
/// order — and therefore output — is deterministic).
///
/// # Errors
///
/// Returns a description of the first unreadable or malformed file.
pub fn load_dir(dir: &Path) -> Result<Vec<(PathBuf, CorpusCase)>, String> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            let case = CorpusCase::from_text(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok((p, case))
        })
        .collect()
}

/// The corpus's own type spelling, `fix:<sign>:<int>:<frac>` for fixed
/// point: the tracked case files are written this way.
struct Ty(DType);

impl fmt::Display for Ty {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            DType::Fix { sign, int, frac } => write!(f, "fix:{}:{int}:{frac}", u8::from(sign)),
            ty => ty.fmt(f),
        }
    }
}

fn ty_parse(s: &str) -> Option<DType> {
    let Some(bits) = s.strip_prefix("fix:") else {
        return s.parse().ok().filter(|ty| !matches!(ty, DType::Fix { .. }));
    };
    let mut parts = bits.split(':');
    let sign = match parts.next()? {
        "0" => false,
        "1" => true,
        _ => return None,
    };
    let ty = DType::fixed(
        sign,
        parts.next()?.parse().ok()?,
        parts.next()?.parse().ok()?,
    );
    parts.next().is_none().then_some(ty)
}

fn hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s, 16).ok()
}

/// A terminal reduction, or `-` for none.
fn reduce_text(op: Option<ReduceOp>) -> &'static str {
    op.map_or("-", ReduceOp::name)
}

fn reduce_parse(s: &str) -> Option<Option<ReduceOp>> {
    match s {
        "-" => Some(None),
        _ => ReduceOp::from_name(s).map(Some),
    }
}

/// A `;`-separated list of steps, `-` when there is none.
struct Steps<'a, T>(&'a [T]);

impl<T: fmt::Display> fmt::Display for Steps<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            [] => f.write_str("-"),
            steps => Join(';', steps).fmt(f),
        }
    }
}

fn steps_parse<T>(s: &str, step: impl FnMut(&str) -> Option<T>) -> Option<Vec<T>> {
    match s {
        "-" => Some(Vec::new()),
        _ => s.split(';').map(step).collect(),
    }
}

/// The corpus encoding: `l:<f64 bits>`, `y` or `i`.
impl fmt::Display for Operand {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Operand::Lit(c) => write!(f, "l:{}", bits_str(c)),
            Operand::Second => f.write_str("y"),
            Operand::Index => f.write_str("i"),
        }
    }
}

fn operand_parse(s: &str) -> Option<Operand> {
    match s {
        "y" => Some(Operand::Second),
        "i" => Some(Operand::Index),
        _ => s.strip_prefix("l:").and_then(parse_bits).map(Operand::Lit),
    }
}

/// The corpus encoding: `bin:<op>:<operand>`, `un:<op>` or
/// `sel:<threshold bits>:<operand>`.
impl fmt::Display for MapStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            MapStep::Bin { op, rhs } => write!(f, "bin:{}:{rhs}", op.name()),
            MapStep::Un { op } => write!(f, "un:{}", op.name()),
            MapStep::Select { thresh, rhs } => write!(f, "sel:{}:{rhs}", bits_str(thresh)),
        }
    }
}

fn step_parse(s: &str) -> Option<MapStep> {
    let (tag, rest) = s.split_once(':')?;
    match tag {
        "bin" => {
            let (op, rhs) = rest.split_once(':')?;
            Some(MapStep::Bin {
                op: PrimOp::from_name(op)?,
                rhs: operand_parse(rhs)?,
            })
        }
        "un" => Some(MapStep::Un {
            op: PrimOp::from_name(rest)?,
        }),
        "sel" => {
            let (thresh, rhs) = rest.split_once(':')?;
            Some(MapStep::Select {
                thresh: parse_bits(thresh)?,
                rhs: operand_parse(rhs)?,
            })
        }
        _ => None,
    }
}

/// Render a design spec as its one-line corpus form.
pub fn design_to_line(s: &DesignSpec) -> String {
    let mut w = Writer::default();
    w.word("design v1")
        .field("case", format_args!("{:x}", s.case_id))
        .field("ty", Ty(s.ty))
        .field("n", s.n)
        .field("tile", s.tile)
        .field("par", s.par)
        .field("lp", s.load_par)
        .flag("mp", s.metapipe)
        .flag("seq", s.nested_seq)
        .flag("plo", s.parallel_loads)
        .field("s1", Steps(&s.stage1))
        .field("s2", Steps(&s.stage2))
        .field("red", reduce_text(s.reduce));
    w.finish()
}

/// Parse a design spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn design_from_line(line: &str) -> Result<DesignSpec, String> {
    let mut r = Reader::open(line, "design")?;
    let spec = DesignSpec {
        case_id: r.value("case", hex)?,
        ty: r.value("ty", ty_parse)?,
        n: r.num("n")?,
        tile: r.num("tile")?,
        par: r.num("par")?,
        load_par: r.num("lp")?,
        metapipe: r.flag("mp")?,
        nested_seq: r.flag("seq")?,
        parallel_loads: r.flag("plo")?,
        stage1: r.value("s1", |s| steps_parse(s, step_parse))?,
        stage2: r.value("s2", |s| steps_parse(s, step_parse))?,
        reduce: r.value("red", reduce_parse)?,
    };
    r.end()?;
    Ok(spec)
}

fn dnn_kind_text(kind: DnnKind) -> &'static str {
    match kind {
        DnnKind::Conv => "conv",
        DnnKind::Attn => "attn",
    }
}

/// Render a DNN fragment spec as its one-line corpus form.
pub fn dnn_to_line(s: &DnnSpec) -> String {
    let mut w = Writer::default();
    w.word("dnn v1")
        .field("case", format_args!("{:x}", s.case_id))
        .field("kind", dnn_kind_text(s.kind))
        .field("size", s.size)
        .field("cout", s.cout)
        .field("tile", s.tile)
        .field("par", s.par)
        .field("par2", s.par2)
        .flag("mp", s.metapipe)
        .flag("mp2", s.metapipe2);
    w.finish()
}

/// Parse a DNN fragment spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn dnn_from_line(line: &str) -> Result<DnnSpec, String> {
    let mut r = Reader::open(line, "dnn")?;
    let spec = DnnSpec {
        case_id: r.value("case", hex)?,
        kind: r.value("kind", |s| {
            [DnnKind::Conv, DnnKind::Attn]
                .into_iter()
                .find(|&k| dnn_kind_text(k) == s)
        })?,
        size: r.num("size")?,
        cout: r.num("cout")?,
        tile: r.num("tile")?,
        par: r.num("par")?,
        par2: r.num("par2")?,
        metapipe: r.flag("mp")?,
        metapipe2: r.flag("mp2")?,
    };
    r.end()?;
    Ok(spec)
}

/// The corpus encoding: `l:<f64 bits>`, `in0` or `in1`.
impl fmt::Display for PatRhs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PatRhs::Lit(c) => write!(f, "l:{}", bits_str(c)),
            PatRhs::In0 => f.write_str("in0"),
            PatRhs::In1 => f.write_str("in1"),
        }
    }
}

fn pat_rhs_parse(s: &str) -> Option<PatRhs> {
    match s {
        "in0" => Some(PatRhs::In0),
        "in1" => Some(PatRhs::In1),
        _ => s.strip_prefix("l:").and_then(parse_bits).map(PatRhs::Lit),
    }
}

/// The corpus encoding: `<op>:<rhs>`.
impl fmt::Display for PatStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.op.name(), self.rhs)
    }
}

fn pat_step_parse(s: &str) -> Option<PatStep> {
    let (op, rhs) = s.split_once(':')?;
    Some(PatStep {
        op: PrimOp::from_name(op)?,
        rhs: pat_rhs_parse(rhs)?,
    })
}

/// Render a pattern spec as its one-line corpus form.
pub fn pattern_to_line(s: &PatternSpec) -> String {
    let mut w = Writer::default();
    w.word("pattern v1")
        .field("case", format_args!("{:x}", s.case_id))
        .field("len", s.len)
        .flag("two", s.two_inputs)
        .field("steps", Steps(&s.steps))
        .field("red", reduce_text(s.reduce));
    w.finish()
}

/// Parse a pattern spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn pattern_from_line(line: &str) -> Result<PatternSpec, String> {
    let mut r = Reader::open(line, "pattern")?;
    let spec = PatternSpec {
        case_id: r.value("case", hex)?,
        len: r.num("len")?,
        two_inputs: r.flag("two")?,
        steps: r.value("steps", |s| steps_parse(s, pat_step_parse))?,
        reduce: r.value("red", reduce_parse)?,
    };
    r.end()?;
    Ok(spec)
}
