//! Replayable corpus persistence.
//!
//! Every fuzz case — a [`DesignSpec`] or a [`PatternSpec`] — serializes
//! to a single self-contained text line (floats as IEEE-754 bit
//! patterns, so round-trips are exact). Failing cases are shrunk and
//! written to `tests/corpus/*.case`; a corpus file is:
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

use std::fs;
use std::path::{Path, PathBuf};

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
        let line = self.kind.to_line();
        format!("{HEADER}\ninvariant={}\n{line}\n", self.invariant)
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
        let inv = lines
            .next()
            .and_then(|l| l.strip_prefix("invariant="))
            .ok_or("missing `invariant=` line")?;
        let spec = lines.next().ok_or("missing spec line")?;
        let kind = if spec.starts_with("design v1 ") {
            CaseKind::Design(design_from_line(spec)?)
        } else if spec.starts_with("pattern v1 ") {
            CaseKind::Pattern(pattern_from_line(spec)?)
        } else if spec.starts_with("dnn v1 ") {
            CaseKind::Dnn(dnn_from_line(spec)?)
        } else {
            return Err(format!("unrecognized spec line: {spec}"));
        };
        Ok(CorpusCase {
            invariant: inv.to_string(),
            kind,
        })
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

fn ty_text(ty: DType) -> String {
    match ty {
        DType::F32 => "f32".to_string(),
        DType::F64 => "f64".to_string(),
        DType::Bool => "bool".to_string(),
        DType::Fix { sign, int, frac } => {
            format!("fix:{}:{int}:{frac}", u8::from(sign))
        }
    }
}

fn ty_parse(s: &str) -> Result<DType, String> {
    match s {
        "f32" => Ok(DType::F32),
        "f64" => Ok(DType::F64),
        "bool" => Ok(DType::Bool),
        other => {
            let parts: Vec<&str> = other.split(':').collect();
            if parts.len() == 4 && parts[0] == "fix" {
                let sign = parts[1] == "1";
                let int = parts[2].parse().map_err(|_| "bad int bits")?;
                let frac = parts[3].parse().map_err(|_| "bad frac bits")?;
                Ok(DType::fixed(sign, int, frac))
            } else {
                Err(format!("unrecognized dtype `{other}`"))
            }
        }
    }
}

fn prim_text(op: PrimOp) -> &'static str {
    match op {
        PrimOp::Add => "Add",
        PrimOp::Sub => "Sub",
        PrimOp::Mul => "Mul",
        PrimOp::Min => "Min",
        PrimOp::Max => "Max",
        PrimOp::Abs => "Abs",
        PrimOp::Neg => "Neg",
        PrimOp::Sqrt => "Sqrt",
        other => unreachable!("generator never emits {other:?}"),
    }
}

fn prim_parse(s: &str) -> Result<PrimOp, String> {
    Ok(match s {
        "Add" => PrimOp::Add,
        "Sub" => PrimOp::Sub,
        "Mul" => PrimOp::Mul,
        "Min" => PrimOp::Min,
        "Max" => PrimOp::Max,
        "Abs" => PrimOp::Abs,
        "Neg" => PrimOp::Neg,
        "Sqrt" => PrimOp::Sqrt,
        other => return Err(format!("unrecognized primitive `{other}`")),
    })
}

fn reduce_text(op: Option<ReduceOp>) -> &'static str {
    match op {
        None => "-",
        Some(ReduceOp::Add) => "Add",
        Some(ReduceOp::Min) => "Min",
        Some(ReduceOp::Max) => "Max",
    }
}

fn reduce_parse(s: &str) -> Result<Option<ReduceOp>, String> {
    Ok(match s {
        "-" => None,
        "Add" => Some(ReduceOp::Add),
        "Min" => Some(ReduceOp::Min),
        "Max" => Some(ReduceOp::Max),
        other => return Err(format!("unrecognized reduce op `{other}`")),
    })
}

fn operand_text(o: Operand) -> String {
    match o {
        Operand::Lit(c) => format!("l:{}", bits_str(c)),
        Operand::Second => "y".to_string(),
        Operand::Index => "i".to_string(),
    }
}

fn operand_parse(s: &str) -> Result<Operand, String> {
    match s {
        "y" => Ok(Operand::Second),
        "i" => Ok(Operand::Index),
        other => match other.strip_prefix("l:") {
            Some(bits) => Ok(Operand::Lit(
                parse_bits(bits).ok_or_else(|| format!("bad float bits `{bits}`"))?,
            )),
            None => Err(format!("unrecognized operand `{other}`")),
        },
    }
}

fn steps_text(steps: &[MapStep]) -> String {
    if steps.is_empty() {
        return "-".to_string();
    }
    steps
        .iter()
        .map(|s| match s {
            MapStep::Bin { op, rhs } => format!("bin:{}:{}", prim_text(*op), operand_text(*rhs)),
            MapStep::Un { op } => format!("un:{}", prim_text(*op)),
            MapStep::Select { thresh, rhs } => {
                format!("sel:{}:{}", bits_str(*thresh), operand_text(*rhs))
            }
        })
        .collect::<Vec<_>>()
        .join(";")
}

fn steps_parse(s: &str) -> Result<Vec<MapStep>, String> {
    if s == "-" {
        return Ok(Vec::new());
    }
    s.split(';')
        .map(|item| {
            let mut parts = item.splitn(2, ':');
            let tag = parts.next().unwrap_or("");
            let rest = parts.next().unwrap_or("");
            match tag {
                "bin" => {
                    let (op, rhs) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("malformed bin step `{item}`"))?;
                    Ok(MapStep::Bin {
                        op: prim_parse(op)?,
                        rhs: operand_parse(rhs)?,
                    })
                }
                "un" => Ok(MapStep::Un {
                    op: prim_parse(rest)?,
                }),
                "sel" => {
                    let (thresh, rhs) = rest
                        .split_once(':')
                        .ok_or_else(|| format!("malformed sel step `{item}`"))?;
                    Ok(MapStep::Select {
                        thresh: parse_bits(thresh)
                            .ok_or_else(|| format!("bad float bits `{thresh}`"))?,
                        rhs: operand_parse(rhs)?,
                    })
                }
                other => Err(format!("unrecognized step tag `{other}`")),
            }
        })
        .collect()
}

/// Render a design spec as its one-line corpus form.
pub fn design_to_line(s: &DesignSpec) -> String {
    format!(
        "design v1 case={:x} ty={} n={} tile={} par={} lp={} mp={} seq={} plo={} s1={} s2={} red={}",
        s.case_id,
        ty_text(s.ty),
        s.n,
        s.tile,
        s.par,
        s.load_par,
        u8::from(s.metapipe),
        u8::from(s.nested_seq),
        u8::from(s.parallel_loads),
        steps_text(&s.stage1),
        steps_text(&s.stage2),
        reduce_text(s.reduce),
    )
}

fn fields_of(line: &str, kind: &str) -> Result<Vec<(String, String)>, String> {
    let body = line
        .strip_prefix(&format!("{kind} v1 "))
        .ok_or_else(|| format!("not a `{kind} v1` line"))?;
    body.split_whitespace()
        .map(|field| {
            field
                .split_once('=')
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .ok_or_else(|| format!("malformed field `{field}`"))
        })
        .collect()
}

fn get<'a>(fields: &'a [(String, String)], key: &str) -> Result<&'a str, String> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v.as_str())
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn num<T: std::str::FromStr>(fields: &[(String, String)], key: &str) -> Result<T, String> {
    get(fields, key)?
        .parse()
        .map_err(|_| format!("bad numeric field `{key}`"))
}

/// Parse a design spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn design_from_line(line: &str) -> Result<DesignSpec, String> {
    let fields = fields_of(line, "design")?;
    Ok(DesignSpec {
        case_id: u64::from_str_radix(get(&fields, "case")?, 16)
            .map_err(|_| "bad case id".to_string())?,
        ty: ty_parse(get(&fields, "ty")?)?,
        n: num(&fields, "n")?,
        tile: num(&fields, "tile")?,
        par: num(&fields, "par")?,
        load_par: num(&fields, "lp")?,
        metapipe: get(&fields, "mp")? == "1",
        nested_seq: get(&fields, "seq")? == "1",
        parallel_loads: get(&fields, "plo")? == "1",
        stage1: steps_parse(get(&fields, "s1")?)?,
        stage2: steps_parse(get(&fields, "s2")?)?,
        reduce: reduce_parse(get(&fields, "red")?)?,
    })
}

/// Render a DNN fragment spec as its one-line corpus form.
pub fn dnn_to_line(s: &DnnSpec) -> String {
    let kind = match s.kind {
        DnnKind::Conv => "conv",
        DnnKind::Attn => "attn",
    };
    format!(
        "dnn v1 case={:x} kind={kind} size={} cout={} tile={} par={} par2={} mp={} mp2={}",
        s.case_id,
        s.size,
        s.cout,
        s.tile,
        s.par,
        s.par2,
        u8::from(s.metapipe),
        u8::from(s.metapipe2),
    )
}

/// Parse a DNN fragment spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn dnn_from_line(line: &str) -> Result<DnnSpec, String> {
    let fields = fields_of(line, "dnn")?;
    let kind = match get(&fields, "kind")? {
        "conv" => DnnKind::Conv,
        "attn" => DnnKind::Attn,
        other => return Err(format!("unrecognized dnn kind `{other}`")),
    };
    Ok(DnnSpec {
        case_id: u64::from_str_radix(get(&fields, "case")?, 16)
            .map_err(|_| "bad case id".to_string())?,
        kind,
        size: num(&fields, "size")?,
        cout: num(&fields, "cout")?,
        tile: num(&fields, "tile")?,
        par: num(&fields, "par")?,
        par2: num(&fields, "par2")?,
        metapipe: get(&fields, "mp")? == "1",
        metapipe2: get(&fields, "mp2")? == "1",
    })
}

fn pat_rhs_text(r: PatRhs) -> String {
    match r {
        PatRhs::Lit(c) => format!("l:{}", bits_str(c)),
        PatRhs::In0 => "in0".to_string(),
        PatRhs::In1 => "in1".to_string(),
    }
}

fn pat_rhs_parse(s: &str) -> Result<PatRhs, String> {
    match s {
        "in0" => Ok(PatRhs::In0),
        "in1" => Ok(PatRhs::In1),
        other => match other.strip_prefix("l:") {
            Some(bits) => Ok(PatRhs::Lit(
                parse_bits(bits).ok_or_else(|| format!("bad float bits `{bits}`"))?,
            )),
            None => Err(format!("unrecognized pattern rhs `{other}`")),
        },
    }
}

/// Render a pattern spec as its one-line corpus form.
pub fn pattern_to_line(s: &PatternSpec) -> String {
    let steps = if s.steps.is_empty() {
        "-".to_string()
    } else {
        s.steps
            .iter()
            .map(|st| format!("{}:{}", prim_text(st.op), pat_rhs_text(st.rhs)))
            .collect::<Vec<_>>()
            .join(";")
    };
    format!(
        "pattern v1 case={:x} len={} two={} steps={} red={}",
        s.case_id,
        s.len,
        u8::from(s.two_inputs),
        steps,
        reduce_text(s.reduce),
    )
}

/// Parse a pattern spec from its one-line corpus form.
///
/// # Errors
///
/// Returns a description of the first malformed field.
pub fn pattern_from_line(line: &str) -> Result<PatternSpec, String> {
    let fields = fields_of(line, "pattern")?;
    let steps_field = get(&fields, "steps")?;
    let steps = if steps_field == "-" {
        Vec::new()
    } else {
        steps_field
            .split(';')
            .map(|item| {
                let (op, rhs) = item
                    .split_once(':')
                    .ok_or_else(|| format!("malformed pattern step `{item}`"))?;
                Ok(PatStep {
                    op: prim_parse(op)?,
                    rhs: pat_rhs_parse(rhs)?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?
    };
    Ok(PatternSpec {
        case_id: u64::from_str_radix(get(&fields, "case")?, 16)
            .map_err(|_| "bad case id".to_string())?,
        len: num(&fields, "len")?,
        two_inputs: get(&fields, "two")? == "1",
        steps,
        reduce: reduce_parse(get(&fields, "red")?)?,
    })
}
