//! The request/response vocabulary of the serving protocol.
//!
//! One request frame carries one JSON object with an `op` plus common
//! header fields; one response frame carries one JSON object with a
//! `status`. Every malformed input maps to a *structured* error response
//! ([`ProtoError`]) — the server never answers garbage with silence or a
//! dead socket unless framing itself is broken.
//!
//! | `op` | payload | reply |
//! |---|---|---|
//! | `health` | — | server state (`accepting`/`draining`) |
//! | `stats` | — | request/admission/cache counters |
//! | `submit` | `bench` | design validated; legal-space size |
//! | `estimate` | `bench`, `params` | bit-exact estimate for one point |
//! | `sweep` | `bench`, `points`, `seed`, optional `num_fpgas` | full DSE result (points + front) |
//! | `shutdown` | — | begins graceful drain |
//!
//! Common header fields: `tenant` (admission-queue key, default
//! `"anon"`), `priority` (0 = sheddable … 2 = critical, default 1)
//! and `deadline_ms` (propagated into [`dhdl_dse::DseOptions::deadline`];
//! expired work is cancelled, never silently completed). Members the
//! parser does not know are skipped, so a client still sending the
//! retired idempotency `key` gets the same answer as one that does not.
//! Every sweep is a random sweep, but its retired `strategy` member is
//! still read: `"random"` (trimmed, any case, or empty) gets the answer a
//! request without it gets, and any other value is refused as
//! `bad_request` instead of answered with a sweep the client did not
//! ask for.
//!
//! ## Bit-exact floats
//!
//! Cycle counts and area fields cross the wire as 16-hex-digit IEEE-754
//! bit patterns ([`bits_str`]/[`parse_bits`]), never as JSON numbers, so
//! a sweep fetched through the server is *byte-identical* to one run
//! in-process — the chaos suite asserts exactly that.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write as _;

use dhdl_core::ParamValues;
use dhdl_dse::DesignPoint;
use dhdl_estimate::Estimate;
use dhdl_target::AreaReport;

use crate::json::{write_bool, write_num, write_str, Json, JsonError, ObjWriter, Parser};

/// Protocol version, echoed in `health` responses.
pub const PROTOCOL_VERSION: u64 = 1;

/// Render an `f64` as its 16-hex-digit IEEE-754 bit pattern.
pub fn bits_str(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

/// Append an `f64` as the string [`bits_str`] renders (hex digits need no
/// escaping).
fn write_bits(out: &mut Vec<u8>, v: f64) {
    // Writing into a `Vec` cannot fail.
    let _ = write!(out, "\"{:016x}\"", v.to_bits());
}

/// Parse a 16-hex-digit IEEE-754 bit pattern back to the exact `f64`.
pub fn parse_bits(s: &str) -> Option<f64> {
    if s.len() != 16 {
        return None;
    }
    u64::from_str_radix(s, 16).ok().map(f64::from_bits)
}

/// A structured protocol failure: a stable machine-readable `code` plus
/// a human-readable message. Rendered as a `status: "error"` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// Stable error code (`bad_json`, `bad_request`, `unknown_bench`, …).
    pub code: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// Build an error with `code` and `message`.
    pub fn new(code: &'static str, message: impl Into<String>) -> Self {
        ProtoError {
            code,
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Common request header fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Header {
    /// Admission-queue key; each tenant gets an independent bounded
    /// queue so one noisy client cannot starve the rest.
    pub tenant: String,
    /// 0 = sheddable, 1 = normal, 2 = critical. Under load the server
    /// sheds priority-0 sweeps first.
    pub priority: u8,
    /// Request deadline in milliseconds, propagated into
    /// [`dhdl_dse::DseOptions::deadline`].
    pub deadline_ms: Option<u64>,
}

impl Default for Header {
    fn default() -> Self {
        Header {
            tenant: "anon".to_string(),
            priority: 1,
            deadline_ms: None,
        }
    }
}

/// The operation a request asks for.
// `Estimate` holds its `ParamValues` inline: an `Op` lives for one
// request, and boxing them would add an allocation to every cache hit.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Liveness/state probe.
    Health,
    /// Server counters snapshot.
    Stats,
    /// Validate a design submission (benchmark metaprogram by name) and
    /// report its legal-space size.
    Submit {
        /// Benchmark name (see `dhdl_apps::by_name`).
        bench: String,
    },
    /// Estimate one design point.
    Estimate {
        /// Benchmark name.
        bench: String,
        /// Parameter assignment.
        params: ParamValues,
    },
    /// Run a DSE sweep.
    Sweep {
        /// Benchmark name.
        bench: String,
        /// Points to sample (capped by the server's configured maximum).
        points: usize,
        /// Sampling seed. On the wire it is a JSON number: a request
        /// whose `seed` is not an exact integer below 9e15 is refused as
        /// `bad_request`; one without a `seed` uses `0xD5E`.
        seed: u64,
        /// Maximum devices for the multi-FPGA partitioning axis. `None`
        /// or `Some(1)` sweeps the single-chip space (bit-identical to
        /// requests predating the field); `Some(k > 1)` adds the
        /// `num_fpgas` parameter to the swept space.
        num_fpgas: Option<u32>,
    },
    /// Begin graceful drain (stop accepting, finish in-flight work,
    /// exit).
    Shutdown,
}

impl Op {
    /// The op name on the wire.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Health => "health",
            Op::Stats => "stats",
            Op::Submit { .. } => "submit",
            Op::Estimate { .. } => "estimate",
            Op::Sweep { .. } => "sweep",
            Op::Shutdown => "shutdown",
        }
    }
}

/// One parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Common header fields.
    pub header: Header,
    /// The requested operation.
    pub op: Op,
}

impl Request {
    /// A request for `op` with default header fields.
    pub fn new(op: Op) -> Self {
        Request {
            header: Header::default(),
            op,
        }
    }

    /// Parse a request frame. No tree is built: the known fields are read
    /// off the parser into typed slots (a repeated key keeps its last
    /// occurrence), everything else is checked and skipped, and the slots
    /// are validated once the whole document has parsed — so a malformed
    /// document is `bad_json` whatever its fields hold.
    ///
    /// # Errors
    ///
    /// Returns a structured [`ProtoError`] (`bad_json`, `bad_request`)
    /// on any malformation; the server renders it as an error response.
    pub fn parse(payload: &[u8]) -> Result<Request, ProtoError> {
        let bad_json = |e: JsonError| ProtoError::new("bad_json", e.to_string());
        let bad = |message: &str| ProtoError::new("bad_request", message);
        let mut p = Parser::new(payload);
        let mut f = Fields::default();
        if p.peek() != Some(b'{') {
            p.value(0, false)
                .and_then(|_| p.finish())
                .map_err(bad_json)?;
            return Err(bad("request must be a JSON object"));
        }
        p.members(|p, key| f.member(p, &key))
            .and_then(|()| p.finish())
            .map_err(bad_json)?;

        let op_name = f.op.ok_or_else(|| bad("missing string field `op`"))?;
        let header = Header {
            tenant: f.tenant.map_or_else(|| "anon".to_string(), Cow::into_owned),
            priority: match f.priority {
                None => 1,
                Some(None) => return Err(bad("`priority` must be an integer 0..=2")),
                Some(Some(p)) => u8::try_from(p.min(2)).expect("clamped"),
            },
            deadline_ms: match f.deadline_ms {
                None => None,
                Some(None) => return Err(bad("`deadline_ms` must be a non-negative integer")),
                Some(Some(d)) => Some(d),
            },
        };
        let bench = f.bench.map(Cow::into_owned);
        let bench = || bench.ok_or_else(|| bad("missing string field `bench`"));
        let op = match &*op_name {
            "health" => Op::Health,
            "stats" => Op::Stats,
            "shutdown" => Op::Shutdown,
            "submit" => Op::Submit { bench: bench()? },
            "estimate" => {
                let params = f.params.ok_or_else(|| bad("missing object `params`"))?;
                let bench = bench()?;
                // Of several bad values, the first in name order is named.
                if let Some(name) = params.bad.iter().min() {
                    return Err(bad(&format!(
                        "parameter `{name}` must be a non-negative integer"
                    )));
                }
                Op::Estimate {
                    bench,
                    params: params.values,
                }
            }
            "sweep" => {
                let bench = bench()?;
                let points = f.points.ok_or_else(|| bad("missing integer `points`"))? as usize;
                let seed = match f.seed {
                    None => 0xD5E,
                    // Numbers travel as `f64`: a seed that is not an exact
                    // integer there (2^53 and beyond) would run another
                    // sweep than the one asked for.
                    Some(None) => {
                        return Err(bad("`seed` must be a non-negative integer below 9e15"))
                    }
                    Some(Some(seed)) => seed,
                };
                match f.strategy {
                    None => {}
                    Some(None) => return Err(bad("`strategy` must be a string")),
                    Some(Some(name)) => check_strategy(&name)?,
                }
                let num_fpgas = match f.num_fpgas {
                    None => None,
                    Some(Some(0)) => return Err(bad("`num_fpgas` must be at least 1")),
                    Some(Some(k)) => {
                        Some(u32::try_from(k).map_err(|_| bad("`num_fpgas` must be an integer"))?)
                    }
                    Some(None) => return Err(bad("`num_fpgas` must be an integer")),
                };
                Op::Sweep {
                    bench,
                    points,
                    seed,
                    num_fpgas,
                }
            }
            other => {
                return Err(ProtoError::new(
                    "unknown_op",
                    format!("unrecognized op `{other}`"),
                ))
            }
        };
        Ok(Request { header, op })
    }

    /// Render this request as a frame payload.
    pub fn render(&self) -> Vec<u8> {
        let (bench, params, sweep) = match &self.op {
            Op::Health | Op::Stats | Op::Shutdown => (None, None, None),
            Op::Submit { bench } => (Some(bench), None, None),
            Op::Estimate { bench, params } => (Some(bench), Some(params), None),
            Op::Sweep {
                bench,
                points,
                seed,
                num_fpgas,
            } => (Some(bench), None, Some((points, seed, num_fpgas))),
        };
        let mut out = Vec::with_capacity(160);
        let mut obj = ObjWriter::begin(&mut out);
        if let Some(bench) = bench {
            write_str(obj.key("bench"), bench);
        }
        if let Some(d) = self.header.deadline_ms {
            write_num(obj.key("deadline_ms"), d as f64);
        }
        if let Some((.., Some(k))) = sweep {
            write_num(obj.key("num_fpgas"), f64::from(*k));
        }
        write_str(obj.key("op"), self.op.name());
        if let Some(params) = params {
            write_params(obj.key("params"), params);
        }
        if let Some((points, ..)) = sweep {
            write_num(obj.key("points"), *points as f64);
        }
        write_num(obj.key("priority"), f64::from(self.header.priority));
        if let Some((_, seed, _)) = sweep {
            write_num(obj.key("seed"), *seed as f64);
        }
        write_str(obj.key("tenant"), &self.header.tenant);
        obj.end();
        out
    }
}

/// Accept the retired `strategy` member of a sweep only when it names the
/// random sweep every sweep is: `random` in any case, or empty, around
/// any whitespace. Any other value is refused, not swept at random.
pub(crate) fn check_strategy(name: &str) -> Result<(), ProtoError> {
    match name.trim().to_ascii_lowercase().as_str() {
        "" | "random" => Ok(()),
        _ => Err(ProtoError::new(
            "bad_request",
            format!("`strategy` `{name}` is not served: every sweep is `random`"),
        )),
    }
}

/// A request field whose wrong type is reported rather than read as
/// missing: `None` if the key never occurred, `Some(None)` if its last
/// occurrence held a value of another type.
type Slot<T> = Option<Option<T>>;

/// A `params` object: the values that are integers, and the names whose
/// last occurrence is not.
#[derive(Default)]
struct Params<'a> {
    values: ParamValues,
    bad: Vec<Cow<'a, str>>,
}

/// The request fields [`Request::parse`] knows, as the document left them
/// (the last occurrence of a repeated key; a plain `Option` is `None` for a
/// mistyped value too).
#[derive(Default)]
struct Fields<'a> {
    op: Option<Cow<'a, str>>,
    tenant: Option<Cow<'a, str>>,
    priority: Slot<u64>,
    deadline_ms: Slot<u64>,
    bench: Option<Cow<'a, str>>,
    params: Option<Params<'a>>,
    points: Option<u64>,
    seed: Slot<u64>,
    strategy: Slot<Cow<'a, str>>,
    num_fpgas: Slot<u64>,
}

impl<'a> Fields<'a> {
    /// Consume the value of top-level member `key` into its slot.
    fn member(&mut self, p: &mut Parser<'a>, key: &str) -> Result<(), JsonError> {
        let string = |p: &mut Parser<'a>| -> Result<Option<Cow<'a, str>>, JsonError> {
            if p.peek() == Some(b'"') {
                return Ok(Some(p.string()?));
            }
            p.value(1, false)?;
            Ok(None)
        };
        let integer = |p: &mut Parser<'a>| -> Result<Option<u64>, JsonError> {
            Ok(p.value(1, false)?.as_u64())
        };
        match key {
            "op" => self.op = string(p)?,
            "tenant" => self.tenant = string(p)?,
            "priority" => self.priority = Some(integer(p)?),
            "deadline_ms" => self.deadline_ms = Some(integer(p)?),
            "bench" => self.bench = string(p)?,
            "points" => self.points = integer(p)?,
            "seed" => self.seed = Some(integer(p)?),
            "strategy" => self.strategy = Some(string(p)?),
            "num_fpgas" => self.num_fpgas = Some(integer(p)?),
            "params" if p.peek() == Some(b'{') => {
                let mut params = Params::default();
                p.members(|p, name| {
                    match p.value(2, false)?.as_u64() {
                        Some(v) => {
                            params.values.set(&name, v);
                            params.bad.retain(|bad| *bad != name);
                        }
                        None if params.bad.contains(&name) => {}
                        None => params.bad.push(name),
                    }
                    Ok(())
                })?;
                self.params = Some(params);
            }
            "params" => {
                p.value(1, false)?;
                self.params = None;
            }
            _ => {
                p.value(1, false)?;
            }
        }
        Ok(())
    }
}

/// Write a parameter assignment as an object (names ascend: `ParamValues`
/// iterates in name order).
fn write_params(out: &mut Vec<u8>, params: &ParamValues) {
    let mut obj = ObjWriter::begin(out);
    for (name, value) in params.iter() {
        write_num(obj.key(name), value as f64);
    }
    obj.end();
}

/// Render a parameter assignment as a JSON object.
pub fn params_to_json(params: &ParamValues) -> Json {
    Json::Obj(
        params
            .iter()
            .map(|(name, value)| (name.to_string(), Json::Num(value as f64)))
            .collect(),
    )
}

/// Parse a parameter assignment from a JSON object.
///
/// # Errors
///
/// Returns `bad_request` when any value is not a small non-negative
/// integer.
pub fn params_from_json(obj: &BTreeMap<String, Json>) -> Result<ParamValues, ProtoError> {
    let mut params = ParamValues::new();
    for (name, value) in obj {
        let v = value.as_u64().ok_or_else(|| {
            ProtoError::new(
                "bad_request",
                format!("parameter `{name}` must be a non-negative integer"),
            )
        })?;
        params.set(name, v);
    }
    Ok(params)
}

/// Render one evaluated design point with bit-exact floats.
pub fn point_to_json(p: &DesignPoint) -> Json {
    Json::obj([
        ("params", params_to_json(&p.params)),
        ("cycles", Json::Str(bits_str(p.cycles))),
        ("alms", Json::Str(bits_str(p.area.alms))),
        ("regs", Json::Str(bits_str(p.area.regs))),
        ("dsps", Json::Str(bits_str(p.area.dsps))),
        ("brams", Json::Str(bits_str(p.area.brams))),
        ("valid", Json::Bool(p.valid)),
    ])
}

/// Parse one evaluated design point (the inverse of [`point_to_json`]).
pub fn point_from_json(v: &Json) -> Option<DesignPoint> {
    let bits = |field: &str| v.get(field).and_then(Json::as_str).and_then(parse_bits);
    Some(DesignPoint {
        params: params_from_json(v.get("params")?.as_obj()?).ok()?,
        cycles: bits("cycles")?,
        area: AreaReport {
            alms: bits("alms")?,
            regs: bits("regs")?,
            dsps: bits("dsps")?,
            brams: bits("brams")?,
        },
        valid: v.get("valid")?.as_bool()?,
    })
}

/// Build a `status: "ok"` response with extra `fields`.
pub fn ok_response<I: IntoIterator<Item = (&'static str, Json)>>(fields: I) -> Json {
    let mut map: BTreeMap<String, Json> = fields
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    map.insert("status".to_string(), Json::Str("ok".to_string()));
    Json::Obj(map)
}

/// Write a `status: "error"` response for a [`ProtoError`].
pub(crate) fn write_error(out: &mut Vec<u8>, err: &ProtoError) {
    let mut obj = ObjWriter::begin(out);
    write_str(obj.key("code"), err.code);
    write_str(obj.key("message"), &err.message);
    write_str(obj.key("status"), "error");
    obj.end();
}

/// Write a `status: "rejected"` admission response (the 429 analogue):
/// the request was *not* executed; the client should back off for at
/// least `retry_after_ms` and retry.
pub(crate) fn write_rejected(out: &mut Vec<u8>, code: &str, retry_after_ms: u64) {
    let mut obj = ObjWriter::begin(out);
    write_str(obj.key("code"), code);
    write_num(obj.key("retry_after_ms"), retry_after_ms as f64);
    write_str(obj.key("status"), "rejected");
    obj.end();
}

/// Write the `status: "ok"` response of an `estimate`: bit-exact floats,
/// whether the area fits the device (`valid`), whether the answer came
/// from the cache, and whether it was served under degradation.
pub(crate) fn write_estimate(
    out: &mut Vec<u8>,
    est: &Estimate,
    valid: bool,
    cached: bool,
    degraded: bool,
) {
    let mut obj = ObjWriter::begin(out);
    write_bits(obj.key("alms"), est.area.alms);
    write_bits(obj.key("brams"), est.area.brams);
    write_bool(obj.key("cached"), cached);
    write_bits(obj.key("cycles"), est.cycles);
    write_bool(obj.key("degraded"), degraded);
    write_bits(obj.key("dsps"), est.area.dsps);
    write_bits(obj.key("regs"), est.area.regs);
    write_str(obj.key("status"), "ok");
    write_bool(obj.key("valid"), valid);
    obj.end();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::new(Op::Health),
            Request::new(Op::Stats),
            Request::new(Op::Shutdown),
            Request {
                header: Header {
                    tenant: "team-a".into(),
                    priority: 0,
                    deadline_ms: Some(250),
                },
                op: Op::Sweep {
                    bench: "gemm".into(),
                    points: 300,
                    seed: 42,
                    num_fpgas: None,
                },
            },
            Request::new(Op::Sweep {
                bench: "gemm".into(),
                points: 40,
                seed: 7,
                num_fpgas: Some(4),
            }),
            Request::new(Op::Estimate {
                bench: "dotproduct".into(),
                params: ParamValues::new().with("tile", 64).with("par", 4),
            }),
            Request::new(Op::Submit {
                bench: "gda".into(),
            }),
        ];
        for req in &reqs {
            let parsed = Request::parse(&req.render()).unwrap();
            assert_eq!(&parsed, req);
        }
    }

    #[test]
    fn malformed_requests_yield_structured_errors() {
        for (payload, code) in [
            (&b"not json"[..], "bad_json"),
            (b"[1,2]", "bad_request"),
            (b"{}", "bad_request"),
            (br#"{"op":42}"#, "bad_request"),
            (br#"{"op":"warp"}"#, "unknown_op"),
            (br#"{"op":"sweep"}"#, "bad_request"),
            (br#"{"op":"sweep","bench":"gemm"}"#, "bad_request"),
            (
                br#"{"op":"sweep","bench":"gemm","points":10,"strategy":"surrogate"}"#,
                "bad_request",
            ),
            (
                br#"{"op":"sweep","bench":"gemm","points":10,"strategy":"genetic"}"#,
                "bad_request",
            ),
            (
                br#"{"op":"sweep","bench":"gemm","points":10,"strategy":7}"#,
                "bad_request",
            ),
            (br#"{"op":"estimate","bench":"gemm"}"#, "bad_request"),
            (
                br#"{"op":"estimate","bench":"g","params":{"tile":1.5}}"#,
                "bad_request",
            ),
            (br#"{"op":"health","priority":"high"}"#, "bad_request"),
            (br#"{"op":"health","deadline_ms":-1}"#, "bad_request"),
        ] {
            let err = Request::parse(payload).unwrap_err();
            assert_eq!(err.code, code, "{payload:?} → {err}");
        }
    }

    #[test]
    fn float_bits_round_trip_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            f64::MIN_POSITIVE / 2.0,
            1e300,
            f64::NAN,
            f64::INFINITY,
        ] {
            let s = bits_str(v);
            let back = parse_bits(&s).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        assert_eq!(parse_bits("xyz"), None);
        assert_eq!(parse_bits("00"), None);
    }

    #[test]
    fn points_round_trip_bit_exactly() {
        let p = DesignPoint {
            params: ParamValues::new().with("tile", 64).with("par", 8),
            cycles: 123456.75,
            area: AreaReport {
                alms: -0.0,
                regs: 1e300,
                dsps: 3.25,
                brams: f64::MIN_POSITIVE,
            },
            valid: true,
        };
        let back = point_from_json(&point_to_json(&p)).unwrap();
        assert_eq!(back.cycles.to_bits(), p.cycles.to_bits());
        assert_eq!(back.area.alms.to_bits(), p.area.alms.to_bits());
        assert_eq!(back, p);
    }

    #[test]
    fn response_writers_set_status() {
        assert_eq!(
            ok_response([]).get("status").and_then(Json::as_str),
            Some("ok")
        );
        let mut out = Vec::new();
        write_error(&mut out, &ProtoError::new("bad_json", "oops"));
        let e = Json::parse(&out).unwrap();
        assert_eq!(e.get("status").and_then(Json::as_str), Some("error"));
        assert_eq!(e.get("code").and_then(Json::as_str), Some("bad_json"));
        assert_eq!(e.get("message").and_then(Json::as_str), Some("oops"));
        out.clear();
        write_rejected(&mut out, "overloaded", 25);
        let r = Json::parse(&out).unwrap();
        assert_eq!(r.get("status").and_then(Json::as_str), Some("rejected"));
        assert_eq!(r.get("code").and_then(Json::as_str), Some("overloaded"));
        assert_eq!(r.get("retry_after_ms").and_then(Json::as_u64), Some(25));
    }

    #[test]
    fn priority_is_clamped_not_rejected() {
        let req = Request::parse(br#"{"op":"health","priority":9}"#).unwrap();
        assert_eq!(req.header.priority, 2);
    }
}
