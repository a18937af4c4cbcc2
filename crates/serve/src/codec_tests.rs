//! Codec equivalence: the lean request parser and the direct response
//! writers against the tree-based code they replaced.
//!
//! [`Request::parse`] must return the same `Request`, or the same
//! `ProtoError { code, message }`, as [`parse_reference`] on
//! anything a peer can send; and what the writers emit must equal, byte
//! for byte, what rendering the corresponding [`Json`] tree emitted.

use std::collections::BTreeMap;

use dhdl_core::ParamValues;
use dhdl_dse::SearchStrategy;
use dhdl_estimate::Estimate;
use dhdl_target::AreaReport;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::json::{Json, MAX_DEPTH};
use crate::protocol::{
    ok_response, params_from_json, params_to_json, write_error, write_estimate, write_rejected,
    Header, Op, ProtoError, Request,
};

#[path = "../tests/support/hostile.rs"]
mod hostile;

/// The tree-based parser [`Request::parse`] replaced, kept as the
/// reference the lean one is held to.
fn parse_reference(payload: &[u8]) -> Result<Request, ProtoError> {
    let v = Json::parse(payload).map_err(|e| ProtoError::new("bad_json", e.to_string()))?;
    let obj = v
        .as_obj()
        .ok_or_else(|| ProtoError::new("bad_request", "request must be a JSON object"))?;
    let op_name = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::new("bad_request", "missing string field `op`"))?;
    let header = Header {
        tenant: obj
            .get("tenant")
            .and_then(Json::as_str)
            .unwrap_or("anon")
            .to_string(),
        priority: match obj.get("priority") {
            None => 1,
            Some(p) => {
                let p = p.as_u64().ok_or_else(|| {
                    ProtoError::new("bad_request", "`priority` must be an integer 0..=2")
                })?;
                u8::try_from(p.min(2)).expect("clamped")
            }
        },
        deadline_ms: match obj.get("deadline_ms") {
            None => None,
            Some(d) => Some(d.as_u64().ok_or_else(|| {
                ProtoError::new(
                    "bad_request",
                    "`deadline_ms` must be a non-negative integer",
                )
            })?),
        },
    };
    let bench = |field: &str| -> Result<String, ProtoError> {
        obj.get(field)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| {
                ProtoError::new("bad_request", format!("missing string field `{field}`"))
            })
    };
    let op = match op_name {
        "health" => Op::Health,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "submit" => Op::Submit {
            bench: bench("bench")?,
        },
        "estimate" => {
            let params_obj = obj
                .get("params")
                .and_then(Json::as_obj)
                .ok_or_else(|| ProtoError::new("bad_request", "missing object `params`"))?;
            Op::Estimate {
                bench: bench("bench")?,
                params: params_from_json(params_obj)?,
            }
        }
        "sweep" => Op::Sweep {
            bench: bench("bench")?,
            points: obj
                .get("points")
                .and_then(Json::as_u64)
                .ok_or_else(|| ProtoError::new("bad_request", "missing integer `points`"))?
                as usize,
            seed: match obj.get("seed") {
                None => 0xD5E,
                Some(s) => s.as_u64().ok_or_else(|| {
                    ProtoError::new(
                        "bad_request",
                        "`seed` must be a non-negative integer below 9e15",
                    )
                })?,
            },
            strategy: match obj.get("strategy") {
                None => None,
                Some(s) => {
                    let name = s.as_str().ok_or_else(|| {
                        ProtoError::new("bad_request", "`strategy` must be a string")
                    })?;
                    Some(
                        SearchStrategy::parse(name)
                            .map_err(|e| ProtoError::new("bad_request", e))?,
                    )
                }
            },
            num_fpgas: match obj.get("num_fpgas") {
                None => None,
                Some(k) => {
                    let k = k
                        .as_u64()
                        .and_then(|k| u32::try_from(k).ok())
                        .ok_or_else(|| {
                            ProtoError::new("bad_request", "`num_fpgas` must be an integer")
                        })?;
                    if k == 0 {
                        return Err(ProtoError::new(
                            "bad_request",
                            "`num_fpgas` must be at least 1",
                        ));
                    }
                    Some(k)
                }
            },
        },
        other => {
            return Err(ProtoError::new(
                "unknown_op",
                format!("unrecognized op `{other}`"),
            ))
        }
    };
    Ok(Request { header, op })
}

#[track_caller]
fn assert_same_parse(payload: &[u8]) {
    assert_eq!(
        Request::parse(payload),
        parse_reference(payload),
        "payload: {}",
        String::from_utf8_lossy(payload)
    );
}

/// One well-formed request per op, headers set on some.
fn valid_requests() -> Vec<Request> {
    let full_header = Header {
        tenant: "team-\"a\"\n".into(),
        priority: 0,
        deadline_ms: Some(250),
    };
    vec![
        Request::new(Op::Health),
        Request::new(Op::Stats),
        Request {
            header: full_header.clone(),
            op: Op::Shutdown,
        },
        Request::new(Op::Submit {
            bench: "gda".into(),
        }),
        Request {
            header: full_header.clone(),
            op: Op::Estimate {
                bench: "dotproduct".into(),
                params: ParamValues::new().with("tile", 64).with("par", 4),
            },
        },
        Request {
            header: full_header,
            op: Op::Sweep {
                bench: "gemm".into(),
                points: 40,
                seed: 8_999_999_999_999_999,
                strategy: Some(SearchStrategy::parse("surrogate").unwrap()),
                num_fpgas: Some(4),
            },
        },
    ]
}

#[test]
fn lean_parse_equals_reference_on_hostile_payloads() {
    let valid = valid_requests()[4].render();
    for seed in [0xF022, 7, 4242] {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..2_000 {
            assert_same_parse(&hostile::hostile_payload(&mut rng, &valid));
        }
    }
}

#[test]
fn lean_parse_equals_reference_on_every_truncation() {
    for req in valid_requests() {
        let payload = req.render();
        assert_eq!(Request::parse(&payload), Ok(req));
        for cut in 0..=payload.len() {
            assert_same_parse(&payload[..cut]);
        }
    }
}

/// `[[[…0…]]]`, `depth` arrays deep.
fn nested(depth: usize) -> String {
    format!("{}0{}", "[".repeat(depth), "]".repeat(depth))
}

/// A value of any type, as JSON text: the values the protocol expects in
/// some field, their near misses, and containers up to the depth guard.
fn any_value(rng: &mut StdRng) -> String {
    const POOL: &[&str] = &[
        "0",
        "1",
        "2",
        "9",
        "64",
        "-1",
        "-0",
        "1.5",
        "1e3",
        "4294967295",
        "4294967296",
        "8999999999999999",
        "9e15",
        "18446744073709551615",
        "true",
        "false",
        "null",
        "\"\"",
        "\"anon\"",
        "\"health\"",
        "\"stats\"",
        "\"shutdown\"",
        "\"submit\"",
        "\"estimate\"",
        "\"sweep\"",
        "\"warp\"",
        "\"gemm\"",
        "\"random\"",
        "\" Surrogate \"",
        "\"genetic\"",
        r#""esc \" \\ \/ \b \f \n \r \t \u00e9 \ud83d\udca1 \ud83d""#,
        "\"caf\u{e9} \u{1F4A1}\"",
        "{}",
        "[]",
        r#"{"tile":64,"par":4}"#,
        r#"{"tile":1.5}"#,
        r#"{"b":"x","a":-1}"#,
        r#"{"a":-1,"a":2}"#,
        r#"{"a":2,"a":-1,"0":null}"#,
        r#"{"deep":{"er":[1,{"k":"v"}]}}"#,
        r#"[1,[2,{"k":"v"}],"s"]"#,
    ];
    match rng.gen_range(0..12u32) {
        // Around the guard: a top-level member sits at depth 1, a member
        // of `params` at depth 2, and MAX_DEPTH itself is still legal.
        0 => nested(MAX_DEPTH - rng.gen_range(0..3usize)),
        1 => nested(MAX_DEPTH + rng.gen_range(1..3usize)),
        2 => format!(
            "{{\"tile\":{}}}",
            nested(MAX_DEPTH - rng.gen_range(0..3usize))
        ),
        _ => POOL[rng.gen_range(0..POOL.len())].to_string(),
    }
}

/// A value for member `key`: for `params`, half the time an object of
/// parameters — valid, mistyped, repeated, out of name order.
fn value_for(rng: &mut StdRng, key: &str) -> String {
    const PARAMS: &[&str] = &[
        r#"{"tile":64,"par":4}"#,
        r#"{"tile":1.5}"#,
        r#"{"tile":64,"par":"4","b":-1}"#,
        r#"{"b":"x","a":-1}"#,
        r#"{"a":-1,"a":2}"#,
        r#"{"a":2,"a":-1,"0":null}"#,
        r#"{"b":[],"a":1,"b":3,"a":{}}"#,
        r#"{ "par" : 4 , "tile" : 9e15 }"#,
    ];
    if key == "params" && rng.gen_range(0..2u32) == 0 {
        return PARAMS[rng.gen_range(0..PARAMS.len())].to_string();
    }
    any_value(rng)
}

/// A key as JSON text, now and then spelled with an escape.
fn key_text(rng: &mut StdRng, key: &str) -> String {
    if !key.is_empty() && rng.gen_range(0..8u32) == 0 {
        let first = key.chars().next().unwrap();
        return format!("\"\\u{:04x}{}\"", first as u32, &key[first.len_utf8()..]);
    }
    format!("\"{key}\"")
}

/// A request of a random op as `(key, value text)` members, then
/// mutated: values swapped for values of other types, members dropped,
/// duplicated, joined by unknown ones and reordered, whitespace between
/// tokens, and now and then a byte knocked out of the finished document.
fn mutated_request(rng: &mut StdRng) -> Vec<u8> {
    const KNOWN: &[&str] = &[
        "op",
        "tenant",
        "priority",
        "deadline_ms",
        "bench",
        "params",
        "points",
        "seed",
        "strategy",
        "num_fpgas",
    ];
    let requests = valid_requests();
    // `estimate` and `sweep` carry the fields with rules of their own.
    let base = requests[[0, 1, 2, 3, 4, 4, 4, 5, 5, 5][rng.gen_range(0..10usize)]].render();
    let tree = Json::parse(&base).unwrap();
    let mut members: Vec<(String, String)> = tree
        .as_obj()
        .unwrap()
        .iter()
        .map(|(k, v)| (k.clone(), v.render()))
        .collect();
    for _ in 0..rng.gen_range(0..4u32) {
        let known = KNOWN[rng.gen_range(0..KNOWN.len())].to_string();
        match rng.gen_range(0..5u32) {
            0 if !members.is_empty() => {
                let i = rng.gen_range(0..members.len());
                members[i].1 = value_for(rng, &members[i].0);
            }
            1 if !members.is_empty() => {
                members.remove(rng.gen_range(0..members.len()));
            }
            2 => {
                let at = rng.gen_range(0..=members.len());
                let value = value_for(rng, &known);
                members.insert(at, (known, value));
            }
            3 if !members.is_empty() => {
                let dup = members[rng.gen_range(0..members.len())].clone();
                members.insert(rng.gen_range(0..=members.len()), dup);
            }
            _ => {
                // `key` is the retired idempotency key old clients send.
                let unknown =
                    ["", "x", "Op", "params ", "caf\u{e9}", "key"][rng.gen_range(0..6usize)];
                let at = rng.gen_range(0..=members.len());
                members.insert(at, (unknown.to_string(), any_value(rng)));
            }
        }
    }
    if rng.gen_range(0..3u32) == 0 {
        // Exercise the rules of `params` on an otherwise intact request.
        if let Some(params) = members.iter_mut().find(|m| m.0 == "params") {
            params.1 = value_for(rng, "params");
        }
    }
    if rng.gen_range(0..2u32) == 0 {
        for i in (1..members.len()).rev() {
            members.swap(i, rng.gen_range(0..=i));
        }
    }
    let ws = |rng: &mut StdRng| [" ", "", "", "", "\n", "\t\r "][rng.gen_range(0..6usize)];
    let mut doc = format!("{}{{", ws(rng));
    for (i, (key, value)) in members.iter().enumerate() {
        if i > 0 {
            doc.push(',');
        }
        doc.push_str(ws(rng));
        doc.push_str(&key_text(rng, key));
        doc.push_str(ws(rng));
        doc.push(':');
        doc.push_str(ws(rng));
        doc.push_str(value);
        doc.push_str(ws(rng));
    }
    doc.push('}');
    doc.push_str(ws(rng));
    let mut doc = doc.into_bytes();
    if rng.gen_range(0..6u32) == 0 {
        // A malformed document with, likely, a bad field before the
        // damage: `bad_json` must win either way.
        let at = rng.gen_range(0..doc.len());
        match rng.gen_range(0..3u32) {
            0 => {
                doc.remove(at);
            }
            1 => doc[at] = rng.gen_range(0..=255u32) as u8,
            _ => doc.truncate(at),
        }
    }
    doc
}

/// The tree-based `Request::render` the byte writer replaced.
fn render_reference(req: &Request) -> Vec<u8> {
    let mut map = BTreeMap::new();
    map.insert("op".to_string(), Json::Str(req.op.name().to_string()));
    map.insert("tenant".to_string(), Json::Str(req.header.tenant.clone()));
    map.insert(
        "priority".to_string(),
        Json::Num(f64::from(req.header.priority)),
    );
    if let Some(d) = req.header.deadline_ms {
        map.insert("deadline_ms".to_string(), Json::Num(d as f64));
    }
    match &req.op {
        Op::Health | Op::Stats | Op::Shutdown => {}
        Op::Submit { bench } => {
            map.insert("bench".to_string(), Json::Str(bench.clone()));
        }
        Op::Estimate { bench, params } => {
            map.insert("bench".to_string(), Json::Str(bench.clone()));
            map.insert("params".to_string(), params_to_json(params));
        }
        Op::Sweep {
            bench,
            points,
            seed,
            strategy,
            num_fpgas,
        } => {
            map.insert("bench".to_string(), Json::Str(bench.clone()));
            map.insert("points".to_string(), Json::Num(*points as f64));
            map.insert("seed".to_string(), Json::Num(*seed as f64));
            if let Some(s) = strategy {
                map.insert("strategy".to_string(), Json::Str(s.name().to_string()));
            }
            if let Some(k) = num_fpgas {
                map.insert("num_fpgas".to_string(), Json::Num(f64::from(*k)));
            }
        }
    }
    Json::Obj(map).render().into_bytes()
}

/// A string of printable, escaped, control and multi-byte characters.
fn any_string(rng: &mut StdRng) -> String {
    const CHARS: &[char] = &[
        'a',
        'Z',
        '0',
        ' ',
        '-',
        '_',
        '`',
        '"',
        '\\',
        '/',
        '\n',
        '\r',
        '\t',
        '\u{0}',
        '\u{1}',
        '\u{8}',
        '\u{c}',
        '\u{1f}',
        '\u{7f}',
        '\u{e9}',
        '\u{3b5}',
        '\u{1F4A1}',
    ];
    (0..rng.gen_range(0..12usize))
        .map(|_| CHARS[rng.gen_range(0..CHARS.len())])
        .collect()
}

/// A request of a random op with random header and payload fields.
fn any_request(rng: &mut StdRng) -> Request {
    let mut params = ParamValues::new();
    for _ in 0..rng.gen_range(0..6u32) {
        params.set(&any_string(rng), rng.gen_range(0..1u64 << 53));
    }
    let op = match rng.gen_range(0..6u32) {
        0 => Op::Health,
        1 => Op::Stats,
        2 => Op::Shutdown,
        3 => Op::Submit {
            bench: any_string(rng),
        },
        4 => Op::Estimate {
            bench: any_string(rng),
            params,
        },
        _ => Op::Sweep {
            bench: any_string(rng),
            points: rng.gen_range(0..100_000usize),
            // Seeds beyond 2^53 render through `f64`, as they always did
            // (and the server refuses them).
            seed: rng.next_u64() >> rng.gen_range(0..64u32),
            strategy: [None, Some("random"), Some("surrogate")][rng.gen_range(0..3usize)]
                .map(|s| SearchStrategy::parse(s).unwrap()),
            num_fpgas: (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(1..=u32::MAX)),
        },
    };
    Request {
        header: Header {
            tenant: any_string(rng),
            priority: rng.gen_range(0..=2u32) as u8,
            deadline_ms: (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..1u64 << 53)),
        },
        op,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3_000))]

    #[test]
    fn lean_parse_equals_reference_on_mutated_requests(seed in any::<u64>()) {
        assert_same_parse(&mutated_request(&mut StdRng::seed_from_u64(seed)));
    }

    #[test]
    fn request_render_equals_tree_render(seed in any::<u64>()) {
        let req = any_request(&mut StdRng::seed_from_u64(seed));
        prop_assert_eq!(req.render(), render_reference(&req));
    }

    #[test]
    fn estimate_bytes_equal_tree_render(
        cycles in any::<u64>(),
        alms in any::<u64>(),
        regs in any::<u64>(),
        dsps in any::<u64>(),
        brams in any::<u64>(),
        flags in 0..8u32,
    ) {
        let est = Estimate {
            cycles: f64::from_bits(cycles),
            area: AreaReport {
                alms: f64::from_bits(alms),
                regs: f64::from_bits(regs),
                dsps: f64::from_bits(dsps),
                brams: f64::from_bits(brams),
            },
        };
        let (valid, cached, degraded) = (flags & 1 != 0, flags & 2 != 0, flags & 4 != 0);
        let bits = |v: f64| Json::Str(format!("{:016x}", v.to_bits()));
        let tree = ok_response([
            ("cycles", bits(est.cycles)),
            ("alms", bits(est.area.alms)),
            ("regs", bits(est.area.regs)),
            ("dsps", bits(est.area.dsps)),
            ("brams", bits(est.area.brams)),
            ("valid", Json::Bool(valid)),
            ("cached", Json::Bool(cached)),
            ("degraded", Json::Bool(degraded)),
        ]);
        let mut out = Vec::new();
        write_estimate(&mut out, &est, valid, cached, degraded);
        prop_assert_eq!(out, tree.render().into_bytes());
    }

    #[test]
    fn error_and_rejection_bytes_equal_tree_render(seed in any::<u64>(), retry: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let err = ProtoError::new("bad_request", any_string(&mut rng));
        let tree = Json::obj([
            ("status", Json::Str("error".to_string())),
            ("code", Json::Str(err.code.to_string())),
            ("message", Json::Str(err.message.clone())),
        ]);
        let mut out = Vec::new();
        write_error(&mut out, &err);
        prop_assert_eq!(out, tree.render().into_bytes());

        let code = any_string(&mut rng);
        let tree = Json::obj([
            ("status", Json::Str("rejected".to_string())),
            ("code", Json::Str(code.clone())),
            ("retry_after_ms", Json::Num(retry as f64)),
        ]);
        let mut out = Vec::new();
        write_rejected(&mut out, &code, retry);
        prop_assert_eq!(out, tree.render().into_bytes());
    }
}
