//! Sweeps served over real sockets, asserting the client-visible result
//! is **bit-identical** to the in-process sweep: after a deadline
//! truncated an earlier attempt, and after estimate requests filled the
//! cache with multi-device points.

use dhdl_dse::{device_count, explore, DesignPoint, DseOptions};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_serve::json::Json;
use dhdl_serve::{Op, Request, Server, ServerConfig};
use dhdl_target::Platform;

#[path = "support/conn.rs"]
mod conn;
use conn::{connect, request, request_ok};

/// The server's calibration recipe, repeated in-process so both sides
/// hold the *same* estimator (calibration is deterministic in the
/// seed).
fn estimator() -> Estimator {
    Estimator::calibrate_with(&Platform::maia(), 20, 7).0
}

/// Render a sweep result as the CSV the figure pipeline consumes: one
/// bit-pattern row per point plus the Pareto index list. Byte equality
/// of two renderings is bit-identity of the results.
fn sweep_csv(points: &[DesignPoint], pareto: &[usize]) -> String {
    let mut out = String::from("params,cycles,alms,regs,dsps,brams,valid\n");
    for p in points {
        let params: Vec<String> = p
            .params
            .iter()
            .map(|(name, value)| format!("{name}={value}"))
            .collect();
        out.push_str(&format!(
            "{};{:016x};{:016x};{:016x};{:016x};{:016x};{}\n",
            params.join(" "),
            p.cycles.to_bits(),
            p.area.alms.to_bits(),
            p.area.regs.to_bits(),
            p.area.dsps.to_bits(),
            p.area.brams.to_bits(),
            u8::from(p.valid),
        ));
    }
    out.push_str(&format!(
        "pareto,{}\n",
        pareto
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// Parse a server sweep response into the same shape `explore` returns.
fn parse_sweep(resp: &Json) -> (Vec<DesignPoint>, Vec<usize>) {
    let points: Vec<DesignPoint> = resp
        .get("points")
        .and_then(Json::as_arr)
        .expect("points array")
        .iter()
        .map(|v| dhdl_serve::point_from_json(v).expect("well-formed point"))
        .collect();
    let pareto: Vec<usize> = resp
        .get("pareto")
        .and_then(Json::as_arr)
        .expect("pareto array")
        .iter()
        .map(|v| v.as_u64().expect("pareto index") as usize)
        .collect();
    (points, pareto)
}

#[test]
fn deadline_truncates_and_a_resend_completes() {
    const BENCH: &str = "gemm";
    const POINTS: usize = 120;
    const SEED: u64 = 0xDEAD;

    let bench = dhdl_apps::by_name(BENCH).unwrap();
    let space = bench.param_space();
    let opts = DseOptions {
        max_points: POINTS,
        seed: SEED,
        ..DseOptions::default()
    };
    let reference = explore(|p| bench.build(p), &space, &estimator(), &opts);
    let reference_csv = sweep_csv(&reference.points, &reference.pareto);

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::spawn(cfg).unwrap();
    let mut stream = connect(addr);

    // An expired deadline cancels the sweep — it comes back flagged
    // `truncated`, never silently completed.
    let mut first = Request::new(Op::Sweep {
        bench: BENCH.to_string(),
        points: POINTS,
        seed: SEED,
        num_fpgas: None,
    });
    first.header.deadline_ms = Some(0);
    let resp = request_ok(&mut stream, &first);
    assert_eq!(
        resp.get("truncated").and_then(Json::as_bool),
        Some(true),
        "a 0ms deadline must truncate, not silently complete"
    );
    // ... and says how much of it did not run: every point of it.
    assert_eq!(
        resp.get("skipped").and_then(Json::as_u64),
        Some(POINTS as u64),
        "a truncated sweep must count the points it skipped"
    );

    // The same request sent again without the deadline completes,
    // matching the reference exactly, and skips nothing.
    let mut resend = first.clone();
    resend.header.deadline_ms = None;
    let resp = request_ok(&mut stream, &resend);
    assert_eq!(resp.get("truncated").and_then(Json::as_bool), Some(false));
    assert_eq!(resp.get("skipped").and_then(Json::as_u64), Some(0));
    let (points, pareto) = parse_sweep(&resp);
    assert_eq!(sweep_csv(&points, &pareto), reference_csv);

    // An expired deadline on an estimate *miss* is likewise cancelled
    // (a benchmark this test has not swept, so the cache cannot answer).
    let cold = dhdl_apps::by_name("tpchq6").unwrap();
    let mut est = Request::new(Op::Estimate {
        bench: "tpchq6".to_string(),
        params: cold.default_params(),
    });
    est.header.deadline_ms = Some(0);
    let resp = request(&mut stream, &est);
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    request_ok(&mut stream, &Request::new(Op::Shutdown));
    drop(stream);
    handle.join().unwrap().unwrap();
}

#[test]
fn estimates_of_multi_device_points_do_not_poison_later_sweeps() {
    const BENCH: &str = "blackscholes";
    const POINTS: usize = 120;
    const K: u32 = 4;

    let bench = dhdl_apps::by_name(BENCH).unwrap();
    let mut space = bench.param_space();
    space.devices(u64::from(K));
    let opts = DseOptions {
        max_points: POINTS,
        seed: 1,
        ..DseOptions::default()
    };
    let reference = explore(|p| bench.build(p), &space, &estimator(), &opts);
    let multi: Vec<&DesignPoint> = reference
        .points
        .iter()
        .filter(|p| device_count(&p.params) > 1)
        .collect();
    assert!(!multi.is_empty(), "the sweep reached no multi-device point");

    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::spawn(cfg).unwrap();
    let mut stream = connect(addr);

    // Asked for as a single estimate, a multi-device point answers with
    // the sweep's bits ...
    for p in multi {
        let resp = request_ok(
            &mut stream,
            &Request::new(Op::Estimate {
                bench: BENCH.to_string(),
                params: p.params.clone(),
            }),
        );
        let want = Estimate {
            cycles: p.cycles,
            area: p.area,
        };
        for (field, bits) in ["cycles", "alms", "regs", "dsps", "brams"]
            .into_iter()
            .zip(want.to_bits())
        {
            assert_eq!(
                resp.get(field).and_then(Json::as_str),
                Some(format!("{bits:016x}").as_str()),
                "estimate of {} disagrees with the sweep on {field}",
                p.params
            );
        }
    }
    // ... and the memo entries those requests left behind are the
    // sweep's too.
    let resp = request_ok(
        &mut stream,
        &Request::new(Op::Sweep {
            bench: BENCH.to_string(),
            points: POINTS,
            seed: 1,
            num_fpgas: Some(K),
        }),
    );
    let (points, pareto) = parse_sweep(&resp);
    assert_eq!(
        sweep_csv(&points, &pareto),
        sweep_csv(&reference.points, &reference.pareto),
        "a sweep after estimate requests must equal the in-process run"
    );

    request_ok(&mut stream, &Request::new(Op::Shutdown));
    drop(stream);
    handle.join().unwrap().unwrap();
}
