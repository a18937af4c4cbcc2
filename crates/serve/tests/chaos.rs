//! The chaos suite: seeded connection faults plus injected evaluation
//! panics, driven through a real server over real sockets, asserting
//! the client-visible result is **bit-identical** to a fault-free
//! in-process sweep — faults may cost retries, never correctness.

use std::time::Duration;

use dhdl_dse::{device_count, explore, DesignPoint, DseOptions};
use dhdl_estimate::{Estimate, Estimator};
use dhdl_serve::json::Json;
use dhdl_serve::{
    parse_faults, ChaosConfig, Client, Op, Request, RetryPolicy, Server, ServerConfig,
};
use dhdl_target::Platform;

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
fn chaotic_server_sweep_is_bit_identical_to_fault_free_in_process() {
    const BENCH: &str = "dotproduct";
    const POINTS: usize = 200;
    const SEED: u64 = 0xF1675;

    // Fault-free, in-process reference.
    let bench = dhdl_apps::by_name(BENCH).unwrap();
    let space = bench.param_space();
    let opts = DseOptions {
        max_points: POINTS,
        seed: SEED,
        ..DseOptions::default()
    };
    let reference = explore(|p| bench.build(p), &space, &estimator(), &opts);
    assert!(!reference.points.is_empty());
    let reference_csv = sweep_csv(&reference.points, &reference.pareto);

    // A server under fire: connection drops, truncated responses and
    // stalls at the transport layer, plus 5% transient evaluation
    // panics underneath the runner.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        chaos: ChaosConfig::parse("drop=0.15,trunc=0.1,stall=0.05,stall_ms=3,seed=11").unwrap(),
        faults: Some(parse_faults("panic=0.05,seed=9").unwrap()),
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::spawn(cfg).unwrap();
    let mut client = Client::new(
        addr,
        RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(100),
            seed: 3,
        },
    )
    .with_timeout(Duration::from_secs(30));

    // Rattle the connection layer with a burst of small requests so the
    // seeded chaos demonstrably fires before the sweep goes through.
    for _ in 0..30 {
        let resp = client.request_ok(&Request::new(Op::Health)).unwrap();
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    }

    let sweep = Request::new(Op::Sweep {
        bench: BENCH.to_string(),
        points: POINTS,
        seed: SEED,
        num_fpgas: None,
    });
    let resp = client.request_ok(&sweep).expect("sweep survives chaos");
    assert_eq!(resp.get("truncated").and_then(Json::as_bool), Some(false));
    let (points, pareto) = parse_sweep(&resp);
    let served_csv = sweep_csv(&points, &pareto);
    assert_eq!(
        served_csv, reference_csv,
        "sweep through a chaotic server must be byte-identical to the fault-free in-process run"
    );

    // The run must actually have been chaotic: the client absorbed
    // transport faults, and the server counted injected ones.
    let stats = client.request_ok(&Request::new(Op::Stats)).unwrap();
    let n = |field: &str| stats.get(field).and_then(Json::as_u64).unwrap_or(0);
    assert!(
        n("chaos_drops") + n("chaos_truncations") + n("chaos_stalls") > 0,
        "chaos layer never fired; the test proved nothing"
    );
    assert!(
        client.transport_retries > 0,
        "client never had to retry; the test proved nothing"
    );

    // Graceful drain: shutdown op, server thread exits cleanly.
    let resp = client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    assert_eq!(resp.get("state").and_then(Json::as_str), Some("draining"));
    drop(client);
    handle.join().unwrap().unwrap();
}

#[test]
fn deadline_truncates_and_retry_completes() {
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
    let mut client = Client::new(addr, RetryPolicy::default());

    // An expired deadline cancels the sweep — it comes back flagged
    // `truncated`, never silently completed.
    let mut first = Request::new(Op::Sweep {
        bench: BENCH.to_string(),
        points: POINTS,
        seed: SEED,
        num_fpgas: None,
    });
    first.header.deadline_ms = Some(0);
    let resp = client.request_ok(&first).unwrap();
    assert_eq!(
        resp.get("truncated").and_then(Json::as_bool),
        Some(true),
        "a 0ms deadline must truncate, not silently complete"
    );

    // The retry without the deadline completes, matching the reference
    // exactly.
    let mut retry = first.clone();
    retry.header.deadline_ms = None;
    let resp = client.request_ok(&retry).unwrap();
    assert_eq!(resp.get("truncated").and_then(Json::as_bool), Some(false));
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
    let resp = client.request(&est).unwrap();
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("error"));
    assert_eq!(
        resp.get("code").and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
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
    let mut client =
        Client::new(addr, RetryPolicy::default()).with_timeout(Duration::from_secs(60));

    // Asked for as a single estimate, a multi-device point answers with
    // the sweep's bits ...
    for p in multi {
        let resp = client
            .request_ok(&Request::new(Op::Estimate {
                bench: BENCH.to_string(),
                params: p.params.clone(),
            }))
            .unwrap();
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
    let resp = client
        .request_ok(&Request::new(Op::Sweep {
            bench: BENCH.to_string(),
            points: POINTS,
            seed: 1,
            num_fpgas: Some(K),
        }))
        .unwrap();
    let (points, pareto) = parse_sweep(&resp);
    assert_eq!(
        sweep_csv(&points, &pareto),
        sweep_csv(&reference.points, &reference.pareto),
        "a sweep after estimate requests must equal the in-process run"
    );

    client.request_ok(&Request::new(Op::Shutdown)).unwrap();
    drop(client);
    handle.join().unwrap().unwrap();
}
