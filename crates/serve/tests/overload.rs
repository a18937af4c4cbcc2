//! Overload behavior over real sockets: bounded queues reject instead
//! of growing, saturation degrades to cache-only service with the
//! `degraded` flag, and drain flushes state and exits cleanly.

use dhdl_serve::json::Json;
use dhdl_serve::{AdmissionConfig, Op, Request, Server, ServerConfig};

#[path = "support/conn.rs"]
mod conn;
use conn::{connect, request, request_ok};

#[test]
fn overloaded_sweeps_are_rejected_explicitly_and_queues_stay_bounded() {
    const GLOBAL_CAP: usize = 3;
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        admission: AdmissionConfig {
            tenant_cap: 2,
            global_cap: GLOBAL_CAP,
            sweep_cap: 1,
            retry_after_ms: 20,
        },
        max_sweep_points: 150,
        sweep_threads: 1,
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::spawn(cfg).unwrap();

    // Six tenants fire sweeps at once against a sweep cap of one: the
    // excess must come back as explicit 429-style rejections carrying
    // retry_after_ms — not queue, not OOM, not hang.
    let outcomes: Vec<Json> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6)
            .map(|i| {
                s.spawn(move || {
                    let mut req = Request::new(Op::Sweep {
                        bench: "dotproduct".to_string(),
                        points: 150,
                        seed: 0x0DD + i,
                        num_fpgas: None,
                    });
                    req.header.tenant = format!("tenant-{i}");
                    req.header.priority = 2;
                    request(&mut connect(addr), &req)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let count = |status: &str| {
        outcomes
            .iter()
            .filter(|o| o.get("status").and_then(Json::as_str) == Some(status))
            .count()
    };
    let (completed, rejected) = (count("ok"), count("rejected"));
    assert!(completed >= 1, "at least one sweep must get through");
    assert!(
        rejected >= 1,
        "a sweep cap of 1 against 6 concurrent sweeps must reject some ({outcomes:?})"
    );
    assert_eq!(completed + rejected, 6, "no third outcome: {outcomes:?}");

    // The bounded-queue invariant, from the server's own accounting:
    // in-flight work never exceeded the global cap.
    let mut stream = connect(addr);
    let stats = request_ok(&mut stream, &Request::new(Op::Stats));
    let peak = stats.get("peak_inflight").and_then(Json::as_u64).unwrap();
    assert!(
        peak as usize <= GLOBAL_CAP,
        "peak {peak} > cap {GLOBAL_CAP}"
    );
    assert!(
        stats
            .get("rejected_overload")
            .and_then(Json::as_u64)
            .unwrap()
            >= 1
    );

    request_ok(&mut stream, &Request::new(Op::Shutdown));
    drop(stream);
    handle.join().unwrap().unwrap();
}

#[test]
fn saturation_serves_warm_cache_hits_degraded() {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        ..ServerConfig::default()
    };
    let (addr, handle) = Server::spawn(cfg).unwrap();
    let mut stream = connect(addr);

    // Warm one estimate: first ask misses (real work), second hits.
    let bench = dhdl_apps::by_name("dotproduct").unwrap();
    let warm = Request::new(Op::Estimate {
        bench: "dotproduct".to_string(),
        params: bench.default_params(),
    });
    let first = request_ok(&mut stream, &warm);
    assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
    assert_eq!(first.get("degraded").and_then(Json::as_bool), Some(false));
    let second = request_ok(&mut stream, &warm);
    assert_eq!(second.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(second.get("degraded").and_then(Json::as_bool), Some(false));
    // The cached answer is bit-identical to the computed one.
    for field in ["cycles", "alms", "regs", "dsps", "brams"] {
        assert_eq!(first.get(field), second.get(field), "{field}");
    }

    // Put the server in its most degraded state (draining: no new work
    // at all) on this same connection, which stays serviced.
    request_ok(&mut stream, &Request::new(Op::Shutdown));

    // Warm hits are still served — flagged degraded — while anything
    // needing real work is rejected outright.
    let hit = request_ok(&mut stream, &warm);
    assert_eq!(hit.get("cached").and_then(Json::as_bool), Some(true));
    assert_eq!(
        hit.get("degraded").and_then(Json::as_bool),
        Some(true),
        "a possibly-stale answer during drain must be flagged"
    );
    let cold_bench = dhdl_apps::by_name("gemm").unwrap();
    let cold = Request::new(Op::Estimate {
        bench: "gemm".to_string(),
        params: cold_bench.default_params(),
    });
    let refused = request(&mut stream, &cold);
    assert_eq!(
        refused.get("status").and_then(Json::as_str),
        Some("rejected"),
        "cold estimate during drain must be rejected, got {refused:?}"
    );
    assert_eq!(refused.get("code").and_then(Json::as_str), Some("draining"));

    // Drain completes cleanly.
    drop(stream);
    handle.join().unwrap().unwrap();
}
