//! The `dhdl` binary's argument handling, driven as a child process.

use std::process::{Command, Output};

fn dhdl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dhdl"))
        .args(args)
        .output()
        .expect("dhdl runs")
}

#[test]
fn a_malformed_parameter_exits_2_naming_it_instead_of_estimating_the_defaults() {
    for bad in ["ts192", "ts=abc"] {
        let out = dhdl(&["estimate", "dotproduct", bad]);
        assert_eq!(out.status.code(), Some(2), "{bad}");
        assert!(out.stdout.is_empty(), "{bad}: printed an estimate");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("`{bad}`")), "{bad}: {stderr}");
    }
    let out = dhdl(&["estimate", "dotproduct", "ts=192"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ts=192"), "{stdout}");
}

#[test]
fn explore_takes_its_one_integer_flag_and_refuses_anything_else() {
    for (args, named) in [
        (&["--strategy", "surrogate"][..], "`--strategy`"),
        (&["--point", "15000"], "`--point`"),
        (&["--points", "40"], "`--points`"),
        (&["--num-fpgas", "1e4"], "`--num-fpgas 1e4`"),
    ] {
        let out = dhdl(&[&["explore", "dotproduct"][..], args].concat());
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: swept anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
    let out = dhdl(&["explore", "dotproduct", "--num-fpgas", "1"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("evaluated 1120,"), "{stdout}");
}

#[test]
fn diagnose_refuses_an_unknown_benchmark_and_a_malformed_point_count() {
    for (args, named) in [
        (&["diagnose", "nosuch"][..], "`nosuch`"),
        (&["diagnose", "gda", "notanumber"], "`notanumber`"),
    ] {
        let out = dhdl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: diagnosed anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(named), "{args:?}: {stderr}");
    }
}

#[test]
fn diagnose_and_sweep_refuse_an_extra_argument() {
    for args in [
        &["diagnose", "dotproduct", "2", "bogus"][..],
        &["sweep", "dotproduct", "ts", "bogus"],
    ] {
        let out = dhdl(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}: ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("`bogus`"), "{args:?}: {stderr}");
    }
}

/// `dhdl bottleneck`'s cycle and area tables for the nine applications'
/// default points, pinned by one FNV-64 digest of each name and stdout
/// (computed before the breakdown walked the netlist's latency plan).
#[test]
fn bottleneck_tables_are_pinned() {
    let benches: Vec<_> = dhdl_apps::all()
        .into_iter()
        .chain(dhdl_apps::dnn())
        .collect();
    assert_eq!(benches.len(), 9);
    let mut h = dhdl_core::Fnv64::new();
    for bench in &benches {
        let out = dhdl(&["bottleneck", bench.name()]);
        assert!(out.status.success(), "{}", bench.name());
        for part in [bench.name().as_bytes(), &out.stdout] {
            h.write_u64(part.len() as u64);
            h.write(part);
        }
    }
    let got = h.finish();
    assert_eq!(got, 0x169a_c882_52ce_0a7b, "bottleneck digest {got:#018x}");
}
