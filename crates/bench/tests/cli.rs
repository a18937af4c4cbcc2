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
    assert!(stdout.contains("evaluated 1120 "), "{stdout}");
}
