//! `dhdl-serve`: run the DSE-as-a-service server until SIGTERM/SIGINT
//! (or a `shutdown` op), then drain gracefully and exit 0.
//!
//! The binary reads one knob, `DHDL_SERVE_ADDR` (the listen address;
//! `127.0.0.1:0` picks a port), and serves every other setting at its
//! [`ServerConfig`] default. `DHDL_OBS` arms the observability layer as
//! everywhere else in the workspace.

use dhdl_serve::{Server, ServerConfig};

fn main() {
    dhdl_obs::init_from_env();
    dhdl_serve::signal::install_handlers();
    let mut cfg = ServerConfig::default();
    if let Ok(addr) = std::env::var("DHDL_SERVE_ADDR") {
        cfg.addr = addr;
    }
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("dhdl-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("dhdl-serve: listening on {addr}"),
        Err(e) => eprintln!("dhdl-serve: local_addr: {e}"),
    }
    if let Err(e) = server.run() {
        eprintln!("dhdl-serve: server failed: {e}");
        std::process::exit(1);
    }
    println!("dhdl-serve: drained cleanly");
}
