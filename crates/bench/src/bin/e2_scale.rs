//! E2 — "RCDC can check all-pairs of redundant routes in a datacenter
//! with up to 10^4 routers in less than 3 minutes on a single CPU"
//! (§1, §2.6.3), and "180ms to verify all contracts on a single device
//! on average".
//!
//! Contracts are streamed per device (the contract-generator
//! microservice's shape); each device's ~10⁴ contracts are a view over
//! the fabric's shared prefix table.
//!
//! Output row: devices, contracts, BGP convergence time, accumulated
//! contract-generation time, accumulated single-threaded validation
//! time, and mean per-device validation latency.
//!
//! Pass `--quick` to skip the 10^4 point.

use bgpsim::{simulate, SimConfig};
use dcbench::{scale_shapes, ten_k_shape};
use dctopo::{build_clos, ClosParams, MetadataService};
use rcdc::contracts::ContractGenerator;
use rcdc::engine::{trie::TrieEngine, Engine};
use std::time::{Duration, Instant};

fn run_point(label: &str, params: &ClosParams) {
    let topology = build_clos(params);

    let t0 = Instant::now();
    let fibs = simulate(&topology, &SimConfig::healthy());
    let sim_time = t0.elapsed();

    let meta = MetadataService::from_topology(&topology);
    let generator = ContractGenerator::new(&meta);
    let engine = TrieEngine::new();

    let mut gen_time = Duration::ZERO;
    let mut validate_time = Duration::ZERO;
    let mut total_contracts = 0usize;
    let mut dirty = 0usize;
    for d in topology.devices() {
        let t0 = Instant::now();
        let contracts = generator.device(d.id);
        gen_time += t0.elapsed();
        total_contracts += contracts.len();

        let t0 = Instant::now();
        let report = engine.validate_device(&fibs[d.id.0 as usize], &contracts);
        validate_time += t0.elapsed();
        if !report.is_clean() {
            dirty += 1;
        }
    }
    assert_eq!(dirty, 0, "healthy datacenter must validate clean");

    let devices = topology.devices().len();
    let per_device_ms = validate_time.as_secs_f64() * 1000.0 / devices as f64;
    println!(
        "{label},{devices},{total_contracts},{:.2},{:.2},{:.2},{:.3}",
        sim_time.as_secs_f64(),
        gen_time.as_secs_f64(),
        validate_time.as_secs_f64(),
        per_device_ms
    );
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("label,devices,contracts,bgp_sim_s,contract_gen_s,validate_1cpu_s,per_device_ms");
    for (label, params) in scale_shapes() {
        run_point(label, &params);
    }
    if !quick {
        run_point("10k-devices", &ten_k_shape());
        eprintln!("# paper claim: 10^4 routers validated in < 180 s on one CPU");
    }
}
