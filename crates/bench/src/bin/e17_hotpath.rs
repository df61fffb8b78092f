//! E17 — the hot-path raw-speed pass: the trie engine's merge walk
//! (stretch judging over the shared contract table), bitset hop sets
//! and RLE table emission vs the pre-rewrite pipeline (pointer-chasing
//! trie, per-contract walks, vector hop sets).
//!
//! Runs the full cold sweep — EBGP convergence then every device's
//! contract check — twice per shape: once with the frozen pre-rewrite
//! implementations (`bgpsim::sim_reference::simulate`,
//! `ReferenceTrieEngine`) and once with the current engines. Both
//! runs must produce
//! bit-identical FIBs, identical simulation stats, and rule-for-rule
//! identical validation reports on every device: the speedup is only
//! admissible because the outputs are provably the same.
//!
//! Output row: devices, contracts, legacy/new sim seconds, legacy/new
//! validate seconds, and the combined cold-sweep speedup
//! `(sim + validate) legacy / new`.
//!
//! The largest point asserts the combined speedup floor (≥3×, the PR
//! gate). Pass `--quick` to stop at the ~1.1k-device shape (CI
//! perf-smoke); the full run adds the 10⁴-router shape of §2.6.3.

use bgpsim::{simulate_with, Fib, SimConfig, SimOptions};
use dcbench::{scale_shapes, ten_k_shape};
use dctopo::{build_clos, ClosParams, MetadataService, Topology};
use rcdc::contracts::ContractGenerator;
use rcdc::{Engine, ReferenceTrieEngine, TrieEngine};
use std::time::{Duration, Instant};

const SPEEDUP_FLOOR: f64 = 3.0;

/// One timed validation sweep over every device. Contracts are
/// regenerated inside the sweep but excluded from the timing; the
/// reports come back so the caller can check verdict identity.
fn validate_sweep(
    topology: &Topology,
    fibs: &[Fib],
    generator: &ContractGenerator,
    engine: &dyn Engine,
) -> (Duration, Vec<rcdc::ValidationReport>, usize) {
    let mut elapsed = Duration::ZERO;
    let mut reports = Vec::with_capacity(fibs.len());
    let mut total_contracts = 0usize;
    for d in topology.devices() {
        let contracts = generator.device(d.id);
        total_contracts += contracts.len();
        let t0 = Instant::now();
        let report = engine.validate_device(&fibs[d.id.0 as usize], &contracts);
        elapsed += t0.elapsed();
        reports.push(report);
    }
    (elapsed, reports, total_contracts)
}

fn run_point(label: &str, params: &ClosParams, assert_floor: bool) {
    let topology = build_clos(params);
    let config = SimConfig::healthy();

    // The optimized arm runs first, on a fresh heap: the legacy
    // simulator's ~10⁸ transient hop-vector allocations fragment the
    // allocator badly enough to inflate a *subsequent* arm's large
    // table materialization several-fold, which would be a measurement
    // artifact, not an engine cost (a production sweep runs one
    // engine). The frozen arm's own transient allocations are part of
    // its algorithm and are costed where they occur.
    let t0 = Instant::now();
    let (fibs, stats) = simulate_with(&topology, &config, SimOptions::default());
    let sim_new = t0.elapsed();

    let t0 = Instant::now();
    let fibs_legacy = bgpsim::sim_reference::simulate(&topology, &config);
    let sim_legacy = t0.elapsed();

    // The optimized engine must be invisible in the output: same
    // tables as the frozen pre-rewrite simulator, bit for bit.
    assert_eq!(fibs, fibs_legacy, "FIB content diverged from reference");
    assert!(stats.relaxations > 0 && stats.prefixes > 0);

    let meta = MetadataService::from_topology(&topology);
    let generator = ContractGenerator::new(&meta);

    let (val_new, reports, contracts) =
        validate_sweep(&topology, &fibs, &generator, &TrieEngine::new());
    let (val_legacy, reports_legacy, _) =
        validate_sweep(&topology, &fibs, &generator, &ReferenceTrieEngine::new());

    // Verdict identity, rule for rule, on every device.
    assert_eq!(reports.len(), reports_legacy.len());
    for (i, (new, old)) in reports.iter().zip(&reports_legacy).enumerate() {
        assert_eq!(new, old, "device {i}: trie engine verdicts diverged");
    }
    assert!(
        reports.iter().all(|r| r.is_clean()),
        "healthy datacenter must validate clean"
    );

    let legacy_total = sim_legacy + val_legacy;
    let new_total = sim_new + val_new;
    let speedup = legacy_total.as_secs_f64() / new_total.as_secs_f64();
    println!(
        "{label},{},{contracts},{:.2},{:.2},{:.2},{:.2},{:.2}",
        topology.devices().len(),
        sim_legacy.as_secs_f64(),
        sim_new.as_secs_f64(),
        val_legacy.as_secs_f64(),
        val_new.as_secs_f64(),
        speedup
    );
    if assert_floor {
        assert!(
            speedup >= SPEEDUP_FLOOR,
            "combined cold-sweep speedup {speedup:.2}x is below the {SPEEDUP_FLOOR}x gate \
             ({label}: legacy {:.2}s vs new {:.2}s)",
            legacy_total.as_secs_f64(),
            new_total.as_secs_f64()
        );
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    println!("label,devices,contracts,sim_legacy_s,sim_new_s,validate_legacy_s,validate_new_s,combined_speedup");
    let shapes = scale_shapes();
    let last = shapes.len() - 1;
    for (i, (label, params)) in shapes.iter().enumerate() {
        // In quick mode the largest small shape carries the gate.
        run_point(label, params, quick && i == last);
    }
    if !quick {
        run_point("10k-devices", &ten_k_shape(), true);
        eprintln!("# gate: >= {SPEEDUP_FLOOR}x combined (sim + validate) on the 10k cold sweep");
    }
}
