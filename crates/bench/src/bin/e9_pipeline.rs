//! E9 — live-monitoring pipeline capacity (§2.6.1): "Fetching each
//! routing table takes 200-800ms, and validating takes O(100)
//! milliseconds. … Each service instance is configured to monitor
//! O(10K) devices."
//!
//! Runs a monitoring sweep with simulated pull latency and reports the
//! sustained device throughput and the extrapolated sweep period for a
//! 10k-device instance.

use bgpsim::{simulate, SimConfig};
use dctopo::{build_clos, ClosParams, DeviceId, MetadataService};
use obskit::Registry;
use rcdc::contracts::generate_contracts;
use rcdc::pipeline::{
    run_sweep, ContractStore, FibStore, PipelineMetrics, PipelineResult, SimulatedSource,
    StreamAnalytics, ValidateMode, VerdictCache,
};
use rcdc::report::{Risk, ValidationReport, Violation, ViolationReason};
use std::time::{Duration, Instant};

fn main() {
    let params = ClosParams {
        clusters: 8,
        tors_per_cluster: 8,
        leaves_per_cluster: 4,
        spines: 8,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    };
    let topology = build_clos(&params);
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);

    let contract_store = ContractStore::default();
    for (i, dc) in generate_contracts(&meta).into_iter().enumerate() {
        contract_store.put(DeviceId(i as u32), dc);
    }
    let devices: Vec<DeviceId> = topology.devices().iter().map(|d| d.id).collect();

    println!("pull_workers,devices,pull_latency_ms,sweep_s,devices_per_s,mean_validate_ms,p50_validate_ms,p99_validate_ms,extrapolated_10k_sweep_s");
    for pull_workers in [8usize, 32, 64] {
        // §2.6.1's 200–800 ms pull latency, scaled down 10x so the
        // bench finishes quickly; the throughput math scales linearly.
        let source = SimulatedSource::new(fibs.clone())
            .with_latency(Duration::from_millis(20), Duration::from_millis(80));
        let fib_store = FibStore::default();
        let cache = VerdictCache::default();
        let analytics = StreamAnalytics::default();
        let registry = Registry::new();
        let metrics = PipelineMetrics::new(&registry);
        let t0 = Instant::now();
        run_sweep(
            &devices,
            &source,
            &contract_store,
            &fib_store,
            &cache,
            &analytics,
            pull_workers,
            2,
            Some(&metrics),
        );
        let sweep = t0.elapsed();
        let rate = devices.len() as f64 / sweep.as_secs_f64();
        // At 10x the latency, per-worker throughput drops 10x.
        let extrapolated = 10_000.0 / (rate / 10.0);
        // Quantiles come from the exported validate-latency histogram
        // (a cold sweep validates everything in full mode).
        let snap = registry.observe_and_snapshot(&[&analytics]);
        let quantile_ms = |q: f64| {
            snap.histogram("rcdc_validate_latency_ns", &[("mode", "full")])
                .and_then(|h| h.quantile(q))
                .map(|ns| ns as f64 / 1e6)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{},{},20-80,{:.2},{:.1},{:.3},{:.3},{:.3},{:.1}",
            pull_workers,
            devices.len(),
            sweep.as_secs_f64(),
            rate,
            analytics.mean_validate_time().as_secs_f64() * 1000.0,
            quantile_ms(0.50),
            quantile_ms(0.99),
            extrapolated
        );
    }
    eprintln!("# paper: one instance monitors O(10K) devices; pulls dominate, validation is O(100) ms");
    dashboard_query_regression(&meta);
}

/// Regression guard for the dashboard-query path: `dirty_devices` /
/// `alerts` are served from the pre-sorted dirty index, so their cost
/// tracks the dirty count, not the fleet size. Populate a 10k-device
/// sink with a handful of dirty devices and require sustained query
/// throughput that a full-map clone under the lock cannot reach.
fn dashboard_query_regression(meta: &MetadataService) {
    let analytics = StreamAnalytics::default();
    let fleet = 10_000u32;
    let dirty = 16u32; // dirty ids stay within the real topology, for alerts()
    let contracts = generate_contracts(meta);
    for i in 0..fleet {
        let device = DeviceId(i);
        let report = if i < dirty {
            let contract = contracts[i as usize]
                .iter()
                .next()
                .expect("every low-id device carries contracts");
            ValidationReport {
                violations: vec![Violation::of(contract, ViolationReason::MissingRoute)],
                contracts_checked: 1,
                solver_stats: Default::default(),
            }
        } else {
            ValidationReport::default()
        };
        analytics.ingest(PipelineResult {
            device,
            report,
            validate_time: Duration::from_micros(100),
            mode: ValidateMode::Full,
        });
    }

    let queries = 50_000u32;
    let t0 = Instant::now();
    for _ in 0..queries {
        assert_eq!(analytics.dirty_devices().len(), dirty as usize);
        assert_eq!(analytics.dirty_count(), dirty as usize);
        assert!(!analytics.alerts(meta, Risk::Low).is_empty());
    }
    let rate = queries as f64 / t0.elapsed().as_secs_f64();
    eprintln!("# dashboard queries on a 10k-device sink ({dirty} dirty): {rate:.0}/s");
    assert!(
        rate >= 100_000.0,
        "dashboard queries must be O(dirty), not O(fleet): {rate:.0}/s < 100000/s"
    );
}
