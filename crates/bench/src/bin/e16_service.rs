//! E16 — shard-count scaling of the always-on validation service.
//!
//! The paper's monitoring pipeline is dominated by snapshot pulls, not
//! validation (§2.6.1, E9): one instance watching O(10K) devices spends
//! its time waiting on the network. The sharded service turns that wait
//! into overlap — N shard workers pull concurrently — so sustained
//! churn throughput should scale with the shard count even on one CPU.
//!
//! Shape: a leaf-heavy Clos with ≥50k devices (250 clusters of 8 ToRs +
//! 192 leaves) but only 2000 VLAN prefixes, so the fleet's FIBs stay at
//! the footprint E2 already proved out (~10⁸ entries).
//!
//! Protocol, per shard count: cold-validate a working set spread across
//! the whole device space, then drive even-numbered churn rounds — every
//! round flips each working-set device between its healthy table and a
//! route-withdrawn variant and submits a `Pull`, so every event is a
//! genuine revalidation, never a parked-hash cache hit. Sustained
//! throughput is events over wall time; notification→verdict latency
//! comes from the per-shard `rcdc_service_notify_latency_ns` histograms
//! merged fleet-wide.
//!
//! Asserts 8-shard sustained throughput ≥ 4× single-shard (≥ 2× for the
//! 4-shard `--quick` CI point), and that the fleet converges clean after
//! the final healthy round.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::{build_clos, ClosParams, DeviceId, MetadataService};
use netprim::wire::WireSnapshot;
use rcdc::contracts::{ContractGenerator, DeviceContracts};
use rcdc::pipeline::SnapshotSource;
use rcdc::{EngineChoice, IngestEvent, Validator};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// ≥50k devices, deliberately leaf-heavy: scale the device count
/// without scaling the prefix count (and with it per-device FIB size).
fn fifty_k_shape() -> ClosParams {
    ClosParams {
        clusters: 250,
        tors_per_cluster: 8,
        leaves_per_cluster: 192,
        spines: 192,
        regional_spines: 8,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

/// The network under churn, as the shard workers see it: every pull
/// charges a deterministic per-device latency (the E9 pull model), and
/// the driver flips `phase` between rounds so working-set devices
/// alternate between their healthy table and a route-withdrawn one.
struct ChurnSource {
    healthy: Vec<Fib>,
    churned: HashMap<u32, Fib>,
    phase: AtomicU64,
    latency: (Duration, Duration),
}

impl SnapshotSource for ChurnSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        let (min, max) = self.latency;
        let span = max.as_millis().saturating_sub(min.as_millis()) as u64;
        let jitter = if span == 0 {
            0
        } else {
            (device.0 as u64).wrapping_mul(2654435761) % span
        };
        std::thread::sleep(min + Duration::from_millis(jitter));
        let fib = if self.phase.load(Ordering::Relaxed) % 2 == 1 {
            self.churned
                .get(&device.0)
                .unwrap_or(&self.healthy[device.0 as usize])
        } else {
            &self.healthy[device.0 as usize]
        };
        fib.to_wire()
    }
}

/// Withdraw the device's first non-local route.
fn churned(fib: &Fib) -> Fib {
    let target = fib.entries().find(|e| !e.local).map(|e| e.prefix);
    let mut b = FibBuilder::new(fib.device());
    for e in fib.entries() {
        if Some(e.prefix) == target {
            continue;
        }
        b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
    }
    b.finish()
}

struct Point {
    shards: usize,
    events_per_s: f64,
}

#[allow(clippy::too_many_arguments)]
fn run_point(
    shards: usize,
    meta: &MetadataService,
    contracts: &[DeviceContracts],
    source: &Arc<ChurnSource>,
    working: &[DeviceId],
    rounds: usize,
    devices: usize,
    latency_label: &str,
) -> Point {
    let service = Validator::with_contracts(contracts.to_vec())
        .metadata(meta)
        .engine(EngineChoice::Trie)
        .shards(shards)
        .ingest_capacity(64)
        .build_service(source.clone());

    let t0 = Instant::now();
    service.pull_all(working);
    service.drain();
    let cold = t0.elapsed();

    let t0 = Instant::now();
    for _ in 0..rounds {
        source.phase.fetch_add(1, Ordering::Relaxed);
        for &d in working {
            service.submit(IngestEvent::Pull(d));
        }
        service.drain();
    }
    let sustained = t0.elapsed();

    let handle = service.handle();
    assert_eq!(
        handle.dirty_count(),
        0,
        "even round count ends on healthy tables: the fleet must converge clean"
    );
    let snap = handle.snapshot();
    let mut latency: Option<obskit::HistogramSnapshot> = None;
    let mut backpressure = 0u64;
    for shard in 0..shards {
        let label = shard.to_string();
        if let Some(h) = snap.histogram("rcdc_service_notify_latency_ns", &[("shard", &label)]) {
            match &mut latency {
                Some(m) => m.merge(h),
                None => latency = Some(h.clone()),
            }
        }
        backpressure += snap
            .counter("rcdc_service_backpressure_total", &[("shard", &label)])
            .unwrap_or(0);
    }
    let latency = latency.expect("every shard that validated recorded latency");

    let events = rounds * working.len();
    let events_per_s = events as f64 / sustained.as_secs_f64();
    println!(
        "{shards},{devices},{},{latency_label},{:.2},{events},{:.2},{events_per_s:.1},{:.1},{:.1},{backpressure}",
        working.len(),
        cold.as_secs_f64(),
        sustained.as_secs_f64(),
        latency.p50().unwrap_or(0) as f64 / 1e6,
        latency.p99().unwrap_or(0) as f64 / 1e6,
    );
    Point {
        shards,
        events_per_s,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (params, working_set, rounds, latency, shard_counts, min_speedup) = if quick {
        (
            ClosParams::default(),
            32usize,
            2usize,
            (Duration::from_millis(5), Duration::from_millis(15)),
            vec![1usize, 4],
            2.0,
        )
    } else {
        (
            fifty_k_shape(),
            384,
            4,
            (Duration::from_millis(20), Duration::from_millis(40)),
            vec![1, 2, 4, 8],
            4.0,
        )
    };
    assert!(rounds % 2 == 0, "round count must be even to end healthy");

    let topology = build_clos(&params);
    let devices = topology.devices().len();
    eprintln!("# E16: {devices} devices, simulating EBGP convergence...");
    let t0 = Instant::now();
    let fibs = simulate(&topology, &SimConfig::healthy());
    eprintln!("# converged in {:.1}s", t0.elapsed().as_secs_f64());
    let meta = MetadataService::from_topology(&topology);

    // Working set strided across the whole device space; the odd stride
    // keeps it uniform over every power-of-two shard count.
    let stride = ((devices - 1) / working_set).max(1) | 1;
    let working: Vec<DeviceId> = (0..working_set)
        .map(|i| DeviceId((i * stride) as u32))
        .collect();
    assert!((working_set - 1) * stride < devices);

    // Contracts only where validation happens: the service stores are
    // fleet-indexed, but a 50k-device fleet's full contract set (~10⁸
    // contracts, E2) has no business materializing for a churn bench.
    let generator = ContractGenerator::new(&meta);
    let mut contracts = vec![DeviceContracts::default(); devices];
    for &d in &working {
        contracts[d.0 as usize] = generator.device(d);
    }

    let source = Arc::new(ChurnSource {
        churned: working
            .iter()
            .map(|&d| (d.0, churned(&fibs[d.0 as usize])))
            .collect(),
        healthy: fibs,
        phase: AtomicU64::new(0),
        latency,
    });

    let latency_label = format!("{}-{}", latency.0.as_millis(), latency.1.as_millis());
    println!(
        "shards,devices,working_set,pull_latency_ms,cold_sweep_s,churn_events,sustained_s,events_per_s,p50_ms,p99_ms,backpressure"
    );
    let points: Vec<Point> = shard_counts
        .iter()
        .map(|&n| {
            run_point(
                n,
                &meta,
                &contracts,
                &source,
                &working,
                rounds,
                devices,
                &latency_label,
            )
        })
        .collect();

    let base = &points[0];
    let top = points.last().unwrap();
    let speedup = top.events_per_s / base.events_per_s;
    eprintln!(
        "# {}-shard sustained throughput is {speedup:.1}x single-shard \
         (pulls overlap across shard workers; validation stays serialized on one CPU)",
        top.shards
    );
    assert!(
        speedup >= min_speedup,
        "{}-shard service must sustain >= {min_speedup}x single-shard throughput, got {speedup:.2}x",
        top.shards
    );
}
