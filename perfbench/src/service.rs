//! `service_churn`: the always-on validation service under
//! single-route churn.
//!
//! Inputs: a 2756-device Clos (between the 1096 and 10k shapes), its
//! converged FIBs, and for a seeded working set of devices a variant
//! with one seeded route withdrawn. The snapshot source lives in the
//! benchmark and answers pulls at once from those tables; each event
//! flips one device between its two tables and submits a `Pull`.
//!
//! Set-up (repeated) is contract generation, `build_service` with one
//! shard, and a cold `pull_all` + `drain` of the fleet. The measured
//! phase then alternates two parts, both run from this one thread,
//! so each samples the whole run:
//!
//! * saturated: each unit submits a round of events, one per
//!   working-set device, drains, and does it again (so every device is
//!   withdrawn and restored once); the unit time gives the capacity in
//!   events/s;
//! * open-loop segments: a seeded Poisson schedule at a fixed rate,
//!   about a third of that capacity. This thread sleeps between due times,
//!   submits each event when due, and polls `ServiceHandle::verdict`
//!   until it shows the event's new FIB hash. Latency runs from the
//!   event's due time, so a stall delays every later event; how late
//!   this thread itself submitted is reported, and a backlog that grows
//!   is reported as such.
//!
//! Checks: every event reaches its verdict, and every working-set
//! device's final verdict equals the reference engine's verdict on
//! the table it last served. The traced run records each open-loop
//! event as a span split at the pull start (queue wait, then pull,
//! decode, validate and ingest), and calls the worker's steps through
//! their own entry points: `Fib::to_wire`, `Fib::from_wire`,
//! `Fib::delta`, `Engine::validate_delta` and
//! `pipeline::validate_notification`.

use crate::util::{median, quantile, Rng};
use crate::{set_validate_device, span_mean_s, span_median_s, Ctx, Outcome};
use bgpsim::{simulate_with, Fib, FibBuilder, SimOptions};
use dctopo::{build_clos, ClosParams, DeviceId, MetadataService, Role};
use netprim::wire::WireSnapshot;
use rcdc::contracts::ContractGenerator;
use rcdc::pipeline::{
    validate_notification, ContractStore, FibStore, SnapshotSource, VerdictCache,
};
use rcdc::{
    Engine, IngestEvent, RealClock, ReferenceTrieEngine, TrieEngine, ValidationService, Validator,
};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SETUPS: usize = 3;
const WORKING_SET: usize = 256;
/// Offered load of the open loop, in events/s: about a third of the
/// saturated capacity measured on a 2-core Xeon host.
const RATE: f64 = 450.0;
/// Share of `--seconds` the open loop's schedule spans; the saturated
/// units take about the rest.
const OPEN_LOOP_SHARE: f64 = 0.7;
const POLL: Duration = Duration::from_micros(100);
const COMPLETION_TIMEOUT: Duration = Duration::from_secs(30);
const REPLAYS: usize = 64;
/// Saturated units and open-loop segments per run, alternating.
const SEGMENTS: usize = 8;

fn shape() -> ClosParams {
    ClosParams {
        clusters: 40,
        tors_per_cluster: 64,
        leaves_per_cluster: 4,
        spines: 32,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

/// The network as the shard worker sees it: each device serves its
/// healthy table, or (working set only) the withdrawn variant while
/// its flag is set. Every pull stamps its start time and which table
/// it served.
struct ChurnSource {
    healthy: Vec<Fib>,
    withdrawn: Vec<Option<Fib>>,
    flag: Vec<AtomicBool>,
    served: Vec<AtomicU8>,
    pull_ns: Vec<AtomicU64>,
    epoch: Instant,
}

impl ChurnSource {
    fn table(&self, d: DeviceId, withdrawn: bool) -> &Fib {
        let du = d.0 as usize;
        if withdrawn {
            self.withdrawn[du].as_ref().expect("working-set device")
        } else {
            &self.healthy[du]
        }
    }

    /// Flip the device to its other table; returns the new state.
    fn flip(&self, d: DeviceId) -> bool {
        !self.flag[d.0 as usize].fetch_xor(true, Ordering::SeqCst)
    }

    fn pull_start(&self, d: DeviceId) -> Instant {
        self.epoch + Duration::from_nanos(self.pull_ns[d.0 as usize].load(Ordering::SeqCst))
    }
}

impl SnapshotSource for ChurnSource {
    fn pull(&self, device: DeviceId) -> WireSnapshot {
        let du = device.0 as usize;
        let t = self.epoch.elapsed().as_nanos() as u64;
        self.pull_ns[du].store(t, Ordering::SeqCst);
        let withdrawn = self.flag[du].load(Ordering::SeqCst);
        self.served[du].store(1 + u8::from(withdrawn), Ordering::SeqCst);
        self.table(device, withdrawn).to_wire()
    }
}

/// Working-set devices in seeded order. The open loop draws with
/// [`next`](Self::next): permutations of the two halves of the working
/// set in turn, so one device's events are at least half a working set
/// apart. A saturated round ([`round`](Self::round)) is one permutation
/// of the whole working set.
struct DeviceStream {
    rng: Rng,
    working: Vec<DeviceId>,
    half: usize,
    order: Vec<usize>,
    pos: usize,
}

impl DeviceStream {
    fn new(working: &[DeviceId], rng: Rng) -> DeviceStream {
        DeviceStream {
            rng,
            working: working.to_vec(),
            half: 1,
            order: Vec::new(),
            pos: 0,
        }
    }

    fn next(&mut self) -> DeviceId {
        let h = self.working.len() / 2;
        if self.pos == self.order.len() {
            self.half ^= 1;
            let base = self.half * h;
            let len = if self.half == 0 {
                h
            } else {
                self.working.len() - h
            };
            self.order = self
                .rng
                .distinct(len, len)
                .into_iter()
                .map(|i| base + i)
                .collect();
            self.pos = 0;
        }
        self.pos += 1;
        self.working[self.order[self.pos - 1]]
    }

    fn round(&mut self) -> Vec<DeviceId> {
        let n = self.working.len();
        self.rng
            .distinct(n, n)
            .into_iter()
            .map(|i| self.working[i])
            .collect()
    }
}

fn withdraw_one(fib: &Fib, rng: &mut Rng) -> Fib {
    let routes: Vec<usize> = (0..fib.len())
        .filter(|&i| !fib.entries()[i].local)
        .collect();
    let skip = routes[rng.below(routes.len())];
    let mut b = FibBuilder::new(fib.device());
    for (i, e) in fib.entries().iter().enumerate() {
        if i != skip {
            b.push(e.prefix, fib.next_hops(e).to_vec(), e.local);
        }
    }
    b.finish()
}

fn inputs(ctx: &Ctx) -> (MetadataService, Arc<ChurnSource>, Vec<DeviceId>) {
    let topology = ctx
        .tracer
        .span("dctopo.build_clos", || build_clos(&shape()));
    let (fibs, _) = ctx.tracer.span("bgpsim.simulate", || {
        simulate_with(
            &topology,
            &bgpsim::SimConfig::healthy(),
            SimOptions::default(),
        )
    });
    let meta = ctx.tracer.span("dctopo.metadata", || {
        MetadataService::from_topology(&topology)
    });
    let candidates: Vec<DeviceId> = topology
        .devices()
        .iter()
        .filter(|d| d.role != Role::RegionalSpine)
        .map(|d| d.id)
        .collect();
    let mut rng = Rng::new(ctx.seed, 6);
    let mut working: Vec<DeviceId> = rng
        .distinct(candidates.len(), WORKING_SET)
        .into_iter()
        .map(|i| candidates[i])
        .collect();
    working.sort();
    let mut withdrawn: Vec<Option<Fib>> = vec![None; fibs.len()];
    ctx.tracer.span("bgpsim.fib_builder", || {
        for &d in &working {
            withdrawn[d.0 as usize] = Some(withdraw_one(&fibs[d.0 as usize], &mut rng));
        }
    });
    let n = fibs.len();
    let source = ChurnSource {
        healthy: fibs,
        withdrawn,
        flag: (0..n).map(|_| AtomicBool::new(false)).collect(),
        served: (0..n).map(|_| AtomicU8::new(0)).collect(),
        pull_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        epoch: Instant::now(),
    };
    (meta, Arc::new(source), working)
}

fn setup(ctx: &Ctx, meta: &MetadataService, source: &Arc<ChurnSource>) -> ValidationService {
    let builder = ctx
        .tracer
        .span("contracts.generate", || Validator::new(meta).shards(1));
    let service = ctx
        .tracer
        .span("service.build", || builder.build_service(source.clone()));
    let all: Vec<DeviceId> = (0..source.healthy.len() as u32).map(DeviceId).collect();
    ctx.tracer.span("service.cold_pull", || {
        service.pull_all(&all);
        service.drain();
    });
    service
}

/// Mode counters and back-pressure stalls, from the service's own
/// metrics.
fn service_counters(service: &ValidationService) -> [u64; 4] {
    let snap = service.handle().snapshot();
    let mode = |m| {
        snap.counter("rcdc_validate_mode_total", &[("mode", m), ("shard", "0")])
            .unwrap_or(0)
    };
    [
        mode("full"),
        mode("incremental"),
        mode("cache_hit"),
        snap.counter("rcdc_service_backpressure_total", &[("shard", "0")])
            .unwrap_or(0),
    ]
}

/// One open-loop event's timeline.
struct Event {
    device: DeviceId,
    hash: u64,
    due: Instant,
    submitted: Option<Instant>,
    pulled: Option<Instant>,
    seen: Option<Instant>,
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (meta, source, working) = ctx.tracer.span("bench.inputs", || inputs(ctx));

    let service = ctx.setups(&mut out, SETUPS, || setup(ctx, &meta, &source));
    let handle = service.handle();
    let cold = service_counters(&service);
    out.counters.push(("cold.mode_full".into(), cold[0]));

    let mut stream = DeviceStream::new(&working, Rng::new(ctx.seed, 7));

    // The saturated units and the open loop's segments alternate, so
    // both sample the whole run.
    let per_segment = ((RATE * ctx.seconds * OPEN_LOOP_SHARE) as usize / SEGMENTS).max(1);
    let mut rng = Rng::new(ctx.seed, 8);
    let mut events: Vec<Event> = Vec::new();
    let mut depths: Vec<Vec<usize>> = Vec::new();
    let mut modes = [0u64; 3];
    for _ in 0..SEGMENTS {
        ctx.units(&mut out, 1, 0.0, |out| {
            (saturated(ctx, &service, &source, &mut stream, out), ())
        });
        let before = service_counters(&service);
        let (segment, depth) = open_loop(&service, &source, &mut stream, &mut rng, per_segment);
        let after = service_counters(&service);
        for (m, (a, b)) in modes.iter_mut().zip(after.iter().zip(before)) {
            *m += a - b;
        }
        events.extend(segment);
        depths.push(depth);
    }
    let capacity = 2.0 * working.len() as f64 / median(&out.work_s);
    let after = service_counters(&service);
    out.counters
        .push(("open_loop.events".into(), events.len() as u64));
    for (m, v) in ["full", "incremental", "cache_hit"].iter().zip(modes) {
        out.counters.push((format!("open_loop.mode_{m}"), v));
    }

    let ms = |a: Instant, b: Instant| b.saturating_duration_since(a).as_secs_f64() * 1e3;
    let mut notify = Vec::new();
    let mut queue_wait = Vec::new();
    let mut post_pull = Vec::new();
    let mut late = Vec::new();
    for (i, e) in events.iter().enumerate() {
        out.attempted += 1;
        let Some(seen) = e.seen else {
            out.fail(format!(
                "open-loop event {i} (device {}) never reached a verdict",
                e.device.0
            ));
            continue;
        };
        let pulled = e.pulled.expect("seen events record their pull");
        notify.push(ms(e.due, seen));
        queue_wait.push(ms(e.due, pulled));
        post_pull.push(ms(pulled, seen));
        late.push(ms(e.due, e.submitted.expect("every event is submitted")));
        if ctx.traced {
            let root = ctx.tracer.record("bench.event", e.due, seen, None);
            ctx.tracer.record("service.queue_wait", e.due, pulled, root);
            ctx.tracer.record("service.post_pull", pulled, seen, root);
        }
    }
    out.latency_ms = notify.clone();
    // Mean queue depth at submit, last quarter of a segment minus its
    // first quarter; the largest over the segments.
    let growth = depths
        .iter()
        .filter(|d| d.len() >= 4)
        .map(|d| {
            let q = d.len() / 4;
            let mean = |s: &[usize]| s.iter().sum::<usize>() as f64 / s.len() as f64;
            mean(&d[d.len() - q..]) - mean(&d[..q])
        })
        .fold(0.0, f64::max);
    if growth > 1.0 {
        eprintln!(
            "perfbench: service_churn: the backlog grew at {RATE} events/s (by {growth:.1} events on average from the first to the last quarter)"
        );
    }

    ctx.untraced(|| final_check(&meta, &source, &working, &handle, &mut out));
    if ctx.traced {
        replay(ctx, &meta, &source, &working);
    }

    out.summary("service_capacity_eps", capacity, "1/s");
    out.summary("notify_p50_ms", quantile(&notify, 0.5), "ms");
    out.summary("notify_p99_ms", quantile(&notify, 0.99), "ms");
    out.summary("open_loop_rate_eps", RATE, "1/s");
    out.summary("open_loop_events", events.len() as f64, "count");
    out.summary("generator_late_p99_ms", quantile(&late, 0.99), "ms");
    out.summary("backlog_growth", growth, "count");
    if ctx.traced {
        out.set(
            "dctopo.build_clos_s",
            span_median_s(ctx, "dctopo.build_clos"),
        );
        out.set("dctopo.metadata_s", span_median_s(ctx, "dctopo.metadata"));
        out.set("bgpsim.simulate_s", span_median_s(ctx, "bgpsim.simulate"));
        out.set(
            "contracts.generate_s",
            span_median_s(ctx, "contracts.generate"),
        );
        out.set("service.build_s", span_median_s(ctx, "service.build"));
        out.set(
            "service.cold_pull_s",
            span_median_s(ctx, "service.cold_pull"),
        );
        out.set("service.capacity_eps", capacity);
        out.set("service.notify_p50_ms", quantile(&notify, 0.5));
        out.set("service.notify_p99_ms", quantile(&notify, 0.99));
        out.set("service.queue_wait_p50_ms", quantile(&queue_wait, 0.5));
        out.set("service.queue_wait_p99_ms", quantile(&queue_wait, 0.99));
        out.set("service.post_pull_p50_ms", quantile(&post_pull, 0.5));
        out.set("service.generator_late_p99_ms", quantile(&late, 0.99));
        out.set("service.backlog_growth", growth);
        out.set(
            "service.queue_depth_max",
            depths.iter().flatten().copied().max().unwrap_or(0) as f64,
        );
        out.set("service.backpressure_total", after[3] as f64);
        out.set("pipeline.mode_full", after[0] as f64);
        out.set("pipeline.mode_incremental", after[1] as f64);
        out.set("pipeline.mode_cache_hit", after[2] as f64);
        out.set(
            "pipeline.validate_notification_us",
            span_mean_s(ctx, "pipeline.validate_notification") * 1e6,
        );
        out.set(
            "netprim.to_wire_us",
            span_mean_s(ctx, "netprim.to_wire") * 1e6,
        );
        out.set(
            "netprim.from_wire_us",
            span_mean_s(ctx, "netprim.from_wire") * 1e6,
        );
        out.set(
            "netprim.fib_delta_us",
            span_mean_s(ctx, "netprim.fib_delta") * 1e6,
        );
        out.set(
            "engine.validate_delta_us",
            span_mean_s(ctx, "engine.validate_delta") * 1e6,
        );
        set_validate_device(ctx, &mut out);
    }
    out
}

/// One saturated unit: every working-set device flipped twice, one
/// round at a time (a device may not have two events in flight).
/// Withdrawals cost less than restores, so each unit does as many of
/// both. Returns the submit-to-drained time of the two rounds.
fn saturated(
    ctx: &Ctx,
    service: &ValidationService,
    source: &ChurnSource,
    stream: &mut DeviceStream,
    out: &mut Outcome,
) -> f64 {
    let handle = service.handle();
    let mut dt = 0.0;
    for _ in 0..2 {
        let round: Vec<(DeviceId, u64)> = stream
            .round()
            .into_iter()
            .map(|d| {
                let next = !source.flag[d.0 as usize].load(Ordering::SeqCst);
                (d, source.table(d, next).content_hash())
            })
            .collect();
        let t0 = Instant::now();
        ctx.tracer.span("service.submit", || {
            for &(d, _) in &round {
                source.flip(d);
                service.submit(IngestEvent::Pull(d));
            }
        });
        ctx.tracer.span("service.drain", || service.drain());
        dt += t0.elapsed().as_secs_f64();
        for &(d, h) in &round {
            out.attempted += 1;
            let got = handle.verdict(d).map(|v| v.fib_hash);
            out.check(got == Some(h), || {
                format!(
                    "device {}: drained without the verdict for its new table",
                    d.0
                )
            });
        }
    }
    dt
}

/// One open-loop segment of `n` events on a seeded Poisson schedule at
/// `RATE`: submit each event when due, poll for verdicts between due
/// times. Returns the events and the number in flight at each submit.
fn open_loop(
    service: &ValidationService,
    source: &ChurnSource,
    stream: &mut DeviceStream,
    rng: &mut Rng,
    n: usize,
) -> (Vec<Event>, Vec<usize>) {
    let handle = service.handle();
    let start = Instant::now() + Duration::from_millis(5);
    let mut at = Duration::ZERO;
    let mut events: Vec<Event> = (0..n)
        .map(|_| {
            at += Duration::from_secs_f64(-rng.unit().ln() / RATE);
            Event {
                device: stream.next(),
                hash: 0,
                due: start + at,
                submitted: None,
                pulled: None,
                seen: None,
            }
        })
        .collect();
    let mut outstanding: Vec<usize> = Vec::new();
    let mut depth: Vec<usize> = Vec::with_capacity(n);
    let mut next = 0usize;
    loop {
        let now = Instant::now();
        // An event whose device still has one in flight waits for it
        // (and holds back the events after it): its table would
        // otherwise replace the earlier one before that was pulled.
        while next < n
            && events[next].due <= now
            && !outstanding
                .iter()
                .any(|&i| events[i].device == events[next].device)
        {
            let e = &mut events[next];
            let withdrawn = source.flip(e.device);
            e.hash = source.table(e.device, withdrawn).content_hash();
            e.submitted = Some(Instant::now());
            service.submit(IngestEvent::Pull(e.device));
            outstanding.push(next);
            depth.push(outstanding.len());
            next += 1;
        }
        outstanding.retain(|&i| {
            let e = &mut events[i];
            if handle.verdict(e.device).map(|v| v.fib_hash) == Some(e.hash) {
                e.seen = Some(Instant::now());
                e.pulled = Some(source.pull_start(e.device));
                false
            } else {
                true
            }
        });
        if next == n && (outstanding.is_empty() || now > events[n - 1].due + COMPLETION_TIMEOUT) {
            break;
        }
        let wake = if next < n {
            events[next].due.min(now + POLL)
        } else {
            now + POLL
        };
        std::thread::sleep(wake.saturating_duration_since(Instant::now()));
    }
    service.drain();
    (events, depth)
}

/// Every working-set device's final verdict against the reference
/// engine's verdict on the table the device last served.
fn final_check(
    meta: &MetadataService,
    source: &ChurnSource,
    working: &[DeviceId],
    handle: &rcdc::ServiceHandle,
    out: &mut Outcome,
) {
    let generator = ContractGenerator::new(meta);
    let oracle = ReferenceTrieEngine::new();
    for &d in working {
        out.attempted += 1;
        let withdrawn = match source.served[d.0 as usize].load(Ordering::SeqCst) {
            1 => false,
            2 => true,
            _ => {
                out.fail(format!("device {} was never pulled", d.0));
                continue;
            }
        };
        out.check(
            withdrawn == source.flag[d.0 as usize].load(Ordering::SeqCst),
            || format!("device {}: its last flip was never pulled", d.0),
        );
        let fib = source.table(d, withdrawn);
        let expected = oracle.validate_device(fib, &generator.device(d));
        let ok = handle
            .verdict(d)
            .is_some_and(|v| v.fib_hash == fib.content_hash() && v.report == expected);
        out.check(ok, || {
            format!(
                "device {}: final verdict differs from a direct validation of its last table",
                d.0
            )
        });
    }
}

/// The worker's per-event steps, through their own entry points, on
/// seeded withdraw events.
fn replay(ctx: &Ctx, meta: &MetadataService, source: &ChurnSource, working: &[DeviceId]) {
    let generator = ContractGenerator::new(meta);
    let engine = TrieEngine::new();
    let clock = RealClock::new();
    let mut rng = Rng::new(ctx.seed, 9);
    ctx.tracer.span("bench.replay", || {
        for i in rng.distinct(working.len(), REPLAYS) {
            let d = working[i];
            let (prev, new) = (source.table(d, false), source.table(d, true));
            let contracts = ctx.tracer.span("contracts.device", || generator.device(d));
            let wire = ctx.tracer.span("netprim.to_wire", || new.to_wire());
            let decoded = ctx
                .tracer
                .span("netprim.from_wire", || Fib::from_wire(&wire));
            let delta = ctx
                .tracer
                .span("netprim.fib_delta", || Fib::delta(prev, new));
            let prior = ctx.tracer.span("engine.validate_device", || {
                engine.validate_device(prev, &contracts)
            });
            ctx.tracer.span("engine.validate_delta", || {
                engine.validate_delta(new, &contracts, &delta, &prior)
            });
            let (cstore, fstore, cache) = ctx.tracer.span("pipeline.stores", || {
                let cstore = ContractStore::default();
                cstore.put(d, contracts);
                let fstore = FibStore::default();
                fstore.put(prev.clone());
                let cache = VerdictCache::default();
                let (_, epoch) = cstore.get_versioned(d).expect("just published");
                cache.store(d, prev.content_hash(), epoch, prior);
                fstore.put(decoded.expect("the wire codec round-trips"));
                (cstore, fstore, cache)
            });
            ctx.tracer.span("pipeline.validate_notification", || {
                validate_notification(d, &cstore, &fstore, &cache, &engine, &clock, None)
            });
        }
    });
}
