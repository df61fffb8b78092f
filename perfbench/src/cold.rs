//! `cold_sweep_10k`: the §2.6.3 claim — every router of a 10⁴-device
//! Clos validated from scratch on one CPU.
//!
//! Set-up builds the topology and its metadata and injects the run's
//! seeded faults: failed ToR uplinks, and one ToR with each §2.6.2 bug
//! class (RIB→FIB default-route loss, layer-2 port bug, default-route
//! rejection, ECMP truncation), so the verdicts are not all clean. One
//! work unit is a cold sweep: the routing fixed point
//! (`simulate_with`), contract generation (`Validator::new` + `build`),
//! then `Validator::run` over every device, single-threaded. No
//! restart, delta, memo or service code runs here.
//!
//! Checks: every device has a verdict, every injected fault shows up
//! as a dirty device, and a seeded device sample plus every faulted
//! device agree with the frozen reference trie engine. The traced run
//! also re-validates every device through `Engine::validate_device`,
//! which splits `Validator::run` into engine time and runner overhead.

use crate::util::{median, rss_mb, Rng};
use crate::{set_validate_device, span_median_s, Ctx, Outcome};
use bgpsim::{simulate_with, SimConfig, SimOptions};
use dctopo::{build_clos, DeviceId, LinkId, LinkState, MetadataService, Role, Topology};
use rcdc::{Engine, ReferenceTrieEngine, TrieEngine, Validator};

const SETUPS: usize = 25;
const FAILED_LINKS: usize = 4;
const ORACLE_SAMPLE: usize = 48;

struct Setup {
    topology: Topology,
    meta: MetadataService,
    config: SimConfig,
    failed_links: Vec<LinkId>,
    bugged: Vec<DeviceId>,
}

fn setup(ctx: &Ctx) -> Setup {
    let params = dcbench::ten_k_shape();
    let mut topology = ctx.tracer.span("dctopo.build_clos", || build_clos(&params));
    // Contracts come from the expected topology: metadata is taken
    // before any link fails.
    let meta = ctx.tracer.span("dctopo.metadata", || {
        MetadataService::from_topology(&topology)
    });
    // Faults land on ToRs and ToR uplinks, where the fabric is
    // symmetric: the seed picks which ones, but every seed leaves the
    // sweep the same amount of work (a bug on a leaf or spine would
    // multiply the violations, and with them time and memory).
    let mut rng = Rng::new(ctx.seed, 1);
    let tors: Vec<DeviceId> = topology
        .devices_with_role(Role::Tor)
        .map(|d| d.id)
        .collect();
    let uplinks: Vec<LinkId> = topology
        .links()
        .iter()
        .filter(|l| tors.binary_search(&l.lo).is_ok() || tors.binary_search(&l.hi).is_ok())
        .map(|l| l.id)
        .collect();
    let failed_links: Vec<LinkId> = rng
        .distinct(uplinks.len(), FAILED_LINKS)
        .into_iter()
        .map(|i| uplinks[i])
        .collect();
    for &l in &failed_links {
        topology.set_link_state(l, LinkState::OperDown);
    }
    let bugged: Vec<DeviceId> = rng
        .distinct(tors.len(), 4)
        .into_iter()
        .map(|i| tors[i])
        .collect();
    let config = SimConfig::healthy()
        .with_rib_fib_bug(bugged[0], 1)
        .with_l2_port_bug(bugged[1])
        .with_default_reject(bugged[2])
        .with_max_ecmp(bugged[3], 1);
    Setup {
        topology,
        meta,
        config,
        failed_links,
        bugged,
    }
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let s = ctx.setups(&mut out, SETUPS, || setup(ctx));
    let devices = s.topology.devices().len();

    let mut first_counters: Option<Vec<(&str, u64)>> = None;
    let mut resident_mb = None;
    let mut phases: Vec<[f64; 3]> = Vec::new();
    let (fibs, validator, report) = ctx.units(&mut out, 1, ctx.seconds, |out| {
        let t0 = std::time::Instant::now();
        let (fibs, stats) = ctx.tracer.span("bgpsim.simulate", || {
            simulate_with(&s.topology, &s.config, SimOptions::default())
        });
        let t1 = std::time::Instant::now();
        let rss0 = rss_mb();
        let validator = ctx.tracer.span("contracts.generate", || {
            Validator::new(&s.meta).threads(1).build()
        });
        let rss1 = rss_mb();
        let t2 = std::time::Instant::now();
        let report = ctx.tracer.span("runner.run", || validator.run(&fibs));
        let t3 = std::time::Instant::now();
        let dt = (t3 - t0).as_secs_f64();
        phases.push([
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            (t3 - t2).as_secs_f64(),
        ]);
        // Only the first unit allocates the store into fresh pages;
        // later ones reuse the heap the previous unit freed.
        resident_mb.get_or_insert(rss1 - rss0);
        out.attempted += report.reports.len() as u64;
        out.latency_ms.push(dt * 1e3);
        let counters = vec![
            ("bgpsim.relaxations", stats.relaxations),
            ("bgpsim.rounds", stats.rounds),
            (
                "bgpsim.fib_entries",
                fibs.iter().map(|f| f.len() as u64).sum(),
            ),
            (
                "contracts.count",
                validator.contracts().iter().map(|c| c.len() as u64).sum(),
            ),
            ("engine.violations", report.total_violations() as u64),
            ("engine.dirty_devices", report.dirty_devices() as u64),
        ];
        match &first_counters {
            None => first_counters = Some(counters),
            Some(first) => out.same_counters("cold sweep", first, &counters),
        }
        (dt, (fibs, validator, report))
    });
    for (name, v) in first_counters.expect("at least one work unit") {
        out.counter(name, v);
    }
    out.set("contracts.resident_mb", resident_mb.unwrap_or(0.0));

    if ctx.traced {
        // `Validator::run` is one call; its per-device engine calls are
        // internal. Re-run them through the engine's public entry point
        // on the same inputs.
        let engine = TrieEngine::new();
        ctx.tracer.span("bench.replay", || {
            for (fib, contracts) in fibs.iter().zip(validator.contracts()) {
                ctx.tracer.span("engine.validate_device", || {
                    engine.validate_device(fib, contracts)
                });
            }
        });
    }

    ctx.untraced(|| check(&s, &fibs, &validator, &report, ctx.seed, &mut out));
    out.check(report.reports.len() == devices, || {
        format!("{} verdicts for {devices} devices", report.reports.len())
    });

    let sweep_s = median(&out.work_s);
    out.summary("cold_sweep_s", sweep_s, "s");
    for (i, name) in ["simulate_s", "contracts_s", "validate_s"]
        .into_iter()
        .enumerate()
    {
        let v: Vec<f64> = phases.iter().map(|p| p[i]).collect();
        out.summary(name, median(&v), "s");
    }
    out.summary("devices", devices as f64, "count");
    out.summary("devices_per_s", devices as f64 / sweep_s, "1/s");
    fill_layers(ctx, &mut out);
    out
}

/// Oracle checks, outside the timed region.
fn check(
    s: &Setup,
    fibs: &[bgpsim::Fib],
    validator: &Validator,
    report: &rcdc::DatacenterReport,
    seed: u64,
    out: &mut Outcome,
) {
    let dirty = |d: DeviceId| {
        report
            .reports
            .get(d.0 as usize)
            .is_some_and(|r| !r.is_clean())
    };
    for &d in &s.bugged {
        out.attempted += 1;
        out.check(dirty(d), || {
            format!("bugged device {} validated clean", d.0)
        });
    }
    for &l in &s.failed_links {
        let link = s.topology.link(l);
        out.attempted += 1;
        out.check(dirty(link.lo) || dirty(link.hi), || {
            format!("failed link {} left both endpoints clean", l.0)
        });
    }
    let oracle = ReferenceTrieEngine::new();
    let mut sample: Vec<usize> = Rng::new(seed, 2).distinct(fibs.len(), ORACLE_SAMPLE);
    sample.extend(s.bugged.iter().map(|d| d.0 as usize));
    for l in &s.failed_links {
        let link = s.topology.link(*l);
        sample.extend([link.lo.0 as usize, link.hi.0 as usize]);
    }
    for du in sample {
        let expected = oracle.validate_device(&fibs[du], &validator.contracts()[du]);
        out.attempted += 1;
        out.check(report.reports.get(du) == Some(&expected), || {
            format!("device {du}: verdict differs from the reference engine")
        });
    }
}

fn fill_layers(ctx: &Ctx, out: &mut Outcome) {
    if !ctx.traced {
        return;
    }
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
    let run_s = span_median_s(ctx, "runner.run");
    let device_s = set_validate_device(ctx, out);
    out.set("runner.run_s", run_s);
    out.set("runner.overhead_s", run_s - device_s);
}
