//! `whatif_k2`: k=2 link-failure robustness sweeps on the 1096-device
//! E2 shape.
//!
//! Set-up is `build_whatif`: the one full fixed point
//! (`Baseline::converge`), contract generation and the healthy
//! validation. One work unit is a `sweep` with `k: 2`, a seeded
//! `sample` per level and the `Blackhole` condition, single-threaded
//! and exhaustive (no early exit at a failing scenario, so every seed
//! evaluates the whole sample); its time is almost all
//! `bgpsim::restart` patching plus delta revalidation through the
//! sweep's cross-scenario verdict memo. Every sweep of a run repeats
//! the same scenarios, so their work counters and verdicts must match
//! exactly.
//!
//! The fabric is not 2-robust everywhere: some link pairs leave a
//! device without its default route, and a seeded sample may contain
//! one. So the verdict is checked, not assumed: every failing scenario
//! the sweep lists, and the minimal counterexample it reports, must
//! fail a from-scratch re-simulation and cold validation, and removing
//! any one failure from the minimal counterexample must make that
//! oracle pass.
//!
//! Checks: seeded k=2 scenarios are evaluated with `check_scenario` and
//! byte-compared against a clone + from-scratch simulate + cold
//! validation of the faulted fabric (the E18 audit), which must also
//! agree on whether the scenario fails. The traced run
//! also calls the layers under `check_scenario` on the same scenarios:
//! `Baseline::resimulate`, `ScenarioFibs::splice`, `Fib::delta` and
//! `Engine::validate_delta`, and `Baseline::converge` for set-up.

use crate::util::{median, peak_rss_mb, Rng};
use crate::{share, span_mean_s, span_median_s, Ctx, Outcome};
use bgpsim::{simulate, Baseline, FaultSpec, Fib, SimConfig};
use dctopo::{build_clos, LinkId, MetadataService, Topology};
use rcdc::{
    generate_contracts, Engine, FailCondition, FailureElement, RobustnessVerdict, SweepOptions,
    TrieEngine, ValidationReport, Validator, ViolationReason, WhatIfSweeper,
};

const SETUPS: usize = 7;
/// Scenarios sampled per failure-set size: a sweep checks the healthy
/// fabric, `SAMPLE` single and `SAMPLE` double link failures.
const SAMPLE: usize = 96;
const AUDITS: usize = 2;
const REPLAYS: usize = 8;

pub fn shape() -> dctopo::ClosParams {
    dcbench::scale_shapes()
        .into_iter()
        .find(|(label, _)| *label == "1096-devices")
        .expect("the E2 scaling curve has a 1096-device point")
        .1
}

fn setup(ctx: &Ctx) -> (Topology, MetadataService, WhatIfSweeper) {
    let topology = ctx
        .tracer
        .span("dctopo.build_clos", || build_clos(&shape()));
    let meta = ctx.tracer.span("dctopo.metadata", || {
        MetadataService::from_topology(&topology)
    });
    let sweeper = ctx.tracer.span("whatif.build", || {
        Validator::new(&meta)
            .threads(1)
            .build_whatif(&topology, &SimConfig::healthy())
    });
    (topology, meta, sweeper)
}

/// Seeded distinct link pairs over the sweeper's failure universe.
fn sample_pairs(
    sweeper: &WhatIfSweeper,
    seed: u64,
    stream: u64,
    n: usize,
) -> Vec<[FailureElement; 2]> {
    let universe = sweeper.universe(false);
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|_| {
            let ij = rng.distinct(universe.len(), 2);
            [universe[ij[0]], universe[ij[1]]]
        })
        .collect()
}

fn links_of(pair: &[FailureElement]) -> Vec<LinkId> {
    pair.iter()
        .filter_map(|e| match e {
            FailureElement::Link(l) => Some(*l),
            FailureElement::Device(_) => None,
        })
        .collect()
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let (topology, meta, sweeper) = ctx.setups(&mut out, SETUPS, || setup(ctx));

    let opts = SweepOptions {
        k: 2,
        sample: Some(SAMPLE),
        seed: ctx.seed,
        threads: 1,
        exhaustive: true,
        condition: FailCondition::Blackhole,
        ..SweepOptions::default()
    };
    let hwm0 = peak_rss_mb();
    let mut first: Option<Vec<(&str, u64)>> = None;
    let mut decided: Option<(RobustnessVerdict, Vec<Vec<FailureElement>>)> = None;
    let mut scenarios = 0usize;
    ctx.units(&mut out, 1, ctx.seconds, |out| {
        let t0 = std::time::Instant::now();
        let report = ctx.tracer.span("whatif.sweep", || sweeper.sweep(&opts));
        let dt = t0.elapsed().as_secs_f64();
        out.latency_ms.push(dt * 1e3);
        out.attempted += report.scenarios_checked as u64;
        match &decided {
            None => decided = Some((report.verdict.clone(), report.failing.clone())),
            Some((verdict, failing)) => {
                out.check(*verdict == report.verdict && *failing == report.failing, || {
                    format!(
                        "what-if sweep: verdicts differ between identical units: {verdict:?} vs {:?}",
                        report.verdict
                    )
                })
            }
        }
        scenarios = report.scenarios_checked;
        let counters = vec![
            ("whatif.scenarios", report.scenarios_checked as u64),
            (
                "whatif.devices_revalidated",
                report.devices_revalidated as u64,
            ),
            ("whatif.verdicts_reused", report.verdicts_reused as u64),
            ("bgpsim.restart.patched", report.restart.patched as u64),
            (
                "bgpsim.restart.repropagated",
                report.restart.repropagated as u64,
            ),
            (
                "bgpsim.restart.devices_changed",
                report.restart.devices_changed as u64,
            ),
        ];
        match &first {
            None => first = Some(counters),
            Some(f) => out.same_counters("what-if sweep", f, &counters),
        }
        (dt, ())
    });
    let growth = peak_rss_mb() - hwm0;
    for (name, v) in first.expect("at least one work unit") {
        out.counter(name, v);
    }
    let patch_ratio = share(
        out.count("bgpsim.restart.patched"),
        out.count("bgpsim.restart.repropagated"),
    );
    let memo_ratio = share(
        out.count("whatif.verdicts_reused"),
        out.count("whatif.devices_revalidated"),
    );
    out.set("bgpsim.restart.patch_ratio", patch_ratio);
    out.set("whatif.memo_hit_ratio", memo_ratio);
    out.set("whatif.rss_growth_mb", growth);

    // Contracts for the oracle and the layer replays.
    let oracle = ctx.tracer.span("bench.replay", || {
        ctx.tracer.span("contracts.generate", || {
            Validator::with_contracts(generate_contracts(&meta))
                .threads(1)
                .build()
        })
    });
    if ctx.traced {
        replay(ctx, &topology, &sweeper, oracle.contracts());
    }
    let (verdict, failing) = decided.expect("at least one work unit");
    ctx.untraced(|| {
        check_verdict(&topology, &oracle, &verdict, &failing, &mut out);
        audit(ctx.seed, &topology, &sweeper, &oracle, &mut out);
    });

    let sweep_s = median(&out.work_s);
    out.summary("whatif_scenarios_per_s", scenarios as f64 / sweep_s, "1/s");
    out.summary("whatif_sweep_s", sweep_s, "s");
    out.summary("memo_hit_ratio", memo_ratio, "ratio");
    if ctx.traced {
        out.set("whatif.scenarios_per_s", scenarios as f64 / sweep_s);
        fill_layers(ctx, &mut out);
    }
    out
}

/// The layers under `check_scenario`, called through their own public
/// entry points on seeded scenarios.
fn replay(
    ctx: &Ctx,
    topology: &Topology,
    sweeper: &WhatIfSweeper,
    contracts: &[rcdc::DeviceContracts],
) {
    let engine = TrieEngine::new();
    ctx.tracer.span("bench.replay", || {
        ctx.tracer.span("bgpsim.converge", || {
            Baseline::converge(topology, &SimConfig::healthy())
        });
        let baseline = sweeper.baseline();
        let healthy = baseline.healthy_fibs();
        let priors = sweeper.healthy_reports();
        for pair in sample_pairs(sweeper, ctx.seed, 4, REPLAYS) {
            ctx.tracer.span("whatif.check_scenario", || {
                sweeper.check_scenario(&pair, FailCondition::Blackhole)
            });
            let fault = FaultSpec::links(links_of(&pair));
            let scenario = ctx
                .tracer
                .span("bgpsim.restart.resimulate", || baseline.resimulate(&fault));
            ctx.tracer
                .span("bgpsim.splice", || scenario.splice(healthy));
            for (d, fib) in &scenario.changed {
                let du = d.0 as usize;
                let delta = ctx
                    .tracer
                    .span("netprim.fib_delta", || Fib::delta(&healthy[du], fib));
                ctx.tracer.span("engine.validate_delta", || {
                    engine.validate_delta(fib, &contracts[du], &delta, &priors[du])
                });
            }
        }
    });
}

/// Clone + fail the scenario's links + simulate from scratch + cold
/// validate.
fn cold_reports(
    topology: &Topology,
    oracle: &Validator,
    scenario: &[FailureElement],
) -> Vec<ValidationReport> {
    let mut faulted = topology.clone();
    FaultSpec::links(links_of(scenario)).apply(&mut faulted);
    oracle
        .run(&simulate(&faulted, &SimConfig::healthy()))
        .reports
}

/// Does the scenario fail the `Blackhole` condition on from-scratch
/// reports (some device misses its default route)?
fn blackholes(reports: &[ValidationReport]) -> bool {
    reports.iter().any(|r| {
        r.violations
            .iter()
            .any(|v| matches!(v.reason, ViolationReason::MissingDefault))
    })
}

/// The sweep's verdict against the from-scratch oracle: every listed
/// failing scenario fails, and a counterexample is a failing scenario
/// that passes once any one of its failures is removed.
fn check_verdict(
    topology: &Topology,
    oracle: &Validator,
    verdict: &RobustnessVerdict,
    failing: &[Vec<FailureElement>],
    out: &mut Outcome,
) {
    let fails = |scenario: &[FailureElement]| blackholes(&cold_reports(topology, oracle, scenario));
    for scenario in failing {
        out.attempted += 1;
        out.check(fails(scenario), || {
            format!("the sweep lists {scenario:?} as failing, but a from-scratch validation passes")
        });
    }
    match verdict {
        RobustnessVerdict::Robust(k) => {
            out.attempted += 1;
            out.check(*k == 2 && failing.is_empty(), || {
                format!("Robust({k}) from a k=2 sweep that lists failing scenarios {failing:?}")
            });
        }
        RobustnessVerdict::Counterexample(c) => {
            eprintln!(
                "perfbench: the sample holds {} failing scenario(s); minimal counterexample {:?}",
                failing.len(),
                c.scenario
            );
            out.attempted += 1;
            out.check(
                failing.first() == Some(&c.found) && fails(&c.scenario),
                || format!("counterexample {c:?} is not the first listed failing scenario, or passes from scratch"),
            );
            for i in 0..c.scenario.len() {
                let mut smaller = c.scenario.clone();
                smaller.remove(i);
                out.attempted += 1;
                out.check(!fails(&smaller), || {
                    format!(
                        "counterexample {:?} is not minimal: {smaller:?} fails too",
                        c.scenario
                    )
                });
            }
        }
    }
}

/// The E18 audit: incremental scenario reports against clone +
/// re-simulate + cold validate.
fn audit(
    seed: u64,
    topology: &Topology,
    sweeper: &WhatIfSweeper,
    oracle: &Validator,
    out: &mut Outcome,
) {
    for pair in sample_pairs(sweeper, seed, 3, AUDITS) {
        out.attempted += 1;
        let check = sweeper.check_scenario(&pair, FailCondition::Blackhole);
        let cold = cold_reports(topology, oracle, &pair);
        out.check(check.fails == blackholes(&cold), || {
            format!(
                "scenario {pair:?}: check_scenario says fails={}, a from-scratch validation disagrees",
                check.fails
            )
        });
        out.check(sweeper.spliced_reports(&check) == cold, || {
            format!("scenario {pair:?}: incremental reports differ from a from-scratch validation")
        });
    }
}

fn fill_layers(ctx: &Ctx, out: &mut Outcome) {
    out.set(
        "dctopo.build_clos_s",
        span_median_s(ctx, "dctopo.build_clos"),
    );
    out.set("dctopo.metadata_s", span_median_s(ctx, "dctopo.metadata"));
    out.set("whatif.build_s", span_median_s(ctx, "whatif.build"));
    out.set("whatif.sweep_s", span_median_s(ctx, "whatif.sweep"));
    out.set("bgpsim.converge_s", span_median_s(ctx, "bgpsim.converge"));
    out.set(
        "contracts.generate_s",
        span_median_s(ctx, "contracts.generate"),
    );
    out.set(
        "whatif.check_scenario_us",
        span_mean_s(ctx, "whatif.check_scenario") * 1e6,
    );
    out.set(
        "bgpsim.restart.resimulate_us",
        span_mean_s(ctx, "bgpsim.restart.resimulate") * 1e6,
    );
    out.set("bgpsim.splice_us", span_mean_s(ctx, "bgpsim.splice") * 1e6);
    out.set(
        "netprim.fib_delta_us",
        span_mean_s(ctx, "netprim.fib_delta") * 1e6,
    );
    out.set(
        "engine.validate_delta_us",
        span_mean_s(ctx, "engine.validate_delta") * 1e6,
    );
}
