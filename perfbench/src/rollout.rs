//! `rollout_migrate`: planning a safe order for an uplink migration on
//! the 1096-device E2 shape.
//!
//! Set-up is `seeded_scenario(Migrate, 8 racks)` (32 changes: the old
//! half of each rack's uplinks shut, the new half brought up) and
//! `build_planner` (one converge and the production validation). One
//! work unit is a `plan` with the `Blackhole` condition on a fresh
//! planner, single-threaded; a safe plan is expected. It runs the same
//! restart/delta/memo stack as `whatif_k2`, but link bring-ups force
//! full re-anchors (`Baseline::converge`), and it exercises the lattice
//! search and the change-set memo.
//!
//! Checks: the emitted order replays clean through `check_order`, and
//! seeded intermediate states of it are byte-compared against a clone,
//! apply, from-scratch simulate and cold validation (the E19 audit).
//! The traced run also prices single states with `state_reports` on a
//! fresh planner, split into states that need a re-anchor and states
//! that only restart, and calls the layers under them directly:
//! `Baseline::converge`, `Baseline::resimulate`, `ScenarioFibs::splice`,
//! `Engine::validate_device` and `Engine::validate_delta`.

use crate::util::{median, Rng};
use crate::{set_validate_device, share, span_mean_s, span_median_s, Ctx, Outcome};
use bgpsim::{simulate, Baseline, FaultSpec, Fib};
use dctopo::{build_clos, LinkState, MetadataService};
use rcdc::rollout::{seeded_scenario, RolloutScenario};
use rcdc::{
    generate_contracts, ConfigChange, Engine, FailCondition, ManagedNetwork, PlanOptions,
    PlanVerdict, RolloutPlanner, TrieEngine, Validator,
};

const SETUPS: usize = 7;
const RACKS: usize = 8;
const AUDITS: usize = 2;
const REPLAYS_PER_KIND: usize = 3;

struct Setup {
    net: ManagedNetwork,
    changes: Vec<ConfigChange>,
    meta: MetadataService,
    planner: RolloutPlanner,
}

fn build_planner(ctx: &Ctx, meta: &MetadataService, net: &ManagedNetwork) -> RolloutPlanner {
    ctx.tracer.span("rollout.build", || {
        Validator::new(meta).threads(1).build_planner(net)
    })
}

fn setup(ctx: &Ctx) -> Setup {
    let topology = ctx
        .tracer
        .span("dctopo.build_clos", || build_clos(&crate::whatif::shape()));
    let (net, changes) = seeded_scenario(&topology, RolloutScenario::Migrate, RACKS, ctx.seed);
    let meta = ctx.tracer.span("dctopo.metadata", || {
        MetadataService::from_topology(&net.topology)
    });
    let planner = build_planner(ctx, &meta, &net);
    Setup {
        net,
        changes,
        meta,
        planner,
    }
}

fn is_bring_up(c: &ConfigChange) -> bool {
    matches!(c, ConfigChange::SetLinkState { state, .. } if state.session_up())
}

pub fn run(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let Setup {
        net,
        changes,
        meta,
        planner,
    } = ctx.setups(&mut out, SETUPS, || setup(ctx));

    let opts = PlanOptions {
        condition: FailCondition::Blackhole,
        threads: 1,
        ..PlanOptions::default()
    };
    let mut fresh = Some(planner);
    let mut first: Option<Vec<(&str, u64)>> = None;
    let last = ctx.units(&mut out, 1, ctx.seconds, |out| {
        // The planner memoizes states across calls: each unit plans on
        // a planner that has not seen this change set.
        let planner = fresh
            .take()
            .unwrap_or_else(|| build_planner(ctx, &meta, &net));
        let t0 = std::time::Instant::now();
        let report = ctx
            .tracer
            .span("rollout.plan", || planner.plan(&changes, &opts));
        let dt = t0.elapsed().as_secs_f64();
        out.latency_ms.push(dt * 1e3);
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("plan rejected the change set: {e}"));
                return (dt, None);
            }
        };
        out.attempted += report.states_evaluated as u64;
        let counters = vec![
            ("rollout.states", report.states_evaluated as u64),
            ("rollout.anchors", report.anchors_built as u64),
            (
                "rollout.devices_revalidated",
                report.devices_revalidated as u64,
            ),
            ("rollout.verdicts_reused", report.verdicts_reused as u64),
            ("rollout.dead_prefix_hits", report.dead_prefix_hits as u64),
            ("rollout.backtracks", report.backtracks as u64),
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
            Some(f) => out.same_counters("rollout plan", f, &counters),
        }
        (dt, Some((planner, report)))
    });
    let Some((planner, report)) = last else {
        return out;
    };
    for (name, v) in first.expect("a successful work unit") {
        out.counter(name, v);
    }
    let patch_ratio = share(
        out.count("bgpsim.restart.patched"),
        out.count("bgpsim.restart.repropagated"),
    );
    let memo_ratio = share(
        out.count("rollout.verdicts_reused"),
        out.count("rollout.devices_revalidated"),
    );
    out.set("bgpsim.restart.patch_ratio", patch_ratio);
    out.set("rollout.memo_hit_ratio", memo_ratio);

    let ordered: Vec<ConfigChange> = match &report.verdict {
        PlanVerdict::Safe(steps) => steps.iter().map(|s| s.change.clone()).collect(),
        v => {
            out.fail(format!("expected a safe plan, got {v}"));
            return out;
        }
    };
    let oracle = ctx.tracer.span("bench.replay", || {
        ctx.tracer.span("contracts.generate", || {
            Validator::with_contracts(generate_contracts(&meta))
                .threads(1)
                .build()
        })
    });
    if ctx.traced {
        replay(ctx, &net, &meta, &changes, &ordered, oracle.contracts());
    }
    ctx.untraced(|| audit(ctx.seed, &net, &planner, &ordered, &opts, &oracle, &mut out));

    let plan_s = median(&out.work_s);
    out.summary("rollout_plan_s", plan_s, "s");
    out.summary("states_per_s", out.count("rollout.states") / plan_s, "1/s");
    out.summary("memo_hit_ratio", memo_ratio, "ratio");
    if ctx.traced {
        fill_layers(ctx, &mut out);
    }
    out
}

/// The E19 audit on the emitted order.
fn audit(
    seed: u64,
    net: &ManagedNetwork,
    planner: &RolloutPlanner,
    ordered: &[ConfigChange],
    opts: &PlanOptions,
    oracle: &Validator,
    out: &mut Outcome,
) {
    out.attempted += 1;
    match planner.check_order(ordered, opts) {
        Ok(c) => out.check(c.first_unsafe.is_none(), || {
            format!("the emitted order is unsafe at step {:?}", c.first_unsafe)
        }),
        Err(e) => out.fail(format!("check_order rejected the emitted order: {e}")),
    }
    for cut in Rng::new(seed, 5).distinct(ordered.len(), AUDITS) {
        let prefix = &ordered[..=cut];
        out.attempted += 1;
        let mut state = net.clone();
        for c in prefix {
            state.apply(c);
        }
        let cold = oracle
            .run(&simulate(&state.topology, &state.config))
            .reports;
        match planner.state_reports(prefix) {
            Ok(reports) => out.check(reports == cold, || {
                format!(
                    "state after step {}: planner reports differ from a from-scratch validation",
                    cut + 1
                )
            }),
            Err(e) => out.fail(format!("state_reports rejected step {}: {e}", cut + 1)),
        }
    }
}

/// Price single states on a fresh planner, then call the layers under
/// one re-anchored state through their own entry points.
fn replay(
    ctx: &Ctx,
    net: &ManagedNetwork,
    meta: &MetadataService,
    changes: &[ConfigChange],
    ordered: &[ConfigChange],
    contracts: &[rcdc::DeviceContracts],
) {
    ctx.tracer.span("bench.replay", || {
        let planner = build_planner(ctx, meta, net);
        // Shut-only prefixes of the submit order restart from the
        // production baseline; prefixes of the emitted order that bring
        // a link up need a re-anchor.
        let shuts = changes.iter().take_while(|c| !is_bring_up(c)).count();
        for k in 1..=REPLAYS_PER_KIND.min(shuts) {
            let _ = ctx.tracer.span("rollout.state_reports_restart", || {
                planner.state_reports(&changes[..k])
            });
        }
        let anchored: Vec<usize> = (0..ordered.len())
            .filter(|&i| ordered[..=i].iter().any(is_bring_up))
            .take(REPLAYS_PER_KIND)
            .collect();
        for &i in &anchored {
            let _ = ctx.tracer.span("rollout.state_reports_anchor", || {
                planner.state_reports(&ordered[..=i])
            });
        }
        let Some(&i) = anchored.last() else {
            return;
        };
        let prefix = &ordered[..=i];
        let mut anchor_net = net.clone();
        let mut shut = Vec::new();
        for c in prefix {
            match c {
                ConfigChange::SetLinkState { link, state }
                    if !state.session_up() && net.topology.link(*link).state == LinkState::Up =>
                {
                    shut.push(*link)
                }
                _ => anchor_net.apply(c),
            }
        }
        let engine = TrieEngine::new();
        let production = planner.baseline_reports();
        let root = ctx
            .tracer
            .span("bgpsim.simulate", || simulate(&net.topology, &net.config));
        let anchor = ctx.tracer.span("bgpsim.converge", || {
            Baseline::converge(&anchor_net.topology, &anchor_net.config)
        });
        let fibs = anchor.healthy_fibs();
        let reports: Vec<rcdc::ValidationReport> = fibs
            .iter()
            .enumerate()
            .map(|(du, fib)| {
                if fib.content_hash() == root[du].content_hash() {
                    production[du].clone()
                } else {
                    ctx.tracer.span("engine.validate_device", || {
                        engine.validate_device(fib, &contracts[du])
                    })
                }
            })
            .collect();
        let scenario = ctx.tracer.span("bgpsim.restart.resimulate", || {
            anchor.resimulate(&FaultSpec::links(shut))
        });
        ctx.tracer.span("bgpsim.splice", || scenario.splice(fibs));
        for (d, fib) in &scenario.changed {
            let du = d.0 as usize;
            let delta = ctx
                .tracer
                .span("netprim.fib_delta", || Fib::delta(&fibs[du], fib));
            ctx.tracer.span("engine.validate_delta", || {
                engine.validate_delta(fib, &contracts[du], &delta, &reports[du])
            });
        }
    });
}

fn fill_layers(ctx: &Ctx, out: &mut Outcome) {
    out.set(
        "dctopo.build_clos_s",
        span_median_s(ctx, "dctopo.build_clos"),
    );
    out.set("dctopo.metadata_s", span_median_s(ctx, "dctopo.metadata"));
    out.set("rollout.build_s", span_median_s(ctx, "rollout.build"));
    out.set("rollout.plan_s", span_median_s(ctx, "rollout.plan"));
    out.set(
        "contracts.generate_s",
        span_median_s(ctx, "contracts.generate"),
    );
    out.set("bgpsim.converge_s", span_median_s(ctx, "bgpsim.converge"));
    out.set(
        "rollout.state_reports_anchor_ms",
        span_mean_s(ctx, "rollout.state_reports_anchor") * 1e3,
    );
    out.set(
        "rollout.state_reports_restart_ms",
        span_mean_s(ctx, "rollout.state_reports_restart") * 1e3,
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
    set_validate_device(ctx, out);
}
