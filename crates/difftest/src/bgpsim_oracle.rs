//! Oracle: the optimized BGP fixed point vs the frozen reference.
//!
//! The what-if and rollout oracles compare `Baseline::resimulate`
//! against `simulate`, and both run the same propagate loop, so a bug
//! shared by the two would pass them. This oracle checks the simulator
//! itself against `bgpsim::sim_reference`, the pre-rewrite engine kept
//! verbatim, on a small seeded Clos (1–3 clusters) with downed links
//! and random §2.6.2 overrides, ASN collisions included:
//!
//! * `simulate_with` at 1 and 3 threads equals the reference, bit for
//!   bit (interned pools included), with equal work counters;
//! * `Baseline::converge`'s healthy tables equal `simulate`;
//! * one random link/device failure scenario, resimulated from the
//!   baseline and spliced, equals a from-scratch `simulate` of the
//!   faulted topology.
//!
//! A failing case is minimized over its fault list.

use crate::rng::Rng;
use crate::shrink::shrink_list;
use crate::Failure;
use bgpsim::{sim_reference, simulate, simulate_with, Baseline, FaultSpec, SimConfig, SimOptions};
use dctopo::{build_clos, ClosParams, DeviceId, LinkId, LinkState, Topology};

/// One replayable fault on the fabric or its config.
#[derive(Debug, Clone)]
enum Fault {
    LinkDown(u32),
    RibFib(u32, usize),
    L2Port(u32),
    DefaultReject(u32),
    MaxEcmp(u32, usize),
    /// The first device takes the second's ASN.
    AsnCollision(u32, u32),
}

/// The faulted topology and config.
fn apply(params: &ClosParams, faults: &[Fault]) -> (Topology, SimConfig) {
    let mut topology = build_clos(params);
    let mut config = SimConfig::healthy();
    for f in faults {
        match *f {
            Fault::LinkDown(l) => topology.set_link_state(LinkId(l), LinkState::OperDown),
            Fault::RibFib(d, h) => config = config.with_rib_fib_bug(DeviceId(d), h),
            Fault::L2Port(d) => config = config.with_l2_port_bug(DeviceId(d)),
            Fault::DefaultReject(d) => config = config.with_default_reject(DeviceId(d)),
            Fault::MaxEcmp(d, k) => config = config.with_max_ecmp(DeviceId(d), k),
            Fault::AsnCollision(d, other) => {
                let asn = topology.device(DeviceId(other)).asn;
                config = config.with_asn_override(DeviceId(d), asn);
            }
        }
    }
    (topology, config)
}

/// Run every check on one case; the first disagreement, if any.
fn check(params: &ClosParams, faults: &[Fault], scenario: &FaultSpec) -> Option<String> {
    let (topology, config) = apply(params, faults);
    let reference = sim_reference::simulate(&topology, &config);
    let (serial, serial_stats) = simulate_with(&topology, &config, SimOptions { threads: 1 });
    if let Some(d) = (0..serial.len()).find(|&d| serial[d] != reference[d]) {
        return Some(format!(
            "simulate diverges from sim_reference at device {d}"
        ));
    }
    let (parallel, parallel_stats) = simulate_with(&topology, &config, SimOptions { threads: 3 });
    if parallel != serial {
        return Some("simulate at 3 threads diverges from 1 thread".into());
    }
    if parallel_stats != serial_stats {
        return Some(format!(
            "work counters depend on the thread count: {serial_stats:?} vs {parallel_stats:?}"
        ));
    }
    let base = Baseline::converge(&topology, &config);
    if base.healthy_fibs() != &serial[..] {
        return Some("Baseline::converge healthy tables diverge from simulate".into());
    }
    let spliced = base.resimulate(scenario).splice(base.healthy_fibs());
    let mut faulted = topology.clone();
    scenario.apply(&mut faulted);
    let scratch = simulate(&faulted, &config);
    if let Some(d) = (0..scratch.len()).find(|&d| spliced[d] != scratch[d]) {
        return Some(format!(
            "resimulate + splice diverges from scratch at device {d} under {scenario:?}"
        ));
    }
    None
}

fn random_params(r: &mut Rng) -> ClosParams {
    // Spines must spread evenly across the leaf planes.
    let leaves = r.range(1, 3) as u32;
    ClosParams {
        clusters: r.range(1, 3) as u32,
        tors_per_cluster: r.range(1, 4) as u32,
        leaves_per_cluster: leaves,
        spines: leaves * r.range(1, 2) as u32,
        regional_spines: r.range(1, 2) as u32,
        regional_groups: 1,
        prefixes_per_tor: r.range(1, 2) as u32,
    }
}

pub(crate) fn run(seed: u64) -> Result<(), Failure> {
    let mut r = Rng::new(seed);
    let params = random_params(&mut r);
    let topology = build_clos(&params);
    let n = topology.len() as u64;
    let links = topology.links().len() as u64;
    let faults: Vec<Fault> = (0..r.below(6))
        .map(|_| {
            let d = r.below(n) as u32;
            match r.below(6) {
                0 => Fault::LinkDown(r.below(links) as u32),
                1 => Fault::RibFib(d, r.range(1, 2) as usize),
                2 => Fault::L2Port(d),
                3 => Fault::DefaultReject(d),
                4 => Fault::MaxEcmp(d, r.range(1, 2) as usize),
                _ => Fault::AsnCollision(d, r.below(n) as u32),
            }
        })
        .collect();
    let mut scenario = FaultSpec::default();
    for _ in 0..r.range(1, 2) {
        scenario.links.push(LinkId(r.below(links) as u32));
    }
    if r.chance(1, 3) {
        scenario.devices.push(DeviceId(r.below(n) as u32));
    }
    let Some(summary) = check(&params, &faults, &scenario) else {
        return Ok(());
    };
    let minimized = shrink_list(&faults, |sub| check(&params, sub, &scenario).is_some());
    Err(Failure {
        summary,
        minimized: format!("params: {params:?}\nfaults: {minimized:?}\nscenario: {scenario:?}"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collision_and_bug_mix_is_clean() {
        let params = ClosParams {
            clusters: 2,
            tors_per_cluster: 3,
            leaves_per_cluster: 2,
            spines: 2,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        };
        let faults = [
            Fault::LinkDown(0),
            Fault::RibFib(1, 1),
            Fault::L2Port(2),
            Fault::DefaultReject(3),
            Fault::MaxEcmp(4, 1),
            Fault::AsnCollision(8, 6),
        ];
        let scenario = FaultSpec {
            links: vec![LinkId(3)],
            devices: vec![DeviceId(7)],
        };
        assert_eq!(check(&params, &faults, &scenario), None);
    }

    #[test]
    fn first_seeds_are_clean() {
        for seed in 0..8 {
            assert!(run(seed).is_ok(), "seed {seed}");
        }
    }
}
