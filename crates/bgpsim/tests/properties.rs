//! Property-based tests for the BGP simulator: structural invariants
//! that must hold for every generated topology and fault set.

use bgpsim::{simulate, simulate_with, Baseline, SimConfig, SimOptions};
use dctopo::{
    build_clos, ClosParams, DeviceId, LinkId, LinkState, MetadataService, Role, Topology,
};
use proptest::prelude::*;

fn arb_params() -> impl Strategy<Value = ClosParams> {
    (1u32..=3, 1u32..=4, 1u32..=3, 1u32..=2, 1u32..=2).prop_map(
        |(clusters, tors, leaves, spine_per_plane, regionals)| ClosParams {
            clusters,
            tors_per_cluster: tors,
            leaves_per_cluster: leaves,
            spines: leaves * spine_per_plane,
            regional_spines: regionals,
            regional_groups: 1,
            prefixes_per_tor: 1,
        },
    )
}

/// A faulted copy of the fabric: a few `OperDown` links, and a few
/// devices with a random §2.6.2 override each — RIB→FIB default loss,
/// layer-2 port bug, default-route rejection, ECMP truncation, or an
/// ASN collision with another random device.
fn faulted(params: &ClosParams, seed: u64) -> (Topology, SimConfig) {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut topology = build_clos(params);
    let mut rng = StdRng::seed_from_u64(seed);
    let n_links = topology.links().len() as u32;
    for _ in 0..rng.gen_range(0..=4) {
        topology.set_link_state(LinkId(rng.gen_range(0..n_links)), LinkState::OperDown);
    }
    let n = topology.len() as u32;
    let mut config = SimConfig::healthy();
    for _ in 0..rng.gen_range(0..=4) {
        let d = DeviceId(rng.gen_range(0..n));
        config = match rng.gen_range(0..5) {
            0 => config.with_rib_fib_bug(d, rng.gen_range(1..=2)),
            1 => config.with_l2_port_bug(d),
            2 => config.with_default_reject(d),
            3 => config.with_max_ecmp(d, rng.gen_range(1..=2)),
            _ => {
                let other = topology.device(DeviceId(rng.gen_range(0..n))).asn;
                config.with_asn_override(d, other)
            }
        };
    }
    (topology, config)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn simulator_matches_reference_on_faulted_fabrics(
        params in arb_params(),
        fault_seed in any::<u64>(),
    ) {
        // The optimized fixed point, serial and parallel, and the
        // restart baseline's healthy tables all equal the frozen
        // reference simulator bit for bit, interned pools included.
        let (topology, config) = faulted(&params, fault_seed);
        let reference = bgpsim::sim_reference::simulate(&topology, &config);
        let (serial, serial_stats) = simulate_with(&topology, &config, SimOptions { threads: 1 });
        let (parallel, parallel_stats) =
            simulate_with(&topology, &config, SimOptions { threads: 3 });
        prop_assert_eq!(&serial, &reference);
        prop_assert_eq!(&parallel, &reference);
        prop_assert_eq!(serial_stats, parallel_stats);
        let base = Baseline::converge(&topology, &config);
        prop_assert_eq!(base.healthy_fibs(), &serial[..]);
    }

    #[test]
    fn healthy_fibs_have_full_tables_and_valid_next_hops(params in arb_params()) {
        let topology = build_clos(&params);
        let meta = MetadataService::from_topology(&topology);
        let fibs = simulate(&topology, &SimConfig::healthy());
        let total_prefixes = (params.clusters * params.tors_per_cluster) as usize;
        for d in topology.devices() {
            let fib = &fibs[d.id.0 as usize];
            // Every device sees every hosted prefix plus the default.
            prop_assert_eq!(fib.len(), total_prefixes + 1, "{}", d.name);
            for e in fib.entries() {
                // Every next hop resolves to a *session neighbor*.
                for h in fib.next_hops(e) {
                    let owner = meta.owner_of(*h);
                    prop_assert!(owner.is_some(), "unknown next-hop address");
                    let owner = owner.unwrap();
                    prop_assert!(
                        topology.live_neighbors(d.id).any(|(_, n)| n == owner),
                        "next hop not a live neighbor"
                    );
                }
                // Local entries have no next hops and vice versa.
                prop_assert_eq!(e.local, fib.next_hops(e).is_empty());
            }
        }
    }

    #[test]
    fn fault_injection_never_creates_bogus_routes(
        params in arb_params(),
        fault_seed in any::<u64>(),
    ) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut topology = build_clos(&params);
        let mut rng = StdRng::seed_from_u64(fault_seed);
        let n_links = topology.links().len() as u32;
        for _ in 0..rng.gen_range(0..=4) {
            let l = LinkId(rng.gen_range(0..n_links));
            topology.set_link_state(
                l,
                if rng.gen_bool(0.5) {
                    LinkState::OperDown
                } else {
                    LinkState::AdminShut
                },
            );
        }
        let fibs = simulate(&topology, &SimConfig::healthy());
        let meta = MetadataService::from_topology(&topology);
        for d in topology.devices() {
            let fib = &fibs[d.id.0 as usize];
            for e in fib.entries() {
                for h in fib.next_hops(e) {
                    let owner = meta.owner_of(*h).expect("hop resolves");
                    // Routes never point over dead links.
                    let link = topology.link_between(d.id, owner).unwrap();
                    prop_assert!(link.state.session_up());
                }
            }
        }
    }

    #[test]
    fn ecmp_sets_are_monotone_under_link_failure(params in arb_params()) {
        // Failing one ToR uplink can only shrink (or preserve) every
        // ECMP set on that ToR, never grow it.
        let mut topology = build_clos(&params);
        let tor = topology.devices_with_role(Role::Tor).next().unwrap().id;
        let before = simulate(&topology, &SimConfig::healthy());
        let link = topology.links_of(tor).next().unwrap().id;
        topology.set_link_state(link, LinkState::OperDown);
        let after = simulate(&topology, &SimConfig::healthy());
        let (fb, fa) = (&before[tor.0 as usize], &after[tor.0 as usize]);
        for ea in fa.entries() {
            if let Some(eb) = fb.entry_for(ea.prefix) {
                prop_assert!(fa.next_hops(ea).len() <= fb.next_hops(eb).len());
            }
        }
    }

    #[test]
    fn simulation_is_deterministic(params in arb_params()) {
        let topology = build_clos(&params);
        let a = simulate(&topology, &SimConfig::healthy());
        let b = simulate(&topology, &SimConfig::healthy());
        prop_assert_eq!(a, b);
    }
}
