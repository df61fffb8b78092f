//! Property-based tests for the BGP simulator: structural invariants
//! that must hold for every generated topology and fault set.

use bgpsim::{
    simulate, simulate_with, Baseline, FaultSpec, Fib, FibBuilder, FibEntry, SimConfig, SimOptions,
};
use dctopo::{
    build_clos, ClosParams, DeviceId, LinkId, LinkState, MetadataService, Role, Topology,
};
use netprim::{Ipv4, Prefix};
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

/// Same entries in the same order: prefixes, locality and next-hop
/// sets, whatever the pool ids or prefix tables.
fn same_entries(a: &Fib, b: &Fib) -> bool {
    a.device() == b.device()
        && a.len() == b.len()
        && a.entries().zip(b.entries()).all(|(x, y)| {
            x.prefix == y.prefix && x.local == y.local && a.next_hops(x) == b.next_hops(y)
        })
}

/// A rewrite of one entry and its next hops.
type Edit = dyn Fn(&mut FibEntry, &mut Vec<Ipv4>);

/// `fib`'s entries pushed into a builder in the given order, with one
/// entry (by position) rewritten by `edit`.
fn rebuilt(fib: &Fib, order: &[usize], edit: Option<(usize, &Edit)>) -> Fib {
    let entries: Vec<FibEntry> = fib.entries().collect();
    let mut b = FibBuilder::new(fib.device());
    for &i in order {
        let mut e = entries[i];
        let mut hops = fib.next_hops(e).to_vec();
        if let Some((at, f)) = edit {
            if at == i {
                f(&mut e, &mut hops);
            }
        }
        b.push(e.prefix, hops, e.local);
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_build_route_gives_the_simulated_table(
        params in arb_params(),
        fault_seed in any::<u64>(),
    ) {
        // Simulation stores runs over one shared prefix table; wire
        // decode, delta application and builder pushes store entries
        // over private tables; restart splices runs. All of them must
        // agree on the entries and on the content hash — and the
        // routes that keep first-use pool order must agree exactly.
        use rand::rngs::StdRng;
        use rand::seq::SliceRandom;
        use rand::{Rng, SeedableRng};
        let (topology, config) = faulted(&params, fault_seed);
        let fibs = simulate(&topology, &config);
        let clean = build_clos(&params);
        let healthy = simulate(&clean, &config);
        let base = Baseline::converge(&clean, &config);
        let downed = topology.links().iter().filter(|l| !l.state.session_up()).map(|l| l.id);
        let spliced = base.resimulate(&FaultSpec::links(downed)).splice(base.healthy_fibs());
        prop_assert_eq!(&spliced, &fibs);
        let mut rng = StdRng::seed_from_u64(fault_seed);
        for (fib, old) in fibs.iter().zip(&healthy) {
            let hash = fib.content_hash();
            let wired = Fib::from_wire(&fib.to_wire()).unwrap();
            prop_assert_eq!(&wired, fib);
            prop_assert_eq!(wired.content_hash(), hash);
            let applied = old.apply_delta(&Fib::delta(old, fib)).unwrap();
            prop_assert!(same_entries(&applied, fib));
            prop_assert_eq!(applied.content_hash(), hash);
            let mut order: Vec<usize> = (0..fib.len()).collect();
            order.shuffle(&mut rng);
            let shuffled = rebuilt(fib, &order, None);
            prop_assert!(same_entries(&shuffled, fib));
            prop_assert_eq!(shuffled.content_hash(), hash);
            if fib.is_empty() {
                continue;
            }
            // One entry's locality, one of its next-hop addresses, or
            // its prefix changed: the hash must see it.
            let at = rng.gen_range(0..fib.len());
            let flip_local = |e: &mut FibEntry, _: &mut Vec<Ipv4>| e.local = !e.local;
            let swap_hop = |_: &mut FibEntry, hops: &mut Vec<Ipv4>| match hops.first_mut() {
                Some(h) => h.0 ^= 1,
                None => hops.push(Ipv4(1)),
            };
            let host = |e: &mut FibEntry, _: &mut Vec<Ipv4>| {
                e.prefix = Prefix::containing(e.prefix.addr(), 32).unwrap();
            };
            let sorted: Vec<usize> = (0..fib.len()).collect();
            for edit in [&flip_local as &Edit, &swap_hop, &host] {
                let changed = rebuilt(fib, &sorted, Some((at, edit)));
                prop_assert!(!same_entries(&changed, fib));
                prop_assert_ne!(changed.content_hash(), hash);
            }
        }
    }

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
