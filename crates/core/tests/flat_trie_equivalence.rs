//! Equivalence suite for the trie engine's merge walk: random
//! workloads judged by [`TrieEngine`], the frozen pointer-trie
//! [`ReferenceTrieEngine`], and the [`SmtEngine`].
//!
//! The two tries share every convention (violation order, strictness,
//! the cross-contract `MissingRoute` dedup), so they are compared on
//! *full report identity* — rule for rule, in order. The SMT engine is
//! compared on violated-contract keys, the cross-encoding agreement
//! convention the differential fuzzer uses. The single-device
//! generator deliberately produces the shapes the walk has to get
//! right: overlapping rules under one subtree, a default route
//! shadowing longer prefixes across contract groups, duplicate
//! same-prefix contracts, and non-canonical expectation vectors (which
//! must bypass the bitset codex). The fabric property runs generated
//! contracts over simulated Clos tables, where stretches are long and
//! their breaks come from real faults.

use bgpsim::{simulate, Fib, FibBuilder, SimConfig};
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use proptest::collection::vec;
use proptest::prelude::*;
use rcdc::contracts::{Contract, ContractKind, DeviceContracts, Expectation};
use rcdc::{
    generate_contracts, Engine, ReferenceTrieEngine, SmtEngine, TrieEngine, ValidationReport,
};

/// Address universe base (`10.0.0.0/24`) — tiny on purpose: collisions
/// (shadowing, partial coverage, shared subtrees) are where engines
/// can disagree.
const BASE: u32 = 0x0a00_0000;

fn prefix(offset: u32, len: u8) -> Prefix {
    Prefix::containing(Ipv4(BASE + offset), len).expect("len <= 32")
}

/// A FIB rule: offset into the universe, length, hop subset, locality.
/// Length 0 is the default route.
fn rule_strategy() -> impl Strategy<Value = (u32, u8, Vec<Ipv4>, bool)> {
    (
        0u32..256,
        // Length 0 (the default route) with weight 1/4.
        prop_oneof![24u8..=32, 24u8..=32, 24u8..=32, Just(0u8)],
        hops_strategy(),
        (0u32..100).prop_map(|x| x < 12),
    )
}

/// Sorted, deduplicated, nonempty hops from a six-address pool.
fn hops_strategy() -> impl Strategy<Value = Vec<Ipv4>> {
    vec(1u32..=6, 1..=3).prop_map(|raw| {
        let mut hops: Vec<Ipv4> = raw.into_iter().map(|i| Ipv4(0x1e00_0000 + i)).collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    })
}

fn build_fib(rules: &[(u32, u8, Vec<Ipv4>, bool)]) -> Fib {
    let mut b = FibBuilder::new(DeviceId(0));
    let mut seen = std::collections::HashSet::new();
    for (offset, len, hops, local) in rules {
        let p = if *len == 0 {
            Prefix::DEFAULT
        } else {
            prefix(*offset, *len)
        };
        if !seen.insert(p) {
            continue;
        }
        let hops = if *local { Vec::new() } else { hops.clone() };
        b.push(p, hops, *local);
    }
    b.finish()
}

/// Contracts: mostly specific (duplicates allowed — they exercise the
/// cross-contract `MissingRoute` dedup), sometimes a default contract.
fn contracts_strategy() -> impl Strategy<Value = Vec<(u32, u8, Vec<Ipv4>, bool)>> {
    vec(
        (
            0u32..256,
            // Length 0 (a root-anchored contract) with weight 1/6.
            prop_oneof![
                24u8..=32,
                24u8..=32,
                24u8..=32,
                24u8..=32,
                24u8..=32,
                Just(0u8)
            ],
            hops_strategy(),
            // is_default_kind: only meaningful with len 0.
            any::<bool>(),
        ),
        1..8,
    )
}

fn build_contracts(specs: &[(u32, u8, Vec<Ipv4>, bool)]) -> DeviceContracts {
    DeviceContracts::from_contracts(
        specs
            .iter()
            .map(|(offset, len, hops, default_kind)| {
                let (p, kind) = if *len == 0 {
                    (
                        Prefix::DEFAULT,
                        if *default_kind {
                            ContractKind::Default
                        } else {
                            ContractKind::Specific
                        },
                    )
                } else {
                    (prefix(*offset, *len), ContractKind::Specific)
                };
                Contract {
                    device: DeviceId(0),
                    prefix: p,
                    kind,
                    expectation: Expectation::NextHops(hops.clone().into()),
                }
            })
            .collect(),
    )
}

fn violated_keys(r: &ValidationReport) -> Vec<(Prefix, ContractKind)> {
    let mut keys: Vec<_> = r.violations.iter().map(|v| (v.prefix, v.kind)).collect();
    keys.sort();
    keys.dedup();
    keys
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Trie engine == reference trie (full report), and both agree with
    /// the SMT engine on violated keys, in strict and semantic modes.
    #[test]
    fn three_engines_agree(
        rules in vec(rule_strategy(), 0..14),
        specs in contracts_strategy(),
    ) {
        let fib = build_fib(&rules);
        let dc = build_contracts(&specs);
        for strict in [true, false] {
            let (flat, reference): (TrieEngine, ReferenceTrieEngine) = if strict {
                (TrieEngine::new(), ReferenceTrieEngine::new())
            } else {
                (TrieEngine::semantic(), ReferenceTrieEngine::semantic())
            };
            let rf = flat.validate_device(&fib, &dc);
            let rr = reference.validate_device(&fib, &dc);
            prop_assert_eq!(&rf, &rr, "strict={} flat vs reference", strict);

            let smt = if strict { SmtEngine::new() } else { SmtEngine::semantic() };
            let rs = smt.validate_device(&fib, &dc);
            prop_assert_eq!(
                violated_keys(&rf),
                violated_keys(&rs),
                "strict={} trie vs smt keys",
                strict
            );
        }
    }

    /// Incremental revalidation through a random delta reproduces the
    /// full report exactly, and matches the reference engine's delta
    /// path — both directions of the transition.
    #[test]
    fn incremental_matches_full_and_reference(
        old_rules in vec(rule_strategy(), 0..14),
        new_rules in vec(rule_strategy(), 0..14),
        specs in contracts_strategy(),
    ) {
        let old = build_fib(&old_rules);
        let new = build_fib(&new_rules);
        let dc = build_contracts(&specs);
        let delta = Fib::delta(&old, &new);
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            let prior = flat.validate_device(&old, &dc);
            let inc = flat.validate_delta(&new, &dc, &delta, &prior);
            prop_assert_eq!(&inc, &flat.validate_device(&new, &dc));
            prop_assert_eq!(&inc, &reference.validate_delta(&new, &dc, &delta, &prior));
        }
    }

    /// Non-canonical expectation vectors (unsorted or duplicated) must
    /// bypass the bitset codex and fall back to the exact vector
    /// compare: flat and reference verdicts stay identical.
    #[test]
    fn non_canonical_expectations_fall_back(
        rules in vec(rule_strategy(), 0..14),
        raw_expect in vec(1u32..=6, 1..=4),
        offset in 0u32..256,
        len in 24u8..=32,
    ) {
        let fib = build_fib(&rules);
        let hops: Vec<Ipv4> = raw_expect.into_iter().map(|i| Ipv4(0x1e00_0000 + i)).collect();
        let dc = DeviceContracts::from_contracts(vec![Contract {
            device: DeviceId(0),
            prefix: prefix(offset, len),
            kind: ContractKind::Specific,
            // As-generated: possibly unsorted, possibly duplicated.
            expectation: Expectation::NextHops(hops.into()),
        }]);
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            prop_assert_eq!(
                flat.validate_device(&fib, &dc),
                reference.validate_device(&fib, &dc)
            );
        }
    }
}

/// A next-hop universe wider than `HopSet::CAPACITY` (512 bits)
/// disables the bitset codex mid-device; verdicts must be unaffected.
#[test]
fn hop_universe_overflow_falls_back_to_vector_compare() {
    let wide: Vec<Ipv4> = (0..600u32).map(|i| Ipv4(0x1e00_0000 + i)).collect();
    let good = vec![Ipv4(0x2000_0001)];
    let mut b = FibBuilder::new(DeviceId(0));
    b.push(prefix(0, 24), wide.clone(), false);
    b.push(prefix(256, 24), good.clone(), false);
    let fib = b.finish();
    let spec = |off: u32, hops: &[Ipv4]| Contract {
        device: DeviceId(0),
        prefix: prefix(off, 24),
        kind: ContractKind::Specific,
        expectation: Expectation::NextHops(hops.to_vec().into()),
    };
    // The wide set first (overflows the codex), then contracts that
    // must still be judged correctly by the fallback.
    let dc = DeviceContracts::from_contracts(vec![
        spec(0, &wide),
        spec(256, &good),
        spec(256, &wide), // mismatch
    ]);
    for (flat, reference) in [
        (TrieEngine::new(), ReferenceTrieEngine::new()),
        (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
    ] {
        let rf = flat.validate_device(&fib, &dc);
        assert_eq!(rf, reference.validate_device(&fib, &dc));
        assert!(rf
            .violations
            .iter()
            .any(|v| v.prefix == prefix(256, 24)));
    }
}

/// A small Clos; `prefixes_per_tor` above one puts several hosted
/// prefixes (and so several excluded slots) on each ToR.
fn clos_strategy() -> impl Strategy<Value = ClosParams> {
    (1u32..=3, 1u32..=4, 1u32..=3, 1u32..=2, 1u32..=3).prop_map(
        |(clusters, tors, leaves, spines_per_plane, prefixes)| ClosParams {
            clusters,
            tors_per_cluster: tors,
            leaves_per_cluster: leaves,
            spines: leaves * spines_per_plane,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: prefixes,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated contracts over simulated fabric tables with random
    /// downed links and one device per §2.6.2 bug class: every
    /// device's report equals the reference engine's, strict and
    /// semantic, and revalidating the healthy→faulted (and back) delta
    /// equals the full pass.
    #[test]
    fn fabric_reports_match_reference(
        params in clos_strategy(),
        downed in vec(any::<u32>(), 0..4),
        bugged in vec(any::<u32>(), 4..5),
    ) {
        let mut topology = build_clos(&params);
        let meta = MetadataService::from_topology(&topology);
        let contracts = generate_contracts(&meta);
        let healthy = simulate(&topology, &SimConfig::healthy());
        let n_links = topology.links().len();
        for ix in &downed {
            let id = topology.links()[*ix as usize % n_links].id;
            topology.set_link_state(id, LinkState::OperDown);
        }
        // Bugs land on any device that receives contracts.
        let targets: Vec<DeviceId> = topology
            .devices()
            .iter()
            .filter(|d| d.role != Role::RegionalSpine)
            .map(|d| d.id)
            .collect();
        let at = |i: usize| targets[bugged[i] as usize % targets.len()];
        let config = SimConfig::healthy()
            .with_rib_fib_bug(at(0), 1)
            .with_l2_port_bug(at(1))
            .with_default_reject(at(2))
            .with_max_ecmp(at(3), 1);
        let faulted = simulate(&topology, &config);
        let mut dirty = 0;
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            for ((old, new), dc) in healthy.iter().zip(&faulted).zip(&contracts) {
                let full = flat.validate_device(new, dc);
                prop_assert_eq!(
                    &full,
                    &reference.validate_device(new, dc),
                    "device {:?}",
                    new.device()
                );
                dirty += usize::from(!full.is_clean());
                for (from, to, want) in [(old, new, &full), (new, old, &flat.validate_device(old, dc))] {
                    let prior = flat.validate_device(from, dc);
                    let delta = Fib::delta(from, to);
                    prop_assert_eq!(
                        &flat.validate_delta(to, dc, &delta, &prior),
                        want,
                        "delta, device {:?}",
                        to.device()
                    );
                }
            }
        }
        // The layer-2 port bug empties a table: something is dirty.
        prop_assert!(dirty > 0);
    }
}
