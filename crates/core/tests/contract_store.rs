//! The contract store against the list it replaces.
//!
//! `generate_contracts` stores each device's contracts as a view over
//! one shared prefix table, an exclusion list and a run-length
//! expectation column. This suite pins it to the list-building
//! generator that preceded it — kept here, frozen, as the oracle:
//! every device must iterate the same `(device, prefix, kind,
//! expectation)` sequence, in the same order. A second property checks
//! that `DeviceContracts::from_contracts` iterates back exactly the
//! list it was given, whatever that list holds.

use bgpsim::{simulate, Fib, SimConfig};
use dctopo::generator::figure3;
use dctopo::{build_clos, ClosParams, DeviceId, LinkState, MetadataService};
use netprim::{Ipv4, Prefix};
use proptest::collection::vec;
use proptest::prelude::*;
use rcdc::contracts::{Contract, ContractKind, DeviceContracts, Expectation};
use rcdc::{generate_contracts, Engine, ReferenceTrieEngine, TrieEngine};

/// The list-building contract generator, frozen as an oracle.
mod oracle {
    use dctopo::{ClusterId, DeviceId, MetadataService, Role};
    use netprim::{Ipv4, Prefix};
    use rcdc::contracts::{Contract, ContractKind, Expectation};
    use std::collections::{HashMap, HashSet};
    use std::sync::Arc;

    /// Sorted, shared next-hop address list for a set of neighbor facts.
    fn hops(facts: impl IntoIterator<Item = Ipv4>) -> Arc<[Ipv4]> {
        let mut v: Vec<Ipv4> = facts.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        v.into()
    }

    /// Streaming contract generator: precomputes the cluster indices once,
    /// then yields one device's contract set at a time — the shape of the
    /// real contract-generator microservice, and what lets a 10⁴-router
    /// validation run without materializing ~10⁸ contracts at once.
    pub(super) struct ContractGenerator<'a> {
        meta: &'a MetadataService,
        cluster_leaf_set: HashMap<ClusterId, HashSet<DeviceId>>,
        /// Clusters each spine is wired into (through its leaf neighbors);
        /// precomputed so per-prefix contract emission is O(neighbors), not
        /// O(neighbors × their neighbors).
        spine_clusters: HashMap<DeviceId, HashSet<ClusterId>>,
    }

    impl<'a> ContractGenerator<'a> {
        /// Build the generator over a metadata snapshot.
        pub(super) fn new(meta: &'a MetadataService) -> Self {
            let mut cluster_leaf_set: HashMap<ClusterId, HashSet<DeviceId>> = HashMap::new();
            for c in meta.clusters() {
                cluster_leaf_set.insert(c, meta.leaves_of(c).iter().copied().collect());
            }
            let mut spine_clusters: HashMap<DeviceId, HashSet<ClusterId>> = HashMap::new();
            for dev in meta.devices() {
                if dev.role == Role::Spine {
                    spine_clusters.insert(
                        dev.id,
                        meta.neighbors_with_role(dev.id, Role::Leaf)
                            .filter_map(|nf| meta.device(nf.device).cluster)
                            .collect(),
                    );
                }
            }
            ContractGenerator {
                meta,
                cluster_leaf_set,
                spine_clusters,
            }
        }

        /// Generate the contract list for one device.
        pub(super) fn device(&self, id: DeviceId) -> Vec<Contract> {
            let meta = self.meta;
            let cluster_leaf_set = &self.cluster_leaf_set;
            let dev = meta.device(id);
            let mut contracts = Vec::new();
            match dev.role {
                Role::Tor => {
                    let leaf_hops = hops(
                        meta.neighbors_with_role(dev.id, Role::Leaf)
                            .map(|nf| nf.next_hop_addr),
                    );
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: Prefix::DEFAULT,
                        kind: ContractKind::Default,
                        expectation: Expectation::NextHops(leaf_hops.clone()),
                    });
                    let own: HashSet<Prefix> = meta.hosted_by(dev.id).iter().copied().collect();
                    for fact in meta.prefix_facts() {
                        if own.contains(&fact.prefix) {
                            continue; // §2.4.1: "besides the prefix it announces"
                        }
                        contracts.push(Contract {
                            device: dev.id,
                            prefix: fact.prefix,
                            kind: ContractKind::Specific,
                            expectation: Expectation::NextHops(leaf_hops.clone()),
                        });
                    }
                }
                Role::Leaf => {
                    let spine_hops = hops(
                        meta.neighbors_with_role(dev.id, Role::Spine)
                            .map(|nf| nf.next_hop_addr),
                    );
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: Prefix::DEFAULT,
                        kind: ContractKind::Default,
                        expectation: Expectation::NextHops(spine_hops.clone()),
                    });
                    let own_cluster = dev.cluster.expect("leaves belong to clusters");
                    // Hop sets repeat per (hosting ToR) and per (hosting
                    // cluster); memoize both so emission is linear in the
                    // number of prefixes.
                    let mut tor_hops: HashMap<DeviceId, Arc<[Ipv4]>> = HashMap::new();
                    let mut cluster_hops: HashMap<ClusterId, Arc<[Ipv4]>> = HashMap::new();
                    for fact in meta.prefix_facts() {
                        let expectation = if fact.cluster == own_cluster {
                            // Directly to the hosting ToR (§2.4.2).
                            let set = tor_hops.entry(fact.tor).or_insert_with(|| {
                                hops(
                                    meta.neighbors_with_role(dev.id, Role::Tor)
                                        .filter(|nf| nf.device == fact.tor)
                                        .map(|nf| nf.next_hop_addr),
                                )
                            });
                            Expectation::NextHops(set.clone())
                        } else {
                            // "Spine devices that connect to the leaf devices
                            // that connect directly to the prefix" (§2.4.2).
                            let set = cluster_hops.entry(fact.cluster).or_insert_with(|| {
                                hops(
                                    meta.neighbors_with_role(dev.id, Role::Spine)
                                        .filter(|nf| {
                                            self.spine_clusters[&nf.device].contains(&fact.cluster)
                                        })
                                        .map(|nf| nf.next_hop_addr),
                                )
                            });
                            Expectation::NextHops(set.clone())
                        };
                        contracts.push(Contract {
                            device: dev.id,
                            prefix: fact.prefix,
                            kind: ContractKind::Specific,
                            expectation,
                        });
                    }
                }
                Role::Spine => {
                    contracts.push(Contract {
                        device: dev.id,
                        prefix: Prefix::DEFAULT,
                        kind: ContractKind::Default,
                        expectation: Expectation::NextHops(hops(
                            meta.neighbors_with_role(dev.id, Role::RegionalSpine)
                                .map(|nf| nf.next_hop_addr),
                        )),
                    });
                    let mut cluster_hops: HashMap<ClusterId, Arc<[Ipv4]>> = HashMap::new();
                    for fact in meta.prefix_facts() {
                        // Neighbor leaves from the cluster hosting the
                        // prefix (§2.4.3); one distinct set per cluster.
                        let set = cluster_hops.entry(fact.cluster).or_insert_with(|| {
                            let hosting_leaves = &cluster_leaf_set[&fact.cluster];
                            hops(
                                meta.neighbors_with_role(dev.id, Role::Leaf)
                                    .filter(|nf| hosting_leaves.contains(&nf.device))
                                    .map(|nf| nf.next_hop_addr),
                            )
                        });
                        contracts.push(Contract {
                            device: dev.id,
                            prefix: fact.prefix,
                            kind: ContractKind::Specific,
                            expectation: Expectation::NextHops(set.clone()),
                        });
                    }
                }
                Role::RegionalSpine => {
                    // Regional spines sit outside the datacenter boundary
                    // RCDC validates: §2.4.1–§2.4.3 define contracts for
                    // ToR, leaf, and spine devices only, and Claim 1 is
                    // stated over those three tiers. This is also what
                    // makes the §2.4.4 example exact: "R1 and R2 have no
                    // contract failures" even while their spine-learned
                    // ECMP sets fluctuate with faults below them.
                }
            }
            // ToRs additionally deliver their own prefixes locally; the
            // engines treat a hosted prefix as implicitly satisfied, so no
            // contract is emitted (matching §2.4.1).
            contracts
        }
    }

    /// Every device's contract list, indexed by device id.
    pub(super) fn generate(meta: &MetadataService) -> Vec<Vec<Contract>> {
        let generator = ContractGenerator::new(meta);
        meta.devices()
            .iter()
            .map(|d| generator.device(d.id))
            .collect()
    }
}

/// `(device, prefix, kind, expectation)` of every contract the store
/// iterates, next to the oracle's list, device by device.
fn assert_matches_oracle(meta: &MetadataService) {
    let store = generate_contracts(meta);
    let lists = oracle::generate(meta);
    assert_eq!(store.len(), lists.len());
    for (dc, list) in store.iter().zip(&lists) {
        assert_eq!(dc.len(), list.len());
        let got: Vec<Contract> = dc.iter().map(|c| c.to_contract()).collect();
        assert_eq!(&got, list);
    }
}

/// The largest shape of the E2 scale experiment (`1096-devices`).
fn e2_1096() -> ClosParams {
    ClosParams {
        clusters: 24,
        tors_per_cluster: 40,
        leaves_per_cluster: 4,
        spines: 24,
        regional_spines: 4,
        regional_groups: 2,
        prefixes_per_tor: 1,
    }
}

#[test]
fn figure3_matches_oracle() {
    let f = figure3();
    assert_matches_oracle(&MetadataService::from_topology(&f.topology));
}

#[test]
fn default_clos_matches_oracle() {
    let t = build_clos(&ClosParams::default());
    assert_matches_oracle(&MetadataService::from_topology(&t));
}

#[test]
fn e2_shape_matches_oracle() {
    let t = build_clos(&e2_1096());
    assert_matches_oracle(&MetadataService::from_topology(&t));
}

/// The engines judge the store exactly as they judge the same contracts
/// handed over as a list: full reports on a faulted fabric and delta
/// reports across the fault transition are identical, violation for
/// violation. ToRs host three prefixes each, so every ToR walks past
/// several excluded slots.
#[test]
fn reports_match_list_form_across_faults() {
    let params = ClosParams {
        prefixes_per_tor: 3,
        ..ClosParams::default()
    };
    let mut topology = build_clos(&params);
    let meta = MetadataService::from_topology(&topology);
    let healthy = simulate(&topology, &SimConfig::healthy());
    let step = topology.links().len() / 5;
    for i in 0..5 {
        let link = topology.links()[i * step].id;
        topology.set_link_state(link, LinkState::OperDown);
    }
    let faulted = simulate(&topology, &SimConfig::healthy());
    let store = generate_contracts(&meta);
    let lists: Vec<DeviceContracts> = oracle::generate(&meta)
        .into_iter()
        .map(DeviceContracts::from_contracts)
        .collect();
    let engines: [&dyn Engine; 3] = [
        &TrieEngine::new(),
        &TrieEngine::semantic(),
        &ReferenceTrieEngine::new(),
    ];
    let mut violations = 0;
    for engine in engines {
        for (i, (dc, list)) in store.iter().zip(&lists).enumerate() {
            let full = engine.validate_device(&faulted[i], dc);
            assert_eq!(
                full,
                engine.validate_device(&faulted[i], list),
                "device {i}"
            );
            violations += full.violations.len();
            let delta = Fib::delta(&healthy[i], &faulted[i]);
            let prior = engine.validate_device(&healthy[i], dc);
            assert_eq!(
                engine.validate_delta(&faulted[i], dc, &delta, &prior),
                engine.validate_delta(&faulted[i], list, &delta, &prior),
                "device {i}"
            );
        }
    }
    assert!(violations > 0, "the failures must violate contracts");
}

fn arb_params() -> impl Strategy<Value = ClosParams> {
    (1u32..=5, 1u32..=6, 1u32..=4, 1u32..=3, 1u32..=2, 1u32..=4).prop_map(
        |(clusters, tors, leaves, spine_mult, groups, prefixes)| ClosParams {
            clusters,
            tors_per_cluster: tors,
            leaves_per_cluster: leaves,
            spines: leaves * spine_mult,
            regional_spines: groups * 2,
            regional_groups: groups,
            prefixes_per_tor: prefixes,
        },
    )
}

/// A contract over a tiny prefix universe (so duplicates and nesting
/// are common), with a default, `Local` or one of a few hop sets.
fn arb_contract() -> impl Strategy<Value = (u32, u8, u8, bool)> {
    (0u32..16, 0u8..=4, 0u8..5, (0u32..8).prop_map(|x| x == 0))
}

fn build(device: u32, raw: &[(u32, u8, u8, bool)]) -> Vec<Contract> {
    let sets: Vec<Expectation> = (1..=3u32)
        .map(|n| Expectation::NextHops((1..=n).map(|i| Ipv4(0x1e00_0000 + i)).collect()))
        .collect();
    raw.iter()
        .map(|&(offset, len, expect, default_kind)| {
            let len = 28 + len;
            let prefix =
                Prefix::containing(Ipv4(0x0a00_0000 + offset * 4), len).expect("len <= 32");
            let (prefix, kind) = if default_kind {
                (Prefix::DEFAULT, ContractKind::Default)
            } else {
                (prefix, ContractKind::Specific)
            };
            let expectation = match expect {
                0 => Expectation::Local,
                // Equal content behind a fresh allocation.
                4 => Expectation::NextHops(vec![Ipv4(0x1e00_0001)].into()),
                n => sets[n as usize - 1].clone(),
            };
            Contract {
                device: DeviceId(device),
                prefix,
                kind,
                expectation,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random fabrics, several prefixes per ToR (so a ToR excludes
    /// several slots of the shared table).
    #[test]
    fn random_clos_matches_oracle(p in arb_params()) {
        let t = build_clos(&p);
        assert_matches_oracle(&MetadataService::from_topology(&t));
    }

    /// `from_contracts` iterates back exactly its input: duplicates,
    /// non-DFS order, defaults anywhere, mixed expectations.
    #[test]
    fn from_contracts_round_trips(device in 0u32..4, raw in vec(arb_contract(), 0..24)) {
        let list = build(device, &raw);
        let dc = DeviceContracts::from_contracts(list.clone());
        prop_assert_eq!(dc.len(), list.len());
        prop_assert_eq!(dc.is_empty(), list.is_empty());
        let got: Vec<Contract> = dc.iter().map(|c| c.to_contract()).collect();
        prop_assert_eq!(&got, &list);
        let specifics: Vec<Contract> = dc.specifics().map(|c| c.to_contract()).collect();
        let want: Vec<Contract> =
            list.iter().filter(|c| c.kind == ContractKind::Specific).cloned().collect();
        prop_assert_eq!(specifics, want);
        prop_assert_eq!(
            dc.default_contract().map(|c| c.to_contract()),
            list.iter().find(|c| c.kind == ContractKind::Default).cloned()
        );
    }
}
