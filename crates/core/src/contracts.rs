//! Automatic intent extraction: local forwarding contracts.
//!
//! "A local forwarding contract for a device consists of a prefix and a
//! set of next hops, and states the expectation that all packets whose
//! destination address matches the given prefix must be forwarded to
//! the specified next hops" (§2.4). This module derives the complete
//! contract set for every device from metadata alone (§2.4.1–§2.4.3):
//!
//! | role          | default contract        | specific contract for prefix *p*                                   |
//! |---------------|-------------------------|--------------------------------------------------------------------|
//! | ToR           | all neighbor leaves     | all neighbor leaves (except *p* hosted here: none — local delivery) |
//! | Leaf          | all neighbor spines     | hosting ToR if *p* in own cluster, else neighbor spines wired to the hosting cluster |
//! | Spine         | all neighbor regionals  | neighbor leaves belonging to the cluster hosting *p*                |
//!
//! Regional spines receive no contracts: they sit outside the
//! datacenter boundary that RCDC validates (Claim 1 is stated over ToR,
//! leaf, and spine devices), which is what makes §2.4.4's "R1 and R2
//! have no contract failures" exact.
//!
//! Contracts use the *expected* topology: "we create contracts based on
//! expected topology, and therefore will ignore current state of the
//! links when generating contracts" (§2.4).
//!
//! **Storage.** Every device of a fabric has a specific contract for
//! (nearly) every hosted prefix, so a [`DeviceContracts`] is not a
//! list but a view over three parts: one [`Arc`]-shared prefix table
//! per fabric (prefixes in fact order, plus their DFS-preorder
//! permutation, computed once), a sorted per-device exclusion list (a
//! ToR's own prefixes), and a run-length expectation column over table
//! slots. A 10⁴-router fabric's ~10⁸ contracts fit in a few MB, and
//! [`iter`](DeviceContracts::iter) still yields them in list order:
//! default first, then specifics in fact order.

use dctopo::metadata::PrefixFact;
use dctopo::{ClusterId, DeviceId, MetadataService, Role};
use netprim::{Ipv4, Prefix};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Whether a contract covers a concrete prefix or the default route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ContractKind {
    /// The `0.0.0.0/0` contract: expectation for packets matching no
    /// specific rule (§2.4, validated as a special case per §2.5.1).
    Default,
    /// A contract for one concrete hosted prefix.
    Specific,
}

/// What the device is expected to do with matching packets.
///
/// Next-hop sets are `Arc`-shared: a run of contracts with one
/// expectation references one set (the same interning trick
/// [`bgpsim::Fib`] uses for routes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expectation {
    /// Forward to exactly this set of next-hop interface addresses.
    NextHops(Arc<[Ipv4]>),
    /// Deliver locally (the ToR hosting the prefix; the regional spine
    /// originating the default).
    Local,
}

/// One local forwarding contract, owned: the input form of
/// [`DeviceContracts::from_contracts`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Contract {
    /// The device the contract applies to.
    pub device: DeviceId,
    /// Covered prefix (`0.0.0.0/0` for the default contract).
    pub prefix: Prefix,
    /// Default or specific.
    pub kind: ContractKind,
    /// Expected forwarding behavior.
    pub expectation: Expectation,
}

impl Contract {
    /// Borrow as a [`ContractRef`].
    pub fn view(&self) -> ContractRef<'_> {
        ContractRef {
            device: self.device,
            prefix: self.prefix,
            kind: self.kind,
            expectation: &self.expectation,
        }
    }
}

/// One contract of a [`DeviceContracts`], borrowed from the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContractRef<'a> {
    /// The device the contract applies to.
    pub device: DeviceId,
    /// Covered prefix (`0.0.0.0/0` for the default contract).
    pub prefix: Prefix,
    /// Default or specific.
    pub kind: ContractKind,
    /// Expected forwarding behavior.
    pub expectation: &'a Expectation,
}

impl<'a> ContractRef<'a> {
    /// Expected next hops, or `None` for local delivery.
    pub fn next_hops(&self) -> Option<&'a [Ipv4]> {
        match self.expectation {
            Expectation::NextHops(h) => Some(h),
            Expectation::Local => None,
        }
    }

    /// An owned copy.
    pub fn to_contract(&self) -> Contract {
        Contract {
            device: self.device,
            prefix: self.prefix,
            kind: self.kind,
            expectation: self.expectation.clone(),
        }
    }
}

/// DFS-preorder sort key: `(address, length)` packed into one word.
/// Sorting prefixes by it lists every prefix right before the prefixes
/// it contains — the order the trie engine sweeps in.
#[inline]
pub(crate) fn dfs_key(p: Prefix) -> u64 {
    (u64::from(p.addr().0) << 6) | u64::from(p.len())
}

/// The prefix column shared by the contract sets of one fabric: one
/// `(prefix, kind)` slot per contract position, plus the order and
/// indices the engines walk, computed once.
#[derive(Debug, Default)]
pub(crate) struct PrefixTable {
    /// Slots in list order.
    slots: Vec<(Prefix, ContractKind)>,
    /// Specific slots in DFS preorder as `(dfs_key, slot)`; equal
    /// prefixes stay in slot order.
    dfs: Vec<(u64, u32)>,
    /// `dfs` indices where the slot sequence jumps (`dfs[i].1 !=
    /// dfs[i - 1].1 + 1`), ascending. Between two breaks DFS order is
    /// slot order, so a stretch is cut by slot arithmetic. A fabric
    /// table lists its facts in address order and has none.
    breaks: Vec<u32>,
    /// Default-kind slots, ascending (only hand-built lists have any).
    defaults: Vec<u32>,
    /// Distinct specific prefix lengths, descending.
    lengths: Vec<u8>,
}

impl PrefixTable {
    fn new(slots: Vec<(Prefix, ContractKind)>) -> PrefixTable {
        let mut dfs = Vec::with_capacity(slots.len());
        let mut defaults = Vec::new();
        let mut lengths: Vec<u8> = Vec::new();
        for (s, &(p, kind)) in slots.iter().enumerate() {
            match kind {
                ContractKind::Default => defaults.push(s as u32),
                ContractKind::Specific => {
                    dfs.push((dfs_key(p), s as u32));
                    if !lengths.contains(&p.len()) {
                        lengths.push(p.len());
                    }
                }
            }
        }
        dfs.sort_unstable();
        lengths.sort_unstable_by(|a, b| b.cmp(a));
        let breaks = (1..dfs.len())
            .filter(|&i| dfs[i].1 != dfs[i - 1].1 + 1)
            .map(|i| i as u32)
            .collect();
        PrefixTable {
            slots,
            dfs,
            breaks,
            defaults,
            lengths,
        }
    }

    /// `dfs` indices whose keys fall in `[lo, hi)`.
    fn dfs_range(&self, lo: u64, hi: u64) -> std::ops::Range<usize> {
        let a = self.dfs.partition_point(|&(k, _)| k < lo);
        a..a + self.dfs[a..].partition_point(|&(k, _)| k < hi)
    }

    /// Specific slots holding exactly `p`.
    fn slots_of(&self, p: Prefix) -> impl Iterator<Item = u32> + '_ {
        let k = dfs_key(p);
        self.dfs[self.dfs_range(k, k + 1)].iter().map(|&(_, s)| s)
    }

    /// `dfs` indices of the specific slots whose prefix overlaps a
    /// touched prefix — the only specifics a delta over `touched` can
    /// re-judge, since a contract's candidate rules all overlap it.
    /// Ascending (= DFS order) and deduplicated.
    fn overlapping(&self, touched: &[Prefix]) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::new();
        for &p in touched {
            // Slots whose address lies inside the touched block all
            // overlap it: an aligned block no larger than `p`'s
            // starting inside it is contained, and a larger one can
            // only start at `p`'s own address, where it contains `p`.
            let lo = u64::from(p.addr().0) << 6;
            let hi = (u64::from(p.addr().0) + (1u64 << (32 - p.len()))) << 6;
            out.extend(self.dfs_range(lo, hi).map(|i| i as u32));
            // Strictly shorter containing slots sit at the touched
            // address truncated to each slot length.
            for &l in self.lengths.iter().filter(|&&l| l < p.len()) {
                let mask = if l == 0 { 0 } else { u32::MAX << (32 - l) };
                let k = (u64::from(p.addr().0 & mask) << 6) | u64::from(l);
                out.extend(self.dfs_range(k, k + 1).map(|i| i as u32));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.slots.capacity() * std::mem::size_of::<(Prefix, ContractKind)>()
            + self.dfs.capacity() * std::mem::size_of::<(u64, u32)>()
            + self.breaks.capacity() * 4
            + self.defaults.capacity() * 4
            + self.lengths.capacity()
    }
}

/// Expectation lookup by slot, caching the last run hit: both walk
/// orders visit long stretches of one run.
struct RunCursor<'a> {
    runs: &'a [(u32, Expectation)],
    at: usize,
}

impl<'a> RunCursor<'a> {
    fn new(runs: &'a [(u32, Expectation)]) -> RunCursor<'a> {
        RunCursor { runs, at: 0 }
    }

    fn get(&mut self, slot: u32) -> &'a Expectation {
        let runs = self.runs;
        let inside = runs[self.at].0 <= slot && runs.get(self.at + 1).is_none_or(|n| slot < n.0);
        if !inside {
            self.at = runs.partition_point(|r| r.0 <= slot) - 1;
        }
        &runs[self.at].1
    }
}

/// Append `e` for slots from `at` on, extending the last run when the
/// expectation is unchanged.
fn push_run(runs: &mut Vec<(u32, Expectation)>, at: u32, e: Expectation) {
    if runs.last().is_none_or(|(_, last)| *last != e) {
        runs.push((at, e));
    }
}

/// The full contract set of one device: an optional default contract,
/// then one specific contract per slot of the shared prefix table that
/// is not excluded, each with the expectation of the run covering its
/// slot.
///
/// Contracts are identified by a sort key that orders them as
/// [`iter`](Self::iter) does: `0` for the default field, `slot + 1`
/// for a table slot. Engines judge in whatever order suits them and
/// sort their findings by key, which keeps reports identical to a
/// judge-in-list-order pass.
#[derive(Clone)]
pub struct DeviceContracts {
    device: DeviceId,
    default: Option<Expectation>,
    table: Arc<PrefixTable>,
    /// Table slots this device has no contract for, ascending.
    excluded: Box<[u32]>,
    /// `(first slot, expectation)`, ascending; covers every slot when
    /// the table is non-empty.
    runs: Box<[(u32, Expectation)]>,
}

impl Default for DeviceContracts {
    fn default() -> Self {
        DeviceContracts::from_contracts(Vec::new())
    }
}

impl PartialEq for DeviceContracts {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for DeviceContracts {}

impl std::fmt::Debug for DeviceContracts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl DeviceContracts {
    /// A contract set holding exactly `list`, in its order — duplicates,
    /// any prefix order, default contracts anywhere, `Local`
    /// expectations — over a private prefix table.
    ///
    /// # Panics
    ///
    /// When the contracts name more than one device.
    pub fn from_contracts(list: Vec<Contract>) -> DeviceContracts {
        let device = list.first().map_or(DeviceId(0), |c| c.device);
        assert!(
            list.iter().all(|c| c.device == device),
            "a contract set covers one device"
        );
        let mut slots = Vec::with_capacity(list.len());
        let mut runs = Vec::new();
        for (s, c) in list.into_iter().enumerate() {
            slots.push((c.prefix, c.kind));
            push_run(&mut runs, s as u32, c.expectation);
        }
        DeviceContracts {
            device,
            default: None,
            table: Arc::new(PrefixTable::new(slots)),
            excluded: Box::new([]),
            runs: runs.into(),
        }
    }

    /// Contracts in list order: the default first, then specifics in
    /// fact order (for [`from_contracts`](Self::from_contracts), the
    /// input order).
    pub fn iter(&self) -> impl Iterator<Item = ContractRef<'_>> + '_ {
        self.keyed().map(|(_, c)| c)
    }

    /// The default contract, if the device has one.
    pub fn default_contract(&self) -> Option<ContractRef<'_>> {
        self.defaults().next().map(|(_, c)| c)
    }

    /// Specific contracts only, in list order.
    pub fn specifics(&self) -> impl Iterator<Item = ContractRef<'_>> + '_ {
        self.iter().filter(|c| c.kind == ContractKind::Specific)
    }

    /// Number of contracts.
    pub fn len(&self) -> usize {
        usize::from(self.default.is_some()) + self.table.slots.len() - self.excluded.len()
    }

    /// No contracts at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Heap and inline bytes held by a set of contract sets, counting
    /// each shared prefix table and next-hop set once.
    pub fn resident_bytes(set: &[DeviceContracts]) -> usize {
        let mut tables: HashSet<*const PrefixTable> = HashSet::new();
        let mut hop_sets: HashSet<*const Ipv4> = HashSet::new();
        let mut bytes = 0;
        for dc in set {
            bytes += std::mem::size_of::<DeviceContracts>()
                + dc.excluded.len() * 4
                + dc.runs.len() * std::mem::size_of::<(u32, Expectation)>();
            if tables.insert(Arc::as_ptr(&dc.table)) {
                bytes += dc.table.resident_bytes();
            }
            for e in dc.default.iter().chain(dc.runs.iter().map(|(_, e)| e)) {
                if let Expectation::NextHops(h) = e {
                    if hop_sets.insert(h.as_ptr()) {
                        bytes += 2 * std::mem::size_of::<usize>() + std::mem::size_of_val(&h[..]);
                    }
                }
            }
        }
        bytes
    }

    fn is_excluded(&self, slot: u32) -> bool {
        !self.excluded.is_empty() && self.excluded.binary_search(&slot).is_ok()
    }

    fn head(&self) -> Option<(u32, ContractRef<'_>)> {
        self.default.as_ref().map(|e| {
            let c = ContractRef {
                device: self.device,
                prefix: Prefix::DEFAULT,
                kind: ContractKind::Default,
                expectation: e,
            };
            (0, c)
        })
    }

    fn slot<'a>(&'a self, slot: u32, runs: &mut RunCursor<'a>) -> (u32, ContractRef<'a>) {
        let (prefix, kind) = self.table.slots[slot as usize];
        let c = ContractRef {
            device: self.device,
            prefix,
            kind,
            expectation: runs.get(slot),
        };
        (slot + 1, c)
    }

    /// `(sort key, contract)` in list order.
    pub(crate) fn keyed(&self) -> impl Iterator<Item = (u32, ContractRef<'_>)> + '_ {
        let mut runs = RunCursor::new(&self.runs);
        let slots = 0..self.table.slots.len() as u32;
        self.head().into_iter().chain(
            slots
                .filter(|&s| !self.is_excluded(s))
                .map(move |s| self.slot(s, &mut runs)),
        )
    }

    /// Default-kind contracts with their sort keys, in list order.
    pub(crate) fn defaults(&self) -> impl Iterator<Item = (u32, ContractRef<'_>)> + '_ {
        let mut runs = RunCursor::new(&self.runs);
        let slots = self.table.defaults.iter().copied();
        self.head().into_iter().chain(
            slots
                .filter(|&s| !self.is_excluded(s))
                .map(move |s| self.slot(s, &mut runs)),
        )
    }

    /// Specific contracts as maximal [`Stretch`]es, in the table's
    /// precomputed DFS preorder (equal prefixes in list order).
    pub(crate) fn stretches(&self) -> impl Iterator<Item = Stretch<'_>> + '_ {
        self.stretches_in(std::iter::once(0..self.table.dfs.len()))
    }

    /// The contracts a FIB delta over `touched` can change the verdict
    /// of, with their sort keys: the default contracts when the
    /// default route was touched, then the specifics overlapping a
    /// touched prefix, in DFS preorder.
    pub(crate) fn affected<'a>(
        &'a self,
        touched: &[Prefix],
    ) -> impl Iterator<Item = (u32, ContractRef<'a>)> + 'a {
        let defaults = touched.iter().any(|p| p.is_default());
        defaults
            .then(|| self.defaults())
            .into_iter()
            .flatten()
            .chain(
                self.affected_stretches(touched)
                    .flat_map(|st| st.contracts()),
            )
    }

    /// The specifics of [`affected`](Self::affected), as stretches.
    pub(crate) fn affected_stretches<'a>(
        &'a self,
        touched: &[Prefix],
    ) -> impl Iterator<Item = Stretch<'a>> + 'a {
        // Consecutive overlapping indices coalesce into ranges, so a
        // wide touched prefix still yields long stretches.
        let mut ranges: Vec<std::ops::Range<usize>> = Vec::new();
        for i in self.table.overlapping(touched) {
            let i = i as usize;
            match ranges.last_mut() {
                Some(r) if r.end == i => r.end += 1,
                _ => ranges.push(i..i + 1),
            }
        }
        self.stretches_in(ranges)
    }

    /// Cut each range of `dfs` indices into maximal stretches.
    fn stretches_in<'a>(
        &'a self,
        ranges: impl IntoIterator<Item = std::ops::Range<usize>> + 'a,
    ) -> impl Iterator<Item = Stretch<'a>> + 'a {
        ranges.into_iter().flat_map(move |r| {
            let mut at = r.start;
            std::iter::from_fn(move || self.cut(&mut at, r.end))
        })
    }

    /// The maximal stretch starting at the first non-excluded `dfs`
    /// index in `*at..end`; advances `*at` past it.
    fn cut(&self, at: &mut usize, end: usize) -> Option<Stretch<'_>> {
        let t = &*self.table;
        while *at < end {
            let slot = t.dfs[*at].1;
            let x = self.excluded.partition_point(|&e| e < slot);
            if self.excluded.get(x) == Some(&slot) {
                *at += 1;
                continue;
            }
            // Up to the next slot-order break, the next excluded slot
            // and the next expectation run, whichever comes first.
            let b = t.breaks.partition_point(|&b| b as usize <= *at);
            let seg_end = t
                .breaks
                .get(b)
                .map_or(t.dfs.len(), |&b| b as usize)
                .min(end);
            let run = self.runs.partition_point(|r| r.0 <= slot) - 1;
            let next_excluded = self.excluded.get(x).map_or(u32::MAX, |&e| e);
            let next_run = self.runs.get(run + 1).map_or(u32::MAX, |r| r.0);
            let n = (seg_end - *at).min((next_excluded.min(next_run) - slot) as usize);
            let stretch = Stretch {
                device: self.device,
                table: t,
                dfs: &t.dfs[*at..*at + n],
                expectation: &self.runs[run].1,
            };
            *at += n;
            return Some(stretch);
        }
        None
    }
}

/// Specific contracts adjacent in DFS preorder that lie in one
/// expectation run with no excluded slot between them: they share an
/// expectation and, when the FIB forwards them all through one rule
/// set, a verdict.
#[derive(Clone, Copy)]
pub(crate) struct Stretch<'a> {
    device: DeviceId,
    table: &'a PrefixTable,
    /// `(dfs_key, slot)` per contract, in DFS preorder.
    pub(crate) dfs: &'a [(u64, u32)],
    /// The expectation every contract of the stretch carries.
    pub(crate) expectation: &'a Expectation,
}

impl<'a> Stretch<'a> {
    /// Number of contracts.
    pub(crate) fn len(&self) -> usize {
        self.dfs.len()
    }

    /// The `i`-th contract and its sort key.
    pub(crate) fn contract(&self, i: usize) -> (u32, ContractRef<'a>) {
        let slot = self.dfs[i].1;
        let (prefix, kind) = self.table.slots[slot as usize];
        let c = ContractRef {
            device: self.device,
            prefix,
            kind,
            expectation: self.expectation,
        };
        (slot + 1, c)
    }

    /// Every contract with its sort key, in DFS preorder.
    pub(crate) fn contracts(self) -> impl Iterator<Item = (u32, ContractRef<'a>)> {
        (0..self.len()).map(move |i| self.contract(i))
    }
}

/// Sorted, shared next-hop address list for a set of neighbor facts.
fn hops(facts: impl IntoIterator<Item = Ipv4>) -> Arc<[Ipv4]> {
    let mut v: Vec<Ipv4> = facts.into_iter().collect();
    v.sort_unstable();
    v.dedup();
    v.into()
}

/// What a leaf's specific contract for a prefix depends on: the
/// hosting ToR inside its own cluster, the hosting cluster outside.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Via {
    Tor(DeviceId),
    Cluster(ClusterId),
}

/// The expectation runs over the fact order when a fact's next hops
/// depend only on `key(fact)`. Facts arrive grouped by cluster and ToR,
/// so a run can only start where the key changes; `set` runs once per
/// distinct key.
fn runs_by<K: Copy + Eq + std::hash::Hash>(
    facts: &[PrefixFact],
    key: impl Fn(&PrefixFact) -> K,
    mut set: impl FnMut(K) -> Arc<[Ipv4]>,
) -> Vec<(u32, Expectation)> {
    let mut memo: HashMap<K, Arc<[Ipv4]>> = HashMap::new();
    let mut runs = Vec::new();
    let mut last = None;
    for (s, fact) in facts.iter().enumerate() {
        let k = key(fact);
        if last != Some(k) {
            last = Some(k);
            let hops = memo.entry(k).or_insert_with(|| set(k)).clone();
            push_run(&mut runs, s as u32, Expectation::NextHops(hops));
        }
    }
    runs
}

/// Streaming contract generator: precomputes the fabric's prefix table
/// and cluster indices once, then yields one device's contract set at
/// a time — the shape of the real contract-generator microservice.
pub struct ContractGenerator<'a> {
    meta: &'a MetadataService,
    cluster_leaf_set: HashMap<ClusterId, HashSet<DeviceId>>,
    /// Clusters each spine is wired into (through its leaf neighbors);
    /// precomputed so per-prefix contract emission is O(neighbors), not
    /// O(neighbors × their neighbors).
    spine_clusters: HashMap<DeviceId, HashSet<ClusterId>>,
    /// One slot per prefix fact, in fact order.
    table: Arc<PrefixTable>,
}

impl<'a> ContractGenerator<'a> {
    /// Build the generator over a metadata snapshot.
    pub fn new(meta: &'a MetadataService) -> Self {
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
        let slots = meta
            .prefix_facts()
            .iter()
            .map(|f| (f.prefix, ContractKind::Specific))
            .collect();
        ContractGenerator {
            meta,
            cluster_leaf_set,
            spine_clusters,
            table: Arc::new(PrefixTable::new(slots)),
        }
    }

    /// Generate the contract set for one device.
    pub fn device(&self, id: DeviceId) -> DeviceContracts {
        let meta = self.meta;
        let dev = meta.device(id);
        let facts = meta.prefix_facts();
        let mut excluded: Vec<u32> = Vec::new();
        let mut runs: Vec<(u32, Expectation)> = Vec::new();
        let default = match dev.role {
            Role::Tor => {
                let leaf_hops = hops(
                    meta.neighbors_with_role(dev.id, Role::Leaf)
                        .map(|nf| nf.next_hop_addr),
                );
                // §2.4.1: "besides the prefix it announces" — a ToR
                // delivers its own prefixes locally and the engines
                // treat them as implicitly satisfied, so no contract.
                for &p in meta.hosted_by(dev.id) {
                    excluded.extend(self.table.slots_of(p));
                }
                excluded.sort_unstable();
                excluded.dedup();
                push_run(&mut runs, 0, Expectation::NextHops(leaf_hops.clone()));
                Some(leaf_hops)
            }
            Role::Leaf => {
                let own_cluster = dev.cluster.expect("leaves belong to clusters");
                let via = |f: &PrefixFact| {
                    if f.cluster == own_cluster {
                        Via::Tor(f.tor)
                    } else {
                        Via::Cluster(f.cluster)
                    }
                };
                runs = runs_by(facts, via, |via| match via {
                    // Directly to the hosting ToR (§2.4.2).
                    Via::Tor(tor) => hops(
                        meta.neighbors_with_role(dev.id, Role::Tor)
                            .filter(|nf| nf.device == tor)
                            .map(|nf| nf.next_hop_addr),
                    ),
                    // "Spine devices that connect to the leaf devices
                    // that connect directly to the prefix" (§2.4.2).
                    Via::Cluster(cluster) => hops(
                        meta.neighbors_with_role(dev.id, Role::Spine)
                            .filter(|nf| self.spine_clusters[&nf.device].contains(&cluster))
                            .map(|nf| nf.next_hop_addr),
                    ),
                });
                Some(hops(
                    meta.neighbors_with_role(dev.id, Role::Spine)
                        .map(|nf| nf.next_hop_addr),
                ))
            }
            Role::Spine => {
                // Neighbor leaves from the cluster hosting the prefix
                // (§2.4.3); one distinct set per cluster.
                runs = runs_by(
                    facts,
                    |f| f.cluster,
                    |cluster| {
                        let hosting_leaves = &self.cluster_leaf_set[&cluster];
                        hops(
                            meta.neighbors_with_role(dev.id, Role::Leaf)
                                .filter(|nf| hosting_leaves.contains(&nf.device))
                                .map(|nf| nf.next_hop_addr),
                        )
                    },
                );
                Some(hops(
                    meta.neighbors_with_role(dev.id, Role::RegionalSpine)
                        .map(|nf| nf.next_hop_addr),
                ))
            }
            // Regional spines sit outside the datacenter boundary RCDC
            // validates: §2.4.1–§2.4.3 define contracts for ToR, leaf,
            // and spine devices only, and Claim 1 is stated over those
            // three tiers. This is also what makes the §2.4.4 example
            // exact: "R1 and R2 have no contract failures" even while
            // their spine-learned ECMP sets fluctuate with faults below
            // them.
            Role::RegionalSpine => None,
        };
        let table = match default {
            Some(_) => self.table.clone(),
            None => Arc::default(),
        };
        DeviceContracts {
            device: id,
            default: default.map(Expectation::NextHops),
            table,
            excluded: excluded.into(),
            runs: runs.into(),
        }
    }
}

/// Generate contracts for every device in the datacenter, indexed by
/// device id. Runs once per datacenter; the result is pushed to the
/// contract store of the monitoring pipeline (§2.6.1). All sets share
/// one prefix table.
pub fn generate_contracts(meta: &MetadataService) -> Vec<DeviceContracts> {
    let generator = ContractGenerator::new(meta);
    meta.devices()
        .iter()
        .map(|d| generator.device(d.id))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dctopo::generator::figure3;

    fn fig3_contracts() -> (
        dctopo::generator::Figure3,
        Vec<DeviceContracts>,
        MetadataService,
    ) {
        let f = figure3();
        let meta = MetadataService::from_topology(&f.topology);
        let contracts = generate_contracts(&meta);
        (f, contracts, meta)
    }

    /// Map expected next-hop addresses back to device ids for readable
    /// assertions.
    fn hop_devices(meta: &MetadataService, c: ContractRef<'_>) -> Vec<DeviceId> {
        let mut v: Vec<DeviceId> = c
            .next_hops()
            .unwrap()
            .iter()
            .map(|&h| meta.owner_of(h).unwrap())
            .collect();
        v.sort();
        v
    }

    #[test]
    fn tor1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let t1 = &contracts[f.tors[0].0 as usize];
        // Default + 3 specifics (B, C, D) — own Prefix_A excluded.
        assert_eq!(t1.len(), 4);
        let d = t1.default_contract().unwrap();
        assert_eq!(hop_devices(&meta, d), {
            let mut v = f.a.to_vec();
            v.sort();
            v
        });
        for c in t1.specifics() {
            assert_ne!(c.prefix, f.prefixes[0]);
            assert_eq!(hop_devices(&meta, c).len(), 4);
        }
    }

    #[test]
    fn leaf_a1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let a1 = &contracts[f.a[0].0 as usize];
        // Default + 4 specifics.
        assert_eq!(a1.len(), 5);
        // Default -> D1 only.
        assert_eq!(
            hop_devices(&meta, a1.default_contract().unwrap()),
            vec![f.d[0]]
        );
        let by_prefix: HashMap<Prefix, ContractRef<'_>> =
            a1.specifics().map(|c| (c.prefix, c)).collect();
        assert_eq!(
            hop_devices(&meta, by_prefix[&f.prefixes[0]]),
            vec![f.tors[0]]
        );
        assert_eq!(
            hop_devices(&meta, by_prefix[&f.prefixes[1]]),
            vec![f.tors[1]]
        );
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[2]]), vec![f.d[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[3]]), vec![f.d[0]]);
    }

    #[test]
    fn spine_d1_contracts_match_figure4() {
        let (f, contracts, meta) = fig3_contracts();
        let d1 = &contracts[f.d[0].0 as usize];
        assert_eq!(d1.len(), 5);
        // Default -> R1, R3.
        assert_eq!(
            hop_devices(&meta, d1.default_contract().unwrap()),
            vec![f.r[0], f.r[2]]
        );
        let by_prefix: HashMap<Prefix, ContractRef<'_>> =
            d1.specifics().map(|c| (c.prefix, c)).collect();
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[0]]), vec![f.a[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[1]]), vec![f.a[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[2]]), vec![f.b[0]]);
        assert_eq!(hop_devices(&meta, by_prefix[&f.prefixes[3]]), vec![f.b[0]]);
    }

    #[test]
    fn regional_spines_have_no_contracts() {
        let (f, contracts, _meta) = fig3_contracts();
        for &r in &f.r {
            assert!(contracts[r.0 as usize].is_empty());
            assert_eq!(contracts[r.0 as usize].iter().count(), 0);
        }
    }

    #[test]
    fn contracts_ignore_link_state() {
        // Generating contracts on a faulted topology yields the same
        // result as on the healthy one (§2.4).
        let mut f = figure3();
        let healthy = generate_contracts(&MetadataService::from_topology(&f.topology));
        for &leaf in &[f.a[2], f.a[3]] {
            let l = f.topology.link_between(f.tors[0], leaf).unwrap().id;
            f.topology.set_link_state(l, dctopo::LinkState::OperDown);
        }
        let faulted = generate_contracts(&MetadataService::from_topology(&f.topology));
        assert_eq!(healthy, faulted);
    }

    #[test]
    fn every_dc_device_has_exactly_one_default_contract() {
        let (_f, contracts, _meta) = fig3_contracts();
        for dc in contracts.iter().filter(|dc| !dc.is_empty()) {
            let defaults = dc
                .iter()
                .filter(|c| c.kind == ContractKind::Default)
                .count();
            assert_eq!(defaults, 1);
        }
    }

    #[test]
    fn contract_counts_scale_with_prefixes() {
        use dctopo::{build_clos, ClosParams};
        let p = ClosParams::default();
        let t = build_clos(&p);
        let meta = MetadataService::from_topology(&t);
        let contracts = generate_contracts(&meta);
        let total_prefixes = (p.clusters * p.tors_per_cluster * p.prefixes_per_tor) as usize;
        for dev in meta.devices() {
            let dc = &contracts[dev.id.0 as usize];
            let n = dc.len();
            assert_eq!(n, dc.iter().count());
            match dev.role {
                // own prefixes excluded
                Role::Tor => assert_eq!(n, 1 + total_prefixes - p.prefixes_per_tor as usize),
                Role::RegionalSpine => assert_eq!(n, 0),
                _ => assert_eq!(n, 1 + total_prefixes),
            }
        }
    }

    /// Stretches concatenate to the specifics in DFS preorder (equal
    /// prefixes in list order), each contract with its list-order key
    /// and expectation.
    fn assert_stretches_cover(dc: &DeviceContracts) {
        let mut want: Vec<(u32, ContractRef<'_>)> = dc
            .keyed()
            .filter(|(_, c)| c.kind == ContractKind::Specific)
            .collect();
        want.sort_by_key(|&(k, c)| (dfs_key(c.prefix), k));
        let got: Vec<(u32, ContractRef<'_>)> =
            dc.stretches().flat_map(|st| st.contracts()).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn stretches_cover_specifics_in_dfs_order() {
        use dctopo::{build_clos, ClosParams};
        let t = build_clos(&ClosParams {
            prefixes_per_tor: 3,
            ..ClosParams::default()
        });
        let meta = MetadataService::from_topology(&t);
        let contracts = generate_contracts(&meta);
        for dc in &contracts {
            assert_stretches_cover(dc);
        }
        // A fabric table has no slot-order breaks: a ToR's specifics
        // are cut only around its own three prefixes.
        let tor = meta
            .devices()
            .iter()
            .find(|d| d.role == Role::Tor)
            .unwrap()
            .id;
        let dc = &contracts[tor.0 as usize];
        assert!(dc.table.breaks.is_empty());
        assert!(dc.stretches().count() <= 4);

        // A hand-built list: unsorted, nested, duplicated, with a run
        // change and a default contract between specifics.
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let mk = |prefix: Prefix, kind, hop: u32| Contract {
            device: DeviceId(1),
            prefix,
            kind,
            expectation: Expectation::NextHops(vec![Ipv4(hop)].into()),
        };
        let dc = DeviceContracts::from_contracts(vec![
            mk(p("10.0.2.0/24"), ContractKind::Specific, 1),
            mk(p("10.0.0.0/24"), ContractKind::Specific, 1),
            mk(p("10.0.1.0/24"), ContractKind::Specific, 1),
            mk(Prefix::DEFAULT, ContractKind::Default, 1),
            mk(p("10.0.0.0/16"), ContractKind::Specific, 2),
            mk(p("10.0.1.0/24"), ContractKind::Specific, 2),
            mk(p("10.0.3.0/24"), ContractKind::Specific, 2),
            mk(p("10.0.4.0/24"), ContractKind::Specific, 3),
        ]);
        assert!(!dc.table.breaks.is_empty());
        assert_stretches_cover(&dc);
    }

    #[test]
    fn affected_matches_pairwise_overlap() {
        // The table lookup returns exactly the contracts a pairwise
        // overlap scan would: default contracts on a touched default
        // route, specifics overlapping any touched prefix.
        let p = |s: &str| s.parse::<Prefix>().unwrap();
        let hops: Arc<[Ipv4]> = vec![Ipv4(1)].into();
        let mk = |prefix: Prefix, kind| Contract {
            device: DeviceId(3),
            prefix,
            kind,
            expectation: Expectation::NextHops(hops.clone()),
        };
        let dc = DeviceContracts::from_contracts(vec![
            mk(Prefix::DEFAULT, ContractKind::Default),
            mk(p("10.0.0.0/24"), ContractKind::Specific),
            mk(p("10.0.0.0/8"), ContractKind::Specific),
            mk(p("10.0.1.0/24"), ContractKind::Specific),
            mk(p("10.0.0.128/25"), ContractKind::Specific),
            mk(p("10.0.0.0/24"), ContractKind::Specific),
            mk(p("11.0.0.0/24"), ContractKind::Specific),
            mk(Prefix::DEFAULT, ContractKind::Specific),
        ]);
        for touched in [
            vec![p("10.0.0.0/24")],
            vec![p("10.0.0.7/32")],
            vec![p("10.0.0.0/16"), p("11.0.0.0/25")],
            vec![Prefix::DEFAULT],
            vec![p("12.0.0.0/8")],
            vec![],
        ] {
            let mut got: Vec<u32> = dc.affected(&touched).map(|(k, _)| k).collect();
            got.sort_unstable();
            let want: Vec<u32> = dc
                .keyed()
                .filter(|(_, c)| match c.kind {
                    ContractKind::Default => touched.iter().any(|t| t.is_default()),
                    ContractKind::Specific => touched.iter().any(|t| t.overlaps(c.prefix)),
                })
                .map(|(k, _)| k)
                .collect();
            assert_eq!(got, want, "touched {touched:?}");
        }
    }
}
