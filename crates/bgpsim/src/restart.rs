//! Fault-injected fixed-point restart: converge a failure scenario
//! from the healthy solution instead of from scratch.
//!
//! A k-failure what-if sweep evaluates thousands of scenarios against
//! one fabric, and each scenario differs from the healthy network by a
//! handful of dead links. Re-running [`simulate`](crate::simulate) per
//! scenario repeats almost all of its work: the per-prefix BFS is a
//! function of the session graph, and most prefixes never route through
//! the dead links at all. [`Baseline`] snapshots the healthy fixed
//! point once and then answers each scenario by *patching* it:
//!
//! * A dead session edge `s → r` matters for a prefix only if it
//!   carried a minimal-distance advertisement in the healthy run —
//!   `best[s] + 1 == best[r]` and `s`'s address is in `r`'s hop set.
//!   Edges that never contributed leave the prefix untouched.
//! * If the edge contributed but `r` keeps other equal-length senders,
//!   the fixed point without the edge differs only in `r`'s hop mask.
//!   Distances, discovery order and every other device's hops are
//!   unchanged, so the patch is a single bit clear. When the dead edge
//!   was `r`'s BFS *parent*, the re-run would pick another parent; the
//!   patch is still exact whenever the prefix is *tie-break-free* —
//!   every multi-sender device's candidate parents advertise identical
//!   AS-path sequences, so any parent choice produces the same
//!   observables (acceptance verdicts and hop masks). Tie-break
//!   freedom is a property of the healthy state, computed once at
//!   [`Baseline::converge`] by interning each device's advertised path
//!   as an id; generated Clos fabrics satisfy it for every prefix
//!   (same-tier ECMP senders share ASN sequences).
//! * Anything else — a hop set emptied, a non-tie-break-free parent
//!   lost — falls back to re-running the per-prefix BFS on the faulted
//!   session graph, which is exact by construction. Fallbacks are the
//!   rare case, and only the affected prefixes pay for them.
//!
//! Changed FIBs are *spliced*, not rebuilt: a candidate device's new
//! table keeps the healthy runs over the shared prefix table, splits
//! them at the affected prefixes only, and renumbers interned set ids
//! in first-use order — the same content-keyed order a from-scratch
//! interner assigns — so the result, pool layout included, is
//! bit-identical to a from-scratch `simulate` on the faulted topology
//! at a cost in runs, not entries. The regression suite pins this for
//! every single-link failure on a seeded Clos.

use crate::config::SimConfig;
use crate::fib::{canonical_lt, Fib, Patch, TableOrder, WorkRuns, ABSENT, LOCAL};
use crate::sim::{
    emit_runs, hop_addrs, popcount, propagate, set_bits, words_eq, work_list, EmitRle, Relaxation,
    SimNet, SimStats, INF,
};
use dctopo::{DeviceId, LinkId, LinkState, Topology};
use netprim::{Ipv4, Prefix};
use std::collections::{HashMap, HashSet};

/// One failure scenario: a set of links and devices to take down
/// simultaneously. A dead device is modeled as all of its incident
/// links going down (it still originates its hosted prefixes locally,
/// exactly as a from-scratch simulation of the faulted topology would).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Links to fail.
    pub links: Vec<LinkId>,
    /// Devices to fail (all incident links go down).
    pub devices: Vec<DeviceId>,
}

impl FaultSpec {
    /// A scenario failing exactly these links.
    pub fn links(links: impl IntoIterator<Item = LinkId>) -> FaultSpec {
        FaultSpec {
            links: links.into_iter().collect(),
            devices: Vec::new(),
        }
    }

    /// A scenario failing exactly these devices.
    pub fn devices(devices: impl IntoIterator<Item = DeviceId>) -> FaultSpec {
        FaultSpec {
            links: Vec::new(),
            devices: devices.into_iter().collect(),
        }
    }

    /// No failures at all (the healthy network).
    pub fn is_empty(&self) -> bool {
        self.links.is_empty() && self.devices.is_empty()
    }

    /// Apply the scenario to a topology by marking every named link —
    /// and every link incident to a named device — `OperDown`. This is
    /// the from-scratch view of the scenario, used by the oracles to
    /// cross-check [`Baseline::resimulate`].
    pub fn apply(&self, topology: &mut Topology) {
        let mut dead: Vec<LinkId> = self.links.clone();
        for &d in &self.devices {
            dead.extend(topology.links_of(d).map(|l| l.id));
        }
        for l in dead {
            topology.set_link_state(l, LinkState::OperDown);
        }
    }
}

/// Work counters for one [`Baseline::resimulate`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RestartStats {
    /// Prefixes in the work list (hosted + default).
    pub prefixes: usize,
    /// Prefixes repaired by hop-mask patching alone.
    pub patched: usize,
    /// Prefixes that fell back to a from-scratch per-prefix BFS.
    pub repropagated: usize,
    /// Devices whose FIB actually changed.
    pub devices_changed: usize,
}

impl RestartStats {
    /// Merge another scenario's counters into this one (sweep totals).
    pub fn absorb(&mut self, other: &RestartStats) {
        self.prefixes += other.prefixes;
        self.patched += other.patched;
        self.repropagated += other.repropagated;
        self.devices_changed += other.devices_changed;
    }
}

/// The outcome of one scenario: only the FIBs that differ from the
/// healthy solution, plus work counters.
#[derive(Debug, Clone)]
pub struct ScenarioFibs {
    /// Changed devices and their new tables, ascending by device id.
    pub changed: Vec<(DeviceId, Fib)>,
    /// Aligned with `changed`: the prefixes whose rules differ from the
    /// healthy table (added, removed, or re-hopped), in canonical entry
    /// order. Incremental validators turn these directly into a
    /// [`FibDelta`](netprim::wire::FibDelta) without re-diffing the
    /// full tables.
    pub touched: Vec<Vec<Prefix>>,
    /// Work counters for this scenario.
    pub stats: RestartStats,
}

impl ScenarioFibs {
    /// Materialize the scenario's full FIB vector by splicing the
    /// changed tables over the healthy ones.
    pub fn splice(&self, healthy: &[Fib]) -> Vec<Fib> {
        let mut out = healthy.to_vec();
        for (d, fib) in &self.changed {
            out[d.0 as usize] = fib.clone();
        }
        out
    }
}

/// One prefix's converged state, snapshotted from the relaxation
/// scratch. Hop data is only valid where `0 < best < INF` (origins
/// emit local entries, unreached devices emit nothing).
struct PrefixState {
    /// BFS distance per device (`INF` = unreached).
    best: Vec<u8>,
    /// BFS parent per device (valid where `0 < best < INF`).
    parent: Vec<u32>,
    /// Hop masks over each device's neighbor-address table, in the
    /// flat [`SimNet::word_off`] layout (zero where no hop data).
    hops: Vec<u64>,
    /// Every multi-sender device's candidate parents advertise equal
    /// AS-path sequences, so a parent-edge death still patches exactly.
    tie_free: bool,
}

/// The healthy fixed point, snapshotted per prefix, ready to answer
/// failure scenarios incrementally. Shared-state only: `resimulate`
/// takes `&self`, so one baseline serves a parallel scenario driver.
pub struct Baseline {
    topology: Topology,
    config: SimConfig,
    net: SimNet,
    l2_bug: Vec<bool>,
    work: Vec<(Prefix, Vec<DeviceId>)>,
    states: Vec<PrefixState>,
    healthy: Vec<Fib>,
    /// The shared prefix table the healthy and scenario tables index.
    order: TableOrder,
    /// The work list's prefixes are strictly canonical-ordered (the
    /// generated fabrics always are), so work index `k` is prefix-table
    /// index `k` and pools in first-use order along the table are the
    /// simulator's: the splicer patches healthy runs in place. A
    /// non-canonical work list (possible for hand-built topologies)
    /// falls back to full per-device replay in work order.
    canonical_work: bool,
}

impl Baseline {
    /// Converge the healthy network and snapshot its per-prefix state.
    pub fn converge(topology: &Topology, config: &SimConfig) -> Baseline {
        let n = topology.len();
        let net = SimNet::build(topology, config);
        let l2_bug: Vec<bool> = topology
            .devices()
            .iter()
            .map(|d| config.device(d.id).is_some_and(|o| o.l2_port_bug))
            .collect();
        let bit_peer = bit_peers(topology, &net);
        let work = work_list(topology);
        let canonical_work = work.windows(2).all(|w| canonical_lt(w[0].0, w[1].0));
        // One pass does both jobs: snapshot each prefix's converged
        // state for the scenario patcher, and emit the healthy tables
        // through the simulator's own run-length path — the exact
        // serial emission `simulate` performs, so the healthy FIBs are
        // bit-identical by construction, not by replay.
        let mut relax = Relaxation::new(&net);
        let mut sim_stats = SimStats::default();
        let mut states = Vec::with_capacity(work.len());
        let mut rle = EmitRle::new(&net);
        let mut paths = PathIds::new(n);
        for (k, (prefix, origins)) in work.iter().enumerate() {
            relax.reset();
            propagate(&net, &mut relax, *prefix, origins, &mut sim_stats);
            let mut st = snapshot(&net, &relax);
            st.tie_free = paths.tie_break_free(&st, &relax.touched, &net, &bit_peer);
            states.push(st);
            emit_runs(&net, &relax, k as u32, *prefix, &mut rle);
        }
        let prefixes: Vec<Prefix> = work.iter().map(|(p, _)| *p).collect();
        let order = TableOrder::new(&prefixes);
        let healthy = rle.into_fibs(topology, &order);
        Baseline {
            topology: topology.clone(),
            config: config.clone(),
            net,
            l2_bug,
            work,
            states,
            healthy,
            order,
            canonical_work,
        }
    }

    /// The healthy FIBs (bit-identical to `simulate(topology, config)`).
    pub fn healthy_fibs(&self) -> &[Fib] {
        &self.healthy
    }

    /// The topology this baseline was converged on.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The config this baseline was converged under.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Re-simulate one failure scenario from the healthy solution.
    ///
    /// Returns exactly the devices whose FIBs change, each table
    /// bit-identical (interned pool layout included) to what a
    /// from-scratch [`simulate`](crate::simulate) of the faulted
    /// topology would produce.
    pub fn resimulate(&self, fault: &FaultSpec) -> ScenarioFibs {
        let n = self.topology.len();
        let mut dead_devices: HashSet<u32> = fault.devices.iter().map(|d| d.0).collect();
        let mut dead_links: HashSet<LinkId> = fault.links.iter().copied().collect();
        for &d in &fault.devices {
            dead_links.extend(self.topology.links_of(d).map(|l| l.id));
        }

        // A live device whose every live session edge died is
        // indistinguishable from a dead one: `FaultSpec::apply` marks
        // all incident links down either way, so the from-scratch run
        // reaches it for no prefix and it emits only its hosted-local
        // entries. Synthesizing it as dead keeps full-isolation
        // scenarios (a decommissioned rack's every uplink shut) on the
        // patch path; otherwise its emptied hop set would cascade a
        // per-prefix BFS fallback for nearly every prefix in the
        // fabric.
        let live_session = |l: &dctopo::Link| {
            l.state.session_up() && !self.l2_bug[l.lo.0 as usize] && !self.l2_bug[l.hi.0 as usize]
        };
        let endpoints: HashSet<u32> = dead_links
            .iter()
            .flat_map(|&lid| {
                let l = self.topology.link(lid);
                [l.lo.0, l.hi.0]
            })
            .collect();
        for &d in &endpoints {
            if !dead_devices.contains(&d)
                && self
                    .topology
                    .links_of(DeviceId(d))
                    .all(|l| !live_session(l) || dead_links.contains(&l.id))
            {
                dead_devices.insert(d);
            }
        }

        // Directed dead session edges actually present in the healthy
        // session graph (already-down or L2-bugged links never carried
        // advertisements, so killing them changes nothing).
        let mut edges: Vec<(u32, u32, u16)> = Vec::new();
        for &lid in &dead_links {
            let l = self.topology.link(lid);
            if !l.state.session_up() {
                continue;
            }
            let (lo, hi) = (l.lo.0 as usize, l.hi.0 as usize);
            if self.l2_bug[lo] || self.l2_bug[hi] {
                continue;
            }
            let bit = |owner: usize, addr: Ipv4| {
                self.net.addr_table[owner]
                    .binary_search(&addr)
                    .expect("session address is in the peer's table") as u16
            };
            edges.push((l.lo.0, l.hi.0, bit(hi, l.lo_addr)));
            edges.push((l.hi.0, l.lo.0, bit(lo, l.hi_addr)));
        }
        edges.sort_unstable();

        let mut stats = RestartStats {
            prefixes: self.work.len(),
            ..RestartStats::default()
        };
        // Per receiver: the (prefix index, neighbor-table bits) pairs
        // to clear, ascending in prefix index (the analysis loop runs
        // in work order). A prefix is either fully patchable or
        // re-propagated, never both, so patches and scenario states
        // stay disjoint.
        let mut patches: HashMap<u32, Vec<(u32, Vec<u16>)>> = HashMap::new();
        let mut fallback: Vec<u32> = Vec::new();
        let mut candidates: HashSet<u32> = HashSet::new();
        for (k, st) in self.states.iter().enumerate() {
            let mut removed: HashMap<u32, Vec<u16>> = HashMap::new();
            let mut needs_fallback = false;
            for &(s, r, bit) in &edges {
                if dead_devices.contains(&r) {
                    continue; // dead receivers are synthesized below
                }
                let (su, ru) = (s as usize, r as usize);
                let (bs, br) = (st.best[su], st.best[ru]);
                if bs == INF || br == 0 || br == INF || bs + 1 != br {
                    continue; // edge never carried a minimal-path route
                }
                if !has_bit(&st.hops[self.net.span(ru)], bit) {
                    continue;
                }
                if st.parent[ru] == s && !st.tie_free {
                    // A parent died and a re-run's tie-break could pick
                    // a parent with a different AS path: not patchable.
                    needs_fallback = true;
                    break;
                }
                removed.entry(r).or_default().push(bit);
            }
            if !needs_fallback {
                // An emptied hop set changes the receiver's distance
                // and cascades; only the BFS knows where to.
                needs_fallback = removed.iter().any(|(&r, bits_rm)| {
                    popcount(&st.hops[self.net.span(r as usize)]) as usize == bits_rm.len()
                });
            }
            if needs_fallback {
                fallback.push(k as u32);
            } else if !removed.is_empty() {
                stats.patched += 1;
                for (r, bits_rm) in removed {
                    candidates.insert(r);
                    patches.entry(r).or_default().push((k as u32, bits_rm));
                }
            }
        }

        // Fallback prefixes: exact per-prefix BFS on the faulted graph.
        // The per-device diff against the healthy state records *which*
        // fallback prefixes moved each device, so the splice recomputes
        // only those — an unchanged per-prefix state is guaranteed to
        // re-emit the healthy rule, so skipping it is byte-identical.
        let mut scen_states: HashMap<u32, PrefixState> = HashMap::new();
        let mut fallback_of: HashMap<u32, Vec<u32>> = HashMap::new();
        if !fallback.is_empty() {
            stats.repropagated = fallback.len();
            let fnet = SimNet::build_filtered(&self.topology, &self.config, &dead_links);
            let mut relax = Relaxation::new(&fnet);
            let mut sim_stats = SimStats::default();
            for &k in &fallback {
                let (prefix, origins) = &self.work[k as usize];
                relax.reset();
                propagate(&fnet, &mut relax, *prefix, origins, &mut sim_stats);
                let st = snapshot(&self.net, &relax);
                let healthy = &self.states[k as usize];
                for du in 0..n {
                    if !dead_devices.contains(&(du as u32))
                        && !state_eq_at(healthy, &st, du, &self.net)
                    {
                        candidates.insert(du as u32);
                        // Ascending in k: the fallback list is sorted.
                        fallback_of.entry(du as u32).or_default().push(k);
                    }
                }
                scen_states.insert(k, st);
            }
        }
        candidates.extend(dead_devices.iter().copied());

        // Rebuild every candidate and keep only genuine changes. Live
        // candidates on a canonical work list take the splice path:
        // keep the healthy runs, recompute only affected prefixes,
        // renumber set ids. Everything else replays in full.
        let mut sorted: Vec<u32> = candidates.into_iter().collect();
        sorted.sort_unstable();
        let mut changed = Vec::new();
        let mut touched = Vec::new();
        const NO_PATCHES: &[(u32, Vec<u16>)] = &[];
        const NO_FALLBACK: &[u32] = &[];
        for d in sorted {
            let dead = dead_devices.contains(&d);
            let patched = patches.get(&d).map_or(NO_PATCHES, Vec::as_slice);
            let dev_fallback = fallback_of.get(&d).map_or(NO_FALLBACK, Vec::as_slice);
            if !dead && self.canonical_work {
                if let Some((fib, diff)) =
                    self.splice_device(d, patched, dev_fallback, &scen_states)
                {
                    changed.push((DeviceId(d), fib));
                    touched.push(diff);
                }
                continue;
            }
            let fib = self.replay_device(d, dead, &scen_states, patched);
            if fib != self.healthy[d as usize] {
                let diff = diff_prefixes(&self.healthy[d as usize], &fib);
                changed.push((DeviceId(d), fib));
                touched.push(diff);
            }
        }
        stats.devices_changed = changed.len();
        ScenarioFibs {
            changed,
            touched,
            stats,
        }
    }

    /// Splice one live candidate's scenario table out of its healthy
    /// one: recompute only the affected work indices (this device's
    /// patches merged with the fallback prefixes) and patch the
    /// healthy runs there ([`Fib::patched`] splits and merges runs and
    /// renumbers the pool in first-use order — the order a
    /// from-scratch interner assigns), so the table is bit-identical to
    /// a full replay, pool layout included.
    ///
    /// Returns `None` when every recomputed entry matches the healthy
    /// table (e.g. a cleared hop bit that ECMP truncation had already
    /// dropped), otherwise the new table plus the differing prefixes
    /// in canonical entry order.
    fn splice_device(
        &self,
        d: u32,
        patched: &[(u32, Vec<u16>)],
        fallback: &[u32],
        scen_states: &HashMap<u32, PrefixState>,
    ) -> Option<(Fib, Vec<Prefix>)> {
        let du = d as usize;
        let healthy = &self.healthy[du];
        let mut patches: Vec<Patch> = Vec::new();
        // Merge this device's patches with the fallback prefixes (both
        // ascending in work index, disjoint by construction).
        let (mut pi, mut fi) = (0usize, 0usize);
        loop {
            let np = patched.get(pi).map_or(u32::MAX, |&(k, _)| k);
            let nf = fallback.get(fi).copied().unwrap_or(u32::MAX);
            if np == u32::MAX && nf == u32::MAX {
                break;
            }
            let (k, removed) = if np < nf {
                pi += 1;
                (np, Some(patched[pi - 1].1.as_slice()))
            } else {
                fi += 1;
                (nf, None)
            };
            let prefix = self.work[k as usize].0;
            // Recompute this device's faulted emission.
            let cap = self.cap(du, prefix);
            let state = match removed {
                // Patch receivers kept other senders: still reached,
                // never an origin.
                Some(bits_rm) => {
                    let st = &self.states[k as usize];
                    Some((emit_hops(st, du, bits_rm, cap, &self.net), false))
                }
                None => {
                    let st = &scen_states[&k];
                    match st.best[du] {
                        INF => None,
                        0 => Some((Vec::new(), true)),
                        _ => Some((emit_hops(st, du, &[], cap, &self.net), false)),
                    }
                }
            };
            let unchanged = match (healthy.entry_at(k), &state) {
                (Some(e), Some((hops, local))) => {
                    e.local == *local && healthy.next_hops(e) == hops.as_slice()
                }
                (None, None) => true,
                _ => false,
            };
            // Recomputed to the same rule (e.g. the dead bit was beyond
            // the ECMP cap): nothing to patch.
            if !unchanged {
                patches.push((k, state));
            }
        }
        if patches.is_empty() {
            return None;
        }
        let touched = patches
            .iter()
            .map(|&(k, _)| self.work[k as usize].0)
            .collect();
        Some((healthy.patched(&patches), touched))
    }

    /// ECMP width cap of device `du` for `prefix`.
    fn cap(&self, du: usize, prefix: Prefix) -> u32 {
        if prefix.is_default() {
            self.net.default_cap[du]
        } else {
            self.net.ecmp_cap[du]
        }
    }

    /// Rebuild one device's table by replaying the canonical emission
    /// order over (healthy | patched | re-propagated | dead) per-prefix
    /// states — the same emission `simulate` performs, so the finished
    /// table matches it bit-for-bit. The slow exact path, kept for dead
    /// devices and non-canonical work lists; live candidates normally
    /// take [`splice_device`](Self::splice_device).
    fn replay_device(
        &self,
        d: u32,
        dead: bool,
        scen_states: &HashMap<u32, PrefixState>,
        patched: &[(u32, Vec<u16>)],
    ) -> Fib {
        let du = d as usize;
        let mut runs = WorkRuns::default();
        const NO_REMOVALS: &[u16] = &[];
        let mut pi = 0usize;
        for (k, (prefix, origins)) in self.work.iter().enumerate() {
            let removed: &[u16] = match patched.get(pi) {
                Some((pk, bits)) if *pk as usize == k => {
                    pi += 1;
                    bits
                }
                _ => NO_REMOVALS,
            };
            let code = if dead {
                // A dead device keeps originating its hosted prefixes
                // locally (its from-scratch faulted run has best == 0
                // there and INF everywhere else).
                if origins.contains(&DeviceId(d)) {
                    LOCAL | runs.intern(Vec::new())
                } else {
                    ABSENT
                }
            } else {
                let (st, removed) = match scen_states.get(&(k as u32)) {
                    Some(st) => (st, NO_REMOVALS),
                    None => (&self.states[k], removed),
                };
                match st.best[du] {
                    INF => ABSENT,
                    0 => LOCAL | runs.intern(Vec::new()),
                    _ => runs.intern(emit_hops(st, du, removed, self.cap(du, *prefix), &self.net)),
                }
            };
            runs.set(k as u32, code);
        }
        runs.into_fib(DeviceId(d), &self.order)
    }
}

/// One device's faulted emission for one prefix: the snapshotted hop
/// mask minus `removed` neighbor-table bits, cap-truncated exactly as
/// the simulator's emit loop would (bit order is address order, so
/// keeping the lowest bits keeps the smallest addresses).
fn emit_hops(
    st: &PrefixState,
    du: usize,
    removed: &[u16],
    cap: u32,
    net: &SimNet,
) -> Vec<Ipv4> {
    hop_addrs(&st.hops[net.span(du)], &net.addr_table[du], removed, cap)
}

/// Is local `bit` set in a device's hop mask?
fn has_bit(words: &[u64], bit: u16) -> bool {
    words[bit as usize / 64] >> (bit % 64) & 1 != 0
}

/// Per device, per neighbor-table bit: the neighbor device behind it.
fn bit_peers(topology: &Topology, net: &SimNet) -> Vec<Vec<u32>> {
    let mut bit_peer: Vec<Vec<u32>> = net.addr_table.iter().map(|t| vec![0; t.len()]).collect();
    for l in topology.links() {
        let (lo, hi) = (l.lo.0 as usize, l.hi.0 as usize);
        let bl = net.addr_table[lo]
            .binary_search(&l.hi_addr)
            .expect("link address is in the owner's table");
        bit_peer[lo][bl] = l.hi.0;
        let bh = net.addr_table[hi]
            .binary_search(&l.lo_addr)
            .expect("link address is in the owner's table");
        bit_peer[hi][bh] = l.lo.0;
    }
    bit_peer
}

/// The prefixes on which two tables disagree (present on one side
/// only, or differing in locality or next hops), in canonical entry
/// order — the slow-path counterpart of the bookkeeping
/// [`Baseline::splice_device`] does inline.
fn diff_prefixes(old: &Fib, new: &Fib) -> Vec<Prefix> {
    let mut out = Vec::new();
    Fib::diff(old, new, |p, _, _| out.push(p));
    out
}

/// Snapshot the relaxation scratch into an owned [`PrefixState`],
/// zeroing hop data where it is stale (origins, unreached devices).
fn snapshot(net: &SimNet, relax: &Relaxation) -> PrefixState {
    let mut hops = relax.hops.clone();
    for (du, &b) in relax.best.iter().enumerate() {
        if b == 0 || b == INF {
            hops[net.span(du)].fill(0);
        }
    }
    PrefixState {
        best: relax.best.clone(),
        parent: relax.parent.iter().map(|p| p.0).collect(),
        hops,
        tie_free: false,
    }
}

/// Do two snapshots agree on one device's emitted state?
fn state_eq_at(a: &PrefixState, b: &PrefixState, du: usize, net: &SimNet) -> bool {
    let (x, y) = (a.best[du], b.best[du]);
    if x != y {
        return false;
    }
    x == 0 || x == INF || words_eq(&a.hops[net.span(du)], &b.hops[net.span(du)])
}

/// Interned advertised AS paths, the scratch of the tie-break check.
/// `pid(d) = intern(asn(d), pid(parent(d)))`, with origins interned
/// against no parent, so two devices have equal ids exactly when they
/// advertise equal AS-path sequences.
struct PathIds {
    /// Per device: its path id (valid for the current prefix's
    /// reached devices).
    pid: Vec<u32>,
    /// `(asn, parent path id)` → path id, reset per prefix.
    ids: HashMap<u64, u32>,
}

impl PathIds {
    const NO_PATH: u32 = u32::MAX;

    fn new(n: usize) -> PathIds {
        PathIds {
            pid: vec![0; n],
            ids: HashMap::new(),
        }
    }

    /// Is the prefix tie-break-free: does every device with multiple
    /// equal-length senders see one AS-path sequence from all of them?
    /// If so, any BFS parent choice yields the same observables, and a
    /// parent-edge death is patchable without re-running the BFS.
    ///
    /// `order` lists the reached devices parents first (the
    /// relaxation's discovery order, along which distances never
    /// decrease), so a device's parent and senders — all one level
    /// closer to an origin — have their ids before it is visited.
    fn tie_break_free(
        &mut self,
        st: &PrefixState,
        order: &[DeviceId],
        net: &SimNet,
        bit_peer: &[Vec<u32>],
    ) -> bool {
        self.ids.clear();
        for &d in order {
            let du = d.0 as usize;
            let parent = if st.best[du] == 0 {
                Self::NO_PATH
            } else {
                self.pid[st.parent[du] as usize]
            };
            let key = u64::from(net.asn[du].0) << 32 | u64::from(parent);
            let next = self.ids.len() as u32;
            self.pid[du] = *self.ids.entry(key).or_insert(next);
            if st.best[du] == 0 {
                continue;
            }
            let words = &st.hops[net.span(du)];
            if popcount(words) <= 1 {
                continue;
            }
            let mut senders = set_bits(words).map(|b| self.pid[bit_peer[du][b] as usize]);
            let first = senders.next();
            if senders.any(|p| Some(p) != first) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use dctopo::generator::{build_clos, figure3, ClosParams};
    use dctopo::{Asn, Role};

    /// A config exercising every override the simulator honors.
    fn faulted_config(f: &dctopo::generator::Figure3) -> SimConfig {
        SimConfig::healthy()
            .with_max_ecmp(f.tors[0], 2)
            .with_rib_fib_bug(f.tors[1], 1)
            .with_default_reject(f.a[0])
            .with_l2_port_bug(f.b[1])
            .with_asn_override(f.b[0], f.topology.device(f.a[0]).asn)
    }

    fn assert_scenario_exact(base: &Baseline, fault: &FaultSpec, what: &str) {
        let out = base.resimulate(fault);
        let spliced = out.splice(base.healthy_fibs());
        let mut faulted = base.topology().clone();
        fault.apply(&mut faulted);
        let scratch = simulate(&faulted, base.config());
        assert_eq!(spliced, scratch, "restart diverged from scratch: {what}");
        // `changed` must list exactly the differing devices, and
        // `touched` exactly each one's differing prefixes.
        assert_eq!(out.changed.len(), out.touched.len());
        for ((d, fib), touched) in out.changed.iter().zip(&out.touched) {
            let healthy = &base.healthy_fibs()[d.0 as usize];
            assert_ne!(
                fib, healthy,
                "unchanged device reported as changed: {what}"
            );
            assert_eq!(
                touched,
                &diff_prefixes(healthy, fib),
                "touched prefixes diverge from the real diff: {what}"
            );
        }
    }

    #[test]
    fn healthy_replay_matches_simulate() {
        let f = figure3();
        for config in [SimConfig::healthy(), faulted_config(&f)] {
            let base = Baseline::converge(&f.topology, &config);
            assert_eq!(base.healthy_fibs(), &simulate(&f.topology, &config)[..]);
        }
        let medium = build_clos(&ClosParams::default());
        let base = Baseline::converge(&medium, &SimConfig::healthy());
        assert_eq!(
            base.healthy_fibs(),
            &simulate(&medium, &SimConfig::healthy())[..]
        );
    }

    #[test]
    fn empty_fault_changes_nothing() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let out = base.resimulate(&FaultSpec::default());
        assert!(out.changed.is_empty());
        assert_eq!(out.stats.patched + out.stats.repropagated, 0);
    }

    /// The satellite regression: every single-link failure on a seeded
    /// 3-tier Clos produces FIBs bit-identical to a from-scratch run.
    #[test]
    fn every_single_link_failure_matches_scratch_on_clos() {
        let t = build_clos(&ClosParams::default());
        let base = Baseline::converge(&t, &SimConfig::healthy());
        let mut patched = 0usize;
        let mut repropagated = 0usize;
        for l in t.links() {
            let fault = FaultSpec::links([l.id]);
            let out = base.resimulate(&fault);
            patched += out.stats.patched;
            repropagated += out.stats.repropagated;
            let spliced = out.splice(base.healthy_fibs());
            let mut faulted = t.clone();
            fault.apply(&mut faulted);
            assert_eq!(
                spliced,
                simulate(&faulted, &SimConfig::healthy()),
                "link {}",
                l.id.0
            );
        }
        // The sweep must exercise both repair paths.
        assert!(patched > 0, "no scenario used the patch fast path");
        assert!(repropagated > 0, "no scenario used the BFS fallback");
    }

    #[test]
    fn single_link_failures_match_scratch_under_faulted_config() {
        let f = figure3();
        let config = faulted_config(&f);
        let base = Baseline::converge(&f.topology, &config);
        for l in f.topology.links() {
            assert_scenario_exact(&base, &FaultSpec::links([l.id]), &format!("link {}", l.id.0));
        }
    }

    #[test]
    fn link_pairs_match_scratch() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let links = f.topology.links();
        for i in 0..links.len() {
            for j in (i + 1)..links.len() {
                assert_scenario_exact(
                    &base,
                    &FaultSpec::links([links[i].id, links[j].id]),
                    &format!("links {} {}", links[i].id.0, links[j].id.0),
                );
            }
        }
    }

    #[test]
    fn device_failures_match_scratch() {
        let f = figure3();
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        for d in f.topology.devices() {
            assert_scenario_exact(
                &base,
                &FaultSpec::devices([d.id]),
                &format!("device {}", d.name),
            );
        }
        // Mixed link + device scenarios.
        let spine = f.d[0];
        let link = f.topology.links_of(f.tors[2]).next().unwrap().id;
        assert_scenario_exact(
            &base,
            &FaultSpec {
                links: vec![link],
                devices: vec![spine],
            },
            "mixed spine + tor-link",
        );
    }

    #[test]
    fn device_failures_match_scratch_on_clos() {
        let t = build_clos(&ClosParams {
            clusters: 2,
            tors_per_cluster: 4,
            leaves_per_cluster: 3,
            spines: 6,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 1,
        });
        let base = Baseline::converge(&t, &SimConfig::healthy());
        for role in [Role::Tor, Role::Leaf, Role::Spine, Role::RegionalSpine] {
            let d = t.devices_with_role(role).next().unwrap();
            assert_scenario_exact(
                &base,
                &FaultSpec::devices([d.id]),
                &format!("device {}", d.name),
            );
        }
    }

    /// The AS-path sequence device `from` advertises, via parent walk.
    fn path_seq(st: &PrefixState, asn: &[Asn], mut from: u32, out: &mut Vec<Asn>) {
        out.clear();
        loop {
            out.push(asn[from as usize]);
            if st.best[from as usize] == 0 {
                return;
            }
            from = st.parent[from as usize];
        }
    }

    /// The parent-walk tie-break check that path ids replaced, kept as
    /// their oracle: every multi-sender device's senders must walk to
    /// one AS-path sequence.
    fn tie_break_free_walk(st: &PrefixState, net: &SimNet, bit_peer: &[Vec<u32>]) -> bool {
        let mut first = Vec::new();
        let mut other = Vec::new();
        for (ru, &b) in st.best.iter().enumerate() {
            if b == 0 || b == INF {
                continue;
            }
            let senders: Vec<u32> = set_bits(&st.hops[net.span(ru)])
                .map(|bit| bit_peer[ru][bit])
                .collect();
            if senders.len() <= 1 {
                continue;
            }
            path_seq(st, &net.asn, senders[0], &mut first);
            for &s in &senders[1..] {
                path_seq(st, &net.asn, s, &mut other);
                if first != other {
                    return false;
                }
            }
        }
        true
    }

    /// Path-id tie-break-freedom must agree with the walk on every
    /// prefix. Returns how many prefixes are not tie-break-free.
    fn assert_path_ids_match_walk(topology: &Topology, config: &SimConfig) -> usize {
        let base = Baseline::converge(topology, config);
        let bit_peer = bit_peers(topology, &base.net);
        let mut tied = 0;
        for (st, (prefix, _)) in base.states.iter().zip(&base.work) {
            assert_eq!(
                st.tie_free,
                tie_break_free_walk(st, &base.net, &bit_peer),
                "prefix {prefix}"
            );
            tied += usize::from(!st.tie_free);
        }
        tied
    }

    #[test]
    fn path_ids_match_walk_on_faulted_figure3() {
        let mut f = figure3();
        assert_eq!(
            assert_path_ids_match_walk(&f.topology, &SimConfig::healthy()),
            0
        );
        let config = faulted_config(&f);
        assert!(
            assert_path_ids_match_walk(&f.topology, &config) > 0,
            "the ASN collision must leave some prefix not tie-break-free"
        );
        // The paper's four link failures on top of the faulted config.
        for (tor, leaves) in [(f.tors[0], [f.a[2], f.a[3]]), (f.tors[1], [f.a[0], f.a[1]])] {
            for leaf in leaves {
                let l = f.topology.link_between(tor, leaf).unwrap().id;
                f.topology.set_link_state(l, LinkState::OperDown);
            }
        }
        assert_path_ids_match_walk(&f.topology, &config);
    }

    #[test]
    fn path_ids_match_walk_under_asn_collisions_on_clos() {
        let t = build_clos(&ClosParams::default());
        let leaves: Vec<&dctopo::Device> = t.devices_with_role(Role::Leaf).collect();
        let spines: Vec<&dctopo::Device> = t.devices_with_role(Role::Spine).collect();
        let c0 = leaves[0].cluster;
        let other = leaves.iter().find(|d| d.cluster != c0).unwrap().cluster;
        // One cluster's leaves take another cluster's leaf ASN, and one
        // spine takes a leaf ASN.
        let mut config = SimConfig::healthy();
        for d in leaves.iter().filter(|d| d.cluster == other) {
            config = config.with_asn_override(d.id, leaves[0].asn);
        }
        config = config.with_asn_override(spines[0].id, leaves[0].asn);
        assert!(assert_path_ids_match_walk(&t, &config) > 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]

        #[test]
        fn path_ids_match_walk_on_random_clos(
            shape in (1u32..=3, 1u32..=3, 1u32..=3, 1u32..=2, 1u32..=2),
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::rngs::StdRng;
            use rand::{Rng, SeedableRng};
            let (clusters, tors, leaves, per_plane, regionals) = shape;
            let mut t = build_clos(&ClosParams {
                clusters,
                tors_per_cluster: tors,
                leaves_per_cluster: leaves,
                spines: leaves * per_plane,
                regional_spines: regionals,
                regional_groups: 1,
                prefixes_per_tor: 1,
            });
            let mut rng = StdRng::seed_from_u64(seed);
            let n = t.len() as u32;
            let links = t.links().len() as u32;
            for _ in 0..rng.gen_range(0..=3) {
                t.set_link_state(LinkId(rng.gen_range(0..links)), LinkState::OperDown);
            }
            let mut config = SimConfig::healthy();
            for _ in 0..rng.gen_range(0..=3) {
                let (a, b) = (DeviceId(rng.gen_range(0..n)), DeviceId(rng.gen_range(0..n)));
                config = config.with_asn_override(a, t.device(b).asn);
            }
            assert_path_ids_match_walk(&t, &config);
        }
    }

    #[test]
    fn already_down_links_are_no_ops() {
        let mut f = figure3();
        let l = f.topology.link_between(f.tors[0], f.a[0]).unwrap().id;
        f.topology.set_link_state(l, LinkState::OperDown);
        let base = Baseline::converge(&f.topology, &SimConfig::healthy());
        let out = base.resimulate(&FaultSpec::links([l]));
        assert!(out.changed.is_empty(), "re-failing a down link is a no-op");
    }
}
