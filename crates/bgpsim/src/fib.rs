//! Compact forwarding information bases.
//!
//! A device's FIB "is a table, where each entry associates a
//! destination prefix to a set of next hop addresses" (§2.2). In a
//! hyperscale DC every device holds (nearly) every fabric prefix, and
//! long stretches of them share one next-hop set (every remote /24 on
//! a ToR goes to the same leaf set). A [`Fib`] therefore stores no
//! per-entry records. It is a view over three parts:
//!
//! * a prefix table in canonical order (descending length, then
//!   ascending address), `Arc`-shared by every table one simulation
//!   produces;
//! * maximal [`FibRun`]s over that table's indices: stretches of
//!   consecutive table prefixes with one next-hop set and locality.
//!   A table prefix covered by no run is absent from this FIB;
//! * a pool of interned next-hop sets, in first-use order.
//!
//! The 10⁴-router sweep's 9.3 × 10⁷ entries are ~1.1 × 10⁵ runs. Tables
//! built entry by entry ([`FibBuilder`], wire decode, delta
//! application) get a private prefix table holding exactly their own
//! prefixes.

use dctopo::DeviceId;
use netprim::wire::{DeltaRule, FibDelta, WireEntry, WireSnapshot};
use netprim::{Ipv4, ParseError, Prefix};
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, OnceLock};

/// One FIB entry: destination prefix plus interned next-hop set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibEntry {
    /// Destination prefix.
    pub prefix: Prefix,
    /// Index into the owning [`Fib`]'s next-hop-set pool.
    pub set: u32,
    /// Locally originated (the device's own hosted prefix): packets
    /// are delivered below, not forwarded.
    pub local: bool,
}

/// A maximal stretch of a FIB's entries: the prefixes at prefix-table
/// indices `start..end`, all on one next-hop set and locality.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FibRun {
    /// First table index of the run.
    pub start: u32,
    /// One past the last table index of the run.
    pub end: u32,
    /// Index into the owning [`Fib`]'s next-hop-set pool.
    pub set: u32,
    /// Locally originated entries.
    pub local: bool,
}

impl FibRun {
    fn entry(&self, prefix: Prefix) -> FibEntry {
        FibEntry {
            prefix,
            set: self.set,
            local: self.local,
        }
    }
}

/// Append a run, merging it into the last one when it continues it.
/// Every constructor goes through here, so runs stay maximal: two
/// tables over one prefix table hold the same entries exactly when
/// their runs are equal.
pub(crate) fn push_run(runs: &mut Vec<FibRun>, run: FibRun) {
    debug_assert!(run.start < run.end);
    if let Some(last) = runs.last_mut() {
        debug_assert!(last.end <= run.start);
        if last.end == run.start && last.set == run.set && last.local == run.local {
            last.end = run.end;
            return;
        }
    }
    runs.push(run);
}

/// One entry's replacement for [`Fib::patched`]: a prefix-table index
/// and the entry's new next hops and locality, or `None` to drop it.
pub(crate) type Patch = (u32, Option<(Vec<Ipv4>, bool)>);

/// Distinct prefixes in canonical order.
#[derive(Debug)]
pub(crate) struct PrefixTable {
    prefixes: Box<[Prefix]>,
    /// Running sums of the prefixes' hash weights (`sums[i]` covers the
    /// first `i`), kept by shared tables: a run's share of
    /// [`Fib::content_hash`] is then one subtraction.
    sums: Option<Box<[u64]>>,
}

impl PrefixTable {
    /// A table many FIBs will share.
    pub(crate) fn shared(prefixes: Vec<Prefix>) -> PrefixTable {
        let mut acc = 0u64;
        let mut sums = Vec::with_capacity(prefixes.len() + 1);
        sums.push(0);
        for &p in &prefixes {
            acc = acc.wrapping_add(prefix_weight(p));
            sums.push(acc);
        }
        PrefixTable {
            prefixes: prefixes.into(),
            sums: Some(sums.into()),
        }
    }

    /// A table holding exactly one FIB's prefixes.
    fn private(prefixes: Vec<Prefix>) -> PrefixTable {
        PrefixTable {
            prefixes: prefixes.into(),
            sums: None,
        }
    }

    /// Sum of the hash weights of the prefixes at `start..end`.
    fn weight(&self, start: u32, end: u32) -> u64 {
        match &self.sums {
            Some(s) => s[end as usize].wrapping_sub(s[start as usize]),
            None => self.prefixes[start as usize..end as usize]
                .iter()
                .fold(0u64, |acc, &p| acc.wrapping_add(prefix_weight(p))),
        }
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<PrefixTable>()
            + std::mem::size_of_val(&self.prefixes[..])
            + self
                .sums
                .as_ref()
                .map_or(0, |s| std::mem::size_of_val(&s[..]))
    }
}

/// Canonical entry order: descending prefix length, then ascending
/// address — the longest-prefix-match processing order.
pub(crate) fn canonical_lt(a: Prefix, b: Prefix) -> bool {
    a.len() > b.len() || (a.len() == b.len() && a.addr() < b.addr())
}

/// `canonical_lt` as an ordering.
fn canonical_cmp(a: Prefix, b: Prefix) -> std::cmp::Ordering {
    b.len().cmp(&a.len()).then(a.addr().cmp(&b.addr()))
}

/// A per-device pool of interned next-hop sets, in first-use order.
#[derive(Debug, Default)]
pub(crate) struct SetPool {
    sets: Vec<Vec<Ipv4>>,
    ids: HashMap<Vec<Ipv4>, u32>,
}

impl SetPool {
    /// Intern a next-hop set (sorted and deduplicated for canonical
    /// comparison — a FIB entry's next hops are a *set*, and repeating
    /// an address must not change how any engine judges the entry).
    pub(crate) fn intern(&mut self, mut hops: Vec<Ipv4>) -> u32 {
        hops.sort_unstable();
        hops.dedup();
        if let Some(&id) = self.ids.get(&hops) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(hops.clone());
        self.ids.insert(hops, id);
        id
    }

    /// A set by id.
    pub(crate) fn get(&self, id: u32) -> &[Ipv4] {
        &self.sets[id as usize]
    }

    /// Number of interned sets.
    pub(crate) fn len(&self) -> usize {
        self.sets.len()
    }

    /// The sets, indexed by id.
    pub(crate) fn into_sets(self) -> Vec<Vec<Ipv4>> {
        self.sets
    }
}

/// Work-order run code: no route.
pub(crate) const ABSENT: u32 = u32::MAX;
/// Work-order run code flag: a local entry. The other bits are a pool
/// id, which stays below the flag.
pub(crate) const LOCAL: u32 = 1 << 31;

/// The prefix table of a simulation's work list, and how work indices
/// map onto it.
pub(crate) struct TableOrder {
    table: Arc<PrefixTable>,
    /// `(first table index, first work index, length)`: maximal
    /// stretches of consecutive table indices holding consecutive work
    /// indices. A work list in canonical order is one stretch.
    segments: Vec<(u32, u32, u32)>,
    /// Work list length.
    work: u32,
}

impl TableOrder {
    /// The table of a work list's prefixes. A prefix listed twice
    /// takes its last listing's state, as a builder's last push wins.
    pub(crate) fn new(prefixes: &[Prefix]) -> TableOrder {
        let mut order: Vec<u32> = (0..prefixes.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| {
            canonical_cmp(prefixes[a as usize], prefixes[b as usize]).then(b.cmp(&a))
        });
        order.dedup_by_key(|k| prefixes[*k as usize]);
        let mut segments: Vec<(u32, u32, u32)> = Vec::new();
        for (t, &k) in order.iter().enumerate() {
            match segments.last_mut() {
                Some((_, k0, len)) if *k0 + *len == k => *len += 1,
                _ => segments.push((t as u32, k, 1)),
            }
        }
        let table = order.iter().map(|&k| prefixes[k as usize]).collect();
        TableOrder {
            table: Arc::new(PrefixTable::shared(table)),
            segments,
            work: prefixes.len() as u32,
        }
    }
}

/// One device's entries as a simulation emits them: runs over work
/// list indices, each with one run code, and the pool their sets are
/// interned into, in first-use order along the work list.
#[derive(Debug, Default)]
pub(crate) struct WorkRuns {
    /// `(first work index, code)`. A run ends where the next begins,
    /// or at the work list's end; indices before the first run are
    /// absent.
    runs: Vec<(u32, u32)>,
    pool: SetPool,
}

impl WorkRuns {
    /// Intern a next-hop set into this device's pool.
    pub(crate) fn intern(&mut self, hops: Vec<Ipv4>) -> u32 {
        self.pool.intern(hops)
    }

    /// The code of work index `k`, which follows every index recorded
    /// so far: starts a run unless it continues the current one.
    pub(crate) fn set(&mut self, k: u32, code: u32) {
        if self.runs.last().map_or(ABSENT, |r| r.1) != code {
            self.runs.push((k, code));
        }
    }

    /// Append another recording whose work indices start at `offset`
    /// and follow this one's. Each of its sets is interned at its
    /// first use, so the pool is laid out as if one recording had seen
    /// both.
    pub(crate) fn absorb(&mut self, other: &WorkRuns, offset: u32) {
        let mut map = vec![u32::MAX; other.pool.len()];
        let lead = other
            .runs
            .first()
            .is_none_or(|r| r.0 > 0)
            .then_some((0, ABSENT));
        for (k, code) in lead.into_iter().chain(other.runs.iter().copied()) {
            let code = if code == ABSENT {
                ABSENT
            } else {
                let id = (code & !LOCAL) as usize;
                if map[id] == u32::MAX {
                    map[id] = self.pool.intern(other.pool.get(id as u32).to_vec());
                }
                map[id] | (code & LOCAL)
            };
            self.set(k + offset, code);
        }
    }

    /// The finished table over `order`'s shared prefix table: each
    /// work-order run is cut along the table's stretches.
    pub(crate) fn into_fib(self, device: DeviceId, order: &TableOrder) -> Fib {
        let mut runs = Vec::new();
        for &(t0, k0, len) in &order.segments {
            let k1 = k0 + len;
            let mut i = self
                .runs
                .partition_point(|&(k, _)| k <= k0)
                .saturating_sub(1);
            while let Some(&(rs, code)) = self.runs.get(i) {
                if rs >= k1 {
                    break;
                }
                let re = self.runs.get(i + 1).map_or(order.work, |r| r.0);
                let (a, b) = (rs.max(k0), re.min(k1));
                if a < b && code != ABSENT {
                    push_run(
                        &mut runs,
                        FibRun {
                            start: t0 + a - k0,
                            end: t0 + b - k0,
                            set: code & !LOCAL,
                            local: code & LOCAL != 0,
                        },
                    );
                }
                i += 1;
            }
        }
        Fib::from_runs(device, order.table.clone(), runs, self.pool.into_sets())
    }
}

/// Incremental FIB construction with next-hop-set interning.
pub struct FibBuilder {
    device: DeviceId,
    entries: Vec<FibEntry>,
    pool: SetPool,
}

impl FibBuilder {
    /// Start a FIB for a device.
    pub fn new(device: DeviceId) -> Self {
        FibBuilder {
            device,
            entries: Vec::new(),
            pool: SetPool::default(),
        }
    }

    /// Intern a next-hop set (sorted and deduplicated, see
    /// [`push`](Self::push)) and return its pool id.
    pub fn intern(&mut self, hops: Vec<Ipv4>) -> u32 {
        self.pool.intern(hops)
    }

    /// Append an entry. Next hops are a set: their order and any
    /// repeated address do not matter.
    pub fn push(&mut self, prefix: Prefix, hops: Vec<Ipv4>, local: bool) {
        let set = self.intern(hops);
        self.entries.push(FibEntry { prefix, set, local });
    }

    /// Number of entries pushed so far.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Finish: entries are sorted by descending prefix length, then
    /// address — the longest-prefix-match processing order used by the
    /// verification engines (Definition 2.1) — and coalesced into runs
    /// over a private prefix table. The pool keeps push-order
    /// interning.
    ///
    /// Duplicate pushes of the same prefix are collapsed to a single
    /// entry and the *last* push wins, mirroring how a router's RIB
    /// overwrites a re-advertised route and how `apply_delta` treats a
    /// `modified` rule. (The wire decoder is stricter: `Fib::from_wire`
    /// rejects duplicate prefixes outright, because a pulled snapshot
    /// has no push order to break the tie with.)
    pub fn finish(mut self) -> Fib {
        // Strict sortedness implies uniqueness: tables pushed in
        // canonical order (the common case) skip the sort and dedup.
        if !self
            .entries
            .windows(2)
            .all(|w| canonical_lt(w[0].prefix, w[1].prefix))
        {
            let mut indexed: Vec<(usize, FibEntry)> = self.entries.drain(..).enumerate().collect();
            // Sort duplicates latest-push-first, then keep the first of
            // each prefix run (dedup_by retains the earlier element).
            indexed.sort_unstable_by(|(ia, a), (ib, b)| {
                canonical_cmp(a.prefix, b.prefix).then(ib.cmp(ia))
            });
            indexed.dedup_by(|(_, a), (_, b)| a.prefix == b.prefix);
            self.entries = indexed.into_iter().map(|(_, e)| e).collect();
        }
        let mut runs = Vec::new();
        for (i, e) in self.entries.iter().enumerate() {
            let i = i as u32;
            push_run(
                &mut runs,
                FibRun {
                    start: i,
                    end: i + 1,
                    set: e.set,
                    local: e.local,
                },
            );
        }
        let table = PrefixTable::private(self.entries.iter().map(|e| e.prefix).collect());
        Fib::from_runs(self.device, Arc::new(table), runs, self.pool.into_sets())
    }
}

/// A device's forwarding table (see the module doc for the layout).
pub struct Fib {
    device: DeviceId,
    table: Arc<PrefixTable>,
    runs: Vec<FibRun>,
    len: usize,
    sets: Vec<Vec<Ipv4>>,
    /// The entries as one array, built on the first positional access
    /// through [`Entries`]' `Index`; iteration never builds it.
    flat: OnceLock<Box<[FibEntry]>>,
}

impl Clone for Fib {
    fn clone(&self) -> Fib {
        Fib::from_runs(
            self.device,
            self.table.clone(),
            self.runs.clone(),
            self.sets.clone(),
        )
    }
}

/// Same device, same entry sequence (set ids included) and same pool,
/// whichever prefix table each side is stored over.
impl PartialEq for Fib {
    fn eq(&self, other: &Fib) -> bool {
        self.device == other.device
            && self.len == other.len
            && self.sets == other.sets
            && if self.same_table(other) {
                self.runs == other.runs
            } else {
                self.entries().eq(other.entries())
            }
    }
}

impl Eq for Fib {}

impl std::fmt::Debug for Fib {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fib")
            .field("device", &self.device)
            .field("entries", &self.entries().collect::<Vec<_>>())
            .field("sets", &self.sets)
            .finish()
    }
}

impl Fib {
    /// Assemble a table from maximal runs over `table` (see
    /// [`push_run`]) and a pool whose ids the runs use.
    pub(crate) fn from_runs(
        device: DeviceId,
        table: Arc<PrefixTable>,
        runs: Vec<FibRun>,
        sets: Vec<Vec<Ipv4>>,
    ) -> Fib {
        debug_assert!(runs.windows(2).all(|w| {
            let (a, b) = (w[0], w[1]);
            a.end < b.start || (a.end == b.start && (a.set, a.local) != (b.set, b.local))
        }));
        debug_assert!(runs.iter().all(|r| r.end as usize <= table.prefixes.len()));
        debug_assert!(runs.iter().all(|r| (r.set as usize) < sets.len()));
        let len = runs.iter().map(|r| (r.end - r.start) as usize).sum();
        Fib {
            device,
            table,
            runs,
            len,
            sets,
            flat: OnceLock::new(),
        }
    }

    /// An empty FIB (e.g. a device with the layer-2 port bug).
    pub fn empty(device: DeviceId) -> Fib {
        Fib::from_runs(
            device,
            Arc::new(PrefixTable::private(Vec::new())),
            Vec::new(),
            Vec::new(),
        )
    }

    /// Both tables are stored over equal prefix tables, so their runs
    /// are directly comparable.
    fn same_table(&self, other: &Fib) -> bool {
        Arc::ptr_eq(&self.table, &other.table) || self.table.prefixes == other.table.prefixes
    }

    /// The owning device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Entries, sorted by descending prefix length, then ascending
    /// address.
    pub fn entries(&self) -> Entries<'_> {
        Entries {
            fib: self,
            front: (0, self.runs.first().map_or(0, |r| r.start)),
            back: (
                self.runs.len().saturating_sub(1),
                self.runs.last().map_or(0, |r| r.end),
            ),
            taken: 0,
            remaining: self.len,
        }
    }

    /// The entries' maximal runs over [`prefixes`](Self::prefixes),
    /// ascending.
    pub fn runs(&self) -> &[FibRun] {
        &self.runs
    }

    /// The prefix table the runs index: every prefix of this table,
    /// and (for a table shared across a fabric) others absent from it,
    /// in canonical order.
    pub fn prefixes(&self) -> &[Prefix] {
        &self.table.prefixes
    }

    /// The entry at prefix-table index `t`, if present.
    pub(crate) fn entry_at(&self, t: u32) -> Option<FibEntry> {
        let i = self.runs.partition_point(|r| r.end <= t);
        self.runs
            .get(i)
            .filter(|r| r.start <= t)
            .map(|r| r.entry(self.table.prefixes[t as usize]))
    }

    /// The next-hop addresses of an entry.
    pub fn next_hops(&self, e: FibEntry) -> &[Ipv4] {
        &self.sets[e.set as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The default-route entry (`0.0.0.0/0`), if present.
    pub fn default_entry(&self) -> Option<FibEntry> {
        // Canonical order puts the default, if any, last.
        let last = self.runs.last()?;
        let p = self.table.prefixes[last.end as usize - 1];
        p.is_default().then(|| last.entry(p))
    }

    /// Longest-prefix-match lookup (reference semantics for tests, the
    /// global baseline checker and the SMT engine's witness replay).
    ///
    /// The prefix table is sorted by (descending length, address):
    /// within each length a binary search finds the unique candidate
    /// prefix containing `ip`, so lookup is O(distinct lengths × log
    /// n) rather than O(n).
    pub fn lookup(&self, ip: Ipv4) -> Option<FibEntry> {
        let table = &self.table.prefixes;
        let mut i = 0;
        while i < table.len() {
            let len = table[i].len();
            let end = i + table[i..].partition_point(|p| p.len() == len);
            let candidate = Prefix::containing(ip, len).expect("len <= 32");
            if let Ok(k) = table[i..end].binary_search_by(|p| p.addr().cmp(&candidate.addr())) {
                if let Some(e) = self.entry_at((i + k) as u32) {
                    return Some(e);
                }
            }
            i = end;
        }
        None
    }

    /// The prefix-table index of `prefix`, if the table lists it.
    fn position(&self, prefix: Prefix) -> Option<u32> {
        self.table
            .prefixes
            .binary_search_by(|&p| canonical_cmp(p, prefix))
            .ok()
            .map(|t| t as u32)
    }

    /// Find the entry for an exact prefix. Binary searches over the
    /// prefix table and the runs — called once per contract by the
    /// strict engines, so it must not be linear.
    pub fn entry_for(&self, prefix: Prefix) -> Option<FibEntry> {
        self.entry_at(self.position(prefix)?)
    }

    /// Serialize for the puller→validator transfer (§2.6.1).
    pub fn to_wire(&self) -> WireSnapshot {
        WireSnapshot {
            device: self.device.0,
            entries: self
                .entries()
                .map(|e| WireEntry {
                    prefix: e.prefix,
                    next_hops: self.next_hops(e).to_vec(),
                })
                .collect(),
        }
    }

    /// Reconstruct from the wire format. Locality cannot be carried on
    /// the wire (real FIB pulls don't carry it either); entries with no
    /// next hops are treated as local.
    ///
    /// A snapshot listing the same prefix twice is rejected: unlike
    /// [`FibBuilder`] pushes there is no meaningful "later wins" order
    /// on the wire, and silently picking one arm would let a corrupted
    /// pull masquerade as a clean table.
    pub fn from_wire(w: &WireSnapshot) -> Result<Fib, ParseError> {
        // A snapshot in canonical order (what `to_wire` writes) has no
        // duplicates; only another order needs the set.
        if !w
            .entries
            .windows(2)
            .all(|p| canonical_lt(p[0].prefix, p[1].prefix))
        {
            let mut seen = HashSet::with_capacity(w.entries.len());
            if let Some(e) = w.entries.iter().find(|e| !seen.insert(e.prefix)) {
                return Err(ParseError::new(
                    "fib snapshot",
                    "<decode>",
                    format!("duplicate prefix {} in snapshot", e.prefix),
                ));
            }
        }
        let mut b = FibBuilder::new(DeviceId(w.device));
        for e in &w.entries {
            b.push(e.prefix, e.next_hops.clone(), e.next_hops.is_empty());
        }
        Ok(b.finish())
    }

    /// Total number of distinct next-hop sets (compactness statistic).
    pub fn set_pool_len(&self) -> usize {
        self.sets.len()
    }

    /// Heap and inline bytes held by a set of tables, counting each
    /// shared prefix table once.
    pub fn resident_bytes(fibs: &[Fib]) -> usize {
        let mut tables: HashSet<*const PrefixTable> = HashSet::new();
        let mut bytes = 0;
        for f in fibs {
            bytes += std::mem::size_of::<Fib>()
                + f.runs.capacity() * std::mem::size_of::<FibRun>()
                + f.sets.capacity() * std::mem::size_of::<Vec<Ipv4>>()
                + f.sets.iter().map(|s| s.capacity() * 4).sum::<usize>()
                + f.flat.get().map_or(0, |e| std::mem::size_of_val(&e[..]));
            if tables.insert(Arc::as_ptr(&f.table)) {
                bytes += f.table.resident_bytes();
            }
        }
        bytes
    }

    /// Stable content hash of the table.
    ///
    /// Covers the device id and every entry (prefix, locality, next
    /// hops), so two `Fib`s built by any route — simulation, wire
    /// decode, delta application, restart splice — hash equal iff they
    /// forward identically. This is the identity the incremental
    /// pipeline keys on: an unchanged snapshot costs one hash
    /// comparison instead of a validation pass.
    ///
    /// The entries are summed, not chained: an entry adds
    /// `weight(prefix) × factor(locality, set digest)`, both odd, so
    /// changing one entry's prefix or locality always moves the sum,
    /// and so does changing its next hops unless two set digests
    /// collide. A run's entries share a factor, so its share is the
    /// factor times its prefixes' weight sum — one subtraction of
    /// running sums on a shared table. The cost is O(runs + pool
    /// addresses), and set digests depend on content only, never on
    /// pool ids, so neither run cuts nor interning order reach the
    /// hash.
    pub fn content_hash(&self) -> u64 {
        // FNV-1a over 64-bit words; stability across runs is what
        // matters (hashes travel inside [`FibDelta`]s), not diffusion.
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mix = |h: u64, word: u64| (h ^ word).wrapping_mul(PRIME);
        let digests: Vec<u64> = self
            .sets
            .iter()
            .map(|hops| {
                hops.iter().fold(mix(BASIS, hops.len() as u64), |h, nh| {
                    mix(h, u64::from(nh.0))
                })
            })
            .collect();
        let sum = self.runs.iter().fold(0u64, |acc, r| {
            let factor = (spread(digests[r.set as usize]) << 2) | (u64::from(r.local) << 1) | 1;
            acc.wrapping_add(factor.wrapping_mul(self.table.weight(r.start, r.end)))
        });
        mix(
            mix(mix(BASIS, u64::from(self.device.0)), self.len as u64),
            sum,
        )
    }

    /// Call `f(prefix, old entry, new entry)` for every prefix on which
    /// two tables disagree (present on one side only, or differing in
    /// locality or next hops), in canonical order. Tables over one
    /// prefix table compare run against run and skip agreeing
    /// stretches whole.
    pub(crate) fn diff(
        old: &Fib,
        new: &Fib,
        mut f: impl FnMut(Prefix, Option<FibEntry>, Option<FibEntry>),
    ) {
        let same = |a: Option<FibEntry>, b: Option<FibEntry>| match (a, b) {
            (Some(a), Some(b)) => a.local == b.local && old.next_hops(a) == new.next_hops(b),
            (None, None) => true,
            _ => false,
        };
        if old.same_table(new) {
            let table = &old.table.prefixes;
            let (mut i, mut j) = (0usize, 0usize);
            let mut t = 0u32;
            // Walk the union of both tables' run boundaries: between
            // two consecutive boundaries each side is one state.
            loop {
                let (a, b) = (old.runs.get(i), new.runs.get(j));
                if a.is_none() && b.is_none() {
                    break;
                }
                let state = |r: Option<&FibRun>| match r {
                    Some(r) if r.start <= t => (Some(*r), r.end),
                    Some(r) => (None, r.start),
                    None => (None, u32::MAX),
                };
                let ((ra, ea), (rb, eb)) = (state(a), state(b));
                let end = ea.min(eb);
                let entry = |r: Option<FibRun>, t: u32| r.map(|r| r.entry(table[t as usize]));
                if !same(entry(ra, t), entry(rb, t)) {
                    for u in t..end {
                        f(table[u as usize], entry(ra, u), entry(rb, u));
                    }
                }
                t = end;
                i += usize::from(a.is_some_and(|r| r.end == t));
                j += usize::from(b.is_some_and(|r| r.end == t));
            }
            return;
        }
        let (mut a, mut b) = (old.entries().peekable(), new.entries().peekable());
        loop {
            let ord = match (a.peek(), b.peek()) {
                (None, None) => break,
                (Some(_), None) => std::cmp::Ordering::Less,
                (None, Some(_)) => std::cmp::Ordering::Greater,
                (Some(x), Some(y)) => canonical_cmp(x.prefix, y.prefix),
            };
            let (x, y) = match ord {
                std::cmp::Ordering::Equal => (a.next(), b.next()),
                std::cmp::Ordering::Less => (a.next(), None),
                std::cmp::Ordering::Greater => (None, b.next()),
            };
            if !same(x, y) {
                f(x.or(y).expect("one side is present").prefix, x, y);
            }
        }
    }

    /// This table with the entries at some prefix-table indices
    /// replaced: `patches` lists `(index, None)` to drop an entry and
    /// `(index, Some((hops, local)))` to set one, ascending by index.
    /// The result shares the prefix table, and its pool is laid out in
    /// first-use order along the new entries — the order a simulation
    /// interns in when its work list is in canonical order.
    pub(crate) fn patched(&self, patches: &[Patch]) -> Fib {
        let base = self.sets.len() as u32;
        // Patched contents resolve to a pool id when the pool already
        // holds them, else to a new id past the pool.
        let mut novel: Vec<&[Ipv4]> = Vec::new();
        let resolved: Vec<(u32, Option<FibRun>)> = patches
            .iter()
            .map(|(t, state)| {
                let run = state.as_ref().map(|(hops, local)| {
                    let set = match self.sets.iter().position(|s| s == hops) {
                        Some(i) => i as u32,
                        None => {
                            let n = novel.iter().position(|&s| s == hops.as_slice());
                            base + n.unwrap_or_else(|| {
                                novel.push(hops);
                                novel.len() - 1
                            }) as u32
                        }
                    };
                    FibRun {
                        start: *t,
                        end: t + 1,
                        set,
                        local: *local,
                    }
                });
                (*t, run)
            })
            .collect();
        let mut runs = Vec::with_capacity(self.runs.len() + 2 * patches.len());
        let mut p = resolved.into_iter().peekable();
        for r in &self.runs {
            let mut s = r.start;
            while let Some((t, run)) = p.next_if(|&(t, _)| t < r.end) {
                if t >= s {
                    if s < t {
                        push_run(
                            &mut runs,
                            FibRun {
                                start: s,
                                end: t,
                                ..*r
                            },
                        );
                    }
                    s = t + 1;
                }
                if let Some(run) = run {
                    push_run(&mut runs, run);
                }
            }
            if s < r.end {
                push_run(&mut runs, FibRun { start: s, ..*r });
            }
        }
        for run in p.filter_map(|(_, run)| run) {
            push_run(&mut runs, run);
        }
        // Renumber the pool in first-use order. Ids name distinct
        // contents, so renumbering cannot make two runs mergeable.
        let mut map = vec![u32::MAX; base as usize + novel.len()];
        let mut sets: Vec<Vec<Ipv4>> = Vec::new();
        for r in &mut runs {
            let id = r.set as usize;
            if map[id] == u32::MAX {
                map[id] = sets.len() as u32;
                sets.push(if r.set < base {
                    self.sets[id].clone()
                } else {
                    novel[id - base as usize].to_vec()
                });
            }
            r.set = map[id];
        }
        Fib::from_runs(self.device, self.table.clone(), runs, sets)
    }

    /// Compute the [`FibDelta`] turning `old` into `new`.
    ///
    /// Rules whose next hops or locality changed land in `modified`,
    /// rules on one side only in `added`/`removed`, each in canonical
    /// order. The delta is anchored to both tables'
    /// [`content_hash`](Self::content_hash)es.
    ///
    /// Panics when the two tables belong to different devices.
    pub fn delta(old: &Fib, new: &Fib) -> FibDelta {
        assert_eq!(
            old.device, new.device,
            "delta requires snapshots of the same device"
        );
        let mut delta = FibDelta {
            device: old.device.0,
            base_hash: old.content_hash(),
            new_hash: new.content_hash(),
            ..FibDelta::default()
        };
        Fib::diff(old, new, |prefix, a, b| match b {
            Some(b) => {
                let rule = DeltaRule {
                    prefix,
                    next_hops: new.next_hops(b).to_vec(),
                    local: b.local,
                };
                if a.is_some() {
                    delta.modified.push(rule);
                } else {
                    delta.added.push(rule);
                }
            }
            None => delta.removed.push(prefix),
        });
        delta
    }

    /// Apply a delta, producing the successor table.
    ///
    /// A delta batch is a *set* of per-prefix outcomes, not an ordered
    /// script: the result is the same however the wire happened to
    /// order `added`/`modified`/`removed`. A prefix listed in both
    /// `removed` and `added` nets out to the added rule (remove, then
    /// re-add). Two rules for the same prefix are accepted only when
    /// they agree after next-hop canonicalization; conflicting
    /// duplicates are rejected instead of letting push order silently
    /// pick a winner behind [`FibBuilder::finish`]'s last-push-wins
    /// dedup.
    ///
    /// Fails when the delta was computed against a different base
    /// (hash mismatch — e.g. the device republished between pull and
    /// apply), when it targets another device, when it carries
    /// conflicting rules, or when the result does not hash to the
    /// delta's `new_hash`.
    pub fn apply_delta(&self, delta: &FibDelta) -> Result<Fib, ParseError> {
        let err = |reason: String| ParseError::new("fib delta", "<apply>", reason);
        if delta.device != self.device.0 {
            return Err(err("delta targets a different device".into()));
        }
        if delta.base_hash != self.content_hash() {
            return Err(err("base hash mismatch: delta is stale".into()));
        }
        let canon = |r: &DeltaRule| {
            let mut hops = r.next_hops.clone();
            hops.sort_unstable();
            hops.dedup();
            (hops, r.local)
        };
        let mut changed: HashMap<Prefix, (Vec<Ipv4>, bool)> =
            HashMap::with_capacity(delta.added.len() + delta.modified.len());
        for r in delta.added.iter().chain(&delta.modified) {
            let c = canon(r);
            match changed.entry(r.prefix) {
                std::collections::hash_map::Entry::Occupied(prev) => {
                    if *prev.get() != c {
                        return Err(err(format!(
                            "conflicting delta rules for {}",
                            r.prefix
                        )));
                    }
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(c);
                }
            }
        }
        let removed: HashSet<Prefix> = delta.removed.iter().copied().collect();
        let mut b = FibBuilder::new(self.device);
        for e in self.entries() {
            if removed.contains(&e.prefix) || changed.contains_key(&e.prefix) {
                continue;
            }
            b.push(e.prefix, self.next_hops(e).to_vec(), e.local);
        }
        // One rule per distinct prefix, so map iteration order cannot
        // affect the canonicalized `finish` result.
        for (prefix, (hops, local)) in changed {
            b.push(prefix, hops, local);
        }
        let next = b.finish();
        if next.content_hash() != delta.new_hash {
            return Err(err(
                "applied delta does not reproduce the target table".into(),
            ));
        }
        Ok(next)
    }

    /// The entries as one array, built once per table.
    fn flat(&self) -> &[FibEntry] {
        self.flat.get_or_init(|| Fib::entries(self).collect())
    }
}

/// A prefix's hash weight: odd, so any change of an entry's factor
/// changes the sum.
fn prefix_weight(p: Prefix) -> u64 {
    spread((u64::from(p.addr().0) << 8) | u64::from(p.len())) | 1
}

/// The splitmix64 finalizer: a bijection on words that spreads every
/// input bit over the output.
fn spread(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The entries of a [`Fib`] in canonical order, produced from its runs.
///
/// `iter()` and indexing serve callers written against an entry
/// slice: `entries()[i]` is the `i`-th entry not yet consumed from the
/// front. Indexing reads an entry array the table builds on first use
/// and keeps; iteration never builds it.
#[derive(Clone)]
pub struct Entries<'a> {
    fib: &'a Fib,
    /// Run index and table index of the next entry from the front.
    front: (usize, u32),
    /// Run index and table index one past the next entry from the back.
    back: (usize, u32),
    taken: usize,
    remaining: usize,
}

impl<'a> Entries<'a> {
    /// The entries not yet consumed, as a fresh iterator.
    pub fn iter(&self) -> Entries<'a> {
        self.clone()
    }
}

impl Iterator for Entries<'_> {
    type Item = FibEntry;

    fn next(&mut self) -> Option<FibEntry> {
        if self.remaining == 0 {
            return None;
        }
        let runs = &self.fib.runs;
        if self.front.1 == runs[self.front.0].end {
            self.front.0 += 1;
            self.front.1 = runs[self.front.0].start;
        }
        let t = self.front.1;
        self.front.1 += 1;
        self.taken += 1;
        self.remaining -= 1;
        Some(runs[self.front.0].entry(self.fib.table.prefixes[t as usize]))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl DoubleEndedIterator for Entries<'_> {
    fn next_back(&mut self) -> Option<FibEntry> {
        if self.remaining == 0 {
            return None;
        }
        let runs = &self.fib.runs;
        if self.back.1 == runs[self.back.0].start {
            self.back.0 -= 1;
            self.back.1 = runs[self.back.0].end;
        }
        self.back.1 -= 1;
        self.remaining -= 1;
        Some(runs[self.back.0].entry(self.fib.table.prefixes[self.back.1 as usize]))
    }
}

impl ExactSizeIterator for Entries<'_> {}

impl std::ops::Index<usize> for Entries<'_> {
    type Output = FibEntry;

    fn index(&self, i: usize) -> &FibEntry {
        assert!(i < self.remaining, "entry {i} out of {}", self.remaining);
        &self.fib.flat()[self.taken + i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn hops(addrs: &[[u8; 4]]) -> Vec<Ipv4> {
        addrs.iter().map(|&o| Ipv4::from(o)).collect()
    }

    fn sample() -> Fib {
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("10.0.0.0/24"), vec![], true);
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.finish()
    }

    #[test]
    fn entries_sorted_longest_first() {
        let f = sample();
        let lens: Vec<u8> = f.entries().map(|e| e.prefix.len()).collect();
        assert_eq!(lens, vec![24, 24, 16, 0]);
        // Both ends, exact size, and slice-style access agree.
        let back: Vec<FibEntry> = f.entries().rev().collect();
        let mut fwd: Vec<FibEntry> = f.entries().collect();
        fwd.reverse();
        assert_eq!(back, fwd);
        let mut it = f.entries();
        assert_eq!(it.len(), 4);
        it.next();
        assert_eq!(it.len(), 3);
        assert_eq!(it[0].prefix, p("10.0.1.0/24"));
        assert_eq!(f.entries()[3].prefix, p("0.0.0.0/0"));
    }

    #[test]
    fn interning_dedupes_sets() {
        let f = sample();
        // Two entries share {30.0.0.1, 30.0.0.3}; plus {} and {30.0.0.5}.
        assert_eq!(f.set_pool_len(), 3);
    }

    #[test]
    fn interning_is_order_insensitive() {
        let mut b = FibBuilder::new(DeviceId(0));
        let a = b.intern(hops(&[[30, 0, 0, 3], [30, 0, 0, 1]]));
        let c = b.intern(hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]));
        assert_eq!(a, c);
    }

    #[test]
    fn longest_prefix_match() {
        let f = sample();
        // 10.0.0.7 matches /24 local, /16, /0 -> the local /24 wins.
        let e = f.lookup(Ipv4::new(10, 0, 0, 7)).unwrap();
        assert_eq!(e.prefix, p("10.0.0.0/24"));
        assert!(e.local);
        // 10.0.9.9 matches /16 and /0 -> /16.
        let e = f.lookup(Ipv4::new(10, 0, 9, 9)).unwrap();
        assert_eq!(e.prefix, p("10.0.0.0/16"));
        // 99.0.0.1 only the default.
        let e = f.lookup(Ipv4::new(99, 0, 0, 1)).unwrap();
        assert!(e.prefix.is_default());
    }

    #[test]
    fn default_entry_found() {
        let f = sample();
        assert!(f.default_entry().is_some());
        let no_default = {
            let mut b = FibBuilder::new(DeviceId(1));
            b.push(p("10.0.0.0/24"), vec![], true);
            b.finish()
        };
        assert!(no_default.default_entry().is_none());
        assert!(Fib::empty(DeviceId(2)).default_entry().is_none());
    }

    #[test]
    fn builder_collapses_duplicate_prefixes_last_push_wins() {
        let mut b = FibBuilder::new(DeviceId(4));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 1]]), false);
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 2]]), false);
        let f = b.finish();
        assert_eq!(f.len(), 2);
        let e = f.entry_for(p("10.0.0.0/24")).unwrap();
        // Re-advertisement overwrites: the later push's hops win.
        assert_eq!(f.next_hops(e), &[Ipv4::new(30, 0, 0, 2)]);
        // The sorted-uniqueness invariant holds for binary search.
        assert_eq!(
            f.lookup(Ipv4::new(10, 0, 0, 9)).unwrap().prefix,
            p("10.0.0.0/24")
        );
    }

    #[test]
    fn from_wire_rejects_duplicate_prefixes() {
        let mut w = sample().to_wire();
        let dup = w.entries[0].clone();
        w.entries.push(dup);
        let err = Fib::from_wire(&w).unwrap_err();
        assert!(err.to_string().contains("duplicate prefix"));
        // The encoded form round-trips through the codec but is still
        // rejected at the Fib layer.
        let w2 = WireSnapshot::decode(&w.encode()).unwrap();
        assert!(Fib::from_wire(&w2).is_err());
    }

    #[test]
    fn intern_dedupes_repeated_hop_addresses() {
        // {a, a} and {a} are the same next-hop set; if interning kept
        // the duplicate, the trie engine (vector equality) and the SMT
        // engine (boolean disjunction) would disagree about whether the
        // entry meets a contract expecting {a}.
        let mut b = FibBuilder::new(DeviceId(5));
        let one = b.intern(hops(&[[30, 0, 0, 1]]));
        let dup = b.intern(hops(&[[30, 0, 0, 1], [30, 0, 0, 1]]));
        assert_eq!(one, dup);
        b.push(
            p("10.0.0.0/24"),
            hops(&[[30, 0, 0, 3], [30, 0, 0, 3], [30, 0, 0, 1]]),
            false,
        );
        let f = b.finish();
        let e = f.entry_for(p("10.0.0.0/24")).unwrap();
        assert_eq!(
            f.next_hops(e),
            &[Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 3)]
        );
    }

    #[test]
    fn wire_round_trip() {
        let f = sample();
        let w = f.to_wire();
        let back = Fib::from_wire(&w).unwrap();
        assert_eq!(back.device(), f.device());
        assert_eq!(back.len(), f.len());
        for (a, b) in f.entries().zip(back.entries()) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(f.next_hops(a), back.next_hops(b));
            assert_eq!(a.local, b.local);
        }
    }

    #[test]
    fn entry_for_exact_prefix() {
        let f = sample();
        assert!(f.entry_for(p("10.0.0.0/16")).is_some());
        assert!(f.entry_for(p("10.0.0.0/20")).is_none());
    }

    #[test]
    fn content_hash_is_stable_and_discriminating() {
        let f = sample();
        assert_eq!(f.content_hash(), sample().content_hash());
        // Insertion order does not matter (finish() canonicalizes).
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("10.0.0.0/16"), hops(&[[30, 0, 0, 5]]), false);
        b.push(p("10.0.0.0/24"), vec![], true);
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        assert_eq!(b.finish().content_hash(), f.content_hash());
        // Device, hops, locality, and membership all discriminate.
        let mut b = FibBuilder::new(DeviceId(10));
        for e in f.entries() {
            b.push(e.prefix, f.next_hops(e).to_vec(), e.local);
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        let mut b = FibBuilder::new(DeviceId(9));
        for e in f.entries() {
            let mut h = f.next_hops(e).to_vec();
            if e.prefix == p("10.0.0.0/16") {
                h.pop();
            }
            b.push(e.prefix, h, e.local);
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        let mut b = FibBuilder::new(DeviceId(9));
        for e in f.entries() {
            b.push(
                e.prefix,
                f.next_hops(e).to_vec(),
                e.local ^ (e.prefix == p("10.0.0.0/24")),
            );
        }
        assert_ne!(b.finish().content_hash(), f.content_hash());
        assert_ne!(Fib::empty(DeviceId(9)).content_hash(), f.content_hash());
    }

    #[test]
    fn content_hash_ignores_pool_order() {
        // Same content, sets interned in opposite orders.
        let x = hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]);
        let y = hops(&[[30, 0, 0, 5]]);
        let mut a = FibBuilder::new(DeviceId(9));
        a.push(p("10.0.0.0/24"), x.clone(), false);
        a.push(p("10.0.1.0/24"), y.clone(), false);
        let mut b = FibBuilder::new(DeviceId(9));
        b.push(p("10.0.1.0/24"), y, false);
        b.push(p("10.0.0.0/24"), x, false);
        let (a, b) = (a.finish(), b.finish());
        let set = |f: &Fib| f.entry_for(p("10.0.0.0/24")).unwrap().set;
        assert_ne!(set(&a), set(&b), "the pools must differ in order");
        assert_eq!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_sees_one_address_of_a_shared_set() {
        // Many entries share one set; changing one of its addresses
        // changes every entry's next hops and must change the hash.
        let table = |last: u8| {
            let mut b = FibBuilder::new(DeviceId(3));
            for i in 0..64u8 {
                b.push(
                    p(&format!("10.0.{i}.0/24")),
                    hops(&[[30, 0, 0, 1], [30, 0, 0, last]]),
                    false,
                );
            }
            b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1]]), false);
            b.finish()
        };
        let (a, b) = (table(3), table(4));
        assert_eq!(a.set_pool_len(), 2);
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn content_hash_agrees_across_simulate_wire_and_delta() {
        use crate::{simulate, SimConfig};
        use dctopo::{build_clos, ClosParams, LinkState, Role};
        let params = ClosParams {
            clusters: 2,
            tors_per_cluster: 3,
            leaves_per_cluster: 2,
            spines: 2,
            regional_spines: 2,
            regional_groups: 1,
            prefixes_per_tor: 2,
        };
        let mut topology = build_clos(&params);
        let healthy = simulate(&topology, &SimConfig::healthy());
        let tor = topology.devices_with_role(Role::Tor).next().unwrap().id;
        let uplink = topology.links().iter().find(|l| l.lo == tor || l.hi == tor).unwrap().id;
        topology.set_link_state(uplink, LinkState::OperDown);
        let config = SimConfig::healthy().with_max_ecmp(tor, 1);
        let faulted = simulate(&topology, &config);
        let mut changed = 0;
        for (old, new) in healthy.iter().zip(&faulted) {
            let wired = Fib::from_wire(&new.to_wire()).unwrap();
            assert_eq!(wired.content_hash(), new.content_hash());
            let delta = Fib::delta(old, new);
            changed += usize::from(!delta.is_empty());
            let applied = old.apply_delta(&delta).unwrap();
            assert_eq!(applied.content_hash(), new.content_hash());
            assert_eq!(
                old.content_hash() == new.content_hash(),
                delta.is_empty(),
                "device {:?}",
                new.device()
            );
        }
        assert!(changed > 0);
    }

    fn modified_sample() -> Fib {
        let mut b = FibBuilder::new(DeviceId(9));
        // default unchanged
        b.push(p("0.0.0.0/0"), hops(&[[30, 0, 0, 1], [30, 0, 0, 3]]), false);
        // 10.0.1.0/24 modified (hops truncated)
        b.push(p("10.0.1.0/24"), hops(&[[30, 0, 0, 1]]), false);
        // 10.0.0.0/24 local unchanged
        b.push(p("10.0.0.0/24"), vec![], true);
        // 10.0.0.0/16 removed; 10.2.0.0/16 added
        b.push(p("10.2.0.0/16"), hops(&[[30, 0, 0, 7]]), false);
        b.finish()
    }

    #[test]
    fn delta_classifies_changes() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        assert_eq!(d.device, 9);
        assert_eq!(d.base_hash, old.content_hash());
        assert_eq!(d.new_hash, new.content_hash());
        assert_eq!(
            d.added.iter().map(|r| r.prefix).collect::<Vec<_>>(),
            vec![p("10.2.0.0/16")]
        );
        assert_eq!(
            d.modified.iter().map(|r| r.prefix).collect::<Vec<_>>(),
            vec![p("10.0.1.0/24")]
        );
        assert_eq!(d.removed, vec![p("10.0.0.0/16")]);
        // Self-delta is empty.
        assert!(Fib::delta(&old, &old).is_empty());
    }

    #[test]
    fn apply_delta_reproduces_target() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        // Round-trip through the wire format, like the live pipeline.
        let d = netprim::wire::FibDelta::decode(&d.encode()).unwrap();
        let applied = old.apply_delta(&d).unwrap();
        // Same forwarding content (set-pool indices may differ).
        assert_eq!(applied.content_hash(), new.content_hash());
        for (a, b) in applied.entries().zip(new.entries()) {
            assert_eq!(a.prefix, b.prefix);
            assert_eq!(applied.next_hops(a), new.next_hops(b));
            assert_eq!(a.local, b.local);
        }
    }

    #[test]
    fn apply_delta_rejects_stale_or_foreign_deltas() {
        let old = sample();
        let new = modified_sample();
        let d = Fib::delta(&old, &new);
        // Wrong base: applying to the target instead of the base.
        assert!(new.apply_delta(&d).is_err());
        // Wrong device.
        let other = Fib::empty(DeviceId(3));
        assert!(other.apply_delta(&d).is_err());
        // Tampered target hash.
        let mut bad = d.clone();
        bad.new_hash ^= 1;
        assert!(old.apply_delta(&bad).is_err());
    }

    #[test]
    fn apply_delta_readd_after_remove_is_order_insensitive() {
        // Regression: a delta that removes a prefix and re-adds it in
        // the same batch (device withdrew then re-advertised between
        // pulls, coalesced by the collector) must apply identically
        // however the wire ordered the arms — the re-added rule wins,
        // not whichever arm the apply loop happened to visit last.
        let old = sample();
        let readd = p("10.0.0.0/16");
        let mut b = FibBuilder::new(DeviceId(9));
        for e in old.entries() {
            if e.prefix == readd {
                continue;
            }
            b.push(e.prefix, old.next_hops(e).to_vec(), e.local);
        }
        b.push(readd, hops(&[[30, 0, 0, 8]]), false);
        let new = b.finish();
        let mut d = Fib::delta(&old, &new);
        // The merge walk classifies this as `modified`; rewrite it as
        // the remove + re-add shape the collector coalesces to.
        assert_eq!(
            d.modified.iter().map(|r| r.prefix).collect::<Vec<_>>(),
            vec![readd]
        );
        let rule = d.modified.pop().unwrap();
        d.removed.push(readd);
        d.added.push(rule);
        // Replay through the wire codec, as difftest would.
        let d = netprim::wire::FibDelta::decode(&d.encode()).unwrap();
        let applied = old.apply_delta(&d).unwrap();
        assert_eq!(applied.content_hash(), new.content_hash());
        assert_eq!(applied.len(), new.len());
        let e = applied.entry_for(readd).unwrap();
        assert_eq!(applied.next_hops(e), &[Ipv4::new(30, 0, 0, 8)]);
    }

    #[test]
    fn apply_delta_rejects_conflicting_duplicate_rules() {
        let old = sample();
        let new = modified_sample();
        let mut d = Fib::delta(&old, &new);
        // Duplicate the modified rule with different hops: no push
        // order may silently decide which one wins.
        let mut dup = d.modified[0].clone();
        dup.next_hops = hops(&[[30, 0, 0, 99]]);
        d.added.push(dup);
        let err = old.apply_delta(&d).unwrap_err();
        assert!(err.to_string().contains("conflicting delta rules"));

        // An agreeing duplicate (same set, different address order) is
        // harmless and still reproduces the target.
        let mut d = Fib::delta(&old, &new);
        let mut dup = d.modified[0].clone();
        dup.next_hops.reverse();
        d.added.push(dup);
        let applied = old.apply_delta(&d).unwrap();
        assert_eq!(applied.content_hash(), new.content_hash());
    }

    /// The work-order runs a simulation would record for per-index
    /// states (`None` = absent), and the [`FibBuilder`] pushing the
    /// same entries in work order.
    fn work_runs(
        states: &[Option<(Vec<Ipv4>, bool)>],
        prefixes: &[Prefix],
    ) -> (WorkRuns, FibBuilder) {
        let mut w = WorkRuns::default();
        let mut b = FibBuilder::new(DeviceId(7));
        for (k, (s, &pf)) in states.iter().zip(prefixes).enumerate() {
            let code = match s {
                None => ABSENT,
                Some((h, local)) => {
                    b.push(pf, h.clone(), *local);
                    w.intern(h.clone()) | if *local { LOCAL } else { 0 }
                }
            };
            w.set(k as u32, code);
        }
        (w, b)
    }

    #[test]
    fn absorb_replays_pushes_in_order() {
        // Work-order runs recorded in two chunks and absorbed in order
        // give the table of one serial recording and of builder pushes
        // in work order, interned pool layout included.
        let prefixes: Vec<Prefix> = (0..8u8)
            .map(|i| p(&format!("10.0.{i}.0/24")))
            .chain([p("0.0.0.0/0")])
            .collect();
        let states: Vec<Option<(Vec<Ipv4>, bool)>> = (0..9u8)
            .map(|i| match i {
                2 | 3 => None,
                5 => Some((vec![], true)),
                _ => Some((hops(&[[30, 0, 0, i % 3 + 1]]), false)),
            })
            .collect();
        let order = TableOrder::new(&prefixes);
        let (serial, built) = work_runs(&states, &prefixes);
        let (mut merged, _) = work_runs(&states[..4], &prefixes[..4]);
        let (tail, _) = work_runs(&states[4..], &prefixes[4..]);
        merged.absorb(&tail, 4);
        assert_eq!(merged.runs, serial.runs);
        let (a, b) = (merged.into_fib(DeviceId(7), &order), built.finish());
        assert_eq!(a, serial.into_fib(DeviceId(7), &order));
        assert_eq!(a, b);
        assert_eq!(a.content_hash(), b.content_hash());
        assert_eq!(
            a.prefixes().len(),
            9,
            "the shared table keeps absent prefixes"
        );
        assert_eq!(b.prefixes().len(), 7);
    }

    #[test]
    fn out_of_order_runs_and_absorbs_still_finish_sorted() {
        // A work list out of canonical order (and a builder pushed out
        // of order) still finishes sorted: work-order runs go through
        // the table's permutation, and both routes agree with each
        // other, pool layout included.
        let prefixes: Vec<Prefix> = [
            "10.0.2.0/24",
            "10.0.1.0/24",
            "0.0.0.0/0",
            "10.0.0.0/16",
            "10.0.3.0/24",
            "10.0.0.0/24",
        ]
        .iter()
        .map(|s| p(s))
        .collect();
        let a = hops(&[[30, 0, 0, 1]]);
        let states: Vec<Option<(Vec<Ipv4>, bool)>> = vec![
            Some((a.clone(), false)),
            Some((a.clone(), false)),
            Some((a.clone(), false)),
            Some((hops(&[[30, 0, 0, 5]]), false)),
            None,
            Some((vec![], true)),
        ];
        let order = TableOrder::new(&prefixes);
        assert!(order.segments.len() > 1);
        let (mut w, built) = work_runs(&states[..3], &prefixes[..3]);
        let (tail, _) = work_runs(&states[3..], &prefixes[3..]);
        w.absorb(&tail, 3);
        let (_, all) = work_runs(&states, &prefixes);
        let f = w.into_fib(DeviceId(7), &order);
        assert_eq!(f, all.finish());
        let lens: Vec<u8> = f.entries().map(|e| e.prefix.len()).collect();
        assert_eq!(lens, vec![24, 24, 24, 16, 0]);
        assert!(f
            .entries()
            .collect::<Vec<_>>()
            .windows(2)
            .all(|w| canonical_lt(w[0].prefix, w[1].prefix)));
        // The two /24s on set `a` are adjacent in the table: one run.
        assert_eq!(
            f.runs()[1],
            FibRun {
                start: 1,
                end: 3,
                set: 0,
                local: false
            }
        );
        assert_eq!(built.len(), 3);
    }

    #[test]
    fn patched_tables_match_rebuilt_ones() {
        // Patching entries of a run-stored table splits and merges runs
        // and renumbers the pool in first-use order: the result equals
        // the table built from scratch in canonical order.
        let prefixes: Vec<Prefix> = (0..6u8)
            .map(|i| p(&format!("10.0.{i}.0/24")))
            .chain([p("0.0.0.0/0")])
            .collect();
        let a = hops(&[[30, 0, 0, 1]]);
        let z = hops(&[[30, 0, 0, 9]]);
        let table = Arc::new(PrefixTable::shared(prefixes.clone()));
        let base = Fib::from_runs(
            DeviceId(1),
            table,
            vec![
                FibRun {
                    start: 0,
                    end: 3,
                    set: 0,
                    local: false,
                },
                FibRun {
                    start: 4,
                    end: 7,
                    set: 0,
                    local: false,
                },
            ],
            vec![a.clone()],
        );
        let built = |states: &[Option<(Vec<Ipv4>, bool)>]| {
            let mut b = FibBuilder::new(DeviceId(1));
            for (&pf, s) in prefixes.iter().zip(states) {
                if let Some((h, l)) = s {
                    b.push(pf, h.clone(), *l);
                }
            }
            b.finish()
        };
        let some = |h: &Vec<Ipv4>| Some((h.clone(), false));
        // Split a run with a novel set, fill the gap with the run's own
        // set (merging both neighbors), drop the default.
        let patched = base.patched(&[(1, some(&z)), (3, some(&a)), (6, None)]);
        let expect = built(&[
            some(&a),
            some(&z),
            some(&a),
            some(&a),
            some(&a),
            some(&a),
            None,
        ]);
        assert_eq!(patched, expect);
        assert_eq!(patched.runs().len(), 3);
        assert_eq!(patched.content_hash(), expect.content_hash());
        let mut touched = Vec::new();
        Fib::diff(&base, &patched, |pf, _, _| touched.push(pf));
        assert_eq!(touched, vec![prefixes[1], prefixes[3], prefixes[6]]);
        // A novel set used first takes pool id 0.
        let patched = base.patched(&[(0, Some((z.clone(), true)))]);
        assert_eq!(patched.entries().next().unwrap().set, 0);
        assert_eq!(patched.set_pool_len(), 2);
        let mut states = vec![some(&a); 7];
        states[0] = Some((z, true));
        states[3] = None;
        assert_eq!(patched, built(&states));
    }

    #[test]
    fn resident_bytes_count_a_shared_table_once() {
        let table = Arc::new(PrefixTable::shared(
            (0..100u8).map(|i| p(&format!("10.0.{i}.0/24"))).collect(),
        ));
        let fib = |d: u32| {
            Fib::from_runs(
                DeviceId(d),
                table.clone(),
                vec![FibRun {
                    start: 0,
                    end: 100,
                    set: 0,
                    local: false,
                }],
                vec![hops(&[[30, 0, 0, 1]])],
            )
        };
        let one = Fib::resident_bytes(&[fib(0)]);
        let two = Fib::resident_bytes(&[fib(0), fib(1)]);
        assert!(two - one < one / 2, "the table must be counted once");
        assert!(one > 100 * std::mem::size_of::<Prefix>());
    }

    #[test]
    fn delta_preserves_locality_with_hops() {
        // A locally originated rule that records next hops survives a
        // delta round trip (full snapshots cannot express this; deltas
        // carry locality explicitly).
        let mut b = FibBuilder::new(DeviceId(1));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 9]]), true);
        let old = b.finish();
        let mut b = FibBuilder::new(DeviceId(1));
        b.push(p("10.0.0.0/24"), hops(&[[30, 0, 0, 9]]), false);
        let new = b.finish();
        let d = Fib::delta(&old, &new);
        assert_eq!(d.modified.len(), 1);
        assert!(!d.modified[0].local);
        assert_eq!(old.apply_delta(&d).unwrap(), new);
    }
}
