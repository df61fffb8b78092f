//! Compact forwarding information bases.
//!
//! A device's FIB "is a table, where each entry associates a
//! destination prefix to a set of next hop addresses" (§2.2). FIBs in
//! a hyperscale DC hold thousands of prefixes and next-hop sets repeat
//! massively (every specific route on a ToR shares the same leaf set),
//! so entries store an index into a per-FIB pool of interned next-hop
//! sets — this is what keeps the 10⁴-router experiment within memory.

use dctopo::DeviceId;
use netprim::wire::{DeltaRule, FibDelta, WireEntry, WireSnapshot};
use netprim::{Ipv4, ParseError, Prefix};
use std::collections::HashMap;

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

/// A device's forwarding table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fib {
    device: DeviceId,
    entries: Vec<FibEntry>,
    sets: Vec<Vec<Ipv4>>,
}

/// Canonical entry order: descending prefix length, then ascending
/// address — the longest-prefix-match processing order.
pub(crate) fn canonical_lt(a: Prefix, b: Prefix) -> bool {
    a.len() > b.len() || (a.len() == b.len() && a.addr() < b.addr())
}

/// Incremental FIB construction with next-hop-set interning.
pub struct FibBuilder {
    device: DeviceId,
    entries: Vec<FibEntry>,
    sets: Vec<Vec<Ipv4>>,
    interner: HashMap<Vec<Ipv4>, u32>,
    /// The entries so far are strictly in canonical order. Kept up to
    /// date as entries arrive, so [`finish`](Self::finish) needs no
    /// scan of the finished table to skip its sort.
    canonical: bool,
}

impl FibBuilder {
    /// Start a FIB for a device.
    pub fn new(device: DeviceId) -> Self {
        FibBuilder {
            device,
            entries: Vec::new(),
            sets: Vec::new(),
            interner: HashMap::new(),
            canonical: true,
        }
    }

    /// Entries starting at prefix `next` are about to be appended: the
    /// table stays canonical only if `next` follows the last entry.
    fn note_append(&mut self, next: Prefix) {
        if let Some(last) = self.entries.last() {
            self.canonical &= canonical_lt(last.prefix, next);
        }
    }

    /// Intern a next-hop set (sorted and deduplicated for canonical
    /// comparison — a FIB entry's next hops are a *set*, and repeating
    /// an address must not change how any engine judges the entry).
    pub fn intern(&mut self, mut hops: Vec<Ipv4>) -> u32 {
        hops.sort_unstable();
        hops.dedup();
        if let Some(&id) = self.interner.get(&hops) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.sets.push(hops.clone());
        self.interner.insert(hops, id);
        id
    }

    /// Append an entry.
    pub fn push(&mut self, prefix: Prefix, hops: Vec<Ipv4>, local: bool) {
        let set = self.intern(hops);
        self.note_append(prefix);
        self.entries.push(FibEntry { prefix, set, local });
    }

    /// Append one entry per prefix, all sharing an already-interned hop
    /// set — the id a prior [`intern`](Self::intern) call on *this*
    /// builder returned. The simulator's emit loop run-length encodes each
    /// device's forwarding state over the prefix sequence and expands
    /// the runs here, so the 10⁴-builder sweep appends long streaming
    /// stretches instead of one scattered push per (prefix, device)
    /// pair. Equivalent to pushing each prefix individually in order.
    pub fn extend_run(&mut self, prefixes: &[Prefix], set: u32, local: bool) {
        debug_assert!((set as usize) < self.sets.len(), "unknown interned set id");
        let Some(&first) = prefixes.first() else {
            return;
        };
        // The run's prefixes come from the caller's shared, cache-hot
        // prefix list, so checking them here is cheaper than scanning
        // the finished table.
        self.note_append(first);
        self.canonical &= prefixes.windows(2).all(|w| canonical_lt(w[0], w[1]));
        self.entries
            .extend(prefixes.iter().map(|&prefix| FibEntry { prefix, set, local }));
    }

    /// Reserve room for `additional` more entries. The simulator knows
    /// each device's exact entry count before expanding its runs;
    /// reserving once avoids growth reallocations over 10⁴ builders.
    pub fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
    }

    /// Re-play another builder's pushes onto this one, preserving
    /// their push order. Parallel simulation workers each accumulate a
    /// per-device partial table over their own prefix range; absorbing
    /// the workers in range order reproduces the serial push sequence
    /// — and therefore the exact serial [`finish`](Self::finish)
    /// result, interned pool layout included.
    ///
    /// Each source set is interned once, at its first use in `other`'s
    /// entry order — the moment a serial push of that entry would have
    /// interned it — and the remapped entries are appended in bulk.
    pub fn absorb(&mut self, other: &FibBuilder) {
        if let Some(first) = other.entries.first() {
            self.note_append(first.prefix);
            self.canonical &= other.canonical;
        }
        let mut map = vec![u32::MAX; other.sets.len()];
        self.entries.reserve(other.entries.len());
        for e in &other.entries {
            let src = e.set as usize;
            if map[src] == u32::MAX {
                map[src] = self.intern(other.sets[src].clone());
            }
            self.entries.push(FibEntry {
                set: map[src],
                ..*e
            });
        }
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
    /// verification engines (Definition 2.1).
    ///
    /// Duplicate pushes of the same prefix are collapsed to a single
    /// entry and the *last* push wins, mirroring how a router's RIB
    /// overwrites a re-advertised route and how `apply_delta` treats a
    /// `modified` rule. (The wire decoder is stricter: `Fib::from_wire`
    /// rejects duplicate prefixes outright, because a pulled snapshot
    /// has no push order to break the tie with.) Collapsing here is
    /// what upholds the sorted-uniqueness invariant that `entry_for`'s
    /// binary search and `apply_delta`'s prefix-keyed maps rely on.
    pub fn finish(mut self) -> Fib {
        // The simulator pushes entries in hosted-prefix order (/24s by
        // ascending address, the default last) — already the canonical
        // order, with no duplicates. Strict sortedness implies prefix
        // uniqueness, so the O(n log n) sort and the dedup pass can
        // both be skipped.
        if self.canonical {
            return Fib {
                device: self.device,
                entries: self.entries,
                sets: self.sets,
            };
        }
        let mut indexed: Vec<(usize, FibEntry)> =
            self.entries.drain(..).enumerate().collect();
        // Sort duplicates latest-push-first, then keep the first of
        // each prefix run (dedup_by retains the earlier element).
        indexed.sort_unstable_by(|(ia, a), (ib, b)| {
            b.prefix
                .len()
                .cmp(&a.prefix.len())
                .then(a.prefix.addr().cmp(&b.prefix.addr()))
                .then(ib.cmp(ia))
        });
        indexed.dedup_by(|(_, a), (_, b)| a.prefix == b.prefix);
        Fib {
            device: self.device,
            entries: indexed.into_iter().map(|(_, e)| e).collect(),
            sets: self.sets,
        }
    }
}

impl Fib {
    /// An empty FIB (e.g. a device with the layer-2 port bug).
    pub fn empty(device: DeviceId) -> Fib {
        Fib {
            device,
            entries: Vec::new(),
            sets: Vec::new(),
        }
    }

    /// Assemble a table directly from pre-canonicalized parts: entries
    /// already in the sorted order [`FibBuilder::finish`] produces, set
    /// ids already deduplicated in first-use order. The restart patcher
    /// splices failure scenarios out of the healthy table this way,
    /// skipping the per-entry interner — the caller owns the proof that
    /// the layout matches what a builder replay would have produced.
    pub(crate) fn from_parts(device: DeviceId, entries: Vec<FibEntry>, sets: Vec<Vec<Ipv4>>) -> Fib {
        debug_assert!(entries
            .windows(2)
            .all(|w| canonical_lt(w[0].prefix, w[1].prefix)));
        debug_assert!(entries.iter().all(|e| (e.set as usize) < sets.len()));
        Fib {
            device,
            entries,
            sets,
        }
    }

    /// A pool set by id (the restart patcher remaps healthy ids into a
    /// scenario table's pool without re-hashing the vectors).
    pub(crate) fn set(&self, id: u32) -> &[Ipv4] {
        &self.sets[id as usize]
    }

    /// The owning device.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Entries, sorted by descending prefix length.
    pub fn entries(&self) -> &[FibEntry] {
        &self.entries
    }

    /// The next-hop addresses of an entry.
    pub fn next_hops(&self, e: &FibEntry) -> &[Ipv4] {
        &self.sets[e.set as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The default-route entry (`0.0.0.0/0`), if present.
    pub fn default_entry(&self) -> Option<&FibEntry> {
        // Sorted by descending length: the default, if any, is last.
        self.entries.last().filter(|e| e.prefix.is_default())
    }

    /// Longest-prefix-match lookup (reference semantics for tests and
    /// the global baseline checker; the production engines use tries).
    ///
    /// Entries are sorted by (descending length, address): within each
    /// length run a binary search finds the unique candidate prefix
    /// containing `ip`, so lookup is O(distinct lengths × log n)
    /// rather than O(n).
    pub fn lookup(&self, ip: Ipv4) -> Option<&FibEntry> {
        let mut i = 0;
        while i < self.entries.len() {
            let len = self.entries[i].prefix.len();
            // End of this length run.
            let run_end = i + self.entries[i..].partition_point(|e| e.prefix.len() == len);
            let run = &self.entries[i..run_end];
            let candidate = Prefix::containing(ip, len).expect("len <= 32");
            if let Ok(k) = run.binary_search_by(|e| e.prefix.addr().cmp(&candidate.addr())) {
                return Some(&run[k]);
            }
            i = run_end;
        }
        None
    }

    /// Find the entry for an exact prefix. Binary search over the
    /// sorted entry order — called once per contract by the strict
    /// engines, so it must not be linear (a 10⁴-router run issues
    /// ~10⁸ of these lookups).
    pub fn entry_for(&self, prefix: Prefix) -> Option<&FibEntry> {
        self.entries
            .binary_search_by(|e| {
                prefix
                    .len()
                    .cmp(&e.prefix.len())
                    .then(e.prefix.addr().cmp(&prefix.addr()))
            })
            .ok()
            .map(|i| &self.entries[i])
    }

    /// Serialize for the puller→validator transfer (§2.6.1).
    pub fn to_wire(&self) -> WireSnapshot {
        WireSnapshot {
            device: self.device.0,
            entries: self
                .entries
                .iter()
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
        let mut seen =
            std::collections::HashSet::with_capacity(w.entries.len());
        let mut b = FibBuilder::new(DeviceId(w.device));
        for e in &w.entries {
            if !seen.insert(e.prefix) {
                return Err(ParseError::new(
                    "fib snapshot",
                    "<decode>",
                    format!("duplicate prefix {} in snapshot", e.prefix),
                ));
            }
            let local = e.next_hops.is_empty();
            b.push(e.prefix, e.next_hops.clone(), local);
        }
        Ok(b.finish())
    }

    /// Total number of distinct next-hop sets (compactness statistic).
    pub fn set_pool_len(&self) -> usize {
        self.sets.len()
    }

    /// Stable content hash of the table.
    ///
    /// Covers the device id and every entry (prefix, locality, next
    /// hops) in the canonical sort order, so two `Fib`s built by any
    /// route — simulation, wire decode, delta application — hash equal
    /// iff they forward identically. This is the identity the
    /// incremental pipeline keys on: an unchanged snapshot costs one
    /// hash comparison instead of a validation pass.
    ///
    /// Each pool set is digested once from its addresses, and an entry
    /// mixes two words: its prefix and locality, and its set's digest.
    /// The digest depends on the set's content only, never on its pool
    /// id, so the pool's interning order does not reach the hash; and
    /// the cost is two words per entry instead of one per next hop.
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
        let mut h = mix(
            mix(BASIS, u64::from(self.device.0)),
            self.entries.len() as u64,
        );
        for e in &self.entries {
            let word = (u64::from(e.local) << 40)
                | (u64::from(e.prefix.addr().0) << 8)
                | u64::from(e.prefix.len());
            h = mix(mix(h, word), digests[e.set as usize]);
        }
        h
    }

    /// Compute the [`FibDelta`] turning `old` into `new`.
    ///
    /// A merge walk over the shared canonical entry order; rules whose
    /// next hops or locality changed land in `modified`, rules on one
    /// side only in `added`/`removed`. The delta is anchored to both
    /// tables' [`content_hash`](Self::content_hash)es.
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
        let rule = |fib: &Fib, e: &FibEntry| DeltaRule {
            prefix: e.prefix,
            next_hops: fib.next_hops(e).to_vec(),
            local: e.local,
        };
        let (mut i, mut j) = (0, 0);
        while i < old.entries.len() && j < new.entries.len() {
            let (a, b) = (&old.entries[i], &new.entries[j]);
            let ord = b
                .prefix
                .len()
                .cmp(&a.prefix.len())
                .then(a.prefix.addr().cmp(&b.prefix.addr()));
            match ord {
                std::cmp::Ordering::Equal => {
                    if a.local != b.local || old.next_hops(a) != new.next_hops(b) {
                        delta.modified.push(rule(new, b));
                    }
                    i += 1;
                    j += 1;
                }
                std::cmp::Ordering::Less => {
                    delta.removed.push(a.prefix);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    delta.added.push(rule(new, b));
                    j += 1;
                }
            }
        }
        delta.removed.extend(old.entries[i..].iter().map(|e| e.prefix));
        delta
            .added
            .extend(new.entries[j..].iter().map(|e| rule(new, e)));
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
        let removed: std::collections::HashSet<Prefix> = delta.removed.iter().copied().collect();
        let mut b = FibBuilder::new(self.device);
        for e in &self.entries {
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
        let lens: Vec<u8> = f.entries().iter().map(|e| e.prefix.len()).collect();
        assert_eq!(lens, vec![24, 24, 16, 0]);
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
        for (a, b) in f.entries().iter().zip(back.entries()) {
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
        for (a, b) in applied.entries().iter().zip(new.entries()) {
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

    #[test]
    fn absorb_replays_pushes_in_order() {
        // Serial pushes vs two absorbed partial builders: identical
        // tables, interned pool layout included.
        let build = |b: &mut FibBuilder, range: std::ops::Range<u8>| {
            for i in range {
                b.push(
                    p(&format!("10.0.{i}.0/24")),
                    hops(&[[30, 0, 0, i % 3 + 1]]),
                    false,
                );
            }
        };
        let mut serial = FibBuilder::new(DeviceId(7));
        build(&mut serial, 0..8);
        let mut w0 = FibBuilder::new(DeviceId(7));
        build(&mut w0, 0..5);
        let mut w1 = FibBuilder::new(DeviceId(7));
        build(&mut w1, 5..8);
        assert_eq!(w0.len(), 5);
        assert!(!w1.is_empty());
        let mut merged = FibBuilder::new(DeviceId(7));
        merged.absorb(&w0);
        merged.absorb(&w1);
        assert_eq!(merged.finish(), serial.finish());
    }

    #[test]
    fn out_of_order_runs_and_absorbs_still_finish_sorted() {
        // `finish` skips its sort only while every append kept the
        // table canonical; a run or an absorbed builder that breaks the
        // order must send it down the sorting path.
        let sorted = |f: &Fib| {
            f.entries()
                .windows(2)
                .all(|w| canonical_lt(w[0].prefix, w[1].prefix))
        };
        let mut b = FibBuilder::new(DeviceId(3));
        let set = b.intern(hops(&[[30, 0, 0, 1]]));
        b.extend_run(&[p("10.0.2.0/24"), p("10.0.1.0/24")], set, false);
        let f = b.finish();
        assert!(sorted(&f));
        assert_eq!(f.len(), 2);

        let mut w = FibBuilder::new(DeviceId(3));
        w.push(p("10.0.0.0/24"), vec![], true);
        let mut b = FibBuilder::new(DeviceId(3));
        b.push(p("10.0.5.0/24"), vec![], true);
        b.absorb(&w);
        let f = b.finish();
        assert!(sorted(&f));
        assert_eq!(f.entries()[0].prefix, p("10.0.0.0/24"));
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
