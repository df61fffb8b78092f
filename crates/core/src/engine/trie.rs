//! The specialized trie-based verification algorithm (§2.5.2),
//! rebuilt for raw speed: one merge walk over the FIB and the contract
//! table judges contracts stretch against rule run.
//!
//! **The FIB side.** FIB entries sorted by `(address, length)` are
//! exactly a DFS preorder of the rule containment forest: two prefixes
//! are either nested or disjoint, so every rule's descendants follow
//! it contiguously. The FIB stores runs over a prefix table sorted by
//! (descending length, ascending address), so each length's rules are
//! already ascending in that order, and preorder is their k-way merge
//! (two lengths in a fabric table: the /24s and the default).
//! [`FibWalk`] merges them lazily: one forward-only cursor per length,
//! each parked at the first rule not preceding the current contract.
//! No node arena is built, and no entry is materialized: a length's
//! rules are the FIB's runs clipped to the table's stretch of that
//! length.
//! A contract's candidates `{r | C ⊆ r ∨ r ⊆ C}` fall out of the
//! cursors: per longer-or-equal run, the rules from the cursor up to
//! the contract's end (its descendants); per shorter run, the rule just
//! before the cursor if it contains the contract (its unique ancestor
//! of that length). The root rule (`0.0.0.0/0`) is the shorter run's
//! last consumed rule for every contract after it, so default-route
//! semantics hold by construction.
//!
//! **The contract side.** The contract store's shared prefix table
//! keeps its specifics in the same preorder, precomputed once per
//! fabric, and cuts them into [`Stretch`]es: contracts adjacent in that
//! order that share one expectation run and hold no excluded slot. A
//! stretch whose contracts each hit an exact rule with no nested rule
//! — consecutive rules of one FIB run, so not local and all on one
//! interned next-hop set — is judged by one hop-set comparison (the
//! intent-based slicing idea: contracts sharing structure share the
//! work). At the 10⁴-router shape that is ~10⁵ comparisons for ~10⁸
//! contracts; set id and locality are checked once per run, and the
//! per-contract cost is one DFS-key compare in a tight loop. Every
//! other contract — a missing exact rule, nested or shadowing rules, a local rule, a `Local` expectation, a duplicate
//! prefix — goes through [`judge_one`](TrieEngine::judge_one) with its
//! candidates from the same walk. Judging order (descending prefix
//! length per contract) and the cross-contract `MissingRoute` dedup are
//! the per-contract walk's, so verdicts are rule-for-rule identical —
//! the `flat_trie_equivalence` suite and the difftest
//! `engines`/`incremental` oracles gate this against
//! [`ReferenceTrieEngine`](crate::engine::trie_reference) and the SMT
//! engine.
//!
//! **Bitset next-hop matching.** Next-hop set comparisons go through a
//! per-device [`HopSet`] codex: each distinct address gets a bit, FIB
//! pool sets and contract expectations are encoded once, and the
//! per-candidate comparison is a 64-byte mask equality instead of an
//! address-vector compare. Encodings that exceed the bitset capacity
//! (or non-canonical expectation vectors) fall back to the exact
//! vector compare, so verdicts never change.
//!
//! This is why the engine is orders of magnitude faster than the SMT
//! path (benchmarks E1, E17).

use crate::contracts::{dfs_key, ContractKind, ContractRef, DeviceContracts, Expectation, Stretch};
use crate::engine::Engine;
use crate::report::{ValidationReport, Violation, ViolationReason};
use bgpsim::{Fib, FibEntry, FibRun};
use netprim::wire::FibDelta;
use netprim::{HopSet, IpRange, Ipv4, Prefix};
use std::collections::HashMap;

/// One prefix length's rules of a FIB: `spans[first..end]` of
/// [`FibWalk::spans`], with the walk cursor.
struct LenRun {
    len: u8,
    first: usize,
    end: usize,
    /// Span and table index of the first rule not preceding the
    /// current contract in DFS preorder; exhausted when `span == end`.
    span: usize,
    cur: u32,
}

/// A FIB's rules in DFS preorder, merged lazily from its per-length
/// rules as the contracts advance (see the module doc). Contracts must
/// be fed in DFS preorder; every cursor only moves forward.
struct FibWalk<'f> {
    table: &'f [Prefix],
    /// The FIB's runs clipped to the table's per-length stretches,
    /// longest length first.
    spans: Vec<FibRun>,
    lens: Vec<LenRun>,
}

impl<'f> FibWalk<'f> {
    fn new(fib: &'f Fib) -> FibWalk<'f> {
        let table = fib.prefixes();
        let runs = fib.runs();
        let mut spans = Vec::with_capacity(runs.len() + 1);
        let mut lens = Vec::new();
        let (mut start, mut r) = (0usize, 0usize);
        while start < table.len() && r < runs.len() {
            let len = table[start].len();
            let end = start + table[start..].partition_point(|p| p.len() == len);
            let first = spans.len();
            let (lo, hi) = (start as u32, end as u32);
            while r < runs.len() && runs[r].start < hi {
                let clipped = FibRun {
                    start: runs[r].start.max(lo),
                    end: runs[r].end.min(hi),
                    ..runs[r]
                };
                if clipped.start < clipped.end {
                    spans.push(clipped);
                }
                if runs[r].end > hi {
                    break;
                }
                r += 1;
            }
            if spans.len() > first {
                lens.push(LenRun {
                    len,
                    first,
                    end: spans.len(),
                    span: first,
                    cur: spans[first].start,
                });
            }
            start = end;
        }
        FibWalk { table, spans, lens }
    }

    /// The rule at table index `t` of span `span`.
    fn rule(&self, span: usize, t: u32) -> FibEntry {
        let s = &self.spans[span];
        FibEntry {
            prefix: self.table[t as usize],
            set: s.set,
            local: s.local,
        }
    }

    /// The last rule of a length preceding its cursor, if any.
    fn before_cursor(&self, l: &LenRun) -> Option<FibEntry> {
        if l.span < l.end && l.cur > self.spans[l.span].start {
            Some(self.rule(l.span, l.cur - 1))
        } else if l.span > l.first {
            Some(self.rule(l.span - 1, self.spans[l.span - 1].end - 1))
        } else {
            None
        }
    }

    /// Consume every rule preceding the contract with DFS key `key`.
    /// A consumed rule that does not contain the contract is disjoint
    /// from it and from every later contract.
    fn advance(&mut self, key: u64) {
        for l in &mut self.lens {
            while l.span < l.end {
                let s = &self.spans[l.span];
                let rest = &self.table[l.cur as usize..s.end as usize];
                let skip = if dfs_key(rest[0]) >= key {
                    0
                } else {
                    rest.partition_point(|&p| dfs_key(p) < key)
                };
                if skip < rest.len() {
                    l.cur += skip as u32;
                    break;
                }
                l.span += 1;
                if l.span < l.end {
                    l.cur = self.spans[l.span].start;
                }
            }
        }
    }

    /// After [`advance`](Self::advance) to `dfs[0]`: how many leading
    /// contracts of `dfs` (all of one stretch) each hit an exact rule
    /// with no rule nested inside it, on consecutive rules of one
    /// non-local run. Returns the first rule and the count, and leaves
    /// the length's cursor on the last rule hit (a duplicate contract
    /// may still need it).
    fn exact_stretch(&mut self, dfs: &[(u64, u32)]) -> Option<(FibEntry, usize)> {
        let key = dfs[0].0;
        let len = (key & 63) as u8;
        let r = self.lens.iter().position(|l| l.len == len)?;
        let l = &self.lens[r];
        if l.span == l.end || self.spans[l.span].local {
            return None;
        }
        let (first, end) = (l.cur, self.spans[l.span].end);
        // A longer rule nests in a contract only if it starts before
        // the contract ends; each longer length's next rule bounds the
        // stretch (lengths are kept longest first).
        let bound = self.lens[..r]
            .iter()
            .filter(|l| l.span < l.end)
            .map(|l| u64::from(self.table[l.cur as usize].addr().0))
            .min()
            .unwrap_or(u64::MAX);
        let size = 1u64 << (32 - len);
        let n = dfs
            .iter()
            .zip(&self.table[first as usize..end as usize])
            .take_while(|&(&(k, _), &p)| k == dfs_key(p) && (k >> 6) + size <= bound)
            .count();
        if n == 0 {
            return None;
        }
        let head = self.rule(self.lens[r].span, first);
        self.lens[r].cur = first + n as u32 - 1;
        Some((head, n))
    }

    /// Candidate rules of contract `c` after [`advance`](Self::advance)
    /// to it: `desc` gets the rules it contains, `anc` the rules
    /// strictly containing it, leaf to root.
    fn candidates(&self, c: Prefix, desc: &mut Vec<FibEntry>, anc: &mut Vec<FibEntry>) {
        let c_end = u64::from(c.addr().0) + (1u64 << (32 - c.len()));
        for l in &self.lens {
            if l.len >= c.len() {
                let (mut span, mut t) = (l.span, l.cur);
                'rules: while span < l.end {
                    while t < self.spans[span].end {
                        if u64::from(self.table[t as usize].addr().0) >= c_end {
                            break 'rules;
                        }
                        desc.push(self.rule(span, t));
                        t += 1;
                    }
                    span += 1;
                    if span < l.end {
                        t = self.spans[span].start;
                    }
                }
            } else if let Some(e) = self
                .before_cursor(l)
                .filter(|e| e.prefix.contains_prefix(c))
            {
                anc.push(e);
            }
        }
    }
}

/// Per-device next-hop encoding: addresses → bits, so candidate
/// matching is a [`HopSet`] equality. FIB pool sets are encoded at
/// most once (memoized by pool id), contract expectations at most once
/// per shared `Arc` (memoized by pointer — the 10⁴-device workload
/// shares one expectation across ~10⁴ contracts per ToR).
struct HopCodex {
    enabled: bool,
    universe: HashMap<Ipv4, u16, BuildFold>,
    pool: Vec<Option<HopSet>>,
    expect: HashMap<usize, Option<HopSet>, BuildFold>,
    /// The previous `set_of_expected` resolution. Contracts sharing
    /// one expectation arrive consecutively (a ToR's remote-prefix
    /// contracts all point at the same leaf set), so the common probe
    /// is a pointer compare instead of a map lookup.
    last_expect: Option<(usize, Option<HopSet>)>,
    /// The previous `hops_match` verdict, keyed by (interned set id,
    /// expectation pointer). Both identify their hop set exactly — the
    /// pool interns per FIB, the expectation buffer is stable for the
    /// codex's lifetime — so a repeat is the same comparison. Long
    /// stretches of contracts hit one (ECMP set, expectation) pair, and
    /// the repeat costs a 12-byte compare instead of two 64-byte set
    /// loads.
    last_verdict: Option<(u32, usize, bool)>,
}

/// Multiply-fold hasher (the rustc `FxHash` recipe) for the codex's
/// small integer keys — pool pointers and `Ipv4` addresses. These maps
/// sit on the judging hot path, where SipHash would be the single
/// largest cost; keys here are attacker-free, so the
/// collision-resistance trade is safe.
#[derive(Default)]
struct FoldHasher(u64);

impl std::hash::Hasher for FoldHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

impl FoldHasher {
    #[inline]
    fn add(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
}

type BuildFold = std::hash::BuildHasherDefault<FoldHasher>;

impl HopCodex {
    fn new(fib: &Fib) -> HopCodex {
        HopCodex {
            enabled: true,
            universe: HashMap::default(),
            pool: vec![None; fib.set_pool_len()],
            expect: HashMap::default(),
            last_expect: None,
            last_verdict: None,
        }
    }

    fn bit_of(&mut self, a: Ipv4) -> Option<u16> {
        if let Some(&b) = self.universe.get(&a) {
            return Some(b);
        }
        let next = self.universe.len();
        if next >= HopSet::CAPACITY {
            return None;
        }
        self.universe.insert(a, next as u16);
        Some(next as u16)
    }

    fn encode(&mut self, addrs: &[Ipv4]) -> Option<HopSet> {
        let mut s = HopSet::new();
        for &a in addrs {
            s.insert(self.bit_of(a)?);
        }
        Some(s)
    }

    fn set_of_entry(&mut self, fib: &Fib, e: FibEntry) -> Option<HopSet> {
        if let Some(s) = self.pool[e.set as usize] {
            return Some(s);
        }
        let s = self.encode(fib.next_hops(e));
        if let Some(s) = s {
            self.pool[e.set as usize] = Some(s);
        }
        s
    }

    fn set_of_expected(&mut self, expected: &[Ipv4]) -> Option<HopSet> {
        let key = expected.as_ptr() as usize;
        if let Some((k, s)) = self.last_expect {
            if k == key {
                return s;
            }
        }
        if let Some(&s) = self.expect.get(&key) {
            self.last_expect = Some((key, s));
            return s;
        }
        // Bitset equality is set equality; it matches the exact vector
        // compare it replaces only because FIB hop vectors are
        // canonical (sorted, duplicate-free). A non-canonical
        // expectation can never equal a canonical vector, so it gets
        // no encoding and falls back to the (always-false) compare.
        let canonical = expected.windows(2).all(|w| w[0] < w[1]);
        let s = if canonical { self.encode(expected) } else { None };
        self.expect.insert(key, s);
        self.last_expect = Some((key, s));
        s
    }

    /// Does the entry forward to exactly the expected hop set?
    /// Verdict-identical to `fib.next_hops(e) == expected`.
    fn hops_match(&mut self, fib: &Fib, e: FibEntry, expected: &[Ipv4]) -> bool {
        if self.enabled {
            let key = expected.as_ptr() as usize;
            if let Some((s, p, v)) = self.last_verdict {
                if s == e.set && p == key {
                    return v;
                }
            }
            match (self.set_of_entry(fib, e), self.set_of_expected(expected)) {
                (Some(a), Some(b)) => {
                    let v = a == b;
                    self.last_verdict = Some((e.set, key, v));
                    return v;
                }
                (None, _) => self.enabled = false,
                _ => {}
            }
        }
        fib.next_hops(e) == expected
    }
}

/// Disjoint-range coverage accumulator over a contract's range.
pub(crate) struct Coverage {
    target: IpRange,
    covered: Vec<IpRange>, // sorted, disjoint
    covered_size: u64,
}

impl Coverage {
    pub(crate) fn new(target: IpRange) -> Coverage {
        Coverage {
            target,
            covered: Vec::new(),
            covered_size: 0,
        }
    }

    /// Add a range; returns the number of target addresses it newly
    /// covers (zero when longer rules already serve its whole span).
    pub(crate) fn add(&mut self, r: IpRange) -> u64 {
        let mut added = 0;
        if let Some(clipped) = r.intersect(self.target) {
            // Merge into the sorted disjoint list.
            let mut new_parts = vec![clipped];
            for &c in &self.covered {
                let mut next = Vec::new();
                for part in new_parts {
                    next.extend(part.subtract(c));
                }
                new_parts = next;
                if new_parts.is_empty() {
                    break;
                }
            }
            for p in new_parts {
                added += p.size();
                self.covered.push(p);
            }
            self.covered_size += added;
            self.covered.sort();
        }
        added
    }

    pub(crate) fn complete(&self) -> bool {
        self.covered_size >= self.target.size()
    }
}

/// The trie-based engine (§2.5.2), judging by one merge walk per device.
///
/// In **strict** mode (the production default) a specific contract also
/// requires an exact specific route to exist: §2.6.2's migration case
/// shows RCDC flagging ToRs whose specifics were absent even though
/// defaults delivered traffic correctly ("the lack of specific routes
/// could potentially cause the traffic to use a longer path in the
/// presence of some link failures"). **Semantic** mode checks only the
/// forwarding formula of Definition 2.1.
#[derive(Debug, Clone, Copy)]
pub struct TrieEngine {
    strict: bool,
}

impl Default for TrieEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl TrieEngine {
    /// Production engine: strict mode.
    pub fn new() -> TrieEngine {
        TrieEngine { strict: true }
    }

    /// Formula-equivalence-only engine (Definition 2.1 semantics).
    pub fn semantic() -> TrieEngine {
        TrieEngine { strict: false }
    }

    fn check_default(fib: &Fib, c: ContractRef<'_>, out: &mut Vec<Violation>) {
        let entry = fib.default_entry();
        match (c.expectation, entry) {
            (Expectation::NextHops(expected), Some(e)) => {
                if e.local {
                    out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    return;
                }
                let actual = fib.next_hops(e);
                if actual != &expected[..] {
                    out.push(Violation::of(
                        c,
                        ViolationReason::DefaultMismatch {
                            expected: expected.to_vec(),
                            actual: actual.to_vec(),
                        },
                    ));
                }
            }
            (Expectation::NextHops(_), None) => {
                out.push(Violation::of(c, ViolationReason::MissingDefault));
            }
            (Expectation::Local, Some(e)) => {
                if !e.local {
                    out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                }
            }
            (Expectation::Local, None) => {
                out.push(Violation::of(c, ViolationReason::MissingDefault));
            }
        }
    }

    /// Judge every contract of `stretches` (in DFS preorder, as the
    /// contract store cuts them) in one merge walk over the FIB.
    ///
    /// Emitted violations are tagged with the contract's sort key so
    /// the caller can restore contract order. Same-prefix contracts
    /// arrive in list order — which, with the walk-local
    /// `prior_missing` flag, reproduces the reference engine's
    /// cross-contract `MissingRoute` dedup exactly. A stretch judged by
    /// one hop-set comparison never emits `MissingRoute`, so it leaves
    /// the flag clear.
    fn judge_stretches<'c>(
        &self,
        fib: &Fib,
        stretches: impl Iterator<Item = Stretch<'c>>,
        tagged: &mut Vec<(u32, Violation)>,
    ) {
        let mut walk = FibWalk::new(fib);
        let mut codex = HopCodex::new(fib);
        // Scratch reused across contracts.
        let mut desc: Vec<FibEntry> = Vec::new();
        let mut anc: Vec<FibEntry> = Vec::new();
        let mut cviol: Vec<Violation> = Vec::new();
        let mut prior_prefix: Option<Prefix> = None;
        let mut prior_missing = false;

        for st in stretches {
            let mut i = 0;
            while i < st.len() {
                walk.advance(st.dfs[i].0);
                if let Expectation::NextHops(expected) = st.expectation {
                    if let Some((e, n)) = walk.exact_stretch(&st.dfs[i..]) {
                        if !codex.hops_match(fib, e, expected) {
                            for (tag, c) in (i..i + n).map(|k| st.contract(k)) {
                                let v = ViolationReason::NextHopMismatch {
                                    rule: c.prefix,
                                    expected: expected.to_vec(),
                                    actual: fib.next_hops(e).to_vec(),
                                };
                                tagged.push((tag, Violation::of(c, v)));
                            }
                        }
                        prior_prefix = Some(st.contract(i + n - 1).1.prefix);
                        prior_missing = false;
                        i += n;
                        continue;
                    }
                }
                let (tag, c) = st.contract(i);
                if prior_prefix != Some(c.prefix) {
                    prior_prefix = Some(c.prefix);
                    prior_missing = false;
                }
                desc.clear();
                anc.clear();
                walk.candidates(c.prefix, &mut desc, &mut anc);
                cviol.clear();
                self.judge_one(fib, &mut desc, &anc, c, &mut codex, prior_missing, &mut cviol);
                prior_missing |= cviol
                    .iter()
                    .any(|v| v.reason == ViolationReason::MissingRoute);
                tagged.extend(cviol.drain(..).map(|v| (tag, v)));
                i += 1;
            }
        }
    }

    /// Judge specific contracts without the merge walk: candidates
    /// come from binary searches over the `(descending length,
    /// ascending address)` prefix table and the FIB's runs — one
    /// address-range probe per length at or below the contract's length
    /// for descendants, one address probe per shorter length for the
    /// unique possible ancestor. The candidate set `{r | C ⊆ r ∨ r ⊆ C}` and its
    /// judging order are exactly the walk's, so verdicts stay
    /// byte-identical; only the lookup strategy differs. Worth it when
    /// a delta re-checks a handful of contracts in a large table:
    /// O(specs · runs · log n) against the walk's O(n) cursor sweep.
    ///
    /// `specs` comes in the walk's DFS preorder — the cross-contract
    /// `MissingRoute` dedup must see the same neighbors.
    fn judge_specifics_direct(
        &self,
        fib: &Fib,
        specs: &[(u32, ContractRef<'_>)],
        tagged: &mut Vec<(u32, Violation)>,
    ) {
        let walk = FibWalk::new(fib);
        let mut codex = HopCodex::new(fib);
        let mut desc: Vec<FibEntry> = Vec::new();
        let mut anc: Vec<FibEntry> = Vec::new();
        let mut cviol: Vec<Violation> = Vec::new();
        let mut prior_prefix: Option<Prefix> = None;
        let mut prior_missing = false;
        for &(idx, c) in specs {
            if prior_prefix != Some(c.prefix) {
                prior_prefix = Some(c.prefix);
                prior_missing = false;
            }
            desc.clear();
            anc.clear();
            let c_addr = c.prefix.addr();
            let c_end = u64::from(c_addr.0) + (1u64 << (32 - c.prefix.len()));
            for l in &walk.lens {
                let spans = &walk.spans[l.first..l.end];
                let (lo, hi) = (spans[0].start as usize, spans[spans.len() - 1].end as usize);
                let rules = &walk.table[lo..hi];
                // The present rules among table indices `a..b`.
                let present = |a: usize, b: usize, out: &mut Vec<FibEntry>| {
                    let (a, b) = ((lo + a) as u32, (lo + b) as u32);
                    let from = spans.partition_point(|s| s.end <= a);
                    for (k, s) in spans.iter().enumerate().skip(from) {
                        if s.start >= b {
                            break;
                        }
                        for t in s.start.max(a)..s.end.min(b) {
                            out.push(walk.rule(l.first + k, t));
                        }
                    }
                };
                if l.len >= c.prefix.len() {
                    // Descendants: aligned blocks no larger than the
                    // contract's lie entirely inside it or entirely
                    // outside, so containment is an address-range test.
                    let a = rules.partition_point(|p| p.addr() < c_addr);
                    let b = a + rules[a..].partition_point(|p| u64::from(p.addr().0) < c_end);
                    present(a, b, &mut desc);
                } else {
                    // Ancestors: within one length blocks are disjoint,
                    // so the only rule that can contain the contract is
                    // the last one at or below its address. Lengths
                    // come longest first, matching the walk's leaf→root
                    // ancestor order.
                    let q = rules.partition_point(|p| p.addr() <= c_addr);
                    if q > 0 && rules[q - 1].contains_prefix(c.prefix) {
                        present(q - 1, q, &mut anc);
                    }
                }
            }
            cviol.clear();
            self.judge_one(fib, &mut desc, &anc, c, &mut codex, prior_missing, &mut cviol);
            prior_missing |= cviol
                .iter()
                .any(|v| v.reason == ViolationReason::MissingRoute);
            tagged.extend(cviol.drain(..).map(|v| (idx, v)));
        }
    }

    /// Judge one specific contract given its candidate entry sets:
    /// `descendants` (rules the contract contains, re-sorted here) and
    /// `ancestors` (rules strictly containing it, descending prefix
    /// length). Verdicts and violation order are identical to the
    /// reference engine's descending-prefix-length candidate walk,
    /// whichever lookup produced the candidates (merge walk or direct
    /// binary search).
    #[allow(clippy::too_many_arguments)]
    fn judge_one(
        &self,
        fib: &Fib,
        descendants: &mut [FibEntry],
        ancestors: &[FibEntry],
        c: ContractRef<'_>,
        codex: &mut HopCodex,
        prior_missing: bool,
        out: &mut Vec<Violation>,
    ) {
        let expected = match c.expectation {
            Expectation::NextHops(h) => h,
            Expectation::Local => {
                // Not generated today, but handle defensively: the
                // covering rule must be local.
                if let Some(e) = fib.entry_for(c.prefix) {
                    if !e.local {
                        out.push(Violation::of(c, ViolationReason::LocalityMismatch));
                    }
                } else {
                    out.push(Violation::of(c, ViolationReason::MissingRoute));
                }
                return;
            }
        };
        let mismatch = |e: FibEntry, codex: &mut HopCodex| {
            let matches = !e.local && codex.hops_match(fib, e, expected);
            (!matches).then(|| {
                Violation::of(
                    c,
                    ViolationReason::NextHopMismatch {
                        rule: e.prefix,
                        expected: expected.to_vec(),
                        actual: fib.next_hops(e).to_vec(),
                    },
                )
            })
        };
        // Fast path (the common workload): the only candidate that can
        // serve the range is an exact-match rule with no extensions —
        // one mask compare, no coverage accumulator, no allocation.
        if descendants.len() == 1 && descendants[0].prefix == c.prefix {
            if let Some(v) = mismatch(descendants[0], codex) {
                out.push(v);
            }
            return;
        }
        // Candidates in descending prefix length: descendants
        // re-sorted, then the ancestors (strictly shorter than the
        // contract). Same-length ties break on descending address —
        // the emission order of the reference engine's trie walk — so
        // reports stay byte-identical across the rewrite.
        descendants.sort_unstable_by_key(|e| {
            (
                std::cmp::Reverse(e.prefix.len()),
                std::cmp::Reverse(e.prefix.addr()),
            )
        });
        // Minimal length, minimal address sorts last: an exact-match
        // rule can only be the final descendant.
        let exact = descendants.last().is_some_and(|e| e.prefix == c.prefix);
        if self.strict && !exact {
            // Production strictness: the exact specific route must be
            // programmed, whatever broader rules would do (§2.6.2
            // Migrations).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
        let mut coverage = Coverage::new(c.prefix.range());
        for &e in descendants.iter().chain(ancestors.iter()) {
            // A rule only matters for the part of the contract range it
            // actually serves: extensions serve their own range; an
            // ancestor rule serves whatever is left uncovered. A rule
            // whose span is entirely shadowed by longer rules serves
            // nothing — longest-prefix match never selects it inside
            // the contract range, so its next hops are irrelevant to
            // Definition 2.1 and flagging it would disagree with the
            // SMT engine's formula (caught by the differential fuzzer).
            let newly_served = coverage.add(e.prefix.range());
            if newly_served > 0 {
                if let Some(v) = mismatch(e, codex) {
                    out.push(v);
                }
            }
            if coverage.complete() {
                return;
            }
        }
        if !coverage.complete()
            && !prior_missing
            && !out.iter().any(|v| v.reason == ViolationReason::MissingRoute)
        {
            // Part of the range is served by no rule at all: traffic is
            // dropped there (no default route either, or the default
            // would have covered everything).
            out.push(Violation::of(c, ViolationReason::MissingRoute));
        }
    }

    fn finish(
        mut tagged: Vec<(u32, Violation)>,
        contracts: &DeviceContracts,
    ) -> ValidationReport {
        tagged.sort_by_key(|(i, _)| *i); // stable: per-contract order kept
        ValidationReport {
            violations: tagged.into_iter().map(|(_, v)| v).collect(),
            contracts_checked: contracts.len(),
            solver_stats: smtkit::SessionStats::default(),
        }
    }
}

impl Engine for TrieEngine {
    fn validate_device(&self, fib: &Fib, contracts: &DeviceContracts) -> ValidationReport {
        let mut tagged: Vec<(u32, Violation)> = Vec::new();
        let mut buf: Vec<Violation> = Vec::new();
        for (key, c) in contracts.defaults() {
            Self::check_default(fib, c, &mut buf);
            tagged.extend(buf.drain(..).map(|v| (key, v)));
        }
        self.judge_stretches(fib, contracts.stretches(), &mut tagged);
        Self::finish(tagged, contracts)
    }

    /// The incremental path (§2.6.1's continuous monitoring workload):
    /// re-check only the contracts whose prefix space the delta touched
    /// — found by the contract store's table lookup, not a scan — and
    /// carry every other contract's verdict over from `prior`. Verdicts
    /// are emitted in contract order either way, so the result is
    /// identical — violation for violation — to a full pass. (The
    /// affected specifics go through the same merge walk as a full
    /// pass; same-prefix contracts are affected together, so the
    /// walk-local `MissingRoute` dedup sees the same neighbors.)
    fn validate_delta(
        &self,
        fib: &Fib,
        contracts: &DeviceContracts,
        delta: &FibDelta,
        prior: &ValidationReport,
    ) -> ValidationReport {
        // A churn that rewrote a large share of the table re-checks
        // most contracts anyway; skip the bookkeeping and go full. The
        // same fallback covers a prior report from a different contract
        // set (republished contracts change the count).
        if delta.rule_count() * 4 > fib.len().max(1)
            || prior.contracts_checked != contracts.len()
        {
            return self.validate_device(fib, contracts);
        }
        let touched: Vec<Prefix> = delta.touched_prefixes().collect();
        let mut tagged: Vec<(u32, Violation)> = Vec::new();
        let mut buf: Vec<Violation> = Vec::new();
        let mut affected: Vec<u32> = Vec::new();
        if touched.iter().any(|p| p.is_default()) {
            for (key, c) in contracts.defaults() {
                affected.push(key);
                Self::check_default(fib, c, &mut buf);
                tagged.extend(buf.drain(..).map(|v| (key, v)));
            }
        }
        let stretches: Vec<Stretch<'_>> = contracts.affected_stretches(&touched).collect();
        affected.extend(
            stretches
                .iter()
                .flat_map(|st| st.contracts().map(|(key, _)| key)),
        );
        if !prior.violations.is_empty() {
            // Prior verdicts by contract identity, in prior (= contract)
            // order within each group, carried to every unaffected
            // contract of that identity. A report does not say which of
            // two same-identity contracts a violation belongs to, so
            // when a carried identity names more than one contract the
            // carry is ambiguous: judge everything instead.
            let mut carry: HashMap<(Prefix, ContractKind), (Vec<&Violation>, bool)> =
                HashMap::new();
            for v in &prior.violations {
                carry.entry((v.prefix, v.kind)).or_default().0.push(v);
            }
            affected.sort_unstable();
            for (key, c) in contracts.keyed() {
                if affected.binary_search(&key).is_err() {
                    if let Some((prev, used)) = carry.get_mut(&(c.prefix, c.kind)) {
                        if std::mem::replace(used, true) {
                            return self.validate_device(fib, contracts);
                        }
                        tagged.extend(prev.iter().map(|&v| (key, v.clone())));
                    }
                }
            }
        }
        let n_specs: usize = stretches.iter().map(Stretch::len).sum();
        // The walk costs O(table); a handful of re-checked contracts is
        // cheaper to serve by binary search straight off the sorted
        // table and runs (the what-if sweep's per-scenario shape: one or two
        // touched prefixes per changed device). Both produce identical
        // verdicts.
        if n_specs * 16 <= fib.len() {
            let specs: Vec<(u32, ContractRef<'_>)> =
                stretches.into_iter().flat_map(Stretch::contracts).collect();
            self.judge_specifics_direct(fib, &specs, &mut tagged);
        } else {
            self.judge_stretches(fib, stretches.into_iter(), &mut tagged);
        }
        Self::finish(tagged, contracts)
    }

    fn name(&self) -> &'static str {
        "trie"
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::contracts::Contract;
    use crate::engine::testutil::{fig3_faulted, fig3_healthy};
    use crate::report::ViolationReason as VR;

    #[test]
    fn healthy_figure3_is_clean_everywhere() {
        let (_f, fibs, contracts, _meta) = fig3_healthy();
        let eng = TrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let r = eng.validate_device(fib, dc);
            assert!(
                r.is_clean(),
                "device {:?} violations: {:?}",
                fib.device(),
                r.violations
            );
        }
    }

    #[test]
    fn faulted_figure3_reproduces_section_2_4_4() {
        let (f, fibs, contracts, _meta) = fig3_faulted();
        let eng = TrieEngine::new();
        let report = |d: dctopo::DeviceId| {
            eng.validate_device(&fibs[d.0 as usize], &contracts[d.0 as usize])
        };

        // ToR1, A1, A2, D1, D2 have a contract failure for Prefix_B.
        for d in [f.tors[0], f.a[0], f.a[1], f.d[0], f.d[1]] {
            let r = report(d);
            assert!(
                r.violations.iter().any(|v| v.prefix == f.prefixes[1]),
                "device {d:?} must violate the Prefix_B contract: {:?}",
                r.violations
            );
        }
        // ToR2, A3, A4, D3, D4 similarly for Prefix_A.
        for d in [f.tors[1], f.a[2], f.a[3], f.d[2], f.d[3]] {
            let r = report(d);
            assert!(
                r.violations.iter().any(|v| v.prefix == f.prefixes[0]),
                "device {d:?} must violate the Prefix_A contract"
            );
        }
        // Both ToRs have a default contract failure (2 of 4 hops).
        for d in [f.tors[0], f.tors[1]] {
            let r = report(d);
            let dv: Vec<_> = r.by_kind(ContractKind::Default).collect();
            assert_eq!(dv.len(), 1, "{d:?}");
            match &dv[0].reason {
                VR::DefaultMismatch { expected, actual } => {
                    assert_eq!(expected.len(), 4);
                    assert_eq!(actual.len(), 2);
                }
                other => panic!("unexpected reason {other:?}"),
            }
        }
        // R1, R2 (and D3, D4 for Prefix_B) are clean for Prefix_B, which
        // is what keeps the longer path available (§2.4.4).
        for d in [f.r[0], f.r[1], f.d[2], f.d[3], f.a[2], f.a[3]] {
            let r = report(d);
            assert!(
                !r.violations.iter().any(|v| v.prefix == f.prefixes[1]),
                "device {d:?} must NOT violate Prefix_B: {:?}",
                r.violations
            );
        }
        // The R devices are clean entirely.
        for d in f.r {
            assert!(report(d).is_clean(), "{d:?}");
        }
    }

    #[test]
    fn fully_shadowed_rule_is_not_judged() {
        // Minimized differential-fuzzer case: a /31 with wrong next
        // hops whose entire span is shadowed by two correct /32s. LPM
        // never selects the /31 inside the contract range, so reporting
        // it would contradict the SMT engine (no satisfying witness
        // exists) and Definition 2.1.
        use crate::contracts::{Contract, ContractKind, DeviceContracts, Expectation};
        use bgpsim::FibBuilder;
        use netprim::Ipv4;

        let good = vec![Ipv4::new(30, 0, 0, 1)];
        let bad = vec![Ipv4::new(30, 0, 0, 2)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/32".parse().unwrap(), good.clone(), false);
        b.push("10.0.0.1/32".parse().unwrap(), good.clone(), false);
        b.push("10.0.0.0/31".parse().unwrap(), bad, false);
        b.push("10.0.0.0/30".parse().unwrap(), good.clone(), false);
        let fib = b.finish();
        let dc = DeviceContracts::from_contracts(vec![Contract {
            device: dctopo::DeviceId(0),
            prefix: "10.0.0.0/30".parse().unwrap(),
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(good.into()),
        }]);
        for eng in [TrieEngine::new(), TrieEngine::semantic()] {
            let r = eng.validate_device(&fib, &dc);
            assert!(r.is_clean(), "{:?}", r.violations);
        }
    }

    #[test]
    fn missing_specific_with_matching_default_semantic_vs_strict() {
        // If the default route already sends packets to exactly the
        // contract's next hops, a missing specific is *semantically*
        // satisfied (Definition 2.1), but the strict production engine
        // still flags the absent specific route (§2.6.2 Migrations).
        use bgpsim::FibBuilder;

        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let original = &fibs[tor.0 as usize];
        // Rebuild the ToR FIB without the Prefix_B specific.
        let mut b = FibBuilder::new(tor);
        for e in original.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            b.push(e.prefix, original.next_hops(e).to_vec(), e.local);
        }
        let fib = b.finish();
        let r = TrieEngine::semantic().validate_device(&fib, &contracts[tor.0 as usize]);
        assert!(r.is_clean(), "{:?}", r.violations);
        let r = TrieEngine::new().validate_device(&fib, &contracts[tor.0 as usize]);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].reason, VR::MissingRoute);
        assert_eq!(r.violations[0].prefix, f.prefixes[1]);

        // But if the default also has the wrong hops, the Prefix_B
        // contract must flag the default rule.
        let mut b = FibBuilder::new(tor);
        for e in original.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            let mut hops = original.next_hops(e).to_vec();
            if e.prefix.is_default() {
                hops.truncate(2);
            }
            b.push(e.prefix, hops, e.local);
        }
        let fib = b.finish();
        let r = TrieEngine::semantic().validate_device(&fib, &contracts[tor.0 as usize]);
        let pb: Vec<_> = r
            .violations
            .iter()
            .filter(|v| v.prefix == f.prefixes[1])
            .collect();
        assert_eq!(pb.len(), 1);
        match &pb[0].reason {
            VR::NextHopMismatch { rule, .. } => assert!(rule.is_default()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn empty_fib_violates_everything() {
        let (f, _fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let fib = Fib::empty(tor);
        let r = TrieEngine::new().validate_device(&fib, &contracts[tor.0 as usize]);
        // Default missing + every specific has no covering rule.
        assert_eq!(r.violations.len(), contracts[tor.0 as usize].len());
        assert!(r
            .violations
            .iter()
            .any(|v| v.reason == VR::MissingDefault));
        assert!(r
            .violations
            .iter()
            .filter(|v| v.kind == ContractKind::Specific)
            .all(|v| v.reason == VR::MissingRoute));
    }

    #[test]
    fn partial_coverage_by_extensions_detected() {
        // A contract /24 covered by two /25s with correct hops on one
        // half and wrong hops on the other: exactly one violation.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let expected = vec![Ipv4::new(30, 0, 0, 1), Ipv4::new(30, 0, 0, 3)];
        let wrong = vec![Ipv4::new(30, 0, 0, 5)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        b.push("10.0.0.128/25".parse().unwrap(), wrong.clone(), false);
        let fib = b.finish();
        let contract = Contract {
            device: dctopo::DeviceId(0),
            prefix: "10.0.0.0/24".parse().unwrap(),
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(expected.into()),
        };
        let dc = DeviceContracts::from_contracts(vec![contract]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1);
        match &r.violations[0].reason {
            VR::NextHopMismatch { rule, actual, .. } => {
                assert_eq!(*rule, "10.0.0.128/25".parse::<Prefix>().unwrap());
                assert_eq!(actual, &wrong);
            }
            other => panic!("{other:?}"),
        }
        // Strict mode additionally flags the absent exact specific.
        let r = TrieEngine::new().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 2);
    }

    #[test]
    fn uncovered_gap_is_missing_route() {
        // Only half the contract range has any rule and no default
        // exists: the gap is a MissingRoute violation.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let expected = vec![Ipv4::new(30, 0, 0, 1)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("10.0.0.0/25".parse().unwrap(), expected.clone(), false);
        let fib = b.finish();
        let contract = Contract {
            device: dctopo::DeviceId(0),
            prefix: "10.0.0.0/24".parse().unwrap(),
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(expected.into()),
        };
        let dc = DeviceContracts::from_contracts(vec![contract]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].reason, VR::MissingRoute);
    }

    #[test]
    fn incremental_matches_full_across_fault_transition() {
        // Healthy → faulted and faulted → healthy: revalidating via the
        // delta must reproduce the full report exactly, both directions,
        // in both engine modes.
        let (_f, healthy, contracts, _meta) = fig3_healthy();
        let (_f2, faulted, _c2, _m2) = fig3_faulted();
        for eng in [TrieEngine::new(), TrieEngine::semantic()] {
            for (old_fibs, new_fibs) in [(&healthy, &faulted), (&faulted, &healthy)] {
                for ((old, new), dc) in old_fibs.iter().zip(new_fibs.iter()).zip(&contracts) {
                    let delta = Fib::delta(old, new);
                    let prior = eng.validate_device(old, dc);
                    let incremental = eng.validate_delta(new, dc, &delta, &prior);
                    let full = eng.validate_device(new, dc);
                    assert_eq!(incremental, full, "device {:?}", new.device());
                }
            }
        }
    }

    #[test]
    fn empty_delta_returns_prior_verbatim() {
        let (_f, fibs, contracts, _meta) = fig3_faulted();
        let eng = TrieEngine::new();
        for (fib, dc) in fibs.iter().zip(&contracts) {
            let prior = eng.validate_device(fib, dc);
            let delta = Fib::delta(fib, fib);
            assert!(delta.is_empty());
            let r = eng.validate_delta(fib, dc, &delta, &prior);
            assert_eq!(r, prior);
        }
    }

    #[test]
    fn single_rule_churn_rechecks_only_overlapping_contracts() {
        // Drop one specific from a ToR: the delta path must flag exactly
        // that contract while carrying every other verdict over.
        use bgpsim::FibBuilder;
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let dc = &contracts[tor.0 as usize];
        let mut b = FibBuilder::new(tor);
        for e in old.entries() {
            if e.prefix == f.prefixes[1] {
                continue;
            }
            b.push(e.prefix, old.next_hops(e).to_vec(), e.local);
        }
        let new = b.finish();
        let delta = Fib::delta(old, &new);
        assert_eq!(delta.rule_count(), 1);
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, dc);
        let r = eng.validate_delta(&new, dc, &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, dc));
        assert_eq!(r.violations.len(), 1);
        assert_eq!(r.violations[0].prefix, f.prefixes[1]);
    }

    #[test]
    fn large_delta_falls_back_to_full_validation() {
        // Replacing the whole table is a "large" delta; the fallback
        // must still produce the exact full report.
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let new = Fib::empty(tor);
        let delta = Fib::delta(old, &new);
        assert!(delta.rule_count() * 4 > new.len().max(1));
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, &contracts[tor.0 as usize]);
        let r = eng.validate_delta(&new, &contracts[tor.0 as usize], &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, &contracts[tor.0 as usize]));
    }

    #[test]
    fn default_route_churn_rechecks_default_contract() {
        // Truncating the default route's hops affects the default
        // contract and every specific (the default is an ancestor
        // candidate of all of them): incremental == full, and the
        // default contract's fresh verdict shows the truncation.
        use bgpsim::FibBuilder;
        let (f, fibs, contracts, _meta) = fig3_healthy();
        let tor = f.tors[0];
        let old = &fibs[tor.0 as usize];
        let dc = &contracts[tor.0 as usize];
        let mut b = FibBuilder::new(tor);
        for e in old.entries() {
            let mut hops = old.next_hops(e).to_vec();
            if e.prefix.is_default() {
                hops.truncate(1);
            }
            b.push(e.prefix, hops, e.local);
        }
        let new = b.finish();
        let delta = Fib::delta(old, &new);
        let eng = TrieEngine::new();
        let prior = eng.validate_device(old, dc);
        let r = eng.validate_delta(&new, dc, &delta, &prior);
        assert_eq!(r, eng.validate_device(&new, dc));
        assert!(r
            .by_kind(ContractKind::Default)
            .any(|v| matches!(&v.reason, VR::DefaultMismatch { actual, .. } if actual.len() == 1)));
    }

    #[test]
    fn coverage_accumulator_handles_overlap() {
        let target: Prefix = "10.0.0.0/24".parse().unwrap();
        let mut cov = Coverage::new(target.range());
        let half: Prefix = "10.0.0.0/25".parse().unwrap();
        assert_eq!(cov.add(half.range()), 128);
        // Adding the same range again must not double-count — and must
        // report that it serves nothing new.
        assert_eq!(cov.add(half.range()), 0);
        assert!(!cov.complete());
        // The containing /24 completes it, serving only the other half.
        assert_eq!(cov.add(target.range()), 128);
        assert!(cov.complete());
    }

    #[test]
    fn default_route_shadows_longer_prefix_across_group_boundaries() {
        // Regression (batched traversal): the default route is consumed
        // by the walk at the first contract group and must still be
        // judged for later groups in the same walk — including one
        // where it serves the half of a contract range that a longer
        // (group-local) prefix does not cover.
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let good = vec![Ipv4::new(30, 0, 0, 1)];
        let dflt = vec![Ipv4::new(30, 0, 0, 9)];
        let mut b = FibBuilder::new(dctopo::DeviceId(0));
        b.push("0.0.0.0/0".parse().unwrap(), dflt.clone(), false);
        b.push("10.0.0.0/24".parse().unwrap(), good.clone(), false);
        // Third group: only half the /24 has a specific; the default
        // serves the rest with the wrong hops.
        b.push("20.0.0.0/25".parse().unwrap(), good.clone(), false);
        let fib = b.finish();
        let spec = |p: &str, hops: &[Ipv4]| Contract {
            device: dctopo::DeviceId(0),
            prefix: p.parse().unwrap(),
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(hops.to_vec().into()),
        };
        let dc = DeviceContracts::from_contracts(vec![
            // Group 1: exact hit (fast path), default irrelevant.
            spec("10.0.0.0/24", &good),
            // Group 2: no specific at all — served entirely by the
            // default route, whose hops match.
            spec("15.0.0.0/24", &dflt),
            // Group 3: /25 covers half, default (wrong hops for
            // this contract) covers the other half.
            spec("20.0.0.0/24", &good),
        ]);
        let r = TrieEngine::semantic().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert_eq!(r.violations[0].prefix, "20.0.0.0/24".parse::<Prefix>().unwrap());
        match &r.violations[0].reason {
            VR::NextHopMismatch { rule, actual, .. } => {
                assert!(rule.is_default(), "must flag the default rule");
                assert_eq!(actual, &dflt);
            }
            other => panic!("{other:?}"),
        }
        // Strict mode adds MissingRoute for the two absent specifics,
        // still exactly one violation against the default rule.
        let r = TrieEngine::new().validate_device(&fib, &dc);
        assert_eq!(r.violations.len(), 3, "{:?}", r.violations);
        assert_eq!(
            r.violations
                .iter()
                .filter(|v| v.reason == VR::MissingRoute)
                .count(),
            2
        );
        // Verdicts (and order) identical to the reference engine.
        use crate::engine::trie_reference::ReferenceTrieEngine;
        assert_eq!(
            r.violations,
            ReferenceTrieEngine::new().validate_device(&fib, &dc).violations
        );
    }

    #[test]
    fn delta_with_duplicate_violated_contracts_matches_full() {
        // Regression: two violated contracts share one identity
        // (prefix, kind) and the delta does not touch them. Carrying
        // prior verdicts by identity handed each contract both
        // contracts' violations (5 instead of 3).
        use bgpsim::FibBuilder;
        use netprim::Ipv4;
        let hop = |i: u8| vec![Ipv4::new(30, 0, 0, i)];
        let rules = |last: u8| {
            let mut b = FibBuilder::new(dctopo::DeviceId(0));
            for i in 0..5u8 {
                let p = format!("10.0.{i}.0/24").parse().unwrap();
                b.push(p, hop(if i == 4 { last } else { 1 }), false);
            }
            b.finish()
        };
        let (old, new) = (rules(1), rules(4));
        let spec = |p: &str, hops: Vec<Ipv4>| Contract {
            device: dctopo::DeviceId(0),
            prefix: p.parse().unwrap(),
            kind: ContractKind::Specific,
            expectation: Expectation::NextHops(hops.into()),
        };
        let dc = DeviceContracts::from_contracts(vec![
            spec("10.0.0.0/24", hop(2)),
            spec("10.0.0.0/24", hop(3)),
            spec("10.0.4.0/24", hop(1)),
        ]);
        let delta = Fib::delta(&old, &new);
        assert_eq!(delta.rule_count(), 1);
        for eng in [TrieEngine::new(), TrieEngine::semantic()] {
            let prior = eng.validate_device(&old, &dc);
            assert_eq!(prior.violations.len(), 2);
            let full = eng.validate_device(&new, &dc);
            assert_eq!(full.violations.len(), 3);
            assert_eq!(eng.validate_delta(&new, &dc, &delta, &prior), full);
        }
    }

    #[test]
    fn batched_sweep_matches_reference_on_figure3() {
        // Rule-for-rule verdict identity with the frozen pointer-trie
        // engine on both fixtures, full and incremental paths.
        use crate::engine::trie_reference::ReferenceTrieEngine;
        let (_f, healthy, contracts, _meta) = fig3_healthy();
        let (_f2, faulted, _c2, _m2) = fig3_faulted();
        for (flat, reference) in [
            (TrieEngine::new(), ReferenceTrieEngine::new()),
            (TrieEngine::semantic(), ReferenceTrieEngine::semantic()),
        ] {
            for (old, new) in [(&healthy, &faulted), (&faulted, &healthy)] {
                for ((o, n), dc) in old.iter().zip(new.iter()).zip(&contracts) {
                    assert_eq!(
                        flat.validate_device(n, dc),
                        reference.validate_device(n, dc),
                        "full, device {:?}",
                        n.device()
                    );
                    let delta = Fib::delta(o, n);
                    let prior = flat.validate_device(o, dc);
                    assert_eq!(
                        flat.validate_delta(n, dc, &delta, &prior),
                        reference.validate_delta(n, dc, &delta, &prior),
                        "delta, device {:?}",
                        n.device()
                    );
                }
            }
        }
    }
}
