//! The host-side backing hierarchy.
//!
//! Under the paper's model the application's whole virtual address space
//! conceptually lives in host memory; the device RAM holds the currently
//! resident subset. The store tracks which blocks have ever been
//! materialized so the kernel can distinguish first-touch faults (zero
//! fill, no transfer needed in from the host) from refaults (a real
//! host→device DMA), and it counts write-backs for the reports.
//!
//! [`TieredStore`] is an N-tier hierarchy (HBM/DRAM/NVM/CXL-style, see
//! [`cmcp_arch::tier`]) of byte ranges ("spans"). The paper's own
//! host-DRAM backing level is its one-tier instance: the `flat` config
//! is a single unbounded tier that costs nothing, so nothing ever
//! cascades or promotes and no penalty is charged. Each write-back
//! lands on the tier chosen by the victim's core-map count (CMCP's
//! signal decides *how far down* to demote, not just whether to
//! evict); bounded tiers that overflow cascade their FIFO-oldest span
//! one tier further; a page-in from tier *t* pays that tier's
//! latency/bandwidth penalty and promotes the span one tier up when
//! the tier above has room. Spans make the store correct for the
//! adaptive page-size mode too, where a 2 MB write-back may later be
//! refaulted — or partially overwritten — at 64 kB granularity.
//!
//! The store lives in the kernel's single-writer state
//! (`vmm::KernelState`), so it needs no synchronization of its own.

use std::collections::VecDeque;

use cmcp_arch::{FaultInjector, FaultSite, FxHashMap, TierConfig, VirtPage};

/// One stored byte range: `pages` 4 kB pages starting at the map key
/// (at most a 2 MB region's 512, so 16 bytes hold a span).
#[derive(Debug, Clone, Copy)]
struct Span {
    pages: u32,
    tier: u8,
    /// FIFO stamp within the tier (older = demoted first). Stamps are
    /// unique over the store's life, so `(seq, head)` names one span.
    seq: u64,
}

impl Span {
    /// The span's length in 4 kB pages.
    fn len(&self) -> u64 {
        u64::from(self.pages)
    }
}

/// 4 kB pages per 2 MB region. The kernel only stores or probes one
/// naturally aligned block of at most 2 MB, so every range — and every
/// span, which is a range or a trimmed remainder of one — lies inside
/// a single region.
const REGION_PAGES: u64 = 512;

/// Bitmap words per region: bit `i` = a span starts at page `i`.
const REGION_WORDS: usize = (REGION_PAGES / 64) as usize;

/// Per-tier occupancy and traffic counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TierCounters {
    /// 4 kB pages currently held by this tier.
    pub used_pages: u64,
    /// Spans currently held by this tier.
    pub spans: u64,
    /// Write-backs that landed on this tier (demotion-rank target).
    pub stores: u64,
    /// Page-ins served from this tier.
    pub loads: u64,
    /// Spans pushed into this tier by a capacity cascade from above.
    pub demoted_in: u64,
    /// Spans pulled into this tier by promotion from below.
    pub promoted_in: u64,
}

/// Result of a tiered store attempt.
#[derive(Debug, Clone, Copy)]
pub struct StoreOutcome {
    /// Whether the span was recorded (false: injected write failure).
    pub stored: bool,
    /// Tier the span landed on.
    pub tier: usize,
    /// Spans pushed down a tier by the resulting capacity cascade.
    pub demoted: u64,
}

/// Result of a tiered load (page-in) hit.
#[derive(Debug, Clone, Copy)]
pub struct LoadOutcome {
    /// Deepest tier holding any byte of the requested range — the tier
    /// whose latency/bandwidth penalty the transfer pays.
    pub tier: usize,
    /// Spans promoted one tier up by this access.
    pub promoted: u64,
}

/// The region index of `[head, head + pages)`. Panics when the range
/// crosses a 2 MB region boundary: the head bitmaps cannot see a span
/// reaching in from another region.
fn region_of(head: u64, pages: u64) -> u64 {
    let region = head / REGION_PAGES;
    assert!(
        pages > 0 && (head + pages - 1) / REGION_PAGES == region,
        "tier store range [{head}, {}) crosses a 2 MB region",
        head + pages
    );
    region
}

/// The highest set bit of `bits` below bit `end` (`end` < 512).
fn last_head_below(bits: &[u64; REGION_WORDS], end: u64) -> Option<u64> {
    let mut w = (end / 64) as usize;
    let mut word = bits[w] & ((1u64 << (end % 64)) - 1);
    loop {
        if word != 0 {
            return Some(w as u64 * 64 + 63 - u64::from(word.leading_zeros()));
        }
        if w == 0 {
            return None;
        }
        w -= 1;
        word = bits[w];
    }
}

/// The backing hierarchy behind the device RAM: a span store over the
/// configured tiers. See the module docs.
#[derive(Debug)]
pub struct TieredStore {
    /// Non-overlapping spans, keyed by head page. The non-overlap
    /// invariant is what "no page resident in two tiers" reduces to.
    spans: FxHashMap<u64, Span>,
    /// 2 MB region index → bitmap of the span heads inside it: the
    /// ordered view the overlap probe needs, without an ordered map.
    heads: FxHashMap<u64, [u64; REGION_WORDS]>,
    /// Per-tier FIFO order, oldest first: `(seq, head)`. Removing or
    /// restamping a span leaves its entry behind, stale (no span with
    /// that head and seq); the cascade skips stale entries at the
    /// front, and a push compacts the queue once it holds over twice
    /// the tier's spans. Only bounded tiers cascade, so an unbounded
    /// tier (the last one, and the flat config's only one) keeps its
    /// queue empty.
    fifo: Vec<VecDeque<(u64, u64)>>,
    books: Vec<TierCounters>,
    /// Per-tier capacity in 4 kB pages (0 = unbounded).
    caps: Vec<u64>,
    next_seq: u64,
    /// Heads found by the last [`TieredStore::overlapping`] probe,
    /// ascending; reused so the probe never allocates.
    hits: Vec<u64>,
}

impl TieredStore {
    /// An empty store over `tiers`: every first touch is a zero-fill
    /// fault.
    pub fn new(tiers: &TierConfig) -> TieredStore {
        let n = tiers.len();
        TieredStore {
            spans: FxHashMap::default(),
            heads: FxHashMap::default(),
            fifo: vec![VecDeque::new(); n],
            books: vec![TierCounters::default(); n],
            caps: tiers.tiers.iter().map(|t| t.capacity_pages).collect(),
            next_seq: 0,
            hits: Vec::new(),
        }
    }

    /// Whether the FIFO entry `(seq, head)` still names a stored span.
    fn live(&self, seq: u64, head: u64) -> bool {
        self.spans.get(&head).is_some_and(|s| s.seq == seq)
    }

    /// Takes `span` off its tier's books.
    fn unbook(&mut self, span: Span) {
        let t = span.tier as usize;
        self.books[t].used_pages -= span.len();
        self.books[t].spans -= 1;
    }

    /// Stores `[head, head + pages)` on `tier` under a fresh stamp. A
    /// span already keyed at `head` — rewritten, trimmed to its left
    /// remainder, demoted or promoted — is replaced in place: its FIFO
    /// entry goes stale, and the span map takes no tombstone.
    fn put(&mut self, head: u64, pages: u64, tier: usize) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let span = Span {
            pages: pages as u32,
            tier: tier as u8,
            seq,
        };
        if let Some(old) = self.spans.insert(head, span) {
            self.unbook(old);
        } else {
            let off = head % REGION_PAGES;
            let bits = self.heads.entry(head / REGION_PAGES).or_default();
            bits[(off / 64) as usize] |= 1 << (off % 64);
        }
        self.books[tier].used_pages += pages;
        self.books[tier].spans += 1;
        if self.caps[tier] == 0 {
            return;
        }
        self.fifo[tier].push_back((seq, head));
        if self.fifo[tier].len() as u64 > 2 * self.books[tier].spans {
            let spans = &self.spans;
            self.fifo[tier].retain(|&(seq, h)| spans.get(&h).is_some_and(|s| s.seq == seq));
        }
    }

    /// Drops the span at `head`, which a store covers whole.
    fn remove(&mut self, head: u64) {
        let span = self.spans.remove(&head).expect("span tracked");
        let off = head % REGION_PAGES;
        let bits = self
            .heads
            .get_mut(&(head / REGION_PAGES))
            .expect("region tracked");
        bits[(off / 64) as usize] &= !(1 << (off % 64));
        self.unbook(span);
    }

    /// Fills `hits` with the heads of every span overlapping
    /// `[head, head + pages)`, ascending.
    fn overlapping(&mut self, head: u64, pages: u64) {
        self.hits.clear();
        let region = region_of(head, pages);
        let Some(bits) = self.heads.get(&region) else {
            return;
        };
        let base = region * REGION_PAGES;
        let (lo, hi) = (head - base, head - base + pages);
        // A span starting before `head` can still reach into the range;
        // spans never overlap, so only the nearest one can.
        if let Some(p) = last_head_below(bits, lo) {
            if base + p + self.spans[&(base + p)].len() > head {
                self.hits.push(base + p);
            }
        }
        for w in lo / 64..hi.div_ceil(64) {
            let mut word = bits[w as usize];
            if w == lo / 64 {
                word &= !0 << (lo % 64);
            }
            if hi < (w + 1) * 64 {
                word &= (1 << (hi % 64)) - 1;
            }
            while word != 0 {
                self.hits
                    .push(base + w * 64 + u64::from(word.trailing_zeros()));
                word &= word - 1;
            }
        }
    }

    /// Takes the oldest span of tier `t` off its FIFO, dropping the
    /// stale entries in front of it, and returns its head.
    fn pop_oldest(&mut self, t: usize) -> u64 {
        loop {
            let (seq, head) = self.fifo[t].pop_front().expect("over-cap tier has spans");
            if self.live(seq, head) {
                return head;
            }
        }
    }

    /// Moves bounded tiers back under capacity by demoting their oldest
    /// spans one tier down. The last tier is unbounded (validated at
    /// config parse), so the cascade always terminates.
    fn cascade(&mut self) -> u64 {
        let mut demoted = 0;
        while let Some(t) = (0..self.caps.len())
            .find(|&t| self.caps[t] > 0 && self.books[t].used_pages > self.caps[t])
        {
            let head = self.pop_oldest(t);
            self.put(head, self.spans[&head].len(), t + 1);
            self.books[t + 1].demoted_in += 1;
            demoted += 1;
        }
        demoted
    }

    /// Whether any stored span overlaps `[head, head + pages)` — i.e.
    /// whether a fault on this range needs a host→device transfer.
    /// Panics on a range that crosses a 2 MB region.
    pub fn contains(&mut self, head: VirtPage, pages: u64) -> bool {
        self.overlapping(head.0, pages);
        !self.hits.is_empty()
    }

    /// Page-in lookup: the deepest tier holding any byte of the range,
    /// or `None` for a first touch. Overlapping spans below tier 0 are
    /// promoted one tier up when the tier above has room (promotion
    /// never evicts — cold tiers drain upward only into slack).
    pub fn load(&mut self, head: VirtPage, pages: u64) -> Option<LoadOutcome> {
        self.overlapping(head.0, pages);
        let deepest = self
            .hits
            .iter()
            .map(|h| self.spans[h].tier as usize)
            .max()?;
        let mut promoted = 0;
        for i in 0..self.hits.len() {
            let h = self.hits[i];
            let span = self.spans[&h];
            let up = span.tier as usize;
            if up == 0 {
                continue;
            }
            let dst = up - 1;
            let room =
                self.caps[dst] == 0 || self.books[dst].used_pages + span.len() <= self.caps[dst];
            if room {
                self.put(h, span.len(), dst);
                self.books[dst].promoted_in += 1;
                promoted += 1;
            }
        }
        self.books[deepest].loads += 1;
        Some(LoadOutcome {
            tier: deepest,
            promoted,
        })
    }

    /// Records a write-back of `[head, head + pages)` onto the tier
    /// `rank` (clamped), riding the per-tier fault-injection sequence.
    /// Overwritten older spans are trimmed: fully covered ones vanish,
    /// partially covered ones keep their uncovered remainder on their
    /// original tier. Returns what happened; on an injected failure
    /// nothing is recorded.
    pub fn try_store(
        &mut self,
        head: VirtPage,
        pages: u64,
        rank: usize,
        inj: &mut FaultInjector,
    ) -> StoreOutcome {
        let tier = rank.min(self.caps.len() - 1);
        if inj.roll(FaultSite::Backing, tier) {
            return StoreOutcome {
                stored: false,
                tier,
                demoted: 0,
            };
        }
        let end = head.0 + pages;
        self.overlapping(head.0, pages);
        for i in 0..self.hits.len() {
            let h = self.hits[i];
            let old = self.spans[&h];
            let old_end = h + old.len();
            // A span at `head` itself is overwritten in place by the
            // final put; one further in is covered whole.
            if h < head.0 {
                self.put(h, head.0 - h, old.tier as usize);
            } else if h > head.0 {
                self.remove(h);
            }
            if old_end > end {
                self.put(end, old_end - end, old.tier as usize);
            }
        }
        self.put(head.0, pages, tier);
        self.books[tier].stores += 1;
        let demoted = self.cascade();
        StoreOutcome {
            stored: true,
            tier,
            demoted,
        }
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether nothing has been written back yet.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Makes room for `spans` spans up front. The span map otherwise
    /// grows by doubling while write-backs accumulate, and peak RSS
    /// counts each freed smaller table.
    pub fn reserve_spans(&mut self, spans: usize) {
        self.spans.reserve(spans);
    }

    /// Per-tier counters, fastest tier first.
    pub fn tier_counters(&self) -> &[TierCounters] {
        &self.books
    }

    /// Consistency audit for the test oracles. Panics if spans overlap
    /// (a page held by two tiers at once) or leave their 2 MB region,
    /// if the head bitmaps disagree with the span keys, if any per-tier
    /// page book disagrees with the spans it claims, if a bounded tier's
    /// live FIFO entries are not exactly its spans in stamp order (an
    /// unbounded tier's must be empty), or if a bounded tier sits over
    /// its capacity at a quiescent point.
    pub fn audit(&self) {
        let mut heads: Vec<u64> = self.spans.keys().copied().collect();
        heads.sort_unstable();
        let mut prev_end = 0u64;
        let mut used = vec![0u64; self.caps.len()];
        let mut spans = vec![0u64; self.caps.len()];
        for &h in &heads {
            let s = &self.spans[&h];
            assert!(h >= prev_end, "spans overlap at page {h}");
            prev_end = h + s.len();
            region_of(h, s.len());
            used[s.tier as usize] += s.len();
            spans[s.tier as usize] += 1;
        }
        let mut bitmap_heads: Vec<u64> = self
            .heads
            .iter()
            .flat_map(|(&region, bits)| {
                (0..REGION_PAGES)
                    .filter(|&i| bits[(i / 64) as usize] >> (i % 64) & 1 == 1)
                    .map(move |i| region * REGION_PAGES + i)
            })
            .collect();
        bitmap_heads.sort_unstable();
        assert_eq!(
            bitmap_heads, heads,
            "head bitmaps drifted from the span keys"
        );
        for (tier, book) in self.books.iter().enumerate() {
            assert_eq!(book.used_pages, used[tier], "tier {tier} page book drifted");
            assert_eq!(book.spans, spans[tier], "tier {tier} span book drifted");
            let fifo = &self.fifo[tier];
            if self.caps[tier] == 0 {
                assert!(fifo.is_empty(), "unbounded tier {tier} queued a span");
                continue;
            }
            assert!(
                fifo.iter().zip(fifo.iter().skip(1)).all(|(a, b)| a.0 < b.0),
                "tier {tier} FIFO out of stamp order"
            );
            let mut live = 0u64;
            for &(seq, h) in fifo.iter().filter(|&&(seq, h)| self.live(seq, h)) {
                assert_eq!(
                    self.spans[&h].tier as usize, tier,
                    "span {h} (stamp {seq}) queued on the wrong tier's FIFO"
                );
                live += 1;
            }
            assert_eq!(live, spans[tier], "tier {tier} FIFO size drifted");
            assert!(
                book.used_pages <= self.caps[tier],
                "tier {tier} over capacity at a quiescent point"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cmcp_arch::FaultPlan;

    /// The empty plan: no store ever fails.
    fn quiet() -> FaultInjector {
        FaultInjector::new(&FaultPlan::new(0))
    }

    #[test]
    fn the_flat_tier_records_whole_blocks() {
        let mut s = TieredStore::new(&TierConfig::flat());
        // A first touch is absent.
        assert!(!s.contains(VirtPage(1), 1));
        assert!(s.load(VirtPage(1), 1).is_none());
        assert!(s.is_empty());
        // A stored block is then found, on the one tier.
        assert!(s.try_store(VirtPage(7), 1, 0, &mut quiet()).stored);
        assert!(s.contains(VirtPage(7), 1));
        assert!(!s.contains(VirtPage(8), 1));
        let l = s.load(VirtPage(7), 1).unwrap();
        assert_eq!((l.tier, l.promoted), (0, 0));
        // Rewriting a block is idempotent.
        assert_eq!(s.try_store(VirtPage(7), 1, 0, &mut quiet()).demoted, 0);
        assert_eq!(s.len(), 1);
        // An injected ENOSPC records nothing.
        let mut inj = FaultInjector::new(&FaultPlan::new(13).enospc(0.5));
        let mut failures = 0;
        for p in 0..64 {
            let head = VirtPage(100 + p);
            let stored = s.try_store(head, 1, 0, &mut inj).stored;
            failures += u64::from(!stored);
            assert_eq!(s.contains(head, 1), stored, "page {p}");
        }
        assert!(failures > 5, "50% over 64 stores: {failures}");
        // A 1-page probe hits a 16-page span.
        s.try_store(VirtPage(32), 16, 0, &mut quiet());
        assert!(s.contains(VirtPage(37), 1));
        assert!(!s.contains(VirtPage(48), 1));
        let books = s.tier_counters();
        assert_eq!(books.len(), 1);
        assert_eq!(books[0].spans, s.len() as u64);
        assert_eq!(books[0].demoted_in + books[0].promoted_in, 0);
        s.audit();
    }

    fn two_tier() -> TierConfig {
        // 8-page hot tier over an unbounded cold tier.
        TierConfig::parse("hot:8@100/1000;cold:0@400/250").unwrap()
    }

    #[test]
    fn store_lands_on_the_demotion_rank() {
        let mut s = TieredStore::new(&two_tier());
        let out = s.try_store(VirtPage(0), 4, 1, &mut quiet());
        assert!(out.stored);
        assert_eq!(out.tier, 1);
        let books = s.tier_counters();
        assert_eq!(books[1].used_pages, 4);
        assert_eq!(books[1].stores, 1);
        assert_eq!(books[0].used_pages, 0);
        // Rank beyond the last tier clamps.
        assert_eq!(s.try_store(VirtPage(100), 1, 9, &mut quiet()).tier, 1);
        s.audit();
    }

    #[test]
    fn overflow_cascades_fifo_oldest_down() {
        let mut s = TieredStore::new(&two_tier());
        // Hot tier holds 8 pages: two 4-page spans fill it.
        s.try_store(VirtPage(0), 4, 0, &mut quiet());
        s.try_store(VirtPage(10), 4, 0, &mut quiet());
        // A third store overflows it: the OLDEST span (head 0) demotes.
        let out = s.try_store(VirtPage(20), 4, 0, &mut quiet());
        assert_eq!(out.demoted, 1);
        let books = s.tier_counters();
        assert_eq!(books[0].used_pages, 8);
        assert_eq!(books[1].used_pages, 4);
        assert_eq!(books[1].demoted_in, 1);
        assert_eq!(s.load(VirtPage(0), 4).unwrap().tier, 1, "span 0 demoted");
        s.audit();
    }

    #[test]
    fn a_rewritten_span_queues_as_the_youngest() {
        let mut s = TieredStore::new(&two_tier());
        s.try_store(VirtPage(0), 4, 0, &mut quiet());
        s.try_store(VirtPage(10), 4, 0, &mut quiet());
        // Rewriting span 0 leaves its first FIFO entry stale behind
        // span 10's: the overflow must demote 10, not the stale 0.
        s.try_store(VirtPage(0), 4, 0, &mut quiet());
        let out = s.try_store(VirtPage(20), 4, 0, &mut quiet());
        assert_eq!(out.demoted, 1);
        assert_eq!(s.load(VirtPage(10), 4).unwrap().tier, 1, "span 10 demoted");
        assert_eq!(s.load(VirtPage(0), 4).unwrap().tier, 0, "span 0 stayed hot");
        s.audit();
    }

    #[test]
    fn load_promotes_into_slack_only() {
        let mut s = TieredStore::new(&two_tier());
        s.try_store(VirtPage(0), 4, 1, &mut quiet());
        // Hot tier is empty: the load promotes.
        let l = s.load(VirtPage(0), 4).unwrap();
        assert_eq!((l.tier, l.promoted), (1, 1));
        assert_eq!(s.load(VirtPage(0), 4).unwrap().tier, 0, "now hot");
        // Fill the hot tier; a cold span then stays cold on load.
        s.try_store(VirtPage(100), 8, 0, &mut quiet());
        s.try_store(VirtPage(200), 4, 1, &mut quiet());
        let l = s.load(VirtPage(200), 4).unwrap();
        assert_eq!((l.tier, l.promoted), (1, 0), "no room above");
        s.audit();
    }

    #[test]
    fn partial_overwrite_keeps_remainders_on_their_tier() {
        let mut s = TieredStore::new(&two_tier());
        // A 16-page span on the cold tier...
        s.try_store(VirtPage(0), 16, 1, &mut quiet());
        // ...partially overwritten in the middle at rank 0.
        s.try_store(VirtPage(4), 4, 0, &mut quiet());
        let books = s.tier_counters();
        assert_eq!(books[0].used_pages, 4);
        assert_eq!(books[1].used_pages, 12, "remainders stay cold");
        assert_eq!(s.len(), 3, "left remainder + new span + right remainder");
        assert_eq!(s.load(VirtPage(0), 2).unwrap().tier, 1);
        assert_eq!(s.load(VirtPage(9), 1).unwrap().tier, 1);
        s.audit();
    }

    #[test]
    fn spans_on_either_side_of_a_region_boundary_stay_apart() {
        let mut s = TieredStore::new(&two_tier());
        s.try_store(VirtPage(508), 4, 1, &mut quiet());
        s.try_store(VirtPage(512), 16, 1, &mut quiet());
        assert!(s.contains(VirtPage(511), 1));
        assert!(s.contains(VirtPage(527), 1));
        assert!(!s.contains(VirtPage(528), 1));
        // A 2 MB probe of the second region sees only its own span.
        let l = s.load(VirtPage(512), 512).unwrap();
        assert_eq!(
            (l.tier, l.promoted),
            (1, 0),
            "16 pages do not fit the hot tier"
        );
        s.audit();
    }

    #[test]
    #[should_panic(expected = "tier store range [510, 514) crosses a 2 MB region")]
    fn a_range_crossing_a_2mb_boundary_panics() {
        let mut s = TieredStore::new(&two_tier());
        s.try_store(VirtPage(510), 4, 0, &mut quiet());
    }

    #[test]
    fn tiered_enospc_rolls_the_target_tiers_sequence() {
        let mut inj = FaultInjector::new(&FaultPlan::new(13).enospc(0.5));
        let mut s = TieredStore::new(&two_tier());
        let mut failures = 0;
        for p in 0..64u64 {
            let out = s.try_store(VirtPage(p * 100), 1, (p % 2) as usize, &mut inj);
            if !out.stored {
                failures += 1;
                assert!(
                    !s.contains(VirtPage(p * 100), 1),
                    "failed store records nothing"
                );
            }
        }
        assert!(failures > 5, "50% over 64 stores: {failures}");
        s.audit();
    }

    #[test]
    fn audit_catches_a_clean_store() {
        let mut s = TieredStore::new(&two_tier());
        for i in 0..32u64 {
            s.try_store(VirtPage(i * 16), 1 + i % 8, (i % 2) as usize, &mut quiet());
        }
        for i in 0..32u64 {
            s.load(VirtPage(i * 16), 1);
        }
        s.audit();
    }
}
