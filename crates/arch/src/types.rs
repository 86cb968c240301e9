//! Fundamental identifier types shared by every layer of the simulator.
//!
//! All of these are thin newtypes. Using distinct types for virtual pages,
//! physical frames and cores makes it impossible to, say, index a frame
//! table with a virtual page number — a class of bug that plagues page
//! replacement code written against bare integers.

use std::fmt;

/// Maximum number of simulated cores supported by [`CoreSet`].
///
/// The Knights Corner card has 60 cores plus 4-way hyperthreading; the
/// paper uses at most 56 application cores and dedicates some hyperthreads
/// to LRU statistics collection. 256 leaves room for "future standalone
/// many-core" experiments (Knights Landing had 72 cores) without making
/// `CoreSet` heap-allocated.
pub const MAX_CORES: usize = 256;

const WORDS: usize = MAX_CORES / 64;

/// Identifier of a simulated CPU core (hardware thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(pub u16);

impl CoreId {
    /// Index usable for array access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// A virtual page number: the virtual address shifted right by 12.
///
/// The simulator tracks memory at 4 kB granularity everywhere; larger
/// pages (64 kB, 2 MB) are expressed as aligned *runs* of 4 kB pages, the
/// same way the Xeon Phi 64 kB extension builds a large mapping out of 16
/// consecutive 4 kB PTEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtPage(pub u64);

impl VirtPage {
    /// The first byte address covered by this page.
    #[inline]
    pub fn base_addr(self) -> VirtAddr {
        VirtAddr(self.0 << 12)
    }

    /// Rounds this page number *down* to the start of the enclosing
    /// naturally aligned block of `size`.
    #[inline]
    pub fn align_down(self, size: PageSize) -> VirtPage {
        let span = size.pages_4k() as u64;
        VirtPage(self.0 / span * span)
    }

    /// Whether this page number is naturally aligned for `size`.
    #[inline]
    pub fn is_aligned(self, size: PageSize) -> bool {
        self.0.is_multiple_of(size.pages_4k() as u64)
    }

    /// The page `n` positions after this one.
    #[inline]
    #[allow(clippy::should_implement_trait)] // offsets by a scalar, not a page
    pub fn add(self, n: u64) -> VirtPage {
        VirtPage(self.0 + n)
    }
}

impl fmt::Display for VirtPage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vp:{:#x}", self.0)
    }
}

/// A byte-granular virtual address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(pub u64);

impl VirtAddr {
    /// The 4 kB virtual page containing this address.
    #[inline]
    pub fn page(self) -> VirtPage {
        VirtPage(self.0 >> 12)
    }

    /// Offset of this address within its 4 kB page.
    #[inline]
    pub fn page_offset(self) -> u64 {
        self.0 & 0xfff
    }
}

/// A physical frame number on the co-processor's on-board RAM.
///
/// Like [`VirtPage`], frames are 4 kB-granular; a 64 kB or 2 MB physical
/// allocation is an aligned run of frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysFrame(pub u32);

impl PhysFrame {
    /// Index usable for array access.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The frame `n` positions after this one.
    #[inline]
    #[allow(clippy::should_implement_trait)] // offsets by a scalar, not a frame
    pub fn add(self, n: u32) -> PhysFrame {
        PhysFrame(self.0 + n)
    }
}

impl fmt::Display for PhysFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pf:{:#x}", self.0)
    }
}

/// The three page sizes supported by the Xeon Phi MMU.
///
/// 64 kB is the experimental intermediate size the paper implements for
/// the first time (its hardware encoding — 16 consecutive 4 kB PTEs plus a
/// hint bit — lives in `cmcp-pagetable`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageSize {
    /// Regular 4 kB page.
    K4,
    /// Experimental 64 kB page (16 × 4 kB, hint bit in the PTEs).
    K64,
    /// 2 MB large page.
    M2,
}

impl PageSize {
    /// All sizes, smallest first.
    pub const ALL: [PageSize; 3] = [PageSize::K4, PageSize::K64, PageSize::M2];

    /// Size in bytes.
    #[inline]
    pub fn bytes(self) -> u64 {
        match self {
            PageSize::K4 => 4 << 10,
            PageSize::K64 => 64 << 10,
            PageSize::M2 => 2 << 20,
        }
    }

    /// Number of 4 kB pages this size spans (1, 16, 512).
    #[inline]
    pub fn pages_4k(self) -> usize {
        (self.bytes() >> 12) as usize
    }

    /// log2 of the size in bytes (12, 16, 21).
    #[inline]
    pub fn shift(self) -> u32 {
        self.bytes().trailing_zeros()
    }

    /// The next smaller granularity a block of this size splits into
    /// (2 MB → 64 kB → 4 kB), or `None` for 4 kB.
    #[inline]
    pub fn split_child(self) -> Option<PageSize> {
        match self {
            PageSize::K4 => None,
            PageSize::K64 => Some(PageSize::K4),
            PageSize::M2 => Some(PageSize::K64),
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::K4 => write!(f, "4kB"),
            PageSize::K64 => write!(f, "64kB"),
            PageSize::M2 => write!(f, "2MB"),
        }
    }
}

/// A fixed-size bitset of cores, the central data structure of PSPT
/// bookkeeping: for every physical page the kernel tracks *which cores
/// hold a valid PTE for it*, and CMCP's priority signal is simply
/// [`CoreSet::count`].
///
/// Supports up to [`MAX_CORES`] cores without heap allocation so it can be
/// embedded in per-page metadata by value.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct CoreSet {
    words: [u64; WORDS],
}

impl CoreSet {
    /// The empty set.
    #[inline]
    pub const fn empty() -> CoreSet {
        CoreSet { words: [0; WORDS] }
    }

    /// A set containing exactly one core.
    #[inline]
    pub fn single(core: CoreId) -> CoreSet {
        let mut s = CoreSet::empty();
        s.insert(core);
        s
    }

    /// A set containing cores `0..n`.
    pub fn first_n(n: usize) -> CoreSet {
        assert!(n <= MAX_CORES, "CoreSet supports at most {MAX_CORES} cores");
        let mut s = CoreSet::empty();
        for c in 0..n {
            s.insert(CoreId(c as u16));
        }
        s
    }

    /// Adds `core`; returns `true` if it was newly inserted.
    #[inline]
    pub fn insert(&mut self, core: CoreId) -> bool {
        let (w, b) = Self::locate(core);
        let had = self.words[w] & b != 0;
        self.words[w] |= b;
        !had
    }

    /// Removes `core`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, core: CoreId) -> bool {
        let (w, b) = Self::locate(core);
        let had = self.words[w] & b != 0;
        self.words[w] &= !b;
        had
    }

    /// Whether `core` is in the set.
    #[inline]
    pub fn contains(&self, core: CoreId) -> bool {
        let (w, b) = Self::locate(core);
        self.words[w] & b != 0
    }

    /// Number of cores in the set — CMCP's priority signal.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all cores.
    #[inline]
    pub fn clear(&mut self) {
        self.words = [0; WORDS];
    }

    /// Iterates the member cores in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = CoreId> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter { word }.map(move |b| CoreId((wi * 64 + b) as u16)))
    }

    #[inline]
    fn locate(core: CoreId) -> (usize, u64) {
        let i = core.index();
        assert!(i < MAX_CORES, "core id {i} out of range");
        (i / 64, 1u64 << (i % 64))
    }
}

impl fmt::Debug for CoreSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter().map(|c| c.0)).finish()
    }
}

impl FromIterator<CoreId> for CoreSet {
    fn from_iter<T: IntoIterator<Item = CoreId>>(iter: T) -> CoreSet {
        let mut s = CoreSet::empty();
        for c in iter {
            s.insert(c);
        }
        s
    }
}

struct BitIter {
    word: u64,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let b = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_size_constants() {
        assert_eq!(PageSize::K4.bytes(), 4096);
        assert_eq!(PageSize::K64.bytes(), 65536);
        assert_eq!(PageSize::M2.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::K4.pages_4k(), 1);
        assert_eq!(PageSize::K64.pages_4k(), 16);
        assert_eq!(PageSize::M2.pages_4k(), 512);
        assert_eq!(PageSize::K4.shift(), 12);
        assert_eq!(PageSize::K64.shift(), 16);
        assert_eq!(PageSize::M2.shift(), 21);
    }

    #[test]
    fn virt_addr_page_split() {
        let a = VirtAddr(0x1234_5678);
        assert_eq!(a.page(), VirtPage(0x0001_2345));
        assert_eq!(a.page_offset(), 0x678);
        assert_eq!(a.page().base_addr(), VirtAddr(0x1234_5000));
    }

    #[test]
    fn page_alignment() {
        let p = VirtPage(0x1234);
        assert_eq!(p.align_down(PageSize::K64), VirtPage(0x1230));
        assert_eq!(p.align_down(PageSize::M2), VirtPage(0x1200));
        assert!(VirtPage(0x1230).is_aligned(PageSize::K64));
        assert!(!VirtPage(0x1231).is_aligned(PageSize::K64));
        assert!(VirtPage(0).is_aligned(PageSize::M2));
    }

    #[test]
    fn coreset_insert_remove_contains() {
        let mut s = CoreSet::empty();
        assert!(s.is_empty());
        assert!(s.insert(CoreId(3)));
        assert!(!s.insert(CoreId(3)));
        assert!(s.contains(CoreId(3)));
        assert!(!s.contains(CoreId(4)));
        assert_eq!(s.count(), 1);
        assert!(s.remove(CoreId(3)));
        assert!(!s.remove(CoreId(3)));
        assert!(s.is_empty());
    }

    #[test]
    fn coreset_spans_words() {
        let mut s = CoreSet::empty();
        s.insert(CoreId(0));
        s.insert(CoreId(63));
        s.insert(CoreId(64));
        s.insert(CoreId(255));
        assert_eq!(s.count(), 4);
        let ids: Vec<u16> = s.iter().map(|c| c.0).collect();
        assert_eq!(ids, vec![0, 63, 64, 255]);
    }

    #[test]
    fn coreset_first_n() {
        let s = CoreSet::first_n(56);
        assert_eq!(s.count(), 56);
        assert!(s.contains(CoreId(0)));
        assert!(s.contains(CoreId(55)));
        assert!(!s.contains(CoreId(56)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coreset_rejects_out_of_range() {
        let mut s = CoreSet::empty();
        s.insert(CoreId(256));
    }

    #[test]
    fn coreset_debug_format() {
        let s: CoreSet = [CoreId(1), CoreId(5)].into_iter().collect();
        assert_eq!(format!("{s:?}"), "{1, 5}");
    }
}
