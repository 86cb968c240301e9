//! Page table entries, in the x86 long-mode layout the Xeon Phi uses —
//! packed into a single 64-bit word exactly as hardware stores them.
//!
//! The interesting part is the experimental 64 kB page encoding (paper
//! §4, Figure 5): there is no separate 64 kB leaf level. Instead the OS
//! writes 16 ordinary 4 kB PTEs — a naturally aligned, physically
//! contiguous run — and sets a *hint bit* in each of them. A core's TLB
//! then caches the whole run as a single 64 kB entry. Hardware-set
//! attributes behave unusually: the accessed/dirty bit lands in the 4 kB
//! sub-entry that was actually touched, not in the head entry, so the OS
//! must iterate all 16 sub-entries when collecting statistics.
//!
//! ## Bit layout
//!
//! One PTE is one `u64` (see DESIGN.md §11 for the rationale):
//!
//! | bits  | field        | meaning                                     |
//! |-------|--------------|---------------------------------------------|
//! | 0     | `P`          | present — the translation is valid          |
//! | 1     | `W`          | writable                                    |
//! | 5     | `A`          | accessed (hardware-set)                     |
//! | 6     | `D`          | dirty (hardware-set on write)               |
//! | 7     | `PS`         | 2 MB PD-level leaf                          |
//! | 11    | `H`          | Xeon Phi 64 kB hint                         |
//! | 12–43 | frame        | physical 4 kB frame number (32 bits)        |
//! | 44–52 | map count    | PSPT: cores mapping the block (≤ 256)       |
//! | 53–63 | —            | reserved, must be zero                      |
//!
//! The all-zero word is the canonical non-present entry, which is what
//! lets the radix table store leaves as dense `[Pte; 512]` arrays with
//! no `Option` discriminant.

use std::fmt;

use cmcp_arch::PhysFrame;

/// Software-visible PTE flag bits (bit positions follow x86 long mode;
/// the 64 kB hint uses one of the ignored bits, as the real extension
/// did).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PteFlags(u16);

impl PteFlags {
    /// P — the translation is valid.
    pub const PRESENT: PteFlags = PteFlags(1 << 0);
    /// R/W — writes allowed.
    pub const WRITABLE: PteFlags = PteFlags(1 << 1);
    /// A — set by hardware on first access since last clear.
    pub const ACCESSED: PteFlags = PteFlags(1 << 5);
    /// D — set by hardware on first write since last clear.
    pub const DIRTY: PteFlags = PteFlags(1 << 6);
    /// PS — this PD-level entry maps a 2 MB page.
    pub const LARGE: PteFlags = PteFlags(1 << 7);
    /// The Xeon Phi 64 kB hint: cache this PTE as part of a 64 kB run.
    pub const HINT_64K: PteFlags = PteFlags(1 << 11);

    /// The empty flag set.
    pub const fn empty() -> PteFlags {
        PteFlags(0)
    }

    /// All defined flag bits (what [`Pte::flags`] extracts from the word).
    pub const fn all() -> PteFlags {
        PteFlags(
            PteFlags::PRESENT.0
                | PteFlags::WRITABLE.0
                | PteFlags::ACCESSED.0
                | PteFlags::DIRTY.0
                | PteFlags::LARGE.0
                | PteFlags::HINT_64K.0,
        )
    }

    /// The raw bit pattern (low 12 bits of the PTE word).
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Whether every bit of `other` is set in `self`.
    #[inline]
    pub const fn contains(self, other: PteFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Union.
    #[inline]
    #[must_use]
    pub const fn union(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 | other.0)
    }

    /// Difference (`self` minus `other`).
    #[inline]
    #[must_use]
    pub const fn difference(self, other: PteFlags) -> PteFlags {
        PteFlags(self.0 & !other.0)
    }
}

impl std::ops::BitOr for PteFlags {
    type Output = PteFlags;
    fn bitor(self, rhs: PteFlags) -> PteFlags {
        self.union(rhs)
    }
}

impl fmt::Display for PteFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        for (bit, ch) in [
            (PteFlags::PRESENT, 'P'),
            (PteFlags::WRITABLE, 'W'),
            (PteFlags::ACCESSED, 'A'),
            (PteFlags::DIRTY, 'D'),
            (PteFlags::LARGE, 'L'),
            (PteFlags::HINT_64K, 'H'),
        ] {
            s.push(if self.contains(bit) { ch } else { '-' });
        }
        f.write_str(&s)
    }
}

/// First bit of the frame field.
pub const FRAME_SHIFT: u32 = 12;
/// Width of the frame field: `PhysFrame` is 32 bits.
pub const FRAME_BITS: u32 = 32;
/// First bit of the PSPT map-count field.
pub const MAP_COUNT_SHIFT: u32 = 44;
/// Width of the map-count field: counts up to `MAX_CORES` (256) mappers.
pub const MAP_COUNT_BITS: u32 = 9;

const FLAG_MASK: u64 = (1 << FRAME_SHIFT) - 1;
const FRAME_MASK: u64 = ((1 << FRAME_BITS) - 1) << FRAME_SHIFT;
const MAP_COUNT_MASK: u64 = ((1 << MAP_COUNT_BITS) - 1) << MAP_COUNT_SHIFT;

/// One page table entry: flags, frame number, and (under PSPT) the
/// block's core-map count packed into a single 64-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(transparent)]
pub struct Pte(u64);

impl Pte {
    /// The canonical non-present entry: the all-zero word.
    pub const EMPTY: Pte = Pte(0);

    /// A present entry pointing at `frame`.
    #[inline]
    pub fn new(frame: PhysFrame, flags: PteFlags) -> Pte {
        Pte(((frame.0 as u64) << FRAME_SHIFT) | (flags.0 | PteFlags::PRESENT.0) as u64 & FLAG_MASK)
    }

    /// Reconstructs an entry from its raw word (inverse of
    /// [`Pte::to_bits`]; reserved bits are preserved verbatim).
    #[inline]
    pub const fn from_bits(bits: u64) -> Pte {
        Pte(bits)
    }

    /// The raw 64-bit word exactly as the hardware would store it.
    #[inline]
    pub const fn to_bits(self) -> u64 {
        self.0
    }

    /// The referenced physical frame.
    #[inline]
    pub fn frame(&self) -> PhysFrame {
        PhysFrame(((self.0 & FRAME_MASK) >> FRAME_SHIFT) as u32)
    }

    /// All flags.
    #[inline]
    pub fn flags(&self) -> PteFlags {
        PteFlags((self.0 & FLAG_MASK) as u16 & PteFlags::all().0)
    }

    /// PSPT bookkeeping: number of cores currently mapping this block
    /// (meaningful on the head entry only; 0 outside PSPT).
    #[inline]
    pub fn map_count(&self) -> usize {
        ((self.0 & MAP_COUNT_MASK) >> MAP_COUNT_SHIFT) as usize
    }

    /// Overwrites the packed map count (saturating at the field width —
    /// 511, above `MAX_CORES`, so saturation never triggers in practice).
    #[inline]
    pub fn set_map_count(&mut self, count: usize) {
        let c = (count as u64).min((1 << MAP_COUNT_BITS) - 1);
        self.0 = (self.0 & !MAP_COUNT_MASK) | (c << MAP_COUNT_SHIFT);
    }

    #[inline]
    fn flag(&self, f: PteFlags) -> bool {
        self.0 & f.0 as u64 != 0
    }

    /// Whether the translation is valid.
    #[inline]
    pub fn present(&self) -> bool {
        self.flag(PteFlags::PRESENT)
    }

    /// Whether writes are allowed.
    #[inline]
    pub fn writable(&self) -> bool {
        self.flag(PteFlags::WRITABLE)
    }

    /// Whether hardware has recorded an access since the last clear.
    #[inline]
    pub fn accessed(&self) -> bool {
        self.flag(PteFlags::ACCESSED)
    }

    /// Whether hardware has recorded a write since the last clear.
    #[inline]
    pub fn dirty(&self) -> bool {
        self.flag(PteFlags::DIRTY)
    }

    /// Whether this entry carries the 64 kB hint bit.
    #[inline]
    pub fn hint_64k(&self) -> bool {
        self.flag(PteFlags::HINT_64K)
    }

    /// Whether this is a 2 MB PD-level leaf.
    #[inline]
    pub fn large(&self) -> bool {
        self.flag(PteFlags::LARGE)
    }

    /// Clears the 64 kB hint bit (used when a 64 kB run is split back
    /// into independent 4 kB mappings).
    #[inline]
    pub fn clear_hint_64k(&mut self) {
        self.0 &= !(PteFlags::HINT_64K.0 as u64);
    }

    /// Hardware behaviour on an access: set A, and D too if a write.
    #[inline]
    pub fn mark_accessed(&mut self, write: bool) {
        self.0 |= PteFlags::ACCESSED.0 as u64;
        if write {
            self.0 |= PteFlags::DIRTY.0 as u64;
        }
    }

    /// OS behaviour during an accessed-bit scan: read-and-clear A.
    /// Returns whether A was set.
    #[inline]
    pub fn test_and_clear_accessed(&mut self) -> bool {
        let was = self.accessed();
        self.0 &= !(PteFlags::ACCESSED.0 as u64);
        was
    }
}

impl fmt::Display for Pte {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.frame(), self.flags())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_is_present() {
        let p = Pte::new(PhysFrame(9), PteFlags::WRITABLE);
        assert!(p.present());
        assert!(p.writable());
        assert!(!p.accessed());
        assert!(!p.dirty());
        assert_eq!(p.frame(), PhysFrame(9));
    }

    #[test]
    fn empty_word_is_not_present() {
        assert!(!Pte::EMPTY.present());
        assert_eq!(Pte::EMPTY.to_bits(), 0);
        assert_eq!(Pte::default(), Pte::EMPTY);
    }

    #[test]
    fn mark_accessed_read_vs_write() {
        let mut p = Pte::new(PhysFrame(1), PteFlags::WRITABLE);
        p.mark_accessed(false);
        assert!(p.accessed());
        assert!(!p.dirty());
        p.mark_accessed(true);
        assert!(p.dirty());
    }

    #[test]
    fn test_and_clear_accessed_round_trip() {
        let mut p = Pte::new(PhysFrame(1), PteFlags::empty());
        assert!(!p.test_and_clear_accessed());
        p.mark_accessed(false);
        assert!(p.test_and_clear_accessed());
        assert!(!p.accessed());
        assert!(!p.test_and_clear_accessed());
    }

    #[test]
    fn hint_bit_is_independent() {
        let p = Pte::new(PhysFrame(2), PteFlags::HINT_64K | PteFlags::WRITABLE);
        assert!(p.hint_64k());
        assert!(!p.large());
    }

    #[test]
    fn flags_display() {
        let p = Pte::new(PhysFrame(0), PteFlags::WRITABLE | PteFlags::HINT_64K);
        assert_eq!(p.flags().to_string(), "PW---H");
    }

    #[test]
    fn flag_set_algebra() {
        let a = PteFlags::PRESENT | PteFlags::DIRTY;
        assert!(a.contains(PteFlags::PRESENT));
        assert!(!a.contains(PteFlags::PRESENT | PteFlags::WRITABLE));
        assert_eq!(a.difference(PteFlags::DIRTY), PteFlags::PRESENT);
        assert_eq!(PteFlags::empty().union(a), a);
    }

    #[test]
    fn map_count_is_isolated_from_flags_and_frame() {
        let mut p = Pte::new(PhysFrame(u32::MAX), PteFlags::all());
        assert_eq!(p.map_count(), 0);
        p.set_map_count(256);
        assert_eq!(p.map_count(), 256);
        assert_eq!(p.frame(), PhysFrame(u32::MAX));
        assert_eq!(p.flags(), PteFlags::all());
        p.set_map_count(0);
        assert_eq!(p.map_count(), 0);
        assert_eq!(p.frame(), PhysFrame(u32::MAX));
    }

    #[test]
    fn map_count_saturates_at_field_width() {
        let mut p = Pte::new(PhysFrame(0), PteFlags::empty());
        p.set_map_count(usize::MAX);
        assert_eq!(p.map_count(), 511);
    }

    /// Pins the 64-bit field layout with literal words: an accidental
    /// reshuffle of any field fails here even if the accessors stay
    /// self-consistent.
    #[test]
    fn word_layout_is_pinned() {
        // Flags occupy the exact long-mode bit positions.
        assert_eq!(PteFlags::PRESENT.bits(), 0x001);
        assert_eq!(PteFlags::WRITABLE.bits(), 0x002);
        assert_eq!(PteFlags::ACCESSED.bits(), 0x020);
        assert_eq!(PteFlags::DIRTY.bits(), 0x040);
        assert_eq!(PteFlags::LARGE.bits(), 0x080);
        assert_eq!(PteFlags::HINT_64K.bits(), 0x800);
        // Field geometry.
        assert_eq!(FRAME_SHIFT, 12);
        assert_eq!(FRAME_BITS, 32);
        assert_eq!(MAP_COUNT_SHIFT, 44);
        assert_eq!(MAP_COUNT_BITS, 9);
        // Whole words, spelled out.
        let p = Pte::new(PhysFrame(0xABCD_1234), PteFlags::WRITABLE);
        assert_eq!(p.to_bits(), 0x0000_0ABC_D123_4003);
        let mut q = Pte::new(PhysFrame(1), PteFlags::DIRTY | PteFlags::ACCESSED);
        q.set_map_count(3);
        assert_eq!(q.to_bits(), 0x0000_3000_0000_1061);
        let r = Pte::from_bits(0x0000_1000_0000_2801);
        assert_eq!(r.frame(), PhysFrame(2));
        assert!(r.hint_64k());
        assert_eq!(r.map_count(), 1);
    }

    proptest! {
        /// Round trip: any combination of flags, frame, and map count
        /// encodes into a word that decodes back to identical fields,
        /// and `from_bits(to_bits(x)) == x` exactly.
        #[test]
        fn packed_word_round_trips(
            frame in any::<u32>(),
            writable in any::<bool>(),
            accessed in any::<bool>(),
            dirty in any::<bool>(),
            large in any::<bool>(),
            hint in any::<bool>(),
            count in 0usize..512,
        ) {
            let mut flags = PteFlags::empty();
            for (on, f) in [
                (writable, PteFlags::WRITABLE),
                (accessed, PteFlags::ACCESSED),
                (dirty, PteFlags::DIRTY),
                (large, PteFlags::LARGE),
                (hint, PteFlags::HINT_64K),
            ] {
                if on {
                    flags = flags | f;
                }
            }
            let mut p = Pte::new(PhysFrame(frame), flags);
            p.set_map_count(count);
            prop_assert_eq!(p.frame(), PhysFrame(frame));
            prop_assert_eq!(p.flags(), flags | PteFlags::PRESENT);
            prop_assert_eq!(p.map_count(), count);
            prop_assert_eq!(p.writable(), writable);
            prop_assert_eq!(p.accessed(), accessed);
            prop_assert_eq!(p.dirty(), dirty);
            prop_assert_eq!(p.large(), large);
            prop_assert_eq!(p.hint_64k(), hint);
            let decoded = Pte::from_bits(p.to_bits());
            prop_assert_eq!(decoded, p);
            // No field leaks outside its mask: clearing the count
            // restores the count-free word bit for bit.
            let mut stripped = decoded;
            stripped.set_map_count(0);
            let mut bare = Pte::new(PhysFrame(frame), flags);
            bare.set_map_count(0);
            prop_assert_eq!(stripped.to_bits(), bare.to_bits());
        }
    }
}
