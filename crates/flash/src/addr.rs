//! Strongly-typed physical flash addresses.
//!
//! Addresses are flat indices wrapped in newtypes so that a block index can
//! never be confused with a page index ([C-NEWTYPE]). Conversions between
//! levels of the hierarchy go through a [`Geometry`].
//!
//! The flat orderings are canonical:
//!
//! - dies are numbered channel-major: `die = (channel * chips_per_channel +
//!   chip) * dies_per_chip + die_in_chip`;
//! - planes, blocks, wordlines and pages nest inside in the obvious way;
//! - page `p` within a block belongs to wordline `p / bits_per_cell` and has
//!   page type `p % bits_per_cell` (`0` = LSB, `1` = CSB, `2` = MSB, …).
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use crate::geometry::Geometry;
use std::fmt;

/// The kind of logical page a physical page is, within its wordline.
///
/// The ordinal value is the bit position in the cell: `Lsb = 0` is the
/// fastest-to-read page, higher ordinals need more sensing operations under
/// conventional coding. For QLC the four types are, in paper terms,
/// Bit 1 → `Lsb`, Bit 2 → `Csb`, Bit 3 → `Msb`, Bit 4 → `Top`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PageType {
    /// Least-significant bit page (1 sense under conventional coding).
    Lsb,
    /// Center-significant bit page (TLC and up).
    Csb,
    /// Most-significant bit page (MLC: the second bit; TLC: the third).
    Msb,
    /// Fourth bit page (QLC only).
    Top,
}

impl PageType {
    /// All page types, in bit order.
    pub const ALL: [PageType; 4] = [PageType::Lsb, PageType::Csb, PageType::Msb, PageType::Top];

    /// The bit index within the cell (0-based).
    pub fn bit_index(self) -> u8 {
        match self {
            PageType::Lsb => 0,
            PageType::Csb => 1,
            PageType::Msb => 2,
            PageType::Top => 3,
        }
    }

    /// The page type for bit index `bit` (0-based).
    ///
    /// # Panics
    ///
    /// Panics if `bit >= 4`.
    pub fn from_bit_index(bit: u8) -> Self {
        match bit {
            0 => PageType::Lsb,
            1 => PageType::Csb,
            2 => PageType::Msb,
            3 => PageType::Top,
            _ => panic!("page bit index {bit} out of range (max 3)"),
        }
    }

    /// Short label used in reports ("LSB", "CSB", …).
    pub fn label(self) -> &'static str {
        match self {
            PageType::Lsb => "LSB",
            PageType::Csb => "CSB",
            PageType::Msb => "MSB",
            PageType::Top => "TOP",
        }
    }
}

impl fmt::Display for PageType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

macro_rules! flat_addr {
    ($(#[$doc:meta])* $name:ident($repr:ty)) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);

        impl $name {
            /// The raw flat index.
            pub fn index(self) -> $repr {
                self.0
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}({})", stringify!($name), self.0)
            }
        }

        impl From<$repr> for $name {
            fn from(v: $repr) -> Self {
                $name(v)
            }
        }

        // `#[inline]` because dependents build without LTO: these sit
        // inside the per-page decode loops of ida-ftl's tables.
        impl ida_snap::Snap for $name {
            const FIXED_WIDTH: Option<usize> = <$repr as ida_snap::Snap>::FIXED_WIDTH;

            #[inline]
            fn encode(&self, w: &mut ida_snap::Writer) {
                ida_snap::Snap::encode(&self.0, w);
            }
            #[inline]
            fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
                Ok($name(<$repr as ida_snap::Snap>::decode(r)?))
            }
        }
    };
}

ida_snap::snap_enum!(PageType {
    0 => PageType::Lsb,
    1 => PageType::Csb,
    2 => PageType::Msb,
    3 => PageType::Top,
});

flat_addr!(
    /// Flat die index across the whole SSD (channel-major).
    DieAddr(u32)
);
flat_addr!(
    /// Flat plane index across the whole SSD.
    PlaneAddr(u32)
);
flat_addr!(
    /// Flat block index across the whole SSD.
    BlockAddr(u32)
);
flat_addr!(
    /// Flat wordline index across the whole SSD.
    WordlineAddr(u64)
);
flat_addr!(
    /// Flat physical page index across the whole SSD.
    PageAddr(u64)
);

impl DieAddr {
    /// The channel this die's chip hangs off.
    pub fn channel(self, g: &Geometry) -> u32 {
        self.0 / (g.chips_per_channel * g.dies_per_chip)
    }

    /// The flat chip index of this die.
    pub fn chip(self, g: &Geometry) -> u32 {
        self.0 / g.dies_per_chip
    }
}

impl PlaneAddr {
    /// The die containing this plane.
    pub fn die(self, g: &Geometry) -> DieAddr {
        DieAddr(self.0 / g.planes_per_die)
    }
}

impl BlockAddr {
    /// The plane containing this block.
    pub fn plane(self, g: &Geometry) -> PlaneAddr {
        PlaneAddr(self.0 / g.blocks_per_plane)
    }

    /// The die containing this block.
    pub fn die(self, g: &Geometry) -> DieAddr {
        self.plane(g).die(g)
    }

    /// The channel serving this block.
    pub fn channel(self, g: &Geometry) -> u32 {
        self.die(g).channel(g)
    }

    /// The first page of this block.
    pub fn first_page(self, g: &Geometry) -> PageAddr {
        PageAddr(self.0 as u64 * g.pages_per_block() as u64)
    }

    /// The page at offset `off` within this block.
    ///
    /// # Panics
    ///
    /// Panics if `off >= pages_per_block`.
    pub fn page(self, g: &Geometry, off: u32) -> PageAddr {
        assert!(
            off < g.pages_per_block(),
            "page offset {off} out of range for block with {} pages",
            g.pages_per_block()
        );
        PageAddr(self.0 as u64 * g.pages_per_block() as u64 + off as u64)
    }

    /// The wordline at offset `wl` within this block.
    ///
    /// # Panics
    ///
    /// Panics if `wl >= wordlines_per_block`.
    pub fn wordline(self, g: &Geometry, wl: u32) -> WordlineAddr {
        assert!(
            wl < g.wordlines_per_block,
            "wordline offset {wl} out of range ({} per block)",
            g.wordlines_per_block
        );
        WordlineAddr(self.0 as u64 * g.wordlines_per_block as u64 + wl as u64)
    }
}

impl WordlineAddr {
    /// The block containing this wordline.
    pub fn block(self, g: &Geometry) -> BlockAddr {
        BlockAddr((self.0 / g.wordlines_per_block as u64) as u32)
    }

    /// Wordline offset inside its block.
    pub fn offset_in_block(self, g: &Geometry) -> u32 {
        (self.0 % g.wordlines_per_block as u64) as u32
    }

    /// The page of type `ty` on this wordline.
    ///
    /// # Panics
    ///
    /// Panics if `ty` does not exist at this geometry's bits-per-cell (e.g.
    /// `Msb` on an MLC device is valid — bit index 2 is not).
    pub fn page(self, g: &Geometry, ty: PageType) -> PageAddr {
        assert!(
            (ty.bit_index() as u32) < g.bits_per_cell,
            "page type {ty} does not exist on a {}-bit cell",
            g.bits_per_cell
        );
        let block = self.block(g);
        let off = self.offset_in_block(g) * g.bits_per_cell + ty.bit_index() as u32;
        block.page(g, off)
    }
}

impl PageAddr {
    /// The block containing this page.
    pub fn block(self, g: &Geometry) -> BlockAddr {
        BlockAddr((self.0 / g.pages_per_block() as u64) as u32)
    }

    /// Page offset inside its block.
    pub fn offset_in_block(self, g: &Geometry) -> u32 {
        (self.0 % g.pages_per_block() as u64) as u32
    }

    /// The wordline carrying this page.
    pub fn wordline(self, g: &Geometry) -> WordlineAddr {
        let block = self.block(g);
        block.wordline(g, self.offset_in_block(g) / g.bits_per_cell)
    }

    /// Which of the wordline's logical pages this is (LSB/CSB/MSB/TOP).
    pub fn page_type(self, g: &Geometry) -> PageType {
        PageType::from_bit_index((self.offset_in_block(g) % g.bits_per_cell) as u8)
    }

    /// The die containing this page (the resource serialized during array
    /// operations).
    pub fn die(self, g: &Geometry) -> DieAddr {
        self.block(g).die(g)
    }

    /// The channel serving this page (the resource serialized during data
    /// transfer).
    pub fn channel(self, g: &Geometry) -> u32 {
        self.block(g).channel(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn g() -> Geometry {
        Geometry::tiny() // 2ch x 1chip x 1die x 1plane x 64 blocks x 16 WL, TLC
    }

    #[test]
    fn page_roundtrip_through_block() {
        let g = g();
        for block in [0u32, 1, 63] {
            let b = BlockAddr(block);
            for off in [0u32, 1, 47] {
                let p = b.page(&g, off);
                assert_eq!(p.block(&g), b);
                assert_eq!(p.offset_in_block(&g), off);
            }
        }
    }

    #[test]
    fn page_type_cycles_lsb_csb_msb() {
        let g = g();
        let b = BlockAddr(5);
        assert_eq!(b.page(&g, 0).page_type(&g), PageType::Lsb);
        assert_eq!(b.page(&g, 1).page_type(&g), PageType::Csb);
        assert_eq!(b.page(&g, 2).page_type(&g), PageType::Msb);
        assert_eq!(b.page(&g, 3).page_type(&g), PageType::Lsb);
        assert_eq!(b.page(&g, 47).page_type(&g), PageType::Msb);
    }

    #[test]
    fn wordline_page_mapping_is_consistent() {
        let g = g();
        let b = BlockAddr(7);
        let wl = b.wordline(&g, 3);
        for ty in [PageType::Lsb, PageType::Csb, PageType::Msb] {
            let p = wl.page(&g, ty);
            assert_eq!(p.wordline(&g), wl);
            assert_eq!(p.page_type(&g), ty);
        }
    }

    #[test]
    fn die_and_channel_decomposition() {
        let g = Geometry::paper_512gb();
        // Channel-major: dies 0..8 are channel 0 (4 chips x 2 dies).
        assert_eq!(DieAddr(0).channel(&g), 0);
        assert_eq!(DieAddr(7).channel(&g), 0);
        assert_eq!(DieAddr(8).channel(&g), 1);
        assert_eq!(DieAddr(31).channel(&g), 3);
        assert_eq!(DieAddr(9).chip(&g), 4);
    }

    #[test]
    fn block_to_die_uses_plane_nesting() {
        let g = Geometry::paper_512gb();
        // Blocks 0..5472 are plane 0 (die 0); 5472..10944 plane 1 (die 0);
        // 10944.. belongs to die 1.
        assert_eq!(BlockAddr(0).die(&g), DieAddr(0));
        assert_eq!(BlockAddr(5472).die(&g), DieAddr(0));
        assert_eq!(BlockAddr(2 * 5472).die(&g), DieAddr(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn page_offset_bounds_checked() {
        let g = g();
        let _ = BlockAddr(0).page(&g, 48);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn msb_rejected_on_mlc() {
        let g = Geometry::tiny().with_bits_per_cell(2);
        let _ = BlockAddr(0).wordline(&g, 0).page(&g, PageType::Msb);
    }

    #[test]
    fn page_type_ordering_matches_bit_index() {
        for (i, ty) in PageType::ALL.iter().enumerate() {
            assert_eq!(ty.bit_index() as usize, i);
            assert_eq!(PageType::from_bit_index(i as u8), *ty);
        }
    }
}
