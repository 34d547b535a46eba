//! Page-level logical-to-physical mapping.

use ida_flash::addr::PageAddr;
use std::fmt;

/// A logical page number — the host-visible page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lpn(pub u64);

impl fmt::Display for Lpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lpn({})", self.0)
    }
}

/// Bidirectional page map: L2P for host reads, P2L for GC/refresh
/// relocation and validity queries.
///
/// Invariant: `l2p[l] == Some(p)` ⇔ `p2l[p] == Some(l)`.
#[derive(Debug, Clone)]
pub struct PageMap {
    l2p: Vec<Option<PageAddr>>,
    p2l: Vec<Option<Lpn>>,
}

impl ida_snap::Snap for Lpn {
    const FIXED_WIDTH: Option<usize> = <u64 as ida_snap::Snap>::FIXED_WIDTH;

    #[inline]
    fn encode(&self, w: &mut ida_snap::Writer) {
        ida_snap::Snap::encode(&self.0, w);
    }
    #[inline]
    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        Ok(Lpn(ida_snap::Snap::decode(r)?))
    }
}

ida_snap::snap_struct!(PageMap { l2p, p2l });

impl PageMap {
    /// A map for `logical_pages` LPNs over `physical_pages` flash pages,
    /// initially fully unmapped.
    pub fn new(logical_pages: u64, physical_pages: u64) -> Self {
        PageMap {
            l2p: vec![None; logical_pages as usize],
            p2l: vec![None; physical_pages as usize],
        }
    }

    /// Number of logical pages exposed.
    pub fn logical_pages(&self) -> u64 {
        self.l2p.len() as u64
    }

    /// The physical location of `lpn`, if mapped.
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is out of the exported range.
    pub fn translate(&self, lpn: Lpn) -> Option<PageAddr> {
        self.l2p[lpn.0 as usize]
    }

    /// The logical owner of physical page `page`, if any. `None` means the
    /// page is invalid (superseded or never written).
    pub fn owner(&self, page: PageAddr) -> Option<Lpn> {
        self.p2l[page.0 as usize]
    }

    /// Whether physical page `page` holds current data.
    pub fn is_valid(&self, page: PageAddr) -> bool {
        self.owner(page).is_some()
    }

    /// Map `lpn` to `page`, returning the previous physical location (now
    /// invalid) if there was one.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already owned by a different LPN — the FTL must
    /// never double-book a physical page.
    pub fn map(&mut self, lpn: Lpn, page: PageAddr) -> Option<PageAddr> {
        assert!(
            self.p2l[page.0 as usize].is_none(),
            "physical page {page} already owned by {:?}",
            self.p2l[page.0 as usize]
        );
        let old = self.l2p[lpn.0 as usize].take();
        if let Some(old_page) = old {
            self.p2l[old_page.0 as usize] = None;
        }
        self.l2p[lpn.0 as usize] = Some(page);
        self.p2l[page.0 as usize] = Some(lpn);
        old
    }

    /// Remove the mapping of `lpn` (host trim / discard), returning the
    /// freed physical page if there was one.
    pub fn unmap(&mut self, lpn: Lpn) -> Option<PageAddr> {
        let old = self.l2p[lpn.0 as usize].take();
        if let Some(p) = old {
            self.p2l[p.0 as usize] = None;
        }
        old
    }

    /// Relocate the data of physical page `from` to `to` (GC / refresh
    /// copy), preserving the logical mapping.
    ///
    /// Returns the LPN that moved, or `None` if `from` was invalid (the
    /// copy was wasted — callers avoid this by checking validity first).
    ///
    /// # Panics
    ///
    /// Panics if `to` is already owned.
    pub fn relocate(&mut self, from: PageAddr, to: PageAddr) -> Option<Lpn> {
        let lpn = self.p2l[from.0 as usize].take()?;
        assert!(
            self.p2l[to.0 as usize].is_none(),
            "relocation target {to} already owned"
        );
        self.l2p[lpn.0 as usize] = Some(to);
        self.p2l[to.0 as usize] = Some(lpn);
        Some(lpn)
    }

    /// Number of currently mapped logical pages.
    pub fn mapped_count(&self) -> u64 {
        self.l2p.iter().filter(|m| m.is_some()).count() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_and_translate_roundtrip() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.translate(Lpn(3)), None);
        m.map(Lpn(3), PageAddr(42));
        assert_eq!(m.translate(Lpn(3)), Some(PageAddr(42)));
        assert_eq!(m.owner(PageAddr(42)), Some(Lpn(3)));
        assert!(m.is_valid(PageAddr(42)));
    }

    #[test]
    fn remap_invalidates_old_location() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(1), PageAddr(5));
        let old = m.map(Lpn(1), PageAddr(6));
        assert_eq!(old, Some(PageAddr(5)));
        assert!(!m.is_valid(PageAddr(5)));
        assert_eq!(m.translate(Lpn(1)), Some(PageAddr(6)));
    }

    #[test]
    fn unmap_frees_physical_page() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(2), PageAddr(7));
        assert_eq!(m.unmap(Lpn(2)), Some(PageAddr(7)));
        assert!(!m.is_valid(PageAddr(7)));
        assert_eq!(m.unmap(Lpn(2)), None);
    }

    #[test]
    fn relocate_moves_ownership() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(9), PageAddr(11));
        assert_eq!(m.relocate(PageAddr(11), PageAddr(12)), Some(Lpn(9)));
        assert_eq!(m.translate(Lpn(9)), Some(PageAddr(12)));
        assert!(!m.is_valid(PageAddr(11)));
    }

    #[test]
    fn relocate_of_invalid_page_is_none() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.relocate(PageAddr(1), PageAddr(2)), None);
        assert!(!m.is_valid(PageAddr(2)));
    }

    #[test]
    #[should_panic(expected = "already owned")]
    fn double_booking_detected() {
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(1), PageAddr(5));
        m.map(Lpn(2), PageAddr(5));
    }

    /// An encoded option table round-trips through the bulk path, every
    /// truncation and every bad tag is an `Err`, and a `u64::MAX` length
    /// is not reserved.
    fn assert_rejects_hostile<T>(v: Vec<Option<T>>)
    where
        T: ida_snap::Snap + PartialEq + fmt::Debug,
    {
        use ida_snap::Snap;
        let bytes = v.to_snap_bytes();
        assert_eq!(Vec::<Option<T>>::from_snap_bytes(&bytes).unwrap(), v);
        for cut in 0..bytes.len() {
            assert!(
                Vec::<Option<T>>::from_snap_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        let mut at = 8;
        for x in &v {
            for bad in 2..=u8::MAX {
                let mut b = bytes.clone();
                b[at] = bad;
                let err = Vec::<Option<T>>::from_snap_bytes(&b).unwrap_err();
                assert!(err.0.contains("bad option tag"), "{err}");
            }
            at += if x.is_some() { 9 } else { 1 };
        }
        let mut huge = u64::MAX.to_snap_bytes();
        huge.extend_from_slice(&bytes[8..]);
        assert!(Vec::<Option<T>>::from_snap_bytes(&huge).is_err());
    }

    #[test]
    fn map_tables_bulk_codec_rejects_hostile_input() {
        assert_rejects_hostile(vec![
            Some(PageAddr(4)),
            None,
            None,
            Some(PageAddr(u64::MAX)),
            None,
            Some(PageAddr(0)),
        ]);
        assert_rejects_hostile(vec![None, Some(Lpn(1 << 33)), Some(Lpn(2)), None]);
    }

    #[test]
    fn page_map_round_trips() {
        use ida_snap::Snap;
        let mut m = PageMap::new(10, 100);
        m.map(Lpn(1), PageAddr(5));
        m.map(Lpn(9), PageAddr(99));
        let back = PageMap::from_snap_bytes(&m.to_snap_bytes()).unwrap();
        assert_eq!(back.l2p, m.l2p);
        assert_eq!(back.p2l, m.p2l);
    }

    #[test]
    fn mapped_count_tracks_mutations() {
        let mut m = PageMap::new(10, 100);
        assert_eq!(m.mapped_count(), 0);
        m.map(Lpn(1), PageAddr(0));
        m.map(Lpn(2), PageAddr(1));
        assert_eq!(m.mapped_count(), 2);
        m.unmap(Lpn(1));
        assert_eq!(m.mapped_count(), 1);
    }
}
