//! Simulated out-of-band (OOB) metadata — the persistent side of the FTL.
//!
//! Real flash pages carry a spare area the FTL uses to stamp each program
//! with its logical page number and a monotonically increasing sequence
//! number, and real controllers keep per-block markers (bad, erase count)
//! plus a small journal for multi-step operations. This module simulates
//! exactly that surface: everything in an [`OobStore`] survives a power
//! loss, while the FTL's in-DRAM structures (page map, block table,
//! allocator, refresh queue) do not and are rebuilt from here by the
//! recovery scan.
//!
//! The IDA-specific hazard lives here too: a voltage adjustment changes a
//! wordline's coding in place, so the adjustment is journaled as an
//! *intent* (the planned keep-masks), then each wordline records a
//! `merged` mask when its pulse lands and a `committed` flag when its new
//! coding becomes authoritative. A crash between the two is detected on
//! recovery and rolled forward, which is what makes the merge atomic per
//! wordline.

use ida_flash::addr::{BlockAddr, PageAddr};
use ida_flash::geometry::Geometry;

/// What the spare area of one physical page records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageRecord {
    /// Never programmed since the last erase.
    Erased,
    /// Programmed with host/relocated data.
    Data {
        /// Logical page stamped at program time.
        lpn: u64,
        /// Global program sequence number (higher wins at rebuild).
        seq: u64,
    },
    /// The program attempt failed; the page holds nothing usable.
    Failed,
}

/// Widest `PageRecord` encoding: tag, `lpn`, `seq`.
const PAGE_RECORD_MAX: usize = 1 + 8 + 8;

impl ida_snap::Snap for PageRecord {
    #[inline]
    fn encode(&self, w: &mut ida_snap::Writer) {
        match self {
            PageRecord::Erased => 0u8.encode(w),
            PageRecord::Data { lpn, seq } => {
                1u8.encode(w);
                lpn.encode(w);
                seq.encode(w);
            }
            PageRecord::Failed => 2u8.encode(w),
        }
    }
    fn decode(r: &mut ida_snap::Reader<'_>) -> Result<Self, ida_snap::SnapError> {
        match u8::decode(r)? {
            0 => Ok(PageRecord::Erased),
            1 => Ok(PageRecord::Data {
                lpn: u64::decode(r)?,
                seq: u64::decode(r)?,
            }),
            2 => Ok(PageRecord::Failed),
            tag => Err(bad_page_record_tag(tag)),
        }
    }
    // The store holds one record per physical page (a million at the
    // smoke geometry), so decode takes the bulk record path: one bounds
    // check per record and no buffer besides the output itself. Encode
    // keeps the default element loop over the inlined `encode` above; a
    // pass counting `Data` records to reserve the exact size cost more
    // than the buffer growth it saved.
    fn decode_vec(
        len: usize,
        r: &mut ida_snap::Reader<'_>,
    ) -> Result<Vec<Self>, ida_snap::SnapError> {
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8-byte field"));
        r.decode_records(len, PAGE_RECORD_MAX, |w| match w[0] {
            0 => Ok((PageRecord::Erased, 1)),
            1 => Ok((
                PageRecord::Data {
                    lpn: word(&w[1..9]),
                    seq: word(&w[9..17]),
                },
                PAGE_RECORD_MAX,
            )),
            2 => Ok((PageRecord::Failed, 1)),
            tag => Err(bad_page_record_tag(tag)),
        })
    }
}

#[cold]
fn bad_page_record_tag(tag: u8) -> ida_snap::SnapError {
    ida_snap::SnapError::new(format!("bad PageRecord tag {tag}"))
}

/// Persistent per-block metadata.
#[derive(Debug, Clone, Default)]
struct BlockOob {
    bad: bool,
    spare: bool,
    erase_count: u32,
    /// Per-wordline merge-pulse record (the keep-mask the pulse applied).
    merged: Vec<u8>,
    /// Per-wordline commit flag: the merged coding is authoritative.
    committed: Vec<bool>,
    /// Open refresh-adjustment intent: planned `(wordline, keep_mask)`
    /// pairs, journaled before the first pulse and cleared after verify.
    intent: Option<Vec<(u32, u8)>>,
}

/// The simulated OOB store for a whole device.
#[derive(Debug, Clone)]
pub struct OobStore {
    geometry: Geometry,
    pages: Vec<PageRecord>,
    blocks: Vec<BlockOob>,
    next_seq: u64,
}

ida_snap::snap_struct!(BlockOob {
    bad,
    spare,
    erase_count,
    merged,
    committed,
    intent,
});

ida_snap::snap_struct!(OobStore {
    geometry,
    pages,
    blocks,
    next_seq,
});

impl OobStore {
    /// A fresh store: every page erased, every block clean.
    pub fn new(geometry: Geometry) -> Self {
        let wl = geometry.wordlines_per_block as usize;
        OobStore {
            geometry,
            pages: vec![PageRecord::Erased; geometry.total_pages() as usize],
            blocks: (0..geometry.total_blocks())
                .map(|_| BlockOob {
                    merged: vec![0; wl],
                    committed: vec![false; wl],
                    ..BlockOob::default()
                })
                .collect(),
            next_seq: 0,
        }
    }

    fn block(&self, b: BlockAddr) -> &BlockOob {
        &self.blocks[b.index() as usize]
    }

    fn block_mut(&mut self, b: BlockAddr) -> &mut BlockOob {
        &mut self.blocks[b.index() as usize]
    }

    /// The record in `page`'s spare area.
    pub fn page(&self, page: PageAddr) -> PageRecord {
        self.pages[page.index() as usize]
    }

    /// Stamp a successful program of `lpn` into `page`; returns the
    /// sequence number assigned.
    pub fn record_program(&mut self, page: PageAddr, lpn: u64) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pages[page.index() as usize] = PageRecord::Data { lpn, seq };
        seq
    }

    /// Mark `page` as a failed program attempt.
    pub fn record_failed(&mut self, page: PageAddr) {
        self.pages[page.index() as usize] = PageRecord::Failed;
    }

    /// Pages of `block` programmed (data or failed) since its last erase.
    /// Programs are sequential, so this equals the block's write pointer.
    pub fn programmed_count(&self, b: BlockAddr) -> u32 {
        let first = b.first_page(&self.geometry).index() as usize;
        let n = self.geometry.pages_per_block() as usize;
        self.pages[first..first + n]
            .iter()
            .filter(|r| !matches!(r, PageRecord::Erased))
            .count() as u32
    }

    /// Failed-program marks in `block` since its last erase.
    pub fn failed_count(&self, b: BlockAddr) -> u32 {
        let first = b.first_page(&self.geometry).index() as usize;
        let n = self.geometry.pages_per_block() as usize;
        self.pages[first..first + n]
            .iter()
            .filter(|r| matches!(r, PageRecord::Failed))
            .count() as u32
    }

    /// A successful erase of `block`: clears every page record, the
    /// wordline merge state and any open intent, and bumps the persistent
    /// erase count.
    pub fn record_erase(&mut self, b: BlockAddr) {
        let first = b.first_page(&self.geometry).index() as usize;
        let n = self.geometry.pages_per_block() as usize;
        self.pages[first..first + n].fill(PageRecord::Erased);
        let oob = self.block_mut(b);
        oob.erase_count += 1;
        oob.merged.fill(0);
        oob.committed.fill(false);
        oob.intent = None;
    }

    /// Persistent erase count of `block`.
    pub fn erase_count(&self, b: BlockAddr) -> u32 {
        self.block(b).erase_count
    }

    /// Retire `block` to the grown-bad list.
    pub fn mark_bad(&mut self, b: BlockAddr) {
        self.block_mut(b).bad = true;
    }

    /// Whether `block` is on the grown-bad list.
    pub fn is_bad(&self, b: BlockAddr) -> bool {
        self.block(b).bad
    }

    /// Number of grown-bad blocks.
    pub fn bad_count(&self) -> u32 {
        self.blocks.iter().filter(|o| o.bad).count() as u32
    }

    /// Flag `block` as belonging to the reserved spare pool.
    pub fn set_spare(&mut self, b: BlockAddr, spare: bool) {
        self.block_mut(b).spare = spare;
    }

    /// Whether `block` sits in the reserved spare pool.
    pub fn is_spare(&self, b: BlockAddr) -> bool {
        self.block(b).spare
    }

    /// Journal a refresh-adjustment intent for `block`: the planned
    /// `(wordline, keep_mask)` pairs.
    pub fn set_intent(&mut self, b: BlockAddr, masks: &[(u32, u8)]) {
        self.block_mut(b).intent = Some(masks.to_vec());
    }

    /// The open intent on `block`, if any.
    pub fn intent(&self, b: BlockAddr) -> Option<&[(u32, u8)]> {
        self.block(b).intent.as_deref()
    }

    /// Close the intent on `block` (adjustment fully verified).
    pub fn clear_intent(&mut self, b: BlockAddr) {
        self.block_mut(b).intent = None;
    }

    /// Record that wordline `wl` of `block` received its merge pulse with
    /// `mask` as the keep-mask.
    pub fn record_merge(&mut self, b: BlockAddr, wl: u32, mask: u8) {
        self.block_mut(b).merged[wl as usize] = mask;
    }

    /// Commit wordline `wl` of `block`: its merged coding is now
    /// authoritative for reads.
    pub fn commit_merge(&mut self, b: BlockAddr, wl: u32) {
        self.block_mut(b).committed[wl as usize] = true;
    }

    /// The merge-pulse mask recorded for wordline `wl` (0 = no pulse).
    pub fn merged_mask(&self, b: BlockAddr, wl: u32) -> u8 {
        self.block(b).merged[wl as usize]
    }

    /// Whether wordline `wl`'s merge is committed.
    pub fn is_committed(&self, b: BlockAddr, wl: u32) -> bool {
        self.block(b).committed[wl as usize]
    }

    /// Per-wordline keep-masks of `block` counting only *committed*
    /// merges — the authoritative coding state a recovery scan trusts.
    pub fn committed_masks(&self, b: BlockAddr) -> Vec<u8> {
        let oob = self.block(b);
        oob.merged
            .iter()
            .zip(&oob.committed)
            .map(|(&m, &c)| if c { m } else { 0 })
            .collect()
    }

    /// Every data record in the store as `(page, lpn, seq)`, in physical
    /// page order. The recovery scan sorts these by `seq` to rebuild the
    /// mapping table.
    pub fn data_records(&self) -> impl Iterator<Item = (PageAddr, u64, u64)> + '_ {
        self.pages.iter().enumerate().filter_map(|(i, r)| match r {
            PageRecord::Data { lpn, seq } => Some((PageAddr(i as u64), *lpn, *seq)),
            _ => None,
        })
    }

    /// Blocks with an open refresh-adjustment intent.
    pub fn open_intents(&self) -> Vec<BlockAddr> {
        self.blocks
            .iter()
            .enumerate()
            .filter(|(_, o)| o.intent.is_some())
            .map(|(i, _)| BlockAddr(i as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> OobStore {
        OobStore::new(Geometry::tiny())
    }

    #[test]
    fn program_records_are_sequenced_and_erase_clears_them() {
        let mut o = store();
        let b = BlockAddr(3);
        let g = Geometry::tiny();
        let s0 = o.record_program(b.page(&g, 0), 40);
        let s1 = o.record_program(b.page(&g, 1), 41);
        assert!(s1 > s0);
        o.record_failed(b.page(&g, 2));
        assert_eq!(o.programmed_count(b), 3);
        assert_eq!(o.failed_count(b), 1);
        assert_eq!(o.page(b.page(&g, 0)), PageRecord::Data { lpn: 40, seq: s0 });
        o.record_erase(b);
        assert_eq!(o.programmed_count(b), 0);
        assert_eq!(o.erase_count(b), 1);
        assert_eq!(o.page(b.page(&g, 0)), PageRecord::Erased);
    }

    #[test]
    fn intent_and_merge_lifecycle() {
        let mut o = store();
        let b = BlockAddr(5);
        o.set_intent(b, &[(0, 0b011), (2, 0b101)]);
        assert_eq!(o.open_intents(), vec![b]);
        o.record_merge(b, 0, 0b011);
        assert_eq!(o.merged_mask(b, 0), 0b011);
        assert!(!o.is_committed(b, 0));
        assert_eq!(
            o.committed_masks(b)[0],
            0,
            "uncommitted merge is not authoritative"
        );
        o.commit_merge(b, 0);
        assert_eq!(o.committed_masks(b)[0], 0b011);
        o.clear_intent(b);
        assert!(o.open_intents().is_empty());
    }

    #[test]
    fn bad_and_spare_flags_persist_until_set_back() {
        let mut o = store();
        let b = BlockAddr(9);
        o.set_spare(b, true);
        assert!(o.is_spare(b));
        o.set_spare(b, false);
        o.mark_bad(b);
        assert!(o.is_bad(b));
        assert_eq!(o.bad_count(), 1);
    }

    fn records() -> Vec<PageRecord> {
        vec![
            PageRecord::Data { lpn: 7, seq: 0 },
            PageRecord::Erased,
            PageRecord::Failed,
            PageRecord::Data {
                lpn: u64::MAX,
                seq: 1 << 40,
            },
            PageRecord::Erased,
            PageRecord::Data { lpn: 3, seq: 9 },
        ]
    }

    #[test]
    fn page_record_bulk_decode_round_trips_and_rejects_hostile_input() {
        use ida_snap::Snap;
        let bytes = records().to_snap_bytes();
        assert_eq!(
            Vec::<PageRecord>::from_snap_bytes(&bytes).unwrap(),
            records()
        );
        for cut in 0..bytes.len() {
            assert!(
                Vec::<PageRecord>::from_snap_bytes(&bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
        // Tag offsets after the 8-byte length: 17-byte Data, 1-byte others.
        let tags = [8, 25, 26, 27, 44, 45];
        for at in tags {
            for bad in 3..=u8::MAX {
                let mut b = bytes.clone();
                b[at] = bad;
                let err = Vec::<PageRecord>::from_snap_bytes(&b).unwrap_err();
                assert!(err.0.contains("bad PageRecord tag"), "{err}");
            }
        }
        // A length prefix of u64::MAX over a short stream errors without
        // reserving that many records.
        let mut huge = u64::MAX.to_snap_bytes();
        huge.extend_from_slice(&bytes[8..]);
        assert!(Vec::<PageRecord>::from_snap_bytes(&huge).is_err());
    }

    #[test]
    fn data_records_enumerate_only_data() {
        let mut o = store();
        let g = Geometry::tiny();
        let b = BlockAddr(0);
        o.record_program(b.page(&g, 0), 7);
        o.record_failed(b.page(&g, 1));
        let recs: Vec<_> = o.data_records().collect();
        assert_eq!(recs, vec![(b.page(&g, 0), 7, 0)]);
    }
}
