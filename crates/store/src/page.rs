//! Slotted heap pages.
//!
//! Every page is [`PAGE_SIZE`] bytes. Records grow downward from the end of
//! the page while the slot directory grows upward from the header, the
//! classic slotted-page layout used by relational engines:
//!
//! ```text
//! +--------+------------------+ .... +----------------+--------------+
//! | header | slot 0 | slot 1 |  free | record 1       | record 0     |
//! +--------+------------------+ .... +----------------+--------------+
//! 0       HDR                 ^free_end                          PAGE_SIZE
//! ```
//!
//! A slot is `(offset: u16, len: u16)`. Offset `0` marks a tombstone (no
//! record can start inside the header, so `0` is unambiguous). Deleting a
//! record tombstones its slot; the slot id stays stable so `RowId`s held by
//! indexes remain valid until explicitly reused. Fragmented free space is
//! reclaimed by [`PageMut::compact`], which rewrites live records without
//! changing slot ids.

// Panic-freedom: this file is on the request path or the engine core,
// so its non-test code returns typed errors instead of panicking.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::error::{Result, StoreError};

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;
/// Bytes reserved for the page header.
pub const HEADER_SIZE: usize = 12;
/// Bytes per slot-directory entry.
pub const SLOT_SIZE: usize = 4;

const MAGIC: u16 = 0x5054; // "PT"
const OFF_MAGIC: usize = 0;
const OFF_TYPE: usize = 2;
const OFF_SLOT_COUNT: usize = 4;
const OFF_FREE_END: usize = 6;
const OFF_NEXT: usize = 8;

/// What a page is used for. Stored in the header so a scan of the file can
/// classify pages after a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageType {
    /// Unallocated / recycled.
    Free,
    /// Heap page holding table rows.
    Heap,
}

impl PageType {
    fn tag(self) -> u8 {
        match self {
            PageType::Free => 0,
            PageType::Heap => 1,
        }
    }
    fn from_tag(t: u8) -> Result<Self> {
        Ok(match t {
            0 => PageType::Free,
            1 => PageType::Heap,
            other => return Err(StoreError::Corrupt(format!("bad page type {other}"))),
        })
    }
}

/// Identifier of a page within the page file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PageId(pub u32);

/// Stable address of a record: page plus slot index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// The page holding the record.
    pub page: PageId,
    /// Slot index within the page's slot directory.
    pub slot: u16,
}

impl RowId {
    /// Pack into a u64 (page in high bits) for compact storage in indexes.
    pub fn to_u64(self) -> u64 {
        (u64::from(self.page.0) << 16) | u64::from(self.slot)
    }

    /// Inverse of [`RowId::to_u64`].
    pub fn from_u64(v: u64) -> Self {
        RowId {
            page: PageId((v >> 16) as u32),
            slot: (v & 0xFFFF) as u16,
        }
    }
}

impl std::fmt::Display for RowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.page.0, self.slot)
    }
}

// The field accessors are *total*: an out-of-bounds offset — which only
// corrupted header bytes can produce, e.g. a slot_count of 0xFFFF
// driving the slot directory past PAGE_SIZE — reads as zero and writes
// nowhere, so corruption surfaces as tombstones/absent data for the
// checker to report, never as a slice-bounds panic in the engine.
#[inline]
fn get_u16(buf: &[u8], off: usize) -> u16 {
    buf.get(off..off.wrapping_add(2))
        .and_then(|b| <[u8; 2]>::try_from(b).ok())
        .map_or(0, u16::from_be_bytes)
}
#[inline]
fn put_u16(buf: &mut [u8], off: usize, v: u16) {
    if let Some(dst) = buf.get_mut(off..off.wrapping_add(2)) {
        dst.copy_from_slice(&v.to_be_bytes());
    } else {
        debug_assert!(false, "put_u16 out of bounds at {off}");
    }
}
#[inline]
fn get_u32(buf: &[u8], off: usize) -> u32 {
    buf.get(off..off.wrapping_add(4))
        .and_then(|b| <[u8; 4]>::try_from(b).ok())
        .map_or(0, u32::from_be_bytes)
}
#[inline]
fn put_u32(buf: &mut [u8], off: usize, v: u32) {
    if let Some(dst) = buf.get_mut(off..off.wrapping_add(4)) {
        dst.copy_from_slice(&v.to_be_bytes());
    } else {
        debug_assert!(false, "put_u32 out of bounds at {off}");
    }
}

/// Read-only view over a page buffer.
pub struct PageRef<'a> {
    buf: &'a [u8],
}

impl<'a> PageRef<'a> {
    /// Wrap an existing page buffer. Panics if the buffer is not
    /// [`PAGE_SIZE`] bytes (programmer error, not data corruption).
    pub fn new(buf: &'a [u8]) -> Self {
        assert_eq!(buf.len(), PAGE_SIZE, "page buffer must be PAGE_SIZE");
        PageRef { buf }
    }

    /// Validate the magic number; distinguishes formatted pages from
    /// zero-filled or foreign bytes.
    pub fn is_formatted(&self) -> bool {
        get_u16(self.buf, OFF_MAGIC) == MAGIC
    }

    /// The page's type tag.
    pub fn page_type(&self) -> Result<PageType> {
        PageType::from_tag(self.buf.get(OFF_TYPE).copied().unwrap_or(u8::MAX))
    }

    /// Number of slots in the directory (including tombstones).
    pub fn slot_count(&self) -> u16 {
        get_u16(self.buf, OFF_SLOT_COUNT)
    }

    /// Offset of the start of the record area.
    pub fn free_end(&self) -> u16 {
        get_u16(self.buf, OFF_FREE_END)
    }

    /// Link to the next page of the owning table (`u32::MAX` = none).
    pub fn next_page(&self) -> Option<PageId> {
        let v = get_u32(self.buf, OFF_NEXT);
        (v != u32::MAX).then_some(PageId(v))
    }

    pub(crate) fn slot(&self, i: u16) -> (u16, u16) {
        let base = HEADER_SIZE + usize::from(i) * SLOT_SIZE;
        (get_u16(self.buf, base), get_u16(self.buf, base + 2))
    }

    /// Record bytes at `slot`, or `None` for out-of-range / tombstoned
    /// slots — and for slots whose offset/length land outside the page,
    /// which only corrupted bytes can produce. Corruption must surface
    /// as absent data (callers then report it as a typed error or fsck
    /// finding), never as a slice-bounds panic.
    pub fn get(&self, slot: u16) -> Option<&'a [u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (off, len) = self.slot(slot);
        if off == 0 {
            return None; // tombstone
        }
        self.buf
            .get(usize::from(off)..usize::from(off) + usize::from(len))
    }

    /// Iterate `(slot, record)` over live records.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &'a [u8])> + '_ {
        (0..self.slot_count()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }

    /// Number of live (non-tombstoned) records.
    pub fn live_count(&self) -> usize {
        (0..self.slot_count())
            .filter(|&s| {
                let (off, _) = self.slot(s);
                off != 0
            })
            .count()
    }

    /// Contiguous free bytes between the slot directory and record area.
    pub fn contiguous_free(&self) -> usize {
        let dir_end = HEADER_SIZE + usize::from(self.slot_count()) * SLOT_SIZE;
        usize::from(self.free_end()).saturating_sub(dir_end)
    }

    /// Total reclaimable bytes (contiguous free + dead record space).
    pub fn total_free(&self) -> usize {
        let live: usize = (0..self.slot_count())
            .map(|s| {
                let (off, len) = self.slot(s);
                if off == 0 {
                    0
                } else {
                    usize::from(len)
                }
            })
            .sum();
        let dir_end = HEADER_SIZE + usize::from(self.slot_count()) * SLOT_SIZE;
        PAGE_SIZE - dir_end - live
    }
}

/// Mutable view over a page buffer.
pub struct PageMut<'a> {
    buf: &'a mut [u8],
}

impl<'a> PageMut<'a> {
    /// Wrap an existing page buffer for mutation.
    pub fn new(buf: &'a mut [u8]) -> Self {
        assert_eq!(buf.len(), PAGE_SIZE, "page buffer must be PAGE_SIZE");
        PageMut { buf }
    }

    /// Format the buffer as an empty page of the given type.
    pub fn format(&mut self, ty: PageType) {
        self.buf.fill(0);
        put_u16(self.buf, OFF_MAGIC, MAGIC);
        if let Some(b) = self.buf.get_mut(OFF_TYPE) {
            *b = ty.tag();
        }
        put_u16(self.buf, OFF_SLOT_COUNT, 0);
        put_u16(self.buf, OFF_FREE_END, PAGE_SIZE as u16);
        put_u32(self.buf, OFF_NEXT, u32::MAX);
    }

    /// Read-only view of this page.
    pub fn as_ref(&self) -> PageRef<'_> {
        PageRef::new(self.buf)
    }

    /// Set the next-page link.
    pub fn set_next_page(&mut self, next: Option<PageId>) {
        put_u32(self.buf, OFF_NEXT, next.map_or(u32::MAX, |p| p.0));
    }

    fn set_slot(&mut self, i: u16, off: u16, len: u16) {
        let base = HEADER_SIZE + usize::from(i) * SLOT_SIZE;
        put_u16(self.buf, base, off);
        put_u16(self.buf, base + 2, len);
    }

    /// Insert a record, reusing the lowest tombstoned slot if any.
    /// Returns the slot used, or `Err(PageFull)` if the record cannot fit
    /// even after compaction.
    pub fn insert(&mut self, record: &[u8]) -> Result<u16> {
        let mut used = None;
        self.insert_each([record], |slot| used = Some(slot))?;
        used.ok_or(StoreError::PageFull)
    }

    /// Insert `records` in order, each into the slot [`PageMut::insert`]
    /// would give it (the lowest tombstone left, else a new slot), and
    /// call `placed` with that slot. The slot directory is scanned for
    /// tombstones once for the whole run: filling a tombstone never
    /// creates a lower one. Stops, with `Ok`, at the first record that
    /// does not fit even after compaction; the caller counts the `placed`
    /// calls to see how far the run got.
    pub fn insert_each<'r>(
        &mut self,
        records: impl IntoIterator<Item = &'r [u8]>,
        mut placed: impl FnMut(u16),
    ) -> Result<()> {
        let count = self.as_ref().slot_count();
        let mut scan = 0;
        for record in records {
            while scan < count && self.as_ref().slot(scan).0 != 0 {
                scan += 1;
            }
            let slot = if scan < count {
                scan
            } else {
                self.as_ref().slot_count()
            };
            match self.insert_at(slot, record) {
                Ok(_) => placed(slot),
                Err(StoreError::PageFull) => break,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Insert a record at a *specific* slot (used by WAL redo so that
    /// recovered rows land at their original `RowId`s). Any intermediate
    /// slots created are tombstones. Errors if the slot is occupied.
    pub fn insert_at(&mut self, slot: u16, record: &[u8]) -> Result<u16> {
        let needed_new_slots = {
            let count = self.as_ref().slot_count();
            if slot >= count {
                usize::from(slot - count) + 1
            } else {
                let (off, _) = self.as_ref().slot(slot);
                if off != 0 {
                    return Err(StoreError::Corrupt(format!(
                        "insert_at over live slot {slot}"
                    )));
                }
                0
            }
        };
        let space_needed = record.len() + needed_new_slots * SLOT_SIZE;
        if self.as_ref().contiguous_free() < space_needed {
            if self.as_ref().total_free() < space_needed {
                return Err(StoreError::PageFull);
            }
            self.compact();
            if self.as_ref().contiguous_free() < space_needed {
                return Err(StoreError::PageFull);
            }
        }
        // Extend the directory if necessary, tombstoning intermediates.
        let count = self.as_ref().slot_count();
        if slot >= count {
            for s in count..=slot {
                self.set_slot(s, 0, 0);
            }
            put_u16(self.buf, OFF_SLOT_COUNT, slot + 1);
        }
        // Place the record. A corrupt free_end (only disk damage can put
        // it outside the page) surfaces as a typed error, not a panic.
        let new_end = usize::from(self.as_ref().free_end())
            .checked_sub(record.len())
            .ok_or_else(|| StoreError::Corrupt("free_end underflows record area".into()))?;
        self.buf
            .get_mut(new_end..new_end + record.len())
            .ok_or_else(|| StoreError::Corrupt("record area outside page bounds".into()))?
            .copy_from_slice(record);
        put_u16(self.buf, OFF_FREE_END, new_end as u16);
        self.set_slot(slot, new_end as u16, record.len() as u16);
        debug_assert!(
            crate::check::page_is_sound(self.buf),
            "page invariants broken after insert_at"
        );
        Ok(slot)
    }

    /// Tombstone a slot. Errors if the slot is absent or already dead.
    pub fn delete(&mut self, slot: u16) -> Result<()> {
        let view = self.as_ref();
        if slot >= view.slot_count() || view.slot(slot).0 == 0 {
            return Err(StoreError::RowNotFound);
        }
        self.set_slot(slot, 0, 0);
        debug_assert!(
            crate::check::page_is_sound(self.buf),
            "page invariants broken after delete"
        );
        Ok(())
    }

    /// Replace the record at `slot` with `record`, keeping the slot id.
    /// Atomic: on `Err(PageFull)` the original record is left intact.
    pub fn update(&mut self, slot: u16, record: &[u8]) -> Result<()> {
        let view = self.as_ref();
        if slot >= view.slot_count() {
            return Err(StoreError::RowNotFound);
        }
        let (off, len) = view.slot(slot);
        if off == 0 {
            return Err(StoreError::RowNotFound);
        }
        if record.len() <= usize::from(len) {
            // In-place: shrinkage just leaks bytes until the next compact.
            let off = usize::from(off);
            self.buf
                .get_mut(off..off + record.len())
                .ok_or_else(|| StoreError::Corrupt("slot offset outside page bounds".into()))?
                .copy_from_slice(record);
            self.set_slot(slot, off as u16, record.len() as u16);
            debug_assert!(
                crate::check::page_is_sound(self.buf),
                "page invariants broken after in-place update"
            );
            return Ok(());
        }
        // Grow: check capacity *before* tombstoning, so a full page leaves
        // the original record intact. After the tombstone frees `len`
        // bytes, insert_at needs record.len() and zero new slots, so
        // total_free + len >= record.len() guarantees success (compaction
        // makes the freed space contiguous if needed).
        if record.len() > view.total_free() + usize::from(len) {
            return Err(StoreError::PageFull);
        }
        self.set_slot(slot, 0, 0);
        self.insert_at(slot, record).map(|_| ())
    }

    /// Rewrite live records contiguously at the end of the page, erasing
    /// fragmentation. Slot ids are preserved.
    pub fn compact(&mut self) {
        let live: Vec<(u16, Vec<u8>)> =
            self.as_ref().iter().map(|(s, r)| (s, r.to_vec())).collect();
        let mut end = PAGE_SIZE;
        // Zero the record area first for deterministic bytes on disk. A
        // corrupt slot_count can push dir_end past the page; clamp
        // instead of panicking.
        let dir_end = HEADER_SIZE + usize::from(self.as_ref().slot_count()) * SLOT_SIZE;
        if let Some(tail) = self.buf.get_mut(dir_end.min(PAGE_SIZE)..) {
            tail.fill(0);
        }
        for (slot, rec) in &live {
            // Overlapping corrupt slots could oversubscribe the page;
            // stop rather than underflow (the soundness check below
            // reports the damage).
            let Some(new_end) = end.checked_sub(rec.len()) else {
                break;
            };
            let Some(dst) = self.buf.get_mut(new_end..new_end + rec.len()) else {
                break;
            };
            dst.copy_from_slice(rec);
            self.set_slot(*slot, new_end as u16, rec.len() as u16);
            end = new_end;
        }
        put_u16(self.buf, OFF_FREE_END, end as u16);
        debug_assert!(
            crate::check::page_is_sound(self.buf),
            "page invariants broken after compact"
        );
    }
}

/// Maximum record size a freshly formatted page can hold.
pub const MAX_RECORD: usize = PAGE_SIZE - HEADER_SIZE - SLOT_SIZE;

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut buf = vec![0u8; PAGE_SIZE];
        PageMut::new(&mut buf).format(PageType::Heap);
        buf
    }

    #[test]
    fn format_and_inspect() {
        let buf = fresh();
        let p = PageRef::new(&buf);
        assert!(p.is_formatted());
        assert_eq!(p.page_type().unwrap(), PageType::Heap);
        assert_eq!(p.slot_count(), 0);
        assert_eq!(p.contiguous_free(), PAGE_SIZE - HEADER_SIZE);
        assert_eq!(p.next_page(), None);
    }

    /// `insert_each` places a run where one `insert` per record would:
    /// into the tombstones lowest first, then new slots, stopping at the
    /// first record that does not fit.
    #[test]
    fn insert_each_matches_insert_one_at_a_time() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        for i in 0..6u8 {
            p.insert(&[i; 300]).unwrap();
        }
        for slot in [4, 1, 2] {
            p.delete(slot).unwrap();
        }
        let mut one_by_one = buf.clone();
        let records: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 200 + usize::from(i)]).collect();
        let mut slots = Vec::new();
        PageMut::new(&mut buf)
            .insert_each(records.iter().map(Vec::as_slice), |s| slots.push(s))
            .unwrap();
        let mut expected = Vec::new();
        let mut q = PageMut::new(&mut one_by_one);
        for record in &records {
            match q.insert(record) {
                Ok(slot) => expected.push(slot),
                Err(StoreError::PageFull) => break,
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(&slots[..4], [1, 2, 4, 6]);
        assert!(slots.len() < records.len(), "the run fills the page");
        assert_eq!(slots, expected);
        assert_eq!(buf, one_by_one);
    }

    #[test]
    fn insert_get_delete() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!((s0, s1), (0, 1));
        assert_eq!(p.as_ref().get(0).unwrap(), b"hello");
        assert_eq!(p.as_ref().get(1).unwrap(), b"world!");
        p.delete(0).unwrap();
        assert!(p.as_ref().get(0).is_none());
        assert_eq!(p.as_ref().live_count(), 1);
        // Slot 0 is reused by the next insert.
        let s2 = p.insert(b"again").unwrap();
        assert_eq!(s2, 0);
        assert_eq!(p.as_ref().get(0).unwrap(), b"again");
    }

    #[test]
    fn delete_errors() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        assert!(p.delete(0).is_err());
        p.insert(b"x").unwrap();
        p.delete(0).unwrap();
        assert!(p.delete(0).is_err(), "double delete must fail");
    }

    #[test]
    fn update_in_place_and_grow() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        p.insert(b"aaaaaaaaaa").unwrap();
        p.insert(b"bbb").unwrap();
        p.update(0, b"shorter").unwrap();
        assert_eq!(p.as_ref().get(0).unwrap(), b"shorter");
        p.update(0, b"now a much longer record than before")
            .unwrap();
        assert_eq!(
            p.as_ref().get(0).unwrap(),
            b"now a much longer record than before"
        );
        assert_eq!(p.as_ref().get(1).unwrap(), b"bbb");
    }

    #[test]
    fn fill_page_then_page_full() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_ok() {
            n += 1;
        }
        // 100-byte records + 4-byte slots: ~ (8192-12)/104 = 78 records.
        assert!(n >= 70, "expected dozens of records, got {n}");
        assert!(matches!(p.insert(&rec), Err(StoreError::PageFull)));
    }

    #[test]
    fn compaction_reclaims_dead_space() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let rec = [1u8; 1000];
        for _ in 0..8 {
            p.insert(&rec).unwrap();
        }
        // Page nearly full; delete every other record, then a 3000-byte
        // record only fits after compaction (which insert does implicitly).
        for s in [1u16, 3, 5, 7] {
            p.delete(s).unwrap();
        }
        let big = [2u8; 3000];
        let slot = p.insert(&big).unwrap();
        assert_eq!(slot, 1, "reuses first tombstone");
        assert_eq!(p.as_ref().get(1).unwrap(), &big[..]);
        // Untouched records survive compaction at the same slots.
        for s in [0u16, 2, 4, 6] {
            assert_eq!(p.as_ref().get(s).unwrap(), &rec[..]);
        }
    }

    #[test]
    fn insert_at_specific_slot_creates_tombstones() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        p.insert_at(3, b"redo").unwrap();
        assert_eq!(p.as_ref().slot_count(), 4);
        assert!(p.as_ref().get(0).is_none());
        assert_eq!(p.as_ref().get(3).unwrap(), b"redo");
        // Inserting over a live slot is an error.
        assert!(p.insert_at(3, b"clobber").is_err());
        // But a tombstoned intermediate is fine.
        p.insert_at(1, b"fill").unwrap();
        assert_eq!(p.as_ref().get(1).unwrap(), b"fill");
    }

    #[test]
    fn next_page_link_roundtrip() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        p.set_next_page(Some(PageId(42)));
        assert_eq!(p.as_ref().next_page(), Some(PageId(42)));
        p.set_next_page(None);
        assert_eq!(p.as_ref().next_page(), None);
    }

    #[test]
    fn rowid_u64_roundtrip() {
        let r = RowId {
            page: PageId(123456),
            slot: 789,
        };
        assert_eq!(RowId::from_u64(r.to_u64()), r);
    }

    #[test]
    fn unformatted_page_detected() {
        let buf = vec![0u8; PAGE_SIZE];
        assert!(!PageRef::new(&buf).is_formatted());
    }

    #[test]
    fn update_grow_on_full_page_leaves_record_intact() {
        // Regression: the grow path used to tombstone the slot *before*
        // checking capacity, so a PageFull update destroyed the record.
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let rec = [3u8; 1000];
        let mut n = 0u16;
        while p.insert(&rec).is_ok() {
            n += 1;
        }
        assert!(n >= 8);
        let grown = [4u8; 4000];
        assert!(matches!(p.update(0, &grown), Err(StoreError::PageFull)));
        assert_eq!(
            p.as_ref().get(0).unwrap(),
            &rec[..],
            "failed update must not destroy the original record"
        );
        assert_eq!(p.as_ref().live_count(), usize::from(n));
        // A grow that fits exactly in reclaimable space still succeeds.
        p.delete(1).unwrap();
        let fits = [5u8; 1500];
        p.update(0, &fits).unwrap();
        assert_eq!(p.as_ref().get(0).unwrap(), &fits[..]);
    }

    #[test]
    fn empty_record_is_representable() {
        let mut buf = fresh();
        let mut p = PageMut::new(&mut buf);
        let s = p.insert(b"").unwrap();
        assert_eq!(p.as_ref().get(s).unwrap(), b"");
        assert_eq!(p.as_ref().live_count(), 1);
    }
}
