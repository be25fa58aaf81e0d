//! Heap files: unordered collections of records with stable row ids.
//!
//! A heap file owns a list of pages (allocated from the shared [`Pager`])
//! plus an in-memory free-space map. Records are addressed by [`RowId`]
//! (page, slot). Updates keep the row id stable when the new record fits on
//! its page and relocate (returning a fresh row id) otherwise — the caller
//! (the table layer) is responsible for fixing indexes when relocation
//! happens.

use super::page::{SlotId, PAGE_SIZE};
use super::pager::{PageId, PageSource, Pager};
use crate::error::{DbError, DbResult};
use std::fmt;

/// Stable address of a record in a heap file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RowId {
    /// Page id within the pager.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl RowId {
    /// Packs the row id into a `u64` (used as a B+tree value).
    pub fn pack(self) -> u64 {
        (u64::from(self.page) << 16) | u64::from(self.slot)
    }

    /// Inverse of [`RowId::pack`].
    pub fn unpack(v: u64) -> RowId {
        RowId {
            page: (v >> 16) as PageId,
            slot: (v & 0xFFFF) as SlotId,
        }
    }
}

impl fmt::Display for RowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// An unordered record file.
#[derive(Debug, Clone, Default)]
pub struct HeapFile {
    /// Pages of this heap, in allocation order.
    pages: Vec<PageId>,
    /// Approximate free bytes per page (same order as `pages`).
    free: Vec<u16>,
    /// Live record count.
    n_rows: u64,
}

impl HeapFile {
    /// An empty heap.
    pub fn new() -> Self {
        HeapFile::default()
    }

    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.n_rows
    }

    /// `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Number of pages owned by the heap.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// The page ids owned by this heap (for catalog persistence).
    pub fn pages(&self) -> &[PageId] {
        &self.pages
    }

    /// Rebuilds heap metadata from a persisted page list (used when a
    /// file-backed database is reopened).
    pub fn from_pages(pages: Vec<PageId>, pager: &Pager) -> DbResult<Self> {
        let mut heap = HeapFile {
            free: Vec::with_capacity(pages.len()),
            pages,
            n_rows: 0,
        };
        for &pid in &heap.pages {
            let (free, live) =
                pager.with_page(pid, |p| (p.usable_free() as u16, p.live_count() as u64))?;
            heap.free.push(free);
            heap.n_rows += live;
        }
        Ok(heap)
    }

    /// Inserts a record, returning its row id.
    pub fn insert(&mut self, pager: &Pager, record: &[u8]) -> DbResult<RowId> {
        if record.len() + 8 > PAGE_SIZE {
            return Err(DbError::Storage(format!(
                "record of {} bytes exceeds the page size",
                record.len()
            )));
        }
        // Fast path: the most recently used page, then first-fit over the
        // free-space map, then a fresh page.
        let candidate = self
            .pages
            .len()
            .checked_sub(1)
            .filter(|&last| self.free[last] as usize >= record.len() + 4)
            .or_else(|| {
                self.free
                    .iter()
                    .position(|&f| f as usize >= record.len() + 4)
            });
        if let Some(idx) = candidate {
            let pid = self.pages[idx];
            let slot = pager.with_page_mut(pid, |p| {
                let slot = p.insert(record);
                (slot, p.usable_free() as u16)
            })?;
            if let (Some(slot), free) = slot {
                self.free[idx] = free;
                self.n_rows += 1;
                return Ok(RowId { page: pid, slot });
            }
            // `fits` was approximate (fragmentation); fall through.
            self.free[idx] = 0;
        }
        let pid = pager.allocate()?;
        self.pages.push(pid);
        let (slot, free) = pager.with_page_mut(pid, |p| {
            let slot = p.insert(record).expect("record fits an empty page");
            (slot, p.usable_free() as u16)
        })?;
        self.free.push(free);
        self.n_rows += 1;
        Ok(RowId { page: pid, slot })
    }

    /// Reads the record at `id`.
    pub fn get<'p>(&self, pages: impl Into<PageSource<'p>>, id: RowId) -> DbResult<Vec<u8>> {
        self.with_record(pages, id, <[u8]>::to_vec)
    }

    /// Runs `f` on the record at `id` where it lies on its page, without
    /// copying it. `f` runs under the page read, so it must not read pages
    /// itself.
    pub fn with_record<'p, R>(
        &self,
        pages: impl Into<PageSource<'p>>,
        id: RowId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> DbResult<R> {
        pages
            .into()
            .with_page(id.page, |p| p.get(id.slot).map(f))?
            .ok_or_else(|| DbError::Storage(format!("no record at {id}")))
    }

    /// Deletes the record at `id`. Returns `true` if it existed.
    pub fn delete(&mut self, pager: &Pager, id: RowId) -> DbResult<bool> {
        let (deleted, free) =
            pager.with_page_mut(id.page, |p| (p.delete(id.slot), p.usable_free() as u16))?;
        if deleted {
            self.n_rows -= 1;
            if let Some(idx) = self.pages.iter().position(|&p| p == id.page) {
                self.free[idx] = free;
            }
        }
        Ok(deleted)
    }

    /// Updates the record at `id`. Returns the (possibly new) row id: when
    /// the record no longer fits on its page it is moved to another page.
    pub fn update(&mut self, pager: &Pager, id: RowId, record: &[u8]) -> DbResult<RowId> {
        let (ok, free) = pager.with_page_mut(id.page, |p| {
            (p.update(id.slot, record), p.usable_free() as u16)
        })?;
        if ok {
            if let Some(idx) = self.pages.iter().position(|&p| p == id.page) {
                self.free[idx] = free;
            }
            return Ok(id);
        }
        // Relocate.
        if !self.delete(pager, id)? {
            return Err(DbError::Storage(format!("no record at {id}")));
        }
        self.insert(pager, record)
    }

    /// Runs `f` on each live record of the `idx`-th page, with its row id,
    /// where it lies on the page and without copying it. Executors stream a
    /// heap one page at a time through this. `f` runs under the page read,
    /// so it must not read pages itself.
    pub fn for_each_record<'p>(
        &self,
        pages: impl Into<PageSource<'p>>,
        idx: usize,
        mut f: impl FnMut(RowId, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        let pid = self.pages[idx];
        pages.into().with_page(pid, |p| {
            p.iter()
                .try_for_each(|(slot, rec)| f(RowId { page: pid, slot }, rec))
        })?
    }

    /// Collects every `(RowId, record)` in the heap (test/diagnostic helper).
    pub fn scan_all(&self, pager: &Pager) -> DbResult<Vec<(RowId, Vec<u8>)>> {
        let mut out = Vec::with_capacity(self.n_rows as usize);
        for idx in 0..self.pages.len() {
            self.for_each_record(pager, idx, |rid, rec| {
                out.push((rid, rec.to_vec()));
                Ok(())
            })?;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_delete_across_pages() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        let rec = vec![7u8; 1000];
        let ids: Vec<RowId> = (0..50)
            .map(|_| heap.insert(&pager, &rec).unwrap())
            .collect();
        assert_eq!(heap.len(), 50);
        assert!(heap.page_count() >= 7, "1000B records, ~8 per page");
        for &id in &ids {
            assert_eq!(heap.get(&pager, id).unwrap(), rec);
        }
        assert!(heap.delete(&pager, ids[0]).unwrap());
        assert!(!heap.delete(&pager, ids[0]).unwrap());
        assert!(heap.get(&pager, ids[0]).is_err());
        assert_eq!(heap.len(), 49);
    }

    #[test]
    fn freed_space_is_reused() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        let rec = vec![1u8; 2000];
        let ids: Vec<RowId> = (0..20)
            .map(|_| heap.insert(&pager, &rec).unwrap())
            .collect();
        let pages_before = heap.page_count();
        for id in ids {
            heap.delete(&pager, id).unwrap();
        }
        for _ in 0..20 {
            heap.insert(&pager, &rec).unwrap();
        }
        assert_eq!(heap.page_count(), pages_before, "space should be reused");
    }

    #[test]
    fn update_in_place_keeps_rowid() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        let id = heap.insert(&pager, &[1u8; 100]).unwrap();
        let id2 = heap.update(&pager, id, &[2u8; 80]).unwrap();
        assert_eq!(id, id2);
        assert_eq!(heap.get(&pager, id).unwrap(), vec![2u8; 80]);
    }

    #[test]
    fn update_relocates_when_page_full() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        let id = heap.insert(&pager, &[1u8; 100]).unwrap();
        // Fill the first page solid.
        while heap.page_count() == 1 {
            heap.insert(&pager, &[3u8; 500]).unwrap();
        }
        let grown = vec![2u8; 4000];
        let id2 = heap.update(&pager, id, &grown).unwrap();
        assert_ne!(id.page, id2.page, "record should relocate");
        assert_eq!(heap.get(&pager, id2).unwrap(), grown);
        assert!(heap.get(&pager, id).is_err());
    }

    #[test]
    fn scan_sees_every_live_record() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        let mut expect = Vec::new();
        for i in 0..200u32 {
            let rec = i.to_le_bytes().to_vec();
            let id = heap.insert(&pager, &rec).unwrap();
            expect.push((id, rec));
        }
        // Delete a third of them.
        for (id, _) in expect.iter().step_by(3) {
            heap.delete(&pager, *id).unwrap();
        }
        let live: Vec<(RowId, Vec<u8>)> = expect
            .iter()
            .enumerate()
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, e)| e.clone())
            .collect();
        let mut scanned = heap.scan_all(&pager).unwrap();
        scanned.sort();
        let mut live_sorted = live.clone();
        live_sorted.sort();
        assert_eq!(scanned, live_sorted);
    }

    #[test]
    fn from_pages_rebuilds_metadata() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        for i in 0..100u32 {
            heap.insert(&pager, &i.to_le_bytes()).unwrap();
        }
        let rebuilt = HeapFile::from_pages(heap.pages().to_vec(), &pager).unwrap();
        assert_eq!(rebuilt.len(), 100);
        assert_eq!(rebuilt.page_count(), heap.page_count());
    }

    #[test]
    fn oversized_record_rejected() {
        let pager = Pager::in_memory();
        let mut heap = HeapFile::new();
        assert!(heap.insert(&pager, &vec![0u8; PAGE_SIZE]).is_err());
    }
}
