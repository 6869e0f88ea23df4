//! Heap files: unordered collections of variable-length records built from
//! slotted pages, the storage representation of every base relation and
//! dictionary relation in the testbed. (A runtime temporary keeps its rows
//! in memory: see [`crate::catalog::Table`].)

use crate::buffer::BufferPool;
use crate::catalog::DbError;
use crate::disk::{Disk, FileId, PageId};
use crate::page::{SlottedPage, MAX_PAYLOAD};

/// Stable address of one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecordId {
    pub page: PageId,
    pub slot: u16,
}

/// A heap file handle. The file's pages live on the [`Disk`]; the handle
/// carries only bookkeeping (insert hint and live-record count).
#[derive(Debug, Clone)]
pub struct HeapFile {
    file: FileId,
    /// Page most likely to have room for the next insert.
    insert_hint: u32,
    tuple_count: u64,
}

impl HeapFile {
    /// Create a fresh heap file on `disk`.
    pub fn create(disk: &mut Disk) -> HeapFile {
        HeapFile {
            file: disk.create_file(),
            insert_hint: 0,
            tuple_count: 0,
        }
    }

    pub fn file_id(&self) -> FileId {
        self.file
    }

    /// Number of live records.
    pub fn tuple_count(&self) -> u64 {
        self.tuple_count
    }

    /// Drop the underlying file, releasing all pages and discarding any
    /// cached frames.
    pub fn destroy(self, disk: &mut Disk, pool: &mut BufferPool) {
        pool.discard_file(self.file);
        disk.drop_file(self.file);
    }

    /// Insert a record, returning its id. A one-record [`HeapFile::append`].
    pub fn insert(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        payload: &[u8],
    ) -> Result<RecordId, DbError> {
        let mut rids = Vec::with_capacity(1);
        self.append(
            disk,
            pool,
            1,
            |_, buf| buf.extend_from_slice(payload),
            &mut rids,
        )?;
        Ok(rids[0])
    }

    /// Append `count` records in one pass: `encode(i, buf)` writes record
    /// `i`'s payload into the (emptied, reused) buffer, and the id it lands
    /// on is pushed to `rids`. Records go to the hint page while they fit,
    /// then to fresh pages, each page filled under a single buffer-pool
    /// visit — the pages touched, and the order they are allocated and
    /// dirtied in, are those of `count` one-record inserts. A record larger
    /// than a page fails with [`DbError::RowTooLarge`]. On any error the
    /// records already placed stay placed and are listed in `rids`, so the
    /// caller can keep its indexes in step with the heap.
    pub fn append(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        count: usize,
        mut encode: impl FnMut(usize, &mut Vec<u8>),
        rids: &mut Vec<RecordId>,
    ) -> Result<(), DbError> {
        if count == 0 {
            return Ok(());
        }
        // `buf` always holds the payload of record `next`.
        let mut buf = Vec::new();
        let mut next = 0;
        encode(0, &mut buf);
        let mut hint =
            (self.insert_hint < disk.page_count(self.file)).then_some(PageId(self.insert_hint));
        while next < count {
            let (pid, fresh) = match hint.take() {
                Some(pid) => (pid, false),
                None => {
                    if buf.len() > MAX_PAYLOAD {
                        return Err(DbError::RowTooLarge {
                            bytes: buf.len(),
                            max: MAX_PAYLOAD,
                        });
                    }
                    let pid = disk.allocate_page(self.file)?;
                    self.insert_hint = pid.0;
                    (pid, true)
                }
            };
            let placed = pool.with_page(disk, self.file, pid, true, |page| {
                let mut page = if fresh {
                    SlottedPage::init(page)
                } else {
                    SlottedPage::new(page)
                };
                let first = next;
                while next < count {
                    let Some(slot) = page.insert(&buf) else { break };
                    rids.push(RecordId { page: pid, slot });
                    next += 1;
                    if next < count {
                        buf.clear();
                        encode(next, &mut buf);
                    }
                }
                next - first
            })?;
            self.tuple_count += placed as u64;
        }
        Ok(())
    }

    /// Run `f` over the payload of `rid` inside the page latch; `None` if
    /// the record was deleted.
    pub fn read<R>(
        &self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        rid: RecordId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, DbError> {
        if rid.page.0 >= disk.page_count(self.file) {
            return Ok(None);
        }
        pool.with_page(disk, self.file, rid.page, false, |buf| {
            SlottedPage::new(buf).get(rid.slot).map(f)
        })
    }

    /// Copy out the payload of `rid`, or `None` if it was deleted.
    pub fn get(
        &self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        rid: RecordId,
    ) -> Result<Option<Vec<u8>>, DbError> {
        self.read(disk, pool, rid, <[u8]>::to_vec)
    }

    /// Delete `rid`; returns whether it was live.
    pub fn delete(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        rid: RecordId,
    ) -> Result<bool, DbError> {
        if rid.page.0 >= disk.page_count(self.file) {
            return Ok(false);
        }
        let deleted = pool.with_page(disk, self.file, rid.page, true, |buf| {
            SlottedPage::new(buf).delete(rid.slot)
        })?;
        if deleted {
            self.tuple_count -= 1;
            // Deleted space is reclaimable only via new pages, but allow the
            // hint to revisit this page for small records.
            self.insert_hint = self.insert_hint.min(rid.page.0);
        }
        Ok(deleted)
    }

    /// Recount live records and reset the insert hint by scanning the
    /// pages. The handle's bookkeeping is volatile state: after crash
    /// recovery rewrites pages underneath it, the counts must be rebuilt
    /// from what is actually on disk.
    pub fn rebuild_stats(&mut self, disk: &mut Disk, pool: &mut BufferPool) -> Result<(), DbError> {
        let pages = disk.page_count(self.file);
        let mut count: u64 = 0;
        for p in 0..pages {
            count += pool.with_page_cold(disk, self.file, PageId(p), false, |buf| {
                SlottedPage::new(buf).live_slots().len() as u64
            })?;
        }
        self.tuple_count = count;
        self.insert_hint = pages.saturating_sub(1);
        Ok(())
    }

    /// Discard every record in one step by truncating the underlying file
    /// (and dropping its cached frames), keeping the file id so the table
    /// can be refilled without catalog churn. Not WAL-logged — callers must
    /// not use this inside a transaction.
    pub fn clear(&mut self, disk: &mut Disk, pool: &mut BufferPool) -> Result<(), DbError> {
        pool.discard_file(self.file);
        disk.truncate_file(self.file)?;
        self.insert_hint = 0;
        self.tuple_count = 0;
        Ok(())
    }

    /// Start a full scan.
    pub fn scan(&self) -> HeapScan {
        HeapScan {
            file: self.file,
            page: 0,
            slot: 0,
        }
    }
}

/// Cursor over all live records of a heap file, in (page, slot) order.
pub struct HeapScan {
    file: FileId,
    page: u32,
    slot: u16,
}

impl HeapScan {
    /// Visit up to `max` live records in (page, slot) order, handing each
    /// payload to `f` from inside the page latch — nothing is copied out
    /// of the page; what `f` builds from the bytes is all that leaves it.
    /// One buffer-pool visit per page touched. Returns how many records
    /// were visited; 0 means end of file. An error from `f` stops the scan
    /// and is returned.
    ///
    /// Pages fault in cold (see [`BufferPool::with_page_cold`]): a scan
    /// visits each page once, so it must not displace the pool's hot
    /// working set on its way through.
    pub fn for_each_batch(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        max: usize,
        mut f: impl FnMut(RecordId, &[u8]) -> Result<(), DbError>,
    ) -> Result<usize, DbError> {
        let mut seen = 0;
        while seen < max {
            match self.for_each_on_page(disk, pool, max - seen, &mut f)? {
                Some(taken) => seen += taken,
                None => break,
            }
        }
        Ok(seen)
    }

    /// [`HeapScan::for_each_batch`] within the cursor's current page: up
    /// to `max` of its remaining live records, in one buffer-pool visit.
    /// Returns how many were visited (possibly 0), or `None` at end of
    /// file.
    pub fn for_each_on_page(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        max: usize,
        mut f: impl FnMut(RecordId, &[u8]) -> Result<(), DbError>,
    ) -> Result<Option<usize>, DbError> {
        if self.page >= disk.page_count(self.file) {
            return Ok(None);
        }
        let pid = PageId(self.page);
        let start_slot = self.slot;
        let (taken, next_slot, exhausted) =
            pool.with_page_cold(disk, self.file, pid, false, |buf| {
                let page = SlottedPage::new(buf);
                let count = page.slot_count();
                let mut taken = 0;
                let mut s = start_slot;
                while s < count && taken < max {
                    if let Some(payload) = page.get(s) {
                        f(RecordId { page: pid, slot: s }, payload)?;
                        taken += 1;
                    }
                    s += 1;
                }
                Ok::<_, DbError>((taken, s, s >= count))
            })??;
        if exhausted {
            self.page += 1;
            self.slot = 0;
        } else {
            // Stopped mid-page because `max` was reached.
            self.slot = next_slot;
        }
        Ok(Some(taken))
    }

    /// Visit every remaining live record: [`HeapScan::for_each_batch`]
    /// without a batch limit, so each page is latched exactly once.
    pub fn for_each(
        &mut self,
        disk: &mut Disk,
        pool: &mut BufferPool,
        f: impl FnMut(RecordId, &[u8]) -> Result<(), DbError>,
    ) -> Result<usize, DbError> {
        self.for_each_batch(disk, pool, usize::MAX, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Disk, BufferPool) {
        (Disk::new(), BufferPool::new(8))
    }

    fn collect_all(heap: &HeapFile, disk: &mut Disk, pool: &mut BufferPool) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        heap.scan()
            .for_each(disk, pool, |_, payload| {
                out.push(payload.to_vec());
                Ok(())
            })
            .unwrap();
        out
    }

    #[test]
    fn insert_get_roundtrip() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        let rid = heap.insert(&mut disk, &mut pool, b"tuple-1").unwrap();
        assert_eq!(
            heap.get(&mut disk, &mut pool, rid).unwrap(),
            Some(b"tuple-1".to_vec())
        );
        assert_eq!(heap.tuple_count(), 1);
    }

    #[test]
    fn scan_sees_inserts_across_many_pages() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        let payload = vec![7u8; 500];
        let n = 100; // ~13 pages at 500B + slot overhead
        for _ in 0..n {
            heap.insert(&mut disk, &mut pool, &payload).unwrap();
        }
        assert!(disk.page_count(heap.file_id()) > 1);
        let all = collect_all(&heap, &mut disk, &mut pool);
        assert_eq!(all.len(), n);
        assert!(all.iter().all(|p| *p == payload));
    }

    #[test]
    fn delete_removes_from_scan_and_count() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        let r0 = heap.insert(&mut disk, &mut pool, b"a").unwrap();
        let _r1 = heap.insert(&mut disk, &mut pool, b"b").unwrap();
        assert!(heap.delete(&mut disk, &mut pool, r0).unwrap());
        assert!(!heap.delete(&mut disk, &mut pool, r0).unwrap());
        assert_eq!(heap.tuple_count(), 1);
        assert_eq!(
            collect_all(&heap, &mut disk, &mut pool),
            vec![b"b".to_vec()]
        );
        assert_eq!(heap.get(&mut disk, &mut pool, r0).unwrap(), None);
    }

    #[test]
    fn scan_of_empty_heap_is_empty() {
        let (mut disk, mut pool) = setup();
        let heap = HeapFile::create(&mut disk);
        assert!(collect_all(&heap, &mut disk, &mut pool).is_empty());
    }

    #[test]
    fn clear_empties_heap_but_keeps_file() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        let payload = vec![9u8; 600];
        for _ in 0..50 {
            heap.insert(&mut disk, &mut pool, &payload).unwrap();
        }
        assert!(disk.page_count(heap.file_id()) > 1);
        heap.clear(&mut disk, &mut pool).unwrap();
        assert_eq!(heap.tuple_count(), 0);
        assert_eq!(disk.page_count(heap.file_id()), 0);
        assert!(disk.file_exists(heap.file_id()));
        assert!(collect_all(&heap, &mut disk, &mut pool).is_empty());
        // The heap is immediately reusable.
        heap.insert(&mut disk, &mut pool, b"fresh").unwrap();
        assert_eq!(
            collect_all(&heap, &mut disk, &mut pool),
            vec![b"fresh".to_vec()]
        );
    }

    #[test]
    fn destroy_releases_pages() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        heap.insert(&mut disk, &mut pool, b"x").unwrap();
        let fid = heap.file_id();
        heap.destroy(&mut disk, &mut pool);
        assert!(!disk.file_exists(fid));
    }

    #[test]
    fn batch_scan_matches_whole_file_scan() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        let mut rids = Vec::new();
        for i in 0..500u32 {
            let payload = vec![(i % 251) as u8; 20 + (i as usize * 13) % 300];
            rids.push(heap.insert(&mut disk, &mut pool, &payload).unwrap());
        }
        // Knock holes in the file so batches skip dead slots.
        for rid in rids.iter().step_by(7) {
            heap.delete(&mut disk, &mut pool, *rid).unwrap();
        }
        let whole = collect_all(&heap, &mut disk, &mut pool);
        assert_eq!(whole.len() as u64, heap.tuple_count());
        for batch_size in [1, 3, 64, 10_000] {
            let mut scan = heap.scan();
            let mut batched = Vec::new();
            loop {
                let n = scan
                    .for_each_batch(&mut disk, &mut pool, batch_size, |_, p| {
                        batched.push(p.to_vec());
                        Ok(())
                    })
                    .unwrap();
                assert!(n <= batch_size);
                if n == 0 {
                    break;
                }
            }
            assert_eq!(batched, whole, "batch_size={batch_size}");
        }
    }

    #[test]
    fn scan_stops_at_the_first_callback_error() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        for _ in 0..10 {
            heap.insert(&mut disk, &mut pool, b"r").unwrap();
        }
        let mut visited = 0;
        let err = heap.scan().for_each(&mut disk, &mut pool, |_, _| {
            visited += 1;
            if visited == 4 {
                return Err(DbError::Corruption("stop".into()));
            }
            Ok(())
        });
        assert_eq!(err, Err(DbError::Corruption("stop".into())));
        assert_eq!(visited, 4);
    }

    #[test]
    fn oversized_record_is_an_error_not_a_panic() {
        let (mut disk, mut pool) = setup();
        let mut heap = HeapFile::create(&mut disk);
        heap.insert(&mut disk, &mut pool, b"small").unwrap();
        let err = heap.insert(&mut disk, &mut pool, &vec![0u8; MAX_PAYLOAD + 1]);
        assert_eq!(
            err,
            Err(DbError::RowTooLarge {
                bytes: MAX_PAYLOAD + 1,
                max: MAX_PAYLOAD
            })
        );
        // Nothing was placed and no page was allocated for it.
        assert_eq!(heap.tuple_count(), 1);
        assert_eq!(disk.page_count(heap.file_id()), 1);
        // The largest record that fits still does.
        heap.insert(&mut disk, &mut pool, &vec![1u8; MAX_PAYLOAD])
            .unwrap();
        assert_eq!(heap.tuple_count(), 2);
    }

    #[test]
    fn append_places_records_where_single_inserts_would() {
        let payloads: Vec<Vec<u8>> = (0..400u32)
            .map(|i| vec![(i % 251) as u8; 10 + (i as usize * 37) % 700])
            .collect();
        let (mut disk_a, mut pool_a) = setup();
        let mut one_by_one = HeapFile::create(&mut disk_a);
        let (mut disk_b, mut pool_b) = setup();
        let mut bulk = HeapFile::create(&mut disk_b);
        let mut expect = Vec::new();
        let mut got = Vec::new();
        // Three batches, with a delete in between pulling the hint back.
        for (n, chunk) in payloads.chunks(150).enumerate() {
            for p in chunk {
                expect.push(one_by_one.insert(&mut disk_a, &mut pool_a, p).unwrap());
            }
            bulk.append(
                &mut disk_b,
                &mut pool_b,
                chunk.len(),
                |i, buf| buf.extend_from_slice(&chunk[i]),
                &mut got,
            )
            .unwrap();
            assert_eq!(got, expect, "after batch {n}");
            let victim = expect[n * 150 + 3];
            one_by_one.delete(&mut disk_a, &mut pool_a, victim).unwrap();
            bulk.delete(&mut disk_b, &mut pool_b, victim).unwrap();
        }
        assert_eq!(bulk.tuple_count(), one_by_one.tuple_count());
        assert_eq!(
            collect_all(&bulk, &mut disk_b, &mut pool_b),
            collect_all(&one_by_one, &mut disk_a, &mut pool_a)
        );
        assert_eq!(disk_b.stats().pages_written, disk_a.stats().pages_written);
    }

    #[test]
    fn works_with_tiny_buffer_pool() {
        // Pool smaller than the file forces eviction during scan.
        let mut disk = Disk::new();
        let mut pool = BufferPool::new(2);
        let mut heap = HeapFile::create(&mut disk);
        let payload = vec![3u8; 1000];
        for _ in 0..20 {
            heap.insert(&mut disk, &mut pool, &payload).unwrap();
        }
        let all = collect_all(&heap, &mut disk, &mut pool);
        assert_eq!(all.len(), 20);
        assert!(pool.stats().evictions > 0);
    }
}
