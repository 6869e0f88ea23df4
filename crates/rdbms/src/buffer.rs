//! Buffer pool with clock (second-chance) replacement.
//!
//! All page access from the engine goes through [`BufferPool::with_page`],
//! which faults the page in from the [`Disk`] on a miss, possibly evicting
//! (and writing back) a dirty victim. Hit/miss counters let experiments
//! separate logical from physical page traffic.
//!
//! The pool is deliberately single-writer: `with_page` takes `&mut self`
//! and `&mut Disk`, so all page I/O happens on the thread driving the
//! executor: scans decode their rows inside the page closure, no frame
//! latching is needed and WAL writes stay serialized.

use crate::catalog::DbError;
use crate::disk::{Disk, FileId, PageId};
use crate::hash::KeyMap;
use crate::page::PAGE_SIZE;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Default number of frames. 256 frames x 4 KiB = 1 MiB of buffer, small
/// enough that the larger experiment relations actually overflow it and
/// exercise eviction.
pub const DEFAULT_POOL_FRAMES: usize = 256;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub dirty_writebacks: u64,
}

impl BufferStats {
    /// Fraction of page requests served from the pool, in [0, 1];
    /// 1.0 when no request has been made yet.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Frame {
    key: Option<(FileId, PageId)>,
    data: Box<[u8]>,
    dirty: bool,
    referenced: bool,
    /// Faulted in by scan traffic and never touched since. Cold frames
    /// are the preferred eviction victims (see [`BufferPool::find_victim`]),
    /// so a sequential scan recycles its own frames instead of sweeping
    /// the clock — and clearing the reference bits — of the hot set.
    cold: bool,
}

/// A fixed-capacity page cache over the simulated disk.
pub struct BufferPool {
    frames: Vec<Frame>,
    map: KeyMap<(FileId, PageId), usize>,
    /// Frames caching no page, lowest index on top: a miss takes the free
    /// frame a front-to-back search of `frames` would find, without the
    /// search.
    free: BinaryHeap<Reverse<usize>>,
    clock_hand: usize,
    /// Frames faulted in cold, oldest first. Entries go stale when the
    /// frame is promoted or evicted; `find_victim` validates on pop.
    cold_queue: VecDeque<usize>,
    stats: BufferStats,
}

impl BufferPool {
    pub fn new(capacity: usize) -> BufferPool {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        BufferPool {
            frames: (0..capacity)
                .map(|_| Frame {
                    key: None,
                    data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                    dirty: false,
                    referenced: false,
                    cold: false,
                })
                .collect(),
            map: KeyMap::default(),
            free: (0..capacity).map(Reverse).collect(),
            clock_hand: 0,
            cold_queue: VecDeque::new(),
            stats: BufferStats::default(),
        }
    }

    pub fn stats(&self) -> BufferStats {
        self.stats
    }

    /// Run `f` over the cached bytes of `(file, page)`, faulting the page in
    /// if necessary. If `mark_dirty` is set the frame is flagged for
    /// write-back on eviction or flush.
    pub fn with_page<R>(
        &mut self,
        disk: &mut Disk,
        file: FileId,
        page: PageId,
        mark_dirty: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DbError> {
        self.with_page_at(disk, file, page, mark_dirty, true, f)
    }

    /// [`BufferPool::with_page`] for scan traffic: a miss faults the page
    /// in *cold* (reference bit clear), so the next clock sweep reclaims
    /// it unless something touches it again first. Large sequential scans
    /// routed through this path recycle a handful of frames instead of
    /// flushing the pool's hot working set.
    pub fn with_page_cold<R>(
        &mut self,
        disk: &mut Disk,
        file: FileId,
        page: PageId,
        mark_dirty: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DbError> {
        self.with_page_at(disk, file, page, mark_dirty, false, f)
    }

    fn with_page_at<R>(
        &mut self,
        disk: &mut Disk,
        file: FileId,
        page: PageId,
        mark_dirty: bool,
        hot: bool,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, DbError> {
        let (frame_idx, was_hit) = match self.map.get(&(file, page)) {
            Some(&idx) => {
                self.stats.hits += 1;
                (idx, true)
            }
            None => {
                self.stats.misses += 1;
                let idx = self.find_victim(disk)?;
                if let Err(e) = disk.read_page(file, page, &mut self.frames[idx].data) {
                    self.free.push(Reverse(idx));
                    return Err(e);
                }
                self.frames[idx].key = Some((file, page));
                self.frames[idx].dirty = false;
                self.map.insert((file, page), idx);
                if !hot {
                    self.frames[idx].cold = true;
                    self.cold_queue.push_back(idx);
                }
                (idx, false)
            }
        };
        let frame = &mut self.frames[frame_idx];
        // Any hit promotes: a page touched twice is part of the working
        // set no matter which access class touched it. Only a cold miss
        // enters unreferenced.
        if hot || was_hit {
            frame.referenced = true;
            frame.cold = false;
        }
        frame.dirty |= mark_dirty;
        Ok(f(&mut frame.data))
    }

    /// Pick a frame to reuse, writing back its contents if dirty.
    fn find_victim(&mut self, disk: &mut Disk) -> Result<usize, DbError> {
        // Free frame first.
        if let Some(Reverse(idx)) = self.free.pop() {
            return Ok(idx);
        }
        // Unpromoted cold frames next, oldest first: scan traffic then
        // recycles its own frames without ever advancing the clock, so a
        // scan of any length costs the hot set nothing.
        while let Some(idx) = self.cold_queue.pop_front() {
            let frame = &mut self.frames[idx];
            if !frame.cold {
                continue; // stale: promoted or evicted since it was queued
            }
            let (file, page) = frame.key.expect("cold frame has a key");
            if frame.dirty {
                self.stats.dirty_writebacks += 1;
                disk.write_page(file, page, &frame.data)?;
            }
            self.stats.evictions += 1;
            self.map.remove(&(file, page));
            let frame = &mut self.frames[idx];
            frame.key = None;
            frame.dirty = false;
            frame.cold = false;
            frame.referenced = false;
            return Ok(idx);
        }
        // Clock sweep: skip referenced frames once, clearing the bit.
        loop {
            let idx = self.clock_hand;
            self.clock_hand = (self.clock_hand + 1) % self.frames.len();
            let frame = &mut self.frames[idx];
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let (file, page) = frame.key.expect("occupied frame has a key");
            if frame.dirty {
                self.stats.dirty_writebacks += 1;
                disk.write_page(file, page, &frame.data)?;
            }
            self.stats.evictions += 1;
            self.map.remove(&(file, page));
            frame.key = None;
            frame.cold = false;
            return Ok(idx);
        }
    }

    /// Write back every dirty frame. On error (an injected crash) some
    /// dirty frames remain unflushed; the caller is expected to discard
    /// the pool and recover.
    pub fn flush_all(&mut self, disk: &mut Disk) -> Result<(), DbError> {
        for frame in &mut self.frames {
            if let (Some((file, page)), true) = (frame.key, frame.dirty) {
                self.stats.dirty_writebacks += 1;
                disk.write_page(file, page, &frame.data)?;
                frame.dirty = false;
            }
        }
        Ok(())
    }

    /// Drop every cached page without write-back. Models losing the
    /// buffer cache in a crash; also used before rebuilding state after
    /// recovery.
    pub fn discard_all(&mut self) {
        self.map.clear();
        self.cold_queue.clear();
        self.free = (0..self.frames.len()).map(Reverse).collect();
        for frame in &mut self.frames {
            frame.key = None;
            frame.dirty = false;
            frame.referenced = false;
            frame.cold = false;
        }
    }

    /// Discard (without write-back) every cached page of `file`. Called when
    /// a file is dropped so stale frames cannot leak into a reused file id.
    pub fn discard_file(&mut self, file: FileId) {
        let mut removed = Vec::new();
        for (key, &idx) in &self.map {
            if key.0 == file {
                removed.push((*key, idx));
            }
        }
        for (key, idx) in removed {
            self.map.remove(&key);
            self.free.push(Reverse(idx));
            let frame = &mut self.frames[idx];
            frame.key = None;
            frame.dirty = false;
            frame.referenced = false;
            frame.cold = false;
        }
    }

    /// Resize the pool to `capacity` frames, flushing every dirty frame
    /// and dropping all cached pages first. Lets experiments shrink (or
    /// grow) the cache between workload tiers without rebuilding the
    /// engine; counters carry over so hit rates can still be compared
    /// per-phase via deltas.
    pub fn resize(&mut self, disk: &mut Disk, capacity: usize) -> Result<(), DbError> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        self.flush_all(disk)?;
        self.map.clear();
        self.free = (0..capacity).map(Reverse).collect();
        self.clock_hand = 0;
        self.cold_queue.clear();
        self.frames = (0..capacity)
            .map(|_| Frame {
                key: None,
                data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
                dirty: false,
                referenced: false,
                cold: false,
            })
            .collect();
        Ok(())
    }

    /// Number of frames currently caching a page.
    pub fn occupied(&self) -> usize {
        self.map.len()
    }

    pub fn capacity(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(frames: usize) -> (Disk, BufferPool, FileId) {
        let mut disk = Disk::new();
        let file = disk.create_file();
        (disk, BufferPool::new(frames), file)
    }

    #[test]
    fn repeated_access_hits_cache() {
        let (mut disk, mut pool, file) = setup(4);
        let page = disk.allocate_page(file).unwrap();
        pool.with_page(&mut disk, file, page, true, |buf| buf[0] = 42)
            .unwrap();
        let val = pool
            .with_page(&mut disk, file, page, false, |buf| buf[0])
            .unwrap();
        assert_eq!(val, 42);
        assert_eq!(pool.stats().misses, 1);
        assert_eq!(pool.stats().hits, 1);
        // Only the initial fault touched the disk.
        assert_eq!(disk.stats().pages_read, 1);
    }

    #[test]
    fn eviction_writes_back_dirty_pages() {
        let (mut disk, mut pool, file) = setup(2);
        let pages: Vec<PageId> = (0..4).map(|_| disk.allocate_page(file).unwrap()).collect();
        for (i, &p) in pages.iter().enumerate() {
            pool.with_page(&mut disk, file, p, true, |buf| buf[0] = i as u8 + 1)
                .unwrap();
        }
        assert!(pool.stats().evictions >= 2);
        // Re-reading the evicted pages must observe the written data.
        for (i, &p) in pages.iter().enumerate() {
            let v = pool
                .with_page(&mut disk, file, p, false, |buf| buf[0])
                .unwrap();
            assert_eq!(v, i as u8 + 1);
        }
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let (mut disk, mut pool, file) = setup(4);
        let page = disk.allocate_page(file).unwrap();
        pool.with_page(&mut disk, file, page, true, |buf| buf[7] = 9)
            .unwrap();
        pool.flush_all(&mut disk).unwrap();
        let mut out = vec![0u8; PAGE_SIZE];
        disk.read_page(file, page, &mut out).unwrap();
        assert_eq!(out[7], 9);
    }

    #[test]
    fn discard_file_drops_cached_frames() {
        let (mut disk, mut pool, file) = setup(4);
        let page = disk.allocate_page(file).unwrap();
        pool.with_page(&mut disk, file, page, true, |buf| buf[0] = 1)
            .unwrap();
        assert_eq!(pool.occupied(), 1);
        pool.discard_file(file);
        assert_eq!(pool.occupied(), 0);
        // The dirty write was discarded, not flushed.
        let mut out = vec![0u8; PAGE_SIZE];
        disk.read_page(file, page, &mut out).unwrap();
        assert_eq!(out[0], 0);
    }

    #[test]
    fn discarded_frames_are_reused_before_anything_is_evicted() {
        let (mut disk, mut pool, file) = setup(4);
        let other = disk.create_file();
        let kept: Vec<PageId> = (0..2).map(|_| disk.allocate_page(file).unwrap()).collect();
        let dropped: Vec<PageId> = (0..2).map(|_| disk.allocate_page(other).unwrap()).collect();
        for (&a, &b) in kept.iter().zip(&dropped) {
            pool.with_page(&mut disk, file, a, false, |_| ()).unwrap();
            pool.with_page(&mut disk, other, b, false, |_| ()).unwrap();
        }
        assert_eq!(pool.occupied(), 4);
        pool.discard_file(other);
        assert_eq!(pool.occupied(), 2);
        // Two more pages fit in the freed frames: nothing is evicted and
        // the pages that stayed are still hits.
        for _ in 0..2 {
            let p = disk.allocate_page(file).unwrap();
            pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
        }
        assert_eq!(pool.occupied(), 4);
        assert_eq!(pool.stats().evictions, 0);
        let misses = pool.stats().misses;
        for &p in &kept {
            pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
        }
        assert_eq!(pool.stats().misses, misses);
        // A full pool evicts again.
        let p = disk.allocate_page(file).unwrap();
        pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn cold_scan_does_not_evict_hot_working_set() {
        let (mut disk, mut pool, file) = setup(4);
        let hot: Vec<PageId> = (0..3).map(|_| disk.allocate_page(file).unwrap()).collect();
        let scan: Vec<PageId> = (0..32).map(|_| disk.allocate_page(file).unwrap()).collect();
        // Establish the working set: every hot page referenced.
        for &p in &hot {
            pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
            pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
        }
        // A scan 8x the pool size streams through cold.
        for &p in &scan {
            pool.with_page_cold(&mut disk, file, p, false, |_| ())
                .unwrap();
        }
        // The hot set survived: re-touching it is all hits.
        let misses_before = pool.stats().misses;
        for &p in &hot {
            pool.with_page(&mut disk, file, p, false, |_| ()).unwrap();
        }
        assert_eq!(
            pool.stats().misses,
            misses_before,
            "cold scan evicted the hot working set"
        );
    }

    #[test]
    fn cold_hit_promotes_to_hot() {
        let (mut disk, mut pool, file) = setup(2);
        let p0 = disk.allocate_page(file).unwrap();
        let p1 = disk.allocate_page(file).unwrap();
        let p2 = disk.allocate_page(file).unwrap();
        // p0 enters cold, then a second cold access promotes it.
        pool.with_page_cold(&mut disk, file, p0, false, |_| ())
            .unwrap();
        pool.with_page_cold(&mut disk, file, p0, false, |_| ())
            .unwrap();
        // p1 enters cold and stays cold; faulting p2 must pick p1.
        pool.with_page_cold(&mut disk, file, p1, false, |_| ())
            .unwrap();
        pool.with_page_cold(&mut disk, file, p2, false, |_| ())
            .unwrap();
        let misses_before = pool.stats().misses;
        pool.with_page(&mut disk, file, p0, false, |_| ()).unwrap();
        assert_eq!(
            pool.stats().misses,
            misses_before,
            "promoted page was evicted"
        );
    }

    #[test]
    fn clock_gives_second_chance_to_referenced_frames() {
        let (mut disk, mut pool, file) = setup(2);
        let p0 = disk.allocate_page(file).unwrap();
        let p1 = disk.allocate_page(file).unwrap();
        let p2 = disk.allocate_page(file).unwrap();
        pool.with_page(&mut disk, file, p0, false, |_| ()).unwrap();
        pool.with_page(&mut disk, file, p1, false, |_| ()).unwrap();
        // Fault p2: the sweep clears both reference bits and evicts p0.
        pool.with_page(&mut disk, file, p2, false, |_| ()).unwrap();
        // Touch p2 (sets its bit), then fault p0: the unreferenced p1 is the
        // victim and the freshly referenced p2 survives.
        pool.with_page(&mut disk, file, p2, false, |_| ()).unwrap();
        pool.with_page(&mut disk, file, p0, false, |_| ()).unwrap();
        let before = pool.stats().misses;
        pool.with_page(&mut disk, file, p2, false, |_| ()).unwrap();
        assert_eq!(pool.stats().misses, before, "p2 survived the sweep");
    }
}
