//! Spill files: sequential byte streams on the simulated disk, the
//! backing store for memory-bounded operators (Grace hash-join
//! partitions, external-sort runs, spilled distinct/except sets).
//!
//! A spill file is written once, read once, and dropped. Records are
//! length-prefixed (`u32` little-endian) byte strings packed
//! back-to-back across page boundaries; the writer buffers exactly one
//! page and the reader holds exactly one page, so the in-memory
//! footprint of a spill stream is one [`PAGE_SIZE`] buffer regardless
//! of how much data passed through it. Spill I/O deliberately bypasses
//! the buffer pool: the access pattern is strictly sequential with no
//! reuse, and routing it through the pool would evict the working set
//! the pool exists to protect. Physical reads/writes still land in
//! [`crate::disk::DiskStats`], and the fault injector sees every page,
//! so chaos tests exercise spill I/O like any other I/O.

use crate::catalog::DbError;
use crate::disk::{Disk, FileId, PageId};
use crate::page::PAGE_SIZE;
use crate::schema::{deserialize_tuple_into, serialize_tuple_into};
use crate::value::Value;

/// FNV-1a over a byte string. Spill partitioning needs a hash that is
/// stable across runs and processes — `std::collections::HashMap`'s
/// `RandomState` is seeded per instance, so it cannot decide which
/// partition a key lands in without breaking reproducibility.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Deterministic partition assignment for a join/dedup key, given in its
/// serialized ([`serialize_tuple_into`]) form.
pub fn partition_of(serialized_key: &[u8], parts: usize) -> usize {
    (fnv1a(serialized_key) % parts as u64) as usize
}

/// Encode a sequence-tagged tuple (`u64` LE tag, then the serialized
/// tuple) into the emptied `out`. Probe rows and dedup candidates carry
/// their original input position through the partitions so the merged
/// output can be restored to exact input order.
pub fn encode_seq_tuple(seq: u64, t: &[Value], out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&seq.to_le_bytes());
    serialize_tuple_into(t, out);
}

/// Decode a record written by [`encode_seq_tuple`]: the tuple into the
/// reused `row`, the tag returned.
pub fn decode_seq_tuple(buf: &[u8], row: &mut Vec<Value>) -> Result<u64, DbError> {
    let tag: [u8; 8] = buf
        .get(0..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| DbError::Corruption("spill record shorter than its seq tag".into()))?;
    if !deserialize_tuple_into(&buf[8..], row) {
        return Err(DbError::Corruption(
            "spill record tuple does not deserialize".into(),
        ));
    }
    Ok(u64::from_le_bytes(tag))
}

/// Append-only spill stream under construction.
pub struct SpillWriter {
    file: FileId,
    buf: Vec<u8>,
    pages: u32,
    bytes: u64,
    records: u64,
}

impl SpillWriter {
    pub fn new(disk: &mut Disk) -> SpillWriter {
        SpillWriter {
            file: disk.create_file(),
            buf: Vec::with_capacity(PAGE_SIZE),
            pages: 0,
            bytes: 0,
            records: 0,
        }
    }

    /// Append one length-prefixed record, flushing filled pages as the
    /// record streams through the one-page buffer.
    pub fn push(&mut self, disk: &mut Disk, payload: &[u8]) -> Result<(), DbError> {
        let len = (payload.len() as u32).to_le_bytes();
        self.append(disk, &len)?;
        self.append(disk, payload)?;
        self.bytes += (4 + payload.len()) as u64;
        self.records += 1;
        Ok(())
    }

    fn append(&mut self, disk: &mut Disk, mut data: &[u8]) -> Result<(), DbError> {
        while !data.is_empty() {
            let room = PAGE_SIZE - self.buf.len();
            let take = room.min(data.len());
            self.buf.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.buf.len() == PAGE_SIZE {
                self.flush_page(disk)?;
            }
        }
        Ok(())
    }

    fn flush_page(&mut self, disk: &mut Disk) -> Result<(), DbError> {
        let pid = disk.allocate_page(self.file)?;
        debug_assert_eq!(pid.0, self.pages, "spill pages must be sequential");
        self.buf.resize(PAGE_SIZE, 0);
        disk.write_page(self.file, pid, &self.buf)?;
        self.buf.clear();
        self.pages += 1;
        Ok(())
    }

    /// Flush the final partial page and seal the stream for reading.
    /// `finish` consumes the writer, so on error it must release the
    /// backing file itself — no caller holds the [`FileId`] anymore, and
    /// returning the error alone would leak the slot.
    pub fn finish(mut self, disk: &mut Disk) -> Result<SpillFile, DbError> {
        if !self.buf.is_empty() {
            if let Err(e) = self.flush_page(disk) {
                disk.drop_file(self.file);
                return Err(e);
            }
        }
        Ok(SpillFile {
            file: self.file,
            bytes: self.bytes,
            records: self.records,
        })
    }

    /// Best-effort cleanup for error paths: drop the backing file
    /// without sealing.
    pub fn abandon(self, disk: &mut Disk) {
        disk.drop_file(self.file);
    }
}

/// A sealed spill stream, ready to be read back exactly once (or more —
/// each [`SpillFile::reader`] starts from the beginning).
pub struct SpillFile {
    file: FileId,
    bytes: u64,
    records: u64,
}

impl SpillFile {
    /// Records written to this stream.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Payload bytes written (length prefixes included), before page
    /// padding — the number a spill-volume metric should report.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Start reading from the first record.
    pub fn reader(&self) -> SpillReader {
        SpillReader {
            file: self.file,
            remaining: self.records,
            page: 0,
            offset: 0,
            buf: Vec::new(),
        }
    }

    /// Release the backing file and its pages.
    pub fn destroy(self, disk: &mut Disk) {
        disk.drop_file(self.file);
    }
}

/// Sequential cursor over a sealed spill stream; holds one page.
pub struct SpillReader {
    file: FileId,
    remaining: u64,
    page: u32,
    offset: usize,
    buf: Vec<u8>,
}

impl SpillReader {
    /// Read the next record's payload into the reused `payload`; `false`
    /// past the last record.
    pub fn next(&mut self, disk: &mut Disk, payload: &mut Vec<u8>) -> Result<bool, DbError> {
        if self.remaining == 0 {
            return Ok(false);
        }
        self.remaining -= 1;
        let mut len = [0u8; 4];
        self.read_exact(disk, &mut len)?;
        payload.clear();
        payload.resize(u32::from_le_bytes(len) as usize, 0);
        self.read_exact(disk, payload)?;
        Ok(true)
    }

    fn read_exact(&mut self, disk: &mut Disk, out: &mut [u8]) -> Result<(), DbError> {
        let mut filled = 0;
        while filled < out.len() {
            if self.offset == PAGE_SIZE || self.buf.is_empty() {
                if self.offset == PAGE_SIZE {
                    self.page += 1;
                    self.offset = 0;
                }
                self.buf.resize(PAGE_SIZE, 0);
                disk.read_page(self.file, PageId(self.page), &mut self.buf)?;
            }
            let take = (PAGE_SIZE - self.offset).min(out.len() - filled);
            out[filled..filled + take].copy_from_slice(&self.buf[self.offset..self.offset + take]);
            self.offset += take;
            filled += take;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::serialize_tuple;

    #[test]
    fn roundtrip_records_across_page_boundaries() {
        let mut disk = Disk::new();
        let mut w = SpillWriter::new(&mut disk);
        // Record sizes chosen to straddle 4 KiB boundaries repeatedly.
        let payloads: Vec<Vec<u8>> = (0..300)
            .map(|i| vec![(i % 251) as u8; 17 + (i * 37) % 1500])
            .collect();
        for p in &payloads {
            w.push(&mut disk, p).unwrap();
        }
        let f = w.finish(&mut disk).unwrap();
        assert_eq!(f.records(), payloads.len() as u64);
        let mut r = f.reader();
        let mut got = Vec::new();
        for p in &payloads {
            assert!(r.next(&mut disk, &mut got).unwrap());
            assert_eq!(&got, p);
        }
        assert!(!r.next(&mut disk, &mut got).unwrap());
        f.destroy(&mut disk);
    }

    #[test]
    fn empty_stream_reads_empty() {
        let mut disk = Disk::new();
        let w = SpillWriter::new(&mut disk);
        let f = w.finish(&mut disk).unwrap();
        assert_eq!(f.records(), 0);
        assert!(!f.reader().next(&mut disk, &mut Vec::new()).unwrap());
        f.destroy(&mut disk);
    }

    #[test]
    fn seq_tuple_roundtrip() {
        let t = vec![Value::Int(42), Value::Str("hello".into())];
        let mut enc = vec![0xAB];
        encode_seq_tuple(7, &t, &mut enc);
        let mut back = vec![Value::Int(-1)];
        assert_eq!(decode_seq_tuple(&enc, &mut back).unwrap(), 7);
        assert_eq!(back, t);
    }

    #[test]
    fn partition_assignment_is_deterministic() {
        let key = serialize_tuple(&[Value::Str("n12345".into())]);
        let p1 = partition_of(&key, 16);
        let p2 = partition_of(&key, 16);
        assert_eq!(p1, p2);
        assert!(p1 < 16);
        // Different keys spread across partitions.
        let spread: std::collections::HashSet<usize> = (0..1000)
            .map(|i| partition_of(&serialize_tuple(&[Value::Int(i)]), 16))
            .collect();
        assert!(spread.len() > 8, "FNV spread too poor: {spread:?}");
    }

    #[test]
    fn destroy_releases_backing_file() {
        let mut disk = Disk::new();
        let mut w = SpillWriter::new(&mut disk);
        w.push(&mut disk, b"x").unwrap();
        let f = w.finish(&mut disk).unwrap();
        let before = disk.stats().pages_allocated;
        f.destroy(&mut disk);
        // Page accounting is monotonic; dropping the file frees slots for
        // reuse rather than rewinding counters.
        assert!(disk.stats().pages_allocated >= before);
    }
}
