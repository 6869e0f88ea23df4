//! Slotted pages.
//!
//! Every heap-file page uses the classic slotted layout: a small header,
//! a slot directory growing forward from the header, and tuple payloads
//! growing backward from the end of the page. Deleting a tuple tombstones
//! its slot; slot numbers stay stable so record ids remain valid.
//!
//! Layout:
//! ```text
//! [0..2)   u16  number of slots (live + dead)
//! [2..4)   u16  offset of the start of the payload area (grows down)
//! [4..)         slot directory: per slot, u16 offset + u16 length
//!               (offset == u16::MAX marks a dead slot)
//! ```

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 4096;

const HEADER_LEN: usize = 4;
const SLOT_LEN: usize = 4;
const DEAD: u16 = u16::MAX;

/// Largest payload an empty page can hold: the page minus its header and
/// the payload's own slot entry.
pub const MAX_PAYLOAD: usize = PAGE_SIZE - HEADER_LEN - SLOT_LEN;

/// A mutable view over one page's bytes, interpreted as a slotted page.
pub struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

fn read_u16(buf: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([buf[at], buf[at + 1]])
}

fn write_u16(buf: &mut [u8], at: usize, v: u16) {
    buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
}

impl<'a> SlottedPage<'a> {
    /// Wrap an existing, already-formatted page.
    pub fn new(buf: &'a mut [u8]) -> SlottedPage<'a> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        SlottedPage { buf }
    }

    /// Format `buf` as an empty slotted page and wrap it.
    pub fn init(buf: &'a mut [u8]) -> SlottedPage<'a> {
        debug_assert_eq!(buf.len(), PAGE_SIZE);
        write_u16(buf, 0, 0);
        write_u16(buf, 2, PAGE_SIZE as u16);
        SlottedPage { buf }
    }

    pub fn slot_count(&self) -> u16 {
        read_u16(self.buf, 0)
    }

    fn payload_start(&self) -> u16 {
        read_u16(self.buf, 2)
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let at = HEADER_LEN + slot as usize * SLOT_LEN;
        (read_u16(self.buf, at), read_u16(self.buf, at + 2))
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let at = HEADER_LEN + slot as usize * SLOT_LEN;
        write_u16(self.buf, at, offset);
        write_u16(self.buf, at + 2, len);
    }

    /// Bytes available for one more insert (including its slot entry).
    pub fn free_space(&self) -> usize {
        let dir_end = HEADER_LEN + self.slot_count() as usize * SLOT_LEN;
        let payload_start = self.payload_start() as usize;
        payload_start.saturating_sub(dir_end)
    }

    /// Whether a payload of `len` bytes fits on this page.
    pub fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_LEN
    }

    /// Insert a payload; returns the slot number, or `None` if it does not
    /// fit. Payloads larger than what an empty page can hold never fit.
    pub fn insert(&mut self, payload: &[u8]) -> Option<u16> {
        if !self.fits(payload.len()) {
            return None;
        }
        let slot = self.slot_count();
        let new_start = self.payload_start() as usize - payload.len();
        self.buf[new_start..new_start + payload.len()].copy_from_slice(payload);
        write_u16(self.buf, 2, new_start as u16);
        write_u16(self.buf, 0, slot + 1);
        self.set_slot_entry(slot, new_start as u16, payload.len() as u16);
        Some(slot)
    }

    /// The payload stored in `slot`, or `None` if the slot is out of range
    /// or dead.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.slot_count() {
            return None;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == DEAD {
            return None;
        }
        Some(&self.buf[offset as usize..offset as usize + len as usize])
    }

    /// Tombstone `slot`. Returns whether the slot was live. The payload
    /// bytes are not reclaimed (no compaction); heap files reclaim space by
    /// dropping or truncating whole files.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.slot_count() {
            return false;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == DEAD {
            return false;
        }
        self.set_slot_entry(slot, DEAD, len);
        true
    }

    /// Slot numbers of all live slots, in insertion order.
    pub fn live_slots(&self) -> Vec<u16> {
        (0..self.slot_count())
            .filter(|&s| self.slot_entry(s).0 != DEAD)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Box<[u8]> {
        vec![0u8; PAGE_SIZE].into_boxed_slice()
    }

    #[test]
    fn init_gives_empty_page() {
        let mut buf = fresh();
        let page = SlottedPage::init(&mut buf);
        assert_eq!(page.slot_count(), 0);
        assert_eq!(page.free_space(), PAGE_SIZE - HEADER_LEN);
        assert!(page.live_slots().is_empty());
    }

    #[test]
    fn insert_then_get() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let s0 = page.insert(b"hello").unwrap();
        let s1 = page.insert(b"world!").unwrap();
        assert_eq!(s0, 0);
        assert_eq!(s1, 1);
        assert_eq!(page.get(s0), Some(&b"hello"[..]));
        assert_eq!(page.get(s1), Some(&b"world!"[..]));
        assert_eq!(page.get(2), None);
    }

    #[test]
    fn delete_tombstones_slot_but_preserves_others() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let s0 = page.insert(b"a").unwrap();
        let s1 = page.insert(b"b").unwrap();
        assert!(page.delete(s0));
        assert!(!page.delete(s0), "double delete reports false");
        assert_eq!(page.get(s0), None);
        assert_eq!(page.get(s1), Some(&b"b"[..]));
        assert_eq!(page.live_slots(), vec![s1]);
    }

    #[test]
    fn fills_up_and_rejects_when_full() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        let payload = [0u8; 100];
        let mut inserted = 0;
        while page.insert(&payload).is_some() {
            inserted += 1;
        }
        // 104 bytes per record (100 payload + 4 slot) into 4092 usable.
        assert_eq!(inserted, (PAGE_SIZE - HEADER_LEN) / (100 + SLOT_LEN));
        assert!(!page.fits(100));
        // Smaller payloads may still fit.
        let leftover = page.free_space();
        if leftover > SLOT_LEN {
            assert!(page.insert(&vec![1u8; leftover - SLOT_LEN]).is_some());
        }
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut buf = fresh();
        let mut page = SlottedPage::init(&mut buf);
        assert_eq!(page.insert(&vec![0u8; PAGE_SIZE]), None);
    }

    #[test]
    fn reopen_preserves_contents() {
        let mut buf = fresh();
        {
            let mut page = SlottedPage::init(&mut buf);
            page.insert(b"persisted").unwrap();
        }
        let page = SlottedPage::new(&mut buf);
        assert_eq!(page.get(0), Some(&b"persisted"[..]));
    }
}
