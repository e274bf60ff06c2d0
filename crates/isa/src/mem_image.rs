//! Sparse byte-addressable data memory image.
//!
//! The machine's data memory is a 64-bit byte-addressable space backed by
//! 4 KiB pages allocated on first write. Reads of unmapped memory return
//! zero without allocating, which keeps wrong-path execution in the timing
//! simulator exception-free (the paper's substrate likewise never faults in
//! the simulated regions).

use crate::instr::MemWidth;
use crate::Hasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

const PAGE_SHIFT: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

type Page = Box<[u8; PAGE_SIZE]>;

/// The page table's key hasher: one 64 × 64 → 128-bit multiply of the page
/// index by an odd constant, the high half folded (xor) into the low.
///
/// Every functional load and store looks its page up, and the default
/// SipHash costs more than the access itself. A plain multiply would do
/// for the low, consecutive page indices kernels use, but its low bits,
/// which the table indexes by, ignore the key's high bits; the folded high
/// half makes every low bit depend on every key bit. Iteration order is
/// never observable ([`MemImage::hash_into`] sorts the pages).
#[derive(Debug, Clone, Copy, Default)]
struct PageIndexHasher(u64);

/// The golden-ratio multiplier with bits 12–23 cleared. A page index has
/// at most 52 bits; with no carry out of those cleared bits, indices that
/// differ only in their top 12 bits reach the hash's low 12 bits through
/// the high half as `i * (MULTIPLIER >> 24)`, a bijection, so they never
/// share a bucket of a table of up to 4096 pages.
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15 & !0x00ff_f000;

impl std::hash::Hasher for PageIndexHasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let wide = u128::from(key) * u128::from(MULTIPLIER);
        self.0 = (wide as u64) ^ (wide >> 64) as u64;
    }

    fn write(&mut self, bytes: &[u8]) {
        // Page indices are `u64`s and hash through `write_u64`.
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Sparse, paged data memory.
///
/// # Examples
///
/// ```
/// use cfd_isa::{MemImage, MemWidth};
/// let mut m = MemImage::new();
/// m.write(0x1000, 0x1234_5678, MemWidth::B4);
/// assert_eq!(m.read(0x1000, MemWidth::B4, false), 0x1234_5678);
/// assert_eq!(m.read(0xdead_0000, MemWidth::B8, false), 0); // unmapped
/// ```
#[derive(Debug, Clone, Default)]
pub struct MemImage {
    pages: HashMap<u64, Page, BuildHasherDefault<PageIndexHasher>>,
}

impl MemImage {
    /// Creates an empty memory image.
    pub fn new() -> MemImage {
        MemImage::default()
    }

    #[inline]
    fn read_byte(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    #[inline]
    fn write_byte(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// The page holding `addr`, mapped (zero-filled) on first touch.
    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// The in-page byte range of an `n`-byte access at `addr`, or `None`
    /// when the access crosses a page boundary.
    #[inline]
    fn in_page(addr: u64, n: usize) -> Option<std::ops::Range<usize>> {
        let off = (addr & PAGE_MASK) as usize;
        (off + n <= PAGE_SIZE).then_some(off..off + n)
    }

    /// Reads `width` bytes, little-endian, zero- or sign-extended to `i64`.
    ///
    /// An access inside one page costs one page lookup and one load of
    /// exactly `width` bytes; one that crosses a page boundary reads byte
    /// by byte.
    pub fn read(&self, addr: u64, width: MemWidth, signed: bool) -> i64 {
        let n = width.bytes() as usize;
        let v = match Self::in_page(addr, n) {
            Some(range) => match self.pages.get(&(addr >> PAGE_SHIFT)) {
                Some(p) => match width {
                    MemWidth::B1 => load::<1>(p, range.start),
                    MemWidth::B2 => load::<2>(p, range.start),
                    MemWidth::B4 => load::<4>(p, range.start),
                    MemWidth::B8 => load::<8>(p, range.start),
                },
                None => 0,
            },
            None => {
                let mut bytes = [0u8; 8];
                for (i, b) in bytes[..n].iter_mut().enumerate() {
                    *b = self.read_byte(addr.wrapping_add(i as u64));
                }
                u64::from_le_bytes(bytes)
            }
        };
        if signed {
            let shift = 64 - 8 * n as u32;
            ((v << shift) as i64) >> shift
        } else {
            v as i64
        }
    }

    /// Writes the low `width` bytes of `val`, little-endian.
    ///
    /// An access inside one page costs one page lookup and one store of
    /// exactly `width` bytes; one that crosses a page boundary writes byte
    /// by byte.
    pub fn write(&mut self, addr: u64, val: i64, width: MemWidth) {
        let n = width.bytes() as usize;
        let bytes = val.to_le_bytes();
        match Self::in_page(addr, n) {
            Some(range) => {
                let p = self.page_mut(addr);
                match width {
                    MemWidth::B1 => store::<1>(p, range.start, bytes),
                    MemWidth::B2 => store::<2>(p, range.start, bytes),
                    MemWidth::B4 => store::<4>(p, range.start, bytes),
                    MemWidth::B8 => store::<8>(p, range.start, bytes),
                }
            }
            None => {
                for (i, &b) in bytes[..n].iter().enumerate() {
                    self.write_byte(addr.wrapping_add(i as u64), b);
                }
            }
        }
    }

    /// Reads an unsigned 64-bit word.
    pub fn read_u64(&self, addr: u64) -> u64 {
        self.read(addr, MemWidth::B8, false) as u64
    }

    /// Writes a 64-bit word.
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write(addr, val as i64, MemWidth::B8);
    }

    /// Number of mapped 4 KiB pages (the footprint).
    pub fn mapped_pages(&self) -> usize {
        self.pages.len()
    }

    /// Copies a byte slice into memory starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, b) in bytes.iter().enumerate() {
            self.write_byte(addr + i as u64, *b);
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, len: usize) -> Vec<u8> {
        (0..len).map(|i| self.read_byte(addr + i as u64)).collect()
    }

    /// Feeds the image into `h` as one length-prefixed `mem` section, for
    /// content-addressed fingerprinting (`cfd-exec`).
    ///
    /// Pages go in ascending page-index order (the backing `HashMap`'s
    /// iteration order never leaks), each as its little-endian index
    /// followed by its 4 KiB payload, streamed straight from the page
    /// table. Two images with the same mapped content hash identically
    /// regardless of write order; note an explicitly written all-zero page
    /// *is* content (it differs from an unmapped page here even though
    /// reads cannot tell them apart).
    pub fn hash_into(&self, h: &mut Hasher) {
        let mut pages: Vec<_> = self.pages.iter().collect();
        pages.sort_unstable_by_key(|&(&idx, _)| idx);
        h.section_header("mem", (pages.len() * (8 + PAGE_SIZE)) as u64);
        for (idx, page) in pages {
            h.update(&idx.to_le_bytes());
            h.update(&page[..]);
        }
    }
}

/// The `N` bytes at `off`, little-endian: a copy of a length known at
/// compile time, so one load rather than a `memcpy` call.
#[inline(always)]
fn load<const N: usize>(page: &[u8; PAGE_SIZE], off: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes[..N].copy_from_slice(&page[off..off + N]);
    u64::from_le_bytes(bytes)
}

/// Stores the low `N` of `bytes` at `off` (see [`load`]).
#[inline(always)]
fn store<const N: usize>(page: &mut [u8; PAGE_SIZE], off: usize, bytes: [u8; 8]) {
    page[off..off + N].copy_from_slice(&bytes[..N]);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unmapped_reads_zero_and_do_not_allocate() {
        let m = MemImage::new();
        assert_eq!(m.read(0x5000, MemWidth::B8, false), 0);
        assert_eq!(m.mapped_pages(), 0);
    }

    #[test]
    fn widths_and_sign_extension() {
        let mut m = MemImage::new();
        m.write(0x100, -1, MemWidth::B1);
        assert_eq!(m.read(0x100, MemWidth::B1, false), 0xff);
        assert_eq!(m.read(0x100, MemWidth::B1, true), -1);
        m.write(0x200, -2, MemWidth::B4);
        assert_eq!(m.read(0x200, MemWidth::B4, true), -2);
        assert_eq!(m.read(0x200, MemWidth::B4, false), 0xffff_fffe);
    }

    #[test]
    fn cross_page_access() {
        let mut m = MemImage::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles a page boundary
        m.write(addr, 0x1122_3344_5566_7788, MemWidth::B8);
        assert_eq!(m.read(addr, MemWidth::B8, false), 0x1122_3344_5566_7788);
        assert_eq!(m.mapped_pages(), 2);
    }

    #[test]
    fn byte_slice_roundtrip() {
        let mut m = MemImage::new();
        m.write_bytes(0x3000, b"hello");
        assert_eq!(m.read_bytes(0x3000, 5), b"hello");
    }

    fn fingerprint(m: &MemImage) -> crate::Fingerprint {
        let mut h = Hasher::new();
        m.hash_into(&mut h);
        h.finish()
    }

    #[test]
    fn hash_independent_of_write_order() {
        let mut a = MemImage::new();
        a.write_u64(0x1000, 7);
        a.write_u64(0x9000, 9);
        let mut b = MemImage::new();
        b.write_u64(0x9000, 9);
        b.write_u64(0x1000, 7);
        assert_eq!(fingerprint(&a), fingerprint(&b));
        b.write_u64(0x1000, 8);
        assert_ne!(fingerprint(&a), fingerprint(&b));
        // The section is two pages: 2 * (8-byte index + 4 KiB payload),
        // each page's index then payload.
        let mut want = Hasher::new();
        want.section_header("mem", 2 * (8 + 4096));
        for (idx, word) in [(1u64, 7u64), (9, 9)] {
            let mut page = [0u8; PAGE_SIZE];
            page[..8].copy_from_slice(&word.to_le_bytes());
            want.update(&idx.to_le_bytes());
            want.update(&page);
        }
        assert_eq!(fingerprint(&a), want.finish());
        // A mapped all-zero page is content.
        let mut c = a.clone();
        c.write_u64(0x5000, 0);
        assert_ne!(fingerprint(&a), fingerprint(&c));
    }

    /// Every width at every offset up to a page's end: in-page accesses
    /// take one lookup, crossing ones read and write byte by byte, and both
    /// agree with a byte-at-a-time reference.
    #[test]
    fn widths_at_the_page_edge() {
        let widths = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
        for width in widths {
            let n = width.bytes();
            for off in 4088..4096u64 {
                let addr = (3 << PAGE_SHIFT) + off;
                let val = 0x8877_6655_4433_2211u64 as i64;
                let mut m = MemImage::new();
                m.write(addr, val, width);
                let crosses = off + n > PAGE_SIZE as u64;
                assert_eq!(m.mapped_pages(), 1 + crosses as usize, "{width:?} at {off}");
                for i in 0..n {
                    assert_eq!(m.read_byte(addr + i), (val >> (8 * i)) as u8, "{width:?} at {off}, byte {i}");
                }
                assert_eq!(m.read_byte(addr + n), 0, "{width:?} at {off} wrote past its width");
                let shift = 64 - 8 * n as u32;
                let zext = ((val as u64) << shift >> shift) as i64;
                let sext = (val << shift) >> shift;
                assert_eq!(m.read(addr, width, false), zext, "{width:?} at {off}");
                assert_eq!(m.read(addr, width, true), sext, "{width:?} at {off}");
            }
        }
    }

    #[test]
    fn unmapped_reads_map_nothing_at_any_offset() {
        let mut m = MemImage::new();
        m.write_u64(0x1ff8, u64::MAX); // the last word of page 1; page 2 stays unmapped
        let widths = [MemWidth::B1, MemWidth::B2, MemWidth::B4, MemWidth::B8];
        for width in widths {
            let n = width.bytes();
            for off in 4088..4096u64 {
                assert_eq!(m.read(0x7000 + off, width, true), 0, "{width:?} at {off}, unmapped page");
                // From page 1 into page 2: mapped bytes read 0xff, the rest 0.
                let mapped = (0x1000 - off).min(n);
                let expect = if mapped == 8 { u64::MAX } else { (1u64 << (8 * mapped)) - 1 };
                assert_eq!(m.read(0x1000 + off, width, false) as u64, expect, "{width:?} at {off}");
            }
        }
        assert_eq!(m.mapped_pages(), 1, "reads never map a page");
    }

    /// Page indices that differ only in their high bits spread over the
    /// table's low hash bits (a plain multiply maps them all to 0), read
    /// back what was written, and fingerprint alike in any write order.
    #[test]
    fn page_hasher_spreads_high_bits() {
        use std::hash::BuildHasher;
        let pages: Vec<u64> = (0..4096u64).map(|i| i << 40).collect();
        let build = BuildHasherDefault::<PageIndexHasher>::default();
        let mut low: Vec<u64> = pages.iter().map(|&k| build.hash_one(k) & 0xfff).collect();
        low.sort_unstable();
        low.dedup();
        assert_eq!(low.len(), pages.len(), "distinct low 12 bits");

        // Page `i` holds one word, at a different offset per page.
        let word = |i: usize| ((pages[i] << PAGE_SHIFT) + (i as u64 % 512) * 8, i as u64 ^ 0x5a5a);
        let (mut a, mut b) = (MemImage::new(), MemImage::new());
        for i in 0..pages.len() {
            let (addr, val) = word(i);
            a.write_u64(addr, val);
        }
        for i in (0..pages.len()).rev() {
            let (addr, val) = word(i);
            b.write_u64(addr, val);
        }
        assert_eq!(a.mapped_pages(), pages.len());
        for i in 0..pages.len() {
            let (addr, val) = word(i);
            assert_eq!(a.read_u64(addr), val);
            assert_eq!(b.read_u64(addr), val);
            assert_eq!(a.read(addr + 8, MemWidth::B8, false), 0, "page {i} past its word");
        }
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn little_endian_layout() {
        let mut m = MemImage::new();
        m.write(0x10, 0x0102_0304, MemWidth::B4);
        assert_eq!(m.read(0x10, MemWidth::B1, false), 0x04);
        assert_eq!(m.read(0x13, MemWidth::B1, false), 0x01);
    }
}
