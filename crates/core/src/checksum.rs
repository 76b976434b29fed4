//! CRC32 (IEEE 802.3) checksums.
//!
//! The paper argues that interpretation data "is crucial and the task should
//! not be left to applications" — a BLOB whose interpretation is lost is
//! "meaningless data". The same holds for the bytes themselves: a silently
//! flipped bit in a BLOB or in the catalog yields garbage frames with no
//! diagnosis. Every integrity check in the workspace (per-element checksums
//! in `tbm-interp`, the catalog footer in `tbm-db`) uses this one CRC32 so
//! the values are comparable across layers.
//!
//! The kernel is slice-by-16: sixteen 256-entry tables (16 KiB, built at
//! compile time) fold sixteen input bytes per step, with a bytewise tail
//! for the last 0–15. Serving verifies every layer it reads from storage,
//! so this loop is on the cache-miss path. A carry-less-multiply kernel
//! (PCLMULQDQ) would be faster still, but it needs `unsafe` intrinsics and
//! the workspace forbids `unsafe` code.

/// A streaming CRC32 (IEEE polynomial, reflected, as used by zip/png).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

/// Slice-by-16 lookup tables for the reflected IEEE polynomial
/// `0xEDB8_8320`. `TABLES[0]` is the classic bytewise table; `TABLES[k][i]`
/// is the register after feeding byte `i` and then `k` zero bytes, so one
/// step can fold a byte that sits `k` positions before the end of a
/// 16-byte block.
const fn make_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 16] = make_tables();

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &TABLES;
        let mut crc = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for b in &mut blocks {
            // The running state is folded into the block's first four bytes.
            let x = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
            crc = t[15][(x & 0xFF) as usize]
                ^ t[14][((x >> 8) & 0xFF) as usize]
                ^ t[13][((x >> 16) & 0xFF) as usize]
                ^ t[12][(x >> 24) as usize]
                ^ t[11][b[4] as usize]
                ^ t[10][b[5] as usize]
                ^ t[9][b[6] as usize]
                ^ t[8][b[7] as usize]
                ^ t[7][b[8] as usize]
                ^ t[6][b[9] as usize]
                ^ t[5][b[10] as usize]
                ^ t[4][b[11] as usize]
                ^ t[3][b[12] as usize]
                ^ t[2][b[13] as usize]
                ^ t[1][b[14] as usize]
                ^ t[0][b[15] as usize];
        }
        for &b in blocks.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// The CRC32 of `bytes` in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The obviously-right bytewise loop: one table lookup per byte. It is
    /// the spec the slice-by-16 kernel must match bit for bit.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data = b"interpretation of time-based media";
        let mut c = Crc32::new();
        for chunk in data.chunks(7) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![0u8; 1024];
        data[500] = 0x55;
        let before = crc32(&data);
        data[700] ^= 0x01;
        assert_ne!(before, crc32(&data));
    }

    proptest! {
        #[test]
        fn slice_by_16_matches_bytewise_reference(
            data in prop::collection::vec(any::<u8>(), 0..8192),
            offset in 0usize..16,
            cuts in prop::collection::vec(1usize..48, 1..64),
        ) {
            // One shot over the whole input.
            prop_assert_eq!(crc32(&data), reference_crc32(&data));

            // A misaligned start.
            let tail = &data[offset.min(data.len())..];
            prop_assert_eq!(crc32(tail), reference_crc32(tail));

            // Streamed in random-sized chunks, many under 16 bytes, so the
            // state crosses tail -> block -> tail boundaries.
            let mut c = Crc32::new();
            let mut rest = &data[..];
            let mut i = 0;
            while !rest.is_empty() {
                let n = cuts[i % cuts.len()].min(rest.len());
                let (chunk, after) = rest.split_at(n);
                c.update(chunk);
                rest = after;
                i += 1;
            }
            prop_assert_eq!(c.finish(), reference_crc32(&data));
        }
    }
}
