//! CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320).
//!
//! Hand-rolled table-driven implementation (slicing-by-8: eight bytes per
//! step) used as the integrity envelope on weight stripes: checksums are
//! computed once at model-export time and re-verified on every HBM prefetch,
//! so a silently flipped bit in a stripe is caught *before* it reaches the
//! PSAs (DESIGN.md §9). A CRC-32 detects every single-bit error and every
//! burst error up to 32 bits — exactly the fault classes the HBM/DMA
//! corruption model injects.

/// The reflected IEEE 802.3 generator polynomial.
const POLY: u32 = 0xEDB8_8320;

const fn make_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

/// Slicing-by-8 tables: `TABLES[0]` is the byte-at-a-time table, and
/// `TABLES[t][b]` is the CRC state contribution of byte `b` followed by `t`
/// zero bytes, so eight table lookups fold eight bytes.
const fn make_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    tables[0] = make_table();
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// The lookup tables, built at compile time.
static TABLES: [[u32; 256]; 8] = make_tables();

/// Streaming CRC-32 state, for checksumming a stripe in chunks.
#[derive(Debug, Clone, Copy)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32 {
    /// Fresh hasher (initial state all-ones, per the standard).
    pub fn new() -> Self {
        Crc32 { state: 0xFFFF_FFFF }
    }

    /// Fold `bytes` into the running checksum: eight bytes per step through
    /// the slicing-by-8 tables, the tail one byte at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ self.state;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            self.state = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            let idx = ((self.state ^ b as u32) & 0xFF) as usize;
            self.state = TABLES[0][idx] ^ (self.state >> 8);
        }
    }

    /// Final checksum value (state is inverted on output, per the standard).
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// CRC-32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(bytes);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The standard check value for "123456789" and the empty string.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn streaming_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
        let mut h = Crc32::new();
        for chunk in data.chunks(37) {
            h.update(chunk);
        }
        assert_eq!(h.finalize(), crc32(&data));
    }

    /// The byte-at-a-time loop over the one 256-entry table.
    fn bytewise(bytes: &[u8]) -> u32 {
        let table = make_table();
        let mut state = 0xFFFF_FFFFu32;
        for &b in bytes {
            state = table[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
        }
        !state
    }

    #[test]
    fn slicing_by_8_matches_bytewise_at_every_length_and_split() {
        // splitmix64: random contents, lengths 0..=100 and split points.
        let mut x = 0x5EED_u64;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for round in 0..2_000 {
            let len = (next() % 101) as usize;
            let data: Vec<u8> = (0..len).map(|_| next() as u8).collect();
            let want = bytewise(&data);
            assert_eq!(crc32(&data), want, "one-shot, len {}", len);
            let mut cuts: Vec<usize> =
                (0..(round % 4)).map(|_| (next() % (len as u64 + 1)) as usize).collect();
            cuts.sort_unstable();
            let mut h = Crc32::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain(std::iter::once(len)) {
                h.update(&data[from..cut]);
                from = cut;
            }
            assert_eq!(h.finalize(), want, "streamed, len {}", len);
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        // CRC-32 guarantees detection of all single-bit errors; walk every
        // bit of a representative stripe and confirm the checksum moves.
        let data: Vec<u8> = (0..64u32).flat_map(|i| (i as f32 * 0.37).to_le_bytes()).collect();
        let clean = crc32(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), clean, "flip at byte {} bit {} escaped", byte, bit);
            }
        }
    }

    #[test]
    fn detects_byte_transposition() {
        let a = b"stripe-payload-0123";
        let mut b = *a;
        b.swap(3, 11);
        assert_ne!(crc32(a), crc32(&b));
    }
}
