//! CRC-32C (Castagnoli), table-driven, eight bytes per step.
//!
//! Used to checksum flash page headers and TCP frames. The Castagnoli
//! polynomial (0x1EDC6F41) is the one used by iSCSI, ext4 and most modern
//! storage systems; we compute it reflected, which gives the conventional
//! `0xE3069283` check value for `"123456789"`.
//!
//! Every RPC frame is checksummed twice and every append carries four
//! frames, so the loop is "slicing-by-8": `TABLES[k][b]` is the CRC of byte
//! `b` followed by `k` zero bytes, which lets eight input bytes be folded
//! with eight independent lookups instead of eight dependent ones.

/// The reflected Castagnoli polynomial.
const POLY: u32 = 0x82F6_3B78;

const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes the CRC-32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut crc = !0u32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook byte-at-a-time loop, kept as the oracle.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Every length around the 8-byte step (up to a 4 KiB page and a
        /// bit) at every start alignment agrees with the oracle.
        #[test]
        fn sliced_agrees_with_bytewise(len in 0usize..=4100, seed in any::<u64>()) {
            let backing: Vec<u8> = (0..len as u64 + 8)
                .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
                .collect();
            for align in 0..8 {
                let data = &backing[align..align + len];
                prop_assert_eq!(crc32c(data), bytewise(data), "len {} align {}", len, align);
            }
        }
    }

    #[test]
    fn known_vectors() {
        // Standard CRC-32C check value.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 appendix B.4 test vector: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn detects_single_bit_flips() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let base = crc32c(data);
        let mut corrupted = data.to_vec();
        for byte in 0..corrupted.len() {
            for bit in 0..8 {
                corrupted[byte] ^= 1 << bit;
                assert_ne!(crc32c(&corrupted), base, "flip at {byte}:{bit} undetected");
                corrupted[byte] ^= 1 << bit;
            }
        }
    }
}
