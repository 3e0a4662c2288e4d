//! CRC-32C (Castagnoli): the CPU's instruction where there is one, a table
//! loop where there is not.
//!
//! Used to checksum flash page headers and payloads and TCP frames. The
//! Castagnoli polynomial (0x1EDC6F41) is the one used by iSCSI, ext4 and
//! most modern storage systems — which is why CPUs compute it: SSE4.2's
//! `crc32` folds eight bytes in one three-cycle instruction. We compute it
//! reflected, which gives the conventional `0xE3069283` check value for
//! `"123456789"`.
//!
//! Every RPC frame is checksummed twice (sender and receiver) and every
//! append carries six frames — three requests and three responses — and a
//! cold page is checksummed twice more on every read, so [`crc32c`] asks
//! the machine it runs on, not a build setting: the instruction when
//! `is_x86_feature_detected!("sse4.2")` says the CPU has it, and otherwise
//! the portable definition, "slicing-by-8": `TABLES[k][b]` is the CRC of
//! byte `b` followed by `k` zero bytes, which lets eight input bytes be
//! folded with eight independent lookups instead of eight dependent ones.
//! The table loop is also what the tests hold the instruction against.
//! (aarch64 has the same instruction as `__crc32cd`; that arm is not written
//! because nothing here can compile it — the table loop runs there.)

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
    crc32c_hardware(data).unwrap_or_else(|| crc32c_table(data))
}

/// [`crc32c`] by the CPU's CRC-32C instruction, if this CPU has one.
#[cfg(target_arch = "x86_64")]
#[inline]
fn crc32c_hardware(data: &[u8]) -> Option<u32> {
    if !std::arch::is_x86_feature_detected!("sse4.2") {
        return None;
    }
    // SAFETY: `is_x86_feature_detected!("sse4.2")` just said this CPU
    // executes the SSE4.2 `crc32` instruction, the one feature
    // `crc32c_sse42` is compiled with.
    Some(unsafe { crc32c_sse42(data) })
}

#[cfg(not(target_arch = "x86_64"))]
fn crc32c_hardware(_: &[u8]) -> Option<u32> {
    None
}

/// [`crc32c`] by the SSE4.2 `crc32` instruction, eight bytes at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn crc32c_sse42(data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!0u32);
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(w.try_into().expect("chunk of 8")));
    }
    let mut crc = crc as u32;
    for &b in words.remainder() {
        crc = _mm_crc32_u8(crc, b);
    }
    !crc
}

/// [`crc32c`] by slicing-by-8: the portable definition.
fn crc32c_table(data: &[u8]) -> u32 {
    #[cfg(test)]
    tests::TABLE_CALLS.with(|calls| calls.set(calls.get() + 1));
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
    use std::cell::Cell;

    thread_local! {
        /// How often this thread computed a CRC by the table loop.
        pub(super) static TABLE_CALLS: Cell<u32> = const { Cell::new(0) };
    }

    /// The textbook byte-at-a-time loop, kept as the oracle.
    fn bytewise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// `len` bytes that look random, a different run of them per `seed`.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (seed.wrapping_add(i).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 56) as u8)
            .collect()
    }

    /// Every path this machine can take agrees with the oracle on `data`.
    fn assert_paths_agree(data: &[u8], what: &str) {
        let expected = bytewise(data);
        assert_eq!(crc32c_table(data), expected, "table path, {what}");
        assert_eq!(crc32c(data), expected, "dispatched path, {what}");
        if let Some(hardware) = crc32c_hardware(data) {
            assert_eq!(hardware, expected, "hardware path, {what}");
        }
    }

    proptest! {
        /// Every length around the 8-byte step (up to a 4 KiB page and a
        /// bit) at every start alignment: the instruction, the table loop
        /// and the dispatcher agree with the oracle.
        #[test]
        fn sliced_agrees_with_bytewise(len in 0usize..=4100, seed in any::<u64>()) {
            let backing = noise(len + 8, seed);
            for align in 0..8 {
                assert_paths_agree(&backing[align..align + len], &format!("len {len} align {align}"));
            }
        }
    }

    /// Buffers far past a page — a maximal frame is 1 MiB — at an odd start.
    #[test]
    fn large_buffers_agree_on_every_path() {
        for len in [64 << 10, 1 << 20] {
            let backing = noise(len + 3, len as u64);
            assert_paths_agree(&backing[3..], &format!("{len} bytes"));
            assert_paths_agree(&backing[..len + 1], &format!("{len} + 1 bytes"));
        }
    }

    /// The standard check value and the RFC 3720 appendix B.4 vectors.
    fn assert_known_vectors(crc: impl Fn(&[u8]) -> u32, path: &str) {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (data, expected) in [
            (&b"123456789"[..], 0xE306_9283),
            (&b""[..], 0),
            (&[0u8; 32][..], 0x8A91_36AA),
            (&[0xFFu8; 32][..], 0x62A8_AB43),
            (&ascending[..], 0x46DD_794E),
            (&descending[..], 0x113F_DB5C),
        ] {
            assert_eq!(crc(data), expected, "{path} path on {data:02x?}");
        }
    }

    #[test]
    fn known_vectors() {
        assert_known_vectors(crc32c, "dispatched");
        assert_known_vectors(crc32c_table, "table");
        assert_known_vectors(bytewise, "bytewise");
    }

    /// The vectors on the instruction itself, where the CPU has it.
    #[test]
    fn known_vectors_on_the_hardware_path() {
        if crc32c_hardware(b"").is_none() {
            eprintln!("no CRC-32C instruction on this CPU: nothing to check");
            return;
        }
        assert_known_vectors(|data| crc32c_hardware(data).expect("checked above"), "hardware");
    }

    /// A CPU that has the instruction must be given it: `crc32c` falling
    /// back to the table loop is a 6x slowdown no other test would notice.
    #[test]
    fn dispatch_takes_the_instruction_when_the_cpu_has_it() {
        #[cfg(target_arch = "x86_64")]
        let has_instruction = std::arch::is_x86_feature_detected!("sse4.2");
        #[cfg(not(target_arch = "x86_64"))]
        let has_instruction = false;
        let page = noise(4096, 1);
        let before = TABLE_CALLS.with(|calls| calls.get());
        let crc = crc32c(&page);
        let table_calls = TABLE_CALLS.with(|calls| calls.get()) - before;
        assert_eq!(crc, bytewise(&page));
        assert_eq!(table_calls, u32::from(!has_instruction), "feature bit: {has_instruction}");
        assert_eq!(crc32c_hardware(&page).is_some(), has_instruction);
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
