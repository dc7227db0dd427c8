//! CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`): the checksum under
//! every storage wire frame, std only.
//!
//! [`crc32`] checksums one slice; [`Crc32`] checksums a message that arrives
//! in parts (a frame's header, a shared payload and its trailer), with the
//! same result as [`crc32`] over the parts glued together. [`crc32_combine`]
//! gives the CRC of two parts glued together from the parts' own CRCs, so a
//! part checksummed once need not be read again.
//!
//! Each update picks its path from what the CPU reports; no feature,
//! setting or flag selects it. On x86_64 with PCLMULQDQ and SSE4.1 (std
//! caches the detection), an input of 128 bytes or more is folded 64 bytes a step in
//! four 128-bit lanes with carry-less multiplies and finished with a
//! Barrett reduction: the scheme of Intel's "Fast CRC Computation for
//! Generic Polynomials Using PCLMULQDQ Instruction" with the reflected IEEE
//! constants. Shorter inputs, the last < 16 bytes of a folded input, and
//! every other CPU and target run a slice-by-16 table loop. Both paths
//! compute the same function; the tests check each against a bit-at-a-time
//! loop.
//!
//! The crate's one `unsafe` block is the call into the
//! `#[target_feature]` function, made after detection.

#![deny(unsafe_op_in_unsafe_fn, missing_docs)]
#![warn(unreachable_pub)]

#[cfg(target_arch = "x86_64")]
mod clmul;

/// CRC32 (IEEE 802.3) of `data`, as zlib, Ethernet and PNG compute it:
/// `crc32(b"123456789") == 0xcbf4_3926`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// A running CRC32 over a message fed in parts: `update` with each part in
/// order, then `finish`. The parts may be split anywhere.
///
/// ```
/// let mut crc = checksum::Crc32::new();
/// crc.update(b"1234");
/// crc.update(b"56789");
/// assert_eq!(crc.finish(), checksum::crc32(b"123456789"));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc32 {
    /// The CRC register before the final inversion.
    state: u32,
}

impl Crc32 {
    /// The CRC of the empty message.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Feeds the next part of the message.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if data.len() >= clmul::MIN_LEN && clmul::available() {
            // SAFETY: `available` has just reported both CPU features that
            // `clmul::update` is compiled for.
            self.state = unsafe { clmul::update(self.state, data) };
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// The CRC32 of everything fed so far.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// The CRC32 of `a ‖ b`, from `crc32(a)`, `crc32(b)` and `b`'s length,
/// without reading either part: zlib's `crc32_combine`.
///
/// Appending `len_b` bytes multiplies `a`'s CRC register by `x^(8·len_b)`
/// modulo the polynomial, so the cost is a few dozen 32-bit multiplies,
/// whatever the lengths.
///
/// ```
/// let (a, b) = (b"1234".as_slice(), b"56789".as_slice());
/// let glued = checksum::crc32_combine(checksum::crc32(a), checksum::crc32(b), b.len() as u64);
/// assert_eq!(glued, checksum::crc32(b"123456789"));
/// ```
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // x^(8·len_b), built from the squares x^(2^k) for the set bits of
    // 8·len_b (k counts from 3 because of the factor 8).
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b;
    let mut k = 3;
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_poly(X_POW_2K[k % 32], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_poly(shift, crc_a) ^ crc_b
}

/// `a · b` modulo the CRC polynomial, both in the reflected bit order the
/// CRC register uses (bit 31 is `x^0`).
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ 0xedb8_8320 } else { b >> 1 };
    }
    product
}

/// `X_POW_2K[k]` is `x^(2^k)` modulo the CRC polynomial. The sequence
/// repeats with period 32 in `k` (a test pins it), so 32 entries serve
/// every `u64` length.
const X_POW_2K: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    table[0] = p;
    let mut k = 1;
    while k < 32 {
        p = mul_mod_poly(p, p);
        table[k] = p;
        k += 1;
    }
    table
};

/// Slice-by-16 lookup tables for the reflected IEEE polynomial, built at
/// compile time. `CRC_TABLES[0]` is the classic byte-at-a-time table; table
/// `k` advances a byte through `k` further zero bytes, so the loop folds 16
/// input bytes per step instead of one. This is the whole CRC on CPUs and
/// targets without carry-less multiply, and the head and tail of it on
/// those with one.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            tables[t][i] = (tables[t - 1][i] >> 8) ^ tables[0][(tables[t - 1][i] & 0xff) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// Folds one 32-bit word through tables `base+3 ..= base`.
#[inline(always)]
fn crc_fold(word: u32, base: usize) -> u32 {
    CRC_TABLES[base + 3][(word & 0xff) as usize]
        ^ CRC_TABLES[base + 2][((word >> 8) & 0xff) as usize]
        ^ CRC_TABLES[base + 1][((word >> 16) & 0xff) as usize]
        ^ CRC_TABLES[base][(word >> 24) as usize]
}

/// Advances the CRC register `state` (the running value before the final
/// inversion) over `data`, 16 bytes per step.
fn update_table(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = data.chunks_exact(16);
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    for chunk in &mut chunks {
        c = crc_fold(c ^ word(&chunk[0..4]), 12)
            ^ crc_fold(word(&chunk[4..8]), 8)
            ^ crc_fold(word(&chunk[8..12]), 4)
            ^ crc_fold(word(&chunk[12..16]), 0);
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The definition: one bit at a time, no tables.
    fn bitwise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            }
        }
        !c
    }

    /// The table loop alone, whatever the CPU offers.
    fn table(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    /// Deterministic bytes with no short period.
    fn blob(len: usize) -> Vec<u8> {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                (state >> 56) as u8
            })
            .collect()
    }

    fn assert_paths_agree(data: &[u8], what: &str) {
        let want = bitwise(data);
        assert_eq!(table(data), want, "table loop, {what}");
        assert_eq!(crc32(data), want, "dispatched, {what}");
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The canonical IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(table(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn every_path_agrees_at_every_length_and_alignment() {
        // Lengths straddle the 16-byte lane, the 64-byte fold step and the
        // 128-byte switch to folding; offsets move the lanes across every
        // alignment.
        let data = blob(1100 + 16);
        for start in 0..16 {
            for len in 0..=1100 {
                assert_paths_agree(&data[start..start + len], &format!("start {start} len {len}"));
            }
        }
    }

    #[test]
    fn every_path_agrees_on_frame_sized_inputs() {
        // A raw mini sample's frame, an uneven size near it, and a cropped
        // 224x224 f32 tensor's.
        for len in [145_417, 150_541, 602_112] {
            assert_paths_agree(&blob(len), &format!("len {len}"));
        }
    }

    /// `data` fed to a running CRC in two parts, split at `at`.
    fn split_at(data: &[u8], at: usize) -> u32 {
        let mut crc = Crc32::new();
        crc.update(&data[..at]);
        crc.update(&data[at..]);
        crc.finish()
    }

    #[test]
    fn running_crc_agrees_at_every_split_point() {
        // Each part may switch path on its own: a short head runs the table
        // loop and hands its register to a folded body, and the reverse.
        let data = blob(1100);
        for len in 0..=1100 {
            let want = crc32(&data[..len]);
            for at in 0..=len {
                assert_eq!(split_at(&data[..len], at), want, "len {len} split at {at}");
            }
        }
    }

    #[test]
    fn running_crc_agrees_on_frame_sized_inputs() {
        // Every split within 300 bytes of either end (a response's head and
        // tail), and a stride through the middle.
        for len in [145_417, 150_541, 602_112] {
            let data = blob(len);
            let want = crc32(&data);
            let splits = (0..300).chain((300..len - 300).step_by(997)).chain(len - 300..=len);
            for at in splits {
                assert_eq!(split_at(&data, at), want, "len {len} split at {at}");
            }
        }
    }

    #[test]
    fn running_crc_takes_any_number_of_parts() {
        // A wire response: head, shared payload, tier byte, in three parts.
        let data = blob(150_000);
        let mut crc = Crc32::default();
        for part in [&data[..22], &data[22..149_999], &data[149_999..]] {
            crc.update(part);
        }
        assert_eq!(crc.finish(), crc32(&data));
        assert_eq!(Crc32::new().finish(), crc32(b""));
        let mut crc = Crc32::new();
        crc.update(b"");
        crc.update(b"123456789");
        crc.update(b"");
        assert_eq!(crc.finish(), 0xcbf4_3926);
    }

    #[test]
    fn squares_of_x_repeat_with_period_32() {
        // What lets `crc32_combine` index the table mod 32 for any length.
        assert_eq!(mul_mod_poly(X_POW_2K[31], X_POW_2K[31]), X_POW_2K[0]);
    }

    #[test]
    fn combine_agrees_at_every_split_point() {
        let data = blob(1100);
        for len in [0, 1, 15, 16, 17, 127, 128, 129, 1100] {
            let want = crc32(&data[..len]);
            for at in 0..=len {
                let (a, b) = data[..len].split_at(at);
                let got = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                assert_eq!(got, want, "len {len} split at {at}");
            }
        }
    }

    #[test]
    fn combine_agrees_on_frame_sized_inputs() {
        // A response's head glued to a raw sample's payload, and two long
        // halves.
        for len in [145_417, 150_541, 602_112] {
            let data = blob(len);
            for at in [0, 22, 30, len / 2, len - 1, len] {
                let (a, b) = data.split_at(at);
                let got = crc32_combine(crc32(a), crc32(b), b.len() as u64);
                assert_eq!(got, crc32(&data), "len {len} split at {at}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn every_path_agrees_on_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            prop_assert_eq!(table(&data), bitwise(&data));
            prop_assert_eq!(crc32(&data), bitwise(&data));
        }

        #[test]
        fn running_crc_agrees_on_arbitrary_splits(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cut in any::<usize>(),
        ) {
            let at = if data.is_empty() { 0 } else { cut % (data.len() + 1) };
            prop_assert_eq!(split_at(&data, at), bitwise(&data));
        }

        #[test]
        fn combine_agrees_on_arbitrary_splits(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cut in any::<usize>(),
        ) {
            let at = if data.is_empty() { 0 } else { cut % (data.len() + 1) };
            let (a, b) = data.split_at(at);
            prop_assert_eq!(crc32_combine(crc32(a), crc32(b), b.len() as u64), bitwise(&data));
        }
    }
}
