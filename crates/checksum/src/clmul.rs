//! The carry-less-multiply fold, for x86_64 CPUs with PCLMULQDQ and SSE4.1.
//!
//! The input is read as 128-bit lanes. Four accumulators each fold the lane
//! 64 bytes ahead of them into themselves (one carry-less multiply per
//! 64-bit half), the four are folded into one, the leftover whole lanes
//! are folded in one at a time, and the 128-bit remainder is reduced to 64
//! and then, by Barrett reduction, to the 32-bit CRC register. The bytes
//! past the last whole lane go through the table loop.

use std::arch::x86_64::{
    __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
    _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
};

/// Shortest input the fold takes: the four lanes it starts from plus one
/// 64-byte step. Shorter inputs run the table loop.
pub(crate) const MIN_LEN: usize = 128;

// The reflected IEEE folding constants: powers of x reduced modulo P(x),
// bit-reflected and shifted left by one, as in Intel's paper and Linux's
// crc32-pclmul. K1/K2 carry an accumulator 512 bits (four lanes) forward
// and K3/K4 128 bits (one lane), low half then high half; K5 reduces 96
// bits to 64; POLY and MU are P(x) and floor(x^64 / P(x)) for the Barrett
// step.
const K1: i64 = 0x1_5444_2bd4;
const K2: i64 = 0x1_c6e4_1596;
const K3: i64 = 0x1_7519_97d0;
const K4: i64 = 0x0_ccaa_009e;
const K5: i64 = 0x1_63cd_6124;
const POLY: i64 = 0x1_db71_0641;
const MU: i64 = 0x1_f701_1641;

/// Whether this CPU runs [`update`]. std caches the answer, so a call is an
/// atomic load.
pub(crate) fn available() -> bool {
    is_x86_feature_detected!("pclmulqdq") && is_x86_feature_detected!("sse4.1")
}

/// Advances the CRC register `state` (the running value before the final
/// inversion) over `data`; the same function as [`crate::update_table`].
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
pub(crate) fn update(state: u32, data: &[u8]) -> u32 {
    let (lanes, tail) = data.as_chunks::<16>();
    let [a, b, c, d, rest @ ..] = lanes else {
        return crate::update_table(state, data);
    };
    // The register enters as the low 32 bits of the first lane.
    let mut x =
        [_mm_xor_si128(lane(a), _mm_cvtsi32_si128(state as i32)), lane(b), lane(c), lane(d)];

    let by_four = _mm_set_epi64x(K2, K1);
    let mut steps = rest.chunks_exact(4);
    for step in &mut steps {
        for (acc, next) in x.iter_mut().zip(step) {
            *acc = fold(*acc, lane(next), by_four);
        }
    }
    let by_one = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], by_one), x[2], by_one), x[3], by_one);
    for next in steps.remainder() {
        acc = fold(acc, lane(next), by_one);
    }

    // 128 bits to 96, then 96 to 64.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let acc = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(acc, by_one), _mm_srli_si128::<8>(acc));
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    // Barrett: 64 bits to the 32-bit register, which the reflected form
    // leaves in the second dword.
    let poly_mu = _mm_set_epi64x(MU, POLY);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), poly_mu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), poly_mu);
    let folded = _mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32;

    crate::update_table(folded, tail)
}

/// Carries `acc` forward across the distance `keys` encodes and adds it to
/// `next`.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
#[inline]
fn fold(acc: __m128i, next: __m128i, keys: __m128i) -> __m128i {
    let low = _mm_clmulepi64_si128::<0x00>(acc, keys);
    let high = _mm_clmulepi64_si128::<0x11>(acc, keys);
    _mm_xor_si128(_mm_xor_si128(next, low), high)
}

/// Sixteen input bytes as one little-endian lane.
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
#[inline]
fn lane(bytes: &[u8; 16]) -> __m128i {
    let v = u128::from_le_bytes(*bytes);
    _mm_set_epi64x((v >> 64) as i64, v as i64)
}
