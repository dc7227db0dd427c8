//! Rounding floats to bytes, half away from zero, without libm.
//!
//! `v.round().clamp(0.0, 255.0) as u8` calls into libm where `round` is not
//! an instruction (x86-64 without SSE4.1), and its saturating float-to-int
//! cast compiles to per-lane scalar code. The helpers here compute the same
//! byte for every input, NaN and infinities included, and vectorize.
//!
//! With `v` clamped to `[0, 256]` (NaN to 0, as the cast does), adding
//! `2^23` (`2^52` for `f64`) rounds it to the nearest integer, ties to even,
//! and leaves that integer in the low mantissa bits; subtracting the shift
//! back is exact, and so is the remainder `v - nearest`. Rounding half away
//! from zero differs from ties-to-even only where the tie went down, which is
//! where the remainder is exactly a half. `floor(v + 0.5)` would not do: the
//! sum rounds up to 1.0 at `0.5 - 1 ulp`.
//!
//! The integer left in the low bits is at most 256 for either width, so the
//! tie correction and the final `min(255)` run on `u32` lanes for `f64` as
//! for `f32`: the difference of the two `f64` bit patterns is below 2^9 and
//! its truncation to `u32` loses no bit. A loop over `f64` samples then
//! vectorizes on AVX2, which has an unsigned 32-bit `min` but no 64-bit one.

/// `v.round().clamp(0.0, 255.0) as u8` for an `f32`, bit for bit, without
/// libm (see the module docs).
///
/// ```
/// assert_eq!(imagery::round_f32_to_u8(2.5), 3);
/// assert_eq!(imagery::round_f32_to_u8(-7.0), 0);
/// assert_eq!(imagery::round_f32_to_u8(f32::NAN), 0);
/// ```
#[inline]
pub fn round_f32_to_u8(v: f32) -> u8 {
    const TWO_23: f32 = 8_388_608.0;
    let v = if v > 0.0 { v } else { 0.0 };
    let v = if v < 256.0 { v } else { 256.0 };
    let shifted = v + TWO_23;
    let nearest = shifted.to_bits() - TWO_23.to_bits();
    let tie_went_down = v - (shifted - TWO_23) == 0.5;
    (nearest + u32::from(tie_went_down)).min(255) as u8
}

/// [`round_f32_to_u8`] for an `f64`, with `2^52` as the shift and the
/// integer steps on `u32` (see the module docs).
#[inline]
pub(crate) fn round_f64_to_u8(v: f64) -> u8 {
    const TWO_52: f64 = 4_503_599_627_370_496.0;
    let v = if v > 0.0 { v } else { 0.0 };
    let v = if v < 256.0 { v } else { 256.0 };
    let shifted = v + TWO_52;
    let nearest = (shifted.to_bits() - TWO_52.to_bits()) as u32;
    let tie_went_down = v - (shifted - TWO_52) == 0.5;
    (nearest + u32::from(tie_went_down)).min(255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every tie and integer from -2 to 257 with three neighbours on either
    /// side, zeros of both signs, the extremes and NaN.
    macro_rules! probes {
        ($float:ty) => {{
            let mut probes: Vec<$float> = vec![0.0, -0.0, <$float>::MAX, <$float>::MIN];
            probes.extend([<$float>::INFINITY, <$float>::NEG_INFINITY, <$float>::NAN]);
            for k in -2i16..=257 {
                let k = <$float>::from(k);
                for tie in [k - 0.5, k + 0.5, k] {
                    probes.push(tie);
                    let (mut below, mut above) = (tie, tie);
                    for _ in 0..3 {
                        (below, above) = (below.next_down(), above.next_up());
                        probes.extend([below, above]);
                    }
                }
            }
            probes
        }};
    }

    #[test]
    fn f32_rounding_matches_round_around_every_tie() {
        for v in probes!(f32) {
            let reference = v.round().clamp(0.0, 255.0) as u8;
            assert_eq!(round_f32_to_u8(v), reference, "v = {v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn f64_rounding_matches_round_around_every_tie() {
        for v in probes!(f64) {
            let reference = v.round().clamp(0.0, 255.0) as u8;
            assert_eq!(round_f64_to_u8(v), reference, "v = {v:e} ({:#x})", v.to_bits());
        }
    }
}
