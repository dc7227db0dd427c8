//! A tripwire for floating-point contraction.
//!
//! The pixel goldens pin kernels that compute `a * b + c` as written: the
//! product rounds, then the sum rounds. Rust fuses the two into one FMA
//! rounding only through `mul_add`, so the x86-64-v3 build, whose FMA unit
//! the kernels never touch, produces the baseline build's bytes. A build
//! flag that turned contraction on would break that on any FMA-capable
//! target; these tests fail first. Their inputs are ones where one rounding
//! and two give different results, passed through `black_box` so the
//! arithmetic happens at run time.

use std::hint::black_box;

/// `a = b = 1 + 2^-12`, `c = -(1 + 2^-11)`: `a * b = 1 + 2^-11 + 2^-24`
/// rounds to `1 + 2^-11` (a tie, to even), so the unfused sum is 0; the
/// fused one keeps `2^-24`.
#[test]
fn f32_multiply_add_is_not_contracted() {
    let (a, b, c) = (
        black_box(1.0 + 1.0 / 4096.0_f32),
        black_box(1.0 + 1.0 / 4096.0_f32),
        black_box(-(1.0 + 1.0 / 2048.0_f32)),
    );
    assert_eq!(a.mul_add(b, c), 2f32.powi(-24), "the inputs tell one rounding from two");
    assert_eq!((a * b + c).to_bits(), 0.0_f32.to_bits(), "a * b + c was fused");
}

/// The `f64` case: `a = b = 1 + 2^-27`, `c = -(1 + 2^-26)`, where the
/// product's `2^-54` is a quarter ulp and rounds away.
#[test]
fn f64_multiply_add_is_not_contracted() {
    let (a, b, c) = (
        black_box(1.0 + 2f64.powi(-27)),
        black_box(1.0 + 2f64.powi(-27)),
        black_box(-(1.0 + 2f64.powi(-26))),
    );
    assert_eq!(a.mul_add(b, c), 2f64.powi(-54), "the inputs tell one rounding from two");
    assert_eq!((a * b + c).to_bits(), 0.0_f64.to_bits(), "a * b + c was fused");
}
