use crate::round_f32_to_u8;

/// An 8-bit RGB color value.
///
/// `Rgb` is a plain value type used when reading or writing single pixels and
/// when specifying fill colors for the synthetic generators.
///
/// ```
/// use imagery::Rgb;
/// let c = Rgb::new(10, 20, 30);
/// assert_eq!(c.luma(), (10 * 299 + 20 * 587 + 30 * 114) / 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Pure black, the default fill color.
    pub const BLACK: Rgb = Rgb { r: 0, g: 0, b: 0 };

    /// Creates a color from its three channels.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Rgb { r, g, b }
    }

    /// Creates a gray value with all three channels equal.
    pub const fn gray(v: u8) -> Self {
        Rgb { r: v, g: v, b: v }
    }

    /// Integer Rec. 601 luma approximation in `0..=255`.
    pub fn luma(self) -> u32 {
        (u32::from(self.r) * 299 + u32::from(self.g) * 587 + u32::from(self.b) * 114) / 1000
    }

    /// Linear interpolation between `self` and `other`; `t` is clamped to `[0, 1]`.
    pub(crate) fn lerp(self, other: Rgb, t: f32) -> Rgb {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| round_f32_to_u8(f32::from(a) + (f32::from(b) - f32::from(a)) * t);
        Rgb::new(mix(self.r, other.r), mix(self.g, other.g), mix(self.b, other.b))
    }
}

impl From<[u8; 3]> for Rgb {
    fn from(v: [u8; 3]) -> Self {
        Rgb::new(v[0], v[1], v[2])
    }
}

impl From<Rgb> for [u8; 3] {
    fn from(c: Rgb) -> Self {
        [c.r, c.g, c.b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn luma_extremes() {
        assert_eq!(Rgb::BLACK.luma(), 0);
        assert_eq!(Rgb::new(255, 255, 255).luma(), 255);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Rgb::new(0, 100, 200);
        let b = Rgb::new(255, 0, 50);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn lerp_clamps() {
        let a = Rgb::BLACK;
        let b = Rgb::new(255, 255, 255);
        assert_eq!(a.lerp(b, -3.0), a);
        assert_eq!(a.lerp(b, 7.0), b);
    }

    #[test]
    fn lerp_matches_f32_round_on_every_channel_pair() {
        // Halves land exactly on ties wherever `b - a` is odd; the rest fall
        // on either side of one.
        let ts = [0.0f32, 0.1, 0.25, 1.0 / 3.0, 0.5, 0.75, 0.9, 0.999_999_9, 1.0, f32::NAN];
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                for t in ts {
                    let tc = t.clamp(0.0, 1.0);
                    let want = (f32::from(a) + (f32::from(b) - f32::from(a)) * tc).round() as u8;
                    assert_eq!(Rgb::gray(a).lerp(Rgb::gray(b), t), Rgb::gray(want), "{a} {b} {t}");
                }
            }
        }
    }

    #[test]
    fn array_roundtrip() {
        let c = Rgb::new(1, 2, 3);
        let arr: [u8; 3] = c.into();
        assert_eq!(Rgb::from(arr), c);
    }

    #[test]
    fn gray_is_uniform() {
        let g = Rgb::gray(77);
        assert_eq!((g.r, g.g, g.b), (77, 77, 77));
    }
}
