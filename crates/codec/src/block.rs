//! Planar image data that decoded 8×8 blocks are placed into.
//!
//! Placement ignores the part of a block past the plane's border. (The
//! encoder builds its blocks straight from the RGB raster, replicating edge
//! samples; see `encoder.rs`.)

use crate::{BLOCK, BLOCK_AREA};

/// A single image plane of `f32` samples (one YCbCr channel).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Plane {
    width: u32,
    height: u32,
    data: Vec<f32>,
}

impl Plane {
    /// Creates a zero-filled plane.
    ///
    /// # Panics
    ///
    /// Panics when either dimension is zero.
    pub(crate) fn new(width: u32, height: u32) -> Plane {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Plane { width, height, data: vec![0f32; width as usize * height as usize] }
    }

    /// Reads the sample at `(x, y)`.
    #[inline]
    pub(crate) fn get(&self, x: u32, y: u32) -> f32 {
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Writes the sample at `(x, y)`.
    #[inline]
    pub(crate) fn set(&mut self, x: u32, y: u32, v: f32) {
        self.data[y as usize * self.width as usize + x as usize] = v;
    }

    /// Number of 8×8 block columns needed to cover the plane.
    pub(crate) fn blocks_x(&self) -> u32 {
        self.width.div_ceil(BLOCK as u32)
    }

    /// Number of 8×8 block rows needed to cover the plane.
    pub(crate) fn blocks_y(&self) -> u32 {
        self.height.div_ceil(BLOCK as u32)
    }

    /// Borrows row `y` of the plane.
    #[inline]
    pub(crate) fn row(&self, y: u32) -> &[f32] {
        let start = y as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Writes a reconstructed block back (adding the 128 offset), clipping at
    /// the plane border.
    pub(crate) fn place_block(&mut self, bx: u32, by: u32, block: &[f32; BLOCK_AREA]) {
        let (x, y) = (bx as usize * BLOCK, by as usize * BLOCK);
        let (width, height) = (self.width as usize, self.height as usize);
        let cols = BLOCK.min(width.saturating_sub(x));
        if cols == 0 {
            return;
        }
        for (src, dy) in block.chunks_exact(BLOCK).zip(y..height) {
            let dst = &mut self.data[dy * width + x..][..cols];
            for (d, s) in dst.iter_mut().zip(src) {
                *d = s + 128.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_grid_covers_plane() {
        let p = Plane::new(17, 9);
        assert_eq!(p.blocks_x(), 3);
        assert_eq!(p.blocks_y(), 2);
        let p = Plane::new(16, 8);
        assert_eq!((p.blocks_x(), p.blocks_y()), (2, 1));
    }

    #[test]
    fn place_writes_an_interior_block() {
        let block: [f32; BLOCK_AREA] = std::array::from_fn(|i| i as f32);
        let mut p = Plane::new(16, 16);
        p.place_block(1, 0, &block);
        for y in 0..8 {
            for x in 8..16 {
                assert_eq!(p.get(x, y), block[(y * 8 + x - 8) as usize] + 128.0);
            }
        }
        assert_eq!(p.get(7, 0), 0.0);
    }

    #[test]
    fn place_clips_at_border() {
        let mut p = Plane::new(10, 10);
        let block = [50f32; BLOCK_AREA];
        p.place_block(1, 1, &block);
        // In-bounds corner updated, no panic for out-of-bounds region.
        assert_eq!(p.get(9, 9), 178.0);
        assert_eq!(p.get(0, 0), 0.0);
    }
}
