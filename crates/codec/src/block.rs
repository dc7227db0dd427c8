//! Extracting and placing 8×8 blocks from planar image data.
//!
//! Images whose dimensions are not multiples of 8 are handled by edge
//! replication on extraction; placement simply ignores the padded region.

use crate::{BLOCK, BLOCK_AREA};

/// A single image plane of `f32` samples (one YCbCr channel).
#[derive(Debug, Clone, PartialEq)]
pub struct Plane {
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
    pub fn new(width: u32, height: u32) -> Plane {
        assert!(width > 0 && height > 0, "plane dimensions must be non-zero");
        Plane { width, height, data: vec![0f32; width as usize * height as usize] }
    }

    /// Plane width in samples.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Plane height in samples.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Reads the sample at `(x, y)`.
    #[inline]
    pub fn get(&self, x: u32, y: u32) -> f32 {
        self.data[y as usize * self.width as usize + x as usize]
    }

    /// Writes the sample at `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: u32, y: u32, v: f32) {
        self.data[y as usize * self.width as usize + x as usize] = v;
    }

    /// Number of 8×8 block columns needed to cover the plane.
    pub fn blocks_x(&self) -> u32 {
        self.width.div_ceil(BLOCK as u32)
    }

    /// Number of 8×8 block rows needed to cover the plane.
    pub fn blocks_y(&self) -> u32 {
        self.height.div_ceil(BLOCK as u32)
    }

    /// Extracts the block whose top-left corner is at
    /// `(bx * 8, by * 8)`, replicating edge samples beyond the border, and
    /// centering values by subtracting 128.
    pub fn extract_block(&self, bx: u32, by: u32) -> [f32; BLOCK_AREA] {
        let mut out = [0f32; BLOCK_AREA];
        for dy in 0..BLOCK as u32 {
            let y = (by * BLOCK as u32 + dy).min(self.height - 1);
            for dx in 0..BLOCK as u32 {
                let x = (bx * BLOCK as u32 + dx).min(self.width - 1);
                out[dy as usize * BLOCK + dx as usize] = self.get(x, y) - 128.0;
            }
        }
        out
    }

    /// Borrows row `y` of the plane.
    #[inline]
    pub fn row(&self, y: u32) -> &[f32] {
        let start = y as usize * self.width as usize;
        &self.data[start..start + self.width as usize]
    }

    /// Writes a reconstructed block back (adding the 128 offset), clipping at
    /// the plane border.
    pub fn place_block(&mut self, bx: u32, by: u32, block: &[f32; BLOCK_AREA]) {
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
    fn extract_place_roundtrip_interior() {
        let mut p = Plane::new(16, 16);
        for y in 0..16 {
            for x in 0..16 {
                p.set(x, y, (x * 16 + y) as f32);
            }
        }
        let block = p.extract_block(1, 0);
        let mut q = Plane::new(16, 16);
        q.place_block(1, 0, &block);
        for y in 0..8 {
            for x in 8..16 {
                assert_eq!(q.get(x, y), p.get(x, y));
            }
        }
    }

    #[test]
    fn extract_replicates_edges() {
        let mut p = Plane::new(10, 10);
        for y in 0..10 {
            for x in 0..10 {
                p.set(x, y, f32::from((x + y) as u16));
            }
        }
        // Block (1,1) covers x,y in 8..16 but the plane ends at 10;
        // samples beyond should replicate row/column 9.
        let b = p.extract_block(1, 1);
        let sample = |dx: usize, dy: usize| b[dy * BLOCK + dx] + 128.0;
        assert_eq!(sample(5, 0), p.get(9, 8)); // x clamped to 9
        assert_eq!(sample(0, 5), p.get(8, 9)); // y clamped to 9
        assert_eq!(sample(7, 7), p.get(9, 9));
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
