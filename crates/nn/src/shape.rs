//! Feature-map shapes.

use std::fmt;

use serde::{Deserialize, Serialize};

/// The shape of one feature map in HWC (height × width × channels) layout
/// with an implicit batch of 1.
///
/// HWC is the layout the compiler exploits: a convolution window row is
/// `kernel_w × channels` *contiguous* elements, so im2col assembly becomes a
/// handful of strided copies.
///
/// ```rust
/// use pimsim_nn::Shape;
/// let s = Shape::new(8, 8, 16);
/// assert_eq!(s.elems(), 1024);
/// assert_eq!(s.index(1, 2, 3), 1 * 8 * 16 + 2 * 16 + 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Shape {
    /// Height in pixels.
    pub height: u32,
    /// Width in pixels.
    pub width: u32,
    /// Channels per pixel.
    pub channels: u32,
}

impl Shape {
    /// Creates a shape.
    pub fn new(height: u32, width: u32, channels: u32) -> Shape {
        Shape {
            height,
            width,
            channels,
        }
    }

    /// A flat vector of `n` features (1 × 1 × n).
    pub fn flat(n: u32) -> Shape {
        Shape::new(1, 1, n)
    }

    /// Total element count.
    pub fn elems(&self) -> u32 {
        self.height * self.width * self.channels
    }

    /// Total element count, or `None` if it does not fit `u32`.
    pub(crate) fn checked_elems(&self) -> Option<u32> {
        self.height
            .checked_mul(self.width)?
            .checked_mul(self.channels)
    }

    /// `true` if this is a 1 × 1 × C vector.
    pub fn is_flat(&self) -> bool {
        self.height == 1 && self.width == 1
    }

    /// Linear element index of `(y, x, c)` in HWC order.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the coordinates are out of range.
    pub fn index(&self, y: u32, x: u32, c: u32) -> usize {
        debug_assert!(y < self.height && x < self.width && c < self.channels);
        ((y * self.width + x) * self.channels + c) as usize
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}x{}", self.height, self.width, self.channels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elems_and_index() {
        let s = Shape::new(4, 5, 3);
        assert_eq!(s.elems(), 60);
        assert_eq!(s.index(0, 0, 0), 0);
        assert_eq!(s.index(3, 4, 2), 59);
    }

    #[test]
    fn checked_elems_refuses_a_u32_overflow() {
        assert_eq!(Shape::new(4, 5, 3).checked_elems(), Some(60));
        assert_eq!(Shape::new(65536, 65536, 1).checked_elems(), None);
        assert_eq!(Shape::new(70000, 70000, 3).checked_elems(), None);
    }

    #[test]
    fn flat_shapes() {
        let s = Shape::flat(100);
        assert!(s.is_flat());
        assert_eq!(s.elems(), 100);
        assert!(!Shape::new(2, 1, 4).is_flat());
    }

    #[test]
    fn display() {
        assert_eq!(Shape::new(32, 32, 3).to_string(), "32x32x3");
    }
}
