//! Raw RGB frames.
//!
//! Coral-Pie deliberately keeps frames in raw (unencoded) form when moving
//! them between the compute resources of a camera, because JPEG/NumPy
//! serialisation blows the 100 ms sub-task budget on a Raspberry Pi
//! (paper §4.1.5). This module models exactly that raw representation.

use bytes::Bytes;
use serde::{Deserialize, Serialize};

/// Monotonic frame sequence number within one camera.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct FrameId(pub u64);

impl std::fmt::Display for FrameId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// An 8-bit RGB pixel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct Rgb {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Rgb {
    /// Creates a pixel.
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }
}

/// A raw RGB frame (row-major, 3 bytes per pixel).
///
/// The pixel buffer is a cheaply cloneable [`Bytes`]; a frame clone shares
/// the buffer, mirroring how the real system hands the same raw buffer
/// across pipeline stages without re-encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    width: u32,
    height: u32,
    data: Bytes,
}

impl Frame {
    /// Creates a frame filled with `fill`.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn filled(width: u32, height: u32, fill: Rgb) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        let mut data = Vec::with_capacity((width * height * 3) as usize);
        for _ in 0..width * height {
            data.extend_from_slice(&[fill.r, fill.g, fill.b]);
        }
        Self {
            width,
            height,
            data: Bytes::from(data),
        }
    }

    /// Creates a frame from a raw buffer.
    ///
    /// # Errors
    ///
    /// Returns an error message if the buffer length is not
    /// `width * height * 3`.
    pub fn from_raw(width: u32, height: u32, data: Vec<u8>) -> Result<Self, FrameSizeError> {
        let expected = (width as usize) * (height as usize) * 3;
        if data.len() != expected || width == 0 || height == 0 {
            return Err(FrameSizeError {
                expected,
                actual: data.len(),
            });
        }
        Ok(Self {
            width,
            height,
            data: Bytes::from(data),
        })
    }

    /// Frame width in pixels.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Frame height in pixels.
    pub fn height(&self) -> u32 {
        self.height
    }

    /// The raw pixel buffer (row-major RGB).
    pub fn raw(&self) -> &[u8] {
        &self.data
    }

    /// Size of the raw buffer in bytes.
    pub fn byte_len(&self) -> usize {
        self.data.len()
    }

    /// Reads the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of bounds.
    #[inline]
    pub fn pixel(&self, x: u32, y: u32) -> Rgb {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        let idx = ((y * self.width + x) * 3) as usize;
        Rgb::new(self.data[idx], self.data[idx + 1], self.data[idx + 2])
    }
}

/// Read access to a grid of pixels: a rendered [`Frame`], or a lazy
/// [`SceneView`](crate::render::SceneView) that computes each pixel only
/// when it is read. Signature extraction reads through this seam.
pub trait PixelSource {
    /// Width in pixels.
    fn width(&self) -> u32;
    /// Height in pixels.
    fn height(&self) -> u32;
    /// The pixel at `(x, y)`, which must lie inside the grid.
    fn pixel(&self, x: u32, y: u32) -> Rgb;
}

impl PixelSource for Frame {
    fn width(&self) -> u32 {
        self.width
    }

    fn height(&self) -> u32 {
        self.height
    }

    #[inline]
    fn pixel(&self, x: u32, y: u32) -> Rgb {
        Frame::pixel(self, x, y)
    }
}

/// Error for a pixel buffer whose length does not match its dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameSizeError {
    expected: usize,
    actual: usize,
}

impl std::fmt::Display for FrameSizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "frame buffer length {} does not match expected {}",
            self.actual, self.expected
        )
    }
}

impl std::error::Error for FrameSizeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filled_frame() {
        let f = Frame::filled(4, 3, Rgb::new(10, 20, 30));
        assert_eq!(f.width(), 4);
        assert_eq!(f.height(), 3);
        assert_eq!(f.byte_len(), 36);
        assert_eq!(f.pixel(3, 2), Rgb::new(10, 20, 30));
    }

    #[test]
    fn from_raw_validates_length() {
        assert!(Frame::from_raw(2, 2, vec![0; 12]).is_ok());
        let err = Frame::from_raw(2, 2, vec![0; 11]).unwrap_err();
        assert!(err.to_string().contains("11"));
    }

    #[test]
    fn clone_shares_buffer() {
        let f = Frame::filled(8, 8, Rgb::default());
        let g = f.clone();
        assert_eq!(f.raw().as_ptr(), g.raw().as_ptr());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_oob_panics() {
        Frame::filled(2, 2, Rgb::default()).pixel(2, 0);
    }
}
