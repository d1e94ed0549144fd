//! Raw RGB frames.
//!
//! Coral-Pie deliberately keeps frames in raw (unencoded) form when moving
//! them between the compute resources of a camera, because JPEG/NumPy
//! serialisation blows the 100 ms sub-task budget on a Raspberry Pi
//! (paper §4.1.5). This module models exactly that raw representation.

use crate::histogram::bin_index;
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
    /// Panics if `width` or `height` is zero, or if the frame's byte size
    /// overflows `usize`.
    pub fn filled(width: u32, height: u32, fill: Rgb) -> Self {
        assert!(width > 0 && height > 0, "frame must be non-empty");
        let pixels = (width as usize)
            .checked_mul(height as usize)
            .filter(|n| n.checked_mul(3).is_some())
            .expect("frame byte size overflows usize");
        let data = [fill.r, fill.g, fill.b].repeat(pixels);
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
        let expected = (width as usize)
            .checked_mul(height as usize)
            .and_then(|n| n.checked_mul(3))
            .unwrap_or(usize::MAX);
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
        let idx = byte_offset(self.width, x, y);
        Rgb::new(self.data[idx], self.data[idx + 1], self.data[idx + 2])
    }
}

/// Offset of pixel `(x, y)` in a row-major RGB buffer `width` pixels wide,
/// computed in `usize`: a frame may hold more than `u32::MAX` bytes. For a
/// pixel inside an allocated frame the offset is below the buffer length,
/// so it cannot overflow.
#[inline]
fn byte_offset(width: u32, x: u32, y: u32) -> usize {
    (y as usize * width as usize + x as usize) * 3
}

/// Read access to a grid of pixels, one row span at a time: a rendered
/// [`Frame`], or a lazy [`SceneView`](crate::render::SceneView) that
/// computes only the spans it is asked for. Signature extraction reads
/// through this seam, as histogram bins: it never needs the pixels
/// themselves, so a source may produce a pixel's bin without its color.
pub trait PixelSource {
    /// Width in pixels.
    fn width(&self) -> u32;
    /// Height in pixels.
    fn height(&self) -> u32;
    /// Replaces the contents of `out` with the pixels `x0..x1` of row `y`,
    /// left to right. Requires `x0 <= x1 <= width` and `y < height`.
    fn row_into(&self, y: u32, x0: u32, x1: u32, out: &mut Vec<Rgb>);
    /// Replaces the contents of `out` with the color-histogram bin of each
    /// pixel `x0..x1` of row `y`, left to right, at `bins_per_channel`
    /// bins per channel: `(r·n/256 · n + g·n/256) · n + b·n/256` for
    /// `n = bins_per_channel`, each channel scaled with integer division.
    /// Same bounds as [`PixelSource::row_into`].
    ///
    /// The default bins the pixels [`PixelSource::row_into`] produces,
    /// through a pixel row it allocates per call; the sources in this
    /// crate override it to skip that row.
    ///
    /// # Panics
    ///
    /// Panics if a bin index does not fit in `u32`.
    fn bin_row_into(&self, y: u32, x0: u32, x1: u32, bins_per_channel: usize, out: &mut Vec<u32>) {
        let mut row = Vec::new();
        self.row_into(y, x0, x1, &mut row);
        out.clear();
        out.extend(row.into_iter().map(|px| bin_index(px, bins_per_channel)));
    }
}

impl Frame {
    /// The raw bytes of pixels `x0..x1` of row `y`.
    fn span(&self, y: u32, x0: u32, x1: u32) -> &[u8] {
        assert!(
            x0 <= x1 && x1 <= self.width && y < self.height,
            "row span out of bounds"
        );
        &self.data[byte_offset(self.width, x0, y)..byte_offset(self.width, x1, y)]
    }
}

impl PixelSource for Frame {
    fn width(&self) -> u32 {
        self.width
    }

    fn height(&self) -> u32 {
        self.height
    }

    fn row_into(&self, y: u32, x0: u32, x1: u32, out: &mut Vec<Rgb>) {
        out.clear();
        out.extend(
            self.span(y, x0, x1)
                .chunks_exact(3)
                .map(|p| Rgb::new(p[0], p[1], p[2])),
        );
    }

    /// Bins the bytes in place. The default's per-row pixel buffer made
    /// extraction from a stored frame about 16% slower.
    fn bin_row_into(&self, y: u32, x0: u32, x1: u32, bins_per_channel: usize, out: &mut Vec<u32>) {
        out.clear();
        out.extend(
            self.span(y, x0, x1)
                .chunks_exact(3)
                .map(|p| bin_index(Rgb::new(p[0], p[1], p[2]), bins_per_channel)),
        );
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

    #[test]
    fn row_into_copies_the_span() {
        let data = (0..4 * 3 * 3).map(|v| v as u8).collect();
        let f = Frame::from_raw(4, 3, data).unwrap();
        let mut row = vec![Rgb::default(); 7];
        f.row_into(1, 1, 3, &mut row);
        assert_eq!(row, [f.pixel(1, 1), f.pixel(2, 1)]);
        f.row_into(2, 4, 4, &mut row);
        assert!(row.is_empty());
    }

    /// A source that only has pixels gets the default bins, which are
    /// the bins a `Frame` reads from its bytes directly.
    #[test]
    fn default_bins_are_the_bins_of_the_pixels() {
        struct PixelsOnly(Frame);
        impl PixelSource for PixelsOnly {
            fn width(&self) -> u32 {
                self.0.width()
            }
            fn height(&self) -> u32 {
                self.0.height()
            }
            fn row_into(&self, y: u32, x0: u32, x1: u32, out: &mut Vec<Rgb>) {
                self.0.row_into(y, x0, x1, out);
            }
        }
        let data = (0..5 * 2 * 3).map(|v| (v * 37 % 256) as u8).collect();
        let frame = Frame::from_raw(5, 2, data).unwrap();
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for bins_per_channel in [1, 3, 8, 41] {
            frame.bin_row_into(1, 1, 5, bins_per_channel, &mut want);
            PixelsOnly(frame.clone()).bin_row_into(1, 1, 5, bins_per_channel, &mut got);
            assert_eq!(got, want);
            assert_eq!(want.len(), 4);
        }
        let px = frame.pixel(2, 1);
        frame.bin_row_into(1, 2, 3, 8, &mut want);
        let scale = |v: u8| u32::from(v) * 8 / 256;
        assert_eq!(want, [(scale(px.r) * 8 + scale(px.g)) * 8 + scale(px.b)]);
    }

    #[test]
    #[should_panic(expected = "row span out of bounds")]
    fn row_into_past_the_edge_panics() {
        Frame::filled(2, 2, Rgb::default()).row_into(0, 1, 3, &mut Vec::new());
    }

    /// Offsets past `u32::MAX` bytes are exact: the old `u32` arithmetic
    /// wrapped (release) or panicked (debug) on frames above 4 GiB.
    #[test]
    fn byte_offset_does_not_wrap_at_u32_scale() {
        assert_eq!(
            byte_offset(u32::MAX, 5, 2),
            (2 * (u32::MAX as usize) + 5) * 3
        );
        assert_eq!(
            byte_offset(70_000, 69_999, 69_999),
            (69_999 * 70_000 + 69_999) * 3
        );
        assert_eq!(
            byte_offset(u32::MAX, u32::MAX - 1, 0),
            (u32::MAX as usize - 1) * 3
        );
    }

    #[test]
    fn oversized_frames_are_rejected_not_wrapped() {
        // 2^32 x 2^32 x 3 bytes overflows usize: no buffer can match.
        let err = Frame::from_raw(u32::MAX, u32::MAX, Vec::new()).unwrap_err();
        assert!(err.to_string().contains(&usize::MAX.to_string()));
        // 65 536 x 65 536 x 3 wraps to 0 in u32; in usize it is 12 GiB.
        assert!(Frame::from_raw(65_536, 65_536, Vec::new()).is_err());
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn filled_rejects_a_size_that_overflows_usize() {
        Frame::filled(u32::MAX, u32::MAX, Rgb::default());
    }
}
