//! Pluggable vision substrate for Coral-Pie: detection, SORT tracking and
//! appearance signatures.
//!
//! The paper treats its computer-vision components as pluggable modules
//! (§2.1) and builds the prototype from off-the-shelf pieces: MobileNetSSD
//! detection on an EdgeTPU, the SORT tracker, adaptive center-weighted
//! color histograms and the Bhattacharyya distance (§4.1). This crate
//! reimplements each piece, substituting a synthetic renderer plus a
//! calibrated noise-model detector for the physical camera and TPU (see
//! DESIGN.md for the substitution argument):
//!
//! - [`render`] — renders ground-truth scenes into raw RGB pixels, on
//!   demand through a [`SceneView`] or as a whole [`Frame`].
//! - [`detect`] — the [`Detector`] trait, [`SyntheticSsdDetector`], and the
//!   paper's 3-step post-processing filter ([`PostProcessor`]).
//! - [`kalman`] / [`hungarian`] / [`sort`] — the SORT tracker stack.
//! - [`histogram`] — adaptive color histograms and Bhattacharyya distance.
//! - [`direction`] — tracklet motion-direction estimation.
//! - [`ident`] — the Vehicle Identification element that emits one
//!   detection event per vehicle passage.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bbox;
pub mod detect;
pub mod direction;
pub mod frame;
pub mod histogram;
pub mod hungarian;
pub mod ident;
pub mod interval;
pub mod kalman;
pub mod render;
pub mod sort;

pub use bbox::{BoundingBox, InvalidBoxError};
pub use detect::{Detection, Detector, DetectorNoise, PostProcessor, SyntheticSsdDetector};
pub use frame::{Frame, FrameId, PixelSource, Rgb};
pub use histogram::{
    bhattacharyya_sum_flat, bhattacharyya_sum_naive, ColorHistogram, HistogramConfig,
    HistogramError, HistogramScratch, SignatureAccumulator,
};
pub use ident::{IdentConfig, IdentFrameResult, VehicleIdentification, VehicleObservation};
pub use interval::{DetectAndTrack, DetectAndTrackConfig};
pub use kalman::KalmanBoxFilter;
pub use render::{
    GroundTruthId, ObjectClass, Renderer, Scene, SceneActor, SceneView, VehicleAppearance,
};
pub use sort::{ExpiredTrack, SortConfig, SortOutput, SortTracker, TrackId, TrackState};

// The hot per-frame kernels cross thread boundaries in the runtime's
// parallel camera stepper: each worker owns one camera's tracker state
// exclusively (`&mut`, no aliasing) while sharing read-only scene data.
// These bounds keep that sound at compile time — none of the kernels may
// grow non-`Send`/`Sync` interior state (`Rc`, `RefCell`, raw pointers).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<KalmanBoxFilter>();
    assert_send_sync::<SortTracker>();
    assert_send_sync::<ColorHistogram>();
    assert_send_sync::<SignatureAccumulator>();
    assert_send_sync::<Frame>();
    assert_send_sync::<Scene>();
    assert_send_sync::<VehicleIdentification<SyntheticSsdDetector>>();
};
