//! Wire format for inter-camera and camera-cloud messages.
//!
//! The paper specifies that "a detection event is generated for the vehicle
//! which is a JSON object that contains the name of the camera that
//! detected the vehicle, the UTC timestamp of the detection, the features
//! including moving direction and adaptive histogram, the ID of the vehicle
//! generated by the Sort Tracker, and the ID of the corresponding vertex in
//! the trajectory graph" (§4.1.2). This module reproduces that JSON wire
//! format via serde.

use coral_geo::{GeoPoint, Heading};
use coral_topology::{CameraId, MdcsUpdate};
use coral_vision::{ColorHistogram, TrackId};
use serde::{Deserialize, Serialize};

/// Identifier of the trajectory-graph vertex created for a detection event
/// (assigned by the storage layer).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct VertexId(pub u64);

impl std::fmt::Display for VertexId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Globally unique identity of a detection event: the detecting camera plus
/// its camera-local SORT track id (track ids are local, paper footnote 6).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct EventId {
    /// The camera that generated the event.
    pub camera: CameraId,
    /// The camera-local track id.
    pub track: TrackId,
}

impl std::fmt::Display for EventId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.camera, self.track)
    }
}

/// A vehicle detection event — the JSON object exchanged between cameras.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionEvent {
    /// Detecting camera ("name of the camera").
    pub camera: CameraId,
    /// Detection timestamp, milliseconds (UTC in the paper; simulation
    /// time here).
    pub timestamp_ms: u64,
    /// Estimated moving direction, if the tracklet displacement sufficed.
    pub heading: Option<Heading>,
    /// Raw estimated bearing in degrees, if available.
    pub bearing_deg: Option<f64>,
    /// Adaptive color-histogram signature.
    pub signature: ColorHistogram,
    /// Camera-local SORT track id.
    pub track: TrackId,
    /// Trajectory-graph vertex for this event, filled in once storage
    /// acknowledges the insertion.
    pub vertex: Option<VertexId>,
    /// Evaluation-only sidecar: the ground-truth vehicle identity as
    /// attributed by the identification element. **Never consulted by any
    /// system logic** — it exists so the evaluation harness can score
    /// protocol effectiveness (Fig. 10) without an oracle in the loop. A
    /// production deployment carries `None`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub ground_truth: Option<coral_vision::GroundTruthId>,
}

impl DetectionEvent {
    /// The event's globally unique identity.
    pub fn event_id(&self) -> EventId {
        EventId {
            camera: self.camera,
            track: self.track,
        }
    }

    /// Serialises to the JSON wire format.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("detection event serialises")
    }

    /// Parses from the JSON wire format.
    ///
    /// # Errors
    ///
    /// Returns the underlying serde error for malformed JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// All messages exchanged in the system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Informing stage: an upstream camera announces a detection to its
    /// MDCS (§3.2).
    Inform(DetectionEvent),
    /// Confirming stage: a downstream camera re-identified the vehicle, or
    /// the predecessor relays that confirmation to the rest of its MDCS.
    Confirm {
        /// The confirmed detection event.
        event: EventId,
        /// The camera that re-identified the vehicle.
        reidentified_by: CameraId,
    },
    /// Periodic liveness beacon to the topology server (§3.3).
    Heartbeat {
        /// Sending camera.
        camera: CameraId,
        /// Camera position (used for first-contact registration).
        position: GeoPoint,
        /// Camera videoing angle, degrees clockwise from north.
        videoing_angle_deg: f64,
    },
    /// The topology server pushes a recomputed MDCS table to a camera.
    TopologyUpdate(MdcsUpdate),
    /// Federation: a downstream camera committed a boundary-crossing
    /// trajectory edge in its own region's store and replicates it to the
    /// upstream region's store. The upstream store already owns `from`'s
    /// vertex; `event` carries the downstream vertex (`event.vertex` is
    /// set) with enough metadata to adopt it at its global id, so applying
    /// the message is adopt + keep-first edge insert — idempotent and
    /// delivery-order-insensitive.
    Replicate {
        /// The upstream vertex the edge leaves from.
        from: VertexId,
        /// The downstream detection event the edge points to.
        event: DetectionEvent,
        /// FOV-entry timestamp of the downstream event (milliseconds) —
        /// not part of the inform wire format, needed to adopt the vertex
        /// record byte-for-byte.
        first_ms: u64,
        /// Bhattacharyya distance of the re-identification (edge weight).
        distance: f64,
    },
    /// Reliable-delivery framing: a payload stamped with a per-peer
    /// sequence number by the at-least-once layer
    /// (`coral_net::ReliableTransport`). Receivers acknowledge the
    /// sequence number and deduplicate redeliveries; protocol actors never
    /// see this variant — the transport strips it before delivery.
    Sequenced {
        /// Sender-assigned, per-peer monotonically increasing sequence
        /// number.
        seq: u64,
        /// The wrapped protocol message.
        payload: Box<Message>,
    },
    /// Reliable-delivery framing: acknowledges receipt of the
    /// [`Message::Sequenced`] payload carrying `seq` from the ack's
    /// recipient. Consumed by the at-least-once layer.
    Ack {
        /// The acknowledged sequence number.
        seq: u64,
    },
}

impl Message {
    /// Length of the message on the wire (JSON bytes) — used by the
    /// communication-overhead benchmarks.
    pub fn encoded_len(&self) -> usize {
        serde_json::to_vec(self).map(|v| v.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_vision::ColorHistogram;

    fn event() -> DetectionEvent {
        DetectionEvent {
            camera: CameraId(3),
            timestamp_ms: 123_456,
            heading: Some(Heading::East),
            bearing_deg: Some(92.5),
            signature: ColorHistogram::uniform(4),
            track: TrackId(17),
            vertex: Some(VertexId(99)),
            ground_truth: None,
        }
    }

    #[test]
    fn detection_event_json_roundtrip() {
        let e = event();
        let json = e.to_json();
        assert!(json.contains("\"camera\""));
        assert!(json.contains("\"timestamp_ms\":123456"));
        let back = DetectionEvent::from_json(&json).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn malformed_json_is_error() {
        assert!(DetectionEvent::from_json("{not json").is_err());
    }

    #[test]
    fn malformed_signature_is_error() {
        // A signature that breaks its own invariants would misbehave in
        // the first re-id compare; the decoder must refuse it.
        let json = event().to_json();
        assert!(json.contains(r#""bins":[[0,0.015625],[1,0.015625],"#));
        for bad in [
            json.replacen("[1,0.015625]", "[0,0.015625]", 1),
            json.replacen("[1,0.015625]", "[64,0.015625]", 1),
            json.replacen("[1,0.015625]", "[1,0.0]", 1),
            json.replacen("[1,0.015625]", "[1,-3.0]", 1),
            json.replacen("\"bins_per_channel\":4", "\"bins_per_channel\":0", 1),
        ] {
            assert!(DetectionEvent::from_json(&bad).is_err(), "{bad}");
            let inform = format!(r#"{{"Inform":{bad}}}"#);
            assert!(serde_json::from_str::<Message>(&inform).is_err());
        }
        let inform = format!(r#"{{"Inform":{json}}}"#);
        assert_eq!(
            serde_json::from_str::<Message>(&inform).unwrap(),
            Message::Inform(event())
        );
    }

    /// An inform shaped like the `city_lookalike` ones: eight non-zero
    /// bins out of 512.
    fn city_event() -> DetectionEvent {
        let mut dense = vec![0.0; 512];
        for (k, i) in [9usize, 73, 74, 81, 137, 146, 210, 292]
            .into_iter()
            .enumerate()
        {
            dense[i] = (k + 1) as f64 / 36.0;
        }
        DetectionEvent {
            signature: ColorHistogram::from_bins(8, dense).unwrap(),
            ..event()
        }
    }

    #[test]
    fn inform_bytes_are_pinned() {
        // Only the non-zero bins cross the wire, each as an (index, value)
        // pair: 2,322 bytes as 512 dense bins, 349 as eight pairs. The
        // all-bins-non-zero uniform signature pays for its indices (724
        // bytes as 64 dense bins).
        assert_eq!(Message::Inform(city_event()).encoded_len(), 349);
        assert_eq!(Message::Inform(event()).encoded_len(), 1034);
    }

    #[test]
    fn event_id_combines_camera_and_track() {
        let e = event();
        let id = e.event_id();
        assert_eq!(id.camera, CameraId(3));
        assert_eq!(id.track, TrackId(17));
        assert_eq!(id.to_string(), "cam3/t17");
    }

    #[test]
    fn message_roundtrip_all_variants() {
        let msgs = vec![
            Message::Inform(event()),
            Message::Confirm {
                event: event().event_id(),
                reidentified_by: CameraId(5),
            },
            Message::Heartbeat {
                camera: CameraId(1),
                position: GeoPoint::new(33.77, -84.39),
                videoing_angle_deg: 90.0,
            },
            Message::Replicate {
                from: VertexId(7),
                event: event(),
                first_ms: 120_000,
                distance: 0.12,
            },
            Message::Sequenced {
                seq: 42,
                payload: Box::new(Message::Inform(event())),
            },
            Message::Ack { seq: 42 },
        ];
        for m in msgs {
            let json = serde_json::to_string(&m).unwrap();
            let back: Message = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
            assert_eq!(m.encoded_len(), json.len());
        }
    }

    #[test]
    fn inform_carries_the_signature_payload() {
        // The inform message is the heavyweight one (it carries the
        // histogram); a confirm is tiny.
        let inform = Message::Inform(event());
        let confirm = Message::Confirm {
            event: event().event_id(),
            reidentified_by: CameraId(5),
        };
        assert!(inform.encoded_len() > 4 * confirm.encoded_len());
    }
}
