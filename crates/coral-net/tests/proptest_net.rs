//! Property-based invariants for the communication protocol.

use coral_geo::{generators, GeoPoint, Heading, IntersectionId};
use coral_net::{ConnectionManager, DetectionEvent, Message};
use coral_topology::{mdcs_table, CameraId, CameraTopology, MdcsOptions, MdcsUpdate};
use coral_vision::{ColorHistogram, HistogramError, TrackId};
use proptest::prelude::*;
use std::collections::BTreeSet;

fn event(camera: u32, track: u64, heading: Option<Heading>) -> DetectionEvent {
    DetectionEvent {
        camera: CameraId(camera),
        timestamp_ms: track,
        heading,
        bearing_deg: heading.map(|h| h.bearing_deg()),
        signature: ColorHistogram::uniform(2),
        track: TrackId(track),
        vertex: None,
        ground_truth: None,
    }
}

/// A connection manager wired with the middle camera of a 3-corridor (so
/// both East and West have a recipient).
fn middle_manager() -> ConnectionManager {
    let net = generators::corridor(3, 100.0, 10.0);
    let pos = net.intersection(IntersectionId(1)).unwrap().position;
    let mut topo = CameraTopology::new(net);
    for i in 0..3 {
        topo.place_at_intersection(CameraId(i), IntersectionId(i), 0.0)
            .unwrap();
    }
    let mut cm = ConnectionManager::new(CameraId(1), pos, 0.0);
    cm.on_topology_update(MdcsUpdate {
        camera: CameraId(1),
        table: mdcs_table(&topo, CameraId(1), MdcsOptions::default()),
        version: 1,
    });
    cm
}

fn arb_heading() -> impl Strategy<Value = Option<Heading>> {
    proptest::option::of((0usize..8).prop_map(|i| Heading::ALL[i]))
}

proptest! {
    #[test]
    fn informs_never_target_self(tracks in proptest::collection::vec((0u64..100, arb_heading()), 0..40)) {
        let mut cm = middle_manager();
        for (track, heading) in tracks {
            for (to, msg) in cm.on_detection(event(1, track, heading)) {
                prop_assert_ne!(to, CameraId(1), "self-inform without U-turn");
                prop_assert!(matches!(msg, Message::Inform(_)));
            }
        }
    }

    #[test]
    fn confirm_relay_excludes_confirmer_and_fires_once(
        track in 0u64..100,
        confirmer_first in proptest::bool::ANY,
    ) {
        let mut cm = middle_manager();
        // Broadcast-style inform to both neighbours so the relay set is
        // non-trivial.
        let recipients: BTreeSet<CameraId> =
            [CameraId(0), CameraId(2)].into_iter().collect();
        let e = event(1, track, Some(Heading::East));
        cm.on_detection_to(e.clone(), recipients);
        let confirmer = if confirmer_first { CameraId(0) } else { CameraId(2) };
        let relays = cm.on_confirmation(e.event_id(), confirmer);
        prop_assert_eq!(relays.len(), 1);
        prop_assert_ne!(relays[0].0, confirmer);
        // Idempotence: a duplicate confirmation relays nothing.
        prop_assert!(cm.on_confirmation(e.event_id(), confirmer).is_empty());
        prop_assert_eq!(cm.pending_confirmations(), 0);
    }

    #[test]
    fn pending_confirmations_match_unconfirmed_informs(
        script in proptest::collection::vec((0u64..30, proptest::bool::ANY), 0..60),
    ) {
        let mut cm = middle_manager();
        let mut outstanding: BTreeSet<u64> = BTreeSet::new();
        for (track, confirm) in script {
            if confirm {
                let e = event(1, track, Some(Heading::East));
                let had = outstanding.remove(&track);
                let relays = cm.on_confirmation(e.event_id(), CameraId(2));
                // Relays only happen for known events; single-recipient
                // informs relay to nobody.
                prop_assert!(relays.is_empty());
                let _ = had;
            } else {
                let e = event(1, track, Some(Heading::East));
                let out = cm.on_detection(e);
                if !out.is_empty() {
                    outstanding.insert(track);
                }
            }
            prop_assert_eq!(cm.pending_confirmations(), outstanding.len());
        }
    }

    #[test]
    fn topology_updates_apply_in_version_order_only(
        versions in proptest::collection::vec(1u64..50, 1..30),
    ) {
        let net = generators::corridor(3, 100.0, 10.0);
        let pos = net.intersection(IntersectionId(1)).unwrap().position;
        let mut cm = ConnectionManager::new(CameraId(1), pos, 0.0);
        let mut applied_max = 0u64;
        let mut applied_count = 0u64;
        for v in versions {
            cm.on_topology_update(MdcsUpdate {
                camera: CameraId(1),
                table: Default::default(),
                version: v,
            });
            if v > applied_max {
                applied_max = v;
                applied_count += 1;
            }
            prop_assert_eq!(cm.stats().updates_applied, applied_count);
        }
    }

    #[test]
    fn wire_format_roundtrips_any_event(
        camera in 0u32..1000,
        track in 0u64..10_000,
        ts in 0u64..u32::MAX as u64,
        heading in arb_heading(),
    ) {
        let e = DetectionEvent {
            camera: CameraId(camera),
            timestamp_ms: ts,
            heading,
            bearing_deg: heading.map(|h| h.bearing_deg()),
            signature: ColorHistogram::uniform(4),
            track: TrackId(track),
            vertex: None,
            ground_truth: None,
        };
        let back = DetectionEvent::from_json(&e.to_json()).unwrap();
        prop_assert_eq!(e, back);
    }

    #[test]
    fn heartbeats_preserve_position(lat in -60.0f64..60.0, lon in -170.0f64..170.0) {
        let mut cm = ConnectionManager::new(CameraId(7), GeoPoint::new(lat, lon), 45.0);
        let Message::Heartbeat { camera, position, videoing_angle_deg } = cm.heartbeat() else {
            panic!("heartbeat() must build a heartbeat");
        };
        prop_assert_eq!(camera, CameraId(7));
        prop_assert_eq!(position.lat, lat);
        prop_assert_eq!(position.lon, lon);
        prop_assert_eq!(videoing_angle_deg, 45.0);
    }
}

/// The ways [`mutate`] breaks a sparse signature.
const MUTATIONS: usize = 10;

/// A valid `bins_per_channel`-cubed signature with at least two non-zero
/// bins: the first and last cells, plus every cell whose `draw` is below
/// `density`.
fn sparse_bins(bins_per_channel: usize, draws: &[f64], density: f64) -> Vec<(usize, f64)> {
    let cells = bins_per_channel.pow(3);
    (0..cells)
        .filter(|&i| i == 0 || i == cells - 1 || draws[i] < density)
        .map(|i| (i, 0.001 + draws[i]))
        .collect()
}

/// A broken `(bins_per_channel, bins)` and the check its rejection must
/// pass.
type Mutated = (usize, Vec<(usize, f64)>, fn(&HistogramError) -> bool);

/// Breaks `(bins_per_channel, bins)` the `kind`-th way (of
/// [`MUTATIONS`]) at entry `at` (modulo the length), and returns whether
/// `err` is the typed rejection that mutation must earn.
fn mutate(kind: usize, at: usize, bins_per_channel: usize, mut bins: Vec<(usize, f64)>) -> Mutated {
    let n = bins.len();
    let k = at % n;
    let cells = bins_per_channel.pow(3);
    let mut bpc = bins_per_channel;
    let want: fn(&HistogramError) -> bool = match kind {
        0 => {
            let k = k.min(n - 2);
            bins.swap(k, k + 1);
            |e| matches!(e, HistogramError::Order(_))
        }
        1 => {
            bins.insert(k, bins[k]);
            |e| matches!(e, HistogramError::Order(_))
        }
        2 => {
            bins[n - 1].0 = cells + k;
            |e| matches!(e, HistogramError::OutOfRange { .. })
        }
        3..=6 => {
            bins[k].1 = [f64::NAN, f64::INFINITY, -bins[k].1, 0.0][kind - 3];
            |e| matches!(e, HistogramError::Bin(_))
        }
        7 => {
            bpc = 0;
            |e| matches!(e, HistogramError::BinsPerChannel(0))
        }
        8 => {
            // The cube overflows a 64-bit usize.
            bpc = (1 << 22) + k;
            |e| matches!(e, HistogramError::BinsPerChannel(_))
        }
        _ => {
            bins.clear();
            |e| *e == HistogramError::Empty
        }
    };
    (bpc, bins, want)
}

/// A signature in the wire form, values written as Rust prints them (so
/// NaN and infinity come out as tokens JSON has no spelling for).
fn signature_json(bins_per_channel: usize, bins: &[(usize, f64)]) -> String {
    let pairs: Vec<String> = bins.iter().map(|(i, v)| format!("[{i},{v:?}]")).collect();
    format!(
        r#"{{"bins_per_channel":{bins_per_channel},"bins":[{}]}}"#,
        pairs.join(",")
    )
}

/// Every way of breaking one canonical sparse signature, with fixed
/// positions: the decoder rejects each with the typed error.
#[test]
fn each_signature_mutation_is_rejected() {
    let bins = vec![(0, 0.25), (9, 0.25), (40, 0.25), (63, 0.25)];
    for kind in 0..MUTATIONS {
        let (bpc, bad, want) = mutate(kind, 1, 4, bins.clone());
        let err = ColorHistogram::from_sparse(bpc, bad.clone()).expect_err("mutated");
        assert!(want(&err), "mutation {kind}: {err:?}");
        let inform = inform_with_signature(&signature_json(bpc, &bad));
        assert!(
            serde_json::from_str::<Message>(&inform).is_err(),
            "{inform}"
        );
    }
}

/// `Message::Inform` JSON whose signature object is `signature`.
fn inform_with_signature(signature: &str) -> String {
    let json = serde_json::to_string(&Message::Inform(event(4, 8, Some(Heading::North)))).unwrap();
    let start = json.find(r#""signature":"#).unwrap() + r#""signature":"#.len();
    let end = start + json[start..].find('}').unwrap() + 1;
    format!("{}{signature}{}", &json[..start], &json[end..])
}

proptest! {
    /// Hostile signatures inside an inform decode to an error, never a
    /// panic: the typed `HistogramError` wherever the JSON itself parses.
    #[test]
    fn mutated_signatures_in_informs_are_rejected(
        bins_per_channel in 2usize..=8,
        draws in proptest::collection::vec(0.0f64..1.0, 512),
        density in 0.0f64..1.0,
        kind in 0usize..MUTATIONS,
        at in 0usize..1024,
    ) {
        let bins = sparse_bins(bins_per_channel, &draws, density);
        let valid = inform_with_signature(&signature_json(bins_per_channel, &bins));
        prop_assert!(serde_json::from_str::<Message>(&valid).is_ok());
        let (bpc, bad, want) = mutate(kind, at, bins_per_channel, bins);
        let err = ColorHistogram::from_sparse(bpc, bad.clone()).unwrap_err();
        prop_assert!(want(&err), "mutation {}: {:?}", kind, err);
        let decoded = serde_json::from_str::<Message>(&inform_with_signature(&signature_json(bpc, &bad)));
        match decoded {
            Ok(m) => prop_assert!(false, "mutation {} decoded: {:?}", kind, m),
            Err(e) if bad.iter().all(|(_, v)| v.is_finite()) => {
                prop_assert!(e.to_string().contains(&err.to_string()), "{} vs {}", e, err);
            }
            Err(_) => {}
        }
    }
}
