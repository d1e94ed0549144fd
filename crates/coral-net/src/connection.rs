//! The connection manager: per-camera protocol state for the two-stage
//! inform/confirm communication protocol.
//!
//! Responsibilities (paper Fig. 7 and §3.2/§4.1.3):
//!
//! - route each local detection event to the MDCS for its heading
//!   (informing stage), or flood it to a fixed roster for the §5.3
//!   baseline, and remember who was informed;
//! - on a confirmation from a downstream camera, relay the confirmation to
//!   all *other* informed cameras so they can garbage-collect the event
//!   from their candidate pools (confirming stage);
//! - send periodic heartbeats to the topology server and apply the MDCS
//!   updates it pushes back.

use crate::message::{DetectionEvent, EventId, Message};
use crate::socket_group::SocketGroup;
use coral_geo::GeoPoint;
use coral_topology::{CameraId, MdcsUpdate};
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Counters exposed for the communication experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectionStats {
    /// Inform messages sent (one per downstream recipient).
    pub informs_sent: u64,
    /// Confirm messages sent (both first-hand and relayed).
    pub confirms_sent: u64,
    /// Heartbeats sent.
    pub heartbeats_sent: u64,
    /// Topology updates applied.
    pub updates_applied: u64,
}

/// Per-camera communication element.
#[derive(Debug)]
pub struct ConnectionManager {
    camera: CameraId,
    position: GeoPoint,
    videoing_angle_deg: f64,
    group: SocketGroup,
    /// The flood recipients (every other deployed camera) when the §5.3
    /// broadcast baseline replaces MDCS routing; `None` routes by `group`.
    flood: Option<BTreeSet<CameraId>>,
    /// Events we informed downstream, with the informed set, so a
    /// confirmation can be relayed to the others. Bounded FIFO.
    informed: HashMap<EventId, BTreeSet<CameraId>>,
    informed_order: VecDeque<EventId>,
    max_pending: usize,
    table_version: Option<u64>,
    stats: ConnectionStats,
}

impl ConnectionManager {
    /// Creates the manager for `camera` at `position`.
    pub fn new(camera: CameraId, position: GeoPoint, videoing_angle_deg: f64) -> Self {
        Self {
            camera,
            position,
            videoing_angle_deg,
            group: SocketGroup::new(),
            flood: None,
            informed: HashMap::new(),
            informed_order: VecDeque::new(),
            max_pending: 4096,
            table_version: None,
            stats: ConnectionStats::default(),
        }
    }

    /// The owning camera.
    pub fn camera(&self) -> CameraId {
        self.camera
    }

    /// The current socket group.
    pub fn socket_group(&self) -> &SocketGroup {
        &self.group
    }

    /// Telemetry counters.
    pub fn stats(&self) -> ConnectionStats {
        self.stats
    }

    /// Replaces MDCS routing with flooding to every camera of `roster`
    /// but this one: the broadcast baseline the paper compares against
    /// (§5.3 reports that broadcasting to all five cameras yields >83%
    /// redundant pool entries). Decided once, at deployment.
    pub fn flood_to(&mut self, roster: impl IntoIterator<Item = CameraId>) {
        let me = self.camera;
        self.flood = Some(roster.into_iter().filter(|&c| c != me).collect());
    }

    /// Informing stage: routes a freshly generated detection event to the
    /// MDCS of its heading, or to the flood roster when one is set.
    /// Returns `(recipient, message)` pairs for the transport to deliver.
    pub fn on_detection(&mut self, event: DetectionEvent) -> Vec<(CameraId, Message)> {
        let recipients = match &self.flood {
            Some(roster) => roster.clone(),
            None => self.group.recipients(event.heading),
        };
        let id = event.event_id();
        if !recipients.is_empty() {
            self.remember(id, recipients.clone());
        }
        self.stats.informs_sent += recipients.len() as u64;
        recipients
            .into_iter()
            .map(|to| (to, Message::Inform(event.clone())))
            .collect()
    }

    /// A downstream camera re-identified one of our events: relay the
    /// confirmation to all *other* cameras we informed (§3.2, the
    /// confirming stage enables their candidate-pool garbage collection).
    pub fn on_confirmation(
        &mut self,
        event: EventId,
        reidentified_by: CameraId,
    ) -> Vec<(CameraId, Message)> {
        let Some(informed) = self.informed.remove(&event) else {
            return Vec::new(); // unknown or already confirmed
        };
        self.informed_order.retain(|e| *e != event);
        let out: Vec<(CameraId, Message)> = informed
            .into_iter()
            .filter(|&c| c != reidentified_by)
            .map(|to| {
                (
                    to,
                    Message::Confirm {
                        event,
                        reidentified_by,
                    },
                )
            })
            .collect();
        self.stats.confirms_sent += out.len() as u64;
        out
    }

    /// Builds the confirmation this camera sends to the predecessor after
    /// a successful re-identification of `event` (first half of the
    /// confirming stage).
    pub fn confirm_to_upstream(&mut self, event: EventId) -> (CameraId, Message) {
        self.stats.confirms_sent += 1;
        (
            event.camera,
            Message::Confirm {
                event,
                reidentified_by: self.camera,
            },
        )
    }

    /// Builds the periodic heartbeat message for the topology server.
    pub fn heartbeat(&mut self) -> Message {
        self.stats.heartbeats_sent += 1;
        Message::Heartbeat {
            camera: self.camera,
            position: self.position,
            videoing_angle_deg: self.videoing_angle_deg,
        }
    }

    /// Applies an MDCS table pushed by the topology server.
    ///
    /// Updates addressed to other cameras are ignored (defensive check for
    /// misrouted traffic), as are updates whose version is not newer than
    /// the last one applied — WAN delivery can reorder updates, and a stale
    /// table must never overwrite a fresher one.
    pub fn on_topology_update(&mut self, update: MdcsUpdate) {
        if update.camera != self.camera {
            return;
        }
        if self.table_version.is_some_and(|v| update.version <= v) {
            return; // stale or duplicate
        }
        self.table_version = Some(update.version);
        self.group.reconfigure(update.table);
        self.stats.updates_applied += 1;
    }

    /// Number of events awaiting confirmation.
    pub fn pending_confirmations(&self) -> usize {
        self.informed.len()
    }

    fn remember(&mut self, id: EventId, informed: BTreeSet<CameraId>) {
        if self.informed.insert(id, informed).is_none() {
            self.informed_order.push_back(id);
        }
        while self.informed.len() > self.max_pending {
            if let Some(old) = self.informed_order.pop_front() {
                self.informed.remove(&old);
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::{generators, Heading, IntersectionId};
    use coral_topology::{mdcs_table, CameraTopology, MdcsOptions};
    use coral_vision::{ColorHistogram, TrackId};

    fn event(camera: CameraId, track: u64, heading: Option<Heading>) -> DetectionEvent {
        DetectionEvent {
            camera,
            timestamp_ms: 1_000,
            heading,
            bearing_deg: heading.map(|h| h.bearing_deg()),
            signature: ColorHistogram::uniform(4),
            track: TrackId(track),
            vertex: None,
            ground_truth: None,
        }
    }

    /// Camera 0 at the west end of a 3-camera corridor, MDCS(E) = {1}.
    fn manager_with_corridor_mdcs() -> ConnectionManager {
        let net = generators::corridor(3, 100.0, 10.0);
        let pos = net.intersection(IntersectionId(0)).unwrap().position;
        let mut topo = CameraTopology::new(net);
        for i in 0..3 {
            topo.place_at_intersection(CameraId(i), IntersectionId(i), 0.0)
                .unwrap();
        }
        let mut cm = ConnectionManager::new(CameraId(0), pos, 0.0);
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: mdcs_table(&topo, CameraId(0), MdcsOptions::default()),
            version: 1,
        });
        cm
    }

    /// A manager whose MDCS(E) = {1, 2} (branching road).
    fn manager_with_branching_mdcs() -> ConnectionManager {
        use coral_geo::{GeoPoint, RoadNetwork};
        let base = GeoPoint::new(33.77, -84.39);
        let mut net = RoadNetwork::new();
        let a = net.add_intersection(base);
        let j = net.add_intersection(base.offset_m(0.0, 150.0));
        let b = net.add_intersection(base.offset_m(0.0, 300.0));
        let c = net.add_intersection(base.offset_m(150.0, 150.0));
        net.add_two_way(a, j, 10.0).unwrap();
        net.add_two_way(j, b, 10.0).unwrap();
        net.add_two_way(j, c, 10.0).unwrap();
        let pos = net.intersection(a).unwrap().position;
        let mut topo = CameraTopology::new(net);
        topo.place_at_intersection(CameraId(0), a, 0.0).unwrap();
        topo.place_at_intersection(CameraId(1), b, 0.0).unwrap();
        topo.place_at_intersection(CameraId(2), c, 0.0).unwrap();
        let mut cm = ConnectionManager::new(CameraId(0), pos, 0.0);
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: mdcs_table(&topo, CameraId(0), MdcsOptions::default()),
            version: 1,
        });
        cm
    }

    #[test]
    fn detection_routes_to_mdcs() {
        let mut cm = manager_with_corridor_mdcs();
        let out = cm.on_detection(event(CameraId(0), 1, Some(Heading::East)));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, CameraId(1));
        assert!(matches!(out[0].1, Message::Inform(_)));
        assert_eq!(cm.stats().informs_sent, 1);
        assert_eq!(cm.pending_confirmations(), 1);
    }

    #[test]
    fn fig3_full_protocol_round() {
        // Fig. 3: A informs B and C; B re-identifies and confirms to A;
        // A notifies C to drop the event.
        let mut cam_a = manager_with_branching_mdcs();
        let e = event(CameraId(0), 7, Some(Heading::East));
        let informs = cam_a.on_detection(e.clone());
        let informed: BTreeSet<CameraId> = informs.iter().map(|(c, _)| *c).collect();
        assert_eq!(informed, BTreeSet::from([CameraId(1), CameraId(2)]));

        // Camera B (id 1) re-identifies: builds its upstream confirmation.
        let mut cam_b =
            ConnectionManager::new(CameraId(1), coral_geo::GeoPoint::new(33.77, -84.39), 0.0);
        let (to, confirm) = cam_b.confirm_to_upstream(e.event_id());
        assert_eq!(to, CameraId(0));
        let Message::Confirm {
            event: ev,
            reidentified_by,
        } = confirm
        else {
            panic!("expected confirm");
        };
        assert_eq!(reidentified_by, CameraId(1));

        // Camera A relays the confirmation to C only.
        let relays = cam_a.on_confirmation(ev, reidentified_by);
        assert_eq!(relays.len(), 1);
        assert_eq!(relays[0].0, CameraId(2));
        assert_eq!(cam_a.pending_confirmations(), 0);

        // A second confirmation for the same event is a no-op.
        assert!(cam_a.on_confirmation(ev, reidentified_by).is_empty());
    }

    #[test]
    fn unknown_confirmation_ignored() {
        let mut cm = manager_with_corridor_mdcs();
        let ghost = EventId {
            camera: CameraId(0),
            track: TrackId(404),
        };
        assert!(cm.on_confirmation(ghost, CameraId(1)).is_empty());
    }

    #[test]
    fn no_mdcs_means_no_informs() {
        let mut cm =
            ConnectionManager::new(CameraId(9), coral_geo::GeoPoint::new(33.77, -84.39), 0.0);
        let out = cm.on_detection(event(CameraId(9), 1, Some(Heading::East)));
        assert!(out.is_empty());
        assert_eq!(cm.pending_confirmations(), 0);
    }

    #[test]
    fn misrouted_update_ignored() {
        let mut cm = manager_with_corridor_mdcs();
        let before = cm.socket_group().table().clone();
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(5), // not us
            table: Default::default(),
            version: 2,
        });
        assert_eq!(cm.socket_group().table(), &before);
        assert_eq!(cm.stats().updates_applied, 1); // only the setup update
    }

    #[test]
    fn stale_topology_update_is_rejected() {
        // WAN delivery can reorder updates; an older version must never
        // overwrite a newer table.
        let net = generators::corridor(3, 100.0, 10.0);
        let pos = net.intersection(IntersectionId(0)).unwrap().position;
        let mut topo = CameraTopology::new(net);
        for i in 0..3 {
            topo.place_at_intersection(CameraId(i), IntersectionId(i), 0.0)
                .unwrap();
        }
        let fresh = mdcs_table(&topo, CameraId(0), MdcsOptions::default());
        let mut cm = ConnectionManager::new(CameraId(0), pos, 0.0);
        // Version 5 arrives first (the newer table)...
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: fresh.clone(),
            version: 5,
        });
        // ...then the stale version 3 (an older, empty table) straggles in.
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: Default::default(),
            version: 3,
        });
        assert_eq!(cm.socket_group().table(), &fresh, "stale update applied");
        assert_eq!(cm.stats().updates_applied, 1);
        // A duplicate of the current version is also ignored.
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: Default::default(),
            version: 5,
        });
        assert_eq!(cm.socket_group().table(), &fresh);
        // A genuinely newer one applies.
        cm.on_topology_update(MdcsUpdate {
            camera: CameraId(0),
            table: Default::default(),
            version: 6,
        });
        assert!(cm.socket_group().table().is_empty());
    }

    #[test]
    fn heartbeat_carries_identity_and_position() {
        let mut cm = manager_with_corridor_mdcs();
        let Message::Heartbeat {
            camera,
            position,
            videoing_angle_deg,
        } = cm.heartbeat()
        else {
            panic!("expected heartbeat");
        };
        assert_eq!(camera, CameraId(0));
        assert!(position.lat > 33.0);
        assert_eq!(videoing_angle_deg, 0.0);
        assert_eq!(cm.stats().heartbeats_sent, 1);
    }

    #[test]
    fn pending_set_is_bounded() {
        let mut cm = manager_with_corridor_mdcs();
        cm.max_pending = 10;
        for i in 0..50 {
            cm.on_detection(event(CameraId(0), i, Some(Heading::East)));
        }
        assert!(cm.pending_confirmations() <= 10);
    }
}
