//! The socket group: per-heading connections to the MDCS.
//!
//! "Socket Group is a collection of socket communication between nearby
//! cameras, more precisely, a hashmap between the moving direction and
//! sockets to the cameras in the corresponding MDCS" (paper §4.1.3). In
//! this reproduction the group resolves *recipients*; actual delivery is
//! the transport's job.

use coral_geo::Heading;
use coral_topology::{CameraId, MdcsTable};
use std::collections::BTreeSet;

/// Resolves detection-event recipients from the current MDCS table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SocketGroup {
    table: MdcsTable,
    reconfigurations: u64,
}

impl SocketGroup {
    /// Creates an empty group (no downstream cameras known yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the MDCS table — invoked when the connection manager
    /// receives a topology update (§4.1.3).
    pub fn reconfigure(&mut self, table: MdcsTable) {
        self.table = table;
        self.reconfigurations += 1;
    }

    /// The current MDCS table.
    pub fn table(&self) -> &MdcsTable {
        &self.table
    }

    /// How many times the group was reconfigured (telemetry for the
    /// self-healing study).
    pub fn reconfigurations(&self) -> u64 {
        self.reconfigurations
    }

    /// Recipients for a detection event moving along `heading`.
    ///
    /// A `None` heading (the tracklet displacement was too small to
    /// estimate a direction) conservatively falls back to the union of all
    /// downstream cameras — favouring false positives over missed tracks,
    /// in line with the paper's F2 (recall-weighted) objective.
    pub fn recipients(&self, heading: Option<Heading>) -> BTreeSet<CameraId> {
        match heading {
            Some(h) => self
                .table
                .get(h)
                .cloned()
                .or_else(|| self.table.get_nearest(h).cloned())
                .unwrap_or_default(),
            None => self.table.all_downstream(),
        }
    }

    /// All downstream cameras across headings.
    pub fn all_downstream(&self) -> BTreeSet<CameraId> {
        self.table.all_downstream()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_geo::{generators, IntersectionId};
    use coral_topology::{mdcs_table, CameraTopology, MdcsOptions};

    fn corridor_tables() -> (MdcsTable, MdcsTable) {
        let net = generators::corridor(3, 100.0, 10.0);
        let mut topo = CameraTopology::new(net);
        for i in 0..3 {
            topo.place_at_intersection(CameraId(i), IntersectionId(i), 0.0)
                .unwrap();
        }
        (
            mdcs_table(&topo, CameraId(1), MdcsOptions::default()),
            mdcs_table(&topo, CameraId(0), MdcsOptions::default()),
        )
    }

    #[test]
    fn empty_group_has_no_recipients() {
        let g = SocketGroup::new();
        assert!(g.recipients(Some(Heading::East)).is_empty());
        assert!(g.recipients(None).is_empty());
    }

    #[test]
    fn recipients_follow_heading() {
        let (mid_table, _) = corridor_tables();
        let mut g = SocketGroup::new();
        g.reconfigure(mid_table);
        // Camera 1 in the middle of an east-west corridor: east -> cam2,
        // west -> cam0.
        assert_eq!(
            g.recipients(Some(Heading::East)),
            BTreeSet::from([CameraId(2)])
        );
        assert_eq!(
            g.recipients(Some(Heading::West)),
            BTreeSet::from([CameraId(0)])
        );
    }

    #[test]
    fn unknown_heading_falls_back_to_nearest() {
        let (mid_table, _) = corridor_tables();
        let mut g = SocketGroup::new();
        g.reconfigure(mid_table);
        // NorthEast is not an admitted heading on an east-west corridor;
        // nearest (East) should resolve.
        let r = g.recipients(Some(Heading::NorthEast));
        assert_eq!(r, BTreeSet::from([CameraId(2)]));
    }

    #[test]
    fn none_heading_unions_all() {
        let (mid_table, _) = corridor_tables();
        let mut g = SocketGroup::new();
        g.reconfigure(mid_table);
        assert_eq!(
            g.recipients(None),
            BTreeSet::from([CameraId(0), CameraId(2)])
        );
    }

    #[test]
    fn reconfiguration_counter() {
        let (a, b) = corridor_tables();
        let mut g = SocketGroup::new();
        assert_eq!(g.reconfigurations(), 0);
        g.reconfigure(a);
        g.reconfigure(b);
        assert_eq!(g.reconfigurations(), 2);
    }
}
