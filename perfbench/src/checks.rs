//! Output checks on the quiesced end-of-run store.

use crate::probe::SplitMix;
use coral_core::CoralPieSystem;
use coral_net::VertexId;
use coral_storage::QueryOptions;
use coral_topology::CameraId;
use std::collections::BTreeSet;

/// `store_chaos`: the store holds no duplicate edges, and sampled queries
/// answer exactly as the same queries on the flattened graph. Returns the
/// failed checks.
pub fn store(sys: &CoralPieSystem, seed: u64) -> Vec<String> {
    let node = sys.storage();
    let mut failed = Vec::new();
    let physical = node.stats().edges;
    let cameras = sys.alive().len().max(1) as u64;
    node.with_graph(|g| {
        let mut seen = BTreeSet::new();
        let dups = g.edges().filter(|e| !seen.insert((e.from, e.to))).count();
        if dups > 0 || physical != g.edge_count() {
            failed.push(format!(
                "duplicate edges: {dups} repeated pairs, {physical} stored vs {} logical",
                g.edge_count()
            ));
        }
        let n = g.vertex_count() as u64;
        if n == 0 {
            failed.push("store is empty".into());
            return;
        }
        let head = g.vertices().map(|v| v.last_seen_ms).max().unwrap_or(0);
        let opts = QueryOptions::default();
        let mut rng = SplitMix(seed ^ 0x00C0_FFEE);
        let mut mismatches = 0usize;
        for _ in 0..200 {
            let v = VertexId(rng.below(n));
            if node.query_trajectory(v, opts).ok() != coral_storage::trajectory(g, v, opts).ok() {
                mismatches += 1;
            }
            let cam = CameraId(rng.below(cameras) as u32);
            let lo = rng.below(head + 1);
            let hi = lo + 20_000;
            if node.vehicles_through_camera(cam, lo, hi) != g.vehicles_through_camera(cam, lo, hi) {
                mismatches += 1;
            }
            if node.scan_window(lo, lo + 5_000) != g.scan_window(lo, lo + 5_000) {
                mismatches += 1;
            }
            if let Some(sig) = g.vertex(v).ok().and_then(|r| r.signature.clone()) {
                if node.sharded().nearest_by_signature(&sig, 5, 0.5)
                    != g.nearest_by_signature(&sig, 5, 0.5)
                {
                    mismatches += 1;
                }
            }
        }
        if mismatches > 0 {
            failed.push(format!(
                "{mismatches} sampled queries differ from the flattened graph"
            ));
        }
    });
    failed
}
