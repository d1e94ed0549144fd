//! Trajectory queries over the graph.
//!
//! "To query the trajectory of a particular vehicle, one can start at a
//! known detection for that vehicle, i.e., a known vertex in the trajectory
//! graph, and traverse the graph using incoming and outgoing edges from
//! that vertex. The result would be a collection of paths containing false
//! positives, which can be further pruned by a human user or more advanced
//! analytics" (paper §4.2.1).

use crate::graph::{GraphError, TrajectoryEdge, TrajectoryGraph};
use coral_net::VertexId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Traversal direction through the trajectory graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow outgoing edges (later detections).
    Forward,
    /// Follow incoming edges (earlier detections).
    Backward,
}

/// An edge supplier the trajectory traversal can walk.
///
/// Implemented by the flat [`TrajectoryGraph`] and by the sharded store's
/// read transaction, so one traversal serves both — which is what makes the
/// shard-vs-flat equivalence property testable at all. Methods take `&mut
/// self` so a sharded source can memoise vertex→shard placements as the
/// walk proceeds.
pub trait EdgeSource {
    /// Whether `v` exists.
    fn contains(&mut self, v: VertexId) -> bool;

    /// Appends the edges of `v` in `dir` to `out` (assumed empty), in
    /// first-inserted order, with at most one edge per neighbour. Both
    /// stores guarantee this by construction: ingest drops an exact
    /// `(from, to)` replay keep-first, and snapshot restore rejects one.
    fn neighbors(&mut self, v: VertexId, dir: Direction, out: &mut Vec<TrajectoryEdge>);
}

impl EdgeSource for &TrajectoryGraph {
    fn contains(&mut self, v: VertexId) -> bool {
        self.vertex(v).is_ok()
    }

    fn neighbors(&mut self, v: VertexId, dir: Direction, out: &mut Vec<TrajectoryEdge>) {
        let edges = match dir {
            Direction::Forward => self.out_edges(v),
            Direction::Backward => self.in_edges(v),
        };
        out.extend_from_slice(edges);
    }
}

/// Options bounding a trajectory traversal.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    /// Edges with weight above this are not followed (weight is a
    /// Bhattacharyya *distance*: lower is more confident).
    pub max_edge_weight: f64,
    /// Maximum number of hops in either direction.
    pub max_hops: usize,
    /// Maximum number of paths returned per direction (best-first).
    pub max_paths: usize,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            max_edge_weight: 1.0,
            max_hops: 64,
            max_paths: 32,
        }
    }
}

/// One candidate trajectory path through the graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryPath {
    /// Visited vertices in time order (oldest first).
    pub vertices: Vec<VertexId>,
    /// Sum of edge weights along the path (lower = more confident).
    pub total_weight: f64,
}

impl TrajectoryPath {
    /// Number of hops.
    pub fn hops(&self) -> usize {
        self.vertices.len().saturating_sub(1)
    }

    /// Mean edge weight, or 0 for single-vertex paths.
    pub fn mean_weight(&self) -> f64 {
        let h = self.hops();
        if h == 0 {
            0.0
        } else {
            self.total_weight / h as f64
        }
    }
}

/// The result of a trajectory query from a seed vertex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryQueryResult {
    /// The seed vertex.
    pub seed: VertexId,
    /// Candidate forward continuations (each starts at the seed).
    pub forward: Vec<TrajectoryPath>,
    /// Candidate backward histories (each starts at the seed, walking into
    /// the past).
    pub backward: Vec<TrajectoryPath>,
}

impl TrajectoryQueryResult {
    /// The single most-confident full track: best backward path reversed,
    /// then the seed, then the best forward path.
    pub fn best_track(&self) -> Vec<VertexId> {
        let mut track: Vec<VertexId> = Vec::new();
        if let Some(b) = self.backward.first() {
            let mut past = b.vertices.clone();
            past.reverse(); // oldest first
            past.pop(); // drop the seed (re-added below)
            track.extend(past);
        }
        track.push(self.seed);
        if let Some(f) = self.forward.first() {
            track.extend(f.vertices.iter().skip(1));
        }
        track
    }
}

/// Queries the trajectory of the vehicle seen at `seed`.
///
/// # Errors
///
/// Returns [`GraphError::UnknownVertex`] for an invalid seed.
pub fn trajectory(
    graph: &TrajectoryGraph,
    seed: VertexId,
    opts: QueryOptions,
) -> Result<TrajectoryQueryResult, GraphError> {
    let mut source = graph;
    trajectory_over(&mut source, seed, opts)
}

/// Queries the trajectory of the vehicle seen at `seed` over any
/// [`EdgeSource`] — the generic entry point shared by the flat graph and
/// the sharded store's read transaction.
///
/// # Errors
///
/// Returns [`GraphError::UnknownVertex`] for an invalid seed.
pub fn trajectory_over<S: EdgeSource>(
    source: &mut S,
    seed: VertexId,
    opts: QueryOptions,
) -> Result<TrajectoryQueryResult, GraphError> {
    if !source.contains(seed) {
        return Err(GraphError::UnknownVertex(seed));
    }
    let forward = explore(source, seed, opts, Direction::Forward);
    let backward = explore(source, seed, opts, Direction::Backward);
    Ok(TrajectoryQueryResult {
        seed,
        forward,
        backward,
    })
}

/// Depth-first enumeration of simple paths, best-first by total weight.
fn explore<S: EdgeSource>(
    source: &mut S,
    seed: VertexId,
    opts: QueryOptions,
    dir: Direction,
) -> Vec<TrajectoryPath> {
    let mut paths = Vec::new();
    let mut stack = vec![seed];
    let mut visited: BTreeSet<VertexId> = BTreeSet::from([seed]);
    dfs(
        source,
        &opts,
        dir,
        &mut stack,
        &mut visited,
        0.0,
        &mut paths,
    );
    // Best-first: lowest total weight, then longest.
    paths.sort_by(|a, b| {
        a.total_weight
            .total_cmp(&b.total_weight)
            .then(b.vertices.len().cmp(&a.vertices.len()))
    });
    paths.truncate(opts.max_paths);
    paths
}

fn dfs<S: EdgeSource>(
    source: &mut S,
    opts: &QueryOptions,
    dir: Direction,
    stack: &mut Vec<VertexId>,
    visited: &mut BTreeSet<VertexId>,
    weight: f64,
    paths: &mut Vec<TrajectoryPath>,
) {
    let here = *stack.last().expect("non-empty stack");
    let mut edges = Vec::new();
    if stack.len() <= opts.max_hops {
        source.neighbors(here, dir, &mut edges);
    }
    let mut extended = false;
    for e in &edges {
        if e.weight > opts.max_edge_weight {
            continue;
        }
        let next = match dir {
            Direction::Forward => e.to,
            Direction::Backward => e.from,
        };
        if !visited.insert(next) {
            continue; // simple paths only
        }
        stack.push(next);
        dfs(source, opts, dir, stack, visited, weight + e.weight, paths);
        stack.pop();
        visited.remove(&next);
        extended = true;
    }
    if !extended && stack.len() > 1 {
        paths.push(TrajectoryPath {
            vertices: stack.clone(),
            total_weight: weight,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use coral_net::EventId;
    use coral_topology::CameraId;
    use coral_vision::TrackId;

    fn eid(cam: u32, track: u64) -> EventId {
        EventId {
            camera: CameraId(cam),
            track: TrackId(track),
        }
    }

    /// A linear chain a -> b -> c -> d with low weights plus a spurious
    /// high-confidence-looking branch b -> x with higher weight.
    fn chain_graph() -> (TrajectoryGraph, [VertexId; 5]) {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        let c = g.insert_event(eid(2, 1), 20, 21, None, None);
        let d = g.insert_event(eid(3, 1), 30, 31, None, None);
        let x = g.insert_event(eid(2, 9), 22, 23, None, None);
        g.insert_edge(a, b, 0.10).unwrap();
        g.insert_edge(b, c, 0.12).unwrap();
        g.insert_edge(c, d, 0.08).unwrap();
        g.insert_edge(b, x, 0.45).unwrap(); // false positive
        (g, [a, b, c, d, x])
    }

    #[test]
    fn forward_traversal_enumerates_paths() {
        let (g, [a, b, c, d, x]) = chain_graph();
        let r = trajectory(&g, a, QueryOptions::default()).unwrap();
        assert_eq!(r.forward.len(), 2);
        // Best path (lowest weight) is the true chain.
        assert_eq!(r.forward[0].vertices, vec![a, b, c, d]);
        assert!((r.forward[0].total_weight - 0.30).abs() < 1e-12);
        assert_eq!(r.forward[1].vertices, vec![a, b, x]);
        assert!(r.backward.is_empty());
        let _ = c;
    }

    #[test]
    fn backward_traversal_from_the_end() {
        let (g, [a, b, c, d, _]) = chain_graph();
        let r = trajectory(&g, d, QueryOptions::default()).unwrap();
        assert!(r.forward.is_empty());
        assert_eq!(r.backward[0].vertices, vec![d, c, b, a]);
    }

    #[test]
    fn best_track_stitches_both_directions() {
        let (g, [a, b, c, d, _]) = chain_graph();
        let r = trajectory(&g, b, QueryOptions::default()).unwrap();
        assert_eq!(r.best_track(), vec![a, b, c, d]);
    }

    #[test]
    fn best_track_for_isolated_seed_is_itself() {
        let mut g = TrajectoryGraph::new();
        let v = g.insert_event(eid(0, 1), 0, 1, None, None);
        let r = trajectory(&g, v, QueryOptions::default()).unwrap();
        assert_eq!(r.best_track(), vec![v]);
    }

    #[test]
    fn weight_threshold_prunes_false_positives() {
        let (g, [a, b, _, _, _]) = chain_graph();
        let opts = QueryOptions {
            max_edge_weight: 0.3,
            ..QueryOptions::default()
        };
        let r = trajectory(&g, a, opts).unwrap();
        // The 0.45 edge to x is pruned: only the true chain remains.
        assert_eq!(r.forward.len(), 1);
        assert!(r.forward[0].vertices.contains(&b));
        assert_eq!(r.forward[0].vertices.len(), 4);
    }

    #[test]
    fn max_hops_bounds_depth() {
        let (g, [a, b, _, _, _]) = chain_graph();
        let opts = QueryOptions {
            max_hops: 1,
            ..QueryOptions::default()
        };
        let r = trajectory(&g, a, opts).unwrap();
        assert_eq!(r.forward.len(), 1);
        assert_eq!(r.forward[0].vertices, vec![a, b]);
    }

    #[test]
    fn cycles_do_not_hang() {
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        let b = g.insert_event(eid(1, 1), 10, 11, None, None);
        g.insert_edge(a, b, 0.1).unwrap();
        g.insert_edge(b, a, 0.1).unwrap(); // pathological cycle
        let r = trajectory(&g, a, QueryOptions::default()).unwrap();
        assert_eq!(r.forward.len(), 1);
        assert_eq!(r.forward[0].vertices, vec![a, b]);
    }

    #[test]
    fn unknown_seed_errors() {
        let g = TrajectoryGraph::new();
        assert!(trajectory(&g, VertexId(3), QueryOptions::default()).is_err());
    }

    #[test]
    fn path_metrics() {
        let p = TrajectoryPath {
            vertices: vec![VertexId(0), VertexId(1), VertexId(2)],
            total_weight: 0.4,
        };
        assert_eq!(p.hops(), 2);
        assert!((p.mean_weight() - 0.2).abs() < 1e-12);
        let single = TrajectoryPath {
            vertices: vec![VertexId(0)],
            total_weight: 0.0,
        };
        assert_eq!(single.hops(), 0);
        assert_eq!(single.mean_weight(), 0.0);
    }

    #[test]
    fn max_paths_truncates() {
        // A fan-out of 5 branches with max_paths 2.
        let mut g = TrajectoryGraph::new();
        let a = g.insert_event(eid(0, 1), 0, 1, None, None);
        for i in 0..5 {
            let v = g.insert_event(eid(1, i), 10, 11, None, None);
            g.insert_edge(a, v, 0.1 * (i + 1) as f64).unwrap();
        }
        let opts = QueryOptions {
            max_paths: 2,
            ..QueryOptions::default()
        };
        let r = trajectory(&g, a, opts).unwrap();
        assert_eq!(r.forward.len(), 2);
        // Best-first: the lowest-weight branches are kept.
        assert!(r.forward[0].total_weight <= r.forward[1].total_weight);
        assert!((r.forward[0].total_weight - 0.1).abs() < 1e-12);
    }
}
