//! Snapshot/restore: round-trips, corruption detection, layout checks.
//!
//! Every test works against a throwaway directory under the OS temp dir;
//! corruption is injected by editing the on-disk files directly, so these
//! tests pin the external format (magic lines, `crc` trailers, manifest
//! entries) as much as the code paths.

use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_storage::EdgeStorageNode;
use coral_storage::{
    QueryOptions, ShardedTrajectoryGraph, SnapshotError, StorageConfig, TrajectoryGraph,
};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, GroundTruthId, HistogramError, TrackId};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A unique, self-cleaning snapshot directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "coral-snapshot-test-{}-{}-{name}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst),
        ));
        let _ = std::fs::remove_dir_all(&path);
        Self(path)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a, mirroring the snapshot trailer hash (the test recomputes
/// trailers after tampering with file bodies).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Rewrites `path` with `edit` applied to its body and a recomputed crc
/// trailer, so only the edited content — not the checksum — differs.
fn rewrite_with_valid_trailer(path: &Path, edit: impl FnOnce(&str) -> String) {
    let content = std::fs::read_to_string(path).unwrap();
    let body = content
        .trim_end_matches('\n')
        .rsplit_once('\n')
        .expect("file has a trailer")
        .0;
    let mut edited = edit(body);
    if !edited.ends_with('\n') {
        edited.push('\n');
    }
    let crc = fnv64(edited.as_bytes());
    std::fs::write(path, format!("{edited}crc {crc:016x}\n")).unwrap();
}

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

fn sig(i: usize) -> ColorHistogram {
    let bins: Vec<f64> = (0..8)
        .map(|j| ((i * 5 + j * 3) % 9) as f64 / 9.0 + 0.02)
        .collect();
    ColorHistogram::from_bins(2, bins).unwrap()
}

fn cfg(shard_count: usize) -> StorageConfig {
    StorageConfig {
        shard_count,
        time_bucket_ms: 2_000,
        cameras_per_region: 2,
    }
}

/// A store mid-stream: 40 vertices across 6 cameras with headings,
/// signatures and ground truth, chained plus some branches.
fn populated(shard_count: usize) -> (ShardedTrajectoryGraph, Vec<VertexId>) {
    let g = ShardedTrajectoryGraph::new(cfg(shard_count));
    let vs: Vec<VertexId> = (0..40)
        .map(|i| {
            g.insert_event_with_signature(
                eid((i as u32) % 6, i as u64),
                i as u64 * 950,
                i as u64 * 950 + 400,
                if i % 3 == 0 {
                    Some(Heading::ALL[i % 8])
                } else {
                    None
                },
                if i % 2 == 0 { Some(sig(i)) } else { None },
                if i % 4 == 0 {
                    Some(GroundTruthId(i as u64))
                } else {
                    None
                },
            )
        })
        .collect();
    for i in 1..vs.len() {
        g.insert_edge(vs[i - 1], vs[i], 0.1 + (i as f64) * 0.01)
            .unwrap();
        if i % 5 == 0 && i + 3 < vs.len() {
            g.insert_edge(vs[i], vs[i + 3], 0.4).unwrap();
        }
    }
    (g, vs)
}

fn assert_flat_eq(a: &TrajectoryGraph, b: &TrajectoryGraph) {
    assert_eq!(a.vertex_count(), b.vertex_count());
    assert_eq!(a.edge_count(), b.edge_count());
    for v in b.vertices() {
        assert_eq!(a.vertex(v.id).unwrap(), v, "vertex {}", v.id);
        assert_eq!(
            a.out_edges(v.id),
            b.out_edges(v.id),
            "out-edges of {}",
            v.id
        );
        assert_eq!(a.in_edges(v.id), b.in_edges(v.id), "in-edges of {}", v.id);
        assert_eq!(a.vertex_for_event(v.event), Some(v.id));
    }
}

#[test]
fn roundtrip_preserves_structure_and_ingest_continues() {
    let dir = TempDir::new("roundtrip");
    let (g, vs) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    let restored = ShardedTrajectoryGraph::restore_from(dir.path()).unwrap();
    assert_eq!(restored.shard_count(), 3);
    assert_flat_eq(&restored.to_flat(), &g.to_flat());

    // Mirrored post-restore ingest: new vertices must pick up ids where
    // the snapshot left off, and edges may target pre-snapshot vertices.
    for store in [&g, &restored] {
        let v = store.insert_event(eid(0, 900), 60_000, 60_400, None, None);
        assert_eq!(v, VertexId(40), "id allocation resumes after restore");
        store.insert_edge(vs[39], v, 0.2).unwrap();
        store.insert_edge(vs[0], v, 0.6).unwrap();
    }
    assert_flat_eq(&restored.to_flat(), &g.to_flat());
    assert_eq!(
        restored.trajectory(vs[5], QueryOptions::default()).unwrap(),
        g.trajectory(vs[5], QueryOptions::default()).unwrap(),
    );
}

#[test]
fn restore_adopts_the_snapshot_shard_layout() {
    let dir = TempDir::new("adopt-layout");
    let (g, _) = populated(5);
    g.snapshot_to(dir.path()).unwrap();
    // restore_from takes the whole configuration from the snapshot.
    let restored = ShardedTrajectoryGraph::restore_from(dir.path()).unwrap();
    assert_eq!(restored.shard_count(), 5);
    assert_flat_eq(&restored.to_flat(), &g.to_flat());
}

#[test]
fn restore_in_place_reaches_every_node_clone() {
    let dir = TempDir::new("in-place");
    let node = EdgeStorageNode::with_config(8, cfg(3));
    let camera_handle = node.clone(); // wired before the restore
    let a = node.insert_event(eid(0, 1), 0, 400, None, None);
    let b = node.insert_event(eid(1, 1), 1_000, 1_400, None, None);
    node.insert_edge(a, b, 0.2).unwrap();
    node.snapshot_to(dir.path()).unwrap();

    // The node keeps running, then fails: its post-snapshot writes are
    // the lost state.
    let c = node.insert_event(eid(2, 1), 2_000, 2_400, None, None);
    node.insert_edge(b, c, 0.3).unwrap();
    assert_eq!(node.stats().vertices, 3);

    node.restore_from_snapshot(dir.path()).unwrap();
    let s = camera_handle.stats();
    assert_eq!((s.vertices, s.edges), (2, 1), "clone sees the recovery");
    assert_eq!(camera_handle.vertex_for_event(eid(2, 1)), None);
    // And the recovered store accepts fresh writes from the old handle.
    let c2 = camera_handle.insert_event(eid(2, 1), 2_000, 2_400, None, None);
    assert_eq!(c2, VertexId(2));
}

#[test]
fn snapshot_during_concurrent_ingest_restores_consistently() {
    // An edge in a snapshot must never be torn: both endpoints resolve and
    // the in/out indexes agree, even when the snapshot raced live writes.
    let node = EdgeStorageNode::with_config(8, cfg(4));
    let writer = {
        let n = node.clone();
        std::thread::spawn(move || {
            let mut prev: Option<VertexId> = None;
            for t in 0..400u64 {
                let v = n.insert_event(eid((t % 8) as u32, t), t * 60, t * 60 + 30, None, None);
                if let Some(p) = prev {
                    n.insert_edge(p, v, 0.1).unwrap();
                }
                prev = Some(v);
            }
        })
    };
    for round in 0..6 {
        let dir = TempDir::new(&format!("live-{round}"));
        node.snapshot_to(dir.path()).unwrap();
        let restored = ShardedTrajectoryGraph::restore_from(dir.path()).unwrap();
        let flat = restored.to_flat();
        for v in flat.vertices() {
            for e in flat.out_edges(v.id) {
                assert!(
                    flat.vertex(e.to).is_ok(),
                    "dangling edge {} -> {}",
                    e.from,
                    e.to
                );
                assert!(flat.in_edges(e.to).contains(e), "in-index missing {e:?}");
            }
        }
    }
    writer.join().unwrap();
}

#[test]
fn flipped_byte_in_a_shard_file_is_a_checksum_mismatch() {
    let dir = TempDir::new("bitflip");
    let (g, _) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    let victim = dir.path().join("shard-0001.csnap");
    let mut bytes = std::fs::read(&victim).unwrap();
    // Flip one content byte past the magic line, ahead of the trailer.
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();
    match ShardedTrajectoryGraph::restore_from(dir.path()) {
        Err(SnapshotError::ChecksumMismatch {
            path,
            expected,
            actual,
        }) => {
            assert_eq!(path, victim);
            assert_ne!(expected, actual);
        }
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }
}

#[test]
fn missing_shard_file_is_an_io_error() {
    let dir = TempDir::new("missing-file");
    let (g, _) = populated(2);
    g.snapshot_to(dir.path()).unwrap();
    std::fs::remove_file(dir.path().join("shard-0000.csnap")).unwrap();
    match ShardedTrajectoryGraph::restore_from(dir.path()) {
        Err(SnapshotError::Io { path, .. }) => {
            assert_eq!(path, dir.path().join("shard-0000.csnap"));
        }
        other => panic!("expected Io, got {other:?}"),
    }
}

#[test]
fn unknown_manifest_version_is_a_version_mismatch() {
    let dir = TempDir::new("version");
    let (g, _) = populated(2);
    g.snapshot_to(dir.path()).unwrap();
    // Bump the version line but keep the checksum honest: the reader must
    // reject on version, not checksum.
    rewrite_with_valid_trailer(&dir.path().join("MANIFEST"), |body| {
        body.replacen("coral-snapshot v2", "coral-snapshot v99", 1)
    });
    match ShardedTrajectoryGraph::restore_from(dir.path()) {
        Err(SnapshotError::VersionMismatch { found, .. }) => {
            assert_eq!(found, "coral-snapshot v99");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

/// A v1 snapshot (dense signature lines) is refused by version, with an
/// honest checksum, not misread as v2.
#[test]
fn v1_manifest_is_a_version_mismatch() {
    let dir = TempDir::new("v1");
    std::fs::create_dir_all(dir.path()).unwrap();
    let body = "coral-snapshot v1\nshard_count 1\ntime_bucket_ms 2000\n\
                cameras_per_region 2\nnext_vertex 0\nedge_seq 0\nmax_interval_ms 0\n";
    let crc = fnv64(body.as_bytes());
    std::fs::write(
        dir.path().join("MANIFEST"),
        format!("{body}crc {crc:016x}\n"),
    )
    .unwrap();
    match ShardedTrajectoryGraph::restore_from(dir.path()) {
        Err(SnapshotError::VersionMismatch { found, .. }) => {
            assert_eq!(found, "coral-snapshot v1");
        }
        other => panic!("expected VersionMismatch, got {other:?}"),
    }
}

#[test]
fn truncated_manifest_is_corrupt() {
    let dir = TempDir::new("truncated");
    let (g, _) = populated(2);
    g.snapshot_to(dir.path()).unwrap();
    std::fs::write(dir.path().join("MANIFEST"), "coral-snapshot v2\n").unwrap();
    match ShardedTrajectoryGraph::restore_from(dir.path()) {
        Err(SnapshotError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn layout_mismatch_on_in_place_restore_is_a_config_error() {
    let dir = TempDir::new("layout-mismatch");
    let (g, _) = populated(2);
    g.snapshot_to(dir.path()).unwrap();
    let target = ShardedTrajectoryGraph::new(cfg(4));
    let before = target.insert_event(eid(0, 7), 0, 100, None, None);
    match target.restore_in_place(dir.path()) {
        Err(SnapshotError::ConfigMismatch { .. }) => {}
        other => panic!("expected ConfigMismatch, got {other:?}"),
    }
    // Failed restore leaves the target untouched.
    assert_eq!(target.vertex_count(), 1);
    assert_eq!(target.vertex_for_event(eid(0, 7)), Some(before));
}

#[test]
fn failed_restore_leaves_the_store_untouched() {
    let dir = TempDir::new("atomic");
    let (g, _) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    let victim = dir.path().join("shard-0002.csnap");
    let mut bytes = std::fs::read(&victim).unwrap();
    let idx = bytes.len() / 2;
    bytes[idx] ^= 0x01;
    std::fs::write(&victim, &bytes).unwrap();

    let target = ShardedTrajectoryGraph::new(cfg(3));
    let a = target.insert_event(eid(5, 50), 0, 100, None, None);
    let b = target.insert_event(eid(5, 51), 500, 600, None, None);
    target.insert_edge(a, b, 0.3).unwrap();
    assert!(target.restore_in_place(dir.path()).is_err());
    assert_eq!((target.vertex_count(), target.edge_count()), (2, 1));
}

/// Restores the tampered snapshot at `dir` over a live 3-shard store and
/// asserts it is rejected as corrupt, for a reason mentioning `why`, with
/// the store left as it was.
fn assert_rejected_as_corrupt(dir: &Path, why: &str) {
    let target = ShardedTrajectoryGraph::new(cfg(3));
    let a = target.insert_event(eid(5, 50), 0, 100, None, None);
    let b = target.insert_event(eid(5, 51), 500, 600, None, None);
    target.insert_edge(a, b, 0.3).unwrap();
    match target.restore_in_place(dir) {
        Err(SnapshotError::Corrupt { reason, .. }) => {
            assert!(reason.contains(why), "unexpected reason {reason:?}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    assert_eq!((target.vertex_count(), target.edge_count()), (2, 1));
    assert_eq!(target.vertex_for_event(eid(5, 51)), Some(b));
}

/// Applies `edit` to the body of shard 0, then makes the file's trailer
/// and the manifest's checksum and edge count agree with the new body, so
/// only the edited content itself is wrong.
fn tamper_shard_0(dir: &Path, edit: impl FnOnce(&str) -> String) {
    let victim = dir.join("shard-0000.csnap");
    let mut edges = 0;
    rewrite_with_valid_trailer(&victim, |body| {
        let edited = edit(body);
        edges = edited.lines().filter(|l| l.starts_with("e ")).count();
        edited
    });
    let crc = fnv64(std::fs::read(&victim).unwrap().as_slice());
    rewrite_with_valid_trailer(&dir.join("MANIFEST"), |body| {
        body.lines()
            .map(|l| match l.split_whitespace().collect::<Vec<_>>()[..] {
                ["shard", "0", file, _, nv, _] => format!("shard 0 {file} {crc:016x} {nv} {edges}"),
                _ => l.to_string(),
            })
            .collect::<Vec<_>>()
            .join("\n")
    });
}

/// Applies `edit` to the first edge line of shard 0 through
/// [`tamper_shard_0`]. `edit` returns the replacement line(s).
fn tamper_first_edge_of_shard_0(dir: &Path, edit: impl FnOnce(&str) -> String) {
    tamper_shard_0(dir, |body| {
        let line = body
            .lines()
            .find(|l| l.starts_with("e "))
            .expect("shard 0 holds an edge");
        body.replacen(line, &edit(line), 1)
    });
}

/// An edit of the fields of an edge line (`e <from> <to> <weight> <seq>`),
/// given a vertex shard 0 does not hold.
type EdgeEdit = fn(&mut [String], VertexId);

#[test]
fn duplicated_edge_line_is_corrupt() {
    let dir = TempDir::new("dup-edge");
    let (g, _) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    tamper_first_edge_of_shard_0(dir.path(), |line| format!("{line}\n{line}"));
    assert_rejected_as_corrupt(dir.path(), "appears twice");
}

#[test]
fn invalid_edge_lines_are_corrupt() {
    let (g, _) = populated(3);
    // A vertex shard 0 does not hold, for a misplaced edge.
    let foreign = (0..40)
        .map(VertexId)
        .find(|&v| {
            let r = g.vertex(v).unwrap();
            g.route(r.camera, r.first_seen_ms) != 0
        })
        .expect("a vertex outside shard 0");
    let cases: [(&str, EdgeEdit, &str); 4] = [
        ("self-loop", |f, _| f[2] = f[1].clone(), "self-loop"),
        (
            "nan-weight",
            |f, _| f[3] = format!("{:x}", f64::NAN.to_bits()),
            "invalid edge weight",
        ),
        (
            "negative-weight",
            |f, _| f[3] = format!("{:x}", (-0.5f64).to_bits()),
            "invalid edge weight",
        ),
        ("misplaced", |f, v| f[1] = v.0.to_string(), "does not hold"),
    ];
    for (name, edit, why) in cases {
        let dir = TempDir::new(name);
        g.snapshot_to(dir.path()).unwrap();
        tamper_first_edge_of_shard_0(dir.path(), |line| {
            let mut fields: Vec<String> = line.split(' ').map(str::to_string).collect();
            edit(&mut fields, foreign);
            fields.join(" ")
        });
        assert_rejected_as_corrupt(dir.path(), why);
    }
}

/// The ways [`mutate`] breaks a sparse signature.
const MUTATIONS: usize = 10;

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

/// Snapshots the 3-shard store, rewrites the signature of shard 0's
/// `victim`-th signed vertex line (modulo their count) as `kind` breaks
/// it, with honest checksums, and asserts restore refuses it as corrupt
/// with the typed reason and leaves the target store untouched.
fn assert_mutated_signature_rejected(kind: usize, at: usize, victim: usize) {
    let dir = TempDir::new("bad-signature");
    let (g, _) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    let mut why = String::new();
    tamper_shard_0(dir.path(), |body| {
        let signed: Vec<&str> = body
            .lines()
            .filter(|l| l.starts_with("v ") && !l.ends_with(" -"))
            .collect();
        let line = signed[victim % signed.len()];
        let (head, field) = line.rsplit_once(' ').unwrap();
        let (bpc, pairs) = field.split_once(':').unwrap();
        let bins: Vec<(usize, f64)> = pairs
            .split(',')
            .map(|p| {
                let (i, v) = p.split_once('=').unwrap();
                let v = u64::from_str_radix(v, 16).unwrap();
                (i.parse().unwrap(), f64::from_bits(v))
            })
            .collect();
        let (bpc, bins, want) = mutate(kind, at, bpc.parse().unwrap(), bins);
        let err = ColorHistogram::from_sparse(bpc, bins.clone()).unwrap_err();
        assert!(want(&err), "mutation {kind}: {err:?}");
        why = err.to_string();
        let pairs: Vec<String> = bins
            .iter()
            .map(|(i, v)| format!("{i}={:x}", v.to_bits()))
            .collect();
        body.replacen(line, &format!("{head} {bpc}:{}", pairs.join(",")), 1)
    });
    assert_rejected_as_corrupt(dir.path(), &why);
}

#[test]
fn each_signature_mutation_is_corrupt() {
    for kind in 0..MUTATIONS {
        assert_mutated_signature_rejected(kind, 1, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Hostile signature fields in a vertex line with a valid crc: restore
    /// fails with `Corrupt` carrying the typed `HistogramError`, never a
    /// panic, and the target store is untouched.
    #[test]
    fn mutated_signature_lines_are_corrupt(
        kind in 0usize..MUTATIONS,
        at in 0usize..64,
        victim in 0usize..64,
    ) {
        assert_mutated_signature_rejected(kind, at, victim);
    }
}

#[test]
fn huge_next_vertex_is_corrupt_not_a_panic() {
    let dir = TempDir::new("huge-next-vertex");
    let (g, _) = populated(3);
    g.snapshot_to(dir.path()).unwrap();
    rewrite_with_valid_trailer(&dir.path().join("MANIFEST"), |body| {
        body.replacen("next_vertex 40\n", "next_vertex 4611686018427387904\n", 1)
    });
    assert_rejected_as_corrupt(dir.path(), "does not match the 40 vertex records");
}
