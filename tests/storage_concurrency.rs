//! Concurrency stress for the sharded trajectory store: writers and
//! readers race on one `EdgeStorageNode` and every observation a reader
//! makes mid-flight must already be consistent — no deadlocks, no torn
//! reads, and the final store is structurally identical to a sequential
//! ingest of the same logical stream.

use coral_pie::net::{EventId, VertexId};
use coral_pie::storage::{EdgeStorageNode, QueryOptions, StorageConfig};
use coral_pie::topology::CameraId;
use coral_pie::vision::TrackId;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

const WRITERS: u32 = 4;
const READERS: usize = 4;
const EVENTS_PER_WRITER: u64 = 300;
/// Generous wall-clock bound; a lock-order bug shows up as a hang, and
/// the watchdog turns that hang into a failure instead of a CI timeout.
const WATCHDOG: Duration = Duration::from_secs(180);

fn eid(cam: u32, track: u64) -> EventId {
    EventId {
        camera: CameraId(cam),
        track: TrackId(track),
    }
}

fn contended_config() -> StorageConfig {
    StorageConfig {
        shard_count: 4,
        // Tight buckets and regions so every chain keeps crossing shard
        // boundaries (maximum cross-shard locking traffic).
        time_bucket_ms: 500,
        cameras_per_region: 2,
    }
}

/// Writer `w`'s event at step `t`: it alternates between its two owned
/// cameras so chains hop regions.
fn event_of(w: u32, t: u64) -> EventId {
    eid(2 * w + (t % 2) as u32, t)
}

/// Replays writer `w`'s exact logical stream into `node`. Edge endpoints
/// are defined by *events* (not vertex ids), so the stream is identical
/// however inserts interleave. Every 10th step adds a cross-writer edge
/// from the previous writer's same-step event; `wait` lets the concurrent
/// version block until that vertex has been published.
fn ingest_writer_stream(node: &EdgeStorageNode, w: u32, wait: impl Fn(&EdgeStorageNode, EventId)) {
    let mut prev: Option<VertexId> = None;
    for t in 0..EVENTS_PER_WRITER {
        let e = event_of(w, t);
        let v = node.insert_event(e, t * 120, t * 120 + 60, None, None);
        if let Some(p) = prev {
            node.insert_edge(p, v, 0.1).unwrap();
        }
        if t % 10 == 5 {
            let peer = event_of((w + WRITERS - 1) % WRITERS, t);
            wait(node, peer);
            let pv = node.vertex_for_event(peer).expect("peer vertex published");
            node.insert_edge(pv, v, 0.5).unwrap();
        }
        prev = Some(v);
    }
}

/// The same logical stream ingested single-threaded. The cross-writer
/// edges form a cycle over writers, so a sequential replay lays down all
/// vertices first, then the edges — endpoint-keyed dedup makes the result
/// identical to any live interleaving.
fn sequential_reference() -> EdgeStorageNode {
    let node = EdgeStorageNode::with_config(8, contended_config());
    for w in 0..WRITERS {
        for t in 0..EVENTS_PER_WRITER {
            node.insert_event(event_of(w, t), t * 120, t * 120 + 60, None, None);
        }
    }
    for w in 0..WRITERS {
        for t in 0..EVENTS_PER_WRITER {
            let v = node.vertex_for_event(event_of(w, t)).unwrap();
            if t > 0 {
                let p = node.vertex_for_event(event_of(w, t - 1)).unwrap();
                node.insert_edge(p, v, 0.1).unwrap();
            }
            if t % 10 == 5 {
                let peer = event_of((w + WRITERS - 1) % WRITERS, t);
                let pv = node.vertex_for_event(peer).unwrap();
                node.insert_edge(pv, v, 0.5).unwrap();
            }
        }
    }
    node
}

/// Order-insensitive structural fingerprint: vertex ids differ between
/// interleavings (allocation order), so identity is keyed by event.
fn fingerprint(node: &EdgeStorageNode) -> (Vec<String>, Vec<String>) {
    node.with_graph(|g| {
        let name: BTreeMap<VertexId, EventId> = g.vertices().map(|v| (v.id, v.event)).collect();
        let mut verts: Vec<String> = g
            .vertices()
            .map(|v| format!("{:?} [{}, {}]", v.event, v.first_seen_ms, v.last_seen_ms))
            .collect();
        verts.sort();
        let mut edges: Vec<String> = g
            .edges()
            .map(|e| {
                format!(
                    "{:?} -> {:?} @ {:x}",
                    name[&e.from],
                    name[&e.to],
                    e.weight.to_bits()
                )
            })
            .collect();
        edges.sort();
        (verts, edges)
    })
}

/// One reader thread body: hammer all three query shapes and check every
/// mid-flight answer for internal consistency.
fn reader_loop(node: &EdgeStorageNode, done: &AtomicBool, reader: usize) -> u64 {
    let mut queries = 0u64;
    let mut last_camera_count = vec![0usize; (2 * WRITERS) as usize];
    let mut t = (reader as u64 * 7) % EVENTS_PER_WRITER;
    loop {
        let w = (queries % u64::from(WRITERS)) as u32;
        if let Some(seed) = node.vertex_for_event(event_of(w, t)) {
            let r = node
                .query_trajectory(seed, QueryOptions::default())
                .unwrap();
            for path in r.forward.iter().chain(&r.backward) {
                assert_eq!(path.vertices[0], seed);
                // Torn-read check: every id an in-flight query returns
                // must resolve to a fully-written record...
                for &v in &path.vertices {
                    node.sharded().vertex(v).expect("path vertex resolves");
                }
                // ...and chains only ever run old -> new, so a forward
                // path with time running backwards would expose a
                // half-linked edge.
                let times: Vec<u64> = path
                    .vertices
                    .iter()
                    .map(|&v| node.sharded().vertex(v).unwrap().first_seen_ms)
                    .collect();
                assert!(
                    times.windows(2).all(|p| p[0] <= p[1])
                        || times.windows(2).all(|p| p[0] >= p[1]),
                    "non-monotonic trajectory times: {times:?}"
                );
            }
        }
        let cam = (queries % u64::from(2 * WRITERS)) as u32;
        let through = node.vehicles_through_camera(CameraId(cam), 0, u64::MAX / 2);
        for &v in &through {
            let rec = node.sharded().vertex(v).expect("camera hit resolves");
            assert_eq!(rec.camera, CameraId(cam));
        }
        // A camera's history only grows while writers are live.
        assert!(
            through.len() >= last_camera_count[cam as usize],
            "camera {cam} shrank: {} -> {}",
            last_camera_count[cam as usize],
            through.len()
        );
        last_camera_count[cam as usize] = through.len();
        let window = node.scan_window(t * 120, t * 120 + 5_000);
        for &v in &window {
            let rec = node.sharded().vertex(v).expect("window hit resolves");
            assert!(rec.first_seen_ms <= t * 120 + 5_000 && rec.last_seen_ms >= t * 120);
        }
        queries += 3;
        t = (t + 13) % EVENTS_PER_WRITER;
        if done.load(Ordering::Relaxed) {
            return queries;
        }
    }
}

/// Runs `f` under the watchdog; a hang (deadlock) fails the test rather
/// than stalling CI.
fn with_watchdog(f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(WATCHDOG)
        .expect("deadlock suspected: stress run exceeded the watchdog");
}

#[test]
fn writers_and_readers_race_without_deadlock_or_torn_reads() {
    with_watchdog(|| {
        let node = EdgeStorageNode::with_config(8, contended_config());
        let done = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for w in 0..WRITERS {
            let n = node.clone();
            writers.push(std::thread::spawn(move || {
                ingest_writer_stream(&n, w, |node, peer| {
                    while node.vertex_for_event(peer).is_none() {
                        std::thread::yield_now();
                    }
                });
            }));
        }
        let mut readers = Vec::new();
        for r in 0..READERS {
            let n = node.clone();
            let d = Arc::clone(&done);
            readers.push(std::thread::spawn(move || reader_loop(&n, &d, r)));
        }
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        let mut total_queries = 0;
        for h in readers {
            total_queries += h.join().unwrap();
        }
        assert!(total_queries > 0, "readers made no progress");

        // The concurrent build must equal a sequential replay of the same
        // logical stream — same counts, same structure (event-keyed; ids
        // legitimately differ with interleaving).
        let sequential = sequential_reference();
        let (cs, ce) = {
            let s = node.stats();
            (s.vertices, s.edges)
        };
        let seq = sequential.stats();
        assert_eq!((cs, ce), (seq.vertices, seq.edges));
        assert_eq!(fingerprint(&node), fingerprint(&sequential));
    });
}

#[test]
fn redelivery_races_writers_and_readers_safely() {
    with_watchdog(|| {
        // At-least-once delivery: every writer stream is sent by two
        // threads at once, so each edge arrives twice and the two copies
        // race on the ingest-time keep-first check. The store must hold
        // exactly one copy while queries run throughout.
        let node = EdgeStorageNode::with_config(8, contended_config());
        let done = Arc::new(AtomicBool::new(false));
        let mut writers = Vec::new();
        for w in 0..2 * WRITERS {
            let n = node.clone();
            writers.push(std::thread::spawn(move || {
                let w = w % WRITERS;
                let mut prev: Option<VertexId> = None;
                for t in 0..EVENTS_PER_WRITER {
                    let v = n.insert_event(event_of(w, t), t * 120, t * 120 + 60, None, None);
                    if let Some(p) = prev {
                        n.insert_edge(p, v, 0.1).unwrap();
                    }
                    prev = Some(v);
                }
            }));
        }
        let reader = {
            let n = node.clone();
            let d = Arc::clone(&done);
            std::thread::spawn(move || reader_loop(&n, &d, 0))
        };
        for h in writers {
            h.join().unwrap();
        }
        done.store(true, Ordering::Relaxed);
        assert!(reader.join().unwrap() > 0, "reader made no progress");

        // Compare against a sequential build that delivers every edge once.
        let reference = EdgeStorageNode::with_config(8, contended_config());
        for w in 0..WRITERS {
            let mut prev: Option<VertexId> = None;
            for t in 0..EVENTS_PER_WRITER {
                let v = reference.insert_event(event_of(w, t), t * 120, t * 120 + 60, None, None);
                if let Some(p) = prev {
                    reference.insert_edge(p, v, 0.1).unwrap();
                }
                prev = Some(v);
            }
        }
        assert_eq!(node.stats().edges, reference.stats().edges);
        assert_eq!(fingerprint(&node), fingerprint(&reference));
    });
}
