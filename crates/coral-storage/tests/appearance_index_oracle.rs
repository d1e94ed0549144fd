//! Oracle for the sharded store's appearance index.
//!
//! `ShardedTrajectoryGraph::nearest_by_signature` scores only the vertices
//! its bound cannot rule out. It must still return exactly what the flat
//! graph's full scan returns: the same ids, in the same order, with the
//! same distance bits. Checked for every kind of signature `from_sparse`
//! accepts (rendered vehicles over 40 lookalike classes, unnormalised
//! mass, diffuse mass, other bins-per-channel, and stored signatures that
//! meet the Cauchy–Schwarz bound with equality), at fixed thresholds and
//! at thresholds set exactly at, just above and just below a stored
//! vertex's computed distance. Each case checks a store built by local
//! inserts, the same store after a snapshot export/import, and one built
//! by federation adoption in shuffled id order. `PROPTEST_CASES` raises
//! the case count (read by this file; the proptest stub ignores it).

use coral_net::{EventId, VertexId};
use coral_storage::{ShardedTrajectoryGraph, StorageConfig, TrajectoryGraph};
use coral_topology::CameraId;
use coral_vision::{
    BoundingBox, ColorHistogram, GroundTruthId, HistogramConfig, ObjectClass, Renderer, Scene,
    SceneActor, TrackId, VehicleAppearance,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

fn cases() -> u32 {
    std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(64)
}

/// Appearance classes shared by the rendered vehicles, as in
/// `lookalike_10x10`.
const CLASSES: u64 = 40;
/// Noisy frames rendered per class.
const FRAMES: u64 = 4;
const CAMERAS: u32 = 6;
/// Shard counts: 1 is the single-shard default; 3 and 8 scatter.
const SHARD_AXIS: [usize; 3] = [1, 3, 8];
const K_AXIS: [usize; 3] = [1, 4, 64];
/// Thresholds checked in every case, beside the ones set at stored
/// distances: the pruning range, its edges, and every value the scan
/// answers without pruning.
const FIXED_THRESHOLDS: [f64; 11] = [
    0.0,
    -0.0,
    0.25,
    0.5,
    0.75,
    0.999,
    1.0,
    1.5,
    -0.5,
    f64::NAN,
    f64::INFINITY,
];

/// splitmix64: every signature and stream of a case derives from its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// Uniform in `[lo, hi)`.
    fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * ((self.next() >> 11) as f64 / (1u64 << 53) as f64)
    }
}

/// The signature of appearance `class` in noisy frame `frame`.
fn render(class: u64, frame: u64) -> ColorHistogram {
    let bbox = BoundingBox::new(10.0, 10.0, 60.0, 42.0).expect("valid box");
    let scene = Scene {
        width: 80,
        height: 60,
        actors: vec![SceneActor {
            gt: GroundTruthId(class),
            class: ObjectClass::Car,
            bbox,
            appearance: VehicleAppearance::from_seed(class),
        }],
    };
    let renderer = Renderer::default();
    let view = renderer.view(&scene, frame);
    ColorHistogram::extract(&view, &bbox, &HistogramConfig::default())
}

/// Every class in every frame, rendered once per test binary.
fn rendered() -> &'static [ColorHistogram] {
    static POOL: OnceLock<Vec<ColorHistogram>> = OnceLock::new();
    POOL.get_or_init(|| {
        (0..CLASSES)
            .flat_map(|c| (0..FRAMES).map(move |f| render(c, 1_000 + c * FRAMES + f)))
            .collect()
    })
}

fn pick_rendered(rng: &mut Mix) -> ColorHistogram {
    let pool = rendered();
    pool[rng.below(pool.len() as u64) as usize].clone()
}

/// `h` with every bin multiplied by `factor`: an unnormalised signature.
fn scaled(h: &ColorHistogram, factor: f64) -> ColorHistogram {
    let bins = h.bins().iter().map(|&(i, v)| (i, v * factor)).collect();
    ColorHistogram::from_sparse(h.bins_per_channel(), bins).expect("positive finite bins")
}

/// `nnz` distinct random bins at `bins_per_channel` with total `mass`.
fn random_sparse(rng: &mut Mix, bins_per_channel: usize, nnz: usize, mass: f64) -> ColorHistogram {
    let cells = bins_per_channel.pow(3);
    let mut idx: Vec<usize> = (0..nnz.min(cells))
        .map(|_| rng.below(cells as u64) as usize)
        .collect();
    idx.sort_unstable();
    idx.dedup();
    let raw: Vec<f64> = idx.iter().map(|_| rng.uniform(0.01, 1.0)).collect();
    let total: f64 = raw.iter().sum();
    let bins = idx
        .into_iter()
        .zip(raw)
        .map(|(i, v)| (i, v / total * mass))
        .collect();
    ColorHistogram::from_sparse(bins_per_channel, bins).expect("valid random signature")
}

/// A stored signature meeting the Cauchy–Schwarz bound with equality:
/// `λ·q` on the query's `tail` lightest bins and nothing else, with `λ`
/// chosen so its coefficient with the query is `bc`. Its mass exceeds 1
/// whenever the tail is light, so it is the largest mass of its shard.
fn tight(query: &ColorHistogram, tail: usize, bc: f64) -> ColorHistogram {
    let mut order = query.bins().to_vec();
    order.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    let keep = tail.clamp(1, order.len());
    let mut bins = order.split_off(order.len() - keep);
    let tail_mass: f64 = bins.iter().map(|b| b.1).sum();
    let lambda = (bc / tail_mass).powi(2);
    for b in &mut bins {
        b.1 *= lambda;
    }
    bins.sort_unstable_by_key(|b| b.0);
    ColorHistogram::from_sparse(query.bins_per_channel(), bins).expect("positive finite bins")
}

/// The query of a case: mostly a rendered vehicle, sometimes scaled,
/// diffuse or at another bins-per-channel.
fn query(rng: &mut Mix) -> ColorHistogram {
    match rng.below(8) {
        0..=3 => pick_rendered(rng),
        4 => {
            let f = [1e-3, 0.25, 4.0, 1e3][rng.below(4) as usize];
            scaled(&pick_rendered(rng), f)
        }
        5 => {
            let nnz = 100 + rng.below(413) as usize;
            random_sparse(rng, 8, nnz, 1.0)
        }
        6 => {
            let nnz = 1 + rng.below(6) as usize;
            let mass = rng.uniform(0.1, 3.0);
            random_sparse(rng, 8, nnz, mass)
        }
        _ => {
            let b = [2, 4, 16][rng.below(3) as usize];
            let nnz = 1 + rng.below(12) as usize;
            random_sparse(rng, b, nnz, 1.0)
        }
    }
}

/// The stored signatures of a case: `None` for a vertex without one.
fn stored(rng: &mut Mix, q: &ColorHistogram, n: usize) -> Vec<Option<ColorHistogram>> {
    (0..n)
        .map(|_| match rng.below(10) {
            0..=3 => Some(pick_rendered(rng)),
            4 => {
                let f = [1e-3, 0.25, 4.0, 1e3][rng.below(4) as usize];
                Some(scaled(&pick_rendered(rng), f))
            }
            5 => {
                let nnz = 100 + rng.below(413) as usize;
                let mass = [0.5, 1.0, 7.0][rng.below(3) as usize];
                Some(random_sparse(rng, 8, nnz, mass))
            }
            6 => {
                let b = [2, 4, 8, 16][rng.below(4) as usize];
                let nnz = 1 + rng.below(12) as usize;
                let mass = rng.uniform(0.2, 5.0);
                Some(random_sparse(rng, b, nnz, mass))
            }
            7 => {
                let tail = 1 + rng.below(q.bins().len() as u64) as usize;
                Some(tight(q, tail, rng.uniform(0.05, 0.99)))
            }
            8 => Some(q.clone()),
            _ => None,
        })
        .collect()
}

fn eid(i: usize) -> EventId {
    EventId {
        camera: CameraId(i as u32 % CAMERAS),
        track: TrackId(i as u64),
    }
}

fn times(i: usize) -> (u64, u64) {
    (i as u64 * 950, i as u64 * 950 + 400)
}

fn config(shard_count: usize) -> StorageConfig {
    StorageConfig {
        shard_count,
        time_bucket_ms: 2_000,
        cameras_per_region: 2,
    }
}

fn build_flat(sigs: &[Option<ColorHistogram>]) -> TrajectoryGraph {
    let mut g = TrajectoryGraph::new();
    for (i, sig) in sigs.iter().enumerate() {
        let (first, last) = times(i);
        g.insert_event_with_signature(eid(i), first, last, None, sig.clone(), None);
    }
    g
}

fn build_local(sigs: &[Option<ColorHistogram>], shards: usize) -> ShardedTrajectoryGraph {
    let g = ShardedTrajectoryGraph::new(config(shards));
    for (i, sig) in sigs.iter().enumerate() {
        let (first, last) = times(i);
        g.insert_event_with_signature(eid(i), first, last, None, sig.clone(), None);
    }
    g
}

/// The same vertices adopted at their ids, in a shuffled order.
fn build_adopted(
    sigs: &[Option<ColorHistogram>],
    shards: usize,
    rng: &mut Mix,
) -> ShardedTrajectoryGraph {
    let mut order: Vec<usize> = (0..sigs.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let g = ShardedTrajectoryGraph::new(config(shards));
    for i in order {
        let (first, last) = times(i);
        g.adopt_event(
            VertexId(i as u64),
            eid(i),
            first,
            last,
            None,
            sigs[i].clone(),
            None,
        );
    }
    g
}

/// A unique, self-cleaning snapshot directory.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> Self {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "coral-appearance-oracle-{}-{}",
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

/// Ids and distance bits, in result order.
fn bits(hits: &[(VertexId, f64)]) -> Vec<(u64, u64)> {
    hits.iter().map(|&(v, d)| (v.0, d.to_bits())).collect()
}

/// The fixed thresholds, plus each of `picks` stored vertices' computed
/// distance to `q` and its two float neighbours.
fn thresholds(
    q: &ColorHistogram,
    sigs: &[Option<ColorHistogram>],
    rng: &mut Mix,
    picks: usize,
) -> Vec<f64> {
    let mut out = FIXED_THRESHOLDS.to_vec();
    let distances: Vec<f64> = sigs
        .iter()
        .flatten()
        .filter_map(|s| q.bhattacharyya_distance(s))
        .collect();
    for _ in 0..picks.min(distances.len()) {
        let d = distances[rng.below(distances.len() as u64) as usize];
        out.extend([d, d.next_up(), d.next_down()]);
    }
    out
}

/// Asserts `store` answers every `(threshold, k)` exactly as `flat`.
fn check(
    label: &str,
    store: &ShardedTrajectoryGraph,
    flat: &TrajectoryGraph,
    q: &ColorHistogram,
    ts: &[f64],
) -> Result<(), String> {
    for &t in ts {
        for k in K_AXIS {
            let want = bits(&flat.nearest_by_signature(q, k, t));
            let got = bits(&store.nearest_by_signature(q, k, t));
            prop_assert_eq!(got, want, "{}: max_distance {:e}, k {}", label, t, k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    #[test]
    fn indexed_query_matches_the_full_scan_bit_for_bit(
        seed in 0u64..u64::MAX,
        n in 1usize..48,
    ) {
        let mut rng = Mix(seed);
        let q = query(&mut rng);
        let sigs = stored(&mut rng, &q, n);
        let flat = build_flat(&sigs);
        let ts = thresholds(&q, &sigs, &mut rng, 4);
        for shards in SHARD_AXIS {
            let local = build_local(&sigs, shards);
            check(&format!("local, {shards} shards"), &local, &flat, &q, &ts)?;

            let dir = TempDir::new();
            local.snapshot_to(dir.path()).expect("snapshot written");
            let restored = ShardedTrajectoryGraph::restore_from(dir.path()).expect("snapshot read");
            check(&format!("restored, {shards} shards"), &restored, &flat, &q, &ts)?;

            let adopted = build_adopted(&sigs, shards, &mut rng);
            check(&format!("adopted, {shards} shards"), &adopted, &flat, &q, &ts)?;
            // Out-of-order adoption keeps the per-camera lists ascending.
            let horizon = n as u64 * 950 + 500;
            for cam in 0..CAMERAS {
                prop_assert_eq!(
                    adopted.vehicles_through_camera(CameraId(cam), 0, horizon),
                    flat.vehicles_through_camera(CameraId(cam), 0, horizon),
                    "camera {} after adoption, {} shards", cam, shards
                );
            }
        }
    }

    #[test]
    fn every_stored_signature_finds_itself_at_its_own_distance(
        seed in 0u64..u64::MAX,
        n in 1usize..48,
    ) {
        // Query with each stored signature in turn, at the distance of
        // every other stored vertex: the thresholds where a bound that
        // ignored rounding or mass would drop a result.
        let mut rng = Mix(seed);
        let q = query(&mut rng);
        let sigs = stored(&mut rng, &q, n);
        let flat = build_flat(&sigs);
        let store = build_local(&sigs, 3);
        for probe in sigs.iter().flatten().take(6) {
            let ts: Vec<f64> = sigs
                .iter()
                .flatten()
                .filter_map(|s| probe.bhattacharyya_distance(s))
                .collect();
            check("self-probe, 3 shards", &store, &flat, probe, &ts)?;
        }
    }
}
