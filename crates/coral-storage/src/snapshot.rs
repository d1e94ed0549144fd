//! Snapshot/restore for the sharded trajectory store.
//!
//! A snapshot is a directory: one `shard-NNNN.csnap` file per shard plus a
//! `MANIFEST`. Every file is a versioned line-oriented text format ending
//! in a `crc` trailer (FNV-1a over all preceding bytes), and the manifest
//! additionally records each shard file's checksum — so a flipped byte in
//! any shard fails restore loudly with [`SnapshotError::ChecksumMismatch`]
//! instead of silently loading a partial graph. Floats are serialised as
//! `f64::to_bits` hex for exact round-trips.
//!
//! Only **out**-edges are persisted (with their global sequence numbers);
//! in-edges, the event index, the vertex→shard directory and the
//! cross-shard index are all rebuilt on restore. That makes a snapshot
//! taken during live edge ingest consistent by construction: an edge is
//! either fully present or absent, never torn (vertex creation is frozen
//! for the duration by the index read lock).

use crate::graph::{TrajectoryEdge, VertexRecord};
use crate::shard::{
    ExportedShard, ExportedStore, ImportError, ShardedTrajectoryGraph, StorageConfig,
};
use coral_geo::Heading;
use coral_net::{EventId, VertexId};
use coral_topology::CameraId;
use coral_vision::{ColorHistogram, GroundTruthId, TrackId};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Magic + version line of the manifest.
const MANIFEST_MAGIC: &str = "coral-snapshot v1";
/// Magic + version line of each shard file.
const SHARD_MAGIC: &str = "coral-shard v1";

/// Errors from snapshot write/restore. Restore never half-applies: any
/// error leaves the target store untouched.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// Filesystem error.
    Io {
        /// Offending path.
        path: PathBuf,
        /// The underlying error, stringified.
        message: String,
    },
    /// The file's magic/version line is not one this build understands.
    VersionMismatch {
        /// Offending file.
        path: PathBuf,
        /// The version line found.
        found: String,
    },
    /// A file's bytes do not hash to the recorded checksum.
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
        /// Checksum recorded in the trailer/manifest.
        expected: u64,
        /// Checksum of the actual bytes.
        actual: u64,
    },
    /// A structurally invalid line or inconsistent content.
    Corrupt {
        /// Offending file.
        path: PathBuf,
        /// 1-based line number (0 when the problem spans the whole file).
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// The snapshot's shard layout does not match the target store.
    ConfigMismatch {
        /// What differed.
        reason: String,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io { path, message } => {
                write!(f, "snapshot io error at {}: {message}", path.display())
            }
            SnapshotError::VersionMismatch { path, found } => write!(
                f,
                "snapshot version mismatch in {}: found {found:?}",
                path.display()
            ),
            SnapshotError::ChecksumMismatch {
                path,
                expected,
                actual,
            } => write!(
                f,
                "snapshot checksum mismatch in {}: expected {expected:016x}, got {actual:016x}",
                path.display()
            ),
            SnapshotError::Corrupt { path, line, reason } => write!(
                f,
                "corrupt snapshot {} line {line}: {reason}",
                path.display()
            ),
            SnapshotError::ConfigMismatch { reason } => {
                write!(f, "snapshot config mismatch: {reason}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte string — the snapshot checksum. Fixed constants:
/// checksums must be stable across processes and builds.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn io_err(path: &Path, e: std::io::Error) -> SnapshotError {
    SnapshotError::Io {
        path: path.to_path_buf(),
        message: e.to_string(),
    }
}

fn corrupt(path: &Path, line: usize, reason: impl Into<String>) -> SnapshotError {
    SnapshotError::Corrupt {
        path: path.to_path_buf(),
        line,
        reason: reason.into(),
    }
}

fn shard_file_name(i: usize) -> String {
    format!("shard-{i:04}.csnap")
}

impl ShardedTrajectoryGraph {
    /// Writes a snapshot of this store into directory `dir` (created if
    /// absent). Safe against concurrent edge ingest; vertex creation is
    /// briefly paused while state is exported.
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] on filesystem failures.
    pub fn snapshot_to(&self, dir: &Path) -> Result<(), SnapshotError> {
        write_snapshot(&self.export(), dir)
    }

    /// Loads a snapshot into a fresh store, which adopts the snapshot's
    /// whole configuration (shard layout and routing key).
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; nothing is constructed on failure.
    pub fn restore_from(dir: &Path) -> Result<Self, SnapshotError> {
        let state = read_snapshot(dir)?;
        let store = Self::new(StorageConfig {
            shard_count: state.shard_count,
            time_bucket_ms: state.time_bucket_ms,
            cameras_per_region: state.cameras_per_region,
        });
        store.apply(dir, state)?;
        Ok(store)
    }

    /// Replaces this store's content with the snapshot at `dir` — the
    /// node-restore path: every clone of the owning `EdgeStorageNode`
    /// sees the recovered graph. The snapshot's shard layout must match
    /// this store's configuration.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]; on failure the store is left untouched.
    pub fn restore_in_place(&self, dir: &Path) -> Result<(), SnapshotError> {
        let state = read_snapshot(dir)?;
        self.apply(dir, state)
    }

    fn apply(&self, dir: &Path, state: ExportedStore) -> Result<(), SnapshotError> {
        self.import(state).map_err(|e| match e {
            ImportError::ShardCountMismatch { .. } => SnapshotError::ConfigMismatch {
                reason: e.to_string(),
            },
            other => corrupt(dir, 0, other.to_string()),
        })
    }
}

/// Serialises `state` into `dir`.
pub(crate) fn write_snapshot(state: &ExportedStore, dir: &Path) -> Result<(), SnapshotError> {
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut manifest = String::new();
    let _ = writeln!(manifest, "{MANIFEST_MAGIC}");
    let _ = writeln!(manifest, "shard_count {}", state.shard_count);
    let _ = writeln!(manifest, "time_bucket_ms {}", state.time_bucket_ms);
    let _ = writeln!(manifest, "cameras_per_region {}", state.cameras_per_region);
    let _ = writeln!(manifest, "next_vertex {}", state.next_vertex);
    let _ = writeln!(manifest, "edge_seq {}", state.edge_seq);
    let _ = writeln!(manifest, "max_interval_ms {}", state.max_interval_ms);
    for (i, shard) in state.shards.iter().enumerate() {
        let body = encode_shard(shard);
        let file = shard_file_name(i);
        let path = dir.join(&file);
        std::fs::write(&path, body.as_bytes()).map_err(|e| io_err(&path, e))?;
        let _ = writeln!(
            manifest,
            "shard {i} {file} {:016x} {} {}",
            fnv64(body.as_bytes()),
            shard.records.len(),
            shard.edges.len()
        );
    }
    let _ = writeln!(manifest, "crc {:016x}", fnv64(manifest.as_bytes()));
    let path = dir.join("MANIFEST");
    std::fs::write(&path, manifest.as_bytes()).map_err(|e| io_err(&path, e))
}

/// Reads and fully validates the snapshot at `dir`.
pub(crate) fn read_snapshot(dir: &Path) -> Result<ExportedStore, SnapshotError> {
    let manifest_path = dir.join("MANIFEST");
    let manifest =
        std::fs::read_to_string(&manifest_path).map_err(|e| io_err(&manifest_path, e))?;
    verify_trailer(&manifest_path, &manifest)?;
    let mut lines = manifest.lines().enumerate();
    let (_, magic) = lines
        .next()
        .ok_or_else(|| corrupt(&manifest_path, 1, "empty manifest"))?;
    if magic != MANIFEST_MAGIC {
        return Err(SnapshotError::VersionMismatch {
            path: manifest_path,
            found: magic.to_string(),
        });
    }
    let mut shard_count = None;
    let mut time_bucket_ms = None;
    let mut cameras_per_region = None;
    let mut next_vertex = None;
    let mut edge_seq = None;
    let mut max_interval_ms = None;
    let mut shard_entries: Vec<(usize, String, u64, usize, usize)> = Vec::new();
    for (lineno, line) in lines {
        let lineno = lineno + 1;
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("shard_count") => {
                shard_count = Some(parse_num::<usize>(&manifest_path, lineno, tok.next())?)
            }
            Some("time_bucket_ms") => {
                time_bucket_ms = Some(parse_num::<u64>(&manifest_path, lineno, tok.next())?)
            }
            Some("cameras_per_region") => {
                cameras_per_region = Some(parse_num::<u32>(&manifest_path, lineno, tok.next())?)
            }
            Some("next_vertex") => {
                next_vertex = Some(parse_num::<u64>(&manifest_path, lineno, tok.next())?)
            }
            Some("edge_seq") => {
                edge_seq = Some(parse_num::<u64>(&manifest_path, lineno, tok.next())?)
            }
            Some("max_interval_ms") => {
                max_interval_ms = Some(parse_num::<u64>(&manifest_path, lineno, tok.next())?)
            }
            Some("shard") => {
                let idx = parse_num::<usize>(&manifest_path, lineno, tok.next())?;
                let file = tok
                    .next()
                    .ok_or_else(|| corrupt(&manifest_path, lineno, "missing shard file name"))?
                    .to_string();
                let crc = parse_hex(&manifest_path, lineno, tok.next())?;
                let nv = parse_num::<usize>(&manifest_path, lineno, tok.next())?;
                let ne = parse_num::<usize>(&manifest_path, lineno, tok.next())?;
                shard_entries.push((idx, file, crc, nv, ne));
            }
            Some("crc") => break,
            Some(other) => {
                return Err(corrupt(
                    &manifest_path,
                    lineno,
                    format!("unknown manifest key {other:?}"),
                ))
            }
            None => continue,
        }
    }
    let shard_count =
        shard_count.ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing shard_count"))?;
    if shard_entries.len() != shard_count {
        return Err(corrupt(
            &manifest_path,
            0,
            format!(
                "manifest lists {} shard files for shard_count {shard_count}",
                shard_entries.len()
            ),
        ));
    }
    let mut shards: Vec<Option<ExportedShard>> = (0..shard_count).map(|_| None).collect();
    for (idx, file, crc, nv, ne) in shard_entries {
        let path = dir.join(&file);
        let body = std::fs::read_to_string(&path).map_err(|e| io_err(&path, e))?;
        let actual = fnv64(body.as_bytes());
        if actual != crc {
            return Err(SnapshotError::ChecksumMismatch {
                path,
                expected: crc,
                actual,
            });
        }
        let shard = decode_shard(&path, &body)?;
        if shard.records.len() != nv || shard.edges.len() != ne {
            return Err(corrupt(
                &path,
                0,
                format!(
                    "manifest promises {nv} vertices / {ne} edges, file holds {} / {}",
                    shard.records.len(),
                    shard.edges.len()
                ),
            ));
        }
        let slot = shards.get_mut(idx).ok_or_else(|| {
            corrupt(
                &manifest_path,
                0,
                format!("shard index {idx} out of range for shard_count {shard_count}"),
            )
        })?;
        if slot.replace(shard).is_some() {
            return Err(corrupt(
                &manifest_path,
                0,
                format!("duplicate manifest entry for shard {idx}"),
            ));
        }
    }
    let shards: Vec<ExportedShard> = shards
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.ok_or_else(|| corrupt(&manifest_path, 0, format!("shard {i} missing"))))
        .collect::<Result<_, _>>()?;
    Ok(ExportedStore {
        shard_count,
        time_bucket_ms: time_bucket_ms
            .ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing time_bucket_ms"))?,
        cameras_per_region: cameras_per_region
            .ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing cameras_per_region"))?,
        next_vertex: next_vertex
            .ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing next_vertex"))?,
        edge_seq: edge_seq
            .ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing edge_seq"))?,
        max_interval_ms: max_interval_ms
            .ok_or_else(|| corrupt(&manifest_path, 0, "manifest missing max_interval_ms"))?,
        shards,
    })
}

/// Checks a file's `crc <hex>` trailer against its preceding bytes.
fn verify_trailer(path: &Path, content: &str) -> Result<(), SnapshotError> {
    let trimmed = content.trim_end_matches('\n');
    let (body, trailer) = trimmed
        .rsplit_once('\n')
        .ok_or_else(|| corrupt(path, 0, "missing crc trailer"))?;
    let expected = trailer
        .strip_prefix("crc ")
        .ok_or_else(|| corrupt(path, 0, "last line is not a crc trailer"))?;
    let expected = u64::from_str_radix(expected.trim(), 16)
        .map_err(|_| corrupt(path, 0, "unparsable crc trailer"))?;
    // The trailer hash covers everything up to and including the newline
    // that precedes it.
    let mut hashed = String::with_capacity(body.len() + 1);
    hashed.push_str(body);
    hashed.push('\n');
    let actual = fnv64(hashed.as_bytes());
    if actual != expected {
        return Err(SnapshotError::ChecksumMismatch {
            path: path.to_path_buf(),
            expected,
            actual,
        });
    }
    Ok(())
}

fn parse_num<T: std::str::FromStr>(
    path: &Path,
    line: usize,
    tok: Option<&str>,
) -> Result<T, SnapshotError> {
    tok.and_then(|t| t.parse().ok())
        .ok_or_else(|| corrupt(path, line, "missing or unparsable integer field"))
}

fn parse_hex(path: &Path, line: usize, tok: Option<&str>) -> Result<u64, SnapshotError> {
    tok.and_then(|t| u64::from_str_radix(t, 16).ok())
        .ok_or_else(|| corrupt(path, line, "missing or unparsable hex field"))
}

fn encode_shard(shard: &ExportedShard) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "{SHARD_MAGIC}");
    for r in &shard.records {
        let _ = write!(
            s,
            "v {} {} {} {} {}",
            r.id.0, r.camera.0, r.event.track.0, r.first_seen_ms, r.last_seen_ms
        );
        match r.heading {
            // Clockwise index into `Heading::ALL`.
            Some(h) => {
                let idx = Heading::ALL
                    .iter()
                    .position(|&a| a == h)
                    .expect("heading is one of the eight");
                let _ = write!(s, " {idx}");
            }
            None => s.push_str(" -"),
        }
        match r.ground_truth {
            Some(gt) => {
                let _ = write!(s, " {}", gt.0);
            }
            None => s.push_str(" -"),
        }
        match &r.signature {
            Some(sig) => {
                let _ = write!(s, " {}:", sig.bins_per_channel());
                for (i, b) in sig.bins().iter().enumerate() {
                    if i > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{:x}", b.to_bits());
                }
            }
            None => s.push_str(" -"),
        }
        s.push('\n');
    }
    for (e, seq) in &shard.edges {
        let _ = writeln!(
            s,
            "e {} {} {:x} {seq}",
            e.from.0,
            e.to.0,
            e.weight.to_bits()
        );
    }
    let _ = writeln!(s, "crc {:016x}", fnv64(s.as_bytes()));
    s
}

fn decode_shard(path: &Path, body: &str) -> Result<ExportedShard, SnapshotError> {
    verify_trailer(path, body)?;
    let mut lines = body.lines().enumerate();
    let (_, magic) = lines
        .next()
        .ok_or_else(|| corrupt(path, 1, "empty shard file"))?;
    if magic != SHARD_MAGIC {
        return Err(SnapshotError::VersionMismatch {
            path: path.to_path_buf(),
            found: magic.to_string(),
        });
    }
    let mut records = Vec::new();
    let mut edges = Vec::new();
    for (lineno, line) in lines {
        let lineno = lineno + 1;
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("v") => {
                let id = VertexId(parse_num(path, lineno, tok.next())?);
                let camera = CameraId(parse_num(path, lineno, tok.next())?);
                let track = TrackId(parse_num(path, lineno, tok.next())?);
                let first_seen_ms = parse_num(path, lineno, tok.next())?;
                let last_seen_ms = parse_num(path, lineno, tok.next())?;
                let heading = match tok
                    .next()
                    .ok_or_else(|| corrupt(path, lineno, "missing heading field"))?
                {
                    "-" => None,
                    idx => {
                        let i: usize = idx.parse().map_err(|_| {
                            corrupt(path, lineno, format!("unparsable heading index {idx:?}"))
                        })?;
                        Some(*Heading::ALL.get(i).ok_or_else(|| {
                            corrupt(path, lineno, format!("heading index {i} out of range"))
                        })?)
                    }
                };
                let ground_truth = match tok
                    .next()
                    .ok_or_else(|| corrupt(path, lineno, "missing ground-truth field"))?
                {
                    "-" => None,
                    gt => Some(GroundTruthId(gt.parse().map_err(|_| {
                        corrupt(path, lineno, format!("unparsable ground truth {gt:?}"))
                    })?)),
                };
                let signature = match tok
                    .next()
                    .ok_or_else(|| corrupt(path, lineno, "missing signature field"))?
                {
                    "-" => None,
                    sig => Some(decode_signature(path, lineno, sig)?),
                };
                records.push(VertexRecord {
                    id,
                    event: EventId { camera, track },
                    camera,
                    first_seen_ms,
                    last_seen_ms,
                    heading,
                    signature,
                    ground_truth,
                });
            }
            Some("e") => {
                let from = VertexId(parse_num(path, lineno, tok.next())?);
                let to = VertexId(parse_num(path, lineno, tok.next())?);
                let weight = f64::from_bits(parse_hex(path, lineno, tok.next())?);
                let seq = parse_num(path, lineno, tok.next())?;
                edges.push((TrajectoryEdge { from, to, weight }, seq));
            }
            Some("crc") => break,
            Some(other) => {
                return Err(corrupt(
                    path,
                    lineno,
                    format!("unknown record tag {other:?}"),
                ))
            }
            None => continue,
        }
    }
    Ok(ExportedShard { records, edges })
}

fn decode_signature(
    path: &Path,
    line: usize,
    field: &str,
) -> Result<ColorHistogram, SnapshotError> {
    let (bpc, bins) = field
        .split_once(':')
        .ok_or_else(|| corrupt(path, line, "signature field missing ':'"))?;
    let bpc: usize = bpc
        .parse()
        .map_err(|_| corrupt(path, line, "unparsable bins-per-channel"))?;
    let bins: Vec<f64> = bins
        .split(',')
        .map(|b| u64::from_str_radix(b, 16).map(f64::from_bits))
        .collect::<Result<_, _>>()
        .map_err(|_| corrupt(path, line, "unparsable signature bin"))?;
    ColorHistogram::from_bins(bpc, bins).map_err(|e| corrupt(path, line, e.to_string()))
}
