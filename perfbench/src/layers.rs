//! Per-layer metrics of a traced run: registry deltas over the window,
//! plus replays of single layers outside the spans they are compared
//! with (traffic, vision stages, a standalone topology server, store
//! snapshots, the scorer).

use crate::probe::{Delta, RegSnap};
use crate::run::{Metrics, QueryLog, QUERY_OPS};
use crate::stats::{mean, median, percentile, ratio, sorted};
use crate::workloads::Deployed;
use coral_core::CoralPieSystem;
use coral_sim::{slack_for, CameraView, OccupancyIndex, SimTime};
use coral_vision::{
    ColorHistogram, Detector, HistogramScratch, PostProcessor, Scene, SortTracker,
    SyntheticSsdDetector,
};
use std::time::Instant;

fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// `core`: tick, analysis, commit and off-tick time per simulated second,
/// stepping activity, and re-id work.
pub fn core_metrics(
    m: &mut Metrics,
    sys: &CoralPieSystem,
    delta: &Delta<'_>,
    sim_s: f64,
    wall_s: f64,
    events: u64,
) {
    let tick_us = delta.histogram("core_tick_us").sum_us as f64;
    let busy = delta.counter("core_step_busy_us_total");
    let critical = delta.counter("core_step_critical_us_total");
    let commit = delta.counter("core_step_commit_us_total");
    let stepped = delta.counter("core_cameras_stepped_total");
    let skipped = delta.counter("core_cameras_skipped_total");
    let per_s = |us: f64| us / 1e3 / sim_s;
    m.put("core.tick_ms_per_sim_s", "ms", per_s(tick_us));
    m.put("core.analyze_busy_ms_per_sim_s", "ms", per_s(busy));
    m.put("core.analyze_critical_ms_per_sim_s", "ms", per_s(critical));
    m.put(
        "core.schedule_speedup",
        "ratio",
        ratio(busy + commit, critical + commit),
    );
    m.put("core.commit_ms_per_sim_s", "ms", per_s(commit));
    m.put(
        "core.tick_other_ms_per_sim_s",
        "ms",
        per_s((tick_us - critical - commit).max(0.0)),
    );
    m.put(
        "core.off_tick_ms_per_sim_s",
        "ms",
        per_s((wall_s * 1e6 - tick_us).max(0.0)),
    );
    m.put(
        "core.active_camera_frac",
        "ratio",
        ratio(stepped, stepped + skipped),
    );
    m.put("core.events_per_sim_s", "1/s", events as f64 / sim_s);

    let snap = RegSnap::take(sys.observability().registry());
    let reids = snap.counter("runtime_reids_total") as f64;
    let comparisons: u64 = sys
        .alive()
        .iter()
        .filter_map(|&c| sys.node(c))
        .map(|n| n.reid().comparisons())
        .sum();
    let pools: Vec<(f64, f64)> = sys
        .alive()
        .iter()
        .filter_map(|&c| sys.node(c))
        .map(|n| (n.pool().len() as f64, n.pool().spurious_fraction()))
        .collect();
    m.put(
        "core.reid_comparisons_per_reid",
        "ratio",
        ratio(comparisons as f64, reids),
    );
    m.put(
        "core.reids_per_event",
        "ratio",
        ratio(reids, snap.counter("runtime_events_total") as f64),
    );
    m.put(
        "core.pool_len_mean",
        "count",
        mean(&pools.iter().map(|p| p.0).collect::<Vec<_>>()),
    );
    m.put(
        "core.pool_spurious_frac",
        "ratio",
        mean(&pools.iter().map(|p| p.1).collect::<Vec<_>>()),
    );
    let t = sys.telemetry();
    m.put(
        "core.telemetry_rows",
        "count",
        (t.passages.len()
            + t.informs.len()
            + t.recoveries.len()
            + t.events.len()
            + t.detections.len()) as f64,
    );
}

/// `topology`: a standalone server replaying the deployment's joins, a
/// refresh sample and a few remove/rejoin cycles, plus the run's MDCS
/// recompute time and recoveries.
pub fn topology_metrics(m: &mut Metrics, d: &Deployed, delta: &Delta<'_>, sim_s: f64) {
    let mut server = d.deployment.make_server();
    let placements = d.deployment.placements().to_vec();
    let mut join_ms = Vec::with_capacity(placements.len());
    let mut updates = 0usize;
    let mut changes = 0usize;
    for (i, &(id, pos, angle)) in placements.iter().enumerate() {
        let t = Instant::now();
        let u = server
            .handle_heartbeat(id, pos, angle, i as u64)
            .expect("replayed join registers");
        join_ms.push(us_since(t) / 1e3);
        updates += u.len();
        changes += 1;
    }
    let storm_s = join_ms.iter().sum::<f64>() / 1e3;
    let step = (placements.len() / 200).max(1);
    let mut refresh_us = Vec::new();
    for &(id, pos, angle) in placements.iter().step_by(step) {
        let t = Instant::now();
        let u = server
            .handle_heartbeat(id, pos, angle, 1_000_000)
            .expect("refresh of a known camera");
        refresh_us.push(us_since(t));
        updates += u.len();
    }
    let step = (placements.len() / 5).max(1);
    let mut remove_ms = Vec::new();
    for &(id, pos, angle) in placements.iter().step_by(step) {
        let t = Instant::now();
        let u = server
            .remove_camera(id)
            .expect("remove a registered camera");
        remove_ms.push(us_since(t) / 1e3);
        updates += u.len();
        let u = server
            .handle_heartbeat(id, pos, angle, 2_000_000)
            .expect("rejoin");
        updates += u.len();
        changes += 2;
    }
    let joins = sorted(join_ms);
    m.put("topology.join_ms_p50", "ms", percentile(&joins, 0.5));
    m.put("topology.join_ms_p99", "ms", percentile(&joins, 0.99));
    m.put("topology.join_storm_s", "s", storm_s);
    m.put("topology.remove_ms_mean", "ms", mean(&remove_ms));
    m.put("topology.heartbeat_refresh_us", "us", mean(&refresh_us));
    m.put(
        "topology.updates_per_change",
        "ratio",
        ratio(updates as f64, changes as f64),
    );
    let recompute_us = delta
        .histogram("server_mdcs_recompute_us{heartbeat}")
        .sum_us
        + delta.histogram("server_mdcs_recompute_us{liveness}").sum_us;
    m.put(
        "topology.recompute_ms_per_sim_s",
        "ms",
        recompute_us as f64 / 1e3 / sim_s,
    );
    let recoveries: Vec<f64> = d
        .sys
        .telemetry()
        .recoveries
        .iter()
        .map(|r| r.duration().as_secs_f64())
        .collect();
    m.put(
        "topology.recovery_p50_s",
        "s",
        if recoveries.is_empty() {
            0.0
        } else {
            median(&recoveries)
        },
    );
}

/// `net`: message and byte rates, reliable-layer retries, duplicates and
/// give-ups, the retransmit queue high-water mark, inform latency and the
/// share of informs (`leads`, from [`crate::run::inform_leads`]) that
/// arrived after their vehicle.
pub fn net_metrics(
    m: &mut Metrics,
    delta: &Delta<'_>,
    sim_s: f64,
    pending_max: i64,
    leads: &[f64],
) {
    m.put(
        "net.messages_per_sim_s",
        "1/s",
        delta.counter("runtime_messages_delivered_total") / sim_s,
    );
    m.put(
        "net.cloud_bytes_per_sim_s",
        "B/s",
        delta.counter("runtime_cloud_bytes_total") / sim_s,
    );
    m.put(
        "net.retries_per_send",
        "ratio",
        ratio(
            delta.counter("reliable_retries_total"),
            crate::run::sends(delta),
        ),
    );
    m.put(
        "net.dup_dropped",
        "count",
        delta.counter("reliable_dup_dropped_total"),
    );
    m.put(
        "net.gave_up",
        "count",
        delta.counter("reliable_gave_up_total"),
    );
    m.put("net.pending_frames_max", "count", pending_max as f64);
    m.put(
        "net.inform_latency_ms_p50",
        "ms",
        delta
            .histogram("runtime_inform_latency_us")
            .quantile_bound_us(0.5) as f64
            / 1e3,
    );
    m.put(
        "net.inform_late_frac",
        "ratio",
        ratio(
            leads.iter().filter(|&&l| l < 0.0).count() as f64,
            leads.len() as f64,
        ),
    );
}

/// `storage`: reader-side latency per query op, write latency over the
/// window, store shape, and a snapshot/restore of the final store.
pub fn storage_metrics(
    m: &mut Metrics,
    sys: &CoralPieSystem,
    delta: &Delta<'_>,
    queries: &QueryLog,
    tag: &str,
) {
    for (op, name) in QUERY_OPS.iter().enumerate() {
        let us = queries.op_us(op);
        let (p50, p99) = if us.is_empty() {
            (0.0, 0.0)
        } else {
            (percentile(&us, 0.5), percentile(&us, 0.99))
        };
        m.put(&format!("storage.{name}_us_p50"), "us", p50);
        m.put(&format!("storage.{name}_us_p99"), "us", p99);
    }
    let mean_us = |key: &str| {
        let h = delta.histogram(key);
        ratio(h.sum_us as f64, h.count as f64)
    };
    m.put(
        "storage.insert_event_us_mean",
        "us",
        mean_us("storage_write_latency_us{insert_event}"),
    );
    m.put(
        "storage.insert_edge_us_mean",
        "us",
        mean_us("storage_write_latency_us{insert_edge}"),
    );
    let stats = sys.storage().stats();
    m.put("storage.vertices", "count", stats.vertices as f64);
    m.put("storage.edges", "count", stats.edges as f64);
    m.put(
        "storage.cross_shard_frac",
        "ratio",
        ratio(stats.cross_shard_edges as f64, stats.edges as f64),
    );
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("snapshot-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create snapshot directory");
    let t = Instant::now();
    sys.storage().snapshot_to(&dir).expect("snapshot the store");
    m.put("storage.snapshot_ms", "ms", us_since(t) / 1e3);
    let t = Instant::now();
    sys.storage()
        .restore_from_snapshot(&dir)
        .expect("restore the store");
    m.put("storage.restore_ms", "ms", us_since(t) / 1e3);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `obs`: the `/metrics` scrape, registry and journal size, and what the
/// benchmark's own tracing cost against the untraced twin.
pub fn obs_metrics(m: &mut Metrics, sys: &CoralPieSystem, wall_s: f64, twin_wall_s: f64) {
    let obs = sys.observability();
    let renders: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(obs.registry().render_prometheus());
            us_since(t)
        })
        .collect();
    m.put("obs.prometheus_render_us", "us", median(&renders));
    m.put("obs.series", "count", obs.registry().collect().len() as f64);
    m.put("obs.journal_events", "count", obs.journal().len() as f64);
    m.put(
        "obs.journal_dropped",
        "count",
        obs.journal().dropped_total() as f64,
    );
    m.put(
        "obs.trace_overhead_frac",
        "ratio",
        ratio(wall_s - twin_wall_s, twin_wall_s),
    );
}

/// `eval`: the scorer's three stages, timed one by one, and the miss
/// attribution that explains `mota`/`idf1`.
pub fn eval_metrics(m: &mut Metrics, sys: &CoralPieSystem, report: &coral_eval::EvalReport) {
    sys.with_trajectory_graph(|g| {
        let t = Instant::now();
        let tracks = coral_eval::extract_tracks(g);
        m.put("eval.extract_tracks_ms", "ms", us_since(t) / 1e3);
        let t = Instant::now();
        let (_, matches) = coral_eval::score_tracks(sys.ground_truth(), g, &tracks);
        m.put("eval.score_ms", "ms", us_since(t) / 1e3);
        let t = Instant::now();
        std::hint::black_box(coral_eval::attribute(sys.telemetry(), g, &matches));
        m.put("eval.attribute_ms", "ms", us_since(t) / 1e3);
    });
    m.put(
        "eval.reid_mismatch",
        "count",
        report.attribution.reid_mismatch as f64,
    );
    m.put(
        "eval.handoff_miss",
        "count",
        report.attribution.handoff_miss as f64,
    );
}

/// Most scenes the vision replay keeps.
const SCENE_CAP: usize = 2_000;

/// `sim` and `vision`: a traffic-only replay of the same spec and seed,
/// timing each substrate stage over the window's ticks and capturing the
/// scenes of active cameras; the captured scenes then run through fresh
/// per-camera vision stages.
pub fn sim_vision_metrics(
    m: &mut Metrics,
    d: &Deployed,
    open_ms: u64,
    end_ms: u64,
    delta: &Delta<'_>,
    sim_s: f64,
) {
    let config = d.deployment.config();
    let mut traffic = d.deployment.make_traffic();
    for light in &d.lights {
        traffic.add_light(*light);
    }
    if let Some(spec) = &d.scenario {
        spec.apply_incidents(&mut traffic);
    }
    let mut arrivals = d.arrivals.install(&mut traffic, d.horizon);
    let mut views: Vec<CameraView> = Vec::new();
    let mut occupancy = OccupancyIndex::new(slack_for(
        traffic.config().max_speed_mps(),
        config.frame_period.as_secs_f64(),
    ));
    for &(id, _, _) in d.deployment.placements() {
        let view = *d.sys.node(id).expect("deployed camera").view();
        occupancy.add_camera(view.position, view.range_m);
        views.push(view);
    }

    let (mut arrivals_us, mut step_us, mut states_us, mut assign_us, mut scene_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut ticks, mut scenes_built, mut vehicles) = (0u64, 0u64, 0.0);
    let mut captured: Vec<Vec<Scene>> = vec![Vec::new(); views.len()];
    let mut kept = 0usize;
    let mut states = Vec::new();
    let period = config.frame_period;
    let mut last = SimTime::ZERO;
    let mut now = SimTime::ZERO + period;
    while now.as_millis() <= end_ms {
        let timed = now.as_millis() > open_ms;
        let t = Instant::now();
        if let Some(process) = &mut arrivals {
            process.advance(now, &mut traffic);
        }
        let a = us_since(t);
        let t = Instant::now();
        traffic.step(last, now.since(last));
        let s = us_since(t);
        let t = Instant::now();
        traffic.states_into(&mut states);
        let st = us_since(t);
        let t = Instant::now();
        occupancy.assign(&states);
        let asg = us_since(t);
        if timed {
            ticks += 1;
            arrivals_us += a;
            step_us += s;
            states_us += st;
            assign_us += asg;
            vehicles += states.len() as f64;
            for (slot, view) in views.iter().enumerate() {
                let cands = occupancy.candidates(slot);
                if cands.is_empty() {
                    continue;
                }
                let t = Instant::now();
                let scene = view.scene_from_states_at(
                    cands.iter().map(|&i| &states[i as usize]),
                    now.as_millis(),
                );
                scene_us += us_since(t);
                scenes_built += 1;
                if kept < SCENE_CAP && !scene.actors.is_empty() {
                    captured[slot].push(scene);
                    kept += 1;
                }
            }
        }
        last = now;
        now += period;
    }
    let per_tick = |us: f64| ratio(us, ticks as f64);
    m.put("sim.arrivals_us_per_tick", "us", per_tick(arrivals_us));
    m.put("sim.traffic_step_us_per_tick", "us", per_tick(step_us));
    m.put("sim.states_us_per_tick", "us", per_tick(states_us));
    m.put(
        "sim.occupancy_assign_us_per_tick",
        "us",
        per_tick(assign_us),
    );
    m.put(
        "sim.scene_build_us_per_frame",
        "us",
        ratio(scene_us, scenes_built as f64),
    );
    m.put("sim.vehicles_mean", "count", ratio(vehicles, ticks as f64));

    // Vision: fresh per-camera stages over each camera's captured scenes.
    let node = &config.node;
    let ident = &node.ident;
    let (mut render_us, mut detect_us, mut filter_us, mut sort_us, mut hist_us) =
        (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut frames, mut tracks) = (0u64, 0u64);
    for (slot, scenes) in captured.iter().enumerate() {
        let Some(first) = scenes.first() else {
            continue;
        };
        let seed = config.seed ^ slot as u64;
        let inset = node.coi_inset_frac.clamp(0.0, 0.45);
        let (w, h) = (f64::from(first.width), f64::from(first.height));
        let post = PostProcessor::new(coral_geo::Polygon::rect(
            w * inset,
            h * inset,
            w * (1.0 - inset),
            h * (1.0 - inset),
        ));
        let mut detector = SyntheticSsdDetector::new(node.detector_noise, seed);
        let mut sort = SortTracker::new(ident.sort);
        let mut scratch = HistogramScratch::new();
        for (k, scene) in scenes.iter().enumerate() {
            let t = Instant::now();
            let frame = ident.renderer.render(scene, seed ^ k as u64);
            render_us += us_since(t);
            let t = Instant::now();
            let raw = detector.detect(scene);
            detect_us += us_since(t);
            let t = Instant::now();
            let kept = post.filter(raw);
            filter_us += us_since(t);
            let boxes: Vec<_> = kept.iter().map(|d| d.bbox).collect();
            let t = Instant::now();
            let out = sort.update(&boxes);
            sort_us += us_since(t);
            for st in &out.active {
                let t = Instant::now();
                ColorHistogram::extract_into(&frame, &st.bbox, &ident.histogram, &mut scratch);
                hist_us += us_since(t);
                tracks += 1;
            }
            frames += 1;
        }
    }
    let per_frame = |us: f64| ratio(us, frames as f64);
    m.put("vision.render_us_per_frame", "us", per_frame(render_us));
    m.put("vision.detect_us_per_frame", "us", per_frame(detect_us));
    m.put("vision.postfilter_us_per_frame", "us", per_frame(filter_us));
    m.put("vision.sort_us_per_frame", "us", per_frame(sort_us));
    m.put(
        "vision.histogram_us_per_track",
        "us",
        ratio(hist_us, tracks as f64),
    );
    m.put(
        "vision.frames_per_sim_s",
        "1/s",
        delta.counter("core_cameras_stepped_total") / sim_s,
    );
    m.put(
        "vision.tracks_per_frame",
        "ratio",
        ratio(tracks as f64, frames as f64),
    );
}
