//! **§3 motivation** — backhaul bandwidth: streaming cameras to the cloud
//! vs Coral-Pie's edge architecture.
//!
//! "Typical IP camera bandwidth requirement is between 2–24 Mbps ... the
//! back-haul network bandwidth needed to stream the video from a dense
//! deployment ... is infeasible" (§3). Coral-Pie ships only small JSON
//! events between neighbouring cameras and tiny heartbeats to the cloud.
//! This experiment measures both sides on the same workload.

use coral_bench::report::f2s;
use coral_bench::{corridor_specs, ExperimentLog};
use coral_core::{CoralPieSystem, NodeConfig, SystemConfig};
use coral_geo::IntersectionId;
use coral_sim::{PoissonArrivals, SimTime};
use coral_vision::DetectorNoise;

fn main() {
    let (net, specs) = corridor_specs(5);
    let n_cameras = specs.len() as f64;
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let frame_period_s = config.frame_period.as_secs_f64();
    let (w, h) = (config.image_width as f64, config.image_height as f64);
    let mut sys = CoralPieSystem::new(net, &specs, config);
    sys.set_arrivals(PoissonArrivals::new(
        0.25,
        vec![IntersectionId(0), IntersectionId(4)],
        4,
        7,
    ));
    const HORIZON_S: f64 = 180.0;
    sys.run_until(SimTime::from_secs(HORIZON_S as u64));
    sys.finish();
    let obs = sys.observability();
    let heartbeat_bytes = obs
        .registry()
        .counter_value("runtime_cloud_bytes_total", &[])
        .unwrap_or(0);

    // Hypothetical cloud-streaming architecture: every camera ships every
    // raw frame over the backhaul WAN.
    let raw_frame_bytes = w * h * 3.0;
    let cloud_streaming_mbps = n_cameras * raw_frame_bytes * 8.0 / frame_period_s / 1_000_000.0;
    // The paper quotes real 1280x1024 cameras at 2-32 Mbps; scale our
    // synthetic frame size up to theirs for the headline comparison.
    let full_res_scale = (1280.0 * 1024.0) / (w * h);
    let cloud_full_res_mbps = cloud_streaming_mbps * full_res_scale;

    // Coral-Pie's actual WAN + horizontal traffic over the same horizon:
    // camera-to-camera informs and confirms, and heartbeats plus topology
    // updates over the backhaul.
    let horizontal_bytes = obs.delivered_bytes("inform") + obs.delivered_bytes("confirm");
    let cloud_bytes = heartbeat_bytes + obs.delivered_bytes("topology_update");
    let horizontal_mbps = horizontal_bytes as f64 * 8.0 / HORIZON_S / 1_000_000.0;
    let cloud_mbps = cloud_bytes as f64 * 8.0 / HORIZON_S / 1_000_000.0;

    let mut log = ExperimentLog::new(
        "bandwidth",
        &["architecture", "wan_mbps", "horizontal_mbps"],
    );
    log.row(&[
        "cloud streaming (synthetic frames)".into(),
        f2s(cloud_streaming_mbps),
        "0.00".into(),
    ]);
    log.row(&[
        "cloud streaming (paper 1280x1024)".into(),
        f2s(cloud_full_res_mbps),
        "0.00".into(),
    ]);
    log.row(&[
        "coral-pie (measured)".into(),
        f2s(cloud_mbps),
        f2s(horizontal_mbps),
    ]);
    log.finish();

    println!(
        "\n5-camera deployment over {HORIZON_S} s: cloud streaming would need \
         {:.1} Mbps of backhaul ({:.0} Mbps at the paper's resolution);",
        cloud_streaming_mbps, cloud_full_res_mbps
    );
    println!(
        "coral-pie used {:.4} Mbps of WAN (heartbeats + topology updates) and \
         {:.4} Mbps of local horizontal traffic ({} informs, {} confirms).",
        cloud_mbps,
        horizontal_mbps,
        obs.delivered("inform"),
        obs.delivered("confirm")
    );
    let reduction = cloud_streaming_mbps / cloud_mbps.max(1e-9);
    println!(
        "backhaul reduction: {:.0}x (before scaling to full resolution)",
        reduction
    );
    assert!(
        cloud_mbps < cloud_streaming_mbps / 100.0,
        "the edge architecture must slash backhaul bandwidth"
    );
}
