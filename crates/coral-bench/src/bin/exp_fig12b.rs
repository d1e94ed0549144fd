//! **Figure 12(b)** — Redundant candidate-pool entries at Camera 5 as the
//! camera density decreases.
//!
//! "To see the effect of decreasing the density of cameras in a real-world
//! deployment, we successively deactivate Cameras 4, 3, 2 in the campus
//! camera network. As a consequence, the percentage of redundant entries in
//! Camera 5['s] candidate pool increases from 0% to 60%" (§5.5). With
//! intermediate cameras removed, an upstream camera's MDCS reaches Camera 5
//! across many branches, so vehicles that divert onto side streets leave
//! spurious entries behind.

use coral_bench::report::pct;
use coral_bench::{campus_row, ExperimentLog};
use coral_core::{CoralPieSystem, NodeConfig, SystemConfig};
use coral_sim::SimTime;
use coral_topology::CameraId;
use coral_vision::DetectorNoise;

/// Runs the row deployment with the given active camera sites (site k
/// hosts "Camera k+1" in the paper's naming) and returns Camera 5's
/// spurious fraction and received count.
fn run(active_sites: &[u32]) -> (f64, u64) {
    let (net, specs) = campus_row(active_sites);
    let config = SystemConfig {
        node: NodeConfig {
            detector_noise: DetectorNoise::perfect(),
            ..NodeConfig::default()
        },
        ..SystemConfig::default()
    };
    let mut sys = CoralPieSystem::new(net, &specs, config);
    // Mostly main-street traffic with a diverting minority: with all five
    // cameras active the hop-by-hop informs almost all get matched; with
    // cameras removed, informs skip ahead to Camera 5 on behalf of vehicles
    // that divert before reaching it.
    coral_bench::deploy::spawn_row_traffic(&mut sys, 40, 3, 4, 0.6, 2024);
    sys.run_until(SimTime::from_secs(250));
    sys.finish();
    let (redundant, received) = coral_eval::inform_redundancy(&sys)
        .get(&CameraId(4))
        .copied()
        .unwrap_or((0, 0));
    let frac = if received == 0 {
        0.0
    } else {
        redundant as f64 / received as f64
    };
    (frac, received)
}

fn main() {
    // Paper x-axis: number of active cameras 5 -> 4 -> 3 -> 2
    // (deactivating Cameras 4, 3, 2 in that order).
    let configs: [(&str, &[u32]); 4] = [
        ("5", &[0, 1, 2, 3, 4]),
        ("4", &[0, 1, 2, 4]),
        ("3", &[0, 1, 4]),
        ("2", &[0, 4]),
    ];
    let mut log = ExperimentLog::new(
        "fig12b_density",
        &["active_cameras", "cam5_spurious", "cam5_received"],
    );
    let mut series = Vec::new();
    for (label, sites) in configs {
        let (frac, recv) = run(sites);
        series.push(frac);
        log.row(&[label.to_string(), pct(frac), recv.to_string()]);
    }
    log.finish();

    println!(
        "\nCamera 5 spurious entries grow from {} (5 cams) to {} (2 cams) — paper: 0% -> 60%",
        pct(series[0]),
        pct(series[3])
    );
    assert!(
        series[3] > series[0],
        "decreasing density must increase pool pollution"
    );
}
