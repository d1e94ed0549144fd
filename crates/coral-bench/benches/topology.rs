//! Criterion benchmarks for topology management (Figs. 11 / 12 machinery):
//! MDCS search cost vs deployment density, the join storm of a fresh
//! deployment, and the server-side cost of one camera failure (the
//! footprint-selected recompute + diff). Servers are built once and cloned
//! per batch.

use coral_geo::{generators, GeoPoint, RoadNetwork};
use coral_topology::{
    mdcs_table, CameraId, CameraTopology, MdcsOptions, ServerConfig, TopologyServer,
};
use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

fn campus_with(n: usize) -> CameraTopology {
    let (net, sites) = generators::campus();
    let mut topo = CameraTopology::new(net);
    for (i, &s) in sites.iter().take(n).enumerate() {
        topo.place_at_intersection(CameraId(i as u32), s, 0.0)
            .expect("site free");
    }
    topo
}

/// A camera at every intersection of `net`, camera `i` at vertex `i`.
fn every_vertex(net: &RoadNetwork) -> Vec<GeoPoint> {
    net.intersections().map(|v| v.position).collect()
}

/// Joins a camera at each of `positions`, in id order.
fn join_all(server: &mut TopologyServer, positions: &[GeoPoint]) {
    for (i, &p) in positions.iter().enumerate() {
        server
            .handle_heartbeat(CameraId(i as u32), p, 0.0, 0)
            .expect("join");
    }
}

fn joined(net: RoadNetwork, positions: &[GeoPoint]) -> TopologyServer {
    let mut server = TopologyServer::new(net, ServerConfig::default());
    join_all(&mut server, positions);
    server
}

fn bench_mdcs(c: &mut Criterion) {
    let mut group = c.benchmark_group("mdcs_table_dfs");
    for n in [5usize, 15, 37] {
        let topo = campus_with(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &topo, |b, topo| {
            b.iter(|| mdcs_table(topo, CameraId(0), MdcsOptions::default()));
        });
    }
    group.finish();
}

fn bench_join_storm(c: &mut Criterion) {
    // A fresh 100-camera deployment registering one camera at a time.
    let net = generators::grid(10, 10, 120.0, 12.0);
    let positions = every_vertex(&net);
    let empty = TopologyServer::new(net, ServerConfig::default());
    c.bench_function("server_join_storm_grid10x10", |b| {
        b.iter_batched(
            || empty.clone(),
            |mut server| join_all(&mut server, &positions),
            BatchSize::LargeInput,
        );
    });
}

fn bench_failure_recompute(c: &mut Criterion) {
    // The server-side work triggered by one camera failure: remove +
    // recompute the tables it can change + diff (the Fig. 11 healing path).
    let (net, sites) = generators::campus();
    let positions: Vec<GeoPoint> = sites
        .iter()
        .map(|&s| net.intersection(s).expect("site exists").position)
        .collect();
    let campus = joined(net, &positions);
    c.bench_function("server_failure_recompute_37cams", |b| {
        b.iter_batched(
            || campus.clone(),
            |mut server| server.remove_camera(CameraId(17)).expect("registered"),
            BatchSize::LargeInput,
        );
    });
    let net = generators::grid(25, 40, 120.0, 12.0);
    let positions = every_vertex(&net);
    let grid = joined(net, &positions);
    c.bench_function("server_failure_recompute_grid25x40", |b| {
        b.iter_batched(
            || grid.clone(),
            |mut server| server.remove_camera(CameraId(517)).expect("registered"),
            BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    benches,
    bench_mdcs,
    bench_join_storm,
    bench_failure_recompute
);
criterion_main!(benches);
