//! The live ops endpoint: a dependency-free `std::net` HTTP server for
//! threaded/TCP deployments.
//!
//! Serves three read-only routes off the shared observability handles:
//!
//! | route | body |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition of the [`Registry`] |
//! | `GET /healthz` | JSON [`crate::health::HealthReport`] (HTTP 503 when CRITICAL) |
//! | `GET /journal?last=N` | last N flight-recorder events as JSONL |
//!
//! The server is deliberately tiny: one accept thread, blocking
//! per-connection handling (requests are single-line GETs from a scraper
//! or a human's `curl`), no keep-alive. It is **off in DES runs by
//! default** — the simulator never needs a socket, and determinism is
//! easier to reason about when the sim binary opens none.

use crate::health::HealthEngine;
use crate::journal::Journal;
use crate::registry::Registry;
use crate::Verdict;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// The shared handles the endpoint serves from.
#[derive(Clone)]
pub struct OpsState {
    /// Metrics registry backing `/metrics` and health evaluation.
    pub registry: Registry,
    /// Flight recorder backing `/journal` and health-report context.
    pub journal: Journal,
    /// Health engine backing `/healthz` (evaluated on each request).
    pub health: Arc<Mutex<HealthEngine>>,
    /// The deployment's notion of "now" in milliseconds (sim clock for
    /// in-process deployments, wall clock for TCP ones).
    pub clock_ms: Arc<dyn Fn() -> u64 + Send + Sync>,
}

impl std::fmt::Debug for OpsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpsState").finish_non_exhaustive()
    }
}

/// A running ops endpoint; dropping it shuts the listener down.
#[derive(Debug)]
pub struct OpsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl OpsServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// accept thread.
    pub fn spawn(addr: impl ToSocketAddrs, state: OpsState) -> std::io::Result<OpsServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_thread = stop.clone();
        let handle = std::thread::Builder::new()
            .name("coral-ops".to_string())
            .spawn(move || accept_loop(listener, state, stop_thread))?;
        Ok(OpsServer {
            local_addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops the accept thread and joins it.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for OpsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

fn accept_loop(listener: TcpListener, state: OpsState, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: requests are tiny and rare.
                let _ = handle_connection(stream, &state);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_connection(mut stream: TcpStream, state: &OpsState) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    let request_line = read_request_line(&mut stream)?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let target = parts.next().unwrap_or("");
    if method != "GET" {
        return respond(
            &mut stream,
            405,
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    match path {
        "/metrics" => {
            let body = state.registry.render_prometheus();
            respond(
                &mut stream,
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => {
            let now_ms = (state.clock_ms)();
            let (status, body) = {
                let mut health = state.health.lock().expect("health engine poisoned");
                let overall = health.evaluate(&state.registry, Some(&state.journal), now_ms);
                let status = if overall == Verdict::Critical {
                    503
                } else {
                    200
                };
                let report = health.latest().expect("health was just evaluated");
                (status, report.to_json())
            };
            respond(&mut stream, status, "application/json", &body)
        }
        "/journal" => {
            let last = query
                .and_then(|q| {
                    q.split('&')
                        .find_map(|kv| kv.strip_prefix("last="))
                        .and_then(|v| v.parse::<usize>().ok())
                })
                .unwrap_or(100);
            let mut body = String::new();
            for ev in state.journal.recent(last) {
                body.push_str(&ev.to_json_line(true));
                body.push('\n');
            }
            respond(&mut stream, 200, "application/x-ndjson", &body)
        }
        _ => respond(&mut stream, 404, "text/plain; charset=utf-8", "not found\n"),
    }
}

/// Reads up to the end of the request head, returning the request line.
fn read_request_line(stream: &mut TcpStream) -> std::io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8_192 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    Ok(head.lines().next().unwrap_or("").to_string())
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        503 => "Service Unavailable",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::health::{Rule, RuleInput, Thresholds};
    use crate::journal::{JournalKind, Severity};

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {target} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut raw = String::new();
        stream.read_to_string(&mut raw).unwrap();
        let status: u16 = raw
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap();
        let body = raw
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn test_state() -> OpsState {
        let registry = Registry::new();
        let journal = Journal::new();
        let rules = vec![Rule::new(
            "heartbeat-staleness",
            "last_seen_ms",
            Some("camera"),
            RuleInput::GaugeStalenessMs,
            Thresholds::new(2_000.0, 4_000.0),
        )];
        OpsState {
            registry,
            journal,
            health: Arc::new(Mutex::new(HealthEngine::new(rules))),
            clock_ms: Arc::new(|| 10_000),
        }
    }

    #[test]
    fn serves_metrics_healthz_and_journal() {
        let state = test_state();
        state
            .registry
            .counter("frames_total", &[("camera", "0")])
            .add(3);
        state
            .registry
            .gauge("last_seen_ms", &[("camera", "0")])
            .set(9_500);
        state.journal.record(
            JournalKind::NodeKill,
            Severity::Error,
            1_000,
            "cam1",
            "scheduled",
        );
        let server = OpsServer::spawn("127.0.0.1:0", state).unwrap();
        let addr = server.local_addr();

        let (status, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(body.contains("frames_total{camera=\"0\"} 3"), "{body}");

        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        let doc = crate::json::parse(&body).unwrap();
        assert_eq!(doc.get("overall").unwrap().as_str(), Some("ok"));

        let (status, body) = get(addr, "/journal?last=5");
        assert_eq!(status, 200);
        assert!(body.contains("\"kind\": \"node_kill\""), "{body}");
        assert!(
            body.contains("\"wall_us\""),
            "live journal includes wall clock"
        );

        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);
        server.shutdown();
    }

    #[test]
    fn healthz_returns_503_when_critical() {
        let state = test_state();
        // A camera whose heartbeat gauge is 10 s stale at clock 10 s.
        state
            .registry
            .gauge("last_seen_ms", &[("camera", "3")])
            .set(0);
        let server = OpsServer::spawn("127.0.0.1:0", state).unwrap();
        let (status, body) = get(server.local_addr(), "/healthz");
        assert_eq!(status, 503);
        assert!(body.contains("\"overall\": \"critical\""), "{body}");
    }
}
