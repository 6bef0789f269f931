//! Live cluster introspection: a tiny `std::net` HTTP endpoint serving
//! snapshots of a running coordinator.
//!
//! The design rule is **snapshots, never the hot path**: the run
//! publishes a [`StatusSnapshot`] into a [`StatusHandle`] at generation
//! boundaries (sync modes) or run transitions (async modes), and the
//! [`StatusServer`] thread answers every poll from the latest published
//! copy. Polling therefore cannot block an exchange, reorder an event,
//! or otherwise perturb the run — the determinism suites stay
//! bit-identical with the endpoint enabled.
//!
//! Routes:
//!
//! - `/metrics` — the same snapshot in Prometheus text exposition
//!   format (0.0.4): progress, the fitness-cache totals, one series per
//!   [`AgentStats`] field labelled `{agent="<slot>"}`, and the cluster's
//!   [`GatherStats`].
//! - `/health` — per-agent link membership (`alive`/`suspected`/`dead`,
//!   failure counts, last error) from the cluster's
//!   [`AgentStats`] rows, as JSON.
//! - `/progress` — run phase, generation or evaluation count, and best
//!   fitness so far, as JSON.
//!
//! The server owns one listener thread; [`StatusServer::shutdown`] (or
//! drop) stops it promptly by flagging the loop and poking the listener
//! with a loopback connection.

use crate::error::ClanError;
use crate::membership::AgentStats;
use crate::runtime::GatherStats;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long one poll may hold the accept thread, request to response.
const REQUEST_BUDGET: Duration = Duration::from_millis(500);

/// What a poll observes: the latest state the run chose to publish.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StatusSnapshot {
    /// Coarse run phase: `starting`, `running`, `finished`, `failed`.
    pub phase: String,
    /// Generations completed (synchronous modes).
    pub generation: Option<u64>,
    /// Evaluations completed (async steady-state modes).
    pub evals: Option<u64>,
    /// Fitness-cache hits summed over the generations so far
    /// (synchronous modes).
    pub cache_hits: Option<u64>,
    /// Fitness-cache lookups summed over the generations so far
    /// (synchronous modes).
    pub cache_lookups: Option<u64>,
    /// Best fitness observed so far.
    pub best_fitness: Option<f64>,
    /// Whether the solve threshold has been reached.
    pub solved: bool,
    /// One row per agent (empty for purely local runs).
    pub agents: Vec<AgentStats>,
    /// The cluster's measured round timing (`None` without a cluster).
    pub gather: Option<GatherStats>,
}

/// Shared slot the run publishes snapshots into and the server reads
/// from. Cheap to clone; all clones see the same slot.
#[derive(Debug, Clone, Default)]
pub struct StatusHandle {
    inner: Arc<Mutex<StatusSnapshot>>,
}

impl StatusHandle {
    /// A fresh handle holding a default (empty, phase `""`) snapshot.
    pub fn new() -> StatusHandle {
        StatusHandle::default()
    }

    /// Replaces the published snapshot wholesale.
    pub fn publish(&self, snapshot: StatusSnapshot) {
        if let Ok(mut slot) = self.inner.lock() {
            *slot = snapshot;
        }
    }

    /// The latest published snapshot (a copy).
    pub fn snapshot(&self) -> StatusSnapshot {
        self.inner.lock().map(|s| s.clone()).unwrap_or_default()
    }
}

/// Minimal JSON string escaping for hand-rolled payloads.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an optional f64 as a JSON value (`null` when absent or not
/// finite — `NaN` is not valid JSON).
fn json_f64(v: Option<f64>) -> String {
    match v {
        Some(x) if x.is_finite() => format!("{x}"),
        _ => "null".into(),
    }
}

/// The `/health` payload for a snapshot.
fn health_json(snap: &StatusSnapshot) -> String {
    let mut agents = String::new();
    for (i, a) in snap.agents.iter().enumerate() {
        if i > 0 {
            agents.push(',');
        }
        let last_error = match &a.last_error {
            Some(e) => format!("\"{}\"", json_escape(e)),
            None => "null".into(),
        };
        agents.push_str(&format!(
            "{{\"agent\":{i},\"health\":\"{}\",\"failures\":{},\"last_error\":{last_error}}}",
            a.health.label(),
            a.failures
        ));
    }
    let live = snap.agents.iter().filter(|a| a.health.is_live()).count();
    format!(
        "{{\"agents\":[{agents}],\"live\":{live},\"total\":{}}}",
        snap.agents.len()
    )
}

/// The `/progress` payload for a snapshot.
fn progress_json(snap: &StatusSnapshot) -> String {
    let opt = |v: Option<u64>| v.map_or("null".into(), |x: u64| x.to_string());
    format!(
        "{{\"phase\":\"{}\",\"generation\":{},\"evals\":{},\"best_fitness\":{},\"solved\":{}}}",
        json_escape(&snap.phase),
        opt(snap.generation),
        opt(snap.evals),
        json_f64(snap.best_fitness),
        snap.solved
    )
}

/// How one `/metrics` series reads its value off a row.
type RowValue = fn(&AgentStats) -> f64;

/// One `/metrics` series per [`AgentStats`] field, sampled per slot.
const ROW_SERIES: [(&str, RowValue); 8] = [
    ("agent_live", |a| f64::from(u8::from(a.health.is_live()))),
    ("agent_failures_total", |a| a.failures as f64),
    ("agent_messages_total", |a| a.messages as f64),
    ("agent_wire_bytes_total", |a| a.wire_bytes as f64),
    ("agent_retrans_bytes_total", |a| a.retrans_bytes as f64),
    ("agent_timer_probes_total", |a| a.timer_probes as f64),
    ("agent_items_total", |a| a.items as f64),
    ("agent_busy_seconds_total", |a| a.busy_s),
];

/// Appends one metric family — its `# TYPE` line (a counter when the
/// name ends in `_total`, else a gauge) and one line per `(labels,
/// value)` sample — or nothing when it has no samples.
fn family(out: &mut String, name: &str, samples: impl IntoIterator<Item = (String, f64)>) {
    let kind = if name.ends_with("_total") {
        "counter"
    } else {
        "gauge"
    };
    for (i, (labels, value)) in samples.into_iter().enumerate() {
        if i == 0 {
            out.push_str(&format!("# TYPE clan_{name} {kind}\n"));
        }
        out.push_str(&format!("clan_{name}{labels} {value}\n"));
    }
}

/// The `/metrics` payload for a snapshot: Prometheus text exposition
/// (0.0.4) of the progress, the cache and gather totals and the rows in
/// slot order.
fn metrics_text(snap: &StatusSnapshot) -> String {
    let gather = snap.gather.as_ref();
    let scalars = [
        ("generation", snap.generation.map(|g| g as f64)),
        ("evals_total", snap.evals.map(|e| e as f64)),
        ("best_fitness", snap.best_fitness.filter(|f| f.is_finite())),
        ("solved", Some(f64::from(u8::from(snap.solved)))),
        ("cache_hits_total", snap.cache_hits.map(|h| h as f64)),
        ("cache_lookups_total", snap.cache_lookups.map(|l| l as f64)),
        ("gather_rounds_total", gather.map(|g| g.gathers as f64)),
        (
            "gather_makespan_seconds_total",
            gather.map(|g| g.makespan_s),
        ),
        ("gather_busy_seconds_total", gather.map(|g| g.busy_s)),
    ];
    let mut out = String::new();
    for (name, value) in scalars {
        family(&mut out, name, value.map(|v| (String::new(), v)));
    }
    for (name, value) in ROW_SERIES {
        let rows = snap.agents.iter().enumerate();
        family(
            &mut out,
            name,
            rows.map(|(i, a)| (format!("{{agent=\"{i}\"}}"), value(a))),
        );
    }
    out
}

/// Answers one connection: parses the request line, routes, responds,
/// closes. Any I/O failure just drops the connection — a flaky poller
/// must never affect the run.
fn answer(stream: &mut TcpStream, handle: &StatusHandle) {
    // One deadline for the whole request, not a timeout per read: a
    // client dripping a byte at a time must not hold the accept thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "bounds a status poll's hold on the accept thread; never reaches evolution"
    )]
    let started = Instant::now();
    let _ = stream.set_write_timeout(Some(REQUEST_BUDGET));
    // Read until the request's blank line: clients may deliver the
    // request line in several small writes, and answering a partial
    // read would close the socket mid-request.
    let mut buf = [0u8; 1024];
    let mut n = 0;
    loop {
        let remaining = REQUEST_BUDGET.saturating_sub(started.elapsed());
        if remaining.is_zero() || stream.set_read_timeout(Some(remaining)).is_err() {
            break; // out of time: answer from whatever arrived
        }
        match stream.read(&mut buf[n..]) {
            Ok(0) => break,
            Ok(m) => {
                n += m;
                if n >= buf.len() || buf[..n].windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    if n == 0 {
        return;
    }
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let snap = handle.snapshot();
    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            metrics_text(&snap),
        ),
        "/health" => ("200 OK", "application/json", health_json(&snap)),
        "/progress" => ("200 OK", "application/json", progress_json(&snap)),
        _ => (
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n".into(),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
}

/// The introspection endpoint: one listener thread serving `/metrics`,
/// `/health`, and `/progress` from a [`StatusHandle`].
#[derive(Debug)]
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`; port 0 picks a free port)
    /// and starts serving the handle's snapshots.
    ///
    /// # Errors
    ///
    /// [`ClanError::InvalidSetup`] when the address cannot be bound.
    pub fn bind(addr: &str, handle: StatusHandle) -> Result<StatusServer, ClanError> {
        let listener = TcpListener::bind(addr).map_err(|e| ClanError::InvalidSetup {
            reason: format!("status endpoint cannot bind {addr}: {e}"),
        })?;
        let local = listener.local_addr().map_err(|e| ClanError::InvalidSetup {
            reason: format!("status endpoint has no local address: {e}"),
        })?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if stop_flag.load(Ordering::SeqCst) {
                    break;
                }
                if let Ok(mut stream) = stream {
                    answer(&mut stream, &handle);
                }
            }
        });
        Ok(StatusServer {
            addr: local,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the listener thread and joins it. Idempotent; also runs on
    /// drop.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Poke the blocking accept so the loop observes the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::LinkHealth;

    fn get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    fn sample_handle() -> StatusHandle {
        let handle = StatusHandle::new();
        handle.publish(StatusSnapshot {
            phase: "running".into(),
            generation: Some(7),
            evals: None,
            cache_hits: Some(48),
            cache_lookups: Some(576),
            best_fitness: Some(123.5),
            solved: false,
            agents: vec![
                AgentStats {
                    messages: 4,
                    wire_bytes: 1200,
                    items: 10,
                    busy_s: 0.25,
                    ..AgentStats::default()
                },
                AgentStats {
                    health: LinkHealth::Suspected,
                    failures: 2,
                    last_error: Some("timed out after 1s \"probe\"".into()),
                    retrans_bytes: 64,
                    timer_probes: 3,
                    ..AgentStats::default()
                },
            ],
            gather: Some(GatherStats {
                gathers: 3,
                makespan_s: 1.5,
                busy_s: 0.25,
            }),
        });
        handle
    }

    #[test]
    fn serves_metrics_health_progress_and_404() {
        let mut server = StatusServer::bind("127.0.0.1:0", sample_handle()).unwrap();
        let addr = server.local_addr();

        let metrics = get(addr, "/metrics");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"), "{metrics}");
        assert!(metrics.contains("text/plain; version=0.0.4"));
        for series in [
            "# TYPE clan_generation gauge\nclan_generation 7\n",
            "clan_best_fitness 123.5\n",
            "clan_solved 0\n",
            "# TYPE clan_cache_hits_total counter\nclan_cache_hits_total 48\n",
            "clan_cache_lookups_total 576\n",
            "# TYPE clan_agent_live gauge\n",
            "clan_agent_live{agent=\"0\"} 1\nclan_agent_live{agent=\"1\"} 1\n",
            "clan_agent_failures_total{agent=\"1\"} 2\n",
            "clan_agent_messages_total{agent=\"0\"} 4\n",
            "clan_agent_wire_bytes_total{agent=\"0\"} 1200\n",
            "clan_agent_retrans_bytes_total{agent=\"1\"} 64\n",
            "clan_agent_timer_probes_total{agent=\"1\"} 3\n",
            "clan_agent_items_total{agent=\"0\"} 10\n",
            "clan_agent_busy_seconds_total{agent=\"0\"} 0.25\n",
            "# TYPE clan_gather_rounds_total counter\nclan_gather_rounds_total 3\n",
            "clan_gather_makespan_seconds_total 1.5\n",
            "clan_gather_busy_seconds_total 0.25\n",
        ] {
            assert!(metrics.contains(series), "missing {series:?} in {metrics}");
        }
        assert!(
            !metrics.contains("clan_evals_total"),
            "sync runs count generations"
        );

        let health = get(addr, "/health");
        assert!(health.contains("application/json"));
        assert!(health.contains("\"health\":\"alive\""));
        assert!(health.contains("\"health\":\"suspected\""));
        assert!(health.contains("\\\"probe\\\""), "escaped quote: {health}");
        assert!(health.contains("\"live\":2,\"total\":2"));

        let progress = get(addr, "/progress");
        assert!(progress.contains("\"phase\":\"running\""));
        assert!(progress.contains("\"generation\":7"));
        assert!(progress.contains("\"evals\":null"));
        assert!(progress.contains("\"best_fitness\":123.5"));
        assert!(progress.contains("\"solved\":false"));

        let missing = get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");

        server.shutdown();
        // Idempotent; a second call must not hang or panic.
        server.shutdown();
    }

    #[test]
    fn snapshot_updates_are_visible_to_later_polls() {
        let handle = StatusHandle::new();
        let server = StatusServer::bind("127.0.0.1:0", handle.clone()).unwrap();
        let addr = server.local_addr();
        assert!(get(addr, "/progress").contains("\"generation\":null"));
        handle.publish(StatusSnapshot {
            phase: "running".into(),
            generation: Some(3),
            ..StatusSnapshot::default()
        });
        assert!(get(addr, "/progress").contains("\"generation\":3"));
    }

    #[test]
    fn slow_drip_client_cannot_starve_a_second_poller() {
        let server = StatusServer::bind("127.0.0.1:0", sample_handle()).unwrap();
        let addr = server.local_addr();
        // A client that never finishes its request line, one byte every
        // 400 ms — each read lands inside the old per-read timeout.
        let (stop_tx, stop_rx) = std::sync::mpsc::channel::<()>();
        let mut drip = TcpStream::connect(addr).unwrap();
        drip.write_all(b"G").unwrap();
        let dripper = std::thread::spawn(move || {
            while stop_rx.recv_timeout(Duration::from_millis(400)).is_err() {
                if drip.write_all(b"E").is_err() {
                    break; // the server hung up on us, as it should
                }
            }
        });
        #[expect(
            clippy::disallowed_methods,
            reason = "the test measures how long a second poller waits"
        )]
        let asked = Instant::now();
        let progress = get(addr, "/progress");
        let waited = asked.elapsed();
        let _ = stop_tx.send(());
        dripper.join().unwrap();
        assert!(progress.contains("\"generation\":7"), "{progress}");
        assert!(
            waited < Duration::from_secs(1),
            "second poller waited {waited:?} behind a slow-drip client"
        );
    }

    #[test]
    fn json_escaping_handles_control_and_quote_characters() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(Some(f64::NAN)), "null");
        assert_eq!(json_f64(None), "null");
        assert_eq!(json_f64(Some(2.5)), "2.5");
    }
}
