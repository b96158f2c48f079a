//! Zero-dependency live metrics endpoint: a blocking
//! `std::net::TcpListener` accept loop on one background thread,
//! serving the strict Prometheus text render at `GET /metrics`, a
//! liveness document at `GET /healthz`, and a JSON snapshot of recent
//! spans at `GET /tracez`. No HTTP library — requests are parsed just
//! enough to route (method + path of the first line), responses are
//! `Connection: close` with an explicit `Content-Length`.

use crate::Telemetry;
use serde_json::Value;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum spans returned by `/tracez` (most recent first retained).
const TRACEZ_LIMIT: usize = 512;

/// Maximum request bytes read before giving up on a connection.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// How long a connection may hold the accept loop, counted from accept:
/// the request head must be in and the response written by then.
const IO_TIMEOUT: Duration = Duration::from_secs(2);

/// A running metrics endpoint. Stops (and joins its thread) on drop.
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"`; port 0 picks a free one —
    /// see [`MetricsServer::addr`]) and starts serving the given
    /// telemetry handle on a background thread.
    pub fn start(addr: impl ToSocketAddrs, telemetry: &Telemetry) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread_shutdown = Arc::clone(&shutdown);
        let tel = telemetry.clone();
        let handle = std::thread::Builder::new()
            .name("evm-metrics".to_string())
            .spawn(move || accept_loop(&listener, &tel, &thread_shutdown))?;
        Ok(MetricsServer {
            addr,
            shutdown,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    fn shutdown_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.shutdown.store(true, Ordering::SeqCst);
        // `accept` blocks until the next connection: poke the listener
        // so the loop observes the flag immediately.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown_and_join();
    }
}

fn accept_loop(listener: &TcpListener, tel: &Telemetry, shutdown: &AtomicBool) {
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Serve inline: scrapes are short and sequential handling keeps
        // the server to exactly one thread.
        let _ = serve_connection(stream, tel);
    }
}

fn serve_connection(mut stream: TcpStream, tel: &Telemetry) -> io::Result<()> {
    let deadline = Instant::now() + IO_TIMEOUT;
    let request_line = match read_request_line(&mut stream, deadline) {
        Some(line) => line,
        None => return Ok(()),
    };
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);
    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n".to_string(),
        )
    } else {
        match path {
            "/metrics" => {
                tel.sync_derived_metrics();
                (
                    "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8",
                    tel.registry().prometheus_text(),
                )
            }
            "/healthz" => ("200 OK", "application/json", healthz_body(tel)),
            "/tracez" => ("200 OK", "application/json", tracez_body(tel)),
            _ => (
                "404 Not Found",
                "text/plain; charset=utf-8",
                "not found (try /metrics, /healthz, /tracez)\n".to_string(),
            ),
        }
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    write_by(&mut stream, response.as_bytes(), deadline)
}

/// Writes `bytes` unless `deadline` passes first: each write may block
/// only for the time left, so a client that reads slowly holds the
/// one-thread accept loop no longer than one that sends slowly.
fn write_by(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> io::Result<()> {
    while !bytes.is_empty() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        stream.set_write_timeout(Some(left))?;
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads up to the end of the request head and returns its first line.
/// Returns `None` when the head is not in by `deadline` (so a client
/// trickling bytes holds the one-thread accept loop no longer than a
/// silent one), on oversized requests, or on non-UTF-8 bytes.
fn read_request_line(stream: &mut TcpStream, deadline: Instant) -> Option<String> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return None;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
                    break;
                }
            }
            Err(_) => return None,
        }
    }
    let head = String::from_utf8(buf).ok()?;
    head.lines().next().map(str::to_string)
}

fn healthz_body(tel: &Telemetry) -> String {
    let flight = tel.flight();
    Value::Obj(vec![
        ("status".to_string(), Value::Str("ok".to_string())),
        ("level".to_string(), Value::Str(tel.level().to_string())),
        (
            "uptime_us".to_string(),
            Value::Int(i128::from(tel.tracer().now_us())),
        ),
        (
            "trace_events".to_string(),
            Value::Int(tel.tracer().len() as i128),
        ),
        (
            "trace_dropped".to_string(),
            Value::Int(i128::from(tel.tracer().dropped())),
        ),
        ("flight_enabled".to_string(), Value::Bool(flight.enabled())),
        (
            "flight_recorded".to_string(),
            Value::Int(i128::from(flight.recorded())),
        ),
    ])
    .to_json()
}

fn tracez_body(tel: &Telemetry) -> String {
    let events = tel.tracer().recent(TRACEZ_LIMIT);
    Value::Obj(vec![
        (
            "retained".to_string(),
            Value::Int(tel.tracer().len() as i128),
        ),
        (
            "dropped".to_string(),
            Value::Int(i128::from(tel.tracer().dropped())),
        ),
        ("returned".to_string(), Value::Int(events.len() as i128)),
        (
            "spans".to_string(),
            Value::Arr(events.iter().map(|e| e.to_tracez_value()).collect()),
        ),
    ])
    .to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TelemetryLevel;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_metrics_healthz_and_tracez() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        tel.registry().counter("evm_test_requests").add(7);
        tel.span("pipeline", "pipeline").arg("k", Value::Int(1));
        let server = MetricsServer::start("127.0.0.1:0", &tel).unwrap();
        let addr = server.addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let parsed = crate::prometheus::parse_exposition(&body).unwrap();
        assert_eq!(parsed.value("evm_test_requests"), Some(7.0));

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let health: Value = serde_json::from_str(&body).unwrap();
        assert_eq!(health.get("status"), Some(&Value::Str("ok".to_string())));

        let (head, body) = get(addr, "/tracez");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let tracez: Value = serde_json::from_str(&body).unwrap();
        let spans = tracez.get("spans").and_then(Value::as_arr).unwrap();
        assert_eq!(spans.len(), 1);

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        drop(server);
    }

    /// A client that sends its head one byte at a time holds the accept
    /// loop for `IO_TIMEOUT` after accept at most: a second client is
    /// answered after that, and a drop during another trickle returns
    /// within it.
    #[test]
    fn a_trickling_client_is_cut_off_at_the_deadline() {
        /// Connects and sends a byte every 100 ms, for up to 8 s.
        fn trickle(addr: SocketAddr) -> std::thread::JoinHandle<()> {
            let mut stream = TcpStream::connect(addr).unwrap();
            std::thread::spawn(move || {
                for _ in 0..80 {
                    if stream.write_all(b"G").is_err() {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(100));
                }
            })
        }
        let slack = Duration::from_secs(1);
        let tel = Telemetry::off();
        let server = MetricsServer::start("127.0.0.1:0", &tel).unwrap();
        let addr = server.addr();

        let start = Instant::now();
        let first = trickle(addr);
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(2 * IO_TIMEOUT)).unwrap();
        write!(client, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        let read = client.read_to_string(&mut response);
        assert!(read.is_ok(), "{read:?} after {:?}", start.elapsed());
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        assert!(
            start.elapsed() < IO_TIMEOUT + slack,
            "{:?}",
            start.elapsed()
        );

        // Give the loop time to take the second trickler. Should the drop
        // win that race, the loop stops at the accept instead, inside the
        // same bound.
        let second = trickle(addr);
        std::thread::sleep(Duration::from_millis(200));
        let stop = Instant::now();
        drop(server);
        assert!(stop.elapsed() < IO_TIMEOUT + slack, "{:?}", stop.elapsed());
        first.join().unwrap();
        second.join().unwrap();
    }

    /// A client that reads its response slowly holds the accept loop for
    /// `IO_TIMEOUT` after accept at most, as a trickling request does: a
    /// second client is answered after that.
    #[test]
    fn a_slow_reader_is_cut_off_at_the_deadline() {
        let tel = Telemetry::new(TelemetryLevel::Full);
        // A `/tracez` response far larger than loopback's socket buffers.
        let pad = Value::Str("x".repeat(16 << 20));
        tel.span("bulk", "test").arg("pad", pad);
        let server = MetricsServer::start("127.0.0.1:0", &tel).unwrap();
        let addr = server.addr();

        let start = Instant::now();
        let mut slow = TcpStream::connect(addr).unwrap();
        write!(slow, "GET /tracez HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let done = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&done);
        // 16 KiB every 50 ms: always some progress, for up to 8 s.
        let reader = std::thread::spawn(move || {
            let mut chunk = vec![0u8; 16 << 10];
            for _ in 0..160 {
                if stop.load(Ordering::SeqCst) || matches!(slow.read(&mut chunk), Ok(0) | Err(_)) {
                    return;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        let mut client = TcpStream::connect(addr).unwrap();
        client.set_read_timeout(Some(4 * IO_TIMEOUT)).unwrap();
        write!(client, "GET /healthz HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        let read = client.read_to_string(&mut response);
        let elapsed = start.elapsed();
        done.store(true, Ordering::SeqCst);
        reader.join().unwrap();
        assert!(read.is_ok(), "{read:?} after {elapsed:?}");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        let slack = Duration::from_secs(1);
        assert!(elapsed < IO_TIMEOUT + slack, "{elapsed:?}");
    }

    #[test]
    fn stop_joins_cleanly_and_frees_the_port() {
        let tel = Telemetry::off();
        let server = MetricsServer::start("127.0.0.1:0", &tel).unwrap();
        let addr = server.addr();
        drop(server);
        // The port is released: rebinding succeeds.
        let rebound = TcpListener::bind(addr);
        assert!(rebound.is_ok());
    }
}
