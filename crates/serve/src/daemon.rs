//! The HTTP daemon wrapping a [`Supervisor`].
//!
//! | Route | Meaning | Statuses |
//! |---|---|---|
//! | `POST /jobs` | submit a [`JobSpec`] (JSON body) | 202, 400, 429, 503 |
//! | `GET /jobs/:id` | job status + result | 200, 404 |
//! | `DELETE /jobs/:id` | cancel | 200, 404, 409 |
//! | `GET /healthz` | liveness + readiness + queue stats | 200, 503 |
//! | `GET /metrics` | Prometheus text (telemetry + serve counters) | 200 |
//! | `POST /shutdown` | begin drain-then-stop | 200 |
//!
//! Connections are handled sequentially on the accept thread with short
//! socket timeouts — every request is tiny, and all heavy work happens on
//! the supervisor's worker pool, so head-of-line blocking is bounded by a
//! socket timeout, not by job runtime.

use crate::chaos::FaultPlan;
use crate::config::ServeConfig;
use crate::http::{read_request, write_json, write_response, ParseError, Request};
use crate::job::{JobSpec, ServeError};
use crate::supervisor::{ServeStats, Supervisor};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// A running daemon: supervisor + accept loop on its own thread.
pub struct Daemon {
    supervisor: Arc<Supervisor>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Binds `cfg.addr` (port 0 selects an ephemeral port) and starts
    /// serving.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind or the state directory
    /// fails.
    pub fn start(cfg: ServeConfig) -> Result<Self, ServeError> {
        Self::start_inner(cfg, None)
    }

    /// [`Daemon::start`] with a chaos [`FaultPlan`] installed.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Io`] when the bind or the state directory
    /// fails.
    pub fn start_with_chaos(cfg: ServeConfig, chaos: FaultPlan) -> Result<Self, ServeError> {
        Self::start_inner(cfg, Some(chaos))
    }

    fn start_inner(cfg: ServeConfig, chaos: Option<FaultPlan>) -> Result<Self, ServeError> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let supervisor = Arc::new(Supervisor::start_inner(cfg, chaos)?);
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let supervisor = Arc::clone(&supervisor);
            let stop = Arc::clone(&stop);
            std::thread::Builder::new()
                .name("serve-accept".into())
                .spawn(move || accept_loop(&listener, &supervisor, &stop))
                .map_err(ServeError::Io)?
        };
        Ok(Self {
            supervisor,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the resolved ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Direct access to the supervisor (used by tests and the CLI).
    #[must_use]
    pub fn supervisor(&self) -> &Supervisor {
        &self.supervisor
    }

    /// Whether a stop has been requested (via [`Daemon::request_shutdown`]
    /// or `POST /shutdown`). The CLI polls this to know when to `join`.
    #[must_use]
    pub fn is_stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Initiates drain-then-stop from outside the HTTP surface (the CLI's
    /// signal handler calls this): stop accepting, drain the supervisor,
    /// and unblock the accept thread.
    pub fn request_shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.supervisor.drain();
        // Unblock the (possibly idle) accept loop with a throwaway
        // connection so it observes the stop flag.
        let _ = TcpStream::connect(self.addr);
    }

    /// Waits for the accept thread, then shuts the supervisor down
    /// (running jobs park at their next checkpoint within `timeout`).
    pub fn join(mut self, timeout: Duration) {
        self.request_shutdown();
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        // If another clone of the Arc is still alive (only possible
        // through test misuse) the supervisor's Drop stops the workers.
        if let Ok(supervisor) = Arc::try_unwrap(self.supervisor) {
            supervisor.shutdown(timeout);
        }
    }
}

fn accept_loop(listener: &TcpListener, supervisor: &Supervisor, stop: &AtomicBool) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(SOCKET_TIMEOUT));
        let _ = stream.set_write_timeout(Some(SOCKET_TIMEOUT));
        handle_connection(&mut stream, supervisor, stop);
        if stop.load(Ordering::SeqCst) {
            break;
        }
    }
}

fn handle_connection(stream: &mut TcpStream, supervisor: &Supervisor, stop: &AtomicBool) {
    let request = match read_request(stream) {
        Ok(request) => request,
        Err(ParseError::Io(_)) => return, // timeout/reset: nothing to answer
        Err(e) => {
            let status = if matches!(e, ParseError::TooLarge(_)) {
                413
            } else {
                400
            };
            let _ = write_error(stream, status, &e.to_string());
            return;
        }
    };
    let _ = respond(stream, supervisor, stop, &request);
}

fn respond(
    stream: &mut TcpStream,
    supervisor: &Supervisor,
    stop: &AtomicBool,
    request: &Request,
) -> std::io::Result<()> {
    let path = request.path.as_str();
    match (request.method.as_str(), path) {
        ("POST", "/jobs") => {
            let Ok(text) = std::str::from_utf8(&request.body) else {
                return write_error(stream, 400, "job body must be UTF-8 JSON");
            };
            let spec: JobSpec = match serde_json::from_str(text) {
                Ok(spec) => spec,
                Err(e) => return write_error(stream, 400, &format!("invalid job JSON: {e}")),
            };
            match supervisor.submit(spec) {
                Ok(id) => write_json(stream, 202, &format!("{{\"id\":{id}}}")),
                Err(e) => write_error(stream, status_for(&e), &e.to_string()),
            }
        }
        ("GET", "/healthz") => {
            let stats = supervisor.stats();
            let (status, label) = if stats.draining {
                (503, "draining")
            } else {
                (200, "ok")
            };
            let body = format!(
                "{{\"status\":\"{label}\",\"stats\":{}}}",
                serde_json::to_string(&stats).unwrap_or_else(|_| "{}".into())
            );
            write_json(stream, status, &body)
        }
        ("GET", "/metrics") => {
            let body = metrics_text(&supervisor.stats());
            write_response(stream, 200, "text/plain; version=0.0.4", body.as_bytes())
        }
        ("POST", "/shutdown") => {
            stop.store(true, Ordering::SeqCst);
            supervisor.drain();
            write_json(stream, 200, "{\"status\":\"draining\"}")
        }
        ("GET", _) if path.starts_with("/jobs/") => match parse_id(path) {
            Some(id) => match supervisor.status(id) {
                Some(view) => {
                    let body = serde_json::to_string(&view).unwrap_or_else(|_| "{}".into());
                    write_json(stream, 200, &body)
                }
                None => write_error(stream, 404, &format!("unknown job {id}")),
            },
            None => write_error(stream, 400, "job id must be an integer"),
        },
        ("DELETE", _) if path.starts_with("/jobs/") => match parse_id(path) {
            Some(id) => match supervisor.cancel(id) {
                Ok(state) => write_json(
                    stream,
                    200,
                    &format!(
                        "{{\"id\":{id},\"state\":{}}}",
                        serde_json::to_string(&state).unwrap_or_else(|_| "null".into())
                    ),
                ),
                Err(e) => write_error(stream, status_for(&e), &e.to_string()),
            },
            None => write_error(stream, 400, "job id must be an integer"),
        },
        ("POST" | "DELETE" | "PUT" | "PATCH", "/healthz" | "/metrics")
        | ("GET" | "PUT" | "PATCH", "/jobs" | "/shutdown") => {
            write_error(stream, 405, "method not allowed")
        }
        _ => write_error(stream, 404, "no such route"),
    }
}

fn parse_id(path: &str) -> Option<u64> {
    path.strip_prefix("/jobs/")?.parse().ok()
}

fn status_for(e: &ServeError) -> u16 {
    match e {
        ServeError::Overloaded { .. } => 429,
        ServeError::Draining => 503,
        ServeError::UnknownJob(_) => 404,
        ServeError::AlreadyTerminal { .. } => 409,
        ServeError::InvalidSpec(_) => 400,
        ServeError::Io(_) => 500,
    }
}

/// Answers with `{"error": message}`.
fn write_error(stream: &mut TcpStream, status: u16, message: &str) -> std::io::Result<()> {
    let message = serde_json::to_string(&message).unwrap_or_else(|_| "\"error\"".into());
    write_json(stream, status, &format!("{{\"error\":{message}}}"))
}

/// Prometheus exposition: the telemetry layer's aggregates (empty while
/// telemetry is disabled) followed by the supervisor's always-live
/// mirrored counters.
fn metrics_text(stats: &ServeStats) -> String {
    let mut out = chiron_telemetry::prometheus_text();
    if !out.is_empty() && !out.ends_with('\n') {
        out.push('\n');
    }
    out.push_str("# serve supervisor state (authoritative)\n");
    let rows: [(&str, u64); 11] = [
        ("serve_admitted_total", stats.admitted),
        ("serve_rejected_total", stats.rejected),
        ("serve_retries_total", stats.retries),
        ("serve_resumed_total", stats.resumed),
        ("serve_deadline_evictions_total", stats.deadline_evictions),
        ("serve_completed_total", stats.completed),
        ("serve_failed_total", stats.failed),
        ("serve_cancelled_total", stats.cancelled),
        ("serve_queue_depth", stats.queue_depth as u64),
        ("serve_peak_queue_depth", stats.peak_queue_depth as u64),
        ("serve_inflight", stats.inflight as u64),
    ];
    for (name, value) in rows {
        out.push_str(&format!("{name} {value}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::unique_state_dir;
    use std::io::{Read, Write};

    fn http(addr: SocketAddr, raw: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(raw.as_bytes()).expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let status: u16 = response
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("status code");
        let body = response
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_owned())
            .unwrap_or_default();
        (status, body)
    }

    fn post(addr: SocketAddr, path: &str, body: &str) -> (u16, String) {
        http(
            addr,
            &format!(
                "POST {path} HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            ),
        )
    }

    #[test]
    fn daemon_serves_submit_poll_health_metrics_shutdown() {
        let cfg = ServeConfig {
            workers: 1,
            max_inflight: 1,
            state_dir: unique_state_dir("daemon-http"),
            ..ServeConfig::default()
        };
        let daemon = Daemon::start(cfg).expect("start");
        let addr = daemon.addr();

        let (status, body) = post(
            addr,
            "/jobs",
            "{\"kind\":\"Eval\",\"dataset\":\"tiny\",\"nodes\":3,\"budget\":20.0}",
        );
        assert_eq!(status, 202, "submit accepted: {body}");
        assert!(body.contains("\"id\":1"), "body: {body}");

        let (status, body) = post(addr, "/jobs", "{\"kind\":\"Eval\"");
        assert_eq!(status, 400, "truncated JSON rejected: {body}");

        let state = daemon
            .supervisor()
            .wait(1, Duration::from_secs(60))
            .expect("job known");
        assert!(state.is_terminal(), "job finished: {state:?}");

        let (status, body) = http(addr, "GET /jobs/1 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("Completed"), "body: {body}");
        let (status, _) = http(addr, "GET /jobs/99 HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);
        let (status, _) = http(addr, "GET /nope HTTP/1.1\r\n\r\n");
        assert_eq!(status, 404);

        let (status, body) = http(addr, "GET /healthz HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"ok\""), "body: {body}");

        let (status, body) = http(addr, "GET /metrics HTTP/1.1\r\n\r\n");
        assert_eq!(status, 200);
        assert!(body.contains("serve_admitted_total 1"), "body: {body}");
        assert!(body.contains("serve_completed_total 1"), "body: {body}");

        let (status, body) = post(addr, "/shutdown", "");
        assert_eq!(status, 200);
        assert!(body.contains("draining"), "body: {body}");
        daemon.join(Duration::from_secs(10));
    }
}
