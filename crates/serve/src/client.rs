//! A robust client: framing, reconnect, and the retry/backoff policy
//! the protocol prescribes.
//!
//! The client owns the *client half* of the robustness contract:
//!
//! * transport failures (dead socket, torn frame, read timeout) are
//!   retried with **jittered exponential backoff** up to a bounded
//!   attempt budget, reconnecting first;
//! * `status: "rejected"` responses (admission backpressure) are
//!   retried the same way, honoring the server's `retry_after_ms` as a
//!   floor on the backoff delay;
//! * `status: "error"` responses are **never** retried — they are
//!   deterministic verdicts about the request, not about the weather;
//! * sweeps should carry an idempotency `key` so every retry resumes
//!   the server-side checkpoint instead of restarting the sweep.
//!
//! Jitter is seeded ([`RetryPolicy::seed`]) so tests replay identical
//! backoff schedules.

use std::io::{self, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::frame::{read_frame_into, write_frame, FrameError, DEFAULT_MAX_RESPONSE};
use crate::json::Json;
use crate::protocol::Request;

/// Retry/backoff policy for [`Client`].
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Base backoff delay; attempt `n` waits `base · 2ⁿ` before jitter.
    pub base: Duration,
    /// Ceiling on the un-jittered delay.
    pub cap: Duration,
    /// Jitter seed: delays are scaled by a uniform factor in
    /// `[0.5, 1.5)` drawn from this seeded stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 6,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(500),
            seed: 0xB0FF,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (0-based), with
    /// `floor_ms` (the server's `retry_after_ms`, if any) as a lower
    /// bound.
    fn delay(&self, attempt: u32, floor_ms: u64, rng: &mut StdRng) -> Duration {
        let exp = self.base.as_millis() as u64 * (1u64 << attempt.min(16));
        let capped = exp.min(self.cap.as_millis() as u64);
        let jitter: f64 = rng.gen_range(0.5f64..1.5);
        Duration::from_millis(((capped as f64 * jitter) as u64).max(floor_ms))
    }
}

/// Why a request ultimately failed after exhausting retries.
#[derive(Debug)]
pub enum ClientError {
    /// Every attempt failed at the transport layer; the last error.
    Io(io::Error),
    /// Every attempt was rejected by admission control; the last code.
    Rejected(String),
    /// The response frame was not valid protocol JSON.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport failed after retries: {e}"),
            ClientError::Rejected(code) => write!(f, "rejected after retries: {code}"),
            ClientError::BadResponse(m) => write!(f, "malformed response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

/// A connection-caching, retrying protocol client.
pub struct Client {
    addr: SocketAddr,
    policy: RetryPolicy,
    timeout: Duration,
    max_response: usize,
    /// The socket behind its read buffer: a poisoned connection drops
    /// both, so no byte of a torn response outlives it.
    conn: Option<BufReader<TcpStream>>,
    /// The response payload, reused from request to request.
    response: Vec<u8>,
    rng: StdRng,
    /// Transport-level retries performed so far (for reporting).
    pub transport_retries: u64,
    /// Admission rejections absorbed so far (for reporting).
    pub rejections: u64,
}

impl Client {
    /// A client for `addr` with `policy`; connections are opened lazily
    /// and re-opened after any transport failure.
    pub fn new(addr: SocketAddr, policy: RetryPolicy) -> Client {
        let rng = StdRng::seed_from_u64(policy.seed);
        Client {
            addr,
            policy,
            timeout: Duration::from_secs(10),
            max_response: DEFAULT_MAX_RESPONSE,
            conn: None,
            response: Vec::new(),
            rng,
            transport_retries: 0,
            rejections: 0,
        }
    }

    /// Override the per-attempt socket timeout.
    pub fn with_timeout(mut self, timeout: Duration) -> Client {
        self.timeout = timeout;
        self
    }

    fn attempt(&mut self, payload: &[u8]) -> Result<Json, FrameError> {
        if self.conn.is_none() {
            let stream = TcpStream::connect_timeout(&self.addr, self.timeout)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_write_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.conn = Some(BufReader::new(stream));
        }
        let conn = self.conn.as_mut().expect("just connected");
        write_frame(conn.get_mut(), payload, crate::frame::DEFAULT_MAX_FRAME)?;
        read_frame_into(conn, self.max_response, &mut self.response)?;
        Json::parse(&self.response).map_err(|e| {
            FrameError::Io(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("response is not valid JSON: {e}"),
            ))
        })
    }

    /// Send `req`, retrying transport failures and admission rejections
    /// per the policy. `status: "error"` responses are returned as `Ok`
    /// — they are answers, and the caller inspects them.
    ///
    /// # Errors
    ///
    /// Returns [`ClientError`] once the attempt budget is exhausted.
    pub fn request(&mut self, req: &Request) -> Result<Json, ClientError> {
        let payload = req.render();
        let mut last_io: Option<io::Error> = None;
        let mut last_reject: Option<String> = None;
        for attempt in 0..self.policy.max_attempts {
            match self.attempt(&payload) {
                Ok(resp) => match resp.get("status").and_then(Json::as_str) {
                    Some("rejected") => {
                        self.rejections += 1;
                        let code = resp
                            .get("code")
                            .and_then(Json::as_str)
                            .unwrap_or("rejected")
                            .to_string();
                        let floor = resp
                            .get("retry_after_ms")
                            .and_then(Json::as_u64)
                            .unwrap_or(0);
                        // Draining never clears; retrying would only
                        // stretch the drain window.
                        if code == "draining" {
                            return Err(ClientError::Rejected(code));
                        }
                        last_reject = Some(code);
                        let delay = self.policy.delay(attempt, floor, &mut self.rng);
                        std::thread::sleep(delay);
                    }
                    Some(_) => return Ok(resp),
                    None => {
                        return Err(ClientError::BadResponse(
                            "response has no `status` field".to_string(),
                        ))
                    }
                },
                Err(e) => {
                    // Any transport failure poisons the connection:
                    // reconnect on the next attempt.
                    self.conn = None;
                    self.transport_retries += 1;
                    last_io = Some(match e {
                        FrameError::Io(e) => e,
                        other => io::Error::other(other.to_string()),
                    });
                    let delay = self.policy.delay(attempt, 0, &mut self.rng);
                    std::thread::sleep(delay);
                }
            }
        }
        match (last_reject, last_io) {
            (Some(code), _) => Err(ClientError::Rejected(code)),
            (None, Some(e)) => Err(ClientError::Io(e)),
            (None, None) => Err(ClientError::Rejected("exhausted".to_string())),
        }
    }

    /// `request` that additionally treats a `status: "error"` response
    /// as a hard failure — for callers that expect success.
    ///
    /// # Errors
    ///
    /// As [`Client::request`], plus [`ClientError::BadResponse`] on an
    /// error-status reply.
    pub fn request_ok(&mut self, req: &Request) -> Result<Json, ClientError> {
        let resp = self.request(req)?;
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => Ok(resp),
            _ => Err(ClientError::BadResponse(format!(
                "expected ok, got: {}",
                resp.render()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_caps_and_honors_floor() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base: Duration::from_millis(8),
            cap: Duration::from_millis(100),
            seed: 1,
        };
        let mut rng = StdRng::seed_from_u64(policy.seed);
        let mut prev_max = 0u128;
        for attempt in 0..8 {
            let d = policy.delay(attempt, 0, &mut rng).as_millis();
            // Jitter in [0.5, 1.5): the delay stays within those bounds
            // of the capped exponential.
            let exp = (8u128 << attempt).min(100);
            assert!(d >= exp / 2, "attempt {attempt}: {d} < {}", exp / 2);
            assert!(d < exp * 3 / 2 + 1, "attempt {attempt}: {d}");
            prev_max = prev_max.max(d);
        }
        assert!(prev_max <= 150);
        // The server's retry_after_ms is a floor.
        let d = policy.delay(0, 400, &mut rng);
        assert!(d >= Duration::from_millis(400));
    }

    #[test]
    fn a_poisoned_connection_takes_its_read_buffer_with_it() {
        use std::io::Write;
        use std::net::TcpListener;

        use crate::frame::{read_frame, DEFAULT_MAX_FRAME};
        use crate::protocol::Op;

        // A server whose first connection answers with a frame that is
        // not JSON and, in the same write, a well-formed stale frame; its
        // second connection answers properly.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for answer in [
                &[&b"not json"[..], br#"{"status":"ok","from":"stale"}"#][..],
                &[&br#"{"status":"ok","from":"fresh"}"#[..]][..],
            ] {
                let (mut conn, _) = listener.accept().unwrap();
                read_frame(&mut conn, DEFAULT_MAX_FRAME).unwrap();
                let mut wire = Vec::new();
                for payload in answer {
                    write_frame(&mut wire, payload, DEFAULT_MAX_FRAME).unwrap();
                }
                conn.write_all(&wire).unwrap();
                // Hold the socket until the client is done with it.
                let _ = read_frame(&mut conn, DEFAULT_MAX_FRAME);
            }
        });
        let policy = RetryPolicy {
            base: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let mut client = Client::new(addr, policy);
        let resp = client.request(&Request::new(Op::Health)).unwrap();
        assert_eq!(resp.get("from").and_then(Json::as_str), Some("fresh"));
        assert_eq!(client.transport_retries, 1);
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn jitter_is_seeded_and_replayable() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(policy.seed);
        let mut b = StdRng::seed_from_u64(policy.seed);
        for attempt in 0..6 {
            assert_eq!(
                policy.delay(attempt, 0, &mut a),
                policy.delay(attempt, 0, &mut b)
            );
        }
    }
}
