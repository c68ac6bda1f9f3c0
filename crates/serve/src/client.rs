//! The typed client: a persistent connection with timeouts, typed
//! responses per request kind, and `overloaded`-aware retries.
//!
//! ```
//! use unet_serve::{Server, ServeConfig};
//! use unet_serve::client::Client;
//! use unet_serve::protocol::SimulateReq;
//!
//! let server = Server::start(ServeConfig::default()).expect("bind");
//! let mut client = Client::connect(&server.addr().to_string())
//!     .expect("connect")
//!     .timeout(std::time::Duration::from_secs(30))
//!     .retries(2);
//! let spec = SimulateReq {
//!     guest: "ring:12".into(), host: "torus:2x2".into(),
//!     steps: 2, seed: 7, deadline_ms: None, id: None,
//! };
//! let one = client.simulate(&spec).expect("simulate");
//! assert!(one.verified && one.slowdown >= 1.0);
//! let again = client.simulate(&spec).expect("simulate");
//! assert!(again.shared_cache_hit);
//! drop(client);
//! server.drain();
//! ```

use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use crate::protocol::{
    gen_trace_id, metrics_request_line, parse_response, simulate_request_line, Response,
    SimulateReq,
};
use unet_obs::json::Value;

/// A typed `error` response from the server.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerError {
    /// Machine-readable failure code (`bad-spec`, `deadline-exceeded`, …).
    pub code: String,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for ServerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection could not be established or the round trip died.
    Io(std::io::Error),
    /// The server answered with something the protocol module rejects.
    Protocol(String),
    /// The server answered with a typed `error` response.
    Server(ServerError),
    /// Every retry hit a full admission queue.
    Overloaded {
        /// The server's configured queue bound.
        queue_cap: u64,
        /// The server's last wait hint.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Server(e) => write!(f, "server: {e}"),
            ClientError::Overloaded { queue_cap, .. } => {
                write!(f, "overloaded: admission queue full (cap {queue_cap})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// The typed payload of one successful `simulate`.
#[derive(Debug, Clone)]
pub struct SimulateResult {
    /// Measured slowdown (host steps per guest step).
    pub slowdown: f64,
    /// Inefficiency `k = s·m/n`.
    pub inefficiency: f64,
    /// Total host steps of the certified protocol.
    pub host_steps: u64,
    /// Communication-phase host steps.
    pub comm_steps: u64,
    /// Compute-phase host steps.
    pub compute_steps: u64,
    /// The run reused a route plan from the shared cache.
    pub shared_cache_hit: bool,
    /// The run was certified (always true in a `result`).
    pub verified: bool,
    /// Server-side wall time in milliseconds.
    pub wall_ms: f64,
    /// The trace id this request ran under (client-assigned, echoed by
    /// the server in the payload).
    pub trace_id: Option<String>,
    /// Server-reported stage breakdown (`queue_wait`, `simulate`, …) in
    /// milliseconds, in the server's span order.
    pub stages: Vec<(String, f64)>,
    /// Client-measured end-to-end latency of the round trip that carried
    /// this result, in milliseconds. Includes queueing, the wire, and
    /// parsing — what a caller would see timing the call itself.
    pub e2e_ms: f64,
    /// The client's own share of [`e2e_ms`](SimulateResult::e2e_ms).
    pub client: ClientSpans,
    /// The full payload object, for fields this struct does not name.
    pub raw: Value,
}

impl SimulateResult {
    fn from_value(v: Value) -> Result<SimulateResult, ClientError> {
        let f = |name: &str| v.get(name).and_then(Value::as_f64);
        let u = |name: &str| v.get(name).and_then(Value::as_u64);
        let stages = match v.get("stages") {
            Some(Value::Obj(fields)) => fields
                .iter()
                .filter_map(|(stage, ms)| ms.as_f64().map(|ms| (stage.clone(), ms)))
                .collect(),
            _ => Vec::new(),
        };
        let trace_id = v.get("trace_id").and_then(Value::as_str).map(str::to_string);
        let ok = (|| {
            Some(SimulateResult {
                slowdown: f("slowdown")?,
                inefficiency: f("inefficiency")?,
                host_steps: u("host_steps")?,
                comm_steps: u("comm_steps")?,
                compute_steps: u("compute_steps")?,
                shared_cache_hit: v.get("shared_cache_hit").and_then(Value::as_bool)?,
                verified: v.get("verified").and_then(Value::as_bool)?,
                wall_ms: f("wall_ms")?,
                trace_id,
                stages,
                e2e_ms: 0.0,
                client: ClientSpans::default(),
                raw: v.clone(),
            })
        })();
        ok.ok_or_else(|| {
            ClientError::Protocol(format!("incomplete simulate payload: {}", v.to_json()))
        })
    }
}

/// The client-side spans of one typed round trip, in milliseconds, summed
/// over its attempts. They are disjoint from each other and from the
/// server's stage spans, so with those they sum to at most the round
/// trip's `e2e_ms`; what is left is the wire and the wakeups.
///
/// Both are the calling thread's CPU time (wall time where no thread clock
/// is bound). In wall time a client preempted inside `write` — on loopback
/// often by the very server thread the write woke — would count the
/// server's work a second time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClientSpans {
    /// `client.write`: format the request line, write it and flush.
    pub write_ms: f64,
    /// `client.parse`: parse the response line once it has been read.
    pub parse_ms: f64,
}

impl ClientSpans {
    /// The spans as `(stage, ms)` pairs, the shape of the server's stages.
    pub fn stages(&self) -> [(&'static str, f64); 2] {
        [("client.write", self.write_ms), ("client.parse", self.parse_ms)]
    }
}

/// Milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// CPU time this thread has used, in nanoseconds.
#[cfg(target_os = "linux")]
fn thread_cpu_ns() -> u64 {
    use std::ffi::c_long;
    #[repr(C)]
    struct Timespec {
        sec: c_long,
        nsec: c_long,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec`; the C library
    // std links provides `clock_gettime`, which cannot fail for this clock.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Wall time since the first call, in nanoseconds (no thread clock here).
#[cfg(not(target_os = "linux"))]
fn thread_cpu_ns() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Milliseconds of [`thread_cpu_ns`] since `start`.
fn cpu_ms_since(start: u64) -> f64 {
    thread_cpu_ns().saturating_sub(start) as f64 / 1e6
}

/// How many times [`Client`] retries an `overloaded` rejection by default.
const DEFAULT_RETRIES: u32 = 0;

/// Upper bound on one retry sleep, so a wild server hint cannot park the
/// client for minutes. [`retry_sleep`] clamps every hint to this.
pub const MAX_RETRY_SLEEP: Duration = Duration::from_secs(2);

/// How many connect attempts [`Client`] makes when (re)establishing a
/// connection, so a router restart window does not surface as an IO error.
const RECONNECT_ATTEMPTS: u32 = 3;

/// Pause between reconnect attempts.
const RECONNECT_PAUSE: Duration = Duration::from_millis(25);

/// The duration the client sleeps for a server `retry_after_ms` hint:
/// the hint itself (10 ms when the server sent none), clamped to
/// [`MAX_RETRY_SLEEP`]. Exposed so tests can check the cap without
/// standing up an overloaded server.
pub fn retry_sleep(retry_after_ms: Option<u64>) -> Duration {
    Duration::from_millis(retry_after_ms.unwrap_or(10)).min(MAX_RETRY_SLEEP)
}

/// A persistent typed connection to a `unet-serve` server.
///
/// Construct with [`Client::connect`], shape with the builder-style
/// [`timeout`](Client::timeout) / [`retries`](Client::retries), then call
/// the typed request methods. The connection is kept open across calls and
/// transparently re-established after an IO failure or an `overloaded`
/// rejection (the retry honors the server's `retry_after_ms` hint).
pub struct Client {
    addr: String,
    timeout: Option<Duration>,
    retries: u32,
    conn: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Client {
    /// Connect eagerly to `addr` (host:port).
    pub fn connect(addr: &str) -> Result<Client, ClientError> {
        let mut client =
            Client { addr: addr.to_string(), timeout: None, retries: DEFAULT_RETRIES, conn: None };
        client.ensure_conn()?;
        Ok(client)
    }

    /// Set a read/write timeout for the connection (applies immediately).
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        if let Some((stream, _)) = &self.conn {
            let _ = stream.set_read_timeout(Some(timeout));
            let _ = stream.set_write_timeout(Some(timeout));
        }
        self
    }

    /// Retry `overloaded` rejections up to `retries` times, sleeping the
    /// server's `retry_after_ms` hint between attempts (default 0 — fail
    /// fast).
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// The address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    fn ensure_conn(&mut self) -> Result<(), ClientError> {
        if self.conn.is_none() {
            // A few attempts with short pauses ride out a router or server
            // restart window transparently instead of failing the call.
            let mut attempt = 0;
            let stream = loop {
                match TcpStream::connect(&self.addr) {
                    Ok(s) => break s,
                    Err(e) => {
                        attempt += 1;
                        if attempt >= RECONNECT_ATTEMPTS {
                            return Err(ClientError::Io(e));
                        }
                        std::thread::sleep(RECONNECT_PAUSE);
                    }
                }
            };
            // Small-line request/response ping-pong: leaving Nagle on
            // costs a delayed-ACK stall per request on a kept-alive
            // connection (the E22 span-accounting gate catches this).
            let _ = stream.set_nodelay(true);
            if let Some(t) = self.timeout {
                let _ = stream.set_read_timeout(Some(t));
                let _ = stream.set_write_timeout(Some(t));
            }
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((stream, reader));
        }
        Ok(())
    }

    /// One raw line round trip (no retries, no response typing). The
    /// connection is re-established once if the round trip dies.
    pub fn request_raw(&mut self, line: &str) -> Result<String, ClientError> {
        self.raw_call(line, &mut ClientSpans::default())
    }

    /// [`Client::request_raw`], adding its write time to `spans`.
    fn raw_call(&mut self, line: &str, spans: &mut ClientSpans) -> Result<String, ClientError> {
        match self.round_trip_once(line, spans) {
            Ok(resp) => Ok(resp),
            Err(ClientError::Io(_)) => {
                // One reconnect: the server may have closed an idle
                // connection between calls.
                self.conn = None;
                self.round_trip_once(line, spans)
            }
            Err(e) => Err(e),
        }
    }

    fn round_trip_once(
        &mut self,
        line: &str,
        spans: &mut ClientSpans,
    ) -> Result<String, ClientError> {
        self.ensure_conn()?;
        let result = (|| {
            let (stream, reader) = self.conn.as_mut().expect("ensured above");
            // One write for the line and its newline: with nodelay on, a
            // split write is a second packet.
            let write_started = thread_cpu_ns();
            let mut framed = Vec::with_capacity(line.len() + 1);
            framed.extend_from_slice(line.as_bytes());
            framed.push(b'\n');
            let written = stream.write_all(&framed).and_then(|()| stream.flush());
            spans.write_ms += cpu_ms_since(write_started);
            // A tier with no free connection slot answers `overloaded`
            // before reading the request, then closes; the request can
            // then hit a reset connection whose answer is still readable.
            if let Err(e) = written {
                if !matches!(e.kind(), ErrorKind::BrokenPipe | ErrorKind::ConnectionReset) {
                    return Err(e);
                }
                let mut response = String::new();
                return match reader.read_line(&mut response) {
                    Ok(_) if response.ends_with('\n') => Ok(response.trim_end().to_string()),
                    _ => Err(e),
                };
            }
            let mut response = String::new();
            let n = reader.read_line(&mut response)?;
            if n == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection without responding",
                ));
            }
            Ok(response.trim_end().to_string())
        })();
        if result.is_err() {
            self.conn = None;
        }
        result.map_err(ClientError::Io)
    }

    /// Send a pre-built request `line`, classify the response, and retry
    /// `overloaded` rejections per the configured budget. The typed
    /// methods ([`simulate`](Client::simulate) etc.) are the usual entry
    /// points; this one serves callers that build request lines
    /// themselves.
    pub fn request_typed_line(&mut self, line: &str) -> Result<Value, ClientError> {
        self.typed_call(line).map(|(v, _)| v)
    }

    /// Send a pre-built request `line`, retrying `overloaded` rejections
    /// per the configured budget (at most `retries + 1` attempts), and
    /// return the last raw answer line untyped.
    pub fn request_raw_retrying(&mut self, line: &str) -> Result<String, ClientError> {
        self.call(line, &mut ClientSpans::default()).map(|(raw, _)| raw)
    }

    /// The one send path of the retrying methods: the last raw answer and
    /// its parse, adding write and parse time to `spans`.
    fn call(
        &mut self,
        line: &str,
        spans: &mut ClientSpans,
    ) -> Result<(String, Result<Response, String>), ClientError> {
        let mut attempts_left = self.retries;
        loop {
            let raw = self.raw_call(line, spans)?;
            let parse_started = thread_cpu_ns();
            let parsed = parse_response(&raw);
            spans.parse_ms += cpu_ms_since(parse_started);
            if let Ok(Response::Overloaded { retry_after_ms, .. }) = parsed {
                // The server answered before reading our request and
                // will close; reconnect either way.
                self.conn = None;
                if attempts_left > 0 {
                    attempts_left -= 1;
                    std::thread::sleep(retry_sleep(retry_after_ms));
                    continue;
                }
            }
            return Ok((raw, parsed));
        }
    }

    /// [`Client::request_typed_line`] with the call's client-side spans
    /// (the line is already formatted, so `write_ms` is write and flush).
    fn typed_call(&mut self, line: &str) -> Result<(Value, ClientSpans), ClientError> {
        let mut spans = ClientSpans::default();
        let (_, parsed) = self.call(line, &mut spans)?;
        match parsed.map_err(ClientError::Protocol)? {
            Response::Result(v) => Ok((v, spans)),
            Response::Error { code, message, .. } => {
                Err(ClientError::Server(ServerError { code, message }))
            }
            Response::Overloaded { queue_cap, retry_after_ms } => {
                Err(ClientError::Overloaded { queue_cap, retry_after_ms })
            }
        }
    }

    /// Run one simulation and return its typed result. The client assigns
    /// a fresh `trace_id` (the request's first ingress), so the result's
    /// [`trace_id`](SimulateResult::trace_id) and client-measured
    /// [`e2e_ms`](SimulateResult::e2e_ms) are always populated; the
    /// server-side [`stages`](SimulateResult::stages) breakdown rides the
    /// payload.
    pub fn simulate(&mut self, spec: &SimulateReq) -> Result<SimulateResult, ClientError> {
        let trace_id = gen_trace_id();
        let started = Instant::now();
        let format_started = thread_cpu_ns();
        let line = simulate_request_line(spec, Some(&trace_id));
        let format_ms = cpu_ms_since(format_started);
        let (v, mut spans) = self.typed_call(&line)?;
        let e2e_ms = ms_since(started);
        spans.write_ms += format_ms;
        let mut result = SimulateResult::from_value(v)?;
        result.e2e_ms = e2e_ms;
        result.client = spans;
        result.trace_id.get_or_insert(trace_id);
        Ok(result)
    }

    /// Fetch the server's live Prometheus exposition.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        let v = self.request_typed_line(&metrics_request_line(None, Some(&gen_trace_id())))?;
        v.get("exposition")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("metrics result without `exposition`".into()))
    }
}
