//! The `unet-serve/3` wire protocol.
//!
//! Newline-delimited JSON over TCP, one request and one response per line,
//! versioned by a mandatory `proto` field. Two request kinds:
//!
//! ```text
//! {"proto":"unet-serve/3","kind":"simulate","guest":"ring:24","host":"torus:3x3",
//!  "steps":3,"seed":7,"deadline_ms":5000,"id":1,"trace":{"id":"00000000c0ffee42"}}
//! {"proto":"unet-serve/3","kind":"metrics","id":2}
//! ```
//!
//! One `simulate` line is one simulation; any other kind (the retired
//! `batch` and `analyze` included) is a `bad-request`.
//!
//! and three response kinds:
//!
//! * `result` — the request succeeded; carries `req` (the request kind),
//!   the echoed `id` if one was sent, and kind-specific payload fields
//!   (`slowdown`, `exposition`, …);
//! * `error` — carries a machine-readable `code` (`bad-request`,
//!   `bad-spec`, `deadline-exceeded`, `sim-error`,
//!   `verify-failed`, `unsupported-protocol`) and a human `message`;
//! * `overloaded` — admission was refused (every connection slot of a
//!   server, or the router's admission queue, was taken); the connection
//!   is rejected *before* any request is read (explicit backpressure,
//!   never unbounded buffering). Carries the configured `queue_cap` and a
//!   `retry_after_ms` hint derived from queue depth and drain rate.
//!
//! ## Versioning
//!
//! Every line carries `"proto":"unet-serve/3"`. Any other version gets a
//! typed `unsupported-protocol` error naming the one this server speaks,
//! never a hangup. A request may carry a **trace context**, an optional
//! `"trace":{"id":"<16 hex>"}` object holding the distributed trace id
//! assigned at first ingress (client, router, or server — whoever sees the
//! request first calls [`gen_trace_id`]).
//!
//! Graph specifications are the same `family:params` strings the CLI takes
//! everywhere else ([`unet_core::spec::parse_graph`]).

use unet_obs::json::Value;

/// The protocol version every request and response carries.
pub const PROTOCOL: &str = "unet-serve/3";

/// Mint a fresh trace id: a process-global counter FNV-mixed with the
/// wall clock, so ids are unique within a process and almost surely
/// unique across the tier without any coordination.
pub fn mint_trace_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in n.to_le_bytes().into_iter().chain(nanos.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A fresh trace id ([`mint_trace_id`]) in its wire form: 16 lowercase
/// hex digits.
pub fn gen_trace_id() -> String {
    format!("{:016x}", mint_trace_id())
}

/// The value a trace id spells, or `None` unless it has the one form
/// [`gen_trace_id`] mints: exactly 16 lowercase hex digits.
pub fn decode_trace_id(id: &str) -> Option<u64> {
    let hex = id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
    hex.then(|| u64::from_str_radix(id, 16).ok()).flatten()
}

/// The wire form of the trace context: `"trace":{"id":"<trace_id>"}`.
pub fn trace_field(trace_id: &str) -> (String, Value) {
    ("trace".to_string(), Value::Obj(vec![("id".to_string(), Value::Str(trace_id.to_string()))]))
}

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// The `proto` field named a version this server does not speak.
    /// Becomes a typed `unsupported-protocol` error response.
    UnsupportedProto(String),
    /// The line was malformed (bad JSON, missing fields, unknown kind).
    /// Becomes a `bad-request` error response.
    Malformed(String),
}

impl ParseError {
    /// The error-response `code` this failure is answered with.
    pub fn code(&self) -> &'static str {
        match self {
            ParseError::UnsupportedProto(_) => "unsupported-protocol",
            ParseError::Malformed(_) => "bad-request",
        }
    }
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnsupportedProto(m) | ParseError::Malformed(m) => write!(f, "{m}"),
        }
    }
}

/// A `simulate` request: run a guest spec on a host spec and certify it.
#[derive(Debug, Clone, PartialEq)]
pub struct SimulateReq {
    /// Guest graph spec (`family:params`).
    pub guest: String,
    /// Host graph spec (`family:params`).
    pub host: String,
    /// Guest steps to simulate (≥ 1).
    pub steps: u32,
    /// Seed for guest states and route-seed derivation.
    pub seed: u64,
    /// Per-request deadline override in milliseconds (server default
    /// applies when absent).
    pub deadline_ms: Option<u64>,
    /// Client correlation id, echoed in the response.
    pub id: Option<u64>,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run and certify one simulation.
    Simulate(SimulateReq),
    /// Return the server's live metrics exposition.
    Metrics {
        /// Client correlation id.
        id: Option<u64>,
    },
}

impl Request {
    /// The request kind as it appears on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Simulate(_) => "simulate",
            Request::Metrics { .. } => "metrics",
        }
    }

    /// The client correlation id, if one was sent.
    pub fn id(&self) -> Option<u64> {
        match self {
            Request::Simulate(r) => r.id,
            Request::Metrics { id } => *id,
        }
    }
}

fn parse_simulate_fields(v: &Value, id: Option<u64>) -> Result<SimulateReq, String> {
    let field = |name: &str| {
        v.get(name)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("simulate needs a string `{name}` field"))
    };
    let steps =
        v.get("steps").and_then(Value::as_u64).ok_or("simulate needs an integer `steps` field")?;
    let steps = u32::try_from(steps).map_err(|_| format!("steps {steps} exceeds u32::MAX"))?;
    Ok(SimulateReq {
        guest: field("guest")?,
        host: field("host")?,
        steps,
        seed: v.get("seed").and_then(Value::as_u64).unwrap_or(0),
        deadline_ms: v.get("deadline_ms").and_then(Value::as_u64),
        id,
    })
}

/// Parse one request line, returning the trace context's id when the
/// client sent one (its wire form is checked by [`decode_trace_id`]).
/// [`ParseError::UnsupportedProto`] deserves a typed
/// `unsupported-protocol` response, never a hangup.
pub fn parse_request(line: &str) -> Result<(Option<u64>, Request), ParseError> {
    let v = unet_obs::json::parse(line).map_err(ParseError::Malformed)?;
    match v.get("proto").and_then(Value::as_str) {
        Some(PROTOCOL) => {}
        Some(other) => {
            return Err(ParseError::UnsupportedProto(format!(
                "unsupported protocol {other:?} (this server speaks {PROTOCOL:?})"
            )))
        }
        None => {
            return Err(ParseError::Malformed(format!("missing `proto` field (want {PROTOCOL:?})")))
        }
    }
    let trace_id = match v.get("trace") {
        Some(t) => {
            let id = t.get("id").and_then(Value::as_str).ok_or_else(|| {
                ParseError::Malformed("`trace` context needs a string `id` field".into())
            })?;
            // The tail sampler and the latency exemplar keep ids, so only
            // the fixed-size form gets that far.
            Some(decode_trace_id(id).ok_or_else(|| {
                ParseError::Malformed("`trace.id` must be exactly 16 lowercase hex digits".into())
            })?)
        }
        None => None,
    };
    let id = v.get("id").and_then(Value::as_u64);
    let req = match v.get("kind").and_then(Value::as_str) {
        Some("simulate") => {
            Request::Simulate(parse_simulate_fields(&v, id).map_err(ParseError::Malformed)?)
        }
        Some("metrics") => Request::Metrics { id },
        Some(other) => {
            return Err(ParseError::Malformed(format!("unknown request kind {other:?}")))
        }
        None => return Err(ParseError::Malformed("missing `kind` field".into())),
    };
    Ok((trace_id, req))
}

fn envelope(kind: &str, id: Option<u64>) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("proto".to_string(), Value::Str(PROTOCOL.to_string())),
        ("kind".to_string(), Value::Str(kind.to_string())),
    ];
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::UInt(id)));
    }
    fields
}

/// Build a `result` response line for request kind `req` with the given
/// payload fields.
pub fn result_line(req: &str, id: Option<u64>, payload: Vec<(String, Value)>) -> String {
    let mut fields = envelope("result", id);
    fields.push(("req".to_string(), Value::Str(req.to_string())));
    fields.extend(payload);
    Value::Obj(fields).to_json()
}

/// Build an `error` response line with a machine-readable `code`.
pub fn error_line(code: &str, message: &str, id: Option<u64>) -> String {
    let mut fields = envelope("error", id);
    fields.push(("code".to_string(), Value::Str(code.to_string())));
    fields.push(("message".to_string(), Value::Str(message.to_string())));
    Value::Obj(fields).to_json()
}

/// Build the typed backpressure rejection the acceptor sends when every
/// connection slot is taken (emitted before any request line is read).
pub fn overloaded_line(queue_cap: usize, retry_after_ms: u64) -> String {
    let mut fields = envelope("overloaded", None);
    fields.push(("queue_cap".to_string(), Value::UInt(queue_cap as u64)));
    fields.push(("retry_after_ms".to_string(), Value::UInt(retry_after_ms)));
    Value::Obj(fields).to_json()
}

fn simulate_fields(req: &SimulateReq) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("guest".to_string(), Value::Str(req.guest.clone())),
        ("host".to_string(), Value::Str(req.host.clone())),
        ("steps".to_string(), Value::UInt(req.steps as u64)),
        ("seed".to_string(), Value::UInt(req.seed)),
    ];
    if let Some(d) = req.deadline_ms {
        fields.push(("deadline_ms".to_string(), Value::UInt(d)));
    }
    if let Some(id) = req.id {
        fields.push(("id".to_string(), Value::UInt(id)));
    }
    fields
}

fn request_envelope(kind: &str, trace_id: Option<&str>) -> Vec<(String, Value)> {
    let mut fields = vec![
        ("proto".to_string(), Value::Str(PROTOCOL.to_string())),
        ("kind".to_string(), Value::Str(kind.to_string())),
    ];
    if let Some(t) = trace_id {
        fields.push(trace_field(t));
    }
    fields
}

/// Build a `simulate` request line (the client/loadgen side of
/// [`parse_request`]). Pass a trace id to propagate an existing trace
/// context; `None` lets the server assign one at ingress.
pub fn simulate_request_line(req: &SimulateReq, trace_id: Option<&str>) -> String {
    let mut fields = request_envelope("simulate", trace_id);
    fields.extend(simulate_fields(req));
    Value::Obj(fields).to_json()
}

/// Build a `metrics` request line.
pub fn metrics_request_line(id: Option<u64>, trace_id: Option<&str>) -> String {
    let mut fields = request_envelope("metrics", trace_id);
    if let Some(id) = id {
        fields.push(("id".to_string(), Value::UInt(id)));
    }
    Value::Obj(fields).to_json()
}

/// A parsed response line, classified by its `kind`.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The request succeeded; payload fields live in the carried object.
    Result(Value),
    /// The request failed with a typed code and message.
    Error {
        /// Machine-readable failure code.
        code: String,
        /// Human-readable description.
        message: String,
        /// Echoed correlation id.
        id: Option<u64>,
    },
    /// Admission was refused; the request was never read.
    Overloaded {
        /// The server's configured admission bound.
        queue_cap: u64,
        /// Suggested wait before retrying, derived from queue depth and
        /// drain rate.
        retry_after_ms: Option<u64>,
    },
}

/// Parse one response line.
pub fn parse_response(line: &str) -> Result<Response, String> {
    let v = unet_obs::json::parse(line)?;
    if v.get("proto").and_then(Value::as_str) != Some(PROTOCOL) {
        return Err(format!("response is not {PROTOCOL:?}: {line}"));
    }
    match v.get("kind").and_then(Value::as_str) {
        Some("result") => Ok(Response::Result(v)),
        Some("error") => Ok(Response::Error {
            code: v.get("code").and_then(Value::as_str).unwrap_or("unknown").to_string(),
            message: v.get("message").and_then(Value::as_str).unwrap_or("").to_string(),
            id: v.get("id").and_then(Value::as_u64),
        }),
        Some("overloaded") => Ok(Response::Overloaded {
            queue_cap: v.get("queue_cap").and_then(Value::as_u64).unwrap_or(0),
            retry_after_ms: v.get("retry_after_ms").and_then(Value::as_u64),
        }),
        other => Err(format!("unknown response kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulate_round_trips() {
        let req = SimulateReq {
            guest: "ring:24".into(),
            host: "torus:3x3".into(),
            steps: 3,
            seed: 7,
            deadline_ms: Some(5000),
            id: Some(41),
        };
        let line = simulate_request_line(&req, None);
        assert_eq!(parse_request(&line).unwrap(), (None, Request::Simulate(req.clone())));
        // With a trace context the id comes back alongside the request.
        let traced = simulate_request_line(&req, Some("00000000c0ffee42"));
        assert_eq!(
            parse_request(&traced).unwrap(),
            (Some(0x0000_0000_c0ff_ee42), Request::Simulate(req))
        );
    }

    #[test]
    fn trace_ids_are_sixteen_hex_and_unique() {
        let a = gen_trace_id();
        let b = gen_trace_id();
        assert_ne!(a, b);
        for t in [&a, &b] {
            assert_eq!(t.len(), 16, "trace id {t:?} is not 16 chars");
            assert!(t.chars().all(|c| c.is_ascii_hexdigit()));
            assert_eq!(
                decode_trace_id(t).map(|v| format!("{v:016x}")).as_deref(),
                Some(t.as_str())
            );
        }
    }

    #[test]
    fn trace_ids_outside_the_minted_form_are_malformed() {
        assert_eq!(decode_trace_id("00c0ffee00c0ffee"), Some(0x00c0_ffee_00c0_ffee));
        let long = "a".repeat(1 << 20);
        for bad in
            ["", "ABCDEF0123456789", "abcdef012345678", "abcdef01234567890", "+bcdef0123456789"]
                .into_iter()
                .chain([long.as_str()])
        {
            assert_eq!(decode_trace_id(bad), None, "{bad:.20}");
            let line = metrics_request_line(None, Some(bad));
            assert!(
                matches!(parse_request(&line), Err(ParseError::Malformed(m)) if m.contains("trace.id")),
                "{bad:.20}"
            );
        }
    }

    #[test]
    fn malformed_trace_context_is_rejected() {
        let line =
            format!("{{\"proto\":{PROTOCOL:?},\"kind\":\"metrics\",\"trace\":{{\"nope\":1}}}}");
        assert!(
            matches!(parse_request(&line), Err(ParseError::Malformed(m)) if m.contains("trace"))
        );
    }

    #[test]
    fn metrics_round_trips() {
        let line = metrics_request_line(Some(9), None);
        assert_eq!(parse_request(&line).unwrap(), (None, Request::Metrics { id: Some(9) }));
        let line = metrics_request_line(None, None);
        assert_eq!(parse_request(&line).unwrap(), (None, Request::Metrics { id: None }));
    }

    #[test]
    fn version_gate_and_errors_are_descriptive() {
        assert!(
            matches!(parse_request("{}"), Err(ParseError::Malformed(m)) if m.contains("proto"))
        );
        for old in ["unet-serve/0", "unet-serve/1", "unet-serve/2"] {
            match parse_request(&format!("{{\"proto\":{old:?},\"kind\":\"metrics\"}}")) {
                Err(ParseError::UnsupportedProto(m)) => {
                    assert!(m.contains(old) && m.contains(PROTOCOL), "{m}")
                }
                other => panic!("expected UnsupportedProto, got {other:?}"),
            }
        }
        let nokind = format!("{{\"proto\":{PROTOCOL:?}}}");
        assert!(
            matches!(parse_request(&nokind), Err(ParseError::Malformed(m)) if m.contains("kind"))
        );
        let badkind = format!("{{\"proto\":{PROTOCOL:?},\"kind\":\"frobnicate\"}}");
        assert!(
            matches!(parse_request(&badkind), Err(ParseError::Malformed(m)) if m.contains("frobnicate"))
        );
        let nosteps = format!(
            "{{\"proto\":{PROTOCOL:?},\"kind\":\"simulate\",\"guest\":\"ring:4\",\"host\":\"ring:4\"}}"
        );
        assert!(
            matches!(parse_request(&nosteps), Err(ParseError::Malformed(m)) if m.contains("steps"))
        );
    }

    #[test]
    fn response_lines_classify() {
        let ok = result_line("simulate", Some(3), vec![("slowdown".into(), Value::Float(4.5))]);
        match parse_response(&ok).unwrap() {
            Response::Result(v) => {
                assert_eq!(v.get("req").and_then(Value::as_str), Some("simulate"));
                assert_eq!(v.get("id").and_then(Value::as_u64), Some(3));
                assert_eq!(v.get("slowdown").and_then(Value::as_f64), Some(4.5));
            }
            other => panic!("expected result, got {other:?}"),
        }
        let err = error_line("bad-spec", "unknown graph family \"blah\"", None);
        match parse_response(&err).unwrap() {
            Response::Error { code, message, id } => {
                assert_eq!(code, "bad-spec");
                assert!(message.contains("blah"));
                assert_eq!(id, None);
            }
            other => panic!("expected error, got {other:?}"),
        }
        assert_eq!(
            parse_response(&overloaded_line(8, 120)).unwrap(),
            Response::Overloaded { queue_cap: 8, retry_after_ms: Some(120) }
        );
    }

    #[test]
    fn batch_is_an_unknown_kind() {
        let batch = format!(
            "{{\"proto\":{PROTOCOL:?},\"kind\":\"batch\",\"items\":[\
             {{\"guest\":\"ring:8\",\"host\":\"torus:2x2\",\"steps\":2}}]}}"
        );
        let analyze = format!("{{\"proto\":{PROTOCOL:?},\"kind\":\"analyze\",\"trace_lines\":[]}}");
        for (kind, line) in [("batch", batch), ("analyze", analyze)] {
            match parse_request(&line) {
                Err(e @ ParseError::Malformed(_)) => {
                    assert_eq!(e.code(), "bad-request");
                    assert!(
                        e.to_string().contains(&format!("unknown request kind {kind:?}")),
                        "{e}"
                    );
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }
}
