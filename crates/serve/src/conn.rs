//! The connection front both serving tiers share: `unet serve` and the
//! `unet shard` router differ only in how they answer a request line.
//!
//! * **Acceptor** — blocks in [`TcpListener::accept`]; nothing polls.
//!   Every accepted connection must take one of `queue_cap` connection
//!   slots; with none free it gets an immediate typed `overloaded` answer
//!   carrying a `retry_after_ms` hint (explicit backpressure — a tier
//!   never holds more open connections than that). The open-connection
//!   count at each admission lands in a bounded log₂ histogram. An accept
//!   error never ends the loop: a signal or a client that gave up while
//!   queued is retried at once, and anything else (in practice a resource
//!   limit such as `EMFILE`) is counted and waited out.
//! * **One thread per connection** — reads request lines, hands each to
//!   the tier's [`Tier::handle`], counts the answer as completed, writes
//!   it, and records it: `serve.request.latency_ms`, the slowest request
//!   as the latency exemplar, and a stage record offered to the tail
//!   sampler.
//!   A line is read up to [`MAX_LINE_BYTES`]; a longer one gets one typed
//!   `bad-request` and the connection is closed.
//! * **Drain** — [`Front::stop`] flags shutdown, then wakes the blocked
//!   acceptor by dialing its own address; the acceptor re-checks the flag
//!   after every accept and drops that connection unanswered. The stop
//!   joins the acceptor and waits for every slot to come back. Connection
//!   threads close idle connections via a short read timeout once
//!   shutdown is flagged and answer whatever is mid-flight, so no
//!   admitted request is dropped.
//! * **Request trace** — the tail sampler keeps compact fixed-size
//!   records; [`Front::drain_trace`] hands them over as a
//!   [`RequestTrace`], which renders `unet-trace/4` lines only when a
//!   caller streams it somewhere.
//!
//! Slots are [`Permits`]: RAII guards handed to waiters in arrival order,
//! so a thread that dies still gives its slot back.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::protocol::{error_line, mint_trace_id, overloaded_line};
use unet_obs::tailsample::Offer;
use unet_obs::trace::{write_full, RunMeta};
use unet_obs::{InMemoryRecorder, MetricsRegistry, Recorder, TailSampler};

/// A counting semaphore whose permits are RAII guards: dropping a
/// [`Permit`] — also while a panic unwinds — gives it back. A returned
/// permit passes straight to the longest-blocked acquirer, so requests
/// are served in arrival order and a release wakes exactly one thread.
pub(crate) struct Permits {
    state: Mutex<PermitState>,
    pub(crate) cap: usize,
    /// Signaled whenever the held count drops (what a drain waits for).
    returned: Condvar,
}

struct PermitState {
    held: usize,
    /// Blocked acquirers, oldest first, each with its hand-off flag.
    queue: VecDeque<(Thread, Arc<AtomicBool>)>,
}

/// One permit of a [`Permits`] pool, returned on drop.
pub(crate) struct Permit(Arc<Permits>);

impl Permits {
    pub(crate) fn new(cap: usize) -> Arc<Permits> {
        let state = PermitState { held: 0, queue: VecDeque::new() };
        Arc::new(Permits { state: Mutex::new(state), cap, returned: Condvar::new() })
    }

    /// A permit and the count now held, or `None` when all `cap` are out.
    fn try_acquire(self: &Arc<Self>) -> Option<(Permit, usize)> {
        let mut st = self.state.lock().expect("permits poisoned");
        if st.held >= self.cap {
            return None;
        }
        st.held += 1;
        Some((Permit(Arc::clone(self)), st.held))
    }

    /// Take a free permit, or queue for one and block until handed one.
    pub(crate) fn acquire(self: &Arc<Self>) -> Permit {
        let mut st = self.state.lock().expect("permits poisoned");
        if st.held < self.cap && st.queue.is_empty() {
            st.held += 1;
            return Permit(Arc::clone(self));
        }
        let granted = Arc::new(AtomicBool::new(false));
        st.queue.push_back((std::thread::current(), Arc::clone(&granted)));
        drop(st);
        while !granted.load(Ordering::Acquire) {
            std::thread::park();
        }
        Permit(Arc::clone(self))
    }

    /// Block until every permit is back.
    fn wait_all_returned(&self) {
        let mut st = self.state.lock().expect("permits poisoned");
        while st.held > 0 {
            st = self.returned.wait(st).expect("permits poisoned");
        }
    }
}

impl Drop for Permit {
    fn drop(&mut self) {
        // Every update under this lock is a single step, so a poisoned
        // state is still consistent — and a drop must not panic.
        let mut st = self.0.state.lock().unwrap_or_else(PoisonError::into_inner);
        match st.queue.pop_front() {
            Some((thread, granted)) => {
                // Pairs with the `Acquire` load in `acquire`: the permit
                // changes hands without `held` moving.
                granted.store(true, Ordering::Release);
                thread.unpark();
            }
            None => {
                st.held -= 1;
                self.0.returned.notify_all();
            }
        }
    }
}

/// The recorder names one tier's front writes (recorder names must be
/// `'static`, so each tier has a fixed set).
pub(crate) struct FrontNames {
    /// `command` of the drain trace's `meta` line.
    command: &'static str,
    workers: &'static str,
    queue_cap: &'static str,
    admitted: &'static str,
    rejected: &'static str,
    depth: &'static str,
    accept_errors: &'static str,
    completed: &'static str,
    sampled: &'static str,
    dropped: &'static str,
    /// The histogram each stage span lands in, for tiers that keep
    /// per-stage histograms.
    stage: Option<fn(&'static str) -> &'static str>,
}

/// The names `unet serve` records under.
pub(crate) const SERVE_NAMES: FrontNames = FrontNames {
    command: "serve",
    workers: "serve.workers",
    queue_cap: "serve.queue.cap",
    admitted: "serve.conns.admitted",
    rejected: "serve.conns.rejected",
    depth: "serve.queue.depth",
    accept_errors: "serve.accept.errors",
    completed: "serve.requests.completed",
    sampled: "serve.trace.requests_sampled",
    dropped: "serve.trace.requests_dropped",
    stage: None,
};

/// The names the `unet shard` router records under; every stage span
/// also lands in a `shard.stage.*_us` histogram.
pub(crate) const SHARD_NAMES: FrontNames = FrontNames {
    command: "shard",
    workers: "shard.workers",
    queue_cap: "shard.queue.cap",
    admitted: "shard.conns.admitted",
    rejected: "shard.conns.rejected",
    depth: "shard.queue.depth",
    accept_errors: "shard.accept.errors",
    completed: "shard.requests.completed",
    sampled: "shard.trace.requests_sampled",
    dropped: "shard.trace.requests_dropped",
    stage: Some(shard_stage_metric),
};

fn shard_stage_metric(stage: &'static str) -> &'static str {
    match stage {
        "accept" => "shard.stage.accept_us",
        "queue_wait" => "shard.stage.queue_wait_us",
        "forward" => "shard.stage.forward_us",
        "retry" => "shard.stage.retry_us",
        "failover" => "shard.stage.failover_us",
        "serialize" => "shard.stage.serialize_us",
        _ => "shard.stage.other_us",
    }
}

/// What one handled request looked like, for the stage record its
/// connection thread offers to the tail sampler.
pub(crate) struct ReqInfo {
    pub(crate) trace_id: u64,
    pub(crate) kind: &'static str,
    pub(crate) ok: bool,
    pub(crate) stages: Vec<(&'static str, f64)>,
}

/// One serving tier behind the shared front.
pub(crate) trait Tier: Send + Sync + 'static {
    /// The tier's front state.
    fn front(&self) -> &Front;
    /// Answer one non-empty request line; the front writes the answer
    /// (its `serialize` span) and records it.
    fn handle(&self, line: &str) -> (String, ReqInfo);
}

/// The front's state: metrics, sampling, connection slots, and the
/// shutdown flag.
pub(crate) struct Front {
    pub(crate) recorder: Mutex<InMemoryRecorder>,
    pub(crate) shutdown: AtomicBool,
    /// One slot per open connection (`queue_cap` of them).
    conns: Arc<Permits>,
    /// Requests the tier runs at once, the divisor of the retry hint.
    workers: usize,
    names: &'static FrontNames,
    /// Tail-sampled per-request stage records, drained into the trace.
    sampler: Mutex<TailSampler>,
    /// The slowest request seen so far: its trace id rides the latency
    /// histogram's `max` gauge as an exemplar in the exposition.
    latency_exemplar: Mutex<Option<(u64, f64)>>,
}

impl Front {
    pub(crate) fn new(
        names: &'static FrontNames,
        queue_cap: usize,
        workers: usize,
        head_sample_permille: u32,
    ) -> Front {
        let mut rec = InMemoryRecorder::new();
        rec.gauge(names.workers, workers as f64);
        rec.gauge(names.queue_cap, queue_cap as f64);
        Front {
            recorder: Mutex::new(rec),
            shutdown: AtomicBool::new(false),
            conns: Permits::new(queue_cap),
            workers,
            names,
            sampler: Mutex::new(TailSampler::new(head_sample_permille)),
            latency_exemplar: Mutex::new(None),
        }
    }

    /// The tier's registry: its recorder plus the latency exemplar.
    pub(crate) fn registry(&self, rec: &InMemoryRecorder) -> MetricsRegistry {
        let mut reg = MetricsRegistry::from_recorder(rec);
        let exemplar = *self.latency_exemplar.lock().expect("exemplar poisoned");
        if let Some((trace_id, ms)) = exemplar {
            // The slowest request explains the histogram's max.
            reg.set_exemplar("serve.request.latency_ms.max", &format!("{trace_id:016x}"), ms);
        }
        reg
    }

    /// Stop accepting, then wait until every connection thread has
    /// answered its in-flight request and closed (each returns its slot
    /// last).
    pub(crate) fn stop(&self, acceptor: &mut Option<Acceptor>) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(acceptor) = acceptor.take() {
            // The acceptor is blocked in `accept`: a dial wakes it to see
            // the flag. A dial can fail (a full backlog, no descriptors
            // left), so dial again until the loop has returned.
            loop {
                drop(TcpStream::connect_timeout(&acceptor.wake, WAKE_WAIT));
                match acceptor.done.recv_timeout(WAKE_WAIT) {
                    Err(RecvTimeoutError::Timeout) => continue,
                    _ => break,
                }
            }
            let _ = acceptor.thread.join();
        }
        self.conns.wait_all_returned();
    }

    /// Count what the tail sampler kept and dropped, let `report` read the
    /// final recorder, then hand the recorder and the sampler over as the
    /// tier's [`RequestTrace`]. Call once, after [`Front::stop`].
    pub(crate) fn drain_trace<R>(
        &self,
        report: impl FnOnce(&InMemoryRecorder) -> R,
    ) -> (R, RequestTrace) {
        let sampler = std::mem::take(&mut *self.sampler.lock().expect("sampler poisoned"));
        let mut rec = self.recorder.lock().expect("recorder poisoned");
        rec.counter(self.names.sampled, sampler.retained() as u64);
        rec.counter(self.names.dropped, sampler.dropped());
        let out = report(&rec);
        let trace =
            RequestTrace { command: self.names.command, rec: std::mem::take(&mut *rec), sampler };
        (out, trace)
    }

    /// Count one produced answer. Called before the answer is written, so
    /// a client that has read its answer sees it in the stats.
    fn complete(&self) {
        self.recorder.lock().expect("recorder poisoned").counter(self.names.completed, 1);
    }

    /// Record one written answer: latency, exemplar, and the stage record
    /// offered to the tail sampler.
    fn record(&self, info: ReqInfo, e2e_ms: f64) {
        {
            let mut rec = self.recorder.lock().expect("recorder poisoned");
            // One latency histogram name on both tiers, so the retry
            // hint has the same shape everywhere.
            rec.histogram("serve.request.latency_ms", e2e_ms as u64);
            if let Some(metric) = self.names.stage {
                for &(stage, ms) in &info.stages {
                    rec.histogram(metric(stage), (ms * 1e3) as u64);
                }
            }
        }
        {
            let mut ex = self.latency_exemplar.lock().expect("exemplar poisoned");
            if ex.is_none_or(|(_, ms)| e2e_ms >= ms) {
                *ex = Some((info.trace_id, e2e_ms));
            }
        }
        self.sampler.lock().expect("sampler poisoned").offer(Offer {
            trace_id: info.trace_id,
            kind: info.kind,
            ok: info.ok,
            e2e_ms,
            stages: &info.stages,
        });
    }
}

/// A drained tier's request trace: the final counters, gauges and
/// histograms plus the tail-sampled request records, kept compact until
/// [`RequestTrace::write_to`] renders them.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    command: &'static str,
    rec: InMemoryRecorder,
    sampler: TailSampler,
}

impl RequestTrace {
    /// Stream the trace to `out` as `unet-trace/4` JSONL (the `unet trace`
    /// format: `unet trace-requests` and the streaming analyzer read it),
    /// one record at a time. Returns the number of lines written.
    pub fn write_to(&self, out: &mut impl Write) -> std::io::Result<u64> {
        let meta = RunMeta {
            command: self.command.to_string(),
            guest: "-".to_string(),
            host: "-".to_string(),
            n: 0,
            m: 0,
            guest_steps: 0,
        };
        write_full(out, &self.rec, &meta, &[], self.sampler.records(), None)
    }
}

/// How long a drain waits on each wake dial, and then for the acceptor.
const WAKE_WAIT: Duration = Duration::from_millis(50);

/// The pause after an accept error that is not retried at once.
const ACCEPT_ERROR_PAUSE: Duration = Duration::from_millis(10);

/// A running acceptor thread and how to wake it.
pub(crate) struct Acceptor {
    thread: JoinHandle<()>,
    /// The bound address, with an unspecified IP mapped to the loopback
    /// address of the same family.
    wake: SocketAddr,
    /// Disconnected once the accept loop has returned.
    done: Receiver<()>,
}

/// Serve `tier` on `listener` from a new acceptor thread.
pub(crate) fn start_acceptor<T: Tier>(
    listener: TcpListener,
    tier: &Arc<T>,
) -> std::io::Result<Acceptor> {
    let mut wake = listener.local_addr()?;
    if wake.ip().is_unspecified() {
        wake.set_ip(match wake.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    let (done_tx, done) = mpsc::channel::<()>();
    let tier = Arc::clone(tier);
    let thread = std::thread::spawn(move || {
        accept_loop(&listener, &tier);
        drop(done_tx);
    });
    Ok(Acceptor { thread, wake, done })
}

fn accept_loop<T: Tier>(listener: &TcpListener, tier: &Arc<T>) {
    let front = tier.front();
    loop {
        let accepted = listener.accept();
        if front.shutdown.load(Ordering::SeqCst) {
            // The drain's wake dial (or a client that raced it): dropped
            // unanswered.
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                // The protocol is a ping-pong of small lines; without
                // nodelay, Nagle + delayed ACK stall every request after
                // the first on a persistent connection by tens of ms.
                let _ = stream.set_nodelay(true);
                admit(tier, stream);
            }
            Err(e) if retry_accept_at_once(&e) => {}
            Err(_) => {
                front
                    .recorder
                    .lock()
                    .expect("recorder poisoned")
                    .counter(front.names.accept_errors, 1);
                std::thread::sleep(ACCEPT_ERROR_PAUSE);
            }
        }
    }
}

/// Accept errors retried at once: a signal, or a client that hung up
/// while queued. Any other error — in practice a resource limit (`EMFILE`,
/// `ENFILE`, `ENOBUFS`, `ENOMEM`) — is counted and paused on instead.
fn retry_accept_at_once(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::Interrupted | ErrorKind::ConnectionAborted)
}

/// The `retry_after_ms` fallback before any request latency is measured.
pub(crate) const RETRY_AFTER_FLOOR_MS: u64 = 100;

/// Hint for a rejected client: a request from each of `depth` open
/// connections must drain through `workers` parallel permits, each costing
/// about the measured mean latency.
///
/// Before the first request latency lands (the zero-sample startup
/// window), the hint is the bare floor — multiplying the floor by the
/// drain rounds would tell the very first rejected clients to back off
/// for seconds based on no evidence at all. A non-finite mean (possible
/// only if the histogram is ever fed garbage) takes the same path.
pub(crate) fn retry_after_hint(rec: &InMemoryRecorder, depth: usize, workers: usize) -> u64 {
    match rec.histogram_data("serve.request.latency_ms").and_then(|h| h.mean()) {
        Some(mean) if mean.is_finite() => {
            let rounds = depth.div_ceil(workers.max(1)).max(1);
            ((mean * rounds as f64).ceil() as u64).max(1)
        }
        _ => RETRY_AFTER_FLOOR_MS,
    }
}

/// Give the connection a slot and its own thread, or answer `overloaded`.
fn admit<T: Tier>(tier: &Arc<T>, mut stream: TcpStream) {
    let front = tier.front();
    match front.conns.try_acquire() {
        Some((slot, open)) => {
            {
                let mut rec = front.recorder.lock().expect("recorder poisoned");
                rec.counter(front.names.admitted, 1);
                rec.histogram(front.names.depth, open as u64);
            }
            let tier = Arc::clone(tier);
            // A failed spawn drops the closure, closing the stream and
            // returning the slot.
            let _ = std::thread::Builder::new().name("unet-conn".into()).spawn(move || {
                serve_connection(&*tier, stream);
                drop(slot);
            });
        }
        None => {
            let cap = front.conns.cap;
            let retry_after = {
                let mut rec = front.recorder.lock().expect("recorder poisoned");
                rec.counter(front.names.rejected, 1);
                retry_after_hint(&rec, cap, front.workers)
            };
            let _ = writeln!(stream, "{}", overloaded_line(cap, retry_after));
            let _ = stream.flush();
        }
    }
}

/// How long a connection thread waits on an idle connection before
/// re-checking the shutdown flag. Bounds drain latency for open-but-quiet
/// clients.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The longest request line either tier reads, in bytes (newline
/// excluded): 1.5 MiB. A longer line is answered with one `bad-request`
/// before the rest of it is buffered, and its connection is closed.
pub const MAX_LINE_BYTES: usize = 3 << 19;

fn serve_connection(tier: &impl Tier, stream: TcpStream) {
    let front = tier.front();
    let _ = stream.set_read_timeout(Some(IDLE_POLL));
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_line_patient(&mut reader, &mut line, &front.shutdown) {
            LineRead::Line => {
                // Bytes that are not UTF-8 reach the tier as U+FFFD, so
                // they get the tier's typed answer like any bad input.
                let text = String::from_utf8_lossy(&line);
                let trimmed = text.trim();
                if !trimmed.is_empty() {
                    let started = Instant::now();
                    let (response, info) = tier.handle(trimmed);
                    if !answer(front, &mut writer, response, info, started) {
                        return;
                    }
                }
                drop(text);
                line.clear();
            }
            LineRead::TooLong => {
                let message = format!("request line longer than {MAX_LINE_BYTES} bytes");
                let info = ReqInfo {
                    trace_id: mint_trace_id(),
                    kind: "unparsed",
                    ok: false,
                    stages: vec![],
                };
                let response = error_line("bad-request", &message, None);
                answer(front, &mut writer, response, info, Instant::now());
                return;
            }
            LineRead::Closed => return,
        }
    }
}

/// Count the answer, write `response` and its newline (the `serialize`
/// span), and record the request that started at `started`; false when
/// the write failed.
fn answer(
    front: &Front,
    writer: &mut TcpStream,
    mut response: String,
    mut info: ReqInfo,
    started: Instant,
) -> bool {
    front.complete();
    let write_started = Instant::now();
    // One write: with nodelay on, a separate newline is a second segment,
    // and the client's read wakes once for each.
    response.push('\n');
    let write_ok = writer.write_all(response.as_bytes()).and_then(|_| writer.flush()).is_ok();
    info.stages.push(("serialize", write_started.elapsed().as_secs_f64() * 1e3));
    front.record(info, started.elapsed().as_secs_f64() * 1e3);
    write_ok
}

enum LineRead {
    Line,
    /// [`MAX_LINE_BYTES`] read and still no newline.
    TooLong,
    Closed,
}

/// Read one line of at most [`MAX_LINE_BYTES`], treating read timeouts as
/// "check shutdown, keep waiting". A timeout mid-line keeps the partial
/// data in `buf`, so slow writers are never corrupted; an EOF (or a drain
/// while idle) closes the connection.
fn read_line_patient<R: Read>(
    reader: &mut BufReader<R>,
    buf: &mut Vec<u8>,
    shutdown: &AtomicBool,
) -> LineRead {
    loop {
        // At most one byte past the cap, so an over-long line is refused
        // without buffering the rest of it.
        let room = (MAX_LINE_BYTES + 1 - buf.len()) as u64;
        match reader.by_ref().take(room).read_until(b'\n', buf) {
            Ok(0) => return LineRead::Closed,
            Ok(_) => {
                if buf.ends_with(b"\n") {
                    return LineRead::Line;
                }
                if buf.len() > MAX_LINE_BYTES {
                    return LineRead::TooLong;
                }
                // EOF after a partial line: serve it, next read sees EOF.
                return if buf.is_empty() { LineRead::Closed } else { LineRead::Line };
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if shutdown.load(Ordering::SeqCst) && buf.is_empty() {
                    // Idle connection during drain: close it. A partial
                    // line means a request is mid-send; keep waiting so
                    // drain never drops an in-flight request.
                    return LineRead::Closed;
                }
            }
            Err(_) => return LineRead::Closed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permits_pass_on_in_arrival_order_and_survive_a_panicking_holder() {
        let permits = Permits::new(1);
        let first = permits.acquire();
        let order = Arc::new(Mutex::new(Vec::new()));
        let waiters: Vec<_> = (0..3)
            .map(|i| {
                let (p, o) = (Arc::clone(&permits), Arc::clone(&order));
                let waiter = std::thread::spawn(move || {
                    let _permit = p.acquire();
                    o.lock().unwrap().push(i);
                });
                // Queue each waiter before the next one starts.
                while permits.state.lock().unwrap().queue.len() <= i {
                    std::thread::yield_now();
                }
                waiter
            })
            .collect();
        drop(first);
        for waiter in waiters {
            waiter.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), [0, 1, 2]);
        let p = Arc::clone(&permits);
        let holder = std::thread::spawn(move || {
            let _permit = p.acquire();
            panic!("the holder dies");
        });
        assert!(holder.join().is_err());
        assert_eq!(permits.try_acquire().map(|(_, held)| held), Some(1), "permit came back");
    }

    #[test]
    fn accept_errors_retry_at_once_only_for_signals_and_aborted_clients() {
        use std::io::Error;
        assert!(retry_accept_at_once(&Error::from(ErrorKind::Interrupted)));
        assert!(retry_accept_at_once(&Error::from(ErrorKind::ConnectionAborted)));
        assert!(!retry_accept_at_once(&Error::from(ErrorKind::OutOfMemory)));
        assert!(!retry_accept_at_once(&Error::from(ErrorKind::PermissionDenied)));
        #[cfg(target_os = "linux")]
        {
            // EINTR and ECONNABORTED as `accept(2)` reports them.
            assert!(retry_accept_at_once(&Error::from_raw_os_error(4)));
            assert!(retry_accept_at_once(&Error::from_raw_os_error(103)));
            // EMFILE, ENFILE, ENOBUFS, ENOMEM: counted and waited out.
            for errno in [24, 23, 105, 12] {
                assert!(!retry_accept_at_once(&Error::from_raw_os_error(errno)), "errno {errno}");
            }
        }
    }
}
