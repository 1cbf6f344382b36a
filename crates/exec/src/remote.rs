//! Remote execution transport: the networked [`Worker`] and the server it
//! talks to — std-only TCP, no async runtime, no serde.
//!
//! This closes the ROADMAP's `RemoteRunner` item. The pieces:
//!
//! * **Frame codec** ([`write_frame`] / [`read_frame`]) — a 4-byte
//!   big-endian length prefix followed by a UTF-8 JSON payload, capped at
//!   [`MAX_FRAME_BYTES`] and written with a single `write_all`, so a frame
//!   never straddles a Nagle/delayed-ACK stall. Truncated, oversized or
//!   non-UTF-8 frames are [`SpecError`]s, never panics; the oversized check
//!   runs *before* the payload allocation, so a hostile length prefix
//!   cannot balloon memory.
//! * **Protocol** (version [`PROTOCOL_VERSION`], 3) — version-tagged
//!   request/response objects in the workspace's hand-rolled JSON. A
//!   request is `ping` or `run_block`. A `run_block` names a `[lo, hi)`
//!   replication range, the canonical `block` size that splits it, and,
//!   optionally, the job's [`ExperimentSpec`]; a lease of several
//!   consecutive canonical blocks is one request. A connection is a
//!   conversation: the server keeps the job built from the last spec it
//!   received on that connection (a [`Session`]), and a `run_block`
//!   without a spec runs against it. A spec-less request on a connection
//!   that has loaded no job is an error response, never a wrong result.
//!   The reply is `{"v": 3, "summaries": [...]}` with one partial
//!   [`Summary`] per `block`-sized chunk of `[lo, hi)`, in order — or
//!   `{"v": 3, "error": "..."}`. Each summary is one compact array of its
//!   raw parts ([`eacp_spec::report::write_summary_parts`]): the five
//!   counts `replications, timely, completed, aborted, anomalies`, then
//!   the seven accumulators `energy_timely, energy_all, finish_timely,
//!   faults, rollbacks, checkpoints, fast_fraction`, each as `[count,
//!   mean, m2, min, max]`. Floats are written losslessly (`{:?}`, `null`
//!   for NaN, `±1e999` for infinities), so a decoded summary is bit-identical
//!   to the computed one. [`decode_reply`] is the one decoder: it reads
//!   the reply's text one summary at a time through a
//!   [`eacp_spec::JsonReader`], without a tree of the whole reply, checks
//!   the array shapes and that each summary covers its block's
//!   replications, and any other reply is a typed error. A
//!   request is bounded: a range wider than [`MAX_REQUEST_REPLICATIONS`],
//!   more chunks than [`MAX_REQUEST_BLOCKS`] or `block: 0` is an error
//!   response, and the connection keeps serving. `ping` is answered at
//!   any version, so a readiness probe need not track the protocol.
//!   [`answer_request`] answers one request statelessly.
//! * **[`RemoteServer`]** — the `eacp serve` loop: accept, read requests,
//!   run each block through the same per-block loop the local runners
//!   use, reply. One thread per connection, sequential requests within it,
//!   `TCP_NODELAY` on. Shutdown lets in-flight answers finish, then closes
//!   every kept-alive connection.
//! * **[`RemoteWorker`]** — the client side of the [`Worker`] seam. It
//!   keeps connections alive in a per-endpoint pool: each lease — a run
//!   of canonical blocks — checks a connection out, sends the spec only
//!   when that connection does not already carry it, and returns the
//!   connection only after a fully validated reply: one summary per
//!   block, each covering its block's replications. Failures rotate
//!   through the configured endpoints with a short backoff; if every
//!   endpoint fails the lease fails, and the work queue re-leases the
//!   batch — on the final attempt the worker runs its blocks
//!   **in-process** instead ([`RemoteWorker::with_fallback_attempt`]), so
//!   a fully dead fleet degrades to local execution rather than a failed
//!   run.
//!
//! Determinism is inherited, not negotiated: per-replication seeding makes
//! a block's partial summary bit-identical wherever it executes, and the
//! reply keeps the blocks apart, so N servers × M workers — under any
//! batch length and any failure/retry/fallback schedule — merge to exactly
//! the [`crate::LocalRunner`] summary.

use crate::job::Job;
use crate::queue::{BlockAssignment, BlockBatch, InProcessWorker, Worker};
use crate::workload::run_workload_block;
use eacp_sim::{NoopObserver, Summary};
use eacp_spec::report::{read_summary_parts, write_summary_parts};
use eacp_spec::{ExperimentSpec, FromJson, Json, JsonReader, QueueSpec, SpecError, ToJson};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Wire protocol version; bumped on any incompatible frame/JSON change.
/// Version 2 added the `run_block` request's `block` size and replaced the
/// reply's single `summary` by a `summaries` list, one per block; version
/// 3 writes each summary as one compact array of raw parts instead of an
/// object. `ping` is answered at any version.
pub const PROTOCOL_VERSION: u64 = 3;

/// Hard cap on a single frame's payload. Large enough for any spec or
/// reply this workspace produces, small enough that a corrupt or hostile
/// length prefix cannot exhaust memory.
pub const MAX_FRAME_BYTES: usize = 8 * 1024 * 1024;

/// Most replications one `run_block` request may cover, so one request
/// cannot hold a server thread for an unbounded time. Above the largest
/// canonical block (8,192 replications), so any single block fits.
pub const MAX_REQUEST_REPLICATIONS: u64 = 1 << 20;

/// Most blocks (reply summaries) one `run_block` request may ask for. A
/// summary encodes in well under 1 KiB, so a full reply stays under a
/// tenth of [`MAX_FRAME_BYTES`].
pub const MAX_REQUEST_BLOCKS: u64 = 1024;

/// Locks `m`, recovering from poisoning: every critical section in this
/// module is a single push, pop, insert, remove or replace, so the data is
/// consistent even if a holder panicked.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The length prefix and payload of one frame, in one buffer.
fn encode_frame(payload: &str) -> Result<Vec<u8>, SpecError> {
    let bytes = payload.as_bytes();
    if bytes.len() > MAX_FRAME_BYTES {
        return Err(SpecError::invalid(format!(
            "frame payload of {} bytes exceeds the {MAX_FRAME_BYTES}-byte cap",
            bytes.len()
        )));
    }
    let mut frame = Vec::with_capacity(4 + bytes.len());
    frame.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
    frame.extend_from_slice(bytes);
    Ok(frame)
}

/// Writes one length-prefixed frame with a single `write_all`.
pub fn write_frame<W: Write>(w: &mut W, payload: &str) -> Result<(), SpecError> {
    let frame = encode_frame(payload)?;
    w.write_all(&frame)
        .and_then(|()| w.flush())
        .map_err(|e| SpecError::Io(format!("frame write failed: {e}")))
}

/// Reads one length-prefixed frame. `Ok(None)` is a clean end-of-stream
/// at a frame boundary (the peer closed the connection); anything partial
/// — a truncated prefix, a short payload, an oversized length, non-UTF-8
/// bytes — is an error, never a panic.
pub fn read_frame<R: Read>(r: &mut R) -> Result<Option<String>, SpecError> {
    let mut prefix = [0u8; 4];
    let mut filled = 0;
    while filled < prefix.len() {
        let n = r
            .read(&mut prefix[filled..])
            .map_err(|e| SpecError::Io(format!("frame length read failed: {e}")))?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(SpecError::Io(format!(
                "connection closed mid-frame ({filled} of 4 length bytes)"
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(prefix) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(SpecError::invalid(format!(
            "frame length {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        SpecError::Io(format!(
            "connection closed mid-frame ({len}-byte payload): {e}"
        ))
    })?;
    String::from_utf8(payload)
        .map(Some)
        .map_err(|e| SpecError::invalid(format!("frame payload is not UTF-8: {e}")))
}

fn versioned(fields: Vec<(&'static str, Json)>) -> Json {
    let mut all = vec![("v", Json::from(PROTOCOL_VERSION))];
    all.extend(fields);
    Json::obj(all)
}

/// A `run_block` request for `[lo, hi)` in blocks of `block`, carrying
/// `spec_text` — an encoded [`ExperimentSpec`], embedded verbatim — or,
/// without it, running against the job the connection already holds.
fn block_request(spec_text: Option<&str>, lo: u64, hi: u64, block: u64) -> String {
    let mut request = format!(
        "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"run_block\", \"lo\": {lo}, \"hi\": {hi}, \
         \"block\": {block}"
    );
    if let Some(spec) = spec_text {
        request.push_str(", \"spec\": ");
        request.push_str(spec);
    }
    request.push('}');
    request
}

/// Serializes a full `run_block` request for `[lo, hi)` of `spec` as one
/// block — the first request of a job on a connection.
pub fn run_block_request(spec: &ExperimentSpec, lo: u64, hi: u64) -> String {
    run_blocks_request(spec, lo, hi, hi.saturating_sub(lo).max(1))
}

/// Serializes a full `run_block` request for `[lo, hi)` of `spec` in
/// chunks of `block` replications: the reply carries one summary per
/// chunk.
pub fn run_blocks_request(spec: &ExperimentSpec, lo: u64, hi: u64, block: u64) -> String {
    block_request(Some(&spec.to_json_string()), lo, hi, block)
}

/// Serializes a `ping` request.
pub fn ping_request() -> String {
    versioned(vec![("op", "ping".into())]).pretty()
}

/// Answers one request frame in a fresh [`Session`]: a full `run_block`
/// or `ping` is answered, a spec-less `run_block` is an error response.
pub fn answer_request(text: &str) -> String {
    Session::default().answer(text)
}

/// Decodes the reply to a `run_block` request for `batch`: one summary per
/// block of the batch, in order, each covering exactly its block's
/// replications.
///
/// # Errors
///
/// An error reply (`server reported: ...`), and every malformed one: text
/// that is not JSON or is cut short, a missing `summaries` list, the wrong
/// number of summaries or of raw parts in one, a non-number or a negative
/// count where a number belongs, and a summary whose replications differ
/// from its block's.
pub fn decode_reply(text: &str, batch: BlockBatch) -> Result<Vec<Summary>, SpecError> {
    // Read one summary at a time, into the list this returns: the reply is
    // never held as a tree. Errors keep the order a whole-reply check
    // gives them: malformed text, an error reply, the summary count, then
    // the first block in order that does not decode or cover its block.
    JsonReader::text(text).document(|r| {
        let mut error = None;
        let mut blocks = batch.blocks();
        let (mut summaries, mut count, mut fault) = (Vec::new(), 0, Ok(()));
        let reply = r.object(&["summaries", "error"], &mut |r, field| {
            if field == 1 {
                error = Some(r.shallow()?);
                return Ok(());
            }
            (count, fault) = r.array(&mut |r, _| {
                let summary = read_summary_parts(r);
                if let Some(block) = blocks.next() {
                    summaries.push(check_block(summary, block)?);
                }
                Ok(())
            })?;
            Ok(())
        });
        if let Some(error) = error {
            let detail = error.as_str().unwrap_or("malformed error response");
            return Err(SpecError::invalid(format!("server reported: {detail}")));
        }
        reply.check_required(1)?;
        if count as u64 != batch.block_count() {
            return Err(SpecError::invalid(format!(
                "reply carries {count} summaries, expected {}",
                batch.block_count()
            )));
        }
        fault.map(|()| summaries)
    })?
}

/// One decoded block summary of a reply, checked against its block.
fn check_block(
    summary: Result<Summary, SpecError>,
    block: BlockAssignment,
) -> Result<Summary, SpecError> {
    let summary = summary
        .map_err(|e| SpecError::invalid(format!("summary of block {}: {e}", block.block)))?;
    let expected = block.hi - block.lo;
    if summary.replications != expected {
        return Err(SpecError::invalid(format!(
            "summary of block {} covers {} replications, expected {expected}",
            block.block, summary.replications
        )));
    }
    Ok(summary)
}

/// The server's side of one connection: the job built from the last spec
/// the client sent, which spec-less `run_block` requests run against.
#[derive(Default)]
pub struct Session {
    job: Option<Job>,
}

impl Session {
    /// Answers one request frame. Protocol or execution errors become
    /// error responses rather than dropped connections, so the client
    /// always learns *why* (and its provenance wrapper names the endpoint
    /// and attempt). A request carrying a spec replaces the session's job
    /// — and clears it if the spec does not build.
    pub fn answer(&mut self, text: &str) -> String {
        match self.answer_inner(text) {
            Ok(response) => response,
            Err(e) => versioned(vec![("error", e.to_string().into())]).pretty(),
        }
    }

    fn answer_inner(&mut self, text: &str) -> Result<String, SpecError> {
        let json = Json::parse(text)?;
        let v = json.req("v")?.as_u64()?;
        let op = json.req("op")?.as_str()?;
        // A ping carries nothing version-dependent: readiness probes
        // written against any version keep working.
        if op == "ping" {
            return Ok(versioned(vec![("ok", true.into())]).pretty());
        }
        if v != PROTOCOL_VERSION {
            return Err(SpecError::invalid(format!(
                "unsupported protocol version {v} (this server speaks {PROTOCOL_VERSION})"
            )));
        }
        match op {
            "run_block" => self.answer_run_block(&json),
            other => Err(SpecError::invalid(format!(
                "unknown op {other:?} (expected ping or run_block)"
            ))),
        }
    }

    /// Answers a `run_block`: one summary per `block`-sized chunk of
    /// `[lo, hi)`, after checking the range against the job and the
    /// request caps.
    fn answer_run_block(&mut self, json: &Json) -> Result<String, SpecError> {
        if let Some(spec) = json.get("spec") {
            // Cleared first: a spec that fails to build must not leave
            // the previous job behind for spec-less requests.
            self.job = None;
            self.job = Some(Job::from_spec(&ExperimentSpec::from_json(spec)?)?);
        }
        let job = self.job.as_ref().ok_or_else(|| {
            SpecError::invalid(
                "run_block without a spec on a connection that holds no job \
                 (send the spec first)",
            )
        })?;
        let lo = json.req("lo")?.as_u64()?;
        let hi = json.req("hi")?.as_u64()?;
        let block = json.req("block")?.as_u64()?;
        let reps = job.replications();
        if lo > hi || hi > reps {
            return Err(SpecError::invalid(format!(
                "block range [{lo}, {hi}) is out of bounds for {reps} replications"
            )));
        }
        if block == 0 {
            return Err(SpecError::invalid("run_block with block size 0"));
        }
        if hi - lo > MAX_REQUEST_REPLICATIONS {
            return Err(SpecError::invalid(format!(
                "run_block over {} replications exceeds the \
                 {MAX_REQUEST_REPLICATIONS}-replication request cap",
                hi - lo
            )));
        }
        let batch = BlockBatch {
            index: 0,
            first: 0,
            lo,
            hi,
            size: block,
        };
        if batch.block_count() > MAX_REQUEST_BLOCKS {
            return Err(SpecError::invalid(format!(
                "run_block of {} blocks exceeds the {MAX_REQUEST_BLOCKS}-block request cap",
                batch.block_count()
            )));
        }
        // Written one summary at a time, straight into a reply sized for
        // the whole batch up front (a summary takes about 460 bytes).
        let mut reply = String::with_capacity(32 + 512 * batch.block_count() as usize);
        reply.push_str(&format!("{{\"v\": {PROTOCOL_VERSION}, \"summaries\": ["));
        for (i, b) in batch.blocks().enumerate() {
            if i > 0 {
                reply.push(',');
            }
            let summary = run_workload_block(job, b.lo, b.hi, &mut NoopObserver);
            write_summary_parts(&mut reply, &summary);
        }
        reply.push_str("]}");
        Ok(reply)
    }
}

fn serve_connection(stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut session = Session::default();
    loop {
        let request = match read_frame(&mut reader) {
            Ok(Some(text)) => text,
            // Clean close or a broken frame: either way the conversation
            // is over; the client's timeouts and retries own recovery.
            Ok(None) | Err(_) => return,
        };
        if write_frame(&mut writer, &session.answer(&request)).is_err() {
            return;
        }
    }
}

/// The connections a server is answering — a handle on each socket and
/// its handler thread — so shutdown can close them. Handlers remove their
/// own entry on exit, which also releases the socket.
#[derive(Default)]
struct Connections {
    next_id: u64,
    live: BTreeMap<u64, (TcpStream, JoinHandle<()>)>,
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool, connections: &Arc<Mutex<Connections>>) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = conn else { continue };
        let Ok(handle) = stream.try_clone() else {
            continue;
        };
        // Spawn and register under one lock, so a handler that finishes
        // at once still finds its entry to remove.
        let mut registry = lock(connections);
        let id = registry.next_id;
        registry.next_id += 1;
        let own = Arc::clone(connections);
        let spawned = std::thread::Builder::new().spawn(move || {
            serve_connection(stream);
            lock(&own).live.remove(&id);
        });
        if let Ok(handler) = spawned {
            registry.live.insert(id, (handle, handler));
        }
    }
}

/// A background block-execution server: the in-process form of
/// `eacp serve`, used by tests and the bench harness. Binds, accepts on a
/// background thread, and answers `run_block`/`ping` requests until
/// [`shutdown`](RemoteServer::shutdown) (or drop).
pub struct RemoteServer {
    endpoint: String,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    connections: Arc<Mutex<Connections>>,
}

impl RemoteServer {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and starts
    /// accepting in the background.
    pub fn bind(addr: &str) -> Result<Self, SpecError> {
        let listener =
            TcpListener::bind(addr).map_err(|e| SpecError::Io(format!("bind {addr}: {e}")))?;
        let endpoint = listener
            .local_addr()
            .map_err(|e| SpecError::Io(format!("local_addr of {addr}: {e}")))?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(Mutex::new(Connections::default()));
        let accept = {
            let stop = Arc::clone(&stop);
            let connections = Arc::clone(&connections);
            std::thread::spawn(move || accept_loop(listener, &stop, &connections))
        };
        Ok(Self {
            endpoint,
            stop,
            accept: Some(accept),
            connections,
        })
    }

    /// The bound `host:port`, with any ephemeral port resolved.
    pub fn endpoint(&self) -> &str {
        &self.endpoint
    }

    /// Stops accepting, lets every in-flight answer finish, then closes
    /// every connection — kept-alive ones included — and joins their
    /// handlers. Clients see the server as gone.
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for RemoteServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(&self.endpoint);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread is gone, so nothing registers after this.
        let live = std::mem::take(&mut lock(&self.connections).live);
        for (stream, handler) in live.into_values() {
            // Closing the read side ends the handler at its next read: an
            // answer being computed is still written first.
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handler.join();
        }
    }
}

/// Binds `addr` and serves on the calling thread, forever — the
/// `eacp serve --listen addr` entry point. `on_ready` receives the bound
/// `host:port` (ephemeral ports resolved) before the first accept.
pub fn serve_blocking(addr: &str, on_ready: impl FnOnce(&str)) -> Result<(), SpecError> {
    let listener =
        TcpListener::bind(addr).map_err(|e| SpecError::Io(format!("bind {addr}: {e}")))?;
    let endpoint = listener
        .local_addr()
        .map_err(|e| SpecError::Io(format!("local_addr of {addr}: {e}")))?
        .to_string();
    on_ready(&endpoint);
    let never = AtomicBool::new(false);
    accept_loop(listener, &never, &Arc::default());
    Ok(())
}

/// Pings `endpoint` once within `timeout` on a fresh connection; `Ok`
/// means a protocol-speaking server answered.
pub fn ping(endpoint: &str, timeout: Duration) -> Result<(), SpecError> {
    let stream = connect(endpoint, timeout)?;
    let mut writer = &stream;
    write_frame(&mut writer, &ping_request())?;
    let mut reader = BufReader::new(&stream);
    let text = read_frame(&mut reader)?
        .ok_or_else(|| SpecError::Io(format!("{endpoint}: closed without a pong")))?;
    let json = Json::parse(&text)?;
    match json.get("ok") {
        Some(ok) if ok.as_bool()? => Ok(()),
        _ => Err(SpecError::Io(format!(
            "{endpoint}: unexpected ping response"
        ))),
    }
}

fn connect(endpoint: &str, timeout: Duration) -> Result<TcpStream, SpecError> {
    let addr = endpoint
        .to_socket_addrs()
        .map_err(|e| SpecError::Io(format!("resolve {endpoint}: {e}")))?
        .next()
        .ok_or_else(|| SpecError::Io(format!("resolve {endpoint}: no addresses")))?;
    let stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| SpecError::Io(format!("connect {endpoint}: {e}")))?;
    stream
        .set_read_timeout(Some(timeout))
        .and_then(|()| stream.set_write_timeout(Some(timeout)))
        .map_err(|e| SpecError::Io(format!("socket options for {endpoint}: {e}")))?;
    let _ = stream.set_nodelay(true);
    Ok(stream)
}

/// Backoff before transport try `t` (1-based; no sleep before the first).
fn backoff(t: usize) -> Duration {
    Duration::from_millis(25u64.saturating_mul(1 << t.min(3).saturating_sub(1)))
}

/// Why one request/reply exchange failed.
struct Failure {
    phase: &'static str,
    detail: String,
    /// The server had closed the connection before any reply byte (EOF,
    /// reset, broken pipe — not a timeout): a kept-alive connection gone
    /// stale, worth one redial.
    stale: bool,
}

impl Failure {
    fn new(phase: &'static str, detail: impl ToString) -> Self {
        Self {
            phase,
            detail: detail.to_string(),
            stale: false,
        }
    }

    fn io(phase: &'static str, what: &str, e: &std::io::Error) -> Self {
        Self {
            stale: matches!(
                e.kind(),
                ErrorKind::UnexpectedEof
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::BrokenPipe
            ),
            ..Self::new(phase, format!("{what}: {e}"))
        }
    }
}

/// A kept-alive connection to one endpoint.
struct Conn {
    reader: BufReader<TcpStream>,
    /// The wire spec the server holds for this connection, if any.
    spec: Option<Arc<str>>,
}

impl Conn {
    fn dial(endpoint: &str, timeout: Duration) -> Result<Self, SpecError> {
        Ok(Self {
            reader: BufReader::new(connect(endpoint, timeout)?),
            spec: None,
        })
    }

    /// Sends one `run_block` for `batch` — with the spec only if this
    /// connection does not carry it yet — and validates the reply: one
    /// summary per block, each covering its block's replications.
    fn exchange(&mut self, spec: &Arc<str>, batch: BlockBatch) -> Result<Vec<Summary>, Failure> {
        let carried = self.spec.as_deref() == Some(&**spec);
        let request = block_request(
            (!carried).then_some(&**spec),
            batch.lo,
            batch.hi,
            batch.size,
        );
        let frame = encode_frame(&request).map_err(|e| Failure::new("write", e))?;
        self.reader
            .get_mut()
            .write_all(&frame)
            .map_err(|e| Failure::io("write", "frame write failed", &e))?;
        // Wait for the first reply byte on its own, so a connection the
        // server has closed is told apart from one that broke mid-reply.
        match self.reader.fill_buf() {
            Ok([]) => {
                return Err(Failure {
                    stale: true,
                    ..Failure::new("read", "server closed the connection without replying")
                })
            }
            Ok(_) => {}
            Err(e) => return Err(Failure::io("read", "frame length read failed", &e)),
        }
        let text = read_frame(&mut self.reader)
            .map_err(|e| Failure::new("read", e))?
            .ok_or_else(|| Failure::new("read", "server closed the connection without replying"))?;
        let summaries = decode_reply(&text, batch).map_err(|e| Failure::new("decode", e))?;
        self.spec = Some(Arc::clone(spec));
        Ok(summaries)
    }
}

/// The networked [`Worker`]: ships each leased run of blocks to one of a
/// set of `eacp serve` endpoints over kept-alive connections, in one
/// request, and deserializes the per-block partial [`Summary`]s.
///
/// **Connections.** The worker keeps an idle pool of connections per
/// endpoint. A transport try checks one out (dialing when the pool is
/// empty) and returns it only after a fully validated reply; any failure
/// drops it. A *reused* connection that fails before any reply byte — the
/// server closed or restarted since (EOF, reset, broken pipe; not a
/// timeout) — is redialed once on the same endpoint within the same try.
/// At most one connection per pool thread and endpoint stays open.
///
/// **Spec caching.** The job's wire spec (its queue section stripped) is
/// encoded once per job, memoised on spec equality. Each connection
/// remembers the spec it last carried, and a request on it omits the spec
/// when it would be unchanged — the server runs it against the job it
/// already built for that connection.
///
/// Failure handling is layered:
///
/// 1. **Within a lease attempt** — the worker tries every endpoint once,
///    starting from a rotation determined by `(batch, attempt)` so load
///    spreads and retries start elsewhere, with a short backoff between
///    tries. Any response is better than none: server-reported errors and
///    transport errors both advance the rotation.
/// 2. **Across lease attempts** — if all endpoints fail, the lease fails
///    with a provenance error naming the last endpoint, the phase
///    (resolve/connect/write/read/decode) and the attempt/try numbers; the
///    work queue re-leases the batch to a (possibly different) pool
///    worker, which tries a different rotation.
/// 3. **Final attempt** — at `with_fallback_attempt(n)` the batch runs
///    in-process instead, so the run completes (bit-identically) even with
///    every endpoint dead; the queue's lease deadline
///    ([`RemoteWorker::lease_timeout`]) bounds how long a wedged
///    transport can hold a batch before a peer reclaims it.
///
/// The per-operation timeout covers a whole reply, whatever its batch
/// length: the batch rule caps a batch at the replications of the largest
/// canonical block, so a batched reply takes no longer than the largest
/// one-block reply.
pub struct RemoteWorker {
    endpoints: Vec<String>,
    timeout: Duration,
    /// Lease attempt at (and after) which blocks run in-process; 0 never
    /// falls back.
    fallback_attempt: u32,
    /// Idle kept-alive connections, one list per endpoint.
    idle: Vec<Mutex<Vec<Conn>>>,
    /// The last job's spec and its encoded wire form.
    wire: Mutex<Option<(ExperimentSpec, Arc<str>)>>,
}

impl RemoteWorker {
    /// A worker over `endpoints` with a per-operation `timeout_ms` budget
    /// (connect, write and read each get this budget) and no in-process
    /// fallback.
    pub fn new(endpoints: Vec<String>, timeout_ms: u64) -> Self {
        Self {
            idle: endpoints.iter().map(|_| Mutex::default()).collect(),
            endpoints,
            timeout: Duration::from_millis(timeout_ms.max(1)),
            fallback_attempt: 0,
            wire: Mutex::default(),
        }
    }

    /// The worker a validated [`QueueSpec`] asks for: its endpoints and
    /// timeout, falling back in-process on the final lease attempt.
    pub fn from_queue_spec(queue: &QueueSpec) -> Self {
        Self::new(queue.endpoints.clone(), queue.timeout_ms)
            .with_fallback_attempt(queue.max_attempts.max(1))
    }

    /// Runs batches in-process from lease attempt `attempt` on (instead of
    /// failing the run once retry budgets are exhausted). 0 disables.
    pub fn with_fallback_attempt(mut self, attempt: u32) -> Self {
        self.fallback_attempt = attempt;
        self
    }

    /// A lease deadline safely above this worker's worst-case transport
    /// time for one attempt, so the queue only reclaims leases that are
    /// truly wedged. Worst case: every endpoint tried, each try paying a
    /// reused connection's write and read timeouts, then a redial's
    /// connect, write and read timeouts, plus backoff.
    pub fn lease_timeout(&self) -> Duration {
        let tries = self.endpoints.len().max(1) as u32;
        let per_try = self
            .timeout
            .saturating_mul(5)
            .saturating_add(Duration::from_millis(200));
        per_try
            .saturating_mul(tries.saturating_mul(2))
            .max(Duration::from_secs(1))
    }

    /// The wire form of `spec`: encoded once per job, the queue section
    /// stripped — the server runs the block directly, so shipping it along
    /// would be circular, and it is result-neutral anyway.
    fn wire_spec(&self, spec: &ExperimentSpec) -> Arc<str> {
        let mut memo = lock(&self.wire);
        if let Some((source, text)) = memo.as_ref() {
            if source == spec {
                return Arc::clone(text);
            }
        }
        let mut wire = spec.clone();
        wire.executor.queue = None;
        let text: Arc<str> = wire.to_json_string().into();
        *memo = Some((spec.clone(), Arc::clone(&text)));
        text
    }

    fn request_summaries(
        &self,
        index: usize,
        spec: &Arc<str>,
        batch: BlockBatch,
        attempt: u32,
        this_try: usize,
    ) -> Result<Vec<Summary>, SpecError> {
        let endpoint = &self.endpoints[index];
        // Every failure names where, when and at which phase it happened:
        // the endpoint, the lease attempt, the transport try, and the
        // protocol phase — `fleet-smoke` triage depends on this.
        let at = |phase: &str, detail: String| {
            SpecError::Io(format!(
                "remote endpoint {endpoint}: {phase} failed for blocks {}..{} [{}, {}) \
                 on lease attempt {attempt}, transport try {this_try}/{}: {detail}",
                batch.first,
                batch.first + batch.block_count(),
                batch.lo,
                batch.hi,
                self.endpoints.len()
            ))
        };
        let dial = || Conn::dial(endpoint, self.timeout).map_err(|e| at("connect", e.to_string()));
        let pooled = lock(&self.idle[index]).pop();
        let reused = pooled.is_some();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => dial()?,
        };
        let reply = match conn.exchange(spec, batch) {
            Err(failure) if reused && failure.stale => {
                conn = dial()?;
                conn.exchange(spec, batch)
            }
            reply => reply,
        };
        let summaries = reply.map_err(|f| at(f.phase, f.detail))?;
        lock(&self.idle[index]).push(conn);
        Ok(summaries)
    }
}

impl Worker for RemoteWorker {
    fn name(&self) -> &'static str {
        "remote"
    }

    /// One block is a one-block batch: the same request, the same checks.
    fn run_assignment(
        &self,
        job: &Job,
        assignment: BlockAssignment,
        attempt: u32,
    ) -> Result<Summary, SpecError> {
        let mut summaries = self.run_blocks(job, BlockBatch::single(assignment), attempt)?;
        Ok(summaries.pop().unwrap_or_else(Summary::empty))
    }

    fn run_blocks(
        &self,
        job: &Job,
        batch: BlockBatch,
        attempt: u32,
    ) -> Result<Vec<Summary>, SpecError> {
        if self.endpoints.is_empty()
            || (self.fallback_attempt != 0 && attempt >= self.fallback_attempt)
        {
            return InProcessWorker.run_blocks(job, batch, attempt);
        }
        let spec = job.spec().ok_or_else(|| {
            SpecError::invalid(
                "remote execution requires a spec-built job \
                 (Job::from_parts closures have no serializable form)",
            )
        })?;
        let spec = self.wire_spec(spec);
        let n = self.endpoints.len();
        let start = (batch.index as usize).wrapping_add(attempt as usize - 1) % n;
        let mut last_error = None;
        for t in 0..n {
            if t > 0 {
                std::thread::sleep(backoff(t));
            }
            match self.request_summaries((start + t) % n, &spec, batch, attempt, t + 1) {
                Ok(summaries) => return Ok(summaries),
                Err(e) => last_error = Some(e),
            }
        }
        Err(last_error.unwrap_or_else(|| SpecError::Io("remote worker has no endpoints".into())))
    }

    /// A batch is one request: its round trip is paid once per lease.
    fn serves_batches(&self) -> bool {
        !self.endpoints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eacp_spec::McSpec;

    fn spec(reps: u64) -> ExperimentSpec {
        let mut spec = ExperimentSpec::paper_nominal();
        spec.mc = McSpec {
            replications: reps,
            seed: 11,
            threads: 1,
        };
        spec
    }

    #[test]
    fn frame_codec_round_trips_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, "").unwrap();
        let mut r = buf.as_slice();
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF");
    }

    #[test]
    fn truncated_and_oversized_frames_are_errors_not_panics() {
        // Truncated length prefix.
        let mut r: &[u8] = &[0, 0];
        assert!(read_frame(&mut r).is_err());
        // Truncated payload.
        let mut r: &[u8] = &[0, 0, 0, 9, b'x'];
        assert!(read_frame(&mut r).is_err());
        // Oversized length prefix — rejected before allocating.
        let mut r: &[u8] = &[0xff, 0xff, 0xff, 0xff];
        let err = read_frame(&mut r).unwrap_err().to_string();
        assert!(err.contains("exceeds"), "{err}");
        // Non-UTF-8 payload.
        let mut r: &[u8] = &[0, 0, 0, 2, 0xc3, 0x28];
        assert!(read_frame(&mut r).is_err());
    }

    #[test]
    fn server_answers_ping_and_rejects_protocol_garbage() {
        let server = RemoteServer::bind("127.0.0.1:0").unwrap();
        ping(server.endpoint(), Duration::from_secs(5)).unwrap();
        // A version-less request gets an error response, not a hangup.
        let stream = connect(server.endpoint(), Duration::from_secs(5)).unwrap();
        let mut writer = &stream;
        write_frame(&mut writer, "{\"op\": \"ping\"}").unwrap();
        let mut reader = std::io::BufReader::new(&stream);
        let text = read_frame(&mut reader).unwrap().unwrap();
        assert!(text.contains("error"), "{text}");
        server.shutdown();
    }

    #[test]
    fn run_block_request_round_trips_a_partial_summary() {
        let spec = spec(64);
        let job = Job::from_spec(&spec).unwrap();
        let expected = run_workload_block(&job, 16, 48, &mut NoopObserver);
        let response = answer_request(&run_block_request(&spec, 16, 48));
        let batch = BlockBatch {
            index: 0,
            first: 0,
            lo: 16,
            hi: 48,
            size: 32,
        };
        let summaries = decode_reply(&response, batch).unwrap();
        assert_eq!(summaries, [expected], "lossless summary transport");
    }

    #[test]
    fn ping_is_answered_at_any_version_and_run_block_only_at_this_one() {
        for v in [1, 2, PROTOCOL_VERSION, 99] {
            let text = answer_request(&format!("{{\"v\": {v}, \"op\": \"ping\"}}"));
            let json = Json::parse(&text).unwrap();
            assert!(json.req("ok").unwrap().as_bool().unwrap(), "v{v}: {text}");
        }
        for v in [1, 2] {
            let request = run_block_request(&spec(8), 0, 8).replacen(
                &format!("\"v\": {PROTOCOL_VERSION}"),
                &format!("\"v\": {v}"),
                1,
            );
            let text = answer_request(&request);
            assert!(
                text.contains(&format!("unsupported protocol version {v}")),
                "{text}"
            );
        }
    }

    #[test]
    fn a_full_reply_stays_well_under_the_frame_cap() {
        // The most chunks a request may ask for: the largest replies a
        // valid request can produce, with one-replication chunks and with
        // chunks wide enough for every counter to take several digits.
        for block in [1, 16] {
            let reps = MAX_REQUEST_BLOCKS * block;
            let reply = answer_request(&run_blocks_request(&spec(reps), 0, reps, block));
            let json = Json::parse(&reply).unwrap();
            let summaries = json.req("summaries").unwrap().as_array().unwrap();
            assert_eq!(summaries.len() as u64, MAX_REQUEST_BLOCKS);
            assert!(reply.len() < MAX_FRAME_BYTES / 10, "{} bytes", reply.len());
        }
    }

    #[test]
    fn out_of_range_blocks_and_bad_ops_are_error_responses() {
        let text = answer_request(&run_block_request(&spec(10), 5, 20));
        assert!(text.contains("out of bounds"), "{text}");
        let text = answer_request(&versioned(vec![("op", "explode".into())]).pretty());
        assert!(text.contains("unknown op"), "{text}");
        let text = answer_request("not json at all");
        assert!(text.contains("error"), "{text}");
    }

    #[test]
    fn endpoint_rotation_spreads_blocks_and_retries() {
        let w = RemoteWorker::new(vec!["a:1".into(), "b:1".into(), "c:1".into()], 100);
        let order = |block: u64, attempt: u32| {
            let start = (block as usize).wrapping_add(attempt as usize - 1) % w.endpoints.len();
            (0..w.endpoints.len())
                .map(|t| w.endpoints[(start + t) % w.endpoints.len()].clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(order(0, 1), ["a:1", "b:1", "c:1"]);
        assert_eq!(order(1, 1), ["b:1", "c:1", "a:1"]);
        // A retry of the same block starts at the next endpoint.
        assert_eq!(order(0, 2), ["b:1", "c:1", "a:1"]);
    }

    #[test]
    fn lease_timeout_covers_the_transport_budget() {
        let w = RemoteWorker::new(vec!["a:1".into(), "b:1".into()], 250);
        // One attempt's worst case: 2 endpoints, each a stale reused
        // connection (write + read) then a redial (connect + write +
        // read), plus backoff.
        let worst = 2 * (5 * 250 + 100);
        assert!(w.lease_timeout() >= Duration::from_millis(worst));
        // Even a tiny budget keeps a sane floor.
        let w = RemoteWorker::new(vec!["a:1".into()], 1);
        assert!(w.lease_timeout() >= Duration::from_secs(1));
    }
}
