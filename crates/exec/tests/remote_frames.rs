//! Property and adversarial tests of the remote frame codec and protocol:
//! round-trip fidelity for arbitrary payload streams, the R4 contract that
//! corrupt, truncated or oversized input is always a `SpecError`, never a
//! panic or an unbounded allocation, the per-connection job cache — a
//! spec-less `run_block` runs against the spec most recently loaded on
//! its connection, or is an error response — multi-block replies: one
//! summary per `block`-sized chunk, each equal to that chunk run
//! in-process, within the request caps — and the protocol v3 reply
//! decoder, which turns every malformed reply into a typed error.

use eacp_exec::remote::{
    answer_request, decode_reply, ping_request, read_frame, run_block_request, run_blocks_request,
    write_frame, Session, MAX_FRAME_BYTES, MAX_REQUEST_BLOCKS, MAX_REQUEST_REPLICATIONS,
    PROTOCOL_VERSION,
};
use eacp_exec::{BlockAssignment, BlockBatch, InProcessWorker, Job, RemoteServer, Summary, Worker};
use eacp_spec::{ExperimentSpec, Json, McSpec, ToJson};
use proptest::prelude::*;
use std::io::BufReader;
use std::net::TcpStream;
use std::time::Duration;

fn spec(reps: u64, seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.mc = McSpec {
        replications: reps,
        seed,
        threads: 1,
    };
    spec
}

/// A `run_block` request without a spec.
fn spec_less_request(lo: u64, hi: u64, block: u64) -> String {
    format!(
        "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"run_block\", \"lo\": {lo}, \"hi\": {hi}, \
         \"block\": {block}}}"
    )
}

/// The batch a request for `[lo, hi)` in blocks of `block` asks for.
fn batch(lo: u64, hi: u64, block: u64) -> BlockBatch {
    BlockBatch {
        index: 0,
        first: 0,
        lo,
        hi,
        size: block,
    }
}

/// The summaries of the reply to a request for `[lo, hi)` in blocks of
/// `block`, read by the transport's own decoder, or `None` for an error
/// response.
fn summaries(reply: &str, lo: u64, hi: u64, block: u64) -> Option<Vec<Summary>> {
    let json = Json::parse(reply).unwrap();
    json.get("error")
        .is_none()
        .then(|| decode_reply(reply, batch(lo, hi, block)).expect("a well-formed v3 reply"))
}

/// One request of a connection's conversation.
#[derive(Debug, Clone)]
enum Request {
    /// A full request carrying spec `specs()[i]`, or — for the index past
    /// the end — a spec that does not build.
    Full(usize, u64, u64),
    SpecLess(u64, u64),
    /// A full request cut short, or arbitrary bytes.
    Garbage(String),
}

fn specs() -> [ExperimentSpec; 2] {
    [spec(8, 3), spec(12, 17)]
}

fn request_strategy() -> impl Strategy<Value = Request> {
    (
        0u8..4,
        0usize..=2,
        0u64..16,
        0u64..16,
        proptest::collection::vec(0u8..=255, 0..64),
    )
        .prop_map(|(kind, i, lo, hi, bytes)| match kind {
            0 => Request::Full(i, lo, hi),
            1 => Request::SpecLess(lo, hi),
            2 => {
                let full = run_block_request(&specs()[0], 0, 4);
                let cut = (bytes.len() * 13).min(full.len() - 1);
                Request::Garbage(full[..cut].to_owned())
            }
            _ => Request::Garbage(String::from_utf8_lossy(&bytes).into_owned()),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of payloads (including empty ones and arbitrary bytes
    /// laundered through UTF-8) reads back frame for frame, ending in a
    /// clean EOF.
    #[test]
    fn frame_streams_round_trip(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u8..=255, 0..512),
            0..6,
        ),
    ) {
        let payloads: Vec<String> = raw
            .iter()
            .map(|bytes| String::from_utf8_lossy(bytes).into_owned())
            .collect();
        let mut buf = Vec::new();
        for payload in &payloads {
            write_frame(&mut buf, payload).unwrap();
        }
        let mut r = buf.as_slice();
        for payload in &payloads {
            prop_assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(payload.as_str()));
        }
        prop_assert_eq!(read_frame(&mut r).unwrap(), None, "clean EOF after the last frame");
    }

    /// Feeding the reader arbitrary garbage terminates without a panic:
    /// every frame either parses, ends the stream cleanly, or errors.
    #[test]
    fn arbitrary_bytes_never_panic_the_reader(
        garbage in proptest::collection::vec(0u8..=255, 0..4096),
    ) {
        let mut r = garbage.as_slice();
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }

    /// Truncating a valid frame anywhere — inside the length prefix or
    /// inside the payload — is an error (or a clean EOF at offset zero),
    /// never a short read silently returned as data.
    #[test]
    fn truncated_frames_are_errors_not_short_reads(
        bytes in proptest::collection::vec(0u8..=255, 1..512),
        cut_percent in 0usize..100,
    ) {
        let payload = String::from_utf8_lossy(&bytes).into_owned();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = (buf.len() * cut_percent) / 100;
        prop_assert!(cut < buf.len());
        let mut r = &buf[..cut];
        match read_frame(&mut r) {
            Ok(None) => prop_assert_eq!(cut, 0, "EOF is only clean at a frame boundary"),
            Err(_) => {}
            Ok(Some(s)) => prop_assert!(false, "read a whole frame from a truncated stream: {:?}", s),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any sequence of full, spec-less and garbage requests through one
    /// connection's session never panics; every summary it returns equals
    /// the block run on the spec most recently loaded, and every request
    /// that should succeed does.
    #[test]
    fn session_answers_follow_the_most_recently_loaded_spec(
        requests in proptest::collection::vec(request_strategy(), 1..10),
    ) {
        let specs = specs();
        let jobs: Vec<Job> = specs.iter().map(|s| Job::from_spec(s).unwrap()).collect();
        let mut session = Session::default();
        let mut loaded: Option<usize> = None;
        for request in &requests {
            let (text, range): (String, Option<(u64, u64)>) = match *request {
                Request::Full(i, lo, hi) if i < specs.len() => {
                    loaded = Some(i);
                    (run_block_request(&specs[i], lo, hi), Some((lo, hi)))
                }
                Request::Full(_, lo, hi) => {
                    loaded = None;
                    let text = format!(
                        "{{\"v\": {PROTOCOL_VERSION}, \"op\": \"run_block\", \"lo\": {lo}, \
                         \"hi\": {hi}, \"block\": 1, \"spec\": {{\"name\": \"broken\"}}}}"
                    );
                    (text, None)
                }
                Request::SpecLess(lo, hi) => {
                    (spec_less_request(lo, hi, hi.saturating_sub(lo).max(1)), Some((lo, hi)))
                }
                Request::Garbage(ref text) => (text.clone(), None),
            };
            let reply = session.answer(&text);
            // A one-block request: one summary, or none for an empty range.
            let expected = match (loaded, range) {
                (Some(i), Some((lo, hi))) if lo <= hi && hi <= specs[i].mc.replications => {
                    let block = BlockAssignment { block: 0, lo, hi };
                    let summary = InProcessWorker.run_assignment(&jobs[i], block, 1).unwrap();
                    Some(if lo < hi { vec![summary] } else { Vec::new() })
                }
                _ => None,
            };
            let (lo, hi) = range.unwrap_or((0, 0));
            match (summaries(&reply, lo, hi, hi.saturating_sub(lo).max(1)), expected) {
                (Some(got), Some(expected)) => prop_assert_eq!(got, expected),
                (None, None) => prop_assert!(Json::parse(&reply).unwrap().get("error").is_some()),
                (got, want) => prop_assert!(
                    false,
                    "{:?} answered {:?}, expected {:?}",
                    request,
                    got,
                    want.is_some()
                ),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any `[lo, hi)` and `block`, a session answers one summary per
    /// `block`-sized chunk of the range, in order, and each equals that
    /// chunk run in-process.
    #[test]
    fn session_summaries_equal_each_canonical_chunk(
        lo in 0u64..40,
        len in 0u64..=40,
        block in 1u64..=48,
    ) {
        let spec = spec(40, 23);
        let job = Job::from_spec(&spec).unwrap();
        let hi = (lo + len).min(40);
        let reply = Session::default().answer(&run_blocks_request(&spec, lo, hi, block));
        let got = summaries(&reply, lo, hi, block).expect("an in-range request is answered");
        let chunks: Vec<(u64, u64)> = (lo..hi)
            .step_by(block as usize)
            .map(|a| (a, (a + block).min(hi)))
            .collect();
        prop_assert_eq!(got.len(), chunks.len());
        for (i, (summary, &(a, b))) in got.iter().zip(&chunks).enumerate() {
            let chunk = BlockAssignment { block: i as u64, lo: a, hi: b };
            prop_assert_eq!(summary, &InProcessWorker.run_assignment(&job, chunk, 1).unwrap());
        }
    }
}

#[test]
fn oversized_ranges_chunk_floods_and_block_zero_are_error_responses() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.endpoint()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    let mut exchange = |request: String| {
        write_frame(&mut writer, &request).unwrap();
        read_frame(&mut reader).unwrap().unwrap()
    };
    // A job just past the replication cap; nothing here runs it whole.
    let spec = spec(MAX_REQUEST_REPLICATIONS + 1, 31);
    let error = |reply: &str| {
        let json = Json::parse(reply).unwrap();
        json.req("error").unwrap().as_str().unwrap().to_owned()
    };
    let wide = error(&exchange(run_blocks_request(
        &spec,
        0,
        MAX_REQUEST_REPLICATIONS + 1,
        4096,
    )));
    assert!(wide.contains("replication request cap"), "{wide}");
    // A hostile chunk size: more summaries than a reply may carry.
    let flood = error(&exchange(run_blocks_request(
        &spec,
        0,
        MAX_REQUEST_BLOCKS + 1,
        1,
    )));
    assert!(flood.contains("block request cap"), "{flood}");
    let zero = error(&exchange(run_blocks_request(&spec, 0, 8, 0)));
    assert!(zero.contains("block size 0"), "{zero}");
    // The connection keeps serving, with the job it loaded.
    let job = Job::from_spec(&spec).unwrap();
    let got = summaries(&exchange(spec_less_request(0, 8, 4)), 0, 8, 4).unwrap();
    let want: Vec<Summary> = [(0, 4), (4, 8)]
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let chunk = BlockAssignment {
                block: i as u64,
                lo,
                hi,
            };
            InProcessWorker.run_assignment(&job, chunk, 1).unwrap()
        })
        .collect();
    assert_eq!(got, want);
    server.shutdown();
}

#[test]
fn spec_less_run_block_without_a_loaded_job_is_an_error_response() {
    // Stateless: a fresh session holds no job.
    let text = answer_request(&spec_less_request(0, 4, 4));
    let json = Json::parse(&text).unwrap();
    let error = json.req("error").unwrap().as_str().unwrap();
    assert!(error.contains("spec"), "{error}");
    assert!(json.get("summaries").is_none(), "{text}");

    // On a fresh connection: an error response, and the connection keeps
    // serving.
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.endpoint()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    write_frame(&mut writer, &spec_less_request(0, 4, 4)).unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap();
    assert!(
        Json::parse(&reply).unwrap().get("error").is_some(),
        "{reply}"
    );
    write_frame(&mut writer, &ping_request()).unwrap();
    let pong = read_frame(&mut reader).unwrap().unwrap();
    assert!(pong.contains("ok"), "{pong}");
    // Once a spec is loaded, spec-less requests run against it.
    let spec = spec(8, 5);
    write_frame(&mut writer, &run_block_request(&spec, 0, 4)).unwrap();
    let full = read_frame(&mut reader).unwrap().unwrap();
    write_frame(&mut writer, &spec_less_request(0, 4, 4)).unwrap();
    let cached = read_frame(&mut reader).unwrap().unwrap();
    assert!(full.contains("summaries"), "{full}");
    assert_eq!(full, cached);
    server.shutdown();
}

#[test]
fn oversized_declared_length_is_rejected_before_allocating() {
    let mut r: &[u8] = &((MAX_FRAME_BYTES as u32) + 1).to_be_bytes();
    let err = read_frame(&mut r).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
    // The all-ones prefix (4 GiB claim) too.
    let mut r: &[u8] = &[0xff; 4];
    assert!(read_frame(&mut r).is_err());
}

#[test]
fn oversized_payload_is_refused_at_the_writer() {
    let huge = "x".repeat(MAX_FRAME_BYTES + 1);
    let mut buf = Vec::new();
    let err = write_frame(&mut buf, &huge).unwrap_err().to_string();
    assert!(err.contains("exceeds"), "{err}");
    assert!(buf.is_empty(), "nothing must hit the wire");
}

#[test]
fn frame_exactly_at_the_cap_round_trips() {
    let max = "y".repeat(MAX_FRAME_BYTES);
    let mut buf = Vec::new();
    write_frame(&mut buf, &max).unwrap();
    let mut r = buf.as_slice();
    assert_eq!(read_frame(&mut r).unwrap(), Some(max));
}

#[test]
fn deeply_nested_frame_is_an_error_response_and_the_server_keeps_serving() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(server.endpoint()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = &stream;
    let mut reader = BufReader::new(&stream);
    // 2 MB of `[`: far deeper than a connection thread's stack could
    // recurse through.
    write_frame(&mut writer, &"[".repeat(2 << 20)).unwrap();
    let reply = read_frame(&mut reader).unwrap().unwrap();
    let json = Json::parse(&reply).unwrap();
    let error = json.req("error").unwrap().as_str().unwrap();
    assert!(error.contains("deeper than"), "{error}");
    // The process survived: a fresh connection still gets its pong.
    eacp_exec::remote::ping(server.endpoint(), Duration::from_secs(5)).unwrap();
    server.shutdown();
}

/// A good two-block reply with `edit` applied to its `summaries` list,
/// re-encoded.
fn tampered(good: &str, edit: impl FnOnce(&mut Vec<Json>)) -> String {
    let mut json = Json::parse(good).unwrap();
    let Json::Object(fields) = &mut json else {
        panic!("a reply is an object: {good}")
    };
    let (_, Json::Array(list)) = fields.iter_mut().find(|(k, _)| k == "summaries").unwrap() else {
        panic!("summaries is a list: {good}")
    };
    edit(list);
    json.pretty()
}

/// The raw parts of summary `i`.
fn parts(list: &mut [Json], i: usize) -> &mut Vec<Json> {
    match &mut list[i] {
        Json::Array(parts) => parts,
        other => panic!("a summary is an array: {other:?}"),
    }
}

/// Every malformed reply to a `run_block` is a typed decode error naming
/// what is wrong — never a panic, and never summaries.
#[test]
fn malformed_v3_replies_are_typed_decode_errors() {
    let spec = spec(8, 3);
    let two = batch(0, 8, 4);
    let good = answer_request(&run_blocks_request(&spec, 0, 8, 4));
    let job = Job::from_spec(&spec).unwrap();
    let want: Vec<Summary> = [(0, 4), (4, 8)]
        .iter()
        .enumerate()
        .map(|(i, &(lo, hi))| {
            let chunk = BlockAssignment {
                block: i as u64,
                lo,
                hi,
            };
            InProcessWorker.run_assignment(&job, chunk, 1).unwrap()
        })
        .collect();
    assert_eq!(decode_reply(&good, two).unwrap(), want);
    // Whitespace is free: the same reply pretty-printed decodes alike.
    assert_eq!(decode_reply(&tampered(&good, |_| ()), two).unwrap(), want);

    // A truncated reply, cut anywhere.
    for cut in 0..good.len() {
        let err = decode_reply(&good[..cut], two).unwrap_err().to_string();
        assert!(!err.is_empty(), "cut at {cut}");
    }
    let expect = |reply: String, needle: &str| {
        let err = decode_reply(&reply, two).unwrap_err().to_string();
        assert!(
            err.contains(needle),
            "{needle:?} not in {err:?} for {reply}"
        );
    };
    // The wrong number of entries: of summaries, of a summary's raw parts
    // and of an accumulator's.
    expect(
        tampered(&good, |l| drop(l.pop())),
        "carries 1 summaries, expected 2",
    );
    expect(
        tampered(&good, |l| l.push(l[0].clone())),
        "carries 3 summaries",
    );
    expect(tampered(&good, |l| drop(parts(l, 1).pop())), "12 raw parts");
    expect(
        tampered(&good, |l| parts(l, 0).push(Json::Int(0))),
        "12 raw parts",
    );
    expect(
        tampered(&good, |l| match &mut parts(l, 0)[7] {
            Json::Array(stats) => drop(stats.pop()),
            other => panic!("an accumulator is an array: {other:?}"),
        }),
        "5 raw parts",
    );
    // A non-number where a number belongs: a count, and a float.
    expect(
        tampered(&good, |l| parts(l, 0)[2] = Json::from("8")),
        "expected unsigned integer",
    );
    expect(
        tampered(&good, |l| match &mut parts(l, 1)[5] {
            Json::Array(stats) => stats[1] = Json::Bool(true),
            other => panic!("an accumulator is an array: {other:?}"),
        }),
        "expected number",
    );
    // A negative count, and a fractional one.
    expect(
        tampered(&good, |l| parts(l, 0)[1] = Json::Int(-1)),
        "out of u64 range",
    );
    expect(
        tampered(&good, |l| parts(l, 1)[0] = Json::Float(4.0)),
        "expected unsigned integer",
    );
    // A summary whose replications disagree with its block.
    expect(
        tampered(&good, |l| parts(l, 1)[0] = Json::Int(5)),
        "block 1 covers 5 replications, expected 4",
    );
    // The wrong shape altogether: a protocol v2 object summary, no list.
    expect(
        tampered(&good, |l| l[0] = want[0].to_json()),
        "expected array",
    );
    expect(format!("{{\"v\": {PROTOCOL_VERSION}}}"), "summaries");
    expect("[]".to_owned(), "summaries");
}

/// A protocol v2 `run_block` gets a typed version error, which the
/// decoder reports as the server's.
#[test]
fn a_v2_run_block_is_a_typed_version_error() {
    let v2 = run_blocks_request(&spec(8, 3), 0, 8, 4).replacen(
        &format!("\"v\": {PROTOCOL_VERSION}"),
        "\"v\": 2",
        1,
    );
    let reply = answer_request(&v2);
    let err = decode_reply(&reply, batch(0, 8, 4))
        .unwrap_err()
        .to_string();
    assert!(err.contains("server reported: "), "{err}");
    assert!(err.contains("unsupported protocol version 2"), "{err}");
    assert!(err.contains(&format!("speaks {PROTOCOL_VERSION}")), "{err}");
}
