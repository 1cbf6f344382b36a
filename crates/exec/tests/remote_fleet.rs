//! Fleet conformance and failure-mode tests for the remote transport:
//!
//! * N servers × M workers produce a `Summary` bit-identical to the
//!   sequential `LocalRunner` — the determinism contract the whole
//!   transport rides on — whatever the number of blocks a lease covers.
//! * A lease of several blocks is one `run_block` request, and a grid's
//!   cells are leased from one queue, in batches sized over the whole
//!   grid: a grid run equals the sequential local sweep, with seed axes,
//!   analytic cells, shards and a server killed mid-grid.
//! * Dead endpoints (connection refused), black holes (accepts, never
//!   replies) and a server killed mid-lease are all absorbed by endpoint
//!   rotation, the lease retry budget and the in-process fallback, on
//!   one-block and multi-block leases alike.
//! * Transport errors carry full provenance: endpoint, lease attempt,
//!   transport try, and protocol phase.
//! * Connections are kept alive: at most one per pool worker and
//!   endpoint, reused across blocks and jobs, redialed when the server
//!   behind them restarted, and closed when it shuts down.

use eacp_exec::remote::{read_frame, write_frame};
use eacp_exec::{
    Job, LocalRunner, QueueObserver, QueueRunner, QueueStatus, RemoteServer, RemoteWorker, Runner,
    ShardId,
};
use eacp_spec::{Axis, ExperimentSpec, Knob, McSpec, QueueSpec, SweepSpec};
use std::io::{BufReader, Read};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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

fn fleet_runner(
    endpoints: Vec<String>,
    workers: usize,
    timeout_ms: u64,
    max_attempts: u32,
) -> QueueRunner<RemoteWorker> {
    let worker = RemoteWorker::new(endpoints, timeout_ms).with_fallback_attempt(max_attempts);
    let lease_timeout = worker.lease_timeout();
    QueueRunner::new(workers)
        .with_max_attempts(max_attempts)
        .with_worker(worker)
        .with_lease_timeout(lease_timeout)
}

/// A `host:port` that refuses connections (bound, then released).
fn closed_port() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = listener.local_addr().unwrap().to_string();
    drop(listener);
    endpoint
}

#[test]
fn two_servers_times_1_4_and_16_workers_match_local_runner() {
    let s1 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let s2 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let endpoints = vec![s1.endpoint().to_owned(), s2.endpoint().to_owned()];
    let spec = spec(640, 7);
    let job = Job::from_spec(&spec).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    for workers in [1usize, 4, 16] {
        let fleet = fleet_runner(endpoints.clone(), workers, 5_000, 3)
            .run(&job)
            .unwrap();
        assert_eq!(fleet, reference, "2 servers x {workers} workers");
    }
}

/// Counts leases; a lease is one batch of consecutive canonical blocks.
#[derive(Default)]
struct LeaseCount(AtomicU64);

impl QueueObserver for LeaseCount {
    fn on_lease(&self, _worker: usize, _index: usize, _attempt: u32, _status: QueueStatus) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

#[test]
fn batches_of_one_two_and_more_blocks_match_local_runner() {
    let s1 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let s2 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let endpoints = vec![s1.endpoint().to_owned(), s2.endpoint().to_owned()];
    let mut lengths = Vec::new();
    // 200 reps: 13 blocks of 16; 640: 40 of 16; 2017: 64 of 32, the last
    // holding one replication.
    for (reps, block) in [(200u64, 16u64), (640, 16), (2017, 32)] {
        let job = Job::from_spec(&spec(reps, reps)).unwrap();
        let reference = LocalRunner::new(1).run(&job).unwrap();
        let blocks = reps.div_ceil(block);
        for workers in [1usize, 2, 4, 16] {
            let leases = LeaseCount::default();
            let fleet = fleet_runner(endpoints.clone(), workers, 5_000, 3)
                .run_with(&job, &leases)
                .unwrap();
            assert_eq!(fleet, reference, "{reps} reps x {workers} workers");
            // About four leases per pool worker.
            let pool = (workers as u64).min(blocks);
            let len = blocks.div_ceil(4 * pool);
            assert_eq!(leases.0.load(Ordering::SeqCst), blocks.div_ceil(len));
            lengths.push(len);
        }
    }
    assert!(lengths.contains(&1) && lengths.contains(&2), "{lengths:?}");
    assert!(lengths.iter().any(|&len| len > 2), "{lengths:?}");
}

#[test]
fn one_run_block_request_per_batch_not_per_block() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let proxy = CountingProxy::new(server.endpoint());
    // 1024 replications = 64 canonical blocks of 16; 2 workers lease them
    // in 8 batches of 8.
    let job = Job::from_spec(&spec(1024, 19)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let leases = LeaseCount::default();
    let runner = fleet_runner(vec![proxy.endpoint.clone()], 2, 5_000, 3);
    assert_eq!(runner.run_with(&job, &leases).unwrap(), reference);
    let leases = leases.0.load(Ordering::SeqCst);
    assert_eq!(leases, 8);
    assert_eq!(proxy.run_block_requests(), leases as usize);
}

#[test]
fn failure_schedules_on_multi_block_batches_match_local_runner() {
    // One worker leases 100 replications (7 blocks of 16) in 4 batches,
    // 3 of them 2 blocks long.
    let job = Job::from_spec(&spec(100, 29)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    // A server killed mid-lease, then refusing connections.
    let live = RemoteServer::bind("127.0.0.1:0").unwrap();
    let killer = TcpListener::bind("127.0.0.1:0").unwrap();
    let killer_endpoint = killer.local_addr().unwrap().to_string();
    let kill = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = killer.accept() {
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
        }
    });
    let endpoints = vec![killer_endpoint, live.endpoint().to_owned()];
    let fleet = fleet_runner(endpoints, 1, 2_000, 3).run(&job).unwrap();
    assert_eq!(fleet, reference, "mid-lease kill");
    kill.join().unwrap();
    // A black hole: the first attempt times out, the second runs
    // in-process.
    let hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = hole.local_addr().unwrap().to_string();
    let fleet = fleet_runner(vec![endpoint], 1, 100, 2).run(&job).unwrap();
    assert_eq!(fleet, reference, "black hole");
    drop(hole);
    // No live server at all.
    let fleet = fleet_runner(vec![closed_port(), closed_port()], 1, 300, 2)
        .run(&job)
        .unwrap();
    assert_eq!(fleet, reference, "dead fleet");
}

#[test]
fn dead_endpoint_is_absorbed_by_rotation() {
    let live = RemoteServer::bind("127.0.0.1:0").unwrap();
    let endpoints = vec![closed_port(), live.endpoint().to_owned()];
    let job = Job::from_spec(&spec(200, 3)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let fleet = fleet_runner(endpoints, 4, 2_000, 3).run(&job).unwrap();
    assert_eq!(fleet, reference, "half-dead fleet still bit-identical");
}

#[test]
fn server_killed_mid_lease_is_recovered_by_the_retry_budget() {
    let live = RemoteServer::bind("127.0.0.1:0").unwrap();
    // A "server" that accepts one connection, reads the request, and dies
    // without replying — then its port refuses further connections. This
    // is a deterministic stand-in for SIGKILL mid-lease.
    let killer = TcpListener::bind("127.0.0.1:0").unwrap();
    let killer_endpoint = killer.local_addr().unwrap().to_string();
    let kill = std::thread::spawn(move || {
        if let Ok((mut conn, _)) = killer.accept() {
            let mut buf = [0u8; 4096];
            let _ = conn.read(&mut buf);
        }
        // Dropping the listener (and the half-read connection) closes the
        // port: every later connect is refused immediately.
    });
    let endpoints = vec![killer_endpoint, live.endpoint().to_owned()];
    let job = Job::from_spec(&spec(320, 5)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let fleet = fleet_runner(endpoints, 4, 2_000, 3).run(&job).unwrap();
    assert_eq!(fleet, reference, "mid-lease kill must not change a bit");
    kill.join().unwrap();
}

#[test]
fn black_hole_endpoint_times_out_and_falls_back_in_process() {
    // Bound but never accepted: connects land in the backlog and succeed,
    // writes buffer, reads time out — the wedged-transport case the lease
    // deadline and read timeout exist for.
    let hole = TcpListener::bind("127.0.0.1:0").unwrap();
    let endpoint = hole.local_addr().unwrap().to_string();
    let job = Job::from_spec(&spec(48, 9)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let fleet = fleet_runner(vec![endpoint], 2, 200, 2).run(&job).unwrap();
    assert_eq!(fleet, reference);
    drop(hole);
}

#[test]
fn fully_dead_fleet_degrades_to_in_process_execution() {
    let endpoints = vec![closed_port(), closed_port()];
    let job = Job::from_spec(&spec(64, 1)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let fleet = fleet_runner(endpoints, 3, 300, 2).run(&job).unwrap();
    assert_eq!(fleet, reference, "no servers at all still completes");
}

#[test]
fn transport_errors_carry_endpoint_attempt_and_phase_provenance() {
    let dead = closed_port();
    let job = Job::from_spec(&spec(16, 2)).unwrap();
    // No fallback: exhaust the budget so the provenance surfaces.
    let worker = RemoteWorker::new(vec![dead.clone()], 300);
    let err = QueueRunner::new(1)
        .with_max_attempts(2)
        .with_worker(worker)
        .run(&job)
        .unwrap_err()
        .to_string();
    assert!(err.contains(&dead), "endpoint missing: {err}");
    assert!(err.contains("connect failed"), "phase missing: {err}");
    assert!(err.contains("lease attempt 2"), "attempt missing: {err}");
    assert!(err.contains("transport try 1/1"), "try missing: {err}");
    assert!(err.contains("after 2 attempts"), "budget missing: {err}");
}

#[test]
fn endpoints_spec_routes_through_the_fleet_bit_identically() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let plain = spec(320, 5);
    let mut remote = plain.clone();
    remote.executor.queue = Some(QueueSpec {
        workers: 4,
        max_attempts: 3,
        endpoints: vec![server.endpoint().to_owned()],
        timeout_ms: 5_000,
    });
    let (a, report) = eacp_exec::run(&remote).unwrap();
    let (b, _) = eacp_exec::run(&plain).unwrap();
    assert_eq!(a, b, "spec-routed fleet run must equal the local run");
    // Provenance: the report records the fleet scheduling.
    let q = report.spec.executor.queue.expect("queue section preserved");
    assert_eq!(q.endpoints.len(), 1);
}

#[test]
fn remote_sweep_matches_sequential_sweep() {
    let s1 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let s2 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let mut base = spec(40, 11);
    base.name = "fleet-sweep".into();
    let sweep = SweepSpec {
        base,
        axes: vec![
            Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3]),
            Axis::new(Knob::K, vec![1, 5]),
        ],
    };
    let sequential = eacp_exec::run_sweep(&sweep, None, 1).unwrap();
    let runner = fleet_runner(
        vec![s1.endpoint().to_owned(), s2.endpoint().to_owned()],
        4,
        5_000,
        3,
    );
    let remote = eacp_exec::run_sweep_tiered(&sweep, None, &runner, true).unwrap();
    assert_eq!(remote, sequential, "grid bytes are location-independent");
}

/// The sweep over `base` with `axes`.
fn grid(base: ExperimentSpec, axes: Vec<Axis>) -> SweepSpec {
    SweepSpec { base, axes }
}

#[test]
fn a_grid_is_leased_from_one_queue_in_grid_wide_batches() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let proxy = CountingProxy::new(server.endpoint());
    // Four cells of 1,024 replications: 256 canonical blocks of 16. Two
    // workers lease them in 8 batches of 32 blocks, two per cell; leased
    // cell by cell, each cell took 8.
    let sweep = grid(
        spec(1024, 19),
        vec![
            Axis::new(Knob::Lambda, vec![1.0e-4, 1.4e-3]),
            Axis::new(Knob::K, vec![1, 5]),
        ],
    );
    let sequential = eacp_exec::run_sweep(&sweep, None, 1).unwrap();
    let runner = fleet_runner(vec![proxy.endpoint.clone()], 2, 5_000, 3);
    let fleet = eacp_exec::run_sweep_tiered(&sweep, None, &runner, true).unwrap();
    assert_eq!(fleet, sequential);
    assert_eq!(proxy.run_block_requests(), 8);
}

#[test]
fn fleet_grids_with_seeds_analytic_cells_shards_and_a_killed_server_match_the_local_sweep() {
    // Eight cells, two of them λ = 0 (served analytically), over a seed
    // axis.
    let sweep = grid(
        spec(200, 3),
        vec![
            Axis::new(Knob::Lambda, vec![0.0, 1.4e-3]),
            Axis::new(Knob::K, vec![1, 5]),
            Axis::new(Knob::Seed, vec![3, 8]),
        ],
    );
    let analytic = eacp_exec::run_sweep(&sweep, None, 1).unwrap();
    let served: Vec<_> = analytic
        .points
        .iter()
        .map(|p| p.report.served.as_str())
        .collect();
    assert_eq!(served.iter().filter(|&&s| s == "analytic").count(), 4);
    let s1 = RemoteServer::bind("127.0.0.1:0").unwrap();
    let s2 = RemoteServer::bind("127.0.0.1:0").unwrap();
    for shard in [None, Some(ShardId::new(1, 3).unwrap())] {
        let sequential = eacp_exec::run_sweep(&sweep, shard, 1).unwrap();
        for workers in [1usize, 4] {
            let endpoints = vec![s1.endpoint().to_owned(), s2.endpoint().to_owned()];
            let runner = fleet_runner(endpoints, workers, 5_000, 3);
            let fleet = eacp_exec::run_sweep_tiered(&sweep, shard, &runner, true).unwrap();
            assert_eq!(
                fleet, sequential,
                "{shard:?}, 2 servers x {workers} workers"
            );
            // The same grid with one server killed after its first
            // request.
            let dying = CountingProxy::dying_after(s1.endpoint(), 1);
            let endpoints = vec![dying.endpoint.clone(), s2.endpoint().to_owned()];
            let runner = fleet_runner(endpoints, workers, 5_000, 3);
            let fleet = eacp_exec::run_sweep_tiered(&sweep, shard, &runner, true).unwrap();
            assert_eq!(
                fleet, sequential,
                "{shard:?}, killed server, {workers} workers"
            );
            assert!(dying.run_block_requests() >= 2, "the server died mid-grid");
        }
    }
}

/// A TCP forwarder in front of one server that counts the connections it
/// accepts — the number of connections the client opened — and the
/// `run_block` request frames it forwards.
struct CountingProxy {
    endpoint: String,
    accepted: Arc<AtomicUsize>,
    run_blocks: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl CountingProxy {
    fn new(upstream: &str) -> Self {
        Self::dying_after(upstream, usize::MAX)
    }

    /// A proxy that forwards `requests` `run_block` requests, then dies
    /// like a killed server: the next request gets no reply, and every
    /// later connection is closed at once.
    fn dying_after(upstream: &str, requests: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let endpoint = listener.local_addr().unwrap().to_string();
        let accepted = Arc::new(AtomicUsize::new(0));
        let run_blocks = Arc::new(AtomicUsize::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let dead = Arc::new(AtomicBool::new(false));
        let accept = {
            let (accepted, run_blocks, stop, upstream) = (
                accepted.clone(),
                run_blocks.clone(),
                stop.clone(),
                upstream.to_owned(),
            );
            std::thread::spawn(move || {
                let mut pipes = Vec::new();
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let client = client.unwrap();
                    if dead.load(Ordering::SeqCst) {
                        continue;
                    }
                    let server = TcpStream::connect(&upstream).unwrap();
                    let counter = RequestCounter {
                        run_blocks: run_blocks.clone(),
                        dead: dead.clone(),
                        die_after: requests,
                    };
                    pipes.push(pipe_requests(
                        client.try_clone().unwrap(),
                        server.try_clone().unwrap(),
                        counter,
                    ));
                    pipes.push(pipe(server, client));
                }
                for p in pipes {
                    p.join().unwrap();
                }
            })
        };
        Self {
            endpoint,
            accepted,
            run_blocks,
            stop,
            accept: Some(accept),
        }
    }

    fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    fn run_block_requests(&self) -> usize {
        self.run_blocks.load(Ordering::SeqCst)
    }
}

/// Counts a proxy's `run_block` requests and kills it past `die_after`.
struct RequestCounter {
    run_blocks: Arc<AtomicUsize>,
    dead: Arc<AtomicBool>,
    die_after: usize,
}

/// Forwards request frames from `from` to `to` one by one, counting the
/// `run_block` ones, until EOF or the proxy dies; then passes the close
/// on.
fn pipe_requests(from: TcpStream, mut to: TcpStream, counter: RequestCounter) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let mut reader = BufReader::new(from);
        while let Ok(Some(frame)) = read_frame(&mut reader) {
            if frame.contains("\"op\": \"run_block\"")
                && counter.run_blocks.fetch_add(1, Ordering::SeqCst) >= counter.die_after
            {
                counter.dead.store(true, Ordering::SeqCst);
            }
            if counter.dead.load(Ordering::SeqCst) || write_frame(&mut to, &frame).is_err() {
                break;
            }
        }
        let _ = to.shutdown(Shutdown::Write);
    })
}

/// Copies `from` to `to` until EOF, then passes the close on.
fn pipe(mut from: TcpStream, mut to: TcpStream) -> JoinHandle<()> {
    std::thread::spawn(move || {
        let _ = std::io::copy(&mut from, &mut to);
        let _ = to.shutdown(Shutdown::Write);
    })
}

impl Drop for CountingProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(&self.endpoint);
        if let Some(accept) = self.accept.take() {
            accept.join().unwrap();
        }
    }
}

/// Records the queue's final retry count.
#[derive(Default)]
struct RetryCount(AtomicU64);

impl QueueObserver for RetryCount {
    fn on_complete(&self, _worker: usize, _index: usize, status: QueueStatus) {
        self.0.fetch_max(status.retries, Ordering::SeqCst);
    }

    fn on_retry(
        &self,
        _worker: usize,
        _index: usize,
        _attempt: u32,
        _error: &eacp_spec::SpecError,
        status: QueueStatus,
    ) {
        self.0.fetch_max(status.retries, Ordering::SeqCst);
    }
}

#[test]
fn pooled_connections_stay_within_one_per_worker_and_endpoint() {
    let servers = [
        RemoteServer::bind("127.0.0.1:0").unwrap(),
        RemoteServer::bind("127.0.0.1:0").unwrap(),
    ];
    let proxies: Vec<CountingProxy> = servers
        .iter()
        .map(|s| CountingProxy::new(s.endpoint()))
        .collect();
    let endpoints = proxies.iter().map(|p| p.endpoint.clone()).collect();
    // 1024 replications = 64 canonical blocks of 16.
    let job = Job::from_spec(&spec(1024, 21)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let runner = fleet_runner(endpoints, 4, 5_000, 3);
    assert_eq!(runner.run(&job).unwrap(), reference);
    let opened: usize = proxies.iter().map(CountingProxy::accepted).sum();
    assert!(
        opened <= 8,
        "2 endpoints x 4 workers opened {opened} connections"
    );
    drop(runner);
}

#[test]
fn restarted_server_is_redialed_without_a_lease_retry() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let endpoint = server.endpoint().to_owned();
    let job = Job::from_spec(&spec(256, 8)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let runner = fleet_runner(vec![endpoint.clone()], 2, 5_000, 3);
    assert_eq!(runner.run(&job).unwrap(), reference);
    // Every pooled connection now points at a dead server; a new one
    // listens on the same port.
    server.shutdown();
    let _restarted = RemoteServer::bind(&endpoint).unwrap();
    let retries = RetryCount::default();
    assert_eq!(runner.run_with(&job, &retries).unwrap(), reference);
    assert_eq!(
        retries.0.load(Ordering::SeqCst),
        0,
        "stale connections must be redialed within the transport try"
    );
}

#[test]
fn alternating_specs_share_one_workers_connections() {
    let server = RemoteServer::bind("127.0.0.1:0").unwrap();
    let proxy = CountingProxy::new(server.endpoint());
    let jobs = [
        Job::from_spec(&spec(96, 4)).unwrap(),
        Job::from_spec(&spec(160, 13)).unwrap(),
    ];
    let references: Vec<_> = jobs
        .iter()
        .map(|job| LocalRunner::new(1).run(job).unwrap())
        .collect();
    let runner = fleet_runner(vec![proxy.endpoint.clone()], 2, 5_000, 3);
    for round in 0..3 {
        for (job, reference) in jobs.iter().zip(&references) {
            assert_eq!(&runner.run(job).unwrap(), reference, "round {round}");
        }
    }
    assert!(proxy.accepted() <= 2, "{} connections", proxy.accepted());
}

#[test]
fn shutdown_closes_kept_alive_connections() {
    let a = RemoteServer::bind("127.0.0.1:0").unwrap();
    let b = RemoteServer::bind("127.0.0.1:0").unwrap();
    let endpoints = vec![a.endpoint().to_owned(), b.endpoint().to_owned()];
    let job = Job::from_spec(&spec(320, 6)).unwrap();
    let reference = LocalRunner::new(1).run(&job).unwrap();
    let runner = fleet_runner(endpoints, 3, 5_000, 3);
    assert_eq!(runner.run(&job).unwrap(), reference);
    // An idle kept-alive connection to A, with its handler running.
    let idle = TcpStream::connect(a.endpoint()).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut writer = &idle;
    write_frame(&mut writer, &eacp_exec::remote::ping_request()).unwrap();
    let mut reader = BufReader::new(&idle);
    assert!(read_frame(&mut reader).unwrap().unwrap().contains("ok"));
    a.shutdown();
    // Its handler has exited and closed the socket: a clean EOF, not a
    // read timeout.
    assert_eq!(read_frame(&mut reader).unwrap(), None);
    // The worker's pooled connections to A are gone too; B absorbs A's
    // blocks.
    assert_eq!(runner.run(&job).unwrap(), reference);
    drop(b);
}
