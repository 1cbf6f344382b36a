//! Dynamic zero-allocation witness for the replication hot path.
//!
//! The audit crate's R3-alloc rule statically forbids allocation
//! constructors in the hot modules; this test proves the property at
//! runtime. A counting `#[global_allocator]` wraps the system allocator,
//! and after a short warmup the pooled [`Replicator`] must run every
//! spec scheme × fault-process combination without a single heap
//! allocation.
//!
//! Lives behind the `alloc-count` feature (see `[[test]]` in Cargo.toml)
//! so the wrapper allocator never taxes ordinary test runs:
//!
//! ```text
//! cargo test -p eacp-exec --features alloc-count --test zero_alloc --release
//! ```
//!
//! This is an integration test rather than a unit test on purpose: the
//! library forbids `unsafe_code`, while `GlobalAlloc` is an unsafe trait;
//! an integration test is its own crate root, so the library's guarantee
//! stays intact.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use eacp_exec::{ExecutiveJob, Job, Replicate, Workload};
use eacp_sim::NoopObserver;
use eacp_spec::{
    ExecutiveMcSpec, ExecutiveSpec, ExperimentSpec, FaultSpec, McSpec, PolicyAssignment,
    PolicySpec, TaskSetSpec,
};

/// Counts every allocation and reallocation. Deallocations are free:
/// a hot loop that frees without allocating cannot grow the count.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static LAST_SIZE: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LAST_SIZE.store(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LAST_SIZE.store(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Mirror of the golden-identity matrix: one representative of every
/// stochastic fault process plus the deterministic schedule variants.
fn fault_specs() -> Vec<(&'static str, FaultSpec)> {
    vec![
        ("poisson", FaultSpec::Poisson { lambda: 2e-3 }),
        // Fault-dense rates: most commit windows end at a mismatch.
        ("poisson-dense", FaultSpec::Poisson { lambda: 7e-3 }),
        ("poisson-densest", FaultSpec::Poisson { lambda: 2.1e-2 }),
        (
            "weibull",
            FaultSpec::Weibull {
                shape: 0.7,
                scale: 700.0,
            },
        ),
        (
            "burst",
            FaultSpec::Burst {
                quiet_rate: 1e-4,
                burst_rate: 2e-2,
                mean_quiet_dwell: 5_000.0,
                mean_burst_dwell: 500.0,
            },
        ),
        (
            "phased",
            FaultSpec::Phased {
                phases: vec![(4_000.0, 5e-4), (1_000.0, 5e-3)],
                repeat: true,
            },
        ),
    ]
}

fn witness_spec(tag: &str, name: &str, faults: FaultSpec) -> ExperimentSpec {
    let mut spec = ExperimentSpec::paper_nominal();
    spec.name = format!("zero-alloc-{tag}-{name}");
    spec.policy = PolicySpec::from_tag(tag, 1.4e-3, 5, 0).expect("known scheme tag");
    spec.faults = faults;
    spec.mc = McSpec {
        replications: 64,
        seed: 77,
        threads: 1,
    };
    spec
}

const WARMUP: u64 = 16;
const MEASURED: u64 = 32;

/// Harness-free entry point (`harness = false`): libtest runs each test
/// on a spawned thread while its main thread keeps allocating, which
/// would race the counter. Here the whole process is the measurement.
fn main() {
    replication_loop_never_allocates_after_warmup();
    executive_horizons_never_allocate_after_warmup();
    batched_sampling_never_allocates_after_warmup();
    println!(
        "zero-alloc witness: ok ({} schemes × {} fault processes + executive horizons \
         + batched sampling)",
        PolicySpec::TAGS.len(),
        fault_specs().len()
    );
}

/// The batched fault sampler in isolation: once the first refill has
/// reserved the block buffer, draining whole batches across resets —
/// including the constant-block refill path every `next_fault()` miss
/// takes — must not touch the allocator. Rates are high enough that a
/// drain crosses several refills.
fn batched_sampling_never_allocates_after_warmup() {
    use eacp_faults::{BatchedFaults, FaultProcess};

    for (fault_name, fault_spec) in fault_specs() {
        let kind = fault_spec.build(77).expect("valid witness fault spec");
        let mut batched = BatchedFaults::new(kind);
        // Warmup: first drains reserve the batch buffer.
        for seed in 0..WARMUP {
            batched.reset(seed);
            for _ in 0..64 {
                if !batched.next_fault().is_finite() {
                    break;
                }
            }
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        let mut drawn = 0u64;
        for seed in WARMUP..WARMUP + MEASURED {
            batched.reset(seed);
            for _ in 0..64 {
                if !batched.next_fault().is_finite() {
                    break;
                }
                drawn += 1;
            }
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "batched sampling × {fault_name}: {} allocation(s) over {MEASURED} seeded \
             drains (last size {})",
            after - before,
            LAST_SIZE.load(Ordering::SeqCst)
        );
        assert!(
            drawn > MEASURED,
            "batched sampling × {fault_name}: measured window drew too few arrivals \
             ({drawn}) to cross a refill"
        );
    }
}

/// The executive Monte-Carlo hot path: after warmup, one seeded horizon
/// (fault-stream reset, per-task policy resets, a full hyperperiod of
/// EDF jobs, the accumulator fold) must not allocate — the scratch job
/// records, scenario template and policies are pooled in `replicator()`.
fn executive_horizons_never_allocate_after_warmup() {
    for (fault_name, fault_spec) in fault_specs() {
        let lambda = 1.4e-3;
        let mut spec = ExecutiveSpec::new(
            format!("zero-alloc-executive-{fault_name}"),
            TaskSetSpec::implicit([("sensor", 900.0, 4_000), ("control", 2_100.0, 8_000)]),
        );
        spec.faults = fault_spec;
        spec.policy = PolicyAssignment::PerTask(vec![
            PolicySpec::from_tag("a_d_s", lambda, 2, 0).expect("known scheme tag"),
            PolicySpec::from_tag("kft", lambda, 2, 0).expect("known scheme tag"),
        ]);
        spec.hyperperiods = 2;
        spec.seed = 77;
        spec.mc = Some(ExecutiveMcSpec {
            replications: WARMUP + MEASURED,
            threads: 1,
            queue: None,
        });
        let job = ExecutiveJob::from_spec(&spec).expect("valid witness spec");
        // Building the replicator is setup: it allocates the scenario
        // template, pooled scratch and policies exactly once.
        let mut rep = job.replicator();
        let mut acc = job.empty_acc();
        for r in 0..WARMUP {
            rep.run_one(r, &mut acc);
        }
        let before = ALLOCATIONS.load(Ordering::SeqCst);
        for r in WARMUP..WARMUP + MEASURED {
            rep.run_one(r, &mut acc);
        }
        let after = ALLOCATIONS.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            0,
            "executive × faults {fault_name}: {} allocation(s) in {MEASURED} measured \
             horizons (last size {})",
            after - before,
            LAST_SIZE.load(Ordering::SeqCst)
        );
        // Vacuity guard: the measured horizons must exercise the fault /
        // rollback path, exactly where a per-replication allocation would
        // hide.
        assert!(
            acc.faults > 0,
            "executive × faults {fault_name}: no faults over {} horizons",
            acc.horizons
        );
    }
}

fn replication_loop_never_allocates_after_warmup() {
    for tag in PolicySpec::TAGS {
        for (fault_name, fault_spec) in fault_specs() {
            let spec = witness_spec(tag, fault_name, fault_spec);
            let job = Job::from_spec(&spec).expect("valid witness spec");
            let mut obs = NoopObserver;
            // Building the replicator is setup: it allocates the pooled
            // scratch and the concrete policy/fault pair exactly once.
            let mut rep = job.replicator();
            for r in 0..WARMUP {
                rep.run_replication(r, &mut obs);
            }
            let before = ALLOCATIONS.load(Ordering::SeqCst);
            let mut faults_seen = 0u64;
            for r in WARMUP..WARMUP + MEASURED {
                let out = rep.run_replication(r, &mut obs);
                faults_seen += u64::from(out.faults);
            }
            let after = ALLOCATIONS.load(Ordering::SeqCst);
            assert_eq!(
                after - before,
                0,
                "scheme {tag} × faults {fault_name}: {} allocation(s) in {MEASURED} \
                 measured replications (last size {})",
                after - before,
                LAST_SIZE.load(Ordering::SeqCst)
            );
            // The witness is vacuous if the measured window never faults:
            // rollback/recovery is exactly the path most likely to allocate.
            assert!(
                faults_seen > 0,
                "scheme {tag} × faults {fault_name}: no faults in measured window"
            );
        }
    }
}
