//! The grid cell: one reproducible unit of Monte-Carlo work, of either
//! workload kind.
//!
//! The paper's results are grids of cells over (U, λ, k, cost model), and
//! this crate evaluates two kinds of cell: single-task [`ExperimentSpec`]
//! cells (a [`Job`] reduced into a [`Summary`]) and EDF-executive
//! [`ExecutiveSpec`] cells (an [`ExecutiveJob`] reduced into an
//! [`ExecutiveSummary`]). [`Cell`] is what both have in common — a report
//! with a JSON codec, a placement (which runner the spec asks for) and the
//! computation itself — on top of `eacp-spec`'s [`GridCell`] hook, which
//! gives both kinds one grid document ([`eacp_spec::Grid`]) and one way to
//! set a parameter. So the layers above it are written once: the sharded
//! sweep executor, merge and coverage ([`crate::shard`]), and the result
//! store's cache-or-compute path (`eacp-store`). A new workload kind costs
//! one impl of [`GridCell`] and one of this trait.
//!
//! [`Cell::compute_grid`] is the one way cells are computed, a whole grid
//! or one cell alone: single-task grids hand every Monte-Carlo cell to
//! one [`Runner::run_jobs`] call, executive grids every cell to one
//! [`Runner::run_executive_jobs`] call, and the completion hook lets the
//! store record each cell as soon as it is final. [`placement`] is the
//! one place a runner is built from a spec's queue section.

use crate::executive_mc::{ExecutiveJob, ExecutiveSummary};
use crate::job::Job;
use crate::queue::{NoopQueueObserver, QueueObserver, QueueRunner};
use crate::remote::RemoteWorker;
use crate::runner::{LocalRunner, Runner};
use eacp_sim::Summary;
use eacp_spec::{
    ExecutiveSpec, ExperimentSpec, FromJson, GridCell, Json, JsonWriter, QueueSpec, RunReport,
    ServeTier, SpecError, SummaryReport, ToJson,
};
use std::sync::Arc;

/// One grid cell of a workload kind. See the module docs.
pub trait Cell: GridCell + Sync {
    /// The exact, mergeable Monte-Carlo aggregate.
    type Summary: Clone + PartialEq + std::fmt::Debug;
    /// The serializable per-cell report.
    type Report: Clone + PartialEq + std::fmt::Debug + ToJson + FromJson;

    /// The spec's queue section and local thread count: what
    /// [`placement`] builds the cell's own runner from.
    fn placement(&self) -> (Option<&QueueSpec>, usize);

    /// Records a queue section in the spec, so an emitted spec reproduces
    /// a `--queue` scheduling choice.
    fn set_queue(&mut self, queue: QueueSpec);

    /// The Monte-Carlo replication count (executive horizons).
    fn replications(&self) -> u64;

    /// Sets the Monte-Carlo replication count and local thread count,
    /// where given (the CLI's `--reps` and `--threads`).
    fn set_mc(&mut self, replications: Option<u64>, threads: Option<usize>);

    /// Computes the cell on `runner`: the one-cell grid of
    /// [`Cell::compute_grid`]. With `analytic`, kinds that have a
    /// closed-form tier answer replication-invariant cells through it; the
    /// returned tier says which path produced the summary.
    ///
    /// # Errors
    ///
    /// Invalid specs and runner failures.
    fn compute(
        &self,
        runner: &dyn Runner,
        analytic: bool,
    ) -> Result<(Self::Summary, ServeTier), SpecError> {
        Self::compute_grid(
            std::slice::from_ref(self),
            &[0],
            runner,
            analytic,
            &|_, _, _| Ok(()),
        )?
        .pop()
        .ok_or_else(|| SpecError::invalid("runner returned no summary"))
    }

    /// Computes the cells `points` of a grid's expansion `cells` on
    /// `runner`, returning their summaries and serving tiers in `points`
    /// order — the one way a cell is computed, alone or in a grid. `done`
    /// is called once per cell, with the cell's position in `points`, as
    /// soon as its summary is final; a `done` error fails the run. Every
    /// cell's job is built before any runs, so an invalid cell fails the
    /// grid first. Single-task cells answer their analytic cells first and
    /// hand every other cell's job to [`Runner::run_jobs`] in one call,
    /// executive cells every job to [`Runner::run_executive_jobs`], so a
    /// work-queue runner leases the whole grid from one queue.
    ///
    /// # Errors
    ///
    /// A cell that fails, named by its grid index, a runner failure, or a
    /// `done` error.
    fn compute_grid(
        cells: &[Self],
        points: &[usize],
        runner: &dyn Runner,
        analytic: bool,
        done: &CellDone<'_, Self>,
    ) -> Result<Vec<(Self::Summary, ServeTier)>, SpecError>;

    /// The report of this cell holding `summary`. A pure function of its
    /// arguments, so a served summary reports byte-identically to a
    /// computed one.
    fn report(&self, summary: &Self::Summary, served: ServeTier) -> Self::Report;

    /// The spec a report embeds.
    fn of_report(report: &Self::Report) -> &Self;
}

/// The per-cell completion hook of [`Cell::compute_grid`]: the cell's
/// position among the cells computed, its final summary and the tier that
/// served it. Called from any thread, in any cell order.
pub type CellDone<'a, C> =
    dyn Fn(usize, &<C as Cell>::Summary, ServeTier) -> Result<(), SpecError> + Sync + 'a;

/// Builds the runner a queue section asks for: the local runner with
/// `threads` workers when there is none, the work-queue runner otherwise,
/// reporting its leases, retries and completions to `observer`, and —
/// with endpoints — the remote fleet (leased blocks ship to `eacp serve`
/// processes, wedged leases are reclaimed on a deadline, and the final
/// attempt falls back in-process). Every choice is bit-identical.
///
/// # Errors
///
/// An invalid queue section.
pub fn placement(
    queue: Option<&QueueSpec>,
    threads: usize,
    observer: Arc<dyn QueueObserver>,
) -> Result<Box<dyn Runner>, SpecError> {
    let Some(q) = queue else {
        return Ok(Box::new(LocalRunner::new(threads)));
    };
    q.validate()?;
    let runner = QueueRunner::new(q.workers)
        .with_max_attempts(q.max_attempts)
        .with_observer(observer);
    if q.endpoints.is_empty() {
        return Ok(Box::new(runner));
    }
    let worker = RemoteWorker::from_queue_spec(q);
    let lease_timeout = worker.lease_timeout();
    Ok(Box::new(
        runner.with_worker(worker).with_lease_timeout(lease_timeout),
    ))
}

/// Computes one cell on `runner` and wraps it as the cell's report — the
/// unit of work of the sweep executors.
///
/// # Errors
///
/// See [`Cell::compute`].
pub fn run_point_tiered<C: Cell>(
    runner: &dyn Runner,
    cell: &C,
    analytic: bool,
) -> Result<C::Report, SpecError> {
    let (summary, served) = cell.compute(runner, analytic)?;
    Ok(cell.report(&summary, served))
}

/// Runs one cell end to end on the runner its own spec places it on
/// ([`placement`]), returning the exact summary (for bit-identical
/// comparisons) and the serializable report. `analytic = false` (the
/// CLI's `--no-analytic`) forces the full Monte-Carlo loop.
///
/// # Errors
///
/// An invalid spec or queue section, or a runner failure.
pub fn run_tiered<C: Cell>(cell: &C, analytic: bool) -> Result<(C::Summary, C::Report), SpecError> {
    let (queue, threads) = cell.placement();
    let runner = placement(queue, threads, Arc::new(NoopQueueObserver))?;
    let (summary, served) = cell.compute(runner.as_ref(), analytic)?;
    let report = cell.report(&summary, served);
    Ok((summary, report))
}

impl Cell for ExperimentSpec {
    type Summary = Summary;
    type Report = RunReport;

    fn placement(&self) -> (Option<&QueueSpec>, usize) {
        (self.executor.queue.as_ref(), self.mc.threads)
    }

    fn set_queue(&mut self, queue: QueueSpec) {
        self.executor.queue = Some(queue);
    }

    fn replications(&self) -> u64 {
        self.mc.replications
    }

    fn set_mc(&mut self, replications: Option<u64>, threads: Option<usize>) {
        if let Some(replications) = replications {
            self.mc.replications = replications;
        }
        if let Some(threads) = threads {
            self.mc.threads = threads;
        }
    }

    fn compute_grid(
        cells: &[Self],
        points: &[usize],
        runner: &dyn Runner,
        analytic: bool,
        done: &CellDone<'_, Self>,
    ) -> Result<Vec<(Summary, ServeTier)>, SpecError> {
        let mut served = Vec::with_capacity(points.len());
        let (mut jobs, mut job_positions) = (Vec::new(), Vec::new());
        for (position, &index) in points.iter().enumerate() {
            let cell = &cells[index];
            let job =
                Job::from_spec(cell).map_err(|e| SpecError::grid_point(index, cell.name(), e))?;
            match analytic.then(|| crate::serve_closed_form(&job)).flatten() {
                Some(summary) => {
                    done(position, &summary, ServeTier::Analytic)?;
                    served.push(Some((summary, ServeTier::Analytic)));
                }
                None => {
                    served.push(None);
                    jobs.push(job);
                    job_positions.push(position);
                }
            }
        }
        let mut computed = runner
            .run_jobs(&jobs, &|job, summary| {
                done(job_positions[job], summary, ServeTier::Mc)
            })?
            .into_iter();
        served
            .into_iter()
            .map(|served| match served {
                Some(served) => Ok(served),
                None => computed
                    .next()
                    .map(|summary| (summary, ServeTier::Mc))
                    .ok_or_else(|| SpecError::invalid("runner returned too few summaries")),
            })
            .collect()
    }

    fn report(&self, summary: &Summary, served: ServeTier) -> RunReport {
        RunReport {
            spec: self.clone(),
            policy_name: self.policy.policy_name().to_owned(),
            summary: SummaryReport::from_summary(summary),
            served,
            source: None,
        }
    }

    fn of_report(report: &RunReport) -> &Self {
        &report.spec
    }
}

/// One executive Monte-Carlo result: the spec that produced it, the
/// resolved per-task policy names, and the exact mergeable summary.
///
/// The embedded [`ExecutiveSummary`] serializes losslessly (raw
/// accumulator state), so a loaded report compares equal to — and
/// re-serializes byte-identical with — its recomputation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutiveMcReport {
    /// The validated spec the run was built from (provenance).
    pub spec: ExecutiveSpec,
    /// Resolved policy names, one per task.
    pub policy_names: Vec<String>,
    /// The exact Monte-Carlo aggregate.
    pub summary: ExecutiveSummary,
}

impl ToJson for ExecutiveMcReport {
    fn write_json(&self, w: &mut JsonWriter<'_>) {
        w.object(|w| {
            w.field("spec", &self.spec);
            w.field("policy_names", &self.policy_names);
            w.field("summary", &self.summary);
        });
    }
}

impl FromJson for ExecutiveMcReport {
    fn from_json(json: &Json) -> Result<Self, SpecError> {
        Ok(Self {
            spec: ExecutiveSpec::from_json(json.req("spec")?)?,
            policy_names: json
                .req("policy_names")?
                .as_array()?
                .iter()
                .map(|n| Ok(n.as_str()?.to_owned()))
                .collect::<Result<_, SpecError>>()?,
            summary: ExecutiveSummary::from_json(json.req("summary")?)?,
        })
    }
}

/// Executive cells have no closed-form tier: `analytic` is ignored and
/// every summary is served by the Monte-Carlo loop.
impl Cell for ExecutiveSpec {
    type Summary = ExecutiveSummary;
    type Report = ExecutiveMcReport;

    fn placement(&self) -> (Option<&QueueSpec>, usize) {
        match &self.mc {
            Some(mc) => (mc.queue.as_ref(), mc.threads),
            None => (None, eacp_spec::ExecutiveMcSpec::default().threads),
        }
    }

    fn set_queue(&mut self, queue: QueueSpec) {
        let mut mc = self.mc_or_default();
        mc.queue = Some(queue);
        self.mc = Some(mc);
    }

    /// The `mc` section's horizon count, its default when absent.
    fn replications(&self) -> u64 {
        self.mc
            .as_ref()
            .map_or(eacp_spec::ExecutiveMcSpec::default().replications, |mc| {
                mc.replications
            })
    }

    /// Leaves `mc` absent unless a count is given.
    fn set_mc(&mut self, replications: Option<u64>, threads: Option<usize>) {
        if replications.is_none() && threads.is_none() {
            return;
        }
        let mut mc = self.mc_or_default();
        if let Some(replications) = replications {
            mc.replications = replications;
        }
        if let Some(threads) = threads {
            mc.threads = threads;
        }
        self.mc = Some(mc);
    }

    /// Every job of the grid in one [`Runner::run_executive_jobs`] call.
    fn compute_grid(
        cells: &[Self],
        points: &[usize],
        runner: &dyn Runner,
        _analytic: bool,
        done: &CellDone<'_, Self>,
    ) -> Result<Vec<(ExecutiveSummary, ServeTier)>, SpecError> {
        let jobs = points
            .iter()
            .map(|&index| {
                let cell = &cells[index];
                ExecutiveJob::from_spec(cell)
                    .map_err(|e| SpecError::grid_point(index, cell.name(), e))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let summaries = runner.run_executive_jobs(&jobs, &|position, summary| {
            done(position, summary, ServeTier::Mc)
        })?;
        Ok(summaries
            .into_iter()
            .map(|summary| (summary, ServeTier::Mc))
            .collect())
    }

    fn report(&self, summary: &ExecutiveSummary, _served: ServeTier) -> ExecutiveMcReport {
        ExecutiveMcReport {
            spec: self.clone(),
            policy_names: self.policy.policy_names(self.tasks.len()),
            summary: summary.clone(),
        }
    }

    fn of_report(report: &ExecutiveMcReport) -> &Self {
        &report.spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noop() -> Arc<dyn QueueObserver> {
        Arc::new(NoopQueueObserver)
    }

    #[test]
    fn placement_follows_the_queue_section() {
        assert_eq!(placement(None, 3, noop()).unwrap().name(), "local");
        let queue = QueueSpec {
            workers: 2,
            ..Default::default()
        };
        assert_eq!(placement(Some(&queue), 0, noop()).unwrap().name(), "queue");
        let fleet = QueueSpec {
            endpoints: vec!["127.0.0.1:9".into()],
            ..queue.clone()
        };
        assert_eq!(placement(Some(&fleet), 0, noop()).unwrap().name(), "queue");
        let invalid = QueueSpec {
            max_attempts: 0,
            ..queue
        };
        assert!(placement(Some(&invalid), 0, noop()).is_err());
    }
}
