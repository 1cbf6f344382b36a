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
//! [`placement`] is the one place a runner is built from a spec's queue
//! section.

use crate::executive_mc::{ExecutiveJob, ExecutiveSummary};
use crate::job::Job;
use crate::queue::QueueRunner;
use crate::remote::RemoteWorker;
use crate::runner::{LocalRunner, Runner};
use crate::shard::PointReport;
use eacp_sim::Summary;
use eacp_spec::{
    ExecutiveSpec, ExperimentSpec, FromJson, GridCell, Json, JsonWriter, QueueSpec, RunReport,
    ServeTier, SpecError, SummaryReport, ToJson,
};

/// One grid cell of a workload kind. See the module docs.
pub trait Cell: GridCell {
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

    /// Computes the cell on `runner`. With `analytic`, kinds that have a
    /// closed-form tier answer replication-invariant cells through it;
    /// the returned tier says which path produced the summary.
    ///
    /// # Errors
    ///
    /// Invalid specs and runner failures.
    fn compute(
        &self,
        runner: &dyn Runner,
        analytic: bool,
    ) -> Result<(Self::Summary, ServeTier), SpecError>;

    /// The point reports of the cells `range` of a grid's expansion
    /// `cells`, computed on `runner`, in order — what a grid run calls once
    /// for all its cells. The default computes them one after another
    /// ([`run_point_tiered`]); single-task cells answer their analytic
    /// cells first and hand every other cell's job to [`Runner::run_jobs`]
    /// in one call.
    ///
    /// # Errors
    ///
    /// A cell that fails, named by its grid index, or a runner failure.
    fn compute_grid(
        cells: &[Self],
        range: std::ops::Range<usize>,
        runner: &dyn Runner,
        analytic: bool,
    ) -> Result<Vec<PointReport<Self>>, SpecError> {
        range
            .map(|index| {
                let cell = &cells[index];
                let report = run_point_tiered(runner, cell, analytic)
                    .map_err(|e| point_error(index, cell, e))?;
                Ok(PointReport { index, report })
            })
            .collect()
    }

    /// The report of this cell holding `summary`. A pure function of its
    /// arguments, so a served summary reports byte-identically to a
    /// computed one.
    fn report(&self, summary: &Self::Summary, served: ServeTier) -> Self::Report;

    /// The spec a report embeds.
    fn of_report(report: &Self::Report) -> &Self;
}

/// Builds the runner a queue section asks for: the local runner with
/// `threads` workers when there is none, the work-queue runner otherwise,
/// and — with endpoints — the remote fleet (leased blocks ship to `eacp
/// serve` processes, wedged leases are reclaimed on a deadline, and the
/// final attempt falls back in-process). Every choice is bit-identical.
///
/// # Errors
///
/// An invalid queue section.
pub fn placement(queue: Option<&QueueSpec>, threads: usize) -> Result<Box<dyn Runner>, SpecError> {
    let Some(q) = queue else {
        return Ok(Box::new(LocalRunner::new(threads)));
    };
    q.validate()?;
    let runner = QueueRunner::new(q.workers).with_max_attempts(q.max_attempts);
    if q.endpoints.is_empty() {
        return Ok(Box::new(runner));
    }
    let worker = RemoteWorker::from_queue_spec(q);
    let lease_timeout = worker.lease_timeout();
    Ok(Box::new(
        runner.with_worker(worker).with_lease_timeout(lease_timeout),
    ))
}

/// A grid cell's failure, naming its grid index and name.
pub(crate) fn point_error<C: GridCell>(index: usize, cell: &C, e: SpecError) -> SpecError {
    SpecError::invalid(format!("grid point {index} ({}): {e}", cell.name()))
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
    let runner = placement(queue, threads)?;
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

    fn compute(
        &self,
        runner: &dyn Runner,
        analytic: bool,
    ) -> Result<(Summary, ServeTier), SpecError> {
        let job = Job::from_spec(self)?;
        Ok(
            match analytic.then(|| crate::serve_closed_form(&job)).flatten() {
                Some(summary) => (summary, ServeTier::Analytic),
                None => (runner.run(&job)?, ServeTier::Mc),
            },
        )
    }

    fn compute_grid(
        cells: &[Self],
        range: std::ops::Range<usize>,
        runner: &dyn Runner,
        analytic: bool,
    ) -> Result<Vec<PointReport<Self>>, SpecError> {
        let mut served = Vec::with_capacity(range.len());
        let mut jobs = Vec::new();
        for index in range.clone() {
            let cell = &cells[index];
            let job = Job::from_spec(cell).map_err(|e| point_error(index, cell, e))?;
            match analytic.then(|| crate::serve_closed_form(&job)).flatten() {
                Some(summary) => served.push(Some(summary)),
                None => {
                    served.push(None);
                    jobs.push(job);
                }
            }
        }
        let mut computed = runner
            .run_jobs(&jobs)
            .map_err(|e| {
                SpecError::invalid(format!("grid points {}..{}: {e}", range.start, range.end))
            })?
            .into_iter();
        range
            .zip(served)
            .map(|(index, summary)| {
                let (summary, tier) = match summary {
                    Some(summary) => (summary, ServeTier::Analytic),
                    None => computed
                        .next()
                        .map(|summary| (summary, ServeTier::Mc))
                        .ok_or_else(|| SpecError::invalid("runner returned too few summaries"))?,
                };
                let report = cells[index].report(&summary, tier);
                Ok(PointReport { index, report })
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

    fn compute(
        &self,
        runner: &dyn Runner,
        _analytic: bool,
    ) -> Result<(ExecutiveSummary, ServeTier), SpecError> {
        let job = ExecutiveJob::from_spec(self)?;
        Ok((runner.run_executive(&job)?, ServeTier::Mc))
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

    #[test]
    fn placement_follows_the_queue_section() {
        assert_eq!(placement(None, 3).unwrap().name(), "local");
        let queue = QueueSpec {
            workers: 2,
            ..Default::default()
        };
        assert_eq!(placement(Some(&queue), 0).unwrap().name(), "queue");
        let fleet = QueueSpec {
            endpoints: vec!["127.0.0.1:9".into()],
            ..queue.clone()
        };
        assert_eq!(placement(Some(&fleet), 0).unwrap().name(), "queue");
        let invalid = QueueSpec {
            max_attempts: 0,
            ..queue
        };
        assert!(placement(Some(&invalid), 0).is_err());
    }
}
