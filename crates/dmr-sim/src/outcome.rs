//! Result of one simulated task execution.

/// Why the executor gave up on a run without a normal completion or a
/// policy-requested abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum Anomaly {
    /// The policy kept returning zero-progress directives.
    NoProgress,
    /// The operation budget (safety cap) was exhausted.
    OpBudgetExhausted,
    /// The policy requested a speed level outside the DVS configuration.
    InvalidSpeed,
    /// The policy requested a negative or non-finite compute time.
    InvalidComputeTime,
}

impl std::fmt::Display for Anomaly {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Anomaly::NoProgress => "policy made no progress",
            Anomaly::OpBudgetExhausted => "operation budget exhausted",
            Anomaly::InvalidSpeed => "policy requested an invalid speed level",
            Anomaly::InvalidComputeTime => "policy requested an invalid compute time",
        };
        f.write_str(s)
    }
}

/// Everything measured about one run.
///
/// `energy` is total consumed energy (`processors · Σ V² · cycles`,
/// including checkpoint and rollback cycles). Runs that can no longer be
/// timely are stopped at the first operation boundary past the deadline, so
/// their energy is "energy spent by ≈`D`"; the paper's per-cell energy
/// averages only timely runs (hence `NaN` for cells with `P = 0`), which is
/// what [`crate::Summary`] reports as `energy_timely`.
#[derive(Debug, Clone, PartialEq)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub struct RunOutcome {
    /// The task executed all its work and the final comparison passed.
    pub completed: bool,
    /// Completion was at or before the deadline.
    pub timely: bool,
    /// Wall-clock time at which the run ended (completion, abort, or
    /// deadline cut-off).
    pub finish_time: f64,
    /// Total energy consumed.
    pub energy: f64,
    /// Faults injected (and absorbed into state divergence) during the run.
    pub faults: u32,
    /// Rollbacks performed (mismatches detected).
    pub rollbacks: u32,
    /// SCP (store-only) checkpoints performed.
    pub store_checkpoints: u32,
    /// CCP (compare-only) checkpoints performed.
    pub compare_checkpoints: u32,
    /// CSCP (compare-and-store) checkpoints performed.
    pub compare_store_checkpoints: u32,
    /// Computation segments executed.
    pub segments: u32,
    /// Speed switches performed.
    pub speed_switches: u64,
    /// Per-processor cycles executed at the fastest DVS level.
    pub cycles_at_fastest: f64,
    /// Per-processor cycles executed in total (all levels).
    pub total_cycles: f64,
    /// The policy explicitly aborted ("break with task failure").
    pub aborted: bool,
    /// Abnormal termination reason, if any (indicates a policy bug; never
    /// set by the policies shipped in `eacp-core`).
    pub anomaly: Option<Anomaly>,
}

impl RunOutcome {
    /// Total number of checkpoints of all kinds.
    pub fn checkpoints(&self) -> u32 {
        self.store_checkpoints + self.compare_checkpoints + self.compare_store_checkpoints
    }

    /// Fraction of executed cycles spent at the fastest level
    /// (0 when nothing ran).
    pub fn fast_fraction(&self) -> f64 {
        if self.total_cycles == 0.0 {
            0.0
        } else {
            self.cycles_at_fastest / self.total_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> RunOutcome {
        RunOutcome {
            completed: true,
            timely: true,
            finish_time: 10.0,
            energy: 100.0,
            faults: 1,
            rollbacks: 1,
            store_checkpoints: 3,
            compare_checkpoints: 2,
            compare_store_checkpoints: 4,
            segments: 9,
            speed_switches: 0,
            cycles_at_fastest: 25.0,
            total_cycles: 100.0,
            aborted: false,
            anomaly: None,
        }
    }

    #[test]
    fn checkpoint_total_and_fast_fraction() {
        let o = outcome();
        assert_eq!(o.checkpoints(), 9);
        assert_eq!(o.fast_fraction(), 0.25);
    }

    #[test]
    fn fast_fraction_of_empty_run_is_zero() {
        let mut o = outcome();
        o.total_cycles = 0.0;
        o.cycles_at_fastest = 0.0;
        assert_eq!(o.fast_fraction(), 0.0);
    }

    #[test]
    fn anomaly_display_is_nonempty() {
        for a in [
            Anomaly::NoProgress,
            Anomaly::OpBudgetExhausted,
            Anomaly::InvalidSpeed,
            Anomaly::InvalidComputeTime,
        ] {
            assert!(!a.to_string().is_empty());
        }
    }
}

impl std::fmt::Display for RunOutcome {
    /// One-line human-readable summary, e.g.
    /// `timely in 8925.4 (E=47408, 9 faults, 7 rollbacks, 183 checkpoints)`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let status = if let Some(a) = self.anomaly {
            return write!(f, "anomalous run at {:.1}: {a}", self.finish_time);
        } else if self.timely {
            "timely"
        } else if self.completed {
            "late"
        } else if self.aborted {
            "aborted"
        } else {
            "cut off"
        };
        write!(
            f,
            "{status} in {:.1} (E={:.0}, {} faults, {} rollbacks, {} checkpoints)",
            self.finish_time,
            self.energy,
            self.faults,
            self.rollbacks,
            self.checkpoints()
        )
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    fn base() -> RunOutcome {
        RunOutcome {
            completed: true,
            timely: true,
            finish_time: 100.5,
            energy: 4020.0,
            faults: 2,
            rollbacks: 1,
            store_checkpoints: 5,
            compare_checkpoints: 0,
            compare_store_checkpoints: 3,
            segments: 8,
            speed_switches: 1,
            cycles_at_fastest: 0.0,
            total_cycles: 100.0,
            aborted: false,
            anomaly: None,
        }
    }

    #[test]
    fn display_statuses() {
        let mut o = base();
        assert!(o.to_string().starts_with("timely in 100.5"));
        o.timely = false;
        assert!(o.to_string().starts_with("late"));
        o.completed = false;
        o.aborted = true;
        assert!(o.to_string().starts_with("aborted"));
        o.aborted = false;
        assert!(o.to_string().starts_with("cut off"));
        o.anomaly = Some(Anomaly::NoProgress);
        assert!(o.to_string().contains("anomalous"));
    }
}
