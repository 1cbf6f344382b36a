//! Mean execution time of one CSCP interval under the SCP and CCP schemes
//! (paper Eqs. (1) and (2)), and the optimal sub-checkpoint counts
//! (paper Fig. 2, procedures `num_SCP` / `num_CCP`).
//!
//! # Operational model
//!
//! One CSCP interval covers `T` time units of useful work, divided into `m`
//! equal segments of `T1 = T/m` (SCP scheme) or `T2 = T/m` (CCP scheme).
//! Sub-checkpoints are placed between segments, a CSCP at the end. Faults
//! are Poisson(λ) over useful computation; checkpoint costs are always paid
//! in full; a comparison detects any divergence that began before the
//! operation started.
//!
//! * **SCP scheme**: detection only at the terminal CSCP; rollback to the
//!   most recent *clean* SCP — so a fault wastes on average about half the
//!   interval plus its overheads.
//! * **CCP scheme**: detection at the first comparison after the fault —
//!   but rollback all the way to the interval start (nothing was stored).
//!
//! Both closed forms reproduce the limits the paper states in prose:
//! `R(T_sub = T) = (T + ts + tcp)·e^{λT}` (at `tr = 0`) and `R → ∞` as
//! `T_sub → 0⁺`. The exact recursions are validated against Monte-Carlo
//! simulation in the workspace integration tests.

use eacp_numerics::unimodal_integer_min;

/// Largest sub-checkpoint count considered by the optimizers.
const MAX_SUBDIVISIONS: u32 = 4096;

/// Cost and fault-rate parameters of the renewal analysis, all expressed in
/// wall-clock time at the *current* processor speed (`ts/f`, `tcp/f`,
/// `tr/f`, λ per time unit).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RenewalParams {
    /// `ts`: time to store the states of both processors.
    pub store_time: f64,
    /// `tcp`: time to compare the processors' states.
    pub compare_time: f64,
    /// `tr`: time to roll back to a consistent state.
    pub rollback_time: f64,
    /// `λ`: fault arrival rate.
    pub lambda: f64,
}

/// Whether a time is finite and non-negative (`-0.0` included).
/// `v >= 0.0 && v.is_finite()` is the same predicate, but compiles to an
/// integer class test; the range is two compares.
#[inline]
fn valid_time(v: f64) -> bool {
    (0.0..=f64::MAX).contains(&v)
}

impl RenewalParams {
    /// Creates parameters.
    ///
    /// # Panics
    ///
    /// Panics if any time is negative/non-finite or `lambda` is
    /// negative/NaN.
    pub fn new(store_time: f64, compare_time: f64, rollback_time: f64, lambda: f64) -> Self {
        for (name, v) in [
            ("store_time", store_time),
            ("compare_time", compare_time),
            ("rollback_time", rollback_time),
        ] {
            assert!(valid_time(v), "{name} must be non-negative and finite");
        }
        assert!(
            lambda >= 0.0 && !lambda.is_nan(),
            "lambda must be non-negative"
        );
        Self {
            store_time,
            compare_time,
            rollback_time,
            lambda,
        }
    }
}

/// Paper Eq. (1): mean execution time of one CSCP interval of length `t`
/// with SCPs every `t1` time units (closed-form renewal approximation).
///
/// ```text
/// R1(T1) = (T/T1)(T1 + ts) + tcp
///        + [ (T/T1)·(T + T1)/2 + (T/T1)·(ts + tr) + tcp ] · (e^{λT1} − 1)
/// ```
///
/// The first line is the fault-free cost; the second charges each expected
/// retry with the mean residual distance to the detecting CSCP
/// (`(T + T1)/2`), the re-executed stores, the comparison and the rollback.
///
/// # Panics
///
/// Panics unless `0 < t1 <= t` (with a small tolerance) and `t` is finite.
pub fn scp_interval_mean_time(t1: f64, t: f64, params: &RenewalParams) -> f64 {
    assert!(
        t > 0.0 && t.is_finite(),
        "interval length must be positive and finite"
    );
    assert!(
        t1 > 0.0 && t1 <= t * (1.0 + 1e-12),
        "sub-interval must be in (0, T]"
    );
    let m = t / t1;
    let ts = params.store_time;
    let tcp = params.compare_time;
    let tr = params.rollback_time;
    let fault_free = m * (t1 + ts) + tcp;
    let waste = m * (t + t1) / 2.0 + m * (ts + tr) + tcp;
    fault_free + waste * (params.lambda * t1).exp_m1()
}

/// Exact mean execution time of one CSCP interval under the SCP scheme with
/// `m` sub-intervals, by backward recursion over the last-good-SCP position.
///
/// For position `p` (segments already secured), `s = m − p` segments
/// remain; an attempt costs `s(T1 + ts) + tcp` and, if the first fault hits
/// relative segment `r`, leaves the system at position `p + r − 1` after a
/// rollback of `tr`:
///
/// ```text
/// E_p = s(T1 + ts) + tcp + Σ_{r=1..s} q_r (tr + E_{p+r−1}),
/// q_r = e^{−λ(r−1)T1} − e^{−λrT1},  R1(m) = E_0
/// ```
///
/// This is the ground truth the closed form approximates; the workspace
/// integration tests check it against Monte-Carlo simulation.
///
/// # Panics
///
/// Panics unless `m >= 1` and `t` is positive and finite.
pub fn scp_interval_mean_exact(m: u32, t: f64, params: &RenewalParams) -> f64 {
    assert!(m >= 1, "at least one segment is required");
    assert!(
        t > 0.0 && t.is_finite(),
        "interval length must be positive and finite"
    );
    let m = m as usize;
    let t1 = t / m as f64;
    let ts = params.store_time;
    let tcp = params.compare_time;
    let tr = params.rollback_time;
    let x = (-params.lambda * t1).exp(); // per-segment survival
    if x >= 1.0 {
        // Fault-free: single pass.
        return m as f64 * (t1 + ts) + tcp;
    }
    // e[p] = E_p; solve backwards from p = m − 1 down to 0.
    let mut e = vec![0.0_f64; m + 1];
    for p in (0..m).rev() {
        let s = m - p;
        let attempt = s as f64 * (t1 + ts) + tcp;
        let survive_all = x.powi(s as i32);
        // Σ_{r=2..s} q_r · E_{p+r−1}; q_r = x^{r−1}(1 − x).
        let mut cross = 0.0;
        let mut q = x * (1.0 - x); // q_2
        for r in 2..=s {
            cross += q * e[p + r - 1];
            q *= x;
        }
        let fail_any = 1.0 - survive_all;
        e[p] = (attempt + fail_any * tr + cross) / x;
    }
    e[0]
}

/// Paper Eq. (2): mean execution time of one CSCP interval of length `t`
/// with CCPs every `t2` time units (closed form, exact for the operational
/// model):
///
/// ```text
/// R2(T2) = (T2 + tcp)·(e^{λT} − 1)/(1 − e^{−λT2}) + ts·e^{λT2}
///        + tr·(e^{λT} − 1)
/// ```
///
/// # Panics
///
/// Panics unless `0 < t2 <= t` and `t` is finite.
pub fn ccp_interval_mean_time(t2: f64, t: f64, params: &RenewalParams) -> f64 {
    assert!(
        t > 0.0 && t.is_finite(),
        "interval length must be positive and finite"
    );
    assert!(
        t2 > 0.0 && t2 <= t * (1.0 + 1e-12),
        "sub-interval must be in (0, T]"
    );
    let ts = params.store_time;
    let tcp = params.compare_time;
    let tr = params.rollback_time;
    let lt = params.lambda * t;
    if lt < 1e-12 {
        return (t / t2) * (t2 + tcp) + ts;
    }
    let growth = lt.exp_m1(); // e^{λT} − 1
    let seg_fail = -(-params.lambda * t2).exp_m1(); // 1 − e^{−λT2}
    (t2 + tcp) * growth / seg_fail + ts * (params.lambda * t2).exp() + tr * growth
}

/// Exact mean execution time of one CSCP interval under the CCP scheme with
/// `m` sub-intervals, from the defining renewal sum (the algebraic closed
/// form [`ccp_interval_mean_time`] must agree to rounding):
///
/// ```text
/// R2(m) = A + e^{λmT2} Σ_{r=1..m} q_r W_r,
/// A = mT2 + m·tcp + ts,
/// W_r = r(T2 + tcp) + tr (+ ts when r = m)
/// ```
///
/// # Panics
///
/// Panics unless `m >= 1` and `t` is positive and finite.
pub fn ccp_interval_mean_exact(m: u32, t: f64, params: &RenewalParams) -> f64 {
    assert!(m >= 1, "at least one segment is required");
    assert!(
        t > 0.0 && t.is_finite(),
        "interval length must be positive and finite"
    );
    let mf = m as f64;
    let t2 = t / mf;
    let ts = params.store_time;
    let tcp = params.compare_time;
    let tr = params.rollback_time;
    let x = (-params.lambda * t2).exp();
    let a = mf * (t2 + tcp) + ts;
    if x >= 1.0 {
        return a;
    }
    let mut weighted = 0.0;
    let mut xr = 1.0; // x^{r−1}
    for r in 1..=m {
        let q = xr * (1.0 - x);
        let mut w = r as f64 * (t2 + tcp) + tr;
        if r == m {
            w += ts;
        }
        weighted += q * w;
        xr *= x;
    }
    // xr is now x^m.
    a + weighted / xr
}

/// How the sub-checkpoint count optimizers evaluate candidate counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeMethod {
    /// Minimize the paper's closed form (Eq. (1)/(2)) directly over the
    /// integer sub-division count. This computes the quantity Fig. 2's
    /// procedure (continuous golden-section minimization followed by the
    /// floor/ceil refinement) approximates — the `m` minimizing `R(T/m)` —
    /// exactly, in a handful of closed-form evaluations instead of ~45
    /// golden-section probes. `num_SCP`/`num_CCP` run on every adaptive
    /// replan (once per detected fault per replication), which made the
    /// old probe loop one of the hottest kernels of the whole simulator.
    /// This is the default (paper fidelity: same objective, same
    /// optimality guarantee, minus the continuous-search detour).
    #[default]
    PaperClosedForm,
    /// Direct integer search over the exact recursion (ablation variant;
    /// see the `ablations` bench).
    ExactRecursion,
}

/// Paper Fig. 2 (`num_SCP`): the number of sub-intervals `m` minimizing the
/// mean SCP-scheme execution time of a CSCP interval of length `t`.
///
/// # Panics
///
/// Panics unless `t` is positive and finite.
///
/// # Examples
///
/// ```
/// use eacp_core::analysis::{num_scp, OptimizeMethod, RenewalParams};
/// // Paper SCP parameters at f1: ts = 2, tcp = 20, λ = 0.0014.
/// let p = RenewalParams::new(2.0, 20.0, 0.0, 0.0014);
/// let m = num_scp(177.0, &p, OptimizeMethod::PaperClosedForm);
/// assert!((2..=6).contains(&m), "m = {m}");
/// ```
pub fn num_scp(t: f64, params: &RenewalParams, method: OptimizeMethod) -> u32 {
    optimize_subdivisions(
        t,
        method,
        |t_sub| scp_interval_mean_time(t_sub, t, params),
        |m| scp_interval_mean_exact(m, t, params),
    )
}

/// `num_CCP`: the number of sub-intervals `m` minimizing the mean
/// CCP-scheme execution time of a CSCP interval of length `t` (the paper
/// applies the Fig. 2 procedure to Eq. (2)).
///
/// # Panics
///
/// Panics unless `t` is positive and finite.
pub fn num_ccp(t: f64, params: &RenewalParams, method: OptimizeMethod) -> u32 {
    optimize_subdivisions(
        t,
        method,
        |t_sub| ccp_interval_mean_time(t_sub, t, params),
        |m| ccp_interval_mean_exact(m, t, params),
    )
}

fn optimize_subdivisions(
    t: f64,
    method: OptimizeMethod,
    closed: impl Fn(f64) -> f64,
    exact: impl Fn(u32) -> f64,
) -> u32 {
    assert!(
        t > 0.0 && t.is_finite(),
        "interval length must be positive and finite"
    );
    match method {
        OptimizeMethod::PaperClosedForm => {
            // R(T/m) is unimodal in m (it diverges at both ends and the
            // local-optimality tests pin the interior); the patience walk
            // finds the integer argmin Fig. 2's continuous minimization +
            // floor/ceil refinement approximates, at a fraction of the
            // closed-form evaluations.
            unimodal_integer_min(|m| closed(t / m as f64), 1, MAX_SUBDIVISIONS, 4).0
        }
        OptimizeMethod::ExactRecursion => {
            // Exact sequences are unimodal in m; a modest patience absorbs
            // floating-point plateaus.
            unimodal_integer_min(exact, 1, MAX_SUBDIVISIONS, 4).0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scp_params(lambda: f64) -> RenewalParams {
        RenewalParams::new(2.0, 20.0, 0.0, lambda)
    }

    #[test]
    fn time_check_is_finite_and_non_negative() {
        for v in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -5e-324,
            -0.0,
            0.0,
            5e-324,
            f64::MAX,
        ] {
            assert_eq!(valid_time(v), v >= 0.0 && v.is_finite(), "{v:?}");
        }
    }

    fn ccp_params(lambda: f64) -> RenewalParams {
        RenewalParams::new(20.0, 2.0, 0.0, lambda)
    }

    #[test]
    fn r1_limit_at_t1_equals_t_matches_paper() {
        // Paper: "Let T1 = T, we have R1(T1) = (T + ts + tcp)·e^{λT}".
        let p = scp_params(0.001);
        let t = 500.0;
        let expected = (t + 2.0 + 20.0) * (0.001_f64 * t).exp();
        assert!((scp_interval_mean_time(t, t, &p) - expected).abs() < 1e-9);
        // The exact recursion with m = 1 agrees too (tr = 0).
        assert!((scp_interval_mean_exact(1, t, &p) - expected).abs() < 1e-9);
    }

    #[test]
    fn r2_limit_at_t2_equals_t_matches_paper() {
        // Paper: "If T2 = T, then R2(T2) = (T + ts + tcp)·e^{λT}".
        let p = ccp_params(0.001);
        let t = 500.0;
        let expected = (t + 20.0 + 2.0) * (0.001_f64 * t).exp();
        assert!((ccp_interval_mean_time(t, t, &p) - expected).abs() < 1e-9);
        assert!((ccp_interval_mean_exact(1, t, &p) - expected).abs() < 1e-9);
    }

    #[test]
    fn r1_diverges_as_t1_shrinks() {
        // Paper: "If T1 → 0+, then R1(T1) = +∞".
        let p = scp_params(0.0014);
        let t = 500.0;
        let r_tiny = scp_interval_mean_time(t / 1e6, t, &p);
        let r_small = scp_interval_mean_time(t / 1e3, t, &p);
        let r_mid = scp_interval_mean_time(t / 4.0, t, &p);
        assert!(r_small > r_mid);
        assert!(r_tiny > 100.0 * r_small);
    }

    #[test]
    fn r2_diverges_as_t2_shrinks() {
        let p = ccp_params(0.0014);
        let t = 500.0;
        let r_tiny = ccp_interval_mean_time(t / 1e6, t, &p);
        let r_small = ccp_interval_mean_time(t / 1e3, t, &p);
        let r_mid = ccp_interval_mean_time(t / 4.0, t, &p);
        assert!(r_small > r_mid);
        assert!(r_tiny > 100.0 * r_small);
    }

    #[test]
    fn ccp_closed_form_equals_renewal_sum() {
        // The algebraic closed form and the defining sum are the same
        // quantity; check across m, λ, and interval lengths.
        for &lambda in &[1e-4, 1e-3, 5e-3] {
            let p = ccp_params(lambda);
            for &t in &[50.0, 177.0, 1000.0] {
                for m in 1..=12u32 {
                    let closed = ccp_interval_mean_time(t / m as f64, t, &p);
                    let sum = ccp_interval_mean_exact(m, t, &p);
                    let rel = (closed - sum).abs() / sum;
                    assert!(rel < 1e-10, "m={m} t={t} λ={lambda}: {closed} vs {sum}");
                }
            }
        }
    }

    #[test]
    fn ccp_closed_form_with_rollback_cost() {
        let p = RenewalParams::new(20.0, 2.0, 7.0, 1e-3);
        for m in 1..=8u32 {
            let t = 300.0;
            let closed = ccp_interval_mean_time(t / m as f64, t, &p);
            let sum = ccp_interval_mean_exact(m, t, &p);
            assert!((closed - sum).abs() / sum < 1e-10);
        }
    }

    #[test]
    fn r1_closed_form_tracks_exact_recursion() {
        // Eq. (1) is an approximation; it should stay within a few percent
        // of the exact recursion in the operating range the paper uses.
        let p = scp_params(0.0014);
        for &t in &[100.0, 177.0, 400.0] {
            for m in 1..=8u32 {
                let closed = scp_interval_mean_time(t / m as f64, t, &p);
                let exact = scp_interval_mean_exact(m, t, &p);
                let rel = (closed - exact).abs() / exact;
                assert!(rel < 0.08, "m={m} t={t}: closed={closed} exact={exact}");
            }
        }
    }

    #[test]
    fn exact_recursions_reduce_to_fault_free_at_zero_lambda() {
        let p = RenewalParams::new(2.0, 20.0, 0.0, 0.0);
        let t = 300.0;
        for m in 1..=6u32 {
            let ff_scp = t + m as f64 * 2.0 + 20.0;
            assert!((scp_interval_mean_exact(m, t, &p) - ff_scp).abs() < 1e-9);
        }
        let p2 = RenewalParams::new(20.0, 2.0, 0.0, 0.0);
        for m in 1..=6u32 {
            let ff_ccp = t + m as f64 * 2.0 + 20.0;
            assert!((ccp_interval_mean_exact(m, t, &p2) - ff_ccp).abs() < 1e-9);
        }
    }

    #[test]
    fn num_scp_matches_classic_store_spacing() {
        // Optimal store spacing ≈ sqrt(2·ts/λ): for ts = 2, λ = 0.0014
        // that is ≈ 53.5, so an interval of 177 should get m ≈ 3–4.
        let p = scp_params(0.0014);
        let m = num_scp(177.0, &p, OptimizeMethod::PaperClosedForm);
        assert!((2..=5).contains(&m), "m = {m}");
        let m_big = num_scp(1000.0, &p, OptimizeMethod::PaperClosedForm);
        assert!(m_big > m, "longer interval wants more SCPs");
    }

    #[test]
    fn num_scp_is_one_for_rare_faults() {
        // Nearly fault-free: extra stores only cost time.
        let p = scp_params(1e-7);
        assert_eq!(num_scp(177.0, &p, OptimizeMethod::PaperClosedForm), 1);
        assert_eq!(num_scp(177.0, &p, OptimizeMethod::ExactRecursion), 1);
    }

    #[test]
    fn num_ccp_is_one_for_rare_faults() {
        let p = ccp_params(1e-7);
        assert_eq!(num_ccp(177.0, &p, OptimizeMethod::PaperClosedForm), 1);
        assert_eq!(num_ccp(177.0, &p, OptimizeMethod::ExactRecursion), 1);
    }

    #[test]
    fn num_scp_paper_result_is_locally_optimal() {
        let p = scp_params(0.0016);
        for &t in &[120.0, 177.0, 350.0, 900.0] {
            let m = num_scp(t, &p, OptimizeMethod::PaperClosedForm);
            let r = |m: u32| scp_interval_mean_time(t / m as f64, t, &p);
            assert!(r(m) <= r(m + 1) + 1e-9, "t={t}, m={m}");
            if m > 1 {
                assert!(r(m) <= r(m - 1) + 1e-9, "t={t}, m={m}");
            }
        }
    }

    #[test]
    fn num_ccp_exact_is_locally_optimal() {
        let p = ccp_params(0.0016);
        for &t in &[120.0, 177.0, 350.0, 900.0] {
            let m = num_ccp(t, &p, OptimizeMethod::ExactRecursion);
            let r = |m: u32| ccp_interval_mean_exact(m, t, &p);
            assert!(r(m) <= r(m + 1) + 1e-9, "t={t}, m={m}");
            if m > 1 {
                assert!(r(m) <= r(m - 1) + 1e-9, "t={t}, m={m}");
            }
        }
    }

    #[test]
    fn exact_and_paper_optimizers_agree_closely() {
        // Eq. (1) is an approximation, so its minimizer can deviate from the
        // exact recursion's; across the paper's operating range they stay
        // within a factor of two (the resulting mean-time penalty is
        // negligible — quantified in the `ablations` bench).
        for &lambda in &[1e-4, 1.4e-3, 1.6e-3] {
            let p = scp_params(lambda);
            for &t in &[100.0, 200.0, 500.0] {
                let a = num_scp(t, &p, OptimizeMethod::PaperClosedForm);
                let b = num_scp(t, &p, OptimizeMethod::ExactRecursion);
                let ratio = a.max(b) as f64 / a.min(b) as f64;
                assert!(ratio <= 2.0, "λ={lambda} t={t}: paper={a} exact={b}");
                // And the paper's m never costs more than 3% extra mean
                // time relative to the exact optimum.
                let cost = |m: u32| scp_interval_mean_exact(m, t, &p);
                assert!(
                    cost(a) <= cost(b) * 1.03,
                    "λ={lambda} t={t}: paper={a} exact={b}"
                );
            }
        }
    }

    #[test]
    fn higher_lambda_wants_more_subcheckpoints() {
        let t = 400.0;
        let low = num_scp(t, &scp_params(2e-4), OptimizeMethod::PaperClosedForm);
        let high = num_scp(t, &scp_params(4e-3), OptimizeMethod::PaperClosedForm);
        assert!(high >= low);
        let low_c = num_ccp(t, &ccp_params(2e-4), OptimizeMethod::PaperClosedForm);
        let high_c = num_ccp(t, &ccp_params(4e-3), OptimizeMethod::PaperClosedForm);
        assert!(high_c >= low_c);
    }

    #[test]
    #[should_panic(expected = "interval length")]
    fn num_scp_rejects_zero_interval() {
        num_scp(0.0, &scp_params(1e-3), OptimizeMethod::PaperClosedForm);
    }

    #[test]
    #[should_panic(expected = "sub-interval")]
    fn r1_rejects_oversized_subinterval() {
        scp_interval_mean_time(200.0, 100.0, &scp_params(1e-3));
    }

    #[test]
    #[should_panic(expected = "lambda")]
    fn params_reject_negative_lambda() {
        RenewalParams::new(1.0, 1.0, 0.0, -1.0);
    }
}
