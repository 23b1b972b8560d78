//! Numerical helpers: quadrature, harmonic numbers and special functions.
//!
//! The paper's latency expectations are integrals of a survival function over
//! `[0, ∞)` with no closed form: the expected maximum of `n` Erlang variables
//! (Section 4.3.1) and the expected maximum over a job's tasks (Section
//! 3.2.1). The integrand is numerically benign (non-negative, monotone
//! decreasing, exponentially light tails). One panel walker sums it over
//! geometrically growing panels, and two adaptive panel rules serve two
//! callers:
//!
//! * [`integrate_to_infinity`] (adaptive Simpson) serves the DP's group
//!   terms ([`expected_max_erlang`](super::order_stats::expected_max_erlang)
//!   and kin). Those terms decide allocations, and persisted plan families
//!   store them: a reloaded family is accepted only when its recomputed
//!   base-state objective is bit-equal to the stored one. Their bits must
//!   not move without a family-record version, so they keep Simpson.
//! * `integrate_to_infinity_gk21` (adaptive 10/21-point Gauss–Kronrod,
//!   QUADPACK `qk21`, Piessens et al., 1983) serves the job-level estimate
//!   ([`JobLatencyEstimator::analytic_expected_latency`](crate::latency::JobLatencyEstimator::analytic_expected_latency)).
//!   It meets the same tolerance with fewer integrand evaluations, and its
//!   error estimate cannot stop early on a chance agreement the way
//!   Simpson's can (Gander & Gautschi, BIT 40, 2000).

use crate::error::{CoreError, Result};

/// Default absolute tolerance for adaptive quadrature.
pub const DEFAULT_TOLERANCE: f64 = 1e-9;

/// Maximum bisection depth of the adaptive panel rules.
const MAX_DEPTH: u32 = 48;

/// Abscissae of the 21-point Kronrod rule on `[-1, 1]`, largest first (the
/// centre is last). The odd-indexed ones are the 10-point Gauss nodes. This
/// table and the two weight tables are QUADPACK's `qk21` values rounded to
/// the nearest `f64`.
const GK21_NODES: [f64; 11] = [
    0.9956571630258081,
    0.9739065285171717,
    0.9301574913557082,
    0.8650633666889845,
    0.7808177265864169,
    0.6794095682990244,
    0.5627571346686047,
    0.4333953941292472,
    0.2943928627014602,
    0.14887433898163122,
    0.0,
];

/// Kronrod weights of [`GK21_NODES`].
const GK21_WEIGHTS: [f64; 11] = [
    0.011694638867371874,
    0.032558162307964725,
    0.054755896574351995,
    0.07503967481091996,
    0.0931254545836976,
    0.10938715880229764,
    0.12349197626206584,
    0.13470921731147334,
    0.14277593857706009,
    0.14773910490133849,
    0.1494455540029169,
];

/// Gauss weights of the 10-point nodes `GK21_NODES[1], [3], …, [9]`.
const G10_WEIGHTS: [f64; 5] = [
    0.06667134430868814,
    0.1494513491505806,
    0.21908636251598204,
    0.26926671930999635,
    0.29552422471475287,
];

/// The `n`-th harmonic number `H_n = 1 + 1/2 + ... + 1/n`.
///
/// The expected maximum of `n` i.i.d. `Exp(λ)` variables is `H_n / λ`
/// (used for single-round groups in Scenario II).
pub fn harmonic(n: u64) -> f64 {
    if n == 0 {
        return 0.0;
    }
    if n <= 1_000_000 {
        // Direct summation in reverse order to limit rounding error.
        let mut sum = 0.0;
        let mut i = n;
        while i >= 1 {
            sum += 1.0 / i as f64;
            i -= 1;
        }
        sum
    } else {
        // Asymptotic expansion: H_n = ln n + γ + 1/(2n) - 1/(12n²) + 1/(120n⁴)
        const EULER_MASCHERONI: f64 = 0.577_215_664_901_532_9;
        let nf = n as f64;
        nf.ln() + EULER_MASCHERONI + 1.0 / (2.0 * nf) - 1.0 / (12.0 * nf * nf)
            + 1.0 / (120.0 * nf.powi(4))
    }
}

/// Natural logarithm of `n!`, via direct summation for small `n` and the
/// Stirling series otherwise. Used to evaluate Erlang densities without
/// overflow for large shape parameters.
pub fn ln_factorial(n: u64) -> f64 {
    if n < 2 {
        return 0.0;
    }
    if n <= 256 {
        (2..=n).map(|i| (i as f64).ln()).sum()
    } else {
        let nf = n as f64;
        // Stirling: ln n! = n ln n - n + 0.5 ln(2πn) + 1/(12n) - 1/(360n³)
        nf * nf.ln() - nf + 0.5 * (2.0 * std::f64::consts::PI * nf).ln() + 1.0 / (12.0 * nf)
            - 1.0 / (360.0 * nf * nf * nf)
    }
}

/// Simpson's rule estimate of `∫_a^b f(x) dx` on a single panel, from the
/// endpoint and midpoint evaluations.
fn simpson(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

/// Recursive adaptive Simpson quadrature.
#[allow(clippy::too_many_arguments)]
fn adaptive_simpson_rec(
    f: &impl Fn(f64) -> f64,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: u32,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson(a, m, fa, flm, fm);
    let right = simpson(m, b, fm, frm, fb);
    let delta = left + right - whole;
    // A non-finite point cannot converge: return it for the panel walker to
    // reject instead of bisecting it down to `MAX_DEPTH`.
    if depth >= MAX_DEPTH || !delta.is_finite() || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_simpson_rec(f, a, m, fa, flm, fm, left, tol * 0.5, depth + 1)
            + adaptive_simpson_rec(f, m, b, fm, frm, fb, right, tol * 0.5, depth + 1)
    }
}

/// Adaptive Simpson quadrature of `f` over the finite interval `[a, b]`.
pub fn integrate(f: impl Fn(f64) -> f64, a: f64, b: f64, tol: f64) -> Result<f64> {
    if !(a.is_finite() && b.is_finite()) || b < a {
        return Err(CoreError::invalid_argument(format!(
            "integration bounds must be finite with b >= a (a={a}, b={b})"
        )));
    }
    if (b - a).abs() < f64::MIN_POSITIVE {
        return Ok(0.0);
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(CoreError::invalid_argument(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    if !(fa.is_finite() && fb.is_finite() && fm.is_finite()) {
        return Err(CoreError::invalid_argument(
            "integrand is not finite on the integration interval".to_owned(),
        ));
    }
    let whole = simpson(a, b, fa, fm, fb);
    Ok(adaptive_simpson_rec(&f, a, b, fa, fm, fb, whole, tol, 0))
}

/// The 21-point Kronrod and embedded 10-point Gauss estimates of
/// `∫_a^b f(x) dx`, sharing the Gauss nodes' evaluations.
fn gauss_kronrod_21(f: &impl Fn(f64) -> f64, a: f64, b: f64) -> (f64, f64) {
    let center = 0.5 * (a + b);
    let half = 0.5 * (b - a);
    let mut kronrod = GK21_WEIGHTS[10] * f(center);
    let mut gauss = 0.0;
    for (i, (&node, &weight)) in GK21_NODES[..10].iter().zip(&GK21_WEIGHTS).enumerate() {
        let dx = half * node;
        let pair = f(center - dx) + f(center + dx);
        kronrod += weight * pair;
        if i % 2 == 1 {
            gauss += G10_WEIGHTS[i / 2] * pair;
        }
    }
    (kronrod * half, gauss * half)
}

/// Recursive adaptive Gauss–Kronrod: accepts the Kronrod estimate once it is
/// within `tol` of the Gauss one, else bisects with half the tolerance on
/// each side.
fn adaptive_gk21_rec(f: &impl Fn(f64) -> f64, a: f64, b: f64, tol: f64, depth: u32) -> f64 {
    let (kronrod, gauss) = gauss_kronrod_21(f, a, b);
    if depth >= MAX_DEPTH || !kronrod.is_finite() || (kronrod - gauss).abs() <= tol {
        kronrod
    } else {
        let m = 0.5 * (a + b);
        adaptive_gk21_rec(f, a, m, 0.5 * tol, depth + 1)
            + adaptive_gk21_rec(f, m, b, 0.5 * tol, depth + 1)
    }
}

/// The panel walker both rules share: sums `panel(lo, hi)` over panels that
/// start at `scale` wide and grow by ×1.5, until (from the third panel on)
/// the latest part falls below `tol · max(|total|, 1)`. A panel whose sum is
/// not finite is an error.
fn walk_panels(
    mut panel: impl FnMut(f64, f64) -> Result<f64>,
    scale: f64,
    tol: f64,
) -> Result<f64> {
    if !(scale.is_finite() && scale > 0.0) {
        return Err(CoreError::invalid_argument(format!(
            "scale must be positive and finite, got {scale}"
        )));
    }
    if !(tol.is_finite() && tol > 0.0) {
        return Err(CoreError::invalid_argument(format!(
            "tolerance must be positive and finite, got {tol}"
        )));
    }
    let mut total = 0.0;
    let mut lo = 0.0;
    let mut width = scale;
    // Upper bound on panels: enough for the integrand to decay through
    // hundreds of e-foldings even for very heavy workloads.
    for index in 0..200 {
        let hi = lo + width;
        let part = panel(lo, hi)?;
        if !part.is_finite() {
            return Err(CoreError::invalid_argument(format!(
                "integrand is not finite on [{lo}, {hi}]"
            )));
        }
        total += part;
        if index >= 2 && part.abs() < tol * total.abs().max(1.0) {
            return Ok(total);
        }
        lo = hi;
        width *= 1.5;
    }
    Err(CoreError::IntegrationDidNotConverge {
        tolerance: tol,
        achieved: f64::NAN,
    })
}

/// Integrates a non-negative, eventually-decreasing function over `[0, ∞)`
/// with adaptive Simpson on each panel of the shared walker.
///
/// Used for `E[max] = ∫_0^∞ (1 - F(t)^n) dt`, whose integrand decays like
/// `n·e^{-λt}` for large `t`. The DP's group terms depend on its exact bits
/// (see the module docs).
pub fn integrate_to_infinity(f: impl Fn(f64) -> f64, scale: f64, tol: f64) -> Result<f64> {
    let panel_tol = tol.max(1e-13);
    walk_panels(|lo, hi| integrate(&f, lo, hi, panel_tol), scale, tol)
}

/// [`integrate_to_infinity`] with adaptive 10/21-point Gauss–Kronrod on each
/// panel: a panel is bisected, with half the tolerance per side, while its
/// Kronrod and Gauss estimates differ by more than the tolerance. Serves the
/// job-level latency estimate.
pub(crate) fn integrate_to_infinity_gk21(
    f: impl Fn(f64) -> f64,
    scale: f64,
    tol: f64,
) -> Result<f64> {
    let panel_tol = tol.max(1e-13);
    walk_panels(
        |lo, hi| Ok(adaptive_gk21_rec(&f, lo, hi, panel_tol, 0)),
        scale,
        tol,
    )
}

/// Simple trapezoidal integration over equally spaced samples; used in tests
/// and as a cross-check for the adaptive scheme.
pub fn trapezoid(f: impl Fn(f64) -> f64, a: f64, b: f64, steps: usize) -> f64 {
    assert!(steps >= 1, "at least one step is required");
    let h = (b - a) / steps as f64;
    let mut sum = 0.5 * (f(a) + f(b));
    for i in 1..steps {
        sum += f(a + h * i as f64);
    }
    sum * h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_small_values() {
        assert_eq!(harmonic(0), 0.0);
        assert!((harmonic(1) - 1.0).abs() < 1e-15);
        assert!((harmonic(2) - 1.5).abs() < 1e-15);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn harmonic_asymptotic_matches_direct_sum() {
        // The asymptotic branch kicks in above 1e6; compare it against the
        // direct branch just below the threshold extended by the next term.
        let direct = harmonic(1_000_000);
        let n = 1_000_001u64;
        let extended = direct + 1.0 / n as f64;
        let asymptotic = harmonic(n);
        assert!((extended - asymptotic).abs() < 1e-9);
    }

    #[test]
    fn ln_factorial_small_and_large() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120.0_f64.ln()).abs() < 1e-10);
        assert!((ln_factorial(10) - 3_628_800.0_f64.ln()).abs() < 1e-9);
        // Stirling branch against the direct branch at the boundary.
        let direct: f64 = (2..=300u64).map(|i| (i as f64).ln()).sum();
        assert!((ln_factorial(300) - direct).abs() / direct < 1e-10);
    }

    #[test]
    fn integrate_polynomial_exactly() {
        // ∫_0^2 x² dx = 8/3
        let v = integrate(|x| x * x, 0.0, 2.0, 1e-12).unwrap();
        assert!((v - 8.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn integrate_handles_degenerate_interval() {
        let v = integrate(|x| x, 1.0, 1.0, 1e-9).unwrap();
        assert_eq!(v, 0.0);
    }

    #[test]
    fn integrate_rejects_bad_input() {
        assert!(integrate(|x| x, 1.0, 0.0, 1e-9).is_err());
        assert!(integrate(|x| x, 0.0, f64::INFINITY, 1e-9).is_err());
        assert!(integrate(|x| x, 0.0, 1.0, 0.0).is_err());
        assert!(integrate(|_| f64::NAN, 0.0, 1.0, 1e-9).is_err());
    }

    #[test]
    fn integrate_to_infinity_exponential_survival() {
        // ∫_0^∞ e^{-2t} dt = 0.5
        let v = integrate_to_infinity(|t| (-2.0 * t).exp(), 1.0, 1e-10).unwrap();
        assert!((v - 0.5).abs() < 1e-7);
    }

    #[test]
    fn integrate_to_infinity_max_of_exponentials() {
        // ∫_0^∞ (1 - (1 - e^{-t})^3) dt = H_3 = 1 + 1/2 + 1/3
        let v = integrate_to_infinity(|t| 1.0 - (1.0 - (-t).exp()).powi(3), 1.0, 1e-10).unwrap();
        assert!((v - harmonic(3)).abs() < 1e-6);
    }

    #[test]
    fn gauss_kronrod_21_is_exact_on_polynomials_of_its_degree() {
        // The Kronrod rule is exact through degree 31, its Gauss half through
        // degree 19; ∫_1^3 x^d dx = (3^(d+1) − 1) / (d + 1).
        for degree in 0..=31 {
            let exact = (3.0_f64.powi(degree + 1) - 1.0) / f64::from(degree + 1);
            let (kronrod, gauss) = gauss_kronrod_21(&|x: f64| x.powi(degree), 1.0, 3.0);
            assert!(
                (kronrod - exact).abs() <= 1e-13 * exact,
                "degree {degree}: kronrod {kronrod} vs {exact}"
            );
            if degree <= 19 {
                assert!(
                    (gauss - exact).abs() <= 1e-13 * exact,
                    "degree {degree}: gauss {gauss} vs {exact}"
                );
            }
        }
    }

    #[test]
    fn gk21_walker_exponential_survival() {
        // ∫_0^∞ e^{-2t} dt = 0.5
        let v = integrate_to_infinity_gk21(|t| (-2.0 * t).exp(), 1.0, 1e-10).unwrap();
        assert!((v - 0.5).abs() < 1e-10);
    }

    #[test]
    fn gk21_walker_max_of_exponentials() {
        // ∫_0^∞ (1 - (1 - e^{-t})^3) dt = H_3 = 1 + 1/2 + 1/3
        let v =
            integrate_to_infinity_gk21(|t| 1.0 - (1.0 - (-t).exp()).powi(3), 1.0, 1e-10).unwrap();
        assert!((v - harmonic(3)).abs() < 1e-9);
    }

    #[test]
    fn non_finite_integrands_are_errors() {
        // A NaN band inside the first panel, away from Simpson's first three
        // points, and an infinity in a later panel.
        let band = |t: f64| {
            if (0.3..0.4).contains(&t) {
                f64::NAN
            } else {
                (-t).exp()
            }
        };
        let pole = |t: f64| if t > 2.0 { f64::INFINITY } else { (-t).exp() };
        assert!(integrate_to_infinity(band, 1.0, 1e-9).is_err());
        assert!(integrate_to_infinity(pole, 1.0, 1e-9).is_err());
        assert!(integrate_to_infinity_gk21(band, 1.0, 1e-9).is_err());
        assert!(integrate_to_infinity_gk21(pole, 1.0, 1e-9).is_err());
    }

    #[test]
    fn walkers_reject_bad_tolerance() {
        for tol in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
            assert!(integrate_to_infinity(|t| (-t).exp(), 1.0, tol).is_err());
            assert!(integrate_to_infinity_gk21(|t| (-t).exp(), 1.0, tol).is_err());
        }
    }

    #[test]
    fn integrate_to_infinity_rejects_bad_scale() {
        assert!(integrate_to_infinity(|t| (-t).exp(), 0.0, 1e-9).is_err());
        assert!(integrate_to_infinity(|t| (-t).exp(), f64::NAN, 1e-9).is_err());
    }

    #[test]
    fn trapezoid_agrees_with_adaptive_on_smooth_function() {
        let f = |x: f64| (x * 1.3).sin() + 2.0;
        let adaptive = integrate(f, 0.0, 3.0, 1e-10).unwrap();
        let trap = trapezoid(f, 0.0, 3.0, 20_000);
        assert!((adaptive - trap).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn trapezoid_requires_steps() {
        let _ = trapezoid(|x| x, 0.0, 1.0, 0);
    }
}
