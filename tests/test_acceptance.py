"""Acceptance suite: one test per exit criterion, tolerances pinned inline.

Every test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s``) before asserting, so a red run still reports each verdict.
All criteria run against the committed reference population (two strata,
N = (6, 7), n = (3, 3), integer data) unless stated otherwise.
"""

import math
import time

import numpy as np
import pytest

from stratexp.estimators import EstimatorKind, t1s, t2s, t3s, t4s, estimate
from stratexp.expansion import (
    RATIO_SERIES_COEFFS_DERIVED,
    RATIO_SERIES_COEFFS_PRINTED,
    bias,
    mse,
    mse_parameter_polynomial,
)
from stratexp.moments import VTABLE_KEYS, summarize_stratum
from stratexp.optimize import (
    ALPHA_BRACKET,
    THETA_BRACKET,
    optimize_alpha,
    optimize_theta,
)
from stratexp.report import EstimatorRequest, RunConfig, report_as_dict, run
from stratexp.verify import draw_sample, exact_bias_mse, exact_expectation, monte_carlo

from fractions import Fraction as F

from stratexp.datasets import SYNTHETIC_SAMPLE_SIZES, synthetic_csv_path

from helpers import mc_report_without_workers, series_weights


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_moment_exactness(synthetic, synthetic_v):
    """Every moment-table entry matches exhaustive enumeration to 1e-9
    relative, in under 10 seconds."""
    start = time.perf_counter()
    worst = 0.0
    for a, b in VTABLE_KEYS:
        ybar, xbar = synthetic.grand_y_mean, synthetic.grand_x_mean
        exact = exact_expectation(
            synthetic,
            lambda y, x, a=a, b=b: ((y - ybar) / ybar) ** a * ((x - xbar) / xbar) ** b,
        )
        if abs(exact) > 1e-12:
            worst = max(worst, abs(synthetic_v[(a, b)] - exact) / abs(exact))
        else:
            worst = max(worst, abs(synthetic_v[(a, b)]))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(1, ok, f"max relative moment error {worst:.2e}, runtime {elapsed:.2f}s")


def test_criterion_2_reduction_identities(synthetic):
    """t3s(1)=t1s, t3s(-1)=t2s, t4s(1)=t1s, t4s(0)=t2s over 1000 randomized
    samples, 1e-12 relative."""
    xbar_pop = synthetic.grand_x_mean
    worst = 0.0
    for rep in range(1000):
        _, y, x = draw_sample(synthetic, seed=20240817, rep=rep)
        v1 = estimate(t1s(), y, x, xbar_pop)
        v2 = estimate(t2s(), y, x, xbar_pop)
        for got, want in (
            (estimate(t3s(1.0), y, x, xbar_pop), v1),
            (estimate(t3s(-1.0), y, x, xbar_pop), v2),
            (estimate(t4s(1.0), y, x, xbar_pop), v1),
            (estimate(t4s(0.0), y, x, xbar_pop), v2),
        ):
            worst = max(worst, abs(got - want) / abs(want))
    ok = worst <= 1e-12
    verdict(2, ok, f"worst relative deviation across 4000 identities {worst:.2e}")


def test_criterion_3_first_order_closed_forms(synthetic_v):
    """Degree-2 truncations reproduce the first-order closed forms as exact
    rational identities (symbolic in the tuning constant; the ratio-type MSE
    carries the quarter coefficient), and the optimized MSEs coincide at
    Ybar^2 (V20 - V11^2/V02) to 1e-12."""
    checks = []

    # fixed estimators: exact coefficient dictionaries
    checks.append(series_weights(EstimatorKind.T1S, "bias", 1) == {
        (1, 0): (F(1),), (0, 1): (F(-1, 2),), (1, 1): (F(-1, 2),), (0, 2): (F(3, 8),),
    })
    checks.append(series_weights(EstimatorKind.T1S, "mse", 1) == {
        (2, 0): (F(1),), (1, 1): (F(-1),), (0, 2): (F(1, 4),),
    })
    checks.append(series_weights(EstimatorKind.T2S, "bias", 1) == {
        (1, 0): (F(1),), (0, 1): (F(1, 2),), (1, 1): (F(1, 2),), (0, 2): (F(-1, 8),),
    })
    checks.append(series_weights(EstimatorKind.T2S, "mse", 1) == {
        (2, 0): (F(1),), (1, 1): (F(1),), (0, 2): (F(1, 4),),
    })

    # tunable exponent, symbolic in alpha (ascending coefficients)
    tun = series_weights(EstimatorKind.T3S, "bias", 1)
    checks.append(tun[(0, 2)] == (0, F(1, 4), F(1, 8)))
    checks.append(tun[(1, 1)] == (0, F(-1, 2)))
    sq = series_weights(EstimatorKind.T3S, "mse", 1)
    checks.append(sq[(2, 0)] == (F(1),))
    checks.append(sq[(0, 2)] == (0, 0, F(1, 4)))
    checks.append(sq[(1, 1)] == (0, -1))

    # mixture, symbolic in theta
    mix = series_weights(EstimatorKind.T4S, "bias", 1)
    checks.append(mix[(0, 2)] == (F(-1, 8), F(1, 2)))
    checks.append(mix[(1, 1)] == (F(1, 2), -1))
    sqm = series_weights(EstimatorKind.T4S, "mse", 1)
    checks.append(sqm[(0, 2)] == (F(1, 4), -1, 1))
    checks.append(sqm[(1, 1)] == (1, -2))

    # optimum equivalence
    v = synthetic_v
    v20, v02, v11 = v[(2, 0)], v[(0, 2)], v[(1, 1)]
    target = v.ybar**2 * (v20 - v11**2 / v02)
    m_alpha = mse(t3s(2 * v11 / v02), v, 1)
    m_theta = mse(t4s(v11 / v02 + 0.5), v, 1)
    rel = max(abs(m_alpha - target), abs(m_theta - target)) / abs(target)
    checks.append(rel <= 1e-12)

    ok = all(checks)
    verdict(3, ok, f"{sum(checks)}/{len(checks)} identities hold, optimum rel err {rel:.2e}")


def test_criterion_4_second_order_superiority(synthetic, synthetic_v):
    """Second-order approximations sit at least as close to the enumerated
    truth as first-order ones, for both bias and MSE of the ratio and
    product estimators; runtime under 30 seconds."""
    start = time.perf_counter()

    # data contract of the committed population
    for s in synthetic.strata:
        c = summarize_stratum(s)
        assert math.sqrt(c[(0, 2)]) / s.x_mean <= 0.15
        assert math.sqrt(c[(2, 0)]) / s.y_mean <= 0.15
        assert c[(1, 1)] > 0
    assert synthetic_v[(1, 1)] > 0

    details = []
    ok = True
    for spec in (t1s(), t2s()):
        bias_e, mse_e = exact_bias_mse(synthetic, [spec])[0]
        b1, b2 = bias(spec, synthetic_v, 1), bias(spec, synthetic_v, 2)
        m1, m2 = mse(spec, synthetic_v, 1), mse(spec, synthetic_v, 2)
        bias_ok = abs(b2 - bias_e) <= abs(b1 - bias_e)
        mse_ok = abs(m2 - mse_e) <= abs(m1 - mse_e)
        ok = ok and bias_ok and mse_ok
        details.append(
            f"{spec.kind.value}: |bias2-exact|={abs(b2 - bias_e):.2e} "
            f"<= |bias1-exact|={abs(b1 - bias_e):.2e}: {bias_ok}; "
            f"|mse2-exact|={abs(m2 - mse_e):.2e} "
            f"<= |mse1-exact|={abs(m1 - mse_e):.2e}: {mse_ok}"
        )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    verdict(4, ok, "; ".join(details) + f"; runtime {elapsed:.2f}s")


def test_criterion_5_qualitative_ordering(synthetic, synthetic_v):
    """Whenever V11 > 0: MSE1(t3s at alpha*) <= MSE1(t1s) < MSE1(t2s); the
    second-order ordering holds on the committed population by enumeration."""
    rng = np.random.Generator(np.random.Philox(key=20240818))
    tables = [synthetic_v]
    from helpers import make_population
    from stratexp.moments import v_table

    # a spread of random positively-correlated populations
    for _ in range(25):
        strata = []
        for label in ("A", "B"):
            n_cap = int(rng.integers(5, 9))
            xs = rng.uniform(50, 150, n_cap)
            ys = 0.4 * xs + rng.uniform(0, 12, n_cap) + 20
            strata.append((label, [float(x) for x in xs], [float(y) for y in ys], 3))
        pop = make_population(*strata)
        v = v_table(pop)
        if v[(1, 1)] > 0:
            tables.append(v)

    first_order_ok = True
    for v in tables:
        alpha_star = 2 * v[(1, 1)] / v[(0, 2)]
        m3 = mse(t3s(alpha_star), v, 1)
        m1 = mse(t1s(), v, 1)
        m2 = mse(t2s(), v, 1)
        first_order_ok = first_order_ok and (m3 <= m1 + 1e-15 * abs(m1)) and (m1 < m2)

    # second-order (exact) ordering on the committed population
    a2 = optimize_alpha(synthetic_v, 2).parameter
    _, mse_e_t3 = exact_bias_mse(synthetic, [t3s(a2)])[0]
    _, mse_e_t1 = exact_bias_mse(synthetic, [t1s()])[0]
    _, mse_e_t2 = exact_bias_mse(synthetic, [t2s()])[0]
    second_order_ok = mse_e_t3 <= mse_e_t1 < mse_e_t2

    ok = first_order_ok and second_order_ok
    verdict(
        5,
        ok,
        f"first-order ordering on {len(tables)} tables: {first_order_ok}; "
        f"exact ordering t3s({a2:.4f})={mse_e_t3:.6g} <= t1s={mse_e_t1:.6g} "
        f"< t2s={mse_e_t2:.6g}: {second_order_ok}",
    )


def test_criterion_6_optimizer_certificates(synthetic_v):
    """Numeric optima match a 1e-6-step brute-force scan to 1e-5, pass the
    neighbor check, and collapse to the closed forms (1e-8) when the
    higher-order table entries vanish."""
    checks = []
    details = []

    for kind, bracket, optimizer, make in (
        (EstimatorKind.T3S, ALPHA_BRACKET, optimize_alpha, t3s),
        (EstimatorKind.T4S, THETA_BRACKET, optimize_theta, t4s),
    ):
        out = optimizer(synthetic_v, 2)
        coeffs = np.asarray(mse_parameter_polynomial(kind, synthetic_v))
        xs = np.arange(bracket[0], bracket[1] + 1e-9, 1e-6)
        scan = float(xs[int(np.argmin(np.polynomial.polynomial.polyval(xs, coeffs)))])
        scan_ok = abs(out.parameter - scan) <= 1e-5
        center = mse(make(out.parameter), synthetic_v, 2)
        neighbors_ok = (
            center <= mse(make(out.parameter - 1e-6), synthetic_v, 2)
            and center <= mse(make(out.parameter + 1e-6), synthetic_v, 2)
        )
        checks += [scan_ok, neighbors_ok]
        details.append(
            f"{kind.value}: |opt-scan|={abs(out.parameter - scan):.2e}, "
            f"neighbors {neighbors_ok}"
        )

    flat = synthetic_v.replace_entries(
        V30=0.0, V21=0.0, V12=0.0, V03=0.0, V22=0.0, V13=0.0, V04=0.0
    )
    alpha_gap = abs(optimize_alpha(flat, 2).parameter - optimize_alpha(flat, 1).parameter)
    theta_gap = abs(optimize_theta(flat, 2).parameter - optimize_theta(flat, 1).parameter)
    closed_ok = alpha_gap <= 1e-8 and theta_gap <= 1e-8
    checks.append(closed_ok)
    details.append(f"flat-table gaps alpha {alpha_gap:.2e}, theta {theta_gap:.2e}")

    verdict(6, all(checks), "; ".join(details))


def test_criterion_7_monte_carlo_consistency(synthetic):
    """2e5 seeded replicates agree with enumeration within 3 standard
    errors, and identical seeds give bit-identical results regardless of
    worker count."""
    spec = t1s()
    bias_e, mse_e = exact_bias_mse(synthetic, [spec])[0]
    mc = monte_carlo(synthetic, [spec], replicates=200_000, seed=0)
    bias_gap = abs(mc.bias[0].mean - bias_e) / mc.bias[0].standard_error
    mse_gap = abs(mc.mse[0].mean - mse_e) / mc.mse[0].standard_error
    consistent = bias_gap <= 3.0 and mse_gap <= 3.0

    one = mc_report_without_workers("t1s", replicates=20_000, seed=0, workers=1)
    four = mc_report_without_workers("t1s", replicates=20_000, seed=0, workers=4)
    deterministic = one == four

    ok = consistent and deterministic and mc.skipped == 0
    verdict(
        7,
        ok,
        f"bias within {bias_gap:.2f} SE, mse within {mse_gap:.2f} SE, "
        f"worker-count invariance {deterministic}",
    )


def test_criterion_8_derived_vs_printed_ledger(synthetic, synthetic_v):
    """Printed mode runs, the report discloses the nonzero deltas and the
    coefficient discrepancies behind them, and it is the derived mode that
    beats first order against the enumerated truth."""
    config = RunConfig(
        population=synthetic_csv_path(),
        sample_sizes=SYNTHETIC_SAMPLE_SIZES,
        estimators=(EstimatorRequest.parse("t1s"), EstimatorRequest.parse("t2s")),
        printed_mode=True,
        verify="exact",
    )
    report = run(config)
    as_dict = report_as_dict(report)

    deltas_nonzero = all(
        row.printed_bias2_delta != 0.0 and row.printed_mse2_delta != 0.0
        for row in report.rows
    )
    coeffs = as_dict["series_coefficients"]
    disclosure_ok = (
        coeffs["derived"]["e1^3"] == "-13/48"
        and coeffs["printed"]["e1^3"] == "-7/48"
        and coeffs["derived"]["e1^4"] == "73/384"
        and coeffs["printed"]["e1^4"] == "25/384"
        and len(report.corrections) > 0
    )
    assert RATIO_SERIES_COEFFS_DERIVED[3] != RATIO_SERIES_COEFFS_PRINTED[3]

    # the derived second order must win criterion 4; the printed one is
    # merely reported alongside
    derived_wins = True
    for row in report.rows:
        spec = t1s() if row.kind is EstimatorKind.T1S else t2s()
        b1 = bias(spec, synthetic_v, 1)
        m1 = mse(spec, synthetic_v, 1)
        derived_wins = derived_wins and (
            abs(row.bias2 - row.bias_exact) <= abs(b1 - row.bias_exact)
            and abs(row.mse2 - row.mse_exact) <= abs(m1 - row.mse_exact)
        )

    ok = deltas_nonzero and disclosure_ok and derived_wins
    verdict(
        8,
        ok,
        f"deltas nonzero {deltas_nonzero}, disclosure {disclosure_ok}, "
        f"derived mode beats first order {derived_wins}",
    )
