"""Output checks for every workload.

Each check takes a request and the parsed JSON report and returns a list of
problems (empty when the report is correct).  Checks run outside the timed
region and recompute what they check by another route than the layer that
produced it:

- grand means, stratum weights and all ten moment entries V_ab are
  recomputed with NumPy from the CSV text.  Within a stratum the SRSWOR
  moments of the sample mean come from inclusion probabilities and power
  sums over set partitions (no closed-form k-coefficients); strata are
  combined through joint cumulants, which add over independent strata;
- on ``exact`` the entries are also averaged over the enumerated joint
  sample space, as E[e0^a e1^b];
- bias and MSE of every row, at both orders, come from a float Taylor
  series of t/Ybar - 1 (exp series by the recurrence g' = w' g) taken
  against the report's moment entries; optimized order-1 rows also meet
  the closed forms of the optimum, and the printed-mode columns the
  published closed forms;
- an order-2 optimum must be no worse than any point of a dense scan of
  its bracket, the objective being that series as a polynomial in the
  tuning constant;
- exact verification columns are compared with a vectorized NumPy
  enumeration of the same joint sample space;
- Monte Carlo columns must be bit-identical to a ``--workers 1`` report,
  equal a NumPy replay of the documented draw identity, and lie within a
  fixed number of standard errors of the second-order values.

Every tolerance is a constant below, fixed before any measurement.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from workloads import Request

REL_TOL = 1e-9  # analytic quantities recomputed in another summation order
MOMENT_ABS_TOL = 1e-10  # of V20^(a/2) V02^(b/2), for entries near zero
# Monte Carlo mean vs second-order value, in standard errors.  Squared errors
# are skewed, so at 100 replicates the t statistic has a long lower tail: on
# one mc request, 400 seeds of correct draws (mean MSE within 0.2% of mse2)
# gave t < -5 twice, at least -5.29.  The replay above checks the columns
# exactly; this bound only catches gross departures from the expansion.
MC_SIGMAS = 8.0
SCAN_POINTS = 200_001  # dense scan of an optimizer bracket

VKEYS = ("V20", "V02", "V11", "V30", "V21", "V12", "V03", "V22", "V13", "V04")

_FIXED_ALPHA = {"t1s": 1.0, "t2s": -1.0}


def _close(a: float, b: float, rel: float = REL_TOL, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * abs(b) + abs_


def _powers(key: str) -> tuple[int, int]:
    return int(key[1]), int(key[2])


# ---------------------------------------------------------------------------
# population and design moments


def read_units(path: str) -> dict[str, np.ndarray]:
    """Stratum label -> (N_h, 2) array of (x, y), parsed by NumPy from the CSV."""
    labels = np.loadtxt(path, delimiter=",", skiprows=1, usecols=0, dtype=str)
    values = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(1, 2))
    return {label: values[labels == label] for label in dict.fromkeys(labels.tolist())}


def _set_partitions(items: tuple) -> list[list[tuple]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in _set_partitions(rest):
        out.append([(first,), *part])
        for i, block in enumerate(part):
            out.append([*part[:i], (first, *block), *part[i + 1:]])
    return out


def _srswor_moment(sums: dict, capital_n: int, n: int, factors: tuple[int, ...]) -> float:
    """E[prod_k sum_{i in s} z_{f_k}(i)] over SRSWOR samples s of size n.

    ``factors`` picks the centred variable of each factor (0: y, 1: x) and
    ``sums[(p, q)]`` is sum_i y_i^p x_i^q over the stratum.  An ordered
    tuple of units whose equal positions form the partition beta is in the
    sample with probability pi_|beta|; the sum over tuples of distinct units
    is the Moebius inversion of power sums over the partitions of beta's
    blocks.
    """

    def power_sum(blocks) -> float:
        ks = [k for b in blocks for k in b]
        q = sum(factors[k] for k in ks)
        return sums[len(ks) - q, q]

    total = 0.0
    for beta in _set_partitions(tuple(range(len(factors)))):
        pi = math.prod((n - j) / (capital_n - j) for j in range(len(beta)))
        distinct = 0.0
        for sigma in _set_partitions(tuple(beta)):
            term = 1.0
            for group in sigma:
                term *= (-1) ** (len(group) - 1) * math.factorial(len(group) - 1) * power_sum(group)
            distinct += term
        total += pi * distinct
    return total


def design_moments(strata: list[tuple[np.ndarray, int]], weights: np.ndarray, ybar: float, xbar: float) -> dict[str, float]:
    """All ten V_ab of (e0, e1) for independent SRSWOR strata.

    ``strata`` holds each stratum's (N_h, 2) array of (x, y) and its n_h.
    Joint cumulants of the weighted stratum-mean deviations add over
    strata; the fourth moment is the fourth cumulant plus the three
    pairings of second cumulants.
    """
    per_stratum = []
    for units, n in strata:
        x = units[:, 0] - units[:, 0].mean()
        y = units[:, 1] - units[:, 1].mean()
        sums = {(p, q): float(np.sum(y**p * x**q)) for p in range(5) for q in range(5 - p)}
        per_stratum.append((sums, len(units), n))

    def stratum_moment(sums, capital_n, n, factors):
        return _srswor_moment(sums, capital_n, n, factors) / n ** len(factors)

    def cumulant(factors):
        total = 0.0
        for w, (sums, capital_n, n) in zip(weights, per_stratum):
            m = stratum_moment(sums, capital_n, n, factors)
            if len(factors) == 4:
                a, b, c, d = factors
                m -= sum(
                    stratum_moment(sums, capital_n, n, p) * stratum_moment(sums, capital_n, n, q)
                    for p, q in (((a, b), (c, d)), ((a, c), (b, d)), ((a, d), (b, c)))
                )
            total += w ** len(factors) * m
        return total

    out = {}
    for key in VKEYS:
        a, b = _powers(key)
        factors = (0,) * a + (1,) * b
        value = cumulant(factors)
        if len(factors) == 4:
            f1, f2, f3, f4 = factors
            value += sum(
                cumulant(p) * cumulant(q)
                for p, q in (((f1, f2), (f3, f4)), ((f1, f3), (f2, f4)), ((f1, f4), (f2, f3)))
            )
        out[key] = value / (ybar**a * xbar**b)
    return out


class PopulationTruth:
    """Grand means, weights and moment entries of one request, from the CSV."""

    def __init__(self, request: Request, units: dict[str, np.ndarray] | None = None):
        if units is None:
            units = read_units(request.csv_path)
        self.request = request
        self.units = [units[s.label] for s in request.strata]
        self.sizes = [len(u) for u in self.units]
        big = np.array(self.sizes, dtype=float)
        self.weights = big / big.sum()
        self.ybar = float(self.weights @ np.array([u[:, 1].mean() for u in self.units]))
        self.xbar = float(self.weights @ np.array([u[:, 0].mean() for u in self.units]))
        self.v = design_moments(
            [(u, s.small_n) for u, s in zip(self.units, request.strata)], self.weights, self.ybar, self.xbar
        )
        self._joint = None

    def moment_tolerance(self, key: str) -> float:
        a, b = _powers(key)
        return MOMENT_ABS_TOL * self.v["V20"] ** (a / 2) * self.v["V02"] ** (b / 2)

    def joint_means(self) -> tuple[np.ndarray, np.ndarray]:
        """(ybar_st, xbar_st) of every sample in the joint sample space."""
        if self._joint is None:
            ys = np.zeros(1)
            xs = np.zeros(1)
            for s, units, w in zip(self.request.strata, self.units, self.weights):
                idx = np.array(list(combinations(range(len(units)), s.small_n)))
                ys = (ys[:, None] + w * units[idx, 1].mean(axis=1)[None, :]).ravel()
                xs = (xs[:, None] + w * units[idx, 0].mean(axis=1)[None, :]).ravel()
            self._joint = ys, xs
        return self._joint


def check_population(request: Request, report: dict, truth: PopulationTruth) -> list[str]:
    problems = []
    pop = report["population"]
    got = [(s["id"], s["N"], s["n"]) for s in pop["strata"]]
    want = [(s.label, n_cap, s.small_n) for s, n_cap in zip(request.strata, truth.sizes)]
    if got != want:
        problems.append(f"strata {got} != {want}")
        return problems
    for s, w in zip(pop["strata"], truth.weights):
        if not _close(s["weight"], float(w)):
            problems.append(f"weight of {s['id']}: {s['weight']} != {w}")
    for name, want_v in (("ybar", truth.ybar), ("xbar", truth.xbar)):
        if not _close(pop[name], want_v):
            problems.append(f"{name}: {pop[name]} != {want_v}")
    if sorted(report["moments"]) != sorted(VKEYS):
        return problems + [f"moment entries {sorted(report['moments'])} != {sorted(VKEYS)}"]
    for name, want_v in truth.v.items():
        if not _close(report["moments"][name], want_v, abs_=truth.moment_tolerance(name)):
            problems.append(f"{name}: {report['moments'][name]} != {want_v}")
    return problems


# ---------------------------------------------------------------------------
# analytic rows


def _exponent(kind: str, parameter: float | None) -> float:
    """The c of g(e1) = exp(c u), u = -e1/(2 + e1), for t1s-t3s."""
    return parameter if kind == "t3s" else _FIXED_ALPHA[kind]


def _multiplier(kind: str, parameter: float | None, degree: int) -> np.ndarray:
    """Taylor coefficients of g(e1) up to ``degree``, with t/Ybar = (1 + e0) g(e1)."""
    u = np.array([0.0] + [(-0.5) ** k for k in range(1, degree + 1)])

    def exp_series(c: float) -> np.ndarray:
        w = c * u
        g = np.zeros(degree + 1)
        g[0] = 1.0
        for m in range(1, degree + 1):
            g[m] = sum(k * w[k] * g[m - k] for k in range(1, m + 1)) / m
        return g

    if kind == "t4s":
        return parameter * exp_series(1.0) + (1.0 - parameter) * exp_series(-1.0)
    return exp_series(_exponent(kind, parameter))


def series_bias_mse(kind: str, parameter: float | None, v: dict, ybar: float, order: int) -> tuple[float, float, float, float]:
    """(bias, mse, bias error scale, mse error scale) at ``order``.

    The series of t/Ybar - 1 and its square are truncated at total degree
    2 * order and taken against the moment entries ``v``; the error scales
    are the sums of the absolute terms.
    """
    degree = 2 * order
    g = _multiplier(kind, parameter, degree)
    series = {}
    for k in range(degree + 1):
        if k:
            series[0, k] = g[k]
        if k < degree:
            series[1, k] = g[k]

    def moment(a: int, b: int) -> float:
        return v[f"V{a}{b}"] if a + b >= 2 else 0.0

    bias_terms = [c * moment(a, b) for (a, b), c in series.items()]
    mse_terms = [
        c1 * c2 * moment(a1 + a2, b1 + b2)
        for (a1, b1), c1 in series.items()
        for (a2, b2), c2 in series.items()
        if a1 + b1 + a2 + b2 <= degree
    ]
    return (
        ybar * math.fsum(bias_terms),
        ybar**2 * math.fsum(mse_terms),
        ybar * math.fsum(abs(t) for t in bias_terms),
        ybar**2 * math.fsum(abs(t) for t in mse_terms),
    )


# The published second-order closed forms that ``--printed-mode`` reports
# next to the derived values: bias = Ybar/2 * sum c V, mse = Ybar^2 * sum c V.
PRINTED = {
    "t1s": {
        "bias": {"V11": -1, "V02": "3/4", "V12": "3/4", "V03": "-7/24", "V13": "-7/24", "V04": "25/192"},
        "mse": {"V20": 1, "V02": "1/4", "V11": -1, "V22": 1, "V21": -1, "V12": "5/4", "V13": "-25/24", "V04": "55/192"},
    },
    "t2s": {
        "bias": {"V11": 1, "V02": "-1/4", "V12": "-1/4", "V13": "-5/24", "V04": "1/192", "V03": "-5/24"},
        "mse": {"V20": 1, "V02": "1/4", "V11": 1, "V04": "23/192", "V03": "-1/8", "V12": "1/4", "V13": "-1/24", "V21": 1},
    },
}


def check_printed(request: Request, row: dict, v: dict, ybar: float) -> list[str]:
    label, kind = row["estimator"], row["kind"]
    expected = "--printed-mode" in request.argv and request.order != "1" and kind in PRINTED
    if not expected:
        return [f"{label}: printed columns not requested"] if "printed_bias2" in row else []
    if "printed_bias2" not in row:
        return [f"{label}: no printed columns"]
    problems = []
    for name, scale in (("bias", 0.5 * ybar), ("mse", ybar**2)):
        terms = [float(Fraction(c)) * v[k] for k, c in PRINTED[kind][name].items()]
        want = scale * math.fsum(terms)
        got = row[f"printed_{name}2"]
        if not _close(got, want, abs_=REL_TOL * abs(scale) * math.fsum(map(abs, terms))):
            problems.append(f"{label}: printed_{name}2 {got} != closed form {want}")
        delta = row[f"{name}2"] - got
        if not _close(row[f"printed_{name}2_delta"], delta, abs_=REL_TOL * abs(got)):
            problems.append(f"{label}: printed_{name}2_delta {row[f'printed_{name}2_delta']} != {delta}")
    return problems


def _requested_parameter(label: str) -> float | None:
    _, _, param = label.partition(":")
    return float(param) if param and param != "optimize" else None


def _order2_objective(kind: str, v: dict, ybar: float, nodes: np.ndarray) -> np.ndarray:
    """Ascending coefficients of the order-2 series MSE as a polynomial in the tuning constant.

    It is of degree 4 in alpha and 2 in theta, so five nodes fix it.
    """
    values = [series_bias_mse(kind, float(p), v, ybar, 2)[1] for p in nodes]
    return np.polynomial.polynomial.polyfit(nodes, values, 4)


def check_rows(request: Request, report: dict) -> list[str]:
    """Row labels, the series at both orders, the order-1 optimum and the order-2 scan."""
    problems = []
    rows = report["estimators"]
    labels = [r["estimator"] for r in rows]
    if labels != list(request.estimators):
        return [f"estimator rows {labels} != {list(request.estimators)}"]
    v = report["moments"]
    ybar = report["population"]["ybar"]
    has = {1: request.order in ("1", "both"), 2: request.order in ("2", "both")}
    for row in rows:
        label, kind = row["estimator"], row["kind"]
        optimized = label.endswith(":optimize")
        fixed = _requested_parameter(label)
        for order in (1, 2):
            key = f"parameter_order{order}"
            if not has[order]:
                if row[key] is not None or row[f"mse{order}"] is not None or row[f"bias{order}"] is not None:
                    problems.append(f"{label}: order {order} reported but not requested")
                continue
            parameter = row[key]
            if fixed is not None and parameter != fixed:
                problems.append(f"{label}: {key} {parameter} != requested {fixed}")
            bias, mse, bias_scale, mse_scale = series_bias_mse(kind, parameter, v, ybar, order)
            if not _close(row[f"mse{order}"], mse, abs_=REL_TOL * mse_scale):
                problems.append(f"{label}: mse{order} {row[f'mse{order}']} != series {mse}")
            if not _close(row[f"bias{order}"], bias, abs_=REL_TOL * bias_scale):
                problems.append(f"{label}: bias{order} {row[f'bias{order}']} != series {bias}")
        problems += check_printed(request, row, v, ybar)
        if has[1] and optimized:
            p1 = row["parameter_order1"]
            want_p = 2.0 * v["V11"] / v["V02"] if kind == "t3s" else v["V11"] / v["V02"] + 0.5
            if not _close(p1, want_p):
                problems.append(f"{label}: order-1 optimum {p1} != {want_p}")
            identity = ybar**2 * (v["V20"] - v["V11"] ** 2 / v["V02"])
            if not _close(row["mse1"], identity, abs_=1e-12 * ybar**2 * v["V20"]):
                problems.append(f"{label}: mse1 {row['mse1']} != Ybar^2(V20 - V11^2/V02) = {identity}")
        if has[2] and optimized:
            out = report["optimizer"][label]["order2"]
            lo, hi = out["bracket"]
            p2 = row["parameter_order2"]
            if not (lo <= p2 <= hi) or p2 != out["parameter"]:
                problems.append(f"{label}: order-2 optimum {p2} outside {out['bracket']}")
                continue
            coeffs = _order2_objective(kind, v, ybar, np.linspace(lo, hi, 5))
            at_opt = float(np.polynomial.polynomial.polyval(p2, coeffs))
            scan = np.polynomial.polynomial.polyval(np.linspace(lo, hi, SCAN_POINTS), coeffs)
            best = float(scan.min())
            tol = REL_TOL * (abs(best) + abs(at_opt))
            if at_opt > best + tol:
                problems.append(f"{label}: order-2 objective {at_opt} above scan minimum {best}")
    return problems


# ---------------------------------------------------------------------------
# exact enumeration


def enumerate_bias_mse(truth: PopulationTruth, kind: str, parameter: float | None) -> tuple[float, float]:
    """Exact (bias, mse) by vectorized enumeration of the joint sample space."""
    ys, xs = truth.joint_means()
    z = (truth.xbar - xs) / (truth.xbar + xs)
    if kind == "t4s":
        t = parameter * ys * np.exp(z) + (1.0 - parameter) * ys * np.exp(-z)
    else:
        t = ys * np.exp(_exponent(kind, parameter) * z)
    d = t - truth.ybar
    return float(d.mean()), float((d * d).mean())


def check_exact(request: Request, report: dict, truth: PopulationTruth) -> list[str]:
    """Moment entries as E[e0^a e1^b] and the exact columns, over the joint sample space."""
    problems = []
    ys, xs = truth.joint_means()
    e0, e1 = ys / truth.ybar - 1.0, xs / truth.xbar - 1.0
    for key in VKEYS:
        a, b = _powers(key)
        terms = e0**a * e1**b
        want = float(terms.mean())
        if not _close(report["moments"][key], want, abs_=REL_TOL * float(np.abs(terms).mean())):
            problems.append(f"{key}: {report['moments'][key]} != enumerated {want}")
    for row in report["estimators"]:
        if "bias_exact" not in row:
            problems.append(f"{row['estimator']}: no exact columns")
            continue
        parameter = row["parameter_order2"] if request.order != "1" else row["parameter_order1"]
        bias, mse = enumerate_bias_mse(truth, row["kind"], parameter)
        if not _close(row["mse_exact"], mse):
            problems.append(f"{row['estimator']}: mse_exact {row['mse_exact']} != enumerated {mse}")
        if not _close(row["bias_exact"], bias, abs_=REL_TOL * math.sqrt(mse)):
            problems.append(f"{row['estimator']}: bias_exact {row['bias_exact']} != enumerated {bias}")
    return problems


# ---------------------------------------------------------------------------
# Monte Carlo

MC_FIELDS = ("mc_bias", "mc_bias_se", "mc_mse", "mc_mse_se", "mc_skipped")


def mc_draws(truth: PopulationTruth, seed: int, replicates: int) -> tuple[np.ndarray, np.ndarray]:
    """(ybar_st, xbar_st) of each Monte Carlo replicate, from the documented draw identity.

    Replicate r is keyed Philox4x64 (seed, r); it supplies one 64-bit word
    per selection step of a partial Fisher-Yates shuffle, strata in order,
    and the first n_h positions of stratum h are its sample.
    """
    words = sum(s.small_n for s in truth.request.strata)
    ys, xs = np.zeros(replicates), np.zeros(replicates)
    for r in range(replicates):
        raw = np.random.Philox(key=np.array([seed % 2**64, r], dtype=np.uint64)).random_raw(words).tolist()
        cursor = 0
        for s, units, w in zip(truth.request.strata, truth.units, truth.weights):
            idx = list(range(len(units)))
            for i in range(s.small_n):
                j = i + raw[cursor] % (len(units) - i)
                cursor += 1
                idx[i], idx[j] = idx[j], idx[i]
            chosen = units[idx[: s.small_n]]
            ys[r] += w * chosen[:, 1].mean()
            xs[r] += w * chosen[:, 0].mean()
    return ys, xs


def check_mc(request: Request, report: dict, truth: PopulationTruth, reference: dict) -> list[str]:
    """``reference`` is the same request's report at ``--workers 1``."""
    problems = []
    same = [{**r, "config": {**r["config"], "workers": None}} for r in (report, reference)]
    if same[0] != same[1]:
        problems.append("report differs from the --workers 1 report beyond the worker count")
    ys, xs = mc_draws(truth, report["config"]["seed"], request.replicates)
    z = (truth.xbar - xs) / (truth.xbar + xs)
    for row in report["estimators"]:
        label = row["estimator"]
        if any(f not in row for f in MC_FIELDS):
            problems.append(f"{label}: no Monte Carlo columns")
            continue
        parameter = row["parameter_order2"]
        if row["kind"] == "t4s":
            d = parameter * ys * np.exp(z) + (1.0 - parameter) * ys * np.exp(-z) - truth.ybar
        else:
            d = ys * np.exp(_exponent(row["kind"], parameter) * z) - truth.ybar
        n = len(d)
        want = {
            "mc_bias": d.mean(), "mc_bias_se": d.std(ddof=1) / math.sqrt(n),
            "mc_mse": (d * d).mean(), "mc_mse_se": (d * d).std(ddof=1) / math.sqrt(n),
        }
        for name, value in want.items():
            abs_ = REL_TOL * math.sqrt(want["mc_mse"]) if name == "mc_bias" else 0.0
            if not _close(row[name], float(value), abs_=abs_):
                problems.append(f"{label}: {name} {row[name]} != replayed {value}")
        if row["mc_skipped"] != 0:  # z is defined for every sample of positive x
            problems.append(f"{label}: mc_skipped {row['mc_skipped']} != 0")
        if abs(row["mc_mse"] - row["mse2"]) > MC_SIGMAS * row["mc_mse_se"]:
            problems.append(f"{label}: mc_mse {row['mc_mse']} more than {MC_SIGMAS} SE from mse2 {row['mse2']}")
        if abs(row["mc_bias"] - row["bias2"]) > MC_SIGMAS * row["mc_bias_se"]:
            problems.append(f"{label}: mc_bias {row['mc_bias']} more than {MC_SIGMAS} SE from bias2 {row['bias2']}")
    return problems


def check(workload: str, request: Request, report: dict, truth: PopulationTruth, reference: dict | None = None) -> list[str]:
    """Every check that applies to a report of ``workload``."""
    problems = check_population(request, report, truth)
    if problems:
        return problems
    problems += check_rows(request, report)
    if workload == "exact":
        problems += check_exact(request, report, truth)
    elif workload == "mc":
        problems += check_mc(request, report, truth, reference)
    return problems
