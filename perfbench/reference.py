"""Independent reference for benchmark jobs.

Recomputes what every job's output must say, from the job's JSON
configuration alone, with its own engines:

- moments of sums by binomial convolution of per-family closed forms,
  raised to each run length by repeated squaring (momentcert convolves
  one summand at a time);
- exact |S|^p for finite-support sums by convolving run distributions
  (a run of k equal Rademacher weights is a binomial law), which replaces
  the 2^(n-1) sign enumeration;
- E|S|^p for other symmetric sums from the identity
  E|S|^p = -(2/pi) Gamma(p+1) sin(p pi/2) int_0^inf (phi(t) - P_k(t)) t^(-p-1) dt,
  P_k the Taylor polynomial of phi to order 2 floor(p/2): a closed-form
  Taylor piece near 0, Gauss-Legendre panels after it and closed-form
  tails.  It is accurate to about 1e-12 relative.

`check_job` compares an output document with this reference:
exit code, statements, certifying flags, failed hypotheses and verdicts
exactly; values tagged "exact" to 1e-12 relative; values tagged
"quadrature" within the error budget the engine reported with them, and
"mc" values within twice their 99.9% half-width (about 6.6 standard
errors, so a correct engine fails the check about once in 10^10).
A quadrature value outside its budget but within QUADRATURE_GROSS_RTOL
is a known defect of the seed, counted separately.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

EXACT_RTOL = 1e-12
REFERENCE_RTOL = 1e-10  # slack for the reference's own quadrature error
MC_BUDGET_FACTOR = 2.0
# scipy's quadrature error estimate is not a bound: at the seed, values
# miss the reference by up to ~30x their reported budget, at most 2.8e-9
# relative beyond it.  Such a miss is counted (Checker.over_budget), not
# failed; a miss beyond the budget by more than this relative size (a few
# times the worst seen) is a wrong value and fails the job.
QUADRATURE_GROSS_RTOL = 1e-8
ENUMERATION_CAP = 24
_CEIL_EPS = 1e-12


def _ceil(x: float) -> int:
    return math.ceil(x - _CEIL_EPS)


# -- summands ---------------------------------------------------------------


@dataclass(frozen=True)
class Var:
    """One summand, from a config variable descriptor."""

    family: str
    params: tuple
    atoms_values: tuple = ()
    atoms_probs: tuple = ()

    @property
    def variance(self) -> float:
        f, q = self.family, self.params
        if f in ("gaussian", "rademacher", "symmetric_exponential"):
            return q[0] ** 2
        if f == "uniform":
            return q[0] ** 2 / 3.0
        if f == "symmetric_three_point":
            return 2.0 * q[1] * q[0] * q[0]
        return self.moments(2)[2]

    def moments(self, order: int) -> tuple:
        """Raw moments E X^l, l = 0..order."""
        return _moments(self, order)

    @property
    def symmetric(self) -> bool:
        if self.family != "atoms":
            return True
        pairs = {}
        for v, p in zip(np.round(self.centered_values(), 12), self.atoms_probs):
            pairs[v] = pairs.get(v, 0.0) + p
        return all(abs(pairs.get(-v, 0.0) - p) < 1e-12 for v, p in pairs.items())

    @property
    def log_concave(self) -> bool:
        return self.family in ("gaussian", "rademacher", "symmetric_exponential", "uniform")

    def centered_values(self) -> tuple:
        mean = math.fsum(v * p for v, p in zip(self.atoms_values, self.atoms_probs))
        return tuple(v - mean for v in self.atoms_values)

    def atoms(self):
        """(values, probabilities) of a finite-support summand, else None."""
        f, q = self.family, self.params
        if f == "rademacher":
            return (-q[0], q[0]), (0.5, 0.5)
        if f == "symmetric_three_point":
            return (-q[0], 0.0, q[0]), (q[1], 1.0 - 2.0 * q[1], q[1])
        if f == "atoms":
            return self.centered_values(), self.atoms_probs
        return None

    def scaled(self, c: float) -> "Var":
        if self.family == "symmetric_three_point":
            return Var(self.family, (self.params[0] * c, self.params[1]))
        return Var(self.family, (self.params[0] * c,))

    def phi(self, t: np.ndarray) -> np.ndarray:
        f, q = self.family, self.params
        if f == "gaussian":
            return np.exp(-0.5 * (q[0] * t) ** 2)
        if f == "rademacher":
            return np.cos(q[0] * t)
        if f == "symmetric_exponential":
            return 1.0 / (1.0 + 0.5 * (q[0] * t) ** 2)
        if f == "uniform":
            return np.sinc(q[0] * t / np.pi)
        b, w = q
        return 1.0 - 2.0 * w + 2.0 * w * np.cos(b * t)

    def envelope(self, t: float) -> float:
        """An upper bound on |phi| at t (and beyond) for continuous families."""
        f, q = self.family, self.params
        if f == "gaussian":
            return math.exp(-0.5 * (q[0] * t) ** 2)
        if f == "symmetric_exponential":
            return 1.0 / (1.0 + 0.5 * (q[0] * t) ** 2)
        if f == "uniform":
            return min(1.0, 1.0 / (q[0] * t))
        return 1.0

    def frequency(self) -> float:
        """Largest oscillation frequency of phi (0 for non-oscillating)."""
        if self.family in ("rademacher", "symmetric_three_point", "uniform"):
            return self.params[0]
        return 0.0


@lru_cache(maxsize=4096)
def _moments(var: Var, order: int) -> tuple:
    f, q = var.family, var.params
    mu = [0.0] * (order + 1)
    if f == "atoms":
        values = var.centered_values()
        for l in range(order + 1):
            mu[l] = math.fsum(p * v ** l for v, p in zip(values, var.atoms_probs))
        return tuple(mu)
    for l in range(order // 2 + 1):
        if f == "gaussian":
            m = q[0] ** (2 * l) * math.factorial(2 * l) / (2 ** l * math.factorial(l))
        elif f == "rademacher":
            m = q[0] ** (2 * l)
        elif f == "symmetric_exponential":
            m = math.factorial(2 * l) * q[0] ** (2 * l) / 2 ** l
        elif f == "uniform":
            m = q[0] ** (2 * l) / (2 * l + 1)
        else:
            m = 1.0 if l == 0 else 2.0 * q[1] * q[0] ** (2 * l)
        mu[2 * l] = m
    return tuple(mu)


def parse_variables(doc: dict) -> list[Var]:
    out = []
    for d in doc["variables"]:
        f = d["family"]
        if f in ("gaussian", "rademacher", "symmetric_exponential"):
            var = Var(f, (float(d["sigma"]),))
        elif f == "uniform":
            var = Var(f, (float(d["a"]),))
        elif f == "symmetric_three_point":
            var = Var(f, (float(d["b"]), float(d["q"])))
        elif f == "atoms":
            var = Var(f, (), tuple(map(float, d["values"])), tuple(map(float, d["probs"])))
        else:
            raise ValueError(f"reference has no family {f!r}")
        out.extend([var] * int(d.get("count", 1)))
    return out


def _runs(vars_: list) -> list[tuple]:
    """(item, multiplicity) pairs, in first-seen order."""
    counts: dict = {}
    for v in vars_:
        counts[v] = counts.get(v, 0) + 1
    return list(counts.items())


# -- moments of sums --------------------------------------------------------


def _conv(a: list, b: list) -> list:
    return [math.fsum(math.comb(t, i) * a[i] * b[t - i] for i in range(t + 1))
            for t in range(len(a))]


def _conv_power(mu: list, k: int) -> list:
    out = [1.0] + [0.0] * (len(mu) - 1)
    base = list(mu)
    while k:
        if k & 1:
            out = _conv(out, base)
        k >>= 1
        if k:
            base = _conv(base, base)
    return out


def sum_moments(vars_: list, order: int, scale: float = 1.0) -> list:
    """Raw moments of (sum vars_) / scale up to `order`."""
    total = [1.0] + [0.0] * order
    for var, k in _runs(vars_):
        mu = [m / scale ** l for l, m in enumerate(var.moments(order))]
        total = _conv(total, _conv_power(mu, k))
    return total


def gaussian_abs_moment(p: float) -> float:
    return math.exp(0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0))
                    - 0.5 * math.log(math.pi))


def gaussian_lp_norm(p: float) -> float:
    return gaussian_abs_moment(p) ** (1.0 / p)


def _is_even(p: float) -> bool:
    return float(p).is_integer() and int(p) % 2 == 0


def rademacher_abs_moment(weights: list, p: float) -> float:
    """E |sum_k w_k eps_k|^p, grouping equal weights into binomial runs."""
    if _is_even(p):
        return sum_moments([Var("rademacher", (w,)) for w in weights], int(p))[int(p)]
    values, probs = np.zeros(1), np.ones(1)
    for w, k in _runs(weights):
        j = np.arange(k + 1)
        rv = w * (2.0 * j - k)
        rp = np.array([math.comb(k, int(i)) for i in j], dtype=float) / 2.0 ** k
        values = (values[:, None] + rv[None, :]).ravel()
        probs = (probs[:, None] * rp[None, :]).ravel()
    return float(math.fsum(probs * np.abs(values) ** p))


def _atom_abs_moment(vars_: list, p: float) -> float:
    values, probs = np.zeros(1), np.ones(1)
    for var, k in _runs(vars_):
        av, ap = (np.asarray(x, dtype=float) for x in var.atoms())
        for _ in range(k):
            values = (values[:, None] + av[None, :]).ravel()
            probs = (probs[:, None] * ap[None, :]).ravel()
            keys, inv = np.unique(np.round(values, 9), return_inverse=True)
            values, probs = keys, np.bincount(inv, weights=probs)
    return float(math.fsum(probs * np.abs(values) ** p))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _charfn_abs_moment(vars_: list, p: float) -> float:
    """E|S|^p for a symmetric sum with at least one continuous summand."""
    k = int(p // 2)
    runs = _runs(vars_)
    s = math.sqrt(math.fsum(v.variance * m for v, m in runs))
    top = k + 14
    nu = sum_moments(vars_, 2 * top, s)
    coef = [(-1) ** j * nu[2 * j] / math.factorial(2 * j) for j in range(top + 1)]
    u0 = 0.25
    integral = math.fsum(coef[j] * u0 ** (2 * j - p) / (2 * j - p)
                         for j in range(k + 1, top + 1))

    def envelope(u):
        return math.prod(v.envelope(u / s) ** m for v, m in runs) * u ** (-p) / p

    upper = 8.0
    while envelope(upper) > 1e-14 and upper < 1e7:
        upper *= 2.0
    omega = sum(v.frequency() * m for v, m in runs) / s
    width = min(0.5, math.pi / max(omega, 1e-12) / 2.0)
    edges = np.arange(u0, upper + width, width)
    edges[-1] = upper
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    for lo in range(0, len(mid), 20_000):
        m, h = mid[lo:lo + 20_000], half[lo:lo + 20_000]
        u = (m[:, None] + h[:, None] * _GL_NODES[None, :]).ravel()
        psi = np.ones_like(u)
        for v, mult in runs:
            psi *= v.phi(u / s) ** mult
        poly = sum(coef[j] * u ** (2 * j) for j in range(k + 1))
        f = ((psi - poly) * u ** (-p - 1.0)).reshape(len(m), -1)
        integral += math.fsum((f @ _GL_WEIGHTS) * h)
    integral -= math.fsum(coef[j] * upper ** (2 * j - p) / (p - 2 * j)
                          for j in range(k + 1))
    cp = -(2.0 / math.pi) * math.gamma(p + 1.0) * math.sin(0.5 * p * math.pi)
    return cp * integral * s ** p


def abs_moment(vars_: list, p: float) -> float:
    """E |sum vars_|^p by the best reference engine."""
    if _is_even(p):
        return sum_moments(vars_, int(p))[int(p)]
    if all(v.atoms() is not None for v in vars_):
        return _atom_abs_moment(vars_, p)
    if not all(v.symmetric for v in vars_):
        raise ValueError("reference needs symmetric summands for fractional p")
    return _charfn_abs_moment(vars_, p)


# -- bound statements ------------------------------------------------------


def _c_symmetric(vars_: list, r: int) -> float:
    c = 1.0
    for var, _ in _runs(vars_):
        mu = var.moments(2 * r)
        for l in range(2, r + 1):
            ratio = mu[2 * l] * 2 ** l / (math.factorial(2 * l) * mu[2] ** l)
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (2 * l - 2)))
    return c


def _c_centered(vars_: list, r: int) -> float:
    c = 1.0
    for var, _ in _runs(vars_):
        mu = var.moments(2 * r)
        for l in range(3, 2 * r + 1):
            ratio = abs(mu[l]) * 2 ** (l / 2.0) / (math.factorial(l) * mu[2] ** (l / 2.0))
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (l - 2)))
    return c


@dataclass
class Expected:
    """One expected bound row.  For the log-concave sandwich, `head` is
    the reference head norm and `g_tail` the Gaussian tail term; its
    bounds are built with the error budget the program reported."""

    statement: str
    p: float
    certifying: bool
    failed: tuple = ()
    constants: dict | None = None
    target_kind: str = "norm"
    start_index: int = 1
    center: float | None = None
    lower: float | None = None
    upper: float | None = None
    radius: float | None = None
    head: float | None = None
    g_tail: float | None = None


class Sequence:
    def __init__(self, vars_: list):
        self.vars = vars_
        order = sorted(range(len(vars_)), key=lambda i: -vars_[i].variance)
        self.sorted = [vars_[i] for i in order]
        self.v = [x.variance for x in self.sorted]
        self.n = len(vars_)
        self.symmetric = all(x.symmetric for x in _dict_keys(vars_))
        self.log_concave = all(x.log_concave for x in _dict_keys(vars_))
        self.total = math.fsum(self.v)

    def center(self, p: float) -> float:
        return gaussian_lp_norm(p) * math.sqrt(self.total)

    def target(self, start_index: int) -> list:
        return self.sorted[start_index - 1:]


def _dict_keys(vars_):
    return [v for v, _ in _runs(vars_)]


def _non_cert(statement, p, failed, constants=None):
    return Expected(statement, float(p), False, tuple(failed), constants or {})


def bound_p_2_4(seq: Sequence, p: float) -> Expected:
    m = _ceil(max(mu[4] / mu[2] ** 2 for mu in (x.moments(4) for x in _dict_keys(seq.vars)))
              / 6.0)
    failed = [name for name, ok in (("p_range", 2.0 <= p <= 4.0),
                                    ("symmetric", seq.symmetric),
                                    ("head_shorter_than_n", m < seq.n)) if not ok]
    if failed:
        return _non_cert("symmetric_p24_band", p, failed, {"m": m})
    center = seq.center(p)
    radius = math.sqrt(3.0 * m) * math.sqrt(seq.v[0])
    return Expected("symmetric_p24_band", p, True, (), {"m": m}, center=center,
                    lower=gaussian_lp_norm(p) * math.sqrt(math.fsum(seq.v[1:])),
                    upper=center + radius, radius=radius)


def bound_even_symmetric(seq: Sequence, r: int) -> Expected:
    failed = [n for n, ok in (("r_range", r >= 2), ("symmetric", seq.symmetric)) if not ok]
    if failed:
        return _non_cert("even_symmetric_band", 2 * r, failed)
    c = _c_symmetric(seq.vars, r)
    cutoff = _ceil(c * c * (r - 1))
    constants = {"C": c, "cutoff_index": cutoff}
    if cutoff >= seq.n:
        return _non_cert("even_symmetric_band", 2 * r, ["cutoff_below_n"], constants)
    center = seq.center(2 * r)
    radius = 2.0 * cutoff * math.sqrt(seq.v[0])
    return Expected("even_symmetric_band", 2.0 * r, True, (), constants, center=center,
                    lower=gaussian_lp_norm(2 * r) * math.sqrt(math.fsum(seq.v[r - 1:])),
                    upper=center + radius, radius=radius)


def bound_even_centered(seq: Sequence, r: int) -> Expected:
    # Every generated summand is centered, so only r and the cutoff can fail.
    if r < 2:
        return _non_cert("even_centered_upper", 2 * r, ["r_range"])
    c = _c_centered(seq.vars, r)
    cutoff = _ceil(c * c * r * (r - 1) / 2.0)
    constants = {"C": c, "cutoff_index": cutoff}
    if cutoff >= seq.n:
        return _non_cert("even_centered_upper", 2 * r, ["cutoff_below_n"], constants)
    center = seq.center(2 * r)
    return Expected("even_centered_upper", 2.0 * r, True, (), constants, center=center,
                    upper=center + 2.0 * cutoff * math.sqrt(seq.v[0]))


def bound_general_p(seq: Sequence, p: float, r: int) -> Expected:
    statement = "truncated_general_p_upper"
    if not 2.0 <= p <= 2 * r:
        return _non_cert(statement, p, ["p_range"])
    half = math.floor(p / 2.0)
    if seq.symmetric:
        c = _c_symmetric(seq.vars, r)
        cutoff = _ceil(c * c * half) + 1
    else:
        c = _c_centered(seq.vars, r)
        cutoff = _ceil(c * c * half * (half + 1) / 2.0) + 1
    multiplier = (2.0 * half + 1.0) / (2.0 * half - 1.0)
    constants = {"C": c, "cutoff_index": cutoff, "multiplier": multiplier}
    if cutoff > seq.n:
        return _non_cert(statement, p, ["cutoff_within_n"], constants)
    if not _is_even(p) and seq.n > ENUMERATION_CAP:
        return _non_cert(statement, p, ["enumeration_cap"], constants)
    rad = rademacher_abs_moment([math.sqrt(x) for x in seq.v], p)
    tail_var = math.fsum(seq.v[cutoff - 1:])
    return Expected(statement, float(p), True, (), constants, target_kind="abs_moment",
                    start_index=cutoff, center=gaussian_abs_moment(p) * tail_var ** (p / 2.0),
                    upper=multiplier * rad)


def latala(seq: Sequence, p: float) -> list:
    failed = [n for n, ok in (("p_range", p >= 2.0), ("symmetric", seq.symmetric),
                              ("log_concave_tails", seq.log_concave)) if not ok]
    if failed:
        return [_non_cert("logconcave_radius", p, failed),
                _non_cert("logconcave_sandwich", p, failed)]
    center = seq.center(p)
    radius = p * math.sqrt(max(seq.v))
    two_sided = Expected("logconcave_radius", float(p), True, (), {}, center=center,
                         lower=center - radius, upper=center + radius, radius=radius)
    head_count = min(seq.n, int(math.ceil(p)) - 1 if not float(p).is_integer() else int(p) - 1)
    tail_start = _ceil(p / 2.0)
    tail_var = math.fsum(seq.v[tail_start - 1:]) if tail_start <= seq.n else 0.0
    head = abs_moment(seq.sorted[:head_count], p) ** (1.0 / p) if head_count else 0.0
    sandwich = Expected("logconcave_sandwich", float(p), True, (),
                        {"head_count": head_count, "tail_start": tail_start},
                        center=center, head=head,
                        g_tail=gaussian_lp_norm(p) * math.sqrt(tail_var))
    return [two_sided, sandwich]


def head_provenance(p: float) -> str:
    if _is_even(p):
        return "exact"
    return "quadrature" if 2.0 < p < 4.0 else "mc"


def all_reports(seq: Sequence, p_values, r_values) -> list:
    out = []
    for p in sorted(set(p_values)):
        if 2.0 <= p <= 4.0:
            out.append(bound_p_2_4(seq, p))
        out.extend(latala(seq, p))
        for r in sorted(set(r_values)):
            if 2.0 <= p <= 2 * r:
                out.append(bound_general_p(seq, p, r))
    for r in sorted(set(r_values)):
        out.append(bound_even_symmetric(seq, r))
        out.append(bound_even_centered(seq, r))
    out.sort(key=lambda e: (e.statement, e.p))
    return out


def ground_provenance(target: list, p: float) -> str:
    if _is_even(p):
        return "exact"
    if all(v.atoms() is not None for v in target):
        return "exact"
    if 2.0 < p < 4.0 and all(v.symmetric for v in target):
        return "quadrature"
    return "mc"


# -- comparing an output with the reference ---------------------------------


class Checker:
    """Collects mismatches between one job's output and the reference.

    `budgets` maps an engine-made value (a quadrature raw moment or a
    Monte Carlo norm) to the error budget the engine reported with it;
    the CLI prints verify grounds without their budgets."""

    def __init__(self, budgets: dict):
        self.budgets = budgets
        self.problems: list[str] = []
        self.over_budget: list[str] = []

    def fail(self, where: str, msg: str) -> None:
        self.problems.append(f"{where}: {msg}")

    def same(self, where: str, got, want) -> None:
        if got != want:
            self.fail(where, f"got {got!r}, reference {want!r}")

    def exact(self, where: str, got: float, want: float, scale: float | None = None) -> None:
        tol = EXACT_RTOL * max(abs(want), abs(scale or 0.0), 1e-300)
        if not abs(got - want) <= tol:
            self.fail(where, f"exact value {got!r} differs from reference {want!r}")

    def within(self, where: str, got: float, want: float, budget: float, kind: str) -> None:
        slack = REFERENCE_RTOL * max(abs(want), 1.0)
        miss = abs(got - want)
        if kind == "mc":
            if not miss <= MC_BUDGET_FACTOR * budget + slack:
                self.fail(where, f"mc value {got!r} is {miss:.3g} from reference "
                                 f"{want!r}, half-width {budget:.3g}")
        elif not miss <= budget + slack:
            if miss <= budget + QUADRATURE_GROSS_RTOL * max(abs(want), 1.0):
                self.over_budget.append(f"{where}: {miss:.3g} > budget {budget:.3g}")
            else:
                self.fail(where, f"quadrature value {got!r} is {miss:.3g} from "
                                 f"reference {want!r}, budget {budget:.3g}")

    def tagged(self, where: str, tag, want: float, kind: str, scale=None,
               budget: float | None = None) -> None:
        """Check a {"value", "provenance", "error"?} tag against `want`."""
        if not isinstance(tag, dict):
            self.fail(where, f"missing value (reference {want!r})")
            return
        self.same(f"{where}.provenance", tag.get("provenance"), kind)
        if kind == "exact":
            self.exact(where, tag["value"], want, scale)
            return
        if budget is None:
            budget = tag.get("error")
        if budget is None:
            self.fail(where, f"{kind} value without an error budget")
            return
        self.within(where, tag["value"], want, budget, kind)

    def constants(self, where: str, got: dict, want: dict) -> None:
        self.same(f"{where}.constants.keys", sorted(got), sorted(want))
        for key, value in want.items():
            if key in got:
                if isinstance(value, int):
                    self.same(f"{where}.constants.{key}", got[key], value)
                else:
                    self.exact(f"{where}.constants.{key}", got[key], value)


def _contained(value: float, lower, upper, budget: float) -> bool:
    margins = []
    if lower is not None:
        margins.append(value - (lower - budget))
    if upper is not None:
        margins.append((upper + budget) - value)
    return min(margins) >= -1e-12 * max(1.0, abs(value))


def _check_report_row(ck: Checker, seq: Sequence, row: dict, exp: Expected,
                      verify: bool) -> bool:
    """Checks one bound row; returns the reference verdict (True = PASS)."""
    where = f"{exp.statement}(p={exp.p})"
    ck.same(f"{where}.statement", row.get("statement"), exp.statement)
    ck.same(f"{where}.p", row.get("p"), exp.p)
    ck.same(f"{where}.certifying", row.get("certifying"), exp.certifying)
    ck.constants(where, row.get("constants", {}), exp.constants or {})
    if not exp.certifying:
        ck.same(f"{where}.failed", tuple(row.get("failed", ())), exp.failed)
        if verify:
            ck.same(f"{where}.verdict", row.get("verdict"), "SKIPPED")
        return True
    if not row.get("certifying"):
        return True
    ck.same(f"{where}.target_kind", row.get("target_kind"), exp.target_kind)
    ck.same(f"{where}.start_index", row.get("start_index"), exp.start_index)
    ck.tagged(f"{where}.center", row.get("center"), exp.center, "exact")
    if exp.radius is not None:
        ck.tagged(f"{where}.radius", row.get("radius"), exp.radius, "exact")
    lower, upper, err = exp.lower, exp.upper, 0.0
    if exp.head is not None:
        kind = head_provenance(exp.p)
        err = (row.get("upper") or {}).get("error", 0.0) if kind != "exact" else 0.0
        lower = max(exp.g_tail, exp.head - err)
        upper = exp.g_tail + exp.head + err
        for name, want in (("lower", lower), ("upper", upper)):
            ck.tagged(f"{where}.{name}", row.get(name), want, kind,
                      budget=None if kind != "exact" else 0.0)
    else:
        for name, want in (("lower", lower), ("upper", upper)):
            if want is None:
                ck.same(f"{where}.{name}", row.get(name), None)
            else:
                ck.tagged(f"{where}.{name}", row.get(name), want, "exact")
    if not verify:
        return True
    target = seq.target(exp.start_index)
    kind = ground_provenance(target, exp.p)
    raw = abs_moment(target, exp.p)
    norm = raw ** (1.0 / exp.p)
    ground = row.get("ground") or {}
    got = ground.get("value")
    if kind == "exact":
        want = raw if exp.target_kind == "abs_moment" else norm
        ck.tagged(f"{where}.ground", ground, want, "exact")
        value, budget = want, 0.0
    elif kind == "quadrature":
        budget = ck.budgets.get(("quadrature", got))
        ck.tagged(f"{where}.ground", ground, raw, kind, budget=budget)
        if exp.target_kind == "abs_moment":
            value = raw
        else:
            value = norm
            budget = (raw + (budget or 0.0)) ** (1.0 / exp.p) - norm
    else:
        entry = ck.budgets.get(("mc", got))
        ck.tagged(f"{where}.ground", ground, norm, kind,
                  budget=None if entry is None else entry[0])
        value, budget = norm, 0.0
        if entry is not None:
            # The verdict reads the raw mean for abs-moment targets.
            value, budget = (raw, entry[2]) if exp.target_kind == "abs_moment" else (norm, entry[0])
    passed = _contained(value, lower, upper, (budget or 0.0) + err)
    ck.same(f"{where}.verdict", row.get("verdict"), "PASS" if passed else "FAIL")
    return passed


def _norm_kind(vars_: list, p: float) -> str:
    if _is_even(p):
        return "exact"
    if 2.0 < p < 4.0 and all(v.symmetric for v in vars_):
        return "quadrature"
    return "mc"


def check_job(doc: dict, status: int, document: str, budgets: dict) -> Checker:
    """Compares a job's (exit status, output) with the reference; the
    returned checker holds the mismatches and the over-budget values."""
    ck = Checker(budgets)
    try:
        rows = json.loads(document)["rows"]
    except (ValueError, KeyError) as exc:
        ck.fail("document", f"not a report document: {exc}")
        return ck
    command = doc["command"]
    vars_ = parse_variables(doc)
    want_status = 0
    if command in ("bound", "verify"):
        seq = Sequence(vars_)
        expected = all_reports(seq, doc.get("p_values", []), doc.get("r_values", []))
        ck.same("rows", len(rows), len(expected))
        for row, exp in zip(rows, expected):
            if not _check_report_row(ck, seq, row, exp, command == "verify"):
                want_status = 1
    elif command == "moments":
        ps = sorted(set(doc.get("p_values", [])) | {2.0 * r for r in doc.get("r_values", [])})
        ck.same("rows", len(rows), len(ps))
        total = math.fsum(v.variance for v in vars_)
        for row, p in zip(rows, ps):
            kind = _norm_kind(vars_, p)
            ck.same(f"moments(p={p}).p", row.get("p"), p)
            ck.tagged(f"moments(p={p}).lp_norm", row.get("lp_norm"),
                      abs_moment(vars_, p) ** (1.0 / p), kind)
            ck.tagged(f"moments(p={p}).gaussian_center", row.get("gaussian_center"),
                      gaussian_lp_norm(p) * math.sqrt(total), "exact")
    elif command == "scan":
        want_status = _check_scan(ck, doc, vars_[0], rows)
    elif command == "check-lemmas":
        # Every checker tests a theorem, so the reference verdict is PASS.
        ck.same("rows>0", bool(rows), True)
        rs = sorted(set(doc.get("r_values", []))) or [2]
        counting = [(row.get("r"), row.get("i")) for row in rows
                    if row.get("check") == "counting_identities"]
        ck.same("counting_identities", counting,
                [(r, i) for r in rs for i in range(1, r + 1)])
        for k, row in enumerate(rows):
            ck.same(f"check[{k}]:{row.get('check')}.passed", row.get("passed"), True)
    else:
        ck.fail("command", f"no reference for {command!r}")
    ck.same("exit_status", status, want_status)
    return ck


def _check_scan(ck: Checker, doc: dict, base: Var, rows: list) -> int:
    status = 0
    k = 0
    for n in sorted(set(doc["n_values"])):
        spec = base.scaled(math.sqrt((1.0 / n) / base.variance))
        seq = Sequence([spec] * n)
        for p in sorted(set(doc["p_values"])):
            if _is_even(p) and p >= 4.0:
                exp = bound_even_symmetric(seq, int(p) // 2)
            elif 2.0 <= p <= 4.0:
                exp = bound_p_2_4(seq, p)
            else:
                exp = latala(seq, p)[0]
            where = f"scan(n={n},p={p})"
            row = rows[k] if k < len(rows) else {}
            k += 1
            ck.same(f"{where}.statement", row.get("statement"), exp.statement)
            if not (exp.certifying and exp.radius is not None):
                ck.same(f"{where}.certifying", row.get("certifying"), False)
                ck.same(f"{where}.failed", tuple(row.get("failed", ())), exp.failed)
                continue
            ck.tagged(f"{where}.radius", row.get("radius"), exp.radius, "exact")
            kind = _norm_kind(seq.vars, p)
            gp = gaussian_lp_norm(p)
            deviation = abs(abs_moment(seq.vars, p) ** (1.0 / p) - gp)
            tag = row.get("deviation") or {}
            ck.tagged(f"{where}.deviation", tag, deviation, kind, scale=gp)
            within = deviation <= exp.radius + tag.get("error", 0.0)
            ck.same(f"{where}.within_radius", row.get("within_radius"), within)
            if not within:
                status = 1
    ck.same("rows", len(rows), k)
    return status
