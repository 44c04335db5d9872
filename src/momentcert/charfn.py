"""Characteristic-function machinery.

Two jobs live here.  First, the characteristic-function inequalities are
exposed as runnable grid checkers that report slack (a violation signals an
implementation bug, since the statements are theorems).  Second, the
integral identity

    E|X|^p = C_p * int_0^inf (phi_X(t) - 1 + t^2 E X^2 / 2) t^{-p-1} dt,
    C_p = -(2/pi) sin(p pi / 2) Gamma(p+1) > 0 for 2 < p < 4,

is implemented as a numerical engine for fractional absolute moments of
sums, with a certified error budget (adaptive-quadrature estimate plus an
analytic tail-truncation bound).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy import integrate

from .distmodel import VariableSpec
from .exactmoments import run_lengths, sum_even_moment

__all__ = [
    "CharFunction",
    "IntegralResult",
    "GridCheckReport",
    "default_t_grid",
    "check_cosine_bounds",
    "check_main_charfn_inequality",
    "haagerup_constant",
    "haagerup_moment",
    "sum_abs_moment_via_haagerup",
]

# Below t^2 * variance of this size the compensated integrand switches to
# its Taylor form (orders 4 and 6) to dodge catastrophic cancellation.
_TAYLOR_THRESHOLD = 1e-4

# Numerical slack for "theorem holds on the grid" assertions.
_GRID_SLACK = 1e-12


@dataclass(frozen=True)
class CharFunction:
    """An evaluable real characteristic function with the variance, fourth
    and sixth moments of the underlying variable (the higher moments feed
    the small-t Taylor fallback of the compensated integrand)."""

    fn: Callable[[np.ndarray], np.ndarray]
    variance: float
    fourth_moment: float
    sixth_moment: float

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.fn(arr)
        return float(out) if np.isscalar(t) else out

    @classmethod
    def from_spec(cls, spec: VariableSpec) -> "CharFunction":
        prof = spec.moments(6)
        return cls(spec.charfn, prof.variance, prof.moment(4), prof.moment(6))

    @classmethod
    def product(cls, specs: Sequence[VariableSpec]) -> "CharFunction":
        """phi of a sum of independent variables: the product of the factors.

        The variance is the sum of component variances; the fourth and
        sixth moments of the sum come from the exact convolution engine.
        Consecutive equal specs form one run: its moments are read once,
        and phi evaluates its factor once and multiplies it in k times.
        Multiplying k times rounds exactly like k separate factors, where
        a power f(t)**k would not.
        """
        if not specs:
            raise ValueError("need at least one spec")
        runs = [(s.moments(6), s.phi, k) for s, k in run_lengths(specs)]
        profiles = [prof for prof, _, k in runs for _ in range(k)]
        variance = sum(prof.variance for prof in profiles)
        m4 = sum_even_moment(profiles, 2)
        m6 = sum_even_moment(profiles, 3)
        factors = [(f, k) for _, f, k in runs]

        def prod(t: np.ndarray) -> np.ndarray:
            out = 1.0
            for f, k in factors:
                ft = f(t)
                for _ in range(k):
                    out = out * ft
            return out

        return cls(prod, variance, m4, m6)

    def compensated(self, t):
        """phi(t) - 1 + t^2 variance / 2, safe near t = 0.

        Switches to the Taylor form mu_4 t^4/24 - mu_6 t^6/720 where the
        direct difference would cancel catastrophically.
        """
        arr = np.atleast_1d(np.asarray(t, dtype=float))
        direct = self.fn(arr) - 1.0 + 0.5 * self.variance * arr ** 2
        taylor = self.fourth_moment * arr ** 4 / 24.0 - self.sixth_moment * arr ** 6 / 720.0
        small = self.variance * arr ** 2 < _TAYLOR_THRESHOLD
        out = np.where(small, taylor, direct)
        return float(out[0]) if np.isscalar(t) else out


@dataclass(frozen=True)
class IntegralResult:
    value: float
    quad_error: float
    tail_error: float
    evaluations: int
    converged: bool = True

    @property
    def total_error(self) -> float:
        return self.quad_error + self.tail_error


@dataclass(frozen=True)
class GridCheckReport:
    """Outcome of a theorem check on a t-grid."""

    passed: bool
    margins: dict
    violations: tuple = ()
    preconditions: tuple = ()
    applicable: bool = True


def default_t_grid() -> np.ndarray:
    """The default checker grid: dense on [0, 50] plus log-spaced points
    near the origin, where the inequalities are tightest."""
    return np.concatenate([np.linspace(0.0, 50.0, 10_000), np.logspace(-4, 0, 1_000)])


def check_cosine_bounds(spec: VariableSpec, t_grid=None) -> GridCheckReport:
    """Check 1 - t^2 mu_2/2 <= phi(t) <= 1 - t^2 mu_2/2 + t^4 mu_4/24.

    Holds for every symmetric variable with a finite fourth moment; returns
    the minimum slack observed on each side.
    """
    if not spec.symmetric:
        raise ValueError("cosine bounds require a symmetric variable")
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    prof = spec.moments(4)
    phi = spec.charfn(t)
    lower = 1.0 - 0.5 * prof.variance * t ** 2
    upper = lower + prof.moment(4) * t ** 4 / 24.0
    lo_slack = phi - lower
    up_slack = upper - phi
    bad = (lo_slack < -_GRID_SLACK) | (up_slack < -_GRID_SLACK)
    violations = tuple(
        (float(ti), float(min(l, u)))
        for ti, l, u in zip(t[bad][:10], lo_slack[bad][:10], up_slack[bad][:10])
    )
    return GridCheckReport(
        passed=not bad.any(),
        margins={
            "lower_min_slack": float(lo_slack.min()),
            "upper_min_slack": float(up_slack.min()),
        },
        violations=violations,
    )


def check_main_charfn_inequality(
    x_specs: Sequence[VariableSpec],
    y_specs: Sequence[VariableSpec],
    m: int,
    t_grid=None,
) -> GridCheckReport:
    """Check phi_S(t) + (t^2/2) sum_{k<=m} E X_k^2 >= phi_R(t) on the grid,
    with S the sum of all X_k and R the sum of Y_k for k > m.

    The hypotheses (matching second moments, max variance within the head,
    head variance dominating the worst tail ratio E Y_k^4 / E Y_k^2 over 6)
    are verified first; when any fails the report is marked not applicable
    and the grid is not scanned.
    """
    n = len(x_specs)
    if len(y_specs) != n:
        raise ValueError("x_specs and y_specs must have equal length")
    vx = [s.variance for s in x_specs]
    vy = [s.variance for s in y_specs]
    pre = []
    pre.append(
        (
            "matching_second_moments",
            all(math.isclose(a, b, rel_tol=1e-9) for a, b in zip(vx, vy)),
            "E X_k^2 = E Y_k^2 for all k",
        )
    )
    pre.append(("head_range", 1 <= m < n, f"1 <= m={m} < n={n}"))
    if 1 <= m < n:
        pre.append(
            (
                "max_in_head",
                max(vx[:m]) >= max(vx) * (1.0 - 1e-12),
                "max variance attained at some l <= m",
            )
        )
        worst = max(
            y_specs[k].moments(4).moment(4) / vy[k] for k in range(m, n)
        )
        pre.append(
            (
                "head_mass",
                sum(vx[:m]) >= worst / 6.0 * (1.0 - 1e-12),
                "sum_{k<=m} E X_k^2 >= (1/6) max_{k>m} E Y_k^4 / E Y_k^2",
            )
        )
    preconditions = tuple(pre)
    if not all(ok for _, ok, _ in preconditions):
        return GridCheckReport(
            passed=False, margins={}, preconditions=preconditions, applicable=False
        )
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    phi_s = np.ones_like(t)
    for s in x_specs:
        phi_s = phi_s * s.charfn(t)
    phi_r = np.ones_like(t)
    for s in y_specs[m:]:
        phi_r = phi_r * s.charfn(t)
    slack = phi_s + 0.5 * sum(vx[:m]) * t ** 2 - phi_r
    bad = slack < -_GRID_SLACK
    violations = tuple(
        (float(ti), float(si)) for ti, si in zip(t[bad][:10], slack[bad][:10])
    )
    return GridCheckReport(
        passed=not bad.any(),
        margins={"min_slack": float(slack.min())},
        violations=violations,
        preconditions=preconditions,
    )


def haagerup_constant(p: float) -> float:
    """C_p = -(2/pi) sin(p pi/2) Gamma(p+1), strictly positive on (2, 4)."""
    if not 2.0 < p < 4.0:
        raise ValueError("the integral identity applies only for 2 < p < 4")
    return -(2.0 / math.pi) * math.sin(0.5 * p * math.pi) * math.gamma(p + 1.0)


def haagerup_moment(phi: CharFunction, p: float, tol: float = 1e-8) -> IntegralResult:
    """E|X|^p from phi via the compensated integral identity, 2 < p < 4.

    [0, T] is integrated adaptively: the mild t^{3-p} behaviour at the
    origin is absorbed into an algebraic quadrature weight on [0, 1].
    On [T, inf) the -1 and t^2-variance pieces are integrated in closed
    form; only the |phi| <= 1 piece contributes tail_error = C_p T^{-p}/p.
    """
    cp = haagerup_constant(p)
    if tol <= 0:
        raise ValueError("tol must be positive")
    T = max(50.0 / math.sqrt(phi.variance), 10.0)
    converged = True
    while cp * T ** (-p) / p >= 0.5 * tol:
        T *= 2.0
        if T > 1e12:
            converged = False
            break

    var, m4, m6 = phi.variance, phi.fourth_moment, phi.sixth_moment

    def smooth_part(t: float) -> float:
        # compensated(t) / t^4; the t^{3-p} factor is the quadrature weight.
        if var * t * t < _TAYLOR_THRESHOLD:
            return m4 / 24.0 - m6 * t * t / 720.0
        return (float(phi.fn(np.array([t]))[0]) - 1.0 + 0.5 * var * t * t) / t ** 4

    def plain_part(t: float) -> float:
        return float(phi.compensated(np.array([t]))[0]) / t ** (p + 1.0)

    epsabs = 0.25 * tol / cp
    i1, e1, info1 = integrate.quad(
        smooth_part, 0.0, 1.0, weight="alg", wvar=(3.0 - p, 0.0),
        epsabs=epsabs, epsrel=1e-12, limit=200, full_output=True,
    )[:3]
    i2, e2, info2 = integrate.quad(
        plain_part, 1.0, T,
        epsabs=epsabs, epsrel=1e-12, limit=400, full_output=True,
    )[:3]
    # Closed-form tail pieces: -int_T^inf t^{-p-1} and (var/2) int_T^inf t^{1-p}.
    tail_closed = -(T ** (-p)) / p + phi.variance * T ** (2.0 - p) / (2.0 * (p - 2.0))
    value = cp * (i1 + i2 + tail_closed)
    quad_error = cp * (e1 + e2)
    tail_error = cp * T ** (-p) / p
    if quad_error + tail_error > tol:
        converged = False
    return IntegralResult(
        value=value,
        quad_error=quad_error,
        tail_error=tail_error,
        evaluations=int(info1["neval"]) + int(info2["neval"]),
        converged=converged,
    )


def sum_abs_moment_via_haagerup(
    specs: Sequence[VariableSpec], p: float, tol: float = 1e-8
) -> IntegralResult:
    """E |sum_k X_k|^p for independent symmetric summands, 2 < p < 4."""
    for s in specs:
        if not s.symmetric:
            raise ValueError("all summands must be symmetric")
    return haagerup_moment(CharFunction.product(specs), p, tol)
