"""Characteristic-function machinery.

Two jobs live here.  First, the characteristic-function inequalities are
exposed as runnable grid checkers that report slack (a violation signals an
implementation bug, since the statements are theorems).  Second, the
integral identity

    E|X|^p = C_p * int_0^inf (phi_X(t) - 1 + t^2 E X^2 / 2) t^{-p-1} dt,
    C_p = -(2/pi) sin(p pi / 2) Gamma(p+1) > 0 for 2 < p < 4,

is implemented as a numerical engine for fractional absolute moments of
sums, with a certified error budget.  The integral is split in three: a
closed-form Taylor head on [0, a] from the fourth and sixth moments, whose
remainder the eighth moment bounds; vectorized adaptive Gauss-Kronrod 7/15
panels on [a, T], with a bound on the rounding of phi; and a closed-form
tail on [T, inf), where the envelope |phi| <= E(T) of the summands'
families bounds the rest (E = 1 when no factor decays).  The tolerance is
relative to the scale of the sum, tol * variance^(p/2), at every scale:
the head split, the tail point and the rounding bound all scale with the
standard deviation, so a sum converges exactly when its unit-variance
rescaling does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np

from .distmodel import VariableSpec
from .exactmoments import moments_of_sum, run_lengths

__all__ = [
    "CharFunction",
    "IntegralResult",
    "GridCheckReport",
    "default_t_grid",
    "check_cosine_bounds",
    "check_main_charfn_inequality",
    "haagerup_constant",
    "haagerup_moment",
]

# Numerical slack for "theorem holds on the grid" assertions.
_GRID_SLACK = 1e-12

# Gauss-Kronrod 7/15 on [-1, 1] (QUADPACK's qk15): the Kronrod nodes x >= 0
# in decreasing order, their Kronrod weights, and the 7-point Gauss weights
# on the nodes the two rules share (0 on the Kronrod-only nodes).
_XK = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245, 0.0,
])
_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
])
_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467263747958,
    0.0, 0.381830050505118944950369775488975, 0.0, 0.417959183673469387755102040816327,
])
_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])
_KRONROD = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS = np.concatenate([_WG[:-1], _WG[::-1]])

_UNIT_ROUNDOFF = 2.0 ** -53
# |fl(f(t)) - f(t)| <= _FACTOR_ULPS * u * (1 + sigma t) for one factor f of
# a product, the rounding of its argument (sigma t) included; a power f**k
# and each multiplication count as k and one more factors.
_FACTOR_ULPS = 4.0
# The adaptive rule stops bisecting at this many panels (15 nodes each).
_MAX_PANELS = 4096


@dataclass(frozen=True)
class CharFunction:
    """An evaluable real characteristic function with the variance, fourth,
    sixth and eighth moments of the underlying variable (they give the
    quadrature its closed-form Taylor head and that head's remainder).
    `envelope` bounds |fn| on [t, inf) at every t > 0; `factors` counts
    the factors whose rounding `fn` accumulates."""

    fn: Callable[[np.ndarray], np.ndarray]
    variance: float
    fourth_moment: float
    sixth_moment: float
    eighth_moment: float
    envelope: Callable[[np.ndarray], np.ndarray]
    factors: int = 1

    def __call__(self, t):
        arr = np.asarray(t, dtype=float)
        out = self.fn(arr)
        return float(out) if np.isscalar(t) else out

    @classmethod
    def product(cls, specs: Sequence[VariableSpec]) -> "CharFunction":
        """phi of a sum of independent variables: the product of the factors.

        Consecutive equal specs form one run (`specs` may be Runs), and
        every step works per run: its moments are read once, its variance
        counts k times, the fourth, sixth and eighth moments of the sum come
        from one exact convolution of the runs, and phi evaluates its factor
        once and raises it to the k-th power, so a run costs the same at
        any k.  The power differs from k multiplications by less than one
        unit roundoff per factor.
        The envelope is the product of the runs' envelopes E^k, identically
        1 when no factor decays.
        """
        specs = run_lengths(specs)
        if not specs:
            raise ValueError("need at least one spec")
        runs = [(s.moments(8), s.phi, s.envelope, k) for s, k in specs]
        variance = sum(prof.variance * k for prof, _, _, k in runs)
        m = moments_of_sum([(prof, k) for prof, _, _, k in runs], 8)
        return cls(
            partial(_power_product, [(f, k) for _, f, _, k in runs]), variance, m[4], m[6], m[8],
            partial(_power_product, [(e, k) for _, _, e, k in runs]), specs.total + len(runs),
        )


def _power_product(factors, t: np.ndarray) -> np.ndarray:
    """The product of f(t) ** k over the pairs (f, k), from 1 in input
    order: each f is evaluated once, at any k."""
    out = 1.0
    for f, k in factors:
        out = out * f(t) ** k
    return out


@dataclass(frozen=True)
class IntegralResult:
    """E|X|^p with its error budget in three parts: the panels' Gauss-Kronrod
    estimate plus the rounding bound of phi (quad), the Taylor head's
    remainder (head) and the truncated tail (tail).  `converged` says the
    budget met the requested tolerance."""

    value: float
    quad_error: float
    head_error: float
    tail_error: float
    evaluations: int
    converged: bool

    @property
    def total_error(self) -> float:
        return self.quad_error + self.head_error + self.tail_error


@dataclass(frozen=True)
class GridCheckReport:
    """Outcome of a theorem check on a t-grid."""

    passed: bool
    margins: dict
    violations: tuple = ()
    preconditions: tuple = ()
    applicable: bool = True


def _grid_report(t, slack, margins, preconditions=(), rounding=_GRID_SLACK) -> GridCheckReport:
    """Passed iff no slack falls below -rounding; the first ten
    violations are reported as (t, slack)."""
    bad = slack < -rounding
    return GridCheckReport(
        passed=not bad.any(),
        margins=margins,
        violations=tuple(zip(t[bad][:10].tolist(), slack[bad][:10].tolist())),
        preconditions=preconditions,
    )


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
    margins = {"lower_min_slack": float(lo_slack.min()), "upper_min_slack": float(up_slack.min())}
    return _grid_report(t, np.minimum(lo_slack, up_slack), margins)


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
    and the grid is not scanned.  Either side may be given as Runs.  Each
    run of equal specs reads its variance and moments once and evaluates
    its factor once, raised to the run's length as in CharFunction.product.
    A slack passes down to minus its rounding, which grows with n.
    """
    x, y = run_lengths(x_specs), run_lengths(y_specs)
    if y.total != (n := x.total):
        raise ValueError("x_specs and y_specs must have equal length")
    head, tail = x.cut(slice(m)), y.cut(slice(m, None))
    pre = [
        ("matching_second_moments",  # each run of x against the runs of y beside it
         all(math.isclose(a.variance, b.variance, rel_tol=1e-9)
             for (a, k), i in zip(x, x.offsets) for b, _ in y.cut(slice(i, i + k))),
         "E X_k^2 = E Y_k^2 for all k"),
        ("head_range", 1 <= m < n, f"1 <= m={m} < n={n}"),
    ]
    if 1 <= m < n:
        head_mass = sum(s.variance * k for s, k in head)
        worst = max(s.moments(4).moment(4) / s.variance for s, _ in tail)
        pre += [
            ("max_in_head", max(s.variance for s, _ in head) >= max(s.variance for s, _ in x)
             * (1.0 - 1e-12), "max variance attained at some l <= m"),
            ("head_mass", head_mass >= worst / 6.0 * (1.0 - 1e-12),
             "sum_{k<=m} E X_k^2 >= (1/6) max_{k>m} E Y_k^4 / E Y_k^2"),
        ]
    preconditions = tuple(pre)
    if not all(ok for _, ok, _ in preconditions):
        return GridCheckReport(
            passed=False, margins={}, preconditions=preconditions, applicable=False
        )
    t = default_t_grid() if t_grid is None else np.asarray(t_grid, dtype=float)
    phi_s, phi_r = (_power_product([(s.charfn, k) for s, k in side], t) for side in (x, tail))
    quadratic = 0.5 * head_mass * t ** 2
    slack = phi_s + quadratic - phi_r
    # Each product rounds as haagerup_moment charges phi (summands and runs
    # as factors), the quadratic term m + 1 times and each addition once.
    rounding = _UNIT_ROUNDOFF * ((m + 1) * quadratic + np.abs(phi_s + quadratic) + np.abs(slack))
    for side in (x, tail):
        sigma = math.sqrt(sum(s.variance * k for s, k in side))
        rounding += _FACTOR_ULPS * _UNIT_ROUNDOFF * (side.total + len(side)) * (1.0 + sigma * t)
    return _grid_report(t, slack, {"min_slack": float(slack.min())}, preconditions, rounding)


def haagerup_constant(p: float) -> float:
    """C_p = -(2/pi) sin(p pi/2) Gamma(p+1), strictly positive on (2, 4)."""
    if not 2.0 < p < 4.0:
        raise ValueError("the integral identity applies only for 2 < p < 4")
    return -(2.0 / math.pi) * math.sin(0.5 * p * math.pi) * math.gamma(p + 1.0)


def haagerup_moment(phi: CharFunction, p: float, tol: float = 1e-8) -> IntegralResult:
    """E|X|^p from phi via the compensated integral identity, 2 < p < 4.

    With I = int_0^inf g(t) t^{-p-1} dt, g = phi - 1 + t^2 variance / 2:
    - on [0, a], g is replaced by its Taylor polynomial m4 t^4/24 -
      m6 t^6/720 and integrated in closed form; since cos alternates,
      the remainder is at most m8 a^(8-p) / (8! (8-p));
    - on [a, T], vectorized adaptive Gauss-Kronrod 7/15: each round
      evaluates phi once, on the nodes of every panel it bisects, and
      bisects the panels with the largest |Kronrod - Gauss| until their
      sum fits the budget; the rounding of phi (fuzz (1 + sigma t), with
      fuzz = _FACTOR_ULPS u per factor) adds a bound of its own; a panel
      wide enough to alias phi is charged E(lo) times the integral of
      t^{-p-1} over it;
    - on [T, inf), the -1 and t^2-variance pieces are in closed form and
      |phi| <= E(T) bounds the rest by E(T) T^{-p}/p.
    a balances the head's remainder against the rounding of g near the
    origin.  T is where T^{-p}/p is a quarter of the budget, moved down
    by factors 2^(1/8), not below a, while E(T) T^{-p}/p still fits that
    quarter: where phi decays, T and the panels end where it has decayed,
    and where it does not (E = 1), T stays.  The result is `converged` iff
    its total error is at most tol * variance^(p/2), relative to the sum's
    scale at every variance.
    """
    cp = haagerup_constant(p)
    if tol <= 0:
        raise ValueError("tol must be positive")
    var, m4, m6, m8 = phi.variance, phi.fourth_moment, phi.sixth_moment, phi.eighth_moment
    sigma = math.sqrt(var)
    scale = tol * var ** (0.5 * p)
    budget = scale / cp  # on the scale of I
    u = _UNIT_ROUNDOFF
    fuzz = _FACTOR_ULPS * phi.factors * u
    T = (4.0 / (p * budget)) ** (1.0 / p)
    a = min((40320.0 * (fuzz + 2.0 * u) / m8) ** 0.125, 0.5 * T)
    # The last of T 2^(-j/8), j = 1, 2, ..., before the first whose tail
    # bound does not fit; T itself if none fits, as with E = 1.
    ends = T * 2.0 ** (-np.arange(math.floor(8.0 * math.log2(T / a)) + 1) / 8.0)
    fits = phi.envelope(ends) * ends ** (-p) / p <= 0.25 * budget
    T = float(ends[int(np.cumprod(fits[1:]).sum())])
    tail_error = float(phi.envelope(T)) * T ** (-p) / p
    head = m4 * a ** (4.0 - p) / (24.0 * (4.0 - p)) - m6 * a ** (6.0 - p) / (720.0 * (6.0 - p))
    head_error = m8 * a ** (8.0 - p) / (40320.0 * (8.0 - p))
    # Rounding of g on [a, T]: phi's fuzz (1 + sigma t), 2u for the -1, and
    # u var t^2 / 2 for the last term, whose integral t^{1-p} <= a^{2-p} / t.
    rounding = (
        (fuzz + 2.0 * u) * a ** (-p) / p
        + fuzz * sigma * a ** (1.0 - p) / (p - 1.0)
        + 0.5 * u * var * a ** (2.0 - p) * math.log(T / a)
    )
    # Closed-form tail pieces: -int_T^inf t^{-p-1} and (var/2) int_T^inf t^{1-p}.
    tail = -(T ** (-p)) / p + var * T ** (2.0 - p) / (2.0 * (p - 2.0))

    def rules(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The Kronrod estimate of the integral over each [lo, hi] and its
        error: |Kronrod - Gauss| on a panel narrower than one period
        2 pi / m8^(1/8) of phi's oscillation.  On a wider one, 15 nodes may
        alias it, so |phi| <= E(lo) bounds the error by E(lo) times the
        integral of t^{-p-1} plus its Kronrod sum, if that is larger."""
        half = 0.5 * (hi - lo)
        t = ((0.5 * (lo + hi))[:, None] + half[:, None] * _NODES).ravel()
        weight = (t ** (-p - 1.0)).reshape(-1, _NODES.size)
        f = (phi.fn(t) - 1.0 + 0.5 * var * t ** 2).reshape(weight.shape) * weight
        kronrod = half * (f @ _KRONROD)
        err = np.abs(kronrod - half * (f @ _GAUSS))
        alias = ((lo ** (-p) - hi ** (-p)) / p + half * (weight @ _KRONROD)) * phi.envelope(lo)
        coarse = (hi - lo) * m8 ** 0.125 > 2.0 * math.pi
        return kronrod, np.where(coarse, np.maximum(err, alias), err)

    edges = np.geomspace(a, T, max(2, math.ceil(math.log2(T / a))) + 1)
    lo, hi = edges[:-1], edges[1:]
    kronrod, err = rules(lo, hi)
    evaluations = _NODES.size * lo.size
    fixed = head_error + rounding + tail_error
    target = budget - fixed if fixed < budget else fixed
    while err.sum() > target and lo.size < _MAX_PANELS:
        order = np.argsort(err)[::-1]
        excess = err.sum() - 0.5 * target
        k = min(int(np.searchsorted(np.cumsum(err[order]), excess)) + 1, _MAX_PANELS - lo.size)
        split, keep = order[:k], order[k:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_k, new_err = rules(new_lo, new_hi)
        evaluations += _NODES.size * new_lo.size
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        kronrod = np.concatenate([kronrod[keep], new_k])
        err = np.concatenate([err[keep], new_err])
    errors = (cp * float(err.sum() + rounding), cp * head_error, cp * tail_error)
    return IntegralResult(
        cp * (head + float(kronrod.sum()) + tail), *errors, evaluations, sum(errors) <= scale,
    )

