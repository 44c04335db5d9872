"""Exact moment engines: Gaussian L^p norms, Rademacher sums, and even
moments of sums of independent variables from per-variable moment profiles.
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

import numpy as np

from .distmodel import MomentProfile

__all__ = [
    "DynamicRangeExceeded",
    "WeightVector",
    "gaussian_abs_moment",
    "gaussian_lp_norm",
    "rademacher_even_moment",
    "rademacher_abs_moment",
    "sum_even_moment",
    "tail_sum_even_moment",
]

# 2^(CAP-1) sign vectors is the largest exhaustive enumeration we allow.
ENUMERATION_CAP = 24

# Variance dynamic range above which double precision cannot honour the
# 1e-10 oracle-agreement tolerance without compensated summation.
_MAX_DYNAMIC_RANGE = 1e8


class DynamicRangeExceeded(ValueError):
    """The variances spread too widely for a certified exact convolution."""


@dataclass(frozen=True)
class WeightVector:
    """Coefficients sigma_k of a weighted Rademacher sum sum_k sigma_k eps_k."""

    sigmas: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sigmas", tuple(map(float, self.sigmas)))
        if not self.sigmas:
            raise ValueError("weight vector must be non-empty")

    def __len__(self) -> int:
        return len(self.sigmas)

    @property
    def sorted_nonincreasing(self) -> bool:
        a = [abs(s) for s in self.sigmas]
        return all(a[i] >= a[i + 1] for i in range(len(a) - 1))

    @property
    def total_variance(self) -> float:
        return sum(s * s for s in self.sigmas)


def gaussian_abs_moment(p: float) -> float:
    """E|G|^p for a standard Gaussian G: 2^{p/2} Gamma((p+1)/2) / sqrt(pi)."""
    if p <= 0:
        raise ValueError("p must be positive")
    return math.exp(
        0.5 * p * math.log(2.0) + math.lgamma(0.5 * (p + 1.0)) - 0.5 * math.log(math.pi)
    )


def gaussian_lp_norm(p: float) -> float:
    """The L^p norm (E|G|^p)^{1/p} of a standard Gaussian.

    For even p = 2r this equals ((2r-1)!!)^{1/(2r)}.
    """
    return gaussian_abs_moment(p) ** (1.0 / p)


def _check_dynamic_range(variances: Sequence[float]) -> None:
    lo, hi = min(variances), max(variances)
    if lo <= 0.0:
        raise ValueError("all variances must be positive")
    if hi / lo > _MAX_DYNAMIC_RANGE:
        raise DynamicRangeExceeded(
            f"variance dynamic range {hi / lo:.3g} exceeds {_MAX_DYNAMIC_RANGE:.0e}; "
            "double-precision convolution would lose the certified accuracy"
        )


def run_lengths(items: Sequence) -> list[tuple[object, int]]:
    """(first item, k) for each maximal run of k consecutive equal items.

    groupby tests identity before equality, and callers repeat one
    object for equal summands, so the fast test usually decides.
    """
    return [(x, len(list(run))) for x, run in groupby(items)]


def _convolve(a: Sequence[float], b: Sequence[float], order: int) -> list[float]:
    """Moments of X + Y up to `order` from those of independent X (a) and
    Y (b): c_t = sum_i C(t, i) a_{t-i} b_i."""
    out = [0.0] * (order + 1)
    for t in range(order + 1):
        acc = 0.0
        for i in range(t + 1):
            if b[i] != 0.0 and a[t - i] != 0.0:
                acc += math.comb(t, i) * a[t - i] * b[i]
        out[t] = acc
    return out


def _power(mu: Sequence[float], k: int, order: int) -> Sequence[float]:
    """Moments of the sum of k independent copies of one variable, by
    repeated squaring of the binomial convolution: O(order^2 log k)."""
    out = None
    while True:
        if k & 1:
            out = mu if out is None else _convolve(out, mu, order)
        k >>= 1
        if not k:
            return out
        mu = _convolve(mu, mu, order)


def sum_even_moment(profiles: Sequence[MomentProfile], r: int) -> float:
    """E (sum_k X_k)^{2r} for independent centered X_k, exact up to rounding.

    Binomial-convolution recurrence over the partial sums,
    m_{j+1, t} = sum_i C(t, i) m_{j, t-i} mu^{(j+1)}_i.  Consecutive equal
    profiles form one run, whose k-fold convolution power is taken by
    repeated squaring, so the cost is O(r^2 log k) per run of length k.
    """
    if r < 0:
        raise ValueError("r must be non-negative")
    if not profiles:
        raise ValueError("need at least one profile")
    order = 2 * r
    runs = run_lengths(profiles)
    for prof, _ in runs:
        if not prof.centered:
            raise ValueError("sum_even_moment requires centered profiles")
        if prof.max_order < order:
            raise ValueError(
                f"profile holds moments to order {prof.max_order}, need {order}"
            )
    _check_dynamic_range([prof.variance for prof, _ in runs])
    m = [1.0] + [0.0] * order
    for prof, k in runs:
        m = _convolve(m, _power(prof.moments, k, order), order)
    return m[order]


def tail_sum_even_moment(
    profiles: Sequence[MomentProfile], start_index: int, r: int
) -> float:
    """sum_even_moment over the suffix X_{start_index}, ..., X_n (1-based)."""
    if not 1 <= start_index <= len(profiles):
        raise ValueError(f"start_index {start_index} out of range 1..{len(profiles)}")
    return sum_even_moment(profiles[start_index - 1 :], r)


def _rademacher_profile(sigma: float, order: int) -> MomentProfile:
    mu = [0.0] * (order + 1)
    for l in range(0, order + 1, 2):
        mu[l] = sigma ** l
    return MomentProfile(tuple(mu), symmetric=True, centered=True)


def rademacher_even_moment(w: WeightVector, r: int) -> float:
    """E (sum_k sigma_k eps_k)^{2r}, exact, via the moment-convolution DP."""
    if r == 0:
        return 1.0
    weights = [a for a in map(abs, w.sigmas) if a != 0.0]
    # One profile per distinct |sigma|, shared by its equal weights.
    shared = {a: _rademacher_profile(a, 2 * r) for a in set(weights)}
    profiles = [shared[a] for a in weights]
    if not profiles:
        return 0.0
    return sum_even_moment(profiles, r)


def rademacher_abs_moment(w: WeightVector, p: float, *, cap: int = ENUMERATION_CAP) -> float:
    """E |sum_k sigma_k eps_k|^p by exhaustive sign enumeration.

    Symmetry halves the work: the first sign is fixed.  Among the other
    weights, each distinct |sigma| that occurs k >= 2 times is one binomial
    run, taking the values |sigma| (k - 2j) with probability C(k, j) / 2^k,
    so it adds k + 1 grid points instead of doubling the enumeration k
    times.  Weights that occur once are enumerated sign by sign.  Refuses
    n above the enumeration cap, runs or not; use the Monte Carlo oracle
    for larger n.
    """
    if p <= 0:
        raise ValueError("p must be positive")
    n = len(w)
    if n > cap:
        raise ValueError(
            f"n={n} exceeds the enumeration cap {cap}; "
            "use the Monte Carlo oracle for larger inputs"
        )
    rest = w.sigmas[1:]
    counts = Counter(map(abs, rest))
    sums = np.array([w.sigmas[0]])
    for s in rest:
        if counts[abs(s)] == 1:
            sums = np.concatenate([sums + s, sums - s])
    runs = [(a, k) for a, k in counts.items() if k > 1]
    # Same bits as the weighted form below, which is 1.25x slower on 20
    # distinct weights (its one-column matvec costs as much as the mean).
    if not runs:
        return float(np.mean(np.abs(sums) ** p))
    # The probabilities are exact: dyadic, with numerators below 2^n.
    values, probs = np.array([0.0]), np.array([1.0])
    for a, k in runs:
        weights = np.array([math.comb(k, j) for j in range(k + 1)]) / 2.0 ** k
        values = (values[:, None] + a * (k - 2 * np.arange(k + 1))).ravel()
        probs = (probs[:, None] * weights).ravel()
    return float(np.mean(np.abs(sums[:, None] + values) ** p @ probs))
