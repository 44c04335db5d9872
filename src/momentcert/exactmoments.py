"""Exact moment engines: Gaussian L^p norms, even moments of sums of
independent variables from per-variable moment profiles, and E|S|^p,
p >= 1, of sums of independent finite-support summands on one grid
budget, each law one complex array of values + 1j * probabilities.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from functools import cached_property, lru_cache, partial, reduce
from itertools import accumulate, groupby
from operator import itemgetter
from typing import Sequence

import numpy as np

from .distmodel import FAMILIES, MomentProfile, rademacher

__all__ = [
    "SupportExplosion",
    "gaussian_abs_moment",
    "gaussian_lp_norm",
    "is_even",
    "law_abs_moment",
    "moments_of_sum",
    "rademacher_even_moment",
    "rademacher_abs_moment",
    "Runs",
    "sign_law",
    "sum_even_moment",
]

# Most points that one product of two finite-support laws may form.
_MAX_GRID = 20_000_000
# Least p of the finite-support engine (:func:`_check_p` says why).
FINITE_P_MIN = 1.0


class SupportExplosion(ValueError):
    """A finite-support grid would exceed the point budget."""


def is_even(p: float) -> bool:
    """Whether p is an even integer, the orders the even-moment engine takes."""
    return p % 2 == 0


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


class Runs(tuple):
    """A sequence in run-length form: (item, k) pairs, each for k
    consecutive copies of item; :func:`run_lengths` gives the maximal runs.
    Every function here that groups its input into runs takes Runs as they
    are."""

    @classmethod
    def join(cls, pairs) -> "Runs":
        """Runs of the (item, k) pairs, each stretch of consecutive equal
        items joined into one run that keeps its first item."""
        out = []
        for x, k in pairs:
            if out and out[-1][0] == x:
                x, k = out[-1][0], out.pop()[1] + k
            out.append((x, k))
        return cls(out)

    @cached_property
    def offsets(self) -> list[int]:
        """The position of each run's first item, then the item count."""
        return list(accumulate(map(itemgetter(1), self), initial=0))

    total = property(lambda self: self.offsets[-1])  # the number of items

    def cut(self, part: slice) -> "Runs":
        """The runs of the items `part`, a slice without step."""
        start, stop, step = part.indices(self.total)
        if step != 1:
            raise ValueError("runs are cut from a slice without step")
        offsets, out = self.offsets, []
        i = bisect_right(offsets, start) - 1
        while start < stop and offsets[i] < stop:
            out.append((self[i][0], min(offsets[i + 1], stop) - max(offsets[i], start)))
            i += 1
        return Runs(out)


def run_lengths(items: Sequence) -> Runs:
    """(first item, k) for each maximal run of k consecutive equal items;
    Runs are returned as they are.

    groupby tests identity before equality, and callers repeat one
    object for equal summands, so the fast test usually decides.
    """
    if isinstance(items, Runs):
        return items
    return Runs((x, len(list(run))) for x, run in groupby(items))


def counts(items: Sequence, key=None) -> Counter:
    """How many of `items`, a sequence or Runs, share each key(item) (each
    item if no key), in first-seen order."""
    out = Counter()
    for x, k in run_lengths(items):
        out[x if key is None else key(x)] += k
    return out


@lru_cache(maxsize=None)
def _binomials(t: int) -> tuple[float, ...]:
    """Row t of Pascal's triangle, each entry a float rounded once."""
    return tuple(float(math.comb(t, i)) for i in range(t + 1))


def _convolve(order: int, a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Moments of X + Y up to `order` from those of independent X (a) and
    Y (b): c_t = sum_i C(t, i) a_{t-i} b_i, over the pairs of nonzero
    entries only, each c_t summed in increasing i."""
    nonzero = [(s, x) for s, x in enumerate(a[: order + 1]) if x != 0.0]
    binomials = list(map(_binomials, range(order + 1)))
    out = [0.0] * (order + 1)
    for i, y in enumerate(b[: order + 1]):
        if y != 0.0:
            for s, x in nonzero:
                if s + i > order:
                    break
                out[s + i] += binomials[s + i][i] * x * y
    return out


def _power(x, k: int, times):
    """x to the k-th power under the associative product `times`, by
    repeated squaring: O(log k) products."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else times(out, x)
        k >>= 1
        if not k:
            return out
        x = times(x, x)


def sum_even_moment(profiles: Sequence[MomentProfile], r: int) -> float:
    """E (sum_k X_k)^{2r} for independent centered X_k, exact up to rounding:
    :func:`moments_of_sum` on the runs of consecutive equal profiles, which
    `profiles` may give as Runs."""
    if r < 0:
        raise ValueError("r must be non-negative")
    if not profiles:
        raise ValueError("need at least one profile")
    return moments_of_sum(run_lengths(profiles), 2 * r)[2 * r]


def moments_of_sum(runs: Sequence[tuple[MomentProfile, int]], order: int) -> list[float]:
    """E S^t for t = 0..order, S the sum of independent centered variables
    given as runs (profile, k) of k copies of one profile.

    A run of k >= 2 copies of X sums over its active summands, those with a
    nonzero exponent in the multinomial expansion (never 1, as E X = 0):
    E S_k^t = sum_{j=1}^{floor(t/2)} C(k, j) Y_j(t), with Y_1 = (0, 0, mu_2,
    ..., mu_t) and Y_j the binomial convolution of Y_{j-1} with Y_1.  The
    rows depend on the profile alone and are kept on it
    (``MomentProfile.active_rows``), so a run costs O(order^2) at any k.
    The runs are then convolved.  Entry t reads only entries up to t, so it
    does not depend on `order`.  For symmetric summands every term is
    nonnegative, so the rounding is relative to the result however widely
    the variances spread; odd moments of asymmetric summands may cancel,
    and their rounding carries no bound yet.
    """
    for prof, _ in runs:
        if not prof.centered:
            raise ValueError("sum_even_moment requires centered profiles")
        if prof.max_order < order:
            raise ValueError(
                f"profile holds moments to order {prof.max_order}, need {order}"
            )
    m = [1.0] + [0.0] * order
    for prof, k in runs:
        m = _convolve(order, m, _run_moments(prof, k, order))
    return m


def _run_moments(prof: MomentProfile, k: int, order: int) -> Sequence[float]:
    """E S_k^t for t = 0..order, S_k the sum of k independent copies of the
    centered profile: its own moments at k = 1, else the expansion over
    active summands of :func:`moments_of_sum`."""
    if k == 1:
        return prof.moments
    rows = prof.active_rows
    out = [1.0] + [0.0] * order
    c = 1
    for j in range(1, min(k, order // 2) + 1):
        if j not in rows:  # a row is set whole, so threads that race set equal rows
            rows[j] = _convolve(prof.max_order, rows[j - 1], rows[1])
        c = c * (k - j + 1) // j  # C(k, j), exactly
        shift = max(0, c.bit_length() - 1000)  # past the float range, 2^shift is put back last
        coef = float(c >> shift)
        for t in range(2 * j, order + 1):
            if rows[j][t] != 0.0:  # odd orders of a symmetric law are 0
                out[t] += _ldexp(coef * rows[j][t], shift)
    return out


def _ldexp(x: float, e: int) -> float:
    """x 2^e, infinite when it overflows a float."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def rademacher_moments(sigmas: Sequence[float], order: int) -> list[float]:
    """E (sum_k sigma_k eps_k)^t for t = 0..order >= 2, eps_k fair signs,
    exact up to rounding; `sigmas` may be Runs.

    The k signs of each distinct nonzero |sigma| = a are one run, in
    first-seen order, with moments a^t x_t: x_t = E (eps_1 + ... + eps_k)^t
    by :func:`_run_moments` on one fair-sign profile, built per call.  For
    a = m 2^e (math.frexp), entry t is x_t m^t scaled by 2^(e t) with
    :func:`_ldexp`: one rounding below the smallest normal float 2^-1022,
    inf on overflow.  The runs are convolved, in O(order^2) each.

    The weight's own sign profile, a^t at even t, can fail its checks (an
    even moment of 0, a Lyapunov chain broken by rounding) only where
    a^order < 2^-1022; there that power row is validated (ValueError).  A
    run whose x_t overflows while a < 1 is expanded on that row instead.
    """
    unit, m = rademacher(1.0).moments(order), [1.0] + [0.0] * order
    for a, k in counts(sigmas, abs).items():
        if a == 0.0:
            continue
        if not math.isfinite(a):
            raise ValueError(f"sign weights must be finite, got {a!r}")
        x = _run_moments(unit, k, order)
        if a < 1.0 and (math.inf in x or a ** order < 2.0 ** -1022):
            powers = MomentProfile([a ** t if t % 2 == 0 else 0.0 for t in range(order + 1)],
                                   symmetric=True, centered=True)
            if math.inf in x:
                m = _convolve(order, m, _run_moments(powers, k, order))
                continue
        mant, e = math.frexp(a)
        m = _convolve(order, m, [_ldexp(x_t * mant ** t, e * t) for t, x_t in enumerate(x)])
    return m


def rademacher_even_moment(sigmas: Sequence[float], r: int) -> float:
    """E (sum_k sigma_k eps_k)^{2r}, exact up to rounding."""
    return 1.0 if r == 0 else rademacher_moments(sigmas, 2 * r)[2 * r]


def sign_law(sigmas: Sequence[float]) -> np.ndarray:
    """The law of sum_k sigma_k eps_k as the finite-support engine builds
    it, one run per distinct |sigma| in first-seen order, after the fold
    of the first run onto its absolute value: values + 1j * probabilities,
    which :func:`law_abs_moment` reads at any p >= 1.  `sigmas` may be
    Runs.  SupportExplosion past the grid budget."""
    runs, atoms = counts(sigmas, abs), FAMILIES["rademacher"].atoms
    return _atom_law([(*atoms((a,)), k) for a, k in runs.items()])


def law_abs_moment(law: np.ndarray, p: float) -> float:
    """E |X|^p for the finite law `law`, held as values + 1j * probabilities."""
    return float((np.abs(law.real) ** p * law.imag).sum())


def _check_p(p: float) -> None:
    """Refuse p < FINITE_P_MIN (ValueError).  An atom s = sum_k v_k, a float
    sum off by O(eps sum_k |v_k|), has |s|^p off by O(eps) relative to
    (sum_k |v_k|)^p at p >= 1, but by up to (eps sum_k |v_k|)^p below 1."""
    if not p >= FINITE_P_MIN:
        raise ValueError(f"the finite-support engine takes p >= {FINITE_P_MIN:g}, got p = {p}")


def rademacher_abs_moment(sigmas: Sequence[float], p: float) -> float:
    """E |sum_k sigma_k eps_k|^p for p >= 1 by the finite-support engine,
    one run per distinct |sigma| wherever it sits; SupportExplosion past
    its budget."""
    _check_p(p)
    return law_abs_moment(sign_law(sigmas), p)


def _merged(law: np.ndarray) -> np.ndarray:
    """A law, held as values + 1j * probabilities, sorted in place by value
    with equal values merged.  Complex numbers sort by real part first, and
    timsort merges the sorted rows of an outer sum in O(N log rows)."""
    law.sort(kind="stable")
    new = np.concatenate(([True], law.real[1:] != law.real[:-1]))
    if new.all():
        return law
    starts = np.flatnonzero(new)
    out = law[starts]
    out.imag = np.add.reduceat(law.imag, starts)
    return out


def _sum_law(x: np.ndarray, y: np.ndarray, cap: int) -> np.ndarray:
    """The law of X + Y for independent X and Y, each a law of
    :func:`_merged`: every grid is built here, and none above `cap` points
    (SupportExplosion)."""
    if len(x) * len(y) > cap:
        raise SupportExplosion(f"a grid of {len(x) * len(y)} points exceeds {cap}")
    out = np.empty((len(y), len(x)), dtype=complex)
    np.multiply.outer(y.imag, x.imag, out=out.imag)
    np.add.outer(y.real, x.real, out=out.real)
    return _merged(out.ravel())


def run_law(values, probs, k: int, cap: int) -> np.ndarray:
    """The law of the sum of k independent copies of the finite law
    (values, probs), as a law of :func:`_merged`.  Atoms of probability 0
    are dropped.

    Two atoms -a, +a of equal probability (a law that :func:`_mirrored`
    accepts) take their k-fold law in closed form: a (2j - k) with
    probability C(k, j) / 2^k, in O(k).  The terms C(k, j) / C(k, k - h),
    h = floor(k/2), are built outward from the central one by the ratios
    C(k, j+1) / C(k, j), one division and one product per step, mirrored
    exactly, and divided by their math.fsum.  So a probability above
    2^-1022 is off by at most (2 |j - k/2| + sqrt(k) + 2) u relative,
    u = 2^-53, to first order: 2 u per step, u sqrt(k) >= 2 u E|J - k/2|
    for the sum's share, and u each for the fsum and the division.  Other
    laws are powered by repeated squaring.  Either way SupportExplosion is
    raised before any law or grid above `cap` points is built.
    """
    return _run_law(_one_law(values, probs), k, cap)


def _one_law(values, probs) -> np.ndarray:
    """The finite law (values, probs) as a law of :func:`_merged`, without
    its atoms of probability 0."""
    law = np.asarray(values, dtype=float) + 1j * np.asarray(probs, dtype=float)
    return _merged(law[law.imag != 0.0])  # an atom of probability 0 would only widen every grid


def _mirrored(law: np.ndarray) -> bool:
    """Whether a merged law has equal probabilities at -v and +v."""
    return np.array_equal(law, -law[::-1].conj())


def _run_law(one: np.ndarray, k: int, cap: int) -> np.ndarray:
    """The law of the sum of k copies of the law `one` of :func:`_one_law`,
    as :func:`run_law` builds it."""
    if not (len(one) == 2 and _mirrored(one)):
        return _power(one, k, partial(_sum_law, cap=cap))
    if k + 1 > cap:
        raise SupportExplosion(f"a law of {k + 1} points exceeds {cap}")
    h = k // 2
    upper = np.cumprod(np.concatenate(([1.0], np.arange(h, 0, -1) / np.arange(k - h + 1, k + 1))))
    probs = np.concatenate((upper[::-1], upper[1 - k % 2:]))
    probs /= math.fsum(probs)
    return one[1].real * (2.0 * np.arange(k + 1) - k) + 1j * probs


def _atom_abs_moment(runs: Sequence[tuple[Sequence, Sequence, int]], p: float) -> float:
    """E |S|^p for p >= 1, exact up to rounding, for S a sum of independent
    summands of finite support, given as runs (values, probs, k) of k
    copies of one law."""
    _check_p(p)
    return law_abs_moment(_atom_law(runs), p)


def _atom_law(runs: Sequence[tuple[Sequence, Sequence, int]]) -> np.ndarray:
    """The law of S, or of |S|, for S as in :func:`_atom_abs_moment`: a law
    on which E |.|^p is E |S|^p at every p.

    Each run's law is built as :func:`run_law` builds it, the first before
    the reduce and each other one at its step, so a refused grid ends the
    build before the later runs' laws are made.  When every run after the
    first is exactly symmetric (its one-copy law mirrored, which its k-fold
    law then is), E |x + R|^p is even in x for the rest R of the sum, so
    the first law folds onto |X|, which halves the grid.
    """
    if not runs:
        raise ValueError("need at least one summand")
    ones = [_one_law(values, probs) for values, probs, _ in runs]
    laws = (_run_law(one, k, _MAX_GRID) for one, (_, _, k) in zip(ones, runs))
    first = next(laws)
    if all(map(_mirrored, ones[1:])):
        first = _merged(np.abs(first.real) + 1j * first.imag)
    return reduce(partial(_sum_law, cap=_MAX_GRID), laws, first)
