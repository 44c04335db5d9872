"""Shared randomized-input generators, brute-force oracles and a call
counter.

The enumeration oracles here recompute sums of moments by explicit
multi-index expansion; they are deliberately independent of the
convolution engines they are used to check.
"""
from __future__ import annotations

import numpy as np
import pytest

from momentcert import (
    MomentProfile,
    SequenceSpec,
    gaussian,
    multinomial,
    rademacher,
    spec_from_atoms,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.combinatorics import enumerate_indices


def random_symmetric_spec(rng: np.random.Generator, *, min_q: float = 0.05):
    kind = rng.integers(0, 5)
    scale = float(rng.uniform(0.4, 1.6))
    if kind == 0:
        return gaussian(scale)
    if kind == 1:
        return rademacher(scale)
    if kind == 2:
        return symmetric_exponential(scale)
    if kind == 3:
        return uniform(scale)
    q = float(rng.uniform(min_q, 0.5))
    return symmetric_three_point(scale, q)


def random_symmetric_seq(rng: np.random.Generator, n: int, **kw) -> SequenceSpec:
    return SequenceSpec(tuple(random_symmetric_spec(rng, **kw) for _ in range(n)))


def variances(seq: SequenceSpec) -> tuple[float, ...]:
    """The variance of every summand of seq, read from its variables."""
    return tuple(v.variance for v in seq.variables)


def profiles(seq: SequenceSpec, order: int) -> list[MomentProfile]:
    """The moment profile of every summand of seq, read from its variables."""
    return [v.moments(order) for v in seq.variables]


def expand(runs) -> list:
    """The items of `runs`, one per copy."""
    return [x for x, k in runs for _ in range(k)]


def random_logconcave_spec(rng: np.random.Generator):
    kind = rng.integers(0, 4)
    scale = float(rng.uniform(0.4, 1.6))
    return [gaussian, rademacher, symmetric_exponential, uniform][kind](scale)


def random_centered_atom_spec(rng: np.random.Generator, max_order: int = 12):
    """Centered (generally asymmetric) finite mixture given by raw moments."""
    k = int(rng.integers(2, 5))
    values = rng.uniform(-1.5, 1.5, k)
    probs = rng.dirichlet(np.ones(k))
    # keep the centered variable nondegenerate
    if np.var(values) < 1e-2 or float(np.dot((values - values @ probs) ** 2, probs)) < 5e-2:
        return random_centered_atom_spec(rng, max_order)
    return spec_from_atoms(values, probs, max_order)


# -- enumeration oracles ----------------------------------------------------


def enum_sum_even_moment_symmetric(profiles: list[MomentProfile], r: int) -> float:
    """E (sum X_k)^{2r} for symmetric X_k via the even multi-index expansion:
    sum over |alpha| = r of (2r)!/(2 alpha)! prod_k mu^{(k)}_{2 alpha_k}."""
    n = len(profiles)
    total = 0.0
    for alpha in enumerate_indices(n, r):
        coeff = multinomial(2 * r, alpha.doubled())
        term = float(coeff)
        for k, a in enumerate(alpha):
            if a:
                term *= profiles[k].moment(2 * a)
        total += term
    return total


def enum_sum_even_moment_centered(profiles: list[MomentProfile], r: int) -> float:
    """E (sum X_k)^{2r} for centered X_k via the singleton-free expansion:
    sum over |alpha| = 2r, sing(alpha) empty, of (2r)!/alpha! prod_k mu^{(k)}_{alpha_k}."""
    n = len(profiles)
    total = 0.0
    for alpha in enumerate_indices(n, 2 * r, no_singletons=True):
        coeff = multinomial(2 * r, alpha)
        term = float(coeff)
        for k, a in enumerate(alpha):
            if a:
                term *= profiles[k].moment(a)
        total += term
    return total


def rademacher_abs_moment_brute(sigmas, p: float) -> float:
    """E |sum sigma_k eps_k|^p over all 2^n sign vectors (no halving)."""
    sums = np.array([0.0])
    for s in sigmas:
        sums = np.concatenate([sums + s, sums - s])
    return float(np.mean(np.abs(sums) ** p))


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    real, calls = getattr(module, name), []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls
