"""Runs of equal summands in the char-fn product and the finite-support engine."""
import math

import numpy as np
import pytest

from momentcert import exactmoments
from momentcert import (
    CharFunction,
    gaussian,
    rademacher_abs_moment,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)


def explicit_product(specs, t):
    """phi of the sum, one factor per summand, in input order."""
    out = np.ones_like(t)
    for spec in specs:
        out = out * spec.charfn(t)
    return out


def brute_abs_moment(sigmas, p):
    """E |sum sigma_k eps_k|^p over the 2^(n-1) sign vectors with the first
    sign fixed, one sign at a time."""
    sums = np.array([sigmas[0]])
    for s in sigmas[1:]:
        sums = np.concatenate([sums + s, sums - s])
    return float(np.mean(np.abs(sums) ** p))


T_GRID = np.concatenate([np.linspace(0.0, 40.0, 2001), np.logspace(-5, 0, 200)])

A = symmetric_three_point(1.5, 0.2)
B = uniform(0.8)


class TestCharFunctionProduct:
    @pytest.mark.parametrize(
        "specs",
        [
            [A] * 9,
            [symmetric_exponential(0.7) for _ in range(6)],
            [A, A, B, A],
            [gaussian(1.0)] * 3 + [B] * 5 + [gaussian(1.0)] * 2 + [A],
            [B],
        ],
        ids=["one-object", "equal-copies", "interleaved", "mixed", "single"],
    )
    def test_equals_one_factor_per_summand(self, specs):
        # A run of k equal factors is one power f**k: it agrees with k
        # multiplications to within one unit roundoff per factor.  Its
        # variance is one product k v, which the per-summand sum may miss
        # by up to one unit roundoff per summand.
        phi = CharFunction.product(specs)
        explicit = explicit_product(specs, T_GRID)
        assert np.all(np.abs(phi.fn(T_GRID) - explicit) <= len(specs) * 2.0 ** -53 * np.abs(explicit))
        profiles = [s.moments(8) for s in specs]
        exact_variance = math.fsum(p.variance for p in profiles)
        assert abs(phi.variance - exact_variance) <= len(specs) * 2.0 ** -53 * exact_variance
        assert phi.fourth_moment == sum_even_moment(profiles, 2)
        assert phi.sixth_moment == sum_even_moment(profiles, 3)
        assert phi.eighth_moment == sum_even_moment(profiles, 4)

    def test_reads_moments_once_per_run(self, monkeypatch):
        from momentcert.distmodel import VariableSpec

        calls = []
        real = VariableSpec.moments

        def counting(spec, max_order):
            calls.append(spec)
            return real(spec, max_order)

        monkeypatch.setattr(VariableSpec, "moments", counting)
        CharFunction.product([A, A, B, B, B, A] + [uniform(0.8) for _ in range(3)])
        assert calls == [A, B, A, B]


class TestRademacherRuns:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20])
    def test_all_distinct(self, n):
        sig = tuple(np.random.default_rng(n).uniform(0.2, 2.0, n))
        for p in (2.5, 3.0, 3.7):
            got = rademacher_abs_moment(sig, p)
            assert got == pytest.approx(brute_abs_moment(sig, p), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 9, 16, 20])
    def test_one_run(self, n):
        sig = (1.3,) * n
        for p in (2.5, 3.0, 3.7):
            got = rademacher_abs_moment(sig, p)
            assert got == pytest.approx(brute_abs_moment(sig, p), rel=1e-13)

    @pytest.mark.parametrize(
        "sig",
        [
            (2.0,) * 3 + (1.0,) * 5 + (0.5,) * 4,
            (1.0, 2.0, 1.0, 3.0, 2.0, 0.7),
            (1.0, -1.0, 1.5, -1.5, 1.5, 0.3, 0.0, 0.0),
            (0.9,) + (1.1,) * 6 + (0.4, 0.6, 0.8) + (2.0,) * 4 + (0.25,) * 6,
        ],
        ids=["sorted-runs", "scattered", "signs-and-zeros", "n20-mixed"],
    )
    def test_mixed_runs(self, sig):
        for p in (2.5, 3.0, 3.7):
            got = rademacher_abs_moment(sig, p)
            assert got == pytest.approx(brute_abs_moment(sig, p), rel=1e-13)

    def test_budget_counts_grid_points(self, monkeypatch):
        # Equal weights form one binomial run of n + 1 points, whatever n.
        for n in (25, 30):
            got = rademacher_abs_moment((1.3,) * n, 3.0)
            want = sum(math.comb(n, j) * abs(n - 2 * j) ** 3 for j in range(n + 1)) / 2 ** n
            assert got == pytest.approx(1.3 ** 3 * want, rel=1e-13)
        # 26 distinct weights need a grid of 2^25 points (one sign fixed).
        # A budget of 2^12 refuses them at the 2^13-point product, cheaply.
        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        sig = tuple(np.random.default_rng(26).uniform(0.2, 2.0, 26))
        with pytest.raises(exactmoments.SupportExplosion, match="8192 points"):
            rademacher_abs_moment(sig, 3.0)
        assert rademacher_abs_moment(sig[:13], 3.0) > 0
