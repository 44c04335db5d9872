"""Runs of equal summands: the char-fn product, the finite-support engine, and
every engine and checker on Runs against the same summands as a list."""
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert import exactmoments, oracle
from momentcert import (
    CharFunction,
    SequenceSpec,
    check_rademacher_moment_ratio,
    elementary_symmetric,
    exact_discrete_moment,
    gaussian,
    mc_moment,
    rademacher,
    rademacher_abs_moment,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.exactmoments import Runs, run_lengths


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


@st.composite
def run_lists(draw, finite=False, longest=6):
    """Summands in blocks drawn with replacement from a pool, so runs repeat
    interleaved and one spec sits in several non-adjacent runs; each block
    builds its specs afresh or repeats one object.  The pool holds
    rademacher(s) beside symmetric_three_point(s, 0.5), distinct specs of
    equal profiles; `finite` keeps to finite supports (with an asymmetric
    atom spec), else to families with a characteristic function."""
    s, t = draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0))
    makers = [lambda: rademacher(s), lambda: symmetric_three_point(s, 0.5),
              lambda: symmetric_three_point(t, 0.2)]
    if finite:
        makers.append(lambda: spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 8))
    else:
        makers += [lambda: gaussian(t), lambda: symmetric_exponential(s), lambda: uniform(t)]
    blocks = draw(st.lists(st.tuples(st.sampled_from(range(len(makers))), st.integers(1, longest),
                                     st.booleans()), min_size=1, max_size=5 if finite else 8))
    specs = []
    for j, k, shared in blocks:
        specs += [makers[j]()] * k if shared else [makers[j]() for _ in range(k)]
    return specs


def sequential_esym(values, r):
    """e_r(values) by the column recurrence, one value at a time."""
    e = [1.0] + [0.0] * r
    for v in values:
        for j in range(r, 0, -1):
            e[j] += v * e[j - 1]
    return e[r]


def cuts(n):
    """Every slice(a, b) with 0 <= a <= b <= n."""
    return [slice(a, b) for a in range(n + 1) for b in range(a, n + 1)]


class TestRunsGiveTheBitsOfLists:
    """Each engine and checker gives the same bits on a cut of a
    sequence's runs as on the list of the summands it holds."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs=run_lists())
    def test_cut_is_the_runs_of_the_slice(self, specs):
        runs = run_lengths(specs)
        assert runs.total == len(specs) and runs.offsets[-1] == len(specs)
        for part in cuts(len(specs)):
            assert runs.cut(part) == run_lengths(specs[part])
        assert runs.cut(slice(-2, None)) == run_lengths(specs[-2:])
        with pytest.raises(ValueError, match="without step"):
            runs.cut(slice(0, None, 2))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(specs=run_lists(finite=True, longest=4))
    def test_exact_discrete_moment(self, specs):
        runs = SequenceSpec(tuple(specs)).runs
        for part in cuts(len(specs))[1::7]:
            if part.start == part.stop:
                continue
            # Equal specs merge into one run wherever they sit, in first-seen order.
            laws = [(*s.atoms(), k) for s, k in Counter(specs[part]).items()]
            for p in (0.5, 3.0, 4.5):
                want = exactmoments._atom_abs_moment(laws, p)
                assert exact_discrete_moment(runs.cut(part), p) == want
                assert exact_discrete_moment(specs[part], p) == want

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(specs=run_lists(), p=st.sampled_from((3.0, 4.5)))
    def test_mc_moment(self, specs, p):
        runs = SequenceSpec(tuple(specs)).runs
        starts = sorted({0, len(specs) // 2, len(specs) - 1})
        for start in starts:
            alone = mc_moment(specs[start:], p, samples=10_000, seed=3)
            for others in ((), starts):
                got = []
                for arg in (runs, specs):
                    oracle._pass_sums.cache_clear()  # each pass is drawn, not read back
                    got.append(mc_moment(arg, p, samples=10_000, seed=3, start=start,
                                         starts=others))
                assert got[0] == got[1]
            oracle._pass_sums.cache_clear()
            assert mc_moment(runs, p, samples=10_000, seed=3, start=start) == alone

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(specs=run_lists())
    def test_char_function_product(self, specs):
        runs = SequenceSpec(tuple(specs)).runs
        for part in cuts(len(specs))[1::5]:
            if part.start == part.stop:
                continue
            a, b = CharFunction.product(runs.cut(part)), CharFunction.product(specs[part])
            assert (a.variance, a.fourth_moment, a.sixth_moment, a.eighth_moment, a.factors) == (
                b.variance, b.fourth_moment, b.sixth_moment, b.eighth_moment, b.factors)
            assert a.factors == len(specs[part]) + len(run_lengths(specs[part]))
            assert np.array_equal(a.fn(T_GRID), b.fn(T_GRID))
            assert np.array_equal(a.envelope(T_GRID[1:]), b.envelope(T_GRID[1:]))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(specs=run_lists())
    def test_symmetric_sums_and_the_ratio_check(self, specs):
        srt, _ = SequenceSpec(tuple(specs)).sorted()
        variances = [v.variance for v in srt.variables]
        weights = Runs((math.sqrt(v), k) for v, k in srt.variance_runs)
        for r in range(len(specs) + 1):
            want = sequential_esym(variances, r)
            assert elementary_symmetric(srt.variance_runs, r) == want
            assert elementary_symmetric(variances, r) == want
        for r in (1, 2, 3):
            assert (check_rademacher_moment_ratio(weights, r)
                    == check_rademacher_moment_ratio(list(map(math.sqrt, variances)), r))
