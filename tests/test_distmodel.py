import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from momentcert import distmodel
from momentcert.exactmoments import sum_even_moment
from momentcert.distmodel import (
    MomentProfile,
    NoEngine,
    from_profile,
    gaussian,
    rademacher,
    sample_runs,
    spec_from_atoms,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)

ALL_FAMILIES = [
    gaussian(1.0),
    gaussian(0.7),
    rademacher(1.0),
    rademacher(1.3),
    symmetric_exponential(1.0),
    symmetric_exponential(0.5),
    uniform(1.0),
    uniform(2.0),
    symmetric_three_point(1.0, 0.25),
    symmetric_three_point(0.8, 0.05),
]


class TestMomentProfile:
    def test_rejects_bad_mu0(self):
        with pytest.raises(ValueError):
            MomentProfile((2.0, 0.0, 1.0))

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            MomentProfile((1.0, 0.0, 0.0))

    def test_rejects_nonzero_odd_for_symmetric(self):
        with pytest.raises(ValueError):
            MomentProfile((1.0, 0.0, 1.0, 0.5, 3.0), symmetric=True)

    def test_rejects_lyapunov_violation(self):
        # mu_4 < mu_2^2 cannot happen for a genuine distribution
        with pytest.raises(ValueError):
            MomentProfile((1.0, 0.0, 1.0, 0.0, 0.5), symmetric=True, centered=True)

    def test_even_norm(self):
        prof = gaussian(1.0).moments(4)
        assert prof.even_norm(4) == pytest.approx(3.0 ** 0.25)


class TestMomentsOf:
    def test_rademacher_l4(self):
        assert rademacher(1.0).moments(4).moments == (1.0, 0.0, 1.0, 0.0, 1.0)

    def test_symmetric_exponential_matches_factorial_form(self):
        prof = symmetric_exponential(1.0).moments(8)
        for l in range(1, 5):
            assert prof.moment(2 * l) == pytest.approx(
                math.factorial(2 * l) / 2 ** l
            )
        assert prof.moment(4) == pytest.approx(6.0)

    def test_three_point_moments(self):
        prof = symmetric_three_point(1.0, 0.01).moments(4)
        assert prof.moment(2) == pytest.approx(0.02)
        assert prof.moment(4) == pytest.approx(0.02)

    def test_uniform_moments(self):
        prof = uniform(1.0).moments(6)
        assert prof.moment(2) == pytest.approx(1.0 / 3.0)
        assert prof.moment(4) == pytest.approx(1.0 / 5.0)

    def test_raw_profile_order_cap(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0, 0.0, 3.0), centered=True))
        with pytest.raises(ValueError):
            spec.moments(6)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
    def test_profile_invariants_all_families(self, spec):
        prof = spec.moments(12)
        assert prof.symmetric and prof.centered
        # Lyapunov chain revalidated explicitly
        roots = [prof.moment(2 * l) ** (1.0 / (2 * l)) for l in range(1, 7)]
        assert all(a <= b * (1 + 1e-9) for a, b in zip(roots, roots[1:]))


class TestCharfnOf:
    def test_gaussian(self):
        assert gaussian(2.0).charfn(0.0) == pytest.approx(1.0)
        assert gaussian(1.0).charfn(1.5) == pytest.approx(math.exp(-1.125))

    def test_rademacher_at_pi(self):
        assert rademacher(1.0).charfn(math.pi) == pytest.approx(-1.0)

    def test_laplace_closed_form(self):
        assert symmetric_exponential(1.0).charfn(math.sqrt(2.0)) == pytest.approx(0.5)

    def test_raw_refused(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
        with pytest.raises(NoEngine):
            spec.charfn(1.0)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
    def test_bounded_even_and_unit_at_zero(self, spec):
        t = np.linspace(-10, 10, 401)
        phi = spec.charfn(t)
        assert np.all(np.abs(phi) <= 1 + 1e-12)
        assert np.allclose(phi, phi[::-1])
        assert spec.charfn(0.0) == pytest.approx(1.0)


    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
    def test_phi_is_charfn_on_arrays(self, spec):
        t = np.linspace(-10, 10, 401)
        assert np.array_equal(spec.phi(t), spec.charfn(t))

    def test_raw_has_no_phi(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
        with pytest.raises(NoEngine):
            spec.phi


_SCALE = st.floats(1e-3, 1e3)
FAMILY_PARAMS = {
    "gaussian": st.tuples(_SCALE),
    "rademacher": st.tuples(_SCALE),
    "symmetric_exponential": st.tuples(_SCALE),
    "uniform": st.tuples(_SCALE),
    "symmetric_three_point": st.tuples(_SCALE, st.floats(1e-3, 0.5)),
}


class TestEnvelope:
    def test_every_family_has_params(self):
        assert set(FAMILY_PARAMS) == set(distmodel.FAMILIES)

    @pytest.mark.parametrize("family", sorted(FAMILY_PARAMS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bounds_phi_and_does_not_increase(self, family, data):
        """|phi(t)| <= E(t) for t in (0, 10^4], up to rounding, and E does
        not increase: so E(t) bounds |phi| on all of [t, inf)."""
        spec = distmodel.VariableSpec(family, data.draw(FAMILY_PARAMS[family]))
        t = np.sort(np.array(data.draw(st.lists(
            st.floats(0.0, 1e4, exclude_min=True), min_size=2, max_size=20))))
        env = spec.envelope(t)
        assert np.all(np.abs(spec.phi(t)) <= env * (1.0 + 1e-14))
        assert np.all(env[1:] <= env[:-1] * (1.0 + 1e-14))
        assert np.all(env <= 1.0)

    def test_raw_has_no_envelope(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
        with pytest.raises(NoEngine):
            spec.envelope


class TestSample:
    def test_deterministic(self):
        a = gaussian(2.0).sample_with(np.random.default_rng(123), 1000)
        b = gaussian(2.0).sample_with(np.random.default_rng(123), 1000)
        assert np.array_equal(a, b)

    def test_rademacher_mean(self):
        x = rademacher(1.0).sample_with(np.random.default_rng(7), 10 ** 6)
        assert abs(x.mean()) < 5e-3

    def test_uniform_second_moment(self):
        x = uniform(1.0).sample_with(np.random.default_rng(11), 10 ** 6)
        assert abs((x ** 2).mean() - 1.0 / 3.0) < 2e-3

    def test_raw_refused(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
        with pytest.raises(NoEngine):
            spec.sample_with(np.random.default_rng(0), 10)

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
    def test_empirical_moments_match(self, spec):
        """Monte Carlo moments agree with the closed forms within 6 SE."""
        n = 10 ** 6
        x = spec.sample_with(np.random.default_rng(2024), n)
        prof = spec.moments(12)
        big = spec.moments(24) if spec.family != "raw_moments" else None
        for order in (2, 4, 6, 8, 10, 12):
            emp = float(np.mean(x ** order))
            se = math.sqrt(
                max(big.moment(2 * order) - prof.moment(order) ** 2, 0.0) / n
            )
            assert abs(emp - prof.moment(order)) <= 6 * se + 1e-12

    @pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
    def test_empirical_charfn_matches(self, spec):
        n = 10 ** 6
        x = spec.sample_with(np.random.default_rng(99), n)
        for t in np.linspace(0.0, 10.0, 11):
            emp = float(np.mean(np.cos(t * x)))
            # Var cos(tX) <= 1
            assert abs(emp - spec.charfn(t)) <= 6.0 / math.sqrt(n) + 1e-12


# Every family, a three-point law at q = 1/2 (whose atom 0 has probability
# 0) and an atom spec, each drawn from the exact law of its run.
RUN_SPECS = [
    gaussian(0.7),
    rademacher(1.3),
    symmetric_exponential(0.5),
    uniform(2.0),
    symmetric_three_point(0.8, 0.05),
    symmetric_three_point(1.0, 0.5),
    spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 8),
]


# Gaussian scale mixture runs of unequal scales and lengths, which
# sample_runs draws with one shared normal draw.
MIXED_RUNS = [(gaussian(0.9), 5), (symmetric_exponential(0.4), 6), (gaussian(2.0), 1),
              (symmetric_exponential(1.5), 1000)]
# Every run spec at k in {2, 7, 1000}, a single draw of each mixture
# family, and the mixed runs.
RUN_CASES = ([[(spec, k)] for spec in RUN_SPECS for k in (2, 7, 1000)]
             + [[(gaussian(0.7), 1)], [(symmetric_exponential(0.5), 1)], MIXED_RUNS])


class ConstantUniform:
    """A generator stub whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, count):
        return np.full(count, self.u)


class TestAliasTable:
    LAWS = [
        ([-1.0, 1.0], [0.5, 0.5]),
        ([2.5], [1.0]),
        ([-3.0, -0.5, 0.0, 0.25, 4.0], [0.1, 0.35, 0.0, 0.05, 0.5]),
        (np.linspace(-2.0, 2.0, 37), np.random.default_rng(3).dirichlet(np.ones(37))),
        (np.linspace(-5.0, 5.0, 1023), np.random.default_rng(7).dirichlet(np.ones(1023))),
    ]
    IDS = ["two", "one", "zero-weight", "37", "1023"]

    @pytest.mark.parametrize("values, probs", LAWS, ids=IDS)
    def test_columns_hold_the_law(self, values, probs):
        """Column j gives its atom accept[j] / n and its alias the rest, so
        the columns add up to the law, up to rounding."""
        table = distmodel.AliasTable(np.array(values), np.array(probs))
        n = len(values)
        mass = dict.fromkeys(map(float, values), 0.0)
        for v, a, w in zip(table.columns[:n], table.accept, table.columns[n:]):
            mass[float(v)] += a / n
            mass[float(w)] += (1.0 - a) / n
        assert list(mass.values()) == pytest.approx(list(probs), abs=1e-15)

    @pytest.mark.parametrize("values, probs", LAWS, ids=IDS)
    def test_draw_frequencies(self, values, probs):
        n = 400_000
        x = distmodel.AliasTable(np.array(values), np.array(probs)).draw(
            np.random.default_rng(6), n)
        drawn, counts = np.unique(x, return_counts=True)
        assert set(drawn) <= {v for v, q in zip(values, probs) if q > 0.0}
        freq = dict(zip(drawn, counts / n))
        for v, q in zip(values, probs):
            assert abs(freq.get(v, 0.0) - q) <= 6.0 * math.sqrt(q * (1.0 - q) / n)

    def test_largest_uniform_stays_in_the_table(self):
        """n U < n for U = nextafter(1, 0) at every n the table may have,
        so floor(n U) is the last column, without a clamp."""
        u = math.nextafter(1.0, 0.0)
        assert all(math.floor(n * u) == n - 1 for n in range(1, 1025))
        n = np.arange(1, 1025)
        assert np.array_equal((n * u).astype(np.intp), n - 1)

    @pytest.mark.parametrize("values, probs", LAWS, ids=IDS)
    def test_extreme_uniforms_draw_the_end_columns(self, values, probs):
        """U = j / n, where n U is j exactly (U = 0 among them), takes
        column j at remainder 0: its atom, unless that has weight 0.
        U = nextafter(1, 0) takes the last column, at a remainder within
        n 2^-53 of 1, so its atom only where it keeps the whole column."""
        table = distmodel.AliasTable(np.array(values), np.array(probs))
        n = len(values)
        for j in [j for j in range(n) if j / n * n == j]:
            drawn = table.draw(ConstantUniform(j / n), 3)
            assert np.all(drawn == table.columns[j if table.accept[j] > 0.0 else n + j])
        last = table.draw(ConstantUniform(math.nextafter(1.0, 0.0)), 3)
        assert np.all(last == (table.columns[n - 1] if table.accept[-1] == 1.0
                               else table.columns[2 * n - 1]))

    def test_sample_runs_draws_the_table_first(self):
        table = distmodel.AliasTable(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        runs = [(uniform(0.5), 1)]
        rng = np.random.default_rng(4)
        expected = table.draw(rng, 1000)
        expected += sample_runs(runs, rng, 1000)
        got = sample_runs(runs, np.random.default_rng(4), 1000, table)
        assert np.array_equal(got, expected)
        assert np.array_equal(sample_runs([], np.random.default_rng(4), 1000, table),
                              table.draw(np.random.default_rng(4), 1000))

    def test_sample_runs_draws_the_tables_in_order(self):
        first = distmodel.AliasTable(np.array([-1.0, 2.0]), np.array([2 / 3, 1 / 3]))
        second = distmodel.AliasTable(np.array([-0.5, 0.0, 0.5]), np.array([0.25, 0.5, 0.25]))
        runs = [(uniform(0.5), 1)]
        rng = np.random.default_rng(5)
        expected = first.draw(rng, 1000)
        expected += second.draw(rng, 1000)
        expected += sample_runs(runs, rng, 1000)
        got = sample_runs(runs, np.random.default_rng(5), 1000, first, second)
        assert np.array_equal(got, expected)


def _runs_id(runs):
    return "mixed" if runs is MIXED_RUNS else f"{runs[0][0]}-{runs[0][1]}"


def _draw(runs, rng, n):
    """sample_with for one run, sample_runs for several."""
    if len(runs) == 1:
        return runs[0][0].sample_with(rng, n, runs[0][1])
    return sample_runs(runs, rng, n)


class TestAtomRuns:
    """An atom spec's run is drawn by conditional binomials, one per atom."""

    def test_atoms_of_probability_zero_are_never_drawn(self):
        spec = spec_from_atoms([-1.0, 2.0, 5.0, 7.0], [0.5, 0.5, 0.0, 0.0], 4, center=False)
        x = spec.sample_with(np.random.default_rng(6), 50_000, 1000)
        # Copies at -1 and 2 only: the sum is -1000 + 3 j for j copies at 2.
        j = (x + 1000.0) / 3.0
        assert np.array_equal(j, np.round(j)) and j.min() >= 0 and j.max() <= 1000
        assert abs(j.mean() - 500.0) <= 6.0 * math.sqrt(250.0 / 50_000)

    def test_one_copy_is_the_atom_law(self):
        spec = spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 4, center=False)
        x = spec.sample_with(np.random.default_rng(7), 100_000)
        for v, p in zip((-1.0, 0.5, 2.0), (0.3, 0.5, 0.2)):
            assert abs(np.mean(x == v) - p) <= 6.0 * math.sqrt(p * (1 - p) / 100_000)
        assert np.isin(x, (-1.0, 0.5, 2.0)).all()


def _atom_sum_by_count_arrays(values, probs, rng, n, k):
    """The conditional binomials of distmodel._atom_sum with the copies left
    held as an array from the start, np.full(n, k)."""
    keep = probs > 0.0
    values, probs = values[keep], probs[keep]
    rest = np.cumsum(probs[::-1])[::-1]
    left = np.full(n, k)
    copies = np.empty((len(values), n))
    for j in range(len(values) - 1):
        copies[j] = drawn = rng.binomial(left, probs[j] / rest[j])
        left -= drawn
    copies[-1] = left
    return np.einsum("j,jn->n", values, copies)


class TestOneSamplerPerRow:
    """Each family row draws a run in exactly one way; a finite law is
    drawn from its atoms."""

    @pytest.mark.parametrize("name", distmodel.FAMILIES)
    def test_exactly_one_sampler_column(self, name):
        row = distmodel.FAMILIES[name]
        assert [row.atoms is not None, row.mix_variance is not None,
                row.sample_sum is not None].count(True) == 1
        assert not hasattr(row, "sample")

    @pytest.mark.parametrize("spec, k", [(rademacher(1.1), 5000),
                                         (symmetric_three_point(0.7, 0.3), 1000)],
                             ids=["rademacher", "three-point"])
    def test_finite_run_is_the_atom_sum(self, spec, k):
        got = sample_runs([(spec, k)], np.random.default_rng(13), 5000)
        want = distmodel._atom_sum(*spec.atoms(), np.random.default_rng(13), 5000, k)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("a", [1e-3, 0.5, 1.0, 3.7, 2e5])
    def test_one_uniform_is_numpy_uniform(self, a):
        got = uniform(a).sample_with(np.random.default_rng(14), 4000)
        assert np.array_equal(got, np.random.default_rng(14).uniform(-a, a, 4000))

    @pytest.mark.parametrize("values, probs", [
        ([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]),
        ([-1.5, 0.0, 0.25, 3.0], [0.2, 0.0, 0.7, 0.1]),
        ([-2.0, -0.5, 1.0, 4.0], [0.1, 0.4, 0.5, 0.0]),
    ], ids=["three", "four-zero-inside", "four-zero-last"])
    @pytest.mark.parametrize("k", [1, 2, 9, 1000])
    def test_scalar_copies_replay_the_count_arrays(self, values, probs, k):
        """The first binomial at the scalar k takes the variates that
        np.full(n, k) takes, so the draws are the same bit for bit."""
        values, probs = np.array(values), np.array(probs)
        got = distmodel._atom_sum(values, probs, np.random.default_rng(15), 3000, k)
        want = _atom_sum_by_count_arrays(values, probs, np.random.default_rng(15), 3000, k)
        assert np.array_equal(got, want)


class TestRunLaw:
    """sample_with(rng, count, k) draws the sum of k independent copies, and
    sample_runs the sum of several runs."""

    @pytest.mark.parametrize("runs", RUN_CASES, ids=_runs_id)
    def test_second_and_fourth_moments(self, runs):
        """Sample E S^2 and E S^4 lie within 6 standard errors of the exact
        moments of the sum; the standard errors come from E S^8."""
        n = 100_000
        x = _draw(runs, np.random.default_rng(sum(k for _, k in runs)), n)
        assert x.shape == (n,)
        profiles = [spec.moments(8) for spec, k in runs for _ in range(k)]
        exact = {r: sum_even_moment(profiles, r) for r in (1, 2, 4)}  # E S^(2r)
        for r in (1, 2):
            se = math.sqrt((exact[2 * r] - exact[r] ** 2) / n)
            assert abs(float(np.mean(x ** (2 * r))) - exact[r]) <= 6.0 * se

    @pytest.mark.parametrize("runs", RUN_CASES, ids=_runs_id)
    def test_matches_k_explicit_draws(self, runs):
        """Two-sample Kolmogorov-Smirnov against single draws of every
        summand, added.  Both samples are rounded to 9 decimals: a lattice
        sum and its explicit additions differ in the last bits, which would
        split its atoms."""
        n = 20_000
        merged = _draw(runs, np.random.default_rng(1), n)
        rng = np.random.default_rng(2)
        explicit = np.zeros(n)
        for spec, k in runs:
            for _ in range(k):
                explicit += spec.sample_with(rng, n)
        assert stats.ks_2samp(np.round(merged, 9), np.round(explicit, 9)).pvalue > 1e-4

    @pytest.mark.parametrize(
        "spec, law", [(gaussian(0.7), stats.norm(0.0, 0.7)),
                      (symmetric_exponential(0.5), stats.laplace(0.0, 0.5 / math.sqrt(2.0)))],
        ids=["gaussian", "laplace"],
    )
    def test_mixture_draw_has_the_closed_form_law(self, spec, law):
        """One-sample Kolmogorov-Smirnov of single draws, which the
        explicit sums above are made of, against the family's CDF."""
        x = spec.sample_with(np.random.default_rng(12), 100_000)
        assert stats.kstest(x, law.cdf).pvalue > 1e-4

    @pytest.mark.parametrize("spec", RUN_SPECS, ids=str)
    def test_k_one_is_one_plain_draw(self, spec):
        a = spec.sample_with(np.random.default_rng(5), 1000)
        b = spec.sample_with(np.random.default_rng(5), 1000, 1)
        assert np.array_equal(a, b)

    def test_uniform_run_is_one_buffered_sum(self):
        """A run of k uniforms on [-a, a] is a (2 (U_1 + ... + U_k) - k),
        the k unit uniforms drawn one after another and added in order."""
        rng = np.random.default_rng(8)
        total = rng.random(50)
        total += rng.random(50)
        total += rng.random(50)
        replay = 4.0 * total - 6.0
        assert np.array_equal(uniform(2.0).sample_with(np.random.default_rng(8), 50, 3), replay)

    def test_uniform_run_memory_does_not_grow_with_k(self):
        """1000 uniforms over 2^14 samples peak at a few arrays of 2^14,
        not at 1000 of them (131 MB)."""
        count = 1 << 14
        tracemalloc.start()
        try:
            x = uniform(1.0).sample_with(np.random.default_rng(9), count, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.shape == (count,)
        assert peak <= 4 * 8 * count

    def test_bad_run_length_rejected(self):
        with pytest.raises(ValueError, match="k must be"):
            gaussian(1.0).sample_with(np.random.default_rng(0), 10, 0)

    def test_raw_refused_at_any_k(self):
        spec = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
        with pytest.raises(NoEngine):
            spec.sample_with(np.random.default_rng(0), 10, 5)

    def test_one_no_engine_class(self):
        from momentcert import oracle

        assert oracle.NoEngine is NoEngine


class TestSpecFromAtoms:
    def test_centering_and_moments(self):
        spec = spec_from_atoms([0.0, 1.0, 3.0], [0.5, 0.3, 0.2], 4)
        prof = spec.profile
        assert prof.moment(1) == pytest.approx(0.0)
        assert prof.moment(2) == pytest.approx(1.29)
        assert not prof.symmetric and prof.centered

    def test_two_point_balanced_mixture_becomes_symmetric(self):
        spec = spec_from_atoms([0.0, 1.0], [0.5, 0.5], 4)
        assert spec.symmetric and spec.profile.moment(2) == pytest.approx(0.25)

    def test_symmetry_detected_from_atoms(self):
        spec = spec_from_atoms([-1.0, 0.0, 1.0], [0.2, 0.6, 0.2], 6)
        assert spec.symmetric

    def test_scaled(self):
        spec = spec_from_atoms([0.0, 1.0, 3.0], [0.5, 0.3, 0.2], 6).scaled(2.0)
        base = spec_from_atoms([0.0, 2.0, 6.0], [0.5, 0.3, 0.2], 6)
        assert spec.profile.moments == pytest.approx(base.profile.moments)


@pytest.mark.parametrize("spec", ALL_FAMILIES, ids=str)
def test_scaled_multiplies_the_scale(spec):
    scaled = spec.scaled(1.7)
    assert scaled.params == (spec.params[0] * 1.7,) + spec.params[1:]
    assert scaled.variance == pytest.approx(1.7 ** 2 * spec.variance)
    t = np.linspace(0.0, 5.0, 11)
    assert np.allclose(scaled.charfn(t), spec.charfn(1.7 * t))


def test_wrong_parameter_count_rejected():
    with pytest.raises(ValueError, match="takes parameters"):
        distmodel.VariableSpec("symmetric_three_point", (1.0,))
    with pytest.raises(ValueError, match="unknown family"):
        distmodel.VariableSpec("cauchy", (1.0,))


def test_log_concave_flags():
    assert gaussian(1.0).log_concave_tail
    assert rademacher(1.0).log_concave_tail
    assert symmetric_exponential(1.0).log_concave_tail
    assert uniform(1.0).log_concave_tail
    assert not symmetric_three_point(1.0, 0.1).log_concave_tail
    raw = from_profile(MomentProfile((1.0, 0.0, 1.0), centered=True))
    assert not raw.log_concave_tail


def test_bad_parameters_rejected():
    with pytest.raises(ValueError):
        gaussian(0.0)
    with pytest.raises(ValueError):
        symmetric_three_point(1.0, 0.6)
    with pytest.raises(ValueError):
        uniform(-1.0)


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize(
    "make",
    [
        lambda: gaussian(1e200),
        lambda: rademacher(1e155),
        lambda: symmetric_exponential(1e200),
        lambda: uniform(1e160),
        lambda: symmetric_three_point(1e155, 0.5),
    ],
    ids=["gaussian", "rademacher", "laplace", "uniform", "three-point"],
)
def test_variance_that_overflows_is_refused(make):
    """A float power overflows with OverflowError and the three-point
    product silently to inf; both are refused when the spec is made."""
    with pytest.raises(ValueError, match="variance overflows a float"):
        make()


def test_largest_finite_variance_is_kept():
    assert math.isfinite(symmetric_three_point(1e154, 0.5).variance)
    assert math.isfinite(gaussian(1e154).variance)


class TestNonFiniteRejected:
    @pytest.mark.parametrize("x", NON_FINITE)
    @pytest.mark.parametrize(
        "make",
        [
            gaussian,
            rademacher,
            symmetric_exponential,
            uniform,
            lambda x: symmetric_three_point(x, 0.25),
            lambda x: symmetric_three_point(1.0, x),
            lambda x: gaussian(1.0).scaled(x),
        ],
    )
    def test_factories(self, make, x):
        with pytest.raises(ValueError):
            make(x)

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_moment_profile(self, x):
        with pytest.raises(ValueError, match="finite"):
            MomentProfile((1.0, 0.0, 1.0, 0.0, x))
        with pytest.raises(ValueError, match="finite"):
            MomentProfile((1.0, x, 1.0), centered=False)

    @pytest.mark.parametrize("x", NON_FINITE)
    def test_spec_from_atoms(self, x):
        with pytest.raises(ValueError, match="finite"):
            spec_from_atoms([-1.0, x], [0.5, 0.5], 4)
        with pytest.raises(ValueError, match="finite"):
            spec_from_atoms([-1.0, 1.0], [0.5, x], 4)

    def test_raw_moments_support(self):
        profile = MomentProfile((1.0, 0.0, 1.0), symmetric=True, centered=True)
        with pytest.raises(ValueError, match="finite"):
            distmodel.VariableSpec("raw_moments", (), profile, ((-1.0, math.inf), (0.5, 0.5)))
