import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls,
    enum_sum_even_moment_centered,
    enum_sum_even_moment_symmetric,
    rademacher_abs_moment_brute,
    random_centered_atom_spec,
    random_symmetric_seq,
)
from momentcert import (
    gaussian,
    gaussian_lp_norm,
    rademacher,
    rademacher_abs_moment,
    rademacher_even_moment,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert import exactmoments
from momentcert.exactmoments import SupportExplosion, gaussian_abs_moment


class TestGaussianLpNorm:
    def test_p2(self):
        assert gaussian_lp_norm(2.0) == pytest.approx(1.0)

    def test_p4(self):
        assert gaussian_lp_norm(4.0) == pytest.approx(3.0 ** 0.25)

    def test_p3_closed_form(self):
        assert gaussian_lp_norm(3.0) == pytest.approx(
            (2.0 * math.sqrt(2.0 / math.pi)) ** (1.0 / 3.0)
        )

    def test_even_double_factorial(self):
        for r in range(1, 7):
            dfact = math.factorial(2 * r) / (2 ** r * math.factorial(r))
            assert gaussian_lp_norm(2 * r) == pytest.approx(dfact ** (1.0 / (2 * r)))

    def test_monte_carlo_cross_check(self):
        x = np.random.default_rng(1).normal(size=10 ** 7)
        emp = np.mean(np.abs(x) ** 3) ** (1.0 / 3.0)
        assert emp == pytest.approx(gaussian_lp_norm(3.0), abs=3e-4)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gaussian_lp_norm(0.0)


class TestRademacherEvenMoment:
    def test_two_equal_weights(self):
        assert rademacher_even_moment((1.0, 1.0), 2) == pytest.approx(8.0)

    def test_three_equal_weights(self):
        assert rademacher_even_moment((1.0, 1.0, 1.0), 2) == pytest.approx(21.0)

    def test_r_zero(self):
        assert rademacher_even_moment((0.3, 2.0), 0) == 1.0

    def test_zero_weights_drop_out(self):
        assert rademacher_even_moment((0.0, 1.0, -0.0), 2) == 1.0
        assert rademacher_even_moment((0.0,), 2) == 0.0
        assert rademacher_even_moment((), 0) == 1.0

    def test_plain_sequences_any_order_and_sign(self):
        """Equal |sigma| form one run wherever they sit: a list, an array
        and a shuffled, sign-flipped copy all give the same moment."""
        sig = [1.5, 0.5, 1.5, 0.25, 0.5, 1.5]
        want = rademacher_abs_moment_brute(sig, 6)
        for w in (sig, np.array(sig), (-0.5, 1.5, 0.25, -1.5, 0.5, 1.5)):
            assert rademacher_even_moment(w, 3) == pytest.approx(want, rel=1e-13)
            assert rademacher_abs_moment(w, 6) == pytest.approx(want, rel=1e-13)

    def test_one_pass_holds_every_lower_even_moment(self):
        """rademacher_moments to order 2r holds M_{2j} for every j <= r,
        bit for bit: check_rademacher_moment_ratio reads M_{2r} and
        M_{2r-2} from one pass."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            sig = rng.uniform(0.2, 2.0, int(rng.integers(1, 30))).round(1)
            r = int(rng.integers(1, 7))
            m = exactmoments.rademacher_moments(sig, 2 * r)
            assert [m[2 * j] for j in range(r + 1)] == [
                rademacher_even_moment(sig, j) for j in range(r + 1)]

    def test_matches_sign_enumeration(self):
        rng = np.random.default_rng(10)
        for _ in range(25):
            n = int(rng.integers(1, 11))
            sig = rng.uniform(0.2, 2.0, n)
            r = int(rng.integers(1, 5))
            brute = rademacher_abs_moment_brute(sig, 2 * r)
            assert rademacher_even_moment(tuple(sig), r) == pytest.approx(
                brute, rel=1e-11
            )


class TestRademacherAbsMoment:
    def test_single_weight(self):
        for p in (0.5, 1.0, 2.7, 4.0):
            assert rademacher_abs_moment((1.0,), p) == pytest.approx(1.0)

    def test_two_weights_p3(self):
        assert rademacher_abs_moment((1.0, 1.0), 3) == pytest.approx(4.0)

    def test_agrees_with_even_engine(self):
        w = (1.0, 1.0, 1.0)
        assert rademacher_abs_moment(w, 4) == pytest.approx(
            rademacher_even_moment(w, 2)
        )

    def test_grid_budget_refused(self, monkeypatch):
        # 30 equal weights: 31 grid points, and an exact rational moment.
        want = sum(math.comb(30, j) * abs(30 - 2 * j) ** 3 for j in range(31)) / 2 ** 30
        assert rademacher_abs_moment((1.0,) * 30, 3) == pytest.approx(
            want, rel=1e-14
        )
        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        w = tuple(np.random.default_rng(30).uniform(0.2, 2.0, 26))
        built = count_calls(monkeypatch, exactmoments, "_run_law")
        with pytest.raises(SupportExplosion):
            rademacher_abs_moment(w, 3)
        # The folded first law has one point and each other weight doubles
        # the grid, so adding the 14th law would make 2^13 points: the run
        # laws are built at their steps, and the last 12 never are.
        assert len(built) == 14


@st.composite
def small_laws(draw):
    """1-4 atoms with positive probabilities: on a 1/2 lattice or not,
    mirror-symmetric or skewed."""
    if draw(st.booleans()):
        value = st.integers(-4, 4).map(lambda i: i / 2)
    else:
        value = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))
    values = draw(st.lists(value, min_size=1, max_size=2))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=len(values), max_size=len(values)))
    if draw(st.booleans()):
        values, weights = values + [-v for v in values], weights + weights
    total = math.fsum(weights)
    return values, [w / total for w in weights]


class TestFiniteSupportEngine:
    @given(
        st.lists(st.tuples(small_laws(), st.integers(1, 5)), min_size=1, max_size=3),
        st.floats(0.5, 6.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, runs, p):
        """Against an fsum over every combination of atoms, one summand at
        a time.  Sums may cancel, so the rounding is bounded relative to
        E (sum_k |X_k|)^p."""
        summands = [list(zip(*law)) for law, k in runs for _ in range(k)]
        assume(math.prod(map(len, summands)) <= 4096)
        terms, scale = [], []
        for combo in itertools.product(*summands):
            prob = math.prod(q for _, q in combo)
            terms.append(prob * abs(math.fsum(v for v, _ in combo)) ** p)
            scale.append(prob * math.fsum(abs(v) for v, _ in combo) ** p)
        got = exactmoments._atom_abs_moment([(v, q, k) for (v, q), k in runs], p)
        assert abs(got - math.fsum(terms)) <= 1e-12 * math.fsum(scale)

    def test_cancelling_sums_below_p_one(self):
        # Three copies of +-0.5, +-a and a point at -0.5: 0.5 + a - a - 0.5
        # is 0, which a plain float sum of the grid misses by about 1e-16,
        # and at p = 1/2 that moved the moment by 3e-10.
        a = 0.8538074796326739
        law = ((0.5, a, -0.5, -a), (0.25,) * 4)
        atoms = list(zip(*law))
        want = math.fsum(
            0.25**3 * abs(math.fsum([x, y, z, -0.5])) ** 0.5
            for (x, _), (y, _), (z, _) in itertools.product(atoms, repeat=3)
        )
        got = exactmoments._atom_abs_moment([(*law, 3), ((-0.5,), (1.0,), 1)], 0.5)
        assert abs(got - want) <= 1e-15

    @pytest.mark.parametrize("compensated", [False, True])
    def test_zero_probability_atoms_are_dropped(self, compensated):
        """Six three-point summands at q = 1/2 are six fair signs: the atom
        0 of probability 0 drops out, leaving the 7 atoms of the signs' law,
        and without low parts that law takes the closed form."""
        b = 0.7
        three, mirrored = exactmoments.run_law((-b, 0.0, b), (0.5, 0.0, 0.5), 6, 1024,
                                               compensated)
        signs, _ = exactmoments.run_law((-b, b), (0.5, 0.5), 6, 1024, compensated)
        assert mirrored
        assert len(three[0]) == 7 and np.all(three[0].imag > 0.0)
        assert np.array_equal(three[0], signs[0])
        law = ((-b, 0.0, b), (0.5, 0.0, 0.5), 6)
        assert (exactmoments._atom_abs_moment([law], 3.3)
                == exactmoments._atom_abs_moment([((-b, b), (0.5, 0.5), 6)], 3.3))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 1000, 3000])
    def test_sign_run_law_against_exact_rationals(self, k):
        """The closed form for k fair signs: atoms a (2j - k), mirrored
        exactly, each probability within the docstring's bound of
        C(k, j) / 2^k wherever that is above 2^-1022."""
        (law, lo), mirrored = exactmoments.run_law((-0.5, 0.5), (0.5, 0.5), k, 10**6)
        assert mirrored and lo is None and len(law) == k + 1
        assert np.array_equal(law.real, 0.5 * (2.0 * np.arange(k + 1) - k))
        assert np.array_equal(law.imag, law.imag[::-1])
        u, tiny = Fraction(2) ** -53, Fraction(2) ** -1022
        for j, prob in enumerate(law.imag.tolist()):
            exact = Fraction(math.comb(k, j), 1 << k)
            if exact > tiny:
                bound = (2 * abs(Fraction(2 * j - k, 2)) + Fraction(math.sqrt(k)) + 2) * u
                assert abs(Fraction(prob) - exact) <= bound * exact, j


def fraction_sum_moment(profiles, order):
    """E (sum_k X_k)^order by the binomial recurrence of moments_of_sum in
    exact rationals, one summand at a time, from the profiles' floats."""
    m = [Fraction(1)] + [Fraction(0)] * order
    for prof in profiles:
        mu = [Fraction(x) for x in prof.moments[: order + 1]]
        m = [sum(math.comb(t, i) * m[t - i] * mu[i] for i in range(t + 1))
             for t in range(order + 1)]
    return m[order]


class TestSumEvenMoment:
    def test_ten_laplace_fourth_moment(self):
        profiles = [symmetric_exponential(1.0).moments(4)] * 10
        assert sum_even_moment(profiles, 2) == pytest.approx(330.0)

    def test_single_profile(self):
        prof = symmetric_exponential(1.0).moments(8)
        for r in (1, 2, 3, 4):
            assert sum_even_moment([prof], r) == pytest.approx(prof.moment(2 * r))

    def test_three_rademacher(self):
        profiles = [rademacher(1.0).moments(4)] * 3
        assert sum_even_moment(profiles, 2) == pytest.approx(21.0)

    def test_rejects_non_centered(self):
        spec = spec_from_atoms([0.0, 1.0], [0.5, 0.5], 4, center=False)
        with pytest.raises(ValueError):
            sum_even_moment([spec.profile], 2)

    def test_rejects_insufficient_order(self):
        prof = gaussian(1.0).moments(4)
        with pytest.raises(ValueError):
            sum_even_moment([prof], 3)

    @pytest.mark.parametrize("spread", [1e4, 1e8, 1e12, 1e16])
    @pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
    def test_wide_spread_matches_exact_rationals(self, spread, r):
        """Variances spread by up to 1e16 leave the recurrence within 1e-14
        relative of the same recurrence in exact rationals, on symmetric
        runs (every term nonnegative) and on asymmetric atom runs."""
        s = math.sqrt(spread)
        skew = [-1.0, 0.5, 2.0], [0.3, 0.5, 0.2]
        runs = [
            [gaussian(1.0)] * 3 + [gaussian(1.0 / s)] * 4,
            [symmetric_exponential(s)] * 2 + [rademacher(1.0)] * 5
            + [symmetric_exponential(1.0)],
            [spec_from_atoms(*skew, 2 * r)] * 3
            + [spec_from_atoms([-s, 3.0 * s], [0.75, 0.25], 2 * r)] * 2,
            [spec_from_atoms([-s, 3.0 * s], [0.75, 0.25], 2 * r)]
            + [spec_from_atoms([v / s for v in skew[0]], skew[1], 2 * r)] * 4,
        ]
        for specs in runs:
            profiles = [spec.moments(2 * r) for spec in specs]
            want = float(fraction_sum_moment(profiles, 2 * r))
            assert abs(sum_even_moment(profiles, r) - want) <= 1e-14 * want

    def test_matches_symmetric_enumeration(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 5))
            seq = random_symmetric_seq(rng, n)
            profiles = [v.moments(2 * r) for v in seq.variables]
            assert sum_even_moment(profiles, r) == pytest.approx(
                enum_sum_even_moment_symmetric(profiles, r), rel=1e-10
            )

    def test_matches_centered_enumeration(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            r = int(rng.integers(1, 5))
            profiles = [
                random_centered_atom_spec(rng, 2 * r).profile for _ in range(n)
            ]
            assert sum_even_moment(profiles, r) == pytest.approx(
                enum_sum_even_moment_centered(profiles, r), rel=1e-10
            )

    def test_homogeneity(self):
        rng = np.random.default_rng(13)
        sig = rng.uniform(0.3, 1.5, 6)
        c = 1.7
        for r in (1, 2, 3):
            base = rademacher_even_moment(tuple(sig), r)
            scaled = rademacher_even_moment(tuple(c * sig), r)
            assert scaled == pytest.approx(c ** (2 * r) * base, rel=1e-12)


class TestTailSumEvenMoment:
    """The tail of a sum is sum_even_moment on a slice of its profiles."""

    def test_last_variable_only(self):
        profiles = [gaussian(s).moments(4) for s in (1.0, 0.5, 0.3)]
        assert sum_even_moment(profiles[2:], 2) == pytest.approx(profiles[2].moment(4))

    def test_full_range_equals_sum(self):
        profiles = [symmetric_exponential(1.0).moments(4)] * 5
        assert sum_even_moment(profiles[0:], 2) == pytest.approx(
            sum_even_moment(profiles, 2)
        )

    def test_laplace_suffix(self):
        profiles = [symmetric_exponential(1.0).moments(4)] * 5
        assert sum_even_moment(profiles[2:], 2) == pytest.approx(36.0)

    def test_out_of_range(self):
        profiles = [gaussian(1.0).moments(4)] * 3
        with pytest.raises(ValueError):
            sum_even_moment(profiles[3:], 2)


class TestGaussianDominatesRademacher:
    def test_even_moments(self):
        """gamma_{2r} (sum sigma^2)^{1/2} >= || sum sigma_k eps_k ||_{2r}."""
        rng = np.random.default_rng(14)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            r = int(rng.integers(1, 6))
            sig = rng.uniform(0.2, 2.0, n)
            w = tuple(sig)
            lhs = gaussian_lp_norm(2 * r) * math.sqrt(sum(s * s for s in w))
            rhs = rademacher_even_moment(w, r) ** (1.0 / (2 * r))
            assert lhs >= rhs * (1 - 1e-12)

    def test_abs_moments(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            n = int(rng.integers(1, 11))
            p = float(rng.uniform(2.0, 6.0))
            sig = rng.uniform(0.2, 2.0, n)
            w = tuple(sig)
            lhs = gaussian_abs_moment(p) * sum(s * s for s in w) ** (p / 2.0)
            rhs = rademacher_abs_moment(w, p)
            assert lhs >= rhs * (1 - 1e-12)


def _power(x, k, times):
    """x to the k-th power under the associative product `times`, by
    repeated squaring."""
    out = None
    while True:
        if k & 1:
            out = x if out is None else times(out, x)
        k >>= 1
        if not k:
            return out
        x = times(x, x)


def binomial_convolution(a, b):
    """Moments of X + Y from those of independent X (a) and Y (b)."""
    return [sum(math.comb(t, i) * a[t - i] * b[i] for i in range(t + 1))
            for t in range(len(a))]


def fraction_run_moments(prof, k, order):
    """Moments 0..order of the sum of k copies of a centered profile, in
    exact rationals from its floats by repeated squaring; mu_0 = 1 and
    mu_1 = 0, which the profile's floats round."""
    mu = [Fraction(1), Fraction(0)] + [Fraction(x) for x in prof.moments[2: order + 1]]
    return _power(mu, k, binomial_convolution)


def squaring_run_moments(prof, k, order):
    """The same by repeated squaring in floats: a second oracle, whose
    rounding differs from the expansion's."""
    return _power(list(prof.moments[: order + 1]), k, binomial_convolution)


EXPANSION_SPECS = {
    "gaussian": gaussian(0.7),
    "rademacher": rademacher(1.3),
    "laplace": symmetric_exponential(1.1),
    "uniform": uniform(0.9),
    "three-point": symmetric_three_point(1.2, 0.15),
    "atoms-skew": spec_from_atoms([-1.0, 0.5, 2.0], [0.375, 0.5, 0.125], 12),
    "atoms-wide": spec_from_atoms([-0.25, 3.0, 1.5, -2.0], [0.5, 0.125, 0.25, 0.125], 12),
}


ROUNDED_ATOMS = spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 12)


def dense_convolve(order, a, b):
    """The binomial convolution over every (t, i), skipping zero factors:
    the reference for the bits of exactmoments._convolve."""
    out = [0.0] * (order + 1)
    for t in range(order + 1):
        acc = 0.0
        for i in range(t + 1):
            if b[i] != 0.0 and a[t - i] != 0.0:
                acc += math.comb(t, i) * a[t - i] * b[i]
        out[t] = acc
    return out


def assert_moments_close(got, want, rel):
    """Even entries within `rel` of want; odd ones, which may cancel,
    within `rel` of sqrt(want_{t-1} want_{t+1}), which bounds E|S|^t."""
    for t in range(len(want)):
        scale = abs(want[t]) if t % 2 == 0 or t + 1 >= len(want) else math.sqrt(
            want[t - 1] * want[t + 1])
        assert abs(got[t] - want[t]) <= rel * scale, t


class TestActiveSummandExpansion:
    """E S_k^t = sum_j C(k, j) Y_j(t) against exact rationals and against
    the repeated squaring it replaced."""

    @pytest.mark.parametrize("k", [1, 2, 3, 17, 1000])
    @pytest.mark.parametrize("name", sorted(EXPANSION_SPECS))
    def test_run_matches_exact_rationals(self, name, k):
        spec = EXPANSION_SPECS[name]
        want = [float(x) for x in fraction_run_moments(spec.moments(12), k, 12)]
        for order in range(2, 13):
            got = exactmoments.moments_of_sum([(spec.moments(order), k)], order)
            assert_moments_close(got, want[: order + 1], 1e-14)

    @pytest.mark.parametrize("ks", [(1, 2, 3), (17, 1, 1000), (1000, 3, 17), (2, 1000, 1)])
    def test_sum_of_runs_matches_exact_rationals(self, ks):
        names = sorted(EXPANSION_SPECS)
        for shift in range(len(names)):
            specs = [EXPANSION_SPECS[names[(shift + i) % len(names)]] for i in range(len(ks))]
            want = [Fraction(1)] + [Fraction(0)] * 12
            for spec, k in zip(specs, ks):
                want = binomial_convolution(want, fraction_run_moments(spec.moments(12), k, 12))
            want = [float(x) for x in want]
            for order in range(2, 13):
                runs = [(spec.moments(order), k) for spec, k in zip(specs, ks)]
                got = exactmoments.moments_of_sum(runs, order)
                assert_moments_close(got, want[: order + 1], 1e-14)

    @pytest.mark.parametrize("k, variance", [(2, 1.0), (3, 1.0), (17, 1.0), (1000, 1.0),
                                             (10**5, 40.0)])
    @pytest.mark.parametrize("name", ["gaussian", "laplace", "uniform", "three-point"])
    def test_high_orders_match_repeated_squaring(self, name, k, variance):
        """Every even order to 170 on a run scaled to the given variance,
        where every term is nonnegative and no moment overflows or
        underflows."""
        spec = EXPANSION_SPECS[name]
        spec = spec.scaled(math.sqrt(variance / (k * spec.variance)))
        prof = spec.moments(170)
        want = squaring_run_moments(prof, k, 170)
        got = exactmoments.moments_of_sum([(prof, k)], 170)
        for t in range(0, 171, 2):
            assert math.isfinite(got[t])
            assert abs(got[t] - want[t]) <= 1e-12 * want[t], t

    @pytest.mark.parametrize("name", sorted(EXPANSION_SPECS))
    def test_entries_do_not_depend_on_the_order(self, name):
        """Entry t has the same bits at every order >= t, from one profile
        of order 12 or from a fresh profile of each order."""
        runs = [(EXPANSION_SPECS[name], 5), (gaussian(0.4), 1), (EXPANSION_SPECS[name], 40)]
        shared = [(spec.moments(12), k) for spec, k in runs]
        top = exactmoments.moments_of_sum(shared, 12)
        for order in range(0, 13):
            assert exactmoments.moments_of_sum(shared, order) == top[: order + 1]
            if order >= 2:
                fresh = [(spec.moments(order), k) for spec, k in runs]
                assert exactmoments.moments_of_sum(fresh, order) == top[: order + 1]

    @pytest.mark.parametrize("name", sorted(EXPANSION_SPECS) + ["atoms-rounded"])
    def test_one_copy_is_the_profile(self, name):
        """Bit for bit, mu_0 and mu_1 included: those of atoms-rounded are
        1 and 0 only up to rounding."""
        prof = ROUNDED_ATOMS.moments(12) if name == "atoms-rounded" else (
            EXPANSION_SPECS[name].moments(12))
        for order in range(0, 13):
            assert exactmoments.moments_of_sum([(prof, 1)], order) == list(
                prof.moments[: order + 1])
        assert sum_even_moment([prof], 6) == prof.moments[12]

    def test_sparse_convolution_keeps_the_dense_bits(self):
        """Pairs of nonzero entries only, each entry summed in increasing
        i: the same floating-point operations in the same order as the
        dense loop, on random vectors with zero odd entries, random zeros
        and scales over six decades, up to order 170."""
        rng = np.random.default_rng(21)
        for _ in range(300):
            order = int(rng.choice([2, 4, 6, 8, 12, 31, 60, 120, 170]))
            a, b = (rng.uniform(-2.0, 2.0, order + 1) * 10.0 ** rng.uniform(-3, 3, order + 1)
                    for _ in range(2))
            for v in (a, b):
                if rng.random() < 0.5:
                    v[1::2] = 0.0
                v[rng.random(order + 1) < 0.3] = 0.0
            a, b = a.tolist(), b.tolist()
            assert exactmoments._convolve(order, a, b) == dense_convolve(order, a, b)

    @pytest.mark.parametrize("n", [10**4, 10**6])
    def test_overflow_is_infinite_not_nan(self, n):
        """As under repeated squaring: the high moments of a sum past the
        float range are inf, and no inf coefficient meets a zero moment."""
        m = exactmoments.moments_of_sum([(gaussian(1.0).moments(170), n)], 170)
        assert sum_even_moment([gaussian(1.0).moments(170)] * n, 85) == math.inf
        assert not any(map(math.isnan, m))
        assert all(x == 0.0 for x in m[1::2])

    def test_coefficient_past_the_float_range_keeps_a_finite_moment(self):
        """C(k, 85) exceeds 2^1024 at k = 2 10^5, yet the moment of order
        170 is about 1.5e297: the coefficient is scaled, not made inf."""
        k = 2 * 10**5
        assert math.comb(k, 85).bit_length() > 1024
        prof = rademacher(0.0158).moments(170)
        got = sum_even_moment([prof] * k, 85)
        want = squaring_run_moments(prof, k, 170)[170]
        assert math.isfinite(got) and abs(got - want) <= 1e-13 * want
        # At scale 0.02 the scaled term is finite and overflows only when
        # 2^shift is put back: inf, as under repeated squaring.
        prof = rademacher(0.02).moments(170)
        assert squaring_run_moments(prof, k, 170)[170] == math.inf
        assert sum_even_moment([prof] * k, 85) == math.inf
