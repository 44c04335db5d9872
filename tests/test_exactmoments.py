import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
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
        with pytest.raises(SupportExplosion):
            rademacher_abs_moment(w, 3)


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
            profiles = seq.profiles(2 * r)
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
