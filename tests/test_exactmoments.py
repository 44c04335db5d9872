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
    SequenceSpec,
    bound_general_p,
    exact_discrete_moment,
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


U = Fraction(1, 2 ** 53)  # the unit roundoff
TINY = Fraction(1, 2 ** 1074)  # the smallest subnormal float


def _poly_times(a, b):
    """The product of two power series, truncated to the length of a."""
    return [sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(len(a))]


def exact_sign_moments(sigmas, order):
    """E (sum_k sigma_k eps_k)^t for t = 0..order in rationals, from the
    generating function E e^{xS} = prod_k cosh(sigma_k x): t! times the
    coefficient of x^t, each cosh(a x)^k powered by squaring.  `sigmas`
    are (sigma, k) runs; nothing here shares the expansion under test."""
    series = [Fraction(1)] + [Fraction(0)] * order
    for sigma, k in sigmas:
        a = Fraction(sigma)
        power = [a ** t / math.factorial(t) if t % 2 == 0 else Fraction(0)
                 for t in range(order + 1)]
        while k:
            if k & 1:
                series = _poly_times(series, power)
            k >>= 1
            if k:
                power = _poly_times(power, power)
    return [math.factorial(t) * c for t, c in enumerate(series)]


@st.composite
def sign_runs(draw, subnormal=False):
    """(sigma, k) runs of signed weights with counts up to 10^6, some
    weights 0, one |sigma| possibly in several non-adjacent runs, and an
    order up to 12.  With `subnormal`, one |sigma| = a whose power a^order
    lies between 2^-1040 and the smallest normal float, 2^-1022: a
    subnormal power whose rounding the Lyapunov check tolerates."""
    order = draw(st.integers(2, 12))
    if subnormal:
        mags = [2.0 ** (-draw(st.floats(1022.5, 1040.0)) / order)]
        assume(2.0 ** -1040 <= mags[0] ** order < 2.0 ** -1022)
    else:
        mags = draw(st.lists(st.floats(2.0 ** -30, 2.0 ** 30), min_size=1, max_size=4))
    blocks = draw(st.lists(st.tuples(st.integers(0, len(mags)), st.integers(1, 10 ** 6),
                                     st.booleans()), min_size=1, max_size=6))
    runs = [((-1.0 if neg else 1.0) * (mags[j] if j < len(mags) else 0.0), k)
            for j, k, neg in blocks]
    return exactmoments.Runs(runs), order


class TestScaledSignRows:
    """rademacher_moments scales one fair-sign expansion by a^t per weight."""

    @staticmethod
    def check(runs, order):
        """Entry t is within (d + 1)(order + 8) u of the exact moment
        relative, d the number of distinct nonzero |sigma|, plus d
        smallest subnormals: a run's entry carries at most order/2 + 4
        roundings (the binomial coefficient, each product and sum of the
        expansion, the mantissa power and its product), each convolution
        order/2 + 3 more, all of nonnegative terms; a subnormal entry is
        rounded once more, by at most half the smallest subnormal."""
        got = exactmoments.rademacher_moments(runs, order)
        want = exact_sign_moments(runs, order)
        d = len({abs(a) for a, _ in runs} - {0.0})
        assert len(got) == order + 1 and got[0] == 1.0
        for t, (g, w) in enumerate(zip(got, want)):
            if t % 2:
                assert g == 0.0 and w == 0
            else:
                err = abs(Fraction(g) - w)
                assert err <= (d + 1) * (order + 8) * U * w + d * TINY, (t, g, float(w))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=sign_runs())
    def test_matches_exact_rationals(self, case):
        self.check(*case)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(case=sign_runs(subnormal=True))
    def test_subnormal_powers_round_once(self, case):
        """Within u (order/2 + 4) relative and half a subnormal: the plain
        x * a**t would carry the subnormal power's own rounding times x."""
        runs, order = case
        got = exactmoments.rademacher_moments(runs, order)
        want = exact_sign_moments(runs, order)
        for t in range(0, order + 1, 2):
            err = abs(Fraction(got[t]) - want[t])
            assert err <= (Fraction(order, 2) + 4) * U * want[t] + TINY / 2, (t, got[t])

    def test_three_point_subnormal_moment(self):
        """30 three-point summands of b = 1e-53, q = 0.01: the weight a has
        a^6 = 8e-324, and the truncated bound's sign moment 378480 a^6 is
        the exact value rounded once, where x * a**6 was 23% off."""
        a = math.sqrt(2.0 * 0.01 * 1e-53 * 1e-53)
        seq = SequenceSpec((symmetric_three_point(1e-53, 0.01),) * 30)
        rep = bound_general_p(seq, 6.0, 3)
        exact = 378480 * Fraction(a) ** 6
        assert rep.aux["rademacher_abs_moment"] == float(exact) == 3.02784e-318
        assert abs(378480 * a ** 6 / float(exact) - 1.0) > 0.2
        assert abs(Fraction(rep.upper) - Fraction(7, 5) * exact) <= TINY

    @pytest.mark.parametrize("a, message", [
        (1e-60, "even moment mu_6 must be positive"),
        (2.0 ** -179 * 1.4 ** (1.0 / 6.0), "Lyapunov chain violated at order 6"),
    ])
    def test_subnormal_powers_are_refused_as_a_weight_profile(self, a, message):
        """a^6 underflows to 0, or rounds to one subnormal step, 0.71 of
        its value: the weight's own sign profile refuses both, and so does
        the scaled row, beside any other weight."""
        with pytest.raises(ValueError, match=message):
            rademacher(a).moments(6)
        with pytest.raises(ValueError, match=message):
            exactmoments.rademacher_moments((1.0, a, a), 6)

    def test_non_finite_weights_are_refused(self):
        for a in (math.inf, -math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                exactmoments.rademacher_moments((1.0, a), 4)

    def test_many_small_signs_at_a_high_order(self):
        """E (eps_1 + ... + eps_100)^170 overflows a float, yet with weight
        1/2 the moment is 1.9e260: that run is expanded on its own power
        row, with the bits of the weight's own sign profile, and a weight
        of 1 overflows."""
        got = exactmoments.rademacher_moments(exactmoments.Runs([(0.5, 100)]), 170)
        want = exactmoments.moments_of_sum([(rademacher(0.5).moments(170), 100)], 170)
        assert got == want and math.isfinite(got[170]) and got[170] > 1e260
        assert exactmoments.rademacher_even_moment(exactmoments.Runs([(1.0, 100)]), 85) == math.inf

    def test_one_fair_sign_profile_per_call(self, monkeypatch):
        """Every weight reads one fair-sign profile, built for the call:
        no profile per weight, none kept between calls."""
        calls = []
        real = exactmoments.rademacher
        monkeypatch.setattr(exactmoments, "rademacher",
                            lambda s: calls.append(s) or real(s))
        for _ in range(2):
            exactmoments.rademacher_moments((0.5, 2.0, -0.5, 3.0, 0.0), 8)
        assert calls == [1.0, 1.0]


class TestRademacherAbsMoment:
    def test_single_weight(self):
        for p in (1.0, 2.7, 4.0):
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
        st.floats(1.0, 6.0),
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

    def test_refuses_p_below_one(self):
        """Each exact entry refuses p < 1, where a sum of atoms that
        cancels to near 0 would carry its float rounding to the power p."""
        law = ((-0.5, 0.5), (0.5, 0.5))
        calls = [
            lambda p: rademacher_abs_moment((1.0, 0.5), p),
            lambda p: exact_discrete_moment([rademacher(1.0), rademacher(0.5)], p),
            lambda p: exactmoments._atom_abs_moment([(*law, 3)], p),
        ]
        for call in calls:
            for p in (0.5, 0.999, math.nan):
                with pytest.raises(ValueError, match="p >= 1"):
                    call(p)
            assert call(1.0) > 0.0

    def test_zero_probability_atoms_are_dropped(self):
        """Six three-point summands at q = 1/2 are six fair signs: the atom
        0 of probability 0 drops out, leaving the 7 atoms of the signs' law
        in its closed form."""
        b = 0.7
        three = exactmoments.run_law((-b, 0.0, b), (0.5, 0.0, 0.5), 6, 1024)
        signs = exactmoments.run_law((-b, b), (0.5, 0.5), 6, 1024)
        assert isinstance(three, np.ndarray) and exactmoments._mirrored(three)
        assert len(three) == 7 and np.all(three.imag > 0.0)
        assert np.array_equal(three, signs)
        law = ((-b, 0.0, b), (0.5, 0.0, 0.5), 6)
        assert (exactmoments._atom_abs_moment([law], 3.3)
                == exactmoments._atom_abs_moment([((-b, b), (0.5, 0.5), 6)], 3.3))

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 1000, 3000])
    def test_sign_run_law_against_exact_rationals(self, k):
        """The closed form for k fair signs: atoms a (2j - k), mirrored
        exactly, each probability within the docstring's bound of
        C(k, j) / 2^k wherever that is above 2^-1022."""
        law = exactmoments.run_law((-0.5, 0.5), (0.5, 0.5), k, 10**6)
        assert isinstance(law, np.ndarray) and exactmoments._mirrored(law) and len(law) == k + 1
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
