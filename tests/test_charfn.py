import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_symmetric_seq, random_symmetric_spec
from momentcert import (
    CharFunction,
    check_cosine_bounds,
    check_main_charfn_inequality,
    exact_discrete_moment,
    gaussian,
    haagerup_constant,
    haagerup_moment,
    rademacher,
    rademacher_abs_moment,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.exactmoments import gaussian_abs_moment


class TestCharFunction:
    def test_single_spec_moments(self):
        phi = CharFunction.product([symmetric_exponential(1.0)])
        assert phi.variance == pytest.approx(1.0)
        assert phi.fourth_moment == pytest.approx(6.0)
        assert phi.sixth_moment == pytest.approx(90.0)

    def test_product_moments_are_sum_moments(self):
        specs = [symmetric_exponential(1.0)] * 10
        phi = CharFunction.product(specs)
        profiles = [s.moments(6) for s in specs]
        assert phi.variance == pytest.approx(10.0)
        assert phi.fourth_moment == pytest.approx(330.0)
        assert phi.sixth_moment == pytest.approx(sum_even_moment(profiles, 3))

    def test_product_evaluates_as_product(self):
        specs = [gaussian(1.0), rademacher(0.5), uniform(1.5)]
        phi = CharFunction.product(specs)
        t = np.linspace(0.0, 5.0, 50)
        direct = np.ones_like(t)
        for s in specs:
            direct = direct * s.charfn(t)
        assert np.allclose(phi(t), direct, atol=1e-14)


class TestCosineBounds:
    @pytest.mark.parametrize(
        "spec",
        [
            gaussian(1.0),
            rademacher(1.2),
            symmetric_exponential(0.8),
            uniform(1.5),
            symmetric_three_point(1.0, 0.1),
        ],
        ids=str,
    )
    def test_holds_for_symmetric_families(self, spec):
        report = check_cosine_bounds(spec)
        assert report.passed
        assert not report.violations
        assert report.margins["lower_min_slack"] >= -1e-12
        assert report.margins["upper_min_slack"] >= -1e-12

    def test_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            assert check_cosine_bounds(random_symmetric_spec(rng)).passed

    def test_asymmetric_rejected(self):
        spec = spec_from_atoms([0.0, 1.0, 3.0], [0.5, 0.3, 0.2], 4)
        with pytest.raises(ValueError):
            check_cosine_bounds(spec)

    def test_violations_are_the_first_ten_worse_slacks(self):
        # No characteristic function: 1 - t^2 falls below 1 - t^2/2 by t^2/2.
        fake = SimpleNamespace(
            symmetric=True, moments=rademacher(1.0).moments, charfn=lambda t: 1.0 - t ** 2
        )
        report = check_cosine_bounds(fake, t_grid=[0.0, 1e-7, 0.5, 1.0, 2.0])
        assert not report.passed
        assert report.violations == ((0.5, -0.125), (1.0, -0.5), (2.0, -2.0))
        assert report.margins["lower_min_slack"] == -2.0
        assert report.margins["upper_min_slack"] >= 0.0
        assert len(check_cosine_bounds(fake).violations) == 10


class TestMainInequality:
    def test_gaussian_vs_rademacher(self):
        """Replacing tail summands by Gaussians of the same variance is
        dominated once the head carries enough variance."""
        x = [rademacher(1.0)] * 6
        y = [gaussian(1.0)] * 6
        report = check_main_charfn_inequality(x, y, 1)
        assert report.applicable and report.passed

    def test_randomized_matched_pairs(self):
        rng = np.random.default_rng(22)
        checked = 0
        for _ in range(60):
            n = int(rng.integers(2, 7))
            seq = random_symmetric_seq(rng, n)
            x = list(seq.variables)
            y = [gaussian(math.sqrt(s.variance)) for s in x]
            worst = max(s.moments(4).moment(4) / s.variance for s in y[1:])
            m = 1
            while m < n and (
                sum(s.variance for s in x[:m]) < worst / 6.0
                or max(s.variance for s in x[:m]) < max(s.variance for s in x)
            ):
                m += 1
            if m >= n:
                continue
            report = check_main_charfn_inequality(x, y, m)
            if not report.applicable:
                continue
            checked += 1
            assert report.passed, report.violations
        assert checked >= 20

    def test_precondition_failure_marks_not_applicable(self):
        x = [rademacher(0.1), rademacher(2.0)]
        y = [gaussian(0.1), gaussian(2.0)]
        report = check_main_charfn_inequality(x, y, 1)
        assert not report.applicable
        assert not report.passed
        failed = [name for name, ok, _ in report.preconditions if not ok]
        assert failed

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            check_main_charfn_inequality([gaussian(1.0)], [gaussian(1.0)] * 2, 1)

    def test_one_factor_per_run_keeps_the_bits(self, monkeypatch):
        """Each run's factor is evaluated once and raised to the run's
        length: the margin agrees with that of one factor per summand
        within the rounding that the check charges each side, after one
        charfn call per run (equal specs built apart form one run too)."""
        x = ([gaussian(1.0)] * 5 + [symmetric_exponential(0.7) for _ in range(4)]
             + [uniform(1.5)] * 3 + [gaussian(1.0)] * 2)
        y = [gaussian(math.sqrt(s.variance)) for s in x]
        t = np.linspace(0.0, 20.0, 501)
        vx = [s.variance for s in x]
        want = float((math.prod(s.charfn(t) for s in x) + 0.5 * sum(vx[:5]) * t ** 2
                      - math.prod(s.charfn(t) for s in y[5:])).min())
        calls = []
        real = type(x[0]).charfn
        monkeypatch.setattr(type(x[0]), "charfn", lambda s, t: calls.append(s) or real(s, t))
        report = check_main_charfn_inequality(x, y, 5, t)
        # Each slack is off by at most the charge: 4 u (1 + sigma t) per
        # factor and multiplication (14 summands and 4 runs of x, 9 and 3
        # of y past the head), 6 roundings of the quadratic term and one
        # per addition.
        u, quadratic = 2.0 ** -53, 0.5 * sum(vx[:5]) * t ** 2
        charge = (4 * u * (18 + 12) * (1.0 + math.sqrt(sum(vx)) * t)
                  + u * (6 * quadratic + 2 * (2.0 + quadratic)))
        assert report.applicable and report.passed
        assert abs(report.margins["min_slack"] - want) <= 2 * charge.max()
        assert len(calls) == 4 + 3  # runs of x, then runs of y past the head


class TestHaagerupConstant:
    def test_p3(self):
        assert haagerup_constant(3.0) == pytest.approx(12.0 / math.pi)

    def test_positive_on_open_interval(self):
        for p in np.linspace(2.01, 3.99, 40):
            assert haagerup_constant(float(p)) > 0.0

    def test_endpoints_rejected(self):
        for p in (2.0, 4.0, 1.5, 4.5):
            with pytest.raises(ValueError):
                haagerup_constant(p)


class TestHaagerupMoment:
    def test_gaussian_third_moment_golden(self):
        """E|G|^3 = 2 sqrt(2/pi) for a standard Gaussian."""
        res = haagerup_moment(CharFunction.product([gaussian(1.0)]), 3.0, tol=1e-8)
        assert res.converged
        assert res.value == pytest.approx(2.0 * math.sqrt(2.0 / math.pi), abs=1e-6)
        assert res.total_error <= 1e-8

    def test_laplace_third_moment_golden(self):
        """E|X|^3 = 3/sqrt(2) for the unit-variance two-sided exponential."""
        res = haagerup_moment(
            CharFunction.product([symmetric_exponential(1.0)]), 3.0, tol=1e-8
        )
        assert res.converged
        assert res.value == pytest.approx(3.0 / math.sqrt(2.0), abs=1e-6)

    def test_gaussian_fractional_orders(self):
        phi = CharFunction.product([gaussian(1.0)])
        for p in (2.2, 2.5, 3.3, 3.8):
            res = haagerup_moment(phi, p, tol=1e-8)
            assert res.converged
            assert res.value == pytest.approx(gaussian_abs_moment(p), abs=1e-6)

    def test_rademacher_pair_p3(self):
        res = haagerup_moment(CharFunction.product([rademacher(1.0)] * 2), 3.0)
        assert res.value == pytest.approx(4.0, abs=1e-6)

    def test_continuity_toward_p4(self):
        """Near p = 4 the quadrature must approach the exact fourth moment."""
        specs = [symmetric_exponential(1.0)] * 3
        exact4 = sum_even_moment([s.moments(4) for s in specs], 2)
        res = haagerup_moment(CharFunction.product(specs), 3.999, tol=1e-7)
        assert res.converged
        assert abs(res.value - exact4) / exact4 < 1e-2

    def test_near_p2_sanity(self):
        specs = [gaussian(1.0)] * 2
        res = haagerup_moment(CharFunction.product(specs), 2.001, tol=1e-7)
        assert res.converged
        assert res.value == pytest.approx(gaussian_abs_moment(2.001) * 2.0 ** 1.0005, rel=1e-5)

    def test_error_budget_honest_against_enumeration(self):
        """Quadrature value must sit within its own error budget of the
        exact sign-enumeration answer for Rademacher sums."""
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(1, 7))
            p = float(rng.uniform(2.1, 3.9))
            sig = rng.uniform(0.4, 1.5, n)
            specs = [rademacher(float(s)) for s in sig]
            res = haagerup_moment(CharFunction.product(specs), p, tol=1e-8)
            exact = rademacher_abs_moment(tuple(sig), p)
            assert abs(res.value - exact) <= res.total_error + 1e-9 * exact

    def test_asymmetric_refused(self):
        bad = spec_from_atoms([0.0, 1.0, 3.0], [0.5, 0.3, 0.2], 4)
        with pytest.raises(ValueError):
            haagerup_moment(CharFunction.product([bad]), 3.0)

    def test_bad_tol(self):
        with pytest.raises(ValueError):
            haagerup_moment(CharFunction.product([gaussian(1.0)]), 3.0, tol=0.0)


def laplace_sum_third_moment(n: int, sigma: float) -> float:
    """E|S|^3 for S the sum of n unit-variance Laplace variables times
    sigma, in exact rational arithmetic.  S = (sigma/sqrt 2)(G1 - G2) with
    G1, G2 independent Gamma(n, 1), and E|G1 - G2|^3 is the finite sum
    2/(n-1)!^2 sum_j C(n-1, j) (n-1+j)! (n+2-j)! / 2^(n+j)."""
    f = math.factorial
    total = sum(
        Fraction(math.comb(n - 1, j) * f(n - 1 + j) * f(n + 2 - j), 2 ** (n + j))
        for j in range(n)
    )
    return float(2 * total / f(n - 1) ** 2) * (sigma / math.sqrt(2.0)) ** 3


def mpmath_abs_moment(summands, p, dps=30):
    """E|S|^p from Haagerup's identity, by mpmath's tanh-sinh rule at
    dps digits.  `summands` holds (phi, variance, fourth moment) per
    summand, the moments as exact Fractions.  phi - 1 + variance t^2/2 is
    formed with 40 spare digits, and below t = 1e-8 it is m4 t^4/24."""
    extra = dps + 40
    with mp.workdps(extra):
        v = [mp.mpf(var.numerator) / var.denominator for _, var, _ in summands]
        variance = mp.fsum(v)
        m4 = mp.fsum(mp.mpf(mu4.numerator) / mu4.denominator for _, _, mu4 in summands)
        m4 += 6 * mp.fsum(v[i] * v[j] for i in range(len(v)) for j in range(i))
    with mp.workdps(dps):
        p = mp.mpf(p)
        cp = -2 / mp.pi * mp.sin(p * mp.pi / 2) * mp.gamma(p + 1)

        def integrand(t):
            if t < mp.mpf("1e-8"):
                return m4 * t ** (3 - p) / 24
            with mp.workdps(extra):
                phi = mp.fprod(f(t) for f, _, _ in summands)
                return (phi - 1 + variance * t * t / 2) * t ** (-p - 1)

        points = [0] + [mp.mpf(2) ** j for j in range(-6, 12)] + [mp.inf]
        return float(cp * mp.quad(integrand, points))


def mp_laplace(sigma: str):
    s = Fraction(sigma)
    return (lambda t: 1 / (1 + (mp.mpf(sigma) * t) ** 2 / 2), s * s, 6 * s ** 4)


def mp_uniform(a: str):
    q = Fraction(a)
    return (lambda t: mp.sin(mp.mpf(a) * t) / (mp.mpf(a) * t), q * q / 3, q ** 4 / 5)


def mp_gaussian(sigma: str):
    s = Fraction(sigma)
    return (lambda t: mp.exp(-(mp.mpf(sigma) * t) ** 2 / 2), s * s, 3 * s ** 4)


class TestQuadratureCrossChecks:
    """The quadrature against engines that do not share its rule: each
    value must lie within its own error budget."""

    @pytest.mark.parametrize(
        "specs, p",
        [
            ([rademacher(1.0)] * 3 + [symmetric_three_point(0.7, 0.2)] * 2, 2.5),
            ([symmetric_three_point(1.2, 0.05)] * 4 + [rademacher(0.5)]
             + [rademacher(0.3)] * 6, 3.0),
            ([rademacher(0.8)] * 10 + [symmetric_three_point(2.0, 0.1)] * 3, 3.7),
            ([rademacher(1.0)] * 2 + [symmetric_three_point(0.5, 0.3)]
             + [rademacher(1.0)] + [symmetric_three_point(0.5, 0.3)] * 2, 2.2),
        ],
    )
    def test_atom_sums_against_exact_engine(self, specs, p):
        res = haagerup_moment(CharFunction.product(specs), p, tol=1e-8)
        assert res.converged
        assert abs(res.value - exact_discrete_moment(specs, p)) <= res.total_error

    @pytest.mark.parametrize(
        "specs",
        [
            [rademacher(1.0)],
            [rademacher(0.5)],
            [rademacher(1.0), rademacher(0.5)],
            [rademacher(1.0)] * 2 + [symmetric_three_point(0.7, 0.2)],
        ],
    )
    def test_periodic_phi_within_budget(self, specs):
        """phi of an atom sum never decays, so a panel wider than its period
        can alias it into a small |Kronrod - Gauss|; the budget must hold."""
        for p in (2.2, 2.4, 2.6, 2.8, 3.0, 3.3, 3.6):
            res = haagerup_moment(CharFunction.product(specs), p, tol=1e-8)
            assert abs(res.value - exact_discrete_moment(specs, p)) <= res.total_error

    @pytest.mark.parametrize(
        "specs, summands, p",
        [
            ([symmetric_exponential(1.0)] * 3 + [uniform(1.5)] * 2,
             [mp_laplace("1")] * 3 + [mp_uniform("1.5")] * 2, 2.5),
            ([symmetric_exponential(1.0)] * 3 + [uniform(1.5)] * 2,
             [mp_laplace("1")] * 3 + [mp_uniform("1.5")] * 2, 3.7),
            ([gaussian(0.8)] + [symmetric_exponential(0.5)] * 2 + [uniform(2.0)],
             [mp_gaussian("0.8")] + [mp_laplace("0.5")] * 2 + [mp_uniform("2")], 3.2),
        ],
    )
    def test_continuous_sums_against_mpmath(self, specs, summands, p):
        res = haagerup_moment(CharFunction.product(specs), p, tol=1e-8)
        assert res.converged
        assert abs(res.value - mpmath_abs_moment(summands, p)) <= res.total_error

    @pytest.mark.parametrize("sigma", [1.0, 0.01, 1e-3, 1e-6])
    def test_hundred_laplace_converges(self, sigma):
        """100 Laplace summands at p = 3, against the exact rational value,
        within a budget of tol times the sum's scale at every sigma."""
        phi = CharFunction.product([symmetric_exponential(sigma)] * 100)
        res = haagerup_moment(phi, 3.0, tol=1e-8)
        assert res.converged
        assert res.total_error <= 1e-8 * (100 * sigma ** 2) ** 1.5
        assert abs(res.value - laplace_sum_third_moment(100, sigma)) <= res.total_error

    def test_exact_laplace_formula(self):
        assert laplace_sum_third_moment(1, 1.0) == pytest.approx(3.0 / math.sqrt(2.0), rel=1e-15)


class TestEnvelope:
    """The product's envelope bounds |phi|; the quadrature uses it for its
    tail point and its aliasing guard, and nowhere else."""

    @given(
        st.lists(st.tuples(st.integers(0, 4), st.floats(0.1, 10.0), st.integers(1, 50)),
                 min_size=1, max_size=5),
        st.lists(st.floats(0.0, 1e4, exclude_min=True), min_size=1, max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_product_envelope_bounds_product(self, runs, ts):
        makers = [gaussian, rademacher, symmetric_exponential, uniform,
                  lambda b: symmetric_three_point(b, 0.2)]
        phi = CharFunction.product([makers[i](s) for i, s, k in runs for _ in range(k)])
        t = np.array(ts)
        assert np.all(np.abs(phi.fn(t)) <= phi.envelope(t) * (1.0 + 1e-12))

    @pytest.mark.parametrize(
        "specs, p, golden",
        [
            ([rademacher(1.0)] * 3 + [symmetric_three_point(0.7, 0.2)] * 2, 2.5,
             (5.502433507877242, 2.6227317681765165e-08, 1.5080408464683683e-11,
              1.150826392285974e-08, 25800, True)),
            ([symmetric_three_point(1.2, 0.05)] * 4 + [rademacher(0.5)]
             + [rademacher(0.3)] * 6, 3.3,
             (3.2870097662889637, 1.034690786306242e-08, 8.099813393812675e-10,
              4.182477974555015e-09, 6720, True)),
        ],
    )
    def test_no_decay_keeps_every_bit(self, specs, p, golden):
        """E = 1 for atom sums: the tail point, the panels and every field
        of the result are those of the rule that knew only |phi| <= 1."""
        res = haagerup_moment(CharFunction.product(specs), p)
        assert dataclasses.astuple(res) == golden

    @pytest.mark.parametrize("n", [3, 30, 300, 3000])
    @pytest.mark.parametrize("p", [2.5, 3.0])
    def test_closed_forms_in_few_evaluations(self, n, p):
        """n Laplace(1) summands against E|Z|^p Gamma(n + p/2) / Gamma(n), and
        n standard Gaussians against n^(p/2) E|Z|^p: each converges within
        its budget in at most 1000 evaluations."""
        laplace = gaussian_abs_moment(p) * math.exp(math.lgamma(n + p / 2) - math.lgamma(n))
        for spec, exact in ((symmetric_exponential(1.0), laplace),
                            (gaussian(1.0), n ** (p / 2) * gaussian_abs_moment(p))):
            res = haagerup_moment(CharFunction.product([spec] * n), p)
            assert res.converged
            assert abs(res.value - exact) <= res.total_error
            assert res.evaluations <= 1000

    @pytest.mark.parametrize("sigma, b", [(0.05, 1.0), (0.3, 3.0), (1.0, 10.0)])
    @pytest.mark.parametrize("p", [2.2, 3.0, 3.9])
    def test_decaying_times_periodic_within_budget(self, sigma, b, p):
        """sigma G + b eps: phi = exp(-sigma^2 t^2/2) cos(b t) oscillates
        under a decaying envelope, so coarse panels are guarded by E(lo).
        E|sigma G + b|^p is a one-dimensional integral for mpmath."""
        def density(x):
            return abs(x) ** p * mp.npdf(x, b, sigma)

        exact = float(mp.quad(density, [-mp.inf, b - 10 * sigma, 0, b, b + 10 * sigma, mp.inf]))
        res = haagerup_moment(CharFunction.product([gaussian(sigma), rademacher(b)]), p)
        assert res.converged
        assert abs(res.value - exact) <= res.total_error

    @pytest.mark.parametrize(
        "specs, p, evaluations, quad_error",
        [
            ([gaussian(0.3), rademacher(3.0)], 2.5, 270, 5.853384780146716e-11),
            ([symmetric_exponential(0.5), symmetric_three_point(2.0, 0.1)], 2.7,
             1620, 5.587168292618911e-09),
            ([rademacher(1.0), uniform(1.0), symmetric_exponential(0.5)], 3.3,
             465, 6.210945011063801e-09),
        ],
    )
    def test_aliasing_guard_pinned(self, specs, p, evaluations, quad_error):
        """Pinned panels of decaying products: a guard that read E at a
        panel's right end, where it is smallest, stops bisecting sooner."""
        res = haagerup_moment(CharFunction.product(specs), p)
        assert res.evaluations == evaluations
        assert res.quad_error == pytest.approx(quad_error, rel=1e-6)


class TestVectorizedRule:
    def test_converged_is_the_budget_test(self):
        """One rule at every scale, sums of variance far below 1 included:
        converged iff the budget is at most tol * variance^(p/2), and a sum
        scaled by c converges as the unscaled one does, in as many
        evaluations."""
        rng = np.random.default_rng(24)
        for _ in range(20):
            scale = float(10 ** rng.uniform(-4, 2))
            unscaled = list(random_symmetric_seq(rng, int(rng.integers(1, 12))).variables)
            specs = [s.scaled(scale) for s in unscaled]
            p, tol = float(rng.uniform(2.05, 3.95)), float(10 ** rng.uniform(-10, -4))
            res = haagerup_moment(CharFunction.product(specs), p, tol)
            variance = sum(s.variance for s in specs)
            assert res.total_error == res.quad_error + res.head_error + res.tail_error
            assert res.converged == (res.total_error <= tol * variance ** (p / 2))
            ref = haagerup_moment(CharFunction.product(unscaled), p, tol)
            assert (res.converged, res.evaluations) == (ref.converged, ref.evaluations)

    def test_one_call_per_round(self):
        """phi is evaluated on whole rounds of 15-node panels, not point by point."""
        sizes = []
        base = CharFunction.product([rademacher(1.0), uniform(1.0), symmetric_exponential(0.5)])

        def fn(t):
            sizes.append(t.size)
            return base.fn(t)

        res = haagerup_moment(dataclasses.replace(base, fn=fn), 3.3)
        assert res.converged
        assert sum(sizes) == res.evaluations
        assert all(size % 15 == 0 for size in sizes)
        assert len(sizes) < 40

    def test_relative_tolerance(self):
        """The budget scales with variance^(p/2): a scaled sum converges
        in as many evaluations, with a budget scaled alike."""
        unit = haagerup_moment(CharFunction.product([symmetric_exponential(1.0)] * 10), 2.7)
        big = haagerup_moment(CharFunction.product([symmetric_exponential(100.0)] * 10), 2.7)
        assert unit.converged and big.converged
        assert big.value == pytest.approx(unit.value * 100.0 ** 2.7, rel=1e-9)
        assert big.total_error <= 1e-8 * (10 * 100.0 ** 2) ** 1.35

    def test_product_carries_eighth_moment(self):
        specs = [symmetric_exponential(1.0)] * 4 + [uniform(1.2)]
        phi = CharFunction.product(specs)
        assert phi.eighth_moment == pytest.approx(sum_even_moment([s.moments(8) for s in specs], 4))
        assert CharFunction.product([gaussian(1.0)]).eighth_moment == pytest.approx(105.0)
        assert phi.factors == 5 + 2

    @pytest.mark.parametrize("k", [2, 100, 10_000])
    def test_run_power_matches_multiplication(self, k):
        """A run of k equal factors is f**k; it stays within one unit
        roundoff per factor of k explicit multiplications."""
        u = 2.0 ** -53
        for spec in (symmetric_exponential(1.0), gaussian(0.7), uniform(1.3),
                     rademacher(0.9), symmetric_three_point(1.1, 0.2)):
            t = np.linspace(0.0, 40.0 / math.sqrt(k), 2001)
            power = CharFunction.product([spec] * k).fn(t)
            f, product = spec.phi(t), np.ones_like(t)
            for _ in range(k):
                product = product * f
            kept = np.abs(product) > 1e-290
            assert np.all(np.abs(power[kept] - product[kept]) <= k * u * np.abs(product[kept]))
