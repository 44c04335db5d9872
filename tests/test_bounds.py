import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    profiles, random_centered_atom_spec, random_logconcave_spec, random_symmetric_seq, variances,
)
from momentcert import exactmoments
from momentcert import (
    CharFunction,
    MomentProfile,
    SequenceSpec,
    bound_even_centered,
    bound_even_symmetric,
    bound_general_p,
    bound_p_2_4,
    check_centered_tail_bounds,
    check_rademacher_moment_ratio,
    check_symmetric_tail_bounds,
    compute_m,
    exact_discrete_moment,
    gaussian,
    gaussian_lp_norm,
    haagerup_moment,
    latala_logconcave_bounds,
    logconcave_radius,
    minimal_C_centered,
    minimal_C_symmetric,
    rademacher,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.distmodel import from_profile
from momentcert.exactmoments import Runs, is_even, rademacher_abs_moment


def seq_of(spec, n):
    return SequenceSpec((spec,) * n)


class TestSequenceSpec:
    def test_sorted_records_permutation(self):
        seq = SequenceSpec((gaussian(0.5), gaussian(2.0), gaussian(1.0)))
        srt, perm = seq.sorted(), seq.sort_order
        assert variances(srt) == (4.0, 1.0, 0.25)
        assert perm == (1, 2, 0)
        assert list(variances(srt)) == sorted(variances(srt), reverse=True)

    def test_max_variance_kept_and_seeded_on_the_sorted_copy(self):
        seq = SequenceSpec((gaussian(0.5), uniform(3.0), gaussian(2.0), gaussian(0.5)))
        srt = seq.sorted()
        assert "max_variance" in srt.__dict__ and "max_variance" not in seq.__dict__
        assert seq.max_variance == srt.max_variance == max(variances(seq)) == 4.0
        assert "max_variance" in seq.__dict__

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            SequenceSpec(())

    def test_flags(self):
        seq = SequenceSpec((gaussian(1.0), symmetric_three_point(1.0, 0.1)))
        assert seq.all_symmetric and seq.all_centered
        assert not seq.all_log_concave


class TestComputeM:
    def test_kurtosis_at_most_six_gives_one(self):
        for spec in (gaussian(1.0), rademacher(1.0), symmetric_exponential(1.0), uniform(1.0)):
            assert compute_m(seq_of(spec, 4)) == 1

    def test_heavy_three_point(self):
        # fourth-over-squared-second ratio is 1/(2q) = 50, so m = ceil(50/6) = 9
        assert compute_m(seq_of(symmetric_three_point(1.0, 0.01), 12)) == 9

    def test_exact_integer_ratio(self):
        # ratio exactly 6 must give m = 1, not 2
        prof = MomentProfile((1.0, 0.0, 1.0, 0.0, 6.0), symmetric=True, centered=True)
        assert compute_m(seq_of(from_profile(prof), 3)) == 1

    def test_max_over_sequence(self):
        seq = SequenceSpec((gaussian(1.0), symmetric_three_point(1.0, 0.01)))
        assert compute_m(seq) == 9


class TestMinimalC:
    def test_gaussian_and_laplace_are_floor(self):
        for spec in (gaussian(1.0), symmetric_exponential(0.7), rademacher(1.0), uniform(1.0)):
            assert minimal_C_symmetric(seq_of(spec, 3), 4) == pytest.approx(1.0)

    def test_three_point_symmetric(self):
        c = minimal_C_symmetric(seq_of(symmetric_three_point(1.0, 0.01), 3), 2)
        assert c == pytest.approx(math.sqrt(200.0 / 24.0))

    def test_symmetric_grows_with_r(self):
        seq = seq_of(symmetric_three_point(1.0, 0.01), 3)
        cs = [minimal_C_symmetric(seq, r) for r in (2, 3, 4)]
        assert cs[0] <= cs[1] <= cs[2]

    def test_centered_mild_profile_is_floor(self):
        prof = MomentProfile((1.0, 0.0, 1.0, 2.0, 3.0), centered=True)
        assert minimal_C_centered(seq_of(from_profile(prof), 2), 2) == pytest.approx(1.0)

    def test_centered_skewed_profile(self):
        # l = 3 ratio: 10 * 2^{3/2} / 3! = 4.714..., exponent 1/(l-2) = 1
        prof = MomentProfile((1.0, 0.0, 1.0, 10.0, 103.0), centered=True)
        assert minimal_C_centered(seq_of(from_profile(prof), 2), 2) == pytest.approx(
            10.0 * 2.0 ** 1.5 / 6.0
        )

    def test_centered_requires_centered(self):
        spec = spec_from_atoms([0.0, 1.0], [0.5, 0.5], 4, center=False)
        with pytest.raises(ValueError):
            minimal_C_centered(SequenceSpec((spec,)), 2)

    def test_defining_inequalities_hold_at_minimal_c(self):
        rng = np.random.default_rng(30)
        for _ in range(20):
            seq = random_symmetric_seq(rng, int(rng.integers(1, 5)))
            r = int(rng.integers(2, 5))
            c = minimal_C_symmetric(seq, r)
            assert c >= 1.0
            for prof in profiles(seq, 2 * r):
                for l in range(2, r + 1):
                    bound = c ** (2 * l - 2) * math.factorial(2 * l) / 2 ** l
                    assert prof.moment(2 * l) <= bound * prof.variance ** l * (1 + 1e-9)


class TestScaleFreeConstants:
    def test_underflowing_variance_powers(self):
        """(E X^2)^3 = 8e-327 underflows to 0 at b = 1e-53, q = 0.001, and
        (E X^2)^2 = 4e-324 rounds to one subnormal at b = 1e-80, q = 0.01:
        read at scale 1, m and C are those of b = 1.  At b = 1, q = 1e-4
        and l = 170 the ratio is 2.7e29, so |E X^l| 2^85 scaled by 2^{-170 h}
        alone is 2.7e29 x 170! s^85, past the float range, though the ratio
        is finite; C (set at l = 4) is one value at every power-of-two b,
        where the unscaled (E X^2)^{l/2} turns 0 below b = 1."""
        tiny, unit = (seq_of(symmetric_three_point(b, 0.001), 200) for b in (1e-53, 1.0))
        assert compute_m(tiny) == compute_m(unit) == 84
        for r in (2, 3):
            assert minimal_C_symmetric(tiny, r) == minimal_C_symmetric(unit, r)
            assert minimal_C_centered(tiny, r) == minimal_C_centered(unit, r)
        assert minimal_C_symmetric(tiny, 3) == 9.128709291752768
        assert compute_m(seq_of(symmetric_three_point(1e-80, 0.01), 30)) == 9
        for r in range(80, 86):
            c = {(minimal_C_symmetric(s, r), minimal_C_centered(s, r)) for s in (
                seq_of(symmetric_three_point(b, 1e-4), 30) for b in (1.0, 0.5, 2.0, 0.125))}
            assert c == {(28.867513459481287, 28.867513459481287)}

    def test_infinite_growth_constant_fails_the_cutoff(self):
        """At q = 1e-300 the l = 6 ratio (2q)^-2 is past the float range, so
        C = inf and every cutoff is past n: each statement fails its cutoff
        assumption, which names the overflow, and the tail checks are not
        applicable."""
        seq = seq_of(symmetric_three_point(1.0, 1e-300), 30)
        assert minimal_C_symmetric(seq, 3) == minimal_C_centered(seq, 3) == math.inf
        for rep, name in ((bound_even_symmetric(seq, 3), "cutoff_below_n"),
                          (bound_even_centered(seq, 3), "cutoff_below_n"),
                          (bound_general_p(seq, 6.0, 3), "cutoff_within_n")):
            assert [a.name for a in rep.failed_assumptions()] == [name]
            assert "overflows a float" in rep.assumptions[-1].detail
            assert rep.constants == {}
        for check in (check_symmetric_tail_bounds, check_centered_tail_bounds):
            rep = check(seq, 3)
            assert not rep.applicable and not rep.passed and rep.cutoff_index is None


class TestBoundP24:
    def test_ten_laplace_p4(self):
        rep = bound_p_2_4(seq_of(symmetric_exponential(1.0), 10), 4.0)
        assert rep.certifying and rep.statement_id == "symmetric_p24_band"
        exact = 330.0 ** 0.25
        assert rep.lower <= exact <= rep.upper
        assert rep.constants["m"] == 1
        assert rep.lower == pytest.approx(gaussian_lp_norm(4.0) * 3.0)
        assert rep.radius == pytest.approx(math.sqrt(3.0))
        assert rep.aux["one_sided_lower_radius"] == pytest.approx(3.0 ** 0.25)

    def test_fractional_p_contains_quadrature_truth(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            n = int(rng.integers(3, 8))
            seq = random_symmetric_seq(rng, n, min_q=0.2)
            p = float(rng.uniform(2.0, 4.0))
            rep = bound_p_2_4(seq, p)
            if not rep.certifying:
                continue
            res = haagerup_moment(CharFunction.product(list(seq.variables)), p, tol=1e-8)
            norm = res.value ** (1.0 / p)
            assert rep.lower <= norm * (1 + 1e-9)
            assert norm <= rep.upper * (1 + 1e-9)

    def test_p_out_of_range_not_certifying(self):
        rep = bound_p_2_4(seq_of(gaussian(1.0), 5), 5.0)
        assert not rep.certifying
        assert any(a.name == "p_range" for a in rep.failed_assumptions())
        assert rep.lower is None and rep.upper is None

    def test_head_must_be_shorter_than_sequence(self):
        rep = bound_p_2_4(seq_of(symmetric_three_point(1.0, 0.01), 5), 3.0)
        assert not rep.certifying
        assert any(a.name == "head_shorter_than_n" for a in rep.failed_assumptions())

    def test_sorting_invariance(self):
        a = SequenceSpec((gaussian(0.5), rademacher(2.0), uniform(1.0)))
        b = SequenceSpec((rademacher(2.0), uniform(1.0), gaussian(0.5)))
        ra, rb = bound_p_2_4(a, 3.0), bound_p_2_4(b, 3.0)
        assert ra.lower == pytest.approx(rb.lower)
        assert ra.upper == pytest.approx(rb.upper)


class TestBoundEvenSymmetric:
    def test_ten_laplace_r2_worked_instance(self):
        rep = bound_even_symmetric(seq_of(symmetric_exponential(1.0), 10), 2)
        assert rep.certifying
        assert rep.constants["C"] == pytest.approx(1.0)
        assert rep.constants["cutoff_index"] == 1
        assert rep.lower == pytest.approx(3.9482, abs=1e-4)
        assert rep.upper == pytest.approx(6.1618, abs=1e-3)
        assert rep.lower <= 330.0 ** 0.25 <= rep.upper

    def test_contains_exact_norm(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(2, 5))
            seq = random_symmetric_seq(rng, n, min_q=0.2)
            rep = bound_even_symmetric(seq, r)
            if not rep.certifying:
                continue
            exact = sum_even_moment(profiles(seq, 2 * r), r) ** (1.0 / (2 * r))
            assert rep.lower <= exact * (1 + 1e-10)
            assert exact <= rep.upper * (1 + 1e-10)

    def test_cutoff_too_large_not_certifying(self):
        rep = bound_even_symmetric(seq_of(symmetric_three_point(1.0, 0.01), 5), 3)
        assert not rep.certifying
        assert any(a.name == "cutoff_below_n" for a in rep.failed_assumptions())
        assert "cutoff_index" in rep.constants

    def test_r1_rejected(self):
        rep = bound_even_symmetric(seq_of(gaussian(1.0), 5), 1)
        assert not rep.certifying

    @pytest.mark.parametrize("build", [bound_even_symmetric, bound_even_centered])
    def test_p_is_a_float_whether_or_not_certifying(self, build):
        # r = 1 fails r_range; 2 summands at r = 3 fail the cutoff.
        reps = [build(seq_of(symmetric_exponential(1.0), n), r) for n, r in ((10, 1), (10, 2), (2, 3))]
        assert [rep.certifying for rep in reps] == [False, True, False]
        assert [(type(rep.p), rep.p) for rep in reps] == [(float, 2.0), (float, 4.0), (float, 6.0)]


class TestBoundEvenCentered:
    def _atom_seq(self, rng, n):
        return SequenceSpec(tuple(random_centered_atom_spec(rng) for _ in range(n)))

    def test_upper_dominates_exact_norm(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            r = int(rng.integers(2, 4))
            seq = self._atom_seq(rng, n)
            rep = bound_even_centered(seq, r)
            if not rep.certifying:
                continue
            assert rep.lower is None and rep.radius is None
            exact = sum_even_moment(profiles(seq, 2 * r), r) ** (1.0 / (2 * r))
            assert exact <= rep.upper * (1 + 1e-10)

    def test_symmetric_input_still_works(self):
        rep = bound_even_centered(seq_of(symmetric_exponential(1.0), 10), 2)
        assert rep.certifying
        assert rep.upper >= 330.0 ** 0.25

    def test_cutoff_matches_formula(self):
        seq = seq_of(spec_from_atoms([0.0, 1.0, 4.0], [0.7, 0.2, 0.1], 8), 500)
        for r in (2, 3, 4):
            c = minimal_C_centered(seq, r)
            rep = bound_even_centered(seq, r)
            assert rep.constants["cutoff_index"] == math.ceil(
                c * c * r * (r - 1) / 2.0 - 1e-12
            )


class TestBoundGeneralP:
    def test_rademacher_p3(self):
        seq = seq_of(rademacher(1.0), 6)
        rep = bound_general_p(seq, 3.0, 2)
        assert rep.certifying
        assert rep.target_kind == "abs_moment"
        assert rep.constants["multiplier"] == pytest.approx(3.0)
        assert rep.constants["cutoff_index"] == 2
        assert rep.start_index == 2
        # exact truncated moment: five remaining Rademacher signs
        truth = exact_discrete_moment(list(seq.variables[1:]), 3.0)
        assert truth <= rep.upper * (1 + 1e-12)

    def test_even_p_uses_convolution_engine_beyond_cap(self):
        rep = bound_general_p(seq_of(rademacher(1.0), 200), 4.0, 2)
        assert rep.certifying
        assert rep.aux["rademacher_abs_moment"] > 0

    def test_fractional_p_beyond_grid_budget_not_certifying(self, monkeypatch):
        # Equal weights stay on a small grid at any n.
        for n in (30, 1000):
            seq = seq_of(rademacher(1.0), n)
            rep = bound_general_p(seq, 3.0, 2)
            assert rep.certifying
            truth = exact_discrete_moment(list(seq.variables[rep.start_index - 1 :]), 3.0)
            assert truth <= rep.upper
        # 26 distinct weights overflow the grid budget, here lowered to 2^12.
        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        sig = np.random.default_rng(26).uniform(0.5, 1.0, 26)
        rep = bound_general_p(SequenceSpec(tuple(rademacher(float(s)) for s in sig)), 3.0, 2)
        assert not rep.certifying
        assert [a.name for a in rep.failed_assumptions()] == ["enumeration_cap"]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 10.0)),
                    min_size=4, max_size=9),
           st.lists(st.floats(2.0, 6.0).filter(lambda p: not is_even(p)), min_size=1, max_size=3))
    def test_reads_the_sequence_sign_law(self, weights, ps):
        # Every p reads the law kept on the sorted copy, and gets the value
        # that the law built afresh gives, bit for bit.
        seq = SequenceSpec(tuple(rademacher(w) for w in weights))
        sigmas = tuple(map(math.sqrt, variances(seq.sorted())))
        for p in ps:
            rep = bound_general_p(seq, p, 3)
            assert rep.certifying
            assert rep.aux["rademacher_abs_moment"] == rademacher_abs_moment(sigmas, p)

    def test_truncated_soundness_randomized(self):
        rng = np.random.default_rng(34)
        for _ in range(15):
            n = int(rng.integers(4, 9))
            sig = rng.uniform(0.4, 1.5, n)
            seq = SequenceSpec(tuple(rademacher(float(s)) for s in sig))
            p = float(rng.uniform(2.0, 4.0))
            rep = bound_general_p(seq, p, 2)
            if not rep.certifying:
                continue
            srt = seq.sorted()
            truth = exact_discrete_moment(list(srt.variables[rep.start_index - 1 :]), p)
            assert truth <= rep.upper * (1 + 1e-10)

    def test_p_above_2r_rejected(self):
        rep = bound_general_p(seq_of(gaussian(1.0), 5), 5.0, 2)
        assert not rep.certifying

    def test_wide_spread_certifies(self):
        """Variances spread by 1e10: the truncated sum is Gaussian, so its
        fourth moment is 3 (tail variance)^2, and the bound holds it."""
        seq = SequenceSpec((gaussian(1.0),) * 5 + (gaussian(1e-5),) * 5)
        rep = bound_general_p(seq, 4.0, 2)
        assert rep.certifying
        tail_var = sum(variances(seq.sorted())[rep.start_index - 1 :])
        assert 3.0 * tail_var ** 2 <= rep.upper

    @pytest.mark.parametrize("specs", [
        [gaussian(1.0)] * 200,
        [rademacher(3.0)] * 85 + [gaussian(1.0)] * 10,
    ], ids=["center", "upper"])
    def test_overflow_names_the_statement_and_p(self, specs):
        """At p = 170, r = 85 the cutoff is 86.  The tail variance of 200
        unit Gaussians, 115, to the power 85 overflows the center; behind
        85 signs of size 3 the tail of 10 keeps a finite center, but the
        weighted Rademacher moment of the whole sum overflows the upper."""
        with pytest.raises(OverflowError, match=r"truncated_general_p_upper .* p = 170, r = 85"):
            bound_general_p(SequenceSpec(tuple(specs)), 170, 85)


class TestRatioCheck:
    def test_two_unit_weights_r1(self):
        rep = check_rademacher_moment_ratio((1.0, 1.0), 1)
        assert rep.lhs == pytest.approx(12.0)
        assert rep.rhs == pytest.approx(6.0)
        assert rep.ratio == pytest.approx(2.0)
        assert rep.passed

    def test_vanishing_rhs_gives_inf(self):
        rep = check_rademacher_moment_ratio((1.0,), 1)
        assert rep.rhs == 0.0
        assert math.isinf(rep.ratio)
        assert rep.passed

    def test_holds_on_random_weights(self):
        rng = np.random.default_rng(35)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            r = int(rng.integers(1, 5))
            sig = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
            rep = check_rademacher_moment_ratio(tuple(sig), r)
            assert rep.passed

    def test_ratio_decreases_with_n_at_fixed_total_variance(self):
        ratios = []
        for n in (4, 16, 64):
            w = (1.0 / math.sqrt(n),) * n
            ratios.append(check_rademacher_moment_ratio(w, 2).ratio)
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            check_rademacher_moment_ratio((0.5, 1.0), 1)

    @pytest.mark.parametrize("r", [1, 2, 3, 4])
    def test_ratio_is_the_same_at_every_power_of_two(self, r):
        """Both sides are homogeneous of degree 4r, so at every power-of-two
        scale of the weights the ratio and the verdict have the bits of
        scale 1, also where the sides underflow (2^-600) or overflow
        (2^300 at r >= 2); lhs and rhs are those of scale 1 times 2^(4rh)."""
        base = ((1.5, 3), (0.75, 2), (0.1, 4))
        want = check_rademacher_moment_ratio(Runs(base), r)
        assert want.passed and 1.0 < want.ratio < math.inf
        for h in (-600, -300, -40, 0, 40, 300):
            rep = check_rademacher_moment_ratio(Runs((math.ldexp(a, h), k) for a, k in base), r)
            assert (rep.ratio, rep.passed) == (want.ratio, want.passed)
            assert rep.lhs == exactmoments._ldexp(want.lhs, 4 * r * h)
            assert rep.rhs == exactmoments._ldexp(want.rhs, 4 * r * h)

    def test_underflowing_sides_are_not_a_vacuous_pass(self):
        """30 weights of 1.4e-150 (30 x symmetric_three_point(1, 1e-300)):
        M_6^2 and e_4 of the squared weights underflow to 0, yet the ratio
        is that of 30 equal weights, not the inf of a vanishing rhs."""
        seq = SequenceSpec((symmetric_three_point(1.0, 1e-300),) * 30).sorted()
        rep = check_rademacher_moment_ratio(seq.weight_runs, 3)
        assert rep.lhs == rep.rhs == 0.0
        assert rep.ratio == 1.0999669381278578
        assert rep.ratio == pytest.approx(check_rademacher_moment_ratio((1.0,) * 30, 3).ratio,
                                          rel=1e-13)
        assert rep.passed


class TestLatalaBounds:
    def test_gaussian_sum_center_is_exact(self):
        two_sided, sandwich = latala_logconcave_bounds(seq_of(gaussian(0.5), 8), 4.0)
        exact = gaussian_lp_norm(4.0) * math.sqrt(8 * 0.25)
        assert two_sided.certifying and sandwich.certifying
        assert two_sided.center == pytest.approx(exact)
        assert two_sided.lower <= exact <= two_sided.upper
        assert sandwich.lower <= exact * (1 + 1e-9)
        assert exact <= sandwich.upper * (1 + 1e-9)

    def test_radius_is_p_times_max_sd(self):
        two_sided, _ = latala_logconcave_bounds(seq_of(uniform(1.0), 5), 3.0)
        assert two_sided.radius == pytest.approx(3.0 / math.sqrt(3.0))

    def test_sandwich_head_exact_for_even_p(self):
        _, sandwich = latala_logconcave_bounds(seq_of(symmetric_exponential(1.0), 10), 4.0)
        assert sandwich.aux["head_provenance"] == "exact"
        assert sandwich.constants["head_count"] == 3
        assert sandwich.constants["tail_start"] == 2
        assert sandwich.error_budget == 0.0
        exact = 330.0 ** 0.25
        assert sandwich.lower <= exact <= sandwich.upper

    def test_sandwich_head_wide_spread_certifies(self):
        """A head whose variances spread by 1e10 is exact, and the sandwich
        holds the Gaussian sum's norm (3 (sum v)^2)^(1/4)."""
        seq = SequenceSpec((gaussian(1.0),) * 2 + (gaussian(1e-5),) * 5)
        radius, sandwich = latala_logconcave_bounds(seq, 4.0)
        assert radius.certifying and sandwich.certifying
        assert sandwich.aux["head_provenance"] == "exact"
        assert sandwich.constants == {"head_count": 3, "tail_start": 2}
        exact = (3.0 * (2.0 + 5e-10) ** 2) ** 0.25
        assert sandwich.lower <= exact <= sandwich.upper

    def test_sandwich_quadrature_head_for_fractional_p(self):
        seq = seq_of(symmetric_exponential(1.0), 8)
        _, sandwich = latala_logconcave_bounds(seq, 3.5)
        assert sandwich.aux["head_provenance"] == "quadrature"
        truth = haagerup_moment(CharFunction.product(list(seq.variables)), 3.5, tol=1e-8)
        norm = truth.value ** (1.0 / 3.5)
        assert sandwich.lower <= norm * (1 + 1e-9)
        assert norm <= sandwich.upper * (1 + 1e-9)

    def test_sandwich_mc_head_above_p4(self):
        seq = seq_of(uniform(1.0), 12)
        _, sandwich = latala_logconcave_bounds(seq, 5.0, mc_samples=200_000, mc_seed=3)
        assert sandwich.aux["head_provenance"] == "mc"
        assert sandwich.error_budget > 0.0
        assert sandwich.lower <= sandwich.upper

    def test_not_log_concave_not_certifying(self):
        two_sided, sandwich = latala_logconcave_bounds(
            seq_of(symmetric_three_point(1.0, 0.1), 5), 3.0
        )
        assert not two_sided.certifying and not sandwich.certifying
        assert any(a.name == "log_concave_tails" for a in two_sided.failed_assumptions())

    def test_soundness_randomized_even_p(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            n = int(rng.integers(2, 9))
            seq = SequenceSpec(tuple(random_logconcave_spec(rng) for _ in range(n)))
            r = int(rng.integers(1, 4))
            exact = sum_even_moment(profiles(seq, 2 * r), r) ** (1.0 / (2 * r))
            two_sided, sandwich = latala_logconcave_bounds(seq, float(2 * r))
            for rep in (two_sided, sandwich):
                assert rep.certifying
                assert rep.lower <= exact * (1 + 1e-9)
                assert exact <= rep.upper * (1 + 1e-9)

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 5.5])
    def test_radius_report_is_the_first_of_the_pair(self, p):
        """logconcave_radius reads no order: the unsorted sequence gives
        the pair's first report, field for field (repr, as a
        non-certifying center is nan)."""
        rng = np.random.default_rng(int(p * 10))
        seq = SequenceSpec(tuple(random_logconcave_spec(rng) for _ in range(7)))
        assert list(variances(seq)) != sorted(variances(seq), reverse=True)
        three_point = seq_of(symmetric_three_point(1.0, 0.1), 5)
        for s in (seq, three_point):
            pair = latala_logconcave_bounds(s, p, mc_samples=20_000)
            assert repr(logconcave_radius(s, p)) == repr(pair[0])

    def test_radius_scales_like_inverse_sqrt_n(self):
        radii = []
        for n in (4, 16, 64, 256):
            rep, _ = latala_logconcave_bounds(seq_of(gaussian(1.0 / math.sqrt(n)), n), 3.0)
            radii.append(rep.radius)
            assert rep.radius == pytest.approx(3.0 / math.sqrt(n))
        assert all(a > b for a, b in zip(radii, radii[1:]))


class TestTailChecks:
    def test_symmetric_tail_chain(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            n = int(rng.integers(3, 9))
            r = int(rng.integers(2, 5))
            seq = random_symmetric_seq(rng, n, min_q=0.2)
            rep = check_symmetric_tail_bounds(seq, r)
            if not rep.applicable:
                continue
            assert rep.passed
            assert rep.tail_moment <= rep.symmetric_function_bound * (1 + 1e-10)
            assert rep.symmetric_function_bound <= rep.rademacher_bound * (1 + 1e-10)

    def test_centered_tail_chain(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            n = int(rng.integers(3, 8))
            r = int(rng.integers(2, 4))
            seq = SequenceSpec(tuple(random_centered_atom_spec(rng) for _ in range(n)))
            rep = check_centered_tail_bounds(seq, r)
            if not rep.applicable:
                continue
            assert rep.passed

    def test_not_applicable_when_cutoff_exceeds_n(self):
        rep = check_symmetric_tail_bounds(seq_of(symmetric_three_point(1.0, 0.01), 4), 3)
        assert not rep.applicable and not rep.passed


def ceil_cutoff(x):
    return math.ceil(x - 1e-12)


class TestOneCutoffRule:
    """Every cutoff against its formula written out, on sequences with C > 1."""

    SYMMETRIC = (
        (symmetric_three_point(1.0, 0.05),) * 30,
        (gaussian(2.0),) * 10 + (symmetric_three_point(0.5, 0.02),) * 20,
    )
    ASYMMETRIC = (
        (spec_from_atoms([0.0, 1.0, 4.0], [0.7, 0.2, 0.1], 8),) * 40,
        (spec_from_atoms([-0.5, 0.0, 4.0], [0.6, 0.3, 0.1], 8),) * 10 + (gaussian(1.0),) * 10,
    )

    def test_constants_are_one_below_their_orders_whatever_the_flags(self):
        skew = SequenceSpec((spec_from_atoms([-1.0, 0.0, 2.0], [0.3, 0.4, 0.3], 8),))
        off = SequenceSpec((spec_from_atoms([0.0, 1.0], [0.5, 0.5], 4, center=False),))
        assert minimal_C_symmetric(skew, 1) == 1.0
        assert minimal_C_centered(off, 0) == 1.0
        with pytest.raises(ValueError, match="minimal_C_symmetric requires symmetric profiles"):
            minimal_C_symmetric(skew, 2)
        with pytest.raises(ValueError, match="minimal_C_centered requires centered profiles"):
            minimal_C_centered(off, 1)

    @pytest.mark.parametrize(
        "r, p", [(r, p) for r in (2, 3) for p in (2.5, 3.0, 5.0, 6.0) if p <= 2 * r]
    )
    def test_general_p(self, r, p):
        half = math.floor(p / 2.0)
        for variables in self.SYMMETRIC:
            seq = SequenceSpec(variables)
            c = minimal_C_symmetric(seq, r)
            assert c > 1.0
            rep = bound_general_p(seq, p, r)
            assert rep.constants["cutoff_index"] == ceil_cutoff(c * c * half) + 1
        for variables in self.ASYMMETRIC:
            seq = SequenceSpec(variables)
            c = minimal_C_centered(seq, r)
            assert c > 1.0
            rep = bound_general_p(seq, p, r)
            want = ceil_cutoff(c * c * half * (half + 1) / 2.0) + 1
            assert rep.constants["cutoff_index"] == want

    @pytest.mark.parametrize("r", [2, 3])
    def test_even_statements_and_tail_checks(self, r):
        for variables in self.SYMMETRIC + self.ASYMMETRIC:
            seq = SequenceSpec(variables)
            c = minimal_C_centered(seq, r)
            want = ceil_cutoff(c * c * r * (r - 1) / 2.0)
            assert bound_even_centered(seq, r).constants["cutoff_index"] == want
            assert check_centered_tail_bounds(seq, r).cutoff_index == want
        for variables in self.SYMMETRIC:
            seq = SequenceSpec(variables)
            c = minimal_C_symmetric(seq, r)
            want = ceil_cutoff(c * c * (r - 1))
            assert bound_even_symmetric(seq, r).constants["cutoff_index"] == want
            assert check_symmetric_tail_bounds(seq, r).cutoff_index == want


class TestReportInvariant:
    def test_lower_above_upper_rejected(self):
        from momentcert.bounds import BoundReport

        with pytest.raises(ValueError):
            BoundReport(
                statement_id="x", p=2.0, center=1.0, lower=2.0, upper=1.0,
                radius=None, constants={}, assumptions=(),
            )

    def test_no_absolute_slack(self):
        # At sigma = 1e-8 an absolute slack of 1e-12 would be 1e-4 relative.
        from momentcert.bounds import BoundReport

        with pytest.raises(ValueError):
            BoundReport(statement_id="x", p=2.0, center=1.5e-13, lower=2e-13, upper=1e-13)
        BoundReport(statement_id="x", p=2.0, center=1e-13, lower=1e-13, upper=1e-13)


# Symmetric, centered-asymmetric and uncentered summands, with and without
# logarithmically concave tails, so that every hypothesis fails somewhere.
PROPERTY_SPECS = (
    gaussian(1.0), gaussian(0.3), symmetric_exponential(1.0), uniform(2.0), rademacher(0.5),
    symmetric_three_point(1.0, 0.2), spec_from_atoms([-1.0, 2.0], [2 / 3, 1 / 3], 12),
    spec_from_atoms([0.0, 1.0], [0.5, 0.5], 12),
)


class TestCertifyingIsDerived:
    """A report certifies iff every assumption holds, and a report that does
    not certify carries no interval."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        runs=st.lists(st.tuples(st.sampled_from(PROPERTY_SPECS), st.integers(1, 4)),
                      min_size=1, max_size=3),
        p=st.one_of(st.sampled_from([0.5, 2.0, 3.0, 4.0, 6.0]), st.floats(0.1, 9.0)),
        r=st.integers(-1, 6),
    )
    @example(runs=[(symmetric_exponential(1.0), 5)], p=171.0, r=2)  # a head that overflows
    def test_reports(self, runs, p, r):
        seq = SequenceSpec(tuple(spec for spec, k in runs for _ in range(k)))
        reports = [
            bound_p_2_4(seq, p),
            bound_even_symmetric(seq, r),
            bound_even_centered(seq, r),
            bound_general_p(seq, p, r),
            *latala_logconcave_bounds(seq, p, mc_samples=10_000),
        ]
        for rep in reports:
            assert rep.certifying == all(a.satisfied for a in rep.assumptions)
            if rep.certifying:
                assert math.isfinite(rep.center) and rep.upper is not None
            else:
                assert math.isnan(rep.center)
                assert rep.lower is None and rep.upper is None and rep.radius is None
