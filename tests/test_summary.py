"""The cached sequence summary and the run-length even-moment engine."""
import dataclasses
import itertools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    count_calls, expand, profiles, random_centered_atom_spec, random_symmetric_spec, variances,
)
from momentcert import (
    SequenceSpec,
    bound_general_p,
    bounds,
    check_symmetric_tail_bounds,
    compute_m,
    estimate_moment,
    exactmoments,
    gaussian,
    minimal_C_centered,
    minimal_C_symmetric,
    rademacher,
    rademacher_even_moment,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.distmodel import VariableSpec


def sequential_even_moment(profiles, r):
    """E (sum X_k)^{2r} by convolving one summand at a time, each moment
    of the partial sum accumulated with math.fsum."""
    order = 2 * r
    m = [1.0] + [0.0] * order
    for prof in profiles:
        mu = prof.moments
        m = [
            math.fsum(math.comb(t, i) * m[t - i] * mu[i] for i in range(t + 1))
            for t in range(order + 1)
        ]
    return m[order]


class TestSortedSummary:
    def test_sort_reads_each_variance_once(self, monkeypatch):
        n = 10_000
        rng = np.random.default_rng(3)
        scales = rng.uniform(0.5, 2.0, n)
        scales[::7] = 1.0  # ties, which the sort must keep in input order
        seq = SequenceSpec(tuple(gaussian(float(s)) for s in scales))
        calls = [0]
        real = VariableSpec.variance

        def counting(spec):
            calls[0] += 1
            return real.fget(spec)

        monkeypatch.setattr(VariableSpec, "variance", property(counting))
        first = seq.sorted()
        assert calls[0] <= n
        assert seq.sorted() is first
        srt, perm = first, seq.sort_order
        v = [s * s for s in scales]
        assert list(perm) == sorted(range(n), key=lambda i: -v[i])
        assert srt.variables == tuple(seq.variables[i] for i in perm)
        assert list(variances(srt)) == sorted(variances(srt), reverse=True)

    def test_equal_specs_share_one_profile(self):
        a, b = symmetric_exponential(1.0), symmetric_exponential(1.0)
        seq = SequenceSpec((a, gaussian(2.0), b, a))
        runs = seq.profile_runs(6)
        assert [k for _, k in runs] == [1, 1, 2] and runs[0][0] is runs[2][0]
        assert seq.profile_runs(6)[0][0] is runs[0][0]
        assert len(seq.distinct_profiles(6)) == 2
        srt = seq.sorted()
        assert set(id(p) for p, _ in srt.profile_runs(6)) == set(id(p) for p, _ in runs)

    def test_flags_read_every_distinct_spec(self):
        skew = spec_from_atoms([-1.0, 0.0, 2.0], [0.3, 0.4, 0.3], 8)
        seq = SequenceSpec((gaussian(1.0),) * 5 + (skew,))
        assert not seq.all_symmetric
        assert seq.all_centered
        assert not seq.all_log_concave


    def test_a_spec_is_its_variables(self):
        """Every cache is warm, yet fields, equality, hash and repr see
        the variables only."""
        seq = SequenceSpec((gaussian(0.5), symmetric_exponential(2.0), gaussian(0.5)))
        srt = seq.sorted()
        for s in (seq, srt):
            s.profile_runs(8), s.variance_runs, s.total_variance
            fresh = SequenceSpec(s.variables)
            assert [f.name for f in dataclasses.fields(SequenceSpec)] == ["variables"]
            assert s == fresh and hash(s) == hash(fresh) and repr(s) == repr(fresh)


class TestRunLengthEvenMoment:
    @pytest.mark.parametrize("k", [1, 2, 3, 7, 64, 1000, 10_000])
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric"])
    def test_single_run_matches_sequential(self, k, kind):
        if kind == "symmetric":
            spec = symmetric_three_point(1.3, 0.2)
        else:
            spec = spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 6)
        prof = spec.moments(6)
        assert prof.symmetric == (kind == "symmetric")
        for r in (2, 3):
            got = sum_even_moment([prof] * k, r)
            want = sequential_even_moment([prof] * k, r)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_mixed_runs_match_sequential(self):
        rng = np.random.default_rng(5)
        specs = [random_symmetric_spec(rng, min_q=0.1) for _ in range(3)]
        specs += [random_centered_atom_spec(rng, 6) for _ in range(2)]
        profiles = []
        for spec, k in zip(specs * 2, (1, 5, 300, 2, 4000, 17, 1, 1, 64, 900)):
            profiles += [spec.moments(6)] * k
        for r in (1, 2, 3):
            got = sum_even_moment(profiles, r)
            want = sequential_even_moment(profiles, r)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_equal_but_distinct_profiles_form_one_run(self):
        spec = symmetric_exponential(0.8)
        shared = [spec.moments(4)] * 50
        copies = [spec.moments(4) for _ in range(50)]
        assert sum_even_moment(shared, 2) == sum_even_moment(copies, 2)


def brute_m(seq):
    worst = max(v.moments(4).moment(4) / v.moments(4).variance ** 2 for v in seq.variables)
    return math.ceil(worst / 6.0 - 1e-12)


def brute_c_symmetric(seq, r):
    c = 1.0
    for v in seq.variables:
        prof = v.moments(2 * r)
        for l in range(2, r + 1):
            ratio = prof.moment(2 * l) * 2 ** l / (math.factorial(2 * l) * prof.variance ** l)
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (2 * l - 2)))
    return c


def brute_c_centered(seq, r):
    c = 1.0
    for v in seq.variables:
        prof = v.moments(2 * r)
        for l in range(3, 2 * r + 1):
            ratio = (
                abs(prof.moment(l)) * 2 ** (l / 2.0)
                / (math.factorial(l) * prof.variance ** (l / 2.0))
            )
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (l - 2)))
    return c


class TestConstantsOverDistinctProfiles:
    def test_match_brute_force_exactly(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            distinct = [random_symmetric_spec(rng) for _ in range(int(rng.integers(1, 5)))]
            variables = [distinct[int(i)] for i in rng.integers(0, len(distinct), 40)]
            seq = SequenceSpec(tuple(variables))
            assert compute_m(seq) == brute_m(seq)
            for r in (2, 3, 4):
                assert minimal_C_symmetric(seq, r) == brute_c_symmetric(seq, r)
                assert minimal_C_centered(seq, r) == brute_c_centered(seq, r)

    def test_centered_match_brute_force_exactly(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            distinct = [random_centered_atom_spec(rng, 8) for _ in range(3)]
            seq = SequenceSpec(tuple(distinct[int(i)] for i in rng.integers(0, 3, 30)))
            for r in (2, 3, 4):
                assert minimal_C_centered(seq, r) == brute_c_centered(seq, r)


ORDERS = (4, 6, 8, 12)


@st.composite
def mixed_sequences(draw):
    """Blocks of equal summands in random order, drawn from a pool with two
    distinct specs of equal variance (gaussian and rademacher at one scale),
    an asymmetric atom spec and three more families."""
    s = draw(st.floats(0.3, 3.0))
    values = draw(st.lists(st.sampled_from(np.linspace(-2.0, 2.0, 9).tolist()),
                           min_size=3, max_size=3, unique=True))
    weights = draw(st.lists(st.floats(0.1, 1.0), min_size=3, max_size=3))
    atoms = spec_from_atoms(values, np.array(weights) / sum(weights), 12)
    pool = [gaussian(s), rademacher(s), atoms, symmetric_exponential(draw(st.floats(0.3, 3.0))),
            uniform(draw(st.floats(0.3, 3.0))), symmetric_three_point(draw(st.floats(0.3, 3.0)), 0.2)]
    blocks = draw(st.lists(st.tuples(st.sampled_from(range(len(pool))), st.integers(1, 9)),
                           min_size=2, max_size=8))
    return SequenceSpec(tuple(pool[j] for j, k in blocks for _ in range(k)))


class TestSharedProfiles:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seq=mixed_sequences(), orders=st.permutations(ORDERS))
    def test_shared_profiles_match_fresh_profiles_bitwise(self, seq, orders):
        """At every suffix start and order, asked in shuffled order, the
        sequence's shared profiles (whose expansion rows are kept) give the
        bits of fresh profiles, and the Rademacher moments of the sequence,
        of its sorted copy and of the sorted weight runs from every start
        equal rademacher_even_moment on the weights one per summand."""
        srt = seq.sorted()
        weights = tuple(map(math.sqrt, variances(srt)))
        for order in orders:
            r = order // 2
            for s in (seq, srt):
                for start in range(len(s)):
                    fresh = [v.moments(order) for v in s.variables[start:]]
                    assert (sum_even_moment(s.profile_runs(order, slice(start, None)), r)
                            == sum_even_moment(fresh, r))
                assert s.rademacher_even_moment(r) == rademacher_even_moment(
                    tuple(map(math.sqrt, variances(s))), r)
            for start in range(len(srt)):
                signs = srt.weight_runs.cut(slice(start, None))
                assert rademacher_even_moment(signs, r) == rademacher_even_moment(weights[start:], r)

    def test_rows_are_built_once_per_profile(self):
        """A run of k copies needs rows Y_1..Y_min(k, r); they stay on the
        profile, and a second sequence starts from its own profiles."""
        a, b = symmetric_exponential(1.0), gaussian(0.5)
        seq = SequenceSpec((a,) * 40 + (b,) * 2)
        (prof_a, _), (prof_b, _) = seq.profile_runs(8)
        high = sum_even_moment(seq.profile_runs(8), 4)
        rows_a, rows_b = dict(prof_a.active_rows), dict(prof_b.active_rows)
        assert (sorted(rows_a), sorted(rows_b)) == ([1, 2, 3, 4], [1, 2])
        assert sum_even_moment(seq.profile_runs(8), 4) == high
        assert all(prof_a.active_rows[j] is row for j, row in rows_a.items())
        assert all(prof_b.active_rows[j] is row for j, row in rows_b.items())
        other = SequenceSpec(seq.variables)
        assert all(len(p.active_rows) == 1 for p in other.distinct_profiles(8))
        assert sum_even_moment(other.profile_runs(8), 4) == high

    def test_threads_that_share_a_profile_agree(self):
        """Eight threads ask one fresh profile for its rows at once, with a
        short switch interval: each gets the bits of a lone caller."""
        want = sum_even_moment([symmetric_exponential(0.9).moments(40)] * 100, 20)
        for _ in range(5):
            prof = symmetric_exponential(0.9).moments(40)
            with ThreadPoolExecutor(8) as pool:
                old = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    futures = [pool.submit(sum_even_moment, [prof] * 100, 20) for _ in range(8)]
                    got = [f.result(timeout=60) for f in futures]
                finally:
                    sys.setswitchinterval(old)
            assert got == [want] * 8

    def test_equal_weights_share_one_rademacher_profile(self, monkeypatch):
        """The weights 2, 2, 3^-1/2, 2 make one run of three signs, also
        across the third summand, and one of one sign; both are expanded
        on one fair-sign profile, built for the call."""
        seq = SequenceSpec((gaussian(2.0), rademacher(2.0), uniform(1.0), gaussian(2.0)))
        calls = []
        real = exactmoments._run_moments
        monkeypatch.setattr(exactmoments, "_run_moments",
                            lambda prof, k, order: calls.append((prof, k)) or real(prof, k, order))
        got = seq.rademacher_even_moment(3)
        assert [k for _, k in calls] == [3, 1] and calls[0][0] is calls[1][0]
        assert calls[0][0] == rademacher(1.0).moments(6)
        assert got == rademacher_even_moment((2.0, 2.0, math.sqrt(1.0 / 3.0), 2.0), 3)


@st.composite
def run_sequences(draw, wide=False, longest=40):
    """Blocks of equal summands drawn with replacement from a pool, so one
    spec sits in several non-adjacent runs and runs repeat interleaved.
    The pool holds distinct specs of equal variance (gaussian, rademacher
    and three-point at one scale) and distinct specs of equal profiles
    (rademacher(s) and symmetric_three_point(s, 0.5)); every block builds
    its specs afresh, so equal specs are mostly distinct objects.  `wide`
    spreads the scales over 16 decades; a block holds at most `longest`."""
    scale = st.floats(1e-8, 1e8) if wide else st.floats(0.3, 3.0)
    s, t, u = draw(scale), draw(scale), draw(scale)
    makers = [lambda: gaussian(s), lambda: rademacher(s), lambda: symmetric_three_point(s, 0.5),
              lambda: symmetric_three_point(s, 0.2), lambda: symmetric_exponential(t),
              lambda: uniform(u), lambda: rademacher(t)]
    blocks = draw(st.lists(st.tuples(st.sampled_from(range(len(makers))), st.integers(1, longest),
                                     st.booleans()), min_size=1, max_size=10))
    variables = []
    for j, k, shared in blocks:
        variables += [makers[j]()] * k if shared else [makers[j]() for _ in range(k)]
    return SequenceSpec(tuple(variables))


class TestRunSummary:
    """Every summary that SequenceSpec builds from its runs equals the
    per-summand definition bit for bit."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seq=run_sequences(wide=True))
    def test_variances_sort_and_tails(self, seq):
        per_summand = variances(seq)
        assert expand(seq.variance_runs) == list(per_summand)
        assert seq.max_variance == max(per_summand)
        srt, perm = seq.sorted(), seq.sort_order
        assert perm == tuple(sorted(range(len(seq)), key=per_summand.__getitem__, reverse=True))
        assert srt.variables == tuple(seq.variables[i] for i in perm)
        assert expand(srt.variance_runs) == [per_summand[i] for i in perm]
        assert srt.max_variance == max(per_summand)
        for s in (seq, srt):
            for k in range(len(s) + 2):
                assert s.tail_variance(k) == math.fsum(variances(s)[k:])
            assert s.total_variance == math.fsum(variances(s))
            assert list(s.runs) == [(v, len(list(g))) for v, g in itertools.groupby(s.variables)]
            assert list(s.variance_runs) == [
                (v, len(list(g))) for v, g in itertools.groupby(variances(s))]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seq=run_sequences(longest=6), order=st.sampled_from((4, 6, 8)))
    def test_profile_runs_from_every_start(self, seq, order):
        """Each fed to sum_even_moment: the runs from every start, their
        items one per summand, and fresh per-summand profiles."""
        r = order // 2
        srt = seq.sorted()
        weights = tuple(map(math.sqrt, variances(srt)))
        for s in (seq, srt):
            fresh = profiles(s, order)
            assert expand(s.profile_runs(order)) == fresh
            for start in range(len(s)):
                runs = s.profile_runs(order, slice(start, None))
                assert sum(k for _, k in runs) == len(s) - start
                want = sum_even_moment(fresh[start:], r)
                assert sum_even_moment(runs, r) == sum_even_moment(expand(runs), r) == want
            head = min(len(s), 3)
            assert (sum_even_moment(s.profile_runs(order, slice(0, head)), r)
                    == sum_even_moment(fresh[:head], r))
        # Each weight's own sign profile, as the moments were once summed,
        # agrees within the rounding bound of both sums (test_exactmoments).
        signs = [rademacher(w).moments(order) for w in weights]
        for start in range(len(srt)):
            runs = srt.weight_runs.cut(slice(start, None))
            want = rademacher_even_moment(weights[start:], r)
            assert rademacher_even_moment(runs, r) == want
            bound = 2 * (len(set(weights[start:])) + 1) * (order + 8) * 2.0 ** -53
            assert sum_even_moment(signs[start:], r) == pytest.approx(want, rel=bound, abs=0.0)
        assert srt.rademacher_even_moment(r) == rademacher_even_moment(weights, r)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seq=run_sequences())
    def test_sign_law(self, seq):
        if len(set(variances(seq))) > 4:
            return  # keep the grids small
        weights = tuple(map(math.sqrt, sorted(variances(seq), reverse=True)))
        want = exactmoments.sign_law(weights)
        for s in (seq, seq.sorted()):
            assert np.array_equal(s.sign_law, want)

    def test_equal_profiles_of_distinct_specs_merge(self):
        a, b = rademacher(1.0), symmetric_three_point(1.0, 0.5)
        assert a != b and a.moments(6) == b.moments(6)
        seq = SequenceSpec((a,) * 3 + (b,) * 4 + (a,) * 2 + (gaussian(0.5),))
        assert [k for _, k in seq.runs] == [3, 4, 2, 1]
        runs = seq.profile_runs(6)
        assert [k for _, k in runs] == [9, 1]
        assert runs[0][0] is seq.distinct_profiles(6)[0]
        assert [k for _, k in seq.profile_runs(6, slice(4, 8))] == [4]
        assert seq.profile_runs(6, slice(5, 5)) == ()
        with pytest.raises(ValueError, match="without step"):
            seq.profile_runs(6, slice(0, None, 2))

    def test_a_long_run_is_one_pair(self):
        seq = SequenceSpec((gaussian(1.0),) * 10**6 + (uniform(1.0),) * 10)
        assert seq.runs == ((gaussian(1.0), 10**6), (uniform(1.0), 10))
        srt, perm = seq.sorted(), seq.sort_order
        assert srt.runs == seq.runs and perm[:3] == (0, 1, 2) and len(perm) == len(seq)
        assert srt.tail_variance(999_999) == math.fsum([1.0] + [1.0 / 3.0] * 10)
        with pytest.raises(ValueError, match="non-negative"):
            seq.tail_variance(-1)


class TestConstantsOncePerSequence:
    def test_m_and_c_are_computed_once_for_a_sequence_and_its_copy(self, monkeypatch):
        """One table of growth roots serves both flags and every r of a
        sequence and its sorted copy; asked at its highest order first, it
        is built once, else once more per higher order."""
        seq = SequenceSpec((gaussian(1.0), symmetric_three_point(2.0, 0.1), gaussian(1.0)))
        srt = seq.sorted()
        tables = []
        real = bounds._roots
        monkeypatch.setattr(bounds, "_roots",
                            lambda s, order: tables.append(order) or real(s, order))
        want = {r: (minimal_C_symmetric(seq, r), minimal_C_centered(seq, r)) for r in (3, 2)}
        for s in (seq, srt, seq):
            for r in (2, 3):
                assert (minimal_C_symmetric(s, r), minimal_C_centered(s, r)) == want[r]
        assert tables == [6]
        assert want == {r: (brute_c_symmetric(seq, r), brute_c_centered(seq, r)) for r in (2, 3)}
        other = SequenceSpec(seq.variables)
        for r in (2, 3, 2):
            assert minimal_C_centered(other, r) == want[r][1]
        assert tables == [6, 4, 6]
        ratios = count_calls(monkeypatch, bounds, "_ratio")
        assert compute_m(seq) == compute_m(srt) == brute_m(seq)
        assert len(ratios) == 2  # one per distinct spec, for the sequence and its copy

    def test_rademacher_moments_once_at_the_highest_order(self, monkeypatch):
        seq = SequenceSpec((uniform(1.0),) * 30 + (gaussian(2.0),) * 20)
        calls, signs = [], []
        real, real_signs = bounds.sum_even_moment, bounds.rademacher_moments
        monkeypatch.setattr(bounds, "sum_even_moment",
                            lambda runs, r: calls.append((len(runs), r)) or real(runs, r))
        monkeypatch.setattr(bounds, "rademacher_moments",
                            lambda runs, order: signs.append((runs, order)) or real_signs(runs, order))
        reports = [bound_general_p(seq, p, r) for p in (6.0, 4.0) for r in (3, 4)]
        check_symmetric_tail_bounds(seq, 3)
        assert all(rep.certifying for rep in reports)
        # One sign list over the two weight runs, at the highest order, from
        # which p = 4 and the tail check read r = 2 and 3, and the tail
        # check's own sum past its cutoff.
        assert signs == [(((2.0, 20), (math.sqrt(1.0 / 3.0), 30)), 6)]
        assert calls == [(2, 3)]
        weights = tuple(map(math.sqrt, variances(seq.sorted())))
        assert reports[0].aux["rademacher_abs_moment"] == rademacher_even_moment(weights, 3)
        assert reports[2].aux["rademacher_abs_moment"] == rademacher_even_moment(weights, 2)

    @pytest.mark.parametrize("runs", [
        ((0.3, 100),), ((0.7, 1000),), ((0.95, 100), (0.05, 1000)),
        ((1.0, 3), (2.0 ** -100, 4)), ((2.0 ** -300, 5),), ((0.5, 7), (2.0 ** -600, 2)),
    ], ids=["0.3x100", "0.7x1000", "two-overflowing", "2^-100", "2^-300", "2^-600"])
    def test_sign_moments_have_the_bits_of_their_own_order(self, runs):
        """Whichever orders were asked before, the sequence's sign moment at
        r has the bits of rademacher_even_moment at r, or its refusal.  Runs
        of weights in (0, 1) on 100 or 1000 signs overflow x_t at high
        orders and are expanded on their power rows there; weights of
        2^-100 and 2^-300 have powers that underflow, which their scaled
        rows round, and 2^-600 has a variance, and so a weight, of 0."""
        rng = np.random.default_rng(31)
        specs = tuple(s for a, k in runs for s in [rademacher(a)] * k)
        for _ in range(3):
            seq = SequenceSpec(specs)
            for r in rng.permutation([1, 2, 3, 5, 8, 13, 21, 34, 55, 84, 85]):
                r = int(r)
                try:
                    want = rademacher_even_moment(seq.weight_runs, r)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=re.escape(str(exc))):
                        seq.rademacher_even_moment(r)
                    continue
                got = seq.rademacher_even_moment(r)
                assert got == want, (r, got, want)


def looped_minimal_C(seq, r, flag):
    """The growth constant by one loop per (flag, r) over the distinct
    profiles at order 2r, each ratio by bounds._ratio: the computation that
    one table of growth roots per sequence replaced."""
    if r < (2 if flag == "symmetric" else 1):
        return 1.0
    orders = range(4, 2 * r + 1, 2) if flag == "symmetric" else range(3, 2 * r + 1)
    c, factorials = 1.0, [math.factorial(l) for l in orders]
    for prof in (spec.moments(2 * r) for spec in dict.fromkeys(seq.variables)):
        if not getattr(prof, flag):
            raise ValueError(f"minimal_C_{flag} requires {flag} profiles")
        for l, factorial in zip(orders, factorials):
            ratio = bounds._ratio(prof, l, 2 ** (l / 2.0), factorial)
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (l - 2)))
    return c


class TestOrderFreeTables:
    """The growth roots and the moment lists of each part, kept per
    sequence at the highest order asked so far, give the bits of the
    computations they replaced whatever order the orders come in."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seq=st.one_of(mixed_sequences(), run_sequences(wide=True, longest=6)),
           rs=st.permutations(range(1, 7)))
    def test_growth_constants_match_the_loop_per_flag_and_r(self, seq, rs):
        for r in rs:
            for s in (seq, seq.sorted()):
                for flag, minimal_C in (("symmetric", minimal_C_symmetric),
                                        ("centered", minimal_C_centered)):
                    try:
                        want = looped_minimal_C(s, r, flag)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            minimal_C(s, r)
                    else:
                        assert minimal_C(s, r) == want

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seq=mixed_sequences(), data=st.data())
    def test_part_lists_have_the_bits_of_fresh_sums(self, seq, data):
        """Two parts asked at orders 4, then 6, then 4: each even moment
        has the bits of sum_even_moment on fresh profiles, read from the
        part's kept runs and by estimate_moment, and after order 6 both
        orders read one list, kept on one Runs per part."""
        cut = data.draw(st.integers(1, len(seq) - 1))
        parts = (slice(0, cut), slice(cut, None))
        for order in (4, 6, 4):
            for part in parts:
                fresh = sum_even_moment([v.moments(order) for v in seq.variables[part]], order // 2)
                assert sum_even_moment(seq.profile_runs(order, part), order // 2) == fresh
                est = estimate_moment(seq, float(order), part, exact_atoms=False, tol=1e-8,
                                      samples=10_000, seed=0, confidence=0.99)
                assert (est.raw, est.provenance) == (fresh, "exact")
        for part in parts:
            runs = seq.profile_runs(4, part)
            assert runs is seq.profile_runs(6, part)
            built, top = runs.kept["moments"]
            assert built == 6 and exactmoments.moments_of_sum(runs, 4) == top[:5]
