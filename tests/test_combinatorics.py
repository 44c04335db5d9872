import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from momentcert.combinatorics import (
    MultiIndex,
    count_compositions,
    count_no_singleton_compositions,
    count_support_compositions,
    elementary_symmetric,
    enumerate_indices,
    multinomial,
)


class TestMultiIndex:
    def test_derived_quantities(self):
        a = MultiIndex((2, 0, 1, 1, 0))
        assert a.total == 4
        assert a.prefix_total(2) == 2
        assert a.factorial == 2
        assert a.support == {1, 3, 4}
        assert a.singletons == {3, 4}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiIndex((1, -1))

    @given(st.lists(st.integers(0, 6), min_size=1, max_size=8))
    def test_derived_match_direct_recomputation(self, entries):
        a = MultiIndex(tuple(entries))
        assert a.total == sum(entries)
        assert a.factorial == math.prod(math.factorial(e) for e in entries)
        assert a.support == {k + 1 for k, e in enumerate(entries) if e}
        assert a.singletons == {k + 1 for k, e in enumerate(entries) if e == 1}


class TestCountCompositions:
    @pytest.mark.parametrize("least", [0, 1, 2, 3])
    def test_matches_enumeration(self, least):
        for total in range(9):
            for parts in range(1, 6):
                brute = sum(1 for c in itertools.product(range(total + 1), repeat=parts)
                            if sum(c) == total and min(c) >= least)
                assert count_compositions(total, parts, least) == brute

    def test_no_parts(self):
        assert count_compositions(0, 0) == 1
        assert count_compositions(3, 0) == 0

    def test_matches_the_closed_forms_to_r_85(self):
        for r in (1, 2, 12, 40, 85):
            for i in range(1, r + 1):
                assert count_compositions(r, i) == count_support_compositions(r, i)
                assert count_compositions(2 * r, i, 2) == count_no_singleton_compositions(r, i)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            count_compositions(-1, 2)


class TestEnumerate:
    def test_compositions_of_two(self):
        got = {a.entries for a in enumerate_indices(2, 2)}
        assert got == {(2, 0), (1, 1), (0, 2)}

    def test_fixed_support(self):
        got = {a.entries for a in enumerate_indices(3, 3, support={1, 2})}
        assert got == {(1, 2, 0), (2, 1, 0)}
        assert len(got) == count_support_compositions(3, 2)

    def test_no_singletons_fixed_support(self):
        got = {a.entries for a in enumerate_indices(2, 6, support={1, 2}, no_singletons=True)}
        assert got == {(2, 4), (3, 3), (4, 2)}
        assert len(got) == count_no_singleton_compositions(3, 2)

    def test_unsatisfiable_is_empty(self):
        assert list(enumerate_indices(2, 3, support={1, 2}, no_singletons=True)) == []

    def test_each_index_exactly_once(self):
        seen = [a.entries for a in enumerate_indices(4, 5)]
        assert len(seen) == len(set(seen)) == math.comb(5 + 3, 3)

    def test_deterministic_order(self):
        a = [x.entries for x in enumerate_indices(3, 4)]
        b = [x.entries for x in enumerate_indices(3, 4)]
        assert a == b
        assert a[0] == (4, 0, 0)

    def test_fixed_support_is_the_filtered_stream(self):
        """A fixed support yields, in the same order, exactly the indices
        of the unconstrained stream whose support it is."""
        for n in range(1, 6):
            for total in range(9):
                for no_singletons in (False, True):
                    full = list(enumerate_indices(n, total, no_singletons=no_singletons))
                    for k in range(n + 1):
                        for support in itertools.combinations(range(1, n + 1), k):
                            got = list(enumerate_indices(
                                n, total, support=support, no_singletons=no_singletons))
                            assert got == [a for a in full if a.support == set(support)]

    @pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6, 12])
    def test_counts_match_closed_forms(self, r):
        n = 12
        for i in range(1, r + 1):
            support = set(range(1, i + 1))
            assert (
                sum(1 for _ in enumerate_indices(n, r, support=support))
                == count_support_compositions(r, i)
            )
            assert (
                sum(1 for _ in enumerate_indices(n, 2 * r, support=support, no_singletons=True))
                == count_no_singleton_compositions(r, i)
            )

    def test_counts_for_arbitrary_support_positions(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            n = int(rng.integers(3, 12))
            r = int(rng.integers(2, 6))
            i = int(rng.integers(1, r + 1))
            if i > n:
                continue
            support = set(rng.choice(np.arange(1, n + 1), size=i, replace=False).tolist())
            assert (
                sum(1 for _ in enumerate_indices(n, r, support=support))
                == count_support_compositions(r, i)
            )


class TestCounts:
    def test_examples(self):
        assert count_support_compositions(3, 2) == 2
        assert count_support_compositions(5, 5) == 1
        assert count_support_compositions(6, 2) == 5
        assert count_no_singleton_compositions(2, 1) == 1
        assert count_no_singleton_compositions(3, 2) == 3
        assert count_no_singleton_compositions(2, 2) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            count_support_compositions(3, 0)
        with pytest.raises(ValueError):
            count_no_singleton_compositions(3, 4)


class TestMultinomial:
    def test_examples(self):
        assert multinomial(4, (2, 2)) == 6
        assert multinomial(4, (4, 0)) == 1
        assert multinomial(8, (2, 2, 2, 2)) == 2520

    def test_mismatch_rejected(self):
        with pytest.raises(ValueError):
            multinomial(4, (2, 1))

    @pytest.mark.parametrize("parts", [(1, 2), (2, 2, 1), (3, 1, 0), (2, 3, 3)])
    def test_counts_words(self, parts):
        """multinomial counts the distinct arrangements of a multiset word."""
        total = sum(parts)
        letters = [i for i, c in enumerate(parts) for _ in range(c)]
        words = set(itertools.permutations(letters))
        assert multinomial(total, parts) == len(words)

    def test_exact_at_large_r(self):
        # (2r)! for r = 12 overflows 64-bit; must stay exact
        assert multinomial(24, (24,)) == 1
        assert multinomial(24, (2,) * 12) == math.factorial(24) // 2 ** 12


class TestElementarySymmetric:
    def test_examples(self):
        assert elementary_symmetric([1, 1, 1], 2) == pytest.approx(3.0)
        assert elementary_symmetric([1, 2, 3], 2) == pytest.approx(11.0)
        assert elementary_symmetric([1, 2, 3], 0) == pytest.approx(1.0)

    def test_r_above_n_warns_and_returns_zero(self):
        with pytest.warns(UserWarning):
            assert elementary_symmetric([1.0, 2.0], 3) == 0.0

    def test_matches_enumeration(self):
        rng = np.random.default_rng(42)
        v = rng.uniform(0.1, 2.0, 12)
        for r in range(0, 6):
            brute = sum(
                math.prod(v[list(c)]) for c in itertools.combinations(range(12), r)
            )
            assert elementary_symmetric(v, r) == pytest.approx(brute, rel=1e-12)

    def test_generating_identity(self):
        """prod (1 + v_k x) has coefficients e_0, ..., e_n."""
        rng = np.random.default_rng(7)
        for n in range(1, 11):
            v = rng.uniform(-1.5, 1.5, n)
            poly = np.array([1.0])
            for vk in v:
                poly = np.convolve(poly, np.array([1.0, vk]))
            coeffs = poly  # ascending powers: coefficient of x^r at index r
            for r in range(n + 1):
                assert elementary_symmetric(v, r) == pytest.approx(
                    coeffs[r], rel=1e-10, abs=1e-12
                )

    @given(
        st.lists(st.floats(0.1, 3.0), min_size=1, max_size=10),
        st.integers(0, 10),
    )
    @settings(max_examples=200)
    def test_permutation_invariance(self, values, seed):
        r = min(len(values), 3)
        rng = np.random.default_rng(seed)
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert elementary_symmetric(shuffled, r) == pytest.approx(
            elementary_symmetric(values, r), rel=1e-12
        )

    def test_constrained_multi_index_sum_equals_e_r(self):
        """|alpha| = r with full-size support forces 0/1 entries, so the
        constrained sum collapses to the elementary symmetric polynomial."""
        rng = np.random.default_rng(3)
        v = rng.uniform(0.2, 2.0, 8)
        r = 3
        total = 0.0
        for alpha in enumerate_indices(8, r, support_size=r):
            assert set(alpha.entries) <= {0, 1}
            total += math.prod(v[k] ** a for k, a in enumerate(alpha))
        assert total == pytest.approx(elementary_symmetric(v, r), rel=1e-12)
