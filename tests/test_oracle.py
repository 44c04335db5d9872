import dataclasses
import math
import multiprocessing
import os
import statistics
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from momentcert import oracle
from momentcert import (
    CharFunction,
    Estimate,
    NoEngine,
    SequenceSpec,
    SupportExplosion,
    bound_even_symmetric,
    estimate_moment,
    exact_discrete_moment,
    gaussian,
    haagerup_moment,
    mc_moment,
    rademacher,
    rademacher_abs_moment,
    spec_from_atoms,
    sum_even_moment,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
    verify_report,
)
from conftest import count_calls
from momentcert.distmodel import from_profile
from momentcert.exactmoments import gaussian_abs_moment


class TestExactDiscreteMoment:
    def test_single_rademacher(self):
        assert exact_discrete_moment([rademacher(1.0)], 3.7) == pytest.approx(1.0)

    def test_two_rademacher_p3(self):
        assert exact_discrete_moment([rademacher(1.0)] * 2, 3.0) == pytest.approx(4.0)

    def test_matches_weighted_enumeration(self):
        rng = np.random.default_rng(40)
        for _ in range(15):
            n = int(rng.integers(1, 10))
            p = float(rng.uniform(1.0, 6.0))
            sig = rng.uniform(0.3, 1.5, n)
            specs = [rademacher(float(s)) for s in sig]
            assert exact_discrete_moment(specs, p) == pytest.approx(
                rademacher_abs_moment(tuple(sig), p), rel=1e-13
            )

    def test_mixed_atom_specs_even_p(self):
        specs = [
            spec_from_atoms([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25], 4),
            spec_from_atoms([0.0, 1.0, 3.0], [0.5, 0.3, 0.2], 4),
        ]
        exact = exact_discrete_moment(specs, 4.0)
        via_dp = sum_even_moment([s.profile for s in specs], 2)
        assert exact == pytest.approx(via_dp, rel=1e-10)

    def test_atom_merging_controls_growth(self):
        # 60 coin flips collapse to 61 lattice points, far below 2^60
        specs = [rademacher(1.0)] * 60
        val = exact_discrete_moment(specs, 2.0)
        assert val == pytest.approx(60.0, rel=1e-9)

    def test_irrational_weights_merge_exactly(self):
        # Bit-equal sums merge, with no rounding of atoms: E S^2 = 60 * 0.3.
        val = exact_discrete_moment([rademacher(math.sqrt(0.3))] * 60, 2.0)
        assert val == pytest.approx(18.0, rel=1e-14)

    def test_continuous_refused(self):
        with pytest.raises(ValueError, match="finite support"):
            exact_discrete_moment([gaussian(1.0)], 2.0)

    def test_support_explosion(self):
        specs = [spec_from_atoms(np.linspace(-1, 1, 37) ** 3, np.full(37, 1 / 37), 2)] * 30
        with pytest.raises(SupportExplosion):
            exact_discrete_moment(specs, 2.0)


THREE_POINT = symmetric_three_point(1.0, 0.2)
ATOMS = spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 6)


class TestMCMoment:
    def test_deterministic_given_seed(self):
        specs = [gaussian(1.0), uniform(1.0)]
        a = mc_moment(specs, 3.0, samples=50_000, seed=5)
        b = mc_moment(specs, 3.0, samples=50_000, seed=5)
        assert a == b

    def test_seed_changes_estimate(self):
        specs = [gaussian(1.0)]
        a = mc_moment(specs, 3.0, samples=50_000, seed=1)
        b = mc_moment(specs, 3.0, samples=50_000, seed=2)
        assert a.point != b.point

    @pytest.mark.parametrize(
        "specs",
        [[symmetric_exponential(1.0)] * 3,
         [gaussian(1.0)] * 5 + [uniform(0.5)] * 3 + [THREE_POINT] * 4 + [ATOMS] * 2
         + [symmetric_exponential(0.3)] * 6 + [rademacher(2.0)] * 7 + [uniform(0.7)]],
        ids=["laplace", "mixed-runs"],
    )
    def test_thread_count_invariance(self, monkeypatch, specs):
        monkeypatch.setattr(oracle, "_worker_count", lambda: 1)
        a = mc_moment(specs, 2.5, samples=300_000, seed=9)
        monkeypatch.setattr(oracle, "_worker_count", lambda: 4)
        b = mc_moment(specs, 2.5, samples=300_000, seed=9)
        assert a == b
        # Each count has its own kept pool, so the two calls ran at 1 and 4 threads.
        assert oracle._pool(1) is not oracle._pool(4)
        assert (oracle._pool(1)._max_workers, oracle._pool(4)._max_workers) == (1, 4)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="forks only on Linux")
    def test_forked_child_gets_parents_estimate(self):
        """A child forked after a call inherits the kept pool without its
        threads; it must start its own rather than wait on them."""
        specs = [gaussian(1.0), uniform(1.0)] * 3
        here = mc_moment(specs, 3.3, samples=100_000, seed=5)
        ctx = multiprocessing.get_context("fork")
        parent_end, child_end = ctx.Pipe(duplex=False)
        child = ctx.Process(target=lambda: child_end.send(
            mc_moment(specs, 3.3, samples=100_000, seed=5)))
        child.start()
        try:
            assert parent_end.poll(60), "the forked child's Monte Carlo never returned"
            assert parent_end.recv() == here
        finally:
            child.join(10)
            if child.exitcode is None:
                child.kill()
        assert child.exitcode == 0

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity")
                        or len(os.sched_getaffinity(0)) < 2, reason="needs two CPUs")
    def test_cpu_count_invariance(self):
        """A process held to one CPU before numpy loads gets the same
        estimate: no reduction may round by the CPU count, as a BLAS dot
        product over 2^14 samples does."""
        import momentcert

        code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "from momentcert import gaussian, uniform, mc_moment; "
                "print(repr(mc_moment([gaussian(1.0), uniform(1.0)] * 3, 3.3, "
                "samples=100_000, seed=5)))")
        src = os.path.dirname(os.path.dirname(momentcert.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        here = mc_moment([gaussian(1.0), uniform(1.0)] * 3, 3.3, samples=100_000, seed=5)
        assert out.stdout.strip() == repr(here)

    def test_matches_exact_gaussian_norm(self):
        est = mc_moment([gaussian(1.0)] * 4, 4.0, samples=2_000_000, seed=11)
        exact = 3.0 ** 0.25 * 2.0
        assert abs(est.point - exact) <= 2.0 * est.half_width

    @pytest.mark.parametrize(
        "specs, p",
        [([rademacher(1.0)] * 6, 3.0), ([THREE_POINT] * 6, 3.0),
         ([gaussian(0.8)] * 3 + [symmetric_exponential(1.2)] * 3, 4.0)],
        ids=["rademacher", "three-point", "gaussian-laplace"],
    )
    def test_ci_coverage(self, specs, p):
        """The 90% CI for E|S|^p on six summands should cover the exact
        value in roughly 90% of independent repetitions; a binomial bound
        at 200 trials."""
        if p == 4.0:
            exact = sum_even_moment([s.moments(4) for s in specs], 2)
        else:
            exact = exact_discrete_moment(specs, p)
        trials, hits = 200, 0
        for seed in range(trials):
            est = mc_moment(specs, p, samples=20_000, seed=seed, confidence=0.9)
            if abs(est.raw_mean - exact) <= est.raw_half_width:
                hits += 1
        # P(hits < 160) under p = 0.9 is ~1e-4
        assert hits >= 160

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            mc_moment([gaussian(1.0)], 2.0, samples=100)

    def test_bad_confidence_rejected(self):
        with pytest.raises(ValueError):
            mc_moment([gaussian(1.0)], 2.0, samples=20_000, confidence=1.5)


# Variance V of one summand given its mixing draw, the summand being sqrt(V) Z.
MIXING = {
    "gaussian": lambda sigma, rng, n: sigma ** 2,
    "symmetric_exponential": lambda sigma, rng, n: sigma ** 2 * rng.standard_gamma(1, n),
}


def per_summand_mc(specs, p, samples, seed, confidence=0.999):
    """mc_moment written out per chunk for specs with no two equal
    neighbours: the alias tables of the finite-support summands, built by
    the engine, draw first, in order; then, in input order, each other
    summand adds its draw or, if gaussian or Laplace, its variance given
    its mixing draw; one standard normal draw, scaled by the root of the
    summed variances, comes last.  The second sum is einsum's, as in mc_moment."""
    tables, _ = oracle._finite_table([(spec, 1) for spec in specs])
    sums = []
    for idx in range((samples + oracle._CHUNK - 1) // oracle._CHUNK):
        count = min(oracle._CHUNK, samples - idx * oracle._CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        total, var = tables[0].draw(rng, count), 0.0
        for table in tables[1:]:
            total += table.draw(rng, count)
        for spec in specs:
            if spec.atoms() is not None:
                continue
            if spec.family in MIXING:
                var = var + MIXING[spec.family](spec.params[0], rng, count)
            else:
                total += spec.sample_with(rng, count)
        total += np.sqrt(var) * rng.standard_normal(count)
        x = np.abs(total) ** p
        sums.append((float(np.sum(x)), float(np.einsum("i,i->", x, x))))
    mean = math.fsum(a for a, _ in sums) / samples
    var = max(math.fsum(b for _, b in sums) / samples - mean * mean, 0.0)
    half = -statistics.NormalDist().inv_cdf((1.0 - confidence) / 2.0) * math.sqrt(var / samples)
    lo, hi = max(mean - half, 0.0) ** (1.0 / p), (mean + half) ** (1.0 / p)
    return oracle.MCEstimate(p, mean ** (1.0 / p), (hi - lo) / 2.0, samples, seed,
                             confidence, mean, half)


class TestMCRuns:
    """mc_moment draws a run of k equal summands once, from its sum's law."""

    def test_distinct_summands_share_one_normal_draw(self):
        specs = [gaussian(1.0), uniform(0.8), symmetric_exponential(0.6), rademacher(0.5),
                 THREE_POINT, ATOMS, gaussian(1.0), uniform(0.8)]
        assert mc_moment(specs, 3.3, samples=300_000, seed=4) == per_summand_mc(
            specs, 3.3, 300_000, 4)

    @pytest.mark.parametrize(
        "make", [lambda: gaussian(0.9), lambda: rademacher(1.1),
                 lambda: symmetric_exponential(0.4), lambda: uniform(1.5),
                 lambda: symmetric_three_point(0.7, 0.3),
                 lambda: spec_from_atoms([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 6)],
        ids=["gaussian", "rademacher", "laplace", "uniform", "three-point", "atoms"],
    )
    def test_one_object_equals_equal_copies(self, make):
        one = mc_moment([make()] * 9, 5.0, samples=150_000, seed=3)
        copies = mc_moment([make() for _ in range(9)], 5.0, samples=150_000, seed=3)
        assert one == copies

    @pytest.mark.parametrize(
        "spec", [gaussian(0.9), rademacher(1.1), symmetric_exponential(0.4),
                 symmetric_three_point(0.7, 0.3), uniform(1.5), ATOMS],
        ids=["gaussian", "rademacher", "laplace", "three-point", "uniform", "atoms"],
    )
    def test_long_run_matches_exact_fourth_moment(self, spec):
        est = mc_moment([spec] * 1000, 4.0, samples=200_000, seed=8)
        exact = sum_even_moment([spec.moments(4)] * 1000, 2)
        assert abs(est.raw_mean - exact) <= est.raw_half_width

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no affinity mask")
    def test_default_thread_count_is_the_affinity_mask(self):
        assert oracle._worker_count() == len(os.sched_getaffinity(0))


def per_segment_pass(specs, starts, p, samples, seed):
    """The sums of a pass written out per chunk: the summands from each
    start to the next are drawn in turn, as per_summand_mc draws a sum
    (tables, then the other summands, then the summed mixing variances);
    one normal draw, last, serves every start, whose sum S_i adds the
    draws of its own segment to S_{i+1}.  Specs with no two equal
    neighbours, as for per_summand_mc.  Returns
    [(sum |S_i|^p, sum |S_i|^2p)] by increasing start."""
    bounds = list(starts) + [len(specs)]
    segments = [specs[a:b] for a, b in zip(bounds, bounds[1:])]
    tables = [oracle._finite_table([(spec, 1) for spec in segment])[0] for segment in segments]
    sums = [[] for _ in starts]
    for idx in range((samples + oracle._CHUNK - 1) // oracle._CHUNK):
        count = min(oracle._CHUNK, samples - idx * oracle._CHUNK)
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        parts = []
        for segment, seg_tables in zip(segments, tables):
            total, var = np.zeros(count), None
            for table in seg_tables:
                total += table.draw(rng, count)
            for spec in segment:
                if spec.atoms() is not None:
                    continue
                if spec.family in MIXING:
                    v = MIXING[spec.family](spec.params[0], rng, count)
                    var = v if var is None else var + v
                else:
                    total += spec.sample_with(rng, count)
            parts.append((total, var))
        z = rng.standard_normal(count)
        total = var = 0.0
        for i in reversed(range(len(starts))):
            t, v = parts[i]
            total = t + total
            var = var if v is None else v + var
            x = np.abs(total + np.sqrt(var) * z) ** p
            sums[i].append((float(np.sum(x)), float(np.einsum("i,i->", x, x))))
    return [(math.fsum(a for a, _ in chunk), math.fsum(b for _, b in chunk)) for chunk in sums]


def _gamma_laplace_norm(k, p):
    """||S||_p for S the sum of k Laplace(1): S = sqrt(G) Z with G ~ Gamma(k)."""
    log = math.lgamma(k + p / 2.0) - math.lgamma(k)
    return (gaussian_abs_moment(p) * math.exp(log)) ** (1.0 / p)


class TestMCPass:
    """mc_moment draws the sums from several starts of one sequence in one
    pass, and keeps the pass's sums for the calls at its other starts."""

    SPECS = [symmetric_exponential(1.0)] * 12
    MIXED = [gaussian(1.0), uniform(0.8), THREE_POINT, symmetric_exponential(0.6), ATOMS,
             gaussian(0.5), rademacher(0.5), uniform(0.3), symmetric_exponential(1.2),
             THREE_POINT, gaussian(1.0), uniform(0.8), rademacher(1.0),
             symmetric_exponential(0.6)]

    @pytest.fixture(autouse=True)
    def _fresh_passes(self):
        oracle._pass_sums.cache_clear()
        yield
        oracle._pass_sums.cache_clear()

    def test_pass_is_written_out(self):
        starts = (0, 4, 9, 13)
        want = per_segment_pass(self.MIXED, starts, 3.3, 100_000, 6)
        for start, (s1, s2) in zip(starts, want):
            est = mc_moment(self.MIXED, 3.3, samples=100_000, seed=6, start=start,
                            starts=starts)
            assert est.raw_mean == s1 / 100_000
            assert est.samples == 100_000 and est.seed == 6

    def test_single_start_is_todays_draw(self, monkeypatch):
        """A call whose only start is `start` draws the suffix as a call
        on the suffix alone does, and keeps nothing."""
        calls = count_calls(monkeypatch, oracle, "_moment_sums")
        here = mc_moment(self.MIXED, 3.3, samples=50_000, seed=2, start=4, starts=(4,))
        again = mc_moment(self.MIXED, 3.3, samples=50_000, seed=2, start=4)
        assert len(calls) == 2
        assert here == again == mc_moment(self.MIXED[4:], 3.3, samples=50_000, seed=2)

    def test_later_starts_read_the_kept_pass(self, monkeypatch):
        calls = count_calls(monkeypatch, oracle, "_moment_sums")
        first = [mc_moment(self.SPECS, 5.0, samples=50_000, seed=3, start=s, starts=(2, 0))
                 for s in (0, 2)]
        assert len(calls) == 1
        again = [mc_moment(self.SPECS, 5.0, samples=50_000, seed=3, start=s, starts=(0, 2))
                 for s in (2, 0)]
        assert len(calls) == 1
        assert again == first[::-1]
        # Another seed, p or sample count is another pass.
        mc_moment(self.SPECS, 5.0, samples=50_000, seed=4, start=0, starts=(0, 2))
        assert len(calls) == 2

    @pytest.mark.parametrize("starts", [(0, 2), (1, 4, 9, 13)])
    def test_thread_count_invariance(self, monkeypatch, starts):
        def pass_at(workers):
            oracle._pass_sums.cache_clear()
            monkeypatch.setattr(oracle, "_worker_count", lambda: workers)
            return [mc_moment(self.MIXED, 2.5, samples=300_000, seed=9, start=s, starts=starts)
                    for s in starts]

        assert pass_at(1) == pass_at(4)

    def test_each_start_matches_the_gamma_closed_form(self):
        """12 x Laplace(1) at p = 5, cut at 0-based starts 0 and 2: the
        pass splits the one Laplace run, and each estimate lies within its
        CI of (E|Z|^5 Gamma(k + 5/2) / Gamma(k))^(1/5), k the suffix length."""
        for start in (0, 2):
            est = mc_moment(self.SPECS, 5.0, samples=200_000, seed=0, start=start,
                            starts=(0, 2))
            exact = _gamma_laplace_norm(12 - start, 5.0)
            assert abs(est.point - exact) <= est.half_width

    @pytest.mark.parametrize("start, starts", [(-1, (0,)), (0, (0, 12)), (3, (0, 20))])
    def test_starts_outside_the_sequence_rejected(self, start, starts):
        with pytest.raises(ValueError, match="outside"):
            mc_moment(self.SPECS, 5.0, samples=20_000, start=start, starts=starts)

    def test_estimate_moment_passes_suffixes_only(self):
        seq = SequenceSpec(tuple(self.SPECS))
        with pytest.raises(ValueError, match="suffixes only"):
            estimate_moment(seq, 5.0, slice(0, 4), **ENGINES, starts=(0, 2))

    def test_raw_profiles_in_a_pass_have_no_engine(self):
        raw = from_profile(gaussian(1.0).moments(8))
        with pytest.raises(NoEngine):
            mc_moment([raw] + self.SPECS, 5.0, samples=20_000, start=1, starts=(0, 1))


def _law_by_enumeration(runs):
    """{value rounded to 9 decimals: probability} of a sum of runs (spec, k),
    adding one summand at a time: no repeated squaring, no closed form."""
    law = {0.0: 1.0}
    for spec, k in runs:
        values, probs = spec.atoms()
        for _ in range(k):
            new = {}
            for s, ps in law.items():
                for v, pv in zip(values, probs):
                    key = round(s + float(v), 9)
                    new[key] = new.get(key, 0.0) + ps * float(pv)
            law = new
    return law


FINITE_RUNS = {
    "rademacher": [(rademacher(1.0), 5), (rademacher(0.5), 3)],
    "three-point-dyadic": [(symmetric_three_point(0.5, 0.3), 6)],
    "three-point-0.7": [(symmetric_three_point(0.7, 0.3), 6)],
    "asymmetric-atoms": [(ATOMS, 3)],
    "mixed": [(rademacher(1.0), 4), (symmetric_three_point(0.7, 0.2), 3), (ATOMS, 2),
              (rademacher(0.5), 2)],
}
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73,
          79, 83, 89, 97, 101, 103, 107, 109, 113)


class TestFiniteTable:
    """mc_moment draws the finite-support runs of a sum from alias tables
    of their exact law, each capped at oracle._TABLE_CAP atoms."""

    @pytest.mark.parametrize("runs", FINITE_RUNS.values(), ids=FINITE_RUNS.keys())
    def test_columns_hold_the_exact_law(self, runs):
        """Column j gives its atom accept[j] / n and its alias the rest; the
        columns add up to the enumerated law, up to rounding."""
        [table], _ = oracle._finite_table(runs)
        n, law = len(table.accept), {}
        for v, a, w in zip(table.columns[:n], table.accept, table.columns[n:]):
            for value, mass in ((v, a / n), (w, (1.0 - a) / n)):
                law[round(float(value), 9)] = law.get(round(float(value), 9), 0.0) + mass
        exact = _law_by_enumeration(runs)
        for value in law.keys() | exact.keys():
            assert law.get(value, 0.0) == pytest.approx(exact.get(value, 0.0), abs=1e-14)

    @pytest.mark.parametrize("runs", FINITE_RUNS.values(), ids=FINITE_RUNS.keys())
    def test_drawn_frequencies_match_the_exact_law(self, runs):
        """Every atom's empirical frequency lies within 6 standard errors of
        its probability, by enumeration; nothing else is drawn."""
        [table], rest = oracle._finite_table(runs)
        assert rest == []
        n = 1_000_000
        drawn, counts = np.unique(np.round(table.draw(np.random.default_rng(10), n), 9),
                                  return_counts=True)
        law = _law_by_enumeration(runs)
        assert set(drawn) <= set(law)
        freq = dict(zip(drawn, counts / n))
        for value, prob in law.items():
            assert abs(freq.get(value, 0.0) - prob) <= 6.0 * math.sqrt(prob * (1 - prob) / n)

    @pytest.mark.parametrize("p", [2.5, 5.0])
    @pytest.mark.parametrize("runs", FINITE_RUNS.values(), ids=FINITE_RUNS.keys())
    def test_mc_matches_the_exact_engine(self, runs, p):
        specs = [spec for spec, k in runs for _ in range(k)]
        est = mc_moment(specs, p, samples=200_000, seed=12)
        assert abs(est.raw_mean - exact_discrete_moment(specs, p)) <= est.raw_half_width

    def test_runs_without_atoms_are_left_out(self):
        runs = [(gaussian(1.0), 2), (rademacher(1.0), 3), (uniform(0.5), 1), (ATOMS, 2)]
        [table], rest = oracle._finite_table(runs)
        assert rest == [(gaussian(1.0), 2), (uniform(0.5), 1)]
        assert len(table.accept) <= oracle._TABLE_CAP
        assert oracle._finite_table([(gaussian(1.0), 2)]) == ([], [(gaussian(1.0), 2)])

    @pytest.mark.parametrize("runs, left, atoms", [
        ([(rademacher(1.1), 1000)], 0, [1001]),
        ([(rademacher(1.1), 5000)], 1, []),
        ([(rademacher(1.1), 1000), (symmetric_three_point(0.7, 0.3), 1000)], 1, [1001]),
        ([(symmetric_three_point(0.7, 0.5), 500)], 0, [501]),
        ([(rademacher(math.sqrt(q)), 1) for q in PRIMES], 0, [1024] * 3),
    ], ids=["rademacher-1000", "rademacher-5000", "three-point-1000", "three-point-half-500",
            "30-primes"])
    def test_past_the_cap_is_drawn_from_its_atoms(self, runs, left, atoms):
        """1000 equal signs make 1001 atoms, within the cap; 5000 do not, nor
        do 1000 three-point summands (2001 atoms), so each is drawn from its
        atoms; 500 three-point summands at q = 1/2, whose atom 0 has
        probability 0, are 500 signs (501 atoms); 30 incommensurate weights
        fill 2^10 = 1024 atoms with each ten in turn, so they make three
        tables.  No grid above the cap is built, so the peak stays far
        below one of 10^6."""
        tracemalloc.start()
        try:
            tables, rest = oracle._finite_table(runs)
            specs = [spec for spec, k in runs for _ in range(k)]
            est = mc_moment(specs, 2.0, samples=20_000, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rest == runs[len(runs) - left:]
        assert [len(table.accept) for table in tables] == atoms
        assert peak < 8_000_000
        variance = sum(spec.variance * k for spec, k in runs)
        assert abs(est.raw_mean - variance) <= est.raw_half_width


class TestNormalQuantile:
    @pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99, 0.999, 0.999999,
                                            math.nextafter(1.0, 0.0)])
    def test_half_width_uses_the_normal_quantile(self, confidence):
        z = float(stats.norm.isf((1.0 - confidence) / 2.0))
        assert -statistics.NormalDist().inv_cdf((1.0 - confidence) / 2.0) == pytest.approx(
            z, rel=1e-15
        )
        samples = 20_000
        est = mc_moment([rademacher(1.0)] * 2, 2.0, samples=samples, seed=3,
                        confidence=confidence)
        # |S|^2 takes the values 0 and 4, so E|S|^4 = 4 E|S|^2 exactly.
        mean = est.raw_mean
        var = 4.0 * mean - mean * mean
        assert est.raw_half_width == pytest.approx(z * math.sqrt(var / samples), rel=1e-15)

    def test_import_leaves_scipy_stats_out(self):
        import momentcert

        code = "import sys, momentcert; print('scipy.stats' in sys.modules)"
        src = os.path.dirname(os.path.dirname(momentcert.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_cli_import_loads_no_scipy(self):
        import momentcert

        code = ("import sys, momentcert.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        src = os.path.dirname(os.path.dirname(momentcert.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "[]"


ENGINES = dict(exact_atoms=False, tol=1e-8, samples=20_000, seed=1, confidence=0.999)


class TestEstimateMoment:
    LAPLACE = SequenceSpec((symmetric_exponential(1.0),) * 6 + (gaussian(0.5),) * 2)

    def test_even_p_is_exact(self):
        est = estimate_moment(self.LAPLACE, 4.0, slice(None), **ENGINES)
        raw = sum_even_moment([v.moments(4) for v in self.LAPLACE.variables], 2)
        assert est == Estimate(raw, 0.0, raw ** 0.25, 0.0, "exact")

    def test_atoms_only_when_asked(self):
        seq = SequenceSpec((rademacher(1.0),) * 5)
        est = estimate_moment(seq, 3.0, slice(None), **{**ENGINES, "exact_atoms": True})
        raw = exact_discrete_moment(list(seq.variables), 3.0)
        assert est == Estimate(raw, 0.0, raw ** (1.0 / 3.0), 0.0, "exact")
        assert estimate_moment(seq, 3.0, slice(None), **ENGINES).provenance == "quadrature"

    def test_atoms_below_p_one_take_monte_carlo(self):
        """The exact finite-support engine takes p >= 1 only, so below it
        atom summands fall through to Monte Carlo."""
        seq = SequenceSpec((rademacher(1.0),) * 5)
        est = estimate_moment(seq, 0.5, slice(None), **{**ENGINES, "exact_atoms": True})
        mc = mc_moment(list(seq.variables), 0.5, samples=20_000, seed=1)
        assert est == Estimate(mc.raw_mean, mc.raw_half_width, mc.point, mc.half_width, "mc")

    def test_quadrature_budgets(self):
        p = 3.5
        est = estimate_moment(self.LAPLACE, p, slice(None), **ENGINES)
        res = haagerup_moment(CharFunction.product(list(self.LAPLACE.variables)), p, 1e-8)
        norm = res.value ** (1.0 / p)
        assert est == Estimate(
            res.value, res.total_error, norm,
            (res.value + res.total_error) ** (1.0 / p) - norm, "quadrature",
        )

    def test_monte_carlo_outside_two_four(self):
        est = estimate_moment(self.LAPLACE, 5.0, slice(None), **ENGINES)
        mc = mc_moment(list(self.LAPLACE.variables), 5.0, samples=20_000, seed=1)
        assert est == Estimate(mc.raw_mean, mc.raw_half_width, mc.point, mc.half_width, "mc")

    def test_part_selects_summands(self):
        part = estimate_moment(self.LAPLACE, 3.0, slice(5, 8), **ENGINES)
        alone = SequenceSpec(self.LAPLACE.variables[5:8])
        assert part == estimate_moment(alone, 3.0, slice(None), **ENGINES)

    def test_raw_profiles_have_no_engine(self):
        raw = spec_from_atoms([-1.0, 1.0], [0.5, 0.5], 6)
        seq = SequenceSpec((from_profile(raw.profile),) * 3)
        with pytest.raises(NoEngine, match="no oracle available"):
            estimate_moment(seq, 3.0, slice(None), **ENGINES)

    @pytest.mark.parametrize("p", [3.0, 4.0, 5.0])
    def test_sandwich_head_reads_the_dispatcher(self, p):
        from momentcert import latala_logconcave_bounds

        seq = SequenceSpec((rademacher(1.0),) * 3 + (uniform(0.7),) * 4)
        sandwich = latala_logconcave_bounds(
            seq, p, tol=1e-8, mc_samples=20_000, mc_seed=1
        )[1]
        head = sandwich.constants["head_count"]
        est = estimate_moment(seq.sorted(), p, slice(0, head), **ENGINES)
        assert sandwich.aux == {"head_norm": est.norm, "head_provenance": est.provenance}
        assert sandwich.error_budget == est.norm_error
        assert est.provenance == {3.0: "quadrature", 4.0: "exact", 5.0: "mc"}[p]


    @pytest.mark.parametrize("spec, n, p, engine", [
        (symmetric_exponential(1.0), 5, 171.0, "mc"),
        (gaussian(1e30), 1000, 10.0, "exact"),
    ])
    def test_overflow_raises(self, spec, n, p, engine):
        with pytest.raises(OverflowError, match=f"the {engine} ground truth overflowed a float"):
            estimate_moment(SequenceSpec((spec,) * n), p, slice(None), **ENGINES)


def _bits(est):
    return [float(x).hex() for x in (est.raw, est.raw_error, est.norm, est.norm_error)]


class TestEstimateDeterminism:
    """estimate_moment keeps nothing between calls, and repeats itself."""

    VARIABLES = (symmetric_exponential(1.0),) * 6 + (gaussian(0.5),) * 2
    SIGNS = (rademacher(1.0),) * 4 + (rademacher(0.5),) * 3

    @pytest.mark.parametrize("p, variables, exact_atoms, provenance", [
        (5.0, VARIABLES, False, "mc"),
        (3.0, VARIABLES, False, "quadrature"),
        (3.0, SIGNS, True, "exact"),
        (4.0, VARIABLES, False, "exact"),
        (2.5, SIGNS, False, "quadrature"),
        (5.0, SIGNS, True, "exact"),
    ])
    def test_hit_is_bit_identical_to_a_fresh_run(self, p, variables, exact_atoms, provenance):
        kwargs = {**ENGINES, "exact_atoms": exact_atoms}
        seq = SequenceSpec(variables)
        first = estimate_moment(seq, p, slice(None), **kwargs)
        hit = estimate_moment(seq, p, slice(None), **kwargs)
        fresh = estimate_moment(SequenceSpec(variables), p, slice(None), **kwargs)
        assert hit.provenance == provenance
        assert _bits(hit) == _bits(first) == _bits(fresh)


class TestVerifyReport:
    def _report(self):
        return bound_even_symmetric(SequenceSpec((symmetric_exponential(1.0),) * 10), 2)

    def test_pass_on_exact_ground(self):
        verdict = verify_report(self._report(), 330.0 ** 0.25)
        assert verdict.passed and verdict.margin > 0.0

    def test_pass_on_mc_ground(self):
        rep = self._report()
        est = mc_moment([symmetric_exponential(1.0)] * 10, 4.0, samples=200_000, seed=2)
        ground = Estimate(est.raw_mean, est.raw_half_width, est.point, est.half_width, "mc")
        assert verify_report(rep, ground).passed

    def test_pass_on_quadrature_ground(self):
        from momentcert.bounds import bound_p_2_4

        seq = SequenceSpec((symmetric_exponential(1.0),) * 10)
        rep = bound_p_2_4(seq, 3.0)
        ground = estimate_moment(seq, 3.0, slice(None), **ENGINES)
        assert ground.provenance == "quadrature"
        assert verify_report(rep, ground).passed

    def test_corrupted_report_fails(self):
        """Self-test: a deliberately shrunk interval must produce a FAIL."""
        rep = self._report()
        broken = dataclasses.replace(rep, upper=rep.lower + 1e-6, radius=None)
        verdict = verify_report(broken, 330.0 ** 0.25)
        assert not verdict.passed
        assert verdict.margin < 0.0
        assert "outside" in verdict.detail

    def test_non_certifying_rejected(self):
        rep = bound_even_symmetric(SequenceSpec((gaussian(1.0),) * 5), 1)
        with pytest.raises(ValueError):
            verify_report(rep, 1.0)

    def test_estimate_scale_follows_the_target(self):
        from momentcert.bounds import bound_general_p

        seq = SequenceSpec((rademacher(1.0),) * 6)
        rep = bound_general_p(seq, 3.0, 2)
        raw = exact_discrete_moment([rademacher(1.0)] * 5, 3.0)
        assert verify_report(rep, Estimate(raw, 0.0, 1e6, 0.0, "exact")).passed
        assert not verify_report(rep, Estimate(1e6, 0.0, raw, 0.0, "exact")).passed
        norm_rep = self._report()
        norm = 330.0 ** 0.25
        assert verify_report(norm_rep, Estimate(1e6, 0.0, norm, 0.0, "exact")).passed

    def test_abs_moment_scale(self):
        from momentcert.bounds import bound_general_p

        seq = SequenceSpec((rademacher(1.0),) * 6)
        rep = bound_general_p(seq, 3.0, 2)
        truth = exact_discrete_moment([rademacher(1.0)] * 5, 3.0)
        assert verify_report(rep, truth).passed
