"""Independent ground-truth engines.

Exact E|S|^p for finite-support inputs at p >= 1 (the grid engine of
:mod:`exactmoments`, one law format on one point budget), seeded Monte
Carlo with confidence intervals for everything else, the one dispatcher
that picks an engine for E|S|^p, and the verdict function that checks a
bound report against a ground-truth value.  Each is a function of its
arguments and keeps nothing between calls, save the even-moment engine's
lists on a sequence and its profiles (:func:`estimate_moment`) and the
two sums per start of the last few Monte Carlo passes over several
starts (:func:`mc_moment`).
Monte Carlo uses one thread per CPU the process may run on, from a pool
that the process keeps for its life and a forked child starts afresh;
its result does not depend on that count.
"""
from __future__ import annotations

import math
import os
import statistics
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .charfn import CharFunction, haagerup_moment
from .distmodel import AliasTable, NoEngine, VariableSpec, sample_suffixes
from .exactmoments import (
    FINITE_P_MIN, SupportExplosion, _atom_abs_moment, _sum_law, counts, is_even, run_law,
    run_lengths, sum_even_moment,
)

if TYPE_CHECKING:
    from .bounds import BoundReport, SequenceSpec

__all__ = [
    "Estimate",
    "MCEstimate",
    "NoEngine",
    "Verdict",
    "SupportExplosion",
    "estimate_moment",
    "exact_discrete_moment",
    "mc_moment",
    "verify_report",
]

_CHUNK = 1 << 14
# Most atoms of each law into which mc_moment folds the finite-support
# runs of a sum.  It is checked before each product is built, so no grid
# above it is ever formed.
_TABLE_CAP = 1024


@dataclass(frozen=True)
class MCEstimate:
    """Monte Carlo estimate of ||S||_p with a delta-method CI half-width."""

    p: float
    point: float
    half_width: float
    samples: int
    seed: int
    confidence: float
    raw_mean: float
    raw_half_width: float


@dataclass(frozen=True)
class Estimate:
    """E|S|^p and ||S||_p of one sum, each with its error budget, and the
    engine that made them: "exact", "quadrature" or "mc".  All four numbers
    are finite: a value or budget that overflowed a float raises
    OverflowError, since such a number can neither pass nor fail a check."""

    raw: float
    raw_error: float
    norm: float
    norm_error: float
    provenance: str

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.raw, self.raw_error, self.norm, self.norm_error))):
            raise OverflowError(
                f"the {self.provenance} ground truth overflowed a float: "
                f"E|S|^p = {self.raw} +- {self.raw_error}"
            )


@dataclass(frozen=True)
class Verdict:
    passed: bool
    margin: float
    detail: str


def exact_discrete_moment(specs: Sequence[VariableSpec], p: float) -> float:
    """E |sum_k X_k|^p, p >= 1, for finite-support specs, which may be
    given as Runs, by the finite-support engine, equal specs forming one
    run wherever they sit; ValueError below p = 1, SupportExplosion past
    its budget."""
    runs = []
    for spec, k in counts(specs).items():
        atoms = spec.atoms()
        if atoms is None:
            raise ValueError(f"family {spec.family!r} has no finite support")
        runs.append((*atoms, k))
    return _atom_abs_moment(runs, p)


def _worker_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@lru_cache(maxsize=None)
def _pool(workers: int) -> ThreadPoolExecutor:
    """The process's pool of at most `workers` threads, made on first use
    and kept.  A thread starts only when a task finds none idle, so the
    pool never holds more threads than the most chunks one call ran."""
    return ThreadPoolExecutor(max_workers=workers)


if hasattr(os, "register_at_fork"):
    # A forked child inherits the pools but none of their threads.
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _finite_table(runs) -> tuple[list[AliasTable], list]:
    """The finite-support runs folded, in input order, into exact laws by
    the finite-support engine (:func:`run_law`, :func:`_sum_law`), each
    as an AliasTable, and the runs left out: those without atoms, and
    those whose own law would pass _TABLE_CAP points.  A run joins the
    last law when their product fits in _TABLE_CAP, else it starts the
    next one."""
    laws, rest = [], []
    for spec, k in runs:
        atoms = spec.atoms()
        try:
            run = None if atoms is None else run_law(*atoms, k, _TABLE_CAP)
        except SupportExplosion:
            run = None
        if run is None:
            rest.append((spec, k))
        elif laws and len(laws[-1]) * len(run) <= _TABLE_CAP:
            laws[-1] = _sum_law(laws[-1], run, _TABLE_CAP)
        else:
            laws.append(run)
    return [AliasTable(law.real, law.imag) for law in laws], rest


def _moment_sums(segments, p: float, samples: int, seed: int) -> tuple[tuple[float, float], ...]:
    """(sum |S_i|^p, sum |S_i|^2p) over `samples` draws for each segment
    i, S_i the sum of segments i, i+1, ..., each segment a sequence of
    runs (spec, k), drawn as :func:`mc_moment` describes.  Raw moment
    profiles without atoms raise NoEngine before any draw."""
    if any(s.family == "raw_moments" and s.support is None for runs in segments for s, _ in runs):
        raise NoEngine(f"no oracle available for p={p} on raw-moment inputs")
    segments = [_finite_table(runs) for runs in segments]
    chunks = [
        (i, min(_CHUNK, samples - i * _CHUNK))
        for i in range((samples + _CHUNK - 1) // _CHUNK)
    ]

    def run_chunk(arg):
        idx, count = arg
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        # An overflow reaches the caller as a non-finite Estimate, not as a
        # warning; worker threads do not inherit the caller's errstate.
        with np.errstate(over="ignore", invalid="ignore"):
            sums = []
            for x in sample_suffixes(segments, rng, count):
                np.abs(x, out=x)
                np.power(x, p, out=x)
                # Not x @ x: BLAS splits a long dot product over the CPUs, so
                # its rounding would depend on their count; einsum's loop does not.
                sums.append((float(np.sum(x)), float(np.einsum("i,i->", x, x))))
            return sums

    partials = list(_pool(_worker_count()).map(run_chunk, chunks))
    return tuple((math.fsum(c[i][0] for c in partials), math.fsum(c[i][1] for c in partials))
                 for i in range(len(segments)))


@lru_cache(maxsize=32)
def _pass_sums(segments: tuple, p: float, samples: int,
               seed: int) -> tuple[tuple[float, float], ...]:
    """_moment_sums, kept for the later calls with the same segments (in
    run-length form), p, samples and seed: two floats per segment."""
    return _moment_sums(segments, p, samples, seed)


def mc_moment(
    specs: Sequence[VariableSpec],
    p: float,
    samples: int = 1_000_000,
    seed: int = 0,
    confidence: float = 0.999,
    *,
    start: int = 0,
    starts: Sequence[int] = (),
) -> MCEstimate:
    """Monte Carlo estimate of ||sum_{k >= start} X_k||_p with a CI at
    ``confidence``, X_k = specs[k]; `specs` may be Runs.

    Consecutive equal specs form one run.  Before any sample is drawn,
    the finite-support runs (rademacher, symmetric_three_point, atoms) are
    folded into exact laws of at most _TABLE_CAP atoms (_finite_table),
    each drawn by an alias table at one uniform per sample however many
    runs it holds.  Every other run is drawn from the exact law of its sum
    by distmodel.sample_runs after the tables, a finite one from its
    atoms; all gaussian and symmetric_exponential runs share one normal
    draw, which comes last.  Sampling is split into chunks of 2^14,
    each seeded from (seed, chunk_index), so the result is deterministic
    and independent of the worker-thread count, and a few hundred
    thousand samples spread evenly over the workers, the threads of the
    process's pool for its CPU count (_pool), kept between calls.  The CI
    is computed on E|S|^p with a normal approximation, its endpoints
    mapped through the monotone 1/p-power.  Raw moment profiles without
    atoms raise NoEngine.

    ``starts`` names other 0-based starts whose sums share this call's
    draws.  Then the sums from every start are drawn in one pass
    (distmodel.sample_suffixes): the specs are cut at each start into
    segments, each segment's runs are drawn once per chunk, tables first,
    and all segments share one normal.  Each estimate is exact in law on
    its own, and the estimates are correlated.  The pass keeps two floats
    per start (_pass_sums), keyed on the segments' runs, p, samples and
    seed, so a later call for another of its starts reads its sums back
    and draws nothing.  A call whose only start is ``start`` draws the
    sum of ``specs[start:]`` as above and keeps nothing.
    """
    if samples < 10_000:
        raise ValueError("samples must be at least 10^4")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie in (0, 1)")
    runs, starts = run_lengths(specs), tuple(sorted({start, *starts}))
    if starts[0] < 0 or starts[-1] >= max(runs.total, 1):
        raise ValueError(f"starts {starts} outside the {runs.total} summands")
    ends = starts[1:] + (runs.total,)
    segments = tuple(runs.cut(slice(a, b)) for a, b in zip(starts, ends))
    sums = _moment_sums if len(starts) == 1 else _pass_sums
    s1, s2 = sums(segments, p, samples, seed)[starts.index(start)]
    mean = s1 / samples
    var = max(s2 / samples - mean * mean, 0.0)
    # The upper (1 - confidence)/2 quantile: 0.5 + confidence/2 would round
    # to 1 within an ulp of confidence = 1, where inv_cdf is undefined.
    z = -statistics.NormalDist().inv_cdf((1.0 - confidence) / 2.0)
    half = z * math.sqrt(var / samples)
    lo = max(mean - half, 0.0) ** (1.0 / p)
    hi = (mean + half) ** (1.0 / p)
    return MCEstimate(
        p=p,
        point=mean ** (1.0 / p),
        half_width=(hi - lo) / 2.0,
        samples=samples,
        seed=seed,
        confidence=confidence,
        raw_mean=mean,
        raw_half_width=half,
    )


def estimate_moment(
    seq: SequenceSpec, p: float, part: slice, *,
    exact_atoms: bool, tol: float, samples: int, seed: int, confidence: float,
    starts: Sequence[int] = (),
) -> Estimate:
    """E|S|^p for S the sum of ``seq.variables[part]``, by the first engine
    that applies, each handed the runs ``seq.runs.cut(part)``: exact
    convolution of seq's runs of cached moment profiles
    (``seq.profile_runs``) for even p; if ``exact_atoms`` and p >=
    ``FINITE_P_MIN`` = 1, the exact finite-support engine on atom summands;
    quadrature for 2 < p < 4 on symmetric parametric summands, converged
    when its budget is at most ``tol * variance^(p/2)``, relative to the
    sum's scale at every variance; else Monte Carlo, unless a summand is a
    raw moment profile without atoms (NoEngine).  A quadrature norm's
    budget is the raw one mapped through the monotone 1/p-power; Monte
    Carlo maps the interval's endpoints.  A value or budget that
    overflowed a float raises OverflowError.

    ``starts``, if given, names the 0-based starts of every suffix sum
    whose Monte Carlo estimate should come from one pass, ``part`` being
    the suffix from one of them: the pass draws all of them at once
    (:func:`mc_moment` with ``start`` and ``starts``), and the calls for
    the other starts read their sums back.  The other engines ignore it.

    The even-p engine keeps, on the profile runs of each part that seq
    keeps, one ground list, the moments of the part's sum to the order of
    seq's profile table, so every even p of one part reads one list
    (:func:`exactmoments.moments_of_sum`), and, on seq's profiles, the
    rows of its expansion and the sum of each run length
    (``MomentProfile.active_rows`` and ``run_sums``); all of them live as
    long as seq, the profiles as long as its sorted copy too.  Monte
    Carlo keeps the two sums per start of its last few passes over
    several starts, and its worker threads, one pool per process.  No
    other value is kept between calls: two equal calls run every other
    engine twice.
    """
    if is_even(p):
        raw = sum_even_moment(seq.profile_runs(int(p), part), int(p) // 2)
        return Estimate(raw, 0.0, raw ** (1.0 / p), 0.0, "exact")
    runs = seq.runs.cut(part)
    heads = [s for s, _ in runs]  # one spec per run of equal specs
    if exact_atoms and p >= FINITE_P_MIN and all(s.atoms() is not None for s in heads):
        raw = exact_discrete_moment(runs, p)
        return Estimate(raw, 0.0, raw ** (1.0 / p), 0.0, "exact")
    parametric = all(s.family != "raw_moments" for s in heads)
    if 2.0 < p < 4.0 and parametric and all(s.symmetric for s in heads):
        res = haagerup_moment(CharFunction.product(runs), p, tol)
        norm = res.value ** (1.0 / p)
        norm_error = (res.value + res.total_error) ** (1.0 / p) - norm
        return Estimate(res.value, res.total_error, norm, norm_error, "quadrature")
    if starts:
        if part.stop is not None or part.step is not None:
            raise ValueError("a Monte Carlo pass over starts estimates suffixes only")
        est = mc_moment(seq.runs, p, samples=samples, seed=seed, confidence=confidence,
                        start=part.start or 0, starts=starts)
    else:
        est = mc_moment(runs, p, samples=samples, seed=seed, confidence=confidence)
    return Estimate(est.raw_mean, est.raw_half_width, est.point, est.half_width, "mc")


def verify_report(report: BoundReport, ground: Estimate | float) -> Verdict:
    """PASS iff the ground value (with its own error budget) respects the
    report's interval.  ``ground`` is an Estimate, or a plain float taken
    as exact on the report's target scale.
    """
    if not report.certifying:
        raise ValueError("cannot verify a non-certifying report")
    if not isinstance(ground, Estimate):
        value, budget = float(ground), 0.0
    elif report.target_kind == "abs_moment":
        value, budget = ground.raw, ground.raw_error
    else:
        value, budget = ground.norm, ground.norm_error
    budget += report.error_budget
    margins = []
    if report.lower is not None:
        margins.append(value - (report.lower - budget))
    if report.upper is not None:
        margins.append((report.upper + budget) - value)
    if not margins:
        raise ValueError("report carries no bound values")
    worst = min(margins)
    # Allow last-ulp roundoff when a bound is attained with equality.
    if worst >= -1e-12 * max(1.0, abs(value)):
        return Verdict(True, worst, f"{report.statement_id}: contained")
    return Verdict(
        False,
        worst,
        f"{report.statement_id}: ground {value} outside "
        f"[{report.lower}, {report.upper}] by {-worst}",
    )
