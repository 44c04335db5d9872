"""The bound engine: head-length and growth constants, and certified
bound reports for every supported statement.

Every operation sorts the sequence by variance (nonincreasing) internally,
so callers never have to pre-sort; reports do not carry the permutation,
which `SequenceSpec.sorted()` returns.  When a hypothesis fails the engine
returns a structured non-certifying report instead of raising, so sweeps
can tabulate applicability regions.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import itemgetter
from typing import Callable, Sequence

from .combinatorics import elementary_symmetric
from .distmodel import VariableSpec, rademacher
from .exactmoments import (
    Runs,
    SupportExplosion,
    gaussian_abs_moment,
    gaussian_lp_norm,
    is_even,
    law_abs_moment,
    rademacher_moments,
    run_lengths,
    sign_law,
    sum_even_moment,
)
from .oracle import estimate_moment

__all__ = [
    "Assumption",
    "SequenceSpec",
    "BoundReport",
    "Statement",
    "STATEMENTS",
    "compute_m",
    "minimal_C_symmetric",
    "minimal_C_centered",
    "bound_p_2_4",
    "bound_even_symmetric",
    "bound_even_centered",
    "bound_general_p",
    "check_rademacher_moment_ratio",
    "latala_logconcave_bounds",
    "logconcave_radius",
    "check_symmetric_tail_bounds",
    "check_centered_tail_bounds",
]

# Guard against float noise when a ratio sits exactly on an integer.
_CEIL_EPS = 1e-12


def _ceil(x: float) -> int:
    return math.ceil(x - _CEIL_EPS)


@dataclass(frozen=True)
class Assumption:
    name: str
    satisfied: bool
    detail: str = ""


def _exact(v: float) -> int:
    """v in units of 2^-1074, of which every finite float is a whole number."""
    num, den = v.as_integer_ratio()
    return num << (1075 - den.bit_length())


def _once(cache: dict, key, make):
    """cache[key], made by make() on first use."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


@dataclass(frozen=True)
class SequenceSpec:
    """An ordered family of independent variables.

    The sequence is summarized as its runs: (spec, k) for each maximal run
    of k equal consecutive specs.  Every summary is built from the runs on
    first use and kept in the instance's ``__dict__``; fields, equality,
    hash and repr see ``variables`` only.  What depends on the distinct
    specs alone (their variances, moment profiles and sign profiles, the
    constants m and C) is computed once, in tables by distinct spec that
    the sorted copy shares, so the rows that
    :func:`exactmoments.moments_of_sum` keeps on a profile are built once
    per sequence and order, and dropped with them.  Every other summary
    is itself a Runs, which the engines take as they are.
    """

    variables: tuple[VariableSpec, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("sequence must contain at least one variable")

    def __len__(self) -> int:
        return len(self.variables)

    _shared = cached_property(lambda self: {})  # by distinct specs; the sorted copy's too
    _own = cached_property(lambda self: {})  # by runs, in this sequence's order

    @cached_property
    def runs(self) -> Runs:
        """(spec, k) for each maximal run of k equal consecutive specs."""
        return run_lengths(self.variables)  # the CLI repeats one object `count` times

    @cached_property
    def _variance(self) -> dict:
        """The variance of each distinct spec, in first-seen order; the sorted copy's too."""
        return {s: s.variance for s in dict.fromkeys(s for s, _ in self.runs)}

    @cached_property
    def variance_runs(self) -> Runs:
        """(v, k) for each maximal run of k consecutive summands of variance v."""
        return Runs.join((self._variance[s], k) for s, k in self.runs)

    total_variance = cached_property(lambda self: self.tail_variance(0))
    max_variance = cached_property(lambda self: max(self._variance.values()))

    @property
    def all_symmetric(self) -> bool:
        return all(v.symmetric for v in self._variance)

    @property
    def all_centered(self) -> bool:
        return all(v.centered for v in self._variance)

    @property
    def all_log_concave(self) -> bool:
        return all(v.log_concave_tail for v in self._variance)

    @cached_property
    def _tails(self) -> list[int]:
        """The exact sum of the variances from each variance run on, in
        units of 2^-1074 (:func:`_exact`), then 0."""
        terms = [_exact(v) * k for v, k in self.variance_runs]
        return list(accumulate(reversed(terms), initial=0))[::-1]

    def tail_variance(self, k: int) -> float:
        """The sum of the variances from position k (0-based) on, correctly
        rounded: on the sorted copy, the tail that a bound keeps past its k
        largest summands.  It is summed exactly over the runs and rounded
        once, as math.fsum over the summands rounds it.  An endpoint such as
        center - radius may cancel to a small fraction of the center, where
        a plain sum's rounding shows."""
        if k < 0:
            raise ValueError("k must be non-negative")
        runs = self.variance_runs
        k = min(k, runs.total)  # past the end, the last run's part is 0
        i = bisect_right(runs.offsets, k, 0, len(runs)) - 1
        part = _exact(runs[i][0]) * (runs.offsets[i + 1] - k)
        return (self._tails[i + 1] + part) / (1 << 1074)  # int division rounds correctly

    @cached_property
    def sign_law(self):
        """The law of sum_k sqrt(v_k) eps_k, eps_k fair signs, that
        :func:`exactmoments.sign_law` builds from the weights in sorted
        order, or the SupportExplosion with which it refused them: the
        truncated bound reads it at every p and r, so a sequence builds or
        refuses its grid once.  The refusal is kept without its traceback,
        whose frames would hold the grid's parts."""
        weights = ((math.sqrt(v), k) for v, k in self.variance_runs)
        try:
            return sign_law(Runs(sorted(weights, key=itemgetter(0), reverse=True)))
        except SupportExplosion as exc:
            return exc.with_traceback(None)

    @cached_property
    def _sorted(self) -> tuple["SequenceSpec", tuple[int, ...]]:
        runs, offsets = self.runs, self.runs.offsets
        variances = [self._variance[s] for s, _ in runs]
        # A reverse sort keeps equal keys in their original order, and a
        # run's summands are consecutive, so sorting the runs sorts them.
        ranks = sorted(range(len(runs)), key=variances.__getitem__, reverse=True)
        order = tuple(chain.from_iterable(range(offsets[i], offsets[i + 1]) for i in ranks))
        ordered = Runs.join(map(runs.__getitem__, ranks))
        copy = SequenceSpec(tuple(chain.from_iterable(repeat(s, k) for s, k in ordered)))
        copy.__dict__.update(runs=ordered, _shared=self._shared, _variance=self._variance,
                             max_variance=variances[ranks[0]])
        return copy, order

    def sorted(self) -> tuple["SequenceSpec", tuple[int, ...]]:
        """Variance-nonincreasing copy plus the applied permutation
        (original 0-based positions in sorted order; stable)."""
        return self._sorted

    def _profiles(self, max_order: int, signs: bool) -> dict:
        """The moment profile of each distinct spec, or with `signs` that
        of sqrt(v) eps for its variance v, eps a fair sign, specs of equal
        weight sharing one object."""
        def make():
            if not signs:
                return {s: s.moments(max_order) for s in self._variance}
            weights = {s: math.sqrt(v) for s, v in self._variance.items()}
            made = {w: rademacher(w).moments(max_order) for w in dict.fromkeys(weights.values())}
            return {s: made[w] for s, w in weights.items()}
        return _once(self._shared, ("profiles", max_order, signs), make)

    def distinct_profiles(self, max_order: int) -> tuple:
        """One moment profile per distinct spec, in no particular order."""
        return tuple(self._profiles(max_order, False).values())

    def profile_runs(self, max_order: int, part: slice = slice(None), signs: bool = False) -> Runs:
        """(profile, k) for the runs of equal moment profiles (with `signs`,
        of sqrt(v_k) eps_k) among the summands `part`, a slice without step:
        adjacent runs whose profiles compare equal are merged, as
        :func:`exactmoments.sum_even_moment` would merge them."""
        def make():
            table = self._profiles(max_order, signs)
            return Runs.join((table[s], k) for s, k in self.runs)
        return _once(self._own, ("runs", max_order, signs), make).cut(part)

    def rademacher_even_moment(self, r: int) -> float:
        """E (sum_k sqrt(v_k) eps_k)^{2r} over the whole sequence, summed
        in its order by :func:`exactmoments.sum_even_moment` once per r."""
        return _once(self._own, ("signs", r),
                     lambda: sum_even_moment(self.profile_runs(2 * r, signs=True), r))


@dataclass(frozen=True)
class BoundReport:
    """One certified interval for a moment of a (possibly truncated) sum.

    target_kind "norm" means the bound is on (E|.|^p)^{1/p}; "abs_moment"
    means it is on the raw E|.|^p.  start_index is the 1-based first summand
    of the bounded sum after sorting (1 = the full sum).
    """

    statement_id: str
    p: float
    center: float = math.nan
    lower: float | None = None
    upper: float | None = None
    radius: float | None = None
    constants: dict = field(default_factory=dict)
    assumptions: tuple[Assumption, ...] = ()
    target_kind: str = "norm"
    start_index: int = 1
    error_budget: float = 0.0
    aux: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                raise ValueError("report invariant violated: lower > upper")

    @property
    def certifying(self) -> bool:
        """True iff every hypothesis of the statement holds."""
        return all(a.satisfied for a in self.assumptions)

    def failed_assumptions(self) -> tuple[Assumption, ...]:
        return tuple(a for a in self.assumptions if not a.satisfied)


def _non_certifying(statement_id, p, assumptions, constants=None):
    return BoundReport(statement_id, p, constants=constants or {}, assumptions=tuple(assumptions))


# -- constants --------------------------------------------------------------


def compute_m(seq: SequenceSpec) -> int:
    """Head length m = max_k ceil((1/6) E X_k^4 / (E X_k^2)^2), computed
    once for a sequence and its sorted copy."""
    return _once(seq._shared, "m", lambda: _ceil(
        max(p.moment(4) / p.variance ** 2 for p in seq.distinct_profiles(4)) / 6.0))


def _minimal_C(seq: SequenceSpec, r: int, orders: range, flag: str) -> float:
    """Least C >= 1 with |E X_k^l| <= C^{l-2} l!/2^{l/2} (E X_k^2)^{l/2}
    for every l in orders and all k, each profile `flag` (symmetric or
    centered); l = 2 holds automatically.  Computed once per (flag, r) for
    a sequence and its sorted copy."""
    if (flag, r) in seq._shared:
        return seq._shared[flag, r]
    c, factorials = 1.0, [math.factorial(l) for l in orders]
    for prof in seq.distinct_profiles(2 * r):
        if not getattr(prof, flag):
            raise ValueError(f"minimal_C_{flag} requires {flag} profiles")
        for l, factorial in zip(orders, factorials):
            ratio = (
                abs(prof.moment(l))
                * 2 ** (l / 2.0)
                / (factorial * prof.variance ** (l / 2.0))
            )
            if ratio > 1.0:
                c = max(c, ratio ** (1.0 / (l - 2)))
    seq._shared[flag, r] = c
    return c


def minimal_C_symmetric(seq: SequenceSpec, r: int) -> float:
    """The growth constant of symmetric summands: the condition at the
    even orders 4 <= l <= 2r only (1 for r < 2)."""
    return 1.0 if r < 2 else _minimal_C(seq, r, range(4, 2 * r + 1, 2), "symmetric")


def minimal_C_centered(seq: SequenceSpec, r: int) -> float:
    """The growth constant of centered summands: the condition at every
    order 3 <= l <= 2r (1 for r < 1)."""
    return 1.0 if r < 1 else _minimal_C(seq, r, range(3, 2 * r + 1), "centered")


# -- bound reports ----------------------------------------------------------


def bound_p_2_4(seq: SequenceSpec, p: float) -> BoundReport:
    """Two-sided bound on ||sum X_k||_p for 2 <= p <= 4, symmetric summands.

    lower = gamma_p (sum_{k>=2} v_k)^{1/2};
    upper = gamma_p (sum v_k)^{1/2} + sqrt(3 m) sqrt(v_1).
    The symmetric radius sqrt(3 m) sqrt(v_1) of the two-sided form is also
    reported, together with the tighter one-sided lower radius 3^{1/4}
    sqrt(v_1) as auxiliary data.
    """
    sorted_seq, _ = seq.sorted()
    n = len(sorted_seq)
    m = compute_m(sorted_seq)
    assumptions = (
        Assumption("p_range", 2.0 <= p <= 4.0, f"2 <= p={p} <= 4"),
        Assumption("symmetric", sorted_seq.all_symmetric, "all summands symmetric"),
        Assumption("head_shorter_than_n", m < n, f"m={m} < n={n}"),
    )
    constants = {"m": m}
    if not all(a.satisfied for a in assumptions):
        return _non_certifying("symmetric_p24_band", p, assumptions, constants)
    gp = gaussian_lp_norm(p)
    center = gp * math.sqrt(sorted_seq.total_variance)
    radius = math.sqrt(3.0 * m) * math.sqrt(sorted_seq.max_variance)
    return BoundReport(
        statement_id="symmetric_p24_band",
        p=p,
        center=center,
        lower=gp * math.sqrt(sorted_seq.tail_variance(1)),
        upper=center + radius,
        radius=radius,
        constants=constants,
        assumptions=assumptions,
        aux={"one_sided_lower_radius": 3.0 ** 0.25 * math.sqrt(sorted_seq.max_variance)},
    )


def _cutoff(sorted_seq: SequenceSpec, r: int, j: int, symmetric: bool) -> tuple[float, int]:
    """Growth constant C up to order 2r and cutoff D_j = ceil(C^2 j) for
    symmetric summands, ceil(C^2 (j+1) j/2) for centered ones."""
    if symmetric:
        c = minimal_C_symmetric(sorted_seq, r)
        return c, _ceil(c * c * j)
    c = minimal_C_centered(sorted_seq, r)
    return c, _ceil(c * c * (j + 1) * j / 2.0)


def _bound_even(seq: SequenceSpec, r: int, symmetric: bool) -> BoundReport:
    """The even-p band for symmetric summands, or the upper bound alone
    for centered ones; both have upper = center + 2 D sqrt(v_1)."""
    statement = "even_symmetric_band" if symmetric else "even_centered_upper"
    kind = "symmetric" if symmetric else "centered"
    sorted_seq, _ = seq.sorted()
    n = len(sorted_seq)
    p = float(2 * r)
    holds = sorted_seq.all_symmetric if symmetric else sorted_seq.all_centered
    assumptions = [
        Assumption("r_range", r >= 2, f"r={r} >= 2"),
        Assumption(kind, holds, f"all summands {kind}"),
    ]
    if not all(a.satisfied for a in assumptions):
        return _non_certifying(statement, p, assumptions)
    c, cutoff = _cutoff(sorted_seq, r, r - 1, symmetric)
    constants = {"C": c, "cutoff_index": cutoff}
    formula = "ceil(C^2 (r-1))" if symmetric else "ceil(C^2 r(r-1)/2)"
    assumptions.append(
        Assumption("cutoff_below_n", cutoff < n, f"{formula}={cutoff} < n={n}")
    )
    if cutoff >= n:
        return _non_certifying(statement, p, assumptions, constants)
    gp = gaussian_lp_norm(p)
    center = gp * math.sqrt(sorted_seq.total_variance)
    radius = 2.0 * cutoff * math.sqrt(sorted_seq.max_variance)
    return BoundReport(
        statement_id=statement,
        p=p,
        center=center,
        lower=gp * math.sqrt(sorted_seq.tail_variance(r - 1)) if symmetric else None,
        upper=center + radius,
        radius=radius if symmetric else None,
        constants=constants,
        assumptions=tuple(assumptions),
    )


def bound_even_symmetric(seq: SequenceSpec, r: int) -> BoundReport:
    """Two-sided bound on ||sum X_k||_{2r} for symmetric summands, r >= 2.

    Uses the growth constant C and cutoff D = ceil(C^2 (r-1)):
    lower = gamma_{2r} (sum_{k>=r} v_k)^{1/2};
    upper = gamma_{2r} (sum v_k)^{1/2} + 2 D sqrt(v_1); radius = 2 D sqrt(v_1).
    """
    return _bound_even(seq, r, symmetric=True)


def bound_even_centered(seq: SequenceSpec, r: int) -> BoundReport:
    """Upper bound on ||sum X_k||_{2r} for centered (possibly asymmetric)
    summands: gamma_{2r} (sum v_k)^{1/2} + 2 ceil(C^2 r(r-1)/2) sqrt(v_1).
    No lower bound is available in this regime.
    """
    return _bound_even(seq, r, symmetric=False)


def bound_general_p(seq: SequenceSpec, p: float, r: int) -> BoundReport:
    """Upper bound on the raw moment E |sum_{k>=cutoff} X_k|^p of a
    *truncated* sum, 2 <= p <= 2r.

    The bound is multiplier * E |sum_k sqrt(v_k) eps_k|^p over the full
    weighted Rademacher sum, with multiplier (2 floor(p/2)+1)/(2 floor(p/2)-1)
    and cutoff ceil(C^2 floor(p/2))+1 for symmetric summands
    (ceil(C^2 floor(p/2)(floor(p/2)+1)/2)+1 otherwise).  The report never
    re-labels this as a bound on the full sum.
    """
    sorted_seq, _ = seq.sorted()
    n = len(sorted_seq)
    half = math.floor(p / 2.0)
    assumptions = [
        Assumption("p_range", 2.0 <= p <= 2 * r, f"2 <= p={p} <= 2r={2 * r}"),
        Assumption("centered", sorted_seq.all_centered, "all summands centered"),
    ]
    if not all(a.satisfied for a in assumptions):
        return _non_certifying("truncated_general_p_upper", p, assumptions)
    c, cutoff = _cutoff(sorted_seq, r, half, sorted_seq.all_symmetric)
    cutoff += 1
    multiplier = (2.0 * half + 1.0) / (2.0 * half - 1.0)
    constants = {"C": c, "cutoff_index": cutoff, "multiplier": multiplier}
    assumptions.append(
        Assumption("cutoff_within_n", cutoff <= n, f"cutoff={cutoff} <= n={n}")
    )
    if cutoff > n:
        return _non_certifying("truncated_general_p_upper", p, assumptions, constants)
    if is_even(p):
        rad = sorted_seq.rademacher_even_moment(int(p) // 2)
    elif isinstance(law := sorted_seq.sign_law, SupportExplosion):
        assumptions.append(Assumption("enumeration_cap", False, str(law)))
        return _non_certifying("truncated_general_p_upper", p, assumptions, constants)
    else:
        rad = law_abs_moment(law, p)
    try:  # a float power raises OverflowError; a float product turns inf
        center = gaussian_abs_moment(p) * sorted_seq.tail_variance(cutoff - 1) ** (p / 2.0)
    except OverflowError:
        center = math.inf
    if not (math.isfinite(center) and math.isfinite(multiplier * rad)):
        raise OverflowError(f"truncated_general_p_upper overflows a float at p = {p}, r = {r}")
    return BoundReport(
        statement_id="truncated_general_p_upper",
        p=p,
        center=center,
        upper=multiplier * rad,
        constants=constants,
        assumptions=tuple(assumptions),
        target_kind="abs_moment",
        start_index=cutoff,
        aux={"rademacher_abs_moment": rad},
    )


@dataclass(frozen=True)
class RatioCheckReport:
    lhs: float
    rhs: float
    ratio: float
    passed: bool


def check_rademacher_moment_ratio(w: Sequence[float], r: int) -> RatioCheckReport:
    """Check the even-moment product inequality for a weighted Rademacher sum:

    ((2r+1)/(2r-1)) M_{2r}^2 >= ((2r+2)!/2^{r+1}) e_{r+1}(sigma^2) M_{2r-2},

    with M_{2j} = E (sum sigma_k eps_k)^{2j}.  Requires |sigma| sorted
    nonincreasing; `w` may be Runs.  Returns the ratio LHS/RHS (inf when
    the RHS vanishes).
    """
    if r < 1:
        raise ValueError("r must be at least 1")
    w = run_lengths(w)
    if any(abs(a) < abs(b) for (a, _), (b, _) in zip(w, w[1:])):
        raise ValueError("weights must be sorted by |sigma| nonincreasing")
    m = rademacher_moments(w, 2 * r)
    m2r, m_prev = m[2 * r], m[2 * r - 2]
    lhs = (2.0 * r + 1.0) / (2.0 * r - 1.0) * m2r * m2r
    sq = Runs((s * s, k) for s, k in w)
    er1 = elementary_symmetric(sq, r + 1) if r + 1 <= w.total else 0.0
    rhs = math.factorial(2 * r + 2) / 2 ** (r + 1) * er1 * m_prev
    ratio = math.inf if rhs == 0.0 else lhs / rhs
    return RatioCheckReport(lhs, rhs, ratio, lhs >= rhs * (1.0 - 1e-12))


def logconcave_radius(seq: SequenceSpec, p: float) -> BoundReport:
    """The two-sided log-concave-tail estimate, valid for p >= 2:
    | ||S||_p - gamma_p (sum v_k)^{1/2} | <= p max_k sqrt(v_k).
    Neither side depends on the order of the summands."""
    assumptions = (
        Assumption("p_range", p >= 2.0, f"p={p} >= 2"),
        Assumption("symmetric", seq.all_symmetric, "all summands symmetric"),
        Assumption(
            "log_concave_tails",
            seq.all_log_concave,
            "every family has a logarithmically concave tail",
        ),
    )
    if not all(a.satisfied for a in assumptions):
        return _non_certifying("logconcave_radius", p, assumptions)
    center = gaussian_lp_norm(p) * math.sqrt(seq.total_variance)
    radius = p * math.sqrt(seq.max_variance)
    return BoundReport(
        statement_id="logconcave_radius",
        p=p,
        center=center,
        lower=center - radius,
        upper=center + radius,
        radius=radius,
        assumptions=assumptions,
    )


def latala_logconcave_bounds(
    seq: SequenceSpec,
    p: float,
    *,
    tol: float = 1e-8,
    mc_samples: int = 1_000_000,
    mc_seed: int = 0,
    mc_confidence: float = 0.999,
) -> tuple[BoundReport, BoundReport]:
    """The two log-concave-tail estimates, valid for p >= 2.

    (a) two-sided: logconcave_radius;
    (b) sandwich: max(gamma_p tail, head) <= ||S||_p <= gamma_p tail + head,
        with tail = (sum_{k >= ceil(p/2)} v_k)^{1/2} over the sorted sequence
        and head = ||sum_{k < p} X_k||_p computed exactly for even integer p,
        by quadrature for 2 < p < 4, and by Monte Carlo at ``mc_confidence``
        otherwise (the head's numeric error is carried in the report's error
        budget).  No engine refuses the head at any scale or spread of
        variances; its quadrature budget is ``tol`` times its E|.|^p scale.
        A head whose value or budget overflowed a float (estimate_moment's
        OverflowError) makes the sandwich non-certifying, with a failed
        ``finite_head`` assumption that carries the error's message.
    """
    two_sided = logconcave_radius(seq, p)
    assumptions = two_sided.assumptions
    if not two_sided.certifying:
        return two_sided, _non_certifying("logconcave_sandwich", p, assumptions)
    sorted_seq, _ = seq.sorted()
    # Sandwich: head indices k < p, tail variance from index ceil(p/2) on.
    head_count = min(len(sorted_seq), math.ceil(p) - 1)
    tail_start = _ceil(p / 2.0)
    tail_var = sorted_seq.tail_variance(tail_start - 1)
    constants = {"head_count": head_count, "tail_start": tail_start}
    try:
        head = estimate_moment(
            sorted_seq, p, slice(0, head_count), exact_atoms=False,
            tol=tol, samples=mc_samples, seed=mc_seed, confidence=mc_confidence,
        )
    except OverflowError as exc:
        failed = Assumption("finite_head", False, str(exc))
        return two_sided, _non_certifying(
            "logconcave_sandwich", p, assumptions + (failed,), constants)
    g_tail = gaussian_lp_norm(p) * math.sqrt(tail_var)
    sandwich = BoundReport(
        statement_id="logconcave_sandwich",
        p=p,
        center=two_sided.center,
        lower=max(g_tail, head.norm - head.norm_error),
        upper=g_tail + head.norm + head.norm_error,
        constants=constants,
        assumptions=assumptions,
        error_budget=head.norm_error,
        aux={"head_norm": head.norm, "head_provenance": head.provenance},
    )
    return two_sided, sandwich


@dataclass(frozen=True)
class Statement:
    """A row of STATEMENTS.  cases(ps, rs): the (p, r) at which `bound`
    and `verify` report the statement, by increasing p, from a run's
    sorted p and r values (r is None where the builder takes none).
    build(seq, p, r, **engine): the report there, `engine` being the
    settings of latala_logconcave_bounds' numeric head; rows name their
    builders inside lambdas, so a name is looked up when called.
    scans(p): whether `scan` measures the statement's radius at p."""

    cases: Callable
    build: Callable
    scans: Callable = lambda p: False


# `scan` measures one radius at each p: the even band's at even p >= 4, the
# 2 <= p <= 4 band's on [2, 4), and the log-concave one elsewhere.
_scans_even, _scans_p24 = (lambda p: is_even(p) and p >= 4.0), (lambda p: 2.0 <= p < 4.0)
STATEMENTS = {
    "even_centered_upper": Statement(
        lambda ps, rs: [(2 * r, None) for r in rs],
        lambda seq, p, r, **_: bound_even_centered(seq, int(p) // 2)),
    "even_symmetric_band": Statement(
        lambda ps, rs: [(2 * r, None) for r in rs],
        lambda seq, p, r, **_: bound_even_symmetric(seq, int(p) // 2), _scans_even),
    "logconcave_radius": Statement(
        lambda ps, rs: [(p, None) for p in ps], lambda seq, p, r, **_: logconcave_radius(seq, p),
        lambda p: not (_scans_even(p) or _scans_p24(p))),
    "logconcave_sandwich": Statement(
        lambda ps, rs: [(p, None) for p in ps],
        lambda seq, p, r, **engine: latala_logconcave_bounds(seq, p, **engine)[1]),
    "symmetric_p24_band": Statement(
        lambda ps, rs: [(p, None) for p in ps if 2.0 <= p <= 4.0],
        lambda seq, p, r, **_: bound_p_2_4(seq, p), _scans_p24),
    "truncated_general_p_upper": Statement(
        lambda ps, rs: [(p, r) for p in ps for r in rs if 2.0 <= p <= 2 * r],
        lambda seq, p, r, **_: bound_general_p(seq, p, r)),
}


# -- tail-moment theorem checkers -------------------------------------------


@dataclass(frozen=True)
class TailCheckReport:
    tail_moment: float
    symmetric_function_bound: float
    rademacher_bound: float
    cutoff_index: int
    growth_constant: float
    passed: bool
    applicable: bool = True


def _check_tail_bounds(seq: SequenceSpec, r: int, symmetric: bool) -> TailCheckReport:
    sorted_seq, _ = seq.sorted()
    c, cutoff = _cutoff(sorted_seq, r, r - 1, symmetric)
    if r < 2 or cutoff >= len(sorted_seq):
        return TailCheckReport(math.nan, math.nan, math.nan, cutoff, c, False, False)
    tail = sum_even_moment(sorted_seq.profile_runs(2 * r, slice(cutoff, None)), r)
    esym = math.factorial(2 * r) / 2 ** r * elementary_symmetric(sorted_seq.variance_runs, r)
    rad = sorted_seq.rademacher_even_moment(r)
    slack = 1.0 - 1e-12
    return TailCheckReport(
        tail, esym, rad, cutoff, c, tail <= esym / slack and esym <= rad / slack
    )


def check_symmetric_tail_bounds(seq: SequenceSpec, r: int) -> TailCheckReport:
    """Check, for sorted symmetric summands with growth constant C and
    D = ceil(C^2 (r-1)) < n, that

    E (sum_{k>D} X_k)^{2r} <= (2r)!/2^r e_r(v) <= E (sum sqrt(v_k) eps_k)^{2r}.
    """
    return _check_tail_bounds(seq, r, symmetric=True)


def check_centered_tail_bounds(seq: SequenceSpec, r: int) -> TailCheckReport:
    """Centered analogue with cutoff D = ceil(C^2 r(r-1)/2)."""
    return _check_tail_bounds(seq, r, symmetric=False)
