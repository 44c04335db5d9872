"""Random-variable models: moment sequences, characteristic functions, samplers.

Every implemented family is symmetric about 0.  Asymmetric inputs enter the
library as raw moment sequences, typically built from centered finite
mixtures via :func:`spec_from_atoms`; such specs have no characteristic
function, and are drawn only from their atoms.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "MomentProfile",
    "VariableSpec",
    "NoEngine",
    "gaussian",
    "rademacher",
    "symmetric_exponential",
    "uniform",
    "symmetric_three_point",
    "from_profile",
    "spec_from_atoms",
    "sample_runs",
    "sample_suffixes",
    "AliasTable",
    "FAMILIES",
]

_REL_TOL = 1e-9


class NoEngine(ValueError):
    """No engine can evaluate the requested moment of these summands."""


@dataclass(frozen=True)
class MomentProfile:
    """Moments E X^l for l = 0..max_order of a single random variable.

    Construction validates mu_0 = 1, the symmetry/centering zeros, strict
    positivity of even moments, and the Lyapunov chain
    mu_{2a}^{1/(2a)} <= mu_{2b}^{1/(2b)} for a <= b (a necessary condition
    for being a genuine moment sequence).
    """

    moments: tuple[float, ...]
    symmetric: bool = False
    centered: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "moments", tuple(float(m) for m in self.moments))
        mu = self.moments
        if len(mu) < 3:
            raise ValueError("need moments at least up to order 2")
        if not all(math.isfinite(m) for m in mu):
            raise ValueError("moments must be finite")
        if abs(mu[0] - 1.0) > _REL_TOL:
            raise ValueError(f"mu_0 must be 1, got {mu[0]!r}")
        if mu[2] <= 0.0:
            raise ValueError("variance must be positive (degenerate variable rejected)")
        scale = math.sqrt(mu[2])
        if (self.centered or self.symmetric) and abs(mu[1]) > _REL_TOL * max(1.0, scale):
            raise ValueError("centered profile must have mu_1 = 0")
        if self.symmetric:
            for l in range(1, len(mu), 2):
                if abs(mu[l]) > _REL_TOL * max(1.0, scale ** l):
                    raise ValueError(f"symmetric profile must have mu_{l} = 0")
        prev = None
        for l in range(2, len(mu), 2):
            if mu[l] <= 0.0:
                raise ValueError(f"even moment mu_{l} must be positive")
            root = mu[l] ** (1.0 / l)
            if prev is not None and root < prev * (1.0 - 1e-9):
                raise ValueError(
                    f"Lyapunov chain violated at order {l}: "
                    f"{root!r} < {prev!r}"
                )
            prev = root

    @property
    def max_order(self) -> int:
        return len(self.moments) - 1

    @property
    def variance(self) -> float:
        return self.moments[2]

    def moment(self, order: int) -> float:
        return self.moments[order]

    def even_norm(self, p: int) -> float:
        """(E X^p)^{1/p} for even integer p (equals the L^p norm there)."""
        if p < 2 or p % 2 != 0:
            raise ValueError("even_norm requires an even integer p >= 2")
        return self.moments[p] ** (1.0 / p)

    @cached_property
    def active_rows(self) -> dict[int, list[float]]:
        """{1: Y_1}, Y_1 the moments with 0 at orders 0 and 1: the first row
        of the expansion of :func:`exactmoments.moments_of_sum`, which adds
        the rows Y_2, Y_3, ... as a run first needs them."""
        return {1: [0.0, 0.0, *self.moments[2:]]}

    def truncated(self, max_order: int) -> "MomentProfile":
        if max_order > self.max_order:
            raise ValueError(
                f"profile only holds moments to order {self.max_order}, "
                f"requested {max_order}"
            )
        return MomentProfile(self.moments[: max_order + 1], self.symmetric, self.centered)


@dataclass(frozen=True)
class Family:
    """One parametric family, as functions of its parameters q.

    `keys` names the parameters as a CLI configuration spells them; q[0] is
    the scale, so c*X has q[0] multiplied by c.  Each check is a test of q
    and the message raised when it fails.  `even_moment(q, l)` is E X^{2l}.
    `envelope(q, t)` bounds |charfn(q, t)| for t > 0 and does not increase
    with t, so its value at t bounds |phi| on all of [t, inf); it is 1 for
    a law whose phi does not decay.  The sum of k copies of X is drawn n
    at a time from its exact law by exactly one column of the row:
    `atoms(q)`, the finite support, which :func:`sample_runs` draws from;
    `mix_variance(q, rng, n, k)` for a Gaussian scale mixture, n draws of
    V (or one fixed V), the sum being sqrt(V) Z for an independent
    standard normal Z; or `sample_sum(q, rng, n, k)`, in O(n) memory.
    """

    keys: tuple[str, ...]
    checks: tuple[tuple[Callable[[tuple], bool], str], ...]
    log_concave: bool
    variance: Callable[[tuple], float]
    even_moment: Callable[[tuple, int], float]
    charfn: Callable[[tuple, np.ndarray], np.ndarray]
    envelope: Callable[[tuple, np.ndarray], np.ndarray]
    sample_sum: Callable[[tuple, np.random.Generator, int, int], np.ndarray] | None = None
    mix_variance: Callable[..., np.ndarray | float] | None = None
    atoms: Callable[[tuple], tuple[np.ndarray, np.ndarray]] | None = None


def _uniform_sum(q: tuple, rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """a (2 (U_1 + ... + U_k) - k) for k unit uniforms U_i: the sum of k
    uniforms on [-a, a], and rng.uniform(-a, a, n) bit for bit at k = 1.
    The U_i are drawn into one reused buffer and added in place, so the
    memory is two arrays of n at any k."""
    total, buf = rng.random(n), np.empty(n)
    for _ in range(k - 1):
        total += rng.random(out=buf)
    total *= 2.0 * q[0]
    total -= k * q[0]
    return total


def _atom_sum(values: np.ndarray, probs: np.ndarray, rng: np.random.Generator,
              n: int, k: int) -> np.ndarray:
    """n draws of the sum of k copies of the finite law (values, probs).
    The numbers of copies at the atoms are multinomial, drawn by
    conditional binomials: atom j takes Bin(k - copies so far, p_j / mass
    of atoms j on), one vectorized draw per atom at any k, and the last
    takes the rest.  The sum is reduced by einsum, whose loop, unlike
    BLAS, rounds alike on any number of CPUs."""
    keep = probs > 0.0
    values, probs = values[keep], probs[keep]
    rest = np.cumsum(probs[::-1])[::-1]  # the mass of atoms j, j+1, ...
    left = k  # a scalar k draws the variates of np.full(n, k)
    copies = np.empty((len(values), n))
    for j in range(len(values) - 1):
        copies[j] = drawn = rng.binomial(left, probs[j] / rest[j], n)
        left = left - drawn
    copies[-1] = left
    return np.einsum("j,jn->n", values, copies)


_POSITIVE_SCALE = ((lambda q: q[0] > 0.0, "scale must be positive"),)


def _no_decay(q: tuple, t: np.ndarray) -> np.ndarray:
    return np.ones_like(t)


# phi > 0 decreases on t > 0 for these two: each is its own envelope.
def _gaussian_phi(q: tuple, t: np.ndarray) -> np.ndarray:
    return np.exp(-0.5 * (q[0] * t) ** 2)


def _laplace_phi(q: tuple, t: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + 0.5 * (q[0] * t) ** 2)


FAMILIES: dict[str, Family] = {
    "gaussian": Family(
        ("sigma",), _POSITIVE_SCALE, log_concave=True,
        variance=lambda q: q[0] ** 2,
        even_moment=lambda q, l: (
            q[0] ** (2 * l) * math.factorial(2 * l) / (2 ** l * math.factorial(l))
        ),
        charfn=_gaussian_phi,
        envelope=_gaussian_phi,
        mix_variance=lambda q, rng, n, k: q[0] ** 2 * k,
    ),
    "rademacher": Family(
        ("sigma",), _POSITIVE_SCALE, log_concave=True,
        variance=lambda q: q[0] ** 2,
        even_moment=lambda q, l: q[0] ** (2 * l),
        charfn=lambda q, t: np.cos(q[0] * t),
        envelope=_no_decay,
        atoms=lambda q: (np.array([-q[0], q[0]]), np.array([0.5, 0.5])),
    ),
    # Two-sided (Laplace) exponential with variance sigma^2.
    "symmetric_exponential": Family(
        ("sigma",), _POSITIVE_SCALE, log_concave=True,
        variance=lambda q: q[0] ** 2,
        even_moment=lambda q, l: math.factorial(2 * l) * q[0] ** (2 * l) / 2 ** l,
        charfn=_laplace_phi,
        envelope=_laplace_phi,
        # X = sigma sqrt(E) Z with E ~ Exp(1) (Andrews & Mallows 1974); k copies add k E's.
        mix_variance=lambda q, rng, n, k: q[0] ** 2 * rng.standard_gamma(k, n),
    ),
    # Uniform on [-a, a].
    "uniform": Family(
        ("a",), _POSITIVE_SCALE, log_concave=True,
        variance=lambda q: q[0] ** 2 / 3.0,
        even_moment=lambda q, l: q[0] ** (2 * l) / (2 * l + 1),
        charfn=lambda q, t: np.sinc(q[0] * t / np.pi),
        envelope=lambda q, t: 1.0 / np.maximum(1.0, q[0] * t),
        sample_sum=_uniform_sum,
    ),
    # P(X = +-b) = q, P(X = 0) = 1 - 2q.
    "symmetric_three_point": Family(
        ("b", "q"),
        (
            (lambda q: q[0] > 0.0, "atom b must be positive"),
            (lambda q: 0.0 < q[1] <= 0.5, "weight q must lie in (0, 1/2]"),
        ),
        log_concave=False,
        variance=lambda q: 2.0 * q[1] * q[0] * q[0],
        even_moment=lambda q, l: 1.0 if l == 0 else 2.0 * q[1] * q[0] ** (2 * l),
        charfn=lambda q, t: 1.0 - 2.0 * q[1] + 2.0 * q[1] * np.cos(q[0] * t),
        envelope=_no_decay,
        atoms=lambda q: (
            np.array([-q[0], 0.0, q[0]]), np.array([q[1], 1.0 - 2.0 * q[1], q[1]])
        ),
    ),
}


@dataclass(frozen=True)
class VariableSpec:
    """One random variable: a distribution family plus its parameters.

    A parametric family is a row of :data:`FAMILIES`; "raw_moments" is a
    bare moment profile, with atoms when it came from a finite mixture.
    Use the factory helpers (:func:`gaussian`, :func:`rademacher`, ...) rather
    than constructing directly.
    """

    family: str
    params: tuple[float, ...] = ()
    profile: MomentProfile | None = None
    support: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        # Tuples keep specs hashable; sequences group equal specs by hash.
        object.__setattr__(self, "params", tuple(self.params))
        if self.family == "raw_moments":
            if self.profile is None:
                raise ValueError("raw_moments spec requires a MomentProfile")
            if self.support is not None:
                values, probs = map(tuple, self.support)
                if len(values) != len(probs):
                    raise ValueError("support values and probabilities differ in length")
                if not all(math.isfinite(x) for x in values + probs):
                    raise ValueError("support values and probabilities must be finite")
                object.__setattr__(self, "support", (values, probs))
            return
        if self.support is not None:
            raise ValueError("explicit support is only for raw_moments specs")
        row = FAMILIES.get(self.family)
        if row is None:
            raise ValueError(f"unknown family {self.family!r}")
        if len(self.params) != len(row.keys):
            raise ValueError(f"{self.family} takes parameters {row.keys}")
        if not all(math.isfinite(x) for x in self.params):
            raise ValueError(f"{self.family} parameters must be finite")
        for ok, message in row.checks:
            if not ok(self.params):
                raise ValueError(f"{self.family} {message}")
        # A float power raises OverflowError; a float product turns inf.
        try:
            variance = row.variance(self.params)
        except OverflowError:
            variance = math.inf
        if not math.isfinite(variance):
            raise ValueError(f"{self.family} variance overflows a float at {self.params}")

    # -- structural flags -------------------------------------------------

    @property
    def symmetric(self) -> bool:
        return self.family != "raw_moments" or self.profile.symmetric

    @property
    def centered(self) -> bool:
        return self.family != "raw_moments" or self.profile.centered

    @property
    def log_concave_tail(self) -> bool:
        return self.family != "raw_moments" and FAMILIES[self.family].log_concave

    @property
    def variance(self) -> float:
        if self.family == "raw_moments":
            return self.profile.variance
        return FAMILIES[self.family].variance(self.params)

    # -- moments ----------------------------------------------------------

    def moments(self, max_order: int) -> MomentProfile:
        if max_order < 2:
            raise ValueError("max_order must be at least 2")
        if self.family == "raw_moments":
            return self.profile.truncated(max_order)
        even_moment, q = FAMILIES[self.family].even_moment, self.params
        mu = [0.0] * (max_order + 1)
        for l in range(0, max_order // 2 + 1):
            # A float power raises OverflowError; a float product turns inf.
            try:
                mu[2 * l] = even_moment(q, l)
            except OverflowError:
                mu[2 * l] = math.inf
            if math.isinf(mu[2 * l]):
                raise OverflowError(
                    f"{self.family} moment of order {2 * l} overflows a float at {self.params}"
                )
        return MomentProfile(tuple(mu), symmetric=True, centered=True)

    # -- characteristic function ------------------------------------------

    def charfn(self, t):
        """phi_X(t) = E cos(tX); real-valued since all families are symmetric."""
        out = self.phi(np.asarray(t, dtype=float))
        return float(out) if np.isscalar(t) else out

    @property
    def phi(self) -> Callable[[np.ndarray], np.ndarray]:
        """charfn for arrays only: the family's function with this spec's
        parameters bound, as CharFunction.product calls it per point."""
        if self.family == "raw_moments":
            raise NoEngine("no characteristic function available for a raw moment profile")
        return partial(FAMILIES[self.family].charfn, self.params)

    @property
    def envelope(self) -> Callable[[np.ndarray], np.ndarray]:
        """The family's envelope, a bound on |phi| on [t, inf), for arrays
        of t > 0, with this spec's parameters bound."""
        if self.family == "raw_moments":
            raise NoEngine("no characteristic function available for a raw moment profile")
        return partial(FAMILIES[self.family].envelope, self.params)

    # -- sampling ----------------------------------------------------------

    def sample_with(self, rng: np.random.Generator, count: int, k: int = 1) -> np.ndarray:
        """`count` draws of the sum of k independent copies of this variable,
        drawn as :func:`sample_runs` draws the one run (self, k)."""
        if count < 1:
            raise ValueError("count must be at least 1")
        if k < 1:
            raise ValueError("k must be at least 1")
        return sample_runs([(self, k)], rng, count)

    # -- finite support ----------------------------------------------------

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, probabilities) for finite-support families, else None."""
        if self.family == "raw_moments":
            return None if self.support is None else tuple(map(np.asarray, self.support))
        atoms = FAMILIES[self.family].atoms
        return None if atoms is None else atoms(self.params)

    def scaled(self, c: float) -> "VariableSpec":
        """The spec of c*X for c > 0."""
        if c <= 0.0:
            raise ValueError("scale factor must be positive")
        if self.family == "raw_moments":
            mu = tuple(m * c ** l for l, m in enumerate(self.profile.moments))
            support = None
            if self.support is not None:
                support = (tuple(c * v for v in self.support[0]), self.support[1])
            return VariableSpec(
                "raw_moments",
                (),
                MomentProfile(mu, self.profile.symmetric, self.profile.centered),
                support,
            )
        return VariableSpec(self.family, (self.params[0] * c,) + self.params[1:])


class AliasTable:
    """A finite law drawn by Walker's alias method, built by Vose's
    algorithm: column j holds atom j with probability accept[j] and its
    alias otherwise.  A draw takes one uniform U whatever the number n of
    atoms: with u = n U, the column is j = floor(u), and its atom is taken
    iff u - j < accept[j].  u carries 53 bits, of which ceil(log2 n) go to
    j, so the acceptance is resolved to 2^-(53 - ceil(log2 n)), which is
    2^-43 at 1024 atoms.  n U rounds below n for every U < 1, so j needs
    no clamp.  `columns` holds the atoms, then their aliases, so a draw
    is a single gather.  The law is exact up to the rounding of the
    columns' probabilities and of that resolution."""

    def __init__(self, values: np.ndarray, probs: np.ndarray) -> None:
        n, total = len(values), math.fsum(probs)
        scaled = [x * n / total for x in map(float, probs)]
        accept, alias = [1.0] * n, list(range(n))
        small = [j for j, x in enumerate(scaled) if x < 1.0]
        large = [j for j, x in enumerate(scaled) if x >= 1.0]
        while small and large:
            j, big = small.pop(), large[-1]
            accept[j], alias[j] = scaled[j], big
            scaled[big] = (scaled[big] + scaled[j]) - 1.0
            if scaled[big] < 1.0:
                small.append(large.pop())
        # Columns left in either list hold probability 1 up to rounding.
        values = np.array(values, dtype=float)
        self.accept = np.array(accept)
        self.columns = np.concatenate((values, values[alias]))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        n = len(self.accept)
        u = rng.random(count)
        u *= n
        j = u.astype(np.intp)
        u -= j
        return self.columns[j + n * (u >= self.accept[j])]


def sample_runs(runs, rng: np.random.Generator, count: int, *tables: AliasTable) -> np.ndarray:
    """`count` draws of the sum of independent runs (spec, k) of k copies
    each, and of the laws in `tables`, which :func:`oracle.mc_moment`
    folds from the finite-support runs of a sum.  The tables are drawn
    first, in order, then the runs in input order: a spec with atoms by
    :func:`_atom_sum`, any other by its `Family` column; the conditional
    variances of all `mix_variance` runs share one normal draw, last."""
    return sample_suffixes([(tables, runs)], rng, count)[0]


def sample_suffixes(segments, rng: np.random.Generator, count: int) -> list[np.ndarray]:
    """`count` draws of S_i = T_i + ... + T_m for each i, T_i the sum of
    segment i, a (tables, runs) pair that :func:`sample_runs` would draw,
    the segments independent.  Each segment is drawn in turn, tables
    first, as sample_runs draws it, save the normal: the conditional
    variances of the `mix_variance` runs of every segment share one
    standard normal Z, drawn last, and S_i takes sqrt(V_i + ... + V_m) Z.
    Each S_i has its exact law, and the S_i are correlated; a single
    segment gives sample_runs' draws bit for bit."""
    parts = []
    for tables, runs in segments:
        total = tables[0].draw(rng, count) if tables else np.zeros(count)
        for table in tables[1:]:
            total += table.draw(rng, count)
        var = None
        for spec, k in runs:
            atoms = spec.atoms()
            row = FAMILIES.get(spec.family)
            if atoms is not None:
                total += _atom_sum(*atoms, rng, count, k)
            elif row is None:
                raise NoEngine("cannot sample from a raw moment profile")
            elif row.mix_variance is not None:
                v = row.mix_variance(spec.params, rng, count, k)
                var = v if var is None else var + v
            else:
                total += row.sample_sum(spec.params, rng, count, k)
        parts.append((total, var))
    z = None if all(v is None for _, v in parts) else rng.standard_normal(count)
    # From the last segment on, each S_i is formed in place of T_i + ...
    # + T_m once S_{i-1} has read that sum, and each segment's arrays are
    # dropped once read, so a chunk holds few arrays beyond the segments'.
    sums, var = [], None

    def add_normal(x):
        scaled = np.sqrt(var)
        scaled *= z
        x += scaled

    while parts:
        x, v = parts.pop()
        if sums:
            x += sums[-1]
            if var is not None:
                add_normal(sums[-1])
        if v is not None:
            var = v if var is None else v + var
        sums.append(x)
    if var is not None:
        add_normal(sums[-1])
    return sums[::-1]


# -- factories -------------------------------------------------------------


def gaussian(sigma: float) -> VariableSpec:
    return VariableSpec("gaussian", (float(sigma),))


def rademacher(sigma: float) -> VariableSpec:
    return VariableSpec("rademacher", (float(sigma),))


def symmetric_exponential(sigma: float) -> VariableSpec:
    """Two-sided (Laplace) exponential with variance sigma^2."""
    return VariableSpec("symmetric_exponential", (float(sigma),))


def uniform(a: float) -> VariableSpec:
    """Uniform on [-a, a]."""
    return VariableSpec("uniform", (float(a),))


def symmetric_three_point(b: float, q: float) -> VariableSpec:
    """P(X = +-b) = q, P(X = 0) = 1 - 2q.  Kurtosis ratio 1/(2q)."""
    return VariableSpec("symmetric_three_point", (float(b), float(q)))


def from_profile(profile: MomentProfile) -> VariableSpec:
    return VariableSpec("raw_moments", (), profile)


def spec_from_atoms(
    values: Sequence[float],
    probs: Sequence[float],
    max_order: int,
    *,
    center: bool = True,
) -> VariableSpec:
    """Raw-moment spec of a finite mixture, centered by default.

    The symmetry flag is set from the atom set itself (values mirrored with
    matching probabilities), not from vanishing odd moments.
    """
    v = np.asarray(values, dtype=float)
    p = np.asarray(probs, dtype=float)
    if v.shape != p.shape or v.ndim != 1:
        raise ValueError("values and probs must be 1-d of equal length")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(p))):
        raise ValueError("values and probs must be finite")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise ValueError("probs must be nonnegative and sum to 1")
    if center:
        v = v - float(np.dot(v, p))
    mu = tuple(float(np.dot(v ** l, p)) for l in range(max_order + 1))
    pairs = {}
    for vi, pi in zip(np.round(v, 12), p):
        pairs[vi] = pairs.get(vi, 0.0) + pi
    symmetric = all(abs(pairs.get(-vi, 0.0) - pi) < 1e-12 for vi, pi in pairs.items())
    centered = abs(mu[1]) < 1e-12 * max(1.0, math.sqrt(mu[2]))
    return VariableSpec(
        "raw_moments",
        (),
        MomentProfile(mu, symmetric=symmetric, centered=centered),
        (tuple(float(x) for x in v), tuple(float(x) for x in p)),
    )
