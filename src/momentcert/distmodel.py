"""Random-variable models: moment sequences, characteristic functions, samplers.

Every implemented family is symmetric about 0.  Asymmetric inputs enter the
library as raw moment sequences, typically built from centered finite
mixtures via :func:`spec_from_atoms`; such specs serve moments only (no
characteristic function, no sampler).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

__all__ = [
    "MomentProfile",
    "VariableSpec",
    "NoCharacteristicFunction",
    "NoSampler",
    "gaussian",
    "rademacher",
    "symmetric_exponential",
    "uniform",
    "symmetric_three_point",
    "from_profile",
    "spec_from_atoms",
    "moments_of",
    "charfn_of",
    "sample",
]

_REL_TOL = 1e-9

LOG_CONCAVE_FAMILIES = frozenset(
    {"gaussian", "rademacher", "symmetric_exponential", "uniform"}
)


class NoCharacteristicFunction(ValueError):
    """The spec has no evaluable characteristic function (raw moments only)."""


class NoSampler(ValueError):
    """The spec cannot produce samples (raw moments only)."""


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

    def truncated(self, max_order: int) -> "MomentProfile":
        if max_order > self.max_order:
            raise ValueError(
                f"profile only holds moments to order {self.max_order}, "
                f"requested {max_order}"
            )
        return MomentProfile(self.moments[: max_order + 1], self.symmetric, self.centered)


@dataclass(frozen=True)
class VariableSpec:
    """One random variable: a distribution family plus its parameters.

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
        if not all(math.isfinite(x) for x in self.params):
            raise ValueError(f"{self.family} parameters must be finite")
        if self.family in ("gaussian", "rademacher", "symmetric_exponential", "uniform"):
            (scale,) = self.params
            if scale <= 0.0:
                raise ValueError(f"{self.family} scale must be positive")
        elif self.family == "symmetric_three_point":
            b, q = self.params
            if b <= 0.0:
                raise ValueError("three-point atom b must be positive")
            if not 0.0 < q <= 0.5:
                raise ValueError("three-point weight q must lie in (0, 1/2]")
        else:
            raise ValueError(f"unknown family {self.family!r}")

    # -- structural flags -------------------------------------------------

    @property
    def symmetric(self) -> bool:
        if self.family == "raw_moments":
            return self.profile.symmetric
        return True

    @property
    def centered(self) -> bool:
        if self.family == "raw_moments":
            return self.profile.centered
        return True

    @property
    def log_concave_tail(self) -> bool:
        return self.family in LOG_CONCAVE_FAMILIES

    @property
    def variance(self) -> float:
        if self.family == "gaussian":
            return self.params[0] ** 2
        if self.family == "rademacher":
            return self.params[0] ** 2
        if self.family == "symmetric_exponential":
            return self.params[0] ** 2
        if self.family == "uniform":
            return self.params[0] ** 2 / 3.0
        if self.family == "symmetric_three_point":
            b, q = self.params
            return 2.0 * q * b * b
        return self.profile.variance

    # -- moments ----------------------------------------------------------

    def _even_moment(self, l: int) -> float:
        """E X^{2l} in closed form for the parametric families."""
        if self.family == "gaussian":
            s = self.params[0]
            return s ** (2 * l) * math.factorial(2 * l) / (2 ** l * math.factorial(l))
        if self.family == "rademacher":
            return self.params[0] ** (2 * l)
        if self.family == "symmetric_exponential":
            s = self.params[0]
            return math.factorial(2 * l) * s ** (2 * l) / 2 ** l
        if self.family == "uniform":
            a = self.params[0]
            return a ** (2 * l) / (2 * l + 1)
        if self.family == "symmetric_three_point":
            if l == 0:
                return 1.0
            b, q = self.params
            return 2.0 * q * b ** (2 * l)
        raise AssertionError(self.family)

    def moments(self, max_order: int) -> MomentProfile:
        if max_order < 2:
            raise ValueError("max_order must be at least 2")
        if self.family == "raw_moments":
            return self.profile.truncated(max_order)
        mu = [0.0] * (max_order + 1)
        for l in range(0, max_order // 2 + 1):
            mu[2 * l] = self._even_moment(l)
        return MomentProfile(tuple(mu), symmetric=True, centered=True)

    # -- characteristic function ------------------------------------------

    def charfn(self, t):
        """phi_X(t) = E cos(tX); real-valued since all families are symmetric."""
        if self.family == "raw_moments":
            raise NoCharacteristicFunction(
                "no characteristic function available for a raw moment profile"
            )
        arr = np.asarray(t, dtype=float)
        if self.family == "gaussian":
            s = self.params[0]
            out = np.exp(-0.5 * (s * arr) ** 2)
        elif self.family == "rademacher":
            out = np.cos(self.params[0] * arr)
        elif self.family == "symmetric_exponential":
            s = self.params[0]
            out = 1.0 / (1.0 + 0.5 * (s * arr) ** 2)
        elif self.family == "uniform":
            a = self.params[0]
            out = np.sinc(a * arr / np.pi)
        else:  # symmetric_three_point
            b, q = self.params
            out = 1.0 - 2.0 * q + 2.0 * q * np.cos(b * arr)
        return float(out) if np.isscalar(t) else out

    # -- sampling ----------------------------------------------------------

    def sample_with(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be at least 1")
        if self.family == "gaussian":
            return rng.normal(0.0, self.params[0], count)
        if self.family == "rademacher":
            return self.params[0] * (2.0 * rng.integers(0, 2, count) - 1.0)
        if self.family == "symmetric_exponential":
            # Laplace scale b gives variance 2 b^2; b = sigma / sqrt(2).
            return rng.laplace(0.0, self.params[0] / math.sqrt(2.0), count)
        if self.family == "uniform":
            a = self.params[0]
            return rng.uniform(-a, a, count)
        if self.family == "symmetric_three_point":
            b, q = self.params
            return rng.choice(
                np.array([-b, 0.0, b]), size=count, p=[q, 1.0 - 2.0 * q, q]
            )
        if self.support is not None:
            values, probs = self.support
            return rng.choice(np.asarray(values), size=count, p=np.asarray(probs))
        raise NoSampler("cannot sample from a raw moment profile")

    # -- finite support ----------------------------------------------------

    def atoms(self) -> tuple[np.ndarray, np.ndarray] | None:
        """(values, probabilities) for finite-support families, else None."""
        if self.family == "rademacher":
            s = self.params[0]
            return np.array([-s, s]), np.array([0.5, 0.5])
        if self.family == "symmetric_three_point":
            b, q = self.params
            return np.array([-b, 0.0, b]), np.array([q, 1.0 - 2.0 * q, q])
        if self.support is not None:
            return np.asarray(self.support[0]), np.asarray(self.support[1])
        return None

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
        if self.family == "symmetric_three_point":
            b, q = self.params
            return symmetric_three_point(b * c, q)
        return VariableSpec(self.family, (self.params[0] * c,))


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


# -- spec-level operations -------------------------------------------------


def moments_of(spec: VariableSpec, max_order: int) -> MomentProfile:
    """Exact moment sequence of the variable up to max_order."""
    return spec.moments(max_order)


def charfn_of(spec: VariableSpec, t):
    """phi_X(t), vectorized over t."""
    return spec.charfn(t)


def sample(spec: VariableSpec, seed: int, count: int) -> np.ndarray:
    """i.i.d. samples, deterministic for a fixed seed."""
    rng = np.random.default_rng(seed)
    return spec.sample_with(rng, count)
