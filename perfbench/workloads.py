"""Seeded job generator for the three benchmark workloads.

A job is a momentcert JSON configuration (the document the CLI reads).
A batch is a fixed mix of jobs: what sets a job's cost in the seed
program (command, sizes, p and r values, the multiset of families, and
the three-point weight of a scan) is the same in every batch, and the
seed draws the rest: scales, other three-point weights, atom values and
probabilities, segment counts and orders, and Monte Carlo seeds.
Batches of different seeds then cost about the same, so the run-to-run
spread of a timing measures mostly the program and the machine; the
draws' rare quadrature outliers are dropped by taking each slot's
median over a run's batches (see MIN_BATCHES).
"""
from __future__ import annotations

import random

WORKLOADS = ("verify-even-large", "scan-iid", "verify-frac-mixed")

# Fewest batches in an untraced run.  A run reports each job slot's
# median time over its batches, so every slot needs a few runs: three or
# four where a batch is short, two for scan-iid, whose batch takes most of
# a run and whose jobs' cost does not depend on the draw.
MIN_BATCHES = {"verify-even-large": 3, "scan-iid": 2, "verify-frac-mixed": 4}
# Fewest untraced/traced batch pairs in a traced run.  Two keep the first
# batch's warm-up out of the overhead where batches are short.
MIN_TRACED_BATCHES = {"verify-even-large": 2, "scan-iid": 1, "verify-frac-mixed": 2}

FAMILIES = ("gaussian", "rademacher", "symmetric_exponential", "uniform",
            "symmetric_three_point")

# The four jobs of a verify-even-large batch.  The largest stops near 2000
# because the quadratic SequenceSpec.sorted() of the seed makes 10^4 cost
# minutes per job.
# Every bound sorts the sequence again, so each r value adds sorts; the
# two large jobs take one r each to fit three or more batches in a run.
EVEN_LARGE_SLOTS = (  # (n, command, symmetric atoms, r values)
    (250, "verify", False, (2, 3)),
    (500, "bound", True, (2, 3)),
    (1000, "verify", True, (2,)),
    (2000, "verify", False, (3,)),
)

# scan normalizes the sum's variance to 1, so a family's cost depends on n
# alone (and on q for three-point atoms); the adaptive quadrature's cost
# jumps with n, so the n values are fixed.
SCAN_N = (8, 32, 128)
# The three-point weight q sets that job's cost and whether its quadrature
# converges: at the seed, q drawn from [0.15, 0.5] gave 0.9 s to 5.4 s per
# job, converged or not.  The scan job fixes it, in the middle of that range.
SCAN_Q = 0.3

# verify-frac-mixed: (command, n, sequence kind) of the ten jobs of a
# batch.  The sign enumeration of bound_general_p costs 2^(n-1) and the
# quadrature's cost depends on the families, so both are fixed per slot.
FRAC_MIXED_SLOTS = (
    ("verify", 8, "logconcave"), ("verify", 12, "finite"), ("verify", 16, "mixed"),
    ("verify", 20, "logconcave"), ("verify", 22, "finite"), ("verify", 24, "mixed"),
    ("moments", 10, "logconcave"), ("moments", 18, "mixed"),
    ("check-lemmas", 9, "finite"), ("check-lemmas", 15, "logconcave"),
)
# Log-concave mixes; finite-support mixes, whose exact atom convolution
# runs; continuous families with three-point atoms (not log-concave).
FRAC_KINDS = {
    "logconcave": ("gaussian", "rademacher", "symmetric_exponential", "uniform"),
    "finite": ("rademacher", "symmetric_three_point") * 2,
    "mixed": ("gaussian", "symmetric_exponential", "uniform", "symmetric_three_point"),
}
FRAC_P = (2.5, 3.0, 3.5, 5.0)
MC_SAMPLES = 200_000

# Atoms of finite-support families sit on a 1/2 lattice, so the exact
# atom convolution merges coinciding sums and stays small, and its
# merging (momentcert rounds atoms to 1e-10) loses nothing.
_LATTICE = (0.5, 1.0, 1.5)


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{index}")


def _family(rng: random.Random, family: str) -> dict:
    if family in ("rademacher", "symmetric_three_point"):
        scale = rng.choice(_LATTICE)
    else:
        scale = round(rng.uniform(0.5, 2.0), 6)
    if family == "uniform":
        return {"family": "uniform", "a": scale}
    if family == "symmetric_three_point":
        return {"family": family, "b": scale, "q": round(rng.uniform(0.15, 0.5), 6)}
    return {"family": family, "sigma": scale}


def _atoms(rng: random.Random, *, symmetric: bool) -> dict:
    """A centered finite mixture: mirrored atoms, or 3-4 skewed ones."""
    if symmetric:
        a, b = sorted(round(rng.uniform(0.3, 2.0), 6) for _ in range(2))
        w = round(rng.uniform(0.1, 0.4), 6)
        values = [-b, -a, a, b]
        probs = [w, 0.5 - w, 0.5 - w, w]
    else:
        k = rng.choice((3, 4))
        values = [round(rng.uniform(-2.0, 2.0), 6) for _ in range(k)]
        raw = [rng.uniform(0.2, 1.0) for _ in range(k)]
        probs = [x / sum(raw) for x in raw]
        probs[-1] = 1.0 - sum(probs[:-1])
        if max(values) - min(values) < 0.5:
            values[0] -= 1.0
    return {"family": "atoms", "values": values, "probs": probs, "max_order": 12}


def _split(rng: random.Random, n: int, parts: int) -> list[int]:
    """n split into `parts` positive counts of roughly equal size."""
    weights = [rng.uniform(0.7, 1.3) for _ in range(parts)]
    counts = [max(1, int(n * w / sum(weights))) for w in weights]
    counts[-1] += n - sum(counts)
    return counts


def _even_large_job(rng: random.Random, n: int, command: str, symmetric: bool,
                    r_values: tuple) -> dict:
    # Every family twice and two atom mixtures, in equal counts: the seed's
    # sort costs a family-dependent amount per element, so a fixed mix
    # keeps the cost of a size fixed.
    specs = [_family(rng, f) for f in FAMILIES * 2]
    specs += [_atoms(rng, symmetric=symmetric) for _ in range(2)]
    rng.shuffle(specs)
    for k, spec in enumerate(specs):
        spec["count"] = n // len(specs) + (k < n % len(specs))
    return {"command": command, "variables": specs, "p_values": [4.0, 6.0],
            "r_values": list(r_values), "seed": rng.randrange(1 << 30)}


def _scan_job(rng: random.Random, family: str) -> dict:
    spec = _family(rng, family)
    if family == "symmetric_three_point":
        spec["q"] = SCAN_Q
    return {"command": "scan", "variables": [spec],
            "p_values": [3.0, 4.0, 6.0], "n_values": list(SCAN_N),
            "seed": rng.randrange(1 << 30)}


def _frac_job(rng: random.Random, command: str, n: int, kind: str) -> dict:
    specs = [_family(rng, f) for f in FRAC_KINDS[kind]]
    rng.shuffle(specs)
    for spec, count in zip(specs, _split(rng, n, len(specs))):
        spec["count"] = count
    return {"command": command, "variables": specs, "p_values": list(FRAC_P),
            "r_values": [2, 3], "samples": MC_SAMPLES, "seed": rng.randrange(1 << 30)}


def make_batch(workload: str, seed: int, index: int) -> list[dict]:
    """The configurations of batch `index` of `workload` for `seed`.

    Job j of every batch fills the same slot (command, size, families), so
    a run can take each slot's median time over its batches."""
    rng = _rng(workload, seed, index)
    if workload == "verify-even-large":
        return [_even_large_job(rng, *slot) for slot in EVEN_LARGE_SLOTS]
    if workload == "scan-iid":
        return [_scan_job(rng, f) for f in FAMILIES]
    if workload == "verify-frac-mixed":
        return [_frac_job(rng, *slot) for slot in FRAC_MIXED_SLOTS]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
