"""Acceptance gate: end-to-end checks of the exact engines, the quadrature
goldens, the theorem checkers, certification soundness, the worked instance,
the moment-ratio trend, and the Gaussian-approach scan.

Each test prints a single PASS/FAIL summary line (visible with -s, or in the
captured output on failure) and enforces a wall-clock budget.
"""
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    enum_sum_even_moment_centered,
    enum_sum_even_moment_symmetric,
    profiles,
    random_centered_atom_spec,
    random_logconcave_spec,
    random_symmetric_seq,
    random_symmetric_spec,
)
from momentcert import (
    CharFunction,
    SequenceSpec,
    bound_even_centered,
    bound_even_symmetric,
    bound_general_p,
    bound_p_2_4,
    check_centered_tail_bounds,
    check_cosine_bounds,
    check_main_charfn_inequality,
    check_rademacher_moment_ratio,
    check_symmetric_tail_bounds,
    exact_discrete_moment,
    gaussian,
    haagerup_moment,
    latala_logconcave_bounds,
    rademacher,
    sum_even_moment,
    symmetric_exponential,
    verify_report,
)
from momentcert.cli import EXIT_OK, RunConfig, run
from momentcert.combinatorics import (
    count_no_singleton_compositions,
    count_support_compositions,
    enumerate_indices,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_exact_engine_agreement():
    """sum_even_moment vs independent multi-index enumeration, 200 configs."""
    start = time.monotonic()
    rng = np.random.default_rng(100)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 9))
        r = int(rng.integers(1, 5))
        if rng.integers(0, 2):
            seq = random_symmetric_seq(rng, n, min_q=0.1)
            profiles = [v.moments(2 * r) for v in seq.variables]
            brute = enum_sum_even_moment_symmetric(profiles, r)
        else:
            profiles = [random_centered_atom_spec(rng, 2 * r).profile for _ in range(n)]
            brute = enum_sum_even_moment_centered(profiles, r)
        got = sum_even_moment(profiles, r)
        worst = max(worst, abs(got - brute) / abs(brute))
        checked += 1
    elapsed = time.monotonic() - start
    ok = worst <= 1e-10 and elapsed < 60.0
    report(
        "exact_engine_agreement", ok,
        f"{checked} configs, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-10
    assert elapsed < 60.0


def test_quadrature_golden_values():
    """E|G|^3 = 2 sqrt(2/pi) and Laplace E|X|^3 = 3/sqrt(2) within 1e-6."""
    golden_g = 2.0 * math.sqrt(2.0 / math.pi)
    start = time.monotonic()
    res_g = haagerup_moment(CharFunction.product([gaussian(1.0)]), 3.0)
    t_g = time.monotonic() - start
    start = time.monotonic()
    res_l = haagerup_moment(CharFunction.product([symmetric_exponential(1.0)]), 3.0)
    t_l = time.monotonic() - start
    golden_l = 3.0 / math.sqrt(2.0)
    err_g = abs(res_g.value - golden_g)
    err_l = abs(res_l.value - golden_l)
    ok = err_g <= 1e-6 and err_l <= 1e-6 and t_g < 1.0 and t_l < 1.0
    report(
        "quadrature_golden_values", ok,
        f"gaussian err {err_g:.2e} ({t_g:.3f}s), laplace err {err_l:.2e} ({t_l:.3f}s)",
    )
    assert err_g <= 1e-6 and t_g < 1.0
    assert err_l <= 1e-6 and t_l < 1.0


def test_theorem_checkers_zero_violations():
    """Every grid/ratio/tail checker and both counting identities: >= 1000
    randomized configurations each, zero violations, < 5 min total."""
    start = time.monotonic()
    rng = np.random.default_rng(101)
    counts = {k: 0 for k in (
        "cosine", "charfn", "sym_tail", "cen_tail", "ratio", "count_a", "count_b",
    )}
    violations = []
    small_grid = np.concatenate(
        [np.linspace(0.0, 50.0, 2000), np.logspace(-4, 0, 200)]
    )

    while counts["cosine"] < 1000:
        spec = random_symmetric_spec(rng)
        rep = check_cosine_bounds(spec, small_grid)
        counts["cosine"] += 1
        if not rep.passed:
            violations.append(("cosine", spec.family))

    while counts["charfn"] < 1000:
        n = int(rng.integers(2, 13))
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
        rep = check_main_charfn_inequality(x, y, m, small_grid)
        if not rep.applicable:
            continue
        counts["charfn"] += 1
        if not rep.passed:
            violations.append(("charfn", rep.margins))

    while counts["sym_tail"] < 1000:
        n = int(rng.integers(3, 13))
        r = int(rng.integers(2, 6))
        seq = random_symmetric_seq(rng, n, min_q=0.15)
        rep = check_symmetric_tail_bounds(seq, r)
        if not rep.applicable:
            continue
        counts["sym_tail"] += 1
        if not rep.passed:
            violations.append(("sym_tail", (n, r)))

    while counts["cen_tail"] < 1000:
        n = int(rng.integers(3, 13))
        r = int(rng.integers(2, 5))
        seq = SequenceSpec(tuple(random_centered_atom_spec(rng) for _ in range(n)))
        rep = check_centered_tail_bounds(seq, r)
        if not rep.applicable:
            continue
        counts["cen_tail"] += 1
        if not rep.passed:
            violations.append(("cen_tail", (n, r)))

    while counts["ratio"] < 1000:
        n = int(rng.integers(1, 13))
        r = int(rng.integers(1, 6))
        sig = np.sort(rng.uniform(0.2, 2.0, n))[::-1]
        rep = check_rademacher_moment_ratio(tuple(sig), r)
        counts["ratio"] += 1
        if not rep.passed:
            violations.append(("ratio", (n, r)))

    while counts["count_a"] < 1000 or counts["count_b"] < 1000:
        n = int(rng.integers(2, 13))
        r = int(rng.integers(1, 6))
        i = int(rng.integers(1, min(r, n) + 1))
        support = set(rng.choice(np.arange(1, n + 1), size=i, replace=False).tolist())
        got_a = sum(1 for _ in enumerate_indices(n, r, support=support))
        counts["count_a"] += 1
        if got_a != count_support_compositions(r, i):
            violations.append(("count_a", (n, r, i)))
        got_b = sum(
            1 for _ in enumerate_indices(n, 2 * r, support=support, no_singletons=True)
        )
        counts["count_b"] += 1
        if got_b != count_no_singleton_compositions(r, i):
            violations.append(("count_b", (n, r, i)))

    elapsed = time.monotonic() - start
    ok = not violations and elapsed < 300.0
    report(
        "theorem_checkers", ok,
        f"{sum(counts.values())} configs across {len(counts)} checkers, "
        f"{len(violations)} violations, {elapsed:.1f}s",
    )
    assert not violations, violations[:5]
    assert elapsed < 300.0


def test_certification_soundness():
    """>= 500 randomized sequences: every certifying report contains the
    oracle ground truth; zero FAILs; < 15 min."""
    start = time.monotonic()
    rng = np.random.default_rng(102)
    sequences = 0
    reports_checked = 0
    fails = []
    while sequences < 500:
        mode = int(rng.integers(0, 4))
        n = int(rng.integers(2, 9))
        if mode == 0:
            # symmetric families, even-moment statements with exact grounds
            seq = random_symmetric_seq(rng, n, min_q=0.1)
            r = int(rng.integers(2, 5))
            candidates = [
                bound_even_symmetric(seq, r),
                bound_even_centered(seq, r),
                bound_p_2_4(seq, float(2 * min(r, 2))),
            ]
            exact = sum_even_moment(profiles(seq, 2 * r), r) ** (1.0 / (2 * r))
            grounds = [
                exact,
                exact,
                sum_even_moment(profiles(seq, 2 * min(r, 2)), min(r, 2))
                ** (1.0 / (2 * min(r, 2))),
            ]
        elif mode == 1:
            # fractional p with quadrature ground
            seq = random_symmetric_seq(rng, n, min_q=0.1)
            p = float(rng.uniform(2.05, 3.95))
            res = haagerup_moment(CharFunction.product(list(seq.variables)), p, tol=1e-9)
            candidates = [bound_p_2_4(seq, p)]
            grounds = [res.value ** (1.0 / p)]
        elif mode == 2:
            # log-concave families, the radius and sandwich statements
            seq = SequenceSpec(tuple(random_logconcave_spec(rng) for _ in range(n)))
            r = int(rng.integers(1, 4))
            exact = sum_even_moment(profiles(seq, 2 * r), r) ** (1.0 / (2 * r))
            two_sided, sandwich = latala_logconcave_bounds(seq, float(2 * r))
            candidates = [two_sided, sandwich]
            grounds = [exact, exact]
        else:
            # truncated raw-moment statement, discrete-convolution ground
            sig = rng.uniform(0.3, 1.5, n)
            seq = SequenceSpec(tuple(rademacher(float(s)) for s in sig))
            p = float(rng.uniform(2.0, 4.0))
            rep = bound_general_p(seq, p, 2)
            candidates = [rep]
            if rep.certifying:
                srt, _ = seq.sorted()
                grounds = [
                    exact_discrete_moment(list(srt.variables[rep.start_index - 1 :]), p)
                ]
            else:
                grounds = [None]
        sequences += 1
        for rep, ground in zip(candidates, grounds):
            if not rep.certifying:
                continue
            verdict = verify_report(rep, ground)
            reports_checked += 1
            if not verdict.passed:
                fails.append((rep.statement_id, verdict.detail))
    elapsed = time.monotonic() - start
    ok = not fails and elapsed < 900.0
    report(
        "certification_soundness", ok,
        f"{sequences} sequences, {reports_checked} certifying reports, "
        f"{len(fails)} FAILs, {elapsed:.1f}s",
    )
    assert not fails, fails[:5]
    assert elapsed < 900.0


def test_worked_instance():
    """10 i.i.d. unit-variance two-sided exponentials, fourth moment."""
    seq = SequenceSpec((symmetric_exponential(1.0),) * 10)
    rep = bound_even_symmetric(seq, 2)
    exact = sum_even_moment(profiles(seq, 4), 2) ** 0.25
    two_sided, _ = latala_logconcave_bounds(seq, 4.0)
    deviation = abs(exact - two_sided.center)
    checks = {
        "lower": (rep.lower, 3.9482),
        "exact": (exact, 330.0 ** 0.25),
        "upper": (rep.upper, 6.1620),
        "deviation": (deviation, 0.1005),
    }
    ok = all(abs(got - want) <= 1e-3 for got, want in checks.values())
    ok = ok and deviation <= two_sided.radius and two_sided.radius == pytest.approx(4.0)
    report(
        "worked_instance", ok,
        ", ".join(f"{k}={got:.4f} (want {want:.4f})" for k, (got, want) in checks.items())
        + f", radius={two_sided.radius:.1f}",
    )
    for name, (got, want) in checks.items():
        assert abs(got - want) <= 1e-3, name
    assert deviation <= two_sided.radius


def test_moment_ratio_trend():
    """The even-moment ratio stays >= 1 and strictly decreases as the
    sequence spreads over more equal weights."""
    start = time.monotonic()
    ratios = []
    for n in (4, 16, 64, 256):
        w = (1.0 / math.sqrt(n),) * n
        rep = check_rademacher_moment_ratio(w, 2)
        ratios.append(rep.ratio)
    elapsed = time.monotonic() - start
    ok = (
        all(x >= 1.0 for x in ratios)
        and all(a > b for a, b in zip(ratios, ratios[1:]))
        and elapsed < 1.0
    )
    report(
        "moment_ratio_trend", ok,
        "ratios " + ", ".join(f"{x:.4f}" for x in ratios) + f", {elapsed:.2f}s",
    )
    assert all(x >= 1.0 for x in ratios)
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert elapsed < 1.0


def test_gaussian_approach_scan():
    """i.i.d. total-variance-1 Laplace inputs, p = 4: certified radius is
    exactly 2/sqrt(n) and the measured deviation sits below it."""
    start = time.monotonic()
    cfg = RunConfig(
        command="scan",
        variables=[symmetric_exponential(1.0)],
        p_values=[4.0],
        n_values=[4, 16, 64, 256],
    )
    status, document = run(cfg)
    rows = json.loads(document)["rows"]
    elapsed = time.monotonic() - start
    rel_errs = [
        abs(row["radius"]["value"] - 2.0 / math.sqrt(row["n"])) * math.sqrt(row["n"]) / 2.0
        for row in rows
    ]
    ok = (
        status == EXIT_OK
        and len(rows) == 4
        and max(rel_errs) <= 1e-12
        and all(row["within_radius"] for row in rows)
        and all(row["deviation"]["value"] < row["radius"]["value"] for row in rows)
        and elapsed < 10.0
    )
    report(
        "gaussian_approach_scan", ok,
        f"radius rel err {max(rel_errs):.1e}, deviations "
        + ", ".join(f"{row['deviation']['value']:.4f}" for row in rows)
        + f", {elapsed:.1f}s",
    )
    assert status == EXIT_OK
    assert max(rel_errs) <= 1e-12
    for row in rows:
        assert row["deviation"]["value"] < row["radius"]["value"]
    assert elapsed < 10.0
