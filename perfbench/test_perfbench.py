"""Self-tests of the benchmark: python3 -m pytest perfbench"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import instrument  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from instrument import Span, self_times  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_a_function_of_the_seed(workload):
    assert workloads.make_batch(workload, 7, 0) == workloads.make_batch(workload, 7, 0)
    assert workloads.make_batch(workload, 7, 1) == workloads.make_batch(workload, 7, 1)
    assert workloads.make_batch(workload, 7, 0) != workloads.make_batch(workload, 8, 0)


def test_batch_sizes_do_not_depend_on_the_seed():
    def sizes(seed):
        return sorted((d["command"], sum(v.get("count", 1) for v in d["variables"]))
                      for d in workloads.make_batch("verify-frac-mixed", seed, 0))
    assert sizes(1) == sizes(2)


def test_self_time_of_a_synthetic_span_tree():
    main, pool_a, pool_b = 1, 2, 3
    spans = [
        Span("root", -1, main, 0.0, 10.0, 1, 10.0),
        Span("child", 0, main, 1.0, 4.0, 1, 3.0),
        Span("grandchild", 1, main, 2.0, 3.0, 1, 1.0),
        # five leaf calls merged into one run: 2 s busy between t=4 and t=5.5
        Span("leaf", 0, main, 4.0, 5.5, 5, 2.0),
        # pool threads overlap: [5, 8] and [6, 9] cover 4 s of the root
        Span("pool", 0, pool_a, 5.0, 8.0, 1, 3.0),
        Span("pool", 0, pool_b, 6.0, 9.0, 1, 3.0),
    ]
    got = self_times(spans)
    assert got == pytest.approx([10.0 - 3.0 - 2.0 - 4.0, 2.0, 1.0, 2.0, 3.0, 3.0])


def test_self_times_sum_to_the_root_duration():
    spans = [
        Span("root", -1, 1, 0.0, 6.0, 1, 6.0),
        Span("a", 0, 1, 0.5, 2.5, 1, 2.0),
        Span("b", 1, 1, 1.0, 1.5, 3, 0.25),
        Span("c", 0, 2, 3.0, 4.0, 1, 1.0),
    ]
    assert sum(self_times(spans)) == pytest.approx(6.0)


def test_slot_times_scale_each_job_by_its_host_probe():
    ref = run.PROBE_REF_S
    # (wall, cpu, probe) per job; two slots, three batches
    batches = [
        [(2.0, 2.0, ref), (1.0, 1.0, 2 * ref)],
        [(3.0, 3.0, 1.5 * ref), (0.4, 0.4, ref)],
        [(2.2, 2.2, ref), (0.5, 0.5, ref)],
    ]
    assert run.slot_times(batches, 0) == pytest.approx([2.0, 0.5])
    assert run.slot_times(batches, 0, host=False) == pytest.approx([2.2, 0.5])
    assert run.batch_time(batches, 1) == pytest.approx(2.5)


def test_reference_charfn_engine_matches_closed_forms():
    for p in (2.5, 3.0, 3.5, 5.0):
        gauss = [reference.Var("gaussian", (1.3,))] * 3
        want = reference.gaussian_abs_moment(p) * (3 * 1.3 ** 2) ** (p / 2)
        assert reference.abs_moment(gauss, p) == pytest.approx(want, rel=1e-12)
        laplace = [reference.Var("symmetric_exponential", (0.9,))]
        want = math.gamma(p + 1) * (0.9 / math.sqrt(2)) ** p
        assert reference.abs_moment(laplace, p) == pytest.approx(want, rel=1e-12)


def test_reference_binomial_runs_match_sign_enumeration():
    weights = [1.5, 1.5, 1.0, 0.5, 0.5, 0.5]
    sums = [0.0]
    for w in weights:
        sums = [s + w for s in sums] + [s - w for s in sums]
    want = math.fsum(abs(s) ** 3.5 for s in sums) / len(sums)
    assert reference.rademacher_abs_moment(weights, 3.5) == pytest.approx(want, rel=1e-13)


def _run_job(doc, tmp_path, tracer=False):
    """Runs one job under a Probe (and a Tracer if `tracer`); returns the
    exit status, the document, the budgets and the Tracer or None."""
    from momentcert import cli

    path = tmp_path / "job.json"
    path.write_text(json.dumps(doc))
    probe = instrument.Probe()
    probe.install()
    tr = instrument.Tracer(probe) if tracer else None
    try:
        if tr is not None:
            tr.install()
        try:
            probe.begin_job()
            status, document = cli.run(cli.load_config(str(path)))
        finally:
            if tr is not None:
                tr.uninstall()
    finally:
        probe.uninstall()
    return status, document, probe.budgets, tr


SMALL_VERIFY = {
    "command": "verify",
    "variables": [{"family": "symmetric_exponential", "sigma": 1.0, "count": 6},
                  {"family": "gaussian", "sigma": 0.7, "count": 4}],
    "p_values": [3.0, 4.0], "r_values": [2], "seed": 3, "samples": 20000,
}


def test_reference_accepts_the_program_and_rejects_perturbed_values(tmp_path):
    status, document, budgets, _ = _run_job(SMALL_VERIFY, tmp_path)
    assert reference.check_job(SMALL_VERIFY, status, document, budgets).problems == []

    doc = json.loads(document)
    exact = next(r for r in doc["rows"] if r["statement"] == "even_symmetric_band")
    exact["upper"]["value"] *= 1.0 + 1e-9
    quad = next(r for r in doc["rows"]
                if r.get("certifying") and r.get("ground", {}).get("provenance") == "quadrature")
    quad["ground"]["value"] *= 1.0 + 1e-3
    problems = reference.check_job(SMALL_VERIFY, status, json.dumps(doc), budgets).problems
    assert any("even_symmetric_band(p=4.0).upper" in p for p in problems)
    assert any(".ground" in p and "quadrature" in p for p in problems)


def test_quadrature_miss_is_counted_within_the_gross_limit_and_fails_beyond():
    want, budget = 2.0, 1e-10
    limit = reference.QUADRATURE_GROSS_RTOL * want
    ck = reference.Checker({})
    ck.within("inside", want + 0.5 * budget, want, budget, "quadrature")
    assert ck.problems == [] and ck.over_budget == []
    ck.within("over", want - (budget + 0.5 * limit), want, budget, "quadrature")
    assert ck.problems == [] and [m.split(":")[0] for m in ck.over_budget] == ["over"]
    ck.within("wrong", want + budget + 2.0 * limit, want, budget, "quadrature")
    assert [m.split(":")[0] for m in ck.problems] == ["wrong"]


def test_reference_rejects_a_wrong_verdict_and_exit_code(tmp_path):
    status, document, budgets, _ = _run_job(SMALL_VERIFY, tmp_path)
    doc = json.loads(document)
    row = next(r for r in doc["rows"] if r.get("verdict") == "PASS")
    row["verdict"] = "FAIL"
    problems = reference.check_job(SMALL_VERIFY, 1, json.dumps(doc), budgets).problems
    assert any(p.endswith(".verdict: got 'FAIL', reference 'PASS'") for p in problems)
    assert any(p.startswith("exit_status") for p in problems)


def test_tracer_links_spans_and_restores_the_program(tmp_path):
    from momentcert import cli, oracle
    from momentcert.distmodel import VariableSpec

    from momentcert.charfn import CharFunction

    def bindings():
        return (cli.run, cli.mc_moment, oracle.mc_moment, VariableSpec.__dict__["moments"],
                CharFunction.__dict__["product"])

    before = bindings()
    _, _, _, tracer = _run_job(SMALL_VERIFY, tmp_path, tracer=True)
    assert bindings() == before
    names = {s.name for s in tracer.spans}
    assert {"cli.run", "bounds.sorted", "bounds.report", "charfn.haagerup_moment",
            "exactmoments.sum_even_moment", "distmodel.moments", "distmodel.charfn"} <= names
    charfn_spans = [s for s in tracer.spans if s.name == "distmodel.charfn"]
    assert all(tracer.spans[s.parent].name == "charfn.haagerup_moment" for s in charfn_spans)
    # Quadrature results reach the Tracer through the Probe's one wrapper.
    c = tracer.counters
    assert c["charfn.haagerup_moment.evaluations"] > 0
    assert c["charfn.haagerup_moment.factor_evals"] >= c["distmodel.charfn.calls"] > 0
    assert c["distmodel.charfn.points"] >= c["distmodel.charfn.calls"]
    roots = [s for s in tracer.spans if s.parent < 0]
    assert [s.name for s in roots] == ["cli.run"]
    totals = tracer.layer_totals()
    assert sum(secs for _, secs in totals.values()) == pytest.approx(roots[0].busy)
