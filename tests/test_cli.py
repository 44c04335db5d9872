import json
import math
import re
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls
from momentcert.cli import (
    EXIT_CONFIG,
    EXIT_FAIL,
    EXIT_OK,
    ConfigError,
    RunConfig,
    load_config,
    main,
    run,
)
from momentcert.cli import _json as cli_json
from momentcert import SequenceSpec, distmodel, estimate_moment, exactmoments, oracle
from momentcert.distmodel import (
    gaussian,
    rademacher,
    spec_from_atoms,
    symmetric_exponential,
    symmetric_three_point,
    uniform,
)
from momentcert.oracle import Estimate, SupportExplosion


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


LAPLACE_TEN = [{"family": "symmetric_exponential", "sigma": 1.0, "count": 10}]


class TestLoadConfig:
    def test_basic(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": LAPLACE_TEN, "r_values": [2]},
        )
        cfg = load_config(path)
        assert cfg.command == "bound"
        assert len(cfg.variables) == 10
        assert cfg.r_values == [2]

    def test_cli_overrides(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": LAPLACE_TEN, "r_values": [2], "seed": 1},
        )
        cfg = load_config(path, seed=42, output_format="csv")
        assert cfg.seed == 42
        assert cfg.output_format == "csv"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(str(tmp_path / "nope.json"))

    def test_bad_command(self, tmp_path):
        path = write_config(tmp_path, {"command": "frobnicate", "variables": LAPLACE_TEN})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_missing_parameter(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": [{"family": "gaussian"}], "r_values": [2]},
        )
        with pytest.raises(ConfigError, match="missing parameter"):
            load_config(path)

    @pytest.mark.parametrize(
        "variable, want",
        [
            ({"family": "gaussian", "sigma": 1.3}, gaussian(1.3)),
            ({"family": "rademacher", "sigma": 1.3}, rademacher(1.3)),
            ({"family": "symmetric_exponential", "sigma": 1.3}, symmetric_exponential(1.3)),
            ({"family": "uniform", "a": 1.3}, uniform(1.3)),
            ({"family": "symmetric_three_point", "b": 1.3, "q": 0.2},
             symmetric_three_point(1.3, 0.2)),
            ({"family": "uniform", "a": 2}, uniform(2.0)),
        ],
        ids=["gaussian", "rademacher", "symmetric_exponential", "uniform",
             "symmetric_three_point", "integer-scale"],
    )
    def test_family_built_from_its_keys(self, tmp_path, variable, want):
        path = write_config(
            tmp_path, {"command": "bound", "variables": [variable], "r_values": [2]}
        )
        (spec,) = load_config(path).variables
        assert spec == want and all(type(x) is float for x in spec.params)

    def test_needs_orders(self, tmp_path):
        path = write_config(tmp_path, {"command": "bound", "variables": LAPLACE_TEN})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_atom_and_raw_families(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "bound",
                "variables": [
                    {"family": "atoms", "values": [0.0, 1.0], "probs": [0.5, 0.5],
                     "max_order": 6},
                    {"family": "raw_moments", "moments": [1.0, 0.0, 1.0, 0.0, 3.0],
                     "symmetric": True, "centered": True},
                ],
                "r_values": [2],
            },
        )
        cfg = load_config(path)
        assert [v.family for v in cfg.variables] == ["raw_moments", "raw_moments"]
        assert cfg.variables[0].support is not None


class TestBoundCommand:
    def test_worked_instance(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": LAPLACE_TEN, "p_values": [4.0],
             "r_values": [2]},
        )
        cfg = load_config(path)
        status, document = run(cfg)
        assert status == EXIT_OK
        doc = json.loads(document)
        assert doc["schema_version"] == 1
        by_stmt = {}
        for row in doc["rows"]:
            by_stmt.setdefault(row["statement"], []).append(row)
        band = by_stmt["even_symmetric_band"][0]
        assert band["certifying"]
        assert band["lower"]["value"] == pytest.approx(3.9482, abs=1e-3)
        assert band["upper"]["value"] == pytest.approx(6.1618, abs=1e-3)
        radius = by_stmt["logconcave_radius"][0]
        assert radius["radius"]["value"] == pytest.approx(4.0)

    def test_non_certifying_rows_reported(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "bound",
                "variables": [{"family": "symmetric_three_point", "b": 1.0,
                               "q": 0.01, "count": 4}],
                "r_values": [3],
            },
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        skipped = [r for r in rows if not r["certifying"]]
        assert skipped and all("failed" in r for r in skipped)

    def test_sign_law_built_once_per_sequence(self, tmp_path, monkeypatch):
        # 26 incommensurate weights sqrt(q), q prime, pass the grid budget,
        # here lowered to 2^16: every truncated case reads the one refusal.
        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 16)
        calls = count_calls(monkeypatch, exactmoments, "_sum_law")
        primes = [q for q in range(2, 102) if all(q % d for d in range(2, q))]
        variables = [{"family": "rademacher", "sigma": math.sqrt(q)} for q in primes]

        def bound(ps, rs):
            calls.clear()
            doc = {"command": "bound", "variables": variables, "p_values": ps, "r_values": rs}
            status, document = run(load_config(write_config(tmp_path, doc)))
            assert status == EXIT_OK
            rows = json.loads(document)["rows"]
            return len(calls), [r for r in rows if r["statement"] == "truncated_general_p_upper"]

        single, _ = bound([3], [2])
        count, rows = bound([2.5, 3, 3.5, 5], [2, 3])
        assert len(primes) == 26 and count == single > 0
        assert [row["p"] for row in rows] == [2.5, 2.5, 3, 3, 3.5, 3.5, 5]
        for row in rows:
            assert row["failed"] == ["enumeration_cap"]
            assert re.fullmatch(r"a grid of \d+ points exceeds 65536", row["assumptions"][-1]["detail"])

    def test_statement_cases_pinned(self, tmp_path):
        # Each row of bounds.STATEMENTS reports at its own (p, r) cases, and
        # the rows come sorted by (statement, p), r breaking ties.
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": LAPLACE_TEN, "samples": 10000,
             "p_values": [6, 1.5, 2, 2.5, 3, 4, 4.5, 5], "r_values": [3, 1, 2]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        every_p = [1.5, 2, 2.5, 3, 4, 4.5, 5, 6]
        expected = (
            [("even_centered_upper", p) for p in (2, 4, 6)]
            + [("even_symmetric_band", p) for p in (2, 4, 6)]
            + [("logconcave_radius", p) for p in every_p]
            + [("logconcave_sandwich", p) for p in every_p]
            + [("symmetric_p24_band", p) for p in (2, 2.5, 3, 4)]
            + [("truncated_general_p_upper", p)  # r = 1, 2, 3 at p = 2; r >= p/2 above
               for p in (2, 2, 2, 2.5, 2.5, 3, 3, 4, 4, 4.5, 5, 6)]
        )
        rows = json.loads(document)["rows"]
        assert [(row["statement"], row["p"]) for row in rows] == expected
        general = [row["assumptions"][0]["detail"] for row in rows
                   if row["statement"] == "truncated_general_p_upper"]
        assert general[:3] == [f"2 <= p=2.0 <= 2r={2 * r}" for r in (1, 2, 3)]


class TestMomentsCommand:
    def test_even_exact(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "moments", "variables": LAPLACE_TEN, "p_values": [4.0]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        row = json.loads(document)["rows"][0]
        assert row["lp_norm"]["provenance"] == "exact"
        assert row["lp_norm"]["value"] == pytest.approx(330.0 ** 0.25)

    def test_fractional_quadrature(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "moments", "variables": LAPLACE_TEN, "p_values": [3.0]},
        )
        _, document = run(load_config(path))
        row = json.loads(document)["rows"][0]
        assert row["lp_norm"]["provenance"] == "quadrature"
        assert row["lp_norm"]["error"] < 1e-6

    def test_small_scale_gaussian_sum(self, tmp_path):
        """A sum of variance 3e-6: the quadrature budget is relative, so each
        norm holds the exact gamma_p sqrt(3e-6) within a budget of its size."""
        path = write_config(
            tmp_path,
            {"command": "moments", "variables": [
                {"family": "gaussian", "sigma": 1e-3, "count": 3}],
             "p_values": [2.5, 3.0, 3.5]},
        )
        out = tmp_path / "report.json"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert [row["p"] for row in rows] == [2.5, 3.0, 3.5]
        for row in rows:
            norm, exact = row["lp_norm"], row["gaussian_center"]["value"]
            assert norm["provenance"] == "quadrature"
            assert abs(norm["value"] - exact) <= norm["error"] <= 1e-8 * exact


class TestVerifyCommand:
    def test_all_pass(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [3.0, 4.0],
             "r_values": [2], "samples": 100000},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        verdicts = {row["verdict"] for row in rows}
        assert "PASS" in verdicts and "FAIL" not in verdicts

    def test_tiny_uniform_sum_passes(self, tmp_path):
        """Four uniforms on [-a, a] with a = 2.1886e-6: the quadrature
        grounds stay positive and every row PASSes."""
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": [
                {"family": "uniform", "a": 2.1886e-6, "count": 4}],
             "p_values": [2.5], "r_values": [3]},
        )
        out = tmp_path / "report.json"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        rows = json.loads(out.read_text())["rows"]
        assert rows and all(row["verdict"] == "PASS" for row in rows)

    def test_corrupted_engine_yields_fail(self, tmp_path, monkeypatch):
        """End-to-end self-test: sabotage a bound and expect exit code 1."""
        import momentcert.bounds as bounds_mod
        from momentcert.bounds import bound_even_symmetric as real

        def sabotaged(seq, r):
            import dataclasses

            rep = real(seq, r)
            if not rep.certifying:
                return rep
            return dataclasses.replace(
                rep, upper=rep.lower + 1e-9, radius=None, center=rep.lower
            )

        monkeypatch.setattr(bounds_mod, "bound_even_symmetric", sabotaged)
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [],
             "r_values": [2]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_FAIL
        rows = json.loads(document)["rows"]
        assert any(r["verdict"] == "FAIL" for r in rows)


class TestGroundsComputedOncePerJob:
    """verify computes each (p, start_index) ground truth once per job."""

    @pytest.mark.parametrize("p, r, engine, provenance, tail", [
        (3.0, 2, (oracle, "haagerup_moment"), "quadrature", 2),
        (4.0, 2, (oracle, "sum_even_moment"), "exact", 3),
        (5.0, 3, (oracle, "_moment_sums"), "mc", 3),
    ], ids=["quadrature", "exact", "mc"])
    def test_one_engine_run_per_distinct_ground(self, tmp_path, monkeypatch, p, r, engine,
                                                provenance, tail):
        oracle._pass_sums.cache_clear()
        calls = count_calls(monkeypatch, *engine)
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [p],
             "r_values": [r], "samples": 20000},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        grounds = {(r["start_index"], r["p"]) for r in rows
                   if r["ground"]["provenance"] == provenance}
        (sandwich,) = [r for r in rows if r["statement"] == "logconcave_sandwich"]
        assert sandwich["upper"]["provenance"] == provenance
        assert grounds == {(1, p), (tail, p)}
        assert len(rows) > len(grounds)
        if provenance != "mc":
            assert len(calls) == len(grounds) + 1  # and the sandwich head

            # The table lives no longer than the job: a rerun computes again.
            assert run(load_config(path)) == (status, document)
            assert len(calls) == 2 * (len(grounds) + 1)
            return
        # Monte Carlo draws both grounds in one pass, and the head alone.
        assert len(calls) == 1 + 1
        assert sorted(len(segments) for segments, *_ in calls) == [1, 2]
        # The pass keeps its sums, so a rerun draws the head alone.
        assert run(load_config(path)) == (status, document)
        assert len(calls) == 2 + 1

    @pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 5.0])
    def test_shared_ground_is_each_reports_own(self, tmp_path, p):
        from momentcert.cli import _estimate_tag

        variables = [{"family": "symmetric_exponential", "sigma": 1.0, "count": 4},
                     {"family": "rademacher", "sigma": 0.5, "count": 3}]
        cfg = load_config(write_config(
            tmp_path,
            {"command": "verify", "variables": variables, "p_values": [p],
             "r_values": [2, 3], "samples": 20000},
        ))
        _, document = run(cfg)
        ordered = SequenceSpec(tuple(cfg.variables)).sorted()
        grounds = [r for r in json.loads(document)["rows"] if "ground" in r]
        assert len(grounds) > len({(r["p"], r["start_index"]) for r in grounds})
        # Monte Carlo draws every start of one p in one pass.
        starts = tuple(sorted({r["start_index"] - 1 for r in grounds}))
        for row in grounds:
            alone = estimate_moment(
                ordered, row["p"], slice(row["start_index"] - 1, None), exact_atoms=True,
                tol=cfg.tol, samples=cfg.samples, seed=cfg.seed, confidence=cfg.confidence,
                starts=starts,
            )
            assert row["ground"] in (_estimate_tag(alone, True), _estimate_tag(alone, False))

    def test_refused_ground_runs_its_engine_once(self, tmp_path, monkeypatch):
        from momentcert import exactmoments

        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        calls = count_calls(monkeypatch, oracle, "_atom_abs_moment")
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                  43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]
        path = write_config(
            tmp_path,
            {"command": "verify", "p_values": [3.0], "r_values": [2],
             "variables": [{"family": "rademacher", "sigma": q ** 0.5} for q in primes]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_CONFIG
        unverified = [r for r in json.loads(document)["rows"] if r["verdict"] == "UNVERIFIED"]
        assert {r["statement"] for r in unverified} == {
            "symmetric_p24_band", "logconcave_radius", "logconcave_sandwich"}
        assert len({r["detail"] for r in unverified}) == 1
        assert "exceeds 4096" in unverified[0]["detail"]
        assert len(calls) == 1


class TestCheckLemmasCommand:
    def test_all_pass(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "check-lemmas", "variables": LAPLACE_TEN, "r_values": [2, 3]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        names = {row["check"] for row in rows}
        assert {"cosine_bounds", "counting_identities", "rademacher_moment_ratio"} <= names
        assert all(row["passed"] for row in rows)

    def test_failed_check_exits_one(self, tmp_path, monkeypatch):
        import momentcert.cli as cli_mod
        from momentcert.charfn import GridCheckReport

        monkeypatch.setattr(cli_mod, "check_cosine_bounds",
                            lambda spec: GridCheckReport(False, {"lower": -1.0, "upper": 0.0}))
        path = write_config(
            tmp_path,
            {"command": "check-lemmas", "variables": LAPLACE_TEN, "r_values": [2]},
        )
        status, document = run(load_config(path))
        assert status == EXIT_FAIL
        rows = json.loads(document)["rows"]
        assert [row["passed"] for row in rows if row["check"] == "cosine_bounds"] == [False]
        assert all(row["passed"] for row in rows if row["check"] != "cosine_bounds")
        assert main(["--config", path]) == EXIT_FAIL

    def test_main_inequality_holds_on_many_summands(self, tmp_path):
        """30 000 summands: both sides of the char-fn inequality are
        products of about n factors, whose rounding passes any fixed
        slack; the check charges it and passes."""
        variables = [{"family": "gaussian", "sigma": 1.0, "count": 12_000},
                     {"family": "symmetric_exponential", "sigma": 0.6, "count": 9_000},
                     {"family": "uniform", "a": 1.2, "count": 9_000}]
        path = write_config(
            tmp_path, {"command": "check-lemmas", "variables": variables, "r_values": [2, 3]})
        status, document = run(load_config(path))
        rows = json.loads(document)["rows"]
        [charfn] = [row for row in rows if row["check"] == "charfn_inequality"]
        assert charfn["applicable"] and charfn["passed"]
        assert status == EXIT_OK


class TestScanCommand:
    def test_radius_scaling(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "command": "scan",
                "variables": [{"family": "symmetric_exponential", "sigma": 1.0}],
                "p_values": [4.0],
                "n_values": [4, 16, 64],
            },
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        assert [row["n"] for row in rows] == [4, 16, 64]
        for row in rows:
            assert row["within_radius"]
            assert row["radius"]["value"] == pytest.approx(2.0 / row["n"] ** 0.5)
        deviations = [row["deviation"]["value"] for row in rows]
        assert deviations[0] > deviations[1] > deviations[2]

    def test_one_statement_scans_each_p(self, tmp_path):
        from momentcert.bounds import STATEMENTS

        expected = {1.5: "logconcave_radius", 2: "symmetric_p24_band",
                    2.5: "symmetric_p24_band", 3: "symmetric_p24_band", 4: "even_symmetric_band",
                    4.5: "logconcave_radius", 5: "logconcave_radius", 6: "even_symmetric_band"}
        for p, statement in expected.items():
            assert [sid for sid, row in STATEMENTS.items() if row.scans(p)] == [statement]
        path = write_config(
            tmp_path,
            {"command": "scan", "variables": [{"family": "symmetric_exponential", "sigma": 1.0}],
             "p_values": list(expected), "n_values": [10], "samples": 10000},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        assert [(row["p"], row["statement"]) for row in rows] == list(expected.items())

    def test_one_monte_carlo_run_per_row(self, tmp_path, monkeypatch):
        # The radius needs no sandwich head: only the deviation draws.
        calls = count_calls(monkeypatch, oracle, "mc_moment")
        path = write_config(
            tmp_path,
            {"command": "scan", "variables": [{"family": "symmetric_exponential", "sigma": 1.0}],
             "p_values": [4.5, 5.0], "n_values": [10, 100], "samples": 20000},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        rows = json.loads(document)["rows"]
        assert [r["deviation"]["provenance"] for r in rows] == ["mc"] * 4
        assert len(calls) == len(rows)

    def test_monte_carlo_to_a_million_summands(self, tmp_path):
        # One draw per sample for the whole run of equal summands.
        path = write_config(
            tmp_path,
            {
                "command": "scan",
                "variables": [{"family": "symmetric_exponential", "sigma": 1.0}],
                "p_values": [5.0],
                "n_values": [1000, 1000000],
                "samples": 20000,
            },
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        for row in json.loads(document)["rows"]:
            assert row["deviation"]["provenance"] == "mc"
            assert row["within_radius"]


class TestOutputAndMain:
    def _cfg_path(self, tmp_path):
        return write_config(
            tmp_path,
            {"command": "bound", "variables": LAPLACE_TEN, "r_values": [2]},
        )

    def test_byte_identical_reruns(self, tmp_path):
        path = self._cfg_path(tmp_path)
        a = run(load_config(path))
        b = run(load_config(path))
        assert a == b

    def test_csv_format(self, tmp_path):
        path = self._cfg_path(tmp_path)
        _, document = run(load_config(path, output_format="csv"))
        lines = document.strip().splitlines()
        header = lines[0].split(",")
        assert "statement" in header
        assert len(lines) >= 2

    def test_main_writes_file_and_exit_zero(self, tmp_path, capsys):
        cfg = self._cfg_path(tmp_path)
        out = str(tmp_path / "report.json")
        assert main(["--config", cfg, "--out", out]) == EXIT_OK
        doc = json.loads(open(out).read())
        assert doc["command"] == "bound"
        assert capsys.readouterr().out == ""

    def test_main_stdout(self, tmp_path, capsys):
        cfg = self._cfg_path(tmp_path)
        assert main(["--config", cfg]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rows"]

    def test_main_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_main_seed_override_changes_mc_rows(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {"command": "moments",
             "variables": [{"family": "uniform", "a": 1.0, "count": 3}],
             "p_values": [5.0], "samples": 50000},
        )
        assert main(["--config", path, "--seed", "1"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["--config", path, "--seed", "2"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first != second
        assert json.loads(first)["seed"] == 1


JSON_SCALARS = (
    st.none() | st.booleans()
    | st.integers() | st.integers(-10**40, 10**40).map(lambda x: x * 10**30)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 1e16, 5e-324, math.inf, -math.inf, math.nan])
    | st.text(st.characters(), max_size=12)
    | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "caf\u00e9", "\U0001f600", "\u2028"])
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(st.characters(), max_size=6), inner, max_size=4)),
    max_leaves=24,
)


class TestJsonWriter:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(value=JSON_VALUES)
    def test_same_bytes_as_json_dumps(self, value):
        assert cli_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [
        {}, [], (), {"a": {}, "b": [], "c": [{}, [[]], {"d": ()}]},
        {"x": [-0.0, 1e16, 5e-324, math.inf, -math.inf, math.nan, 10**400, True, False, None]},
        {"\u00e9\n\"": "\x00\t\u2028\U0001f600", "": ""},
    ])
    def test_named_cases(self, value):
        assert cli_json(value) == json.dumps(value, sort_keys=True, indent=2)

    @pytest.mark.parametrize("value", [{1, 2}, b"x", object(), {"a": [complex(1, 2)]},
                                       {1: "a"}, {None: 0}])
    def test_anything_else_is_a_type_error(self, value):
        with pytest.raises(TypeError):
            cli_json(value)

    def test_float_subclass_writes_its_value(self):
        """numpy floats are floats: written by float.__repr__, as json does."""
        import numpy as np

        value = {"v": np.float64(0.1), "w": [np.float64(-2.5e-300)]}
        assert cli_json(value) == json.dumps(value, sort_keys=True, indent=2)


class TestBadInputs:
    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "variable",
        [
            {"family": "gaussian", "sigma": "X", "count": 5},
            {"family": "uniform", "a": "X"},
            {"family": "symmetric_three_point", "b": 1.0, "q": "X"},
            {"family": "atoms", "values": [-1.0, "X"], "probs": [0.5, 0.5]},
            {"family": "raw_moments", "moments": [1.0, 0.0, 1.0, 0.0, "X"],
             "symmetric": True},
        ],
    )
    def test_non_finite_parameter_is_config_error(self, tmp_path, capsys, variable, x):
        doc = {"command": "bound", "variables": [variable], "r_values": [2]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc).replace('"X"', json.dumps(x)))
        with pytest.raises(ConfigError, match="finite"):
            load_config(str(path))
        assert main(["--config", str(path)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_null_parameter_is_config_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "bound", "variables": [{"family": "gaussian", "sigma": None}],
             "r_values": [2]},
        )
        with pytest.raises(ConfigError):
            load_config(path)

    def test_wide_spread_certifies_and_passes(self, tmp_path, capsys):
        """Variances spread by 1e10: every bound certifies, and every row
        PASSes against its exact or quadrature ground truth."""
        out = tmp_path / "report.json"
        path = write_config(
            tmp_path,
            {"command": "verify", "p_values": [3.0, 4.0], "r_values": [2],
             "variables": [{"family": "gaussian", "sigma": 1.0, "count": 5},
                           {"family": "gaussian", "sigma": 1e-5, "count": 5}],
             "output_path": str(out)},
        )
        assert main(["--config", path]) == EXIT_OK
        assert capsys.readouterr().err == ""
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 10
        assert all(r["certifying"] and r["verdict"] == "PASS" for r in rows)
        assert "truncated_general_p_upper" in {r["statement"] for r in rows}

    # 26 distinct Rademacher weights overflow the grid budget, lowered to 2^12.
    GRID_REFUSED = {
        "command": "verify", "p_values": [3.0], "r_values": [2],
        "variables": [{"family": "rademacher", "sigma": q ** 0.5} for q in (
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
            43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101)],
    }

    def test_refused_ground_truth_is_unverified(self, tmp_path, capsys, monkeypatch):
        from momentcert import exactmoments

        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        out = tmp_path / "report.json"
        path = write_config(tmp_path, {**self.GRID_REFUSED, "output_path": str(out)})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "UNVERIFIED" in capsys.readouterr().err
        rows = json.loads(out.read_text())["rows"]
        assert "even_symmetric_band" in {r["statement"] for r in rows if r["verdict"] == "PASS"}
        unverified = [r for r in rows if r["verdict"] == "UNVERIFIED"]
        assert unverified
        assert all("exceeds 4096" in r["detail"] for r in unverified)
        assert all("ground" not in r for r in unverified)
        skipped = [r for r in rows if r["statement"] == "truncated_general_p_upper"]
        assert [r["verdict"] for r in skipped] == ["SKIPPED"]
        assert [r["failed"] for r in skipped] == [["enumeration_cap"]]

    def test_overflowed_ground_truth_is_unverified(self, tmp_path, capsys):
        """5 x Laplace(1) at p = 171: Monte Carlo's sum of |S|^{2p}
        overflows, so its budget is not finite.  The ground truth is
        UNVERIFIED, the sandwich on that head is non-certifying, and no
        NaN reaches the document."""
        out = tmp_path / "report.json"
        variables = [{"family": "symmetric_exponential", "sigma": 1.0, "count": 5}]
        path = write_config(tmp_path, {"command": "verify", "variables": variables,
                                       "p_values": [171], "output_path": str(out)})
        assert main(["--config", path]) == EXIT_CONFIG
        assert "UNVERIFIED" in capsys.readouterr().err
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        rows = {r["statement"]: r for r in json.loads(text)["rows"]}
        radius, sandwich = rows["logconcave_radius"], rows["logconcave_sandwich"]
        assert radius["verdict"] == "UNVERIFIED"
        assert "mc ground truth overflowed a float" in radius["detail"]
        assert "ground" not in radius and "margin" not in radius
        assert sandwich["verdict"] == "SKIPPED"
        assert sandwich["failed"] == ["finite_head"]

    @pytest.mark.parametrize("command, extra", [("moments", {}), ("scan", {"n_values": [5]})])
    def test_overflowed_estimate_is_unverified(self, tmp_path, capsys, command, extra):
        """The same overflow in `moments` and `scan`: the row is UNVERIFIED
        with a detail, carries no estimate, and the command exits 2."""
        out = tmp_path / "report.json"
        count = 5 if command == "moments" else 1
        variables = [{"family": "symmetric_exponential", "sigma": 1.0, "count": count}]
        path = write_config(tmp_path, {"command": command, "variables": variables,
                                       "p_values": [171], "output_path": str(out), **extra})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["--config", path]) == EXIT_CONFIG
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "UNVERIFIED" in err
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text
        [row] = json.loads(text)["rows"]
        assert row["verdict"] == "UNVERIFIED"
        assert "mc ground truth overflowed a float" in row["detail"]
        assert not {"lp_norm", "deviation", "within_radius"} & set(row)

    def test_scan_outside_radius_fails(self, tmp_path, monkeypatch):
        import momentcert.cli as cli_mod

        monkeypatch.setattr(cli_mod, "_estimate",
                            lambda seq, p, part, cfg: Estimate(1e18, 0.0, 1e6, 0.0, "mc"))
        path = write_config(tmp_path, {"command": "scan", "variables": LAPLACE_TEN,
                                       "p_values": [3.0], "n_values": [10]})
        status, document = run(load_config(path))
        assert status == EXIT_FAIL
        assert [r["within_radius"] for r in json.loads(document)["rows"]] == [False]

    def test_fail_outranks_unverified(self, tmp_path, monkeypatch):
        import dataclasses

        import momentcert.bounds as bounds_mod
        import momentcert.cli as cli_mod

        real_ground, real_bound = cli_mod._estimate, bounds_mod.bound_even_symmetric

        def refusing(seq, p, part, cfg, exact_atoms=False, starts=()):
            if p == 3.0:
                raise SupportExplosion("refused")
            return real_ground(seq, p, part, cfg, exact_atoms, starts)

        def sabotaged(seq, r):
            rep = real_bound(seq, r)
            return dataclasses.replace(rep, upper=rep.lower + 1e-9, radius=None)

        def verdicts(document):
            return {(r["statement"], r["p"]): r["verdict"] for r in json.loads(document)["rows"]}

        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [3.0, 4.0],
             "r_values": [2]},
        )
        monkeypatch.setattr(cli_mod, "_estimate", refusing)
        status, document = run(load_config(path))
        assert verdicts(document)[("logconcave_radius", 3.0)] == "UNVERIFIED"
        assert "FAIL" not in verdicts(document).values()
        assert status == EXIT_CONFIG
        monkeypatch.setattr(bounds_mod, "bound_even_symmetric", sabotaged)
        status, document = run(load_config(path))
        assert verdicts(document)[("logconcave_radius", 3.0)] == "UNVERIFIED"
        assert verdicts(document)[("even_symmetric_band", 4.0)] == "FAIL"
        assert status == EXIT_FAIL

    RAW_SYMMETRIC = [
        {"family": "raw_moments", "moments": [1.0, 0.0, 1.0, 0.0, 3.0, 0.0, 15.0],
         "symmetric": True, "centered": True, "count": 30},
    ]

    def test_no_oracle_stays_config_error(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": self.RAW_SYMMETRIC, "p_values": [3.0],
             "output_path": str(out)},
        )
        assert main(["--config", path]) == EXIT_CONFIG
        assert "configuration error: no oracle available" in capsys.readouterr().err
        assert not out.exists()

    def test_atoms_without_quadrature_are_sampled(self, tmp_path):
        variables = [{"family": "atoms", "values": [-1.0, 1.0], "probs": [0.5, 0.5],
                      "count": 4}]
        path = write_config(
            tmp_path,
            {"command": "moments", "variables": variables, "p_values": [3.0],
             "samples": 20000},
        )
        status, document = run(load_config(path))
        (row,) = json.loads(document)["rows"]
        assert status == EXIT_OK
        assert row["lp_norm"]["provenance"] == "mc"
        # E|S|^3 = 12 for a sum of four signs.
        assert abs(row["lp_norm"]["value"] - 12 ** (1 / 3)) <= row["lp_norm"]["error"]

    def test_other_ground_errors_are_not_unverified(self, tmp_path, monkeypatch):
        import momentcert.cli as cli_mod

        def broken(seq, p, part, cfg, exact_atoms=False, starts=()):
            raise ValueError("not a refusal")

        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [4.0],
             "r_values": [2]},
        )
        monkeypatch.setattr(cli_mod, "_estimate", broken)
        with pytest.raises(ValueError, match="not a refusal"):
            run(load_config(path))

    def test_engine_refusal_exits_two(self, tmp_path, capsys, monkeypatch):
        from momentcert import exactmoments

        monkeypatch.setattr(exactmoments, "_MAX_GRID", 1 << 12)
        path = write_config(tmp_path, self.GRID_REFUSED)
        assert main(["--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "exceeds 4096" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "moments", "variables": [{"family": "gaussian", "sigma": 1.0}],
             "p_values": [1001]},
            {"command": "bound", "variables": [{"family": "gaussian", "sigma": 1.0, "count": 5}],
             "p_values": [401]},
            {"command": "moments", "variables": [{"family": "gaussian", "sigma": 1.0}],
             "p_values": [401]},
        ],
        ids=["moments-p1001", "bound-p401", "moments-p401"],
    )
    def test_p_whose_gaussian_moment_overflows_names_p_values(self, tmp_path, capsys, doc):
        """E|G|^p passes the float range above p = 301.36: load_config
        refuses such a p, naming the key, before any engine runs."""
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match="^p_values must be"):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("configuration error: p_values ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "bound", "p_values": [3],
             "variables": [{"family": "gaussian", "sigma": 1.0, "count": 10**15}]},
            {"command": "scan", "p_values": [3], "n_values": [10**15],
             "variables": [{"family": "gaussian", "sigma": 1.0}]},
        ],
        ids=["count", "scan-n"],
    )
    def test_sequence_too_long_for_memory_exits_two(self, tmp_path, capsys, doc):
        """A list of 10^15 summands fails to allocate at once, touching no
        memory: one error line, no document, and not exit 1."""
        out = tmp_path / "report.json"
        path = write_config(tmp_path, {**doc, "output_path": str(out)})
        assert main(["--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory")
        assert len(err.strip().splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("via", ["output_path", "--out"])
    def test_unwritable_output_exits_two(self, tmp_path, capsys, via):
        out = tmp_path / "missing" / "report.json"
        doc = {"command": "bound", "variables": LAPLACE_TEN, "r_values": [2]}
        if via == "output_path":
            doc["output_path"] = str(out)
        argv = ["--config", write_config(tmp_path, doc)]
        if via == "--out":
            argv += ["--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write the report: ")
        assert len(captured.err.strip().splitlines()) == 1
        assert captured.out == ""
        assert not out.parent.exists()


GAUSS =[{"family": "gaussian", "sigma": 1.0}]


class TestConfigNumbers:
    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "bound", "p_values": 3},
            {"command": "bound", "p_values": [0.0]},
            {"command": "bound", "p_values": [-3.0]},
            {"command": "moments", "r_values": [0]},
            {"command": "scan", "p_values": [3.0], "n_values": [0]},
            {"command": "bound", "p_values": [float("nan")]},
            {"command": "bound", "p_values": [float("inf")]},
            {"command": "bound", "p_values": [3.0], "tol": float("nan")},
        ],
        ids=["p-not-a-list", "p-zero", "p-negative", "r-zero", "n-zero", "p-nan",
             "p-infinity", "tol-nan"],
    )
    def test_bad_number_is_config_error(self, tmp_path, capsys, doc):
        path = write_config(tmp_path, {"variables": GAUSS, **doc})
        with pytest.raises(ConfigError):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("count", "x"),
            ("count", 0),
            ("count", 2.5),
            ("seed", "abc"),
            ("seed", -1),
            ("samples", 100),
            ("samples", 2e4 + 0.5),
            ("confidence", 0.0),
            ("confidence", 1.0),
            ("confidence", "high"),
        ],
        ids=["count-text", "count-zero", "count-fraction", "seed-text", "seed-negative",
             "samples-few", "samples-fraction", "confidence-zero", "confidence-one",
             "confidence-text"],
    )
    def test_bad_scalar_names_its_key(self, tmp_path, capsys, key, value):
        variable = dict(GAUSS[0], count=value) if key == "count" else GAUSS[0]
        doc = {"command": "moments", "variables": [variable], "p_values": [4.0]}
        if key != "count":
            doc[key] = value
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"^{key} must be"):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG
        assert f"configuration error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "variable",
        [
            {"family": "gaussian", "sigma": 1e200},
            {"family": "rademacher", "sigma": 1e155},
            {"family": "symmetric_exponential", "sigma": 1e200},
            {"family": "uniform", "a": 1e160},
            {"family": "symmetric_three_point", "b": 1e155, "q": 0.5},
        ],
        ids=lambda v: v["family"],
    )
    def test_overflowing_variance_names_its_family(self, tmp_path, capsys, variable):
        """A scale whose variance is not a float is a configuration error
        that names the family, not an overflow inside a bound."""
        doc = {"command": "moments", "variables": [dict(variable, count=3)], "p_values": [3]}
        path = write_config(tmp_path, doc)
        with pytest.raises(ConfigError, match=f"^{variable['family']} variance overflows"):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {variable['family']} variance")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "variable",
        [
            {"family": "gaussian", "sigma": 1e150},
            {"family": "rademacher", "sigma": 1e100},
            {"family": "symmetric_exponential", "sigma": 1e150},
            {"family": "uniform", "a": 1e150},
            {"family": "symmetric_three_point", "b": 1e100, "q": 0.5},
        ],
        ids=lambda v: v["family"],
    )
    def test_overflowing_moment_names_its_family(self, tmp_path, capsys, variable):
        """A finite variance whose fourth moment overflows: verify exits 2
        with one `error:` line that names the family, the order and the
        parameters."""
        doc = {"command": "verify", "variables": [variable], "p_values": [4]}
        assert main(["--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {variable['family']} moment of order 4 overflows a float at (")
        assert len(err.strip().splitlines()) == 1

    def test_moment_past_the_float_range_exits_two(self, tmp_path, capsys):
        """10^6 x gaussian(1) at p = 170, r = 85: the sum's moments
        overflow, and verify exits 2 with one `error:` line."""
        doc = {"command": "verify", "variables": [dict(GAUSS[0], count=10**6)],
               "p_values": [170], "r_values": [85]}
        assert main(["--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert len(captured.err.strip().splitlines()) == 1

    def test_confidence_within_an_ulp_of_one(self, tmp_path, capsys):
        """The largest float below 1 is a valid confidence: its quantile is
        taken from the upper tail, where it is finite."""
        confidence = math.nextafter(1.0, 0.0)
        doc = {"command": "moments", "variables": [dict(GAUSS[0], count=3)],
               "p_values": [5], "samples": 20_000, "confidence": confidence}
        path = write_config(tmp_path, doc)
        assert load_config(path).confidence == confidence
        out = tmp_path / "report.json"
        assert main(["--config", path, "--out", str(out)]) == EXIT_OK
        norm = json.loads(out.read_text())["rows"][0]["lp_norm"]
        assert norm["provenance"] == "mc"
        assert math.isfinite(norm["value"]) and 0.0 < norm["error"] < math.inf

    @pytest.mark.parametrize(
        "doc, key, limit",
        [
            ({"command": "moments", "p_values": [1000]}, "p_values", "at most 170 if even"),
            ({"command": "bound", "p_values": [400]}, "p_values", "at most 170 if even"),
            ({"command": "bound", "r_values": [200]}, "r_values", "in [1, 85]"),
            ({"command": "scan", "p_values": [3], "n_values": [1e30]}, "n_values",
             f"in [1, {sys.maxsize}]"),
        ],
        ids=["moments-p1000", "bound-p400", "bound-r200", "scan-n1e30"],
    )
    def test_overflowing_value_names_its_key(self, tmp_path, capsys, doc, key, limit):
        """Values past what the arithmetic can hold are configuration
        errors that name the key and its limit."""
        path = write_config(tmp_path, {"variables": GAUSS, **doc})
        with pytest.raises(ConfigError, match=f"^{key} must be .*{re.escape(limit)}"):
            load_config(path)
        assert main(["--config", path]) == EXIT_CONFIG
        assert f"configuration error: {key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, accepted, refused",
        [
            ("p_values", [170, 171, 170.5, 301], [172, 401, 1001]),
            ("r_values", [85], [86]),
            ("n_values", [sys.maxsize], [sys.maxsize + 1]),
            ("count", [], [sys.maxsize + 1]),
        ],
    )
    def test_limits_at_the_boundary(self, tmp_path, key, accepted, refused):
        """An even p and 2r are moment orders: math.factorial(l) converts
        to a float only for l <= 170.  Any p needs E|G|^p to be a float,
        which it is up to about p = 301.36.  count and n are sequence lengths,
        at most sys.maxsize ([spec] * count at sys.maxsize would be built
        in full, so only its refusal is tested)."""
        for value, ok in [(v, True) for v in accepted] + [(v, False) for v in refused]:
            doc = {"command": "scan", "variables": GAUSS, "p_values": [3], "n_values": [4]}
            if key == "count":
                doc["variables"] = [dict(GAUSS[0], count=value)]
            else:
                doc[key] = [value]
            path = write_config(tmp_path, doc)
            if ok:
                assert getattr(load_config(path), key) == [value]
            else:
                with pytest.raises(ConfigError, match=f"^{key} must be"):
                    load_config(path)

    @pytest.mark.parametrize(
        "doc",
        [
            {"command": "moments", "variables": GAUSS, "p_values": [170]},
            {"command": "bound", "variables": [dict(GAUSS[0], count=5)],
             "p_values": [170], "r_values": [85]},
        ],
        ids=["moments-p170", "bound-r85"],
    )
    def test_largest_orders_run(self, tmp_path, doc):
        status, document = run(load_config(write_config(tmp_path, doc)))
        assert status == EXIT_OK
        assert "NaN" not in document and "Infinity" not in document

    def test_large_seed_kept_exactly(self, tmp_path):
        path = write_config(
            tmp_path, {"command": "moments", "variables": GAUSS, "p_values": [4.0],
                       "seed": 2 ** 60 + 1, "samples": 1e4}
        )
        cfg = load_config(path)
        assert cfg.seed == 2 ** 60 + 1 and cfg.samples == 10_000

    def test_whole_float_orders_accepted(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "scan", "variables": GAUSS, "p_values": [3.0],
             "r_values": [2.0], "n_values": [4.0]},
        )
        cfg = load_config(path)
        assert cfg.r_values == [2] and cfg.n_values == [4]


class TestGroundTags:
    def test_non_exact_grounds_carry_their_error(self, tmp_path):
        path = write_config(
            tmp_path,
            {"command": "verify", "variables": LAPLACE_TEN, "p_values": [3.0, 4.0, 5.0],
             "samples": 20000},
        )
        status, document = run(load_config(path))
        assert status == EXIT_OK
        grounds = [r["ground"] for r in json.loads(document)["rows"] if "ground" in r]
        kinds = {g["provenance"] for g in grounds}
        assert kinds == {"exact", "quadrature", "mc"}
        for g in grounds:
            assert ("error" in g) == (g["provenance"] != "exact")
            assert g.get("error", 0.0) >= 0.0

    def test_rademacher_ground_is_exact_but_norm_is_quadrature(self, tmp_path):
        variables = [{"family": "rademacher", "sigma": 1.0, "count": 6}]
        path = write_config(
            tmp_path, {"command": "verify", "variables": variables, "p_values": [3.0]}
        )
        rows = json.loads(run(load_config(path))[1])["rows"]
        sandwich = next(r for r in rows if r["statement"] == "logconcave_sandwich")
        assert sandwich["upper"]["provenance"] == "quadrature"
        assert {r["ground"]["provenance"] for r in rows if "ground" in r} == {"exact"}
        path = write_config(
            tmp_path, {"command": "moments", "variables": variables, "p_values": [3.0]}
        )
        rows = json.loads(run(load_config(path))[1])["rows"]
        assert rows[0]["lp_norm"]["provenance"] == "quadrature"

    def test_sandwich_head_is_at_the_config_confidence(self, tmp_path):
        """The sandwich's Monte Carlo head, like every other ground, is at
        the config's confidence, not at 0.999."""
        variables = [{"family": "symmetric_exponential", "sigma": 1.0, "count": 8}]
        doc = {"command": "bound", "variables": variables, "p_values": [5],
               "samples": 20000, "seed": 3, "confidence": 0.9}
        rows = json.loads(run(load_config(write_config(tmp_path, doc)))[1])["rows"]
        sandwich = next(r for r in rows if r["statement"] == "logconcave_sandwich")
        seq = SequenceSpec((symmetric_exponential(1.0),) * 8)
        head = {c: estimate_moment(seq, 5.0, slice(0, 4), exact_atoms=False, tol=1e-8,
                                   samples=20_000, seed=3, confidence=c).norm_error
                for c in (0.9, 0.999)}
        assert sandwich["upper"]["error"] == head[0.9] < head[0.999]


SKEW = ([-1.0, 0.5, 2.0], [0.3, 0.5, 0.2], 12)


class TestRunsGroupedByEquality:
    @pytest.mark.parametrize(
        "command, p_values, third",
        [
            ("moments", [4.0, 6.0], lambda: spec_from_atoms(*SKEW)),
            ("bound", [4.0, 6.0], lambda: spec_from_atoms(*SKEW)),
            ("verify", [4.0, 6.0], lambda: spec_from_atoms(*SKEW)),
            ("verify", [3.0], lambda: uniform(0.8)),
            ("moments", [5.0], lambda: uniform(0.8)),
        ],
        ids=["moments", "bound", "verify", "verify-quadrature", "moments-mc"],
    )
    def test_shared_and_copied_specs_give_identical_documents(
        self, command, p_values, third
    ):
        makers = (lambda: gaussian(1.0), lambda: symmetric_three_point(1.5, 0.2), third)
        counts = (7, 4, 5)
        shared = [s for make, k in zip(makers, counts) for s in [make()] * k]
        copies = [make() for make, k in zip(makers, counts) for _ in range(k)]
        assert len({id(s) for s in copies}) == len(copies)
        docs = [
            run(RunConfig(command=command, variables=variables, p_values=p_values,
                          r_values=[2, 3]))
            for variables in (shared, copies)
        ]
        assert docs[0] == docs[1]
        if p_values == [3.0]:
            rows = json.loads(docs[0][1])["rows"]
            assert any(r.get("ground", {}).get("provenance") == "quadrature" for r in rows)


@st.composite
def variable_docs(draw):
    """One variable descriptor: a family or an atom law, at a scale
    10^u for u uniform on [-6, 6], repeated 1-4 times."""
    scale = 10.0 ** draw(st.floats(-6.0, 6.0))
    count = draw(st.integers(1, 4))
    family = draw(st.sampled_from(
        ["gaussian", "rademacher", "symmetric_exponential", "uniform",
         "symmetric_three_point", "atoms"]))
    if family == "atoms":
        values = draw(st.lists(st.integers(-15, 15), min_size=2, max_size=4, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(values),
                                max_size=len(values)))
        return {"family": "atoms", "values": [0.1 * v * scale for v in values],
                "probs": [w / sum(weights) for w in weights], "count": count}
    if family == "symmetric_three_point":
        return {"family": family, "b": scale, "q": draw(st.floats(0.05, 0.5)),
                "count": count}
    return {"family": family, distmodel.FAMILIES[family].keys[0]: scale, "count": count}


class TestSharedSpecsProperty:
    @given(
        command=st.sampled_from(["verify", "bound", "moments"]),
        variables=st.lists(variable_docs(), min_size=1, max_size=3),
        p_values=st.lists(st.sampled_from([2.5, 3.0, 4.0, 5.0, 6.0]),
                          min_size=1, max_size=2, unique=True),
        r=st.sampled_from([2, 3]),
    )
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_count_equals_copies(self, command, variables, p_values, r):
        """A descriptor with count k ([spec] * k, one object) and k
        descriptors with count 1 (k equal objects) give the same document."""
        copies = [dict(d, count=1) for d in variables for _ in range(d["count"])]
        docs = []
        with tempfile.TemporaryDirectory() as tmp:
            for variables_doc in (variables, copies):
                path = Path(tmp) / "cfg.json"
                path.write_text(json.dumps({
                    "command": command, "variables": variables_doc, "p_values": p_values,
                    "r_values": [r], "samples": 20_000}))
                cfg = load_config(str(path))
                docs.append(run(cfg))
        assert len({id(s) for s in cfg.variables}) == len(cfg.variables)
        assert docs[0] == docs[1]


class TestScaleFree:
    @given(
        command=st.sampled_from(["verify", "moments", "check-lemmas"]),
        variables=st.lists(variable_docs(), min_size=1, max_size=4),
        p_values=st.lists(st.sampled_from([2.5, 3.0, 3.5, 4.0, 6.0]),
                          min_size=2, max_size=2, unique=True),
        r=st.sampled_from([2, 3]),
    )
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_any_scale_and_spread_exits_zero(self, command, variables, p_values, r):
        """Sums of families and atom laws at scales 1e-6 to 1e6, spread
        as widely: every job runs, exits 0, and every certifying verify
        row PASSes."""
        doc = {"command": command, "variables": variables, "p_values": p_values,
               "r_values": [r], "samples": 20_000}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "cfg.json"
            path.write_text(json.dumps(doc))
            status, document = run(load_config(str(path)))
        assert status == EXIT_OK
        for row in json.loads(document)["rows"]:
            if command == "verify" and row["certifying"]:
                assert row["verdict"] == "PASS", row
