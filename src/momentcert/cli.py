"""Batch front door: read a JSON configuration, run the requested
computation, emit machine-readable reports (JSON or CSV).

Exit codes, which `_status` reads from the rows: 0 all checks pass; 1 a
violation, a failed lemma check or a FAIL; 2 no FAIL but some row
UNVERIFIED: a `verify` row whose ground truth the atom grid budget
refused, or a `verify`, `moments` or `scan` row whose value or error
budget overflowed a float (the document is still written, without that
number).  `main` also exits 2, with one `error:` line and no document, on
a configuration error, an engine refusal, a numeric overflow, a sequence
too long for memory or a report it cannot write.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field
from itertools import chain
from json.encoder import encode_basestring_ascii

from . import distmodel
from .bounds import (
    STATEMENTS,
    BoundReport,
    SequenceSpec,
    check_centered_tail_bounds,
    check_rademacher_moment_ratio,
    check_symmetric_tail_bounds,
    compute_m,
)
from .charfn import check_cosine_bounds, check_main_charfn_inequality
from .combinatorics import (
    count_compositions,
    count_no_singleton_compositions,
    count_support_compositions,
)
from .distmodel import MomentProfile, VariableSpec
from .exactmoments import Runs, gaussian_abs_moment, gaussian_lp_norm, is_even
from .oracle import Estimate, NoEngine, SupportExplosion, estimate_moment, verify_report
from .oracle import mc_moment  # noqa: F401  (perfbench/test_perfbench.py reads cli.mc_moment)

SCHEMA_VERSION = 1
EXIT_OK, EXIT_FAIL, EXIT_CONFIG = 0, 1, 2
# The highest moment order a profile can hold: math.factorial(l) converts
# to a float only for l <= 170.  An even p and 2r are such orders.
_MAX_ORDER = 170


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    command: str
    variables: list[VariableSpec]
    p_values: list[float] = field(default_factory=list)
    r_values: list[int] = field(default_factory=list)
    n_values: list[int] = field(default_factory=list)
    seed: int = 0
    samples: int = 1_000_000
    tol: float = 1e-8
    confidence: float = 0.999
    output_format: str = "json"
    output_path: str | None = None


def _parse_variable(doc: dict) -> list[VariableSpec]:
    if not isinstance(doc, dict) or "family" not in doc:
        raise ConfigError(f"variable descriptor must be an object with a family: {doc!r}")
    family = doc["family"]
    count = _integer(doc.get("count", 1), "count", 1, sys.maxsize)  # [spec] * count
    try:
        if family in distmodel.FAMILIES:
            keys = distmodel.FAMILIES[family].keys
            spec = VariableSpec(family, tuple(float(doc[key]) for key in keys))
        elif family == "raw_moments":
            profile = MomentProfile(
                tuple(doc["moments"]),
                symmetric=bool(doc.get("symmetric", False)),
                centered=bool(doc.get("centered", True)),
            )
            spec = distmodel.from_profile(profile)
        elif family == "atoms":
            spec = distmodel.spec_from_atoms(
                doc["values"], doc["probs"], int(doc.get("max_order", 12))
            )
        else:
            raise ConfigError(f"unknown family {family!r}")
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc} for family {family!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    return [spec] * count


def _number(value, key: str, rule: str, ok) -> float:
    """value as a float, if it is a finite number for which ok holds, else
    a ConfigError that names key and the rule."""
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not (math.isfinite(x) and ok(x)):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return x


def _integer(value, key: str, least: int, most: int | None = None) -> int:
    rule = f"an integer >= {least}" if most is None else f"an integer in [{least}, {most}]"
    x = _number(value, key, rule, float.is_integer)
    n = int(value if isinstance(value, int) else x)  # exact beyond 2^53
    if n < least or (most is not None and n > most):
        raise ConfigError(f"{key} must be {rule}, got {value!r}")
    return n


def _gaussian_moment_is_finite(p: float) -> bool:
    """Whether E|G|^p, which every bound at p carries, is a finite float."""
    try:
        return math.isfinite(gaussian_abs_moment(p))
    except OverflowError:
        return False


def _numbers(doc: dict, key: str, whole: bool, most: int) -> list:
    """doc[key] (empty if absent): integers in [1, most] if `whole`, else
    finite numbers p > 0, at most `most` if even, with E|G|^p a float."""
    values = doc.get(key, [])
    if not isinstance(values, list):
        raise ConfigError(f"{key} must be a list, got {values!r}")
    if whole:
        return [_integer(x, key, 1, most) for x in values]
    rule = f"a finite number p > 0 with E|G|^p below the float range, at most {most} if even"
    return [_number(x, key, rule, lambda x: x > 0 and (x <= most or not is_even(x))
                    and _gaussian_moment_is_finite(x)) for x in values]


def load_config(path: str, *, seed=None, output_format=None, output_path=None) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    command = doc.get("command")
    if command not in (commands := tuple(_COMMANDS)):
        raise ConfigError(f"command must be one of {commands}, got {command!r}")
    raw_vars = doc.get("variables") or []
    if not raw_vars:
        raise ConfigError("at least one variable is required")
    variables = list(chain.from_iterable(map(_parse_variable, raw_vars)))
    cfg = RunConfig(
        command=command,
        variables=variables,
        p_values=_numbers(doc, "p_values", whole=False, most=_MAX_ORDER),
        r_values=_numbers(doc, "r_values", whole=True, most=_MAX_ORDER // 2),
        n_values=_numbers(doc, "n_values", whole=True, most=sys.maxsize),
        seed=_integer(doc.get("seed", 0) if seed is None else seed, "seed", 0),
        samples=_integer(doc.get("samples", 1_000_000), "samples", 10_000),
        tol=_number(doc.get("tol", 1e-8), "tol", "a finite number > 0", lambda x: x > 0),
        confidence=_number(
            doc.get("confidence", 0.999), "confidence", "in (0, 1)", lambda x: 0 < x < 1
        ),
        output_format=doc.get("output_format", "json") if output_format is None else output_format,
        output_path=doc.get("output_path") if output_path is None else output_path,
    )
    if cfg.output_format not in ("json", "csv"):
        raise ConfigError(f"output_format must be json or csv, got {cfg.output_format!r}")
    if command in ("moments", "bound", "verify", "scan") and not (
        cfg.p_values or cfg.r_values
    ):
        raise ConfigError(f"command {command!r} needs p_values or r_values")
    if command == "scan" and not cfg.n_values:
        raise ConfigError("scan needs n_values")
    return cfg


def _tag(value: float, provenance: str, error: float | None = None) -> dict:
    out = {"value": value, "provenance": provenance}
    if error is not None:
        out["error"] = error
    return out


def _estimate(seq: SequenceSpec, p: float, part: slice, cfg: RunConfig,
              exact_atoms: bool = False, starts: tuple[int, ...] = ()) -> Estimate:
    """E|S|^p of the sum of ``seq.variables[part]`` under the run's engine
    settings, Monte Carlo drawing the suffixes from ``starts`` in one pass
    (:func:`estimate_moment`); OverflowError if a value or budget is not
    finite."""
    return estimate_moment(
        seq, p, part, exact_atoms=exact_atoms, starts=starts,
        tol=cfg.tol, samples=cfg.samples, seed=cfg.seed, confidence=cfg.confidence,
    )


def _unverified(row: dict, exc: Exception) -> dict:
    row["verdict"] = "UNVERIFIED"
    row["detail"] = str(exc)
    return row


def _estimate_tag(est: Estimate, raw: bool) -> dict:
    """The raw moment or the norm, with its error budget unless exact."""
    value, error = (est.raw, est.raw_error) if raw else (est.norm, est.norm_error)
    return _tag(value, est.provenance, None if est.provenance == "exact" else error)


def _report_row(report: BoundReport) -> dict:
    row = {
        "statement": report.statement_id,
        "p": report.p,
        "certifying": report.certifying,
        "constants": report.constants,
        "assumptions": [
            {"name": a.name, "satisfied": a.satisfied, "detail": a.detail}
            for a in report.assumptions
        ],
    }
    if not report.certifying:
        row["failed"] = [a.name for a in report.failed_assumptions()]
        return row
    prov = report.aux.get("head_provenance", "exact")
    err = report.error_budget if report.error_budget else None
    row["target_kind"] = report.target_kind
    row["start_index"] = report.start_index
    row["center"] = _tag(report.center, "exact")
    if report.lower is not None:
        row["lower"] = _tag(report.lower, prov, err)
    if report.upper is not None:
        row["upper"] = _tag(report.upper, prov, err)
    if report.radius is not None:
        row["radius"] = _tag(report.radius, "exact")
    return row


def _all_reports(seq: SequenceSpec, cfg: RunConfig) -> list[BoundReport]:
    """Every statement's report at each of its (p, r) cases, sorted by
    (statement, p)."""
    ps, rs = sorted(set(cfg.p_values)), sorted(set(cfg.r_values))
    engine = {"tol": cfg.tol, "mc_samples": cfg.samples, "mc_seed": cfg.seed,
              "mc_confidence": cfg.confidence}
    reports = [row.build(seq, p, r, **engine)
               for row in STATEMENTS.values() for p, r in row.cases(ps, rs)]
    reports.sort(key=lambda rep: (rep.statement_id, rep.p))
    return reports


# -- commands ---------------------------------------------------------------


def _run_moments(cfg: RunConfig) -> list[dict]:
    seq = SequenceSpec(tuple(cfg.variables))
    rows = []
    for p in sorted(set(cfg.p_values) | {2.0 * r for r in cfg.r_values}):
        try:
            est = _estimate(seq, p, slice(None), cfg)
            row = {"p": p, "lp_norm": _estimate_tag(est, raw=False)}
        except OverflowError as exc:
            row = _unverified({"p": p}, exc)
        row["gaussian_center"] = _tag(gaussian_lp_norm(p) * math.sqrt(seq.total_variance), "exact")
        rows.append(row)
    return rows


def _run_bound(cfg: RunConfig) -> list[dict]:
    seq = SequenceSpec(tuple(cfg.variables))
    return [_report_row(r) for r in _all_reports(seq, cfg)]


def _run_verify(cfg: RunConfig) -> list[dict]:
    seq = SequenceSpec(tuple(cfg.variables))
    ordered = seq.sorted()
    reports = _all_reports(seq, cfg)
    starts: dict = {}  # {p: the 0-based starts of its certifying reports}
    for report in reports:
        if report.certifying:
            starts.setdefault(report.p, set()).add(report.start_index - 1)
    rows = []
    grounds: dict = {}  # {(p, start_index): Estimate or the refusal}
    for report in reports:
        row = _report_row(report)
        rows.append(row)
        if not report.certifying:
            row["verdict"] = "SKIPPED"
            continue
        # Every bound sorts the same way, so the report's summands are those
        # of `ordered` from start_index on.
        key = (report.p, report.start_index)
        if key not in grounds:
            try:
                grounds[key] = _estimate(ordered, report.p, slice(report.start_index - 1, None),
                                         cfg, exact_atoms=True,
                                         starts=tuple(sorted(starts[report.p])))
            except (SupportExplosion, OverflowError) as exc:  # no ground truth
                grounds[key] = exc
        ground = grounds[key]
        if isinstance(ground, Exception):
            _unverified(row, ground)
            continue
        verdict = verify_report(report, ground)
        # Quadrature grounds show the raw moment and Monte Carlo ones the
        # norm, whatever the target; exact ones use the target's scale.
        raw = ground.provenance == "quadrature" or (
            ground.provenance == "exact" and report.target_kind == "abs_moment"
        )
        row["ground"] = _estimate_tag(ground, raw)
        row["verdict"] = "PASS" if verdict.passed else "FAIL"
        row["margin"] = verdict.margin
    return rows


def _status(rows: list[dict]) -> int:
    """The exit code of a command's rows: 1 if a row FAILed, failed its
    check or lies outside its radius, else 2 if a row is UNVERIFIED, else 0."""
    if any(row.get("verdict") == "FAIL" or row.get("passed") is False
           or row.get("within_radius") is False for row in rows):
        return EXIT_FAIL
    return EXIT_CONFIG if any(row.get("verdict") == "UNVERIFIED" for row in rows) else EXIT_OK


def _run_check_lemmas(cfg: RunConfig) -> list[dict]:
    seq = SequenceSpec(tuple(cfg.variables))
    sorted_seq = seq.sorted()
    rows = []

    def record(name, passed, **extra):
        rows.append({"check": name, "passed": passed, **extra})

    runs = sorted_seq.runs
    distinct = list(dict.fromkeys(s for s, _ in runs))
    for s in distinct:
        if s.family != "raw_moments":
            rep = check_cosine_bounds(s)
            record("cosine_bounds", rep.passed, family=s.family, margins=rep.margins)
    if sorted_seq.all_symmetric and all(s.family != "raw_moments" for s in distinct):
        m = compute_m(sorted_seq)
        if m < len(sorted_seq):
            # One Gaussian of matching variance per run.
            gauss = Runs.join((distmodel.gaussian(math.sqrt(s.variance)), k) for s, k in runs)
            rep = check_main_charfn_inequality(runs, gauss, m)
            record("charfn_inequality", rep.passed or not rep.applicable,
                   applicable=rep.applicable, m=m, margins=rep.margins)
    rs = sorted(set(cfg.r_values)) or [2]
    for r in rs:
        for i in range(1, r + 1):
            # Multi-indices of |alpha| = r on a support of i positions, and
            # of |alpha| = 2r without singletons: the recurrence's counts
            # against the closed forms.
            record("counting_identities",
                   count_compositions(r, i) == count_support_compositions(r, i) and
                   count_compositions(2 * r, i, least=2) == count_no_singleton_compositions(r, i),
                   r=r, i=i)
        for name, holds, check in (
            ("symmetric_tail_bounds", sorted_seq.all_symmetric, check_symmetric_tail_bounds),
            ("centered_tail_bounds", sorted_seq.all_centered, check_centered_tail_bounds),
        ):
            if holds and (tail := check(seq, r)).applicable:
                record(name, tail.passed, r=r, cutoff=tail.cutoff_index)
        ratio = check_rademacher_moment_ratio(sorted_seq.weight_runs, r)
        record("rademacher_moment_ratio", ratio.passed, r=r, ratio=ratio.ratio)
    return rows


def _run_scan(cfg: RunConfig) -> list[dict]:
    base = cfg.variables[0]
    rows = []
    for n in sorted(set(cfg.n_values)):
        scale = math.sqrt((1.0 / n) / base.variance)
        spec = base.scaled(scale)
        seq = SequenceSpec((spec,) * n)
        for p in sorted(set(cfg.p_values)):
            (statement,) = (s for s in STATEMENTS.values() if s.scans(p))
            report = statement.build(seq, p, None)
            row = {"n": n, "p": p, "statement": report.statement_id}
            rows.append(row)
            if not report.certifying:
                row["certifying"] = False
                row["failed"] = [a.name for a in report.failed_assumptions()]
                continue
            row["radius"] = _tag(report.radius, "exact")
            try:
                est = _estimate_tag(_estimate(seq, p, slice(None), cfg), raw=False)
            except OverflowError as exc:
                _unverified(row, exc)
                continue
            deviation = abs(est["value"] - gaussian_lp_norm(p))
            row["deviation"] = est | {"value": deviation}
            row["within_radius"] = bool(deviation <= report.radius + est.get("error", 0.0))
    return rows


_COMMANDS = {
    "moments": _run_moments,
    "bound": _run_bound,
    "verify": _run_verify,
    "check-lemmas": _run_check_lemmas,
    "scan": _run_scan,
}


def _render(cfg: RunConfig, rows: list[dict]) -> str:
    if cfg.output_format == "csv":
        return _to_csv(rows)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "seed": cfg.seed,
        "rows": rows,
    }
    return _json(doc) + "\n"


def _json_float(value: float) -> str:
    if math.isfinite(value):
        return float.__repr__(value)
    return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(value, "NaN")


_WORDS = {None: "null", True: "true", False: "false"}
# How json writes each scalar, by exact type; a subclass goes by isinstance.
_SCALARS = {str: encode_basestring_ascii, float: _json_float, int: int.__repr__,
            bool: _WORDS.__getitem__, type(None): _WORDS.__getitem__}


def _json(value, indent: str = "\n") -> str:
    """`value` in the bytes of ``json.dumps(value, sort_keys=True,
    indent=2)``, whose indented output CPython writes with its pure-Python
    encoder; strings go through the C escaper.  Keys must be strings.  A
    dict writes its scalar values in its own loop, without recursing."""
    inner = indent + "  "
    if isinstance(value, dict):
        items = []
        for key in sorted(value):  # the escaper raises TypeError on a key not a str
            write = _SCALARS.get(type(value[key]))
            text = write(value[key]) if write else _json(value[key], inner)
            items.append(f"{encode_basestring_ascii(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    for kind in (str, bool, int, float, type(None)):  # bool before int, its base
        if isinstance(value, kind):
            return _SCALARS[kind](value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def run(cfg: RunConfig) -> tuple[int, str]:
    """Execute the configured command; returns (exit_status, document)."""
    rows = _COMMANDS[cfg.command](cfg)
    return _status(rows), _render(cfg, rows)


def _flatten(row: dict, prefix: str = "") -> dict:
    out = {}
    for key, value in row.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            out.update(_flatten(value, f"{name}."))
        elif isinstance(value, list):
            out[name] = json.dumps(value, sort_keys=True)
        else:
            out[name] = value
    return out


def _to_csv(rows: list[dict]) -> str:
    flat = [_flatten(r) for r in rows]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(dict.fromkeys(k for r in flat for k in r)),
                            restval="")
    writer.writeheader()
    writer.writerows(flat)
    return buf.getvalue()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="momentcert",
        description="Certified Gaussian-approximation bounds for moments of sums",
    )
    parser.add_argument("--config", required=True, help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--format", choices=("json", "csv"), default=None)
    parser.add_argument("--out", default=None, help="output path (default: stdout)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(
            args.config, seed=args.seed, output_format=args.format, output_path=args.out
        )
        rows = _COMMANDS[cfg.command](cfg)
        document = _render(cfg, rows)
    except (ConfigError, NoEngine) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        # An engine refusal that no report absorbed, or a number too large
        # for a float or an index: not a failed check.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError:
        # A sequence too long to build, say: not a failed check.
        print("error: out of memory (is a count or an n_values entry too large?)",
              file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output_path:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(document)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return EXIT_CONFIG
    else:
        sys.stdout.write(document)
    unverified = [row for row in rows if row.get("verdict") == "UNVERIFIED"]
    if unverified:
        first = unverified[0]
        print(
            f"error: {len(unverified)} row(s) UNVERIFIED, first: "
            f"{first.get('statement', cfg.command)} p={first['p']}: {first['detail']}",
            file=sys.stderr,
        )
    return _status(rows)


if __name__ == "__main__":
    sys.exit(main())
