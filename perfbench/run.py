"""momentcert benchmark: seeded batches of CLI jobs, checked against an
independent reference.

    python3 perfbench/run.py --workload verify-even-large --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One client runs one job at a time (a closed loop) through the
public `momentcert.cli.load_config` / `run` API.  A run executes whole
batches (see workloads.py) until `--seconds` have passed and at least
the workload's MIN_BATCHES (MIN_TRACED_BATCHES in a traced run) have
run.  Every job's exit code and document are checked against
reference.py; a mismatch makes `correct` false and the exit code 1.
Job times are reported in seconds of a reference host: each is scaled
by how long a fixed probe loop took around it (see slot_times).

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs each batch
twice, untraced and then traced, and prints the per-layer metrics of the
traced passes (per batch, see PER_LAYER) and the tracing overhead: the
traced batch time minus the untraced one.  The last line of
standard output is one JSON object; the lines before it list the same
numbers for people.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(HERE))

import instrument  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 5

# Each set-up sample is a fresh interpreter: import momentcert, then load
# the first batch's configurations.  An untraced run takes one sample
# after each batch and the rest at the end, so the samples do not all
# fall into one slow spell of a shared host; setup_s is their median.
_SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from momentcert.cli import load_config
for path in sys.argv[2:]:
    load_config(path)
print(time.perf_counter() - t0)
"""

END_TO_END = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "job_s.p50": "s",
              "peak_rss_mb": "MB", "converged_frac": "ratio"}

# name -> (unit, source).  Sources: ("calls"|"self_s", layer) and
# ("counter", key) are per traced batch; ("total", key) is the run's sum;
# ("distinct", layer) is distinct inputs over calls; ("ratio", numerator
# counter, denominator counter).
PER_LAYER = {
    "bounds.sorted.calls": ("count", ("calls", "bounds.sorted")),
    "bounds.sorted.self_s": ("s", ("self_s", "bounds.sorted")),
    "bounds.sorted.distinct_frac": ("ratio", ("distinct", "bounds.sorted")),
    "bounds.report.calls": ("count", ("calls", "bounds.report")),
    "bounds.report.self_s": ("s", ("self_s", "bounds.report")),
    "bounds.constants.self_s": ("s", ("self_s", "bounds.constants")),
    "bounds.check.self_s": ("s", ("self_s", "bounds.check")),
    "bounds.certifying_frac": ("ratio", ("ratio", "bounds.certifying", "bounds.reports")),
    "distmodel.moments.calls": ("count", ("calls", "distmodel.moments")),
    "distmodel.moments.self_s": ("s", ("self_s", "distmodel.moments")),
    "distmodel.charfn.calls": ("count", ("counter", "distmodel.charfn.calls")),
    "distmodel.charfn.points": ("count", ("counter", "distmodel.charfn.points")),
    "distmodel.charfn.self_s": ("s", ("self_s", "distmodel.charfn")),
    "distmodel.sample_with.draws": ("count", ("counter", "distmodel.sample_with.draws")),
    "distmodel.sample_with.self_s": ("s", ("self_s", "distmodel.sample_with")),
    "exactmoments.sum_even_moment.calls": ("count", ("calls", "exactmoments.sum_even_moment")),
    "exactmoments.sum_even_moment.profiles": (
        "count", ("counter", "exactmoments.sum_even_moment.profiles")),
    "exactmoments.sum_even_moment.self_s": ("s", ("self_s", "exactmoments.sum_even_moment")),
    "exactmoments.rademacher_abs_moment.signs": (
        "count", ("counter", "exactmoments.rademacher_abs_moment.signs")),
    "exactmoments.rademacher_abs_moment.self_s": (
        "s", ("self_s", "exactmoments.rademacher_abs_moment")),
    "charfn.haagerup_moment.calls": ("count", ("calls", "charfn.haagerup_moment")),
    "charfn.haagerup_moment.distinct_frac": ("ratio", ("distinct", "charfn.haagerup_moment")),
    "charfn.haagerup_moment.evaluations": (
        "count", ("counter", "charfn.haagerup_moment.evaluations")),
    "charfn.haagerup_moment.factor_evals": (
        "count", ("counter", "charfn.haagerup_moment.factor_evals")),
    "charfn.haagerup_moment.nonconverged": (
        "count", ("counter", "charfn.haagerup_moment.nonconverged")),
    "charfn.haagerup_moment.self_s": ("s", ("self_s", "charfn.haagerup_moment")),
    "charfn.grid_check.self_s": ("s", ("self_s", "charfn.grid_check")),
    "oracle.mc_moment.samples": ("count", ("counter", "oracle.mc_moment.samples")),
    "oracle.mc_moment.self_s": ("s", ("self_s", "oracle.mc_moment")),
    "oracle.exact_discrete_moment.self_s": ("s", ("self_s", "oracle.exact_discrete_moment")),
    "oracle.exact_discrete_moment.refused": (
        "count", ("counter", "oracle.exact_discrete_moment.refused")),
    "oracle.verify_report.fail": ("count", ("counter", "oracle.verify_report.fail")),
    "combinatorics.enumerate_indices.self_s": (
        "s", ("self_s", "combinatorics.enumerate_indices")),
    "combinatorics.elementary_symmetric.self_s": (
        "s", ("self_s", "combinatorics.elementary_symmetric")),
    "cli.run.self_s": ("s", ("self_s", "cli.run")),
    "cli.jobs": ("count", ("total", "cli.jobs")),
}
TRACE_EXTRA = {"trace.wall_s": "s", "trace.untraced_wall_s": "s", "trace.overhead_s": "s"}


class Run:
    """One benchmark run: batches of jobs, their timings and checks."""

    def __init__(self, workload: str, seed: int, cli, probe):
        self.workload, self.seed = workload, seed
        self.cli, self.probe = cli, probe
        self.work = WORK / f"{workload}-{seed}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.attempted = self.failed = self.unconverged = self.over_budget = 0
        self.problems: list[str] = []

    def write_batch(self, index: int) -> tuple[list[dict], list[str]]:
        docs = workloads.make_batch(self.workload, self.seed, index)
        paths = []
        for j, doc in enumerate(docs):
            path = self.work / f"batch{index:03d}-job{j:02d}.json"
            path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            paths.append(str(path))
        return docs, paths

    def run_batch(self, docs: list[dict], paths: list[str]) -> list[tuple[float, float, float]]:
        """Runs the batch's jobs in order; returns each job's wall and CPU
        seconds and the host probe's time around it (see host_probe)."""
        cfgs = [self.cli.load_config(p) for p in paths]
        times = []
        probe_before = host_probe()
        for doc, path, cfg in zip(docs, paths, cfgs):
            self.probe.begin_job()
            r0 = resource.getrusage(resource.RUSAGE_SELF)
            t0 = time.perf_counter()
            try:
                status, document = self.cli.run(cfg)
            except Exception as exc:  # a job that raises is a failed job
                status, document = None, None
                problems = [f"raised {exc!r}"]
            t1 = time.perf_counter()
            r1 = resource.getrusage(resource.RUSAGE_SELF)
            if document is not None:
                ck = reference.check_job(doc, status, document, self.probe.budgets)
                problems = ck.problems
                self.over_budget += bool(ck.over_budget)
            probe_after = host_probe()
            times.append((t1 - t0, (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime),
                          0.5 * (probe_before + probe_after)))
            probe_before = probe_after
            self.attempted += 1
            self.unconverged += self.probe.unconverged > 0
            if problems:
                self.failed += 1
                self.problems.extend(f"{Path(path).name}: {p}" for p in problems[:5])
        return times


# The host probe: a fixed pure-Python loop, timed before and after every
# job.  PROBE_REF_S is its time on the reference host (2-vCPU Intel Xeon
# VM, Python 3.11, an unloaded moment).
PROBE_LOOPS = 300_000
PROBE_REF_S = 0.0195


def host_probe() -> float:
    """Seconds the host takes for the probe loop now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOPS):
        s += i * i % 7
    return time.perf_counter() - t0


def setup_sample(paths: list[str]) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE, str(SRC), *paths],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def import_program():
    if not (SRC / "momentcert" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no momentcert sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import momentcert
    from momentcert import cli

    if Path(momentcert.__file__).resolve().parent != (SRC / "momentcert").resolve():
        raise SystemExit(f"perfbench: imported momentcert from {momentcert.__file__}, "
                         f"not from {SRC}")
    return cli


def slot_times(batches: list[list[tuple]], field: int, host: bool = True) -> list[float]:
    """Each job slot's median time over the run's batches, in seconds of
    the reference host.

    On a shared host other loads slow every job by up to half, for
    seconds to minutes at a time, so raw times move with the host more
    than with the program.  Each job's time is divided by the host probe's
    time around it and multiplied by PROBE_REF_S; with host=False the raw
    times are used."""
    def scaled(t):
        return t[field] * PROBE_REF_S / t[2] if host else t[field]
    return [statistics.median(scaled(b[j]) for b in batches)
            for j in range(len(batches[0]))]


def batch_time(batches: list[list[tuple]], field: int, host: bool = True) -> float:
    """Time to finish every job of a batch: the sum of its slot times."""
    return math.fsum(slot_times(batches, field, host))


def per_layer_metrics(tracer: instrument.Tracer, batches: int) -> dict:
    totals = tracer.layer_totals()
    distinct = tracer.distinct()
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind = source[0]
        if kind in ("calls", "self_s"):
            calls, secs = totals.get(source[1], (0, 0.0))
            value = (calls if kind == "calls" else secs) / batches
        elif kind in ("counter", "total"):
            value = tracer.counters.get(source[1], 0.0)
            value /= batches if kind == "counter" else 1
        elif kind == "distinct":
            calls = totals.get(source[1], (0, 0.0))[0]
            value = distinct[source[1]] / calls if calls else 1.0
        else:
            den = tracer.counters.get(source[2], 0.0)
            value = tracer.counters.get(source[1], 0.0) / den if den else 1.0
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = import_program()
    threads = len(os.sched_getaffinity(0))
    os.environ["MOMENT_CERT_THREADS"] = str(threads)
    probe = instrument.Probe()
    probe.install()
    run = Run(args.workload, args.seed, cli, probe)
    first = run.write_batch(0)

    batches, traced = [], []
    tracer = instrument.Tracer(probe) if args.trace else None
    setup: list[float] = []
    start = time.perf_counter()
    index = 0
    while True:
        docs, paths = first if index == 0 else run.write_batch(index)
        batches.append(run.run_batch(docs, paths))
        if tracer is None and len(setup) < SETUP_SAMPLES:
            t0 = time.perf_counter()
            setup.append(setup_sample(first[1]))
            start += time.perf_counter() - t0  # set-up samples do not count as run time
        if tracer is not None:
            tracer.install()
            try:
                traced.append(run.run_batch(docs, paths))
            finally:
                tracer.uninstall()
        index += 1
        least = (workloads.MIN_TRACED_BATCHES if tracer is not None
                 else workloads.MIN_BATCHES)[args.workload]
        if time.perf_counter() - start >= args.seconds and index >= least:
            break

    correct = run.failed == 0
    if tracer is not None:
        metrics = per_layer_metrics(tracer, len(traced))
        traced_s, untraced_s = batch_time(traced, 0), batch_time(batches, 0)
        for name, value in (("trace.wall_s", traced_s), ("trace.untraced_wall_s", untraced_s),
                            ("trace.overhead_s", traced_s - untraced_s)):
            metrics[name] = {"value": value, "unit": TRACE_EXTRA[name]}
        tracer.write(WORK / f"spans-{args.workload}-{args.seed}.jsonl")
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        while len(setup) < SETUP_SAMPLES:
            setup.append(setup_sample(first[1]))
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": batch_time(batches, 0),
            "cpu_s": batch_time(batches, 1),
            "job_s.p50": statistics.median(slot_times(batches, 0)),
            "peak_rss_mb": peak_kb / 1024.0,
            "converged_frac": 1.0 - run.unconverged / run.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    for problem in run.problems[:20]:
        print(f"MISMATCH {problem}", file=sys.stderr)
    print(f"# workload={args.workload} seed={args.seed} threads={threads} "
          f"batches={index} jobs={run.attempted} failed={run.failed} "
          f"fail_frac={run.failed / run.attempted:.6g} "
          f"unconverged_frac={run.unconverged / run.attempted:.6g} "
          f"over_budget_frac={run.over_budget / run.attempted:.6g}")
    print(f"# raw_wall_s={batch_time(batches, 0, host=False):.6g} "
          f"host_probe_s.p50={statistics.median(t[2] for b in batches for t in b):.6g} "
          f"reference={PROBE_REF_S}")
    print("# batch_wall_s " + " ".join(f"{sum(t[0] for t in b):.3f}" for b in batches))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
