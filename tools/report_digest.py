"""Print one sha256 digest per benchmark job's report document.

    python3 tools/report_digest.py [--workloads NAME ...] [--seeds 1 2 3] [--batches 4]
                                   [--configs] [--write]

Each output line is `workload seed batch job exit sha256(document)`.  The
jobs are those of perfbench/workloads.make_batch, by default for every
workload that BENCHMARK.json declares, seeds 1-3 and batches 0-3; each
runs through the public `momentcert.cli.load_config` / `run` API, with
the program imported from this checkout's `src/`.  Configurations go to
a temporary directory, which is removed on exit.

Two checkouts, or two runs on different CPU sets, that print the same
lines wrote byte-identical documents with the same exit codes.  Monte
Carlo uses one thread per CPU the process may run on, so pinning a run
to one CPU checks that no report depends on the thread count:

    taskset -c 0 python3 tools/report_digest.py > one.txt
    python3 tools/report_digest.py > all.txt
    diff one.txt all.txt

`--configs` prints instead one line `config name exit sha256(document)`
per configuration in tests/golden/configs/, by file name: documents of
every command at sizes up to 10^6 summands, on exact engines only.  A
configuration that `momentcert` refuses (exit 2, one line on stderr and
no document) digests that line.

`--write` regenerates tests/golden/digests.txt instead of printing, by
default from the verify-even-large documents, which no Monte Carlo
draw reaches, followed by the config lines; tests/test_golden.py
recomputes every line of that file.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from momentcert import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "digests.txt"
GOLDEN_WORKLOADS = ("verify-even-large",)
CONFIGS = ROOT / "tests" / "golden" / "configs"


def default_workloads() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in doc["workloads"]]


def batch_lines(workload: str, seed: int, batch: int) -> list[str]:
    """The digest line of every job of one batch, in job order."""
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "job.json"
        for job, doc in enumerate(workloads.make_batch(workload, seed, batch)):
            config.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
            status, document = cli.run(cli.load_config(str(config)))
            digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
            lines.append(f"{workload} {seed} {batch} {job} {status} {digest}")
    return lines


def config_line(path: Path) -> str:
    """The digest line of the document that `momentcert --config path`
    writes, or, where it exits 2 without a document, of its `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        status = cli.main(["--config", str(path)])
    document = out.getvalue() or err.getvalue()
    digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
    return f"config {path.name} {status} {digest}"


def config_lines() -> list[str]:
    return [config_line(path) for path in sorted(CONFIGS.glob("*.json"))]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--batches", type=int, default=4, help="batches 0..N-1 of each seed")
    parser.add_argument("--configs", action="store_true",
                        help=f"print the lines of {CONFIGS.relative_to(ROOT)}/*.json instead")
    parser.add_argument("--write", action="store_true", help=f"write {GOLDEN.relative_to(ROOT)}")
    args = parser.parse_args(argv)
    if args.configs and not args.write:
        for path in sorted(CONFIGS.glob("*.json")):
            print(config_line(path), flush=True)
        return 0
    names = args.workloads or (GOLDEN_WORKLOADS if args.write else default_workloads())
    lines = []
    for workload in names:
        for seed in args.seeds:
            for batch in range(args.batches):
                for line in batch_lines(workload, seed, batch):
                    lines.append(line)
                    if not args.write:
                        print(line, flush=True)
    if args.write:
        lines += config_lines()
        GOLDEN.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
