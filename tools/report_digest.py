"""Print one sha256 digest per benchmark job's report document.

    python3 tools/report_digest.py [--workloads NAME ...] [--seeds 1 2 3] [--batches 4]

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
"""
from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from momentcert import cli  # noqa: E402


def default_workloads() -> list[str]:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [w["name"] for w in doc["workloads"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", choices=workloads.WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--batches", type=int, default=4, help="batches 0..N-1 of each seed")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "job.json"
        for workload in args.workloads or default_workloads():
            for seed in args.seeds:
                for batch in range(args.batches):
                    for job, doc in enumerate(workloads.make_batch(workload, seed, batch)):
                        config.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
                        status, document = cli.run(cli.load_config(str(config)))
                        digest = hashlib.sha256(document.encode("utf-8")).hexdigest()
                        print(workload, seed, batch, job, status, digest, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
