"""Golden report digests: the committed documents stay byte-identical.

tests/golden/digests.txt holds one `tools/report_digest.py` line per
benchmark job, `workload seed batch job exit sha256(document)`, and one
per configuration in tests/golden/configs/, `config name exit
sha256(document)`; every line is recomputed here.  A change that moves a document regenerates the
file with `python3 tools/report_digest.py --write`, and the diff of the
file names the documents that moved.
"""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "digests.txt"


def _report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_digests_are_recomputed():
    tool = _report_digest()
    assert tool.GOLDEN == GOLDEN
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert want, "the golden file is empty"
    jobs = [line for line in want if not line.startswith("config ")]
    batches = dict.fromkeys(tuple(line.split()[:3]) for line in jobs)
    got = [line for workload, seed, batch in batches
           for line in tool.batch_lines(workload, int(seed), int(batch))]
    got += tool.config_lines()
    assert len(got) == len(want)
    moved = [f"{w}  !=  {g}" for w, g in zip(want, got) if w != g]
    assert not moved, "documents moved:\n" + "\n".join(moved)
