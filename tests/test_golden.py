"""Golden report digests: the committed documents stay byte-identical.

tests/golden/digests.txt holds one `tools/report_digest.py` line per
benchmark job, `workload seed batch job exit sha256(document)`, and one
per configuration in tests/golden/configs/, `config name exit
sha256(document)`; every line is recomputed here.  A change that moves a document regenerates the
file with `python3 tools/report_digest.py --write`, and the diff of the
file names the documents that moved.  Every document written as JSON
is also parsed as strict JSON, without `NaN` or `Infinity`.
"""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "digests.txt"


def _report_digest():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "tools" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def tool():
    return _report_digest()


@pytest.fixture(scope="module")
def documents(tool):
    """(label, exit, document) for every line of the golden file, in its order."""
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    assert want, "the golden file is empty"
    jobs = [line for line in want if not line.startswith("config ")]
    batches = dict.fromkeys(tuple(line.split()[:3]) for line in jobs)
    docs = [job for workload, seed, batch in batches
            for job in tool.batch_documents(workload, int(seed), int(batch))]
    return docs + [tool.config_document(path) for path in sorted(tool.CONFIGS.glob("*.json"))]


def test_golden_digests_are_recomputed(tool, documents):
    assert tool.GOLDEN == GOLDEN
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    got = [tool.digest_line(*doc) for doc in documents]
    assert len(got) == len(want)
    moved = [f"{w}  !=  {g}" for w, g in zip(want, got) if w != g]
    assert not moved, "documents moved:\n" + "\n".join(moved)


def _refuse(constant: str):
    raise AssertionError(f"{constant} is not JSON")


def test_json_documents_are_strict(tool, documents):
    """Every document but a CSV one or a refused config's `error:` line
    parses with no `NaN`, `Infinity` or `-Infinity`."""
    for label, status, document in documents:
        if label.startswith("config "):
            config = json.loads((tool.CONFIGS / label.split()[1]).read_text(encoding="utf-8"))
            if config.get("output_format") == "csv" or document.startswith("error: "):
                continue
        try:
            json.loads(document, parse_constant=_refuse)
        except AssertionError as exc:
            raise AssertionError(f"{label} (exit {status}): {exc}") from None
