"""The README's Quick start block runs as written and prints what its
comments say."""
from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start() -> str:
    """The first python block after the Quick start heading."""
    section = README.read_text(encoding="utf-8").split("\n## Quick start\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_comments():
    code = quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README.name} (Quick start)", "exec"), {})
    printed = out.getvalue().splitlines()
    # A comment on a print line gives what it prints, each number rounded
    # to the digits shown and ended by "...".
    comments = [line.split("#", 1)[1].split() for line in code.splitlines()
                if line.startswith("print(")]
    assert len(printed) == len(comments) >= 2
    for got, want in zip(printed, comments):
        assert len(got.split()) == len(want), (got, want)
        for word, expected in zip(got.split(), want):
            if not expected.endswith("..."):
                assert word == expected, (got, want)
                continue
            digits = expected.removesuffix("...")
            decimals = len(digits.partition(".")[2])
            assert abs(float(word) - float(digits)) <= 0.5 * 10.0 ** -decimals, (got, want)
