"""The README's library example prints what its comments say."""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_prints_its_comments():
    text = README.read_text(encoding="utf-8")
    (code,) = re.findall(r"## Library example\n\n```python\n(.*?)```", text, re.S)
    for comment in ("# 16, 1/16", "# 64", "# 5x5 identity", "# 16 (0, 1, 2, 4)", "# True"):
        assert comment in code
    out = []
    exec(compile(code, str(README), "exec"), {"print": lambda *args: out.append(args)})
    (size, pmf), (volume,), (cov,), (gates, support), (same,) = out
    assert (size, str(pmf), volume) == (16, "1/16", 64)
    assert np.array_equal(cov, np.eye(5, dtype=np.int64))
    assert (gates, support, same) == (16, (0, 1, 2, 4), True)
