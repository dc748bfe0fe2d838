"""The README's library example runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    """The one python block of the README's "Quick start (library)" section."""
    section = README.read_text().split("## Quick start (library)\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"^```python\n(.*?)^```$", section, flags=re.S | re.M)
    assert len(blocks) == 1
    return blocks[0]


def test_the_quick_start_runs(capsys):
    namespace = {"__name__": "readme"}
    exec(compile(quick_start(), str(README), "exec"), namespace)
    transcript, sums = namespace["transcript"], namespace["sums"]
    assert np.array_equal(sums, transcript.aggregate)
    assert np.array_equal(transcript.aggregate, np.sum(namespace["digits"], axis=0))
    assert capsys.readouterr().out
