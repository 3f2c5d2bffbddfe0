"""The library tour of README.md runs as written, so that the docs cannot
drift from the API."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_library_tour_runs():
    tour = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
    assert "apollonian.standard_seed" in tour
    exec(compile(tour, str(README), "exec"), {})
