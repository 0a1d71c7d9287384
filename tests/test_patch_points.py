"""The benchmark's tracer wraps functions by the names their callers look up.

``perfbench/spans.py`` lists them; a name that a refactor moves or drops
would make every traced benchmark run fail, so this checks each one here.
"""

import sys

import preprank
import preprank.cli  # noqa: F401 - the tracer patches these modules too
import preprank.evaluation  # noqa: F401
import preprank.openml  # noqa: F401
from conftest import ROOT

sys.path.insert(0, str(ROOT))
from perfbench import spans  # noqa: E402


def test_every_traced_name_resolves_to_a_function():
    points = spans._patch_points(preprank)
    assert len(points) > 20
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in points
        if not callable(getattr(module, attr, None))
    ]
    assert missing == []
