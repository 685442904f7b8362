"""The library names that the benchmark harness in perfbench/ reads.

perfbench counts, calls or patches these by name, so a rename in the library
would break the benchmark and not the library's own tests: here it fails a
test at once.
"""

import importlib

import pytest

from perfbench import tracing

# (module, attribute path) of every library name perfbench reads, beyond its
# generic walk over the public functions
READ_BY_NAME = [(f"endoscope.{module}", name) for module, names in tracing.COUNTED_PRIVATE.items() for name in names]
READ_BY_NAME += [
    ("endoscope.lefschetz", "companion_oracle"),  # perfbench/run.py, judge
    ("endoscope.jobs", "fixed_points_exact"),  # perfbench/tests
    ("endoscope", "NFElement.norm_q"),  # perfbench/tests
]


@pytest.mark.parametrize("module, path", READ_BY_NAME, ids=lambda v: v)
def test_name_read_by_the_benchmark_exists(module, path):
    target = importlib.import_module(module)
    for part in path.split("."):
        target = getattr(target, part)
    assert callable(target)
