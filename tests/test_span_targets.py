"""Every function and method the benchmark's traced run wraps still exists.

bench/spans.py wraps debatekd callables by name. Tier-1 traces only the
train workload, so without this check a renamed or deleted name in a module
only another workload reaches (say modes) would break just that workload's
traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module_name, attr, span", _targets(), ids=lambda v: str(v))
def test_span_target_resolves(module_name, attr, span):
    owner = importlib.import_module(module_name)
    *classes, name = attr.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # methods are patched through the class __dict__, so must be defined there
    target = owner.__dict__[name] if classes else getattr(owner, name)
    assert callable(target), f"{module_name}.{attr} ({span}) is not callable"
