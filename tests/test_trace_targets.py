"""Names that callers look up must resolve.  The benchmark's tracer wraps
library callables by name; every name it lists must resolve, or its trace
mode fails on a rename the rest of the suite does not see.  The same holds
for the package's ``__all__``."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def span_targets():
    if not TRACING.is_file():
        return []
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [target for targets, _ in tracing.SPANS.values() for target in targets]


@pytest.mark.skipif(not TRACING.is_file(), reason="perfbench/ is absent")
@pytest.mark.parametrize("target", span_targets())
def test_traced_target_resolves(target):
    module_name, attr = target.split(":")
    module = importlib.import_module(f"simposets.{module_name}")
    if "." in attr:
        # methods are patched on the class that defines them
        cls_name, meth = attr.split(".")
        assert meth in vars(getattr(module, cls_name)), target
    else:
        assert callable(getattr(module, attr, None)), target


def test_public_names_resolve():
    simposets = importlib.import_module("simposets")
    missing = [name for name in simposets.__all__ if not hasattr(simposets, name)]
    assert missing == []
    assert len(set(simposets.__all__)) == len(simposets.__all__)
