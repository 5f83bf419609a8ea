import importlib
import types
from pathlib import Path

import pytest

import uctmc
from uctmc import model as um


def test_every_traced_name_resolves(sir20, mean_valuation):
    # perfbench/tracer.py wraps uctmc's entry points by name, so a renamed one
    # would stop every traced benchmark run.  The tracer's source is executed
    # into a fresh namespace, so nothing is imported or written beside it.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(tracer))
    assert tracer.TRACED
    for module, name, _ in tracer.TRACED:
        value = getattr(importlib.import_module(f"uctmc.{module}"), name, None)
        assert callable(value), f"uctmc.{module}.{name}"
    # the one traced name left without a body is a stub that refuses
    assert not hasattr(uctmc, "build_partial")
    with pytest.raises(uctmc.ModelError, match="^partial chains were removed$"):
        um.build_partial(sir20, mean_valuation, 0.1)
