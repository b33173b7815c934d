"""Library names that the benchmark harness in ``bench/`` relies on.

``bench/tracing.py`` wraps module-level functions and the solution classes'
``to_csv`` methods by name, and ``bench/workloads.py`` reads solution events
through ``events_to_jsonable``.  Renaming or folding one of them away must
fail here rather than in a benchmark run.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from orthantsim import cli, comparison, mmatrix, particles, paths, skorokhod

_spec = importlib.util.spec_from_file_location(
    "bench_tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)

LIB = SimpleNamespace(paths=paths, mmatrix=mmatrix, skorokhod=skorokhod,
                      particles=particles, comparison=comparison, cli=cli)
SOLUTIONS = (skorokhod.SkorokhodSolution, particles.ParticleSystemSolution)
WRAPPED = [(owner, attr) for owner, attr, _ in tracing._targets(LIB)]
WRAPPED.append((particles, "invert_system"))  # wrapped to count calls


@pytest.mark.parametrize("owner, attr", WRAPPED,
                         ids=[f"{o.__name__}.{a}" for o, a in WRAPPED])
def test_wrapped_name_resolves(owner, attr):
    assert callable(getattr(owner, attr, None))


@pytest.mark.parametrize("cls", SOLUTIONS)
def test_to_csv_is_defined_on_the_class_itself(cls):
    # the tracer patches it through vars(cls), so an inherited one is missed
    assert "to_csv" in vars(cls)


@pytest.mark.parametrize("cls", SOLUTIONS)
def test_events_to_jsonable_exists(cls):
    assert callable(getattr(cls, "events_to_jsonable", None))
