"""Library names that the benchmark harness in ``bench/`` relies on.

``bench/tracing.py`` wraps module-level functions and the solution classes'
``to_csv`` methods by name, and ``bench/workloads.py`` reads solution events
through ``events_to_jsonable``.  Renaming or folding one of them away must
fail here rather than in a benchmark run.
"""

import dataclasses
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


# bench/workloads.py builds its corrupted outputs with dataclasses.replace:
# _corrupt_solution replaces a solution's Z, VerifyCorollaries.corrupt an
# instance of a suite result

SOLVES = {
    "skorokhod": lambda: skorokhod.solve_regular(
        mmatrix.ReflectionMatrix([[1.0, -0.4], [-0.3, 1.0]]),
        paths.RegularPath([0.3, 0.1], [0.0, 0.5, 1.0], (1, 2), [-1.0, -0.8])),
    "particles": lambda: particles.solve_competing(
        particles.CollisionParams.symmetric(3),
        paths.RegularPath([0.0, 0.2, 0.5], [0.0, 0.4, 0.9], (1, 3), [1.5, -1.0])),
}


@pytest.mark.parametrize("kind", sorted(SOLVES))
def test_replace_of_z_keeps_the_type_and_the_other_fields(kind):
    sol = SOLVES[kind]()
    Z = type(sol.Z)(sol.Z.times, sol.Z.values + 1.0)
    bad = dataclasses.replace(sol, Z=Z)
    assert type(bad) is type(sol)
    assert bad.Z is Z
    for f in dataclasses.fields(sol):
        if f.name != "Z":
            assert getattr(bad, f.name) is getattr(sol, f.name)


def test_replace_works_on_suite_and_instance_results():
    res = comparison.run_suite("counterexample", 1, 0)
    bad = dataclasses.replace(res.results[0], report=None, error="precondition: injected")
    assert type(bad) is comparison.InstanceResult
    assert (bad.index, bad.seed, bad.passed) == (res.results[0].index, res.results[0].seed,
                                                 False)
    out = dataclasses.replace(res, results=(bad,))
    assert type(out) is comparison.SuiteResult
    assert (out.name, out.results, out.passed) == (res.name, (bad,), False)
