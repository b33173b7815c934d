"""Exact reports of the comparison checkers on branches ``verify`` never runs.

The golden CLI digests cover all nine suites, but the suites reach only the
exact routes of ``check_skorokhod_comparison`` and
``check_particle_comparison``, never ``check_skorokhod_removal``, and neither
the ``"eq"`` (lo = 1, hi = N) nor the ``"ge"`` (hi = N) branch of
``check_removal_corollaries``.  Each case here runs one such branch on fixed
inputs and pins the JSON of its report, which carries the worst margin, its
time, component and relation, plus the report's details.  A refactor of the
checkers must leave these strings unchanged.  They were recorded with
Python 3.11 and numpy 2.4 on x86-64.

``python tests/test_comparison_pins.py`` prints the strings of the current code.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from orthantsim.comparison import (
    check_particle_comparison,
    check_removal_corollaries,
    check_skorokhod_comparison,
    check_skorokhod_removal,
    random_cbp_spec,
    random_dominated_matrix_pair,
    random_dominated_params,
    random_dominated_sampled_pair,
    random_reflection_matrix,
)
from orthantsim.errors import PreconditionError
from orthantsim.mmatrix import ReflectionMatrix
from orthantsim.particles import CollisionParams
from orthantsim.paths import SampledPath, standard_regular_approximation


def _skorokhod_grid():
    rng = np.random.default_rng(71)
    R, Rbar = random_dominated_matrix_pair(rng, 3)
    X, Xbar = random_dominated_sampled_pair(rng, 3, grid=40)
    return check_skorokhod_comparison(R, Rbar, X, Xbar)


def _particle_grid():
    rng = np.random.default_rng(72)
    q, qbar = random_dominated_params(rng, 3)
    X, Xbar = random_dominated_sampled_pair(rng, 3, grid=40)
    # a constant offset keeps the increments and orders both starts
    spread = np.array([0.0, 2.0, 4.0])
    return check_particle_comparison(
        q, qbar, SampledPath(X.times, X.values + spread),
        SampledPath(Xbar.times, Xbar.values + spread))


def _skorokhod_removal_regular():
    rng = np.random.default_rng(73)
    R = random_reflection_matrix(rng, 4)
    X, _ = random_dominated_sampled_pair(rng, 4, grid=30)
    return check_skorokhod_removal(R, standard_regular_approximation(X, 10),
                                   (1, 3))


def _skorokhod_removal_sampled():
    rng = np.random.default_rng(74)
    R = random_reflection_matrix(rng, 4)
    X, _ = random_dominated_sampled_pair(rng, 4, grid=24)
    return check_skorokhod_removal(R, X, (2, 3, 4))


def _removal_eq():
    spec = random_cbp_spec(np.random.default_rng(75), 4, steps=60)
    return check_removal_corollaries(spec, 1, 4, level=20)


def _removal_ge():
    spec = random_cbp_spec(np.random.default_rng(75), 4, steps=60)
    return check_removal_corollaries(spec, 2, 4, level=20)


CASES = {
    "skorokhod_grid": _skorokhod_grid,
    "particle_grid": _particle_grid,
    "skorokhod_removal_regular": _skorokhod_removal_regular,
    "skorokhod_removal_sampled": _skorokhod_removal_sampled,
    "removal_eq": _removal_eq,
    "removal_ge": _removal_ge,
}

# name -> (json.dumps(report.to_jsonable()), report.details)
EXPECTED = {
    'particle_grid': ('{"passed": true, "max_violation": -0.09247325923745431, "location": {"t": 0.0, "component": 1, "relation": "Y<=Ybar"}, "tol": 1.02e-06, "seed": null}',
        {'route': 'grid'}),
    'removal_eq': ('{"passed": true, "max_violation": 0.0, "location": {"t": 0.0, "component": 1, "relation": "Z<=Zbar"}, "tol": 1e-09, "seed": null}',
        {'lo': 1, 'hi': 4, 'positions': 'eq'}),
    'removal_ge': ('{"passed": true, "max_violation": 1.1102230246251565e-15, "location": {"t": 0.5310058118537736, "component": 2, "relation": "Z<=Zbar"}, "tol": 1e-09, "seed": null}',
        {'lo': 2, 'hi': 4, 'positions': 'ge'}),
    'skorokhod_grid': ('{"passed": true, "max_violation": 0.0, "location": {"t": 0.025, "component": 1, "relation": "dL>=dLbar"}, "tol": 1e-06, "seed": null}',
        {'route': 'grid'}),
    'skorokhod_removal_regular': ('{"passed": true, "max_violation": 0.0, "location": {"t": 0.0, "component": 1, "relation": "Z<=Zbar"}, "tol": 1e-09, "seed": null}',
        {'members': (1, 3)}),
    'skorokhod_removal_sampled': ('{"passed": true, "max_violation": 0.0, "location": {"t": 0.0, "component": 1, "relation": "Z<=Zbar"}, "tol": 1e-09, "seed": null}',
        {'members': (2, 3, 4)}),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_checker_report_matches_pin(name):
    report = CASES[name]()
    assert (json.dumps(report.to_jsonable()), report.details) == EXPECTED[name]


@pytest.mark.parametrize("check", [check_skorokhod_comparison,
                                   check_particle_comparison])
def test_mixed_driver_kinds_message(check):
    X, Xbar = random_dominated_sampled_pair(np.random.default_rng(76), 2,
                                            grid=8)
    X = SampledPath(X.times, X.values + [0.0, 2.0])
    Xbar = SampledPath(Xbar.times, Xbar.values + [0.0, 2.0])
    first = (ReflectionMatrix(np.eye(2)) if check is check_skorokhod_comparison
             else CollisionParams.symmetric(2))
    with pytest.raises(PreconditionError,
                       match="^need either two coupled regular paths or two "
                             "sampled paths$"):
        check(first, first, standard_regular_approximation(X, 2), Xbar)


if __name__ == "__main__":
    for case in sorted(CASES):
        report = CASES[case]()
        print(f"    {case!r}: ({json.dumps(report.to_jsonable())!r},\n"
              f"        {report.details!r}),")
