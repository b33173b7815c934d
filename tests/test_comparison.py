import math

import numpy as np
import pytest

from orthantsim.comparison import (
    check_initial_shift,
    check_parameter_monotonicity,
    check_particle_comparison,
    check_removal_corollaries,
    check_skorokhod_comparison,
    check_skorokhod_removal,
    counterexample_positive_offdiag,
    random_cbp_spec,
    random_dominated_matrix_pair,
    random_dominated_params,
    random_dominated_sampled_pair,
    run_suite,
)
from orthantsim.errors import ParameterError, PreconditionError
from orthantsim.mmatrix import ReflectionMatrix
from orthantsim.particles import (
    CbpSpec,
    CollisionParams,
    solve_regular_linear,
)
from orthantsim.paths import RegularPath, SampledPath, coupled_regular_approximation

R1 = ReflectionMatrix([[1.0]])


def line(vec, T=1.0, axis=1, slope=0.0):
    return RegularPath(np.asarray(vec, dtype=float), np.asarray([0.0, T]),
                       (axis,), np.asarray([slope]))


# ------------------------------------------------- Skorohod comparison

def test_skorokhod_equal_inputs_zero_margin():
    X = line([1.0, 2.0], axis=1, slope=-0.4)
    R = ReflectionMatrix([[1, -0.3], [-0.2, 1]])
    rep = check_skorokhod_comparison(R, R, X, X)
    assert rep.passed
    assert rep.max_violation == pytest.approx(0.0, abs=1e-15)


def test_skorokhod_scalar_closed_forms():
    # Z = max(1-2t, 0) stays below Zbar = max(1-t, 0) and gathers more
    # boundary push
    X = line([1.0], slope=-2.0)
    Xbar = line([1.0], slope=-1.0)
    rep = check_skorokhod_comparison(R1, R1, X, Xbar)
    assert rep.passed
    assert rep.max_violation <= 0.0


def test_skorokhod_matrix_hypothesis_violation():
    R = ReflectionMatrix([[1, -0.5], [-0.5, 1]])
    Rbar = ReflectionMatrix(np.eye(2))
    X = line([1.0, 1.0])
    with pytest.raises(PreconditionError):
        check_skorokhod_comparison(Rbar, R, X, X)


def test_skorokhod_path_hypothesis_violation():
    X = line([1.0], slope=-1.0)
    Xbar = line([1.0], slope=-2.0)  # steeper: increments not dominated
    with pytest.raises(PreconditionError):
        check_skorokhod_comparison(R1, R1, X, Xbar)


def test_skorokhod_uncoupled_paths_rejected():
    X = RegularPath([1.0], [0.0, 1.0], (1,), [-1.0])
    Xbar = RegularPath([1.0], [0.0, 0.5, 1.0], (1, 1), [-1.0, -1.0])
    with pytest.raises(PreconditionError):
        check_skorokhod_comparison(R1, R1, X, Xbar)


def test_skorokhod_randomized_exact_suite():
    rng = np.random.default_rng(50)
    for _ in range(40):
        d = int(rng.integers(1, 6))
        R, Rbar = random_dominated_matrix_pair(rng, d)
        X, Xbar = random_dominated_sampled_pair(rng, d)
        Xr, Xbarr = coupled_regular_approximation(X, Xbar, 5)
        rep = check_skorokhod_comparison(R, Rbar, Xr, Xbarr)
        assert rep.passed and rep.max_violation <= 1e-9


def test_adjacent_step_domination_telescopes_to_all_pairs():
    # meta-test: the checkers compare boundary-term increments per adjacent
    # recorded step; brute-force all (s, t) pairs on a small instance to
    # confirm the telescoped relation really holds
    rng = np.random.default_rng(49)
    R, Rbar = random_dominated_matrix_pair(rng, 3)
    X, Xbar = random_dominated_sampled_pair(rng, 3, grid=12)
    Xr, Xbarr = coupled_regular_approximation(X, Xbar, 4)
    from orthantsim.skorokhod import solve_regular

    sol, bar = solve_regular(R, Xr), solve_regular(Rbar, Xbarr)
    ts = np.union1d(sol.L.times, bar.L.times)
    L, Lbar = sol.L.values_at(ts), bar.L.values_at(ts)
    step_ok = (np.diff(Lbar, axis=0) - np.diff(L, axis=0)).max() <= 1e-9
    assert step_ok
    for i in range(len(ts)):
        for j in range(i, len(ts)):
            assert np.all(L[j] - L[i] >= Lbar[j] - Lbar[i] - 1e-9)


def test_skorokhod_grid_route():
    rng = np.random.default_rng(51)
    X, Xbar = random_dominated_sampled_pair(rng, 3, grid=200)
    R, Rbar = random_dominated_matrix_pair(rng, 3)
    rep = check_skorokhod_comparison(R, Rbar, X, Xbar)
    assert rep.passed
    assert rep.details["route"] == "grid"


# ------------------------------------------------- particle comparison

def test_particle_equal_inputs():
    q = CollisionParams.symmetric(3)
    X = line([0.0, 0.5, 1.0], axis=2, slope=1.0)
    rep = check_particle_comparison(q, q, X, X)
    assert rep.passed and rep.max_violation == pytest.approx(0.0, abs=1e-15)


def test_particle_block_speed_monotone_in_qplus():
    # the upper particle's larger push share speeds the pair up
    q = CollisionParams.symmetric(2)
    qbar = CollisionParams.from_qminus([0.3, 0.5], qplus1=0.5)  # qbar+_2 = 0.7
    X = line([0.0, 0.0], axis=1, slope=1.0)
    rep = check_particle_comparison(q, qbar, X, X)
    assert rep.passed
    bar = solve_regular_linear(qbar, [0.0, 0.0], 1, 1.0, 1.0)
    assert bar.Y.evaluate(1.0)[0] == pytest.approx(0.7)


def test_particle_hypothesis_violation():
    q, qbar = random_dominated_params(np.random.default_rng(52), 3)
    X = line([0.0, 0.5, 1.0])
    with pytest.raises(PreconditionError):
        check_particle_comparison(qbar, q, X, X)


def test_particle_randomized_regular_linear_suite():
    rng = np.random.default_rng(53)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        q, qbar = random_dominated_params(rng, n)
        y0 = np.cumsum(rng.uniform(0.0, 0.4, n))
        ybar0 = y0 + np.cumsum(rng.uniform(0.0, 0.3, n))
        i = int(rng.integers(1, n + 1))
        a = float(rng.uniform(-2, 2))
        abar = a + float(rng.uniform(0, 1.5))
        rep = check_particle_comparison(
            q, qbar, line(y0, axis=i, slope=a), line(ybar0, axis=i, slope=abar))
        assert rep.passed and rep.max_violation <= 1e-9


# ---------------------------------------------------- removal corollaries

def test_removal_explicit_zero_noise_cascade():
    # top particle falls onto two idle ones: blocks {3}, {2,3}, {1,2,3}
    q = CollisionParams.symmetric(3)
    full = solve_regular_linear(q, [0.0, 1.0, 2.0], 3, -1.0, 4.0)
    assert [e.tau for e in full.events] == [1.0, 3.0]
    assert np.allclose(full.Y.evaluate(4.0), -np.ones(3) / 3)
    assert np.allclose(full.L.evaluate(4.0), [2 / 3, 10 / 3])
    assert full.Y.evaluate(2.0)[1] == pytest.approx(0.5)
    # the two retained particles alone never move: the full system sits below
    sub = solve_regular_linear(CollisionParams.symmetric(2), [0.0, 1.0],
                               1, 0.0, 4.0)
    ts = np.linspace(0, 4, 17)
    assert np.all(full.Y.values_at(ts)[:, :2] <= sub.Y.values_at(ts) + 1e-12)


def test_removal_remove_nothing_is_equality():
    spec = random_cbp_spec(np.random.default_rng(54), 4, steps=200)
    rep = check_removal_corollaries(spec, 1, 4, level=40)
    assert rep.passed
    assert abs(rep.max_violation) < 1e-12


def test_removal_right_and_two_sided_randomized():
    rng = np.random.default_rng(55)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        spec = random_cbp_spec(rng, n, steps=200)
        hi = int(rng.integers(2, n))
        rep = check_removal_corollaries(spec, 1, hi, level=50)
        assert rep.passed and rep.max_violation <= 1e-9
        lo = int(rng.integers(2, n))
        rep2 = check_removal_corollaries(spec, lo, n, level=50)
        assert rep2.passed and rep2.max_violation <= 1e-9
        if n >= 4:
            rep3 = check_removal_corollaries(spec, 2, n - 1, level=50)
            assert rep3.passed and rep3.max_violation <= 1e-9


def test_removal_bad_range():
    spec = random_cbp_spec(np.random.default_rng(56), 3, steps=50)
    with pytest.raises(PreconditionError):
        check_removal_corollaries(spec, 2, 2)


def test_skorokhod_removal_random():
    rng = np.random.default_rng(57)
    for _ in range(8):
        d = int(rng.integers(2, 6))
        R, _ = random_dominated_matrix_pair(rng, d)
        X, _ = random_dominated_sampled_pair(rng, d, grid=64)
        k = int(rng.integers(1, d + 1))
        members = tuple(sorted(rng.choice(np.arange(1, d + 1), size=k,
                                          replace=False).tolist()))
        rep = check_skorokhod_removal(R, X, members, level=32)
        assert rep.passed and rep.max_violation <= 1e-9


@pytest.mark.parametrize("members", [(1.5,), (True,), (1, 2.0)])
def test_skorokhod_removal_reads_integers_only(members):
    # (1.5,) was read as member 1
    rng = np.random.default_rng(57)
    R, _ = random_dominated_matrix_pair(rng, 2)
    X, _ = random_dominated_sampled_pair(rng, 2, grid=16)
    with pytest.raises(PreconditionError):
        check_skorokhod_removal(R, X, members, level=4)
    rep = check_skorokhod_removal(R, X, np.array([2]), level=4)
    assert rep.passed and rep.to_jsonable() == check_skorokhod_removal(
        R, X, (2,), level=4).to_jsonable()


# -------------------------------------------------------- initial shift

def test_initial_shift_equal_start():
    spec = random_cbp_spec(np.random.default_rng(58), 3, steps=100)
    rep = check_initial_shift(spec, y0bar=np.asarray(spec.y0), level=25)
    assert rep.passed and abs(rep.max_violation) < 1e-12


def test_initial_shift_uniform_translation():
    spec = random_cbp_spec(np.random.default_rng(59), 4, steps=100)
    c = 0.75
    rep = check_initial_shift(spec, y0bar=np.asarray(spec.y0) + c, level=25)
    assert rep.passed
    assert rep.max_violation == pytest.approx(-c, abs=1e-12)


def test_initial_shift_gap_part():
    spec = random_cbp_spec(np.random.default_rng(60), 4, steps=100)
    z0bar = np.diff(spec.y0) + np.asarray([0.2, 0.0, 0.5])
    rep = check_initial_shift(spec, z0bar=z0bar, level=25)
    assert rep.passed and rep.max_violation <= 1e-9
    assert rep.details.get("part_ii")


def test_initial_shift_requires_hypothesis():
    spec = random_cbp_spec(np.random.default_rng(61), 3, steps=50)
    with pytest.raises(PreconditionError):
        check_initial_shift(spec)
    with pytest.raises(PreconditionError):
        check_initial_shift(spec, y0bar=np.asarray(spec.y0) - 1.0)


# ------------------------------------------------ parameter monotonicity

def test_parameter_equal_everything():
    spec = random_cbp_spec(np.random.default_rng(62), 3, steps=100)
    rep = check_parameter_monotonicity(spec, qbar=spec.q, level=25)
    assert rep.passed and abs(rep.max_violation) < 1e-12


def test_parameter_uniform_drift_translation():
    spec = random_cbp_spec(np.random.default_rng(63), 3, steps=100)
    c = 0.6
    rep = check_parameter_monotonicity(spec, gbar=np.asarray(spec.g) + c,
                                       level=25)
    assert rep.passed
    # Ybar = Y + c*t under shared noise: the worst margin sits at t = 0
    assert rep.max_violation == pytest.approx(0.0, abs=1e-12)


def test_parameter_qplus_randomized():
    rng = np.random.default_rng(64)
    for _ in range(6):
        n = int(rng.integers(2, 6))
        spec = random_cbp_spec(rng, n, steps=100)
        q, qbar = random_dominated_params(rng, n)
        spec = CbpSpec(spec.g, spec.sigma2, q, spec.y0, spec.horizon,
                       spec.steps, spec.seed)
        rep = check_parameter_monotonicity(spec, qbar=qbar, level=25)
        assert rep.passed and rep.max_violation <= 1e-9


def test_parameter_gap_drift_route():
    rng = np.random.default_rng(65)
    spec = random_cbp_spec(rng, 4, steps=100)
    gbar = np.asarray(spec.g) + np.cumsum(rng.uniform(0, 1, 4))
    rep = check_parameter_monotonicity(spec, gbar=gbar, level=25)
    assert rep.passed and rep.max_violation <= 1e-9
    assert rep.details.get("gaps") and rep.details.get("positions")


def test_parameter_requires_hypothesis():
    spec = random_cbp_spec(np.random.default_rng(66), 3, steps=50)
    with pytest.raises(PreconditionError):
        check_parameter_monotonicity(spec)
    with pytest.raises(PreconditionError):
        check_parameter_monotonicity(spec, gbar=np.asarray(spec.g) - [1, 2, 3])


# --------------------------------------------------------- counterexample

def test_counterexample_closed_form():
    res = counterexample_positive_offdiag(0.5)
    t = res.Z.times
    assert np.abs(res.Z.values[:, 1] - (1 + 0.5 * t)).max() < 1e-15
    assert np.abs(res.Zbar.values[:, 1] - 1.0).max() == 0.0
    assert res.Z.values[0, 1] == res.Zbar.values[0, 1] == 1.0
    assert res.max_violation == pytest.approx(0.5)
    assert res.certified


@pytest.mark.parametrize("r21", [0.1, 0.5, 2.0])
def test_counterexample_margin_equals_r21(r21):
    res = counterexample_positive_offdiag(r21)
    end_gap = res.Z.values[-1, 1] - res.Zbar.values[-1, 1]
    assert end_gap == pytest.approx(r21, abs=1e-12)


def test_counterexample_rejects_nonpositive():
    with pytest.raises(ParameterError):
        counterexample_positive_offdiag(0.0)


@pytest.mark.parametrize("r21, num_points, name", [
    (math.nan, 101, "r21"), (math.inf, 101, "r21"), (-math.inf, 101, "r21"),
    (0.5, 2.5, "num_points"), (0.5, 1, "num_points"), (0.5, True, "num_points"),
])
def test_counterexample_rejects_bad_arguments_by_name(r21, num_points, name):
    with pytest.raises(ParameterError, match=f"'{name}'"):
        counterexample_positive_offdiag(r21, num_points)


# ----------------------------------------------------------------- suites

def test_unknown_suite():
    with pytest.raises(ParameterError):
        run_suite("nope", 1, 0)


@pytest.mark.parametrize("instances", [0, -3])
def test_suite_needs_an_instance(instances):
    with pytest.raises(ParameterError, match="instance"):
        run_suite("initial_shift", instances, 0)


@pytest.mark.parametrize("instances, seed, name", [
    (1.5, 0, "instances"), (True, 0, "instances"), (1, 2.9, "seed"), (1, -1, "seed")])
def test_suite_instances_and_seed_are_integers_not_truncated(instances, seed, name):
    # seed=2.9 ran seed 2 tagged "2.9:0"; instances=True ran one instance
    with pytest.raises(ParameterError, match=f"'{name}' must be an integer"):
        run_suite("counterexample", instances, seed)


@pytest.mark.parametrize("name, options", [
    ("gap_srbm", {"break_hypothesis": True}), ("particle_comparison", {"level": 5}),
    ("skorokhod_comparison", {"n_max": 2}), ("counterexample", {"steps": 10**30})])
def test_an_option_the_suite_does_not_take_is_rejected(name, options):
    # each was dropped unread and the suite reported passed
    (key,) = options
    with pytest.raises(ParameterError, match=f"^suite '{name}' takes no option '{key}'$"):
        run_suite(name, 1, 0, **options)


@pytest.mark.parametrize("name, key, value, least", [
    ("skorokhod_comparison", "d_max", 0, 1), ("skorokhod_comparison", "d_max", 2.5, 1),
    ("skorokhod_comparison", "grid", 0, 1), ("skorokhod_comparison", "grid", 2.5, 1),
    ("particle_comparison", "n_max", 3.5, 2), ("removal_right", "n_max", 2, 3),
    ("gap_srbm", "n_max", True, 2)])
def test_a_suite_count_option_is_an_integer_not_truncated(name, key, value, least):
    # d_max=0 raised a bare ValueError, grid=0 a ZeroDivisionError and grid=2.5 a
    # TypeError; d_max=2.5 and n_max=3.5 ran truncated and passed
    with pytest.raises(ParameterError,
                       match=rf"^'{key}' must be an integer >= {least}, got {value!r}$"):
        run_suite(name, 1, 0, **{key: value})


def test_suite_reports_are_seeded_and_reproducible():
    a = run_suite("particle_comparison", 5, seed=77)
    b = run_suite("particle_comparison", 5, seed=77)
    assert a.passed and b.passed
    assert [r.report.max_violation for r in a.results] == \
           [r.report.max_violation for r in b.results]
    assert a.results[2].seed == "77:2"


def test_suite_broken_hypothesis_fails_with_errors():
    for name in ("skorokhod_comparison", "particle_comparison"):
        res = run_suite(name, 5, seed=3, break_hypothesis=True)
        assert not res.passed
        assert all(r.error and "precondition" in r.error for r in res.results)


def test_counterexample_suite_passes():
    assert run_suite("counterexample", 3, seed=0).passed


@pytest.mark.parametrize("check", [check_skorokhod_comparison,
                                   check_particle_comparison])
def test_sampled_pair_without_dominated_increments_is_rejected(check):
    X, Xbar = random_dominated_sampled_pair(np.random.default_rng(77), 2, grid=8)
    # swapped, Xbar's larger increments go first; the lift keeps starts ordered
    lift = Xbar.values[0] - X.values[0] + [1.0, 3.0]
    first = ReflectionMatrix(np.eye(2)) if check is check_skorokhod_comparison \
        else CollisionParams.symmetric(2)
    with pytest.raises(PreconditionError, match=r"^increment domination fails on \[0\.0"):
        check(first, first, SampledPath(Xbar.times, Xbar.values + [0.0, 2.0]),
              SampledPath(X.times, X.values + lift))
