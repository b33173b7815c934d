import gc
import io
import json
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantsim import mmatrix
from orthantsim.errors import OrderingError, ParameterError, RangeError
from orthantsim.mmatrix import validate_reflection_m_matrix
from orthantsim.particles import (
    CbpSpec,
    CollisionParams,
    alphas,
    driving_path_for,
    gap_drift_and_covariance,
    gap_srbm,
    invert_system,
    reflection_matrix_from_params,
    simulate_cbp,
    solve_competing,
    solve_regular_linear,
    subsystem_spec,
    write_solution,
)
from orthantsim.comparison import random_cbp_spec
from orthantsim.paths import (
    RegularPath,
    SampledPath,
    brownian_components,
    cbp_driving_path,
    difference_path,
)
from orthantsim.skorokhod import (
    solve_continuous,
    solve_grid_oracle,
    solve_regular,
)


def single_axis_path(y0, i, alpha, T):
    return RegularPath(np.asarray(y0, dtype=float), np.asarray([0.0, T]),
                       (i,), np.asarray([alpha]))


def random_params(rng, n):
    return CollisionParams.from_qminus(rng.uniform(0.15, 0.85, n),
                                       qplus1=rng.uniform(0.15, 0.85))


def assert_skorokhod_certificate(q, X, sol, tol=1e-11):
    """The gap process of a valid solution solves the gap Skorohod problem."""
    times = sol.Y.times
    R = reflection_matrix_from_params(q)
    Xv = X.values_at(times)
    W = Xv[:, 1:] - Xv[:, :-1]
    resid = np.abs(sol.Z.values - (W + sol.L.values @ R.entries.T)).max()
    assert resid < tol
    assert not sol.L.values[0].any()
    assert np.diff(sol.L.values, axis=0).min() > -tol
    assert sol.Z.values.min() > -tol
    dL = np.diff(sol.L.values, axis=0)
    znear = np.minimum(sol.Z.values[:-1], sol.Z.values[1:])
    grow = dL > 1e-9
    if grow.any():
        assert znear[grow].max() < tol


# ------------------------------------------------------------------- params

def test_params_sum_rule_enforced():
    with pytest.raises(ParameterError):
        CollisionParams((0.5, 0.6), (0.5, 0.5))  # q+_2 + q-_1 != 1


def test_params_open_interval():
    with pytest.raises(ParameterError):
        CollisionParams.from_qminus([1.0, 0.5])
    with pytest.raises(ParameterError):
        CollisionParams.from_qminus([0.5, 0.5], qplus1=0.0)


def test_params_symmetric():
    q = CollisionParams.symmetric(4)
    assert q.qplus == (0.5,) * 4 and q.qminus == (0.5,) * 4


# ---------------------------------------------------------------- inversion

def test_invert_symmetric_fixed_point():
    q = CollisionParams.symmetric(5)
    assert invert_system(q) == q


def test_invert_two_particles():
    q = CollisionParams.from_qminus([0.3, 0.6], qplus1=0.4)
    qt = invert_system(q)
    assert qt.qplus == tuple(reversed(q.qminus))
    assert qt.qminus == tuple(reversed(q.qplus))


@given(st.integers(2, 7), st.integers(0, 10_000))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_invert_involution_and_validity(n, seed):
    rng = np.random.default_rng(seed)
    q = random_params(rng, n)
    qt = invert_system(q)  # constructor revalidates the output
    assert invert_system(qt) == q


# -------------------------------------------------------------- gap algebra

def test_reflection_matrix_two_particles():
    R = reflection_matrix_from_params(CollisionParams.symmetric(2))
    assert R.entries.shape == (1, 1) and R.entries[0, 0] == 1.0


def test_reflection_matrix_symmetric_four():
    R = reflection_matrix_from_params(CollisionParams.symmetric(4))
    want = np.array([[1, -0.5, 0], [-0.5, 1, -0.5], [0, -0.5, 1]])
    assert np.array_equal(R.entries, want)


def test_reflection_matrix_entries_match_shares():
    q = CollisionParams.from_qminus([0.3, 0.6, 0.2, 0.45], qplus1=0.5)
    R = reflection_matrix_from_params(q).entries  # 3x3 for N=4
    assert R[0, 1] == -q.qminus[1] and R[1, 0] == -q.qplus[1]
    assert R[1, 2] == -q.qminus[2] and R[2, 1] == -q.qplus[2]


def test_reflection_matrix_always_valid():
    rng = np.random.default_rng(17)
    for _ in range(30):
        q = random_params(rng, int(rng.integers(2, 8)))
        R = reflection_matrix_from_params(q)
        assert validate_reflection_m_matrix(R.entries).accepted


def test_gap_matrix_cache_frees_the_oldest_parameter_set():
    # each cached matrix pins its boundary-rate cache, so only 8 are kept
    qs = [CollisionParams.from_qminus([0.5, 0.3 + 0.01 * k, 0.5]) for k in range(9)]
    first = weakref.ref(reflection_matrix_from_params(qs[0]))
    for q in qs[1:-1]:
        reflection_matrix_from_params(q)
    gc.collect()
    assert first() is not None
    reflection_matrix_from_params(qs[-1])
    gc.collect()
    assert first() is None


def test_gap_drift_and_covariance_patterns():
    mu, A = gap_drift_and_covariance([0.0, 1.0, 3.0], [1.0, 1.0, 1.0])
    assert np.array_equal(mu, [1.0, 2.0])
    assert np.array_equal(A, [[2.0, -1.0], [-1.0, 2.0]])
    mu0, _ = gap_drift_and_covariance([2.0, 2.0, 2.0], [1.0, 2.0, 0.5])
    assert not mu0.any()


def test_gap_covariance_psd():
    rng = np.random.default_rng(18)
    for _ in range(20):
        n = int(rng.integers(2, 8))
        _, A = gap_drift_and_covariance(rng.normal(size=n),
                                        rng.uniform(0.1, 3.0, n))
        assert np.linalg.eigvalsh(A).min() > -1e-12


# ------------------------------------------------------------------- alphas

def test_alphas_symmetric_all_ones():
    assert np.array_equal(alphas(CollisionParams.symmetric(6)), np.ones(6))


def test_alphas_two_particles_ratio():
    q = CollisionParams.from_qminus([0.3, 0.5], qplus1=0.5)  # q+_2 = 0.7
    got = alphas(q)
    assert got[0] == 1.0
    assert got[1] == pytest.approx(0.3 / 0.7)


def test_alphas_cancel_collision_terms():
    # sum_k alpha_k (Y_k - X_k) vanishes along every exact solution
    rng = np.random.default_rng(19)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0, 0.3, n))
        i = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(-2, 2))
        sol = solve_regular_linear(q, y0, i, alpha, 1.5)
        X = np.tile(y0, (len(sol.Y.times), 1))
        X[:, i - 1] += alpha * sol.Y.times
        w = alphas(q)
        assert np.abs((sol.Y.values - X) @ w).max() < 1e-12


# ------------------------------------------------------- exact linear solver

def test_two_symmetric_particles_share_speed():
    q = CollisionParams.symmetric(2)
    sol = solve_regular_linear(q, [0.0, 0.0], 1, 1.0, 2.0)
    ts = np.linspace(0, 2, 9)
    want = np.column_stack([ts / 2, ts / 2])
    assert np.abs(sol.Y.values_at(ts) - want).max() < 1e-15
    assert np.abs(sol.L.values_at(ts)[:, 0] - ts).max() < 1e-15


def test_block_never_reaches_next():
    q = CollisionParams.symmetric(3)
    sol = solve_regular_linear(q, [0.0, 5.0, 6.0], 1, 1.0, 2.0)
    assert sol.events == ()
    assert np.allclose(sol.Y.evaluate(2.0), [2.0, 5.0, 6.0])


def test_zero_slope_keeps_everything_still():
    q = CollisionParams.symmetric(3)
    sol = solve_regular_linear(q, [0.0, 1.0, 2.0], 2, 0.0, 1.0)
    assert np.array_equal(sol.Y.values[0], sol.Y.values[-1])
    assert not sol.L.values.any()


def test_lower_tie_stays_idle():
    q = CollisionParams.symmetric(3)
    sol = solve_regular_linear(q, [0.0, 0.0, 1.0], 2, 1.0, 3.0)
    ts = np.linspace(0, 3, 13)
    Y = sol.Y.values_at(ts)
    assert not Y[:, 0].any()  # rank 1 never moves
    # rank 2 travels alone to 1 at t=1, then the pair moves at speed 1/2
    assert sol.events[0].tau == pytest.approx(1.0)
    assert sol.Y.evaluate(3.0)[1] == pytest.approx(2.0)


def test_top_rank_moves_alone():
    q = CollisionParams.symmetric(3)
    sol = solve_regular_linear(q, [0.0, 1.0, 1.0], 3, 1.0, 1.0)
    assert sol.events == ()
    assert np.allclose(sol.Y.evaluate(1.0), [0.0, 1.0, 2.0])


def test_block_speed_nonincreasing_across_phases():
    q = CollisionParams.from_qminus([0.3, 0.6, 0.45, 0.7, 0.2], qplus1=0.5)
    sol = solve_regular_linear(q, [0.0, 0.2, 0.5, 0.9, 1.4], 1, 2.0, 10.0)
    ts = sol.Y.times
    speeds = np.diff(sol.Y.values[:, 0]) / np.diff(ts)
    moving = speeds > 1e-12
    assert len(sol.events) == 4
    assert all(a >= b - 1e-12 for a, b in zip(speeds[moving], speeds[moving][1:]))


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert a.tobytes() == b.tobytes()


def test_negative_slope_matches_manual_inversion():
    """A downward solve is the rank-reversed upward solve, bit for bit.

    Dyadic starts and slopes make ties, exact collisions and blocks that
    land exactly on 0 (with equal shares the block speeds are dyadic too);
    the zero signs of Y must match the negated mirror.
    """
    rng = np.random.default_rng(21)
    cases = [  # tied blocks that land on 0 at T
        (CollisionParams.symmetric(2), np.array([0.5, 0.5]), 2, -1.0),
        (CollisionParams.symmetric(3), np.array([-1.0, 0.25, 0.25]), 3, -0.5),
    ]
    for case in range(80):
        n = int(rng.integers(2, 6))
        q = CollisionParams.symmetric(n) if case % 4 == 0 else random_params(rng, n)
        if case % 2:
            y0 = np.cumsum(rng.uniform(0, 0.4, n))
            alpha = -float(rng.uniform(0.2, 2.0))
        else:
            y0 = np.cumsum(rng.integers(0, 3, n) / 4.0) - 0.5  # ties
            alpha = -float(rng.integers(0, 5)) / 4.0  # 0.0 included
        cases.append((q, y0, int(rng.integers(1, n + 1)), alpha))
    for q, y0, i, alpha in cases:
        n = q.n_particles
        sol = solve_regular_linear(q, y0, i, alpha, 1.0)
        mirror = solve_regular_linear(invert_system(q), (-y0)[::-1],
                                      n - i + 1, -alpha, 1.0)
        assert_same_bits(sol.Y.times, mirror.Y.times)
        assert_same_bits(sol.Y.values, -mirror.Y.values[:, ::-1])
        assert_same_bits(sol.L.values, mirror.L.values[:, ::-1])

        def flip(ranks):
            return tuple(sorted(n - r + 1 for r in ranks))

        assert [(e.tau, e.active_before, e.active_after) for e in sol.events] == [
            (e.tau, flip(e.active_before), flip(e.active_after))
            for e in mirror.events]


def test_downward_landing_on_zero_keeps_its_sign():
    sol = solve_regular_linear(CollisionParams.symmetric(2), [-1.0, 0.5], 2,
                               -0.5, 1.0)
    buf = io.StringIO()
    sol.to_csv(buf)
    assert buf.getvalue().splitlines()[-1] == "1,-1,-0,0,1"


@pytest.mark.parametrize("X", [
    # the hit lands at 0.6 + 0.39999999999999997 == 1.0, the breakpoint
    RegularPath([0.1, 0.3], [0.0, 0.6, 1.0], (1, 2), [0.0, -0.5]),
    # the hit lands at 0.5 + 1e-17 == 0.5, the segment start
    RegularPath([0.0, 1e-17], [0.0, 0.5, 1.0], (2, 1), [0.0, 1.0]),
], ids=["onto-breakpoint", "onto-segment-start"])
def test_hit_time_rounding_onto_a_neighbouring_row_solves(X):
    sol = solve_competing(CollisionParams.symmetric(2), X)
    assert np.diff(sol.Y.times).min() > 0.0
    assert sol.Y.times[-1] == X.horizon
    assert sol.diagnostics["max_identity_residual"] <= 1e-12
    assert [set(e.active_before) < set(e.active_after) for e in sol.events] == [True]
    assert_skorokhod_certificate(CollisionParams.symmetric(2), X, sol)


def test_ordering_and_identities_random():
    rng = np.random.default_rng(22)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0, 0.25, n))
        i = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(-3, 3))
        sol = solve_regular_linear(q, y0, i, alpha, 2.0)
        assert np.diff(sol.Y.values, axis=1).min() > -1e-12
        assert sol.diagnostics["max_identity_residual"] < 1e-12
        assert sol.diagnostics["alpha_weight_residual"] < 1e-11
        assert sol.diagnostics["block_consistency_residual"] < 1e-12
        assert len(sol.events) + 1 <= n + 1
        X = single_axis_path(y0, i, alpha, 2.0)
        assert_skorokhod_certificate(q, X, sol)


def test_unordered_start_rejected():
    with pytest.raises(OrderingError):
        solve_regular_linear(CollisionParams.symmetric(2), [1.0, 0.0], 1, 1.0, 1.0)
    with pytest.raises(ParameterError):
        solve_regular_linear(CollisionParams.symmetric(2), [0.0, 1.0], 3, 1.0, 1.0)


# ------------------------------------------------------------ general solver

def test_competing_matches_linear_solver_exactly():
    rng = np.random.default_rng(23)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0, 0.3, n))
        i = int(rng.integers(1, n + 1))
        alpha = float(rng.uniform(-2, 2))
        direct = solve_regular_linear(q, y0, i, alpha, 1.0)
        viapath = solve_competing(q, single_axis_path(y0, i, alpha, 1.0))
        ts = np.union1d(direct.Y.times, viapath.Y.times)
        assert np.abs(direct.Y.values_at(ts) - viapath.Y.values_at(ts)).max() < 1e-12
        assert np.abs(direct.L.values_at(ts) - viapath.L.values_at(ts)).max() < 1e-12


def test_competing_sampled_route_exact_for_edge_ranks():
    # ranks 1 and N drive a single gap, so the gap-space sweeps reproduce
    # the differenced driver exactly and the routes agree to solver noise
    rng = np.random.default_rng(24)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0, 0.3, n))
        i = 1 if rng.uniform() < 0.5 else n
        alpha = float(rng.uniform(-2, 2))
        direct = solve_regular_linear(q, y0, i, alpha, 1.0)
        grid = np.linspace(0, 1, 65)
        sampled = SampledPath(grid,
                              single_axis_path(y0, i, alpha, 1.0).values_at(grid))
        viagap = solve_competing(q, sampled, n=64)
        # sweeps reparametrize time inside a step; anchor values are exact
        assert np.abs(direct.Y.values_at(grid) - viagap.Y.values_at(grid)).max() < 1e-9
        assert np.abs(direct.L.values_at(grid) - viagap.L.values_at(grid)).max() < 1e-9


def test_competing_sampled_route_converges_for_interior_rank():
    # an interior rank drives two gaps at once; the sweep approximation of
    # the differenced driver converges at rate O(1/n)
    q = random_params(np.random.default_rng(40), 4)
    y0 = np.array([0.0, 0.1, 0.3, 0.6])
    direct = solve_regular_linear(q, y0, 2, 1.5, 1.0)
    grid = np.linspace(0, 1, 257)
    sampled = SampledPath(grid,
                          single_axis_path(y0, 2, 1.5, 1.0).values_at(grid))
    errs = []
    for n in (16, 64, 256):
        viagap = solve_competing(q, sampled, n=n)
        ts = np.union1d(direct.Y.times, viagap.Y.times)
        errs.append(np.abs(direct.Y.values_at(ts)
                           - viagap.Y.values_at(ts)).max())
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < errs[0] / 4


def test_competing_edge_axis_matches_skorokhod_route():
    # moving rank 1 or N drives a single gap, so the gap problem is regular
    # and the event-driven Skorohod solver applies directly
    rng = np.random.default_rng(25)
    for i_kind in ("low", "high"):
        n = 4
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0.05, 0.3, n))
        i = 1 if i_kind == "low" else n
        alpha = 2.0 if i_kind == "low" else -2.0  # push into the others
        sol = solve_regular_linear(q, y0, i, alpha, 1.0)
        gap_axis = 1 if i_kind == "low" else n - 1
        gap_slope = -alpha if i_kind == "low" else alpha
        W = RegularPath(np.diff(y0), np.asarray([0.0, 1.0]), (gap_axis,),
                        np.asarray([gap_slope]))
        sk = solve_regular(reflection_matrix_from_params(q), W)
        ts = np.union1d(sol.Z.times, sk.Z.times)
        assert np.abs(sol.Z.values_at(ts) - sk.Z.values_at(ts)).max() < 1e-12
        assert np.abs(sol.L.values_at(ts) - sk.L.values_at(ts)).max() < 1e-12


def test_competing_no_collisions_keeps_driver():
    q = CollisionParams.symmetric(3)
    t = np.linspace(0, 1, 33)
    vals = np.column_stack([t * 0.1, 1.0 + 0.2 * t, 3.0 - 0.3 * t])
    X = SampledPath(t, vals)
    sol = solve_competing(q, X, n=32)
    assert not sol.L.values.any()
    assert np.abs(sol.Y.values_at(t) - vals).max() < 1e-12


def test_competing_multi_segment_certificate():
    rng = np.random.default_rng(26)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        q = random_params(rng, n)
        y0 = np.cumsum(rng.uniform(0, 0.2, n))
        segs = int(rng.integers(2, 7))
        bp = np.concatenate([[0.0], np.sort(rng.uniform(0.1, 1.0, segs - 1)),
                             [1.0]])
        X = RegularPath(y0, bp, tuple(rng.integers(1, n + 1, segs)),
                        rng.uniform(-2, 2, segs))
        sol = solve_competing(q, X)
        assert np.diff(sol.Y.values, axis=1).min() > -1e-12
        assert sol.diagnostics["max_identity_residual"] < 1e-11
        assert sol.diagnostics["alpha_weight_residual"] < 1e-10
        assert_skorokhod_certificate(q, X, sol)


def test_competing_regular_vs_grid_oracle():
    rng = np.random.default_rng(27)
    n = 4
    q = random_params(rng, n)
    y0 = np.cumsum(rng.uniform(0, 0.2, n))
    X = RegularPath(y0, np.asarray([0.0, 0.3, 0.7, 1.0]), (2, 4, 1),
                    np.asarray([1.5, -2.0, 3.0]))
    sol = solve_competing(q, X)
    ts = np.linspace(0, 1, 20001)
    W = SampledPath(ts, np.diff(X.values_at(ts), axis=1))
    oracle = solve_grid_oracle(reflection_matrix_from_params(q), W, tol=1e-10)
    assert np.abs(oracle.Z.values - sol.Z.values_at(ts)).max() < 2e-3
    assert np.abs(oracle.L.values - sol.L.values_at(ts)).max() < 2e-3


def test_competing_rejects_unordered_start():
    q = CollisionParams.symmetric(2)
    t = np.linspace(0, 1, 3)
    with pytest.raises(OrderingError):
        solve_competing(q, SampledPath(t, np.column_stack([t + 1.0, t])))


# -------------------------------------------------------------------- CBP

def spec_for(seed=3, n=3, steps=120):
    rng = np.random.default_rng(seed)
    return CbpSpec(
        g=tuple(rng.uniform(-1, 1, n)),
        sigma2=tuple(rng.uniform(0.5, 1.5, n)),
        q=random_params(rng, n),
        y0=tuple(np.cumsum(rng.uniform(0.0, 0.5, n))),
        horizon=1.0,
        steps=steps,
        seed=seed,
    )


def test_cbp_deterministic():
    spec = spec_for(seed=9)
    a = simulate_cbp(spec)
    b = simulate_cbp(spec)
    assert np.array_equal(a.Y.values, b.Y.values)
    assert np.array_equal(a.L.values, b.L.values)


def test_cbp_zero_noise_separated_drifts():
    spec = CbpSpec(g=(0.5, -0.2, 0.1), sigma2=(1.0, 1.0, 1.0),
                   q=CollisionParams.symmetric(3), y0=(0.0, 5.0, 10.0),
                   horizon=1.0, steps=50, seed=0)
    times = np.linspace(0.0, spec.horizon, spec.steps + 1)
    X = cbp_driving_path(spec.y0, spec.g, np.sqrt(spec.sigma2),
                         SampledPath(times, np.zeros((spec.steps + 1, 3))))
    sol = solve_competing(spec.q, X)
    ts = np.linspace(0, 1, 11)
    want = np.asarray(spec.y0) + np.outer(ts, spec.g)
    assert np.abs(sol.Y.values_at(ts) - want).max() < 1e-12
    assert not sol.L.values.any()


def test_cbp_gap_matches_srbm_on_shared_noise():
    spec = spec_for(seed=31, n=4, steps=200)
    cbp = simulate_cbp(spec)
    mu, _ = gap_drift_and_covariance(spec.g, spec.sigma2)
    R = reflection_matrix_from_params(spec.q)
    B = brownian_components(spec.n_particles, spec.horizon, spec.steps,
                            spec.seed, spec.stream_offset)
    sig = np.sqrt(spec.sigma2)
    noise = sig[1:] * B.values[:, 1:] - sig[:-1] * B.values[:, :-1]
    W = SampledPath(B.times, np.diff(spec.y0) + mu * B.times[:, None] + noise)
    srbm = solve_continuous(R, W)
    ts = np.union1d(cbp.Z.times, srbm.Z.times)
    assert np.abs(cbp.Z.values_at(ts) - srbm.Z.values_at(ts)).max() < 1e-8
    assert np.abs(cbp.L.values_at(ts) - srbm.L.values_at(ts)).max() < 1e-8


@pytest.mark.parametrize("method", ["grid", "bogus"])
def test_regular_driver_takes_only_the_exact_method(method):
    X = single_axis_path([0.0, 0.2, 0.5], 2, 1.0, 1.0)
    with pytest.raises(ParameterError, match=f"{method!r} cannot solve"):
        solve_competing(CollisionParams.symmetric(3), X, method=method)


def test_cbp_ordering_margin():
    spec = spec_for(seed=14, n=5, steps=150)
    sol = simulate_cbp(spec)
    # exact ordering at the sample grid, where the recovered positions and
    # the gap solution coincide
    grid = np.linspace(0, spec.horizon, spec.steps + 1)
    assert np.diff(sol.Y.values_at(grid), axis=1).min() > -1e-10
    # between grid points the mismatch is bounded by the step oscillation
    X = driving_path_for(spec)
    osc = np.abs(np.diff(X.values, axis=0)).max()
    assert sol.diagnostics["min_ordering_margin"] > -2 * osc


# --------------------------------------------------------------- subsystems

def test_subsystem_full_range_identical():
    spec = spec_for(seed=5, n=4)
    sub = subsystem_spec(spec, 1, 4)
    assert sub == spec


def test_subsystem_right_removal_shares_noise():
    spec = spec_for(seed=6, n=5)
    sub = subsystem_spec(spec, 1, 4)
    full_path = driving_path_for(spec)
    sub_path = driving_path_for(sub)
    assert np.array_equal(sub_path.values, full_path.values[:, :4])


def test_subsystem_two_sided_shares_noise():
    spec = spec_for(seed=7, n=6)
    sub = subsystem_spec(spec, 2, 5)
    full_path = driving_path_for(spec)
    sub_path = driving_path_for(sub)
    assert np.array_equal(sub_path.values, full_path.values[:, 1:5])


def test_subsystem_bad_range():
    with pytest.raises(RangeError):
        subsystem_spec(spec_for(n=3), 2, 2)


def test_zero_level_is_not_unset():
    spec = spec_for(n=3)
    with pytest.raises(ParameterError, match="level"):
        simulate_cbp(spec, level=0)
    with pytest.raises(ParameterError, match="level"):
        gap_srbm(spec, 0)


@pytest.mark.parametrize("offset", [1.5, 1.0, True, -1, "1"])
def test_cbp_spec_stream_offset_is_a_nonnegative_integer(offset):
    with pytest.raises(ParameterError, match="'stream_offset'"):
        replace(spec_for(), stream_offset=offset)
    assert replace(spec_for(), stream_offset=np.int64(2)).stream_offset == 2


# ------------------------------------------------------------------ exports

def test_particle_csv_layout():
    q = CollisionParams.symmetric(3)
    sol = solve_regular_linear(q, [0.0, 0.0, 1.0], 1, 1.0, 1.0)
    buf, ev = io.StringIO(), io.StringIO()
    write_solution(sol, buf, ev)
    assert buf.getvalue().splitlines()[0] == "t,y1,y2,y3,l12,l23,z1,z2"
    json.loads(ev.getvalue())


@pytest.mark.parametrize("seed", [1, 2])
def test_sampled_route_reports_the_gap_solve_residual(seed):
    # positions are rebuilt from L by the identity itself, so the residual
    # that says something is the gap Skorohod solve's own Z - W - RL
    spec = random_cbp_spec(np.random.default_rng(seed), 4, steps=200)
    sol = simulate_cbp(spec)
    gap = solve_continuous(reflection_matrix_from_params(spec.q),
                           difference_path(driving_path_for(spec)), spec.steps)
    residual = gap.diagnostics["max_identity_residual"]
    assert residual > 0.0
    assert sol.diagnostics["max_identity_residual"] == residual


# ------------------------------------------------------------ gap matrix

def test_gap_matrix_is_built_and_validated_once_per_shares(monkeypatch):
    reflection_matrix_from_params.cache_clear()
    calls = []
    validate = mmatrix.validate_reflection_m_matrix
    monkeypatch.setattr(mmatrix, "validate_reflection_m_matrix",
                        lambda *a: calls.append(a) or validate(*a))
    q = CollisionParams((0.5, 0.4, 0.7), (0.6, 0.3, 0.5))
    R = reflection_matrix_from_params(q)
    assert reflection_matrix_from_params(CollisionParams(q.qplus, q.qminus)) is R
    spec = CbpSpec((0.0, 0.1, -0.1), (1.0, 1.0, 1.0), q, (0.0, 0.2, 0.3), 1.0, 50, 3)
    simulate_cbp(spec)
    simulate_cbp(CbpSpec(spec.g, spec.sigma2, q, spec.y0, 1.0, 50, 4))
    assert len(calls) == 1


@pytest.mark.parametrize("horizon", [float("inf"), float("nan"), 0.0])
def test_cbp_spec_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(ParameterError, match="horizon"):
        CbpSpec((0.0, 0.0), (1.0, 1.0), CollisionParams.symmetric(2), (0.0, 0.1),
                horizon, 10, 1)


@pytest.mark.parametrize("value", [1.5, True, -1, "2", np.float64(2.0)])
@pytest.mark.parametrize("name, least", [("seed", 0), ("steps", 1)])
def test_cbp_spec_seed_and_steps_are_integers_not_truncated(name, least, value):
    # seed=1.5 ran as seed 1; steps=2.5 raised a bare TypeError
    with pytest.raises(ParameterError, match=f"'{name}' must be an integer >= {least}"):
        replace(spec_for(), **{name: value})
    spec = replace(spec_for(), **{name: np.int64(2)})
    assert spec == replace(spec_for(), **{name: 2})
