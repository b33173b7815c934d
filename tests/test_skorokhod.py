import io
import json

import numpy as np
import pytest

from orthantsim import skorokhod
from orthantsim.errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    MatrixValidationError,
    ParameterError,
    RangeError,
)
from orthantsim.mmatrix import ReflectionMatrix, spectral_radius_nonneg
from orthantsim.paths import RegularPath, SampledPath, brownian_components
from orthantsim.skorokhod import (
    GRID_MONOTONE_RTOL,
    restart_inputs,
    simulate_srbm,
    solve,
    solve_continuous,
    solve_grid_oracle,
    solve_linear_segment,
    solve_regular,
    write_solution,
)

R_HALF = ReflectionMatrix([[1.0, -0.5], [-0.5, 1.0]])


def random_matrix(rng, d, rho=0.8):
    if d == 1:
        return ReflectionMatrix(np.eye(1))
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    Q *= rho / spectral_radius_nonneg(Q)
    return ReflectionMatrix(np.eye(d) - Q)


def random_regular_path(rng, d, segments=5, T=1.0, nonneg_start=True):
    bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, T, segments - 1)),
                         [T]])
    start = rng.uniform(0.0, 1.5, d) if nonneg_start else rng.normal(size=d)
    axes = tuple(int(a) for a in rng.integers(1, d + 1, segments))
    slopes = rng.uniform(-3.0, 2.0, segments)
    return RegularPath(start, bp, axes, slopes)


# ------------------------------------------------------------ linear segment

def test_one_dim_reflection_closed_form():
    sol = solve_linear_segment(ReflectionMatrix([[1.0]]), [1.0], 1, -1.0, 2.0)
    ts = np.linspace(0, 2, 21)
    assert np.abs(sol.Z.values_at(ts)[:, 0] - np.maximum(1 - ts, 0)).max() < 1e-15
    assert np.abs(sol.L.values_at(ts)[:, 0] - np.maximum(ts - 1, 0)).max() < 1e-15


def test_two_dim_phase_structure():
    # from (0,1), axis 1 descending: first only face 1 is active with
    # L1' = 1 and Z2' = -1/2, so face 2 joins at tau = 2 where the block
    # rate becomes [R]^{-1} e1 = (4/3, 2/3)
    sol = solve_linear_segment(R_HALF, [0.0, 1.0], 1, -1.0, 3.0)
    assert [e.tau for e in sol.events] == [2.0]
    assert sol.events[0].active_before == (1,)
    assert sol.events[0].active_after == (1, 2)
    assert np.allclose(sol.L.evaluate(2.0), [2.0, 0.0])
    assert np.allclose(sol.L.evaluate(3.0), [2.0 + 4 / 3, 2 / 3])
    assert np.allclose(sol.Z.evaluate(1.0), [0.0, 0.5])
    assert np.allclose(sol.Z.evaluate(3.0), [0.0, 0.0])


@pytest.mark.parametrize("alpha", [0.0, 0.7, 2.5])
def test_nonnegative_slope_is_free_motion(alpha):
    x = np.array([0.2, 0.0])
    sol = solve_linear_segment(R_HALF, x, 2, alpha, 1.5)
    assert not sol.L.values.any()
    want = x.copy()
    want[1] += alpha * 1.5
    assert np.allclose(sol.Z.evaluate(1.5), want)
    assert sol.events == ()


def test_free_phase_then_reflection():
    # interior start: free fall for x_i/|alpha|, then boundary phases
    sol = solve_linear_segment(ReflectionMatrix([[1.0]]), [0.5], 1, -2.0, 1.0)
    assert [e.tau for e in sol.events] == [0.25]
    assert sol.L.evaluate(1.0)[0] == pytest.approx(1.5)


def test_outside_orthant_rejected():
    with pytest.raises(DomainError):
        solve_linear_segment(R_HALF, [-0.1, 1.0], 1, -1.0, 1.0)


def test_bad_axis_rejected():
    with pytest.raises(ParameterError):
        solve_linear_segment(R_HALF, [0.0, 0.0], 3, -1.0, 1.0)


def test_within_phase_monotonicity():
    # alpha < 0 from the boundary: L nondecreasing, Z nonincreasing
    rng = np.random.default_rng(2)
    for _ in range(25):
        d = rng.integers(1, 6)
        R = random_matrix(rng, d)
        x = rng.uniform(0, 1, d)
        i = int(rng.integers(1, d + 1))
        x[i - 1] = 0.0
        sol = solve_linear_segment(R, x, i, -float(rng.uniform(0.2, 3.0)), 1.0)
        assert np.diff(sol.L.values, axis=0).min() >= -1e-12
        assert np.diff(sol.Z.values, axis=0).max() <= 1e-12


def test_active_set_growth_and_phase_bound():
    rng = np.random.default_rng(3)
    for _ in range(25):
        d = rng.integers(2, 6)
        R = random_matrix(rng, d)
        x = rng.uniform(0, 0.5, d)
        x[rng.integers(0, d)] = 0.0
        i = int(rng.integers(1, d + 1))
        sol = solve_linear_segment(R, x, i, -2.0, 4.0)
        assert len(sol.events) + 1 <= d + 1
        for e in sol.events:
            assert set(e.active_before) < set(e.active_after)


def test_complementarity_exact():
    rng = np.random.default_rng(4)
    for _ in range(20):
        d = rng.integers(1, 6)
        R = random_matrix(rng, d)
        X = random_regular_path(rng, d)
        sol = solve_regular(R, X)
        dL = np.diff(sol.L.values, axis=0)
        Zpair = np.minimum(sol.Z.values[:-1], sol.Z.values[1:])
        # where L grows over a linear piece, Z sits at zero on that piece
        grow = dL > 1e-14
        assert np.abs(Zpair[grow]).max() < 1e-12 if grow.any() else True


# ------------------------------------------------------------- solve_regular

def test_interior_nondecreasing_path_untouched():
    X = RegularPath([0.5, 0.5], [0.0, 1.0, 2.0], (1, 2), [1.0, 0.5])
    sol = solve_regular(R_HALF, X)
    assert not sol.L.values.any()
    ts = np.linspace(0, 2, 9)
    assert np.abs(sol.Z.values_at(ts) - X.values_at(ts)).max() < 1e-15


def test_single_segment_matches_linear_solver():
    seg = solve_linear_segment(R_HALF, [0.0, 1.0], 1, -1.0, 3.0)
    X = RegularPath([0.0, 1.0], [0.0, 3.0], (1,), [-1.0])
    sol = solve_regular(R_HALF, X)
    ts = np.union1d(seg.Z.times, sol.Z.times)
    assert np.abs(seg.Z.values_at(ts) - sol.Z.values_at(ts)).max() < 1e-15
    assert np.abs(seg.L.values_at(ts) - sol.L.values_at(ts)).max() < 1e-15


def test_positive_offdiagonal_matrix_rejected():
    with pytest.raises(MatrixValidationError):
        ReflectionMatrix([[1.0, -0.5], [0.5, 1.0]])


def test_identity_residual_tiny():
    rng = np.random.default_rng(5)
    for _ in range(20):
        d = rng.integers(1, 6)
        R = random_matrix(rng, d)
        X = random_regular_path(rng, d, segments=int(rng.integers(1, 8)))
        sol = solve_regular(R, X)
        assert sol.diagnostics["max_identity_residual"] < 1e-12
        assert sol.diagnostics["min_z"] >= -1e-15
        assert all(c <= d + 1 for c in sol.diagnostics["phase_counts"])


# --------------------------------------------------------------- grid oracle

def test_grid_oracle_scalar_map():
    t = np.linspace(0, 2, 4001)
    X = SampledPath(t, (1.0 - t)[:, None])
    sol = solve_grid_oracle(ReflectionMatrix([[1.0]]), X, tol=1e-10)
    assert np.abs(sol.L.values[:, 0] - np.maximum(t - 1, 0)).max() < 1e-3
    assert sol.diagnostics["monotone"]


def test_grid_oracle_trivial_when_rising():
    t = np.linspace(0, 1, 101)
    X = SampledPath(t, np.column_stack([0.5 + t, 1.0 + 0.2 * t]))
    sol = solve_grid_oracle(R_HALF, X, tol=1e-12)
    assert not sol.L.values.any()


def test_grid_oracle_agreement_with_exact():
    rng = np.random.default_rng(6)
    for _ in range(8):
        d = rng.integers(1, 5)
        R = random_matrix(rng, d, rho=0.7)
        X = random_regular_path(rng, d)
        exact = solve_regular(R, X)
        ts = np.linspace(0, X.horizon, 8001)
        grid = solve_grid_oracle(R, SampledPath(ts, X.values_at(ts)), tol=1e-9)
        assert np.abs(grid.Z.values - exact.Z.values_at(ts)).max() < 2e-3
        assert np.abs(grid.L.values - exact.L.values_at(ts)).max() < 2e-3


def test_grid_oracle_monotone_and_contracting():
    # corner-seeking driver keeps every face active so the fixed point
    # needs many rounds; the change sequence contracts at ratio < 1
    rng = np.random.default_rng(7)
    R = random_matrix(rng, 3, rho=0.9)
    ts = np.linspace(0, 1, 2001)
    vals = np.column_stack([1.0 - 2.0 * ts, 0.5 - 1.5 * ts, 0.2 - 2.5 * ts])
    vals += 0.1 * np.sin(7 * ts)[:, None]
    vals[0] = np.maximum(vals[0], 0.0)
    sol = solve_grid_oracle(R, SampledPath(ts, vals), tol=1e-12)
    assert sol.diagnostics["monotone"]
    changes = [c for c in sol.diagnostics["sup_changes"] if c > 0]
    assert len(changes) > 5
    ratios = [b / a for a, b in zip(changes, changes[1:]) if a > 1e-11]
    assert ratios and max(ratios[2:]) < 1.0


def test_grid_oracle_iteration_budget(monkeypatch):
    t = np.linspace(0, 1, 101)
    X = SampledPath(t, (1.0 - 2 * t)[:, None])
    monkeypatch.setattr(skorokhod, "GRID_MAX_SWEEPS", 1)
    with pytest.raises(ConvergenceError):
        solve_grid_oracle(ReflectionMatrix([[1.0]]), X, tol=1e-10)


def test_grid_oracle_sweep_cap_names_rho_and_cap():
    R = ReflectionMatrix([[1.0, -0.999], [-0.999, 1.0]])
    t = np.linspace(0.0, 1.0, 1000)
    X = SampledPath(t, np.column_stack([0.5 - 2 * t] * 2))
    with pytest.raises(ConvergenceError, match=r"10000 sweeps at rho\(Q\) = 0\.999") as exc:
        solve_grid_oracle(R, X)
    assert exc.value.details["max_iter"] == 10_000
    assert exc.value.details["spectral_radius"] == pytest.approx(0.999, rel=1e-9)


def test_grid_oracle_sweep_cap_names_an_unbracketed_rho(monkeypatch):
    # two two-cycles of roots 0.999 and 0.99899 joined at 1e-9: a bracket on
    # rho(Q) never closed, and the cap's error raised the Perron error
    a, b, e = 0.999, 0.99899, 1e-9
    Q = np.array([[0, a, e, 0], [a, 0, 0, 0], [0, 0, 0, b], [e, 0, b, 0]])
    monkeypatch.setattr(skorokhod, "GRID_MAX_SWEEPS", 100)
    R = ReflectionMatrix(np.eye(4) - Q)
    t = np.linspace(0.0, 1.0, 1000)
    X = SampledPath(t, np.column_stack([0.5 - 2 * t] * 4))
    with pytest.raises(ConvergenceError, match=r"100 sweeps at rho\(Q\) = 0\.999$") as exc:
        solve_grid_oracle(R, X)
    assert exc.value.details["max_iter"] == 100
    assert exc.value.details["spectral_radius"] == pytest.approx(0.999, rel=1e-12)


def allocating_grid_oracle(R, X, tol):
    """The oracle's sweeps with fresh arrays each time: L, sup changes, monotone."""
    Xv, Qt = X.values, R.q_matrix().T
    L = np.zeros_like(Xv)
    scale = max(1.0, float(np.abs(Xv).max()))
    sup_changes, monotone = [], True
    while True:
        G = L @ Qt - Xv
        np.maximum.accumulate(G, axis=0, out=G)
        np.maximum(G, 0.0, out=G)
        diff = G - L
        sup_changes.append(float(np.abs(diff).max()))
        monotone &= not diff.min() < -GRID_MONOTONE_RTOL * scale
        L = G
        if sup_changes[-1] < tol:
            return L, sup_changes, monotone


@pytest.mark.parametrize("d, rho, rising", [(1, 0.0, False), (2, 0.5, False),
                                            (5, 0.9, False), (10, 0.5, False),
                                            (3, 0.5, True)])
def test_grid_oracle_sweeps_give_the_bits_of_fresh_arrays(d, rho, rising):
    # a rising driver never pushes: every change is a zero, reported as +0.0
    rng = np.random.default_rng(601 + d)
    R = random_matrix(rng, d, rho=rho)
    t = np.linspace(0.0, 1.0, 301)
    B = brownian_components(d, 1.0, 300, seed=7).values
    X = SampledPath(t, 0.2 + (np.repeat(t[:, None], d, axis=1) if rising else B))
    sol = solve_grid_oracle(R, X, tol=1e-10)
    L, sup_changes, monotone = allocating_grid_oracle(R, X, 1e-10)
    assert sol.L.values.tobytes() == L.tobytes()
    assert [c.hex() for c in sol.diagnostics["sup_changes"]] == [c.hex() for c in sup_changes]
    assert sol.diagnostics["monotone"] is monotone


# ----------------------------------------------------------- solve_continuous

def test_continuous_exact_on_refined_regular():
    # sweeps reparametrize time inside a subinterval but the reflection map
    # commutes with that, so anchor values match the exact solution when the
    # anchor grid refines the breakpoints
    X = RegularPath([0.5, 0.0], [0.0, 0.25, 0.75, 1.0], (1, 2, 1),
                    [-2.0, 1.0, 0.5])
    ts = np.linspace(0, 1, 401)
    sampled = SampledPath(ts, X.values_at(ts))
    exact = solve_regular(R_HALF, X)
    approx = solve_continuous(R_HALF, sampled, 8)
    anchors = np.linspace(0, 1, 9)
    assert np.abs(exact.Z.values_at(anchors)
                  - approx.Z.values_at(anchors)).max() < 1e-12
    assert np.abs(exact.L.values_at(anchors)
                  - approx.L.values_at(anchors)).max() < 1e-12


def test_continuous_constant_interior():
    ts = np.linspace(0, 1, 11)
    X = SampledPath(ts, np.tile([0.5, 1.0], (11, 1)))
    for n in (1, 3):
        sol = solve_continuous(R_HALF, X, n)
        assert not sol.L.values.any()
        assert np.abs(sol.Z.values - np.array([0.5, 1.0])).max() < 1e-15


def test_continuous_converges_to_oracle():
    X = brownian_components(2, 1.0, 512, seed=11)
    X = SampledPath(X.times, X.values + np.array([0.3, 0.1]))
    ref = solve_grid_oracle(R_HALF, X, tol=1e-10)
    errs = []
    for n in (4, 16, 64):
        sol = solve_continuous(R_HALF, X, n)
        errs.append(np.abs(sol.Z.values_at(X.times) - ref.Z.values).max())
    assert errs[-1] < errs[0]


def test_continuous_default_level_is_one_per_grid_step():
    X = brownian_components(2, 1.0, 37, seed=3)
    X = SampledPath(X.times, X.values + np.array([0.4, 0.2]))
    sol = solve_continuous(R_HALF, X)
    assert sol.diagnostics["level"] == len(X.times) - 1
    same = solve_continuous(R_HALF, X, len(X.times) - 1)
    assert np.array_equal(sol.Z.values, same.Z.values)
    assert np.array_equal(sol.L.values, same.L.values)


# --------------------------------------------------------------------- solve

def test_solve_dispatches_on_path_kind_and_method():
    X = random_regular_path(np.random.default_rng(4), 2)
    ts = np.linspace(0.0, 1.0, 41)
    sampled = SampledPath(ts, X.values_at(ts))
    pairs = [
        (solve(R_HALF, X), solve_regular(R_HALF, X)),
        (solve(R_HALF, sampled, level=7), solve_continuous(R_HALF, sampled, 7)),
        (solve(R_HALF, sampled, "grid", tol=1e-11),
         solve_grid_oracle(R_HALF, sampled, tol=1e-11)),
    ]
    for got, want in pairs:
        assert got.diagnostics["method"] == want.diagnostics["method"]
        assert np.array_equal(got.Z.times, want.Z.times)
        assert np.array_equal(got.Z.values, want.Z.values)
        assert np.array_equal(got.L.values, want.L.values)
        assert got.events == want.events


@pytest.mark.parametrize("kind, method", [("regular", "grid"),
                                          ("regular", "bogus"),
                                          ("sampled", "bogus")])
def test_solve_rejects_a_method_that_does_not_apply(kind, method):
    X = random_regular_path(np.random.default_rng(4), 2)
    if kind == "sampled":
        ts = np.linspace(0.0, 1.0, 11)
        X = SampledPath(ts, X.values_at(ts))
    with pytest.raises(ParameterError, match=f"{method!r} cannot solve"):
        solve(R_HALF, X, method)


def test_grid_method_rejects_a_level():
    # the grid oracle reads no level
    ts = np.linspace(0.0, 1.0, 11)
    X = SampledPath(ts, random_regular_path(np.random.default_rng(4), 2).values_at(ts))
    with pytest.raises(ParameterError, match="'level' = 7"):
        solve(R_HALF, X, "grid", level=7)
    with pytest.raises(ParameterError, match="'level' = 4"):
        simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [1.0, 1.0], 1.0, 10, 0,
                      method="grid", level=4)


def test_regular_path_rejects_a_level():
    # a regular driver is solved as it is: no approximation reads a level
    X = random_regular_path(np.random.default_rng(4), 2)
    with pytest.raises(ParameterError, match="'level' = 7"):
        solve(R_HALF, X, "exact", level=7)


# ------------------------------------------------------------------- restart

def test_restart_at_zero_returns_inputs():
    X = random_regular_path(np.random.default_rng(8), 2)
    R = R_HALF
    sol = solve_regular(R, X)
    shifted, z0 = restart_inputs(R, X, sol, 0.0)
    assert np.array_equal(z0, X.start)
    assert np.array_equal(shifted.breakpoints, X.breakpoints)
    assert np.array_equal(shifted.start, X.start)


def test_restart_splices_regular_solution():
    rng = np.random.default_rng(9)
    for _ in range(10):
        d = rng.integers(1, 5)
        R = random_matrix(rng, d)
        X = random_regular_path(rng, d, segments=6)
        sol = solve_regular(R, X)
        T = float(rng.uniform(0.1, 0.9) * X.horizon)
        shifted, z0 = restart_inputs(R, X, sol, T)
        tail = solve_regular(R, shifted)
        ts = np.linspace(0, X.horizon - T, 37)
        assert np.abs(tail.Z.values_at(ts) - sol.Z.values_at(ts + T)).max() < 1e-10
        l_shift = sol.L.values_at(np.asarray([T]))[0]
        assert np.abs(tail.L.values_at(ts) - (sol.L.values_at(ts + T) - l_shift)).max() < 1e-10


def test_restart_at_event_preserves_active_set():
    sol = solve_linear_segment(R_HALF, [0.0, 1.0], 1, -1.0, 3.0)
    X = RegularPath([0.0, 1.0], [0.0, 3.0], (1,), [-1.0])
    tau = sol.events[0].tau
    shifted, z0 = restart_inputs(R_HALF, X, sol, tau)
    assert tuple(np.flatnonzero(z0 == 0.0) + 1) == sol.events[0].active_after
    tail = solve_regular(R_HALF, shifted)
    ts = np.linspace(0, 3.0 - tau, 11)
    assert np.abs(tail.Z.values_at(ts) - sol.Z.values_at(ts + tau)).max() < 1e-12


def test_restart_splices_grid_solution():
    R = ReflectionMatrix([[1, -0.4, -0.1], [-0.2, 1, -0.3], [-0.3, -0.2, 1]])
    B = brownian_components(3, 1.0, 800, seed=3)
    X = SampledPath(B.times,
                    B.values - np.outer(B.times, [1.5, 0.5, 1.0]) + 0.6)
    X = SampledPath(X.times, X.values - min(float(X.values[0].min()), 0.0))
    full = solve_grid_oracle(R, X, tol=1e-11)
    T = float(X.times[400])
    shifted, _ = restart_inputs(R, X, full, T)
    tail = solve_grid_oracle(R, shifted, tol=1e-11)
    ts = shifted.times
    lT = full.L.values_at(np.asarray([T]))[0]
    assert np.abs(tail.Z.values - full.Z.values_at(ts + T)).max() < 1e-9
    assert np.abs(tail.L.values
                  - (full.L.values_at(ts + T) - lT)).max() < 1e-9


def test_restart_out_of_range():
    X = random_regular_path(np.random.default_rng(1), 2)
    sol = solve_regular(R_HALF, X)
    with pytest.raises(RangeError):
        restart_inputs(R_HALF, X, sol, X.horizon + 1.0)


def test_restart_at_the_horizon_leaves_nothing():
    X = random_regular_path(np.random.default_rng(1), 2)
    sol = solve_regular(R_HALF, X)
    with pytest.raises(RangeError, match="^nothing remains beyond the full horizon$"):
        restart_inputs(R_HALF, X, sol, X.horizon)


def test_grid_oracle_rejects_a_path_of_the_wrong_dimension():
    X = SampledPath([0.0, 1.0], [[0.0], [1.0]])
    with pytest.raises(DimensionError,
                       match="^path dimension must match the matrix dimension$"):
        solve_grid_oracle(R_HALF, X)


def test_restart_at_nan_is_out_of_range():
    X = random_regular_path(np.random.default_rng(1), 2)
    for Y in (X, SampledPath(X.breakpoints, X.vertices)):
        sol = solve(R_HALF, Y)
        with pytest.raises(RangeError, match="restart time nan"):
            restart_inputs(R_HALF, Y, sol, np.nan)


def test_idle_boundary_component_flagged():
    # decoupled faces: the idle face stays pinned with zero boundary growth
    sol = solve_linear_segment(ReflectionMatrix(np.eye(2)), [0.0, 0.0],
                               1, -1.0, 1.0)
    assert sol.diagnostics["idle_boundary_components"] == [2]
    assert np.array_equal(sol.L.values[-1], [1.0, 0.0])
    assert np.array_equal(sol.Z.values[-1], [0.0, 0.0])


@pytest.mark.parametrize("X", [
    # the hit lands at 0.6 + 0.39999999999999997 == 1.0, the breakpoint
    RegularPath([0.3 - 0.1], [0.0, 0.6, 1.0], (1, 1), [0.0, -0.5]),
    # the hit lands at 0.5 + 1e-17 == 0.5, the segment start
    RegularPath([1e-17], [0.0, 0.5, 1.0], (1, 1), [0.0, -1.0]),
    # the hit time 5e-324 / 2 underflows to 0
    RegularPath([5e-324], [0.0, 0.5, 1.0], (1, 1), [0.0, -2.0]),
], ids=["onto-breakpoint", "onto-segment-start", "underflow"])
def test_hit_time_rounding_onto_a_neighbouring_row_solves(X):
    sol = solve_regular(ReflectionMatrix(np.eye(1)), X)
    assert np.diff(sol.Z.times).min() > 0.0
    assert sol.Z.times[-1] == X.horizon
    assert sol.diagnostics["max_identity_residual"] <= 1e-12
    assert [(e.active_before, e.active_after) for e in sol.events] == [((), (1,))]
    assert sol.diagnostics["phase_counts"] == [1, 2]


# ---------------------------------------------------------------------- SRBM

def test_srbm_zero_noise_drift_inside():
    sol = simulate_srbm(R_HALF, [0.5, 0.2], np.zeros((2, 2)), [0.3, 0.4],
                        1.0, 20, seed=0)
    ts = np.linspace(0, 1, 21)  # the sample grid carries the straight line
    want = np.array([0.3, 0.4]) + np.outer(ts, [0.5, 0.2])
    assert np.abs(sol.Z.values_at(ts) - want).max() < 1e-12
    assert not sol.L.values.any()


def test_srbm_deterministic_per_seed():
    a = simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [1.0, 1.0], 1.0, 200, 5)
    b = simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [1.0, 1.0], 1.0, 200, 5)
    assert np.array_equal(a.Z.values, b.Z.values)
    assert np.array_equal(a.L.values, b.L.values)


def test_srbm_methods_agree():
    exact = simulate_srbm(R_HALF, [-1.0, 0.5], np.eye(2), [0.5, 0.5],
                          1.0, 400, 7, method="exact")
    grid = simulate_srbm(R_HALF, [-1.0, 0.5], np.eye(2), [0.5, 0.5],
                         1.0, 400, 7, method="grid", tol=1e-9)
    ts = grid.Z.times
    assert np.abs(exact.Z.values_at(ts) - grid.Z.values).max() < 0.05


def test_srbm_stronger_negative_drift_spends_more_time_low():
    fractions = []
    for mu in (-0.5, -2.0, -8.0):
        sol = simulate_srbm(ReflectionMatrix([[1.0]]), [mu], [[1.0]], [1.0],
                            1.0, 2000, seed=13)
        fractions.append(float(np.mean(sol.Z.values_at(
            np.linspace(0, 1, 2001))[:, 0] < 0.05)))
    assert fractions[0] < fractions[1] < fractions[2]


def test_srbm_rejects_bad_start():
    with pytest.raises(DomainError):
        simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [-1.0, 0.0], 1.0, 10, 0)
    with pytest.raises(DomainError, match="NaN or infinite"):
        simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [np.nan, 0.0], 1.0, 10, 0)


def test_srbm_zero_level_is_not_unset():
    with pytest.raises(ParameterError, match="level"):
        simulate_srbm(R_HALF, [0.0, 0.0], np.eye(2), [1.0, 1.0], 1.0, 10, 0,
                      level=0)


# ------------------------------------------------------------------- exports

def test_csv_and_events_export():
    sol = solve_linear_segment(R_HALF, [0.0, 1.0], 1, -1.0, 3.0)
    csv_buf, ev_buf = io.StringIO(), io.StringIO()
    write_solution(sol, csv_buf, ev_buf)
    lines = csv_buf.getvalue().splitlines()
    assert lines[0] == "t,z1,z2,l1,l2"
    assert len(lines) == len(sol.Z.times) + 1
    events = json.loads(ev_buf.getvalue())
    assert events[0]["tau"] == 2.0
    assert events[0]["active_after"] == [1, 2]


@pytest.mark.parametrize("tol", [0.0, float("inf"), float("nan")])
def test_grid_oracle_tol_must_be_finite_and_positive(tol):
    # an infinite tol stopped the iteration after one sweep, far from a solution
    X = SampledPath([0.0, 1.0], [[0.5, 0.5], [-1.0, 0.2]])
    with pytest.raises(ParameterError, match="tol"):
        solve_grid_oracle(R_HALF, X, tol=tol)
