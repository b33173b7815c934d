"""Properties of both exact solvers on degenerate regular drivers.

The drivers mix signed zeros, subnormal and near-tied start coordinates,
zero slopes, and pieces whose hits land within ``HIT_TIE_RTOL`` of a
breakpoint or of another component's hit, in dimensions up to 20, at path
scales from 1e-6 to 1e6 and with rho(Q) up to 1 - 1e-7.  Every solve must
keep Z >= 0 (ranks ordered), keep L nondecreasing, and satisfy the defining
identity and complementarity (the integral of Z dL vanishes).  A free piece,
on which nothing reaches the boundary or a neighbour, must change only its
own axis, to the kernel's value, bit for bit, and every event of a pushing
piece must name the zero sets of the rows around it.  The solvers' residual
diagnostics, read off ``RegularPath.vertices``, and the gap route's union
grid must equal the plain ``values_at`` reading bit for bit, and
``values_at`` must give the bits of its reference fancy-index formula.
Every draw is derandomized, so a run cannot pass or fail by the draw.
"""

from functools import partial
from types import SimpleNamespace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthantsim.mmatrix import ReflectionMatrix, spectral_radius_nonneg
from orthantsim.particles import (
    CollisionParams,
    _block_phases,
    _positions,
    alphas,
    reflection_matrix_from_params,
    solve_competing,
)
from orthantsim.paths import RegularPath, SampledPath, difference_path
from orthantsim.skorokhod import HIT_TIE_RTOL, _segment_arrays, solve, solve_regular

NEAR = 0.1 * HIT_TIE_RTOL
STARTS = [0.0, -0.0, 5e-324, 1e-300, 0.3, 0.3 * (1 + NEAR), 0.3 * (1 - NEAR),
          0.5, 1.0]
DURATIONS = [0.1, 0.2, 0.3, 0.6, 0.3 * (1 + NEAR), 0.3 * (1 - NEAR),
             0.39999999999999997]
SLOPES = [0.0, -0.0, -1.0, -0.5, -2.0, 1.0, 0.5, -1e-300, -5e-324]
SCALES = [1.0, 1e-6, 1e-3, 1e3, 1e6]
RHOS = [0.0, 0.5, 0.9, 0.99, 0.999, 1 - 1e-7]
# identity residuals are a few roundings per segment of the largest value
RESIDUAL_RTOL = 1e-9
# x / a rounds up onto T although x - a T rounds below 0
X_ROUND, A_ROUND, T_ROUND = 1.388180238227183, 2.348258517494898, 0.5911530727494526


@st.composite
def degenerate_driver(draw, dim, ordered=False):
    """A regular driver on ``dim`` axes, with start ranks sorted if
    ``ordered``.  When drawn, one axis (the last, or rank 1 if ordered)
    starts at -0.0 and no piece drives it; it is returned 0-based, else None.
    """
    m = draw(st.integers(1, 12))
    start = draw(st.lists(st.sampled_from(STARTS) | st.floats(0.0, 2.0),
                          min_size=dim, max_size=dim))
    still = (0 if ordered else dim - 1) if dim > 1 and draw(st.booleans()) else None
    if ordered:
        start.sort()
    if still is not None:
        start[still] = -0.0
    driven = [k + 1 for k in range(dim) if k != still]
    durations = draw(st.lists(st.sampled_from(DURATIONS) | st.floats(1e-3, 1.0),
                              min_size=m, max_size=m))
    axes = draw(st.lists(st.sampled_from(driven), min_size=m, max_size=m))
    slopes = draw(st.lists(st.sampled_from(SLOPES) | st.floats(-3.0, 3.0),
                           min_size=m, max_size=m))
    scale = draw(st.sampled_from(SCALES))  # not powers of 2: scaling rounds
    start = [scale * v for v in start]
    slopes = [scale * v for v in slopes]
    if draw(st.booleans()):  # end the first piece where its hit lands
        i, alpha = axes[0] - 1, slopes[0]
        k = i + (1 if alpha > 0 else -1)
        if ordered:
            hit = (start[k] - start[i]) / alpha if alpha and 0 <= k < dim else 0.0
        else:
            hit = -start[i] / alpha if alpha < 0 else 0.0
        if 1e-3 <= hit <= 2.0:
            durations[0] = hit * draw(st.sampled_from([1.0, 1 + NEAR, 1 - NEAR]))
    X = RegularPath(start, np.concatenate([[0.0], np.cumsum(durations)]),
                    tuple(axes), slopes)
    return X, still


@st.composite
def reflection_matrix(draw, d):
    if d == 1:
        return ReflectionMatrix(np.eye(1))
    rho = draw(st.sampled_from(RHOS))
    Q = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    return ReflectionMatrix(np.eye(d) - Q * (rho / spectral_radius_nonneg(Q)))


def assert_reflected(gaps, L, identity_residual, Xv):
    """Shared checks: gaps >= 0, L nondecreasing, identity, complementarity."""
    scale = max(1.0, float(np.abs(Xv).max()), float(np.abs(L).max()))
    assert gaps.min() >= 0.0
    dL = np.diff(L, axis=0)
    assert dL.min() >= 0.0
    assert identity_residual <= RESIDUAL_RTOL * scale
    # Z and L are linear between rows, so the trapezoid gives the integral
    assert (dL * (gaps[:-1] + gaps[1:]) / 2).sum() <= RESIDUAL_RTOL * scale ** 2


@given(st.integers(1, 20).flatmap(
    lambda d: st.tuples(reflection_matrix(d), degenerate_driver(d))))
@settings(max_examples=150, deadline=None, derandomize=True)
@example((ReflectionMatrix([[1.0]]),
          (RegularPath([X_ROUND], [0.0, T_ROUND], (1,), [-A_ROUND]), None)))
def test_skorokhod_exact_solver_on_degenerate_drivers(case):
    R, (X, still) = case
    sol = solve_regular(R, X)
    Z, L = sol.Z.values, sol.L.values
    Xv = X.values_at(sol.Z.times)
    residual = np.abs(Z - Xv - L @ R.entries.T).max()
    assert_reflected(Z, L, residual, Xv)
    assert bits(sol.diagnostics["max_identity_residual"]) == bits(residual)
    if still is not None:  # a pinned -0.0 is never written
        assert np.signbit(Z[:, still]).all()


@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    degenerate_driver(n, ordered=True))))
@settings(max_examples=150, deadline=None, derandomize=True)
@example(([0.5, 0.5],
          (RegularPath([0.0, X_ROUND], [0.0, T_ROUND], (2,), [-A_ROUND]), None)))
@example(([0.5] * 3,  # a subnormal slope: the block speed underflows to 0.0
          (RegularPath([-0.0, 5e-324, 0.3], [0.0, 0.3, 0.4], (3, 3), [-1.0, -5e-324]),
           0)))
def test_particle_exact_solver_on_degenerate_drivers(case):
    qminus, (X, still) = case
    q = CollisionParams.from_qminus(qminus)
    sol = solve_competing(q, X)
    Y, L = sol.Y.values, sol.L.values
    Xv = X.values_at(sol.Y.times)
    pad = np.zeros((len(L), 1))
    pushed = (np.asarray(q.qplus) * np.hstack([pad, L])
              - np.asarray(q.qminus) * np.hstack([L, pad]))
    assert_reflected(np.diff(Y, axis=1), L, np.abs(Y - Xv - pushed).max(), Xv)
    diag = sol.diagnostics
    assert bits(diag["max_identity_residual"]) == bits(
        np.abs(Y - _positions(q, Xv, L)).max())
    assert bits(diag["alpha_weight_residual"]) == bits(
        np.abs((Y - Xv) @ alphas(q)).max())
    if still is not None and not Y[:, still].any():  # rank 1 never pushed
        assert np.signbit(Y[:, still]).all()


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def assert_free_pieces_forward_filled(X, times, Z, L, kernel):
    """Each piece the kernel finds free adds one row: the row before it, bit
    for bit, with only the piece's axis set to the kernel's float; L is kept.
    Returns the number of free pieces."""
    at = np.searchsorted(times, X.breakpoints)
    free = 0
    for k, (axis, slope) in enumerate(zip(X.axes, X.slopes.tolist())):
        a, b = at[k], at[k + 1]
        T = float(X.breakpoints[k + 1] - X.breakpoints[k])
        out = kernel(Z[a].tolist(), axis - 1, slope, T)
        if not isinstance(out, float):
            continue
        free += 1
        assert b == a + 1
        want = Z[a].copy()
        want[axis - 1] = out
        assert (bits(Z[b]) == bits(want)).all()
        assert (bits(L[b]) == bits(L[a])).all()
    return free


@given(st.integers(1, 20).flatmap(
    lambda d: st.tuples(reflection_matrix(d), degenerate_driver(d))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_skorokhod_free_pieces_are_forward_filled(case):
    R, (X, _) = case
    sol = solve_regular(R, X)
    assert_free_pieces_forward_filled(X, sol.Z.times, sol.Z.values, sol.L.values,
                                      partial(_segment_arrays, R.entries, {}))


def zero_set(row) -> tuple[int, ...]:
    return tuple(j + 1 for j, v in enumerate(row) if v == 0.0)


@given(st.integers(1, 20).flatmap(
    lambda d: st.tuples(reflection_matrix(d), degenerate_driver(d))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_skorokhod_events_name_the_zero_sets_of_their_rows(case):
    # the kernel grows the active set from the components that reach 0; it
    # must always be the zero set of the row the event closes
    R, (X, _) = case
    sol = solve_regular(R, X)
    at = np.searchsorted(sol.Z.times, X.breakpoints)
    rates = {}
    for k, (axis, slope) in enumerate(zip(X.axes, X.slopes.tolist())):
        row = sol.Z.values[at[k]].tolist()
        T = float(X.breakpoints[k + 1] - X.breakpoints[k])
        out = _segment_arrays(R.entries, rates, row, axis - 1, slope, T)
        if isinstance(out, float):
            continue
        _, rows, _, events, _ = out
        assert len(events) == len(rows) - 1  # the last row ends the piece
        for before, (_, active_before, active_after), after in zip(
                [row, *rows], events, rows):
            assert active_before == zero_set(before)
            assert active_after == zero_set(after)


@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    degenerate_driver(n, ordered=True))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_particle_free_pieces_are_forward_filled(case):
    qminus, (X, _) = case
    q = CollisionParams.from_qminus(qminus)
    sol = solve_competing(q, X)
    assert_free_pieces_forward_filled(X, sol.Y.times, sol.Y.values, sol.L.values,
                                      partial(_block_phases, q.qplus, q.qminus))


def test_negative_zero_survives_pushing_and_free_pieces():
    # axis 1 hits 0 at t = 0.5 and pushes while axis 2 sits at -0.0 in the
    # active set; the free piece after it copies that -0.0 forward
    R = ReflectionMatrix([[1.0, -0.5], [-0.5, 1.0]])
    X = RegularPath([0.5, -0.0], [0.0, 1.0, 1.5], (1, 1), [-1.0, 1.0])
    sol = solve_regular(R, X)
    assert sol.L.values[-1].min() > 0.0 and len(sol.events) == 1
    assert np.signbit(sol.Z.values[:, 1]).all()
    assert assert_free_pieces_forward_filled(
        X, sol.Z.times, sol.Z.values, sol.L.values,
        partial(_segment_arrays, R.entries, {})) == 1


def test_negative_zero_rank_survives_pushing_and_free_pieces():
    # rank 3 runs into rank 2 and pushes the pair down, never reaching rank 1
    # at -0.0; rank 3 then moves up alone
    q = CollisionParams.symmetric(3)
    X = RegularPath([-0.0, 0.5, 1.0], [0.0, 1.0, 1.2], (3, 3), [-1.0, 1.0])
    sol = solve_competing(q, X)
    assert sol.L.values[-1, 1] > 0.0 and len(sol.events) == 1
    assert np.signbit(sol.Y.values[:, 0]).all()
    assert assert_free_pieces_forward_filled(
        X, sol.Y.times, sol.Y.values, sol.L.values,
        partial(_block_phases, q.qplus, q.qminus)) == 1


def test_free_piece_clamped_to_zero_is_forward_filled():
    # x / a rounds up onto T although x - a T rounds below 0: the free piece
    # ends at +0.0, which the next free piece carries forward
    assert X_ROUND / A_ROUND >= T_ROUND and X_ROUND - A_ROUND * T_ROUND < 0.0
    R = ReflectionMatrix([[1.0, -0.2], [-0.3, 1.0]])
    X = RegularPath([X_ROUND, 0.7], [0.0, T_ROUND, 1.0], (1, 2), [-A_ROUND, -0.1])
    sol = solve_regular(R, X)
    assert not sol.events and not sol.L.values.any()
    assert (bits(sol.Z.values[1:, 0]) == bits([0.0, 0.0])).all()
    assert assert_free_pieces_forward_filled(
        X, sol.Z.times, sol.Z.values, sol.L.values,
        partial(_segment_arrays, R.entries, {})) == 2


def test_free_rank_clamped_onto_its_neighbour_is_forward_filled():
    # the same rounding lets rank 2 pass rank 1 at T; it is snapped onto it
    q = CollisionParams.symmetric(3)
    X = RegularPath([0.0, X_ROUND, 2.0], [0.0, T_ROUND, 1.0], (2, 3),
                    [-A_ROUND, 0.5])
    sol = solve_competing(q, X)
    assert not sol.events and not sol.L.values.any()
    assert (bits(sol.Y.values[1:, 1]) == bits([0.0, 0.0])).all()
    assert assert_free_pieces_forward_filled(
        X, sol.Y.times, sol.Y.values, sol.L.values,
        partial(_block_phases, q.qplus, q.qminus)) == 2


def test_block_ending_at_T_past_the_rank_ahead_is_snapped_onto_it():
    # the block of ranks 1-2 ends its last phase at T one ulp past rank 3
    q = CollisionParams((0.5, 0.46371442879628844, 0.6269472713412737),
                        (0.5362855712037116, 0.3730527286587263, 0.4477378056085357))
    top = 1.6063048998613358
    X = RegularPath([0.0, 0.6451811392987657, top], [0.0, 2.0948521142106147],
                    (1,), [1.2973919099475384])
    sol = solve_competing(q, X)
    assert len(sol.events) == 1
    assert (bits(sol.Y.values[-1]) == bits([top] * 3)).all()


def test_solution_starts_at_plus_zero_after_a_negative_zero_breakpoint():
    X = RegularPath([0.5], [-0.0, 1.0], (1,), [-1.0])
    assert np.signbit(X.breakpoints[0])
    sol = solve_regular(ReflectionMatrix([[1.0]]), X)
    assert (bits(sol.Z.times) == bits([0.0, 0.5, 1.0])).all()


def test_free_pieces_start_from_the_last_written_value():
    # a -0.0 moved at slope -0.0 stays -0.0 (+0.0 would not), so each free
    # piece must start from the exact float the one before it wrote
    X = RegularPath([-0.0, 1.0], [0.0, 0.5, 1.0, 1.5], (1, 2, 1), [-0.0, -1.0, -0.0])
    sol = solve_regular(ReflectionMatrix(np.eye(2)), X)
    assert np.signbit(sol.Z.values[:, 0]).all()
    Y = RegularPath([-1.0, -0.0], [0.0, 0.5, 1.0], (2, 2), [-0.0, -0.0])
    sol = solve_competing(CollisionParams.symmetric(2), Y)
    assert np.signbit(sol.Y.values[:, 1]).all()


VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 0.3, -0.3, 1.0]


def on_or_off_grid(draw, grid, T):
    """0, T and some times on, or one ulp off, the inner times of grid."""
    times = {0.0, T}
    for k in draw(st.lists(st.integers(1, len(grid) - 1), max_size=10)):
        to = draw(st.sampled_from([-np.inf, np.inf, grid[k]]))
        times.add(float(np.nextafter(grid[k], to)))
    return np.array(sorted(t for t in times if 0.0 <= t <= T))


def value_rows(draw, m, n):
    return np.array(draw(st.lists(
        st.lists(st.sampled_from(VALUES) | st.floats(-2.0, 2.0), min_size=n, max_size=n),
        min_size=m, max_size=m)))


@st.composite
def gap_solution_and_times(draw):
    """A stand-in for a gap solution, Z and L on one grid with signed zeros
    and subnormals, and sample times on or one ulp off its grid."""
    T = draw(st.sampled_from([1.0, 0.3, 2.5]))
    grid = np.linspace(0.0, T, draw(st.integers(2, 12)))
    n = draw(st.integers(1, 4))
    sk = SimpleNamespace(Z=SampledPath(grid, value_rows(draw, len(grid), n)),
                         L=SampledPath(grid, value_rows(draw, len(grid), n)))
    return sk, on_or_off_grid(draw, grid, T)


def sampled_reference(P, ts):
    """SampledPath.values_at written with fancy indexing."""
    idx = np.clip(np.searchsorted(P.times, ts, side="right") - 1, 0, len(P.times) - 2)
    t0, t1 = P.times[idx], P.times[idx + 1]
    w = ((ts - t0) / (t1 - t0))[:, None]
    return P.values[idx] * (1.0 - w) + P.values[idx + 1] * w


def regular_reference(P, ts):
    """RegularPath.values_at written with fancy indexing."""
    idx = np.clip(np.searchsorted(P.breakpoints, ts, side="right") - 1, 0, len(P.axes) - 1)
    out = P.vertices[idx].copy()
    out[np.arange(len(ts)), P.cols[idx]] += P.slopes[idx] * (ts - P.breakpoints[idx])
    return out


@st.composite
def both_paths_and_times(draw):
    """A sampled and a regular path on one grid, with signed zeros and
    subnormals in their values and slopes, and times on or one ulp off it."""
    sk, ts = draw(gap_solution_and_times())
    grid, n = sk.Z.times, sk.Z.dim
    axes = draw(st.lists(st.integers(1, n), min_size=len(grid) - 1,
                         max_size=len(grid) - 1))
    return sk.Z, RegularPath(sk.Z.values[0], grid, tuple(axes), sk.L.values[1:, 0]), ts


@given(both_paths_and_times())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_values_at_gives_the_reference_bits(case):
    # ts holds 0 and T; its empty slice must read as zero rows
    S, X, ts = case
    for P, reference in ((S, sampled_reference), (X, regular_reference)):
        for t in (ts, ts[:0]):
            got, want = P.values_at(t), reference(P, t)
            assert got.shape == want.shape == (len(t), P.dim)
            assert got.tobytes() == want.tobytes()


@st.composite
def sampled_rank_driver(draw, n):
    """Sampled driver of n ranks and the level of its gap solve.  Its
    sample times sit on, or one ulp off, breakpoints of the level-n regular
    approximation of its gaps, and its values mix signed zeros and
    subnormals."""
    level = draw(st.integers(1, 6))
    T = draw(st.sampled_from([1.0, 0.3, 2.5]))
    times = on_or_off_grid(draw, np.linspace(0.0, T, level * (n - 1) + 1), T)
    rows = value_rows(draw, len(times), n)
    rows[0].sort()
    return SampledPath(times, rows), level


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    sampled_rank_driver(n), st.sampled_from(["exact", "grid"]))))
@settings(max_examples=100, deadline=None, derandomize=True)
@example(([0.5] * 3, (SampledPath([0.0, np.nextafter(0.5, 1.0), 1.0],
                                  [[0.0, -0.0, 0.3], [0.2, 0.1, 0.3], [0.0, 0.1, 0.2]]),
                      2), "exact"))
def test_gap_route_union_grid_reads_as_values_at(case):
    # the -0.0 gap of the example is kept on the rows before its first sweep
    qminus, (X, level), method = case
    q = CollisionParams.from_qminus(qminus)
    sol = solve_competing(q, X, n=level, method=method)
    sk = solve(reflection_matrix_from_params(q), difference_path(X), method, level)
    times = np.union1d(sk.Z.times, X.times)
    assert sol.L.times.tobytes() == times.tobytes()
    assert sol.L.values.tobytes() == sk.L.values_at(times).tobytes()
    assert sol.Z.values.tobytes() == sk.Z.values_at(times).tobytes()
