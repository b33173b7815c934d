"""Properties of both exact solvers on degenerate regular drivers.

The drivers mix signed zeros, subnormal and near-tied start coordinates,
zero slopes, and pieces whose hits land within ``HIT_TIE_RTOL`` of a
breakpoint or of another component's hit, in dimensions up to 20, at path
scales from 1e-6 to 1e6 and with rho(Q) up to 1 - 1e-7.  Every solve must
keep Z >= 0 (ranks ordered), keep L nondecreasing, and satisfy the defining
identity and complementarity (the integral of Z dL vanishes).  A free piece,
on which nothing reaches the boundary or a neighbour, must change only its
own axis, to the kernel's value, bit for bit, and every event of a pushing
piece must name the zero sets of the rows around it.  The driver rows that
``_stitch`` sums in its index table must be ``RegularPath.vertices`` at every
breakpoint and ``values_at`` at every phase time, bit for bit, the solvers'
residual diagnostics, read off those rows, must equal the plain
``values_at`` reading bit for bit, the gap route must report its gap solve's
Z, L and events, at the default level every sample time must be a row of each
sampled-route solution, and ``values_at`` must give the bits of its reference
fancy-index formula.
A particle free piece must give the bits of the sign-product formula
s * (s * y + |alpha| * T) and its snap, and the boundary rows that ``_stitch``
offsets with one ``cumsum`` must be those of a running sum over the pushes.
Two symmetries hold bit for bit: the rank mirror (``invert_system`` with the
negated, rank-reversed driver) and scaling the driver by a power of two.
Every draw is derandomized, so a run cannot pass or fail by the draw.
"""

import math
from array import array
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
    _run_blocks,
    alphas,
    driving_path_for,
    invert_system,
    reflection_matrix_from_params,
    solve_competing,
)
from orthantsim.comparison import random_cbp_spec
from orthantsim.paths import (
    RegularPath,
    SampledPath,
    brownian_components,
    difference_path,
    standard_regular_approximation,
)
from orthantsim.skorokhod import (
    HIT_TIE_RTOL,
    _run_segments,
    _segment_arrays,
    _stitch,
    simulate_srbm,
    solve,
    solve_continuous,
    solve_regular,
)

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
    P = _positions(q, Xv, L, np.empty_like(Xv), np.empty_like(L))
    assert bits(diag["max_identity_residual"]) == bits(np.abs(Y - P).max())
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
    grid = standard_regular_approximation(
        SampledPath([0.0, T], np.zeros((2, n - 1))), level).breakpoints
    times = on_or_off_grid(draw, grid, T)
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
def test_gap_route_reports_its_gap_solve(case):
    # == compares bytes: the -0.0 gap of the example is kept on the rows
    # before its first sweep
    qminus, (X, level), method = case
    level = level if method == "exact" else None  # the grid method reads no level
    q = CollisionParams.from_qminus(qminus)
    sol = solve_competing(q, X, n=level, method=method)
    sk = solve(reflection_matrix_from_params(q), difference_path(X), method, level)
    assert (sol.Z, sol.L, sol.events) == (sk.Z, sk.L, sk.events)
    assert sol.Y.times.tobytes() == sk.Z.times.tobytes()
    Xs, L = X.values_at(sk.Z.times), sk.L.values
    want = _positions(q, Xs, L, np.empty_like(Xs), np.empty_like(L))
    assert sol.Y.values.tobytes() == want.tobytes()


@st.composite
def brownian_grid_inputs(draw):
    """Dimension, step count, horizon and seed of a path sampled on
    ``linspace(0, T, n + 1)``, with the step counts 1 000 and 2 500 drawn
    often."""
    d = draw(st.integers(1, 12))
    n = draw(st.sampled_from([1000, 2500]) | st.integers(1, 2500))
    T = draw(st.sampled_from([1.0, 0.3, 3.7, 1e-3]))
    return d, n, T, draw(st.integers(0, 2**32 - 1))


@given(brownian_grid_inputs().flatmap(
    lambda c: st.tuples(st.just(c), reflection_matrix(c[0]))))
@settings(max_examples=40, deadline=None, derandomize=True)
@example(((5, 1000, 1.0, 3), ReflectionMatrix(np.eye(5))))
def test_sample_times_are_rows_of_every_sampled_route(case):
    (d, n, T, seed), R = case
    B = brownian_components(max(d, 2), T, n, seed)
    X = SampledPath(B.times, B.values[:, :d] + 0.5)
    srbm = simulate_srbm(R, np.zeros(d), np.eye(d), np.full(d, 0.5), T, n, seed)
    ranks = SampledPath(B.times, B.values + np.arange(max(d, 2)))
    cbp = solve_competing(CollisionParams.symmetric(max(d, 2)), ranks)
    for sol in (solve_continuous(R, X), srbm, cbp):
        assert np.isin(B.times, sol.Z.times).all()
    assert np.isin(B.times, cbp.Y.times).all()


PIECE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -0.3, 0.3, 1.0]
PIECE_SLOPES = SLOPES + [1e-300, 5e-324]


def free_piece_reference(y, i0, alpha, T):
    """A particle piece's free test and end value, written with the sign
    s of alpha as s * (s * y + |alpha| * T) and snapped onto the neighbour it
    rounds past; None if the piece pushes."""
    n, s = len(y), 1 if alpha > 0.0 else -1
    if alpha == 0.0 or not 0 <= i0 + s < n or (
            y[i0 + s] != y[i0] and (y[i0 + s] - y[i0]) / alpha >= T):
        v = s * (s * y[i0] + abs(alpha) * T) if alpha else y[i0]
        if 0 <= i0 + s < n and s * (y[i0 + s] - v) < 0.0:
            v = y[i0 + s]
        return v
    return None


@st.composite
def particle_piece(draw):
    """Ranks with signed zeros, subnormals and ties, one driven rank (often
    rank 1 or N) and a slope with, at times, a duration that ends one hit of
    the neighbour ahead away, or one ulp on either side of it."""
    n = draw(st.integers(2, 8))
    y = sorted(draw(st.lists(st.sampled_from(PIECE_VALUES) | st.floats(-2.0, 2.0),
                             min_size=n, max_size=n)))
    if draw(st.booleans()):  # a tie, as equal floats or as the two zeros
        k = draw(st.integers(0, n - 2))
        y[k + 1] = draw(st.sampled_from([y[k], -y[k] if y[k] == 0.0 else y[k]]))
    i0 = draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))
    alpha = draw(st.sampled_from(PIECE_SLOPES + [-v for v in PIECE_SLOPES])
                 | st.floats(-3.0, 3.0))
    T = draw(st.sampled_from(DURATIONS) | st.floats(1e-3, 1.0))
    s = 1 if alpha > 0.0 else -1
    if alpha and 0 <= i0 + s < n and draw(st.booleans()):
        hit = (y[i0 + s] - y[i0]) / alpha
        if 0.0 < hit < math.inf:
            T = float(np.nextafter(hit, draw(st.sampled_from([-math.inf, math.inf, hit]))))
    return y, i0, alpha, T


@given(particle_piece(), st.lists(st.floats(0.1, 0.9), min_size=8, max_size=8))
@settings(max_examples=400, deadline=None, derandomize=True)
@example(([-0.0, 0.0, 1.0], 1, -1.0, 0.5), [0.5] * 8)  # tied with rank 1 across zeros
@example(([0.0, 0.3, 1.0], 1, -5e-324, 0.5), [0.5] * 8)  # a subnormal slope
@example(([0.0, 0.3, 1.0], 2, -0.0, 0.5), [0.5] * 8)
@example(([0.0, 0.5, 1.0], 1, -0.5, 1.0), [0.5] * 8)  # ends on rank 1 at -0.0
# the gap / |alpha| rounds up onto T, yet the move rounds past the neighbour
@example(([-X_ROUND, 0.0], 0, A_ROUND, T_ROUND), [0.5] * 8)
@example(([0.0, X_ROUND], 1, -A_ROUND, T_ROUND), [0.5] * 8)
def test_particle_free_piece_gives_the_sign_product_bits(case, qminus):
    y, i0, alpha, T = case
    q = CollisionParams.from_qminus(qminus[:len(y)])
    want = free_piece_reference(y, i0, alpha, T)
    got = _block_phases(q.qplus, q.qminus, y, i0, alpha, T)
    if want is None:
        assert not isinstance(got, float)
    else:
        assert isinstance(got, float) and bits(got) == bits(want)


def running_sum_L(X, row0, width, run):
    """L of ``_stitch`` built as a running sum: each push's rows plus the
    row the push before it ended on, each row kept until the next push."""
    z, free, pushes = row0.tolist(), array("d"), 0
    Lrows, rows_at, inner = [[0.0] * width], [0], 0
    pieces = zip(X.cols.tolist(), X.slopes.tolist(), np.diff(X.breakpoints).tolist())
    for seg_t, _, seg_L, _, _ in run(z, pieces, free.append):
        k = len(free) + pushes
        t0, t1 = X.breakpoints[k:k + 2].tolist()
        last, offset = t0, Lrows[-1]
        for t, l in zip(seg_t[:-1], seg_L):
            if last < t + t0 < t1:
                last = t + t0
                inner += 1
                rows_at.append(k + inner)
                Lrows.append([a + b for a, b in zip(offset, l)])
        rows_at.append(k + 1 + inner)
        Lrows.append([a + b for a, b in zip(offset, seg_L[-1])])
        pushes += 1
    n = len(X.axes) + 1 + inner
    return np.repeat(np.array(Lrows), np.diff(rows_at, append=n), axis=0)


@st.composite
def push_dense_driver(draw, dim, ordered):
    """Up to 40 pieces from starts close to 0 (and to each other), at slopes
    up to 3 in size: most pieces reach the boundary or a neighbour."""
    m = draw(st.integers(1, 40))
    start = draw(st.lists(st.sampled_from([0.0, -0.0, 5e-324, 0.05, 0.1])
                          | st.floats(0.0, 0.2), min_size=dim, max_size=dim))
    if ordered:
        start.sort()
    durations = draw(st.lists(st.sampled_from(DURATIONS) | st.floats(1e-3, 0.5),
                              min_size=m, max_size=m))
    axes = draw(st.lists(st.integers(1, dim), min_size=m, max_size=m))
    slopes = draw(st.lists(st.sampled_from(SLOPES) | st.floats(-3.0, 3.0),
                           min_size=m, max_size=m))
    return RegularPath(start, np.concatenate([[0.0], np.cumsum(durations)]),
                       tuple(axes), slopes)


@given(st.integers(2, 8).flatmap(lambda n: st.tuples(
    reflection_matrix(n), push_dense_driver(n, ordered=False),
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    push_dense_driver(n, ordered=True))))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_stitched_boundary_rows_are_the_running_sums(case):
    R, X, qminus, Y = case
    sol = solve_regular(R, X)
    want = running_sum_L(X, X.start, R.dim, partial(_run_segments, R.entries, {}))
    assert sol.L.values.tobytes() == want.tobytes()
    q = CollisionParams.from_qminus(qminus)
    sol = solve_competing(q, Y)
    want = running_sum_L(Y, Y.start, len(qminus) - 1,
                         partial(_run_blocks, q.qplus, q.qminus))
    assert sol.L.values.tobytes() == want.tobytes()


def assert_driver_rows_exact(X, row0, width, run):
    """The X rows of ``_stitch`` are ``X.vertices`` at the breakpoints and
    ``X.values_at`` at the phase times, bit for bit."""
    times, _, _, Xv, _, _, _ = _stitch(X, row0, width, run)
    at = np.searchsorted(times, X.breakpoints)
    assert times[at].tobytes() == (X.breakpoints + 0.0).tobytes()
    assert Xv[at].tobytes() == X.vertices.tobytes()
    phase = np.delete(np.arange(len(times)), at)
    assert Xv[phase].tobytes() == X.values_at(times[phase]).tobytes()


@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    reflection_matrix(n),
    degenerate_driver(n).map(lambda case: case[0]) | push_dense_driver(n, False),
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    degenerate_driver(n, ordered=True).map(lambda case: case[0])
    | push_dense_driver(n, True))))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_stitched_driver_rows_are_the_vertices_and_values_at(case):
    R, X, qminus, Y = case
    assert_driver_rows_exact(X, X.start, R.dim, partial(_run_segments, R.entries, {}))
    q = CollisionParams.from_qminus(qminus)
    assert_driver_rows_exact(Y, Y.start, len(qminus) - 1,
                             partial(_run_blocks, q.qplus, q.qminus))


# ------------------------------------------------------------------ symmetries

def mirrored(X: RegularPath) -> RegularPath:
    """The rank-reversed, negated driver: axis a becomes N + 1 - a."""
    n = X.dim
    return RegularPath(-X.start[::-1], X.breakpoints,
                       tuple(n + 1 - a for a in X.axes), -X.slopes)


@st.composite
def verify_rank_driver(draw, n):
    """The rank driver that ``verify`` solves: a ``random_cbp_spec`` at
    level 200."""
    spec = random_cbp_spec(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), n)
    return standard_regular_approximation(driving_path_for(spec), 200), spec.q


@given(st.integers(2, 8).flatmap(lambda n: st.one_of(
    st.tuples(st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n).map(
        CollisionParams.from_qminus),
        degenerate_driver(n, ordered=True).map(lambda c: c[0])
        | push_dense_driver(n, ordered=True)),
    verify_rank_driver(min(n, 7)).map(lambda c: (c[1], c[0])))))
@settings(max_examples=60, deadline=None, derandomize=True)
@example((CollisionParams.from_qminus([0.3, 0.6, 0.5]),  # ties across signed zeros
          RegularPath([-0.0, 0.0, 0.0], [0.0, 0.5, 1.0], (2, 1), [-1.0, 1.0])))
@example((CollisionParams.from_qminus([0.5, 0.5]),  # snapped onto rank 1 at T
          RegularPath([0.0, X_ROUND], [0.0, T_ROUND], (2,), [-A_ROUND])))
@example((CollisionParams.from_qminus([0.5] * 3),  # a subnormal slope
          RegularPath([-0.0, 5e-324, 0.3], [0.0, 0.3, 0.4], (3, 3), [-1.0, -5e-324])))
def test_rank_mirror_is_exact(case):
    """Reversing the ranks and negating the driver mirrors the solution:
    Y' = -Y[:, ::-1], and L and Z reversed, on the same times."""
    q, X = case
    sol = solve_competing(q, X)
    mir = solve_competing(invert_system(q), mirrored(X))
    assert mir.Y.times.tobytes() == sol.Y.times.tobytes()
    # == takes -0.0 and +0.0 as equal: negation maps one to the other
    assert np.array_equal(mir.Y.values, -sol.Y.values[:, ::-1])
    assert np.array_equal(mir.L.values, sol.L.values[:, ::-1])
    assert np.array_equal(mir.Z.values, sol.Z.values[:, ::-1])


@st.composite
def scalable_driver(draw, dim, ordered):
    """A regular driver whose values and slopes are 0 or at least 1e-3 in
    size, so that a scaling by 2**k, |k| <= 30, neither overflows nor goes
    subnormal."""
    m = draw(st.integers(1, 30))
    values = st.sampled_from([0.0, -0.0, 0.05, 0.3, 0.5]) | st.floats(1e-3, 2.0)
    start = draw(st.lists(values, min_size=dim, max_size=dim))
    if ordered:
        start.sort()
    durations = draw(st.lists(st.sampled_from(DURATIONS) | st.floats(1e-3, 0.5),
                              min_size=m, max_size=m))
    axes = draw(st.lists(st.integers(1, dim), min_size=m, max_size=m))
    slopes = draw(st.lists(st.sampled_from([0.0, -0.0, -1.0, -0.5, -2.0, 1.0, 0.5])
                           | st.floats(-3.0, -1e-3) | st.floats(1e-3, 3.0),
                           min_size=m, max_size=m))
    return RegularPath(start, np.concatenate([[0.0], np.cumsum(durations)]),
                       tuple(axes), slopes)


def scaled(X: RegularPath, c: float) -> RegularPath:
    return RegularPath(c * X.start, X.breakpoints, X.axes, c * X.slopes)


@given(st.integers(2, 9).flatmap(lambda d: st.tuples(
    reflection_matrix(d), scalable_driver(d, ordered=False),
    st.lists(st.floats(0.1, 0.9), min_size=d, max_size=d),
    scalable_driver(d, ordered=True))),
    st.sampled_from([-30, 30]) | st.integers(-30, 30))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_scaling_by_a_power_of_two_is_exact(case, k):
    """The Skorohod map is positively homogeneous, and a power of two scales
    every float exactly: Z, L (and Y) scale by 2**k on the same times, with
    the same events."""
    c = 2.0 ** k
    R, X, qminus, Xp = case
    q = CollisionParams.from_qminus(qminus)
    for solver, driver, names in ((partial(solve_regular, R), X, "ZL"),
                                  (partial(solve_competing, q), Xp, "ZLY")):
        sol, big = solver(driver), solver(scaled(driver, c))
        assert big.Z.times.tobytes() == sol.Z.times.tobytes()
        for name in names:
            assert (getattr(big, name).values.tobytes()
                    == (c * getattr(sol, name).values).tobytes())
        assert big.events == sol.events
