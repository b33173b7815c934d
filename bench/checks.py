"""Output checks for benchmark ops.

Every check returns a list of problem strings; an empty list means the output
is correct.  All thresholds are named here and scaled to the data: ``scale``
is ``max(1, max|X|, max|L|)`` for reflected solutions and ``max(1, max|Y|)``
for particle positions.  The exact solvers land around 1e-14 * scale on the
identity residual and exactly 0 on complementarity at the workload sizes, so
the thresholds leave several orders of magnitude of headroom while still
catching any corrupted row.
"""

from __future__ import annotations

import itertools

import numpy as np

NEG_Z_RTOL = 1e-12            # Z >= -NEG_Z_RTOL * scale
L_DECREASE_RTOL = 1e-12       # L_i(t_{k+1}) >= L_i(t_k) - L_DECREASE_RTOL * scale
IDENTITY_RTOL = 1e-9          # max|Z - X - R L| <= IDENTITY_RTOL * scale
EXACT_COMPLEMENTARITY_RTOL = 1e-9   # int Z dL <= rtol * scale * total L growth
GRID_TOL_FACTOR = 10.0        # grid solves may miss Z >= 0 and Z dL = 0 by
                              # this multiple of the fixed-point tolerance
ORDER_RTOL = 1e-9             # Y_{k+1} - Y_k >= -ORDER_RTOL * scale
GAP_RTOL = 1e-9               # max|Z - diff(Y)| <= GAP_RTOL * scale
BETWEEN_GRID_FACTOR = 2.0     # off the sample grid: bound in driver step sizes
CSV_CHUNK_ROWS = 200          # CSV rows parsed at once by csv_problems


def sweep_driver_at(times_grid: np.ndarray, values: np.ndarray, n: int,
                    ts: np.ndarray) -> np.ndarray:
    """Level-n axis-sweep approximation of a sampled path, evaluated at ts.

    Built here independently of the library: within each of the n equal
    subintervals the d components move one at a time, in axis order, to
    their values at the subinterval's right endpoint.  ``values`` are the
    path's values on ``times_grid``.
    """
    d = values.shape[1]
    T = float(times_grid[-1])
    anchors = np.linspace(0.0, T, n + 1)
    V = np.column_stack([np.interp(anchors, times_grid, values[:, c])
                         for c in range(d)])
    # vertex k*d + j + 1 has components 0..j at V[k+1] and the rest at V[k]
    moved = np.tile(np.tri(d, dtype=bool), (n, 1))
    verts = np.where(moved, np.repeat(V[1:], d, axis=0),
                     np.repeat(V[:-1], d, axis=0))
    verts = np.vstack([V[:1], verts])
    breakpoints = np.linspace(0.0, T, n * d + 1)
    return np.column_stack([np.interp(ts, breakpoints, verts[:, c])
                            for c in range(d)])


def reflected_problems(Z: np.ndarray, L: np.ndarray, X: np.ndarray,
                       R: np.ndarray, grid_tol: float | None = None) -> list[str]:
    """Skorohod conditions for (Z, L) against the driver X on the same times.

    ``grid_tol`` is None for exact (piecewise-linear) solutions, where
    int Z dL is computed exactly by the trapezoid rule and must vanish.  For
    grid solutions it is the fixed-point tolerance, and the right-endpoint
    sum sum Z(t_{k+1}) dL_k must stay within a multiple of it.
    """
    scale = max(1.0, float(np.abs(X).max()), float(np.abs(L).max()))
    slack = GRID_TOL_FACTOR * grid_tol if grid_tol is not None else 0.0
    problems = []
    if Z.min() < -(NEG_Z_RTOL * scale + slack):
        problems.append(f"min Z {Z.min():.3g} below the floor")
    dL = np.diff(L, axis=0)
    if dL.size and dL.min() < -L_DECREASE_RTOL * scale:
        k, i = np.unravel_index(int(np.argmin(dL)), dL.shape)
        problems.append(f"L_{i + 1} decreases by {-dL[k, i]:.3g} at row {k + 1}")
    resid = float(np.abs(Z - X - L @ R.T).max())
    if resid > IDENTITY_RTOL * scale:
        problems.append(f"identity residual |Z - X - RL| = {resid:.3g}")
    growth = np.clip(dL, 0.0, None)
    if grid_tol is None:
        compl = float((growth * 0.5 * (Z[:-1] + Z[1:])).sum())
        limit = EXACT_COMPLEMENTARITY_RTOL * scale * float(growth.sum())
    else:
        compl = float((growth * Z[1:]).sum())
        limit = slack * float(growth.sum())
    if compl > limit:
        problems.append(f"complementarity sum Z dL = {compl:.3g} > {limit:.3g}")
    return problems


def particle_problems(times: np.ndarray, Y: np.ndarray, Z: np.ndarray,
                      grid_times: np.ndarray, driver_step: float,
                      grid_tol: float | None = None) -> list[str]:
    """Ranked positions stay ordered and the gap process is diff(Y).

    Both hold exactly (up to roundoff, or the fixed-point tolerance of a grid
    solve) at the sample-grid times ``grid_times``.  Between them the exact
    gap route rebuilds Y from the linearly interpolated particle driver while
    Z solves the axis-sweep gap driver, so there the library promises only a
    mismatch and a rank crossing below twice the driver's largest step
    increment ``driver_step`` (see tests/test_particles.py,
    test_cbp_ordering_margin); that bound is what is checked there.
    """
    scale = max(1.0, float(np.abs(Y).max()))
    slack = GRID_TOL_FACTOR * grid_tol if grid_tol is not None else 0.0
    on_grid = np.isin(times, grid_times)
    gaps = np.diff(Y, axis=1)
    mismatch = np.abs(Z - gaps).max(axis=1)
    problems = []
    limits = (("on", on_grid, ORDER_RTOL * scale + slack, GAP_RTOL * scale),
              ("off", ~on_grid, BETWEEN_GRID_FACTOR * driver_step,
               BETWEEN_GRID_FACTOR * driver_step))
    for where, rows, order_limit, gap_limit in limits:
        if not rows.any():
            continue
        if gaps[rows].min() < -order_limit:
            problems.append(f"ranks out of order by {-gaps[rows].min():.3g} "
                            f"{where} the sample grid")
        if mismatch[rows].max() > gap_limit:
            problems.append(f"|Z - diff(Y)| = {mismatch[rows].max():.3g} "
                            f"{where} the sample grid")
    return problems


def csv_problems(path, header: list[str], expected: np.ndarray) -> list[str]:
    """The CSV parses, its header and row count match, and every value
    round-trips exactly to ``expected``.

    The file is read CSV_CHUNK_ROWS rows at a time, so that the check holds
    less in memory than the op that wrote it.  ``np.loadtxt`` rounds each
    value correctly, so ``%.17g`` output compares exactly.
    """
    width = expected.shape[1]
    with open(path) as fh:
        got = fh.readline().rstrip("\n")
        if got.split(",") != header:
            return [f"CSV header {got[:80]!r} != {','.join(header)[:80]!r}"]
        rows = 0
        while lines := list(itertools.islice(fh, CSV_CHUNK_ROWS)):
            where = f"CSV rows {rows + 1}-{rows + len(lines)}"
            try:
                block = np.loadtxt(lines, delimiter=",", comments=None,
                                   ndmin=2)
            except ValueError as exc:
                return [f"{where} do not parse: {exc}"]
            if block.shape != (len(lines), width):
                return [f"{where} hold {block.shape[0]} rows of "
                        f"{block.shape[1]} values, expected {width} values each"]
            want = expected[rows:rows + len(block)]
            if len(want) == len(block):
                bad = np.argwhere(block != want)
                if len(bad):
                    r, c = bad[0]
                    return [f"CSV value at row {rows + r + 1} column {c + 1} "
                            f"is {float(block[r, c])!r}, library solve gives "
                            f"{float(want[r, c])!r}"]
            rows += len(block)
    if rows != len(expected):
        return [f"CSV has {rows} rows, expected {len(expected)}"]
    return []
