"""Solvers for the Skorohod problem in the positive orthant.

Given a driving path X with X(0) in the orthant and a reflection nonsingular
M-matrix R, the Skorohod problem asks for Z = X + R L >= 0 with each L_i
nondecreasing from 0 and growing only while Z_i = 0.  This module provides:

* an exact event-driven solver for regular (axis-parallel piecewise-linear)
  driving paths, built from the closed-form single-segment solution;
* an independent fixed-point oracle on a time grid;
* the continuous-path route (regular approximation + exact solve);
* ``solve``, which picks one of these routes for a driving path;
* memoryless restart, and Monte Carlo SRBM simulation.

Solutions are piecewise linear and carried exactly by ``SampledPath`` objects
whose grids are the solver's event/breakpoint times.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    ParameterError,
    RangeError,
)
from .mmatrix import ReflectionMatrix
from .paths import RegularPath, SampledPath, sample_brownian, BrownianSpec
from .paths import standard_regular_approximation, write_path_csv

HIT_TIE_RTOL = 1e-12
# The boundary rates u = [R]_J^{-1} [e_i]_J come from a block of R with unit
# diagonal, so they carry no units and a fixed floor needs no scale.
NEGATIVE_RATE_TOL = 1e-9
# Grid oracle iterates must not decrease by more than this times max |X|.
GRID_MONOTONE_RTOL = 1e-12
# The grid oracle stops once a sweep changes L by less than this.
GRID_TOL = 1e-8


@dataclass(frozen=True)
class PhaseEvent:
    """A jump time of the active boundary set, with the set before/after."""

    tau: float
    active_before: tuple[int, ...]
    active_after: tuple[int, ...]

    def to_jsonable(self) -> dict:
        return {
            "tau": self.tau,
            "active_before": list(self.active_before),
            "active_after": list(self.active_after),
        }


@dataclass(frozen=True)
class SkorokhodSolution:
    """Paired orthant path Z and boundary terms L, plus active-set events."""

    Z: SampledPath
    L: SampledPath
    events: tuple[PhaseEvent, ...]
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def dim(self) -> int:
        return self.Z.dim

    @property
    def final_boundary_terms(self) -> np.ndarray:
        return self.L.values[-1]

    def to_csv(self, fileobj) -> None:
        d = self.dim
        header = [f"z{k + 1}" for k in range(d)] + [f"l{k + 1}" for k in range(d)]
        write_path_csv(fileobj, self.Z.times,
                       np.hstack([self.Z.values, self.L.values]), header)

    def events_to_jsonable(self) -> list[dict]:
        return [e.to_jsonable() for e in self.events]


def _check_start(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != d:
        raise DimensionError(f"start point has size {x.size}, expected {d}")
    if not np.all(np.isfinite(x)):
        raise DomainError("start point contains NaN or infinite entries")
    if x.min() < 0:
        raise DomainError(f"start point {x} is outside the orthant")
    return x


def _members(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(j) + 1 for j in np.flatnonzero(mask))


def _segment_arrays(Rm: np.ndarray, x: np.ndarray, i0: int, alpha: float,
                    T: float):
    """Exact single-segment solve; returns phase ends, events, idle flags.

    Driving path is x + alpha*e_i*t on [0, T].  For alpha >= 0 the path never
    leaves the orthant and (Z, L) = (X, 0).  For alpha < 0 the active set J
    of components pinned at the boundary only grows; within a phase the
    boundary terms grow linearly at rate |alpha| [R]_J^{-1} [e_i]_J and the
    free components decrease linearly, until the first of them hits zero.
    Times, Z rows and L rows are those at the end of each phase (the start
    row x is not repeated); events are (tau, active before, active after).
    """
    z = x.copy()
    l = np.zeros(Rm.shape[0])
    if alpha >= 0.0 or (z[i0] > 0.0 and z[i0] / -alpha >= T):
        z[i0] += alpha * T
        return [T], [z], [l], [], []

    a = -alpha
    times, Zr, Lr, events, idle = [], [], [], [], []
    t = 0.0
    if z[i0] > 0.0:
        t = z[i0] / a
        before = _members(z == 0.0)
        z[i0] = 0.0
        times.append(t)
        Zr.append(z.copy())
        Lr.append(l.copy())
        events.append((t, before, _members(z == 0.0)))

    guard = 0
    while t < T:
        guard += 1
        if guard > Rm.shape[0] + 2:
            raise ConvergenceError("phase loop exceeded the d+1 bound",
                                   details={"t": t, "z": z.tolist()})
        on = z == 0.0
        J = np.flatnonzero(on)
        Jc = np.flatnonzero(~on)
        ei = np.zeros(len(J))
        ei[np.searchsorted(J, i0)] = 1.0
        u = np.linalg.solve(Rm[np.ix_(J, J)], ei)
        # [R]_J^{-1}[e_i]_J >= 0 in exact arithmetic; clip roundoff dust
        if u.min() < -NEGATIVE_RATE_TOL:
            raise ConvergenceError("negative boundary rate from M-matrix solve",
                                   details={"u": u.tolist()})
        u = np.maximum(u, 0.0)
        lam = a * u
        idle.extend(int(j) + 1 for j, r in zip(J, lam) if r == 0.0 and j != i0)
        if len(Jc):
            zslope = a * (Rm[np.ix_(Jc, J)] @ u)  # <= 0
            falling = zslope < 0.0
            if falling.any():
                dts = z[Jc[falling]] / (-zslope[falling])
                dt_min = float(dts.min())
            else:
                dt_min = np.inf
        else:
            zslope = np.zeros(0)
            falling = np.zeros(0, dtype=bool)
            dt_min = np.inf
        t_next = min(t + dt_min, T)
        dt = t_next - t
        if len(Jc):
            z[Jc] = np.maximum(z[Jc] + zslope * dt, 0.0)
        l[J] += lam * dt
        if t_next < T:
            hitters = Jc[falling][dts <= dt_min * (1.0 + HIT_TIE_RTOL)]
            z[hitters] = 0.0
            events.append((t_next, _members(on), _members(z == 0.0)))
        times.append(t_next)
        Zr.append(z.copy())
        Lr.append(l.copy())
        t = t_next
    return times, Zr, Lr, events, idle


def solve_linear_segment(R: ReflectionMatrix, x, i: int, alpha: float,
                         T: float) -> SkorokhodSolution:
    """Exact Skorohod solution for the driving path x + alpha*e_i*t on [0, T].

    ``i`` is 1-based; the boundary set is read off from x (the components
    equal to zero).
    """
    d = R.dim
    x = _check_start(x, d)
    if not 1 <= i <= d:
        raise ParameterError(f"axis index {i} out of 1..{d}")
    if T <= 0:
        raise ParameterError("horizon T must be positive")
    sol = solve_regular(R, RegularPath(x, [0.0, T], (i,), [alpha]))
    sol.diagnostics["phases"] = len(sol.events) + 1
    return sol


def _stitch(X: RegularPath, row0: np.ndarray, width: int, kernel, *params):
    """Chain single-segment solves along X's pieces by memoryless restart.

    ``kernel(*params, row, axis0, slope, duration)`` solves one piece from
    the state ``row`` and returns its phase ends (times, rows, boundary rows),
    its events (tau, before, after), all local to the piece, and one extra
    value.  They are shifted and joined into the times, rows, boundary rows
    and events of all of X; the phase count and the extra value of each
    piece are returned as lists.  A phase end that rounds onto the previous
    time, or onto the piece's end before its last phase, keeps its event but
    adds no row, so the times stay strictly increasing.
    """
    bp = X.breakpoints.tolist()
    times = [0.0]
    rows = [row0]
    Lrows = [np.zeros(width)]
    events: list[PhaseEvent] = []
    phase_counts, extras = [], []
    for k, (axis, slope) in enumerate(zip(X.axes, X.slopes.tolist())):
        t0, t1 = bp[k], bp[k + 1]
        seg_t, seg_rows, seg_L, seg_events, extra = kernel(*params, rows[-1], axis - 1,
                                                           slope, t1 - t0)
        l_offset = Lrows[-1]
        for t, row, l in zip(seg_t[:-1], seg_rows, seg_L):
            t += t0
            if times[-1] < t < t1:
                times.append(t)
                rows.append(row)
                Lrows.append(l_offset + l)
        times.append(t1)  # the last phase ends on the breakpoint
        rows.append(seg_rows[-1])
        Lrows.append(l_offset + seg_L[-1])
        events.extend(PhaseEvent(t0 + tau, before, after)
                      for tau, before, after in seg_events)
        phase_counts.append(len(seg_events) + 1)
        extras.append(extra)
    return (np.array(times), np.array(rows), np.array(Lrows), tuple(events),
            phase_counts, extras)


def _solution_diagnostics(R: ReflectionMatrix, Z: SampledPath, L: SampledPath,
                          driver_at) -> dict:
    X = driver_at(Z.times)
    resid = np.abs(Z.values - X - L.values @ R.entries.T).max()
    return {
        "max_identity_residual": float(resid),
        "min_z": float(Z.values.min()),
    }


def solve_regular(R: ReflectionMatrix, X: RegularPath) -> SkorokhodSolution:
    """Exact solution for a regular driving path, one linear segment at a time.

    Uses the memoryless restart: after each segment the next one is solved
    from the current Z value with the segment's own slope, and boundary terms
    accumulate across segments.
    """
    if X.dim != R.dim:
        raise DimensionError("path dimension must match the matrix dimension")
    z0 = _check_start(X.start, R.dim)
    times, Zv, Lv, events, phase_counts, idle = _stitch(X, z0, R.dim,
                                                        _segment_arrays, R.entries)
    Z = SampledPath(times, Zv)
    L = SampledPath(times, Lv)
    diag = _solution_diagnostics(R, Z, L, X.values_at)
    diag["idle_boundary_components"] = sorted(set().union(*idle))
    diag["phase_counts"] = phase_counts
    diag["method"] = "regular-exact"
    return SkorokhodSolution(Z, L, events, diag)


def solve_grid_oracle(R: ReflectionMatrix, X: SampledPath, tol: float = GRID_TOL,
                      max_iter: int = 10_000) -> SkorokhodSolution:
    """Fixed-point grid solution, independent of the event-driven solver.

    Iterates L_i(t_k) <- max_{s <= t_k} [ -X_i(s) + (Q L)_i(s) ]^+ with
    Q = I - R, starting from L = 0.  Iterates are monotone nondecreasing and
    converge geometrically; stops when the sup-change drops below tol.
    """
    if X.dim != R.dim:
        raise DimensionError("path dimension must match the matrix dimension")
    _check_start(X.values[0], R.dim)
    if tol <= 0:
        raise ParameterError("tol must be positive")
    Xv = X.values
    Qt = R.q_matrix().T
    L = np.zeros_like(Xv)
    scale = max(1.0, float(np.abs(Xv).max()))
    sup_changes = []
    monotone = True
    for m in range(1, max_iter + 1):
        G = L @ Qt - Xv
        np.maximum.accumulate(G, axis=0, out=G)
        np.maximum(G, 0.0, out=G)
        diff = G - L
        delta = float(np.abs(diff).max())
        if diff.min() < -GRID_MONOTONE_RTOL * scale:
            monotone = False
        L = G
        sup_changes.append(delta)
        if delta < tol:
            break
    else:
        raise ConvergenceError(
            f"grid fixed point not converged after {max_iter} iterations",
            details={"last_sup_change": sup_changes[-1]},
        )
    Z = Xv + L @ R.entries.T
    diag = {
        "iterations": m,
        "sup_changes": sup_changes,
        "monotone": monotone,
        "max_identity_residual": 0.0,  # Z is defined as X + RL here
        "min_z": float(Z.min()),
        "method": "grid-oracle",
    }
    return SkorokhodSolution(SampledPath(X.times, Z), SampledPath(X.times, L),
                             (), diag)


def solve_continuous(R: ReflectionMatrix, X: SampledPath,
                     n: int | None = None) -> SkorokhodSolution:
    """Exact solve of the level-n regular approximation of X.

    By continuity of the Skorohod map the result converges uniformly to the
    solution for X as n grows.  ``n=None`` anchors at every grid time of X.
    """
    Xn = standard_regular_approximation(X, n)
    sol = solve_regular(R, Xn)
    sol.diagnostics.update(level=len(Xn.axes) // Xn.dim, method="continuous")
    return sol


def _check_method(X, method: str) -> None:
    """Raise ``ParameterError`` unless ``method`` applies to the driver X."""
    if method != "exact" and (method != "grid" or isinstance(X, RegularPath)):
        raise ParameterError(f"method {method!r} cannot solve a {type(X).__name__}; "
                             "use 'exact', or 'grid' for a sampled path")


def solve(R: ReflectionMatrix, X, method: str = "exact", level: int | None = None,
          tol: float = GRID_TOL) -> SkorokhodSolution:
    """Skorohod solution for X: exact for a ``RegularPath``; for a sampled
    path, ``solve_continuous`` at ``level`` (``method="exact"``) or the grid
    oracle at ``tol`` (``method="grid"``).
    """
    _check_method(X, method)
    if isinstance(X, RegularPath):
        return solve_regular(R, X)
    if method == "exact":
        return solve_continuous(R, X, level)
    return solve_grid_oracle(R, X, tol=tol)


def restart_inputs(R: ReflectionMatrix, X, sol: SkorokhodSolution, T: float):
    """Driving path and start point that reproduce ``sol`` beyond time T.

    Returns (X_T, Z(T)) with X_T(t) = X(T + t) - X(T) + Z(T); solving the
    Skorohod problem for X_T continues the original solution, with boundary
    terms shifted by L(T).
    """
    horizon = X.horizon
    if T < 0 or T > sol.Z.horizon or T > horizon:
        raise RangeError(f"restart time {T} outside the solved horizon")
    if T == horizon:
        raise RangeError("nothing remains beyond the full horizon")
    zT = sol.Z.values_at(np.asarray([T]))[0]
    if isinstance(X, RegularPath):
        bp = X.breakpoints
        k = int(np.searchsorted(bp, T, side="right") - 1)
        k = min(k, len(X.axes) - 1)
        new_bp = np.concatenate([[T], bp[bp > T]]) - T
        axes = X.axes[k:]
        slopes = X.slopes[k:]
        return RegularPath(zT, new_bp, axes, slopes), zT
    ts = np.concatenate([[T], X.times[X.times > T]])
    vals = X.values_at(ts)
    return SampledPath(ts - T, vals - vals[0] + zT), zT


def simulate_srbm(R: ReflectionMatrix, mu, A, z0, horizon: float, steps: int,
                  seed: int, method: str = "exact", level: int | None = None,
                  tol: float = GRID_TOL) -> SkorokhodSolution:
    """Sample a Brownian driving path from z0 and reflect it with ``solve``.

    ``method``, ``level`` and ``tol`` are those of ``solve``; the level
    defaults to the step count.  Deterministic per seed.
    """
    z0 = _check_start(z0, R.dim)
    B = sample_brownian(BrownianSpec(R.dim, mu, A, horizon, steps, seed))
    sol = solve(R, SampledPath(B.times, z0 + B.values), method, level, tol)
    sol.diagnostics["seed"] = seed
    return sol


def write_solution(sol, csv_file, events_file=None) -> None:
    """CSV trajectory plus the JSON events sidecar, for either solution type."""
    sol.to_csv(csv_file)
    if events_file is not None:
        json.dump(sol.events_to_jsonable(), events_file, indent=2, sort_keys=True)
        events_file.write("\n")
