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
import math
from array import array
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    ParameterError,
    RangeError,
)
from .mmatrix import ReflectionMatrix, spectral_radius_nonneg
from .paths import RegularPath, SampledPath, sample_brownian, BrownianSpec
from .paths import standard_regular_approximation, write_path_csv

HIT_TIE_RTOL = 1e-12
# The boundary rates u = [R]_J^{-1} [e_i]_J come from a block of R with unit
# diagonal, so they carry no units and a fixed floor needs no scale.
NEGATIVE_RATE_TOL = 1e-9
RATE_CACHE_MAX = 4096  # a matrix's boundary-rate cache is cleared at this size
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


def _boundary_rates(Rm: np.ndarray, J: list[int], i0: int):
    """Pairs (j, u_j) of u = [R]_J^{-1}[e_i]_J over the 0-based J (roundoff
    clipped) and pairs (j, w_j) of w = R[Jc,J] u over the free set Jc."""
    Jc = [j for j in range(len(Rm)) if j not in J]
    ei = np.zeros(len(J))
    ei[J.index(i0)] = 1.0
    cols = Rm.take(J, axis=1)  # C-ordered: how BLAS rounds R[Jc,J] u depends on it
    u = np.linalg.solve(cols.take(J, axis=0), ei)
    # [R]_J^{-1}[e_i]_J >= 0 in exact arithmetic; clip roundoff dust
    if u.min() < -NEGATIVE_RATE_TOL:
        raise ConvergenceError("negative boundary rate from M-matrix solve",
                               details={"u": u.tolist()})
    u = np.maximum(u, 0.0)
    return list(zip(J, u.tolist())), list(zip(Jc, (cols.take(Jc, axis=0) @ u).tolist()))


def _run_segments(Rm: np.ndarray, rates: dict, z: list, pieces, append):
    """The orthant solver's run: pieces (i, alpha, T) drive z + alpha*e_i*t.

    The one free test: if alpha >= 0, or z_i does not reach 0 before T, the
    path never leaves the orthant, (Z, L) = (X, 0), and only the new z_i (0.0
    if it rounds below 0) is set and passed to ``append``.  Otherwise the
    active set J grows by the free components that hit 0; within a phase L
    grows linearly at rate |alpha| [R]_J^{-1} [e_i]_J and the free components
    decrease linearly, until the first of them hits 0.  The rates per
    (1-based J, i) are cached in ``rates``, cleared at ``RATE_CACHE_MAX``
    entries.  Yields the times, Z rows and L rows at the end of each phase,
    the events (tau, J before, after) and the idle flags.
    """
    for i0, alpha, T in pieces:
        x = z[i0]
        if alpha >= 0.0 or (x > 0.0 and x / -alpha >= T):
            v = x + alpha * T
            z[i0] = v = 0.0 if v < 0.0 else v  # x / |alpha| rounded up onto T
            append(v)
            continue
        a = -alpha
        l = [0.0] * len(z)
        times, Zr, Lr, events, idle = [], [], [], [], []
        t = 0.0
        J = tuple([j + 1 for j, v in enumerate(z) if v == 0.0])
        if x > 0.0:
            t = x / a
            z[i0] = 0.0
            times.append(t)
            Zr.append(z.copy())
            Lr.append(l.copy())
            before, J = J, tuple(sorted((*J, i0 + 1)))
            events.append((t, before, J))

        guard = 0
        while t < T:
            guard += 1
            if guard > len(z) + 2:
                raise ConvergenceError("phase loop exceeded the d+1 bound",
                                       details={"t": t, "z": z})
            pairs = rates.get((J, i0))
            if pairs is None:
                if len(rates) >= RATE_CACHE_MAX:
                    rates.clear()
                pairs = rates[J, i0] = _boundary_rates(Rm, [j - 1 for j in J], i0)
            ju, jw = pairs
            dts = [(z[j] / (alpha * w), j) for j, w in jw if a * w < 0.0]  # a w <= 0
            dt_min = min(dts)[0] if dts else math.inf
            t_next = min(t + dt_min, T)
            dt = t_next - t
            for j, w in jw:
                v = z[j] + a * w * dt
                z[j] = v if v > 0.0 else 0.0  # as np.maximum(v, 0.0), -0.0 included
            for j, u in ju:
                l[j] += a * u * dt
            idle.extend(j + 1 for j, u in ju if a * u == 0.0 and j != i0)
            if t_next < T:
                cut = dt_min * (1.0 + HIT_TIE_RTOL)
                for dtj, j in dts:
                    if dtj <= cut:
                        z[j] = 0.0
                before, J = J, tuple(sorted([*J, *[j + 1 for j, _ in jw if z[j] == 0.0]]))
                events.append((t_next, before, J))
            times.append(t_next)
            Zr.append(z.copy())
            Lr.append(l.copy())
            t = t_next
        yield times, Zr, Lr, events, idle


def _segment_arrays(Rm: np.ndarray, rates: dict, x: list, i0: int, alpha: float,
                    T: float):
    """x + alpha*e_i*t on [0, T] as ``_run_segments`` solves it, x kept."""
    free = array("d")
    out = next(_run_segments(Rm, rates, x.copy(), [(i0, alpha, T)], free.append), None)
    return free[0] if out is None else out


def solve_linear_segment(R: ReflectionMatrix, x, i: int, alpha: float,
                         T: float) -> SkorokhodSolution:
    """Exact Skorohod solution for the driving path x + alpha*e_i*t on [0, T].

    ``i`` is 1-based; the boundary set is read off from x (the components
    equal to zero).
    """
    return solve_regular(R, RegularPath(x, [0.0, T], (i,), [alpha]))


def _stitch(X: RegularPath, row0: np.ndarray, width: int, run):
    """Chain single-segment solves along X's pieces by memoryless restart.

    ``run(row, pieces, append)``, a solver's run function, solves the pieces
    (col, slope, duration) from the float list ``row`` in place.  Inside its
    own loop it passes each free piece's new ``row[col]`` to ``append``, and
    it yields each pushing piece's phase ends (times, rows, boundary rows of
    ``width`` entries), events (tau, before, after), all local to the piece,
    and one extra value.  A phase end that rounds onto the previous time, or
    onto the piece's end before its last phase, keeps its event but adds no
    row.  With no arithmetic, Z is forward-filled from the last row that set
    each entry and L repeats each row until the next push.  Returns the
    times (the breakpoints with the phase times inserted), Z, L, X at those
    times (``X.vertices`` with ``X.values_at`` at the phase times inserted),
    the events, each piece's phase count and the phased pieces' extra values.
    """
    z = row0.tolist()
    free, phased = array("d"), []  # the end value of each free piece; phased pieces
    rows, Lrows, rows_at = [z.copy()], [[0.0] * width], [0]  # rows set in full
    pos, phase_times, events, extras = [], [], [], []
    phase_counts = [1] * len(X.axes)
    pieces = zip(X.cols.tolist(), X.slopes.tolist(), np.diff(X.breakpoints).tolist())
    for seg_t, seg_rows, seg_L, seg_events, extra in run(z, pieces, free.append):
        k = len(free) + len(phased)
        t0, t1 = X.breakpoints[k:k + 2].tolist()
        last, offset = t0, Lrows[-1]
        for t, row, l in zip(seg_t[:-1], seg_rows, seg_L):
            t += t0
            if last < t < t1:
                last = t
                rows_at.append(k + 1 + len(phase_times))
                pos.append(k + 1)
                phase_times.append(t)
                rows.append(row)
                Lrows.append([a + b for a, b in zip(offset, l)])
        rows_at.append(k + 1 + len(phase_times))
        rows.append(seg_rows[-1])  # the last phase ends on the breakpoint
        Lrows.append([a + b for a, b in zip(offset, seg_L[-1])])
        events.extend(PhaseEvent(t0 + tau, before, after)
                      for tau, before, after in seg_events)
        phase_counts[k] = len(seg_events) + 1
        phased.append(k)
        extras.append(extra)
    del pieces  # and the lists it reads, before the tables are built
    times = np.insert(X.breakpoints + 0.0, pos, phase_times)  # a -0.0 start is +0.0
    n, d = len(times), len(z)
    # I: the flat index into V of the last entry set at or above, by column
    V, I = np.empty((n, d)), np.zeros((n, d), np.intp)
    V[rows_at], I[rows_at] = rows, np.array(rows_at)[:, None] * d + np.arange(d)
    at = np.delete(np.arange(n), rows_at) * d + np.delete(X.cols, phased)
    V.put(at, np.frombuffer(free))
    I.put(at, at)
    np.maximum.accumulate(I, axis=0, out=I)
    Z = V.take(I)
    del V, I  # before L is built, so that the four tables never coexist
    # L is constant between pushes: each row stands until the next one starts
    L = np.repeat(np.array(Lrows), np.diff(rows_at, append=n), axis=0)
    Xv = np.insert(X.vertices, pos, X.values_at(phase_times), axis=0)
    return times, Z, L, Xv, tuple(events), phase_counts, extras


def solve_regular(R: ReflectionMatrix, X: RegularPath) -> SkorokhodSolution:
    """Exact solution for a regular driving path, one linear segment at a time.

    Uses the memoryless restart: after each segment the next one is solved
    from the current Z value with the segment's own slope, and boundary terms
    accumulate across segments.
    """
    if X.dim != R.dim:
        raise DimensionError("path dimension must match the matrix dimension")
    z0 = _check_start(X.start, R.dim)
    times, Zv, Lv, Xv, events, phase_counts, idle = _stitch(
        X, z0, R.dim, partial(_run_segments, R.entries, R._rates))
    resid = np.subtract(Zv, Xv, out=Xv)  # in place; abs ignores the sign of a zero
    resid -= Lv @ R.entries.T
    diag = {"max_identity_residual": float(np.abs(resid, out=resid).max()),
            "min_z": float(Zv.min()),
            "idle_boundary_components": sorted(set().union(*idle)),
            "phase_counts": phase_counts, "method": "regular-exact"}
    return SkorokhodSolution(SampledPath._adopt(times, Zv),
                             SampledPath._adopt(times, Lv), events, diag)


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
    if not 0 < tol < math.inf:
        raise ParameterError(f"tol must be positive and finite, got {tol!r}")
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
        rho = spectral_radius_nonneg(R.q_matrix())
        raise ConvergenceError(
            f"grid fixed point not converged within the cap of {max_iter} sweeps "
            f"at rho(Q) = {rho:.6g}",
            details={"last_sup_change": sup_changes[-1], "spectral_radius": rho,
                     "max_iter": max_iter},
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
    if not 0 <= T <= min(sol.Z.horizon, horizon):  # NaN fails
        raise RangeError(f"restart time {T} outside the solved horizon")
    if T == horizon:
        raise RangeError("nothing remains beyond the full horizon")
    zT = sol.Z.evaluate(T)
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


def write_solution(sol, csv_file, events_file) -> None:
    """CSV trajectory plus the JSON events sidecar, for either solution type."""
    sol.to_csv(csv_file)
    json.dump(sol.events_to_jsonable(), events_file, indent=2, sort_keys=True)
    events_file.write("\n")
