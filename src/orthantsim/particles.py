"""Finite systems of competing particles with asymmetric collisions.

N ordered particles are driven componentwise by a path X; when adjacent
particles collide, a nondecreasing collision term splits the push between the
upper particle (share q+) and the lower one (share q-).  The gap process is a
Skorohod problem in the orthant with the tridiagonal reflection matrix built
from the collision parameters, which is how the general solver works; for
axis-parallel linear drivers the system also has a closed-form block solution
implemented directly.

Ranks, axis indices, and pair labels are 1-based: collision term k couples
ranks k and k+1.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from numbers import Integral

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    OrderingError,
    ParameterError,
    RangeError,
)
from .mmatrix import ReflectionMatrix
from .paths import (
    RegularPath,
    SampledPath,
    _check_integer,
    brownian_components,
    cbp_driving_path,
    difference_path,
    write_path_csv,
)
from .skorokhod import (
    GRID_TOL,
    PhaseEvent,
    _check_method,
    _stitch,
    solve,
    solve_continuous,
    write_solution,  # noqa: F401  (one writer serves both solution types)
)

PARAM_SUM_TOL = 1e-12
GAP_MATRIX_CACHE_MAX = 8  # each pins a rate cache of up to ~5 MiB at N = 20


@dataclass(frozen=True)
class CollisionParams:
    """Collision shares q+_1..q+_N and q-_1..q-_N.

    Adjacent shares satisfy q+_{k+1} + q-_k = 1; all shares lie strictly in
    (0, 1).  q+_1 and q-_N never act (they multiply identically-zero terms)
    but are validated like the rest.
    """

    qplus: tuple[float, ...]
    qminus: tuple[float, ...]

    def __post_init__(self):
        qp = tuple(float(v) for v in self.qplus)
        qm = tuple(float(v) for v in self.qminus)
        object.__setattr__(self, "qplus", qp)
        object.__setattr__(self, "qminus", qm)
        if len(qp) != len(qm):
            raise ParameterError("qplus and qminus must have equal length")
        if len(qp) < 2:
            raise ParameterError("need at least two particles")
        for k, v in enumerate(qp + qm):
            if not 0.0 < v < 1.0:
                raise ParameterError(
                    f"collision parameter out of (0,1): entry {k + 1} = {v}"
                )
        for k in range(len(qp) - 1):
            if abs(qp[k + 1] + qm[k] - 1.0) > PARAM_SUM_TOL:
                raise ParameterError(
                    f"q+_{k + 2} + q-_{k + 1} = {qp[k + 1] + qm[k]} != 1"
                )

    @property
    def n_particles(self) -> int:
        return len(self.qplus)

    @classmethod
    def symmetric(cls, n: int) -> "CollisionParams":
        if not isinstance(n, Integral):
            raise ParameterError(f"particle count must be an integer, got {n!r}")
        return cls((0.5,) * n, (0.5,) * n)

    @classmethod
    def from_qminus(cls, qminus, qplus1: float = 0.5) -> "CollisionParams":
        """Build from the lower shares q-_1..q-_N (q+_{k+1} = 1 - q-_k)."""
        qm = tuple(float(v) for v in qminus)
        qp = (float(qplus1),) + tuple(1.0 - v for v in qm[:-1])
        return cls(qp, qm)


def invert_system(q: CollisionParams) -> CollisionParams:
    """Parameters of the rank-reversed, negated system; an involution."""
    qp = tuple(reversed(q.qminus))
    qm = tuple(reversed(q.qplus))
    return CollisionParams(qp, qm)


@lru_cache(maxsize=GAP_MATRIX_CACHE_MAX)  # values; validation is a power iteration
def reflection_matrix_from_params(q: CollisionParams) -> ReflectionMatrix:
    """Tridiagonal gap-process reflection matrix of size N-1, cached per q."""
    n = q.n_particles
    R = np.eye(n - 1)
    for k in range(n - 2):
        R[k, k + 1] = -q.qminus[k + 1]
        R[k + 1, k] = -q.qplus[k + 1]
    return ReflectionMatrix(R)


def gap_drift_and_covariance(g, sigma2) -> tuple[np.ndarray, np.ndarray]:
    """Drift vector and tridiagonal covariance of the gap-process SRBM."""
    g = np.asarray(g, dtype=float).ravel()
    s2 = np.asarray(sigma2, dtype=float).ravel()
    if g.size != s2.size or g.size < 2:
        raise DimensionError("g and sigma2 must share a length >= 2")
    if np.any(s2 <= 0):
        raise ParameterError("sigma2 must be strictly positive")
    mu = np.diff(g)
    n = g.size - 1
    A = np.zeros((n, n))
    for k in range(n):
        A[k, k] = s2[k] + s2[k + 1]
        if k + 1 < n:
            A[k, k + 1] = A[k + 1, k] = -s2[k + 1]
    return mu, A


def alphas(q: CollisionParams) -> np.ndarray:
    """Positive weights whose combination of particles kills collision terms.

    alpha_1 = 1 and alpha_{k+1} = alpha_k q-_k / q+_{k+1}; then
    sum_k alpha_k Y_k(t) = sum_k alpha_k X_k(t) for every solution.
    """
    out = np.empty(q.n_particles)
    out[0] = 1.0
    for k in range(q.n_particles - 1):
        out[k + 1] = out[k] * q.qminus[k] / q.qplus[k + 1]
    return out


@dataclass(frozen=True)
class ParticleSystemSolution:
    """Ranked positions Y, collision terms L, gap process Z, and events."""

    Y: SampledPath
    L: SampledPath
    Z: SampledPath
    events: tuple[PhaseEvent, ...]
    diagnostics: dict = field(default_factory=dict, compare=False)

    @property
    def n_particles(self) -> int:
        return self.Y.dim

    @property
    def final_collision_terms(self) -> np.ndarray:
        return self.L.values[-1]

    def to_csv(self, fileobj) -> None:
        n = self.n_particles
        header = (
            [f"y{k + 1}" for k in range(n)]
            + [f"l{k + 1}{k + 2}" for k in range(n - 1)]
            + [f"z{k + 1}" for k in range(n - 1)]
        )
        write_path_csv(
            fileobj, self.Y.times,
            np.hstack([self.Y.values, self.L.values, self.Z.values]),
            header,
        )

    def events_to_jsonable(self) -> list[dict]:
        return [e.to_jsonable() for e in self.events]


def _check_w_point(y, n=None) -> np.ndarray:
    y = np.asarray(y, dtype=float).ravel()
    if n is not None and y.size != n:
        raise DimensionError(f"start point has size {y.size}, expected {n}")
    if np.any(np.diff(y) < 0):
        raise OrderingError(f"start point {y} is not weakly increasing")
    return y


def _run_blocks(qp, qm, y: list, pieces, append):
    """The particle solver's run: pieces (i0, alpha, T) drive rank i0 alone.

    The one free test: if rank i0 meets no neighbour within T, only the new
    y_i0 is set and passed to ``append``.  Otherwise the moving block starts
    at rank i0 and grows in the direction of travel: towards higher ranks for
    alpha > 0, towards lower ranks for alpha < 0.  With r_m the ratio of the
    shares of the near and the far particle of the m-th pair the block has
    crossed, it travels at the common speed |alpha| / S with S = 1 + r_1 +
    r_1 r_2 + ...; collision slopes inside the block come from the triangular
    system read off the defining equations.  Particles behind rank i0 stay
    idle even when initially tied with it.  Moves are rounded as
    s * (s * y + d) with s the sign of alpha, so a downward move is bit for
    bit the negated upward move of the rank-reversed system (-0.0 where
    y - d gives +0.0).  Yields the phase ends (times, Y rows, L rows), events
    (tau, block before, block after) and the block consistency residual.
    """
    n = len(y)
    for i0, alpha, T in pieces:
        s = 1 if alpha > 0.0 else -1
        if alpha == 0.0 or not 0 <= i0 + s < n or (
                y[i0 + s] != y[i0] and (y[i0 + s] - y[i0]) / alpha >= T):
            v = s * (s * y[i0] + abs(alpha) * T) if alpha else y[i0]
            if 0 <= i0 + s < n and s * (y[i0 + s] - v) < 0.0:
                v = y[i0 + s]  # the gap / |alpha| rounded up onto T
            y[i0] = v
            append(v)
            continue
        a = abs(alpha)
        # pair p joins ranks p and p+1; near/far are the shares of its particle
        # nearer to and farther from i0, and pairs lists them in crossing order
        near, far = (qm[:-1], qp[1:]) if s > 0 else (qp[1:], qm[:-1])
        pairs = range(i0, n - 1) if s > 0 else range(i0 - 1, -1, -1)
        times, Yr, Lr, events = [], [], [], []
        l = [0.0] * (n - 1)
        t = 0.0
        front = i0  # the block runs from i0 to front
        while 0 <= front + s < n and y[front + s] == y[i0]:
            front += s
        block = slice(min(i0, front), max(i0, front) + 1)
        guard = 0
        consistency = 0.0
        while t < T:
            guard += 1
            if guard > n + 2:
                raise ConvergenceError("block phase loop exceeded the N+1 bound",
                                       details={"t": t, "y": y})
            crossed = pairs[:abs(front - i0)]
            S = 1.0
            c = 1.0
            for p in crossed:
                c *= near[p] / far[p]
                S += c
            beta = a / S
            lam, carry = [], a  # carry: the push passed on across each pair
            for p in crossed:
                lam.append((carry - beta) / near[p])
                carry = far[p] * lam[-1]
            if crossed:
                consistency = max(consistency, abs(carry - beta) / max(a, 1.0))
            ahead = front + s
            # a subnormal |alpha| can make beta 0.0: the block then never arrives
            dt_hit = s * (y[ahead] - y[i0]) / beta if 0 <= ahead < n and beta else math.inf
            t_next = min(t + dt_hit, T)
            dt = t_next - t
            y[block] = [s * (s * v + beta * dt) for v in y[block]]
            for p, r in zip(crossed, lam):
                if r > 0.0:  # a rate below 0 is roundoff of a subnormal |alpha|
                    l[p] += r * dt
            if t_next < T:
                y[block] = [y[ahead]] * (block.stop - block.start)  # snap the collision
                front = ahead
                while 0 <= front + s < n and y[front + s] == y[i0]:
                    front += s
                before, block = block, slice(min(i0, front), max(i0, front) + 1)
                events.append((t_next, tuple(range(before.start + 1, before.stop + 1)),
                               tuple(range(block.start + 1, block.stop + 1))))
            elif 0 <= ahead < n and s * (y[ahead] - y[i0]) < 0.0:
                y[block] = [y[ahead]] * (block.stop - block.start)  # rounded past it
            times.append(t_next)
            Yr.append(y.copy())
            Lr.append(l.copy())
            t = t_next
        yield times, Yr, Lr, events, consistency


def _block_phases(qp, qm, y, i0, alpha, T):
    """Rank i0 driven at alpha over [0, T] as ``_run_blocks`` solves it, y kept."""
    free = array("d")
    out = next(_run_blocks(qp, qm, y.copy(), [(i0, alpha, T)], free.append), None)
    return free[0] if out is None else out


def _positions(q: CollisionParams, X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """Y = X + q+ L_{k-1,k} - q- L_{k,k+1}, with L_{0,1} = L_{N,N+1} = 0."""
    Y = np.empty_like(X)
    Y[:, 0] = X[:, 0] + 0.0  # as the zero pad of L_{0,1} adds it: -0.0 is +0.0
    np.add(X[:, 1:], np.asarray(q.qplus[1:]) * L, out=Y[:, 1:])
    Y[:, :-1] -= np.asarray(q.qminus[:-1]) * L
    return Y


def _cp_diagnostics(q: CollisionParams, Y, X, gaps, identity_residual) -> dict:
    return {
        "max_identity_residual": float(identity_residual),
        "alpha_weight_residual": float(np.abs((Y - X) @ alphas(q)).max()),
        "min_ordering_margin": float(gaps.min()),
    }


def solve_regular_linear(q: CollisionParams, y0, i: int, alpha: float,
                         T: float) -> ParticleSystemSolution:
    """Exact solution when only ranked particle i is driven, at constant rate.

    Driver: X_i(t) = y_i + alpha*t, all other components constant.
    """
    return _solve_competing_regular(q, RegularPath(y0, [0.0, T], (i,), [alpha]))


def solve_competing(q: CollisionParams, X, n: int | None = None,
                    method: str = "exact", tol: float = GRID_TOL) -> ParticleSystemSolution:
    """General solver through the gap-process Skorohod reduction.

    Regular drivers are solved exactly (only ``method="exact"`` applies), one
    axis-parallel segment at a time with the memoryless restart; the gap
    process of that solution is the Skorohod solution for the differenced
    driver.  Sampled drivers go through the gap problem explicitly, by
    ``skorokhod.solve`` with ``method``, level ``n`` and ``tol``; positions
    are then recovered from the boundary terms and cross-checked against the
    alpha-weight identity.
    """
    if isinstance(X, RegularPath):
        _check_method(X, method)
        return _solve_competing_regular(q, X)
    nsys = q.n_particles
    if X.dim != nsys:
        raise DimensionError("driver dimension must match the particle count")
    _check_w_point(X.values[0])
    sk = solve(reflection_matrix_from_params(q), difference_path(X), method, n, tol)
    times = np.union1d(sk.Z.times, X.times)
    Lu, Zu = sk.L.values_at(times), sk.Z.values_at(times)
    events, skd = sk.events, sk.diagnostics
    del sk  # its Z and L are read: free them before the positions are built
    Xu = X.values_at(times)
    Yu = _positions(q, Xu, Lu)
    gaps = np.diff(Yu, axis=1)
    # Yu satisfies the position identity by construction, so report the gap
    # solve's own Z - W - RL residual
    diag = _cp_diagnostics(q, Yu, Xu, gaps, skd["max_identity_residual"])
    diag["gap_residual"] = float(np.abs(gaps - Zu).max())
    diag["method"] = f"gap-{method}"
    diag.update({k: skd[k] for k in ("iterations", "level") if k in skd})
    Y, L, Z = (SampledPath._adopt(times, v) for v in (Yu, Lu, Zu))
    return ParticleSystemSolution(Y, L, Z, events, diag)


def _solve_competing_regular(q: CollisionParams, X: RegularPath) -> ParticleSystemSolution:
    n = q.n_particles
    if X.dim != n:
        raise DimensionError("driver dimension must match the particle count")
    y0 = _check_w_point(X.start, n)
    tall, Yall, Lall, Xv, events, _, consistency = _stitch(
        X, y0, n - 1, partial(_run_blocks, q.qplus, q.qminus))
    gaps = np.diff(Yall, axis=1)
    diag = _cp_diagnostics(q, Yall, Xv, gaps,
                           np.abs(Yall - _positions(q, Xv, Lall)).max())
    diag["block_consistency_residual"] = max([0.0, *consistency])
    diag["method"] = "regular-exact"
    Y, L, Z = (SampledPath._adopt(tall, v) for v in (Yall, Lall, gaps))
    return ParticleSystemSolution(Y, L, Z, events, diag)


@dataclass(frozen=True)
class CbpSpec:
    """Inputs of a competing-Brownian-particles run.

    ``stream_offset`` shifts the per-rank noise stream keys so that
    subsystems reproduce the retained components of the parent run bitwise.
    """

    g: tuple[float, ...]
    sigma2: tuple[float, ...]
    q: CollisionParams
    y0: tuple[float, ...]
    horizon: float
    steps: int
    seed: int
    stream_offset: int = 0

    def __post_init__(self):
        n = self.q.n_particles
        g = tuple(float(v) for v in self.g)
        s2 = tuple(float(v) for v in self.sigma2)
        y0 = tuple(float(v) for v in self.y0)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "sigma2", s2)
        object.__setattr__(self, "y0", y0)
        if not (len(g) == len(s2) == len(y0) == n):
            raise DimensionError("g, sigma2, y0, q must agree on the particle count")
        if any(v <= 0 for v in s2):
            raise ParameterError("sigma2 must be strictly positive")
        _check_w_point(y0, n)
        _check_integer("steps", self.steps, 1)
        _check_integer("seed", self.seed, 0)
        if not 0 < self.horizon < math.inf:
            raise ParameterError(f"horizon must be finite and > 0, got {self.horizon!r}")
        _check_integer("stream_offset", self.stream_offset, 0)

    @property
    def n_particles(self) -> int:
        return self.q.n_particles


def driving_path_for(spec: CbpSpec) -> SampledPath:
    """The spec's rank drivers y_k + g_k t + sigma_k B_k on the sample grid."""
    B = brownian_components(spec.n_particles, spec.horizon, spec.steps,
                            spec.seed, spec.stream_offset)
    return cbp_driving_path(spec.y0, spec.g, np.sqrt(spec.sigma2), B)


def simulate_cbp(spec: CbpSpec, method: str = "exact", level: int | None = None,
                 tol: float = GRID_TOL) -> ParticleSystemSolution:
    """Simulate competing Brownian particles; deterministic per seed."""
    sol = solve_competing(spec.q, driving_path_for(spec), n=level,
                          method=method, tol=tol)
    sol.diagnostics["seed"] = spec.seed
    return sol


def subsystem_spec(spec: CbpSpec, lo: int, hi: int) -> CbpSpec:
    """Spec for ranks lo..hi with the parent's noise streams retained.

    Retained components of the driving noise coincide bitwise with the
    parent's, enabling coupled removal comparisons.
    """
    n = spec.n_particles
    if not (1 <= lo < hi <= n):
        raise RangeError(f"rank range {lo}..{hi} invalid for N={n}")
    sub_q = CollisionParams(spec.q.qplus[lo - 1:hi], spec.q.qminus[lo - 1:hi])
    return replace(
        spec,
        g=spec.g[lo - 1:hi],
        sigma2=spec.sigma2[lo - 1:hi],
        q=sub_q,
        y0=spec.y0[lo - 1:hi],
        stream_offset=spec.stream_offset + lo - 1,
    )


def gap_srbm(spec: CbpSpec, level: int | None = None):
    """The spec's gap process as an exact SRBM solve at ``level`` (default steps).

    The driver diff(y0) + diff(g) t + sigma_{k+1} B_{k+1} - sigma_k B_k reuses
    the particles' per-rank streams, so the result matches
    ``simulate_cbp(spec)``'s gaps pathwise.
    """
    B = brownian_components(spec.n_particles, spec.horizon, spec.steps,
                            spec.seed, spec.stream_offset)
    sig = np.sqrt(spec.sigma2)
    noise = sig[1:] * B.values[:, 1:] - sig[:-1] * B.values[:, :-1]
    W = SampledPath(B.times, np.diff(spec.y0) + np.diff(spec.g) * B.times[:, None]
                    + noise)
    sol = solve_continuous(reflection_matrix_from_params(spec.q), W, level)
    sol.diagnostics["seed"] = spec.seed
    return sol
