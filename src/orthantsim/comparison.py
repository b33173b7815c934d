"""Executable comparison theorems for reflected paths and particle systems.

Each checker couples two runs, asserts the claimed domination relations at
every recorded time, and reports the worst signed margin with its location.
A positive margin is the amount by which the worst inequality fails; checks
pass when the margin stays at or below the tolerance.  Hypothesis violations
raise ``PreconditionError`` -- there are no silent passes.

Boundary/collision-term relations are checked per adjacent recorded step,
which implies the all-pairs increment relation by telescoping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError, PreconditionError
from .mmatrix import ReflectionMatrix, spectral_radius_nonneg
from .paths import (
    RegularPath,
    SampledPath,
    _check_integer,
    difference_path,
    increments_dominated,
    standard_regular_approximation,
)
from .particles import (
    CbpSpec,
    CollisionParams,
    driving_path_for,
    gap_srbm,
    reflection_matrix_from_params,
    simulate_cbp,
    solve_competing,
    subsystem_spec,
)
from .skorokhod import (
    GRID_TOL,
    SkorokhodSolution,
    solve,
    solve_continuous,
    solve_regular,
)

EXACT_TOL = 1e-9
GRID_TOL_BASE = 1e-6
GAP_SRBM_TOL = 1e-8  # |Z_cbp - Z_srbm|: one gap process solved two ways
# the counterexample margin is 0.0 (r21 reproduced) or 1.0, cut in between
COUNTEREXAMPLE_TOL = 1e-12
COUNTEREXAMPLE_CUT = 0.5
RHO_RANGE = (0.2, 0.85)  # rho(Q) of a random reflection matrix
SHARE_RANGE = (0.15, 0.85)  # random collision shares


@dataclass(frozen=True)
class ViolationLocation:
    time: float
    component: int
    relation: str

    def to_jsonable(self) -> dict:
        return {"t": self.time, "component": self.component,
                "relation": self.relation}


@dataclass(frozen=True)
class ComparisonReport:
    """Outcome of one coupled comparison check."""

    passed: bool
    max_violation: float
    location: ViolationLocation
    tolerance: float
    seed: str | None = None
    details: dict = field(default_factory=dict, compare=False)

    def to_jsonable(self) -> dict:
        return {
            "passed": self.passed,
            "max_violation": self.max_violation,
            "location": self.location.to_jsonable(),
            "tol": self.tolerance,
            "seed": self.seed,
        }


class _Margins:
    """Accumulates signed violation margins and remembers the worst one."""

    def __init__(self):
        self.worst = -np.inf
        self.location = ViolationLocation(0.0, 1, "none")

    def add(self, margins: np.ndarray, times: np.ndarray, relation: str,
            component_offset: int = 0) -> None:
        margins = np.atleast_2d(margins)
        flat = int(np.argmax(margins))
        k, c = np.unravel_index(flat, margins.shape)
        value = float(margins[k, c])
        if value > self.worst:
            self.worst = value
            self.location = ViolationLocation(
                float(times[k]), int(c) + 1 + component_offset, relation
            )

    def report(self, tol: float, **details) -> ComparisonReport:
        return ComparisonReport(
            passed=self.worst <= tol,
            max_violation=self.worst,
            location=self.location,
            tolerance=tol,
            details=details,
        )


def _pair_margins(m: _Margins, sol, bar, relations, cols=slice(None),
                  offset: int = 0) -> None:
    """Add each named relation between two coupled solutions, in order.

    The relations are ``"Z<=Zbar"``, ``"dL>=dLbar"`` (per-step increments),
    ``"Y<=Ybar"`` and ``"Y>=Ybar"``; the first two also apply to Skorohod
    solutions.  ``cols`` picks the components of ``sol`` compared with all of
    ``bar``'s, and ``offset`` shifts the reported component numbers.  Margins
    are taken on the union of the two time grids (Y, L and Z of one solution
    share a grid).
    """
    times = np.union1d(sol.Z.times, bar.Z.times)
    for relation in relations:
        if relation == "dL>=dLbar":
            dL = np.diff(sol.L.values_at(times)[:, cols], axis=0)
            dLbar = np.diff(bar.L.values_at(times), axis=0)
            m.add(dLbar - dL, times[1:], relation, component_offset=offset)
            continue
        own = getattr(sol, relation[0]).values_at(times)[:, cols]
        other = getattr(bar, relation[0]).values_at(times)
        m.add(own - other if "<=" in relation else other - own, times,
              relation, component_offset=offset)


def _grid_residual(sol: SkorokhodSolution) -> float:
    changes = sol.diagnostics.get("sup_changes") or [0.0]
    return changes[-1] + max(0.0, -sol.diagnostics.get("min_z", 0.0))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise PreconditionError(message)


def _require_qplus_dominated(q: CollisionParams, qbar: CollisionParams) -> None:
    n = q.n_particles
    _require(qbar.n_particles == n, "parameter sets must share the size")
    _require(all(q.qplus[k] <= qbar.qplus[k] for k in range(1, n)),
             "q+_n <= qbar+_n (n = 2..N) fails")


def _coupled_route(X, Xbar) -> str:
    """``"exact"`` for two coupled regular drivers, ``"grid"`` for two sampled.

    Raises ``PreconditionError`` unless the pair is of one kind, coupled, and
    has dominated increments (and, for regular drivers, dominated starts).
    """
    if isinstance(X, RegularPath) and isinstance(Xbar, RegularPath):
        _require(X.dim == Xbar.dim, "paths must share the dimension")
        _require(np.array_equal(X.breakpoints, Xbar.breakpoints)
                 and X.axes == Xbar.axes,
                 "regular paths must be coupled (same breakpoints and axes)")
        _require(bool(np.all(X.start <= Xbar.start)), "X(0) <= Xbar(0) fails")
        _require(bool(np.all(X.slopes <= Xbar.slopes)),
                 "segment increment domination fails")
        return "exact"
    if isinstance(X, SampledPath) and isinstance(Xbar, SampledPath):
        check = increments_dominated(X, Xbar)
        if not check.ok:
            s, t, i = check.first_violation
            raise PreconditionError(
                f"increment domination fails on [{s}, {t}] component {i}"
            )
        return "grid"
    raise PreconditionError(
        "need either two coupled regular paths or two sampled paths"
    )


def check_skorokhod_comparison(R: ReflectionMatrix, Rbar: ReflectionMatrix,
                               X, Xbar, tol: float | None = None) -> ComparisonReport:
    """Coupled monotonicity of the Skorohod solution and boundary terms.

    Hypotheses: R <= Rbar entrywise (both in the M-matrix class), starts in
    the orthant, and increment domination of the drivers.  Asserts
    Z <= Zbar at all recorded times and per-step boundary-term increment
    domination L(t)-L(s) >= Lbar(t)-Lbar(s).  Regular coupled inputs are
    solved exactly; sampled inputs on a common grid go through the
    fixed-point oracle.
    """
    _require(R.dim == Rbar.dim, "matrices must share the dimension")
    _require(not np.any(R.entries > Rbar.entries), "R <= Rbar entrywise fails")
    _require(X.dim == R.dim and Xbar.dim == R.dim,
             "paths must match the matrix dimension")
    _require(float(np.min(X.values_at([0.0]))) >= 0
             and float(np.min(Xbar.values_at([0.0]))) >= 0,
             "both drivers must start in the orthant")

    route = _coupled_route(X, Xbar)
    sol, bar = solve(R, X, route), solve(Rbar, Xbar, route)
    if tol is None:
        tol = (EXACT_TOL if route == "exact" else
               GRID_TOL_BASE + 2.0 * (_grid_residual(sol) + _grid_residual(bar)))
    m = _Margins()
    _pair_margins(m, sol, bar, ("Z<=Zbar", "dL>=dLbar"))
    return m.report(tol, route=route)


def check_particle_comparison(q: CollisionParams, qbar: CollisionParams,
                              X, Xbar, tol: float | None = None) -> ComparisonReport:
    """Coupled monotonicity of ranked particle positions.

    Hypotheses: increment domination of the drivers, ordered starts, and
    q+_n <= qbar+_n for n = 2..N.  Asserts Y(t) <= Ybar(t) componentwise at
    all recorded times.
    """
    n = q.n_particles
    _require_qplus_dominated(q, qbar)
    _require(X.dim == n and Xbar.dim == n,
             "drivers must match the particle count")
    start = X.values_at([0.0])[0]
    start_bar = Xbar.values_at([0.0])[0]
    _require(bool(np.all(np.diff(start) >= 0) and np.all(np.diff(start_bar) >= 0)),
             "both drivers must start in the ordered cone")

    route = _coupled_route(X, Xbar)
    sol = solve_competing(q, X, method=route)
    bar = solve_competing(qbar, Xbar, method=route)
    if tol is None:
        tol = EXACT_TOL if route == "exact" else GRID_TOL_BASE + 2.0 * GRID_TOL
    m = _Margins()
    _pair_margins(m, sol, bar, ("Y<=Ybar",))
    return m.report(tol, route=route)


# (lo == 1, hi == N) -> the removal corollaries' position relations, by
# their tag in the report details and by name
_REMOVAL_POSITIONS = {
    (True, True): ("eq", ("Y<=Ybar", "Y>=Ybar")),
    (True, False): ("le", ("Y<=Ybar",)),
    (False, True): ("ge", ("Y>=Ybar",)),
    (False, False): (None, ()),
}


def check_removal_corollaries(spec: CbpSpec, lo: int, hi: int,
                              tol: float = EXACT_TOL,
                              level: int | None = None) -> ComparisonReport:
    """Effect of removing particles outside ranks lo..hi, on coupled noise.

    The subsystem is driven by the component restriction of the full
    system's regular approximation, so the corollary relations hold exactly
    for the compared pair.  Right removal (lo = 1, hi < N) asserts position,
    gap, and collision-term relations; left removal flips the position
    relation; two-sided removal asserts gap/collision-term relations only.
    """
    n = spec.n_particles
    if not (1 <= lo < hi <= n):
        raise PreconditionError(f"need 1 <= lo < hi <= N, got {lo}..{hi} of {n}")
    X = driving_path_for(spec)
    Xn = standard_regular_approximation(X, level)
    full = solve_competing(spec.q, Xn)
    sub = solve_competing(subsystem_spec(spec, lo, hi).q,
                          Xn.restrict_members(tuple(range(lo, hi + 1))))

    positions, relations = _REMOVAL_POSITIONS[lo == 1, hi == n]
    m = _Margins()
    _pair_margins(m, full, sub, ("Z<=Zbar", "dL>=dLbar"),
                  cols=slice(lo - 1, hi - 1), offset=lo - 1)
    _pair_margins(m, full, sub, relations, cols=slice(lo - 1, hi),
                  offset=lo - 1)
    return m.report(tol, lo=lo, hi=hi, positions=positions)


def check_skorokhod_removal(R: ReflectionMatrix, X, members,
                            level: int | None = None) -> ComparisonReport:
    """Dropping driver components relaxes the remaining reflected ones.

    Solves the full problem and the restricted problem ([R]_I, [X]_I) and
    asserts [Z]_I <= Zbar with per-step increment domination of the retained
    boundary terms.
    """
    members = tuple(int(v) for v in members)
    _require(len(members) >= 1 and all(1 <= v <= R.dim for v in members),
             "members must be a nonempty subset of 1..d")
    if isinstance(X, SampledPath):
        X = standard_regular_approximation(X, level)
    idx = np.asarray(members, dtype=int) - 1
    Rsub = ReflectionMatrix(R.entries[np.ix_(idx, idx)])
    full = solve_regular(R, X)
    sub = solve_regular(Rsub, X.restrict_members(members))
    m = _Margins()
    _pair_margins(m, full, sub, ("Z<=Zbar", "dL>=dLbar"), cols=idx)
    return m.report(EXACT_TOL, members=members)


def _shifted_driver(X: SampledPath, offset: np.ndarray,
                    rate: np.ndarray | None = None) -> SampledPath:
    """X plus a constant componentwise offset and optional linear drift.

    Built additively on X's own values so that shared increments stay
    bitwise identical and domination preconditions hold exactly.
    """
    vals = X.values + offset
    if rate is not None:
        vals = vals + np.outer(X.times, rate)
    return SampledPath(X.times, vals)


def _gap_relation_margins(m: _Margins, q: CollisionParams, X: SampledPath,
                          offset: np.ndarray, rate: np.ndarray | None,
                          level: int | None) -> None:
    """Gap/collision-term comparison run directly in gap space.

    The gap corollaries reduce to the Skorohod comparison for the differenced
    drivers; coupling the approximations in gap space (one gap moves per
    sweep) keeps the increment-domination hypothesis exact, which coupling in
    particle space would not.
    """
    W = difference_path(X)
    Wbar = _shifted_driver(W, offset, rate)
    R = reflection_matrix_from_params(q)
    sol = solve_continuous(R, W, level)
    bar = solve_continuous(R, Wbar, level)
    _pair_margins(m, sol, bar, ("Z<=Zbar", "dL>=dLbar"))


def check_initial_shift(spec: CbpSpec, y0bar=None, z0bar=None,
                        tol: float = EXACT_TOL,
                        level: int | None = None) -> ComparisonReport:
    """Monotonicity in the starting configuration under shared noise.

    Part (i): y0 <= y0bar implies Y <= Ybar.  Part (ii): gap starts
    dominated implies gap domination and reversed collision-term increments.
    Runs whichever parts have arguments.
    """
    if y0bar is None and z0bar is None:
        raise PreconditionError("need y0bar (part i) and/or z0bar (part ii)")
    n = spec.n_particles
    X = driving_path_for(spec)
    y0 = np.asarray(spec.y0)
    m = _Margins()
    details = {}

    if y0bar is not None:
        y0bar = np.asarray(y0bar, dtype=float)
        _require(y0bar.size == n and bool(np.all(np.diff(y0bar) >= 0)),
                 "y0bar must be an ordered vector of matching size")
        _require(bool(np.all(y0 <= y0bar)), "y0 <= y0bar fails")
        base = solve_competing(spec.q, standard_regular_approximation(X, level))
        Xbar = standard_regular_approximation(_shifted_driver(X, y0bar - y0), level)
        bar = solve_competing(spec.q, Xbar)
        _pair_margins(m, base, bar, ("Y<=Ybar",))
        details["part_i"] = True

    if z0bar is not None:
        z0bar = np.asarray(z0bar, dtype=float)
        z0 = np.diff(y0)
        _require(z0bar.size == n - 1 and bool(np.all(z0bar >= 0)),
                 "z0bar must be a nonnegative vector of size N-1")
        _require(bool(np.all(z0 <= z0bar)), "Z(0) <= z0bar fails")
        _gap_relation_margins(m, spec.q, X, z0bar - z0, None, level)
        details["part_ii"] = True

    return m.report(tol, **details)


def check_parameter_monotonicity(spec: CbpSpec, qbar: CollisionParams | None = None,
                                 gbar=None, tol: float = EXACT_TOL,
                                 level: int | None = None) -> ComparisonReport:
    """Monotonicity in collision shares and drift coefficients, shared noise.

    Raising q+ (ranks 2..N) or every drift raises all positions; raising
    only the drift gaps g_{k+1} - g_k widens the gaps and lowers the
    collision-term increments (checked only when the collision parameters
    are unchanged, as the gap corollary requires).
    """
    if qbar is None and gbar is None:
        raise PreconditionError("need qbar and/or gbar")
    n = spec.n_particles
    g = np.asarray(spec.g)
    X = driving_path_for(spec)
    m = _Margins()
    details = {}

    qb = qbar if qbar is not None else spec.q
    if qbar is not None:
        _require_qplus_dominated(spec.q, qbar)

    if gbar is not None:
        gbar = np.asarray(gbar, dtype=float)
        _require(gbar.size == n, "gbar must match the particle count")
        drift_dom = bool(np.all(g <= gbar))
        gap_dom = bool(np.all(np.diff(g) <= np.diff(gbar)))
        _require(drift_dom or gap_dom,
                 "need g <= gbar or drift-gap domination")
        Xbar_raw = _shifted_driver(X, np.zeros(n), gbar - g)
    else:
        drift_dom, gap_dom = True, False
        Xbar_raw = X

    if drift_dom:
        base = solve_competing(spec.q, standard_regular_approximation(X, level))
        bar = solve_competing(qb, standard_regular_approximation(Xbar_raw, level))
        _pair_margins(m, base, bar, ("Y<=Ybar",))
        details["positions"] = True
    if gbar is not None and gap_dom and qbar is None:
        # the gap corollary fixes the collision parameters
        _gap_relation_margins(m, spec.q, X, np.zeros(n - 1), np.diff(gbar - g),
                              level)
        details["gaps"] = True

    return m.report(tol, **details)


@dataclass(frozen=True)
class CounterexampleResult:
    """Closed-form violation of the comparison when r21 > 0.

    With the driving pair X_1(t) = -t versus Xbar_1(t) = 1 - t (other
    components constant at 1) and a reflection matrix carrying a positive
    entry r21, the second components satisfy Z_2(t) = 1 + r21*t while
    Zbar_2(t) = 1 on [0, 1]: domination fails despite dominated drivers.
    """

    r21: float
    Z: SampledPath
    L: SampledPath
    Zbar: SampledPath
    Lbar: SampledPath
    max_violation: float
    location: ViolationLocation

    @property
    def certified(self) -> bool:
        return self.max_violation > 0.0


def counterexample_positive_offdiag(r21: float,
                                    num_points: int = 101) -> CounterexampleResult:
    """Emit the analytic trajectories showing the sign condition is necessary."""
    if r21 <= 0:
        raise ParameterError("r21 must be positive")
    if num_points < 2:
        raise ParameterError("need at least two output points")
    t = np.linspace(0.0, 1.0, num_points)
    Z = SampledPath(t, np.column_stack([np.zeros_like(t), 1.0 + r21 * t]))
    L = SampledPath(t, np.column_stack([t, np.zeros_like(t)]))
    Zbar = SampledPath(t, np.column_stack([1.0 - t, np.ones_like(t)]))
    Lbar = SampledPath(t, np.zeros((len(t), 2)))
    margin = float(r21)  # Z_2(1) - Zbar_2(1)
    return CounterexampleResult(
        r21=float(r21), Z=Z, L=L, Zbar=Zbar, Lbar=Lbar,
        max_violation=margin,
        location=ViolationLocation(1.0, 2, "Z<=Zbar violated (expected)"),
    )


# ---------------------------------------------------------------------------
# Randomized instance generation (seeded, reproducible)

def random_reflection_matrix(rng: np.random.Generator, d: int) -> ReflectionMatrix:
    if d == 1:
        return ReflectionMatrix(np.eye(1))
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    Q *= rng.uniform(*RHO_RANGE) / spectral_radius_nonneg(Q)
    return ReflectionMatrix(np.eye(d) - Q)


def random_dominated_matrix_pair(rng: np.random.Generator, d: int):
    """R <= Rbar entrywise, both valid: Qbar shrinks Q entrywise."""
    R = random_reflection_matrix(rng, d)
    Q = R.q_matrix()
    Rbar = ReflectionMatrix(np.eye(d) - rng.uniform(0.0, 1.0, (d, d)) * Q)
    return R, Rbar


def random_dominated_sampled_pair(rng: np.random.Generator, d: int,
                                  grid: int = 32):
    """Sampled pair on [0, 1] with X(0) <= Xbar(0) and dominated increments."""
    times = np.linspace(0.0, 1.0, grid + 1)
    dt = 1.0 / grid
    inc = rng.normal(0.0, np.sqrt(dt), (grid, d))
    x0 = rng.uniform(0.0, 1.0, d)
    X = SampledPath(times, np.vstack([x0, x0 + np.cumsum(inc, axis=0)]))
    extra = rng.uniform(0.0, dt, (grid, d))
    shift = rng.uniform(0.0, 0.5, d)
    bump = np.vstack([np.zeros(d), np.cumsum(extra, axis=0)]) + shift
    return X, SampledPath(times, X.values + bump)


def random_collision_params(rng: np.random.Generator, n: int) -> CollisionParams:
    return CollisionParams.from_qminus(rng.uniform(*SHARE_RANGE, n),
                                       qplus1=rng.uniform(*SHARE_RANGE))


def random_dominated_params(rng: np.random.Generator, n: int):
    """(q, qbar) with qbar+_n >= q+_n for n = 2..N."""
    q = random_collision_params(rng, n)
    qm_bar = [rng.uniform(0.1, v) for v in q.qminus[:-1]] + [q.qminus[-1]]
    qbar = CollisionParams.from_qminus(
        qm_bar, qplus1=rng.uniform(q.qplus[0], 0.95))
    return q, qbar


def random_cbp_spec(rng: np.random.Generator, n: int, steps: int = 1000) -> CbpSpec:
    y0 = np.cumsum(rng.uniform(0.0, 0.6, n))
    return CbpSpec(
        g=tuple(rng.uniform(-1.5, 1.5, n)),
        sigma2=tuple(rng.uniform(0.3, 2.0, n)),
        q=random_collision_params(rng, n),
        y0=tuple(y0),
        horizon=1.0,
        steps=steps,
        seed=int(rng.integers(0, 2**32)),
    )


# ---------------------------------------------------------------------------
# Suites (used by the CLI `verify` command and the acceptance tests)

@dataclass(frozen=True)
class InstanceResult:
    index: int
    seed: str
    report: ComparisonReport | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.report is not None and self.report.passed

    def to_jsonable(self) -> dict:
        out = {"index": self.index, "seed": self.seed, "passed": self.passed}
        if self.report is not None:
            out["report"] = self.report.to_jsonable()
        if self.error is not None:
            out["error"] = self.error
        return out


@dataclass(frozen=True)
class SuiteResult:
    name: str
    results: tuple[InstanceResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def worst_violation(self) -> float:
        vals = [r.report.max_violation for r in self.results if r.report]
        return max(vals) if vals else float("nan")

    def to_jsonable(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "instances": [r.to_jsonable() for r in self.results],
        }


def _instance_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(index)]))


def _skorokhod_comparison_instance(rng, opts):
    d = int(rng.integers(1, opts.get("d_max", 5) + 1))
    R, Rbar = random_dominated_matrix_pair(rng, d)
    if opts.get("break_hypothesis"):
        R, Rbar = Rbar, R  # violates R <= Rbar unless equal
        if np.array_equal(R.entries, Rbar.entries):
            raise PreconditionError("degenerate broken instance")
    X, Xbar = random_dominated_sampled_pair(rng, d,
                                            grid=opts.get("grid", 24))
    n = int(opts.get("level", 6))
    Xr = standard_regular_approximation(X, n)
    Xbarr = standard_regular_approximation(Xbar, n)
    return check_skorokhod_comparison(R, Rbar, Xr, Xbarr,
                                      tol=opts.get("tol"))


def _particle_comparison_instance(rng, opts):
    n = _particle_count(rng, opts, 2, 6)
    q, qbar = random_dominated_params(rng, n)
    if opts.get("break_hypothesis"):
        q, qbar = qbar, q
    y0 = np.cumsum(rng.uniform(0.0, 0.4, n))
    ybar0 = y0 + np.cumsum(rng.uniform(0.0, 0.3, n))
    i = int(rng.integers(1, n + 1))
    alpha = float(rng.uniform(-2.0, 2.0))
    alpha_bar = alpha + float(rng.uniform(0.0, 1.5))
    T = float(rng.uniform(0.5, 2.0))
    X = RegularPath(y0, np.asarray([0.0, T]), (i,), np.asarray([alpha]))
    Xbar = RegularPath(ybar0, np.asarray([0.0, T]), (i,), np.asarray([alpha_bar]))
    return check_particle_comparison(q, qbar, X, Xbar, tol=opts.get("tol"))


def _particle_count(rng, opts, n_min: int, n_max: int) -> int:
    """A particle count drawn from n_min..n_max, the suite's ``n_max`` first."""
    n_max = opts.get("n_max", n_max)
    if n_max < n_min:
        raise ParameterError(f"'n_max' must be >= {n_min} for this suite, got {n_max}")
    return int(rng.integers(n_min, n_max + 1))


def _random_spec(rng, opts, n_min: int = 2, n_max: int = 6,
                 steps: int = 1000) -> CbpSpec:
    """A particle count, then a spec of that size, under the suite options."""
    return random_cbp_spec(rng, _particle_count(rng, opts, n_min, n_max),
                           steps=opts.get("steps", steps))


def _corollary_options(opts) -> dict:
    """``tol`` and ``level`` of a corollary check, with the suite defaults."""
    return {"tol": opts.get("tol", EXACT_TOL), "level": opts.get("level", 200)}


def _removal_instance(rng, opts, two_sided: bool):
    spec = _random_spec(rng, opts, n_min=3)
    n = spec.n_particles
    if two_sided:
        lo = int(rng.integers(2, n))
        hi = int(rng.integers(lo + 1, n + 1))
    else:
        lo, hi = 1, int(rng.integers(2, n))
    return check_removal_corollaries(spec, lo, hi, **_corollary_options(opts))


def _initial_shift_instance(rng, opts):
    spec = _random_spec(rng, opts)
    n = spec.n_particles
    y0 = np.asarray(spec.y0)
    y0bar = y0 + np.cumsum(rng.uniform(0.0, 0.5, n))
    z0bar = np.diff(y0) + rng.uniform(0.0, 0.5, n - 1)
    return check_initial_shift(spec, y0bar=y0bar, z0bar=z0bar,
                               **_corollary_options(opts))


def _increase_q_instance(rng, opts):
    spec = _random_spec(rng, opts)
    q, qbar = random_dominated_params(rng, spec.n_particles)
    return check_parameter_monotonicity(replace(spec, q=q), qbar=qbar,
                                        **_corollary_options(opts))


def _drift_instance(rng, opts):
    spec = _random_spec(rng, opts)
    n = spec.n_particles
    if rng.uniform() < 0.5:
        gbar = np.asarray(spec.g) + rng.uniform(0.0, 1.0, n)
    else:
        gbar = np.asarray(spec.g) + np.cumsum(rng.uniform(0.0, 0.8, n))
    return check_parameter_monotonicity(spec, gbar=gbar,
                                        **_corollary_options(opts))


def _gap_srbm_instance(rng, opts):
    spec = _random_spec(rng, opts, n_max=5, steps=300)
    level = opts.get("level")  # None: both solves default to spec.steps
    cbp = simulate_cbp(spec, level=level)
    srbm = gap_srbm(spec, level)
    times = np.union1d(cbp.Z.times, srbm.Z.times)
    m = _Margins()
    m.add(np.abs(cbp.Z.values_at(times) - srbm.Z.values_at(times)), times,
          "|Z_cbp - Z_srbm| <= tol")
    return m.report(opts.get("tol", GAP_SRBM_TOL))


def _counterexample_instance(rng, opts):
    r21 = float(opts.get("r21", rng.uniform(0.1, 1.0)))
    res = counterexample_positive_offdiag(r21)
    expected = abs(res.max_violation - r21) <= COUNTEREXAMPLE_TOL and res.certified
    m = _Margins()
    m.add(np.asarray([[0.0 if expected else 1.0]]), np.asarray([1.0]),
          "counterexample certified")
    return m.report(COUNTEREXAMPLE_CUT, r21=r21)


SUITES = {
    "skorokhod_comparison": _skorokhod_comparison_instance,
    "particle_comparison": _particle_comparison_instance,
    "removal_right": lambda rng, opts: _removal_instance(rng, opts, False),
    "removal_two_sided": lambda rng, opts: _removal_instance(rng, opts, True),
    "initial_shift": _initial_shift_instance,
    "increase_qplus": _increase_q_instance,
    "drift": _drift_instance,
    "gap_srbm": _gap_srbm_instance,
    "counterexample": _counterexample_instance,
}


def run_suite(name: str, instances: int, seed: int, **options) -> SuiteResult:
    """Run a named randomized suite with per-instance derived seeds."""
    if name not in SUITES:
        raise ParameterError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    _check_integer("instances", instances, 1)
    _check_integer("seed", seed, 0)
    runner = SUITES[name]
    results = []
    for idx in range(instances):
        rng = _instance_rng(seed, idx)
        tag = f"{seed}:{idx}"
        try:
            report = replace(runner(rng, options), seed=tag)
            results.append(InstanceResult(idx, tag, report))
        except PreconditionError as exc:
            results.append(InstanceResult(idx, tag, None,
                                          error=f"precondition: {exc}"))
    return SuiteResult(name, tuple(results))
