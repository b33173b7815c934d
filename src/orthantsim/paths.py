"""Path carriers and constructions for driving functions.

Two representations are used throughout the package:

* ``SampledPath`` -- values on a finite increasing time grid starting at 0,
  read between grid points by linear interpolation;
* ``RegularPath`` -- piecewise-linear with every piece parallel to one
  coordinate axis, the input format of the exact solvers.

Axis indices are 1-based everywhere in the public API.
"""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field, fields
from functools import cached_property
from numbers import Integral

import numpy as np

from .errors import (
    AlignmentError,
    CovarianceError,
    DimensionError,
    DominationError,
    InvalidEntryError,
    OrderingError,
    ParameterError,
    RangeError,
)

# scaled by max(1, max |entry|) of the data they check
COVARIANCE_EIG_FLOOR = -1e-12
COVARIANCE_SYMMETRY_RTOL = 1e-12
DOMINATION_RTOL = 1e-12


def _check_integer(name: str, value, least: int) -> None:
    """A ``ParameterError`` naming ``name`` unless ``value`` is an integer
    (numpy's too, but not a bool) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ParameterError(f"{name!r} must be an integer >= {least}, got {value!r}")


def _freeze(a) -> np.ndarray:
    """A read-only copy of a, so the caller's array stays theirs to write."""
    a = np.array(a, dtype=float, order="C")
    a.setflags(write=False)
    return a


class _ArrayValue:
    """``==`` and ``hash`` for a frozen dataclass whose fields may be arrays.

    The compared fields are read as values, an array by its dtype, shape and
    bytes; so -0.0 and 0.0 differ, as they do in the solvers' output.
    """

    def _value_key(self) -> tuple:
        return tuple((v.dtype.str, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
                     else v for v in (getattr(self, f.name) for f in fields(self)
                                      if f.compare))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._value_key() == other._value_key()

    def __hash__(self):
        return hash(self._value_key())


class _Path(_ArrayValue):
    """``evaluate`` and the horizon check of ``values_at``, for both kinds."""

    def evaluate(self, t: float) -> np.ndarray:
        return self.values_at(np.asarray([t]))[0]

    def _in_horizon(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        if ts.ndim != 1:
            raise DimensionError(f"evaluation times must be 1-d, got shape {ts.shape}")
        if ts.size and not (ts.min() >= 0.0 and ts.max() <= self.horizon):  # NaN fails
            raise RangeError(f"evaluation times outside [0, {self.horizon}]")
        return ts


@dataclass(frozen=True, eq=False)
class SampledPath(_Path):
    """Continuous path represented by values on a time grid.

    ``times`` is strictly increasing with ``times[0] == 0``; ``values`` has
    one row per grid time.  Evaluation between grid points interpolates
    linearly, so the object represents a piecewise-linear continuous path.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self, adopted=False):
        if not adopted:
            object.__setattr__(self, "times", _freeze(self.times))
            object.__setattr__(self, "values", _freeze(np.atleast_2d(self.values)))
        t, v = self.times, self.values
        if t.ndim != 1 or len(t) < 2:
            raise DimensionError("need at least two grid times")
        if v.shape[0] != len(t):
            raise DimensionError(
                f"values rows ({v.shape[0]}) must match times ({len(t)})"
            )
        if v.shape[1] < 1:
            raise DimensionError("path dimension must be >= 1")
        if t[0] != 0.0:
            raise ParameterError("time grid must start at 0")
        if np.any(np.diff(t) <= 0):
            raise ParameterError("time grid must be strictly increasing")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
            raise InvalidEntryError("path contains NaN or infinite entries")

    @classmethod
    def _adopt(cls, times: np.ndarray, values: np.ndarray) -> "SampledPath":
        """Float arrays a solver has just built, checked and frozen in place."""
        times.setflags(write=False)
        values.setflags(write=False)
        self = object.__new__(cls)
        self.__dict__.update(times=times, values=values)
        self.__post_init__(adopted=True)
        return self

    @property
    def dim(self) -> int:
        return self.values.shape[1]

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def values_at(self, ts) -> np.ndarray:
        """Rows at the 1-d times ``ts`` by linear interpolation, gathered with
        ``take``; exact at grid times but for the sign of a zero."""
        ts = self._in_horizon(ts)
        idx = np.searchsorted(self.times, ts, side="right") - 1
        np.clip(idx, 0, len(self.times) - 2, out=idx)
        t0 = self.times.take(idx)
        w = ((ts - t0) / (self.times.take(idx + 1) - t0))[:, None]
        out, upper = self.values.take(idx, axis=0), self.values.take(idx + 1, axis=0)
        out *= 1.0 - w  # in place: no temporaries
        out += np.multiply(upper, w, out=upper)
        return out

    def to_csv(self, fileobj) -> None:
        write_path_csv(fileobj, self.times, self.values,
                       [f"x{k + 1}" for k in range(self.dim)])

    @classmethod
    def from_csv(cls, fileobj) -> "SampledPath":
        times, values = read_path_csv(fileobj)
        return cls(times, values)


@dataclass(frozen=True, eq=False)
class RegularPath(_Path):
    """Piecewise-linear path with axis-parallel pieces.

    Segment k runs over [breakpoints[k], breakpoints[k+1]] and moves only
    component ``axes[k]`` (1-based) at rate ``slopes[k]``.  Two regular paths
    are coupled when they share breakpoints and axis indices.  ``cols`` holds
    the axes 0-based, in one read-only ``np.intp`` array built once.
    """

    start: np.ndarray
    breakpoints: np.ndarray
    axes: tuple[int, ...]
    slopes: np.ndarray
    cols: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self, cols=None):
        if cols is None:
            try:
                axes = tuple(map(operator.index, self.axes))
                cols = np.array(axes, dtype=np.intp) - 1
            except (TypeError, OverflowError) as exc:
                raise ParameterError(f"'axes' must hold integers: {exc}") from None
            object.__setattr__(self, "axes", axes)
        x0 = np.asarray(self.start, dtype=float).ravel()
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if x0.size < 1:
            raise DimensionError("start vector must be nonempty")
        if bp.ndim != 1 or len(bp) < 2:
            raise DimensionError("need at least one segment")
        if bp[0] != 0.0:
            raise ParameterError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0):
            raise ParameterError("breakpoints must be strictly increasing")
        if len(self.axes) != len(bp) - 1 or len(sl) != len(bp) - 1:
            raise DimensionError("need one axis and slope per segment")
        if cols.min() < 0 or cols.max() >= x0.size:
            raise ParameterError(f"axis indices must lie in 1..{x0.size}")
        if not (np.all(np.isfinite(x0)) and np.all(np.isfinite(bp))
                and np.all(np.isfinite(sl))):
            raise InvalidEntryError("path contains NaN or infinite entries")
        cols.setflags(write=False)  # a fresh array: frozen in place
        object.__setattr__(self, "start", _freeze(x0))
        object.__setattr__(self, "breakpoints", _freeze(bp))
        object.__setattr__(self, "slopes", _freeze(sl))
        object.__setattr__(self, "cols", cols)

    @classmethod
    def _sweep(cls, start, breakpoints, axes: tuple[int, ...], cols: np.ndarray,
               slopes) -> "RegularPath":
        """The path with ints ``axes`` and ``cols`` = axes - 1 built with them."""
        self = object.__new__(cls)
        self.__dict__.update(start=start, breakpoints=breakpoints, axes=axes, slopes=slopes)
        self.__post_init__(cols)
        return self

    @property
    def dim(self) -> int:
        return self.start.size

    @property
    def horizon(self) -> float:
        return float(self.breakpoints[-1])

    @cached_property
    def vertices(self) -> np.ndarray:
        """Path values at the breakpoints, shape (segments + 1, dim).

        One running sum over a step table: row 0 is the start, row k + 1
        moves segment k's axis.  The other entries are -0.0, which leaves
        every value (a -0.0 start coordinate included) bit for bit as is.
        """
        m = len(self.axes)
        steps = np.full((m + 1, self.dim), -0.0)
        steps[0] = self.start
        steps[np.arange(1, m + 1), self.cols] = self.slopes * np.diff(self.breakpoints)
        out = np.cumsum(steps, axis=0)
        out.setflags(write=False)
        return out

    def values_at(self, ts) -> np.ndarray:
        """Rows at the 1-d times ``ts``: the vertex of the piece holding t
        moved along its axis, gathered with ``take``."""
        ts = self._in_horizon(ts)
        idx = np.searchsorted(self.breakpoints, ts, side="right") - 1
        np.clip(idx, 0, len(self.axes) - 1, out=idx)
        out = self.vertices.take(idx, axis=0)  # a copy
        out[np.arange(len(ts)), self.cols.take(idx)] += (
            self.slopes.take(idx) * (ts - self.breakpoints.take(idx)))
        return out

    def restrict_members(self, members: tuple[int, ...]) -> "RegularPath":
        """Keep the listed components; segments moving dropped axes go idle.

        The breakpoint grid is preserved, so the restriction stays coupled
        (in the shared-breakpoints sense) with the original path.
        """
        members = tuple(int(m) for m in members)
        if not members or any(a >= b for a, b in zip(members, members[1:])):
            raise RangeError("members must be nonempty and strictly increasing")
        if members[0] < 1 or members[-1] > self.dim:
            raise RangeError(f"members {members} out of 1..{self.dim}")
        idx = np.asarray(members, dtype=int) - 1
        where = np.zeros(self.dim, np.intp)  # each kept axis' new index, else 0
        where[idx] = np.arange(1, len(idx) + 1)
        axes = where[self.cols]
        return RegularPath(self.start[idx], self.breakpoints,
                           tuple(np.maximum(axes, 1).tolist()),
                           np.where(axes > 0, self.slopes, 0.0))

    def to_jsonable(self) -> dict:
        return {
            "start": self.start.tolist(),
            "breakpoints": self.breakpoints.tolist(),
            "axes": list(self.axes),
            "slopes": self.slopes.tolist(),
        }


@dataclass(frozen=True, eq=False)
class BrownianSpec(_ArrayValue):
    """Parameters of a Brownian driving path on a uniform grid."""

    dim: int
    drift: np.ndarray
    covariance: np.ndarray
    horizon: float
    steps: int
    seed: int

    def __post_init__(self):
        mu = np.asarray(self.drift, dtype=float).ravel()
        A = np.asarray(self.covariance, dtype=float)
        if mu.size != self.dim or A.shape != (self.dim, self.dim):
            raise DimensionError("drift/covariance sizes must match dim")
        _check_integer("steps", self.steps, 1)
        _check_integer("seed", self.seed, 0)
        if not 0 < self.horizon < np.inf:
            raise ParameterError(f"horizon must be finite and > 0, got {self.horizon!r}")
        scale = max(1.0, float(np.abs(A).max()))
        if np.abs(A - A.T).max() > COVARIANCE_SYMMETRY_RTOL * scale:
            raise CovarianceError("covariance must be symmetric")
        object.__setattr__(self, "drift", _freeze(mu))
        object.__setattr__(self, "covariance", _freeze(A))


def symmetric_sqrt(A: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root; eigenvalues above the floor are clipped to 0."""
    A = np.asarray(A, dtype=float)
    scale = max(1.0, float(np.abs(A).max()))
    w, U = np.linalg.eigh(0.5 * (A + A.T))
    if w.min() < COVARIANCE_EIG_FLOOR * scale:
        raise CovarianceError(
            f"covariance has eigenvalue {w.min():.3g} below the PSD floor"
        )
    return (U * np.sqrt(np.clip(w, 0.0, None))) @ U.T


def _standard_normals(seed: int, steps: int, dim: int,
                      stream_offset: int = 0) -> np.ndarray:
    """Standard normals of shape (steps, dim), one stream per column.

    Stream splitting: column j draws from SeedSequence([seed, offset + j + 1]),
    so a subsystem with a shifted offset reproduces its columns bitwise.
    """
    xi = np.empty((steps, dim))
    for j in range(dim):
        stream = np.random.SeedSequence([int(seed), int(stream_offset + j + 1)])
        xi[:, j] = np.random.default_rng(stream).standard_normal(steps)
    return xi


def brownian_components(dim: int, horizon: float, steps: int, seed: int,
                        stream_offset: int = 0) -> SampledPath:
    """Independent standard Brownian components on a uniform grid.

    Component k (1-based) draws from the stream keyed by
    ``stream_offset + k``; restricting to a component range and bumping the
    offset reproduces exactly the same columns.
    """
    _check_integer("steps", steps, 1)
    _check_integer("seed", seed, 0)
    _check_integer("stream_offset", stream_offset, 0)
    dt = horizon / steps
    incs = _standard_normals(seed, steps, dim, stream_offset)
    values = np.vstack([np.zeros(dim), np.cumsum(incs * np.sqrt(dt), axis=0)])
    times = np.linspace(0.0, horizon, steps + 1)
    return SampledPath(times, values)


def sample_brownian(spec: BrownianSpec) -> SampledPath:
    """Brownian path with the spec's drift and covariance (starts at 0).

    Increments are mu*dt + F xi sqrt(dt) with F the symmetric square root of
    the covariance and xi i.i.d. standard normal vectors; deterministic for a
    fixed seed.
    """
    F = symmetric_sqrt(spec.covariance)
    dt = spec.horizon / spec.steps
    xi = _standard_normals(spec.seed, spec.steps, spec.dim)
    incs = spec.drift * dt + (xi @ F.T) * np.sqrt(dt)
    values = np.vstack([np.zeros(spec.dim), np.cumsum(incs, axis=0)])
    times = np.linspace(0.0, spec.horizon, spec.steps + 1)
    return SampledPath(times, values)


def cbp_driving_path(y0, g, sigma, B: SampledPath) -> SampledPath:
    """Rank-k driver y_k + g_k t + sigma_k B_k(t) on B's grid."""
    y0 = np.asarray(y0, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    sigma = np.asarray(sigma, dtype=float).ravel()
    if not (y0.size == g.size == sigma.size == B.dim):
        raise DimensionError("y0, g, sigma and B must share the dimension")
    if np.any(np.diff(y0) < 0):
        raise OrderingError("y0 must be weakly increasing")
    if np.any(sigma <= 0):
        raise ParameterError("sigma must be strictly positive")
    values = y0 + g * B.times[:, None] + sigma * B.values
    return SampledPath(B.times, values)


def difference_path(X: SampledPath) -> SampledPath:
    """Adjacent-component differences (X_2 - X_1, ..., X_N - X_{N-1})."""
    if X.dim < 2:
        raise DimensionError("difference path needs dim >= 2")
    return SampledPath(X.times, X.values[:, 1:] - X.values[:, :-1])


def standard_regular_approximation(X: SampledPath,
                                   n: int | None = None) -> RegularPath:
    """Axis-sweep approximation of a sampled path at level n.

    [0, T] is split into n equal subintervals; within each, the d components
    are swept one at a time in axis order 1..d, each moving linearly to its
    value at the subinterval's right endpoint.  The output interpolates X at
    all the anchor times kT/n and has n*d segments.  ``n=None`` takes one
    subinterval per grid step of X.
    """
    if n is None:
        n = len(X.times) - 1
    _check_integer("level", n, 1)
    d = X.dim
    T = X.horizon
    anchors = np.linspace(0.0, T, n + 1)
    V = X.values_at(anchors)
    sweep_dt = T / (n * d)
    breakpoints = np.linspace(0.0, T, n * d + 1)
    slopes = (np.diff(V, axis=0) / sweep_dt).ravel()
    return RegularPath._sweep(V[0], breakpoints, tuple(range(1, d + 1)) * n,
                              np.tile(np.arange(d, dtype=np.intp), n), slopes)


def coupled_regular_approximation(X: SampledPath, Xbar: SampledPath,
                                  n: int) -> tuple[RegularPath, RegularPath]:
    """Level-n approximations of a dominated pair, sharing breakpoints and axes.

    Requires the inputs on the same grid with X(0) <= Xbar(0) and
    increment domination on the grid; the outputs then satisfy the same
    relations exactly at every time.
    """
    check = increments_dominated(X, Xbar)
    if not check.ok:
        s, t, i = check.first_violation
        raise DominationError(
            f"increment domination fails on [{s}, {t}] component {i}",
            where=check.first_violation,
        )
    return (standard_regular_approximation(X, n),
            standard_regular_approximation(Xbar, n))


@dataclass(frozen=True)
class DominationCheck:
    """Result of an increment-domination test."""

    ok: bool
    first_violation: tuple[float, float, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def increments_dominated(X: SampledPath, Xbar: SampledPath) -> DominationCheck:
    """Whether X(0) <= Xbar(0) and all grid increments of X are <= Xbar's.

    Checked per adjacent step, which for piecewise-linear paths on a common
    grid is equivalent to domination over every pair s <= t (telescoping).
    The tolerance scales with the data, so that pairs built by independent
    float arithmetic still register.
    """
    if X.dim != Xbar.dim:
        raise AlignmentError("paths must share the dimension")
    if not np.array_equal(X.times, Xbar.times):
        raise AlignmentError("paths must share the time grid")
    atol = DOMINATION_RTOL * max(float(np.abs(X.values).max()),
                                 float(np.abs(Xbar.values).max()), 1.0)
    start_gap = X.values[0] - Xbar.values[0]
    if start_gap.max() > atol:
        i = int(np.argmax(start_gap))
        return DominationCheck(False, (0.0, 0.0, i + 1))
    gaps = np.diff(X.values, axis=0) - np.diff(Xbar.values, axis=0)
    bad = np.argwhere(gaps > atol)
    if len(bad):
        k, i = bad[0]
        return DominationCheck(
            False, (float(X.times[k]), float(X.times[k + 1]), int(i) + 1)
        )
    return DominationCheck(True)


# write_path_csv formats at most this many cells per numpy pass; at 4096 its
# temporaries reach 128 KiB, where each one is mapped and faulted in afresh
CSV_BLOCK_CELLS = 2048

# Tables of _format_cells, the exact "%.17g" kernel.  A finite x = m 2^q with
# decimal exponent E in [-10, 15] is written from D = round-half-even(
# x 10^(16-E)), its 17 significant digits.  Each cell gets six 8-byte words
# whose NULs are dropped on output: byte 0 the sign, bytes 1..5 the "0.000"
# of E in [-4, -1], digit j = 0..16 at byte 6 + 2j with a point slot after
# it, bytes 40..43 the exponent of E < -4 and byte 47 the separator.
_M32 = 0xFFFFFFFF


def _cell_tables():
    # per row E + 10 (row 26: +-0): the fixed bytes, and the digit after
    # which the point goes (-1: in the "0.000")
    template = np.zeros((27, 48), np.uint8)
    point = np.zeros(27, np.int64)
    for E in range(-10, 16):
        if -4 <= E < 0:
            point[E + 10], at, text = -1, 1, b"0." + b"0" * (-E - 1)
        else:
            point[E + 10] = max(E, 0)
            at = 7 + 2 * point[E + 10]
            text = b"." + (bytes(32) + b"e-%02d" % -E if E < -4 else b"")
        template[E + 10, at:at + len(text)] = np.frombuffer(text, np.uint8)
    # per last kept digit K: digits 1..K and the point slots before digit K
    mask = np.full((17, 48), 0xFF, np.uint8)
    for K in range(17):
        mask[K, 7 + 2 * K:40] = 0
    # per biased binary exponent b: E + 10 for x = 2^(b-1023), and the bits of
    # the power of ten from which E is one more (never reached: all ones)
    est = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
    tens = np.array([float(f"1e{j}") for j in range(-9, 16)]).view(np.uint64)
    step = np.where((est >= -10) & (est < 15), tens[np.clip(est + 10, 0, 24)],
                    2 ** 64 - 1)
    # digits 1..16 are the pairs of word w = 0..3, half h = 0..1; entry
    # 100 (4 h + w) + v holds pair v's digits in that word, and the digit
    # (1..16) of its last nonzero digit, 0 if none
    v = np.arange(100)
    chars = np.zeros((2, 4, 100, 8), np.uint8)
    chars[0, ..., 0:4:2] = chars[1, ..., 4:8:2] = np.stack([v // 10, v % 10], 1) + 48
    length = np.sign(v) + np.sign(v % 10)  # of its text without trailing zeros
    last = np.where(length > 0, length + 2 * np.arange(2)[:, None, None]
                    + 4 * np.arange(4)[:, None], 0).astype(np.uint8)
    pow5 = np.array([5 ** (16 - E) for E in range(-10, 16)], np.uint64)
    return (template.view(np.uint64).T.copy(), point, mask.view(np.uint64).T.copy(),
            np.clip(est, -10, 15) + 10, step, chars.view(np.uint64).ravel(),
            last.ravel(), pow5 & _M32, pow5 >> 32)


(_CELL_TEMPLATE, _POINT_DIGIT, _CELL_MASK, _E10_OF_BINARY, _E10_STEP,
 _PAIR_CHARS, _PAIR_LAST, _POW5_LOW, _POW5_HIGH) = _cell_tables()
_PAIR_OFFSET = np.arange(0, 800, 100).reshape(2, 4, 1)


def _format_cells(x: np.ndarray, sep: np.ndarray) -> str:
    """Each float64 of x as ``"%.17g" % v``, followed by its byte of sep.

    Integer arithmetic gives the exact digits wherever it can prove them;
    every other nonzero cell (non-finite, subnormal, |x| < 1e-10 or >= 1e16,
    or a rounding that carries into a new decade) is formatted by ``%``.
    Every array used as indices is intp, which ``take`` need not copy.
    """
    n = x.size
    bits = x.view(np.uint64)
    b = (bits >> 52 & 0x7FF).view(np.int64)
    e10 = _E10_OF_BINARY.take(b) + (bits & (1 << 63) - 1 >= _E10_STEP.take(b))
    # m 5^k with k = 16 - E as a 128-bit (hi, lo), from 32-bit limbs
    m0, m1 = bits & _M32, bits >> 32 & 0xFFFFF | 1 << 20
    f0, f1 = _POW5_LOW.take(e10), _POW5_HIGH.take(e10)
    low, mid = m0 * f0, m0 * f1 + m1 * f0
    t = (low >> 32) + (mid & _M32)
    lo = (low & _M32) | (t << 32)
    hi = m1 * f1 + (mid >> 32) + (t >> 32)
    s = (e10 + 1049 - b).view(np.uint64)  # x 10^k = m 5^k / 2^s
    floor = (hi << 64 - s) | (lo >> s)
    d = floor + ((lo & (1 << s) - 1) + (floor & 1) > 1 << s - 1)
    # 1 <= s <= 63 bounds x 10^k below 10^19 < 2^64: floor lost no bit of hi
    exact = (s - 1 <= 62) & (floor >= 10 ** 16) & (d < 10 ** 17)
    d = (d * exact).view(np.int64)
    row = np.where(exact, e10, 26)
    # D = lead 10^16 + two 8-digit halves = four 4-digit groups = eight pairs
    lead = d // 10 ** 16
    d -= lead * 10 ** 16
    halves = np.empty((2, n), np.int64)
    np.floor_divide(d, 10 ** 8, out=halves[0])
    np.subtract(d, halves[0] * 10 ** 8, out=halves[1])
    groups = np.empty((4, n), np.int64)
    np.floor_divide(halves, 10 ** 4, out=groups[::2])
    np.subtract(halves, groups[::2] * 10 ** 4, out=groups[1::2])
    pairs = np.empty((2, 4, n), np.int64)
    np.floor_divide(groups, 100, out=pairs[0])
    np.subtract(groups, pairs[0] * 100, out=pairs[1])
    pairs += _PAIR_OFFSET
    chars = _PAIR_CHARS.take(pairs)
    last = _PAIR_LAST.take(pairs).reshape(8, n).max(axis=0)
    words = _CELL_TEMPLATE.take(row, axis=1)  # word w of cell i at [w, i]
    words[1:5] |= chars[0] | chars[1]
    words &= _CELL_MASK.take(np.maximum(last, _POINT_DIGIT.take(row)), axis=1)
    cells = words.view(np.uint8).reshape(6, n, 8)  # byte j of word w of cell i
    cells[0, :, 0] = np.signbit(x) * ord("-")
    cells[0, :, 6] = lead + ord("0")
    for i in np.flatnonzero(~exact & (x != 0)).tolist():
        text = b"%.17g" % x[i]
        cells[:, i] = np.frombuffer(text.ljust(48, b"\0"), np.uint8).reshape(6, 8)
    cells[5, :, 7] = sep
    return words.T.tobytes().translate(None, b"\0").decode("ascii")


def write_path_csv(fileobj, times: np.ndarray, values: np.ndarray,
                   header: list[str]) -> None:
    """CSV with header ``t,<header>`` and one ``%.17g`` row per grid time.

    The cells are formatted and written in blocks of whole rows, at most
    ``CSV_BLOCK_CELLS`` cells each (one row if a row is wider), never the
    whole table.  Times, rows and header names that do not match raise
    ``DimensionError``.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        raise DimensionError(f"path values must be 2-d, got shape {values.shape}")
    if times.shape != values.shape[:1]:
        raise DimensionError(f"{times.size} times for {len(values)} value rows")
    if len(header) != values.shape[1]:
        raise DimensionError(f"{len(header)} header names for {values.shape[1]} columns")
    fileobj.write(",".join(["t", *header]) + "\n")
    cols = values.shape[1] + 1
    rows = max(1, CSV_BLOCK_CELLS // cols)
    sep = np.full((rows, cols), ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    for r in range(0, len(times), rows):
        block = np.column_stack((times[r:r + rows], values[r:r + rows])).ravel()
        fileobj.write(_format_cells(block, sep.ravel()[:block.size]))


def read_path_csv(fileobj) -> tuple[np.ndarray, np.ndarray]:
    """Times and values of a ``t,x1,...,xd`` CSV.

    Malformed input raises ``ParameterError`` naming the offending line.
    """
    reader = csv.reader(fileobj)
    header = next(reader, [])
    if header[:1] != ["t"]:
        raise ParameterError("path CSV line 1: need a header starting with 't'")
    rows = []
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise ParameterError(f"path CSV line {reader.line_num}: {len(row)} "
                                 f"fields, the header has {len(header)}")
        try:
            rows.append([float(v) for v in row])
        except ValueError as exc:
            raise ParameterError(
                f"path CSV line {reader.line_num}: {exc}") from None
    if not rows:
        raise ParameterError("path CSV has no data rows after the header on line 1")
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1:]
