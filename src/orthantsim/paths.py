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


# the largest count: an array of count + 1 entries is one numpy can index
COUNT_MAX = int(np.iinfo(np.intp).max) - 1
# the most float64 cells in one table: numpy sizes no array of more bytes
CELLS_MAX = int(np.iinfo(np.intp).max) // 8


def _check_integer(name: str, value, least: int, most: int | None = None) -> None:
    """A ``ParameterError`` naming ``name`` unless ``value`` is an integer
    (numpy's too, but not a bool) of at least ``least`` and, if given, at
    most ``most``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < least:
        raise ParameterError(f"{name!r} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise ParameterError(f"{name!r} must be at most {most}, got {value!r}")


def _integers(name: str, values, error: type[Exception]) -> tuple[int, ...]:
    """``values`` as Python ints, each read with ``operator.index`` (numpy's
    integers too, but not a bool); ``error`` naming ``name`` otherwise."""
    try:
        values = tuple(values)
    except TypeError:  # not iterable
        raise error(f"{name} must hold integers, got {values!r}") from None
    if not any(isinstance(v, bool) for v in values):
        try:
            return tuple(map(operator.index, values))
        except TypeError:
            pass
    raise error(f"{name} must hold integers, got {values!r}")


def _check_count(name: str, value, width: int) -> None:
    """``_check_integer(name, value, 1, COUNT_MAX)``, and a ``ParameterError``
    naming ``name`` if a table of value + 1 rows of ``width`` float64 cells
    has more than ``CELLS_MAX`` cells."""
    _check_integer(name, value, 1, COUNT_MAX)
    rows = int(value) + 1  # a Python int: a product of numpy ints could wrap
    if rows * int(width) > CELLS_MAX:
        raise ParameterError(f"{name!r} = {value} needs a table of {rows} x {width} "
                             f"float64 cells, more than the {CELLS_MAX} numpy can size")


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
        if (t[1:] - t[:-1] <= 0).any():  # as diff: equal infinities pass here
            raise ParameterError("time grid must be strictly increasing")
        if not (np.isfinite(t).all() and np.isfinite(v).all()):
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
        idx = np.searchsorted(self.times[1:-1], ts, side="right")  # t's interval
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
            axes = _integers("'axes'", self.axes, ParameterError)
            object.__setattr__(self, "axes", axes)
            big = np.iinfo(np.intp).max  # an axis past it lies outside 1..dim
            cols = (np.array(axes, dtype=np.intp) - 1
                    if not axes or -big <= min(axes) <= max(axes) <= big
                    else np.full(len(axes), -1, np.intp))
        x0 = np.asarray(self.start, dtype=float).ravel()
        bp = np.asarray(self.breakpoints, dtype=float)
        sl = np.asarray(self.slopes, dtype=float)
        if x0.size < 1:
            raise DimensionError("start vector must be nonempty")
        if bp.ndim != 1 or len(bp) < 2:
            raise DimensionError("need at least one segment")
        if bp[0] != 0.0:
            raise ParameterError("breakpoints must start at 0")
        if (bp[1:] - bp[:-1] <= 0).any():
            raise ParameterError("breakpoints must be strictly increasing")
        if len(self.axes) != len(bp) - 1 or len(sl) != len(bp) - 1:
            raise DimensionError("need one axis and slope per segment")
        if cols.min() < 0 or cols.max() >= x0.size:
            raise ParameterError(f"axis indices in 'axes' must lie in 1..{x0.size}")
        if not (np.isfinite(x0).all() and np.isfinite(bp).all()
                and np.isfinite(sl).all()):
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
        idx = np.searchsorted(self.breakpoints[1:-1], ts, side="right")  # t's piece
        out = self.vertices.take(idx, axis=0)  # a copy
        out[np.arange(len(ts)), self.cols.take(idx)] += (
            self.slopes.take(idx) * (ts - self.breakpoints.take(idx)))
        return out

    def restrict_members(self, members: tuple[int, ...]) -> "RegularPath":
        """Keep the listed components; segments moving dropped axes go idle.

        The breakpoint grid is preserved, so the restriction stays coupled
        (in the shared-breakpoints sense) with the original path.
        """
        members = _integers("members", members, RangeError)
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
        _check_count("steps", self.steps, self.dim)
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
    _check_count("steps", steps, dim)
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
    if (y0[1:] < y0[:-1]).any():
        raise OrderingError("y0 must be weakly increasing")
    if (sigma <= 0).any():
        raise ParameterError("sigma must be strictly positive")
    values = y0 + g * B.times[:, None] + sigma * B.values
    return SampledPath(B.times, values)


def difference_path(X: SampledPath) -> SampledPath:
    """Adjacent-component differences (X_2 - X_1, ..., X_N - X_{N-1})."""
    if X.dim < 2:
        raise DimensionError("difference path needs dim >= 2")
    with np.errstate(over="ignore"):
        D = X.values[:, 1:] - X.values[:, :-1]
    if not np.isfinite(D).all():
        raise InvalidEntryError("the differences of adjacent components overflow")
    return SampledPath(X.times, D)


def standard_regular_approximation(X: SampledPath,
                                   n: int | None = None) -> RegularPath:
    """Axis-sweep approximation of a sampled path at level n.

    [0, T] is split into n equal subintervals; within each, the d components
    are swept one at a time in axis order 1..d, each moving linearly to its
    value at the subinterval's right endpoint.  The output interpolates X at
    the anchors kT/n of ``linspace(0, T, n + 1)``, each a breakpoint bit for
    bit, and has n*d segments.  ``n=None`` takes n = X's step count.
    """
    if n is None:
        n = len(X.times) - 1
    d = X.dim
    _check_count("level", n, d)  # V is (n + 1) x d; n * d pieces
    T = X.horizon
    anchors = np.linspace(0.0, T, n + 1)
    V = X.values_at(anchors)
    sweep_dt = T / (n * d)
    breakpoints = (np.arange(n * d + 1) / d) * (T / n)  # k*d / d is exact
    breakpoints[-1] = T
    with np.errstate(over="ignore"):
        slopes = (np.diff(V, axis=0) / sweep_dt).ravel()
    if not np.isfinite(slopes).all():
        raise InvalidEntryError(f"the path's increments overflow at level {n}")
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


# write_path_csv formats at most this many cells per numpy pass, in buffers
# allocated once per table: the 32-byte cells of a block stay under 128 KiB,
# and blocks of 4000 cells already took minor faults in CLI runs (README,
# Performance)
CSV_BLOCK_CELLS = 3500

# Tables of _format_cells, the exact "%.17g" kernel.  A finite x = m 2^q with
# decimal exponent E in [-10, 15] is written from D = round-half-even(
# x 10^(16-E)), its 17 significant digits: a lead digit and two 8-digit
# halves, each half one word of digit bytes (_digit_words).  A cell is four
# 8-byte words whose NULs are dropped on output: byte 0 the sign, bytes 1..5
# the "0.000" of E in [-4, -1], byte 6 the lead digit, byte 7 the point of
# E = 0 and E < -4, bytes 8..23 the digit words, bytes 24..27 the exponent of
# E < -4 and byte 31 the separator.  For E >= 1 the point goes to byte 7 + E,
# and digits 1..E move down one byte to make room for it.
_M32 = 0xFFFFFFFF


def _cell_tables():
    # per row E + 10 (row 26: +-0), last nonzero digit K and sign: the fixed
    # bytes, with the "0" bits of every digit written (1..max(K, E))
    fixed = np.zeros((27, 17, 2, 32), np.uint8)
    fixed[:, :, 1, 0] = ord("-")
    fixed[..., 6] = ord("0")
    E, K, i = np.arange(-10, 16)[:, None, None], np.arange(17)[:, None], np.arange(1, 17)
    fixed[E + 10, K, :, 6 + i + (i > E)] = (ord("0") * (i <= np.maximum(K, E)))[..., None]
    # per row, bytes 0..23: those that take the digit words moved down one
    # byte, and those that take them in place
    down = np.zeros((27, 24), np.uint8)
    keep = np.zeros((27, 24), np.uint8)
    keep[:, 8:] = 0xFF
    for E in range(-10, 16):
        p = max(E, 0)  # the digits before the point, after the lead
        down[E + 10, 7:7 + p] = 0xFF
        keep[E + 10, 7:8 + p] = 0
        if -4 <= E < 0:
            fixed[E + 10, ..., 5 + E:6] = np.frombuffer(b"0." + b"0" * (-E - 1), np.uint8)
        else:
            fixed[E + 10, p + 1:, :, 7 + p] = ord(".")  # kept if K > p
        if E < -4:
            fixed[E + 10, ..., 24:28] = np.frombuffer(b"e-%02d" % -E, np.uint8)
    # per biased binary exponent b: E + 10 for x = 2^(b-1023), and the bits of
    # the power of ten from which E is one more (never reached: all ones)
    est = np.floor((np.arange(2048) - 1023) * math.log10(2)).astype(np.int64)
    tens = np.array([float(f"1e{j}") for j in range(-9, 16)]).view(np.uint64)
    step = np.where((est >= -10) & (est < 15), tens[np.clip(est + 10, 0, 24)],
                    2 ** 64 - 1)
    pow5 = np.array([5 ** (16 - E) for E in range(-10, 16)], np.uint64)
    return (fixed.reshape(-1, 32).view(np.uint64).copy(),
            down.view(np.uint64).T.copy(), keep.view(np.uint64).T.copy(),
            np.clip(est, -10, 15) + 10, step, pow5 & _M32, pow5 >> 32)


(_CELL_FIXED, _CELL_DOWN, _CELL_KEEP, _E10_OF_BINARY, _E10_STEP,
 _POW5_LOW, _POW5_HIGH) = _cell_tables()


def _digit_words(h: np.ndarray, q: np.ndarray) -> None:
    """Overwrite each h < 10^8 with its eight decimal digits, one per byte
    lane of the uint64, the leading digit in the lowest byte; q is scratch.

    Three multiply-shifts split h into 4-, 2- and 1-digit lanes: h // 10^4 =
    (h 109951163) >> 40 below 10^8, then per 32-bit lane x // 100 =
    (x 10486) >> 20 below 10^4, and per 16-bit lane x // 10 = (x 103) >> 10
    below 100; each is exact below its bound and overflows no lane.
    """
    np.multiply(h, 109951163, out=q)
    q >>= 40
    h <<= 32
    q *= (10 ** 4 << 32) - 1
    h -= q  # the quotient in the low lane, the remainder in the high one
    for lane, magic, shift, mask, base in ((16, 10486, 20, 0x7F0000007F, 100),
                                           (8, 103, 10, 0x000F000F000F000F, 10)):
        np.multiply(h, magic, out=q)
        q >>= shift
        q &= mask
        h <<= lane
        q *= (base << lane) - 1
        h -= q


def _cell_buffers(n: int) -> tuple[np.ndarray, bytearray]:
    """The scratch rows and the cell bytes of _format_cells for n cells."""
    return np.empty((7, n), np.uint64), bytearray(32 * n)


def _format_cells(x: np.ndarray, sep: np.ndarray, work: np.ndarray,
                  cells: bytearray) -> str:
    """Each float64 of x as ``"%.17g" % v``, followed by its byte of sep.

    Integer arithmetic gives the exact digits wherever it can prove them;
    every other nonzero cell (non-finite, subnormal, |x| < 1e-10 or >= 1e16,
    a decimal exponent estimated one too high, or a rounding that would carry
    into a new decade) is formatted by ``%``.  ``work`` and ``cells`` are
    ``_cell_buffers`` of at least x.size cells, which the caller reuses from
    block to block.  Every array used as indices is intp, which ``take``
    need not copy.
    """
    n = x.size
    bits = x.view(np.uint64)
    lo, hi, f, low, mid, s, e10 = work[:, :n]
    b = np.right_shift(bits, 52, out=s).view(np.int64)
    b &= 0x7FF
    e10 = _E10_OF_BINARY.take(b, out=e10.view(np.int64), mode="clip")
    e10 += bits & (1 << 63) - 1 >= _E10_STEP.take(b)
    # m 5^k with k = 16 - E as a 128-bit (hi, lo), from 32-bit limbs m1 m0
    # and f1 f0: lo + 2^64 hi = m0 f0 + 2^32 (m0 f1 + m1 f0) + 2^64 m1 f1
    np.bitwise_and(bits, _M32, out=lo)
    np.right_shift(bits, 32, out=hi)
    hi &= 0xFFFFF
    hi |= 1 << 20
    _POW5_LOW.take(e10, out=f, mode="clip")
    np.multiply(lo, f, out=low)
    np.multiply(hi, f, out=mid)
    _POW5_HIGH.take(e10, out=f, mode="clip")
    lo *= f
    mid += lo
    hi *= f
    np.right_shift(low, 32, out=lo)
    np.bitwise_and(mid, _M32, out=f)
    lo += f  # the carry word
    mid >>= 32
    hi += mid
    np.right_shift(lo, 32, out=mid)
    hi += mid
    lo <<= 32
    low &= _M32
    lo |= low
    np.subtract(1049, b, out=b)
    b += e10
    s = b.view(np.uint64)  # x 10^k = m 5^k / 2^s
    np.subtract(64, s, out=f)
    np.right_shift(lo, s, out=low)
    hi <<= f
    hi |= low  # the floor
    np.left_shift(1, s, out=mid)
    mid -= 1
    lo &= mid  # the remainder, rounded half to even below
    np.bitwise_and(hi, 1, out=mid)
    lo += mid
    np.subtract(s, 1, out=f)
    np.left_shift(1, f, out=mid)
    # 1 <= s <= 63 bounds x 10^k below 10^19 < 2^64: floor lost no bit of hi
    exact = hi >= 10 ** 16
    exact &= f <= 62
    hi += lo > mid
    exact &= hi < 10 ** 17
    hi *= exact
    row = e10
    np.copyto(row, 26, where=~exact)
    # D = lead 10^16 + two 8-digit halves, each a word of digit bytes
    words, scratch = work[2:4, :n], work[4:6, :n]
    lead = np.floor_divide(hi, 10 ** 16, out=lo)
    np.floor_divide(hi, 10 ** 8, out=words[0])
    np.multiply(words[0], 10 ** 8, out=words[1])
    np.subtract(hi, words[1], out=words[1])
    np.multiply(lead, 10 ** 8, out=hi)
    words[0] -= hi
    _digit_words(words, scratch)
    H, L = words
    # K, the last nonzero digit, from the bit length of L 2^64 + H: no byte
    # exceeds 9, so no word has 53 leading ones that round up a power of two
    top = np.multiply(L, 2.0 ** 64, out=scratch[0].view(np.float64))
    top += H
    K = np.frexp(top)[1]
    K += 7
    K >>= 3
    idx = scratch[1].view(np.int64)
    np.multiply(row, 34, out=idx)
    idx += K << 1
    idx += (bits >> 63).view(np.int64)
    words = np.frombuffer(cells, np.uint64, 4 * n).reshape(n, 4)
    _CELL_FIXED.take(idx, axis=0, out=words, mode="clip")
    # word j takes its bytes of (the digit stream moved down one byte) and of
    # the digit stream in place
    lead <<= 48
    lead |= (H << 56) & _CELL_DOWN[0].take(row)
    words[:, 0] |= lead
    np.right_shift(H, 8, out=hi)
    hi |= L << 56
    hi &= _CELL_DOWN[1].take(row)
    H &= _CELL_KEEP[1].take(row)
    hi |= H
    words[:, 1] |= hi
    np.right_shift(L, 8, out=hi)
    hi &= _CELL_DOWN[2].take(row)
    L &= _CELL_KEEP[2].take(row)
    hi |= L
    words[:, 2] |= hi
    text = words.view(np.uint8)  # byte j of cell i at [i, j]
    for i in np.flatnonzero(~exact & (x != 0)).tolist():
        text[i] = np.frombuffer((b"%.17g" % x[i]).ljust(32, b"\0"), np.uint8)
    text[:, 31] = sep
    return (cells if len(cells) == 32 * n else cells[:32 * n]).translate(
        None, b"\0").decode("ascii")


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
    rows = max(1, min(CSV_BLOCK_CELLS // cols, len(times)))
    sep = np.full((rows, cols), ord(","), np.uint8)
    sep[:, -1] = ord("\n")
    buffers = _cell_buffers(rows * cols)
    for r in range(0, len(times), rows):
        block = np.column_stack((times[r:r + rows], values[r:r + rows])).ravel()
        fileobj.write(_format_cells(block, sep.ravel()[:block.size], *buffers))


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
