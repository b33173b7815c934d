"""What the exact solvers keep between solves and what they hand out.

A ``ReflectionMatrix`` carries the exact solver's boundary-rate cache, so a
solve with a warm matrix must give the bits of a cold one, the cache must stay
within ``RATE_CACHE_MAX`` entries, and the matrix must still compare and hash
by its entries alone.  The solvers adopt the arrays they build instead of
copying them: the outputs are read-only and share no memory with the driver.
The private routes that adopt arrays check them as the constructors do.
An exact solve builds each table once, so its traced peak stays within a
bound counted in its own Z tables.
"""

import tracemalloc

import numpy as np
import pytest

from orthantsim.errors import InvalidEntryError, ParameterError
from orthantsim.mmatrix import ReflectionMatrix, spectral_radius_nonneg
from orthantsim.particles import CbpSpec, CollisionParams, simulate_cbp, solve_competing
from orthantsim.paths import (
    BrownianSpec,
    RegularPath,
    SampledPath,
    sample_brownian,
    standard_regular_approximation,
)
from orthantsim.skorokhod import (RATE_CACHE_MAX, simulate_srbm, solve_grid_oracle,
                                  solve_regular)


def push_heavy_matrix(d, rho=0.95, seed=0):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    return np.eye(d) - Q * (rho / spectral_radius_nonneg(Q))


def srbm(R, seed, steps=200):
    d = R.dim
    return simulate_srbm(R, np.full(d, -0.5), np.eye(d), np.zeros(d), 1.0, steps, seed)


def solution_bytes(sol) -> tuple:
    return (sol.Z.times.tobytes(), sol.Z.values.tobytes(), sol.L.times.tobytes(),
            sol.L.values.tobytes(), repr(sol.events), repr(sol.diagnostics))


def test_warm_rate_cache_gives_the_bits_of_a_cold_one():
    entries = push_heavy_matrix(6)
    warm = ReflectionMatrix(entries)
    for seed in range(1, 21):
        srbm(warm, seed)
    assert warm._rates
    cold = ReflectionMatrix(entries)
    assert solution_bytes(srbm(warm, 0)) == solution_bytes(srbm(cold, 0))


class RecordingDict(dict):
    """A dict that remembers the most entries it ever held."""

    most = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.most = max(self.most, len(self))


def test_rate_cache_never_exceeds_its_bound():
    R = ReflectionMatrix(push_heavy_matrix(12, rho=0.99))
    cache = RecordingDict()
    object.__setattr__(R, "_rates", cache)
    sizes = []
    for seed in range(40):
        srbm(R, seed, steps=1000)
        sizes.append(len(cache))
        if len(sizes) > 1 and sizes[-1] < sizes[-2]:
            break  # the bound was reached and the cache cleared
    assert any(b < a for a, b in zip(sizes, sizes[1:])), sizes
    assert cache.most == RATE_CACHE_MAX


def test_matrix_with_a_warm_cache_is_still_a_value():
    R = ReflectionMatrix(push_heavy_matrix(4))
    srbm(R, 1)
    assert R._rates
    fresh = ReflectionMatrix(R.entries)
    assert R == fresh and hash(R) == hash(fresh)
    assert repr(R) == repr(fresh)


def driver_arrays(X):
    if isinstance(X, RegularPath):
        return [X.start, X.breakpoints, X.slopes, X.cols]
    return [X.times, X.values]


def assert_adopted(sol, X):
    for path in (getattr(sol, name) for name in ("Y", "Z", "L") if hasattr(sol, name)):
        for a in (path.times, path.values):
            assert not a.flags.writeable
            assert not any(np.shares_memory(a, b) for b in driver_arrays(X))


def test_skorokhod_outputs_are_read_only_and_their_own():
    R = ReflectionMatrix(push_heavy_matrix(3))
    B = sample_brownian(BrownianSpec(3, [-0.5] * 3, np.eye(3), 1.0, 100, 4))
    X = standard_regular_approximation(SampledPath(B.times, 0.2 + B.values), 100)
    sol = solve_regular(R, X)
    assert sol.events
    assert_adopted(sol, X)


@pytest.mark.parametrize("route", ["sampled", "regular"])
def test_particle_outputs_are_read_only_and_their_own(route):
    q = CollisionParams.symmetric(4)
    B = sample_brownian(BrownianSpec(4, [0.0] * 4, np.eye(4), 1.0, 100, 5))
    X = SampledPath(B.times, np.arange(4) * 0.1 + B.values)
    if route == "regular":
        X = standard_regular_approximation(X, 100)
    sol = solve_competing(q, X)
    assert sol.events
    assert_adopted(sol, X)


def test_grid_outputs_share_one_grid_of_their_own():
    B = sample_brownian(BrownianSpec(4, [0.0] * 4, np.eye(4), 1.0, 100, 5))
    X = SampledPath(B.times, np.arange(4) * 0.1 + B.values)
    sk = solve_grid_oracle(ReflectionMatrix(push_heavy_matrix(4)), X)
    sol = solve_competing(CollisionParams.symmetric(4), X, method="grid")
    assert sk.Z.times is sk.L.times
    assert sol.Y.times is sol.Z.times is sol.L.times
    assert_adopted(sk, X)
    assert_adopted(sol, X)


def test_adopted_path_is_checked_as_the_constructor_checks():
    with pytest.raises(ParameterError, match="strictly increasing"):
        SampledPath._adopt(np.array([0.0, 1.0, 1.0]), np.zeros((3, 1)))
    with pytest.raises(InvalidEntryError):
        SampledPath._adopt(np.array([0.0, 1.0]), np.array([[0.0], [np.nan]]))
    t, v = np.array([0.0, 1.0]), np.array([[0.0], [1.0]])
    P = SampledPath._adopt(t, v)
    assert P.times is t and not t.flags.writeable
    assert P == SampledPath([0.0, 1.0], [[0.0], [1.0]])


def test_sweep_path_is_checked_as_the_constructor_checks():
    with pytest.raises(ParameterError, match="axis indices"):
        RegularPath._sweep([0.0], [0.0, 1.0], (2,), np.array([1]), [1.0])
    X = RegularPath._sweep([0.0, 1.0], [0.0, 0.5, 1.0], (1, 2), np.array([0, 1]),
                           [1.0, -1.0])
    same = RegularPath([0.0, 1.0], [0.0, 0.5, 1.0], (1, 2), [1.0, -1.0])
    assert X == same and np.array_equal(X.cols, same.cols)
    assert not X.cols.flags.writeable


# An exact solve's traced peak in units of its returned Z table: Z, L, the
# index table that X is then summed in, L R^T, and the driver's 1-d arrays;
# on the particle route also the rank driver, Y and the gap-shaped scratch.
# A table-sized temporary more crosses these bounds.
SRBM_PEAK_TABLES = 5.0
CBP_PEAK_TABLES = 6.5


def traced_peak(run) -> float:
    run()  # the same solve warms the rate cache: the traced one adds no entry
    tracemalloc.start()
    try:
        sol = run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / sol.Z.values.nbytes


def test_an_exact_solve_builds_each_table_once():
    d = n = 10
    R = ReflectionMatrix(push_heavy_matrix(d, rho=0.5))
    srbm_peak = traced_peak(lambda: simulate_srbm(
        R, np.zeros(d), np.eye(d), np.full(d, 0.7), 1.0, 1000, 3))
    spec = CbpSpec((0.0,) * n, (1.0,) * n, CollisionParams.symmetric(n),
                   tuple(0.3 * k for k in range(n)), 1.0, 1000, 3)
    cbp_peak = traced_peak(lambda: simulate_cbp(spec))
    assert srbm_peak <= SRBM_PEAK_TABLES, srbm_peak
    assert cbp_peak <= CBP_PEAK_TABLES, cbp_peak
