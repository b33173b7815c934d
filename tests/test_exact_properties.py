"""Properties of both exact solvers on degenerate regular drivers.

The drivers mix signed zeros, subnormal and near-tied start coordinates,
zero slopes, and pieces whose hits land within ``HIT_TIE_RTOL`` of a
breakpoint or of another component's hit, in dimensions up to 20.  Every
solve must keep Z >= 0 (ranks ordered), keep L nondecreasing, and satisfy
the defining identity and complementarity (the integral of Z dL vanishes).
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthantsim.mmatrix import ReflectionMatrix, spectral_radius_nonneg
from orthantsim.particles import CollisionParams, solve_competing
from orthantsim.paths import RegularPath
from orthantsim.skorokhod import HIT_TIE_RTOL, solve_regular

NEAR = 0.1 * HIT_TIE_RTOL
STARTS = [0.0, -0.0, 5e-324, 1e-300, 0.3, 0.3 * (1 + NEAR), 0.3 * (1 - NEAR),
          0.5, 1.0]
DURATIONS = [0.1, 0.2, 0.3, 0.6, 0.3 * (1 + NEAR), 0.3 * (1 - NEAR),
             0.39999999999999997]
SLOPES = [0.0, -0.0, -1.0, -0.5, -2.0, 1.0, 0.5, -1e-300, -5e-324]
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
    rho = draw(st.sampled_from([0.0, 0.5, 0.9, 0.99, 0.999]))
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
@settings(max_examples=150, deadline=None)
@example((ReflectionMatrix([[1.0]]),
          (RegularPath([X_ROUND], [0.0, T_ROUND], (1,), [-A_ROUND]), None)))
def test_skorokhod_exact_solver_on_degenerate_drivers(case):
    R, (X, still) = case
    sol = solve_regular(R, X)
    Z, L = sol.Z.values, sol.L.values
    Xv = X.values_at(sol.Z.times)
    assert_reflected(Z, L, np.abs(Z - Xv - L @ R.entries.T).max(), Xv)
    if still is not None:  # a pinned -0.0 is never written
        assert np.signbit(Z[:, still]).all()


@given(st.integers(2, 20).flatmap(lambda n: st.tuples(
    st.lists(st.floats(0.1, 0.9), min_size=n, max_size=n),
    degenerate_driver(n, ordered=True))))
@settings(max_examples=150, deadline=None)
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
    if still is not None and not Y[:, still].any():  # rank 1 never pushed
        assert np.signbit(Y[:, still]).all()
