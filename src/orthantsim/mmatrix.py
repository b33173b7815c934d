"""Validated reflection nonsingular M-matrix algebra.

A reflection nonsingular M-matrix is R = I - Q with Q >= 0 entrywise, zero
diagonal, and spectral radius strictly below one.  This module provides the
class validator, a Perron-root estimator, Neumann-series inversion,
principal-submatrix indexing, and the entrywise comparison lemmas used by the
solvers as executable predicates.

All index sets and axis indices in the public API are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    IndexSetError,
    InvalidEntryError,
    MatrixValidationError,
    PreconditionError,
)
from .paths import _ArrayValue

DIAGONAL_TOL = 1e-10
RADIUS_MARGIN = 1e-8
# Collatz-Wielandt bracket width at which the Perron root counts as found
PERRON_TOL = 1e-10
NEUMANN_MAX_TERMS = 100_000


def _as_square(M) -> np.ndarray:
    A = np.asarray(M, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidEntryError("matrix contains NaN or infinite entries")
    return A


@dataclass(frozen=True)
class IndexSet:
    """Nonempty strictly increasing subset of {1, ..., base_dim}."""

    base_dim: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.base_dim < 1:
            raise IndexSetError("base_dim must be a positive integer")
        members = tuple(int(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if not members:
            raise IndexSetError("index set must be nonempty")
        if any(m < 1 or m > self.base_dim for m in members):
            raise IndexSetError(
                f"members {members} out of range 1..{self.base_dim}"
            )
        if any(a >= b for a, b in zip(members, members[1:])):
            raise IndexSetError(f"members {members} not strictly increasing")

    @classmethod
    def full(cls, d: int) -> "IndexSet":
        return cls(d, tuple(range(1, d + 1)))

    def __len__(self) -> int:
        return len(self.members)

    def zero_based(self) -> np.ndarray:
        return np.asarray(self.members, dtype=int) - 1

    def complement_members(self) -> tuple[int, ...]:
        inside = set(self.members)
        return tuple(j for j in range(1, self.base_dim + 1) if j not in inside)


@dataclass(frozen=True)
class ValidationReport:
    """Accept/reject outcome with the first violated condition named."""

    accepted: bool
    reason: str | None = None
    spectral_radius: float | None = None


def spectral_radius_nonneg(Q, tol: float = PERRON_TOL, max_iter: int = 100_000) -> float:
    """Perron root of an entrywise nonnegative matrix by power iteration.

    The iteration runs on Q + I (same eigenvectors, radius shifted by one);
    the positive diagonal removes the cycling that plain power iteration
    exhibits on bipartite matrices such as zero-diagonal tridiagonals.
    Collatz-Wielandt ratios give a rigorous bracket [lo, hi] around the
    Perron root; iteration stops once hi - lo < tol.  A nilpotent Q, which
    has no bracket the iteration could reach, is caught before it.
    """
    A = _as_square(Q)
    if tol <= 0:
        raise ValueError("tol must be positive")
    if A.min() < 0:
        raise ValueError("matrix must be entrywise nonnegative")
    d = A.shape[0]
    if not np.linalg.matrix_power(A > 0, d).any():
        return 0.0  # Q^d = 0: the pattern of Q has no cycle (Q = 0 included)
    v = np.ones(d)
    lo_hi = None
    for _ in range(max_iter):
        w = A @ v + v  # (Q + I) v, stays strictly positive
        ratios = w / v
        lo, hi = ratios.min(), ratios.max()
        if hi - lo < tol:
            return max(0.5 * (lo + hi) - 1.0, 0.0)
        lo_hi = (lo, hi)
        v = w / np.linalg.norm(w)
    raise ConvergenceError(
        f"power iteration did not bracket the Perron root within {max_iter} "
        f"iterations",
        details={"last_bracket": lo_hi, "last_vector": v},
    )


def _q_part(A: np.ndarray) -> np.ndarray:
    """Q = I - A with a zero diagonal and negative entries clipped to 0."""
    Q = np.clip(np.eye(len(A)) - A, 0.0, None)
    np.fill_diagonal(Q, 0.0)
    return Q


def validate_reflection_m_matrix(M, tol: float = RADIUS_MARGIN) -> ValidationReport:
    """Check membership in the reflection nonsingular M-matrix class.

    Accepts iff the diagonal is exactly one, off-diagonal entries are <= 0,
    and the spectral radius of Q = I - M is below 1 - tol.
    """
    A = _as_square(M)
    if tol <= 0:
        raise ValueError("tol must be positive")
    diag = np.diagonal(A)
    if np.any(np.abs(diag - 1.0) > DIAGONAL_TOL):
        k = int(np.argmax(np.abs(diag - 1.0)))
        return ValidationReport(False, f"diagonal entry ({k + 1},{k + 1}) != 1")
    off = A - np.diag(diag)
    if off.max() > DIAGONAL_TOL:
        r, c = np.unravel_index(int(np.argmax(off)), A.shape)
        return ValidationReport(
            False, f"positive off-diagonal entry at ({r + 1},{c + 1})"
        )
    rho = spectral_radius_nonneg(_q_part(A), tol=min(tol, PERRON_TOL))
    if rho >= 1.0 - tol:
        return ValidationReport(
            False, f"spectral radius of I - R is {rho:.12g} >= 1 - {tol:g}", rho
        )
    return ValidationReport(True, None, rho)


@dataclass(frozen=True, eq=False)
class ReflectionMatrix(_ArrayValue):
    """Validated reflection nonsingular M-matrix; immutable after construction."""

    entries: np.ndarray

    def __post_init__(self):
        A = _as_square(self.entries).copy()
        report = validate_reflection_m_matrix(A)
        if not report.accepted:
            raise MatrixValidationError(report.reason)
        A.setflags(write=False)
        object.__setattr__(self, "entries", A)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def q_matrix(self) -> np.ndarray:
        """The nonnegative part Q = I - R (zero diagonal)."""
        return _q_part(self.entries)


def neumann_inverse(R: ReflectionMatrix, tol: float = 1e-12) -> np.ndarray:
    """Inverse of R via the series I + Q + Q^2 + ...

    Truncates once the added term's max-norm drops below tol.  The result is
    entrywise nonnegative by construction.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    Q = R.q_matrix()
    total = np.eye(R.dim)
    term = np.eye(R.dim)
    for _ in range(NEUMANN_MAX_TERMS):
        term = term @ Q
        total += term
        if np.abs(term).max() < tol:
            return total
    raise ConvergenceError(
        f"Neumann series did not reach term norm {tol:g} in {NEUMANN_MAX_TERMS} terms",
        details={"last_term_norm": float(np.abs(term).max())},
    )


def principal_submatrix(M, rows: IndexSet, cols: IndexSet) -> np.ndarray:
    """Sub-block [M]_{rows,cols} taken in increasing index order."""
    A = np.asarray(M, dtype=float)
    if A.ndim != 2:
        raise DimensionError("expected a matrix")
    if rows.base_dim != A.shape[0] or cols.base_dim != A.shape[1]:
        raise IndexSetError(
            f"index sets sized for {rows.base_dim}x{cols.base_dim}, "
            f"matrix is {A.shape[0]}x{A.shape[1]}"
        )
    return A[np.ix_(rows.zero_based(), cols.zero_based())]


@dataclass(frozen=True)
class MatrixLemmaReport:
    """Outcome of the entrywise-comparison lemma checks for (R, Rbar, J).

    Margins are the largest amount by which an inequality fails; a margin
    <= tol counts as holding.
    """

    submatrix_valid: bool
    submatrix_reason: str | None
    subinverse_margin: float   # violation of 0 <= [R]_J^-1 <= [R^-1]_J
    pair_inverse_margin: float  # violation of R^-1 >= Rbar^-1 >= 0
    tolerance: float

    @property
    def passed(self) -> bool:
        return (
            self.submatrix_valid
            and self.subinverse_margin <= self.tolerance
            and self.pair_inverse_margin <= self.tolerance
        )


def check_matrix_lemmas(R: ReflectionMatrix, Rbar: ReflectionMatrix,
                        J: IndexSet, tol: float = 1e-9) -> MatrixLemmaReport:
    """Evaluate the submatrix/inversion comparison lemmas as predicates.

    Checks that [R]_J stays in the matrix class, that 0 <= [R]_J^-1 <=
    [R^-1]_J entrywise, and that R^-1 >= Rbar^-1 >= 0 entrywise.  Requires
    R <= Rbar entrywise.
    """
    if R.dim != Rbar.dim:
        raise DimensionError("R and Rbar must have the same dimension")
    if np.any(R.entries > Rbar.entries + DIAGONAL_TOL):
        raise PreconditionError("R <= Rbar entrywise is required")
    if J.base_dim != R.dim:
        raise IndexSetError("J must index {1,...,dim}")

    sub = principal_submatrix(R.entries, J, J)
    sub_report = validate_reflection_m_matrix(sub)

    inv_R = np.linalg.inv(R.entries)
    inv_sub = np.linalg.inv(sub)
    sub_of_inv = principal_submatrix(inv_R, J, J)
    p1 = max(float((-inv_sub).max()), float((inv_sub - sub_of_inv).max()))

    inv_Rbar = np.linalg.inv(Rbar.entries)
    p3 = max(float((inv_Rbar - inv_R).max()), float((-inv_Rbar).max()))

    return MatrixLemmaReport(
        submatrix_valid=sub_report.accepted,
        submatrix_reason=sub_report.reason,
        subinverse_margin=p1,
        pair_inverse_margin=p3,
        tolerance=tol,
    )
