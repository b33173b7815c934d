"""Validated reflection nonsingular M-matrix algebra.

A reflection nonsingular M-matrix is R = I - Q with Q >= 0 entrywise, zero
diagonal, and spectral radius strictly below one.  This module provides the
class validator, the Perron root, Neumann-series inversion,
principal-submatrix indexing, and the entrywise comparison lemmas used by the
solvers as executable predicates.

The Perron root is LAPACK's, taken on each irreducible class, where it is a
simple eigenvalue, and never on a whole reducible Q, where it may be multiple.

All index sets and axis indices in the public API are 1-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    IndexSetError,
    InvalidEntryError,
    MatrixValidationError,
    PreconditionError,
)
from .paths import _ArrayValue, _integers

DIAGONAL_TOL = 1e-10
RADIUS_MARGIN = 1e-8
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
        (base_dim,) = _integers("base_dim", (self.base_dim,), IndexSetError)
        if base_dim < 1:
            raise IndexSetError("base_dim must be a positive integer")
        members = _integers("members", self.members, IndexSetError)
        object.__setattr__(self, "base_dim", base_dim)
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


def _check_tol(tol) -> None:
    if not 0 < tol < math.inf:  # a NaN fails both comparisons
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def spectral_radius_nonneg(Q) -> float:
    """Perron root of an entrywise nonnegative matrix.

    The root is the largest over the irreducible classes of Q's pattern
    (the sets of mutually reachable indices), and 0 when the pattern has no
    cycle (Q nilpotent, Q = 0 included).  Each class that has a cycle gives
    the largest |eigenvalue| of its own block, and an irreducible Q of Q
    itself.  The split keeps the root accurate: in a class it is a simple
    eigenvalue (Perron-Frobenius), but classes that share it, as in
    [[A, C], [0, A]], make it a multiple one of Q, which LAPACK misses by
    ~1e-8 or more where it finds a simple one to ~1e-15.
    """
    A = _as_square(Q)
    if A.min() < 0:
        raise ValueError("matrix must be entrywise nonnegative")
    d = A.shape[0]
    B = A > 0
    reach = np.linalg.matrix_power(np.eye(d, dtype=bool) | B, d)  # paths of length <= d
    left = (B & reach.T).any(axis=1)  # the indices on a cycle
    radius = 0.0
    while left.any():
        i = int(np.argmax(left))
        cls = reach[i] & reach[:, i]
        left &= ~cls
        block = A if cls.all() else A[np.ix_(cls, cls)]
        radius = max(radius, float(np.abs(np.linalg.eigvals(block)).max()))
    return radius


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
    _check_tol(tol)
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
    rho = spectral_radius_nonneg(_q_part(A))
    if rho >= 1.0 - tol:
        return ValidationReport(
            False, f"spectral radius of I - R is {rho:.12g} >= 1 - {tol:g}", rho
        )
    return ValidationReport(True, None, rho)


@dataclass(frozen=True, eq=False)
class ReflectionMatrix(_ArrayValue):
    """Validated reflection nonsingular M-matrix; immutable after construction."""

    entries: np.ndarray
    # the exact solver's boundary rates, which depend on the entries alone
    _rates: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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
    _check_tol(tol)
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
