import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantsim import mmatrix
from orthantsim.errors import (
    DimensionError,
    IndexSetError,
    InvalidEntryError,
    MatrixValidationError,
    PreconditionError,
)
from orthantsim.mmatrix import (
    IndexSet,
    ReflectionMatrix,
    check_matrix_lemmas,
    neumann_inverse,
    principal_submatrix,
    spectral_radius_nonneg,
    validate_reflection_m_matrix,
)


def random_valid(rng, d, rho=0.8):
    if d == 1:
        return ReflectionMatrix(np.eye(1))
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    Q *= rho / spectral_radius_nonneg(Q)
    return ReflectionMatrix(np.eye(d) - Q)


# ---------------------------------------------------------------- validation

def test_identity_accepted():
    rep = validate_reflection_m_matrix(np.eye(2))
    assert rep.accepted and rep.spectral_radius == 0.0


def test_symmetric_half_accepted_with_radius():
    rep = validate_reflection_m_matrix([[1, -0.5], [-0.5, 1]])
    assert rep.accepted
    assert rep.spectral_radius == pytest.approx(0.5, abs=1e-9)


def test_positive_offdiagonal_rejected():
    rep = validate_reflection_m_matrix([[1, 0.1], [-0.5, 1]])
    assert not rep.accepted
    assert "positive off-diagonal" in rep.reason


def test_bad_diagonal_rejected():
    rep = validate_reflection_m_matrix([[1.5, 0.0], [0.0, 1.0]])
    assert not rep.accepted
    assert "diagonal" in rep.reason


def test_radius_too_large_rejected():
    rep = validate_reflection_m_matrix([[1, -1.0], [-1.0, 1]])
    assert not rep.accepted
    assert "spectral radius" in rep.reason


def test_nonsquare_raises():
    with pytest.raises(DimensionError):
        validate_reflection_m_matrix(np.ones((2, 3)))


def test_nan_raises():
    with pytest.raises(InvalidEntryError):
        validate_reflection_m_matrix([[1, np.nan], [0, 1]])


def test_constructor_rejects_invalid():
    with pytest.raises(MatrixValidationError):
        ReflectionMatrix([[1, 0.2], [0, 1]])


def test_dimension_one_allowed():
    R = ReflectionMatrix([[1.0]])
    assert R.dim == 1 and not R.q_matrix().any()


# ----------------------------------------------------------- spectral radius

def test_radius_zero_matrix():
    assert spectral_radius_nonneg(np.zeros((3, 3))) == 0.0


@pytest.mark.parametrize("Q", [
    [[0.0, 0.0], [0.5, 0.0]],
    [[0.0, 0.3, 0.2, 0.0], [0.0, 0.0, 0.7, 0.1], [0.0, 0.0, 0.0, 0.9],
     [0.0, 0.0, 0.0, 0.0]],
    [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1e-12, 0.0, 0.0]],  # no bracket is reached
])
def test_radius_of_a_nilpotent_matrix_is_zero(Q):
    # an acyclic positive pattern gives Q^d = 0; power iteration never brackets it
    assert spectral_radius_nonneg(Q) == 0.0


def test_triangular_reflection_matrix_is_accepted():
    R = ReflectionMatrix([[1.0, 0.0], [-0.5, 1.0]])
    assert validate_reflection_m_matrix(R.entries).spectral_radius == 0.0


@pytest.mark.parametrize("off,expected", [(0.5, 0.5), (0.9, 0.9)])
def test_radius_cross_matrix(off, expected):
    got = spectral_radius_nonneg([[0, off], [off, 0]], tol=1e-12)
    assert got == pytest.approx(expected, abs=1e-10)


def test_radius_asymmetric_cross_against_formula():
    # eigenvalues of [[0,a],[b,0]] are +-sqrt(ab)
    a, b = 1.0, 0.25
    got = spectral_radius_nonneg([[0, a], [b, 0]], tol=1e-12)
    assert got == pytest.approx(np.sqrt(a * b), abs=1e-10)


def test_radius_random_against_numpy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = rng.integers(1, 7)
        Q = rng.uniform(0, 1, (d, d))
        want = np.abs(np.linalg.eigvals(Q)).max()
        got = spectral_radius_nonneg(Q, tol=1e-11)
        assert got == pytest.approx(want, abs=1e-8)


def test_radius_sparse_random_against_numpy(monkeypatch):
    # sparse patterns: most are reducible, many have classes of unequal roots
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.integers(1, 9)
        Q = rng.uniform(0, 1, (d, d)) * (rng.uniform(size=(d, d)) < 0.3)
        want = np.abs(np.linalg.eigvals(Q)).max()
        got = spectral_radius_nonneg(Q, tol=1e-11)
        assert got == pytest.approx(want, abs=1e-8)
    # nearly reducible: two random blocks, the second fed back at 10^-k; at
    # this cap about a third of them leave the bracket open and take LAPACK's root
    monkeypatch.setattr(mmatrix, "PERRON_MAX_ITER", 200)
    for k in range(6, 15):
        for a, b in [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 2)]:
            Q = rng.uniform(0, 1, (a + b, a + b))
            Q[a:, :a] *= 10.0 ** -k
            want = np.abs(np.linalg.eigvals(Q)).max()
            got = spectral_radius_nonneg(Q, tol=1e-11)
            assert got == pytest.approx(want, abs=1e-8)


def test_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius_nonneg([[0, -0.1], [0, 0]])


def test_radius_of_decoupled_classes_is_their_largest(monkeypatch):
    # one power iteration over both classes would never bracket
    monkeypatch.setattr(mmatrix, "PERRON_MAX_ITER", 50)
    assert spectral_radius_nonneg(np.diag([0.5, 0.3])) == 0.5


@pytest.mark.parametrize("Q,want,rel", [
    ([[0.0, 1.0], [1e-20, 0.0]], 1e-10, 1e-6),  # the bracket closes like 1e-10**k
    ([[0.0, 0.5], [1e-8, 0.0]], np.sqrt(5e-9), 1e-15),
])
def test_radius_left_unbracketed_is_lapacks(monkeypatch, Q, want, rel):
    # rho([[0, a], [b, 0]]) = sqrt(ab); irreducible, but too weakly coupled
    monkeypatch.setattr(mmatrix, "PERRON_MAX_ITER", 50)
    assert spectral_radius_nonneg(Q) == pytest.approx(want, rel=rel)


def test_nearly_reducible_matrix_constructs():
    # bracketing rho(Q) ~ 7e-5 fails after PERRON_MAX_ITER iterations;
    # LAPACK's root, sqrt(5e-9), is below 1 - RADIUS_MARGIN
    R = ReflectionMatrix([[1.0, -0.5], [-1e-8, 1.0]])
    assert R.entries[1, 0] == -1e-8


class _NoIteration:
    def __index__(self):  # range() reads an iteration cap through this
        raise AssertionError("an iteration started before tol was checked")


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1.0])
def test_tolerance_must_be_positive_and_finite(monkeypatch, tol):
    # a NaN tol passed `tol <= 0`: validation then ran to the cap and blamed
    # the matrix, and the Neumann series reported `term norm nan`
    R = ReflectionMatrix([[1.0, -0.5], [-0.5, 1.0]])
    monkeypatch.setattr(mmatrix, "PERRON_MAX_ITER", _NoIteration())
    monkeypatch.setattr(mmatrix, "NEUMANN_MAX_TERMS", _NoIteration())
    with pytest.raises(ValueError, match="tol must be positive"):
        validate_reflection_m_matrix([[1.0, -3.0], [-3.0, 1.0]], tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        spectral_radius_nonneg([[0.0, 3.0], [3.0, 0.0]], tol=tol)
    with pytest.raises(ValueError, match="tol must be positive"):
        neumann_inverse(R, tol=tol)


@given(d=st.integers(2, 8), rho=st.sampled_from([0.5, 0.99, 1 - 2e-8, 1 - 5e-9, 1.01]),
       shape=st.sampled_from(["dense", "reducible", "positive_entry", "diagonal",
                              "nearly_reducible"]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_constructor_rejects_exactly_what_validation_rejects(d, rho, shape, seed):
    rng = np.random.default_rng(seed)
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    k = max(2, d // 2)
    if shape == "reducible":  # block upper triangular, a class of two first
        Q[k:, :k] = 0.0
    elif shape == "nearly_reducible" and d - k >= 2:
        # two classes of one root, the second fed back at 1e-9: the bracket
        # closes like the ~1e-5 split of that double root, so rarely in the cap
        Q[k:, k:] *= (np.abs(np.linalg.eigvals(Q[:k, :k])).max()
                      / np.abs(np.linalg.eigvals(Q[k:, k:])).max())
        Q[k:, :k] *= 1e-9
    Q *= rho / np.abs(np.linalg.eigvals(Q)).max()
    M = np.eye(d) - Q
    if shape == "positive_entry":
        M[0, 1] = 1e-3
    elif shape == "diagonal":
        M[1, 1] = 1.5
    with pytest.MonkeyPatch.context() as mp:  # an unbracketed root runs the whole cap
        mp.setattr(mmatrix, "PERRON_MAX_ITER", 2000)
        report = validate_reflection_m_matrix(M)
        if report.accepted:
            np.testing.assert_array_equal(ReflectionMatrix(M).entries, M)
        else:
            with pytest.raises(MatrixValidationError) as err:
                ReflectionMatrix(M)
            assert str(err.value) == report.reason


# ----------------------------------------------------------- Neumann inverse

def test_neumann_identity():
    assert np.array_equal(neumann_inverse(ReflectionMatrix(np.eye(3))), np.eye(3))


def test_neumann_2x2_closed_form():
    # direct inverse of [[1,-1/2],[-1/2,1]] is 1/(1-1/4) [[1,1/2],[1/2,1]]
    R = ReflectionMatrix([[1, -0.5], [-0.5, 1]])
    S = neumann_inverse(R, tol=1e-14)
    want = np.array([[4, 2], [2, 4]]) / 3.0
    assert np.abs(S - want).max() < 1e-12


def test_neumann_is_inverse_and_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(20):
        d = rng.integers(1, 9)
        R = random_valid(rng, d)
        S = neumann_inverse(R, tol=1e-13)
        assert S.min() >= 0
        assert np.abs(S @ R.entries - np.eye(d)).max() < 1e-10


def test_neumann_matches_direct_solve():
    rng = np.random.default_rng(4)
    tol = 1e-12
    for _ in range(30):
        d = rng.integers(1, 9)
        R = random_valid(rng, d)
        S = neumann_inverse(R, tol=tol)
        direct = np.linalg.solve(R.entries, np.eye(d))
        assert np.abs(S - direct).max() < 10 * tol


# ------------------------------------------------------ principal submatrix

def test_submatrix_corner_block():
    M = np.arange(1.0, 10.0).reshape(3, 3)
    J = IndexSet(3, (1, 3))
    got = principal_submatrix(M, J, J)
    assert np.array_equal(got, [[1, 3], [7, 9]])


def test_submatrix_full_returns_matrix():
    M = np.arange(16.0).reshape(4, 4)
    F = IndexSet.full(4)
    assert np.array_equal(principal_submatrix(M, F, F), M)


def test_submatrix_gap_matrix_block():
    # leading 2x2 block of the tridiagonal gap matrix for N=4
    from orthantsim.particles import CollisionParams, reflection_matrix_from_params

    q = CollisionParams.from_qminus([0.3, 0.6, 0.2, 0.5], qplus1=0.5)
    R = reflection_matrix_from_params(q)
    J = IndexSet(3, (1, 2))
    block = principal_submatrix(R.entries, J, J)
    want = np.array([[1.0, -q.qminus[1]], [-q.qplus[1], 1.0]])
    assert np.array_equal(block, want)


def test_index_set_validation():
    with pytest.raises(IndexSetError):
        IndexSet(3, ())
    with pytest.raises(IndexSetError):
        IndexSet(3, (2, 1))
    with pytest.raises(IndexSetError):
        IndexSet(3, (0, 1))
    with pytest.raises(IndexSetError):
        IndexSet(3, (1, 4))
    assert IndexSet(5, (2, 4)).complement_members() == (1, 3, 5)


@pytest.mark.parametrize("base_dim,members", [
    (3, (1.7, 2.2)), (2.5, (1,)), (3, (True, 2)), (True, (1,)), (3, ("1",)),
])
def test_index_set_reads_integers_only(base_dim, members):
    # (1.7, 2.2) was truncated to (1, 2) and a base_dim of 2.5 kept
    with pytest.raises(IndexSetError):
        IndexSet(base_dim, members)
    J = IndexSet(np.int64(3), np.array([1, 3], dtype=np.int32))
    assert J == IndexSet(3, (1, 3)) and type(J.base_dim) is type(J.members[0]) is int


# ------------------------------------------------------------ lemma checks

def test_lemmas_identity_equalities():
    I2 = ReflectionMatrix(np.eye(2))
    rep = check_matrix_lemmas(I2, I2, IndexSet(2, (1,)))
    assert rep.passed
    assert rep.subinverse_margin <= 0.0 + 1e-15
    assert rep.pair_inverse_margin <= 0.0 + 1e-15


def test_lemmas_2x2_closed_forms():
    R = ReflectionMatrix([[1, -0.5], [-0.5, 1]])
    Rbar = ReflectionMatrix(np.eye(2))
    rep = check_matrix_lemmas(R, Rbar, IndexSet(2, (1,)))
    # [R]_J^{-1} = 1 <= [R^{-1}]_{11} = 4/3 and R^{-1} >= I >= 0
    assert rep.passed and rep.submatrix_valid


def test_lemmas_require_domination():
    R = ReflectionMatrix([[1, -0.5], [-0.5, 1]])
    Rbar = ReflectionMatrix(np.eye(2))
    with pytest.raises(PreconditionError):
        check_matrix_lemmas(Rbar, R, IndexSet(2, (1,)))


def test_lemmas_randomized():
    rng = np.random.default_rng(9)
    for _ in range(60):
        d = rng.integers(1, 7)
        R = random_valid(rng, d, rho=rng.uniform(0.2, 0.85))
        Rbar = ReflectionMatrix(np.eye(d) - rng.uniform(0, 1, (d, d)) * R.q_matrix())
        k = rng.integers(1, d + 1)
        members = tuple(sorted(rng.choice(np.arange(1, d + 1), size=k,
                                          replace=False).tolist()))
        rep = check_matrix_lemmas(R, Rbar, IndexSet(d, members), tol=1e-9)
        assert rep.passed, rep


# --------------------------------------- entrywise product lemmas (P2/P6/P7)

small_dims = st.integers(min_value=1, max_value=4)


@st.composite
def nonneg_matrix(draw, rows, cols):
    vals = draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=rows * cols, max_size=rows * cols))
    return np.asarray(vals).reshape(rows, cols)


@st.composite
def product_lemma_case(draw):
    m, d, n = draw(small_dims), draw(small_dims), draw(small_dims)
    A = draw(nonneg_matrix(m, d))
    B = draw(nonneg_matrix(d, n))
    pick = lambda top: tuple(sorted(draw(
        st.sets(st.integers(1, top), min_size=1, max_size=top))))
    return A, B, pick(m), pick(d), pick(n)


@given(product_lemma_case())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_block_product_bound(case):
    # [A]_{IJ}[B]_{JK} <= [AB]_{IK} for nonnegative A, B
    A, B, I, J, K = case
    iA = np.asarray(I) - 1
    jA = np.asarray(J) - 1
    kA = np.asarray(K) - 1
    lhs = A[np.ix_(iA, jA)] @ B[np.ix_(jA, kA)]
    rhs = (A @ B)[np.ix_(iA, kA)]
    assert np.all(lhs <= rhs + 1e-12)


@st.composite
def ordered_product_case(draw):
    m, d, n = draw(small_dims), draw(small_dims), draw(small_dims)
    A = draw(nonneg_matrix(m, d))
    C = draw(nonneg_matrix(d, n))
    sa = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    sc = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return A, sa * A, C, sc * C


@given(ordered_product_case())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_ordered_product_bound(case):
    # A >= B >= 0, C >= D >= 0 implies AC >= BD >= 0
    A, B, C, D = case
    assert np.all(A @ C >= B @ D - 1e-12)
    assert np.all(B @ D >= -1e-12)


@given(st.integers(1, 5), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_vector_product_bound(d, data):
    # [Aa]_J >= [A]_J [a]_J for nonnegative A, a
    A = data.draw(nonneg_matrix(d, d))
    a = np.asarray(data.draw(st.lists(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        min_size=d, max_size=d)))
    members = tuple(sorted(data.draw(
        st.sets(st.integers(1, d), min_size=1, max_size=d))))
    idx = np.asarray(members) - 1
    lhs = (A @ a)[idx]
    rhs = A[np.ix_(idx, idx)] @ a[idx]
    assert np.all(lhs >= rhs - 1e-12)
