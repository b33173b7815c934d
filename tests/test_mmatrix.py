import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantsim import mmatrix
from orthantsim.errors import (
    ConvergenceError,
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
    got = spectral_radius_nonneg([[0, off], [off, 0]])
    assert got == pytest.approx(expected, abs=1e-10)


def test_radius_asymmetric_cross_against_formula():
    # eigenvalues of [[0,a],[b,0]] are +-sqrt(ab)
    a, b = 1.0, 0.25
    got = spectral_radius_nonneg([[0, a], [b, 0]])
    assert got == pytest.approx(np.sqrt(a * b), abs=1e-10)


def test_radius_random_against_numpy():
    rng = np.random.default_rng(11)
    for _ in range(50):
        d = rng.integers(1, 7)
        Q = rng.uniform(0, 1, (d, d))
        want = np.abs(np.linalg.eigvals(Q)).max()
        got = spectral_radius_nonneg(Q)
        assert got == pytest.approx(want, abs=1e-8)


def test_radius_sparse_random_against_numpy():
    # sparse patterns: most are reducible, many have classes of unequal roots
    rng = np.random.default_rng(11)
    for _ in range(100):
        d = rng.integers(1, 9)
        Q = rng.uniform(0, 1, (d, d)) * (rng.uniform(size=(d, d)) < 0.3)
        want = np.abs(np.linalg.eigvals(Q)).max()
        got = spectral_radius_nonneg(Q)
        assert got == pytest.approx(want, abs=1e-8)
    # nearly reducible: two random blocks, the second fed back at 10^-k
    for k in range(6, 15):
        for a, b in [(1, 1), (1, 3), (2, 2), (3, 1), (3, 3), (4, 2)]:
            Q = rng.uniform(0, 1, (a + b, a + b))
            Q[a:, :a] *= 10.0 ** -k
            want = np.abs(np.linalg.eigvals(Q)).max()
            got = spectral_radius_nonneg(Q)
            assert got == pytest.approx(want, abs=1e-8)


def test_radius_rejects_negative_entries():
    with pytest.raises(ValueError):
        spectral_radius_nonneg([[0, -0.1], [0, 0]])


def test_radius_of_decoupled_classes_is_their_largest():
    assert spectral_radius_nonneg(np.diag([0.5, 0.3])) == 0.5


@pytest.mark.parametrize("Q,want,rel", [
    ([[0.0, 1.0], [1e-20, 0.0]], 1e-10, 1e-6),  # the bracket closes like 1e-10**k
    ([[0.0, 0.5], [1e-8, 0.0]], np.sqrt(5e-9), 1e-15),
])
def test_radius_left_unbracketed_is_lapacks(Q, want, rel):
    # rho([[0, a], [b, 0]]) = sqrt(ab); irreducible, but weakly coupled
    assert spectral_radius_nonneg(Q) == pytest.approx(want, rel=rel)


def test_nearly_reducible_matrix_constructs():
    # rho(Q) = sqrt(5e-9) ~ 7e-5 is below 1 - RADIUS_MARGIN
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
    monkeypatch.setattr(mmatrix, "NEUMANN_MAX_TERMS", _NoIteration())
    with pytest.raises(ValueError, match="tol must be positive"):
        validate_reflection_m_matrix([[1.0, -3.0], [-3.0, 1.0]], tol=tol)
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
        # two classes of one root, the second fed back at 1e-9
        Q[k:, k:] *= (np.abs(np.linalg.eigvals(Q[:k, :k])).max()
                      / np.abs(np.linalg.eigvals(Q[k:, k:])).max())
        Q[k:, :k] *= 1e-9
    Q *= rho / np.abs(np.linalg.eigvals(Q)).max()
    M = np.eye(d) - Q
    if shape == "positive_entry":
        M[0, 1] = 1e-3
    elif shape == "diagonal":
        M[1, 1] = 1.5
    report = validate_reflection_m_matrix(M)
    if report.accepted:
        np.testing.assert_array_equal(ReflectionMatrix(M).entries, M)
    else:
        with pytest.raises(MatrixValidationError) as err:
            ReflectionMatrix(M)
        assert str(err.value) == report.reason


def _cyclic_classes(Q):
    """Index arrays of the irreducible classes of Q's pattern that hold a cycle."""
    T = Q > 0
    for k in range(len(Q)):  # Warshall: T[i, j] iff a path of length >= 1 leads i -> j
        T |= T[:, [k]] & T[[k], :]
    classes = {tuple(np.flatnonzero(T[i] & T[:, i])) for i in range(len(Q)) if T[i, i]}
    return [np.array(c) for c in sorted(classes)]


def _collatz_wielandt(B, steps=300):
    """[lo, hi] around the Perron root of an irreducible B >= 0: the least and
    largest (Bv)_i / v_i for v = (B/s + I)^steps 1, s B's largest row sum."""
    s = B.sum(axis=1).max()
    v = np.ones(len(B))
    for _ in range(steps):
        v = B @ v / s + v
        v /= v.max()
    ratios = B @ v / v
    return ratios.min(), ratios.max()


def _sample_q(rng, kind, d, exponent):
    Q = rng.uniform(0.05, 1.0, (d, d))
    k = int(rng.integers(1, d)) if d > 1 else 1
    if kind == "sparse":  # mostly reducible
        Q *= rng.uniform(size=(d, d)) < 0.3
    elif kind == "reducible":  # block triangular; a class copied shares its root
        Q[k:, :k] = 0.0
        if 2 * k <= d and rng.uniform() < 0.5:
            Q[k:2 * k, k:2 * k] = Q[:k, :k]
    elif kind == "nearly_reducible":
        Q[k:, :k] *= 10.0 ** -rng.uniform(6, 14)
    np.fill_diagonal(Q, 0.0)
    p = rng.permutation(d)  # hides the block pattern from LAPACK's balancing
    return Q[np.ix_(p, p)] * (10.0 ** exponent if kind == "scaled" else 1.0)


@given(d=st.integers(2, 20), seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from(["dense", "sparse", "reducible", "nearly_reducible", "scaled"]),
       exponent=st.integers(-20, 20))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_radius_lies_in_its_collatz_wielandt_and_sum_bounds(d, seed, kind, exponent):
    # certified apart from LAPACK: per class, the Collatz-Wielandt bracket of a
    # positive vector; for all of Q, the least and largest row and column sums
    Q = _sample_q(np.random.default_rng(seed), kind, d, exponent)
    got = spectral_radius_nonneg(Q)
    classes = _cyclic_classes(Q)
    if not classes:
        assert got == 0.0
        return
    lo, hi = np.max([_collatz_wielandt(Q[np.ix_(c, c)]) for c in classes], axis=0)
    rel = 1e-12
    assert lo * (1 - rel) <= got <= hi * (1 + rel)
    rows, cols = Q.sum(axis=1), Q.sum(axis=0)
    assert max(rows.min(), cols.min()) * (1 - rel) <= got
    assert got <= min(rows.max(), cols.max()) * (1 + rel)


def test_radius_of_classes_that_share_a_root():
    # permuted [[A, C], [0, A]]: rho(A) is a double eigenvalue of Q, which
    # LAPACK on the whole of Q puts at 1 - 6e-10, a rejection, and per class
    # finds to ~1e-15
    rho = 1 - 2e-8
    rng = np.random.default_rng(0)
    P = rng.uniform(0.05, 1.0, (4, 4))
    np.fill_diagonal(P, 0.0)
    A = P * (rho / P.sum(axis=1))[:, None]  # every row sums to rho, so rho(A) = rho
    Q = np.block([[A, rng.uniform(0.05, 1.0, (4, 4))], [np.zeros((4, 4)), A]])
    p = rng.permutation(8)
    report = validate_reflection_m_matrix(np.eye(8) - Q[np.ix_(p, p)])
    assert report.accepted
    assert report.spectral_radius == pytest.approx(rho, rel=1e-13)


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


def test_neumann_series_past_its_term_cap_raises(monkeypatch):
    monkeypatch.setattr(mmatrix, "NEUMANN_MAX_TERMS", 3)
    with pytest.raises(ConvergenceError, match="in 3 terms") as err:
        neumann_inverse(ReflectionMatrix([[1.0, -0.5], [-0.5, 1.0]]))
    assert err.value.details["last_term_norm"] == 0.125


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


_I2, _I3 = ReflectionMatrix(np.eye(2)), ReflectionMatrix(np.eye(3))


@pytest.mark.parametrize("call, error, message", [
    (lambda: IndexSet(0, (1,)), IndexSetError, "base_dim must be a positive integer"),
    (lambda: principal_submatrix(np.ones(3), IndexSet(3, (1,)), IndexSet(3, (1,))),
     DimensionError, "expected a matrix"),
    (lambda: principal_submatrix(np.ones((3, 3)), IndexSet(2, (1,)), IndexSet(3, (1,))),
     IndexSetError, "sized for 2x3, matrix is 3x3"),
    (lambda: check_matrix_lemmas(_I2, _I3, IndexSet(2, (1,))),
     DimensionError, "same dimension"),
    (lambda: check_matrix_lemmas(_I2, _I2, IndexSet(3, (1,))),
     IndexSetError, "J must index"),
], ids=["base_dim_0", "submatrix_of_a_vector", "submatrix_sizes",
        "lemma_dimensions", "lemma_index_set"])
def test_index_sets_and_lemmas_reject_mismatched_sizes(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
