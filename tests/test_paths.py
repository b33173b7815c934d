import io
import json

import numpy as np
import pytest

from orthantsim.errors import (
    AlignmentError,
    CovarianceError,
    DimensionError,
    DominationError,
    InvalidEntryError,
    OrderingError,
    ParameterError,
    RangeError,
)
from orthantsim.mmatrix import ReflectionMatrix
from orthantsim.paths import (
    CELLS_MAX,
    COUNT_MAX,
    BrownianSpec,
    RegularPath,
    SampledPath,
    brownian_components,
    cbp_driving_path,
    coupled_regular_approximation,
    difference_path,
    increments_dominated,
    sample_brownian,
    standard_regular_approximation,
    _check_count,
)


def brownian_sample(seed=0, d=2, grid=64, T=1.0):
    return brownian_components(d, T, grid, seed)


def sup_distance(a, b):
    ts = np.union1d(getattr(a, "times", getattr(a, "breakpoints", None)),
                    getattr(b, "times", getattr(b, "breakpoints", None)))
    return np.abs(a.values_at(ts) - b.values_at(ts)).max()


# ------------------------------------------------------------------ evaluate

def test_regular_evaluate_midpoint():
    p = RegularPath([0.0, 1.0], [0.0, 1.0], (1,), [-1.0])
    assert np.allclose(p.evaluate(0.5), [-0.5, 1.0])


def test_evaluate_at_zero_is_start():
    p = RegularPath([0.3, -0.2, 4.0], [0.0, 1.0, 2.0], (2, 3), [1.0, -2.0])
    assert np.array_equal(p.evaluate(0.0), p.start)
    s = SampledPath([0.0, 1.0], [[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(s.evaluate(0.0), [1.0, 2.0])


def test_evaluate_breakpoint_continuity():
    p = RegularPath([0.0, 0.0], [0.0, 1.0, 2.0], (1, 2), [2.0, -1.0])
    eps = 1e-9
    left = p.evaluate(1.0 - eps)
    right = p.evaluate(1.0 + eps)
    at = p.evaluate(1.0)
    assert np.abs(left - at).max() < 3e-9
    assert np.abs(right - at).max() < 3e-9


BOTH_KINDS = [RegularPath([0.0], [0.0, 1.0], (1,), [1.0]),
              SampledPath([0.0, 1.0], [[0.0], [1.0]])]


def test_evaluate_out_of_range():
    for p in BOTH_KINDS:
        for t in (1.5, -0.1, np.nan):
            with pytest.raises(RangeError):
                p.evaluate(t)
            with pytest.raises(RangeError):
                p.values_at([0.5, t])


def test_values_at_needs_one_dim_times():
    for p in BOTH_KINDS:
        for ts in (0.5, [[0.5]], np.zeros((0, 1))):
            with pytest.raises(DimensionError, match="1-d"):
                p.values_at(ts)


@pytest.mark.parametrize("times, values, message", [
    ([0.0], [[1.0]], "at least two grid times"),
    ([0.0, 1.0], [[1.0], [2.0], [3.0]], r"values rows \(3\) must match times \(2\)"),
    ([0.0, 1.0], np.zeros((2, 0)), "dimension must be >= 1"),
], ids=["one_time", "rows_not_times", "no_component"])
def test_sampled_path_rejects_a_malformed_table(times, values, message):
    with pytest.raises(DimensionError, match=message):
        SampledPath(times, values)


def test_sampled_interpolates_linearly():
    s = SampledPath([0.0, 2.0], [[0.0], [4.0]])
    assert s.evaluate(0.5)[0] == pytest.approx(1.0)


def test_restrict_members_idles_dropped_axes():
    p = RegularPath([0.0, 1.0, 2.0], [0.0, 1.0, 2.0, 3.0], (1, 3, 2),
                    [1.0, -1.0, 0.5])
    r = p.restrict_members((1, 3))
    assert r.dim == 2 and r.axes == (1, 2, 1)
    assert np.array_equal(r.slopes, [1.0, -1.0, 0.0])
    ts = np.linspace(0, 3, 13)
    assert np.array_equal(r.values_at(ts), p.values_at(ts)[:, [0, 2]])


@pytest.mark.parametrize("members", [(1.9, 2), (True, 2), (1, 2.0)])
def test_restrict_members_reads_integers_only(members):
    # (1.9, 2) restricted to ranks 1 and 2
    p = RegularPath([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], (1, 3), [1.0, -1.0])
    with pytest.raises(RangeError):
        p.restrict_members(members)
    assert p.restrict_members(np.array([1, 2])) == p.restrict_members((1, 2))


@pytest.mark.parametrize("members, message", [
    ((2, 1), "strictly increasing"), ((0, 1), r"out of 1\.\.3"), ((2, 4), r"out of 1\.\.3"),
], ids=["unordered", "below", "above"])
def test_restrict_members_rejects_unordered_or_out_of_range(members, message):
    p = RegularPath([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], (1, 3), [1.0, -1.0])
    with pytest.raises(RangeError, match=message):
        p.restrict_members(members)


# ------------------------------------------------- standard approximation

def test_one_dim_linear_reproduced_exactly():
    X = SampledPath([0.0, 1.0], [[0.0], [3.0]])
    approx = standard_regular_approximation(X, 1)
    ts = np.linspace(0, 1, 17)
    assert np.abs(approx.values_at(ts) - X.values_at(ts)).max() < 1e-15


def test_anchor_interpolation():
    X = brownian_sample(seed=5, d=3, grid=60)
    for n in (1, 2, 5, 12):
        approx = standard_regular_approximation(X, n)
        anchors = np.linspace(0, X.horizon, n + 1)
        assert np.abs(approx.values_at(anchors) - X.values_at(anchors)).max() < 1e-12


@pytest.mark.parametrize("T", [1.0, 0.3, 3.7, 1e-3])
@pytest.mark.parametrize("n", [1, 7, 1000, 2500])
def test_anchors_are_breakpoints_bit_for_bit(n, T):
    anchors = np.linspace(0.0, T, n + 1)
    for d in range(1, 21):
        X = SampledPath(anchors, np.zeros((n + 1, d)))
        bp = standard_regular_approximation(X, n).breakpoints
        assert bp[::d].tobytes() == anchors.tobytes()
        assert bp[-1] == T
        assert (np.diff(bp) > 0.0).all()


def test_segment_count_and_axis_order():
    X = brownian_sample(seed=1, d=3, grid=30)
    approx = standard_regular_approximation(X, 4)
    assert len(approx.axes) == 4 * 3
    assert approx.axes == (1, 2, 3) * 4


def test_sup_error_oscillation_bound():
    X = brownian_sample(seed=7, d=2, grid=128)
    for n in (2, 4, 8):
        approx = standard_regular_approximation(X, n)
        ts = np.union1d(X.times, approx.breakpoints)
        err = np.linalg.norm(X.values_at(ts) - approx.values_at(ts),
                             axis=1).max()
        anchors = np.linspace(0, X.horizon, n + 1)
        osc = 0.0
        for lo, hi in zip(anchors[:-1], anchors[1:]):
            window = ts[(ts >= lo) & (ts <= hi)]
            osc = max(osc, np.linalg.norm(
                X.values_at(window) - X.values_at([lo]), axis=1).max())
        assert err <= 2.0 * osc + 1e-12


def test_error_shrinks_along_doubling_levels():
    # seed pinned: per-sample monotonicity is empirical, not a theorem
    X = brownian_sample(seed=5, d=2, grid=256)
    errs = []
    for n in (1, 2, 4, 8, 16):
        approx = standard_regular_approximation(X, n)
        errs.append(sup_distance(approx, X))
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < errs[0] / 2


def test_level_zero_rejected():
    X = brownian_sample()
    with pytest.raises(ParameterError):
        standard_regular_approximation(X, 0)


# ------------------------------------------------- coupled approximation

def test_coupled_identical_inputs():
    X = brownian_sample(seed=2)
    a, b = coupled_regular_approximation(X, X, 4)
    assert np.array_equal(a.vertices, b.vertices)


def test_coupled_constant_shift():
    X = brownian_sample(seed=2)
    Xbar = SampledPath(X.times, X.values + 0.7)
    a, b = coupled_regular_approximation(X, Xbar, 3)
    assert np.array_equal(a.breakpoints, b.breakpoints)
    assert a.axes == b.axes
    ts = a.breakpoints
    assert np.abs(b.values_at(ts) - a.values_at(ts) - 0.7).max() < 1e-12


def test_coupled_outputs_dominated_everywhere():
    rng = np.random.default_rng(10)
    for trial in range(10):
        d = rng.integers(1, 5)
        grid = 24
        times = np.linspace(0, 1, grid + 1)
        inc = rng.normal(0, 0.2, (grid, d))
        x0 = rng.uniform(0, 1, d)
        X = SampledPath(times, np.vstack([x0, x0 + np.cumsum(inc, axis=0)]))
        bump = np.vstack([np.zeros(d),
                          np.cumsum(rng.uniform(0, 0.1, (grid, d)), axis=0)])
        Xbar = SampledPath(times, X.values + bump + rng.uniform(0, 0.5, d))
        a, b = coupled_regular_approximation(X, Xbar, 6)
        assert a.axes == b.axes
        assert np.array_equal(a.breakpoints, b.breakpoints)
        assert np.all(a.start <= b.start)
        # increment domination at every segment endpoint
        da = np.diff(a.vertices, axis=0)
        db = np.diff(b.vertices, axis=0)
        assert np.all(da <= db + 1e-15)


def test_coupled_rejects_violation():
    X = brownian_sample(seed=2)
    Xbar = SampledPath(X.times, X.values.copy())
    bad = Xbar.values.copy()
    bad[5] -= 1.0  # one dented increment
    with pytest.raises(DominationError) as err:
        coupled_regular_approximation(X, SampledPath(X.times, bad), 4)
    assert err.value.where is not None


# ------------------------------------------------------------- Brownian

def test_zero_covariance_straight_line():
    spec = BrownianSpec(2, [1.0, -0.5], np.zeros((2, 2)), 2.0, 50, 9)
    B = sample_brownian(spec)
    want = np.outer(B.times, [1.0, -0.5])
    assert np.abs(B.values - want).max() < 1e-12


def test_same_seed_identical():
    spec = BrownianSpec(3, np.zeros(3), np.eye(3), 1.0, 100, 123)
    a, b = sample_brownian(spec), sample_brownian(spec)
    assert np.array_equal(a.values, b.values)
    c = sample_brownian(BrownianSpec(3, np.zeros(3), np.eye(3), 1.0, 100, 124))
    assert not np.array_equal(a.values, c.values)


def test_increment_covariance_matches():
    A = np.array([[1.0, 0.4], [0.4, 0.8]])
    spec = BrownianSpec(2, np.zeros(2), A, 1.0, 100_000, 42)
    B = sample_brownian(spec)
    inc = np.diff(B.values, axis=0)
    dt = 1.0 / spec.steps
    cov = inc.T @ inc / len(inc)
    assert np.abs(cov / dt - A).max() < 0.05 * np.abs(A).max()


def test_asymmetric_covariance_rejected():
    with pytest.raises(CovarianceError):
        BrownianSpec(2, np.zeros(2), [[1.0, 0.3], [0.0, 1.0]], 1.0, 10, 0)


def test_indefinite_covariance_rejected():
    with pytest.raises(CovarianceError):
        sample_brownian(BrownianSpec(2, np.zeros(2), [[1.0, 2.0], [2.0, 1.0]],
                                     1.0, 10, 0))


def test_component_streams_stable_under_offset():
    full = brownian_components(4, 1.0, 32, seed=7)
    sub = brownian_components(2, 1.0, 32, seed=7, stream_offset=1)
    assert np.array_equal(sub.values, full.values[:, 1:3])


# --------------------------------------------------------------- CBP driver

def test_cbp_driver_constant_when_quiet():
    B = SampledPath([0.0, 1.0], np.zeros((2, 3)))
    X = cbp_driving_path([0.0, 1.0, 2.0], np.zeros(3), np.ones(3), B)
    assert np.array_equal(X.values[0], X.values[1])


def test_cbp_driver_zero_sigma_rejected():
    B = SampledPath([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(ParameterError):
        cbp_driving_path([0.0, 1.0], np.zeros(2), [1.0, 0.0], B)


def test_cbp_driver_drift_only():
    B = SampledPath([0.0, 0.5, 1.0], np.zeros((3, 2)))
    X = cbp_driving_path([0.0, 0.0], [1.0, 0.0], [1.0, 1.0], B)
    assert np.allclose(X.values_at([1.0]), [[1.0, 0.0]])


def test_cbp_driver_requires_order():
    B = SampledPath([0.0, 1.0], np.zeros((2, 2)))
    with pytest.raises(OrderingError):
        cbp_driving_path([1.0, 0.0], np.zeros(2), np.ones(2), B)


@pytest.mark.parametrize("sizes", [(3, 2, 2), (2, 3, 2), (2, 2, 3), (3, 3, 3)])
def test_cbp_driver_sizes_must_match(sizes):
    B = SampledPath([0.0, 1.0], np.zeros((2, 2)))
    y0, g, sigma = (np.arange(float(k)) for k in sizes)
    with pytest.raises(DimensionError, match="share the dimension"):
        cbp_driving_path(y0, g, sigma + 1.0, B)


# --------------------------------------------------------------- difference

def test_difference_linear():
    t = np.linspace(0, 1, 5)
    X = SampledPath(t, np.column_stack([np.zeros_like(t), t]))
    W = difference_path(X)
    assert np.allclose(W.values[:, 0], t)


def test_difference_requires_dim_two():
    with pytest.raises(DimensionError):
        difference_path(SampledPath([0.0, 1.0], [[0.0], [1.0]]))


def test_difference_pointwise():
    X = brownian_sample(seed=8, d=3)
    W = difference_path(X)
    assert np.array_equal(W.values, X.values[:, 1:] - X.values[:, :-1])


# ----------------------------------------------------- increment domination

def test_domination_reflexive():
    X = brownian_sample(seed=4)
    assert increments_dominated(X, X).ok


def test_domination_detects_dented_step():
    X = brownian_sample(seed=4)
    bad = X.values.copy()
    bad[3:] -= 0.5  # step 2->3 of component * shrinks
    res = increments_dominated(SampledPath(X.times, bad), X)
    res2 = increments_dominated(X, SampledPath(X.times, bad))
    assert res.ok and not res2.ok
    s, t, comp = res2.first_violation
    assert (s, t) == (X.times[2], X.times[3])


def test_domination_remark_pair():
    # descending first component with and without headroom, rest constant
    t = np.linspace(0, 1, 11)
    d = 3
    X = np.ones((11, d))
    X[:, 0] = -t
    Xbar = np.ones((11, d))
    Xbar[:, 0] = 1 - t
    assert increments_dominated(SampledPath(t, X), SampledPath(t, Xbar)).ok


def test_domination_grid_mismatch():
    X = brownian_sample(seed=4)
    Y = SampledPath(X.times * 2.0, X.values)
    with pytest.raises(AlignmentError):
        increments_dominated(X, Y)
    with pytest.raises(AlignmentError, match="dimension"):
        increments_dominated(X, SampledPath(X.times, X.values[:, :1]))


def test_domination_reports_a_start_violation():
    X = brownian_sample(seed=4)
    higher = SampledPath(X.times, X.values + [0.0, 0.5])
    assert increments_dominated(higher, X).first_violation == (0.0, 0.0, 2)
    assert not increments_dominated(higher, X).ok


def test_adjacent_equals_all_pairs_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(40):
        grid, d = 6, 2
        times = np.linspace(0, 1, grid + 1)
        a = np.cumsum(rng.normal(0, 1, (grid + 1, d)), axis=0)
        b = np.cumsum(rng.normal(0, 1, (grid + 1, d)), axis=0)
        a[0] = np.minimum(a[0], b[0])
        X, Xbar = SampledPath(times, a), SampledPath(times, b)
        fast = increments_dominated(X, Xbar).ok
        brute = np.all(a[0] <= b[0])
        for i in range(grid + 1):
            for j in range(i, grid + 1):
                brute &= np.all(a[j] - a[i] <= b[j] - b[i] + 1e-12)
        assert fast == bool(brute)


# ------------------------------------------------------------ serialization

def test_csv_roundtrip():
    X = brownian_sample(seed=12, d=2, grid=16)
    buf = io.StringIO()
    X.to_csv(buf)
    buf.seek(0)
    back = SampledPath.from_csv(buf)
    assert np.array_equal(back.times, X.times)
    assert np.array_equal(back.values, X.values)
    assert buf.getvalue().splitlines()[0] == "t,x1,x2"


def test_csv_reader_skips_a_blank_row():
    text = "t,x1,x2\n0,0.5,1\n\n0.5,1,1\n1,0.5,2\n"
    back = SampledPath.from_csv(io.StringIO(text))
    want = SampledPath.from_csv(io.StringIO(text.replace("\n\n", "\n")))
    assert back == want and len(back.times) == 3


def test_json_roundtrip_regular():
    # what ``approximate`` writes, read back by keyword as the CLI reads it
    p = RegularPath([0.0, 1.0], [0.0, 0.5, 1.0], (2, 1), [1.0, -1.0])
    back = RegularPath(**json.loads(json.dumps(p.to_jsonable())))
    assert back == p


@pytest.mark.parametrize("axes", [(1.9,), ("1",), (np.float64(1.0),), 1, (True,)])
def test_regular_path_axes_must_be_integers(axes):
    with pytest.raises(ParameterError, match="'axes'"):
        RegularPath([0.0, 1.0], [0.0, 1.0], axes, [1.0])


@pytest.mark.parametrize("axes", [(0,), (3,), (-(2**63),), (2**63,), (2**70,)])
def test_regular_path_axes_must_lie_in_range(axes):
    with pytest.raises(ParameterError, match=r"1\.\.2"):
        RegularPath([0.0, 1.0], [0.0, 1.0], axes, [1.0])


@pytest.mark.parametrize("start, breakpoints, axes, slopes, error, message", [
    ([], [0.0, 1.0], (1,), [1.0], DimensionError, "start vector must be nonempty"),
    ([0.0], [0.0], (), [], DimensionError, "at least one segment"),
    ([0.0], [0.5, 1.0], (1,), [1.0], ParameterError, "must start at 0"),
    ([0.0], [0.0, 1.0, 1.0], (1, 1), [1.0, 1.0], ParameterError, "strictly increasing"),
    ([0.0], [0.0, 1.0, 2.0], (1,), [1.0, 1.0], DimensionError, "one axis and slope"),
    ([0.0], [0.0, 1.0, 2.0], (1, 1), [1.0], DimensionError, "one axis and slope"),
    ([0.0], [0.0, 1.0], (1,), [np.inf], InvalidEntryError, "NaN or infinite"),
], ids=["empty_start", "one_breakpoint", "late_start", "non_increasing",
        "axis_count", "slope_count", "non_finite"])
def test_regular_path_rejects_a_malformed_input(start, breakpoints, axes, slopes,
                                                error, message):
    with pytest.raises(error, match=message):
        RegularPath(start, breakpoints, axes, slopes)


def test_regular_path_cols_are_the_axes_zero_based():
    p = RegularPath([0.0, 1.0, 2.0], [0.0, 0.5, 1.0, 1.5], (np.int64(3), 1, 2),
                    [1.0, -1.0, 0.5])
    assert p.axes == (3, 1, 2) and all(type(a) is int for a in p.axes)
    assert p.cols.dtype == np.intp and p.cols.tolist() == [2, 0, 1]
    assert not p.cols.flags.writeable
    assert "cols" not in repr(p)
    same = RegularPath(p.start, p.breakpoints, p.axes, p.slopes)
    assert same == p and hash(same) == hash(p)


def running_sum_vertices(X):
    """Breakpoint values built one segment at a time."""
    rows = [X.start.copy()]
    for axis, slope, dur in zip(X.axes, X.slopes, np.diff(X.breakpoints)):
        row = rows[-1].copy()
        row[axis - 1] += slope * dur
        rows.append(row)
    return np.array(rows)


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(np.signbit(a), np.signbit(b))
    assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d, m", [(1, 50), (2, 1000), (5, 3000), (10, 10_000)])
def test_vertices_match_a_running_sum(d, m):
    rng = np.random.default_rng(d * 1000 + m)
    X = RegularPath(rng.uniform(0.0, 2.0, d),
                    np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, m))]),
                    tuple(rng.integers(1, d + 1, m)), rng.normal(0.0, 3.0, m))
    assert_same_bits(X.vertices, running_sum_vertices(X))


@pytest.mark.parametrize("start, slopes", [
    ([-0.0, 1.0, 0.0], [1.0, -2.0, 0.5]),    # -0.0 start on a moved axis
    ([1.0, -0.0, 0.0], [1.0, -0.0, 0.5]),    # -0.0 start never moved
    ([0.0, 1.0, -0.0], [-0.0, -0.0, -0.0]),  # -0.0 slopes
    ([-0.0, -0.0, -0.0], [0.0, -0.0, 0.0]),
])
def test_vertices_keep_signed_zeros(start, slopes):
    X = RegularPath(start, [0.0, 1.0, 2.5, 3.0], (1, 2, 1), slopes)
    assert_same_bits(X.vertices, running_sum_vertices(X))


def assert_copied(obj, attr, arr):
    """The caller's array stays writeable and writing to it leaves obj alone."""
    frozen = getattr(obj, attr)
    before = frozen.copy()
    assert arr.flags.writeable
    assert not frozen.flags.writeable
    arr += 1.0
    assert np.array_equal(getattr(obj, attr), before)


def test_sampled_path_copies_what_it_freezes():
    t, v = np.array([0.0, 0.5, 1.0]), np.array([[0.0], [1.0], [0.5]])
    X = SampledPath(t, v)
    assert_copied(X, "times", t)
    assert_copied(X, "values", v)


def test_regular_path_copies_what_it_freezes():
    s, bp, sl = np.array([0.0, 1.0]), np.array([0.0, 0.5, 1.0]), np.array([1.0, -1.0])
    X = RegularPath(s, bp, (2, 1), sl)
    assert_copied(X, "start", s)
    assert_copied(X, "breakpoints", bp)
    assert_copied(X, "slopes", sl)


def test_brownian_spec_copies_what_it_freezes():
    mu, A = np.array([0.0, 1.0]), np.eye(2)
    spec = BrownianSpec(2, mu, A, 1.0, 10, 3)
    assert_copied(spec, "drift", mu)
    assert_copied(spec, "covariance", A)


VALUE_OBJECTS = {
    "SampledPath": lambda v: SampledPath([0.0, 1.0], [[0.5], [v]]),
    "RegularPath": lambda v: RegularPath([0.5], [0.0, 1.0], (1,), [v]),
    "BrownianSpec": lambda v: BrownianSpec(1, [v], [[1.0]], 1.0, 10, 3),
    "ReflectionMatrix": lambda v: ReflectionMatrix([[1.0, v], [v, 1.0]]),
}


@pytest.mark.parametrize("make", VALUE_OBJECTS.values(), ids=list(VALUE_OBJECTS))
def test_value_objects_compare_and_hash_by_value(make):
    a, b, other = make(-0.25), make(-0.25), make(-0.5)
    assert a == b and hash(a) == hash(b)
    assert a != other and not a == other
    assert len({a, b, other}) == 2 and {a: 1}[b] == 1
    assert a != "a value of another type"
    assert make(0.0) != make(-0.0)  # bytes differ, as in the solvers' output


@pytest.mark.parametrize("horizon", [float("inf"), float("nan"), 0.0])
def test_brownian_spec_horizon_must_be_finite_and_positive(horizon):
    with pytest.raises(ParameterError, match="horizon"):
        BrownianSpec(1, [0.0], [[1.0]], horizon, 10, 3)


SAMPLED_1D = SampledPath([0.0, 0.5, 1.0], [[0.0], [1.0], [0.5]])
BAD_COUNTS = [  # (call with the field set to the value, field, its least value)
    (lambda v: BrownianSpec(1, [0.0], [[1.0]], 1.0, 10, v), "seed", 0),
    (lambda v: BrownianSpec(1, [0.0], [[1.0]], 1.0, v, 3), "steps", 1),
    (lambda v: brownian_components(2, 1.0, 10, v), "seed", 0),
    (lambda v: brownian_components(2, 1.0, v, 3), "steps", 1),
    (lambda v: brownian_components(2, 1.0, 10, 3, v), "stream_offset", 0),
    (lambda v: standard_regular_approximation(SAMPLED_1D, v), "level", 1),
]


@pytest.mark.parametrize("value", [1.5, True, -1, "2", np.float64(2.0)])
@pytest.mark.parametrize("call, name, least", BAD_COUNTS,
                         ids=["spec-seed", "spec-steps", "components-seed",
                              "components-steps", "components-stream_offset",
                              "approximation-level"])
def test_a_seed_step_count_or_level_is_an_integer_not_truncated(call, name, least,
                                                                 value):
    # seed=1.5 ran as seed 1, a level of True as level 1; 2.5 steps raised a
    # bare TypeError and seed -1 numpy's bare ValueError
    with pytest.raises(ParameterError, match=f"'{name}' must be an integer >= {least}"):
        call(value)


@pytest.mark.parametrize("call, name, least", BAD_COUNTS)
def test_a_numpy_integer_count_gives_the_bits_of_the_int(call, name, least):
    a, b = call(np.int64(2)), call(2)
    assert type(a) is type(b) and a == b


@pytest.mark.parametrize("width", [1, 3, 20])
def test_a_count_is_bounded_by_its_table_cell_count(width):
    # a pure check: nothing is sized
    largest = CELLS_MAX // width - 1
    _check_count("steps", largest, width)
    with pytest.raises(ParameterError, match=f"'steps' = {largest + 1} needs a table"):
        _check_count("steps", largest + 1, width)
    with pytest.raises(ParameterError, match="needs a table"):  # no int64 wrap-around
        _check_count("steps", np.int64(COUNT_MAX), np.int64(width))


def test_overflowing_increments_raise_an_invalid_entry_error():
    X = SampledPath([0.0, 1.0, 2.0], [[1e308, -1e308], [-1e308, 1e308], [1e308, 0.0]])
    with pytest.raises(InvalidEntryError, match="increments overflow"):
        standard_regular_approximation(X, 2)
    with pytest.raises(InvalidEntryError, match="overflow"):
        difference_path(X)
    small = SampledPath(X.times, X.values * 1e-10)
    assert standard_regular_approximation(small, 2).dim == difference_path(small).dim + 1
