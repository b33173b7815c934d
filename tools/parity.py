"""Bit-for-bit parity digests of the solvers' outputs.

    python3 tools/parity.py --out digests.json        # record the digests
    python3 tools/parity.py --against digests.json    # exit 1 if any record differs

Run from any directory; the library is imported from ``src/`` next to this
directory, so two checkouts can be compared by recording with one and
checking with the other.  Every input is fixed, so a record's digest changes
only when the code's output does.

Each record solves one input and hashes, with SHA-256, the bytes of every
path's times and values (Z, L and, for particles, Y), the events as JSON, the
diagnostics with every float written as ``float.hex``, and, for a solution,
the text its ``to_csv`` writes.  The records are:

- SRBM, exact: d = 1..20 at rho(Q) = 0, 0.5 and 0.95, each from start 0.7
  with drift 0 and from start 0 with drift -0.5, one matrix per (d, rho) so
  that its second solve runs warm;
- CBP: N = 2..20, exact and grid routes through the gap problem;
- CBP at a level other than the step count (``cbp_level<L>_n<N>``): the
  exact gap route of the N = 3, 6 and 10 specs at 150 steps, at levels 100
  and 225, so that some sample times are no anchors of the approximation;
- particles on a regular driver: N = 2..20 (the block-phase kernel);
- particles on the regular drivers that ``verify`` solves
  (``particles_verify_n<N>``): N = 2..6, ``random_cbp_spec`` drivers at level
  200, so that the pushes are dense;
- ``gap_srbm``: N = 2..20;
- all nine comparison suites, two instances each, at their default options;
- all nine suites again, two instances each, with every option the suite
  takes set to a value other than its default (``SUITE_OPTIONS``, records
  ``suite_<name>_options``): the five corollary suites and ``gap_srbm`` at
  ``n_max`` 4, ``steps`` 120, ``level`` 30 and ``tol`` 1e-7;
  ``skorokhod_comparison`` at ``d_max`` 3, ``grid`` 12, ``level`` 4 and
  ``tol`` 1e-7, and ``particle_comparison`` at ``n_max`` 4 and ``tol`` 1e-7,
  both with ``break_hypothesis``; ``counterexample`` at ``r21`` 0.3;
- since a broken instance reports only its failed precondition, those two
  suites once more with the same options but ``break_hypothesis`` left
  false (``suite_<name>_options_unbroken``);
- the report of ``check_removal_corollaries`` (``removal_n<N>_<lo>_<hi>``) for
  every rank range lo..hi of a ``random_cbp_spec`` with N = 3..6, at level
  200, which reads every column slice of the coupled margins;
- the Perron root ``spectral_radius_nonneg(Q)`` as ``float.hex`` of the Q of
  every SRBM record's matrix (``perron_srbm_d<d>_rho<rho>``; rho = 0 is a Q
  with no cycle) and of the gap matrix of every CBP record
  (``perron_gap_n<N>``).
- the text ``write_path_csv`` writes for three tables of the ``%.17g``
  kernel: 200 000 random float64 bit patterns (``csv_kernel_bits``), random
  significands at every decimal exponent from -12 to 17, both signs
  (``csv_kernel_decades``), and rounding ties, the powers of ten -30..30
  with their neighbours, and the special values (``csv_kernel_specials``).
- the report of ``validate_reflection_m_matrix`` (``validate_<name>``):
  accepted, reason and ``spectral_radius`` as ``float.hex``, or the type and
  message of the library error it raises, over a fixed bank of matrices
  (``validation_bank``): the identity at d = 1 and 3, a nilpotent triangular
  Q, two decoupled classes, a block-triangular reducible Q, nearly reducible
  2 x 2 couplings of 1e-6, 1e-8 and 1e-12, two two-cycles of roots 0.999 and
  0.99899 joined at 1e-9, dense Q at rho = 1 - 2e-8, 1 - 5e-9 and 1.01, a
  positive off-diagonal entry, a bad diagonal, the N = 20 gap matrix, a
  permuted reducible Q = [[A, C], [0, A]] whose two classes share the root
  rho(A) = 1 - 2e-8 (``shared_root``), and the three-cycles
  Q = [[0, b, 0], [0, 0, b], [s, 0, 0]] of rho = (b^2 s)^(1/3) at (b, s) =
  (1e8, 1e-15), (1e16, 1e-33) and (1e300, 1e-300) (``three_cycle_<b>_<s>``).

``--against`` lists every record whose digest differs, is missing or is new,
each by name, then the count, and exits 1 if there is any.
"""

import argparse
import hashlib
import io
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from orthantsim import comparison  # noqa: E402
from orthantsim.errors import OrthantSimError  # noqa: E402
from orthantsim.mmatrix import (  # noqa: E402
    ReflectionMatrix,
    spectral_radius_nonneg,
    validate_reflection_m_matrix,
)
from orthantsim.particles import (  # noqa: E402
    CbpSpec,
    CollisionParams,
    driving_path_for,
    gap_srbm,
    reflection_matrix_from_params,
    simulate_cbp,
    solve_competing,
)
from orthantsim.paths import (  # noqa: E402
    standard_regular_approximation,
    write_path_csv,
)
from orthantsim.skorokhod import simulate_srbm  # noqa: E402

STEPS = 1000
SEED = 17
RHOS = (0.0, 0.5, 0.95)
SRBM_CASES = ((0.7, 0.0), (0.0, -0.5))  # (start, drift)
MAX_SIZE = 20
VERIFY_SIZES = range(2, 7)  # the particle counts of the corollary suites
VERIFY_LEVEL = 200  # their level
LEVEL_SIZES = (3, 6, 10)  # particle counts solved at a level other than the steps
LEVEL_STEPS = 150
LEVELS = (100, 225)
SUITE_INSTANCES = 2
SMALL = {"n_max": 4, "steps": 120, "level": 30, "tol": 1e-7}  # of a corollary suite
SKOROKHOD = {"d_max": 3, "grid": 12, "level": 4, "tol": 1e-7}
PARTICLE = {"n_max": 4, "tol": 1e-7}
SUITE_OPTIONS = {  # record -> (suite, options)
    "removal_right_options": ("removal_right", SMALL),
    "removal_two_sided_options": ("removal_two_sided", SMALL),
    "initial_shift_options": ("initial_shift", SMALL),
    "increase_qplus_options": ("increase_qplus", SMALL),
    "drift_options": ("drift", SMALL),
    "gap_srbm_options": ("gap_srbm", SMALL),
    "skorokhod_comparison_options": ("skorokhod_comparison",
                                     dict(SKOROKHOD, break_hypothesis=True)),
    "skorokhod_comparison_options_unbroken": ("skorokhod_comparison", SKOROKHOD),
    "particle_comparison_options": ("particle_comparison",
                                    dict(PARTICLE, break_hypothesis=True)),
    "particle_comparison_options_unbroken": ("particle_comparison", PARTICLE),
    "counterexample_options": ("counterexample", {"r21": 0.3}),
}


def _plain(obj):
    """JSON-ready copy of obj with every float as ``float.hex``."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj).hex()
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def solution_digest(sol) -> str:
    h = hashlib.sha256()
    for name in ("Y", "Z", "L"):
        path = getattr(sol, name, None)
        if path is not None:
            h.update(name.encode())
            h.update(np.ascontiguousarray(path.times).tobytes())
            h.update(np.ascontiguousarray(path.values).tobytes())
    h.update(json.dumps(_plain(sol.events_to_jsonable()), sort_keys=True).encode())
    h.update(json.dumps(_plain(sol.diagnostics), sort_keys=True).encode())
    csv = io.StringIO()
    sol.to_csv(csv)
    h.update(csv.getvalue().encode())
    return h.hexdigest()


def json_digest(obj) -> str:
    return hashlib.sha256(json.dumps(_plain(obj), sort_keys=True).encode()).hexdigest()


def perron_digest(R: ReflectionMatrix) -> str:
    return json_digest(spectral_radius_nonneg(R.q_matrix()))  # as float.hex


def csv_digest(table: np.ndarray) -> str:
    out = io.StringIO()
    write_path_csv(out, table[:, 0], table[:, 1:],
                   [f"x{k}" for k in range(1, table.shape[1])])
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def _tie(k: int, r: int) -> float:
    """An odd multiple of 2^-(k+1) with decimal exponent 16 - k, k = 1..24:
    x 10^k ends in an exact .5, a tie of the 17-digit rounding."""
    a = 2 ** (k + 1) * 10 ** 16
    first = -(-a // 10 ** k) | 1
    end = min(-(-10 * a // 10 ** k), 2 ** 53)
    return math.ldexp(first + 2 * (r % ((end - first + 1) // 2)), -(k + 1))


def csv_kernel_tables():
    """(name, table) of the three kernel records."""
    rng = _rng(5)
    yield "csv_kernel_bits", rng.integers(-2 ** 63, 2 ** 63 - 1, (10_000, 20)).view(np.float64)
    decades = rng.uniform(1.0, 10.0, (30, 2_000)) * 10.0 ** np.arange(-12, 18)[:, None]
    yield "csv_kernel_decades", (decades * rng.choice([-1.0, 1.0], decades.shape)).reshape(-1, 15)
    cells = [_tie(k, r) for k in range(1, 25) for r in range(0, 2 ** 40, 2 ** 31)]
    for j in range(-30, 31):
        p = float(f"1e{j}")
        cells += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    cells += [0.0, math.inf, math.nan, 5e-324, 2.2250738585072009e-308,
              2.2250738585072014e-308, 1.7976931348623157e308]
    cells += [-v for v in cells]
    yield "csv_kernel_specials", np.resize(np.array(cells), (len(cells) // 7 + 1, 7))


def validate_digest(M) -> str:
    try:
        report = validate_reflection_m_matrix(M)
    except OrthantSimError as exc:  # the raise is the outcome to pin
        return json_digest([type(exc).__name__, str(exc)])
    return json_digest([report.accepted, report.reason, report.spectral_radius])


def validation_bank():
    """(name, matrix) of the validation records."""
    yield "identity_d1", np.eye(1)
    yield "identity_d3", np.eye(3)
    yield "nilpotent", np.eye(3) - np.tril(np.full((3, 3), 0.7), -1)
    yield "decoupled", np.eye(4) - np.kron(np.diag([0.6, 0.3]), [[0, 1], [1, 0]])
    yield "block_triangular", np.eye(4) - np.array(
        [[0, 0.5, 0.2, 0.1], [0.4, 0, 0.3, 0], [0, 0, 0, 0.9], [0, 0, 0.2, 0]])
    for c in (1e-6, 1e-8, 1e-12):
        yield f"nearly_reducible_{c:g}", [[1.0, -0.5], [-c, 1.0]]
    a, b, e = 0.999, 0.99899, 1e-9
    yield "two_cycles_rho0.999", np.eye(4) - np.array(
        [[0, a, e, 0], [a, 0, 0, 0], [0, 0, 0, b], [e, 0, b, 0]])
    for rho in (1 - 2e-8, 1 - 5e-9, 1.01):
        yield f"dense_rho{rho!r}", _srbm_matrix(_rng(6), 5, rho)
    yield "positive_entry", [[1.0, 0.1], [-0.5, 1.0]]
    yield "bad_diagonal", [[1.5, 0.0], [0.0, 1.0]]
    yield "gap_n20", reflection_matrix_from_params(_cbp_spec(20).q).entries
    yield "shared_root", np.eye(8) - shared_root_q(_rng(7))
    for b, s in ((1e8, 1e-15), (1e16, 1e-33), (1e300, 1e-300)):
        yield f"three_cycle_{b:g}_{s:g}", np.eye(3) - np.array(
            [[0, b, 0], [0, 0, b], [s, 0, 0]])


def shared_root_q(rng, rho: float = 1 - 2e-8) -> np.ndarray:
    """[[A, C], [0, A]] permuted, A 4 x 4 with every row sum rho, so rho(A) = rho
    and the whole matrix has rho as a double eigenvalue."""
    P = rng.uniform(0.05, 1.0, (4, 4))
    np.fill_diagonal(P, 0.0)
    A = P * (rho / P.sum(axis=1))[:, None]
    Q = np.block([[A, rng.uniform(0.05, 1.0, (4, 4))], [np.zeros((4, 4)), A]])
    p = rng.permutation(8)
    return Q[np.ix_(p, p)]


def suite_digest(res) -> str:
    out = res.to_jsonable()
    for inst, r in zip(out["instances"], res.results):
        if r.report is not None:
            inst["details"] = r.report.details
    return json_digest(out)


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SEED, *key]))


def _srbm_matrix(rng, d: int, rho: float) -> np.ndarray:
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    radius = np.abs(np.linalg.eigvals(Q)).max()
    return np.eye(d) - (Q * (rho / radius) if radius > 0 else 0.0 * Q)


def _cbp_spec(n: int) -> CbpSpec:
    rng = _rng(2, n)
    qminus = rng.uniform(0.4, 0.6, n)
    q = CollisionParams((0.5, *(1.0 - qminus[:-1])), tuple(qminus))
    return CbpSpec(tuple(rng.uniform(-0.1, 0.1, n)), tuple(rng.uniform(0.9, 1.1, n)),
                   q, tuple(np.arange(n) * 0.3), 1.0, STEPS, SEED + n)


def records():
    """(name, digest) of every record, in a fixed order."""
    for d in range(1, MAX_SIZE + 1):
        for rho in RHOS:
            rng = _rng(1, d, int(rho * 100))
            R = ReflectionMatrix(_srbm_matrix(rng, d, rho))
            yield f"perron_srbm_d{d}_rho{rho}", perron_digest(R)
            A = np.eye(d) + 0.1 * np.ones((d, d))
            for start, drift in SRBM_CASES:
                sol = simulate_srbm(R, np.full(d, drift), A, np.full(d, start), 1.0,
                                    STEPS, SEED + d)
                yield f"srbm_d{d}_rho{rho}_start{start}_drift{drift}", solution_digest(sol)
    for n in range(2, MAX_SIZE + 1):
        spec = _cbp_spec(n)
        yield f"perron_gap_n{n}", perron_digest(reflection_matrix_from_params(spec.q))
        for method in ("exact", "grid"):
            yield f"cbp_n{n}_{method}", solution_digest(simulate_cbp(spec, method))
        Xr = standard_regular_approximation(driving_path_for(spec), STEPS // 4)
        yield f"particles_regular_n{n}", solution_digest(solve_competing(spec.q, Xr))
        yield f"gap_srbm_n{n}", solution_digest(gap_srbm(spec))
    for n in LEVEL_SIZES:
        spec = replace(_cbp_spec(n), steps=LEVEL_STEPS)
        for level in LEVELS:
            yield f"cbp_level{level}_n{n}", solution_digest(simulate_cbp(spec, level=level))
    for n in VERIFY_SIZES:
        spec = comparison.random_cbp_spec(_rng(3, n), n)
        Xr = standard_regular_approximation(driving_path_for(spec), VERIFY_LEVEL)
        yield f"particles_verify_n{n}", solution_digest(solve_competing(spec.q, Xr))
    for n in VERIFY_SIZES[1:]:
        spec = comparison.random_cbp_spec(_rng(4, n), n)
        for lo in range(1, n):
            for hi in range(lo + 1, n + 1):
                report = comparison.check_removal_corollaries(spec, lo, hi,
                                                              level=VERIFY_LEVEL)
                yield f"removal_n{n}_{lo}_{hi}", json_digest(
                    dict(report.to_jsonable(), details=report.details))
    for name in comparison.SUITES:
        res = comparison.run_suite(name, SUITE_INSTANCES, SEED)
        yield f"suite_{name}", suite_digest(res)
    for record, (name, options) in SUITE_OPTIONS.items():
        res = comparison.run_suite(name, SUITE_INSTANCES, SEED, **options)
        yield f"suite_{record}", suite_digest(res)
    for name, table in csv_kernel_tables():
        yield name, csv_digest(table)
    for name, M in validation_bank():
        yield f"validate_{name}", validate_digest(M)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="write the digests to this JSON file")
    group.add_argument("--against", help="compare with the digests in this JSON file")
    args = parser.parse_args(argv)
    if args.out:
        digests = dict(records())
        Path(args.out).write_text(json.dumps(digests, indent=1) + "\n")
        print(f"{len(digests)} records written to {args.out}")
        return 0
    want = json.loads(Path(args.against).read_text())
    seen, differ = set(), 0
    for name, digest in records():
        seen.add(name)
        if want.get(name) != digest:
            differ += 1
            print(f"DIFFERS: {name}: {digest} against {want.get(name, 'no record')}")
    for name in sorted(want.keys() - seen):
        differ += 1
        print(f"DIFFERS: {name}: not computed, recorded as {want[name]}")
    if differ:
        print(f"{differ} of {len(seen | want.keys())} records differ")
        return 1
    print(f"{len(seen)} records match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
