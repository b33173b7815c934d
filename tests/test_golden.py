"""Golden hashes of the command-line outputs.

Each case runs one ``orthantsim`` command on a fixed config and seed in an
empty directory and hashes its exit code, its stdout and every file it
writes.  The expected digests pin the output bytes of all six commands,
both solver methods, all nine ``verify`` suites and an SRBM run that pushes
on about one piece in ten, so a refactor that must not change behaviour can
be checked byte for byte.  They were recorded with Python 3.11 and numpy 2.4
on x86-64; another BLAS or numpy build may change last bits of the sampled
noise and so the digests.

``python tests/test_golden.py`` prints the digests of the current code.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from pathlib import Path

import pytest

from orthantsim.cli import main

MATRIX_2D = [[1.0, -0.4], [-0.3, 1.0]]
MATRIX_3D = [[1.0, -0.3, -0.2], [-0.25, 1.0, -0.3], [-0.1, -0.35, 1.0]]
QPARAMS_3 = {"qplus": [0.5, 0.6, 0.3], "qminus": [0.4, 0.7, 0.5]}
REGULAR_2D = {"kind": "regular", "start": [0.3, 0.1],
              "breakpoints": [0.0, 0.5, 1.0, 1.6, 2.0, 2.5],
              "axes": [1, 2, 1, 2, 1], "slopes": [-1.0, -0.8, 0.4, -1.2, -0.9]}
REGULAR_3P = {"kind": "regular", "start": [0.0, 0.2, 0.5],
              "breakpoints": [0.0, 0.4, 0.9, 1.5, 2.0],
              "axes": [1, 3, 2, 1], "slopes": [1.5, -1.0, 0.7, -0.6]}
# a downward block that lands on 0 ends at y2 = -0.0, which the CSV keeps
REGULAR_2P_DOWN = {"kind": "regular", "start": [-1.0, 0.5], "breakpoints": [0.0, 1.0],
                   "axes": [2], "slopes": [-0.5]}
# sampled paths read through the CSV source
CSV_2D = ("t,x1,x2\n0,0.2,0.4\n0.25,0.05,0.3\n0.5,-0.1,0.1\n0.75,0.1,-0.2\n"
          "1,-0.2,0.05\n1.25,-0.3,0.2\n1.5,0.1,-0.1\n")
CSV_3P = ("t,x1,x2,x3\n0,0,0.1,0.3\n0.25,0.2,0.05,0.25\n0.5,0.35,0.1,0.1\n"
          "0.75,0.1,0.3,0.05\n1,0.4,0.2,0.45\n")
SRBM = {"matrix": MATRIX_3D, "mu": [-0.2, 0.1, -0.3],
        "covariance": [[1.0, 0.2, 0.0], [0.2, 0.8, -0.1], [0.0, -0.1, 1.2]],
        "z0": [0.2, 0.0, 0.4], "horizon": 1.0, "steps": 200, "seed": 11}
# rows sum to 0.9, so rho(Q) = 0.9; from 0 with drift -0.5 about one piece in
# ten pushes
MATRIX_6D_PUSH = [[1.0 if j == i else -[0.3, 0.25, 0.15, 0.12, 0.08][(j - i - 1) % 6]
                   for j in range(6)] for i in range(6)]
SRBM_PUSH = {"matrix": MATRIX_6D_PUSH, "mu": [-0.5] * 6,
             "covariance": [[float(i == j) for j in range(6)] for i in range(6)],
             "z0": [0.0] * 6, "horizon": 1.0, "steps": 300, "seed": 7}
CBP = {"g": [0.2, -0.1, 0.0, -0.3], "sigma2": [1.0, 0.7, 1.3, 0.9],
       "q": {"qplus": [0.5, 0.6, 0.45, 0.7], "qminus": [0.4, 0.55, 0.3, 0.5]},
       "y0": [0.0, 0.1, 0.1, 0.4], "horizon": 1.0, "steps": 150, "seed": 4}
# three particles tied at the start: the gap driver starts at the corner
CBP_TIED = {"g": [0.3, -0.2, 0.1, -0.1], "sigma2": [0.8, 1.2, 1.0, 0.9],
            "q": {"qplus": [0.5, 0.35, 0.6, 0.45], "qminus": [0.65, 0.4, 0.55, 0.5]},
            "y0": [0.0, 0.0, 0.0, 0.2], "horizon": 1.0, "steps": 250, "seed": 12}
SMALL = {"instances": 2, "steps": 120, "level": 30, "n_max": 4}
SUITES = [
    {"name": "skorokhod_comparison", "instances": 2, "d_max": 3, "grid": 12},
    {"name": "particle_comparison", "instances": 2, "n_max": 4},
    {"name": "removal_right", **SMALL},
    {"name": "removal_two_sided", **SMALL},
    {"name": "initial_shift", **SMALL},
    {"name": "increase_qplus", **SMALL},
    {"name": "drift", **SMALL},
    {"name": "gap_srbm", **SMALL},
    {"name": "counterexample", "instances": 2},
]

# name -> (command, config, extra arguments)
CASES = {
    "validate": ("validate", {"matrix": MATRIX_2D,
                              "collision_params": {"symmetric": 3}}, []),
    "solve_regular_exact": ("solve", {"matrix": MATRIX_2D, "path": REGULAR_2D,
                                      "compare_methods": True,
                                      "grid_points": 300},
                            ["--method", "exact"]),
    "solve_regular_grid": ("solve", {"matrix": MATRIX_2D, "path": REGULAR_2D,
                                     "grid_points": 300},
                           ["--method", "grid", "--tol", "1e-10"]),
    "solve_csv_exact": ("solve", {"matrix": MATRIX_2D,
                                  "path": {"kind": "csv", "file": "path2.csv"}},
                        ["--method", "exact", "--level", "4"]),
    "solve_csv_grid": ("solve", {"matrix": MATRIX_2D, "compare_methods": True,
                                 "path": {"kind": "csv", "file": "path2.csv"}},
                       ["--method", "grid"]),
    "solve_brownian_exact": ("solve", {"matrix": MATRIX_3D, "level": 40,
                                       "path": {"kind": "brownian", "dim": 3,
                                                "drift": [0.5, 0.5, 0.5],
                                                "covariance": SRBM["covariance"],
                                                "horizon": 1.0, "steps": 80,
                                                "seed": 2}},
                             []),
    "solve_particles_regular": ("solve", {"collision_params": QPARAMS_3,
                                          "path": REGULAR_3P},
                                ["--method", "exact"]),
    "solve_particles_regular_down": ("solve", {"collision_params": {"symmetric": 2},
                                               "path": REGULAR_2P_DOWN}, []),
    "solve_particles_csv_exact": ("solve", {"collision_params": QPARAMS_3,
                                            "path": {"kind": "csv",
                                                     "file": "path3.csv"}},
                                  ["--level", "3"]),
    "solve_particles_csv_grid": ("solve", {"collision_params": QPARAMS_3,
                                           "path": {"kind": "csv",
                                                    "file": "path3.csv"}},
                                 ["--method", "grid"]),
    "simulate_srbm_exact": ("simulate-srbm", SRBM, ["--seed", "5"]),
    "simulate_srbm_grid": ("simulate-srbm", SRBM, ["--method", "grid"]),
    "simulate_srbm_exact_push_dense": ("simulate-srbm", SRBM_PUSH,
                                       ["--method", "exact"]),
    "simulate_cbp_exact_gap_check": ("simulate-cbp",
                                     {"cbp": CBP, "gap_check": True}, []),
    "simulate_cbp_exact_tied": ("simulate-cbp",
                                {"cbp": CBP_TIED, "gap_check": True}, []),
    "simulate_cbp_grid": ("simulate-cbp", CBP,
                          ["--method", "grid", "--seed", "9"]),
    "simulate_cbp_flat_exact_gap_check": ("simulate-cbp", {**CBP, "gap_check": True},
                                          ["--method", "exact"]),
    "approximate": ("approximate", {"path": {"kind": "csv", "file": "path2.csv"}},
                    ["--level", "3", "--out", "approx.json"]),
    "verify": ("verify", {"suites": SUITES, "seed": 3}, ["--out", "report"]),
}

EXPECTED = {
    'approximate': '0c6d1c19db7bbc959f8b34fc0eeae30757c32592841e16ff644eaf2dd789a8c6',
    'simulate_cbp_exact_gap_check': '5164344aa144550375dce157515795bb36be5e23b0f610021efc7a8608ef461b',
    'simulate_cbp_exact_tied': 'b7e81387dd66f14af53e924dc6f58da9b65ecb99a6bc30e0de82f8f13507b855',
    'simulate_cbp_flat_exact_gap_check': '5164344aa144550375dce157515795bb36be5e23b0f610021efc7a8608ef461b',
    'simulate_cbp_grid': 'e7789c67eef5c3fed4ca4e08bd35300311d93b4ca6e3d13765f523f518dc9bb2',
    'simulate_srbm_exact': '6d9149ea70f336181273c93d8f324f84aeb9fbdefd04e8054ff946af841462bd',
    'simulate_srbm_exact_push_dense': '777c5a4c64d3a2f3145fb2bc7a78d8ac0ccf4b06f3b673a0223500824cf452a1',
    'simulate_srbm_grid': 'cbab18666cb3149e5fd0256c383ed4747951171b696ca6d513afb0ea39fb9df2',
    'solve_brownian_exact': '8b88089d734e68d01276db0fa8ec8c2dd2ecd45d8a817dcd849f7fa948d47f81',
    'solve_csv_exact': 'cf8f42c70a227aaf6b23038bc80e5484169bd3047b3ba0b66a8b7e5c3cc4c259',
    'solve_csv_grid': 'dde6603c8b6b025359d09c02ae261da26ee510a3d5e56482e4541c8b971613e6',
    'solve_particles_csv_exact': '8bcc3a3dcdd66b0827fdaeaf096e6f21bd143ff8103458674c16a2f634db12d7',
    'solve_particles_csv_grid': 'c7e8371a5c615f6ec10f5488bcb8a5da5d7a47f065dfb5f4273f2ee4d1e16fdb',
    'solve_particles_regular': 'c11fbd931fde59f4a0cbea761aaf7efb4296540b68c2582dcfa672da53087e67',
    'solve_particles_regular_down': '77082b173b7f3a40b09a6e39962a283b81ed100e23b7bccc168fe5d79387e1c8',
    'solve_regular_exact': '8e0fc96363e13dd9c831c9d16e5cf49779548128bb69c96428a319e0a1245fc0',
    'solve_regular_grid': '2eb7f20d9507cca7d7cfb94baba316e9d00c8572db2a66d6945d6062211edccf',
    'validate': '603f5c58c4883d0a6352c1d23950cb6d2256feb20183e1f5f3d192b94dd433ad',
    'verify': '7f7008e70e27bd274efd7316a7afbf05fe5423cd7cd9bd3cdbf84e3f8fd25bdf',
}


@contextlib.contextmanager
def _inside(path: Path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


def run_case(name: str, workdir: Path) -> str:
    """SHA-256 over the exit code, stdout and written files of one case."""
    command, cfg, extra = CASES[name]
    workdir.mkdir(parents=True)
    (workdir / "config.json").write_text(json.dumps(cfg))
    (workdir / "path2.csv").write_text(CSV_2D)
    (workdir / "path3.csv").write_text(CSV_3P)
    inputs = {p.name for p in workdir.iterdir()}
    argv = [command, "--config", "config.json"]
    if command in ("solve", "simulate-srbm", "simulate-cbp"):
        argv += ["--out", "out"]
    stdout = io.StringIO()
    with _inside(workdir), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + extra)
    digest = hashlib.sha256(f"exit {code}\n".encode())
    digest.update(stdout.getvalue().encode())
    for path in sorted(workdir.rglob("*")):
        rel = path.relative_to(workdir).as_posix()
        if path.is_file() and rel not in inputs:
            digest.update(f"\n{rel}\n".encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes_match_golden(name, tmp_path):
    assert run_case(name, tmp_path / name) == EXPECTED[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            print(f"    {case!r}: {run_case(case, Path(tmp) / case)!r},")
