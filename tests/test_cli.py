import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import orthantsim
from orthantsim.cli import _build_parser, main
from orthantsim.paths import COUNT_MAX, RegularPath, SampledPath
from orthantsim.particles import CbpSpec, CollisionParams, simulate_cbp, solve_competing


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ----------------------------------------------------------------- validate

def test_validate_symmetric_params_ok(tmp_path, capsys):
    cfg = write_config(tmp_path, {"collision_params": {"symmetric": 4}})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 0
    assert json.loads(out)["accepted"] is True


def test_validate_out_of_range_share(tmp_path, capsys):
    cfg = write_config(tmp_path, {"collision_params": {
        "qplus": [0.5, 1.2], "qminus": [-0.2, 0.5]}})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 2
    report = json.loads(out)
    assert "out of (0,1)" in report["collision_params"]["reason"]


def test_validate_matrix_and_params(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0, -0.4], [-0.3, 1.0]],
        "collision_params": {"symmetric": 3},
    })
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 0
    rep = json.loads(out)
    assert rep["matrix"]["accepted"] and rep["collision_params"]["accepted"]


def test_validate_accepts_a_nilpotent_q(tmp_path, capsys):
    # rho(Q) = 0 for a triangular R; power iteration alone never brackets it
    cfg = write_config(tmp_path, {"matrix": [[1.0, 0.0], [-0.5, 1.0]]})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 0
    assert json.loads(out)["matrix"] == {"accepted": True, "reason": None,
                                         "spectral_radius": 0.0}


REDUCIBLE = [[1.0, -0.5, 0.0], [-0.5, 1.0, 0.0], [0.0, 0.0, 1.0]]
BLOCK_DIAGONAL = [[1.0, -0.5, 0.0, 0.0], [-0.5, 1.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, -0.3], [0.0, 0.0, -0.3, 1.0]]


@pytest.mark.parametrize("matrix", [REDUCIBLE, BLOCK_DIAGONAL])
def test_validate_accepts_a_reducible_q(tmp_path, capsys, matrix):
    # Q's classes have different Perron roots; rho(Q) is the largest, 0.5
    cfg = write_config(tmp_path, {"matrix": matrix})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 0
    report = json.loads(out)["matrix"]
    assert report["accepted"] is True
    assert report["spectral_radius"] == pytest.approx(0.5, abs=1e-9)


def test_simulate_srbm_with_a_reducible_q(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": REDUCIBLE, "mu": [-0.5, 0.3, 0.0], "covariance": np.eye(3).tolist(),
        "z0": [0.5, 0.5, 0.5], "horizon": 1.0, "steps": 64, "seed": 5,
    })
    code, _, err = run(capsys, "simulate-srbm", "--config", cfg,
                       "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "srbm.csv").exists()


def test_simulate_srbm_with_a_nearly_reducible_q(tmp_path, capsys):
    # a Perron root that power iteration cannot bracket in its budget
    cfg = write_config(tmp_path, {
        "matrix": [[1.0, -0.5], [-1e-8, 1.0]], "mu": [-0.5, 0.3],
        "covariance": np.eye(2).tolist(), "z0": [0.5, 0.5], "horizon": 1.0,
        "steps": 64, "seed": 5,
    })
    code, _, err = run(capsys, "simulate-srbm", "--config", cfg,
                       "--out", str(tmp_path / "out"))
    assert code == 0, err
    assert (tmp_path / "out" / "srbm.csv").exists()


def test_validate_accepts_a_nearly_reducible_q(tmp_path, capsys):
    # exited 3 once the bracket failed, where simulate-srbm accepted the matrix
    cfg = write_config(tmp_path, {"matrix": [[1.0, -0.5], [-1e-8, 1.0]]})
    code, out, err = run(capsys, "validate", "--config", cfg)
    assert code == 0, err
    report = json.loads(out)
    assert report["accepted"] is True and report["matrix"]["accepted"] is True
    assert report["matrix"]["spectral_radius"] == pytest.approx(np.sqrt(5e-9), rel=1e-12)


def test_validate_rejects_bad_matrix(tmp_path, capsys):
    cfg = write_config(tmp_path, {"matrix": [[1.0, 0.4], [0.3, 1.0]]})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 2


def test_malformed_json_exits_one(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", "--config", str(bad))
    assert code == 1
    assert json.loads(err)["error"] == "config"


def test_missing_config_exits_one(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--config", str(tmp_path / "nope"))
    assert code == 1


def test_empty_validate_config_exits_one(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    code, _, _ = run(capsys, "validate", "--config", cfg)
    assert code == 1


# -------------------------------------------------------------------- solve

def test_solve_one_dim_reflection(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0]],
        "path": {"kind": "regular", "start": [1.0],
                 "breakpoints": [0.0, 2.0], "axes": [1], "slopes": [-1.0]},
    })
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "run"))
    assert code == 0
    summary = json.loads(out)
    rows = (tmp_path / "run" / "skorokhod.csv").read_text().splitlines()
    assert rows[0] == "t,z1,l1"
    data = np.asarray([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert np.allclose(data[:, 1], np.maximum(1 - data[:, 0], 0))
    assert np.allclose(data[:, 2], np.maximum(data[:, 0] - 1, 0))
    assert summary["phases"] == 2
    events = json.loads((tmp_path / "run" / "skorokhod_events.json").read_text())
    assert events[0]["tau"] == 1.0


def test_solve_particles_symmetric_pair(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "collision_params": {"symmetric": 2},
        "path": {"kind": "regular", "start": [0.0, 0.0],
                 "breakpoints": [0.0, 2.0], "axes": [1], "slopes": [1.0]},
    })
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "cp"))
    assert code == 0
    rows = (tmp_path / "cp" / "particles.csv").read_text().splitlines()
    assert rows[0] == "t,y1,y2,l12,z1"
    last = [float(v) for v in rows[-1].split(",")]
    assert last[1] == pytest.approx(1.0)  # both ranks moved at speed 1/2
    assert last[2] == pytest.approx(1.0)
    assert json.loads(out)["final_l"] == [pytest.approx(2.0)]


def test_solve_dual_route_difference(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0, -0.5], [-0.5, 1.0]],
        "path": {"kind": "regular", "start": [0.0, 1.0],
                 "breakpoints": [0.0, 3.0], "axes": [1], "slopes": [-1.0]},
        "compare_methods": True,
        "grid_points": 3000,
    })
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "dual"))
    assert code == 0
    assert json.loads(out)["sup_difference"] < 5e-3


def test_solve_hit_rounding_onto_a_breakpoint_exits_zero(tmp_path, capsys):
    # the collision lands at 0.6 + 0.39999999999999997 == 1.0
    cfg = write_config(tmp_path, {
        "collision_params": {"symmetric": 2},
        "path": {"kind": "regular", "start": [0.1, 0.3],
                 "breakpoints": [0.0, 0.6, 1.0], "axes": [1, 2],
                 "slopes": [0.0, -0.5]}})
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "cp"))
    assert code == 0
    assert json.loads(out)["phases"] == 2
    events = json.loads((tmp_path / "cp" / "particles_events.json").read_text())
    assert [(e["active_before"], e["active_after"]) for e in events] == [([2], [1, 2])]


@pytest.mark.parametrize("grid_points", [1.7, 0, -3])
def test_solve_rejects_a_bad_grid_point_count(tmp_path, capsys, grid_points):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0]], "grid_points": grid_points,
        "path": {"kind": "regular", "start": [0.5],
                 "breakpoints": [0.0, 1.0], "axes": [1], "slopes": [-1.0]}})
    code, out, err = run(capsys, "solve", "--config", cfg, "--method", "grid",
                         "--out", str(tmp_path / "x"))
    assert code == 1
    assert out == ""
    assert "'grid_points'" in json.loads(err)["message"]


def test_solve_requires_system_block(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "path": {"kind": "regular", "start": [0.0],
                 "breakpoints": [0.0, 1.0], "axes": [1], "slopes": [0.0]}})
    code, _, _ = run(capsys, "solve", "--config", cfg,
                     "--out", str(tmp_path / "x"))
    assert code == 1


def test_solve_invalid_matrix_exit_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0, 0.5], [0.5, 1.0]],
        "path": {"kind": "regular", "start": [0.0, 0.0],
                 "breakpoints": [0.0, 1.0], "axes": [1], "slopes": [0.0]}})
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "x"))
    assert code == 2
    assert json.loads(err)["error"] == "validation"


# ----------------------------------------------------------------- simulate

def srbm_config(tmp_path, seed=5):
    return write_config(tmp_path, {
        "matrix": [[1.0, -0.4], [-0.2, 1.0]],
        "mu": [-0.5, 0.3],
        "covariance": [[1.0, 0.0], [0.0, 1.0]],
        "z0": [0.5, 0.5],
        "horizon": 1.0,
        "steps": 64,
        "seed": seed,
    })


def test_simulate_srbm_zero_covariance_line(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0]], "mu": [0.7], "covariance": [[0.0]], "z0": [0.1],
        "horizon": 1.0, "steps": 10, "seed": 1,
    })
    code, _, _ = run(capsys, "simulate-srbm", "--config", cfg,
                     "--out", str(tmp_path / "line"))
    assert code == 0
    rows = (tmp_path / "line" / "srbm.csv").read_text().splitlines()[1:]
    data = np.asarray([[float(v) for v in r.split(",")] for r in rows])
    assert np.allclose(data[:, 1], 0.1 + 0.7 * data[:, 0])


def test_simulate_srbm_byte_identical_reruns(tmp_path, capsys):
    cfg = srbm_config(tmp_path)
    run(capsys, "simulate-srbm", "--config", cfg, "--out", str(tmp_path / "a"))
    run(capsys, "simulate-srbm", "--config", cfg, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "srbm.csv").read_bytes() == \
           (tmp_path / "b" / "srbm.csv").read_bytes()
    assert (tmp_path / "a" / "srbm_events.json").read_bytes() == \
           (tmp_path / "b" / "srbm_events.json").read_bytes()


def test_simulate_cbp_with_gap_check(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "cbp": {
            "g": [0.1, -0.2, 0.0], "sigma2": [1.0, 0.8, 1.2],
            "q": {"qplus": [0.5, 0.6, 0.45], "qminus": [0.4, 0.55, 0.5]},
            "y0": [0.0, 0.3, 0.8], "horizon": 1.0, "steps": 80, "seed": 11,
        },
        "gap_check": True,
    })
    code, out, _ = run(capsys, "simulate-cbp", "--config", cfg,
                       "--out", str(tmp_path / "cbp"))
    assert code == 0
    summary = json.loads(out)
    assert summary["gap_srbm_discrepancy"] < 1e-8
    header = (tmp_path / "cbp" / "cbp.csv").read_text().splitlines()[0]
    assert header == "t,y1,y2,y3,l12,l23,z1,z2"


def test_simulate_cbp_seed_override_changes_output(tmp_path, capsys):
    body = {
        "g": [0.0, 0.0], "sigma2": [1.0, 1.0],
        "q": {"symmetric": 2}, "y0": [0.0, 0.1],
        "horizon": 1.0, "steps": 50, "seed": 1,
    }
    cfg = write_config(tmp_path, {"cbp": body})
    run(capsys, "simulate-cbp", "--config", cfg, "--out", str(tmp_path / "s1"))
    run(capsys, "simulate-cbp", "--config", cfg, "--seed", "2",
        "--out", str(tmp_path / "s2"))
    assert (tmp_path / "s1" / "cbp.csv").read_text() != \
           (tmp_path / "s2" / "cbp.csv").read_text()


# --------------------------------------------------------------- approximate

def test_approximate_emits_regular_path(tmp_path, capsys):
    csv_file = tmp_path / "path.csv"
    csv_file.write_text("t,x1,x2\n0,0,1\n0.5,1,1\n1,0.5,2\n")
    cfg = write_config(tmp_path, {"path": {"kind": "csv", "file": "path.csv"},
                                  "level": 2})
    out_file = tmp_path / "approx.json"
    code, out, _ = run(capsys, "approximate", "--config", cfg,
                       "--out", str(out_file))
    assert code == 0
    obj = json.loads(out_file.read_text())
    assert obj["kind"] == "regular"
    assert len(obj["axes"]) == 4  # level 2 x dim 2 sweeps
    assert obj["start"] == [0.0, 1.0]


def test_approximate_rejects_a_regular_path_source(tmp_path, capsys):
    cfg = write_config(tmp_path, {"path": {"kind": "regular", "start": [1.0],
                                           "breakpoints": [0.0, 1.0], "axes": [1],
                                           "slopes": [-1.0]}, "level": 2})
    code, out, err = run(capsys, "approximate", "--config", cfg)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "config", "message":
                               "config path: 'kind' must be a sampled path source "
                               "for approximate"}


# -------------------------------------------------------------------- verify

def test_verify_small_suites_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 9,
        "suites": [
            {"name": "counterexample", "instances": 2},
            {"name": "skorokhod_comparison", "instances": 5},
            {"name": "particle_comparison", "instances": 5},
        ],
    })
    code, out, _ = run(capsys, "verify", "--config", cfg,
                       "--out", str(tmp_path / "rep"))
    assert code == 0
    assert json.loads(out)["passed"] is True
    report = json.loads((tmp_path / "rep" / "verify_report.json").read_text())
    assert {s["suite"] for s in report["suites"]} == \
           {"counterexample", "skorokhod_comparison", "particle_comparison"}
    inst = report["suites"][1]["instances"][0]
    assert inst["seed"] == "9:0" and "report" in inst


def test_verify_broken_hypothesis_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "seed": 9,
        "suites": [{"name": "skorokhod_comparison", "instances": 3,
                    "break_hypothesis": True}],
    })
    code, out, _ = run(capsys, "verify", "--config", cfg)
    assert code == 2
    assert json.loads(out)["passed"] is False


def test_verify_unknown_suite_exits_two(tmp_path, capsys):
    cfg = write_config(tmp_path, {"suites": [{"name": "bogus"}]})
    code, _, _ = run(capsys, "verify", "--config", cfg)
    assert code == 2


def test_usage_error_exits_one(capsys):
    assert main(["solve"]) == 1  # missing --config


def test_one_process_runs_as_fresh_processes_do(tmp_path, capsys):
    """The parser is built once per process: a good run, an unknown flag and
    a validate run in one process print, exit and write as fresh ones."""
    out = tmp_path / "out"
    calls = [["simulate-srbm", "--config", srbm_config(tmp_path), "--out", str(out)],
             ["simulate-srbm", "--config", srbm_config(tmp_path), "--bogus", "1"],
             ["validate", "--config", write_config(
                 tmp_path, {"collision_params": {"symmetric": 3}}, "params.json")]]
    ours = [run(capsys, *argv) for argv in calls]
    files = [out / "srbm.csv", out / "srbm_events.json"]
    written = [f.read_bytes() for f in files]
    assert _build_parser() is _build_parser()
    env = {**os.environ, "PYTHONPATH": str(Path(orthantsim.__file__).parents[1])}
    fresh = [subprocess.run([sys.executable, "-m", "orthantsim.cli", *argv], env=env,
                            capture_output=True, text=True, timeout=120)
             for argv in calls]
    assert [(p.returncode, p.stdout, p.stderr) for p in fresh] == ours
    assert [c for c, _, _ in ours] == [0, 1, 0]
    assert json.loads(ours[1][2]) == {"error": "config",
                                      "message": "unrecognized arguments: --bogus 1"}
    assert [f.read_bytes() for f in files] == written


# ------------------------------------------------- malformed path CSV sources

@pytest.mark.parametrize("text, detail", [
    ("", "line 1"),
    ("t,x1,x2\n", "line 1"),
    ("t,x1,x2\n0,0.5,1\n0.5,1\n1,0.5,2\n", "line 3"),
    ("t,x1,x2\n0,0.5,1\n0.5,a,1\n", "line 3"),
    ("t,x1\n0.5,1\n1,0.5\n", "start at 0"),
    ("t,x1\n0,1\n0.5,0.5\n0.5,0.2\n", "strictly increasing"),
    ("t,x1\n0,1\ninf,0.5\n", "infinite"),
], ids=["empty", "header_only", "ragged_row", "non_numeric",
        "late_start", "non_increasing", "non_finite"])
def test_solve_malformed_csv_path_exits_one(tmp_path, capsys, text, detail):
    (tmp_path / "path.csv").write_text(text)
    cfg = write_config(tmp_path, {"matrix": [[1.0, -0.4], [-0.3, 1.0]],
                                  "path": {"kind": "csv", "file": "path.csv"}})
    code, _, err = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "run"))
    assert code == 1
    error = json.loads(err)
    assert error["error"] == "config"
    assert "path.csv" in error["message"] and detail in error["message"]


# ------------------------------------------------------ positive overrides

METHOD_CONFIGS = {
    "solve": {
        "matrix": [[1.0]],
        "path": {"kind": "regular", "start": [1.0],
                 "breakpoints": [0.0, 2.0], "axes": [1], "slopes": [-1.0]}},
    "simulate-srbm": {
        "matrix": [[1.0]], "mu": [0.0], "covariance": [[1.0]], "z0": [0.5],
        "horizon": 1.0, "steps": 10, "seed": 1},
    "simulate-cbp": {"cbp": {
        "g": [0.0, 0.0], "sigma2": [1.0, 1.0], "q": {"symmetric": 2},
        "y0": [0.0, 0.1], "horizon": 1.0, "steps": 10, "seed": 1}},
}


@pytest.mark.parametrize("command, flag", [
    pytest.param("simulate-srbm", "--level", id="--level"),
    pytest.param("simulate-srbm", "--tol", id="--tol"),
    pytest.param("simulate-cbp", "--level", id="simulate-cbp---level"),
    pytest.param("simulate-cbp", "--tol", id="simulate-cbp---tol"),
])
def test_zero_override_is_rejected(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, METHOD_CONFIGS[command])
    code, _, err = run(capsys, command, "--config", cfg,
                       "--out", str(tmp_path / "run"), flag, "0")
    assert code == 1
    assert flag in json.loads(err)["message"]


@pytest.mark.parametrize("name", ["level", "tol"])
def test_zero_config_value_is_rejected(tmp_path, capsys, name):
    cfg = write_config(tmp_path, {
        "matrix": [[1.0]], "mu": [0.0], "covariance": [[1.0]], "z0": [0.5],
        "horizon": 1.0, "steps": 10, "seed": 1, name: 0})
    code, _, err = run(capsys, "simulate-srbm", "--config", cfg,
                       "--out", str(tmp_path / "run"))
    assert code == 1
    assert repr(name) in json.loads(err)["message"]


@pytest.mark.parametrize("command", sorted(METHOD_CONFIGS))
def test_unknown_config_method_is_rejected(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(METHOD_CONFIGS[command], method="bogus"))
    code, out, err = run(capsys, command, "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert "'method'" in json.loads(err)["message"]


@pytest.mark.parametrize("command", sorted(METHOD_CONFIGS))
def test_config_method_grid_is_accepted(tmp_path, capsys, command):
    cfg = write_config(tmp_path, dict(METHOD_CONFIGS[command], method="grid"))
    code, _, _ = run(capsys, command, "--config", cfg,
                     "--out", str(tmp_path / "run"))
    assert code == 0


@pytest.mark.parametrize("name", ["level", "tol"])
def test_zero_suite_entry_value_is_rejected(tmp_path, capsys, name):
    cfg = write_config(tmp_path, {"suites": [
        {"name": "initial_shift", "instances": 1, "steps": 50, name: 0}]})
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert code == 1
    assert out == ""
    assert repr(name) in json.loads(err)["message"]


@pytest.mark.parametrize("instances", [0, -3])
def test_verify_rejects_a_suite_without_instances(tmp_path, capsys, instances):
    cfg = write_config(tmp_path, {"suites": [
        {"name": "initial_shift", "instances": instances}]})
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert code == 1
    assert out == ""
    assert "'instances' must be >= 1" in json.loads(err)["message"]


SRBM_1D = {"matrix": [[1.0]], "mu": [0.0], "covariance": [[1.0]], "z0": [0.5],
           "horizon": 1.0, "steps": 10, "seed": 1}
VERIFY_1 = {"suites": [{"name": "counterexample", "instances": 1}], "seed": 1}
INTEGER_OPTIONS = [("simulate-srbm", "steps"), ("simulate-srbm", "seed"),
                   ("verify", "instances"), ("verify", "seed")]


def integer_option_config(command, name, value):
    if command == "simulate-srbm":
        return dict(SRBM_1D, **{name: value})
    if name == "seed":
        return dict(VERIFY_1, seed=value)
    return {"suites": [dict(VERIFY_1["suites"][0], instances=value)]}


@pytest.mark.parametrize("command, name", INTEGER_OPTIONS)
@pytest.mark.parametrize("value", [1.7, True, "x"])
def test_mistyped_integer_option_is_rejected(tmp_path, capsys, command, name, value):
    # read with int() these would run as 1 (1.7, true) or end in a traceback
    cfg = write_config(tmp_path, integer_option_config(command, name, value))
    code, out, err = run(capsys, command, "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert repr(name) in json.loads(err)["message"]


@pytest.mark.parametrize("command, name, value", [
    ("simulate-srbm", "steps", 0), ("simulate-srbm", "seed", -1),
    ("verify", "seed", -1)])
def test_integer_option_below_its_bound_is_rejected(tmp_path, capsys, command,
                                                    name, value):
    cfg = write_config(tmp_path, integer_option_config(command, name, value))
    code, out, err = run(capsys, command, "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert f"{name!r} must be >= " in json.loads(err)["message"]


@pytest.mark.parametrize("command, name", INTEGER_OPTIONS)
def test_integer_option_at_its_bound_is_accepted(tmp_path, capsys, command, name):
    least = 0 if name == "seed" else 1
    cfg = write_config(tmp_path, integer_option_config(command, name, least))
    code, _, _ = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "run"))
    assert code == 0


def test_simulate_srbm_without_a_seed_is_rejected(tmp_path, capsys):
    cfg = dict(SRBM_1D)
    del cfg["seed"]
    code, out, err = run(capsys, "simulate-srbm", "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert "'seed'" in json.loads(err)["message"]
    code, _, _ = run(capsys, "simulate-srbm", "--config", write_config(tmp_path, cfg),
                     "--out", str(tmp_path / "run"), "--seed", "0")
    assert code == 0


# ------------------------------------------------------- per-command flags

FLAG_VALUES = {"seed": "3", "out": "unused", "method": "grid", "level": "2",
               "tol": "1"}
READ_FLAGS = {
    "validate": ("tol",),
    "solve": ("out", "method", "level", "tol"),
    "simulate-srbm": ("seed", "out", "method", "level", "tol"),
    "simulate-cbp": ("seed", "out", "method", "level", "tol"),
    "approximate": ("out", "level"),
    "verify": ("seed", "out", "level", "tol"),
}
UNREAD_FLAGS = [(command, flag) for command, read in sorted(READ_FLAGS.items())
                for flag in FLAG_VALUES if flag not in read]
FLAG_CONFIGS = dict(METHOD_CONFIGS, **{
    "validate": {"matrix": [[1.0]]},
    "approximate": {"path": {"kind": "brownian", "dim": 1, "drift": [0.0],
                             "covariance": [[1.0]], "horizon": 1.0,
                             "steps": 4, "seed": 1}},
    "verify": {"suites": [{"name": "counterexample", "instances": 1}]},
})


MISTYPED = [(command, name, value)
            for command, names in (("simulate-srbm", ("level", "tol")),
                                   ("approximate", ("level",)))
            for name in names
            for value in ((True, 1.7, "x") if name == "level" else (True, "x"))]


@pytest.mark.parametrize("command, name, value", MISTYPED)
def test_mistyped_config_value_is_rejected(tmp_path, capsys, command, name, value):
    # a bool, float or string must not reach the solver as a level or tol
    cfg = write_config(tmp_path, dict(FLAG_CONFIGS[command], **{name: value}))
    code, out, err = run(capsys, command, "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert code == 1
    assert out == ""
    assert repr(name) in json.loads(err)["message"]


@pytest.mark.parametrize("command, flag", UNREAD_FLAGS,
                         ids=[f"{c}-{f}" for c, f in UNREAD_FLAGS])
def test_unread_flag_is_rejected(tmp_path, capsys, command, flag):
    cfg = write_config(tmp_path, FLAG_CONFIGS[command])
    argv = [command, "--config", cfg]
    if command == "solve":
        argv += ["--out", str(tmp_path / "run")]
    code, _, _ = run(capsys, *argv)
    assert code == 0  # the config alone runs
    code, out, err = run(capsys, *argv, f"--{flag}", FLAG_VALUES[flag])
    assert code == 1
    assert out == ""
    message = json.loads(err)["message"]
    assert "unrecognized arguments" in message and f"--{flag}" in message


# ------------------------------------------------------ simulate-cbp --tol

CBP_4 = {"g": [0.2, -0.1, 0.0, -0.3], "sigma2": [1.0, 0.7, 1.3, 0.9],
         "q": {"qplus": [0.5, 0.6, 0.45, 0.7], "qminus": [0.4, 0.55, 0.3, 0.5]},
         "y0": [0.0, 0.1, 0.1, 0.4], "horizon": 1.0, "steps": 150, "seed": 4}


@pytest.mark.parametrize("source", ["flag", "config"])
def test_simulate_cbp_tol_reaches_the_grid_oracle(tmp_path, capsys, source):
    if source == "flag":
        cfg = write_config(tmp_path, {"cbp": CBP_4})
        extra = ["--method", "grid", "--tol", "1e-12"]
    else:
        cfg = write_config(tmp_path, {"cbp": CBP_4, "method": "grid", "tol": 1e-12})
        extra = []
    code, out, _ = run(capsys, "simulate-cbp", "--config", cfg,
                       "--out", str(tmp_path / "run"), *extra)
    assert code == 0
    spec = CbpSpec(**CBP_4 | {"q": CollisionParams(**CBP_4["q"])})
    tight = simulate_cbp(spec, "grid", tol=1e-12)
    assert json.loads(out)["final_l"] == tight.final_collision_terms.tolist()
    loose = simulate_cbp(spec, "grid")
    assert tight.diagnostics["iterations"] > loose.diagnostics["iterations"]
    assert tight.final_collision_terms.tolist() != \
        loose.final_collision_terms.tolist()


# ------------------------------------------- solve: one regrid for both systems

def test_solve_particles_grid_regrids_a_regular_path(tmp_path, capsys):
    path = {"kind": "regular", "start": [0.0, 0.2, 0.5],
            "breakpoints": [0.0, 0.4, 0.9, 1.5, 2.0],
            "axes": [1, 3, 2, 1], "slopes": [1.5, -1.0, 0.7, -0.6]}
    qparams = {"qplus": [0.5, 0.6, 0.3], "qminus": [0.4, 0.7, 0.5]}
    cfg = write_config(tmp_path, {"collision_params": qparams, "path": path,
                                  "grid_points": 64})
    code, out, _ = run(capsys, "solve", "--config", cfg,
                       "--out", str(tmp_path / "run"), "--method", "grid")
    assert code == 0
    rows = (tmp_path / "run" / "particles.csv").read_text().splitlines()[1:]
    assert len(rows) == 64 + 1
    X = RegularPath(**{key: v for key, v in path.items() if key != "kind"})
    grid = np.linspace(0.0, X.horizon, 64 + 1)
    want = solve_competing(CollisionParams(**qparams),
                           SampledPath(grid, X.values_at(grid)), method="grid")
    table = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.array_equal(table[:, 0], want.Y.times)
    assert np.array_equal(table[:, 1:],
                          np.hstack([want.Y.values, want.L.values, want.Z.values]))
    assert json.loads(out)["final_l"] == want.final_collision_terms.tolist()


def test_grid_oracle_at_its_sweep_cap_exits_solver(tmp_path, capsys):
    t = np.linspace(0.0, 1.0, 1000)
    with open(tmp_path / "path.csv", "w") as fh:
        SampledPath(t, np.column_stack([0.5 - 2 * t] * 2)).to_csv(fh)
    cfg = write_config(tmp_path, {"matrix": [[1.0, -0.999], [-0.999, 1.0]],
                                  "path": {"kind": "csv", "file": "path.csv"},
                                  "method": "grid"})
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert code == 3
    assert out == ""
    error = json.loads(err)  # one JSON line, no traceback
    assert error["error"] == "solver"
    assert "rho(Q) = 0.999" in error["message"] and "10000" in error["message"]


# ------------------------------------------------- integers in nested blocks

CBP_2 = {"g": [0.0, 0.0], "sigma2": [1.0, 1.0], "q": {"symmetric": 2},
         "y0": [0.0, 0.1], "horizon": 1.0, "steps": 10, "seed": 1}
BROWNIAN_1 = {"kind": "brownian", "dim": 1, "drift": [0.0],
              "covariance": [[1.0]], "horizon": 1.0, "steps": 10, "seed": 1}


def assert_config_error_names(code, out, err, name):
    assert code == 1
    assert out == ""
    assert repr(name) in json.loads(err)["message"]


@pytest.mark.parametrize("name, value", [("steps", 10.7), ("seed", True)])
def test_simulate_cbp_block_integer_is_not_truncated(tmp_path, capsys, name, value):
    # read with int() these ran 10 steps at seed 1 and exited 0
    cfg = write_config(tmp_path, {"cbp": dict(CBP_2, **{name: value})})
    assert_config_error_names(*run(capsys, "simulate-cbp", "--config", cfg,
                                   "--out", str(tmp_path / "run")), name)


@pytest.mark.parametrize("value", [1.5, True, -1])
def test_simulate_cbp_stream_offset_must_be_an_integer(tmp_path, capsys, value):
    # read with int(), "stream_offset": 1.5 wrote the CSV of offset 1
    cfg = write_config(tmp_path, {"cbp": dict(CBP_2, stream_offset=value)})
    assert_config_error_names(*run(capsys, "simulate-cbp", "--config", cfg,
                                   "--out", str(tmp_path / "run")), "stream_offset")


@pytest.mark.parametrize("name, value", [("dim", 1.5), ("steps", 10.7),
                                         ("seed", True)])
def test_brownian_path_integer_is_not_truncated(tmp_path, capsys, name, value):
    cfg = write_config(tmp_path, {"path": dict(BROWNIAN_1, **{name: value})})
    assert_config_error_names(*run(capsys, "approximate", "--config", cfg), name)


def test_regular_path_axis_is_not_truncated(tmp_path, capsys):
    # read with int() the axis 1.9 was solved as axis 1
    cfg = write_config(tmp_path, {"matrix": [[1.0, 0.0], [0.0, 1.0]], "path": {
        "kind": "regular", "start": [1.0, 1.0], "breakpoints": [0.0, 1.0],
        "axes": [1.9], "slopes": [-2.0]}})
    code, out, err = run(capsys, "solve", "--config", cfg,
                         "--out", str(tmp_path / "run"))
    assert (code, out) == (1, "")
    assert "integer" in json.loads(err)["message"]


@pytest.mark.parametrize("axes", [[1.9], [2**70], 1])
def test_regular_path_axis_error_names_axes(tmp_path, capsys, axes):
    # 1.9 and 2**70 used to reach cli.main as a bare TypeError/OverflowError
    cfg = write_config(tmp_path, {"matrix": [[1.0, 0.0], [0.0, 1.0]], "path": {
        "kind": "regular", "start": [1.0, 1.0], "breakpoints": [0.0, 1.0],
        "axes": axes, "slopes": [-2.0]}})
    assert_config_error_names(*run(capsys, "solve", "--config", cfg,
                                   "--out", str(tmp_path / "run")), "axes")


def test_validate_rejects_a_fractional_particle_count(tmp_path, capsys):
    cfg = write_config(tmp_path, {"collision_params": {"symmetric": 3.7}})
    code, out, _ = run(capsys, "validate", "--config", cfg)
    assert code == 2
    assert json.loads(out)["collision_params"] == {
        "accepted": False, "reason": "particle count must be an integer, got 3.7"}


@pytest.mark.parametrize("suite, name, value", [
    ("particle_comparison", "n_max", 4.7), ("skorokhod_comparison", "d_max", 3.5),
    ("skorokhod_comparison", "grid", 8.2), ("initial_shift", "steps", 50.5)])
def test_suite_entry_integer_is_not_truncated(tmp_path, capsys, suite, name, value):
    cfg = write_config(tmp_path, {"suites": [
        {"name": suite, "instances": 1, name: value}]})
    assert_config_error_names(*run(capsys, "verify", "--config", cfg), name)


# ------------------------------------------- finite reals and required keys

def write_raw_config(tmp_path, text):
    path = tmp_path / "config.json"
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_tol_flag_must_be_finite(tmp_path, capsys, value):
    # --tol inf stopped the grid oracle after one sweep and exited 0
    cfg = write_config(tmp_path, dict(SRBM_1D, method="grid"))
    code, out, err = run(capsys, "simulate-srbm", "--config", cfg,
                         "--out", str(tmp_path / "run"), "--tol", value)
    assert (code, out) == (1, "")
    assert "--tol" in json.loads(err)["message"]


@pytest.mark.parametrize("value", ["NaN", "Infinity", "1e400"])
def test_config_tol_must_be_finite(tmp_path, capsys, value):
    text = json.dumps(dict(SRBM_1D, method="grid", tol=1.0)).replace(
        '"tol": 1.0', f'"tol": {value}')
    assert_config_error_names(*run(capsys, "simulate-srbm", "--config",
                                   write_raw_config(tmp_path, text),
                                   "--out", str(tmp_path / "run")), "tol")


@pytest.mark.parametrize("value", ['"1"', "true", "NaN", "Infinity", "1e400", "0",
                                   "-1.5", "null"])
@pytest.mark.parametrize("command", ["simulate-srbm", "simulate-cbp", "approximate"])
def test_horizon_must_be_a_finite_positive_real(tmp_path, capsys, command, value):
    # "1" and true were read with float(); NaN, Infinity and 1e400 exited 2
    # with "time grid must start at 0"
    text = json.dumps(FLAG_CONFIGS[command]).replace('"horizon": 1.0',
                                                     f'"horizon": {value}')
    assert_config_error_names(*run(capsys, command, "--config",
                                   write_raw_config(tmp_path, text),
                                   "--out", str(tmp_path / "run")), "horizon")


REQUIRED_KEYS = ([("simulate-srbm", key)
                  for key in ("matrix", "mu", "covariance", "z0", "horizon")]
                 + [("simulate-cbp", key)
                    for key in ("g", "sigma2", "q", "y0", "horizon")]
                 + [("approximate", key) for key in ("drift", "covariance")])


@pytest.mark.parametrize("command, key", REQUIRED_KEYS)
def test_missing_required_key_is_named(tmp_path, capsys, command, key):
    # these exited 1 through cli.main's blanket mapping, as KeyError('key')
    cfg = json.loads(json.dumps(FLAG_CONFIGS[command]))
    block = {"simulate-cbp": "cbp", "approximate": "path"}.get(command)
    del (cfg[block] if block else cfg)[key]
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, cfg),
                         "--out", str(tmp_path / "run"))
    assert_config_error_names(code, out, err, key)
    assert "KeyError" not in json.loads(err)["message"]


# ------------------------------------------- counts numpy cannot index

GRID_SOLVE = {"matrix": [[1.0]], "method": "grid",
              "path": {"kind": "regular", "start": [0.5], "breakpoints": [0.0, 1.0],
                       "axes": [1], "slopes": [-1.0]}}
COUNTS = [("simulate-srbm", SRBM_1D, "steps"), ("simulate-srbm", SRBM_1D, "level"),
          ("solve", GRID_SOLVE, "grid_points")]
SUITE_COUNTS = [("removal_right", "n_max"), ("removal_right", "steps"),
                ("removal_right", "level"), ("skorokhod_comparison", "d_max"),
                ("skorokhod_comparison", "grid")]


@pytest.mark.parametrize("command, config, name", COUNTS, ids=[c[2] for c in COUNTS])
@pytest.mark.parametrize("value", [10**300, 2**63], ids=["10**300", "2**63"])
def test_count_beyond_the_index_range_is_rejected(tmp_path, capsys, command, config,
                                                  name, value):
    # these exited 4, "Maximum allowed dimension exceeded" from the grid; the
    # check comes before any array is sized, so nothing is allocated
    cfg = write_config(tmp_path, dict(config, **{name: value}))
    code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "validation"
    assert f"{name!r} must be at most {COUNT_MAX}" in error["message"]


@pytest.mark.parametrize("suite, name", SUITE_COUNTS)
@pytest.mark.parametrize("value", [10**300, 2**63], ids=["10**300", "2**63"])
def test_suite_count_beyond_the_index_range_is_rejected(tmp_path, capsys, suite, name,
                                                        value):
    cfg = write_config(tmp_path, {"suites": [{"name": suite, "instances": 1,
                                              name: value}]})
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert (code, out) == (2, "")
    assert f"{name!r} must be at most" in json.loads(err)["message"]


# ------------------------------------------- counts whose tables numpy cannot size

SIZED = [("simulate-srbm", SRBM_1D, "steps"), ("simulate-srbm", SRBM_1D, "level"),
         ("solve", GRID_SOLVE, "grid_points"), ("simulate-cbp", CBP_2, "steps")]


@pytest.mark.parametrize("command, config, name", SIZED,
                         ids=[f"{c[0]}-{c[2]}" for c in SIZED])
def test_count_whose_table_numpy_cannot_size_is_rejected(tmp_path, capsys, command,
                                                         config, name):
    # at COUNT_MAX = 2**63 - 2 these exited 4 from np.empty or np.linspace; the
    # cell count is checked before numpy is called, so nothing is allocated
    cfg = write_config(tmp_path, dict(config, **{name: COUNT_MAX}))
    code, out, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "run"))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "validation"
    assert f"{name!r} = {COUNT_MAX} needs a table of {COUNT_MAX + 1} x" in error["message"]
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("suite, name", [("skorokhod_comparison", "grid"),
                                         ("skorokhod_comparison", "d_max"),
                                         ("removal_right", "n_max"),
                                         ("particle_comparison", "n_max")])
def test_suite_count_whose_table_numpy_cannot_size_is_rejected(tmp_path, capsys, suite,
                                                               name):
    cfg = write_config(tmp_path, {"suites": [{"name": suite, "instances": 1,
                                              name: COUNT_MAX}]})
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert (code, out) == (2, "")
    assert f"{name!r} = {COUNT_MAX} needs a table" in json.loads(err)["message"]


def test_failed_gap_check_writes_no_file(tmp_path, capsys):
    # the grid solve reads no level, the gap check's exact solve cannot size
    # it; the check runs before the export, so no partial CSV is left behind
    cfg = write_config(tmp_path, {**CBP_2, "gap_check": True})
    code, out, err = run(capsys, "simulate-cbp", "--config", cfg, "--out",
                         str(tmp_path / "run"), "--method", "grid", "--level", str(COUNT_MAX))
    assert (code, out) == (2, "")
    assert f"'level' = {COUNT_MAX} needs a table" in json.loads(err)["message"]
    assert not (tmp_path / "run").exists()


GRID_LEVEL_CONFIGS = {"solve": {"matrix": [[1.0]], "path": BROWNIAN_1},
                      "simulate-srbm": SRBM_1D, "simulate-cbp": {"cbp": CBP_2}}


@pytest.mark.parametrize("command", sorted(GRID_LEVEL_CONFIGS))
def test_grid_method_rejects_a_level(tmp_path, capsys, command):
    # the grid oracle reads no level; the rejected run writes no file
    cfg = write_config(tmp_path, GRID_LEVEL_CONFIGS[command])
    argv = [command, "--config", cfg, "--method", "grid"]
    code, _, err = run(capsys, *argv, "--out", str(tmp_path / "plain"))
    assert code == 0, err
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "run"), "--level", "7")
    assert (code, out) == (2, "")
    assert "'level' = 7" in json.loads(err)["message"]
    assert not (tmp_path / "run").exists()


def test_solve_rejects_a_level_on_a_regular_path(tmp_path, capsys):
    # a regular driver is solved as it is; the rejected runs write no file
    solve_cfg = {"matrix": [[1.0]], "path": {"kind": "regular", "start": [1.0],
                 "breakpoints": [0.0, 2.0], "axes": [1], "slopes": [-1.0]}}
    for cfg, flags in ((solve_cfg, ["--level", "7"]), ({**solve_cfg, "level": 7}, [])):
        out_dir = tmp_path / "run"
        argv = ["solve", "--config", write_config(tmp_path, cfg), "--out", str(out_dir)]
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (2, "")
        assert "'level' = 7" in json.loads(err)["message"]
        assert not out_dir.exists()


# --------------------------------------------------- increments that overflow

OVERFLOWING = {  # a CSV driver whose differences exceed the float range
    "matrix": ({"matrix": [[1.0]]}, "t,x1\n0,1e308\n1,-1e308\n2,1e308\n"),
    "collision_params": ({"collision_params": {"symmetric": 2}},
                         "t,x1,x2\n0,-1e308,1e308\n1,0,1\n"),
}


@pytest.mark.parametrize("system", sorted(OVERFLOWING))
def test_overflowing_increments_are_blamed_on_the_input(tmp_path, system):
    # these printed numpy's RuntimeWarning before the NaN error, and exited 4
    # when warnings were errors; in a fresh process with every warning shown,
    # stderr holds the one JSON line
    block, text = OVERFLOWING[system]
    (tmp_path / "path.csv").write_text(text)
    cfg = write_config(tmp_path, {**block, "path": {"kind": "csv", "file": "path.csv"}})
    env = {**os.environ, "PYTHONPATH": str(Path(orthantsim.__file__).parents[1])}
    argv = ["solve", "--config", cfg, "--out", str(tmp_path / "run")]
    for warnings in ("default", "error::RuntimeWarning"):
        p = subprocess.run([sys.executable, "-W", warnings, "-m", "orthantsim.cli", *argv],
                           env=env, capture_output=True, text=True, timeout=120)
        assert (p.returncode, p.stdout) == (2, "")
        assert len(p.stderr.splitlines()) == 1
        error = json.loads(p.stderr)
        assert error["error"] == "validation" and "overflow" in error["message"]
