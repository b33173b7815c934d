"""The CLI reads every config through one key table per command.

A fuzz over small configs of every command deletes keys, retypes them, nests
them wrongly, adds an unknown key beside them or makes their numbers exceed
the float range: each run ends in a documented exit, and a config error names
the key it is about.  The other tests pin the cases the table closed: output
paths that cannot be written, unknown keys in nested blocks, ``validate``'s
config ``tol``, the README's examples, and the internal-error exit.
"""

import contextlib
import copy
import io
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthantsim import cli
from orthantsim.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write_config(tmp_path, obj):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(obj))
    return str(path)


# ---------------------------------------------------------------------- fuzz

REGULAR = {"kind": "regular", "start": [1.0, 0.5], "breakpoints": [0.0, 1.0, 2.0],
           "axes": [1, 2], "slopes": [-1.0, 0.5]}
BROWNIAN = {"kind": "brownian", "dim": 2, "drift": [0.0, 0.1],
            "covariance": [[1.0, 0.0], [0.0, 1.0]], "horizon": 1.0, "steps": 8, "seed": 1}
CBP = {"g": [0.1, -0.2], "sigma2": [1.0, 0.8],
       "q": {"qplus": [0.5, 0.6], "qminus": [0.4, 0.5]}, "y0": [0.0, 0.3],
       "horizon": 1.0, "steps": 16, "seed": 11, "stream_offset": 1}
CONFIGS = [
    ("validate", {"matrix": [[1.0, -0.5], [-0.6, 1.0]], "tol": 0.01,
                  "collision_params": {"symmetric": 3}}),
    ("solve", {"matrix": [[1.0, -0.4], [-0.3, 1.0]], "path": REGULAR, "method": "exact",
               "level": 2, "tol": 1e-8, "grid_points": 20, "compare_methods": True}),
    ("solve", {"collision_params": {"qplus": [0.5, 0.6], "qminus": [0.4, 0.5]},
               "path": BROWNIAN, "level": 4}),
    ("solve", {"matrix": [[1.0, -0.4], [-0.3, 1.0]],
               "path": {"kind": "csv", "file": "path.csv"}}),
    ("simulate-srbm", {"matrix": [[1.0, -0.4], [-0.2, 1.0]], "mu": [-0.5, 0.3],
                       "covariance": [[1.0, 0.0], [0.0, 1.0]], "z0": [0.5, 0.5],
                       "horizon": 1.0, "steps": 16, "seed": 5, "method": "grid",
                       "level": 4, "tol": 1e-8}),
    ("simulate-cbp", {"cbp": CBP, "gap_check": True, "method": "exact", "level": 8,
                      "tol": 1e-8}),
    ("simulate-cbp", dict(CBP, method="grid")),
    ("approximate", {"path": BROWNIAN, "level": 2}),
    ("verify", {"seed": 1, "suites": [
        {"name": "counterexample", "instances": 1, "r21": 0.5},
        {"name": "initial_shift", "instances": 1, "steps": 20, "level": 5,
         "tol": 1e-9, "n_max": 3},
        {"name": "skorokhod_comparison", "instances": 1, "d_max": 2, "grid": 6,
         "break_hypothesis": False}]}),
]
VALUES = [None, "x", 1.5, -1, [], {}, [[1.0]], [1.0, "a"], True, [[1, 2, 3]]]
DELETE, IN_LIST, IN_OBJECT = "delete", "in a list", "in an object"
EXTRA, HUGE = "an unknown key beside it", "numbers beyond the float range"


def huge(value):
    """value with every number 10**400: a list of numbers entry by entry,
    anything else as a whole."""
    if isinstance(value, list) and value and not isinstance(value[0], dict):
        return [huge(v) for v in value]
    return 10**400


def key_paths(obj, prefix=()):
    """The path of every key of obj's objects, those in lists of objects too."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from key_paths(value, prefix + (key,))
    elif isinstance(obj, list) and obj and isinstance(obj[0], dict):
        for i, value in enumerate(obj):
            yield from key_paths(value, prefix + (i,))


def dotted(path) -> str:
    """A key path as the CLI writes it: ``cbp.q``, ``suites[0]``."""
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


@st.composite
def mutations(draw):
    command, cfg = draw(st.sampled_from(CONFIGS))
    cfg = copy.deepcopy(cfg)
    path = draw(st.sampled_from(list(key_paths(cfg))))
    how = draw(st.sampled_from([DELETE, IN_LIST, IN_OBJECT, EXTRA, HUGE,
                                *range(len(VALUES))]))
    node = cfg
    for part in path[:-1]:
        node = node[part]
    key = path[-1]
    if how == DELETE:
        del node[key]
    elif how == EXTRA:
        node["extra"] = 1.0
    elif how == HUGE:
        node[key] = huge(node[key])
    else:
        node[key] = ([node[key]] if how == IN_LIST else {key: node[key]}
                     if how == IN_OBJECT else copy.deepcopy(VALUES[how]))
    return command, cfg, path, how


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "path.csv").write_text("t,x1,x2\n0,0,1\n0.5,1,1\n1,0.5,2\n")
    return path


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutations())
def test_every_mutated_config_ends_in_a_documented_exit(workdir, case):
    command, cfg, path, how = case
    argv = [command, "--config", write_config(workdir, cfg)]
    if command != "validate":
        argv += ["--out", str(workdir / ("approx.json" if command == "approximate"
                                         else command))]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)  # a traceback would fail the test here
    err = err.getvalue()
    assert code in ((1,) if how in (EXTRA, HUGE) else (0, 1, 2, 3)), err
    if code == 1:
        message = json.loads(err)["message"]
        *parent, leaf = path
        if how == EXTRA:  # the block that holds the unknown key is named
            block = f"config {dotted(parent)}: " if parent else "config "
            assert message.startswith(f"{block}unknown key 'extra'"), (path, message)
            return
        named = f"{dotted(parent)}: {leaf!r}" if parent else repr(leaf)
        assert named in message or re.search(
            rf"config {re.escape(dotted(path))}[\[: ]", message), (path, message)


# ------------------------------------------------------------- output paths

SRBM_1D = {"matrix": [[1.0]], "mu": [0.0], "covariance": [[1.0]], "z0": [0.5],
           "horizon": 1.0, "steps": 10, "seed": 1}
WRITERS = {"approximate": ({"path": dict(BROWNIAN, dim=1, drift=[0.0],
                                         covariance=[[1.0]])}, "directory"),
           "simulate-srbm": (SRBM_1D, "file"),
           "verify": ({"suites": [{"name": "counterexample"}]}, "file")}


@pytest.mark.parametrize("command", sorted(WRITERS))
def test_an_output_path_that_cannot_be_written_exits_one(tmp_path, capsys, command):
    # these ended in an uncaught IsADirectoryError or FileExistsError
    cfg, taken = WRITERS[command]
    out = tmp_path / "taken"
    if taken == "directory":
        out.mkdir()
    else:
        out.write_text("")
    code, stdout, err = run(capsys, command, "--config", write_config(tmp_path, cfg),
                            "--out", str(out))
    assert (code, stdout) == (1, "")
    error = json.loads(err)
    assert error["error"] == "config" and str(out) in error["message"]


# ------------------------------------------------------- verify suite entries

@pytest.mark.parametrize("entry, key", [
    ({"name": "counterexample", "instances": 1, "levle": 5}, "levle"),
    ({"name": "counterexample", "instances": 1, "r21": "x"}, "r21"),
])
def test_a_bad_suite_entry_key_is_named(tmp_path, capsys, entry, key):
    # "levle" was passed on to the runner, which ignored it, and exited 0;
    # "r21": "x" exited through a bare ValueError repr
    cfg = write_config(tmp_path, {"suites": [entry]})
    code, out, err = run(capsys, "verify", "--config", cfg)
    assert (code, out) == (1, "")
    message = json.loads(err)["message"]
    assert "suites[0]" in message and repr(key) in message


@pytest.mark.parametrize("command, cfg, message", [
    ("simulate-cbp", {"cbp": dict(CBP, stream_ofset=3)}, "config cbp: unknown key 'stream_ofset'"),
    ("simulate-cbp", {"cbp": dict(CBP, q={"symmetric": 2, "qplus": [0.5, 0.5]})},
     "config cbp.q: unknown key 'qplus'"),
    ("solve", {"matrix": [[1.0]], "path": {"kind": "csv", "file": "p.csv", "fiel": 1}},
     "config path: unknown key 'fiel'"),
    ("approximate", {"path": BROWNIAN, "out": "approx.json"}, "config unknown key 'out'"),
    ("simulate-srbm", dict(SRBM_1D, mu=[10**400]), "config 'mu' must be"),
], ids=["cbp", "cbp.q", "path", "top level", "integer beyond the float range"])
def test_a_key_outside_its_table_is_named(tmp_path, capsys, command, cfg, message):
    # the unknown keys were ignored and the run exited 0 ("stream_ofset" ran at
    # stream offset 0); the integer beyond the float range ended at exit 4
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, cfg))
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith(message)


# -------------------------------------------------------------- validate tol

def test_validate_reads_tol_from_the_config_as_from_the_flag(tmp_path, capsys):
    # rho(Q) = 0.548 passes the default margin but not a margin of 0.5
    matrix = {"matrix": [[1.0, -0.5], [-0.6, 1.0]]}
    by_config = run(capsys, "validate", "--config",
                    write_config(tmp_path, dict(matrix, tol=0.5)))
    by_flag = run(capsys, "validate", "--config", write_config(tmp_path, matrix),
                  "--tol", "0.5")
    assert by_config == by_flag
    assert by_config[0] == 2
    assert json.loads(by_config[1])["matrix"]["accepted"] is False


# ------------------------------------------------------------------- README

def readme_examples():
    """(command, config) of each README block introduced as an example config."""
    text = README.read_text()
    return re.findall(r"Example `([\w-]+)` config[^\n]*\n\n```json\n(.*?)```", text,
                      re.DOTALL)


def test_the_readme_has_an_example_of_solve_and_of_verify():
    assert sorted(command for command, _ in readme_examples()) == ["solve", "verify"]


@pytest.mark.parametrize("command, config", readme_examples(),
                         ids=[command for command, _ in readme_examples()])
def test_readme_example_config_runs(tmp_path, capsys, command, config):
    cfg = write_config(tmp_path, json.loads(config))
    code, _, err = run(capsys, command, "--config", cfg, "--out", str(tmp_path / "out"))
    assert code == 0, err


# ------------------------------------------------------------ internal exit

def test_a_defect_exits_four_with_one_json_line(tmp_path, capsys, monkeypatch):
    def defect(cfg, args):
        raise RuntimeError("boom")

    table = cli.COMMANDS["validate"][1]
    monkeypatch.setitem(cli.COMMANDS, "validate", (defect, table))
    code, out, err = run(capsys, "validate", "--config",
                         write_config(tmp_path, {"matrix": [[1.0]]}))
    assert (code, out) == (cli.EXIT_INTERNAL, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "internal"
    assert error["message"].startswith("RuntimeError('boom') at ")
