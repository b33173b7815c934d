"""The three benchmark workloads: inputs from a seed, ops, output checks.

Each workload turns a seed into its inputs once (``make_inputs``), then hands
out rounds of ops in a fixed round-robin over its sizes (``round_ops``).  An
op is one call into the library; its output is checked outside the timed
region by ``Op.check``.  ``corrupt`` damages one row of an output so that a
run can prove its checks still reject a bad solution.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from checks import (
    csv_problems,
    particle_problems,
    reflected_problems,
    sweep_driver_at,
)

HORIZON = 1.0
MC_STEPS = 1000
# 2 500 rows per CLI run, not the 10 000 of the library's ROADMAP baseline:
# four times as many ops fit in a run, so the fastest op of each size is
# reached more surely on a shared host (bench/README.md).
CLI_STEPS = 2_500
GRID_TOL = 1e-8          # simulate_srbm / solve_competing default grid tolerance
COROLLARY_OPTS = {"steps": 1000, "level": 200, "n_max": 6}
SUITE_ROUND = (
    ("removal_right", COROLLARY_OPTS),
    ("removal_two_sided", COROLLARY_OPTS),
    ("initial_shift", COROLLARY_OPTS),
    ("increase_qplus", COROLLARY_OPTS),
    ("drift", COROLLARY_OPTS),
    ("gap_srbm", {"steps": 300, "n_max": 5, "tol": 1e-8}),
)
# Inputs that set how often a path pushes, and so the work per op.  They are
# fixed, so that the work does not change with the seed.  The SRBM ones put
# the share of pushing axis-sweep segments in the 1-3% band measured for
# ROADMAP item 2 (about 1.1% / 1.8% / 1.3% at d = 2 / 5 / 10); the CBP start
# gap is the mean gap of comparison.random_cbp_spec, uniform on [0, 0.6].
# bench/README.md gives the shares per size.
SRBM_DRIFT = 0.0
SRBM_START = 0.7
SRBM_RHO = 0.5           # spectral radius of Q in R = I - Q
CBP_START_GAP = 0.3
# SRBM and CBP sizes alternate so that each round mixes both simulators.
SIZE_ROUND = (("srbm", 2), ("cbp", 3), ("srbm", 5), ("cbp", 6),
              ("srbm", 10), ("cbp", 10))


@dataclass
class Op:
    label: str                      # size or suite, e.g. "srbm_d5"
    run: Callable[[], Any]          # the timed call
    check: Callable[[Any], list]    # problems with the output, untimed


def op_seed(seed: int, round_index: int, slot: int) -> int:
    """Noise seed of one op, derived from the workload seed."""
    ss = np.random.SeedSequence([seed, round_index, slot])
    return int(ss.generate_state(1)[0])


def _rng(seed: int, key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, key]))


def _srbm_model(rng: np.random.Generator, d: int) -> dict:
    """Random reflection matrix pattern and covariance correlations."""
    Q = rng.uniform(0.05, 1.0, (d, d))
    np.fill_diagonal(Q, 0.0)
    Q *= SRBM_RHO / np.abs(np.linalg.eigvals(Q)).max()
    G = rng.uniform(-0.3, 0.3, (d, d))
    return {
        "matrix": np.eye(d) - Q,
        "mu": np.full(d, SRBM_DRIFT),
        "covariance": np.eye(d) + G @ G.T / d,
        "z0": np.full(d, SRBM_START),
    }


def _cbp_model(rng: np.random.Generator, n: int) -> dict:
    """Collision shares, drifts and variances near the symmetric system."""
    qminus = rng.uniform(0.4, 0.6, n)
    return {
        "g": rng.uniform(-0.1, 0.1, n),
        "sigma2": rng.uniform(0.9, 1.1, n),
        "qplus": np.concatenate([[0.5], 1.0 - qminus[:-1]]),
        "qminus": qminus,
        "y0": np.arange(n) * CBP_START_GAP,
    }


def _cbp_spec(lib, model: dict, steps: int, seed: int):
    return lib.particles.CbpSpec(
        g=tuple(model["g"]), sigma2=tuple(model["sigma2"]),
        q=lib.particles.CollisionParams(tuple(model["qplus"]),
                                        tuple(model["qminus"])),
        y0=tuple(model["y0"]), horizon=HORIZON, steps=steps, seed=seed)


def _models(seed: int) -> dict:
    rng = _rng(seed, 1)
    models = {}
    for kind, size in SIZE_ROUND:
        make = _srbm_model if kind == "srbm" else _cbp_model
        models[(kind, size)] = make(rng, size)
    return models


def size_label(kind: str, size: int) -> str:
    return f"srbm_d{size}" if kind == "srbm" else f"cbp_n{size}"


# ---------------------------------------------------------------------------
# Solution checks shared by the simulation workloads

def _srbm_driver(lib, model: dict, steps: int, seed: int):
    """Sampled SRBM driver z0 + B rebuilt through the public paths API."""
    d = len(model["z0"])
    B = lib.paths.sample_brownian(lib.paths.BrownianSpec(
        d, model["mu"], model["covariance"], HORIZON, steps, seed))
    return B.times, model["z0"] + B.values


def _cbp_gap_driver(lib, model: dict, steps: int, seed: int):
    """Particle driver y0 + g t + sigma B rebuilt from the seed; returns its
    grid, the gap driver diff(X) on it, and X's largest step increment."""
    n = len(model["y0"])
    B = lib.paths.brownian_components(n, HORIZON, steps, seed)
    X = lib.paths.cbp_driving_path(model["y0"], model["g"],
                                   np.sqrt(model["sigma2"]), B)
    step = float(np.abs(np.diff(X.values, axis=0)).max())
    return X.times, np.diff(X.values, axis=1), step


def _gap_matrix(lib, model: dict) -> np.ndarray:
    """The library's gap-process reflection matrix.  The CBP checks do not
    rest on it alone: Z = diff(Y) and the rank order are checked directly."""
    q = lib.particles.CollisionParams(tuple(model["qplus"]),
                                      tuple(model["qminus"]))
    return lib.particles.reflection_matrix_from_params(q).entries


def _check_srbm_exact(lib, model, steps, seed, sol) -> list[str]:
    times, values = _srbm_driver(lib, model, steps, seed)
    X = sweep_driver_at(times, values, steps, sol.Z.times)
    return reflected_problems(sol.Z.values, sol.L.values, X, model["matrix"])


def _check_cbp_exact(lib, model, steps, seed, sol) -> list[str]:
    times, values, step = _cbp_gap_driver(lib, model, steps, seed)
    W = sweep_driver_at(times, values, steps, sol.Z.times)
    R = _gap_matrix(lib, model)
    return (particle_problems(sol.Y.times, sol.Y.values, sol.Z.values, times,
                              step)
            + reflected_problems(sol.Z.values, sol.L.values, W, R))


def _corrupt_solution(sol):
    """Copy of a solution with one row of Z shifted off the solution."""
    Z = sol.Z.values.copy()
    Z[len(Z) // 2, 0] += 1.0
    return replace(sol, Z=type(sol.Z)(sol.Z.times, Z))


# ---------------------------------------------------------------------------
# mc_exact: one simulate_srbm / simulate_cbp call with method="exact"

class McExact:
    name = "mc_exact"

    def make_inputs(self, lib, seed: int, workdir: Path):
        inputs = _models(seed)
        for (kind, size), model in inputs.items():
            if kind == "srbm":
                model["R"] = lib.mmatrix.ReflectionMatrix(model["matrix"])
        return inputs

    def round_ops(self, lib, inputs, seed: int, r: int) -> list[Op]:
        ops = []
        for slot, (kind, size) in enumerate(SIZE_ROUND):
            model = inputs[(kind, size)]
            s = op_seed(seed, r, slot)
            if kind == "srbm":
                run = (lambda m=model, s=s: lib.skorokhod.simulate_srbm(
                    m["R"], m["mu"], m["covariance"], m["z0"], HORIZON,
                    MC_STEPS, s, method="exact", level=MC_STEPS))
                check = (lambda sol, m=model, s=s:
                         _check_srbm_exact(lib, m, MC_STEPS, s, sol))
            else:
                spec = _cbp_spec(lib, model, MC_STEPS, s)
                run = (lambda spec=spec: lib.particles.simulate_cbp(
                    spec, method="exact", level=MC_STEPS))
                check = (lambda sol, m=model, s=s:
                         _check_cbp_exact(lib, m, MC_STEPS, s, sol))
            ops.append(Op(size_label(kind, size), run, check))
        return ops

    def corrupt(self, output):
        return _corrupt_solution(output)


# ---------------------------------------------------------------------------
# cli_grid_export: one in-process cli.main call with --method grid

def _srbm_config(model: dict) -> dict:
    return {"matrix": model["matrix"].tolist(), "mu": model["mu"].tolist(),
            "covariance": model["covariance"].tolist(),
            "z0": model["z0"].tolist(), "horizon": HORIZON,
            "steps": CLI_STEPS, "seed": 0}


def _cbp_config(model: dict) -> dict:
    return {"cbp": {"g": model["g"].tolist(), "sigma2": model["sigma2"].tolist(),
                    "q": {"qplus": model["qplus"].tolist(),
                          "qminus": model["qminus"].tolist()},
                    "y0": model["y0"].tolist(), "horizon": HORIZON,
                    "steps": CLI_STEPS, "seed": 0}}


def _srbm_header(d: int) -> list[str]:
    return (["t"] + [f"z{k + 1}" for k in range(d)]
            + [f"l{k + 1}" for k in range(d)])


def _cbp_header(n: int) -> list[str]:
    return (["t"] + [f"y{k + 1}" for k in range(n)]
            + [f"l{k + 1}{k + 2}" for k in range(n - 1)]
            + [f"z{k + 1}" for k in range(n - 1)])


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    out_dir: Path
    stem: str

    @property
    def csv_path(self) -> Path:
        return self.out_dir / f"{self.stem}.csv"

    @property
    def events_path(self) -> Path:
        return self.out_dir / f"{self.stem}_events.json"


def run_cli(lib, argv: list[str], out_dir: Path, stem: str) -> CliOutput:
    """cli.main in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.main(argv)
    return CliOutput(code, out.getvalue(), err.getvalue(), out_dir, stem)


def _check_cli(lib, kind: str, model: dict, seed: int, res: CliOutput) -> list[str]:
    if res.code != 0:
        return [f"cli exit code {res.code}: {res.stderr.strip()[:200]}"]
    try:
        summary = json.loads(res.stdout)
        events = json.loads(res.events_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"cli output unreadable: {exc}"]
    if summary["files"]["csv"] != str(res.csv_path):
        return [f"summary names {summary['files']['csv']}, not {res.csv_path}"]
    if kind == "srbm":
        R = lib.mmatrix.ReflectionMatrix(model["matrix"])
        sol = lib.skorokhod.simulate_srbm(
            R, model["mu"], model["covariance"], model["z0"], HORIZON,
            CLI_STEPS, seed, method="grid", tol=GRID_TOL)
        header = _srbm_header(R.dim)
        table = np.hstack([sol.Z.times[:, None], sol.Z.values, sol.L.values])
        times, values = _srbm_driver(lib, model, CLI_STEPS, seed)
        problems = reflected_problems(sol.Z.values, sol.L.values, values,
                                      model["matrix"], grid_tol=GRID_TOL)
    else:
        sol = lib.particles.simulate_cbp(_cbp_spec(lib, model, CLI_STEPS, seed),
                                         method="grid")
        header = _cbp_header(len(model["y0"]))
        table = np.hstack([sol.Y.times[:, None], sol.Y.values, sol.L.values,
                           sol.Z.values])
        times, W, step = _cbp_gap_driver(lib, model, CLI_STEPS, seed)
        R = _gap_matrix(lib, model)
        problems = (particle_problems(sol.Y.times, sol.Y.values, sol.Z.values,
                                      times, step, grid_tol=GRID_TOL)
                    + reflected_problems(sol.Z.values, sol.L.values, W, R,
                                         grid_tol=GRID_TOL))
    if not np.array_equal(times, sol.Z.times):
        problems.append("library grid solve is not on the sample grid")
    if summary["final_l"] != sol.L.values[-1].tolist():
        problems.append("summary final_l differs from the library solve")
    if events != sol.events_to_jsonable():
        problems.append("events sidecar differs from the library solve")
    return problems + csv_problems(res.csv_path, header, table)


class CliGridExport:
    name = "cli_grid_export"

    def make_inputs(self, lib, seed: int, workdir: Path):
        inputs = {"models": _models(seed), "configs": {}, "out": {}}
        for (kind, size), model in inputs["models"].items():
            label = size_label(kind, size)
            cfg = _srbm_config(model) if kind == "srbm" else _cbp_config(model)
            path = workdir / f"{label}.json"
            path.write_text(json.dumps(cfg))
            inputs["configs"][(kind, size)] = str(path)
            out = workdir / label
            out.mkdir(exist_ok=True)
            inputs["out"][(kind, size)] = out
        return inputs

    def round_ops(self, lib, inputs, seed: int, r: int) -> list[Op]:
        ops = []
        for slot, (kind, size) in enumerate(SIZE_ROUND):
            s = op_seed(seed, r, slot)
            out = inputs["out"][(kind, size)]
            command = "simulate-srbm" if kind == "srbm" else "simulate-cbp"
            argv = [command, "--config", inputs["configs"][(kind, size)],
                    "--seed", str(s), "--method", "grid", "--out", str(out)]
            run = (lambda argv=argv, out=out, kind=kind:
                   run_cli(lib, argv, out, kind))
            model = inputs["models"][(kind, size)]
            check = (lambda res, kind=kind, m=model, s=s:
                     _check_cli(lib, kind, m, s, res))
            ops.append(Op(size_label(kind, size), run, check))
        return ops

    def corrupt(self, output: CliOutput) -> CliOutput:
        """Rewrite one CSV data row with its last value changed."""
        lines = output.csv_path.read_text().split("\n")
        k = len(lines) // 2
        fields = lines[k].split(",")
        fields[-1] = repr(float(fields[-1]) + 1.0)
        lines[k] = ",".join(fields)
        output.csv_path.write_text("\n".join(lines))
        return output


# ---------------------------------------------------------------------------
# verify_corollaries: one comparison.run_suite(name, 1, seed) instance

def _check_suite(result) -> list[str]:
    if len(result.results) != 1:
        return [f"{result.name}: {len(result.results)} instances, expected 1"]
    return [f"{result.name} {r.seed}: {r.error or 'margin above tolerance'}"
            for r in result.results if not r.passed]


class VerifyCorollaries:
    name = "verify_corollaries"

    def make_inputs(self, lib, seed: int, workdir: Path):
        return None  # instance inputs derive from each op's seed in run_suite

    def round_ops(self, lib, inputs, seed: int, r: int) -> list[Op]:
        ops = []
        for slot, (suite, opts) in enumerate(SUITE_ROUND):
            s = op_seed(seed, r, slot)
            run = (lambda suite=suite, opts=opts, s=s:
                   lib.comparison.run_suite(suite, 1, s, **opts))
            ops.append(Op(suite, run, _check_suite))
        return ops

    def corrupt(self, output):
        """Replace the instance by one that failed its precondition."""
        bad = replace(output.results[0], report=None,
                      error="precondition: injected by the self-test")
        return replace(output, results=(bad,))


WORKLOADS = {w.name: w for w in (McExact(), CliGridExport(), VerifyCorollaries())}


def library_namespace() -> SimpleNamespace:
    """The orthantsim modules that the workloads and the tracer use."""
    return SimpleNamespace(**{
        m: importlib.import_module(f"orthantsim.{m}")
        for m in ("paths", "mmatrix", "skorokhod", "particles", "comparison",
                  "cli")})
