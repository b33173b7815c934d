"""Command-line front end.

Commands: ``validate``, ``solve``, ``simulate-srbm``, ``simulate-cbp``,
``approximate``, ``verify``.  Configuration is JSON; trajectories are CSV
with JSON events sidecars.  Exit codes: 0 success, 1 config/IO error,
2 validation or suite failure, 3 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from numbers import Real
from pathlib import Path

import numpy as np

from . import comparison
from .errors import (
    ConfigError,
    ConvergenceError,
    OrthantSimError,
)
from .mmatrix import RADIUS_MARGIN, ReflectionMatrix, validate_reflection_m_matrix
from .paths import (
    BrownianSpec,
    RegularPath,
    SampledPath,
    sample_brownian,
    standard_regular_approximation,
)
from .particles import (
    CbpSpec,
    CollisionParams,
    gap_srbm,
    simulate_cbp,
    solve_competing,
)
from .skorokhod import (
    GRID_TOL,
    simulate_srbm,
    solve,
    write_solution,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors (exit 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _option(args, cfg: dict, name: str, default=None, required=False):
    """``--name`` if given, else the config's value, else ``default``.

    A tol must be a real > 0, a seed an integer >= 0, and any other option
    (level, steps, instances, ...) an integer >= 1; a bool, a string, a
    float for an integer, a value out of bounds or a missing ``required``
    one raises ``ConfigError``.  ``args`` may be None for a nested block.
    """
    value, source = getattr(args, name, None), f"--{name}"
    if value is None:
        value, source = cfg.get(name), f"config {name!r}"
    if value is None and not required:
        return default
    if name == "tol":
        rule, ok = "> 0 and of type real", isinstance(value, Real) and value > 0
    else:
        least = 0 if name == "seed" else 1
        rule, ok = f">= {least} and of type int", isinstance(value, int) and value >= least
    if isinstance(value, bool) or not ok:
        raise ConfigError(f"{source} must be {rule}, got {value!r}")
    return value


def _method(args, cfg: dict) -> str:
    """``--method`` if given, else the config's ``"method"`` (default exact)."""
    method = args.method or cfg.get("method", "exact")
    if method not in ("exact", "grid"):
        raise ConfigError(f"config 'method' must be 'exact' or 'grid', got {method!r}")
    return method


def _load_path(cfg, base: Path):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ConfigError("path source needs a 'kind' field")
    kind = cfg["kind"]
    if kind == "regular":
        return RegularPath.from_jsonable(cfg)
    if kind == "csv":
        file = base / cfg["file"]
        try:
            with open(file) as fh:
                return SampledPath.from_csv(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read path CSV {file}: {exc}") from exc
        except OrthantSimError as exc:
            raise ConfigError(f"malformed path CSV {file}: {exc}") from exc
    if kind == "brownian":
        for name in ("dim", "steps", "seed"):
            _option(None, cfg, name, required=True)
        return sample_brownian(BrownianSpec.from_jsonable(cfg))
    raise ConfigError(f"unknown path kind {cfg['kind']!r}")


def cmd_validate(cfg: dict, args) -> int:
    """Validate a reflection matrix and/or collision parameters."""
    report = {}
    accepted = True
    if "matrix" not in cfg and "collision_params" not in cfg:
        raise ConfigError("config needs 'matrix' and/or 'collision_params'")
    if "matrix" in cfg:
        res = validate_reflection_m_matrix(np.asarray(cfg["matrix"], dtype=float),
                                           tol=_option(args, {}, "tol", RADIUS_MARGIN))
        report["matrix"] = {
            "accepted": res.accepted,
            "reason": res.reason,
            "spectral_radius": res.spectral_radius,
        }
        accepted &= res.accepted
    if "collision_params" in cfg:
        try:
            q = CollisionParams.from_jsonable(cfg["collision_params"])
            report["collision_params"] = {"accepted": True,
                                          "n_particles": q.n_particles}
        except OrthantSimError as exc:
            report["collision_params"] = {"accepted": False, "reason": str(exc)}
            accepted = False
    report["accepted"] = accepted
    _emit(report)
    return EXIT_OK if accepted else EXIT_VALIDATION


def _out_dir(cfg: dict, args) -> Path:
    out = Path(args.out or cfg.get("out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_solution(sol, out: Path, stem: str) -> dict:
    csv_path = out / f"{stem}.csv"
    events_path = out / f"{stem}_events.json"
    with open(csv_path, "w") as fh:
        with open(events_path, "w") as eh:
            write_solution(sol, fh, eh)
    return {"csv": str(csv_path), "events": str(events_path)}


def cmd_solve(cfg: dict, args) -> int:
    """Solve one Skorohod or competing-particle problem and export it."""
    out = _out_dir(cfg, args)
    method = _method(args, cfg)
    level = _option(args, cfg, "level")
    tol = _option(args, cfg, "tol", GRID_TOL)
    path = _load_path(cfg.get("path"), Path(args.config).parent)
    summary = {"method": method}
    # the grid oracle needs a sampled path: sample a regular one on a grid
    regrid = path
    grid_points = _option(args, cfg, "grid_points", 2000)
    if isinstance(path, RegularPath):
        grid = np.linspace(0.0, path.horizon, grid_points + 1)
        regrid = SampledPath(grid, path.values_at(grid))
    driver = regrid if method == "grid" else path

    if "matrix" in cfg:
        R = ReflectionMatrix(np.asarray(cfg["matrix"], dtype=float))
        sol = solve(R, driver, method, level, tol)
        if cfg.get("compare_methods"):
            other = solve(R, regrid, "grid", tol=tol)
            ts = other.Z.times
            summary["sup_difference"] = float(
                np.abs(sol.Z.values_at(ts) - other.Z.values).max())
        summary["files"] = _write_solution(sol, out, "skorokhod")
        summary["final_l"] = sol.final_boundary_terms.tolist()
    elif "collision_params" in cfg:
        q = CollisionParams.from_jsonable(cfg["collision_params"])
        sol = solve_competing(q, driver, n=level, method=method, tol=tol)
        summary["files"] = _write_solution(sol, out, "particles")
        summary["final_l"] = sol.final_collision_terms.tolist()
    else:
        raise ConfigError("config needs 'matrix' or 'collision_params'")

    summary["phases"] = len(sol.events) + 1
    _emit(summary)
    return EXIT_OK


def cmd_simulate_srbm(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    R = ReflectionMatrix(np.asarray(cfg["matrix"], dtype=float))
    sol = simulate_srbm(
        R,
        np.asarray(cfg["mu"], dtype=float),
        np.asarray(cfg["covariance"], dtype=float),
        np.asarray(cfg["z0"], dtype=float),
        float(cfg["horizon"]),
        _option(args, cfg, "steps", required=True),
        _option(args, cfg, "seed", required=True),
        method=_method(args, cfg),
        level=_option(args, cfg, "level"),
        tol=_option(args, cfg, "tol", GRID_TOL),
    )
    files = _write_solution(sol, out, "srbm")
    _emit({"files": files, "phases": len(sol.events) + 1,
           "final_l": sol.final_boundary_terms.tolist()})
    return EXIT_OK


def cmd_simulate_cbp(cfg: dict, args) -> int:
    out = _out_dir(cfg, args)
    spec_cfg = dict(cfg.get("cbp", cfg))
    spec_cfg["seed"] = _option(args, spec_cfg, "seed", required=True)
    _option(None, spec_cfg, "steps", required=True)
    spec = CbpSpec.from_jsonable(spec_cfg)
    level = _option(args, cfg, "level")
    sol = simulate_cbp(spec, _method(args, cfg), level,
                       _option(args, cfg, "tol", GRID_TOL))
    files = _write_solution(sol, out, "cbp")
    summary = {"files": files, "phases": len(sol.events) + 1,
               "final_l": sol.final_collision_terms.tolist()}
    if cfg.get("gap_check"):
        srbm = gap_srbm(spec, level)
        ts = np.union1d(sol.Z.times, srbm.Z.times)
        summary["gap_srbm_discrepancy"] = float(
            np.abs(sol.Z.values_at(ts) - srbm.Z.values_at(ts)).max())
    _emit(summary)
    return EXIT_OK


def cmd_approximate(cfg: dict, args) -> int:
    path = _load_path(cfg.get("path"), Path(args.config).parent)
    if isinstance(path, RegularPath):
        raise ConfigError("approximate expects a sampled path source")
    reg = standard_regular_approximation(path, _option(args, cfg, "level", 1))
    obj = reg.to_jsonable()
    obj["kind"] = "regular"
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        _emit({"file": str(out), "segments": len(reg.axes)})
    else:
        _emit(obj)
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    """Run the named comparison suites and report per-instance outcomes."""
    suites = cfg.get("suites")
    if not isinstance(suites, list) or not suites:
        raise ConfigError("config needs a nonempty 'suites' list")
    seed = _option(args, cfg, "seed", 0)
    results = []
    all_passed = True
    checked = ("tol", "level", "steps", "n_max", "d_max", "grid")
    for entry in suites:
        if not isinstance(entry, dict) or "name" not in entry:
            raise ConfigError("each suite entry needs a 'name'")
        opts = {k: v for k, v in entry.items()
                if k not in ("name", "instances", *checked)}
        for name in checked:
            value = _option(args, entry, name)
            if value is not None:
                opts[name] = value
        res = comparison.run_suite(entry["name"], _option(args, entry, "instances", 1),
                                   seed, **opts)
        results.append(res.to_jsonable())
        all_passed &= res.passed
    report = {"passed": all_passed, "seed": seed, "suites": results}
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "verify_report.json").write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit({"passed": all_passed,
           "suites": {r["suite"]: r["passed"] for r in results}})
    return EXIT_OK if all_passed else EXIT_VALIDATION


def _build_parser() -> _Parser:
    parser = _Parser(prog="orthantsim",
                     description="Oblique reflection and competing-particle "
                                 "simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config file")
        for flag in COMMAND_FLAGS[name]:
            p.add_argument(f"--{flag}", **FLAGS[flag])
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "solve": cmd_solve,
    "simulate-srbm": cmd_simulate_srbm,
    "simulate-cbp": cmd_simulate_cbp,
    "approximate": cmd_approximate,
    "verify": cmd_verify,
}

# flag -> argparse options; each command takes only the flags it reads, and
# any other flag exits 1
FLAGS = {"seed": {"type": int}, "out": {"help": "output directory/file"},
         "method": {"choices": ["exact", "grid"]}, "level": {"type": int},
         "tol": {"type": float}}
COMMAND_FLAGS = {
    "validate": ("tol",),
    "solve": ("out", "method", "level", "tol"),
    "simulate-srbm": ("seed", "out", "method", "level", "tol"),
    "simulate-cbp": ("seed", "out", "method", "level", "tol"),
    "approximate": ("out", "level"),
    "verify": ("seed", "out", "level", "tol"),
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(json.dumps({"error": "config", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except (KeyError, TypeError, ValueError) as exc:
        print(json.dumps({"error": "config", "message": repr(exc)}),
              file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(json.dumps({"error": "solver", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_SOLVER
    except OrthantSimError as exc:
        print(json.dumps({"error": "validation", "message": str(exc)}),
              file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
