"""Command-line front end.

Commands: ``validate``, ``solve``, ``simulate-srbm``, ``simulate-cbp``,
``approximate``, ``verify``.  Configuration is JSON, read through one key
table per command (``COMMANDS``) before anything runs; trajectories are CSV
with JSON events sidecars.  Exit codes: 0 success, 1 config/IO error,
2 validation or suite failure, 3 solver failure, 4 internal error (a defect).
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import sys
from pathlib import Path

import numpy as np

from . import comparison
from .errors import ConfigError, ConvergenceError, OrthantSimError
from .mmatrix import RADIUS_MARGIN, ReflectionMatrix, validate_reflection_m_matrix
from .paths import (BrownianSpec, RegularPath, SampledPath, sample_brownian,
                    standard_regular_approximation)
from .particles import CbpSpec, CollisionParams, gap_srbm, simulate_cbp, solve_competing
from .skorokhod import GRID_TOL, simulate_srbm, solve, write_solution

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # usage problems are configuration errors (exit 1), not argparse's 2
    def error(self, message):
        raise ConfigError(message)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a >4300-digit int
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# The tables are the only reader of the config format.  A table maps each key
# a config block may hold to a Key.  A kind is an int k (an integer >= k), a
# tuple of choices, a rule of KINDS, a table (a nested block), a function of the
# block that gives its table, or a one-table list (a nonempty list of blocks).
# A value is ``--key`` if the Key has a flag, else the block's (not for
# FLAG_ONLY, no config key), else the default; null is unset.

REALS = frozenset((int, float))  # the types of a JSON number; a bool is not one
MAX = sys.float_info.max  # the bound of a JSON integer, which becomes a float


def _real(v, types=REALS) -> bool:  # of types; an int only in the float range
    return type(v) in types and (type(v) is float or -MAX <= v <= MAX)


def _list_of(v, test) -> bool:
    return type(v) is list and len(v) > 0 and all(map(test, v))


KINDS = {  # rule -> test of a JSON value
    "finite, > 0 and of type real": lambda v: type(v) in REALS and 0 < v <= MAX,
    "of type real, in the float range": _real,
    "a nonempty list of reals in the float range": lambda v: _list_of(v, _real),
    "a nonempty list of integers in the float range":
        lambda v: _list_of(v, lambda x: _real(x, {int})),
    "a nonempty list of equal-length nonempty lists of reals in the float range":
        lambda v: _list_of(v, lambda row: type(row) is list)
        and len(set(map(len, v))) == 1 and _list_of([*itertools.chain(*v)], _real),
    "true or false": lambda v: type(v) is bool,
    "a string": lambda v: type(v) is str,
}
REAL, NUMBER, VECTOR, INTS, MATRIX, BOOL, TEXT = KINDS
REQUIRED = object()  # the default of a key that has none
FLAG, FLAG_ONLY = 1, 2
Key = collections.namedtuple("Key", "kind default flag", defaults=(None, 0))


def _one_of(first: dict, second: dict):
    """The table of a block written in one of two forms: ``second`` if the
    block holds a key of ``second`` alone and none of ``first`` alone."""
    only_first, only_second = first.keys() - second.keys(), second.keys() - first.keys()
    return lambda block: (second if block.keys().isdisjoint(only_first)
                          and not block.keys().isdisjoint(only_second) else first)


PATHS = {  # path sources, by their "kind"
    "regular": {"start": Key(VECTOR, REQUIRED), "breakpoints": Key(VECTOR, REQUIRED),
                "axes": Key(INTS, REQUIRED), "slopes": Key(VECTOR, REQUIRED)},
    "csv": {"file": Key(TEXT, REQUIRED)},
    "brownian": {"dim": Key(1, REQUIRED), "drift": Key(VECTOR, REQUIRED),
                 "covariance": Key(MATRIX, REQUIRED), "horizon": Key(REAL, REQUIRED),
                 "steps": Key(1, REQUIRED), "seed": Key(0, REQUIRED)},
}
PATH = lambda block: {"kind": Key(tuple(PATHS), REQUIRED), **next(  # noqa: E731
    (table for kind, table in PATHS.items() if kind == block.get("kind")), {})}
PARAMS = _one_of({"symmetric": Key(NUMBER, REQUIRED)},
                 {"qplus": Key(VECTOR, REQUIRED), "qminus": Key(VECTOR, REQUIRED)})
RUN = {"out": Key(TEXT, ".", FLAG), "method": Key(("exact", "grid"), "exact", FLAG),
       "level": Key(1, None, FLAG), "tol": Key(REAL, GRID_TOL, FLAG)}
CBP = {"g": Key(VECTOR, REQUIRED), "sigma2": Key(VECTOR, REQUIRED),
       "q": Key(PARAMS, REQUIRED), "y0": Key(VECTOR, REQUIRED),
       "horizon": Key(REAL, REQUIRED), "steps": Key(1, REQUIRED),
       "seed": Key(0, REQUIRED, FLAG), "stream_offset": Key(0, 0)}
SUITE = {"name": Key(TEXT, REQUIRED), "instances": Key(1, 1), "tol": Key(REAL, None, FLAG),
         "level": Key(1, None, FLAG), "steps": Key(1), "n_max": Key(1), "d_max": Key(1),
         "grid": Key(1), "break_hypothesis": Key(BOOL), "r21": Key(REAL)}


def _read(table, block, args, path: str = "") -> dict:
    """The checked values of ``table``'s keys in the JSON object ``block``, at
    ``path`` in the config (e.g. ``cbp.q``), which may hold no other key."""
    where = f"{path}: " if path else ""
    if type(block) is not dict:
        raise ConfigError(f"config {path or 'file'} must be a JSON object, got {block!r}")
    table = table(block) if callable(table) else table
    out = {}
    for key, (kind, default, flag) in table.items():
        value, name = getattr(args, key, None) if flag else None, f"--{key}"
        if value is None and flag != FLAG_ONLY:
            value, name = block.get(key), f"config {where}{key!r}"
        if value is not None:
            out[key] = _check(kind, value, name, f"{path}.{key}" if path else key, args)
        elif default is REQUIRED:
            raise ConfigError(f"config {where}{key!r} is required")
        elif default is not None:
            out[key] = default
    known = [key for key, entry in table.items() if entry.flag != FLAG_ONLY]
    if unknown := sorted(block.keys() - set(known)):
        raise ConfigError(f"config {where}unknown key {unknown[0]!r}, not one of {known}")
    return out


def _check(kind, value, name: str, path: str, args):
    """``value`` if it is of ``kind`` (a block: read through its table), else a
    ``ConfigError`` that names it."""
    if isinstance(kind, dict) or callable(kind):
        return _read(kind, value, args, path)
    if isinstance(kind, list):
        rule, ok = "a nonempty list", type(value) is list and len(value) > 0
    elif isinstance(kind, tuple):
        rule, ok = " or ".join(map(repr, kind)), value in kind
    elif isinstance(kind, int):
        rule, ok = f">= {kind}, of type int and in the float range", (
            _real(value, {int}) and value >= kind)
    else:
        rule, ok = kind, KINDS[kind](value)
    if not ok:
        raise ConfigError(f"{name} must be {rule}, got {value!r}")
    if isinstance(kind, list):
        return [_read(kind[0], v, args, f"{path}[{i}]") for i, v in enumerate(value)]
    return value


def _flags(table) -> dict:
    """``--key`` -> argparse options, for each flagged key of ``table``'s blocks."""
    flags = {}
    for key, (kind, _, flag) in (table({}) if callable(table) else table).items():
        if flag:
            flags[f"--{key}"] = ({"type": int} if isinstance(kind, int) else
                                 {"type": float} if kind == REAL else
                                 {"choices": kind} if isinstance(kind, tuple) else {})
        elif isinstance(kind, (dict, list)):
            flags.update(_flags(kind if isinstance(kind, dict) else kind[0]))
    return flags


def _params(block: dict) -> CollisionParams:
    """The collision shares of a checked shares block."""
    if "symmetric" in block:
        return CollisionParams.symmetric(block["symmetric"])
    return CollisionParams(**block)


def _load_path(src: dict, base: Path):
    """The driving path of a checked path source."""
    kind, fields = src["kind"], {key: v for key, v in src.items() if key != "kind"}
    if kind == "brownian":
        return sample_brownian(BrownianSpec(**fields))
    try:
        if kind == "regular":
            return RegularPath(**fields)
        with open(base / src["file"]) as fh:
            return SampledPath.from_csv(fh)
    except (OSError, OrthantSimError) as exc:
        what = ("malformed regular path" if kind == "regular"
                else f"'file' {base / src['file']} is unreadable")
        raise ConfigError(f"config path: {what}: {exc}") from exc


@contextlib.contextmanager
def _output(path: Path):
    """``path`` open for writing, its directory made; an OSError names it."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _write_solution(sol, out: str, stem: str) -> dict:
    csv_path, events_path = Path(out) / f"{stem}.csv", Path(out) / f"{stem}_events.json"
    with _output(csv_path) as fh, _output(events_path) as eh:
        write_solution(sol, fh, eh)
    return {"csv": str(csv_path), "events": str(events_path)}


def cmd_validate(cfg: dict, args) -> int:
    """Validate a reflection matrix and/or collision parameters."""
    report, accepted = {}, True
    if "matrix" not in cfg and "collision_params" not in cfg:
        raise ConfigError("config needs 'matrix' and/or 'collision_params'")
    if "matrix" in cfg:
        res = validate_reflection_m_matrix(cfg["matrix"], tol=cfg["tol"])
        report["matrix"] = {"accepted": res.accepted, "reason": res.reason,
                            "spectral_radius": res.spectral_radius}
        accepted &= res.accepted
    if "collision_params" in cfg:
        try:
            q = _params(cfg["collision_params"])
            report["collision_params"] = {"accepted": True,
                                          "n_particles": q.n_particles}
        except OrthantSimError as exc:
            report["collision_params"] = {"accepted": False, "reason": str(exc)}
            accepted = False
    report["accepted"] = accepted
    _emit(report)
    return EXIT_OK if accepted else EXIT_VALIDATION


def cmd_solve(cfg: dict, args) -> int:
    """Solve one Skorohod or competing-particle problem and export it."""
    if "matrix" not in cfg and "collision_params" not in cfg:
        raise ConfigError("config needs 'matrix' or 'collision_params'")
    method, level, tol = cfg["method"], cfg.get("level"), cfg["tol"]
    path = _load_path(cfg["path"], Path(args.config).parent)
    summary = {"method": method}
    # the grid oracle needs a sampled path: sample a regular one on a grid
    regrid = path
    if isinstance(path, RegularPath):
        grid = np.linspace(0.0, path.horizon, cfg["grid_points"] + 1)
        regrid = SampledPath(grid, path.values_at(grid))
    driver = regrid if method == "grid" else path
    if "matrix" in cfg:
        R = ReflectionMatrix(cfg["matrix"])
        sol = solve(R, driver, method, level, tol)
        if cfg["compare_methods"]:
            other = solve(R, regrid, "grid", tol=tol)
            ts = other.Z.times
            summary["sup_difference"] = float(
                np.abs(sol.Z.values_at(ts) - other.Z.values).max())
        summary["files"] = _write_solution(sol, cfg["out"], "skorokhod")
        summary["final_l"] = sol.final_boundary_terms.tolist()
    else:
        q = _params(cfg["collision_params"])
        sol = solve_competing(q, driver, n=level, method=method, tol=tol)
        summary["files"] = _write_solution(sol, cfg["out"], "particles")
        summary["final_l"] = sol.final_collision_terms.tolist()
    summary["phases"] = len(sol.events) + 1
    _emit(summary)
    return EXIT_OK


def cmd_simulate_srbm(cfg: dict, args) -> int:
    sol = simulate_srbm(ReflectionMatrix(cfg["matrix"]), cfg["mu"], cfg["covariance"],
                        cfg["z0"], float(cfg["horizon"]), cfg["steps"], cfg["seed"],
                        cfg["method"], cfg.get("level"), cfg["tol"])
    files = _write_solution(sol, cfg["out"], "srbm")
    _emit({"files": files, "phases": len(sol.events) + 1,
           "final_l": sol.final_boundary_terms.tolist()})
    return EXIT_OK


def cmd_simulate_cbp(cfg: dict, args) -> int:
    block = cfg.get("cbp", cfg)  # the "cbp" block, or the config in the flat form
    spec = CbpSpec(**{key: block[key] for key in CBP} | {"q": _params(block["q"])})
    sol = simulate_cbp(spec, cfg["method"], cfg.get("level"), cfg["tol"])
    files = _write_solution(sol, cfg["out"], "cbp")
    summary = {"files": files, "phases": len(sol.events) + 1,
               "final_l": sol.final_collision_terms.tolist()}
    if cfg["gap_check"]:
        srbm = gap_srbm(spec, cfg.get("level"))
        ts = np.union1d(sol.Z.times, srbm.Z.times)
        summary["gap_srbm_discrepancy"] = float(
            np.abs(sol.Z.values_at(ts) - srbm.Z.values_at(ts)).max())
    _emit(summary)
    return EXIT_OK


def cmd_approximate(cfg: dict, args) -> int:
    if cfg["path"]["kind"] == "regular":
        raise ConfigError("config path: 'kind' must be a sampled path source for approximate")
    path = _load_path(cfg["path"], Path(args.config).parent)
    reg = standard_regular_approximation(path, cfg["level"])
    obj = {**reg.to_jsonable(), "kind": "regular"}
    if "out" in cfg:
        with _output(Path(cfg["out"])) as fh:
            fh.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
        _emit({"file": str(Path(cfg["out"])), "segments": len(reg.axes)})
    else:
        _emit(obj)
    return EXIT_OK


def cmd_verify(cfg: dict, args) -> int:
    """Run the named comparison suites and report per-instance outcomes."""
    results, all_passed = [], True
    for opts in cfg["suites"]:
        opts = dict(opts)
        res = comparison.run_suite(opts.pop("name"), opts.pop("instances"),
                                   cfg["seed"], **opts)
        results.append(res.to_jsonable())
        all_passed &= res.passed
    report = {"passed": all_passed, "seed": cfg["seed"], "suites": results}
    if "out" in cfg:
        with _output(Path(cfg["out"]) / "verify_report.json") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
    _emit({"passed": all_passed,
           "suites": {r["suite"]: r["passed"] for r in results}})
    return EXIT_OK if all_passed else EXIT_VALIDATION


COMMANDS = {  # name -> (function, key table)
    "validate": (cmd_validate, {"matrix": Key(MATRIX), "collision_params": Key(PARAMS),
                                "tol": Key(REAL, RADIUS_MARGIN, FLAG)}),
    "solve": (cmd_solve, {**RUN, "path": Key(PATH, REQUIRED), "matrix": Key(MATRIX),
                          "collision_params": Key(PARAMS),
                          "compare_methods": Key(BOOL, False), "grid_points": Key(1, 2000)}),
    "simulate-srbm": (cmd_simulate_srbm, {
        **RUN, "matrix": Key(MATRIX, REQUIRED), "mu": Key(VECTOR, REQUIRED),
        "covariance": Key(MATRIX, REQUIRED), "z0": Key(VECTOR, REQUIRED),
        "horizon": Key(REAL, REQUIRED), "steps": Key(1, REQUIRED),
        "seed": Key(0, REQUIRED, FLAG)}),
    # the spec is the "cbp" block, or the config itself if it holds a spec key
    "simulate-cbp": (cmd_simulate_cbp, _one_of(
        {**RUN, "gap_check": Key(BOOL, False), "cbp": Key(CBP, REQUIRED)},
        {**RUN, "gap_check": Key(BOOL, False), **CBP})),
    "approximate": (cmd_approximate, {"out": Key(TEXT, None, FLAG_ONLY),
                                      "level": Key(1, 1, FLAG), "path": Key(PATH, REQUIRED)}),
    "verify": (cmd_verify, {"out": Key(TEXT, None, FLAG_ONLY), "seed": Key(0, 0, FLAG),
                            "suites": Key([SUITE], REQUIRED)}),
}


@functools.cache  # parse_args leaves the parser as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="orthantsim",
                     description="Oblique reflection and competing-particle "
                                 "simulation and verification")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, table) in COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", required=True, help="JSON config file")
        for flag, options in _flags(table).items():
            p.add_argument(flag, **options)
    return parser


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": kind, "message": message}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        fn, table = COMMANDS[args.command]
        return fn(_read(table, _load_config(args.config), args), args)
    except ConfigError as exc:
        return _fail(EXIT_CONFIG, "config", str(exc))
    except ConvergenceError as exc:
        return _fail(EXIT_SOLVER, "solver", str(exc))
    except OrthantSimError as exc:
        return _fail(EXIT_VALIDATION, "validation", str(exc))
    except Exception as exc:  # a defect: every expected failure is typed above
        import traceback  # only on this path
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return _fail(EXIT_INTERNAL, "internal", f"{exc!r} at {where.filename}:{where.lineno}")


if __name__ == "__main__":
    sys.exit(main())
