"""Layer spans and work counts, recorded from outside the library.

The tracer replaces module-level names that the layers call through with
wrappers that record a span (name, start, end, parent, op id) per call.
Every binding of a wrapped function in every loaded ``orthantsim`` module is
replaced, so a call through ``from .skorokhod import solve_regular`` is seen
as well as one through ``skorokhod.solve_regular``.  Work counts are taken
after each op, outside its timed region, from the calls' inputs and returned
solutions.  Spans stay in memory and are written when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# span name -> per-layer self-time metric
SELF_TIME_METRIC = {
    "paths.sample": "paths.sample_s",
    "paths.approx": "paths.approx_s",
    "skorokhod.exact": "skorokhod.exact_s",
    "skorokhod.grid": "skorokhod.grid_s",
    "particles.exact": "particles.exact_s",
    "particles.gap": "particles.gap_s",
    "mmatrix.validate": "mmatrix.validate_s",
    "comparison": "comparison.self_s",
    "export.write": "export.csv_s",
    "export.to_csv": "export.csv_s",
    "cli": "cli.self_s",
    "op": "op.self_s",
}
CALL_METRIC = {
    "skorokhod.exact": "skorokhod.exact_calls",
    "skorokhod.grid": "skorokhod.grid_calls",
    "mmatrix.validate": "mmatrix.validate_calls",
}
# work counts that must repeat exactly between runs of the same code
WORK_COUNTS = ("skorokhod.segments", "skorokhod.pushing_segments",
               "skorokhod.events", "skorokhod.grid_iterations",
               "particles.invert_calls", "export.bytes")


def _fixed(name):
    return lambda args: name


def _competing_route(args):
    # solve_competing(q, X, ...) takes the regular-path particle solver for
    # RegularPath drivers and the gap-process route otherwise
    return ("particles.exact" if type(args[1]).__name__ == "RegularPath"
            else "particles.gap")


def _targets(lib):
    """(owner, attribute, span namer) for each wrapped name."""
    return [
        (lib.paths, "sample_brownian", _fixed("paths.sample")),
        (lib.paths, "brownian_components", _fixed("paths.sample")),
        (lib.paths, "standard_regular_approximation", _fixed("paths.approx")),
        (lib.skorokhod, "solve_regular", _fixed("skorokhod.exact")),
        (lib.skorokhod, "solve_grid_oracle", _fixed("skorokhod.grid")),
        (lib.particles, "solve_competing", _competing_route),
        (lib.mmatrix, "validate_reflection_m_matrix", _fixed("mmatrix.validate")),
        (lib.comparison, "run_suite", _fixed("comparison")),
        (lib.cli, "main", _fixed("cli")),
        (lib.skorokhod, "write_solution", _fixed("export.write")),
        (lib.particles, "write_solution", _fixed("export.write")),
        (lib.skorokhod.SkorokhodSolution, "to_csv", _fixed("export.to_csv")),
        (lib.particles.ParticleSystemSolution, "to_csv", _fixed("export.to_csv")),
    ]


def pushing_segments(X, sol) -> int:
    """Segments of the regular driver X over which some L_i grows."""
    idx = np.searchsorted(sol.L.times, X.breakpoints, side="right") - 1
    return int((np.diff(sol.L.values[idx], axis=0) > 0.0).any(axis=1).sum())


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.spans: list[list] = []     # [name, start, end, parent, op]
        self.op_labels: dict[int, str] = {}
        self.counts: Counter = Counter()
        self.label_counts: defaultdict = defaultdict(Counter)  # per op label
        self.recording = False
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._root: int | None = None
        self._pending: list[tuple] = []
        self._patches: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "orthantsim" or name.startswith("orthantsim.")]
        for owner, attr, namer in _targets(self.lib):
            self._patch_everywhere(modules, owner, attr,
                                   self._span_wrapper(getattr(owner, attr), namer))
        self._patch_everywhere(modules, self.lib.particles, "invert_system",
                               self._count_wrapper(self.lib.particles.invert_system,
                                                   "particles.invert_calls"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch_everywhere(self, modules, owner, attr, wrapper) -> None:
        original = getattr(owner, attr)
        owners = [owner] + [m for m in modules if m is not owner]
        for o in owners:
            for name, value in list(vars(o).items()):
                if value is original:
                    self._patches.append((o, name, original))
                    setattr(o, name, wrapper)

    def _span_wrapper(self, fn, namer):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            name = namer(args)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            tracer._pending.append((name, args, result))
            return result
        return wrapper

    def _count_wrapper(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.recording:
                tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self._op_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = perf_counter()

    # -- per op ------------------------------------------------------------

    def begin_op(self, op_id: int, label: str) -> None:
        self._op_id = op_id
        self.op_labels[op_id] = label
        self.recording = True
        self._root = self._open("op")

    def end_op(self) -> None:
        self._close(self._root)
        self.recording = False

    def count_op(self, output) -> None:
        """Work counts of the op just ended; call outside the timed region."""
        c = self.counts
        for name, args, result in self._pending:
            if name == "skorokhod.exact":
                X = args[1]
                pushing = pushing_segments(X, result)
                c["skorokhod.segments"] += len(X.axes)
                c["skorokhod.pushing_segments"] += pushing
                by_label = self.label_counts[self.op_labels[self._op_id]]
                by_label["segments"] += len(X.axes)
                by_label["pushing_segments"] += pushing
                c["skorokhod.events"] += len(result.events)
            elif name == "skorokhod.grid":
                c["skorokhod.grid_iterations"] += result.diagnostics["iterations"]
            elif name == "paths.approx":
                c["paths.approx_segments"] += len(result.axes)
            elif name == "particles.exact":
                c["particles.segments"] += len(args[1].axes)
                c["particles.events"] += len(result.events)
            elif name == "comparison":
                c["comparison.instances"] += len(result.results)
        self._pending.clear()
        if hasattr(output, "csv_path"):
            c["export.bytes"] += (output.csv_path.stat().st_size
                                  + output.events_path.stat().st_size)

    # -- results -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Self time per span: its duration minus its direct children's."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-op self times, call counts and work counts over ``ops`` ops."""
        totals = Counter()
        for span, own in zip(self.spans, self.self_times()):
            totals[SELF_TIME_METRIC[span[0]]] += own
            if span[0] in CALL_METRIC:
                totals[CALL_METRIC[span[0]]] += 1
        totals.update(self.counts)
        out = {}
        for key in (*SELF_TIME_METRIC.values(), *CALL_METRIC.values(),
                    *WORK_COUNTS, "paths.approx_segments", "particles.segments",
                    "particles.events", "comparison.instances"):
            out[key] = totals[key] / ops
        segs = totals["skorokhod.segments"]
        out["skorokhod.push_ratio"] = (totals["skorokhod.pushing_segments"] / segs
                                       if segs else 0.0)
        out["skorokhod.us_per_segment"] = (totals["skorokhod.exact_s"] / segs * 1e6
                                           if segs else 0.0)
        csv_s = totals["export.csv_s"]
        out["export.mb_per_s"] = (totals["export.bytes"] / csv_s / 2**20
                                  if csv_s else 0.0)
        return out

    def push_ratio(self, op_label: str) -> float:
        """Pushing share of the ``solve_regular`` segments of ``op_label`` ops."""
        c = self.label_counts[op_label]
        return c["pushing_segments"] / c["segments"] if c["segments"] else 0.0

    def span_median_ms(self, span_name: str, op_label: str) -> float:
        """Median over ops labelled ``op_label`` of their ``span_name`` time."""
        per_op = Counter()
        for name, start, end, _, op in self.spans:
            if name == span_name and self.op_labels.get(op) == op_label:
                per_op[op] += end - start
        return statistics.median(per_op.values()) * 1e3 if per_op else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
