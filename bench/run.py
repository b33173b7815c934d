"""orthantsim benchmark: one closed-loop client, no threads.

    python3 bench/run.py --workload mc_exact --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload cli_grid_export --seed 1 --seconds 40 --trace 1
    python3 bench/run.py --workload verify_corollaries --self-test

Run from any directory; the library is imported from ``src/`` next to this
directory.  ``--trace 0`` prints the end-to-end metrics and ``--trace 1`` the
per-layer metrics named in ``BENCHMARK.json``; the last line of standard
output is the JSON result.  Runs append their full record to
``.bench_out/results.jsonl``; traced runs also write their spans to
``.bench_out/spans-<workload>-seed<seed>.jsonl``.  See ``bench/README.md``.
"""

import os

# Single-threaded BLAS, fixed before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import environment
from tracing import WORK_COUNTS, Tracer
from workloads import SIZE_ROUND, WORKLOADS, library_namespace, size_label

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15       # setup_s is the median of these set-ups
MIN_OPS = 100            # >= 10 samples beyond the 90th percentile
COUNT_SEED = 0           # inputs of the work-count pass, fixed for every run
WARMUP_SEED = 0          # op seeds of the warm-up op; fixed, so that the
                         # warm-up does the same work whatever --seed is
SELF_TEST_SLOT = 1       # op of the self-test round whose output is corrupted
# Printed and recorded with every untraced run but not declared in
# BENCHMARK.json.  ops_per_s, op_p50_ms, op_p90_ms: on a shared host whose
# speed swings by up to 2x for seconds at a time, their run-to-run spread
# reaches the largest bound the benchmark may set; op_min_ms is the declared
# latency (see bench/README.md).  setup_peak_rss_mb: the process peak when
# set-up ends, before any timed op, so that the ops' share of peak_rss_mb
# can be read off.
EXTRA_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
               "setup_peak_rss_mb": "MiB"}


def loaded_library() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "orthantsim" or n.startswith("orthantsim.")}


def import_library():
    """Fresh import of orthantsim, so that every set-up pays for it."""
    for name in loaded_library():
        del sys.modules[name]
    return library_namespace()


def execute(op, tracer=None, op_id=0, corrupt=None):
    """Run one op and check its output; returns (seconds, output, problems).

    Only the library call is timed.  A raised exception or a failed check
    is a problem of this op and never ends the run.
    """
    if tracer is not None:
        tracer.begin_op(op_id, op.label)
    t0 = perf_counter()
    try:
        out = op.run()
        problems = None
    except Exception as exc:  # any failure of the program is counted, not fatal
        out, problems = None, [f"raised {exc!r}"]
    elapsed = perf_counter() - t0
    if tracer is not None:
        tracer.end_op()
        tracer.count_op(out)
    if problems is None:
        try:
            problems = op.check(corrupt(out) if corrupt else out)
        except Exception as exc:  # a malformed output can break a check
            problems = [f"check raised {exc!r}"]
    return elapsed, out, problems


@dataclass
class Phase:
    latencies: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    rounds: int = 0

    @property
    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies)

    def of_label(self, label: str) -> list:
        return [t for t, lab in zip(self.latencies, self.labels) if lab == label]

    def median_ms(self, label: str) -> float:
        lat = self.of_label(label)
        return statistics.median(lat) * 1e3 if lat else 0.0

    def min_ms(self) -> float:
        """Geometric mean over the op labels of each label's fastest op.

        Slow stretches of a shared host raise the typical op time of a run;
        the fastest op of each size moves much less from run to run.  The
        geometric mean weighs a relative change of each size alike.
        """
        return statistics.geometric_mean(
            min(self.of_label(label)) for label in dict.fromkeys(self.labels)
        ) * 1e3


def run_round(workload, lib, inputs, seed, r, phase, tracer=None) -> None:
    """One round of ops, each timed and then checked, appended to ``phase``."""
    for op in workload.round_ops(lib, inputs, seed, r):
        elapsed, _, problems = execute(op, tracer, len(phase.latencies))
        phase.latencies.append(elapsed)
        phase.labels.append(op.label)
        if problems:
            phase.failures.append((op.label, problems))
    phase.rounds += 1


def run_traced_round(workload, lib, inputs, seed, r, phase, tracer) -> None:
    tracer.install()
    try:
        run_round(workload, lib, inputs, seed, r, phase, tracer)
    finally:
        tracer.uninstall()


def set_up(workload, seed, workdir):
    """Import, inputs from the seed, one untimed warm-up op.

    The garbage of earlier set-ups is collected first, so that each one
    starts from the heap of a fresh process.
    """
    gc.collect()
    t0 = perf_counter()
    lib = import_library()
    inputs = workload.make_inputs(lib, seed, workdir)
    op = workload.round_ops(lib, inputs, WARMUP_SEED, 0)[0]
    _, out, problems = execute(op)
    return perf_counter() - t0, lib, inputs, op, out, problems


def count_pass(workload, workdir):
    """Work counts of one traced round on the fixed COUNT_SEED inputs."""
    lib = import_library()
    inputs = workload.make_inputs(lib, COUNT_SEED, workdir)
    tracer = Tracer(lib)
    phase = Phase()
    run_traced_round(workload, lib, inputs, COUNT_SEED, 0, phase, tracer)
    return {k: tracer.counts[k] for k in WORK_COUNTS}, phase.failures


def declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def size_metrics(phase: Phase, tracer: Tracer) -> dict:
    values = {}
    for kind, size in SIZE_ROUND:
        label = size_label(kind, size)
        values[f"size.{label}_ms"] = phase.median_ms(label)
        values[f"size.{label}_push_ratio"] = tracer.push_ratio(label)
    return values


def self_test(workload, seed, workdir) -> int:
    """One round with one op's output corrupted at one row: exactly that op
    must be counted as failed."""
    _, lib, inputs, _, _, _ = set_up(workload, seed, workdir)
    ops = workload.round_ops(lib, inputs, seed, 0)
    failed = []
    for k, op in enumerate(ops):
        corrupt = workload.corrupt if k == SELF_TEST_SLOT else None
        _, _, problems = execute(op, corrupt=corrupt)
        if problems:
            failed.append(k)
            print(f"failed op {k} ({op.label}): {problems[0]}")
    ok = failed == [SELF_TEST_SLOT]
    print(json.dumps({"self_test": workload.name, "attempted": len(ops),
                      "failed": len(failed),
                      "failed_ratio": len(failed) / len(ops),
                      "caught_only_the_corrupted_op": ok}))
    return 0 if ok else 1


def rejects(op, output) -> bool:
    """Whether the op's check rejects ``output``; raising counts as rejecting."""
    try:
        return bool(op.check(output))
    except Exception:  # a check may raise on damaged output: it was caught
        return True


def repeat_set_up(workload, seed, workdir, setup_times) -> None:
    """One more timed set-up, whose library is dropped again: the modules
    that were loaded before it are put back, so the run's ops and tracer keep
    using the library of the first set-up."""
    kept = loaded_library()
    sub = workdir / f"setup{len(setup_times)}"
    sub.mkdir()
    setup_times.append(set_up(workload, seed, sub)[0])
    for name in loaded_library():
        del sys.modules[name]
    sys.modules.update(kept)


def run(workload, args, workdir) -> int:
    sub = workdir / "setup0"
    sub.mkdir()
    elapsed, lib, inputs, warm_op, warm_out, warm_problems = set_up(
        workload, args.seed, sub)
    setup_times = [elapsed]
    setup_peak_rss_mb = peak_rss_mb()
    notes = [f"warm-up op failed: {p}" for p in warm_problems]
    if not warm_problems and not rejects(warm_op, workload.corrupt(warm_out)):
        notes.append("checks accepted an output corrupted at one row")

    start = perf_counter()
    r = 0
    if args.trace:
        # untraced and traced rounds alternate, so that drift in machine
        # speed cancels out of trace.overhead_ratio
        plain, traced, tracer = Phase(), Phase(), Tracer(lib)
        while perf_counter() - start < args.seconds:
            run_round(workload, lib, inputs, args.seed, r, plain)
            run_traced_round(workload, lib, inputs, args.seed, r + 1, traced,
                             tracer)
            r += 2
        phases = [plain, traced]
        values = tracer.layer_metrics(len(traced.latencies))
        values["trace.overhead_ratio"] = traced.ops_per_s / plain.ops_per_s
        values.update(size_metrics(plain, tracer))
        values["size.srbm_d5_solve_regular_ms"] = tracer.span_median_ms(
            "skorokhod.exact", "srbm_d5")
        values["export.srbm_d10_to_csv_ms"] = tracer.span_median_ms(
            "export.to_csv", "srbm_d10")
        tracer.write(OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl")
    else:
        # the other set-ups are spread over the run, between rounds, so that
        # setup_s sees the machine at the same times as the ops do
        phase = Phase()
        while perf_counter() - start < args.seconds or len(phase.latencies) < MIN_OPS:
            run_round(workload, lib, inputs, args.seed, r, phase)
            r += 1
            due = (perf_counter() - start) / args.seconds * SETUP_REPEATS
            if len(setup_times) < min(due, SETUP_REPEATS):
                repeat_set_up(workload, args.seed, workdir, setup_times)
        while len(setup_times) < SETUP_REPEATS:
            repeat_set_up(workload, args.seed, workdir, setup_times)
        setup_s = statistics.median(setup_times)
        phases = [phase]
        lat_ms = [t * 1e3 for t in phase.latencies]
        values = {
            "setup_s": setup_s,
            "op_min_ms": phase.min_ms(),
            "ops_per_s": phase.ops_per_s,
            "op_p50_ms": statistics.median(lat_ms),
            "op_p90_ms": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": peak_rss_mb(),
            "setup_peak_rss_mb": setup_peak_rss_mb,
        }

    counts_dir = workdir / "counts"
    counts_dir.mkdir()
    work_counts, count_failures = count_pass(workload, counts_dir)
    notes += [f"count pass {label}: {p[0]}" for label, p in count_failures]
    report(workload, args, workdir, phases, values, work_counts, notes,
           setup_times)
    return 0


def report(workload, args, workdir, phases, values, work_counts, notes,
           setup_times) -> None:
    """Print the run's lines and result, and append its record."""
    units = declared_units("per_layer" if args.trace else "end_to_end")
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics declared but not measured: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    extra = {k: {"value": values[k], "unit": u} for k, u in EXTRA_UNITS.items()
             if k in values}
    attempted = sum(len(p.latencies) for p in phases)
    failures = [f for p in phases for f in p.failures]
    correct = not failures and not notes
    env = environment.record(ROOT, workdir, args.seed)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
          f"seconds {args.seconds}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"samples {attempted} ops in {sum(p.rounds for p in phases)} rounds; "
          f"failed {len(failures)}; failed_ratio {len(failures) / attempted:.6g}")
    for label, problems in failures[:10]:
        print(f"FAILED {label}: {'; '.join(problems)[:300]}")
    for note in notes:
        print(f"INCORRECT {note}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    for name, m in extra.items():
        print(f"extra {name} {m['value']:.6g} {m['unit']}")
    print("setups_s " + " ".join(f"{t:.4f}" for t in setup_times))
    print("work_counts " + json.dumps(work_counts, sort_keys=True))

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "env": env, "work_counts": work_counts,
              "count_seed": COUNT_SEED, "correct": correct,
              "setup_times_s": setup_times,
              "attempted": attempted, "failed": len(failures),
              "metrics": metrics, "extra": extra,
              "ops": [{"label": lab, "ms": t * 1e3}
                      for lab, t in zip(phases[0].labels, phases[0].latencies)]}
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="corrupt one op's output and require it be caught")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "orthantsim" / "__init__.py").is_file():
        print(f"error: no library sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        if args.self_test:
            return self_test(workload, args.seed, workdir)
        return run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
