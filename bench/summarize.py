"""Summarize benchmark records: median and quartile spread per metric.

    python3 bench/summarize.py [.bench_out/results.jsonl] [--since N]
    python3 bench/summarize.py second.jsonl --against first.jsonl

For every (workload, trace) pair the records are grouped and each metric is
printed with its median, quartiles and the spread (Q3 - Q1) / median, as
``statistics.quantiles(values, n=4)`` gives them.  The spread of each
end-to-end metric, ``setup_s`` included, is compared with its bound in
BENCHMARK.json.  With ``--against``, each median is also compared with the
median of the same metric in the other file, and a change for the worse by
more than the bound is flagged.  Work counts must repeat exactly between the
records of one workload, in both files; the exit code is 1 if they do not,
if any record is incorrect, or if a spread or a median change is over its
bound.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, since=0) -> dict:
    """Records of a results file, grouped by (workload, trace)."""
    groups = defaultdict(list)
    for line in Path(path).read_text().splitlines()[since:]:
        if line:
            rec = json.loads(line)
            groups[(rec["workload"], rec["trace"])].append(rec)
    return groups


def values_of(recs, name) -> list:
    return [{**r["metrics"], **r.get("extra", {})}[name]["value"] for r in recs]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="?",
                        default=str(ROOT / ".bench_out" / "results.jsonl"))
    parser.add_argument("--since", type=int, default=0,
                        help="skip the first N records of the file")
    parser.add_argument("--against", help="results file of an earlier set")
    args = parser.parse_args(argv)
    groups = load(args.results, args.since)
    before = load(args.against) if args.against else {}
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in spec}
    better = {m["name"]: m["better"] for m in spec}

    ok = True
    for key, recs in sorted(groups.items()):
        workload, trace = key
        seeds = [r["seed"] for r in recs]
        print(f"== {workload} trace {trace}: {len(recs)} runs, seeds {seeds}")
        if not all(r["correct"] for r in recs):
            ok = False
            print("   INCORRECT runs: "
                  f"{[r['seed'] for r in recs if not r['correct']]}")
        counts = {json.dumps(r["work_counts"], sort_keys=True)
                  for r in recs + before.get(key, [])}
        if len(counts) != 1:
            ok = False
            print(f"   WORK COUNTS DIFFER: {sorted(counts)}")
        for name, m in {**recs[0]["metrics"], **recs[0].get("extra", {})}.items():
            values = values_of(recs, name)
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = values[0]
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if name in bounds:
                flag = "  ok" if spread <= bounds[name] / 3 else (
                    "  WIDE" if spread <= bounds[name] else "  OVER BOUND")
                ok = ok and spread <= bounds[name]
            print(f"   {name:34s} median {med:12.6g} {m['unit']:9s} "
                  f"q1 {q1:10.5g} q3 {q3:10.5g} spread {spread:7.4f}{flag}")
            if name in bounds and key in before:
                old = statistics.median(values_of(before[key], name))
                worse = (med - old if better[name] == "lower" else old - med) / old
                verdict = "ok" if worse <= bounds[name] else "WORSE THAN BOUND"
                ok = ok and worse <= bounds[name]
                print(f"   {'':34s} against {old:11.6g} {'':9s} "
                      f"worse by {worse:+.4f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
