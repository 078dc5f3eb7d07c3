"""Compare benchmark result sets, or summarise one into a baseline record.

    python3 bench/compare.py PARENT.jsonl CHANGE.jsonl
    python3 bench/compare.py --summary RESULTS.jsonl > BENCH_label.json

Inputs are the ``.bench_out/results.jsonl`` files that ``run.py`` appends
to. Run the parent and the change alternately, with the same seeds, at
least ten times per workload; the i-th run of a workload (at one trace
level) on one side pairs with the i-th run on the other.

Each row gives a workload and metric, each side's median and quartiles,
the share of pairs the change won (ties count for neither side), and a
verdict:

* ``better``: the change won at least nine tenths of the pairs and the
  medians differ, in the better direction, by more than the parent's
  quartile distance;
* ``unresolved``: the parent's own spread (quartile distance over median)
  is wider than the metric's bound, and not every change run beats every
  parent run;
* ``worse``: the change's median is worse than the parent's by more than
  the bound; for per-layer metrics, which have no bound, the mirror of
  ``better``;
* ``unchanged``: otherwise.

A change with more failed ops than its parent is ``worse`` on
``failed_ops`` whatever its timings.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
METRICS = {m["name"]: m for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}


def load(path):
    """Runs grouped as {(workload, trace): [result, ...]} in file order."""
    runs: dict = {}
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                runs.setdefault((rec["workload"], rec["trace"]), []).append(rec)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(name, parent, change):
    """Verdict and share of pairs won for one metric; values in run order."""
    meta = METRICS[name]
    sign = 1 if meta["better"] == "higher" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for p, c in pairs if (c - p) * sign > 0)
    lost = sum(1 for p, c in pairs if (c - p) * sign < 0)
    p1, pmed, p3 = quartiles(parent)
    cmed = statistics.median(change)
    gain = (cmed - pmed) * sign
    iqr = p3 - p1
    share = won / len(pairs) if pairs else 0.0
    if pairs and won >= 0.9 * len(pairs) and gain > iqr:
        return "better", share
    bound = meta.get("bound")
    if bound is None:
        if pairs and lost >= 0.9 * len(pairs) and -gain > iqr:
            return "worse", share
        return "unchanged", share
    all_better = min(c * sign for c in change) > max(p * sign for p in parent)
    if pmed and iqr / abs(pmed) > bound and not all_better:
        return "unresolved", share
    if -gain > bound * abs(pmed):
        return "worse", share
    return "unchanged", share


def compare(parent_path, change_path):
    parent, change = load(parent_path), load(change_path)
    rows = []
    for key in sorted(set(parent) & set(change)):
        prs, crs = parent[key], change[key]
        if min(len(prs), len(crs)) < 10:
            print(f"warning: {key[0]} trace={key[1]}: {len(prs)} parent and {len(crs)} "
                  f"change runs; at least ten pairs are needed for a claim", file=sys.stderr)
        pf = sum(r["failed"] for r in prs)
        cf = sum(r["failed"] for r in crs)
        rows.append((key[0], "failed_ops", f"{pf}", "", f"{cf}", "", "",
                     "worse" if cf > pf else "unchanged"))
        names = [n for n in prs[0]["metrics"] if n in crs[0]["metrics"]]
        for name in names:
            pv = [r["metrics"][name]["value"] for r in prs]
            cv = [r["metrics"][name]["value"] for r in crs]
            result, share = verdict(name, pv, cv)
            p1, pm, p3 = quartiles(pv)
            c1, cm, c3 = quartiles(cv)
            rows.append((key[0], name, f"{pm:.6g}", f"[{p1:.4g}, {p3:.4g}]",
                         f"{cm:.6g}", f"[{c1:.4g}, {c3:.4g}]", f"{share:.2f}", result))
    header = ("workload", "metric", "parent", "parent q1,q3", "change", "change q1,q3",
              "won", "verdict")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    for row in [header] + rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def summary(path):
    """Median, quartiles and run count of every metric, per workload and trace level."""
    out = {"environment": environment(), "workloads": {}}
    for (workload, trace), recs in sorted(load(path).items()):
        entry = out["workloads"].setdefault(workload, {})
        metrics = {}
        for name in recs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in recs]
            q1, med, q3 = quartiles(values)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "unit": recs[0]["metrics"][name]["unit"]}
        entry["per_layer" if trace else "end_to_end"] = {
            "runs": len(recs),
            "seeds": [r["seed"] for r in recs],
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "metrics": metrics,
        }
    json.dump(out, sys.stdout, indent=1)
    print()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--summary", metavar="RESULTS", help="summarise one result set")
    parser.add_argument("files", nargs="*", metavar="RESULTS")
    args = parser.parse_args(argv)
    if args.summary:
        summary(args.summary)
    elif len(args.files) == 2:
        compare(*args.files)
    else:
        parser.error("give PARENT and CHANGE result files, or --summary RESULTS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
