"""Benchmark runner: one seeded workload, timed in a closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client in one process sends the next op only after the previous one
completed. ``--trace 0`` times whole passes over the workload's op list
until ``--seconds`` have elapsed and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced passes, wraps the package's
public functions from outside (see ``spans.py``) and reports the per-layer
metrics. Every op's output is checked; a failing op counts in ``failed``.
The last line of stdout is the result as JSON; the run also appends it to
``.bench_out/results.jsonl`` and writes the spans of a traced run to
``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

# One client, one op at a time, on one CPU: the run and every process it
# starts stay on the lowest CPU it may use. The speed read before and after
# an op is then that of the CPU the op ran on, and numpy's OpenBLAS starts
# no thread pool; on a shared two-core machine its threads made a 100x100
# float solve take 57 ms instead of 0.08 ms, at random.
if hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
os.environ.pop("EXACTCHAIN_MODE", None)
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]}

SETUP_PROBES = 5
START_PROBES = 5

#: Time of one ``reference_loop()`` at the reference speed: the median loop
#: time over the baseline runs on the two-core x86-64 machine the benchmark
#: was written on, so that scaled times there read about as measured.
REFERENCE_LOOP_S = 0.51e-3
_MASK192 = (1 << 192) - 1


def reference_loop():
    """Fixed pure-Python work (big-integer arithmetic, dict stores)."""
    store = {}
    x = 1
    for i in range(3000):
        x = (x * 6364136223846793005 + i) & _MASK192
        store[i & 255] = x
    return x


def loop_time():
    """Median time of three reference loops: one reading of the machine's speed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def percentile(values, pct):
    """Nearest-rank percentile: the smallest value with ``pct`` percent at or below it.

    No interpolation, so the value is always one op run's time, even where
    two ops of very different cost meet at that rank.
    """
    data = sorted(values)
    return data[max(math.ceil(pct / 100 * len(data)) - 1, 0)]


def children_cpu():
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Outputs:
    """Keeps each op's first output; later ones are only compared with it.

    Holding every output would grow the heap, and with it the cost of each
    garbage collection, over the run.
    """

    def __init__(self):
        self.first: dict = {}
        self.count: dict = {}
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, op) -> bool:
        """Run one op and record its output; False when it raised."""
        self.attempted += 1
        try:
            out = op.fn()
        except Exception:
            self.failures.append(f"{op.name}: raised\n{traceback.format_exc(limit=3)}")
            return False
        if op.name not in self.first:
            self.first[op.name] = out
        elif out != self.first[op.name]:
            self.failures.append(f"{op.name}: output differs from its first run")
            return True
        self.count[op.name] = self.count.get(op.name, 0) + 1
        return True

    def check(self, workload, ops) -> list[str]:
        """Check each op's first output; every run that repeated it shares the verdict."""
        by_name = {op.name: op for op in ops}
        for name, out in self.first.items():
            reason = workload.check(by_name[name], out)
            if reason:
                self.failures.extend([f"{name}: {reason}"] * self.count[name])
        return self.failures


def warm_up(workload, op):
    """Run one untimed op; a failure here aborts the run without a result."""
    outputs = Outputs()
    if outputs.run(op):
        outputs.check(workload, [op])
    if outputs.failures:
        raise SystemExit(f"warm-up op failed: {outputs.failures[0]}")


def timed_loop(ops, outputs, seconds, min_passes, between):
    """Whole passes until ``seconds`` elapse and ``min_passes`` are done.

    Returns (op, wall, CPU, speed) per op run and the pass count. The
    machine's speed is read just before and just after each op, outside its
    timing: ``speed`` is REFERENCE_LOOP_S over the mean of the two loop
    times. ``between(elapsed)`` runs after each pass, outside every op.
    """
    records = []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            before = loop_time()
            c0 = time.process_time() + children_cpu()
            t0 = time.perf_counter()
            outputs.run(op)
            t1 = time.perf_counter()
            c1 = time.process_time() + children_cpu()
            speed = 2 * REFERENCE_LOOP_S / (before + loop_time())
            records.append((op, t1 - t0, c1 - c0, speed))
        passes += 1
        elapsed = time.perf_counter() - start
        between(elapsed)
        if elapsed >= seconds and passes >= min_passes:
            return records, passes


def probe_times(argv, count, env=None):
    """Wall time from spawning each fresh process to its first output line.

    Returns (seconds, speed, line) per process, the speed read as in
    :func:`timed_loop`.
    """
    times = []
    for _ in range(count):
        before = loop_time()
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, cwd=ROOT, env=env)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"probe {argv} exited with {code}")
        times.append((t1 - t0, 2 * REFERENCE_LOOP_S / (before + loop_time()), line))
    return times


def setup_probe(name, seed):
    """Body of a set-up probe: build the workload, run one warm-up op."""
    workload = WORKLOADS[name](seed, CHILD_ENV)
    workload.ops[0].fn()
    print("ready", flush=True)


def untraced_run(workload, seconds, outputs):
    """End-to-end metrics, each op's time scaled by the machine's speed during it."""
    warm_up(workload, workload.ops[0])
    probe_argv = [sys.executable, str(BENCH / "run.py"), "--probe-setup",
                  "--workload", workload.name, "--seed", str(workload.seed)]
    probes = []

    def probe_on_schedule(elapsed):
        # Spread the set-up probes over the run, so that one slow stretch
        # of a shared machine does not decide their median.
        if len(probes) < SETUP_PROBES and elapsed >= len(probes) * seconds / SETUP_PROBES:
            probes.extend(probe_times(probe_argv, 1))

    # Enough op runs that the tail percentile has ten samples beyond it.
    pct = workload.tail_pct
    min_passes = math.ceil(10 / (len(workload.ops) * (1 - pct / 100)))
    records, passes = timed_loop(workload.ops, outputs, seconds, min_passes, probe_on_schedule)
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-oneshot" else resource.RUSAGE_SELF
    rss_kb = resource.getrusage(who).ru_maxrss
    probes.extend(probe_times(probe_argv, SETUP_PROBES - len(probes)))

    # Every op run is one sample, its wall and CPU time scaled by the
    # machine's speed around it; the percentiles are over all op runs.
    walls = [w * s for _, w, _, s in records]
    cpus = [c * s for _, _, c, s in records]
    tail = percentile(walls, pct)
    metrics = {
        "ops_per_s": len(walls) / sum(walls),
        "op_latency_s.p50": percentile(walls, 50),
        "op_latency_s.tail": tail,
        "op_cpu_s.p50": percentile(cpus, 50),
        "setup_s": statistics.median(t * speed for t, speed, _ in probes),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = [w for _, w, _, _ in records]
    extra = {
        "passes": passes, "tail_pct": pct, "tail_beyond": sum(w > tail for w in walls),
        "speed_median": statistics.median(speed for *_, speed in records),
        "raw": {
            "ops_per_s": len(raw) / sum(raw),
            "op_latency_s.p50": percentile(raw, 50),
            "op_latency_s.tail": percentile(raw, pct),
            "op_cpu_s.p50": percentile([c for _, _, c, _ in records], 50),
            "setup_s": statistics.median(t for t, _, _ in probes),
        },
        "op_median_s": {op.name: statistics.median(w * s for o, w, _, s in records if o is op)
                        for op in workload.ops},
    }
    return metrics, extra


def python_start_probes():
    """Bare interpreter start, and a fresh ``import exactchain.cli`` timed inside."""
    start = probe_times([sys.executable, "-c", "print()"], START_PROBES, CHILD_ENV)
    code = ("import time; t = time.perf_counter(); import exactchain.cli; "
            "print(time.perf_counter() - t)")
    imports = probe_times([sys.executable, "-c", code], START_PROBES, CHILD_ENV)
    return {
        "cli.python_start_s": statistics.median(t for t, _, _ in start),
        "cli.import_s": statistics.median(float(line) for _, _, line in imports),
    }


def traced_run(workload, seconds, outputs):
    """Per-layer metrics from traced passes, alternating with untraced ones."""
    ops = workload.traced_ops()
    warm_up(workload, ops[0])
    started = python_start_probes()
    recorder = spans.Recorder()
    totals, traced_walls, untraced_walls = [], [], []
    begin = time.perf_counter()
    while time.perf_counter() - begin < seconds or len(traced_walls) < 2:
        for traced in (False, True):
            if traced:
                recorder.install()
            first_span = len(recorder.spans)
            t0 = time.perf_counter()
            for index, op in enumerate(ops):
                if traced:
                    recorder.begin_op(f"{len(traced_walls)}:{index}:{op.name}")
                outputs.run(op)
            wall = time.perf_counter() - t0
            if traced:
                recorder.end_op()
                recorder.uninstall()
                totals.append(recorder.layer_totals(first_span))
                traced_walls.append(wall)
            else:
                untraced_walls.append(wall)
    OUT.mkdir(exist_ok=True)
    recorder.dump(OUT / f"trace-{workload.name}-seed{workload.seed}.jsonl")
    metrics = spans.per_layer_metrics(totals, traced_walls, untraced_walls, len(ops))
    metrics.update(started)
    return metrics, {"passes": len(traced_walls), "untraced_passes": len(untraced_walls)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=MANIFEST["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if args.probe_setup:
        setup_probe(args.workload, args.seed)
        return 0

    import exactchain

    package = Path(exactchain.__file__).resolve().parent
    if package != ROOT / "src" / "exactchain":
        raise SystemExit(f"exactchain imported from {package}, not from this checkout")
    workload = WORKLOADS[args.workload](args.seed, CHILD_ENV)
    outputs = Outputs()
    if args.trace:
        metrics, extra = traced_run(workload, args.seconds, outputs)
        failures = outputs.check(workload, workload.traced_ops())
    else:
        metrics, extra = untraced_run(workload, args.seconds, outputs)
        failures = outputs.check(workload, workload.ops)
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)

    attempted, failed = outputs.attempted, len(failures)
    fail_ratio = failed / attempted
    for name, value in metrics.items():
        print(f"{args.workload:15s} {name:28s} {value:14.6g} {UNITS[name]}")
    # Printed only: BENCHMARK.json lists metrics that never read 0, and the
    # result line carries it as failed/attempted.
    print(f"{args.workload:15s} {'fail_ratio':28s} {fail_ratio:14.6g} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    with open(OUT / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "seconds": args.seconds,
                             "fail_ratio": fail_ratio, "extra": extra, **result}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
