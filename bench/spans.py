"""In-memory span recorder that traces exactchain from outside the package.

Wrappers are installed on the public functions of each module at every
module attribute that holds them, which is where callers look them up
(``exactchain.linalg.solve``, ``exactchain.zeroconf.estimate_until``, ...).
Nothing under ``src/`` is edited. Each span records its name, the call's
start and end, the interval spent in the wrapper itself, its parent span
and the op (trace id) it belongs to. A span's self time is its duration
minus the wrapper intervals of its direct children, so argument and result
bookkeeping lands in no layer.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from fractions import Fraction
from time import perf_counter

# Layer group -> the public functions, as ``module.function``, whose self
# times and calls it sums. Functions missing from the package are skipped,
# so the recorder keeps working when one is removed.
LAYERS = {
    "cli.main": ("cli.main",),
    "chain.validate": ("chain.validate_chain", "chain.validate_reward"),
    "modelfile.load": ("modelfile.load_model",),
    "analysis.graph": (
        "analysis.reachable", "analysis.until_prob_is_zero", "analysis.certify_ae_until",
    ),
    "analysis.solve": (
        "analysis.until_probabilities", "analysis.until_probability",
        "analysis.expected_hitting_time", "analysis.expected_cost_until",
        "analysis.first_entry_distribution", "analysis.entry_edge_distribution",
    ),
    "linalg.solve": ("linalg.solve",),
    "simulate.until": ("simulate.estimate_until",),
    "simulate.cost": ("simulate.estimate_cost",),
    "simulate.joint": ("simulate.estimate_joint_first_last",),
    "info": ("info.entropy", "info.mutual_information"),
    "zeroconf.build": ("zeroconf.build_zeroconf",),
    "zeroconf.closed": (
        "zeroconf.p_err_closed", "zeroconf.p_err_probe_closed", "zeroconf.expected_cost_closed",
    ),
    "zeroconf.report": ("zeroconf.zeroconf_report",),
    "crowds.build": ("crowds.build_crowds",),
    "crowds.closed": (
        "crowds.prob_hit_colls", "crowds.joint_first_last", "crowds.conditional_joint",
        "crowds.prob_first_eq_last", "crowds.probable_innocence", "crowds.mi_bound",
        "crowds.mi_exact",
    ),
    "crowds.solver": (
        "crowds.last_jondo_distribution", "crowds.solver_hit_prob",
        "crowds.solver_joint_first_last", "crowds.first_last_jondo_joint",
        "crowds.is_product_joint",
    ),
    "crowds.report": ("crowds.crowds_report",),
}
GROUPS = {name: group for group, names in LAYERS.items() for name in names}
SIM_GROUPS = ("simulate.until", "simulate.cost", "simulate.joint")


def _linalg_attrs(args, result):
    a, b = args[0], args[1]
    bits = 0
    for row in result:
        for x in row:
            if isinstance(x, Fraction):
                bits = max(bits, x.numerator.bit_length(), x.denominator.bit_length())
    return {
        "unknowns": len(a),
        "rhs_cols": len(b[0]) if b else 0,
        "nonzeros": sum(1 for row in a for x in row if x),
        "bits": bits,
    }


def _sim_attrs(args, result):
    return {"paths": args[-1].samples, "censored": result.censored}


ATTRS = {
    "linalg.solve": _linalg_attrs,
    "simulate.estimate_until": _sim_attrs,
    "simulate.estimate_cost": _sim_attrs,
    "simulate.estimate_joint_first_last": _sim_attrs,
}


class Span:
    __slots__ = ("name", "parent", "trace", "outer0", "t0", "t1", "outer1", "attrs")

    def __init__(self, name, parent, trace):
        self.name = name
        self.parent = parent
        self.trace = trace
        self.attrs = None


class Recorder:
    """Collects spans while installed; the benchmark owns one per run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._trace = None
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function at each module attribute bound to it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "exactchain" or n.startswith("exactchain."))]
        for name in GROUPS:
            short, fname = name.split(".")
            fn = getattr(sys.modules.get(f"exactchain.{short}"), fname, None)
            if fn is None:
                continue
            wrapper = self._wrap(name, fn)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._undo):
            setattr(mod, attr, fn)
        self._undo.clear()

    def _wrap(self, name, fn):
        attrs_of = ATTRS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outer0 = perf_counter()
            span = Span(name, stack[-1] if stack else None, self._trace)
            span.outer0 = outer0
            stack.append(len(spans))
            spans.append(span)
            try:
                span.t0 = perf_counter()
                result = fn(*args, **kwargs)
            finally:
                span.t1 = span.outer1 = perf_counter()
                stack.pop()
            if attrs_of is not None:
                span.attrs = attrs_of(args, result)
                span.outer1 = perf_counter()
            return result

        return wrapper

    # -- ops ----------------------------------------------------------------
    def begin_op(self, trace_id) -> None:
        self._trace = trace_id

    def end_op(self) -> None:
        self._trace = None

    # -- analysis -------------------------------------------------------------
    def self_times(self, first: int = 0) -> list[float]:
        """Self time of each span from ``first`` on: duration minus children's wrapper intervals."""
        spans = self.spans[first:]
        out = [s.t1 - s.t0 for s in spans]
        for s in spans:
            if s.parent is not None:
                out[s.parent - first] -= s.outer1 - s.outer0
        return out

    def layer_totals(self, first: int = 0) -> dict:
        """Per group, over the spans from ``first`` on: self time, calls, attributes."""
        totals: dict = {}
        for span, self_s in zip(self.spans[first:], self.self_times(first)):
            group = GROUPS.get(span.name)
            if group is None:
                continue
            entry = totals.setdefault(group, {"s": 0.0, "calls": 0, "wall": 0.0, "attrs": {}})
            entry["s"] += self_s
            entry["calls"] += 1
            entry["wall"] += span.t1 - span.t0
            if span.attrs:
                acc = entry["attrs"]
                for key, value in span.attrs.items():
                    acc[key] = max(acc.get(key, 0), value) if key == "bits" else acc.get(key, 0) + value
        return totals

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, op, parent, start, end, self time."""
        with open(path, "w") as fh:
            for index, (span, self_s) in enumerate(zip(self.spans, self.self_times())):
                fh.write(json.dumps({
                    "id": index, "name": span.name, "op": span.trace, "parent": span.parent,
                    "start": span.t0, "end": span.t1, "self": self_s, "attrs": span.attrs,
                }) + "\n")


def per_layer_metrics(pass_totals: list[dict], pass_walls: list[float],
                      untraced_walls: list[float], ops_per_pass: int) -> dict:
    """Reduce traced passes to the per-layer metrics, medians over passes."""

    def med(fn):
        return statistics.median(fn(t) for t in pass_totals)

    def s(group):
        return med(lambda t: t.get(group, {}).get("s", 0.0))

    def calls(group):
        return med(lambda t: t.get(group, {}).get("calls", 0))

    def attr(group, key):
        return med(lambda t: t.get(group, {}).get("attrs", {}).get(key, 0))

    def paths_per_s(group):
        def one(t):
            entry = t.get(group)
            return entry["attrs"]["paths"] / entry["wall"] if entry and entry["wall"] else 0.0
        return med(one)

    def censored_ratio(t):
        paths = sum(t.get(g, {}).get("attrs", {}).get("paths", 0) for g in SIM_GROUPS)
        cens = sum(t.get(g, {}).get("attrs", {}).get("censored", 0) for g in SIM_GROUPS)
        return cens / paths if paths else 0.0

    return {
        "cli.main_s": s("cli.main"),
        "chain.validate_s": s("chain.validate"),
        "chain.validate_calls": calls("chain.validate"),
        "modelfile.load_s": s("modelfile.load"),
        "modelfile.load_calls": calls("modelfile.load"),
        "analysis.graph_s": s("analysis.graph"),
        "analysis.graph_calls": calls("analysis.graph"),
        "analysis.solve_self_s": s("analysis.solve"),
        "analysis.solve_calls": calls("analysis.solve"),
        "linalg.solve_s": s("linalg.solve"),
        "linalg.solve_calls": calls("linalg.solve"),
        "linalg.solve_calls_per_op": calls("linalg.solve") / ops_per_pass,
        "linalg.unknowns": attr("linalg.solve", "unknowns"),
        "linalg.rhs_cols": attr("linalg.solve", "rhs_cols"),
        "linalg.nonzeros": attr("linalg.solve", "nonzeros"),
        "linalg.solution_bits_max": attr("linalg.solve", "bits"),
        "simulate.s": sum(s(g) for g in SIM_GROUPS),
        "simulate.until_paths_per_s": paths_per_s("simulate.until"),
        "simulate.cost_paths_per_s": paths_per_s("simulate.cost"),
        "simulate.joint_paths_per_s": paths_per_s("simulate.joint"),
        "simulate.censored_ratio": med(censored_ratio),
        "zeroconf.build_s": s("zeroconf.build"),
        "zeroconf.closed_s": s("zeroconf.closed"),
        "zeroconf.report_self_s": s("zeroconf.report"),
        "crowds.build_s": s("crowds.build"),
        "crowds.closed_s": s("crowds.closed"),
        "crowds.solver_self_s": s("crowds.solver"),
        "crowds.report_self_s": s("crowds.report"),
        "info.s": s("info"),
        "info.calls": calls("info"),
        "trace.pass_s": statistics.median(pass_walls),
        "trace.overhead_ratio": statistics.median(pass_walls) / statistics.median(untraced_walls) - 1,
    }

