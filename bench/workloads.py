"""The four benchmark workloads: seeded inputs, timed ops and output checks.

Building a workload is its set-up: it imports what it needs and generates
its inputs from the workload seed. ``ops`` is one pass, the list the
benchmark times in a closed loop; each op is one call into the public API
or one CLI process. ``check(op, output)`` returns ``None`` for a correct
output and a reason otherwise. Reference values that checks need (exact
twins, one-step equations, exact values for Monte Carlo) are computed
inside ``check``, after the timed loop.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
MODEL = "bench/models/zeroconf_small.json"

#: Seed at which seeded outputs must equal the recorded ones bit for bit.
DEFAULT_SEED = 1

#: Float results agree with the exact ones within this relative tolerance,
#: plus FLOAT_ATOL for values that are exactly zero. The seed commit stays
#: below 4e-14.
FLOAT_RTOL = 1e-9
FLOAT_ATOL = 1e-12

#: A Monte Carlo estimate fails when it lies further than this many
#: standard errors from the exact value.
MC_SIGMAS = 4

MC_PATHS = 50_000


@dataclasses.dataclass
class Op:
    """One timed call. ``fn`` looks its target up on the module when called,
    so the wrappers that ``spans.py`` installs there see the call."""

    name: str
    fn: Callable[[], object]


def _scalar(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, float):
        return repr(value)
    return str(Fraction(value))


def canon(value):
    """JSON-able canonical form that compares values, not their Python types."""
    if dataclasses.is_dataclass(value):
        return canon({f.name: getattr(value, f.name) for f in dataclasses.fields(value)})
    if isinstance(value, dict):
        items = [(json.dumps(canon(k)), canon(v)) for k, v in value.items()]
        return sorted(items)
    if isinstance(value, (list, tuple)):
        return [canon(v) for v in value]
    return _scalar(value)


def digest(value) -> str:
    if isinstance(value, bytes):
        return hashlib.sha256(value).hexdigest()
    return hashlib.sha256(json.dumps(canon(value)).encode()).hexdigest()


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def derive_seed(seed: int, name: str) -> int:
    """64-bit sampling seed for one op, derived from the workload seed."""
    return int.from_bytes(hashlib.sha256(f"{seed}:{name}".encode()).digest()[:8], "big")


# -- random reward chains ---------------------------------------------------

ABSORBING = ("Goal", "Fail")


@dataclasses.dataclass
class ChainSpec:
    """A random reward chain with integer edge weights, buildable in either mode.

    ``n`` transient states ``T0 .. T{n-1}`` plus absorbing ``Goal`` and
    ``Fail``. Each transient state has out-degree 3: a backbone edge to the
    next state (``Goal`` after the last), a jump to a random transient state
    that closes cycles, and an exit to a random absorbing state. So every
    state is reachable from ``T0`` and absorption is certain, which fixes
    the system sizes (n unknowns; one right-hand side per state for the
    entry-edge law) and leaves only the sparsity pattern and the values to
    the seed. Weights 1..4 give probabilities with denominators at most 12;
    costs are 0..5.
    """

    n: int
    weights: dict
    costs: dict

    @classmethod
    def generate(cls, rng: random.Random, n: int) -> "ChainSpec":
        transient = [f"T{i}" for i in range(n)]
        weights, costs = {}, {}
        for i, state in enumerate(transient):
            nxt = transient[i + 1] if i + 1 < n else "Goal"
            jump = rng.choice([t for t in transient if t != nxt])
            exit_ = rng.choice([a for a in ABSORBING if a != nxt])
            for succ in (nxt, jump, exit_):
                weights[(state, succ)] = rng.randint(1, 4)
                costs[(state, succ)] = rng.randint(0, 5)
        for s in ABSORBING:
            weights[(s, s)] = 1
        return cls(n, weights, costs)

    def build(self, mode: str):
        from exactchain import chain

        totals: dict = {}
        for (frm, _), w in self.weights.items():
            totals[frm] = totals.get(frm, 0) + w
        trans = {}
        for (frm, to), w in self.weights.items():
            p = Fraction(w, totals[frm])
            trans[(frm, to)] = p if mode == chain.EXACT else float(p)
        states = [f"T{i}" for i in range(self.n)] + list(ABSORBING)
        c = chain.validate_chain(states, trans, mode)
        return chain.validate_reward(c, self.costs)


def chain_ops(tag: str, rc) -> list[Op]:
    """The five generic queries on one chain, all from ``T0``."""
    from exactchain import analysis

    c = rc.chain
    transient = [s for s in c.states if s not in ABSORBING]
    goal = set(ABSORBING)
    return [
        Op(f"{tag}-until", lambda: analysis.until_probabilities(c, transient, {"Goal"})),
        Op(f"{tag}-hitting", lambda: analysis.expected_hitting_time(c, goal, "T0")),
        Op(f"{tag}-cost", lambda: analysis.expected_cost_until(rc, goal, "T0")),
        Op(f"{tag}-first", lambda: analysis.first_entry_distribution(c, goal, "T0")),
        Op(f"{tag}-edge", lambda: analysis.entry_edge_distribution(c, goal, "T0")),
    ]


def _can_reach(c, within, targets) -> set:
    preds: dict = {}
    for u, v, _ in c.edges():
        preds.setdefault(v, []).append(u)
    seen, frontier = set(), list(targets)
    while frontier:
        for u in preds.get(frontier.pop(), ()):
            if u in within and u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def check_exact_chain_op(kind: str, rc, out) -> str | None:
    """Exact identities: the until fixed point, and one-step equations at T0."""
    from exactchain import analysis

    c = rc.chain
    goal = set(ABSORBING)
    row = c.row("T0")
    if kind == "until":
        phi = set(c.states) - goal
        live = _can_reach(c, phi, {"Goal"})
        for s in c.states:
            v = out[s]
            if s == "Goal":
                want = 1
            elif s not in live:
                want = 0
            else:
                want = sum((p * out[t] for t, p in c.row(s).items()), Fraction(0))
                if not 0 < v <= 1:
                    return f"until[{s}]={v} outside (0, 1]"
            if v != want:
                return f"until[{s}]={v}, fixed point gives {want}"
        return None
    if kind in ("hitting", "cost"):
        def value(t):
            if t in goal:
                return 0
            if t == "T0":
                return out
            if kind == "hitting":
                return analysis.expected_hitting_time(c, goal, t)
            return analysis.expected_cost_until(rc, goal, t)
        step = (lambda t: 1) if kind == "hitting" else (lambda t: rc.cost("T0", t))
        want = sum(p * (step(t) + value(t)) for t, p in row.items())
        return None if out == want else f"{kind}(T0)={out}, one step gives {want}"
    if kind == "first":
        if out.total() + out.never != 1:
            return f"first-entry masses sum to {out.total() + out.never}"
        want_never = Fraction(0)
        want = {}
        for t, p in row.items():
            if t in goal:
                want[t] = want.get(t, 0) + p
                continue
            d = out if t == "T0" else analysis.first_entry_distribution(c, goal, t)
            want_never += p * d.never
            for e, m in d.mass.items():
                want[e] = want.get(e, 0) + p * m
        if {k: v for k, v in want.items() if v} != out.mass or want_never != out.never:
            return "first-entry law breaks its one-step equation at T0"
        return None
    if kind == "edge":
        if out.total() + out.never != 1:
            return f"entry-edge masses sum to {out.total() + out.never}"
        for (u, v) in out.mass:
            if u in goal or v not in goal or c.prob(u, v) == 0:
                return f"({u}, {v}) is not a boundary edge"
        first = analysis.first_entry_distribution(c, goal, "T0")
        if out.entry_marginal() != first:
            return "entry-edge marginal differs from the first-entry law"
        return None
    raise ValueError(kind)


def _close(a, b) -> bool:
    a, b = float(a), float(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= FLOAT_RTOL * max(abs(a), abs(b)) + FLOAT_ATOL


def _close_map(a: dict, b: dict) -> bool:
    return all(_close(a.get(k, 0), b.get(k, 0)) for k in set(a) | set(b))


def check_float_against_exact(out, exact) -> str | None:
    if isinstance(exact, dict):
        ok = _close_map(out, exact)
    elif hasattr(exact, "mass"):
        ok = _close_map(out.mass, exact.mass) and _close(out.never, exact.never)
    else:
        ok = _close(out, exact)
    return None if ok else f"float result {canon(out)} differs from exact {canon(exact)}"


# -- report checks ------------------------------------------------------------

def _triples(report):
    """Every dict in a report that carries a ``difference`` field."""
    stack = [report]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            if "difference" in node:
                yield node
            stack.extend(v for v in node.values() if isinstance(v, (dict, list)))
        elif isinstance(node, list):
            stack.extend(node)


def check_exact_report(report, recorded_digest) -> str | None:
    triples = list(_triples(report))
    if not triples:
        return "report has no difference fields"
    bad = [t for t in triples if t["difference"] != "0"]
    if bad:
        return f"nonzero difference {bad[0]}"
    if report.get("last_jondo", {}).get("max_difference", "0") != "0":
        return "last_jondo max_difference is not 0"
    if digest(report) != recorded_digest:
        return "report differs from the recorded exact report"
    return None


def report_verdicts(report) -> dict:
    """The qualitative verdicts of a report, compared across modes."""
    if report["model"] == "zeroconf":
        return {
            "ae_termination": report["ae_termination"],
            "within_claimed_bound": report["bound_audit"]["within_claimed_bound"],
        }
    return {
        "probable_innocence": report["probable_innocence"]["holds"],
        "independence_first_last_jondo": report["independence_first_last_jondo"],
        "ae_route_terminates": report["ae_route_terminates"],
    }


def check_float_report(report, recorded_verdicts) -> str | None:
    triples = list(_triples(report))
    if not triples:
        return "report has no difference fields"
    for t in triples:
        if not _close(t["closed_form"], t["solver"]):
            return f"closed form and solver differ beyond tolerance: {t}"
    last = report.get("last_jondo")
    if last and abs(float(last["max_difference"])) > FLOAT_RTOL:
        return f"last_jondo max_difference {last['max_difference']}"
    if report_verdicts(report) != recorded_verdicts:
        return f"verdicts {report_verdicts(report)} differ from exact {recorded_verdicts}"
    return None


# -- workloads ----------------------------------------------------------------

class Workload:
    name = ""
    #: Percentile reported as the latency tail: the highest whole percentile
    #: with at least ten op runs beyond it in a run at the seed commit's
    #: speed. It stays fixed, and the run extends until ten op runs lie
    #: beyond it.
    tail_pct: float

    def __init__(self, seed: int, child_env: dict):
        self.seed = seed
        self.child_env = child_env
        self.ops: list[Op] = []
        self._checks: dict = {}
        self._reference = None

    @property
    def reference(self) -> dict:
        if self._reference is None:
            self._reference = load_reference()
        return self._reference

    def traced_ops(self) -> list[Op]:
        return self.ops

    def check(self, op: Op, output) -> str | None:
        return self._checks[op.name](output)

    def _seeded_digest(self, name):
        if self.seed != DEFAULT_SEED:
            return None
        return self.reference["seeded"][self.name][name]


# ZeroConf N ladder: 2 is the paper's typical setting; 25, 50 and 100 grow
# the solved system (n = N + 4 states) and the per-state certification.
ZEROCONF_EXACT_N = (2, 25, 50, 100)
# Crowds (J, collaborators): (3, 1) is the paper's Fig. 3 crowd; each rung
# adds honest initiators, so entry-edge solves (one per initiator) grow in
# number and in size.
CROWDS_EXACT = ((3, 1), (8, 2), (12, 3), (20, 4))
CROWDS_PF = Fraction(4, 5)
# Random chains: 30 and 60 transient states give general sparsity, unlike
# the path-shaped case studies.
EXACT_CHAIN_SIZES = (30, 60)


class ExactAnalysis(Workload):
    name = "exact-analysis"
    tail_pct = 92.0

    def __init__(self, seed, child_env):
        super().__init__(seed, child_env)
        from exactchain import crowds, zeroconf

        base = zeroconf.PAPER_TYPICAL
        for n in ZEROCONF_EXACT_N:
            params = zeroconf.ZeroconfParams(n, base.p, base.q, base.r, base.E)
            name = f"zeroconf-N{n}"
            self.ops.append(Op(name, partial(lambda p: zeroconf.zeroconf_report(p), params)))
            self._checks[name] = partial(self._check_report, name)
        for j, colls in CROWDS_EXACT:
            params = crowds.make_params(j, colls, CROWDS_PF)
            name = f"crowds-J{j}"
            self.ops.append(Op(name, partial(lambda p: crowds.crowds_report(p), params)))
            self._checks[name] = partial(self._check_report, name)
        for n in EXACT_CHAIN_SIZES:
            rc = ChainSpec.generate(random.Random(f"{seed}:chain{n}"), n).build("exact")
            for op in chain_ops(f"chain{n}", rc):
                self.ops.append(op)
                kind = op.name.rsplit("-", 1)[1]
                self._checks[op.name] = partial(self._check_chain, op.name, kind, rc)

    def _check_report(self, name, report):
        return check_exact_report(report, self.reference["reports"][name])

    def _check_chain(self, name, kind, rc, out):
        recorded = self._seeded_digest(name)
        if recorded is not None and digest(out) != recorded:
            return "result differs from the recorded value at the default seed"
        return check_exact_chain_op(kind, rc, out)


# Float ZeroConf: N up to 150 at two loss rates; certify_ae_until runs once
# per state and searches the graph from each, so graph work grows ~N^2 per
# report while numpy solves stay cheap.
ZEROCONF_FLOAT_N = (50, 100, 150)
ZEROCONF_FLOAT_P = (Fraction(1, 100), Fraction(1, 10))
# Float Crowds: J up to 60 with J/5 collaborators; J^2 edges make chain
# validation, system assembly and the closed forms visible.
CROWDS_FLOAT_J = (20, 40, 60)
FLOAT_CHAIN_SIZES = (60, 120)


class FloatSweep(Workload):
    name = "float-sweep"
    tail_pct = 93.0

    def __init__(self, seed, child_env):
        super().__init__(seed, child_env)
        from exactchain import crowds, zeroconf

        base = zeroconf.PAPER_TYPICAL
        for n in ZEROCONF_FLOAT_N:
            for p in ZEROCONF_FLOAT_P:
                params = zeroconf.ZeroconfParams(n, p, base.q, base.r, base.E)
                name = f"zeroconf-N{n}-p{p.denominator}"
                self.ops.append(Op(name, partial(
                    lambda q: zeroconf.zeroconf_report(q, "float"), params)))
                self._checks[name] = partial(self._check_report, name)
        for j in CROWDS_FLOAT_J:
            params = crowds.make_params(j, j // 5, CROWDS_PF)
            name = f"crowds-J{j}"
            self.ops.append(Op(name, partial(lambda q: crowds.crowds_report(q, "float"), params)))
            self._checks[name] = partial(self._check_report, name)
        self._exact = {}
        for n in FLOAT_CHAIN_SIZES:
            spec = ChainSpec.generate(random.Random(f"{seed}:chain{n}"), n)
            for op in chain_ops(f"chain{n}", spec.build("float")):
                self.ops.append(op)
                self._checks[op.name] = partial(self._check_chain, op.name, spec)

    def _check_report(self, name, report):
        return check_float_report(report, self.reference["verdicts"][name])

    def _check_chain(self, name, spec, out):
        if name not in self._exact:
            exact_ops = chain_ops(name.split("-")[0], spec.build("exact"))
            for op in exact_ops:
                self._exact[op.name] = op.fn()
        return check_float_against_exact(out, self._exact[name])


class MonteCarlo(Workload):
    name = "monte-carlo"
    tail_pct = 91.0

    def __init__(self, seed, child_env):
        super().__init__(seed, child_env)
        from exactchain import crowds, modelfile, simulate, zeroconf

        # P(Error) is about 0.2 on the small ZeroConf model: a short walk.
        self.small = modelfile.load_model(ROOT / MODEL)
        # q = 1/2 makes restarts frequent. E = 1/10 keeps the cost
        # light-tailed: with E = 3600 about five error paths in 5e4 would set
        # the mean, and the estimated standard error would not bound it.
        self.restart = zeroconf.build_zeroconf(zeroconf.ZeroconfParams(
            3, Fraction(1, 10), Fraction(1, 2), Fraction(1, 500), Fraction(1, 10)))
        # Crowds J=20 with 4 collaborators: longer routes and the joint
        # bookkeeping of initiator and last honest jondo.
        self.crowd = crowds.build_crowds(crowds.make_params(20, 4, CROWDS_PF))
        cfg = {k: simulate.SimConfig(derive_seed(seed, k), MC_PATHS) for k in ("until", "cost", "joint")}
        small, restart, crowd = self.small, self.restart, self.crowd
        self.ops = [
            Op("until", lambda: simulate.estimate_until(
                small.chain, small.states, {"Error"}, "Start", cfg["until"])),
            Op("cost", lambda: simulate.estimate_cost(
                restart, {"Ok", "Error"}, "Start", cfg["cost"])),
            Op("joint", lambda: simulate.estimate_joint_first_last(crowd, cfg["joint"])),
        ]
        self._exact = None

    def _exact_values(self):
        from exactchain import analysis, crowds

        if self._exact is None:
            params = self.crowd.params
            self._exact = {
                "until": analysis.until_probability(
                    self.small.chain, self.small.states, {"Error"}, "Start"),
                "cost": analysis.expected_cost_until(self.restart, {"Ok", "Error"}, "Start"),
                "hit": crowds.prob_hit_colls(params),
                "diag": crowds.prob_first_eq_last(params),
            }
        return self._exact

    def check(self, op, out):
        recorded = self._seeded_digest(op.name)
        if recorded is not None and digest(out) != recorded:
            return "estimate differs from the recorded value at the default seed"
        exact = self._exact_values()
        if op.name == "joint":
            decided = out.samples_used - out.censored
            tests = [("hit fraction", out.hits / decided, exact["hit"], decided)]
            diag = sum(v for (i, l), v in out.counts.items() if i == l)
            tests.append(("first==last share", diag / out.hits, exact["diag"], out.hits))
            for label, got, p, n in tests:
                se = math.sqrt(float(p) * (1 - float(p)) / n)
                if abs(got - float(p)) > MC_SIGMAS * se:
                    return f"{label} {got} is more than {MC_SIGMAS} SE from {float(p)}"
            return None
        p = float(exact[op.name])
        if op.name == "until":
            se = math.sqrt(p * (1 - p) / (out.samples_used - out.censored))
        else:
            se = out.std_error
        if abs(out.mean - p) > MC_SIGMAS * se:
            return f"mean {out.mean} is more than {MC_SIGMAS} SE ({se}) from {p}"
        return None


CLI_OPS = {
    "zeroconf": ["zeroconf", "--preset", "paper-typical"],
    "zeroconf-json": ["zeroconf", "--preset", "paper-typical", "--json"],
    "zeroconf-sweep": ["zeroconf", "--preset", "paper-typical",
                       "--sweep", "p=1/100,1/10;probes=1,2,3", "--csv"],
    "crowds": ["crowds", "--preset", "fig3"],
    "validate": ["validate", MODEL],
    "solve": ["solve", MODEL, "--until", "ALL=>Error", "--start", "Start", "--cost"],
    "simulate": ["simulate", MODEL, "--event", "until:ALL=>Error",
                 "--seed", "7", "--samples", "10000"],
}


def run_cli_process(argv, env) -> tuple[int, bytes]:
    proc = subprocess.run([sys.executable, "-m", "exactchain.cli", *argv],
                          cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout


def run_cli_inprocess(argv) -> tuple[int, bytes]:
    from exactchain import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


class CliOneshot(Workload):
    name = "cli-oneshot"
    tail_pct = 91.0

    def __init__(self, seed, child_env):
        super().__init__(seed, child_env)
        # The seed only orders the ops: CLI outputs are compared byte for
        # byte with recorded ones, so their inputs stay fixed.
        names = sorted(CLI_OPS)
        random.Random(f"{seed}:cli").shuffle(names)
        self.ops = [Op(n, partial(run_cli_process, CLI_OPS[n], child_env)) for n in names]

    def traced_ops(self):
        return [Op(op.name, partial(run_cli_inprocess, CLI_OPS[op.name])) for op in self.ops]

    def check(self, op, out):
        code, stdout = out
        want = self.reference["cli"][op.name]
        if code != want["exit"] or digest(stdout) != want["stdout_sha256"]:
            return f"exit {code} / stdout {digest(stdout)[:12]} differ from the recorded output"
        return None


WORKLOADS = {w.name: w for w in (ExactAnalysis, FloatSweep, MonteCarlo, CliOneshot)}
