"""Command-line front end.

Subcommands: ``validate``, ``solve``, ``zeroconf``, ``crowds``,
``simulate``. Reports print as human-readable key/value lines by default;
``--json`` and ``--csv`` switch to machine formats. All numeric flags
accept rational literals (``16/65024``) and decimal literals, which exact
mode parses as exact decimal fractions.

Exit codes::

    0  success
    2  usage error (bad flags, malformed flag values)
    3  model file I/O failure
    4  model file parse failure (JSON or schema)
    5  semantic validation failure (bad rows, bad parameters)
    6  unknown state label in a query
    7  solver failure (a float system singular after rounding)

The default arithmetic mode is exact; set ``EXACTCHAIN_MODE=float`` or
pass ``--float`` to switch.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from fractions import Fraction

from . import analysis, crowds, modelfile, zeroconf
from .chain import EXACT, FLOAT, RewardChain, format_scalar
from .errors import (
    ExactchainError,
    InvalidParamsError,
    ModelIOError,
    ModelParseError,
    SingularSystemError,
    UnknownStateError,
)
from .simulate import SimConfig, estimate_cost, estimate_until

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_MODEL = 5
EXIT_QUERY = 6
EXIT_SOLVER = 7

ENV_MODE = "EXACTCHAIN_MODE"

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _rational_flag(text: str) -> str:
    # Validated at parse time, converted once the arithmetic mode is known.
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse number {text!r}") from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exactchain",
        description="Exact analysis of finite Markov reward chains, "
        "with the ZeroConf and Crowds case studies built in.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--exact", action="store_true", help="exact rational arithmetic (default)")
        mode.add_argument("--float", action="store_true", help="64-bit float arithmetic")
        out = p.add_mutually_exclusive_group()
        out.add_argument("--json", action="store_true", help="emit the report as JSON")
        out.add_argument("--csv", action="store_true", help="emit the report as CSV")
        p.add_argument("--timing", action="store_true", help="include wall-clock timing (breaks byte-identical reruns)")

    p = sub.add_parser("validate", help="validate a JSON model file")
    p.add_argument("model")
    add_common(p)

    p = sub.add_parser("solve", help="until probability and verdicts on a model file")
    p.add_argument("model")
    p.add_argument("--until", required=True, metavar="PHI=>PSI",
                   help="comma-separated label sets, or ALL")
    p.add_argument("--start", required=True)
    p.add_argument("--cost", action="store_true",
                   help="also report the expected cost until PSI (needs rewards)")
    add_common(p)

    p = sub.add_parser("zeroconf", help="ZeroConf address-allocation case study")
    p.add_argument("--preset", choices=["paper-typical"],
                   help="start from the bundled typical parameters")
    p.add_argument("--probes", type=int, metavar="N", help="last probe index N (N+1 probes)")
    p.add_argument("--p", type=_rational_flag, help="probe/response loss probability")
    q = p.add_mutually_exclusive_group()
    q.add_argument("--q", type=_rational_flag, help="address-collision probability")
    q.add_argument("--hosts", type=int, help=f"hosts on the network; sets q = hosts/{zeroconf.ADDRESS_POOL}")
    p.add_argument("--r", type=_rational_flag, help="probe round time in seconds")
    p.add_argument("--E", type=_rational_flag, help="error penalty in seconds")
    p.add_argument("--sweep", metavar="SPEC",
                   help="grid sweep 'name=v1,v2;name=...' over probes,p,q,hosts,r,E")
    p.add_argument("--simulate", action="store_true", help="attach Monte Carlo estimates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--max-steps", type=_positive_int, default=10_000)
    add_common(p)

    p = sub.add_parser("crowds", help="Crowds anonymity case study")
    p.add_argument("--preset", choices=["fig3"], help="3 jondos, 1 collaborator, p_f=1/2")
    p.add_argument("--jondos", type=int, help="crowd size J")
    p.add_argument("--colls", type=int, help="number of collaborators (the last labels)")
    p.add_argument("--pf", type=_rational_flag, help="forwarding probability")
    p.add_argument("--init", metavar="FILE",
                   help="JSON file mapping jondo labels (J1..Jn) to initiator masses")
    p.add_argument("--sweep", metavar="SPEC",
                   help="grid sweep 'name=v1,v2;name=...' over jondos,colls,pf")
    p.add_argument("--simulate", action="store_true", help="attach Monte Carlo estimates")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=_positive_int, default=100_000)
    p.add_argument("--max-steps", type=_positive_int, default=10_000)
    add_common(p)

    p = sub.add_parser("simulate", help="seeded Monte Carlo estimation")
    p.add_argument("model",
                   help="model file path, or preset 'zeroconf:paper-typical' / 'crowds:fig3'")
    p.add_argument("--event", required=True, metavar="until:PHI=>PSI | cost:PHI")
    p.add_argument("--start", default="Start")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--samples", type=_positive_int, required=True)
    p.add_argument("--max-steps", type=_positive_int, default=10_000)
    add_common(p)

    return parser


def _resolve_mode(args) -> str:
    if getattr(args, "float", False):
        return FLOAT
    if getattr(args, "exact", False):
        return EXACT
    env = os.environ.get(ENV_MODE, EXACT).lower()
    if env not in (EXACT, FLOAT):
        raise InvalidParamsError(f"{ENV_MODE} must be 'exact' or 'float', got {env!r}")
    return env


def _resolve_set(spec: str, chain) -> set[str]:
    if spec == "ALL":
        return set(chain.states)
    labels = {part for part in (s.strip() for s in spec.split(",")) if part}
    chain.index_set(labels)
    return labels


def _split_until(spec: str) -> tuple[str, str]:
    if "=>" not in spec:
        raise InvalidParamsError(f"--until expects 'PHI=>PSI', got {spec!r}")
    phi, _, psi = spec.partition("=>")
    return phi.strip(), psi.strip()


def _parse_sweep(spec: str, allowed: set[str]) -> list[dict]:
    """Expand 'name=v1,v2;name=...' into the grid of override dicts."""
    axes = {}
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        name, eq, values = part.partition("=")
        name = name.strip()
        if not eq or name not in allowed:
            raise InvalidParamsError(
                f"sweep axis {name!r} not in {sorted(allowed)}"
            )
        if name in axes:
            raise InvalidParamsError(f"sweep axis {name!r} given twice")
        axes[name] = [v.strip() for v in values.split(",") if v.strip()]
        if not axes[name]:
            raise InvalidParamsError(f"sweep axis {name!r} has no values")
    if not axes:
        raise InvalidParamsError("empty sweep specification")
    grid = [{}]
    for name, values in axes.items():
        grid = [dict(point, **{name: v}) for point in grid for v in values]
    return grid


def _echo(argv) -> str:
    return "exactchain " + " ".join(argv)


def _as_int(name: str, value) -> int:
    try:
        return int(value)
    except (TypeError, ValueError):
        raise InvalidParamsError(f"{name} must be an integer, got {value!r}") from None


def _load_chain_for(args, mode):
    model = modelfile.load_model(args.model, mode)
    chain = model.chain if isinstance(model, RewardChain) else model
    return model, chain


def cmd_validate(args, argv, mode) -> dict:
    model, chain = _load_chain_for(args, mode)
    return {
        "command": _echo(argv),
        "mode": mode,
        "model_file": args.model,
        "verdict": "OK",
        "states": len(chain.states),
        "transitions": sum(1 for _ in chain.edges()),
        "rewards": sum(1 for _ in model.cost_edges()) if isinstance(model, RewardChain) else 0,
    }


def cmd_solve(args, argv, mode) -> dict:
    model, chain = _load_chain_for(args, mode)
    phi_spec, psi_spec = _split_until(args.until)
    phi = _resolve_set(phi_spec, chain)
    psi = _resolve_set(psi_spec, chain)
    chain.index_of(args.start)

    prob = analysis.until_probability(chain, phi, psi, args.start)
    results = [
        {"name": "until_probability", "provenance": "solver", "value": format_scalar(prob)}
    ]
    if args.cost:
        if not isinstance(model, RewardChain):
            raise InvalidParamsError("--cost requires a model file with rewards")
        cost = analysis.expected_cost_until(model, psi, args.start)
        results.append(
            {"name": "expected_cost", "provenance": "solver", "value": format_scalar(cost)}
        )
    return {
        "command": _echo(argv),
        "mode": mode,
        "model_file": args.model,
        "start": args.start,
        "phi": sorted(phi),
        "psi": sorted(psi),
        "results": results,
        "verdicts": {
            "probability_zero": analysis.until_prob_is_zero(chain, phi, psi, args.start),
            "ae_certified": analysis.certify_ae_until(chain, phi, psi, args.start),
        },
    }


def _zeroconf_params(args, overrides: dict) -> zeroconf.ZeroconfParams:
    base = zeroconf.PAPER_TYPICAL if args.preset == "paper-typical" else None
    fields = {
        "probes": args.probes, "p": args.p, "q": args.q,
        "hosts": args.hosts, "r": args.r, "E": args.E,
    }
    # A sweep axis replaces the corresponding flag; sweeping q or hosts
    # also displaces the other way of fixing the collision probability.
    if "q" in overrides:
        fields["hosts"] = None
    if "hosts" in overrides:
        fields["q"] = None
    fields.update(overrides)

    n = fields["probes"] if fields["probes"] is not None else (base.N if base else None)
    p = fields["p"] if fields["p"] is not None else (base.p if base else None)
    if fields["hosts"] is not None:
        q = zeroconf.hosts_to_q(_as_int("hosts", fields["hosts"]))
    elif fields["q"] is not None:
        q = fields["q"]
    else:
        q = base.q if base else None
    r = fields["r"] if fields["r"] is not None else (base.r if base else None)
    e = fields["E"] if fields["E"] is not None else (base.E if base else None)
    missing = [name for name, v in (("probes", n), ("p", p), ("q|hosts", q), ("r", r), ("E", e)) if v is None]
    if missing:
        raise InvalidParamsError(f"missing zeroconf parameters: {', '.join(missing)}")
    return zeroconf.ZeroconfParams(_as_int("probes", n), p, q, r, e)


def cmd_zeroconf(args, argv, mode) -> dict | list:
    sim = SimConfig(args.seed, args.samples, args.max_steps) if args.simulate else None
    if args.sweep:
        grid = _parse_sweep(args.sweep, {"probes", "p", "q", "hosts", "r", "E"})
        reports = []
        for overrides in grid:
            params = _zeroconf_params(args, overrides)
            reports.append(zeroconf.zeroconf_report(params, mode, sim))
        return reports
    report = zeroconf.zeroconf_report(_zeroconf_params(args, {}), mode, sim)
    report["command"] = _echo(argv)
    return report


def _crowds_params(args, overrides: dict) -> crowds.CrowdsParams:
    base = crowds.FIG3 if args.preset == "fig3" else None
    n = overrides.get("jondos", args.jondos)
    c = overrides.get("colls", args.colls)
    pf = overrides.get("pf", args.pf)
    if n is None and base is not None:
        n = base.J
    if c is None and base is not None:
        c = len(base.colls)
    if pf is None and base is not None:
        pf = base.p_f
    missing = [name for name, v in (("jondos", n), ("colls", c), ("pf", pf)) if v is None]
    if missing:
        raise InvalidParamsError(f"missing crowds parameters: {', '.join(missing)}")
    init = None
    if args.init:
        try:
            with open(args.init) as fh:
                init = json.load(fh, parse_float=Fraction)
            if not isinstance(init, dict):
                raise ModelParseError(f"init file {args.init} must hold an object")
        except OSError as exc:
            raise ModelIOError(f"cannot read {args.init}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ModelParseError(f"bad init file {args.init}: {exc}") from exc
    return crowds.make_params(_as_int("jondos", n), _as_int("colls", c), pf, init)


def cmd_crowds(args, argv, mode) -> dict | list:
    sim = SimConfig(args.seed, args.samples, args.max_steps) if args.simulate else None
    if args.sweep:
        grid = _parse_sweep(args.sweep, {"jondos", "colls", "pf"})
        return [
            crowds.crowds_report(_crowds_params(args, o), mode, sim) for o in grid
        ]
    report = crowds.crowds_report(_crowds_params(args, {}), mode, sim)
    report["command"] = _echo(argv)
    return report


def _simulation_model(spec: str, mode: str):
    if spec == "zeroconf:paper-typical":
        return zeroconf.build_zeroconf(zeroconf.PAPER_TYPICAL, mode)
    if spec == "crowds:fig3":
        return crowds.build_crowds(crowds.FIG3, mode).chain
    return modelfile.load_model(spec, mode)


def cmd_simulate(args, argv, mode) -> dict:
    model = _simulation_model(args.model, mode)
    chain = model.chain if isinstance(model, RewardChain) else model
    chain.index_of(args.start)
    cfg = SimConfig(args.seed, args.samples, args.max_steps)

    kind, _, spec = args.event.partition(":")
    if kind == "until":
        phi_spec, psi_spec = _split_until(spec)
        phi = _resolve_set(phi_spec, chain)
        psi = _resolve_set(psi_spec, chain)
        est = estimate_until(chain, phi, psi, args.start, cfg)
        name = "until_probability"
    elif kind == "cost":
        if not isinstance(model, RewardChain):
            raise InvalidParamsError("cost events require a model with rewards")
        target = _resolve_set(spec, chain)
        est = estimate_cost(model, target, args.start, cfg)
        name = "expected_cost"
    else:
        raise InvalidParamsError(
            f"--event must be 'until:PHI=>PSI' or 'cost:PHI', got {args.event!r}"
        )

    return {
        "command": _echo(argv),
        "mode": mode,
        "model": args.model,
        "start": args.start,
        "event": args.event,
        "seed": cfg.seed,
        "samples": cfg.samples,
        "max_steps": cfg.max_steps,
        "results": [
            {
                "name": name,
                "provenance": "simulation",
                "mean": est.mean,
                "std_error": est.std_error,
                "samples_used": est.samples_used,
                "censored": est.censored,
            }
        ],
    }


def _flatten_zeroconf(report: dict) -> dict:
    return {
        "mode": report["mode"],
        "N": report["params"]["N"],
        "p": report["params"]["p"],
        "q": report["params"]["q"],
        "r": report["params"]["r"],
        "E": report["params"]["E"],
        "p_err_closed": report["p_err_start"]["closed_form"],
        "p_err_solver": report["p_err_start"]["solver"],
        "p_err_diff": report["p_err_start"]["difference"],
        "cost_closed": report["expected_cost"]["closed_form"],
        "cost_solver": report["expected_cost"]["solver"],
        "cost_diff": report["expected_cost"]["difference"],
        "ae_all_states": all(report["ae_termination"].values()),
        "within_claimed_bound": report["bound_audit"]["within_claimed_bound"],
    }


def _flatten_crowds(report: dict) -> dict:
    return {
        "mode": report["mode"],
        "jondos": " ".join(report["params"]["jondos"]),
        "colls": " ".join(report["params"]["colls"]),
        "J": report["J"],
        "H": report["H"],
        "p_f": report["params"]["p_f"],
        "hit_closed": report["hit_collaborator"]["closed_form"],
        "hit_solver": report["hit_collaborator"]["solver"],
        "hit_diff": report["hit_collaborator"]["difference"],
        "first_eq_last_closed": report["first_equals_last"]["closed_form"],
        "first_eq_last_solver": report["first_equals_last"]["solver"],
        "first_eq_last_diff": report["first_equals_last"]["difference"],
        "innocence_holds": report["probable_innocence"]["holds"],
        "innocence_threshold": report["probable_innocence"]["threshold"],
        "mi_exact_bits": report["mutual_information_bits"]["exact"],
        "mi_bound_bits": report["mutual_information_bits"]["bound"],
        "independence_first_last_jondo": report["independence_first_last_jondo"],
        "ae_route_terminates": report["ae_route_terminates"],
    }


def _print_csv(reports, command: str) -> None:
    flatten = {"zeroconf": _flatten_zeroconf, "crowds": _flatten_crowds}.get(
        command, _flatten_generic
    )
    rows = [flatten(r) for r in reports]
    writer = csv.DictWriter(sys.stdout, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)


def _flatten_generic(report: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in report.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_generic(value, f"{name}."))
        elif isinstance(value, list):
            if value and isinstance(value[0], dict):
                for i, entry in enumerate(value):
                    flat.update(_flatten_generic(entry, f"{name}[{i}]."))
            else:
                flat[name] = " ".join(str(v) for v in value)
        else:
            flat[name] = value
    return flat


def _print_human(value, indent: int = 0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key, inner in value.items():
            if isinstance(inner, (dict, list)) and inner and not _is_scalar_list(inner):
                print(f"{pad}{key}:")
                _print_human(inner, indent + 1)
            else:
                rendered = " ".join(str(v) for v in inner) if isinstance(inner, list) else inner
                print(f"{pad}{key}: {rendered}")
    elif isinstance(value, list):
        for i, entry in enumerate(value):
            print(f"{pad}[{i}]")
            _print_human(entry, indent + 1)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and not any(isinstance(v, (dict, list)) for v in value)


_ERROR_EXITS = (
    (ModelIOError, EXIT_IO, "i/o error"),
    (ModelParseError, EXIT_PARSE, "parse error"),
    (UnknownStateError, EXIT_QUERY, "unknown state"),
    (InvalidParamsError, EXIT_MODEL, "invalid parameters"),
    (SingularSystemError, EXIT_SOLVER, "solver failure"),
    (ExactchainError, EXIT_MODEL, "validation error"),
)


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)

    handlers = {
        "validate": cmd_validate,
        "solve": cmd_solve,
        "zeroconf": cmd_zeroconf,
        "crowds": cmd_crowds,
        "simulate": cmd_simulate,
    }
    started = time.perf_counter()
    try:
        mode = _resolve_mode(args)
        report = handlers[args.command](args, argv, mode)
    except ExactchainError as exc:
        for err_type, code, label in _ERROR_EXITS:
            if isinstance(exc, err_type):
                print(f"error: {label}: {exc}", file=sys.stderr)
                return code
        raise  # unreachable: ExactchainError is the last entry

    reports = report if isinstance(report, list) else [report]
    if args.timing:
        elapsed = time.perf_counter() - started
        for entry in reports:
            entry["elapsed_seconds"] = elapsed
    if args.csv:
        _print_csv(reports, args.command)
    elif args.json:
        print(json.dumps(report, indent=2))
    else:
        for i, entry in enumerate(reports):
            if i:
                print()
            _print_human(entry)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
