"""Command-line front end.

Subcommands: ``validate``, ``solve``, ``zeroconf``, ``crowds``,
``simulate``. Reports print as human-readable key/value lines by default;
``--json`` and ``--csv`` switch to machine formats. All numeric flags
accept rational literals (``16/65024``) and decimal literals, which exact
mode parses as exact decimal fractions. ``zeroconf``'s ``q`` and ``hosts``
are two spellings of one parameter; a sweep may name only one of them.

Exit codes::

    0  success
    1  stdout closed before the whole report was written (``| head``)
    2  usage error (bad flags, malformed flag values)
    3  model file I/O failure
    4  parse failure: model or --init file JSON or schema, or a numeric
       literal whose decimal exponent is out of range (files and flags)
    5  semantic validation failure (bad rows, bad parameters)
    6  unknown state label in a query
    7  solver failure (a linear system found singular, or a float solve
       that returned negative entry masses or masses summing past one)

The default arithmetic mode is exact; set ``EXACTCHAIN_MODE=float`` or
pass ``--float`` to switch.

Each command imports the package modules it runs when it runs, and
building the parser imports none of them: ``validate`` loads no solver,
``zeroconf`` and ``crowds`` load neither the other case study nor, without
``--simulate``, the sampler, so a one-shot process compiles little that
it does not use.
"""

from __future__ import annotations

import argparse
import csv
import importlib
import itertools
import json
import os
import sys
import time
from dataclasses import asdict
from fractions import Fraction
from typing import Callable, NamedTuple

from .chain import EXACT, FLOAT, RewardChain, _coerce_int, arithmetic, format_scalar
from .errors import (
    ExactchainError,
    InvalidParamsError,
    ModelIOError,
    ModelParseError,
    SingularSystemError,
    UnknownStateError,
    _excerpt,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PARSE = 4
EXIT_MODEL = 5
EXIT_QUERY = 6
EXIT_SOLVER = 7

ENV_MODE = "EXACTCHAIN_MODE"

def _int_flag(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {_excerpt(text)}") from None


def _sampling_flag(name: str) -> Callable[[str], int]:
    """The type of the flag that sets ``SimConfig``'s field ``name``.

    It reads the value as ``SimConfig`` does, within
    ``simulate._RANGES[name]``, so that a value out of range is a flag
    error (exit 2). The range is looked up when the flag is parsed:
    building the parser loads no sampler.
    """
    def read(text: str) -> int:
        from .simulate import _RANGES

        try:
            return _coerce_int(_int_flag(text), name, *_RANGES[name])
        except InvalidParamsError as exc:
            # argparse would report a ValueError as its own "invalid ... value".
            # Its message names the flag, so the parameter's name is dropped.
            raise argparse.ArgumentTypeError(str(exc).removeprefix(f"{name} ")) from None

    return read


def _rational_flag(text: str) -> Fraction:
    # An exponent out of range raises LiteralRangeError, which argparse
    # lets through to main as a parse error.
    value = arithmetic(EXACT).read(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"cannot parse number {_excerpt(text)}")
    return value


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
    p.set_defaults(handler=cmd_validate)
    p.add_argument("model")
    add_common(p)

    p = sub.add_parser("solve", help="until probability and verdicts on a model file")
    p.set_defaults(handler=cmd_solve)
    p.add_argument("model")
    p.add_argument("--until", required=True, metavar="PHI=>PSI",
                   help="comma-separated label sets, or ALL")
    p.add_argument("--start", required=True)
    p.add_argument("--cost", action="store_true",
                   help="also report the expected cost until PSI (needs rewards)")
    add_common(p)

    def add_sampling(p, required=False):
        p.add_argument("--seed", type=_sampling_flag("seed"), default=0, required=required)
        p.add_argument("--samples", type=_sampling_flag("samples"), default=100_000,
                       required=required)
        p.add_argument("--max-steps", type=_sampling_flag("max_steps"))  # None: simulate's default

    for command, study in _CASE_STUDIES.items():
        p = sub.add_parser(command, help=study.help)
        p.add_argument("--preset", choices=list(study.presets), help=study.preset_help)
        axes = study.add_flags(p)
        p.set_defaults(handler=_cmd_case_study, sweep_axes=axes)
        p.add_argument("--sweep", metavar="SPEC", help="grid sweep 'name=v1,v2;name=...' "
                       f"over {','.join(axes)}")
        p.add_argument("--simulate", action="store_true", help="attach Monte Carlo estimates")
        add_sampling(p)
        add_common(p)

    presets = " / ".join(f"'{c}:{n}'" for c, study in _CASE_STUDIES.items() for n in study.presets)
    p = sub.add_parser("simulate", help="seeded Monte Carlo estimation")
    p.set_defaults(handler=cmd_simulate)
    p.add_argument("model", help=f"model file path, or preset {presets}")
    p.add_argument("--event", required=True, metavar="until:PHI=>PSI | cost:PHI")
    p.add_argument("--start", default="Start")
    add_sampling(p, required=True)
    add_common(p)

    return parser


def _resolve_mode(args) -> str:
    if getattr(args, "float", False):
        return FLOAT
    if getattr(args, "exact", False):
        return EXACT
    env = os.environ.get(ENV_MODE, EXACT).lower()
    try:
        return arithmetic(env).name
    except ValueError:
        raise InvalidParamsError(f"{ENV_MODE} must be 'exact' or 'float', got {env!r}") from None


def _resolve_set(spec: str, chain) -> set[str]:
    if spec == "ALL":
        return set(chain.states)
    labels = {part for part in (s.strip() for s in spec.split(",")) if part}
    chain.index_set(labels)
    return labels


def _until_sets(spec: str, chain) -> tuple[set[str], set[str]]:
    if "=>" not in spec:
        raise InvalidParamsError(f"--until expects 'PHI=>PSI', got {spec!r}")
    phi, _, psi = spec.partition("=>")
    return _resolve_set(phi.strip(), chain), _resolve_set(psi.strip(), chain)


def _parse_sweep(spec: str, allowed: dict) -> list[dict]:
    """Expand 'name=v1,v2;name=...' into the grid of override dicts.

    ``allowed`` maps each axis to the argparse action of the flag it
    replaces: a value is read by that flag's type and keyed by its dest,
    so ``hosts`` sets ``q`` as ``--hosts`` does.
    """
    axes = {}
    for part in filter(None, (part.strip() for part in spec.split(";"))):
        name, eq, values = part.partition("=")
        name = name.strip()
        if not eq or name not in allowed:
            raise InvalidParamsError(f"sweep axis {name!r} not in {sorted(allowed)}")
        flag = allowed[name]
        if flag.dest in axes:
            raise InvalidParamsError(f"sweep axis {flag.dest!r} given twice")
        axes[flag.dest] = []
        for text in filter(None, (v.strip() for v in values.split(","))):
            try:
                axes[flag.dest].append(flag.type(text))
            except (ValueError, argparse.ArgumentTypeError):
                raise InvalidParamsError(f"cannot parse sweep {name}={_excerpt(text)}") from None
        if not axes[flag.dest]:
            raise InvalidParamsError(f"sweep axis {name!r} has no values")
    if not axes:
        raise InvalidParamsError("empty sweep specification")
    return [dict(zip(axes, point)) for point in itertools.product(*axes.values())]


def _echo(argv) -> str:
    return "exactchain " + " ".join(argv)


def _with_chain(model):
    return model, getattr(model, "chain", model)  # reward chains and Crowds models wrap one


def cmd_validate(args, argv, mode) -> dict:
    from . import modelfile

    model, chain = _with_chain(modelfile.load_model(args.model, mode))
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
    from . import analysis, modelfile

    model, chain = _with_chain(modelfile.load_model(args.model, mode))
    phi, psi = _until_sets(args.until, chain)
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


def _layer(kind: str, names, sources) -> dict:
    """Each name's value from the first source that has it: sweep point, flags, preset."""
    values = {n: next((src[n] for src in sources if src.get(n) is not None), None) for n in names}
    missing = [name for name in names if values[name] is None]
    if missing:
        raise InvalidParamsError(f"missing {kind} parameters: {', '.join(missing)}")
    return values


def _axes(*flags) -> dict:
    """The sweep axes these flags stand for: each is named after its flag."""
    return {flag.option_strings[0].lstrip("-"): flag for flag in flags}


def _zeroconf_flags(p) -> dict:
    q = p.add_mutually_exclusive_group()
    return _axes(
        p.add_argument("--probes", type=_int_flag, metavar="N", help="last probe index N (N+1 probes)"),
        p.add_argument("--p", type=_rational_flag, help="probe/response loss probability"),
        q.add_argument("--q", type=_rational_flag, help="address-collision probability"),
        q.add_argument("--hosts", type=_hosts_flag, dest="q", metavar="HOSTS",
                       help="hosts on the network; sets q = hosts/pool size"),
        p.add_argument("--r", type=_rational_flag, help="probe round time in seconds"),
        p.add_argument("--E", type=_rational_flag, help="error penalty in seconds"),
    )


def _hosts_flag(text: str) -> Fraction:
    from .zeroconf import hosts_to_q

    return hosts_to_q(_int_flag(text))


def _zeroconf_params(args, point: dict, preset):
    from .zeroconf import ZeroconfParams

    base = ({"probes": preset.N, "p": preset.p, "q": preset.q, "r": preset.r, "E": preset.E}
            if preset else {})
    v = _layer("zeroconf", ("probes", "p", "q", "r", "E"), (point, vars(args), base))
    return ZeroconfParams(v["probes"], v["p"], v["q"], v["r"], v["E"])


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


def _crowds_flags(p) -> dict:
    axes = _axes(
        p.add_argument("--jondos", type=_int_flag, help="crowd size J"),
        p.add_argument("--colls", type=_int_flag, help="number of collaborators (the last labels)"),
        p.add_argument("--pf", type=_rational_flag, help="forwarding probability"),
    )
    p.add_argument("--init", metavar="FILE",
                   help="JSON file mapping jondo labels (J1..Jn) to initiator masses")
    return axes


def _crowds_params(args, point: dict, preset):
    from .crowds import make_params

    base = {"jondos": preset.J, "colls": len(preset.colls), "pf": preset.p_f} if preset else {}
    v = _layer("crowds", ("jondos", "colls", "pf"), (point, vars(args), base))
    return make_params(v["jondos"], v["colls"], v["pf"], _init_masses(args))


def _init_masses(args) -> dict | None:
    """The ``--init`` file's object: read at the first sweep point, kept for the rest."""
    if args.init and "init_masses" not in vars(args):
        from .modelfile import _read_json

        init = _read_json(args.init)
        if not isinstance(init, dict):
            raise ModelParseError(f"init file {args.init} must hold an object")
        args.init_masses = init
    return getattr(args, "init_masses", None)


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


class _CaseStudy(NamedTuple):
    """Everything the CLI knows of one case study: its subcommand's row.

    The row names its module's presets, report and builder instead of
    holding them, so that building the parser imports no case study.
    """

    help: str
    module: str  # the case study's module in this package
    presets: dict  # preset name -> the module attribute holding its parameter record
    preset_help: str
    add_flags: Callable  # (parser) -> {sweep axis: the action of the flag it replaces}
    params: Callable  # (args, sweep point, preset or None) -> parameter record
    report: str  # module function: (params, mode, sim) -> report
    model: str  # module function: (preset, mode) -> the model that simulate samples
    flatten: Callable  # report -> its CSV row

    def member(self, name: str):
        return getattr(importlib.import_module(f".{self.module}", __package__), name)

    def preset(self, name):
        """The named preset's parameter record, or None when ``name`` names none."""
        return self.member(self.presets[name]) if name in self.presets else None


_CASE_STUDIES = {
    "zeroconf": _CaseStudy(
        "ZeroConf address-allocation case study", "zeroconf", {"paper-typical": "PAPER_TYPICAL"},
        "start from the bundled typical parameters", _zeroconf_flags, _zeroconf_params,
        "zeroconf_report", "build_zeroconf", _flatten_zeroconf,
    ),
    "crowds": _CaseStudy(
        "Crowds anonymity case study", "crowds", {"fig3": "FIG3"},
        "3 jondos, 1 collaborator, p_f=1/2", _crowds_flags, _crowds_params,
        "crowds_report", "build_crowds", _flatten_crowds,
    ),
}


def _sim_config(args):
    from .simulate import DEFAULT_MAX_STEPS, SimConfig

    return SimConfig(args.seed, args.samples, args.max_steps or DEFAULT_MAX_STEPS)


def _cmd_case_study(args, argv, mode) -> dict | list:
    study = _CASE_STUDIES[args.command]
    preset = study.preset(args.preset)
    sim = _sim_config(args) if args.simulate else None
    make_report = study.member(study.report)
    if args.sweep:
        grid = _parse_sweep(args.sweep, args.sweep_axes)
        return [make_report(study.params(args, point, preset), mode, sim) for point in grid]
    report = make_report(study.params(args, {}, preset), mode, sim)
    report["command"] = _echo(argv)
    return report


def cmd_simulate(args, argv, mode) -> dict:
    from .simulate import estimate_cost, estimate_until

    command, _, name = args.model.partition(":")
    study = _CASE_STUDIES.get(command)
    preset = study.preset(name) if study else None
    if preset is None:
        from . import modelfile

        model, chain = _with_chain(modelfile.load_model(args.model, mode))
    else:
        model, chain = _with_chain(study.member(study.model)(preset, mode))
    chain.index_of(args.start)
    cfg = _sim_config(args)

    kind, _, spec = args.event.partition(":")
    if kind == "until":
        phi, psi = _until_sets(spec, chain)
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
        **asdict(cfg),
        "results": [{"name": name, "provenance": "simulation", **asdict(est)}],
    }


def _print_csv(reports, command: str) -> None:
    study = _CASE_STUDIES.get(command)
    rows = [study.flatten(r) if study else _flatten_generic(r) for r in reports]
    for row, report in zip(rows, reports):
        if "elapsed_seconds" in report:
            row["elapsed_seconds"] = report["elapsed_seconds"]
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
    (UnknownStateError, EXIT_QUERY, "query error"),
    (InvalidParamsError, EXIT_MODEL, "invalid parameters"),
    (SingularSystemError, EXIT_SOLVER, "solver failure"),
    (ExactchainError, EXIT_MODEL, "validation error"),
)


def main(argv=None) -> int:
    # OpenBLAS rounds np.linalg.solve differently with its thread count, so
    # float bytes would depend on the CPU set; one thread fixes them. numpy
    # reads this when it loads, which no import above does; a set value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        started = time.perf_counter()
        mode = _resolve_mode(args)
        report = args.handler(args, argv, mode)
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
    try:
        if args.csv:
            _print_csv(reports, args.command)
        elif args.json:
            print(json.dumps(report, indent=2))
        else:
            for i, entry in enumerate(reports):
                if i:
                    print()
                _print_human(entry)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``| head``). Point it at devnull, so that
        # the flush at exit cannot fail again, and exit 1 as Python does on
        # EPIPE: a cut report is no success.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 1
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
