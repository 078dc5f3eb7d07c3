"""JSON model files for chains and reward chains.

Schema::

    {
      "states": ["Start", "Done"],
      "transitions": [{"from": "Start", "to": "Done", "prob": "1/2"}, ...],
      "rewards":     [{"from": "Start", "to": "Done", "cost": "0.25"}, ...]
    }

``rewards`` is optional; a file without it loads as a plain
:class:`MarkovChain`. ``prob`` and ``cost`` accept JSON numbers, decimal
strings, or rational strings like ``"16/65024"``. Every value, JSON
numbers included, is read exactly (``0.01`` means ``1/100``) in both
modes, and validation converts it to the chain's arithmetic, so an exact
model file round-trips losslessly and a float one gets the nearest float
to each written value. A decimal exponent beyond
``chain.MAX_DECIMAL_EXPONENT`` is a parse error, in either mode.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .chain import (
    EXACT, MarkovChain, RewardChain, arithmetic, format_scalar, _read_literal, validate_chain,
    validate_reward,
)
from .errors import ModelIOError, ModelParseError, _excerpt

_TOP_KEYS = {"states", "transitions", "rewards"}


def _parse_value(raw, where: str):
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float, Fraction)):
        raise ModelParseError(f"{where}: expected a number or string, got {_excerpt(raw)}")
    value = arithmetic(EXACT).read(raw) if isinstance(raw, str) else raw  # exact until validation
    if value is None:
        raise ModelParseError(f"{where}: cannot parse number {_excerpt(raw)}")
    return value


def _parse_edges(obj, key: str, value_key: str, declared: set):
    edges = {}
    entries = obj.get(key, [])
    if not isinstance(entries, list):
        raise ModelParseError(f"{key!r} must be a list")
    for pos, entry in enumerate(entries):
        where = f"{key}[{pos}]"
        if not isinstance(entry, dict) or set(entry) != {"from", "to", value_key}:
            raise ModelParseError(
                f"{where}: expected an object with keys 'from', 'to', {value_key!r}"
            )
        frm, to = entry["from"], entry["to"]
        if not isinstance(frm, str) or not isinstance(to, str):
            raise ModelParseError(f"{where}: 'from' and 'to' must be state names")
        for name in (frm, to):
            if name not in declared:
                raise ModelParseError(f"{where}: undeclared state {name!r}")
        if (frm, to) in edges:
            raise ModelParseError(f"{where}: duplicate edge {frm!r} -> {to!r}")
        edges[(frm, to)] = _parse_value(entry[value_key], where)
    return edges


def parse_model(obj: dict, mode: str = EXACT) -> MarkovChain | RewardChain:
    """Validate a decoded model dictionary into a chain.

    Raises :class:`ModelParseError` for schema problems, among them
    duplicate state labels and edges naming an undeclared state; semantic
    problems (bad rows, negative costs) raise the chain validation errors.
    """
    if not isinstance(obj, dict):
        raise ModelParseError("top level must be an object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ModelParseError(f"unknown top-level keys: {sorted(unknown)}")
    states = obj.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelParseError("'states' must be a list of state names")
    declared = set(states)
    if len(declared) != len(states):
        dupes = sorted({s for s in states if states.count(s) > 1})
        raise ModelParseError(f"duplicate state labels: {dupes}")

    trans = _parse_edges(obj, "transitions", "prob", declared)
    chain = validate_chain(states, trans, mode)
    if "rewards" not in obj:
        return chain
    return validate_reward(chain, _parse_edges(obj, "rewards", "cost", declared))


def _reject_constant(name):
    raise ModelParseError(f"invalid JSON: non-finite number {name}")


def _decode(text: str):
    """Decode JSON, reading every number exactly; ``NaN`` and ``Infinity`` are errors.

    A number with a fraction or an exponent becomes a ``Fraction`` through
    ``_read_literal`` and an integer an ``int``, in both modes; validation
    converts them to the chain's arithmetic as it converts strings. An
    integer longer than CPython's limit on string-to-integer digits is an
    error too, whose ``ValueError`` ``json`` passes through undecorated, and
    so is nesting deeper than the recursion limit lets ``json`` descend.
    """
    try:
        return json.loads(text, parse_float=_read_literal, parse_constant=_reject_constant)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ModelParseError(f"invalid JSON: {exc}") from exc
    except RecursionError:
        raise ModelParseError("invalid JSON: arrays or objects nested too deeply") from None


def _read_json(path):
    """Decode a model or ``--init`` file, read as UTF-8 whatever the locale (RFC 8259)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ModelIOError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"invalid JSON: {path} is not UTF-8: {exc}") from exc
    return _decode(text)


def loads_model(text: str, mode: str = EXACT) -> MarkovChain | RewardChain:
    return parse_model(_decode(text), mode)


def load_model(path, mode: str = EXACT) -> MarkovChain | RewardChain:
    """Read and validate a model file.

    Raises :class:`ModelIOError` when the file cannot be read,
    :class:`ModelParseError` for JSON/schema problems, and the chain
    validation errors for semantic ones.
    """
    return parse_model(_read_json(path), mode)


def model_to_dict(model: MarkovChain | RewardChain) -> dict:
    """Serialize a chain back to the model schema, losslessly in exact mode."""
    chain = model.chain if isinstance(model, RewardChain) else model
    out = {
        "states": list(chain.states),
        "transitions": [
            {"from": u, "to": v, "prob": format_scalar(p)} for u, v, p in chain.edges()
        ],
    }
    if isinstance(model, RewardChain):
        out["rewards"] = [
            {"from": u, "to": v, "cost": format_scalar(c)}
            for u, v, c in model.cost_edges()
        ]
    return out


def save_model(model: MarkovChain | RewardChain, path) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model), indent=2) + "\n")
