"""JSON model files for chains and reward chains.

Schema::

    {
      "states": ["Start", "Done"],
      "transitions": [{"from": "Start", "to": "Done", "prob": "1/2"}, ...],
      "rewards":     [{"from": "Start", "to": "Done", "cost": "0.25"}, ...]
    }

``rewards`` is optional; a file without it loads as a plain
:class:`MarkovChain`. ``prob`` and ``cost`` accept JSON numbers, decimal
strings, or rational strings like ``"16/65024"``. In exact mode decimal
literals are read as exact decimal fractions (``0.01`` means ``1/100``),
so a model file round-trips losslessly.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

from .chain import EXACT, MarkovChain, RewardChain, format_scalar, validate_chain, validate_reward
from .errors import ModelIOError, ModelParseError

_TOP_KEYS = {"states", "transitions", "rewards"}


def _parse_value(raw, where: str):
    if isinstance(raw, str):
        try:
            return Fraction(raw)  # converted to the chain's arithmetic on validation
        except (ValueError, ZeroDivisionError):
            raise ModelParseError(f"{where}: cannot parse number {raw!r}") from None
    if isinstance(raw, bool) or not isinstance(raw, (int, float, Fraction)):
        raise ModelParseError(f"{where}: expected a number or string, got {raw!r}")
    return raw


def _parse_edges(obj, key: str, value_key: str):
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
        if (frm, to) in edges:
            raise ModelParseError(f"{where}: duplicate edge {frm!r} -> {to!r}")
        edges[(frm, to)] = _parse_value(entry[value_key], where)
    return edges


def parse_model(obj: dict, mode: str = EXACT) -> MarkovChain | RewardChain:
    """Validate a decoded model dictionary into a chain.

    Raises :class:`ModelParseError` for schema problems; semantic problems
    (bad rows, negative costs) raise the chain validation errors.
    """
    if not isinstance(obj, dict):
        raise ModelParseError("top level must be an object")
    unknown = set(obj) - _TOP_KEYS
    if unknown:
        raise ModelParseError(f"unknown top-level keys: {sorted(unknown)}")
    states = obj.get("states")
    if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
        raise ModelParseError("'states' must be a list of state names")

    trans = _parse_edges(obj, "transitions", "prob")
    chain = validate_chain(states, trans, mode)
    if "rewards" not in obj:
        return chain
    return validate_reward(chain, _parse_edges(obj, "rewards", "cost"))


def _reject_constant(name):
    raise ModelParseError(f"invalid JSON: non-finite number {name}")


def _decode(text: str, mode: str = EXACT):
    """Decode JSON, numbers in ``mode``'s arithmetic; ``NaN`` and ``Infinity`` are errors."""
    parse_number = Fraction if mode == EXACT else float
    try:
        return json.loads(text, parse_float=parse_number, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"invalid JSON: {exc}") from exc


def _read_json(path, mode: str = EXACT):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ModelIOError(f"cannot read {path}: {exc}") from exc
    return _decode(text, mode)


def loads_model(text: str, mode: str = EXACT) -> MarkovChain | RewardChain:
    return parse_model(_decode(text, mode), mode)


def load_model(path, mode: str = EXACT) -> MarkovChain | RewardChain:
    """Read and validate a model file.

    Raises :class:`ModelIOError` when the file cannot be read,
    :class:`ModelParseError` for JSON/schema problems, and the chain
    validation errors for semantic ones.
    """
    return parse_model(_read_json(path, mode), mode)


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
