"""Entropy and mutual information of finite discrete distributions.

Joints and marginals may carry exact rational masses; all mass arithmetic
(marginals, probability ratios) stays exact and the conversion to float
happens only inside the final logarithm, so the returned bits lose nothing
beyond the unavoidable transcendental rounding.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chain import _sums_to_one
from .errors import InvalidDistributionError, _full_str


def _check_masses(values, what: str):
    total = 0
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise InvalidDistributionError(f"{what} has non-finite mass {v!r}")
        if v < 0:
            raise InvalidDistributionError(f"{what} has negative mass {_full_str(v)}")
        total = total + v
    if not _sums_to_one(total):
        raise InvalidDistributionError(f"{what} sums to {_full_str(total)}, expected 1")


def _log2(value) -> float:
    # Splitting a Fraction keeps huge numerators/denominators out of the
    # float conversion.
    if isinstance(value, Fraction):
        return math.log2(value.numerator) - math.log2(value.denominator)
    return math.log2(value)


def entropy(marginal) -> float:
    """Shannon entropy ``-sum p log2 p`` in bits, with ``0 log2 0 = 0``.

    ``marginal`` maps outcome labels to masses (Fractions, ints or floats).
    """
    _check_masses(marginal.values(), "marginal")
    h = 0.0
    for p in marginal.values():
        if p > 0:
            h -= float(p) * _log2(p)
    return h


def _marginals(joint) -> tuple[dict, dict]:
    """The two marginals ``(px, py)`` of a joint keyed by ``(x, y)`` pairs."""
    px: dict = {}
    py: dict = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0) + p
        py[y] = py.get(y, 0) + p
    return px, py


def mutual_information(joint) -> float:
    """Mutual information of a joint distribution, in bits.

    ``joint`` maps ``(x, y)`` label pairs to masses. Marginals are computed
    from the joint; zero-mass cells contribute nothing. A positive cell
    forces both its marginals positive, so the ratio inside the logarithm
    is always well defined.
    """
    _check_masses(joint.values(), "joint")
    px, py = _marginals(joint)
    mi = 0.0
    for (x, y), p in joint.items():
        if p > 0:
            ratio = p / (px[x] * py[y])
            mi += float(p) * _log2(ratio)
    return mi
