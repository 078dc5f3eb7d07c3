"""Entropy and mutual information of finite discrete distributions.

Joints and marginals may carry exact rational masses. Their arithmetic
(totals, marginals, probability ratios, the product check) runs on
integer numerators over one common denominator, the masses' lcm, and
each value is reduced once, with one gcd, where it is returned; the
conversion to float happens only inside the final logarithm, so the
returned bits lose nothing beyond the unavoidable transcendental
rounding. Float masses keep float arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chain import _over_lcm, _sums_to_one, arithmetic_of
from .errors import InvalidDistributionError, _full_str


def _split(masses):
    """Masses that carry no mode as integer numerators over their lcm, ``(nums, den)``.

    None if one of them is a float (:func:`chain._over_lcm`): a joint with
    a float mass keeps float arithmetic.
    """
    masses = list(masses)
    float_arith = (a for a in map(arithmetic_of, masses) if a.tol)
    return _over_lcm(masses, next(float_arith, arithmetic_of(0)))


def _check_masses(values, what: str):
    """Raise unless ``values`` are finite, non-negative masses summing to one.

    Returns the :func:`_split` form of exact masses, None for float ones.
    """
    values = list(values)
    exact = _split(values)
    if exact is not None:
        nums, den = exact
        for v, n in zip(values, nums):
            if n < 0:
                raise InvalidDistributionError(f"{what} has negative mass {_full_str(v)}")
        if sum(nums) != den:
            total = Fraction(sum(nums), den)
            raise InvalidDistributionError(f"{what} sums to {_full_str(total)}, expected 1")
        return exact
    total = 0
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            raise InvalidDistributionError(f"{what} has non-finite mass {v!r}")
        if v < 0:
            raise InvalidDistributionError(f"{what} has negative mass {_full_str(v)}")
        total = total + v
    if not _sums_to_one(total):
        raise InvalidDistributionError(f"{what} sums to {_full_str(total)}, expected 1")
    return None


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


def _sums_by_coordinate(joint, masses) -> tuple[dict, dict]:
    """``(px, py)``: ``masses``, one per cell of ``joint`` in order, summed by ``x``, by ``y``."""
    px: dict = {}
    py: dict = {}
    for (x, y), p in zip(joint, masses):
        px[x] = px.get(x, 0) + p
        py[y] = py.get(y, 0) + p
    return px, py


def _marginals_and_product(joint) -> tuple[dict, dict, bool]:
    """``(px, py, holds)``: a joint's two marginals, and whether the joint is their product.

    ``holds`` when each cell times the joint's total is ``px[x] * py[y]``:
    exactly for exact masses, compared as integers over their lcm
    (:func:`_split`); within a 1e-12 absolute tolerance, a thousandth of
    the row-sum tolerance, for float ones.
    """
    exact = _split(joint.values())
    if exact is None:
        px, py = _sums_by_coordinate(joint, joint.values())
        total = sum(joint.values())
        tol = arithmetic_of(total).tol / 1000
        holds = all(
            v * total == px[x] * py[y] or abs(v * total - px[x] * py[y]) <= tol
            for (x, y), v in joint.items()
        )
        return px, py, holds
    nums, den = exact
    nx, ny = _sums_by_coordinate(joint, nums)
    total = sum(nums)
    holds = all(n * total == nx[x] * ny[y] for (x, y), n in zip(joint, nums))
    px, py = ({k: Fraction(n, den) for k, n in sums.items()} for sums in (nx, ny))
    return px, py, holds


def mutual_information(joint) -> float:
    """Mutual information of a joint distribution, in bits.

    ``joint`` maps ``(x, y)`` label pairs to masses. Marginals are computed
    from the joint; zero-mass cells contribute nothing. A positive cell
    forces both its marginals positive, so the ratio inside the logarithm
    is always well defined. Exact masses give the float that exact
    ``Fraction`` arithmetic gives: each cell's ratio
    ``p / (px * py)`` is ``n * den / (nx * ny)`` on the numerators over
    the common denominator ``den``, reduced by one gcd, and the terms are
    added in the joint's order.
    """
    exact = _check_masses(joint.values(), "joint")
    if exact is None:
        px, py = _sums_by_coordinate(joint, joint.values())
        mi = 0.0
        for (x, y), p in joint.items():
            if p > 0:
                ratio = p / (px[x] * py[y])
                mi += float(p) * _log2(ratio)
        return mi
    nums, den = exact
    nx, ny = _sums_by_coordinate(joint, nums)
    mi = 0.0
    for (x, y), n in zip(joint, nums):
        if n > 0:
            a, b = n * den, nx[x] * ny[y]
            g = math.gcd(a, b)
            mi += n / den * (math.log2(a // g) - math.log2(b // g))
    return mi
