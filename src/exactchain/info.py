"""Entropy and mutual information of finite discrete distributions.

Joints and marginals may carry exact rational masses or floats. Their
arithmetic (totals, marginals, probability ratios, the product check)
runs on numerators over one common denominator, the split of the masses'
arithmetic (``chain.Arithmetic.split``), and each value is divided once
where it is returned. Exact masses become integers over their lcm, so
each value is reduced with one gcd and the conversion to float happens
only inside the final logarithm: the returned bits lose nothing beyond
the unavoidable transcendental rounding. Float masses are their own
numerators over ``1`` and keep float arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .chain import _sum, _sums_to_one, arithmetic_of
from .errors import InvalidDistributionError, _full_str


def _split(masses):
    """``(nums, den, arith)``: masses that carry no mode over one denominator, and their arithmetic.

    The arithmetic is float if one of the masses is a float, else exact;
    its ``split`` gives the numerators and the denominator.
    """
    masses = list(masses)
    arith = next((a for a in map(arithmetic_of, masses) if a.tol), arithmetic_of(0))
    return (*arith.split(masses), arith)


def _check_masses(values, what: str):
    """Raise unless ``values`` are finite, non-negative masses summing to one; return their :func:`_split`.

    The numerators are added left to right (``chain._sum``), so a float
    total does not depend on the Python version. A non-finite mass makes
    that total non-finite, and a negative one the least mass negative; only
    then are the masses looked through, in order, for the first fault.
    """
    values = list(values)
    nums, den, arith = _split(values)
    total = _sum(nums, 0)
    if not -math.inf < total < math.inf or min(nums, default=0) < 0:
        for v, n in zip(values, nums):
            if not -math.inf < n < math.inf:
                raise InvalidDistributionError(f"{what} has non-finite mass {v!r}")
            if n < 0:
                raise InvalidDistributionError(f"{what} has negative mass {_full_str(v)}")
    total = arith.frac(total, den)
    if not _sums_to_one(total):
        raise InvalidDistributionError(f"{what} sums to {_full_str(total)}, expected 1")
    return nums, den, arith


def _log2(a, b=1) -> float:
    """``log2(a / b)`` for positive ``a`` and ``b``, with no huge integer converted to a float.

    An int pair is reduced by its gcd, and a ``Fraction`` quotient split,
    and the two parts are logged apart; any other quotient is a float.
    ``Fraction`` arithmetic returns plain Fractions, so a type test finds
    them, where ``isinstance`` would run an ``ABCMeta`` check per float.
    """
    if isinstance(a, int) and isinstance(b, int):
        g = math.gcd(a, b)
        return math.log2(a // g) - math.log2(b // g)
    ratio = a / b
    if type(ratio) is Fraction:
        return math.log2(ratio.numerator) - math.log2(ratio.denominator)
    return math.log2(ratio)


def entropy(marginal) -> float:
    """Shannon entropy ``-sum p log2 p`` in bits, with ``0 log2 0 = 0``.

    ``marginal`` maps outcome labels to masses (Fractions, ints or floats).
    Each ``p`` is ``n / den`` on the numerators of :func:`_check_masses`.
    """
    nums, den, _ = _check_masses(marginal.values(), "marginal")
    h = 0.0
    for n in nums:
        if n > 0:
            h -= n / den * _log2(n, den)
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

    ``holds`` when each cell times the joint's total is ``px[x] * py[y]``,
    compared on the numerators of :func:`_split`: exactly for exact
    masses, and within a 1e-12 absolute tolerance, a thousandth of the
    row-sum tolerance, for float ones.
    """
    nums, den, arith = _split(joint.values())
    nx, ny = _sums_by_coordinate(joint, nums)
    total = _sum(nums, 0)
    tol = arith.tol / 1000
    holds = all(
        n * total == nx[x] * ny[y] or abs(n * total - nx[x] * ny[y]) <= tol
        for (x, y), n in zip(joint, nums)
    )
    px, py = ({k: arith.frac(n, den) for k, n in sums.items()} for sums in (nx, ny))
    return px, py, holds


def mutual_information(joint) -> float:
    """Mutual information of a joint distribution, in bits.

    ``joint`` maps ``(x, y)`` label pairs to masses. Marginals are computed
    from the joint; zero-mass cells contribute nothing. A positive cell
    forces both its marginals positive, so the ratio inside the logarithm
    is always well defined. Each cell's ratio ``p / (px * py)`` is
    ``n * den / (nx * ny)`` on the numerators over the common denominator
    ``den`` (:func:`_check_masses`), and the terms are added in the
    joint's order. Exact masses give the float that exact ``Fraction``
    arithmetic gives: the integer ratio is reduced by one gcd.
    """
    nums, den, _ = _check_masses(joint.values(), "joint")
    nx, ny = _sums_by_coordinate(joint, nums)
    mi = 0.0
    for (x, y), n in zip(joint, nums):
        if n > 0:
            mi += n / den * _log2(n * den, nx[x] * ny[y])
    return mi
