import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from exactchain.crowds import is_product_joint
from exactchain.errors import InvalidDistributionError, _full_str
from exactchain.info import _marginals_and_product, entropy, mutual_information


def test_entropy_point_mass():
    assert entropy({"x": F(1)}) == 0.0


def test_entropy_uniform():
    for n in (2, 4, 8):
        dist = {i: F(1, n) for i in range(n)}
        assert entropy(dist) == pytest.approx(math.log2(n), rel=1e-12)


def test_entropy_quarter_three_quarters():
    expected = -0.25 * math.log2(0.25) - 0.75 * math.log2(0.75)
    assert entropy({"a": F(1, 4), "b": F(3, 4)}) == pytest.approx(expected, rel=1e-12)
    assert entropy({"a": F(1, 4), "b": F(3, 4)}) == pytest.approx(0.811278124459133)


def test_entropy_validates():
    with pytest.raises(InvalidDistributionError):
        entropy({"a": F(1, 2)})
    with pytest.raises(InvalidDistributionError):
        entropy({"a": F(3, 2), "b": F(-1, 2)})
    with pytest.raises(InvalidDistributionError):
        entropy({"a": math.nan})


def test_mi_product_joint_is_zero():
    px = {"a": F(1, 3), "b": F(2, 3)}
    py = {0: F(1, 4), 1: F(3, 4)}
    joint = {(x, y): px[x] * py[y] for x in px for y in py}
    assert abs(mutual_information(joint)) <= 1e-12


def test_mi_perfectly_correlated_uniform():
    for n in (2, 3, 5):
        joint = {(i, i): F(1, n) for i in range(n)}
        assert mutual_information(joint) == pytest.approx(math.log2(n), rel=1e-12)


def test_mi_crowds_conditional_joint():
    # Hand summation over the 2x2 joint {5/12 diagonal, 1/12 off-diagonal}:
    # marginals are uniform 1/2.
    joint = {
        ("i1", "i1"): F(5, 12), ("i1", "i2"): F(1, 12),
        ("i2", "i1"): F(1, 12), ("i2", "i2"): F(5, 12),
    }
    byhand = 2 * (5 / 12) * math.log2((5 / 12) / (1 / 4)) + 2 * (1 / 12) * math.log2(
        (1 / 12) / (1 / 4)
    )
    value = mutual_information(joint)
    assert value == pytest.approx(byhand, rel=1e-12)
    assert value == pytest.approx(0.3499775783516, abs=1e-10)
    assert value <= (5 / 6) * math.log2(2)


def test_mi_zero_cells_contribute_nothing():
    joint = {("a", 0): F(1, 2), ("a", 1): F(0), ("b", 1): F(1, 2)}
    assert mutual_information(joint) == pytest.approx(1.0)


def test_mi_symmetry_and_bounds_on_random_joints():
    rng = random.Random(9)
    for _ in range(40):
        nx, ny = rng.randint(1, 4), rng.randint(1, 4)
        weights = {
            (x, y): F(rng.randint(0, 9)) for x in range(nx) for y in range(ny)
        }
        total = sum(weights.values())
        if total == 0:
            continue
        joint = {k: v / total for k, v in weights.items()}
        mi = mutual_information(joint)
        transposed = {(y, x): v for (x, y), v in joint.items()}
        assert mi == pytest.approx(mutual_information(transposed), abs=1e-12)

        px: dict = {}
        py: dict = {}
        for (x, y), v in joint.items():
            px[x] = px.get(x, F(0)) + v
            py[y] = py.get(y, F(0)) + v
        assert -1e-12 <= mi <= min(entropy(px), entropy(py)) + 1e-12


def test_mi_validates():
    with pytest.raises(InvalidDistributionError):
        mutual_information({("a", "b"): F(1, 2)})


def test_float_masses_accepted_with_tolerance():
    assert entropy({"a": 0.5, "b": 0.5 + 1e-12}) == pytest.approx(1.0)
    with pytest.raises(InvalidDistributionError):
        entropy({"a": 0.5, "b": 0.4})


def fraction_mutual_information(joint):
    """Mutual information summed cell by cell in the masses' own arithmetic: Fractions for
    exact joints, floats for float ones. The reference for both."""
    px: dict = {}
    py: dict = {}
    for (x, y), p in joint.items():
        px[x] = px.get(x, 0) + p
        py[y] = py.get(y, 0) + p
    mi = 0.0
    for (x, y), p in joint.items():
        if p > 0:
            ratio = p / (px[x] * py[y])
            if isinstance(ratio, F):
                mi += float(p) * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
            else:
                mi += float(p) * math.log2(ratio)
    return mi, px, py


def fraction_check(values):
    """The message of the first fault in exact ``values``, checked in Fractions; None if none."""
    total = 0
    for v in values:
        if v < 0:
            return f"joint has negative mass {_full_str(v)}"
        total = total + v
    return None if total == 1 else f"joint sums to {_full_str(total)}, expected 1"


masses = st.one_of(
    st.just(0),
    st.just(F(0)),
    st.integers(1, 9),
    st.builds(F, st.integers(0, 10**40), st.integers(1, 10**40)),
)


@st.composite
def exact_joints(draw):
    """Exact joints, products of marginals or not, some with a negative cell or a total off one."""
    xs, ys = range(draw(st.integers(1, 4))), range(draw(st.integers(1, 4)))
    if draw(st.booleans()):
        wx = [draw(masses) for _ in xs]
        wy = [draw(masses) for _ in ys]
        weights = {(x, y): wx[x] * wy[y] for x in xs for y in ys}
    else:
        weights = {(x, y): draw(masses) for x in xs for y in ys}
    total = sum(weights.values())
    if total == 0:  # a point mass held by an int
        weights[(0, 0)] = 1
        total = 1
    joint = {k: v if v == 0 or total == 1 else F(v) / total for k, v in weights.items()}
    fault = draw(st.sampled_from(["none", "none", "negative", "scaled"]))
    cell = draw(st.sampled_from(sorted(joint)))
    if fault == "negative":
        joint[cell] = -draw(st.builds(F, st.integers(1, 10**40), st.integers(1, 10**40)))
    elif fault == "scaled":
        joint[cell] = joint[cell] + F(draw(st.sampled_from([-1, 1])), 10**draw(st.integers(1, 40)))
    return joint


@settings(max_examples=400, deadline=None)
@given(joint=exact_joints())
def test_exact_mutual_information_and_product_verdicts_match_fraction_arithmetic(joint):
    fault = fraction_check(joint.values())
    if fault is not None:
        with pytest.raises(InvalidDistributionError) as raised:
            mutual_information(joint)
        assert str(raised.value) == fault
        return
    want, px, py = fraction_mutual_information(joint)
    assert mutual_information(joint).hex() == want.hex()
    total = sum(joint.values())
    product = all(v * total == px[x] * py[y] for (x, y), v in joint.items())
    assert is_product_joint(joint) is product
    assert _marginals_and_product(joint) == (px, py, product)


def float_check(values):
    """The message of the first fault in float ``values``, checked one by one; None if none."""
    total = 0
    for v in values:
        if isinstance(v, float) and not math.isfinite(v):
            return f"joint has non-finite mass {v!r}"
        if v < 0:
            return f"joint has negative mass {_full_str(v)}"
        total = total + v
    return None if abs(total - 1) <= 1e-9 else f"joint sums to {_full_str(total)}, expected 1"


@st.composite
def float_joints(draw):
    """Float twins of exact joints: some cells kept exact, one nudged, off one or not finite."""
    joint = {k: v if draw(st.integers(0, 9)) == 0 else float(v)
             for k, v in draw(exact_joints()).items()}
    cell = draw(st.sampled_from(sorted(joint)))
    change = draw(st.sampled_from(["none", "none", "ulps", "off", "nan", "inf"]))
    if change == "ulps":
        joint[cell] = float(joint[cell]) * (1 + draw(st.integers(-4, 4)) * 2**-52)
    elif change == "off":
        joint[cell] = float(joint[cell]) + draw(st.sampled_from([-1e-8, -1e-10, 1e-10, 1e-8]))
    elif change != "none":
        joint[cell] = draw(st.sampled_from([-1.0, 1.0])) * float(change)
    if not any(isinstance(v, float) for v in joint.values()):
        joint[cell] = float(joint[cell])
    return joint


@settings(max_examples=400, deadline=None)
@given(joint=float_joints())
# The (a, a) cell's row and column are all Fractions, so its quotient is one.
@example(joint={("a", "a"): F(1, 4), ("a", "b"): F(1, 4), ("b", "a"): F(1, 4), ("b", "b"): 0.25})
def test_float_mutual_information_and_product_verdicts_match_float_arithmetic(joint):
    # Float joints share the exact body, with the masses over 1: the bits
    # must be those of plain float arithmetic, cell by cell in the joint's order.
    fault = float_check(joint.values())
    if fault is not None:
        with pytest.raises(InvalidDistributionError) as raised:
            mutual_information(joint)
        assert str(raised.value) == fault
        return
    want, px, py = fraction_mutual_information(joint)
    assert mutual_information(joint).hex() == want.hex()
    total = sum(joint.values())
    product = all(
        v * total == px[x] * py[y] or abs(v * total - px[x] * py[y]) <= 1e-12
        for (x, y), v in joint.items()
    )
    assert is_product_joint(joint) is product
    assert _marginals_and_product(joint) == (px, py, product)


def test_entropy_of_a_fraction_beside_a_float_matches_fraction_arithmetic():
    # The Fraction mass's quotient is a Fraction, logged by its parts. The
    # entropy of a marginal is the mutual information of its diagonal joint.
    marginal = {"x": F(1, 2), "y": 0.5}
    want, _, _ = fraction_mutual_information({(k, k): p for k, p in marginal.items()})
    assert entropy(marginal).hex() == want.hex()
