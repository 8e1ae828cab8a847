"""Compensated summation, the NaN-dominant maximum and inverse-quadratic
tails."""

from __future__ import annotations

import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from woldlab.numerics import (EPS, NeumaierSum, quadratic_tail_integral,
                              quadratic_tail_sum, worst)


def test_worst_keeps_the_first_nan():
    assert worst([]) == (0.0, None)
    assert worst([(0.0, "a"), (2.0, "b"), (2.0, "c"), (1.0, "d")]) == (2.0, "b")
    assert worst([(math.inf, "a"), (3.0, "b")]) == (math.inf, "a")
    for pairs in ([(1.0, "a"), (math.nan, "b"), (2.0, "c"), (math.nan, "d")],
                  [(math.nan, "b"), (math.inf, "c")]):
        value, witness = worst(pairs)
        assert math.isnan(value) and witness == "b"


def test_neumaier_matches_fsum():
    rng = random.Random(5)
    values = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-12, 12)
              for _ in range(2000)]
    acc = NeumaierSum()
    for x in values:
        acc.add(x)
    exact = math.fsum(values)
    assert abs(acc.value - exact) <= acc.error_bound
    assert acc.error_bound == pytest.approx(
        2.0 * math.ulp(1.0) * sum(abs(x) for x in values), rel=1e-9)


def test_neumaier_recovers_cancellation():
    acc = NeumaierSum()
    acc.add(1.0)
    acc.add(1e100)
    acc.add(-1e100)
    assert acc.value == 1.0


def state(acc):
    return tuple(x.hex() for x in (acc.total, acc.compensation, acc.abs_total))


def neumaier_reference(values):
    """The textbook Neumaier steps, written out as a plain loop."""
    total = compensation = abs_total = 0.0
    for x in values:
        abs_total += abs(x)
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return tuple(y.hex() for y in (total, compensation, abs_total))


# signed values from subnormal to near overflow, and the non-finite ones
MIXED_FLOATS = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023)),
    st.floats(),
    st.sampled_from([math.inf, -math.inf, math.nan, 0.0, -0.0]),
)


@given(st.lists(MIXED_FLOATS), st.lists(MIXED_FLOATS))
@example([], [])
@example([], [1e300, 1.0, -1e300, 1e-300])
@example([0.0], [-0.0])
@example([-0.0], [-0.0, 0.0])
@example([1e300, 1.0], [-1e300, 1e-300, 3.5e-17])
@example([math.inf], [-math.inf, 1.0])
@example([1.0], [math.nan, 2.0])
def test_add_and_extend_take_the_neumaier_steps(prefix, values):
    # one add per value, and adds then one extend, must reach the textbook
    # state, and each add returns the running sum `value` reads after it;
    # hex compares signed zeros and infinities exactly and spells NaN "nan"
    one, many = NeumaierSum(), NeumaierSum()
    for x in prefix + values:
        assert one.add(x).hex() == one.value.hex()
    for x in prefix:
        many.add(x)
    many.extend(iter(values))
    assert state(one) == state(many) == neumaier_reference(prefix + values)


def numeric_tail(a, b, x0, span=8000.0, steps=4_000_000):
    """Simpson's rule on [x0, x0+span] plus a crude bound for the rest."""
    h = span / steps
    total = 0.0
    for i in range(steps + 1):
        x = x0 + i * h
        w = 1.0 if i in (0, steps) else (4.0 if i % 2 else 2.0)
        total += w / (1.0 + a * x + b * x * x)
    return total * h / 3.0


@pytest.mark.parametrize("a,b,x0", [
    (1.0, 1.0, 0.0),      # complex roots
    (1.0, 1.0, 25.0),
    (0.0, 0.5, 10.0),     # complex roots, no linear part
    (2.0, 1.0, 5.0),      # double root at -1
    (-3.0, 1.0, 7.0),     # real roots 1 and 2, start past both
])
def test_quadratic_tail_against_quadrature(a, b, x0):
    got = quadratic_tail_integral(a, b, x0)
    approx = numeric_tail(a, b, x0, span=4000.0, steps=400_000)
    rest = 1.0 / (b * (x0 + 4000.0))  # integral of 1/(b y^2) bound
    assert approx <= got <= approx + 1.05 * rest


def test_quadratic_tail_rejects_bad_domains():
    with pytest.raises(ValueError):
        quadratic_tail_integral(1.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        quadratic_tail_integral(2.0, 1.0, -2.0)   # double root at -1, start before it
    with pytest.raises(ValueError):
        quadratic_tail_integral(-3.0, 1.0, 1.5)   # between the real roots


# (a, b) of 1 + a x + b x^2: complex roots, the double root, real roots
QUADRATICS = {"complex-1-1": (1.0, 1.0), "complex-0.5-3": (0.5, 3.0),
              "double-2-1": (2.0, 1.0), "real-3-1": (3.0, 1.0), "real-2-0.5": (2.0, 0.5)}


def decimal_tail_integral(a, b, x0):
    """quadratic_tail_integral in 50 significant digits, for a, b > 0 and
    starts where sqrt(4b - a^2) < (2b x0 + a) / 2 if the roots are complex."""
    with localcontext() as ctx:
        ctx.prec = 50
        a, b, x0 = Decimal(a), Decimal(b), Decimal(x0)
        y = 2 * b * x0 + a
        disc = 4 * b - a * a
        if disc == 0:
            return 2 / y
        if disc < 0:
            s = (-disc).sqrt()
            return ((y + s) / (y - s)).ln() / s
        # (2/s) * (pi/2 - atan(y/s)) = (2/s) * atan(t), t = s/y, by Taylor
        s = disc.sqrt()
        t = s / y
        assert t < Decimal("0.5")
        atan, power, k = Decimal(0), t, 1
        while abs(power) > Decimal(10) ** -60:
            atan += power / k
            power *= -t * t
            k += 2
        return 2 * atan / s


@pytest.mark.parametrize("x0", [60.0, 2000.0, 1e5])
@pytest.mark.parametrize("case", QUADRATICS)
def test_quadratic_tail_integral_to_the_last_ulps(case, x0):
    # pi/2 - atan(y) and log((x0 - r2)/(x0 - r1)) cancel as x0 grows (relative
    # error 3.5e-13 at (1, 1) and x0 = 2000); atan2 and log1p do not
    a, b = QUADRATICS[case]
    want = decimal_tail_integral(a, b, x0)
    got = quadratic_tail_integral(a, b, x0)
    assert abs(Decimal(got) - want) <= 4 * Decimal(EPS) * want


def exact_block(a, b, x0, x1):
    """sum_{x0 <= x < x1} 1 / (1 + a x + b x^2) in rationals."""
    a, b = Fraction(a), Fraction(b)
    return sum(1 / (1 + a * x + b * x * x) for x in range(x0, x1))


def em_block(a, b, x0, x1):
    """(S(x0) - S(x1), R(x0) + R(x1)) of quadratic_tail_sum, in rationals."""
    (s0, r0), (s1, r1) = quadratic_tail_sum(a, b, x0), quadratic_tail_sum(a, b, x1)
    return Fraction(s0) - Fraction(s1), Fraction(r0) + Fraction(r1)


# 41 and 61 are the plugin's first block starts (upto + 1); 911 lies past the
# b(900) entry of table:-1=2,900=0.5 read at (0, 1); 2000 is ANALYTIC_TERMS
@pytest.mark.parametrize("x0", [1, 41, 61, 911])
@pytest.mark.parametrize("case", QUADRATICS)
def test_quadratic_tail_sum_certifies_exact_blocks(case, x0):
    a, b = QUADRATICS[case]
    block, certified = em_block(a, b, x0, 2000)
    assert abs(block - exact_block(a, b, x0, 2000)) <= certified


@given(st.floats(0.01, 100.0), st.floats(-1.0, 1.0), st.integers(0, 200))
@example(1.0, 0.0, 0)      # the double root a^2 = 4b
@example(1.0, 1e-15, 30)   # complex roots a hair apart
@example(1.0, -1e-15, 30)  # real roots a hair apart
def test_quadratic_tail_sum_certifies_near_the_double_root(a, spread, x0):
    # b runs from a tenth to ten times a^2/4, the double root, where the
    # integral switches branch and the two roots merge
    b = a * a / 4.0 * 10.0 ** spread
    block, certified = em_block(a, b, x0, x0 + 150)
    assert abs(block - exact_block(a, b, x0, x0 + 150)) <= certified


@pytest.mark.parametrize("x0", [5, 8])
@pytest.mark.parametrize("case", QUADRATICS)
def test_quadratic_tail_sum_errs_at_the_sixth_correction(case, x0):
    # after five corrections the error is at most the sixth plus its
    # remainder, each <= |B_12| / (b d^13); on the double root f^(9) meets
    # its bound, so dropping the fifth correction shows
    a, b = QUADRATICS[case]
    disc = a * a - 4.0 * b
    block, _ = em_block(a, b, x0, 2000)
    bound = 0
    for x in (x0, 2000):
        d = x + 2.0 / (a + math.sqrt(disc)) if disc > 0.0 else x + a / (2.0 * b)
        bound += 2 * Fraction(691, 2730) / (Fraction(b) * Fraction(d) ** 13)
    bound += 32 * Fraction(EPS) * block
    assert abs(block - exact_block(a, b, x0, 2000)) <= bound


def test_quadratic_tail_sum_rejects_bad_domains():
    for a, b, x0 in ((0.0, 1.0, 5), (1.0, 0.0, 5), (1.0, 1.0, -1), (-3.0, 1.0, 7)):
        with pytest.raises(ValueError):
            quadratic_tail_sum(a, b, x0)


def test_quadratic_tail_sum_is_one_float_on_every_python():
    # the corrections are summed as a left fold; the builtin sum, which
    # compensates from Python 3.12 on, gives 0x1.9c926967db497p-7 there
    assert quadratic_tail_sum(6.35, 8.02, 10)[0].hex() == "0x1.9c926967db498p-7"


def test_tail_integrals_enclose_the_discrete_tail():
    # for a decreasing term, the integrals from 11 and from 10 enclose the
    # sum from 11 on: the Prop. 5.1 dual plugin's bracket past its terms
    lo, hi = (quadratic_tail_integral(0.0, 1.0, x) for x in (11, 10))
    assert lo < hi
    tail = sum(1.0 / (1.0 + n * n) for n in range(11, 200000))
    assert lo <= tail <= hi
