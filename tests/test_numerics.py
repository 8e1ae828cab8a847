"""Compensated summation and tail-integral brackets."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from woldlab.numerics import (NeumaierSum, bracket_decreasing_tail,
                              quadratic_tail_integral)


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


@given(st.lists(st.floats()), st.lists(st.floats()))
@example([], [])
@example([0.0], [-0.0])
@example([-0.0], [-0.0, 0.0])
@example([1e300, 1.0], [-1e300, 1e-300, 3.5e-17])
@example([math.inf], [-math.inf, 1.0])
@example([1.0], [math.nan, 2.0])
def test_add_and_extend_take_the_neumaier_steps(prefix, values):
    one, many = NeumaierSum(), NeumaierSum()
    for x in prefix + values:
        one.add(x)
    for x in prefix:
        many.add(x)
    many.extend(iter(values))
    # hex compares signed zeros and infinities exactly and spells NaN "nan"
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


def test_bracket_orders_endpoints():
    f = lambda x: quadratic_tail_integral(0.0, 1.0, x)
    lo, hi = bracket_decreasing_tail(f, 10)
    assert lo == f(11.0) and hi == f(10.0)
    assert lo < hi
    # the bracket really encloses the discrete tail
    tail = sum(1.0 / (1.0 + n * n) for n in range(11, 200000))
    assert lo <= tail <= hi
