"""Small numerical helpers: compensated summation and integral tail brackets."""

from __future__ import annotations

import math

EPS = math.ulp(1.0)


class NeumaierSum:
    """Streaming compensated summation (Kahan with Neumaier's correction).

    Tracks the running sum, the correction term, and the sum of absolute
    values, from which a conservative first-order rounding bound follows.
    `extend` holds the one spelling of the compensated step and takes many
    values in one pass; `add` is `extend` of a single value, for callers
    that read the running sum after each term.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.compensation = 0.0
        self.abs_total = 0.0

    def add(self, value: float) -> None:
        self.extend((value,))

    def extend(self, values) -> None:
        """Add each value in turn, with the running state held in locals."""
        total, comp, abs_total = self.total, self.compensation, self.abs_total
        for value in values:
            abs_total += abs(value)
            t = total + value
            if abs(total) >= abs(value):
                comp += (total - t) + value
            else:
                comp += (value - t) + total
            total = t
        self.total, self.compensation, self.abs_total = total, comp, abs_total

    @property
    def value(self) -> float:
        return self.total + self.compensation

    @property
    def error_bound(self) -> float:
        # First-order bound on accumulated rounding; compensated summation
        # actually does much better, so this is safely conservative.
        return 2.0 * EPS * self.abs_total


def quadratic_tail_integral(a: float, b: float, x0: float) -> float:
    """Integral of 1 / (1 + a*y + b*y^2) over y in [x0, infinity).

    Requires b > 0 and the quadratic positive on [x0, inf).
    """
    if b <= 0.0:
        raise ValueError("quadratic coefficient must be positive")
    disc = 4.0 * b - a * a
    if disc > 0.0:
        root = math.sqrt(disc)
        return (2.0 / root) * (math.pi / 2.0 - math.atan((2.0 * b * x0 + a) / root))
    if disc == 0.0:
        # (sqrt(b)*y + a/(2 sqrt(b)))^2; antiderivative is -1/(b*(y + a/(2b))).
        shift = x0 + a / (2.0 * b)
        if shift <= 0.0:
            raise ValueError("tail integral start is not past the double root")
        return 1.0 / (b * shift)
    # Distinct real roots r1 > r2; both must lie below x0 for positivity.
    root = math.sqrt(-disc)
    r1 = (-a + root) / (2.0 * b)
    r2 = (-a - root) / (2.0 * b)
    if x0 <= r1:
        raise ValueError("tail integral start is not past the largest root")
    return math.log((x0 - r2) / (x0 - r1)) / (b * (r1 - r2))


def bracket_decreasing_tail(term_at: "callable", n_from: int) -> tuple[float, float]:
    """Bracket sum_{n > n_from} f(n) for f positive and decreasing.

    `term_at(x)` must be the integral of f over [x, infinity). Returns
    (lower, upper) with lower = integral from n_from+1 and upper = integral
    from n_from.
    """
    lower = term_at(float(n_from + 1))
    upper = term_at(float(n_from))
    if lower > upper:
        lower, upper = upper, lower
    return lower, upper
