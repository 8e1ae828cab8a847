"""Independent oracles that only the tests call: each recomputes from the
definitions what the library computes another way."""

from __future__ import annotations

import functools
from fractions import Fraction

from woldlab.tree_core import Budget, TreeKernel, par_n
from woldlab.weights import WeightSystem


def enum_A_definitional(kernel: TreeKernel, v, n: int):
    """A(v, n) straight from the definition: Chi^n(par^n(v)) minus Chi^(n-1)(par^(n-1)(v)).

    An oracle for `shell`: the iterated child sets are expanded depth first
    by recursion, not through `descend`.
    """
    if n == 0:
        return (v,)
    budget = Budget.current()

    def chi(u, k):
        if k == 0:
            return [u]
        kids = kernel.children(u)
        budget.charge(len(kids))
        return [x for c in kids for x in chi(c, k - 1)]

    big = chi(par_n(kernel, v, n), n)
    small = set(chi(par_n(kernel, v, n - 1), n - 1))
    return tuple(u for u in big if u not in small)


def moment_log(ws: WeightSystem, kernel: TreeKernel, u, n: int) -> float:
    """log lambda^(n)(u) = sum of log weights along u, par(u), ..., par^(n-1)(u),
    one parent step at a time: an oracle for the stream's incremental log
    moments."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    total = 0.0
    x = u
    for _ in range(n):
        total += ws.log_weight(x)
        x = kernel.parent(x)
    return total


def prop51_tqb_exact_terms(a, b, v, N: int, dual: bool = False) -> list:
    """t_0, ..., t_N of the series at the tqb vertex v as exact fractions,
    for the Prop. 5.1 weights with coefficient rules a and b, or for their
    Cauchy dual: an oracle for the term stream on that family.

    Straight from the definitions, with tqb's maps and the squared weights
    written out again here: t_n sums (lambda^(n)(u) / lambda^(n)(v))^2 over
    u in A(v, n) = Chi^n(par^n(v)) minus Chi^(n-1)(par^(n-1)(v)), and a dual
    weight is the primal weight over its parent's squared one-step norm.
    Only the rules a and b are read from the library; no kernel, weight
    system, walk or memo of it is.
    """
    def children(x):
        n, m = x
        return [(0, m - 1), (1, m)] if n == 0 else [(n + 1, m)]

    def parent(x):
        n, m = x
        return (0, m + 1) if n == 0 else (n - 1, m)

    def p(m, x):
        return 1 + Fraction(a(m)) * x + Fraction(b(m)) * x * x

    def primal_sq(x):
        n, m = x
        if n >= 2:
            return p(m, n - 1) / p(m, n - 2)
        if m >= 1:
            return Fraction(m, m + 1) if n == 0 else Fraction(1, m)
        return Fraction(1)

    def dual_sq(x):
        norm_sq = sum(primal_sq(c) for c in children(parent(x)))
        return primal_sq(x) / norm_sq ** 2

    weight_sq = dual_sq if dual else primal_sq

    @functools.cache
    def moment_sq(u, k):
        return Fraction(1) if k == 0 else weight_sq(u) * moment_sq(parent(u), k - 1)

    def chi(x, k):
        level = [x]
        for _ in range(k):
            level = [c for y in level for c in children(y)]
        return level

    def par(x, k):
        for _ in range(k):
            x = parent(x)
        return x

    terms = [Fraction(1)]
    for n in range(1, N + 1):
        inner = set(chi(par(v, n - 1), n - 1))
        shell = [u for u in chi(par(v, n), n) if u not in inner]
        terms.append(sum(moment_sq(u, n) for u in shell) / moment_sq(v, n))
    return terms
