"""Independent oracles that only the tests call: each recomputes from the
definitions what the library computes another way."""

from __future__ import annotations

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
