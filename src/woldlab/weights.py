"""Weight systems on trees: moments, shift-power norms, the Cauchy dual,
balancedness and boundedness diagnostics, and the builtin families.

All weight products are carried in log space; a moment over hundreds of
generations would otherwise leave the double range.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .errors import DegenerateNormError, MissingWeightError
from .numerics import worst
from .tree_core import (Budget, RayChain, TkInfKernel, TreeKernel, Window,
                        descend, operation, window_depth_classes, window_vertices)

NORM_FLOOR = 1e-12      # one-step norms below this: not left-invertible


class WeightSystem:
    """Positive weight per vertex, plus family metadata.

    Subclasses implement `weight`; `log_weight` may be overridden when a
    closed form in log space is cheaper or more accurate, and `row_key`
    when a tqb ray's log weights read its m only through a key, so that
    one row serves every m with that key.  Overriding `log_weight` without
    `row_key` resets the key to None: one `log_weight` call per ray vertex.
    """

    name = "custom"
    params: dict = {}
    dual_depth = 0

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # an inherited key would vouch for rows a new log_weight breaks
        if "log_weight" in vars(cls) and "row_key" not in vars(cls):
            cls.row_key = WeightSystem.row_key

    def weight(self, v) -> float:
        raise NotImplementedError

    def log_weight(self, v) -> float:
        w = self.weight(v)
        if not 0.0 < w < math.inf:
            raise ValueError(f"weight at {v!r} must be positive and finite, got {w!r}")
        return math.log(w)

    def row_key(self, m):
        """A key k such that, on tqb from n = 2 on, log_weight((n, m))
        depends on (k, n) alone; None when there is none."""
        return None

    def ray_log_weights(self, chain: RayChain) -> list:
        """[log_weight((n, m)) for n in range(start, stop)] for a tqb
        `RayChain` (start, stop, m).  When m has a row key, the operation's
        memos keep one row per key under ("ray row", self, key): the prefix
        log_weight((n, m)) for n = 2, 3, ..., indexed by n - 2 and grown
        only at its end, so each value is taken once per operation.  A
        chain that starts at n >= 2 and no later than the row's end extends
        the row to its stop and is read as one slice, always a new list.
        Any other chain, and one whose m has no key, is taken one
        `log_weight` call per vertex and stored nowhere: a key vouches only
        for n >= 2, and a row never holds more than the vertices walked."""
        start, stop, m = chain.start, chain.stop, chain.m
        log_weight = self.log_weight
        key = self.row_key(m)
        if key is not None:
            row = Budget.current().memos.setdefault(("ray row", self, key), [])
            end = len(row) + 2
            if 2 <= start <= end:
                if end < stop:
                    row.extend([log_weight((n, m)) for n in range(end, stop)])
                return row[start - 2:stop - 2]
        return [log_weight((n, m)) for n in range(start, stop)]


class ConstantWeights(WeightSystem):
    name = "constant"

    def __init__(self, c: float) -> None:
        c = float(c)
        if c <= 0.0:
            raise ValueError("constant weight must be positive")
        self.c = c
        self.params = {"c": c}
        self._log = math.log(c)

    def weight(self, v) -> float:
        return self.c

    def log_weight(self, v) -> float:
        return self._log

    def row_key(self, m):
        return ()


class FunctionWeights(WeightSystem):
    """Weights given by an arbitrary function; mainly for custom scenarios."""

    def __init__(self, fn, name: str = "custom", params: dict | None = None) -> None:
        self._fn = fn
        self.name = name
        self.params = dict(params or {})

    def weight(self, v) -> float:
        w = float(self._fn(v))
        if not 0.0 < w < math.inf:
            raise ValueError(f"weight at {v!r} must be positive and finite, got {w!r}")
        return w


class PolyRule:
    """Rule m -> positive coefficient: a constant, or a table with a default.

    The default doubles as the eventual value, which lets series code
    integrate tails once the table entries are exhausted.
    """

    def __init__(self, default: float, table: dict[int, float] | None = None) -> None:
        self.default = float(default)
        self.table = {int(k): float(v) for k, v in (table or {}).items()}
        if not all(0.0 < c < math.inf for c in (self.default, *self.table.values())):
            raise ValueError("polynomial coefficients must be positive and finite")

    def __call__(self, m: int) -> float:
        return self.table.get(m, self.default)

    def settled_after(self) -> int | None:
        """Index past which the rule equals its default; None for constants."""
        return max(self.table) if self.table else None

    def spec(self) -> str:
        if not self.table:
            return f"const:{self.default!r}"
        entries = ",".join(f"{k}={self.table[k]!r}" for k in sorted(self.table))
        return f"table:{entries},default={self.default!r}"

    @classmethod
    def parse(cls, text: str) -> "PolyRule":
        kind, _, rest = text.partition(":")
        if kind == "const":
            return cls(float(rest))
        if kind == "table":
            default = None
            table: dict[int, float] = {}
            for item in rest.split(","):
                key, _, val = item.partition("=")
                if not val:
                    raise ValueError(f"bad table entry {item!r}")
                if key.strip() == "default":
                    default = float(val)
                else:
                    table[int(key)] = float(val)
            if default is None:
                raise ValueError("table rule needs a default entry")
            return cls(default, table)
        raise ValueError(f"unknown rule {text!r} (use const:<x> or table:m=x,...,default=<x>)")


class Prop51Weights(WeightSystem):
    """The quadratic-polynomial weight family on the quasi-Brownian tree.

    p_m(x) = 1 + a_m x + b_m x^2 with positive coefficient rules a, b.
    Weights:

        (n, m), n >= 2       sqrt(p_m(n-1) / p_m(n-2))
        (0, m), m >= 1       sqrt(m / (m+1))
        (1, m), m >= 1       1 / sqrt(m)
        (0|1, m), m < 1      1
    """

    name = "prop51"

    def __init__(self, a: PolyRule, b: PolyRule, label: str | None = None) -> None:
        self.a = a
        self.b = b
        if label:
            self.name = label
        self.params = {"a": a.spec(), "b": b.spec()}

    def p(self, m: int, x: float) -> float:
        return 1.0 + self.a(m) * x + self.b(m) * x * x

    def p_row(self, m: int, x: int, count: int) -> list:
        """[p(m + i, x + i) for i < count], each rule's table and default read once.

        Both `m` and `x` step along the row, so this is not a pair of `p`
        values at one `m` as `weight` needs. The expression mirrors `p` (and
        `log_weight`) term for term, so the floats are the same;
        `test_p_row_is_p_along_the_diagonal` holds the two together.
        """
        a_get, a_default = self.a.table.get, self.a.default
        b_get, b_default = self.b.table.get, self.b.default
        return [1.0 + a_get(k, a_default) * y + b_get(k, b_default) * y * y
                for k, y in zip(range(m, m + count), range(x, x + count))]

    def weight(self, v) -> float:
        n, m = v
        if n >= 2:
            return math.sqrt(self.p(m, n - 1) / self.p(m, n - 2))
        if m >= 1:
            return math.sqrt(m / (m + 1.0)) if n == 0 else 1.0 / math.sqrt(m)
        return 1.0

    def log_weight(self, v) -> float:
        n, m = v
        if n >= 2:
            # p(m, x) inlined, rules read as in p_row; same expression order
            ra, rb, x1, x2 = self.a, self.b, n - 1, n - 2
            a, b = ra.table.get(m, ra.default), rb.table.get(m, rb.default)
            return 0.5 * (math.log(1.0 + a * x1 + b * x1 * x1)
                          - math.log(1.0 + a * x2 + b * x2 * x2))
        if m >= 1:
            if n == 0:
                return 0.5 * (math.log(m) - math.log(m + 1.0))
            return -0.5 * math.log(m)
        return 0.0

    def row_key(self, m):
        # from n = 2 on, log_weight reads m only through (a_m, b_m)
        return (self.a.table.get(m, self.a.default), self.b.table.get(m, self.b.default))


def ex52_weights() -> Prop51Weights:
    """The all-ones polynomial instance: p_m(x) = 1 + x + x^2 for every m."""
    return Prop51Weights(PolyRule(1.0), PolyRule(1.0), label="ex52")


class TkinfIsometricWeights(WeightSystem):
    """On the k-ray tree: 1/sqrt(k) entering each ray, 1 elsewhere.

    Every one-step norm is 1, so the shift is an exact isometry.
    """

    name = "tkinf-isometric"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("need k >= 1")
        self.k = k
        self.params = {"k": k}

    def weight(self, v) -> float:
        m, _ = v
        return 1.0 / math.sqrt(self.k) if m == 1 else 1.0

    def log_weight(self, v) -> float:
        m, _ = v
        return -0.5 * math.log(self.k) if m == 1 else 0.0


class CsvWeights(WeightSystem):
    name = "csv"

    def __init__(self, mapping: dict, source: str = "<memory>") -> None:
        self._mapping = mapping
        self.params = {"source": source, "entries": len(mapping)}

    def weight(self, v) -> float:
        try:
            return self._mapping[v]
        except KeyError:
            raise MissingWeightError(f"no weight on file for vertex {v!r}") from None


def load_weight_csv(text: str, kernel: TreeKernel, source: str = "<memory>") -> CsvWeights:
    """Parse `vertex,weight` rows; vertices in the kernel's CLI syntax."""
    mapping: dict = {}
    reader = csv.reader(io.StringIO(text))
    for row in reader:
        if not row or row[0].strip().startswith("#"):
            continue
        if [c.strip().lower() for c in row[:2]] == ["vertex", "weight"]:
            continue
        if len(row) < 2:
            raise ValueError(f"weight row needs two fields, got {row!r}")
        v = kernel.parse_vertex(row[0].strip())
        w = float(row[1])
        if not 0.0 < w < math.inf:
            raise ValueError(f"weight for {row[0]!r} must be positive and finite")
        mapping[v] = w
    if not mapping:
        raise ValueError("weight file is empty")
    return CsvWeights(mapping, source)


# ---------------------------------------------------------------------------
# norms


@operation()
def shift_norm_sq(ws: WeightSystem, kernel: TreeKernel, u, n: int = 1) -> float:
    """Squared norm of the n-th shift power applied to the basis vector at u.

    Equals the sum over Chi^n(u) of the squared n-step moments; accumulated
    with exact summation over the expanded frontier.  The one-step norm
    (n = 1) is memoized in the operation's memos under
    ("norms", ws, kernel), keyed by u, a NaN norm included, so the window
    diagnostics of one operation walk each vertex's children once; a bare
    call is an operation of its own, with its own budget and memos.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return 1.0
    if n == 1:
        norms = Budget.current().memos.setdefault(("norms", ws, kernel), {})
        norm = norms.get(u)
        if norm is None:
            norm = norms[u] = _norm_sq(ws, kernel, u, 1)
        return norm
    return _norm_sq(ws, kernel, u, n)


def _norm_sq(ws: WeightSystem, kernel: TreeKernel, u, n: int) -> float:
    leaves = descend(kernel, [(u, 0.0)], n, ws)
    return math.fsum(math.exp(2.0 * acc) for _, acc in leaves)


# ---------------------------------------------------------------------------
# Cauchy dual


class CauchyDualWeights(WeightSystem):
    """The dual system: each weight divided by the one-step squared norm at
    its parent.

    A lone child's dual log weight is own - log(exp(2 own)) of its primal
    log weight `own` alone: never stored here, and keyed like the primal's
    on a tqb ray, where the dual's own rows keep it.  Sibling sets of two
    or more need a `math.fsum` over their primal weights: a miss fills the
    whole set from the one parent norm it computes, and `_log_cache`
    memoizes those entries per vertex, which is sound because weight
    systems and kernels are pure.  `weight` reads the same values."""

    def __init__(self, primal: WeightSystem, kernel: TreeKernel) -> None:
        self.primal = primal
        self.kernel = kernel
        self.dual_depth = primal.dual_depth + 1
        self.name = primal.name
        self.params = {"dual_of": primal.name, "dual_depth": self.dual_depth, **primal.params}
        self._log_cache: dict = {}

    def weight(self, v) -> float:
        return math.exp(self.log_weight(v))

    def log_weight(self, v) -> float:
        hit = self._log_cache.get(v)
        if hit is not None:
            return hit
        # the same floats as shift_norm_sq at par(v): one primal log
        # weight per sibling, v's own first, summed with math.fsum
        own = self.primal.log_weight(v)
        kids = self.kernel.siblings(v)
        if len(kids) == 1:
            # the lone sibling is v (the kernel contract puts v in
            # children(par v)), and math.fsum of one norm is that norm
            logs, norm = None, math.exp(2.0 * own)
        else:
            # the walk that reached v charged it; charge the others
            Budget.current().charge(len(kids) - 1)
            logs = [own if c == v else self.primal.log_weight(c) for c in kids]
            norm = math.fsum([math.exp(2.0 * lw) for lw in logs])
        if norm < NORM_FLOOR:
            raise DegenerateNormError(f"one-step norm at {self.kernel.parent(v)!r} "
                                      f"fell below {NORM_FLOOR}; dual undefined")
        log_norm = math.log(norm)
        if logs is None:
            return own - log_norm
        for c, lw in zip(kids, logs):
            self._log_cache[c] = lw - log_norm
        return self._log_cache[v]

    def row_key(self, m):
        # from n = 2 on a tqb vertex is a lone child: its dual log weight
        # is a function of its primal one
        return self.primal.row_key(m)


def cauchy_dual(ws: WeightSystem, kernel: TreeKernel) -> CauchyDualWeights:
    """Dual weight system, one per (ws, kernel) within an operation: its
    callers share one log cache and one shell memo, and the operation's
    memos hold it.  Outside any operation each call builds a fresh dual.
    Applying the dual twice recomputes the original numerically; the round
    trip is a checked property, not a shortcut."""
    memos = Budget.current().memos
    key = ("dual", ws, kernel)
    dual = memos.get(key)
    if dual is None:
        dual = memos[key] = CauchyDualWeights(ws, kernel)
    return dual


def family_root(ws: WeightSystem) -> tuple[WeightSystem, int]:
    """Unwrap dual layers: (underlying primal system, number of layers)."""
    depth = 0
    while isinstance(ws, CauchyDualWeights):
        ws = ws.primal
        depth += 1
    return ws, depth


# ---------------------------------------------------------------------------
# window diagnostics


@dataclass(frozen=True)
class BalancedReport:
    verdict: str                 # "balanced" | "not_balanced"
    witness: tuple | None        # (u, v, norm_sq_u, norm_sq_v)
    class_count: int
    tol: float


def is_balanced(ws: WeightSystem, kernel: TreeKernel, window: Window,
                tol: float = 1e-10) -> BalancedReport:
    """Compare one-step norms within each depth class of the window.

    Class d of `window_depth_classes` is the generation set G_{u,d} of each
    of its members u, so the classes are the generations balancedness
    compares.  Every norm of a class is held against the class's first, and
    the first pair not within `tol` of each other, a NaN or infinite pair
    among them, is the witness.
    """
    classes = window_depth_classes(kernel, window)
    norm_classes = [[(v, shift_norm_sq(ws, kernel, v, 1)) for v in cls] for cls in classes]
    for cls in norm_classes:
        lead_v, lead = cls[0]
        for v, val in cls:
            if not abs(val - lead) <= tol:
                return BalancedReport("not_balanced", (lead_v, v, lead, val),
                                      len(classes), tol)
    return BalancedReport("balanced", None, len(classes), tol)


@dataclass(frozen=True)
class NormIncreasingReport:
    verdict: str                 # "norm_increasing" | "not_norm_increasing"
    witness: tuple | None        # (v, norm_sq)
    min_norm_sq: float
    tol: float


def is_norm_increasing(ws: WeightSystem, kernel: TreeKernel, window: Window,
                       tol: float = 1e-9) -> NormIncreasingReport:
    """Check 1 - ||S e_v||^2 <= tol at every window vertex.

    The least norm is its witness; the first NaN norm wins and stays, so
    the check fails closed on it."""
    worst_v, least = None, math.inf
    for v in window_vertices(kernel, window):
        val = shift_norm_sq(ws, kernel, v, 1)
        if not (math.isnan(least) or val >= least):
            worst_v, least = v, val
    if not least >= 1.0 - tol:
        return NormIncreasingReport("not_norm_increasing", (worst_v, least), least, tol)
    return NormIncreasingReport("norm_increasing", None, least, tol)


def boundedness_estimate(ws: WeightSystem, kernel: TreeKernel, window: Window) -> float:
    """Largest one-step squared norm over the window; a NaN norm wins, so
    a check that reads the estimate fails closed on it.

    A boundedness certificate for the sampled window only; nothing global
    can be concluded from a finite sample.
    """
    return worst((shift_norm_sq(ws, kernel, v, 1), v)
                 for v in window_vertices(kernel, window))[0]


# ---------------------------------------------------------------------------
# family construction from CLI-style specs


def make_weights(spec: str, kernel: TreeKernel,
                 a_rule: str | None = None, b_rule: str | None = None) -> WeightSystem:
    """Build a weight system from a spec string.

    Forms: `constant:<c>`, `ex52`, `prop51` (rules from a_rule/b_rule),
    `tkinf-isometric[:k=<int>]` (k defaults to the kernel's ray count),
    `csv:<path>`.
    """
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "constant":
        val = rest[2:] if rest.startswith("c=") else rest
        if not val:
            raise ValueError("constant weights need a value, e.g. constant:1")
        return ConstantWeights(float(val))
    if name == "ex52":
        return ex52_weights()
    if name == "prop51":
        if not (a_rule and b_rule):
            raise ValueError("prop51 needs coefficient rules (--a and --b)")
        return Prop51Weights(PolyRule.parse(a_rule), PolyRule.parse(b_rule))
    if name == "tkinf-isometric":
        arg = rest[2:] if rest.startswith("k=") else rest
        if arg:
            k = int(arg)
        elif isinstance(kernel, TkInfKernel):
            k = kernel.k
        else:
            raise ValueError("tkinf-isometric needs k, e.g. tkinf-isometric:k=3")
        return TkinfIsometricWeights(k)
    if name == "csv":
        if not rest:
            raise ValueError("csv weights need a path, e.g. csv:weights.csv")
        with open(rest, "r", encoding="utf-8") as fh:
            return load_weight_csv(fh.read(), kernel, source=rest)
    raise ValueError(f"unknown weight family {name!r}")
