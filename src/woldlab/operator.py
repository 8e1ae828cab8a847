"""The shift, its adjoint, and defect diagnostics on finitely supported vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .numerics import worst
from .tree_core import Budget, TreeKernel, Window, descend, operation, window_vertices
from .weights import WeightSystem, is_balanced

PRUNE = 1e-15


class SparseVector:
    """Finite real-valued map on vertices; zero elsewhere.

    Entries with magnitude below 1e-15 are dropped on construction so that
    supports stay honest about what is numerically present; a NaN is kept,
    since nothing shows it small.
    """

    __slots__ = ("entries",)

    def __init__(self, entries=None) -> None:
        self.entries = {v: x for v, x in dict(entries or {}).items() if not abs(x) < PRUNE}

    @classmethod
    def basis(cls, v) -> "SparseVector":
        return cls({v: 1.0})

    def get(self, v) -> float:
        return self.entries.get(v, 0.0)

    def items(self):
        return self.entries.items()

    def __len__(self) -> int:
        return len(self.entries)

    def scale(self, c: float) -> "SparseVector":
        return SparseVector({v: c * x for v, x in self.entries.items()})

    def add(self, other: "SparseVector", c: float = 1.0) -> "SparseVector":
        """self + c * other."""
        out = dict(self.entries)
        for v, x in other.entries.items():
            out[v] = out.get(v, 0.0) + c * x
        return SparseVector(out)

    def restrict(self, keep) -> "SparseVector":
        keep = set(keep)
        return SparseVector({v: x for v, x in self.entries.items() if v in keep})

    def norm_sq(self) -> float:
        return math.fsum(x * x for x in self.entries.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def to_json(self, kernel: TreeKernel) -> dict:
        rows = sorted((kernel.format_vertex(v), x) for v, x in self.entries.items())
        return {"entries": [[tok, x] for tok, x in rows]}


def inner(f: SparseVector, g: SparseVector) -> float:
    if len(g) < len(f):
        f, g = g, f
    return math.fsum(x * g.get(v) for v, x in f.items())


def apply_shift(ws: WeightSystem, kernel: TreeKernel, f: SparseVector) -> SparseVector:
    """(S f)(v) = lambda_v * f(par(v)); support moves one level down."""
    budget = Budget.current()
    out: dict = {}
    for u, x in f.items():
        kids = kernel.children(u)
        budget.charge(len(kids))
        for c in kids:
            out[c] = out.get(c, 0.0) + ws.weight(c) * x
    return SparseVector(out)


def apply_adjoint(ws: WeightSystem, kernel: TreeKernel, f: SparseVector) -> SparseVector:
    """(S* f)(v) = sum over children u of v of lambda_u f(u)."""
    out: dict = {}
    for u, x in f.items():
        p = kernel.parent(u)
        out[p] = out.get(p, 0.0) + ws.weight(u) * x
    return SparseVector(out)


@operation()
def apply_power(ws: WeightSystem, kernel: TreeKernel, f: SparseVector, n: int) -> SparseVector:
    """S^n f by iterated application; closed forms stay independent checks."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    for _ in range(n):
        f = apply_shift(ws, kernel, f)
    return f


# ---------------------------------------------------------------------------
# defect diagnostics

MAX_DEFECT_ORDER = 60


@operation()
def defect_diagonal(ws: WeightSystem, kernel: TreeKernel, v, m: int) -> float:
    """d_m(v): the alternating binomial combination of ||S^k e_v||^2.

    The m-th defect operator is diagonal on the vertex basis, so this scalar
    is its full content at v.  Binomials are exact integers; orders past 60
    are refused rather than computed in floating point.  One walk down from
    v gives every norm: level k of it is Chi^k(v) with the log moments that
    `shift_norm_sq(ws, kernel, v, k)` sums, accumulated in the same order,
    so the floats are its floats and each level is charged once.
    """
    if m < 1:
        raise ValueError("defect order m must be >= 1")
    if m > MAX_DEFECT_ORDER:
        raise ValueError(f"defect order {m} exceeds the exact-binomial limit {MAX_DEFECT_ORDER}")
    terms = [1.0]           # ||S^0 e_v||^2, with sign and binomial 1
    level = [(v, 0.0)]
    for k in range(1, m + 1):
        level = descend(kernel, level, 1, ws)
        sign = -1.0 if k % 2 else 1.0
        terms.append(sign * math.comb(m, k) * math.fsum(math.exp(2.0 * acc) for _, acc in level))
    return math.fsum(terms)


@dataclass
class DefectReport:
    """Per-vertex defect diagonal over a window, with classification flags."""

    m: int
    tol: float
    entries: dict = field(default_factory=dict)
    label: str = "neither"
    flags: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)

    def to_json(self, kernel: TreeKernel) -> dict:
        rows = sorted((kernel.format_vertex(v), d) for v, d in self.entries.items())
        return {
            "m": self.m,
            "tol": self.tol,
            "label": self.label,
            "flags": self.flags,
            "witnesses": {k: kernel.format_vertex(v) for k, v in self.witnesses.items()},
            "entries": [[tok, d] for tok, d in rows],
        }


@operation()
def classify(ws: WeightSystem, kernel: TreeKernel, window: Window, m: int,
             tol: float = 1e-10) -> DefectReport:
    """Sign-classify the m-th defect on a window.

    m-expansion: d_m <= tol everywhere; m-concave: (-1)^m d_m <= tol
    everywhere; m-isometry: |d_m| <= tol everywhere.  Since the defect is
    diagonal, the per-vertex test is exact, not just necessary.
    """
    report = DefectReport(m=m, tol=tol)
    concave_sign = -1.0 if m % 2 else 1.0
    expansion = concave = isometry = True
    for v in window_vertices(kernel, window):
        d = defect_diagonal(ws, kernel, v, m)
        report.entries[v] = d
        # negated comparisons, so that a NaN defect fails every test
        if not d <= tol:
            expansion = False
            report.witnesses.setdefault("expansion", v)
        if not concave_sign * d <= tol:
            concave = False
            report.witnesses.setdefault("concave", v)
        if not abs(d) <= tol:
            isometry = False
            report.witnesses.setdefault("isometry", v)
    report.flags = {
        "m_expansion": expansion,
        "m_concave": concave,
        "m_isometry": isometry,
    }
    if isometry:
        report.label = f"{m}-isometry"
    elif expansion:
        report.label = f"{m}-expansion"
    elif concave:
        report.label = f"{m}-concave"
    return report


# ---------------------------------------------------------------------------
# kernel of the adjoint, and wandering-subspace checks


def ker_adjoint_local_basis(ws: WeightSystem, kernel: TreeKernel, v) -> list[SparseVector]:
    """Orthonormal basis of the adjoint's kernel among vectors on Chi(v).

    A vector supported on the children of v is killed by S* exactly when it
    is orthogonal to the weight vector (lambda_c)_c; Gram-Schmidt against
    that vector and the earlier basis members gives the d-1 directions.
    """
    kids = kernel.children(v)
    d = len(kids)
    if d <= 1:
        return []
    w = [ws.weight(c) for c in kids]
    wnorm_sq = math.fsum(x * x for x in w)
    basis: list[list[float]] = []
    for i in range(d - 1):
        x = [0.0] * d
        x[i] = 1.0
        proj = w[i] / wnorm_sq
        for j in range(d):
            x[j] -= proj * w[j]
        for b in basis:
            dot = math.fsum(x[j] * b[j] for j in range(d))
            for j in range(d):
                x[j] -= dot * b[j]
        nrm = math.sqrt(math.fsum(t * t for t in x))
        basis.append([t / nrm for t in x])
    return [SparseVector(dict(zip(kids, b))) for b in basis]


def shifted_kernel_vectors(ws: WeightSystem, kernel: TreeKernel, verts, n_max: int):
    """Yield (v, idx, j, S^j f) for each v in `verts`, f the idx-th vector of
    its `ker_adjoint_local_basis`, and j = 0, ..., n_max, in that order."""
    for v in verts:
        for idx, vec in enumerate(ker_adjoint_local_basis(ws, kernel, v)):
            yield v, idx, 0, vec
            for j in range(1, n_max + 1):
                vec = apply_shift(ws, kernel, vec)
                yield v, idx, j, vec


@dataclass
class WanderingReport:
    verdict: str                     # "pass" | "fail" | "precondition_violation"
    max_pair_residual: float
    max_complement_residual: float
    vector_count: int
    n_max: int
    tol: float
    witness: tuple | None = None
    note: str = ""

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_pair_residual": self.max_pair_residual,
            "max_complement_residual": self.max_complement_residual,
            "vector_count": self.vector_count,
            "n_max": self.n_max,
            "tol": self.tol,
            "note": self.note,
        }


@operation()
def wandering_orthogonality_check(ws: WeightSystem, kernel: TreeKernel, window: Window,
                                  n_max: int = 4, tol: float = 1e-10) -> WanderingReport:
    """Gram checks for shifted local adjoint-kernel vectors.

    Under balanced weights, distinct shifts of kernel vectors must stay
    orthogonal, and every shifted kernel vector below power n must be
    orthogonal to the n-th shift range.  Balancedness is a stated hypothesis,
    so its failure is reported rather than silently ignored.
    """
    bal = is_balanced(ws, kernel, window, tol=max(tol, 1e-10))
    if bal.verdict != "balanced":
        return WanderingReport("precondition_violation", math.nan, math.nan, 0,
                               n_max, tol, witness=bal.witness,
                               note=f"weights not balanced on window ({bal.verdict})")
    verts = window_vertices(kernel, window)
    family = [(j, vec) for _, _, j, vec in shifted_kernel_vectors(ws, kernel, verts, n_max)]
    n = len(family)
    max_pair, witness = worst((abs(inner(family[a][1], family[b][1])), (a, b))
                              for a in range(n) for b in range(a + 1, n))
    shifted = [apply_power(ws, kernel, SparseVector.basis(u), n_max) for u in verts]
    max_comp, _ = worst((abs(inner(vec, g)), None)
                        for j, vec in family if j < n_max for g in shifted)
    verdict = "fail" if not max_pair <= tol or not max_comp <= tol else "pass"
    return WanderingReport(verdict, max_pair, max_comp, n, n_max, tol,
                           witness=witness if verdict == "fail" else None)
