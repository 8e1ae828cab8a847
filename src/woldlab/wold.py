"""The decomposition verdict and its supporting reports.

The shift either restricts to a unitary on its hyper-range with the
complement swept out by the wandering subspace, or it does not.  Which way
it goes is decided by two series verdicts, a weight relation along parents,
and balancedness.  The verdict here is four-valued: the two positive cases,
a definitive no, and an honest "the numerics cannot tell".  A definitive
answer is only ever assembled from definitive ingredients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import reduce
from operator import add

from .errors import DegenerateNormError, PreconditionError, UnknownVertexError
from .numerics import worst
from .operator import apply_adjoint, apply_shift, inner, shifted_kernel_vectors
from .series import (SeriesConfig, SeriesVerdict, alpha_verdict, g_vector,
                     hyperrange_recurrence_check)
from .tree_core import BilateralPath, TreeKernel, Window, operation, window_vertices
from .weights import (NORM_FLOOR, BalancedReport, WeightSystem,
                      boundedness_estimate, cauchy_dual, is_balanced,
                      shift_norm_sq)


# ---------------------------------------------------------------------------
# weight relation


@dataclass
class WeightRelationReport:
    max_residual: float
    witness: object | None
    tol: float
    max_allowance: float
    checked: int
    skipped: int = 0

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol + self.max_allowance


def case_ii_weight_relation(ws: WeightSystem, kernel: TreeKernel, window: Window,
                            alpha_values: dict, tol: float = 1e-9) -> WeightRelationReport:
    """Residuals of lambda_v = sqrt(alpha(par v) / alpha(v)) over the window.

    alpha_values maps vertices (window members and their parents) to converged
    series verdicts.  Tail bounds of the two alpha values are propagated into
    a per-vertex allowance added to tol.  The vertex whose residual most
    exceeds its allowance is the witness; a NaN excess wins and stays, so
    the check fails closed on it.
    """
    excess = []
    skipped = 0
    for v in window_vertices(kernel, window):
        try:
            p = kernel.parent(v)
        except UnknownVertexError:
            skipped += 1
            continue
        try:
            a_par, a_v = alpha_values[p], alpha_values[v]
        except KeyError as exc:
            raise ValueError(f"missing alpha value for {exc.args[0]!r}") from exc
        if a_par.kind != "converged" or a_v.kind != "converged":
            raise ValueError(f"weight relation needs converged alpha at {v!r}")
        A, B = a_par.value, a_v.value
        predicted = math.sqrt(A / B)
        resid = abs(ws.weight(v) - predicted)
        dA, dB = a_par.tail_bound, a_v.tail_bound
        allowance = dA / (2.0 * math.sqrt(A * B)) + math.sqrt(A) * dB / (2.0 * B ** 1.5)
        excess.append((resid - allowance, (v, resid, allowance)))
    _, at = worst(excess)
    witness, resid, allowance = at if at is not None else (None, 0.0, 0.0)
    return WeightRelationReport(resid, witness, tol, allowance, len(excess), skipped)


# ---------------------------------------------------------------------------
# the verdict


_CASE = {"HasWold_case_i": "i", "HasWold_case_ii": "ii",
         "NoWold": "none", "Inconclusive": "unknown"}


@dataclass
class WoldVerdict:
    vertex: object
    outcome: str                 # HasWold_case_i | HasWold_case_ii | NoWold | Inconclusive
    method: str                  # "analytic" | "heuristic"
    evidence: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    note: str = ""

    @property
    def case(self) -> str:
        return _CASE[self.outcome]

    @property
    def definitive(self) -> bool:
        return self.outcome != "Inconclusive" and self.method == "analytic"

    def to_json(self, kernel: TreeKernel) -> dict:
        return {
            "vertex": kernel.format_vertex(self.vertex),
            "verdict": self.outcome,
            "value": None,
            "tail_bound": None,
            "evidence": {**self.evidence,
                         "witnesses": [kernel.format_vertex(w) for w in self.witnesses]},
            "method": self.method,
            "case": self.case,
            "note": self.note,
        }


# Each structural finding: (outcome when every ingredient read is
# definitive, note then, note when some ingredient is heuristic).  A dual
# that converges where the primal diverges lacks the wandering property.
FINDINGS = {
    "case i": ("HasWold_case_i", "", "likely HasWold_case_i (heuristic series evidence)"),
    "dual converges": ("NoWold", "", "likely NoWold (heuristic series evidence)"),
    "case ii": ("HasWold_case_ii", "", "likely HasWold_case_ii (heuristic series evidence)"),
    "relation fails": ("NoWold", "weight relation fails",
                       "likely NoWold (weight relation fails on heuristic values)"),
    "unbalanced": ("NoWold", "not balanced",
                   "likely NoWold (unbalanced, heuristic series evidence)"),
}


def _clash(a: SeriesVerdict, b: SeriesVerdict) -> bool:
    return {a.kind, b.kind} == {"converged", "diverged"}


def outcome_of(primal: SeriesVerdict, dual: SeriesVerdict | None, alphas: list,
               relation: WeightRelationReport | None, balance: BalancedReport | None,
               spots: list) -> tuple[str, str, str, list]:
    """(outcome, method, note, witnesses) of a verdict from its ingredients.

    `primal` is the base series verdict and `dual` the base dual's (None
    unless the primal diverged); `alphas` holds every window verdict the
    case (ii) split read, and `relation` and `balance` are None unless all
    of them converged.  Balancedness is always decided, so a convergent
    window whose relation holds is unbalanced (NoWold) or else case (ii).
    `spots` pairs each pick's primal verdict with its dual verdict or None.
    A finding is analytic only when every ingredient it read is
    definitive; a definitive pick that clashes with the base downgrades a
    definitive answer, with the last such pick as witness.
    """
    def undecided(note, witnesses=()):
        return "Inconclusive", "heuristic", note, list(witnesses)

    witnesses = []
    if primal.kind == "inconclusive":
        return undecided("primal series undecided")
    if primal.kind == "diverged":
        if dual.kind == "inconclusive":
            return undecided("dual series undecided")
        finding = "case i" if dual.kind == "diverged" else "dual converges"
        read = (primal, dual)
    else:
        kinds = {a.kind for a in alphas}
        if "inconclusive" in kinds:
            return undecided("some window series undecided")
        if "diverged" in kinds:
            return undecided("bug-level inconsistency: convergence split across the window",
                             [next(a.vertex for a in alphas if a.kind == "diverged")])
        if not relation.passed:
            finding = "relation fails"
            witnesses.append(relation.witness)
        elif balance.verdict == "not_balanced":
            finding = "unbalanced"
            witnesses.extend(balance.witness[:2])
        else:
            finding = "case ii"
        read = alphas
    outcome, sure, hedged = FINDINGS[finding]
    if not all(a.definitive for a in read):
        return "Inconclusive", "heuristic", hedged, witnesses
    if finding == "dual converges":
        witnesses.append(primal.vertex)
    clashes = [s.vertex for s, sd in spots
               if (s.definitive and _clash(s, primal))
               or (sd is not None and sd.definitive and _clash(sd, dual))]
    if clashes:
        return ("Inconclusive", "heuristic",
                "downgraded: definitive series disagreement at the last witness",
                [*witnesses, clashes[-1]])
    return outcome, "analytic", sure, witnesses


@operation()
def wold_verdict(ws: WeightSystem, kernel: TreeKernel, window: Window,
                 config: SeriesConfig | None = None, seed: int = 0,
                 tol: float = 1e-9) -> WoldVerdict:
    """Decide the decomposition question on a window.

    The case split runs at the window base: a divergent series sends the
    decision to the dual series (both divergent: case (i); dual convergent:
    no decomposition); a convergent one sends it to the weight relation and
    balancedness (case (ii)).  The base verdict is then spot-checked at up
    to 8 seeded random window vertices, since convergence is a property of
    the whole tree, not of the vertex; a definitive disagreement means the
    numerics cannot be trusted and the answer degrades to Inconclusive.
    This function gathers the ingredients and their evidence; `outcome_of`
    decides.

    Each series verdict is computed once, in window order (top first), so
    a vertex's parent is evaluated before it and its term stream climbs the
    shell ladder the parent's stream left behind.
    """
    cfg = config or SeriesConfig()
    verts = window_vertices(kernel, window)
    floor = min(shift_norm_sq(ws, kernel, v) for v in verts)
    if floor < NORM_FLOOR:
        raise DegenerateNormError(
            f"one-step norm floor {floor:.3e} on the window; shift is not left-invertible")
    base = window.base
    rng = random.Random(seed)
    pool = [v for v in verts if v != base]
    picks = rng.sample(pool, min(8, len(pool)))
    checked = {base, *picks}
    order = [v for v in verts if v in checked]
    primals = {v: alpha_verdict(ws, kernel, v, cfg) for v in order}
    duals: dict = {}
    primal = primals[base]
    evidence: dict = {"alpha_primal": primal.to_json(kernel)}
    alphas: list = []
    rel = bal = None

    if primal.kind == "diverged":
        dual_ws = cauchy_dual(ws, kernel)
        duals = {v: alpha_verdict(dual_ws, kernel, v, cfg) for v in order}
        evidence["alpha_dual"] = duals[base].to_json(kernel)
    elif primal.kind == "converged":
        need = set(verts)
        need.update(map(kernel.parent, verts))
        # the top anchor's parent is the one vertex of `need` outside the window
        for v in [*need.difference(verts), *verts]:
            if v not in primals:
                primals[v] = alpha_verdict(ws, kernel, v, cfg)
        alpha_values = {v: primals[v] for v in need}
        alphas = list(alpha_values.values())
        evidence["alpha_window"] = {kernel.format_vertex(v): primals[v].to_json(kernel)
                                    for v in sorted(need, key=kernel.format_vertex)}
        if all(a.kind == "converged" for a in alphas):
            rel = case_ii_weight_relation(ws, kernel, window, alpha_values, tol)
            bal = is_balanced(ws, kernel, window)
            evidence["weight_relation"] = {
                "max_residual": rel.max_residual, "tol": rel.tol,
                "allowance": rel.max_allowance, "checked": rel.checked,
                "witness": kernel.format_vertex(rel.witness) if rel.witness is not None else None,
            }
            evidence["balanced"] = {"verdict": bal.verdict, "tol": bal.tol}

    rows = []
    for v in picks:
        s = primals[v]
        row = {"vertex": kernel.format_vertex(v), "kind": s.kind,
               "method": s.method, "agree": not _clash(s, primal)}
        if duals:
            row["dual_kind"] = duals[v].kind
            row["dual_agree"] = not _clash(duals[v], duals[base])
        rows.append(row)
    evidence["spot_checks"] = rows
    outcome, method, note, witnesses = outcome_of(
        primal, duals.get(base), alphas, rel, bal,
        [(primals[v], duals.get(v)) for v in picks])
    return WoldVerdict(base, outcome, method, evidence, witnesses, note)


# ---------------------------------------------------------------------------
# decomposition report


@dataclass
class DecompositionReport:
    window: Window
    n_max: int
    N: int
    tol: float
    reduction: list           # per-step recurrence and adjoint residuals
    unitarity: list           # per-m norm preservation residuals
    coverage: dict            # Gram diagnostics, reported not asserted

    @property
    def passed(self) -> bool:
        ok_red = all(r["recurrence_ok"] and r["adjoint_ok"] for r in self.reduction)
        ok_uni = all(u["ok"] for u in self.unitarity)
        return ok_red and ok_uni

    def to_json(self, kernel: TreeKernel) -> dict:
        return {
            "base": kernel.format_vertex(self.window.base),
            "n_max": self.n_max, "N": self.N, "tol": self.tol,
            "reduction": self.reduction, "unitarity": self.unitarity,
            "coverage": self.coverage, "passed": self.passed,
        }


@operation()
def decomposition_report(ws: WeightSystem, kernel: TreeKernel, window: Window,
                         n_max: int = 4, tol: float = 1e-10,
                         config: SeriesConfig | None = None) -> DecompositionReport:
    """Check the decomposition structure itself in a case (ii) scenario.

    (a) the shift and its adjoint move each truncated g_m along the ladder
    with the predicted constants (adjoint constant cross-checked through the
    independent norm-ratio route); (b) the restriction to the g-span
    preserves norms; (c) a Gram matrix over the window of the g family plus
    the shifted kernel vectors, with its off-diagonal mass and rank deficit
    reported rather than asserted, since truncation to a window clips
    boundary vectors.
    """
    verdict = wold_verdict(ws, kernel, window, config)
    if verdict.outcome != "HasWold_case_ii":
        raise PreconditionError(
            f"decomposition report needs HasWold_case_ii, got {verdict.outcome}")
    cfg = config or SeriesConfig()
    path = BilateralPath(kernel, window.base)
    N = max(8, 2 * n_max)
    gs = {m: g_vector(ws, kernel, path, m, N, cfg) for m in range(-n_max, n_max + 1)}
    s_sup = math.sqrt(boundedness_estimate(ws, kernel, window))

    reduction = []
    for m in range(-n_max, n_max):
        rec = hyperrange_recurrence_check(ws, kernel, gs[m], gs[m + 1], tol)
        row = {"m": m, "recurrence_residual": rec.residual,
               "recurrence_allowance": rec.tail_allowance,
               "recurrence_ok": rec.passed}
        g_m, g_prev = gs[m + 1], gs[m]
        lam = ws.weight(path[m + 1])
        c_a = shift_norm_sq(ws, kernel, path[m], 1) / lam
        c_b = (g_m.alpha_value / g_prev.alpha_value) * lam
        back = apply_adjoint(ws, kernel, g_m.vector)
        keep = set()
        for gen in g_prev.gen_support[:N]:
            keep.update(gen)
        resid = back.add(g_prev.vector, -c_a).restrict(keep).norm()
        allowance = s_sup * math.sqrt(g_m.tail_mass) + abs(c_a) * math.sqrt(g_prev.tail_mass)
        row.update({"adjoint_constant": c_a, "adjoint_constant_alt": c_b,
                    "constant_mismatch": abs(c_a - c_b),
                    "adjoint_residual": resid, "adjoint_allowance": allowance,
                    "adjoint_ok": resid <= tol + allowance
                    and abs(c_a - c_b) <= tol + allowance})
        reduction.append(row)

    unitarity = []
    for m in range(-n_max, n_max + 1):
        g = gs[m]
        a = apply_shift(ws, kernel, g.vector).norm()
        b = g.vector.norm()
        allowance = (s_sup + 1.0) * math.sqrt(g.tail_mass)
        unitarity.append({"m": m, "residual": abs(a - b),
                          "allowance": allowance,
                          "ok": abs(a - b) <= tol + allowance})

    coverage = _coverage_gram(ws, kernel, window, gs, n_max)
    return DecompositionReport(window, n_max, N, tol, reduction, unitarity, coverage)


def _coverage_gram(ws, kernel, window, gs, n_max):
    win = set(window_vertices(kernel, window))
    members = []
    for m, g in sorted(gs.items()):
        r = g.vector.restrict(win)
        if r.norm_sq() > 0.0:
            members.append((("g", m), r.scale(1.0 / r.norm())))
    verts = sorted(win, key=kernel.format_vertex)
    for v, idx, j, vec in shifted_kernel_vectors(ws, kernel, verts, n_max):
        r = vec.restrict(win)
        if r.norm_sq() > 0.0:
            members.append((("w", kernel.format_vertex(v), idx, j), r.scale(1.0 / r.norm())))
    dim = len(members)
    gram = [[1.0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            gram[i][j] = gram[j][i] = inner(members[i][1], members[j][1])
    off = max((abs(gram[i][j]) for i in range(dim) for j in range(i + 1, dim)), default=0.0)
    rank = _rank(gram)
    return {"vectors": dim, "window_dim": len(win),
            "gram_offdiag_max": off, "rank": rank,
            "deficit": len(win) - rank,
            "labels": [list(map(str, lab)) if isinstance(lab, tuple) else str(lab)
                       for lab, _ in members]}


def _rank(a: list) -> int:
    """How many |eigenvalues| of the symmetric matrix `a` (rows, left with
    the eigenvalues on its diagonal) exceed 1e-8, as `matrix_rank(a, 1e-8)`
    counts.  Cyclic Jacobi (Golub & Van Loan, 8.5), stopped when twice the
    off-diagonal square sum is 1e-32 of the Frobenius one, not at 0.0.
    Both sums are left folds, the same floats on every Python (`sum`
    compensates from 3.12).
    """
    n = len(a)
    frob = reduce(add, (x * x for row in a for x in row), 0.0)
    for _ in range(64):
        off = reduce(add, (a[p][q] ** 2 for p in range(n) for q in range(p + 1, n)), 0.0)
        if 2.0 * off <= 1e-32 * frob:
            return sum(abs(a[i][i]) > 1e-8 for i in range(n))
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.hypot(t, 1.0)
                s = t * c
                for k in range(n):
                    if k != p and k != q:
                        akp, akq = a[k][p], a[k][q]
                        a[k][p] = a[p][k] = c * akp - s * akq
                        a[k][q] = a[q][k] = s * akp + c * akq
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
    raise ArithmeticError("Jacobi sweeps did not converge")
