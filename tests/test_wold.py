"""The four-way decomposition verdict and the case (ii) structure report."""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import woldlab.series
import woldlab.wold
from woldlab.errors import DegenerateNormError, PreconditionError
from woldlab.series import SeriesConfig, SeriesVerdict, alpha_verdict
from woldlab.tree_core import (TkInfKernel, TqbKernel, Window, ZPathKernel,
                               load_adjacency, window_vertices)
from woldlab.weights import (BalancedReport, ConstantWeights, FunctionWeights,
                             TkinfIsometricWeights, cauchy_dual, ex52_weights)
from woldlab.wold import (WeightRelationReport, _rank, case_ii_weight_relation,
                          decomposition_report, outcome_of, wold_verdict)

TQB = TqbKernel()
ZP = ZPathKernel()
EX52 = ex52_weights()


def exact_alpha(value):
    return SeriesVerdict.converged(None, value, 0.0, "analytic", {"rule": "test"}, 1)


# ---------------------------------------------------------------------------
# weight relation


def test_weight_relation_exact_on_isometric_tree():
    k = TkInfKernel(3)
    ws = TkinfIsometricWeights(3)
    window = Window((0, 0), 1, 1)
    need = set(window_vertices(k, window))
    need.update(k.parent(v) for v in need.copy())
    alphas = {v: alpha_verdict(ws, k, v) for v in need}
    rep = case_ii_weight_relation(ws, k, window, alphas)
    assert rep.passed and rep.max_residual <= 1e-14
    assert rep.checked == 5 and rep.skipped == 0


def test_weight_relation_flags_wrong_constant():
    window = Window(0, 1, 1)
    alphas = {v: exact_alpha(1.0) for v in range(-3, 4)}
    rep = case_ii_weight_relation(ConstantWeights(2.0), ZP, window, alphas)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(1.0)
    assert rep.witness is not None


class NanAtZero(ConstantWeights):
    def weight(self, v):
        return math.nan if v == 0 else self.c


def test_weight_relation_fails_closed_on_a_nan_residual():
    # the residual 1 at -1 is met first; the NaN at 0 wins and stays
    window = Window(0, 1, 1)
    alphas = {v: exact_alpha(1.0) for v in range(-3, 4)}
    rep = case_ii_weight_relation(NanAtZero(2.0), ZP, window, alphas)
    assert window_vertices(ZP, window) == [-1, 0, 1]
    assert math.isnan(rep.max_residual) and rep.witness == 0
    assert rep.max_allowance == 0.0 and rep.checked == 3
    assert not rep.passed


def test_weight_relation_skips_boundary_orphans():
    k = load_adjacency("#boundary: r x y q z w\nr: a b\na: x q\nb: c y\nc: z w\n")
    window = Window("a", 1, 1)
    verts = window_vertices(k, window)
    alphas = {v: exact_alpha(1.0) for v in verts}
    for v in verts:
        try:
            alphas.setdefault(k.parent(v), exact_alpha(1.0))
        except Exception:
            pass
    rep = case_ii_weight_relation(ConstantWeights(1.0), k, window, alphas)
    assert rep.skipped == 1          # the root has no parent on file
    assert rep.checked == len(verts) - 1
    assert rep.passed


def test_weight_relation_demands_converged_values():
    window = Window(0, 0, 0)
    with pytest.raises(ValueError, match="missing alpha"):
        case_ii_weight_relation(ConstantWeights(1.0), ZP, window, {})
    div = SeriesVerdict.diverged(None, "analytic", {"rule": "test"}, 1)
    alphas = {0: div, -1: exact_alpha(1.0)}
    with pytest.raises(ValueError, match="converged"):
        case_ii_weight_relation(ConstantWeights(1.0), ZP, window, alphas)


# ---------------------------------------------------------------------------
# the verdict on the reference scenarios


def test_ex52_has_no_decomposition():
    out = wold_verdict(EX52, TQB, Window((0, 0), 2, 2))
    assert out.outcome == "NoWold" and out.case == "none"
    assert out.method == "analytic" and out.definitive
    assert out.evidence["alpha_primal"]["verdict"] == "diverged"
    assert out.evidence["alpha_dual"]["verdict"] == "converged"
    assert (0, 0) in out.witnesses
    assert all(row["agree"] for row in out.evidence["spot_checks"])


def test_all_ones_tqb_is_case_one():
    out = wold_verdict(ConstantWeights(1.0), TQB, Window((0, 0), 2, 2))
    assert out.outcome == "HasWold_case_i" and out.case == "i"
    assert out.definitive
    assert out.evidence["alpha_dual"]["evidence"]["rule"] == "geometric-growth"


def test_unit_zpath_is_case_two():
    out = wold_verdict(ConstantWeights(1.0), ZP, Window(0, 2, 2))
    assert out.outcome == "HasWold_case_ii" and out.case == "ii"
    assert out.definitive
    assert out.evidence["weight_relation"]["max_residual"] <= 1e-12
    assert out.evidence["balanced"]["verdict"] == "balanced"


def test_isometric_tkinf_is_case_two():
    out = wold_verdict(TkinfIsometricWeights(2), TkInfKernel(2), Window((0, 0), 2, 2))
    assert out.outcome == "HasWold_case_ii" and out.definitive
    alphas = out.evidence["alpha_window"]
    assert alphas["0,0"]["value"] == pytest.approx(1.0)
    assert alphas["1,1"]["value"] == pytest.approx(2.0)


def test_deep_isometric_window_is_case_two():
    # 70 levels below the base: balancedness is read off the window's depth
    # classes, so no ancestor search bounds how deep a window can be
    out = wold_verdict(TkinfIsometricWeights(2), TkInfKernel(2), Window((0, 0), 0, 70))
    assert (out.outcome, out.method) == ("HasWold_case_ii", "analytic")
    assert out.evidence["balanced"] == {"verdict": "balanced", "tol": 1e-10}


def test_wrong_constant_zpath_fails_weight_relation():
    out = wold_verdict(ConstantWeights(2.0), ZP, Window(0, 2, 2))
    assert out.outcome == "NoWold" and out.definitive
    assert out.note == "weight relation fails"
    assert out.witnesses


def test_larger_window_keeps_the_verdict():
    out = wold_verdict(EX52, TQB, Window((0, 0), 3, 3))
    assert out.outcome == "NoWold" and out.definitive


def test_degenerate_norms_are_refused():
    with pytest.raises(DegenerateNormError):
        wold_verdict(ConstantWeights(1e-13), ZP, Window(0, 1, 1))


# ---------------------------------------------------------------------------
# heuristic evidence downgrades the verdict instead of deciding it


def test_heuristic_case_two_stays_inconclusive():
    class NoSpanZPath(ZPathKernel):
        def generation_span(self, v):
            return None

    out = wold_verdict(ConstantWeights(1.0), NoSpanZPath(), Window(0, 2, 2))
    assert out.outcome == "Inconclusive" and out.method == "heuristic"
    assert "likely HasWold_case_ii" in out.note
    assert not out.definitive


def test_heuristic_unbalanced_stays_inconclusive():
    ws = FunctionWeights(lambda v: 0.5 if v[0] >= 1 else 1.0, name="ray-decay")
    out = wold_verdict(ws, TQB, Window((0, 0), 1, 1), SeriesConfig(n_max=250))
    assert out.outcome == "Inconclusive"
    assert "likely NoWold" in out.note and "unbalanced" in out.note


def test_spot_check_clash_downgrades():
    window = Window((0, 0), 2, 2)
    pool = [v for v in window_vertices(TQB, window) if v != (0, 0)]
    target = random.Random(0).sample(pool, 8)[0]

    class LyingTqb(TqbKernel):
        def generation_span(self, v):
            return 0 if v == target else None

    out = wold_verdict(EX52, LyingTqb(), window)
    assert out.outcome == "Inconclusive"
    assert out.note == "downgraded: definitive series disagreement at the last witness"
    assert out.witnesses[-1] == target


def test_verdict_json_schema():
    out = wold_verdict(EX52, TQB, Window((0, 0), 2, 2))
    obj = out.to_json(TQB)
    assert set(obj) == {"vertex", "verdict", "value", "tail_bound", "evidence",
                        "method", "case", "note"}
    assert obj["case"] == "none"
    assert obj["evidence"]["witnesses"] == ["0,0"]
    assert len(obj["evidence"]["spot_checks"]) == 8


# ---------------------------------------------------------------------------
# the outcome rule over every ingredient state

KINDS = {"C": "converged", "D": "diverged", "I": "inconclusive"}
STATES = ("CA", "CH", "DA", "DH", "I")     # kind, then analytic or heuristic


def series(state, vertex):
    kind = KINDS[state[0]]
    method = "analytic" if state[1:] == "A" else "heuristic"
    if kind == "converged":
        return SeriesVerdict.converged(vertex, 1.0, 0.0, method, {"rule": "test"}, 1)
    if kind == "diverged":
        return SeriesVerdict.diverged(vertex, method, {"rule": "test"}, 1)
    return SeriesVerdict.inconclusive(vertex, {"rule": "test"}, 1)


def ingredients(p, d, o, passed, balance):
    """outcome_of's first five inputs, shaped as wold_verdict passes them: a
    dual only past a divergent base, window alphas (the base and one other
    vertex) only past a convergent one, and the relation and balancedness
    only when every window alpha converged."""
    primal = series(p, "base")
    dual = series(d, "base") if primal.kind == "diverged" else None
    alphas = [primal, series(o, "other")] if primal.kind == "converged" else []
    if not alphas or any(a.kind != "converged" for a in alphas):
        return primal, dual, alphas, None, None
    rel = WeightRelationReport(0.0 if passed else 1.0, "rel", 1e-9, 0.0, 1)
    bal = BalancedReport(balance, ("u", "w", 1.0, 2.0), 1, 1e-10)
    return primal, dual, alphas, rel, bal


# (base primal, base dual, other window alpha, relation passes, balance)
#   -> (outcome, note, witnesses) with no spot checks
FINDING_TABLE = [
    (("I", "DA", "CA", True, "balanced"), ("Inconclusive", "primal series undecided", [])),
    (("DA", "DA", "I", True, "balanced"), ("HasWold_case_i", "", [])),
    (("DA", "DH", "I", True, "balanced"),
     ("Inconclusive", "likely HasWold_case_i (heuristic series evidence)", [])),
    (("DA", "CA", "I", True, "balanced"), ("NoWold", "", ["base"])),
    (("DH", "CA", "I", True, "balanced"),
     ("Inconclusive", "likely NoWold (heuristic series evidence)", [])),
    (("DA", "I", "I", True, "balanced"), ("Inconclusive", "dual series undecided", [])),
    (("CA", "I", "I", True, "balanced"),
     ("Inconclusive", "some window series undecided", [])),
    (("CA", "I", "DA", True, "balanced"),
     ("Inconclusive", "bug-level inconsistency: convergence split across the window",
      ["other"])),
    (("CA", "I", "CA", True, "balanced"), ("HasWold_case_ii", "", [])),
    (("CA", "I", "CH", True, "balanced"),
     ("Inconclusive", "likely HasWold_case_ii (heuristic series evidence)", [])),
    (("CA", "I", "CA", False, "balanced"), ("NoWold", "weight relation fails", ["rel"])),
    (("CH", "I", "CA", False, "not_balanced"),
     ("Inconclusive", "likely NoWold (weight relation fails on heuristic values)", ["rel"])),
    (("CA", "I", "CA", True, "not_balanced"), ("NoWold", "not balanced", ["u", "w"])),
    (("CA", "I", "CH", True, "not_balanced"),
     ("Inconclusive", "likely NoWold (unbalanced, heuristic series evidence)", ["u", "w"])),
]


@pytest.mark.parametrize("case, expected", FINDING_TABLE)
def test_outcome_of_each_finding(case, expected):
    outcome, method, note, witnesses = outcome_of(*ingredients(*case), [])
    assert (outcome, note, witnesses) == expected
    assert method == ("heuristic" if outcome == "Inconclusive" else "analytic")


def kind_clash(a, b):
    return {a.kind, b.kind} == {"converged", "diverged"}


def test_outcome_rule_over_every_ingredient_state():
    """One pick against base primal, base dual and one other window alpha,
    each in every kind and method, crossed with the relation and balance."""
    cases = 0
    for p, d, o, passed, balance in product(STATES, STATES, STATES, (True, False),
                                            ("balanced", "not_balanced")):
        args = ingredients(p, d, o, passed, balance)
        primal, dual, alphas = args[:3]
        read = (primal, dual) if dual is not None else alphas
        bare = outcome_of(*args, [])
        for sp, sd in product(STATES, (*STATES, None)):
            pick = series(sp, "pick")
            pick_dual = series(sd, "pick") if sd and dual is not None else None
            got = outcome_of(*args, [(pick, pick_dual)])
            outcome, method, note, witnesses = got
            assert (method == "analytic") == (outcome != "Inconclusive")
            if method == "analytic":
                assert read and all(a.definitive for a in read)
            clash = ((pick.definitive and kind_clash(pick, primal))
                     or (pick_dual is not None and pick_dual.definitive
                         and kind_clash(pick_dual, dual)))
            if clash and bare[1] == "analytic":
                assert got == ("Inconclusive", "heuristic",
                               "downgraded: definitive series disagreement at the last witness",
                               [*bare[3], "pick"])
            else:
                assert got == bare
            cases += 1
    assert cases == 15_000


# ---------------------------------------------------------------------------
# decomposition structure report


def test_decomposition_report_isometric_tree():
    k = TkInfKernel(2)
    rep = decomposition_report(TkinfIsometricWeights(2), k, Window((0, 0), 2, 2))
    assert rep.passed
    assert len(rep.reduction) == 8 and len(rep.unitarity) == 9
    for row in rep.reduction:
        assert row["recurrence_residual"] <= 1e-10 + row["recurrence_allowance"]
        assert row["constant_mismatch"] <= 1e-10 + row["adjoint_allowance"]
    assert rep.coverage["deficit"] == 0
    assert rep.coverage["gram_offdiag_max"] <= 1e-10


def test_decomposition_report_zpath():
    rep = decomposition_report(ConstantWeights(1.0), ZP, Window(0, 2, 2))
    assert rep.passed
    assert rep.coverage["rank"] == rep.coverage["window_dim"] == 5
    obj = rep.to_json(ZP)
    assert obj["passed"] and obj["base"] == "0"


def test_decomposition_report_needs_case_two():
    with pytest.raises(PreconditionError, match="NoWold"):
        decomposition_report(EX52, TQB, Window((0, 0), 2, 2))


# sha256 of the JSON of the tkinf:2 report at (0,0), window (2,2), n_max=2,
# from before verdicts were memoized and before the Gram rank left numpy
REPORT_DIGEST = "0035d3f955f7f5cdef3854b4b246308ad154aab3932dfcd261f924a2a81a1eff"

REPORT_WITHOUT_NUMPY = """
import hashlib, json, sys

class RefuseNumpy:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "numpy":
            raise ModuleNotFoundError(f"{name} is refused")

sys.meta_path.insert(0, RefuseNumpy())
from woldlab.tree_core import TkInfKernel, Window
from woldlab.weights import TkinfIsometricWeights
from woldlab.wold import decomposition_report

k = TkInfKernel(2)
rep = decomposition_report(TkinfIsometricWeights(2), k, Window((0, 0), 2, 2), n_max=2)
text = json.dumps(rep.to_json(k), sort_keys=True)
print(hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def test_decomposition_report_needs_no_numpy():
    # a fresh interpreter whose numpy import fails; the suite's own process
    # may have numpy loaded by a plugin
    src = Path(woldlab.wold.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", REPORT_WITHOUT_NUMPY],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == REPORT_DIGEST + "\n"


# ---------------------------------------------------------------------------
# the coverage Gram's rank


# a rank-2 block, a rank-1 block and a zero block
BLOCKS = [[2.0, 1.0, 0.0, 0.0, 0.0, 0.0],
          [1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
          [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
          [0.0, 0.0, 1.0, 1.0, 0.0, 0.0],
          [0.0] * 6,
          [0.0] * 6]
KNOWN_RANKS = {
    "empty": ([], 0),
    "one": ([[0.5]], 1),
    "one-zero": ([[0.0]], 0),
    "identity": ([[float(i == j) for j in range(5)] for i in range(5)], 5),
    "zero": ([[0.0] * 4 for _ in range(4)], 0),
    "rank-one": ([[x * y for y in (1.0, -2.0, 3.0, 0.5)] for x in (1.0, -2.0, 3.0, 0.5)], 1),
    # rows and columns permuted alike, so that the rotations mix the blocks
    "block-mix": ([[BLOCKS[i][j] for j in (4, 0, 2, 5, 1, 3)] for i in (4, 0, 2, 5, 1, 3)], 3),
}


@pytest.mark.parametrize("case", sorted(KNOWN_RANKS))
def test_rank_of_known_grams(case):
    gram, rank = KNOWN_RANKS[case]
    a = [row[:] for row in gram]
    assert _rank(a) == rank
    n = len(a)
    # left diagonal, with the trace kept
    assert all(abs(a[i][j]) <= 1e-14 for i in range(n) for j in range(n) if i != j)
    assert math.fsum(a[i][i] for i in range(n)) == pytest.approx(
        math.fsum(gram[i][i] for i in range(n)))


@st.composite
def low_rank_grams(draw):
    """(B B^T, r) for an n x r integer B of full column rank: an identity
    block over random integer rows, the rows shuffled."""
    n = draw(st.integers(1, 15))
    r = draw(st.integers(0, n))
    rows = [[float(i == j) for j in range(r)] for i in range(r)]
    rows += draw(st.lists(st.lists(st.integers(-9, 9).map(float), min_size=r, max_size=r),
                          min_size=n - r, max_size=n - r))
    rows = draw(st.permutations(rows))
    gram = [[math.fsum(x * y for x, y in zip(u, v)) for v in rows] for u in rows]
    return gram, r


@settings(max_examples=200, deadline=None)
@given(low_rank_grams())
def test_rank_of_integer_gram_products(case):
    gram, r = case
    n = len(gram)
    trace = math.fsum(gram[i][i] for i in range(n))
    a = [row[:] for row in gram]
    assert _rank(a) == r
    assert abs(math.fsum(a[i][i] for i in range(n)) - trace) <= n * sys.float_info.epsilon * trace


# ---------------------------------------------------------------------------
# shared work


def test_wold_verdict_builds_one_dual(monkeypatch):
    built = []

    def counting_dual(ws, kernel, *args):
        built.append(ws)
        return cauchy_dual(ws, kernel, *args)

    monkeypatch.setattr(woldlab.wold, "cauchy_dual", counting_dual)
    verdict = wold_verdict(EX52, TQB, Window((0, 0), 2, 2))
    assert "alpha_dual" in verdict.evidence
    assert any("dual_kind" in row for row in verdict.evidence["spot_checks"])
    assert len(built) == 1


def test_decomposition_report_decides_each_vertex_once(monkeypatch):
    # wold_verdict decides the window's vertices, then each g_vector asks
    # again at its path vertex: 13 requests over 8 distinct vertices
    decided = []
    real = woldlab.series._finite_generation_verdict

    def spy(ws, kernel, v, span):
        decided.append(v)
        return real(ws, kernel, v, span)

    monkeypatch.setattr(woldlab.series, "_finite_generation_verdict", spy)
    k = TkInfKernel(2)
    rep = decomposition_report(TkinfIsometricWeights(2), k, Window((0, 0), 2, 2), n_max=2)
    assert len(decided) == len(set(decided)) == 8
    text = json.dumps(rep.to_json(k), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_DIGEST
