"""Shift/adjoint action, defect diagonals, and wandering-subspace checks."""

from __future__ import annotations

import math
import random

import pytest

from woldlab.operator import (MAX_DEFECT_ORDER, SparseVector, apply_adjoint,
                              apply_power, apply_shift, classify,
                              defect_diagonal, inner,
                              ker_adjoint_local_basis,
                              wandering_orthogonality_check)
from woldlab.tree_core import (TkInfKernel, TqbKernel, Window, ZPathKernel,
                               child_n, operation, window_vertices)
from woldlab.weights import (ConstantWeights, FunctionWeights,
                             TkinfIsometricWeights, cauchy_dual, ex52_weights,
                             shift_norm_sq)

TQB = TqbKernel()
ZP = ZPathKernel()
EX52 = ex52_weights()


def random_vector(kernel, window, rng, k=6):
    verts = window_vertices(kernel, window)
    picked = rng.sample(verts, min(k, len(verts)))
    return SparseVector({v: rng.uniform(-1.0, 1.0) for v in picked})


def norm_sq_by_paths(ws, kernel, v, k):
    """||S^k e_v||^2 summed over Chi^k(v), each term a bare weight product."""
    total = 0.0
    for u in child_n(kernel, v, k):
        prod = 1.0
        x = u
        for _ in range(k):
            prod *= ws.weight(x)
            x = kernel.parent(x)
        assert x == v
        total += prod * prod
    return total


# ---------------------------------------------------------------------------
# vectors


def test_sparse_vector_algebra():
    f = SparseVector.basis((0, 0)).scale(2.0).add(SparseVector.basis((1, 1)), -3.0)
    assert f.get((0, 0)) == 2.0 and f.get((1, 1)) == -3.0 and f.get((9, 9)) == 0.0
    assert len(f) == 2
    assert f.norm_sq() == pytest.approx(13.0)
    assert f.restrict([(1, 1)]).entries.keys() == {(1, 1)}


def test_sparse_vector_prunes_dust():
    f = SparseVector({(0, 0): 1.0, (1, 1): 1e-16})
    assert len(f) == 1
    g = SparseVector.basis(5).add(SparseVector.basis(5), -1.0)
    assert len(g) == 0 and g.norm() == 0.0


def test_inner_product():
    f = SparseVector({1: 2.0, 2: 1.0})
    g = SparseVector({2: 3.0, 5: 7.0})
    assert inner(f, g) == 3.0
    assert inner(g, f) == 3.0
    assert inner(f, f) == pytest.approx(f.norm_sq())


# ---------------------------------------------------------------------------
# shift and adjoint


def test_shift_on_basis_vectors():
    out = apply_shift(EX52, TQB, SparseVector.basis((0, 5)))
    assert out.get((0, 4)) == pytest.approx(math.sqrt(4.0 / 5.0))
    assert out.get((1, 5)) == pytest.approx(1.0 / math.sqrt(5.0))
    assert len(out) == 2
    ray = apply_shift(EX52, TQB, SparseVector.basis((2, 3)))
    assert ray.entries.keys() == {(3, 3)}


def test_adjoint_on_basis_vectors():
    out = apply_adjoint(EX52, TQB, SparseVector.basis((1, 5)))
    assert out.entries.keys() == {(0, 5)}
    assert out.get((0, 5)) == pytest.approx(1.0 / math.sqrt(5.0))


def test_adjoint_duality_random_pairs():
    rng = random.Random(101)
    scenarios = [
        (EX52, TQB, Window((0, 0), 2, 2)),
        (ConstantWeights(1.0), ZP, Window(0, 3, 3)),
        (TkinfIsometricWeights(3), TkInfKernel(3), Window((0, 0), 2, 2)),
    ]
    for ws, kernel, window in scenarios:
        for _ in range(50):
            f = random_vector(kernel, window, rng)
            g = random_vector(kernel, window, rng)
            lhs = inner(apply_shift(ws, kernel, f), g)
            rhs = inner(f, apply_adjoint(ws, kernel, g))
            assert lhs == pytest.approx(rhs, abs=1e-12, rel=1e-12)


def test_power_matches_iteration_and_norms():
    f = SparseVector({(0, 1): 1.0, (1, 3): -0.5})
    step = f
    for n in range(4):
        assert apply_power(EX52, TQB, f, n).entries == step.entries
        step = apply_shift(EX52, TQB, step)
    for v in [(0, 4), (1, 1), (2, -3)]:
        for k in range(4):
            got = apply_power(EX52, TQB, SparseVector.basis(v), k).norm_sq()
            assert got == pytest.approx(shift_norm_sq(EX52, TQB, v, k), rel=1e-12)
    with pytest.raises(ValueError):
        apply_power(EX52, TQB, f, -1)


# ---------------------------------------------------------------------------
# defect diagonals


def test_defect_matches_path_oracle():
    rng = random.Random(202)
    scenarios = [(EX52, TQB), (TkinfIsometricWeights(2), TkInfKernel(2))]
    for ws, kernel in scenarios:
        verts = window_vertices(kernel, Window(kernel.default_base(), 2, 2))
        for _ in range(30):
            v = rng.choice(verts)
            m = rng.randint(1, 4)
            expect = math.fsum(
                (-1.0 if k % 2 else 1.0) * math.comb(m, k)
                * norm_sq_by_paths(ws, kernel, v, k)
                for k in range(m + 1))
            assert defect_diagonal(ws, kernel, v, m) == pytest.approx(
                expect, abs=1e-10)


def binomial_defect(ws, kernel, v, m):
    """d_m(v) as the alternating binomial combination of m + 1 separate
    `shift_norm_sq` walks, each from v."""
    return math.fsum([(-1.0 if k % 2 else 1.0) * math.comb(m, k) * shift_norm_sq(ws, kernel, v, k)
                      for k in range(m + 1)])


def wavy(v):
    """A positive weight that differs from vertex to vertex."""
    x, y = v if isinstance(v, tuple) else (v, 0)
    return 1.0 + 0.25 * math.sin(1.3 * x + 0.7 * y)


# (weight system, kernel) per case; each walks the window of depth 2 and 2
# around the kernel's default base
DEFECT_CASES = {
    **{f"tkinf-{k}-{name}": (ws, TkInfKernel(k))
       for k in range(2, 6)
       for name, ws in (("isometric", TkinfIsometricWeights(k)),
                        ("wavy", FunctionWeights(wavy)))},
    "tqb-ex52": (EX52, TQB),
    "tqb-ex52-dual": (cauchy_dual(EX52, TQB), TQB),
    "zpath-wavy": (FunctionWeights(wavy), ZP),
}


@pytest.mark.parametrize("case", DEFECT_CASES)
def test_defect_is_the_binomial_combination_bit_for_bit(case):
    ws, kernel = DEFECT_CASES[case]
    for v in window_vertices(kernel, Window(kernel.default_base(), 2, 2)):
        for m in range(1, 9):
            assert defect_diagonal(ws, kernel, v, m).hex() == binomial_defect(
                ws, kernel, v, m).hex(), (v, m)


@pytest.mark.parametrize("v", [(0, 0), (1, 3), (0, -2)])
def test_defect_charges_each_level_once(v):
    m = 8
    with operation() as budget:
        defect_diagonal(EX52, TQB, v, m)
    # levels 1..m of the one walk down from v; the m separate walks of the
    # binomial combination charge level j once for each k >= j
    assert budget.used == sum(len(child_n(TQB, v, k)) for k in range(1, m + 1))


def test_defect_order_limits():
    with pytest.raises(ValueError):
        defect_diagonal(EX52, TQB, (0, 0), 0)
    with pytest.raises(ValueError):
        defect_diagonal(EX52, TQB, (0, 0), MAX_DEFECT_ORDER + 1)


def test_ex52_third_defect_law():
    # rays are flat at order three; the spine decays like -2/m
    for v in [(1, 2), (2, 5), (3, -1), (5, 0)]:
        assert abs(defect_diagonal(EX52, TQB, v, 3)) <= 1e-9
    for m in range(4, 40):
        assert defect_diagonal(EX52, TQB, (0, m), 3) == pytest.approx(
            -2.0 / m, abs=1e-9)


def test_classify_labels():
    ex = classify(EX52, TQB, Window((0, 0), 2, 2), 3, tol=1e-9)
    assert ex.label == "3-expansion"
    assert ex.flags["m_expansion"] and not ex.flags["m_isometry"]
    assert "isometry" in ex.witnesses

    iso = classify(ConstantWeights(1.0), ZP, Window(0, 3, 3), 1)
    assert iso.label == "1-isometry"
    assert iso.flags == {"m_expansion": True, "m_concave": True, "m_isometry": True}

    one = classify(ConstantWeights(1.0), TQB, Window((0, 0), 2, 2), 1)
    assert one.label == "1-expansion"

    mixed = classify(ConstantWeights(0.9), TQB, Window((0, 0), 2, 2), 1)
    assert mixed.label == "neither"
    assert "expansion" in mixed.witnesses and "concave" in mixed.witnesses

    # d_1 = 1 - 0.5^2 > 0 at every vertex of the path
    concave = classify(ConstantWeights(0.5), ZP, Window(0, 1, 1), 1)
    assert concave.label == "1-concave"
    assert concave.flags == {"m_expansion": False, "m_concave": True, "m_isometry": False}


def test_defect_report_json():
    rep = classify(EX52, TQB, Window((0, 0), 1, 1), 3, tol=1e-9)
    obj = rep.to_json(TQB)
    assert obj["label"] == rep.label and obj["m"] == 3
    assert all(isinstance(tok, str) for tok, _ in obj["entries"])


# ---------------------------------------------------------------------------
# adjoint kernel and wandering vectors


def test_ker_adjoint_basis_tqb_spine():
    vecs = ker_adjoint_local_basis(EX52, TQB, (0, 5))
    assert len(vecs) == 1
    f = vecs[0]
    a, b = EX52.weight((0, 4)), EX52.weight((1, 5))
    s = math.sqrt(a * a + b * b)
    assert f.get((0, 4)) == pytest.approx(b / s, rel=1e-12)
    assert f.get((1, 5)) == pytest.approx(-a / s, rel=1e-12)
    assert f.norm() == pytest.approx(1.0, rel=1e-12)
    assert len(apply_adjoint(EX52, TQB, f)) == 0


def test_ker_adjoint_basis_branch_vertex():
    k = TkInfKernel(3)
    ws = TkinfIsometricWeights(3)
    vecs = ker_adjoint_local_basis(ws, k, (0, 0))
    assert len(vecs) == 2
    for i, f in enumerate(vecs):
        assert len(apply_adjoint(ws, k, f)) == 0
        assert f.norm() == pytest.approx(1.0, rel=1e-12)
        for g in vecs[i + 1:]:
            assert inner(f, g) == pytest.approx(0.0, abs=1e-12)


def test_ker_adjoint_empty_on_rays():
    assert ker_adjoint_local_basis(EX52, TQB, (2, 3)) == []
    assert ker_adjoint_local_basis(ConstantWeights(1.0), ZP, 0) == []


def test_wandering_check_isometric_tree():
    k = TkInfKernel(3)
    rep = wandering_orthogonality_check(TkinfIsometricWeights(3), k,
                                        Window((0, 0), 2, 2), n_max=3)
    assert rep.verdict == "pass"
    assert rep.max_pair_residual <= 1e-10
    assert rep.max_complement_residual <= 1e-10
    assert rep.vector_count > 0
    assert rep.to_json() == {"verdict": "pass", "max_pair_residual": rep.max_pair_residual,
                             "max_complement_residual": rep.max_complement_residual,
                             "vector_count": rep.vector_count, "n_max": 3, "tol": 1e-10,
                             "note": ""}


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_wandering_check_fails_closed_on_non_finite_weights(c):
    # every one-step norm is NaN or infinite, so balancedness, the check's
    # hypothesis, fails first and no residual is computed
    k = TkInfKernel(2)
    rep = wandering_orthogonality_check(ConstantWeights(float(c)), k,
                                        Window((0, 0), 1, 1), n_max=2)
    assert rep.verdict == "precondition_violation" and rep.vector_count == 0
    assert math.isnan(rep.max_pair_residual) and math.isnan(rep.max_complement_residual)
    assert rep.witness is not None


class NanBelow(ConstantWeights):
    """The constant weight above tkinf level 3, NaN from level 3 on."""

    def weight(self, v):
        return math.nan if v[0] >= 3 else self.c

    def log_weight(self, v):
        return math.log(self.weight(v))


def test_wandering_residuals_keep_a_nan_below_a_balanced_window():
    # the window's norms read levels up to 2 and are balanced; the second
    # shifts reach level 3 and keep its NaN entries, and a NaN complement
    # residual wins its running maximum and fails the verdict
    rep = wandering_orthogonality_check(NanBelow(1.0), TkInfKernel(2),
                                        Window((0, 0), 1, 1), n_max=2)
    assert rep.verdict == "fail" and rep.vector_count == 3
    assert rep.max_pair_residual == 0.0 and math.isnan(rep.max_complement_residual)


def test_wandering_check_requires_balanced():
    rep = wandering_orthogonality_check(EX52, TQB, Window((0, 0), 2, 2))
    assert rep.verdict == "precondition_violation"
    assert math.isnan(rep.max_pair_residual)
    assert rep.witness is not None
    assert "not balanced" in rep.note
