"""Acceptance suite: nine criteria, one test (and one pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines, or
add `-s` to also see the [PASS] summaries with pinned tolerances.  Expected
values come from independent oracles: bare weight-product path sums, direct
series summation with arctan integral brackets, and definitional shell
enumeration.
"""

from __future__ import annotations

import json
import math
import random
import time

from woldlab.cli import main
from woldlab.operator import (SparseVector, apply_adjoint, apply_power,
                              apply_shift, classify, defect_diagonal, inner,
                              wandering_orthogonality_check)
from woldlab.series import alpha_partial, alpha_verdict, g_vector, generation_stream, \
    hyperrange_recurrence_check
from woldlab.tree_core import (BilateralPath, TkInfKernel, TqbKernel, Window,
                               ZPathKernel, child_n, enum_A, par_n,
                               window_vertices)
from woldlab.weights import (ConstantWeights, TkinfIsometricWeights,
                             cauchy_dual, ex52_weights, shift_norm_sq)
from woldlab.wold import wold_verdict

from oracles import enum_A_definitional

TQB = TqbKernel()
ZP = ZPathKernel()
EX52 = ex52_weights()


def p(x: float) -> float:
    return 1.0 + x + x * x


def rel_close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def paths_norm_sq(ws, kernel, v, k):
    """Independent oracle: sum bare weight products over Chi^k(v)."""
    total = 0.0
    for u in child_n(kernel, v, k):
        prod = 1.0
        x = u
        for _ in range(k):
            prod *= ws.weight(x)
            x = kernel.parent(x)
        total += prod * prod
    return total


def inverse_quadratic_tail(n_from: float) -> float:
    s = math.sqrt(3.0)
    return (2.0 / s) * math.atan2(s, 2.0 * n_from - 1.0)


# ---------------------------------------------------------------------------


def test_criterion_1_norm_closed_forms():
    t0 = time.perf_counter()
    tol = 1e-12
    for m in range(-5, 11):
        want = 1.0 if m >= 2 else 2.0
        assert rel_close(shift_norm_sq(EX52, TQB, (0, m)), want, tol)
    for n in range(1, 51):
        for k in range(0, 6):
            for m in range(-20, 21):
                want = p(n + k - 1) / p(n - 1)
                assert rel_close(shift_norm_sq(EX52, TQB, (n, m), k), want, tol)
    # spine powers against the bare path-product oracle
    for m in range(-5, 11):
        for k in (2, 3):
            want = paths_norm_sq(EX52, TQB, (0, m), k)
            assert rel_close(shift_norm_sq(EX52, TQB, (0, m), k), want, tol)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 1: norm closed forms, rel tol 1e-12 ({elapsed:.2f}s)")


def test_criterion_2_dual_closed_forms():
    t0 = time.perf_counter()
    tol = 1e-12
    dual = cauchy_dual(EX52, TQB)
    for m in range(-5, 11):
        want = math.sqrt(m / (m + 1.0)) if m >= 1 else 0.5
        assert rel_close(dual.weight((0, m)), want, tol)
        want1 = 1.0 / math.sqrt(m) if m >= 2 else 0.5
        assert rel_close(dual.weight((1, m)), want1, tol)
    for n in range(2, 51):
        for m in range(-20, 21):
            want = math.sqrt(p(n - 2) / p(n - 1))
            assert rel_close(dual.weight((n, m)), want, tol)
    dual2 = cauchy_dual(dual, TQB)
    for v in window_vertices(TQB, Window((0, 0), 3, 3)):
        assert rel_close(dual2.weight(v), EX52.weight(v), tol)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"[PASS] criterion 2: dual closed forms and involution, rel tol 1e-12 "
          f"({elapsed:.2f}s)")


def test_criterion_3_third_defect():
    t0 = time.perf_counter()
    rep = classify(EX52, TQB, Window((0, 0), 2, 2), 3, tol=1e-9)
    assert rep.label == "3-expansion"
    assert all(d <= 1e-9 for d in rep.entries.values())
    for n in (1, 2, 3, 10):
        for m in range(-20, 21, 5):
            assert abs(defect_diagonal(EX52, TQB, (n, m), 3)) <= 1e-9
    for m in range(4, 101):
        assert abs(defect_diagonal(EX52, TQB, (0, m), 3) + 2.0 / m) <= 1e-9
    one = classify(EX52, TQB, Window((0, 0), 2, 2), 1, tol=1e-9)
    assert one.label == "1-expansion"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[PASS] criterion 3: third defect law and classification, tol 1e-9 "
          f"({elapsed:.2f}s)")


def test_criterion_4_series_behavior():
    t0 = time.perf_counter()
    part = alpha_partial(EX52, TQB, (0, 0), 500)
    crossing = next(n for n, s in enumerate(part.partials) if s > 1e3)
    assert crossing <= 500
    verdict = alpha_verdict(EX52, TQB, (0, 0))
    assert verdict.kind == "diverged"

    dual = cauchy_dual(EX52, TQB)
    base = alpha_verdict(dual, TQB, (0, 0))
    assert base.kind == "converged" and base.n_used <= 10_000
    assert base.tail_bound <= 1e-6
    # independent oracle: direct summation of 2 + sum 4/(n^2-n+1), arctan bracket
    n0 = 100_000
    s = math.fsum(4.0 / (n * n - n + 1.0) for n in range(2, n0 + 1))
    lo = 2.0 + s + 4.0 * inverse_quadratic_tail(n0 + 1.0)
    hi = 2.0 + s + 4.0 * inverse_quadratic_tail(float(n0))
    assert lo - base.tail_bound <= base.value <= hi + base.tail_bound

    up = alpha_verdict(dual, TQB, (0, 1))
    majorant = math.fsum(2.0 / (2.0 + (n - 1.0) ** 2) for n in range(1, 2001))
    majorant += 2.0 * math.atan2(math.sqrt(2.0), 2000.0) / math.sqrt(2.0)
    assert up.value - 1.0 <= majorant
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    print(f"[PASS] criterion 4: partials cross 1e3 at N={crossing}, dual value in "
          f"oracle bracket, tail <= 1e-6 ({elapsed:.2f}s)")


def test_criterion_5_wold_scenarios():
    t0 = time.perf_counter()
    no = wold_verdict(EX52, TQB, Window((0, 0), 2, 2))
    assert no.outcome == "NoWold" and no.definitive
    two = wold_verdict(ConstantWeights(1.0), ZP, Window(0, 2, 2))
    assert two.outcome == "HasWold_case_ii" and two.definitive
    one = wold_verdict(ConstantWeights(1.0), TQB, Window((0, 0), 2, 2))
    assert one.outcome == "HasWold_case_i" and one.definitive
    dual = cauchy_dual(ConstantWeights(1.0), TQB)
    for n, t, _, _ in generation_stream(dual, TQB, (0, 0)):
        if n > 20:
            break
        if n >= 1:
            assert rel_close(t, 4.0 ** (n - 1), 1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("[PASS] criterion 5: NoWold / case (ii) / case (i) all definitive; "
          f"dual terms 4^(n-1) to 1e-12 ({elapsed:.2f}s)")


def test_criterion_6_shell_calculus():
    t0 = time.perf_counter()
    rng = random.Random(606)
    kernels = [ZP, TQB, TkInfKernel(3)]

    def sample(kernel):
        if isinstance(kernel, ZPathKernel):
            return rng.randint(-30, 30)
        if isinstance(kernel, TqbKernel):
            return (rng.randint(0, 6), rng.randint(-12, 12))
        m = rng.randint(-8, 8)
        return (m, 0) if m <= 0 else (m, rng.randint(1, 3))

    for kernel in kernels:
        for _ in range(200):
            v = sample(kernel)
            n = rng.randint(1, 5)
            shells = {j: set(enum_A(kernel, v, j)) for j in range(0, n + 2)}
            # (i) pairwise disjoint
            flat = [u for s in shells.values() for u in s]
            assert len(flat) == len(set(flat))
            # recursion route equals the definitional oracle exactly
            for j in range(0, n + 2):
                assert shells[j] == set(enum_A_definitional(kernel, v, j))
            parent = kernel.parent(v)
            # (iii) children of the parent's shell fill the next shell
            pushed = set()
            for u in enum_A(kernel, parent, n):
                pushed.update(kernel.children(u))
            assert pushed == shells[n + 1]
            # (iv) parents of a shell land in the parent's previous shell
            pulled = {kernel.parent(u) for u in shells[n]}
            assert pulled <= set(enum_A(kernel, parent, n - 1)) | {parent}
            # (v) iterated-neighborhood nesting
            inner_set = set(child_n(kernel, par_n(kernel, v, n), n))
            outer_set = set(child_n(kernel, par_n(kernel, v, n + 1), n + 1))
            assert inner_set <= outer_set
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"[PASS] criterion 6: shell calculus on 200 instances per tree, exact "
          f"({elapsed:.2f}s)")


def test_criterion_7_isometric_ladder():
    t0 = time.perf_counter()
    for k in (2, 3):
        kernel = TkInfKernel(k)
        ws = TkinfIsometricWeights(k)
        path = BilateralPath(kernel, (0, 0))
        gs = {m: g_vector(ws, kernel, path, m, 8) for m in range(-4, 5)}
        for m in range(-3, 4):
            rec = hyperrange_recurrence_check(ws, kernel, gs[m], gs[m + 1])
            assert rec.residual <= 1e-10 + rec.tail_allowance
        for m in range(-3, 4):
            for m2 in range(m + 1, 4):
                assert abs(inner(gs[m].vector, gs[m2].vector)) <= 1e-10
        for m in range(-3, 4):
            c = math.sqrt(k) if m == 1 else 1.0
            back = apply_adjoint(ws, kernel, gs[m].vector)
            assert back.add(gs[m - 1].vector, -c).norm() <= 1e-10
        wan = wandering_orthogonality_check(ws, kernel, Window((0, 0), 2, 2),
                                            n_max=4, tol=1e-10)
        assert wan.verdict == "pass"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print("[PASS] criterion 7: isometric ladder (recurrence, adjoint constants, "
          f"wandering Gram) on k=2,3, tol 1e-10 ({elapsed:.2f}s)")


def test_criterion_8_adjoint_and_defect_oracles():
    t0 = time.perf_counter()
    rng = random.Random(808)
    scenarios = [
        (EX52, TQB, Window((0, 0), 2, 2)),
        (ConstantWeights(1.0), ZP, Window(0, 3, 3)),
        (TkinfIsometricWeights(3), TkInfKernel(3), Window((0, 0), 2, 2)),
    ]

    def rand_vec(kernel, verts):
        picked = rng.sample(verts, min(6, len(verts)))
        return SparseVector({v: rng.uniform(-1.0, 1.0) for v in picked})

    for ws, kernel, window in scenarios:
        verts = window_vertices(kernel, window)
        for _ in range(500):
            f, g = rand_vec(kernel, verts), rand_vec(kernel, verts)
            lhs = inner(apply_shift(ws, kernel, f), g)
            rhs = inner(f, apply_adjoint(ws, kernel, g))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))

    pool = [(EX52, TQB), (TkinfIsometricWeights(2), TkInfKernel(2))]
    for _ in range(100):
        ws, kernel = pool[rng.randrange(2)]
        verts = window_vertices(kernel, Window(kernel.default_base(), 2, 2))
        v = rng.choice(verts)
        m = rng.randint(1, 4)
        oracle = math.fsum((-1.0 if j % 2 else 1.0) * math.comb(m, j)
                           * paths_norm_sq(ws, kernel, v, j)
                           for j in range(m + 1))
        assert abs(defect_diagonal(ws, kernel, v, m) - oracle) <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0
    print("[PASS] criterion 8: adjoint duality on 1500 pairs (1e-12 rel), defect "
          f"vs path oracle on 100 draws (1e-10) ({elapsed:.2f}s)")


def test_criterion_9_deterministic_output(tmp_path, capsys):
    t0 = time.perf_counter()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["wold", "--vertex", "0,0", "--out", str(a)]) == 0
    assert main(["wold", "--vertex", "0,0", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    obj = json.loads(a.read_text())
    assert obj["verdict"] == "NoWold"
    elapsed = time.perf_counter() - t0
    print(f"[PASS] criterion 9: byte-identical verdict JSON across runs "
          f"({elapsed:.2f}s)")
