"""Series terms, convergence verdicts and hyper-range vectors."""

from __future__ import annotations

import gc
import math
import random
import sys
import weakref
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from woldlab.cli import TamperedWeights
from woldlab.errors import (DegenerateNormError, DivergentSeriesError,
                            ResourceCapError, UndecidedSeriesError)
from woldlab.numerics import NeumaierSum, quadratic_tail_integral, quadratic_tail_sum
from woldlab.operator import inner
from woldlab.series import (ANALYTIC_TERMS, DELTA, TAIL_RULES, TERM_FLOOR, WINDOW,
                            SeriesConfig, SeriesVerdict, _plugin_constant,
                            _plugin_prop51, _tail_floor, _tail_geometric,
                            _tail_growth, _tail_undecided,
                            alpha_partial, alpha_verdict, g_vector,
                            generation_stream, hyperrange_recurrence_check)
from woldlab import series
from woldlab.tree_core import (Budget, TkInfKernel, TqbKernel, Window, ZPathKernel,
                               descend, load_adjacency, operation, par_n, shell,
                               window_vertices)
from woldlab.weights import (ConstantWeights, FunctionWeights, PolyRule,
                             Prop51Weights, TkinfIsometricWeights, cauchy_dual,
                             ex52_weights, shift_norm_sq)

from oracles import (built_generations, enum_A_definitional, moment_log,
                     prop51_tqb_exact_terms)

TQB = TqbKernel()
EX52 = ex52_weights()
DUAL = cauchy_dual(EX52, TQB)
EPS = sys.float_info.epsilon


def first_terms(ws, kernel, v, upto):
    out = []
    for n, t, _, _ in generation_stream(ws, kernel, v):
        if n > upto:
            break
        out.append(t)
    return out


def inverse_quadratic_tail(n_from: float) -> float:
    """Integral of dx / (x^2 - x + 1) from n_from to infinity."""
    s = math.sqrt(3.0)
    return (2.0 / s) * math.atan2(s, 2.0 * n_from - 1.0)


def dual_spine_bracket(scale: float, shift: float, n0: int = 100_000):
    """Enclosure of shift + scale * sum_{n>=2} 1/(n^2-n+1) by direct summation."""
    s = math.fsum(1.0 / (n * n - n + 1.0) for n in range(2, n0 + 1))
    lo = shift + scale * (s + inverse_quadratic_tail(n0 + 1.0))
    hi = shift + scale * (s + inverse_quadratic_tail(float(n0)))
    return lo, hi


# ---------------------------------------------------------------------------
# the term stream


STREAM_CASES = [
    (TQB, EX52, [(0, 0), (0, 4), (2, 5)]),
    (TkInfKernel(3), TkinfIsometricWeights(3), [(0, 0), (2, 1), (-3, 0)]),
    (ZPathKernel(), ConstantWeights(2.0), [0, -5]),
]


def test_stream_matches_shells_and_moments():
    # the production stream against the definitional oracle, member by member
    for kernel, ws, vertices in STREAM_CASES:
        for v in vertices:
            for n, _, base_log, members in islice(generation_stream(ws, kernel, v), 7):
                assert tuple(u for u, _ in members) == enum_A_definitional(kernel, v, n)
                for u, acc in members:
                    rel = acc - base_log
                    expect = moment_log(ws, kernel, u, n) - moment_log(ws, kernel, v, n)
                    assert rel == pytest.approx(expect, abs=1e-12)


# every case moves the base log moment off 0 from generation 2 on, so a
# term that dropped it would differ; the last one's first shell overflows
IN_PLACE_CASES = {
    "ex52": (EX52, (0, 0)),
    "ex52-branch": (EX52, (2, 5)),
    "dual": (DUAL, (0, 0)),
    "constant": (ConstantWeights(3.0), (1, 2)),
    "overflow": (FunctionWeights(lambda v: 1e200 if v[0] >= 1 else 0.5, name="big"), (0, 0)),
}


@pytest.mark.parametrize("case", IN_PLACE_CASES)
def test_alpha_terms_sum_the_stream_entries_in_place(case):
    ws, v = IN_PLACE_CASES[case]
    with operation():
        expected = []
        for _, _, base_log, members in islice(generation_stream(ws, TQB, v), 12):
            total = 0.0
            for _, acc in members:
                rel_log = acc - base_log
                total += math.inf if 2.0 * rel_log > 700.0 else math.exp(2.0 * rel_log)
            expected.append(total)
        got = [t for _, t, _, _ in islice(generation_stream(ws, TQB, v), 12)]
    assert [t.hex() for t in got] == [t.hex() for t in expected]
    assert (math.inf in got) == (case == "overflow")


def test_ex52_primal_terms_follow_the_quadratic():
    terms = first_terms(EX52, TQB, (0, 0), 20)
    assert terms[0] == 1.0
    for n in range(1, 21):
        assert terms[n] == pytest.approx(n * n - n + 1.0, rel=1e-12)


def test_ex52_dual_terms_on_the_spine():
    terms = first_terms(DUAL, TQB, (0, 0), 20)
    assert terms[0] == 1.0
    assert terms[1] == pytest.approx(1.0, rel=1e-12)
    for n in range(2, 21):
        assert terms[n] == pytest.approx(4.0 / (n * n - n + 1.0), rel=1e-12)


def test_all_ones_dual_terms_quadruple():
    dual = cauchy_dual(ConstantWeights(1.0), TQB)
    terms = first_terms(dual, TQB, (0, 0), 12)
    for n in range(1, 13):
        assert terms[n] == pytest.approx(4.0 ** (n - 1), rel=1e-12)


# (vertex, first l of the exact dual law t_l * p(l - 1) = K, K); p = 1 + x + x^2
EXACT_LAWS = [((0, 0), 2, 4), ((1, -3), 6, 1024), ((0, -4), 6, 1024)]


@pytest.mark.parametrize("v, law_from, K", EXACT_LAWS, ids=["0,0", "1,-3", "0,-4"])
def test_ex52_terms_are_the_exact_oracles_within_rounding(v, law_from, K):
    N = 60
    for dual in (False, True):
        exact = prop51_tqb_exact_terms(EX52.a, EX52.b, v, N, dual)
        with operation():
            ws = cauchy_dual(EX52, TQB) if dual else EX52
            got = first_terms(ws, TQB, v, N)
        # n log weights summed in log space, then exp: about n rounding errors
        # (the worst seen is 1.8 n eps)
        for n, (t, e) in enumerate(zip(got, exact)):
            assert abs(Fraction(t) - e) <= 8 * max(n, 1) * EPS * e, (dual, n)
    laws = [t * (1 + (l - 1) + (l - 1) ** 2) for l, t in enumerate(exact)]
    assert laws[law_from:] == [K] * (N + 1 - law_from) and laws[law_from - 1] != K


def scaled_ex52(c):
    """ex52 with every weight scaled by c, as a function: no ray rows."""
    return FunctionWeights(lambda v: c * EX52.weight(v), name="ex52-scaled")


@pytest.mark.parametrize("dual", [False, True], ids=["primal", "dual"])
@pytest.mark.parametrize("c", [0.37, 3.0])
def test_terms_are_invariant_under_scaling_the_weights(c, dual):
    # a term is a ratio of moments of equal order, so lambda -> c lambda
    # leaves it as it is; the dual of c lambda is the dual of lambda over c
    N = 80
    for v in ((0, 0), (2, -3), (0, 5)):
        with operation():
            ws, ref = scaled_ex52(c), EX52
            if dual:
                ws, ref = cauchy_dual(ws, TQB), cauchy_dual(ref, TQB)
            got, want = first_terms(ws, TQB, v, N), first_terms(ref, TQB, v, N)
        assert len(got) == N + 1
        for n, (t, e) in enumerate(zip(got, want)):
            assert abs(t - e) <= 8 * max(n, 1) * EPS * e, (v, n)


@pytest.mark.parametrize("v", [(0, 0), (1, 2)])
def test_the_dual_of_the_dual_has_the_primal_terms(v):
    # the Cauchy dual is an involution: lambda'' = lambda
    N = 60
    with operation():
        primal = FunctionWeights(EX52.weight, name="wrapped")
        twice = cauchy_dual(cauchy_dual(primal, TQB), TQB)
        got, want = first_terms(twice, TQB, v, N), first_terms(primal, TQB, v, N)
    assert len(got) == N + 1
    for n, (t, e) in enumerate(zip(got, want)):
        assert abs(t - e) <= 8 * max(n, 1) * EPS * e, n


# coefficients k / 4: exact in binary, so the oracle reads the rules' own values
QUARTERS = st.integers(1, 16).map(lambda k: k / 4)
POLY_RULES = st.builds(PolyRule, QUARTERS,
                       st.dictionaries(st.integers(-6, 8), QUARTERS, max_size=3))
ORACLE_N = 20


# an example takes about 0.1 s of exact arithmetic, so a failure is
# reported as drawn, without the minutes a shrink would take
@settings(max_examples=25, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(a=POLY_RULES, b=POLY_RULES,
       v=st.tuples(st.integers(0, 5), st.integers(-5, 5)))
@example(a=PolyRule(0.5, {2: 3.0}), b=PolyRule(1.25), v=(5, 1))
def test_random_prop51_terms_are_the_exact_oracles_within_rounding(a, b, v):
    # one operation: par(v) first, so v's stream descends from the rungs it
    # leaves, then par^2(v), whose misses meet rungs above their own n; the
    # primal and its dual take their up-steps from memos of their own.  From
    # (n, m) with n >= 4, par(v) walks a shell from the spine vertex
    # (0, m - 1) down two levels or more: the ray call that branches at once
    # and the level loop after it
    order = [TQB.parent(v), v, TQB.parent(TQB.parent(v))]
    got = {}
    with operation():
        primal = Prop51Weights(a, b)
        dual = cauchy_dual(primal, TQB)
        for u in order:
            for ws in (primal, dual):
                got[u, ws is dual] = first_terms(ws, TQB, u, ORACLE_N)
    for (u, is_dual), terms in got.items():
        exact = prop51_tqb_exact_terms(a, b, u, ORACLE_N, is_dual)
        for n, (t, e) in enumerate(zip(terms, exact)):
            assert abs(Fraction(t) - e) <= 8 * max(n, 1) * EPS * e, (u, is_dual, n)


# an example takes about 0.2 s of exact arithmetic, mostly the dual's 60
# generations
@settings(max_examples=10, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(a=POLY_RULES, b=POLY_RULES,
       v=st.tuples(st.integers(0, 5), st.integers(-5, 5)))
@example(a=PolyRule(1.0), b=PolyRule(1.0), v=(0, 0))
def test_prop51_plugins_fit_the_exact_k(a, b, v):
    # the primal law is t_l / p(l - 1) = K and the dual's t_l * p(l - 1) = K,
    # with p = p_mu and mu = m0 + l - n0, over the generations the fit reads
    n0, m0 = v

    def p(l):
        mu, x = m0 + l - n0, l - 1
        return 1 + Fraction(a(mu)) * x + Fraction(b(mu)) * x * x

    for dual in (False, True):
        with operation():
            root = Prop51Weights(a, b)
            out = _plugin_prop51(cauchy_dual(root, TQB) if dual else root, TQB, v)
        upto = max(60 if dual else 40, n0 + 24)
        exact = prop51_tqb_exact_terms(a, b, v, upto, dual)
        laws = {exact[l] * p(l) if dual else exact[l] / p(l)
                for l in range(max(n0 + 1, upto - 16), upto + 1)}
        assert len(laws) == 1, dual        # the law holds exactly there
        k_exact = laws.pop()
        # each fitted term is within 8 l eps of its exact value (the oracle
        # tests' bound), p(l - 1) is exact in binary for coefficients k / 4,
        # and the product and the mean add a few ulps (worst seen 38.5 eps)
        tol = (8 * upto + 4) * EPS
        assert out is not None and out.method == "analytic", dual
        assert abs(Fraction(out.evidence["K"]) - k_exact) <= tol * k_exact, dual


def test_partials_cross_a_thousand_at_fifteen():
    part = alpha_partial(EX52, TQB, (0, 0), 20)
    assert part.partials[14] <= 1000.0 < part.partials[15]
    assert len(part.to_rows()) == 21
    with pytest.raises(ValueError):
        alpha_partial(EX52, TQB, (0, 0), -1)


# ---------------------------------------------------------------------------
# the shell memo


# same-generation groups on tqb: (n, m) and (n', m') share par^k for every
# k >= max(n, n') exactly when m - n = m' - n'
MEMO_GROUPS = [[(0, 0), (1, 1), (2, 2)], [(0, -4), (1, -3), (2, -2)]]
MEMO_DEPTH = 30


def fresh_system(kind):
    primal = ex52_weights()
    return primal if kind == "primal" else cauchy_dual(primal, TQB)


def stream_terms(kind, v, upto):
    """Terms straight from a fresh stream on fresh objects: nothing shared."""
    return [t for _, t, _, _ in islice(generation_stream(fresh_system(kind), TQB, v), upto)]


REFERENCE_TERMS = {(kind, v): stream_terms(kind, v, MEMO_DEPTH)
                   for kind in ("primal", "dual") for group in MEMO_GROUPS for v in group}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["primal", "dual"]),
       group=st.sampled_from(MEMO_GROUPS),
       data=st.data(),
       schedule=st.lists(st.integers(0, 2), min_size=1, max_size=3 * MEMO_DEPTH))
def test_interleaved_term_iterators_share_the_memo_exactly(kind, group, data, schedule):
    # iterators over same-generation bases interleave on one weight system,
    # so each reads shells the others walked
    bases = data.draw(st.lists(st.sampled_from(group), min_size=2, max_size=3))
    with operation():           # one operation: one memo for all the iterators
        ws = fresh_system(kind)
        iters = [generation_stream(ws, TQB, v) for v in bases]
        seen = [0] * len(bases)
        for pick in schedule:
            i = pick % len(bases)
            if seen[i] == MEMO_DEPTH:
                continue
            n, t, _, _ = next(iters[i])
            assert n == seen[i]
            assert t == REFERENCE_TERMS[(kind, bases[i])][n]   # bit-identical
            seen[i] += 1


def test_term_memo_keeps_no_reference_cycle():
    gc.disable()
    try:
        primal = ex52_weights()
        attrs = dict(vars(primal))
        cfg = SeriesConfig(n_max=60, use_plugins=False)
        with operation() as op:
            dual = cauchy_dual(primal, TQB)
            alpha_verdict(dual, TQB, (0, 0))
            alpha_verdict(dual, TQB, (1, 1), cfg)
            alpha_verdict(dual, TQB, (1, 0), cfg)     # climbs the rungs (0, 0) left
            alpha_verdict(primal, TQB, (1, 1), cfg)
            assert all(built_generations(op.memos, ws, TQB) for ws in (primal, dual))
            assert cauchy_dual(primal, TQB) is dual is op.memos["dual", primal, TQB]
        assert vars(primal) == attrs            # the memos died with the operation
        refs = weakref.ref(primal), weakref.ref(dual)
        del primal, dual, op, attrs
        assert refs[0]() is None and refs[1]() is None
    finally:
        gc.enable()


def test_charges_do_not_depend_on_earlier_operations():
    primal = ex52_weights()
    attrs = dict(vars(primal))
    cfg = SeriesConfig(n_max=60, use_plugins=False)
    used = []
    for _ in range(2):
        with operation() as b:
            alpha_verdict(primal, TQB, (0, 0), cfg)
        used.append(b.used)
    assert used[0] == used[1] > 0
    assert vars(primal) == attrs


class CountingTqb(TqbKernel):
    """Counts kernel steps down the tree: a `children` call, or one vertex of
    a `ray` chain, as many steps as the level loop makes `children` calls."""

    def __init__(self):
        self.steps = 0
        self.parent_calls = 0

    def children(self, v):
        self.steps += 1
        return super().children(v)

    def ray(self, u, depth):
        chain = super().ray(u, depth)
        if chain is not None:
            self.steps += chain.stop - chain.start
        return chain

    def parent(self, v):
        self.parent_calls += 1
        return super().parent(v)


def test_stream_takes_one_parent_step_per_generation():
    k = CountingTqb()
    list(islice(generation_stream(ex52_weights(), k, (0, 0)), 41))
    assert k.parent_calls == 40


def test_streams_through_one_top_take_its_up_step_once():
    k = CountingTqb()
    with operation():
        ws = ex52_weights()
        for v in ((0, 1), (0, 0), (1, 1)):
            list(islice(generation_stream(ws, k, v), 41))
    # tops (0, 1) ... (0, 40), then (0, 0), then (1, 1): one parent step each
    assert k.parent_calls == 42


def test_generations_before_build_from_are_skipped_not_zero():
    with operation() as op:
        terms = [t for _, t, _, _ in islice(generation_stream(EX52, TQB, (0, 0), 5), 9)]
        built = sorted(built_generations(op.memos, EX52, TQB))
        assert op.used == 4 + sum(range(5, 9))    # a miss and n vertices per built shell
    assert terms[:5] == [None] * 5
    assert [t.hex() for t in terms[5:]] == [t.hex() for t in first_terms(EX52, TQB, (0, 0), 8)[5:]]
    assert built == [5, 6, 7, 8]


@pytest.mark.parametrize("v, lo, upto", [((0, 0), 24, 40), ((30, 2), 38, 54)])
def test_primal_plugin_builds_only_the_shells_it_fits(v, lo, upto):
    with operation() as op:
        out = _plugin_prop51(EX52, TQB, v)
        built = sorted(built_generations(op.memos, EX52, TQB))
    assert out.evidence["sampled_upto"] == upto
    assert built == list(range(lo, upto + 1))


@pytest.mark.parametrize("layers", [0, 1])
@pytest.mark.parametrize("v, upto", [((0, 0), 30), ((30, 2), 42)])
def test_constant_plugin_builds_only_the_shells_past_the_ray_depth(v, upto, layers):
    # both verdicts read the terms past n0 alone, so shells 1..n0 are not built
    with operation() as op:
        ws = ConstantWeights(1.0)
        if layers:
            ws = cauchy_dual(ws, TQB)
        out = _plugin_constant(ws, TQB, v)
        built = sorted(built_generations(op.memos, ws, TQB))
    assert out.kind == "diverged" and out.evidence["sampled_upto"] == upto
    assert built == list(range(v[0] + 1, upto + 1))


def test_memo_hits_are_free_and_dual_misses_charge_their_siblings(monkeypatch):
    charged = []
    real = Budget.charge
    monkeypatch.setattr(Budget, "charge",
                        lambda self, k=1: (charged.append(k), real(self, k)))
    with operation():
        dual = cauchy_dual(ex52_weights(), TQB)
        dual.log_weight((1, 5))
        assert charged == [1]       # (0, 4), the other child of (0, 5)
        verdict = alpha_verdict(dual, TQB, (0, 0))
        charged.clear()
        assert alpha_verdict(dual, TQB, (0, 0)) == verdict
        assert charged == []


def test_partial_then_verdict_enumerates_each_generation_once():
    N = 40
    with operation():
        once = CountingTqb()
        # generations 0..N and not one more: one step per ray vertex,
        # N(N + 1)/2 in all; a dual miss reads its siblings from `siblings`
        list(islice(generation_stream(cauchy_dual(ex52_weights(), once), once, (0, 0)),
                    N + 1))
        assert once.steps == 820
        k = CountingTqb()
        dual = cauchy_dual(ex52_weights(), k)
        table = alpha_partial(dual, k, (0, 0), N)
        verdict = alpha_verdict(dual, k, (0, 0), SeriesConfig(n_max=N, use_plugins=False))
        assert k.steps == once.steps
        assert verdict.n_used == N and len(table.terms) == N + 1


def test_dual_table_charges_each_ray_vertex_once():
    N = 400
    with operation() as budget:
        alpha_partial(cauchy_dual(ex52_weights(), TQB), TQB, (0, 0), N)
    # generation n charges its miss and the n vertices of its ray; each of the
    # N spine misses charges the one sibling the walk did not reach
    assert budget.used == N * (N + 1) // 2 + 2 * N == 81_000


@pytest.mark.parametrize("N", [1, 40, 400])
def test_dual_table_memoizes_only_the_spine_pairs(N):
    with operation():
        dual = cauchy_dual(ex52_weights(), TQB)
        alpha_partial(dual, TQB, (0, 0), N)
    # shell n starts at the pair {(0, n - 1), (1, n)} below (0, n); every
    # other vertex the walk reaches is a lone child on a ray
    assert sorted(dual._log_cache) == sorted(
        v for n in range(1, N + 1) for v in TQB.children((0, n)))
    assert len(dual._log_cache) == 2 * N


def test_same_generation_verdict_walks_only_its_own_shells():
    N = 40
    cfg = SeriesConfig(n_max=N, use_plugins=False)
    k = CountingTqb()
    with operation() as op:
        dual = cauchy_dual(ex52_weights(), k)
        alpha_verdict(dual, k, (0, 0), cfg)
        walked, calls = len(built_generations(op.memos, dual, k)), k.steps
        # par^2 (2, 2) = par^2 (0, 0): only A((2, 2), 1) and A((2, 2), 2) are new
        second = alpha_verdict(dual, k, (2, 2), cfg)
        assert len(built_generations(op.memos, dual, k)) - walked == 2
        assert k.steps - calls == 3
        fresh = cauchy_dual(ex52_weights(), TQB)
        assert second == alpha_verdict(fresh, TQB, (2, 2), cfg)
        assert ([(n, t) for n, t, _, _ in islice(generation_stream(dual, k, (2, 2)), N + 1)]
                == [(n, t) for n, t, _, _ in islice(generation_stream(fresh, TQB, (2, 2)), N + 1)])


def test_stream_raises_on_a_degenerate_ray_norm():
    # spine norms are 2; from n = 3 a ray weight is 1e-7, its norm 1e-14
    dual = cauchy_dual(FunctionWeights(lambda v: 1e-7 if v[0] >= 3 else 1.0), TQB)
    stream = generation_stream(dual, TQB, (0, 0))
    assert [n for n, _, _, _ in islice(stream, 3)] == [0, 1, 2]
    # generation 3 takes the ray (2, 3), (3, 3) below (1, 3) in one call
    with pytest.raises(DegenerateNormError, match=r"norm at \(2, 3\) fell below"):
        next(stream)
    # the lone child (2, 3) passed the guard and is read afresh, not memoized;
    # the memo holds the spine pairs of generations 1 to 3 alone
    norm = shift_norm_sq(dual.primal, TQB, (1, 3))
    assert dual.log_weight((2, 3)).hex() == (
        dual.primal.log_weight((2, 3)) - math.log(norm)).hex()
    assert sorted(dual._log_cache) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (1, 3)]


def bits(base_log, members):
    """A generation's (u, rel_log) pairs, rel_log = acc - base_log in hex."""
    return [(u, (acc - base_log).hex()) for u, acc in members]


def test_parent_stream_leaves_rungs_the_child_descends_from():
    N = 40
    k = CountingTqb()
    with operation():
        dual = cauchy_dual(ex52_weights(), k)
        list(islice(generation_stream(dual, k, (0, 1)), N + 1))
        calls = k.steps
        # par^(n-1)(0, 0) = par^(n-2)(0, 1): generation n descends one level
        # from the stored A((0, 1), n - 1)
        laddered = [bits(b, m) for _, _, b, m in islice(generation_stream(dual, k, (0, 0)), N + 1)]
        assert k.steps - calls == 40       # a fresh walk makes 820
        fresh = cauchy_dual(ex52_weights(), TQB)
        assert laddered == [bits(b, m) for _, _, b, m in
                            islice(generation_stream(fresh, TQB, (0, 0)), N + 1)]


# ---------------------------------------------------------------------------
# the stream's misses against the walker they bypass


def file_tree(depth: int) -> str:
    """A small file tree: below the boundary root r, vertex w has one to
    three children, named w0, w1, ..., by its name's code points and length,
    and the vertices `depth` levels down are boundary leaves."""
    lines, level = [], ["r"]
    for _ in range(depth):
        nxt = []
        for w in level:
            kids = [f"{w}{i}" for i in range(1 + (sum(map(ord, w)) + len(w)) % 3)]
            lines.append(f"{w}: {' '.join(kids)}")
            nxt += kids
        level = nxt
    return "\n".join([f"#boundary: r {' '.join(level)}", *lines])


FILE_DEPTH = 5
FILE_TREE = load_adjacency(file_tree(FILE_DEPTH))
PROP51_TABLE = ("table:0=2,1=3,default=1", "table:-1=2,2=0.5,default=1")


def prop51_table():
    return Prop51Weights(*map(PolyRule.parse, PROP51_TABLE))


def tilted():
    return FunctionWeights(lambda v: 1.0 + abs(v[0]) / 7.0 + v[1] / 10.0, name="tilted")


def name_weights():
    return FunctionWeights(lambda w: 1.0 + (sum(map(ord, w)) % 5) / 4.0, name="by-name")


def tqb_window(rng):
    return Window((rng.randint(0, 3), rng.randint(-3, 3)), rng.randint(1, 3), rng.randint(0, 3))


def tkinf_window(rng):
    base = rng.choice([(rng.randint(-3, 0), 0), (rng.randint(1, 3), rng.randint(1, 3))])
    return Window(base, rng.randint(1, 3), rng.randint(0, 2))


def zpath_window(rng):
    return Window(rng.randint(-5, 5), rng.randint(1, 3), rng.randint(0, 2))


def file_window(rng):
    # the window's last level lies within the tree, its top at r or below
    base = "r"
    for _ in range(rng.randint(2, FILE_DEPTH - 1)):
        base = rng.choice(FILE_TREE.children(base))
    depth = len(base) - 1
    return Window(base, rng.randint(1, depth), rng.randint(0, FILE_DEPTH - depth))


def dual_of(make, kernel):
    return lambda: cauchy_dual(make(), kernel)


# name: (kernel, fresh weight system, window drawn from a seeded rng,
# generations per stream)
MISS_CASES = {
    "tqb-ex52": (TQB, ex52_weights, tqb_window, 24),
    "tqb-ex52-dual": (TQB, dual_of(ex52_weights, TQB), tqb_window, 24),
    "tqb-prop51-table": (TQB, prop51_table, tqb_window, 24),
    "tqb-prop51-table-dual": (TQB, dual_of(prop51_table, TQB), tqb_window, 24),
    "tkinf3": (TkInfKernel(3), tilted, tkinf_window, 12),
    "zpath": (ZPathKernel(), lambda: ConstantWeights(2.0), zpath_window, 8),
    "file": (FILE_TREE, name_weights, file_window, FILE_DEPTH),
}


def generations(kernel, v, N):
    """N, or fewer on a file tree: generation n reads par^n(v), and the
    root r of FILE_TREE has no parent."""
    return min(N, len(v) - 1) if kernel is FILE_TREE else N


def hexed(members):
    return [(u, acc.hex()) for u, acc in members]


def fresh_shell(kernel, make, v, n):
    """A(v, n) from `shell` on a fresh weight system, in an operation of its own."""
    top = par_n(kernel, v, n - 1)
    with operation():
        return hexed(shell(kernel, top, n, make()))


def walk_streams(kernel, ws, vertices, N):
    """Each vertex's stream, one after another, as hexed members per generation."""
    return {v: [hexed(members) for _, _, _, members in
                islice(generation_stream(ws, kernel, v), generations(kernel, v, N) + 1)]
            for v in vertices}


def assert_fresh_shells(kernel, make, walked):
    for v, gens in walked.items():
        assert gens[0] == [(v, "0x0.0p+0")]
        for n in range(1, len(gens)):
            assert gens[n] == fresh_shell(kernel, make, v, n), (v, n)


def record_descents(monkeypatch):
    """(first rung vertex or None, rung width, depth) of each `descend` call a stream makes."""
    calls = []
    real = series.descend

    def descend(kernel, frontier, depth, ws=None):
        calls.append((frontier[0][0] if frontier else None, len(frontier), depth))
        return real(kernel, frontier, depth, ws)

    monkeypatch.setattr(series, "descend", descend)
    return calls


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("case", MISS_CASES)
def test_stream_members_are_fresh_shells_bit_for_bit(case, seed):
    # streams in window order, top first, in one operation: each reads the
    # rungs of the ones before it, folds one-vertex rungs down their rays
    # and leaves the rest to descend
    kernel, make, draw, N = MISS_CASES[case]
    vertices = window_vertices(kernel, draw(random.Random(seed)))
    with operation():
        walked = walk_streams(kernel, make(), vertices, N)
    assert_fresh_shells(kernel, make, walked)


def test_a_rung_on_the_spine_descends_by_the_level_loop(monkeypatch):
    # A((1, 2), 1) = [(0, 1)]: the stream at (2, 2) takes it as its rung for
    # generation 2, and the spine has no ray
    calls = record_descents(monkeypatch)
    make = dual_of(ex52_weights, TQB)
    with operation():
        walked = walk_streams(TQB, make(), [(1, 2), (2, 2)], 8)
    assert ((0, 1), 1, 1) in calls
    assert_fresh_shells(TQB, make, walked)


class NoRayTqb(TqbKernel):
    """tqb without its closed-form rays: every walk takes the level loop."""

    def ray(self, u, depth):
        return None


def test_ray_folds_keep_the_level_loops_floats_and_charges():
    # the stream's folds on tqb against the level loop on a tqb with no ray:
    # members, a norm walked through the same operation, the dual's cache
    # and the charges, bit for bit
    def walk(kernel):
        with operation() as budget:
            dual = cauchy_dual(ex52_weights(), kernel)
            terms = [bits(b, m) for _, _, b, m in
                     islice(generation_stream(dual, kernel, (0, 0)), 30)]
            norm = shift_norm_sq(dual, kernel, (1, 2), 25).hex()
            cache = sorted((v, lw.hex()) for v, lw in dual._log_cache.items())
            return terms, norm, cache, budget.used

    assert walk(TQB) == walk(NoRayTqb())


def test_a_fold_deeper_than_4096_levels_is_the_level_loops_shell(monkeypatch):
    # generation n at (0, 0) folds the ray n - 1 deep below (1, n) as one
    # chain, however deep; only generations 4100 to 4103 are built
    calls = record_descents(monkeypatch)
    make = dual_of(ex52_weights, TQB)
    lo, hi = 4100, 4103
    with operation():
        folded = [hexed(members) for n, _, _, members in
                  islice(generation_stream(make(), TQB, (0, 0), lo), hi + 1) if n >= lo]
    assert calls == []
    assert folded == [fresh_shell(TQB, make, (0, 0), n) for n in range(lo, hi + 1)]


def spy_rays(kernel):
    """`kernel`, its `ray` calls logged in `kernel.rays` as (u, depth, the
    chain's last vertex or None)."""
    real = kernel.ray
    kernel.rays = []

    def ray(u, depth):
        chain = real(u, depth)
        kernel.rays.append((u, depth, chain and chain.last))
        return chain

    kernel.ray = ray
    return kernel


def test_descend_asks_no_ray():
    # one-vertex frontiers on a ray and on the spine, weighted or not, and
    # the shift-power norms that walk through descend
    kernel = spy_rays(TqbKernel())
    for depth in range(1, 26):
        for u in ((1, 0), (0, 0)):
            descend(kernel, [(u, 0.0)], depth)
            descend(kernel, [(u, 0.0)], depth, EX52)
            shift_norm_sq(EX52, kernel, u, depth)
    assert kernel.rays == []


def file_streams():
    """Every vertex of FILE_TREE below r with the generations its stream has."""
    return [(v, len(v) - 1) for v in window_vertices(FILE_TREE, Window("r", 0, FILE_DEPTH))[1:]]


# name: (fresh kernel, weight system on it, [(stream vertex, generations)])
RAY_MISS_CASES = {
    "tqb-rays": (TqbKernel, lambda k: cauchy_dual(ex52_weights(), k), [((0, 0), 24)]),
    # the case of test_a_rung_on_the_spine_descends_by_the_level_loop
    "tqb-spine": (TqbKernel, lambda k: cauchy_dual(ex52_weights(), k),
                  [((1, 2), 8), ((2, 2), 8)]),
    "tkinf2": (lambda: TkInfKernel(2), lambda k: tilted(),
               [((-1, 0), 12), ((0, 0), 12), *(((m, j), 12) for m in range(1, 6) for j in (1, 2))]),
    "file": (lambda: load_adjacency(file_tree(FILE_DEPTH)), lambda k: name_weights(),
             file_streams()),
}


@pytest.mark.parametrize("case", RAY_MISS_CASES)
def test_each_one_vertex_rung_miss_asks_one_ray(monkeypatch, case):
    make_kernel, make_ws, streams = RAY_MISS_CASES[case]
    kernel = spy_rays(make_kernel())
    ws = make_ws(kernel)
    descents = record_descents(monkeypatch)
    with operation() as op:
        for v, N in streams:
            list(islice(generation_stream(ws, kernel, v), N + 1))
        built = built_generations(op.memos, ws, kernel)
    # a miss past generation 1 walks from a rung: one ray for a one-vertex
    # rung, and descend for a wider one or where the ray is None
    walked = sum(n != 1 for n in built)
    assert len(kernel.rays) == walked - sum(width != 1 for _, width, _ in descents)
    assert ([(u, depth) for u, depth, last in kernel.rays if last is None]
            == [(u, depth) for u, width, depth in descents if width == 1])
    if case == "tqb-rays":
        assert kernel.rays == [((1, n), n - 1, (n, n)) for n in range(2, 25)]
    elif case == "tqb-spine":
        assert ((0, 1), 1, None) in kernel.rays
    else:
        assert kernel.rays


def cap_trip(kernel, dual):
    ws = ex52_weights()
    if dual:
        ws = cauchy_dual(ws, kernel)
    with pytest.raises(ResourceCapError) as info:
        for _ in generation_stream(ws, kernel, (0, 0)):
            pass
    return str(info.value)


@pytest.mark.parametrize("dual", [False, True])
def test_a_cap_trips_at_the_level_loops_generation(monkeypatch, dual):
    events = []
    real = Budget.charge

    class LoggingTqb(TqbKernel):
        """tqb that logs the length of each chain its `ray` gives beside
        the budget's charges."""

        def ray(self, u, depth):
            chain = super().ray(u, depth)
            events.append(("ray", chain and chain.stop - chain.start))
            return chain

    def charge(self, k=1):
        events.append(("charge", k))
        real(self, k)

    def fold_trip(cap):
        """The stream's trip text at `cap`, and the chain length of the fold
        whose charge tripped, or None where no fold's charge did."""
        monkeypatch.setenv("WOLDLAB_MAX_VERTICES", str(cap))
        events.clear()
        text = cap_trip(LoggingTqb(), dual)
        *_, asked, tripped = events
        return text, asked[1] if asked == ("ray", tripped[1]) else None

    monkeypatch.setattr(Budget, "charge", charge)
    folds = []
    for cap in range(40, 130):
        text, fold = fold_trip(cap)
        assert text == cap_trip(NoRayTqb(), dual), cap
        folds.append(fold)
    assert any(folds)
    if not dual:
        # generation n charges its miss, its first level and n - 1 ray
        # vertices, 54 in all to generation 9: at cap 64 the fold of
        # generation 10, 9 deep, trips; at cap 60 it asks for 5 vertices,
        # one past the cap, where the level loop trips on its fifth level
        text, fold = fold_trip(64)
        assert "more than 64 vertices while walking generation 10 " in text and fold == 9
        text, fold = fold_trip(60)
        assert "more than 60 vertices while walking generation 10 " in text and fold == 5


# ---------------------------------------------------------------------------
# verdicts: exact structural routes


def test_zpath_series_is_exactly_one():
    out = alpha_verdict(ConstantWeights(3.0), ZPathKernel(), 0)
    assert out.kind == "converged" and out.method == "analytic"
    assert out.value == 1.0
    assert out.evidence["rule"] == "finite-generation"
    assert out.definitive


def test_tkinf_span_route():
    k = TkInfKernel(3)
    out = alpha_verdict(TkinfIsometricWeights(3), k, (1, 2))
    assert out.value == pytest.approx(3.0, abs=1e-14)
    assert out.evidence == {"rule": "finite-generation", "span": 1}
    deep = alpha_verdict(ConstantWeights(1.0), k, (2, 1))
    assert deep.value == pytest.approx(3.0, abs=1e-14)
    assert deep.evidence["span"] == 2


# ---------------------------------------------------------------------------
# verdicts: family plugins


def test_ex52_primal_diverges_analytically():
    for v in [(0, 0), (0, 3), (1, 2), (2, 5), (3, -1)]:
        out = alpha_verdict(EX52, TQB, v)
        assert out.kind == "diverged" and out.method == "analytic"
        assert out.evidence["rule"] == "quadratic-minorant"
        assert out.definitive


def test_ex52_dual_value_at_base():
    out = alpha_verdict(DUAL, TQB, (0, 0))
    assert out.kind == "converged" and out.method == "analytic"
    assert out.evidence["rule"] == "polynomial-tail"
    assert out.tail_bound <= 1e-6
    lo, hi = dual_spine_bracket(4.0, 2.0)
    assert lo - out.tail_bound <= out.value <= hi + out.tail_bound
    assert out.value == pytest.approx(5.192589122417427, abs=1e-6)


def test_ex52_dual_value_one_step_up():
    out = alpha_verdict(DUAL, TQB, (0, 1))
    lo, hi = dual_spine_bracket(1.0, 2.0)
    assert lo - out.tail_bound <= out.value <= hi + out.tail_bound
    assert out.value == pytest.approx(2.798147280604357, abs=1e-6)


def test_ex52_dual_value_at_branch_vertex():
    # generations below (2,5): gap, a 12.0 double shell, then 3/p(l-1) each
    terms = first_terms(DUAL, TQB, (2, 5), 8)
    assert terms[1] == 0.0
    assert terms[2] == pytest.approx(12.0, rel=1e-12)
    for l in range(3, 9):
        assert terms[l] == pytest.approx(3.0 / (l * l - l + 1.0), rel=1e-12)
    out = alpha_verdict(DUAL, TQB, (2, 5))
    assert out.kind == "converged" and out.method == "analytic"
    lo, hi = dual_spine_bracket(3.0, 13.0 - 1.0)  # sum from l>=3 drops the 1/3
    assert lo - out.tail_bound <= out.value <= hi + out.tail_bound
    assert out.value == pytest.approx(14.394441841813073, abs=1e-6)


def test_constant_family_diverges_both_ways():
    ws = ConstantWeights(2.0)
    primal = alpha_verdict(ws, TQB, (0, 0))
    assert primal.kind == "diverged" and primal.evidence["rule"] == "counting"
    dual = alpha_verdict(cauchy_dual(ws, TQB), TQB, (1, 3))
    assert dual.kind == "diverged"
    assert dual.evidence["rule"] == "geometric-growth"
    assert primal.definitive and dual.definitive


def reference_prop51_dual(root, dual, v):
    """The dual prop51 plugin with every closed-form term up to l = n_terms
    taken one by one, by `root.p` and `NeumaierSum.add`, for a fit it
    accepts.  (value, tail_bound, tail_window, K, residual, n_terms,
    allowance), where the allowance K * (R(upto + 1) + R(n_terms)) covers
    the plugin's Euler–Maclaurin block from any start x_s >= upto + 1, since
    R falls as its start grows, and the error bound of this loop's sum is
    added once for each side's rounding."""
    n0, m0 = v
    upto = max(60, n0 + 24)
    terms = first_terms(dual, TQB, v, upto)
    ks = []
    for l in range(max(n0 + 1, upto - 16), upto + 1):
        ks.append(terms[l] * root.p(m0 + l - n0, l - 1))
    k_fit = math.fsum(ks) / len(ks)
    rel_resid = max(abs(k - k_fit) for k in ks) / k_fit
    settled = [s + n0 - m0 + 10 for s in (root.a.settled_after(), root.b.settled_after())
               if s is not None]
    n_terms = max(ANALYTIC_TERMS, upto + 10, *settled)
    acc = NeumaierSum()
    for t in terms:
        acc.add(t)
    for l in range(upto + 1, n_terms + 1):
        acc.add(k_fit / root.p(m0 + l - n0, l - 1))
    a_tail, b_tail = root.a.default, root.b.default
    lower = k_fit * quadratic_tail_integral(a_tail, b_tail, n_terms)
    upper = k_fit * quadratic_tail_integral(a_tail, b_tail, n_terms - 1)
    value = acc.value + 0.5 * (upper + lower)
    tail_bound = 0.5 * (upper - lower) + acc.error_bound + rel_resid * value
    certified = sum(quadratic_tail_sum(a_tail, b_tail, x)[1] for x in (upto + 1, n_terms))
    allowance = k_fit * certified + 2.0 * acc.error_bound
    return value, tail_bound, [lower, upper], k_fit, rel_resid, n_terms, allowance


# the prop51 rule pairs and vertices of the benchmark's analytic workload
A_RULES = ("const:0.5", "const:1", "const:2", "table:0=2,1=3,default=1")
B_RULES = ("const:1", "const:2", "const:3", "table:-1=2,2=0.5,default=1")
PROP51_VERTICES = ((0, 0), (0, 1), (1, 2), (0, -2), (2, -1))
RULE_PAIRS = [(a, b) for a in A_RULES for b in B_RULES]
# a table entry far out in the closed-form tail: b(900) is read at l = 899
RULE_PAIRS.append(("table:0=2,1=3,default=1", "table:-1=2,900=0.5,default=1"))


@pytest.mark.parametrize("a, b", RULE_PAIRS)
def test_dual_prop51_plugin_matches_the_term_by_term_oracle(monkeypatch, a, b):
    root = Prop51Weights(PolyRule.parse(a), PolyRule.parse(b))
    dual = cauchy_dual(root, TQB)
    expected = {v: reference_prop51_dual(root, dual, v) for v in PROP51_VERTICES}
    # the plugin reads the polynomial through p_row only
    monkeypatch.setattr(Prop51Weights, "p", None)
    for v in PROP51_VERTICES:
        out = _plugin_prop51(dual, TQB, v)
        value, tail_bound, window, k_fit, rel_resid, n_terms, allowance = expected[v]
        assert out.kind == "converged" and out.method == "analytic"
        assert out.evidence["K"].hex() == k_fit.hex()
        assert out.evidence["fit_residual"].hex() == rel_resid.hex()
        assert out.evidence["terms"] == out.n_used == n_terms
        assert [x.hex() for x in out.evidence["tail_window"]] == [x.hex() for x in window]
        # the Euler–Maclaurin block moves value and tail_bound only within
        # its certified error and the rounding of the two sums
        assert abs(out.value - value) <= allowance
        assert tail_bound <= out.tail_bound <= tail_bound + allowance


# ---------------------------------------------------------------------------
# verdicts: each plugin premise declines a family it does not describe


def nudged(family, at, *args):
    """`family(*args)` with the weight at `at` scaled by 1 + 1e-6."""
    class Nudged(family):
        def weight(self, v):
            return super().weight(v) * (1.0 + 1e-6 if v == at else 1.0)

        def log_weight(self, v):
            return super().log_weight(v) + (math.log1p(1e-6) if v == at else 0.0)

    return Nudged(*args)


# plugin, family arguments, nudged vertex, Cauchy-dual layer; each nudge sits
# inside the generations the plugin samples from (0,0)
NUDGES = {
    "prop51-primal": (_plugin_prop51, Prop51Weights, (PolyRule(1.0), PolyRule(1.0)),
                      (2, 30), False),
    "prop51-dual": (_plugin_prop51, Prop51Weights, (PolyRule(1.0), PolyRule(1.0)),
                    (2, 50), True),
    "constant-primal": (_plugin_constant, ConstantWeights, (1.0,), (2, 20), False),
    "constant-dual": (_plugin_constant, ConstantWeights, (1.0,), (2, 20), True),
}


@pytest.mark.parametrize("case", NUDGES)
def test_plugin_declines_a_nudged_weight(case):
    plugin, family, args, at, dual = NUDGES[case]
    with operation():
        for ws, accepted in ((family(*args), True), (nudged(family, at, *args), False)):
            if dual:
                ws = cauchy_dual(ws, TQB)
            assert (plugin(ws, TQB, (0, 0)) is not None) == accepted


class BlownProp51(Prop51Weights):
    """Prop. 5.1 weights with ones, and a non-finite log weight at one vertex."""

    def __init__(self, at, log_weight):
        super().__init__(PolyRule(1.0), PolyRule(1.0))
        self.at, self.blown = at, log_weight

    def log_weight(self, v):
        return self.blown if v == self.at else super().log_weight(v)


@pytest.mark.parametrize("blown", [math.nan, math.inf])
@pytest.mark.parametrize("dual, at", [(False, (2, 30)), (True, (2, 50))])
def test_plugin_declines_a_non_finite_fit(blown, dual, at):
    # the blown vertex sits in the generations the fit reads from (0, 0)
    with operation():
        ws = BlownProp51(at, blown)
        if dual:
            ws = cauchy_dual(ws, TQB)
        assert _plugin_prop51(ws, TQB, (0, 0)) is None


def test_a_rejected_primal_plugin_leaves_the_heuristic_every_term():
    N = 60

    def run(use_plugins):
        with operation():
            ws = nudged(Prop51Weights, (2, 30), PolyRule(1.0), PolyRule(1.0))
            verdict = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(N, use_plugins))
            walked = [bits(b, m) for _, _, b, m in islice(generation_stream(ws, TQB, (0, 0)), N + 1)]
        return verdict, walked

    # the plugin built generations 24 to 40 alone; the heuristic after it
    # reads the whole walk, as it does with no plugin tried
    verdict, walked = run(True)
    assert verdict.method == "heuristic"
    assert (verdict, walked) == run(False)


def test_dual_of_a_dual_gets_no_analytic_verdict():
    # the Cauchy dual of the Cauchy dual is the shift itself, so this series
    # is ex52's, which diverges; the plugins' laws cover one dual layer only
    with operation():
        twice = cauchy_dual(cauchy_dual(EX52, TQB), TQB)
        out = alpha_verdict(twice, TQB, (0, 0), SeriesConfig(n_max=300))
    assert not out.definitive


@pytest.mark.parametrize("dual", [False, True])
def test_plugins_decline_the_tamper_control(dual):
    # `repro --tamper`'s weight system wraps ex52 but is no Prop51Weights
    with operation():
        ws = TamperedWeights(ex52_weights())
        if dual:
            ws = cauchy_dual(ws, TQB)
        out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=60))
    assert out.method == "heuristic"


# ---------------------------------------------------------------------------
# verdicts: the sampling heuristic (plugins skip unrecognized families)


def test_heuristic_threshold_divergence():
    ws = FunctionWeights(EX52.weight, name="wrapped")
    out = alpha_verdict(ws, TQB, (0, 0))
    assert out.kind == "diverged" and out.method == "heuristic"
    assert out.evidence["rule"] == "threshold"
    # 1 + sum of n^2 - n + 1 over n = 1..145 is 1,016,306, the first partial
    # sum past the threshold; the term itself stays below it until n = 1000
    assert out.evidence["n"] == 145
    assert out.evidence["partial"] == pytest.approx(1_016_306.0, rel=1e-12)
    assert not out.definitive


def test_heuristic_geometric_tail():
    gamma = 0.5
    ws = FunctionWeights(lambda v: gamma if v[0] >= 1 else 1.0, name="ray-decay")
    out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=200))
    assert out.kind == "converged" and out.method == "heuristic"
    assert out.evidence["rule"] == "geometric-ratio"
    assert out.evidence["ratio"] == pytest.approx(gamma * gamma, rel=1e-6)
    # geometric series: 1 + sum of (gamma^2)^n = 4/3
    assert out.value == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_heuristic_growth_divergence():
    ws = FunctionWeights(lambda v: 1.1 if v[0] >= 1 else 1.0, name="ray-growth")
    out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=60))
    assert out.kind == "diverged" and out.evidence["rule"] == "growth"
    assert out.evidence["ratio"] == pytest.approx(1.21, rel=1e-6)


def test_heuristic_term_floor():
    ws = FunctionWeights(lambda v: 1.0, name="flat")
    out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=300))
    assert out.kind == "diverged" and out.evidence["rule"] == "term-floor"
    assert out.evidence["floor"] == pytest.approx(1.0)


class NoSpanZPath(ZPathKernel):
    def generation_span(self, v):
        return None


@pytest.mark.parametrize("ws, kernel, v, n, value", [
    (ConstantWeights(1.0), NoSpanZPath(), 0, WINDOW, 1.0),
    # terms (1/4)^n underflow to 0.0 past n = 537; without the stop the
    # stream would walk on to n_max and trip the vertex cap
    (FunctionWeights(lambda v: 0.5 if v[0] >= 1 else 1.0, name="ray-decay"),
     TQB, (0, 0), 587, 1.0 / (1.0 - 0.5 ** 2)),
], ids=["zpath-no-span", "tqb-term-underflow"])
def test_heuristic_empty_run(ws, kernel, v, n, value):
    out = alpha_verdict(ws, kernel, v)
    assert out.kind == "converged" and out.method == "heuristic"
    assert out.evidence == {"rule": "empty-run", "run": WINDOW, "n": n}
    assert out.value == value and abs(out.value - value) <= out.tail_bound < 1e-15
    assert not out.definitive


def test_heuristic_overflow():
    ws = FunctionWeights(lambda v: math.exp(400.0) if v[0] >= 1 else 1.0,
                         name="blowup")
    out = alpha_verdict(ws, TQB, (0, 0))
    assert out.kind == "diverged" and out.evidence["rule"] == "overflow"
    assert out.evidence["n"] == 1


def test_heuristic_insufficient_terms():
    ws = FunctionWeights(lambda v: 1.0, name="flat")
    out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=30))
    assert out.kind == "inconclusive"
    assert out.evidence["rule"] == "insufficient-terms"


def test_heuristic_undecided_slow_tail():
    # 1/n^2-like dual terms sit in the dead zone with a sub-floor term size
    ws = FunctionWeights(EX52.weight, name="wrapped")
    out = alpha_verdict(cauchy_dual(ws, TQB), TQB, (0, 0), SeriesConfig(n_max=350))
    assert out.kind == "inconclusive"
    assert out.evidence["rule"] == "undecided"


def test_tail_rules_are_tried_in_order():
    # ratio gamma^2 = 0.9409 lies below the dead zone, and the smallest of
    # the last WINDOW terms is about 0.026 >= TERM_FLOOR: the geometric rule
    # must be asked before the term floor, which would call it divergent
    assert [r.__name__ for r in TAIL_RULES] == [
        "_tail_growth", "_tail_geometric", "_tail_floor", "_tail_undecided"]
    gamma = 0.97
    ws = FunctionWeights(lambda v: gamma if v[0] >= 1 else 1.0, name="ray-decay")
    out = alpha_verdict(ws, TQB, (0, 0), SeriesConfig(n_max=60))
    assert out.kind == "converged" and out.evidence["rule"] == "geometric-ratio"
    assert out.value == 16.92047377326564 == pytest.approx(1.0 / (1.0 - gamma * gamma))
    recent = list(enumerate(first_terms(ws, TQB, (0, 0), 60)))[-WINDOW:]
    floor = _tail_floor((0, 0), None, 0.0, 0.0, recent, 60)
    assert floor.kind == "diverged" and floor.evidence["floor"] == pytest.approx(0.026, rel=0.05)


def summed(*values):
    acc = NeumaierSum()
    acc.extend(values)
    return acc


FLAT = [(n, 0.5) for n in range(11, 11 + WINDOW)]


def test_growth_rule_reads_the_mean_slope():
    out = _tail_growth("v", summed(1.0), math.log(1.21), 0.25, FLAT, 60)
    assert (out.kind, out.method, out.n_used) == ("diverged", "heuristic", 60)
    assert out.evidence == {"rule": "growth", "ratio": math.exp(math.log(1.21)), "sigma": 0.25}
    assert _tail_growth("v", summed(1.0), math.log1p(DELTA) - 1e-9, 0.0, FLAT, 60) is None


def test_geometric_rule_sums_the_tail_past_the_last_term():
    acc = summed(1.0, 0.25, 0.0625)
    pairs = [*FLAT[:-1], (60, 0.125)]
    out = _tail_geometric("v", acc, math.log(0.25), 0.0, pairs, 60)
    ratio = math.exp(math.log(0.25))
    tail = 0.125 * ratio / (1.0 - ratio)
    assert out.kind == "converged"
    assert out.evidence == {"rule": "geometric-ratio", "ratio": ratio, "sigma": 0.0,
                            "tail": tail}
    # with no spread the bound is the sum's rounding alone
    assert out.value == acc.value + tail and out.tail_bound == acc.error_bound
    wide = _tail_geometric("v", acc, math.log(0.25), 0.1, pairs, 60)
    assert wide.value == out.value and wide.tail_bound > out.tail_bound
    assert _tail_geometric("v", acc, math.log(1.0 - DELTA) + 1e-9, 0.0, pairs, 60) is None


def test_floor_rule_reads_the_smallest_recent_term():
    out = _tail_floor("v", summed(1.0), 0.0, 0.0, FLAT, 60)
    assert out.kind == "diverged" and out.evidence == {"rule": "term-floor", "floor": 0.5}
    low = [*FLAT[:-1], (60, TERM_FLOOR / 2.0)]
    assert _tail_floor("v", summed(1.0), 0.0, 0.0, low, 60) is None


def test_undecided_rule_always_decides():
    out = _tail_undecided("v", summed(1.0), 0.0, 0.5, FLAT, 60)
    assert out.kind == "inconclusive" and out.n_used == 60
    assert out.evidence == {"rule": "undecided", "ratio": 1.0, "sigma": 0.5}


# ---------------------------------------------------------------------------
# verdict plumbing


def test_verdict_invariants():
    with pytest.raises(ValueError):
        SeriesVerdict.converged((0, 0), 1.0, None, "analytic", {}, 3)
    with pytest.raises(ValueError):
        SeriesVerdict.converged((0, 0), 1.0, -0.1, "analytic", {}, 3)
    with pytest.raises(ValueError):
        SeriesVerdict.diverged((0, 0), "analytic", {}, 3)


def test_verdict_json_schema():
    out = alpha_verdict(EX52, TQB, (0, 0))
    obj = out.to_json(TQB)
    assert set(obj) == {"vertex", "verdict", "value", "tail_bound",
                        "evidence", "method"}
    assert obj["vertex"] == "0,0"
    assert "rule" in obj["evidence"] and "n_used" in obj["evidence"]


# ---------------------------------------------------------------------------
# hyper-range vectors


def test_g_vectors_on_isometric_tree():
    k = TkInfKernel(3)
    ws = TkinfIsometricWeights(3)
    g0 = g_vector(ws, k, (0, 0), 0, 6)
    assert g0.vector.entries == {(0, 0): 1.0}
    assert g0.verdict.value == 1.0 and g0.tail_mass <= 1e-14
    g1 = g_vector(ws, k, (0, 0), 1, 6)
    assert g1.vector.entries == pytest.approx(
        {(1, 1): 1.0, (1, 2): 1.0, (1, 3): 1.0})
    assert g1.verdict.value == pytest.approx(3.0)
    assert not g1.is_zero


def test_g_vector_zero_on_divergence():
    g = g_vector(EX52, TQB, (0, 0), 0, 5)
    assert g.is_zero and g.verdict.value is None
    assert g.verdict.kind == "diverged"


def test_g_vector_refuses_undecided():
    ws = cauchy_dual(FunctionWeights(EX52.weight), TQB)
    with pytest.raises(UndecidedSeriesError):
        g_vector(ws, TQB, (0, 0), 0, 5, SeriesConfig(n_max=350))


# the ray-decay coefficients 2^-n drop below SparseVector's pruning threshold
# past n = 49, so its N = 60 truncations lose entries
TAIL_MASS_CASES = {
    "tkinf-isometric": (TkInfKernel(3), TkinfIsometricWeights(3), range(-3, 4), 8, None),
    "tqb-ray-decay": (TQB, FunctionWeights(lambda v: 0.5 if v[0] >= 1 else 1.0,
                                           name="ray-decay"),
                      (-1, 0, 1), 60, SeriesConfig(n_max=200)),
}


@pytest.mark.parametrize("case", sorted(TAIL_MASS_CASES))
def test_g_vector_tail_mass_is_that_of_the_returned_vector(case):
    k, ws, ms, N, cfg = TAIL_MASS_CASES[case]
    for m in ms:
        g = g_vector(ws, k, (0, 0), m, N, cfg)
        assert g.verdict.kind == "converged"
        assert g.tail_mass == (max(g.verdict.value - g.vector.norm_sq(), 0.0)
                               + g.verdict.tail_bound)
        if case == "tqb-ray-decay":
            assert len(g.vector) < sum(len(gen) for gen in g.gen_support)


def test_recurrence_on_isometric_tree():
    k = TkInfKernel(3)
    ws = TkinfIsometricWeights(3)
    for m in (-2, -1, 0, 1):
        rep = hyperrange_recurrence_check(ws, k, g_vector(ws, k, (0, 0), m, 6),
                                          g_vector(ws, k, (0, 0), m + 1, 6))
        assert rep.m == m and rep.passed and rep.residual <= 1e-12


def test_recurrence_needs_convergence():
    with pytest.raises(DivergentSeriesError):
        hyperrange_recurrence_check(EX52, TQB, g_vector(EX52, TQB, (0, 0), 0, 5),
                                    g_vector(EX52, TQB, (0, 0), 1, 5))


def test_g_vector_is_path_independent_up_to_scale():
    k = TkInfKernel(3)
    ws = FunctionWeights(lambda v: 1.0 + v[1] / 10.0 if v[0] >= 1 else 1.0,
                         name="tilted")
    # g_1 at (1, 1) on the least-child path, and at (1, 3) as g_0 of a path
    # anchored there
    ga = g_vector(ws, k, (0, 0), 1, 6).vector
    gb = g_vector(ws, k, (1, 3), 0, 6).vector
    assert ga.entries != gb.entries
    assert abs(inner(ga, gb)) == pytest.approx(ga.norm() * gb.norm(), rel=1e-12)
