"""Weight families, moments, Cauchy duals, and window diagnostics."""

from __future__ import annotations

import gc
import math
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from woldlab.cli import TamperedWeights
from woldlab.errors import (DegenerateNormError, MissingWeightError,
                            UnknownVertexError)
from woldlab.tree_core import (RayChain, TkInfKernel, TqbKernel, Window,
                               ZPathKernel, operation, par_n)
from woldlab.weights import (CauchyDualWeights, ConstantWeights,
                             FunctionWeights, PolyRule, Prop51Weights,
                             TkinfIsometricWeights,
                             WeightSystem,
                             boundedness_estimate, cauchy_dual, ex52_weights,
                             family_root, is_balanced, is_norm_increasing,
                             load_weight_csv, make_weights, shift_norm_sq)

from oracles import moment_log, ray_rows

TQB = TqbKernel()
ZP = ZPathKernel()
EX52 = ex52_weights()


# ---------------------------------------------------------------------------
# polynomial rules


coeff = st.floats(min_value=1e-3, max_value=1e3)
rule = st.builds(PolyRule, coeff, st.dictionaries(st.integers(-20, 40), coeff, max_size=6))


@given(rule, rule, st.integers(-10, 10), st.integers(0, 30), st.integers(0, 30))
def test_p_row_is_p_along_the_diagonal(a, b, m, x, count):
    ws = Prop51Weights(a, b)
    row = ws.p_row(m, x, count)
    assert [q.hex() for q in row] == [ws.p(m + i, x + i).hex() for i in range(count)]


@given(rule, rule, st.integers(2, 60), st.integers(-25, 45))
def test_log_weight_is_half_the_log_ratio_of_p(a, b, n, m):
    ws = Prop51Weights(a, b)
    want = 0.5 * (math.log(ws.p(m, n - 1)) - math.log(ws.p(m, n - 2)))
    assert ws.log_weight((n, m)).hex() == want.hex()


@given(rule, rule, st.integers(2, 60), st.integers(-25, 45))
def test_weight_is_the_root_of_the_ratio_of_p(a, b, n, m):
    # p_m(x) = 1 + a_m x + b_m x^2 spelled out from the rules, not read from `p`
    ws = Prop51Weights(a, b)
    am, bm = a(m), b(m)
    want = math.sqrt((1.0 + am * (n - 1) + bm * (n - 1) * (n - 1))
                     / (1.0 + am * (n - 2) + bm * (n - 2) * (n - 2)))
    assert ws.weight((n, m)).hex() == want.hex()


def test_polyrule_basics():
    r = PolyRule(1.0, {0: 2.0, -3: 0.5})
    assert r(0) == 2.0 and r(-3) == 0.5 and r(7) == 1.0
    assert r.settled_after() == 0
    assert PolyRule(2.0).settled_after() is None
    with pytest.raises(ValueError):
        PolyRule(0.0)
    with pytest.raises(ValueError):
        PolyRule(1.0, {2: -1.0})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            PolyRule(bad)
        with pytest.raises(ValueError):
            PolyRule(1.0, {2: bad})


def test_polyrule_spec_roundtrip():
    for r in [PolyRule(1.5), PolyRule(1.0, {-2: 3.0, 4: 0.25})]:
        back = PolyRule.parse(r.spec())
        assert back.default == r.default and back.table == r.table


def test_polyrule_parse_rejects():
    with pytest.raises(ValueError):
        PolyRule.parse("table:1=2.0")
    with pytest.raises(ValueError):
        PolyRule.parse("table:oops,default=1")
    with pytest.raises(ValueError):
        PolyRule.parse("spline:1.0")


# ---------------------------------------------------------------------------
# the quadratic family


def test_ex52_weight_spot_values():
    # p(x) = 1 + x + x^2 everywhere
    assert EX52.weight((2, 5)) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert EX52.weight((3, -4)) == pytest.approx(math.sqrt(7.0 / 3.0), rel=1e-15)
    assert EX52.weight((0, 3)) == pytest.approx(math.sqrt(3.0 / 4.0), rel=1e-15)
    assert EX52.weight((1, 4)) == 0.5
    assert EX52.weight((0, 0)) == 1.0
    assert EX52.weight((1, -2)) == 1.0


def test_weight_log_weight_agree():
    for v in [(0, 5), (0, -1), (1, 3), (1, 0), (2, 2), (6, -7)]:
        assert math.log(EX52.weight(v)) == pytest.approx(
            EX52.log_weight(v), abs=1e-14)


def test_one_step_norms_on_spine():
    # spine children are (0, m-1) and (1, m)
    for m in range(2, 12):
        assert shift_norm_sq(EX52, TQB, (0, m)) == pytest.approx(1.0, rel=1e-14)
    for m in range(-6, 2):
        assert shift_norm_sq(EX52, TQB, (0, m)) == pytest.approx(2.0, rel=1e-14)


def test_power_norms_on_rays():
    # below (n, m) with n >= 1 the tree is a single ray, so the norm telescopes
    for n in (1, 2, 4):
        for m in (-3, 0, 2, 9):
            for k in range(0, 5):
                expect = EX52.p(m, n + k - 1) / EX52.p(m, n - 1)
                assert shift_norm_sq(EX52, TQB, (n, m), k) == pytest.approx(
                    expect, rel=1e-13)


@given(st.integers(0, 4), st.integers(-10, 10), st.integers(0, 6))
def test_moment_telescopes(n, m, steps):
    v = (n, m)
    up = par_n(TQB, v, steps)
    assert moment_log(EX52, TQB, v, steps + 1) == pytest.approx(
        moment_log(EX52, TQB, v, steps) + EX52.log_weight(up), abs=1e-12)


def test_moment_value_matches_product():
    v = (3, 4)
    prod = 1.0
    x = v
    for _ in range(3):
        prod *= EX52.weight(x)
        x = TQB.parent(x)
    assert math.exp(moment_log(EX52, TQB, v, 3)) == pytest.approx(prod, rel=1e-14)
    with pytest.raises(ValueError):
        moment_log(EX52, TQB, v, -1)


# ---------------------------------------------------------------------------
# Cauchy dual


def test_dual_spot_values():
    dual = cauchy_dual(EX52, TQB)
    assert dual.weight((0, 4)) == pytest.approx(math.sqrt(4.0 / 5.0), rel=1e-13)
    assert dual.weight((0, 0)) == 0.5
    assert dual.weight((0, -3)) == 0.5
    assert dual.weight((1, 5)) == pytest.approx(1.0 / math.sqrt(5.0), rel=1e-13)
    assert dual.weight((1, 1)) == 0.5
    assert dual.weight((1, 0)) == 0.5
    for n in (2, 3, 5):
        for m in (-4, 0, 3):
            expect = math.sqrt(EX52.p(m, n - 2) / EX52.p(m, n - 1))
            assert dual.weight((n, m)) == pytest.approx(expect, rel=1e-13)


def test_dual_involution_on_window():
    dual2 = cauchy_dual(cauchy_dual(EX52, TQB), TQB)
    for v in [(0, 6), (0, 0), (0, -4), (1, 2), (2, -1), (4, 3)]:
        assert dual2.weight(v) == pytest.approx(EX52.weight(v), rel=1e-12)


def test_dual_of_isometry_is_itself():
    k = TkInfKernel(3)
    ws = TkinfIsometricWeights(3)
    dual = cauchy_dual(ws, k)
    for v in [(-2, 0), (0, 0), (1, 2), (4, 1)]:
        assert dual.weight(v) == pytest.approx(ws.weight(v), rel=1e-14)


def test_dual_degenerate_norm():
    dual = cauchy_dual(ConstantWeights(1e-13), ZP)
    with pytest.raises(DegenerateNormError):
        dual.weight(0)


def test_sibling_filled_miss_raises_on_a_degenerate_norm():
    dual = cauchy_dual(ConstantWeights(1e-13), TQB)
    for v in [(1, 0), (0, -1)]:     # the two children of (0, 0)
        with pytest.raises(DegenerateNormError):
            dual.log_weight(v)
    assert not dual._log_cache


def test_dual_miss_fills_the_siblings():
    dual = cauchy_dual(ex52_weights(), TQB)
    dual.log_weight((1, 5))
    assert set(dual._log_cache) == {(1, 5), (0, 4)}    # the children of (0, 5)
    assert dual.log_weight((0, 4)) == cauchy_dual(ex52_weights(), TQB).log_weight((0, 4))


# (3, 2) is the lone child of (2, 2); (1, 4) shares the spine vertex (0, 4)
@pytest.mark.parametrize("v, siblings", [((3, 2), [(3, 2)]),
                                         ((1, 4), [(0, 3), (1, 4)])])
def test_dual_miss_charges_and_fills_its_sibling_set(v, siblings):
    primal = ex52_weights()
    dual = cauchy_dual(primal, TQB)
    with operation() as budget:
        got = dual.log_weight(v)
        # the walk that reached v charged it; the miss charges the others
        assert budget.used == len(siblings) - 1
    # a set of two or more is memoized whole; a lone child is never memoized
    assert sorted(dual._log_cache) == (siblings if len(siblings) > 1 else [])
    norm = shift_norm_sq(primal, TQB, TQB.parent(v))
    assert got.hex() == (primal.log_weight(v) - math.log(norm)).hex()
    for c in dual._log_cache:
        assert dual._log_cache[c].hex() == (primal.log_weight(c) - math.log(norm)).hex()


def test_one_live_dual_per_weight_system_and_kernel():
    ws = ex52_weights()
    with operation():
        dual = cauchy_dual(ws, TQB)
        assert cauchy_dual(ws, TQB) is dual
        assert cauchy_dual(ws, TqbKernel()) is not dual
        assert cauchy_dual(ex52_weights(), TQB) is not dual
        dual.log_weight((1, 5))
    with operation():               # the next operation builds anew
        assert cauchy_dual(ws, TQB) is not dual
        assert not cauchy_dual(ws, TQB)._log_cache


def counting(kernel_cls):
    class Counting(kernel_cls):
        children_calls = 0

        def children(self, v):
            self.children_calls += 1
            return super().children(v)
    return Counting


@pytest.mark.parametrize("case", ["tqb/ex52", "tkinf:3"])
def test_dual_weight_reads_the_log_cache(case):
    if case == "tqb/ex52":
        kernel, ws, verts = counting(TqbKernel)(), EX52, [(0, 0), (1, 5), (3, -2)]
    else:
        kernel, ws = counting(TkInfKernel)(3), TkinfIsometricWeights(3)
        verts = [(-2, 0), (0, 0), (1, 2), (4, 1)]
    dual = cauchy_dual(ws, kernel)
    for v in verts:
        lone = len(kernel.siblings(v)) == 1
        log_weight = dual.log_weight(v)
        calls = kernel.children_calls
        assert dual.weight(v) == math.exp(log_weight)
        if lone:
            # a lone child's dual is a pure map of its own weight, not memoized
            assert v not in dual._log_cache
            norm = shift_norm_sq(ws, kernel, kernel.parent(v))
            assert log_weight.hex() == (ws.log_weight(v) - math.log(norm)).hex()
        else:
            assert kernel.children_calls == calls


def _tkinf_vertex():
    spine = st.builds(lambda m: (m, 0), st.integers(-5, 0))
    return st.one_of(spine, st.tuples(st.integers(1, 5), st.integers(1, 3)))


# primal weights differ between siblings, so a value filled under the wrong
# sibling shows
DUAL_CASES = {
    "tqb": (TQB, ex52_weights, st.tuples(st.integers(0, 4), st.integers(-5, 5))),
    "tkinf:3": (TkInfKernel(3),
                lambda: FunctionWeights(lambda v: 1.0 + 0.1 * v[1] + 0.01 * v[0] ** 2),
                _tkinf_vertex()),
    "zpath": (ZP, lambda: FunctionWeights(lambda v: 1.0 + 0.5 * math.sin(v)),
              st.integers(-5, 5)),
}


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(sorted(DUAL_CASES)), layers=st.integers(1, 2), data=st.data())
def test_dual_log_weights_match_the_parent_norm_bit_for_bit(case, layers, data):
    kernel, make, vertices = DUAL_CASES[case]
    picks = data.draw(st.lists(vertices, min_size=1, max_size=8))
    # every pick's siblings too, so that filled values are read back
    order = data.draw(st.permutations(
        [c for v in picks for c in kernel.children(kernel.parent(v))]))
    dual = make()
    for _ in range(layers):
        primal, dual = dual, cauchy_dual(dual, kernel)
    for v in order:
        got = dual.log_weight(v)
        norm = shift_norm_sq(primal, kernel, kernel.parent(v), 1)
        assert got == primal.log_weight(v) - math.log(norm)


# ---------------------------------------------------------------------------
# log weights along a ray


RAY_WEIGHTS = {
    "prop51": lambda a, b: Prop51Weights(a, b),
    "constant": lambda a, b: ConstantWeights(a.default),
    "function": lambda a, b: FunctionWeights(lambda v: 1.5 + math.sin(v[0] + 2 * v[1])),
    "tampered": lambda a, b: TamperedWeights(Prop51Weights(a, b)),
}

# tqb vertices whose ray is a chain: n >= 1, and the rays through and beside
# the tampered vertex (2, 3)
ray_start = st.one_of(
    st.tuples(st.integers(1, 4), st.integers(-5, 5)),
    st.sampled_from([(1, 3), (2, 3), (1, 2), (1, 4)]),
)


def chain_vertices(chain):
    """The vertices a `RayChain` stands for."""
    return [(n, chain.m) for n in range(chain.start, chain.stop)]


def cache_bits(dual):
    return {v: lw.hex() for v, lw in dual._log_cache.items()}


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(RAY_WEIGHTS)), a=rule, b=rule,
       layers=st.integers(0, 2), u=ray_start, depth=st.integers(1, 30),
       data=st.data())
def test_ray_log_weights_are_the_log_weights_bit_for_bit(family, a, b, layers, u,
                                                         depth, data):
    chain = TQB.ray(u, depth)
    # part of the ray first, then all of it; a dual has some vertices cached
    start = data.draw(st.integers(chain.start, chain.stop))
    part = RayChain(start, data.draw(st.integers(start, chain.stop)), chain.m)
    warm = data.draw(st.lists(st.sampled_from(chain_vertices(chain)), max_size=4))
    got, want = RAY_WEIGHTS[family](a, b), RAY_WEIGHTS[family](a, b)
    for _ in range(layers):
        got, want = cauchy_dual(got, TQB), cauchy_dual(want, TQB)
    for v in warm:
        assert got.log_weight(v) == want.log_weight(v)
    for piece in (part, chain):
        assert ([lw.hex() for lw in got.ray_log_weights(piece)]
                == [want.log_weight(v).hex() for v in chain_vertices(piece)])
    while isinstance(got, CauchyDualWeights):
        assert cache_bits(got) == cache_bits(want)
        got, want = got.primal, want.primal


@pytest.mark.parametrize("u", [(1, 3), (2, 3), (1, 2)])
def test_tampered_ray_moves_only_the_tampered_vertex(u):
    base = ex52_weights()
    ws = TamperedWeights(base)
    chain = TQB.ray(u, 5)
    vertices = chain_vertices(chain)
    moved = [v for v, lw, lb in zip(vertices, ws.ray_log_weights(chain),
                                    base.ray_log_weights(chain)) if lw != lb]
    assert moved == ([(2, 3)] if (2, 3) in vertices else [])
    assert ws.log_weight((2, 3)) == base.log_weight((2, 3)) + math.log(1.001)


def test_a_new_log_weight_gets_the_per_vertex_ray_form():
    class Shifted(Prop51Weights):
        # depends on m beyond (a_m, b_m), so prop51's rows would be wrong
        def log_weight(self, v):
            return super().log_weight(v) + 1.0 + v[1]

    ws = Shifted(PolyRule(1.0), PolyRule(1.0))
    chain = RayChain(2, 7, 0)
    assert ws.ray_log_weights(chain) == [ws.log_weight(v) for v in chain_vertices(chain)]
    assert type(ws).row_key is WeightSystem.row_key
    # two rays, ray (n, 0) and ray (n, 1), both unary from n = 2, in one
    # operation: rows shared by m = 0 and m = 1 would give the second the
    # first's floats
    with operation():
        dual = cauchy_dual(ws, TQB)
        for m in (0, 1):
            lone = RayChain(2, 7, m)
            for g in (ws, dual):
                assert g.ray_log_weights(lone) == [g.log_weight(v)
                                                   for v in chain_vertices(lone)]


# Rules whose coefficient pairs agree on some m and differ on others: with
# a = const:1 and b = TABLED, rows (1, 2), (1, 3) and (1, 1) share a; with
# a = b = TABLED they are (2, 2), (3, 3) and (1, 1).
TABLED = PolyRule.parse("table:0=2,1=3,default=1")
warm_rule = st.sampled_from([PolyRule(1.0), TABLED, PolyRule.parse("table:-1=3,2=2,default=1.5")])


@settings(max_examples=100, deadline=None)
@given(family=st.sampled_from(["prop51", "constant", "tampered"]),
       a=st.one_of(warm_rule, rule), b=st.one_of(warm_rule, rule), layers=st.integers(0, 2),
       ms=st.lists(st.integers(-4, 8), min_size=2, max_size=8), n=st.integers(2, 60))
@example(family="tampered", a=PolyRule(1.0), b=PolyRule(1.0), layers=0, ms=[2, 3, 4], n=2)
@example(family="prop51", a=PolyRule(1.0), b=TABLED, layers=2, ms=[0, 1, 2, 3], n=2)
def test_equal_row_keys_give_equal_log_weights_bit_for_bit(family, a, b, layers, ms, n):
    # a row key vouches that log_weight((n, m)) on tqb from n = 2 on depends
    # on the key and n alone, so one row serves every m with that key
    ws = RAY_WEIGHTS[family](a, b)
    for _ in range(layers):
        ws = cauchy_dual(ws, TQB)
    by_key: dict = {}
    for m in ms:
        key = ws.row_key(m)
        assert key is not None
        by_key.setdefault(key, set()).add(ws.log_weight((n, m)).hex())
    assert all(len(bits) == 1 for bits in by_key.values())


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["prop51", "constant", "tampered"]), a=warm_rule, b=warm_rule,
       layers=st.integers(0, 2),
       starts=st.lists(ray_start, min_size=2, max_size=6), depth=st.integers(1, 12))
@example(family="prop51", a=PolyRule(1.0), b=TABLED, layers=0,
         starts=[(1, 0), (1, 1), (1, 2), (3, 0)], depth=6)
@example(family="tampered", a=TABLED, b=TABLED, layers=1,
         starts=[(1, 2), (1, 3), (1, 4), (2, 3)], depth=8)
def test_warm_ray_rows_are_the_log_weights_bit_for_bit(family, a, b, layers, starts, depth):
    # one operation, so each chain after the first may read rows an earlier
    # chain filled: rows shared across m, or split where a table entry differs
    with operation():
        got, want = RAY_WEIGHTS[family](a, b), RAY_WEIGHTS[family](a, b)
        g, w = got, want
        for _ in range(layers):
            g, w = cauchy_dual(g, TQB), cauchy_dual(w, TQB)
        for u in starts:
            chain = TQB.ray(u, depth)
            assert ([lw.hex() for lw in g.ray_log_weights(chain)]
                    == [w.log_weight(v).hex() for v in chain_vertices(chain)])


def test_ray_rows_are_never_aliased_and_die_with_the_operation():
    base = ex52_weights()
    attrs = dict(vars(base))
    chain = TQB.ray((1, 3), 6)
    vertices = chain_vertices(chain)
    assert (2, 3) in vertices
    with operation() as op:
        tampered = TamperedWeights(base)
        systems = [tampered, cauchy_dual(tampered, TQB), base, cauchy_dual(base, TQB)]
        # the tampered ray first: its edit must land in its own list only
        first = [ws.ray_log_weights(chain) for ws in systems]
        want = [[ws.log_weight(v).hex() for v in vertices] for ws in systems]
        assert [[lw.hex() for lw in out] for out in first] == want
        for out in first:
            out[vertices.index((2, 3))] = out[0] = math.nan
        assert [[lw.hex() for lw in ws.ray_log_weights(chain)] for ws in systems] == want
        assert ray_rows(op.memos, base)
        budget = weakref.ref(op)
    del op
    gc.collect()
    assert budget() is None              # the rows died with the operation
    assert vars(base) == attrs


def read_chains(ws, chains):
    """Each (start, stop, m) chain through `ws.ray_log_weights`, checked
    against `log_weight` per vertex bit for bit."""
    for start, stop, m in chains:
        chain = RayChain(start, stop, m)
        assert ([lw.hex() for lw in ws.ray_log_weights(chain)]
                == [ws.log_weight(v).hex() for v in chain_vertices(chain)])


# (chains as (start, stop, m), the end hi of the run [2, hi), the prefix
# from n = 2, that the one ex52 row holds after them): a chain that starts
# below 2 or past the row's end leaves the row as it was.  Every m shares
# ex52's row key, which vouches for n >= 2 only: log_weight((1, m)) is
# -0.5 log m, so a chain from n = 1 that read a row would read another
# ray's first weight
ROW_RUNS = {
    "extend": ([(2, 5, 0), (3, 4, 5), (4, 9, -3)], 9),
    "at-end": ([(2, 5, 0), (5, 8, 1)], 8),
    "short-gap": ([(2, 5, 0), (7, 10, 1)], 5),
    "long-gap": ([(2, 5, 0), (9, 12, 1)], 5),
    "before": ([(5, 8, 0), (2, 5, 2)], 5),
    "long-before": ([(10, 13, 0), (2, 5, 2)], 5),
    "from-one": ([(1, 4, 5), (1, 3, 7), (2, 3, 4)], 3),
}


@pytest.mark.parametrize("layers", [0, 1])
@pytest.mark.parametrize("case", sorted(ROW_RUNS))
def test_ray_rows_are_runs_read_by_slice(case, layers):
    chains, hi = ROW_RUNS[case]
    with operation() as op:
        ws = cauchy_dual(EX52, TQB) if layers else EX52
        read_chains(ws, chains)
        row, = ray_rows(op.memos, ws)
        assert [lw.hex() for lw in row] == [ws.log_weight((n, 0)).hex() for n in range(2, hi)]


@pytest.mark.parametrize("layers", [0, 1])
def test_a_deep_ray_keeps_rows_of_the_walked_length(layers):
    # a row is the prefix from n = 2 that chains reached, never a fill down
    # to a chain far below it: chains a million levels down store nothing,
    # and one at the ray's top stores its own entries alone
    with operation() as op:
        ws = cauchy_dual(EX52, TQB) if layers else EX52
        read_chains(ws, [(s, s + 3, 0) for s in [10**6 + 1, 2, 10**6 + 3]])
        assert [len(row) for row in ray_rows(op.memos, ws)] == [3]


def test_family_root_tracks_depth():
    assert family_root(EX52) == (EX52, 0)
    d = cauchy_dual(EX52, TQB)
    root, depth = family_root(d)
    assert root is EX52 and depth == 1
    root2, depth2 = family_root(cauchy_dual(d, TQB))
    assert root2 is EX52 and depth2 == 2


# ---------------------------------------------------------------------------
# csv weights


CSV_OK = 'vertex,weight\n"0,0",2.0\n"1,1",0.5\n# comment row\n"0,1",1.25\n'


def test_csv_weights_roundtrip():
    ws = load_weight_csv(CSV_OK, TQB)
    assert ws.weight((0, 0)) == 2.0
    assert ws.weight((1, 1)) == 0.5
    assert ws.params["entries"] == 3
    with pytest.raises(MissingWeightError):
        ws.weight((5, 5))


def test_csv_weights_rejects():
    for bad in ("-1.0", "0", "nan", "inf"):
        with pytest.raises(ValueError):
            load_weight_csv(f'"0,0",{bad}\n', TQB)
    with pytest.raises(ValueError):
        load_weight_csv("vertex,weight\n", TQB)
    with pytest.raises(ValueError):
        load_weight_csv('"0,0"\n', TQB)


# ---------------------------------------------------------------------------
# window diagnostics


def test_is_balanced_flags_ex52():
    rep = is_balanced(EX52, TQB, Window((0, 0), 2, 2))
    assert rep.verdict == "not_balanced"
    assert rep.witness == ((0, 1), (1, 2), 2.0, 3.0000000000000004)
    assert rep.class_count == 5


def test_is_balanced_passes_uniform_trees():
    assert is_balanced(ConstantWeights(1.0), ZP, Window(0, 3, 3)).verdict == "balanced"
    k = TkInfKernel(2)
    rep = is_balanced(TkinfIsometricWeights(2), k, Window((0, 0), 2, 2))
    assert rep.verdict == "balanced"
    # 71 depth classes, each a whole generation set, however deep the window
    rep = is_balanced(TkinfIsometricWeights(2), k, Window((0, 0), 0, 70))
    assert (rep.verdict, rep.class_count) == ("balanced", 71)


def test_is_balanced_on_a_lone_vertex():
    rep = is_balanced(ConstantWeights(1.0), ZP, Window(0, 0, 0))
    assert (rep.verdict, rep.witness, rep.class_count) == ("balanced", None, 1)


def test_is_balanced_never_compares_across_depths():
    # on zpath every depth class is one vertex, so norms that grow with m
    # are balanced however far apart two levels' norms lie
    ws = FunctionWeights(lambda m: 1.0 + 0.1 * m, name="ramp")
    assert shift_norm_sq(ws, ZP, -3) != shift_norm_sq(ws, ZP, 3)
    rep = is_balanced(ws, ZP, Window(0, 3, 3))
    assert (rep.verdict, rep.witness, rep.class_count) == ("balanced", None, 7)


def test_is_norm_increasing():
    assert is_norm_increasing(EX52, TQB, Window((0, 0), 2, 2)).verdict == "norm_increasing"
    rep = is_norm_increasing(ConstantWeights(0.9), ZP, Window(0, 2, 2))
    assert rep.verdict == "not_norm_increasing"
    assert rep.witness[1] == pytest.approx(0.81, rel=1e-12)


def test_boundedness_estimate_ex52():
    est = boundedness_estimate(EX52, TQB, Window((0, 0), 2, 2))
    assert est == pytest.approx(3.0, rel=1e-12)


class NanAt(WeightSystem):
    """Unit weights but a NaN log weight at one vertex."""

    def __init__(self, bad) -> None:
        self.bad = bad

    def log_weight(self, v) -> float:
        return math.nan if v == self.bad else 0.0


@pytest.mark.parametrize("kernel, window, bad", [
    (ZP, Window(0, 2, 2), 0),
    (ZP, Window(0, 2, 2), 2),
    (TkInfKernel(2), Window((0, 0), 1, 1), (1, 2)),
])
def test_boundedness_estimate_is_nan_on_a_nan_norm(kernel, window, bad):
    # the NaN norm sits between finite ones, where a plain max() drops it
    assert math.isnan(boundedness_estimate(NanAt(bad), kernel, window))


@pytest.mark.parametrize("kernel, window, bad", [
    (ZP, Window(0, 2, 2), 0),
    (ZP, Window(0, 2, 2), 2),
    (TkInfKernel(2), Window((0, 0), 1, 1), (1, 2)),
])
def test_is_norm_increasing_fails_closed_on_a_nan_norm(kernel, window, bad):
    # with unit weights every norm is at least 1, so only the NaN one fails
    assert is_norm_increasing(NanAt(None), kernel, window).verdict == "norm_increasing"
    rep = is_norm_increasing(NanAt(bad), kernel, window)
    assert rep.verdict == "not_norm_increasing"
    assert math.isnan(rep.min_norm_sq)
    witness, norm = rep.witness
    assert math.isnan(norm) and math.isnan(shift_norm_sq(NanAt(bad), kernel, witness, 1))


# ---------------------------------------------------------------------------
# the one-step norm memo

MEMO_VERTS = [(0, 0), (0, 3), (0, -2), (1, 2), (4, -1)]


def test_one_step_norms_walk_each_vertex_once_per_operation():
    kernel = counting(TqbKernel)()
    for _ in range(2):              # the next operation walks afresh
        with operation() as budget:
            before = kernel.children_calls
            for _ in range(3):
                for v in MEMO_VERTS:
                    shift_norm_sq(EX52, kernel, v)
            assert kernel.children_calls - before == len(MEMO_VERTS)
            assert budget.used == sum(len(TQB.children(v)) for v in MEMO_VERTS)
    # a bare call is an operation of its own, and walks each time
    before = kernel.children_calls
    shift_norm_sq(EX52, kernel, (0, 0))
    shift_norm_sq(EX52, kernel, (0, 0))
    assert kernel.children_calls - before == 2


@pytest.mark.parametrize("dual", [False, True])
def test_a_memoized_norm_is_the_fresh_walk_bit_for_bit(dual):
    ws = cauchy_dual(EX52, TQB) if dual else EX52
    fresh = [shift_norm_sq(ws, TQB, v).hex() for v in MEMO_VERTS]
    with operation():
        walked = [shift_norm_sq(ws, TQB, v).hex() for v in MEMO_VERTS]
        read = [shift_norm_sq(ws, TQB, v).hex() for v in MEMO_VERTS]
    by_hand = [math.fsum(math.exp(2.0 * ws.log_weight(c)) for c in TQB.children(v)).hex()
               for v in MEMO_VERTS]
    assert fresh == walked == read == by_hand


def test_a_nan_norm_is_memoized_and_the_checks_still_fail_closed():
    kernel, ws, window = counting(TkInfKernel)(2), NanAt((1, 2)), Window((0, 0), 1, 1)
    with operation() as op:
        assert math.isnan(boundedness_estimate(ws, kernel, window))
        assert math.isnan(op.memos[("norms", ws, kernel)][(0, 0)])
        rep = is_norm_increasing(ws, kernel, window)
        assert rep.verdict == "not_norm_increasing"
        assert rep.witness[0] == (0, 0) and math.isnan(rep.min_norm_sq)
        before = kernel.children_calls
        assert math.isnan(shift_norm_sq(ws, kernel, (0, 0)))
        assert kernel.children_calls == before


def test_norm_memos_are_kept_per_weight_system_and_kernel():
    one, k2, k3 = ConstantWeights(1.0), TkInfKernel(2), TkInfKernel(3)
    with operation() as op:
        assert shift_norm_sq(EX52, TQB, (0, 1)) == 2.0
        assert shift_norm_sq(ConstantWeights(2.0), TQB, (0, 1)) == 8.0
        assert shift_norm_sq(one, k2, (0, 0)) == 2.0
        assert shift_norm_sq(one, k3, (0, 0)) == 3.0
        assert sum(key[0] == "norms" for key in op.memos) == 4


# ---------------------------------------------------------------------------
# the spec-string factory


def test_make_weights_specs():
    assert make_weights("constant:2.5", ZP).weight(3) == 2.5
    assert make_weights("ex52", TQB).name == "ex52"
    w = make_weights("prop51", TQB, a_rule="const:2.0", b_rule="const:3.0")
    assert w.p(0, 1.0) == 6.0
    k3 = TkInfKernel(3)
    assert make_weights("tkinf-isometric:k=3", k3).k == 3
    assert make_weights("tkinf-isometric", k3).k == 3


def test_make_weights_rejects():
    with pytest.raises(ValueError):
        make_weights("prop51", TQB)
    with pytest.raises(ValueError):
        make_weights("constant:-1", ZP)
    with pytest.raises(ValueError):
        make_weights("mystery", ZP)


# ---------------------------------------------------------------------------
# weight entry points accept only 0 < w < inf


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_entry_points_reject_nonpositive_and_nonfinite_weights(bad):
    with pytest.raises(ValueError):
        FunctionWeights(lambda v: bad).weight(0)

    class Raw(WeightSystem):
        def weight(self, v):
            return bad

    with pytest.raises(ValueError):
        Raw().log_weight(0)
