"""Structure tests for the lazy tree kernels, shells, windows, and paths."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from woldlab import tree_core
from woldlab.errors import (MalformedTreeError, MissingWeightError,
                            ResourceCapError, UnknownVertexError)
from woldlab.tree_core import (DEFAULT_VERTEX_CAP, Budget, RayChain, TkInfKernel, TqbKernel,
                               TreeKernel, Window, ZPathKernel, child_n, descend, enum_A,
                               load_adjacency, make_kernel, operation, par_n, path_vertex,
                               vertex_cap, window_depth_classes, window_vertices)
from woldlab.series import generation_stream
from woldlab.weights import (FunctionWeights, cauchy_dual, ex52_weights,
                             load_weight_csv, shift_norm_sq)

from oracles import enum_A_definitional

ZP = ZPathKernel()
TQB = TqbKernel()
TK3 = TkInfKernel(3)


def sample_vertex(kernel, rng):
    if isinstance(kernel, ZPathKernel):
        return rng.randint(-30, 30)
    if isinstance(kernel, TqbKernel):
        return (rng.randint(0, 6), rng.randint(-10, 10))
    m = rng.randint(-8, 8)
    if m <= 0:
        return (m, 0)
    return (m, rng.randint(1, kernel.k))


# ---------------------------------------------------------------------------
# kernel basics


def test_zpath_children_parent():
    assert ZP.children(5) == (6,)
    assert ZP.parent(-3) == -4
    assert ZP.parse_vertex("-7") == -7
    assert ZP.format_vertex(12) == "12"


def test_tqb_structure():
    assert TQB.children((0, 4)) == ((0, 3), (1, 4))
    assert TQB.children((2, -1)) == ((3, -1),)
    assert TQB.parent((0, 4)) == (0, 5)
    assert TQB.parent((1, 4)) == (0, 4)
    assert TQB.parent((3, 0)) == (2, 0)
    assert TQB.parse_vertex("2,-5") == (2, -5)
    with pytest.raises(UnknownVertexError):
        TQB.parent((-1, 0))


TQB_BAD = [(-1, 0), (-3, 7), (0,), (0, 0, 0), [0, 0], "0,0", None]


@pytest.mark.parametrize("step", ["children", "parent"])
@pytest.mark.parametrize("bad", TQB_BAD)
def test_tqb_steps_reject_unknown_vertices(step, bad):
    with pytest.raises(UnknownVertexError):
        getattr(TQB, step)(bad)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_tqb_siblings_switch_between_spine_and_rays(n):
    # (0, m) and (1, m + 1) share the spine parent (0, m + 1); rays are unary from n = 2
    for m in (-3, 0, 4):
        v = (n, m)
        want = {0: ((0, m), (1, m + 1)), 1: ((0, m - 1), (1, m))}.get(n, (v,))
        assert TQB.siblings(v) == want == TQB.children(TQB.parent(v))


def test_tkinf_structure():
    assert TK3.children((-2, 0)) == ((-1, 0),)
    assert set(TK3.children((0, 0))) == {(1, 1), (1, 2), (1, 3)}
    assert TK3.children((1, 2)) == ((2, 2),)
    assert TK3.parent((1, 2)) == (0, 0)
    assert TK3.parent((4, 3)) == (3, 3)
    assert TK3.parent((0, 0)) == (-1, 0)
    for bad in [(0, 1), (2, 0), (1, 4), (-1, 2)]:
        with pytest.raises(UnknownVertexError):
            TK3.children(bad)


def test_make_kernel_specs():
    assert make_kernel("zpath").name == "zpath"
    assert make_kernel("tqb").name == "tqb"
    assert make_kernel("tkinf:k=5").k == 5
    assert make_kernel("tkinf:5").k == 5
    with pytest.raises(ValueError):
        make_kernel("heap")
    with pytest.raises(ValueError):
        make_kernel("tkinf")


def test_children_parent_roundtrip():
    rng = random.Random(7)
    for kernel in (ZP, TQB, TK3):
        for _ in range(50):
            v = sample_vertex(kernel, rng)
            for c in kernel.children(v):
                assert kernel.parent(c) == v


# ---------------------------------------------------------------------------
# shells


def test_shells_small_cases():
    assert enum_A(ZP, 0, 0) == (0,)
    assert enum_A(ZP, 0, 3) == ()
    assert enum_A(TQB, (0, 0), 1) == ((1, 1),)
    assert enum_A(TQB, (0, 0), 4) == ((4, 4),)
    # off-spine shells open with a gap, then a diagonal sweep, then singletons
    assert enum_A(TQB, (2, 5), 1) == ()
    assert set(enum_A(TQB, (2, 5), 2)) == {(0, 3), (1, 4)}
    assert enum_A(TQB, (2, 5), 3) == ((3, 6),)
    assert set(enum_A(TK3, (1, 1), 1)) == {(1, 2), (1, 3)}
    assert set(enum_A(TK3, (2, 1), 2)) == {(2, 2), (2, 3)}
    assert enum_A(TK3, (2, 1), 3) == ()
    assert enum_A(TK3, (-4, 0), 2) == ()


def test_shells_match_definitional_oracle():
    rng = random.Random(11)
    for kernel in (ZP, TQB, TK3):
        for _ in range(60):
            v = sample_vertex(kernel, rng)
            n = rng.randint(0, 7)
            assert sorted(map(str, enum_A(kernel, v, n))) == sorted(
                map(str, enum_A_definitional(kernel, v, n)))


def test_shells_disjoint_across_generations():
    rng = random.Random(13)
    for kernel in (TQB, TK3):
        for _ in range(25):
            v = sample_vertex(kernel, rng)
            seen: set = set()
            for n in range(0, 7):
                shell = set(enum_A(kernel, v, n))
                assert not (shell & seen)
                seen |= shell


def test_shell_recursion_identities():
    """Chi(A(par v, n)) = A(v, n+1) for n >= 1, and par(A(v,n)) = A(par v, n-1)."""
    rng = random.Random(17)
    for kernel in (TQB, TK3):
        for _ in range(40):
            v = sample_vertex(kernel, rng)
            p = kernel.parent(v)
            for n in range(1, 5):
                pushed = set()
                for u in enum_A(kernel, p, n):
                    pushed.update(kernel.children(u))
                assert pushed == set(enum_A(kernel, v, n + 1))
                pulled = {kernel.parent(u) for u in enum_A(kernel, v, n)}
                assert pulled <= set(enum_A(kernel, p, n - 1)) | ({p} if n == 1 else set())


def test_iterate_nesting():
    rng = random.Random(19)
    for kernel in (ZP, TQB, TK3):
        for _ in range(30):
            v = sample_vertex(kernel, rng)
            for n in range(0, 5):
                inner = set(child_n(kernel, par_n(kernel, v, n), n))
                outer = set(child_n(kernel, par_n(kernel, v, n + 1), n + 1))
                assert inner <= outer


def test_generation_span():
    assert ZP.generation_span(4) == 0
    assert TK3.generation_span((-2, 0)) == 0
    assert TK3.generation_span((5, 2)) == 5
    assert TQB.generation_span((0, 0)) is None


# ---------------------------------------------------------------------------
# windows


def brute_window(kernel, w):
    out = set()
    for i in range(w.depth_up + 1):
        a = par_n(kernel, w.base, i)
        for j in range(i + w.depth_down + 1):
            out.update(child_n(kernel, a, j))
    return out


def test_window_negative_depths_rejected():
    with pytest.raises(ValueError):
        Window((0, 0), -1, 2)


def test_window_matches_sweep_definition():
    rng = random.Random(23)
    for kernel in (ZP, TQB, TK3):
        for _ in range(20):
            base = sample_vertex(kernel, rng)
            w = Window(base, rng.randint(0, 3), rng.randint(0, 3))
            got = window_vertices(kernel, w)
            assert len(got) == len(set(got))
            assert set(got) == brute_window(kernel, w)


def test_window_example_on_tqb():
    got = set(window_vertices(TQB, Window((0, 0), 1, 1)))
    assert got == {(0, 1), (0, 0), (1, 1), (0, -1), (1, 0), (2, 1)}


def test_window_depth_classes_partition():
    w = Window((0, 0), 2, 1)
    classes = window_depth_classes(TQB, w)
    flat = [v for cls in classes for v in cls]
    assert flat == window_vertices(TQB, w)
    # only the spine vertex in each level branches, so levels grow by one
    assert [len(c) for c in classes] == [1, 2, 3, 4]


# ---------------------------------------------------------------------------
# bilateral paths


def test_bilateral_path_tqb_spine():
    assert path_vertex(TQB, (0, 0), -2) == (0, 2)
    assert path_vertex(TQB, (0, 0), 0) == (0, 0)
    assert path_vertex(TQB, (0, 0), 1) == (0, -1)   # least child under tuple order
    assert path_vertex(TQB, (0, 0), 3) == (0, -3)


def test_bilateral_path_choosers():
    # forward steps take the least child
    assert path_vertex(TK3, (0, 0), 1) == (1, 1)
    assert path_vertex(TK3, (0, 0), 2) == (2, 1)
    assert path_vertex(TK3, (0, 0), -3) == (-3, 0)


# ---------------------------------------------------------------------------
# resource caps


def dual_stream_upto(n):
    for _ in islice(generation_stream(cauchy_dual(ex52_weights(), TQB), TQB, (0, 0)), n + 1):
        pass


# name: (cap, enumeration of size n, the largest n within the cap).  Outside
# an operation every walk gets its own budget: a norm, a window, a whole
# stream.
CAP_TRIPS = {
    # levels of 2, 3, ..., n + 1 vertices below a spine vertex
    "child_n": (10, lambda n: child_n(TQB, (0, 0), n), 3),
    # one vertex per level down a ray; past the cap a depth of 10**12 trips
    # at the cap, the level loop holding one level at a time
    "child_n_ray": (10, lambda n: child_n(TQB, (1, 0), n if n <= 10 else 10**12), 10),
    "shift_norm_sq": (10, lambda n: shift_norm_sq(ex52_weights(), TQB, (0, 0), n), 3),
    # the top anchor plus levels of 2, 3, ..., n + 1 vertices
    "window_vertices": (10, lambda n: window_vertices(TQB, Window((0, 0), 1, n - 1)), 3),
    # one charge per step down the least children, or up the parents
    "path_vertex_down": (10, lambda n: path_vertex(TQB, (0, 0), n), 10),
    "path_vertex_up": (10, lambda n: path_vertex(TQB, (0, 0), -n), 10),
    # generation n charges n + 1: one shell vertex per level, plus the up-walk
    # step, and each spine dual miss its sibling, all to the stream's budget
    "generation_stream": (60, dual_stream_upto, 8),
}


@pytest.mark.parametrize("name", sorted(CAP_TRIPS))
def test_budget_trips(monkeypatch, name):
    cap, run, last_ok = CAP_TRIPS[name]
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", str(cap))
    assert vertex_cap() == cap
    run(last_ok)
    with pytest.raises(ResourceCapError):
        run(last_ok + 1)


@pytest.mark.parametrize("dual, generation", [(False, 10), (True, 9)])
def test_stream_budget_is_bound_once_in_or_out_of_an_operation(monkeypatch, dual,
                                                              generation):
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "60")

    def tripped_at():
        # generation n charges n + 1; 9 generations charge 54, 10 charge 65,
        # and a dual stream's spine misses charge their siblings on top
        ws = cauchy_dual(ex52_weights(), TQB) if dual else ex52_weights()
        with pytest.raises(ResourceCapError, match=f"generation {generation} "):
            for _ in generation_stream(ws, TQB, (0, 0)):
                pass

    tripped_at()
    with operation():
        tripped_at()


def test_a_stream_resumed_outside_its_operation_charges_its_budget():
    def walk(split):
        ws = cauchy_dual(ex52_weights(), TQB)
        with operation() as budget:
            stream = generation_stream(ws, TQB, (0, 0))
            head = list(islice(stream, split))
        # the rest of the walk, rows and dual sibling charges included, lands
        # in the operation's budget and memos after it has closed
        tail = list(islice(stream, 21 - split))
        return [(n, t.hex()) for n, t, _, _ in head + tail], budget.used, len(budget.memos)

    inside = walk(21)
    # generation n charges n + 1, and each of the 20 spine misses a sibling
    assert walk(6) == inside and inside[1] == 20 * 21 // 2 + 2 * 20 == 250


def test_a_stream_resumed_in_another_operation_charges_its_own_budget():
    ws = cauchy_dual(ex52_weights(), TQB)
    stream = generation_stream(ws, TQB, (0, 0))
    terms = [t for _, t, _, _ in islice(stream, 2)]     # binds a budget of its own
    with operation() as other:
        terms += [t for _, t, _, _ in islice(stream, 19)]
    assert other.used == 0 and other.memos == {}
    with operation():
        assert terms == [t for _, t, _, _ in
                         islice(generation_stream(ws, TQB, (0, 0)), 21)]


def test_deep_ray_trips_the_cap_in_bounded_memory(monkeypatch):
    # the level loop holds one level at a time at any cap; a lower cap
    # keeps the walk short
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "100000")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            child_n(TQB, (1, 0), 10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a chain of the cap's 10^5 vertices would hold about 9 MiB
    assert peak < 2**18


def test_the_default_cap_is_a_million_vertices(monkeypatch):
    monkeypatch.delenv("WOLDLAB_MAX_VERTICES", raising=False)
    assert vertex_cap() == DEFAULT_VERTEX_CAP == 10**6
    assert Budget().cap == DEFAULT_VERTEX_CAP


def test_walks_in_one_operation_share_its_budget(monkeypatch):
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "10")

    def norm():     # levels of 2, 3 and 4 vertices
        return shift_norm_sq(ex52_weights(), TQB, (0, 0), 3)

    norm()
    norm()
    with operation() as budget:
        norm()
        assert budget.used == 9
        with operation() as inner:
            assert inner is budget
            with pytest.raises(ResourceCapError):
                norm()


def test_a_nested_scope_builds_no_budget_and_reads_no_cap(monkeypatch):
    built, reads = [], []
    real_init, real_cap = Budget.__init__, tree_core.vertex_cap
    monkeypatch.setattr(Budget, "__init__", lambda self: built.append(1) or real_init(self))
    monkeypatch.setattr(tree_core, "vertex_cap", lambda: reads.append(1) or real_cap())

    @operation()
    def scoped():
        return Budget.current()

    with operation() as outer:
        with operation() as inner:
            assert inner is outer
        assert scoped() is outer
        assert enum_A(TQB, (0, 0), 3) and shift_norm_sq(ex52_weights(), TQB, (0, 0), 2)
        assert outer.used > 0
    assert (len(built), len(reads)) == (1, 1)
    # a bare call is an operation of its own, and each scope unbinds its
    # budget when it ends, by return or by raise
    assert scoped() is not outer
    assert (len(built), len(reads)) == (2, 2)
    with pytest.raises(ValueError):
        with operation():
            raise ValueError
    with pytest.raises(ValueError):
        enum_A(TQB, (0, 0), -1)
    assert Budget.current() is not Budget.current()


def test_budget_env_validation(monkeypatch):
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "zero")
    with pytest.raises(ValueError):
        vertex_cap()
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "-5")
    with pytest.raises(ValueError):
        vertex_cap()


def test_budget_explicit(monkeypatch):
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "3")
    b = Budget()
    b.charge(3)
    with pytest.raises(ResourceCapError):
        b.charge()


# ---------------------------------------------------------------------------
# adjacency files


GOOD = """
# a finite patch of a binary-ish tree
#boundary: r x y q
r: a b
a: x q
b: c y
c: z w
z: z1
w: w1
#boundary: z1 w1
"""


def test_load_adjacency_roundtrip():
    k = load_adjacency(GOOD)
    assert k.children("r") == ("a", "b")
    assert k.parent("c") == "b"
    assert k.params["vertices"] == 11
    with pytest.raises(UnknownVertexError):
        k.parent("r")
    with pytest.raises(UnknownVertexError):
        k.children("x")
    with pytest.raises(UnknownVertexError):
        k.children("nope")
    assert k.parse_vertex("a") == "a"
    with pytest.raises(UnknownVertexError):
        k.parse_vertex("ghost")


@pytest.mark.parametrize("text,hint", [
    ("a: a\n#boundary: a", "self-loop"),
    ("a: c\nb: c\n#boundary: a b c", "already has a parent"),
    ("a: b b\n#boundary: a b", "already has a parent"),
    ("a: b\na: c\n#boundary: a b c", "duplicate declaration"),
    ("a: b\n#boundary: a", "leaf detected"),
    ("r: a\na:\n#boundary: r", "leaf detected"),
    (": b\n#boundary: b", "empty vertex token"),
    ("a: b\nb: a2\n#boundary: b a2", "no parent"),
    ("a: b\nb: c\nc: a\n", "cycle"),
    ("", "no vertices"),
    ("a b c", "expected"),
    ("a: b\n#boundary: a b ghost", "never appears"),
])
def test_load_adjacency_rejects(text, hint):
    with pytest.raises(MalformedTreeError, match=hint):
        load_adjacency(text)


def raised(call, v) -> str:
    with pytest.raises(UnknownVertexError) as info:
        call(v)
    return str(info.value)


ADJ = load_adjacency(GOOD)


@pytest.mark.parametrize("kernel, v", [
    *[(TQB, bad) for bad in TQB_BAD],
    *[(TK3, bad) for bad in [(0, 1), (2, 0), (1, 4), (-1, 2), (1,), None]],
    (ZP, "0"), (ZP, None),
    (ADJ, "r"), (ADJ, "ghost"),
])
def test_siblings_reject_what_children_of_parent_rejects(kernel, v):
    assert raised(kernel.siblings, v) == raised(lambda u: kernel.children(kernel.parent(u)), v)


# ---------------------------------------------------------------------------
# properties


def tkinf_vertex(k):
    return st.one_of(st.builds(lambda m: (m, 0), st.integers(-8, 0)),
                     st.tuples(st.integers(1, 8), st.integers(1, k)))


kernel_and_vertex = st.one_of(
    st.tuples(st.just(TQB), st.tuples(st.integers(0, 6), st.integers(-12, 12))),
    st.integers(1, 5).flatmap(lambda k: st.tuples(st.just(TkInfKernel(k)), tkinf_vertex(k))),
    st.tuples(st.just(ZP), st.integers(-40, 40)),
    # every vertex of GOOD but the root r, boundary vertices x, q, y, z1, w1 included
    st.tuples(st.just(ADJ), st.sampled_from(["a", "b", "c", "q", "w", "w1", "x", "y",
                                             "z", "z1"])),
)


@given(kernel_and_vertex)
def test_siblings_are_the_children_of_the_parent(case):
    kernel, v = case
    assert kernel.siblings(v) == kernel.children(kernel.parent(v))


def unary_walk(kernel, u, depth):
    """The lone-child walk that tqb's `ray` answers in closed form:
    children calls until a vertex does not have exactly one child, or
    `depth` lone children are listed."""
    chain = []
    for _ in range(depth):
        kids = kernel.children(u)
        if len(kids) != 1:
            return chain, kids
        u = kids[0]
        chain.append(u)
    return chain, None


def chain_vertices(chain):
    """The vertices a `RayChain` stands for."""
    return [(n, chain.m) for n in range(chain.start, chain.stop)]


@settings(max_examples=300)
@given(st.tuples(st.integers(0, 6), st.integers(-12, 12)), st.integers(1, 12))
@example((3, 1), 4)
@example((0, 2), 1)
@example((1, 0), 1)
def test_ray_is_the_unary_walk(u, depth):
    # a chain where the walk lists `depth` lone children, and None where it
    # branches first, which on tqb is the spine, at once
    chain = TQB.ray(u, depth)
    want, kids = unary_walk(TQB, u, depth)
    if chain is None:
        assert want == [] and len(kids) == 2
    else:
        assert (chain_vertices(chain), kids) == (want, None)


@settings(max_examples=200)
@given(st.integers(1, 6), st.integers(-5, 5), st.integers(1, 12))
@example(3, 1, 4)
def test_tqb_ray_chain_describes_the_walk(n, m, depth):
    # below n >= 1 the ray never branches: a descriptor of `depth` vertices
    # whose last vertex is the walk's
    chain = TQB.ray((n, m), depth)
    want, _ = unary_walk(TQB, (n, m), depth)
    assert isinstance(chain, RayChain)
    assert (chain.start, chain.stop, chain.m) == (n + 1, n + depth + 1, m)
    assert len(want) == depth
    assert chain.last == want[-1] == (n + depth, m)


@given(kernel_and_vertex.filter(lambda case: case[0] is not TQB), st.integers(1, 12))
@example((TkInfKernel(3), (0, 0)), 5)
@example((TkInfKernel(1), (-2, 0)), 5)
@example((ZP, 0), 1)
@example((ADJ, "c"), 3)
@example((ADJ, "z1"), 2)
def test_default_ray_knows_no_closed_form(case, depth):
    # no chain, so descend's level loop walks from u, level by level, and
    # raises children's error at a boundary vertex of a file
    kernel, u = case
    assert type(kernel).ray is TreeKernel.ray
    assert kernel.ray(u, depth) is None
    try:
        level = [u]
        for _ in range(depth):
            level = [c for w in level for c in kernel.children(w)]
    except UnknownVertexError as exc:
        assert raised(lambda v: descend(kernel, [(v, 0.0)], depth), u) == str(exc)
        return
    assert descend(kernel, [(u, 0.0)], depth) == [(c, 0.0) for c in level]


def test_a_walk_without_a_closed_form_raises_the_level_loops_error():
    # r -> a -> b -> c -> z with no weight on file for a: one vertex or two,
    # the walk stops at a's weight, before any children call past it
    kernel = load_adjacency("#boundary: r z\nr: a\na: b\nb: c\nc: z\n")
    ws = load_weight_csv("b,1.0\nc,2.0\nz,0.5\n", kernel)
    with pytest.raises(MissingWeightError, match="'a'"):
        shift_norm_sq(ws, kernel, "r", 5)
    with pytest.raises(MissingWeightError, match="'a'"):
        descend(kernel, [("r", 0.0), ("r", 0.0)], 5, ws)


class LogFunctionWeights(FunctionWeights):
    """Log weights given by the function itself, so they may leave the
    range a weight could have."""

    def log_weight(self, v):
        return self._fn(v)


def test_ray_fold_is_the_level_loops_left_fold():
    # a compensated sum (`sum` from Python 3.12 on, or math.fsum) keeps the
    # 1.0 that the left fold loses to the ulp of 1e16
    logs = {0: 0.0, 1: 0.0, 2: 1e16, 3: 1.0, 4: -1e16, 5: 0.5}
    ws = LogFunctionWeights(lambda v: logs[v[0]])
    want = 0.0
    for n in range(2, 6):
        want = want + logs[n]
    assert want == 0.5 != math.fsum(logs.values())
    # the stream's generation 5 at (0, 0) folds the ray (2, 5) ... (5, 5)
    # below (1, 5); descend walks it, and a frontier of two, level by level
    *_, (_, _, _, fold) = islice(generation_stream(ws, TQB, (0, 0)), 6)
    ray = descend(TQB, [((1, 5), 0.0)], 4, ws)
    level_loop = descend(TQB, [((1, 5), 0.0), ((1, 7), 0.0)], 4, ws)
    assert [(u, acc.hex()) for u, acc in fold] == [((5, 5), want.hex())]
    assert [(u, acc.hex()) for u, acc in ray] == [((5, 5), want.hex())]
    assert [(u, acc.hex()) for u, acc in level_loop] == [((5, 5), want.hex()),
                                                         ((5, 7), want.hex())]


RAY_BAD = [
    *[(TQB, bad) for bad in TQB_BAD],
    *[(TkInfKernel(k), bad) for k in (1, 3)
      for bad in [(0, 1), (2, 0), (1, 4), (-1, 2), (1,), None]],
    (ZP, "0"), (ZP, None), (ZP, 1.5),
    (ADJ, "ghost"), (ADJ, "x"),
]


@pytest.mark.parametrize("kernel, v", RAY_BAD)
def test_ray_rejects_what_children_rejects(kernel, v):
    # tqb's ray checks v itself; the default knows no ray, so a walk from v
    # raises children's error in the level loop
    for depth in (1, 3):
        if kernel is TQB:
            assert raised(lambda u: kernel.ray(u, depth), v) == raised(kernel.children, v)
        else:
            assert kernel.ray(v, depth) is None
        walk = raised(lambda u: descend(kernel, [(u, 0.0)], depth), v)
        assert walk == raised(kernel.children, v)


@pytest.mark.parametrize("kernel, v", [case for case in RAY_BAD if case[0] is not ADJ])
def test_inline_vertex_tests_raise_what_check_raises(kernel, v):
    for step in (kernel.children, kernel.parent, lambda u: descend(kernel, [(u, 0.0)], 2)):
        assert raised(step, v) == raised(kernel._check, v)


@given(st.integers(-40, 40), st.integers(0, 12))
def test_zpath_iterates_commute(v, n):
    assert par_n(ZP, child_n(ZP, v, n)[0], n) == v


@settings(max_examples=60)
@given(st.integers(0, 5), st.integers(-12, 12), st.integers(0, 5))
def test_tqb_parent_undoes_descent(n0, m0, steps):
    v = (n0, m0)
    cur = v
    for _ in range(steps):
        cur = TQB.children(cur)[0]
    assert par_n(TQB, cur, steps) == v


@settings(max_examples=60)
@given(st.integers(-6, 6), st.integers(1, 4), st.integers(0, 6))
def test_tkinf_shell_sizes(m, j, n):
    """|A(v, n)| on the k-ray tree is k-1 exactly at the branch distance."""
    k = TK3.k
    v = (m, 0) if m <= 0 else (m, min(j, k))
    span = TK3.generation_span(v)
    size = len(enum_A(TK3, v, n))
    if n == 0:
        assert size == 1
    elif span and n == span:
        assert size == k - 1
    else:
        assert size == 0
