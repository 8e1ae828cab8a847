"""Lazy rootless directed trees and their generation combinatorics.

A tree kernel answers two local questions: the ordered children of a vertex
and its parent.  Everything else (iterated maps, the shells A(v, n), windows,
bilateral paths) is derived here.  Kernels are lazy: the trees are infinite
and vertices are produced on demand.
"""

from __future__ import annotations

import os
from contextvars import ContextVar
from dataclasses import dataclass
from functools import wraps

from .errors import MalformedTreeError, ResourceCapError, UnknownVertexError

DEFAULT_VERTEX_CAP = 10**6
_operation_budget = ContextVar("woldlab_operation_budget", default=None)
# `token = bind_budget(b)` makes b the current budget for the walks that
# follow, until `unbind_budget(token)`: a generator that bound a budget when
# iteration started charges it wherever it is resumed this way.  A binding
# may nest but must not span a yield.  `bound_budget()` is the budget bound
# now, or None, and builds none.
bound_budget = _operation_budget.get
bind_budget, unbind_budget = _operation_budget.set, _operation_budget.reset


def vertex_cap() -> int:
    """Resource cap on enumerated vertices, overridable via WOLDLAB_MAX_VERTICES."""
    raw = os.environ.get("WOLDLAB_MAX_VERTICES")
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise ValueError(
            f"WOLDLAB_MAX_VERTICES must be a positive integer, got {raw!r}"
        ) from None
    if cap <= 0:
        raise ValueError("WOLDLAB_MAX_VERTICES must be a positive integer")
    return cap


class Budget:
    """Counts vertices touched by one logical operation against the cap, and
    holds the operation's memos (one term-stream record per top vertex,
    one ray row per key, Cauchy duals), which die with it."""

    def __init__(self) -> None:
        self.cap = vertex_cap()
        self.used = 0
        self.memos: dict = {}

    def charge(self, k: int = 1) -> None:
        self.used += k
        if self.used > self.cap:
            raise ResourceCapError(f"enumeration touched more than {self.cap} vertices")

    @classmethod
    def current(cls) -> Budget:
        """The enclosing operation's budget; a walk outside any operation gets its own."""
        return _operation_budget.get() or cls()


class operation:
    """Scope of one logical operation: `with operation() as budget:` around
    a block, or `@operation()` on a function.  The outermost scope builds
    one `Budget`, reading the cap once; every walk inside charges it.  A
    nested scope joins it and shares its memos, at the cost of one
    ContextVar read: it builds no budget and reads no cap.  An instance
    serves one `with` at a time; as a decorator it serves every call."""

    __slots__ = ("_token",)

    def __enter__(self) -> Budget:
        budget = _operation_budget.get()
        self._token = None
        if budget is None:
            budget = Budget()
            self._token = bind_budget(budget)
        return budget

    def __exit__(self, *exc) -> None:
        if self._token is not None:
            unbind_budget(self._token)

    def __call__(self, fn):
        get = _operation_budget.get

        @wraps(fn)
        def scoped(*args, **kwargs):
            if get() is not None:
                return fn(*args, **kwargs)
            token = bind_budget(Budget())
            try:
                return fn(*args, **kwargs)
            finally:
                unbind_budget(token)
        return scoped


class TreeKernel:
    """Base class for tree kernels.

    Subclasses implement `children` (finite, ordered, deterministic) and
    `parent`.  Both must be pure: same vertex in, same answer out, so that
    kernels can be shared freely.  `siblings` may be overridden by a closed
    form that gives the same answers, and `ray` by a closed form of the
    kernel's unary rays.
    """

    name = "abstract"
    params: dict = {}

    def children(self, v):
        raise NotImplementedError

    def parent(self, v):
        raise NotImplementedError

    def siblings(self, v):
        """children(par v): v and its siblings, in the kernel's order."""
        return self.children(self.parent(v))

    def ray(self, u, depth):
        """The unary ray below u, `depth` >= 1 levels of it, as a `RayChain`
        of lone children, each the only child of the vertex before it; or
        None where the kernel knows no closed form, and the walk takes
        `descend`'s level loop.  Only the series term stream asks, to fold
        a one-vertex rung.  This default knows none.
        """
        return None

    def default_base(self):
        raise NotImplementedError

    def parse_vertex(self, text: str):
        raise NotImplementedError

    def format_vertex(self, v) -> str:
        raise NotImplementedError

    def generation_span(self, v) -> int | None:
        """Largest n with A(v, n) nonempty, when known structurally.

        Returns None when the kernel cannot certify a bound; series code then
        falls back to heuristics.  A return value of s means A(v, n) is empty
        for every n > s.
        """
        return None


def _parse_int_pair(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected vertex as 'n,m', got {text!r}")
    return int(parts[0]), int(parts[1])


class ZPathKernel(TreeKernel):
    """The bilateral path: vertices are integers, m -> m+1."""

    name = "zpath"
    params: dict = {}

    # every walker step: test inline with _check's condition, call it to raise
    def children(self, v):
        if not isinstance(v, int):
            self._check(v)
        return (v + 1,)

    def parent(self, v):
        if not isinstance(v, int):
            self._check(v)
        return v - 1

    def default_base(self):
        return 0

    def parse_vertex(self, text):
        return int(text)

    def format_vertex(self, v):
        return str(v)

    def generation_span(self, v):
        return 0

    @staticmethod
    def _check(v):
        if not isinstance(v, int):
            raise UnknownVertexError(f"zpath vertices are integers, got {v!r}")


class TkInfKernel(TreeKernel):
    """A bilateral spine (m, 0), m <= 0, with k rays glued below (0, 0).

    Ray vertices are (m, j) with m >= 1 and 1 <= j <= k.
    """

    name = "tkinf"

    def __init__(self, k: int) -> None:
        if k < 1:
            raise ValueError("tkinf needs k >= 1")
        self.k = k
        self.params = {"k": k}
        self._rays = tuple((1, i) for i in range(1, k + 1))

    def _check(self, v):
        if not (isinstance(v, tuple) and len(v) == 2):
            raise UnknownVertexError(f"tkinf vertices are integer pairs, got {v!r}")
        m, j = v
        if m <= 0:
            if j != 0:
                raise UnknownVertexError(f"{v!r} is not a tkinf spine vertex")
        elif not 1 <= j <= self.k:
            raise UnknownVertexError(f"{v!r} is outside the {self.k} rays")

    # every walker step: test inline with _check's conditions, call it to raise
    def children(self, v):
        if not (isinstance(v, tuple) and len(v) == 2
                and (v[1] == 0 if v[0] <= 0 else 1 <= v[1] <= self.k)):
            self._check(v)
        m, j = v
        if m < 0:
            return ((m + 1, 0),)
        if m == 0:
            return self._rays
        return ((m + 1, j),)

    def parent(self, v):
        if not (isinstance(v, tuple) and len(v) == 2
                and (v[1] == 0 if v[0] <= 0 else 1 <= v[1] <= self.k)):
            self._check(v)
        m, j = v
        if m <= 0:
            return (m - 1, 0)
        if m == 1:
            return (0, 0)
        return (m - 1, j)

    def default_base(self):
        return (0, 0)

    def parse_vertex(self, text):
        return _parse_int_pair(text)

    def format_vertex(self, v):
        return f"{v[0]},{v[1]}"

    def generation_span(self, v):
        self._check(v)
        m, _ = v
        # Spine vertices sit alone in their generation; a ray vertex (m, j)
        # meets its k-1 cousins at shell index m and nothing later.
        return 0 if m <= 0 else m


class RayChain:
    """The vertices (start, m), (start + 1, m), ..., (stop - 1, m) of a tqb
    ray, as `TqbKernel.ray` gives them, by descriptor: weight systems read
    (start, stop, m), and the term stream's fold the last vertex."""

    __slots__ = ("start", "stop", "m")

    def __init__(self, start: int, stop: int, m: int) -> None:
        self.start, self.stop, self.m = start, stop, m

    @property
    def last(self):
        return (self.stop - 1, self.m)


class TqbKernel(TreeKernel):
    """Bilateral spine (0, m) with a copy of the unary tree glued at each m.

    Children of (0, m) are (0, m-1) and (1, m); above n >= 1 the rays are
    unary.  Generations are infinite, so no span is certified.
    """

    name = "tqb"
    params: dict = {}

    @staticmethod
    def _check(v):
        if not (isinstance(v, tuple) and len(v) == 2):
            raise UnknownVertexError(f"tqb vertices are integer pairs, got {v!r}")
        if v[0] < 0:
            raise UnknownVertexError(f"{v!r} has negative ray coordinate")

    # every walker step: test inline with _check's conditions, call it to raise
    def children(self, v):
        if not (isinstance(v, tuple) and len(v) == 2) or v[0] < 0:
            self._check(v)
        n, m = v
        if n == 0:
            return ((0, m - 1), (1, m))
        return ((n + 1, m),)

    def parent(self, v):
        if not (isinstance(v, tuple) and len(v) == 2) or v[0] < 0:
            self._check(v)
        n, m = v
        if n == 0:
            return (0, m + 1)
        return (n - 1, m)

    def siblings(self, v):
        if not (isinstance(v, tuple) and len(v) == 2) or v[0] < 0:
            self._check(v)
        n, m = v
        if n >= 2:
            return (v,)
        # the two children of the spine vertex (0, m + 1 - n)
        m += 1 - n
        return ((0, m - 1), (1, m))

    def ray(self, u, depth):
        if not (isinstance(u, tuple) and len(u) == 2) or u[0] < 0:
            self._check(u)
        n, m = u
        if n == 0:
            return None     # the spine branches
        return RayChain(n + 1, n + depth + 1, m)

    def default_base(self):
        return (0, 0)

    def parse_vertex(self, text):
        v = _parse_int_pair(text)
        self._check(v)
        return v

    def format_vertex(self, v):
        return f"{v[0]},{v[1]}"


class AdjacencyKernel(TreeKernel):
    """Finite window of a tree loaded from an adjacency description.

    Vertices are opaque string tokens.  Vertices on the declared boundary
    have truncated information (unknown children, or an unknown parent);
    querying past the boundary raises UnknownVertexError.
    """

    name = "file"

    def __init__(self, children_map, parent_map, boundary, order):
        self._children = children_map
        self._parent = parent_map
        self._boundary = frozenset(boundary)
        self._order = tuple(order)
        self.params = {"vertices": len(order), "boundary": sorted(self._boundary)}

    def children(self, v):
        if v in self._children:
            return self._children[v]
        if v in self._boundary:
            raise UnknownVertexError(f"children of boundary vertex {v!r} are not declared")
        raise UnknownVertexError(f"unknown vertex {v!r}")

    def parent(self, v):
        if v in self._parent:
            return self._parent[v]
        if v in self._boundary:
            raise UnknownVertexError(f"parent of boundary vertex {v!r} is not declared")
        raise UnknownVertexError(f"unknown vertex {v!r}")

    def default_base(self):
        return self._order[0]

    def parse_vertex(self, text):
        if text not in self._children and text not in self._boundary:
            raise UnknownVertexError(f"unknown vertex {text!r}")
        return text

    def format_vertex(self, v):
        return str(v)


def load_adjacency(text: str) -> AdjacencyKernel:
    """Parse the line-oriented adjacency format into a kernel.

    Each line reads `<vertex>: <child> <child> ...`; a header line
    `#boundary: <v> ...` declares the truncation boundary.  The loader
    enforces the tree contract: no self-loops, a unique parent per vertex,
    no cycles, and no leaves or missing parents away from the boundary.
    """
    children_map: dict[str, tuple[str, ...]] = {}
    parent_of: dict[str, str] = {}
    boundary: set[str] = set()
    order: dict[str, None] = {}     # every token, in first-mention order

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#boundary:"):
            boundary.update(line[len("#boundary:"):].split())
            continue
        if line.startswith("#"):
            continue
        if ":" not in line:
            raise MalformedTreeError(f"line {lineno}: expected '<vertex>: children'")
        head, _, tail = line.partition(":")
        v = head.strip()
        if not v:
            raise MalformedTreeError(f"line {lineno}: empty vertex token")
        kids = tuple(tail.split())
        if v in children_map:
            raise MalformedTreeError(f"line {lineno}: duplicate declaration of {v!r}")
        for c in kids:
            if c == v:
                raise MalformedTreeError(f"line {lineno}: self-loop at {v!r}")
            if c in parent_of:
                raise MalformedTreeError(
                    f"line {lineno}: {c!r} already has a parent (trees have unique parents)"
                )
            parent_of[c] = v
        children_map[v] = kids
        order.update(dict.fromkeys((v, *kids)))     # a known token keeps its place

    if not children_map:
        raise MalformedTreeError("adjacency text declares no vertices")

    declared = children_map.keys()
    mentioned = order.keys()
    for v in boundary:
        if v not in mentioned:
            raise MalformedTreeError(f"boundary vertex {v!r} never appears in the tree")

    # Leafless away from the boundary: every mentioned vertex needs children.
    for v in sorted(mentioned - declared):
        if v not in boundary:
            raise MalformedTreeError(f"leaf detected at non-boundary vertex {v!r}")
    for v, kids in children_map.items():
        if not kids and v not in boundary:
            raise MalformedTreeError(f"leaf detected at non-boundary vertex {v!r}")

    # Rootless away from the boundary: every declared vertex needs a parent.
    for v in children_map:
        if v not in parent_of and v not in boundary:
            raise MalformedTreeError(f"vertex {v!r} has no parent and is not on the boundary")

    # Acyclic: following parents from any vertex must leave the finite window.
    for start in children_map:
        cur, steps = start, 0
        while cur in parent_of:
            cur = parent_of[cur]
            steps += 1
            if steps > len(mentioned):
                raise MalformedTreeError(f"parent chain from {start!r} never terminates (cycle)")

    # Order stays deterministic: first-mention order from the file.
    return AdjacencyKernel(children_map, parent_of, boundary, order)


BUILTIN_TREES = ("zpath", "tkinf", "tqb")


def make_kernel(spec: str) -> TreeKernel:
    """Build a builtin kernel from a spec string like 'tqb' or 'tkinf:k=3'."""
    name, _, rest = spec.partition(":")
    name = name.strip()
    if name == "zpath":
        return ZPathKernel()
    if name == "tqb":
        return TqbKernel()
    if name == "tkinf":
        arg = rest.strip()
        if arg.startswith("k="):
            arg = arg[2:]
        if not arg:
            raise ValueError("tkinf needs a ray count, e.g. tkinf:k=3")
        return TkInfKernel(int(arg))
    raise ValueError(f"unknown tree {name!r} (builtins: {', '.join(BUILTIN_TREES)})")


# ---------------------------------------------------------------------------
# iterated maps and generation shells


def _no_weight(v) -> float:
    return 0.0


def descend(kernel: TreeKernel, frontier, depth: int, ws=None):
    """Expand a frontier of (vertex, log) pairs `depth` levels down, one
    level at a time.

    Each level is charged to the current budget (`Budget.current()`, read
    once per call), so a huge `depth` trips at the cap holding one level.
    A child's entry is its parent's log plus the log weight of the child
    under the weight system `ws`; an unweighted walk (`ws` None) adds a
    zero weight, which keeps the loop free of per-vertex branches.
    Iterated children, shells, shift-power norms and the series term
    stream's rungs that it does not fold all descend here; windows, which
    keep every level, take one plain pass in `window_depth_classes`.
    """
    children, charge = kernel.children, Budget.current().charge
    log_weight = _no_weight if ws is None else ws.log_weight
    for _ in range(depth):
        nxt = []
        append = nxt.append
        for u, acc in frontier:
            for c in children(u):
                append((c, acc + log_weight(c)))
        charge(len(nxt))
        frontier = nxt
    return frontier


def shell(kernel: TreeKernel, top, n: int, ws=None):
    """The shell A(v, n), n >= 1, as (u, log) pairs, from top = par^(n-1)(v).

    A(v, 1) = Chi(par(v)) minus v, and A(v, n) = Chi(A(par(v), n-1)); the
    unrolled form drops the one child of par(top) leading back to v and
    expands the rest n-1 levels by `descend`'s level loop.  Logs accumulate
    from the shell's first level under the weight system `ws`, and every
    level is charged to the current budget.  The series term stream weighs
    and charges a first level the same way when it has no deeper rung to
    walk down from, and then folds or descends from it itself; a fresh
    `shell` is the level-loop oracle its members are tested against.
    """
    log_weight = _no_weight if ws is None else ws.log_weight
    first = [(c, log_weight(c)) for c in kernel.children(kernel.parent(top)) if c != top]
    Budget.current().charge(len(first))
    return descend(kernel, first, n - 1, ws)


def child_n(kernel: TreeKernel, v, n: int):
    """Chi^n(v) as an ordered tuple; n = 0 gives (v,)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(u for u, _ in descend(kernel, [(v, 0.0)], n))


def par_n(kernel: TreeKernel, v, n: int):
    """par^n(v); n = 0 gives v.  Each step is charged to the current budget,
    so a huge `n` trips at the cap."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    parent, charge = kernel.parent, Budget.current().charge
    for _ in range(n):
        v = parent(v)
        charge()
    return v


@operation()
def enum_A(kernel: TreeKernel, v, n: int):
    """The shell A(v, n) as an ordered tuple, via `shell`, in one operation."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return (v,)
    top = par_n(kernel, v, n - 1)
    return tuple(u for u, _ in shell(kernel, top, n))


# ---------------------------------------------------------------------------
# windows and paths


@dataclass(frozen=True)
class Window:
    """Anchored finite patch: depth_up parent steps, then a subtree sweep.

    The vertex set is every u reachable as Chi^j(par^i(base)) with
    i <= depth_up and j <= i + depth_down, which works out to the full
    subtree of depth depth_up + depth_down below the top anchor
    T = par^depth_up(base).  Its level d, Chi^d(T), is the generation set
    G_{u,d} = Chi^d(par^d(u)) of each of its members u.
    """

    base: object
    depth_up: int
    depth_down: int

    def __post_init__(self):
        if self.depth_up < 0 or self.depth_down < 0:
            raise ValueError("window depths must be nonnegative")


def window_depth_classes(kernel: TreeKernel, w: Window):
    """Window vertices grouped by depth below the top anchor T, top first.

    Class d is Chi^d(T), and every member u has par^d(u) = T, so the class
    is the paper's generation set G_{u,d}, whole; no class mixes depths.
    The up-walk to T charges its steps through `par_n`; outside any
    operation it takes a budget of its own, as every bare walk does.
    """
    budget = Budget.current()
    levels = [[par_n(kernel, w.base, w.depth_up)]]
    budget.charge()
    for _ in range(w.depth_up + w.depth_down):
        level = [c for u in levels[-1] for c in kernel.children(u)]
        budget.charge(len(level))
        levels.append(level)
    return levels


def window_vertices(kernel: TreeKernel, w: Window):
    """Deterministic enumeration of the window: its depth classes, top first."""
    return [u for cls in window_depth_classes(kernel, w) for u in cls]


def path_vertex(kernel: TreeKernel, anchor, m: int):
    """v_m of the canonical two-sided path with v_0 = anchor.

    Forward steps (m > 0) take the least child under the vertex order (a
    fixed, reproducible stand-in for an arbitrary choice); backward steps
    (m < 0) take parents, by `par_n`.  Each step is charged to the current
    budget, and nothing is memoized.
    """
    if m < 0:
        return par_n(kernel, anchor, -m)
    children, charge = kernel.children, Budget.current().charge
    for _ in range(m):
        anchor = min(children(anchor))
        charge()
    return anchor
