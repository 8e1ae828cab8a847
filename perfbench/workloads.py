"""Seeded operation lists for the benchmark workloads.

Every workload draws its operations from a finite pool, so that reference
results for the whole pool can be captured once (see capture.py) and any
seed's list can be checked against them.  A seed fixes which pool members
are drawn and in what order.  The number of operations of each kind, the
multiset of series lengths and the tree, rule and window cases are the same
for every seed; the seed mostly picks vertices.  So the cost of a list, and
its median and tail operations, do not depend on the seed.

An operation is either one `woldlab.cli.main(argv)` call or one library
call.  Its `key` is the canonical text that indexes the reference file.
"""

from __future__ import annotations

import random


class Op:
    """One operation: CLI arguments, or a library call described by `lib`.

    `meta` holds the parameters the correctness checks need (command,
    tree, weights, vertex, dual, plugins, ...).
    """

    __slots__ = ("key", "argv", "lib", "meta")

    def __init__(self, argv=None, lib=None, **meta):
        self.argv = tuple(argv) if argv is not None else None
        self.lib = lib
        self.meta = meta
        if self.argv is not None:
            self.key = "cli: " + " ".join(self.argv)
        else:
            name, tree, weights, base, up, down, n_max = lib
            self.key = (f"lib: {name} --tree {tree} --weights {weights} "
                        f"--vertex={base} --window {up},{down} --n-max {n_max}")


def _cli(*argv, **meta) -> Op:
    return Op(argv=argv, **meta)


def _vertex_text(v) -> str:
    return str(v) if isinstance(v, int) else f"{v[0]},{v[1]}"


# ---------------------------------------------------------------------------
# heuristic: the Theta(N^2) term stream and the dual-cache miss path

HEURISTIC_VERTICES = ([(0, m) for m in range(-8, 7)]
                      + [(n, m) for n in (1, 2, 3) for m in range(-5, 5)])
HEURISTIC_NS = (200, 200, 200, 200, 200, 200, 300, 300)
KNOWN_DEFECTS = ((0, -4), (1, -3))      # heuristic term-floor vs analytic 224.885
KNOWN_DEFECT_N = 200


def heuristic_alpha(v, N: int) -> Op:
    return _cli("alpha", "--tree", "tqb", "--weights", "ex52",
                f"--vertex={_vertex_text(v)}", "--dual", "--no-plugins",
                "--N", str(N),
                cmd="alpha", tree="tqb", weights="ex52", vertex=v, dual=True,
                plugins=False)


def heuristic_fixed() -> list[Op]:
    return [
        _cli("repro", "ex52", "--tamper", cmd="repro", tamper=True),
        _cli("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0",
             "--no-plugins", cmd="wold", tree="tqb", weights="ex52",
             vertex=(0, 0), plugins=False),
    ] + [heuristic_alpha(v, KNOWN_DEFECT_N) for v in KNOWN_DEFECTS]


def heuristic_pool() -> list[Op]:
    ops = heuristic_fixed()
    ops += [heuristic_alpha(v, N) for v in HEURISTIC_VERTICES
            for N in sorted(set(HEURISTIC_NS))]
    return ops


def heuristic_ops(rng: random.Random) -> list[Op]:
    ns = list(HEURISTIC_NS)
    rng.shuffle(ns)
    picks = rng.sample(HEURISTIC_VERTICES, len(ns))
    return heuristic_fixed() + [heuristic_alpha(v, N) for v, N in zip(picks, ns)]


# ---------------------------------------------------------------------------
# analytic: many short verdicts, plugins on

ANALYTIC_VERTICES = ([(0, m) for m in range(-4, 5)]
                     + [(n, m) for n in (1, 2) for m in range(-3, 4)])
A_RULES = ("const:0.5", "const:1", "const:2", "table:0=2,1=3,default=1")
B_RULES = ("const:1", "const:2", "const:3", "table:-1=2,2=0.5,default=1")
PROP51_VERTICES = ((0, 0), (0, 1), (1, 2), (0, -2), (2, -1))
CONSTANTS = ("0.5", "1", "2", "3")
CONSTANT_VERTICES = ((0, 0), (1, 1), (0, -2), (2, 0))
TKINF_KS = (2, 3, 4)
TKINF_WOLD_VERTICES = ((0, 0), (-1, 0), (-3, 0), (1, 1), (2, 2))
ZPATH_VERTICES = tuple(range(-3, 4))
SHORT_NS = (30, 30, 30, 40, 40, 40)
CLOSED_FORM_DUAL = ((0, 0), (0, 1), (0, -4), (1, -3))
NONFINITE = ("nan", "inf")


def wold_op(tree: str, weights: str, v, a=None, b=None) -> Op:
    argv = ["wold", "--tree", tree, "--weights", weights]
    if a is not None:
        argv += ["--a", a, "--b", b]
    argv.append(f"--vertex={_vertex_text(v)}")
    return _cli(*argv, cmd="wold", tree=tree, weights=weights, vertex=v,
                plugins=True, a=a, b=b)


def short_alpha(v, N: int) -> Op:
    return _cli("alpha", "--tree", "tqb", "--weights", "ex52",
                f"--vertex={_vertex_text(v)}", "--dual", "--N", str(N),
                cmd="alpha", tree="tqb", weights="ex52", vertex=v, dual=True,
                plugins=True)


def analytic_fixed() -> list[Op]:
    ops = [short_alpha(v, 40) for v in CLOSED_FORM_DUAL]
    ops.append(_cli("repro", "ex52", cmd="repro", tamper=False))
    for c in NONFINITE:
        ops.append(wold_op("zpath", f"constant:{c}", 0))
        ops.append(wold_op("tqb", f"constant:{c}", (0, 0)))
    return ops


def _tkinf_wold(k: int, v) -> Op:
    return wold_op(f"tkinf:k={k}", "tkinf-isometric", v)


def analytic_pool() -> list[Op]:
    ops = analytic_fixed()
    ops += [wold_op("tqb", "ex52", v) for v in ANALYTIC_VERTICES]
    ops += [wold_op("tqb", "prop51", v, a, b)
            for a in A_RULES for b in B_RULES for v in PROP51_VERTICES]
    ops += [wold_op("tqb", f"constant:{c}", v)
            for c in CONSTANTS for v in CONSTANT_VERTICES]
    ops += [_tkinf_wold(k, v) for k in TKINF_KS for v in TKINF_WOLD_VERTICES]
    ops += [wold_op("zpath", "constant:1", v) for v in ZPATH_VERTICES]
    ops += [short_alpha(v, N) for v in ANALYTIC_VERTICES
            for N in sorted(set(SHORT_NS))]
    return ops


def analytic_ops(rng: random.Random) -> list[Op]:
    ops = analytic_fixed()
    ops += [wold_op("tqb", "ex52", v) for v in rng.sample(ANALYTIC_VERTICES, 20)]
    ops += [wold_op("tqb", "prop51", rng.choice(PROP51_VERTICES), a, b)
            for a in A_RULES for b in B_RULES]
    ops += [wold_op("tqb", f"constant:{c}", rng.choice(CONSTANT_VERTICES))
            for c in CONSTANTS]
    ops += [_tkinf_wold(k, rng.choice(TKINF_WOLD_VERTICES)) for k in TKINF_KS * 2]
    ops += [wold_op("zpath", "constant:1", v) for v in rng.sample(ZPATH_VERTICES, 3)]
    ops += [short_alpha(rng.choice(ANALYTIC_VERTICES), N) for N in SHORT_NS]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# window_diagnostics: operator, window enumeration, shift_norm_sq at powers

WINDOW_KS = (2, 3, 4, 5)
WINDOW_BASES = ((0, 0), (-2, 0), (1, 1), (2, 1))
WINDOWS = ((2, 2), (3, 3), (4, 4), (5, 5))
DEFECT_MS = tuple(range(1, 9))
GVEC_MS = (-2, -1, 0, 1, 2)
GVEC_NS = (12, 20)
LIB_WINDOWS = ((2, 2), (3, 3), (2, 3))
LIB_N_MAX = (2, 3, 4)
ZPATH_BASES = (-2, 0, 3)


def _tkinf_args(k: int, base, window) -> list[str]:
    return ["--tree", f"tkinf:k={k}", "--weights", "tkinf-isometric",
            f"--vertex={_vertex_text(base)}", "--window", f"{window[0]},{window[1]}"]


def _tkinf_meta(k: int, base, window) -> dict:
    return {"tree": f"tkinf:k={k}", "weights": "tkinf-isometric", "k": k,
            "vertex": base, "window": window}


def defect_op(k: int, base, window, m: int, fmt: str) -> Op:
    return _cli("defect", "--m", str(m), *_tkinf_args(k, base, window),
                "--format", fmt, cmd="defect", m=m, fmt=fmt,
                **_tkinf_meta(k, base, window))


def window_op(cmd: str, k: int, base, window) -> Op:
    head = ["tree", "show"] if cmd == "tree" else [cmd]
    tail = ["--format", "csv"] if cmd == "dual" else []
    return _cli(*head, *_tkinf_args(k, base, window), *tail, cmd=cmd,
                **_tkinf_meta(k, base, window))


def gvec_op(k: int, base, m: int, N: int) -> Op:
    return _cli("gvec", "--tree", f"tkinf:k={k}", "--weights", "tkinf-isometric",
                f"--vertex={_vertex_text(base)}", "--m", str(m), "--N", str(N),
                cmd="gvec", tree=f"tkinf:k={k}", weights="tkinf-isometric", k=k,
                vertex=base, m=m)


def lib_op(name: str, tree: str, weights: str, base, window, n_max: int) -> Op:
    return Op(lib=(name, tree, weights, _vertex_text(base), window[0], window[1], n_max),
              cmd=name, tree=tree, weights=weights, vertex=base, window=window)


def window_fixed() -> list[Op]:
    return [_cli("defect", "--tree", "zpath", "--weights", f"constant:{c}",
                 "--vertex=0", cmd="defect", tree="zpath", weights=f"constant:{c}",
                 vertex=0, m=3)
            for c in NONFINITE]


def _lib_pool(name: str) -> list[Op]:
    ops = [lib_op(name, f"tkinf:k={k}", "tkinf-isometric", base, w, n)
           for k in WINDOW_KS for base in WINDOW_BASES for w in LIB_WINDOWS
           for n in LIB_N_MAX]
    ops += [lib_op(name, "zpath", "constant:1", base, w, n)
            for base in ZPATH_BASES for w in LIB_WINDOWS for n in LIB_N_MAX]
    return ops


LIB_CALLS = ("wandering_orthogonality_check", "decomposition_report")


def window_pool() -> list[Op]:
    ops = window_fixed()
    ops += [defect_op(k, base, w, m, fmt) for k in WINDOW_KS for base in WINDOW_BASES
            for w in WINDOWS for m in DEFECT_MS for fmt in ("json", "csv")]
    ops += [window_op(cmd, k, base, w) for cmd in ("balanced", "dual", "tree")
            for k in WINDOW_KS for base in WINDOW_BASES for w in WINDOWS]
    ops += [gvec_op(k, base, m, N) for k in WINDOW_KS for base in WINDOW_BASES
            for m in GVEC_MS for N in GVEC_NS]
    for name in LIB_CALLS:
        ops += _lib_pool(name)
    return ops


# (k, window) and (k, window, n_max) cases drawn once per pass, so that the
# costs in a pass are the same for every seed; the seed picks base vertices
DEFECT_CASES = tuple(zip(WINDOW_KS * 2, WINDOWS + WINDOWS[::-1]))
GVEC_CASES = ((-2, 12), (0, 20), (1, 12), (2, 20))
LIB_CASES = ((2, (2, 2), 4), (3, (3, 3), 3), (4, (2, 3), 2), (5, (2, 2), 4),
             (2, (3, 3), 2), (3, (2, 3), 4), (4, (3, 3), 3), (5, (2, 3), 3))
ZPATH_LIB_CASES = (((2, 2), 4), ((3, 3), 3))


def window_ops(rng: random.Random) -> list[Op]:
    ops = window_fixed()
    for m in DEFECT_MS:
        for i, (k, w) in enumerate(DEFECT_CASES):
            ops.append(defect_op(k, rng.choice(WINDOW_BASES), w, m, ("json", "csv")[i % 2]))
    for cmd in ("balanced", "dual", "tree"):
        ops += [window_op(cmd, k, rng.choice(WINDOW_BASES), w)
                for k in WINDOW_KS for w in WINDOWS]
    ops += [gvec_op(k, rng.choice(WINDOW_BASES), m, N)
            for k in WINDOW_KS for m, N in GVEC_CASES]
    for name in LIB_CALLS:
        ops += [lib_op(name, f"tkinf:k={k}", "tkinf-isometric", rng.choice(WINDOW_BASES), w, n)
                for k, w, n in LIB_CASES]
        ops += [lib_op(name, "zpath", "constant:1", rng.choice(ZPATH_BASES), w, n)
                for w, n in ZPATH_LIB_CASES]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "heuristic": (heuristic_ops, heuristic_pool),
    "analytic": (analytic_ops, analytic_pool),
    "window_diagnostics": (window_ops, window_pool),
}


def operations(workload: str, seed: int) -> list[Op]:
    """The operation list of one pass of `workload` under `seed`."""
    make, _ = WORKLOADS[workload]
    return make(random.Random(f"{workload}:{seed}"))


def pool(workload: str) -> list[Op]:
    """Every operation any seed can draw for `workload`."""
    _, make = WORKLOADS[workload]
    return make()
