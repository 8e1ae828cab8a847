"""Command-line front end.

Verdicts are data: a `wold` run that concludes NoWold still exits 0.  Only
configuration mistakes (exit 2) and failed reproduction checks (exit 1) are
process failures.  With a fixed seed and config every command writes
byte-identical output, so runs can be diffed.
"""

from __future__ import annotations

import argparse
import csv as _csv
import functools
import io
import json
import math
import os
import sys
from itertools import chain, pairwise

from .errors import UnknownVertexError, WoldlabError
from .numerics import quadratic_tail_integral
from .operator import classify, defect_diagonal
from .series import SeriesConfig, alpha_partial, alpha_verdict, g_vector
from .tree_core import (BilateralPath, TqbKernel, Window, load_adjacency, make_kernel,
                        operation, window_depth_classes, window_vertices)
from .weights import (Prop51Weights, PolyRule, WeightSystem, boundedness_estimate,
                      cauchy_dual, ex52_weights, is_balanced, is_norm_increasing,
                      make_weights, shift_norm_sq)
from .wold import wold_verdict


def _build_kernel(spec: str):
    if os.path.sep in spec or os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as fh:
            return load_adjacency(fh.read())
    return make_kernel(spec)


def _strict_json(obj, indent: int | None = None, field: str = "") -> str:
    """JSON per RFC 8259, keys sorted.  A NaN or infinite value raises a
    ValueError naming its field; `field` is the path of `obj` itself."""
    try:
        return json.dumps(obj, sort_keys=True, indent=indent, allow_nan=False)
    except ValueError:
        raise ValueError(f"non-finite value at {_non_finite_field(obj, field)} "
                         "cannot be written as JSON") from None


def _non_finite_field(obj, path: str):
    """The path below `path` of the first non-finite float in `obj`, in the
    encoder's order, e.g. `table[506][1]` or
    `evidence.weight_relation.max_residual`; None if `obj` holds none."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = ((f"{path}.{k}" if path else k, v) for k, v in sorted(obj.items()))
    elif isinstance(obj, (list, tuple)):
        items = ((f"{path}[{i}]", v) for i, v in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _non_finite_field(value, sub)
        if found is not None:
            return found
    return None


def _json_text(obj) -> str:
    return _strict_json(obj, indent=2) + "\n"


def _alpha_json_text(vj: dict, rows: list) -> str:
    """`_json_text({"verdict": vj, "table": rows})` for a nonempty table of
    `(n, t_n, partial)` rows of plain ints and floats, whose repr is json's
    spelling.  The rows are written here in indent=2's layout and only the
    verdict goes through json, indented one more level at each newline
    (json escapes those within strings); a table with a non-finite value
    takes `_json_text` whole and fails there."""
    if not all(map(math.isfinite, chain.from_iterable(rows))):
        return _json_text({"verdict": vj, "table": rows})
    table = ",\n".join([f"    [\n      {n!r},\n      {t!r},\n      {s!r}\n    ]"
                         for n, t, s in rows])
    verdict = _strict_json(vj, indent=2, field="verdict").replace("\n", "\n  ")
    return f'{{\n  "table": [\n{table}\n  ],\n  "verdict": {verdict}\n}}\n'


def _csv_text(header, rows, trailer: str | None = None) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    text = buf.getvalue()
    if trailer is not None:
        text += f"# {trailer}\n"
    return text


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


class _Context:
    """Kernel, weights, window, and series config resolved from flags."""

    def __init__(self, args):
        self.kernel = _build_kernel(args.tree)
        self.base_ws = make_weights(args.weights, self.kernel,
                                    args.a_rule, args.b_rule)
        self.ws = cauchy_dual(self.base_ws, self.kernel) if args.dual else self.base_ws
        self.vertex = (self.kernel.parse_vertex(args.vertex)
                       if args.vertex is not None else self.kernel.default_base())
        try:
            up_s, down_s = args.window.split(",")
            up, down = int(up_s), int(down_s)
        except ValueError:
            raise ValueError(f"--window expects UP,DOWN integers, got {args.window!r}")
        self.window = Window(self.vertex, up, down)
        if args.N <= 0:
            raise ValueError("--N must be positive")
        self.cfg = SeriesConfig(n_max=args.N, use_plugins=not args.no_plugins)


# ---------------------------------------------------------------------------
# subcommands


def cmd_tree_show(args) -> int:
    ctx = _Context(args)
    k = ctx.kernel
    levels = window_depth_classes(k, ctx.window)
    if args.fmt == "json":
        obj = {
            "tree": k.name,
            "params": k.params,
            "window": {"base": k.format_vertex(ctx.window.base),
                       "up": ctx.window.depth_up, "down": ctx.window.depth_down},
            "levels": [{"depth": d, "vertices": [k.format_vertex(v) for v in lvl]}
                       for d, lvl in enumerate(levels)],
        }
        _emit(args, _json_text(obj))
    else:
        def child_count(v):
            # boundary vertices of file-backed trees keep their children undeclared
            try:
                return len(k.children(v))
            except UnknownVertexError:
                return ""

        rows = [(d, k.format_vertex(v), child_count(v))
                for d, lvl in enumerate(levels) for v in lvl]
        _emit(args, _csv_text(("depth", "vertex", "children"), rows))
    return 0


def cmd_alpha(args) -> int:
    ctx = _Context(args)
    table = alpha_partial(ctx.ws, ctx.kernel, ctx.vertex, args.N)
    verdict = alpha_verdict(ctx.ws, ctx.kernel, ctx.vertex, ctx.cfg)
    vj = verdict.to_json(ctx.kernel)
    if args.fmt == "json":
        # json's C encoder runs only when indent is None, so the rows skip json
        _emit(args, _alpha_json_text(vj, table.to_rows()))
    else:
        _emit(args, _csv_text(("n", "t_n", "partial_sum"), table.to_rows(),
                              trailer="verdict: " + _strict_json(vj, field="verdict")))
    return 0


def cmd_dual(args) -> int:
    ctx = _Context(args)
    dual = cauchy_dual(ctx.ws, ctx.kernel)
    verts = window_vertices(ctx.kernel, ctx.window)
    rows = [(ctx.kernel.format_vertex(v), ctx.ws.weight(v), dual.weight(v))
            for v in verts]
    if args.fmt == "json":
        obj = {"rows": [{"vertex": t, "lambda": a, "lambda_dual": b}
                        for t, a, b in rows]}
        _emit(args, _json_text(obj))
    else:
        _emit(args, _csv_text(("vertex", "lambda", "lambda_dual"), rows))
    return 0


def cmd_defect(args) -> int:
    ctx = _Context(args)
    report = classify(ctx.ws, ctx.kernel, ctx.window, args.m, tol=args.tol)
    rj = report.to_json(ctx.kernel)
    if args.fmt == "json":
        _emit(args, _json_text(rj))
    else:
        rows = [(ctx.kernel.format_vertex(v), d) for v, d in report.entries.items()]
        _emit(args, _csv_text(("vertex", f"d_{args.m}"), rows,
                              trailer="classification: " + report.label))
    return 0


def cmd_balanced(args) -> int:
    ctx = _Context(args)
    k = ctx.kernel
    bal = is_balanced(ctx.ws, k, ctx.window, tol=args.tol)
    ni = is_norm_increasing(ctx.ws, k, ctx.window)
    obj = {
        "balanced": {
            "verdict": bal.verdict,
            "classes": bal.class_count,
            "witness": ([k.format_vertex(bal.witness[0]), k.format_vertex(bal.witness[1]),
                         bal.witness[2], bal.witness[3]] if bal.witness else None),
            "tol": bal.tol,
        },
        "norm_increasing": {
            "verdict": ni.verdict,
            "witness": ([k.format_vertex(ni.witness[0]), ni.witness[1]]
                        if ni.witness is not None else None),
            "min_norm_sq": ni.min_norm_sq, "tol": ni.tol,
        },
    }
    _emit(args, _json_text(obj))
    return 0


def cmd_wold(args) -> int:
    ctx = _Context(args)
    verdict = wold_verdict(ctx.ws, ctx.kernel, ctx.window, ctx.cfg,
                           seed=args.seed, tol=args.tol)
    _emit(args, _json_text(verdict.to_json(ctx.kernel)))
    summary = f"{verdict.outcome} (method={verdict.method})"
    if verdict.note:
        summary += f": {verdict.note}"
    print(summary, file=sys.stderr)
    return 0


def cmd_gvec(args) -> int:
    ctx = _Context(args)
    path = BilateralPath(ctx.kernel, ctx.vertex)
    g = g_vector(ctx.ws, ctx.kernel, path, args.m, args.N, ctx.cfg)
    k = ctx.kernel
    if args.fmt == "json":
        obj = {
            "m": g.m, "vertex": k.format_vertex(g.vertex), "N": g.N,
            "alpha": g.alpha_value, "tail_mass": g.tail_mass,
            "vector": g.vector.to_json(k),
            "verdict": g.verdict.to_json(k),
        }
        _emit(args, _json_text(obj))
    else:
        rows = sorted(((k.format_vertex(u), c) for u, c in g.vector.items()),
                      key=lambda r: r[0])
        _emit(args, _csv_text(("vertex", "coefficient"), rows,
                              trailer=f"m={g.m} alpha={g.alpha_value} tail_mass={g.tail_mass}"))
    return 0


# ---------------------------------------------------------------------------
# reproduction suite


_TAMPER_VERTEX = (2, 3)
_TAMPER_SCALE = 1.001
_TAMPER_LOG = math.log(_TAMPER_SCALE)


class TamperedWeights(WeightSystem):
    """The negative control of `repro --tamper`: the base system with the
    weight at _TAMPER_VERTEX scaled by _TAMPER_SCALE, carried in log space.
    It is no Prop51Weights, so the plugins decline it."""

    name = "tampered"

    def __init__(self, base: WeightSystem) -> None:
        self.base = base
        self.params = {"vertex": str(_TAMPER_VERTEX)}

    def weight(self, v) -> float:
        return math.exp(self.log_weight(v))

    def log_weight(self, v) -> float:
        lw = self.base.log_weight(v)
        return lw + _TAMPER_LOG if v == _TAMPER_VERTEX else lw

    def row_key(self, m):
        # the tampered ray keeps a row of its own
        key = self.base.row_key(m)
        return None if key is None else (key, m == _TAMPER_VERTEX[1])


def _expected_s2_spine(p, m: int) -> float:
    if m >= 3:
        return (m - 1 + p(m, 1)) / m
    if m == 2:
        return (2 + p(2, 1)) / 2
    return 2 + p(m, 1)


def _expected_s3_spine(p, m: int) -> float:
    if m >= 4:
        return (m - 2 + p(m - 1, 1) + p(m, 2)) / m
    if m == 3:
        return (2 + p(2, 1) + p(3, 2)) / 3
    if m == 2:
        return (2 + p(1, 1) + p(2, 2)) / 2
    return 2 + p(m - 1, 1) + p(m, 2)


def _expected_d3_spine(a, b, m: int) -> float:
    base = a(m) - a(m - 1) - b(m) - b(m - 1)
    if m >= 4:
        return base / m
    if m == 3:
        return (base - 1) / 3
    if m == 2:
        return (a(2) - a(1) + 1 - b(2) - b(1)) / 2
    return base


def _expected_dual(p, n: int, m: int) -> float:
    if n == 0:
        return math.sqrt(m / (m + 1.0)) if m >= 1 else 0.5
    if n == 1:
        return 1.0 / math.sqrt(m) if m >= 2 else 0.5
    return math.sqrt(p(m, n - 2) / p(m, n - 1))


def _mismatches(cases, tol: float, relative: bool = False) -> list:
    """`[*label, want, got]` for each `(label, want, got)` case whose `got` is
    not within `tol` of `want` (`tol * want` if `relative`); a NaN is within
    nothing."""
    return [[*label, want, got] for label, want, got in cases
            if not abs(got - want) <= (tol * want if relative else tol)]


def _check(rows, name, passed, **detail):
    rows.append({"check": name, "passed": bool(passed), "detail": detail})


@operation()
def _repro_rows(base: Prop51Weights, tampered: bool):
    """The eight checks of `repro`, as rows in check order, in one operation.

    Check 8's verdict is taken first: its streams run top first and leave
    memoized series verdicts and shell ladders, so check 6 and check 7's
    dual at (0, 0) read its verdicts, and the dual stream at (0, 1) climbs
    the rungs the one at (0, 2) left.
    """
    kernel = TqbKernel()
    ws = TamperedWeights(base) if tampered else base
    p, a_rule, b_rule = base.p, base.a, base.b
    window = Window((0, 0), 3, 3)
    cfg = SeriesConfig(n_max=350)
    rows: list = []
    wv = wold_verdict(ws, kernel, Window((0, 0), 2, 2), cfg)

    # 1. boundedness: machinery one-step norms against the closed-form sup
    ms = sorted({v[1] for v in window_vertices(kernel, window)})
    ratio_sup = max(b / a for m in ms for a, b in pairwise(p(m, x) for x in range(201)))
    cert = boundedness_estimate(ws, kernel, window)
    _check(rows, "boundedness-certificate", cert <= max(2.0, ratio_sup) + 1e-12,
           window_sup=cert, closed_form_sup=max(2.0, ratio_sup))

    # 2. norm closed forms
    bad = _mismatches(
        [(("S", f"0,{m}"), 2.0 if m <= 1 else 1.0, shift_norm_sq(ws, kernel, (0, m)))
         for m in range(-5, 9)]
        + [((f"S^{k}", f"{n},{m}"), p(m, n + k - 1) / p(m, n - 1),
            shift_norm_sq(ws, kernel, (n, m), k))
           for n in (1, 2, 3, 5) for k in range(0, 5) for m in range(-3, 7)]
        + [((f"S^{k}", f"0,{m}"), expected(p, m), shift_norm_sq(ws, kernel, (0, m), k))
           for m in range(-3, 9)
           for k, expected in ((2, _expected_s2_spine), (3, _expected_s3_spine))],
        1e-12, relative=True)
    _check(rows, "norm-closed-forms", not bad, mismatches=bad[:4], count=len(bad))

    # 3. Cauchy dual closed forms and involution
    dual = cauchy_dual(ws, kernel)
    cases = [(("dual", f"{n},{m}"), _expected_dual(p, n, m), dual.weight((n, m)))
             for n, m in chain(((n, m) for m in range(-3, 9) for n in (0, 1)),
                               ((n, m) for n in (2, 3, 5) for m in range(-3, 9)))]
    roundtrip = cauchy_dual(dual, kernel)
    cases += [(("involution", kernel.format_vertex(v)), ws.weight(v), roundtrip.weight(v))
              for v in window_vertices(kernel, window)]
    bad = _mismatches(cases, 1e-12)
    _check(rows, "dual-closed-forms", not bad, mismatches=bad[:4], count=len(bad))

    # 4. norm increasing
    ni = is_norm_increasing(ws, kernel, window)
    _check(rows, "norm-increasing", ni.verdict == "norm_increasing",
           verdict=ni.verdict, min_norm_sq=ni.min_norm_sq)

    # 5. third-order defect diagonals
    rep = classify(ws, kernel, window, 3, tol=1e-9)

    def d3(v):
        # classify holds d_3 at every window vertex
        return rep.entries[v] if v in rep.entries else defect_diagonal(ws, kernel, v, 3)

    bad = _mismatches(
        [((f"{n},{m}",), 0.0, d3((n, m))) for n in (1, 2, 4) for m in range(-2, 7)]
        + [((f"0,{m}",), _expected_d3_spine(a_rule, b_rule, m), d3((0, m)))
           for m in range(-2, 11)],
        1e-9)
    _check(rows, "three-expansion", rep.flags["m_expansion"] and not bad,
           classification=rep.label, mismatches=bad[:4], count=len(bad))

    # 6. series divergence at the base
    pv = alpha_verdict(ws, kernel, (0, 0), cfg)
    _check(rows, "alpha-divergence", pv.kind == "diverged" and pv.method == "analytic",
           kind=pv.kind, method=pv.method, rule=pv.evidence.get("rule"))

    # 7. dual series convergence with the quadratic comparison bound
    dv1 = alpha_verdict(dual, kernel, (0, 1), cfg)
    dv = alpha_verdict(dual, kernel, (0, 0), cfg)
    ok7 = dv.kind == "converged" and dv.method == "analytic" and dv.tail_bound <= 1e-6
    detail = {"kind": dv.kind, "method": dv.method, "tail_bound": dv.tail_bound}
    if dv1.kind == "converged":
        displayed = dv1.value - 1.0
        c = min(b_rule(m) for m in range(-5, 50))
        # lower bracket of the majorant series, so the comparison stays safe
        bound = math.fsum(2.0 / (2.0 + c * (n - 1) ** 2) for n in range(1, 2001))
        bound += quadratic_tail_integral(0.0, c / 2.0, 2000.0)
        ok7 = ok7 and displayed <= bound + 1e-6
        detail.update({"displayed_series": displayed, "comparison_bound": bound})
    else:
        ok7 = False
        detail["displayed_series"] = None
    _check(rows, "dual-alpha-convergence", ok7, **detail)

    # 8. the verdict itself, decided first
    _check(rows, "wold-verdict", wv.outcome == "NoWold" and wv.method == "analytic",
           outcome=wv.outcome, method=wv.method, note=wv.note)
    return rows


def cmd_repro(args) -> int:
    if args.item == "ex52":
        base = ex52_weights()
    else:
        a = PolyRule.parse(args.a_rule) if args.a_rule else PolyRule(1.0)
        b = PolyRule.parse(args.b_rule) if args.b_rule else PolyRule(1.0)
        base = Prop51Weights(a, b)
    rows = _repro_rows(base, args.tamper)
    ok = all(r["passed"] for r in rows)
    bundle = {"item": args.item, "tamper": args.tamper,
              "weights": base.params, "checks": rows, "passed": ok}
    # every byte is rendered before one is written: a non-finite detail
    # exits 2 with nothing on stdout, with or without --out
    details = [_strict_json(row["detail"], field=f"checks[{i}].detail")
               for i, row in enumerate(rows)]
    text = _json_text(bundle) if args.out else None
    sys.stdout.write("".join(f"[PASS] {row['check']}\n" if row["passed"]
                             else f"[FAIL] {row['check']} {detail}\n"
                             for row, detail in zip(rows, details)))
    if text is not None:
        _emit(args, text)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# parser


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The woldlab parser, built once per process: `main` reuses it, so an
    in-process caller pays only `parse_args`.  Parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tree", default="tqb",
                        help="zpath | tqb | tkinf:k=K | path to adjacency file")
    common.add_argument("--weights", default="ex52",
                        help="constant:C | ex52 | prop51 | tkinf-isometric[:k=K] | csv:PATH")
    common.add_argument("--vertex", default=None,
                        help="n,m for pair trees, plain integer for zpath")
    common.add_argument("--window", default="2,2", metavar="UP,DOWN")
    common.add_argument("--N", type=int, default=400)
    common.add_argument("--tol", type=float, default=1e-9)
    common.add_argument("--dual", action="store_true",
                        help="operate on the Cauchy dual weights")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        dest="fmt")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--a", dest="a_rule", default=None,
                        help="coefficient rule, const:X or table:m=X,...,default=X")
    common.add_argument("--b", dest="b_rule", default=None)
    common.add_argument("--no-plugins", action="store_true")
    common.add_argument("--out", default=None, help="write the report here")

    parser = argparse.ArgumentParser(prog="woldlab")
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="tree structure commands")
    tree_sub = tree.add_subparsers(dest="tree_command", required=True)
    show = tree_sub.add_parser("show", parents=[common],
                               help="list the window by depth")
    show.set_defaults(func=cmd_tree_show)

    p = sub.add_parser("alpha", parents=[common],
                       help="series table and convergence verdict")
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("dual", parents=[common],
                       help="primal and dual weights over the window")
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("defect", parents=[common],
                       help="defect diagonals and classification")
    p.add_argument("--m", type=int, default=3)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("balanced", parents=[common],
                       help="balancedness and norm monotonicity")
    p.set_defaults(func=cmd_balanced)

    p = sub.add_parser("wold", parents=[common], help="decomposition verdict")
    p.set_defaults(func=cmd_wold)

    p = sub.add_parser("gvec", parents=[common],
                       help="truncated hyper-range vector")
    p.add_argument("--m", type=int, default=0)
    p.set_defaults(func=cmd_gvec)

    p = sub.add_parser("repro", parents=[common],
                       help="reproduce the worked scenarios end to end")
    p.add_argument("item", choices=("prop51", "ex52"))
    p.add_argument("--tamper", action="store_true",
                   help="negative control: perturb one weight and expect failures")
    p.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with operation():
            return args.func(args)
    except (WoldlabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
