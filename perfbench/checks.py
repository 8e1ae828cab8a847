"""Running one operation, reading its semantic fields, and judging it.

An operation's output is reduced to semantic fields in two parts:
`verdict` (the decision: outcome, method, kind, label, ...) and `data`
(the numbers and structure around it).  Both are compared with the
reference captured at the seed; floats within REL_TOL/ABS_TOL, everything
else exactly.  Fields a later version adds to the output are not read, so
evidence-only additions are not failures; their byte changes show up as
digest mismatches instead.

Where the mathematics gives the answer, the result is also classed against
that truth as right, undecided (an honest inconclusive) or wrong.  A result
that moves up that order relative to its reference is a fix, not a failure:
its verdict part may differ from the reference, its data part may not.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

REL_TOL = 1e-9
ABS_TOL = 1e-12
RANK = {"wrong": 0, "undecided": 1, "right": 2}

# Closed-form analytic values of the ex52 Cauchy dual series on tqb, with
# the tolerance stated for them: the series at (0,0) and (0,1).
EX52_DUAL_ALPHA = {(0, 0): 5.192589122417427, (0, 1): 2.798147280604357}
EX52_DUAL_TOL = 1e-6


# ---------------------------------------------------------------------------
# execution


def execute(op, wl):
    """Run `op` against the woldlab package `wl`; returns (exit code, payload).

    The payload is captured stdout for CLI calls and the report object for
    library calls.  Names are looked up at call time, so a tracer that has
    rebound them sees the call.
    """
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = wl.cli.main(list(op.argv))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()
    name, tree, weights, base, up, down, n_max = op.lib
    kernel = wl.tree_core.make_kernel(tree)
    ws = wl.weights.make_weights(weights, kernel)
    window = wl.tree_core.Window(kernel.parse_vertex(base), up, down)
    if name == "wandering_orthogonality_check":
        return 0, wl.operator.wandering_orthogonality_check(ws, kernel, window,
                                                            n_max=n_max).to_json()
    report = wl.wold.decomposition_report(ws, kernel, window, n_max=n_max)
    return 0, report.to_json(kernel)


def output_text(payload) -> str:
    if isinstance(payload, str):
        return payload
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# semantic fields


def _sha(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def _series(v) -> dict | None:
    if v is None:
        return None
    return {"kind": v["verdict"], "method": v["method"], "value": v["value"],
            "tail_bound": v["tail_bound"]}


def _csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(lines))
    trailer = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    return rows[0], rows[1:], trailer


def _alpha(op, text):
    if op.argv and "csv" in op.argv:
        _, rows, trailer = _csv_rows(text)
        table = [[int(r[0]), float(r[1]), float(r[2])] for r in rows]
        verdict = json.loads(trailer[0][len("verdict: "):])
    else:
        obj = json.loads(text)
        table, verdict = obj["table"], obj["verdict"]
    terms = [t for _, t, _ in table]
    return {"verdict": _series(verdict),
            "data": {"rows": len(table), "t_sum": math.fsum(terms),
                     "t_max": max(terms), "t_last": terms[-1],
                     "partial_last": table[-1][2]}}


def _wold(op, text):
    obj = json.loads(text)
    ev = obj["evidence"]
    spots = [[r["vertex"], r["kind"], r["method"], r["agree"],
              r.get("dual_kind"), r.get("dual_agree")] for r in ev["spot_checks"]]
    data = {"witnesses": ev["witnesses"], "spot_checks": spots}
    if "weight_relation" in ev:
        data["weight_relation_checked"] = ev["weight_relation"]["checked"]
        data["balanced"] = ev["balanced"]["verdict"]
    return {"verdict": {"outcome": obj["verdict"], "method": obj["method"],
                        "case": obj["case"], "primal": _series(ev["alpha_primal"]),
                        "dual": _series(ev.get("alpha_dual"))},
            "data": data}


def _repro(op, text):
    checks = {}
    for line in text.splitlines():
        mark, _, rest = line.partition(" ")
        checks[rest.split(" ", 1)[0]] = mark == "[PASS]"
    return {"verdict": {"checks": checks}, "data": {}}


def _defect(op, text):
    if op.meta.get("fmt") == "csv":
        _, rows, trailer = _csv_rows(text)
        entries = [(r[0], float(r[1])) for r in rows]
        verdict = {"label": trailer[0][len("classification: "):]}
    else:
        obj = json.loads(text)
        entries = [(tok, d) for tok, d in obj["entries"]]
        verdict = {"label": obj["label"], "flags": obj["flags"]}
    return {"verdict": verdict,
            "data": {"entries": len(entries),
                     "vertices": _sha(sorted(tok for tok, _ in entries)),
                     "max_abs": max(abs(d) for _, d in entries)}}


def _balanced(op, text):
    obj = json.loads(text)
    b, ni = obj["balanced"], obj["norm_increasing"]
    return {"verdict": {"balanced": b["verdict"], "norm_increasing": ni["verdict"]},
            "data": {"classes": b["classes"], "witness": b["witness"],
                     "min_norm_sq": ni["min_norm_sq"]}}


def _dual(op, text):
    _, rows, _ = _csv_rows(text)
    lam = [float(r[1]) for r in rows]
    dual = [float(r[2]) for r in rows]
    return {"verdict": {},
            "data": {"rows": len(rows), "vertices": _sha(r[0] for r in rows),
                     "lambda_sum": math.fsum(lam), "dual_sum": math.fsum(dual),
                     "max_gap": max(abs(a - b) for a, b in zip(lam, dual))}}


def _tree(op, text):
    obj = json.loads(text)
    levels = [lvl["vertices"] for lvl in obj["levels"]]
    return {"verdict": {},
            "data": {"sizes": [len(lvl) for lvl in levels],
                     "levels": _sha(" ".join(lvl) for lvl in levels)}}


def _gvec(op, text):
    obj = json.loads(text)
    coefs = [x for _, x in obj["vector"]["entries"]]
    return {"verdict": {"kind": obj["verdict"]["verdict"],
                        "method": obj["verdict"]["method"]},
            "data": {"m": obj["m"], "vertex": obj["vertex"], "N": obj["N"],
                     "alpha": obj["alpha"], "tail_mass": obj["tail_mass"],
                     "entries": len(coefs), "norm_sq": math.fsum(x * x for x in coefs),
                     "max_coef": max(coefs, default=0.0)}}


def _wandering(op, obj):
    return {"verdict": {"verdict": obj["verdict"]},
            "data": {k: obj[k] for k in ("vector_count", "n_max",
                                         "max_pair_residual", "max_complement_residual")}}


def _decomposition(op, obj):
    red, uni, cov = obj["reduction"], obj["unitarity"], obj["coverage"]
    return {"verdict": {"passed": obj["passed"]},
            "data": {"N": obj["N"], "n_max": obj["n_max"],
                     "rank": cov["rank"], "vectors": cov["vectors"],
                     "window_dim": cov["window_dim"], "deficit": cov["deficit"],
                     "gram_offdiag_max": cov["gram_offdiag_max"],
                     "recurrence": max(r["recurrence_residual"] for r in red),
                     "adjoint": max(r["adjoint_residual"] for r in red),
                     "constant_mismatch": max(r["constant_mismatch"] for r in red),
                     "unitarity": max(u["residual"] for u in uni)}}


_EXTRACT = {"alpha": _alpha, "wold": _wold, "repro": _repro, "defect": _defect,
            "balanced": _balanced, "dual": _dual, "tree": _tree, "gvec": _gvec,
            "wandering_orthogonality_check": _wandering,
            "decomposition_report": _decomposition}


def semantic(op, rc, payload) -> dict | None:
    """Semantic fields of a result, or None when the call produced no report."""
    if rc not in (0, 1):
        return None
    try:
        return _EXTRACT[op.meta["cmd"]](op, payload)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        return {"unparsed": output_text(payload)[:200]}


def same(ref, got) -> bool:
    """Reference fields equal in `got`; floats within tolerance, NaN equal to NaN."""
    if isinstance(ref, dict):
        return (isinstance(got, dict)
                and all(k in got and same(v, got[k]) for k, v in ref.items()))
    if isinstance(ref, list):
        return (isinstance(got, list) and len(ref) == len(got)
                and all(same(a, b) for a, b in zip(ref, got)))
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if math.isnan(ref) or math.isnan(got):
            return math.isnan(ref) and math.isnan(got)
        return ref == got or abs(ref - got) <= ABS_TOL + REL_TOL * abs(ref)
    return type(ref) is type(got) and ref == got


# ---------------------------------------------------------------------------
# mathematical truth


def _family_outcome(meta) -> str | None:
    tree, weights = meta["tree"], meta["weights"]
    if tree == "tqb" and weights in ("ex52", "prop51"):
        return "NoWold"             # primal diverges, dual converges
    if tree == "tqb" and weights.startswith("constant:"):
        return "HasWold_case_i"     # primal terms 1, dual terms grow by 4
    if weights == "tkinf-isometric" or (tree == "zpath" and weights == "constant:1"):
        return "HasWold_case_ii"    # an isometry
    return None


def _nonfinite(meta) -> bool:
    return meta.get("weights", "").split(":")[-1] in ("nan", "inf")


def truth_of(op, wl, dual_cache: dict) -> dict | None:
    """The known mathematical answer for `op`, or None when it has no verdict.

    Heuristic series verdicts are judged against the analytic route at the
    same vertex, computed here (outside any timed region) and memoised in
    `dual_cache`.
    """
    meta = op.meta
    cmd = meta["cmd"]
    if _nonfinite(meta):
        return {"nonfinite": True}
    if cmd == "alpha":
        v = meta["vertex"]
        if meta["plugins"]:
            return {"series": "converged", "value": EX52_DUAL_ALPHA.get(v),
                    "tol": EX52_DUAL_TOL}
        if v not in dual_cache:
            kernel = wl.tree_core.TqbKernel()
            dual = wl.weights.cauchy_dual(wl.weights.ex52_weights(), kernel)
            dual_cache[v] = wl.series.alpha_verdict(dual, kernel, v)
        return {"series": dual_cache[v].kind}
    if cmd == "wold":
        return {"outcome": _family_outcome(meta)}
    if cmd == "repro":
        return {"repro": "fails" if meta["tamper"] else "passes"}
    if cmd == "defect":
        return {"label": f"{meta['m']}-isometry"}
    if cmd == "balanced":
        return {"balanced": "balanced", "norm_increasing": "norm_increasing"}
    if cmd == "wandering_orthogonality_check":
        return {"verdict": "pass"}
    if cmd == "decomposition_report":
        return {"passed": True}
    return None


def verdict_class(op, rc, sem, truth) -> str | None:
    """'right', 'undecided' or 'wrong' against `truth`; None without one."""
    if truth is None:
        return None
    if truth.get("nonfinite"):
        if rc == 2:
            return "right"
        if sem is None or "unparsed" in sem:
            return "wrong"
        v = sem["verdict"]
        definitive = (v.get("method") == "analytic" and v.get("outcome") != "Inconclusive"
                      if op.meta["cmd"] == "wold" else v.get("label") != "neither")
        return "wrong" if definitive else "right"
    if sem is None or "unparsed" in sem:
        return "wrong"
    v = sem["verdict"]
    if "series" in truth:
        if v["kind"] == "inconclusive":
            return "undecided"
        if v["kind"] != truth["series"]:
            return "wrong"
        want = truth.get("value")
        if want is not None and v["method"] == "analytic":
            if v["value"] is None or abs(v["value"] - want) > truth["tol"]:
                return "wrong"
        return "right"
    if "outcome" in truth:
        if v["outcome"] == truth["outcome"]:
            return "right"
        return "undecided" if v["outcome"] == "Inconclusive" else "wrong"
    if "repro" in truth:
        passed = all(v["checks"].values()) and bool(v["checks"])
        ok = (rc == 0 and passed) if truth["repro"] == "passes" else (rc == 1 and not passed)
        return "right" if ok else "wrong"
    return "right" if all(v.get(k) == want for k, want in truth.items()) else "wrong"


# ---------------------------------------------------------------------------
# closed forms on the isometric family


def closed_form_problem(op, rc, payload) -> str | None:
    """Check outputs that have a closed form; a message on mismatch."""
    meta = op.meta
    if (rc != 0 or meta.get("weights") != "tkinf-isometric"
            or meta["cmd"] not in ("dual", "balanced", "gvec")):
        return None
    k = meta["k"]
    if meta["cmd"] == "dual":
        _, rows, _ = _csv_rows(payload)
        for tok, lam, dual in rows:
            m = int(tok.split(",")[0])
            want = 1.0 / math.sqrt(k) if m == 1 else 1.0
            if abs(float(lam) - want) > ABS_TOL or abs(float(dual) - want) > ABS_TOL:
                return f"dual weight at {tok} is {lam},{dual}; closed form {want}"
    if meta["cmd"] == "balanced":
        got = json.loads(payload)["norm_increasing"]["min_norm_sq"]
        if abs(got - 1.0) > ABS_TOL:
            return f"min one-step norm {got}; an isometry has 1"
    if meta["cmd"] == "gvec":
        obj = json.loads(payload)
        want = 1.0 if int(obj["vertex"].split(",")[0]) <= 0 else float(k)
        if obj["alpha"] is None or abs(obj["alpha"] - want) > ABS_TOL * want:
            return f"alpha at {obj['vertex']} is {obj['alpha']}; closed form {want}"
    return None


# ---------------------------------------------------------------------------
# the judgement


def judge(op, rc, payload, ref: dict | None, truth) -> tuple[list[str], str | None]:
    """Problems that make `op` a failed operation, and its verdict class."""
    if ref is None:
        return ["no reference captured for this operation"], None
    sem = semantic(op, rc, payload)
    cls = verdict_class(op, rc, sem, truth)
    improved = (cls is not None and ref["class"] is not None
                and RANK[cls] > RANK[ref["class"]])
    problems = []
    if rc != ref["rc"]:
        if not improved:
            problems.append(f"exit code {rc}, reference {ref['rc']}")
    elif ref["sem"] is not None:
        if sem is None or "unparsed" in sem:
            problems.append("output could not be read")
        else:
            if not improved and not same(ref["sem"]["verdict"], sem["verdict"]):
                problems.append(f"verdict {sem['verdict']} differs from reference")
            if not same(ref["sem"]["data"], sem["data"]):
                problems.append(f"data {sem['data']} differs from reference")
    if cls is not None and ref["class"] is not None and RANK[cls] < RANK[ref["class"]]:
        problems.append(f"verdict is now {cls}, reference was {ref['class']}")
    cf = closed_form_problem(op, rc, payload)
    if cf:
        problems.append(cf)
    return problems, cls
