"""End-to-end CLI behavior through main(argv)."""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from woldlab import tree_core
from woldlab.cli import _alpha_json_text, _repro_rows, _strict_json, main
from woldlab.tree_core import TkInfKernel, TqbKernel, Window, operation
from woldlab.weights import (CauchyDualWeights, ConstantWeights, PolyRule, Prop51Weights,
                             is_balanced, is_norm_increasing)

SRC = Path(tree_core.__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cold(*argv):
    """(exit code, stdout, stderr) of main(argv) in a fresh interpreter, whose
    parser has never been built."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from woldlab.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
        env=env, capture_output=True, timeout=120)
    return proc.returncode, proc.stdout.decode("utf-8"), proc.stderr.decode("utf-8")


def parse_csv(text):
    lines = text.splitlines()
    trailers = [l for l in lines if l.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(
        l for l in lines if not l.startswith("# ")))))
    return rows[0], rows[1:], trailers


# ---------------------------------------------------------------------------
# alpha


def test_alpha_json_zpath(capsys):
    code, out, _ = run(capsys, "alpha", "--tree", "zpath", "--weights",
                       "constant:1", "--vertex", "0", "--N", "5")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"]["verdict"] == "converged"
    assert obj["verdict"]["value"] == 1.0
    assert len(obj["table"]) == 6
    assert obj["table"][0] == [0, 1.0, 1.0]


def test_alpha_csv_with_verdict_trailer(capsys):
    code, out, _ = run(capsys, "alpha", "--vertex", "0,0", "--N", "10",
                       "--format", "csv")
    assert code == 0
    header, rows, trailers = parse_csv(out)
    assert header == ["n", "t_n", "partial_sum"]
    assert len(rows) == 11
    assert float(rows[3][1]) == pytest.approx(7.0)   # t_3 = 3^2 - 3 + 1
    assert len(trailers) == 1
    verdict = json.loads(trailers[0].removeprefix("# verdict: "))
    assert verdict["verdict"] == "diverged" and verdict["method"] == "analytic"


def test_alpha_dual_flag(capsys):
    code, out, _ = run(capsys, "alpha", "--dual", "--vertex", "0,0", "--N", "50")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"]["verdict"] == "converged"
    assert obj["verdict"]["value"] == pytest.approx(5.192589122417427, abs=1e-6)


def test_alpha_no_plugins_degrades_to_heuristic(capsys):
    code, out, _ = run(capsys, "alpha", "--vertex", "0,0", "--no-plugins")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"]["method"] == "heuristic"
    assert obj["verdict"]["evidence"]["rule"] == "threshold"


def test_alpha_prop51_rules_match_ex52(capsys):
    code, out, _ = run(capsys, "alpha", "--weights", "prop51", "--a", "const:1",
                       "--b", "const:1", "--vertex", "0,0", "--N", "8")
    assert code == 0
    obj = json.loads(out)
    assert obj["table"][5][1] == pytest.approx(21.0)  # t_5 = 5^2 - 5 + 1


FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROW_FLOATS = st.sampled_from([-0.0, 5e-324, 1e16, 1e22, 0.1]) | FINITE
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | FINITE | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=8)


@given(st.dictionaries(st.text(), JSON_VALUES, max_size=4),
       st.lists(st.tuples(st.integers(0, 10**6), ROW_FLOATS, ROW_FLOATS), min_size=1, max_size=6))
@example({"empty": {}, "none": [], "nested": {"a": {}, "b": [[], {}]},
          "text": 'a "quoted"\nline, \u00fcn\u00efc\u00f8d\u00e9 \u2211'},
         [(0, -0.0, 5e-324), (1, 1e16, 1e22), (2, 0.1, 0.1)])
def test_alpha_table_text_is_the_json_encoders(vj, rows):
    want = json.dumps({"verdict": vj, "table": rows}, sort_keys=True, indent=2) + "\n"
    assert _alpha_json_text(vj, rows) == want


@pytest.mark.parametrize("vj, rows, field", [
    ({}, [(0, 1.0, 1.0), (1, math.nan, math.nan)], "table[1][1]"),
    ({"value": math.nan}, [(0, 1.0, 1.0), (1, 2.0, math.inf)], "table[1][2]"),
    ({"value": -math.inf, "evidence": {"K": math.nan}}, [(0, 1.0, 1.0)],
     "verdict.evidence.K"),
])
def test_alpha_json_names_the_first_non_finite_field(vj, rows, field):
    with pytest.raises(ValueError, match=rf"^non-finite value at {re.escape(field)} "):
        _alpha_json_text(vj, rows)


def test_strict_json_names_the_field_below_its_own():
    assert _strict_json({"b": [1.0], "a": "x"}) == '{"a": "x", "b": [1.0]}'
    with pytest.raises(ValueError, match=r"^non-finite value at verdict\.tail\[1\] "):
        _strict_json({"tail": [0.5, math.inf], "value": math.nan}, field="verdict")


def test_alpha_non_finite_row_exits_two_naming_its_field(capsys):
    argv = ("alpha", "--weights", "constant:nan", "--vertex", "0,0", "--N", "3")
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: non-finite value at table[1][1] cannot be written as JSON\n"
    # CSV has no such restriction: the table is written, and the verdict
    # trailer is finite
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    assert rows[1] == ["1", "nan", "nan"] and len(trailers) == 1


# ---------------------------------------------------------------------------
# tree show


TREE_FILE = "#boundary: r x q c y\nr: a b\na: x q\nb: c y\n"


def test_tree_show_from_file(tmp_path, capsys):
    f = tmp_path / "patch.tree"
    f.write_text(TREE_FILE)
    code, out, _ = run(capsys, "tree", "show", "--tree", str(f), "--vertex", "a",
                       "--window", "1,1", "--format", "csv")
    assert code == 0
    header, rows, _ = parse_csv(out)
    assert header == ["depth", "vertex", "children"]
    assert ["0", "r", "2"] in rows
    assert ["1", "a", "2"] in rows and ["1", "b", "2"] in rows


def test_tree_show_json_builtin(capsys):
    code, out, _ = run(capsys, "tree", "show", "--tree", "tkinf:2",
                       "--vertex", "0,0", "--window", "1,1")
    assert code == 0
    obj = json.loads(out)
    assert obj["tree"] == "tkinf"
    assert obj["levels"][0]["vertices"] == ["-1,0"]
    assert sorted(obj["levels"][2]["vertices"]) == ["1,1", "1,2"]


def test_malformed_tree_file_fails_cleanly(tmp_path, capsys):
    f = tmp_path / "bad.tree"
    f.write_text("a: a\n")
    code, _, err = run(capsys, "tree", "show", "--tree", str(f))
    assert code == 2
    assert err.startswith("error:")


# ---------------------------------------------------------------------------
# dual table, defect, balanced


def test_dual_table_boundary_values(capsys):
    code, out, _ = run(capsys, "dual", "--vertex", "0,0", "--window", "1,1",
                       "--format", "csv")
    assert code == 0
    _, rows, _ = parse_csv(out)
    by_vertex = {r[0]: (float(r[1]), float(r[2])) for r in rows}
    assert by_vertex["0,0"] == (1.0, 0.5)
    lam, lam_dual = by_vertex["2,1"]
    assert lam == pytest.approx(3.0 ** 0.5)
    assert lam_dual == pytest.approx(1.0 / 3.0 ** 0.5)


def test_defect_csv_classification(capsys):
    code, out, _ = run(capsys, "defect", "--m", "3", "--vertex", "0,0",
                       "--format", "csv")
    assert code == 0
    header, rows, trailers = parse_csv(out)
    assert header == ["vertex", "d_3"]
    assert trailers == ["# classification: 3-expansion"]
    by_vertex = {r[0]: float(r[1]) for r in rows}
    assert by_vertex["2,1"] == pytest.approx(0.0, abs=1e-9)


def test_balanced_json(capsys):
    code, out, _ = run(capsys, "balanced", "--vertex", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["balanced"]["verdict"] == "not_balanced"
    assert obj["balanced"]["witness"] is not None
    assert obj["norm_increasing"]["verdict"] == "norm_increasing"
    assert obj["norm_increasing"]["min_norm_sq"] == pytest.approx(1.0)


def test_balanced_is_not_norm_increasing_on_nan_weights(capsys):
    # NaN norms fail both checks (the norm check once read "norm_increasing"
    # with an infinite least norm); the report holds them, so it is no JSON
    # and the command exits 2 naming the first NaN field
    code, out, err = run(capsys, "balanced", "--tree", "tkinf:k=2", "--weights", "constant:nan")
    assert code == 2 and out == ""
    assert err == "error: non-finite value at balanced.witness[2] cannot be written as JSON\n"
    k, ws = TkInfKernel(2), ConstantWeights(math.nan)
    window = Window(k.default_base(), 2, 2)
    assert is_balanced(ws, k, window).verdict == "not_balanced"
    ni = is_norm_increasing(ws, k, window)
    assert ni.verdict == "not_norm_increasing"
    assert math.isnan(ni.min_norm_sq) and math.isnan(ni.witness[1])


# ---------------------------------------------------------------------------
# wold and gvec


def test_wold_verdict_and_summary(capsys):
    code, out, err = run(capsys, "wold", "--vertex", "0,0")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "NoWold" and obj["case"] == "none"
    assert err.strip() == "NoWold (method=analytic)"


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_wold_on_non_finite_zpath_weights_exits_two(capsys, c):
    # every residual of the weight relation is NaN or infinite; the relation
    # fails, and its report names the field that cannot be written
    code, out, err = run(capsys, "wold", "--tree", "zpath", "--weights", f"constant:{c}",
                         "--vertex=0")
    assert code == 2 and out == ""
    assert err == ("error: non-finite value at evidence.weight_relation.max_residual "
                   "cannot be written as JSON\n")


def test_wold_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "wold", "--vertex", "0,0")
    _, second, _ = run(capsys, "wold", "--vertex", "0,0")
    assert first == second


def test_gvec_isometric_tree(capsys):
    code, out, _ = run(capsys, "gvec", "--tree", "tkinf:2", "--weights",
                       "tkinf-isometric", "--vertex", "0,0", "--m", "1",
                       "--N", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == pytest.approx(2.0)
    entries = dict(obj["vector"]["entries"])
    assert entries == pytest.approx({"1,1": 1.0, "1,2": 1.0})
    assert obj["tail_mass"] <= 1e-12


def test_gvec_zero_on_divergence(capsys):
    code, out, _ = run(capsys, "gvec", "--vertex", "0,0", "--m", "0")
    assert code == 0
    obj = json.loads(out)
    assert obj["vector"]["entries"] == []
    assert obj["alpha"] is None


def test_gvec_csv(capsys):
    code, out, _ = run(capsys, "gvec", "--tree", "tkinf:2", "--weights",
                       "tkinf-isometric", "--vertex", "0,0", "--m", "1",
                       "--N", "6", "--format", "csv")
    assert code == 0
    header, rows, trailers = parse_csv(out)
    assert header == ["vertex", "coefficient"]
    assert rows == [["1,1", "1.0"], ["1,2", "1.0"]]
    assert len(trailers) == 1 and trailers[0].startswith("# m=1 alpha=2.0 tail_mass=")


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "verdict.json"
    code, out, _ = run(capsys, "wold", "--vertex", "0,0", "--out", str(target))
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["verdict"] == "NoWold"


# Digests of stdout recorded before dual log weights and series terms were
# memoized, and (from "repro-ex52" on) before every enumeration moved onto the
# one frontier walker; such changes may alter how work is done, never a byte.
# "dual-csv" was re-pinned when a dual's weight became exp(log_weight): six of
# its dual weights moved by one ulp.
PINNED_STDOUT = {
    "alpha-dual-0,0": (("alpha", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0",
                        "--dual", "--no-plugins", "--N", "60"),
                       "0f97e1ea8a3ca1165f22417403cffa07b24f5a89c8792e65e364da774ba8b222"),
    "alpha-dual-1,-3": (("alpha", "--tree", "tqb", "--weights", "ex52", "--vertex=1,-3",
                         "--dual", "--no-plugins", "--N", "60"),
                        "3da1e49b05f35e666420e9a3f8ab7438f0a94e32b749021d5a2abfadca3ffb15"),
    "wold-no-plugins": (("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0",
                         "--no-plugins", "--N", "60"),
                        "877b108dd6c52c6b56ec3e5d29b00a886729c14a78cbe9994a98812c5c79face"),
    "repro-ex52": (("repro", "ex52"),
                   "791ada16ee5c89aeec439aaeb9f10b9411cae2ce45efcf3e88af4f83a0d4259a"),
    # the negative control, whose FAIL lines print each check's detail
    "repro-ex52-tamper": (("repro", "ex52", "--tamper"),
                          "355fa7a0c6973c0d9bc6423a1315fdc17b654e391e6e83f64a9c04c94a91b215"),
    "alpha-dual-plugin-0,0": (("alpha", "--dual", "--vertex=0,0"),
                              "f89c12d0a3c2773c7cc73b92eb135dbe6a7c1053ea002af6087b5c20c43b4cc2"),
    # table rules: the closed-form tail reads b(900) from the table at l = 899
    "alpha-dual-plugin-table": (("alpha", "--tree", "tqb", "--weights", "prop51",
                                 "--a", "table:0=2,1=3,default=1",
                                 "--b", "table:-1=2,900=0.5,default=1",
                                 "--vertex=0,1", "--dual", "--N", "5"),
                                "32ff0677391d3b8166caaa7577d525d26c84eed71f36a97c55a89c3157441991"),
    "wold-prop51-table": (("wold", "--tree", "tqb", "--weights", "prop51",
                           "--a", "table:0=2,1=3,default=1",
                           "--b", "table:-1=2,2=0.5,default=1",
                           "--vertex=0,1", "--format", "json"),
                          "bfd9fcd55d34350c9bb1d4bd96e20754e96886d369b4c6e5363bcede6c83b394"),
    "tree-show-tkinf3": (("tree", "show", "--tree", "tkinf:3", "--vertex=0,0",
                          "--window", "2,3", "--format", "json"),
                         "b64e2006a0e313b1ede1a78d858c4e5d02f1194dc8653681c6670b997e7c1ee7"),
    "defect-tkinf3": (("defect", "--m", "5", "--tree", "tkinf:3", "--weights",
                       "tkinf-isometric", "--window", "2,2", "--format", "json"),
                      "0d173d00edff712511f575b9f205091671a968481bb8e28a8e5a4526ff130333"),
    "gvec-tkinf2": (("gvec", "--tree", "tkinf:2", "--weights", "tkinf-isometric",
                     "--vertex=0,0", "--m", "1", "--N", "12"),
                    "522f1c25af1d7543a544bb71b707338f0a002259e11286f1922f0bdac3c5cf66"),
    "dual-csv": (("dual", "--window", "2,2", "--format", "csv"),
                 "0b7b7d45b06e7c4ef951a41043a426246bab7e58b4b0ceae22161c1b87096faf"),
}


PINNED_EXIT = {"repro-ex52-tamper": 1}


@pytest.mark.parametrize("case", sorted(PINNED_STDOUT))
def test_stdout_bytes_are_pinned(capsys, case):
    argv, digest = PINNED_STDOUT[case]
    code, out, _ = run(capsys, *argv)
    assert code == PINNED_EXIT.get(case, 0)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# ---------------------------------------------------------------------------
# one vertex budget per command


def test_cap_bounds_a_whole_command(capsys, monkeypatch):
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "1000")
    code, out, err = run(capsys, "alpha", "--dual", "--no-plugins", "--N", "600")
    assert code == 2 and out == ""
    assert "enumeration touched more than 1000 vertices" in err
    assert "while walking generation 43 of the series term stream" in err


def test_cap_bounds_a_walk_along_the_path(capsys, monkeypatch):
    # v_{-5000} is 5000 parent steps above the anchor, each one charged
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", "1000")
    code, out, err = run(capsys, "gvec", "--tree", "tkinf:k=2", "--weights",
                         "tkinf-isometric", "--m", "-5000")
    assert code == 2 and out == ""
    assert "enumeration touched more than 1000 vertices" in err


# Each cap sits between the command's charge (125,314 and 142,867 vertices,
# pinned below) and its charge without the shell ladder, ancestors first and
# one shared dual (633,334 and 540,509 when last measured), so a lost part
# shows as exit 2.
@pytest.mark.parametrize("cap, argv, code", [
    ("300000", ("repro", "ex52", "--tamper"), 1),
    ("250000", ("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0",
                "--no-plugins"), 0),
])
def test_heavy_commands_fit_under_a_reduced_cap(capsys, monkeypatch, cap, argv, code):
    uncapped = run(capsys, *argv)
    assert uncapped[0] == code
    monkeypatch.setenv("WOLDLAB_MAX_VERTICES", cap)
    assert run(capsys, *argv) == uncapped


# Whole-command charges: repro decides check 8's verdict first and reads
# its series verdicts and shell ladders in checks 6 and 7, and the window
# diagnostics read each one-step norm once per operation.  Every window's
# up-walk and every step along a bilateral path is charged.
@pytest.mark.parametrize("argv, used", [
    (("repro", "ex52"), 4298),
    (("repro", "ex52", "--tamper"), 125314),
    (("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0", "--no-plugins"), 142867),
    (("balanced", "--tree", "tkinf:k=5", "--weights", "tkinf-isometric",
      "--window", "5,5"), 107),
], ids=["repro", "repro-tamper", "wold-no-plugins", "balanced"])
def test_command_charges_are_pinned(capsys, argv, used):
    with operation() as budget:     # main's operation joins this one
        main(list(argv))
    capsys.readouterr()
    assert budget.used == used


# Kernel steps and weight evaluations of two commands.  A shell miss below
# a one-vertex rung folds its ray from the operation's ray rows, with no
# `children` call and no `log_weight` call for a vertex its row holds, so a
# miss that walks such a rung level by level fails here.
@pytest.mark.parametrize("argv, touches", [
    (("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=2,-2"), (125, 326, 208)),
    (("wold", "--tree", "tqb", "--weights", "ex52", "--vertex=0,0", "--no-plugins"),
     (799, 2276, 1228)),
], ids=["wold-2,-2", "wold-no-plugins"])
def test_command_touches_are_pinned(capsys, monkeypatch, argv, touches):
    counts = dict.fromkeys(["children", "prop51", "dual"], 0)
    for cls, name, key in ((TqbKernel, "children", "children"),
                           (Prop51Weights, "log_weight", "prop51"),
                           (CauchyDualWeights, "log_weight", "dual")):
        def counted(self, v, real=vars(cls)[name], key=key):
            counts[key] += 1
            return real(self, v)
        monkeypatch.setattr(cls, name, counted)
    main(list(argv))
    capsys.readouterr()
    assert tuple(counts.values()) == touches


def test_command_reads_the_cap_once(capsys, monkeypatch):
    reads = []
    real = tree_core.vertex_cap
    monkeypatch.setattr(tree_core, "vertex_cap", lambda: reads.append(1) or real())
    code, _, _ = run(capsys, "wold", "--no-plugins", "--N", "60")
    assert code == 0 and len(reads) == 1


# ---------------------------------------------------------------------------
# repro


def test_repro_passes(capsys):
    code, out, _ = run(capsys, "repro", "ex52")
    assert code == 0
    lines = [l for l in out.splitlines() if l.startswith("[")]
    assert len(lines) == 8
    assert all(l.startswith("[PASS]") for l in lines)


def test_repro_out_writes_the_bundle(tmp_path, capsys):
    target = tmp_path / "bundle.json"
    code, out, _ = run(capsys, "repro", "ex52", "--out", str(target))
    assert code == 0
    assert out.count("[PASS]") == 8
    bundle = json.loads(target.read_text(encoding="utf-8"))
    assert bundle["passed"] is True
    assert bundle["item"] == "ex52" and bundle["tamper"] is False
    assert [row["passed"] for row in bundle["checks"]] == [True] * 8


def test_repro_prop51_reads_its_rules(tmp_path, capsys):
    target = tmp_path / "bundle.json"
    code, out, _ = run(capsys, "repro", "prop51", "--a", "const:2", "--b", "const:0.5",
                       "--out", str(target))
    assert code == 0
    assert out.count("[PASS]") == 8
    bundle = json.loads(target.read_text(encoding="utf-8"))
    assert bundle["passed"] is True
    assert bundle["weights"] == {"a": "const:2.0", "b": "const:0.5"}
    # sup of the one-step norms is 1 + a + b, not the default rules' 3
    certificate = bundle["checks"][0]
    assert certificate["check"] == "boundedness-certificate"
    assert certificate["detail"]["closed_form_sup"] == 3.5


def test_repro_tamper_pinpoints(capsys):
    code, out, _ = run(capsys, "repro", "ex52", "--tamper")
    assert code == 1
    marks = [l.split(" ", 2)[:2] for l in out.splitlines() if l.startswith("[")]
    # one weight scaled by 1.001 breaks every check but norm-increasing, which
    # a larger weight cannot break; a tamper that stops perturbing shows here
    assert marks == [["[FAIL]", "boundedness-certificate"],
                     ["[FAIL]", "norm-closed-forms"],
                     ["[FAIL]", "dual-closed-forms"],
                     ["[PASS]", "norm-increasing"],
                     ["[FAIL]", "three-expansion"],
                     ["[FAIL]", "alpha-divergence"],
                     ["[FAIL]", "dual-alpha-convergence"],
                     ["[FAIL]", "wold-verdict"]]


class NudgedSpine(Prop51Weights):
    """ex52 with the spine weight at (0, 2) scaled by 1.01, in both forms."""

    def log_weight(self, v):
        lw = super().log_weight(v)
        return lw + math.log(1.01) if v == (0, 2) else lw

    def weight(self, v):
        w = super().weight(v)
        return w * 1.01 if v == (0, 2) else w


class SkewedWeight(Prop51Weights):
    """ex52 whose `weight` at the window vertex (0, 1) is not exp(log_weight)."""

    def weight(self, v):
        w = super().weight(v)
        return w * 1.01 if v == (0, 1) else w


def failed_repro_rows(ws):
    return {row["check"]: row["detail"] for row in _repro_rows(ws, False) if not row["passed"]}


def test_repro_fails_the_spine_rows_on_a_nudged_spine_weight():
    failed = failed_repro_rows(NudgedSpine(PolyRule(1.0), PolyRule(1.0)))
    assert sorted(failed) == ["dual-closed-forms", "norm-closed-forms", "three-expansion"]
    # ||S e_(0,3)||^2 = w(0,2)^2 + w(1,3)^2 moves, and so do the duals of
    # both children of (0, 3)
    assert failed["norm-closed-forms"]["mismatches"][0][:2] == ["S", "0,3"]
    assert ([row[:2] for row in failed["dual-closed-forms"]["mismatches"]]
            == [["dual", "0,2"], ["dual", "1,3"]])


def test_repro_fails_the_involution_where_weight_is_not_exp_log_weight():
    # the dual of the dual reads log weights, and the check compares it
    # with `weight`
    failed = failed_repro_rows(SkewedWeight(PolyRule(1.0), PolyRule(1.0)))
    assert list(failed) == ["dual-closed-forms"]
    assert [row[:2] for row in failed["dual-closed-forms"]["mismatches"]] == [["involution", "0,1"]]


class NanWeight(Prop51Weights):
    """ex52 with a NaN weight at the ray vertex (3, 2), in both forms."""

    def log_weight(self, v):
        return math.nan if v == (3, 2) else super().log_weight(v)

    def weight(self, v):
        return math.nan if v == (3, 2) else super().weight(v)


def test_repro_closed_form_checks_fail_on_a_nan_weight():
    # a NaN norm, dual weight or defect is within no tolerance of its
    # closed form, so every check that reads one names it
    failed = failed_repro_rows(NanWeight(PolyRule(1.0), PolyRule(1.0)))
    counts = {name: failed[name]["count"]
              for name in ("norm-closed-forms", "dual-closed-forms", "three-expansion")}
    assert counts == {"norm-closed-forms": 8, "dual-closed-forms": 2, "three-expansion": 3}
    for name in counts:
        assert all(math.isnan(row[-1]) for row in failed[name]["mismatches"])
    assert failed["dual-closed-forms"]["mismatches"][0][:2] == ["dual", "3,2"]


def test_repro_closed_form_checks_fail_on_overflowing_rules(capsys, tmp_path):
    # p(m, x) overflows to inf from x = 1 on, and inf - inf is NaN, so the
    # norms and dual weights that read p match no closed form
    overflowing = PolyRule.parse("const:1e308")
    failed = failed_repro_rows(Prop51Weights(overflowing, overflowing))
    assert {"norm-closed-forms", "dual-closed-forms", "three-expansion"} <= set(failed)
    # the boundedness detail is non-finite, so the command writes nothing,
    # to stdout or to --out, and exits 2 naming the field
    out_file = tmp_path / "bundle.json"
    for out_args in ((), ("--out", str(out_file))):
        code, out, err = run(capsys, "repro", "prop51", "--a", "const:1e308",
                             "--b", "const:1e308", *out_args)
        assert (code, out) == (2, ""), out_args
        assert "non-finite value at checks[0].detail.closed_form_sup" in err
    assert not out_file.exists()


# ---------------------------------------------------------------------------
# argument errors


@pytest.mark.parametrize("argv", [
    ("alpha", "--weights", "mystery"),
    ("alpha", "--vertex", "zzz"),
    ("alpha", "--window", "nope"),
    ("alpha", "--N", "0"),
    ("alpha", "--weights", "csv:/does/not/exist.csv"),
    ("alpha", "--weights", "csv:"),
    ("alpha", "--weights", "constant:"),
    ("alpha", "--weights", "tkinf-isometric"),
    ("alpha", "--tree", "tkinf:k=2", "--weights", "tkinf-isometric:k=0"),
])
def test_bad_inputs_exit_two(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")


def test_nan_defects_classify_as_neither(capsys):
    code, out, _ = run(capsys, "defect", "--tree", "zpath", "--vertex", "0",
                       "--weights", "constant:nan", "--format", "csv")
    assert code == 0
    _, rows, trailers = parse_csv(out)
    assert rows and all(r[1] == "nan" for r in rows)
    assert trailers == ["# classification: neither"]


@pytest.mark.parametrize("cmd", ["wold", "defect"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_nonfinite_csv_weight_exits_two(capsys, tmp_path, cmd, value):
    path = tmp_path / "weights.csv"
    path.write_text(f"vertex,weight\n-1,1.0\n0,{value}\n1,1.0\n", encoding="utf-8")
    code, out, err = run(capsys, cmd, "--tree", "zpath", "--weights", f"csv:{path}",
                         "--vertex=0")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err


@pytest.mark.parametrize("argv", [
    ("nosuch",),
    ("alpha", "--format", "xml"),
    ("repro",),
    ("alpha", "--N", "notanint"),
])
def test_parser_rejections_exit_two_with_usage(capsys, argv):
    code, out, err = run_cold(*argv)
    assert code == 2 and out == "" and "usage: woldlab" in err
    # the same rejection from a parser that has just served a command
    assert run(capsys, "tree", "show")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == err


def test_help_lists_every_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: woldlab")
    for command in ("tree", "alpha", "dual", "defect", "balanced", "wold", "gvec", "repro"):
        assert command in out


# ---------------------------------------------------------------------------
# one parser per process


def test_main_builds_its_parser_once(capsys, monkeypatch):
    assert run(capsys, "tree", "show")[0] == 0
    built = []
    real = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (("tree", "show"), ("alpha", "--N", "5"), ("dual", "--format", "csv"),
                 ("defect", "--m", "2"), ("balanced",)):
        assert run(capsys, *argv)[0] == 0
    assert built == []
    argparse.ArgumentParser(prog="probe")   # the count is live
    assert built == ["probe"]


# Each pair differs in one flag; A's bytes must not depend on B having run
# in between, and B's must be those of a fresh process.
@pytest.mark.parametrize("a, b", [
    (("alpha", "--vertex=0,0", "--N", "20"), ("alpha", "--vertex=0,0", "--N", "20", "--dual")),
    (("wold", "--N", "60"), ("wold", "--N", "60", "--no-plugins")),
    (("defect", "--tree", "tkinf:3", "--weights", "tkinf-isometric"),
     ("defect", "--tree", "tkinf:3", "--weights", "tkinf-isometric", "--m", "5")),
    (("dual", "--window", "2,2"), ("dual", "--window", "2,2", "--format", "csv")),
    (("repro", "ex52"), ("repro", "ex52", "--tamper")),
], ids=["dual", "no-plugins", "m", "format", "tamper"])
def test_reused_parser_keeps_no_state(capsys, a, b):
    first = run(capsys, *a)
    between = run(capsys, *b)
    assert run(capsys, *a) == first
    assert between == run_cold(*b)
