#!/usr/bin/env python3
"""Standing statement-coverage check of `src/woldlab` under the test suite.

    python tools/coverage.py [--pool]

Runs the suite (`pytest -q tests`) in this process under a standard-library
line trace (`sys.settrace`, and `threading.settrace` for threads) and lists
every statement of the package that never ran.  A statement ran when a line
event fell on its header: its decorators and first line up to the line
before its body for a compound statement, its whole span for a simple one.
A `try` ran when its first body statement did, and docstrings are not
statements here.

`ALLOWED` names the statements that may stay unrun, each with its reason,
by file and source text: the statement's header with its whitespace
collapsed, so an entry survives edits that only move lines.  An entry
covers every unrun statement of its file with that text.  The exit status
is 1 if the suite fails, if a statement outside the allowlist never ran,
or if an entry matches no unrun statement (it is stale: delete it).

The package is imported from `src`, ahead of any installed copy, and
pytest's cache is off.  The suite takes several times longer under the
trace.

  --pool  a report, not a check: trace every benchmark pool operation as
          `tools/pool_bytes.py` runs it, in place of the suite, and list
          each file's unreached statements, allowlisted or not.  The exit
          status is 0 unless an operation cannot run.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "woldlab"

ARGUMENT_CHECK = "argument check; the command line validates its input before the call"

# (file under src/woldlab, statement text, reason)
ALLOWED = [
    # base-class stubs and defaults that the concrete classes override or
    # that no command reaches
    ("tree_core.py", "raise NotImplementedError",
     "abstract TreeKernel method; every kernel overrides it"),
    ("weights.py", "raise NotImplementedError",
     "abstract WeightSystem method; every weight system overrides it"),
    ("tree_core.py", "return self._order[0]",
     "AdjacencyKernel.default_base; every command names the vertex of a file tree"),
    # library argument checks
    ("tree_core.py", 'raise ValueError("n must be nonnegative")', ARGUMENT_CHECK),
    ("tree_core.py", 'raise ValueError("tkinf needs k >= 1")', ARGUMENT_CHECK),
    ("weights.py", 'raise ValueError("n must be nonnegative")', ARGUMENT_CHECK),
    # the script entry; the suite calls main() in this process
    ("cli.py", "sys.exit(main())", "the __main__ guard"),
    # defensive paths
    ("wold.py", 'raise ArithmeticError("Jacobi sweeps did not converge")',
     "cyclic Jacobi converges quadratically on the small Grams it is given"),
]


SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statements(path: Path):
    """(node, first line, header end, text) for every statement of a file,
    docstrings and `global`/`nonlocal` declarations left out."""
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source, filename=str(path))
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) is not None}
    out = []
    for node in ast.walk(tree):
        if (not isinstance(node, ast.stmt) or id(node) in docstrings
                or isinstance(node, (ast.Global, ast.Nonlocal))):
            continue
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        first = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
        text = " ".join(" ".join(lines[node.lineno - 1:end]).split())
        out.append((node, first, end, text))
    return out


def unrun(path: Path, ran: set) -> list:
    """(line, text) of each statement of `path` that no line event reached."""
    stmts = statements(path)
    done = {}
    for node, first, end, _ in stmts:
        done[id(node)] = any(line in ran for line in range(first, end + 1))
    missed = []
    for node, first, _, text in stmts:
        ok = done[id(node)]
        if not ok and isinstance(node, ast.Try):
            ok = done[id(node.body[0])]
        if not ok:
            missed.append((first, text))
    return sorted(missed)


def traced(run) -> tuple[object, dict]:
    """Call `run()` under the line trace: (its result, file -> lines run)."""
    prefix = str(PACKAGE) + os.sep
    ran: dict = {}
    wanted: dict = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        name = frame.f_code.co_filename
        hit = wanted.get(name)
        if hit is None:
            hit = wanted[name] = name.startswith(prefix)
            if hit:
                ran.setdefault(name, set())
        return local if hit else None

    threading.settrace(global_)
    sys.settrace(global_)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    import woldlab
    if not woldlab.__file__.startswith(prefix):
        raise SystemExit(f"woldlab was imported from {woldlab.__file__}, not {PACKAGE}")
    return result, ran


def run_suite() -> int:
    import pytest
    return int(pytest.main(["-q", "-p", "no:cacheprovider", "tests"]))


def run_pool() -> None:
    """Every operation of the three benchmark pools, in pool order, as
    `tools/pool_bytes.py` runs it; their digests are not compared."""
    sys.path.append(str(ROOT / "tools"))
    import pool_bytes
    pool_bytes.run_pools(pool_bytes.load_package(), reverse=False)


def pool_report() -> int:
    _, ran = traced(run_pool)
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        missed = unrun(path, ran.get(str(path), set()))
        total += len(missed)
        print(f"src/woldlab/{path.name}: {len(missed)} unreached")
        for line, text in missed:
            print(f"  {line}: {text}")
    print(f"{total} statements unreached by the benchmark pools")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pool", action="store_true",
                        help="report the statements the benchmark pools never reach")
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    # in place of this script's directory, whose name would shadow the
    # `coverage` package for any library that imports it
    sys.path[0] = str(SRC)
    if args.pool:
        return pool_report()
    rc, ran = traced(run_suite)
    if rc != 0:
        print(f"the suite exits {rc} under the trace; rerun it to see why")
        return 1
    allowed = {(f, text): reason for f, text, reason in ALLOWED}
    used: dict = {}     # entry -> unrun statements it covers
    failed = 0
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        total += len(statements(path))
        for line, text in unrun(path, ran.get(str(path), set())):
            key = (path.name, text)
            if key in allowed:
                used[key] = used.get(key, 0) + 1
                continue
            failed += 1
            print(f"UNRUN     src/woldlab/{path.name}:{line}: {text}")
    for key in allowed:
        if key not in used:
            failed += 1
            print(f"STALE     src/woldlab/{key[0]}: {key[1]!r} matches no unrun statement")
    print(f"{total} statements, {sum(used.values())} unrun under {len(used)} allowlist "
          f"entries; {failed} problems")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
