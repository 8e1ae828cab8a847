#!/usr/bin/env python3
"""Byte-identity check over the benchmark pool.

    python tools/pool_bytes.py [--reverse] [--update]

Runs every operation of the three benchmark workloads' pools
(`perfbench/workloads.py`) in one process, in pool order, and for each
hashes its exit code, its stdout (or the JSON of a library report) and its
stderr.  The digests are compared with `tools/pool_digests.json`; every
operation whose bytes moved is listed, and the exit status is 1 if any did.

  --reverse  run each pool back to front, so that state leaking from one
             operation into a later one shows up as moved bytes
  --update   rewrite the digest file from this run and list what moved

`perfbench/` is only read: operations run through `checks.execute`, whose
stderr buffer is replaced here by one this script keeps.  The package is
imported from `src/` here, with any `WOLDLAB_MAX_VERTICES` dropped as the
benchmark runner drops it, but without the runner's numpy import, so the
check runs on an interpreter that has only the standard library.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "pool_digests.json"
WORKLOADS = ("heuristic", "analytic", "window_diagnostics")

sys.path.insert(0, str(ROOT / "perfbench"))
import checks  # noqa: E402
import workloads  # noqa: E402


def load_package():
    """Import woldlab from the checkout's `src/`; the operations see only
    their own arguments, not a cap set by the caller."""
    os.environ.pop("WOLDLAB_MAX_VERTICES", None)
    sys.path.insert(0, str(ROOT / "src"))
    import woldlab
    import woldlab.cli  # noqa: F401
    return woldlab


def op_digest(op, wl) -> str:
    """sha256 over the exit code, the output text and the stderr of `op`."""
    err = io.StringIO()
    # checks.execute sends a CLI call's stderr to a buffer it drops
    checks.redirect_stderr = lambda _buffer: contextlib.redirect_stderr(err)
    with contextlib.redirect_stderr(err):
        rc, payload = checks.execute(op, wl)
    record = json.dumps([rc, checks.output_text(payload), err.getvalue()])
    return hashlib.sha256(record.encode()).hexdigest()


def run_pools(wl, reverse: bool) -> dict:
    """{workload: [[op key, digest], ...] in pool order}."""
    out = {}
    for name in WORKLOADS:
        ops = workloads.pool(name)
        digests = [None] * len(ops)
        for i in (reversed(range(len(ops))) if reverse else range(len(ops))):
            digests[i] = op_digest(ops[i], wl)
        out[name] = [[op.key, d] for op, d in zip(ops, digests)]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reverse", action="store_true",
                        help="run each pool back to front")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the digest file from this run")
    args = parser.parse_args(argv)
    wl = load_package()
    got = run_pools(wl, args.reverse)
    want = json.loads(DIGESTS.read_text(encoding="utf-8")) if DIGESTS.is_file() else {}
    moved = 0
    for name in WORKLOADS:
        old = want.get(name, [])
        for i, (key, digest) in enumerate(got[name]):
            if i >= len(old) or old[i] != [key, digest]:
                moved += 1
                print(f"moved  {name}[{i}]  {key}")
        if len(old) > len(got[name]):
            moved += len(old) - len(got[name])
            print(f"moved  {name}: {len(old) - len(got[name])} operations left the pool")
    total = sum(len(v) for v in got.values())
    order = "reversed" if args.reverse else "pool order"
    if args.update:
        # one operation per line, so a diff of the file names what moved
        blocks = [f" {json.dumps(name)}: [\n"
                  + ",\n".join(f"  {json.dumps(entry)}" for entry in got[name]) + "\n ]"
                  for name in WORKLOADS]
        DIGESTS.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="utf-8")
        print(f"{DIGESTS.name} rewritten: {total} operations, {moved} moved ({order})")
        return 0
    print(f"{total - moved}/{total} operations byte-identical ({order})")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
