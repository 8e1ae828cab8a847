#!/usr/bin/env python3
"""Capture the reference results the benchmark checks against.

    python3 perfbench/capture.py [workload ...]

Runs every operation in each workload's pool once and writes
perfbench/references/<workload>.json: exit code, semantic fields, stdout
digest and verdict class per operation, labelled with the commit and the
source digest they were captured at.  References are captured once, at the
commit the benchmark was defined on; recapturing them on a later commit
would turn that commit's behaviour into the reference.
"""

from __future__ import annotations

import json
import os
import sys

import checks
import run
import workloads


def capture(workload: str, wl, prov: dict) -> dict:
    dual_cache: dict = {}
    refs = {}
    for op in workloads.pool(workload):
        rc, payload = checks.execute(op, wl)
        truth = checks.truth_of(op, wl, dual_cache)
        sem = checks.semantic(op, rc, payload)
        refs[op.key] = {"rc": rc, "sem": sem,
                        "digest": checks.digest(checks.output_text(payload)),
                        "class": checks.verdict_class(op, rc, sem, truth)}
    return {"captured_at": prov, "ops": refs}


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    loadavg = os.getloadavg()
    wl = run.load_package()
    prov = run.provenance(loadavg)
    run.REFERENCES.mkdir(exist_ok=True)
    for name in names:
        data = capture(name, wl, prov)
        classes = [r["class"] for r in data["ops"].values() if r["class"]]
        print(f"{name}: {len(data['ops'])} operations, "
              f"{classes.count('wrong')}/{len(classes)} wrong verdicts")
        lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                 for k, v in sorted(data["ops"].items())]
        with open(run.REFERENCES / f"{name}.json", "w", encoding="utf-8") as fh:
            fh.write('{"captured_at": ' + json.dumps(prov, sort_keys=True)
                     + ',\n"ops": {\n' + ",\n".join(lines) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
