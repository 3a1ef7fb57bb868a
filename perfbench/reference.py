"""Capture the reference results that the correctness gate compares against.

    python3 perfbench/reference.py

Runs every variant of every workload once, untraced, and writes the final
energy, a fingerprint of the final field and the CG iteration count of each
run to ``reference.json``.  The committed file was captured from the
program before any performance work; regenerate it only when the program's
results are meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import WORK, spawn
from workloads import (
    REFERENCE_PATH, VARIANTS, WORKLOADS, check_run, fingerprint, read_outcome,
    variant_params, write_inputs,
)


def capture(name, variant, work):
    runs = write_inputs(name, variant, os.path.join(work, "inputs"))
    result = spawn(runs, 1, False, os.path.join(work, "sample"))
    refs = {}
    for run, r in zip(runs, result["runs"]):
        if r["exit"] != 0:
            raise SystemExit(f"{name} variant {variant} {run['name']}: exit {r['exit']} "
                             f"{r['error']}")
        summary, series, final = read_outcome(run, r["out"])
        refs[run["name"]] = {"final_energy": summary["final_energy"],
                             "fingerprint": fingerprint(final),
                             "cg_iters": int(series["cg_iters"][1:].sum())}
        errors, _ = check_run(run, r["out"], refs[run["name"]])
        if errors:
            raise SystemExit(f"{name} variant {variant} {run['name']}: {errors}")
    return {"params": variant_params(name, variant), "runs": refs}


def main():
    os.makedirs(WORK, exist_ok=True)
    reference = {}
    for name in WORKLOADS:
        reference[name] = {}
        for variant in range(VARIANTS):
            work = tempfile.mkdtemp(prefix="ref-", dir=WORK)
            try:
                reference[name][str(variant)] = capture(name, variant, work)
            finally:
                shutil.rmtree(work, ignore_errors=True)
            print(name, variant, {k: v["cg_iters"] for k, v in
                                  reference[name][str(variant)]["runs"].items()}, flush=True)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
