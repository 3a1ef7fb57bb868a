"""A catalogue of seeded faults, each of which Tier-1 should catch.

Each fault is one exact string replacement in one file of the package.  Its
text must match exactly once, so a fault whose code has moved on is an
error, not a silent pass.

    python tests/faults.py --check     # every fault still matches once
    python tests/faults.py             # Tier-1 against each fault in turn
    python tests/faults.py NAME...     # either mode, the named faults only

Both modes read the tree committed at HEAD.  The default mode exports it
with ``git archive`` into a temporary directory once per fault, applies the
fault there, runs Tier-1 in that copy and prints the tests that failed, then
a table of the faults and how many tests caught each.  It exits 1 if some
fault fails no test.  A fault takes about 10 s on a 2-core Xeon.  pytest does
not collect this file: its name does not match ``test_*.py``.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Fault:
    name: str
    path: str  # from the repository root
    old: str
    new: str


EF, SOLVER = "src/prphase/ef.py", "src/prphase/solver.py"
DIAGNOSTICS = "src/prphase/diagnostics.py"

FAULTS = (
    Fault("nu x 1.04 in _pointwise", EF,
          "    nu_f *= 0.25 * RT\n", "    nu_f *= 0.26 * RT\n"),
    Fault("kappa halved in the energy of scheme_coefficients", EF,
          "gradient = 0.5 * p.kappa *", "gradient = 0.25 * p.kappa *"),
    Fault("CG stops at 30x its tolerance", SOLVER,
          "tol = self.rel_tol * scale", "tol = 30.0 * self.rel_tol * scale"),
    Fault("WINDOW_SLACK_REL 1e-10 -> 1e-3", EF,
          "WINDOW_SLACK_REL = 1e-10\n", "WINDOW_SLACK_REL = 1e-3\n"),
    Fault("admissibility_ok always true", SOLVER,
          "admissibility_ok=not n or interval.contains(mu_e),", "admissibility_ok=True,"),
    Fault("dissipation slack x 1e4", SOLVER,
          "energy_slack = cfg.energy_slack_rel *", "energy_slack = 1e4 * cfg.energy_slack_rel *"),
    Fault("energy_decreased always true", SOLVER,
          "energy_decreased=not n or bool(coeffs.energy.total <= report.energy + energy_slack),",
          "energy_decreased=True,"),
    Fault("Galerkin start off (m always 0)", SOLVER,
          "system.solve(b, basis, min(n - 1, START_DIRECTIONS), total)",
          "system.solve(b, basis, 0, total)"),
    Fault("start ring writes slot 0 only", SOLVER,
          "out=basis[(n - 1) % START_DIRECTIONS])", "out=basis[0])"),
    Fault("admissible_interval without its zoom", DIAGNOSTICS,
          "if all(b - a <= x_tol for a, b in brackets):", "if True:"),
    Fault("require_in_window reads c.max() twice", EF,
          "ef.contains(c.min()) and", "ef.contains(c.max()) and"),
    Fault("bounds_ok judges the window on c_min only", SOLVER,
          "bounds_ok=bool(ef.contains(coeffs.c_min) and ef.contains(coeffs.c_max)),",
          "bounds_ok=bool(ef.contains(coeffs.c_min)),"),
    Fault("lift without its final mass step", SOLVER,
          "step = (m - float(self.state.sum())) / self.a", "step = 0.0"),
)


def seeded(fault: Fault, text: str) -> str:
    """``text`` with ``fault`` applied; raises SystemExit unless it matches once."""
    count = text.count(fault.old)
    if count != 1:
        raise SystemExit(f"{fault.name}: its text matches {count} times in {fault.path}, not once")
    return text.replace(fault.old, fault.new)


def git(*args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def failed_tests(fault: Fault) -> List[str]:
    """The Tier-1 tests that fail on a copy of HEAD with ``fault`` applied."""
    with tempfile.TemporaryDirectory(prefix="prphase-fault-") as tmp:
        subprocess.run(["tar", "-x", "-C", tmp], input=git("archive", "HEAD"), check=True)
        target = Path(tmp, fault.path)
        target.write_text(seeded(fault, target.read_text(encoding="utf-8")), encoding="utf-8")
        # the copy's package only, whatever the caller's path holds
        env = dict(os.environ, PYTHONPATH=str(Path(tmp, "src")))
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "--continue-on-collection-errors"],
            cwd=tmp, env=env, capture_output=True, text=True, timeout=600,
        )
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if proc.returncode not in (0, 1) or (proc.returncode == 1) != bool(failed):
        raise SystemExit(f"{fault.name}: pytest exited {proc.returncode}\n{proc.stdout[-2000:]}")
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="only check that every fault's text matches once")
    parser.add_argument("names", nargs="*", metavar="NAME",
                        help="take only these faults, by their full names (default: all)")
    args = parser.parse_args(argv)
    by_name = {fault.name: fault for fault in FAULTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown faults {unknown}; the catalogue holds {list(by_name)}")
    faults = [by_name[name] for name in args.names] or list(FAULTS)
    if args.check:
        for fault in faults:
            seeded(fault, git("show", f"HEAD:{fault.path}").decode("utf-8"))
        print(f"{len(faults)} faults, each matches once")
        return 0
    rows = []
    for fault in faults:
        failed = failed_tests(fault)
        print(f"{fault.name}: {len(failed)} tests fail", flush=True)
        for test in failed:
            print(f"    {test}", flush=True)
        rows.append((fault.name, failed))
    print("\n| fault | Tier-1 tests that fail |\n| --- | --- |")
    for name, failed in rows:
        print(f"| {name} | {len(failed) or '**none**'} |")
    return 0 if all(failed for _, failed in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
