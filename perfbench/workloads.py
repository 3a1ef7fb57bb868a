"""Seeded workload inputs and the correctness gate.

Each workload is a list of run configurations ("a job"); one sample runs
the job ``repeats`` times in a fresh child process.  The seed picks one of
``VARIANTS`` input variants per workload (``seed % VARIANTS``), so every
input the benchmark can produce has a reference result in
``reference.json``.  Variant 0 is the shipped experiment itself:

  droplet    the ``nc4_droplet`` preset (100x100 cells, 200 steps).
  sweep32    the step-size sweep of acceptance criterion 8 (32x32 cells,
             50 steps at tau = 1e-2, 1, 1e2, 1e10).
  large400   400x400 cells at the preset's spacing h = 3e-10 m, 6 steps.
  snapshots  100x100 cells, 50 steps, a txt and a csv snapshot every step,
             starting from a snapshot file the benchmark writes.

Other variants scale ``half_side`` by up to 4 percent.  Only ``snapshots``
also shifts the droplet by whole cells and adds cell noise, because a shift
needs a ``from_file`` start and the other workloads must not pay for reading
one in their set-up.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np
import yaml

VARIANTS = 8

C_GAS = 249.1123
C_LIQ = 9526.8428

#: Relative tolerance on the final energy against the reference.
ENERGY_RTOL = 1e-11
#: Absolute tolerance (mol/m^3) on the final field's block means, min and max.
FIELD_ATOL = 2e-5
#: Relative mass drift allowed over a run (the program's own invariant).
MASS_DRIFT_MAX = 1e-8

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    repeats: int = 1


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("droplet", "nc4_droplet preset, 100x100 cells, 200 steps: the reference "
             "experiment, bound by the two PCG solves per step"),
    Workload("sweep32", "criterion-8 batch of four 32x32 runs at tau 1e-2..1e10: small "
             "fields, so per-call overhead and per-run set-up bind", repeats=6),
    Workload("large400", "400x400 cells, 6 steps, no snapshots in between: per-cell "
             "arithmetic and memory traffic bind, call overhead does not"),
    Workload("snapshots", "100x100 cells from a written snapshot, txt and csv snapshot "
             "every step: the experiment I/O layer binds, the solver does not"),
)}


def variant_params(workload: str, variant: int) -> dict:
    """Input perturbation of one variant; variant 0 is unperturbed."""
    if variant == 0:
        return {"scale": 1.0, "shift": [0, 0], "noise": 0.0}
    rng = random.Random(f"{workload}:{variant}")
    scale = round(1.0 + rng.uniform(-0.04, 0.04), 6)
    if workload != "snapshots":
        return {"scale": scale, "shift": [0, 0], "noise": 0.0}
    return {"scale": scale, "shift": [rng.randint(-3, 3), rng.randint(-3, 3)], "noise": 1e-3}


def _base_config(N: int, L_half: float, tau: float, n_steps: int, half_side: float) -> dict:
    return {
        "substance": "nC4",
        "T": 330.0,
        "grid": {"N": N, "M": N, "L_half": L_half},
        "tau": tau,
        "n_steps": n_steps,
        "c_gas": C_GAS,
        "c_liq": C_LIQ,
        "initial_condition": {"square_droplet": {"half_side": half_side}},
    }


def _droplet_config(half_side: float) -> dict:
    # Identical to src/prphase/presets/nc4_droplet.yaml apart from half_side.
    d = _base_config(100, 1.5e-8, 1.0e10, 200, half_side)
    d.update({
        "vartheta0": 0.0,
        "bounds_factors": [0.9, 1.1],
        "lambda": None,
        "solver": {"cg_rel_tol": 1.0e-10, "preconditioner": "diagonal",
                   "on_violation": "continue"},
        "output": {"directory": "out_nc4_droplet", "snapshot_every": 50, "formats": ["txt"]},
    })
    return d


def initial_field(N: int, L_half: float, half_side: float, shift, noise: float,
                  seed: int) -> np.ndarray:
    """Square droplet on the cell grid, shifted by whole cells, with noise.

    With no shift and no noise this is the field the program builds for
    ``square_droplet``.
    """
    h = 2.0 * L_half / N
    x = -L_half + (np.arange(N) + 0.5) * h
    X, Y = np.meshgrid(x, x)
    c = np.full((N, N), C_GAS)
    c[(np.abs(X) <= half_side) & (np.abs(Y) <= half_side)] = C_LIQ
    c = np.roll(c, shift=(shift[1], shift[0]), axis=(0, 1))
    if noise:
        c = c * (1.0 + noise * np.random.default_rng(seed).uniform(-1.0, 1.0, c.shape))
    return c


def write_initial_snapshot(path: str, c: np.ndarray, L_half: float) -> None:
    """The program's snapshot text format: header lines, then repr'd values."""
    N = c.shape[1]
    with open(path, "w", encoding="utf-8") as fh:
        for key, value in (("N", N), ("M", c.shape[0]), ("h", 2.0 * L_half / N),
                           ("x0", -L_half), ("y0", -L_half), ("step", 0), ("time", 0.0)):
            fh.write(f"# {key} {value!r}\n")
        fh.writelines(f"{float(v)!r}\n" for v in c.ravel())


def _job(workload: str, variant: int) -> List[dict]:
    vp = variant_params(workload, variant)
    s = vp["scale"]
    if workload == "droplet":
        return [{"name": "droplet", "config": _droplet_config(7.5e-9 * s)}]
    if workload == "sweep32":
        return [{"name": f"tau{tau:g}", "config": _base_config(32, 1.5e-8, tau, 50, 7.5e-9 * s)}
                for tau in (1e-2, 1.0, 1e2, 1e10)]
    if workload == "large400":
        d = _base_config(400, 6e-8, 1.0e10, 6, 3e-8 * s)
        d["output"] = {"snapshot_every": 6, "formats": ["txt"]}
        return [{"name": "large400", "config": d}]
    if workload == "snapshots":
        d = _base_config(100, 1.5e-8, 1.0e10, 50, 7.5e-9)
        d["initial_condition"] = {"from_file": {"path": "initial.txt"}}
        d["output"] = {"snapshot_every": 1, "formats": ["txt", "csv"]}
        return [{"name": "snapshots", "config": d,
                 "initial": initial_field(100, 1.5e-8, 7.5e-9 * s, vp["shift"], vp["noise"],
                                          variant)}]
    raise KeyError(workload)


def max_cells(workload: str) -> int:
    return max(j["config"]["grid"]["N"] * j["config"]["grid"]["M"] for j in _job(workload, 0))


def write_inputs(workload: str, variant: int, directory: str) -> List[dict]:
    """Write every input file of a job into ``directory``.

    Returns one entry per run: ``name``, ``yaml`` (path), ``n_steps``,
    ``cells`` and ``csv`` (whether csv snapshots are written).
    """
    os.makedirs(directory, exist_ok=True)
    runs = []
    for job in _job(workload, variant):
        d = job["config"]
        if "initial" in job:
            write_initial_snapshot(
                os.path.join(directory, d["initial_condition"]["from_file"]["path"]),
                job["initial"], d["grid"]["L_half"])
        path = os.path.join(directory, f"{job['name']}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(d, fh, sort_keys=False)
        runs.append({"name": job["name"], "yaml": path, "n_steps": d["n_steps"],
                     "cells": d["grid"]["N"] * d["grid"]["M"],
                     "csv": "csv" in d.get("output", {}).get("formats", [])})
    return runs


def fingerprint(c: np.ndarray) -> List[float]:
    """8x8 block means, then min and max: a compact signature of a field."""
    blocks = [float(np.mean(b)) for rows in np.array_split(c, 8, axis=0)
              for b in np.array_split(rows, 8, axis=1)]
    return blocks + [float(np.min(c)), float(np.max(c))]


def read_outcome(run: dict, out_dir: str) -> Tuple[dict, np.ndarray, np.ndarray]:
    """summary.json, series.csv and the final snapshot of a finished run."""
    with open(os.path.join(out_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    series = np.genfromtxt(os.path.join(out_dir, "series.csv"), delimiter=",", names=True)
    N = int(round(run["cells"] ** 0.5))
    final = np.loadtxt(os.path.join(out_dir, f"snapshot_{run['n_steps']:06d}.txt"),
                       comments="#").reshape((N, N))
    return summary, series, final


def check_run(run: dict, out_dir: str, reference: dict) -> Tuple[List[str], int]:
    """Failed checks of one finished run as messages, and its CG iterations."""
    s, series, final = read_outcome(run, out_dir)
    errors = []
    for key in ("energy_monotone", "all_steps_admissible", "all_steps_in_bounds",
                "mass_conserved"):
        if s.get(key) is not True:
            errors.append(f"summary.{key} is {s.get(key)!r}")
    if s.get("exit_code") != 0 or s.get("invariant_violations") != 0:
        errors.append(f"exit_code {s.get('exit_code')}, "
                      f"{s.get('invariant_violations')} invariant violations")
    if not s.get("max_mass_drift_rel", 1.0) <= MASS_DRIFT_MAX:
        errors.append(f"relative mass drift {s.get('max_mass_drift_rel')} > {MASS_DRIFT_MAX}")
    if len(series) != run["n_steps"] + 1:
        errors.append(f"series.csv has {len(series)} rows, expected {run['n_steps'] + 1}")
    e_ref = reference["final_energy"]
    if not abs(s["final_energy"] - e_ref) <= ENERGY_RTOL * abs(e_ref):
        errors.append(f"final energy {s['final_energy']!r} differs from reference {e_ref!r}")
    dev = float(np.max(np.abs(np.subtract(fingerprint(final), reference["fingerprint"]))))
    if not dev <= FIELD_ATOL:
        errors.append(f"final field differs from reference by {dev:.3e} mol/m^3")
    if run["csv"]:
        csv_final = np.loadtxt(os.path.join(out_dir, f"snapshot_{run['n_steps']:06d}.csv"),
                               delimiter=",")
        if not np.array_equal(csv_final, final):
            errors.append("final csv snapshot differs from the txt snapshot")
        for step in range(run["n_steps"] + 1):
            stem = os.path.join(out_dir, f"snapshot_{step:06d}")
            if not (os.path.isfile(stem + ".txt") and os.path.isfile(stem + ".csv")):
                errors.append(f"snapshot {step} missing")
                break
    return errors, int(np.nansum(series["cg_iters"]))


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)
