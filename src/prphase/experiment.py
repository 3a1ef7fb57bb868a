"""End-to-end experiment driver: build the initial field, march the
stepper, and write series/snapshot/summary artifacts.

``solver.run`` computes the target mass, the multiplier interval and the
energy of every state, the initial one included; this module writes them
out from the step reports and recomputes none of them.  Snapshot 0 and the
initial shape metric are taken before the march starts.

Artifacts (all plain text, written under the configured output directory):

  series.csv          one row per step report with energy, multiplier and
                      solver statistics; step 0 carries the initial energies
                      and ``nan`` in the multiplier and residual columns.
  snapshot_XXXXXX.txt the cell field at step XXXXXX: ``# key value`` header
                      lines (N, M, h, x0, y0, step, time) followed by one
                      value per line in row-major order.  Values are written
                      with ``repr`` so a read-back is bit-exact.
  snapshot_XXXXXX.csv optional matrix form (one row of cells per line).
  summary.json        run-level verdicts: invariant counters, the multiplier
                      interval, mass drift, and the droplet shape metric at
                      steps 0, 1 and the end.

Runs are deterministic: same config, same platform => byte-identical
artifacts.
"""

from __future__ import annotations

import json
import logging
import os
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import diagnostics, solver
from .config import SimConfig
from .ef import EfParams, scheme_coefficients
from .eos import derive_eos_params
from .errors import ConfigError, ParameterError
from .grid import Grid2D
from .solver import StepReport

log = logging.getLogger(__name__)

SERIES_COLUMNS = (
    "step", "time", "F_total", "F_bulk", "F_gradient", "mu_e", "mu_lower",
    "mu_upper", "c_min", "c_max", "mass", "cg_iters", "residual",
)

#: Environment variable that overrides the configured output directory.
OUTPUT_DIR_ENV = "PRPHASE_OUTPUT_DIR"


def make_grid(cfg: SimConfig) -> Grid2D:
    """Mesh for the square domain [-L_half, L_half]^2."""
    h = 2.0 * cfg.grid.L_half / cfg.grid.N
    return Grid2D(nx=cfg.grid.N, ny=cfg.grid.M, h=h,
                  x0=-cfg.grid.L_half, y0=-cfg.grid.L_half)


def build_initial(cfg: SimConfig, g: Grid2D) -> np.ndarray:
    """Initial cell field per the configured initial_condition."""
    ic = cfg.initial
    if ic.kind == "uniform":
        return np.full(g.cell_shape(), float(ic.value))
    if ic.kind == "from_file":
        path = ic.path
        if not os.path.isabs(path) and cfg.source_path:
            path = os.path.join(os.path.dirname(cfg.source_path), path)
        c, meta = read_snapshot(path)
        if c.shape != g.cell_shape():
            raise ConfigError(
                f"initial_condition.from_file.path: snapshot grid {c.shape} does not "
                f"match the configured grid {g.cell_shape()}"
            )
        if abs(meta["h"] - g.h) > 1e-9 * g.h:
            raise ConfigError(
                f"initial_condition.from_file.path: snapshot spacing {meta['h']} does "
                f"not match the configured spacing {g.h}"
            )
        return c

    X, Y = g.cell_centers()
    cx = g.x0 + 0.5 * g.lx
    cy = g.y0 + 0.5 * g.ly
    if ic.kind == "square_droplet":
        mask = (np.abs(X - cx) <= ic.half_side) & (np.abs(Y - cy) <= ic.half_side)
    elif ic.kind == "disk":
        mask = (X - cx) ** 2 + (Y - cy) ** 2 <= ic.radius**2
    else:
        raise ConfigError(f"initial_condition: unknown kind {ic.kind!r}")
    c = np.full(g.cell_shape(), cfg.c_gas)
    c[mask] = cfg.c_liq
    return c


def write_snapshot(path: str, c: np.ndarray, g: Grid2D, step: int, time: float) -> None:
    """Plain-text snapshot; values are repr'd floats, one per line, row-major."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# N {g.nx}\n")
        fh.write(f"# M {g.ny}\n")
        fh.write(f"# h {g.h!r}\n")
        fh.write(f"# x0 {g.x0!r}\n")
        fh.write(f"# y0 {g.y0!r}\n")
        fh.write(f"# step {step}\n")
        fh.write(f"# time {float(time)!r}\n")
        for v in np.asarray(c, dtype=float).ravel(order="C"):
            fh.write(f"{float(v)!r}\n")


def read_snapshot(path: str) -> Tuple[np.ndarray, Dict[str, float]]:
    """Inverse of ``write_snapshot``; returns (cell field, header dict)."""
    meta: Dict[str, float] = {}
    values: List[float] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if line.startswith("#"):
                    parts = line[1:].split()
                    if len(parts) != 2:
                        raise ConfigError(f"{path}: malformed snapshot header line {raw!r}")
                    key, value = parts
                    meta[key] = float(value)
                else:
                    values.append(float(line))
    except FileNotFoundError as exc:
        raise ConfigError(f"snapshot file not found: {path}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric snapshot data ({exc})") from exc
    for key in ("N", "M"):
        if key not in meta:
            raise ConfigError(f"{path}: snapshot header is missing {key}")
    nx, ny = int(meta["N"]), int(meta["M"])
    if len(values) != nx * ny:
        raise ConfigError(f"{path}: expected {nx * ny} values, found {len(values)}")
    return np.array(values).reshape((ny, nx)), meta


def write_matrix_csv(path: str, c: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(c, dtype=float):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def _series_row(report: StepReport, tau: float) -> str:
    e = report.breakdown
    values = (
        report.step_index, report.step_index * tau, e.total, e.bulk, e.gradient,
        report.mu_e, report.interval.mu_lower, report.interval.mu_upper,
        report.c_min, report.c_max, report.mass,
        report.cg_iters_1 + report.cg_iters_2, max(report.residual_1, report.residual_2),
    )
    return ",".join(repr(float(v)) for v in values) + "\n"


def _safe_anisotropy(c: np.ndarray, g: Grid2D, threshold: float) -> float:
    try:
        return diagnostics.shape_anisotropy(c, g, threshold)
    except ParameterError:
        return float("nan")


def run_experiment(cfg: SimConfig, output_dir: Optional[str] = None) -> int:
    """Run the configured experiment; returns the process exit status.

    0 on success, 5 when any per-step invariant check failed (the run still
    completes and all artifacts are written).  Solver/domain failures raise
    and are mapped to exit codes by the CLI.  ``output_dir`` overrides the
    configured directory; the ``PRPHASE_OUTPUT_DIR`` environment variable
    sits between the two in priority.
    """
    out_dir = output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)

    p = derive_eos_params(cfg.substance, cfg.T, vartheta0=cfg.vartheta0, R=cfg.R)
    ef = EfParams.for_window(cfg.c_m, cfg.c_M, p, lam=cfg.lam)
    g = make_grid(cfg)

    for line in cfg.provenance:
        log.info("config default applied - %s", line)
    log.info(
        "run: %s at T=%g K on %dx%d cells, tau=%g s, %d steps, lambda=%g",
        cfg.substance.name, cfg.T, g.nx, g.ny, cfg.tau, cfg.n_steps, ef.lam,
    )

    c0 = build_initial(cfg, g)
    # The stepper's window handling is configurable mid-run, but a bad
    # initial state is a setup mistake: fail as a domain error up front.
    slack = cfg.solver.bounds_slack_rel * max(abs(ef.c_m), abs(ef.c_M))
    scheme_coefficients(c0, ef, p, bounds_slack=slack)
    threshold = 0.5 * (cfg.c_gas + cfg.c_liq)

    def snapshot_paths(step: int):
        stem = os.path.join(out_dir, f"snapshot_{step:06d}")
        return stem + ".txt", stem + ".csv"

    def emit_snapshot(c: np.ndarray, step: int) -> None:
        txt, csv_path = snapshot_paths(step)
        if "txt" in cfg.output.formats:
            write_snapshot(txt, c, g, step, step * cfg.tau)
        if "csv" in cfg.output.formats:
            write_matrix_csv(csv_path, c)

    emit_snapshot(c0, 0)
    aniso = {"step_0": _safe_anisotropy(c0, g, threshold)}

    series_path = os.path.join(out_dir, "series.csv")
    series = open(series_path, "w", encoding="utf-8")
    series.write(",".join(SERIES_COLUMNS) + "\n")

    # ``initial`` holds the step-0 report: target mass, interval, energy.
    state = {"violations": 0, "max_mass_drift": 0.0, "initial": None}

    def observer(c: np.ndarray, report: StepReport) -> None:
        series.write(_series_row(report, cfg.tau))
        if report.step_index == 0:
            state["initial"] = report
            return
        if not report.all_ok:
            state["violations"] += 1
            log.warning(
                "step %d: invariant violation (admissibility=%s bounds=%s dissipation=%s)",
                report.step_index, report.admissibility_ok, report.bounds_ok,
                report.energy_decreased,
            )
        c_t = state["initial"].mass
        drift = abs(report.mass - c_t) / abs(c_t)
        state["max_mass_drift"] = max(state["max_mass_drift"], drift)
        if report.step_index == 1:
            aniso["step_1"] = _safe_anisotropy(c, g, threshold)
        if report.step_index % cfg.output.snapshot_every == 0:
            emit_snapshot(c, report.step_index)

    try:
        c_final, reports = solver.run(c0, cfg.n_steps, ef, p, cfg.solver, g, observer=observer)
    finally:
        series.close()

    if cfg.n_steps % cfg.output.snapshot_every != 0:
        emit_snapshot(c_final, cfg.n_steps)
    aniso["final"] = _safe_anisotropy(c_final, g, threshold)

    mass_ok = state["max_mass_drift"] <= 1e-8
    exit_code = 0 if (state["violations"] == 0 and mass_ok) else 5
    initial = state["initial"]
    final_energy = reports[-1].energy if reports else initial.energy
    summary = {
        "substance": cfg.substance.name,
        "T": cfg.T,
        "grid": {"N": g.nx, "M": g.ny, "h": g.h},
        "tau": cfg.tau,
        "n_steps": cfg.n_steps,
        "lambda": ef.lam,
        "density_window": [ef.c_m, ef.c_M],
        "mu_interval": [initial.interval.mu_lower, initial.interval.mu_upper],
        "target_total_moles": initial.mass,
        "max_mass_drift_rel": state["max_mass_drift"],
        "mass_conserved": mass_ok,
        "initial_energy": initial.energy,
        "final_energy": final_energy,
        "invariant_violations": state["violations"],
        "all_steps_admissible": all(r.admissibility_ok for r in reports),
        "all_steps_in_bounds": all(r.bounds_ok for r in reports),
        "energy_monotone": all(r.energy_decreased for r in reports),
        "shape_anisotropy": aniso,
        "exit_code": exit_code,
    }
    with open(os.path.join(out_dir, "summary.json"), "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info(
        "finished %d steps: F from %.6e to %.6e J, %d violations, exit %d",
        cfg.n_steps, initial.energy, final_energy, state["violations"], exit_code,
    )
    return exit_code
