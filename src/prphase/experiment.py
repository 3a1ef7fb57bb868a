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
                      value per line in row-major order.  Values are
                      ``repr``'s text, produced by orjson where the two
                      agree, so a read-back is bit-exact.
  snapshot_XXXXXX.csv optional matrix form (one row of cells per line).
                      Each row is formatted once for both forms, and a row
                      that holds the same bits as the row above reuses its
                      text (the bulk plateaus of a square droplet).
  summary.json        run-level verdicts: invariant counters, the multiplier
                      interval, mass drift, and the droplet shape metric at
                      steps 0, 1 and the end (``null`` where no cell is
                      denser than the midpoint of c_gas and c_liq).  It is
                      strict JSON: no ``NaN`` or ``Infinity``.

Runs are deterministic: same config, same platform => byte-identical
artifacts.
"""

from __future__ import annotations

import itertools
import json
import logging
import os
from contextlib import ExitStack
from typing import Dict, Optional, Sequence, Tuple

import numpy as np
import orjson

from . import diagnostics, solver
from .config import SimConfig
from .ef import require_in_window
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

# write buffer of each snapshot file, in bytes (see ``write_snapshot``)
_FILE_BUFFER = 1 << 16


def build_initial(cfg: SimConfig) -> np.ndarray:
    """Initial cell field per the configured initial_condition.

    Raises ``ConfigError`` for a snapshot that does not fit the grid and
    ``BoundsViolationError`` for a field outside the density window.
    """
    ic, g = cfg.initial, cfg.grid
    if ic.kind == "uniform":
        c = np.full(g.cell_shape(), float(ic.value))
    elif ic.kind == "from_file":
        path = ic.path
        if not os.path.isabs(path) and cfg.source_path:
            path = os.path.join(os.path.dirname(cfg.source_path), path)
        c, meta = read_snapshot(path)
        if c.shape != g.cell_shape():
            raise ConfigError(
                f"initial_condition.from_file.path: snapshot grid {c.shape} does not "
                f"match the configured grid {g.cell_shape()}"
            )
        if "h" not in meta:
            raise ConfigError(
                f"initial_condition.from_file.path: {path}: snapshot header is missing h"
            )
        if not abs(meta["h"] - g.h) <= 1e-9 * g.h:  # a nan h fails too
            raise ConfigError(
                f"initial_condition.from_file.path: snapshot spacing h {meta['h']!r} does "
                f"not match the configured spacing {g.h}"
            )
    else:
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
    require_in_window(c, cfg.window, "initial_condition")
    return c


def write_snapshot(stem: str, c: np.ndarray, g: Grid2D, step: int, time: float,
                   formats: Sequence[str]) -> None:
    """Snapshot of ``c`` as ``stem.txt`` and/or ``stem.csv``, per ``formats``.

    The txt form is the ``# key value`` header, then one value per line,
    row-major; the csv form is one row of cells per line.  Values are
    ``repr``'s text, produced by orjson where the two agree (a field whose
    values all lie in [1e-4, 1e16)), so a read-back is bit-exact.  The
    field is walked one row at a time: a row whose bits equal the row above
    it reuses that row's text, any other row is formatted cell by cell, and
    each row's text is written to every open file, so no more than one row
    of text is held at a time.

    Each file gets a 64 KiB write buffer (``_FILE_BUFFER``) in place of
    io's default, the file system's block size (4 KiB on ext4).  A row is
    about 1.9 KiB of text at 100 cells and 7.6 KiB at 400, so the default
    buffer went to the kernel every second row, or every row, of each file.
    The two buffers are 0.1 of a 400x400 field's bytes, inside the quarter
    that ``test_writer_streams_rows`` allows the writer.
    """
    a = np.asarray(c, dtype=float)
    fast = bool(a.min() >= 1e-4 and a.max() < 1e16)  # nan fails both
    bits = a.view(np.int64)  # so -0.0 and 0.0, and each nan payload, keep their own text
    repeats = [False] + np.all(bits[1:] == bits[:-1], axis=1).tolist()
    with ExitStack() as stack:
        txt = csv = None
        if "txt" in formats:
            txt = stack.enter_context(open(stem + ".txt", "wb", buffering=_FILE_BUFFER))
            txt.write(
                f"# N {g.nx}\n# M {g.ny}\n# h {g.h!r}\n# x0 {g.x0!r}\n# y0 {g.y0!r}\n"
                f"# step {step}\n# time {float(time)!r}\n".encode()
            )
        if "csv" in formats:
            csv = stack.enter_context(open(stem + ".csv", "wb", buffering=_FILE_BUFFER))
        for row, repeat in zip(a, repeats):
            if not repeat:
                line = _csv_text(row, fast) + b"\n"
                # no repr holds a comma, so the txt form is one value a line
                column = line.replace(b",", b"\n") if txt is not None else None
            if txt is not None:
                txt.write(column)
            if csv is not None:
                csv.write(line)


def _csv_text(v: np.ndarray, fast: bool) -> bytes:
    """The UTF-8 ``repr`` of each value of the 1-D float array ``v``, comma-separated.

    ``fast`` says every value lies in [1e-4, 1e16).  There orjson writes the
    same shortest round-trip digits as ``repr``, byte for byte, in one C
    call; outside it the two differ (``1e16`` for ``1e+16``, ``0.00001``
    for ``1e-05``, ``null`` for nan and inf).
    """
    if not fast:
        return ",".join(map(repr, v.tolist())).encode()
    return orjson.dumps(np.ascontiguousarray(v), option=orjson.OPT_SERIALIZE_NUMPY)[1:-1]


def read_snapshot(path: str) -> Tuple[np.ndarray, Dict[str, float]]:
    """Inverse of ``write_snapshot``'s txt form, header lines first; returns (field, header)."""
    meta: Dict[str, float] = {}
    values = np.empty(0)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                if not line.startswith("#"):
                    values = np.loadtxt(itertools.chain([line], fh), dtype=float, ndmin=1,
                                        comments=None)
                    break
                parts = line[1:].split()
                if len(parts) != 2:
                    raise ConfigError(f"{path}: malformed snapshot header line {raw!r}")
                key, value = parts
                meta[key] = float(value)
    except FileNotFoundError as exc:
        raise ConfigError(f"snapshot file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read snapshot file ({exc})") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric snapshot data ({exc})") from exc
    for key in ("N", "M"):
        if key not in meta:
            raise ConfigError(f"{path}: snapshot header is missing {key}")
        if not (meta[key] >= 1 and meta[key].is_integer()):
            raise ConfigError(f"{path}: snapshot header {key} must be a positive integer, "
                              f"got {meta[key]!r}")
    nx, ny = int(meta["N"]), int(meta["M"])
    if values.ndim != 1:
        raise ConfigError(f"{path}: expected one value per line, found {values.shape[1]}")
    if len(values) != nx * ny:
        raise ConfigError(f"{path}: expected {nx * ny} values, found {len(values)}")
    return values.reshape((ny, nx)), meta


def _series_row(report: StepReport, tau: float) -> str:
    e = report.breakdown
    values = (
        report.step_index, report.step_index * tau, e.total, e.bulk, e.gradient,
        report.mu_e, report.interval.mu_lower, report.interval.mu_upper,
        report.c_min, report.c_max, report.mass,
        report.cg_iters, report.residual,
    )
    return ",".join(repr(float(v)) for v in values) + "\n"


def _safe_anisotropy(c: np.ndarray, g: Grid2D, threshold: float) -> Optional[float]:
    """The shape metric, or ``None`` (``null`` in summary.json) with no droplet."""
    try:
        return diagnostics.shape_anisotropy(c, g, threshold)
    except ParameterError:
        return None


def run_experiment(cfg: SimConfig, output_dir: Optional[str] = None) -> int:
    """Run the configured experiment; returns the process exit status.

    0 on success, 5 when any per-step invariant check failed (the run still
    completes and all artifacts are written).  Solver/domain failures raise
    and are mapped to exit codes by the CLI.  ``output_dir`` overrides the
    configured directory; the ``PRPHASE_OUTPUT_DIR`` environment variable
    sits between the two in priority.
    """
    p, ef, g = cfg.eos, cfg.window, cfg.grid
    for line in cfg.provenance:
        log.info("config default applied - %s", line)
    log.info(
        "run: %s at T=%g K on %dx%d cells, tau=%g s, %d steps, lambda=%g",
        cfg.substance.name, p.T, g.nx, g.ny, cfg.tau, cfg.n_steps, ef.lam,
    )

    # The stepper's window handling is configurable mid-run, but a bad
    # initial state is a setup mistake: it fails here, before any output.
    c0 = build_initial(cfg)
    out_dir = output_dir or os.environ.get(OUTPUT_DIR_ENV) or cfg.output.directory
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create the output directory {out_dir!r} ({exc})") from exc
    threshold = 0.5 * (cfg.c_gas + cfg.c_liq)

    def emit_snapshot(c: np.ndarray, step: int) -> None:
        write_snapshot(os.path.join(out_dir, f"snapshot_{step:06d}"), c, g, step,
                       step * cfg.tau, cfg.output.formats)

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
        "T": p.T,
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
        json.dump(summary, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    log.info(
        "finished %d steps: F from %.6e to %.6e J, %d violations, exit %d",
        cfg.n_steps, initial.energy, final_energy, state["violations"], exit_code,
    )
    return exit_code
