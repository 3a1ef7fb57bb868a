"""Run configuration: YAML schema, validation, and defaulting.

A run file looks like::

    substance: nC4            # preset name, file path, or inline table
    T: 330.0                  # K
    grid: {N: 100, M: 100, L_half: 1.5e-8}
    tau: 1.0e10               # s
    n_steps: 200
    c_gas: 249.1123           # mol/m^3, bulk vapour density
    c_liq: 9526.8428          # mol/m^3, bulk liquid density
    initial_condition:
      square_droplet: {half_side: 7.5e-9}
    # everything below is optional
    vartheta0: 0.0
    R: 8.31446261815324
    bounds_factors: [0.9, 1.1]   # window [0.9*c_gas, 1.1*c_liq]
    lambda: null                 # null -> minimal admissible shift
    solver: {cg_rel_tol: 1.0e-10, cg_max_iter: null, preconditioner: diagonal,
             mobility: 1.0, on_violation: continue,
             energy_slack_rel: 1.0e-8, bounds_slack_rel: 1.0e-10}
    output: {directory: out, snapshot_every: 50, formats: [txt]}

The domain is the square [-L_half, L_half]^2, so square cells require
N == M.  ``tau`` and the ``solver`` table build one ``solver.SolverConfig``,
whose fields, defaults and range rules define that part of the schema.
Every applied default is recorded in ``SimConfig.provenance`` so
``prphase check`` can show exactly what a run will use.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple, get_type_hints

import yaml

from .eos import R_DEFAULT, Substance, get_substance, load_substance
from .errors import ConfigError, ParameterError
from .solver import SolverConfig

_INITIAL_KINDS = ("square_droplet", "disk", "uniform", "from_file")
_FORMATS = ("txt", "csv")


@dataclass(frozen=True)
class GridConfig:
    N: int
    M: int
    L_half: float


@dataclass(frozen=True)
class InitialCondition:
    kind: str
    half_side: Optional[float] = None
    radius: Optional[float] = None
    value: Optional[float] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class OutputOptions:
    directory: str = "out"
    snapshot_every: int = 50
    formats: Tuple[str, ...] = ("txt",)


@dataclass(frozen=True)
class SimConfig:
    substance: Substance
    T: float
    vartheta0: float
    R: float
    grid: GridConfig
    n_steps: int
    c_gas: float
    c_liq: float
    bounds_factors: Tuple[float, float]
    lam: Optional[float]
    initial: InitialCondition
    solver: SolverConfig
    output: OutputOptions
    source_path: Optional[str] = None
    provenance: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def tau(self) -> float:
        return self.solver.tau

    @property
    def c_m(self) -> float:
        return self.bounds_factors[0] * self.c_gas

    @property
    def c_M(self) -> float:
        return self.bounds_factors[1] * self.c_liq


def _require(table: dict, key: str, context: str):
    if key not in table:
        raise ConfigError(f"{context}{key}: missing required key")
    return table[key]


def _as_float(value, key: str) -> float:
    # YAML 1.1 reads exponents without a sign ("1.0e10") as strings; accept them.
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{key}: expected a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{key}: must be finite, got {v}")
    return v


def _as_positive(value, key: str) -> float:
    v = _as_float(value, key)
    if v <= 0:
        raise ConfigError(f"{key}: must be positive, got {v}")
    return v


def _as_int(value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _resolve_substance(raw, base_dir: str, provenance: List[str]) -> Substance:
    if raw is None:
        provenance.append("substance: default preset nC4")
        return get_substance("nC4")
    if isinstance(raw, str):
        candidate = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
        if os.path.exists(candidate):
            return load_substance(candidate)
        try:
            return get_substance(raw)
        except Exception as exc:
            raise ConfigError(f"substance: {raw!r} is neither a preset nor a readable file ({exc})") from exc
    if isinstance(raw, dict):
        for key in ("name", "Tc_K", "Pc_bar", "omega"):
            _require(raw, key, "substance.")
        return Substance(
            name=str(raw["name"]),
            T_c=_as_positive(raw["Tc_K"], "substance.Tc_K"),
            P_c=_as_positive(raw["Pc_bar"], "substance.Pc_bar") * 1.0e5,
            omega=_as_float(raw["omega"], "substance.omega"),
        )
    raise ConfigError(f"substance: expected a name, path, or table, got {type(raw).__name__}")


def _parse_initial(raw, grid: GridConfig) -> InitialCondition:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(
            f"initial_condition: expected exactly one of {_INITIAL_KINDS} as a one-entry table"
        )
    kind, params = next(iter(raw.items()))
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial_condition: unknown kind {kind!r}; expected one of {_INITIAL_KINDS}")
    params = params or {}
    if not isinstance(params, dict):
        raise ConfigError(f"initial_condition.{kind}: expected a table of parameters")

    if kind == "square_droplet":
        half = _as_positive(_require(params, "half_side", f"initial_condition.{kind}."),
                            "initial_condition.square_droplet.half_side")
        if half > grid.L_half:
            raise ConfigError(
                f"initial_condition.square_droplet.half_side: droplet (half side {half}) "
                f"exceeds the domain half width {grid.L_half}"
            )
        return InitialCondition(kind=kind, half_side=half)
    if kind == "disk":
        radius = _as_positive(_require(params, "radius", f"initial_condition.{kind}."),
                              "initial_condition.disk.radius")
        if radius > grid.L_half:
            raise ConfigError(
                f"initial_condition.disk.radius: droplet (radius {radius}) "
                f"exceeds the domain half width {grid.L_half}"
            )
        return InitialCondition(kind=kind, radius=radius)
    if kind == "uniform":
        value = _as_positive(_require(params, "value", f"initial_condition.{kind}."),
                             "initial_condition.uniform.value")
        return InitialCondition(kind=kind, value=value)
    path = str(_require(params, "path", f"initial_condition.{kind}."))
    return InitialCondition(kind=kind, path=path)


def load_config(path: str) -> SimConfig:
    """Parse and validate a YAML run file; error messages name the bad key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    provenance: List[str] = []
    base_dir = os.path.dirname(os.path.abspath(path))

    known = {
        "substance", "T", "vartheta0", "R", "grid", "tau", "n_steps",
        "c_gas", "c_liq", "bounds_factors", "lambda", "initial_condition",
        "solver", "output",
    }
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")

    substance = _resolve_substance(raw.get("substance"), base_dir, provenance)
    T = _as_positive(_require(raw, "T", ""), "T")
    vartheta0 = _as_float(raw.get("vartheta0", 0.0), "vartheta0")
    if "vartheta0" not in raw:
        provenance.append("vartheta0: default 0.0")
    R = _as_positive(raw.get("R", R_DEFAULT), "R")
    if "R" not in raw:
        provenance.append(f"R: default {R_DEFAULT}")

    grid_raw = _require(raw, "grid", "")
    if not isinstance(grid_raw, dict):
        raise ConfigError("grid: expected a table with keys N, M, L_half")
    N = _as_int(_require(grid_raw, "N", "grid."), "grid.N")
    M = _as_int(_require(grid_raw, "M", "grid."), "grid.M")
    if N < 2 or M < 2:
        raise ConfigError(f"grid.N/grid.M: need at least 2 cells per direction, got {N}x{M}")
    if N != M:
        raise ConfigError(
            f"grid.N/grid.M: the domain is the square [-L_half, L_half]^2, so square "
            f"cells require N == M; got N={N}, M={M}"
        )
    L_half = _as_positive(_require(grid_raw, "L_half", "grid."), "grid.L_half")
    grid = GridConfig(N=N, M=M, L_half=L_half)

    tau = _as_float(_require(raw, "tau", ""), "tau")
    n_steps = _as_int(_require(raw, "n_steps", ""), "n_steps")
    if n_steps < 0:
        raise ConfigError(f"n_steps: must be nonnegative, got {n_steps}")
    c_gas = _as_positive(_require(raw, "c_gas", ""), "c_gas")
    c_liq = _as_positive(_require(raw, "c_liq", ""), "c_liq")
    if c_gas >= c_liq:
        raise ConfigError(f"c_gas/c_liq: need c_gas < c_liq, got {c_gas} >= {c_liq}")

    bf_raw = raw.get("bounds_factors", [0.9, 1.1])
    if "bounds_factors" not in raw:
        provenance.append("bounds_factors: default [0.9, 1.1]")
    if not (isinstance(bf_raw, (list, tuple)) and len(bf_raw) == 2):
        raise ConfigError(f"bounds_factors: expected two numbers, got {bf_raw!r}")
    bf = (_as_positive(bf_raw[0], "bounds_factors[0]"), _as_positive(bf_raw[1], "bounds_factors[1]"))
    if bf[0] > 1.0 or bf[1] < 1.0:
        raise ConfigError(
            f"bounds_factors: window must contain both bulk densities "
            f"(need factor0 <= 1 <= factor1), got {list(bf)}"
        )
    if bf[0] * c_gas >= bf[1] * c_liq:
        raise ConfigError(f"bounds_factors: window is inverted for these densities: {list(bf)}")

    lam = raw.get("lambda")
    if lam is None:
        provenance.append("lambda: default minimal admissible shift")
    else:
        lam = _as_positive(lam, "lambda")

    initial = _parse_initial(_require(raw, "initial_condition", ""), grid)

    solver_raw = raw.get("solver", {}) or {}
    if not isinstance(solver_raw, dict):
        raise ConfigError("solver: expected a table")
    knobs = [f for f in fields(SolverConfig) if f.name != "tau"]
    unknown = sorted(set(solver_raw) - {f.name for f in knobs})
    if unknown:
        raise ConfigError(f"solver: unknown keys {unknown}")
    # Only YAML types are coerced here; SolverConfig owns the range rules.
    hints = get_type_hints(SolverConfig)
    sol_kwargs = {}
    for f in knobs:
        if f.name not in solver_raw:
            provenance.append(f"solver.{f.name}: default {f.default}")
            continue
        value = solver_raw[f.name]
        if hints[f.name] is float:
            value = _as_float(value, f"solver.{f.name}")
        elif hints[f.name] == Optional[int] and value is not None:
            value = _as_int(value, f"solver.{f.name}")
        sol_kwargs[f.name] = value
    try:
        solver = SolverConfig(tau=tau, **sol_kwargs)
    except ParameterError as exc:
        raise ConfigError(f"{'' if exc.key == 'tau' else 'solver.'}{exc}") from None

    output_raw = raw.get("output", {}) or {}
    if not isinstance(output_raw, dict):
        raise ConfigError("output: expected a table")
    unknown = sorted(set(output_raw) - {"directory", "snapshot_every", "formats"})
    if unknown:
        raise ConfigError(f"output: unknown keys {unknown}")
    out_defaults = OutputOptions()
    directory = str(output_raw.get("directory", out_defaults.directory))
    if "directory" not in output_raw:
        provenance.append(f"output.directory: default {out_defaults.directory!r}")
    snapshot_every = output_raw.get("snapshot_every", out_defaults.snapshot_every)
    snapshot_every = _as_int(snapshot_every, "output.snapshot_every")
    if snapshot_every < 1:
        raise ConfigError(f"output.snapshot_every: must be >= 1, got {snapshot_every}")
    if "snapshot_every" not in output_raw:
        provenance.append(f"output.snapshot_every: default {out_defaults.snapshot_every}")
    formats_raw = output_raw.get("formats", list(out_defaults.formats))
    if "formats" not in output_raw:
        provenance.append(f"output.formats: default {list(out_defaults.formats)}")
    if not isinstance(formats_raw, (list, tuple)) or not formats_raw:
        raise ConfigError(f"output.formats: expected a nonempty list from {_FORMATS}")
    for fmt in formats_raw:
        if fmt not in _FORMATS:
            raise ConfigError(f"output.formats: unknown format {fmt!r}; expected from {_FORMATS}")
    output = OutputOptions(directory=directory, snapshot_every=snapshot_every,
                           formats=tuple(formats_raw))

    return SimConfig(
        substance=substance, T=T, vartheta0=vartheta0, R=R, grid=grid, n_steps=n_steps,
        c_gas=c_gas, c_liq=c_liq, bounds_factors=bf, lam=lam, initial=initial,
        solver=solver, output=output,
        source_path=os.path.abspath(path), provenance=tuple(provenance),
    )
