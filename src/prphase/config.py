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
    bounds_factors: [0.9, 1.1]   # window [0.9*c_gas, 1.1*c_liq]
    lambda: null                 # null -> minimal admissible shift
    solver: {cg_rel_tol: 1.0e-10, on_violation: continue}
    output: {directory: out, snapshot_every: 50, formats: [txt]}

``load_config`` builds the run's model from its own types: the constants
(``eos.derive_eos_params``), the window and shift (``ef.EfParams.for_window``),
the mesh of the square [-L_half, L_half]^2 (``grid.Grid2D``), one
``solver.SolverConfig`` from ``tau`` and the ``solver`` table, and one
``OutputOptions``; the fields and defaults of the last two define their
tables, and ``prphase check`` prints them.  Each type owns its rules.  The
loader coerces YAML types, rejects unknown and missing keys, checks what
concerns the file itself (N == M; ``density_window``, which ``prphase props``
shares, checks c_gas < c_liq and a window holding both) and reports a
``ParameterError`` as a ``ConfigError`` naming the key.  Every applied
default is recorded in ``SimConfig.provenance`` so ``prphase check`` can
show exactly what a run will use.  ``experiment.build_initial`` builds the
initial field and checks it against the window.
"""

from __future__ import annotations

import inspect
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import yaml

from .ef import EfParams
from .eos import (EosParams, Substance, derive_eos_params, get_substance, load_substance,
                  substance_from_table)
from .errors import ConfigError, ParameterError
from .grid import Grid2D
from .solver import SolverConfig

#: Initial-condition kinds and the one parameter each takes.
_INITIAL_KINDS = {"square_droplet": "half_side", "disk": "radius", "uniform": "value",
                  "from_file": "path"}
_FORMATS = ("txt", "csv")
#: Default density window [factor0*c_gas, factor1*c_liq].
DEFAULT_BOUNDS_FACTORS = (0.9, 1.1)
#: The safe loader, with libyaml's parser where PyYAML was built with it.
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class InitialCondition:
    kind: str
    half_side: Optional[float] = None
    radius: Optional[float] = None
    value: Optional[float] = None
    path: Optional[str] = None


@dataclass(frozen=True)
class OutputOptions:
    """Artifact settings: snapshots every ``snapshot_every`` steps (step 0 and
    the last step always) in each of ``formats``, under ``directory``."""

    directory: str = "out"
    snapshot_every: int = 50
    formats: Tuple[str, ...] = ("txt",)

    def __post_init__(self):
        # ParameterError.key names the field; the config loader maps it to a YAML key.
        rules = (
            ("snapshot_every", self.snapshot_every >= 1, "must be >= 1"),
            ("formats", len(self.formats) > 0, f"expected a nonempty list from {_FORMATS}"),
            ("formats", all(fmt in _FORMATS for fmt in self.formats),
             f"unknown format; expected from {_FORMATS}"),
        )
        for key, ok, rule in rules:
            if not ok:
                raise ParameterError(f"{key}: {rule}, got {getattr(self, key)!r}", key=key)


@dataclass(frozen=True)
class SimConfig:
    substance: Substance
    eos: EosParams
    grid: Grid2D
    n_steps: int
    c_gas: float
    c_liq: float
    window: EfParams
    initial: InitialCondition
    solver: SolverConfig
    output: OutputOptions
    source_path: Optional[str] = None
    provenance: Tuple[str, ...] = field(default_factory=tuple)

    @property
    def tau(self) -> float:
        return self.solver.tau


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


def _coerce(value, hint: str, key: str):
    """Convert a YAML value to a dataclass field's type, given as the text of
    its annotation (every module defers annotations, so a field's ``type`` is
    that text, and reading it compiles nothing); ranges are the type's business."""
    if hint == "float":
        return _as_float(value, key)
    if hint == "int" or (hint == "Optional[int]" and value is not None):
        return _as_int(value, key)
    if hint == "str":
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {value!r}")
        return value
    if hint == "Tuple[str, ...]":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {value!r}")
        return tuple(value)
    return value


@contextmanager
def _config_error(prefix=""):
    """Report a ParameterError as a ConfigError starting with ``prefix``, or
    with ``prefix[exc.key]`` when ``prefix`` is a mapping."""
    try:
        yield
    except ParameterError as exc:
        start = prefix.get(exc.key, "") if isinstance(prefix, dict) else prefix
        raise ConfigError(f"{start}{exc}") from None


def _load_table(raw: dict, name: str, cls, provenance: List[str], **fixed):
    """Build ``cls`` from the ``fixed`` fields and the YAML table ``name``,
    whose keys are the other fields; each default applied goes to ``provenance``."""
    table = raw.get(name, {}) or {}
    if not isinstance(table, dict):
        raise ConfigError(f"{name}: expected a table")
    knobs = [f for f in fields(cls) if f.name not in fixed]
    unknown = sorted(set(table) - {f.name for f in knobs})
    if unknown:
        raise ConfigError(f"{name}: unknown keys {unknown}")
    kwargs = dict(fixed)
    for f in knobs:
        if f.name in table:
            kwargs[f.name] = _coerce(table[f.name], f.type, f"{name}.{f.name}")
        else:
            provenance.append(f"{name}.{f.name}: default {f.default!r}")
    with _config_error({f.name: f"{name}." for f in knobs}):
        return cls(**kwargs)


def _substance_at(raw: str, base_dir: str) -> Substance:
    """The substance of the file path ``raw`` (relative to ``base_dir``), else
    of the preset named ``raw``; ``prphase props`` shares the rule.  Raises
    ``ParameterError``, without naming where ``raw`` came from."""
    candidate = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
    if os.path.exists(candidate):
        return load_substance(candidate)
    try:
        return get_substance(raw)
    except ParameterError as exc:
        raise ParameterError(f"{raw!r} is neither a preset nor a readable file ({exc})") from exc


def _resolve_substance(raw, base_dir: str, provenance: List[str]) -> Substance:
    """The substance of the run file's ``substance`` value: a file path or a
    preset name (``_substance_at``), or an inline table."""
    if raw is None:
        provenance.append("substance: default preset nC4")
        return get_substance("nC4")
    if isinstance(raw, str):
        with _config_error("substance: "):
            return _substance_at(raw, base_dir)
    if isinstance(raw, dict):
        with _config_error():
            return substance_from_table(raw, "substance")
    raise ConfigError(f"substance: expected a name, path, or table, got {type(raw).__name__}")


def _parse_initial(raw, L_half: float) -> InitialCondition:
    if not isinstance(raw, dict) or len(raw) != 1:
        raise ConfigError(
            f"initial_condition: expected exactly one of {tuple(_INITIAL_KINDS)} as a one-entry table"
        )
    kind, params = next(iter(raw.items()))
    if kind not in _INITIAL_KINDS:
        raise ConfigError(f"initial_condition: unknown kind {kind!r}; "
                          f"expected one of {tuple(_INITIAL_KINDS)}")
    params = params or {}
    if not isinstance(params, dict):
        raise ConfigError(f"initial_condition.{kind}: expected a table of parameters")

    name = _INITIAL_KINDS[kind]
    value = _require(params, name, f"initial_condition.{kind}.")
    if kind == "from_file":
        return InitialCondition(kind=kind, path=str(value))
    key = f"initial_condition.{kind}.{name}"
    value = _as_positive(value, key)
    if kind != "uniform" and value > L_half:
        raise ConfigError(
            f"{key}: droplet ({name.replace('_', ' ')} {value}) "
            f"exceeds the domain half width {L_half}"
        )
    return InitialCondition(kind=kind, **{name: value})


def density_window(c_gas: float, c_liq: float, bounds_factors: Tuple[float, float],
                   eos: EosParams, lam: Optional[float] = None) -> EfParams:
    """The window [factor0*c_gas, factor1*c_liq], which must hold both bulk
    densities, and its shift; errors are ``ConfigError`` naming the key."""
    if c_gas >= c_liq:
        raise ConfigError(f"c_gas/c_liq: need c_gas < c_liq, got {c_gas} >= {c_liq}")
    f0, f1 = bounds_factors
    if f0 > 1.0 or f1 < 1.0:
        raise ConfigError(
            f"bounds_factors: window must contain both bulk densities "
            f"(need factor0 <= 1 <= factor1), got {[f0, f1]}"
        )
    with _config_error({"lam": "lambda: ", "window": "c_liq/bounds_factors: "}):
        return EfParams.for_window(f0 * c_gas, f1 * c_liq, eos, lam=lam)


def load_config(path: str) -> SimConfig:
    """Parse a YAML run file and build the run's model; errors name the bad key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.load(fh, Loader=_YAML_LOADER)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config file ({exc})") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML ({exc})") from exc
    if raw is None:
        raise ConfigError(f"{path}: empty config file")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    provenance: List[str] = []
    base_dir = os.path.dirname(os.path.abspath(path))

    known = {
        "substance", "T", "vartheta0", "grid", "tau", "n_steps",
        "c_gas", "c_liq", "bounds_factors", "lambda", "initial_condition",
        "solver", "output",
    }
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config keys: {unknown}")

    substance = _resolve_substance(raw.get("substance"), base_dir, provenance)
    T = _as_float(_require(raw, "T", ""), "T")
    if "vartheta0" in raw:
        vartheta0 = _as_float(raw["vartheta0"], "vartheta0")
    else:
        vartheta0 = inspect.signature(derive_eos_params).parameters["vartheta0"].default
        provenance.append(f"vartheta0: default {vartheta0!r}")
    with _config_error():
        eos = derive_eos_params(substance, T, vartheta0)

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
    L_half = _as_float(_require(grid_raw, "L_half", "grid."), "grid.L_half")
    with _config_error("grid.L_half: "):
        grid = Grid2D(nx=N, ny=M, h=2.0 * L_half / N, x0=-L_half, y0=-L_half)

    tau = _as_float(_require(raw, "tau", ""), "tau")
    n_steps = _as_int(_require(raw, "n_steps", ""), "n_steps")
    if n_steps < 0:
        raise ConfigError(f"n_steps: must be nonnegative, got {n_steps}")
    c_gas = _as_positive(_require(raw, "c_gas", ""), "c_gas")
    c_liq = _as_positive(_require(raw, "c_liq", ""), "c_liq")
    bf_raw = raw.get("bounds_factors", DEFAULT_BOUNDS_FACTORS)
    if "bounds_factors" not in raw:
        provenance.append(f"bounds_factors: default {list(DEFAULT_BOUNDS_FACTORS)}")
    if not (isinstance(bf_raw, (list, tuple)) and len(bf_raw) == 2):
        raise ConfigError(f"bounds_factors: expected two numbers, got {bf_raw!r}")
    bf = (_as_positive(bf_raw[0], "bounds_factors[0]"), _as_positive(bf_raw[1], "bounds_factors[1]"))
    lam = raw.get("lambda")
    if lam is None:
        provenance.append("lambda: default minimal admissible shift")
    else:
        lam = _as_float(lam, "lambda")
    window = density_window(c_gas, c_liq, bf, eos, lam=lam)

    initial = _parse_initial(_require(raw, "initial_condition", ""), L_half)
    solver = _load_table(raw, "solver", SolverConfig, provenance, tau=tau)
    output = _load_table(raw, "output", OutputOptions, provenance)

    return SimConfig(
        substance=substance, eos=eos, grid=grid, n_steps=n_steps,
        c_gas=c_gas, c_liq=c_liq, window=window, initial=initial,
        solver=solver, output=output,
        source_path=os.path.abspath(path), provenance=tuple(provenance),
    )
