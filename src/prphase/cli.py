"""Command-line entry point.

    prphase run <config.yaml|preset> [--output-dir DIR] [-v]
    prphase check <config.yaml|preset>
    prphase props <substance> --T <K> [--c-gas X --c-liq Y]
                   [--bounds-factors A B] [--vartheta0 V]

``props`` takes its default bulk densities from the ``nc4_droplet`` preset.

Exit codes: 0 success, 2 configuration/parameter errors, 3 density outside
the physical or configured domain, 4 linear-solver failure, 5 a runtime
invariant check failed.

``run``/``check`` accept either a path to a YAML file or the name of a
shipped preset (see ``prphase.presets``).  The output directory resolves as
--output-dir, then $PRPHASE_OUTPUT_DIR, then the config value.
"""

from __future__ import annotations

import argparse
import inspect
import logging
import os
import sys
from dataclasses import fields
from importlib import resources

from . import diagnostics
from .config import (DEFAULT_BOUNDS_FACTORS, SimConfig, _substance_at, density_window,
                     load_config)
from .ef import minimal_lambda
from .eos import derive_eos_params
from .errors import (
    BoundsViolationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    InvariantViolation,
    ParameterError,
)
from .experiment import build_initial, run_experiment

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SOLVER = 4
EXIT_INVARIANT = 5

#: Shipped preset whose bulk densities are ``props``' defaults.
DENSITY_PRESET = "nc4_droplet"


def _resolve_config_arg(arg: str) -> str:
    """Accept a config path or the stem of a shipped preset YAML."""
    if os.path.exists(arg):
        return arg
    candidate = resources.files("prphase").joinpath("presets", f"{arg}.yaml")
    if candidate.is_file():
        return str(candidate)
    raise ConfigError(f"no config file or preset named {arg!r}")


def _cmd_run(args) -> int:
    cfg = load_config(_resolve_config_arg(args.config))
    return run_experiment(cfg, output_dir=args.output_dir)


def _describe(cfg: SimConfig, c0) -> str:
    g, w = cfg.grid, cfg.window
    lines = [
        f"substance        {cfg.substance.name} "
        f"(Tc={cfg.substance.T_c} K, Pc={cfg.substance.P_c} Pa, omega={cfg.substance.omega})",
        f"temperature      {cfg.eos.T} K",
        f"grid             {g.nx} x {g.ny} cells on [{g.x0}, {-g.x0}]^2 m",
        f"time step        {cfg.tau} s  x {cfg.n_steps} steps",
        f"bulk densities   gas {cfg.c_gas}  liquid {cfg.c_liq} mol/m^3",
        f"density window   [{w.c_m}, {w.c_M}] mol/m^3",
        f"lambda           {w.lam} (minimal {minimal_lambda(w.epsilon_0)})",
        "solver           " + " ".join(f"{f.name}={getattr(cfg.solver, f.name)}"
                                       for f in fields(cfg.solver) if f.name != "tau"),
        f"initial          {cfg.initial.kind}, density in [{c0.min()}, {c0.max()}] mol/m^3",
        f"output           {cfg.output.directory} (snapshots every {cfg.output.snapshot_every}, "
        f"formats {list(cfg.output.formats)})",
    ]
    if cfg.provenance:
        lines.append("defaults applied:")
        lines.extend(f"  - {entry}" for entry in cfg.provenance)
    return "\n".join(lines)


def _cmd_check(args) -> int:
    cfg = load_config(_resolve_config_arg(args.config))
    c0 = build_initial(cfg)
    print(f"config OK: {cfg.source_path}")
    print(_describe(cfg, c0))
    return EXIT_OK


def _cmd_props(args) -> int:
    try:
        substance = _substance_at(args.substance, os.getcwd())
    except ParameterError as exc:
        raise ParameterError(f"props: substance argument {exc}") from None
    p = derive_eos_params(substance, args.T, vartheta0=args.vartheta0)
    print(f"{substance.name} at T = {args.T} K")
    print(f"  m        {p.m!r}")
    print(f"  alpha    {p.alpha!r} Pa m^6/mol^2")
    print(f"  beta     {p.beta!r} m^3/mol")
    print(f"  kappa    {p.kappa!r}")
    print(f"  1/beta   {p.c_max!r} mol/m^3 (packing limit)")
    c_gas, c_liq = args.c_gas, args.c_liq
    if c_gas is None or c_liq is None:
        preset = load_config(_resolve_config_arg(DENSITY_PRESET))
        c_gas = preset.c_gas if c_gas is None else c_gas
        c_liq = preset.c_liq if c_liq is None else c_liq
    ef = density_window(c_gas, c_liq, args.bounds_factors, p)
    interval = diagnostics.admissible_interval(ef, p)
    f0, f1 = args.bounds_factors
    print(f"  window   [{ef.c_m!r}, {ef.c_M!r}] mol/m^3 (factors {f0}, {f1})")
    print(f"  eps0     {ef.epsilon_0!r}")
    print(f"  lambda   {ef.lam!r} (minimal: {minimal_lambda(ef.epsilon_0)!r})")
    print(f"  mu range [{interval.mu_lower!r}, {interval.mu_upper!r}] J/mol")
    if interval.empty:
        print("  warning: admissible multiplier interval is empty")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prphase",
        description="Diffuse-interface Peng-Robinson droplet simulations "
                    "with an energy-stable semi-implicit stepper.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log at DEBUG level")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a YAML config or preset name")
    p_run.add_argument("config", help="path to a YAML run file, or a preset name")
    p_run.add_argument("--output-dir", default=None,
                       help="override the output directory (also: $PRPHASE_OUTPUT_DIR)")
    p_run.set_defaults(func=_cmd_run)

    p_check = sub.add_parser("check", help="validate a config and show the resolved settings")
    p_check.add_argument("config", help="path to a YAML run file, or a preset name")
    p_check.set_defaults(func=_cmd_check)

    p_props = sub.add_parser("props", help="print derived model constants for a substance")
    p_props.add_argument("substance", help="preset name (e.g. nC4) or substance file path")
    p_props.add_argument("--T", type=float, required=True, help="temperature in K")
    p_props.add_argument("--vartheta0", type=float,
                         default=inspect.signature(derive_eos_params).parameters["vartheta0"].default,
                         help="reference chemical potential offset in J/mol")
    p_props.add_argument("--c-gas", type=float, default=None,
                         help="bulk vapour density in mol/m^3 (default: that of the "
                              f"{DENSITY_PRESET} preset, n-butane coexistence at 330 K)")
    p_props.add_argument("--c-liq", type=float, default=None,
                         help="bulk liquid density in mol/m^3 (default: that of the "
                              f"{DENSITY_PRESET} preset, n-butane coexistence at 330 K)")
    p_props.add_argument("--bounds-factors", type=float, nargs=2, default=DEFAULT_BOUNDS_FACTORS,
                         metavar=("LOW", "HIGH"),
                         help="density window as multiples of c_gas / c_liq")
    p_props.set_defaults(func=_cmd_props)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ParameterError as exc:
        print(f"parameter error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except BoundsViolationError as exc:
        print(f"bounds violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
