"""Peng-Robinson bulk thermodynamics for a single species.

Helmholtz free-energy density of the homogeneous fluid, split into three
parts (all in J/m^3, with c the molar density in mol/m^3):

    f_ideal(c)      = c*R*T*ln(c)
    f_repulsion(c)  = -c*R*T * ln(1 - beta*c)
    f_attraction(c) = alpha*c / (2*sqrt(2)*beta)
                        * ln[ (1 + (1 - sqrt 2) beta c) / (1 + (1 + sqrt 2) beta c) ]

with the usual mixture-free parameters

    alpha(T) = 0.45724 * R^2 Tc^2 / Pc * [1 + m*(1 - sqrt(T/Tc))]^2
    beta     = 0.07780 * R Tc / Pc

and m a cubic/quadratic polynomial in the acentric factor omega.  The
chemical potential is mu_b = d f_b / d c and the pressure follows from the
Legendre transform P = c*mu_b - f_b, which reduces to the familiar

    P = c R T / (1 - beta c) - alpha c^2 / (1 + 2 beta c - (beta c)^2).

The influence (gradient-energy) coefficient kappa is a fluid constant tied
to alpha, beta and omega; it multiplies |grad c|^2 / 2 in the interface
energy.

All quantities are SI: K, Pa, mol/m^3, J/m^3, J/mol.  The admissible
density range is 0 < c < 1/beta; ``_require_admissible`` is its one rule,
and raises ``DomainError`` outside it.  This module holds the substance
data and the model constants; the package evaluates f_b and mu_b in one
kernel, ``ef._pointwise``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import DomainError, ParameterError

#: CODATA molar gas constant, J/(mol K).
R_DEFAULT = 8.31446261815324

# Reject densities with beta*c this close to the packing singularity.
_BC_LIMIT = 1.0 - 1e-12


@dataclass(frozen=True)
class Substance:
    """Critical-point data identifying a pure species.

    T_c in K, P_c in Pa, omega dimensionless (acentric factor).
    """

    name: str
    T_c: float
    P_c: float
    omega: float

    def __post_init__(self):
        for key in ("T_c", "P_c", "omega"):
            v = getattr(self, key)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(f"substance {self.name!r}: {key} must be finite, got {v!r}")
        if self.T_c <= 0:
            raise ParameterError(f"substance {self.name!r}: T_c must be positive, got {self.T_c}")
        if self.P_c <= 0:
            raise ParameterError(f"substance {self.name!r}: P_c must be positive, got {self.P_c}")


_N_BUTANE = Substance(name="nC4", T_c=425.2, P_c=38.0e5, omega=0.199)

#: Built-in species presets, keyed by lower-case name.
PRESETS = {"nc4": _N_BUTANE, "n-butane": _N_BUTANE}


def get_substance(name: str) -> Substance:
    """Look up a built-in substance preset by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in PRESETS:
        known = sorted(set(s.name for s in PRESETS.values()))
        raise ParameterError(f"unknown substance preset {name!r}; built-ins: {known}")
    return PRESETS[key]


def substance_from_table(table, source: str) -> Substance:
    """Substance from keys ``name``, ``Tc_K``, ``Pc_bar`` (converted to Pa) and
    ``omega``, given as numbers or numeric strings; errors name ``source``."""
    missing = [k for k in ("name", "Tc_K", "Pc_bar", "omega") if k not in table]
    if missing:
        raise ParameterError(f"{source}: missing substance keys {missing}")

    def number(key):
        if isinstance(table[key], bool):
            raise ValueError(f"{key} = {table[key]!r}")
        return float(table[key])

    try:
        return Substance(name=str(table["name"]), T_c=number("Tc_K"),
                         P_c=number("Pc_bar") * 1.0e5, omega=number("omega"))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{source}: non-numeric substance value ({exc})") from exc


def load_substance(path: str) -> Substance:
    """Load a substance from a plain-text key/value block.

    The file holds one ``key = value`` pair per line with the keys of
    ``substance_from_table``; blank lines and ``#`` comments are ignored.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"{path}: cannot read substance file ({exc})") from exc
    fields = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, value = line.partition("=")
        fields[key.strip()] = value.strip()
    return substance_from_table(fields, path)


@dataclass(frozen=True)
class EosParams:
    """Derived model constants for one substance at one temperature; the
    gas constant is ``R_DEFAULT``.

    Attributes
    ----------
    T : float
        Temperature in K.
    m : float
        Acentric-factor polynomial value (dimensionless).
    alpha : float
        Attraction parameter in Pa m^6/mol^2.
    beta : float
        Covolume in m^3/mol.
    kappa : float
        Influence coefficient in J m^5 / mol^2 (as conventionally printed);
        must be positive.
    """

    T: float
    m: float
    alpha: float
    beta: float
    kappa: float

    def __post_init__(self):
        # ParameterError.key names the field; the config loader maps it to a YAML key.
        for key in ("T", "m", "alpha", "beta", "kappa"):
            v = getattr(self, key)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ParameterError(f"{key}: must be finite, got {v!r}", key=key)
        for key, ok, rule in (("T", self.T > 0, "positive"),
                              ("alpha", self.alpha >= 0, "nonnegative"),
                              ("beta", self.beta > 0, "positive")):
            if not ok:
                raise ParameterError(f"{key}: must be {rule}, got {getattr(self, key)!r}", key=key)
        # The gradient energy, and with it the step's SPD operator, needs kappa > 0;
        # derive_eos_params gives kappa <= 0 for some acentric factors and temperatures.
        if not self.kappa > 0:
            raise ParameterError(f"kappa: must be positive, got {self.kappa!r} at T = {self.T} K",
                                 key="kappa")

    @property
    def c_max(self) -> float:
        """Upper end of the physical density domain, 1/beta."""
        return 1.0 / self.beta


def acentric_polynomial(omega: float) -> float:
    """m(omega), switching from the quadratic to the cubic fit above 0.49."""
    if not math.isfinite(omega):
        raise ParameterError(f"omega must be finite, got {omega!r}")
    if omega <= 0.49:
        return 0.37464 + 1.54226 * omega - 0.26992 * omega**2
    return 0.379642 + 1.485030 * omega - 0.164423 * omega**2 + 0.016666 * omega**3


def derive_eos_params(substance: Substance, T: float) -> EosParams:
    """Evaluate all temperature-dependent model constants, with the gas
    constant ``R_DEFAULT``.

    Warns (without failing) when T >= T_c, where the model has no
    two-phase region.  T is checked here because it enters sqrt(T/T_c).
    """
    if not (isinstance(T, (int, float)) and math.isfinite(T) and T > 0):
        raise ParameterError(f"T: must be finite and positive, got {T!r}", key="T")
    if T >= substance.T_c:
        warnings.warn(
            f"T = {T} K is at or above the critical temperature {substance.T_c} K "
            f"of {substance.name}; no liquid/vapour coexistence exists there",
            stacklevel=2,
        )

    omega = substance.omega
    m = acentric_polynomial(omega)
    T_r = T / substance.T_c
    R = R_DEFAULT
    alpha = (
        0.45724 * R**2 * substance.T_c**2 / substance.P_c
        * (1.0 + m * (1.0 - math.sqrt(T_r))) ** 2
    )
    beta = 0.07780 * R * substance.T_c / substance.P_c

    a0 = -1.0e-16 / (1.2326 + 1.3757 * omega)
    a1 = 1.0e-16 / (0.9051 + 1.5410 * omega)
    kappa = alpha * beta ** (2.0 / 3.0) * (a0 * (1.0 - T_r) + a1)

    return EosParams(T=float(T), m=m, alpha=alpha, beta=beta, kappa=kappa)


def _require_admissible(c: np.ndarray, p: EosParams, what: str) -> Tuple[float, float]:
    """Raise DomainError naming the violated bound unless 0 < c < 1/beta.

    Reads only the extremes, which it returns as (min c, max c): a nan or
    an infinity reaches min or max.  An empty ``c`` passes, as (nan, nan).
    """
    c = np.asarray(c)
    if c.size == 0:
        return math.nan, math.nan
    lo, hi = float(c.min()), float(c.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"{what}: density must be finite")
    if lo <= 0.0:
        raise DomainError(f"{what}: density must be positive (lower bound c > 0 failed, min c = {lo})")
    if p.beta * hi >= _BC_LIMIT:
        raise DomainError(
            f"{what}: density too close to the packing limit "
            f"(upper bound beta*c < 1 failed, max beta*c = {p.beta * hi})"
        )
    return lo, hi
