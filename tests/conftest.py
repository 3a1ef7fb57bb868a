import os
from pathlib import Path

import numpy as np
import pytest

import prphase
from prphase import (
    EfParams,
    Grid2D,
    SchemeCoefficients,
    SolverConfig,
    ParameterError,
    derive_eos_params,
    get_substance,
)
from prphase.solver import apply_operator

C_GAS = 249.1123
C_LIQ = 9526.8428


@pytest.fixture(scope="session")
def nc4():
    return derive_eos_params(get_substance("nC4"), 330.0)


@pytest.fixture(scope="session")
def window(nc4):
    return EfParams.for_window(0.9 * C_GAS, 1.1 * C_LIQ, nc4)


@pytest.fixture
def rng():
    return np.random.default_rng(20260826)


@pytest.fixture
def unit_grid():
    # O(1) spacing keeps round-off comparisons meaningful in operator tests
    return Grid2D(nx=12, ny=9, h=0.5, x0=-1.0, y0=2.0)


def inner(a, b, g):
    """h^2-weighted inner product of two cell fields, by numpy's pairwise sum."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    for field in (a, b):
        if field.shape != g.cell_shape():
            raise ParameterError(f"inner: expected shape {g.cell_shape()}, got {field.shape}")
    return float(g.h * g.h * np.sum(a * b))


def minus_laplacian(c, g):
    """-Lap_h(c) through the operator the solver runs: A c at kappa = 1 less
    A c at kappa = 0, with nu = 0 and tau = 1."""
    zero = np.zeros(g.cell_shape())
    coeffs, cfg = SchemeCoefficients(nu=zero, s_r=zero), SolverConfig(tau=1.0)
    return apply_operator(c, coeffs, cfg, 1.0, g) - apply_operator(c, coeffs, cfg, 0.0, g)


def prepend_path(env, key, directory):
    env[key] = os.pathsep.join([str(directory)] + ([env[key]] if env.get(key) else []))


def child_env():
    """Environment in which a child process imports the same `prphase`
    package as this test process, however pytest was launched."""
    env = dict(os.environ)
    prepend_path(env, "PYTHONPATH", Path(prphase.__file__).resolve().parents[1])
    return env
