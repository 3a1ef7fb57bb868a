"""End-to-end acceptance checks.

Each test covers one numbered claim about the package (paper-grade constants,
scheme inequalities, discrete-operator identities, and the full droplet
experiment) and prints a single PASS/FAIL line so a log scan shows the
verdict per criterion.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
import yaml

from prphase import (
    EfParams,
    Grid2D,
    SchemeCoefficients,
    SolverConfig,
    derive_eos_params,
    get_substance,
    minimal_lambda,
    run,
)
from prphase.cli import main
from prphase.config import load_config
from prphase.experiment import build_initial, read_snapshot, run_experiment

import oracles
from conftest import (
    C_GAS, C_LIQ, apply_operator, inner, kernel_bulk_bound, minus_laplacian, old_txt_bytes,
    solve_step,
)
from reference import (
    bulk_chemical_potential,
    bulk_free_energy,
    g_and_gprime,
    gradient_sq_norm,
    mu_attraction,
    pressure,
    semi_implicit_potentials,
)

FROZEN = oracles.FROZEN


def verdict(capsys, num, label, failures):
    ok = not failures
    with capsys.disabled():
        tail = "" if ok else " -- " + "; ".join(failures)
        print(f"\nACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {label}{tail}")
    assert ok, f"criterion {num} ({label}): " + "; ".join(failures)


def check(failures, ok, message):
    if not ok:
        failures.append(message)


# --- shared setups ---------------------------------------------------------

@pytest.fixture(scope="module")
def params():
    return derive_eos_params(get_substance("nC4"), 330.0)


@pytest.fixture(scope="module")
def ef(params):
    return EfParams.for_window(0.9 * C_GAS, 1.1 * C_LIQ, params)


@pytest.fixture(scope="module")
def main_run(tmp_path_factory):
    """The droplet-relaxation experiment, run once through the real CLI."""
    out = tmp_path_factory.mktemp("main_run")
    code = main(["run", "nc4_droplet", "--output-dir", str(out)])
    series = np.genfromtxt(out / "series.csv", delimiter=",", names=True)
    summary = json.loads((out / "summary.json").read_text())
    return code, series, summary, out


def series_failures(series, c_m, c_M, label=""):
    """Checks (a)-(d) shared by the main run and the step-size sweep."""
    failures = []
    f = series["F_total"]
    slack = 1e-8 * abs(f[0])
    check(failures, np.all(np.diff(f) <= slack), f"{label}energy increased at some step")
    check(failures, np.all(np.diff(f[-21:]) <= slack),
          f"{label}energy increased within the final twenty steps")
    tol = 1e-10 * c_M
    check(failures, np.all(series["c_min"] >= c_m - tol), f"{label}c_min left the window")
    check(failures, np.all(series["c_max"] <= c_M + tol), f"{label}c_max left the window")
    steps = series[1:]  # step 0 has no multiplier
    check(failures,
          np.all((steps["mu_e"] >= steps["mu_lower"]) & (steps["mu_e"] <= steps["mu_upper"])),
          f"{label}mu_e left the admissible interval")
    mass0 = series["mass"][0]
    drift = np.max(np.abs(series["mass"] - mass0)) / abs(mass0)
    check(failures, drift <= 1e-8, f"{label}mass drift {drift:.2e} exceeds 1e-8")
    return failures


# --- criteria --------------------------------------------------------------

def test_criterion_1_model_constants(params, capsys):
    failures = []
    check(failures, abs(params.beta - 7.2381e-5) <= 1e-4 * 7.2381e-5,
          f"beta = {params.beta}")
    check(failures, abs(params.beta * C_GAS - 0.0180) <= 1e-3,
          f"beta*c_gas = {params.beta * C_GAS}")
    check(failures, abs(params.beta * C_LIQ - 0.6896) <= 1e-3,
          f"beta*c_liq = {params.beta * C_LIQ}")
    eps0 = params.beta * 1.1 * C_LIQ
    check(failures, abs(eps0 - 0.7585) <= 1e-3, f"eps0 = {eps0}")
    lam = minimal_lambda(eps0)
    check(failures, abs(lam - 27.3656) <= 1e-3, f"minimal shift = {lam}")
    verdict(capsys, 1, "published model constants reproduced", failures)


def test_criterion_2_concavity(params, ef, capsys):
    failures = []
    cs = np.linspace(ef.c_m, ef.c_M, 10_000)
    delta = 1e-4 * cs
    g0 = g_and_gprime(cs, ef.lam, params)[0]
    gp = g_and_gprime(cs + delta, ef.lam, params)[0]
    gm = g_and_gprime(cs - delta, ef.lam, params)[0]
    second = gp - 2.0 * g0 + gm
    worst = float(np.max(second / g0))
    check(failures, np.all(second <= 1e-12 * g0),
          f"second difference reached {worst:.2e} of G")
    verdict(capsys, 2, "factor G concave at minimal shift (10^4 points)", failures)


def test_criterion_3_factorization_inequalities(params, ef, capsys):
    failures = []
    r = np.random.default_rng(301)
    c_old = r.uniform(ef.c_m, ef.c_M, size=10_000)
    c_new = r.uniform(ef.c_m, ef.c_M, size=10_000)
    dc = c_new - c_old
    pots = semi_implicit_potentials(c_old, c_new, ef, params)
    f_old = bulk_free_energy(c_old, params)
    f_new = bulk_free_energy(c_new, params)

    def bound_holds(lhs, rhs, scale):
        return np.all(lhs <= rhs + 1e-9 * scale)

    lhs = np.asarray(f_new.ideal) - np.asarray(f_old.ideal)
    rhs = pots.mu_ideal * dc
    check(failures, bound_holds(lhs, rhs, np.abs(f_new.ideal) + np.abs(f_old.ideal) + np.abs(rhs)),
          "ideal-term bound violated")

    g_old, gp_old = g_and_gprime(c_old, ef.lam, params)
    g_new = g_and_gprime(c_new, ef.lam, params)[0]
    g_lin = g_old + gp_old * dc
    lhs = g_new**2 - g_old**2
    rhs = (g_lin + g_old) * gp_old * dc
    check(failures, bound_holds(lhs, rhs, g_new**2 + g_old**2 + np.abs(rhs)),
          "squared-factor bound violated")

    lhs = np.asarray(f_new.repulsion) - np.asarray(f_old.repulsion)
    rhs = pots.mu_repulsion * dc
    check(failures,
          bound_holds(lhs, rhs, np.abs(f_new.repulsion) + np.abs(f_old.repulsion) + np.abs(rhs)),
          "repulsion-term bound violated")

    lhs = np.asarray(f_new.attraction) - np.asarray(f_old.attraction)
    rhs = np.asarray(mu_attraction(c_old, params)) * dc
    check(failures,
          bound_holds(lhs, rhs, np.abs(f_new.attraction) + np.abs(f_old.attraction) + np.abs(rhs)),
          "attraction tangent bound violated")

    # the same pairs on the scheme's own kernel, whose fields the march runs
    lhs, rhs, scale = kernel_bulk_bound(c_old, c_new, ef, params)
    check(failures, bound_holds(lhs, rhs, scale),
          "combined bulk bound violated by the pointwise kernel")
    verdict(capsys, 3, "per-term and kernel dissipation bounds (10^4 random pairs)", failures)


def test_criterion_4_consistency(params, ef, capsys):
    failures = []
    r = np.random.default_rng(401)
    cs = r.uniform(ef.c_m, ef.c_M, size=1000)
    pots = semi_implicit_potentials(cs, cs, ef, params)
    total = pots.mu_ideal + pots.mu_repulsion + np.asarray(mu_attraction(cs, params))
    mu = np.asarray(bulk_chemical_potential(cs, params))
    check(failures, np.all(np.abs(total - mu) <= 1e-10 * np.abs(mu)),
          "fixed-point potentials do not sum to mu_b")

    delta = 1e-6 * cs
    f = lambda c: np.asarray(bulk_free_energy(c, params).total)
    fd = (f(cs + delta) - f(cs - delta)) / (2.0 * delta)
    check(failures, np.all(np.abs(fd - mu) <= 1e-6 * np.abs(mu)),
          "mu_b does not match finite differences of f_b")
    verdict(capsys, 4, "semi-implicit potentials consistent with mu_b", failures)


def test_criterion_5_coexistence(params, capsys):
    failures = []
    pg = float(pressure(C_GAS, params))
    pl = float(pressure(C_LIQ, params))
    mg = float(bulk_chemical_potential(C_GAS, params))
    ml = float(bulk_chemical_potential(C_LIQ, params))
    check(failures, abs(pg - FROZEN["pressure_gas"]) <= 1e-12 * abs(FROZEN["pressure_gas"]),
          "gas pressure disagrees with the high-precision oracle")
    check(failures, abs(ml - FROZEN["mu_b_liq"]) <= 1e-12 * abs(FROZEN["mu_b_liq"]),
          "liquid potential disagrees with the high-precision oracle")
    check(failures, abs(pg - pl) / abs(pg) <= 0.05,
          f"pressure mismatch {abs(pg - pl) / abs(pg):.3f}")
    check(failures, abs(mg - ml) / abs(mg) <= 0.02,
          f"potential mismatch {abs(mg - ml) / abs(mg):.3f}")
    verdict(capsys, 5, "coexistence densities near equilibrium at 330 K", failures)


def test_criterion_6_discrete_operators(capsys):
    # -Lap_h c is the solver's operator at kappa = 1, nu = 0 and tau = 1, less c.
    failures = []
    r = np.random.default_rng(601)

    for nx, ny in ((3, 3), (4, 7), (100, 100)):
        g = Grid2D(nx=nx, ny=ny, h=0.41)
        for _ in range(100):
            c = r.standard_normal(g.cell_shape())
            grad_sq = gradient_sq_norm(c, g)
            if abs(inner(c, minus_laplacian(c, g), g) - grad_sq) > 1e-12 * grad_sq:
                failures.append(f"summation by parts failed on {nx}x{ny}")
                break

    g = Grid2D(nx=6, ny=5, h=0.7)
    c1 = r.standard_normal(g.cell_shape())
    c2 = r.standard_normal(g.cell_shape())
    a = inner(minus_laplacian(c1, g), c2, g)
    b = inner(c1, minus_laplacian(c2, g), g)
    check(failures, abs(a - b) <= 1e-13 * max(abs(a), abs(b)), "Laplacian not symmetric")
    quad = inner(minus_laplacian(c1, g), c1, g)
    check(failures, quad >= 0, "-Laplacian not positive semidefinite")
    # The folded stencil, d*c - k*(sum of neighbours), leaves round-off on a
    # constant; bounded against the (4 kappa/h^2)|c| it cancels.
    const = np.full(g.cell_shape(), 4.2)
    check(failures,
          np.max(np.abs(minus_laplacian(const, g))) <= 1e-14 * 4.0 / g.h**2 * 4.2,
          "constants not in the null space")

    # The cutoff inequality on a mesh and, each direction apart, on strips.
    for _ in range(20):
        for gl in (Grid2D(nx=9, ny=7, h=0.3), Grid2D(nx=9, ny=1, h=0.3),
                   Grid2D(nx=1, ny=9, h=0.3)):
            c = r.uniform(-2.0, 2.0, size=gl.cell_shape())
            for w in (np.minimum(c + 0.5, 0.0), np.maximum(c - 0.5, 0.0)):
                lhs = gradient_sq_norm(w, gl)
                rhs = inner(minus_laplacian(c, gl), w, gl)
                if lhs > rhs + 1e-12 * max(abs(rhs), 1.0):
                    failures.append(f"cutoff-field inequality violated on "
                                    f"{gl.nx}x{gl.ny}")
                    break

    # The projected solve against a dense solve of the saddle-point system
    # [[A, -1], [h^2 1', 0]] [x; mu_e] = [rhs; mass of the start].
    g3 = Grid2D(nx=3, ny=3, h=0.5)
    coeffs = SchemeCoefficients(nu=r.uniform(1.0, 2.0, size=(3, 3)), s_r=np.zeros((3, 3)))
    cfg = SolverConfig(tau=0.7, cg_rel_tol=1e-13)
    kkt = np.zeros((10, 10))
    for k in range(9):
        e = np.zeros(9)
        e[k] = 1.0
        kkt[:9, k] = apply_operator(e.reshape(3, 3), coeffs, cfg, 0.2, g3).ravel()
    kkt[:9, 9] = -1.0
    kkt[9, :9] = g3.h * g3.h
    rhs = r.standard_normal((3, 3))
    x0 = r.uniform(1.0, 2.0, size=(3, 3))
    direct = np.linalg.solve(kkt, np.append(rhs.ravel(), inner(x0, np.ones((3, 3)), g3)))
    x_direct, mu_direct = direct[:9].reshape(3, 3), direct[9]
    x_cg, mu_cg, _, _ = solve_step(rhs, coeffs, cfg, 0.2, g3, x0=x0)
    check(failures, np.max(np.abs(x_cg - x_direct)) <= 1e-8 * np.max(np.abs(x_direct)),
          "conjugate-gradient solve disagrees with the dense solve")
    check(failures, abs(mu_cg - mu_direct) <= 1e-8 * abs(mu_direct),
          "conjugate-gradient multiplier disagrees with the dense solve")

    verdict(capsys, 6, "discrete-operator identities and solver oracle", failures)


def test_criterion_7_droplet_relaxation(main_run, ef, capsys):
    code, series, summary, _ = main_run
    failures = []
    check(failures, code == 0, f"exit code {code}")
    check(failures, int(series["step"][-1]) == 200, "run did not reach 200 steps")
    failures += series_failures(series, ef.c_m, ef.c_M)
    aniso = summary["shape_anisotropy"]
    check(failures, aniso["final"] < aniso["step_1"],
          f"shape anisotropy did not drop ({aniso['step_1']} -> {aniso['final']})")
    verdict(capsys, 7, "droplet run: dissipation, bounds, multiplier, mass, rounding", failures)


def test_droplet_cg_iteration_budget(main_run):
    # One solve per step on the black cells, the reds eliminated, started
    # from the best point of the last three state differences: 823
    # iterations on this run, against 1 546 for the projected Jacobi PCG on
    # all cells, 3 411 for that from the extrapolated last change, 4 401
    # from the previous state and 8 214 for two solves per step.
    _, series, summary, _ = main_run
    total = int(np.nansum(series["cg_iters"]))
    assert total <= 900, f"{total} CG iterations"
    # Each solve puts the mass back after eliminating the reds, by the
    # halves' sums and then by the state's own sum, the one the reports
    # read: 0 here, and 1.8e-16 by the halves' sums alone, whose error
    # grows with the multiplier.
    assert summary["max_mass_drift_rel"] <= 2e-15, summary["max_mass_drift_rel"]


def square_config(tmp_path, tau, n_steps):
    """The 32x32 square droplet of criteria 8 and 10, loaded from a YAML file."""
    d = {
        "substance": "nC4",
        "T": 330.0,
        "grid": {"N": 32, "M": 32, "L_half": 1.5e-8},
        "tau": tau,
        "n_steps": n_steps,
        "c_gas": C_GAS,
        "c_liq": C_LIQ,
        "initial_condition": {"square_droplet": {"half_side": 7.5e-9}},
    }
    path = tmp_path / "square.yaml"
    path.write_text(yaml.safe_dump(d))
    return load_config(str(path))


@pytest.mark.parametrize("tau", [1e-2, 1.0, 1e2, 1e10])
def test_criterion_8_any_step_size(tau, ef, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_experiment(square_config(tmp_path, tau, 50), output_dir=str(out))
    series = np.genfromtxt(out / "series.csv", delimiter=",", names=True)

    failures = []
    check(failures, code == 0, f"exit code {code}")
    failures += series_failures(series, ef.c_m, ef.c_M)
    verdict(capsys, 8, f"32x32 droplet stable at step size {tau:g}", failures)


def test_criterion_10_first_order_in_time(tmp_path, capsys):
    # The scheme is first order in time.  Every other criterion checks an
    # invariant, which a stable but wrong step keeps.  The final states of n =
    # 4..64 steps to T = 0.01 s are compared with that of 512 steps in the
    # max norm; the error ratios read 1.87, 1.95, 2.02 and 2.12, observed
    # orders log2(ratio) of 0.90, 0.97, 1.02 and 1.08.  The last two, where
    # the steps are smallest, are held to [0.85, 1.25].
    T = 0.01
    cfg = square_config(tmp_path, T, 1)
    c0 = build_initial(cfg)

    def final(n):
        solver = dataclasses.replace(cfg.solver, tau=T / n, cg_rel_tol=1e-13)
        return run(c0, n, cfg.window, cfg.eos, solver, cfg.grid)[0]

    reference = final(512)
    steps = (4, 8, 16, 32, 64)
    errors = [float(np.max(np.abs(final(n) - reference))) for n in steps]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    failures = []
    for n, q in list(zip(steps, orders))[-2:]:
        check(failures, 0.85 <= q <= 1.25,
              f"observed order {q:.3f} from {n} to {2 * n} steps outside [0.85, 1.25]")
    verdict(capsys, 10, "32x32 droplet first order in time, observed orders "
            + ", ".join(f"{q:.3f}" for q in orders), failures)


def test_criterion_9_determinism(main_run, tmp_path, capsys):
    _, _, _, first_out = main_run
    out = tmp_path / "rerun"
    code = main(["run", "nc4_droplet", "--output-dir", str(out)])
    failures = []
    check(failures, code == 0, f"exit code {code}")
    names = sorted(p.name for p in first_out.glob("snapshot_*.txt"))
    check(failures, names and names == sorted(p.name for p in out.glob("snapshot_*.txt")),
          f"the runs wrote different or no snapshot files ({names})")
    for name in ["series.csv", "summary.json"] + names:
        check(failures, (out / name).read_bytes() == (first_out / name).read_bytes(),
              f"{name} differs between identical runs")
    # each snapshot holds one repr per value of the field it reads back as
    for name in names:
        c, meta = read_snapshot(str(first_out / name))
        g = Grid2D(nx=int(meta["N"]), ny=int(meta["M"]), h=meta["h"], x0=meta["x0"],
                   y0=meta["y0"])
        check(failures,
              (first_out / name).read_bytes() == old_txt_bytes(c, g, int(meta["step"]),
                                                               meta["time"]),
              f"{name} is not one repr per value of its field")
    verdict(capsys, 9, "identical runs produce bit-identical artifacts", failures)
