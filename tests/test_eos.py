import math
from importlib import resources

import numpy as np
import pytest

from prphase import (
    DomainError,
    EosParams,
    ParameterError,
    R_DEFAULT,
    Substance,
    derive_eos_params,
    get_substance,
    load_substance,
)
from prphase.eos import acentric_polynomial

import oracles
from conftest import C_GAS, C_LIQ, nu_s_r
from reference import bulk_chemical_potential, bulk_free_energy, mu_attraction, pressure

FROZEN = oracles.FROZEN


def rel(a, b):
    return abs(a - b) / abs(b)


class TestDeriveParams:
    def test_frozen_constants(self, nc4):
        assert rel(nc4.m, FROZEN["m"]) < 1e-12
        assert rel(nc4.alpha, FROZEN["alpha"]) < 1e-12
        assert rel(nc4.beta, FROZEN["beta"]) < 1e-12
        assert rel(nc4.kappa, FROZEN["kappa"]) < 1e-12

    def test_beta_published_value(self, nc4):
        assert rel(nc4.beta, 7.2381e-5) < 1e-4

    def test_omega_zero_gives_constant_term(self):
        assert acentric_polynomial(0.0) == 0.37464

    def test_branch_boundary_uses_quadratic(self):
        # omega = 0.49 belongs to the low-omega fit
        w = 0.49
        expected = 0.37464 + 1.54226 * w - 0.26992 * w**2
        assert acentric_polynomial(w) == expected

    def test_branches_nearly_continuous(self):
        # The two published fits do not meet exactly at the switch point;
        # the true gap is ~4.25e-3 (pinned below), small relative to m ~ 1.07.
        w = 0.49
        low = acentric_polynomial(w)
        high = 0.379642 + 1.485030 * w - 0.164423 * w**2 + 0.016666 * w**3
        gap = abs(high - low)
        assert rel(gap, FROZEN["m_gap_at_049"]) < 1e-9
        assert gap < 5e-3

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_temperature_rejected(self, bad):
        with pytest.raises(ParameterError):
            derive_eos_params(get_substance("nC4"), bad)

    def test_nonfinite_substance_rejected(self):
        with pytest.raises(ParameterError):
            Substance(name="x", T_c=float("nan"), P_c=1e5, omega=0.1)
        with pytest.raises(ParameterError):
            Substance(name="x", T_c=100.0, P_c=-1e5, omega=0.1)

    def test_supercritical_warns_but_returns(self):
        with pytest.warns(UserWarning, match="critical temperature"):
            p = derive_eos_params(get_substance("nC4"), 500.0)
        assert p.T == 500.0
        assert p.beta > 0

    def test_params_are_plain_finite_numbers(self, nc4):
        for key in ("T", "m", "alpha", "beta", "kappa"):
            assert math.isfinite(getattr(nc4, key))
        assert nc4.alpha > 0 and nc4.beta > 0 and nc4.kappa > 0


class TestSubstanceLoading:
    def test_preset_lookup_case_insensitive(self):
        assert get_substance("NC4").T_c == 425.2
        assert get_substance("n-butane").P_c == 38.0e5

    def test_shipped_substance_file_is_the_preset(self):
        # presets/nc4.substance is an example of the file format; it must not
        # drift from the built-in preset it copies
        path = resources.files("prphase").joinpath("presets", "nc4.substance")
        assert load_substance(str(path)) == get_substance("nC4")
        assert get_substance("n-butane") is get_substance("nC4")

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown substance"):
            get_substance("unobtainium")

    def test_text_block_roundtrip(self, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_text(
            "# comment line\n"
            "name = propane\n"
            "Tc_K = 369.8\n"
            "Pc_bar = 42.5\n"
            "omega = 0.152\n"
        )
        s = load_substance(str(path))
        assert s.name == "propane"
        assert s.T_c == 369.8
        assert s.P_c == 42.5e5
        assert s.omega == 0.152

    def test_text_block_missing_key(self, tmp_path):
        path = tmp_path / "sub.txt"
        path.write_text("name = x\nTc_K = 100\n")
        with pytest.raises(ParameterError, match="missing"):
            load_substance(str(path))


class TestBulkFreeEnergy:
    def test_ideal_zero_at_unit_density(self, nc4):
        # ln(1) = 0
        assert float(bulk_free_energy(1.0, nc4).ideal) == 0.0

    def test_small_density_limits(self, nc4):
        # every term vanishes as c -> 0; the reference density is 2 mol/m^3
        # because the ideal term is zero at 1.  At 1e-9 mol/m^3 the ideal term
        # is 1.5e-8 of its reference and the other two about 2.5e-19 of theirs.
        tiny = bulk_free_energy(1e-9, nc4)
        ref = bulk_free_energy(2.0, nc4)
        for term in ("ideal", "repulsion", "attraction"):
            assert abs(float(getattr(tiny, term))) < 1e-7 * abs(float(getattr(ref, term)))

    def test_liquid_density_against_oracle(self, nc4):
        b = bulk_free_energy(C_LIQ, nc4)
        assert rel(float(b.ideal), FROZEN["f_ideal_liq"]) < 1e-12
        assert rel(float(b.repulsion), FROZEN["f_repulsion_liq"]) < 1e-12
        assert rel(float(b.attraction), FROZEN["f_attraction_liq"]) < 1e-12
        assert rel(float(b.total), FROZEN["f_total_liq"]) < 1e-12

    def test_gas_density_against_oracle(self, nc4):
        assert rel(float(bulk_free_energy(C_GAS, nc4).total), FROZEN["f_total_gas"]) < 1e-12

    def test_total_is_sum(self, nc4, rng):
        cs = rng.uniform(10.0, 1e4, size=200)
        b = bulk_free_energy(cs, nc4)
        assert np.array_equal(b.total, b.ideal + b.repulsion + b.attraction)

    # The domain rule on the package's one evaluator of f_b, the pointwise
    # kernel; the formulas above are references without domain checks.
    @pytest.mark.parametrize("bad", [0.0, -5.0])
    def test_nonpositive_density_rejected(self, nc4, window, bad):
        with pytest.raises(DomainError, match="c > 0"):
            nu_s_r(bad, window, nc4)

    def test_packing_limit_rejected(self, nc4, window):
        with pytest.raises(DomainError, match="beta"):
            nu_s_r(1.0 / nc4.beta, window, nc4)

    def test_array_with_one_bad_cell_rejected(self, nc4, window):
        cs = np.array([100.0, 200.0, -1.0])
        with pytest.raises(DomainError):
            nu_s_r(cs, window, nc4)

    def test_deterministic(self, nc4, rng):
        cs = rng.uniform(10.0, 1e4, size=500)
        a = bulk_free_energy(cs, nc4).total
        b = bulk_free_energy(cs.copy(), nc4).total
        assert np.array_equal(a, b)

    def test_attraction_concave(self, nc4):
        # second difference of the attraction term stays nonpositive up to
        # round-off over the physical range
        cs = np.linspace(50.0, 0.95 / nc4.beta, 2000)
        delta = cs * 1e-5
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).attraction)
        second = f(cs + delta) - 2.0 * f(cs) + f(cs - delta)
        assert np.all(second <= 1e-9 * np.abs(f(cs)))


class TestChemicalPotential:
    def test_ideal_plus_repulsion_closed_form(self, nc4, rng):
        # mu_b minus the attraction derivative must equal the hand
        # differentiation of the ideal + repulsion terms
        RT = R_DEFAULT * nc4.T
        cs = rng.uniform(10.0, 1e4, size=100)
        bc = nc4.beta * cs
        expected = RT * (np.log(cs) + 1.0) - RT * np.log(1.0 - bc) + RT * bc / (1.0 - bc)
        got = np.asarray(bulk_chemical_potential(cs, nc4)) - np.asarray(mu_attraction(cs, nc4))
        assert np.all(np.abs(got - expected) <= 1e-12 * np.abs(expected))

    def test_oracle_values(self, nc4):
        assert rel(float(bulk_chemical_potential(C_GAS, nc4)), FROZEN["mu_b_gas"]) < 1e-12
        assert rel(float(bulk_chemical_potential(C_LIQ, nc4)), FROZEN["mu_b_liq"]) < 1e-12

    def test_coexistence_equal_potentials(self, nc4):
        mg = float(bulk_chemical_potential(C_GAS, nc4))
        ml = float(bulk_chemical_potential(C_LIQ, nc4))
        assert abs(mg - ml) / abs(mg) <= 0.02

    def test_finite_difference(self, nc4, rng):
        cs = rng.uniform(0.9 * C_GAS, 1.1 * C_LIQ, size=1000)
        delta = 1e-6 * cs
        f = lambda c: np.asarray(bulk_free_energy(c, nc4).total)
        fd = (f(cs + delta) - f(cs - delta)) / (2.0 * delta)
        mu = np.asarray(bulk_chemical_potential(cs, nc4))
        assert np.all(np.abs(fd - mu) <= 1e-6 * np.abs(mu))


class TestPressure:
    def test_ideal_gas_limit(self, nc4):
        c = 1e-5 / nc4.beta
        P = float(pressure(c, nc4))
        assert rel(P, c * R_DEFAULT * nc4.T) < 1e-3

    def test_oracle_values(self, nc4):
        assert rel(float(pressure(C_GAS, nc4)), FROZEN["pressure_gas"]) < 1e-12
        assert rel(float(pressure(C_LIQ, nc4)), FROZEN["pressure_liq"]) < 1e-12

    def test_mechanical_equilibrium(self, nc4):
        pg = float(pressure(C_GAS, nc4))
        pl = float(pressure(C_LIQ, nc4))
        assert abs(pg - pl) / pg <= 0.05

    def test_packing_fractions(self, nc4):
        assert abs(nc4.beta * C_GAS - 0.0180) < 1e-3
        assert abs(nc4.beta * C_LIQ - 0.6896) < 1e-3

    def test_legendre_transform(self, nc4, rng):
        # P = c*mu_b - f_b ties all three evaluators together
        cs = rng.uniform(0.9 * C_GAS, 1.1 * C_LIQ, size=200)
        lhs = np.asarray(pressure(cs, nc4))
        rhs = cs * np.asarray(bulk_chemical_potential(cs, nc4)) - np.asarray(
            bulk_free_energy(cs, nc4).total
        )
        assert np.all(np.abs(lhs - rhs) <= 1e-8 * np.abs(lhs))


def test_eos_params_validation():
    with pytest.raises(ParameterError):
        EosParams(T=-1.0, m=0.5, alpha=1.0, beta=1e-4, kappa=1e-19)
    with pytest.raises(ParameterError):
        EosParams(T=300.0, m=0.5, alpha=-1.0, beta=1e-4, kappa=1e-19)
    with pytest.raises(ParameterError):
        EosParams(T=300.0, m=0.5, alpha=1.0, beta=0.0, kappa=1e-19)
    with pytest.raises(ParameterError, match="kappa: must be positive"):
        EosParams(T=300.0, m=0.5, alpha=1.0, beta=1e-4, kappa=0.0)


@pytest.mark.parametrize("omega,positive", [(-0.585, True), (-0.59, False)])
def test_kappa_must_be_positive(omega, positive):
    # Between the poles of a0 and a1 (omega about -0.896 and -0.587) the
    # correlation gives kappa < 0 below T_c: about 6.2e-17 at -0.585 and
    # -5.5e-17 at -0.59, with n-butane's critical point at 330 K.
    fluid = Substance(name="x", T_c=425.2, P_c=38.0e5, omega=omega)
    if positive:
        assert derive_eos_params(fluid, 330.0).kappa == pytest.approx(6.2e-17, rel=0.01)
    else:
        with pytest.raises(ParameterError, match=r"kappa: must be positive, got -5\.47.*e-17 "
                                                 r"at T = 330\.0 K") as exc:
            derive_eos_params(fluid, 330.0)
        assert exc.value.key == "kappa"
