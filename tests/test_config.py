import importlib.resources

import numpy as np
import pytest
import yaml

from prphase import ConfigError, Grid2D
from prphase.config import load_config
from prphase.experiment import (
    build_initial,
    make_grid,
    read_snapshot,
    write_matrix_csv,
    write_snapshot,
)

from conftest import C_GAS, C_LIQ

PRESET = str(importlib.resources.files("prphase") / "presets" / "nc4_droplet.yaml")


def base_dict(**overrides):
    d = {
        "T": 330.0,
        "grid": {"N": 16, "M": 16, "L_half": 1.5e-8},
        "tau": 1.0e10,
        "n_steps": 3,
        "c_gas": C_GAS,
        "c_liq": C_LIQ,
        "initial_condition": {"square_droplet": {"half_side": 7.5e-9}},
    }
    d.update(overrides)
    return d


def write_config(tmp_path, d, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(d))
    return str(path)


class TestPreset:
    def test_loads_and_matches_experiment_setup(self):
        cfg = load_config(PRESET)
        assert cfg.grid.N == cfg.grid.M == 100
        assert cfg.grid.L_half == 1.5e-8
        assert cfg.T == 330.0
        assert cfg.tau == 1.0e10
        assert cfg.n_steps == 200
        assert cfg.c_gas == 249.1123
        assert cfg.c_liq == 9526.8428
        assert cfg.bounds_factors == (0.9, 1.1)
        assert cfg.lam is None
        assert cfg.initial.kind == "square_droplet"
        assert cfg.initial.half_side == 7.5e-9
        assert cfg.substance.name == "nC4"
        assert cfg.vartheta0 == 0.0

    def test_window_properties(self):
        cfg = load_config(PRESET)
        assert cfg.c_m == pytest.approx(0.9 * cfg.c_gas, rel=1e-15)
        assert cfg.c_M == pytest.approx(1.1 * cfg.c_liq, rel=1e-15)

    def test_defaults_are_recorded(self):
        # the preset leaves R and some solver knobs to their defaults; each
        # applied default shows up as one provenance line
        cfg = load_config(PRESET)
        assert any(line.startswith("R:") for line in cfg.provenance)
        assert any("solver.mobility" in line for line in cfg.provenance)
        assert any("solver.cg_max_iter" in line for line in cfg.provenance)
        assert not any("vartheta0" in line for line in cfg.provenance)  # set explicitly


class TestLoadConfig:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_dict()))
        assert cfg.grid.N == 16
        assert cfg.solver.cg_rel_tol == 1e-10
        assert cfg.output.formats == ("txt",)
        assert cfg.substance.name == "nC4"
        assert any("substance" in line for line in cfg.provenance)

    def test_exponent_without_sign_accepted(self, tmp_path):
        # hand-written YAML often spells 1.0e10 without the + that YAML 1.1
        # requires; the loader must still read it as a number
        path = tmp_path / "run.yaml"
        d = base_dict()
        del d["tau"]
        path.write_text(yaml.safe_dump(d) + "tau: 1.0e10\n")
        assert load_config(str(path)).tau == 1.0e10

    def test_missing_required_key_is_named(self, tmp_path):
        d = base_dict()
        del d["T"]
        with pytest.raises(ConfigError, match="T: missing"):
            load_config(write_config(tmp_path, d))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="temperture"):
            load_config(write_config(tmp_path, base_dict(temperture=300.0)))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: {N: 100, M:\n  - oops\n  }\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(str(path))

    @pytest.mark.parametrize("grid,msg", [
        ({"N": 16, "M": 20, "L_half": 1e-8}, "N == M"),
        ({"N": 1, "M": 1, "L_half": 1e-8}, "at least 2"),
        ({"N": 16, "M": 16, "L_half": -1e-8}, "positive"),
        ({"N": 16.5, "M": 16, "L_half": 1e-8}, "integer"),
    ])
    def test_grid_validation(self, tmp_path, grid, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_config(tmp_path, base_dict(grid=grid)))

    @pytest.mark.parametrize("bf", [[1.2, 0.8], [0.9], [0.9, 1.1, 1.3], [-0.9, 1.1]])
    def test_bounds_factors_validation(self, tmp_path, bf):
        with pytest.raises(ConfigError, match="bounds_factors"):
            load_config(write_config(tmp_path, base_dict(bounds_factors=bf)))

    def test_densities_must_be_ordered(self, tmp_path):
        with pytest.raises(ConfigError, match="c_gas < c_liq"):
            load_config(write_config(tmp_path, base_dict(c_gas=1000.0, c_liq=100.0)))

    def test_explicit_shift_accepted(self, tmp_path):
        d = base_dict()
        d["lambda"] = 30.0
        assert load_config(write_config(tmp_path, d)).lam == 30.0

    def test_negative_shift_rejected(self, tmp_path):
        d = base_dict()
        d["lambda"] = -1.0
        with pytest.raises(ConfigError, match="lambda"):
            load_config(write_config(tmp_path, d))

    @pytest.mark.parametrize("ic,msg", [
        ({"square_droplet": {"half_side": 1e-8}, "disk": {"radius": 1e-9}}, "exactly one"),
        ({"blob": {"radius": 1e-9}}, "unknown kind"),
        ({"square_droplet": {"half_side": 2e-8}}, "exceeds the domain"),
        ({"disk": {"radius": 2e-8}}, "exceeds the domain"),
        ({"uniform": {}}, "value: missing"),
        ({"square_droplet": 5}, "table of parameters"),
    ])
    def test_initial_condition_validation(self, tmp_path, ic, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_config(tmp_path, base_dict(initial_condition=ic)))

    @pytest.mark.parametrize("solver,msg", [
        ({"preconditioner": "ilu"}, "preconditioner"),
        ({"on_violation": "shrug"}, "on_violation"),
        ({"cg_rel_tol": -1.0}, "positive"),
        ({"cg_max_iter": 0}, "cg_max_iter"),
        ({"petsc": True}, "unknown keys"),
        ({"cg_rel_tol": 2.0}, "solver.cg_rel_tol"),
    ])
    def test_solver_validation(self, tmp_path, solver, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_config(tmp_path, base_dict(solver=solver)))

    def test_zero_energy_slack_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_dict(solver={"energy_slack_rel": 0.0})))
        assert cfg.solver.energy_slack_rel == 0.0

    @pytest.mark.parametrize("output,msg", [
        ({"formats": ["hdf5"]}, "unknown format"),
        ({"formats": []}, "nonempty"),
        ({"snapshot_every": 0}, "snapshot_every"),
        ({"compression": "gzip"}, "unknown keys"),
    ])
    def test_output_validation(self, tmp_path, output, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_config(tmp_path, base_dict(output=output)))

    def test_boolean_is_not_a_count(self, tmp_path):
        with pytest.raises(ConfigError, match="n_steps"):
            load_config(write_config(tmp_path, base_dict(n_steps=True)))

    def test_inline_substance_table(self, tmp_path):
        d = base_dict(substance={"name": "propane", "Tc_K": 369.8, "Pc_bar": 42.5, "omega": 0.152})
        cfg = load_config(write_config(tmp_path, d))
        assert cfg.substance.name == "propane"
        assert cfg.substance.P_c == 42.5e5

    def test_substance_file_path(self, tmp_path):
        sub = tmp_path / "mine.substance"
        sub.write_text("name = mine\nTc_K = 400.0\nPc_bar = 40.0\nomega = 0.2\n")
        cfg = load_config(write_config(tmp_path, base_dict(substance="mine.substance")))
        assert cfg.substance.name == "mine"

    def test_unknown_substance_name(self, tmp_path):
        with pytest.raises(ConfigError, match="neither a preset nor"):
            load_config(write_config(tmp_path, base_dict(substance="kryptonite")))


class TestMakeGrid:
    def test_square_domain(self):
        cfg = load_config(PRESET)
        g = make_grid(cfg)
        assert g.nx == g.ny == 100
        assert g.h == pytest.approx(3.0e-10, rel=1e-15)
        assert g.x0 == -1.5e-8 and g.y0 == -1.5e-8
        assert g.lx == pytest.approx(3.0e-8, rel=1e-15)


class TestBuildInitial:
    def test_uniform(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, base_dict(initial_condition={"uniform": {"value": 500.0}})))
        g = make_grid(cfg)
        c = build_initial(cfg, g)
        assert c.shape == g.cell_shape()
        assert np.all(c == 500.0)

    def test_square_droplet_cell_count_100(self):
        # half_side = L_half/2 covers exactly the central 50x50 block
        cfg = load_config(PRESET)
        g = make_grid(cfg)
        c = build_initial(cfg, g)
        assert int(np.sum(c == cfg.c_liq)) == 2500
        assert int(np.sum(c == cfg.c_gas)) == 7500
        assert np.array_equal(c, c.T)  # four-fold symmetric

    def test_square_droplet_cell_count_4(self, tmp_path):
        d = base_dict(grid={"N": 4, "M": 4, "L_half": 1.0e-8},
                      initial_condition={"square_droplet": {"half_side": 0.5e-8}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg, make_grid(cfg))
        assert int(np.sum(c == cfg.c_liq)) == 4
        assert c[1, 1] == cfg.c_liq and c[0, 0] == cfg.c_gas

    def test_disk_is_inscribed(self, tmp_path):
        d = base_dict(grid={"N": 32, "M": 32, "L_half": 1.0e-8},
                      initial_condition={"disk": {"radius": 0.5e-8}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg, make_grid(cfg))
        n_liq = int(np.sum(c == cfg.c_liq))
        assert 0 < n_liq < c.size
        # area within ~20% of pi r^2 at this resolution
        frac = n_liq / c.size
        assert frac == pytest.approx(np.pi * 0.25**2, rel=0.2)

    def test_from_file_roundtrip(self, tmp_path, rng):
        g = Grid2D(nx=16, ny=16, h=2.0e-8 / 16, x0=-1.0e-8, y0=-1.0e-8)
        field = rng.uniform(300.0, 9000.0, size=g.cell_shape())
        snap = tmp_path / "state.txt"
        write_snapshot(str(snap), field, g, step=7, time=7e10)
        d = base_dict(grid={"N": 16, "M": 16, "L_half": 1.0e-8},
                      initial_condition={"from_file": {"path": "state.txt"}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg, make_grid(cfg))
        assert np.array_equal(c, field)  # bit-exact through the text format

    def test_from_file_shape_mismatch(self, tmp_path, rng):
        g = Grid2D(nx=8, ny=8, h=1.0, x0=0.0, y0=0.0)
        snap = tmp_path / "state.txt"
        write_snapshot(str(snap), rng.uniform(1, 2, g.cell_shape()), g, 0, 0.0)
        d = base_dict(grid={"N": 16, "M": 16, "L_half": 1.0e-8},
                      initial_condition={"from_file": {"path": "state.txt"}})
        cfg = load_config(write_config(tmp_path, d))
        with pytest.raises(ConfigError, match="does not match"):
            build_initial(cfg, make_grid(cfg))


class TestSnapshotIO:
    def test_header_fields(self, tmp_path):
        g = Grid2D(nx=3, ny=2, h=0.25, x0=-1.0, y0=2.0)
        c = np.arange(6, dtype=float).reshape(2, 3)
        path = tmp_path / "snap.txt"
        write_snapshot(str(path), c, g, step=12, time=3.5)
        back, meta = read_snapshot(str(path))
        assert np.array_equal(back, c)
        assert meta["N"] == 3 and meta["M"] == 2
        assert meta["h"] == 0.25 and meta["x0"] == -1.0
        assert meta["step"] == 12 and meta["time"] == 3.5

    def test_missing_header(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(ConfigError, match="missing N"):
            read_snapshot(str(path))

    def test_wrong_value_count(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# N 2\n# M 2\n1.0\n2.0\n3.0\n")
        with pytest.raises(ConfigError, match="expected 4 values"):
            read_snapshot(str(path))

    def test_non_numeric_payload(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# N 1\n# M 1\nhello\n")
        with pytest.raises(ConfigError, match="non-numeric"):
            read_snapshot(str(path))

    def test_matrix_csv_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        write_matrix_csv(str(path), np.array([[1.5, 2.0], [3.25, 4.0]]))
        lines = path.read_text().splitlines()
        assert lines == ["1.5,2.0", "3.25,4.0"]
