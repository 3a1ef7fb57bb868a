import dataclasses
import importlib.resources
import math
import os
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from prphase import ConfigError, Grid2D, minimal_lambda
from prphase import config, experiment
from prphase.config import InitialCondition, load_config
from prphase.experiment import (
    build_initial,
    read_snapshot,
    write_snapshot,
)

from conftest import C_GAS, C_LIQ, old_csv_bytes, old_txt_bytes

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
        assert cfg.grid.nx == cfg.grid.ny == 100
        assert cfg.grid.x0 == cfg.grid.y0 == -1.5e-8
        assert cfg.eos.T == 330.0
        assert cfg.tau == 1.0e10
        assert cfg.n_steps == 200
        assert cfg.c_gas == 249.1123
        assert cfg.c_liq == 9526.8428
        assert cfg.window.lam == minimal_lambda(cfg.window.epsilon_0)
        assert cfg.initial.kind == "square_droplet"
        assert cfg.initial.half_side == 7.5e-9
        assert cfg.substance.name == "nC4"
        assert cfg.eos.vartheta0 == 0.0

    def test_window_properties(self):
        cfg = load_config(PRESET)
        assert cfg.window.c_m == pytest.approx(0.9 * cfg.c_gas, rel=1e-15)
        assert cfg.window.c_M == pytest.approx(1.1 * cfg.c_liq, rel=1e-15)

    def test_defaults_are_recorded(self):
        # the preset leaves some solver knobs to their defaults; each applied
        # default shows up as one provenance line
        cfg = load_config(PRESET)
        assert any("solver.cg_max_iter" in line for line in cfg.provenance)
        assert any("solver.energy_slack_rel" in line for line in cfg.provenance)
        assert not any("vartheta0" in line for line in cfg.provenance)  # set explicitly


class TestLoadConfig:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, base_dict()))
        assert cfg.grid.nx == 16
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
        # R is the gas constant R_DEFAULT, not a run setting
        for key, value in (("temperture", 300.0), ("R", 8.314)):
            with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
                load_config(write_config(tmp_path, base_dict(**{key: value})))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(str(tmp_path / "nope.yaml"))

    def test_invalid_yaml(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("grid: {N: 100, M:\n  - oops\n  }\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(str(path))

    def test_libyaml_and_python_loaders_agree(self, tmp_path, monkeypatch):
        # the module parses with libyaml's safe loader where PyYAML has it;
        # PyYAML's own SafeLoader is the fallback and must build the same runs
        presets = sorted(str(path) for path in
                         importlib.resources.files("prphase").joinpath("presets").iterdir()
                         if path.name.endswith(".yaml"))
        assert presets
        bad = tmp_path / "bad.yaml"
        bad.write_text("grid: {N: 100, M:\n  - oops\n  }\n")
        default = config._YAML_LOADER
        assert default is getattr(yaml, "CSafeLoader", yaml.SafeLoader)
        loaded = {}
        for loader in (default, yaml.SafeLoader):
            monkeypatch.setattr(config, "_YAML_LOADER", loader)
            loaded[loader] = [load_config(path) for path in presets]
            with pytest.raises(ConfigError, match=r"bad\.yaml: invalid YAML \(") as exc:
                load_config(str(bad))
            assert isinstance(exc.value.__cause__, yaml.YAMLError)
        assert loaded[default] == loaded[yaml.SafeLoader]

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

    @pytest.mark.parametrize("key,value", [("T", -1.0)])
    def test_model_constant_validation(self, tmp_path, key, value):
        with pytest.raises(ConfigError, match=f"^{key}: "):
            load_config(write_config(tmp_path, base_dict(**{key: value})))

    def test_densities_must_be_ordered(self, tmp_path):
        with pytest.raises(ConfigError, match="c_gas < c_liq"):
            load_config(write_config(tmp_path, base_dict(c_gas=1000.0, c_liq=100.0)))

    def test_explicit_shift_accepted(self, tmp_path):
        d = base_dict()
        d["lambda"] = 30.0
        assert load_config(write_config(tmp_path, d)).window.lam == 30.0

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
        ({"preconditioner": "none"}, "preconditioner"),
        # tau alone sets the step, and the window's slack is the model's
        ({"mobility": 2.0}, r"solver: unknown keys \['mobility'\]"),
        ({"bounds_slack_rel": 0.0}, r"solver: unknown keys \['bounds_slack_rel'\]"),
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

    @pytest.mark.parametrize("table,key,value,msg", [
        ("solver", "cg_rel_tol", "tight", "expected a number"),
        ("solver", "cg_max_iter", 1.5, "expected an integer"),
        ("solver", "on_violation", 3, "expected a string"),
        ("output", "snapshot_every", True, "expected an integer"),
        ("output", "formats", "txt", "expected a list"),
    ])
    def test_table_values_are_coerced_by_their_annotation(self, tmp_path, table, key, value,
                                                          msg):
        # _coerce reads each field's annotation text; a field whose text it
        # did not know would reach the dataclass unconverted
        with pytest.raises(ConfigError, match=f"{table}.{key}: {msg}"):
            load_config(write_config(tmp_path, base_dict(**{table: {key: value}})))

    def test_boolean_is_not_a_count(self, tmp_path):
        with pytest.raises(ConfigError, match="n_steps"):
            load_config(write_config(tmp_path, base_dict(n_steps=True)))

    def test_inline_substance_table(self, tmp_path):
        d = base_dict(substance={"name": "propane", "Tc_K": 369.8, "Pc_bar": 42.5, "omega": 0.152})
        cfg = load_config(write_config(tmp_path, d))
        assert cfg.substance.name == "propane"
        assert cfg.substance.P_c == 42.5e5

    @pytest.mark.parametrize("table,msg", [
        ({"name": "propane", "Tc_K": 369.8, "omega": 0.152},
         r"substance: missing substance keys \['Pc_bar'\]"),
        ({"name": "propane", "Tc_K": True, "Pc_bar": 42.5, "omega": 0.152},
         "substance: non-numeric substance value"),
    ])
    def test_inline_substance_validation(self, tmp_path, table, msg):
        with pytest.raises(ConfigError, match=msg):
            load_config(write_config(tmp_path, base_dict(substance=table)))

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
        g = cfg.grid
        assert g.nx == g.ny == 100
        assert g.h == pytest.approx(3.0e-10, rel=1e-15)
        assert g.x0 == -1.5e-8 and g.y0 == -1.5e-8
        assert g.lx == pytest.approx(3.0e-8, rel=1e-15)


class TestBuildInitial:
    def test_uniform(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path, base_dict(initial_condition={"uniform": {"value": 500.0}})))
        g = cfg.grid
        c = build_initial(cfg)
        assert c.shape == g.cell_shape()
        assert np.all(c == 500.0)

    def test_square_droplet_cell_count_100(self):
        # half_side = L_half/2 covers exactly the central 50x50 block
        cfg = load_config(PRESET)
        g = cfg.grid
        c = build_initial(cfg)
        assert int(np.sum(c == cfg.c_liq)) == 2500
        assert int(np.sum(c == cfg.c_gas)) == 7500
        assert np.array_equal(c, c.T)  # four-fold symmetric

    def test_square_droplet_cell_count_4(self, tmp_path):
        d = base_dict(grid={"N": 4, "M": 4, "L_half": 1.0e-8},
                      initial_condition={"square_droplet": {"half_side": 0.5e-8}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg)
        assert int(np.sum(c == cfg.c_liq)) == 4
        assert c[1, 1] == cfg.c_liq and c[0, 0] == cfg.c_gas

    def test_disk_is_inscribed(self, tmp_path):
        d = base_dict(grid={"N": 32, "M": 32, "L_half": 1.0e-8},
                      initial_condition={"disk": {"radius": 0.5e-8}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg)
        n_liq = int(np.sum(c == cfg.c_liq))
        assert 0 < n_liq < c.size
        # area within ~20% of pi r^2 at this resolution
        frac = n_liq / c.size
        assert frac == pytest.approx(np.pi * 0.25**2, rel=0.2)

    @pytest.mark.parametrize("n", [15, 16])
    @pytest.mark.parametrize("kind", ["square_droplet", "disk"])
    def test_droplet_matches_full_meshgrid(self, tmp_path, kind, n):
        # the size is set to a cell centre's distance from the domain
        # centre, so some cells sit exactly on the boundary where <= ties
        cfg = load_config(write_config(tmp_path, base_dict(grid={"N": n, "M": n,
                                                                 "L_half": 1.0e-8})))
        g = cfg.grid
        x = g.x0 + (np.arange(g.nx) + 0.5) * g.h
        y = g.y0 + (np.arange(g.ny) + 0.5) * g.h
        X, Y = np.meshgrid(x, y)
        dx = X - (g.x0 + 0.5 * g.lx)
        dy = Y - (g.y0 + 0.5 * g.ly)
        if kind == "square_droplet":
            size = float(np.abs(dx[0, n // 2 - 2]))
            mask = (np.abs(dx) <= size) & (np.abs(dy) <= size)
            ties = np.abs(dx) == size
        else:
            d2 = dx**2 + dy**2
            size = next(r for r in map(math.sqrt, np.unique(d2)[1:]) if np.any(d2 == r**2))
            mask = d2 <= size**2
            ties = d2 == size**2
        assert np.any(ties & mask)
        cfg = dataclasses.replace(cfg, initial=InitialCondition(kind=kind, **{
            "square_droplet": {"half_side": size}, "disk": {"radius": size}}[kind]))
        want = np.where(mask, cfg.c_liq, cfg.c_gas)
        assert build_initial(cfg).tobytes() == want.tobytes()

    def test_from_file_roundtrip(self, tmp_path, rng):
        g = Grid2D(nx=16, ny=16, h=2.0e-8 / 16, x0=-1.0e-8, y0=-1.0e-8)
        field = rng.uniform(300.0, 9000.0, size=g.cell_shape())
        write_snapshot(str(tmp_path / "state"), field, g, step=7, time=7e10, formats=("txt",))
        d = base_dict(grid={"N": 16, "M": 16, "L_half": 1.0e-8},
                      initial_condition={"from_file": {"path": "state.txt"}})
        cfg = load_config(write_config(tmp_path, d))
        c = build_initial(cfg)
        assert np.array_equal(c, field)  # bit-exact through the text format

    def test_from_file_shape_mismatch(self, tmp_path, rng):
        g = Grid2D(nx=8, ny=8, h=1.0, x0=0.0, y0=0.0)
        write_snapshot(str(tmp_path / "state"), rng.uniform(1, 2, g.cell_shape()), g, 0, 0.0,
                       ("txt",))
        d = base_dict(grid={"N": 16, "M": 16, "L_half": 1.0e-8},
                      initial_condition={"from_file": {"path": "state.txt"}})
        cfg = load_config(write_config(tmp_path, d))
        with pytest.raises(ConfigError, match="does not match"):
            build_initial(cfg)


#: A non-square field with a signed zero, the smallest subnormal, a large
#: integral float, an inexact decimal and small integral floats.
ODD_FIELD = np.array([
    [-0.0, 5e-324, 1e16, 0.1, 2.0],
    [3.0, -7.0, 1234.5678, 9526.8428, 1e-300],
    [0.0, 249.1123, 1.0 / 3.0, -2.5e-8, 100.0],
])

#: ODD_FIELD with a row of nan, +-inf and both zeros, each column doubled
#: so that every value has an equal neighbour, and -0.0 sits next to 0.0
#: and must keep its own text.
TILED_FIELD = np.repeat(
    np.vstack([ODD_FIELD, [np.nan, np.inf, -np.inf, -0.0, 0.0]]), 2, axis=1)

#: The square droplet ``large400`` starts from: 400x400 cells, liquid over
#: the middle half of each axis, so its rows come in three runs of equal rows.
DROPLET_400 = np.full((400, 400), C_GAS)
DROPLET_400[100:300, 100:300] = C_LIQ

#: Values every field of the writer's orjson branch holds: both ends of its
#: range [1e-4, 1e16), and values whose repr has one digit after the point.
FAST_EDGES = [1e-4, 0.1, 2.0, 1e15, float(np.nextafter(1e16, 0.0))]

#: Floats in [1e-4, 1e16): uniform, or uniform in the exponent.
FAST_VALUES = st.one_of(
    st.floats(1e-4, 1e16, exclude_max=True),
    st.floats(-4.0, 16.0).map(lambda e: min(max(10.0 ** e, FAST_EDGES[0]), FAST_EDGES[-1])))


def fast_field(data, plateau):
    """A field of floats in [1e-4, 1e16) that holds every FAST_EDGES value.

    A plateau field repeats each column, so every cell has an equal
    neighbour; otherwise no two cells are equal.
    """
    nx = data.draw(st.integers(3, 6), label="nx")
    ny = data.draw(st.integers(2, 4), label="ny")
    n = nx * ny - len(FAST_EDGES)
    if plateau:
        pool = FAST_EDGES + data.draw(st.lists(FAST_VALUES, max_size=4), label="pool")
        rest = data.draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n), label="rest")
    else:
        rest = data.draw(st.lists(FAST_VALUES.filter(lambda v: v not in FAST_EDGES),
                                  min_size=n, max_size=n, unique=True), label="rest")
    cells = data.draw(st.permutations(FAST_EDGES + rest), label="cells")
    field = np.array(cells).reshape(ny, nx)
    return np.repeat(field, 2, axis=1) if plateau else field


def formatted_rows(stem, values, g, monkeypatch):
    """Write ``values`` in both forms and return the rows the writer formatted."""
    csv_text, rows = experiment._csv_text, []

    def counting_csv_text(v, fast):
        rows.append(v.tolist())
        return csv_text(v, fast)

    monkeypatch.setattr(experiment, "_csv_text", counting_csv_text)
    write_snapshot(str(stem), values, g, step=3, time=3e10, formats=("txt", "csv"))
    monkeypatch.undo()
    return rows


def repr_calls_writing(directory, values, layout="C"):
    """Write ``values`` in both forms, check that the files hold what
    ``repr`` per value wrote and that the txt form reads back bit-exact,
    and return how many values the writer passed to ``repr``."""
    ny, nx = values.shape
    g = Grid2D(nx=nx, ny=ny, h=0.25, x0=-1.0, y0=2.0)
    stem = os.path.join(directory, "snap")
    calls = []

    def counting_repr(v):
        calls.append(v)
        return repr(v)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiment, "repr", counting_repr, raising=False)
        write_snapshot(stem, np.asarray(values, order=layout), g, step=3, time=3e10,
                       formats=("txt", "csv"))
    for fmt, expected in (("txt", old_txt_bytes(values, g, 3, 3e10)),
                          ("csv", old_csv_bytes(values))):
        with open(f"{stem}.{fmt}", "rb") as fh:
            assert fh.read() == expected, fmt
    back, _ = read_snapshot(stem + ".txt")
    assert back.tobytes() == values.tobytes()
    return len(calls)


class TestSnapshotIO:
    def test_header_fields(self, tmp_path):
        g = Grid2D(nx=3, ny=2, h=0.25, x0=-1.0, y0=2.0)
        c = np.arange(6, dtype=float).reshape(2, 3)
        write_snapshot(str(tmp_path / "snap"), c, g, step=12, time=3.5, formats=("txt",))
        back, meta = read_snapshot(str(tmp_path / "snap.txt"))
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

    def test_reader_takes_crlf_blank_lines_and_padding(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_bytes(b"# N 2\r\n\r\n  # M 1 \r\n\r\n  1.5 \r\n\r\n\t-0.0\r\n  \r\n")
        back, meta = read_snapshot(str(path))
        assert meta == {"N": 2.0, "M": 1.0}
        assert back.tobytes() == np.array([[1.5, -0.0]]).tobytes()

    def test_header_only_file_has_no_values(self, tmp_path):
        path = tmp_path / "snap.txt"
        path.write_text("# N 1\n# M 1\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="expected 1 values, found 0"):
                read_snapshot(str(path))

    @pytest.mark.parametrize("payload", ["1.0\n# step 3\n", "1.0 2.0\n3.0 4.0\n"],
                             ids=["header_after_values", "two_columns"])
    def test_values_are_one_number_a_line_after_the_header(self, tmp_path, payload):
        # header lines come first: a later "#" line is not read into the header
        path = tmp_path / "snap.txt"
        path.write_text("# N 2\n# M 1\n" + payload)
        with pytest.raises(ConfigError, match="non-numeric|one value per line"):
            read_snapshot(str(path))

    def test_large_noise_field_reads_back_bit_exact(self, tmp_path, rng):
        g = Grid2D(nx=400, ny=400, h=1.0, x0=0.0, y0=0.0)
        field = rng.uniform(200.0, 10000.0, size=g.cell_shape())
        field[0, :3] = [0.0, -0.0, 5e-324]  # repr's text, outside orjson's range
        write_snapshot(str(tmp_path / "big"), field, g, 0, 0.0, formats=("txt",))
        back, _ = read_snapshot(str(tmp_path / "big.txt"))
        assert back.tobytes() == field.tobytes()

    def test_matrix_csv_layout(self, tmp_path):
        g = Grid2D(nx=2, ny=2, h=1.0, x0=0.0, y0=0.0)
        write_snapshot(str(tmp_path / "m"), np.array([[1.5, 2.0], [3.25, 4.0]]), g, 0, 0.0,
                       formats=("csv",))
        lines = (tmp_path / "m.csv").read_text().splitlines()
        assert lines == ["1.5,2.0", "3.25,4.0"]
        assert not (tmp_path / "m.txt").exists()

    @pytest.mark.parametrize("formats", [("txt",), ("csv",), ("txt", "csv")],
                             ids=["txt", "csv", "txt+csv"])
    @pytest.mark.parametrize("layout", ["C", "F", "lists"])
    def test_writer_keeps_old_bytes(self, tmp_path, formats, layout):
        # ODD_FIELD has no two equal neighbours; every cell of TILED_FIELD has one
        for name, values in (("odd", ODD_FIELD), ("tiled", TILED_FIELD)):
            ny, nx = values.shape
            g = Grid2D(nx=nx, ny=ny, h=0.25, x0=-1.0, y0=2.0)
            field = {"C": np.ascontiguousarray(values), "F": np.asfortranarray(values),
                     "lists": values.tolist()}[layout]
            write_snapshot(str(tmp_path / name), field, g, step=3, time=3e10, formats=formats)
            for fmt, expected in (("txt", old_txt_bytes(values, g, 3, 3e10)),
                                  ("csv", old_csv_bytes(values))):
                path = tmp_path / f"{name}.{fmt}"
                if fmt in formats:
                    assert path.read_bytes() == expected, (name, fmt)
                else:
                    assert not path.exists()
            if "txt" in formats:
                back, _ = read_snapshot(str(tmp_path / f"{name}.txt"))
                assert back.tobytes() == values.tobytes()  # bit-exact, -0.0 included

    def test_checkerboard_plateau_is_formatted_cell_by_cell(self, tmp_path, monkeypatch):
        # the solver's red and black cells can settle on two values, so no
        # two neighbouring cells or rows are equal and every cell is
        # formatted: by repr when negated, outside orjson's range, else by orjson
        g = Grid2D(nx=9, ny=7, h=0.25, x0=-1.0, y0=2.0)
        i, j = np.indices(g.cell_shape())
        plateau = np.where((i + j) % 2 == 0, 249.1123, 249.11230000000003)
        for values in (-plateau, plateau):
            rows = formatted_rows(tmp_path / "board", values, g, monkeypatch)
            assert sum(map(len, rows)) == g.ncells
            assert (tmp_path / "board.txt").read_bytes() == old_txt_bytes(values, g, 3, 3e10)
            assert (tmp_path / "board.csv").read_bytes() == old_csv_bytes(values)

    def test_repeated_rows_are_looked_up_once(self, tmp_path, monkeypatch):
        # each row of TILED_FIELD three times over, then its first row again,
        # then that row with one cell changed
        changed = TILED_FIELD[:1].copy()
        changed[0, -1] = 7.0
        values = np.vstack([np.repeat(TILED_FIELD, 3, axis=0), TILED_FIELD[:1], changed])
        ny, nx = values.shape
        g = Grid2D(nx=nx, ny=ny, h=0.25, x0=-1.0, y0=2.0)
        rows = formatted_rows(tmp_path / "rows", values, g, monkeypatch)
        assert len(rows) == len(TILED_FIELD) + 2
        assert (tmp_path / "rows.txt").read_bytes() == old_txt_bytes(values, g, 3, 3e10)
        assert (tmp_path / "rows.csv").read_bytes() == old_csv_bytes(values)

    def test_square_droplet_formats_each_run_of_equal_rows_once(self, tmp_path, monkeypatch):
        # large400's first snapshot: gas rows, droplet rows, gas rows
        g = Grid2D(nx=400, ny=400, h=3e-10, x0=-6e-8, y0=-6e-8)
        rows = formatted_rows(tmp_path / "drop", DROPLET_400, g, monkeypatch)
        assert len(rows) == 3
        assert (tmp_path / "drop.txt").read_bytes() == old_txt_bytes(DROPLET_400, g, 3, 3e10)
        assert (tmp_path / "drop.csv").read_bytes() == old_csv_bytes(DROPLET_400)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), plateau=st.booleans(), layout=st.sampled_from("CF"))
    def test_in_range_field_takes_orjson_with_repr_bytes(self, data, plateau, layout):
        # orjson's text is repr's only in [1e-4, 1e16): this pins the
        # installed orjson's format there, with and without plateaus
        values = fast_field(data, plateau)
        with tempfile.TemporaryDirectory() as directory:
            assert repr_calls_writing(directory, values, layout) == 0

    @pytest.mark.parametrize("plateau", [False, True], ids=["cells", "plateau"])
    @pytest.mark.parametrize("odd", [0.0, -1.0, 5e-324, float(np.nextafter(1e-4, 0.0)), 1e16,
                                     np.nan, np.inf])
    def test_one_value_out_of_range_falls_back_to_repr(self, tmp_path, odd, plateau):
        field = np.array(FAST_EDGES + [1234.5678]).reshape(2, 3)
        field[1, 1] = odd
        values = np.repeat(field, 2, axis=1) if plateau else field
        assert repr_calls_writing(str(tmp_path), values) > 0

    def test_writer_streams_rows(self, tmp_path, rng):
        # one row of text at a time, noise or plateaus: formatting the whole
        # field first, or copying it, would hold the field's own bytes or more
        g = Grid2D(nx=400, ny=400, h=1.0, x0=0.0, y0=0.0)
        for field in (rng.uniform(200.0, 10000.0, size=g.cell_shape()), DROPLET_400):
            tracemalloc.start()
            try:
                write_snapshot(str(tmp_path / "big"), field, g, 0, 0.0, formats=("txt", "csv"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak <= 0.25 * field.nbytes
            assert (tmp_path / "big.csv").read_bytes() == old_csv_bytes(field)
