import csv
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import pytest
import yaml

import prphase
from prphase import Grid2D
from prphase.cli import main
from prphase.config import load_config
from prphase.experiment import run_experiment, write_snapshot

from conftest import CHILD_TIMEOUT_S, C_GAS, C_LIQ, child_env, prepend_path


def tiny_dict(**overrides):
    d = {
        "substance": "nC4",
        "T": 330.0,
        "grid": {"N": 16, "M": 16, "L_half": 1.5e-8},
        "tau": 1.0e10,
        "n_steps": 5,
        "c_gas": C_GAS,
        "c_liq": C_LIQ,
        "initial_condition": {"square_droplet": {"half_side": 7.5e-9}},
        "output": {"snapshot_every": 50, "formats": ["txt"]},
    }
    d.update(overrides)
    return d


def write_config(tmp_path, d, name="run.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(d))
    return str(path)


class TestCheck:
    def test_preset_by_name(self, capsys):
        assert main(["check", "nc4_droplet"]) == 0
        out = capsys.readouterr().out
        assert "config OK" in out
        assert "100 x 100" in out
        assert "density window" in out
        assert "defaults applied" in out
        assert "cg_rel_tol=1e-10" in out
        assert "preconditioner" not in out and "vartheta0" not in out

    def test_file_path(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_dict())
        assert main(["check", path]) == 0
        assert "16 x 16" in capsys.readouterr().out

    def test_unknown_config_name(self, capsys):
        assert main(["check", "no_such_preset"]) == 2
        assert "no config file or preset" in capsys.readouterr().err

    def test_invalid_config(self, tmp_path, capsys):
        d = tiny_dict()
        del d["T"]
        assert main(["check", write_config(tmp_path, d)]) == 2
        assert "T: missing" in capsys.readouterr().err

    def test_removed_setting_is_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, tiny_dict(solver={"mobility": 2.0}))
        assert main(["check", path]) == 2
        assert "solver: unknown keys ['mobility']" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,code,key", [
        ({"vartheta0": 0.0, "solver": {"preconditioner": "diagonal"}}, 0, None),
        ({"vartheta0": 5.0}, 2, "vartheta0: retired"),
        ({"solver": {"preconditioner": "ilu"}}, 2, "solver.preconditioner: retired"),
    ])
    def test_retired_keys(self, tmp_path, capsys, overrides, code, key):
        path = write_config(tmp_path, tiny_dict(**overrides))
        assert main(["check", path]) == code
        if key is not None:
            assert key in capsys.readouterr().err

    # Each config passes the loader's own YAML checks but breaks a condition
    # of the model: the window's packing limit, the minimal shift, an initial
    # field outside the window, a snapshot of the wrong grid, a snapshot with
    # a nan cell, a snapshot without its spacing or with a malformed header.
    @pytest.mark.parametrize("overrides,key,code", [
        ({"c_liq": 13000.0}, "c_liq", 2),
        ({"lambda": 1.0}, "lambda", 2),
        ({"initial_condition": {"uniform": {"value": 100.0}}}, "initial_condition", 3),
        ({"initial_condition": {"from_file": {"path": "snap8.txt"}}},
         "initial_condition.from_file.path", 2),
        ({"initial_condition": {"from_file": {"path": "nan16.txt"}}},
         "initial_condition: cell 17: density nan", 3),
        ({"initial_condition": {"from_file": {"path": "no_h16.txt"}}},
         "snapshot header is missing h", 2),
        ({"initial_condition": {"from_file": {"path": "n_neg16.txt"}}},
         "snapshot header N must be a positive integer, got -1.0", 2),
        ({"initial_condition": {"from_file": {"path": "m_neg16.txt"}}},
         "snapshot header M must be a positive integer, got -1.0", 2),
        ({"initial_condition": {"from_file": {"path": "n_nan16.txt"}}},
         "snapshot header N must be a positive integer, got nan", 2),
        ({"initial_condition": {"from_file": {"path": "n_inf16.txt"}}},
         "snapshot header N must be a positive integer, got inf", 2),
        ({"initial_condition": {"from_file": {"path": "n_frac16.txt"}}},
         "snapshot header N must be a positive integer, got 1.5", 2),
        ({"initial_condition": {"from_file": {"path": "h_nan16.txt"}}},
         "snapshot spacing h nan does not match", 2),
    ], ids=["packing_limit", "lambda_below_minimum", "uniform_below_window",
            "snapshot_grid_mismatch", "snapshot_nan_cell", "snapshot_without_spacing",
            "snapshot_n_negative", "snapshot_m_negative", "snapshot_n_nan", "snapshot_n_inf",
            "snapshot_n_fraction", "snapshot_h_nan"])
    def test_check_rejects_what_run_rejects(self, tmp_path, capsys, overrides, key, code):
        g8 = Grid2D(nx=8, ny=8, h=3.0e-8 / 8, x0=-1.5e-8, y0=-1.5e-8)
        write_snapshot(str(tmp_path / "snap8"), [[1000.0] * 8] * 8, g8, 0, 0.0, ("txt",))
        g16 = Grid2D(nx=16, ny=16, h=3.0e-8 / 16, x0=-1.5e-8, y0=-1.5e-8)
        field = [[1000.0] * 16 for _ in range(16)]
        write_snapshot(str(tmp_path / "ok16"), field, g16, 0, 0.0, ("txt",))
        lines = (tmp_path / "ok16.txt").read_text().splitlines(keepends=True)
        for name, field_key, value in (("no_h16", "h", None), ("n_neg16", "N", "-1"),
                                       ("m_neg16", "M", "-1"), ("n_nan16", "N", "nan"),
                                       ("n_inf16", "N", "inf"), ("n_frac16", "N", "1.5"),
                                       ("h_nan16", "h", "nan")):
            # the 16x16 snapshot with one header line replaced, or dropped
            new = f"# {field_key} {value}\n" if value else ""
            edited = "".join(new if x.startswith(f"# {field_key} ") else x for x in lines)
            assert edited.count("\n") == len(lines) - (value is None)
            (tmp_path / f"{name}.txt").write_text(edited)
        field[1][1] = float("nan")
        write_snapshot(str(tmp_path / "nan16"), field, g16, 0, 0.0, ("txt",))
        out = tmp_path / "out"
        d = tiny_dict(**overrides)
        d["output"]["directory"] = str(out)
        path = write_config(tmp_path, d)

        assert main(["check", path]) == code
        assert key in capsys.readouterr().err
        assert not out.exists()

        assert main(["run", path]) == code
        assert key in capsys.readouterr().err
        assert not (out / "series.csv").exists()
        assert not (out / "snapshot_000000.txt").exists()
        assert not out.exists()  # no artifact at all

    def test_null_output_directory(self, tmp_path, monkeypatch, capsys):
        # a YAML null is not a directory name, not even the text "None"
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("PRPHASE_OUTPUT_DIR", raising=False)
        d = tiny_dict()
        d["output"]["directory"] = None
        path = write_config(tmp_path, d)
        for command in ("check", "run"):
            assert main([command, path]) == 2
            assert "output.directory: expected a string, got None" in capsys.readouterr().err
        assert not (tmp_path / "None").exists()

    def test_readme_run_file(self, tmp_path, monkeypatch, capsys):
        # the schema README documents is the one the loader reads
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Run files", 1)[1].split("```yaml\n", 1)[1].split("```", 1)[0]
        path = tmp_path / "readme.yaml"
        path.write_text(block)
        monkeypatch.chdir(tmp_path)
        cfg = load_config(str(path))
        assert cfg.grid.nx == cfg.grid.ny == 100
        assert main(["check", str(path)]) == 0
        assert "config OK" in capsys.readouterr().out
        assert not (tmp_path / cfg.output.directory).exists()


class TestRun:
    def test_tiny_run_artifacts(self, tmp_path):
        cfg = write_config(tmp_path, tiny_dict())
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0

        series = (out / "series.csv").read_text().splitlines()
        assert series[0].startswith("step,time,F_total")
        assert len(series) == 1 + 1 + 5  # header, step 0, five steps

        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 0
        assert summary["invariant_violations"] == 0
        assert summary["energy_monotone"] is True
        assert summary["mass_conserved"] is True
        assert summary["final_energy"] <= summary["initial_energy"]

        assert (out / "snapshot_000000.txt").exists()  # initial state
        assert (out / "snapshot_000005.txt").exists()  # final, off-cadence

    def test_one_energy_evaluation_per_step(self, tmp_path, monkeypatch):
        # the march evaluates each state once, in the pass that also gives the
        # next step's coefficients, the initial state's for the step-0 report
        # included; the multiplier interval is computed once per run, and the
        # experiment recomputes none of them
        events = []
        homes = {"scheme_coefficients": prphase.ef, "admissible_interval": prphase.diagnostics}
        for name, home in homes.items():
            original = getattr(home, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                events.append(_name)
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("prphase")
                        and vars(module).get(name) is original):
                    monkeypatch.setattr(module, name, counted)
        original_run = prphase.solver.run

        def traced_run(*args, observer, **kwargs):
            def traced_observer(field, report):
                events.append(f"observer {report.step_index}")
                observer(field, report)

            events.append("run")
            result = original_run(*args, observer=traced_observer, **kwargs)
            events.append("end of run")
            return result

        monkeypatch.setattr(prphase.solver, "run", traced_run)
        n_steps = 5
        cfg = load_config(write_config(tmp_path, tiny_dict(n_steps=n_steps)))
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        assert {name: events.count(name) for name in homes} == {
            "scheme_coefficients": n_steps + 1, "admissible_interval": 1}
        passes = [i for i, e in enumerate(events) if e == "scheme_coefficients"]
        assert events.index("run") < passes[0] and passes[-1] < events.index("end of run")
        # the benchmark ends set-up at the first pass: the initial state's,
        # after the multiplier interval and before the step-0 observer
        assert events.index("admissible_interval") < passes[0] < events.index("observer 0")
        assert events[passes[0] + 1] == "observer 0"

    def test_snapshot_cadence_and_csv(self, tmp_path):
        d = tiny_dict(n_steps=4,
                      output={"snapshot_every": 2, "formats": ["txt", "csv"]})
        cfg = write_config(tmp_path, d)
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        for step in (0, 2, 4):
            assert (out / f"snapshot_{step:06d}.txt").exists()
            assert (out / f"snapshot_{step:06d}.csv").exists()
        assert not (out / "snapshot_000001.txt").exists()
        assert not (out / "snapshot_000003.txt").exists()

    def test_output_dir_environment_fallback(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, tiny_dict())
        env_dir = tmp_path / "from_env"
        monkeypatch.setenv("PRPHASE_OUTPUT_DIR", str(env_dir))
        assert main(["run", cfg]) == 0
        assert (env_dir / "summary.json").exists()

    def test_output_dir_flag_beats_environment(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, tiny_dict())
        monkeypatch.setenv("PRPHASE_OUTPUT_DIR", str(tmp_path / "from_env"))
        flag_dir = tmp_path / "from_flag"
        assert main(["run", cfg, "--output-dir", str(flag_dir)]) == 0
        assert (flag_dir / "summary.json").exists()
        assert not (tmp_path / "from_env").exists()

    @pytest.mark.parametrize("below_a_file", [False, True])
    def test_output_dir_that_cannot_be_made_exits_2(self, tmp_path, capsys, below_a_file):
        # an existing file, or a path below one, is a configuration error that
        # names the directory, not a traceback
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "out" if below_a_file else taken
        cfg = write_config(tmp_path, tiny_dict())
        assert main(["run", cfg, "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: cannot create the output directory {str(out)!r}" in err
        assert taken.read_text() == "a file\n"

    def test_summary_is_strict_json_without_a_droplet(self, tmp_path):
        # no cell is denser than the midpoint of c_gas and c_liq, so there is
        # no shape to measure: null, as NaN is not JSON
        d = tiny_dict(grid={"N": 8, "M": 8, "L_half": 7.5e-9}, n_steps=2,
                      initial_condition={"uniform": {"value": 300.0}})
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, d), "--output-dir", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        summary = json.loads((out / "summary.json").read_text(), parse_constant=refuse)
        assert summary["shape_anisotropy"] == {"step_0": None, "step_1": None, "final": None}

    def test_initial_state_outside_window_is_domain_error(self, tmp_path, capsys):
        d = tiny_dict(initial_condition={"uniform": {"value": 50.0}})
        cfg = write_config(tmp_path, d)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 3
        assert "bounds violation" in capsys.readouterr().err

    # ROADMAP item 5: at h = 3e-10 m a droplet at half the width of a 32x32
    # box curves too sharply for the default window [0.9 c_gas, 1.1 c_liq].
    # The multiplier leaves its interval at step 1 and the window is
    # breached; the run reports both and still writes every artifact.
    NARROW_WINDOW = {"grid": {"N": 32, "M": 32, "L_half": 4.8e-9},
                     "initial_condition": {"square_droplet": {"half_side": 2.4e-9}}}

    def test_window_too_narrow_for_droplet(self, tmp_path):
        cfg = write_config(tmp_path, tiny_dict(**self.NARROW_WINDOW))
        out = tmp_path / "out"
        with pytest.warns(UserWarning, match="continuing as configured"):
            assert main(["run", cfg, "--output-dir", str(out)]) == 5

        summary = json.loads((out / "summary.json").read_text())
        assert summary["exit_code"] == 5
        assert summary["invariant_violations"] == 5
        assert summary["all_steps_admissible"] is False
        assert summary["all_steps_in_bounds"] is False
        assert summary["energy_monotone"] is True
        assert summary["mass_conserved"] is True

        with open(out / "series.csv", encoding="utf-8") as fh:
            step1 = list(csv.DictReader(fh))[1]
        assert float(step1["step"]) == 1.0
        assert float(step1["mu_e"]) == pytest.approx(20310.0, rel=1e-4)
        assert float(step1["mu_upper"]) == pytest.approx(19034.0, rel=1e-4)
        assert float(step1["mu_e"]) > float(step1["mu_upper"])
        assert (out / "snapshot_000000.txt").exists()
        assert (out / "snapshot_000005.txt").exists()

    @staticmethod
    def run_with_step_3_changed(tmp_path, monkeypatch, change):
        """run_experiment's exit code and summary on the tiny run, with
        ``change`` applied to step 3's report, as the observer sees it and
        as ``run`` returns it."""
        original_run = prphase.solver.run

        def changed_run(*args, observer, **kwargs):
            def changed(report):
                return change(report) if report.step_index == 3 else report

            c, reports = original_run(
                *args, observer=lambda field, report: observer(field, changed(report)), **kwargs)
            return c, [changed(report) for report in reports]

        monkeypatch.setattr(prphase.solver, "run", changed_run)
        out = tmp_path / "out"
        code = run_experiment(load_config(write_config(tmp_path, tiny_dict())), str(out))
        return code, json.loads((out / "summary.json").read_text())

    def test_a_step_that_gains_energy_fails_the_run(self, tmp_path, monkeypatch):
        code, summary = self.run_with_step_3_changed(
            tmp_path, monkeypatch, lambda report: replace(report, energy_decreased=False))
        assert code == summary["exit_code"] == 5
        assert summary["invariant_violations"] == 1
        assert summary["energy_monotone"] is False
        assert summary["all_steps_admissible"] is True
        assert summary["all_steps_in_bounds"] is True
        assert summary["mass_conserved"] is True

    def test_a_step_that_loses_mass_fails_the_run(self, tmp_path, monkeypatch):
        # a drift above the 1e-8 budget breaks no step's checks, only the run's
        code, summary = self.run_with_step_3_changed(
            tmp_path, monkeypatch, lambda report: replace(report, mass=report.mass * (1 - 1e-6)))
        assert code == summary["exit_code"] == 5
        assert summary["invariant_violations"] == 0
        assert summary["max_mass_drift_rel"] == pytest.approx(1e-6, rel=1e-6)
        assert summary["mass_conserved"] is False
        assert summary["energy_monotone"] is True

    def test_wider_window_admits_the_same_droplet(self, tmp_path):
        d = tiny_dict(bounds_factors=[0.9, 1.15], **self.NARROW_WINDOW)
        out = tmp_path / "out"
        assert main(["run", write_config(tmp_path, d), "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["invariant_violations"] == 0

    def test_iteration_cap_exits_4(self, tmp_path, capsys):
        # the march is the only path to a capped solve: step 1 fails, and the
        # run stops with the series it had written
        cfg = write_config(tmp_path, tiny_dict(solver={"cg_max_iter": 1}))
        out = tmp_path / "out"
        assert main(["run", cfg, "--output-dir", str(out)]) == 4
        err = capsys.readouterr().err.splitlines()
        assert any(line.startswith("solver failure: conjugate gradients did not reach")
                   for line in err), err
        series = (out / "series.csv").read_text().splitlines()
        assert len(series) == 2 and series[0].startswith("step,")  # the header and step 0
        assert float(series[1].split(",")[0]) == 0.0

    def test_bad_config_exits_2(self, tmp_path):
        d = tiny_dict()
        d["grid"]["M"] = 20
        assert main(["run", write_config(tmp_path, d)]) == 2

    def test_nonpositive_kappa_exits_2_at_check_and_run(self, tmp_path, capsys):
        # n-butane's critical point with omega = -0.6 gives kappa < 0 at 330 K:
        # a parameter fault, not a solver failure (exit 4)
        sub = tmp_path / "x.substance"
        sub.write_text("name = x\nTc_K = 425.2\nPc_bar = 38.0\nomega = -0.6\n")
        cfg = write_config(tmp_path, tiny_dict(substance=str(sub)))
        for command in (["check", cfg], ["run", cfg, "--output-dir", str(tmp_path / "out")]):
            assert main(command) == 2
            assert "kappa: must be positive" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tau", [1.0, 1.0e5, 1.0e10])
    def test_step_size_sweep(self, tmp_path, tau):
        # the stepper has no stability restriction: wildly different step
        # sizes must all complete cleanly from the same setup
        cfg = write_config(tmp_path, tiny_dict(tau=tau), name=f"tau_{tau}.yaml")
        out = tmp_path / f"out_{tau}"
        assert main(["run", cfg, "--output-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["energy_monotone"] is True
        assert summary["all_steps_in_bounds"] is True

    def test_reruns_are_bit_identical(self, tmp_path):
        d = tiny_dict(output={"snapshot_every": 1, "formats": ["txt", "csv"]})
        cfg = write_config(tmp_path, d)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--output-dir", str(out_a)]) == 0
        assert main(["run", cfg, "--output-dir", str(out_b)]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        assert names == sorted(["series.csv", "summary.json"]
                               + [f"snapshot_{k:06d}.{fmt}"
                                  for k in range(6) for fmt in ("txt", "csv")])
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestProps:
    def test_defaults_print_model_constants(self, capsys):
        assert main(["props", "nC4", "--T", "330"]) == 0
        out = capsys.readouterr().out
        assert "beta" in out and "7.238" in out
        assert "lambda" in out and "27.36" in out
        assert "mu range" in out

    def test_default_window(self, capsys):
        # the loader's default bounds_factors, applied to n-butane at 330 K
        assert main(["props", "nC4", "--T", "330"]) == 0
        assert ("  window   [224.20107000000002, 10479.527080000002] mol/m^3 "
                "(factors 0.9, 1.1)\n") in capsys.readouterr().out

    def test_substance_file(self, tmp_path, capsys):
        sub = tmp_path / "x.substance"
        sub.write_text("name = x\nTc_K = 400.0\nPc_bar = 40.0\nomega = 0.2\n")
        assert main(["props", str(sub), "--T", "300"]) == 0
        assert "x at T = 300" in capsys.readouterr().out

    def test_unknown_substance(self, capsys):
        # the error names the command's own argument, not a run file's key
        assert main(["props", "vibranium", "--T", "300"]) == 2
        err = capsys.readouterr().err
        assert "unknown substance" in err
        assert err.startswith("parameter error: props: substance argument 'vibranium' is neither")

    def test_custom_window(self, capsys):
        code = main([
            "props", "nC4", "--T", "330",
            "--c-gas", "300", "--c-liq", "9000",
            "--bounds-factors", "0.8", "1.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "240.0" in out  # 0.8 * 300

    def test_window_must_hold_both_densities(self, capsys):
        # the loader's rule: a window [1.5*c_gas, 0.9*c_liq] excludes both
        assert main(["props", "nC4", "--T", "330", "--bounds-factors", "1.5", "0.9"]) == 2
        captured = capsys.readouterr()
        assert "window must contain both bulk densities" in captured.err
        assert "window   [" not in captured.out

    def test_densities_out_of_order(self, capsys):
        code = main(["props", "nC4", "--T", "330", "--c-gas", "9000", "--c-liq", "300"])
        assert code == 2
        assert "need c_gas < c_liq" in capsys.readouterr().err


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


# A directory, or a file that is not UTF-8, at each path the CLI reads.
@pytest.mark.parametrize("command,unreadable", [
    (["run", "{dir}"], "{dir}"),
    (["check", "{bytes}.yaml"], "{bytes}.yaml"),
    (["props", "{dir}", "--T", "330"], "{dir}"),
    (["props", "{bytes}.substance", "--T", "330"], "{bytes}.substance"),
    (["check", "{from_dir}"], "{dir}"),
], ids=["run_directory", "check_non_utf8", "props_directory", "props_non_utf8",
        "check_snapshot_directory"])
def test_unreadable_input_exits_2_naming_the_path(tmp_path, capsys, command, unreadable):
    paths = {"dir": str(tmp_path / "dir"), "bytes": str(tmp_path / "latin1"),
             "from_dir": str(tmp_path / "from_dir.yaml")}
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.yaml").write_bytes("T: 330.0  # 330 \xb0K\n".encode("latin-1"))
    (tmp_path / "latin1.substance").write_bytes("name = \xe9\n".encode("latin-1"))
    write_config(tmp_path, tiny_dict(initial_condition={"from_file": {"path": "dir"}}),
                 name="from_dir.yaml")
    assert main([arg.format(**paths) for arg in command]) == 2
    assert unreadable.format(**paths) in capsys.readouterr().err


def write_console_script(bin_dir, name):
    """Write the wrapper an installer generates for the `[project.scripts]`
    entry `name` of this checkout's pyproject.toml."""
    toml = tomllib or pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        scripts = toml.load(f)["project"]["scripts"]
    module, attr = scripts[name].split(":")
    bin_dir.mkdir()
    path = bin_dir / name
    path.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n"
    )
    path.chmod(0o755)


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "prphase", "check", "nc4_droplet"],
            capture_output=True, text=True, env=child_env(), timeout=CHILD_TIMEOUT_S,
        )
        assert proc.returncode == 0, proc.stderr
        assert "config OK" in proc.stdout, proc.stderr

    def test_console_script(self, tmp_path):
        bin_dir = tmp_path / "bin"
        write_console_script(bin_dir, "prphase")
        env = child_env()
        prepend_path(env, "PATH", bin_dir)

        proc = subprocess.run(
            ["prphase", "props", "nC4", "--T", "330"],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
        assert proc.returncode == 0, proc.stderr
        assert "packing limit" in proc.stdout, proc.stderr

        # the exit code of main() must reach the shell, not only success
        proc = subprocess.run(
            ["prphase", "props", "nope", "--T", "330"],
            capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S,
        )
        assert proc.returncode == 2, proc.stderr
