import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

import pytest
import yaml

import prphase
from prphase.cli import main
from prphase.config import load_config
from prphase.experiment import run_experiment

from conftest import C_GAS, C_LIQ


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
        # the march evaluates the energy of each state once and the multiplier
        # interval once per run; the experiment recomputes neither
        counts = {"discrete_energy": 0, "admissible_interval": 0}
        for name in counts:
            original = getattr(prphase.diagnostics, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("prphase")
                        and vars(module).get(name) is original):
                    monkeypatch.setattr(module, name, counted)
        n_steps = 5
        cfg = load_config(write_config(tmp_path, tiny_dict(n_steps=n_steps)))
        assert run_experiment(cfg, str(tmp_path / "out")) == 0
        assert counts == {"discrete_energy": n_steps + 1, "admissible_interval": 1}

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

    def test_initial_state_outside_window_is_domain_error(self, tmp_path, capsys):
        d = tiny_dict(initial_condition={"uniform": {"value": 50.0}})
        cfg = write_config(tmp_path, d)
        assert main(["run", cfg, "--output-dir", str(tmp_path / "out")]) == 3
        assert "bounds violation" in capsys.readouterr().err

    def test_bad_config_exits_2(self, tmp_path):
        d = tiny_dict()
        d["grid"]["M"] = 20
        assert main(["run", write_config(tmp_path, d)]) == 2

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
        cfg = write_config(tmp_path, tiny_dict())
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg, "--output-dir", str(out_a)]) == 0
        assert main(["run", cfg, "--output-dir", str(out_b)]) == 0
        assert (out_a / "series.csv").read_bytes() == (out_b / "series.csv").read_bytes()
        assert (
            (out_a / "snapshot_000005.txt").read_bytes()
            == (out_b / "snapshot_000005.txt").read_bytes()
        )


class TestProps:
    def test_defaults_print_model_constants(self, capsys):
        assert main(["props", "nC4", "--T", "330"]) == 0
        out = capsys.readouterr().out
        assert "beta" in out and "7.238" in out
        assert "lambda" in out and "27.36" in out
        assert "mu range" in out

    def test_substance_file(self, tmp_path, capsys):
        sub = tmp_path / "x.substance"
        sub.write_text("name = x\nTc_K = 400.0\nPc_bar = 40.0\nomega = 0.2\n")
        assert main(["props", str(sub), "--T", "300"]) == 0
        assert "x at T = 300" in capsys.readouterr().out

    def test_unknown_substance(self, capsys):
        assert main(["props", "vibranium", "--T", "300"]) == 2
        assert "unknown substance" in capsys.readouterr().err

    def test_custom_window(self, capsys):
        code = main([
            "props", "nC4", "--T", "330",
            "--c-gas", "300", "--c-liq", "9000",
            "--bounds-factors", "0.8", "1.2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "240.0" in out  # 0.8 * 300


PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def prepend_path(env, key, directory):
    env[key] = os.pathsep.join([str(directory)] + ([env[key]] if env.get(key) else []))


def child_env():
    """Environment in which a child process imports the same `prphase`
    package as this test process, however pytest was launched."""
    env = dict(os.environ)
    prepend_path(env, "PYTHONPATH", Path(prphase.__file__).resolve().parents[1])
    return env


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
            capture_output=True, text=True, env=child_env(),
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
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert "packing limit" in proc.stdout, proc.stderr

        # the exit code of main() must reach the shell, not only success
        proc = subprocess.run(
            ["prphase", "props", "nope", "--T", "330"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 2, proc.stderr
