"""prphase benchmark: seeded workloads, end-to-end and per-module metrics.

    python3 perfbench/run.py --workload droplet --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Closed loop: one sample at a time, each in a fresh single-threaded child
process (``child.py``); the next starts when the previous one has been
checked.  Samples start while the loop is expected to stay within
``--seconds``; there is always at least one.  Every sample passes the
correctness gate in ``workloads.check_run`` or counts as failed, and failed
samples are left out of every timing.

``--trace 0`` prints the end-to-end metrics, medians over the samples.
``--trace 1`` measures the same untraced samples, then one more sample with
every public function wrapped, and prints the per-module metrics of that
traced sample, per job.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import (  # noqa: E402
    VARIANTS, WORKLOADS, check_run, load_reference, max_cells, variant_params, write_inputs,
)

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 120
#: Typical time of ``child.calibrate`` on the machine the baseline was taken
#: on (2-core Xeon VM, Python 3.11, numpy 2.4).  End-to-end times are scaled
#: by this over the run's mean calibration time, which removes much of the
#: drift in machine speed between runs on a shared host.
CALIBRATION_NOMINAL_S = 0.05

THREAD_VARS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("cell_steps_per_s", "1/s"), ("cg_iters", "count"),
    ("peak_rss_mb", "MB"), ("ok_rate", "ratio"),
)

#: Statistics read straight from the traced sample, per function; each
#: becomes the metric ``<function>.<stat>``.
FUNCTION_STATS = {
    "solver.solve_spd": ("s", "self_s", "calls"),
    "solver.apply_operator": ("s", "us_per_call"),
    "solver.operator_diagonal": ("calls",),
    "solver.run": ("self_s",),
    "grid.discrete_laplacian": ("s",),
    "grid.inner": ("s", "calls", "us_per_call"),
    "ef.scheme_coefficients": ("s", "us_per_call"),
    "ef.g_and_gprime": ("calls",),
    "eos.bulk_free_energy": ("s",),
    "eos.derive_eos_params": ("s",),
    "diagnostics.discrete_energy": ("s", "calls"),
    "diagnostics.admissible_interval": ("s", "calls"),
    "config.load_config": ("s",),
    "experiment.write_snapshot": ("s", "calls"),
    "experiment.write_matrix_csv": ("s",),
    "experiment.read_snapshot": ("s",),
    "experiment.run_experiment": ("s", "self_s"),
}
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count", "us_per_call": "us"}

#: Per-module metrics that combine several measurements.
DERIVED = (
    ("solver.iters_per_solve", "count"),
    ("solver.apply_operator.gbps_computed", "GB/s"),
    ("solver.solve_spd.share_of_run", "ratio"),
    ("diagnostics.energy_calls_per_step", "count"),
    ("experiment.write_snapshot.bytes", "B"),
    ("experiment.write_matrix_csv.bytes", "B"),
    ("trace.overhead_s", "s"),
)

PER_LAYER = tuple((f"{fn}.{stat}", STAT_UNITS[stat])
                  for fn, stats in FUNCTION_STATS.items() for stat in stats) + DERIVED


class SampleError(Exception):
    """The child process ended without a result."""


def _cache_kib(level):
    base = "/sys/devices/system/cpu/cpu0/cache"
    if not os.path.isdir(base):
        return None
    for index in sorted(os.listdir(base)):
        try:
            with open(os.path.join(base, index, "level")) as fl, \
                    open(os.path.join(base, index, "size")) as fs:
                if int(fl.read()) == level:
                    return int(fs.read().strip().rstrip("K"))
        except (OSError, ValueError):
            continue
    return None


def machine_facts(max_cells):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} found={blas.get('found')}"
    except (TypeError, KeyError):
        blas = "unknown"
    l3 = _cache_kib(3)
    return {
        "cpu": cpu, "nproc": os.cpu_count(), "l2_kib_per_core": _cache_kib(2), "l3_kib": l3,
        "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
        "threads": THREAD_VARS,
        "largest_array_kib": max_cells * 8 / 1024,
        "every_array_fits_l3": l3 is not None and max_cells * 8 < l3 * 1024,
        "bandwidth": "GB/s figures are computed minimum bytes over time, not DRAM measurements",
    }


def spawn(runs, repeats, trace, sample_dir):
    """Run one sample in a fresh child process and return its result."""
    os.makedirs(sample_dir)
    spec_path = os.path.join(sample_dir, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "runs": runs, "repeats": repeats, "trace": bool(trace),
                   "out": os.path.join(sample_dir, "out")}, fh)
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PRPHASE_OUTPUT_DIR")}
    env.update(THREAD_VARS, PYTHONHASHSEED="0")
    log_path = os.path.join(sample_dir, "child.log")
    with open(log_path, "w", encoding="utf-8") as log:
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                  cwd=sample_dir, env=env, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            raise SampleError(f"child exceeded {CHILD_TIMEOUT_S} s") from None
    result_path = os.path.join(sample_dir, "result.json")
    if proc.returncode != 0 or not os.path.isfile(result_path):
        with open(log_path, encoding="utf-8") as fh:
            raise SampleError(f"child exited {proc.returncode}: {fh.read()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def run_sample(runs, repeats, reference, trace, sample_dir):
    """Spawn one sample and check every run of it.

    Returns ``errors`` (empty when the sample passes) and, when the child
    produced a result, the job's mean wall time, CG iterations per job,
    cell-steps per second inside ``solver.run``, per-run set-up times, peak
    RSS, calibration times, traced function statistics and the first job's
    ``series.csv`` bytes per run.
    """
    by_name = {r["name"]: r for r in runs}
    try:
        result = spawn(runs, repeats, trace, sample_dir)
    except SampleError as exc:
        return {"errors": [str(exc)]}
    errors, setups, series = [], [], {}
    iters = cell_steps = march = 0
    for r in result["runs"]:
        run = by_name[r["name"]]
        if r["exit"] != 0 or r["setup_s"] is None:
            errors.append(f"{r['name']}: exit {r['exit']} {r['error'] or ''}".rstrip())
            continue
        try:
            run_errors, run_iters = check_run(run, r["out"], reference[r["name"]])
            if r["rep"] == 0:
                with open(os.path.join(r["out"], "series.csv"), "rb") as fh:
                    series[r["name"]] = fh.read()
        except (OSError, ValueError, KeyError) as exc:
            run_errors, run_iters = [f"unreadable artifacts: {exc!r}"], 0
        errors += [f"{r['name']}: {e}" for e in run_errors]
        iters += run_iters
        setups.append(r["setup_s"])
        cell_steps += run["cells"] * run["n_steps"]
        march += r["march_s"]
    return {"errors": errors, "wall": sum(r["wall_s"] for r in result["runs"]) / repeats,
            "iters": iters / repeats, "setups": setups,
            "rate": cell_steps / march if march else 0.0, "rss": result["peak_rss_mb"],
            "calib": result["calib_s"], "functions": result["functions"],
            "runs": result["runs"], "series": series}


def end_to_end(ok, attempted):
    """Medians over the passing samples, times scaled to nominal machine speed.

    Returns the metrics and the measured mean calibration time.
    """
    if not ok:
        return {name: 0.0 for name, _ in END_TO_END}, None
    med = statistics.median
    calibration = statistics.mean(c for s in ok for c in s["calib"])
    speed = CALIBRATION_NOMINAL_S / calibration
    return {
        "wall_s": med(s["wall"] for s in ok) * speed,
        "setup_s": med(t for s in ok for t in s["setups"]) * speed,
        "cell_steps_per_s": med(s["rate"] for s in ok) / speed,
        "cg_iters": med(s["iters"] for s in ok),
        "peak_rss_mb": med(s["rss"] for s in ok),
        "ok_rate": len(ok) / attempted,
    }, calibration


def per_layer(traced, untraced_wall_s, runs, repeats):
    """Per-module metrics of one traced sample, per job."""
    fns = traced["functions"]

    def stat(fn, kind):
        e = fns.get(fn, {"calls": 0, "s": 0.0, "self_s": 0.0})
        if kind == "us_per_call":
            return e["s"] / e["calls"] * 1e6 if e["calls"] else 0.0
        return e[kind] / repeats

    metrics = {f"{fn}.{kind}": stat(fn, kind)
               for fn, kinds in FUNCTION_STATS.items() for kind in kinds}
    solves = stat("solver.solve_spd", "calls")
    apply_s = stat("solver.apply_operator", "s")
    cells = runs[0]["cells"]  # every run of a job has the same grid
    metrics.update({
        "solver.iters_per_solve": traced["iters"] / solves if solves else 0.0,
        # Minimum traffic of one apply: read p and nu, write A p (float64).
        "solver.apply_operator.gbps_computed":
            3 * 8 * cells * stat("solver.apply_operator", "calls") / apply_s / 1e9
            if apply_s else 0.0,
        "solver.solve_spd.share_of_run": stat("solver.solve_spd", "s")
        / stat("experiment.run_experiment", "s"),
        "diagnostics.energy_calls_per_step": stat("diagnostics.discrete_energy", "calls")
        / sum(r["n_steps"] for r in runs),
        "experiment.write_snapshot.bytes":
            sum(r["bytes"]["txt"] for r in traced["runs"]) / repeats,
        "experiment.write_matrix_csv.bytes":
            sum(r["bytes"]["csv"] for r in traced["runs"]) / repeats,
        "trace.overhead_s": traced["wall"] - untraced_wall_s,
    })
    return metrics


def measure(name, seed, seconds, trace, reference, work):
    """Closed loop over samples of one workload; returns (result, report lines)."""
    variant = seed % VARIANTS
    ref = reference[name][str(variant)]
    if ref["params"] != variant_params(name, variant):
        raise SystemExit(f"reference.json does not match the inputs of {name} variant "
                         f"{variant}; regenerate it with perfbench/reference.py")
    runs = write_inputs(name, variant, os.path.join(work, name, "inputs"))
    repeats = WORKLOADS[name].repeats
    samples, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        sample_dir = os.path.join(work, name, f"sample{len(samples):03d}")
        samples.append(run_sample(runs, repeats, ref["runs"], False, sample_dir))
        shutil.rmtree(sample_dir, ignore_errors=True)
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    ok = [s for s in samples if not s["errors"]]
    metrics, calibration = end_to_end(ok, len(samples))
    raw_wall = statistics.median(s["wall"] for s in ok) if ok else 0.0
    failures = [e for s in samples for e in s["errors"]]
    attempted, failed = len(samples), len(samples) - len(ok)
    if trace:
        traced_dir = os.path.join(work, name, "traced")
        traced = run_sample(runs, repeats, ref["runs"], True, traced_dir)
        shutil.rmtree(traced_dir, ignore_errors=True)
        if not traced["errors"] and ok and traced["series"] != ok[0]["series"]:
            traced["errors"].append("traced series.csv differs from the untraced one")
        attempted += 1
        failed += bool(traced["errors"])
        failures += traced["errors"]
        metrics = (per_layer(traced, raw_wall, runs, repeats) if not traced["errors"]
                   else {n: 0.0 for n, _ in PER_LAYER})
    units = dict(END_TO_END + PER_LAYER)
    lines = [f"{name}: variant {variant} of seed {seed}, {attempted} samples, {failed} failed"]
    lines += [f"  FAIL {e}" for e in failures[:10]]
    if calibration:
        lines.append(f"  calibration kernel {calibration:.4f} s against a nominal "
                     f"{CALIBRATION_NOMINAL_S} s; measured median wall {raw_wall:.4f} s")
    lines += [f"  {n:42s} {v:14.6g} {units[n]}" for n, v in metrics.items()]
    return {"attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prphase", "__init__.py")):
        print(f"benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reference = load_reference()
    print("machine " + json.dumps(machine_facts(max(max_cells(n) for n in names))))

    os.makedirs(WORK, exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=WORK)
    results = {}
    try:
        for name in names:
            results[name], lines = measure(name, args.seed, args.seconds, args.trace,
                                           reference, work)
            print("\n".join(lines), flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
