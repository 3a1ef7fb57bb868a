"""One benchmark sample, run in a fresh single-threaded process.

    python3 child.py SPEC.json

SPEC names the source directory of the program, the run files of one job,
how often to repeat the job, the output directory and whether to trace.  The
child pins itself to the core it starts on, imports the program, wraps its
public functions from outside, and runs every job through
``config.load_config`` and ``experiment.run_experiment`` (the path of
``prphase run``).  It times a fixed calibration kernel before and after the
jobs and writes its result as JSON next to SPEC.

Untraced samples wrap only ``solver.run`` and ``ef.scheme_coefficients``:
the first coefficient evaluation inside ``solver.run`` marks the start of
step 1, which ends set-up.  Traced samples wrap every public function of
every module, in every namespace that binds it by name.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import types

MODULES = ("cli", "config", "eos", "ef", "grid", "solver", "diagnostics", "experiment")
PROBES = ("solver.run", "ef.scheme_coefficients")


class Tracer:
    """Spans kept in memory as (key, parent index, start, end)."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, key, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (key, parent, t0, t1)

        traced.__wrapped__ = fn
        return traced

    def install(self, package, keys=None):
        """Wrap public functions of the package's modules in every binding.

        ``keys`` limits wrapping to functions named ``module.function``;
        ``None`` wraps all of them.
        """
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}")
                                  for m in MODULES]
        wrappers = {}
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if (name.startswith("_") or not isinstance(obj, types.FunctionType)
                        or not obj.__module__.startswith(package.__name__ + ".")):
                    continue
                key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if keys is not None and key not in keys:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(key, obj)
                setattr(ns, name, wrappers[obj])

    def mark(self):
        return len(self.spans)

    def first_step_start(self, since):
        """Start of the first coefficient evaluation nested in ``solver.run``."""
        spans = self.spans
        for key, parent, t0, _ in spans[since:]:
            if (key == "ef.scheme_coefficients" and parent >= 0
                    and spans[parent][0] == "solver.run"):
                return t0
        return None

    def span_total(self, key, since):
        return sum(t1 - t0 for k, _, t0, t1 in self.spans[since:] if k == key)

    def aggregate(self):
        """Per function: calls, total seconds and self seconds."""
        child_time = [0.0] * len(self.spans)
        stats = {}
        for key, parent, t0, t1 in self.spans:
            if parent >= 0:
                child_time[parent] += t1 - t0
        for (key, _, t0, t1), inner_s in zip(self.spans, child_time):
            entry = stats.setdefault(key, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += t1 - t0
            entry["self_s"] += (t1 - t0) - inner_s
        return stats


def _current_cpu():
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return max(os.sched_getaffinity(0))


def calibrate():
    """Seconds for a fixed mix of interpreter, small-array and ufunc work."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 10000).reshape((100, 100))
    b = a.T.copy()
    x = np.linspace(0.01, 0.99, 20000)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100000):
        acc += i * 0.5
    acc += len(",".join(repr(float(v)) for v in x[:8000]))
    for _ in range(1000):
        d = (a[1:, :] - a[:-1, :]) / 3.0
        acc += float(np.sum(a * b)) + float(d[0, 0])
    for _ in range(40):
        acc += float(np.sum(np.log1p(-0.5 * x) * np.sqrt(x)))
    return time.perf_counter() - t0


def _peak_rss_mb():
    # ru_maxrss also counts the parent's image before exec; VmHWM does not.
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _artifact_bytes(out_dir):
    sizes = {"txt": 0, "csv": 0}
    for name in os.listdir(out_dir):
        if name.startswith("snapshot_"):
            sizes[name.rsplit(".", 1)[1]] += os.path.getsize(os.path.join(out_dir, name))
    return sizes


def main(spec_path):
    # Stay on the current core: a migrating process loses its L1/L2 contents.
    os.sched_setaffinity(0, {_current_cpu()})
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])
    sys.path.insert(0, src)
    import prphase
    from prphase.errors import PrPhaseError

    if not os.path.abspath(prphase.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported prphase from {prphase.__file__}, not from {src}")

    tracer = Tracer()
    tracer.install(prphase, keys=None if spec["trace"] else PROBES)
    # Look the entry points up after wrapping, so traced runs see the wrappers.
    from prphase import config, experiment

    calib = [calibrate()]
    runs = []
    for rep in range(spec["repeats"]):
        for run in spec["runs"]:
            out_dir = os.path.join(spec["out"], str(rep), run["name"])
            mark = tracer.mark()
            error = None
            t_entry = time.perf_counter()
            try:
                code = experiment.run_experiment(config.load_config(run["yaml"]), out_dir)
            except PrPhaseError as exc:
                code, error = None, f"{type(exc).__name__}: {exc}"
            t_end = time.perf_counter()
            first_step = tracer.first_step_start(mark)
            runs.append({
                "name": run["name"], "rep": rep, "out": out_dir, "exit": code, "error": error,
                "wall_s": t_end - t_entry,
                "setup_s": None if first_step is None else first_step - t_entry,
                "march_s": tracer.span_total("solver.run", mark),
                "bytes": _artifact_bytes(out_dir) if os.path.isdir(out_dir) else {},
            })
    calib.append(calibrate())
    result = {
        "runs": runs,
        "calib_s": calib,
        "peak_rss_mb": _peak_rss_mb(),
        "functions": tracer.aggregate() if spec["trace"] else {},
    }
    with open(os.path.join(os.path.dirname(spec_path), "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
