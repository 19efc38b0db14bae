"""Runs one workload, end to end (tracing off) or traced, and returns the
result object that run.py prints as its last line."""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import resource
import shutil
import statistics
import tempfile

import numpy as np
import scipy

import layers
from spans import Tracer
from workloads import EVAL_CONFIG, clock, describe

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}


def _metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": float(values[name]), "unit": unit}
            for name, unit in units.items()}


def _attempted(units) -> int:
    return sum(u.planned for u in units) or 1


def _result(units: list, values: dict, names: dict, problems: list[str]) -> dict:
    attempted = _attempted(units)
    completed = sum(u.completed for u in units)
    return {"correct": not problems, "attempted": attempted,
            "failed": attempted - completed, "metrics": _metrics(values, names)}


def _unit_problems(units) -> list[str]:
    problems = []
    for i, u in enumerate(units):
        if u.error:
            problems.append(f"unit {i}: {u.error}")
        problems += [f"unit {i}: {p}" for p in u.problems]
        if u.error is None and u.outputs != units[0].outputs:
            problems.append(f"unit {i}: outputs differ from unit 0 (not deterministic)")
    return problems


def _openblas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS reports, if it is there."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn()
    return None


def environment(workload, seed: int, seconds: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload.name, "seed": seed, "seconds": seconds,
        "sizes": vars(workload.sizes), "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "nproc": os.cpu_count(),
    }


def _workdir(root: str) -> str:
    os.makedirs(root, exist_ok=True)
    return tempfile.mkdtemp(dir=root)


def run_end_to_end(workload, seed: int, seconds: float, work_root: str,
                   info=print) -> dict:
    """Set up `setup_reps` times (median reported), warm up untimed, then
    repeat the work unit until the measured time is within half a unit of
    `seconds`."""
    workdir = _workdir(work_root)
    units, problems, setup_s, state = [], [], [], None
    try:
        fingerprints = set()
        for _ in range(workload.setup_reps):
            t = clock()
            state = workload.setup(seed, workdir)
            setup_s.append(clock() - t)
            fingerprints.add(workload.fingerprint(state))
        if len(fingerprints) != 1:
            problems.append("set-up is not deterministic")
        workload.warm_up(state)
        t0 = clock()
        while True:
            units.append(workload.run_unit(state))
            elapsed = clock() - t0
            if units[-1].error or elapsed * (1 + 0.5 / len(units)) > seconds:
                break
    except Exception as exc:  # units catch their own; this is set-up or warm-up
        problems.append(f"set-up: {describe(exc)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += _unit_problems(units)

    op_s = [d for u in units for d in u.op_s]
    wall = sum(u.wall_s for u in units)
    values = {
        "setup_s": statistics.median(setup_s) if setup_s else 0.0,
        "ops_per_s": len(op_s) / wall if wall else 0.0,
        "op_ms_p50": layers.percentile_ms(op_s, 50),
        "op_ms_tail": layers.percentile_ms(op_s, workload.tail_pct),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "completed_share": len(op_s) / _attempted(units),
    }
    info({"units": len(units), "ops": len(op_s), "op": workload.op,
          "tail_pct": workload.tail_pct,
          "ops_beyond_tail": sum(d * 1e3 > values["op_ms_tail"] for d in op_s),
          "setup_s_each": setup_s, "measured_s": wall,
          **_quality(units[0].report if units else None)})
    for p in problems:
        info({"problem": p})
    return _result(units, values, END_TO_END, problems)


def run_traced(workload, seed: int, seconds: float, work_root: str,
               info=print) -> dict:
    """Traced set-up, untimed warm-up, then one untraced and one traced run
    of the same work unit, whatever `seconds` says, so that counts repeat
    exactly. The two units' outputs must match exactly."""
    tracer = Tracer()
    targets = layers.targets(EVAL_CONFIG.max_new_sgg)
    workdir = _workdir(work_root)
    units, problems, values = [], [], {name: 0.0 for name in layers.PER_LAYER}
    try:
        with tracer.installed(targets):
            state = workload.setup(seed, workdir)
        setup_values = layers.span_metrics(tracer)
        values.update({k: setup_values[k] for k in layers.SETUP_METRICS})
        tracer.reset()
        workload.warm_up(state)
        plain = workload.run_unit(state)
        with tracer.installed(targets):
            traced = workload.run_unit(state)
        units = [plain, traced]
        if plain.error is None and traced.error is None and plain.outputs != traced.outputs:
            problems.append("tracing changed the program's outputs")
        unit_values = layers.span_metrics(tracer)
        values.update({k: v for k, v in unit_values.items()
                       if k not in layers.SETUP_METRICS})
        values.update(_phases(plain))
        values["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s
        if plain.report is not None:
            values["evaluate.evaluate_sample.ms_p50"] = layers.percentile_ms(plain.op_s, 50)
            values["evaluate.evaluate_sample.ms_tail"] = layers.percentile_ms(
                plain.op_s, workload.tail_pct)
            q = _quality(plain.report)
            values["evaluate.qa_em"] = q["qa_em"]
            values["evaluate.sgg_f1"] = q["sgg_f1"]
    except Exception as exc:  # units catch their own; this is set-up or warm-up
        problems.append(f"set-up: {describe(exc)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems += [p for u in units for p in ([u.error] if u.error else []) + u.problems]
    info({"traced_spans": len(tracer.spans), "untraced_s": units[0].wall_s if units else None,
          "traced_s": units[1].wall_s if len(units) > 1 else None})
    for p in problems:
        info({"problem": p})
    return _result(units, values, layers.PER_LAYER, problems)


def _quality(report) -> dict:
    if report is None:
        return {}
    return {"qa_em": report.em_at_1 or 0.0, "sgg_f1": report.sgg_f1 or 0.0}


def _phases(unit) -> dict[str, float]:
    out = {}
    for label, phase in layers.PHASES.items():
        steps = [d for d, s in zip(unit.op_s, unit.stages) if s == label]
        out[f"training.phase.{phase}.s"] = sum(steps)
        out[f"training.phase.{phase}.steps"] = len(steps)
    return out


def main_result(workload, seed, seconds, trace, work_root, info=print) -> dict:
    info(environment(workload, seed, seconds))
    run = run_traced if trace else run_end_to_end
    return run(workload, seed, seconds, work_root, info)

