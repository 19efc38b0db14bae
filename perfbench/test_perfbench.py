"""The benchmark's own tests, at tiny sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import harness  # noqa: E402
import layers  # noqa: E402
from spans import Target, Tracer  # noqa: E402
from workloads import TINY_SIZES, WORKLOADS  # noqa: E402

import ormllm.training  # noqa: E402


def _bench_json() -> dict:
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _run(name: str, trace: bool, tmp_path, infos=None) -> dict:
    workload = WORKLOADS[name](TINY_SIZES[name])
    sink = infos.append if infos is not None else (lambda obj: None)
    return harness.main_result(workload, seed=3, seconds=0.1, trace=trace,
                               work_root=str(tmp_path), info=sink)


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(inner, "outer")
    outer()
    agg = tracer.by_name()
    assert agg["outer"]["total_s"] == 10.0
    assert agg["outer"]["self_s"] == 8.0
    assert agg["inner"]["self_s"] == 2.0


def test_installed_patches_every_binding_and_restores_them():
    original = ormllm.fusion.lm_forward
    tracer = Tracer()
    with tracer.installed([Target("ormllm.fusion", "lm_forward", "lm")]):
        for mod in (ormllm.fusion, ormllm.model, ormllm.training):
            assert mod.lm_forward is not original
    for mod in (ormllm.fusion, ormllm.model, ormllm.training):
        assert mod.lm_forward is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracer_is_transparent_and_names_match_benchmark_json(name, tmp_path):
    bench = _bench_json()
    assert name in [w["name"] for w in bench["workloads"]]
    e2e = _run(name, trace=False, tmp_path=tmp_path)
    traced = _run(name, trace=True, tmp_path=tmp_path)
    assert e2e["correct"] and e2e["failed"] == 0
    # the traced run fails its own check if traced and untraced outputs differ
    assert traced["correct"] and traced["failed"] == 0
    assert list(e2e["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in bench["per_layer"]]
    for section, result in (("end_to_end", e2e), ("per_layer", traced)):
        for m in bench[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_traced_counts_repeat_exactly(tmp_path):
    counts = [name for name, unit in layers.PER_LAYER.items() if unit == "count"]
    first = _run("heldout_eval", trace=True, tmp_path=tmp_path)["metrics"]
    second = _run("heldout_eval", trace=True, tmp_path=tmp_path)["metrics"]
    assert first["fusion.decode.tokens"]["value"] > 0
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}


@pytest.mark.parametrize("trace", [False, True])
def test_injected_exception_counts_as_failed_operation(trace, tmp_path, monkeypatch):
    workload = WORKLOADS["lm_pretrain"](TINY_SIZES["lm_pretrain"])
    planned = workload.setup(3, str(tmp_path)).planned
    workload.warm_up = lambda state: None  # count measured steps only
    # Traced runs do an untraced unit first; fail the traced unit's third step.
    fail_at = planned + 3 if trace else 3
    real = ormllm.training.optimizer_step
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == fail_at:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(ormllm.training, "optimizer_step", flaky)
    infos = []
    result = harness.main_result(workload, 3, 0.1, trace, str(tmp_path), infos.append)
    assert not result["correct"]
    assert result["attempted"] == (2 * planned if trace else planned)
    assert result["failed"] == planned - 2
    assert any("injected" in str(i.get("problem")) for i in infos)
