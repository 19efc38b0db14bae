"""Which ormllm functions the traced run wraps, and the per-layer metrics
derived from their spans. Names follow `<module>.<function>.<stat>`."""

from __future__ import annotations

import math

import numpy as np

from spans import Target, Tracer


def _attention_label(args, kwargs) -> str:
    prefix = args[2] if len(args) > 2 else kwargs["prefix"]
    return "nn.attention.lm" if prefix.startswith("lm.") else "nn.attention.encoder"


def _count_lm_rows(tracer: Tracer, call, args, kwargs):
    seq = args[0] if args else kwargs["seq"]
    tokens = getattr(seq, "tokens", seq)
    tracer.counters["lm_forward.calls"] += 1
    tracer.counters["lm_forward.rows"] += math.prod(tokens.shape[:-1])
    return call()


def _count_modality_samples(tracer: Tracer, call, args, kwargs):
    samples = args[1] if len(args) > 1 else kwargs["samples"]
    tracer.counters["modality_tokens_batch.samples"] += len(samples)
    return call()


def _count_decode(tracer: Tracer, call, args, kwargs):
    """A decode makes one LM pass per generated token, counting the step
    that produced EOS; EOS is stripped from the returned ids, so the decode
    ended at EOS exactly when it made one pass more than it returned ids."""
    c = tracer.counters
    calls0, rows0 = c["lm_forward.calls"], c["lm_forward.rows"]
    out = call()
    steps = c["lm_forward.calls"] - calls0
    c["decode.count"] += 1
    c["decode.tokens"] += steps
    c["decode.lm_rows"] += c["lm_forward.rows"] - rows0
    c["decode.eos"] += steps == len(out) + 1
    return out


def targets(max_new_sgg: int) -> list[Target]:
    def decode_label(args, kwargs):
        max_new = args[5] if len(args) > 5 else kwargs.get("max_new", 16)
        return "fusion.decode.sgg" if max_new == max_new_sgg else "fusion.decode.qa"

    score = "metrics.score"
    return [
        Target("ormllm.tensor", "backward", "tensor.backward"),
        Target("ormllm.tensor", "gelu", "tensor.gelu"),
        Target("ormllm.nn", "attention_block_forward", _attention_label),
        Target("ormllm.nn", "mlp_forward", "nn.mlp_forward"),
        Target("ormllm.spatial", "encoder_forward", "spatial.encoder_forward"),
        Target("ormllm.spatial", "depth_head_forward", "spatial.depth_head_forward"),
        Target("ormllm.spatial", "seg_head_forward", "spatial.seg_head_forward"),
        Target("ormllm.spatial", "encode_point_cloud", "spatial.encode_point_cloud"),
        Target("ormllm.spatial", "depth_loss", "spatial.depth_loss"),
        Target("ormllm.spatial", "seg_loss", "spatial.seg_loss"),
        Target("ormllm.geometry", "reconstruct_point_cloud",
               "geometry.reconstruct_point_cloud"),
        Target("ormllm.model", "Model.modality_tokens_batch",
               "model.modality_tokens_batch", _count_modality_samples),
        Target("ormllm.fusion", "lm_forward", "fusion.lm_forward", _count_lm_rows),
        Target("ormllm.fusion", "decode_answer", decode_label, _count_decode),
        Target("ormllm.fusion", "answer_loss", "fusion.answer_loss"),
        Target("ormllm.fusion", "project_image_tokens", "fusion.project_image_tokens"),
        Target("ormllm.fusion", "build_input_sequence", "fusion.build_input_sequence"),
        Target("ormllm.training", "optimizer_step", "training.optimizer_step"),
        Target("ormllm.training", "contrastive_loss", "training.contrastive_loss"),
        Target("ormllm.evaluate", "evaluate_sample", "evaluate.evaluate_sample"),
        Target("ormllm.metrics", "rouge_l", score),
        Target("ormllm.metrics", "meteor_simplified", score),
        Target("ormllm.metrics", "cider", score),
        Target("ormllm.metrics", "em_at_1", score),
        Target("ormllm.metrics", "sgg_corpus_prf", score),
        Target("ormllm.metrics", "parse_triples", score),
        Target("ormllm.checkpoint", "save_checkpoint", "checkpoint.save"),
        Target("ormllm.checkpoint", "load_checkpoint", "checkpoint.load"),
        Target("ormllm.scenegen", "build_dataset", "scenegen.build_dataset"),
    ]


# Metrics read from the traced set-up rather than from the traced work unit.
SETUP_METRICS = ("checkpoint.save.ms", "checkpoint.load.ms", "scenegen.build_dataset.ms")

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "tensor.backward.self_ms": "ms",
    "tensor.backward.calls": "count",
    "tensor.gelu.self_ms": "ms",
    "tensor.gelu.calls": "count",
    "nn.attention.lm.self_ms": "ms",
    "nn.attention.lm.calls": "count",
    "nn.attention.encoder.self_ms": "ms",
    "nn.attention.encoder.calls": "count",
    "nn.mlp_forward.self_ms": "ms",
    "nn.mlp_forward.calls": "count",
    "spatial.encoder_forward.total_ms": "ms",
    "spatial.depth_head_forward.self_ms": "ms",
    "spatial.seg_head_forward.self_ms": "ms",
    "spatial.encode_point_cloud.total_ms": "ms",
    "spatial.depth_loss.ms": "ms",
    "spatial.seg_loss.ms": "ms",
    "geometry.reconstruct_point_cloud.ms": "ms",
    "model.modality_tokens_batch.self_ms": "ms",
    "model.modality_tokens_batch.calls": "count",
    "model.modality_tokens_batch.samples": "count",
    "fusion.lm_forward.total_ms": "ms",
    "fusion.lm_forward.calls": "count",
    "fusion.lm_forward.rows": "count",
    "fusion.decode.qa.total_ms": "ms",
    "fusion.decode.sgg.total_ms": "ms",
    "fusion.decode.tokens": "count",
    "fusion.decode.tokens_per_s": "1/s",
    "fusion.decode.eos_share": "share",
    "fusion.decode.lm_rows_per_token": "rows/token",
    "fusion.answer_loss.ms": "ms",
    "fusion.project_image_tokens.ms": "ms",
    "fusion.build_input_sequence.ms": "ms",
    "training.optimizer_step.ms": "ms",
    "training.contrastive_loss.ms": "ms",
    "training.phase.stage1.s": "s",
    "training.phase.stage1.steps": "count",
    "training.phase.vfm.s": "s",
    "training.phase.vfm.steps": "count",
    "training.phase.fusion.s": "s",
    "training.phase.fusion.steps": "count",
    "evaluate.evaluate_sample.ms_p50": "ms",
    "evaluate.evaluate_sample.ms_tail": "ms",
    "evaluate.qa_em": "%",
    "evaluate.sgg_f1": "%",
    "metrics.score.ms": "ms",
    "checkpoint.save.ms": "ms",
    "checkpoint.load.ms": "ms",
    "scenegen.build_dataset.ms": "ms",
    "trace.overhead_share": "share",
}

_STAT = {"self_ms": ("self_s", 1e3), "total_ms": ("total_s", 1e3),
         "ms": ("total_s", 1e3), "calls": ("calls", 1)}

PHASES = {"1": "stage1", "2vfm": "vfm", "2": "fusion"}


def span_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric that the spans and counters alone give.
    A layer the workload never entered reads 0."""
    agg = tracer.by_name()
    out = {}
    for name in PER_LAYER:
        span_name, _, stat = name.rpartition(".")
        if stat in _STAT:
            key, scale = _STAT[stat]
            out[name] = agg.get(span_name, {}).get(key, 0) * scale
    c = tracer.counters
    out["fusion.lm_forward.rows"] = c["lm_forward.rows"]
    out["model.modality_tokens_batch.samples"] = c["modality_tokens_batch.samples"]
    decode_s = sum(agg.get(n, {}).get("total_s", 0.0)
                   for n in ("fusion.decode.qa", "fusion.decode.sgg"))
    tokens = c["decode.tokens"]
    out["fusion.decode.tokens"] = tokens
    out["fusion.decode.tokens_per_s"] = tokens / decode_s if decode_s else 0.0
    out["fusion.decode.eos_share"] = c["decode.eos"] / c["decode.count"] if c["decode.count"] else 0.0
    out["fusion.decode.lm_rows_per_token"] = c["decode.lm_rows"] / tokens if tokens else 0.0
    return out


def percentile_ms(durations_s, pct: float) -> float:
    return float(np.percentile(np.asarray(durations_s) * 1e3, pct)) if len(durations_s) else 0.0
