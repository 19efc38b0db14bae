"""The three benchmark workloads, driven through ormllm's public API.

Each workload has a set-up (inputs and model), an untimed warm-up, and a
deterministic work unit that the runner repeats. A unit reports one
duration per completed operation (a training step or an evaluated
sample), the program's outputs, and any failed correctness check.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import ormllm.evaluate as ormllm_evaluate
from ormllm.checkpoint import load_checkpoint, save_checkpoint
from ormllm.config import RunConfig
from ormllm.evaluate import EvalConfig, evaluate
from ormllm.model import Model, ModelConfig
from ormllm.scenegen import build_dataset, build_vocabulary
from ormllm.training import TrainData, make_stage1_records, make_stage2_records, train_stage

clock = time.perf_counter

IMAGE_SIZE = 32
VIEWS = 3
REF_SEED = 0                # the eval model's training corpus and init
TEST_SCENE_BASE = 1_000_000  # held-out scene ids start far above the corpus


@dataclass(frozen=True)
class Sizes:
    scenes: int                 # scenes generated from the workload seed
    epochs: int = 2             # main-phase epochs per training unit
    vfm_epochs: int = 2         # fusion_train depth/seg supervision epochs
    ref_scenes: int = 20        # heldout_eval: training corpus of the model
    ref_stage1_epochs: int = 2
    ref_stage2_epochs: int = 2
    ref_vfm_epochs: int = 1


@dataclass
class Unit:
    """One run of a workload's work unit."""

    planned: int
    op_s: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    outputs: list[str] = field(default_factory=list)
    stages: list[str] = field(default_factory=list)   # LossRow.stage per step
    report: object = None
    error: str | None = None
    problems: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.op_s)


def describe(exc: BaseException) -> str:
    """Exception type, message and the line that raised it."""
    where = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({os.path.basename(where.filename)}:{where.lineno})"


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(repr(p).encode())
    return h.hexdigest()


def _steps(n_items: int, epochs: int, batch_size: int) -> int:
    return epochs * math.ceil(n_items / batch_size)


def _run_training(data: TrainData, mcfg: ModelConfig, cfg, seed: int,
                  planned: int) -> Unit:
    unit = Unit(planned=planned)
    t0 = clock()
    last = t0
    result = None

    def log(row):
        nonlocal last
        now = clock()
        unit.op_s.append(now - last)
        last = now
        unit.stages.append(row.stage)
        unit.outputs.append(row.format())

    try:
        model = Model.build(mcfg, seed)
        last = clock()
        result = train_stage(data, model, cfg, log=log)
    except Exception as exc:  # counted as failed operations, reported below
        unit.error = describe(exc)
    unit.wall_s = clock() - t0
    if unit.error is None:
        unit.problems += _training_problems(unit, result)
    return unit


def _training_problems(unit: Unit, result) -> list[str]:
    problems = []
    if unit.completed != unit.planned:
        problems.append(f"{unit.completed} steps ran, {unit.planned} planned")
    for row in result.rows:
        if not all(map(math.isfinite, (row.lm_loss, row.contrast_loss, row.total))):
            problems.append(f"non-finite loss at step {row.step}")
            break
    # Main phase only: the depth/seg phase of fusion_train is 2 epochs of 3
    # batches, one of 2 samples, and its epoch means rise on some seeds
    # while the main phase falls by 16% or more on every seed tried.
    means = result.epoch_means
    if len(means) >= 2 and not means[-1] < means[0]:
        problems.append(f"loss did not fall: epoch means {means}")
    return problems


class Workload:
    name = ""
    op = "training step"
    tail_pct = 90.0   # fixed per workload so >= 10 ops lie beyond it
    setup_reps = 5    # setup_s is the median over these

    def __init__(self, sizes: Sizes):
        self.sizes = sizes

    def setup(self, seed: int, workdir: str):
        raise NotImplementedError

    def fingerprint(self, state) -> str:
        raise NotImplementedError

    def warm_up(self, state) -> None:
        raise NotImplementedError

    def run_unit(self, state) -> Unit:
        raise NotImplementedError


@dataclass
class TrainState:
    seed: int
    data: TrainData
    mcfg: ModelConfig
    cfg: object
    planned: int


class LmPretrain(Workload):
    """Stage-1 text-only training of the LM on the seed's train split."""

    name = "lm_pretrain"
    tail_pct = 95.0

    def setup(self, seed, workdir):
        run = RunConfig.resolve(overrides={"seed": seed})
        bundle = build_dataset(seed, self.sizes.scenes, VIEWS, IMAGE_SIZE)
        data = make_stage1_records(bundle.part_samples("train"), bundle.vocab)
        mcfg = ModelConfig(variant="no-depth-seg", spatial=run.spatial(),
                           fusion=run.fusion(len(bundle.vocab)))
        cfg = replace(run.train(1), epochs=self.sizes.epochs)
        planned = _steps(len(data.records), cfg.epochs, cfg.batch_size)
        return TrainState(seed, data, mcfg, cfg, planned)

    def fingerprint(self, state):
        return _digest([(r.prompt_ids, r.answer_ids) for r in state.data.records])

    def warm_up(self, state):
        few = replace(state.data, records=state.data.records[: 2 * state.cfg.batch_size])
        train_stage(few, Model.build(state.mcfg, state.seed), replace(state.cfg, epochs=1))

    def run_unit(self, state):
        return _run_training(state.data, state.mcfg, state.cfg, state.seed, state.planned)


class FusionTrain(Workload):
    """Stage 2 of the full variant from fresh parameters: the depth/seg
    supervision phase, then LM loss plus InfoNCE through a frozen LM."""

    name = "fusion_train"
    tail_pct = 80.0

    def setup(self, seed, workdir):
        run = RunConfig.resolve(overrides={"seed": seed})
        bundle = build_dataset(seed, self.sizes.scenes, VIEWS, IMAGE_SIZE)
        cfg = replace(run.train(2), epochs=self.sizes.epochs,
                      vfm_epochs=self.sizes.vfm_epochs)
        data = make_stage2_records(bundle.part_samples("train"), bundle.vocab,
                                   qa_per_sample=cfg.qa_per_sample, seed=seed,
                                   sgg_max_triples=cfg.sgg_max_triples)
        mcfg = ModelConfig(variant="full", spatial=run.spatial(),
                           fusion=run.fusion(len(bundle.vocab)))
        n_vfm = len({r.sample_index for r in data.records})
        planned = (_steps(n_vfm, cfg.vfm_epochs, cfg.batch_size)
                   + _steps(len(data.records), cfg.epochs, cfg.batch_size))
        return TrainState(seed, data, mcfg, cfg, planned)

    def fingerprint(self, state):
        return _digest([(r.sample_index, r.prompt_ids, r.answer_ids)
                        for r in state.data.records])

    def warm_up(self, state):
        few = replace(state.data, records=state.data.records[: state.cfg.batch_size])
        train_stage(few, Model.build(state.mcfg, state.seed),
                    replace(state.cfg, epochs=1, vfm_epochs=1))

    def run_unit(self, state):
        return _run_training(state.data, state.mcfg, state.cfg, state.seed, state.planned)


@dataclass
class EvalState:
    model: Model
    vocab: object
    samples: list
    ckpt_sha: str


EVAL_CONFIG = EvalConfig(tasks=("qa", "sgg"), max_new_qa=8, max_new_sgg=150,
                         mode="greedy", beam_k=1, threads=1)


class HeldoutEval(Workload):
    """evaluate() with greedy QA and SGG over held-out scenes made from the
    seed. The full model is trained in set-up by stage 1 and stage 2 on a
    fixed corpus and reloaded from its checkpoint, as `ormllm eval` does."""

    name = "heldout_eval"
    op = "evaluated sample"
    tail_pct = 70.0
    setup_reps = 2

    def setup(self, seed, workdir):
        s = self.sizes
        run = RunConfig.resolve(overrides={"seed": REF_SEED})
        corpus = build_dataset(REF_SEED, s.ref_scenes, VIEWS, IMAGE_SIZE)
        heldout = build_dataset(TEST_SCENE_BASE + 1000 * seed, s.scenes, VIEWS, IMAGE_SIZE)
        # As in build_dataset, the vocabulary covers every sample; at the
        # benchmark's sizes it equals the corpus vocabulary for any seed.
        vocab = build_vocabulary(corpus.samples + heldout.samples)

        def config(variant):
            return ModelConfig(variant=variant, spatial=run.spatial(),
                               fusion=run.fusion(len(vocab)))

        stage1 = Model.build(config("no-depth-seg"), REF_SEED)
        train_stage(make_stage1_records(corpus.samples, vocab), stage1,
                    replace(run.train(1), epochs=s.ref_stage1_epochs))
        stage1_path = os.path.join(workdir, "stage1.ckpt")
        save_checkpoint(stage1.params, stage1_path)

        model = Model.build(config("full"), REF_SEED)
        loaded = load_checkpoint(stage1_path)
        for name in loaded.names():
            model.params[name].data = loaded[name].data.copy()
        cfg2 = replace(run.train(2), epochs=s.ref_stage2_epochs, vfm_epochs=s.ref_vfm_epochs)
        train_stage(make_stage2_records(corpus.samples, vocab, qa_per_sample=cfg2.qa_per_sample,
                                        seed=REF_SEED, sgg_max_triples=cfg2.sgg_max_triples),
                    model, cfg2)

        final_path = os.path.join(workdir, "full.ckpt")
        save_checkpoint(model.params, final_path)
        params = load_checkpoint(final_path)
        with open(final_path, "rb") as fh:
            sha = hashlib.sha256(fh.read()).hexdigest()
        _check_round_trip(model.params, params)
        return EvalState(Model(model.cfg, params), vocab, heldout.samples, sha)

    def fingerprint(self, state):
        return _digest(state.ckpt_sha, [x.sample_id for x in state.samples])

    def warm_up(self, state):
        evaluate(state.model, state.vocab, state.samples[:1], EVAL_CONFIG)

    def run_unit(self, state):
        unit = Unit(planned=len(state.samples))
        inner = ormllm_evaluate.evaluate_sample

        def timed(*args, **kwargs):
            t = clock()
            out = inner(*args, **kwargs)
            unit.op_s.append(clock() - t)
            return out

        ormllm_evaluate.evaluate_sample = timed
        t0 = clock()
        try:
            unit.report = evaluate(state.model, state.vocab, state.samples, EVAL_CONFIG)
        except Exception as exc:  # counted as failed operations, reported below
            unit.error = describe(exc)
        finally:
            ormllm_evaluate.evaluate_sample = inner
        unit.wall_s = clock() - t0
        if unit.error is None:
            unit.outputs = unit.report.to_text().splitlines()
            unit.problems += _report_problems(unit.report, state.samples)
        return unit


def _check_round_trip(saved, loaded) -> None:
    if saved.names() != loaded.names():
        raise RuntimeError("checkpoint round trip changed the tensor names")
    for name in saved.names():
        a, b = saved[name].data, loaded[name].data
        if a.shape != b.shape or a.tobytes() != b.tobytes():
            raise RuntimeError(f"checkpoint round trip changed tensor {name!r}")
        if saved.trainable[name] != loaded.trainable[name]:
            raise RuntimeError(f"checkpoint round trip changed the flag of {name!r}")


def _report_problems(report, samples) -> list[str]:
    problems = []
    want = {"samples": len(samples), "sgg_items": len(samples),
            "qa_items": sum(len(s.qa) for s in samples)}
    for key, n in want.items():
        if report.counts.get(key) != n:
            problems.append(f"report count {key}={report.counts.get(key)}, expected {n}")
    for name in report.METRIC_FIELDS:
        v = getattr(report, name)
        if v is None or not np.isfinite(v):
            problems.append(f"report metric {name} is {v}")
    return problems


FULL_SIZES = {
    "lm_pretrain": Sizes(scenes=48),
    "fusion_train": Sizes(scenes=10),
    "heldout_eval": Sizes(scenes=12),
}

TINY_SIZES = {
    "lm_pretrain": Sizes(scenes=4),
    "fusion_train": Sizes(scenes=3, vfm_epochs=1),
    "heldout_eval": Sizes(scenes=1, ref_scenes=2, ref_stage1_epochs=1,
                          ref_stage2_epochs=1, ref_vfm_epochs=1),
}

WORKLOADS = {cls.name: cls for cls in (LmPretrain, FusionTrain, HeldoutEval)}
