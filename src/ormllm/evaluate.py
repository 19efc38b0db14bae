"""Held-out evaluation: decode answers per task prompt and score them.

Each sample's modality tokens are computed once and shared by all of its
prompts, and so are the LM keys and values of that modality prefix: the
slot layout gives every prompt of a sample the same prefix rows at the same
positions, so each decode runs the LM only on its prompt, BOS and the
tokens it generates. Decoding is greedy by default so identical inputs
yield identical reports. With threads > 1, samples are processed in a pool
and aggregated in index order, which leaves every score unchanged because
per-sample evaluation is pure.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from . import vocab as V
from .errors import ConfigurationError
from .fusion import decode_answer, prefix_cache
from .metrics import (
    MetricReport,
    cider,
    em_at_1,
    meteor_simplified,
    parse_triples,
    rouge_l,
    sgg_corpus_prf,
)
from .model import Model
from .scenegen import Sample
from .training import qa_prompt_ids
from .vocab import Vocabulary


@dataclass
class EvalConfig:
    tasks: tuple[str, ...] = ("qa", "sgg")
    max_new_qa: int = 8
    max_new_sgg: int = 150
    mode: str = "greedy"
    beam_k: int = 1
    threads: int = 1

    def __post_init__(self):
        if self.mode not in ("greedy", "beam"):
            raise ConfigurationError(
                f"eval.mode must be 'greedy' or 'beam', got {self.mode!r}"
            )
        if self.beam_k < 1:
            raise ConfigurationError(f"eval.beam_k must be >= 1, got {self.beam_k}")
        if self.threads < 1:
            raise ConfigurationError(f"threads must be >= 1, got {self.threads}")
        for name in ("max_new_qa", "max_new_sgg"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"eval.{name} must be >= 0")


@dataclass
class SampleResult:
    qa_items: list[tuple[str, list[str]]]
    sgg_pair: tuple[list, set] | None


def evaluate_sample(model: Model, vocab: Vocabulary, sample: Sample,
                    cfg: EvalConfig) -> SampleResult:
    with T.no_grad():
        bundle = model.modality_tokens(sample)
        past = None

        def decode(prompt_ids, max_new: int) -> list[int]:
            nonlocal past
            prefix = model.assemble(sample, prompt_ids, bundle=bundle)
            if past is None:
                past = prefix_cache(prefix, prefix.segment_start("prompt"),
                                    model.params, model.cfg.fusion)
            return decode_answer(prefix, model.params, model.cfg.fusion,
                                 mode=cfg.mode, beam_k=cfg.beam_k,
                                 max_new=max_new, past=past)

        qa_items = []
        if "qa" in cfg.tasks:
            for question, answers in sample.qa:
                out = decode(qa_prompt_ids(vocab, question), cfg.max_new_qa)
                qa_items.append((vocab.decode(out), list(answers)))
        sgg_pair = None
        if "sgg" in cfg.tasks:
            out = decode([V.SGG_TASK], cfg.max_new_sgg)
            sgg_pair = (parse_triples(vocab.decode(out)), set(sample.triples))
    return SampleResult(qa_items=qa_items, sgg_pair=sgg_pair)


def evaluate(model: Model, vocab: Vocabulary, samples: list[Sample],
             cfg: EvalConfig, config_echo: list[str] | None = None) -> MetricReport:
    model.check_vocab(len(vocab))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(pool.map(
                lambda s: evaluate_sample(model, vocab, s, cfg), samples
            ))
    else:
        results = [evaluate_sample(model, vocab, s, cfg) for s in samples]

    report = MetricReport(config_echo=list(config_echo or []))
    if "qa" in cfg.tasks:
        qa_corpus = [item for r in results for item in r.qa_items]
        report.counts["qa_items"] = len(qa_corpus)
        if qa_corpus:
            report.rouge_l = rouge_l(qa_corpus)
            report.meteor = meteor_simplified(qa_corpus)
            report.em_at_1 = em_at_1(qa_corpus)
            if len(qa_corpus) >= 2:
                report.cider = cider(qa_corpus)
    if "sgg" in cfg.tasks:
        pairs = [r.sgg_pair for r in results if r.sgg_pair is not None]
        report.counts["sgg_items"] = len(pairs)
        if pairs:
            report.sgg_p, report.sgg_r, report.sgg_f1 = sgg_corpus_prf(pairs)
    report.counts["samples"] = len(samples)
    return report
