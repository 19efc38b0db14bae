"""Held-out evaluation: decode answers per task prompt and score them.

Each sample's modality tokens are computed once and shared by all of its
prompts, and so are the LM keys and values of that modality prefix: the
slot layout gives every prompt of a sample the same prefix rows at the same
positions, so each decode runs the LM only on its prompt, BOS and the
tokens it generates. A sample makes two decode calls
(fusion.decode_answer): one for all of its QA prompts and one for its
scene-graph prompt. The first LM call of a decode call runs all of its
prompts as one padded batch over the shared prefix; a prompt that has not
ended then continues alone. Decoding is greedy, so identical inputs yield
identical reports. Each step drafts and verifies: it guesses a prompt's
next few ids, checks the guess and the next choice in one cached LM call,
keeps the longest correct part and rolls the K/V cache back over the
rest. The guess copies what followed the longest match of the prompt's
recent ids in two sources: the ids of every decode call this evaluate()
call has finished (one DecodeStream per call, to which each decode call
appends its prompts' ids in prompt order), and the prompt's own ids and
output so far. Templated questions recur across samples, and a model
tends to write much the same scene graph for every scene, so most
guesses go through and most prompts take a few LM calls. The answers are
exactly those of one LM call per token, whatever the stream holds, so the
report does not depend on the order of the samples.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from . import vocab as V
from .errors import ConfigurationError
from .fusion import DecodeStream, decode_answer, prefix_cache
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


TASKS = ("qa", "sgg")


@dataclass
class EvalConfig:
    """Evaluation settings. Decoding is greedy and runs on one thread.
    `mode`, `beam_k` and `threads` are kept only because the benchmark's
    heldout_eval builds EvalConfig(mode="greedy", beam_k=1, threads=1), so
    any other value of them is a ConfigurationError. All three go at the
    next change to the benchmark, once it stops passing them."""

    tasks: tuple[str, ...] = TASKS
    max_new_qa: int = 8
    max_new_sgg: int = 110    # the longest graph of build_dataset(0, 300, 3, 32)
                              # is 104 tokens plus EOS
    mode: str = "greedy"
    beam_k: int = 1
    threads: int = 1

    def __post_init__(self):
        if not self.tasks:
            raise ConfigurationError(f"eval: no task given; name one of {TASKS}")
        for task in self.tasks:
            if task not in TASKS:
                raise ConfigurationError(f"eval: unknown task {task!r}")
        for name, only in (("mode", "greedy"), ("beam_k", 1), ("threads", 1)):
            if getattr(self, name) != only:
                raise ConfigurationError(
                    f"eval: {name} must be {only!r}, got {getattr(self, name)!r}")
        for name in ("max_new_qa", "max_new_sgg"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"eval.{name} must be >= 0")


@dataclass
class SampleResult:
    qa_items: list[tuple[str, list[str]]]
    sgg_pair: tuple[list, set] | None


def evaluate_sample(model: Model, vocab: Vocabulary, sample: Sample,
                    cfg: EvalConfig, stream: DecodeStream | None = None) -> SampleResult:
    """Decodes and pairs one sample's answers, in one decode call for its
    QA prompts and one for its scene-graph prompt, both over one cache of
    its modality prefix. The calls draft from, and append to, `stream`;
    None gives the sample an empty one."""
    if stream is None:
        stream = DecodeStream()
    with T.no_grad():
        bundle = model.modality_tokens_batch([sample])[0]
        qa = [model.assemble(bundle, qa_prompt_ids(vocab, question))
              for question, _ in sample.qa] if "qa" in cfg.tasks else []
        sgg = [model.assemble(bundle, [V.SGG_TASK])] if "sgg" in cfg.tasks else []
        prefixes = qa + sgg
        past = prefix_cache(prefixes[0], prefixes[0].prompt_start,
                            model.params, model.cfg.fusion) if prefixes else None

        def decode(prefixes, max_new: int) -> list[list[int]]:
            return decode_answer(prefixes, model.params, model.cfg.fusion,
                                 max_new=max_new, past=past, stream=stream)

        qa_items = []
        if qa:
            qa_items = [(vocab.decode(out), list(answers))
                        for out, (_, answers) in zip(decode(qa, cfg.max_new_qa),
                                                     sample.qa)]
        sgg_pair = None
        if sgg:
            out, = decode(sgg, cfg.max_new_sgg)
            sgg_pair = (parse_triples(vocab.decode(out)), set(sample.triples))
    return SampleResult(qa_items=qa_items, sgg_pair=sgg_pair)


def evaluate(model: Model, vocab: Vocabulary, samples: list[Sample],
             cfg: EvalConfig, config_echo: list[str] | None = None) -> MetricReport:
    model.check_vocab(len(vocab))
    stream = DecodeStream()
    results = [evaluate_sample(model, vocab, s, cfg, stream=stream) for s in samples]

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
