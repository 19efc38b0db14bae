"""evaluate() with one decode stream per call: the report does not depend on
what the stream holds, and each decode lies whole in it."""

from collections import Counter

import numpy as np
import pytest

import ormllm.evaluate as ev
import ormllm.fusion as fusion
from ormllm import vocab as V
from ormllm.errors import ConfigurationError
from ormllm.evaluate import EvalConfig, evaluate
from ormllm.fusion import DecodeStream, FusionConfig
from ormllm.model import Model, ModelConfig
from ormllm.scenegen import build_dataset
from ormllm.spatial import SpatialBlockConfig

CFG = EvalConfig(max_new_qa=4, max_new_sgg=20)


@pytest.fixture(scope="module")
def setup():
    bundle = build_dataset(seed=5, n_scenes=4, n_views=1, image_size=16)
    cfg = ModelConfig(
        variant="full",
        spatial=SpatialBlockConfig(
            image_size=16, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
            depth_decoder_stages=2, seg_classes=8,
            pc_hidden=8, pc_feature_dim=8,
        ),
        fusion=FusionConfig(d_token=16, lm_layers=1, lm_heads=2,
                            vocab_size=len(bundle.vocab), max_seq_len=256,
                            image_patch=4),
    )
    return Model.build(cfg, seed=1), bundle.vocab, bundle.samples


class RecordingStream(DecodeStream):
    """A DecodeStream that remembers itself and every chunk appended."""
    made: list = []

    def __init__(self):
        super().__init__()
        self.chunks = []
        RecordingStream.made.append(self)

    def append(self, ids) -> None:
        self.chunks.append(list(ids))
        super().append(ids)


@pytest.fixture
def streams(monkeypatch):
    monkeypatch.setattr(RecordingStream, "made", [])
    monkeypatch.setattr(ev, "DecodeStream", RecordingStream)
    return RecordingStream.made


def test_report_independent_of_order_and_of_earlier_decodes(setup, streams, monkeypatch):
    model, vocab, samples = setup
    per_call = []
    inner = ev.evaluate_sample

    def recorded(model, vocab, sample, cfg, stream=None):
        result = inner(model, vocab, sample, cfg, stream=stream)
        per_call.append((sample.sample_id, result, stream))
        return result

    drafts = []
    draft = fusion._draft

    def recorded_draft(history, earlier, limit):
        out = draft(history, earlier, limit)
        drafts[-1].append((tuple(history.tolist()), tuple(out)))
        return out

    monkeypatch.setattr(ev, "evaluate_sample", recorded)
    monkeypatch.setattr(fusion, "_draft", recorded_draft)
    reports = []
    for order in (samples, samples[::-1]):
        drafts.append([])
        reports.append(evaluate(model, vocab, order, CFG).to_text())
    assert reports[0] == reports[1]
    # Reversed, the stream holds other ids when each decode call drafts,
    # so other drafts are made.
    assert Counter(drafts[0]) != Counter(drafts[1])
    # One stream per evaluate() call, shared by its samples, holding one
    # chunk per decode (10 questions and one scene graph a sample).
    assert len(streams) == 2 and streams[0] is not streams[1]
    assert [s for _, _, s in per_call] == [streams[0]] * 4 + [streams[1]] * 4
    decodes = sum(len(s.qa) + 1 for s in samples)
    assert [len(s.chunks) for s in streams] == [decodes, decodes]
    assert Counter(map(tuple, streams[0].chunks)) == Counter(map(tuple, streams[1].chunks))
    # Each sample alone, with an empty stream, gives the same results.
    for sample_id, result, _ in per_call:
        sample = next(s for s in samples if s.sample_id == sample_id)
        assert inner(model, vocab, sample, CFG) == result


@pytest.mark.parametrize("field,value", [
    ("threads", 0), ("threads", 2), ("mode", "beam"), ("beam_k", 2),
])
def test_eval_config_mode_beam_k_threads_take_one_value(field, value):
    with pytest.raises(ConfigurationError, match=field):
        EvalConfig(**{field: value})
    EvalConfig(mode="greedy", beam_k=1, threads=1)  # the benchmark's values


def split_into(stream_ids, chunks):
    """Splits the stream into the given chunks, each used once, or fails."""
    left = Counter(map(tuple, chunks))
    at = 0
    while at < len(stream_ids):
        found = [c for c in left if left[c] and tuple(stream_ids[at:at + len(c)]) == c]
        assert found, f"no decode's ids start at {at}"
        left[found[0]] -= 1
        at += len(found[0])
    assert not +left


def test_eval_appends_each_decode_once_and_whole(setup, streams):
    model, vocab, samples = setup
    evaluate(model, vocab, samples, CFG)
    chunks = streams[0].chunks
    assert all(V.BOS in c for c in chunks)
    three = evaluate(model, vocab, samples * 3, CFG)
    assert three.counts["samples"] == 3 * len(samples)
    assert len(streams[1].chunks) == 3 * len(chunks)
    split_into(streams[1].ids().tolist(), chunks * 3)


def test_decode_stream_grows_and_keeps_chunks_and_snapshots_whole():
    REPEATS = 100
    chunks = [[t] * (1 + t) for t in range(8)]
    stream = DecodeStream()
    stream.append(chunks[0])
    kept = stream.ids()
    for _ in range(REPEATS):
        for chunk in chunks:
            stream.append(chunk)
    ids = stream.ids()
    # The stream grew past its first buffer of 1,024 ids; every chunk lies
    # whole in it, in append order, and the earlier snapshot is unchanged.
    assert len(ids) == 1 + REPEATS * sum(map(len, chunks)) > 1024
    assert ids.tolist() == chunks[0] + [t for chunk in chunks for t in chunk] * REPEATS
    assert kept.tolist() == chunks[0]


def test_indexed_drafts_equal_the_scanning_search(setup, monkeypatch):
    # The stream's per-id index changes how a draft is found, not which:
    # with the scanning search over the whole stream in its place, every
    # draft, every LM call and the report are the same.
    model, vocab, samples = setup
    draft, lm_forward = fusion._draft, fusion.lm_forward

    def run():
        drafts, calls = [], []

        def recorded_draft(history, earlier, limit):
            drafts.append(draft(history, earlier, limit))
            return drafts[-1]

        def counted(*args, **kwargs):
            calls.append(args[0].data.shape)
            return lm_forward(*args, **kwargs)

        monkeypatch.setattr(fusion, "_draft", recorded_draft)
        monkeypatch.setattr(fusion, "lm_forward", counted)
        report = evaluate(model, vocab, samples * 3, CFG).to_text()
        return drafts, calls, report

    indexed = run()
    monkeypatch.setattr(DecodeStream, "match",
                        lambda self, key: fusion._suffix_match(self.ids(), key))
    scanned = run()
    assert indexed == scanned
    assert sum(map(len, indexed[0])) > 0  # drafts were made
