import numpy as np
import pytest

from ormllm import tensor as T
from ormllm import vocab as V
from ormllm.errors import (
    ConfigurationError,
    ContractError,
    DomainError,
    EmptyDomainError,
    SequenceLengthError,
)
import ormllm.fusion as fusion
from ormllm.fusion import (
    FusionConfig,
    TokenSequence,
    answer_loss,
    build_fusion_params,
    build_input_sequence,
    decode_answer,
    lm_forward,
    pooled_image_feature,
    prefix_cache,
    project_image_tokens,
    project_pc_tokens,
    project_seg_tokens,
    slot_layout,
)
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import ModelParams
from ormllm.spatial import RegionFeatureSet, SpatialBlockConfig
from ormllm.tensor import Tensor
from ormllm.vocab import Vocabulary

SCFG = SpatialBlockConfig(
    image_size=32, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
    encoder_patch=4, depth_decoder_stages=2, seg_classes=3,
    pc_hidden=8, pc_feature_dim=8,
)
FCFG = FusionConfig(d_token=16, lm_layers=2, lm_heads=2, vocab_size=20,
                    max_seq_len=64, image_patch=8, pc_tokens=1)


def make_params(seed=0, variant="full", fcfg=FCFG):
    params = ModelParams()
    build_fusion_params(params, fcfg, SCFG, np.random.default_rng(seed), variant)
    return params


def rand_image(seed=0, size=32, ch=3):
    return np.random.default_rng(seed).uniform(0, 1, size=(size, size, ch))


def test_image_token_count():
    params = make_params()
    toks = project_image_tokens(rand_image(), params, FCFG)
    assert toks.shape == (16, 16)  # (32/8)^2 tokens of width d_token


def test_image_tokens_patch_local():
    params = make_params()
    img1 = rand_image(1)
    img2 = img1.copy()
    img2[8:16, 24:32] += 0.25  # exactly patch index 1*4+3=7
    t1 = project_image_tokens(img1, params, FCFG).data
    t2 = project_image_tokens(img2, params, FCFG).data
    diff = np.abs(t1 - t2).max(axis=1)
    assert diff[7] > 0
    assert (diff[np.arange(16) != 7] == 0).all()


def test_zero_image_zero_biases_all_tokens_equal():
    params = make_params()
    for name in params.names():
        if name.endswith(".b") and name.startswith("proj."):
            params[name].data[:] = 0.0
    toks = project_image_tokens(np.zeros((32, 32, 3)), params, FCFG).data
    assert np.ptp(toks, axis=0).max() == 0.0


def test_indivisible_patch_error():
    params = make_params()
    with pytest.raises(ConfigurationError):
        project_image_tokens(np.zeros((30, 30, 3)), params, FCFG)


def test_seg_tokens_one_per_region_and_null():
    params = make_params()
    feats = [Tensor(np.random.default_rng(i).normal(size=16)) for i in range(3)]
    regions = RegionFeatureSet(regions=[(1, feats[0]), (2, feats[1]), (3, feats[2])])
    toks = project_seg_tokens(regions, params)
    assert toks.shape == (3, 16)
    null = project_seg_tokens(None, params)
    assert null.shape == (1, 16)
    np.testing.assert_array_equal(null.data, params["proj.seg_null"].data)
    empty = project_seg_tokens(RegionFeatureSet(regions=[]), params)
    np.testing.assert_array_equal(empty.data, null.data)


def test_identical_region_features_give_identical_tokens():
    params = make_params()
    f = Tensor(np.random.default_rng(5).normal(size=16))
    toks = project_seg_tokens(RegionFeatureSet(regions=[(1, f), (2, f)]), params)
    np.testing.assert_array_equal(toks.data[0], toks.data[1])


def test_pc_tokens_default_single_and_null_distinct():
    params = make_params()
    feat = Tensor(np.random.default_rng(6).normal(size=8))
    toks = project_pc_tokens(feat, params, FCFG)
    assert toks.shape == (1, 16)
    null = project_pc_tokens(None, params, FCFG)
    np.testing.assert_array_equal(null.data, params["proj.pc_null"].data)
    assert not np.array_equal(null.data, params["proj.seg_null"].data)
    toks2 = project_pc_tokens(Tensor(feat.data.copy()), params, FCFG)
    np.testing.assert_array_equal(toks.data, toks2.data)


def seq_parts(params, seed=7, n_regions=3):
    rng = np.random.default_rng(seed)
    img = project_image_tokens(rng.uniform(0, 1, (32, 32, 3)), params, FCFG)
    regions = RegionFeatureSet(
        regions=[(k + 1, Tensor(rng.normal(size=16))) for k in range(n_regions)]
    )
    seg = project_seg_tokens(regions, params)
    pc = project_pc_tokens(Tensor(rng.normal(size=8)), params, FCFG)
    return img, seg, pc


def test_build_sequence_lengths_and_tag_order():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, list(range(8)), params, FCFG)
    assert len(seq) == 16 + 3 + 1 + 8
    assert seq.tags == ["image"] * 16 + ["seg"] * 3 + ["pc"] * 1 + ["prompt"] * 8


def test_build_sequence_no_seg_variant():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, list(range(8)), params, FCFG,
                               variant="no-seg")
    assert len(seq) == 16 + 1 + 8
    assert "seg" not in seq.tags


def test_build_sequence_rejects_bad_prompt_id():
    params = make_params()
    img, seg, pc = seq_parts(params)
    with pytest.raises(DomainError):
        build_input_sequence(img, seg, pc, [5, 99], params, FCFG)


def test_build_sequence_overflow():
    params = make_params()
    img, seg, pc = seq_parts(params)
    with pytest.raises(SequenceLengthError):
        build_input_sequence(img, seg, pc, list(range(5)) * 12, params, FCFG)


def test_lm_logits_shape_and_softmax_rows():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, [1, 4, 5], params, FCFG)
    logits = lm_forward(seq, params, FCFG)
    assert logits.shape == (len(seq), 20)
    p = T.softmax(logits).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(len(seq)), atol=1e-12)


def test_lm_causality_bitwise():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq1 = build_input_sequence(img, seg, pc, [1, 4, 5, 6], params, FCFG)
    seq2 = build_input_sequence(img, seg, pc, [1, 4, 9, 8], params, FCFG)
    l1 = lm_forward(seq1, params, FCFG).data
    l2 = lm_forward(seq2, params, FCFG).data
    j = len(seq1) - 2  # first changed position
    assert (l1[:j] == l2[:j]).all()
    assert not np.array_equal(l1[j:], l2[j:])


def test_lm_cached_chunks_match_full_forward():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, [1, 4, 5, 6, 7], params, FCFG)
    full = lm_forward(seq.tokens, params, FCFG).data
    cache = fusion.KVCache()
    with T.no_grad():
        # Positions omitted: sequence order continues from cache.length.
        parts = [lm_forward(seq.tokens[a:b], params, FCFG, cache=cache).data
                 for a, b in ((0, 20), (20, 21), (21, 25))]
    assert cache.length == len(seq)
    np.testing.assert_allclose(np.concatenate(parts), full, rtol=0, atol=1e-12)
    with T.no_grad(), pytest.raises(SequenceLengthError):
        lm_forward(Tensor(np.zeros((FCFG.max_seq_len - 24, 16))), params, FCFG,
                   cache=cache)


def test_answer_loss_uniform_logits_is_log_vocab():
    S, Vn = 6, 50
    logits = T.constant(np.zeros((S, Vn)))
    targets = np.arange(S) % Vn
    mask = np.ones(S, dtype=bool)
    loss = answer_loss(logits, targets, mask)
    np.testing.assert_allclose(float(loss.data), np.log(50.0), atol=1e-9)


def test_answer_loss_probability_one_gives_zero():
    S, Vn = 4, 9
    targets = np.array([1, 3, 5, 7])
    logits = np.full((S, Vn), -1e4)
    logits[np.arange(S), targets] = 1e4
    loss = answer_loss(T.constant(logits), targets, np.ones(S, dtype=bool))
    assert float(loss.data) < 1e-12


def test_answer_loss_matches_scratch_oracle():
    rng = np.random.default_rng(8)
    S, Vn = 7, 11
    logits = rng.normal(size=(S, Vn))
    targets = rng.integers(0, Vn, size=S)
    mask = np.array([0, 1, 1, 0, 1, 0, 1], dtype=bool)

    # Scratch oracle: explicit per-position softmax and NLL.
    total = 0.0
    for t in np.flatnonzero(mask):
        e = np.exp(logits[t] - logits[t].max())
        total -= np.log(e[targets[t]] / e.sum())
    want = total / mask.sum()

    got = float(answer_loss(T.constant(logits), targets, mask).data)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_answer_loss_empty_mask_error():
    with pytest.raises(EmptyDomainError):
        answer_loss(T.constant(np.zeros((3, 5))), np.zeros(3, dtype=int),
                    np.zeros(3, dtype=bool))


def test_answer_loss_gradcheck_through_lm():
    params = make_params(seed=3)
    img, seg, pc = seq_parts(params, seed=9)
    target_full = np.zeros(16 + 3 + 1 + 4, dtype=int)
    target_full[-3:] = [5, 6, V.EOS]
    mask = np.zeros(len(target_full), dtype=bool)
    mask[-3:] = True

    def f():
        seq = build_input_sequence(img, seg, pc, [V.BOS, 4, 5, 6], params, FCFG)
        return answer_loss(lm_forward(seq, params, FCFG), target_full, mask)

    names = [n for n in params.names() if n.startswith("lm.") or n == "fusion.pos_embed"]
    reports = finite_diff_grad_check(f, params, tol=1e-4, coords_per_tensor=8,
                                     names=names)
    bad = [(r.name, r.max_rel_error) for r in reports if not r.passed]
    assert not bad, bad


def decode_setup(seed=11):
    params = make_params(seed=seed)
    img, seg, pc = seq_parts(params, seed=seed)
    seq = build_input_sequence(img, seg, pc, [V.BOS, 5], params, FCFG)
    return params, seq


def test_beam1_equals_greedy():
    params, seq = decode_setup()
    g = decode_answer(seq, params, FCFG, mode="greedy", max_new=6)
    b = decode_answer(seq, params, FCFG, mode="beam", beam_k=1, max_new=6)
    assert g == b


def test_decode_deterministic():
    params, seq = decode_setup(12)
    a = decode_answer(seq, params, FCFG, max_new=6)
    b = decode_answer(seq, params, FCFG, max_new=6)
    assert a == b


def test_decode_max_new_zero_empty():
    params, seq = decode_setup(13)
    assert decode_answer(seq, params, FCFG, max_new=0) == []


def test_decode_eos_first_gives_empty_answer():
    params, seq = decode_setup(14)
    # Force EOS to dominate every logit row via the output head bias.
    params["lm.out.b"].data[:] = -50.0
    params["lm.out.b"].data[V.EOS] = 50.0
    assert decode_answer(seq, params, FCFG, max_new=8) == []


def test_decode_stops_at_eos_and_strips_it():
    params, seq = decode_setup(15)
    out = decode_answer(seq, params, FCFG, max_new=10)
    assert V.EOS not in out and len(out) <= 10


def test_beam_respects_k_validation():
    params, seq = decode_setup(16)
    with pytest.raises(ContractError):
        decode_answer(seq, params, FCFG, mode="beam", beam_k=0)


def recompute_decode(seq_prefix, params, cfg, mode="greedy", beam_k=1, max_new=16,
                     forward=lm_forward):
    """Reference decoder: re-runs the LM over the whole prefix for every new
    token, with no K/V cache."""
    if max_new == 0:
        return []
    k = 1 if mode == "greedy" else beam_k
    with T.no_grad():
        wte = params["lm.wte"].data
        prefix = np.concatenate([seq_prefix.tokens.data, wte[V.BOS][None]], axis=0)
        if seq_prefix.positions is not None:
            base_pos = np.concatenate([seq_prefix.positions,
                                       [seq_prefix.next_position()]])
        else:
            base_pos = np.arange(len(prefix), dtype=np.int64)

        def step_logprobs(token_rows):
            pos = np.concatenate([
                base_pos,
                np.arange(base_pos[-1] + 1,
                          base_pos[-1] + 1 + (len(token_rows) - len(base_pos)),
                          dtype=np.int64),
            ])
            logits = forward(Tensor(token_rows), params, cfg, positions=pos).data[-1]
            shifted = logits - logits.max()
            return shifted - np.log(np.exp(shifted).sum())

        beams = [(0.0, (), prefix, False)]
        for _ in range(max_new):
            candidates = []
            for score, ids, rows, finished in beams:
                if finished:
                    candidates.append((score, ids, rows, True))
                    continue
                logp = step_logprobs(rows)
                order = np.lexsort((np.arange(len(logp)), -logp))[:k]
                for tok in order:
                    tok = int(tok)
                    new_ids = ids + (tok,)
                    if tok == V.EOS:
                        candidates.append((score + logp[tok], new_ids, rows, True))
                    else:
                        new_rows = np.concatenate([rows, wte[tok][None]], axis=0)
                        if base_pos[-1] + 1 + len(new_rows) - len(base_pos) > cfg.max_seq_len:
                            candidates.append((score + logp[tok], new_ids, rows, True))
                        else:
                            candidates.append((score + logp[tok], new_ids, new_rows, False))
            candidates.sort(key=lambda c: (-c[0], c[1]))
            beams = candidates[:k]
            if all(b[3] for b in beams):
                break
        ids = list(beams[0][1])
    return ids[:-1] if ids and ids[-1] == V.EOS else ids


def decode_fixture(kind, seed, prompt_len=2, eos_bias=0.0):
    """Random-parameter prefixes: slot-layout (gapped) positions, sequence
    positions, or no positions at all."""
    params = make_params(seed=seed)
    params["lm.out.b"].data[V.EOS] += eos_bias
    img, seg, pc = seq_parts(params, seed=seed)
    prompt = [int(t) for t in np.random.default_rng(seed).integers(4, 20, prompt_len)]
    layout = slot_layout(16, SCFG.seg_classes, FCFG.pc_tokens) if kind == "slots" else None
    seq = build_input_sequence(img, seg, pc, prompt, params, FCFG, layout=layout,
                               seg_class_ids=[1, 2, 3])
    if kind == "none":
        seq = TokenSequence(tokens=seq.tokens, tags=seq.tags)
    return params, seq


def recording(calls, forward):
    """`forward` that also appends (rows run, last-row logits) per call."""
    def wrapped(seq, *args, **kwargs):
        out = forward(seq, *args, **kwargs)
        calls.append((seq.shape[0], out.data[-1].copy()))
        return out
    return wrapped


DECODE_CASES = [
    # (positions, seed, prompt length, EOS logit bias, max_new); the -50
    # bias keeps EOS away so that the max_seq_len cut-off ends the decode.
    ("slots", 21, 2, 0.0, 10),
    ("slots", 22, 2, -50.0, 20),      # slot 63 is the last: cut-off after 13
    ("sequence", 23, 3, 0.0, 10),
    ("sequence", 24, 35, -50.0, 20),  # 55 rows + BOS: cut-off after 8
    ("none", 25, 4, 0.0, 10),
    ("none", 26, 35, -50.0, 12),      # as above, without positions
]


@pytest.mark.parametrize("mode,beam_k", [("greedy", 1), ("beam", 1), ("beam", 3)])
@pytest.mark.parametrize("kind,seed,prompt_len,eos_bias,max_new", DECODE_CASES)
@pytest.mark.parametrize("shared_past", [False, True])
def test_cached_decode_matches_recompute_oracle(monkeypatch, mode, beam_k, kind,
                                                seed, prompt_len, eos_bias, max_new,
                                                shared_past):
    params, seq = decode_fixture(kind, seed, prompt_len, eos_bias)
    want_calls, calls = [], []
    want = recompute_decode(seq, params, FCFG, mode, beam_k, max_new,
                            forward=recording(want_calls, lm_forward))
    past = prefix_cache(seq, seq.segment_start("prompt"), params, FCFG) \
        if shared_past else None
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    got = decode_answer(seq, params, FCFG, mode=mode, beam_k=beam_k,
                        max_new=max_new, past=past)
    assert got == want
    assert len(calls) == len(want_calls)
    for (_, a), (_, b) in zip(calls, want_calls):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-10)
    # Prefill of the rows past does not hold plus BOS, then one row per call.
    skipped = past.length if shared_past else 0
    assert [n for n, _ in calls] == [len(seq) - skipped + 1] + [1] * (len(calls) - 1)
    if eos_bias < 0 and mode == "greedy":
        assert len(got) < max_new  # the length cut-off ended the decode


def test_greedy_decode_runs_lm_once_per_generated_token(monkeypatch):
    params, seq = decode_fixture("slots", 27)
    calls = []
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    out = decode_answer(seq, params, FCFG, max_new=10)
    ended_at_eos = len(out) < 10
    assert len(calls) == len(out) + ended_at_eos


def test_decode_leaves_shared_past_unchanged():
    params, seq = decode_fixture("slots", 28)
    past = prefix_cache(seq, seq.segment_start("prompt"), params, FCFG)
    held = dict(past.kv)
    length = past.length
    first = decode_answer(seq, params, FCFG, mode="beam", beam_k=3, max_new=6,
                          past=past)
    assert past.length == length
    assert all(past.kv[name] is held[name] for name in held) and len(past.kv) == len(held)
    assert decode_answer(seq, params, FCFG, mode="beam", beam_k=3, max_new=6,
                         past=past) == first


def test_decode_rejects_past_longer_than_prefix():
    params, seq = decode_fixture("slots", 29)
    longer = build_input_sequence(*seq_parts(params, seed=29), [5, 6, 7, 8], params,
                                  FCFG)
    past = prefix_cache(longer, len(longer), params, FCFG)
    with pytest.raises(ContractError):
        decode_answer(seq, params, FCFG, past=past)


def test_pooled_feature_shape():
    params = make_params()
    img, _, _ = seq_parts(params)
    v = pooled_image_feature(img, params)
    assert v.shape == (16,)


def test_vocab_round_trip(tmp_path):
    vocab = Vocabulary.from_corpus(["the patient lies", "on the table"])
    assert vocab.tokens[:4] == list(V.RESERVED)
    ids = vocab.encode("the patient on table")
    assert vocab.decode(ids) == "the patient on table"
    path = tmp_path / "vocab.txt"
    vocab.save(str(path))
    loaded = Vocabulary.load(str(path))
    assert loaded.tokens == vocab.tokens
    with pytest.raises(DomainError):
        vocab.encode("zebra")
