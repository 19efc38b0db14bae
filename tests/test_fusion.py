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
    DecodeStream,
    FusionConfig,
    SlotLayout,
    answer_loss,
    build_fusion_params,
    build_input_sequence,
    decode_answer,
    lm_forward,
    pooled_image_feature,
    prefix_cache,
    project_image_tokens,
    project_pc_tokens,
    slot_layout,
)
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import ModelParams, mlp_forward
from ormllm.spatial import (
    SpatialBlockConfig,
    build_spatial_params,
    cell_centres,
    region_pool,
)
from ormllm.tensor import Tensor
from ormllm.vocab import Vocabulary

SCFG = SpatialBlockConfig(
    image_size=32, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
    depth_decoder_stages=2, seg_classes=3,
    pc_hidden=8, pc_feature_dim=8,
)
FCFG = FusionConfig(d_token=16, lm_layers=2, lm_heads=2, vocab_size=20,
                    max_seq_len=64, image_patch=8, pc_tokens=1)


# Slot layouts for seq_parts' 16 image, 3 region and 1 point tokens: the
# model's gapped one, and a packed one whose positions run in sequence order.
SLOTS = slot_layout(16, SCFG.seg_classes, FCFG.pc_tokens)
PACKED = SlotLayout(img_base=0, seg_base=16, pc_base=19, prompt_base=20)


def make_params(seed=0, variant="full", fcfg=FCFG):
    params = ModelParams()
    build_fusion_params(params, fcfg, SCFG, np.random.default_rng(seed), variant)
    return params


def rand_image(seed=0, size=32, ch=3):
    """One image as a batch of one, [1, size, size, ch]."""
    return np.random.default_rng(seed).uniform(0, 1, size=(1, size, size, ch))


def test_text_only_sequence_takes_the_prompt_slots_and_checks_ids():
    """With no image tokens the sequence is the prompt from
    layout.prompt_base and the answer right after it, whatever the
    variant; an id outside the vocabulary is a DomainError."""
    params = make_params()
    wte = params["lm.wte"].data
    seq = build_input_sequence(None, None, None, [4, 5, 6], params, FCFG,
                               answer_ids=[V.BOS, 7, V.EOS], layout=SLOTS)
    assert seq.prompt_start == 0 and len(seq) == 6
    assert seq.positions.tolist() == list(range(SLOTS.prompt_base, SLOTS.prompt_base + 6))
    assert np.array_equal(seq.tokens.data, wte[[4, 5, 6, V.BOS, 7, V.EOS]])
    assert seq.prompt_ids == (4, 5, 6)
    for prompt, answer in (([4, FCFG.vocab_size], None), ([4], [V.BOS, -1])):
        with pytest.raises(DomainError):
            build_input_sequence(None, None, None, prompt, params, FCFG,
                                 answer_ids=answer, layout=SLOTS)


def test_image_token_count():
    params = make_params()
    toks = project_image_tokens(rand_image(), params, FCFG)
    assert toks.shape == (1, 16, 16)  # (32/8)^2 tokens of width d_token


def test_image_tokens_patch_local():
    params = make_params()
    img1 = rand_image(1)
    img2 = img1.copy()
    img2[0, 8:16, 24:32] += 0.25  # exactly patch index 1*4+3=7
    t1 = project_image_tokens(img1, params, FCFG).data[0]
    t2 = project_image_tokens(img2, params, FCFG).data[0]
    diff = np.abs(t1 - t2).max(axis=1)
    assert diff[7] > 0
    assert (diff[np.arange(16) != 7] == 0).all()


def test_zero_image_zero_biases_all_tokens_equal():
    params = make_params()
    for name in params.names():
        if name.endswith(".b") and name.startswith("proj."):
            params[name].data[:] = 0.0
    toks = project_image_tokens(np.zeros((2, 32, 32, 3)), params, FCFG).data
    assert np.ptp(toks.reshape(-1, 16), axis=0).max() == 0.0


def test_indivisible_patch_error():
    params = make_params()
    with pytest.raises(ConfigurationError):
        project_image_tokens(np.zeros((1, 30, 30, 3)), params, FCFG)


def seg_tokens(params, maps, cells):
    """Region pooling plus the seg projection head, as the full variant runs
    them: one batch of id maps in, read at the cell centres, one token per
    (sample, region) out."""
    cell_ids = np.stack([m.reshape(-1)[cell_centres(SCFG)] for m in maps])
    feats, ids = region_pool(cell_ids, T.constant(cells), params, SCFG)
    return mlp_forward(feats, params, "proj.seg_head"), ids


def test_seg_tokens_one_per_region():
    params = make_params()
    build_spatial_params(params, SCFG, np.random.default_rng(1))
    rng = np.random.default_rng(4)
    three = np.ones((32, 32), dtype=int)
    three[:, 16:] = 2
    three[16:, :16] = 3
    one = np.full((32, 32), 2)
    for maps in ([three], [three, one], [one, three, three]):
        cells = rng.normal(size=(len(maps), SCFG.n_cells, 16))
        toks, ids = seg_tokens(params, maps, cells)
        assert [len(i) for i in ids] == [len(np.unique(m)) for m in maps]
        assert toks.shape == (sum(len(i) for i in ids), 16)


def test_identical_region_features_give_identical_tokens():
    params = make_params()
    build_spatial_params(params, SCFG, np.random.default_rng(1))
    ids = np.ones((32, 32), dtype=int)
    ids[:, 16:] = 2
    f = np.random.default_rng(5).normal(size=16)
    for B in (1, 3):
        cells = np.random.default_rng(6).normal(size=(B, SCFG.n_cells, 16))
        cells[0] = f  # every cell of sample 0, so both its regions pool to f
        toks, _ = seg_tokens(params, [ids] * B, cells)
        np.testing.assert_array_equal(toks.data[0], toks.data[1])


def test_pc_tokens_default_single_and_null_distinct():
    params = make_params()
    rng = np.random.default_rng(6)
    feat, other = Tensor(rng.normal(size=8)), Tensor(rng.normal(size=8))
    (toks,) = project_pc_tokens([feat], params, FCFG)
    assert toks.shape == (1, 16)
    head = lambda f: mlp_forward(T.stack([f], axis=0), params, "proj.pc_head").data
    np.testing.assert_array_equal(toks.data, head(feat))
    batch = project_pc_tokens([feat, None, other, None], params, FCFG)
    assert [t.shape for t in batch] == [(1, 16)] * 4
    np.testing.assert_allclose(batch[0].data, toks.data, atol=1e-12)
    np.testing.assert_allclose(batch[2].data, head(other), atol=1e-12)
    for null in (batch[1], batch[3], project_pc_tokens([None], params, FCFG)[0]):
        np.testing.assert_array_equal(null.data, params["proj.pc_null"].data)
        assert not np.array_equal(null.data, params["proj.seg_null"].data)
    (toks2,) = project_pc_tokens([Tensor(feat.data.copy())], params, FCFG)
    np.testing.assert_array_equal(toks.data, toks2.data)


def seq_parts(params, seed=7, n_regions=3):
    rng = np.random.default_rng(seed)
    img = T.slice_(project_image_tokens(rng.uniform(0, 1, (1, 32, 32, 3)), params,
                                        FCFG), 0)
    seg = mlp_forward(Tensor(rng.normal(size=(n_regions, 16))), params,
                      "proj.seg_head")
    (pc,) = project_pc_tokens([Tensor(rng.normal(size=8))], params, FCFG)
    return img, seg, pc


def test_build_sequence_lengths_and_segment_order():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, list(range(8)), params, FCFG, layout=SLOTS)
    assert len(seq) == 16 + 3 + 1 + 8 and seq.prompt_start == 16 + 3 + 1
    assert seq.positions.tolist() == (
        list(range(16)) + list(range(SLOTS.seg_base, SLOTS.seg_base + 3))
        + [SLOTS.pc_base] + list(range(SLOTS.prompt_base, SLOTS.prompt_base + 8)))


def test_build_sequence_no_seg_variant():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, list(range(8)), params, FCFG,
                               variant="no-seg", layout=SLOTS)
    assert len(seq) == 16 + 1 + 8 and seq.prompt_start == 16 + 1
    assert not ((seq.positions >= SLOTS.seg_base) & (seq.positions < SLOTS.pc_base)).any()


def test_build_sequence_rejects_bad_prompt_id():
    params = make_params()
    img, seg, pc = seq_parts(params)
    with pytest.raises(DomainError):
        build_input_sequence(img, seg, pc, [5, 99], params, FCFG, layout=SLOTS)


def test_build_sequence_overflow():
    params = make_params()
    img, seg, pc = seq_parts(params)
    with pytest.raises(SequenceLengthError):
        build_input_sequence(img, seg, pc, list(range(5)) * 12, params, FCFG,
                             layout=SLOTS)


def test_lm_logits_shape_and_softmax_rows():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, [1, 4, 5], params, FCFG, layout=SLOTS)
    logits = lm_forward(seq.tokens, params, FCFG, seq.positions)
    assert logits.shape == (len(seq), 20)
    p = T.softmax(logits).data
    np.testing.assert_allclose(p.sum(axis=1), np.ones(len(seq)), atol=1e-12)


def test_lm_causality_bitwise():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq1 = build_input_sequence(img, seg, pc, [1, 4, 5, 6], params, FCFG, layout=SLOTS)
    seq2 = build_input_sequence(img, seg, pc, [1, 4, 9, 8], params, FCFG, layout=SLOTS)
    l1 = lm_forward(seq1.tokens, params, FCFG, seq1.positions).data
    l2 = lm_forward(seq2.tokens, params, FCFG, seq2.positions).data
    j = len(seq1) - 2  # first changed position
    assert (l1[:j] == l2[:j]).all()
    assert not np.array_equal(l1[j:], l2[j:])


def test_lm_cached_chunks_match_full_forward():
    params = make_params()
    img, seg, pc = seq_parts(params)
    seq = build_input_sequence(img, seg, pc, [1, 4, 5, 6, 7], params, FCFG,
                               layout=SLOTS)
    full = lm_forward(seq.tokens, params, FCFG, positions=seq.positions).data
    cache = fusion.KVCache()
    with T.no_grad():
        parts = [lm_forward(T.slice_(seq.tokens, np.s_[a:b]), params, FCFG,
                            positions=seq.positions[a:b], cache=cache).data
                 for a, b in ((0, 20), (20, 21), (21, 25))]
    assert cache.length == len(seq)
    np.testing.assert_allclose(np.concatenate(parts), full, rtol=0, atol=1e-12)
    with T.no_grad(), pytest.raises(SequenceLengthError):
        lm_forward(Tensor(np.zeros((FCFG.max_seq_len - 24, 16))), params, FCFG,
                   positions=np.arange(25, FCFG.max_seq_len + 1), cache=cache)


@pytest.mark.parametrize("kind", ["sequence", "slots"])
@pytest.mark.parametrize("chunks", [(20, 4, 2), (25, 1), (26,)])
def test_lm_at_tail_rows_with_a_cache_equals_the_full_lm(kind, chunks):
    """Decode calls: each chunk after the cached rows runs the last block
    at its last one to three rows only, and those logits are the full
    forward's at the same rows."""
    params, seq = decode_fixture(kind, 32, prompt_len=6)
    full = lm_forward(seq.tokens, params, FCFG, seq.positions).data
    cache, start = fusion.KVCache(), 0
    with T.no_grad():
        for n in chunks:
            tail = np.arange(max(n - 3, 0), n)
            got = lm_forward(T.slice_(seq.tokens, np.s_[start:start + n]), params, FCFG,
                             positions=seq.positions[start:start + n], cache=cache,
                             rows=tail).data
            assert got.shape == (len(tail), FCFG.vocab_size)
            np.testing.assert_allclose(got, full[start + tail], rtol=0, atol=1e-12)
            start += n
    assert cache.length == len(seq)


@pytest.mark.parametrize("kind", ["sequence", "slots"])
def test_prefix_cache_keys_and_values_are_the_full_prefix_forwards(kind):
    """prefix_cache runs the last block at no row, yet holds the bytes
    of every block's keys and values that the full prefix forward forms."""
    params, seq = decode_fixture(kind, 33, prompt_len=4)
    rows = seq.prompt_start
    full = fusion.KVCache()
    with T.no_grad():
        lm_forward(T.slice_(seq.tokens, np.s_[:rows]), params, FCFG,
                   positions=seq.positions[:rows], cache=full)
    got = prefix_cache(seq, rows, params, FCFG)
    assert got.length == full.length == rows
    assert got.kv.keys() == full.kv.keys() and len(got.kv) == FCFG.lm_layers
    for name, (k, v) in full.kv.items():
        assert got.kv[name][0].tobytes() == k.tobytes(), name
        assert got.kv[name][1].tobytes() == v.tobytes(), name


def test_decode_runs_the_lm_head_at_the_draft_rows_only(monkeypatch):
    """Every decode call asks for, and gets, logits at its last
    len(draft) + 1 rows: the last chosen id and the draft after it."""
    params, seq = decode_fixture("slots", 34, prompt_len=3)
    calls = []

    def recording_rows(tokens, *args, rows=None, **kwargs):
        out = lm_forward(tokens, *args, rows=rows, **kwargs)
        calls.append((tokens.shape[-2], rows, out.shape))
        return out

    monkeypatch.setattr(fusion, "lm_forward", recording_rows)
    stream = DecodeStream()
    first = decode_answer([seq], params, FCFG, max_new=12, stream=stream)
    assert decode_answer([seq], params, FCFG, max_new=12, stream=stream) == first
    assert any(rows.shape[-1] > 1 for _, rows, _ in calls)  # a draft was verified
    for n, rows, shape in calls:
        k = rows.shape[-1]
        assert rows.tolist() == [list(range(n - k, n))]
        assert shape == (1, k, FCFG.vocab_size)


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
        seq = build_input_sequence(img, seg, pc, [V.BOS, 4, 5, 6], params, FCFG,
                                   layout=SLOTS)
        return answer_loss(lm_forward(seq.tokens, params, FCFG, seq.positions),
                           target_full, mask)

    names = [n for n in params.names() if n.startswith("lm.") or n == "fusion.pos_embed"]
    reports = finite_diff_grad_check(f, params, tol=1e-4, coords_per_tensor=8,
                                     names=names)
    bad = [(r.name, r.max_rel_error) for r in reports if not r.passed]
    assert not bad, bad


def decode_setup(seed=11):
    params = make_params(seed=seed)
    img, seg, pc = seq_parts(params, seed=seed)
    seq = build_input_sequence(img, seg, pc, [V.BOS, 5], params, FCFG, layout=SLOTS)
    return params, seq


def test_decode_deterministic():
    params, seq = decode_setup(12)
    a = decode_answer([seq], params, FCFG, max_new=6)
    b = decode_answer([seq], params, FCFG, max_new=6)
    assert a == b


def test_decode_max_new_zero_empty():
    params, seq = decode_setup(13)
    assert decode_answer([seq], params, FCFG, max_new=0) == [[]]


def test_decode_eos_first_gives_empty_answer():
    params, seq = decode_setup(14)
    # Force EOS to dominate every logit row via the output head bias.
    params["lm.out.b"].data[:] = -50.0
    params["lm.out.b"].data[V.EOS] = 50.0
    assert decode_answer([seq], params, FCFG, max_new=8) == [[]]


def test_decode_stops_at_eos_and_strips_it():
    params, seq = decode_setup(15)
    out, = decode_answer([seq], params, FCFG, max_new=10)
    assert V.EOS not in out and len(out) <= 10


def recompute_decode(seq_prefix, params, cfg, max_new=16, forward=lm_forward):
    """Reference greedy decoder: re-runs the LM over the whole prefix for
    every new token, with no K/V cache."""
    ids = []
    with T.no_grad():
        wte = params["lm.wte"].data
        rows = np.concatenate([seq_prefix.tokens.data, wte[V.BOS][None]], axis=0)
        pos = np.append(seq_prefix.positions, seq_prefix.next_position())
        while len(ids) < max_new:
            logits = forward(Tensor(rows), params, cfg, positions=pos).data[-1]
            tok = int(np.argmax(logits))  # the first maximum: ties go to the smaller id
            ids.append(tok)
            # EOS, or a token whose slot lies outside the table, ends the decode.
            if tok == V.EOS or pos[-1] + 1 >= cfg.max_seq_len:
                break
            rows = np.concatenate([rows, wte[tok][None]], axis=0)
            pos = np.append(pos, pos[-1] + 1)
    return ids[:-1] if ids and ids[-1] == V.EOS else ids


def decode_fixture(kind, seed, prompt_len=2, eos_bias=0.0):
    """Random-parameter prefixes: the model's slot layout (gapped positions)
    or the packed one (sequence positions)."""
    params = make_params(seed=seed)
    params["lm.out.b"].data[V.EOS] += eos_bias
    img, seg, pc = seq_parts(params, seed=seed)
    prompt = [int(t) for t in np.random.default_rng(seed).integers(4, 20, prompt_len)]
    layout = SLOTS if kind == "slots" else PACKED
    seq = build_input_sequence(img, seg, pc, prompt, params, FCFG, layout=layout,
                               seg_class_ids=[1, 2, 3])
    return params, seq


def recording(calls, forward):
    """`forward` that also appends (rows run, their logits) per call; a
    batch of one is recorded as its one entry."""
    def wrapped(seq, *args, **kwargs):
        out = forward(seq, *args, **kwargs)
        rows, logits = seq.data.copy(), out.data.copy()
        if rows.ndim == 3 and len(rows) == 1:
            rows, logits = rows[0], logits[0]
        calls.append((rows, logits))
        return out
    return wrapped


def reference_draft(history, stream, limit):
    """The draft lookup by brute force: for each suffix width of the history
    from CONTEXT down, the ids after the latest occurrence of that suffix
    with a successor, earlier in the history first, then in the stream, up
    to the first EOS."""
    for width in range(min(fusion.CONTEXT, len(history)), 0, -1):
        tail = history[-width:]
        for text in (history, stream):
            starts = [i for i in range(len(text) - width) if text[i:i + width] == tail]
            if starts:
                draft = []
                for tok in text[starts[-1] + width:starts[-1] + width + limit]:
                    draft.append(tok)
                    if tok == V.EOS:
                        break
                return draft
    return []


def check_greedy_calls(seq, params, max_new, skipped, calls, want_calls, stream=()):
    """Replays the draft-and-verify contract against the recompute oracle's
    steps. Each call runs the prefix rows not yet run (first call only), the
    last chosen token and the lookup draft from `stream` (the ids of earlier
    decodes) and the history, and nothing else; the rows up to the first
    rejected draft id have the oracle's logits for their steps. Returns the
    history at the end: prompt, BOS and the oracle's ids, EOS included."""
    steps = [logits[-1] for _, logits in want_calls]
    chosen = [int(np.argmax(s)) for s in steps]  # the oracle's ids, EOS included
    wte = params["lm.wte"].data
    bos_pos = seq.next_position()
    history = list(seq.prompt_ids) + [V.BOS]
    stream = list(stream)
    n = 0
    for c, (rows, logits) in enumerate(calls):
        assert n < len(chosen)
        limit = min(fusion.DRAFT, max_new - n - 1, FCFG.max_seq_len - 1 - bos_pos - n)
        draft = reference_draft(history, stream, limit)
        fresh = len(seq) - skipped if c == 0 else 0
        assert len(rows) == fresh + 1 + len(draft)
        assert np.array_equal(rows[len(rows) - len(draft):], wte[draft])
        accepted = 0
        while (accepted < len(draft) and n + accepted < len(chosen)
               and draft[accepted] == chosen[n + accepted]):
            accepted += 1
        made = min(accepted + 1, len(chosen) - n)
        verified = logits[len(logits) - len(draft) - 1:]
        for j in range(made):
            np.testing.assert_allclose(verified[j], steps[n + j], rtol=0, atol=1e-10)
        history += chosen[n:n + made]
        n += made
    assert n == len(chosen)
    return history


def test_draft_is_the_brute_force_longest_suffix_match():
    # Three-id alphabets make long matches, overlaps and equal-length
    # matches in both sources common; half of them hold EOS (id 2).
    rng = np.random.default_rng(0)
    for case in range(400):
        ids = (0, 3) if case % 2 else (3, 6)
        history = rng.integers(*ids, rng.integers(1, 40)).tolist()
        stream = rng.integers(*ids, rng.integers(0, 60)).tolist()
        if rng.random() < 0.3:  # a long suffix of the history recurs
            stream += history[-int(rng.integers(1, len(history) + 1)):] + [7, 8]
        limit = int(rng.integers(0, 10))
        got = fusion._draft(np.array(history), stream_of(stream, rng), limit)
        assert got == reference_draft(history, stream, limit), (history, stream, limit)
    # Matches longer than CONTEXT count as CONTEXT ids: the history's
    # earlier p (CONTEXT ids) ties the stream's 8 + p and its p, and wins.
    p = rng.integers(3, 6, fusion.CONTEXT).tolist()
    history = [9] + p + [8] + p
    for stream in ([4, 8] + p + [7], [4] + p + [7]):
        got = fusion._draft(np.array(history), stream_of(stream, rng), 2)
        assert got == reference_draft(history, stream, 2) == [8, p[0]]


def stream_of(ids, rng) -> DecodeStream:
    """A DecodeStream holding `ids`, appended in random chunks."""
    stream = DecodeStream()
    cuts = np.sort(rng.integers(0, len(ids) + 1, 3))
    for chunk in np.split(np.array(ids, dtype=np.int64), cuts):
        stream.append(chunk)
    return stream


DECODE_CASES = [
    # (positions, seed, prompt length, EOS logit bias, max_new); the -50
    # bias keeps EOS away so that the max_seq_len cut-off ends the decode,
    # and the +5 bias makes EOS the first id.
    ("slots", 21, 2, 0.0, 10),        # EOS after 3
    ("slots", 22, 2, -50.0, 20),      # slot 63 is the last: cut-off after 13
    ("slots", 25, 4, 0.0, 10),
    ("slots", 27, 1, 0.0, 1),         # one id: one call, no draft
    ("slots", 28, 6, 0.0, 2),
    ("slots", 29, 3, 5.0, 10),        # empty answer
    ("slots", 30, 12, -50.0, 30),     # cut-off after 3
    ("slots", 31, 2, 0.0, 16),
    ("slots", 32, 15, -50.0, 5),      # BOS in slot 63: one id, no draft
    ("sequence", 23, 3, 0.0, 10),
    ("sequence", 24, 35, -50.0, 20),  # 55 rows + BOS: cut-off after 8
    ("sequence", 26, 35, -50.0, 12),
    ("sequence", 33, 1, 0.0, 1),
    ("sequence", 34, 5, 0.0, 3),
    ("sequence", 35, 2, 5.0, 10),     # empty answer
    ("sequence", 36, 43, -50.0, 5),   # 63 rows: BOS in the last slot
    ("sequence", 37, 8, 0.0, 16),
    ("sequence", 38, 20, -50.0, 30),  # cut-off after 23
]


def earlier_decodes(kind, seq, params, max_new, past, want):
    """A stream for the decode under test, and the number of LM calls the
    same greedy decode makes with an empty stream. "repeat" holds that
    decode's own earlier output; "adversarial" holds random ids and, after
    each prefix of the history the decode will have, a wrong next id."""
    stream, calls = DecodeStream(), []
    if kind == "repeat":
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fusion, "lm_forward", recording(calls, lm_forward))
            decode_answer([seq], params, FCFG, max_new=max_new, past=past, stream=stream)
    elif kind == "adversarial":
        rng = np.random.default_rng(len(want))
        history = list(seq.prompt_ids) + [V.BOS] + want
        stream.append(rng.integers(0, FCFG.vocab_size, 100))
        for n in range(len(seq.prompt_ids) + 1, len(history)):
            stream.append(history[:n] + [(history[n] + 1) % FCFG.vocab_size])
    return stream, len(calls)


@pytest.mark.parametrize("kind,seed,prompt_len,eos_bias,max_new", DECODE_CASES)
@pytest.mark.parametrize("shared_past", [False, True])
def test_cached_decode_matches_recompute_oracle(monkeypatch, kind, seed, prompt_len,
                                                eos_bias, max_new, shared_past):
    check_cached_decode(monkeypatch, kind, seed, prompt_len, eos_bias, max_new,
                        shared_past, earlier=None)


@pytest.mark.parametrize("kind,seed,prompt_len,eos_bias,max_new", DECODE_CASES)
@pytest.mark.parametrize("shared_past", [False, True])
@pytest.mark.parametrize("earlier", ["repeat", "adversarial"])
def test_cached_decode_after_earlier_decodes_matches_recompute_oracle(
        monkeypatch, kind, seed, prompt_len, eos_bias, max_new, shared_past, earlier):
    check_cached_decode(monkeypatch, kind, seed, prompt_len, eos_bias, max_new,
                        shared_past, earlier)


def check_cached_decode(monkeypatch, kind, seed, prompt_len, eos_bias, max_new,
                        shared_past, earlier):
    """The decode equals the recompute oracle, makes exactly the calls of
    the draft contract with `earlier` decodes in its stream (None: no
    stream), and appends its history to the stream once."""
    params, seq = decode_fixture(kind, seed, prompt_len, eos_bias)
    want_calls, calls = [], []
    want = recompute_decode(seq, params, FCFG, max_new,
                            forward=recording(want_calls, lm_forward))
    past = prefix_cache(seq, seq.prompt_start, params, FCFG) \
        if shared_past else None
    stream, empty_stream_calls = None, 0
    if earlier:
        stream, empty_stream_calls = earlier_decodes(earlier, seq, params, max_new, past,
                                                     want)
    before = [] if stream is None else stream.ids().tolist()
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    got, = decode_answer([seq], params, FCFG, max_new=max_new, past=past, stream=stream)
    assert got == want
    skipped = past.length if shared_past else 0
    history = check_greedy_calls(seq, params, max_new, skipped, calls, want_calls, before)
    if stream is not None:  # the decode appended its history once
        assert stream.ids().tolist() == before + history
    if earlier == "repeat" and len(want_calls) > 1:
        assert len(calls) < empty_stream_calls
    if eos_bias < 0:
        assert len(got) < max_new  # the length cut-off ended the decode


def batch_fixture(kind, seed, prompt_len, eos_bias=0.0):
    """decode_fixture's prefix and two more prompts of other lengths after
    the same modality rows, in the order shorter, the case's, longer (at
    most the longest prompt whose BOS has a slot)."""
    params, seq = decode_fixture(kind, seed, prompt_len, eos_bias)
    layout = SLOTS if kind == "slots" else PACKED
    longest = FCFG.max_seq_len - 1 - layout.prompt_base
    rng = np.random.default_rng(seed + 100)
    lengths = [1 + prompt_len // 2 if prompt_len > 2 else prompt_len + 3,
               min(prompt_len + 2, longest)]
    parts = seq_parts(params, seed=seed)
    shorter, longer = (
        build_input_sequence(*parts, rng.integers(4, 20, n).tolist(), params, FCFG,
                             layout=layout, seg_class_ids=[1, 2, 3])
        for n in lengths)
    return params, [shorter, seq, longer]


@pytest.mark.parametrize("kind,seed,prompt_len,eos_bias,max_new", DECODE_CASES)
@pytest.mark.parametrize("shared_past", [False, True])
def test_batched_decode_matches_recompute_oracle_and_single_decodes(
        monkeypatch, kind, seed, prompt_len, eos_bias, max_new, shared_past):
    """Prompts of different lengths decoded in one call: each gets the
    recompute oracle's ids and its batch-of-one decode's ids, although the
    stream differs. The first LM call runs all of them as one padded
    batch, later calls one prompt each, and the stream then holds each
    prompt's history in prompt order."""
    params, seqs = batch_fixture(kind, seed, prompt_len, eos_bias)
    assert len({len(seq) for seq in seqs}) > 1
    want = [recompute_decode(seq, params, FCFG, max_new) for seq in seqs]
    past = prefix_cache(seqs[0], seqs[0].prompt_start, params, FCFG) \
        if shared_past else None
    alone, histories = [], []
    for seq in seqs:
        own = DecodeStream()
        alone += decode_answer([seq], params, FCFG, max_new=max_new, past=past,
                               stream=own)
        histories += own.ids().tolist()
    stream = DecodeStream()
    stream.append([3, 5, 6])
    calls = []
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    got = decode_answer(seqs, params, FCFG, max_new=max_new, past=past, stream=stream)
    assert got == alone == want
    assert calls[0][0].shape[0] == 3
    assert all(rows.ndim == 2 for rows, _ in calls[1:])  # a batch of one each
    assert stream.ids().tolist() == [3, 5, 6] + histories


# A cycle model whose answer is 5, 6, 7 after any prompt, and an earlier
# decode in the stream, from which every prompt drafts that whole answer.
STOPS = {V.BOS: 5, 5: 6, 6: 7, 7: V.EOS, 8: 8, 9: 9}
EARLIER = [9, V.BOS, 5, 6, 7, V.EOS]


@pytest.mark.parametrize("max_new,expected", [
    (10, [5, 6, 7]),  # EOS inside the first call's draft, accepted
    (2, [5, 6]),      # max_new reached inside the first call
    (0, []),          # nothing runs
])
@pytest.mark.parametrize("shared_past", [False, True])
def test_batched_decode_can_end_every_prompt_in_the_first_call(
        monkeypatch, max_new, expected, shared_past):
    params, seq = cycle_fixture("slots", [9], STOPS)
    parts = seq_parts(params, seed=30)
    seqs = [seq] + [build_input_sequence(*parts, prompt, params, FCFG, layout=SLOTS,
                                         seg_class_ids=[1, 2, 3])
                    for prompt in ([8, 9, 8], [5, 6, 7, 8, 9])]
    past = prefix_cache(seq, seq.prompt_start, params, FCFG) \
        if shared_past else None
    assert all(recompute_decode(s, params, FCFG, max_new) == expected for s in seqs)
    stream = DecodeStream()
    stream.append(EARLIER)
    calls = []
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    got = decode_answer(seqs, params, FCFG, max_new=max_new, past=past, stream=stream)
    assert got == [expected] * 3
    assert len(calls) == (1 if max_new else 0)
    if calls:
        assert calls[0][0].shape[0] == 3
    ended = [V.EOS] if expected == [5, 6, 7] else []
    histories = [list(s.prompt_ids) + [V.BOS] + expected + ended for s in seqs]
    assert stream.ids().tolist() == EARLIER + (sum(histories, []) if max_new else [])


@pytest.mark.parametrize("failing_call", [1, 2])
def test_batched_decode_that_raises_leaves_stream_unchanged(monkeypatch, failing_call):
    """A call fails in its batched first LM call (one prompt leaves BOS no
    slot) or in a later one, after every prompt has chosen ids: the stream
    is as before."""
    params, seq = decode_fixture("sequence", 27, prompt_len=35, eos_bias=-50.0)
    parts = seq_parts(params, seed=27)
    other = build_input_sequence(*parts, [5, 6, 7], params, FCFG, layout=PACKED,
                                 seg_class_ids=[1, 2, 3])
    stream = DecodeStream()
    stream.append([3, 5, 6, 7])
    if failing_call == 1:
        # 64 rows fill the table, so this prompt's BOS has no positional slot.
        seq = decode_fixture("sequence", 27, prompt_len=44)[1]
    else:
        calls = []

        def forward(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call:
                raise SequenceLengthError("injected")
            return lm_forward(*args, **kwargs)
        monkeypatch.setattr(fusion, "lm_forward", forward)
    with pytest.raises(SequenceLengthError):
        decode_answer([other, seq], params, FCFG, max_new=10, stream=stream)
    assert stream.ids().tolist() == [3, 5, 6, 7]


@pytest.mark.parametrize("failing_call", [1, 2])
def test_decode_that_raises_leaves_stream_unchanged(monkeypatch, failing_call):
    params, seq = decode_fixture("sequence", 27, prompt_len=35, eos_bias=-50.0)
    stream = DecodeStream()
    stream.append([3, 5, 6, 7])
    if failing_call == 1:
        # 64 rows fill the table, so BOS has no positional slot.
        seq = decode_fixture("sequence", 27, prompt_len=44)[1]
    else:
        calls = []

        def forward(*args, **kwargs):
            calls.append(None)
            if len(calls) == failing_call:
                raise SequenceLengthError("injected")
            return lm_forward(*args, **kwargs)
        monkeypatch.setattr(fusion, "lm_forward", forward)
    with pytest.raises(SequenceLengthError):
        decode_answer([seq], params, FCFG, max_new=10, stream=stream)
    assert stream.ids().tolist() == [3, 5, 6, 7]


def cycle_fixture(kind, prompt, next_of, seed=30):
    """An LM whose greedy choice is next_of[current id]: the blocks add
    nothing to the residual stream (zero output projections), each used id
    embeds as a large one-hot row, and lm.out maps that row to its
    successor. Repeating output makes lookup drafts hit."""
    params = make_params(seed=seed)
    for i in range(FCFG.lm_layers):
        for name in ("attn.wo.w", "attn.wo.b", "mlp.fc2.w", "mlp.fc2.b"):
            params[f"lm.blocks.{i}.{name}"].data[:] = 0.0
    wte = params["lm.wte"].data
    wte[:] = 0.0
    wte[:FCFG.d_token] = 10.0 * np.eye(FCFG.d_token)
    params["lm.out.w"].data[:] = 0.0
    params["lm.out.b"].data[:] = 0.0
    for cur, nxt in next_of.items():
        params["lm.out.w"].data[cur, nxt] = 1.0
    img, seg, pc = seq_parts(params, seed=seed)
    layout = SLOTS if kind == "slots" else PACKED
    seq = build_input_sequence(img, seg, pc, prompt, params, FCFG, layout=layout,
                               seg_class_ids=[1, 2, 3])
    return params, seq


CYCLE = {V.BOS: 5, 5: 6, 6: 7, 7: 5}
CYCLE_CASES = [
    # (positions, prompt, successor map, max_new, expected ids)
    # Empty drafts until 5 repeats, then a whole draft plus the bonus id;
    # max_new cuts the last draft short.
    ("slots", [9], {**CYCLE, 9: 9}, 11, [5, 6, 7] * 3 + [5, 6]),
    # The prompt drafts 6, 9 after 5: 6 is accepted, 9 rejected for 7.
    ("slots", [5, 6, 9], {V.BOS: 5, 5: 6, 6: 7, 7: 8, 8: V.EOS, 9: 5}, 10,
     [5, 6, 7, 8]),
    # EOS is itself a draft id (after 6 in the prompt) and is accepted.
    ("sequence", [5, 6, V.EOS, 9], {V.BOS: 5, 5: 6, 6: V.EOS, 9: 9}, 10, [5, 6]),
    # EOS is the choice at the first mismatch, after two accepted ids.
    ("sequence", [5, 6, 7, 8], {V.BOS: 5, 5: 6, 6: 7, 7: V.EOS, 8: 8}, 10, [5, 6, 7]),
    # The last slot (63) falls inside a draft: BOS sits at 55, so the ninth
    # id, whose slot would be 64, ends the decode.
    ("sequence", [5, 6, 7] * 11 + [5, 6], CYCLE, 30, [5, 6, 7] * 3),
]


@pytest.mark.parametrize("kind,prompt,next_of,max_new,expected", CYCLE_CASES)
@pytest.mark.parametrize("shared_past", [False, True])
def test_greedy_draft_and_verify_on_cycling_output(monkeypatch, kind, prompt, next_of,
                                                   max_new, expected, shared_past):
    params, seq = cycle_fixture(kind, prompt, next_of)
    want_calls, calls = [], []
    want = recompute_decode(seq, params, FCFG, max_new=max_new,
                            forward=recording(want_calls, lm_forward))
    assert want == expected
    past = prefix_cache(seq, seq.prompt_start, params, FCFG) \
        if shared_past else None
    monkeypatch.setattr(fusion, "lm_forward", recording(calls, lm_forward))
    assert decode_answer([seq], params, FCFG, max_new=max_new, past=past) == [want]
    check_greedy_calls(seq, params, max_new, past.length if shared_past else 0,
                       calls, want_calls)
    assert len(calls) < len(want_calls)  # some draft was accepted


def test_exact_logit_tie_decodes_to_smaller_id():
    params, seq = decode_setup(17)
    params["lm.out.w"].data[:] = 0.0
    params["lm.out.b"].data[:] = 0.0
    params["lm.out.b"].data[[4, 11]] = 3.0
    assert decode_answer([seq], params, FCFG, max_new=5) == [[4] * 5]


def test_cache_truncate_leaves_source_and_shared_past_unchanged():
    params, seq = decode_fixture("slots", 31, prompt_len=5)
    past = prefix_cache(seq, seq.prompt_start, params, FCFG)
    held = {name: (k.copy(), v.copy()) for name, (k, v) in past.kv.items()}
    cache = past.copy()
    rest = seq.tokens.data[past.length:]
    with T.no_grad():
        lm_forward(Tensor(rest), params, FCFG, positions=seq.positions[past.length:],
                   cache=cache)
    grown = {name: (k.copy(), v.copy()) for name, (k, v) in cache.kv.items()}
    arrays = dict(cache.kv)
    cache.truncate(past.length + 1)
    assert cache.length == past.length + 1
    for name, (k, v) in cache.kv.items():
        assert np.array_equal(k, grown[name][0][:, :, :past.length + 1])
        assert np.array_equal(v, grown[name][1][:, :, :past.length + 1])
        # The arrays the cache held before are sliced, never written.
        assert np.array_equal(arrays[name][0], grown[name][0])
        assert np.array_equal(arrays[name][1], grown[name][1])
        assert np.array_equal(past.kv[name][0], held[name][0])
        assert np.array_equal(past.kv[name][1], held[name][1])
    assert past.length == seq.prompt_start
    # Rows run after the truncation see exactly the rows kept.
    with T.no_grad():
        after = lm_forward(Tensor(rest[2:]), params, FCFG,
                           positions=seq.positions[past.length + 2:], cache=cache).data
    keep = np.r_[0:past.length + 1, past.length + 2:len(seq)]
    full = lm_forward(Tensor(seq.tokens.data[keep]), params, FCFG,
                      positions=seq.positions[keep]).data
    np.testing.assert_allclose(after, full[past.length + 1:], rtol=0, atol=1e-12)
    with pytest.raises(ContractError):
        cache.truncate(cache.length + 1)


def test_decode_leaves_shared_past_unchanged():
    params, seq = decode_fixture("slots", 28)
    past = prefix_cache(seq, seq.prompt_start, params, FCFG)
    held = dict(past.kv)
    length = past.length
    first = decode_answer([seq], params, FCFG, max_new=6, past=past)
    assert past.length == length
    assert all(past.kv[name] is held[name] for name in held) and len(past.kv) == len(held)
    assert decode_answer([seq], params, FCFG, max_new=6, past=past) == first


def test_decode_rejects_past_longer_than_prefix():
    params, seq = decode_fixture("slots", 29)
    longer = build_input_sequence(*seq_parts(params, seed=29), [5, 6, 7, 8], params,
                                  FCFG, layout=SLOTS)
    past = prefix_cache(longer, len(longer), params, FCFG)
    with pytest.raises(ContractError):
        decode_answer([seq], params, FCFG, past=past)


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
