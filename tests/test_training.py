import gc
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ormllm import tensor as T
from ormllm import training
from ormllm import vocab as V
from ormllm.errors import (
    ConfigurationError,
    ContractError,
    EmptyDomainError,
    NumericError,
)
from ormllm.fusion import FusionConfig, answer_loss, build_input_sequence, lm_forward
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.metrics import parse_triples
from ormllm.model import Model, ModelConfig
from ormllm.nn import ModelParams
from ormllm.scenegen import build_dataset, triples_to_text
from ormllm.spatial import SpatialBlockConfig, depth_loss, seg_loss
from ormllm.tensor import Tensor
from ormllm.training import (
    AdamWState,
    TrainConfig,
    _answer_targets,
    _batch_stage1,
    _batch_stage2,
    _pad_stack,
    apply_stage_mask,
    contrastive_loss,
    lr_at_step,
    make_stage1_records,
    make_stage2_records,
    optimizer_step,
    stage2_loss,
    stage_mask,
    train_stage,
)
from ormllm.variants import variant_spec

# ---------------------------------------------------------------------------
# contrastive loss
# ---------------------------------------------------------------------------


def test_contrastive_single_pair_exactly_zero():
    v = Tensor(np.array([[1.0, 2.0, 3.0]]))
    t = Tensor(np.array([[0.5, -1.0, 2.0]]))
    assert float(contrastive_loss(v, t, 0.07).data) == 0.0


def test_contrastive_hand_case_orthonormal():
    # sim(v_i,t_i)=1, sim(v_i,t_j)=0 at tau=1: loss = ln(1 + e^-1).
    v = Tensor(np.eye(2))
    t = Tensor(np.eye(2))
    got = float(contrastive_loss(v, t, 1.0).data)
    want = np.log(1.0 + np.exp(-1.0))
    np.testing.assert_allclose(got, want, atol=1e-12)
    assert abs(got - 0.3133) < 1e-3


def test_contrastive_scale_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(4, 6))
    t = rng.normal(size=(4, 6))
    base = float(contrastive_loss(Tensor(v), Tensor(t), 0.07).data)
    scales = rng.uniform(0.1, 10.0, size=(4, 1))
    scaled = float(contrastive_loss(Tensor(v * scales), Tensor(t * 3.0), 0.07).data)
    np.testing.assert_allclose(scaled, base, atol=1e-12)


def brute_force_infonce(v, t, tau):
    """Explicit N x N similarity matrix with explicit log-sum-exp."""
    n = len(v)
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    sims = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            sims[i, j] = float(vn[i] @ tn[j]) / tau
    total = 0.0
    for i in range(n):
        total += np.log(np.exp(sims[i]).sum()) - sims[i, i]
    return total / n


def test_contrastive_matches_brute_force():
    rng = np.random.default_rng(1)
    for n in (1, 2, 3, 5, 8):
        v = rng.normal(size=(n, 7))
        t = rng.normal(size=(n, 7))
        got = float(contrastive_loss(Tensor(v), Tensor(t), 0.07).data)
        np.testing.assert_allclose(got, brute_force_infonce(v, t, 0.07), atol=1e-12)


def test_contrastive_zero_norm_error():
    v = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    t = Tensor(np.ones((2, 2)))
    with pytest.raises(NumericError):
        contrastive_loss(v, t, 0.07)


def test_contrastive_gradcheck():
    # Feature width 16 keeps random cosines moderate so the tau-scaled
    # softmax is not saturated; saturated rows have near-zero analytic
    # gradients that central differences cannot resolve.
    params = ModelParams()
    rng = np.random.default_rng(2)
    params.add("v", rng.normal(size=(3, 16)))
    params.add("t", rng.normal(size=(3, 16)))
    f = lambda: contrastive_loss(params["v"], params["t"], 0.07)
    reports = finite_diff_grad_check(f, params, tol=1e-4)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


def infonce_rows_without_same_sample(v, t, tau, ids):
    """Each row's InfoNCE, with the columns of the row's own sample other
    than its own deleted from the similarity row."""
    vn = v / np.linalg.norm(v, axis=1, keepdims=True)
    tn = t / np.linalg.norm(t, axis=1, keepdims=True)
    rows = []
    for i in range(len(v)):
        drop = [j for j in range(len(v)) if j != i and ids[j] == ids[i]]
        sims = np.delete(vn[i] @ tn.T / tau, drop)
        own = i - sum(j < i for j in drop)
        rows.append(np.log(np.exp(sims).sum()) - sims[own])
    return np.array(rows)


@pytest.mark.parametrize("ids", [[0, 0, 1], [3, 1, 3, 3, 2, 1], [0, 1, 2, 3], [7, 7]])
def test_contrastive_skips_same_sample_negatives(ids):
    """With two records of one sample in the batch, each row's loss is
    InfoNCE with that row's same-sample columns removed: the mean agrees,
    and so does each row's gradient with respect to its image feature, the
    one row it enters."""
    rng = np.random.default_rng(len(ids))
    n = len(ids)
    v, t = rng.normal(size=(n, 6)), rng.normal(size=(n, 6))
    rows = infonce_rows_without_same_sample(v, t, 0.5, ids)
    vt = Tensor(v.copy(), requires_grad=True)
    loss = contrastive_loss(vt, Tensor(t), 0.5, sample_ids=ids)
    np.testing.assert_allclose(float(loss.data), rows.mean(), rtol=0, atol=1e-12)
    T.backward(loss)
    h = 1e-6
    for i in range(n):
        for d in range(6):
            up, down = v.copy(), v.copy()
            up[i, d] += h
            down[i, d] -= h
            numeric = (infonce_rows_without_same_sample(up, t, 0.5, ids)[i]
                       - infonce_rows_without_same_sample(down, t, 0.5, ids)[i]) / (2 * h)
            np.testing.assert_allclose(n * vt.grad[i, d], numeric, rtol=1e-6, atol=1e-8)


def test_contrastive_one_sample_batch_is_exactly_zero():
    rng = np.random.default_rng(3)
    v, t = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))
    assert float(contrastive_loss(v, t, 0.07, sample_ids=[5, 5, 5]).data) == 0.0
    with pytest.raises(ContractError):
        contrastive_loss(v, t, 0.07, sample_ids=[5, 5])


def test_contrastive_gradcheck_with_same_sample_records():
    params = ModelParams()
    rng = np.random.default_rng(4)
    params.add("v", rng.normal(size=(4, 16)))
    params.add("t", rng.normal(size=(4, 16)))
    f = lambda: contrastive_loss(params["v"], params["t"], 0.07, sample_ids=[0, 1, 0, 2])
    reports = finite_diff_grad_check(f, params, tol=1e-4)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


# ---------------------------------------------------------------------------
# composite loss and schedule
# ---------------------------------------------------------------------------


def test_stage2_loss_arithmetic():
    assert float(stage2_loss(T.constant(2.0), T.constant(1.0), 0.1).data) == 2.1
    assert float(stage2_loss(T.constant(3.0), T.constant(9.9), 0.0).data) == 3.0
    assert float(stage2_loss(T.constant(1.5), T.constant(0.0), 1.0).data) == 1.5


def test_lr_schedule_endpoints():
    cfg = TrainConfig(warmup_steps=10)
    assert lr_at_step(0, 100, cfg, 0.5) == 0.0
    assert lr_at_step(10, 100, cfg, 0.5) == 0.5
    assert abs(lr_at_step(100, 100, cfg, 0.5)) < 1e-12


def test_lr_schedule_continuous_and_nonnegative():
    cfg = TrainConfig(warmup_steps=7)
    rates = [lr_at_step(s, 50, cfg, 1.0) for s in range(51)]
    assert all(r >= 0 for r in rates)
    jumps = np.abs(np.diff(rates))
    assert jumps.max() < 0.2


def test_lr_schedule_errors():
    cfg = TrainConfig(warmup_steps=5)
    with pytest.raises(ConfigurationError):
        lr_at_step(0, 0, cfg, 1.0)
    with pytest.raises(ConfigurationError):
        lr_at_step(0, 5, cfg, 1.0)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def one_param(value, trainable=True):
    params = ModelParams()
    params.add("w", np.array([value]), trainable=trainable)
    return params


def test_adamw_first_step_hand_case():
    params = one_param(1.0)
    params["w"].grad = np.array([1.0])
    cfg = TrainConfig(weight_decay=0.0)
    optimizer_step(params, AdamWState(), cfg, lambda name: 0.1)
    # Bias-corrected first step: m_hat = g, v_hat = g^2, update = g/(|g|+eps).
    np.testing.assert_allclose(params["w"].data, [1.0 - 0.1 / (1 + 1e-8)], atol=1e-15)


def test_adamw_zero_grad_no_decay_unchanged():
    params = one_param(2.5)
    params["w"].grad = np.zeros(1)
    cfg = TrainConfig(weight_decay=0.0)
    optimizer_step(params, AdamWState(), cfg, lambda name: 0.1)
    np.testing.assert_array_equal(params["w"].data, [2.5])


def test_adamw_frozen_tensor_untouched():
    params = one_param(2.5, trainable=False)
    params["w"].grad = np.array([5.0])
    before = params["w"].data.tobytes()
    optimizer_step(params, AdamWState(), TrainConfig(), lambda name: 0.1)
    assert params["w"].data.tobytes() == before


def test_adamw_nonfinite_grad_aborts_with_name():
    params = one_param(1.0)
    params["w"].grad = np.array([np.nan])
    with pytest.raises(NumericError, match="w"):
        optimizer_step(params, AdamWState(), TrainConfig(), lambda name: 0.1)


def test_adamw_skips_tensor_without_grad():
    """A trainable tensor that no loss reached (grad None) keeps its bytes
    and gets no moments, weight decay or not, as torch.optim.AdamW skips a
    parameter whose grad is None; a zero gradient still decays."""
    params = ModelParams()
    params.add("unreached", np.array([2.0, -1.0]))
    params.add("zero", np.array([2.0]))
    params["zero"].grad = np.zeros(1)
    before = params["unreached"].data.tobytes()
    state = AdamWState()
    for _ in range(3):
        optimizer_step(params, state, TrainConfig(weight_decay=0.5), lambda name: 0.1)
    assert params["unreached"].data.tobytes() == before
    assert "unreached" not in state.m and "unreached" not in state.v
    assert params["zero"].data[0] < 2.0


def test_adamw_weight_decay_decoupled():
    params = one_param(2.0)
    params["w"].grad = np.zeros(1)
    cfg = TrainConfig(weight_decay=0.01)
    optimizer_step(params, AdamWState(), cfg, lambda name: 0.1)
    np.testing.assert_allclose(params["w"].data, [2.0 - 0.1 * 0.01 * 2.0], atol=1e-15)


# ---------------------------------------------------------------------------
# stage masks
# ---------------------------------------------------------------------------


def small_model(variant="full", seed=0):
    cfg = ModelConfig(
        variant=variant,
        spatial=SpatialBlockConfig(
            image_size=16, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
            depth_decoder_stages=2, seg_classes=8,
            pc_hidden=8, pc_feature_dim=8,
        ),
        fusion=FusionConfig(d_token=16, lm_layers=1, lm_heads=2, vocab_size=0,
                            max_seq_len=256, image_patch=4),
    )
    return cfg


def test_stage_masks_partition_and_cover():
    cfg = small_model()
    cfg.fusion.vocab_size = 30
    model = Model.build(cfg, seed=0)
    m1 = stage_mask(model.params, 1)
    m2 = stage_mask(model.params, 2)
    for name in model.params.names():
        assert m1[name] != m2[name], name  # partition: never both, never neither
    assert any(m1.values()) and any(m2.values())
    assert all(name.startswith("lm.") for name, f in m1.items() if f)
    for stage, mask in ((1, m1), (2, m2)):
        apply_stage_mask(model.params, stage)
        assert dict(model.params.trainable) == mask
    with pytest.raises(TypeError):
        model.params.trainable["lm.wte"] = True


# ---------------------------------------------------------------------------
# train_stage behavior on a tiny dataset
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_data():
    bundle = build_dataset(seed=5, n_scenes=4, n_views=1, image_size=16)
    return bundle


def tiny_model(bundle, variant="full"):
    cfg = small_model(variant)
    cfg.fusion.vocab_size = len(bundle.vocab)
    return Model.build(cfg, seed=1)


def values(params):
    """A copy of every parameter's values, by name."""
    return {name: t.data.copy() for name, t in params.items()}


def test_zero_epochs_is_a_no_op(tiny_data):
    model = tiny_model(tiny_data)
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    before = values(model.params)
    result = train_stage(data, model, TrainConfig(stage=1, epochs=0))
    assert result.rows == [] and result.epoch_means == []
    after = values(model.params)
    assert all(np.array_equal(before[k], after[k]) for k in before)


def test_stage_mismatch_contract_error(tiny_data):
    model = tiny_model(tiny_data)
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    with pytest.raises(ContractError):
        train_stage(data, model, TrainConfig(stage=2, epochs=1))


def test_stage1_deterministic_and_loss_drops(tiny_data):
    def run():
        model = tiny_model(tiny_data)
        data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
        data = replace(data, records=data.records[:40])
        cfg = TrainConfig(stage=1, epochs=8, batch_size=8, warmup_steps=4,
                          lr_lm=3e-3, seed=9)
        result = train_stage(data, model, cfg)
        return result, model

    r1, m1 = run()
    r2, m2 = run()
    assert [row.format() for row in r1.rows] == [row.format() for row in r2.rows]
    for name in m1.params.names():
        assert m1.params[name].data.tobytes() == m2.params[name].data.tobytes()
    assert r1.epoch_means[-1] < 0.5 * r1.epoch_means[0]


def test_stage1_leaves_vision_untouched(tiny_data):
    model = tiny_model(tiny_data)
    frozen_before = {n: model.params[n].data.copy() for n in model.params.names()
                     if not n.startswith("lm.")}
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    data = replace(data, records=data.records[:16])
    train_stage(data, model, TrainConfig(stage=1, epochs=1, warmup_steps=0))
    for name, before in frozen_before.items():
        assert model.params[name].data.tobytes() == before.tobytes(), name


# Every tensor of these groups moves in stage 2 of `full`. proj.seg_null and
# proj.pc_null are left out: nothing reads them here, so no step moves them.
STAGE2_MOVED = ("spatial.encoder", "spatial.depth", "spatial.seg", "spatial.region",
                "spatial.pc", "proj.img_embed", "proj.img_head", "proj.seg_head",
                "proj.pc_head", "proj.pool", "fusion.pos_embed")


def test_stage2_runs_and_freezes_lm(tiny_data):
    model = tiny_model(tiny_data)
    before = values(model.params)
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=1, seed=3)
    cfg = TrainConfig(stage=2, epochs=1, batch_size=4, warmup_steps=0,
                      vfm_epochs=1, seed=4)
    result = train_stage(data, model, cfg)
    assert result.vfm_epoch_means and result.epoch_means
    stages = {row.stage for row in result.rows}
    assert stages == {"2vfm", "2"}
    group = {n: next((g for g in STAGE2_MOVED if n == g or n.startswith(g + ".")), None)
             for n in before}
    assert {g for g in group.values() if g} == set(STAGE2_MOVED)
    assert {n for n, g in group.items() if g is None and not n.startswith("lm.")} == \
        {"proj.seg_null", "proj.pc_null"}
    for name, value in before.items():
        after = model.params[name].data
        if name.startswith("lm."):
            assert after.tobytes() == value.tobytes(), name
        elif group[name]:
            assert not np.array_equal(after, value), name


PERCEPTION = ("spatial.encoder.", "spatial.depth.", "spatial.seg.")


def test_fusion_phase_leaves_perception_as_the_vfm_phase_left_it(tiny_data):
    """In stage 2 of `full`, every encoder and depth and seg head tensor
    ends the fusion phase with the bytes it had after the last VFM step,
    and those equal `no-fusion`'s at the same seed and data, whose VFM loss
    rows they share. proj.seg_null, which nothing reads, never moves."""
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=1, seed=3)
    cfg = TrainConfig(stage=2, epochs=2, batch_size=4, warmup_steps=0,
                      vfm_epochs=1, seed=4)

    def run(variant):
        model = tiny_model(tiny_data, variant)
        before, after_vfm, vfm_rows = values(model.params), {}, []

        def log(row):
            if row.stage == "2vfm":
                after_vfm.update(values(model.params))
                vfm_rows.append(row.format())

        result = train_stage(data, model, cfg, log=log)
        assert result.epoch_means and vfm_rows
        return model, before, after_vfm, vfm_rows

    full, before, after_vfm, vfm_rows = run("full")
    no_fusion, _, _, no_fusion_vfm_rows = run("no-fusion")
    assert vfm_rows == no_fusion_vfm_rows
    names = [n for n in full.params.names() if n.startswith(PERCEPTION)]
    assert {n for n in no_fusion.params.names() if n.startswith(PERCEPTION)} == set(names)
    for name in names:
        end = full.params[name].data.tobytes()
        assert end == after_vfm[name].tobytes(), name
        assert end == no_fusion.params[name].data.tobytes(), name
        assert end != before[name].tobytes(), name
    assert full.params["proj.seg_null"].data.tobytes() == before["proj.seg_null"].tobytes()


def test_no_graph_outlives_its_backward(tiny_data):
    """At each logged step, after the backward, no recorded node still holds
    its closure, in the VFM phase and in the fusion phase alike."""
    model = tiny_model(tiny_data)
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=1, seed=3)
    cfg = TrainConfig(stage=2, epochs=1, batch_size=4, warmup_steps=0,
                      vfm_epochs=1, seed=4)

    def live_nodes():
        gc.collect()
        return {id(o) for o in gc.get_objects()
                if isinstance(o, T.Node) and o.backward_fn is not None}

    before, live = live_nodes(), []

    def log(row):
        live.append((row.stage, len(live_nodes() - before)))

    train_stage(data, model, cfg, log=log)
    assert {stage for stage, _ in live} == {"2vfm", "2"}
    assert all(n == 0 for _, n in live), live


def vfm_saved_floats(model: Model, B: int) -> dict[str, int]:
    """Upper counts of the float64 values held while one backward of a
    full-variant VFM step runs, from the shapes alone, by part: what the
    encoder's graph and each head's graph (its loss's included) read, one
    grid (the step holds the grid and its adjoint while a head runs, the
    adjoint alone while the encoder does), and the perception gradients."""
    sp = model.cfg.spatial
    c, n, h, side = sp.encoder_dim, sp.n_cells, sp.encoder_heads, sp.image_size
    pixels = B * side * side
    # Patch-embedding input; per block the two layer norms' xhat, the qkv,
    # wo and fc1 inputs, q, k, v and attention output, the softmax's row
    # max and row sum, and the MLP's gelu slope and fc2 input at width 4c.
    encoder = (B * n * 3 * sp.encoder_patch**2
               + sp.encoder_blocks * (9 * B * n * c + 2 * B * h * n + 2 * B * n * 4 * c))
    depth = sp.depth_decoder_stages * B * n * c  # the 1x1 skip inputs
    for s in range(sp.depth_decoder_stages):
        r = sp.grid_size * 2 ** (s + 1)
        # Padded conv input, conv weight matrix, gelu slope.
        depth += B * (r + 2) ** 2 * c + 9 * c * c + B * c * r * r
    depth += pixels * c + pixels  # head input, softplus input
    depth += 8 * pixels  # gather indices and |.| inputs of the L1 and gradient terms
    # The fc1 input; the gelu slope and fc2 input; log-softmax and softmax
    # outputs and the one-hot; the gather index.
    seg = B * n * c + 2 * pixels * c + 3 * pixels * sp.seg_classes + pixels
    grads = sum(t.size for name, t in model.params.items()
                if name.startswith(PERCEPTION))
    return {"encoder": encoder, "depth": depth, "seg": seg, "grid": B * n * c,
            "grads": grads}


def held_at_each_backward(step):
    """Runs step(backward) under tracemalloc, where backward(loss) reads the
    bytes allocated since the step began and then runs T.backward(loss).
    Returns those readings, one per backward, the bytes still allocated
    after the step, and the step's peak."""
    held = []

    def backward(loss):
        gc.collect()
        held.append(tracemalloc.get_traced_memory()[0] - base)
        T.backward(loss)

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        step(backward)
        gc.collect()
        after, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    return held, after, peak


def measured_vfm_step(tiny_data):
    """A full-variant model, four samples and, from a second VFM step on
    them (the first warms one-time caches), the readings of
    held_at_each_backward."""
    model = tiny_model(tiny_data)
    samples = tiny_data.samples[:4]
    training._vfm_step(model, samples, T.backward)
    model.params.zero_grads()
    readings = held_at_each_backward(
        lambda backward: training._vfm_step(model, samples, backward))
    return model, samples, readings


def test_vfm_graph_keeps_only_what_its_backward_reads(tiny_data):
    """At each head loss's backward, the bytes the VFM step holds stay
    within what that head's graph reads, plus the grid, its adjoint and the
    gradients so far (plus a quarter for the graphs' own objects): the
    encoder ran untracked, the depth graph is gone before seg's runs, and
    no input tensor, upsampled map or conv output is pinned. After the
    step, only the gradients are."""
    model, samples, (held, after, _) = measured_vfm_step(tiny_data)
    part = vfm_saved_floats(model, len(samples))
    assert len(held) == 2
    for head, got in zip(("depth", "seg"), held):
        bound = 1.25 * 8 * (part[head] + 2 * part["grid"] + part["grads"])
        assert got <= bound, (head, got, bound)
    assert after <= 1.25 * 8 * part["grads"], (after, part["grads"])


def test_vfm_step_peak_stays_near_its_graph(tiny_data):
    """The peak of one VFM step stays within the larger of two phases (with
    a quarter more for the graphs' own objects). While a head runs: the
    larger head's graph, the grid and its adjoint, the gradients and one
    full-resolution feature map [B, C, H, W]. While the encoder runs again
    for its backward: the encoder's graph, the grid adjoint and the
    gradients. So no graph is alive beside another: gelu forms its output
    in its Phi buffer and its input gradient in its slope, attention_core
    rebuilds its probabilities in its backward, conv3x3 forms its columns a
    block of rows at a time and its backward folds the input gradient into
    its padded input copy, and the heads drop each map once its last reader
    has run."""
    model, samples, (_, _, peak) = measured_vfm_step(tiny_data)
    part = vfm_saved_floats(model, len(samples))
    sp = model.cfg.spatial
    full_map = 8 * len(samples) * sp.encoder_dim * sp.image_size**2
    heads = 1.25 * 8 * (max(part["depth"], part["seg"]) + 2 * part["grid"]
                        + part["grads"]) + full_map
    encoder = 1.25 * 8 * (part["encoder"] + part["grid"] + part["grads"])
    bound = max(heads, encoder)
    assert peak <= bound, (peak, bound)


def single_graph_vfm_step(model, samples):
    """The VFM step as one graph: one backward of depth_loss + seg_loss (of
    the variant's heads) from the encoder through both heads; returns the
    loss value."""
    spec = variant_spec(model.cfg.variant)
    cfg = model.cfg.spatial
    _, grid = model.spatial_grid(np.stack([s.rgb for s in samples]))
    parts = []
    if spec.needs_depth:
        parts.append(depth_loss(model.predict_depth(grid),
                                np.stack([s.depth for s in samples]), cfg))
    if spec.needs_seg:
        parts.append(seg_loss(model.predict_seg(grid)[0],
                              np.stack([s.seg for s in samples]), cfg))
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    T.backward(total)
    return total.item()


@pytest.mark.parametrize("variant", ["full", "no-pc", "no-fusion", "stacked",
                                     "no-seg", "no-depth"])
def test_vfm_step_grads_equal_the_single_graph_backward(tiny_data, variant):
    """Head by head, the step forms every gradient and the loss with the
    bytes of one backward through the whole graph: for the two-head
    variants, and for the one-head ones, whose step is one head's backward
    and the encoder's."""
    samples = tiny_data.samples[:4]
    got_model, want_model = tiny_model(tiny_data, variant), tiny_model(tiny_data, variant)
    got = training._vfm_step(got_model, samples, T.backward)
    want = single_graph_vfm_step(want_model, samples)
    assert got == want
    trained = 0
    for name, t in want_model.params.items():
        g = got_model.params[name].grad
        if t.grad is None:
            assert g is None, name
            continue
        trained += 1
        assert g.tobytes() == t.grad.tobytes(), name
    assert trained > 0


def lm_step(tiny_data, stage):
    """A tiny full-variant model under the stage's mask; one step of a
    batch of two QA and two SGG records (one LM call per task), a function
    that takes `backward` and runs it on the batch's loss; and the percepts
    of the batch's samples by index. The stage-2 step finds them formed,
    as the fusion phase's cache holds them after a sample's first batch.
    The LM has two blocks of four heads, so one block runs every row."""
    cfg = small_model()
    cfg.fusion.vocab_size, cfg.fusion.lm_layers, cfg.fusion.lm_heads = len(tiny_data.vocab), 2, 4
    model = Model.build(cfg, seed=1)
    apply_stage_mask(model.params, stage)
    if stage == 1:
        data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    else:
        data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                                   qa_per_sample=1, seed=3)
    records = ([r for r in data.records if r.task == "qa"][:2]
               + [r for r in data.records if r.task == "sgg"][:2])
    if stage == 1:
        return model, lambda backward: backward(_batch_stage1(model, records)), {}
    train_cfg = TrainConfig(stage=2, epochs=1, batch_size=4, warmup_steps=0,
                            vfm_epochs=0, seed=4)
    percepts = {}
    _batch_stage2(model, data, records, train_cfg, percepts)

    def step(backward):
        lm, contrast = _batch_stage2(model, data, records, train_cfg, percepts)
        backward(stage2_loss(lm, contrast, train_cfg.lambda_clip))

    return model, step, percepts


def recording_lm_calls(monkeypatch) -> list[tuple[int, int, int]]:
    """Records (G, S, k) of each lm_forward call training makes: the batch,
    the sequence length and the rows per record its last block runs."""
    calls = []

    def recording(tokens, *args, rows, **kwargs):
        calls.append(tokens.shape[:2] + rows.shape[1:])
        return lm_forward(tokens, *args, rows=rows, **kwargs)

    monkeypatch.setattr(training, "lm_forward", recording)
    return calls


def lm_saved_floats(model: Model, calls, stage: int) -> int:
    """Upper count of the float64 values (int64 indices alike) the LM part
    of a training step's graph holds at its backward, from the shapes of
    its lm_forward calls alone: no attention probabilities among them. The
    LM trains in stage 1 only; frozen, its affines keep no input."""
    f = model.cfg.fusion
    d, h, V, trains = f.d_token, f.lm_heads, f.vocab_size, stage == 1
    total = 0
    for G, S, k in calls:
        def block(r):
            # ln1's xhat and inverse std, the split k and v; at the r query
            # rows: q, the attention output, the softmax's row max and row
            # sum, the mask, ln2's xhat and inverse std, the gelu slope.
            kept = S * (d + 1) + 2 * S * d + r * (2 * d + 2 * h + S + d + 1 + 4 * d)
            if trains:  # the inputs of wk/wv, wq, wo, fc1 and fc2
                kept += S * d + r * (3 * d + 4 * d)
            return G * kept

        total += (f.lm_layers - 1) * block(S) + block(k)
        # Token and position gather indices, lm.ln_f's xhat and inverse std,
        # lm.out's input, the loss's log-probabilities, a text row's gather.
        total += G * (2 * S * d + k * (d + 1) + trains * k * d + k * V + d)
    return total


def modality_saved_floats(model: Model, n_samples: int, n_points: int) -> int:
    """Upper count of the float64 values (int64 indices alike) the modality
    graph of a full-variant fusion batch holds at its backward, from the
    shapes alone: the image tower, region pooling and the point path."""
    sp, f = model.cfg.spatial, model.cfg.fusion

    def mlp(prefix, rows):  # fc1's input, the gelu slope, fc2's input
        d_in, d_hidden = model.params[f"{prefix}.fc1.w"].shape
        return rows * (d_in + 2 * d_hidden)

    patches = n_samples * (sp.image_size // f.image_patch) ** 2
    regions = n_samples * sp.seg_classes
    return (patches * 3 * f.image_patch**2 + mlp("proj.img_head", patches)
            + n_samples * sp.n_cells * sp.encoder_dim  # region gather indices
            + mlp("spatial.region.phi", regions) + mlp("proj.seg_head", regions)
            + mlp("spatial.pc", n_points) + mlp("proj.pc_head", n_samples))


def test_stage1_graph_holds_no_attention_probabilities(tiny_data, monkeypatch):
    """No closure of a stage-1 step's graph holds a [B, heads, n, m] array:
    attention_core's backward rebuilds its probabilities."""
    _, step, _ = lm_step(tiny_data, 1)
    shapes = set()
    core = T.attention_core

    def recording(q, k, v, heads, mask=None):
        shapes.add((q.shape[0], heads, q.shape[1], k.shape[-2]))
        return core(q, k, v, heads, mask)

    monkeypatch.setattr(T, "attention_core", recording)
    losses = []
    step(losses.append)
    # Two LM calls of two blocks, the last at the read rows only.
    assert len(shapes) == 4 and sum(n < m for _, _, n, m in shapes) == 2
    held = [c.cell_contents for node in T.ComputationTape(losses[0]).nodes
            for c in node.backward_fn.__closure__ or ()]
    assert not [a for a in held if isinstance(a, np.ndarray) and a.shape in shapes]


@pytest.mark.parametrize("stage", [1, 2])
def test_lm_step_keeps_only_what_its_backward_reads(tiny_data, monkeypatch, stage):
    """At the backward of a stage-1 step and of a stage-2 fusion step, the
    bytes held stay within what the LM's graph reads without attention
    probabilities, plus in stage 2 the modality graph (plus a quarter for
    the graphs' own objects)."""
    model, step, percepts = lm_step(tiny_data, stage)
    calls = recording_lm_calls(monkeypatch)
    (held,), _, _ = held_at_each_backward(step)
    assert len(calls) == 2
    floats = lm_saved_floats(model, calls, stage)
    if stage == 2:
        floats += modality_saved_floats(
            model, len(percepts), sum(len(p.points) for p in percepts.values()))
    assert held <= 1.25 * 8 * floats, (held, 1.25 * 8 * floats)


def test_stage2_step_forms_no_frozen_grads(tiny_data, monkeypatch):
    """The frozen LM is not tracked, so a stage-2 step forms none of its
    gradients, and every trainable gradient has the bytes it has when
    every tensor is tracked."""
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=1, seed=3)
    cfg = TrainConfig(stage=2, epochs=1, batch_size=4, warmup_steps=0,
                      vfm_epochs=0, seed=4)

    def first_step_grads():
        model = tiny_model(tiny_data)
        grads = {}

        def log(row):
            if not grads:
                grads.update((n, t.grad) for n, t in model.params.items())

        train_stage(data, model, cfg, log=log)
        return grads, model.params.trainable

    grads, trainable = first_step_grads()
    monkeypatch.setattr(training, "apply_stage_mask", lambda params, stage: None)
    tracked, _ = first_step_grads()
    assert any(n.startswith("lm.") for n in grads)
    # No token loss reaches the perception nets or the unread null tokens.
    unreached = {n for n in grads if n.startswith(PERCEPTION)} | {"proj.seg_null",
                                                                 "proj.pc_null"}
    for name, g in grads.items():
        if name.startswith("lm."):
            assert g is None and not trainable[name], name
        elif name in unreached:
            assert trainable[name] and g is None and tracked[name] is None, name
        else:
            assert trainable[name] and g.tobytes() == tracked[name].tobytes(), name


def test_stage2_loss_log_columns(tiny_data):
    model = tiny_model(tiny_data)
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=1, seed=3)
    cfg = TrainConfig(stage=2, epochs=1, batch_size=4, warmup_steps=0,
                      vfm_epochs=0, seed=4)
    rows = []
    train_stage(data, model, cfg, log=rows.append)
    line = rows[0].format()
    fields = line.split("\t")
    assert len(fields) == 6
    assert fields[1] == "2"
    assert float(fields[4]) == rows[0].total


def test_stage2_records_contain_sgg(tiny_data):
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=2, seed=0)
    tasks = {r.task for r in data.records}
    assert tasks == {"qa", "sgg"}
    per_sample = sum(1 for r in data.records if r.sample_index == 0)
    assert per_sample == 3  # 2 qa + 1 sgg


def test_sgg_records_hold_the_whole_graph(tiny_data):
    samples, vocab = tiny_data.samples, tiny_data.vocab
    stage1 = [r for r in make_stage1_records(samples, vocab).records if r.task == "sgg"]
    stage2 = [r for r in make_stage2_records(samples, vocab, qa_per_sample=2,
                                             seed=0).records if r.task == "sgg"]
    scenes = {s.scene_id: s for s in samples}  # the views of a scene share its graph
    firsts = [scenes[i] for i in dict.fromkeys(s.scene_id for s in samples)]
    for records, sources in ((stage1, firsts), (stage2, samples)):
        assert len(records) == len(sources)
        for r, s in zip(records, sources):
            assert r.answer_ids == vocab.encode(triples_to_text(s.triples))
            assert set(parse_triples(vocab.decode(r.answer_ids))) == set(s.triples)


# ---------------------------------------------------------------------------
# per-task LM calls against the one padded call over the whole batch
# ---------------------------------------------------------------------------


def read_windows(metas, S, text_rows=None):
    """The [B, n_q] rows a loss reads, as training takes them: each record
    from its first answer-mask row (or its text row, if earlier) to its
    last, every window as long as the longest, moved back to end by row S
    where it would pass it."""
    spans = []
    for b, (_, mask) in enumerate(metas):
        read = np.flatnonzero(mask)
        first = read[0] if text_rows is None else min(read[0], text_rows[b])
        spans.append((first, read[-1] + 1))
    n_q = max(end - first for first, end in spans)
    return np.array([np.arange(n_q) + min(first, S - n_q) for first, _ in spans])


def window_losses(logits, metas, rows, S):
    """Each record's answer loss from its [n_q, V] window of the logits,
    with its targets and mask zero-padded to S and read at the window."""
    losses = []
    for b, (targets, mask) in enumerate(metas):
        pad = S - len(targets)
        losses.append(answer_loss(T.slice_(logits, b),
                                  np.pad(targets, (0, pad))[rows[b]],
                                  np.pad(mask, (0, pad))[rows[b]]))
    return losses


def text_sequence(model, rec):
    """A stage-1 record's text-only sequence: prompt, BOS, answer, EOS."""
    return build_input_sequence(None, None, None, rec.prompt_ids, model.params,
                                model.cfg.fusion,
                                answer_ids=[V.BOS] + rec.answer_ids + [V.EOS],
                                layout=model.layout)


def padded_batch_stage1(model, records):
    """Oracle: the whole batch in one lm_forward, padded to its longest
    record, as stage-1 batches ran before the LM ran once per task; the
    last block runs at the read windows of the whole batch."""
    seqs, poss, metas = [], [], []
    for rec in records:
        seq = text_sequence(model, rec)
        seqs.append(seq.tokens)
        poss.append(seq.positions)
        metas.append(_answer_targets(len(rec.prompt_ids), rec.answer_ids, 0))
    tokens, positions = _pad_stack(seqs, poss)
    rows = read_windows(metas, tokens.shape[1])
    logits = lm_forward(tokens, model.params, model.cfg.fusion, positions=positions,
                        rows=rows)
    return T.mean(T.stack(window_losses(logits, metas, rows, tokens.shape[1]), axis=0))


def padded_batch_stage2(model, data, records, cfg):
    """Oracle: stage 2 with one padded lm_forward over the whole batch.
    As in training, each sample of the batch gets its modality tokens once
    and InfoNCE takes no record of a record's own sample as a negative."""
    indices = list(dict.fromkeys(rec.sample_index for rec in records))
    bundles = dict(zip(indices, model.modality_tokens_batch(
        [data.samples[i] for i in indices])))
    seqs, poss, metas, v_feats, starts = [], [], [], [], []
    for rec in records:
        bundle = bundles[rec.sample_index]
        seq = model.assemble(bundle, rec.prompt_ids, [V.BOS] + rec.answer_ids + [V.EOS])
        start = seq.prompt_start
        seqs.append(seq.tokens)
        poss.append(seq.positions)
        metas.append(_answer_targets(len(rec.prompt_ids), rec.answer_ids, start))
        v_feats.append(model.contrastive_features(bundle))
        starts.append(start)
    tokens, positions = _pad_stack(seqs, poss)
    rows = read_windows(metas, tokens.shape[1], text_rows=starts)
    logits, hidden = lm_forward(tokens, model.params, model.cfg.fusion,
                                return_hidden=True, positions=positions, rows=rows)
    t_feats = [T.slice_(hidden, (b, start - rows[b, 0]))
               for b, start in enumerate(starts)]
    lm = T.mean(T.stack(window_losses(logits, metas, rows, tokens.shape[1]), axis=0))
    contrast = contrastive_loss(T.stack(v_feats, axis=0),
                                T.stack(t_feats, axis=0), cfg.tau,
                                sample_ids=[rec.sample_index for rec in records])
    return lm, contrast


def loss_and_grads(model, make_losses):
    """Runs make_losses(), backpropagates their sum with the stage-2 weight
    on the second part, and returns the loss values and every gradient."""
    model.params.zero_grads()
    losses = make_losses()
    total = losses[0] if len(losses) == 1 else stage2_loss(losses[0], losses[1], 0.1)
    T.backward(total)
    grads = {n: t.grad.copy() for n, t in model.params.items() if t.grad is not None}
    return [l.data.copy() for l in losses], grads


def interleaved(records, pattern):
    """Records picked in the task order of `pattern`, each record once."""
    pools = {task: [r for r in records if r.task == task] for task in set(pattern)}
    return [pools[task].pop(0) for task in pattern]


MIXED = ("sgg", "qa", "qa", "sgg", "qa")


def assert_matches(got, want, exact):
    (got_losses, got_grads), (want_losses, want_grads) = got, want
    for g, w in zip(got_losses, want_losses):
        if exact:
            assert g.tobytes() == w.tobytes()
        else:
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)
    assert got_grads.keys() == want_grads.keys()
    for name in got_grads:
        if exact:
            assert got_grads[name].tobytes() == want_grads[name].tobytes(), name
        else:
            np.testing.assert_allclose(got_grads[name], want_grads[name],
                                       rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("stage,pattern", [
    (1, MIXED), (1, ("sgg",) * 2), (2, MIXED), (2, ("qa",) * 3)])
def test_lm_at_read_rows_equals_the_full_lm_there(tiny_data, monkeypatch, stage,
                                                  pattern):
    """Each padded task group runs the last block, lm.ln_f and lm.out at
    its read windows only; logits and hidden rows there are those of the
    full forward over the group within 1e-12, and every window lies inside
    the padded length."""
    model = tiny_model(tiny_data)
    if stage == 1:
        data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    else:
        data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                                   qa_per_sample=2, seed=3)
    batch = interleaved(data.records, pattern)
    calls = []

    def recording(tokens, params, cfg, **kwargs):
        out = lm_forward(tokens, params, cfg, **kwargs)
        calls.append((tokens, kwargs, out))
        return out

    monkeypatch.setattr(training, "lm_forward", recording)
    with T.no_grad():
        if stage == 1:
            _batch_stage1(model, batch)
        else:
            _batch_stage2(model, data, batch, TrainConfig(stage=2), {})
    assert len(calls) == len(set(pattern))
    for tokens, kwargs, out in calls:
        rows = kwargs.pop("rows")
        G, S = tokens.shape[:2]
        assert rows.shape[0] == G and rows.shape[1] < S
        assert (rows.min() >= 0) and (rows.max() < S)
        assert (np.diff(rows, axis=1) == 1).all()  # one contiguous window each
        full = lm_forward(tokens, model.params, model.cfg.fusion, **kwargs)
        at = np.arange(G)[:, None], rows
        for got, want in zip(out if stage == 2 else (out,),
                             full if stage == 2 else (full,)):
            np.testing.assert_allclose(got.data, want.data[at], rtol=0, atol=1e-12)


@pytest.mark.parametrize("pattern,exact", [(MIXED, False), (("qa",) * 5, True)])
def test_stage1_batch_matches_one_padded_call(tiny_data, pattern, exact):
    model = tiny_model(tiny_data)
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    batch = interleaved(data.records, pattern)
    got = loss_and_grads(model, lambda: [_batch_stage1(model, batch)])
    want = loss_and_grads(model, lambda: [padded_batch_stage1(model, batch)])
    assert_matches(got, want, exact)


@pytest.mark.parametrize("pattern,exact", [(MIXED, False), (("qa",) * 5, True)])
def test_stage2_batch_matches_one_padded_call(tiny_data, pattern, exact):
    model = tiny_model(tiny_data)
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=2, seed=3)
    batch = interleaved(data.records, pattern)
    cfg = TrainConfig(stage=2)
    got = loss_and_grads(model, lambda: list(_batch_stage2(model, data, batch, cfg, {})))
    want = loss_and_grads(model, lambda: list(padded_batch_stage2(model, data, batch, cfg)))
    assert_matches(got, want, exact)


def test_pad_stack_tail_padding_leaves_real_rows_unchanged(tiny_data):
    model = tiny_model(tiny_data)
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    short, long_ = interleaved(data.records, ("qa", "sgg"))
    seqs = [text_sequence(model, r) for r in (short, long_)]
    assert seqs[0].tokens.shape[0] < seqs[1].tokens.shape[0]
    tokens, positions = _pad_stack([s.tokens for s in seqs],
                                   [s.positions for s in seqs])
    padded = lm_forward(tokens, model.params, model.cfg.fusion, positions=positions).data
    for b, seq in enumerate(seqs):
        alone = lm_forward(seq.tokens, model.params, model.cfg.fusion,
                           seq.positions).data
        np.testing.assert_allclose(padded[b, : alone.shape[0]], alone,
                                   rtol=0, atol=1e-12)


@pytest.fixture
def lm_calls(monkeypatch):
    """Records the [B, S] row grid of every lm_forward call training makes."""
    calls = []

    def counting(tokens, *args, **kwargs):
        calls.append(tokens.shape[:2])
        return lm_forward(tokens, *args, **kwargs)

    monkeypatch.setattr(training, "lm_forward", counting)
    return calls


@pytest.fixture
def loss_calls(monkeypatch):
    """Records the logits shape of every answer_loss call training makes."""
    calls = []

    def counting(logits, *args, **kwargs):
        calls.append(logits.shape)
        return answer_loss(logits, *args, **kwargs)

    monkeypatch.setattr(training, "answer_loss", counting)
    return calls


@pytest.mark.parametrize("pattern", [MIXED, ("qa",) * 4, ("sgg",) * 2])
def test_stage1_one_lm_call_per_task_and_rows(tiny_data, lm_calls, loss_calls,
                                              pattern):
    model = tiny_model(tiny_data)
    data = make_stage1_records(tiny_data.samples, tiny_data.vocab)
    batch = interleaved(data.records, pattern)
    with T.no_grad():
        _batch_stage1(model, batch)
    lengths = {}
    for rec in batch:
        length = len(rec.prompt_ids) + len(rec.answer_ids) + 2  # + BOS, EOS
        lengths.setdefault(rec.task, []).append(length)
    assert len(lm_calls) == len(lengths)
    assert sum(b * s for b, s in lm_calls) == \
        sum(len(ls) * max(ls) for ls in lengths.values())
    # One answer loss per task group, over that group's [G, n_q] read
    # windows: BOS and the answer ids, which predict the answer and EOS.
    windows = {}
    for rec in batch:
        windows.setdefault(rec.task, []).append(len(rec.answer_ids) + 1)
    assert [shape[:2] for shape in loss_calls] == [
        (len(ws), max(ws)) for ws in windows.values()]


@pytest.mark.parametrize("pattern", [MIXED, ("qa",) * 3])
def test_stage2_one_lm_call_per_task(tiny_data, lm_calls, loss_calls, pattern):
    model = tiny_model(tiny_data)
    data = make_stage2_records(tiny_data.samples, tiny_data.vocab,
                               qa_per_sample=2, seed=3)
    batch = interleaved(data.records, pattern)
    with T.no_grad():
        _batch_stage2(model, data, batch, TrainConfig(stage=2), {})
    assert sorted(b for b, _ in lm_calls) == sorted(
        pattern.count(task) for task in set(pattern))
    # Each group's answer loss reads [G, n_q] windows: the prompt (its first
    # row is the InfoNCE text row), BOS and the answer ids.
    windows = {}
    for rec in batch:
        windows.setdefault(rec.task, []).append(
            len(rec.prompt_ids) + len(rec.answer_ids) + 1)
    assert [shape[:2] for shape in loss_calls] == [
        (len(ws), max(ws)) for ws in windows.values()]
    assert all(got[1] < s for got, (_, s) in zip(loss_calls, lm_calls))


def padded_answer_case(seed=20, lengths=(5, 9, 7), vocab=11):
    """Per-record [S_b, V] logits, targets and masks, and the same records
    zero-padded to one [B, S_max] grid."""
    rng = np.random.default_rng(seed)
    s_max = max(lengths)
    logits = rng.normal(size=(len(lengths), s_max, vocab)) * 3.0
    targets = np.zeros((len(lengths), s_max), dtype=np.int64)
    mask = np.zeros((len(lengths), s_max), dtype=bool)
    for b, n in enumerate(lengths):
        targets[b, :n] = rng.integers(0, vocab, size=n)
        mask[b, n // 2 : n] = True
    return logits, targets, mask, lengths


def test_batched_answer_loss_equals_stacked_2d_calls_bytes():
    logits, targets, mask, lengths = padded_answer_case()
    grads, values = [], []
    for batched in (True, False):
        x = Tensor(logits.copy(), requires_grad=True)
        if batched:
            per_record = answer_loss(x, targets, mask)
        else:
            per_record = T.stack([
                answer_loss(T.slice_(x, (b, slice(0, n))), targets[b, :n], mask[b, :n])
                for b, n in enumerate(lengths)], axis=0)
        loss = T.mean(per_record)
        T.backward(loss)
        values.append((per_record.data.tobytes(), loss.data.tobytes()))
        grads.append(x.grad)
    assert values[0] == values[1]
    assert grads[0].tobytes() == grads[1].tobytes()


def test_batched_answer_loss_rejects_mismatched_shapes():
    logits, targets, mask, _ = padded_answer_case()
    x = Tensor(logits)
    with pytest.raises(ContractError, match="target_ids"):
        answer_loss(x, targets[:, :-1], mask)
    with pytest.raises(ContractError, match="answer_mask"):
        answer_loss(x, targets, mask[:2])
    with pytest.raises(ContractError):
        answer_loss(x, targets[0], mask[0])
    empty = mask.copy()
    empty[1] = False
    with pytest.raises(EmptyDomainError):
        answer_loss(x, targets, empty)


@pytest.mark.parametrize("field,value", [
    ("adam_beta1", 1.0), ("adam_beta2", -0.1),
    ("warmup_steps", -5), ("weight_decay", -0.01), ("vfm_epochs", -1),
    ("qa_per_sample", -1),
])
def test_train_config_rejects_out_of_range(field, value):
    with pytest.raises(ConfigurationError, match=field):
        TrainConfig(**{field: value})


@pytest.mark.parametrize("value", [-2, 16, 24])
def test_sgg_max_triples_takes_only_0(value, tiny_data):
    # Targets hold the whole graph; the field and the keyword stay only for
    # callers that pass the field on to the builder.
    with pytest.raises(ConfigurationError, match="sgg_max_triples"):
        TrainConfig(sgg_max_triples=value)
    with pytest.raises(ConfigurationError, match="sgg_max_triples"):
        make_stage2_records(tiny_data.samples, tiny_data.vocab, qa_per_sample=2,
                            seed=0, sgg_max_triples=value)
