import numpy as np
import pytest

from ormllm import tensor as T
from ormllm import vocab as V
from ormllm.errors import CompatibilityError, ConfigurationError
from ormllm.fusion import FusionConfig
from ormllm.model import (
    Model,
    ModelConfig,
    build_model_params,
    subsample_cloud,
)
from ormllm.geometry import PointCloud
from ormllm.scenegen import build_dataset
from ormllm.spatial import SpatialBlockConfig
from ormllm.variants import VARIANTS, infer_variant


@pytest.fixture(scope="module")
def bundle():
    return build_dataset(seed=11, n_scenes=4, n_views=1, image_size=16)


def model_cfg(variant, vocab_size):
    return ModelConfig(
        variant=variant,
        spatial=SpatialBlockConfig(
            image_size=16, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
            encoder_patch=4, depth_decoder_stages=2, seg_classes=8,
            pc_hidden=8, pc_feature_dim=8,
        ),
        fusion=FusionConfig(d_token=16, lm_layers=1, lm_heads=2,
                            vocab_size=vocab_size, max_seq_len=256,
                            image_patch=4),
    )


SEGMENT_EXPECT = {
    "full": ("image", "seg", "pc", "prompt"),
    "no-pc": ("image", "seg", "pc", "prompt"),
    "no-seg": ("image", "pc", "prompt"),
    "no-depth": ("image", "seg", "prompt"),
    "no-depth-seg": ("image", "prompt"),
    "no-fusion": ("image", "prompt"),
    "stacked": ("image", "seg", "pc", "prompt"),
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_assembles_expected_segments(bundle, variant):
    model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=3)
    sample = bundle.samples[0]
    seq = model.assemble(sample, [V.BOS, 5, 6])
    seen = tuple(dict.fromkeys(seq.tags))
    assert seen == SEGMENT_EXPECT[variant]
    n_img = 16  # (16/4)^2 patches
    assert seq.tags.count("image") == n_img
    if variant == "stacked":
        assert seq.tags.count("seg") == n_img and seq.tags.count("pc") == n_img
    if variant in ("full", "no-seg"):
        assert seq.tags.count("pc") == 1
    if variant == "no-pc":
        assert seq.tags.count("pc") == n_img  # depth patches in the pc slot


@pytest.mark.parametrize("variant", VARIANTS)
def test_infer_variant_round_trip(bundle, variant):
    params = build_model_params(model_cfg(variant, len(bundle.vocab)), seed=0)
    assert infer_variant(set(params.names())) == variant


@pytest.mark.parametrize("names", [
    set(), {"lm.wte"}, {"proj.img_embed.w", "proj.early_embed.w"},
    {"proj.img_embed.w", "spatial.pc.fc1.w", "proj.pc_head.fc1.w"},
])
def test_infer_variant_no_match_is_compatibility_error(names):
    with pytest.raises(CompatibilityError):
        infer_variant(names)


def test_surviving_segment_order_is_stable(bundle):
    # Ablations drop segments; survivors keep the canonical relative order.
    order = ("image", "seg", "pc", "prompt")
    for variant in VARIANTS:
        model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=1)
        seq = model.assemble(bundle.samples[0], [V.BOS])
        positions = [order.index(t) for t in seq.tags if t in order]
        assert positions == sorted(positions), variant


def test_batched_bundles_match_single(bundle):
    samples = bundle.samples[:3]
    for variant in VARIANTS:
        model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=2)
        batched = model.modality_tokens_batch(samples)
        for i, s in enumerate(samples):
            single = model.modality_tokens_batch([s])[0]
            for name in ("img_toks", "seg_toks", "pc_toks", "pred_depth",
                         "pred_seg"):
                a, b = getattr(batched[i], name), getattr(single, name)
                assert (a is None) == (b is None), (variant, name)
                if a is not None:
                    np.testing.assert_allclose(getattr(a, "data", a),
                                               getattr(b, "data", b), atol=1e-10,
                                               err_msg=f"{variant} {name}")
            assert batched[i].seg_class_ids == single.seg_class_ids, variant
            if single.seg_class_ids is not None:  # one token per region
                assert single.seg_toks.shape[0] == len(single.seg_class_ids)


def test_heads_run_off_the_tape(bundle, monkeypatch):
    """Under grad, modality_tokens_batch records no decoder node, and the
    encoder's gradients through the region and point tokens are the bytes
    they are when the heads do record."""
    samples = bundle.samples[:3]
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=6)
    recorded = []

    def spy(op):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            recorded.append(out.node is not None)
            return out
        return wrapped

    monkeypatch.setattr(T, "conv3x3", spy(T.conv3x3))
    monkeypatch.setattr(T, "bilinear_up2", spy(T.bilinear_up2))

    def encoder_grads():
        model.params.zero_grads()
        bundles = model.modality_tokens_batch(samples)
        loss = T.sum_(T.concat([T.sum_(b.seg_toks * b.seg_toks, axis=0)
                                for b in bundles] +
                               [T.sum_(b.pc_toks, axis=0) for b in bundles], axis=0))
        T.backward(loss)
        return {n: t.grad.tobytes() for n, t in model.params.items()
                if n.startswith("spatial.encoder") and t.grad is not None}

    off_tape = encoder_grads()
    assert recorded and not any(recorded)
    assert off_tape  # the region tokens do reach the encoder

    class recording:  # stands in for no_grad: the heads record again
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    recorded.clear()
    monkeypatch.setattr(T, "no_grad", recording)
    on_tape = encoder_grads()
    assert recorded and all(recorded)
    assert on_tape == off_tape


def test_modality_tokens_deterministic(bundle):
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=4)
    s = bundle.samples[1]
    a = model.modality_tokens(s)
    b = model.modality_tokens(s)
    assert a.img_toks.data.tobytes() == b.img_toks.data.tobytes()
    assert a.pc_toks.data.tobytes() == b.pc_toks.data.tobytes()


def test_pseudo_modalities_come_from_rgb_only(bundle):
    # Corrupting ground-truth depth/seg must not change the assembled tokens.
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=5)
    s = bundle.samples[0]
    before = model.modality_tokens(s)
    s2 = type(s)(
        scene_id=s.scene_id, view_id=s.view_id, rgb=s.rgb,
        depth=np.maximum(s.depth * 0.5, 0.0), seg=np.ones_like(s.seg),
        K=s.K, pose=s.pose, triples=s.triples, description=s.description,
        qa=s.qa,
    )
    after = model.modality_tokens(s2)
    assert before.img_toks.data.tobytes() == after.img_toks.data.tobytes()
    assert before.seg_toks.data.tobytes() == after.seg_toks.data.tobytes()
    assert before.pc_toks.data.tobytes() == after.pc_toks.data.tobytes()


def test_subsample_cloud_deterministic_and_bounded():
    pts = np.arange(3000, dtype=np.float64).reshape(1000, 3)
    cloud = PointCloud(points=pts, source_pixels=np.zeros((1000, 2), dtype=int))
    small = subsample_cloud(cloud, 256)
    assert len(small) <= 256
    small2 = subsample_cloud(cloud, 256)
    np.testing.assert_array_equal(small.points, small2.points)
    tiny = subsample_cloud(PointCloud(pts[:10], np.zeros((10, 2), dtype=int)), 256)
    assert len(tiny) == 10


def test_vocab_check(bundle):
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=6)
    model.check_vocab(len(bundle.vocab))
    with pytest.raises(CompatibilityError):
        model.check_vocab(len(bundle.vocab) + 1)


def test_config_rejects_indivisible_patch():
    with pytest.raises(ConfigurationError):
        ModelConfig(
            variant="full",
            spatial=SpatialBlockConfig(
                image_size=16, encoder_patch=4, depth_decoder_stages=2,
            ),
            fusion=FusionConfig(d_token=16, lm_heads=2, vocab_size=10,
                                image_patch=5),
        )
