import numpy as np
import pytest

from ormllm import tensor as T
from ormllm import vocab as V
from ormllm.errors import CompatibilityError, ConfigurationError, ContractError
from ormllm.fusion import FusionConfig, project_image_tokens, project_pc_tokens
from ormllm.geometry import reconstruct_point_cloud
from ormllm.model import (
    DEPTH_SCALE,
    MAX_ENCODED_POINTS,
    Model,
    ModelConfig,
    build_model_params,
    cloud_raster,
    match_variant,
)
from ormllm.nn import mlp_forward
from ormllm.scenegen import CLASS_COLORS, build_dataset
from ormllm.spatial import (
    SpatialBlockConfig,
    depth_head_forward,
    encode_point_cloud,
    logits_to_ids,
    region_pool,
    seg_head_forward,
)
from ormllm.variants import VARIANTS, variant_spec


@pytest.fixture(scope="module")
def bundle():
    return build_dataset(seed=11, n_scenes=4, n_views=1, image_size=16)


def model_cfg(variant, vocab_size):
    return ModelConfig(
        variant=variant,
        spatial=SpatialBlockConfig(
            image_size=16, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
            depth_decoder_stages=2, seg_classes=8,
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


def segments(seq, layout) -> list[str]:
    """Each row's segment, read off the slot its position falls in."""
    bases = (("prompt", layout.prompt_base), ("pc", layout.pc_base),
             ("seg", layout.seg_base), ("image", layout.img_base))
    return [next(name for name, base in bases if p >= base) for p in seq.positions]


@pytest.mark.parametrize("variant", VARIANTS)
def test_variant_assembles_expected_segments(bundle, variant):
    model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=3)
    sample = bundle.samples[0]
    seq = model.assemble(model.modality_tokens_batch([sample])[0], [V.BOS, 5, 6])
    tags = segments(seq, model.layout)
    assert tuple(dict.fromkeys(tags)) == SEGMENT_EXPECT[variant]
    assert tags.index("prompt") == seq.prompt_start
    n_img = 16  # (16/4)^2 patches
    assert tags.count("image") == n_img
    if variant == "stacked":
        assert tags.count("seg") == n_img and tags.count("pc") == n_img
    if variant in ("full", "no-seg"):
        assert tags.count("pc") == 1
    if variant == "no-pc":
        assert tags.count("pc") == n_img  # depth patches in the pc slot


@pytest.mark.parametrize("variant", VARIANTS)
def test_match_variant_round_trip(bundle, variant):
    cfg = model_cfg(variant, len(bundle.vocab))
    names = build_model_params(cfg, seed=0).names()
    # The first match among all variants is this one, so no two build the
    # same names; an explicit variant is the same check over one candidate.
    assert match_variant(names, cfg.spatial, cfg.fusion) == variant
    assert match_variant(names, cfg.spatial, cfg.fusion, [variant]) == variant
    other = "no-pc" if variant == "full" else "full"
    with pytest.raises(CompatibilityError, match=repr(other)):
        match_variant(names, cfg.spatial, cfg.fusion, [other])


@pytest.mark.parametrize("names", [
    set(), {"lm.wte"}, {"proj.img_embed.w", "proj.early_embed.w"},
    {"proj.img_embed.w", "spatial.pc.fc1.w", "proj.pc_head.fc1.w"},
])
def test_match_variant_no_match_is_compatibility_error(bundle, names):
    cfg = model_cfg("full", len(bundle.vocab))
    with pytest.raises(CompatibilityError):
        match_variant(names, cfg.spatial, cfg.fusion)


def test_surviving_segment_order_is_stable(bundle):
    # Ablations drop segments; survivors keep the canonical relative order.
    order = ("image", "seg", "pc", "prompt")
    for variant in VARIANTS:
        model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=1)
        (modalities,) = model.modality_tokens_batch(bundle.samples[:1])
        seq = model.assemble(modalities, [V.BOS])
        positions = [order.index(t) for t in segments(seq, model.layout)]
        assert positions == sorted(positions), variant


def test_batched_bundles_match_single(bundle):
    samples = bundle.samples[:3]
    for variant in VARIANTS:
        model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=2)
        batched = model.modality_tokens_batch(samples)
        for i, s in enumerate(samples):
            single = model.modality_tokens_batch([s])[0]
            for name in ("img_toks", "seg_toks", "pc_toks"):
                a, b = getattr(batched[i], name), getattr(single, name)
                assert (a is None) == (b is None), (variant, name)
                if a is not None:
                    np.testing.assert_allclose(a.data, b.data, atol=1e-10,
                                               err_msg=f"{variant} {name}")
            assert batched[i].seg_class_ids == single.seg_class_ids, variant
            if single.seg_class_ids is not None:  # one token per region
                assert single.seg_toks.shape[0] == len(single.seg_class_ids)


def test_heads_run_off_the_tape(bundle, monkeypatch):
    """Under grad, modality_tokens_batch records no decoder node and forms
    no gradient for the encoder or the heads: the region tokens pool the
    percepts' cell tokens as plain data, so token losses reach the region
    and point nets only. The heads cannot record there: the depth head at
    the cloud raster is inference-only."""
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

    def token_grads():
        model.params.zero_grads()
        bundles = model.modality_tokens_batch(samples)
        loss = T.sum_(T.concat([T.sum_(b.seg_toks * b.seg_toks, axis=0)
                                for b in bundles] +
                               [T.sum_(b.pc_toks, axis=0) for b in bundles], axis=0))
        T.backward(loss)
        return {n: t.grad.tobytes() for n, t in model.params.items()
                if t.grad is not None}

    off_tape = token_grads()
    assert recorded and not any(recorded)
    groups = {".".join(n.split(".")[:2]) for n in off_tape}
    assert {"spatial.region", "spatial.pc", "proj.seg_head", "proj.pc_head"} <= groups
    assert not groups & {"spatial.encoder", "spatial.depth", "spatial.seg"}

    class recording:  # stands in for no_grad: the heads record again
        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

    monkeypatch.setattr(T, "no_grad", recording)
    with pytest.raises(ContractError, match="inference-only"):
        token_grads()


@pytest.mark.parametrize("variant", VARIANTS)
def test_tokens_from_percepts_equal_tokens_without_them(bundle, variant):
    """Percepts are plain arrays of the shapes the slots read, and tokens
    built from them are the bytes modality_tokens_batch gives without
    them, however often they are reused."""
    model = Model.build(model_cfg(variant, len(bundle.vocab)), seed=9)
    spec, scfg = variant_spec(variant), model.cfg.spatial
    samples = bundle.samples[:3]
    percepts = model.perceive(samples)
    H = scfg.image_size
    for p in percepts:
        want = {
            "cell_tokens": (scfg.n_cells, scfg.encoder_dim) if spec.seg == "regions" else None,
            "seg_ids": None if not spec.needs_seg else
            (scfg.n_cells,) if spec.seg_at_cells else (H, H),
            "depth": None if not spec.needs_depth or spec.depth_on_raster else (H, H),
            # every raster pixel of positive predicted depth, in world metres
            "points": (len(cloud_raster(H)), 3) if spec.pc == "points" else None,
        }
        for name, shape in want.items():
            value = getattr(p, name)
            assert (value is None) == (shape is None), (variant, name)
            if shape is not None:
                assert type(value) is np.ndarray and value.shape == shape, (variant, name)
    kept = [[None if v is None else v.tobytes() for v in vars(p).values()]
            for p in percepts]
    want = model.modality_tokens_batch(samples)
    for _ in range(2):
        got = model.modality_tokens_batch(samples, percepts)
        for g, w in zip(got, want):
            for name in ("img_toks", "seg_toks", "pc_toks"):
                a, b = getattr(g, name), getattr(w, name)
                assert (a is None) == (b is None), (variant, name)
                if a is not None:
                    assert a.data.tobytes() == b.data.tobytes(), (variant, name)
            assert g.seg_class_ids == w.seg_class_ids
    assert kept == [[None if v is None else v.tobytes() for v in vars(p).values()]
                    for p in percepts]
    with pytest.raises(ContractError):
        model.modality_tokens_batch(samples, percepts[:2])


def test_modality_tokens_deterministic(bundle):
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=4)
    s = bundle.samples[1]
    (a,) = model.modality_tokens_batch([s])
    (b,) = model.modality_tokens_batch([s])
    assert a.img_toks.data.tobytes() == b.img_toks.data.tobytes()
    assert a.pc_toks.data.tobytes() == b.pc_toks.data.tobytes()


def test_pseudo_modalities_come_from_rgb_only(bundle):
    # Corrupting ground-truth depth/seg must not change the assembled tokens.
    model = Model.build(model_cfg("full", len(bundle.vocab)), seed=5)
    s = bundle.samples[0]
    (before,) = model.modality_tokens_batch([s])
    s2 = type(s)(
        scene_id=s.scene_id, view_id=s.view_id, rgb=s.rgb,
        depth=np.maximum(s.depth * 0.5, 0.0), seg=np.ones_like(s.seg),
        K=s.K, pose=s.pose, triples=s.triples, description=s.description,
        qa=s.qa,
    )
    (after,) = model.modality_tokens_batch([s2])
    assert before.img_toks.data.tobytes() == after.img_toks.data.tobytes()
    assert before.seg_toks.data.tobytes() == after.seg_toks.data.tobytes()
    assert before.pc_toks.data.tobytes() == after.pc_toks.data.tobytes()


# --- the modality path against whole-map composition -------------------------


def whole_map_cloud(depth, K, pose):
    """Oracle: the cloud of every valid (positive) pixel of a depth map
    [H, W] in raster order, as world points [N, 3] and their (u, v) pixels
    [N, 2]."""
    vv, uu = np.nonzero(depth > 0)
    d = depth[vv, uu]
    cam = np.stack([(uu - K.cx) / K.fx * d, (vv - K.cy) / K.fy * d, d], axis=1)
    return cam @ pose.rotation.T + pose.translation, np.stack([uu, vv], axis=1)


def subsample_cloud(points, pixels, max_points):
    """Stride subsampling of a cloud (points and their pixels) to at most
    max_points points, as the point path bounded the cloud of every valid
    pixel before it read the depth on a raster."""
    n = len(points)
    if n <= max_points:
        return points, pixels
    stride = int(np.ceil(n / max_points))
    return points[::stride], pixels[::stride]


def downsample_map(map_ids, grid):
    """Nearest-neighbour reduction of a [H, W] id map to [grid, grid]."""
    H, W = map_ids.shape
    sy, sx = H // grid, W // grid
    return map_ids[sy // 2 :: sy, sx // 2 :: sx][:grid, :grid]


def whole_map_bundles(model, samples):
    """Each sample's (image, seg, pc) token data and region class ids,
    composed from depth and class maps over every pixel: the cloud of every
    valid pixel, stride-subsampled, and region pooling over the
    nearest-neighbour reduced class map."""
    spec = variant_spec(model.cfg.variant)
    scfg, fcfg, params = model.cfg.spatial, model.cfg.fusion, model.params
    B = len(samples)
    rgb = np.stack([s.rgb for s in samples])

    def tower(image, embed="proj.img_embed"):
        return list(project_image_tokens(image, params, fcfg, embed=embed).data)

    depth = ids = None
    if spec.spatial:
        cell_tokens, grid = model.spatial_grid(rgb)
        with T.no_grad():
            if spec.needs_depth:
                depth = depth_head_forward(grid, params, scfg).data
            if spec.needs_seg:
                ids = logits_to_ids(seg_head_forward(grid, params, scfg).data)
    if spec.image == "early":
        overlay = 0.5 * rgb + 0.5 * CLASS_COLORS[ids - 1]
        img = tower(np.concatenate([overlay, depth[..., None] / DEPTH_SCALE], axis=-1),
                    embed="proj.early_embed")
    else:
        img = tower(rgb)
    seg, region_ids, pc = [None] * B, [None] * B, [None] * B
    if spec.seg == "regions":
        small = np.stack([downsample_map(m, scfg.grid_size).reshape(-1) for m in ids])
        feats, region_ids = region_pool(small, cell_tokens, params, scfg)
        toks = mlp_forward(feats, params, "proj.seg_head").data
        bounds = np.cumsum([0] + [len(r) for r in region_ids])
        seg = [toks[bounds[b]:bounds[b + 1]] for b in range(B)]
    elif spec.seg == "view":
        seg = tower(CLASS_COLORS[ids - 1])
    if spec.pc == "points":
        feats = []
        for b, s in enumerate(samples):
            cloud, _ = subsample_cloud(*whole_map_cloud(depth[b], s.K, s.pose),
                                       MAX_ENCODED_POINTS)
            feats.append(encode_point_cloud(cloud, params) if len(cloud) else None)
        pc = [t.data for t in project_pc_tokens(feats, params, fcfg)]
    elif spec.pc == "depth_patches":
        pc = tower(depth[..., None] / DEPTH_SCALE, embed="proj.depth_embed")
    elif spec.pc == "view":
        pc = tower(np.repeat(depth[..., None] / DEPTH_SCALE, 3, axis=-1))
    return img, seg, pc, region_ids


@pytest.fixture(scope="module")
def bundle32():
    return build_dataset(seed=12, n_scenes=2, n_views=2, image_size=32)


def model_cfg32(variant, vocab_size):
    """32x32 images: the cloud raster strides 4 pixels, 64 cell centres."""
    return ModelConfig(
        variant=variant,
        spatial=SpatialBlockConfig(
            image_size=32, encoder_blocks=1, encoder_dim=16, encoder_heads=2,
            depth_decoder_stages=2, seg_classes=8,
            pc_hidden=8, pc_feature_dim=8,
        ),
        fusion=FusionConfig(d_token=16, lm_layers=1, lm_heads=2,
                            vocab_size=vocab_size, max_seq_len=256,
                            image_patch=8),
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_modality_tokens_match_whole_map_composition(bundle32, variant):
    """The heads at the cell centres and on the cloud raster give the tokens
    of the whole-map composition byte for byte, at batch sizes 1 and 3."""
    model = Model.build(model_cfg32(variant, len(bundle32.vocab)), seed=8)
    for samples in (bundle32.samples[:1], bundle32.samples[1:4]):
        want = whole_map_bundles(model, samples)
        got = model.modality_tokens_batch(samples)
        for i, bundle in enumerate(got):
            for name, ref in zip(("img_toks", "seg_toks", "pc_toks"), want):
                tok = getattr(bundle, name)
                assert (tok is None) == (ref[i] is None), name
                if tok is not None:
                    assert tok.data.tobytes() == ref[i].tobytes(), name
            assert bundle.seg_class_ids == want[3][i]


def test_subsample_cloud_deterministic_and_bounded():
    """The cloud raster is fixed, bounded by MAX_ENCODED_POINTS and, where
    every depth is positive, the stride-subsampled cloud of every pixel."""
    s = build_dataset(seed=1, n_scenes=1, n_views=1, image_size=16).samples[0]
    for side in (8, 16, 32, 48):
        raster = cloud_raster(side)
        assert len(raster) <= MAX_ENCODED_POINTS
        np.testing.assert_array_equal(raster, cloud_raster(side))
        depth = np.random.default_rng(side).uniform(0.5, 4.0, (side, side))
        uv = np.stack([raster % side, raster // side], axis=1)
        got = reconstruct_point_cloud(depth.reshape(-1)[raster], s.K, s.pose, uv)
        want, want_pixels = subsample_cloud(*whole_map_cloud(depth, s.K, s.pose),
                                            MAX_ENCODED_POINTS)
        assert got.tobytes() == want.tobytes()
        np.testing.assert_array_equal(uv, want_pixels)


def test_raster_cloud_drops_zero_depth_pixels():
    """A raster pixel whose depth is 0 is dropped and the others keep their
    raster places; a stride over the valid pixels would shift instead."""
    s = build_dataset(seed=1, n_scenes=1, n_views=1, image_size=32).samples[0]
    raster = cloud_raster(32)
    depth = np.random.default_rng(3).uniform(0.5, 4.0, (32, 32))
    depth.reshape(-1)[raster[5]] = 0.0
    uv = np.stack([raster % 32, raster // 32], axis=1)
    cloud = reconstruct_point_cloud(depth.reshape(-1)[raster], s.K, s.pose, uv)
    keep = np.delete(np.arange(len(raster)), 5)
    whole, whole_pixels = whole_map_cloud(depth, s.K, s.pose)
    at = {tuple(p): i for i, p in enumerate(whole_pixels)}
    np.testing.assert_array_equal(cloud, whole[[at[tuple(p)] for p in uv[keep]]])
    _, strided_pixels = subsample_cloud(whole, whole_pixels, MAX_ENCODED_POINTS)
    assert not np.array_equal(strided_pixels, uv[keep])


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
                image_size=16, depth_decoder_stages=2,
            ),
            fusion=FusionConfig(d_token=16, lm_heads=2, vocab_size=10,
                                image_patch=5),
        )
