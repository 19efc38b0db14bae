import numpy as np
import pytest

from ormllm import tensor as T
from ormllm.errors import (
    ConfigurationError,
    ContractError,
    DimensionError,
    DomainError,
    EmptyDomainError,
    EmptyInputError,
)
from ormllm.fusion import FusionConfig, build_fusion_params, project_image_tokens
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import ModelParams, mlp_forward
from ormllm.model import cloud_raster
from ormllm.spatial import (
    SpatialBlockConfig,
    build_spatial_params,
    cell_centres,
    conv1x1,
    depth_head_forward,
    depth_loss,
    encode_point_cloud,
    encoder_forward,
    logits_to_ids,
    region_pool,
    seg_head_forward,
    seg_loss,
    tokens_to_grid,
)
from ormllm.tensor import Tensor

TINY = SpatialBlockConfig(
    image_size=8, encoder_blocks=1, encoder_dim=8, encoder_heads=2,
    depth_decoder_stages=1, seg_classes=3,
    pc_hidden=6, pc_feature_dim=5,
)


def tiny_params(seed=0, **kw):
    params = ModelParams()
    build_spatial_params(params, TINY, np.random.default_rng(seed), **kw)
    return params


def random_image(seed=0, size=8):
    """One image as a batch of one, [1, size, size, 3]."""
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(1, size, size, 3))


def depth_forward(images, params, cfg=TINY):
    """Encoder plus depth decoder: depth [B, H, W] of images [B, H, W, 3]."""
    grid = tokens_to_grid(encoder_forward(images, params, cfg), cfg)
    return depth_head_forward(grid, params, cfg)


# --- depth forward -----------------------------------------------------------


def test_depth_output_shape_and_positivity():
    params = tiny_params()
    d = depth_forward(random_image(), params)
    assert d.shape == (1, 8, 8)
    assert (d.data > 0).all()


def test_depth_forward_deterministic():
    params = tiny_params()
    img = random_image(1)
    a = depth_forward(img, params)
    b = depth_forward(img, params)
    assert a.data.tobytes() == b.data.tobytes()


def test_depth_forward_batch_rows_match_batches_of_one():
    params = tiny_params()
    imgs = np.concatenate([random_image(2), random_image(3)])
    batched = depth_forward(imgs, params)
    for i in range(2):
        alone = depth_forward(imgs[i:i + 1], params)
        np.testing.assert_allclose(batched.data[i], alone.data[0], atol=1e-12)


def test_depth_forward_shape_error():
    params = tiny_params()
    with pytest.raises(DimensionError):
        depth_forward(np.zeros((1, 4, 4, 3)), params)


def _unbatched_calls():
    """Each forward with one item and with a batch of it: an image
    [8, 8, 3], or seg logits [K, 8, 8] with their ids [8, 8]."""
    params = tiny_params()
    fcfg = FusionConfig(d_token=8, lm_layers=1, lm_heads=2, vocab_size=8,
                        max_seq_len=16, image_patch=4)
    build_fusion_params(params, fcfg, TINY, np.random.default_rng(1))
    img = random_image()[0]
    logits, ids = np.zeros((3, 8, 8)), np.ones((8, 8), dtype=np.int64)
    return {
        "encoder_forward": lambda b: encoder_forward(img[None] if b else img,
                                                     params, TINY),
        "project_image_tokens": lambda b: project_image_tokens(
            img[None] if b else img, params, fcfg),
        "seg_loss": lambda b: seg_loss(T.constant(logits[None] if b else logits),
                                       ids[None] if b else ids, TINY),
    }


@pytest.mark.parametrize("name",
                         ["encoder_forward", "project_image_tokens", "seg_loss"])
def test_unbatched_input_is_a_dimension_error(name):
    call = _unbatched_calls()[name]
    call(True)
    with pytest.raises(DimensionError):
        call(False)


# --- depth loss --------------------------------------------------------------


def depth_loss_oracle(pred, gt, lam_l1, lam_grad):
    """Scratch per-pixel reimplementation with explicit loops."""
    H, W = gt.shape
    valid = gt > 0
    l1_terms = [abs(pred[v, u] - gt[v, u]) for v in range(H) for u in range(W) if valid[v, u]]
    l1 = sum(l1_terms) / len(l1_terms)
    du, dv = [], []
    for v in range(H):
        for u in range(W - 1):
            if valid[v, u] and valid[v, u + 1]:
                du.append(abs((pred[v, u + 1] - pred[v, u]) - (gt[v, u + 1] - gt[v, u])))
    for v in range(H - 1):
        for u in range(W):
            if valid[v, u] and valid[v + 1, u]:
                dv.append(abs((pred[v + 1, u] - pred[v, u]) - (gt[v + 1, u] - gt[v, u])))
    term_u = sum(du) / len(du) if du else 0.0
    term_v = sum(dv) / len(dv) if dv else 0.0
    return lam_l1 * l1 + lam_grad * (term_u + term_v)


def test_depth_loss_zero_on_identical():
    gt = np.random.default_rng(0).uniform(0.5, 3.0, (4, 4))
    assert float(depth_loss(T.constant(gt), gt, TINY).data) == 0.0


def test_depth_loss_constant_offset_is_pure_l1():
    cfg = SpatialBlockConfig(
        image_size=8, encoder_blocks=1, encoder_dim=8, encoder_heads=2,
        depth_decoder_stages=1, seg_classes=3,
        lambda_l1=1.0, lambda_grad=1.0,
    )
    gt = np.random.default_rng(1).uniform(0.5, 3.0, (4, 4))
    loss = depth_loss(T.constant(gt + 0.7), gt, cfg)
    np.testing.assert_allclose(float(loss.data), 0.7, atol=1e-12)


def test_depth_loss_matches_scratch_oracle():
    rng = np.random.default_rng(2)
    gt = rng.uniform(0.5, 3.0, (4, 4))
    gt[rng.random((4, 4)) < 0.3] = 0.0
    gt[0, 0] = 1.0  # keep the domain non-empty
    pred = rng.uniform(0.5, 3.0, (4, 4))
    got = float(depth_loss(T.constant(pred), gt, TINY).data)
    want = depth_loss_oracle(pred, gt, TINY.lambda_l1, TINY.lambda_grad)
    np.testing.assert_allclose(got, want, atol=1e-12)


def test_depth_loss_empty_domain():
    with pytest.raises(EmptyDomainError):
        depth_loss(T.constant(np.ones((3, 3))), np.zeros((3, 3)), TINY)


def test_depth_loss_gradcheck_through_network():
    params = tiny_params()
    img = random_image(4)
    rng = np.random.default_rng(5)
    gt = rng.uniform(0.5, 3.0, (1, 8, 8))

    def f():
        return depth_loss(depth_forward(img, params), gt, TINY)

    reports = finite_diff_grad_check(f, params, tol=1e-4, coords_per_tensor=6,
                                     names=[n for n in params.names() if "pc" not in n and "seg" not in n and "region" not in n])
    bad = [(r.name, r.max_rel_error) for r in reports if not r.passed]
    assert not bad, bad


# --- decoder oracles: 1x1 maps after upsampling -----------------------------

TWO_STAGE = SpatialBlockConfig(
    image_size=16, encoder_blocks=1, encoder_dim=8, encoder_heads=2,
    depth_decoder_stages=2, seg_classes=5,
    pc_hidden=6, pc_feature_dim=5,
)


def upsample_first_depth(grid, params, cfg):
    """The depth decoder with every 1x1 skip map applied after upsampling."""
    g, skip_src = grid, grid
    for s in range(cfg.depth_decoder_stages):
        skip_src = T.bilinear_up2(skip_src)
        g = T.conv3x3(T.bilinear_up2(g), params[f"spatial.depth.stage{s}.conv.w"],
                      params[f"spatial.depth.stage{s}.conv.b"])
        g = T.gelu(g + conv1x1(skip_src, params, f"spatial.depth.stage{s}.skip"))
    out = conv1x1(g, params, "spatial.depth.head")
    B, _, H, W = out.shape
    return T.softplus(T.reshape(out, (B, H, W)))


def upsample_first_seg(grid, params, cfg):
    """The seg head as the per-pixel MLP over upsampled features."""
    g = grid
    for _ in range(cfg.depth_decoder_stages):
        g = T.bilinear_up2(g)
    B, C, H, W = g.shape
    flat = T.reshape(T.transpose(g, (0, 2, 3, 1)), (B, H * W, C))
    logits = mlp_forward(flat, params, "spatial.seg.pixel")
    return T.transpose(T.reshape(logits, (B, H, W, cfg.seg_classes)), (0, 3, 1, 2))


def two_stage_grid(seed):
    params = ModelParams()
    build_spatial_params(params, TWO_STAGE, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for name in params.names():  # nonzero biases, so they are tested too
        if name.endswith(".b"):
            params[name].data = rng.normal(size=params[name].shape)
    grid = Tensor(rng.normal(size=(2, 8, 4, 4)), requires_grad=True)
    return params, grid


def run_head(head, params, grid, weights):
    params.zero_grads()
    grid.grad = None
    out = head()
    T.backward(T.sum_(out * T.constant(weights)))
    grads = [grid.grad.copy()] + [t.grad.copy() for t in params.tensors()
                                  if t.grad is not None]
    return out.data, grads


def assert_rel_close(got, want, rel=1e-12):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rel * scale, np.abs(got - want).max() / scale


def test_depth_head_matches_upsample_first_composition():
    params, grid = two_stage_grid(20)
    weights = np.random.default_rng(3).normal(size=(2, 16, 16))
    got = run_head(lambda: depth_head_forward(grid, params, TWO_STAGE), params, grid,
                   weights)
    want = run_head(lambda: upsample_first_depth(grid, params, TWO_STAGE), params,
                    grid, weights)
    assert_rel_close(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert_rel_close(a, b)


def test_seg_head_matches_upsample_first_composition():
    params, grid = two_stage_grid(21)
    weights = np.random.default_rng(4).normal(size=(2, 5, 16, 16))
    got = run_head(lambda: seg_head_forward(grid, params, TWO_STAGE), params, grid,
                   weights)
    want = run_head(lambda: upsample_first_seg(grid, params, TWO_STAGE), params,
                    grid, weights)
    assert_rel_close(got[0], want[0])
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert_rel_close(a, b)


# --- heads at a pixel set -----------------------------------------------------

BASE = SpatialBlockConfig()  # the run configs' decoder widths: C = 64, 32x32


def border_pixels(side):
    """Flat pixels of the four image borders, each border alone and all
    four together."""
    flat = np.arange(side * side).reshape(side, side)
    edges = [flat[0], flat[-1], flat[:, 0], flat[:, -1]]
    return edges + [np.unique(np.concatenate(edges))]


def base_grid(seed, B):
    params = ModelParams()
    build_spatial_params(params, BASE, np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    for name in params.names():  # nonzero biases, so they are tested too
        if name.endswith(".b"):
            params[name].data = rng.normal(scale=0.1, size=params[name].shape)
    g = BASE.grid_size
    return params, Tensor(rng.normal(size=(B, BASE.encoder_dim, g, g)))


@pytest.mark.parametrize("B", [1, 3])
def test_heads_at_pixels_are_the_full_heads_there(B):
    """At the cell centres, the cloud raster and the borders, the heads give
    the full maps' values byte for byte."""
    params, grid = base_grid(30 + B, B)
    with T.no_grad():
        depth = depth_head_forward(grid, params, BASE).data.reshape(B, -1)
        logits = seg_head_forward(grid, params, BASE).data.reshape(
            B, BASE.seg_classes, -1)
        for pixels in [cell_centres(BASE), cloud_raster(BASE.image_size)] + \
                border_pixels(BASE.image_size):
            d = depth_head_forward(grid, params, BASE, pixels)
            lg = seg_head_forward(grid, params, BASE, pixels)
            assert d.shape == (B, len(pixels))
            assert lg.shape == (B, BASE.seg_classes, len(pixels))
            assert d.data.tobytes() == depth[:, pixels].tobytes()
            assert lg.data.tobytes() == logits[:, :, pixels].tobytes()


def test_depth_head_recording_at_pixels_raises():
    """The depth head at pixels is inference-only: its 3x3 conv there has
    no backward."""
    params, grid = two_stage_grid(22)
    pixels = np.array([0, 5, 17, 17, 40, 255, 128, 15, 240])
    with pytest.raises(ContractError, match="inference-only"):
        depth_head_forward(grid, params, TWO_STAGE, pixels)


def test_seg_head_at_pixels_gradients_match_full_head():
    """Under grad, a loss over the seg head at pixels gives the gradients
    of the same loss over the full map with zero weight elsewhere."""
    params, grid = two_stage_grid(22)
    pixels = np.array([0, 5, 17, 17, 40, 255, 128, 15, 240])
    w = np.random.default_rng(5).normal(size=(2, 5, len(pixels)))
    full_w = np.zeros((2, 5, 256))
    np.add.at(full_w, (slice(None), slice(None), pixels), w)
    got = run_head(lambda: seg_head_forward(grid, params, TWO_STAGE, pixels),
                   params, grid, w)
    want = run_head(lambda: seg_head_forward(grid, params, TWO_STAGE), params, grid,
                    full_w.reshape(2, 5, 16, 16))
    assert len(got[1]) == len(want[1])
    for a, b in zip(got[1], want[1]):
        assert_rel_close(a, b)


# --- segmentation ------------------------------------------------------------


def test_seg_logits_shape_and_argmax_map():
    params = tiny_params()
    grid = tokens_to_grid(encoder_forward(random_image(6), params, TINY), TINY)
    logits = seg_head_forward(grid, params, TINY)
    assert logits.shape == (1, 3, 8, 8)
    ids = logits_to_ids(logits.data)
    np.testing.assert_array_equal(ids[0], logits.data[0].argmax(axis=0) + 1)
    assert ids.min() >= 1 and ids.max() <= 3


def test_seg_argmax_tie_breaks_to_smaller_class():
    logits = np.zeros((1, 3, 2, 2))
    logits[0, 0, 0, 0] = 5.0
    logits[0, 2, 0, 0] = 5.0
    assert logits_to_ids(logits)[0, 0, 0] == 1


def test_seg_map_invariant_to_constant_logit_shift():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 3, 4, 4))
    shifted = logits + rng.normal(size=(2, 1, 4, 4))
    np.testing.assert_array_equal(logits_to_ids(logits), logits_to_ids(shifted))


def seg_loss_oracle(logits, gt_ids, lam_dice, eps=1e-6):
    """Scratch softmax/CE/Dice with explicit loops over pixels and classes."""
    K, H, W = logits.shape
    p = np.zeros_like(logits)
    for v in range(H):
        for u in range(W):
            e = np.exp(logits[:, v, u] - logits[:, v, u].max())
            p[:, v, u] = e / e.sum()
    ce = 0.0
    for v in range(H):
        for u in range(W):
            ce -= np.log(p[gt_ids[v, u] - 1, v, u])
    ce /= H * W
    dice_pen = 0.0
    for k in range(1, K + 1):
        y = (gt_ids == k).astype(float)
        inter = float((p[k - 1] * y).sum())
        dice = (2 * inter + eps) / (p[k - 1].sum() + y.sum() + eps)
        dice_pen += 1.0 - dice
    return ce + lam_dice * dice_pen


def test_seg_loss_matches_scratch_oracle():
    rng = np.random.default_rng(8)
    logits = rng.normal(size=(3, 4, 4))
    gt = rng.integers(1, 4, size=(4, 4))
    got = float(seg_loss(T.constant(logits[None]), gt[None], TINY).data)
    np.testing.assert_allclose(got, seg_loss_oracle(logits, gt, TINY.lambda_dice), atol=1e-12)


def test_seg_loss_saturating_logits_approach_zero():
    gt = np.array([[1, 2], [3, 1]])
    for M, bound in [(10.0, 0.01), (30.0, 1e-9)]:
        logits = np.full((3, 2, 2), -M)
        for v in range(2):
            for u in range(2):
                logits[gt[v, u] - 1, v, u] = M
        assert float(seg_loss(T.constant(logits[None]), gt[None], TINY).data) < bound


def test_seg_loss_uniform_logits_balanced_binary_ce_is_ln2():
    cfg = SpatialBlockConfig(
        image_size=8, encoder_blocks=1, encoder_dim=8, encoder_heads=2,
        depth_decoder_stages=1, seg_classes=2, lambda_dice=0.0,
    )
    gt = np.array([[[1, 2], [2, 1]]])
    loss = seg_loss(T.constant(np.zeros((1, 2, 2, 2))), gt, cfg)
    np.testing.assert_allclose(float(loss.data), np.log(2.0), atol=1e-12)


def test_seg_loss_rejects_out_of_range_ids():
    with pytest.raises(DomainError):
        seg_loss(T.constant(np.zeros((1, 3, 2, 2))), np.array([[[0, 1], [1, 2]]]), TINY)
    with pytest.raises(DomainError):
        seg_loss(T.constant(np.zeros((1, 3, 2, 2))), np.array([[[4, 1], [1, 2]]]), TINY)


def test_seg_loss_gradcheck_through_network():
    params = tiny_params()
    img = random_image(9)
    gt = np.random.default_rng(10).integers(1, 4, size=(1, 8, 8))

    def f():
        grid = tokens_to_grid(encoder_forward(img, params, TINY), TINY)
        return seg_loss(seg_head_forward(grid, params, TINY), gt, TINY)

    names = [n for n in params.names() if "pc" not in n and "depth" not in n and "region" not in n]
    reports = finite_diff_grad_check(f, params, tol=1e-4, coords_per_tensor=6, names=names)
    bad = [(r.name, r.max_rel_error) for r in reports if not r.passed]
    assert not bad, bad


# --- region pooling ----------------------------------------------------------


def pool(params, maps, feats):
    """region_pool over a batch given as per-sample id maps and [16, 8]
    cell features; returns each sample's class ids and feature rows."""
    cell_ids = np.stack([m.reshape(-1)[cell_centres(TINY)] for m in maps])
    out, ids = region_pool(cell_ids, T.constant(np.stack(feats)), params, TINY)
    bounds = np.cumsum([0] + [len(i) for i in ids])
    return ids, [out.data[bounds[b]:bounds[b + 1]] for b in range(len(maps))]


def test_region_pool_single_class_is_global_mean():
    from ormllm.nn import mlp_forward

    params = tiny_params()
    rng = np.random.default_rng(11)
    feats = rng.normal(size=(16, 8))
    other = rng.normal(size=(16, 8))
    ones, halves = np.ones((8, 8), dtype=int), np.ones((8, 8), dtype=int)
    halves[:, 4:] = 2
    # Same pooled input as feeding the global mean through the MLP directly.
    direct = mlp_forward(T.constant(feats.mean(axis=0)[None]), params,
                         "spatial.region.phi").data[0]
    for maps, cells, at in (([ones], [feats], 0),
                            ([halves, ones], [other, feats], 1),
                            ([ones, halves, ones], [feats, other, other], 0)):
        ids, rows = pool(params, maps, cells)
        assert ids[at] == [1] and rows[at].shape == (1, 8)
        np.testing.assert_allclose(rows[at][0], direct, atol=1e-12)


def test_region_pool_three_classes_sorted():
    params = tiny_params()
    ids = np.ones((8, 8), dtype=int)
    ids[:, 4:] = 3
    ids[4:, :4] = 2
    two = np.full((8, 8), 3)
    two[2:6, 2:6] = 1
    rng = np.random.default_rng(12)
    feats = [rng.normal(size=(16, 8)) for _ in range(3)]
    got, rows = pool(params, [ids], feats[:1])
    assert got == [[1, 2, 3]] and rows[0].shape == (3, 8)
    got, rows = pool(params, [two, ids, two], feats)
    assert got == [[1, 3], [1, 2, 3], [1, 3]]
    assert [r.shape[0] for r in rows] == [2, 3, 2]


def test_region_pool_mean_is_order_invariant():
    params = tiny_params()
    rng = np.random.default_rng(13)
    feats = rng.normal(size=(16, 8))
    other = rng.normal(size=(16, 8))
    ids = np.ones((8, 8), dtype=int)
    ids[0:2, 0:4] = 2  # covers downsampled cells 0 and 1
    # Swap the features of the two class-2 cells; the mean must not change.
    swapped = feats.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    for before, after in (([feats], [swapped]),
                          ([other, feats], [other, swapped])):
        _, rows1 = pool(params, [ids] * len(before), before)
        _, rows2 = pool(params, [ids] * len(after), after)
        np.testing.assert_array_equal(rows1[-1][1], rows2[-1][1])


def downsample_map(map_ids, grid):
    """Nearest-neighbour reduction of a [H, W] id map to [grid, grid], as
    region pooling read whole predicted maps before it read cell centres."""
    H, W = map_ids.shape
    sy, sx = H // grid, W // grid
    return map_ids[sy // 2 :: sy, sx // 2 :: sx][:grid, :grid]


def test_downsample_map_nearest():
    """Reading a map at the cell centres is its nearest-neighbour reduction
    to the encoder grid, in raster cell order."""
    ids = np.arange(16).reshape(4, 4) + 1
    np.testing.assert_array_equal(downsample_map(ids, 2), [[6, 8], [14, 16]])
    rng = np.random.default_rng(15)
    for cfg in (TINY, TWO_STAGE, SpatialBlockConfig()):
        ids = rng.integers(1, 9, size=(cfg.image_size, cfg.image_size))
        np.testing.assert_array_equal(ids.reshape(-1)[cell_centres(cfg)],
                                      downsample_map(ids, cfg.grid_size).reshape(-1))


def test_region_pool_rejects_mismatched_cell_ids():
    params = tiny_params()
    feats = T.constant(np.zeros((2, 16, 8)))
    for cell_ids in (np.ones((1, 16), dtype=int), np.ones((2, 15), dtype=int)):
        with pytest.raises(DimensionError):
            region_pool(cell_ids, feats, params, TINY)


# --- point cloud encoder -----------------------------------------------------


def test_point_encoder_permutation_invariant_bit_exact():
    params = tiny_params()
    rng = np.random.default_rng(14)
    pts = rng.normal(size=(40, 3))
    base = encode_point_cloud(pts, params).data
    for _ in range(20):
        perm = rng.permutation(40)
        out = encode_point_cloud(pts[perm], params).data
        assert out.tobytes() == base.tobytes()


def test_point_encoder_duplication_invariant():
    params = tiny_params()
    rng = np.random.default_rng(15)
    pts = rng.normal(size=(10, 3))
    base = encode_point_cloud(pts, params).data
    dup = np.concatenate([pts, pts[3:7], pts[:1]])
    assert encode_point_cloud(dup, params).data.tobytes() == base.tobytes()


def test_point_encoder_single_point_is_mlp_output():
    from ormllm.nn import mlp_forward

    params = tiny_params()
    p = np.array([[0.3, -1.2, 2.0]])
    out = encode_point_cloud(p, params)
    direct = mlp_forward(T.constant(p), params, "spatial.pc")
    np.testing.assert_array_equal(out.data, direct.data[0])


def test_point_encoder_empty_cloud_error():
    params = tiny_params()
    with pytest.raises(EmptyInputError):
        encode_point_cloud(np.zeros((0, 3)), params)


def test_point_encoder_feature_width():
    params = tiny_params()
    out = encode_point_cloud(np.ones((5, 3)), params)
    assert out.shape == (5,)  # pc_feature_dim of the tiny config
    assert np.isfinite(out.data).all()


# --- config validation -------------------------------------------------------


def test_config_patch_stage_consistency():
    # The decoder returns to input resolution: the patch side is 2**stages.
    assert SpatialBlockConfig(image_size=32, depth_decoder_stages=3).encoder_patch == 8
    with pytest.raises(ConfigurationError, match="divisible"):
        SpatialBlockConfig(image_size=36, depth_decoder_stages=3)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigurationError):
        SpatialBlockConfig(seg_classes=1)
    with pytest.raises(ConfigurationError):
        SpatialBlockConfig(lambda_grad=-0.1)
