"""Unit checks for the autodiff primitives.

Every primitive's backward pass is verified against central finite
differences computed directly on the numpy buffers, independent of the
graph machinery.
"""

import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from ormllm import tensor as T
from ormllm.errors import ContractError, DimensionError
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import ModelParams, _causal_mask, init_linear, linear
from ormllm.tensor import Tensor


def numeric_grad(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of a scalar function of one array."""
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        saved = flat[i]
        flat[i] = saved + h
        fp = f(x)
        flat[i] = saved - h
        fm = f(x)
        flat[i] = saved
        gf[i] = (fp - fm) / (2.0 * h)
    return g


def check_unary(op, np_ref, shape=(3, 4), scale=1.0, shift=0.0, atol=1e-8):
    rng = np.random.default_rng(0)
    x = rng.normal(size=shape) * scale + shift
    t = Tensor(x.copy(), requires_grad=True)
    weights = rng.normal(size=shape)  # the random weighting
    loss = T.sum_(op(t) * T.constant(weights))
    T.backward(loss)
    num = numeric_grad(lambda a: float((np_ref(a) * weights).sum()), x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=atol)


def test_add_sub_mul_div_broadcast_grads():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)) + 3.0, requires_grad=True)
    w = rng.normal(size=(3, 4))
    loss = T.sum_((a + b) * (a - b) / b * T.constant(w))
    T.backward(loss)

    def ref(av, bv):
        return float(((av + bv) * (av - bv) / bv * w).sum())

    na = numeric_grad(lambda x: ref(x, b.data), a.data.copy())
    nb = numeric_grad(lambda x: ref(a.data, x), b.data.copy())
    np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize(
    "op,ref",
    [
        (T.exp, np.exp),
        (T.softplus, lambda x: np.logaddexp(0.0, x)),
        (T.abs_, np.abs),
        (T.gelu, None),
        (T.neg, lambda x: -x),
    ],
)
def test_unary_grads(op, ref):
    if op is T.gelu:
        from scipy.special import erf

        ref = lambda x: x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    check_unary(op, ref)


def test_log_sqrt_grads():
    check_unary(T.log, np.log, scale=0.5, shift=3.0)
    check_unary(T.sqrt, np.sqrt, scale=0.5, shift=3.0)


def test_gelu_exact_gaussian_cdf_value():
    # Oracle: scalar evaluation of x * Phi(x) via math.erf.
    import math

    x = 1.0
    expected = x * 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))
    got = float(T.gelu(Tensor([x])).data[0])
    assert abs(got - expected) < 1e-15
    assert abs(expected - 0.8413447460685429) < 1e-15
    assert float(T.gelu(Tensor([0.0])).data[0]) == 0.0


def test_matmul_grads_batched():
    rng = np.random.default_rng(2)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    w = rng.normal(size=(2, 3, 5))
    loss = T.sum_(T.matmul(a, b) * T.constant(w))
    T.backward(loss)
    na = numeric_grad(lambda x: float(((x @ b.data) * w).sum()), a.data.copy())
    nb = numeric_grad(lambda x: float(((a.data @ x) * w).sum()), b.data.copy())
    np.testing.assert_allclose(a.grad, na, rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, nb, rtol=1e-6, atol=1e-8)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 2))))


def affine_and_composed(x_shape, bias, d_out=5, seed=3):
    """Output and gradients of T.affine and of matmul + add on one input."""
    rng = np.random.default_rng(seed)
    x0, w0, b0 = (rng.normal(size=x_shape), rng.normal(size=(x_shape[-1], d_out)),
                  rng.normal(size=d_out))
    weights = rng.normal(size=x_shape[:-1] + (d_out,))
    results = []
    for fused in (True, False):
        x, w, b = (Tensor(a.copy(), requires_grad=True) for a in (x0, w0, b0))
        if fused:
            out = T.affine(x, w, b if bias else None)
        else:
            out = T.matmul(x, w) + b if bias else T.matmul(x, w)
        T.backward(T.sum_(out * T.constant(weights)))
        results.append((out.data, x.grad, w.grad, b.grad if bias else None))
    return results


@pytest.mark.parametrize("x_shape", [(6, 4), (1, 4), (3, 7, 4), (2, 1, 4)])
@pytest.mark.parametrize("bias", [True, False])
def test_affine_matches_matmul_add(x_shape, bias):
    (out, *grads), (want_out, *want_grads) = affine_and_composed(x_shape, bias)
    assert out.shape == want_out.shape and out.tobytes() == want_out.tobytes()
    for g, want in zip(grads, want_grads):
        if want is None:
            assert g is None
        else:
            np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


def test_affine_is_one_node_and_checks_shapes():
    x = Tensor(np.ones((2, 3, 4)), requires_grad=True)
    out = T.affine(x, Tensor(np.ones((4, 5))), Tensor(np.ones(5)))
    assert len(T.ComputationTape(out).nodes) == 1
    with pytest.raises(DimensionError):
        T.affine(x, Tensor(np.ones((3, 5))))
    with pytest.raises(DimensionError):
        T.affine(Tensor(np.ones(4)), Tensor(np.ones((4, 5))))


def test_linear_dimension_error_names_prefix():
    params = ModelParams()
    init_linear(params, "head.proj", 4, 2, np.random.default_rng(0))
    with pytest.raises(DimensionError, match="head.proj"):
        linear(Tensor(np.zeros((3, 5))), params, "head.proj")


def test_reductions_and_reshape_grads():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 5))
    t = Tensor(x.copy(), requires_grad=True)
    loss = T.sum_(T.mean(t, axis=1) * T.constant(np.arange(3.0)))
    loss = loss + T.sum_(T.slice_(T.reshape(t, (5, 3)), np.s_[1:3, :]))
    T.backward(loss)

    def ref(a):
        return float(
            (a.mean(axis=1) * np.arange(3.0)).sum() + a.reshape(5, 3)[1:3, :].sum()
        )

    np.testing.assert_allclose(t.grad, numeric_grad(ref, x.copy()), rtol=1e-6, atol=1e-9)


def test_max_reduce_grad_routes_to_first_argmax():
    x = Tensor(np.array([[1.0, 5.0, 5.0], [2.0, 1.0, 0.0]]), requires_grad=True)
    out = T.max_reduce(x, axis=1)
    T.backward(T.sum_(out))
    np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def test_softmax_rows_positive_and_normalized():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(7, 11)) * 30.0
    p = T.softmax(Tensor(x)).data
    assert (p > 0).all()
    np.testing.assert_allclose(p.sum(axis=1), np.ones(7), atol=1e-12)


def test_softmax_log_softmax_grads():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(4, 6))
    w = rng.normal(size=(4, 6))
    for op, ref in [
        (T.softmax, lambda a: np.exp(a) / np.exp(a).sum(axis=-1, keepdims=True)),
        (T.log_softmax, lambda a: a - np.log(np.exp(a).sum(axis=-1, keepdims=True))),
    ]:
        t = Tensor(x.copy(), requires_grad=True)
        T.backward(T.sum_(op(t) * T.constant(w)))
        num = numeric_grad(lambda a: float((ref(a) * w).sum()), x.copy())
        np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)


def test_concat_stack_slice_grads():
    rng = np.random.default_rng(6)
    a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    cat = T.concat([a, b], axis=0)
    st = T.stack([T.slice_(cat, (slice(0, 2), slice(None))), a], axis=0)
    w = rng.normal(size=st.shape)
    T.backward(T.sum_(st * T.constant(w)))
    np.testing.assert_allclose(a.grad, w[0] + w[1], atol=1e-12)
    np.testing.assert_allclose(b.grad, np.zeros((4, 3)), atol=1e-12)


def test_take_flat_and_gather_rows_grads():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    rows = T.gather_rows(table, np.array([1, 1, 3]))
    np.testing.assert_array_equal(rows.data, [[3, 4, 5], [3, 4, 5], [9, 10, 11]])
    T.backward(T.sum_(rows))
    expected = np.zeros((4, 3))
    expected[1] = 2.0
    expected[3] = 1.0
    np.testing.assert_array_equal(table.grad, expected)


def test_take_rows_values_and_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 5, 3))
    rows = np.array([[0, 2, 4], [1, 2, 3]])
    t = Tensor(x.copy(), requires_grad=True)
    out = T.take_rows(t, rows)
    np.testing.assert_array_equal(out.data, np.stack([x[b, rows[b]] for b in range(2)]))
    w = rng.normal(size=out.shape)
    T.backward(T.sum_(out * T.constant(w)))
    num = numeric_grad(lambda a: float((np.stack([a[b, rows[b]] for b in range(2)])
                                        * w).sum()), x.copy())
    np.testing.assert_allclose(t.grad, num, rtol=1e-5, atol=1e-8)
    assert T.take_rows(t, np.zeros((2, 0), dtype=np.int64)).shape == (2, 0, 3)


def test_conv3x3_grads():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3, 5, 4))
    w = rng.normal(size=(2, 3, 3, 3))
    b = rng.normal(size=(2,))
    tw = Tensor(w.copy(), requires_grad=True)
    tb = Tensor(b.copy(), requires_grad=True)
    tx = Tensor(x.copy(), requires_grad=True)
    mix = rng.normal(size=(2, 2, 5, 4))
    T.backward(T.sum_(T.conv3x3(tx, tw, tb) * T.constant(mix)))

    def ref(xv, wv, bv):
        out = np.zeros((2, 2, 5, 4))
        xp = np.pad(xv, ((0, 0), (0, 0), (1, 1), (1, 1)))
        for bi in range(2):
            for o in range(2):
                for i in range(5):
                    for j in range(4):
                        out[bi, o, i, j] = (
                            xp[bi, :, i : i + 3, j : j + 3] * wv[o]
                        ).sum() + bv[o]
        return float((out * mix).sum())

    nx = numeric_grad(lambda a: ref(a, w, b), x.copy())
    nw = numeric_grad(lambda a: ref(x, a, b), w.copy())
    nb = numeric_grad(lambda a: ref(x, w, a), b.copy())
    np.testing.assert_allclose(tx.grad, nx, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(tw.grad, nw, rtol=1e-5, atol=1e-8)
    np.testing.assert_allclose(tb.grad, nb, rtol=1e-5, atol=1e-8)


def test_bilinear_up2_matches_manual_and_grads():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(1, 2, 3, 3))
    t = Tensor(x.copy(), requires_grad=True)
    up = T.bilinear_up2(t)
    assert up.shape == (1, 2, 6, 6)
    # Centers map back to src = dst/2 - 0.25 with edge clamping.
    src = np.maximum(np.arange(6) / 2.0 - 0.25, 0.0)
    i0 = np.minimum(np.floor(src).astype(int), 2)
    f = np.where(np.minimum(i0 + 1, 2) == i0, 0.0, src - i0)
    i1 = np.minimum(i0 + 1, 2)
    manual = np.zeros((1, 2, 6, 6))
    for a in range(6):
        for b in range(6):
            rows = x[:, :, i0[a], :] * (1 - f[a]) + x[:, :, i1[a], :] * f[a]
            manual[:, :, a, b] = rows[:, :, i0[b]] * (1 - f[b]) + rows[:, :, i1[b]] * f[b]
    np.testing.assert_allclose(up.data, manual, atol=1e-12)
    w = rng.normal(size=(1, 2, 6, 6))
    T.backward(T.sum_(up * T.constant(w)))

    def ref(a):
        m = np.zeros((1, 2, 6, 6))
        for i in range(6):
            for j in range(6):
                rows = a[:, :, i0[i], :] * (1 - f[i]) + a[:, :, i1[i], :] * f[i]
                m[:, :, i, j] = rows[:, :, i0[j]] * (1 - f[j]) + rows[:, :, i1[j]] * f[j]
        return float((m * w).sum())

    np.testing.assert_allclose(t.grad, numeric_grad(ref, x.copy()), rtol=1e-6, atol=1e-9)


def conv3x3_tensordot(x, w, b, g):
    """The nine-tensordot convolution that conv3x3 replaced: forward output
    and the gradients of x, w and b for the output adjoint g."""
    B, C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    acc = np.zeros((B, H, W, O))
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + H, dj : dj + W]
            acc += np.tensordot(patch, w[:, :, di, dj], axes=([1], [1]))
    out = acc.transpose(0, 3, 1, 2) + b[None, :, None, None]
    gw = np.zeros_like(w)
    gx_pad = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, :, di : di + H, dj : dj + W]
            gw[:, :, di, dj] = np.tensordot(g, patch, axes=([0, 2, 3], [0, 2, 3]))
            gx_pad[:, :, di : di + H, dj : dj + W] += np.tensordot(
                g, w[:, :, di, dj], axes=([1], [0])
            ).transpose(0, 3, 1, 2)
    return out, gx_pad[:, :, 1 : 1 + H, 1 : 1 + W], gw, g.sum(axis=(0, 2, 3))


def assert_rel_close(got, want, rel):
    scale = np.abs(want).max()
    assert np.abs(got - want).max() <= rel * scale, np.abs(got - want).max() / scale


@pytest.mark.parametrize("B,C,O,H,W", [(1, 3, 5, 6, 4), (3, 4, 2, 5, 7),
                                       (3, 16, 8, 8, 16)])
def test_conv3x3_matches_tensordot_oracle(B, C, O, H, W):
    rng = np.random.default_rng(B * 100 + C)
    x, w, b = rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, 3, 3)), rng.normal(size=O)
    g = rng.normal(size=(B, O, H, W))
    tx, tw, tb = (Tensor(a.copy(), requires_grad=True) for a in (x, w, b))
    out = T.conv3x3(tx, tw, tb)
    T.backward(T.sum_(out * T.constant(g)))
    want = conv3x3_tensordot(x, w, b, g)
    for got, ref in zip((out.data, tx.grad, tw.grad, tb.grad), want):
        assert got.shape == ref.shape
        assert_rel_close(got, ref, 1e-12)


@pytest.mark.parametrize("B,C,O,H,W", [(1, 3, 5, 6, 4), (3, 4, 2, 5, 7)])
def test_conv3x3_at_pixels_is_the_full_conv_there(B, C, O, H, W):
    """At flat pixels (borders, corners and a repeat) conv3x3 returns the
    full output's values there, up to rounding (a GEMM's bytes may change
    with its row count at shapes this small). It records no gradient there:
    under grad it raises."""
    rng = np.random.default_rng(B * 10 + C)
    x, w, b = rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, 3, 3)), rng.normal(size=O)
    pixels = np.array([0, W - 1, H * W - W, H * W - 1, W + 1, W + 1, 2 * W])
    tx, tw, tb = (Tensor(a, requires_grad=True) for a in (x, w, b))
    with T.no_grad():
        out = T.conv3x3(tx, tw, tb, pixels=pixels)
    full = T.conv3x3(x, w, b).data
    assert out.shape == (B, O, len(pixels)) and out.node is None
    assert_rel_close(out.data, full.reshape(B, O, -1)[:, :, pixels], 1e-12)
    with pytest.raises(ContractError, match="inference-only"):
        T.conv3x3(tx, w, b, pixels=pixels)


def conv3x3_whole_sample_gemm(x, w, b, pixels=None):
    """conv3x3's forward before its row blocks: one GEMM per sample over
    all of its columns (or its pixels' rows) into a [B, rows, O]
    accumulator, moved to channel-first, plus the bias."""
    B, C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (1, 1), (1, 1), (0, 0)))
    w2 = w.transpose(2, 3, 1, 0).reshape(9 * C, O)
    rows = H * W if pixels is None else len(pixels)
    acc = np.empty((B, rows, O))
    for i in range(B):
        acc[i] = T._im2col(xp[i], pixels) @ w2
    spatial = (H, W) if pixels is None else (rows,)
    return (np.moveaxis(acc.reshape((B,) + spatial + (O,)), -1, 1)
            + b.reshape((O,) + (1,) * len(spatial)))


@pytest.mark.parametrize("B,C,O,H,W", [
    (8, 64, 64, 32, 32),   # the run config's last depth stage: 4 blocks
    (8, 64, 64, 16, 16),   # its first stage: one block
    (1, 64, 64, 37, 23),   # 851 pixels: runs of 12, 12 and 13 rows
    (2, 16, 8, 27, 29),    # 783 pixels: three runs of 9 rows
    (2, 3, 5, 23, 40),     # 920 pixels: runs of 7, 8 and 8 rows
    (1, 16, 16, 17, 31),   # 527 pixels, but two runs would leave one short
    (1, 4, 4, 3, 300),     # rows wider than a block
    (3, 4, 2, 5, 7),       # smaller than a block
])
def test_conv3x3_keeps_the_whole_sample_gemm_bytes(B, C, O, H, W):
    """Forming the columns a block of rows at a time, straight into the
    channel-first output, keeps every byte of one GEMM over the whole
    sample, including maps whose pixel count is no multiple of the block;
    every block holds at least _CONV_BLOCK_PIXELS pixels, or the whole map.
    At pixels (borders, corners and a repeat), one GEMM over their rows
    keeps its bytes too."""
    rng = np.random.default_rng(H * W)
    x, w, b = rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, 3, 3)), rng.normal(size=O)
    pixels = np.array([0, W - 1, H * W - W, H * W - 1, W + 1, W + 1, 2 * W])
    with T.no_grad():
        at = T.conv3x3(x, w, b, pixels=pixels).data
    for got, want in ((T.conv3x3(x, w, b).data, conv3x3_whole_sample_gemm(x, w, b)),
                      (at, conv3x3_whole_sample_gemm(x, w, b, pixels))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    blocks = T._row_blocks(H, W)
    assert blocks[0][0] == 0 and blocks[-1][1] == H
    assert all(h1 == h0 for (_, h1), (h0, _) in zip(blocks, blocks[1:]))
    assert len(blocks) == 1 or min((h1 - h0) * W for h0, h1 in blocks) >= T._CONV_BLOCK_PIXELS


def test_conv3x3_finite_diff_grad_check():
    rng = np.random.default_rng(12)
    params = ModelParams()
    params.add("x", rng.normal(size=(2, 3, 5, 4)))
    params.add("w", rng.normal(size=(4, 3, 3, 3)))
    params.add("b", rng.normal(size=(4,)))
    mix = T.constant(rng.normal(size=(2, 4, 5, 4)))

    def loss():
        out = T.conv3x3(params["x"], params["w"], params["b"])
        return T.sum_(T.gelu(out) * mix)

    reports = finite_diff_grad_check(loss, params)
    assert [r.name for r in reports] == ["x", "w", "b"]
    assert all(r.passed for r in reports), reports


@pytest.mark.parametrize("shape", [(1, 1, 2, 2), (3, 8, 4, 4), (8, 64, 8, 8),
                                   (2, 8, 3, 5), (3, 1, 16, 8), (1, 64, 16, 32)])
def test_bilinear_up2_bytes_match_einsum_form(shape):
    rng = np.random.default_rng(sum(shape))
    x = rng.normal(size=shape)
    rh, rw = T._up2_matrix(shape[2]), T._up2_matrix(shape[3])
    want = np.einsum("ih,bchw->bciw", rh, x, optimize=True)
    want = np.einsum("jw,bciw->bcij", rw, want, optimize=True)
    g = rng.normal(size=want.shape)
    want_g = np.einsum("jw,bcij->bciw", rw, g, optimize=True)
    want_g = np.einsum("ih,bciw->bchw", rh, want_g, optimize=True)
    t = Tensor(x, requires_grad=True)
    up = T.bilinear_up2(t)
    T.backward(T.sum_(up * T.constant(g)))
    assert up.data.tobytes() == want.tobytes()
    assert t.grad.tobytes() == want_g.tobytes()


def test_up2_matrix_rows_are_convex_quarter_weights():
    # The property that lets per-pixel affine maps move before upsampling.
    for n in (1, 2, 3, 8, 16):
        m = T._up2_matrix(n)
        assert np.array_equal(m.sum(axis=1), np.ones(2 * n))
        assert set(np.unique(m)) <= {0.0, 0.25, 0.75, 1.0}


def test_gelu_matches_erfc_form_over_range():
    from scipy.special import erfc

    x = np.linspace(-8.0, 8.0, 40001)
    want = 0.5 * erfc(-x / np.sqrt(2.0)) * x
    got = T.gelu(Tensor(x)).data
    nz = want != 0.0
    assert np.all(got[~nz] == 0.0)
    assert np.max(np.abs(got[nz] - want[nz]) / np.abs(want[nz])) < 1e-13


@pytest.mark.parametrize("shape", [(1, 1, 64), (8, 12, 64), (3, 190, 64)])
def test_layer_norm_bytes_match_mean_form(shape):
    rng = np.random.default_rng(shape[1])
    x = rng.normal(size=shape) * 3.0 + 0.5
    g = rng.normal(size=shape[-1:])
    b = rng.normal(size=shape[-1:])
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    want = g * (xc * (1.0 / np.sqrt(var + 1e-6))) + b
    assert T.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data.tobytes() == want.tobytes()


def test_layer_norm_grads():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 6))
    g = rng.normal(size=(6,)) + 1.0
    b = rng.normal(size=(6,))
    w = rng.normal(size=(3, 6))
    tx, tg, tb = (Tensor(a.copy(), requires_grad=True) for a in (x, g, b))
    T.backward(T.sum_(T.layer_norm(tx, tg, tb) * T.constant(w)))

    def ref(xv, gv, bv):
        mu = xv.mean(-1, keepdims=True)
        xc = xv - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(-1, keepdims=True) + 1e-6)
        return float(((gv * xc * inv + bv) * w).sum())

    np.testing.assert_allclose(
        tx.grad, numeric_grad(lambda a: ref(a, g, b), x.copy()), rtol=1e-5, atol=1e-8
    )
    np.testing.assert_allclose(
        tg.grad, numeric_grad(lambda a: ref(x, a, b), g.copy()), rtol=1e-5, atol=1e-8
    )
    np.testing.assert_allclose(
        tb.grad, numeric_grad(lambda a: ref(x, g, a), b.copy()), rtol=1e-5, atol=1e-8
    )


def test_backward_sum_gives_ones():
    x = Tensor(np.random.default_rng(0).normal(size=(2, 5)), requires_grad=True)
    T.backward(T.sum_(x))
    np.testing.assert_array_equal(x.grad, np.ones((2, 5)))


def test_backward_square_sum():
    x = Tensor(np.array([3.0, -2.0]), requires_grad=True)
    T.backward(T.sum_(x * x))
    np.testing.assert_array_equal(x.grad, [6.0, -4.0])


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ContractError):
        T.backward(x + x)


def test_backward_with_an_adjoint_is_that_of_its_weighted_sum():
    """Given an output's adjoint, backward forms the gradients of
    sum(out * adjoint), byte for byte; an adjoint of another shape raises."""
    rng = np.random.default_rng(11)
    x, w, adj = rng.normal(size=(3, 4)), rng.normal(size=(4, 5)), rng.normal(size=(3, 5))
    grads = []
    for seeded in (True, False):
        tx, tw = Tensor(x, requires_grad=True), Tensor(w, requires_grad=True)
        out = T.gelu(T.matmul(tx, tw))
        if seeded:
            T.backward(out, adj)
        else:
            T.backward(T.sum_(out * T.constant(adj)))
        grads.append((tx.grad.tobytes(), tw.grad.tobytes()))
    assert grads[0] == grads[1]
    with pytest.raises(ContractError, match="adjoint shape"):
        T.backward(T.matmul(Tensor(x, requires_grad=True), w), adj.T)


def test_backward_gives_grad_to_leaves_only():
    """A backward deposits into leaves alone: a non-leaf output it starts
    from keeps grad None, whether seeded with an adjoint or a scalar loss,
    and the leaf gradients keep the bytes of the weighted-sum backward. A
    leaf output takes the seed as its gradient, in an array of its own."""
    rng = np.random.default_rng(12)
    x, adj = rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    tx = Tensor(x, requires_grad=True)
    out = T.gelu(tx * tx)
    T.backward(out, adj)
    assert out.grad is None
    want = Tensor(x, requires_grad=True)
    T.backward(T.sum_(T.gelu(want * want) * T.constant(adj)))
    assert tx.grad.tobytes() == want.grad.tobytes()
    loss = T.sum_(T.gelu(Tensor(x, requires_grad=True)))
    T.backward(loss)
    assert loss.grad is None
    leaf = Tensor(x, requires_grad=True)
    T.backward(leaf, adj)
    assert leaf.grad.tobytes() == adj.tobytes() and leaf.grad is not adj


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
def test_item_reads_any_size_one_shape(shape):
    v = Tensor(np.full(shape, 2.5)).item()
    assert type(v) is float and v == 2.5


def test_item_rejects_size_other_than_one():
    with pytest.raises(ContractError, match=r"\(2,\)"):
        Tensor(np.ones(2)).item()


def test_backward_deterministic_bit_identical():
    rng = np.random.default_rng(10)
    x0 = rng.normal(size=(4, 4))
    grads = []
    for _ in range(2):
        x = Tensor(x0.copy(), requires_grad=True)
        y = T.softmax(T.matmul(x, x) + T.gelu(x))
        T.backward(T.sum_(y * y))
        grads.append(x.grad.copy())
    assert grads[0].tobytes() == grads[1].tobytes()


def test_unreachable_leaf_keeps_grad_none():
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    T.backward(T.sum_(a * a))
    np.testing.assert_array_equal(a.grad, np.full(3, 2.0))
    assert b.grad is None


def test_no_grad_disables_recording():
    x = Tensor(np.ones(3), requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert y.node is None and not y.requires_grad


def test_diamond_graph_accumulates_once_per_node():
    x = Tensor(np.array([2.0]), requires_grad=True)
    a = x * 3.0
    loss = T.sum_(a * a + a)
    tape = T.ComputationTape(loss)
    n_nodes = len(tape.nodes)
    T.backward(loss)
    # d/dx (9x^2 + 3x) = 18x + 3 = 39 at x=2
    np.testing.assert_allclose(x.grad, [39.0])
    assert n_nodes == 4  # mul(x,3), mul(a,a), add, sum


def test_backward_frees_the_graph_while_the_loss_lives():
    x = Tensor(np.ones((3, 4)), requires_grad=True)
    h = T.exp(x * 2.0)
    probe = weakref.ref(h.data)
    loss = T.sum_(h * h)
    del h
    T.backward(loss)
    assert probe() is None
    assert loss.item() == pytest.approx(12.0 * np.exp(4.0))  # the value stays


def test_backward_through_a_released_graph_raises():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    h = T.exp(x)
    loss = T.sum_(h * h)
    T.backward(loss)
    first = x.grad.copy()
    with pytest.raises(ContractError, match="released"):
        T.backward(loss)
    with pytest.raises(ContractError, match="released"):
        T.backward(T.sum_(h * 3.0))
    assert x.grad.tobytes() == first.tobytes()


# ---------------------------------------------------------------------------
# Memory contract: a graph holds only what its backward formulas read
# ---------------------------------------------------------------------------


def up2_np(x):
    return (T._up2_matrix(x.shape[2]) @ x) @ T._up2_matrix(x.shape[3]).T


_rng = np.random.default_rng(40)
CONV_W, CONV_B = _rng.normal(size=(3, 2, 3, 3)), _rng.normal(size=3)
ADD_B = _rng.normal(size=(1, 2, 1, 4))
DROPPED_OUTPUT_CASES = {
    "bilinear_up2": (lambda x: T.bilinear_up2(x), up2_np),
    "conv3x3": (lambda x: T.conv3x3(x, T.constant(CONV_W), T.constant(CONV_B)),
                lambda x: conv3x3_tensordot(x, CONV_W, CONV_B,
                                            np.zeros((2, 3, 3, 4)))[0]),
    "add": (lambda x: T.add(x, T.constant(ADD_B)), lambda x: x + ADD_B),
}


@pytest.mark.parametrize("name", sorted(DROPPED_OUTPUT_CASES))
def test_dropped_output_dies_before_backward(name):
    """An op's output data lives only while the caller holds it: the node
    that consumes it (a product with a constant) saves the constant alone."""
    op, ref = DROPPED_OUTPUT_CASES[name]
    rng = np.random.default_rng(41)
    x0 = rng.normal(size=(2, 2, 3, 4))
    x = Tensor(x0.copy(), requires_grad=True)
    y = op(x)
    weights = rng.normal(size=y.shape)
    probe = weakref.ref(y.data)
    loss = T.sum_(y * T.constant(weights))
    del y
    assert probe() is None
    T.backward(loss)
    num = numeric_grad(lambda a: float((ref(a) * weights).sum()), x0.copy())
    np.testing.assert_allclose(x.grad, num, rtol=1e-6, atol=1e-8)


def chain_grads(keep_intermediates: bool):
    """Gradients of conv3x3 -> add -> gelu -> bilinear_up2 -> affine (tracked
    weight) -> layer_norm -> attention_core, as bytes, with every
    intermediate held by the caller or each one dropped as it is used."""
    rng = np.random.default_rng(42)
    leaves = {
        "x": rng.normal(size=(2, 3, 4, 4)), "cw": rng.normal(size=(2, 3, 3, 3)) * 0.3,
        "cb": rng.normal(size=2), "skip": rng.normal(size=(2, 2, 4, 4)),
        "w": rng.normal(size=(8, 6)) * 0.3, "gain": 1.0 + 0.1 * rng.normal(size=6),
        "bias": 0.1 * rng.normal(size=6),
    }
    weights = rng.normal(size=(2, 16, 6))
    t = {k: Tensor(v.copy(), requires_grad=True) for k, v in leaves.items()}
    held = []
    h = T.conv3x3(t["x"], t["cw"], t["cb"])
    for step in (lambda h: h + t["skip"], T.gelu, T.bilinear_up2,
                 lambda h: T.affine(h, t["w"]),
                 lambda h: T.reshape(h, (2, 16, 6)),
                 lambda h: T.layer_norm(h, t["gain"], t["bias"]),
                 lambda h: T.attention_core(h, h, h, heads=2)):
        if keep_intermediates:
            held.append(h)
        h = step(h)
    loss = T.sum_(h * T.constant(weights))
    del h
    T.backward(loss)
    return {k: v.grad.tobytes() for k, v in t.items()}


def test_chain_grads_do_not_depend_on_held_intermediates():
    assert chain_grads(keep_intermediates=True) == chain_grads(keep_intermediates=False)


def every_primitive_loss():
    """A scalar loss whose graph records every primitive at least once."""
    rng = np.random.default_rng(43)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 6)) * 0.3, requires_grad=True)
    cw = Tensor(rng.normal(size=(3, 3, 3, 3)) * 0.3, requires_grad=True)
    h = T.bilinear_up2(T.gelu(T.conv3x3(x, cw, T.constant(np.zeros(3)))))
    h = T.reshape(T.transpose(T.slice_(h, np.s_[:, :, :4, :4]), (0, 2, 1, 3)), (2, 12, 4))
    h = T.affine(h, w, T.constant(np.ones(6)))
    h = T.layer_norm(h, Tensor(np.ones(6), requires_grad=True), T.constant(np.zeros(6)))
    h = T.attention_core(h, h, h, heads=2)
    h = T.concat([h, T.take_rows(h, np.array([[0, 1], [2, 3]]))], axis=1)
    h = T.stack([h, -h], axis=0) / (T.exp(h) + 2.0)
    pos = T.softplus(h) + T.abs_(h) + 0.5
    s = (T.sum_(T.log(pos)) + T.mean(T.sqrt(pos) - pos)
         + T.sum_(T.max_reduce(T.softmax(h, axis=-1), axis=0))
         + T.sum_(T.log_softmax(h) * T.constant(rng.normal(size=h.shape)))
         + T.sum_(T.take_flat(h, np.array([0, 5, 5])))
         + T.sum_(T.gather_rows(w, np.array([1, 3])))
         + T.sum_(T.logsumexp(h, axis=-1))
         + T.sum_(T.masked_nll(T.reshape(h, (4, 14, 6)), np.zeros((4, 14), dtype=np.int64),
                               np.ones((4, 14), dtype=bool)))
         + T.sum_(T.matmul(T.reshape(h, (56, 6)), T.transpose(w, (1, 0)))))
    return s


def test_no_node_holds_an_input_tensor():
    """Every link is a producer node, a leaf that takes a gradient or None;
    every backward closure holds arrays and shapes, never a Tensor."""
    loss = every_primitive_loss()
    nodes = T.ComputationTape(loss).nodes
    kinds = {node.backward_fn.__qualname__.split(".")[0] for node in nodes}
    assert {"conv3x3", "bilinear_up2", "gelu", "affine", "layer_norm", "attention_core",
            "take_rows", "concat", "stack", "slice_", "transpose", "reshape", "masked_nll",
            "take_flat", "max_reduce", "softmax", "log_softmax", "matmul"} <= kinds
    for node in nodes:
        for link in node.inputs:
            assert (link is None or isinstance(link, T.Node)
                    or (link.node is None and link.requires_grad)), link
        for cell in node.backward_fn.__closure__ or ():
            assert not isinstance(cell.cell_contents, Tensor), node.backward_fn.__qualname__


def test_gelu_saves_only_its_slope_and_forms_none_unrecorded(monkeypatch):
    x = Tensor(np.linspace(-3.0, 3.0, 7), requires_grad=True)
    saved = [c.cell_contents for c in T.gelu(x).node.backward_fn.__closure__]
    assert len(saved) == 1 and saved[0].shape == x.shape

    def no_exp(*args, **kwargs):
        raise AssertionError("the slope's pdf was formed")

    monkeypatch.setattr(T.np, "exp", no_exp)
    with T.no_grad():
        assert T.gelu(x).node is None
    assert T.gelu(T.constant(x.data)).node is None
    with pytest.raises(AssertionError, match="pdf"):
        T.gelu(x)


# ---------------------------------------------------------------------------
# Ownership rule: a primitive writes in place only into arrays it allocated
# ---------------------------------------------------------------------------


def frozen(a) -> np.ndarray:
    """A read-only float64 copy: any in-place write into it raises."""
    a = np.array(a, dtype=np.float64)
    a.flags.writeable = False
    return a


# Input shapes and the op on leaf tensors, in input order.
OWNERSHIP_CASES = {
    "add": ([(3, 4), (1, 4)], T.add),
    "sub": ([(3, 4), (3, 1)], T.sub),
    "mul": ([(3, 4), (4,)], T.mul),
    "div": ([(3, 4), (3, 4)], T.div),
    "neg": ([(3, 4)], T.neg),
    "exp": ([(3, 4)], T.exp),
    "log": ([(3, 4)], T.log),
    "sqrt": ([(3, 4)], T.sqrt),
    "abs_": ([(3, 4)], T.abs_),
    "gelu": ([(3, 4)], T.gelu),
    "gelu, 0-d": ([()], T.gelu),
    "softplus": ([(3, 4)], T.softplus),
    "matmul": ([(2, 3, 4), (4, 5)], T.matmul),
    "affine": ([(2, 3, 4), (4, 5), (5,)], T.affine),
    "sum_": ([(3, 4)], lambda a: T.sum_(a, axis=1)),
    "mean": ([(3, 4)], lambda a: T.mean(a, axis=0, keepdims=True)),
    "max_reduce": ([(3, 4)], lambda a: T.max_reduce(a, axis=1)),
    "softmax": ([(3, 4)], T.softmax),
    "log_softmax": ([(3, 4)], T.log_softmax),
    "masked_nll": ([(2, 3, 5)], lambda a: T.masked_nll(
        a, np.array([[0, 1, 4], [2, 2, 3]]), np.array([[True, False, True]] * 2))),
    "reshape": ([(3, 4)], lambda a: T.reshape(a, (4, 3))),
    "transpose": ([(2, 3, 4)], lambda a: T.transpose(a, (2, 0, 1))),
    "concat": ([(2, 3), (1, 3)], lambda a, b: T.concat([a, b], axis=0)),
    "stack": ([(2, 3), (2, 3)], lambda a, b: T.stack([a, b], axis=1)),
    "slice_": ([(3, 4)], lambda a: T.slice_(a, np.s_[1:, ::2])),
    "take_flat": ([(3, 4)], lambda a: T.take_flat(a, np.array([0, 5, 5, 11]))),
    "take_rows": ([(2, 4, 3)], lambda a: T.take_rows(a, np.array([[0, 2], [3, 1]]))),
    "conv3x3": ([(2, 3, 4, 5), (2, 3, 3, 3), (2,)], T.conv3x3),
    "conv3x3, frozen weight": ([(2, 2, 4, 5)], lambda x: T.conv3x3(
        x, T.constant(frozen(CONV_W)), T.constant(frozen(CONV_B)))),
    "bilinear_up2": ([(2, 3, 4, 5)], T.bilinear_up2),
    "layer_norm": ([(2, 3, 4), (4,), (4,)], T.layer_norm),
    "attention_core": ([(2, 5, 4)] * 3, lambda q, k, v: T.attention_core(q, k, v, 2)),
    "attention_core, masked": ([(2, 5, 4)] * 3, lambda q, k, v: T.attention_core(
        q, k, v, 2, frozen(_causal_mask(5)))),
    "attention_core, cached k/v": ([(2, 5, 4), (2, 2, 7, 2), (2, 2, 7, 2)],
                                   lambda q, k, v: T.attention_core(
                                       q, k, v, 2, frozen(_causal_mask(5, past=2)))),
}


@pytest.mark.parametrize("name", sorted(OWNERSHIP_CASES))
def test_primitive_writes_into_no_input_output_or_adjoint(name):
    """With read-only input arrays, a read-only output and a read-only
    incoming adjoint, every primitive runs its forward and backward: what a
    primitive was handed or has handed out, it only reads."""
    shapes, op = OWNERSHIP_CASES[name]
    rng = np.random.default_rng(44)
    leaves = [Tensor(frozen(rng.uniform(0.5, 1.5, size=s)), requires_grad=True)
              for s in shapes]
    y = op(*leaves)
    y.data.flags.writeable = False
    grads = y.node.backward_fn(frozen(rng.normal(size=y.shape)))
    assert [np.shape(g) for g in grads[: len(leaves)]] == [t.shape for t in leaves]


def gelu_oracle(x, g):
    """The out-of-place gelu: its value, slope and input gradient."""
    from scipy.special import ndtr

    phi = ndtr(x)
    pdf = np.exp(-0.5 * x * x) * T._INV_SQRT_2PI
    slope = phi + x * pdf
    return x * phi, slope, g * slope


@pytest.mark.parametrize("shape", [(), (7,), (4, 6, 5)])
@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_gelu_bytes_match_out_of_place_oracle(shape, layout):
    rng = np.random.default_rng(46)
    x = rng.normal(size=shape) * 3.0
    if x.ndim:
        x.reshape(-1)[:9] = [-40.0, -8.0, -1e-300, -0.0, 0.0, 1e-300, 8.0, 40.0, 1.0][: x.size]
    if layout == "transposed":
        x = x.T
    g = rng.normal(size=x.shape)
    want_out, want_slope, want_grad = gelu_oracle(x, g)
    with T.no_grad():
        assert T.gelu(Tensor(x)).data.tobytes() == np.asarray(want_out).tobytes()
    y = T.gelu(Tensor(x, requires_grad=True))
    (slope,) = [c.cell_contents for c in y.node.backward_fn.__closure__]
    assert y.data.tobytes() == np.asarray(want_out).tobytes()
    assert slope.tobytes() == np.asarray(want_slope).tobytes()
    (grad,) = y.node.backward_fn(g)
    assert grad.tobytes() == np.asarray(want_grad).tobytes()


def attention_oracle(q, k, v, heads, mask, g):
    """The out-of-place attention_core that stores its probabilities: output
    and q, k, v gradients, the backward reading the forward's P."""
    B, n, d = q.shape
    split_kv = k.ndim == 3
    qh = T.split_heads(q, heads)
    kh = T.split_heads(k, heads) if split_kv else k
    vh = T.split_heads(v, heads) if split_kv else v
    scale = 1.0 / np.sqrt(d // heads)
    scores = (qh @ kh.transpose(0, 1, 3, 2).copy()) * scale
    if mask is not None:
        scores = scores + mask
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=-1, keepdims=True)
    attn = probs @ vh
    out = attn.transpose(0, 2, 1, 3).copy().reshape(B, n, d)
    ga = T.split_heads(g, heads)
    gv = np.swapaxes(probs, -1, -2) @ ga
    gp = ga @ np.swapaxes(vh, -1, -2)
    rowdot = (ga * attn).sum(axis=-1, keepdims=True)
    gs = probs * (gp - rowdot) * scale
    gq, gk = gs @ kh, np.swapaxes(gs, -1, -2) @ qh

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(B, t.shape[2], d)

    if split_kv:
        return out, merge(gq), merge(gk), merge(gv)
    return out, merge(gq), gk, gv


ATTENTION_CASES = ["unmasked", "masked", "rows window", "pre-split k/v",
                   "cached k/v", "cached k/v, rows window"]


def attention_case(case, rng, B=3, n=6, d=16, heads=4):
    """q, k, v and the mask of one attention_core call as the blocks make
    it: self-attention over n rows; the queries of a rows window only (the
    last block at the rows a loss reads); keys and values split into heads
    with 5 earlier rows before the n (a KV cache)."""
    split = "k/v" in case
    past = 5 if split else 0
    rows = np.array([[0, 2, 5], [1, 3, 4], [3, 4, 5]])[:B] if "rows" in case else None
    if split:
        k, v = rng.normal(size=(2, B, heads, past + n, d // heads))
    else:
        k, v = rng.normal(size=(2, B, n, d))
    q = rng.normal(size=(B, n if rows is None else rows.shape[1], d))
    mask = None
    if case not in ("unmasked", "pre-split k/v"):
        mask = _causal_mask(n, past, rows)[..., None, :, :]
    return q, k, v, heads, mask


@pytest.mark.parametrize("case", ATTENTION_CASES)
def test_attention_core_bytes_match_out_of_place_oracle(case):
    """The backward rebuilds the probabilities rather than storing them,
    and every output and gradient keeps the bytes of the oracle that
    stores them; the closure holds no [B, heads, n, m] array."""
    rng = np.random.default_rng(47)
    q, k, v, heads, mask = attention_case(case, rng)
    B, n = q.shape[:2]
    m = k.shape[1] if k.ndim == 3 else k.shape[2]
    g = rng.normal(size=q.shape)
    want = attention_oracle(q, k, v, heads, mask, g)
    y = T.attention_core(*(Tensor(a, requires_grad=True) for a in (q, k, v)), heads, mask)
    saved = [c.cell_contents for c in y.node.backward_fn.__closure__]
    assert not [a for a in saved if np.shape(a) == (B, heads, n, m)]
    got = (y.data,) + tuple(y.node.backward_fn(g))
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def conv3x3_backward_oracle(x, w, g):
    """The out-of-place conv3x3 backward, with a zero padded buffer for the
    input gradient: the x, w and b gradients."""
    B, C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (1, 1), (1, 1), (0, 0)))
    w2 = w.transpose(2, 3, 1, 0).reshape(9 * C, O)
    gl = np.moveaxis(g, 1, -1).reshape(B, H * W, O)
    gw2, gxp = np.zeros((9 * C, O)), np.zeros(xp.shape)
    for i in range(B):
        gw2 += T._im2col(xp[i]).T @ gl[i]
        gcols = (gl[i] @ w2.T).reshape(H, W, 3, 3, C)
        for di in range(3):
            for dj in range(3):
                gxp[i, di : di + H, dj : dj + W] += gcols[:, :, di, dj]
    return (gxp[:, 1 : 1 + H, 1 : 1 + W].transpose(0, 3, 1, 2),
            gw2.reshape(3, 3, C, O).transpose(3, 2, 0, 1),
            g.sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("weight", ["tracked", "frozen"])
@pytest.mark.parametrize("B,C,O,H,W", [(3, 4, 5, 6, 7), (2, 16, 16, 8, 8)])
def test_conv3x3_grads_bytes_match_out_of_place_oracle(weight, B, C, O, H, W):
    rng = np.random.default_rng(48)
    x, w, b = rng.normal(size=(B, C, H, W)), rng.normal(size=(O, C, 3, 3)), rng.normal(size=O)
    y = T.conv3x3(Tensor(x, requires_grad=True), Tensor(w, requires_grad=weight == "tracked"),
                  Tensor(b, requires_grad=weight == "tracked"))
    g = rng.normal(size=y.shape)
    got = y.node.backward_fn(g)
    want = conv3x3_backward_oracle(x, w, g)
    if weight == "frozen":
        assert got[1:] == (None, None)
        got, want = got[:1], want[:1]
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# gelu's ndtr, loaded without importing scipy.special
# ---------------------------------------------------------------------------

_SRC = str(Path(T.__file__).resolve().parents[1])


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """`code` in a new interpreter that imports ormllm from this checkout."""
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC})


def test_loaded_ndtr_is_scipy_special_ndtr_byte_for_byte():
    from scipy.special import ndtr

    assert T._ndtr is ndtr
    specials = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 1e-300, -1e-300])
    for x in (np.linspace(-40.0, 40.0, 200001), specials):
        want = ndtr(x)
        assert T._ndtr(x).tobytes() == want.tobytes()
        out = np.empty(x.shape)
        assert T._ndtr(x, out=out) is out
        assert out.tobytes() == want.tobytes()


def test_import_ormllm_cli_does_not_import_scipy_special():
    proc = _run_fresh("import ormllm.cli, sys\n"
                      "assert 'scipy.special' not in sys.modules, 'scipy.special'\n"
                      "assert 'scipy.special._special_ufuncs' not in sys.modules\n")
    assert proc.returncode == 0, proc.stderr


def test_scipy_special_imported_after_ormllm_binds_its_submodule():
    proc = _run_fresh("import ormllm.tensor as T\n"
                      "import scipy.special\n"
                      "assert scipy.special._special_ufuncs.ndtr is T._ndtr\n"
                      "assert scipy.special.ndtr is T._ndtr\n")
    assert proc.returncode == 0, proc.stderr


def test_load_ndtr_leaves_a_loaded_scipy_special_in_place():
    import scipy.special

    module = sys.modules[T._NDTR_MODULE]
    scipy_dir = os.path.dirname(os.path.dirname(scipy.special.__file__))
    assert T._load_ndtr(scipy_dir) is scipy.special.ndtr
    assert sys.modules[T._NDTR_MODULE] is module
    assert scipy.special._special_ufuncs is module


def test_load_ndtr_without_the_file_names_it(tmp_path):
    (tmp_path / "special").mkdir()
    with pytest.raises(ImportError) as exc:
        T._load_ndtr(str(tmp_path))
    missing = str(tmp_path / "special" / "_special_ufuncs")
    assert missing in str(exc.value) and "installed scipy" in str(exc.value)
    assert exc.value.path.startswith(missing)
