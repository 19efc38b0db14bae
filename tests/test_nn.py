import math

import numpy as np
import pytest

from ormllm import tensor as T
from ormllm.errors import ConfigurationError, ContractError, DimensionError
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import (
    KVCache,
    ModelParams,
    _causal_mask,
    attention_block_forward,
    init_attention_block,
    init_mlp,
    layer_norm,
    mlp_forward,
)
from ormllm.tensor import Tensor


def make_mlp(d_in, d_hidden, d_out, seed=0):
    params = ModelParams()
    init_mlp(params, "m", d_in, d_hidden, d_out, np.random.default_rng(seed))
    return params


def test_mlp_zero_weights_pass_bias_through():
    params = make_mlp(4, 3, 2)
    for name in ("m.fc1.w", "m.fc2.w", "m.fc1.b"):
        params[name].data[:] = 0.0
    params["m.fc2.b"].data[:] = [1.0, 2.0]
    out = mlp_forward(Tensor(np.zeros((1, 4))), params, "m")
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_mlp_identity_weights_apply_exact_gelu():
    # Oracle: gelu(x) = x * Phi(x) with the Gaussian CDF via math.erf.
    params = make_mlp(2, 2, 2)
    params["m.fc1.w"].data[:] = np.eye(2)
    params["m.fc1.b"].data[:] = 0.0
    params["m.fc2.w"].data[:] = np.eye(2)
    params["m.fc2.b"].data[:] = 0.0
    out = mlp_forward(Tensor(np.array([[1.0, 0.0]])), params, "m")
    gelu1 = 1.0 * 0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0)))
    np.testing.assert_allclose(out.data, [[gelu1, 0.0]], atol=1e-15)
    assert abs(out.data[0, 0] - 0.8413447460685429) < 1e-12


def test_mlp_dimension_error_names_operand():
    params = make_mlp(4, 3, 2)
    with pytest.raises(DimensionError, match="m.fc1"):
        mlp_forward(Tensor(np.zeros((1, 5))), params, "m")


def make_block(d=8, heads=2, seed=0):
    params = ModelParams()
    init_attention_block(params, "blk", d, np.random.default_rng(seed))
    return params


def test_attention_single_token_causal_equals_noncausal():
    params = make_block()
    x = Tensor(np.random.default_rng(1).normal(size=(1, 8)))
    a = attention_block_forward(x, params, "blk", heads=2, causal=True)
    b = attention_block_forward(x, params, "blk", heads=2, causal=False)
    np.testing.assert_array_equal(a.data, b.data)


def test_attention_causal_position0_invariant_to_future():
    params = make_block()
    rng = np.random.default_rng(2)
    x1 = rng.normal(size=(5, 8))
    x2 = x1.copy()
    x2[2:] = rng.normal(size=(3, 8))
    y1 = attention_block_forward(Tensor(x1), params, "blk", heads=2, causal=True)
    y2 = attention_block_forward(Tensor(x2), params, "blk", heads=2, causal=True)
    np.testing.assert_array_equal(y1.data[:2], y2.data[:2])


def test_attention_noncausal_mixes_everything():
    params = make_block()
    rng = np.random.default_rng(3)
    x1 = rng.normal(size=(5, 8))
    x2 = x1.copy()
    x2[4, 0] += 1.0  # single-feature change; a uniform shift would be LN-invariant
    y1 = attention_block_forward(Tensor(x1), params, "blk", heads=2, causal=False)
    y2 = attention_block_forward(Tensor(x2), params, "blk", heads=2, causal=False)
    assert not np.allclose(y1.data[0], y2.data[0])


def test_attention_head_divisibility_error():
    params = make_block()
    with pytest.raises(ConfigurationError):
        attention_block_forward(
            Tensor(np.zeros((2, 8))), params, "blk", heads=3, causal=False
        )


def test_attention_batched_matches_per_sequence():
    params = make_block()
    rng = np.random.default_rng(4)
    xs = rng.normal(size=(3, 5, 8))
    batched = attention_block_forward(Tensor(xs), params, "blk", heads=2, causal=True)
    for i in range(3):
        single = attention_block_forward(
            Tensor(xs[i]), params, "blk", heads=2, causal=True
        )
        np.testing.assert_allclose(batched.data[i], single.data, atol=1e-12)


def test_attention_backward_matches_finite_differences():
    params = make_block(d=4, heads=2)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 4))

    def loss_value():
        x = Tensor(x0)
        y = attention_block_forward(x, params, "blk", heads=2, causal=True)
        return T.sum_(y * T.constant(w))

    params.zero_grads()
    T.backward(loss_value())
    h = 1e-6
    for name in params.names():
        flat = params[name].data.reshape(-1)
        gflat = params[name].grad.reshape(-1)
        for c in np.random.default_rng(6).choice(flat.size, min(4, flat.size), replace=False):
            saved = flat[c]
            flat[c] = saved + h
            with T.no_grad():
                fp = float(loss_value().data)
            flat[c] = saved - h
            with T.no_grad():
                fm = float(loss_value().data)
            flat[c] = saved
            num = (fp - fm) / (2 * h)
            assert abs(gflat[c] - num) / max(abs(gflat[c]), abs(num), 1e-8) < 1e-5


@pytest.mark.parametrize("chunks", [[30, 1, 1, 1, 1, 1], [1] * 6, [6], [2, 3, 1]])
def test_cached_chunks_equal_one_causal_forward(chunks):
    params = make_block()
    rng = np.random.default_rng(8)
    x = rng.normal(size=(sum(chunks), 8))
    full = attention_block_forward(Tensor(x), params, "blk", heads=2, causal=True)
    cache = KVCache()
    outs, start = [], 0
    with T.no_grad():
        for n in chunks:
            outs.append(attention_block_forward(
                Tensor(x[start:start + n]), params, "blk", heads=2, causal=True,
                cache=cache,
            ).data)
            start += n
    np.testing.assert_allclose(np.concatenate(outs), full.data, rtol=0, atol=1e-12)
    k, v = cache.kv["blk"]
    assert k.shape == v.shape == (1, 2, sum(chunks), 4)


def test_cache_copy_branches_independently():
    params = make_block()
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 8))
    cache = KVCache()
    with T.no_grad():
        attention_block_forward(Tensor(x[:3]), params, "blk", heads=2, causal=True,
                                cache=cache)
        branch = cache.copy()
        a = attention_block_forward(Tensor(x[3:4]), params, "blk", heads=2,
                                    causal=True, cache=branch)
        b = attention_block_forward(Tensor(x[4:5]), params, "blk", heads=2,
                                    causal=True, cache=cache)
    assert cache.kv["blk"][0].shape[2] == branch.kv["blk"][0].shape[2] == 4
    full_a = attention_block_forward(Tensor(x[:4]), params, "blk", heads=2, causal=True)
    full_b = attention_block_forward(Tensor(np.concatenate([x[:3], x[4:5]])), params,
                                     "blk", heads=2, causal=True)
    np.testing.assert_allclose(a.data, full_a.data[3:], rtol=0, atol=1e-12)
    np.testing.assert_allclose(b.data, full_b.data[3:], rtol=0, atol=1e-12)


def test_batch_one_cache_extended_by_b_rows_equals_b_separate_extends():
    """A prefix cache of batch 1, extended by a padded batch of B new rows
    per entry, holds what B batch-of-one extends of copies hold; entry b
    kept alone and cut to its real rows is the cache a batch-of-one call
    on those rows leaves."""
    params = make_block()
    rng = np.random.default_rng(11)
    prefix, new = rng.normal(size=(4, 8)), rng.normal(size=(3, 5, 8))
    real = [2, 5, 3]  # entry b's rows after real[b] are padding
    cache = KVCache()

    def run(x, cache):
        attention_block_forward(Tensor(x), params, "blk", heads=2, causal=True,
                                cache=cache)
        cache.length += x.shape[-2]

    with T.no_grad():
        run(prefix, cache)
        batched = cache.copy()
        run(new, batched)
        k, v = batched.kv["blk"]
        assert k.shape == v.shape == (3, 2, 9, 4)
        for b, n in enumerate(real):
            whole, alone = cache.copy(), cache.copy()
            run(new[b:b + 1], whole)
            run(new[b:b + 1, :n], alone)
            np.testing.assert_allclose(k[b:b + 1], whole.kv["blk"][0], rtol=0, atol=1e-12)
            np.testing.assert_allclose(v[b:b + 1], whole.kv["blk"][1], rtol=0, atol=1e-12)
            kept = batched.select(b)
            kept.truncate(4 + n)
            assert kept.length == alone.length == 4 + n
            for got, want in zip(kept.kv["blk"], alone.kv["blk"]):
                assert got.shape == want.shape == (1, 2, 4 + n, 4)
                np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
    # The prefix cache is unchanged, and select() and truncate() left the
    # batched cache whole.
    assert cache.length == 4 and cache.kv["blk"][0].shape == (1, 2, 4, 4)
    assert batched.length == 9 and batched.kv["blk"][0] is k
    with T.no_grad(), pytest.raises(DimensionError):
        run(new[:2], batched)  # a batch of 3 cannot take 2 entries


def test_cache_under_grad_recording_is_a_contract_error():
    params = make_block()
    x = Tensor(np.random.default_rng(10).normal(size=(3, 8)))
    with pytest.raises(ContractError, match="inference-only"):
        attention_block_forward(x, params, "blk", heads=2, causal=True,
                                cache=KVCache())


# ---------------------------------------------------------------------------
# the one-node attention core against the block composed of tape primitives
# ---------------------------------------------------------------------------


def composed_linear(x, params, prefix):
    out = T.matmul(x, params[f"{prefix}.w"])
    if f"{prefix}.b" in params:
        out = out + params[f"{prefix}.b"]
    return out


def composed_mlp(x, params, prefix):
    h = T.gelu(composed_linear(x, params, f"{prefix}.fc1"))
    return composed_linear(h, params, f"{prefix}.fc2")


def composed_block(x, params, prefix, heads, causal, cache=None):
    """Oracle: the attention block as it was built from tape primitives
    before its core became one node (head split, kᵀ, QKᵀ, scale, mask,
    softmax, P·V and head merge each a node; linear = matmul + add)."""
    squeeze = x.ndim == 2
    if squeeze:
        x = T.reshape(x, (1,) + x.shape)
    B, n, d = x.shape
    dh = d // heads
    h = layer_norm(x, params, f"{prefix}.ln1")
    q, k, v = (composed_linear(h, params, f"{prefix}.attn.{w}") for w in ("wq", "wk", "wv"))
    split = lambda t: T.transpose(T.reshape(t, (B, n, heads, dh)), (0, 2, 1, 3))
    q, k, v = split(q), split(k), split(v)
    past = 0
    if cache is not None:
        k, v, past = cache.extend(prefix, k.data, v.data)
        k, v = T.constant(k), T.constant(v)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if causal and n > 1:
        scores = scores + T.constant(_causal_mask(n, past)[None, None])
    probs = T.softmax(scores, axis=-1)
    attn = T.matmul(probs, v)
    attn = T.reshape(T.transpose(attn, (0, 2, 1, 3)), (B, n, d))
    x = x + composed_linear(attn, params, f"{prefix}.attn.wo")
    x = x + composed_mlp(layer_norm(x, params, f"{prefix}.ln2"), params,
                         f"{prefix}.mlp")
    return T.reshape(x, (n, d)) if squeeze else x


FORWARD_CASES = [  # (input shape, causal)
    ((6, 8), True),
    ((6, 8), False),
    ((3, 7, 8), True),
    ((3, 7, 8), False),
    ((1, 1, 8), True),
]


@pytest.mark.parametrize("shape,causal", FORWARD_CASES)
def test_attention_node_forward_bytes_match_composed(shape, causal):
    params = make_block()
    x = Tensor(np.random.default_rng(11).normal(size=shape))
    got = attention_block_forward(x, params, "blk", heads=2, causal=causal)
    want = composed_block(x, params, "blk", heads=2, causal=causal)
    assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("chunks", [[5, 1, 1], [2, 3, 1], [1, 1, 1, 1]])
@pytest.mark.parametrize("batch", [1, 3])
def test_attention_node_cached_chunks_bytes_match_composed(chunks, batch):
    params = make_block()
    x = np.random.default_rng(12).normal(size=(batch, sum(chunks), 8))
    got_cache, want_cache = KVCache(), KVCache()
    start = 0
    with T.no_grad():
        for n in chunks:
            rows = Tensor(x[:, start:start + n])
            got = attention_block_forward(rows, params, "blk", heads=2, causal=True,
                                          cache=got_cache)
            want = composed_block(rows, params, "blk", heads=2, causal=True,
                                  cache=want_cache)
            assert got.data.tobytes() == want.data.tobytes(), start
            start += n
    for a, b in zip(got_cache.kv["blk"], want_cache.kv["blk"]):
        assert a.tobytes() == b.tobytes()


def block_grads(forward, params, x0, w):
    x = Tensor(x0, requires_grad=True)
    params.zero_grads()
    T.backward(T.sum_(forward(x) * T.constant(w)))
    return x.grad, {name: params[name].grad.copy() for name in params.names()}


@pytest.mark.parametrize("shape,causal", [
    ((6, 8), True),
    ((3, 7, 8), True),
    ((3, 7, 8), False),
    ((2, 5, 8), True),
])
def test_attention_node_gradients_match_composed(shape, causal):
    params = make_block()
    rng = np.random.default_rng(16)
    x0, w = rng.normal(size=shape), rng.normal(size=shape)
    got = block_grads(lambda x: attention_block_forward(
        x, params, "blk", heads=2, causal=causal), params, x0, w)
    want = block_grads(lambda x: composed_block(
        x, params, "blk", heads=2, causal=causal), params, x0, w)
    np.testing.assert_allclose(got[0], want[0], rtol=0, atol=1e-12)
    assert got[1].keys() == want[1].keys()
    for name in got[1]:
        np.testing.assert_allclose(got[1][name], want[1][name], rtol=0, atol=1e-12,
                                   err_msg=name)


@pytest.mark.parametrize("mask", [None, "causal"])
def test_attention_core_gradcheck(mask):
    # q, k and v as parameters of the node itself, so every input's
    # gradient is checked, not only the block weights behind them.
    params = ModelParams()
    rng = np.random.default_rng(17)
    for name in ("q", "k", "v"):
        params.add(name, rng.normal(size=(2, 4, 6)))
    w = rng.normal(size=(2, 4, 6))
    additive = _causal_mask(4)[None, None] if mask else None
    f = lambda: T.sum_(T.attention_core(params["q"], params["k"], params["v"], 3,
                                        additive) * T.constant(w))
    reports = finite_diff_grad_check(f, params, tol=1e-6)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


def test_attention_core_is_one_node_per_block():
    params = make_block()
    x = Tensor(np.random.default_rng(18).normal(size=(2, 5, 8)), requires_grad=True)
    y = attention_block_forward(x, params, "blk", heads=2, causal=True)
    kinds = [node.backward_fn.__qualname__.split(".")[0]
             for node in T.ComputationTape(y).nodes]
    assert kinds.count("attention_core") == 1
    assert not {"softmax", "transpose", "matmul"} & set(kinds)


@pytest.mark.parametrize("n,past", [(1, 0), (5, 0), (3, 4), (1, 7)])
def test_causal_mask_blocks_exactly_the_later_columns(n, past):
    m = _causal_mask(n, past)
    assert m.shape == (n, past + n)
    rows, cols = np.indices(m.shape)
    assert (m[cols > past + rows] == -np.inf).all()
    assert (m[cols <= past + rows] == 0.0).all()


# ---------------------------------------------------------------------------
# the block run at chosen rows
# ---------------------------------------------------------------------------


ROW_CASES = [  # (input shape, rows, causal)
    ((6, 8), [5], True),
    ((6, 8), [0, 2, 5], True),
    ((6, 8), list(range(6)), True),
    ((3, 7, 8), [[0, 3, 6], [1, 2, 4], [4, 5, 6]], True),
    ((3, 7, 8), [[0, 3, 6], [1, 2, 4], [4, 5, 6]], False),
    ((2, 5, 8), [[], []], True),
]


@pytest.mark.parametrize("shape,rows,causal", ROW_CASES)
def test_block_at_rows_equals_full_block_rows(shape, rows, causal):
    params = make_block()
    x = Tensor(np.random.default_rng(19).normal(size=shape))
    rows = np.array(rows, dtype=np.int64)
    full = attention_block_forward(x, params, "blk", heads=2, causal=causal).data
    got = attention_block_forward(x, params, "blk", heads=2, causal=causal,
                                  rows=rows).data
    want = full[rows] if len(shape) == 2 else np.stack(
        [full[b, r] for b, r in enumerate(rows)])
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("chunks", [[5, 1, 1], [2, 3, 1], [4, 3]])
def test_cached_block_at_tail_rows_keeps_the_full_cache(chunks):
    """With a cache, rows pick among the new rows only; every new row's
    keys and values are still appended, the bytes the full block appends."""
    params = make_block()
    x = np.random.default_rng(20).normal(size=(2, sum(chunks), 8))
    full = attention_block_forward(Tensor(x), params, "blk", heads=2, causal=True).data
    full_cache, cache = KVCache(), KVCache()
    start = 0
    with T.no_grad():
        for n in chunks:
            new = Tensor(x[:, start:start + n])
            attention_block_forward(new, params, "blk", heads=2, causal=True,
                                    cache=full_cache)
            tail = np.tile(np.arange(max(n - 2, 0), n), (2, 1))
            got = attention_block_forward(new, params, "blk", heads=2, causal=True,
                                          cache=cache, rows=tail)
            np.testing.assert_allclose(got.data, full[:, start + tail[0]],
                                       rtol=0, atol=1e-12)
            start += n
    for a, b in zip(cache.kv["blk"], full_cache.kv["blk"]):
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape,rows", [
    ((2, 6, 4), [[0, 2, 5], [1, 3, 4]]),   # gaps, n_q < n
    ((2, 6, 4), [[3, 4, 5], [0, 1, 2]]),   # contiguous windows
    ((5, 4), [1, 4]),
])
def test_block_at_rows_gradcheck(shape, rows):
    """The input's gradient too: x is a parameter, so the rows the block
    skips are checked to get exactly what flows through keys and values."""
    params = make_block(d=4, heads=2)
    rng = np.random.default_rng(21)
    params.add("x", rng.normal(size=shape))
    rows = np.array(rows)
    w = rng.normal(size=shape[:-2] + (rows.shape[-1], shape[-1]))
    f = lambda: T.sum_(attention_block_forward(
        params["x"], params, "blk", heads=2, causal=True, rows=rows) * T.constant(w))
    reports = finite_diff_grad_check(f, params, tol=1e-6)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


@pytest.mark.parametrize("shape,rows,error", [
    ((2, 5, 8), [[0, 0], [1, 2]], ContractError),   # not strictly increasing
    ((2, 5, 8), [[3, 1], [1, 2]], ContractError),
    ((2, 5, 8), [[0, 5], [1, 2]], ContractError),   # past the last row
    ((2, 5, 8), [[-1, 2], [1, 2]], ContractError),
    ((2, 5, 8), [0, 1], DimensionError),            # one row set for a batch
    ((3, 5, 8), [[0, 1], [1, 2]], DimensionError),  # a set too few
    ((5, 8), [[0, 1]], DimensionError),
])
def test_block_rejects_bad_rows(shape, rows, error):
    params = make_block()
    with pytest.raises(error):
        attention_block_forward(Tensor(np.zeros(shape)), params, "blk", heads=2,
                                causal=True, rows=np.array(rows))
