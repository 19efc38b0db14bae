import math

import numpy as np
import pytest

from ormllm import tensor as T
from ormllm.errors import ConfigurationError, ContractError, DimensionError
from ormllm.nn import (
    ExecContext,
    KVCache,
    ModelParams,
    attention_block_forward,
    init_attention_block,
    init_mlp,
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
    init_attention_block(params, "blk", d, 4, np.random.default_rng(seed))
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


def test_dropout_only_in_training_mode():
    params = make_block()
    x = Tensor(np.random.default_rng(7).normal(size=(4, 8)))
    eval_out = attention_block_forward(x, params, "blk", heads=2, causal=False)
    ctx = ExecContext(train=True, dropout=0.5, rng=np.random.default_rng(0))
    train_out = attention_block_forward(x, params, "blk", heads=2, causal=False, ctx=ctx)
    assert not np.allclose(eval_out.data, train_out.data)
    eval_again = attention_block_forward(x, params, "blk", heads=2, causal=False)
    np.testing.assert_array_equal(eval_out.data, eval_again.data)


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


def test_cache_under_grad_recording_is_a_contract_error():
    params = make_block()
    x = Tensor(np.random.default_rng(10).normal(size=(3, 8)))
    with pytest.raises(ContractError, match="inference-only"):
        attention_block_forward(x, params, "blk", heads=2, causal=True,
                                cache=KVCache())
