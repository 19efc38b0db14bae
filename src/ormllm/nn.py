"""Parameter containers and the shared network building blocks.

ModelParams is an ordered name -> Tensor mapping; ordering is creation
order and fixes the checkpoint layout. Names are dotted paths
("lm.blocks.0.attn.wq") and the training stage masks key off the first
path segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, DimensionError
from .tensor import Tensor


class ModelParams:
    """Ordered collection of named trainable tensors with per-tensor flags."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}
        self.trainable: dict[str, bool] = {}

    def add(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=True, name=name)
        self._tensors[name] = t
        self.trainable[name] = trainable
        return t

    def __getitem__(self, name: str) -> Tensor:
        try:
            return self._tensors[name]
        except KeyError:
            raise KeyError(f"unknown parameter {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._tensors

    def __len__(self) -> int:
        return len(self._tensors)

    def names(self) -> list[str]:
        return list(self._tensors)

    def tensors(self) -> list[Tensor]:
        return list(self._tensors.values())

    def items(self):
        return self._tensors.items()

    def zero_grads(self) -> None:
        for t in self._tensors.values():
            t.grad = None

    def copy_values(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._tensors.items()}

    def load_values(self, values: dict[str, np.ndarray]) -> None:
        for k, v in values.items():
            self._tensors[k].data = np.array(v, dtype=np.float64)


@dataclass
class ExecContext:
    """Per-forward execution switches: dropout is active only in training."""

    train: bool = False
    dropout: float = 0.0
    rng: np.random.Generator | None = None

    def drop(self, x: Tensor) -> Tensor:
        if self.train and self.dropout > 0.0:
            return T.dropout(x, self.dropout, self.rng)
        return x


EVAL_CTX = ExecContext()


def init_linear(params: ModelParams, prefix: str, d_in: int, d_out: int,
                rng: np.random.Generator, bias: bool = True) -> None:
    params.add(f"{prefix}.w", rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)))
    if bias:
        params.add(f"{prefix}.b", np.zeros(d_out))


def linear(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    w = params[f"{prefix}.w"]
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(
            f"linear {prefix!r}: input width {x.shape[-1]} != weight rows {w.shape[0]}"
        )
    out = T.matmul(x, w)
    if f"{prefix}.b" in params:
        out = out + params[f"{prefix}.b"]
    return out


def init_mlp(params: ModelParams, prefix: str, d_in: int, d_hidden: int, d_out: int,
             rng: np.random.Generator) -> None:
    init_linear(params, f"{prefix}.fc1", d_in, d_hidden, rng)
    init_linear(params, f"{prefix}.fc2", d_hidden, d_out, rng)


def mlp_forward(x: Tensor, params: ModelParams, prefix: str,
                ctx: ExecContext = EVAL_CTX) -> Tensor:
    """Two linear layers with an exact-CDF gelu between them."""
    h = T.gelu(linear(x, params, f"{prefix}.fc1"))
    out = linear(h, params, f"{prefix}.fc2")
    return ctx.drop(out)


def init_layer_norm(params: ModelParams, prefix: str, d: int) -> None:
    params.add(f"{prefix}.g", np.ones(d))
    params.add(f"{prefix}.b", np.zeros(d))


def layer_norm(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return T.layer_norm(x, params[f"{prefix}.g"], params[f"{prefix}.b"])


def init_attention_block(params: ModelParams, prefix: str, d: int, mlp_ratio: int,
                         rng: np.random.Generator) -> None:
    init_layer_norm(params, f"{prefix}.ln1", d)
    # q/k/v projections carry no bias: a key bias shifts every score in a
    # row equally, which softmax cancels, leaving a structurally zero
    # gradient that finite-difference checks cannot certify.
    for name in ("wq", "wk", "wv"):
        init_linear(params, f"{prefix}.attn.{name}", d, d, rng, bias=False)
    init_linear(params, f"{prefix}.attn.wo", d, d, rng)
    init_layer_norm(params, f"{prefix}.ln2", d)
    init_mlp(params, f"{prefix}.mlp", d, mlp_ratio * d, d, rng)


class KVCache:
    """Attention keys and values of the rows a stack of blocks has already
    run, one (k, v) pair of [B, heads, length, dh] arrays per block prefix,
    for inference-only incremental decoding. `length` counts the rows held.

    Entries are replaced, never mutated in place, so copy() (a shallow dict
    copy) gives an independent branch, e.g. one per beam.
    """

    def __init__(self):
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.length = 0

    def copy(self) -> "KVCache":
        out = KVCache()
        out.kv = dict(self.kv)
        out.length = self.length
        return out

    def extend(self, prefix: str, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor, int]:
        """Appends one block's new keys/values [B, heads, n, dh] to the held
        ones; returns all keys, all values and the number of rows held
        before."""
        if T.grad_enabled():
            raise ContractError("the K/V cache is inference-only; run under no_grad")
        past = 0
        if prefix in self.kv:
            past_k, past_v = self.kv[prefix]
            past = past_k.shape[2]
            k = T.constant(np.concatenate([past_k, k.data], axis=2))
            v = T.constant(np.concatenate([past_v, v.data], axis=2))
        self.kv[prefix] = (k.data, v.data)
        return k, v, past


def _causal_mask(n: int, past: int = 0) -> np.ndarray:
    """Additive mask for n new rows after `past` earlier ones: new row i
    sees columns <= past + i."""
    m = np.zeros((n, past + n))
    m[np.triu_indices(n, k=past + 1, m=past + n)] = -np.inf
    return m


def attention_block_forward(x: Tensor, params: ModelParams, prefix: str, heads: int,
                            causal: bool, ctx: ExecContext = EVAL_CTX,
                            cache: KVCache | None = None) -> Tensor:
    """Pre-norm multi-head self-attention plus MLP, both with residuals.

    Accepts [n, d] or [B, n, d]. With causal=True, position i attends only
    to positions <= i.

    With a cache, x holds only the new rows: q/k/v are computed for them,
    k/v are appended to the cache's entry for this block, and new row i
    attends to every cached row and to new rows <= i. The cache is
    inference-only: passing one while graph recording is on raises
    ContractError. Without a cache the block sees the whole sequence.
    """
    squeeze = x.ndim == 2
    if squeeze:
        x = T.reshape(x, (1,) + x.shape)
    if x.ndim != 3:
        raise DimensionError(f"attention block expects [n,d] or [B,n,d], got {x.shape}")
    B, n, d = x.shape
    if d % heads != 0:
        raise ConfigurationError(f"model width {d} not divisible by {heads} heads")
    dh = d // heads

    h = layer_norm(x, params, f"{prefix}.ln1")
    q = linear(h, params, f"{prefix}.attn.wq")
    k = linear(h, params, f"{prefix}.attn.wk")
    v = linear(h, params, f"{prefix}.attn.wv")
    # [B, n, d] -> [B, heads, n, dh]
    split = lambda t: T.transpose(T.reshape(t, (B, n, heads, dh)), (0, 2, 1, 3))
    q, k, v = split(q), split(k), split(v)
    past = 0
    if cache is not None:
        k, v, past = cache.extend(prefix, k, v)
    scores = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / np.sqrt(dh))
    if causal and n > 1:
        scores = scores + T.constant(_causal_mask(n, past)[None, None])
    probs = T.softmax(scores, axis=-1)
    probs = ctx.drop(probs)
    attn = T.matmul(probs, v)
    attn = T.reshape(T.transpose(attn, (0, 2, 1, 3)), (B, n, d))
    x = x + linear(attn, params, f"{prefix}.attn.wo")
    x = x + mlp_forward(layer_norm(x, params, f"{prefix}.ln2"), params,
                        f"{prefix}.mlp", ctx)
    if squeeze:
        x = T.reshape(x, (n, d))
    return x
