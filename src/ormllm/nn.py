"""Parameter containers and the shared network building blocks.

ModelParams is an ordered name -> Tensor mapping; ordering is creation
order and fixes the checkpoint layout. Names are dotted paths
("lm.blocks.0.attn.wq") and the training stage masks key off the first
path segment.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType

import numpy as np

from . import tensor as T
from .errors import ConfigurationError, ContractError, DimensionError
from .tensor import Tensor


class ModelParams:
    """Ordered collection of named tensors. A tensor trains exactly when it
    requires gradients; a frozen one is not tracked, so ops on frozen
    tensors alone record no node and no gradient is formed for them."""

    def __init__(self):
        self._tensors: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, trainable: bool = True) -> Tensor:
        if name in self._tensors:
            raise ConfigurationError(f"duplicate parameter name {name!r}")
        t = Tensor(np.asarray(data, dtype=np.float64), requires_grad=trainable, name=name)
        self._tensors[name] = t
        return t

    @property
    def trainable(self) -> Mapping[str, bool]:
        """Read-only name -> flag view of each tensor's requires_grad."""
        return MappingProxyType({k: t.requires_grad for k, t in self._tensors.items()})

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
    bias = params[f"{prefix}.b"] if f"{prefix}.b" in params else None
    return T.affine(x, w, bias)


def init_mlp(params: ModelParams, prefix: str, d_in: int, d_hidden: int, d_out: int,
             rng: np.random.Generator) -> None:
    init_linear(params, f"{prefix}.fc1", d_in, d_hidden, rng)
    init_linear(params, f"{prefix}.fc2", d_hidden, d_out, rng)


def mlp_forward(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    """Two linear layers with an exact-CDF gelu between them."""
    h = T.gelu(linear(x, params, f"{prefix}.fc1"))
    return linear(h, params, f"{prefix}.fc2")


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

    A draft-and-verify decoder extends the cache by a guessed continuation
    in one call and then rolls back the rows it rejected with truncate().
    Entries are replaced, never mutated in place: extend() concatenates
    into new arrays and truncate() keeps views of the first rows. So copy()
    (a shallow dict copy) gives an independent branch, e.g. one per decode
    from a shared prefix cache.
    """

    def __init__(self):
        self.kv: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        self.length = 0

    def copy(self) -> "KVCache":
        out = KVCache()
        out.kv = dict(self.kv)
        out.length = self.length
        return out

    def extend(self, prefix: str, k: np.ndarray,
               v: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Appends one block's new keys/values [B, heads, n, dh] to the held
        ones; returns all keys, all values and the number of rows held
        before."""
        if T.grad_enabled():
            raise ContractError("the K/V cache is inference-only; run under no_grad")
        past = 0
        if prefix in self.kv:
            past_k, past_v = self.kv[prefix]
            past = past_k.shape[2]
            k = np.concatenate([past_k, k], axis=2)
            v = np.concatenate([past_v, v], axis=2)
        self.kv[prefix] = (k, v)
        return k, v, past

    def truncate(self, length: int) -> None:
        """Keeps only the first `length` rows, dropping the later ones. The
        held arrays are sliced, never written, so a cache that shares them
        (the source of a copy()) is unchanged."""
        if not 0 <= length <= self.length:
            raise ContractError(f"cannot truncate a {self.length}-row cache to {length}")
        self.kv = {name: (k[:, :, :length], v[:, :, :length])
                   for name, (k, v) in self.kv.items()}
        self.length = length


def _causal_mask(n: int, past: int = 0) -> np.ndarray:
    """Additive mask for n new rows after `past` earlier ones: new row i
    sees columns <= past + i."""
    return np.triu(np.full((n, past + n), -np.inf), k=past + 1)


def attention_block_forward(x: Tensor, params: ModelParams, prefix: str, heads: int,
                            causal: bool, cache: KVCache | None = None) -> Tensor:
    """Pre-norm multi-head self-attention plus MLP, both with residuals.

    Accepts [n, d] or [B, n, d]. With causal=True, position i attends only
    to positions <= i. The attention core (head split, scaled scores, mask,
    softmax, P·V, head merge) is one tape node, T.attention_core;
    every projection is one T.affine node.

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

    h = layer_norm(x, params, f"{prefix}.ln1")
    q = linear(h, params, f"{prefix}.attn.wq")
    k = linear(h, params, f"{prefix}.attn.wk")
    v = linear(h, params, f"{prefix}.attn.wv")
    past = 0
    if cache is not None:
        k, v, past = cache.extend(prefix, T.split_heads(k.data, heads),
                                  T.split_heads(v.data, heads))
    mask = _causal_mask(n, past)[None, None] if causal and n > 1 else None
    attn = T.attention_core(q, k, v, heads, mask)
    x = x + linear(attn, params, f"{prefix}.attn.wo")
    x = x + mlp_forward(layer_norm(x, params, f"{prefix}.ln2"), params,
                        f"{prefix}.mlp")
    if squeeze:
        x = T.reshape(x, (n, d))
    return x
