"""Central finite-difference verification of reverse-mode gradients.

The checker is deliberately independent of the graph machinery: it only
perturbs raw parameter buffers and re-evaluates the loss callable, so it
cannot inherit a bug from the backward implementation it is checking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ContractError, NumericError
from .nn import ModelParams


@dataclass
class TensorCheck:
    name: str
    max_rel_error: float
    worst_coord: int
    n_coords: int
    passed: bool


def finite_diff_grad_check(
    f,
    params: ModelParams,
    h: float = 1e-6,
    tol: float = 1e-4,
    coords_per_tensor: int = 32,
    seed: int = 0,
    names: list[str] | None = None,
) -> list[TensorCheck]:
    """Compare analytic gradients of the scalar `f()` against central
    differences on a fixed random coordinate subset of each tensor.

    The loss may have any shape of size 1, as `tensor.backward` accepts.

    Relative error uses denominator max(|analytic|, |numeric|, 1e-8).
    `f` must be deterministic and must read the current parameter buffers
    on every call.
    """
    if h <= 0.0:
        raise ContractError(f"finite difference step must be positive, got {h}")
    check_names = names if names is not None else params.names()

    params.zero_grads()
    loss = f()
    if not np.isfinite(loss.data).all():
        raise NumericError("loss is non-finite at the base point")
    T.backward(loss)

    rng = np.random.default_rng(seed)
    reports: list[TensorCheck] = []
    for name in check_names:
        t = params[name]
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        n = min(coords_per_tensor, flat.size)
        coords = np.sort(rng.choice(flat.size, size=n, replace=False))
        worst = 0.0
        worst_coord = -1
        with T.no_grad():
            for c in coords:
                saved = flat[c]
                flat[c] = saved + h
                f_plus = f().item()
                flat[c] = saved - h
                f_minus = f().item()
                flat[c] = saved
                if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                    raise NumericError(
                        f"non-finite loss while perturbing parameter {name!r}"
                    )
                numeric = (f_plus - f_minus) / (2.0 * h)
                a = float(analytic.reshape(-1)[c])
                rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-8)
                if rel > worst:
                    worst = rel
                    worst_coord = int(c)
        reports.append(
            TensorCheck(
                name=name,
                max_rel_error=worst,
                worst_coord=worst_coord,
                n_coords=int(n),
                passed=worst <= tol,
            )
        )
    return reports
