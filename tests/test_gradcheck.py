import numpy as np
import pytest

from ormllm import tensor as T
from ormllm.errors import ContractError, NumericError
from ormllm.gradcheck import finite_diff_grad_check
from ormllm.nn import ModelParams, init_mlp, mlp_forward
from ormllm.tensor import Tensor


def quadratic_params():
    params = ModelParams()
    rng = np.random.default_rng(0)
    # Keep coordinates away from 0 so relative errors are meaningful.
    params.add("theta", rng.uniform(0.5, 1.5, size=(6, 5)) * rng.choice([-1, 1], (6, 5)))
    return params


def test_quadratic_is_exact_under_central_differences():
    params = quadratic_params()
    f = lambda: T.sum_(params["theta"] * params["theta"]) * 0.5
    reports = finite_diff_grad_check(f, params)
    assert len(reports) == 1
    assert reports[0].max_rel_error <= 1e-8
    assert reports[0].passed


def test_zero_step_is_a_contract_error():
    params = quadratic_params()
    with pytest.raises(ContractError):
        finite_diff_grad_check(lambda: T.sum_(params["theta"]), params, h=0.0)


def test_non_finite_loss_names_parameter():
    params = ModelParams()
    params.add("spike", np.array([1.0 - 1e-6]))

    def f():
        # log of a value that goes non-positive once 'spike' is nudged up.
        return T.log(1.0 - params["spike"])

    with pytest.warns(RuntimeWarning, match="invalid value encountered in log"), \
            pytest.raises(NumericError, match="spike"):
        finite_diff_grad_check(f, params, h=1e-4)


def test_size_one_loss_of_shape_1_passes():
    params = quadratic_params()

    def f():
        loss = T.sum_(params["theta"] * params["theta"]) * 0.5
        return T.reshape(loss, (1,))

    assert f().shape == (1,)
    reports = finite_diff_grad_check(f, params)
    assert reports[0].passed and reports[0].max_rel_error <= 1e-8


def test_mlp_composite_loss_passes_at_1e4():
    params = ModelParams()
    rng = np.random.default_rng(1)
    init_mlp(params, "m", 4, 6, 3, rng)
    x = rng.normal(size=(5, 4))
    w = rng.normal(size=(5, 3))

    def f():
        out = mlp_forward(Tensor(x), params, "m")
        return T.sum_(out * T.constant(w))

    reports = finite_diff_grad_check(f, params, tol=1e-4)
    assert all(r.passed for r in reports), [(r.name, r.max_rel_error) for r in reports]


def test_detects_corrupted_gradient():
    params = quadratic_params()

    def f():
        return T.sum_(params["theta"] * params["theta"]) * 0.5

    # Independent route: corrupt the analytic side via a wrapped closure that
    # perturbs the loss only when gradients are being recorded.
    def f_bad():
        loss = f()
        if loss.node is not None:
            loss = loss + T.sum_(params["theta"]) * 0.5
        return loss

    reports = finite_diff_grad_check(f_bad, params)
    assert not reports[0].passed


def test_reports_are_deterministic():
    params = quadratic_params()
    f = lambda: T.sum_(params["theta"] * params["theta"] * params["theta"])
    r1 = finite_diff_grad_check(f, params, seed=3)
    r2 = finite_diff_grad_check(f, params, seed=3)
    assert r1[0].max_rel_error == r2[0].max_rel_error
    assert r1[0].worst_coord == r2[0].worst_coord
