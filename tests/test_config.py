from dataclasses import fields

import pytest

from ormllm.config import DEFAULTS, RunConfig
from ormllm.errors import ConfigurationError
from ormllm.training import TrainConfig


def write(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def test_int_serves_a_float_key_unchanged(tmp_path):
    run = RunConfig.resolve(write(tmp_path, "train.lambda_clip = 0\ntrain.lr_lm = 1\n"))
    assert run["train.lr_lm"] == 1 and "train.lr_lm = 1" in run.echo_lines()
    assert run.train(1).lr_lm == 1.0 and run.train(1).lambda_clip == 0.0


@pytest.mark.parametrize("line", [
    "threads = 1.5", "fusion.d_token = 64.9", "spatial.encoder_dim = abc",
    "seed = true", "train.lambda_clip = false", "train.lr_lm = abc",
    "eval.mode = 3",
])
def test_value_of_wrong_type_is_configuration_error(tmp_path, line):
    key = line.split(" =")[0]
    with pytest.raises(ConfigurationError, match=key):
        RunConfig.resolve(write(tmp_path, line + "\n"))


def test_override_of_wrong_type_is_configuration_error():
    with pytest.raises(ConfigurationError, match="seed"):
        RunConfig.resolve(overrides={"seed": True})


def test_train_config_defaults_equal_config_keys():
    # One default per setting: a Python caller that builds TrainConfig()
    # trains as `ormllm train` does with no config file.
    shared = [f.name for f in fields(TrainConfig) if f"train.{f.name}" in DEFAULTS]
    assert {"lambda_clip", "tau"} <= set(shared)
    cfg = TrainConfig()
    assert {n: getattr(cfg, n) for n in shared} == {n: DEFAULTS[f"train.{n}"] for n in shared}
