from dataclasses import fields

import pytest

from ormllm.config import DEFAULTS, NOT_KEYS, SECTIONS, RunConfig
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
    "eval.max_new_qa = 1.5", "fusion.d_token = 64.9", "spatial.encoder_dim = abc",
    "seed = true", "train.lambda_clip = false", "train.lr_lm = abc",
    "train.tau = abc",
])
def test_value_of_wrong_type_is_configuration_error(tmp_path, line):
    key = line.split(" =")[0]
    with pytest.raises(ConfigurationError, match=key):
        RunConfig.resolve(write(tmp_path, line + "\n"))


@pytest.mark.parametrize("line", ["threads = 1", "train.schedule = cosine",
                                  "train.dropout = 0", "eval.mode = greedy",
                                  "eval.beam_k = 1", "train.max_records = 0",
                                  "spatial.encoder_patch = 4"])
def test_removed_key_is_configuration_error(tmp_path, line):
    with pytest.raises(ConfigurationError, match="unknown config keys: " + line.split(" =")[0]):
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


def test_config_keys_are_the_pinned_set():
    # A new section field must be named here (or in NOT_KEYS) on purpose.
    assert set(DEFAULTS) == {
        "seed", "data.scenes", "data.views", "data.image_size",
        "train.epochs.stage1", "train.epochs.stage2",
        "spatial.encoder_blocks", "spatial.encoder_dim", "spatial.encoder_heads",
        "spatial.depth_decoder_stages", "spatial.seg_classes", "spatial.lambda_l1",
        "spatial.lambda_grad", "spatial.lambda_dice", "spatial.pc_hidden",
        "spatial.pc_feature_dim",
        "fusion.d_token", "fusion.lm_layers", "fusion.lm_heads", "fusion.max_seq_len",
        "fusion.image_patch", "fusion.pc_tokens",
        "train.lr_lm", "train.lr_vision", "train.lr_pretrained_vision",
        "train.batch_size", "train.warmup_steps", "train.adam_beta1",
        "train.adam_beta2", "train.weight_decay", "train.lambda_clip", "train.tau",
        "train.vfm_epochs", "train.qa_per_sample", "train.sgg_max_triples",
        "eval.max_new_qa", "eval.max_new_sgg",
    }
    sections = {f"{name}.{f.name}" for name, cls in SECTIONS.items() for f in fields(cls)}
    assert NOT_KEYS <= sections and not NOT_KEYS & set(DEFAULTS)


def test_each_section_builds_from_its_keys(tmp_path):
    run = RunConfig.resolve(write(tmp_path, "data.image_size = 16\nspatial.lambda_l1 = 2\n"
                                  "fusion.d_token = 32\ntrain.epochs.stage2 = 5\n"
                                  "eval.max_new_qa = 1\n"), {"seed": 7})
    assert (run.spatial().image_size, run.spatial().lambda_l1) == (16, 2.0)
    assert isinstance(run.spatial().lambda_l1, float)
    assert (run.fusion(50).d_token, run.fusion(50).vocab_size) == (32, 50)
    assert (run.train(2).stage, run.train(2).epochs, run.train(2).seed) == (2, 5, 7)
    assert run.train(1).epochs == DEFAULTS["train.epochs.stage1"]
    ecfg = run.eval(("qa",))
    assert (ecfg.tasks, ecfg.max_new_qa, ecfg.max_new_sgg) == (("qa",), 1, 150)


@pytest.mark.parametrize("stage", [0, 3])
def test_train_of_an_unknown_stage_is_configuration_error(stage):
    # Only the CLI's --stage choices hide this from the command line.
    with pytest.raises(ConfigurationError, match=f"stage must be 1 or 2, got {stage}"):
        RunConfig.resolve().train(stage)
