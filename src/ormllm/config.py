"""Run configuration: defaults, config-file overlay, flag overrides.

The file format is flat dotted keys, one `key = value` per line, with
'#' comments. Flags override file values; the fully resolved mapping is
echoed verbatim into every output artifact so runs can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import __version__
from .errors import ConfigurationError
from .fusion import FusionConfig
from .spatial import SpatialBlockConfig
from .training import TrainConfig

DEFAULTS: dict[str, object] = {
    "seed": 0,
    "data.scenes": 300,
    "data.views": 3,
    "data.image_size": 32,
    "spatial.encoder_blocks": 2,
    "spatial.encoder_dim": 64,
    "spatial.encoder_heads": 4,
    "spatial.encoder_patch": 4,
    "spatial.depth_decoder_stages": 2,
    "spatial.seg_classes": 8,
    "spatial.lambda_l1": 1.0,
    "spatial.lambda_grad": 0.5,
    "spatial.lambda_dice": 1.0,
    "spatial.pc_hidden": 64,
    "spatial.pc_feature_dim": 64,
    "fusion.d_token": 64,
    "fusion.lm_layers": 2,
    "fusion.lm_heads": 4,
    "fusion.max_seq_len": 384,
    "fusion.image_patch": 8,
    "fusion.pc_tokens": 1,
    "train.lr_lm": 3e-3,
    "train.lr_vision": 3e-3,
    "train.lr_pretrained_vision": 5e-4,
    "train.batch_size": 8,
    "train.epochs.stage1": 6,
    "train.epochs.stage2": 2,
    "train.warmup_steps": 10,
    "train.adam_beta1": 0.9,
    "train.adam_beta2": 0.999,
    "train.weight_decay": 0.01,
    "train.lambda_clip": 0.1,
    "train.tau": 0.07,
    "train.vfm_epochs": 3,
    "train.qa_per_sample": 2,
    "train.sgg_max_triples": 24,
    "eval.max_new_qa": 8,
    "eval.max_new_sgg": 150,
}


def _parse_value(raw: str):
    raw = raw.strip()
    for caster in (int, float):
        try:
            return caster(raw)
        except ValueError:
            pass
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    return raw


def _check_type(key: str, value) -> None:
    """A value must have its default's type; an int also serves a float
    key, but a bool serves only a bool key."""
    want = type(DEFAULTS[key])
    allowed = (int, float) if want is float else (want,)
    if isinstance(value, bool) != (want is bool) or not isinstance(value, allowed):
        raise ConfigurationError(
            f"config key {key!r} needs a {want.__name__} value, got {value!r}"
        )


def load_config_file(path: str) -> dict[str, object]:
    values: dict[str, object] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
            key, raw = line.split("=", 1)
            values[key.strip()] = _parse_value(raw)
    return values


@dataclass
class RunConfig:
    values: dict[str, object] = field(default_factory=dict)

    @classmethod
    def resolve(cls, config_path: str | None = None,
                overrides: dict[str, object] | None = None) -> "RunConfig":
        values = dict(DEFAULTS)
        if config_path:
            file_values = load_config_file(config_path)
            unknown = set(file_values) - set(DEFAULTS)
            if unknown:
                raise ConfigurationError(
                    f"unknown config keys: {', '.join(sorted(unknown))}"
                )
            values.update(file_values)
        for key, value in (overrides or {}).items():
            if value is None:
                continue
            if key not in DEFAULTS:
                raise ConfigurationError(f"unknown config key {key!r}")
            values[key] = value
        for key, value in values.items():
            _check_type(key, value)
        if values["seed"] < 0:
            raise ConfigurationError(f"seed must be >= 0, got {values['seed']}")
        return cls(values=values)

    def __getitem__(self, key: str):
        return self.values[key]

    def echo_lines(self) -> list[str]:
        lines = [f"tool_version = {__version__}"]
        lines += [f"{k} = {self.values[k]}" for k in sorted(self.values)]
        return lines

    def spatial(self) -> SpatialBlockConfig:
        v = self.values
        return SpatialBlockConfig(
            image_size=int(v["data.image_size"]),
            encoder_blocks=int(v["spatial.encoder_blocks"]),
            encoder_dim=int(v["spatial.encoder_dim"]),
            encoder_heads=int(v["spatial.encoder_heads"]),
            encoder_patch=int(v["spatial.encoder_patch"]),
            depth_decoder_stages=int(v["spatial.depth_decoder_stages"]),
            seg_classes=int(v["spatial.seg_classes"]),
            lambda_l1=float(v["spatial.lambda_l1"]),
            lambda_grad=float(v["spatial.lambda_grad"]),
            lambda_dice=float(v["spatial.lambda_dice"]),
            pc_hidden=int(v["spatial.pc_hidden"]),
            pc_feature_dim=int(v["spatial.pc_feature_dim"]),
        )

    def fusion(self, vocab_size: int) -> FusionConfig:
        v = self.values
        return FusionConfig(
            d_token=int(v["fusion.d_token"]),
            lm_layers=int(v["fusion.lm_layers"]),
            lm_heads=int(v["fusion.lm_heads"]),
            vocab_size=vocab_size,
            max_seq_len=int(v["fusion.max_seq_len"]),
            image_patch=int(v["fusion.image_patch"]),
            pc_tokens=int(v["fusion.pc_tokens"]),
        )

    def train(self, stage: int) -> TrainConfig:
        v = self.values
        return TrainConfig(
            stage=stage,
            lr_lm=float(v["train.lr_lm"]),
            lr_vision=float(v["train.lr_vision"]),
            lr_pretrained_vision=float(v["train.lr_pretrained_vision"]),
            batch_size=int(v["train.batch_size"]),
            epochs=int(v[f"train.epochs.stage{stage}"]),
            warmup_steps=int(v["train.warmup_steps"]),
            adam_beta1=float(v["train.adam_beta1"]),
            adam_beta2=float(v["train.adam_beta2"]),
            weight_decay=float(v["train.weight_decay"]),
            lambda_clip=float(v["train.lambda_clip"]),
            tau=float(v["train.tau"]),
            seed=int(v["seed"]),
            vfm_epochs=int(v["train.vfm_epochs"]),
            qa_per_sample=int(v["train.qa_per_sample"]),
            sgg_max_triples=int(v["train.sgg_max_triples"]),
        )
