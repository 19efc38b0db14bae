"""Run configuration: defaults, config-file overlay, flag overrides.

The file format is flat dotted keys, one `key = value` per line, with
'#' comments. Flags override file values; the fully resolved mapping is
echoed verbatim into every output artifact so runs can be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from . import __version__
from .errors import ConfigurationError
from .evaluate import EvalConfig
from .fusion import FusionConfig
from .spatial import SpatialBlockConfig
from .training import TrainConfig

SECTIONS = {"spatial": SpatialBlockConfig, "fusion": FusionConfig,
            "train": TrainConfig, "eval": EvalConfig}

# Section fields that are not config keys: RunConfig fills the first six
# from its methods' arguments or other keys; the last five keep their one
# value.
NOT_KEYS = frozenset({
    "spatial.image_size", "fusion.vocab_size", "train.stage", "train.epochs",
    "train.seed", "eval.tasks",
    "fusion.mlp_ratio", "train.sgg_max_triples", "eval.mode", "eval.beam_k",
    "eval.threads",
})

# Every other section field is the key `<section>.<field>`, and its default
# is the field's default.
DEFAULTS: dict[str, object] = {
    "seed": 0,
    "data.scenes": 300,
    "data.views": 3,
    "data.image_size": 32,
    "train.epochs.stage1": 6,
    "train.epochs.stage2": 2,
    **{f"{name}.{f.name}": f.default for name, cls in SECTIONS.items()
       for f in fields(cls) if f"{name}.{f.name}" not in NOT_KEYS},
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

    def _section(self, name: str, **given):
        """The section's config, each key cast to its field's type, plus the
        fields the caller gives."""
        keys = {f.name: type(f.default)(self.values[f"{name}.{f.name}"])
                for f in fields(SECTIONS[name]) if f"{name}.{f.name}" in DEFAULTS}
        return SECTIONS[name](**keys, **given)

    def spatial(self) -> SpatialBlockConfig:
        return self._section("spatial", image_size=int(self.values["data.image_size"]))

    def fusion(self, vocab_size: int) -> FusionConfig:
        return self._section("fusion", vocab_size=vocab_size)

    def train(self, stage: int) -> TrainConfig:
        # Only stages 1 and 2 have an epochs key; TrainConfig rejects any
        # other stage with ConfigurationError.
        epochs = self.values.get(f"train.epochs.stage{stage}", 0)
        return self._section("train", stage=stage, seed=int(self.values["seed"]),
                             epochs=int(epochs))

    def eval(self, tasks: tuple[str, ...]) -> EvalConfig:
        return self._section("eval", tasks=tasks)
