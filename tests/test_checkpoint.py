import numpy as np
import pytest

from ormllm import checkpoint
from ormllm.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from ormllm.errors import CompatibilityError
from ormllm.nn import ModelParams


def sample_params():
    params = ModelParams()
    rng = np.random.default_rng(0)
    params.add("lm.wte", rng.normal(size=(7, 4)))
    params.add("lm.blocks.0.attn.wq.w", rng.normal(size=(4, 4)), trainable=False)
    params.add("spatial.head.b", rng.normal(size=(3,)))
    return params


def test_round_trip_values_and_flags(tmp_path):
    params = sample_params()
    path = tmp_path / "a.ckpt"
    save_checkpoint(params, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.names() == params.names()
    for name in params.names():
        np.testing.assert_array_equal(loaded[name].data, params[name].data)
        assert loaded.trainable[name] == params.trainable[name]


def test_load_then_save_is_byte_identical(tmp_path):
    params = sample_params()
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(params, str(p1))
    save_checkpoint(load_checkpoint(str(p1)), str(p2))
    assert p1.read_bytes() == p2.read_bytes()


class DiskFull(OSError):
    pass


@pytest.mark.parametrize("writes_before_failure", [0, 3])
def test_failed_overwrite_keeps_the_old_file(tmp_path, monkeypatch, writes_before_failure):
    path = tmp_path / "best.ckpt"
    save_checkpoint(sample_params(), str(path))
    old = path.read_bytes()
    params = sample_params()
    params["lm.wte"].data[:] = 0.5

    class FailingFile:
        """A real file whose write raises after `writes_before_failure` writes."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            if self.writes == writes_before_failure:
                raise DiskFull("no space left on device")
            self.writes += 1
            return self.fh.write(data)

    monkeypatch.setattr(checkpoint, "open",
                        lambda *args: FailingFile(open(*args)), raising=False)
    with pytest.raises(DiskFull):
        save_checkpoint(params, str(path))
    assert path.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]
    monkeypatch.undo()
    save_checkpoint(params, str(path))
    assert load_checkpoint(str(path))["lm.wte"].data[0, 0] == 0.5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["best.ckpt"]


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = path.read_bytes()
    path.write_bytes(b"X" + blob[1:])
    with pytest.raises(CompatibilityError, match="magic"):
        load_checkpoint(str(path))


def test_payload_byte_removal_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob[:-1])
    with pytest.raises(CompatibilityError):
        load_checkpoint(str(path))


def test_payload_byte_insertion_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = path.read_bytes()
    path.write_bytes(blob + b"\x00")
    with pytest.raises(CompatibilityError):
        load_checkpoint(str(path))


def test_manifest_shape_corruption_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = path.read_bytes()
    corrupted = blob.replace(b"7x4", b"9x4", 1)
    path.write_bytes(corrupted)
    with pytest.raises(CompatibilityError):
        load_checkpoint(str(path))


def test_non_finite_payload_detected(tmp_path):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = bytearray(path.read_bytes())
    header_end = blob.index(b"\n\n") + 2
    blob[header_end : header_end + 8] = np.array([np.nan]).tobytes()
    path.write_bytes(bytes(blob))
    with pytest.raises(CompatibilityError, match="non-finite"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("old,new,match", [
    (b"spatial.head.b ", b"lm.wte ", "listed twice"),
    (b"lm.wte ", b"lm.wt\xe9 ", "non-ASCII"),
], ids=["repeated-name", "non-ascii"])
def test_malformed_manifest_is_incompatible(tmp_path, old, new, match):
    path = tmp_path / "a.ckpt"
    save_checkpoint(sample_params(), str(path))
    blob = path.read_bytes()
    assert blob.count(old) == 1
    path.write_bytes(blob.replace(old, new))
    with pytest.raises(CompatibilityError, match=match):
        load_checkpoint(str(path))


def test_magic_is_the_documented_string():
    assert MAGIC == b"ORMLLM-CKPT v1\n"
