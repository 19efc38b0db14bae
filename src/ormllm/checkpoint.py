"""Checkpoint serialization.

Layout: the magic line, one manifest line per tensor
("name dims offset flag", dims joined by 'x', offset in bytes from the
start of the payload), a blank line, then the contiguous little-endian
float64 payload in manifest order. Loading validates the manifest
(ASCII text, unique names, contiguous offsets, shape/size agreement, exact
payload length, finite values) so any truncation or length-changing
corruption is rejected.
Load followed by save reproduces the file byte for byte.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import CompatibilityError
from .nn import ModelParams

MAGIC = b"ORMLLM-CKPT v1\n"


def save_checkpoint(params: ModelParams, path: str) -> None:
    """Writes the whole file or nothing: the bytes go to a temporary file in
    the target's directory, which then replaces the target (os.replace), so
    a write that fails part-way leaves the earlier file at `path` as it was
    and removes the temporary one."""
    manifest = []
    payload = []
    offset = 0
    for name, t in params.items():
        arr = np.ascontiguousarray(t.data, dtype="<f8")
        if arr.ndim < 1:
            arr = arr.reshape(1)
        dims = "x".join(str(d) for d in arr.shape)
        flag = 1 if t.requires_grad else 0
        manifest.append(f"{name} {dims} {offset} {flag}\n")
        payload.append(arr.tobytes())
        offset += arr.nbytes
    head, name = os.path.split(path)
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            for line in manifest:
                fh.write(line.encode("ascii"))
            fh.write(b"\n")
            for chunk in payload:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str) -> ModelParams:
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(MAGIC):
        raise CompatibilityError(f"{path}: bad checkpoint magic")
    body = blob[len(MAGIC):]
    sep = body.find(b"\n\n")
    if sep < 0:
        raise CompatibilityError(f"{path}: manifest terminator missing")
    try:
        manifest_text = body[: sep + 1].decode("ascii")
    except UnicodeDecodeError:
        raise CompatibilityError(f"{path}: non-ASCII byte in the manifest") from None
    payload = body[sep + 2:]

    params = ModelParams()
    expected_offset = 0
    for lineno, line in enumerate(manifest_text.splitlines(), start=2):
        fields = line.split(" ")
        if len(fields) != 4:
            raise CompatibilityError(f"{path}:{lineno}: malformed manifest line")
        name, dims, offset_s, flag_s = fields
        try:
            shape = tuple(int(d) for d in dims.split("x"))
            offset = int(offset_s)
            flag = int(flag_s)
        except ValueError:
            raise CompatibilityError(f"{path}:{lineno}: malformed manifest field") from None
        if any(d <= 0 for d in shape) or flag not in (0, 1):
            raise CompatibilityError(f"{path}:{lineno}: invalid shape or flag")
        if name in params:
            raise CompatibilityError(f"{path}:{lineno}: tensor {name!r} listed twice")
        if offset != expected_offset:
            raise CompatibilityError(
                f"{path}:{lineno}: offset {offset} breaks contiguity "
                f"(expected {expected_offset})"
            )
        nbytes = int(np.prod(shape)) * 8
        if offset + nbytes > len(payload):
            raise CompatibilityError(
                f"{path}:{lineno}: tensor {name!r} extends past payload end"
            )
        arr = np.frombuffer(payload, dtype="<f8", count=nbytes // 8,
                            offset=offset).reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise CompatibilityError(f"{path}:{lineno}: tensor {name!r} has non-finite values")
        params.add(name, arr, trainable=bool(flag))
        expected_offset = offset + nbytes
    if expected_offset != len(payload):
        raise CompatibilityError(
            f"{path}: payload length {len(payload)} != manifest total {expected_offset}"
        )
    return params
