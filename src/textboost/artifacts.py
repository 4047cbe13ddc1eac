"""The artifact files: one container layout, one error type, one writer.

Every model file is ``magic | u32 header length | header | payload``, the
header canonical JSON (sorted keys, no spaces), integers little-endian:
checkpoints (``BGV1``) and fusion heads (``BGF1``) hold a float64 parameter
block, ensembles (``BGE1``) a u32 part count, then parts each prefixed by
its u64 length. Reading a malformed blob raises ``ArtifactError`` and
nothing else; every file of a run dir is written by ``write``.
"""

from __future__ import annotations

import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"BGV1"
ENSEMBLE_MAGIC = b"BGE1"
FUSION_MAGIC = b"BGF1"


class ArtifactError(ValueError):
    """A malformed artifact, or one bound to another model; exit code 2."""


def write(path: str | Path, data: bytes | str) -> None:
    """Replace ``path`` with ``data`` (str as UTF-8) by way of a temporary
    file in the same directory: a crash leaves the old bytes or the new."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def pack(magic: bytes, header: dict, *payload: bytes) -> bytes:
    """The container of ``header`` and the payload, which comes in parts and
    is joined with one copy."""
    hbytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return b"".join([magic, struct.pack("<I", len(hbytes)), hbytes, *payload])


def framed(parts: Sequence[bytes]) -> list[bytes]:
    """An ensemble payload for ``pack``: the part count, each part after its length."""
    out = [struct.pack("<I", len(parts))]
    for part in parts:
        out += [struct.pack("<Q", len(part)), part]
    return out


@contextmanager
def reading(blob: bytes, magic: bytes, what: str) -> Iterator[tuple[dict, bytes]]:
    """The header and the payload of a ``pack`` container. Whatever decoding
    them raises in the block (a missing or mistyped field, bad UTF-8 or
    JSON, a value its class rejects) comes out as ArtifactError."""
    if blob[:4] != magic:
        raise ArtifactError(f"bad {what} magic (expected {magic.decode()})")
    if len(blob) < 8:
        raise ArtifactError(f"{what} truncated inside its prefix")
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise ArtifactError(f"{what} truncated inside its header")
    try:
        yield json.loads(blob[8 : 8 + hlen].decode()), blob[8 + hlen :]
    except ArtifactError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as e:
        raise ArtifactError(f"malformed {what}: {e!r}") from e


def unframe(payload: bytes, what: str) -> list[bytes]:
    """The parts of a ``framed`` payload, which they must fill exactly."""
    pos = 0

    def take(size: int) -> bytes:
        nonlocal pos
        if pos + size > len(payload):
            raise ArtifactError(f"{what} truncated")
        pos += size
        return payload[pos - size : pos]

    (count,) = struct.unpack("<I", take(4))
    parts = [take(struct.unpack("<Q", take(8))[0]) for _ in range(count)]
    if pos != len(payload):
        raise ArtifactError(f"{what} has {len(payload) - pos} trailing bytes")
    return parts


def f8(payload: bytes, count: int, what: str) -> np.ndarray:
    """``count`` little-endian float64 values filling the payload exactly."""
    if len(payload) != 8 * count:
        raise ArtifactError(f"{what} has {len(payload)} payload bytes, "
                            f"its header promises {8 * count}")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)
