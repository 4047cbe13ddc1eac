"""The artifact files: one container layout, one error type, one writer.

Every model file is ``magic | u32 header length | header | payload``, the
header canonical JSON (sorted keys, no spaces), integers little-endian:
checkpoints (``BGV1``) and fusion heads (``BGF1``) hold a float64 parameter
block, ensembles (``BGE1``) a u32 part count, then parts each prefixed by
its u64 length. Reading a malformed blob raises ``ArtifactError`` and
nothing else; every file of a run dir is written by ``write``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

CHECKPOINT_MAGIC = b"BGV1"
ENSEMBLE_MAGIC = b"BGE1"
FUSION_MAGIC = b"BGF1"


class ArtifactError(ValueError):
    """A malformed artifact, or one bound to another model; exit code 2."""


def write(path: str | Path, data: bytes | str | Path | Iterable[str]) -> None:
    """Replace ``path`` with ``data`` (str as UTF-8; a Path hard-linked, or
    copied where the link fails; an iterable of str written as UTF-8 piece
    by piece, so the file is never joined in memory) by way of a temporary
    file in the same directory: a crash, or an iterable that raises, leaves
    the old bytes or the new."""
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        if isinstance(data, Path):
            try:
                os.link(data, tmp)
            except OSError:  # the file system refused the link (EXDEV, EPERM, ...)
                shutil.copyfile(data, tmp)
        elif isinstance(data, (bytes, str)):
            tmp.write_bytes(data.encode() if isinstance(data, str) else data)
        else:
            with tmp.open("w", encoding="utf-8", newline="") as fh:
                fh.writelines(data)
        # onto a link of the same file, the rename does nothing and leaves tmp
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _canonical(obj) -> bytes:
    """The canonical JSON of ``obj``: sorted keys, no spaces."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj``: a config hash, or a stage key."""
    return hashlib.sha256(_canonical(obj)).hexdigest()


def pack(magic: bytes, header: dict, *payload) -> list:
    """The container of ``header`` and the payload as unjoined pieces (bytes,
    or contiguous arrays read in place): one ``b"".join`` makes the file."""
    hbytes = _canonical(header)
    return [magic, struct.pack("<I", len(hbytes)), hbytes, *payload]


def framed(parts: Sequence[Sequence]) -> list:
    """An ensemble payload for ``pack``: the part count, then each part's
    pieces after their total byte length."""
    out = [struct.pack("<I", len(parts))]
    for pieces in parts:
        out += [struct.pack("<Q", sum(memoryview(p).nbytes for p in pieces)), *pieces]
    return out


@contextmanager
def decoding(what: str) -> Iterator[None]:
    """Whatever decoding an artifact raises in the block (a missing or
    mistyped field, bad UTF-8 or JSON, a value its class rejects) comes out
    as ArtifactError."""
    try:
        yield
    except ArtifactError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, ArithmeticError) as e:
        raise ArtifactError(f"malformed {what}: {e!r}") from e


@contextmanager
def reading(blob: bytes | memoryview, magic: bytes,
            what: str) -> Iterator[tuple[dict, memoryview]]:
    """The header and the payload of a ``pack`` container (bytes, or a view of
    them), decoded in the block as by ``decoding``. The payload is a view of
    ``blob``, not a copy."""
    view = memoryview(blob)
    if view[:4] != magic:
        raise ArtifactError(f"bad {what} magic (expected {magic.decode()})")
    if len(view) < 8:
        raise ArtifactError(f"{what} truncated inside its prefix")
    (hlen,) = struct.unpack("<I", view[4:8])
    if len(view) < 8 + hlen:
        raise ArtifactError(f"{what} truncated inside its header")
    with decoding(what):
        yield json.loads(str(view[8 : 8 + hlen], "utf-8")), view[8 + hlen :]


def unframe(payload: memoryview, what: str) -> list[memoryview]:
    """The parts of a ``framed`` payload, which they must fill exactly: views
    of it."""
    pos = 0

    def take(size: int) -> memoryview:
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


def f8(payload: memoryview, count: int, what: str) -> np.ndarray:
    """``count`` little-endian float64 values filling the payload exactly, as
    a read-only view of it: the model that holds them makes its own copy, so
    that no array keeps the file's bytes alive."""
    if len(payload) != 8 * count:
        raise ArtifactError(f"{what} has {len(payload)} payload bytes, "
                            f"its header promises {8 * count}")
    return np.frombuffer(payload, dtype="<f8")
