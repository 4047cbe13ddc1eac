"""The artifact files: every malformed blob raises ArtifactError, and
``write`` replaces a file whole or leaves it as it was."""

import os

import numpy as np
import pytest

from textboost import artifacts, boosting, fusion
from textboost import encoder as enc
from textboost.artifacts import ArtifactError


def ensemble(config, sharing_mode: str) -> boosting.BoostEnsemble:
    """Two untrained transformer rounds; under sharing both heads sit on the
    first round's trunk."""
    snaps = [enc.TransformerModel(config, seed=s).snapshot("finetuned") for s in (1, 2)]
    trunk = snaps[0] if sharing_mode == "sharing" else None
    if trunk is None:
        models = [boosting.NeuralRoundModel(s) for s in snaps]
    else:
        models = [boosting.SharedHeadRoundModel(
            head=np.concatenate([s.view("cls.w").ravel(), s.view("cls.b")]), trunk=trunk)
            for s in snaps]
    rounds = [boosting.BoostRound(index=m + 1, model=model, alpha=1.5 - m / 2, err=0.2)
              for m, model in enumerate(models)]
    return boosting.BoostEnsemble(K=config.K, learner_kind="transformer",
                                  sharing_mode=sharing_mode, rounds=rounds, shared_trunk=trunk)


# one layer of width 4 keeps the header, and so the flip loop, short
SMALL = enc.EncoderConfig(vocab_size=12, K=3, d_model=4, n_layers=1, n_heads=2, d_ffn=8,
                          max_seq_len=6)

# format -> (blob from a config, reader, writer)
FORMATS = {
    "bgv": (lambda cfg: enc.TransformerModel(cfg, seed=0).snapshot("pretrained").to_bytes(),
            enc.ModelSnapshot.from_bytes, enc.ModelSnapshot.to_bytes),
    "bge-privacy": (lambda cfg: boosting.ensemble_to_bytes(ensemble(cfg, "privacy")),
                    boosting.ensemble_from_bytes, boosting.ensemble_to_bytes),
    "bge-sharing": (lambda cfg: boosting.ensemble_to_bytes(ensemble(cfg, "sharing")),
                    boosting.ensemble_from_bytes, boosting.ensemble_to_bytes),
    "bgf": (lambda cfg: fusion.FusionHead((6, 24, 3), seed=5, ensemble_hash="ab" * 32).to_bytes(),
            fusion.FusionHead.from_bytes, fusion.FusionHead.to_bytes),
}


@pytest.fixture(params=sorted(FORMATS))
def artifact(request):
    make, load, dump = FORMATS[request.param]
    blob = make(SMALL)
    return request.param, blob, load, dump


def header_end(blob: bytes, start: int = 0) -> int:
    """The offset just past the prefix and header of the container at ``start``."""
    return start + 8 + int.from_bytes(blob[start + 4 : start + 8], "little")


def test_roundtrip_is_byte_identical(artifact):
    _, blob, load, dump = artifact
    assert dump(load(blob)) == blob


def test_every_truncation_and_one_extra_byte_rejected(artifact):
    _, blob, load, _ = artifact
    for bad in [blob[:cut] for cut in range(len(blob))] + [blob + b"\0"]:
        with pytest.raises(ArtifactError):
            load(bad)


def test_every_bit_flip_in_prefix_and_header_is_rejected_or_loads(artifact):
    name, blob, load, _ = artifact
    end = header_end(blob)
    if name.startswith("bge"):
        # also the part count, the first part's length and that part's own
        # prefix and header
        end = header_end(blob, end + 12)
    for bit in range(8 * end):
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
        try:
            load(bytes(bad))  # a flip may load: another alpha, another hash of a head
        except ArtifactError:
            pass


def test_write_keeps_the_old_bytes_when_the_replace_fails(tmp_path, monkeypatch):
    path = tmp_path / "metrics.json"
    artifacts.write(path, b"bytes longer than the old ones")
    artifacts.write(path, "\u00e9old\n")
    assert path.read_bytes() == b"\xc3\xa9old\n"

    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError, match="crashed"):
        artifacts.write(path, b"new bytes")
    assert path.read_bytes() == b"\xc3\xa9old\n"
    assert os.listdir(tmp_path) == ["metrics.json"]
