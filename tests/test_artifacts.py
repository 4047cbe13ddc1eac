"""The artifact files: every malformed blob raises ArtifactError, and
``write`` replaces a file whole or leaves it as it was."""

import os

import numpy as np
import pytest

from textboost import artifacts, boosting, fusion
from textboost import encoder as enc
from textboost.artifacts import ArtifactError

from conftest import view


def ensemble(config, sharing_mode: str, kind: str = "boost") -> boosting.BoostEnsemble:
    """Two untrained transformer rounds; under sharing both heads sit on the
    first round's trunk. Boost rounds carry errors 0.2 and 0.3 and their
    alphas, a bag's rounds alpha 1.0 and no error."""
    snaps = [enc.TransformerModel(config, seed=s).snapshot("finetuned") for s in (1, 2)]
    trunk = snaps[0] if sharing_mode == "sharing" else None
    if trunk is None:
        models = [boosting.NeuralRoundModel(s) for s in snaps]
    else:
        models = [boosting.SharedHeadRoundModel(
            head=np.concatenate([view(s, "cls.w").ravel(), view(s, "cls.b")]), trunk=trunk)
            for s in snaps]
    bag = kind == "bag"
    errs = [None, None] if bag else [0.2, 0.3]
    rounds = [boosting.BoostRound(index=m + 1, model=model, err=err,
                                  alpha=1.0 if bag else boosting.compute_alpha(err, config.K))
              for m, (model, err) in enumerate(zip(models, errs))]
    return boosting.BoostEnsemble(K=config.K, learner_kind="transformer",
                                  sharing_mode=sharing_mode, rounds=rounds, ensemble_kind=kind)


# one layer of width 4 keeps the header, and so the flip loop, short
SMALL = enc.EncoderConfig(vocab_size=12, K=3, d_model=4, n_layers=1, n_heads=2, d_ffn=8,
                          max_seq_len=6, dropout_rate=0.1)

# format -> (blob from a config, reader, writer)
FORMATS = {
    "bgv": (lambda cfg: enc.TransformerModel(cfg, seed=0).snapshot("pretrained").to_bytes(),
            enc.ModelSnapshot.from_bytes, enc.ModelSnapshot.to_bytes),
    "bge-bag": (lambda cfg: boosting.ensemble_to_bytes(ensemble(cfg, "privacy", "bag")),
                boosting.ensemble_from_bytes, boosting.ensemble_to_bytes),
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


def rounds(loaded) -> list[tuple]:
    """(index, alpha, err) of every round of a loaded ensemble; none for the
    other formats."""
    return [(r.index, r.alpha, r.err) for r in getattr(loaded, "rounds", [])]


def test_every_bit_flip_in_prefix_and_header_is_rejected_or_loads(artifact):
    name, blob, load, _ = artifact
    end = header_end(blob)
    if name.startswith("bge"):
        # also the part count, the first part's length and that part's own
        # prefix and header
        end = header_end(blob, end + 12)
    trained = rounds(load(blob))
    for bit in range(8 * end):
        bad = bytearray(blob)
        bad[bit // 8] ^= 1 << (bit % 8)
        try:
            loaded = load(bytes(bad))  # a flip may load: another hash of a head
        except ArtifactError:
            continue
        assert rounds(loaded) == trained, bit


@pytest.mark.parametrize("kind, field, other", [
    ("boost", b'"index":2', b'"index":3'),
    ("boost", b'"err":0.3', b'"err":0.4'),
    ("boost", b'"alpha":2.0794415416798357', b'"alpha":2.0794415416798353'),
    ("bag", b'"err":null', b'"err":0.25'),
], ids=["index", "err", "alpha", "bag-err"])
def test_rounds_out_of_order_or_with_another_alpha_or_err_are_rejected(kind, field, other):
    # same-length edits, so that only the round fields are wrong
    blob = boosting.ensemble_to_bytes(ensemble(SMALL, "privacy", kind))
    assert field in blob and len(field) == len(other)
    with pytest.raises(ArtifactError, match="index, alpha or err"):
        boosting.ensemble_from_bytes(blob.replace(field, other, 1))


@pytest.mark.parametrize("field, other", [(b'"alpha":1.0', b'"alpha":2.0'),
                                          (b'"ensemble_kind":"bag"', b'"ensemble_kind":"bog"')],
                         ids=["alpha", "kind"])
def test_bag_with_another_alpha_or_an_unknown_kind_is_rejected(field, other):
    blob = boosting.ensemble_to_bytes(ensemble(SMALL, "privacy", "bag"))
    assert field in blob
    with pytest.raises(ArtifactError, match="alpha 1.0|ensemble_kind"):
        boosting.ensemble_from_bytes(blob.replace(field, other, 1))


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


def test_an_iterable_is_written_piece_by_piece_and_one_that_raises_leaves_the_old_bytes(
        tmp_path):
    path = tmp_path / "log.jsonl"
    artifacts.write(path, (f"{i}é\n" for i in range(3)))
    assert path.read_bytes() == "0é\n1é\n2é\n".encode()

    def cut():
        yield "a new first line\n"
        raise ValueError("the records ran out")

    with pytest.raises(ValueError, match="ran out"):
        artifacts.write(path, cut())
    assert path.read_bytes() == "0é\n1é\n2é\n".encode()
    assert os.listdir(tmp_path) == ["log.jsonl"]
